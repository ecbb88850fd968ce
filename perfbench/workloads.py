"""The benchmark's workloads, each on the default ``BusConfig`` and the
paper-calibrated ``CostModel()``.

One :class:`Scenario` is one run of one workload with one seed: it
builds the topology and its subscriptions, warms up, publishes, runs
the simulator until the bus is quiet, and returns a :class:`RunResult`
with the end-to-end figures, the layer counters and the correctness
failures.  The library is driven through its public API only; layer
counters are read from the stats surfaces it already exposes.
"""

from __future__ import annotations

import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core import BusConfig, InformationBus, QoS, sum_counters, wire
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel

from . import checks

#: Simulated seconds per ``run_until`` slice while draining.
STEP_S = 0.1
#: The bus is quiet once this many simulated seconds pass with no new
#: delivery, NACK, retransmission or pending guaranteed message.  Longer
#: than the NACK back-off cap and the guaranteed republish period
#: (0.5 s each), so a repair still in progress always shows activity.
QUIET_S = 1.0
#: Simulated seconds after the last publish at which a run that never
#: goes quiet is stopped (and counted as one failure).
MAX_DRAIN_S = 120.0
#: Simulated seconds of warm-up after the warm-up publishes: longer than
#: the subscription re-advertisement period (2 s).
WARM_UP_S = 3.0
#: A late joiner may start its run with a message published this many
#: simulated seconds before the join: its frames can still be on their
#: way through the sender's pipeline when the joiner attaches.
JOIN_SLACK_S = 0.1

SUBJECTS = [f"feed.equity.s{i}" for i in range(8)]

Wrap = Callable[[str, Callable], Callable]


def _no_wrap(key: str, fn: Callable) -> Callable:
    return fn


@dataclass
class RunResult:
    """What one run of one workload measured."""

    seed: int
    published: int
    #: wall seconds to build, subscribe and warm up
    setup_s: float
    #: wall seconds from the first publish until the bus was quiet
    wall_s: float
    #: simulated seconds from the first publish to the last delivery
    sim_s: float
    #: simulated publish->callback latencies, seconds, ascending
    latencies: Sequence[float]
    #: deterministic layer counters (identical for identical seeds)
    counts: Dict[str, float]
    #: correctness failures by kind
    failures: Counter
    #: expected deliveries + publishes attempted
    attempted: int
    spans: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: wall seconds of the reference loop timed beside this run
    reference_s: float = 0.0

    def sim_metrics(self) -> Dict[str, float]:
        """The simulated-clock end-to-end metrics (exact per seed)."""
        return {
            "sim_msgs_per_s": self.published / self.sim_s,
            "sim_latency_p50_ms": 1e3 * checks.percentile(self.latencies, 50),
            "sim_latency_p99_ms": 1e3 * checks.percentile(self.latencies, 99),
            "wire_bytes_per_msg": self.counts["wire_bytes"] / self.published,
        }


class Scenario:
    """Shared machinery: consumers that record, draining to quiet, and
    the counter snapshot taken at the start and end of the measured
    phase."""

    name = ""

    def __init__(self, seed: int, wrap: Wrap = _no_wrap):
        self.seed = seed
        self.wrap = wrap
        self.rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.inbox: Dict[str, List[checks.Record]] = {}
        self.latencies: List[float] = []
        self.last_delivery = 0.0
        self.refused = 0
        self.payload_bytes = 0
        self.events = 0
        self.never_quiet = 0
        self.make_inputs()

    # -- hooks ---------------------------------------------------------
    def make_inputs(self) -> None:
        """Generate the published inputs from the seed."""
        raise NotImplementedError

    def build(self) -> None:
        """Build the topology and its subscriptions."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One message per subject, then idle time: every daemon learns
        the publisher's string table and sends its first subscription
        snapshot before measuring starts."""
        for i, subject in enumerate(SUBJECTS):
            self.publish(self.publisher, subject, {"n": -1 - i, "body": ""})
        self.run_for(WARM_UP_S)

    def publish_all(self) -> float:
        """Start publishing; returns the simulated time the last publish
        is due."""
        raise NotImplementedError

    def check(self) -> Tuple[Counter, int]:
        """(failures, expected deliveries) of the measured phase."""
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------
    def new_bus(self) -> InformationBus:
        # the decode and digest memos are process-wide: start each run
        # cold so identical seeds give identical counters
        wire.configure_decode_memo()
        return InformationBus(seed=self.seed, cost=CostModel(),
                              config=BusConfig())

    def consumer(self, label: str, unpack: Callable) -> Callable:
        """A subscription callback that records ``(n, body_len)`` and the
        latency of every measured (``n >= 0``) delivery."""
        box = self.inbox.setdefault(label, [])
        latencies = self.latencies

        def on_message(subject, obj, info):
            n, body_len = unpack(obj)
            if n < 0:
                return          # warm-up traffic
            box.append((n, body_len))
            latencies.append(info.deliver_time - info.publish_time)
            if info.deliver_time > self.last_delivery:
                self.last_delivery = info.deliver_time
        return self.wrap("bench.callback", on_message)

    def publish(self, client, subject: str, obj, qos=QoS.RELIABLE) -> None:
        receipt = client.publish(subject, obj, qos=qos)
        if receipt.accepted:
            self.payload_bytes += receipt.size
        else:
            self.refused += 1

    def run_for(self, seconds: float) -> None:
        sim = self.bus.sim
        self.events += sim.run_until(sim.now + seconds)

    def _activity(self) -> tuple:
        session = self.publisher_daemon.session
        nacks = 0
        for daemon in self.bus.daemons.values():
            counter = daemon.metrics.get(
                f"reliable.recv[{session}].nacks_sent")
            if counter is not None:
                nacks += counter.value
        return (len(self.latencies), nacks,
                sum(d.sender_retransmissions()
                    for d in self.bus.daemons.values()))

    def drain(self, last_due: float) -> int:
        """Run until the bus is quiet; returns the medium's byte count
        at the end of the last slice that saw activity."""
        sim, lan = self.bus.sim, self.bus.lan
        signature = None
        active_at = sim.now
        bytes_at = lan.bytes_transmitted
        while True:
            self.run_for(STEP_S)
            now = sim.now
            current = self._activity()
            if (current != signature or now <= last_due
                    or self.publisher_daemon.guaranteed_pending()):
                signature = current
                active_at = now
                bytes_at = lan.bytes_transmitted
            elif now - active_at >= QUIET_S - 1e-9:
                return bytes_at
            if now > last_due + MAX_DRAIN_S:
                self.never_quiet = 1
                return bytes_at

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters; the run reports end minus start."""
        daemons = list(self.bus.daemons.values())
        snapshots = [d.metrics.snapshot() for d in daemons]
        memo = wire.decode_memo_stats()
        wire_registry = wire.wire_metrics()
        flows = [d.flow_stats() for d in daemons]
        return {
            "events": self.events,
            "frames": self.bus.lan.frames_transmitted,
            "frames_lost": self.bus.lan.frames_dropped,
            "frames_corrupted": self.bus.lan.frames_corrupted,
            "datagrams_received": sum(
                sum_counters(s, ["datagrams_received"]) for s in snapshots),
            "nacks_sent": sum(sum_counters(s, ["nacks_sent"])
                              for s in snapshots),
            "duplicates": sum(sum_counters(s, ["duplicates"])
                              for s in snapshots),
            "retransmitted": sum(d.sender_retransmissions() for d in daemons),
            "skipped_frames": sum(d.skipped_frames for d in daemons),
            "acks": sum(d.acks_sent for d in daemons),
            "delivered": sum(d.delivered for d in daemons),
            "stable_writes": sum(h.stable.write_count
                                 for h in self.bus.hosts()),
            "memo_hits": memo["hits"],
            "memo_misses": memo["misses"],
            "typedefs_defined": wire_registry.get(
                "wire.typedef.defined").value,
            "typedefs_learned": wire_registry.get(
                "wire.typedef.learned").value,
            "flow_dropped": sum(q["dropped_newest"] + q["dropped_oldest"]
                                for f in flows for q in f.values()),
            "lane_high_watermark": max(
                (q["high_watermark"] for f in flows
                 for name, q in f.items() if name.startswith("deliver[")),
                default=0),
            "refused": self.refused,
            "decode_errors": sum(c.decode_errors for d in daemons
                                 for c in d.clients.values()),
            "payload_bytes": self.payload_bytes,
        }

    def run(self, spans=None) -> RunResult:
        """Set up, measure, check.  ``spans`` (a
        :class:`~perfbench.spans.SpanRecorder` whose wrappers are
        installed) records only the measured phase."""
        start = time.perf_counter()
        self.build()
        self.warm_up()
        setup_s = time.perf_counter() - start
        before = self.counters()
        wire_base = self.bus.lan.bytes_transmitted
        first_publish = self.bus.sim.now
        if spans is not None:
            spans.reset()
            spans.active = True
        start = time.perf_counter()
        try:
            wire_end = self.drain(self.publish_all())
        finally:
            if spans is not None:
                spans.active = False
        wall_s = time.perf_counter() - start
        after = self.counters()
        counts = {key: after[key] - before[key] for key in after}
        counts["lane_high_watermark"] = after["lane_high_watermark"]
        counts["wire_bytes"] = wire_end - wire_base
        failures, expected = self.check()
        failures["refused"] += counts["refused"]
        failures["decode_errors"] += counts["decode_errors"]
        failures["never_quiet"] += self.never_quiet
        return RunResult(
            seed=self.seed, published=self.messages, setup_s=setup_s,
            wall_s=wall_s, sim_s=self.last_delivery - first_publish,
            latencies=array("d", sorted(self.latencies)), counts=counts,
            failures=+failures,
            attempted=expected + self.messages,
            spans=({key: (spans.calls[key], spans.self_s.get(key, 0.0))
                    for key in spans.calls} if spans is not None else {}))


def _unpack_dict(obj) -> checks.Record:
    return obj["n"], len(obj["body"])


def _unpack_object(obj) -> checks.Record:
    return obj.get("n"), len(obj.get("body"))


class FanoutBurst(Scenario):
    """1 publisher, 8 consumer hosts each subscribed to the whole feed
    (``feed.>``); small marshalled dicts on 8 subjects, published
    back-to-back at one simulated instant (the Appendix batch shape)."""

    name = "fanout_burst"
    sub_seeds = 20
    messages = 3000
    consumers = 8

    def make_inputs(self) -> None:
        self.plan = [(self.rng.choice(SUBJECTS),
                      {"n": n, "body": "x" * self.rng.randint(8, 64)})
                     for n in range(self.messages)]

    def build(self) -> None:
        self.bus = bus = self.new_bus()
        bus.add_hosts(self.consumers + 1)
        for i in range(1, self.consumers + 1):
            bus.client(f"node{i:02d}", "consumer").subscribe(
                "feed.>", self.consumer(f"node{i:02d}", _unpack_dict))
        self.publisher = bus.client("node00", "pub")
        self.publisher_daemon = bus.daemon("node00")

    def publish_all(self) -> float:
        for subject, obj in self.plan:
            self.publish(self.publisher, subject, obj)
        return self.bus.sim.now

    def check(self) -> Tuple[Counter, int]:
        expected = [_unpack_dict(obj) for _, obj in self.plan]
        failures = checks.merge(*(checks.sequence_failures(expected, box)
                                  for box in self.inbox.values()))
        return failures, len(expected) * self.consumers


class IdleHeavy(Scenario):
    """1 publisher; 1 consumer wanting 2 of the 8 subjects; 12 idle
    daemons with 100 literal subscriptions each in unrelated subtrees.
    Open loop at 400 msgs/s simulated, each publish fired at its due
    time by the kernel."""

    name = "idle_heavy"
    sub_seeds = 14
    messages = 4800
    rate = 400.0
    idle_daemons = 12
    idle_subscriptions = 100
    wanted = SUBJECTS[:2]

    def make_inputs(self) -> None:
        # every subject equally often, so the consumer's share (and its
        # latency sample count) is exactly a quarter of the feed
        subjects = SUBJECTS * (self.messages // len(SUBJECTS))
        self.rng.shuffle(subjects)
        self.plan = [(subject, {"n": n, "body": "x" * self.rng.randint(8, 64)})
                     for n, subject in enumerate(subjects)]

    def build(self) -> None:
        self.bus = bus = self.new_bus()
        bus.add_hosts(self.idle_daemons + 2)
        consumer = bus.client("node01", "consumer")
        for subject in self.wanted:
            consumer.subscribe(subject, self.consumer("node01", _unpack_dict))
        for i in range(2, self.idle_daemons + 2):
            idle = bus.client(f"node{i:02d}", "idle")
            record = self.consumer(f"idle{i:02d}", _unpack_dict)
            for j in range(self.idle_subscriptions):
                idle.subscribe(f"idle{i:02d}.region{j % 10}.item{j:03d}",
                               record)
        self.publisher = bus.client("node00", "pub")
        self.publisher_daemon = bus.daemon("node00")

    def publish_all(self) -> float:
        sim = self.bus.sim
        start = sim.now
        for n, (subject, obj) in enumerate(self.plan):
            sim.schedule_at(start + n / self.rate, self.publish,
                            self.publisher, subject, obj)
        return start + (self.messages - 1) / self.rate

    def check(self) -> Tuple[Counter, int]:
        expected = [_unpack_dict(obj) for subject, obj in self.plan
                    if subject in self.wanted]
        failures = checks.sequence_failures(expected, self.inbox["node01"])
        for label, box in self.inbox.items():
            if label != "node01":
                failures.update(checks.idle_failures(box))
        return failures, len(expected)


def _tick_registry():
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "tick_source", attributes=[AttributeSpec("name", "string")]))
    registry.register(TypeDescriptor(
        "tick", attributes=[AttributeSpec("n", "int"),
                            AttributeSpec("body", "string"),
                            AttributeSpec("source", "tick_source")]))
    return registry


class TypedMixed(Scenario):
    """1 publisher of typed ``tick`` objects with a nested
    ``tick_source``; 10% carry ~2.5 KB bodies (fragmented at the 1472 B
    MTU); 10% are GUARANTEED to a durable subscriber; 4 reliable
    subscribers with bare registries learn the types from wire
    typedefs; 2% of frames are corrupted after warm-up; a late joiner
    on a new host subscribes half-way.  Open loop at 200 msgs/s."""

    name = "typed_mixed"
    sub_seeds = 6
    messages = 4000
    rate = 200.0
    readers = 4
    large_share = 0.1
    guaranteed_share = 0.1
    corrupt_rate = 0.02

    def make_inputs(self) -> None:
        registry = self.registry = _tick_registry()
        source = DataObject(registry, "tick_source", name="feedco")
        count = self.messages
        large = set(self.rng.sample(range(count),
                                    int(count * self.large_share)))
        guaranteed = set(self.rng.sample(range(count),
                                         int(count * self.guaranteed_share)))
        self.plan = []
        for n in range(count):
            body_len = (self.rng.randint(2400, 2600) if n in large
                        else self.rng.randint(8, 64))
            qos = QoS.GUARANTEED if n in guaranteed else QoS.RELIABLE
            tree = "gd" if qos is QoS.GUARANTEED else "tick"
            subject = f"mkt.{tree}.s{self.rng.randrange(8)}"
            obj = DataObject(registry, "tick", n=n, body="x" * body_len,
                             source=source)
            self.plan.append((subject, obj, qos))
        # the joiner attaches between two due times, half-way through
        self.join_at = (count // 2 + 0.5) / self.rate

    def build(self) -> None:
        self.bus = bus = self.new_bus()
        bus.add_hosts(self.readers + 2)
        for i in range(1, self.readers + 1):
            bus.client(f"node{i:02d}", "reader").subscribe(
                "mkt.tick.>", self.consumer(f"node{i:02d}", _unpack_object))
        durable = f"node{self.readers + 1:02d}"
        bus.client(durable, "ledger").subscribe(
            "mkt.gd.>", self.consumer("durable", _unpack_object),
            durable=True)
        self.publisher = bus.client("node00", "pub", registry=self.registry)
        self.publisher_daemon = bus.daemon("node00")

    def warm_up(self) -> None:
        source = DataObject(self.registry, "tick_source", name="feedco")
        for i, tree in enumerate(("tick", "gd")):
            qos = QoS.GUARANTEED if tree == "gd" else QoS.RELIABLE
            self.publish(self.publisher, f"mkt.{tree}.s0",
                         DataObject(self.registry, "tick", n=-1 - i,
                                    body="", source=source), qos=qos)
        self.run_for(WARM_UP_S)
        self.bus.lan.corrupt_rate = self.corrupt_rate

    def join(self) -> None:
        self.joined = self.bus.sim.now
        host = f"node{self.readers + 2:02d}"
        self.bus.add_host(host)
        self.bus.client(host, "late").subscribe(
            "mkt.tick.>", self.consumer("late", _unpack_object))

    def publish_all(self) -> float:
        sim = self.bus.sim
        self.start = start = sim.now
        for n, (subject, obj, qos) in enumerate(self.plan):
            sim.schedule_at(start + n / self.rate, self.publish,
                            self.publisher, subject, obj, qos)
        sim.schedule_at(start + self.join_at, self.join)
        return start + (self.messages - 1) / self.rate

    def check(self) -> Tuple[Counter, int]:
        expected = [_unpack_object(obj) for _, obj, qos in self.plan
                    if qos is QoS.RELIABLE]
        guaranteed = [_unpack_object(obj) for _, obj, qos in self.plan
                      if qos is QoS.GUARANTEED]
        failures = checks.merge(
            *(checks.sequence_failures(expected, self.inbox[f"node{i:02d}"])
              for i in range(1, self.readers + 1)),
            checks.exactly_once_failures(guaranteed, self.inbox["durable"]))
        earliest = self.joined - self.start - JOIN_SLACK_S
        # n is also the message's index in the publish schedule
        first_allowed = next(i for i, (n, _) in enumerate(expected)
                             if n / self.rate >= earliest)
        failures.update(checks.late_join_failures(
            expected, self.inbox.get("late", []), first_allowed))
        return failures, (len(expected) * self.readers + len(guaranteed)
                          + len(expected) - first_allowed)


WORKLOADS = {cls.name: cls for cls in (FanoutBurst, IdleHeavy, TypedMixed)}
