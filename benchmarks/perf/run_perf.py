#!/usr/bin/env python
"""Wall-clock performance harness for the publish→deliver hot path.

The figure benches (``benchmarks/test_fig*.py``) measure *simulated*
time — the paper's axes.  This harness measures the *simulator's own*
wall-clock cost, the ceiling on how much traffic a run can push through:

* ``fanout`` — a full end-to-end scenario: 1 publisher, 8 consumer
  daemons on one broadcast segment, repeated subjects (the Figs 5–8
  shape).  Exercises every layer: publish, encode-once broadcast,
  per-receiver decode, subject matching, reliable delivery.
* ``trie_match`` — `SubjectTrie.match` alone, steady-state repeated
  subjects against a large subscription table.
* ``codec_decode`` — `decode_packet` alone on one encoded DATA frame,
  the per-receiver cost of hearing a broadcast — for both the plain and
  the header-compressed encodings.
* ``wire_bytes`` — bytes on the wire per delivered message with
  ``BusConfig.wire_compression`` off vs on: the tentpole bandwidth win,
  measured end-to-end on a data-dominated fan-out.
* ``metrics_overhead`` — the fan-out again with the unified metrics
  registry live vs stubbed (``BusConfig.metrics_stub``): instrumenting
  the hot path must cost < ``--max-metrics-overhead`` (default 5%).
* ``typed_payload_bytes`` — per-message payload bytes for a DataObject
  feed with inline type metadata vs the session type plane
  (``BusConfig.type_plane``): after the first message of a session the
  typed payload must be at least ``--min-typed-reduction`` smaller,
  plus the same comparison end-to-end on total wire bytes.
* ``shard_scaling`` — *simulated*-time fan-out throughput with
  ``BusConfig.subject_shards`` at 1 vs 4: under the paper-calibrated
  cost model the per-packet CPU pipeline is the daemon bottleneck, and
  four shard planes (four CPU lanes) must drain a subject-spread burst
  at least ``--min-shard-ratio`` times faster.  The only bench on
  simulated time: the simulator itself is single-threaded, so shard
  planes pay wall-clock for what they save on the modelled host.

Each bench runs twice: with the caches disabled (the escape hatches:
``match_memo_capacity=0`` and ``configure_decode_memo(0)`` — the pre-PR
cost shape) and enabled (the defaults).  Both numbers land in
``BENCH_core.json`` at the repo root, the first datapoint of the perf
trajectory; future PRs append comparable runs rather than regress
silently.

Before timing anything the harness proves cache honesty twice over: a
fixed-seed scenario with bit-flip corruption and a mid-stream
subscribe/unsubscribe must produce *identical* per-consumer delivery
sequences, trace output, and corruption counters (a) with caches on and
off, (b) with wire compression on and off, (c) with the type plane on
and off, and (d) at 4 subject shards and 1.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/run_perf.py            # full
    PYTHONPATH=src python benchmarks/perf/run_perf.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:                       # repo-relative fallback
    sys.path.insert(0, str(SRC))

from repro.core import (BusConfig, InformationBus, QoS,  # noqa: E402
                        StringTable, SubjectTrie, TypeTable,
                        decode_packet, encode_packet)
from repro.core import wire                                      # noqa: E402
from repro.core.message import Envelope, Packet, PacketKind      # noqa: E402
from repro.objects import (AttributeSpec, DataObject,            # noqa: E402
                           TypeDescriptor, encode, encode_typed,
                           standard_registry)
from repro.sim import CostModel, Tracer                          # noqa: E402

CONSUMERS = 8
SUBJECT_CYCLE = [f"feed.equity.s{i}" for i in range(8)]


def _configure_caches(enabled: bool) -> BusConfig:
    """Flip both cache layers at once; returns a matching BusConfig."""
    wire.configure_decode_memo(
        wire.DEFAULT_DECODE_MEMO_CAPACITY if enabled else 0)
    return BusConfig(match_memo_capacity=None if enabled else 0)


# ----------------------------------------------------------------------
# fan-out: the end-to-end hot path
# ----------------------------------------------------------------------

def _fanout_once(messages: int, caches: bool, seed: int = 2026) -> dict:
    config = _configure_caches(caches)
    bus = InformationBus(seed=seed, cost=CostModel.ideal(), config=config)
    bus.add_hosts(CONSUMERS + 1)
    counts = [0] * CONSUMERS
    # each consumer holds several overlapping wildcard subscriptions (the
    # Figure 8 shape: applications subscribe to whole subtrees, not single
    # subjects), all matching the published feed
    patterns = ["feed.>", "feed.equity.>", "feed.equity.*"]
    for i in range(CONSUMERS):
        def on_message(subject, obj, info, i=i):
            counts[i] += 1
        consumer = bus.client(f"node{i + 1:02d}", "consumer")
        for pattern in patterns:
            consumer.subscribe(pattern, on_message)
    publisher = bus.client("node00", "pub")
    payload = encode({"tick": 1}, publisher.registry, inline_types=False)

    start = time.perf_counter()
    for n in range(messages):
        publisher.publish_bytes(SUBJECT_CYCLE[n & 7], payload)
    bus.settle(10.0)
    elapsed = time.perf_counter() - start

    expected = messages * CONSUMERS * len(patterns)
    deliveries = sum(counts)
    assert deliveries == expected, (
        f"fan-out lost messages: {deliveries} != {expected}")
    return {"elapsed": elapsed, "deliveries": deliveries}


def bench_fanout(messages: int, repeats: int) -> dict:
    result = {"messages": messages, "consumers": CONSUMERS,
              "repeats": repeats}
    for label, caches in (("baseline", False), ("cached", True)):
        best = min(_fanout_once(messages, caches)["elapsed"]
                   for _ in range(repeats))
        result[f"{label}_msgs_per_sec"] = round(messages / best, 1)
        result[f"{label}_deliveries_per_sec"] = round(
            messages * CONSUMERS / best, 1)
    result["speedup"] = round(
        result["cached_msgs_per_sec"] / result["baseline_msgs_per_sec"], 2)
    return result


# ----------------------------------------------------------------------
# metrics overhead: the unified registry must stay off the hot path
# ----------------------------------------------------------------------

def _metrics_once(messages: int, stub: bool, seed: int = 2026) -> dict:
    """The fan-out scenario again, pivoted on ``metrics_stub``: live
    per-name instruments vs the shared throwaway ones."""
    wire.configure_decode_memo()
    bus = InformationBus(seed=seed, cost=CostModel.ideal(),
                         config=BusConfig(metrics_stub=stub))
    bus.add_hosts(CONSUMERS + 1)
    counts = [0] * CONSUMERS
    patterns = ["feed.>", "feed.equity.>", "feed.equity.*"]
    for i in range(CONSUMERS):
        def on_message(subject, obj, info, i=i):
            counts[i] += 1
        consumer = bus.client(f"node{i + 1:02d}", "consumer")
        for pattern in patterns:
            consumer.subscribe(pattern, on_message)
    publisher = bus.client("node00", "pub")
    payload = encode({"tick": 1}, publisher.registry, inline_types=False)

    start = time.perf_counter()
    for n in range(messages):
        publisher.publish_bytes(SUBJECT_CYCLE[n & 7], payload)
    bus.settle(10.0)
    elapsed = time.perf_counter() - start

    expected = messages * CONSUMERS * len(patterns)
    deliveries = sum(counts)
    assert deliveries == expected, (
        f"metrics bench lost messages: {deliveries} != {expected}")
    if stub:
        assert all(d.metrics.snapshot() == {}
                   for d in bus.daemons.values()), "stub mode registered"
    else:
        assert all(d.metrics.snapshot() for d in bus.daemons.values()), (
            "live registries are empty — nothing was measured")
    return {"elapsed": elapsed, "deliveries": deliveries}


def bench_metrics_overhead(messages: int, repeats: int) -> dict:
    """Fan-out throughput with the registry live vs stubbed.  The stub
    shares one throwaway instrument per kind, so the increments still
    execute and the difference isolates what per-name instruments add."""
    result = {"messages": messages, "consumers": CONSUMERS,
              "repeats": repeats}
    for label, stub in (("stubbed", True), ("live", False)):
        best = min(_metrics_once(messages, stub)["elapsed"]
                   for _ in range(repeats))
        result[f"{label}_msgs_per_sec"] = round(messages / best, 1)
    result["overhead"] = round(
        result["stubbed_msgs_per_sec"] / result["live_msgs_per_sec"] - 1.0,
        4)
    return result


# ----------------------------------------------------------------------
# trie matching alone
# ----------------------------------------------------------------------

def bench_trie(iterations: int, repeats: int, patterns: int = 2000) -> dict:
    subjects = [f"feed.equity.s{i:04d}" for i in range(32)]
    result = {"iterations": iterations, "patterns": patterns + 2,
              "repeats": repeats}
    expected = None
    for label, capacity in (("baseline", 0), ("cached", 1024)):
        trie: SubjectTrie = SubjectTrie(memo_capacity=capacity)
        for i in range(patterns):
            trie.insert(f"feed.equity.s{i:04d}", i)
        trie.insert("feed.>", "tail")
        trie.insert("feed.*.s0001", "star")
        best, checksum = None, 0
        for _ in range(repeats):
            total = 0
            start = time.perf_counter()
            for n in range(iterations):
                total += len(trie.match(subjects[n & 31]))
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            checksum = total
        if expected is None:
            expected = checksum
        assert checksum == expected, "memo changed match results"
        result[f"{label}_matches_per_sec"] = round(iterations / best, 1)
    result["speedup"] = round(result["cached_matches_per_sec"]
                              / result["baseline_matches_per_sec"], 2)
    return result


# ----------------------------------------------------------------------
# wire codec alone
# ----------------------------------------------------------------------

def bench_codec(iterations: int, repeats: int) -> dict:
    envelopes = [Envelope(subject=SUBJECT_CYCLE[i & 7], sender="node00.pub",
                          session="node00#0", seq=i + 1, payload=b"x" * 64,
                          publish_time=0.25)
                 for i in range(4)]
    data = encode_packet(Packet(PacketKind.DATA, "node00#0", envelopes,
                                last_seq=4, session_start=0.0))
    result = {"iterations": iterations, "frame_bytes": len(data),
              "envelopes_per_frame": len(envelopes), "repeats": repeats}
    reference = None
    for label, capacity in (("baseline", 0), ("cached", 256)):
        wire.configure_decode_memo(capacity)
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(iterations):
                packet = decode_packet(data)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        decoded = [(e.subject, e.seq, e.payload) for e in packet.envelopes]
        if reference is None:
            reference = decoded
        assert decoded == reference, "memo changed decode results"
        result[f"{label}_decodes_per_sec"] = round(iterations / best, 1)
    result["speedup"] = round(result["cached_decodes_per_sec"]
                              / result["baseline_decodes_per_sec"], 2)

    # the same steady-state frame, header-compressed: a defining first
    # frame primes the receiver table, then the reference-only frame is
    # what every receiver decodes per broadcast in the common case
    table = StringTable()
    first = [Envelope(subject=SUBJECT_CYCLE[i & 7], sender="node00.pub",
                      session="node00#0", seq=i + 1, payload=b"x" * 64,
                      publish_time=0.25)
             for i in range(4)]
    defining = encode_packet(Packet(PacketKind.DATA, "node00#0", first,
                                    last_seq=4, session_start=0.0), table)
    steady = [Envelope(subject=SUBJECT_CYCLE[i & 7], sender="node00.pub",
                       session="node00#0", seq=i + 5, payload=b"x" * 64,
                       publish_time=0.5)
              for i in range(4)]
    data_z = encode_packet(Packet(PacketKind.DATA, "node00#0", steady,
                                  last_seq=8, session_start=0.0), table)
    result["compressed_frame_bytes"] = len(data_z)
    for label, capacity in (("baseline", 0), ("cached", 256)):
        wire.configure_decode_memo(capacity)
        tables: dict = {}
        decode_packet(defining, tables=tables)
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(iterations):
                packet = decode_packet(data_z, tables=tables)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        decoded = [(e.subject, e.seq, e.payload) for e in packet.envelopes]
        assert [d[0] for d in decoded] == [d[0] for d in reference], \
            "compressed decode resolved different subjects"
        result[f"compressed_{label}_decodes_per_sec"] = round(
            iterations / best, 1)
    # compression must not slow the per-receiver fresh-parse path down
    result["compressed_vs_plain"] = round(
        result["compressed_baseline_decodes_per_sec"]
        / result["baseline_decodes_per_sec"], 2)
    return result


# ----------------------------------------------------------------------
# wire bytes: header compression on vs off, end to end
# ----------------------------------------------------------------------

WIRE_SUBJECT = "market.feed.equity.gmc.tick"


def bench_wire_bytes(messages: int) -> dict:
    """Bytes on the wire per delivered message, compression off vs on.

    Adverts are disabled and the run is data-dominated (small payloads,
    a hierarchical subject, a short settle) so the comparison measures
    header compression rather than heartbeat chatter.
    """
    result = {"messages": messages, "consumers": 3, "subject": WIRE_SUBJECT}
    for label, compression in (("plain", False), ("compressed", True)):
        wire.configure_decode_memo()
        bus = InformationBus(
            seed=7, cost=CostModel.ideal(),
            config=BusConfig(wire_compression=compression,
                             advertise_subscriptions=False))
        bus.add_hosts(4)
        counts = [0]
        def on_message(subject, obj, info):
            counts[0] += 1
        for i in range(1, 4):
            bus.client(f"node{i:02d}", "mon").subscribe(
                "market.>", on_message)
        publisher = bus.client("node00", "pub")
        payload = encode({"tick": 1}, publisher.registry, inline_types=False)
        for _ in range(messages):
            publisher.publish_bytes(WIRE_SUBJECT, payload)
        bus.settle(5.0)
        assert counts[0] == messages * 3, (
            f"wire_bytes lost messages: {counts[0]} != {messages * 3}")
        result[f"{label}_bytes"] = bus.lan.bytes_transmitted
        result[f"{label}_bytes_per_msg"] = round(
            bus.lan.bytes_transmitted / messages, 1)
    result["reduction"] = round(
        1.0 - result["compressed_bytes"] / result["plain_bytes"], 3)
    return result


# ----------------------------------------------------------------------
# compression honesty: same seed, wire compression on/off, identical
# observable behaviour
# ----------------------------------------------------------------------

def _pivot_once(messages: int, seed: int = 42, **flags) -> dict:
    """The check_determinism scenario, pivoted on one ``BusConfig`` flag:
    corruption faults plus a mid-stream subscribe and unsubscribe, after
    a clean warm-up that publishes every subject once so the table
    definitions reach every daemon before faults start (the unresolvable
    path is covered by the integration tests; here both modes must walk
    the exact same event timeline)."""
    wire.configure_decode_memo()           # defaults in both modes
    tracer = Tracer(enabled=True)
    cost = CostModel.ideal()
    # frame sizes differ between the modes; exact-zero wire time keeps
    # the event timeline identical regardless of encoding length
    cost.bandwidth_bytes_per_sec = float("inf")
    bus = InformationBus(seed=seed, cost=cost, tracer=tracer,
                         config=BusConfig(advertise_subscriptions=False,
                                          **flags))
    bus.add_hosts(5)
    inboxes: dict = {}
    for i in range(1, 4):
        address = f"node{i:02d}"
        box: list = []
        inboxes[address] = box
        bus.client(address, "mon").subscribe(
            "feed.>", lambda s, p, info, box=box: box.append((s, p["n"])))

    late = bus.client("node04", "late")
    late_box: list = []
    inboxes["node04"] = late_box
    state: dict = {}

    def join():
        state["sub"] = late.subscribe(
            "feed.>", lambda s, p, info: late_box.append((s, p["n"])))

    def leave():
        late.unsubscribe(state["sub"])

    publisher = bus.client("node00", "pub")
    for n, subject in enumerate(SUBJECT_CYCLE):     # clean warm-up
        bus.sim.schedule(0.01 + n * 0.01, publisher.publish,
                         subject, {"n": n})

    def arm_fault():
        bus.lan.corrupt_rate = 0.12

    bus.sim.schedule(0.3, arm_fault)
    bus.sim.schedule(0.8, join)
    bus.sim.schedule(1.8, leave)

    interval = 2.5 / messages
    for n in range(messages):
        bus.sim.schedule(0.4 + n * interval, publisher.publish,
                         SUBJECT_CYCLE[n & 7], {"n": n + len(SUBJECT_CYCLE)})
    bus.run_for(30.0)
    return {
        "inboxes": inboxes,
        "trace": [(r.time, r.category, r.fields) for r in tracer.records],
        "corrupt_dropped": sum(d.corrupt_dropped
                               for d in bus.daemons.values()),
        "unresolved_dropped": sum(d.unresolved_dropped
                                  for d in bus.daemons.values()),
        "frames_corrupted": bus.lan.frames_corrupted,
        "bytes": bus.lan.bytes_transmitted,
    }


def check_compression_honesty(messages: int) -> dict:
    plain = _pivot_once(messages, wire_compression=False)
    compressed = _pivot_once(messages, wire_compression=True)
    problems = []
    if plain["inboxes"] != compressed["inboxes"]:
        problems.append("delivery sequences differ")
    if plain["trace"] != compressed["trace"]:
        problems.append("trace records differ")
    for key in ("corrupt_dropped", "frames_corrupted"):
        if plain[key] != compressed[key]:
            problems.append(f"{key} differs "
                            f"({plain[key]} != {compressed[key]})")
    if plain["frames_corrupted"] == 0:
        problems.append("corruption fault was not exercised")
    if compressed["corrupt_dropped"] == 0:
        problems.append("no corrupted frame was CRC-rejected")
    if compressed["unresolved_dropped"] != 0:
        problems.append("warm-up leaked an unresolvable id "
                        "(timeline would diverge)")
    if compressed["bytes"] >= plain["bytes"]:
        problems.append("compression did not reduce bytes "
                        f"({compressed['bytes']} >= {plain['bytes']})")
    total = sum(len(box) for box in compressed["inboxes"].values())
    return {
        "ok": not problems,
        "problems": problems,
        "messages": messages,
        "deliveries": total,
        "trace_records": len(compressed["trace"]),
        "frames_corrupted": compressed["frames_corrupted"],
        "corrupt_dropped": compressed["corrupt_dropped"],
        "bytes_plain": plain["bytes"],
        "bytes_compressed": compressed["bytes"],
    }


# ----------------------------------------------------------------------
# the session type plane: payload bytes and same-seed honesty
# ----------------------------------------------------------------------

def _typed_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "tick_source", attributes=[AttributeSpec("name", "string")]))
    reg.register(TypeDescriptor(
        "tick", attributes=[
            AttributeSpec("n", "int"),
            AttributeSpec("venue", "string", required=False),
            AttributeSpec("source", "tick_source", required=False)]))
    return reg


def _make_tick(reg, n: int) -> DataObject:
    return DataObject(reg, "tick", n=n, venue="NYSE",
                      source=DataObject(reg, "tick_source", name="feedco"))


def bench_typed_payload_bytes(messages: int) -> dict:
    """Per-message payload bytes, inline metadata vs the type plane.

    ``payload_reduction`` is the steady-state per-message saving — what
    every message after the first of a session stops carrying.  The
    end-to-end run repeats the comparison on total wire bytes with
    ``BusConfig.type_plane`` flipped (both runs deliver identically;
    ``check_typed_honesty`` proves that separately).
    """
    reg = _typed_registry()
    obj = _make_tick(reg, 1)
    table = TypeTable()
    typed_payload, _ = encode_typed(obj, reg, table)
    inline_payload = encode(obj, reg, inline_types=True)
    result = {
        "messages": messages, "consumers": 3,
        "inline_payload_bytes": len(inline_payload),
        "typed_payload_bytes": len(typed_payload),
        "payload_reduction": round(
            1.0 - len(typed_payload) / len(inline_payload), 3),
    }
    for label, plane in (("flat", False), ("plane", True)):
        wire.configure_decode_memo()
        bus = InformationBus(
            seed=7, cost=CostModel.ideal(),
            config=BusConfig(type_plane=plane,
                             advertise_subscriptions=False))
        bus.add_hosts(4)
        counts = [0]
        def on_message(subject, obj, info):
            counts[0] += 1
        for i in range(1, 4):
            bus.client(f"node{i:02d}", "mon").subscribe(
                "market.>", on_message)
        publisher = bus.client("node00", "pub",
                               registry=_typed_registry())
        for n in range(messages):
            publisher.publish(WIRE_SUBJECT, _make_tick(reg, n))
        bus.settle(5.0)
        assert counts[0] == messages * 3, (
            f"typed bench lost messages: {counts[0]} != {messages * 3}")
        result[f"{label}_bytes"] = bus.lan.bytes_transmitted
        result[f"{label}_bytes_per_msg"] = round(
            bus.lan.bytes_transmitted / messages, 1)
    result["wire_reduction"] = round(
        1.0 - result["plane_bytes"] / result["flat_bytes"], 3)
    return result


def _typed_pivot_once(messages: int, seed: int = 42, **flags) -> dict:
    """The honesty scenario once more, publishing *DataObjects* and
    pivoted on ``BusConfig.type_plane``: corruption faults plus a
    mid-stream subscribe and unsubscribe, after a clean warm-up that
    publishes every subject once so string tables AND typedefs reach
    every daemon before faults arm.  Payload bytes legitimately differ
    between the modes, so trace fields named ``size`` are masked out of
    the returned trace, and the MTU is raised so neither mode's repair
    frames fragment (fragment boundaries follow payload size — the very
    thing being optimised); everything else must be bit-identical."""
    wire.configure_decode_memo()
    tracer = Tracer(enabled=True)
    cost = CostModel.ideal()
    cost.bandwidth_bytes_per_sec = float("inf")
    cost.mtu = 1 << 20
    bus = InformationBus(seed=seed, cost=cost, tracer=tracer,
                         config=BusConfig(advertise_subscriptions=False,
                                          **flags))
    bus.add_hosts(5)
    reg = _typed_registry()
    inboxes: dict = {}
    for i in range(1, 4):
        address = f"node{i:02d}"
        box: list = []
        inboxes[address] = box
        bus.client(address, "mon").subscribe(
            "feed.>",
            lambda s, o, info, box=box: box.append((s, o.get("n"))))

    late = bus.client("node04", "late")
    late_box: list = []
    inboxes["node04"] = late_box
    state: dict = {}

    def join():
        state["sub"] = late.subscribe(
            "feed.>", lambda s, o, info: late_box.append((s, o.get("n"))))

    def leave():
        late.unsubscribe(state["sub"])

    publisher = bus.client("node00", "pub", registry=_typed_registry())
    for n, subject in enumerate(SUBJECT_CYCLE):     # clean warm-up
        bus.sim.schedule(0.01 + n * 0.01, publisher.publish,
                         subject, _make_tick(reg, n))

    def arm_fault():
        bus.lan.corrupt_rate = 0.12

    bus.sim.schedule(0.3, arm_fault)
    bus.sim.schedule(0.8, join)
    bus.sim.schedule(1.8, leave)

    interval = 2.5 / messages
    for n in range(messages):
        bus.sim.schedule(0.4 + n * interval, publisher.publish,
                         SUBJECT_CYCLE[n & 7],
                         _make_tick(reg, n + len(SUBJECT_CYCLE)))
    bus.run_for(30.0)
    session = bus.daemons["node00"].session
    decode_errors = sum(c.decode_errors
                        for d in bus.daemons.values()
                        for c in d.clients.values())
    return {
        "inboxes": inboxes,
        "trace": [(r.time, r.category,
                   {k: v for k, v in r.fields.items() if k != "size"})
                  for r in tracer.records],
        "retransmits": sum(1 for r in tracer.records
                           if r.category == "retransmit"),
        "corrupt_dropped": sum(d.corrupt_dropped
                               for d in bus.daemons.values()),
        "unresolved_dropped": sum(d.unresolved_dropped
                                  for d in bus.daemons.values()),
        "typedef_unresolved": sum(d.typedef_unresolved_dropped
                                  for d in bus.daemons.values()),
        "decode_errors": decode_errors,
        "frames_corrupted": bus.lan.frames_corrupted,
        "bytes": bus.lan.bytes_transmitted,
        "recv_stats": {
            address: (stats.delivered, stats.duplicates, stats.nacks_sent)
            for address in sorted(bus.daemons)
            if address != "node00"
            for stats in [bus.daemons[address].reliable_stats(session)]
        },
    }


def check_typed_honesty(messages: int) -> dict:
    """Same seed, ``type_plane`` on vs off: deliveries, traces (sizes
    masked) and every counter must match under corruption faults,
    retransmission and a mid-stream (late-joining) subscriber — while
    the plane run moves fewer bytes."""
    plane = _typed_pivot_once(messages, type_plane=True)
    flat = _typed_pivot_once(messages, type_plane=False)
    problems = []
    if plane["inboxes"] != flat["inboxes"]:
        problems.append("delivery sequences differ")
    if plane["trace"] != flat["trace"]:
        problems.append("trace records differ")
    for key in ("corrupt_dropped", "frames_corrupted", "recv_stats",
                "retransmits"):
        if plane[key] != flat[key]:
            problems.append(f"{key} differs "
                            f"({plane[key]} != {flat[key]})")
    if plane["frames_corrupted"] == 0:
        problems.append("corruption fault was not exercised")
    if plane["retransmits"] == 0:
        problems.append("no retransmission was exercised")
    if not plane["inboxes"]["node04"]:
        problems.append("late-joining subscriber heard nothing")
    for label, run in (("plane", plane), ("flat", flat)):
        if run["unresolved_dropped"] or run["typedef_unresolved"]:
            problems.append(f"{label} run leaked an unresolvable id "
                            "(timeline would diverge)")
        if run["decode_errors"]:
            problems.append(f"{label} run hit payload decode errors")
    if plane["bytes"] >= flat["bytes"]:
        problems.append("type plane did not reduce bytes "
                        f"({plane['bytes']} >= {flat['bytes']})")
    total = sum(len(box) for box in plane["inboxes"].values())
    return {
        "ok": not problems,
        "problems": problems,
        "messages": messages,
        "deliveries": total,
        "midstream_subscriber_deliveries": len(plane["inboxes"]["node04"]),
        "trace_records": len(plane["trace"]),
        "frames_corrupted": plane["frames_corrupted"],
        "corrupt_dropped": plane["corrupt_dropped"],
        "retransmits": plane["retransmits"],
        "bytes_plane": plane["bytes"],
        "bytes_flat": flat["bytes"],
    }


# ----------------------------------------------------------------------
# subject-space sharding: simulated-time scaling and same-seed honesty
# ----------------------------------------------------------------------

#: first elements whose crc32 lands on shards 0..3 at four planes — the
#: round-robin burst spreads evenly, every plane carries traffic
SHARD_FIRSTS = ("news", "feed0", "alpha", "beta")


def _shard_fanout_once(messages: int, shards: int, seed: int = 2026) -> dict:
    """One subject-spread burst under the paper-calibrated cost model,
    measured in *simulated* seconds from first publish to last delivery.
    Jitter and loss are zeroed so the drain time is pure pipeline shape:
    one CPU lane per shard plane against one shared wire."""
    wire.configure_decode_memo()
    cost = CostModel(cpu_jitter=0.0, loss_probability=0.0)
    bus = InformationBus(seed=seed, cost=cost,
                         config=BusConfig(subject_shards=shards,
                                          advertise_subscriptions=False))
    consumers = 4
    bus.add_hosts(consumers + 1)
    done = {"count": 0, "last": 0.0}

    def on_message(subject, obj, info):
        done["count"] += 1
        done["last"] = bus.sim.now

    for i in range(consumers):
        bus.client(f"node{i + 1:02d}", "consumer").subscribe(
            ">", on_message)
    publisher = bus.client("node00", "pub")
    payload = encode({"tick": 1}, publisher.registry, inline_types=False)
    for n in range(messages):
        publisher.publish_bytes(
            f"{SHARD_FIRSTS[n & 3]}.tick{n & 7}", payload)
    bus.settle(180.0)
    expected = messages * consumers
    assert done["count"] == expected, (
        f"shard fan-out lost messages: {done['count']} != {expected}")
    if shards > 1:
        published = {row["shard"]: row["published"]
                     for row in bus.daemon("node00").shard_stats()}
        assert all(published[k] > 0 for k in range(shards)), (
            f"burst did not spread across planes: {published}")
    return {"elapsed": done["last"], "deliveries": done["count"]}


def bench_shard_scaling(messages: int) -> dict:
    """Fan-out drain time at 1 vs 4 shard planes, in simulated time.

    The tentpole claim: the single daemon's CPU pipeline is the fan-out
    ceiling, and hash-sharding the subject space onto per-plane lanes
    raises it.  ``shard_ratio`` is the throughput multiple at 4 planes;
    the CI floor (``--min-shard-ratio``) keeps it structural."""
    result = {"messages": messages, "consumers": 4,
              "firsts": list(SHARD_FIRSTS)}
    for label, shards in (("one", 1), ("four", 4)):
        run = _shard_fanout_once(messages, shards)
        result[f"{label}_sim_seconds"] = round(run["elapsed"], 4)
        result[f"{label}_sim_msgs_per_sec"] = round(
            messages / run["elapsed"], 1)
    result["shard_ratio"] = round(result["four_sim_msgs_per_sec"]
                                  / result["one_sim_msgs_per_sec"], 2)
    return result


SHARD_SUBJECTS = [f"{SHARD_FIRSTS[i & 3]}.s{i & 7}" for i in range(8)]


def _shard_pivot_once(messages: int, shards: int, seed: int = 42) -> dict:
    """The honesty scenario pivoted on ``subject_shards``: literal,
    wildcard and durable subscribers, a mid-stream subscribe and
    unsubscribe, and periodic guaranteed publishes, under a zero-CPU
    infinite-bandwidth cost model.  Zero CPU keeps event *times*
    identical whether sends serialize on one lane or four; per-plane
    sequence counters legitimately renumber, so ``seq`` is masked from
    the trace alongside ``size`` (session strings differ by plane)."""
    wire.configure_decode_memo()
    tracer = Tracer(enabled=True)
    cost = CostModel(bandwidth_bytes_per_sec=float("inf"),
                     cpu_send_per_packet=0.0, cpu_send_per_byte=0.0,
                     cpu_recv_per_packet=0.0, cpu_recv_per_byte=0.0,
                     cpu_jitter=0.0, loss_probability=0.0)
    bus = InformationBus(seed=seed, cost=cost, tracer=tracer,
                         config=BusConfig(subject_shards=shards,
                                          advertise_subscriptions=False))
    bus.add_hosts(5)
    inboxes: dict = {}

    def collect(address):
        box = inboxes.setdefault(address, {})
        return lambda s, p, info: box.setdefault(s, []).append(p["n"])

    lit = bus.client("node01", "lit")
    lit.subscribe("news.>", collect("node01"))        # one plane
    lit.subscribe("alpha.>", collect("node01"))       # another plane
    bus.client("node02", "wild").subscribe(">", collect("node02"))
    bus.client("node03", "db").subscribe("feed0.>", collect("node03"),
                                         durable=True)
    late = bus.client("node04", "late")
    state: dict = {}

    def join():
        state["sub"] = late.subscribe(">", collect("node04"))

    def leave():
        late.unsubscribe(state["sub"])

    bus.sim.schedule(0.8, join)
    bus.sim.schedule(1.8, leave)

    publisher = bus.client("node00", "pub")
    interval = 2.5 / messages
    for n in range(messages):
        # every 8th message rides the guaranteed path, on the plane the
        # durable consumer covers (feed0 -> acks must drain the ledger)
        qos = QoS.GUARANTEED if n & 7 == 1 else QoS.RELIABLE
        bus.sim.schedule(0.01 + n * interval, publisher.publish,
                         SHARD_SUBJECTS[n & 7], {"n": n}, qos)
    bus.run_for(30.0)
    facade = bus.daemon("node00")
    return {
        "inboxes": inboxes,
        "trace": [(r.time, r.category,
                   {k: v for k, v in r.fields.items()
                    if k not in ("seq", "size")})
                  for r in tracer.records],
        "published": sum(d.published for d in bus.daemons.values()),
        "delivered": sum(d.delivered for d in bus.daemons.values()),
        "acks_sent": sum(d.acks_sent for d in bus.daemons.values()),
        "corrupt_dropped": sum(d.corrupt_dropped
                               for d in bus.daemons.values()),
        "pending": len(facade.guaranteed_pending()),
        "retransmissions": facade.sender_retransmissions(),
    }


def check_sharding_honesty(messages: int) -> dict:
    """Same seed, ``subject_shards=4`` vs ``1``: per-subject delivery
    sequences, daemon counters, and the seq/size-masked trace must be
    bit-identical — sharding relocates work, it must not reorder,
    drop, or duplicate anything."""
    sharded = _shard_pivot_once(messages, shards=4)
    classic = _shard_pivot_once(messages, shards=1)
    problems = []
    if sharded["inboxes"] != classic["inboxes"]:
        problems.append("per-subject delivery sequences differ")
    if sharded["trace"] != classic["trace"]:
        problems.append("trace records differ")
    for key in ("published", "delivered", "acks_sent", "corrupt_dropped",
                "pending", "retransmissions"):
        if sharded[key] != classic[key]:
            problems.append(f"{key} differs "
                            f"({sharded[key]} != {classic[key]})")
    if sharded["acks_sent"] == 0:
        problems.append("guaranteed path was not exercised")
    if sharded["pending"] != 0:
        problems.append("guaranteed ledger did not drain "
                        f"({sharded['pending']} pending)")
    if not sharded["inboxes"].get("node04"):
        problems.append("mid-stream subscriber heard nothing")
    total = sum(len(ns) for box in sharded["inboxes"].values()
                for ns in box.values())
    return {
        "ok": not problems,
        "problems": problems,
        "messages": messages,
        "deliveries": total,
        "trace_records": len(sharded["trace"]),
        "acks_sent": sharded["acks_sent"],
        "midstream_subscriber_subjects":
            len(sharded["inboxes"].get("node04", {})),
    }


# ----------------------------------------------------------------------
# cache honesty: same seed, caches on/off, identical observable behaviour
# ----------------------------------------------------------------------

def _determinism_once(caches: bool, messages: int, seed: int = 77) -> dict:
    """A hostile fixed-seed scenario: corruption faults plus a mid-stream
    subscribe and unsubscribe (the memo-invalidation edges)."""
    config = _configure_caches(caches)
    tracer = Tracer(enabled=True)
    bus = InformationBus(seed=seed, cost=CostModel.ideal(), config=config,
                         tracer=tracer)
    bus.add_hosts(5)
    bus.lan.corrupt_rate = 0.12
    inboxes: dict = {}
    for i in range(1, 4):
        address = f"node{i:02d}"
        box: list = []
        inboxes[address] = box
        bus.client(address, "mon").subscribe(
            "feed.>", lambda s, p, info, box=box: box.append((s, p["n"])))

    late = bus.client("node04", "late")
    late_box: list = []
    inboxes["node04"] = late_box
    state: dict = {}

    def join():       # subscribe mid-stream: must take effect immediately
        state["sub"] = late.subscribe(
            "feed.>", lambda s, p, info: late_box.append((s, p["n"])))

    def leave():      # unsubscribe mid-stream: no stale memo deliveries
        late.unsubscribe(state["sub"])

    bus.sim.schedule(0.5, join)
    bus.sim.schedule(1.5, leave)

    publisher = bus.client("node00", "pub")
    interval = 2.5 / messages

    def publish(n: int) -> None:
        publisher.publish(SUBJECT_CYCLE[n & 7], {"n": n})

    for n in range(messages):
        bus.sim.schedule(0.01 + n * interval, publish, n)
    bus.run_for(30.0)

    return {
        "inboxes": inboxes,
        "trace": [(r.time, r.category, r.fields) for r in tracer.records],
        "corrupt_dropped": sum(d.corrupt_dropped
                               for d in bus.daemons.values()),
        "frames_corrupted": bus.lan.frames_corrupted,
        "decode_memo": wire.decode_memo_stats(),
    }


def check_determinism(messages: int) -> dict:
    plain = _determinism_once(caches=False, messages=messages)
    cached = _determinism_once(caches=True, messages=messages)
    problems = []
    if plain["inboxes"] != cached["inboxes"]:
        problems.append("delivery sequences differ")
    if plain["trace"] != cached["trace"]:
        problems.append("trace records differ")
    for key in ("corrupt_dropped", "frames_corrupted"):
        if plain[key] != cached[key]:
            problems.append(f"{key} differs "
                            f"({plain[key]} != {cached[key]})")
    if plain["frames_corrupted"] == 0:
        problems.append("corruption fault was not exercised")
    if cached["corrupt_dropped"] == 0:
        problems.append("no corrupted frame was CRC-rejected under memo")
    if cached["decode_memo"]["hits"] == 0:
        problems.append("decode memo never hit")
    late_deliveries = len(cached["inboxes"]["node04"])
    total = sum(len(box) for box in cached["inboxes"].values())
    return {
        "ok": not problems,
        "problems": problems,
        "messages": messages,
        "deliveries": total,
        "midstream_subscriber_deliveries": late_deliveries,
        "trace_records": len(cached["trace"]),
        "frames_corrupted": cached["frames_corrupted"],
        "corrupt_dropped": cached["corrupt_dropped"],
        "decode_memo_hits": cached["decode_memo"]["hits"],
    }


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    parser.add_argument("--output", type=Path,
                        default=ROOT / "BENCH_core.json",
                        help="where to write the JSON report")
    # header compression speeds up the cache-disabled baseline too
    # (smaller frames, fewer string decodes), so the cached-over-baseline
    # ratio is structurally tighter than before compression landed
    parser.add_argument("--min-fanout-speedup", type=float, default=1.5,
                        help="fail unless cached fan-out beats the "
                             "cache-disabled baseline by this factor")
    parser.add_argument("--min-codec-speedup", type=float, default=1.5,
                        help="fail unless memoized decode beats the "
                             "memo-disabled baseline by this factor")
    parser.add_argument("--min-wire-reduction", type=float, default=0.25,
                        help="fail unless header compression cuts wire "
                             "bytes per message by at least this fraction")
    parser.add_argument("--max-metrics-overhead", type=float, default=0.05,
                        help="fail if live registry instruments cost more "
                             "than this fraction of fan-out throughput "
                             "vs the stubbed registry")
    parser.add_argument("--min-typed-reduction", type=float, default=0.40,
                        help="fail unless the type plane cuts steady-"
                             "state payload bytes per message by at "
                             "least this fraction vs inline metadata")
    parser.add_argument("--min-shard-ratio", type=float, default=1.5,
                        help="fail unless 4 shard planes drain the "
                             "fan-out burst at least this many times "
                             "faster (simulated time) than 1")
    args = parser.parse_args(argv)

    if args.quick:
        fanout_msgs, repeats = 600, 2
        trie_iters, codec_iters = 60_000, 20_000
        det_msgs = 80
    else:
        fanout_msgs, repeats = 3000, 3
        trie_iters, codec_iters = 300_000, 80_000
        det_msgs = 150

    print("determinism: fixed seed, caches on vs off ...")
    determinism = check_determinism(det_msgs)
    for problem in determinism["problems"]:
        print(f"  FAIL: {problem}")
    if not determinism["ok"]:
        return 1
    print(f"  ok — {determinism['deliveries']} deliveries, "
          f"{determinism['trace_records']} trace records, "
          f"{determinism['corrupt_dropped']} corrupt frames dropped, "
          f"identical with caches on/off")

    print("compression honesty: fixed seed, wire compression on vs off ...")
    wire.configure_decode_memo()
    compression = check_compression_honesty(det_msgs)
    for problem in compression["problems"]:
        print(f"  FAIL: {problem}")
    if not compression["ok"]:
        return 1
    print(f"  ok — {compression['deliveries']} deliveries, "
          f"{compression['trace_records']} trace records, "
          f"{compression['bytes_compressed']} vs "
          f"{compression['bytes_plain']} bytes, "
          f"identical with compression on/off")

    print("typed honesty: fixed seed, type plane on vs off ...")
    wire.configure_decode_memo()
    typed_honesty = check_typed_honesty(det_msgs)
    for problem in typed_honesty["problems"]:
        print(f"  FAIL: {problem}")
    if not typed_honesty["ok"]:
        return 1
    print(f"  ok — {typed_honesty['deliveries']} deliveries, "
          f"{typed_honesty['trace_records']} trace records, "
          f"{typed_honesty['retransmits']} retransmits, "
          f"{typed_honesty['bytes_plane']} vs "
          f"{typed_honesty['bytes_flat']} bytes, "
          f"identical with the plane on/off")

    print("sharding honesty: fixed seed, subject_shards 4 vs 1 ...")
    wire.configure_decode_memo()
    sharding_honesty = check_sharding_honesty(det_msgs)
    for problem in sharding_honesty["problems"]:
        print(f"  FAIL: {problem}")
    if not sharding_honesty["ok"]:
        return 1
    print(f"  ok — {sharding_honesty['deliveries']} deliveries, "
          f"{sharding_honesty['trace_records']} trace records, "
          f"{sharding_honesty['acks_sent']} guaranteed acks, "
          f"identical at 4 shards and 1")

    benches = {}
    print(f"fanout: 1 publisher -> {CONSUMERS} consumers, "
          f"{fanout_msgs} msgs ...")
    benches["fanout"] = bench_fanout(fanout_msgs, repeats)
    wire.configure_decode_memo()   # no cross-bench memo state
    print(f"trie_match: {trie_iters} matches ...")
    benches["trie_match"] = bench_trie(trie_iters, repeats)
    print(f"codec_decode: {codec_iters} decodes ...")
    benches["codec_decode"] = bench_codec(codec_iters, repeats)
    wire.configure_decode_memo()
    print(f"wire_bytes: compression off vs on, {fanout_msgs} msgs ...")
    benches["wire_bytes"] = bench_wire_bytes(fanout_msgs)
    print(f"metrics_overhead: registry live vs stubbed, "
          f"{fanout_msgs} msgs ...")
    benches["metrics_overhead"] = bench_metrics_overhead(fanout_msgs,
                                                         repeats)
    print(f"typed_payload_bytes: inline metadata vs type plane, "
          f"{fanout_msgs} msgs ...")
    benches["typed_payload_bytes"] = bench_typed_payload_bytes(fanout_msgs)
    print(f"shard_scaling: subject_shards 1 vs 4, {fanout_msgs} msgs ...")
    benches["shard_scaling"] = bench_shard_scaling(fanout_msgs)
    wire.configure_decode_memo()   # leave the process at defaults

    report = {
        "schema": 7,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": args.quick,
        "benches": benches,
        "determinism": determinism,
        "compression_honesty": compression,
        "typed_honesty": typed_honesty,
        "sharding_honesty": sharding_honesty,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    for name, bench in benches.items():
        keys = [k for k in bench if k.endswith("_per_sec")]
        rates = ", ".join(f"{k}={bench[k]:,.0f}" for k in sorted(keys))
        if "speedup" in bench:
            print(f"  {name}: {rates}  (speedup {bench['speedup']}x)")
        elif "shard_ratio" in bench:
            print(f"  {name}: {rates}  "
                  f"(shard ratio {bench['shard_ratio']}x, simulated time)")
        elif "overhead" in bench:
            print(f"  {name}: {rates}  (overhead {bench['overhead']:.1%})")
        elif "payload_reduction" in bench:
            print(f"  {name}: {bench['inline_payload_bytes']} -> "
                  f"{bench['typed_payload_bytes']} payload bytes/msg  "
                  f"(reduction {bench['payload_reduction']:.1%}, wire "
                  f"{bench['wire_reduction']:.1%})")
        else:
            print(f"  {name}: {bench['plain_bytes_per_msg']} -> "
                  f"{bench['compressed_bytes_per_msg']} bytes/msg  "
                  f"(reduction {bench['reduction']:.1%})")
    print(f"wrote {args.output}")

    failed = False
    speedup = benches["fanout"]["speedup"]
    if speedup < args.min_fanout_speedup:
        print(f"FAIL: fan-out speedup {speedup}x < "
              f"required {args.min_fanout_speedup}x")
        failed = True
    codec = benches["codec_decode"]["speedup"]
    if codec < args.min_codec_speedup:
        print(f"FAIL: codec decode speedup {codec}x < "
              f"required {args.min_codec_speedup}x")
        failed = True
    reduction = benches["wire_bytes"]["reduction"]
    if reduction < args.min_wire_reduction:
        print(f"FAIL: wire-byte reduction {reduction:.1%} < "
              f"required {args.min_wire_reduction:.1%}")
        failed = True
    overhead = benches["metrics_overhead"]["overhead"]
    if overhead > args.max_metrics_overhead:
        print(f"FAIL: metrics overhead {overhead:.1%} > "
              f"allowed {args.max_metrics_overhead:.1%}")
        failed = True
    typed = benches["typed_payload_bytes"]["payload_reduction"]
    if typed < args.min_typed_reduction:
        print(f"FAIL: typed payload reduction {typed:.1%} < "
              f"required {args.min_typed_reduction:.1%}")
        failed = True
    shard = benches["shard_scaling"]["shard_ratio"]
    if shard < args.min_shard_ratio:
        print(f"FAIL: shard scaling ratio {shard}x < "
              f"required {args.min_shard_ratio}x")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
