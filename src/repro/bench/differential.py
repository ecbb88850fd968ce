"""Same-seed differential checks: a wire mechanism must be invisible.

The paper promises subscribers per-sender FIFO reliable delivery and,
optionally, guaranteed delivery — nothing about encodings, caches or
shard planes.  Every such mechanism must therefore leave what a
subscriber (and the trace) observes unchanged.  This module proves it
with one fixed-seed hostile scenario run twice, under config A and
config B, and one comparator that requires the two observations to be
equal on everything except the trace fields the row masks.

The scenario (:func:`run_scenario`) runs on a cost model with zero CPU,
infinite bandwidth, a 1 MiB MTU, no jitter and no loss, so frame sizes
and lane counts cannot shift the event timeline:

* a clean warm-up publishes every subject once as a typed
  :class:`~repro.objects.DataObject`, so header strings and typedefs
  reach every daemon before any fault;
* then, on rows with faults, 12% of frames are corrupted in flight;
* literal, wildcard and durable subscribers whose subjects land on
  different shard planes;
* a typed late subscriber joins and leaves mid-stream;
* every 8th message is sent guaranteed to the durable consumer.

A :class:`Row` is the only per-mechanism knowledge: its two configs,
the trace fields it masks, whether faults run, and whether side B must
move fewer bytes.  :data:`ROWS` is run by ``benchmarks/perf/run_perf.py``
before it times anything and by ``tests/properties/test_differential.py``
in the tier-1 suite.  A new mechanism proves its neutrality by adding a
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from ..core import BusConfig, InformationBus, QoS, wire
from ..objects import AttributeSpec, DataObject, TypeDescriptor, \
    standard_registry
from ..sim import CostModel, Tracer

__all__ = ["LATE", "ROWS", "Row", "SHARD_FIRSTS", "SUBJECTS", "check_row",
           "compare", "make_tick", "run_scenario", "typed_registry"]

SEED = 42

#: first elements whose crc32 lands on shards 0..3 at four planes
SHARD_FIRSTS = ("news", "feed0", "alpha", "beta")
SUBJECTS = [f"{SHARD_FIRSTS[i & 3]}.s{i & 7}" for i in range(8)]

#: the late subscriber's address; it must hear something in every row
LATE = "node04"

#: observation fields that measure a run rather than describe what a
#: subscriber saw: reported, never compared
MEASURED = ("bytes", "memo_hits")


def typed_registry():
    """A registry holding the ``tick`` type and its nested source."""
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "tick_source", attributes=[AttributeSpec("name", "string")]))
    reg.register(TypeDescriptor(
        "tick", attributes=[
            AttributeSpec("n", "int"),
            AttributeSpec("venue", "string", required=False),
            AttributeSpec("source", "tick_source", required=False)]))
    return reg


def make_tick(reg, n: int) -> DataObject:
    return DataObject(reg, "tick", n=n, venue="NYSE",
                      source=DataObject(reg, "tick_source", name="feedco"))


def _cost() -> CostModel:
    return CostModel(bandwidth_bytes_per_sec=float("inf"), mtu=1 << 20,
                     cpu_send_per_packet=0.0, cpu_send_per_byte=0.0,
                     cpu_recv_per_packet=0.0, cpu_recv_per_byte=0.0,
                     cpu_jitter=0.0, loss_probability=0.0)


def run_scenario(messages: int, faults: bool = True,
                 decode_memo: int = wire.DEFAULT_DECODE_MEMO_CAPACITY,
                 **flags) -> Dict[str, Any]:
    """Run the scenario once under ``BusConfig(**flags)`` with the given
    decode-memo capacity, and return what it observed.  The process-wide
    decode memo is back at its default capacity when this returns."""
    wire.configure_decode_memo(decode_memo)
    try:
        return _run(messages, faults, flags)
    finally:
        wire.configure_decode_memo()


def _run(messages: int, faults: bool,
         flags: Mapping[str, Any]) -> Dict[str, Any]:
    tracer = Tracer(enabled=True)
    bus = InformationBus(seed=SEED, cost=_cost(), tracer=tracer,
                         config=BusConfig(advertise_subscriptions=False,
                                          **flags))
    bus.add_hosts(5)
    inboxes: Dict[str, Dict[str, List[int]]] = {}

    def collect(address):
        box = inboxes.setdefault(address, {})
        return lambda s, o, info: box.setdefault(s, []).append(o.get("n"))

    lit = bus.client("node01", "lit")
    lit.subscribe("news.s0", collect("node01"))           # one plane
    lit.subscribe("alpha.>", collect("node01"))           # another plane
    bus.client("node02", "wild").subscribe(">", collect("node02"))
    bus.client("node03", "db").subscribe("feed0.>", collect("node03"),
                                         durable=True)
    late = bus.client(LATE, "late")
    state: Dict[str, Any] = {}

    def join():
        state["sub"] = late.subscribe(">", collect(LATE))

    def leave():
        late.unsubscribe(state["sub"])

    def arm_fault():
        bus.lan.corrupt_rate = 0.12

    reg = typed_registry()
    publisher = bus.client("node00", "pub", registry=typed_registry())
    for n, subject in enumerate(SUBJECTS):                # clean warm-up
        bus.sim.schedule(0.01 + n * 0.01, publisher.publish,
                         subject, make_tick(reg, n))
    if faults:
        bus.sim.schedule(0.3, arm_fault)
    bus.sim.schedule(0.8, join)
    bus.sim.schedule(1.8, leave)
    interval = 2.5 / messages
    for n in range(messages):
        # every 8th message rides the guaranteed path to the durable
        # consumer (feed0.s1): its acks must drain the ledger
        qos = QoS.GUARANTEED if n & 7 == 1 else QoS.RELIABLE
        bus.sim.schedule(0.4 + n * interval, publisher.publish,
                         SUBJECTS[n & 7], make_tick(reg, n + len(SUBJECTS)),
                         qos)
    bus.run_for(30.0)

    daemons = list(bus.daemons.values())
    origin = bus.daemon("node00")
    return {
        "inboxes": inboxes,
        "trace": [(r.time, r.category, r.fields) for r in tracer.records],
        "published": sum(d.published for d in daemons),
        "delivered": sum(d.delivered for d in daemons),
        "acks_sent": sum(d.acks_sent for d in daemons),
        "corrupt_dropped": sum(d.corrupt_dropped for d in daemons),
        "unresolved_dropped": sum(d.unresolved_dropped for d in daemons),
        "decode_errors": sum(c.decode_errors for d in daemons
                             for c in d.clients.values()),
        "frames_corrupted": bus.lan.frames_corrupted,
        "pending": len(origin.guaranteed_pending()),
        "retransmissions": origin.sender_retransmissions(),
        "bytes": bus.lan.bytes_transmitted,
        "memo_hits": wire.decode_memo_stats()["hits"],
    }


@dataclass(frozen=True)
class Row:
    """One differential check: config A against config B.

    ``a`` and ``b`` are :func:`run_scenario` keywords — ``BusConfig``
    fields plus ``decode_memo``.  ``masks`` names the trace fields that
    may legitimately differ; everything else must be equal."""

    name: str
    a: Mapping[str, Any]
    b: Mapping[str, Any]
    masks: Tuple[str, ...] = ()
    faults: bool = True
    b_smaller: bool = False         # B must move fewer bytes than A


_CACHES_OFF = {"match_memo_capacity": 0, "decode_memo": 0}
_SHARD_MASKS = ("seq", "size")      # per-plane seqs renumber

ROWS: Tuple[Row, ...] = (
    Row("caches", a=_CACHES_OFF, b={}),
    Row("compression", a={"wire_compression": False},
        b={"wire_compression": True}, masks=("size",), b_smaller=True),
    Row("type_plane", a={"type_plane": False}, b={"type_plane": True},
        masks=("size",), b_smaller=True),
    Row("all_off",
        a={**_CACHES_OFF, "wire_compression": False, "type_plane": False},
        b={}, masks=("size",), b_smaller=True),
    # each plane sends its own frames, so corruption draws differ by
    # plane count: shard rows run without faults
    Row("shards", a={"subject_shards": 4}, b={"subject_shards": 1},
        masks=_SHARD_MASKS, faults=False),
    Row("shards_flat", a={"subject_shards": 4, "type_plane": False},
        b={"subject_shards": 1, "type_plane": False},
        masks=_SHARD_MASKS, faults=False),
)


def _masked(trace, masks: Tuple[str, ...]):
    return [(time, category,
             {k: v for k, v in fields.items() if k not in masks})
            for time, category, fields in trace]


def compare(row: Row, a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Every difference between two observations outside ``row.masks``,
    plus every liveness check either side fails; empty means the row
    holds."""
    problems = []
    for key in a:
        if key in MEASURED:
            continue
        left, right = a[key], b[key]
        if key == "trace":
            left, right = _masked(left, row.masks), _masked(right, row.masks)
        if left != right:
            detail = f" ({left} != {right})" if isinstance(left, int) else ""
            problems.append(f"{key} differs{detail}")
    for side, config, run in (("A", row.a, a), ("B", row.b, b)):
        problems.extend(f"{side}: {p}" for p in _liveness(row, config, run))
    if row.b_smaller and b["bytes"] >= a["bytes"]:
        problems.append(f"B did not move fewer bytes "
                        f"({b['bytes']} >= {a['bytes']})")
    return problems


def _liveness(row: Row, config: Mapping[str, Any],
              run: Dict[str, Any]) -> List[str]:
    """What must have happened for a row not to pass vacuously."""
    problems = []
    if row.faults:
        if run["frames_corrupted"] == 0:
            problems.append("corruption fault was not exercised")
        if run["corrupt_dropped"] == 0:
            problems.append("no corrupted frame was CRC-rejected")
        if run["retransmissions"] == 0:
            problems.append("no retransmission was exercised")
    if run["acks_sent"] == 0:
        problems.append("guaranteed path was not exercised")
    if run["pending"]:
        problems.append(f"guaranteed ledger did not drain "
                        f"({run['pending']} pending)")
    if not run["inboxes"].get(LATE):
        problems.append("late subscriber heard nothing")
    if run["decode_errors"]:
        problems.append("payload decode errors")
    if run["unresolved_dropped"]:
        problems.append("unresolvable ids dropped frames")
    memo = config.get("decode_memo", wire.DEFAULT_DECODE_MEMO_CAPACITY)
    if memo and run["memo_hits"] == 0:
        problems.append("decode memo never hit")
    return problems


def check_row(row: Row, messages: int) -> Dict[str, Any]:
    """Run ``row`` at ``messages`` and summarize it for a report."""
    a = run_scenario(messages, row.faults, **row.a)
    b = run_scenario(messages, row.faults, **row.b)
    problems = compare(row, a, b)
    return {
        "ok": not problems,
        "problems": problems,
        "messages": messages,
        "masks": list(row.masks),
        "faults": row.faults,
        "deliveries": sum(len(ns) for box in b["inboxes"].values()
                          for ns in box.values()),
        "late_deliveries": sum(len(ns)
                               for ns in b["inboxes"].get(LATE, {}).values()),
        "trace_records": len(b["trace"]),
        "frames_corrupted": b["frames_corrupted"],
        "corrupt_dropped": b["corrupt_dropped"],
        "retransmissions": b["retransmissions"],
        "acks_sent": b["acks_sent"],
        "memo_hits": [a["memo_hits"], b["memo_hits"]],
        "bytes": [a["bytes"], b["bytes"]],
    }
