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

Before timing anything the harness runs every row of
:mod:`repro.bench.differential`: one fixed-seed hostile scenario
(corruption, retransmission, guaranteed traffic, a late subscriber that
joins and leaves) under two configs per row — caches, compression, the
type plane, all of them, and shard planes — must produce identical
deliveries, traces and counters.  The tier-1 suite runs the same rows.

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

from repro.bench.differential import (ROWS, SHARD_FIRSTS,  # noqa: E402
                                      check_row, make_tick, typed_registry)
from repro.core import (BusConfig, InformationBus,  # noqa: E402
                        SessionTable, SubjectTrie, TypeTable,
                        decode_packet, encode_packet)
from repro.core import wire                                      # noqa: E402
from repro.core.message import Envelope, Packet, PacketKind      # noqa: E402
from repro.objects import encode, encode_typed                   # noqa: E402
from repro.sim import CostModel                                  # noqa: E402

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
    table = SessionTable()
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
# the session type plane: payload bytes
# ----------------------------------------------------------------------

def bench_typed_payload_bytes(messages: int) -> dict:
    """Per-message payload bytes, inline metadata vs the type plane.

    ``payload_reduction`` is the steady-state per-message saving — what
    every message after the first of a session stops carrying.  The
    end-to-end run repeats the comparison on total wire bytes with
    ``BusConfig.type_plane`` flipped (both runs deliver identically;
    the ``type_plane`` differential row proves that separately).
    """
    reg = typed_registry()
    obj = make_tick(reg, 1)
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
                               registry=typed_registry())
        for n in range(messages):
            publisher.publish(WIRE_SUBJECT, make_tick(reg, n))
        bus.settle(5.0)
        assert counts[0] == messages * 3, (
            f"typed bench lost messages: {counts[0]} != {messages * 3}")
        result[f"{label}_bytes"] = bus.lan.bytes_transmitted
        result[f"{label}_bytes_per_msg"] = round(
            bus.lan.bytes_transmitted / messages, 1)
    result["wire_reduction"] = round(
        1.0 - result["plane_bytes"] / result["flat_bytes"], 3)
    return result


# ----------------------------------------------------------------------
# subject-space sharding: simulated-time scaling
# ----------------------------------------------------------------------

def _shard_fanout_once(messages: int, shards: int, seed: int = 2026) -> dict:
    """One subject-spread burst under the paper-calibrated cost model,
    measured in *simulated* seconds from first publish to last delivery.
    Jitter and loss are zeroed so the drain time is pure pipeline shape:
    one CPU lane per shard plane against one shared wire.  The
    round-robin over ``SHARD_FIRSTS`` spreads the burst evenly: every
    plane carries traffic."""
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
        row_msgs = 80
    else:
        fanout_msgs, repeats = 3000, 3
        trie_iters, codec_iters = 300_000, 80_000
        row_msgs = 150

    differential = {}
    for row in ROWS:
        print(f"differential {row.name}: {dict(row.a)} vs {dict(row.b)}, "
              f"{row_msgs} msgs ...")
        result = differential[row.name] = check_row(row, row_msgs)
        for problem in result["problems"]:
            print(f"  FAIL: {problem}")
        if not result["ok"]:
            return 1
        print(f"  ok — {result['deliveries']} deliveries, "
              f"{result['trace_records']} trace records, "
              f"{result['retransmissions']} retransmissions, "
              f"{result['bytes'][0]} vs {result['bytes'][1]} bytes, "
              f"identical outside {result['masks'] or 'nothing'}")

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
        "schema": 8,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": args.quick,
        "benches": benches,
        "differential": differential,
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
