#!/usr/bin/env python3
"""End-to-end benchmark of the Information Bus on its default config.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fanout_burst --seed 1 \\
        --seconds 20 --trace 0

One invocation runs one workload (see ``perfbench/workloads.py``) over a
fixed list of sub-seeds derived from ``--seed``, then keeps cycling
through that list until ``--seconds`` of wall time are used.  Every
run builds a fresh bus, so set-up is measured once per run.

* Simulated-clock metrics are exact for a sub-seed; each is reported
  as the median over the distinct sub-seeds.
* Wall-clock metrics (``wall_msgs_per_s``, ``setup_s``) are medians
  over every untraced run, each run's wall time scaled by a reference
  loop timed beside it (see ``calibrated``).
* The first sub-seed is always run twice.  Runs of one sub-seed must
  agree exactly on every simulated metric and layer count, or the
  invocation fails (exit code 1).

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` each run is made twice, traced and untraced, and the
result carries the per-layer metrics: span self times and call counts
around each layer, layer counters, and the tracing overhead.  The last
line of standard output is the JSON result; the lines before it are a
readable table.  ``perfbench/spec.json`` defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((Path(__file__).parent / "spec.json").read_text())


def _import_library():
    """Put the checkout's ``src`` first on the path; fail loudly when the
    library is not there (the benchmark measures this checkout only)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library at {src}")
    sys.path[:0] = [str(src), str(ROOT)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: The reference loop that measures the machine's speed beside every
#: run, and its median time on the 2-vCPU 2.1 GHz VM this benchmark was
#: tuned on.  On a shared VM the interpreter's speed drifts by 10-30%
#: over minutes; the wall-clock metrics are scaled by nominal/measured
#: reference time so that drift cancels (see ``calibrated``).
REFERENCE_ITERATIONS = 500_000
REFERENCE_NOMINAL_S = 0.020


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop that runs no library
    code: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i
    return time.perf_counter() - start


def calibrated(seconds: float, result) -> float:
    """``seconds`` of wall time as the nominal-speed machine would have
    spent it."""
    return seconds * REFERENCE_NOMINAL_S / result.reference_s


#: Sub-seeds of a traced invocation: each is run traced and untraced,
#: and layer metrics carry no bound, so fewer suffice.
TRACE_SUB_SEEDS = 2


def sub_seeds(seed: int, count: int):
    return [seed * 1000 + k for k in range(count)]


def _deterministic(result) -> dict:
    """Everything a run must reproduce exactly for its seed."""
    fixed = dict(result.sim_metrics())
    fixed.update(result.counts)
    fixed["failures"] = dict(result.failures)
    return fixed


def end_to_end(runs, distinct) -> dict:
    """Wall metrics are medians over every untraced run, simulated ones
    medians over the distinct sub-seeds."""
    return {
        "wall_msgs_per_s": median([r.published / calibrated(r.wall_s, r)
                                   for r in runs]),
        **{name: median([r.sim_metrics()[name] for r in distinct])
           for name in ("sim_msgs_per_s", "sim_latency_p50_ms",
                        "sim_latency_p99_ms", "wire_bytes_per_msg")},
        "setup_s": median([calibrated(r.setup_s, r) for r in runs]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced, distinct, untraced) -> dict:
    """Layer metrics: counts are medians over the distinct sub-seeds,
    span times medians over every traced run."""
    def count(name):
        return median([r.counts[name] for r in distinct])

    def calls(key):
        return median([r.spans.get(key, (0, 0.0))[0] for r in distinct])

    def self_s(key):
        return median([r.spans.get(key, (0, 0.0))[1] for r in traced])

    def per_run(fn):
        return median([fn(r) for r in distinct])

    def span_calls(r, key):
        return r.spans.get(key, (0, 0.0))[0]

    wall_traced = median([r.published / calibrated(r.wall_s, r)
                          for r in traced])
    wall_untraced = median([r.published / calibrated(r.wall_s, r)
                            for r in untraced])
    return {
        "sim.kernel.events": count("events"),
        "sim.kernel.self_s": self_s("sim.kernel"),
        "sim.ethernet.frames": count("frames"),
        "sim.ethernet.frames_lost": count("frames_lost"),
        "sim.ethernet.frames_corrupted": count("frames_corrupted"),
        "sim.ethernet.transmit.self_s": self_s("sim.ethernet.transmit"),
        "sim.ethernet.deliver.self_s": self_s("sim.ethernet.deliver"),
        "sim.node.deliver_frame.calls": calls("sim.node.deliver_frame"),
        "sim.node.deliver_frame.self_s": self_s("sim.node.deliver_frame"),
        "sim.node.send_frame.self_s": self_s("sim.node.send_frame"),
        "sim.transport.datagrams_received": count("datagrams_received"),
        "sim.transport.on_frame.self_s": self_s("sim.transport.on_frame"),
        "sim.transport.sendto.self_s": self_s("sim.transport.sendto"),
        "core.daemon.receive.self_s": self_s("core.daemon.receive"),
        "core.daemon.publish.self_s": self_s("core.daemon.publish"),
        "core.daemon.dispatch.self_s": self_s("core.daemon.dispatch"),
        "core.daemon.gate.skip_ratio": per_run(lambda r: _ratio(
            r.counts["skipped_frames"],
            span_calls(r, "core.wire.read_digest.data"))),
        "core.wire.encode_packet.calls": calls("core.wire.encode_packet"),
        "core.wire.encode_packet.self_s": self_s("core.wire.encode_packet"),
        "core.wire.decode_packet.calls": calls("core.wire.decode_packet"),
        "core.wire.decode_packet.self_s": self_s("core.wire.decode_packet"),
        "core.wire.read_digest.calls": calls("core.wire.read_digest"),
        "core.wire.read_digest.self_s": self_s("core.wire.read_digest"),
        "core.wire.full_decodes_per_digest": per_run(lambda r: _ratio(
            span_calls(r, "core.wire.decode_packet"),
            span_calls(r, "core.wire.read_digest"))),
        "core.wire.decode_memo.hit_ratio": per_run(lambda r: _ratio(
            r.counts["memo_hits"],
            r.counts["memo_hits"] + r.counts["memo_misses"])),
        "core.batching.envelopes_per_flush": per_run(lambda r: _ratio(
            span_calls(r, "core.daemon.publish")
            + span_calls(r, "core.guaranteed.republish")
            - r.counts["refused"],
            span_calls(r, "core.batching.flush"))),
        "core.batching.flush.self_s": self_s("core.batching.flush"),
        "core.reliable.handle_envelope.calls": calls(
            "core.reliable.handle_envelope"),
        "core.reliable.handle_envelope.self_s": self_s(
            "core.reliable.handle_envelope"),
        "core.reliable.try_skip.calls": calls("core.reliable.try_skip"),
        "core.reliable.try_skip.self_s": self_s("core.reliable.try_skip"),
        "core.reliable.nacks_sent": count("nacks_sent"),
        "core.reliable.retransmitted_per_msg": per_run(lambda r: _ratio(
            r.counts["retransmitted"], r.published)),
        "core.reliable.duplicates_per_delivery": per_run(lambda r: _ratio(
            r.counts["duplicates"], r.counts["delivered"])),
        "core.subjects.match.calls": calls("core.subjects.match"),
        "core.subjects.match.self_s": self_s("core.subjects.match"),
        "core.subjects.matches_anything.calls": calls(
            "core.subjects.matches_anything"),
        "core.subjects.matches_anything.self_s": self_s(
            "core.subjects.matches_anything"),
        "core.flow.lane_high_watermark": count("lane_high_watermark"),
        "core.flow.dropped": count("flow_dropped"),
        "core.client.publish.self_s": self_s("core.client.publish"),
        "core.client.deliver.calls": calls("core.client.deliver"),
        "core.client.deliver.self_s": self_s("core.client.deliver"),
        "objects.marshal.encode.self_s": self_s("objects.marshal.encode"),
        "objects.marshal.decode.calls": calls("objects.marshal.decode"),
        "objects.marshal.decode.self_s": self_s("objects.marshal.decode"),
        "objects.marshal.payload_bytes_per_msg": per_run(lambda r: _ratio(
            r.counts["payload_bytes"], r.published)),
        "core.typeplane.typedefs_defined": count("typedefs_defined"),
        "core.typeplane.typedefs_learned": count("typedefs_learned"),
        "core.guaranteed.record.self_s": self_s("core.guaranteed.record"),
        "core.guaranteed.handle_ack.self_s": self_s(
            "core.guaranteed.handle_ack"),
        "core.guaranteed.acks": count("acks"),
        "core.guaranteed.republishes": calls("core.guaranteed.republish"),
        "sim.stable_storage.writes": count("stable_writes"),
        "sim.stable_storage.put.self_s": self_s("sim.stable_storage.put"),
        "bench.callback.self_s": self_s("bench.callback"),
        "trace.wall_msgs_per_s_traced": wall_traced,
        "trace.wall_msgs_per_s_untraced": wall_untraced,
        "trace.overhead_frac": 1.0 - wall_traced / wall_untraced,
    }


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run ``name`` until ``seconds`` are used (at least once per
    sub-seed, and the first sub-seed twice)."""
    from perfbench.spans import SpanRecorder, instrument
    from perfbench.workloads import WORKLOADS

    scenario = WORKLOADS[name]
    seeds = sub_seeds(seed, TRACE_SUB_SEEDS if trace else scenario.sub_seeds)
    recorder = SpanRecorder()
    untraced, traced = [], []
    reference, span_reference = {}, {}
    mismatches = []

    def run_once(s, spans=None):
        # the previous run's bus is garbage now; collect it here rather
        # than inside the next run's timed phases
        gc.collect()
        before = reference_s()
        if spans is None:
            result = scenario(s).run()
        else:
            with instrument(spans):
                result = scenario(s, spans.wrap).run(spans)
        result.reference_s = (before + reference_s()) / 2
        fixed = _deterministic(result)
        if reference.setdefault(s, fixed) != fixed:
            mismatches.append(s)
        return result

    start = time.perf_counter()
    k = 0
    while True:
        s = seeds[k % len(seeds)]
        if trace:
            result = run_once(s, recorder)
            calls = {key: c for key, (c, _) in result.spans.items()}
            if span_reference.setdefault(s, calls) != calls:
                mismatches.append(s)
            traced.append(result)
        untraced.append(run_once(s))
        k += 1
        elapsed = time.perf_counter() - start
        if k > len(seeds) and elapsed * (k + 1) / k > seconds:
            break
    return seeds, untraced, traced, mismatches


def _first_per_seed(results):
    firsts = {}
    for result in results:
        firsts.setdefault(result.seed, result)
    return list(firsts.values())


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    _import_library()
    seeds, untraced, traced, mismatches = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        kind = "per_layer"
        values = per_layer(traced, _first_per_seed(traced), untraced)
    else:
        kind = "end_to_end"
        values = end_to_end(untraced, _first_per_seed(untraced))
    spec = SPEC[kind]
    if set(values) != set(spec):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(spec))}"
                         f" differ from spec.json")
    runs = untraced + traced
    attempted = sum(r.attempted for r in runs)
    failures = {}
    for result in runs:
        for failure, n in result.failures.items():
            failures[failure] = failures.get(failure, 0) + n
    failed = sum(failures.values())
    samples = median([len(r.latencies) for r in _first_per_seed(untraced)])

    print(f"workload {args.workload}  seed {args.seed}  sub-seeds "
          f"{seeds[0]}..{seeds[-1]}  runs {len(untraced)} untraced, "
          f"{len(traced)} traced  latency samples/run {samples:g}")
    for metric, value in values.items():
        print(f"  {metric:<44} {value:>16.6g} {spec[metric]['unit']}")
    print(f"  {'uncalibrated wall_msgs_per_s':<44} "
          f"{median([r.published / r.wall_s for r in untraced]):>16.6g} "
          f"msgs/s (reference loop "
          f"{1e3 * median([r.reference_s for r in untraced]):.4g} ms, "
          f"nominal {1e3 * REFERENCE_NOMINAL_S:g} ms)")
    print(f"  {'failed_frac':<44} {failed / attempted:>16.6g} fraction "
          f"({failed} of {attempted}: {failures or 'none'})")
    if mismatches:
        print(f"  determinism: sub-seeds {sorted(set(mismatches))} gave "
              f"different simulated results on repeat")
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": spec[metric]["unit"]}
                    for metric, value in values.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
