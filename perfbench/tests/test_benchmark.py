"""The benchmark's definitions agree with each other, and a small run
of each workload is deterministic and checked."""

import json
from pathlib import Path

import pytest

from perfbench import run
from perfbench.spans import SpanRecorder, instrument
from perfbench.workloads import WORKLOADS, FanoutBurst, TypedMixed

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_benchmark_json_matches_spec(kind):
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[kind]}
    defined = {name: (m["unit"], m["better"])
               for name, m in run.SPEC[kind].items()}
    assert listed == defined


def test_workloads_match_spec():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.SPEC["workloads"]) == list(WORKLOADS)


class SmallFanout(FanoutBurst):
    messages = 300


class SmallTyped(TypedMixed):
    messages = 300


def test_small_run_reports_every_metric_and_repeats_exactly():
    first = SmallFanout(7).run()
    again = SmallFanout(7).run()
    assert not first.failures
    assert run._deterministic(first) == run._deterministic(again)
    first.reference_s = again.reference_s = run.reference_s()
    assert set(run.end_to_end([first, again], [first])) == \
        set(run.SPEC["end_to_end"])

    recorder = SpanRecorder()
    with instrument(recorder):
        traced = SmallFanout(7, recorder.wrap).run(recorder)
    # tracing observes the run without changing it
    assert run._deterministic(traced) == run._deterministic(first)
    traced.reference_s = first.reference_s
    layers = run.per_layer([traced], [traced], [first])
    assert set(layers) == set(run.SPEC["per_layer"])
    assert layers["core.wire.full_decodes_per_digest"] == pytest.approx(
        1.0, abs=0.05)
    assert layers["core.daemon.gate.skip_ratio"] < 0.05


def test_checks_catch_faults_injected_into_a_real_run():
    scenario = SmallTyped(3)
    result = scenario.run()
    assert not result.failures
    box = scenario.inbox["node01"]
    box[10], box[11] = box[11], box[10]
    del box[20]
    box.append(box[30])
    box[40] = (box[40][0], box[40][1] + 1)
    durable = scenario.inbox["durable"]
    durable.append(durable[0])
    failures, _ = scenario.check()
    assert +failures == {"reordered": 1, "missing": 1, "duplicate": 2,
                         "corrupted": 1}
