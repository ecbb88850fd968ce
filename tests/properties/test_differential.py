"""Property: every wire mechanism is invisible to subscribers.

Each row of :data:`repro.bench.differential.ROWS` runs the same
fixed-seed hostile scenario under two configs and requires identical
per-subject deliveries, trace (outside the row's masks) and counters,
plus the liveness checks that keep a row from passing vacuously.  The
perf harness runs the same rows before it times anything.
"""

import copy

import pytest

from repro.bench.differential import (LATE, ROWS, Row, check_row, compare,
                                      run_scenario)
from repro.core import wire


@pytest.mark.parametrize("messages", (80, 150))
@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_row_is_behaviour_neutral(row, messages):
    result = check_row(row, messages)
    assert result["ok"], result["problems"]


@pytest.fixture(scope="module")
def observed():
    return run_scenario(80, faults=False)


NEUTRAL = Row("neutral", a={}, b={}, faults=False)


def test_comparator_catches_an_extra_delivery(observed):
    doctored = copy.deepcopy(observed)
    doctored["inboxes"]["node02"]["news.s0"].append(10_000)
    assert compare(NEUTRAL, observed, doctored) == ["inboxes differs"]


def test_masks_hide_only_the_named_trace_fields(observed):
    doctored = copy.deepcopy(observed)
    fields = next(f for _, _, f in doctored["trace"] if "size" in f)
    fields["size"] += 1
    assert compare(NEUTRAL, observed, doctored) == ["trace differs"]
    masked = Row("masked", a={}, b={}, masks=("size",), faults=False)
    assert compare(masked, observed, doctored) == []


def test_fault_rows_need_faults_to_happen(observed):
    faulty = Row("faulty", a={}, b={})
    problems = compare(faulty, observed, observed)
    assert "A: corruption fault was not exercised" in problems
    assert "B: no retransmission was exercised" in problems


def test_late_subscriber_must_hear_something(observed):
    deaf = copy.deepcopy(observed)
    deaf["inboxes"][LATE] = {}
    assert "B: late subscriber heard nothing" in compare(NEUTRAL, deaf, deaf)


def test_runner_restores_the_decode_memo():
    with pytest.raises(TypeError):
        run_scenario(8, decode_memo=0, no_such_flag=True)
    assert wire.decode_memo_stats()["capacity"] == \
        wire.DEFAULT_DECODE_MEMO_CAPACITY
