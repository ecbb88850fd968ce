"""The percentile rule and the correctness checks behind failed_frac."""

import pytest

from perfbench import checks

EXPECTED = [(n, 10 + n) for n in range(10)]


def sum_failures(failures):
    return sum(failures.values())


def test_p99_needs_ten_samples_beyond_it():
    samples = list(range(1000))
    assert checks.beyond(99, 1000) == 10
    assert checks.percentile(samples, 99) == 989
    with pytest.raises(ValueError):
        checks.percentile(samples[:999], 99)


def test_percentiles_use_nearest_rank():
    samples = [float(x) for x in range(1, 101)]
    assert checks.percentile(samples, 50) == 50.0
    assert checks.percentile(samples, 90) == 90.0
    with pytest.raises(ValueError):
        checks.percentile(samples, 95)
    with pytest.raises(ValueError):
        checks.percentile([], 50)


def test_exact_stream_has_no_failures():
    assert sum_failures(checks.sequence_failures(EXPECTED, EXPECTED)) == 0


@pytest.mark.parametrize("mutate, kind", [
    (lambda got: got[:4] + got[5:], "missing"),
    (lambda got: got[:5] + [got[4]] + got[5:], "duplicate"),
    (lambda got: got[:3] + [got[4], got[3]] + got[5:], "reordered"),
    (lambda got: got[:2] + [(got[2][0], got[2][1] + 1)] + got[3:],
     "corrupted"),
    (lambda got: got + [(99, 1)], "unexpected"),
])
def test_each_injected_fault_counts_once(mutate, kind):
    failures = checks.sequence_failures(EXPECTED, mutate(list(EXPECTED)))
    assert +failures == {kind: 1}


def test_exactly_once_ignores_order_but_not_repeats():
    shuffled = EXPECTED[::-1]
    assert sum_failures(checks.exactly_once_failures(EXPECTED, shuffled)) == 0
    assert +checks.exactly_once_failures(
        EXPECTED, shuffled + [EXPECTED[0]]) == {"duplicate": 1}
    assert +checks.exactly_once_failures(
        EXPECTED, shuffled[1:]) == {"missing": 1}


def test_late_join_accepts_any_contiguous_tail_from_the_join():
    assert sum_failures(checks.late_join_failures(EXPECTED, EXPECTED[6:], 4)) == 0
    assert sum_failures(checks.late_join_failures(EXPECTED, EXPECTED[4:], 4)) == 0


@pytest.mark.parametrize("got, kind, count", [
    (EXPECTED[2:], "early", 1),                         # history replayed
    (EXPECTED[5:7] + EXPECTED[8:], "missing", 1),       # hole in the run
    (EXPECTED[5:9], "missing", 1),                      # run stops early
    (EXPECTED[5:8] + [EXPECTED[7]] + EXPECTED[8:], "duplicate", 1),
    ([EXPECTED[5], EXPECTED[7], EXPECTED[6]] + EXPECTED[8:], "reordered", 1),
    ([], "missing", 6),
])
def test_late_join_faults(got, kind, count):
    failures = +checks.late_join_failures(EXPECTED, got, 4)
    assert failures.get(kind) == count


def test_idle_daemons_must_receive_nothing():
    assert sum_failures(checks.idle_failures([])) == 0
    assert sum_failures(checks.idle_failures(EXPECTED[:3])) == 3
