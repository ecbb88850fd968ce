"""Correctness checks and the percentile rule of the end-to-end benchmark.

Every function here is pure: it takes what a workload published and
what each application received, and returns failure counts.  A
delivery record is ``(n, body_len)`` -- the message number the
publisher wrote into the payload and the length of the body it
carried -- so a dropped, duplicated, reordered or corrupted delivery
each shows up as a distinct count.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence, Tuple

Record = Tuple[int, int]

#: Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10


def _rank(p: int, n: int) -> int:
    """Nearest-rank index (1-based) of the ``p``-th percentile of ``n``."""
    return max(1, -(-p * n // 100))


def beyond(p: int, n: int) -> int:
    """How many of ``n`` samples lie strictly beyond the ``p``-th
    percentile's rank."""
    return n - _rank(p, n)


def _require_tail(p: int, n: int) -> None:
    if n == 0 or beyond(p, n) < TAIL_SAMPLES:
        raise ValueError(f"p{p} needs {TAIL_SAMPLES} samples beyond it; "
                         f"{n} samples give {beyond(p, n) if n else 0}")


def percentile(sorted_samples: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (integer percent) by nearest rank.

    Raises ``ValueError`` unless at least :data:`TAIL_SAMPLES` samples
    lie beyond it: a p99 over fewer than 1000 samples is not reported.
    """
    _require_tail(p, len(sorted_samples))
    return sorted_samples[_rank(p, len(sorted_samples)) - 1]


def sequence_failures(expected: Sequence[Record],
                      got: Sequence[Record]) -> Counter:
    """Failures of an ordered stream: ``got`` must equal ``expected``.

    ``expected`` is in publish (per-sender) order.  Counts, per kind:
    ``missing`` (never delivered), ``duplicate`` (delivered again),
    ``reordered`` (delivered after a message published later),
    ``corrupted`` (body length differs) and ``unexpected`` (an ``n``
    that was never published to this consumer).
    """
    position = {n: (i, body_len) for i, (n, body_len) in enumerate(expected)}
    failures: Counter = Counter()
    seen = set()
    last = -1
    for n, body_len in got:
        slot = position.get(n)
        if slot is None:
            failures["unexpected"] += 1
            continue
        if n in seen:
            failures["duplicate"] += 1
            continue
        seen.add(n)
        index, want_len = slot
        if body_len != want_len:
            failures["corrupted"] += 1
        if index < last:
            failures["reordered"] += 1
        else:
            last = index
    failures["missing"] += len(position) - len(seen)
    return failures


def exactly_once_failures(expected: Sequence[Record],
                          got: Sequence[Record]) -> Counter:
    """Like :func:`sequence_failures` but order is not checked (the
    guaranteed QoS promises each message once, not an order)."""
    failures = sequence_failures(expected, got)
    failures.pop("reordered", None)
    return failures


def late_join_failures(expected: Sequence[Record], got: Sequence[Record],
                       first_allowed: int) -> Counter:
    """A late joiner's deliveries must be one contiguous in-order run of
    ``expected`` that ends at its last message and starts at index
    ``first_allowed`` or later (no history from before the join).

    A run that starts too early counts one ``early`` failure; inside
    the run the rules of :func:`sequence_failures` apply.
    """
    failures: Counter = Counter()
    if not got:
        failures["missing"] += len(expected) - first_allowed
        return failures
    index = {n: i for i, (n, _) in enumerate(expected)}
    start = index.get(got[0][0])
    if start is None:
        failures["unexpected"] += 1
        start = first_allowed
    elif start < first_allowed:
        failures["early"] += 1
    failures.update(sequence_failures(expected[start:], got))
    return failures


def merge(*counters: Counter) -> Counter:
    merged: Counter = Counter()
    for counter in counters:
        merged.update(counter)
    return merged


def idle_failures(got: List[Record]) -> Counter:
    """An idle daemon's applications must receive nothing."""
    return Counter({"unexpected": len(got)}) if got else Counter()
