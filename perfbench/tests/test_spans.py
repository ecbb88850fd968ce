"""Self-time arithmetic of :class:`perfbench.spans.SpanRecorder`."""

import pytest

from perfbench.spans import SpanRecorder, instrument


class Clock:
    """A clock the span bodies advance by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make(clock):
    recorder = SpanRecorder(clock)
    recorder.active = True
    return recorder


def test_child_time_is_taken_out_of_the_parent():
    clock = Clock()
    rec = make(clock)

    def inner():
        clock.t += 2.0

    inner = rec.wrap("inner", inner)

    def outer():
        clock.t += 1.0
        inner()
        clock.t += 0.5

    rec.wrap("outer", outer)()
    assert rec.calls == {"outer": 1, "inner": 1}
    assert rec.self_s == {"outer": pytest.approx(1.5),
                          "inner": pytest.approx(2.0)}


def test_only_direct_children_are_subtracted():
    clock = Clock()
    rec = make(clock)
    leaf = rec.wrap("leaf", lambda: setattr(clock, "t", clock.t + 3.0))

    def middle():
        clock.t += 1.0
        leaf()

    middle = rec.wrap("middle", middle)

    def root():
        middle()
        clock.t += 0.25

    rec.wrap("root", root)()
    assert rec.self_s["root"] == pytest.approx(0.25)
    assert rec.self_s["middle"] == pytest.approx(1.0)
    assert rec.self_s["leaf"] == pytest.approx(3.0)
    assert sum(rec.self_s.values()) == pytest.approx(clock.t)


def test_match_inside_deliver_is_charged_to_match_each_time():
    # the daemon's dispatch matches once, then delivers; the client's
    # delivery matches again under its own span
    clock = Clock()
    rec = make(clock)

    def match_body():
        clock.t += 0.5

    match = rec.wrap("core.subjects.match", match_body)

    def deliver_body():
        clock.t += 2.0
        match()

    deliver = rec.wrap("core.client.deliver", deliver_body)

    def dispatch_body():
        match()
        deliver()
        clock.t += 1.0

    rec.wrap("core.daemon.dispatch", dispatch_body)()
    assert rec.calls["core.subjects.match"] == 2
    assert rec.self_s["core.subjects.match"] == pytest.approx(1.0)
    assert rec.self_s["core.client.deliver"] == pytest.approx(2.0)
    assert rec.self_s["core.daemon.dispatch"] == pytest.approx(1.0)
    assert sum(rec.self_s.values()) == pytest.approx(clock.t)


def test_span_reentered_under_its_own_key_is_not_counted_twice():
    # a publish made from inside a delivery callback re-enters the
    # publish span while the outer publish is still open
    clock = Clock()
    rec = make(clock)
    depth = []

    def publish_body():
        clock.t += 1.0
        if not depth:
            depth.append(1)
            publish()
        clock.t += 1.0

    publish = rec.wrap("core.client.publish", publish_body)
    publish()
    assert rec.calls["core.client.publish"] == 2
    assert rec.self_s["core.client.publish"] == pytest.approx(clock.t)
    assert clock.t == pytest.approx(4.0)


def test_a_raising_span_still_closes():
    clock = Clock()
    rec = make(clock)

    def boom():
        clock.t += 1.0
        raise KeyError("x")

    boom = rec.wrap("boom", boom)

    def outer():
        with pytest.raises(KeyError):
            boom()
        clock.t += 1.0

    rec.wrap("outer", outer)()
    assert rec.self_s == {"boom": pytest.approx(1.0),
                          "outer": pytest.approx(1.0)}


def test_inactive_recorder_records_nothing():
    clock = Clock()
    rec = SpanRecorder(clock)
    assert rec.wrap("x", lambda: 7)() == 7
    assert rec.calls == {} and rec.self_s == {}


def test_data_key_counts_calls_that_return_a_value():
    rec = make(Clock())
    probe = rec.wrap("probe", lambda value: value, "probe.data")
    for value in (None, 1, None, "digest"):
        probe(value)
    assert rec.calls == {"probe": 4, "probe.data": 2}


def test_instrument_restores_the_library():
    from repro.core.daemon import BusDaemon
    from repro.core import daemon

    before = (BusDaemon.__dict__["publish"], daemon.encode_packet)
    with instrument(SpanRecorder()):
        assert BusDaemon.__dict__["publish"] is not before[0]
        assert daemon.encode_packet is not before[1]
    assert (BusDaemon.__dict__["publish"], daemon.encode_packet) == before
