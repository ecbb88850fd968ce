"""The broadcast decode memo: shared parses, byte-honest rejection.

One broadcast frame is decoded by every daemon on the segment; the memo
lets them share a single parse, keyed by the *exact frame bytes*.  A
receiver whose copy arrived with a bit flipped therefore never hits the
cache — its bytes hash differently — and the CRC still rejects it.
"""

from io import BytesIO

import pytest

from repro.core import (CorruptFrame, Envelope, EnvelopeView,
                        InformationBus, Packet, PacketKind, decode_packet,
                        encode_packet)
from repro.core import wire
from repro.sim import CostModel
from repro.sim.framing import (frame, write_bytes, write_f64, write_str,
                               write_varint)


@pytest.fixture(autouse=True)
def reset_memo():
    wire.configure_decode_memo()
    yield
    wire.configure_decode_memo()


def make_envelope(seq=1, subject="news.equity.gmc"):
    return Envelope(subject=subject, sender="node00.pub",
                    session="node00#0", seq=seq, payload=b"payload",
                    publish_time=0.5)


def make_frame(seq=1, subject="news.equity.gmc"):
    envelope = make_envelope(seq, subject)
    return encode_packet(Packet(PacketKind.DATA, "node00#0", [envelope],
                                session_start=0.0))


def test_repeat_decode_shares_one_parse():
    data = make_frame()
    first = decode_packet(data)
    second = decode_packet(data)
    assert second is first            # N receivers, one parse
    stats = wire.decode_memo_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_decoded_packet_is_correct_on_hit():
    data = make_frame(seq=7, subject="a.b.c")
    decode_packet(data)
    packet = decode_packet(data)      # served from the memo
    assert packet.kind is PacketKind.DATA
    assert [e.seq for e in packet.envelopes] == [7]
    assert packet.envelopes[0].subject == "a.b.c"
    assert packet.envelopes[0].payload == b"payload"


def test_every_corrupted_copy_still_raises():
    """Bit-flipped copies hash to different keys: the memo can never
    serve a good parse for a receiver whose copy is damaged."""
    data = make_frame()
    decode_packet(data)               # prime the memo with the clean frame
    for bit in range(8 * len(data)):
        corrupted = bytearray(data)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CorruptFrame):
            decode_packet(bytes(corrupted))
    # and the clean frame still decodes
    assert decode_packet(data).envelopes[0].seq == 1


def test_failed_decodes_are_not_cached():
    corrupted = bytearray(make_frame())
    corrupted[-1] ^= 0x01             # break the CRC trailer
    corrupted = bytes(corrupted)
    for _ in range(3):
        with pytest.raises(CorruptFrame):
            decode_packet(corrupted)
    assert wire.decode_memo_stats()["size"] == 0


def test_memo_is_lru_bounded():
    wire.configure_decode_memo(capacity=8)
    frames = [make_frame(seq=i + 1) for i in range(20)]
    for data in frames:
        decode_packet(data)
    stats = wire.decode_memo_stats()
    assert stats["size"] <= 8
    # the most recent frame is retained, the oldest evicted
    decode_packet(frames[-1])
    assert wire.decode_memo_stats()["hits"] == 1
    decode_packet(frames[0])
    assert wire.decode_memo_stats()["misses"] == 21  # re-parsed, not hit


def test_configure_zero_disables():
    wire.configure_decode_memo(0)
    data = make_frame()
    first = decode_packet(data)
    second = decode_packet(data)
    assert first is not second        # every receiver parses for itself
    assert first.envelopes[0].payload == second.envelopes[0].payload
    stats = wire.decode_memo_stats()
    assert stats["size"] == stats["hits"] == stats["misses"] == 0


def test_configure_rejects_negative_capacity():
    with pytest.raises(ValueError):
        wire.configure_decode_memo(-1)


def test_decoded_envelopes_are_lazy_views():
    envelope = decode_packet(make_frame()).envelopes[0]
    assert isinstance(envelope, EnvelopeView)
    assert not envelope.hydrated
    metrics = wire.wire_metrics()
    assert metrics.counter("wire.lazy.views").value == 1
    assert metrics.counter("wire.lazy.hydrations").value == 0
    assert envelope.payload == b"payload"       # hydrates exactly once
    assert envelope.hydrated
    assert envelope.payload == b"payload"
    assert metrics.counter("wire.lazy.hydrations").value == 1


def test_envelope_view_equals_eager_envelope():
    view = decode_packet(make_frame(seq=3)).envelopes[0]
    eager = make_envelope(seq=3)
    assert view == eager
    assert eager == view              # reflected comparison too
    assert view != make_envelope(seq=4)


def _hostile_typed_frame(defs, refs):
    """A CRC-valid DATA frame in the retired frame-level typedef layout:
    packet flag 0x20, a typedef list, a type-ref list, zero envelopes."""
    out = BytesIO()
    out.write(bytes((0, 0x20)))                   # DATA, old TYPED bit
    write_str(out, "node09#0")
    write_f64(out, 0.0)
    write_varint(out, 0)                          # last_seq
    write_varint(out, len(defs))
    for tid, blob in defs:
        write_varint(out, tid)
        write_bytes(out, blob)
    write_varint(out, len(refs))
    for tid in refs:
        write_varint(out, tid)
    write_varint(out, 0)                          # no envelopes
    return frame(out.getvalue())


@pytest.mark.parametrize("capacity", [wire.DEFAULT_DECODE_MEMO_CAPACITY, 0])
def test_hostile_typed_frame_is_corrupt_for_every_receiver(capacity):
    """Receiver A learns type id 5 and decodes a frame referencing it;
    receiver B never learned it.  With the memo on, B's decode is a memo
    hit on A's parse.  The same bytes must be a counted CorruptFrame
    drop at both daemons — never an uncaught exception from outside
    input."""
    wire.configure_decode_memo(capacity)
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(3)
    a, b = bus.daemons["node01"], bus.daemons["node02"]
    teach = _hostile_typed_frame([(5, b"typedef")], [5])
    hostile = _hostile_typed_frame([], [5])
    a._on_datagram(teach, len(teach), ("node09", 7))
    drops = []
    for daemon in (a, b):
        before = daemon.corrupt_dropped
        daemon._on_datagram(hostile, len(hostile), ("node09", 7))
        drops.append(daemon.corrupt_dropped - before)
    assert drops == [1, 1]
    for tables in ({"node09#0": {5: b"typedef"}}, {}):
        with pytest.raises(CorruptFrame):
            decode_packet(hostile, tables)
