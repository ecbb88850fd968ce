"""The broadcast decode memo: shared parses, byte-honest rejection.

One broadcast frame is decoded by every daemon on the segment; the memo
lets them share a single parse, keyed by the *exact frame bytes*.  A
receiver whose copy arrived with a bit flipped therefore never hits the
cache — its bytes hash differently — and the CRC still rejects it.
"""

import pytest

from repro.core import (CorruptFrame, Envelope, EnvelopeView, Packet,
                        PacketKind, decode_packet, encode_packet)
from repro.core import wire


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
