"""Property-based tests for the wire codec: decode(encode(p)) == p.

The wire format is the bus's contract between hosts — every packet kind,
every envelope field combination (including non-ASCII subjects), must
survive a round trip through bytes, and any bit flip must be caught by
the checksum rather than decoded into garbage.  Frames that use the
session dictionary (header strings and typedefs in one id space) are
fuzzed the same way, against warm and cold receivers.
"""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import Envelope, Packet, PacketKind, QoS
from repro.core import wire
from repro.core.wire import (CorruptFrame, SessionTable, UnresolvedIds,
                             decode_packet, encode_envelope, encode_packet)
from repro.sim.framing import FRAME_OVERHEAD, flip_random_bit, frame, unframe

# subjects mix plain ASCII labels with non-ASCII ones (UTF-8 on the wire)
subjects = st.lists(
    st.text(alphabet=st.sampled_from("abcdefgh0123456789é漢字ß"),
            min_size=1, max_size=8),
    min_size=1, max_size=4).map(".".join)

envelopes = st.builds(
    Envelope,
    subject=subjects,
    sender=st.text(min_size=1, max_size=20),
    session=st.text(min_size=1, max_size=20),
    seq=st.integers(0, 2**40),
    payload=st.binary(max_size=512),
    qos=st.sampled_from([QoS.RELIABLE, QoS.GUARANTEED]),
    ledger_id=st.one_of(st.none(), st.text(min_size=1, max_size=30)),
    publish_time=st.floats(allow_nan=False, allow_infinity=False),
    via=st.lists(st.text(min_size=1, max_size=10), max_size=3).map(tuple),
)

packets = st.one_of(
    # DATA / RETRANS carry envelope batches
    st.builds(Packet,
              kind=st.sampled_from([PacketKind.DATA, PacketKind.RETRANS]),
              session=st.text(min_size=1, max_size=20),
              envelopes=st.lists(envelopes, max_size=4),
              session_start=st.floats(0, 1e6)),
    # NACK carries a missing-seq range
    st.builds(Packet,
              kind=st.just(PacketKind.NACK),
              session=st.text(min_size=1, max_size=20),
              nack_range=st.tuples(st.integers(0, 2**32),
                                   st.integers(0, 2**32))),
    # HEARTBEAT carries the sender's highest seq
    st.builds(Packet,
              kind=st.just(PacketKind.HEARTBEAT),
              session=st.text(min_size=1, max_size=20),
              last_seq=st.integers(0, 2**40),
              session_start=st.floats(0, 1e6)),
    # ACK confirms a guaranteed ledger entry
    st.builds(Packet,
              kind=st.just(PacketKind.ACK),
              session=st.text(min_size=1, max_size=20),
              ack_ledger_id=st.text(min_size=1, max_size=30),
              ack_consumer=st.text(min_size=1, max_size=20)),
)


@given(packets)
@settings(max_examples=200, deadline=None)
def test_packet_round_trip(packet):
    decoded = decode_packet(encode_packet(packet))
    assert decoded == packet
    # and the codec is deterministic: re-encoding yields identical bytes
    assert encode_packet(decoded) == encode_packet(packet)


@given(envelopes)
@settings(max_examples=200, deadline=None)
def test_envelope_size_is_encoding_length(envelope):
    assert envelope.size == len(encode_envelope(envelope))


# DATA / RETRANS are the only header-compressible kinds
data_packets = st.builds(
    Packet,
    kind=st.sampled_from([PacketKind.DATA, PacketKind.RETRANS]),
    session=st.text(min_size=1, max_size=20),
    envelopes=st.lists(envelopes, max_size=4),
    session_start=st.floats(0, 1e6))


@given(data_packets)
@settings(max_examples=200, deadline=None)
def test_compressed_packet_round_trip(packet):
    """A session's first compressed frame is self-contained: every id it
    uses it also defines, so it decodes with zero receiver state — and
    to exactly the packet the plain codec would produce."""
    compressed = encode_packet(packet, SessionTable())
    assert decode_packet(compressed) == packet
    # encoding against a fresh table is deterministic
    assert encode_packet(packet, SessionTable()) == compressed


@given(data_packets, st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_compressed_bit_flip_never_decodes(packet, seed):
    table = SessionTable()
    data = encode_packet(packet, table)
    flipped = flip_random_bit(data, random.Random(seed))
    assert flipped != data
    with pytest.raises(CorruptFrame):
        decode_packet(flipped, tables={})


@given(packets, st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_bit_flip_never_decodes(packet, seed):
    """Any single flipped bit is rejected, never silently mis-decoded.

    A flip in the body trips the CRC; a flip in the framing trips the
    magic/length checks; either way the frame must raise, not return.
    """
    data = encode_packet(packet)
    flipped = flip_random_bit(data, random.Random(seed))
    assert flipped != data
    with pytest.raises(CorruptFrame):
        decode_packet(flipped)


@given(st.binary(max_size=256))
@settings(max_examples=100, deadline=None)
def test_frame_round_trip(body):
    framed = frame(body)
    assert len(framed) == len(body) + FRAME_OVERHEAD
    assert unframe(framed) == body


@given(st.binary(max_size=256), st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_truncated_frame_rejected(body, cut):
    framed = frame(body)
    with pytest.raises(CorruptFrame):
        unframe(framed[:-min(cut, len(framed))])


def test_encode_once_cache_reuses_bytes():
    """Fan-out and NACK repair reuse one encoding per stamped envelope."""
    e = Envelope(subject="a.b", sender="x", session="h#0", seq=3,
                 payload=b"payload")
    first = encode_envelope(e)
    assert encode_envelope(e) is first          # cached, not re-marshalled
    e.seq = 4                                   # re-stamped: cache invalid
    assert encode_envelope(e) is not first


def test_garbage_is_rejected():
    for junk in (b"", b"IB", b"not a frame at all", b"\x00" * 64):
        with pytest.raises(CorruptFrame):
            decode_packet(junk)


def _flag_test_frames():
    envelope = Envelope(subject="flag.probe", sender="x", session="h#0",
                        seq=1, payload=b"payload")
    heartbeat = encode_packet(Packet(PacketKind.HEARTBEAT, "h#0",
                                     last_seq=9))
    data = encode_packet(Packet(PacketKind.DATA, "h#0", [envelope]))
    return {"heartbeat": heartbeat, "data": data}


@pytest.mark.parametrize("kind", ["heartbeat", "data"])
@pytest.mark.parametrize("bit", [0x10, 0x20, 0x40, 0x80])
def test_undefined_packet_flag_bits_are_corrupt(kind, bit):
    """A CRC-valid frame with a packet flag bit the format does not
    define (0x10 is the retired digest bit, 0x20 the retired frame-level
    typedef region) is rejected, not decoded."""
    body = bytearray(unframe(_flag_test_frames()[kind]))
    decode_packet(frame(bytes(body)))           # the untouched frame is fine
    body[1] |= bit
    with pytest.raises(CorruptFrame):
        decode_packet(frame(bytes(body)))


@pytest.mark.parametrize("bit", [0x04, 0x08, 0x10, 0x20, 0x40, 0x80])
def test_undefined_envelope_flag_bits_are_corrupt(bit):
    body = bytearray(unframe(_flag_test_frames()["data"]))
    # plain encoding: the envelope's flag byte precedes its subject
    at = body.index(bytes([len("flag.probe")]) + b"flag.probe") - 1
    assert body[at] == 0
    body[at] |= bit
    with pytest.raises(CorruptFrame):
        decode_packet(frame(bytes(body)))


def test_type_refs_outside_a_dictionary_frame_are_corrupt():
    """Envelope bit 0x02 lists type ids; a plain frame has no dictionary
    for them to name."""
    body = bytearray(unframe(_flag_test_frames()["data"]))
    at = body.index(bytes([len("flag.probe")]) + b"flag.probe") - 1
    body[at] |= 0x02
    with pytest.raises(CorruptFrame):
        decode_packet(frame(bytes(body)))


# ----------------------------------------------------------------------
# the session dictionary: header strings and typedefs in one id space
# ----------------------------------------------------------------------

@st.composite
def dictionary_frames(draw, headers=st.booleans()):
    """A session table pre-loaded with mixed ``str``/``bytes`` entries
    and a DATA packet whose envelopes reference its typedef entries."""
    table = SessionTable(headers=draw(headers))
    for value in draw(st.lists(st.one_of(st.text(max_size=8),
                                         st.binary(max_size=24)),
                               max_size=6)):
        table.intern(value)
    type_ids = [idx for idx, value in table.entries.items()
                if isinstance(value, bytes)]
    batch = draw(st.lists(envelopes, min_size=1, max_size=4))
    for envelope in batch:
        if type_ids:
            envelope.type_refs = tuple(draw(st.lists(
                st.sampled_from(type_ids), max_size=3, unique=True)))
    packet = Packet(PacketKind.DATA, draw(st.text(min_size=1, max_size=8)),
                    batch, session_start=draw(st.floats(0, 1e6)))
    return table, packet


def later(packet, kind=PacketKind.DATA):
    """The same envelopes, restamped: references what ``packet`` used."""
    return Packet(kind, packet.session,
                  [dataclasses.replace(e, seq=e.seq + 1)
                   for e in packet.envelopes],
                  session_start=packet.session_start)


def referenced(table, packet):
    ids = set()
    for e in packet.envelopes:
        if table.headers:
            ids.update(table.ids[text]
                       for text in (e.subject, e.sender, e.session, *e.via))
        ids.update(e.type_refs)
    return ids


def memo_setting(memo):
    wire.configure_decode_memo(wire.DEFAULT_DECODE_MEMO_CAPACITY
                               if memo else 0)


@given(dictionary_frames(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_dictionary_frames_round_trip_at_a_warm_receiver(drawn, memo):
    table, first = drawn
    memo_setting(memo)
    try:
        tables = {}
        for packet in (first, later(first)):
            decoded = decode_packet(encode_packet(packet, table), tables)
            assert decoded == packet
            assert [e.type_refs for e in decoded.envelopes] == \
                [e.type_refs for e in packet.envelopes]
    finally:
        wire.configure_decode_memo()


@given(dictionary_frames(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_cold_receiver_decodes_retrans_but_not_later_data(drawn, memo):
    table, first = drawn
    memo_setting(memo)
    try:
        warm = {}
        decode_packet(encode_packet(first, table), warm)
        data = encode_packet(later(first), table)
        decode_packet(data, warm)                 # primes the memo
        refs = referenced(table, first)
        if refs:
            with pytest.raises(UnresolvedIds) as exc:
                decode_packet(data, {})
            assert exc.value.missing == refs
        else:                                     # nothing to resolve
            assert decode_packet(data, {}) == later(first)
        repair = later(first, PacketKind.RETRANS)
        assert decode_packet(encode_packet(repair, table), {}) == repair
    finally:
        wire.configure_decode_memo()


@given(dictionary_frames(headers=st.just(True)),
       st.sampled_from(["header", "type"]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_ids_naming_the_other_kind_are_corrupt(drawn, which, memo):
    """A header id naming a typedef entry, or a type id naming a header
    string, is CorruptFrame — from a fresh parse and from a memo hit
    primed by a receiver whose map has the right kinds."""
    table, first = drawn
    defining = encode_packet(first, table)        # interns the headers
    type_refs = {t for e in first.envelopes for t in e.type_refs}
    swap = (type_refs if which == "type"
            else referenced(table, first) - type_refs)
    assume(swap)
    memo_setting(memo)
    try:
        warm = {}
        decode_packet(defining, warm)
        data = encode_packet(later(first), table)
        decode_packet(data, warm)
        entries = dict(warm[first.session])
        for idx in swap:
            value = entries[idx]
            entries[idx] = (value.encode() if isinstance(value, str)
                            else value.decode("latin-1"))
        with pytest.raises(CorruptFrame) as exc:
            decode_packet(data, {first.session: entries})
        assert not isinstance(exc.value, UnresolvedIds)
    finally:
        wire.configure_decode_memo()


@given(dictionary_frames(), st.sampled_from([PacketKind.DATA,
                                             PacketKind.RETRANS]),
       st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_dictionary_bit_flip_never_decodes(drawn, kind, seed):
    table, first = drawn
    warm = {}
    decode_packet(encode_packet(first, table), warm)
    data = encode_packet(later(first, kind), table)
    flipped = flip_random_bit(data, random.Random(seed))
    for tables in (warm, {}):
        with pytest.raises(CorruptFrame):
            decode_packet(flipped, tables)


@given(dictionary_frames(), st.booleans(),
       st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                min_size=1, max_size=4),
       st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_crc_valid_hostile_bodies_raise_only_corrupt_frame(drawn, retrans,
                                                           edits, cut):
    """Arbitrary CRC-valid bodies — a real dictionary frame with bytes
    overwritten and its tail cut — either decode or raise CorruptFrame,
    at a warm receiver (fresh parse) and then at a cold one (a memo hit
    whenever the warm parse succeeded)."""
    table, first = drawn
    warm = {}
    decode_packet(encode_packet(first, table), warm)
    kind = PacketKind.RETRANS if retrans else PacketKind.DATA
    body = bytearray(unframe(encode_packet(later(first, kind), table)))
    for at, value in edits:
        body[at % len(body)] = value
    data = frame(bytes(body[:len(body) - min(cut, len(body))]))
    for tables in (warm, {}):
        try:
            decode_packet(data, tables)
        except CorruptFrame:
            pass
