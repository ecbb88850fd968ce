"""The bus wire codec: every packet the daemons exchange, as real bytes.

The paper's implementation sends marshalled messages as "UDP packets in
combination with a retransmission protocol" (Section 3.1).  This module
is that marshalling for the daemon-to-daemon protocol: it encodes every
:class:`~repro.core.message.Packet` kind (DATA, RETRANS, NACK, HEARTBEAT,
ACK) and the :class:`~repro.core.message.Envelope`\\ s inside it to a
length-prefixed, checksummed frame (:mod:`repro.sim.framing`), and
decodes frames back at the receiving socket boundary — so no object ever
crosses hosts by reference, sizes on the wire are the sizes of the bytes
actually sent, and corruption is detectable.

Envelope encodings are cached on the envelope (keyed by its stamped
``(session, seq)`` identity), so the broadcast path encodes each
published message exactly once no matter how many consumers hear it, and
NACK repairs re-send the retained bytes instead of re-marshalling.

Wire header compression
-----------------------

Small payloads are dwarfed by their headers: ``subject``, ``sender``,
``session`` and ``via`` hops repeat on every envelope a session
publishes.  A publishing daemon may therefore hold a
:class:`StringTable` that assigns dense varint ids to header strings in
first-use order (HPACK-style; ids are never reassigned for the life of
the session), and encode DATA/RETRANS frames with ids in place of
strings.  Each frame stays *self-contained*:

* a DATA frame carries inline ``(id, string)`` definitions for every id
  *first used* in that frame;
* a RETRANS frame carries definitions for **all** ids it references, so
  NACK repairs and late joiners decode without having seen the original
  defining DATA frame.

Receivers learn ``id -> string`` mappings per sender session (the
session name rides every frame in the clear) from those definition
sections.  A frame that references an id the receiver has not learned is
a *decodable-but-unresolvable* condition — structurally parseable (ids
never change field widths), but semantically incomplete.  The decoder
applies the frame's definitions (the frame passed its CRC, so they are
intact), then raises :class:`UnresolvedStringId` carrying the envelope
seq range; the daemon treats it exactly like a gap: drop the frame and
NACK, never crash.  HEARTBEAT/NACK/ACK packets are never compressed —
they are rare, small, and must be readable with zero session state.

Decoding is memoized symmetrically: a broadcast is the *same* byte
buffer at every receiving daemon, so :func:`decode_packet` keeps a small
LRU keyed by the exact frame bytes and CRC-checks + parses each unique
buffer once per fan-out instead of once per receiver.  This is safe
because decoding is a pure function of the bytes *and the receiver's
string table*: memo entries record which table ids the frame relied on
(``needs``) and which it defined (``defines``), and a memo hit replays
the definitions into the receiver's table and validates every needed id
*by value* against it — a receiver that has not learned an id gets
:class:`UnresolvedStringId` from the memo exactly as it would from a
fresh parse, and a (contrived) byte-identical frame meeting a
conflicting table bypasses the memo entirely.  It is fault-honest
because a receiver-side bit flip (``corrupt_rate``) produces a
*different* buffer that misses the memo and fails its own CRC check —
every afflicted receiver still rejects its own corrupted copy.
Failures are never cached.  :func:`configure_decode_memo` resizes or
disables the memo (the escape hatch the perf harness uses to prove
behaviour is unchanged).

The session type plane
----------------------

Type metadata gets the same treatment one layer up (see
:mod:`repro.core.typeplane`): a publishing daemon may hold a
:class:`~repro.core.typeplane.TypeTable` assigning dense varint ids to
type-descriptor fingerprints, and payloads marshalled with
:func:`repro.objects.marshal.encode_typed` reference those ids instead
of carrying the full description closure per message.  The matching
definitions ride in a **typedef region** on the frames (flag ``0x20``),
under exactly the string-table rules: a DATA frame defines ids on their
first wire appearance, a RETRANS frame re-defines *all* ids its
envelopes reference, and the region additionally lists the frame's full
reference set, so the decoder validates resolvability without parsing
the payloads that carry the references.  Definitions are opaque byte
strings (marshalled ``describe()`` dicts) the wire layer never parses;
receivers accumulate them per session in ``type_tables``.  A frame
referencing an unlearned type id raises :class:`UnresolvedTypeId` —
same drop + NACK arming as :class:`UnresolvedStringId` (which takes
precedence when both are missing, on a memo hit as on a fresh parse).
The typedef region is independent of header compression and absent
when no envelope in the frame carries typed payloads, so untyped
traffic pays nothing.

Lazy envelope payloads
----------------------

Envelope bodies decode to :class:`EnvelopeView`\\ s: header fields are
parsed eagerly (they drive matching and ordering) but the payload stays
a zero-copy slice of the frame buffer and is copied out at most once,
on first access — delivery, retention, and router re-encode hydrate;
an envelope nobody reads never pays the copy.

Frame body layout (all integers varint unless noted)::

    packet     := kind:u8 flags:u8 session:str session_start:f64
                  last_seq [first last] [ack_ledger_id:str]
                  [ack_consumer:str] [defs] [tdefs] count envelope*
    defs       := def_count (id string:str)*          # iff flags COMPRESSED
    tdefs      := tdef_count (tid desc:bytes)*
                  tref_count tid*                     # iff flags TYPED
    envelope   := flags:u8 subject:str sender:str session:str seq qos:u8
                  publish_time:f64 envelope_id [ledger_id:str]
                  via_count via:str* payload:bytes
    envelope'  := flags:u8 subject_id sender_id session_id seq qos:u8
                  publish_time:f64 envelope_id [ledger_id:str]
                  via_count via_id* payload:bytes     # iff flags COMPRESSED

``flags`` marks which optional fields follow (packet bits ``0x01`` =
NACK range, ``0x02`` = ack ledger id, ``0x04`` = ack consumer, ``0x08``
= COMPRESSED, ``0x20`` = TYPED, set when any envelope references
session type ids; envelope bit ``0x01`` = ledger id).  Any other bit —
including the retired ``0x10`` — makes the frame :class:`CorruptFrame`.
``tdefs`` carries ``(type id, definition bytes)`` pairs followed by the
frame's full type-reference list (``tref_count tid*``) — definitions
are applied, references validated.  Strings are UTF-8 with a varint
length prefix; ``f64`` is a big-endian IEEE double.  Decoded header
strings are ``sys.intern``\\ ed so the subject-match memo and per-app
lanes key on identical objects, and the parse itself runs on a single
:class:`~repro.sim.framing.Cursor` over a zero-copy view of the frame —
in the compressed steady state a header string is a table lookup, not
an allocation.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from io import BytesIO
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..sim.framing import (CorruptFrame, Cursor, frame, unframe_view,
                           write_bytes, write_f64, write_str, write_varint)
from .message import Envelope, Packet, PacketKind, QoS
from .metrics import MetricsRegistry

__all__ = ["CorruptFrame", "DEFAULT_DECODE_MEMO_CAPACITY", "EnvelopeView",
           "StringTable",
           "UnresolvedStringId", "UnresolvedTypeId",
           "configure_decode_memo",
           "decode_memo_stats", "decode_packet", "encode_envelope",
           "wire_metrics",
           "encode_envelope_compressed", "encode_packet",
           "envelope_wire_size", "packet_wire_size"]

_KIND_TO_CODE = {
    PacketKind.DATA: 0,
    PacketKind.RETRANS: 1,
    PacketKind.NACK: 2,
    PacketKind.HEARTBEAT: 3,
    PacketKind.ACK: 4,
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}

_QOS_TO_CODE = {QoS.RELIABLE: 0, QoS.GUARANTEED: 1}
_CODE_TO_QOS = {code: qos for qos, code in _QOS_TO_CODE.items()}

# packet flag bits
_P_NACK_RANGE = 0x01
_P_ACK_LEDGER = 0x02
_P_ACK_CONSUMER = 0x04
_P_COMPRESSED = 0x08
_P_TYPED = 0x20
_P_DEFINED = (_P_NACK_RANGE | _P_ACK_LEDGER | _P_ACK_CONSUMER
              | _P_COMPRESSED | _P_TYPED)

# envelope flag bits
_E_LEDGER = 0x01

_intern = sys.intern


class UnresolvedIds(CorruptFrame):
    """A CRC-valid frame referenced session ids this receiver lacks.

    Raised after the frame's own definitions have been applied to the
    receiver's table.  Carries enough metadata for the reliability layer
    to treat the drop like a gap and arm a NACK
    (:meth:`~repro.core.reliable.ReliableReceiver.note_undecodable`).
    """

    _what = "ids"

    def __init__(self, session: str, missing: Iterable[int],
                 first_seq: int, last_seq: int, session_start: float):
        self.session = session
        self.missing = frozenset(missing)
        self.first_seq = first_seq
        self.last_seq = last_seq
        self.session_start = session_start
        super().__init__(
            f"unresolved {self._what} {sorted(self.missing)} in frame "
            f"from {session!r} (seqs {first_seq}..{last_seq})")


class UnresolvedStringId(UnresolvedIds):
    """A compressed frame referenced string ids this receiver has not
    learned (see "Wire header compression" above)."""

    _what = "string ids"


class UnresolvedTypeId(UnresolvedIds):
    """A typed frame referenced session type ids this receiver has not
    learned (see "The session type plane" above).  When a frame is
    missing both string and type ids, :class:`UnresolvedStringId` wins —
    the memo replay and the fresh parse both check strings first."""

    _what = "type ids"


class StringTable:
    """Sender-side header-string table for one daemon session.

    Ids are assigned densely from 0 in first-use order and never
    reassigned; the table lives and dies with the session (a restarted
    daemon gets a new session name *and* a new table, so receivers never
    mix mappings across incarnations).
    """

    __slots__ = ("ids", "strings")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def __len__(self) -> int:
        return len(self.strings)

    def intern(self, text: str) -> Tuple[int, bool]:
        """Id for ``text``, assigning the next id on first use.

        Returns ``(id, is_new)``; ``is_new`` tells the packet encoder the
        frame being built must carry the inline definition.
        """
        idx = self.ids.get(text)
        if idx is not None:
            return idx, False
        idx = len(self.strings)
        self.ids[text] = idx
        self.strings.append(_intern(text))
        return idx, True


class EnvelopeView(Envelope):
    """A decoded envelope whose payload is still a view into its frame.

    Header fields (subject, session, seq, ...) are parsed eagerly —
    they drive subscription matching and reliable ordering — but the
    payload stays a zero-copy ``memoryview`` slice of the (immutable)
    frame buffer.  The first ``payload`` read copies it out to ``bytes``
    exactly once (counted in ``wire.lazy.hydrations``); an envelope that
    is decoded but never delivered, retained, or re-encoded never pays
    the copy.  Compares equal to a plain :class:`Envelope` with the same
    fields, and is assignable/cacheable like one (``payload`` has a
    setter; ``_wire_cache`` attributes land in the instance dict), so
    everything downstream of the decoder treats it as an Envelope.
    """

    def __init__(self, subject: str, sender: str, session: str, seq: int,
                 qos: QoS, ledger_id: Optional[str], publish_time: float,
                 via: Tuple[str, ...], envelope_id: int,
                 payload_view: memoryview):
        # not the dataclass __init__: ``payload`` stays a lazy property
        self.subject = subject
        self.sender = sender
        self.session = session
        self.seq = seq
        self.qos = qos
        self.ledger_id = ledger_id
        self.publish_time = publish_time
        self.via = via
        self.envelope_id = envelope_id
        self.type_refs = ()   # send-side field; not carried in bodies
        self._payload_view = payload_view
        self._payload: Optional[bytes] = None
        _lazy_views.value += 1

    @property
    def payload(self) -> bytes:
        payload = self._payload
        if payload is None:
            payload = self._payload_view.tobytes()
            self._payload = payload
            self._payload_view = None
            _lazy_hydrations.value += 1
        return payload

    @payload.setter
    def payload(self, value: bytes) -> None:
        self._payload = value
        self._payload_view = None

    @property
    def hydrated(self) -> bool:
        """True once the payload bytes have been materialized."""
        return self._payload is not None

    def __eq__(self, other: object) -> bool:
        # the Envelope dataclass __eq__ requires an exact class match;
        # a view must instead compare equal to any Envelope with the
        # same fields (round-trip tests, retention lookups)
        if not isinstance(other, Envelope):
            return NotImplemented
        return (
            (self.subject, self.sender, self.session, self.seq,
             self.payload, self.qos, self.ledger_id, self.publish_time,
             self.via, self.envelope_id)
            == (other.subject, other.sender, other.session, other.seq,
                other.payload, other.qos, other.ledger_id,
                other.publish_time, other.via, other.envelope_id))


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------

def _encode_envelope_body(envelope: Envelope) -> bytes:
    out = BytesIO()
    flags = _E_LEDGER if envelope.ledger_id is not None else 0
    out.write(bytes((flags,)))
    write_str(out, envelope.subject)
    write_str(out, envelope.sender)
    write_str(out, envelope.session)
    write_varint(out, envelope.seq)
    out.write(bytes((_QOS_TO_CODE[envelope.qos],)))
    write_f64(out, envelope.publish_time)
    write_varint(out, envelope.envelope_id)
    if envelope.ledger_id is not None:
        write_str(out, envelope.ledger_id)
    write_varint(out, len(envelope.via))
    for hop in envelope.via:
        write_str(out, hop)
    write_bytes(out, envelope.payload)
    return out.getvalue()


def encode_envelope(envelope: Envelope) -> bytes:
    """Encoded body bytes for one envelope (cached on the envelope).

    The cache key is the stamped ``(session, seq)`` identity: stamping by
    the reliable sender changes both, invalidating any pre-stamp entry,
    and after stamping envelopes are immutable on the send path — so the
    broadcast fan-out and every NACK repair reuse one encoding.
    """
    cached = getattr(envelope, "_wire_cache", None)
    key = (envelope.session, envelope.seq)
    if cached is not None and cached[0] == key:
        return cached[1]
    body = _encode_envelope_body(envelope)
    envelope._wire_cache = (key, body)
    return body


def _table_ref(table: StringTable, text: str,
               new_defs: List[Tuple[int, str]], refs: List[int]) -> int:
    idx, is_new = table.intern(text)
    if is_new:
        new_defs.append((idx, table.strings[idx]))
    refs.append(idx)
    return idx


def encode_envelope_compressed(
        envelope: Envelope, table: StringTable,
        new_defs: List[Tuple[int, str]]) -> Tuple[bytes, Tuple[int, ...]]:
    """Compressed body + referenced ids for one envelope.

    Header strings are replaced by ids from ``table``; any id assigned
    during this call is appended to ``new_defs`` so the enclosing DATA
    frame can carry its definition.  Cached on the envelope alongside the
    plain encoding, keyed by ``(session, seq)`` *and* the table identity.
    The defs this envelope introduced are cached too and replayed on a
    hit — so encoding the same packet twice yields identical bytes, and
    the frame that carries an envelope always carries the definitions it
    was responsible for (redundant re-definitions are idempotent at the
    receiver).
    """
    cached = getattr(envelope, "_wire_cache_z", None)
    key = (envelope.session, envelope.seq)
    if cached is not None and cached[0] == key and cached[1] is table:
        new_defs.extend(cached[4])
        return cached[2], cached[3]
    refs: List[int] = []
    out = BytesIO()
    own_defs: List[Tuple[int, str]] = []
    flags = _E_LEDGER if envelope.ledger_id is not None else 0
    out.write(bytes((flags,)))
    write_varint(out, _table_ref(table, envelope.subject, own_defs, refs))
    write_varint(out, _table_ref(table, envelope.sender, own_defs, refs))
    write_varint(out, _table_ref(table, envelope.session, own_defs, refs))
    write_varint(out, envelope.seq)
    out.write(bytes((_QOS_TO_CODE[envelope.qos],)))
    write_f64(out, envelope.publish_time)
    write_varint(out, envelope.envelope_id)
    if envelope.ledger_id is not None:     # unique per message: inline
        write_str(out, envelope.ledger_id)
    write_varint(out, len(envelope.via))
    for hop in envelope.via:
        write_varint(out, _table_ref(table, hop, own_defs, refs))
    write_bytes(out, envelope.payload)
    body = out.getvalue()
    new_defs.extend(own_defs)
    envelope._wire_cache_z = (key, table, body, tuple(refs),
                              tuple(own_defs))
    return body, tuple(refs)


def envelope_wire_size(envelope: Envelope) -> int:
    """Bytes this envelope contributes to an *uncompressed* packet body.

    Deliberately mode-independent: batching thresholds and tests measure
    against the canonical encoding, so turning compression on or off
    never changes batching decisions.
    """
    return len(encode_envelope(envelope))


# ----------------------------------------------------------------------
# packets
# ----------------------------------------------------------------------

def _write_typedefs(out: BytesIO, packet: Packet, type_table,
                    trefs: Set[int]) -> None:
    """Write the typedef region: definitions, then the full ref list.

    DATA frames define ids on their first wire appearance (tracked by
    the table's ``wire_defined`` set — consulted here, at encode time,
    so an envelope shed before reaching the wire never consumes a
    definition); RETRANS frames re-define every id they reference, so
    repairs and late joiners resolve with zero receiver state.
    """
    refs_sorted = sorted(trefs)
    if packet.kind is PacketKind.RETRANS:
        def_ids = refs_sorted
    else:
        def_ids = type_table.pending_defs(refs_sorted)
    write_varint(out, len(def_ids))
    for tid in def_ids:
        write_varint(out, tid)
        write_bytes(out, type_table.blob(tid))
    write_varint(out, len(refs_sorted))
    for tid in refs_sorted:
        write_varint(out, tid)
    _typedef_defined.value += len(def_ids)


def encode_packet(packet: Packet, table: Optional[StringTable] = None,
                  type_table=None) -> bytes:
    """Encode ``packet`` to one checksummed wire frame.

    With ``table`` (the sending daemon's :class:`StringTable`), DATA and
    RETRANS frames are header-compressed: DATA defines ids first used in
    this frame, RETRANS defines every id it references (self-contained
    repair).  Other kinds — and any packet when ``table`` is ``None`` —
    use the plain encoding.  With ``type_table`` (the daemon's
    :class:`~repro.core.typeplane.TypeTable`), frames whose envelopes
    carry ``type_refs`` get a typedef region under the same
    define-on-DATA / redefine-all-on-RETRANS rules.
    """
    carries_data = packet.kind in (PacketKind.DATA, PacketKind.RETRANS)
    compress = table is not None and carries_data
    trefs: Set[int] = set()
    if type_table is not None and carries_data:
        for envelope in packet.envelopes:
            trefs.update(getattr(envelope, "type_refs", ()))
    out = BytesIO()
    try:
        out.write(bytes((_KIND_TO_CODE[packet.kind],)))
    except KeyError:
        raise ValueError(f"unknown packet kind {packet.kind!r}") from None
    flags = 0
    if packet.nack_range is not None:
        flags |= _P_NACK_RANGE
    if packet.ack_ledger_id is not None:
        flags |= _P_ACK_LEDGER
    if packet.ack_consumer is not None:
        flags |= _P_ACK_CONSUMER
    if compress:
        flags |= _P_COMPRESSED
    if trefs:
        flags |= _P_TYPED
    out.write(bytes((flags,)))
    write_str(out, packet.session)
    write_f64(out, packet.session_start)
    write_varint(out, packet.last_seq)
    if packet.nack_range is not None:
        write_varint(out, packet.nack_range[0])
        write_varint(out, packet.nack_range[1])
    if packet.ack_ledger_id is not None:
        write_str(out, packet.ack_ledger_id)
    if packet.ack_consumer is not None:
        write_str(out, packet.ack_consumer)
    if compress:
        new_defs: List[Tuple[int, str]] = []
        bodies: List[bytes] = []
        all_refs: Set[int] = set()
        for envelope in packet.envelopes:
            body, refs = encode_envelope_compressed(envelope, table, new_defs)
            bodies.append(body)
            all_refs.update(refs)
        if packet.kind is PacketKind.RETRANS:
            def_pairs = [(idx, table.strings[idx]) for idx in sorted(all_refs)]
        else:
            def_pairs = new_defs
        write_varint(out, len(def_pairs))
        for idx, text in def_pairs:
            write_varint(out, idx)
            write_str(out, text)
        if trefs:
            _write_typedefs(out, packet, type_table, trefs)
        write_varint(out, len(bodies))
        for body in bodies:
            out.write(body)
    else:
        if trefs:
            _write_typedefs(out, packet, type_table, trefs)
        write_varint(out, len(packet.envelopes))
        for envelope in packet.envelopes:
            out.write(encode_envelope(envelope))
    return frame(out.getvalue())


#: Default bound on memoized decoded frames.  Sized for the fan-out
#: window: a frame only repeats while N daemons hear one broadcast, so a
#: few hundred entries cover even deep outbound queues.
DEFAULT_DECODE_MEMO_CAPACITY = 256

# entry: (packet, needs, defines, tneeds, tdefines) — needs/defines are
# None for plain frames; for compressed frames, defines maps in-frame
# definitions and needs maps every other referenced id to its value at
# parse time.  tneeds/tdefines are the same pair for the typedef region
# (values are raw definition bytes), None for untyped frames.
_MemoEntry = Tuple[Packet, Optional[Dict[int, str]], Optional[Dict[int, str]],
                   Optional[Dict[int, bytes]], Optional[Dict[int, bytes]]]
_decode_memo: "OrderedDict[bytes, _MemoEntry]" = OrderedDict()
_decode_memo_capacity = DEFAULT_DECODE_MEMO_CAPACITY

# The memo is process-global (deliberately: the N receivers of one
# broadcast share a single parse), so its counters live in a module-
# level registry rather than any one daemon's — and are therefore NOT
# part of per-daemon ``_bus.stat.*`` snapshots, where self-referential
# stat frames hitting the shared memo would make publishing perturb the
# very counters being published.

_wire_metrics = MetricsRegistry()
_decode_memo_hits = _wire_metrics.counter("wire.decode_memo.hits")
_decode_memo_misses = _wire_metrics.counter("wire.decode_memo.misses")
_wire_metrics.gauge("wire.decode_memo.capacity",
                    source=lambda: _decode_memo_capacity)
_wire_metrics.gauge("wire.decode_memo.size",
                    source=lambda: len(_decode_memo))
#: lazy-payload accounting: views created by the decoder vs views whose
#: payload something downstream actually materialized
_lazy_views = _wire_metrics.counter("wire.lazy.views")
_lazy_hydrations = _wire_metrics.counter("wire.lazy.hydrations")
#: typedef-region accounting: definitions written by encoders vs
#: definitions learned by fresh (non-memoized) parses
_typedef_defined = _wire_metrics.counter("wire.typedef.defined")
_typedef_learned = _wire_metrics.counter("wire.typedef.learned")


def wire_metrics() -> MetricsRegistry:
    """The module-level registry holding the decode-memo, lazy-payload
    (``wire.lazy.*``) and typedef-region instruments."""
    return _wire_metrics


def configure_decode_memo(capacity: int = DEFAULT_DECODE_MEMO_CAPACITY
                          ) -> None:
    """Resize the decode memo (0 disables it); clears entries and every
    module-level wire counter (memo hit/miss, ``wire.lazy.*`` and
    ``wire.typedef.*``) so runs start cold."""
    global _decode_memo_capacity
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0 (got {capacity})")
    _decode_memo_capacity = capacity
    _decode_memo.clear()
    _decode_memo_hits.reset()
    _decode_memo_misses.reset()
    _lazy_views.reset()
    _lazy_hydrations.reset()
    _typedef_defined.reset()
    _typedef_learned.reset()


def decode_memo_stats() -> Dict[str, int]:
    """Hit/miss/size counters for benches and cache-honesty tests (a
    dict view over the :func:`wire_metrics` registry instruments)."""
    return {"capacity": _decode_memo_capacity, "size": len(_decode_memo),
            "hits": _decode_memo_hits.value,
            "misses": _decode_memo_misses.value}


def decode_packet(data: bytes,
                  tables: Optional[Dict[str, Dict[int, str]]] = None,
                  type_tables: Optional[Dict[str, Dict[int, bytes]]] = None
                  ) -> Packet:
    """Decode one wire frame back to a :class:`Packet`.

    ``tables`` is the receiving daemon's per-session learned string
    tables (``session -> {id: string}``); compressed frames read and
    update them.  ``type_tables`` is the analogous per-session learned
    typedef map (``session -> {type id: definition bytes}``); typed
    frames read and update it.  Without them throwaway tables are used,
    so only fully self-contained frames resolve.

    Raises :class:`CorruptFrame` on any framing, checksum, or field
    validation failure, and its subclasses :class:`UnresolvedStringId` /
    :class:`UnresolvedTypeId` when a frame references ids this receiver
    has not learned — the caller drops the frame and lets the
    NACK/heartbeat machinery repair the gap.  Successful decodes are
    memoized by the exact frame bytes (see the module docstring), so the
    N receivers of one broadcast share a single parse; the memo replays
    each frame's table effects per receiver, keeping per-receiver
    outcomes identical to a fresh parse.
    """
    key = None
    if _decode_memo_capacity:
        key = bytes(data)
        entry = _decode_memo.get(key)
        if entry is not None:
            packet, needs, defines, tneeds, tdefines = entry
            if needs is None and tneeds is None:    # plain frame
                _decode_memo.move_to_end(key)
                _decode_memo_hits.value += 1
                return packet
            unresolved = []
            tunresolved = []
            mismatch = False
            if defines is not None:
                table = (tables.setdefault(packet.session, {})
                         if tables is not None else {})
                for idx, text in defines.items():
                    table[idx] = text
                for idx, text in needs.items():
                    have = table.get(idx)
                    if have is None:
                        unresolved.append(idx)
                    elif have != text:
                        mismatch = True             # colliding table state:
                        break                       # this parse isn't ours
            if not mismatch and tdefines is not None:
                ttable = (type_tables.setdefault(packet.session, {})
                          if type_tables is not None else {})
                for tid, blob in tdefines.items():
                    ttable[tid] = blob
                for tid, blob in tneeds.items():
                    have = ttable.get(tid)
                    if have is None:
                        tunresolved.append(tid)
                    elif have != blob:
                        mismatch = True             # colliding table state
                        break
            if not mismatch:
                _decode_memo.move_to_end(key)
                _decode_memo_hits.value += 1
                if unresolved:
                    seqs = [e.seq for e in packet.envelopes]
                    raise UnresolvedStringId(
                        packet.session, unresolved, min(seqs), max(seqs),
                        packet.session_start)
                if tunresolved:
                    seqs = [e.seq for e in packet.envelopes]
                    raise UnresolvedTypeId(
                        packet.session, tunresolved, min(seqs), max(seqs),
                        packet.session_start)
                return packet
            key = None                              # bypass, parse fresh
    packet, needs, defines, tneeds, tdefines = _decode_packet_body(
        data, tables, type_tables)
    if key is not None:
        _decode_memo_misses.value += 1
        _decode_memo[key] = (packet, needs, defines, tneeds, tdefines)
        while len(_decode_memo) > _decode_memo_capacity:
            _decode_memo.popitem(last=False)
    return packet


def _resolve_ref(idx: int, table: Dict[int, str], referenced: Set[int],
                 missing: Set[int]) -> str:
    referenced.add(idx)
    value = table.get(idx)
    if value is None:
        missing.add(idx)
        return ""
    return value


def _read_typedefs(cur: Cursor, session: str,
                   type_tables: Optional[Dict[str, Dict[int, bytes]]]
                   ) -> Tuple[Dict[int, bytes], Dict[int, bytes],
                              List[int], Set[int]]:
    """Parse one typedef region, applying its definitions.

    The frame passed its CRC, so the definitions are intact: they go
    into the receiver's per-session table even if reference validation
    fails afterwards — that is what makes a later repair decodable.
    Returns ``(ttable, tdefines, treferenced, tmissing)``.
    """
    ttable: Dict[int, bytes] = {}
    if type_tables is not None:
        ttable = type_tables.setdefault(session, {})
    tdefines: Dict[int, bytes] = {}
    for _ in range(cur.varint()):
        tid = cur.varint()
        blob = cur.bytes_()
        tdefines[tid] = blob
        ttable[tid] = blob
    _typedef_learned.value += len(tdefines)
    treferenced: List[int] = []
    tmissing: Set[int] = set()
    for _ in range(cur.varint()):
        tid = cur.varint()
        treferenced.append(tid)
        if tid not in ttable:
            tmissing.add(tid)
    return ttable, tdefines, treferenced, tmissing


def _decode_packet_body(
        data: bytes, tables: Optional[Dict[str, Dict[int, str]]],
        type_tables: Optional[Dict[str, Dict[int, bytes]]] = None
) -> Tuple[Packet, Optional[Dict[int, str]], Optional[Dict[int, str]],
           Optional[Dict[int, bytes]], Optional[Dict[int, bytes]]]:
    cur = Cursor(unframe_view(data))
    try:
        kind = _CODE_TO_KIND[cur.u8()]
    except KeyError:
        raise CorruptFrame("unknown packet kind code") from None
    flags = cur.u8()
    if flags & ~_P_DEFINED:
        raise CorruptFrame(f"undefined packet flags {flags:#x}")
    session = _intern(cur.str_())
    session_start = cur.f64()
    last_seq = cur.varint()
    nack_range = None
    if flags & _P_NACK_RANGE:
        first = cur.varint()
        last = cur.varint()
        nack_range = (first, last)
    ack_ledger_id = None
    if flags & _P_ACK_LEDGER:
        ack_ledger_id = _intern(cur.str_())
    ack_consumer = None
    if flags & _P_ACK_CONSUMER:
        ack_consumer = _intern(cur.str_())
    compressed = bool(flags & _P_COMPRESSED)
    needs: Optional[Dict[int, str]] = None
    defines: Optional[Dict[int, str]] = None
    table: Dict[int, str] = {}
    referenced: Set[int] = set()
    missing: Set[int] = set()
    if compressed:
        if kind not in (PacketKind.DATA, PacketKind.RETRANS):
            raise CorruptFrame(f"compressed flag on {kind.value} packet")
        # the frame passed its CRC, so the defs section is intact: apply
        # it to the receiver's table even if resolution fails below —
        # that is what makes a later repair decodable.
        if tables is not None:
            table = tables.setdefault(session, {})
        defines = {}
        for _ in range(cur.varint()):
            idx = cur.varint()
            text = _intern(cur.str_())
            defines[idx] = text
            table[idx] = text
    typed = bool(flags & _P_TYPED)
    tneeds: Optional[Dict[int, bytes]] = None
    tdefines: Optional[Dict[int, bytes]] = None
    ttable: Dict[int, bytes] = {}
    treferenced: List[int] = []
    tmissing: Set[int] = set()
    if typed:
        if kind not in (PacketKind.DATA, PacketKind.RETRANS):
            raise CorruptFrame(f"typedef flag on {kind.value} packet")
        ttable, tdefines, treferenced, tmissing = _read_typedefs(
            cur, session, type_tables)
    envelopes = [_read_envelope(cur, compressed, table, referenced, missing)
                 for _ in range(cur.varint())]
    if not cur.exhausted:
        raise CorruptFrame(f"{cur.remaining()} trailing bytes after packet")
    if missing:
        seqs = [e.seq for e in envelopes]
        raise UnresolvedStringId(session, missing, min(seqs), max(seqs),
                                 session_start)
    if tmissing:
        # a well-formed typed frame always has envelopes (the refs come
        # from them), but a hostile encoder might not — default the span
        seqs = [e.seq for e in envelopes] or [0]
        raise UnresolvedTypeId(session, tmissing, min(seqs), max(seqs),
                               session_start)
    if compressed:
        needs = {idx: table[idx] for idx in referenced
                 if idx not in defines}
    if typed:
        tneeds = {tid: ttable[tid] for tid in treferenced
                  if tid not in tdefines}
    return (Packet(kind, session, envelopes, nack_range=nack_range,
                   last_seq=last_seq, session_start=session_start,
                   ack_ledger_id=ack_ledger_id, ack_consumer=ack_consumer),
            needs, defines, tneeds, tdefines)


def _read_envelope(cur: Cursor, compressed: bool, table: Dict[int, str],
                   referenced: Set[int], missing: Set[int]) -> EnvelopeView:
    flags = cur.u8()
    if flags & ~_E_LEDGER:
        raise CorruptFrame(f"undefined envelope flags {flags:#x}")
    if compressed:
        subject = _resolve_ref(cur.varint(), table, referenced, missing)
        sender = _resolve_ref(cur.varint(), table, referenced, missing)
        session = _resolve_ref(cur.varint(), table, referenced, missing)
    else:
        subject = _intern(cur.str_())
        sender = _intern(cur.str_())
        session = _intern(cur.str_())
    seq = cur.varint()
    qos_code = cur.u8()
    try:
        qos = _CODE_TO_QOS[qos_code]
    except KeyError:
        raise CorruptFrame(f"unknown qos code {qos_code}") from None
    publish_time = cur.f64()
    envelope_id = cur.varint()
    ledger_id = None
    if flags & _E_LEDGER:
        ledger_id = _intern(cur.str_())
    via_count = cur.varint()
    via = []
    for _ in range(via_count):
        if compressed:
            via.append(_resolve_ref(cur.varint(), table, referenced, missing))
        else:
            via.append(_intern(cur.str_()))
    payload_view = cur.view_()
    return EnvelopeView(subject, sender, session, seq, qos, ledger_id,
                        publish_time, tuple(via), envelope_id, payload_view)


def packet_wire_size(packet: Packet) -> int:
    """Bytes ``packet`` occupies on the wire uncompressed, framing included."""
    return len(encode_packet(packet))
