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

The session dictionary
----------------------

Small payloads are dwarfed by their headers and their type metadata:
``subject``, ``sender``, ``session`` and ``via`` hops repeat on every
envelope a session publishes, and so do the type descriptions a typed
payload depends on.  A publishing daemon therefore holds one
:class:`SessionTable` per session: a dictionary whose entries are
header strings (``str``) or marshalled typedef descriptions
(``bytes``), with dense varint ids assigned in first-use order and
never reassigned for the life of the session.  Header strings go into
it when ``BusConfig.wire_compression`` is on; typed payloads
(:mod:`repro.core.typeplane`) reference it when
``BusConfig.type_plane`` is on.  Every frame stays *self-contained*
under one rule:

* a DATA frame defines every id it references that no earlier DATA
  frame of the session has carried (the table's ``wire_defined`` set,
  updated at encode time, so an envelope shed before reaching the wire
  never consumes a definition);
* a RETRANS frame defines **all** ids it references, so NACK repairs
  and late joiners decode without having seen the original defining
  DATA frame.

Each typed envelope lists the type ids its payload references in its
own header, so the decoder validates resolvability without parsing
payloads.  Header ids and type ids resolve through one path against
the receiver's per-session map (the session name rides every frame in
the clear), and each must name an entry of its own kind — a header id
naming a typedef, or a type id naming a string, is
:class:`CorruptFrame`.  A frame that references an id the receiver has
not learned is *decodable-but-unresolvable*: the decoder applies the
frame's definitions (the frame passed its CRC, so they are intact),
then raises :class:`UnresolvedIds` carrying the envelope seq range; the
daemon treats it exactly like a gap: drop the frame and NACK, never
crash.  HEARTBEAT/NACK/ACK packets never use the dictionary — they are
rare, small, and must be readable with zero session state.

Decoding is memoized symmetrically: a broadcast is the *same* byte
buffer at every receiving daemon, so :func:`decode_packet` keeps a small
LRU keyed by the exact frame bytes and CRC-checks + parses each unique
buffer once per fan-out instead of once per receiver.  This is safe
because decoding is a pure function of the bytes *and the receiver's
session map*: memo entries record which ids the frame relied on
(``needs``) and which it defined (``defines``), and a memo hit replays
the definitions into the receiver's map and validates every needed id
*by value* against it — a receiver that has not learned an id gets
:class:`UnresolvedIds` from the memo exactly as it would from a fresh
parse, and a (contrived) byte-identical frame meeting a conflicting map
bypasses the memo entirely.  It is fault-honest because a receiver-side
bit flip (``corrupt_rate``) produces a *different* buffer that misses
the memo and fails its own CRC check — every afflicted receiver still
rejects its own corrupted copy.  Failures are never cached.
:func:`configure_decode_memo` resizes or disables the memo (the escape
hatch the perf harness uses to prove behaviour is unchanged).

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
                  [ack_consumer:str] [defs] count envelope*
    defs       := def_count (key value)*            # iff flags DICT
    key        := id << 1 | kind                    # kind 0: value str
                                                    # kind 1: value bytes
    envelope   := flags:u8 subject:hdr sender:hdr session:hdr seq
                  qos:u8 publish_time:f64 envelope_id [ledger_id:str]
                  via_count via:hdr* [tref_count tid*] payload:bytes
    hdr        := str                               # plain frame
    hdr        := 0 str | id+1                      # DICT frame

``flags`` marks which optional fields follow.  Packet bits: ``0x01`` =
NACK range, ``0x02`` = ack ledger id, ``0x04`` = ack consumer, ``0x08``
= DICT (a DATA/RETRANS frame using the session dictionary: a ``defs``
region follows and header fields are dictionary references, ``0``
escaping an inline literal when header strings stay out of the
dictionary).  Envelope bits: ``0x01`` = ledger id, ``0x02`` = type refs
(``tref_count tid*``, DICT frames only).  Any other bit — including the
retired packet bits ``0x10`` (digest) and ``0x20`` (frame-level typedef
region) — makes the frame :class:`CorruptFrame`.  Strings are UTF-8
with a varint length prefix; ``f64`` is a big-endian IEEE double.
Decoded header strings are ``sys.intern``\\ ed so the subject-match
memo and per-app lanes key on identical objects, and the parse itself
runs on a single :class:`~repro.sim.framing.Cursor` over a zero-copy
view of the frame — in the dictionary steady state a header string is
a table lookup, not an allocation.
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
           "SessionTable", "UnresolvedIds", "configure_decode_memo",
           "decode_memo_stats", "decode_packet", "encode_envelope",
           "encode_packet", "envelope_wire_size", "packet_wire_size",
           "wire_metrics"]

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
_P_DICT = 0x08
_P_DEFINED = _P_NACK_RANGE | _P_ACK_LEDGER | _P_ACK_CONSUMER | _P_DICT

# envelope flag bits
_E_LEDGER = 0x01
_E_TYPED = 0x02
_E_DEFINED = _E_LEDGER | _E_TYPED

_intern = sys.intern


class UnresolvedIds(CorruptFrame):
    """A CRC-valid frame referenced session ids this receiver lacks.

    Raised after the frame's own definitions have been applied to the
    receiver's map.  Carries enough metadata for the reliability layer
    to treat the drop like a gap and arm a NACK
    (:meth:`~repro.core.reliable.ReliableReceiver.note_undecodable`).
    """

    def __init__(self, session: str, missing: Iterable[int],
                 first_seq: int, last_seq: int, session_start: float):
        self.session = session
        self.missing = frozenset(missing)
        self.first_seq = first_seq
        self.last_seq = last_seq
        self.session_start = session_start
        super().__init__(
            f"unresolved ids {sorted(self.missing)} in frame "
            f"from {session!r} (seqs {first_seq}..{last_seq})")


class SessionTable:
    """Sender-side session dictionary for one daemon session.

    Entries are header strings (``str``) or marshalled typedef
    descriptions (``bytes``) in one dense id space, assigned from 0 in
    first-use order and never reassigned; the table lives and dies with
    the session (a restarted daemon gets a new session name *and* a new
    table, so receivers never mix mappings across incarnations).
    ``wire_defined`` holds the ids some DATA frame has already defined.
    ``headers`` says whether header strings go into the dictionary;
    without it, dictionary frames carry them as inline literals.
    """

    __slots__ = ("ids", "entries", "wire_defined", "headers")

    def __init__(self, headers: bool = True) -> None:
        self.ids: Dict[object, int] = {}
        self.entries: Dict[int, object] = {}
        self.wire_defined: Set[int] = set()
        self.headers = headers

    def __len__(self) -> int:
        return len(self.entries)

    def intern(self, value) -> int:
        """Id for ``value`` (a ``str`` or ``bytes``), assigning the next
        id on first use."""
        idx = self.ids.get(value)
        if idx is None:
            idx = len(self.entries)
            self.ids[value] = idx
            self.entries[idx] = (_intern(value) if type(value) is str
                                 else value)
        return idx


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
                 type_refs: Tuple[int, ...], payload_view: memoryview):
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
        self.type_refs = type_refs
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


def _write_header(out: BytesIO, table: SessionTable, text: str,
                  refs: List[int]) -> None:
    if table.headers:
        idx = table.intern(text)
        refs.append(idx)
        write_varint(out, idx + 1)
    else:                                   # inline literal
        out.write(b"\x00")
        write_str(out, text)


def _encode_envelope_dict(envelope: Envelope, table: SessionTable
                          ) -> Tuple[bytes, Tuple[int, ...]]:
    """Dictionary-frame body + every id it references, for one envelope.

    Header strings become references into ``table`` (or inline literals
    when the table keeps headers out), and the envelope's ``type_refs``
    are listed after its ``via`` hops.  Cached on the envelope alongside
    the plain encoding, keyed by ``(session, seq)`` *and* the table
    identity.
    """
    cached = getattr(envelope, "_wire_cache_z", None)
    key = (envelope.session, envelope.seq)
    if cached is not None and cached[0] == key and cached[1] is table:
        return cached[2], cached[3]
    refs: List[int] = []
    out = BytesIO()
    type_refs = envelope.type_refs
    flags = _E_LEDGER if envelope.ledger_id is not None else 0
    if type_refs:
        flags |= _E_TYPED
    out.write(bytes((flags,)))
    _write_header(out, table, envelope.subject, refs)
    _write_header(out, table, envelope.sender, refs)
    _write_header(out, table, envelope.session, refs)
    write_varint(out, envelope.seq)
    out.write(bytes((_QOS_TO_CODE[envelope.qos],)))
    write_f64(out, envelope.publish_time)
    write_varint(out, envelope.envelope_id)
    if envelope.ledger_id is not None:     # unique per message: inline
        write_str(out, envelope.ledger_id)
    write_varint(out, len(envelope.via))
    for hop in envelope.via:
        _write_header(out, table, hop, refs)
    if type_refs:
        write_varint(out, len(type_refs))
        for tid in type_refs:
            write_varint(out, tid)
        refs.extend(type_refs)
    write_bytes(out, envelope.payload)
    body = out.getvalue()
    envelope._wire_cache_z = (key, table, body, tuple(refs))
    return body, tuple(refs)


def envelope_wire_size(envelope: Envelope) -> int:
    """Bytes this envelope contributes to a *plain* packet body.

    Deliberately mode-independent: batching thresholds and tests measure
    against the canonical encoding, so turning the dictionary on or off
    never changes batching decisions.
    """
    return len(encode_envelope(envelope))


# ----------------------------------------------------------------------
# packets
# ----------------------------------------------------------------------

def _write_defs(out: BytesIO, table: SessionTable, def_ids) -> None:
    entries = table.entries
    typedefs = 0
    write_varint(out, len(def_ids))
    for idx in def_ids:
        value = entries[idx]
        if type(value) is str:
            write_varint(out, idx << 1)
            write_str(out, value)
        else:
            write_varint(out, idx << 1 | 1)
            write_bytes(out, value)
            typedefs += 1
    _typedef_defined.value += typedefs


def encode_packet(packet: Packet, table: Optional[SessionTable] = None
                  ) -> bytes:
    """Encode ``packet`` to one checksummed wire frame.

    With ``table`` (the sending daemon's :class:`SessionTable`), DATA and
    RETRANS frames use the session dictionary whenever it holds their
    header strings or an envelope carries ``type_refs``: DATA defines
    the referenced ids no DATA frame has defined yet, RETRANS defines
    every id it references (self-contained repair).  Other kinds — and
    any packet when ``table`` is ``None`` — use the plain encoding.
    """
    kind = packet.kind
    envelopes = packet.envelopes
    use_dict = (table is not None
                and (kind is PacketKind.DATA or kind is PacketKind.RETRANS)
                and (table.headers or any(e.type_refs for e in envelopes)))
    out = BytesIO()
    try:
        out.write(bytes((_KIND_TO_CODE[kind],)))
    except KeyError:
        raise ValueError(f"unknown packet kind {kind!r}") from None
    flags = 0
    if packet.nack_range is not None:
        flags |= _P_NACK_RANGE
    if packet.ack_ledger_id is not None:
        flags |= _P_ACK_LEDGER
    if packet.ack_consumer is not None:
        flags |= _P_ACK_CONSUMER
    if use_dict:
        flags |= _P_DICT
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
    if use_dict:
        bodies: List[bytes] = []
        refs: Set[int] = set()
        for envelope in envelopes:
            body, env_refs = _encode_envelope_dict(envelope, table)
            bodies.append(body)
            refs.update(env_refs)
        if kind is PacketKind.RETRANS:
            def_ids = sorted(refs)
        else:
            def_ids = sorted(refs - table.wire_defined)
            table.wire_defined.update(def_ids)
        _write_defs(out, table, def_ids)
        write_varint(out, len(bodies))
        for body in bodies:
            out.write(body)
    else:
        write_varint(out, len(envelopes))
        for envelope in envelopes:
            out.write(encode_envelope(envelope))
    return frame(out.getvalue())


#: Default bound on memoized decoded frames.  Sized for the fan-out
#: window: a frame only repeats while N daemons hear one broadcast, so a
#: few hundred entries cover even deep outbound queues.
DEFAULT_DECODE_MEMO_CAPACITY = 256

# entry: (packet, needs, defines) — needs/defines are None for plain
# frames; for DICT frames, defines maps in-frame definitions and needs
# maps every other referenced id to its value at parse time.
_MemoEntry = Tuple[Packet, Optional[Dict[int, object]],
                   Optional[Dict[int, object]]]
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
#: typedef accounting: typedef definitions written by encoders vs
#: typedef definitions learned by fresh (non-memoized) parses
_typedef_defined = _wire_metrics.counter("wire.typedef.defined")
_typedef_learned = _wire_metrics.counter("wire.typedef.learned")


def wire_metrics() -> MetricsRegistry:
    """The module-level registry holding the decode-memo, lazy-payload
    (``wire.lazy.*``) and typedef (``wire.typedef.*``) instruments."""
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
                  tables: Optional[Dict[str, Dict[int, object]]] = None
                  ) -> Packet:
    """Decode one wire frame back to a :class:`Packet`.

    ``tables`` is the receiving daemon's per-session learned dictionary
    (``session -> {id: str | bytes}``); DICT frames read and update it.
    Without it a throwaway map is used, so only fully self-contained
    frames resolve.

    Raises :class:`CorruptFrame` on any framing, checksum, or field
    validation failure, and its subclass :class:`UnresolvedIds` when a
    frame references ids this receiver has not learned — the caller
    drops the frame and lets the NACK/heartbeat machinery repair the
    gap.  Successful decodes are memoized by the exact frame bytes (see
    the module docstring), so the N receivers of one broadcast share a
    single parse; the memo replays each frame's definitions per
    receiver, keeping per-receiver outcomes identical to a fresh parse.
    """
    key = None
    if _decode_memo_capacity:
        key = bytes(data)
        entry = _decode_memo.get(key)
        if entry is not None:
            packet, needs, defines = entry
            if needs is None:                       # plain frame
                _decode_memo.move_to_end(key)
                _decode_memo_hits.value += 1
                return packet
            table = (tables.setdefault(packet.session, {})
                     if tables is not None else {})
            table.update(defines)
            missing = []
            for idx, value in needs.items():
                have = table.get(idx)
                if have is None:
                    missing.append(idx)
                elif have != value:                 # colliding map state:
                    break                           # this parse isn't ours
            else:
                _decode_memo.move_to_end(key)
                _decode_memo_hits.value += 1
                if missing:
                    raise _unresolved(packet.session, missing,
                                      packet.envelopes, packet.session_start)
                return packet
            key = None                              # bypass, parse fresh
    packet, needs, defines = _decode_packet_body(data, tables)
    if key is not None:
        _decode_memo_misses.value += 1
        _decode_memo[key] = (packet, needs, defines)
        while len(_decode_memo) > _decode_memo_capacity:
            _decode_memo.popitem(last=False)
    return packet


def _unresolved(session: str, missing: Iterable[int],
                envelopes: List[Envelope],
                session_start: float) -> UnresolvedIds:
    # ids are only ever referenced from envelopes, so there is a span
    seqs = [e.seq for e in envelopes]
    return UnresolvedIds(session, missing, min(seqs), max(seqs),
                         session_start)


def _decode_packet_body(data: bytes,
                        tables: Optional[Dict[str, Dict[int, object]]]
                        ) -> _MemoEntry:
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
    table: Optional[Dict[int, object]] = None
    defines: Optional[Dict[int, object]] = None
    if flags & _P_DICT:
        if kind is not PacketKind.DATA and kind is not PacketKind.RETRANS:
            raise CorruptFrame(f"dictionary flag on {kind.value} packet")
        defines = {}
        typedefs = 0
        for _ in range(cur.varint()):
            key = cur.varint()
            if key & 1:
                value = cur.bytes_()
                typedefs += 1
            else:
                value = _intern(cur.str_())
            defines[key >> 1] = value
        # the frame passed its CRC, so its definitions are intact: apply
        # them even if resolution fails below — that is what makes a
        # later repair decodable
        table = (tables.setdefault(session, {})
                 if tables is not None else {})
        table.update(defines)
        _typedef_learned.value += typedefs
    referenced: Set[int] = set()
    missing: Set[int] = set()
    envelopes = [_read_envelope(cur, table, referenced, missing)
                 for _ in range(cur.varint())]
    if not cur.exhausted:
        raise CorruptFrame(f"{cur.remaining()} trailing bytes after packet")
    if missing:
        raise _unresolved(session, missing, envelopes, session_start)
    needs = None
    if table is not None:
        needs = {idx: table[idx] for idx in referenced
                 if idx not in defines}
    return (Packet(kind, session, envelopes, nack_range=nack_range,
                   last_seq=last_seq, session_start=session_start,
                   ack_ledger_id=ack_ledger_id, ack_consumer=ack_consumer),
            needs, defines)


def _resolve_ref(idx: int, kind: type, table: Dict[int, object],
                 referenced: Set[int], missing: Set[int]):
    """The ``kind`` entry ``idx`` names, or None when it is unlearned."""
    referenced.add(idx)
    value = table.get(idx)
    if value is None:
        missing.add(idx)
    elif type(value) is not kind:
        raise CorruptFrame(f"id {idx} names a {type(value).__name__} "
                           f"entry, not a {kind.__name__}")
    return value


def _read_header(cur: Cursor, table: Optional[Dict[int, object]],
                 referenced: Set[int], missing: Set[int]) -> str:
    if table is not None:
        ref = cur.varint()
        if ref:
            return _resolve_ref(ref - 1, str, table, referenced,
                                missing) or ""
    return _intern(cur.str_())


def _read_envelope(cur: Cursor, table: Optional[Dict[int, object]],
                   referenced: Set[int], missing: Set[int]) -> EnvelopeView:
    flags = cur.u8()
    if flags & ~_E_DEFINED:
        raise CorruptFrame(f"undefined envelope flags {flags:#x}")
    subject = _read_header(cur, table, referenced, missing)
    sender = _read_header(cur, table, referenced, missing)
    session = _read_header(cur, table, referenced, missing)
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
    via = tuple([_read_header(cur, table, referenced, missing)
                 for _ in range(cur.varint())])
    type_refs: Tuple[int, ...] = ()
    if flags & _E_TYPED:
        if table is None:
            raise CorruptFrame("type refs outside a dictionary frame")
        type_refs = tuple([cur.varint() for _ in range(cur.varint())])
        for tid in type_refs:
            _resolve_ref(tid, bytes, table, referenced, missing)
    payload_view = cur.view_()
    return EnvelopeView(subject, sender, session, seq, qos, ledger_id,
                        publish_time, via, envelope_id, type_refs,
                        payload_view)


def packet_wire_size(packet: Packet) -> int:
    """Bytes ``packet`` occupies on the wire uncompressed, framing included."""
    return len(encode_packet(packet))
