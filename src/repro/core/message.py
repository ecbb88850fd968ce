"""Message envelopes and quality-of-service levels.

Two QoS levels, straight from Section 3.1:

* :data:`QoS.RELIABLE` — exactly-once, FIFO per sender under normal
  operation; at-most-once if the sender or receiver crashes or the
  network partitions for longer than the repair window.
* :data:`QoS.GUARANTEED` — the message is logged to non-volatile storage
  before it is sent and retransmitted "at appropriate times until a reply
  is received": at-least-once regardless of failures, exactly-once when
  there are none.

An :class:`Envelope` is what daemons exchange; the application payload is
already-marshalled bytes (see :mod:`repro.objects.marshal`), and the
``size`` properties report the length of the actual wire encoding
(:mod:`repro.core.wire`) — measured, not accounted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["Envelope", "MessageInfo", "Packet", "PacketKind", "QoS"]

# The wire codec imports this module, so it cannot be imported at module
# load; resolve it once on the first ``size`` access instead of paying a
# ``from . import wire`` (an attribute lookup plus an import-lock check)
# on every property read.
_wire = None


def _wire_codec():
    global _wire
    if _wire is None:
        from . import wire
        _wire = wire
    return _wire


class QoS(enum.Enum):
    """Delivery quality of service."""

    RELIABLE = "reliable"
    GUARANTEED = "guaranteed"


class PacketKind(enum.Enum):
    """Daemon-to-daemon packet types on the bus port."""

    DATA = "data"             # a batch of envelopes (broadcast)
    RETRANS = "retrans"       # NACK repair (unicast to the requester)
    NACK = "nack"             # gap report (unicast to the sender)
    HEARTBEAT = "heartbeat"   # idle sender's highest seq (broadcast)
    ACK = "ack"               # guaranteed-delivery confirmation (unicast)


@dataclass
class Envelope:
    """One published message as it travels between daemons."""

    subject: str
    sender: str               # client id, e.g. "node3.news_adapter"
    session: str              # sender daemon's session, e.g. "node3#0"
    seq: int                  # per-session sequence number
    payload: bytes            # marshalled object
    qos: QoS = QoS.RELIABLE
    ledger_id: Optional[str] = None   # set for guaranteed messages
    publish_time: float = 0.0         # simulated time of the publish call
    #: names of information routers this message has traversed; routers
    #: refuse to forward a message already stamped with their own name,
    #: which keeps arbitrary router topologies (chains, meshes, cycles)
    #: loop-free while allowing multi-hop forwarding.
    via: Tuple[str, ...] = ()
    #: wire-visible identity, stamped by the publishing daemon from its
    #: own counter (0 = not yet stamped).  The id rides the wire as a
    #: varint, so a process-global counter would make a message's size —
    #: and therefore its send-CPU timing — depend on how many envelopes
    #: *earlier, unrelated* runs created.  Per-daemon counters keep
    #: same-seed runs bit-identical.
    envelope_id: int = 0
    #: session type-table ids the payload references when it was
    #: marshalled with :func:`repro.objects.marshal.encode_typed`; the
    #: wire layer lists them in the envelope header of dictionary
    #: frames and rides the matching typedef definitions in-band
    #: (:mod:`repro.core.typeplane`); plain frames leave them out.
    type_refs: Tuple[int, ...] = ()

    @property
    def size(self) -> int:
        """Bytes this envelope occupies inside an uncompressed wire frame."""
        return _wire_codec().envelope_wire_size(self)


@dataclass
class Packet:
    """One datagram on the daemon port."""

    kind: PacketKind
    session: str                       # originating daemon session
    envelopes: List[Envelope] = field(default_factory=list)
    #: NACK: the (first, last) missing seq range being requested.
    nack_range: Optional[Tuple[int, int]] = None
    #: HEARTBEAT: highest seq published in this session.
    last_seq: int = 0
    #: DATA/RETRANS/HEARTBEAT: simulated time this session began.  Lets
    #: a receiver distinguish "I joined late" (baseline at what it
    #: hears) from "the first messages were lost" (recover from seq 1).
    session_start: float = 0.0
    #: ACK: the guaranteed ledger id being confirmed, and who confirms.
    ack_ledger_id: Optional[str] = None
    ack_consumer: Optional[str] = None

    @property
    def size(self) -> int:
        """Bytes this packet occupies on the wire uncompressed, framing
        included (mode-independent: see :func:`repro.core.wire.packet_wire_size`)."""
        return _wire_codec().packet_wire_size(self)


@dataclass
class MessageInfo:
    """Delivery metadata handed to subscriber callbacks."""

    subject: str
    sender: str
    session: str
    seq: int
    qos: QoS
    publish_time: float      # simulated time the publish call was made
    deliver_time: float      # simulated time the callback ran
    size: int                # payload bytes on the wire
    retransmitted: bool = False
    via: Tuple[str, ...] = ()   # routers this message traversed

    @property
    def latency(self) -> float:
        return self.deliver_time - self.publish_time
