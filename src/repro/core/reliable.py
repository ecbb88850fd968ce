"""The reliable-delivery layer: "UDP packets in combination with a
retransmission protocol" (Section 3.1).

Semantics implemented (quoting the paper):

    "Under normal operation, if a sender and receiver do not crash and
    the network does not suffer a long-term partition, then messages are
    delivered exactly once in the order sent by the same sender; messages
    from different senders are not ordered.  If the sender or receiver
    crashes, or there is a network partition, then messages will be
    delivered at most once."

Mechanism: every daemon stamps outgoing envelopes with a per-*session*
sequence number (a session is one incarnation of a daemon; it dies with a
crash, so sequence state is never resurrected ambiguously).  Receivers
deliver in sequence order per session, buffer out-of-order arrivals, and
send unicast NACKs to repair gaps from the sender's bounded retention
buffer.  Idle senders broadcast heartbeats so a lost *final* message is
still detected.  A gap that cannot be repaired after ``nack_max``
attempts (sender crashed, retention expired, long partition) is skipped —
degrading to at-most-once exactly as specified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.kernel import Event, Simulator
from ..sim.trace import Tracer
from .flow import BoundedBuffer, POLICY_DROP_NEWEST, POLICY_DROP_OLDEST
from .message import Envelope
from .metrics import MetricsRegistry

__all__ = ["ReliableConfig", "ReliableSender", "ReliableReceiver",
           "SessionStats"]


@dataclass
class ReliableConfig:
    """Tunables for the retransmission protocol."""

    #: Envelopes a sender retains for NACK repair (count bound).
    retention: int = 4096
    #: Optional age bound: envelopes older than this are unrepairable
    #: even if the count bound would keep them (classic 60-second
    #: reliability windows work this way).  None = count bound only.
    retention_seconds: Optional[float] = None
    #: Delay before a detected gap triggers the first NACK (lets simple
    #: reordering resolve itself without traffic).
    nack_delay: float = 0.005
    #: NACK retries before the receiver gives up and skips the gap.
    #: Generous because a saturated sender serializes the repair behind
    #: its outbound data queue - impatience turns congestion into loss.
    nack_max: int = 20
    #: Backoff multiplier between NACK attempts.
    nack_backoff: float = 2.0
    #: Ceiling on the inter-NACK delay once backoff has grown.
    nack_backoff_cap: float = 0.5
    #: Idle-sender heartbeat period.
    heartbeat_interval: float = 0.25
    #: Out-of-order envelopes a receiver buffers per session.
    receive_buffer: int = 1024
    #: What a full reorder buffer sheds: ``drop-newest`` sheds whichever
    #: envelope carries the highest sequence number (incoming or
    #: buffered — gap-fillers are always admitted), ``drop-oldest``
    #: evicts the lowest-sequence buffered envelope (preferring fresh
    #: data; the evictee stays NACK-repairable from sender retention).
    #: A receiver cannot block a datagram network, so ``block`` is
    #: treated as ``drop-newest``.  Every shed is counted in
    #: :attr:`SessionStats.overflow_dropped` and traced as ``flow.drop``.
    overflow_policy: str = POLICY_DROP_NEWEST


class ReliableSender:
    """Per-daemon send side: sequence stamping, retention, NACK service.

    The retention window is a :class:`~repro.core.flow.BoundedBuffer`
    stage: stamping inserts, the count bound rolls the oldest entry out
    (observable in ``retention_stats``), and the optional age bound
    expires from the front.  ``now`` is a clock callable used for the
    time-based bound; pass ``sim.now`` via a lambda (or leave the
    default for count-only retention).
    """

    def __init__(self, session: str, config: ReliableConfig,
                 now: Callable[[], float] = lambda: 0.0,
                 metrics: Optional[MetricsRegistry] = None):
        self.session = session
        self.config = config
        self.now = now
        self.next_seq = 1
        # per-sender envelope identities: a module-global counter would
        # leak across runs and (as a wire varint) perturb packet sizes
        self._envelope_ids = itertools.count(1)
        # seq -> (envelope, stamp time); drop-oldest IS the rolling
        # repair window, so the buffer's eviction counters double as
        # "how much repairability the retention bound cost us"
        self._retention = BoundedBuffer(
            f"reliable.retention[{session}]",
            capacity=max(config.retention, 1), policy=POLICY_DROP_OLDEST,
            metrics=metrics)
        if metrics is None:
            metrics = MetricsRegistry()
        self._retransmissions = metrics.counter(
            f"reliable.send[{session}].retransmissions")

    @property
    def last_seq(self) -> int:
        return self.next_seq - 1

    @property
    def retransmissions(self) -> int:
        """Envelopes re-sent to serve NACK repairs (an int view over
        the ``reliable.send[<session>].retransmissions`` counter)."""
        return self._retransmissions.value

    @property
    def retention_stats(self):
        """The retention window's :class:`~repro.core.flow.FlowStats`."""
        return self._retention.stats

    def stamp(self, envelope: Envelope) -> Envelope:
        """Assign the next sequence number and retain for repair."""
        envelope.session = self.session
        envelope.seq = self.next_seq
        if envelope.envelope_id == 0:
            envelope.envelope_id = next(self._envelope_ids)
        self.next_seq += 1
        self._retention.insert(envelope.seq, (envelope, self.now()))
        self._expire()
        return envelope

    def forget(self, seq: int) -> None:
        """Drop ``seq`` from retention (its envelope was shed upstream
        before ever reaching the wire; NACKs must not resurrect it)."""
        self._retention.pop(seq)

    def _expire(self) -> None:
        limit = self.config.retention_seconds
        if limit is None:
            return
        horizon = self.now() - limit
        while self._retention:
            _seq, (_, stamped) = self._retention.oldest()
            if stamped >= horizon:
                break
            self._retention.pop_oldest()

    def retained(self) -> int:
        """How many envelopes are currently repairable."""
        self._expire()
        return len(self._retention)

    def repair(self, first: int, last: int) -> List[Envelope]:
        """Envelopes for a NACKed range still present in retention."""
        self._expire()
        found = []
        for seq in range(first, last + 1):
            entry = self._retention.get(seq)
            if entry is not None:
                found.append(entry[0])
        self._retransmissions.value += len(found)
        return found


class SessionStats:
    """Receiver-side accounting for one remote session (benches, tests).

    A view over ``reliable.recv[<session>].<field>`` instruments in the
    receiving daemon's :class:`~repro.core.metrics.MetricsRegistry`
    (or a detached private registry for standalone receivers).  The
    int-returning properties keep the historical dataclass read surface.
    """

    _FIELDS = ("delivered", "duplicates", "buffered", "nacks_sent",
               "gaps_skipped", "messages_lost", "overflow_dropped")

    __slots__ = tuple(f"_{name}" for name in _FIELDS)

    def __init__(self, session: str = "",
                 metrics: Optional[MetricsRegistry] = None):
        if metrics is None:
            metrics = MetricsRegistry()
        scope = metrics.scope(f"reliable.recv[{session}]")
        for name in self._FIELDS:
            setattr(self, f"_{name}", scope.counter(name))

    @property
    def delivered(self) -> int:
        return self._delivered.value

    @property
    def duplicates(self) -> int:
        return self._duplicates.value

    @property
    def buffered(self) -> int:
        return self._buffered.value

    @property
    def nacks_sent(self) -> int:
        return self._nacks_sent.value

    @property
    def gaps_skipped(self) -> int:
        return self._gaps_skipped.value

    @property
    def messages_lost(self) -> int:
        return self._messages_lost.value

    @property
    def overflow_dropped(self) -> int:
        """Envelopes shed because the reorder buffer was full (the
        policy-driven bound; a shed buffered envelope may still be
        NACK-repaired later, so this is pressure, not necessarily loss).
        """
        return self._overflow_dropped.value


class _SessionState:
    __slots__ = ("session", "expected", "buffer", "nack_event",
                 "nack_attempts", "known_last", "sync_event", "stats")

    def __init__(self, session: str,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.session = session
        self.expected: Optional[int] = None
        self.buffer: Dict[int, Tuple[Envelope, bool]] = {}
        self.nack_event: Optional[Event] = None
        self.nack_attempts = 0
        #: highest sequence number known to exist (data or heartbeat)
        self.known_last = 0
        #: pending end-of-sync-window event (first contact, seq > 1)
        self.sync_event: Optional[Event] = None
        self.stats = SessionStats(session, metrics)

    def last_missing(self) -> int:
        """End of the first contiguous missing run (minimal NACK range)."""
        if self.buffer:
            return min(self.buffer) - 1
        return self.known_last

    def has_gap(self) -> bool:
        return (self.expected is not None
                and self.expected <= self.last_missing())


class ReliableReceiver:
    """Per-daemon receive side: ordering, dedupe, gap repair, give-up.

    ``deliver`` is called exactly once per delivered envelope, in per-
    session sequence order.  ``send_nack(session, first, last)`` must
    transmit a NACK packet toward the session's daemon.
    """

    def __init__(self, sim: Simulator, config: ReliableConfig,
                 deliver: Callable[[Envelope, bool], None],
                 send_nack: Callable[[str, int, int], None],
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.config = config
        self._deliver = deliver
        self._send_nack = send_nack
        self._tracer = tracer
        self._metrics = metrics
        self._sessions: Dict[str, _SessionState] = {}
        #: when this receiver came up; sessions born after this are fully
        #: recoverable from seq 1 (we must have been within earshot)
        self.started_at = sim.now

    # ------------------------------------------------------------------
    # public API (driven by the daemon)
    # ------------------------------------------------------------------
    def handle_envelope(self, envelope: Envelope,
                        retransmitted: bool = False,
                        session_start: Optional[float] = None) -> None:
        state = self._state(envelope.session)
        seq = envelope.seq
        state.known_last = max(state.known_last, seq)
        if state.expected is None:
            # First contact with this session.  Sessions always start at
            # seq 1, so a higher first-heard seq means either the early
            # messages were lost/reordered (recover them: the paper
            # promises exactly-once under normal operation) or this
            # receiver genuinely joined after the session began (history
            # is not replayed: "a new subscriber ... receives new
            # objects").  The session's start time disambiguates.
            if seq == 1:
                state.expected = 1
            elif session_start is not None \
                    and session_start >= self.started_at:
                # the session is younger than us: everything from seq 1
                # should have reached us — treat the hole as loss
                state.expected = 1
                state.buffer[seq] = (envelope, retransmitted)
                state.stats._buffered.value += 1
                self._arm_nack(envelope.session, state)
                return
            else:
                # genuinely late join (or unknown): sync-window baseline
                state.buffer[seq] = (envelope, retransmitted)
                if state.sync_event is None:
                    state.sync_event = self.sim.schedule(
                        self.config.nack_delay, self._end_sync,
                        envelope.session, name="reliable.sync")
                return
        if state.sync_event is not None:
            # syncing ended implicitly: seq 1 showed up
            state.sync_event.cancel()
            state.sync_event = None
            self._drain(state)
        if seq < state.expected:
            state.stats._duplicates.value += 1
            return
        if seq == state.expected:
            self._deliver_in_order(state, envelope, retransmitted)
            self._drain(state)
            self._refresh_gap(state)
            return
        # gap: buffer and arrange repair
        if seq in state.buffer:
            state.stats._duplicates.value += 1
            return
        if len(state.buffer) >= self.config.receive_buffer:
            if not self._shed(state, envelope):
                return   # the incoming envelope itself was shed
        state.buffer[seq] = (envelope, retransmitted)
        state.stats._buffered.value += 1
        self._arm_nack(envelope.session, state)

    def _shed(self, state: _SessionState, incoming: Envelope) -> bool:
        """Apply the overflow policy to a full reorder buffer.

        Returns True when room was made for ``incoming`` (a buffered
        envelope was evicted), False when ``incoming`` was the victim.
        Either way the shed is counted and traced — never silent.
        """
        if self.config.overflow_policy == POLICY_DROP_OLDEST:
            victim = min(state.buffer)
        else:
            # drop-newest (and ``block``, which a datagram receiver
            # cannot honour): shed the highest sequence number in play,
            # so a gap-filling arrival always displaces younger data
            victim = max(state.buffer)
            if incoming.seq > victim:
                victim = incoming.seq
        state.stats._overflow_dropped.value += 1
        if self._tracer:
            self._tracer.emit(self.sim.now, "flow.drop",
                              queue="reliable.reorder",
                              session=state.session, seq=victim,
                              end=("oldest" if self.config.overflow_policy
                                   == POLICY_DROP_OLDEST else "newest"),
                              depth=len(state.buffer))
        if victim == incoming.seq:
            return False
        del state.buffer[victim]
        return True

    # Wrapped by name in perfbench/spans.py; nothing calls it.
    def try_skip(self, *_args) -> bool:
        return False

    def note_undecodable(self, session: str, first_seq: int, last_seq: int,
                         session_start: Optional[float] = None) -> None:
        """A frame from ``session`` arrived intact but could not be
        resolved (session-dictionary ids this receiver never learned —
        see :class:`~repro.core.wire.UnresolvedIds`).

        The frame was dropped, so its envelopes never reached
        :meth:`handle_envelope`; without this hook the hole would only be
        noticed when a *later* decodable frame or heartbeat exposed the
        gap.  Treat it as loss: record how far the session is known to
        extend and arm a NACK — the RETRANS repair is self-contained
        (defines every id it references), so it always resolves.
        """
        state = self._state(session)
        if last_seq > state.known_last:
            state.known_last = last_seq
        if state.expected is None:
            if state.sync_event is not None:
                return   # mid sync window: buffered data will baseline
            if session_start is not None \
                    and session_start >= self.started_at:
                state.expected = 1          # young session: recover it all
            else:
                # late joiner: history is not replayed, but *this* frame
                # is new data we were meant to hear — repair from it.
                # (NOT ``last_seq + 1``: that would skip the frame and
                # leave a receiver whose every frame is unresolvable
                # permanently deaf.)
                state.expected = first_seq
        if state.has_gap():
            self._arm_nack(session, state)

    def handle_heartbeat(self, session: str, last_seq: int,
                         session_start: Optional[float] = None) -> None:
        state = self._state(session)
        if state.expected is None:
            state.known_last = max(state.known_last, last_seq)
            if state.sync_event is not None:
                return   # mid sync window: let the buffered data baseline
            if session_start is not None \
                    and session_start >= self.started_at:
                # young session: its entire history is recoverable
                state.expected = 1
                if state.has_gap():
                    self._arm_nack(session, state)
                return
            # late joiner: nothing published since we arrived is missing
            state.expected = last_seq + 1
            return
        state.known_last = max(state.known_last, last_seq)
        if state.has_gap():
            self._arm_nack(session, state)

    def stats(self, session: str) -> SessionStats:
        return self._state(session).stats

    def sessions(self) -> List[str]:
        return list(self._sessions)

    def shutdown(self) -> None:
        """Cancel all pending timers (daemon stopping or host crashing)."""
        for state in self._sessions.values():
            for event in (state.nack_event, state.sync_event):
                if event is not None:
                    event.cancel()
            state.nack_event = None
            state.sync_event = None
        self._sessions.clear()

    def _end_sync(self, session: str) -> None:
        state = self._sessions.get(session)
        if state is None or state.expected is not None:
            return
        state.sync_event = None
        if not state.buffer:
            return
        state.expected = min(state.buffer)
        self._drain(state)
        self._refresh_gap(state)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _state(self, session: str) -> _SessionState:
        state = self._sessions.get(session)
        if state is None:
            state = _SessionState(session, self._metrics)
            self._sessions[session] = state
        return state

    def _deliver_in_order(self, state: _SessionState, envelope: Envelope,
                          retransmitted: bool) -> None:
        state.expected = envelope.seq + 1
        state.stats._delivered.value += 1
        self._deliver(envelope, retransmitted)

    def _drain(self, state: _SessionState) -> None:
        while state.expected in state.buffer:
            envelope, retransmitted = state.buffer.pop(state.expected)
            self._deliver_in_order(state, envelope, retransmitted)

    def _gap(self, state: _SessionState) -> Optional[Tuple[int, int]]:
        if not state.buffer:
            return None
        return (state.expected, max(state.buffer) - 1) \
            if max(state.buffer) > state.expected else None

    def _refresh_gap(self, state: _SessionState) -> None:
        """After progress, cancel or re-aim the outstanding NACK timer."""
        if state.nack_event is not None:
            state.nack_event.cancel()
            state.nack_event = None
        state.nack_attempts = 0
        if state.has_gap():
            # there is still a hole (below the buffer, or a lost tail)
            self._arm_nack(state.session, state)

    def _arm_nack(self, session: str, state: _SessionState) -> None:
        if state.nack_event is not None:
            return
        delay = min(self.config.nack_delay
                    * (self.config.nack_backoff ** state.nack_attempts),
                    self.config.nack_backoff_cap)
        state.nack_event = self.sim.schedule(
            delay, self._fire_nack, session, name="reliable.nack")

    def _fire_nack(self, session: str) -> None:
        state = self._sessions.get(session)
        if state is None:
            return
        state.nack_event = None
        if not state.has_gap():
            return
        if state.nack_attempts >= self.config.nack_max:
            self._give_up(state)
            return
        state.nack_attempts += 1
        state.stats._nacks_sent.value += 1
        self._send_nack(session, state.expected, state.last_missing())
        self._arm_nack(session, state)

    def _give_up(self, state: _SessionState) -> None:
        """Unrepairable gap: skip it (at-most-once under failure)."""
        state.stats._gaps_skipped.value += 1
        if state.buffer:
            lowest = min(state.buffer)
            state.stats._messages_lost.value += lowest - state.expected
            state.expected = lowest
        else:
            # a lost tail the (dead or amnesiac) sender cannot repair
            state.stats._messages_lost.value += state.known_last - state.expected + 1
            state.expected = state.known_last + 1
        state.nack_attempts = 0
        self._drain(state)
        if state.has_gap():
            self._arm_nack(state.session, state)
