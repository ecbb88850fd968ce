"""Guaranteed message delivery (the stronger QoS of Section 3.1).

    "In this case, the message is logged to non-volatile storage before
    it is sent.  The message is guaranteed to be delivered at least once,
    regardless of failures.  The publisher will retransmit the message at
    appropriate times until a reply is received.  If there is no failure,
    then the message will be delivered exactly once.  Guaranteed delivery
    is particularly useful when sending data to a database over an
    unreliable network."

Publisher side (:class:`GuaranteedPublisher`): each guaranteed publish is
added to the host's :class:`StableLedger` (an append-only stable log,
shared with router store-and-forward) *before* transmission, republished
on a timer until ``ack_quorum`` distinct consumers have acknowledged it,
then retired.  A restarted daemon replays the ledger and resumes.

Consumer side (:class:`GuaranteedConsumer`): a daemon with *durable*
subscribers logs delivered ledger ids in stable storage, so a
retransmission after a consumer crash is acknowledged but not delivered
twice — at-least-once to the application, exactly-once when nothing
fails.

Both sides take a ``namespace``: shard daemons above plane 0 suffix
their stable log names with it so the shards of one host never share a
ledger or seen-set.  The empty default keeps the classic log names (and
ledger-id format) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..sim.kernel import PeriodicTimer, Simulator
from ..sim.node import Host
from ..sim.stable_storage import StableStore

__all__ = ["GuaranteedPublisher", "GuaranteedConsumer", "LedgerEntry",
           "StableLedger"]

_LEDGER_LOG = "gd.ledger"
_SEEN_LOG = "gd.seen"

#: Compact once retired entries' records reach this and outnumber live ones.
COMPACT_MIN_RETIRED = 64


@dataclass
class LedgerEntry:
    """One logged record awaiting acknowledgement."""

    ledger_id: str
    record: Any
    acks: List[str] = field(default_factory=list)   # distinct ackers


class StableLedger:
    """An append-only at-least-once ledger in one stable-storage log.

    Each mutation appends an ``(op, ledger_id, value)`` record before it
    returns: ``add``, ``ack``, ``retire``, or — last in a compacted log —
    ``base``, the id counter.  Ids ``<id_prefix><n>`` are consecutive, so
    replay counts adds and ``base`` resets the count: no id is reused.
    """

    def __init__(self, store: StableStore, log: str, id_prefix: str):
        self.store = store
        self.log = log
        self.id_prefix = id_prefix
        self.reload()

    def reload(self) -> None:
        self._entries: Dict[str, LedgerEntry] = {}
        self._counter = 0
        self._dead = 0   # log records no live entry needs
        for op, ledger_id, value in self.store.iter_log(self.log):
            if op == "add":
                self._counter += 1
                self._entries[ledger_id] = LedgerEntry(ledger_id, value)
            elif op == "ack":
                self._entries[ledger_id].acks.append(value)
            elif op == "retire":
                self._dead += 2 + len(self._entries.pop(ledger_id).acks)
            else:
                self._counter = value
                self._dead += 1

    def add(self, record: Any) -> str:
        self._counter += 1
        ledger_id = f"{self.id_prefix}{self._counter}"
        self.store.append(self.log, ("add", ledger_id, record))
        self._entries[ledger_id] = LedgerEntry(ledger_id, record)
        return ledger_id

    def ack(self, ledger_id: str, who: str) -> Optional[LedgerEntry]:
        """Record ``who`` (once) as an acker; returns the live entry, or
        None if ``ledger_id`` is unknown or already retired."""
        entry = self._entries.get(ledger_id)
        if entry is not None and who not in entry.acks:
            self.store.append(self.log, ("ack", ledger_id, who))
            entry.acks.append(who)
        return entry

    def retire(self, ledger_id: str) -> None:
        entry = self._entries.pop(ledger_id, None)
        if entry is None:
            return
        self.store.append(self.log, ("retire", ledger_id, None))
        self._dead += 2 + len(entry.acks)   # its add, acks and retire
        if (self._dead >= COMPACT_MIN_RETIRED
                and 2 * self._dead > self.store.log_length(self.log)):
            # one event, so no simulated crash can split this rewrite
            kept = [r for r in self.store.read_log(self.log)
                    if r[1] in self._entries]
            self.store.delete_log(self.log)
            for record in kept + [("base", None, self._counter)]:
                self.store.append(self.log, record)
            self._dead = 1

    def pending(self) -> List[LedgerEntry]:
        """Live entries in insertion order."""
        return list(self._entries.values())


class GuaranteedPublisher:
    """The publish side of guaranteed delivery for one daemon."""

    def __init__(self, sim: Simulator, host: Host, ack_quorum: int,
                 retransmit_interval: float,
                 republish: Callable[[LedgerEntry], None],
                 namespace: str = ""):
        self.sim = sim
        self.ack_quorum = ack_quorum
        self.retransmit_interval = retransmit_interval
        self._republish = republish
        # ledger ids stay `<host>/...`-prefixed (ack unicast routing
        # parses the origin host off the front) but carry the namespace
        # so ids from different shard planes can never collide
        self.ledger = StableLedger(
            host.stable, _LEDGER_LOG + namespace,
            f"{host.address}/" + (f"{namespace}." if namespace else ""))
        self._timer: Optional[PeriodicTimer] = None
        if self.ledger.pending():
            # a previous incarnation left unacked entries in the ledger
            self._ensure_timer()

    # ------------------------------------------------------------------
    def record(self, subject: str, sender: str, payload: bytes) -> str:
        """Log a new guaranteed message *before* its first transmission,
        per the paper; returns its ledger id."""
        ledger_id = self.ledger.add(
            {"subject": subject, "sender": sender, "payload": payload})
        self._ensure_timer()
        return ledger_id

    def handle_ack(self, ledger_id: str, consumer: str) -> None:
        """A consumer confirmed stable receipt of ``ledger_id``."""
        entry = self.ledger.ack(ledger_id, consumer)
        if entry is not None and len(entry.acks) >= self.ack_quorum:
            self.ledger.retire(ledger_id)

    def shutdown(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ------------------------------------------------------------------
    def _ensure_timer(self) -> None:
        if self._timer is None or self._timer.stopped:
            self._timer = PeriodicTimer(self.sim, self.retransmit_interval,
                                        self._tick, name="gd.retransmit")

    def _tick(self) -> None:
        pending = self.ledger.pending()
        if not pending:
            self.shutdown()
            return
        for entry in pending:
            self._republish(entry)


class GuaranteedConsumer:
    """The consume side: stable dedupe of delivered ledger ids (also a
    store-and-forward router leg's dedupe of shipment ids, in ``log``)."""

    def __init__(self, host: Host, namespace: str = "",
                 log: str = _SEEN_LOG):
        self.host = host
        self._seen_log = log + namespace
        self._seen = set(host.stable.read_log(self._seen_log))

    def first_delivery(self, ledger_id: str) -> bool:
        """True exactly once per ledger id, durably across crashes."""
        if ledger_id in self._seen:
            return False
        self._seen.add(ledger_id)
        self.host.stable.append(self._seen_log, ledger_id)
        return True
