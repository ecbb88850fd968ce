"""The per-host Information Bus daemon.

Section 3.1: "In our implementation of subject-based addressing, we use a
daemon on every host.  Each application registers with its local daemon,
and tells the daemon to which subjects it has subscribed.  The daemon
forwards each message to each application that has subscribed.  It uses
the subject contained in the message to decide which application receives
which message."

One :class:`BusDaemon` per :class:`~repro.sim.node.Host`:

* outbound — a flow-controlled pipeline: publishes pass *admission* at a
  bounded outbound queue (:mod:`repro.core.flow`), are stamped by the
  reliable protocol, pumped — optionally paced to the wire — through the
  batching stage, and broadcast as UDP datagrams on the daemon port;
* inbound — every daemon hears every broadcast (it is an Ethernet), runs
  the reliable receive protocol, matches the subject against its local
  subscription trie, and forwards to subscribed local applications
  through bounded per-application delivery lanes (a slow app backlogs
  and sheds per policy without stalling its co-hosted siblings);
* guaranteed delivery — stable ledger + acks (see
  :mod:`repro.core.guaranteed`); guaranteed traffic is never shed by the
  flow-control layer — full queues defer it back to the ledger's
  retransmission timer;
* fail-stop lifecycle — a crash destroys all volatile daemon state; on
  recovery the daemon restarts with a fresh session and (by default)
  re-attaches its applications' subscriptions, modeling apps restarted
  by init.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from ..sim.kernel import Event, PeriodicTimer, Simulator
from ..sim.node import Host
from ..sim.trace import NULL_TRACER, Tracer
from ..objects import encode
from ..sim.transport import DatagramSocket, Endpoint
from .batching import BatchConfig, Batcher
from .flow import (Admission, BoundedQueue, FlowConfig, POLICY_DROP_OLDEST,
                   PublishReceipt)
from .guaranteed import GuaranteedConsumer, GuaranteedPublisher, LedgerEntry
from .message import Envelope, Packet, PacketKind, QoS
from .metrics import MetricsPublisher, MetricsRegistry
from .reliable import ReliableConfig, ReliableReceiver, ReliableSender
from .subjects import SubjectTrie, validate_subject
from .typeplane import PeerTypeView, TypeTable
from .wire import (CorruptFrame, SessionTable, UnresolvedIds, decode_packet,
                   encode_packet)

if TYPE_CHECKING:  # pragma: no cover
    from .client import BusClient

__all__ = ["ADVERT_SUBJECT", "BusConfig", "BusDaemon", "BusDownError",
           "DAEMON_PORT", "SHARD_PORT_STRIDE", "STAT_PORT",
           "STAT_SUBJECT_PREFIX", "shard_data_port", "shard_stat_port"]

#: The well-known UDP port every daemon binds.
DAEMON_PORT = 7

#: The well-known UDP port the telemetry plane broadcasts on.  Stat
#: frames ride a *separate* socket so their transport counters never
#: perturb the data plane's — the first half of the no-echo guarantee.
STAT_PORT = 8

#: Port stride between shard planes.  Shard 0 keeps the well-known
#: ports above; shard ``k`` binds ``DAEMON_PORT + 16k`` / ``STAT_PORT +
#: 16k``, clear of the noise port (9) and far below the RMI ephemeral
#: range (20000+).  Because every host derives the same ports from the
#: same shard id, shard planes are disjoint broadcast domains on the
#: shared segment — a frame on shard 2's port is only ever decoded by
#: shard-2 daemons.
SHARD_PORT_STRIDE = 16


def shard_data_port(shard: int) -> int:
    """The data-plane port of shard plane ``shard``."""
    return DAEMON_PORT + SHARD_PORT_STRIDE * shard


def shard_stat_port(shard: int) -> int:
    """The telemetry port of shard plane ``shard``."""
    return STAT_PORT + SHARD_PORT_STRIDE * shard


# Wrapped by name in perfbench/spans.py; nothing calls it.
def read_digest(*_args, **_kwargs) -> None:
    return None


#: Reserved subject on which daemons advertise their subscription tables
#: (consumed by information routers; see repro.core.router).
ADVERT_SUBJECT = "_sub.advert"

#: Reserved subject space for telemetry snapshots: a daemon publishes
#: its registry on ``_bus.stat.<host>.daemon``, a router on
#: ``_bus.stat.<router>.router``.  Reserved (``_``-prefixed) subjects
#: are invisible to ``>`` wildcards — subscribe ``_bus.stat.>``
#: explicitly (see :class:`repro.apps.bus_browser.BusBrowser`).
STAT_SUBJECT_PREFIX = "_bus.stat"


class BusDownError(RuntimeError):
    """An operation was attempted while the local daemon's host is down."""


@dataclass
class BusConfig:
    """All bus tunables in one place."""

    reliable: ReliableConfig = field(default_factory=ReliableConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    #: Flow control: queue bounds, overflow policies, wire pacing.  The
    #: defaults are non-shedding pass-through (see
    #: :class:`~repro.core.flow.FlowConfig`).
    flow: FlowConfig = field(default_factory=FlowConfig)
    #: Guaranteed-delivery republish period.
    retransmit_interval: float = 0.5
    #: Distinct consumers that must ack a guaranteed message.
    ack_quorum: int = 1
    #: Re-attach client subscriptions when the host recovers.
    auto_restart_clients: bool = True
    #: Marshal type metadata into every published message by default.
    inline_types: bool = True
    #: Session type plane: when on (and ``inline_types`` would apply),
    #: reliable publishes carry dense session type ids instead of the
    #: full inline metadata block, with typedef definitions riding
    #: once per session in the session dictionary (see
    #: :mod:`repro.core.typeplane` and "Session dictionary" in
    #: docs/PROTOCOLS.md).  Guaranteed publishes stay self-contained —
    #: their ledgered payloads must outlive the session.  False keeps
    #: the per-message inline encoding — the ablation baseline the perf
    #: harness compares against to prove behaviour is bit-identical.
    type_plane: bool = True
    #: Broadcast subscription-table changes on ADVERT_SUBJECT so routers
    #: can forward across WANs only what somebody actually wants.
    advertise_subscriptions: bool = True
    #: Period of the full subscription-snapshot re-advertisement.
    advert_interval: float = 2.0
    #: Most guaranteed-delivery ledger ids remembered for deduping
    #: deliveries to non-durable subscribers; oldest are evicted past
    #: this, so a long-running daemon's memory stays bounded.
    seen_ledger_cap: int = 4096
    #: Concrete subjects the subscription trie memoizes (see
    #: :class:`~repro.core.subjects.SubjectTrie`).  0 disables the memo —
    #: the escape hatch the ``caches`` differential row uses to prove
    #: cache honesty.
    #: None uses the trie's default.
    match_memo_capacity: Optional[int] = None
    #: Header-compress DATA/RETRANS frames: header strings go into the
    #: session dictionary (see "The session dictionary" in
    #: :mod:`repro.core.wire`).
    #: False keeps the plain encoding — the ablation baseline the perf
    #: harness compares against to prove behaviour is identical.
    wire_compression: bool = True
    #: Seconds between telemetry snapshots published on
    #: ``_bus.stat.<host>.daemon``.  0 (the default) disables the
    #: publisher entirely; runs with it on are bit-identical to runs
    #: with it off (a tested invariant — see docs/OBSERVABILITY.md).
    stat_interval: float = 0.0
    #: Envelopes the bounded stat-publish queue holds (drop-oldest:
    #: under backpressure stale snapshots are shed first — the newest
    #: snapshot supersedes them anyway).
    stat_queue: int = 8
    #: Replace every registry instrument with shared no-op stubs — the
    #: ablation knob the ``metrics_overhead`` perf bench uses to bound
    #: what full instrumentation costs.  Not for normal use: stats
    #: surfaces read garbage under it.
    metrics_stub: bool = False
    #: Partition the subject space into this many hash-sharded planes,
    #: each owned by its own daemon instance on its own CPU lane and
    #: port pair (see :mod:`repro.core.sharding` and "Subject-space
    #: sharding" in docs/PROTOCOLS.md).  The default 1 keeps today's
    #: single-daemon-per-host behaviour bit-for-bit; values > 1 make
    #: :class:`~repro.core.bus.InformationBus` build a
    #: :class:`~repro.core.sharding.ShardedDaemon` facade instead.
    subject_shards: int = 1


class _DeliveryLane:
    """One application's bounded delivery queue on its daemon."""

    __slots__ = ("queue", "service_time", "drain_event")

    def __init__(self, queue: BoundedQueue, service_time: float = 0.0):
        self.queue = queue
        #: simulated seconds the application takes to consume one
        #: message; 0 keeps the historical synchronous fast path
        self.service_time = service_time
        self.drain_event: Optional[Event] = None


class BusDaemon:
    """The bus agent on one host.

    ``shard``/``shard_count`` place this daemon on one shard plane: it
    binds that plane's port pair, serializes its CPU work on lane
    ``shard``, and (for shard > 0) marks its session string so peers
    and telemetry can tell the planes apart.  The defaults (0, 1) are
    the classic unsharded daemon; :class:`~repro.core.sharding.
    ShardedDaemon` builds one instance per plane.
    """

    def __init__(self, sim: Simulator, host: Host,
                 config: Optional[BusConfig] = None,
                 tracer: Optional[Tracer] = None,
                 shard: int = 0, shard_count: int = 1):
        self.sim = sim
        self.host = host
        self.config = config or BusConfig()
        if not 0 <= shard < max(shard_count, 1):
            raise ValueError(f"shard {shard} out of range for "
                             f"{shard_count} shard(s)")
        self.shard = shard
        self.shard_count = max(shard_count, 1)
        self._port = shard_data_port(shard)
        self._stat_port = shard_stat_port(shard)
        # NULL_TRACER fallback, not `or`: a disabled Tracer is falsy, and
        # callers may hand one in intending to flip it on mid-run
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.clients: Dict[str, "BusClient"] = {}
        #: per-application delivery lanes (outlive crashes like clients
        #: do; their queues are volatile and cleared on crash)
        self._lanes: Dict[str, _DeliveryLane] = {}
        #: upstream credit listeners (publishers waiting to resume);
        #: persistent across restarts, re-wired to each new queue
        self._publish_credit_cbs: List[Any] = []
        #: every counter/gauge/histogram this daemon owns, one registry
        #: (the object that gets snapshotted onto ``_bus.stat.*``).  The
        #: registry itself survives restarts; per-incarnation instrument
        #: families are dropped by :meth:`_start`.
        self.metrics = MetricsRegistry(stub=self.config.metrics_stub)
        # daemon-lifetime counters (survive restarts; they describe the
        # daemon object) — int views exposed as properties below
        scope = self.metrics.scope(f"daemon.{host.address}")
        self._published = scope.counter("published")
        self._delivered = scope.counter("delivered")
        self._acks_sent = scope.counter("acks_sent")
        #: guaranteed deliveries pushed back to the ledger because a
        #: delivery lane was full (never shed — redelivered later)
        self._guaranteed_deferred = scope.counter("guaranteed_deferred")
        #: datagrams dropped because their frame failed wire validation
        self._corrupt_dropped = scope.counter("wire.corrupt_dropped")
        #: CRC-valid frames dropped because they referenced dictionary
        #: ids — header strings or typedefs — this daemon never learned
        #: (repaired via NACK; the RETRANS re-defines every id it uses)
        self._unresolved_dropped = scope.counter("wire.unresolved_dropped")
        # lazily read wire/topology gauges (cost is paid at snapshot)
        scope.gauge("clients", source=lambda: len(self.clients))
        scope.gauge("subscriptions",
                    source=lambda: len(self._subscriptions))
        scope.gauge("wire.table_entries",
                    source=lambda: (len(self._table)
                                    if self._table is not None else 0))
        scope.gauge("wire.peer_sessions",
                    source=lambda: len(self._peer_tables))
        scope.gauge("wire.peer_entries",
                    source=lambda: sum(len(t)
                                       for t in self._peer_tables.values()))
        if self.shard_count > 1:
            # the shard.* family only exists on sharded hosts, so
            # unsharded snapshots are byte-identical to the pre-shard era
            scope.gauge("shard.id", source=lambda: self.shard)
            scope.gauge("shard.count", source=lambda: self.shard_count)
        self._started = False
        host.on_crash(self._on_crash)
        host.on_recover(self._on_recover)
        self._start()

    # ------------------------------------------------------------------
    # counter views (ints, the historical attribute surface)
    # ------------------------------------------------------------------
    @property
    def published(self) -> int:
        return self._published.value

    @property
    def delivered(self) -> int:
        return self._delivered.value

    @property
    def acks_sent(self) -> int:
        return self._acks_sent.value

    @property
    def guaranteed_deferred(self) -> int:
        return self._guaranteed_deferred.value

    @property
    def corrupt_dropped(self) -> int:
        return self._corrupt_dropped.value

    @property
    def unresolved_dropped(self) -> int:
        return self._unresolved_dropped.value

    # Read by name in perfbench/workloads.py; every frame is decoded.
    @property
    def skipped_frames(self) -> int:
        return 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        # shard > 0 marks the session *after* the '#': every consumer of
        # session strings that wants the host parses `split('#', 1)[0]`
        # (NACK unicast routing), which still yields the bare address
        self.session = (f"{self.host.address}#{self.host.epoch}"
                        if self.shard == 0 else
                        f"{self.host.address}#{self.host.epoch}"
                        f"~{self.shard}")
        self.session_started = self.sim.now
        # per-incarnation instrument families restart from zero, exactly
        # like the volatile state they describe (sessions, queues);
        # daemon-lifetime counters above are untouched
        for prefix in ("reliable.", "flow.reliable.retention[",
                       f"flow.outbound[{self.host.address}]",
                       f"flow.batch[{self.host.address}]",
                       f"transport.daemon[{self.host.address}]"):
            self.metrics.drop_prefix(prefix)
        self._socket = DatagramSocket(self.sim, self.host, self._port,
                                      self._on_datagram,
                                      metrics=self.metrics,
                                      metrics_name=(
                                          f"transport.daemon"
                                          f"[{self.host.address}]"),
                                      lane=self.shard)
        self._sender = ReliableSender(self.session, self.config.reliable,
                                      now=lambda: self.sim.now,
                                      metrics=self.metrics)
        # the session dictionary is volatile by design: a restarted
        # daemon has a fresh session name, so receivers key learned
        # entries by session and can never mix incarnations
        config = self.config
        self._table: Optional[SessionTable] = (
            SessionTable(headers=config.wire_compression)
            if config.wire_compression or config.type_plane else None)
        self._type_table: Optional[TypeTable] = (
            TypeTable(self._table) if config.type_plane else None)
        self._peer_tables: Dict[str, Dict[int, object]] = {}
        self._type_views: Dict[str, PeerTypeView] = {}
        self._receiver = ReliableReceiver(self.sim, self.config.reliable,
                                          self._deliver_remote,
                                          self._send_nack,
                                          tracer=self.tracer,
                                          metrics=self.metrics)
        flow = self.config.flow
        # admission queue: publishes enter the outbound pipeline here.
        # Guaranteed envelopes are never evicted (the evict filter) —
        # they leave only via the wire or a crash.
        self._outbound = BoundedQueue(
            f"outbound[{self.host.address}]", flow.publish_queue,
            flow.publish_policy,
            evict_filter=lambda env: env.qos is not QoS.GUARANTEED,
            on_evict=self._outbound_evicted,
            tracer=self.tracer, now=lambda: self.sim.now,
            metrics=self.metrics)
        self._outbound.on_credit(self._fire_publish_credits)
        self._pump_event: Optional[Event] = None
        self._pumping = False
        self._batcher = Batcher(
            self.sim, self.config.batch, self._send_batch,
            queue=BoundedQueue(
                f"batch[{self.host.address}]",
                capacity=max(self.config.batch.max_messages, 1),
                tracer=self.tracer, now=lambda: self.sim.now,
                metrics=self.metrics))
        memo = self.config.match_memo_capacity
        self._subscriptions: SubjectTrie = SubjectTrie(memo_capacity=memo)
        self._durable: SubjectTrie = SubjectTrie(memo_capacity=memo)
        self._heartbeat = PeriodicTimer(
            self.sim, self.config.reliable.heartbeat_interval,
            self._send_heartbeat, name="daemon.heartbeat")
        gd_namespace = f"s{self.shard}" if self.shard else ""
        self._gpub = GuaranteedPublisher(
            self.sim, self.host, self.config.ack_quorum,
            self.config.retransmit_interval, self._republish_guaranteed,
            namespace=gd_namespace)
        self._gcon = GuaranteedConsumer(self.host, namespace=gd_namespace)
        #: volatile dedupe of guaranteed deliveries to non-durable clients
        #: (insertion-ordered so the oldest entries can be evicted at the
        #: configured cap)
        self._seen_ledgers: "OrderedDict[str, None]" = OrderedDict()
        #: refcounts of advertisable (non-reserved) patterns on this host
        self._public_patterns: Dict[str, int] = {}
        self._advert_timer: Optional[PeriodicTimer] = None
        if self.config.advertise_subscriptions:
            self._advert_timer = PeriodicTimer(
                self.sim, self.config.advert_interval,
                self._advertise_snapshot, name="daemon.advert")
        # telemetry plane: own socket, own bounded queue, and NO
        # registry instruments of its own — the publisher must never
        # publish stats about its own stat traffic (no echo)
        self._stat_socket = DatagramSocket(self.sim, self.host,
                                           self._stat_port,
                                           self._on_stat_datagram,
                                           lane=self.shard)
        self._stat_queue = BoundedQueue(
            f"stat[{self.host.address}]", max(self.config.stat_queue, 1),
            POLICY_DROP_OLDEST)
        self._stat_pump_event: Optional[Event] = None
        self._stat_publisher: Optional[MetricsPublisher] = None
        if self.config.stat_interval > 0:
            self._stat_publisher = MetricsPublisher(
                self.sim, self.metrics, self.publish_stats,
                self.config.stat_interval, name="daemon.stat")
        self._started = True

    def _on_crash(self) -> None:
        self._started = False
        if self._advert_timer is not None:
            self._advert_timer.stop()
        if self._stat_publisher is not None:
            self._stat_publisher.stop()
        if self._stat_pump_event is not None:
            self._stat_pump_event.cancel()
            self._stat_pump_event = None
        self._stat_queue.clear()
        self._heartbeat.stop()
        if self._pump_event is not None:
            self._pump_event.cancel()
            self._pump_event = None
        self._outbound.clear()
        for lane in self._lanes.values():
            if lane.drain_event is not None:
                lane.drain_event.cancel()
                lane.drain_event = None
            lane.queue.clear()
        self._batcher.shutdown()
        self._receiver.shutdown()
        self._gpub.shutdown()

    def _on_recover(self) -> None:
        self._start()
        # on a sharded host the facade re-attaches clients once, after
        # *every* plane has restarted — a single plane doing it here
        # would fan subscriptions into planes that are still down
        if self.config.auto_restart_clients and self.shard_count == 1:
            for client in list(self.clients.values()):
                client._reattach()

    @property
    def up(self) -> bool:
        return self._started and self.host.up

    def _require_up(self) -> None:
        if not self.up:
            raise BusDownError(f"daemon on {self.host.address} is down")

    # ------------------------------------------------------------------
    # client registration (the "applications register" part)
    # ------------------------------------------------------------------
    def attach_client(self, client: "BusClient") -> None:
        if client.name in self.clients:
            raise ValueError(
                f"host {self.host.address}: an application named "
                f"{client.name!r} is already registered")
        self.clients[client.name] = client
        flow = self.config.flow
        self._lanes[client.name] = _DeliveryLane(
            BoundedQueue(
                f"deliver[{client.id}]", flow.delivery_queue,
                flow.delivery_policy,
                # guaranteed deliveries are deferred, never evicted
                evict_filter=lambda item: item[0].ledger_id is None,
                tracer=self.tracer, now=lambda: self.sim.now,
                metrics=self.metrics),
            service_time=getattr(client, "service_time", 0.0))
        # end-to-end latency (publish stamp -> application callback),
        # observed by the client itself on each delivery
        client._latency = self.metrics.histogram(
            f"client.{client.name}.latency")

    def detach_client(self, client: "BusClient") -> None:
        self.clients.pop(client.name, None)
        lane = self._lanes.pop(client.name, None)
        if lane is not None and lane.drain_event is not None:
            lane.drain_event.cancel()

    def set_client_service_time(self, name: str, service_time: float) -> None:
        """Model the application's consume rate (seconds per message).

        0 restores the synchronous fast path; > 0 makes deliveries queue
        in the client's bounded lane and drain one per ``service_time``.
        """
        lane = self._lanes[name]
        lane.service_time = max(0.0, service_time)
        if lane.queue and lane.drain_event is None:
            self._arm_lane(name, lane)

    def on_publish_credit(self, callback) -> None:
        """Run ``callback`` when the outbound queue drains after having
        pushed back — the upstream half of publish backpressure."""
        self._publish_credit_cbs.append(callback)

    def _fire_publish_credits(self) -> None:
        for callback in list(self._publish_credit_cbs):
            callback()

    def add_subscription(self, pattern: str, client: "BusClient",
                         durable: bool) -> None:
        self._require_up()
        self._subscriptions.insert(pattern, client)
        if durable:
            self._durable.insert(pattern, client)
        if self._advertisable(pattern):
            count = self._public_patterns.get(pattern, 0)
            self._public_patterns[pattern] = count + 1
            if count == 0:
                self._advertise("add", [pattern])

    def remove_subscription(self, pattern: str, client: "BusClient",
                            durable: bool) -> None:
        if not self._started:
            return
        self._subscriptions.remove(pattern, client)
        if durable:
            self._durable.remove(pattern, client)
        if self._advertisable(pattern):
            count = self._public_patterns.get(pattern, 0) - 1
            if count <= 0:
                self._public_patterns.pop(pattern, None)
                self._advertise("remove", [pattern])
            else:
                self._public_patterns[pattern] = count

    # ------------------------------------------------------------------
    # subscription advertisement (router support)
    # ------------------------------------------------------------------
    def _advertisable(self, pattern: str) -> bool:
        return (self.config.advertise_subscriptions
                and not pattern.split(".", 1)[0].startswith("_"))

    def _advertise(self, action: str, patterns: List[str]) -> None:
        payload = encode({"action": action, "patterns": patterns,
                          "host": self.host.address})
        self.publish(f"{self.host.address}._daemon", ADVERT_SUBJECT, payload)

    def _advertise_snapshot(self) -> None:
        if not self.up or not self._public_patterns:
            return
        self._advertise("snapshot", sorted(self._public_patterns))

    def subscription_count(self) -> int:
        return len(self._subscriptions)

    # ------------------------------------------------------------------
    # publish path
    # ------------------------------------------------------------------
    def publish(self, client_id: str, subject: str, payload: bytes,
                qos: QoS = QoS.RELIABLE,
                via: tuple = (), type_refs: tuple = ()) -> PublishReceipt:
        """Publish pre-marshalled ``payload`` under ``subject``.

        The receipt says whether the outbound pipeline admitted the
        message.  A deferred/dropped publish was never stamped with a
        sequence number and never delivered locally; deferred guaranteed
        messages are already in the stable ledger and retransmit
        automatically.  ``via`` carries router path stamps on
        re-publications (see :mod:`repro.core.router`); ordinary
        publishers leave it empty.  ``type_refs`` carries the session
        type-table ids a payload marshalled with ``encode_typed``
        references, so the wire layer can ride the typedef definitions
        in-band.
        """
        self._require_up()
        validate_subject(subject)
        envelope = Envelope(subject=subject, sender=client_id,
                            session=self.session, seq=0, payload=payload,
                            qos=qos, publish_time=self.sim.now,
                            via=tuple(via), type_refs=tuple(type_refs))
        if qos is QoS.GUARANTEED:
            # logged before the first transmission attempt, per the
            # paper — which is also why a full queue can safely defer
            envelope.ledger_id = self._gpub.record(subject, client_id,
                                                   payload)
        admission = self._outbound.offer(
            envelope, no_shed=(qos is QoS.GUARANTEED))
        if admission is not Admission.ACCEPTED:
            return PublishReceipt(admission, len(payload))
        self._sender.stamp(envelope)
        self._published.value += 1
        if self.tracer:
            self.tracer.emit(self.sim.now, "publish", subject=subject,
                             seq=envelope.seq, size=len(payload))
        self._deliver_local(envelope)
        self._pump_outbound()
        return PublishReceipt(Admission.ACCEPTED, len(payload), envelope)

    def flush(self) -> None:
        """Force out any batched messages (respects wire pacing)."""
        self._pump_outbound()
        self._batcher.flush()

    def _republish_guaranteed(self, entry: LedgerEntry) -> None:
        if not self.up:
            return
        envelope = Envelope(**entry.record, session=self.session, seq=0,
                            qos=QoS.GUARANTEED, ledger_id=entry.ledger_id,
                            publish_time=self.sim.now)
        if self._outbound.offer(envelope, no_shed=True) \
                is not Admission.ACCEPTED:
            return   # still congested; the ledger timer tries again
        self._sender.stamp(envelope)
        self._deliver_local(envelope)
        self._pump_outbound()

    # ------------------------------------------------------------------
    # outbound pump (admission queue -> batcher -> wire)
    # ------------------------------------------------------------------
    def _outbound_evicted(self, envelope: Envelope) -> None:
        """A stamped envelope was shed from the outbound queue
        (drop-oldest): purge it from retention so NACKs cannot
        resurrect what flow control decided to drop."""
        self._sender.forget(envelope.seq)

    def _pump_outbound(self) -> None:
        """Move admitted envelopes into the batching stage.

        Without pacing (``flow.max_send_backlog is None``) this drains
        synchronously — publish behaves exactly as it did before the
        flow-control layer.  With pacing, the pump stops once the host's
        send pipeline is ``max_send_backlog`` seconds ahead of simulated
        time and reschedules itself for when the backlog clears, which
        is what lets the queue fill and admission push back upstream.
        """
        if self._pumping:
            return   # re-entrant publish from a delivery callback
        backlog_cap = self.config.flow.max_send_backlog
        self._pumping = True
        try:
            while self._outbound:
                if backlog_cap is not None:
                    backlog = self.host.send_backlog_for(self.shard)
                    if backlog >= backlog_cap:
                        if self._pump_event is None:
                            self._pump_event = self.sim.schedule(
                                backlog - backlog_cap + 1e-9,
                                self._pump_fire, name="flow.pump")
                        return
                self._batcher.add(self._outbound.take())
        finally:
            self._pumping = False

    def _pump_fire(self) -> None:
        self._pump_event = None
        if self.up:
            self._pump_outbound()

    def _send_batch(self, envelopes: List[Envelope]) -> None:
        if not self.up:
            return
        packet = Packet(PacketKind.DATA, self.session, envelopes,
                        session_start=self.session_started)
        # one encoding per fan-out: the broadcast medium carries these
        # bytes to every consumer, so publisher cost is independent of
        # the consumer count (the paper's headline claim)
        self._socket.broadcast(encode_packet(packet, self._table),
                               self._port)

    def _send_heartbeat(self) -> None:
        if not self.up or self._sender.last_seq == 0:
            return
        packet = Packet(PacketKind.HEARTBEAT, self.session,
                        last_seq=self._sender.last_seq,
                        session_start=self.session_started)
        self._socket.broadcast(encode_packet(packet), self._port)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, size: int, src: Endpoint) -> None:
        try:
            packet = decode_packet(data, self._peer_tables)
        except UnresolvedIds as err:
            # CRC-valid but referencing dictionary ids we never learned
            # (the defining frame was lost): drop it like a gap, but
            # *arm the repair* — the self-contained RETRANS will resolve
            self._unresolved_dropped.value += 1
            if self.tracer:
                self.tracer.emit(self.sim.now, "wire.unresolved",
                                 session=err.session,
                                 first=err.first_seq, last=err.last_seq)
            self._receiver.note_undecodable(
                err.session, err.first_seq, err.last_seq,
                session_start=err.session_start)
            return
        except CorruptFrame:
            # a corrupted frame is indistinguishable from loss; the
            # NACK/heartbeat machinery repairs the gap
            self._corrupt_dropped.value += 1
            return
        if packet.kind is PacketKind.DATA:
            for envelope in packet.envelopes:
                self._receiver.handle_envelope(
                    envelope, session_start=packet.session_start)
        elif packet.kind is PacketKind.RETRANS:
            for envelope in packet.envelopes:
                self._receiver.handle_envelope(
                    envelope, retransmitted=True,
                    session_start=packet.session_start)
        elif packet.kind is PacketKind.HEARTBEAT:
            self._receiver.handle_heartbeat(packet.session, packet.last_seq,
                                            packet.session_start)
        elif packet.kind is PacketKind.NACK:
            self._serve_nack(packet, src)
        elif packet.kind is PacketKind.ACK:
            self._gpub.handle_ack(packet.ack_ledger_id, packet.ack_consumer)

    def _serve_nack(self, packet: Packet, src: Endpoint) -> None:
        if packet.session != self.session or packet.nack_range is None:
            return
        first, last = packet.nack_range
        repairs = self._sender.repair(first, last)
        if not repairs:
            return
        if self.tracer:
            self.tracer.emit(self.sim.now, "retransmit", first=first,
                             last=last, count=len(repairs))
        # the repair defines every dictionary id it references, so the
        # requester decodes it even if it missed the defining DATA frame
        reply = Packet(PacketKind.RETRANS, self.session, repairs,
                       session_start=self.session_started)
        self._socket.sendto(encode_packet(reply, self._table),
                            src[0], self._port)

    def _send_nack(self, session: str, first: int, last: int) -> None:
        if not self.up:
            return
        target_host = session.split("#", 1)[0]
        packet = Packet(PacketKind.NACK, session, nack_range=(first, last))
        if self.tracer:
            self.tracer.emit(self.sim.now, "nack", session=session,
                             first=first, last=last)
        self._socket.sendto(encode_packet(packet), target_host, self._port)

    # ------------------------------------------------------------------
    # delivery to applications
    # ------------------------------------------------------------------
    def _deliver_local(self, envelope: Envelope) -> None:
        """Same-host subscribers see their host's own publications."""
        self._dispatch(envelope, retransmitted=False)

    def _deliver_remote(self, envelope: Envelope, retransmitted: bool) -> None:
        self._dispatch(envelope, retransmitted)

    def _dispatch(self, envelope: Envelope, retransmitted: bool) -> None:
        if not self.up:
            return
        clients = self._subscriptions.match(envelope.subject)
        if envelope.ledger_id is not None:
            self._dispatch_guaranteed(envelope, clients, retransmitted)
            return
        for client in clients:
            self._lane_offer(client, envelope, retransmitted)

    def _lane_offer(self, client: "BusClient", envelope: Envelope,
                    retransmitted: bool) -> Admission:
        """Hand one envelope to one application through its lane."""
        lane = self._lanes.get(client.name)
        if lane is None or (lane.service_time <= 0.0 and not lane.queue):
            # instant consumer: the historical synchronous fast path
            if lane is not None:
                lane.queue.pass_through()
            if envelope.seq:   # seq-0 = telemetry; never self-counted
                self._delivered.value += 1
            client._deliver(envelope, retransmitted)
            return Admission.ACCEPTED
        admission = lane.queue.offer(
            (envelope, retransmitted),
            no_shed=(envelope.ledger_id is not None))
        if admission is Admission.ACCEPTED and lane.drain_event is None:
            self._arm_lane(client.name, lane)
        return admission

    def _arm_lane(self, name: str, lane: _DeliveryLane) -> None:
        lane.drain_event = self.sim.schedule(
            lane.service_time, self._lane_drain, name, name="flow.deliver")

    def _lane_drain(self, name: str) -> None:
        lane = self._lanes.get(name)
        if lane is None:
            return
        lane.drain_event = None
        if not self.up or not lane.queue:
            return
        envelope, retransmitted = lane.queue.take()
        client = self.clients.get(name)
        if client is not None:
            if envelope.seq:   # seq-0 = telemetry; never self-counted
                self._delivered.value += 1
            client._deliver(envelope, retransmitted)
        if lane.queue and lane.drain_event is None:
            self._arm_lane(name, lane)

    def _lanes_have_room(self, clients: Set) -> bool:
        for client in clients:
            lane = self._lanes.get(client.name)
            if lane is None:
                continue
            if (lane.service_time > 0.0 or lane.queue) and lane.queue.full:
                return False
        return True

    def _defer_guaranteed(self, envelope: Envelope) -> None:
        self._guaranteed_deferred.value += 1
        if self.tracer:
            self.tracer.emit(self.sim.now, "flow.defer", queue="deliver",
                             ledger_id=envelope.ledger_id,
                             subject=envelope.subject)

    def _dispatch_guaranteed(self, envelope: Envelope, clients: Set,
                             retransmitted: bool) -> None:
        """Guaranteed messages: dedupe by ledger id, ack on durable receipt.

        The lane-room check runs *before* the delivery dedupe is consumed
        and before any ack: a guaranteed message facing a full lane is
        deferred whole — the publisher's ledger keeps retransmitting until
        every target application has room, so guaranteed QoS is never shed.
        """
        durable_clients = self._durable.match(envelope.subject)
        if durable_clients:
            if not self._lanes_have_room(clients):
                self._defer_guaranteed(envelope)   # withholds the ack too
                return
            if self._gcon.first_delivery(envelope.ledger_id):
                for client in clients:
                    self._lane_offer(client, envelope, retransmitted)
            self._send_ack(envelope)   # (re-)ack even on duplicates
            return
        # no durable subscriber here: deliver once to regular subscribers
        if envelope.ledger_id in self._seen_ledgers:
            return
        if not self._lanes_have_room(clients):
            self._defer_guaranteed(envelope)
            return
        if clients:
            self._seen_ledgers[envelope.ledger_id] = None
            while len(self._seen_ledgers) > self.config.seen_ledger_cap:
                self._seen_ledgers.popitem(last=False)
        for client in clients:
            self._lane_offer(client, envelope, retransmitted)

    def _send_ack(self, envelope: Envelope) -> None:
        origin_host = envelope.ledger_id.split("/", 1)[0]
        self._acks_sent.value += 1
        packet = Packet(PacketKind.ACK, self.session,
                        ack_ledger_id=envelope.ledger_id,
                        ack_consumer=self.host.address)
        if origin_host == self.host.address:
            # local durable consumer: ack without touching the wire
            self._gpub.handle_ack(envelope.ledger_id, self.host.address)
            return
        self._socket.sendto(encode_packet(packet), origin_host, self._port)

    # ------------------------------------------------------------------
    # telemetry plane (reserved ``_bus.stat.*`` subjects)
    # ------------------------------------------------------------------
    def publish_stats(self, snapshot: Dict[str, Any]) -> None:
        """Publish one registry snapshot on ``_bus.stat.<host>.daemon``.

        Snapshots are self-describing data objects (the
        :mod:`repro.objects` marshalling), exactly as the paper's
        system-management tools expect: any subscriber can decode them
        with no out-of-band schema.
        """
        if not self.up:
            return
        record = {"host": self.host.address,
                  "time": self.sim.now,
                  "interval": self.config.stat_interval,
                  "metrics": snapshot}
        subject = f"{STAT_SUBJECT_PREFIX}.{self.host.address}.daemon"
        if self.shard_count > 1:
            # shard planes are separate snapshot sources: an extra
            # subject element keeps them distinct for aggregators, and
            # the payload says which plane this is
            record["shard"] = self.shard
            subject = f"{subject}.s{self.shard}"
        payload = encode(record)
        self.publish_stat_bytes(subject, payload)

    def publish_stat_bytes(self, subject: str, payload: bytes,
                           via: tuple = ()) -> None:
        """Broadcast a telemetry envelope outside the data plane.

        Stat envelopes are *unsequenced* (``seq == 0``): they bypass the
        reliable protocol entirely, so they never consume data-plane
        sequence numbers, never trigger NACKs, and are trivially
        identifiable for exclusion from the counters they would perturb.
        They are plain-encoded (no session dictionary) so the data
        plane's dictionary state is untouched, and they queue in a private
        drop-oldest buffer so a congested wire sheds stale snapshots
        instead of amplifying load — the no-echo invariant.
        """
        if not self.up:
            return
        envelope = Envelope(subject=subject, sender=self.session,
                            session=self.session, seq=0, payload=payload,
                            publish_time=self.sim.now, via=tuple(via))
        self._dispatch_stat(envelope)          # local subscribers
        self._stat_queue.offer(envelope)
        self._pump_stats()

    def _pump_stats(self) -> None:
        """Drain the stat queue to the wire, paced like the data pump."""
        backlog_cap = self.config.flow.max_send_backlog
        while self._stat_queue:
            if backlog_cap is not None:
                backlog = self.host.send_backlog_for(self.shard)
                if backlog >= backlog_cap:
                    if self._stat_pump_event is None:
                        self._stat_pump_event = self.sim.schedule(
                            backlog - backlog_cap + 1e-9,
                            self._stat_pump_fire, name="stat.pump")
                    return
            envelope = self._stat_queue.take()
            packet = Packet(PacketKind.DATA, self.session, [envelope],
                            session_start=self.session_started)
            # plain encoding: stat frames never touch the dictionary
            self._stat_socket.broadcast(encode_packet(packet),
                                        self._stat_port)

    def _stat_pump_fire(self) -> None:
        self._stat_pump_event = None
        if self.up:
            self._pump_stats()

    def _on_stat_datagram(self, data: bytes, size: int,
                          src: Endpoint) -> None:
        try:
            packet = decode_packet(data)
        except CorruptFrame:
            return   # telemetry is best-effort: no counter, no repair
        if packet.kind is not PacketKind.DATA:
            return
        if packet.session == self.session:
            return   # our own broadcast echoed back
        for envelope in packet.envelopes:
            self._dispatch_stat(envelope)

    def _dispatch_stat(self, envelope: Envelope) -> None:
        """Deliver a stat envelope to local ``_bus.*`` subscribers.

        Rides the ordinary delivery lanes (so a slow browser backlogs
        and sheds like any application) but skips the reliable receive
        protocol — stat envelopes carry no sequence numbers to order.
        """
        if not self.up:
            return
        for client in self._subscriptions.match(envelope.subject):
            self._lane_offer(client, envelope, retransmitted=False)

    # ------------------------------------------------------------------
    # session type plane (see repro.core.typeplane)
    # ------------------------------------------------------------------
    def type_table_for(self, subject: str) -> Optional[TypeTable]:
        """The sender-side type table a publish on ``subject`` rides
        (None with the type plane off).

        On an unsharded daemon this is the one session table; the
        :class:`~repro.core.sharding.ShardedDaemon` override routes to
        the owning shard's table so typed payloads reference ids the
        carrying plane actually defines.
        """
        return self._type_table

    def type_resolver(self, session: str):
        """The resolver clients use to decode ``O``-tagged payloads from
        ``session``: a cached :class:`PeerTypeView` over that session's
        dictionary entries — this daemon's own for loop-back deliveries,
        the ones learned from the peer's frames otherwise.  ``None``
        when the session is unknown (a typed payload then fails decode
        with ``UnknownTypeError`` — counted by the client, never a
        crash).
        """
        view = self._type_views.get(session)
        if view is None:
            if session == self.session and self._table is not None:
                raw = self._table.entries
            else:
                raw = self._peer_tables.get(session)
                if raw is None:
                    return None
            view = self._type_views[session] = PeerTypeView(raw)
        return view

    # ------------------------------------------------------------------
    # introspection helpers (tests, benches, routers)
    # ------------------------------------------------------------------
    def reliable_stats(self, session: str):
        return self._receiver.stats(session)

    def flow_stats(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot every flow-control queue this daemon owns."""
        stats = {"outbound": self._outbound.stats.snapshot(),
                 "batch": self._batcher.queue.stats.snapshot()}
        for name, lane in self._lanes.items():
            stats[f"deliver[{name}]"] = lane.queue.stats.snapshot()
        return stats

    def wire_stats(self) -> Dict[str, Any]:
        """Wire state: session-dictionary sizes and unresolvable drops."""
        return {
            "compression": self.config.wire_compression,
            "type_plane": self.config.type_plane,
            "table_entries": (len(self._table)
                              if self._table is not None else 0),
            "peer_sessions": len(self._peer_tables),
            "peer_entries": sum(len(t) for t in self._peer_tables.values()),
            "unresolved_dropped": self.unresolved_dropped,
        }

    def shard_stats(self) -> List[Dict[str, Any]]:
        """This daemon's shard-plane placement and per-plane load.

        One row per shard plane; the classic unsharded daemon is plane
        0 of 1.  The :class:`~repro.core.sharding.ShardedDaemon`
        facade concatenates its members' rows, so callers see the same
        shape either way.
        """
        return [{
            "shard": self.shard,
            "shards": self.shard_count,
            "session": self.session,
            "port": self._port,
            "stat_port": self._stat_port,
            "published": self.published,
            "delivered": self.delivered,
            "subscriptions": len(self._subscriptions),
        }]

    def guaranteed_pending(self) -> List[LedgerEntry]:
        return self._gpub.ledger.pending()

    def sender_retransmissions(self) -> int:
        return self._sender.retransmissions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BusDaemon {self.session} clients={len(self.clients)}>"
