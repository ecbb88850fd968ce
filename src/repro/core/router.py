"""Information routers: bridging buses across wide-area links (Section 3.1).

    "Our implementation uses application-level 'information routers' ...
    To the Information Bus, these routers look like ordinary applications,
    but they actually integrate multiple instances of the bus.  Messages
    are received by one router using a subscription, transmitted to
    another router, and then re-published on another bus.  The router is
    intelligent about which messages are sent to which routers: messages
    are only re-published on buses for which there exists a subscription
    on that subject; the router can also perform other functions, such as
    transforming subjects or logging messages to non-volatile storage."

A :class:`Router` has one :class:`RouterLeg` per bus.  Each leg is an
ordinary bus client.  Legs learn their bus's subscription table from the
daemons' ``_sub.advert`` broadcasts and ship pattern updates to the other
legs over the WAN; a leg subscribes locally to exactly the patterns the
*other* sides want, and forwards matching traffic across the
:class:`WanLink` to be re-published — creating "the illusion of a single,
large bus".

Because a leg is an ordinary client, its forwarding patterns live in its
host daemon's subscription trie, so the daemon's ordinary subject match
(the "Receive path" in docs/PROTOCOLS.md) is the forwarding decision:
an envelope no remote bus wants never reaches the leg.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..objects import decode, encode, standard_registry
from ..sim.kernel import PeriodicTimer, Simulator
from ..sim.trace import Tracer
from .bus import InformationBus
from .client import BusClient, Subscription
from .daemon import ADVERT_SUBJECT, STAT_SUBJECT_PREFIX
from .flow import Admission, BoundedQueue, POLICY_BLOCK
from .guaranteed import GuaranteedConsumer, LedgerEntry, StableLedger
from .message import MessageInfo, QoS
from .metrics import Counter, MetricsPublisher, MetricsRegistry
from .subjects import subject_matches

__all__ = ["Router", "RouterLeg", "WanLink"]

#: Router clients are named so legs can recognize (and not re-forward)
#: each other's re-publications.
ROUTER_CLIENT_NAME = "_router"

#: Link-layer overhead the WAN pipe adds per transfer (headers, framing)
#: on top of the measured payload bytes — the wide-area analogue of
#: :attr:`~repro.sim.network.CostModel.frame_overhead`.
_WAN_OVERHEAD = 32


@dataclass
class WanLink:
    """A point-to-point wide-area link between two router legs.

    Models latency plus serialization through a bounded-bandwidth pipe,
    with independent capacity per direction.  Each direction is a bounded
    store-and-forward queue from the shared flow-control layer
    (:mod:`repro.core.flow`): a saturated pipe fills its queue and
    :meth:`send` starts returning a non-accepted admission — backpressure
    on the router leg — instead of queueing unboundedly or dropping
    invisibly.
    """

    latency: float = 0.03                      # 30 ms coast-to-coast
    bandwidth_bytes_per_sec: float = 1_500_000 / 8   # a T1-and-a-bit
    #: per-direction store-and-forward queue bound (messages)
    queue_capacity: int = 512
    #: what happens to reliable traffic at a full queue; guaranteed and
    #: control-plane traffic is always ``no_shed`` (deferred, retried)
    overflow_policy: str = POLICY_BLOCK

    def __post_init__(self) -> None:
        self._busy_until: Dict[Tuple[str, str], float] = {}
        self._queues: Dict[Tuple[str, str], BoundedQueue] = {}
        self._transferring: set = set()
        self._sim: Optional[Simulator] = None
        self._down = False
        #: messages lost to a down link (plus any caught mid-transfer) —
        #: a detached instrument until a router adopts it (attach_metrics)
        self._messages_dropped = Counter("wan.messages_dropped")
        self._metrics: Optional[MetricsRegistry] = None
        #: set by the router when it learns a bus's tracer, so queue
        #: sheds surface as ``flow.drop`` events
        self.tracer: Optional[Tracer] = None

    @property
    def messages_dropped(self) -> int:
        return self._messages_dropped.value

    def attach_metrics(self, registry) -> None:
        """Adopt this link's instruments into ``registry`` (a
        :class:`~repro.core.metrics.MetricsRegistry` or a scope view).

        A :class:`WanLink` can be built standalone (before any router
        exists), so its counter starts detached; the owning router
        registers it — and future per-direction queues pick up the same
        registry for their flow instruments (``flow.wan[a->b].*``).
        """
        registry.register("wan.messages_dropped", self._messages_dropped)
        self._metrics = registry

    @property
    def down(self) -> bool:
        return self._down

    def fail(self) -> None:
        """Take the link down: traffic handed to it is lost (it is a
        datagram pipe — durability is the store-and-forward layer's job).
        Queued transfers are lost with it, counted as drops."""
        self._down = True
        for key, queue in self._queues.items():
            lost = queue.clear()
            if lost:
                self._messages_dropped.value += lost
                if self.tracer and self._sim is not None:
                    self.tracer.emit(self._sim.now, "flow.drop",
                                     queue=f"wan[{key[0]}->{key[1]}]",
                                     reason="link-down", count=lost)

    def restore(self) -> None:
        self._down = False

    def transfer_time(self, size: int) -> float:
        return (size + _WAN_OVERHEAD) / self.bandwidth_bytes_per_sec

    def _queue(self, sim: Simulator, key: Tuple[str, str]) -> BoundedQueue:
        self._sim = sim
        queue = self._queues.get(key)
        if queue is None:
            queue = BoundedQueue(
                f"wan[{key[0]}->{key[1]}]", self.queue_capacity,
                self.overflow_policy, tracer=self.tracer,
                now=lambda: sim.now, metrics=self._metrics)
            self._queues[key] = queue
        return queue

    def send(self, sim: Simulator, from_leg: str, to_leg: str, size: int,
             deliver: Callable[[], None], *,
             no_shed: bool = False) -> Admission:
        """Queue one transfer; ``deliver`` fires after store-and-forward
        queueing + serialization + latency.

        A down link drops (counted and traced; callers needing
        reliability retry — see the store-and-forward machinery in
        :class:`RouterLeg`).  A full direction sheds per
        :attr:`overflow_policy` — except ``no_shed`` traffic, which is
        deferred back to the caller to retry.
        """
        if self._down:
            self._messages_dropped.value += 1
            if self.tracer:
                self.tracer.emit(sim.now, "flow.drop",
                                 queue=f"wan[{from_leg}->{to_leg}]",
                                 reason="link-down", size=size)
            return Admission.DROPPED
        key = (from_leg, to_leg)
        admission = self._queue(sim, key).offer((size, deliver),
                                                no_shed=no_shed)
        if admission is Admission.ACCEPTED:
            self._pump(sim, key)
        return admission

    def _pump(self, sim: Simulator, key: Tuple[str, str]) -> None:
        """Serialize queued transfers one at a time per direction."""
        if key in self._transferring:
            return
        queue = self._queues[key]
        if not queue:
            return
        size, deliver = queue.take()
        self._transferring.add(key)
        start = max(sim.now, self._busy_until.get(key, 0.0))
        done = start + self.transfer_time(size)
        self._busy_until[key] = done
        sim.schedule(done - sim.now, self._transfer_done, sim, key, deliver,
                     name="wan.transfer")

    def _transfer_done(self, sim: Simulator, key: Tuple[str, str],
                       deliver: Callable[[], None]) -> None:
        self._transferring.discard(key)
        if self._down:
            # the link died mid-transfer: this message is on the floor
            self._messages_dropped.value += 1
            if self.tracer:
                self.tracer.emit(sim.now, "flow.drop",
                                 queue=f"wan[{key[0]}->{key[1]}]",
                                 reason="link-down")
        else:
            sim.schedule(self.latency, deliver, name="wan.deliver")
        self._pump(sim, key)

    def link_stats(self) -> Dict[str, Any]:
        """Per-direction flow stats plus the link-level drop counter.

        (Renamed from the ambiguous ``stats()``, which collided with
        :meth:`Router.leg_stats` in every discussion of "router stats".)
        """
        out: Dict[str, Any] = {"messages_dropped": self.messages_dropped}
        for key, queue in self._queues.items():
            out[f"{key[0]}->{key[1]}"] = queue.stats.snapshot()
        return out


class RouterLeg:
    """One router foot on one bus."""

    def __init__(self, router: "Router", bus: InformationBus,
                 host_address: str,
                 transform: Optional[Callable[[str], str]] = None,
                 log_traffic: bool = False):
        self.router = router
        self.bus = bus
        self.name = f"{bus.name}:{host_address}"
        self.transform = transform
        self.log_traffic = log_traffic
        self.tracer = bus.tracer
        self.host = bus.add_host(host_address)
        # all legs share the router's registry: a type learned from inline
        # metadata on one bus is known when re-publishing on another
        self.client: BusClient = bus.client(host_address, ROUTER_CLIENT_NAME,
                                            registry=router.registry)
        # what each local daemon currently wants, per host
        self._local_wants: Dict[str, Set[str]] = {}
        # forwarding subscriptions installed for remote legs' wants:
        # pattern -> (subscription, set of interested remote leg names)
        self._forwarding: Dict[str, Tuple[Subscription, Set[str]]] = {}
        # dedupe of forwarded messages (a message can match two patterns)
        self._recent: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        scope = router.metrics.scope(f"router.{router.name}.leg.{self.name}")
        self._messages_forwarded = scope.counter("forwarded")
        self._messages_republished = scope.counter("republished")
        #: forwards pushed back by a full WAN queue (block / no_shed)
        self._forwards_deferred = scope.counter("deferred")
        #: forwards shed by the WAN queue's drop policy or a down link
        self._forwards_shed = scope.counter("shed")
        #: store-and-forward: the origin side's shipment ledger and the
        #: target side's durable dedupe of shipment ids
        self._sf_ledger = StableLedger(self.host.stable, "router.sf.ledger",
                                       f"{self.name}/")
        self._sf_seen = GuaranteedConsumer(self.host, log="router.sf.received")
        self._sf_timer = None
        self.host.on_recover(self._on_host_recover)
        self.client.subscribe(ADVERT_SUBJECT, self._on_advert)
        if router.bridge_stats:
            # bridge the telemetry plane too: snapshots published on one
            # segment become visible to browsers on the other
            self.client.subscribe(f"{STAT_SUBJECT_PREFIX}.>", self._on_stat)

    # ------------------------------------------------------------------
    # counter views (ints, the historical attribute surface)
    # ------------------------------------------------------------------
    @property
    def messages_forwarded(self) -> int:
        return self._messages_forwarded.value

    @property
    def messages_republished(self) -> int:
        return self._messages_republished.value

    @property
    def forwards_deferred(self) -> int:
        return self._forwards_deferred.value

    @property
    def forwards_shed(self) -> int:
        return self._forwards_shed.value

    # ------------------------------------------------------------------
    # learning the local subscription table
    # ------------------------------------------------------------------
    def _on_advert(self, subject: str, payload: Any, _info) -> None:
        if not isinstance(payload, dict):
            return
        host = payload.get("host")
        if host == self.host.address:
            return   # our own forwarding subscriptions are not local wants
        action = payload.get("action")
        patterns = payload.get("patterns", [])
        wants = self._local_wants.setdefault(host, set())
        before = self._all_local_wants()
        if action == "snapshot":
            wants.clear()
            wants.update(patterns)
        elif action == "add":
            wants.update(patterns)
        elif action == "remove":
            wants.difference_update(patterns)
        after = self._all_local_wants()
        added = after - before
        removed = before - after
        if added:
            self.router._local_wants_changed(self, "add", sorted(added))
        if removed:
            self.router._local_wants_changed(self, "remove", sorted(removed))

    def _all_local_wants(self) -> Set[str]:
        out: Set[str] = set()
        for wants in self._local_wants.values():
            out |= wants
        return out

    # ------------------------------------------------------------------
    # forwarding subscriptions for remote legs
    # ------------------------------------------------------------------
    def remote_wants(self, leg_name: str, action: str,
                     patterns: List[str]) -> None:
        """A remote leg's bus gained/lost interest in ``patterns``."""
        for pattern in patterns:
            entry = self._forwarding.get(pattern)
            if action == "add":
                if entry is None:
                    # with store-and-forward on, the subscription is
                    # durable: the local daemon's guaranteed-delivery ack
                    # fires only after _forward has stably logged the
                    # message — ack implies it will cross the WAN
                    subscription = self.client.subscribe(
                        pattern, self._forward,
                        durable=self.router.store_and_forward)
                    self._forwarding[pattern] = (subscription, {leg_name})
                else:
                    entry[1].add(leg_name)
            elif entry is not None:
                entry[1].discard(leg_name)
                if not entry[1]:
                    self.client.unsubscribe(entry[0])
                    del self._forwarding[pattern]

    def _forward(self, subject: str, obj: Any, info: MessageInfo) -> None:
        if self.router.name in info.via:
            # this message already traversed THIS router (a sibling leg
            # re-published it, or it looped around a cyclic topology):
            # forwarding again would duplicate or loop.  Messages from
            # *other* routers are forwarded normally — that is what makes
            # multi-hop chains (A -router1- B -router2- C) work.
            return
        key = (info.session, info.seq)
        if key in self._recent:
            return   # already forwarded (matched another pattern too)
        self._recent[key] = None
        while len(self._recent) > 4096:
            self._recent.popitem(last=False)
        targets = self._interested_legs(subject)
        if self.log_traffic:
            self.host.stable.append("router.log", {
                "time": self.bus.sim.now, "subject": subject,
                "size": info.size, "targets": sorted(targets)})
        if not targets:
            return
        if self.router.store_and_forward and info.qos is QoS.GUARANTEED:
            self._sf_enqueue(subject, obj, info, targets)
            return
        # marshal once per fan-out; every target leg gets the same bytes.
        # Self-contained on purpose: the payload crosses a WAN link out
        # of the publishing session's scope, so it must not reference
        # session-local type-plane ids.
        data = encode({
            "subject": subject, "via": list(info.via),
            "payload": encode(obj, self.router.registry, inline_types=True),
        })
        if self.tracer:
            self.tracer.emit(self.bus.sim.now, "router.forward", leg=self.name,
                             subject=subject, targets=sorted(targets),
                             size=len(data))
        for leg_name in targets:
            self._messages_forwarded.value += 1
            admission = self.router._ship(self, leg_name, data)
            if admission is Admission.DEFERRED:
                self._forwards_deferred.value += 1
            elif admission is Admission.DROPPED:
                self._forwards_shed.value += 1

    # ------------------------------------------------------------------
    # store-and-forward (guaranteed QoS across the WAN)
    # ------------------------------------------------------------------
    def _sf_enqueue(self, subject: str, obj: Any, info: MessageInfo,
                    targets: Set[str]) -> None:
        """Stably log a guaranteed message, then ship with retry.

        Runs inside the daemon's durable-delivery callback, so the ack
        the original publisher receives means "logged at the router".
        """
        record = {
            "subject": subject,
            # self-contained on purpose: the record outlives this router
            # process (replayed after restart), beyond any session scope
            "wire": encode(obj, self.router.registry, inline_types=True),
            "via": list(info.via), "targets": sorted(targets),
        }
        sf_id = self._sf_ledger.add(record)
        self._messages_forwarded.value += len(targets)
        self._sf_ship(LedgerEntry(sf_id, record))
        self._sf_arm_timer()

    def _sf_ship(self, entry: LedgerEntry) -> None:
        # the shipped bytes carry everything the target needs; the
        # target list and its acks are origin-side bookkeeping
        record = entry.record
        data = encode({"sf_id": entry.ledger_id, "subject": record["subject"],
                       "wire": record["wire"], "via": record["via"]})
        for leg_name in record["targets"]:
            if leg_name not in entry.acks:
                self.router._ship_sf(self, leg_name, data,
                                     RouterLeg._sf_receive)

    def _sf_receive(self, origin_name: str, data: bytes) -> None:
        """Target side: dedupe durably, republish as guaranteed, ack."""
        if not self.client.daemon.up:
            return   # origin keeps retrying until we are back
        record = decode(data, self.router.registry)
        if self._sf_seen.first_delivery(record["sf_id"]):
            obj = decode(record["wire"], self.router.registry)
            out_subject = (self.transform(record["subject"])
                           if self.transform else record["subject"])
            self._messages_republished.value += 1
            self.client.publish(
                out_subject, obj, qos=QoS.GUARANTEED,
                via=tuple(record["via"]) + (self.router.name,))
        self.router._ship_sf(
            self, origin_name,
            encode({"sf_id": record["sf_id"], "target": self.name}),
            RouterLeg._sf_acked)

    def _sf_acked(self, target_name: str, data: bytes) -> None:
        """Origin side: a target confirmed stable receipt."""
        sf_id = decode(data, self.router.registry)["sf_id"]
        entry = self._sf_ledger.ack(sf_id, target_name)
        if entry and set(entry.record["targets"]) <= set(entry.acks):
            self._sf_ledger.retire(sf_id)

    def sf_pending(self) -> int:
        """Shipments not yet confirmed by every target (tests/benches)."""
        return len(self._sf_ledger.pending())

    def _sf_arm_timer(self) -> None:
        if self._sf_timer is None or self._sf_timer.stopped:
            self._sf_timer = PeriodicTimer(
                self.bus.sim, self.router.sf_retry_interval,
                self._sf_retry, name="router.sf.retry")

    def _sf_retry(self) -> None:
        if not self.client.daemon.up:
            return
        pending = self._sf_ledger.pending()
        if not pending:
            self._sf_timer.stop()
            return
        for entry in pending:
            self._sf_ship(entry)

    def _on_host_recover(self) -> None:
        """Replay the stable logs a restarted router process would read,
        and resume shipping anything the crash left pending."""
        self._sf_ledger.reload()
        self._sf_seen = GuaranteedConsumer(self.host, log="router.sf.received")
        if self._sf_ledger.pending():
            self._sf_arm_timer()

    def _interested_legs(self, subject: str) -> Set[str]:
        out: Set[str] = set()
        for pattern, (_sub, legs) in self._forwarding.items():
            if subject_matches(pattern, subject):
                out |= legs
        return out

    def _wan_receive(self, data: bytes) -> None:
        """Final hop: decode the WAN bytes and republish on this bus."""
        msg = decode(data, self.router.registry)
        obj = decode(msg["payload"], self.router.registry)
        self.republish(msg["subject"], obj, tuple(msg["via"]))

    # ------------------------------------------------------------------
    # telemetry bridging (``bridge_stats=True``)
    # ------------------------------------------------------------------
    def _on_stat(self, subject: str, payload: Any, info: MessageInfo) -> None:
        """A ``_bus.stat.*`` snapshot surfaced on this leg's segment."""
        if self.router.name in info.via:
            return   # already traversed this router: never loop telemetry
        self.router._ship_stat(self, subject, payload, info.via)

    def _stat_receive(self, data: bytes) -> None:
        """Target side: re-broadcast a bridged snapshot on this segment.

        Stat traffic stays outside the data plane end to end — it leaves
        through the daemon's unsequenced stat path, not an ordinary
        publish, so bridged telemetry is droppable and uncounted exactly
        like locally produced telemetry.
        """
        if not self.client.daemon.up:
            return
        msg = decode(data, self.router.registry)
        self.client.daemon.publish_stat_bytes(
            msg["subject"], msg["payload"],
            via=tuple(msg["via"]) + (self.router.name,))

    def _wants_receive(self, data: bytes) -> None:
        msg = decode(data, self.router.registry)
        self.remote_wants(msg["origin"], msg["action"], msg["patterns"])

    def republish(self, subject: str, obj: Any,
                  via: tuple = ()) -> None:
        """Put a forwarded message onto this leg's bus.

        The re-publication is stamped with every router it has
        traversed, including this one — the loop/duplicate guard for
        arbitrary topologies.  Because this goes through an ordinary
        ``client.publish``, the egress daemon stamps a fresh envelope
        under its *own* session and re-encodes it against its own
        session dictionary (:mod:`repro.core.wire`) — the extended ``via``
        tuple and any transformed subject get their own table ids, so
        forwarded frames never leak another bus's table state.
        """
        if not self.client.daemon.up:
            return
        out_subject = self.transform(subject) if self.transform else subject
        self._messages_republished.value += 1
        if self.tracer:
            self.tracer.emit(self.bus.sim.now, "router.republish",
                             leg=self.name, subject=out_subject)
        self.client.publish(out_subject, obj,
                            via=tuple(via) + (self.router.name,))


class Router:
    """An application-level bridge between two or more buses.

    All buses must share one :class:`~repro.sim.kernel.Simulator` (pass
    ``sim=`` when constructing them).  Legs are fully meshed over
    ``link``.
    """

    def __init__(self, name: str = "router",
                 link: Optional[WanLink] = None,
                 store_and_forward: bool = False,
                 sf_retry_interval: float = 0.5,
                 stat_interval: float = 0.0,
                 bridge_stats: bool = False):
        self.name = name
        self.link = link or WanLink()
        #: with store-and-forward, guaranteed-QoS messages are stably
        #: logged at the ingress leg (whose durable subscription acks the
        #: original publisher) and shipped with retries until the egress
        #: leg durably confirms — guaranteed delivery across the WAN,
        #: surviving link failures and router crashes.  The paper's
        #: "logging messages to non-volatile storage" router function.
        self.store_and_forward = store_and_forward
        self.sf_retry_interval = sf_retry_interval
        #: seconds between router-registry snapshots published on
        #: ``_bus.stat.<router>.router`` (on every leg); 0 disables
        self.stat_interval = stat_interval
        #: forward ``_bus.stat.*`` snapshots between segments so a
        #: browser on one bus aggregates the whole federation
        self.bridge_stats = bridge_stats
        self.legs: Dict[str, RouterLeg] = {}
        self.registry = standard_registry()
        #: per-leg forwarding counters and the WAN link's instruments
        self.metrics = MetricsRegistry()
        self.link.attach_metrics(self.metrics.scope(f"router.{self.name}"))
        self._stat_publisher: Optional[MetricsPublisher] = None
        self._sim: Optional[Simulator] = None

    def add_leg(self, bus: InformationBus, host_address: Optional[str] = None,
                transform: Optional[Callable[[str], str]] = None,
                log_traffic: bool = False) -> RouterLeg:
        if self._sim is None:
            self._sim = bus.sim
        elif bus.sim is not self._sim:
            raise ValueError("all legs must share one Simulator")
        if not self.link.tracer:
            self.link.tracer = bus.tracer
        address = host_address or f"{self.name}-{bus.name}"
        leg = RouterLeg(self, bus, address, transform, log_traffic)
        self.legs[leg.name] = leg
        if self.stat_interval > 0 and self._stat_publisher is None:
            self._stat_publisher = MetricsPublisher(
                self._sim, self.metrics, self._publish_stats,
                self.stat_interval, name="router.stat")
        return leg

    # ------------------------------------------------------------------
    # inter-leg control and data planes (over the WAN link)
    # ------------------------------------------------------------------
    def _local_wants_changed(self, origin: RouterLeg, action: str,
                             patterns: List[str]) -> None:
        data = encode({"origin": origin.name, "action": action,
                       "patterns": patterns})
        for leg in self.legs.values():
            if leg is origin:
                continue
            # control-plane traffic is never shed by a full queue
            self.link.send(self._sim, origin.name, leg.name, len(data),
                           lambda leg=leg: leg._wants_receive(data),
                           no_shed=True)

    def _ship(self, origin: RouterLeg, target_name: str,
              data: bytes) -> Admission:
        target = self.legs.get(target_name)
        if target is None:
            return Admission.DROPPED
        return self.link.send(self._sim, origin.name, target_name,
                              len(data),
                              lambda: target._wan_receive(data))

    def _ship_sf(self, origin: RouterLeg, target_name: str, data: bytes,
                 arrive: Callable[[RouterLeg, str, bytes], None]) -> None:
        """Ship a store-and-forward shipment or ack: ``arrive(target,
        origin name, data)`` runs at the far end.  Guaranteed traffic:
        deferred at a full queue (the sf retry timer re-ships), never
        shed."""
        target = self.legs.get(target_name)
        if target is not None:
            self.link.send(self._sim, origin.name, target_name, len(data),
                           lambda: arrive(target, origin.name, data),
                           no_shed=True)

    def _publish_stats(self, snapshot: Dict[str, Any]) -> None:
        """Publish the router's registry on every leg's segment.

        Stamped ``via=(self.name,)`` so stat-bridging legs recognize it
        as already-traversed and never re-ship it over the WAN (every
        leg got it directly — bridging would only duplicate).
        """
        payload = encode({"host": self.name, "time": self._sim.now,
                          "interval": self.stat_interval,
                          "metrics": snapshot})
        subject = f"{STAT_SUBJECT_PREFIX}.{self.name}.router"
        for leg in self.legs.values():
            leg.client.daemon.publish_stat_bytes(subject, payload,
                                                 via=(self.name,))

    def _ship_stat(self, origin: RouterLeg, subject: str, payload: Any,
                   via: tuple) -> None:
        """Bridge one snapshot to every other leg, droppable like any
        telemetry: a congested WAN sheds stats, never data."""
        data = encode({"subject": subject, "payload": encode(payload),
                       "via": list(via)})
        for leg in self.legs.values():
            if leg is origin:
                continue
            self.link.send(self._sim, origin.name, leg.name, len(data),
                           lambda leg=leg: leg._stat_receive(data))

    def leg_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-leg forwarding counters (renamed from the ambiguous
        ``stats()``, which collided with :meth:`WanLink.link_stats`)."""
        return {name: {"forwarded": leg.messages_forwarded,
                       "republished": leg.messages_republished,
                       "deferred": leg.forwards_deferred,
                       "shed": leg.forwards_shed}
                for name, leg in self.legs.items()}

    def flow_stats(self) -> Dict[str, Any]:
        """The WAN link's per-direction flow-control queue stats."""
        return self.link.link_stats()

    def wire_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-leg wire-compression state of each leg's egress daemon
        (see :meth:`repro.core.daemon.BusDaemon.wire_stats`)."""
        return {name: leg.client.daemon.wire_stats()
                for name, leg in self.legs.items()}
