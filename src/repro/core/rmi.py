"""Remote method invocation (Section 3.3, Figure 2).

    "There are two parts to RMI: discovering the server object for a
    client, and establishing a connection to that server over which
    requests and replies will flow."

Discovery is the pub/sub protocol of Section 3.2 (see
:mod:`repro.core.discovery`); the connection is a point-to-point stream
(:class:`~repro.sim.transport.StreamManager`).  Servers are named with
subjects; "more than one server can respond to requests on a subject":

* ``policy="first"`` — use the first responder (lowest latency wins);
* ``policy="all"`` — "the client can receive every response from all of
  the servers and then decide" via a chooser function (default: least
  loaded);
* exclusive server groups — "the servers can decide among themselves
  which one will respond": group members exchange presence on a bus
  subject and only the current leader answers discovery.

Semantics: exactly-once under normal operation; at-most-once under
failures.  Servers dedupe by request id (a retried request is answered
from the reply cache, never re-executed); a client whose connection dies
mid-call reports the error instead of silently retrying.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..objects import ServiceObject, decode, encode
from ..objects.marshal import MarshalError
from ..sim.kernel import Event, PeriodicTimer
from ..sim.transport import StreamConnection, StreamManager
from .client import BusClient
from .discovery import DiscoveredService, Inquiry, Responder

__all__ = ["ExactlyOnceRmiClient", "RmiClient", "RmiError",
           "RmiServer", "ServerGroup"]

_ports = itertools.count(20000)
_request_ids = itertools.count(1)

#: Reserved subject on which servers announce their existence, so
#: directory tools can "examine the list of available services on the
#: Information Bus" (Section 5.1) without probing every subject.
SERVICE_ADVERT_SUBJECT = "_svc.advert"


class RmiError(Exception):
    """Remote invocation failure (timeout, no servers, remote exception)."""


class ServerGroup:
    """Server-side coordination: members elect who answers discovery.

    Each member publishes presence on ``_rmi.group.<subject>`` every
    ``presence_interval``; the live member with the lowest (rank, id)
    considers itself leader.  Membership expires after three missed
    presence periods, so leadership fails over when the leader crashes.
    """

    def __init__(self, client: BusClient, service_subject: str,
                 member_id: str, rank: int = 0,
                 presence_interval: float = 0.2):
        self.client = client
        self.member_id = member_id
        self.rank = rank
        self.presence_interval = presence_interval
        self._subject = f"_rmi.group.{service_subject}"
        self._peers: Dict[str, Tuple[int, float]] = {}   # id -> (rank, seen)
        self._subscription = client.subscribe(self._subject, self._on_presence)
        self._timer = PeriodicTimer(client.sim, presence_interval,
                                    self._announce, initial_delay=0.0,
                                    name="rmi.presence")

    def _announce(self) -> None:
        if not self.client.daemon.up:
            return   # fail-stop host: a dead member simply goes silent
        self.client.publish(self._subject,
                            {"member": self.member_id, "rank": self.rank})

    def _on_presence(self, subject: str, payload: Any, _info) -> None:
        if isinstance(payload, dict) and "member" in payload:
            self._peers[payload["member"]] = (payload.get("rank", 0),
                                              self.client.sim.now)

    def is_leader(self) -> bool:
        horizon = self.client.sim.now - 3 * self.presence_interval
        live = [(rank, member) for member, (rank, seen)
                in self._peers.items() if seen >= horizon]
        live.append((self.rank, self.member_id))
        return min(live) == (self.rank, self.member_id)

    def stop(self) -> None:
        self._timer.stop()
        self.client.unsubscribe(self._subscription)


class RmiServer:
    """Serves a :class:`~repro.objects.service.ServiceObject` on a subject."""

    def __init__(self, client: BusClient, service_subject: str,
                 service: ServiceObject, rank: int = 0,
                 exclusive: bool = False,
                 load: Optional[Callable[[], float]] = None,
                 durable_replies: bool = False):
        self.client = client
        self.service_subject = service_subject
        self.service = service
        self.rank = rank
        self.port = next(_ports)
        self.calls_served = 0
        #: with durable_replies, the dedupe cache survives crashes, so a
        #: retried request is never re-executed even across a server
        #: restart — the substrate for exactly-once RMI.
        self.durable_replies = durable_replies
        self._reply_log = f"rmi.replies.{service_subject}.{self.port}"
        self._load = load or (lambda: float(self.calls_served))
        self._streams = StreamManager(client.sim, client.host, self.port)
        self._streams.listen(self._on_accept)
        #: request id -> encoded reply bytes, marshalled once and replayed
        #: verbatim for duplicate requests (rebuilt from the reply log,
        #: which only durable_replies writes)
        self._reply_cache: Dict[str, bytes] = dict(
            client.host.stable.read_log(self._reply_log))
        self._group: Optional[ServerGroup] = None
        if exclusive:
            self._group = ServerGroup(client, service_subject, client.id,
                                      rank)
        self._responder = Responder(
            client, service_subject, self._info,
            should_answer=lambda: (self._group is None
                                   or self._group.is_leader()))
        client.host.on_recover(self._on_host_recover)
        self._stopped = False
        self._announce("up")
        self._presence = PeriodicTimer(
            client.sim, 1.0, lambda: self._announce("presence"),
            name="rmi.svc-advert")

    def _announce(self, action: str) -> None:
        if not self.client.daemon.up:
            return
        self.client.publish(SERVICE_ADVERT_SUBJECT, {
            "action": action,
            "service": self.service_subject,
            "server": self.client.id,
            "interface_name": self.service.interface.name,
            "operations": sorted(op.name for op in
                                 self.service.operations()),
        })

    def _on_host_recover(self) -> None:
        """Rebind the point-to-point port and reload the durable cache."""
        if self._stopped:
            return
        self._streams = StreamManager(self.client.sim, self.client.host,
                                      self.port)
        self._streams.listen(self._on_accept)
        if self.durable_replies:
            self._reply_cache = dict(
                self.client.host.stable.read_log(self._reply_log))

    @property
    def endpoint(self) -> Tuple[str, int]:
        return (self.client.host.address, self.port)

    def _info(self) -> Dict[str, Any]:
        return {
            "endpoint": list(self.endpoint),
            "rank": self.rank,
            "load": self._load(),
            "interface": self.service.describe(),
        }

    def stop(self) -> None:
        self._stopped = True
        self._presence.stop()
        if self.client.daemon.up:
            self._announce("down")
        self._responder.stop()
        if self._group is not None:
            self._group.stop()
        self._streams.close()

    # ------------------------------------------------------------------
    def _on_accept(self, conn: StreamConnection) -> None:
        conn.on_message = lambda data, size: self._on_request(conn, data)

    def _on_request(self, conn: StreamConnection, data: bytes) -> None:
        try:
            msg = decode(data, self.service.registry)
        except MarshalError:
            return
        if not isinstance(msg, dict) or msg.get("kind") != "call":
            return
        request_id = msg["request_id"]
        cached = self._reply_cache.get(request_id)
        if cached is not None:
            # duplicate request: at-most-once execution, answer from cache
            conn.send(cached)
            return
        try:
            args = decode(msg["args"], self.service.registry)
            result = self.service.invoke(msg["op"], args)
            # self-contained on purpose: replies are cached and replayed
            # to duplicate requests from *later* sessions, so they must
            # not reference session-scoped type-plane ids
            value = encode(result, self.service.registry, inline_types=True)
            reply = {"kind": "reply", "request_id": request_id,
                     "ok": True, "value": value}
        except Exception as error:
            reply = {"kind": "reply", "request_id": request_id,
                     "ok": False, "error": f"{type(error).__name__}: {error}"}
        encoded = encode(reply)
        tracer = self.client.daemon.tracer
        if tracer:
            tracer.emit(self.client.sim.now, "rmi.call",
                        service=self.service_subject, op=msg["op"],
                        request_id=request_id, ok=reply["ok"])
        self._reply_cache[request_id] = encoded
        if self.durable_replies:
            # logged before the reply leaves: a crash after execution
            # cannot cause re-execution on retry
            self.client.host.stable.append(self._reply_log,
                                           (request_id, encoded))
        self.calls_served += 1
        conn.send(encoded)


#: chooser signature: List[DiscoveredService] -> DiscoveredService
Chooser = Callable[[List[DiscoveredService]], DiscoveredService]


def _least_loaded(responses: List[DiscoveredService]) -> DiscoveredService:
    return min(responses,
               key=lambda r: (r.info.get("load", 0.0), r.responder))


@dataclass
class _PendingCall:
    request_id: str
    op: str
    data: bytes          # the encoded request, ready for (re)transmission
    on_result: Callable[[Any, Optional[str]], None]
    timeout_event: Optional[Event] = None
    done: bool = False


class RmiClient:
    """Invokes operations on whichever server serves ``service_subject``.

    ``policy``:

    * ``"first"`` — complete discovery on the first "I am" (fastest);
    * ``"all"`` — wait the full discovery window, then apply ``chooser``
      (default: least reported load).
    """

    def __init__(self, client: BusClient, service_subject: str,
                 policy: str = "first", chooser: Optional[Chooser] = None,
                 discovery_window: float = 0.25, call_timeout: float = 5.0):
        if policy not in ("first", "all"):
            raise ValueError(f"unknown policy {policy!r}")
        self.client = client
        self.service_subject = service_subject
        self.policy = policy
        self.chooser = chooser or _least_loaded
        self.discovery_window = discovery_window
        self.call_timeout = call_timeout
        self.port = next(_ports)
        self._streams = StreamManager(client.sim, client.host, self.port)
        self._conn: Optional[StreamConnection] = None
        self._server: Optional[DiscoveredService] = None
        self._pending: Dict[str, _PendingCall] = {}
        self._queue: List[_PendingCall] = []
        self._discovering = False
        self.server_interface: Optional[dict] = None
        self._closed = False
        client.host.on_recover(self._on_host_recover)

    def _on_host_recover(self) -> None:
        """Our own host restarted: the stream port binding is gone, and
        any connection with it.  Rebind so the next call works."""
        if self._closed:
            return
        self._streams = StreamManager(self.client.sim, self.client.host,
                                      self.port)
        self._conn = None
        self._server = None
        self._discovering = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def call(self, op: str, args: Dict[str, Any],
             on_result: Callable[[Any, Optional[str]], None],
             request_id: Optional[str] = None) -> str:
        """Invoke ``op(**args)`` remotely.

        ``on_result(value, error)`` fires exactly once: with the decoded
        result and ``error=None``, or with ``value=None`` and an error
        string (remote exception, timeout, no servers, connection lost).
        Returns the request id.

        Passing an explicit ``request_id`` re-issues a previous request:
        servers answer duplicates from their reply cache without
        re-executing (the hook exactly-once layers build on).
        """
        if request_id is None:
            request_id = f"{self.client.id}#{next(_request_ids)}"
        # self-contained on purpose: the request bytes are retained for
        # re-issue (exactly-once retries may cross daemon restarts), so
        # they must not reference session-scoped type-plane ids
        args_bytes = encode(args, self.client.registry, inline_types=True)
        data = encode({"kind": "call", "request_id": request_id, "op": op,
                       "args": args_bytes})
        pending = _PendingCall(request_id, op, data, on_result)
        self._pending[request_id] = pending
        pending.timeout_event = self.client.sim.schedule(
            self.call_timeout, self._fail, pending, "timeout",
            name="rmi.timeout")
        if self._conn is not None and self._conn.established:
            self._conn.send(pending.data)
        else:
            self._queue.append(pending)
            self._ensure_connection()
        return request_id

    def close(self) -> None:
        self._closed = True
        for pending in list(self._pending.values()):
            self._fail(pending, "client closed")
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._streams.close()

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _ensure_connection(self) -> None:
        if self._discovering or (self._conn is not None):
            return
        self._discovering = True
        enough = 1 if self.policy == "first" else None
        Inquiry(self.client, self.service_subject, self._on_discovered,
                window=self.discovery_window, enough=enough)

    def _on_discovered(self, responses: List[DiscoveredService]) -> None:
        self._discovering = False
        candidates = [r for r in responses if "endpoint" in r.info]
        if not candidates:
            for pending in list(self._queue):
                self._fail(pending, "no servers discovered")
            self._queue.clear()
            return
        chosen = candidates[0] if self.policy == "first" \
            else self.chooser(candidates)
        self._server = chosen
        self.server_interface = chosen.info.get("interface")
        host, port = chosen.info["endpoint"]
        conn = self._streams.connect(host, port)
        conn.on_established = self._on_connected
        conn.on_message = lambda data, size: self._on_reply(data)
        conn.on_close = self._on_conn_closed
        self._conn = conn

    def _on_connected(self) -> None:
        queued, self._queue = self._queue, []
        for pending in queued:
            if not pending.done:
                self._conn.send(pending.data)

    def _on_conn_closed(self, error: Optional[str]) -> None:
        self._conn = None
        self._server = None
        if error is None:
            return
        # fail everything in flight: at-most-once, no silent retry
        for pending in list(self._pending.values()):
            self._fail(pending, f"connection lost: {error}")
        self._queue.clear()

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _on_reply(self, data: bytes) -> None:
        try:
            msg = decode(data, self.client.registry)
        except MarshalError:
            return
        if not isinstance(msg, dict) or msg.get("kind") != "reply":
            return
        pending = self._pending.pop(msg.get("request_id", ""), None)
        if pending is None or pending.done:
            return
        pending.done = True
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        tracer = self.client.daemon.tracer
        if tracer:
            tracer.emit(self.client.sim.now, "rmi.reply", op=pending.op,
                        request_id=pending.request_id, ok=msg["ok"])
        if msg["ok"]:
            value = decode(msg["value"], self.client.registry)
            pending.on_result(value, None)
        else:
            pending.on_result(None, msg["error"])

    def _fail(self, pending: _PendingCall, error: str) -> None:
        if pending.done:
            return
        pending.done = True
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        self._pending.pop(pending.request_id, None)
        if pending in self._queue:
            self._queue.remove(pending)
        pending.on_result(None, error)


class ExactlyOnceRmiClient:
    """Exactly-once invocation, "built on a layer above standard RMI"
    (Section 3.3).

    Each logical call keeps one request id for its whole lifetime and
    retries (with backoff and fresh discovery) through timeouts, crashes,
    and partitions.  Because servers answer duplicate ids from their
    reply cache without re-executing — durably so with
    ``RmiServer(durable_replies=True)`` — the operation executes exactly
    once no matter how many times the request is transmitted, provided a
    server that saw it (or its stable cache) eventually answers.
    """

    RETRYABLE = ("timeout", "no servers discovered", "connection lost",
                 "client closed")

    def __init__(self, client: BusClient, service_subject: str,
                 attempts: int = 8, retry_delay: float = 0.5,
                 call_timeout: float = 2.0, **rmi_kwargs):
        self.client = client
        self.attempts = attempts
        self.retry_delay = retry_delay
        self.rmi = RmiClient(client, service_subject,
                             call_timeout=call_timeout, **rmi_kwargs)
        self.retries = 0

    def call(self, op: str, args: Dict[str, Any],
             on_result: Callable[[Any, Optional[str]], None]) -> str:
        request_id = f"{self.client.id}!eo{next(_request_ids)}"
        self._attempt(request_id, op, args, on_result, remaining=self.attempts)
        return request_id

    def _attempt(self, request_id: str, op: str, args: Dict[str, Any],
                 on_result: Callable[[Any, Optional[str]], None],
                 remaining: int) -> None:
        def complete(value: Any, error: Optional[str]) -> None:
            if error is None or remaining <= 1 \
                    or not self._retryable(error):
                on_result(value, error)
                return
            self.retries += 1
            # drop any half-dead connection so the retry rediscovers
            if self.rmi._conn is not None:
                self.rmi._conn.close()
                self.rmi._conn = None
            self.client.sim.schedule(
                self.retry_delay, self._attempt, request_id, op, args,
                on_result, remaining - 1, name="rmi.retry")

        self.rmi.call(op, args, complete, request_id=request_id)

    def _retryable(self, error: str) -> bool:
        return any(error.startswith(kind) for kind in self.RETRYABLE)

    def close(self) -> None:
        self.rmi.close()
