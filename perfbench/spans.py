"""Wall-clock spans around the calls into each layer, from outside.

The benchmark changes nothing in the library.  For a traced run it
replaces selected functions and methods, in memory, with wrappers that
open a span on entry and close it on exit; :func:`instrument` restores
the originals afterwards.  A span's *self* time is its duration minus
the time its direct child spans cover, so self times add up to the
root spans' wall time and a span re-entered under its own key (a
publish made from inside a delivery callback, say) is not counted
twice.  Spans are aggregated as they close -- calls and self seconds
per key -- because a run opens millions of them.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional


class SpanRecorder:
    """Per-key call counts and self time of nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: open spans, innermost last: [start, child seconds]
        self._stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: spans are only recorded while this is true (set-up runs with
        #: the wrappers installed but unrecorded)
        self.active = False

    def wrap(self, key: str, fn: Callable,
             data_key: Optional[str] = None) -> Callable:
        """``fn`` inside a span named ``key`` (when recording).  With
        ``data_key``, calls that return something other than None are
        also counted under that key."""
        stack = self._stack
        clock = self.clock
        calls = self.calls
        self_s = self.self_s
        recorder = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if data_key is not None and result is not None:
                    calls[data_key] = calls.get(data_key, 0) + 1
                return result
            finally:
                stack.pop()
                duration = clock() - frame[0]
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + duration - frame[1]
                if stack:
                    stack[-1][1] += duration
        return spanned

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.calls.clear()
        self.self_s.clear()


def _targets() -> List[tuple]:
    """(owner, attribute, span key[, data key]) for every wrapped call.

    Module-level functions are patched where the caller looks them up
    (``repro.core.daemon.encode_packet``, not ``repro.core.wire``).
    Methods that are captured as bound callbacks when a bus is built
    (socket handlers, the receiver's delivery callback) only take
    effect for buses built after :func:`instrument` is entered.
    """
    from repro.core import client, daemon
    from repro.core.client import BusClient
    from repro.core.daemon import BusDaemon
    from repro.core.guaranteed import GuaranteedPublisher
    from repro.core.reliable import ReliableReceiver
    from repro.core.subjects import SubjectTrie
    from repro.sim.ethernet import EthernetSegment
    from repro.sim.kernel import Simulator
    from repro.sim.node import Host
    from repro.sim.stable_storage import StableStore
    from repro.sim.transport import DatagramSocket

    return [
        (Simulator, "run_until", "sim.kernel"),
        (EthernetSegment, "transmit", "sim.ethernet.transmit"),
        (EthernetSegment, "_deliver", "sim.ethernet.deliver"),
        (Host, "deliver_frame", "sim.node.deliver_frame"),
        (Host, "send_frame", "sim.node.send_frame"),
        (DatagramSocket, "_on_frame", "sim.transport.on_frame"),
        (DatagramSocket, "sendto", "sim.transport.sendto"),
        (BusDaemon, "_on_datagram", "core.daemon.receive"),
        (BusDaemon, "publish", "core.daemon.publish"),
        (BusDaemon, "_dispatch", "core.daemon.dispatch"),
        (BusDaemon, "_send_batch", "core.batching.flush"),
        (BusDaemon, "_republish_guaranteed", "core.guaranteed.republish"),
        (daemon, "encode_packet", "core.wire.encode_packet"),
        (daemon, "decode_packet", "core.wire.decode_packet"),
        # a digest comes back only for DATA/RETRANS frames: the frames
        # the interest gate can skip
        (daemon, "read_digest", "core.wire.read_digest",
         "core.wire.read_digest.data"),
        (daemon, "encode", "objects.marshal.encode"),
        (ReliableReceiver, "handle_envelope", "core.reliable.handle_envelope"),
        (ReliableReceiver, "try_skip", "core.reliable.try_skip"),
        (SubjectTrie, "match", "core.subjects.match"),
        (SubjectTrie, "matches_anything", "core.subjects.matches_anything"),
        (BusClient, "publish", "core.client.publish"),
        (BusClient, "_deliver", "core.client.deliver"),
        (client, "encode", "objects.marshal.encode"),
        (client, "encode_typed", "objects.marshal.encode"),
        (client, "decode", "objects.marshal.decode"),
        (GuaranteedPublisher, "record", "core.guaranteed.record"),
        (GuaranteedPublisher, "handle_ack", "core.guaranteed.handle_ack"),
        (StableStore, "put", "sim.stable_storage.put"),
    ]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attribute, key, *data_key in _targets():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute,
                    recorder.wrap(key, original, *data_key))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
