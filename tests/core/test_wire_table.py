"""Wire header compression at the codec level: the session dictionary,
the self-contained frame rule, and per-receiver decode-memo honesty.

A publishing daemon's :class:`SessionTable` assigns dense ids to repeated
header strings; receivers learn ``id -> string`` per session from the
inline definition sections.  The invariants under test:

* a DATA frame defines every id no earlier DATA frame carried — so the
  first frame of a session decodes with zero prior state;
* later frames reference without redefining — smaller, but unresolvable
  to a receiver that missed the defining frame (a typed, repairable
  failure, never a crash);
* RETRANS frames define **all** ids they reference — repairs always
  decode;
* the definitions of a CRC-valid frame are learned even when the frame
  itself fails to resolve;
* the shared decode memo replays those table effects per receiver, so a
  memo hit and a fresh parse are indistinguishable.
"""

import random

import pytest

from repro.core import (BusConfig, Envelope, InformationBus, Packet,
                        PacketKind, QoS)
from repro.core import wire
from repro.core.wire import (CorruptFrame, SessionTable, UnresolvedIds,
                             decode_packet, encode_packet)
from repro.sim import CostModel
from repro.sim.framing import flip_random_bit


def make_envelope(seq, subject="news.equity.gmc", session="node00#0",
                  **kw):
    return Envelope(subject=subject, sender="node00.pub", session=session,
                    seq=seq, payload=b"payload", publish_time=0.25,
                    envelope_id=seq, **kw)


def data_frame(table, seqs, subject="news.equity.gmc", session="node00#0"):
    envelopes = [make_envelope(seq, subject, session) for seq in seqs]
    return encode_packet(Packet(PacketKind.DATA, session, envelopes,
                                session_start=0.0), table)


class TestStringTable:
    def test_ids_are_dense_and_stable(self):
        table = SessionTable()
        assert table.intern("alpha") == 0
        assert table.intern("beta") == 1
        assert table.intern("alpha") == 0
        assert len(table) == 2
        assert table.entries == {0: "alpha", 1: "beta"}

    def test_compressed_round_trip_equals_plain(self):
        table = SessionTable()
        envelope = make_envelope(1, qos=QoS.GUARANTEED,
                                 ledger_id="node00/g/1")
        envelope.via = ("wan-router",)
        packet = Packet(PacketKind.DATA, "node00#0", [envelope],
                        session_start=0.5)
        assert decode_packet(encode_packet(packet, table)) == \
            decode_packet(encode_packet(packet))

    def test_steady_state_frames_are_smaller(self):
        table = SessionTable()
        first = data_frame(table, [1])
        second = data_frame(table, [2])
        plain = len(encode_packet(Packet(
            PacketKind.DATA, "node00#0", [make_envelope(2)],
            session_start=0.0)))
        # the first frame pays for its definitions; from then on every
        # repeated header string costs one or two bytes
        assert len(second) < len(first)
        assert len(second) < plain

    def test_encoding_is_deterministic(self):
        t1, t2 = SessionTable(), SessionTable()
        assert data_frame(t1, [1]) == data_frame(t2, [1])


class TestSelfContainedFrames:
    def test_first_frame_decodes_with_zero_state(self):
        table = SessionTable()
        packet = decode_packet(data_frame(table, [1]))
        assert packet.envelopes[0].subject == "news.equity.gmc"
        assert packet.envelopes[0].session == "node00#0"

    def test_later_frame_alone_is_unresolvable(self):
        table = SessionTable()
        data_frame(table, [1])                    # defines the ids
        second = data_frame(table, [2, 3])        # references only
        with pytest.raises(UnresolvedIds) as exc:
            decode_packet(second)
        err = exc.value
        assert err.session == "node00#0"
        assert (err.first_seq, err.last_seq) == (2, 3)
        assert err.session_start == 0.0
        assert err.missing                       # the ids it lacked
        assert isinstance(err, CorruptFrame)     # drop-and-repair family

    def test_receiver_table_makes_later_frames_resolvable(self):
        table = SessionTable()
        first = data_frame(table, [1])
        second = data_frame(table, [2])
        tables = {}
        decode_packet(first, tables=tables)
        packet = decode_packet(second, tables=tables)
        assert packet.envelopes[0].seq == 2
        assert packet.envelopes[0].subject == "news.equity.gmc"

    def test_definitions_survive_a_failed_resolution(self):
        """A CRC-valid frame teaches its defs even when it can't be
        resolved — that is what makes the eventual repair decodable."""
        table = SessionTable()
        data_frame(table, [1])                               # lost frame
        second = data_frame(table, [2], subject="news.bond.t30")
        tables = {}
        with pytest.raises(UnresolvedIds):
            decode_packet(second, tables=tables)             # new subject
        learned = set(tables["node00#0"].values())
        assert "news.bond.t30" in learned                    # def learned
        assert "news.equity.gmc" not in learned              # still unknown

    def test_retrans_defines_everything_it_references(self):
        """A NACK repair must decode at a receiver with zero state."""
        table = SessionTable()
        data_frame(table, [1])                    # the defining DATA frame
        envelope = make_envelope(1)
        repair = encode_packet(Packet(PacketKind.RETRANS, "node00#0",
                                      [envelope], session_start=0.0), table)
        packet = decode_packet(repair)            # no tables at all
        assert packet.kind is PacketKind.RETRANS
        assert packet.envelopes[0].subject == "news.equity.gmc"

    def test_control_packets_are_never_compressed(self):
        table = SessionTable()
        for packet in (
                Packet(PacketKind.HEARTBEAT, "node00#0", last_seq=9),
                Packet(PacketKind.NACK, "node00#0", nack_range=(1, 4)),
                Packet(PacketKind.ACK, "node00#0", ack_ledger_id="x/1",
                       ack_consumer="node01")):
            assert encode_packet(packet, table) == encode_packet(packet)
        assert len(table) == 0                    # nothing interned

    def test_corrupted_compressed_frame_still_crc_fails(self):
        table = SessionTable()
        data = data_frame(table, [1])
        for seed in range(64):
            flipped = flip_random_bit(data, random.Random(seed))
            with pytest.raises(CorruptFrame):
                decode_packet(flipped, tables={})


class TestEncodeCache:
    def test_compressed_encoding_computed_once(self):
        table = SessionTable()
        envelope = make_envelope(1)
        packet = Packet(PacketKind.DATA, "node00#0", [envelope],
                        session_start=0.0)
        first = encode_packet(packet, table)
        cached = envelope._wire_cache_z
        again = encode_packet(packet, table)
        assert envelope._wire_cache_z is cached   # no re-marshal
        # the same body, without the definitions the first frame carried
        assert len(again) < len(first)
        tables = {}
        assert decode_packet(first, tables=tables) == \
            decode_packet(again, tables=tables)

    def test_cache_is_table_scoped(self):
        """A router republishes under its own daemon's table: the cached
        compressed body from another table must never be reused."""
        envelope = make_envelope(1)
        t1, t2 = SessionTable(), SessionTable()
        p = Packet(PacketKind.DATA, "node00#0", [envelope],
                   session_start=0.0)
        encode_packet(p, t1)
        t2.intern("unrelated-string-shifting-ids")
        frame2 = encode_packet(p, t2)
        decoded = decode_packet(frame2)
        assert decoded.envelopes[0].subject == "news.equity.gmc"

    def test_restamped_envelope_invalidates_cache(self):
        table = SessionTable()
        envelope = make_envelope(1)
        p = Packet(PacketKind.DATA, "node00#0", [envelope],
                   session_start=0.0)
        tables = {}
        decode_packet(encode_packet(p, table), tables=tables)
        envelope.seq = 2          # re-stamped: the cached body is stale
        assert decode_packet(encode_packet(p, table),
                             tables=tables).envelopes[0].seq == 2


class TestDecodeMemoHonesty:
    def test_memo_hit_replays_defs_into_receiver_table(self):
        table = SessionTable()
        first = data_frame(table, [1])
        a, b = {}, {}
        decode_packet(first, tables=a)            # fresh parse
        decode_packet(first, tables=b)            # memo hit
        assert wire.decode_memo_stats()["hits"] == 1
        assert b == a and b["node00#0"]           # B learned the same defs

    def test_memo_hit_still_unresolvable_for_cold_receiver(self):
        """Receiver A heard the defining frame; receiver B did not.  The
        shared memo must not leak A's resolution to B."""
        table = SessionTable()
        first = data_frame(table, [1])
        second = data_frame(table, [2])
        a, b = {}, {}
        decode_packet(first, tables=a)
        decode_packet(second, tables=a)           # A resolves; memo primed
        with pytest.raises(UnresolvedIds) as exc:
            decode_packet(second, tables=b)       # memo hit, B still cold
        assert (exc.value.first_seq, exc.value.last_seq) == (2, 2)
        # after hearing the defining frame (e.g. via repair), B resolves
        decode_packet(first, tables=b)
        packet = decode_packet(second, tables=b)
        assert packet.envelopes[0].subject == "news.equity.gmc"

    def test_conflicting_table_bypasses_memo(self):
        """Two simulations can produce byte-identical frames from
        sessions with colliding names but different tables; a value
        mismatch must bypass the memo and parse fresh against the
        receiver's own table, not serve the first parser's strings."""
        table = SessionTable()
        data_frame(table, [1])
        second = data_frame(table, [2])
        a = {}
        decode_packet(data_frame(SessionTable(), [1]), tables=a)  # same bytes
        served = decode_packet(second, tables=a)  # primes memo with needs
        # a receiver whose table maps the same ids to different strings
        conflicting = {"node00#0": {i: f"other-{i}" for i in range(8)}}
        packet = decode_packet(second, tables=conflicting)
        assert packet is not served               # not memo-served
        # resolved against the receiver's own table, not A's
        assert packet.envelopes[0].subject != served.envelopes[0].subject
        assert packet.envelopes[0].subject.startswith("other-")
        # and A itself still gets its correct resolution from the memo
        assert decode_packet(second, tables=a) is served

    def test_memo_disabled_still_resolves(self):
        wire.configure_decode_memo(0)
        table = SessionTable()
        first, second = data_frame(table, [1]), data_frame(table, [2])
        tables = {}
        decode_packet(first, tables=tables)
        assert decode_packet(second,
                             tables=tables).envelopes[0].seq == 2


class TestInterning:
    def test_header_strings_are_interned(self):
        """Subject-match memo and per-app lanes key on identical
        objects: two decodes of the same header yield the same str."""
        table = SessionTable()
        first = data_frame(table, [1])
        wire.configure_decode_memo(0)             # force two real parses
        p1 = decode_packet(first, tables={})
        p2 = decode_packet(first, tables={})
        assert p1.envelopes[0].subject is p2.envelopes[0].subject
        assert p1.session is p2.session

    def test_table_resolution_returns_interned_string(self):
        table = SessionTable()
        wire.configure_decode_memo(0)
        first, second = data_frame(table, [1]), data_frame(table, [2])
        tables = {}
        p1 = decode_packet(first, tables=tables)
        p2 = decode_packet(second, tables=tables)
        assert p1.envelopes[0].subject is p2.envelopes[0].subject


class TestLedgerIdsRideInline:
    """A guaranteed ``ledger_id`` is unique per message, so interning it
    would grow every session table by one entry per publish and make a
    ledger republish depend on the (possibly lost) frame that defined
    it.  Ledger ids are written as plain strings in both encodings."""

    @staticmethod
    def guaranteed_frame(table, seq, ledger_id):
        envelope = make_envelope(seq, qos=QoS.GUARANTEED, ledger_id=ledger_id)
        return encode_packet(Packet(PacketKind.DATA, "node00#0", [envelope],
                                    session_start=0.0), table)

    def test_guaranteed_publishes_do_not_grow_the_table(self):
        table = SessionTable()
        data_frame(table, [1])                    # warm-up header strings
        warm = len(table)
        for seq in range(2, 502):
            self.guaranteed_frame(table, seq, f"node00/g/{seq}")
        assert len(table) == warm

    def test_republish_decodes_with_warm_up_strings_only(self):
        table = SessionTable()
        tables = {}
        decode_packet(data_frame(table, [1]), tables=tables)
        self.guaranteed_frame(table, 2, "node00/g/2")        # lost frame
        republish = self.guaranteed_frame(table, 3, "node00/g/2")
        packet = decode_packet(republish, tables=tables)
        assert packet.envelopes[0].ledger_id == "node00/g/2"

    def test_bus_tables_hold_only_repeated_headers(self):
        bus = InformationBus(seed=5, cost=CostModel.ideal(),
                             config=BusConfig(advertise_subscriptions=False))
        bus.add_hosts(2)
        got = []
        bus.client("node01", "db").subscribe(
            "orders.>", lambda s, p, info: got.append(p), durable=True)
        publisher = bus.client("node00", "pub")
        for n in range(500):
            publisher.publish("orders.fill", {"n": n}, QoS.GUARANTEED)
        bus.run_for(5.0)
        assert len(got) == 500
        assert not bus.daemon("node00").guaranteed_pending()
        # subject, sender and session: nothing per message
        assert bus.daemon("node00").wire_stats()["table_entries"] == 3
        assert bus.daemon("node01").wire_stats()["peer_entries"] == 3
