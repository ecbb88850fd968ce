"""Daemons with and without interest in a frame's subjects.

Every daemon hears every broadcast, decodes it (sharing one memoized
parse with its peers), runs the reliable window, and only then matches
subjects against its local subscriptions.  These tests pin what that
means for a daemon that wants nothing on a frame: it tracks the
publisher session exactly like an interested daemon, still runs the
guaranteed ack+dedupe protocol, honours a mid-stream subscribe from the
very next frame (the late-interest boundary in docs/PROTOCOLS.md), and,
as a router host, forwards nothing nobody wants.
"""

from repro.core import BusConfig, InformationBus, QoS, Router
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Simulator


def make_bus(seed=3, hosts=4, **cfg):
    bus = InformationBus(seed=seed, cost=CostModel.ideal(),
                         config=BusConfig(**cfg))
    bus.add_hosts(hosts)
    return bus


def test_uninterested_daemon_tracks_session_like_interested_one():
    bus = make_bus(advertise_subscriptions=False)
    got = []
    bus.client("node01", "mon").subscribe(
        "feed.>", lambda s, p, i: got.append(p["n"]))
    bus.client("node02", "mon").subscribe("quiet.>", lambda *a: None)
    publisher = bus.client("node00", "pub")
    for n in range(120):
        publisher.publish("feed.tick", {"n": n})
    bus.run_for(10.0)
    assert got == list(range(120))
    # both daemons tracked the publisher session identically and neither
    # ever NACKed
    session = bus.daemons["node00"].session
    interested = bus.daemons["node01"].reliable_stats(session)
    idle = bus.daemons["node02"].reliable_stats(session)
    assert idle.delivered == interested.delivered
    assert idle.nacks_sent == interested.nacks_sent == 0


def test_late_interest_subscribe_mid_stream():
    """The late-interest boundary (docs/PROTOCOLS.md).  While
    uninterested, a daemon *consumes* the stream — window advanced,
    nothing delivered.  A mid-stream subscribe is honoured from the very
    next frame; the prefix is gone for good and is NOT repaired (it was
    received, not lost), so no NACK ever fires."""
    bus = make_bus(seed=7, hosts=2)
    late_box = []
    client = bus.client("node01", "mon")
    client.subscribe("quiet.>", lambda *a: None)   # daemon up, no interest
    publisher = bus.client("node00", "pub")
    for n in range(30):
        bus.sim.schedule(0.01 + n * 0.02, publisher.publish,
                         "feed.tick", {"n": n})
    join_at = 0.35
    bus.sim.schedule(join_at, client.subscribe, "feed.>",
                     lambda s, p, i: late_box.append(p["n"]))
    bus.run_for(30.0)
    daemon = bus.daemons["node01"]
    assert late_box, "late subscriber heard nothing"
    assert late_box == list(range(late_box[0], 30))  # contiguous suffix
    assert late_box[0] > 0                          # prefix not delivered
    session = bus.daemons["node00"].session
    assert daemon.reliable_stats(session).nacks_sent == 0
    assert daemon.reliable_stats(session).delivered == 30


def test_guaranteed_frames_take_full_path():
    """Ledgered envelopes run the ack+dedupe protocol on every daemon,
    subscriber or not."""
    bus = make_bus(seed=5, advertise_subscriptions=False)
    got = []
    bus.client("node02", "ledger").subscribe(
        "g.>", lambda s, p, i: got.append(p["n"]), durable=True)
    publisher = bus.client("node00", "pub")
    for n in range(15):
        publisher.publish("g.event", {"n": n}, qos=QoS.GUARANTEED)
    bus.run_for(30.0)
    assert sorted(got) == list(range(15))
    assert bus.daemons["node00"].guaranteed_pending() == []
    # node03 subscribes to nothing, yet tracked every ledgered frame
    session = bus.daemons["node00"].session
    assert (bus.daemons["node03"].reliable_stats(session).delivered
            == bus.daemons["node02"].reliable_stats(session).delivered)


def test_router_leg_does_not_forward_unwanted_subject():
    """A router leg's forwarding patterns live in its host daemon's
    subscription trie: a subject no remote bus wants never crosses,
    a wanted one does."""
    sim = Simulator(seed=1)
    config = BusConfig()
    config.advert_interval = 0.5
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=config)
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=config)
    east.add_hosts(3, prefix="e")
    west.add_hosts(2, prefix="w")
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string")]))
    received = []
    west.client("w00", "monitor").subscribe(
        "news.>", lambda s, o, i: received.append(s))
    sim.run_until(2.0)                 # advert propagates; leg subscribes
    pub = east.client("e00", "feed", registry=reg)
    story = DataObject(reg, "story", headline="X")
    for _ in range(25):
        pub.publish("sports.scores", story)    # nobody anywhere wants it
    sim.run_until(4.0)
    assert all(s["forwarded"] == 0 for s in router.leg_stats().values())
    pub.publish("news.equity.gmc", story)      # wanted on west
    sim.run_until(6.0)
    assert received == ["news.equity.gmc"]
