"""The append-only stable ledger behind both durable at-least-once paths.

Guaranteed delivery and router store-and-forward both persist through
:class:`StableLedger`: every add/ack/retire is one log append, acked
entries retire, and the log is compacted so that retention stays bounded
by the live entries — while ids are never reused across compaction and
crashes.
"""

from repro.core import BusConfig, InformationBus, QoS, Router, WanLink
from repro.core.guaranteed import COMPACT_MIN_RETIRED, StableLedger
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Simulator, StableStore


def record_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "record", attributes=[AttributeSpec("n", "int")]))
    return reg


# ----------------------------------------------------------------------
# the ledger itself
# ----------------------------------------------------------------------

def test_add_ack_retire_and_replay():
    store = StableStore()
    ledger = StableLedger(store, "log", "h/")
    first = ledger.add({"v": 1})
    second = ledger.add({"v": 2})
    assert (first, second) == ("h/1", "h/2")
    assert store.log_length("log") == 2          # appended before return
    assert ledger.ack(first, "a").acks == ["a"]
    assert ledger.ack(first, "a").acks == ["a"]  # each acker once
    assert store.log_length("log") == 3
    ledger.retire(second)
    assert ledger.ack(second, "a") is None       # retired: ignored
    replayed = StableLedger(store, "log", "h/")
    assert [(e.ledger_id, e.record, e.acks) for e in replayed.pending()] \
        == [("h/1", {"v": 1}, ["a"])]
    assert replayed.add({"v": 3}) == "h/3"


def test_compaction_bounds_the_log_and_carries_the_counter():
    store = StableStore()
    ledger = StableLedger(store, "log", "h/")
    keep = ledger.add("kept")
    ledger.ack(keep, "a")
    for n in range(500):
        ledger_id = ledger.add(n)
        ledger.ack(ledger_id, "a")
        ledger.retire(ledger_id)
        assert store.log_length("log") <= 2 + COMPACT_MIN_RETIRED
    replayed = StableLedger(store, "log", "h/")
    assert [(e.ledger_id, e.acks) for e in replayed.pending()] == \
        [(keep, ["a"])]
    # every id minted before the compactions stays burned
    assert replayed.add("next") == "h/502"


# ----------------------------------------------------------------------
# guaranteed delivery
# ----------------------------------------------------------------------

def guaranteed_world(seed):
    bus = InformationBus(seed=seed, cost=CostModel.ideal())
    bus.add_hosts(2)
    reg = record_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "db").subscribe(
        "gd.>", lambda s, o, i: received.append(o.get("n")), durable=True)
    return bus, reg, pub, received


def publish_paced(bus, reg, pub, values):
    for n in values:
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
        bus.run_for(0.002)
    bus.settle(3.0)


def test_acked_guaranteed_entries_retire_and_the_log_stays_bounded():
    bus, reg, pub, received = guaranteed_world(seed=11)
    publish_paced(bus, reg, pub, range(1000))
    assert received == list(range(1000))
    # the publisher's in-memory ledger holds nothing once all are acked
    assert bus.daemon("node00").guaranteed_pending() == []
    stable = bus.host("node00").stable
    live = StableLedger(stable, "gd.ledger", "node00/").pending()
    assert live == []
    assert stable.log_length("gd.ledger") <= len(live) + COMPACT_MIN_RETIRED


def test_ids_stay_distinct_after_compaction_and_publisher_crash():
    bus, reg, pub, received = guaranteed_world(seed=12)
    publish_paced(bus, reg, pub, range(100))
    stable = bus.host("node00").stable
    # 100 acked entries wrote ~300 records: the log has been compacted
    assert stable.log_length("gd.ledger") <= COMPACT_MIN_RETIRED
    bus.crash_host("node00")
    bus.run_for(0.5)
    bus.recover_host("node00")     # a fresh publisher replays the log
    publish_paced(bus, reg, pub, range(100, 200))
    # the consumer logs every ledger id it delivered
    delivered_ids = bus.host("node01").stable.read_log("gd.seen")
    assert len(delivered_ids) == 200
    assert len(set(delivered_ids)) == 200
    assert received == list(range(200))        # each exactly once
    assert bus.daemon("node00").guaranteed_pending() == []


# ----------------------------------------------------------------------
# router store-and-forward
# ----------------------------------------------------------------------

def test_store_and_forward_ledger_stays_bounded():
    sim = Simulator(seed=13)
    config = BusConfig()
    config.advert_interval = 0.4
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=config)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=config)
    west.add_hosts(2, prefix="w")
    east.add_hosts(2, prefix="e")
    router = Router(store_and_forward=True, link=WanLink(latency=0.02))
    west_leg = router.add_leg(west)
    router.add_leg(east)
    reg = record_registry()
    pub = west.client("w00", "feed", registry=reg)
    received = []
    east.client("e00", "db").subscribe(
        "wan.>", lambda s, o, i: received.append(o.get("n")), durable=True)
    sim.run_until(2.0)   # interest propagates
    for n in range(300):
        pub.publish("wan.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
        sim.run_until(sim.now + 0.01)
    sim.run_until(sim.now + 5.0)
    assert sorted(received) == list(range(300))
    assert west_leg.sf_pending() == 0
    stable = west_leg.host.stable
    assert StableLedger(stable, "router.sf.ledger",
                        f"{west_leg.name}/").pending() == []
    assert stable.log_length("router.sf.ledger") <= COMPACT_MIN_RETIRED
