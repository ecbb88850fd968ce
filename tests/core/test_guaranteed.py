"""Guaranteed-delivery tests: at-least-once across crashes, stable dedupe.

"Guaranteed delivery is particularly useful when sending data to a
database over an unreliable network" — so these scenarios model a
publisher feeding a durable consumer (the Object Repository pattern).
"""

from repro.core import BusConfig, InformationBus, QoS
from repro.core.guaranteed import COMPACT_MIN_RETIRED, StableLedger
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "record", attributes=[AttributeSpec("n", "int")]))
    return reg


def setup(seed=1, cost=None, config=None, hosts=3):
    bus = InformationBus(seed=seed, cost=cost or CostModel.ideal(),
                         config=config)
    bus.add_hosts(hosts)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    consumer = bus.client("node01", "db")
    consumer.subscribe("gd.>", lambda s, o, i: received.append(o.get("n")),
                       durable=True)
    return bus, reg, pub, consumer, received


def replay_ledger(bus, host="node00"):
    """The publisher's ledger as a restarted daemon would read it."""
    return StableLedger(bus.host(host).stable, "gd.ledger", f"{host}/")


def test_guaranteed_exactly_once_without_failures():
    bus, reg, pub, consumer, received = setup()
    for n in range(20):
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
    bus.settle(3.0)
    assert received == list(range(20))
    assert bus.daemon("node00").guaranteed_pending() == []


def test_message_logged_before_send():
    bus, reg, pub, consumer, received = setup()
    pub.publish("gd.data", DataObject(reg, "record", n=0),
                qos=QoS.GUARANTEED)
    # replay stable storage at the instant of publish, before any settle
    ledger = replay_ledger(bus).pending()
    assert len(ledger) == 1
    assert ledger[0].record["subject"] == "gd.data"
    assert ledger[0].acks == []


def test_retransmits_until_consumer_ack():
    """Consumer is partitioned away; publisher keeps retrying; delivery
    happens after healing — at-least-once regardless of failures."""
    bus, reg, pub, consumer, received = setup(seed=2)
    bus.partition({"node00"}, {"node01", "node02"})
    pub.publish("gd.data", DataObject(reg, "record", n=7),
                qos=QoS.GUARANTEED)
    bus.settle(3.0)
    assert received == []
    assert len(bus.daemon("node00").guaranteed_pending()) == 1
    bus.heal()
    bus.settle(5.0)
    assert received == [7]
    assert bus.daemon("node00").guaranteed_pending() == []


def test_publisher_crash_resumes_retransmission_from_ledger():
    bus, reg, pub, consumer, received = setup(seed=3)
    bus.partition({"node00"}, {"node01", "node02"})
    pub.publish("gd.data", DataObject(reg, "record", n=1),
                qos=QoS.GUARANTEED)
    bus.settle(1.0)
    bus.crash_host("node00")
    bus.heal()
    bus.run_for(1.0)
    assert received == []
    bus.recover_host("node00")     # ledger reloaded from stable storage
    bus.settle(5.0)
    assert received == [1]


def test_consumer_crash_no_duplicate_after_recovery():
    """The consumer acks, crashes, and the (lost) ack is retried; stable
    dedupe prevents a second application delivery."""
    bus, reg, pub, consumer, received = setup(seed=4)
    pub.publish("gd.data", DataObject(reg, "record", n=5),
                qos=QoS.GUARANTEED)
    bus.settle(2.0)
    assert received == [5]
    bus.crash_host("node01")
    bus.run_for(0.5)
    bus.recover_host("node01")
    bus.settle(5.0)
    assert received == [5]   # no redelivery: ledger id durably seen


def test_non_durable_subscribers_see_guaranteed_messages_once():
    bus, reg, pub, consumer, received = setup(seed=5)
    observer = []
    bus.client("node02", "watcher").subscribe(
        "gd.>", lambda s, o, i: observer.append(o.get("n")))
    bus.partition({"node00"}, {"node01"})   # delay the durable ack path
    pub.publish("gd.data", DataObject(reg, "record", n=3),
                qos=QoS.GUARANTEED)
    bus.settle(2.0)   # several republishes happen; node02 sees them all
    bus.heal()
    bus.settle(5.0)
    assert observer == [3]   # volatile ledger dedupe filtered republishes
    assert received == [3]


def test_ack_quorum_two_consumers():
    config = BusConfig()
    config.ack_quorum = 2
    bus = InformationBus(seed=6, cost=CostModel.ideal(), config=config)
    bus.add_hosts(3)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    boxes = []
    for address in ("node01", "node02"):
        box = []
        bus.client(address, "db").subscribe(
            "gd.>", lambda s, o, i, box=box: box.append(o.get("n")),
            durable=True)
        boxes.append(box)
    bus.partition({"node00", "node01"}, {"node02"})
    pub.publish("gd.data", DataObject(reg, "record", n=9),
                qos=QoS.GUARANTEED)
    bus.settle(3.0)
    # node01's ack is logged, but one ack is short of the quorum
    [entry] = replay_ledger(bus).pending()
    assert entry.acks == ["node01"]
    bus.heal()
    bus.settle(3.0)
    assert boxes[0] == [9] and boxes[1] == [9]
    assert bus.daemon("node00").guaranteed_pending() == []
    # node02's ack made the quorum: the entry retired from the log too
    assert bus.daemon("node02").acks_sent >= 1
    assert replay_ledger(bus).pending() == []


def test_local_durable_consumer_acks_without_network():
    bus = InformationBus(seed=7, cost=CostModel.ideal())
    bus.add_hosts(1)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node00", "db").subscribe(
        "gd.>", lambda s, o, i: received.append(o.get("n")), durable=True)
    pub.publish("gd.x", DataObject(reg, "record", n=1), qos=QoS.GUARANTEED)
    bus.settle(2.0)
    assert received == [1]
    assert bus.daemon("node00").guaranteed_pending() == []


def test_guaranteed_survives_lossy_network():
    cost = CostModel.ideal()
    cost.loss_probability = 0.2
    bus, reg, pub, consumer, received = setup(seed=8, cost=cost)
    for n in range(10):
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
    bus.settle(20.0)
    assert sorted(received) == list(range(10))
    assert bus.daemon("node00").guaranteed_pending() == []
