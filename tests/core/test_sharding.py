"""Subject-space sharding: the shard map, the facade, and cross-plane
behaviour (discovery, guaranteed delivery, telemetry, routing).

At 4 shards the crc32 map places the first elements used below as
``news``->0, ``feed0``->1, ``alpha``->2, ``beta``->3 and ``svc``->1 —
every plane is exercised, and the discovery tests get a service subject
whose data plane differs from the pinned ``_discovery.*`` control plane.
"""

import zlib

import pytest

from repro.apps import BusBrowser
from repro.core import (BusConfig, BusDaemon, InformationBus, Inquiry,
                        QoS, Responder, Router, ShardMap, ShardedDaemon,
                        inquiry_subject)
from repro.core.daemon import (DAEMON_PORT, SHARD_PORT_STRIDE, STAT_PORT,
                               shard_data_port, shard_stat_port)
from repro.core.guaranteed import StableLedger
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Simulator


def sharded_config(shards=4, **overrides):
    config = BusConfig(subject_shards=shards)
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


def make_bus(shards=4, seed=1, hosts=2, **overrides):
    bus = InformationBus(seed=seed, cost=CostModel.ideal(),
                         config=sharded_config(shards, **overrides))
    bus.add_hosts(hosts)
    return bus


def record_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "record", attributes=[AttributeSpec("n", "int")]))
    return reg


# ----------------------------------------------------------------------
# the shard map
# ----------------------------------------------------------------------

def test_shard_map_is_crc32_of_first_element():
    shard_map = ShardMap(4)
    for subject in ("news.x", "feed0.a.b", "alpha.t", "beta.q"):
        first = subject.split(".", 1)[0]
        expected = zlib.crc32(first.encode()) % 4
        assert shard_map.shard_of(subject) == expected
    # placement ignores everything after the first element
    assert shard_map.shard_of("news.a") == shard_map.shard_of("news.z.9")


def test_reserved_subjects_pin_to_shard_zero():
    shard_map = ShardMap(8)
    assert shard_map.shard_of("_bus.stat.node00.daemon") == 0
    assert shard_map.shard_of("_discovery.svc.quotes") == 0
    assert shard_map.shard_of("_sub.advert") == 0


def test_single_shard_map_is_trivial():
    shard_map = ShardMap(1)
    assert shard_map.shard_of("anything.at.all") == 0
    assert shard_map.shards_for_pattern(">") == (0,)
    with pytest.raises(ValueError):
        ShardMap(0)


def test_pattern_fan_out_rules():
    shard_map = ShardMap(4)
    # literal-first registers on exactly the owning plane
    assert shard_map.shards_for_pattern("news.>") == \
        (shard_map.shard_of("news.x"),)
    assert len(shard_map.shards_for_pattern("feed0.*")) == 1
    # wildcard-first could match any plane's subjects
    assert shard_map.shards_for_pattern(">") == (0, 1, 2, 3)
    assert shard_map.shards_for_pattern("*.prices") == (0, 1, 2, 3)
    # reserved patterns fan too: every plane emits its own control
    # traffic even though facade publishes pin to shard 0
    assert shard_map.shards_for_pattern("_bus.stat.>") == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------

def test_default_config_builds_the_classic_daemon():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(1)
    assert isinstance(bus.daemon("node00"), BusDaemon)


def test_sharded_bus_builds_a_facade_with_per_plane_ports():
    bus = make_bus(shards=4, hosts=1)
    daemon = bus.daemon("node00")
    assert isinstance(daemon, ShardedDaemon)
    rows = daemon.shard_stats()
    assert [row["shard"] for row in rows] == [0, 1, 2, 3]
    assert [row["port"] for row in rows] == \
        [DAEMON_PORT + SHARD_PORT_STRIDE * k for k in range(4)]
    assert [row["stat_port"] for row in rows] == \
        [STAT_PORT + SHARD_PORT_STRIDE * k for k in range(4)]
    assert shard_data_port(0) == DAEMON_PORT
    assert shard_stat_port(0) == STAT_PORT


def test_shard_sessions_share_host_identity():
    bus = make_bus(shards=3, hosts=1)
    daemon = bus.daemon("node00")
    bus.run_for(0.1)
    base = daemon.session
    assert base == daemon.shards[0].session
    assert "~" not in base
    for k in (1, 2):
        session = daemon.shards[k].session
        assert session == f"{base}~{k}"
        # NACK/ACK routing recovers the host address unchanged
        assert session.split("#", 1)[0] == "node00"


def test_publishes_route_to_owning_plane_and_are_counted():
    bus = make_bus(shards=4)
    received = {}
    sub = bus.client("node01", "sub")
    for first in ("news", "feed0", "alpha", "beta"):
        received[first] = []
        sub.subscribe(f"{first}.>",
                      lambda s, o, i, box=received[first]: box.append(s))
    pub = bus.client("node00", "pub")
    for first in ("news", "feed0", "alpha", "beta"):
        for n in range(3):
            pub.publish(f"{first}.m{n}", {"n": n})
    bus.settle(2.0)
    for first in ("news", "feed0", "alpha", "beta"):
        assert received[first] == [f"{first}.m{n}" for n in range(3)]
    daemon = bus.daemon("node00")
    shard_map = daemon.map
    snapshot = daemon.metrics.snapshot()
    for first in ("news", "feed0", "alpha", "beta"):
        shard = shard_map.shard_of(f"{first}.m0")
        name = f"daemon.node00.shard.routed[s{shard}]"
        assert snapshot[name]["value"] >= 3
    # each literal-first pattern landed on exactly one plane, so the
    # per-plane published counters only count their own subjects
    by_shard = {row["shard"]: row for row in daemon.shard_stats()}
    assert sum(row["published"] for row in by_shard.values()) == \
        daemon.published


def test_wildcard_first_subscription_fans_to_all_planes():
    bus = make_bus(shards=4)
    everything = []
    bus.client("node01", "monitor").subscribe(
        ">", lambda s, o, i: everything.append(s))
    pub = bus.client("node00", "pub")
    for first in ("news", "feed0", "alpha", "beta"):
        pub.publish(f"{first}.x", {"n": 1})
    bus.settle(2.0)
    assert sorted(everything) == ["alpha.x", "beta.x", "feed0.x", "news.x"]
    daemon = bus.daemon("node01")
    snapshot = daemon.metrics.snapshot()
    assert snapshot["daemon.node01.shard.fanout_subscriptions"]["value"] \
        >= 1
    # the fanned pattern occupies a slot on every plane
    assert daemon.subscription_count() >= 4


def test_facade_counters_sum_across_planes():
    bus = make_bus(shards=4)
    bus.client("node01", "sub").subscribe(">", lambda *a: None)
    pub = bus.client("node00", "pub")
    for first in ("news", "feed0", "alpha", "beta"):
        pub.publish(f"{first}.x", {"n": 1})
    bus.settle(2.0)
    daemon = bus.daemon("node00")
    assert daemon.published >= 4
    assert bus.daemon("node01").delivered >= 4
    # flow_stats keeps the per-client deliver[...] keys the client's
    # delivery_stats view depends on
    flow = bus.daemon("node01").flow_stats()
    assert any(key.startswith("deliver[") for key in flow)


# ----------------------------------------------------------------------
# discovery across shards (service and inquiry subjects on different
# planes: ``_discovery.*`` pins to shard 0, ``svc.*`` hashes to plane 1)
# ----------------------------------------------------------------------

def test_discovery_spans_control_and_data_planes():
    bus = make_bus(shards=4, hosts=3)
    shard_map = bus.daemon("node00").map
    service = "svc.quotes"
    assert shard_map.shard_of(service) != 0
    assert shard_map.shard_of(inquiry_subject(service)) == 0
    servers = {i: bus.client(f"node0{i}", f"server{i}") for i in (1, 2)}
    for i, server in servers.items():
        Responder(server, service, info={"member": i})
    results = []
    caller = bus.client("node00", "client")
    Inquiry(caller, service, results.append, window=0.3)
    bus.run_for(1.0)
    assert len(results) == 1
    assert {d.responder for d in results[0]} == \
        {"node01.server1", "node02.server2"}
    # ...and the discovered service is reachable on its own data plane
    answered = []
    servers[1].subscribe(
        f"{service}.req", lambda s, o, i: answered.append(o["n"]))
    caller.publish(f"{service}.req", {"n": 7})
    bus.settle(1.0)
    assert answered == [7]


def test_discovery_works_whichever_plane_the_service_hashes_to():
    bus = make_bus(shards=2, hosts=2)
    shard_map = bus.daemon("node00").map
    # one service per plane (svc -> 1, news -> 0 at two shards)
    services = {"svc.quotes": None, "news.wire": None}
    assert {shard_map.shard_of(s) for s in services} == {0, 1}
    for subject in services:
        Responder(bus.client("node01", f"srv.{subject}"), subject)
    for subject in services:
        box = []
        services[subject] = box
        Inquiry(bus.client("node00", f"c.{subject}"), subject, box.append,
                window=0.3)
    bus.run_for(1.0)
    for subject, box in services.items():
        assert len(box) == 1 and len(box[0]) == 1, subject


# ----------------------------------------------------------------------
# guaranteed delivery per plane
# ----------------------------------------------------------------------

def test_guaranteed_ledgers_are_namespaced_per_plane():
    bus = make_bus(shards=4, hosts=2)
    reg = record_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "db").subscribe(
        ">", lambda s, o, i: received.append((s, o.get("n"))), durable=True)
    # gd -> plane 2 and news -> plane 0 at four shards: two ledgers
    pub.publish("gd.data", DataObject(reg, "record", n=1),
                qos=QoS.GUARANTEED)
    pub.publish("news.data", DataObject(reg, "record", n=2),
                qos=QoS.GUARANTEED)
    stable = bus.host("node00").stable
    shard_map = bus.daemon("node00").map
    assert shard_map.shard_of("gd.data") == 2
    assert shard_map.shard_of("news.data") == 0
    # shard 0 uses the classic log, other planes suffix their namespace
    plane0 = StableLedger(stable, "gd.ledger", "node00/").pending()
    plane2 = StableLedger(stable, "gd.ledgers2", "node00/s2.").pending()
    assert len(plane0) == 1
    assert len(plane2) == 1
    assert plane2[0].ledger_id.startswith("node00/s2.")
    bus.settle(3.0)
    assert sorted(received) == [("gd.data", 1), ("news.data", 2)]
    assert bus.daemon("node00").guaranteed_pending() == []


def test_guaranteed_survives_publisher_crash_on_nonzero_plane():
    bus = make_bus(shards=4, hosts=3, seed=3)
    reg = record_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "db").subscribe(
        "gd.>", lambda s, o, i: received.append(o.get("n")), durable=True)
    bus.partition({"node00"}, {"node01", "node02"})
    pub.publish("gd.data", DataObject(reg, "record", n=1),
                qos=QoS.GUARANTEED)
    bus.settle(1.0)
    bus.crash_host("node00")
    bus.heal()
    bus.run_for(1.0)
    assert received == []
    bus.recover_host("node00")   # plane 2's ledger reloads from stable
    bus.settle(5.0)
    assert received == [1]
    assert bus.daemon("node00").guaranteed_pending() == []


def test_recovery_reattaches_subscriptions_on_every_plane():
    bus = make_bus(shards=4, hosts=2, seed=5)
    received = []
    bus.client("node01", "monitor").subscribe(
        ">", lambda s, o, i: received.append(s))
    pub = bus.client("node00", "pub")
    bus.run_for(0.2)
    bus.crash_host("node01")
    bus.run_for(0.5)
    bus.recover_host("node01")
    bus.run_for(0.5)
    for first in ("news", "feed0", "alpha", "beta"):
        pub.publish(f"{first}.x", {"n": 1})
    bus.settle(2.0)
    assert sorted(received) == ["alpha.x", "beta.x", "feed0.x", "news.x"]


# ----------------------------------------------------------------------
# telemetry across planes
# ----------------------------------------------------------------------

def test_browser_labels_shard_planes():
    bus = make_bus(shards=2, hosts=2, seed=2,
                   stat_interval=0.1, advert_interval=0.5)
    bus.client("node01", "sub").subscribe("feed0.>", lambda *a: None)
    pub = bus.client("node00", "pub")
    for n in range(10):
        pub.publish("feed0.x", {"n": n})      # plane 1 traffic
    browser = BusBrowser(bus.client("node01", "browser"))
    bus.run_for(1.0)
    sources = {t.source: t for t in browser.telemetry()}
    # every plane is its own snapshot source, shard 0 included
    assert set(sources) == {"node00.daemon.s0", "node00.daemon.s1",
                            "node01.daemon.s0", "node01.daemon.s1"}
    assert sources["node00.daemon.s0"].shard == 0
    assert sources["node00.daemon.s1"].shard == 1
    # the traffic ran on plane 1; plane 0 never saw it
    plane1 = sources["node00.daemon.s1"].metrics
    assert plane1["daemon.node00.published"]["value"] >= 10
    assert plane1["daemon.node00.shard.id"]["value"] == 1
    assert plane1["daemon.node00.shard.count"]["value"] == 2
    # bus_top sums planes without double counting
    top = browser.bus_top()
    assert top["hosts"] == 4   # one source per plane
    assert top["published"] >= 10
    assert "shard=1" in browser.report()


# ----------------------------------------------------------------------
# routers bridge sharded buses
# ----------------------------------------------------------------------

def test_router_bridges_two_sharded_buses():
    sim = Simulator(seed=6)
    config = sharded_config(4, advert_interval=0.5)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=config)
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=sharded_config(2, advert_interval=0.5))
    east.add_hosts(2, prefix="e")
    west.add_hosts(2, prefix="w")
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    received = []
    west.client("w00", "sub").subscribe(
        "feed0.>", lambda s, o, i: received.append(o["n"]))
    sim.run_until(2.0)
    pub = east.client("e00", "pub")
    for n in range(5):
        pub.publish("feed0.x", {"n": n})
    sim.run_until(5.0)
    assert received == list(range(5))
    # the leg forwarded across planes with its usual counters
    assert any(s["forwarded"] >= 5 for s in router.leg_stats().values())
