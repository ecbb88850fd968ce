"""The telemetry plane's two tested invariants.

1. **Neutrality** — publishing registry snapshots on ``_bus.stat.*``
   must never change data-plane behavior: a same-seed run with the
   publisher on is bit-identical (deliveries, traces, registry
   counters) to the same run with it off.
2. **No echo amplification** — stat traffic is unsequenced (seq 0),
   flow-controlled through a private bounded queue, and excluded from
   the counters it would otherwise perturb: an idle bus that only
   publishes telemetry reports zeros forever, one wire frame per
   snapshot.
"""

from repro.core import BusConfig, FlowConfig, InformationBus, QoS
from repro.sim import Simulator  # noqa: F401  (re-exported fixture surface)
from repro.sim.network import CostModel
from repro.sim.trace import Tracer

STAT = "_bus.stat.>"


def zero_cost():
    """Exact-zero send/recv cost and infinite wire: extra stat frames
    take literally no simulated time, so the data-plane event timeline
    cannot shift (the same trick as :mod:`repro.bench.differential`)."""
    cost = CostModel.ideal()
    cost.bandwidth_bytes_per_sec = float("inf")
    cost.cpu_send_per_packet = 0.0
    cost.cpu_recv_per_packet = 0.0
    return cost


def _run_workload(stat_interval):
    """A fixed-seed workload with lanes, QoS, and a crash/recovery."""
    tracer = Tracer(enabled=True)
    config = BusConfig(stat_interval=stat_interval)
    bus = InformationBus(seed=7, cost=zero_cost(), config=config,
                         tracer=tracer)
    bus.add_hosts(3)
    pub = bus.client("node00", "pub")
    slow = bus.client("node01", "slow", service_time=0.004)
    fast = bus.client("node02", "fast")
    inbox = []
    slow.subscribe("feed.>", lambda s, o, i: inbox.append(("slow", s, i.seq)))
    fast.subscribe("feed.>", lambda s, o, i: inbox.append(("fast", s, i.seq)))
    fast.subscribe("gold.>", lambda s, o, i: inbox.append(("gold", s)),
                   durable=True)

    def fire(n):
        if n >= 40:
            return
        pub.publish(f"feed.f{n % 4}", {"n": n})
        if n == 10:
            pub.publish("gold.g", {"n": n}, qos=QoS.GUARANTEED)
        if n == 20:
            bus.crash_host("node02")
        if n == 25:
            bus.recover_host("node02")
        bus.sim.schedule(0.02, fire, n + 1)

    bus.sim.schedule(0.0, fire, 0)
    bus.run_for(3.0)
    return {
        "inbox": inbox,
        "trace": [(r.time, r.category, r.fields) for r in tracer.records],
        "registries": {a: d.metrics.snapshot()
                       for a, d in bus.daemons.items()},
        "flow": bus.flow_stats(),
        "client_counts": [pub.messages_published, slow.messages_received,
                          fast.messages_received],
    }


def test_stat_publishing_is_behavior_neutral():
    off = _run_workload(stat_interval=0.0)
    on = _run_workload(stat_interval=0.05)
    assert on["inbox"] == off["inbox"]
    assert on["trace"] == off["trace"]
    assert on["registries"] == off["registries"]
    assert on["flow"] == off["flow"]
    assert on["client_counts"] == off["client_counts"]
    # sanity: the on-run actually published snapshots
    assert off["inbox"]   # and the workload actually delivered something


def test_stat_traffic_never_echo_amplifies():
    """An idle bus publishing only telemetry: data-plane counters stay
    zero, snapshots stay bit-stable, one wire frame per snapshot."""
    config = BusConfig(stat_interval=0.05, advertise_subscriptions=False)
    bus = InformationBus(seed=3, config=config)
    bus.add_hosts(2)
    watcher = bus.client("node01", "watcher")
    snapshots = []
    watcher.subscribe(STAT, lambda s, o, i: snapshots.append((s, o)))
    plain = bus.client("node01", "plain")
    leaked = []
    plain.subscribe(">", lambda s, o, i: leaked.append(s))
    bus.run_for(2.0)

    assert len(snapshots) > 20          # telemetry flows...
    assert leaked == []                 # ...but never into ">" wildcards
    for daemon in bus.daemons.values():
        # seq-0 traffic is excluded from every data-plane counter
        assert daemon.published == 0
        assert daemon.delivered == 0
        # exactly one broadcast per snapshot: no stat-triggered stats
        assert (daemon._stat_socket.datagrams_sent
                == daemon._stat_publisher.snapshots_published)
    # a daemon with no local stat subscriber reports bit-identical
    # metrics forever: its own publishing perturbs nothing it counts
    node00 = [o["metrics"] for s, o in snapshots
              if s.endswith("node00.daemon")]
    assert len(node00) > 10
    assert all(m == node00[0] for m in node00[1:])


def test_stat_self_traffic_is_not_measured_but_is_flow_controlled():
    config = BusConfig(stat_interval=0.02, advertise_subscriptions=False)
    bus = InformationBus(seed=5, config=config)
    bus.add_hosts(2)
    browser = bus.client("node00", "browser")
    got = []
    browser.subscribe(STAT, lambda s, o, i: got.append(i))
    bus.run_for(1.0)
    assert len(got) > 20
    assert all(info.seq == 0 for info in got)        # unsequenced
    daemon = bus.daemons["node00"]
    assert daemon.delivered == 0                      # not counted
    assert browser._latency.count == 0                # not measured
    # but delivered through the ordinary bounded lane (flow-controlled)
    assert browser.delivery_stats()["offered"] >= len(got)


def test_stat_queue_sheds_oldest_under_backpressure():
    """A paced wire + a fast publisher: the private stat queue fills,
    drops stale snapshots oldest-first, and never exceeds its bound."""
    cost = CostModel.ideal()
    cost.cpu_send_per_packet = 0.01      # each broadcast costs 10 ms
    config = BusConfig(stat_interval=0.005, stat_queue=4,
                       advertise_subscriptions=False,
                       flow=FlowConfig(max_send_backlog=0.005))
    bus = InformationBus(seed=9, cost=cost, config=config)
    bus.add_hosts(1)
    bus.run_for(2.0)
    daemon = bus.daemons["node00"]
    stats = daemon._stat_queue.stats
    assert stats.dropped_oldest > 0
    assert stats.high_watermark <= config.stat_queue
    assert stats.depth <= config.stat_queue
    # the stat queue's own accounting is deliberately NOT a registry
    # instrument: the registry must never describe the telemetry plane
    assert not any("stat[" in name for name in daemon.metrics.names())
    assert daemon.published == 0


def test_stat_plane_survives_crash_and_recovery():
    config = BusConfig(stat_interval=0.05, advertise_subscriptions=False)
    bus = InformationBus(seed=11, config=config)
    bus.add_hosts(2)
    watcher = bus.client("node01", "watcher")
    seen = []
    watcher.subscribe(STAT, lambda s, o, i: seen.append((bus.sim.now, s)))
    bus.run_for(0.5)
    before = len(seen)
    assert before > 0
    bus.crash_host("node00")
    bus.run_for(0.5)
    bus.recover_host("node00")
    bus.run_for(0.5)
    from_node00 = [t for t, s in seen if s.endswith("node00.daemon")]
    # publishing resumed after the restart (fresh publisher, same registry)
    assert any(t > 1.0 for t in from_node00)
