"""Unit tests for the node model: CPU charging, handler priority."""

import pytest

from repro.errors import ConfigError
from repro.machine import Cluster, CostModel
from repro.machine.node import HANDLER_PRIORITY, THREAD_PRIORITY
from repro.metrics.counters import Category
from repro.network import Message, MessageKind
from repro.sim import spawn


def test_cluster_builds_nodes():
    cluster = Cluster(num_nodes=4, page_size=4096)
    assert len(cluster.nodes) == 4
    assert cluster.node(2).node_id == 2


def test_cluster_validation():
    with pytest.raises(ConfigError):
        Cluster(num_nodes=1)
    with pytest.raises(ConfigError):
        Cluster(num_nodes=2, page_size=100)
    with pytest.raises(ConfigError):
        Cluster(num_nodes=2).node(9)


def test_occupy_charges_category():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)

    def work():
        yield from node.occupy(100.0, Category.BUSY)
        yield from node.occupy(30.0, Category.DSM)

    spawn(cluster.sim, work())
    cluster.run()
    assert node.breakdown.times[Category.BUSY] == pytest.approx(100.0)
    assert node.breakdown.times[Category.DSM] == pytest.approx(30.0)
    assert node.breakdown.charged_cpu == pytest.approx(130.0)


def test_occupy_serializes_on_one_cpu():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    finish_times = []

    def work(tag):
        yield from node.occupy(50.0, Category.BUSY)
        finish_times.append(cluster.sim.now)

    spawn(cluster.sim, work("a"))
    spawn(cluster.sim, work("b"))
    cluster.run()
    assert finish_times == [50.0, 100.0]


def test_contended_and_idle_occupy_charge_the_same_breakdown():
    """A grant on an idle CPU (no event) and a queued grant charge alike."""

    def run(stagger):
        cluster = Cluster(num_nodes=2)
        node = cluster.node(0)

        def work(delay, duration, category):
            yield cluster.sim.timeout(delay)
            yield from node.occupy(duration, category)

        spawn(cluster.sim, work(0.0, 100.0, Category.BUSY))
        spawn(cluster.sim, work(stagger, 30.0, Category.DSM))
        cluster.run()
        return node.breakdown, cluster.sim.now

    idle, idle_end = run(stagger=200.0)  # second charge finds the CPU free
    contended, contended_end = run(stagger=10.0)  # ... or queues for it
    assert idle.times == contended.times
    assert idle.charged_cpu == contended.charged_cpu == 130.0
    assert (idle_end, contended_end) == (230.0, 130.0)


def test_queued_handler_runs_before_queued_threads():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    order = []

    def work(tag, delay, priority):
        yield cluster.sim.timeout(delay)
        yield from node.occupy(10.0, Category.DSM, priority=priority)
        order.append((tag, cluster.sim.now))

    spawn(cluster.sim, work("holder", 0.0, THREAD_PRIORITY))
    spawn(cluster.sim, work("thread", 1.0, THREAD_PRIORITY))
    spawn(cluster.sim, work("handler", 2.0, HANDLER_PRIORITY))
    cluster.run()
    assert order == [("holder", 10.0), ("handler", 20.0), ("thread", 30.0)]


def test_zero_duration_occupy_is_free():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)

    def work():
        yield from node.occupy(0.0, Category.BUSY)

    proc = spawn(cluster.sim, work())
    cluster.run()
    assert proc.triggered
    assert node.breakdown.total == 0.0


def test_message_send_charges_dsm_and_delivers():
    cluster = Cluster(num_nodes=2)
    sender, receiver = cluster.node(0), cluster.node(1)
    seen = []
    receiver.set_message_handler(lambda msg: iter(seen.append(msg) or ()))

    def work():
        accepted = yield from sender.send_message(
            Message(src=0, dst=1, kind=MessageKind.DIFF_REQUEST, size_bytes=64)
        )
        assert accepted

    spawn(cluster.sim, work())
    cluster.run()
    assert len(seen) == 1
    assert sender.breakdown.times[Category.DSM] == pytest.approx(
        sender.costs.msg_send_cpu
    )
    # The receiver charged its receive cost.
    assert receiver.breakdown.times[Category.DSM] >= receiver.costs.msg_recv_cpu


def test_mt_mode_adds_async_arrival_cost():
    plain = Cluster(num_nodes=2)
    plain.node(1).set_message_handler(lambda m: iter(()))

    def send(cluster):
        def work():
            yield from cluster.node(0).send_message(
                Message(src=0, dst=1, kind=MessageKind.DIFF_REQUEST, size_bytes=64)
            )

        spawn(cluster.sim, work())
        cluster.run()
        return cluster.node(1).breakdown.times[Category.DSM]

    base_cost = send(plain)
    mt = Cluster(num_nodes=2)
    mt.node(1).set_message_handler(lambda m: iter(()))
    mt.node(1).mt_mode = True
    mt_cost = send(mt)
    assert mt_cost == pytest.approx(base_cost + mt.costs.async_arrival_extra)


def test_cost_model_validation_and_overrides():
    with pytest.raises(ConfigError):
        CostModel(context_switch=-1)
    with pytest.raises(ConfigError):
        CostModel(cpu_mhz=0)
    faster = CostModel().with_overrides(context_switch=10.0)
    assert faster.context_switch == 10.0
    assert CostModel().context_switch == 110.0


def test_cost_model_helpers():
    costs = CostModel()
    assert costs.cycles_us(133.0) == pytest.approx(1.0)
    assert costs.diff_create_us(4096, 0) > 0
    assert costs.diff_apply_us(100) > costs.diff_apply_us(0)
