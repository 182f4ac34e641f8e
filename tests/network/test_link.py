"""Unit tests for the link model: serialization, queueing, drops."""

import pytest

from repro.errors import NetworkError
from repro.network import LinkConfig, Message, MessageKind
from repro.network.link import ATM_CELL_PAYLOAD, ATM_CELL_SIZE, Link
from repro.sim import Simulator


def make_msg(size, reliable=True):
    kind = MessageKind.DIFF_REQUEST if reliable else MessageKind.PREFETCH_REQUEST
    return Message(src=0, dst=1, kind=kind, size_bytes=size, reliable=reliable)


def test_wire_bytes_accounts_for_headers_and_cells():
    cfg = LinkConfig(header_bytes=60)
    # 4 bytes payload + 60 header = 64 -> 2 cells -> 106 wire bytes
    assert cfg.wire_bytes(4) == 2 * ATM_CELL_SIZE
    # Cell boundaries, with no framing: a full cell payload fits one
    # cell, one byte more spills into a second.
    bare = LinkConfig(header_bytes=0)
    assert bare.wire_bytes(ATM_CELL_PAYLOAD) == ATM_CELL_SIZE == 53
    assert bare.wire_bytes(ATM_CELL_PAYLOAD + 1) == 2 * ATM_CELL_SIZE == 106


def test_serialization_time_matches_bandwidth():
    cfg = LinkConfig(bandwidth_mbps=155.0, header_bytes=60)
    payload = 4096
    expected_us = cfg.wire_bytes(payload) * 8 / 155.0
    assert cfg.serialization_us(payload) == pytest.approx(expected_us)
    # A 4KB page takes on the order of 200+ microseconds at OC-3 rates.
    assert 150 < cfg.serialization_us(payload) < 400


def test_invalid_configs_rejected():
    with pytest.raises(NetworkError):
        LinkConfig(bandwidth_mbps=0)
    with pytest.raises(NetworkError):
        LinkConfig(queue_capacity_bytes=0)


def test_link_delivers_after_serialization_and_propagation():
    sim = Simulator()
    cfg = LinkConfig(bandwidth_mbps=100.0, propagation_us=2.0, header_bytes=0)
    delivered = []
    link = Link(sim, cfg, lambda m: delivered.append((m, sim.now)))
    msg = make_msg(100)
    assert link.send(msg)
    sim.run()
    wire_us = cfg.wire_bytes(100) * 8 / 100.0
    assert delivered[0][1] == pytest.approx(wire_us + 2.0)


def test_link_serializes_back_to_back_messages():
    sim = Simulator()
    cfg = LinkConfig(bandwidth_mbps=100.0, propagation_us=0.0, header_bytes=0)
    times = []
    link = Link(sim, cfg, lambda m: times.append(sim.now))
    for _ in range(3):
        link.send(make_msg(1000))
    sim.run()
    per_msg = cfg.serialization_us(1000)
    assert times == pytest.approx([per_msg, 2 * per_msg, 3 * per_msg])


def test_unreliable_dropped_when_queue_full():
    sim = Simulator()
    cfg = LinkConfig(queue_capacity_bytes=1000, header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    # Fill the queue with one large reliable message (never dropped).
    assert link.send(make_msg(900, reliable=True))
    assert not link.send(make_msg(500, reliable=False))
    assert link.messages_dropped == 1


def test_reliable_never_dropped_even_when_full():
    sim = Simulator()
    cfg = LinkConfig(queue_capacity_bytes=1000, header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    for _ in range(10):
        assert link.send(make_msg(900, reliable=True))
    assert link.messages_dropped == 0


def test_queue_drains_allowing_later_unreliable_sends():
    sim = Simulator()
    cfg = LinkConfig(queue_capacity_bytes=2000, header_bytes=0, propagation_us=0.0)
    link = Link(sim, cfg, lambda m: None)
    assert link.send(make_msg(1500, reliable=True))
    assert not link.send(make_msg(1000, reliable=False))
    sim.run()  # drain
    assert link.send(make_msg(1000, reliable=False))


def test_link_statistics():
    sim = Simulator()
    cfg = LinkConfig(header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    link.send(make_msg(100))
    link.send(make_msg(200))
    sim.run()
    assert link.messages_sent == 2
    assert link.bytes_sent == cfg.wire_bytes(100) + cfg.wire_bytes(200)
    assert link.busy_time > 0
    assert 0 < link.utilization(sim.now) <= 1.0


def test_negative_propagation_rejected():
    with pytest.raises(NetworkError):
        LinkConfig(propagation_us=-1.0)


def test_negative_header_bytes_rejected():
    with pytest.raises(NetworkError):
        LinkConfig(header_bytes=-8)


def test_utilization_under_back_to_back_sends():
    """Three back-to-back messages keep the link busy the whole run, so
    utilization is exactly 1; idle time afterwards dilutes it."""
    sim = Simulator()
    cfg = LinkConfig(bandwidth_mbps=100.0, propagation_us=0.0, header_bytes=0)
    link = Link(sim, cfg, lambda m: None)
    for _ in range(3):
        assert link.send(make_msg(1000))
    sim.run()
    per_msg = cfg.serialization_us(1000)
    assert link.busy_time == pytest.approx(3 * per_msg)
    assert link.utilization(sim.now) == pytest.approx(1.0)
    # Half as much idle time again halves the utilization figure.
    assert link.utilization(sim.now * 2) == pytest.approx(0.5)


def test_mixed_burst_departure_and_delivery_times():
    """Hand-computed schedule for a burst of reliable and unreliable sends.

    At 424 Mbps one 53-byte cell takes exactly 1 us on the wire, so every
    time below is exact.  The queue holds four cells (212 bytes); the
    message on the wire still counts against it until it departs.
    """
    sim = Simulator()
    cfg = LinkConfig(
        bandwidth_mbps=8 * ATM_CELL_SIZE,
        propagation_us=0.5,
        header_bytes=0,
        queue_capacity_bytes=4 * ATM_CELL_SIZE,
    )
    delivered = []
    link = Link(sim, cfg, lambda m: delivered.append((m.msg_id, sim.now)))
    one_cell, two_cells = ATM_CELL_PAYLOAD, 2 * ATM_CELL_PAYLOAD
    accepted = {}

    def send(tag, size, reliable):
        msg = make_msg(size, reliable=reliable)
        msg.msg_id = tag
        accepted[tag] = (sim.now, link.send(msg), link.queued_bytes)

    # t=0: A (2 cells) departs at 2; B (1 cell) queues behind it and
    # departs at 3; C (2 cells, unreliable) would overfill the queue
    # (159 + 106 > 212) and is dropped; D (reliable) queues regardless.
    send("A", two_cells, True)
    send("B", one_cell, False)
    send("C", two_cells, False)
    send("D", two_cells, True)
    # t=3 is B's departure instant, but this send was scheduled first, so
    # it runs first: B still occupies the queue (159 + 106 > 212), drop.
    sim.schedule(3.0, send, "E", two_cells, False)
    # t=5 is D's departure instant: F queues behind D and departs at 6.
    sim.schedule(5.0, send, "F", one_cell, True)
    # t=10: the link is idle again, so G goes straight onto the wire.
    sim.schedule(10.0, send, "G", one_cell, False)
    sim.run()

    assert accepted == {
        "A": (0.0, True, 106),
        "B": (0.0, True, 159),
        "C": (0.0, False, 159),
        "D": (0.0, True, 265),
        "E": (3.0, False, 159),
        "F": (5.0, True, 159),
        "G": (10.0, True, 53),
    }
    assert delivered == [("A", 2.5), ("B", 3.5), ("D", 5.5), ("F", 6.5), ("G", 11.5)]
    assert link.messages_dropped == 2
    assert link.messages_sent == 5
    assert link.bytes_sent == 7 * ATM_CELL_SIZE
    assert link.busy_time == 7.0
    assert link.queued_bytes == 0


def test_idle_link_uses_no_kernel_process_or_event():
    """A send on an idle link is one heap entry; no process is spawned."""
    sim = Simulator()
    cfg = LinkConfig(propagation_us=1.0)
    link = Link(sim, cfg, lambda m: None)
    assert not sim._processes and not sim._heap and not sim._nowq
    link.send(make_msg(100))
    link.send(make_msg(100))  # queues behind the first: no new entry
    assert len(sim._heap) == 1 and not sim._nowq
    sim.run()
    # Per message: one departure and one delivery.
    assert sim.events_handled == 4
