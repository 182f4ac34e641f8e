"""The workstation node model.

A :class:`Node` bundles the per-machine state: one CPU (a unit
:class:`~repro.sim.resources.Resource`), the local page store, the time
breakdown counters, and the network attachment.  Protocol layers (DSM,
threads, prefetching) hang their state off the node and charge CPU time
through :meth:`Node.occupy`.

CPU arbitration: message handlers acquire the CPU at higher priority
than application threads, approximating SIGIO-driven upcalls — an
arriving request is serviced as soon as the current compute quantum
yields.  Blocked threads never hold the CPU, so a node that is stalled
on a remote miss services incoming requests immediately (the "spinning"
case of the single-threaded DSM).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.machine.timing import CostModel
from repro.memory import PageStore
from repro.metrics.counters import Category, EventCounters, TimeBreakdown
from repro.network import Message, Network
from repro.sim import Event, Simulator, spawn

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.transport import ReliableTransport

__all__ = ["Node", "HANDLER_PRIORITY", "THREAD_PRIORITY"]

HANDLER_PRIORITY = 0
THREAD_PRIORITY = 1


class Node:
    """One simulated workstation."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        network: Network,
        costs: CostModel,
        page_size: int,
    ) -> None:
        from repro.sim import Resource  # local import to keep module deps flat

        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.costs = costs
        self.pages = PageStore(page_size)
        self.breakdown = TimeBreakdown()
        self.events = EventCounters()
        self.cpu = Resource(sim, capacity=1, name=f"cpu[{node_id}]")
        # Spawn labels for the per-message processes, formatted once.
        self._handler_name = f"handler[{node_id}]"
        self._group = f"node{node_id}"
        #: True until this node's first CPU charge (see :meth:`occupy`).
        self._first_charge = True
        #: Set by the scheduler: multithreaded nodes pay an extra signal
        #: cost per asynchronous message arrival.
        self.mt_mode = False
        self._dispatch: Optional[Callable[[Message], Generator]] = None
        #: Optional hook invoked synchronously for every message arriving
        #: at this node, before any handler runs.  The failure detector
        #: piggybacks on it: any delivered traffic proves the sender was
        #: recently alive, so explicit heartbeats only fill silences.
        self.message_observer: Optional[Callable[[Message], None]] = None
        #: Reliable transport layer (installed by the cluster when on).
        #: With it, reliable protocol messages become tracked datagrams:
        #: retransmitted on timeout, acked and deduplicated on receipt.
        self.transport: Optional["ReliableTransport"] = None
        network.attach(node_id, self._on_message)

    def install_transport(self, transport: "ReliableTransport") -> None:
        self.transport = transport

    def reset_cpu(self) -> None:
        """Replace the CPU resource (crash rollback).

        Cancelled handlers/threads may have left acquisitions or queued
        waiters behind; a fresh resource discards them wholesale instead
        of unwinding the queue entry by entry.
        """
        from repro.sim import Resource

        self.cpu = Resource(self.sim, capacity=1, name=f"cpu[{self.node_id}]")

    # -- CPU charging -----------------------------------------------------

    def occupy(
        self, duration: float, category: Category, priority: int = THREAD_PRIORITY
    ) -> Generator[Event | float, Any, None]:
        """Hold the CPU for ``duration`` us, charged to ``category``.

        Usage: ``yield from node.occupy(30.0, Category.DSM)``.
        """
        if duration <= 0:
            return
        cpu = self.cpu
        if not cpu.try_acquire():  # idle CPU: granted with no event
            yield cpu.acquire(priority)
        try:
            started = self.sim.now
            if self._first_charge:
                # The node's first charge waits on a ``Timeout``: the
                # same heap entry and callback count as a delay, so the
                # results are identical.  perfbench's traced mode reads
                # its ``Simulator.timeout`` call counter without a
                # default and fails on a run that never calls it; drop
                # this once it reads a missing counter as 0.
                self._first_charge = False
                yield self.sim.timeout(float(duration))
            else:
                # A bare delay: the kernel resumes this frame from one
                # heap entry.  Charges may arrive as ``int`` or
                # ``np.float64``; ``float()`` keeps the value exact and
                # ``sim.now`` a Python float.
                yield float(duration)
            self.breakdown.charge(category, duration)
            if self.sim.trace_on:
                tr = self.sim.trace
                # One cpu slice per charge: the PhaseTimeline audit
                # rebuilds the TimeBreakdown from exactly these events.
                # The start is captured *before* the delay, not derived
                # as ``now - duration``: float subtraction would not
                # round-trip, and the critical-path builder matches slice
                # boundaries against message timestamps bit-exactly.
                tr.slice(started, duration, "cpu", category.value, self.node_id)
        finally:
            self.cpu.release()

    # -- messaging ---------------------------------------------------------

    def set_message_handler(self, dispatch: Callable[[Message], Generator]) -> None:
        """Register the protocol dispatcher.

        ``dispatch(message)`` must be a generator; it runs as a process
        after the receive cost has been charged.
        """
        self._dispatch = dispatch

    def send_message(self, message: Message) -> Generator[Event, Any, bool]:
        """Charge the send cost, then inject the message into the network.

        Reliable messages go through the transport when one is installed
        (the transport owns retransmission; the call returns once the
        first copy is in flight).  Returns whether the network accepted
        the datagram (False = dropped before the wire, meaningful only
        for untracked unreliable messages).
        """
        yield from self.occupy(self.costs.msg_send_cpu, Category.DSM)
        if self.transport is not None and message.reliable:
            return self.transport.send_tracked(message)
        return self.network.send(message)

    def _on_message(self, message: Message) -> None:
        if message.corrupted:
            # End-to-end checksum mismatch: discard before the liveness
            # observer or any protocol code sees the frame — a mangled
            # message is not evidence its sender is alive, and it is
            # never acked, so the reliable transport retransmits it.
            spawn(
                self.sim,
                self._discard_corrupt(message),
                name=f"checksum[{self.node_id}]",
                group=self._group,
            )
            return
        if self.message_observer is not None:
            self.message_observer(message)
        spawn(
            self.sim,
            self._handle(message),
            name=self._handler_name,
            group=self._group,
        )

    def _discard_corrupt(self, message: Message) -> Generator[Event, Any, None]:
        recv_cost = self.costs.msg_recv_cpu
        if self.mt_mode:
            recv_cost += self.costs.async_arrival_extra
        # The frame must be read to be checksummed: pay the receive cost.
        yield from self.occupy(recv_cost, Category.DSM, priority=HANDLER_PRIORITY)
        self.events.corruption_detected += 1
        if self.sim.trace_on:
            tr = self.sim.trace
            tr.instant(
                self.sim.now,
                "network",
                "msg_checksum_fail",
                self.node_id,
                kind=message.kind.value,
                src=message.src,
            )

    def _handle(self, message: Message) -> Generator[Event, Any, None]:
        recv_cost = self.costs.msg_recv_cpu
        if self.mt_mode:
            recv_cost += self.costs.async_arrival_extra
        yield from self.occupy(recv_cost, Category.DSM, priority=HANDLER_PRIORITY)
        if self.transport is not None:
            deliver = yield from self.transport.on_receive(message)
            if not deliver:
                return  # an ack, or a suppressed duplicate
        if self._dispatch is None:
            return
        yield from self._dispatch(message)
