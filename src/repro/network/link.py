"""Point-to-point link model with serialization delay and finite queue.

A link transmits one message at a time at a fixed bandwidth.  Messages
queue FIFO behind the transmitter.  The queue is finite in *bytes*; when
it is full, unreliable messages are dropped (the ATM switch has no
retransmission — TreadMarks' reliable channel retransmits above it, so
reliable messages are modelled as never lost, only delayed).

The transmitter is closed form rather than a kernel process: each
message costs two heap entries (departure after serialization, then
delivery after propagation) and no :class:`~repro.sim.Event` objects.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from repro.errors import NetworkError
from repro.network.message import Message
from repro.sim import Simulator

__all__ = ["LinkConfig", "Link"]

ATM_CELL_PAYLOAD = 48
ATM_CELL_SIZE = 53


class LinkConfig:
    """Physical parameters of a link.

    Defaults model the paper's 155 Mbps OC-3 ATM fabric: AAL5/UDP/IP
    framing (~60 bytes per datagram) plus 53/48 cell expansion.
    """

    def __init__(
        self,
        bandwidth_mbps: float = 155.0,
        propagation_us: float = 1.0,
        header_bytes: int = 60,
        # The ASX-200 class switch buffers ~13K cells; a 256 KB port
        # queue is the per-port share of that.
        queue_capacity_bytes: int = 256 * 1024,
    ) -> None:
        if bandwidth_mbps <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth_mbps}")
        if queue_capacity_bytes <= 0:
            raise NetworkError("queue capacity must be positive")
        if propagation_us < 0:
            raise NetworkError(f"propagation delay must be >= 0, got {propagation_us}")
        if header_bytes < 0:
            raise NetworkError(f"header bytes must be >= 0, got {header_bytes}")
        self.bandwidth_mbps = bandwidth_mbps
        self.propagation_us = propagation_us
        self.header_bytes = header_bytes
        self.queue_capacity_bytes = queue_capacity_bytes

    def wire_bytes(self, payload_bytes: int) -> int:
        """Bytes actually occupying the wire, including framing."""
        datagram = payload_bytes + self.header_bytes
        cells = math.ceil(datagram / ATM_CELL_PAYLOAD)
        return cells * ATM_CELL_SIZE

    def serialization_us(self, payload_bytes: int) -> float:
        """Time to clock the message onto the wire, in microseconds."""
        bits = self.wire_bytes(payload_bytes) * 8
        return bits / self.bandwidth_mbps  # Mbps == bits per microsecond


class Link:
    """One simplex link: FIFO queue + transmitter + propagation delay.

    The transmitter is a closed-form FIFO server over one queue of
    ``(message, wire bytes)``, head on the wire: a send to an idle link
    schedules the departure one serialization time ahead, and each
    departure schedules the delivery and then the next departure, in
    that order.
    """

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig,
        sink: Callable[[Message], None],
        name: str = "",
    ) -> None:
        self.sim = sim
        self.config = config
        self.sink = sink
        self.name = name
        #: ``(message, wire bytes)`` in FIFO order; the head is on the wire.
        self._queue: deque[tuple[Message, int]] = deque()
        self._queued_bytes = 0
        # Statistics.
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.busy_time = 0.0

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the transmitter was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def send(self, message: Message) -> bool:
        """Enqueue a message; returns False if it was dropped.

        Unreliable messages are dropped when the queue (plus the message
        itself) would exceed capacity.  Reliable messages always queue;
        their delay simply grows — modelling the retransmitting
        transport that TreadMarks layers over UDP.
        """
        config = self.config
        wire = config.wire_bytes(message.size_bytes)
        if not message.reliable and self._queued_bytes + wire > config.queue_capacity_bytes:
            self.messages_dropped += 1
            return False
        self._queued_bytes += wire
        queue = self._queue
        queue.append((message, wire))
        if len(queue) == 1:  # the link was idle
            # Mbps == bits per microsecond.
            self.sim.schedule(wire * 8 / config.bandwidth_mbps, self._done)
        return True

    def _done(self) -> None:
        """The head message has left the wire: account it, start the next one."""
        config = self.config
        queue = self._queue
        message, wire = queue.popleft()
        self.busy_time += wire * 8 / config.bandwidth_mbps
        self._queued_bytes -= wire
        self.messages_sent += 1
        self.bytes_sent += wire
        self.sim.schedule(config.propagation_us, self.sink, message)
        if queue:
            self.sim.schedule(queue[0][1] * 8 / config.bandwidth_mbps, self._done)
