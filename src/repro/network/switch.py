"""Output-queued ATM switch model.

The paper's testbed uses a single FORE ASX-200WG switch in a star
topology.  We model it as an output-queued crossbar: a message arriving
from any uplink is forwarded — after a small fixed switching latency —
onto the downlink queue of its destination port.  Congestion therefore
appears exactly where it did in the paper: on the downlink of a hot node
(e.g. the master during initialization) and on uplinks during bursty
all-to-all phases.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import NetworkError
from repro.network.link import Link, LinkConfig
from repro.network.message import Message
from repro.sim import Simulator

__all__ = ["Switch"]


class Switch:
    """A star switch with one downlink (output port) per node."""

    def __init__(
        self,
        sim: Simulator,
        num_ports: int,
        link_config: LinkConfig,
        deliver: Callable[[Message], None],
        latency_us: float = 10.0,
        on_drop: Callable[[Message], None] | None = None,
    ) -> None:
        if num_ports < 2:
            raise NetworkError(f"a switch needs >= 2 ports, got {num_ports}")
        self.sim = sim
        self.num_ports = num_ports
        self.latency_us = latency_us
        self._deliver = deliver
        self._on_drop = on_drop
        self.downlinks: list[Link] = [
            Link(sim, link_config, deliver, name=f"down[{port}]")
            for port in range(num_ports)
        ]
        self.forwarded = 0
        self.dropped = 0

    def accept(self, message: Message) -> None:
        """Entry point for messages arriving from node uplinks."""
        if not 0 <= message.dst < self.num_ports:
            raise NetworkError(f"message to unknown port {message.dst}")
        self.sim.schedule(self.latency_us, self._forward, message)

    def _forward(self, message: Message) -> None:
        accepted = self.downlinks[message.dst].send(message)
        if accepted:
            self.forwarded += 1
        else:
            self.dropped += 1
            if self._on_drop is not None:
                self._on_drop(message)
