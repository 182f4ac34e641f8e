"""Queueing resources for the simulation kernel.

Two primitives cover everything the library needs:

- :class:`Resource` — a counted resource with a FIFO (optionally
  priority-ordered) wait queue; models a CPU, a link, a NIC.
- :class:`Store` — an unbounded FIFO of items with blocking ``get``;
  models a message queue.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counted resource with a priority wait queue.

    ``acquire`` returns an :class:`Event` that succeeds when a unit is
    granted; the holder must call ``release`` exactly once per grant.
    Lower ``priority`` values are served first; ties are FIFO.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._acquire_name = f"acquire({name})"
        self._in_use = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._sequence = itertools.count()
        # Occupancy statistics.
        self.total_wait_time = 0.0
        self.total_grants = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self, priority: int = 0) -> Event:
        event = Event(self.sim, name=self._acquire_name)
        event._requested_at = self.sim.now  # type: ignore[attr-defined]
        if self._in_use < self.capacity and not self._queue:
            self._grant(event)
        else:
            heapq.heappush(self._queue, (priority, next(self._sequence), event))
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._queue and self._in_use < self.capacity:
            _prio, _seq, event = heapq.heappop(self._queue)
            self._grant(event)

    def _grant(self, event: Event) -> None:
        self._in_use += 1
        self.total_grants += 1
        self.total_wait_time += self.sim.now - event._requested_at  # type: ignore[attr-defined]
        event.succeed(self)

    def use(self, duration: float, priority: int = 0) -> Generator[Event, Any, None]:
        """Generator helper: hold the resource for ``duration``.

        Usage inside a process: ``yield from resource.use(10.0)``.
        """
        yield self.acquire(priority)
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an Event that succeeds with
    the oldest item; waiters are served in FIFO order.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._get_name = f"get({name})"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim, name=self._get_name)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (for inspection/tests)."""
        return list(self._items)
