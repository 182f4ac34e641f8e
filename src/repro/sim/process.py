"""Generator-based processes for the simulation kernel.

A *process* is a Python generator that yields :class:`~repro.sim.core.Event`
objects; the process resumes — receiving the event's value — when the
event triggers.  Processes are themselves events, succeeding with the
generator's return value, so they compose (a process can wait on another
process, or on ``AllOf`` over several).

A process may also yield a bare ``float``: a *delay*.  It resumes, with
value ``None``, that many microseconds later.  A delay is one heap entry
that calls the process back directly — no ``Event``, no callback — so
it is how CPU charges (``Node.occupy``) and fixed sleeps wait.  Use
``sim.timeout`` only where a composable event is needed (``AnyOf``).

Example::

    def worker(sim):
        yield 5.0
        result = yield sim.timeout(3, value="done")
        return result

    sim = Simulator()
    proc = spawn(sim, worker(sim))
    sim.run()
    assert proc.value == "done"

Processes register with the simulator while alive, so the kernel can
(a) detect deadlock — every process blocked with an empty event heap —
and (b) cancel whole *groups* at once, which the fault-tolerance layer
uses to silence a crashed node's in-flight work.
"""

from __future__ import annotations

import contextlib
from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator

__all__ = ["Process", "spawn"]

ProcessGenerator = Generator[Event | float, Any, Any]


class Process(Event):
    """Wraps a generator; succeeds with the generator's return value."""

    __slots__ = ("_generator", "_waiting_on", "_cancelled", "group", "daemon", "_handle")

    def __init__(
        self,
        sim: Simulator,
        generator: ProcessGenerator,
        name: str = "",
        group: str = "",
        daemon: bool = False,
    ) -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        #: The pending ``Event`` or delay (a float), for diagnostics.
        self._waiting_on: Event | float | None = None
        self._cancelled = False
        #: Cancellation group (e.g. ``node3`` for everything a crash of
        #: node 3 must silence); empty string means ungrouped.
        self.group = group
        #: Daemon processes (infinite service loops, e.g. the failure
        #: detector's heartbeat and watch loops) are expected to outlive
        #: the workload and do not count as deadlocked when the event
        #: heap drains.
        self.daemon = daemon
        self._handle = sim._register_process(self)
        # Start on the next scheduler tick so the creator finishes its
        # own setup first (matches SimPy semantics).
        sim.schedule(0.0, self._resume, None, None)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def waiting_on_name(self) -> str:
        """Human-readable description of what blocks this process."""
        waiting = self._waiting_on
        if waiting is None:
            return "<scheduler tick>"
        if isinstance(waiting, float):
            return f"delay({waiting}us)"
        return waiting.name or type(waiting).__name__

    def _dispatch(self) -> None:
        self.sim._unregister_process(self._handle)
        super()._dispatch()

    def _resume(self, value: Any, exception: BaseException | None) -> None:
        generator = self._generator
        # Trampoline: a yielded event that has already triggered is fed
        # straight back in this frame, so a chain of them (an uncontended
        # resource grant, a finished child process) costs neither a
        # callback registration nor a level of recursion.
        while not (self.triggered or self._cancelled):
            try:
                if exception is not None:
                    target = generator.throw(exception)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                # Propagate to waiters; a fire-and-forget process (nobody
                # waiting) must not die silently — crash the simulation.
                if self._callbacks:
                    self.fail(exc)
                    return
                self.sim._unregister_process(self._handle)
                raise
            if isinstance(target, float):
                # A delay: one heap entry resumes this frame directly.
                # ``float()`` keeps an ``np.float64`` delay exact while
                # keeping ``sim.now`` a Python float.
                delay = float(target)
                if delay < 0:
                    exception = SimulationError(f"negative delay: {delay}")
                    value = None
                    continue
                self._waiting_on = delay
                self.sim.schedule(delay, self._resume, None, None)
                return
            if not isinstance(target, Event):
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}; processes must yield"
                        " Event objects or float delays"
                    )
                )
                return
            if not target.triggered:
                self._waiting_on = target
                target._callbacks.append(self._on_event)
                return
            self._waiting_on = None
            exception = target._exception
            value = target._value if exception is None else None

    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        if event._exception is not None:
            self._resume(None, event._exception)
        else:
            self._resume(event.value, None)

    def interrupt(self, exception: BaseException | None = None) -> None:
        """Throw an exception into the process at its current yield point."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        exc = exception if exception is not None else SimulationError("interrupted")
        self.sim.schedule(0.0, self._resume, None, exc)

    def cancel(self) -> None:
        """Stop the process without triggering it as an event.

        The generator is closed *now* so its ``finally`` blocks run at a
        deterministic point; any callbacks those blocks fire land on a
        process already marked cancelled, whose ``_resume`` is a no-op.
        The process never succeeds nor fails — waiters are abandoned, so
        cancellation is reserved for teardown paths (crash rollback)
        where the waiters are being discarded too.  Group teardown uses
        the two split phases directly (see ``Simulator.cancel_groups``).
        """
        self._mark_cancelled()
        self._close_generator()

    def _mark_cancelled(self) -> None:
        if self.triggered or self._cancelled:
            return
        self._cancelled = True
        self._waiting_on = None
        self.sim._unregister_process(self._handle)

    def _close_generator(self) -> None:
        if not self._cancelled:
            return
        with contextlib.suppress(Exception):
            self._generator.close()


def spawn(
    sim: Simulator,
    generator: ProcessGenerator,
    name: str = "",
    group: str = "",
    daemon: bool = False,
) -> Process:
    """Create and start a :class:`Process` from a generator."""
    return Process(sim, generator, name=name, group=group, daemon=daemon)
