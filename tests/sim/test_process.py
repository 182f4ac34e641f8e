"""Unit tests for generator-based processes."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, spawn


def test_process_advances_through_timeouts():
    sim = Simulator()
    trace = []

    def body():
        trace.append(("start", sim.now))
        yield sim.timeout(5.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(3.0)
        trace.append(("end", sim.now))

    spawn(sim, body())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 5.0), ("end", 8.0)]


def test_process_receives_event_values():
    sim = Simulator()
    received = []

    def body():
        value = yield sim.timeout(1.0, value="hello")
        received.append(value)

    spawn(sim, body())
    sim.run()
    assert received == ["hello"]


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def body():
        yield sim.timeout(2.0)
        return 99

    proc = spawn(sim, body())
    sim.run()
    assert proc.value == 99


def test_process_can_wait_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return "child-result"

    def parent():
        result = yield spawn(sim, child())
        return f"got {result}"

    proc = spawn(sim, parent())
    sim.run()
    assert proc.value == "got child-result"
    assert sim.now == 4.0


def test_process_exception_fails_the_process_event():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("worker died")

    proc = spawn(sim, body())
    caught = []
    proc.add_callback(lambda e: caught.append(e))  # someone is watching
    sim.run()
    assert proc.triggered and not proc.ok
    assert caught
    with pytest.raises(RuntimeError):
        _ = proc.value


def test_unobserved_process_exception_crashes_the_run():
    """A fire-and-forget process must not die silently."""
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("nobody is watching")

    spawn(sim, body())
    with pytest.raises(RuntimeError):
        sim.run()


def test_failed_event_is_thrown_into_waiting_process():
    sim = Simulator()
    caught = []

    def body():
        failing = sim.event()
        sim.schedule(1.0, failing.fail, ValueError("bad"))
        try:
            yield failing
        except ValueError as exc:
            caught.append(str(exc))

    spawn(sim, body())
    sim.run()
    assert caught == ["bad"]


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def body():
        yield 42  # type: ignore[misc]

    proc = spawn(sim, body())
    sim.run()
    with pytest.raises(SimulationError):
        _ = proc.value


def test_interrupt_throws_into_process():
    sim = Simulator()
    log = []

    def body():
        try:
            yield sim.timeout(100.0)
        except SimulationError:
            log.append(("interrupted", sim.now))

    proc = spawn(sim, body())
    sim.schedule(5.0, proc.interrupt)
    sim.run(until=20.0)
    assert log == [("interrupted", 5.0)]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    proc = spawn(sim, body())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_processes_start_lazily_on_next_tick():
    sim = Simulator()
    started = []

    def body():
        started.append(sim.now)
        yield sim.timeout(0.0)

    spawn(sim, body())
    assert started == []  # not started synchronously
    sim.run()
    assert started == [0.0]


# -- already-triggered yields -------------------------------------------------


def test_yielding_a_succeeded_event_continues_with_its_value():
    sim = Simulator()
    got = []

    def body():
        ready = sim.event().succeed("now")
        got.append((yield ready))
        got.append(sim.now)

    proc = spawn(sim, body())
    sim.run()
    assert got == ["now", 0.0]
    assert proc.ok


def test_yielding_a_failed_event_raises_at_the_yield():
    sim = Simulator()
    caught = []

    def body():
        failed = sim.event().fail(ValueError("early"))
        try:
            yield failed
        except ValueError as exc:
            caught.append(str(exc))
        return "recovered"

    proc = spawn(sim, body())
    sim.run()
    assert caught == ["early"]
    assert proc.value == "recovered"


def test_long_chain_of_triggered_yields_needs_no_recursion_or_events():
    sim = Simulator()
    steps = 5_000

    def body():
        total = 0
        for i in range(steps):
            total += yield sim.event().succeed(i)
        return total

    proc = spawn(sim, body())
    sim.run()
    assert proc.value == sum(range(steps))
    # The process start is the only scheduled callback.
    assert sim.events_handled == 1


def test_cancel_from_inside_a_triggered_chain_stops_the_process():
    sim = Simulator()
    reached = []
    proc = None

    def body():
        for i in range(10):
            reached.append(i)
            if i == 3:
                proc.cancel()
            yield sim.event().succeed(i)

    proc = spawn(sim, body())
    sim.run()
    # The yield after the cancel is the last step taken.
    assert reached == [0, 1, 2, 3]
    assert proc.cancelled and not proc.triggered


# -- delays (bare float yields) ------------------------------------------------


def test_float_yield_resumes_after_the_delay_with_none():
    sim = Simulator()
    got = []

    def body():
        got.append((yield 2.5))
        got.append(sim.now)
        got.append((yield 0.0))
        got.append(sim.now)

    proc = spawn(sim, body())
    sim.run()
    assert got == [None, 2.5, None, 2.5]
    assert proc.ok
    # Start + two delays: one scheduled callback each, no Timeout event.
    assert sim.events_handled == 3


def test_delay_and_timeout_from_the_same_point_keep_creation_order():
    """A delay takes its heap sequence number where a ``Timeout`` would:
    a later-created equal-time entry still runs later, either way round."""
    for delay_first in (True, False):
        sim = Simulator()
        order = []

        def by_delay():
            yield 5.0
            order.append("delay")

        def by_timeout():
            yield sim.timeout(5.0)
            order.append("timeout")

        first, second = (by_delay, by_timeout) if delay_first else (by_timeout, by_delay)
        spawn(sim, first())
        spawn(sim, second())
        sim.run()
        assert order == (["delay", "timeout"] if delay_first else ["timeout", "delay"])
        assert sim.now == 5.0


def test_numpy_float_delay_keeps_sim_time_a_python_float():
    sim = Simulator()
    stamps = []

    def body():
        yield np.float64(0.1)
        yield np.float64(0.2)
        stamps.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert stamps == [0.1 + 0.2]
    assert type(sim.now) is float


def test_process_cancelled_during_a_delay_never_resumes():
    sim = Simulator()
    reached = []

    def body():
        reached.append("start")
        yield 10.0
        reached.append("resumed")

    proc = spawn(sim, body())
    sim.schedule(4.0, proc.cancel)
    sim.run()
    assert reached == ["start"]
    assert proc.cancelled and not proc.triggered
    # The pending wake-up still ran, as a no-op.
    assert sim.now == 10.0


def test_negative_delay_raises_at_the_yield():
    sim = Simulator()
    caught = []

    def body():
        try:
            yield -1.0
        except SimulationError as exc:
            caught.append(str(exc))
        return "recovered"

    proc = spawn(sim, body())
    sim.run()
    assert caught and "negative delay" in caught[0]
    assert proc.value == "recovered"


def test_yielding_a_non_numeric_value_fails_the_process():
    sim = Simulator()

    def body():
        yield "soon"  # type: ignore[misc]

    proc = spawn(sim, body())
    sim.run()
    with pytest.raises(SimulationError, match="float delays"):
        _ = proc.value


def test_deadlock_report_names_a_pending_delay():
    sim = Simulator()

    def sleeper():
        yield 30.0

    def waiter():
        yield sim.event("never")

    spawn(sim, sleeper(), name="sleeper")
    spawn(sim, waiter(), name="waiter")
    sim.run(until=1.0)
    # Lose the sleeper's wake-up entry: both processes are now stuck.
    sim._heap.clear()
    with pytest.raises(SimulationError, match="deadlock") as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "'sleeper' waiting on delay(30.0us)" in message
    assert "'waiter' waiting on never" in message
