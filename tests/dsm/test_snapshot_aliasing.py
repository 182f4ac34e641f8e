"""The deep-copy promise of ``DsmNode.snapshot_state``.

A checkpoint snapshot must share no mutable structure with live
protocol state: after the cut the node keeps mutating pages, clocks,
directories, locks and barriers for a whole barrier epoch before the
snapshot is ever needed, and a single aliased array silently corrupts
the recovery line.  Driven against every protocol, twice over:

- directly — trash every mutable leaf of a node's whole snapshot (the
  protocol's part plus the shared locks, barriers and pages) and prove
  the live state (and a second snapshot) saw nothing;
- end to end — crash a node mid-epoch so recovery restores a snapshot
  taken a full epoch earlier, and require the run to verify and to be
  byte-identical across repeats.
"""

import numpy as np
import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.dsm.backend import BACKEND_NAMES
from repro.network.faults import FaultPlan, NodeCrash

NODES = 4
PROTOCOLS = list(BACKEND_NAMES)


def canonical(obj):
    """A structural, order-stable digest for snapshot comparison."""
    if isinstance(obj, dict):
        return tuple(sorted((k, canonical(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(map(canonical, obj)))
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (bytes, bytearray)):
        return ("bytes", bytes(obj))
    return obj


def trash(obj):
    """Mutate every mutable container/array reachable through plain
    structure (never inside opaque objects, which are immutable by
    contract)."""
    if isinstance(obj, dict):
        for value in obj.values():
            trash(value)
        obj["__trashed__"] = True
    elif isinstance(obj, list):
        for value in obj:
            trash(value)
        obj.append("__trashed__")
    elif isinstance(obj, tuple):
        for value in obj:
            trash(value)
    elif isinstance(obj, set):
        obj.add("__trashed__")
    elif isinstance(obj, np.ndarray):
        if obj.flags.writeable:
            obj += 1
    elif isinstance(obj, bytearray):
        obj.extend(b"!")


def run_once(protocol, plan=None, seed=11, app="SOR"):
    config = RunConfig(
        num_nodes=NODES, seed=seed, protocol=protocol, fault_plan=plan, sanitizer=True
    )
    runtime = DsmRuntime(config)
    report = runtime.execute(make_app(app, "small"))
    return runtime, report


# WATER-SP takes locks as well as barriers, so every shared part of a
# node's snapshot holds live state.
LOCKING_APP = "WATER-SP"


# -- direct: no shared mutable structure -------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trashing_a_snapshot_cannot_touch_live_state(protocol):
    runtime, _ = run_once(protocol, app=LOCKING_APP)
    for dsm in runtime.dsm_nodes:
        victim = dsm.snapshot_state()
        reference = canonical(dsm.snapshot_state())
        trash(victim)
        assert canonical(dsm.snapshot_state()) == reference


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_restore_round_trips(protocol):
    runtime, _ = run_once(protocol, app=LOCKING_APP)
    for dsm in runtime.dsm_nodes:
        snap = dsm.snapshot_state()
        reference = canonical(snap)
        assert "vc" in snap  # the FT manager reports rollback clocks
        assert snap["protocol"] == protocol
        for shared in ("locks", "barriers", "pages"):
            assert snap[shared], shared
        dsm.restore_state(snap)
        assert canonical(dsm.snapshot_state()) == reference


# -- end to end: a barrier epoch of mutation between cut and restore ---------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_crash_restores_an_epoch_old_snapshot_and_verifies(protocol):
    _, baseline = run_once(protocol)
    plan = FaultPlan(
        crashes=(NodeCrash(node=2, at_us=baseline.wall_time_us * 0.6),)
    )
    _, report = run_once(protocol, plan=plan)  # execute() verifies
    ft = report.extra["ft"]
    assert ft["crashes"] == 1
    assert ft["recoveries"] == 1
    assert report.wall_time_us > baseline.wall_time_us


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_recovery_is_byte_identical_across_repeats(protocol):
    _, baseline = run_once(protocol)
    plan = FaultPlan(
        crashes=(NodeCrash(node=2, at_us=baseline.wall_time_us * 0.6),)
    )
    _, first = run_once(protocol, plan=plan)
    _, second = run_once(protocol, plan=plan)
    assert first.to_json() == second.to_json()
