"""Self-checks of the benchmark: ``python -m pytest perfbench -q``.

They run the workloads' cells once or twice each (about a minute).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402

run.import_library()

from workloads import WORKLOADS, crash_times  # noqa: E402


def one_pass(workload: str, seed: int) -> list[dict]:
    cells = WORKLOADS[workload]
    return run.run_pass(cells, seed, crash_times(cells, seed))


def summary(results: list[dict]) -> tuple:
    return (
        run.fingerprint(results),
        run.sim_ms_by_scheme(results),
        run.summed_counts(results),
    )


def test_workloads_and_metrics_are_consistent():
    assert list(WORKLOADS) == [w["name"] for w in spec.manifest()["workloads"]]
    per_layer = set(spec.units("per_layer"))
    assert set(spec.SELF_METRIC.values()) <= per_layer
    for entry in spec.LAYER_MAP:
        assert set(entry["metrics"]) <= per_layer, entry["layer"]


@pytest.fixture(scope="module")
def first_passes():
    return {workload: one_pass(workload, 1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_is_deterministic(workload, first_passes):
    first = first_passes[workload]
    assert not [r["failure"] for r in first if r["failure"]]
    assert summary(one_pass(workload, 1)) == summary(first)


@pytest.mark.parametrize("workload", ["radix-scale", "lossy"])
def test_second_seed_changes_results_and_still_verifies(workload, first_passes):
    second = one_pass(workload, 2)
    assert not [r["failure"] for r in second if r["failure"]]
    assert run.fingerprint(second) != run.fingerprint(first_passes[workload])
    assert any(a["stats"] != b["stats"] for a, b in zip(second, first_passes[workload]))


def test_tracing_accounts_for_execute_and_leaves_results_unchanged(first_passes):
    cells = WORKLOADS["observed"]
    results, self_s, rec, _ = run.traced_pass(cells, 1, {})
    assert not [r["failure"] for r in results if r["failure"]]
    assert run.fingerprint(results) == run.fingerprint(first_passes["observed"])
    assert rec.open_spans == 0
    assert abs(sum(self_s.values()) - sum(rec.execute_s)) < 1e-6
    assert abs(run.span_log_self_s(rec) - rec.self_s).max() < 1e-6
    for name in ("sim.self_s", "dsm.self_s", "trace.self_s", "critpath.analyze_s",
                 "ft.sanitizer_s", "telemetry.self_s", "profile.self_s"):
        assert self_s[name] > 0, name
    assert rec.counts["machine.occupy_calls"] > 0
    assert len(set(rec.span_cell)) == len(cells)


def test_verify_is_opaque_and_diff_counts_are_the_protocols(first_passes):
    from layers import LAYERS, Tracing
    from workloads import build

    # Profiled and LRC, so the profiler counts every diff the protocol
    # applies; verification replays every stored diff again on top.
    cell = next(c for c in WORKLOADS["observed"] if c.app == "RADIX")
    runtime, app = build(cell, 1)
    with Tracing() as tracing:
        rec = tracing.recorder
        rec.new_cell()
        runtime.execute(app)
    applied = sum(p.get("diffs", 0) for p in runtime.cluster.sim.profile.entities["page"].values())
    assert rec.counts["memory.diffs_applied"] == applied > 0
    verify = LAYERS.index("verify")
    assert rec.self_s[0][verify] > 0
    spans_under_verify = [
        i for i, parent in enumerate(rec.span_parent)
        if parent >= 0 and rec.span_layer[parent] == verify
    ]
    assert spans_under_verify == []


def test_tracing_reports_functions_no_wrapper_reaches(monkeypatch):
    import types

    from layers import Tracing
    from repro.memory import diff

    probe = types.ModuleType("repro.memory.probe")

    def holder(page, make=diff.make_diff):
        return make

    holder.__module__, holder.__qualname__ = probe.__name__, "holder"
    probe.holder = holder
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    with Tracing() as tracing:
        assert tracing.unreachable == ["make_diff (held by repro.memory.probe.holder)"]
        assert hasattr(diff.make_diff, "__wrapped__")
    assert not hasattr(diff.make_diff, "__wrapped__")


@pytest.mark.xfail(strict=True, reason="adaptive transport gives up once on a live peer")
def test_lossy_seed5_adaptive_transport_never_gives_up():
    cells = [c for c in WORKLOADS["lossy"] if c.adaptive and c.app == "RADIX"]
    results = run.run_pass(cells, 5, {})
    assert results[0]["failure"] is None, results[0]["failure"]


def test_refuses_to_run_without_library(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lossy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
