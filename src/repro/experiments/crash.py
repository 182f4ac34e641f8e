"""The crash-recovery matrix (an extension beyond the paper).

For each application: one fault-free baseline run, then the same
configuration with a crash-stop failure injected partway through the
run, detected by heartbeat timeout, and recovered from the last
coordinated barrier checkpoint.  The columns show where the extra wall
time went — checkpointing, dead time before the rollback, state
restoration — plus the checkpoint footprint.  Every crashed run
executes with the protocol sanitizer on, so the matrix doubles as an
invariant sweep of the recovery path.
"""

from __future__ import annotations

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps.registry import APP_ORDER
from repro.experiments.formatting import render_rows
from repro.experiments.runner import ExperimentRunner, make_configured_app
from repro.metrics.counters import Category
from repro.network.faults import FaultPlan, NodeCrash

__all__ = ["crash_matrix"]


def crash_matrix(runner: ExperimentRunner):
    """Crash matrix: recovery overhead per application.

    The crash is scheduled at ``crash_frac`` of the baseline's wall
    time, so it lands mid-computation for every application regardless
    of problem size.
    """
    node = runner.crash_node
    frac = runner.crash_frac
    loss = runner.crash_loss
    headers = [
        "app",
        "base(ms)",
        "crash(ms)",
        "overhead%",
        "ckpts",
        "ckpt(ms)",
        "down(ms)",
        "recov(ms)",
        "ckpt-KB",
        "heartbeats",
    ]
    rows = []
    data = {}
    for app_name in APP_ORDER:
        baseline = runner.baseline(app_name)
        plan = FaultPlan(
            drop_prob=loss,
            crashes=(NodeCrash(node=node, at_us=baseline.wall_time_us * frac),),
        )
        config = RunConfig(
            num_nodes=runner.num_nodes,
            seed=runner.seed,
            fault_plan=plan,
            sanitizer=True,
        )
        if runner.verbose:
            print(f"  running {app_name} [O + crash n{node}@{frac:.0%}] ...", flush=True)
        report = DsmRuntime(config).execute(
            make_configured_app(app_name, runner.preset, "O"), verify=runner.verify
        )
        ft = report.extra["ft"]
        times = report.breakdown.times
        entry = {
            "base_ms": baseline.wall_time_us / 1000.0,
            "crash_ms": report.wall_time_us / 1000.0,
            "overhead_pct": 100.0 * (report.wall_time_us / baseline.wall_time_us - 1.0),
            "checkpoints": ft["checkpoints"],
            "checkpoint_ms": times[Category.CHECKPOINT] / 1000.0,
            "downtime_ms": times[Category.DOWNTIME] / 1000.0,
            "recovery_ms": times[Category.RECOVERY] / 1000.0,
            "checkpoint_kb": ft["checkpoint_bytes"] / 1024.0,
            "heartbeats": ft["heartbeats"],
            "detections": ft["detections"],
            "recoveries": ft["recoveries"],
        }
        data[app_name] = entry
        rows.append(
            [
                app_name,
                f"{entry['base_ms']:.1f}",
                f"{entry['crash_ms']:.1f}",
                f"{entry['overhead_pct']:.1f}",
                str(entry["checkpoints"]),
                f"{entry['checkpoint_ms']:.1f}",
                f"{entry['downtime_ms']:.1f}",
                f"{entry['recovery_ms']:.1f}",
                f"{entry['checkpoint_kb']:.0f}",
                str(entry["heartbeats"]),
            ]
        )
    text = (
        f"Crash matrix: node {node} crashes at {frac:.0%} of the fault-free wall "
        f"time (loss={loss:.0%}); recovery from the last barrier checkpoint\n"
        + render_rows(headers, rows)
    )
    return text, data
