"""Static vs adaptive transport under clean and hostile fabrics.

An extension beyond the paper: the same applications, run on the static
transport (fixed 10 ms base RTO, no windowing) and on the adaptive one
(Jacobson/Karn RTT-estimated RTO, AIMD in-flight window, backpressure
with prefetch shedding), across four committed fabric conditions:

- ``clean`` — the fault-free fabric every figure uses; adaptation must
  cost nothing here (the estimator converges and then sits idle);
- ``loss`` — 5% datagram loss; the adaptive RTO (sitting at its 5 ms
  floor on this fast fabric) recovers lost messages off a retry ladder
  half the static one's, shortening every loss-lengthened stall;
- ``degrade`` — from a quarter of the run onward the whole fabric
  gains 15 ms of flat latency, landing *above* the static timeout: the
  static transport spuriously retransmits every message for the rest
  of the run, while the adaptive one learns the new RTT off the first
  delayed acks (the attempt echo measures it directly), reverts the
  transient's window halvings (Eifel undo), and stops the storm;
- ``partition`` — one node unreachable for 120 ms; both transports must
  deliver once the fabric heals.  The adaptive arm bounds the post-heal
  wait three ways: the RTO ceiling caps how far the retained Karn
  backoff can stretch a timer armed just before the heal, the give-up
  deadline parks hopeless messages onto a short re-probe cadence, and
  any arrival from the healed peer triggers an immediate fast
  re-flight of everything still pending toward it.

Every cell verifies the application's answer — a transport that loses
or reorders its way to a wrong result fails the experiment, whatever
its wall clock.

Each (app, scenario, transport) cell runs at ``REPEATS`` consecutive
seeds and the table reports per-metric medians: which datagrams a lossy
fabric eats is seed luck, and a single draw can hand either transport
an unrepresentative critical path (e.g. a double-drop right before a
barrier).  The medians are what the claim is about; any single seed is
reproducible on its own.
"""

from __future__ import annotations

import statistics
from typing import Optional

from repro.api.runtime import RunConfig
from repro.apps.registry import APP_ORDER
from repro.experiments.formatting import render_rows
from repro.experiments.runner import ExperimentRunner, RunSpec, run_specs
from repro.network.faults import FaultPlan, LinkDegradation, LinkPartition
from repro.network.transport import TransportConfig

__all__ = ["adaptive_matrix", "ADAPTIVE_SCENARIOS", "scenario_plan"]

#: The committed fabric conditions, in presentation order.
ADAPTIVE_SCENARIOS = ("clean", "loss", "degrade", "partition")

#: Loss scenario: datagram loss probability.
LOSS_PROB = 0.05
#: Degrade scenario: flat added latency, deliberately above the static
#: 10 ms base timeout so the fixed RTO retransmits spuriously.
DEGRADE_LATENCY_US = 15_000.0
#: Partition scenario: how long the victim node is cut off.
PARTITION_US = 120_000.0
#: The partitioned node (never node 0 — it hosts the coordinator).
PARTITION_NODE = 1
#: Runs per cell (consecutive seeds); the table reports medians.
REPEATS = 3


def scenario_plan(scenario: str, wall_us: float) -> Optional[FaultPlan]:
    """The committed fault plan for one scenario, scaled to a clean
    baseline wall time (fault onsets land mid-computation for every
    application regardless of problem size)."""
    if scenario == "clean":
        return None
    if scenario == "loss":
        return FaultPlan(drop_prob=LOSS_PROB)
    if scenario == "degrade":
        # Sustained: the fabric turns slow mid-run and stays slow.  A
        # transient shorter than one inflated round trip would test
        # nothing about adaptation (no estimator can learn from samples
        # that haven't returned yet); a sustained shift is the
        # mis-calibrated-deployment story the fixed RTO actually fails.
        return FaultPlan(
            degradations=(
                LinkDegradation(
                    start_us=round(0.25 * wall_us, 1),
                    end_us=round(100.0 * wall_us, 1),
                    extra_latency_us=DEGRADE_LATENCY_US,
                ),
            )
        )
    if scenario == "partition":
        start = round(0.4 * wall_us, 1)
        return FaultPlan(
            partitions=(
                LinkPartition(
                    start_us=start,
                    end_us=round(start + PARTITION_US, 1),
                    nodes=frozenset({PARTITION_NODE}),
                ),
            )
        )
    raise ValueError(f"unknown scenario {scenario!r}")


def adaptive_matrix(runner: ExperimentRunner, apps: Optional[list[str]] = None):
    """Static-vs-adaptive comparison matrix.

    For every (app, scenario) cell: wall clock and retransmit count on
    both transports, the adaptive speedup, and the adaptive layer's own
    activity (paced sends, shed prefetches).  Apps run in the prefetch
    configuration (``P``) so the backpressure path — shedding
    speculative traffic under pressure — is actually exercised.
    """
    apps = list(apps or APP_ORDER)
    label = "P"
    # Clean static baselines set each app's time scale for fault onsets.
    walls = {app_name: runner.run(app_name, label).wall_time_us for app_name in apps}
    specs = []
    cells = []
    for app_name in apps:
        for scenario in ADAPTIVE_SCENARIOS:
            plan = scenario_plan(scenario, walls[app_name])
            for adaptive in (False, True):
                for rep in range(REPEATS):
                    config = RunConfig(
                        num_nodes=runner.num_nodes,
                        threads_per_node=1,
                        prefetch=True,
                        seed=runner.seed + rep,
                        fault_plan=plan,
                        transport=TransportConfig(adaptive=adaptive),
                    )
                    cells.append((app_name, scenario, adaptive, rep))
                    specs.append(
                        RunSpec(app_name, runner.preset, label, config, runner.verify)
                    )

    def on_done(index, report) -> None:
        if runner.verbose:
            app_name, scenario, adaptive, rep = cells[index]
            arm = "adaptive" if adaptive else "static"
            print(f"  finished {app_name} [{scenario}/{arm}/seed+{rep}]", flush=True)

    reports = run_specs(specs, jobs=runner.jobs, on_done=on_done)

    grouped: dict[tuple, list] = {}
    for cell, report in zip(cells, reports):
        grouped.setdefault(cell[:3], []).append(report)

    def median_of(reports_, metric) -> float:
        return statistics.median(metric(r) for r in reports_)
    headers = [
        "app",
        "scenario",
        "static(ms)",
        "adaptive(ms)",
        "speedup",
        "rexmit-s",
        "rexmit-a",
        "paced",
        "shed",
    ]
    rows = []
    data: dict[str, dict[str, dict]] = {}
    def health(report, key) -> float:
        return float((report.transport_health or {}).get(key, 0))

    for app_name in apps:
        data[app_name] = {}
        for scenario in ADAPTIVE_SCENARIOS:
            static = grouped[(app_name, scenario, False)]
            adaptive = grouped[(app_name, scenario, True)]
            static_wall = median_of(static, lambda r: r.wall_time_us)
            adaptive_wall = median_of(adaptive, lambda r: r.wall_time_us)
            entry = {
                "static_wall_us": static_wall,
                "adaptive_wall_us": adaptive_wall,
                "speedup": static_wall / adaptive_wall if adaptive_wall > 0 else 0.0,
                "static_retransmits": median_of(static, lambda r: r.retransmissions),
                "adaptive_retransmits": median_of(adaptive, lambda r: r.retransmissions),
                "paced": median_of(adaptive, lambda r: health(r, "paced")),
                "shed": median_of(adaptive, lambda r: health(r, "shed")),
                "rtt_samples": median_of(adaptive, lambda r: health(r, "rtt_samples")),
                "cwnd_halvings": median_of(
                    adaptive, lambda r: health(r, "cwnd_halvings")
                ),
                "max_in_flight": median_of(
                    adaptive, lambda r: health(r, "max_in_flight")
                ),
            }
            data[app_name][scenario] = entry
            rows.append(
                [
                    app_name,
                    scenario,
                    f"{entry['static_wall_us'] / 1000.0:.1f}",
                    f"{entry['adaptive_wall_us'] / 1000.0:.1f}",
                    f"{entry['speedup']:.2f}x",
                    f"{entry['static_retransmits']:g}",
                    f"{entry['adaptive_retransmits']:g}",
                    f"{entry['paced']:g}",
                    f"{entry['shed']:g}",
                ]
            )
    text = (
        "Adaptive transport matrix: static (fixed 10 ms RTO) vs adaptive "
        "(RTT-estimated RTO + AIMD + backpressure), prefetch configuration\n"
        f"scenarios: loss={LOSS_PROB:.0%}, "
        f"degrade=+{DEGRADE_LATENCY_US / 1000.0:.0f}ms sustained from 25% of the run, "
        f"partition=node {PARTITION_NODE} cut {PARTITION_US / 1000.0:.0f}ms; "
        f"medians over {REPEATS} seeds per cell\n"
        + render_rows(headers, rows)
    )
    return text, data
