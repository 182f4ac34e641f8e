"""The benchmark's workloads: which simulator cells each one runs.

A *cell* is one ``DsmRuntime(config).execute(app)`` call.  Every input
a cell sees comes from the workload seed: it becomes ``RunConfig.seed``,
which drives the apps' input arrays (RADIX keys, WATER molecules, FFT
points, ...) and every loss and fault draw.  The only other derived
input is the crash time of the ``lossy`` crash cells, which is half the
simulated wall time of the same cell run clean under the same seed.

Everything here goes through the library's public API: ``RunConfig``,
``DsmRuntime`` and ``make_configured_app``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import DsmRuntime, RunConfig
from repro.apps import APP_ORDER
from repro.experiments.runner import make_configured_app, parse_label
from repro.network import FaultPlan, NodeCrash, TransportConfig
from repro.trace import TraceConfig

PRESET = "small"
SCHEMES = ("O", "P", "4T", "4TP")
CRASH_NODE = 3
CRASH_FRAC = 0.5


@dataclass(frozen=True)
class Cell:
    """One simulator run of a workload."""

    app: str
    label: str
    nodes: int = 8
    protocol: str = "lrc"
    #: Datagram loss probability (``FaultPlan.drop_prob``).
    loss: float = 0.0
    #: Adaptive transport (``TransportConfig(adaptive=True)``).
    adaptive: bool = False
    #: Trace, profile, telemetry, critpath and sanitizer all on.
    observed: bool = False
    #: Crash node ``CRASH_NODE`` at ``CRASH_FRAC`` of the clean wall time.
    crash: bool = False

    @property
    def cell_id(self) -> str:
        parts = [self.app, self.label]
        if self.nodes != 8:
            parts.append(f"n{self.nodes}")
        if self.protocol != "lrc":
            parts.append(self.protocol)
        if self.loss:
            parts.append(f"loss{self.loss:g}")
        if self.loss and not self.crash:
            parts.append("adaptive" if self.adaptive else "static")
        if self.crash:
            parts.append(f"crash{CRASH_NODE}")
        if self.observed:
            parts.append("observed")
        return "/".join(parts)


_OBSERVED_SET = (("OCEAN", "P"), ("RADIX", "4TP"), ("WATER-NSQ", "4T"), ("LU-NCONT", "O"))

WORKLOADS: dict[str, tuple[Cell, ...]] = {
    "paper-sweep": tuple(Cell(app, label) for app in APP_ORDER for label in SCHEMES),
    "radix-scale": tuple(
        Cell("RADIX", label, nodes=32, protocol=protocol)
        for protocol in ("lrc", "hlrc", "sc")
        for label in ("O", "4TP")
    ),
    "observed": tuple(Cell(app, label, observed=True) for app, label in _OBSERVED_SET),
    "lossy": tuple(
        Cell(app, label, loss=0.05, adaptive=adaptive)
        for app, label in _OBSERVED_SET
        for adaptive in (False, True)
    )
    + tuple(Cell(app, "O", loss=0.02, crash=True) for app in ("SOR", "WATER-SP")),
}


def crash_times(cells, seed: int) -> dict[str, float]:
    """Crash instant per crash cell: ``CRASH_FRAC`` of its clean wall time.

    Part of input generation (a pure function of the seed), not of the
    measured work.
    """
    times = {}
    for cell in cells:
        if cell.crash:
            runtime = DsmRuntime(RunConfig(num_nodes=cell.nodes, seed=seed))
            report = runtime.execute(make_configured_app(cell.app, PRESET, "O"))
            times[cell.cell_id] = report.wall_time_us * CRASH_FRAC
    return times


def build(cell: Cell, seed: int, crash_at: Optional[dict[str, float]] = None):
    """Construct the cell's runtime and app, ready for ``execute``."""
    threads, prefetch = parse_label(cell.label)
    plan = None
    if cell.loss or cell.crash:
        crashes = ()
        if cell.crash:
            crashes = (NodeCrash(node=CRASH_NODE, at_us=crash_at[cell.cell_id]),)
        plan = FaultPlan(drop_prob=cell.loss, crashes=crashes)
    config = RunConfig(
        num_nodes=cell.nodes,
        threads_per_node=threads,
        prefetch=prefetch,
        seed=seed,
        protocol=cell.protocol,
        fault_plan=plan,
        transport=TransportConfig(adaptive=cell.adaptive),
        trace=TraceConfig() if cell.observed else None,
        profile=cell.observed,
        telemetry=cell.observed,
        critpath=cell.observed,
        sanitizer=cell.observed,
    )
    return DsmRuntime(config), make_configured_app(cell.app, PRESET, cell.label)
