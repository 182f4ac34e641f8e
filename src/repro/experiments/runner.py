"""Experiment runner: the one place that turns a cell (app, size preset,
configuration label, :class:`~repro.api.runtime.RunConfig`) into a run.

It maps the paper's configuration labels (O, P, nT, nTP) onto app
settings and runtime configurations, runs cells serially or fanned out
across worker processes, and caches reports, since several
figures/tables share the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps.registry import APP_ORDER, make_app
from repro.errors import ConfigError
from repro.metrics.report import RunReport
from repro.parallel import fan_out
from repro.trace import PhaseTimeline, TraceConfig

__all__ = [
    "CONFIG_LABELS",
    "ExperimentRunner",
    "RunSpec",
    "execute_spec",
    "make_configured_app",
    "parse_label",
    "run_specs",
]

#: Every configuration Figure 5 uses, in its presentation order.
CONFIG_LABELS = ["O", "2T", "4T", "8T", "P", "2TP", "4TP", "8TP"]


def parse_label(label: str) -> tuple[int, bool]:
    """Label -> (threads_per_node, prefetch)."""
    if label == "O":
        return 1, False
    if label == "P":
        return 1, True
    if label.endswith("TP"):
        return int(label[:-2]), True
    if label.endswith("T"):
        return int(label[:-1]), False
    raise ConfigError(f"unknown configuration label {label!r}")


def make_configured_app(app_name: str, preset: str, label: str):
    """Build the app instance for one (app, configuration-label) cell.

    Every harness builds its apps here, so the per-scheme app flags
    (Section 5.1's combined-scheme optimizations) cannot drift between
    them.
    """
    threads_per_node, prefetch = parse_label(label)
    app = make_app(app_name, preset)
    app.use_prefetch = prefetch
    if prefetch and threads_per_node > 1:
        # The combined scheme's optimizations (Section 5.1).
        app.prefetch_dedup = True
        if app_name == "RADIX":
            app.throttle_prefetch = True
    return app


@dataclass(frozen=True)
class RunSpec:
    """Everything a worker needs to execute one run, picklable.

    The app is named, not embedded: app instances hold numpy state and
    generators that must not cross process boundaries, so the worker
    rebuilds it with :func:`make_configured_app`.
    """

    app_name: str
    preset: str
    label: str
    config: RunConfig
    verify: bool = True


def execute_spec(spec: RunSpec) -> RunReport:
    """Run one spec to completion in the current process."""
    app = make_configured_app(spec.app_name, spec.preset, spec.label)
    return DsmRuntime(spec.config).execute(app, verify=spec.verify)


def run_specs(
    specs: list[RunSpec],
    jobs: int = 1,
    on_done: Optional[Callable[[int, RunReport], None]] = None,
) -> list[RunReport]:
    """Execute every spec; return reports in spec order.

    With ``jobs > 1`` the specs fan out over worker processes (see
    :func:`repro.parallel.fan_out`); ``on_done(index, report)`` fires in
    completion order, while the returned list is always in spec order.
    """
    return fan_out(specs, execute_spec, jobs=jobs, on_done=on_done)


class ExperimentRunner:
    """Runs (app, configuration) pairs on demand and caches the reports."""

    def __init__(
        self,
        num_nodes: int = 8,
        preset: str = "default",
        seed: int = 42,
        verify: bool = True,
        verbose: bool = False,
        trace_template: Optional[str] = None,
        profile_template: Optional[str] = None,
        crash_node: int = 3,
        crash_frac: float = 0.45,
        crash_loss: float = 0.0,
        jobs: int = 1,
        critpath: bool = False,
    ) -> None:
        self.num_nodes = num_nodes
        self.preset = preset
        self.seed = seed
        self.verify = verify
        self.verbose = verbose
        #: Crash-matrix knobs (see ``repro.experiments.crash``): which
        #: node dies, when (as a fraction of the fault-free wall time),
        #: and the datagram loss probability during the crashed run.
        self.crash_node = crash_node
        self.crash_frac = crash_frac
        self.crash_loss = crash_loss
        #: When set, every run records a trace written to a path derived
        #: from this template: ``figure1.json`` -> ``figure1.FFT-O.json``.
        self.trace_template = trace_template
        #: When set, every run profiles (repro.profile); "-" just
        #: collects (the profile rides inside the cached reports), any
        #: other value is a template for per-run RunReport JSON dumps,
        #: derived like the trace template.
        self.profile_template = profile_template
        #: When set, every run carries a ``critpath`` report section
        #: (repro.critpath): exact critical-path blame and what-if
        #: projections, consumed by the ``critpath`` experiment.
        self.critpath = critpath
        #: Worker processes for grid fan-out (see :meth:`run_many`);
        #: 1 = serial.  Tracing forces serial: the timeline audit needs
        #: the in-process tracer, which cannot cross a process boundary.
        self.jobs = jobs
        self._cache: dict[tuple[str, str], RunReport] = {}

    def trace_path(self, app_name: str, label: str) -> Path:
        """Per-run output path derived from the trace template."""
        return self._derived_path(self.trace_template, app_name, label)

    def profile_path(self, app_name: str, label: str) -> Path:
        """Per-run report path derived from the profile template."""
        return self._derived_path(self.profile_template, app_name, label)

    @staticmethod
    def _derived_path(template_str: str, app_name: str, label: str) -> Path:
        template = Path(template_str)
        return template.with_name(
            f"{template.stem}.{app_name}-{label}{template.suffix or '.json'}"
        )

    def config(self, label: str) -> RunConfig:
        """The runtime configuration of this runner's cells for ``label``."""
        threads_per_node, prefetch = parse_label(label)
        return RunConfig(
            num_nodes=self.num_nodes,
            threads_per_node=threads_per_node,
            prefetch=prefetch,
            seed=self.seed,
            trace=TraceConfig() if self.trace_template else None,
            profile=bool(self.profile_template),
            critpath=self.critpath,
        )

    def run(self, app_name: str, label: str) -> RunReport:
        key = (app_name, label)
        if key in self._cache:
            return self._cache[key]
        app = make_configured_app(app_name, self.preset, label)
        if self.verbose:
            print(f"  running {app_name} [{label}] ...", flush=True)
        runtime = DsmRuntime(self.config(label))
        report = runtime.execute(app, verify=self.verify)
        if self.trace_template:
            self._export_trace(runtime, report, app_name, label)
        self._store(app_name, label, report)
        return report

    def _store(self, app_name: str, label: str, report: RunReport) -> None:
        """Cache a finished cell and dump its report if profiling asks to."""
        if self.profile_template and self.profile_template != "-":
            path = self.profile_path(app_name, label)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(report.to_json(indent=2) + "\n")
            if self.verbose:
                print(f"    profile report -> {path}", flush=True)
        self._cache[(app_name, label)] = report

    def _export_trace(
        self, runtime: DsmRuntime, report: RunReport, app_name: str, label: str
    ) -> None:
        tracer = runtime.tracer
        path = self.trace_path(app_name, label)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".jsonl":
            tracer.write_jsonl(path)
        else:
            tracer.write_chrome(path)
        if self.verbose:
            print(f"    trace: {len(tracer)} events -> {path}", flush=True)
        mismatches = PhaseTimeline.from_events(tracer.events).verify_against(report)
        if mismatches:
            raise ConfigError(
                f"trace/accounting mismatch for {app_name} [{label}]: "
                + "; ".join(mismatches)
            )

    def baseline(self, app_name: str) -> RunReport:
        return self.run(app_name, "O")

    def run_many(self, labels: list[str], apps: Optional[list[str]] = None):
        """Yield (app, label, report) over the full grid.

        With ``jobs > 1`` the not-yet-cached cells are fanned out across
        worker processes first (deterministic runs make the result
        independent of the job count), then yielded in grid order.
        """
        apps = list(apps or APP_ORDER)
        if self.jobs > 1 and not self.trace_template:
            self._prefetch_grid(labels, apps)
        for app_name in apps:
            for label in labels:
                yield app_name, label, self.run(app_name, label)

    def _prefetch_grid(self, labels: list[str], apps: list[str]) -> None:
        """Fill the cache for every missing (app, label) cell in parallel."""
        specs = [
            RunSpec(app_name, self.preset, label, self.config(label), self.verify)
            for app_name in apps
            for label in labels
            if (app_name, label) not in self._cache
        ]

        def on_done(index: int, _report: RunReport) -> None:
            if self.verbose:
                spec = specs[index]
                print(f"  finished {spec.app_name} [{spec.label}]", flush=True)

        reports = run_specs(specs, jobs=self.jobs, on_done=on_done)
        for spec, report in zip(specs, reports):
            self._store(spec.app_name, spec.label, report)
