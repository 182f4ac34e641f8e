"""Coherence-protocol comparison matrix: LRC vs HLRC vs SC.

An extension beyond the paper: the same applications and technique
configurations (O, P, 4T, 4TP), run on each pluggable coherence
backend (see ``repro.dsm.backend``):

- ``lrc`` — the paper's protocol: TreadMarks-style lazy release
  consistency with distributed diffs (the default backend);
- ``hlrc`` — home-based LRC: every page has a deterministic home node,
  releases flush diffs to the home, faults pull the whole page from
  the home.  Fewer, larger messages; a fault is one round trip instead
  of one per concurrent writer;
- ``sc`` — single-writer sequentially-consistent invalidate: write
  faults invalidate every other copy through a directory at the page's
  manager.  No twins, no diffs — and no tolerance for false sharing.

Every cell verifies the application's answer: the matrix is only
meaningful if all three protocols compute the same result.  Runs are
fanned out with :func:`repro.experiments.runner.run_specs`, so the table is
byte-identical for any ``--jobs N``.

The per-protocol activity columns tell the mechanism story: LRC moves
diffs (``diffs``), HLRC trades them for whole-page fetches from the
home (``pg-fetch`` + ``hm-upd``), SC replaces both with invalidation
round trips (``inval``).
"""

from __future__ import annotations

from typing import Optional

from repro.api.runtime import RunConfig
from repro.apps.registry import APP_ORDER
from repro.dsm.backend import BACKEND_NAMES
from repro.experiments.formatting import render_rows
from repro.experiments.runner import ExperimentRunner, RunSpec, parse_label, run_specs

__all__ = ["protocol_matrix", "PROTOCOL_ORDER", "PROTOCOL_CONFIGS"]

#: Presentation order: the paper's protocol first, then the two zoo members.
PROTOCOL_ORDER = ("lrc", "hlrc", "sc")

#: The four technique configurations every protocol is swept across.
PROTOCOL_CONFIGS = ("O", "P", "4T", "4TP")


def _sent(report, *kinds: str) -> int:
    table = report.traffic_by_kind or {}
    return int(sum(table.get(kind, {}).get("sent", 0) for kind in kinds))


def protocol_matrix(
    runner: ExperimentRunner,
    apps: Optional[list[str]] = None,
    configs: Optional[list[str]] = None,
):
    """The full (app x configuration x protocol) comparison matrix."""
    assert set(PROTOCOL_ORDER) == set(BACKEND_NAMES)
    apps = list(apps or APP_ORDER)
    configs = list(configs or PROTOCOL_CONFIGS)
    specs = []
    cells = []
    for app_name in apps:
        for label in configs:
            threads_per_node, prefetch = parse_label(label)
            for protocol in PROTOCOL_ORDER:
                config = RunConfig(
                    num_nodes=runner.num_nodes,
                    threads_per_node=threads_per_node,
                    prefetch=prefetch,
                    seed=runner.seed,
                    protocol=protocol,
                )
                cells.append((app_name, label, protocol))
                specs.append(
                    RunSpec(app_name, runner.preset, label, config, runner.verify)
                )

    def on_done(index, report) -> None:
        if runner.verbose:
            app_name, label, protocol = cells[index]
            print(
                f"  finished {app_name} [{label}/{protocol}] "
                f"wall {report.wall_time_us / 1000:.2f} ms",
                flush=True,
            )

    reports = run_specs(specs, jobs=runner.jobs, on_done=on_done)

    headers = [
        "app",
        "config",
        "protocol",
        "wall(ms)",
        "vs lrc",
        "msgs",
        "KB",
        "faults",
        "diffs",
        "pg-fetch",
        "hm-upd",
        "inval",
        "verified",
    ]
    rows = []
    data: dict[str, dict[str, dict[str, dict]]] = {}
    by_cell = dict(zip(cells, reports))
    for app_name in apps:
        data[app_name] = {}
        for label in configs:
            data[app_name][label] = {}
            lrc_wall = by_cell[(app_name, label, "lrc")].wall_time_us
            for protocol in PROTOCOL_ORDER:
                report = by_cell[(app_name, label, protocol)]
                entry = {
                    "wall_time_us": report.wall_time_us,
                    "vs_lrc": report.wall_time_us / lrc_wall if lrc_wall else 0.0,
                    "total_messages": report.total_messages,
                    "total_kbytes": report.total_kbytes,
                    "remote_misses": report.events.remote_misses,
                    "diff_requests": _sent(report, "diff_request"),
                    "page_transfers": _sent(report, "page_reply", "sc_data"),
                    "home_updates": _sent(report, "home_update"),
                    "invalidations": _sent(report, "sc_inval"),
                    "verified": runner.verify,
                }
                data[app_name][label][protocol] = entry
                rows.append(
                    [
                        app_name,
                        label,
                        protocol,
                        f"{entry['wall_time_us'] / 1000.0:.2f}",
                        f"{entry['vs_lrc']:.2f}x",
                        f"{entry['total_messages']}",
                        f"{entry['total_kbytes']:.0f}",
                        f"{entry['remote_misses']}",
                        f"{entry['diff_requests']}",
                        f"{entry['page_transfers']}",
                        f"{entry['home_updates']}",
                        f"{entry['invalidations']}",
                        "yes" if entry["verified"] else "skipped",
                    ]
                )
    text = (
        "Coherence-protocol matrix: lrc (TreadMarks-style lazy release\n"
        "consistency) vs hlrc (home-based LRC) vs sc (single-writer\n"
        "sequentially-consistent invalidate); 'vs lrc' is wall time relative\n"
        "to the lrc cell of the same (app, config) — lower is faster\n"
        + render_rows(headers, rows)
    )
    return text, data
