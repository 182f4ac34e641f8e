#!/usr/bin/env python3
"""Host-time benchmark for the DSM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload: host
seconds per pass over its cells (each cell's median over repeated
passes), set-up time, the slowest cell, peak memory and simulated time.
Host times are scaled to a nominal host speed, measured by a reference
loop timed between cells (see ``reference_s``).  ``--trace 1``
runs untraced and traced passes and reports the per-layer metrics.
Every cell's output is checked (the apps' own numerical verification
plus the workload's extra checks); the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Detailed results (and, for traced runs, the span log) are written under
``perfbench/out/``.

``--record-shape`` re-measures ``perfbench/shape.json``, each
workload's load shape.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_PROBES = 9
#: Iterations of the reference loop, and its host seconds at the nominal
#: host speed: its usual time on the otherwise idle 2-core x86-64 host
#: (CPython 3.11.7) the bounds were set on.
REF_LOOPS = 20000
REF_S = 0.0140

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (no repro import: usable without the library)


def import_library() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC}/repro; run from a repo checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


# -- host speed -----------------------------------------------------------------


def reference_s() -> float:
    """Host seconds of a fixed pure-Python loop.

    It mixes the simulator's kinds of work (heap pushes and pops, dict
    stores, small allocations, generator resumes) and touches nothing of
    the library, so no change to the library can change it.  On a
    shared host, other tenants slow everything by up to 1.7x in spells
    that can outlast a run.  A cell's time divided by this loop's mean
    time just before and after it, as a median over passes, repeats
    across runs several times more closely than the cell's time alone.
    """

    def echo():
        value = 0
        while True:
            value = yield value

    started = time.perf_counter()
    heap: list = []
    table: dict = {}
    gen = echo()
    next(gen)
    for i in range(REF_LOOPS):
        heapq.heappush(heap, (i * 7919 % 1000, i, (i,)))
        table[i & 511] = [i, i + 1]
        gen.send(i)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


def nominal_s(seconds: float, *refs: float) -> float:
    """``seconds`` scaled to the nominal host speed by reference loop times."""
    return seconds * REF_S / statistics.fmean(refs)


# -- one cell -----------------------------------------------------------------


def extra_checks(cell, runtime, report) -> str | None:
    """The workload's checks beyond app verification; a reason, or None."""
    from repro.trace import PhaseTimeline

    if cell.observed:
        mismatches = PhaseTimeline.from_events(runtime.tracer.events).verify_against(report)
        if mismatches:
            return "timeline audit: " + "; ".join(mismatches[:3])
        cp = report.critpath
        if not (cp["identity_exact"] and cp["wall_time_us"] == report.wall_time_us):
            return f"critpath identity: path {cp['path_us']} != wall {report.wall_time_us}"
    if cell.loss and report.events.retries_exhausted:
        return f"transport retries exhausted {report.events.retries_exhausted}x"
    if cell.crash and report.extra["ft"]["recoveries"] != 1:
        return f"crash cell recovered {report.extra['ft']['recoveries']}x, expected 1"
    return None


def report_counts(runtime, report) -> dict[str, float]:
    """Exact per-layer counters a cell's report and runtime expose."""
    from repro.metrics.counters import Category

    events = report.events
    times = report.breakdown.times
    transports = runtime.cluster.transports
    kinds = report.traffic_by_kind
    pf = report.prefetch_stats
    ft = report.extra.get("ft", {})
    return {
        "sim.events_handled": runtime.cluster.sim.events_handled,
        "network.msgs": report.total_messages,
        "network.kbytes": report.total_kbytes,
        "network.drops": report.message_drops,
        "transport.data_sent": sum(t.stats.data_sent for t in transports),
        "transport.acks": sum(t.stats.acks_sent for t in transports),
        "transport.retransmits": report.retransmissions,
        "transport.timeouts": sum(t.stats.timeouts for t in transports),
        "dsm.remote_misses": events.remote_misses,
        "dsm.remote_lock_misses": events.remote_lock_misses,
        "dsm.barrier_waits": events.barrier_waits,
        "dsm.diff_requests": kinds.get("diff_request", {}).get("sent", 0),
        "dsm.memory_idle_ms": times[Category.MEMORY_IDLE] / 1000.0,
        "dsm.sync_idle_ms": times[Category.SYNC_IDLE] / 1000.0,
        "dsm.overhead_ms": times[Category.DSM] / 1000.0,
        "threads.context_switches": events.context_switches,
        "threads.mt_overhead_ms": times[Category.MT] / 1000.0,
        "prefetch.issued": pf.issued if pf else 0,
        "prefetch.hits": pf.hits if pf else 0,
        "prefetch.unnecessary": pf.unnecessary if pf else 0,
        "prefetch.dropped": sum(
            kinds.get(kind, {}).get("dropped", 0)
            for kind in ("prefetch_request", "prefetch_reply")
        ),
        "prefetch.overhead_ms": times[Category.PREFETCH] / 1000.0,
        "trace.events": len(runtime.tracer),
        "ft.checkpoints": ft.get("checkpoints", 0),
        "ft.checkpoint_mb": ft.get("checkpoint_bytes", 0) / 2**20,
        "ft.downtime_ms": times[Category.DOWNTIME] / 1000.0,
        "apps.busy_ms": times[Category.BUSY] / 1000.0,
    }


def run_cell(cell, seed, crash_at, recorder=None) -> dict:
    from workloads import build

    gc.collect()
    runtime, app = build(cell, seed, crash_at)
    if recorder is not None:
        recorder.new_cell()
    failure = None
    report = None
    started = time.perf_counter()
    try:
        report = runtime.execute(app)
    except Exception as exc:  # a failed cell is counted, not fatal
        failure = f"{type(exc).__name__}: {exc}"
    host_s = time.perf_counter() - started
    result = {"cell": cell.cell_id, "label": cell.label, "host_s": host_s}
    if report is not None:
        failure = extra_checks(cell, runtime, report)
        result["stats"] = [
            report.wall_time_us,
            report.total_messages,
            report.total_kbytes,
            report.message_drops,
            report.retransmissions,
            runtime.cluster.sim.events_handled,
        ]
        result["counts"] = report_counts(runtime, report)
    result["failure"] = failure
    return result


def run_pass(cells, seed, crash_at, recorder=None) -> list[dict]:
    return [run_cell(cell, seed, crash_at, recorder) for cell in cells]


def calibrated_pass(cells, seed, crash_at) -> list[dict]:
    """A pass that times the reference loop between cells.

    Each cell's ``nominal_s`` is its host time scaled by the loops just
    before and just after it.
    """
    results = []
    gc.collect()
    before = reference_s()
    for cell in cells:
        result = run_cell(cell, seed, crash_at)
        gc.collect()
        after = reference_s()
        result["ref_s"] = [before, after]
        result["nominal_s"] = nominal_s(result["host_s"], before, after)
        results.append(result)
        before = after
    return results


def fingerprint(results: list[dict]) -> str:
    """Digest of every cell's simulated statistics, in cell order.

    Wall us, messages, kbytes, drops, retransmissions, events handled.
    Equal digests mean byte-identical simulated results.
    """
    rows = [[r["cell"], r.get("stats")] for r in results]
    text = json.dumps(rows, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sim_ms_by_scheme(results: list[dict]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for r in results:
        if r.get("stats"):
            out["sim_ms." + r["label"]] += r["stats"][0] / 1000.0
    return dict(sorted(out.items()))


def summed_counts(results: list[dict]) -> dict[str, float]:
    total: dict[str, float] = defaultdict(int)
    for r in results:
        for name, value in r.get("counts", {}).items():
            total[name] += value
    return dict(total)


# -- set-up time ----------------------------------------------------------------


def setup_probe(workload: str, seed: int, crash_at: dict) -> list[float]:
    """Import ``repro`` and construct every cell; runs in a fresh process.

    Returns the seconds taken, and the same scaled to the nominal host
    speed by reference loops just before and after.
    """
    before = reference_s()
    started = time.perf_counter()
    import_library()
    from workloads import WORKLOADS, build

    built = [build(cell, seed, crash_at) for cell in WORKLOADS[workload]]
    elapsed = time.perf_counter() - started
    del built
    return [elapsed, nominal_s(elapsed, before, reference_s())]


def measure_setup(workload: str, seed: int, crash_at: dict) -> tuple[list[float], list[float]]:
    """Seconds of each set-up probe, as timed and at the nominal speed."""
    samples, nominal = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--crash-at", json.dumps(crash_at)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, scaled = json.loads(done.stdout.splitlines()[-1])
        samples.append(elapsed)
        nominal.append(scaled)
    return samples, nominal


# -- the two kinds of run -------------------------------------------------------


def check_passes(passes: list[list[dict]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every cell of every pass.

    A cell also fails when its simulated statistics differ from the
    first pass's: the simulation must be deterministic.
    """
    attempted = failed = 0
    problems = []
    first = passes[0]
    for number, results in enumerate(passes):
        for r, ref in zip(results, first):
            attempted += 1
            reason = r["failure"]
            if reason is None and r.get("stats") != ref.get("stats"):
                reason = (
                    f"pass {number} differs from pass 0: {r.get('stats')} vs {ref.get('stats')}"
                )
            if reason:
                failed += 1
                problems.append(f"{r['cell']}: {reason}")
    return attempted, failed, problems


def cell_medians(passes: list[list[dict]], key: str) -> list[tuple[str, float]]:
    return [
        (cells[0]["cell"], statistics.median(r[key] for r in cells))
        for cells in zip(*passes)
    ]


def fits(deadline: float, last_s: float) -> bool:
    """Whether another pass as long as the last one ends by the deadline."""
    return time.perf_counter() + last_s <= deadline


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS, crash_times

    cells = WORKLOADS[workload]
    crash_at = crash_times(cells, seed)
    deadline = time.perf_counter() + seconds
    setup, setup_nominal = measure_setup(workload, seed, crash_at)
    passes = []
    pass_s = 0.0
    while len(passes) < MIN_PASSES or fits(deadline, pass_s):
        started = time.perf_counter()
        passes.append(calibrated_pass(cells, seed, crash_at))
        pass_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = check_passes(passes)
    medians = cell_medians(passes, "nominal_s")
    raw = cell_medians(passes, "host_s")
    first = passes[0]
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprint": fingerprint(first),
        "sim_ms_by_scheme": sim_ms_by_scheme(first),
        "raw_host_s": sum(host for _, host in raw),
        "raw_setup_s": statistics.median(setup),
        "cells": [
            {"cell": cell, "host_s": host, "stats": r.get("stats"),
             "host_samples_s": [p[i]["host_s"] for p in passes],
             "ref_samples_s": [p[i]["ref_s"] for p in passes]}
            for i, ((cell, host), r) in enumerate(zip(medians, first))
        ],
        "setup_samples_s": setup,
        "setup_nominal_samples_s": setup_nominal,
        "pass_host_s": [sum(r["host_s"] for r in results) for results in passes],
        "metrics": {
            "host_s": sum(host for _, host in medians),
            "setup_s": statistics.median(setup_nominal),
            "max_cell_s": max(host for _, host in medians),
            "peak_rss_mb": peak_rss_mb,
            "sim_ms": sum(r["stats"][0] for r in first if r.get("stats")) / 1000.0,
        },
    }


def span_log_self_s(rec):
    """Self seconds per [cell, layer], recomputed from the span log alone."""
    import numpy as np
    from layers import LAYERS

    start = np.frombuffer(rec.span_start, dtype=np.float64)
    duration = np.frombuffer(rec.span_end, dtype=np.float64) - start
    parent = np.frombuffer(rec.span_parent, dtype=np.int32)
    own = duration.copy()
    nested = parent >= 0
    np.subtract.at(own, parent[nested], duration[nested])
    table = np.zeros((len(rec.self_s), len(LAYERS)))
    cell = np.frombuffer(rec.span_cell, dtype=np.int16)
    layer = np.frombuffer(rec.span_layer, dtype=np.int8)
    np.add.at(table, (cell, layer), own)
    return table


def traced_pass(cells, seed, crash_at):
    from layers import LAYERS, Tracing

    with Tracing() as tracing:
        results = run_pass(cells, seed, crash_at, tracing.recorder)
    rec = tracing.recorder
    # Span accounting: each cell's self times per layer, kept as running
    # totals while tracing, must match the same figures recomputed from
    # the span log, and its execute span must lie within the cell's own
    # timing of ``execute``.
    from_log = span_log_self_s(rec)
    tolerance = 1e-6 + 1e-9 * len(rec.span_start)
    for r, selfs, logged, execute_s in zip(results, rec.self_s, from_log, rec.execute_s):
        worst = max(range(len(LAYERS)), key=lambda i: abs(selfs[i] - logged[i]))
        if r["failure"]:
            continue
        if abs(selfs[worst] - logged[worst]) > tolerance:
            r["failure"] = (
                f"span accounting: {LAYERS[worst]} self time {selfs[worst]:.9f}s, "
                f"span log gives {logged[worst]:.9f}s"
            )
        elif execute_s > r["host_s"]:
            r["failure"] = f"execute span {execute_s:.9f}s > cell time {r['host_s']:.9f}s"
    if rec.open_spans and not results[-1]["failure"]:
        results[-1]["failure"] = f"{rec.open_spans} spans left open"
    self_s = {
        spec.SELF_METRIC[layer]: sum(row[i] for row in rec.self_s)
        for i, layer in enumerate(LAYERS)
    }
    return results, self_s, rec, tracing.unreachable


def write_spans(path: Path, rec, cells) -> None:
    import numpy as np
    from layers import LAYERS

    np.savez(
        path,
        layer=np.frombuffer(rec.span_layer, dtype=np.int8),
        cell=np.frombuffer(rec.span_cell, dtype=np.int16),
        parent=np.frombuffer(rec.span_parent, dtype=np.int32),
        start=np.frombuffer(rec.span_start, dtype=np.float64),
        end=np.frombuffer(rec.span_end, dtype=np.float64),
        layer_names=np.array(LAYERS),
        cell_ids=np.array([cell.cell_id for cell in cells]),
    )


def trace_run(workload: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS, crash_times

    cells = WORKLOADS[workload]
    crash_at = crash_times(cells, seed)
    deadline = time.perf_counter() + seconds
    untraced, traced, self_samples = [], [], []
    pair_s = 0.0
    # Untraced then traced, in pairs; the first untraced pass also
    # loads every lazily imported module, so tracing can wrap it.
    while not traced or fits(deadline, pair_s):
        started = time.perf_counter()
        untraced.append(run_pass(cells, seed, crash_at))
        results, self_s, rec, unreachable = traced_pass(cells, seed, crash_at)
        traced.append(results)
        self_samples.append(self_s)
        pair_s = time.perf_counter() - started
    # Every pass, traced or not, must reproduce the first one exactly.
    attempted, failed, problems = check_passes(untraced + traced)
    untraced_s = statistics.median(sum(r["host_s"] for r in p) for p in untraced)
    traced_s = statistics.median(sum(r["host_s"] for r in p) for p in traced)

    counts = summed_counts(traced[-1])
    counts.update(rec.counts)
    msgs = counts["network.msgs"]
    data_sent = counts["transport.data_sent"]
    metrics = dict(counts)
    metrics.update(
        {
            "sim.events_per_msg": counts["sim.events_handled"] / msgs,
            "sim.host_us_per_msg": untraced_s / msgs * 1e6,
            "machine.occupy_per_msg": counts["machine.occupy_calls"] / msgs,
            "transport.retransmit_ratio": (
                counts["transport.retransmits"] / data_sent if data_sent else 0.0
            ),
            "prefetch.useful_ratio": (
                counts["prefetch.hits"] / counts["prefetch.issued"]
                if counts["prefetch.issued"] else 0.0
            ),
            "tracing_overhead": traced_s / untraced_s,
        }
    )
    for name in spec.SELF_METRIC.values():
        metrics[name] = statistics.median(sample[name] for sample in self_samples)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}.spans.npz"
    write_spans(spans_path, rec, cells)
    return {
        "workload": workload,
        "seed": seed,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprint": fingerprint(untraced[0]),
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans": len(rec.span_start),
        "spans_file": str(spans_path.relative_to(REPO)),
        "unreachable": unreachable,
        "metrics": {name: metrics[name] for name in spec.units("per_layer")},
    }


# -- output -----------------------------------------------------------------------


def print_timed(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{len(result['cells'])} cells x {result['passes']} passes")
    for cell in result["cells"]:
        wall = cell["stats"][0] / 1000.0 if cell["stats"] else float("nan")
        print(f"  {cell['cell']:34s} host {cell['host_s']:8.4f} s   sim {wall:10.3f} ms")
    print(f"host_s {result['metrics']['host_s']:.4f} s at the nominal host speed, "
          f"{result['raw_host_s']:.4f} s as timed; setup_s {result['metrics']['setup_s']:.4f} s "
          f"nominal, {result['raw_setup_s']:.4f} s as timed")
    for name, value in result["sim_ms_by_scheme"].items():
        print(f"{name} {value:.3f} ms")
    print(f"fail_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} cells)")
    print(f"fingerprint {result['fingerprint']}")


def print_traced(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['passes']['untraced']} untraced + {result['passes']['traced']} traced passes, "
          f"{result['spans']} spans -> {result['spans_file']}")
    print(f"tracing overhead {result['metrics']['tracing_overhead']:.2f}x "
          f"(traced pass {result['traced_pass_s']:.3f} s / "
          f"untraced {result['untraced_pass_s']:.3f} s)")
    selfs = {n: v for n, v in result["metrics"].items() if n in spec.SELF_METRIC.values()}
    total = sum(selfs.values())
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {name:22s} {value:9.4f} s  {100 * value / total:5.1f}%")
    print("note: threads' private scheduler loop and the kernel's process resumption "
          "run under Simulator.run and count in sim.self_s")
    for item in result["unreachable"] or ["none found"]:
        print(f"public functions bound where no wrapper reaches them "
              f"(left for in-program tracing): {item}")
    print(f"fingerprint {result['fingerprint']}")


def write_result(result: dict, trace: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")


def final_line(result: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in result["metrics"].items()
            },
        }
    )


# -- load shape ---------------------------------------------------------------------


def record_shape(seed: int) -> Path:
    """Measure each workload's load shape into ``perfbench/shape.json``."""
    from workloads import WORKLOADS

    shape = {"seed": seed, "workloads": {}}
    for workload in WORKLOADS:
        result = trace_run(workload, seed, seconds=0)
        m = result["metrics"]
        selfs = {n: m[n] for n in spec.SELF_METRIC.values()}
        total = sum(selfs.values())
        shape["workloads"][workload] = {
            "cells": len(WORKLOADS[workload]),
            "messages_per_cell": m["network.msgs"] / len(WORKLOADS[workload]),
            "events_per_msg": m["sim.events_per_msg"],
            "retransmit_ratio": m["transport.retransmit_ratio"],
            "prefetch_issued": m["prefetch.issued"],
            "tracing_overhead": m["tracing_overhead"],
            "host_self_share": {
                name: round(value / total, 4)
                for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])
            },
        }
        print(f"{workload}: {json.dumps(shape['workloads'][workload])}", flush=True)
    path = HERE / "shape.json"
    path.write_text(json.dumps(shape, indent=2) + "\n")
    return path


def main(argv=None) -> int:
    manifest = spec.manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--crash-at", default="{}", help=argparse.SUPPRESS)
    parser.add_argument("--record-shape", action="store_true",
                        help="re-measure perfbench/shape.json and exit")
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, json.loads(args.crash_at))))
        return 0
    import_library()
    if args.record_shape:
        print(record_shape(args.seed))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        result = trace_run(args.workload, args.seed, args.seconds)
        print_traced(result)
        units = spec.units("per_layer")
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
        print_timed(result)
        units = spec.units("end_to_end")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    write_result(result, args.trace)
    print(final_line(result, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
