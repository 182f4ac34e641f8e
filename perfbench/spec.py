"""What the benchmark measures: workloads, metrics, and which layer
metric should move which end-to-end metric on which workload.

The workloads, metric names, units and bounds live only in
``BENCHMARK.json`` at the repo root; this module reads them from there.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def manifest() -> dict:
    """``BENCHMARK.json``: the workloads, metrics, units and bounds."""
    return json.loads(MANIFEST_PATH.read_text())


def units(section: str) -> dict[str, str]:
    """Metric name -> unit of ``end_to_end`` or ``per_layer``, in order."""
    return {m["name"]: m["unit"] for m in manifest()[section]}


#: Self-time metric of each traced span layer (see ``layers.LAYERS``).
SELF_METRIC = {
    "execute": "untraced.self_s",
    "sim": "sim.self_s",
    "machine": "machine.self_s",
    "network": "network.self_s",
    "transport": "transport.self_s",
    "dsm": "dsm.self_s",
    "memory": "memory.self_s",
    "threads": "threads.self_s",
    "prefetch": "prefetch.self_s",
    "apps": "apps.self_s",
    "trace": "trace.self_s",
    "profile": "profile.self_s",
    "telemetry": "telemetry.self_s",
    "critpath": "critpath.analyze_s",
    "ft": "ft.self_s",
    "sanitizer": "ft.sanitizer_s",
    "metrics": "metrics.self_s",
    "verify": "apps.verify_s",
}

#: Layer -> its metrics -> the end-to-end metric and workloads each
#: should move.  Written down before measuring (see README.md here).
LAYER_MAP = [
    {
        "layer": "sim",
        "metrics": ["sim.events_handled", "sim.events_per_msg", "sim.timeouts_created",
                    "sim.self_s", "sim.host_us_per_msg"],
        "moves": {"host_s": ["radix-scale", "paper-sweep"]},
        "unchanged": {"sim_ms": ["paper-sweep", "radix-scale", "observed", "lossy"]},
        "note": "sim.self_s includes the private thread-scheduler loop and "
                "process resumption, which run under Simulator.run",
    },
    {
        "layer": "machine",
        "metrics": ["machine.occupy_calls", "machine.occupy_per_msg", "machine.self_s"],
        "moves": {"host_s": ["radix-scale"]},
    },
    {
        "layer": "network",
        "metrics": ["network.msgs", "network.kbytes", "network.link_sends",
                    "network.drops", "network.self_s"],
        "moves": {"host_s": ["radix-scale"], "sim_ms": ["radix-scale"]},
        "note": "msgs/kbytes move sim_ms; link_sends/self_s move host_s",
    },
    {
        "layer": "transport",
        "metrics": ["transport.data_sent", "transport.acks", "transport.retransmits",
                    "transport.timeouts", "transport.retransmit_ratio", "transport.self_s"],
        "moves": {"sim_ms": ["lossy"]},
        "note": "~0 retransmits on paper-sweep",
    },
    {
        "layer": "dsm",
        "metrics": ["dsm.remote_misses", "dsm.remote_lock_misses", "dsm.barrier_waits",
                    "dsm.diff_requests", "dsm.ensure_valid_calls", "dsm.memory_idle_ms",
                    "dsm.sync_idle_ms", "dsm.overhead_ms", "dsm.self_s"],
        "moves": {"sim_ms": ["paper-sweep", "radix-scale"], "host_s": ["paper-sweep"]},
        "note": "self_s moves host_s; the rest move sim_ms",
    },
    {
        "layer": "memory",
        "metrics": ["memory.diffs_made", "memory.diffs_applied", "memory.diff_kbytes",
                    "memory.self_s"],
        "moves": {"sim_ms": ["paper-sweep"], "host_s": ["paper-sweep"]},
    },
    {
        "layer": "threads",
        "metrics": ["threads.context_switches", "threads.mt_overhead_ms", "threads.self_s"],
        "moves": {"sim_ms": ["paper-sweep"]},
        "note": "moves sim_ms.4T/sim_ms.4TP only; O/P cells unchanged",
    },
    {
        "layer": "prefetch",
        "metrics": ["prefetch.issued", "prefetch.hits", "prefetch.useful_ratio",
                    "prefetch.unnecessary", "prefetch.dropped", "prefetch.overhead_ms",
                    "prefetch.self_s"],
        "moves": {"sim_ms": ["paper-sweep"]},
        "note": "moves sim_ms.P/sim_ms.4TP only; O/4T cells unchanged",
    },
    {
        "layer": "observability",
        "metrics": ["trace.events", "trace.self_s", "profile.self_s", "telemetry.self_s",
                    "critpath.analyze_s"],
        "moves": {"host_s": ["observed"], "peak_rss_mb": ["observed"]},
    },
    {
        "layer": "ft",
        "metrics": ["ft.checkpoints", "ft.checkpoint_mb", "ft.downtime_ms", "ft.self_s",
                    "ft.sanitizer_s"],
        "moves": {"host_s": ["lossy", "observed"], "sim_ms": ["lossy"]},
        "note": "checkpoints on lossy; sanitizer on observed",
    },
    {
        "layer": "apps+metrics",
        "metrics": ["apps.busy_ms", "apps.self_s", "apps.verify_s", "metrics.self_s"],
        "moves": {},
        "note": "context only: the reference work, not an optimisation target",
    },
]

