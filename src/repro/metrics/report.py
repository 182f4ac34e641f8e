"""Run reports: everything a finished simulation tells you.

A :class:`RunReport` carries the wall time, per-node time breakdowns and
event counters, network traffic, and (when enabled) prefetch statistics.
The experiment harness renders these into the paper's figures/tables.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.metrics.counters import Category, EventCounters, TimeBreakdown

if TYPE_CHECKING:
    from repro.prefetch.engine import PrefetchStats

__all__ = ["RunReport"]

#: Bumped whenever the serialized layout changes incompatibly.
#: v2 added the optional ``profile`` section (repro.profile); v3 the
#: optional ``critpath`` section (repro.critpath); v4 the optional
#: ``transport_health`` section (adaptive transport) and the
#: paced/shed event counters; v5 the optional ``telemetry`` section
#: (repro.telemetry) and the transport_health ``extremes`` watermarks.
#: Older payloads are still readable (the sections are simply absent
#: and the counters default to zero).
_SCHEMA_VERSION = 6
_COMPAT_VERSIONS = (1, 2, 3, 4, 5, 6)


@dataclass
class RunReport:
    """Results of one application run on one configuration."""

    app_name: str
    config_label: str
    num_nodes: int
    threads_per_node: int
    wall_time_us: float
    node_breakdowns: list[TimeBreakdown]
    node_events: list[EventCounters]
    total_messages: int
    total_kbytes: float
    message_drops: int
    #: Aggregated prefetch counters when prefetching is on, else None.
    prefetch_stats: Optional["PrefetchStats"] = None
    #: Retransmissions forced by transport timeouts (all nodes).
    retransmissions: int = 0
    #: Faults injected by the fault plan, by fault name (empty if none).
    injected_faults: dict[str, int] = field(default_factory=dict)
    #: Per-message-kind traffic table (TrafficStats.kind_breakdown):
    #: separates prefetch drops from protocol retransmits in output.
    traffic_by_kind: dict[str, dict] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: Versioned deep-profiling section (Profiler.to_dict) when the run
    #: had ``profile=`` on, else None.  Deliberately NOT part of the
    #: "core": two runs differing only in profiling produce identical
    #: reports apart from this field.
    profile: Optional[dict] = None
    #: Versioned critical-path section (CritpathResult.to_dict) when the
    #: run had ``critpath=`` on, else None.  Same contract as profile:
    #: not part of the core, reports are otherwise byte-identical.
    critpath: Optional[dict] = None
    #: Adaptive-transport health (per-node srtt/rttvar/rto/cwnd plus
    #: paced/shed/parked totals) when the run used an adaptive
    #: transport, else None — static runs carry no trace of the layer.
    transport_health: Optional[dict] = None
    #: Versioned telemetry section (TelemetrySampler.finalize: windowed
    #: time series, barrier epochs, watchdog findings) when the run had
    #: ``telemetry=`` on, else None.  Same contract as profile/critpath:
    #: not part of the core, reports are otherwise byte-identical.
    telemetry: Optional[dict] = None
    #: Coherence protocol the run used (``RunConfig.protocol``).  v6+;
    #: older payloads read back as the then-only protocol, ``lrc``.
    protocol: str = "lrc"

    # -- aggregation ----------------------------------------------------------

    @property
    def breakdown(self) -> TimeBreakdown:
        """Sum of all nodes' charged/idle time."""
        total = TimeBreakdown()
        for node_breakdown in self.node_breakdowns:
            total = total.merged_with(node_breakdown)
        return total

    @property
    def events(self) -> EventCounters:
        total = EventCounters()
        for events in self.node_events:
            total = total.merged_with(events)
        return total

    def category_fraction(self, category: Category) -> float:
        """Fraction of total node-time in a category.

        The denominator is ``wall_time * num_nodes``: the full area of
        the paper's stacked bars.
        """
        denom = self.wall_time_us * self.num_nodes
        if denom <= 0:
            return 0.0
        return self.breakdown.times[category] / denom

    def normalized_breakdown(self, baseline: Optional["RunReport"] = None) -> dict[str, float]:
        """Category percentages, normalized to a baseline's wall time.

        With no baseline, the run is its own baseline (sums to <= 100;
        the remainder is uncharged scheduling slack).
        """
        base = baseline.wall_time_us if baseline is not None else self.wall_time_us
        denom = base * self.num_nodes
        if denom <= 0:
            return {category.value: 0.0 for category in Category}
        return {
            category.value: 100.0 * self.breakdown.times[category] / denom
            for category in Category
        }

    def normalized_total(self, baseline: Optional["RunReport"] = None) -> float:
        """This run's wall time as a percentage of the baseline's."""
        base = baseline.wall_time_us if baseline is not None else self.wall_time_us
        return 100.0 * self.wall_time_us / base if base > 0 else 0.0

    def speedup_over(self, baseline: "RunReport") -> float:
        if self.wall_time_us <= 0:
            return 0.0
        return baseline.wall_time_us / self.wall_time_us

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict: enum keys become their string values."""
        return {
            "schema": _SCHEMA_VERSION,
            "app_name": self.app_name,
            "config_label": self.config_label,
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "threads_per_node": self.threads_per_node,
            "wall_time_us": self.wall_time_us,
            "node_breakdowns": [b.as_dict() for b in self.node_breakdowns],
            "node_events": [e.as_dict() for e in self.node_events],
            "total_messages": self.total_messages,
            "total_kbytes": self.total_kbytes,
            "message_drops": self.message_drops,
            "prefetch_stats": (
                asdict(self.prefetch_stats) if self.prefetch_stats is not None else None
            ),
            "retransmissions": self.retransmissions,
            "injected_faults": {str(k): int(v) for k, v in self.injected_faults.items()},
            "traffic_by_kind": {str(k): dict(v) for k, v in self.traffic_by_kind.items()},
            "extra": dict(self.extra),
            "profile": self.profile,
            "critpath": self.critpath,
            "transport_health": self.transport_health,
            "telemetry": self.telemetry,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        version = data.get("schema")
        if version not in _COMPAT_VERSIONS:
            raise ValueError(
                f"unsupported RunReport schema {version!r} "
                f"(this build reads schemas {_COMPAT_VERSIONS})"
            )
        breakdowns = [TimeBreakdown.from_dict(times) for times in data["node_breakdowns"]]
        prefetch_stats = None
        if data.get("prefetch_stats") is not None:
            from repro.prefetch.engine import PrefetchStats

            prefetch_stats = PrefetchStats(**data["prefetch_stats"])
        return cls(
            app_name=data["app_name"],
            config_label=data["config_label"],
            num_nodes=data["num_nodes"],
            threads_per_node=data["threads_per_node"],
            wall_time_us=data["wall_time_us"],
            node_breakdowns=breakdowns,
            node_events=[EventCounters(**entry) for entry in data["node_events"]],
            total_messages=data["total_messages"],
            total_kbytes=data["total_kbytes"],
            message_drops=data["message_drops"],
            prefetch_stats=prefetch_stats,
            retransmissions=data.get("retransmissions", 0),
            injected_faults={
                str(k): int(v) for k, v in data.get("injected_faults", {}).items()
            },
            traffic_by_kind={
                str(k): dict(v) for k, v in data.get("traffic_by_kind", {}).items()
            },
            extra=dict(data.get("extra", {})),
            profile=data.get("profile"),  # absent in v1 payloads
            critpath=data.get("critpath"),  # absent in v1/v2 payloads
            transport_health=data.get("transport_health"),  # v4+
            telemetry=data.get("telemetry"),  # v5+
            protocol=data.get("protocol", "lrc"),  # v6+
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def summary(self) -> dict[str, float]:
        events = self.events
        return {
            "wall_ms": self.wall_time_us / 1000.0,
            "messages": float(self.total_messages),
            "kbytes": self.total_kbytes,
            "drops": float(self.message_drops),
            "retransmits": float(events.retransmissions),
            "timeouts": float(events.transport_timeouts),
            "injected_faults": float(sum(self.injected_faults.values())),
            "misses": float(events.remote_misses),
            "avg_miss_us": events.avg_miss_stall,
            "lock_stalls": float(events.remote_lock_misses),
            "barrier_waits": float(events.barrier_waits),
        }
