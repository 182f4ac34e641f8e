#!/usr/bin/env python
"""A miniature of the paper's study: which technique wins where?

Runs two contrasting applications — RADIX (unpredictable addresses,
communication-bound) and SOR (predictable stencil) — under every
configuration of Figure 5 and reports which latency-tolerance strategy
wins for each, reproducing the paper's central conclusion: the right
technique depends on address predictability and on what kind of stall
dominates.

Usage::

    python examples/latency_tolerance_study.py
"""

from repro import DsmRuntime, RunConfig
from repro.experiments.runner import make_configured_app, parse_label

CONFIGS = ["O", "2T", "4T", "P", "2TP", "4TP"]


def run_grid(app_name: str):
    results = {}
    for label in CONFIGS:
        threads_per_node, prefetch = parse_label(label)
        app = make_configured_app(app_name, "small", label)
        config = RunConfig(
            num_nodes=4, threads_per_node=threads_per_node, prefetch=prefetch
        )
        results[label] = DsmRuntime(config).execute(app)
    return results


def main() -> None:
    for app_name in ("RADIX", "SOR"):
        print(f"\n{app_name}:")
        results = run_grid(app_name)
        baseline = results["O"]
        for label in CONFIGS:
            report = results[label]
            bar = "#" * int(40 * report.wall_time_us / baseline.wall_time_us)
            print(
                f"  {label:4s} {report.wall_time_us / 1000:8.1f} ms "
                f"({report.speedup_over(baseline):4.2f}x) {bar}"
            )
        best = min(CONFIGS, key=lambda lab: results[lab].wall_time_us)
        print(f"  -> best configuration: {best}")


if __name__ == "__main__":
    main()
