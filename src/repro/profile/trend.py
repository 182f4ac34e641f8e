"""Trajectory tables across bench points: ``python -m repro.profile.trend``.

``repro.profile.compare`` answers "did NEW regress against OLD?" for
one pair of files; this module answers the longitudinal question — how
has each metric moved across *all* committed ``BENCH_*.json`` points?
Every file becomes one column (labelled from its ``created`` stamp,
falling back to the filename), every flattened metric one row, with the
net change over the whole span::

    python -m repro.profile.trend BENCH_*.json
    python -m repro.profile.trend --metric '*/wall_time_us' BENCH_*.json
    python -m repro.profile.trend --metric 'SOR/*/time.*' --out trend.tsv BENCH_*.json

Files are ordered as given on the command line (shell glob order is
lexicographic, which the date-stamped naming convention makes
chronological).  Metric names and selection reuse the flattening and
fnmatch vocabulary of :mod:`repro.profile.compare`, so the same
patterns work in both tools.  Exit codes: 0 rendered, 2 load/usage
errors (no metric matched, unreadable file, unrecognized schema).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fnmatch import fnmatchcase
from typing import Optional, TextIO

from repro.profile.compare import flatten

__all__ = ["trend_table", "render_trend", "main"]


def _label(path: str, doc: dict) -> str:
    # The filename stamp wins: several points can share a ``created``
    # date (BENCH_2026-08-07, -07e) but filenames are unique.
    name = os.path.basename(path)
    if name.startswith("BENCH_"):
        return name[len("BENCH_") :].removesuffix(".json")
    created = doc.get("created")
    if isinstance(created, str) and created:
        return created.split("T")[0] if "T" in created else created
    return name


def trend_table(
    paths: list[str], patterns: Optional[list[str]] = None
) -> tuple[list[str], dict[str, list[Optional[float]]]]:
    """Load bench points into ``(column labels, metric -> value-per-point)``.

    A metric absent from some points gets ``None`` in those columns
    (metrics appear as the codebase grows sections; the trajectory of
    the overlap is still meaningful).
    """
    labels: list[str] = []
    flats: list[dict[str, float]] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        labels.append(_label(path, doc))
        flats.append(flatten(doc))
    names: set[str] = set()
    for flat in flats:
        names.update(flat)
    if patterns:
        names = {
            name
            for name in names
            if any(fnmatchcase(name, pattern) for pattern in patterns)
        }
    table: dict[str, list[Optional[float]]] = {
        name: [flat.get(name) for flat in flats] for name in sorted(names)
    }
    return labels, table


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.2f}"


def render_trend(
    labels: list[str],
    table: dict[str, list[Optional[float]]],
    out: Optional[TextIO] = None,
    tsv: bool = False,
) -> None:
    """Render the trajectory table (aligned text, or TSV for tooling)."""
    out = out if out is not None else sys.stdout
    header = ["metric", *labels, "net"]
    rows: list[list[str]] = []
    for name, values in table.items():
        present = [value for value in values if value is not None]
        if len(present) >= 2 and present[0]:
            net = 100.0 * (present[-1] - present[0]) / abs(present[0])
            net_text = f"{net:+.1f}%"
        elif len(present) >= 2:
            net_text = f"{present[-1] - present[0]:+g}"
        else:
            net_text = "-"
        rows.append([name, *[_format_value(value) for value in values], net_text])
    if tsv:
        for row in [header, *rows]:
            print("\t".join(row), file=out)
        return
    widths = [
        max(len(row[column]) for row in [header, *rows])
        for column in range(len(header))
    ]
    print(
        "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(header)
        ),
        file=out,
    )
    for row in rows:
        print(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            ),
            file=out,
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile.trend",
        description="Per-metric trajectory table across BENCH_*.json points.",
    )
    parser.add_argument("files", nargs="+", help="bench JSON files, oldest first")
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="PATTERN",
        help="fnmatch pattern over flattened metric names (repeatable; "
        "default '*/wall_time_us')",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="every metric, not just the default wall-time selection",
    )
    parser.add_argument("--out", metavar="PATH", help="also write the table as TSV")
    args = parser.parse_args(argv)

    patterns = args.metric or (None if args.all else ["*/wall_time_us"])
    try:
        labels, table = trend_table(args.files, patterns)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not table:
        print("error: no metric matched the selection", file=sys.stderr)
        return 2
    print(f"{len(table)} metric(s) across {len(labels)} bench point(s)")
    render_trend(labels, table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            render_trend(labels, table, out=handle, tsv=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
