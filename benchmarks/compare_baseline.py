"""Perf-baseline gate: compare a pytest-benchmark run against pinned medians.

``benchmarks/baseline.json`` pins the median runtime of every throughput
benchmark.  CI runs the suite three times with ``--benchmark-json``, then
calls this script on the three result files.  Most benches time one round,
so one file's median is one sample; the gate reads each benchmark's median
of its per-file medians, which one noisy run cannot move.  Any benchmark
whose median regressed more than ``--threshold`` (default 30%) fails the
gate with a per-benchmark delta table.  Benchmarks missing from any result
file also fail (a silently-dropped benchmark is a coverage regression, and
a rename must regenerate the baseline); brand-new benchmarks are reported
but never fail — they get pinned at the next regeneration.

Regenerate the baseline after an intentional perf change (or on a new
reference machine) from the same kind of runs::

    for run in 1 2 3; do
        python -m pytest benchmarks/... -q --benchmark-json=benchmark-results-$run.json
    done
    python benchmarks/compare_baseline.py benchmark-results-*.json --write

The comparison is pure JSON — no numpy, no repro import — so the gate keeps
working even when the library itself is the thing that broke.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_THRESHOLD = 0.30
DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")

#: One comparison row: (name, baseline median, current median, delta, status).
Row = Tuple[str, Optional[float], Optional[float], Optional[float], str]


def load_medians(results_path: str) -> Dict[str, float]:
    """``{benchmark fullname: median seconds}`` from pytest-benchmark JSON."""
    with open(results_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return {bench["fullname"]: float(bench["stats"]["median"]) for bench in data["benchmarks"]}


def pooled_medians(results_paths: Sequence[str]) -> Dict[str, Optional[float]]:
    """``{benchmark fullname: median of its per-file medians}``; None for a
    benchmark that some file lacks."""
    runs = [load_medians(path) for path in results_paths]
    pooled: Dict[str, Optional[float]] = {}
    for name in set().union(*runs):
        medians = [run[name] for run in runs if name in run]
        pooled[name] = statistics.median(medians) if len(medians) == len(runs) else None
    return pooled


def compare(
    current: Dict[str, Optional[float]],
    baseline: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[Row], bool]:
    """Delta rows over the union of benchmark names, plus the gate verdict.

    ``delta`` is the relative median change (+0.50 = 50% slower); a row
    regresses when ``delta > threshold`` or the benchmark vanished from a
    run (absent from ``current``, or None there).
    """
    rows: List[Row] = []
    failed = False
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        median = current.get(name)
        if median is None:
            rows.append((name, base, None, None, "MISSING"))
            failed = True
        elif base is None:
            rows.append((name, None, median, None, "new"))
        else:
            delta = (median - base) / base
            if delta > threshold:
                rows.append((name, base, median, delta, "REGRESSED"))
                failed = True
            else:
                rows.append((name, base, median, delta, "ok"))
    return rows, failed


def render_delta_table(rows: List[Row], threshold: float) -> str:
    """The human-readable delta table CI uploads as an artifact."""

    def fmt_s(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.6f}"

    def fmt_pct(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:+.1%}"

    cells = [("benchmark", "baseline (s)", "current (s)", "delta", "status")]
    cells += [(name, fmt_s(base), fmt_s(cur), fmt_pct(delta), status)
              for name, base, cur, delta, status in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(5)]
    lines = [f"Perf baseline gate (fail above +{threshold:.0%} median):"]
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results", nargs="+",
        help="pytest-benchmark JSON file(s) (--benchmark-json output), one per run",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help="pinned medians JSON (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD, metavar="FRACTION",
        help="relative median regression that fails the gate (default: 0.30)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the delta table to FILE (for CI artifacts)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the baseline from the results instead of comparing",
    )
    args = parser.parse_args(argv)

    current = pooled_medians(args.results)
    if args.write:
        partial = sorted(name for name, median in current.items() if median is None)
        if partial:
            print(f"cannot pin benchmarks absent from some run: {partial}", file=sys.stderr)
            return 1
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(current)} baseline median(s) to {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run with --write to create one", file=sys.stderr)
        return 2
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)

    rows, failed = compare(current, baseline, args.threshold)
    table = render_delta_table(rows, args.threshold)
    print(table)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(table + "\n")
    if failed:
        bad = [row[0] for row in rows if row[4] in ("REGRESSED", "MISSING")]
        print(f"\nFAIL: {len(bad)} benchmark(s) regressed or went missing: {bad}")
        return 1
    print("\nOK: no median regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
