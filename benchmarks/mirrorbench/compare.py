"""Compare two mirrorbench result files, one row per (metric, workload).

    python3 benchmarks/mirrorbench/compare.py BASE.json NEW.json

Each row prints the base median, the new median, their ratio with its
base, and a verdict drawn from the metric's bound in ``BENCHMARK.json``
(or :data:`harness.EXTRA_END_TO_END` for the ``txn_mixed``-only
metrics):

``regressed``   the new median is worse than the base by more than the bound
``improved``    it is better by more than the run-to-run noise
``unchanged``   neither
``unresolved``  the run-to-run spread of either side (IQR over median,
                needs >= 4 runs a side: ``run.py --runs N``) is wider
                than the bound, so neither of the above can be told

Per-layer metrics carry no bound; their rows show the ratio only.  The
exit status is 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from harness import END_TO_END, EXTRA_END_TO_END, PER_LAYER
from measure import spread

#: Fewer runs than this per side carry no usable quartiles.
MIN_RUNS_FOR_SPREAD = 4


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per run]}`` of one result file."""
    with open(path) as handle:
        document = json.load(handle)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        for group in ("metrics", "extra"):
            for name, metric in run.get(group, {}).items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def declaration(name: str) -> Optional[Dict[str, Any]]:
    return END_TO_END.get(name) or EXTRA_END_TO_END.get(name) or PER_LAYER.get(name)


def verdict(
    base: List[float], new: List[float], better: str, bound: Optional[float]
) -> str:
    """One of improved / unchanged / unresolved / regressed ('-' for a
    metric without a bound)."""
    if bound is None:
        return "-"
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse = new_median - base_median if better == "lower" else base_median - new_median
    if bound == 0:  # absolute: any worsening regresses
        return "regressed" if worse > 0 else "improved" if worse < 0 else "unchanged"
    if base_median == 0:
        return "unchanged" if worse == 0 else "unresolved"
    worse /= abs(base_median)
    measured = min(len(base), len(new)) >= MIN_RUNS_FOR_SPREAD
    noise = max(spread(base), spread(new)) if measured else bound
    if noise > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -noise:
        return "improved"
    return "unchanged"


def rows(base_path: str, new_path: str) -> List[Tuple[str, ...]]:
    base, new = load(base_path), load(new_path)
    out = []
    for key in sorted(set(base) & set(new)):
        workload, name = key
        declared = declaration(name) or {}
        base_median = statistics.median(base[key])
        new_median = statistics.median(new[key])
        ratio = f"{new_median / base_median:.3f}" if base_median else "n/a"
        out.append(
            (
                name, workload, f"{base_median:.4f}", f"{new_median:.4f}",
                f"{ratio} (base {base_median:.4g} {declared.get('unit', '')})",
                verdict(
                    base[key], new[key], declared.get("better", "lower"),
                    declared.get("bound"),
                ),
            )
        )
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        out.append((key[1], key[0], "", "", f"only in {side}", "-"))
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    table = rows(*argv)
    header = ("metric", "workload", "base", "new", "ratio", "verdict")
    widths = [max(len(r[i]) for r in [header, *table]) for i in range(len(header))]
    for row in [header, *table]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "regressed" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
