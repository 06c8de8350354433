"""CI benchmark-regression gate over BENCH_fragments.json artifacts.

Compares the current benchmark run against the previous run's artifact
(downloaded by CI when one exists) and fails when any smoke-mode median
regresses beyond the threshold.  Rows are matched on the full
(op, n, backend, dtype) key; rows present on only one side are
reported but never fail the gate (benchmarks come and go as the
operator set grows).

The gate is deliberately forgiving: CI runners are shared and noisy,
so the default threshold is 2.5x on the *median* (medians absorb
scheduler spikes that best-of numbers do not).  A genuinely intended
slowdown ships by putting ``[bench-skip]`` in the commit message,
which makes CI skip this step entirely.

Usage:
    python benchmarks/check_regression.py CURRENT.json [PREVIOUS.json]
        [--threshold 2.5]

Exit status 0 = no regression (or nothing to compare), 1 = regression.
"""

import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 2.5


def load_rows(path):
    """Benchmark rows from *path*, or None when the file is missing or
    unreadable (a first run has no previous artifact to compare)."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        print(f"note: cannot read {path}: {error}")
        return None
    rows = document.get("rows", [])
    if not isinstance(rows, list):
        print(f"note: {path} has no row list")
        return None
    return rows


def row_key(row):
    return (row.get("op"), row.get("n"), row.get("backend"), row.get("dtype"))


def index_rows(rows):
    indexed = {}
    for row in rows:
        if row.get("mode") != "smoke":
            continue
        median = row.get("median_ms")
        if isinstance(median, (int, float)) and median > 0:
            indexed[row_key(row)] = float(median)
    return indexed


def compare(current, previous, threshold):
    """(regressions, improvements, unmatched) between two row indexes;
    *unmatched* are the previous run's rows the current run lacks.  A
    current row the previous artifact lacks (a new benchmark) has
    nothing to regress against."""
    regressions = []
    improvements = []
    for key, previous_ms in previous.items():
        current_ms = current.get(key)
        if current_ms is None:
            continue
        ratio = current_ms / previous_ms
        if ratio > threshold:
            regressions.append((key, previous_ms, current_ms, ratio))
        elif ratio < 1 / threshold:
            improvements.append((key, previous_ms, current_ms, ratio))
    unmatched = sorted(set(previous) - set(current))
    return regressions, improvements, unmatched


def describe(key):
    op, n, backend, dtype = key
    return f"{op} n={n} backend={backend} dtype={dtype}"


def main(argv):
    threshold = DEFAULT_THRESHOLD
    args = []
    position = 0
    while position < len(argv):
        if argv[position] == "--threshold":
            if position + 1 >= len(argv):
                print("error: --threshold needs a value")
                return 2
            threshold = float(argv[position + 1])
            position += 2
        else:
            args.append(argv[position])
            position += 1
    if not args:
        print("usage: check_regression.py CURRENT.json [PREVIOUS.json]")
        return 2
    current_rows = load_rows(args[0])
    if current_rows is None:
        print("FAIL: the current benchmark artifact is unreadable")
        return 1
    if len(args) < 2:
        print("no previous artifact given; nothing to compare -- pass")
        return 0
    previous_rows = load_rows(args[1])
    if previous_rows is None:
        print("no previous artifact available; nothing to compare -- pass")
        return 0
    current = index_rows(current_rows)
    previous = index_rows(previous_rows)
    if not previous:
        print("previous artifact has no smoke rows; nothing to compare -- pass")
        return 0
    regressions, improvements, unmatched = compare(current, previous, threshold)
    print(
        f"compared {len(set(current) & set(previous))} smoke rows "
        f"(threshold {threshold}x on median wall time)"
    )
    for key, previous_ms, current_ms, ratio in sorted(improvements):
        print(
            f"  improved  {describe(key)}: "
            f"{previous_ms:.2f} -> {current_ms:.2f} ms ({ratio:.2f}x)"
        )
    for key in unmatched:
        print(f"  unmatched {describe(key)}: present only in the previous run")
    for key in sorted(set(current) - set(previous)):
        print(f"  new       {describe(key)}: present only in the current run")
    if regressions:
        for key, previous_ms, current_ms, ratio in sorted(regressions):
            print(
                f"  REGRESSED {describe(key)}: "
                f"{previous_ms:.2f} -> {current_ms:.2f} ms ({ratio:.2f}x)"
            )
        print(
            f"FAIL: {len(regressions)} benchmark(s) regressed beyond "
            f"{threshold}x; if intended, put [bench-skip] in the commit message"
        )
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
