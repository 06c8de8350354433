"""mirrorbench entry point.

One run (the driver's form; the last stdout line is the result JSON)::

    python3 benchmarks/mirrorbench/run.py --workload text_rank --seed 1 \\
        --seconds 20 --trace 0

Every workload, one table (the reader's form)::

    python3 benchmarks/mirrorbench/run.py --seed 1 --seconds 20 [--trace 1]
        [--runs 10] [--out result.json]

``--trace 0`` is the untraced run that yields the end-to-end metrics;
``--trace 1`` is the separate traced run that yields the per-layer
metrics and writes the span file.  Exit status is non-zero when a
correctness gate fails, when a ``REPRO_*`` override is set (committed
numbers are the defaults' numbers), or when the program's source is not
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workload mode: runs per workload, seeds "
                             "seed..seed+runs-1")
    parser.add_argument("--out", type=Path, default=None, help="result file")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"mirrorbench: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness
    from wl_frag_relational import FragRelational
    from wl_svc_image_rank import SvcImageRank
    from wl_text_rank import TextRank
    from wl_txn_mixed import TxnMixed

    overrides = harness.repro_overrides()
    if overrides:
        print(
            "mirrorbench: refusing to run with tuning overrides set: "
            + ", ".join(f"{k}={v}" for k, v in overrides.items()),
            file=sys.stderr,
        )
        return 2
    workloads = {
        cls.name: cls for cls in (TextRank, SvcImageRank, FragRelational, TxnMixed)
    }
    if list(workloads) != harness.WORKLOAD_NAMES:
        raise RuntimeError("workloads differ from BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None else harness.SPEC["run_seconds"]

    if args.workload is not None:
        if args.workload not in workloads:
            print(f"mirrorbench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        record = harness.run_workload(
            workloads[args.workload], args.seed, seconds, bool(args.trace)
        )
        out = args.out or harness.OUT_DIR / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        )
        line = harness.driver_line(record)
        harness.print_record(record)
        harness.write_result(out, seconds, [record])
        print(line)
        return 0 if record["correct"] else 1

    # Every workload, each run in its own process so peak RSS, thread
    # and temp-file hygiene are per workload.
    records = []
    for name in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            single = harness.OUT_DIR / f"{name}-seed{seed}-trace{args.trace}.json"
            single.unlink(missing_ok=True)
            completed = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace),
                    "--out", str(single),
                ],
                stdout=subprocess.PIPE, text=True,
            )
            if not single.exists():
                print(completed.stdout)
                print(f"mirrorbench: {name} seed {seed} produced no result "
                      f"(exit {completed.returncode})", file=sys.stderr)
                return 1
            with open(single) as handle:
                record = json.load(handle)["runs"][0]
            spans = single.with_name(single.stem + ".spans.json")
            if spans.exists():
                with open(spans) as handle:
                    record["spans"] = json.load(handle)["spans"][f"{name}:{seed}"]
            harness.print_record(record)
            records.append(record)
    out = args.out or harness.OUT_DIR / f"all-seed{args.seed}-trace{args.trace}.json"
    correct = all(r["correct"] for r in records)
    harness.write_result(out, seconds, records)
    print(f"wrote {out}" + ("" if correct else "  (GATE FAILURES above)"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
