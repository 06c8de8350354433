"""What every workload shares: the op loop, the run sequence (set-up ->
warm-up -> timed phase(s) -> gates -> the remaining set-ups -> teardown
-> hygiene), the environment fingerprint and the result file.

A workload is a class with ``setup / warmup / run / dissect / verify /
teardown`` (see :mod:`wl_text_rank` for the smallest one).  Its op
sequence is drawn once from the seed and consumed through one shared
cursor, so warm-up, the timed phase and the traced phases never replay
an op.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from measure import SpanRecorder, median, own_peak_rss_kb, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = ROOT / ".mirrorbench_out"

with open(ROOT / "BENCHMARK.json") as _handle:
    SPEC = json.load(_handle)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: End-to-end metrics the contract cannot carry (it wants every metric
#: on every workload, never 0): reported in the result file and the
#: ``--all`` table, compared by ``compare.py`` with these bounds.
#: ``bound: 0`` is absolute -- any worsening is a regression.
EXTRA_END_TO_END = {
    "failed_frac": {"unit": "ratio", "better": "lower", "bound": 0},
    "commit_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "commit_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.15},
    "lost_commit_frac": {"unit": "ratio", "better": "lower", "bound": 0},
    "disk_bytes_per_user_byte": {"unit": "ratio", "better": "lower", "bound": 0.02},
}

#: Set-ups per run (the median is reported): at least three, more while
#: they are cheap, so a 20 ms set-up is not judged on three samples.
MIN_SETUPS = 3
MAX_SETUPS = 15
CHEAP_SETUP_BUDGET_S = 1.5
WARMUP_OPS = 10
MIN_DISSECT_OPS = 20


@dataclass
class Phase:
    """Outcome of one timed op loop."""

    latencies_ms: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def beside(self, other: "Phase") -> "Phase":
        """This phase and *other* ran side by side (two clients)."""
        return Phase(
            self.latencies_ms + other.latencies_ms,
            max(self.wall_s, other.wall_s),
            self.attempted + other.attempted,
            self.failed + other.failed,
            self.errors + other.errors,
        )


def closed_loop(
    op: Callable[[Any], bool],
    items: Iterator[Any],
    seconds: float,
    rec: Optional[SpanRecorder] = None,
    request_ids: Optional[Iterator[int]] = None,
) -> Phase:
    """One caller, next op only after the previous one returned.  *op*
    returns whether its result was correct; an op that raises or
    returns wrong counts as failed and contributes no latency.  With a
    recorder, each op runs inside a ``request`` span."""
    phase = Phase()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        begin = time.perf_counter()
        if begin >= deadline:
            break
        item = next(items)
        phase.attempted += 1
        try:
            if rec is None:
                ok = op(item)
            else:
                with rec.span("request", next(request_ids)):
                    ok = op(item)
        except Exception:  # an op boundary: count it, keep the run alive
            ok = False
            if len(phase.errors) < 3:
                phase.errors.append(traceback.format_exc(limit=4))
        end = time.perf_counter()
        if ok:
            phase.latencies_ms.append((end - begin) * 1000.0)
        else:
            phase.failed += 1
    phase.wall_s = time.perf_counter() - start
    return phase


def dissect_items(first: Any, stream: Iterator[Any], seconds: float) -> Iterator[Any]:
    """Ops for a sequential dissection: the seed's *first* op (its
    counts are what repeats exactly run to run), then the stream, for at
    least :data:`MIN_DISSECT_OPS` ops and until *seconds* have passed."""
    deadline = time.perf_counter() + seconds
    for done, item in enumerate(itertools.chain([first], stream)):
        if done >= MIN_DISSECT_OPS and time.perf_counter() >= deadline:
            return
        yield item


#: CPUs this process may run on, read before any workload pins itself.
ALL_CPUS: List[int] = (
    sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
)


class Workload:
    """Base class; subclasses set ``name`` and override the hooks."""

    name = ""
    #: Which of :data:`ALL_CPUS` the benchmark process runs on: "all",
    #: "last" (one CPU) or "not-last" (the last one is a child's).
    #: "last" is for a program that is one interpreter lock's worth of
    #: threads: on two cores such a process flips between scheduling
    #: regimes (hand the lock across cores, or keep it) that move its
    #: tail latency by 40 % for minutes at a time; on one core it cannot.
    CPUS = "all"

    def __init__(self, seed: int, tmp: Path, rec: SpanRecorder):
        self.seed = seed
        self.tmp = tmp
        #: Receives the set-up spans (``mapping.load``, ``ir.stats``)
        #: always, the op and dissection spans in a traced run.
        self.rec = rec
        self.request_ids = itertools.count()
        #: Fingerprint of the seeded op list.
        self.ops_hash = ""
        #: Per-layer metrics spans cannot carry (counts, ratios).
        self.counts: Dict[str, float] = {}
        #: Peak RSS of processes this workload started and reaped (KiB).
        self.child_rss_kb = 0

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, traced: bool = False) -> Phase:
        """The workload's timed op loop; *traced* wraps each op in a
        ``request`` span (the traced critical path)."""
        raise NotImplementedError

    def dissect(self, seconds: float) -> None:
        """Sequential per-request dissection plus direct-call probes,
        recorded into ``self.rec``; count metrics go to ``self.counts``."""
        raise NotImplementedError

    def verify(self) -> List[str]:
        """End-of-run correctness gates; returns failure messages."""
        return []

    def extras(self) -> Dict[str, float]:
        """Workload-only end-to-end metrics (``txn_mixed``)."""
        return {}

    def teardown(self) -> List[str]:
        """Release everything; returns hygiene violations."""
        return []


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def repro_overrides() -> Dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def fingerprint() -> Dict[str, Any]:
    import numpy

    from repro.monet import bbp, fragments
    from repro.service import ServiceConfig
    from wl_svc_image_rank import service_config

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "fragments.default_tuning": fragments.default_tuning(),
        "bbp.WAL_GROUP_MS": bbp.WAL_GROUP_MS,
        "ServiceConfig.default": asdict(ServiceConfig()),
        "ServiceConfig.svc_image_rank": asdict(service_config()),
        "REPRO_env": repro_overrides(),
    }


def live_threads(prefixes=("mirror-", "bbp-merge")) -> List[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith(prefixes)]


def wait_for_threads(timeout: float = 5.0) -> List[str]:
    deadline = time.monotonic() + timeout
    while live_threads() and time.monotonic() < deadline:
        time.sleep(0.02)
    return live_threads()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def _leftovers(tmp: Path) -> List[str]:
    """Names left in the run's temp directory (an empty BBP spill
    directory is the pool's own, removed at interpreter exit)."""
    return [
        p.name for p in tmp.iterdir()
        if not (
            p.is_dir() and p.name.startswith("repro-bbp-spill-")
            and not any(p.iterdir())
        )
    ]


def run_workload(cls, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload once; returns the result record (metrics with
    units and sample counts, gate failures, hygiene violations)."""
    from layers import span_metrics
    from repro.monet.fragments import shutdown_backends

    cpus = ALL_CPUS
    if len(ALL_CPUS) > 1 and cls.CPUS != "all":
        cpus = ALL_CPUS[-1:] if cls.CPUS == "last" else ALL_CPUS[:-1]
        os.sched_setaffinity(0, cpus)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{cls.name}-", dir=OUT_DIR))
    # Everything the program itself spills (BBP spill units, temp
    # files) must land inside the checkout too.
    tempfile.tempdir = str(tmp)
    gates: List[str] = []
    hygiene: List[str] = []
    setups: List[float] = []
    rec = SpanRecorder()
    workload = None

    def timed_setup():
        start = time.perf_counter()
        fresh = cls(seed, tmp, rec)
        fresh.setup()
        setups.append(time.perf_counter() - start)
        return fresh

    try:
        workload = measured = timed_setup()
        workload.warmup()
        if not trace:
            phase = workload.run(seconds)
        else:
            # Untraced base, the same loop with a span around each op
            # (their difference is the tracing overhead), then the
            # sequential dissection.
            base = workload.run(seconds * 0.35)
            phase = workload.run(seconds * 0.35, traced=True)
            phase.attempted += base.attempted
            phase.failed += base.failed
            phase.errors += base.errors
            workload.dissect(seconds * 0.30)
        gates += workload.verify()
        # The remaining set-ups run after the measured phase, so their
        # garbage cannot slow it; the first one above was cold.
        while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(setups) < CHEAP_SETUP_BUDGET_S
        ):
            hygiene += workload.teardown()
            workload = None
            gc.collect()
            workload = timed_setup()
    finally:
        if workload is not None:
            hygiene += workload.teardown()
        shutdown_backends()
        leaked = wait_for_threads()
        if leaked:
            hygiene.append(f"threads left running: {leaked}")
        leftovers = _leftovers(tmp)
        if leftovers:
            hygiene.append(f"temp files left behind: {leftovers}")
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)

    extras = measured.extras()
    extras["failed_frac"] = phase.failed / phase.attempted
    samples: Dict[str, int] = {}
    if not trace:
        n = len(phase.latencies_ms)
        metrics = {
            "setup_s": median(setups),
            "op_p50_ms": percentile(phase.latencies_ms, 50),
            "op_p90_ms": percentile(phase.latencies_ms, 90),
            "ops_per_s": n / phase.wall_s,
            "peak_rss_mb": (own_peak_rss_kb() + measured.child_rss_kb) / 1024.0,
        }
        samples = {"setup_s": len(setups), "op_p50_ms": n, "op_p90_ms": n,
                   "ops_per_s": n, "peak_rss_mb": 1}
        declared = END_TO_END
    else:
        traced = [s.duration * 1000.0 for s in rec.spans if s.name == "request"]
        untraced = median(base.latencies_ms)
        layer = span_metrics(rec, PER_LAYER)
        layer.update(measured.counts)
        layer["trace.overhead_frac"] = (median(traced) - untraced) / untraced
        layer.update({f"txn.{k}": v for k, v in extras.items() if k != "failed_frac"})
        unknown = set(layer) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
        metrics = {name: float(layer.get(name, 0.0)) for name in PER_LAYER}
        declared = PER_LAYER
    if phase.errors:
        gates.append("first op errors:\n" + "\n".join(phase.errors))
    record: Dict[str, Any] = {
        "workload": cls.name,
        "seed": seed,
        "trace": int(trace),
        "cpus": cpus,
        "ops_hash": measured.ops_hash,
        "correct": not gates and not hygiene and phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "gates": gates,
        "hygiene": hygiene,
        "metrics": {
            name: {
                "value": value,
                "unit": declared[name]["unit"],
                "samples": samples.get(name),
            }
            for name, value in metrics.items()
        },
        "extra": {
            name: {"value": value, "unit": EXTRA_END_TO_END[name]["unit"]}
            for name, value in extras.items()
        },
    }
    if trace:
        record["spans"] = rec.dump()
    return record


def driver_line(record: Dict[str, Any]) -> str:
    """The contract's last stdout line: exactly these four keys, each
    metric exactly ``value`` and ``unit``."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in record["metrics"].items()
            },
        }
    )


def write_result(path: Path, seconds: float, runs: List[Dict[str, Any]]) -> None:
    """One result file: fingerprint + run records; spans go to their
    own file next to it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = {
        f"{r['workload']}:{r['seed']}": r.pop("spans") for r in runs if "spans" in r
    }
    if spans:
        span_path = path.with_name(path.stem + ".spans.json")
        with open(span_path, "w") as handle:
            json.dump(
                {"columns": ["id", "parent", "request", "name", "start_s", "end_s"],
                 "spans": spans},
                handle,
            )
    with open(path, "w") as handle:
        json.dump(
            {"schema": 1, "fingerprint": fingerprint(), "seconds": seconds, "runs": runs},
            handle, indent=1,
        )


def print_record(record: Dict[str, Any]) -> None:
    print(
        f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"attempted={record['attempted']}  failed={record['failed']}  "
        f"correct={record['correct']}"
    )
    rows = list(record["metrics"].items()) + list(record["extra"].items())
    for name, m in rows:
        count = m.get("samples")
        suffix = f"  (n={count})" if count else ""
        print(f"  {name:<34}{m['value']:>14.4f} {m['unit']}{suffix}")
    for message in record["gates"]:
        print(f"  GATE FAILED: {message}")
    for message in record["hygiene"]:
        print(f"  HYGIENE: {message}")

