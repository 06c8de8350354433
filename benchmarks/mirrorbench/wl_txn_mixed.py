"""``txn_mixed``: the paper's query-while-loading scenario.

Who waits: the loader (web robot / daemons) on a durable commit, while
a user keeps ranking.  The database is WAL-armed (``save`` to a temp
directory first), the merge daemon runs at its default interval, and
``fragment_threshold=2048`` stores the attribute BATs as fragmented
registrations.

* Writer -- **open loop** at :data:`COMMIT_RATE` commits/s, each timed
  from the moment it was *due* (lateness reported): ``db.begin()`` ->
  insert 4 documents + insert 4 ``Visits`` rows + 1 ``Visits`` update
  -> ``commit``.  The fixed rate keeps the reader's load constant when
  commits get faster.
* Reader -- closed loop, one caller: the Section 3 ranking on the same
  collection, one snapshot per plan.

The run ends with a crash-copy of the directory (no final ``save``) ->
``MirrorDBMS.load`` -> comparison with the acknowledged commits.  The
same ``monet.bbp`` / ``core.mirror`` layers serve writes beside
snapshot reads here, so a write gain that costs readers (or the
reverse) shows.
"""

from __future__ import annotations

import itertools
import shutil
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import layers
import loadgen
from harness import WARMUP_OPS, Phase, Workload, closed_loop, dissect_items
from measure import median, median_or_zero, percentile

from repro.core.mirror import MirrorDBMS
from repro.monet import fragments
from repro.monet.bat import BAT, Column, VoidColumn
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import KernelError
from repro.workloads import SECTION3_QUERY, TRADITIONAL_DDL

COLLECTION = "TraditionalImgLib"
ATTRIBUTE = "annotation"
DOCS = 5_000
VISITS = 50_000
FRAGMENT_THRESHOLD = 2048
#: Open-loop write rate.  A commit costs ~70 ms alone and ~140 ms
#: beside the reader (the CONTREP reload dominates, and both threads
#: share the interpreter lock), so 4/s keeps the writer near 60 % busy:
#: loaded, but far enough from saturation that a slower box does not
#: grow a backlog.
COMMIT_RATE = 4.0
DOCS_PER_COMMIT = 4
VISITS_PER_COMMIT = 4
COMMIT_POOL = 2_000
QUERY_POOL = 8_000
COMMIT_PROBES = 5
POOL_PROBES = 10
RATIO_QUERIES = 15
#: A plan that pins its snapshot while the writer's CONTREP reload is
#: half registered reads BATs of two generations and raises (finding
#: (d) in the README).  The reader retries like a client would; the
#: wasted attempts stay in its latency and are counted.
TORN_READ_RETRIES = 3


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class TxnMixed(Workload):
    name = "txn_mixed"
    CPUS = "last"

    def __init__(self, seed, tmp, rec):
        super().__init__(seed, tmp, rec)
        queries = loadgen.text_queries(seed, QUERY_POOL)
        commits = loadgen.txn_commits(
            seed, COMMIT_POOL, DOCS_PER_COMMIT, VISITS_PER_COMMIT
        )
        self.ops_hash = loadgen.ops_hash([queries, commits])
        self.first_query = queries[0]
        self.queries = itertools.cycle(queries)
        self.commits = iter(commits)
        self.started = 0  # commits whose documents a reader may already see
        self.acked: List[int] = []
        self.expected_docs = DOCS
        self.expected_visits = VISITS
        self.inserted_bytes = 0
        self.commit_ms: List[float] = []  # untraced phases only
        self.late_ms: List[float] = []
        self.write_failures: List[str] = []
        self.write_attempts = 0
        self.torn_reads = 0
        self.end_to_end: Dict[str, float] = {}

    # -- lifecycle -------------------------------------------------------
    def setup(self) -> None:
        rows = loadgen.text_rows(self.seed, DOCS)
        visits = loadgen.visits_rows(self.seed, VISITS)
        self.loaded_bytes = loadgen.user_bytes(rows) + loadgen.user_bytes(visits)
        self.db = MirrorDBMS(fragment_threshold=FRAGMENT_THRESHOLD)
        self.db.define(TRADITIONAL_DDL)
        self.db.define(loadgen.VISITS_DDL)
        with self.rec.span("mapping.load"):
            self.db.replace(COLLECTION, rows)
            self.db.replace("Visits", visits)
        with self.rec.span("ir.stats"):
            self.stats = self.db.stats(COLLECTION, ATTRIBUTE)
        self.store = self.tmp / "store"
        with self.rec.span("bbp.save"):
            self.db.save(self.store)  # attaches the pool: mutations now log
        self.db.pool.start_merge_daemon()
        self.base_fragments = self._fragment_count()

    def teardown(self) -> List[str]:
        self.db.pool.stop_merge_daemon()
        for path in (self.store, self.tmp / "crash", self.tmp / "scratch-pool"):
            shutil.rmtree(path, ignore_errors=True)
        return []

    def _fragment_count(self) -> int:
        pool = self.db.pool
        return sum(
            pool.lookup_fragments(name).nfragments
            for name in pool.names()
            if pool.is_fragmented(name)
        )

    # -- ops -------------------------------------------------------------
    def _params(self, query: List[str]) -> Dict[str, object]:
        return {"query": query, "stats": self.stats}

    def read_op(self, query: List[str]) -> bool:
        """One snapshot per plan: the ranking sees a whole number of
        commits, never more than were started."""
        for attempt in range(TORN_READ_RETRIES + 1):
            try:
                result = self.db.query(SECTION3_QUERY, self._params(query))
                break
            except KernelError:
                self.torn_reads += 1
                if attempt == TORN_READ_RETRIES:
                    raise
        extra = len(result.value) - DOCS
        return (
            extra % DOCS_PER_COMMIT == 0
            and 0 <= extra <= DOCS_PER_COMMIT * self.started
        )

    def _commit(self, commit: Dict[str, Any], traced: bool) -> None:
        def stage():
            txn = self.db.begin()
            txn.insert(COLLECTION, commit["docs"])
            txn.insert("Visits", commit["visits"])
            txn.update(
                "Visits", commit["update"]["set"], where=commit["update"]["where"]
            )
            return txn

        self.started += 1
        if not traced:
            stage().commit()
            return
        with self.rec.span("commit", next(self.request_ids)):
            with self.rec.span("mirror.txn_stage"):
                txn = stage()
            with self.rec.span("mirror.txn_commit"):
                txn.commit()

    def _write(self, commits: List[dict], origin: float, traced: bool) -> None:
        for index, commit in enumerate(commits):
            due = origin + index / COMMIT_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            begun = time.perf_counter()
            self.write_attempts += 1
            try:
                self._commit(commit, traced)
            except Exception:  # an op boundary: count it, keep writing
                if len(self.write_failures) < 3:
                    self.write_failures.append(traceback.format_exc(limit=4))
                continue
            acknowledged = time.perf_counter()
            self.acked.append(commit["k"])
            self.expected_docs += len(commit["docs"])
            self.expected_visits += len(commit["visits"])
            self.inserted_bytes += (
                loadgen.user_bytes(commit["docs"])
                + loadgen.user_bytes(commit["visits"]) + 8
            )
            self.late_ms.append((begun - due) * 1000.0)
            if not traced:
                self.commit_ms.append((acknowledged - due) * 1000.0)

    def warmup(self) -> None:
        for _ in range(WARMUP_OPS):
            self.read_op(next(self.queries))

    def run(self, seconds: float, traced: bool = False) -> Phase:
        commits = list(itertools.islice(self.commits, int(COMMIT_RATE * seconds)))
        attempts_before = self.write_attempts
        acked_before = len(self.acked)
        writer = threading.Thread(
            target=self._write, name="txn-writer",
            args=(commits, time.perf_counter(), traced),
        )
        writer.start()
        phase = closed_loop(
            self.read_op, self.queries, seconds,
            self.rec if traced else None, self.request_ids,
        )
        writer.join()
        attempted = self.write_attempts - attempts_before
        phase.attempted += attempted
        phase.failed += attempted - (len(self.acked) - acked_before)
        phase.errors += self.write_failures
        return phase

    # -- traced dissection -------------------------------------------------
    def dissect(self, seconds: float) -> None:
        rec, db = self.rec, self.db
        plan: Dict[str, int] = {}
        for query in dissect_items(self.first_query, self.queries, seconds * 0.5):
            _, counts = layers.dissect_moa(
                rec, db, SECTION3_QUERY, self._params(query), next(self.request_ids)
            )
            plan = plan or counts

        probe_bats = layers.contrep_probe_bats(db.pool, COLLECTION, ATTRIBUTE)
        probe = dict(bounds=(1, 2))
        layers.run_cases(
            rec, layers.kernel_cases(*probe_bats, groups=self.expected_docs, **probe)
        )
        cases, out_fragments = layers.fragment_cases(*probe_bats, **probe)
        layers.run_cases(rec, cases)

        # The Section 3 plan over the fragmented registrations against a
        # monolithic copy of the same rows, writer stopped.
        mono = MirrorDBMS()
        mono.define(TRADITIONAL_DDL)
        mono.replace(COLLECTION, db.contents(COLLECTION))
        timings: Dict[str, List[float]] = {"frag": [], "mono": []}
        for query in itertools.islice(self.queries, RATIO_QUERIES):
            for label, target in (("frag", db), ("mono", mono)):
                begun = time.perf_counter()
                target.query(SECTION3_QUERY, self._params(query))
                timings[label].append(time.perf_counter() - begun)

        for commit in itertools.islice(self.commits, COMMIT_PROBES):
            for span, name, rows in (
                ("mirror.commit_contrep", COLLECTION, commit["docs"]),
                ("mirror.commit_atomic", "Visits", commit["visits"]),
            ):
                txn = db.begin()
                txn.insert(name, rows)
                with rec.span(span):
                    txn.commit()
            self.expected_docs += len(commit["docs"])
            self.expected_visits += len(commit["visits"])
            self.inserted_bytes += loadgen.user_bytes(commit["docs"])
            self.inserted_bytes += loadgen.user_bytes(commit["visits"])
        self._probe_pool()
        with rec.span("bbp.merge_deltas"):
            db.pool.merge_deltas()
        self.counts.update(
            {
                "moa.plan_statements": plan["statements"],
                "mil.op_calls": plan["op_calls"],
                "fragments.out_fragments": out_fragments,
                "fragments.plan_ratio": median(timings["frag"]) / median(timings["mono"]),
            }
        )

    def _probe_pool(self) -> None:
        """Direct ``BATBufferPool`` mutations on a scratch WAL-armed
        pool: one fsynced intent record each."""
        rec = self.rec
        n = VISITS
        pool = BATBufferPool()
        bat = BAT(VoidColumn(0, n), Column("int", np.arange(n, dtype=np.int64)))
        pool.register_fragmented("scratch", fragments.fragment_bat(bat))
        pool.save(self.tmp / "scratch-pool")
        for i in range(POOL_PROBES):
            with rec.span("bbp.append"):
                pool.append("scratch", tails=[1, 2, 3, 4])
            with rec.span("bbp.update"):
                pool.update("scratch", [i], [7])
            with rec.span("bbp.delete"):
                pool.delete("scratch", [i])

    # -- gates and the durability report -----------------------------------
    def verify(self) -> List[str]:
        failures: List[str] = []
        pool = self.db.pool
        docs, visits = self.db.count(COLLECTION), self.db.count("Visits")
        if (docs, visits) != (self.expected_docs, self.expected_visits):
            failures.append(
                f"live counts {docs} documents / {visits} visits; acknowledged "
                f"commits make {self.expected_docs} / {self.expected_visits}"
            )
        wal = self.store / "wal.jsonl"
        wal_bytes = wal.stat().st_size if wal.exists() else 0
        records, fsyncs = pool.wal_records, pool.wal_fsyncs
        delta_fragments = self._fragment_count() - self.base_fragments

        # Crash: the directory as it is now, with no final save.
        crash = self.tmp / "crash"
        shutil.copytree(self.store, crash)
        with self.rec.span("bbp.load"):
            recovered = MirrorDBMS.load(crash)
        lost = self._lost_commits(recovered)

        with self.rec.span("bbp.save"):
            self.db.save(self.store)
        user_bytes = self.loaded_bytes + self.inserted_bytes
        self.end_to_end = {
            "lost_commit_frac": lost / len(self.acked) if self.acked else 0.0,
            "disk_bytes_per_user_byte": directory_bytes(self.store) / user_bytes,
        }
        if self.commit_ms:
            self.end_to_end["commit_p50_ms"] = percentile(self.commit_ms, 50)
            self.end_to_end["commit_p90_ms"] = percentile(self.commit_ms, 90)
        self.counts.update(
            {
                "bbp.wal_records": records,
                "bbp.wal_fsyncs": fsyncs,
                "bbp.fsyncs_per_record": fsyncs / records if records else 0.0,
                "bbp.wal_bytes_per_user_byte": (
                    wal_bytes / self.inserted_bytes if self.inserted_bytes else 0.0
                ),
                "bbp.delta_fragments": delta_fragments,
                "writer.late_ms": median_or_zero(self.late_ms),
                "mirror.torn_reads": self.torn_reads,
            }
        )
        return failures

    def _lost_commits(self, recovered: MirrorDBMS) -> int:
        """Acknowledged commits not fully visible in *recovered*: all
        documents, all ``Visits`` rows, and the dwell patch on the
        previous commit's rows (where those rows survived)."""
        pool = recovered.pool
        sources = set(pool.lookup(f"{COLLECTION}.source").tail_list())
        visitors = pool.lookup("Visits.visitor").tail_values()
        dwells = pool.lookup("Visits.dwell").tail_values()
        base = loadgen.TXN_VISITOR_BASE
        dwell_of: Dict[int, List[int]] = {}
        for visitor, dwell in zip(
            visitors[visitors >= base - 1].tolist(),
            dwells[visitors >= base - 1].tolist(),
        ):
            dwell_of.setdefault(visitor, []).append(dwell)
        lost = 0
        for k in self.acked:
            docs_ok = all(
                f"http://txn/{k:05d}/{j}" in sources for j in range(DOCS_PER_COMMIT)
            )
            rows_ok = len(dwell_of.get(base + k, ())) == VISITS_PER_COMMIT
            patched = dwell_of.get(base + k - 1, [])
            patch_ok = all(d == loadgen.TXN_DWELL_BASE + k for d in patched)
            if not (docs_ok and rows_ok and patch_ok):
                lost += 1
        return lost

    def extras(self) -> Dict[str, float]:
        return dict(self.end_to_end)
