"""E11 -- fragmented vs monolithic kernel and MIL execution.

Measures the hot operators of the fragmented BAT subsystem
(:mod:`repro.monet.fragments`) against their monolithic counterparts:
select (equality + range), join (value probe against a shared build
side), IR posting-list scoring, and a whole MIL pipeline
(``select -> join -> sum``) executed fragment-aware by the MIL
interpreter, at 10^5 .. 10^7 BUNs.

A calibration pass measures real operator timings at several fragment
sizes and serial/parallel floors and installs the winners via
:func:`repro.monet.tuning.install`, replacing the cores-derived
defaults with measured values.

Every section records machine-readable rows (op, size, backend, dtype,
median wall ms; ``backend`` is ``monolithic`` or ``thread``, the one
fragment executor); ``--json PATH`` writes them as a JSON document that
CI uploads as an artifact on every run and feeds to
``benchmarks/check_regression.py`` to gate performance regressions.

Standalone report:  python benchmarks/bench_fragments.py
Fast smoke mode:    BENCH_FAST=1 python benchmarks/bench_fragments.py
MIL pipeline only:  BENCH_FAST=1 python benchmarks/bench_fragments.py --mil
Sort/unique only:   BENCH_FAST=1 python benchmarks/bench_fragments.py --sort
Set operators only: BENCH_FAST=1 python benchmarks/bench_fragments.py --setops
String operators only: BENCH_FAST=1 python benchmarks/bench_fragments.py --strings
Grace join only:    BENCH_FAST=1 python benchmarks/bench_fragments.py --join
Append path only:   BENCH_FAST=1 python benchmarks/bench_fragments.py --append
Calibration only:   python benchmarks/bench_fragments.py --calibrate
JSON artifact:      BENCH_FAST=1 python benchmarks/bench_fragments.py \\
                        --json BENCH_fragments.json
"""

import json
import os
import platform
import sys
import time

import numpy as np
import pytest

from repro.ir.index import InvertedIndex
from repro.monet import fragments as fr
from repro.monet import kernel, tuning
from repro.monet.bat import BAT, Column, VoidColumn, bat_from_pairs
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from repro.monet.mil import MILInterpreter

FAST = bool(os.environ.get("BENCH_FAST"))
N = 100_000 if not FAST else 20_000


def _policy(n):
    """One fragment per two worker slots, floored at the default size:
    keeps per-fragment dispatch overhead negligible relative to the
    numpy work while still saturating the shared pool (>= 2 threads)."""
    return FragmentationPolicy(
        target_size=max(tuning.current().fragment_size, -(-n // (2 * fr.DEFAULT_WORKERS)))
    )


def _int_bat(n, *, distinct=1000, seed=0):
    rng = np.random.default_rng(seed)
    return BAT(VoidColumn(0, n), Column("int", rng.integers(0, distinct, n)))


def _join_sides(n, *, seed=2, spread=1):
    """[void,oid] probes into a keyed [oid,dbl] build of n/2 BUNs.  The
    build keys are a permutation, so the join runs the compact (span)
    arm; *spread* multiplies every key, and spread=1000 makes them
    sparse enough for the radix-partitioned sorted arm."""
    rng = np.random.default_rng(seed)
    left = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, n // 2, n) * spread))
    right = BAT(
        Column("oid", rng.permutation(n // 2).astype(np.int64) * spread),
        Column("dbl", rng.random(n // 2)),
        hkey=True,
    )
    return left, right


def _index(n_docs, postings_per_doc, *, seed=3):
    rng = np.random.default_rng(seed)
    vocabulary = [f"term{i}" for i in range(500)]
    documents = []
    for _ in range(n_docs):
        terms = rng.choice(len(vocabulary), size=postings_per_doc, replace=False)
        documents.append({vocabulary[t]: int(rng.integers(1, 6)) for t in terms})
    return documents


#: Machine-readable result rows accumulated by every report section;
#: ``--json PATH`` writes them out (op, size, backend, dtype, median
#: wall ms) so CI can archive a perf trajectory and gate regressions.
_JSON_ROWS = []


def _record(op, n, backend, dtype, stats):
    _JSON_ROWS.append(
        {
            "op": op,
            "n": int(n),
            "backend": backend,
            "dtype": dtype,
            "median_ms": round(stats["median_ms"], 4),
            "best_ms": round(stats["best_ms"], 4),
            "mode": "smoke" if FAST else "full",
        }
    )


def write_json(path):
    document = {
        "schema": 1,
        "mode": "smoke" if FAST else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers": fr.DEFAULT_WORKERS,
        "rows": _JSON_ROWS,
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"wrote {len(_JSON_ROWS)} benchmark rows to {path}")


def _measure(fn, repeats):
    """Best and median wall milliseconds over *repeats* timed runs
    (after one warm-up run that also pays one-time fragmentation or
    coalesce costs).  The printed reports keep the historical best-of
    numbers; the JSON rows carry the median, which is what the CI
    regression gate compares (medians are stable under scheduler
    noise, bests are not)."""
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    half = len(times) // 2
    if len(times) % 2:
        median = times[half]
    else:
        median = (times[half - 1] + times[half]) / 2
    return {"best_ms": times[0] * 1000, "median_ms": median * 1000}


def _timed(fn, repeats):
    return _measure(fn, repeats)["best_ms"]


# ----------------------------------------------------------------------
# MIL pipeline: the fragment-aware interpreter end to end
# ----------------------------------------------------------------------

#: select -> join -> aggregate, the canonical Mirror ranking shape.
MIL_PIPELINE = (
    's := bat("fact").select(oid(50), oid(800));'
    ' j := s.join(bat("dim"));'
    ' sum(j);'
)


def _mil_pools(n, *, seed=5):
    """(monolithic pool+interpreter, fragmented pool+interpreter) over
    one fact BAT of *n* oid keys and a 1000-row dimension."""
    rng = np.random.default_rng(seed)
    fact = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, 1000, n)))
    dim = bat_from_pairs(
        "oid", "dbl", [(i, float(i) * 0.5) for i in rng.permutation(1000)]
    )
    policy = _policy(n)
    mono_pool = BATBufferPool()
    mono_pool.register("fact", fact)
    mono_pool.register("dim", dim)
    frag_pool = BATBufferPool()
    frag_pool.register_fragmented("fact", fragment_bat(fact, policy))
    frag_pool.register_fragmented("dim", fragment_bat(dim, policy))
    return (
        MILInterpreter(mono_pool),
        MILInterpreter(frag_pool, fragment_policy=policy),
    )


# ----------------------------------------------------------------------
# Sort/unique pipeline: the fragment-parallel order-sensitive operators
# ----------------------------------------------------------------------

#: distinct + order-by over a duplicate-heavy fact BAT: per-fragment
#: dedup collapses the data before the cross-fragment merge ever sees
#: it, then the (small) survivor set sorts.  This is the canonical
#: shape the merge-based sort/unique operators exist for.
MIL_SORT_PIPELINE = (
    'u := bat("fact").unique;'
    ' s := u.sort;'
    ' count(s);'
)


def _headed_bat(n, *, distinct_heads=500, distinct_tails=40, seed=7):
    """A duplicate-heavy [oid, int] BAT with a materialized head (the
    shape ``sort``/``unique`` actually operate on; void heads are
    trivially sorted and key)."""
    rng = np.random.default_rng(seed)
    return BAT(
        Column("oid", rng.integers(0, distinct_heads, n).astype(np.int64)),
        Column("int", rng.integers(0, distinct_tails, n)),
    )


def _sort_pools(n, *, seed=7):
    """(monolithic, fragmented) interpreters over one duplicate-heavy
    fact BAT of *n* BUNs."""
    fact = _headed_bat(n, seed=seed)
    policy = _policy(n)
    mono_pool = BATBufferPool()
    mono_pool.register("fact", fact)
    frag_pool = BATBufferPool()
    frag_pool.register_fragmented("fact", fragment_bat(fact, policy))
    return (
        MILInterpreter(mono_pool),
        MILInterpreter(frag_pool, fragment_policy=policy),
    )


def _timed_pair(name, n, dtype, mono_case, frag_case, repeats):
    """Time a monolithic/fragmented case pair, record both as JSON rows
    and print the historical best-of comparison line.  Returns the
    monolithic stats."""
    mono_stats = _measure(mono_case, repeats)
    frag_stats = _measure(frag_case, repeats)
    _record(name, n, "monolithic", dtype, mono_stats)
    _record(name, n, "thread", dtype, frag_stats)
    _print_pair(name, n, mono_stats, frag_stats)
    return mono_stats


def _print_pair(name, n, mono_stats, frag_stats):
    mono_ms, frag_ms = mono_stats["best_ms"], frag_stats["best_ms"]
    ratio = frag_ms / mono_ms if mono_ms else float("inf")
    print(f"{n:>12,}  {name:<18}{mono_ms:>10.2f}{frag_ms:>10.2f}{ratio:>8.2f}")


def _report_sort(sizes, verbose_header=True):
    if verbose_header:
        print(f"E12: fragment-parallel sort/unique (workers={fr.DEFAULT_WORKERS})")
        print(f"{'n':>12}  {'operator':<18}{'mono ms':>10}{'frag ms':>10}{'ratio':>8}")
    for n in sizes:
        repeats = 2 if n >= 10**7 else 5
        policy = _policy(n)
        headed = _headed_bat(n)
        fheaded = fragment_bat(headed, policy)
        cases = [
            (
                "unique",
                lambda: kernel.unique(headed),
                lambda: fr.unique(fheaded),
            ),
            (
                "sort",
                lambda: kernel.sort(headed),
                lambda: fr.sort(fheaded),
            ),
        ]
        for name, mono_case, frag_case in cases:
            assert mono_case().to_pairs() == frag_case().to_bat().to_pairs()
            _timed_pair(name, n, "int", mono_case, frag_case, repeats)
        mono, frag = _sort_pools(n)
        mono_value = mono.run(MIL_SORT_PIPELINE).value
        frag_value = frag.run(MIL_SORT_PIPELINE).value
        assert mono_value == frag_value, (mono_value, frag_value)
        _timed_pair(
            "unique+sort (MIL)",
            n,
            "int",
            lambda: mono.run(MIL_SORT_PIPELINE),
            lambda: frag.run(MIL_SORT_PIPELINE),
            repeats,
        )


# ----------------------------------------------------------------------
# Set-operator pipeline: fragment-parallel kunion/kintersect
# ----------------------------------------------------------------------

#: union + distinct + order-by over two half-overlapping fact BATs: the
#: left-head membership build filters the right side fragment-parallel,
#: then kunique + sample-sort run on the union without ever coalescing.
MIL_SETOPS_PIPELINE = (
    'u := kunion(bat("facta"), bat("factb"));'
    ' s := u.kunique.sort;'
    ' count(s);'
)


def _setops_bats(n, *, seed=11):
    """Two [oid, int] fact BATs of *n* BUNs whose head domains overlap
    by about half -- the union genuinely grows and the intersection is
    genuinely selective."""
    rng = np.random.default_rng(seed)
    a = BAT(
        Column("oid", rng.integers(0, n, n).astype(np.int64)),
        Column("int", rng.integers(0, 50, n)),
    )
    b = BAT(
        Column("oid", rng.integers(n // 2, n + n // 2, n).astype(np.int64)),
        Column("int", rng.integers(0, 50, n)),
    )
    return a, b


def _setops_pools(n, *, seed=11):
    """(monolithic, fragmented) interpreters over the two fact BATs."""
    a, b = _setops_bats(n, seed=seed)
    policy = _policy(n)
    mono_pool = BATBufferPool()
    mono_pool.register("facta", a)
    mono_pool.register("factb", b)
    frag_pool = BATBufferPool()
    frag_pool.register_fragmented("facta", fragment_bat(a, policy))
    frag_pool.register_fragmented("factb", fragment_bat(b, policy))
    return (
        MILInterpreter(mono_pool),
        MILInterpreter(frag_pool, fragment_policy=policy),
    )


def _report_setops(sizes, verbose_header=True):
    if verbose_header:
        print(f"E13: fragment-parallel set operators (workers={fr.DEFAULT_WORKERS})")
        print(f"{'n':>12}  {'operator':<18}{'mono ms':>10}{'frag ms':>10}{'ratio':>8}")
    for n in sizes:
        repeats = 2 if n >= 10**7 else 5
        policy = _policy(n)
        a, b = _setops_bats(n)
        fa = fragment_bat(a, policy)
        fb = fragment_bat(b, policy)
        cases = [
            (
                "kunion",
                lambda: kernel.kunion(a, b),
                lambda: fr.kunion(fa, fb),
            ),
            (
                "kintersect",
                lambda: kernel.kintersect(a, b),
                lambda: fr.kintersect(fa, fb),
            ),
            (
                "kdiff",
                lambda: kernel.kdiff(a, b),
                lambda: fr.kdiff(fa, fb),
            ),
        ]
        for name, mono_case, frag_case in cases:
            assert mono_case().to_pairs() == frag_case().to_bat().to_pairs()
            _timed_pair(name, n, "oid", mono_case, frag_case, repeats)
        mono, frag = _setops_pools(n)
        mono_value = mono.run(MIL_SETOPS_PIPELINE).value
        frag_value = frag.run(MIL_SETOPS_PIPELINE).value
        assert mono_value == frag_value, (mono_value, frag_value)
        _timed_pair(
            "kunion+sort (MIL)",
            n,
            "oid",
            lambda: mono.run(MIL_SETOPS_PIPELINE),
            lambda: frag.run(MIL_SETOPS_PIPELINE),
            repeats,
        )


# ----------------------------------------------------------------------
# String (object-dtype) operators
#
# likeselect, str equality select and the string membership probes run
# a Python-level scan that holds the GIL, so the thread fan-out
# serializes: the section prices what fragmentation costs them
# (monolithic vs fragmented).
# ----------------------------------------------------------------------


def _str_corpus(n, *, seed=17):
    """A realistic annotation-word column: ~120 distinct words with a
    uniform draw and a few percent NILs -- the text-attribute shape of
    the paper's Section 3 retrieval scenario."""
    rng = np.random.default_rng(seed)
    stems = [
        "alpha", "bridge", "castle", "dolphin", "engine", "forest",
        "garden", "harbor", "island", "jungle", "kernel", "lantern",
        "meadow", "nectar", "orchard", "pyramid", "quartz", "river",
        "summit", "tunnel",
    ]
    suffixes = ["", "s", "ing", "ed", "ly", "ation"]
    vocabulary = [stem + suffix for stem in stems for suffix in suffixes]
    picks = rng.integers(0, len(vocabulary), n)
    values = np.empty(n, dtype=object)
    for position, pick in enumerate(picks.tolist()):
        values[position] = vocabulary[pick]
    if n:
        values[rng.random(n) < 0.02] = None
    return values


def _str_bat(n, *, seed=17):
    return BAT(VoidColumn(0, n), Column("str", _str_corpus(n, seed=seed)))


def _str_headed(n, *, seed=19):
    """[str, int] shape for the membership (string-join) operators."""
    return BAT(
        Column("str", _str_corpus(n, seed=seed)),
        Column("int", np.arange(n, dtype=np.int64)),
    )


def _report_strings(sizes, verbose_header=True):
    """likeselect / str select / string membership, monolithic vs
    fragmented.  Expect a ratio near or above 1: these scans hold the
    GIL, so fragments buy them no parallelism."""
    if verbose_header:
        print(f"E14: object-dtype operators (workers={fr.DEFAULT_WORKERS})")
        print(f"{'n':>12}  {'operator':<18}{'mono ms':>10}{'frag ms':>10}{'ratio':>8}")
    for n in sizes:
        repeats = 3
        policy = _policy(n)
        bat = _str_bat(n)
        fb = fragment_bat(bat, policy)
        left = _str_headed(n)
        fl = fragment_bat(left, policy)
        right = _str_headed(max(1000, n // 4), seed=23)
        cases = [
            (
                "likeselect",
                lambda: kernel.likeselect(bat, "ing"),
                lambda: fr.likeselect(fb, "ing"),
            ),
            (
                "select(str=)",
                lambda: kernel.select(bat, "rivers"),
                lambda: fr.select(fb, "rivers"),
            ),
            (
                "kintersect(str)",
                lambda: kernel.kintersect(left, right),
                lambda: fr.kintersect(fl, right),
            ),
        ]
        for name, mono_case, frag_case in cases:
            assert frag_case().to_bat().to_pairs() == mono_case().to_pairs()
            _timed_pair(name, n, "str", mono_case, frag_case, repeats)


# ----------------------------------------------------------------------
# Value join with a fragmented build side: shared index or radix split
# ----------------------------------------------------------------------


def _join_str_sides(n, *, seed=29):
    """[void,str] probe side against a keyed [str,dbl] build side: the
    object keyspace takes the shared dictionary-code index instead of
    the numeric arms."""
    rng = np.random.default_rng(seed)
    left = BAT(VoidColumn(0, n), Column("str", _str_corpus(n, seed=seed)))
    vocabulary = [
        word
        for word in dict.fromkeys(_str_corpus(4000, seed=seed + 1).tolist())
        if word is not None
    ]
    right = BAT(
        Column("str", np.array(vocabulary, dtype=object)),
        Column("dbl", np.round(rng.random(len(vocabulary)), 3)),
        hkey=True,
    )
    return left, right


def _report_join(sizes, verbose_header=True):
    """Value join with a *fragmented* right operand, monolithic vs
    fragmented -- compact oid keys (one shared span index), sparse oid
    keys (the radix-partitioned sorted arm) and str keys -- plus a
    spill-forced sparse run (every partition staged through BBP spill
    units) to price the larger-than-memory path."""
    if verbose_header:
        print(
            "E15: value join, fragmented build side "
            f"(workers={fr.DEFAULT_WORKERS}, fanout={tuning.current().join_fanout})"
        )
        print(f"{'n':>12}  {'operator':<18}{'mono ms':>10}{'frag ms':>10}{'ratio':>8}")
    for n in sizes:
        repeats = 2 if n >= 10**6 else 3
        policy = _policy(n)
        left, right = _join_sides(n)
        sparse_left, sparse_right = _join_sides(n, spread=1000)
        sleft, sright = _join_str_sides(n)
        cases = [
            ("join(oid)", "oid", left, right),
            ("join(oid,sparse)", "oid", sparse_left, sparse_right),
            ("join(str)", "str", sleft, sright),
        ]
        mono_stats = {}
        for name, dtype, probe, build in cases:
            fl = fragment_bat(probe, policy)
            fb = fragment_bat(build, policy)
            expected = kernel.join(probe, build).to_pairs()
            assert fr.join(fl, fb).to_bat().to_pairs() == expected
            mono_stats[name] = _timed_pair(
                name,
                n,
                dtype,
                lambda: kernel.join(probe, build),
                lambda: fr.join(fl, fb),
                repeats,
            )
        # Spill-forced: every build partition round-trips through a
        # BBP spill unit, bounding resident build memory to one
        # partition.  Only the sorted arm partitions, so the sparse
        # keys.  Output must stay BUN-identical.
        with tuning.override(join_spill=0):
            fl = fragment_bat(sparse_left, policy)
            fb = fragment_bat(sparse_right, policy)
            expected = kernel.join(sparse_left, sparse_right).to_pairs()
            assert fr.join(fl, fb).to_bat().to_pairs() == expected
            spill_stats = _measure(lambda: fr.join(fl, fb), repeats)
        _record("join-spill", n, "thread", "oid", spill_stats)
        _print_pair(
            "join-spill(oid)", n, mono_stats["join(oid,sparse)"], spill_stats
        )


# ----------------------------------------------------------------------
# Append path: delta-tail write throughput and read-during-append
# ----------------------------------------------------------------------

#: Rows per append batch in the E16 write-path section.
APPEND_BATCH = 1_000


def _report_append(sizes, verbose_header=True):
    """E16: the write path.  Batched ``BATBufferPool.append`` throughput
    into monolithic and fragmented registrations (copy-on-write delta
    tails), then read latency over a pinned snapshot while a writer
    thread floods the live catalog with batches -- the paper's
    query-while-loading scenario.  The snapshot read should cost the
    same busy as quiet; both rows land in the JSON artifact so the
    regression gate holds the line on each."""
    import threading

    if verbose_header:
        print(f"E16: append-tail write path (workers={fr.DEFAULT_WORKERS})")
        print(f"{'n':>12}  {'operator':<18}{'mono ms':>10}{'frag ms':>10}{'ratio':>8}")
    for n in sizes:
        repeats = 3
        batches = max(2, n // APPEND_BATCH // 10)  # append ~10% of n
        rng = np.random.default_rng(31)
        payloads = [
            rng.integers(0, 1000, APPEND_BATCH).tolist() for _ in range(batches)
        ]
        policy = _policy(n)
        base = _int_bat(n)
        fragmented = fragment_bat(base, policy)

        def mono_case():
            pool = BATBufferPool()
            pool.register("fact", base)
            for payload in payloads:
                pool.append("fact", tails=payload)

        def frag_case():
            pool = BATBufferPool()
            pool.register_fragmented("fact", fragmented)
            for payload in payloads:
                pool.append("fact", tails=payload)

        _timed_pair(
            f"append({batches}x{APPEND_BATCH})", n, "int", mono_case, frag_case, repeats
        )

        # Read-during-append: a plan pinned before the writer starts
        # selects against its snapshot while appends race it.
        pool = BATBufferPool()
        pool.register_fragmented("fact", fragmented)
        snapshot = pool.read_snapshot()

        def snapshot_select():
            return fr.select(snapshot.lookup_fragments("fact"), 100, 200)

        quiet_stats = _measure(snapshot_select, repeats)
        stop = threading.Event()

        def writer():
            position = 0
            while not stop.is_set():
                pool.append("fact", tails=payloads[position % len(payloads)])
                position += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            busy_stats = _measure(snapshot_select, repeats)
        finally:
            stop.set()
            thread.join()
        assert len(snapshot.lookup_fragments("fact")) == n  # still pinned
        _record("select-quiet", n, "thread", "int", quiet_stats)
        _record("select-during-append", n, "thread", "int", busy_stats)
        quiet_ms, busy_ms = quiet_stats["best_ms"], busy_stats["best_ms"]
        ratio = busy_ms / quiet_ms if quiet_ms else float("inf")
        print(
            f"{n:>12,}  {'read-during-append':<18}{quiet_ms:>10.2f}"
            f"{busy_ms:>10.2f}{ratio:>8.2f}"
        )

        # Tombstone deletes and tail patches: the same batched shape as
        # the append rows.  Deletes repeatedly tombstone the front rows
        # (cardinality shrinks by ~10% of n overall); updates patch a
        # disjoint window per batch, so both stay valid against the
        # state the previous batches left behind.
        delete_positions = list(range(APPEND_BATCH))
        patch_windows = [
            list(range(b * APPEND_BATCH, (b + 1) * APPEND_BATCH))
            for b in range(batches)
        ]
        patch_values = rng.integers(0, 1000, APPEND_BATCH).tolist()

        def mono_delete():
            pool = BATBufferPool()
            pool.register("fact", base)
            for _ in range(batches):
                pool.delete("fact", delete_positions)

        def frag_delete():
            pool = BATBufferPool()
            pool.register_fragmented("fact", fragmented)
            for _ in range(batches):
                pool.delete("fact", delete_positions)

        _timed_pair(
            f"delete({batches}x{APPEND_BATCH})", n, "int",
            mono_delete, frag_delete, repeats,
        )

        def mono_update():
            pool = BATBufferPool()
            pool.register("fact", base)
            for window in patch_windows:
                pool.update("fact", window, patch_values)

        def frag_update():
            pool = BATBufferPool()
            pool.register_fragmented("fact", fragmented)
            for window in patch_windows:
                pool.update("fact", window, patch_values)

        _timed_pair(
            f"update({batches}x{APPEND_BATCH})", n, "int",
            mono_update, frag_update, repeats,
        )

        _report_group_commit(n)


#: Total append records pushed through the armed WAL per group-commit
#: bench case (divisible by every writer count probed).
WAL_RECORDS = 64


def _report_group_commit(n):
    """Group-commit WAL: the same number of append records pushed by 1
    vs 8 concurrent writers through a WAL-armed pool under a fixed
    group window.  Two rows per writer count land in the JSON artifact:
    wall milliseconds per record, and the ``wal_fsyncs / wal_records``
    counter ratio -- fewer fsyncs than records at 8 writers is the
    group commit observably working, and the regression gate holds the
    line on both."""
    import tempfile
    import threading

    payload = list(range(APPEND_BATCH))
    with tuning.override(wal_group_ms=4.0):
        for writers in (1, 8):
            with tempfile.TemporaryDirectory() as wal_dir:
                pool = BATBufferPool()
                for i in range(writers):
                    pool.register(f"w{i}", _int_bat(APPEND_BATCH, seed=i))
                pool.save(wal_dir)  # arms the write-ahead log
                per_writer = WAL_RECORDS // writers
                barrier = threading.Barrier(writers)
                errors = []

                def work(i):
                    try:
                        barrier.wait(timeout=30)
                        for _ in range(per_writer):
                            pool.append(f"w{i}", tails=payload)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=work, args=(i,))
                    for i in range(writers)
                ]
                start = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed_ms = (time.perf_counter() - start) * 1000
                assert not errors, errors[:3]
                assert pool.wal_records == WAL_RECORDS
            per_record_ms = elapsed_ms / pool.wal_records
            fsync_ratio = pool.wal_fsyncs / pool.wal_records
            _record(
                "wal-append-per-record", n, f"{writers}w", "int",
                {"median_ms": per_record_ms, "best_ms": per_record_ms},
            )
            _record(
                "wal-fsync-per-record", n, f"{writers}w", "int",
                {"median_ms": fsync_ratio, "best_ms": fsync_ratio},
            )
            print(
                f"{n:>12,}  {f'wal-append {writers}w':<18}"
                f"{per_record_ms:>10.2f}"
                f"{pool.wal_fsyncs:>7}/{pool.wal_records:<3}"
                f"{fsync_ratio:>7.2f}"
            )


# ----------------------------------------------------------------------
# Calibration: measured tuning instead of static constants
# ----------------------------------------------------------------------


def calibrate(verbose=True):
    """Measure operator cost across fragment sizes and the
    serial/parallel crossover, then install the winners
    (:func:`repro.monet.tuning.install`).  A knob pinned by its ``REPRO_*``
    variable is measured and reported at the pinned value.

    Returns the resulting live :class:`repro.monet.tuning.Tuning`.
    """
    n = 200_000 if FAST else 2_000_000
    candidates = [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024]
    if FAST:
        candidates = candidates[:3]
    repeats = 2 if FAST else 3
    ints = _int_bat(n)
    if verbose:
        print(f"calibration: select over {n:,} BUNs (workers={fr.DEFAULT_WORKERS})")
        print(f"{'fragment size':>16}{'select ms':>12}")
    best_size, best_ms = candidates[0], float("inf")
    # Both select passes time the shared pool itself: with the serial
    # floor forced to zero every candidate fans out, whatever floor is
    # live -- the floor is what the second pass is measuring.
    with tuning.override(parallel_min=0):
        for size in candidates:
            fb = fragment_bat(ints, FragmentationPolicy(target_size=size))
            ms = _timed(lambda: fr.select(fb, 100, 200), repeats)
            if verbose:
                print(f"{size:>16,}{ms:>12.2f}")
            if ms < best_ms:
                best_size, best_ms = size, ms
        # Parallel floor: smallest BAT where fragment fan-out is not
        # slower than the monolithic operator (bounded by [best_size,
        # 8x]).
        parallel_min = 8 * best_size
        for floor in (best_size, 2 * best_size, 4 * best_size):
            small = _int_bat(2 * floor)
            fb = fragment_bat(small, FragmentationPolicy(target_size=floor))
            mono_ms = _timed(lambda: kernel.select(small, 100, 200), repeats)
            frag_ms = _timed(lambda: fr.select(fb, 100, 200), repeats)
            if frag_ms <= mono_ms * 1.05:
                parallel_min = 2 * floor
                break
    tuning.install(fragment_size=best_size, parallel_min=parallel_min)
    # Merge fan-out: time the fragmented (sample-sort) sort under a few
    # partition caps and keep the fastest.  merge_fanout is read live by
    # the merge phase, so installing a candidate is enough to measure it.
    sort_n = min(n, 1_000_000)
    headed = _headed_bat(sort_n, distinct_heads=max(1000, sort_n // 4))
    fheaded = fragment_bat(headed, FragmentationPolicy(target_size=best_size))
    fanouts = list(dict.fromkeys([4, 8, 16, 32, max(16, 4 * fr.DEFAULT_WORKERS)]))
    if verbose:
        print(f"calibration: sort over {sort_n:,} BUNs")
        print(f"{'merge fanout':>16}{'sort ms':>12}")
    best_fanout, best_sort_ms = fanouts[0], float("inf")
    for fanout in fanouts:
        tuning.install(merge_fanout=fanout)
        ms = _timed(lambda: fr.sort(fheaded), repeats)
        if verbose:
            print(f"{fanout:>16,}{ms:>12.2f}")
        if ms < best_sort_ms:
            best_fanout, best_sort_ms = fanout, ms
    tuning.install(merge_fanout=best_fanout)
    # Join radix fan-out: time the radix-partitioned join (fragmented
    # build side, sparse keys: the only arm that partitions) under a
    # few widths and keep the fastest.  join_fanout is read live by the
    # partitioner, so installing a candidate is enough to measure it.
    # The spill threshold has no in-memory crossover to measure, so the
    # current (env- or persistence-derived) value is what persists.
    join_n = min(n, 1_000_000)
    jleft, jright = _join_sides(join_n, spread=1000)
    join_policy = FragmentationPolicy(target_size=best_size)
    fjleft = fragment_bat(jleft, join_policy)
    fjright = fragment_bat(jright, join_policy)
    join_fanouts = list(dict.fromkeys([1, 4, tuning.current().join_fanout]))
    if verbose:
        print(f"calibration: join over {join_n:,} BUNs")
        print(f"{'join fanout':>16}{'join ms':>12}")
    best_join_fanout, best_join_ms = join_fanouts[0], float("inf")
    for fanout in join_fanouts:
        tuning.install(join_fanout=fanout)
        ms = _timed(lambda: fr.join(fjleft, fjright), repeats)
        if verbose:
            print(f"{fanout:>16,}{ms:>12.2f}")
        if ms < best_join_ms:
            best_join_fanout, best_join_ms = fanout, ms
    live = tuning.install(join_fanout=best_join_fanout)
    if verbose:
        print(
            f"calibrated: fragment_size={live.fragment_size:,} "
            f"parallel_min={live.parallel_min:,} "
            f"merge_fanout={live.merge_fanout} "
            f"join_fanout={live.join_fanout} "
            f"join_spill={live.join_spill:,} "
            "(installed)"
        )
    return live


# ----------------------------------------------------------------------
# pytest-benchmark cases
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ints():
    return _int_bat(N)


@pytest.fixture(scope="module")
def ints_fragmented(ints):
    return fragment_bat(ints, _policy(N))


@pytest.fixture(scope="module")
def join_sides():
    return _join_sides(N)


@pytest.fixture(scope="module")
def left_fragmented(join_sides):
    left, _ = join_sides
    return fragment_bat(left, _policy(N))


@pytest.fixture(scope="module")
def mil_interpreters():
    return _mil_pools(N)


@pytest.fixture(scope="module")
def headed():
    return _headed_bat(N)


@pytest.fixture(scope="module")
def headed_fragmented(headed):
    return fragment_bat(headed, _policy(N))


def test_select_monolithic(benchmark, ints):
    result = benchmark(kernel.select, ints, 100, 200)
    assert len(result) > 0


def test_select_fragmented(benchmark, ints_fragmented):
    result = benchmark(fr.select, ints_fragmented, 100, 200)
    assert len(result) > 0


def test_join_monolithic(benchmark, join_sides):
    left, right = join_sides
    result = benchmark(kernel.join, left, right)
    assert len(result) == N


def test_join_fragmented(benchmark, left_fragmented, join_sides):
    _, right = join_sides
    result = benchmark(fr.join, left_fragmented, right)
    assert len(result) == N


def test_mil_pipeline_monolithic(benchmark, mil_interpreters):
    mono, _ = mil_interpreters
    result = benchmark(mono.run, MIL_PIPELINE)
    assert result.value > 0


def test_mil_pipeline_fragmented(benchmark, mil_interpreters):
    _, frag = mil_interpreters
    result = benchmark(frag.run, MIL_PIPELINE)
    assert result.value > 0


def test_unique_monolithic(benchmark, headed):
    result = benchmark(kernel.unique, headed)
    assert len(result) > 0


def test_unique_fragmented(benchmark, headed_fragmented):
    result = benchmark(fr.unique, headed_fragmented)
    assert len(result) > 0


def test_sort_monolithic(benchmark, headed):
    result = benchmark(kernel.sort, headed)
    assert len(result) == N


def test_sort_fragmented(benchmark, headed_fragmented):
    result = benchmark(fr.sort, headed_fragmented)
    assert len(result) == N


# ----------------------------------------------------------------------
# Standalone report
# ----------------------------------------------------------------------


def _report_mil(sizes, verbose_header=True):
    if verbose_header:
        print(f"E11: fragment-aware MIL pipeline (workers={fr.DEFAULT_WORKERS})")
        print(f"{'n':>12}  {'operator':<18}{'mono ms':>10}{'frag ms':>10}{'ratio':>8}")
    for n in sizes:
        repeats = 2 if n >= 10**7 else 5
        mono, frag = _mil_pools(n)
        mono_value = mono.run(MIL_PIPELINE).value
        frag_value = frag.run(MIL_PIPELINE).value
        assert abs(mono_value - frag_value) <= 1e-6 * max(1.0, abs(mono_value))
        _timed_pair(
            "mil-pipeline",
            n,
            "oid",
            lambda: mono.run(MIL_PIPELINE),
            lambda: frag.run(MIL_PIPELINE),
            repeats,
        )


def report():
    calibrate()
    sizes = [10**4, 10**5] if FAST else [10**5, 10**6, 10**7]
    print(f"E11: monolithic vs fragmented execution (workers={fr.DEFAULT_WORKERS})")
    print(f"{'n':>12}  {'operator':<18}{'mono ms':>10}{'frag ms':>10}{'ratio':>8}")

    for n in sizes:
        repeats = 2 if n >= 10**7 else 5
        policy = _policy(n)
        ints = _int_bat(n)
        fints = fragment_bat(ints, policy)
        left, right = _join_sides(n)
        fleft = fragment_bat(left, policy)
        cases = [
            (
                "select(=)",
                lambda: kernel.select(ints, 7),
                lambda: fr.select(fints, 7),
            ),
            (
                "select(range)",
                lambda: kernel.select(ints, 100, 200),
                lambda: fr.select(fints, 100, 200),
            ),
            (
                "join",
                lambda: kernel.join(left, right),
                lambda: fr.join(fleft, right),
            ),
        ]
        for name, mono, frag in cases:
            _timed_pair(name, n, "int", mono, frag, repeats)

        # IR scoring: postings scale with documents.
        n_docs = max(100, n // 100)
        index = InvertedIndex(_index(n_docs, 20))
        query = ["term1", "term42", "term123", "term400"]
        _timed_pair(
            "ir-score",
            index.posting_count,
            "int",
            lambda: index.score_sum(query),
            lambda: index.score_sum_parallel(
                query, fragment_size=_policy(index.posting_count).target_size
            ),
            repeats,
        )

    # The fragment-aware MIL interpreter, end to end (>= 1M BUNs in the
    # full run; the FAST smoke keeps CI quick).
    mil_sizes = [10**5] if FAST else [10**6, 10**7]
    _report_mil(mil_sizes)
    _report_sort([10**5] if FAST else [10**6])
    _report_setops([10**5] if FAST else [10**6])
    _report_strings([5 * 10**4] if FAST else [10**6])
    _report_join([5 * 10**4] if FAST else [10**6])
    _report_append([5 * 10**4] if FAST else [10**6])


if __name__ == "__main__":
    json_path = None
    if "--json" in sys.argv:
        index = sys.argv.index("--json")
        if index + 1 >= len(sys.argv) or sys.argv[index + 1].startswith("--"):
            sys.exit("--json needs an output path")
        json_path = sys.argv[index + 1]
    if "--calibrate" in sys.argv:
        calibrate()
    elif "--mil" in sys.argv:
        calibrate(verbose=False)
        _report_mil([10**5] if FAST else [10**6])
    elif "--sort" in sys.argv:
        calibrate(verbose=False)
        _report_sort([10**5] if FAST else [10**6])
    elif "--setops" in sys.argv:
        calibrate(verbose=False)
        _report_setops([10**5] if FAST else [10**6])
    elif "--strings" in sys.argv:
        calibrate(verbose=False)
        _report_strings([5 * 10**4] if FAST else [10**6])
    elif "--join" in sys.argv:
        calibrate(verbose=False)
        _report_join([5 * 10**4] if FAST else [10**6])
    elif "--append" in sys.argv:
        calibrate(verbose=False)
        _report_append([5 * 10**4] if FAST else [10**6])
    else:
        report()
    if json_path:
        write_json(json_path)
