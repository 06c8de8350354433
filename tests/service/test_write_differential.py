"""Write-path differential: concurrent appends vs serial epoch replay.

The acceptance harness for the append/snapshot write path: N service
sessions run seeded random MIL pipelines while a writer thread appends
batches to the shared base BATs (serialized under the database's
``write_lock``), recording the catalog epoch after each batch.  Every
session result carries the epoch its plan's snapshot was pinned at
(``MILResult.epoch``); the harness then *replays serially* -- a private
monolithic pool holding the base data plus exactly the append batches
committed at or before that epoch -- and the concurrent result must be
BUN-identical to the replay, variable by variable.

That is the whole isolation contract in one test: a plan sees a
prefix-closed set of committed appends (no torn batch, no future
write), no matter how the scheduler interleaves it with the writer.

Runs over fragmented shared registrations.
The pipeline corpus and comparison helpers are reused from
``tests/monet/test_mil_fuzz.py`` (loaded by path, like the concurrent
differential suite).
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.mirror import MirrorDBMS
from repro.monet.bat import BAT
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT, fragment_bat
from repro.monet.mil import run_program
from repro.service.session import Session

_FUZZ_PATH = Path(__file__).parent.parent / "monet" / "test_mil_fuzz.py"
_spec = importlib.util.spec_from_file_location("mil_fuzz_write_corpus", _FUZZ_PATH)
fuzz = importlib.util.module_from_spec(_spec)
sys.modules["mil_fuzz_write_corpus"] = fuzz
_spec.loader.exec_module(fuzz)

N_SESSIONS = 8
N_MUTATIONS = 40


def _make_mutations(rng, names):
    """Deterministic append batches against the fact BATs."""
    mutations = []
    for _ in range(N_MUTATIONS):
        name = str(rng.choice(names))
        htype, ttype = fuzz._BASE_TYPES[name]
        pairs = fuzz._mutation_pairs(rng, htype, ttype, int(rng.integers(1, 6)))
        mutations.append(("append", name, pairs))
    return mutations


def _make_mixed_mutations(rng, data, names):
    """Deterministic mixed append/delete/update batches.  The writer
    applies them in order under the write lock, so each batch's
    positions are valid against the cardinality the *previous* batches
    left behind -- tracked here at generation time so the serial replay
    sees the identical sequence."""
    counts = {name: len(data[name]) for name in names}
    mutations = []
    for _ in range(N_MUTATIONS):
        name = str(rng.choice(names))
        htype, ttype = fuzz._BASE_TYPES[name]
        op = str(rng.choice(["append", "delete", "update"]))
        if op != "append" and counts[name] < 4:
            op = "append"  # keep shrinking BATs from running dry
        if op == "append":
            pairs = fuzz._mutation_pairs(
                rng, htype, ttype, int(rng.integers(1, 6))
            )
            counts[name] += len(pairs)
            mutations.append(("append", name, pairs))
            continue
        k = int(rng.integers(1, 4))
        positions = sorted(
            int(p) for p in rng.choice(counts[name], size=k, replace=False)
        )
        if op == "delete":
            counts[name] -= k
            mutations.append(("delete", name, positions))
        else:
            pairs = fuzz._mutation_pairs(rng, htype, ttype, k)
            values = [t for _, t in pairs]
            mutations.append(("update", name, (positions, values)))
    return mutations


def _apply(pool, mutation):
    op, name, payload = mutation
    if op == "append":
        pool.append(name, payload)
    elif op == "delete":
        pool.delete(name, payload)
    else:
        positions, values = payload
        pool.update(name, positions, values)


def _replay_pool(data, committed):
    """Ground truth for one pinned epoch: base data plus exactly the
    committed prefix of mutation batches, in a private monolithic
    pool."""
    pool = BATBufferPool()
    for name, bat in data.items():
        pool.register(name, bat)
    for mutation in committed:
        _apply(pool, mutation)
    return pool


def _assert_env_equal(got_env, expected_env, context: str):
    for name, expected in expected_env.items():
        got = got_env[name]
        if isinstance(expected, BAT):
            if isinstance(got, FragmentedBAT):
                got = got.to_bat()
            fuzz._assert_bats_equal(got, expected, f"{context} var {name}")
        else:
            assert fuzz._same_value(got, expected), (
                f"{context} var {name}: {got!r} vs {expected!r}"
            )


def _run_differential(mutations, seed):
    """The shared harness: N sessions race one writer applying
    *mutations* in order; every session's result must equal the serial
    replay of exactly the batches committed at or before its pinned
    epoch."""
    policy = FragmentationPolicy(target_size=16)
    rng = np.random.default_rng(seed)
    data = fuzz._make_data(rng)
    names = [n for n in fuzz._BASE_TYPES if n != "dim"]
    scripts = [
        fuzz._gen_pipeline(np.random.default_rng(seed + 100 + i))
        for i in range(N_SESSIONS)
    ]

    db = MirrorDBMS(fragment_policy=policy)
    for name, bat in data.items():
        db.pool.register_fragmented(name, fragment_bat(bat, policy))

    sessions = [Session(f"w{i}", db) for i in range(N_SESSIONS)]
    outputs: list = [None] * N_SESSIONS
    errors: list = []
    #: (epoch_after, index into mutations) per committed batch.
    commit_log: list = []
    barrier = threading.Barrier(N_SESSIONS + 1)

    def writer():
        try:
            barrier.wait(timeout=30)
            for index, mutation in enumerate(mutations):
                # Mutations serialize under the DBMS write lock,
                # exactly like the Moa insert/delete/update paths.
                with db.write_lock:
                    _apply(db.pool, mutation)
                    commit_log.append((db.pool.epoch, index))
                time.sleep(0.001)
        except Exception as exc:  # pragma: no cover
            errors.append(("writer", exc))

    def reader(i: int):
        try:
            barrier.wait(timeout=30)
            time.sleep(0.002 * (i % 4))  # spread pins across the race
            outputs[i] = sessions[i].mil.run(scripts[i])
        except Exception as exc:  # pragma: no cover
            errors.append((i, exc))

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(i,)) for i in range(N_SESSIONS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
    assert len(commit_log) == N_MUTATIONS

    for i, got in enumerate(outputs):
        pinned = got.epoch
        assert pinned is not None
        committed = [
            mutations[index]
            for epoch_after, index in commit_log
            if epoch_after <= pinned
        ]
        replay = _replay_pool(data, committed)
        expected = run_program(scripts[i], replay)
        context = (
            f"session {i} pinned epoch {pinned} "
            f"({len(committed)}/{N_MUTATIONS} batches)\n{scripts[i]}"
        )
        _assert_env_equal(got.env, expected.env, context)
        assert got.printed == expected.printed, context
        if isinstance(expected.value, BAT):
            value = got.value
            if isinstance(value, FragmentedBAT):
                value = value.to_bat()
            fuzz._assert_bats_equal(value, expected.value, f"{context} final")
        else:
            assert fuzz._same_value(got.value, expected.value), context

    for session in sessions:
        session.close()

    # Final state sanity: the live pool holds every committed batch,
    # BUN for BUN (heads matter: deletes gather, updates patch tails).
    final = _replay_pool(data, mutations)
    for name in names:
        fuzz._assert_bats_equal(
            db.pool.lookup(name), final.lookup(name), f"final {name}"
        )


def test_concurrent_appends_match_epoch_replay(fan_out_on_tiny_inputs):
    names = [n for n in fuzz._BASE_TYPES if n != "dim"]
    mutations = _make_mutations(np.random.default_rng(91_001), names)
    _run_differential(mutations, 91_000)


def test_concurrent_mixed_mutations_match_epoch_replay(fan_out_on_tiny_inputs):
    """The delete/update arm of the 8-session race: tombstone and patch
    batches interleave with appends under the write lock, and every
    pinned plan still reads a prefix-closed committed state."""
    rng = np.random.default_rng(92_000)
    data = fuzz._make_data(rng)
    names = [n for n in fuzz._BASE_TYPES if n != "dim"]
    mutations = _make_mixed_mutations(
        np.random.default_rng(92_001), data, names
    )
    kinds = {op for op, _, _ in mutations}
    assert kinds == {"append", "delete", "update"}
    _run_differential(mutations, 92_000)
