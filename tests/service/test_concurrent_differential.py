"""Concurrent-session differential suite.

N sessions run the MIL fuzzer's seeded random pipelines *concurrently*
against one shared, fragment-registered pool; every session's full
variable environment must be BUN-identical to a serial run of the same
script over a private monolithic pool.  This is the thread-safety
acceptance test for the service refactor: the shared BBP (with its
locked coalesced-view cache), the shared MIL interpreter machinery and
the session temp namespaces must not let concurrent executions observe
each other.

The pipeline corpus and comparison helpers are reused from
``tests/monet/test_mil_fuzz.py`` (loaded by path; the test tree is not
a package), so this suite inherits the fuzzer's nasty inputs: NIL-heavy
columns, all-equal keys, empty BATs, fragmented joins.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.monet.bat import BAT
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT, fragment_bat
from repro.monet.mil import run_program
from repro.service.session import Session
from repro.workloads import SECTION3_QUERY, build_text_db
from tests.conftest import assert_codes_decode, fragment_layout

_FUZZ_PATH = Path(__file__).parent.parent / "monet" / "test_mil_fuzz.py"
_spec = importlib.util.spec_from_file_location("mil_fuzz_corpus", _FUZZ_PATH)
fuzz = importlib.util.module_from_spec(_spec)
sys.modules["mil_fuzz_corpus"] = fuzz
_spec.loader.exec_module(fuzz)

N_SESSIONS = 8
ROUNDS = 2


def _corpus(base_seed: int):
    """(data, scripts): one shared dataset and one seeded pipeline per
    session, each ending in a session-private persists so the temp
    namespaces are exercised under contention too."""
    rng = np.random.default_rng(base_seed)
    data = fuzz._make_data(rng)
    scripts = []
    for i in range(N_SESSIONS):
        script_rng = np.random.default_rng(base_seed + 1 + i)
        script = fuzz._gen_pipeline(script_rng)
        scripts.append(script + '\npersists("mine", x1);\nbat("mine");')
    return data, scripts


def _serial_results(data: dict, scripts):
    """Ground truth: each script over its own monolithic pool."""
    results = []
    for script in scripts:
        pool = BATBufferPool()
        for name, bat in data.items():
            pool.register(name, bat)
        results.append(run_program(script, pool))
    return results


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


def test_concurrent_sessions_match_serial(fan_out_on_tiny_inputs):
    policy = FragmentationPolicy(target_size=16)
    data, scripts = _corpus(77_000)
    expected = _serial_results(data, scripts)

    db = MirrorDBMS(fragment_policy=policy)
    for name, bat in data.items():
        db.pool.register_fragmented(name, fragment_bat(bat, policy))

    for round_no in range(ROUNDS):
        sessions = [
            Session(f"s{round_no}-{i}", db) for i in range(N_SESSIONS)
        ]
        outputs: list = [None] * N_SESSIONS
        errors: list = []
        barrier = threading.Barrier(N_SESSIONS)

        def run(i: int):
            try:
                barrier.wait(timeout=30)
                outputs[i] = sessions[i].mil.run(scripts[i])
            except Exception as exc:  # pragma: no cover
                errors.append((i, exc))

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(N_SESSIONS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[:3]

        for i, (got, exp) in enumerate(zip(outputs, expected)):
            context = f"round {round_no} session {i}\n{scripts[i]}"
            _assert_env_equal(got.env, exp.env, context)
            assert got.printed == exp.printed, context
            if isinstance(exp.value, BAT):
                value = got.value
                if isinstance(value, FragmentedBAT):
                    value = value.to_bat()
                fuzz._assert_bats_equal(value, exp.value, f"{context} final")
            else:
                assert fuzz._same_value(got.value, exp.value), context

        # Each session persisted "mine" privately: all N coexist in the
        # shared pool under mangled names, and cleanup drops only ours.
        for i, session in enumerate(sessions):
            assert db.pool.exists(f"@{session.session_id}:mine")
        for session in sessions:
            session.close()
        assert not [
            n for n in db.pool._all_names() if n.startswith(f"@s{round_no}-")
        ]

    # The shared base registrations never got clobbered.
    for name, bat in data.items():
        assert len(db.pool.lookup(name)) == len(bat)


def test_concurrent_identical_script_single_bat(fan_out_on_tiny_inputs):
    """All sessions race the *same* script -- maximum contention on the
    shared coalesced-view cache and on one base BAT."""
    policy = FragmentationPolicy(target_size=16)
    rng = np.random.default_rng(88_001)
    data = fuzz._make_data(rng)
    script = fuzz._gen_pipeline(np.random.default_rng(88_002))

    mono = BATBufferPool()
    for name, bat in data.items():
        mono.register(name, bat)
    expected = run_program(script, mono)

    db = MirrorDBMS(fragment_policy=policy)
    for name, bat in data.items():
        db.pool.register_fragmented(name, fragment_layout(bat, "ragged", policy))
    sessions = [Session(f"t{i}", db) for i in range(N_SESSIONS)]
    outputs: list = [None] * N_SESSIONS
    errors: list = []
    barrier = threading.Barrier(N_SESSIONS)

    def run(i: int):
        try:
            barrier.wait(timeout=30)
            outputs[i] = sessions[i].mil.run(script)
        except Exception as exc:  # pragma: no cover
            errors.append((i, exc))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(N_SESSIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
    for i, got in enumerate(outputs):
        _assert_env_equal(
            got.env, expected.env, f"racer {i}\n{script}"
        )


def test_concurrent_first_query_on_a_cold_collection(tmp_path):
    """All sessions fire the *first* ranking query at a freshly loaded
    collection at once.  The term column loads as codes on its heap,
    and readers never extend a heap (they take no lock), so the racing
    queries leave the column and its heap as they found them.  Every
    answer must equal the serial one."""
    db, stats, _ = build_text_db(400, seed=7)
    params = {"query": stats.vocabulary()[:4], "stats": stats}
    expected = db.query(SECTION3_QUERY, params).value
    db.save(tmp_path)
    term = "TraditionalImgLib.annotation.term"

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleaving inside the builds
    try:
        for round_no in range(ROUNDS):
            loaded = MirrorDBMS.load(tmp_path)
            tail = loaded.pool.lookup(term).tail
            assert_codes_decode(tail)
            heap_length = len(tail.heap)
            sessions = [Session(f"c{round_no}-{i}", loaded) for i in range(N_SESSIONS)]
            outputs: list = [None] * N_SESSIONS
            errors: list = []
            barrier = threading.Barrier(N_SESSIONS)

            def run(i: int):
                try:
                    barrier.wait(timeout=30)
                    outputs[i] = sessions[i].db.query(SECTION3_QUERY, params).value
                except Exception as exc:  # pragma: no cover
                    errors.append((i, exc))

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(N_SESSIONS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors, errors[:3]
            for i, got in enumerate(outputs):
                assert got == pytest.approx(expected, abs=1e-9), f"session {i}"
            assert loaded.pool.lookup(term).tail is tail
            assert len(tail.heap) == heap_length
    finally:
        sys.setswitchinterval(switch_interval)
