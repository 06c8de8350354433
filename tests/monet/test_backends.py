"""Executor-backend selection and lifecycle.

The differential and fuzz suites prove both backends BUN-identical
operator by operator; this suite covers the machinery around them:
how a backend is selected (policy pin > live tuning record; the
record's own precedence is ``test_tuning.py``'s), when the process pool actually spawns (lazy,
and only above the per-dtype offload threshold), how the process
backend degrades to threads when shared memory is unusable, and that a
clean run leaks neither shared-memory segments nor semaphores
(resource-tracker warnings asserted via a subprocess).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.monet import fragments as fr
from repro.monet import shm, tuning
from repro.monet.bat import BAT, Column, VoidColumn
from repro.monet.errors import KernelError
from repro.monet.fragments import (
    FragmentationPolicy,
    FragmentedBAT,
    ProcessBackend,
    fragment_bat,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _str_bat(n: int = 600) -> BAT:
    words = ["apple", "banana", None, "cherry", "grape", "apricot"]
    values = np.array([words[i % len(words)] for i in range(n)], dtype=object)
    return BAT(VoidColumn(0, n), Column("str", values))


def _process_policy(**kwargs) -> FragmentationPolicy:
    return FragmentationPolicy(target_size=64, workers=2, backend="process", **kwargs)


def _require_process_backend():
    if not fr.get_backend("process").available():
        pytest.skip("process backend unavailable on this platform")


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


def test_policy_pin_beats_module_default(tuning_override):
    tuning_override(backend="thread")
    fb = fragment_bat(_str_bat(), _process_policy())
    assert fr._resolve_backend(fb) is fr.get_backend("process")
    fb_default = fragment_bat(_str_bat(), FragmentationPolicy(target_size=64))
    assert fr._resolve_backend(fb_default) is fr.get_backend("thread")
    tuning_override(backend="process")
    # Unpinned policies read the module default live, per call.
    assert fr._resolve_backend(fb_default) is fr.get_backend("process")


def test_unknown_backend_rejected_everywhere():
    with pytest.raises(KernelError):
        FragmentationPolicy(backend="gpu")
    with pytest.raises(KernelError):
        fr.get_backend("gpu")
    with pytest.raises(KernelError):
        tuning.install(backend="gpu")


def test_default_tuning_reports_backend_fields():
    reported = fr.default_tuning()
    assert reported["backend"] in fr.BACKEND_NAMES
    assert reported["process_min"] >= 0


# ----------------------------------------------------------------------
# Lazy spawn and the per-dtype offload threshold
# ----------------------------------------------------------------------


def test_process_pool_spawns_lazily_and_respects_threshold(monkeypatch, tuning_override):
    _require_process_backend()
    fresh = ProcessBackend()
    monkeypatch.setitem(fr._BACKENDS, "process", fresh)
    tuning_override(process_min=10_000)
    fb = fragment_bat(_str_bat(600), _process_policy())
    thread_result = fr.likeselect(fb, "ap").to_bat().to_pairs()
    # 600 BUNs < threshold: the predicate ran on threads, no pool.
    assert not fresh.spawned()
    tuning_override(process_min=0)
    process_result = fr.likeselect(fb, "ap").to_bat().to_pairs()
    assert fresh.spawned()
    assert process_result == thread_result
    fresh.shutdown()


def test_numeric_predicates_never_offload(monkeypatch, tuning_override):
    """The per-dtype rule: numeric selects stay on threads (numpy
    releases the GIL there) even under the process backend."""
    _require_process_backend()
    fresh = ProcessBackend()
    monkeypatch.setitem(fr._BACKENDS, "process", fresh)
    tuning_override(process_min=0)
    ints = BAT(VoidColumn(0, 500), Column("int", np.arange(500) % 7))
    fb = fragment_bat(ints, _process_policy())
    result = fr.select(fb, 1, 4).to_bat()
    assert len(result) > 0
    assert not fresh.spawned()
    fresh.shutdown()


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------


def test_process_backend_falls_back_without_shared_memory(monkeypatch, tuning_override):
    """With multiprocessing.shared_memory unavailable the process
    backend declines every offload and the thread path computes the
    identical result -- correctness never depends on the platform."""
    fb = fragment_bat(_str_bat(), _process_policy())
    expected = fr.likeselect(
        fragment_bat(_str_bat(), FragmentationPolicy(target_size=64, workers=2)), "ap"
    ).to_bat().to_pairs()
    monkeypatch.setattr(shm, "shared_memory", None)
    tuning_override(process_min=0)
    assert not fr.get_backend("process").available()
    live_before = set(shm._LIVE_SEGMENTS)
    result = fr.likeselect(fb, "ap").to_bat().to_pairs()
    assert result == expected
    assert shm._LIVE_SEGMENTS == live_before  # nothing was exported


def test_process_backend_degrades_on_export_failure(monkeypatch, tuning_override):
    """An OSError during shared-memory export (full /dev/shm, seccomp)
    disables the backend for the session and falls back to threads."""
    _require_process_backend()
    fresh = ProcessBackend()
    monkeypatch.setitem(fr._BACKENDS, "process", fresh)
    tuning_override(process_min=0)

    def broken_export(column):
        raise OSError("no shared memory left")

    monkeypatch.setattr(shm, "export_column", broken_export)
    fb = fragment_bat(_str_bat(), _process_policy())
    expected = [p for p in fb.to_bat().to_pairs() if p[1] and "ap" in p[1]]
    assert fr.likeselect(fb, "ap").to_bat().to_pairs() == expected
    assert not fresh.available()
    # Still degraded (and still correct) on the next call.
    assert fr.likeselect(fb, "ap").to_bat().to_pairs() == expected
    fresh.shutdown()


# ----------------------------------------------------------------------
# Shutdown hygiene
# ----------------------------------------------------------------------


def test_offload_leaves_no_live_segments(tuning_override):
    _require_process_backend()
    tuning_override(backend="process", process_min=0)
    fb = fragment_bat(_str_bat(), FragmentationPolicy(target_size=64, workers=2))
    left = BAT(Column("str", _str_bat().tail_values()), Column("int", np.arange(600)))
    fl = fragment_bat(left, FragmentationPolicy(target_size=64, workers=2))
    right = BAT(
        Column("str", np.array(["apple", None], dtype=object)),
        Column("int", np.arange(2)),
    )
    fr.likeselect(fb, "ap")
    fr.semijoin(fl, right)
    fr.kintersect(fl, right)
    assert shm._LIVE_SEGMENTS == set()
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        leftovers = [p.name for p in shm_dir.glob(f"{shm.SHM_PREFIX}*")]
        assert leftovers == []


def test_shutdown_is_clean_and_backend_respawns(tuning_override):
    _require_process_backend()
    tuning_override(process_min=0)
    fb = fragment_bat(_str_bat(), _process_policy())
    first = fr.likeselect(fb, "ap").to_bat().to_pairs()
    fr.shutdown_backends()
    backend = fr.get_backend("process")
    assert not backend.spawned()
    assert backend.available()  # shutdown is not degradation
    assert fr.likeselect(fb, "ap").to_bat().to_pairs() == first
    assert backend.spawned()


def test_no_resource_tracker_warnings_on_clean_exit():
    """End-to-end leak check in a fresh interpreter: offloaded work,
    explicit shutdown, interpreter exit -- the multiprocessing resource
    tracker must not report leaked shared_memory or semaphore objects
    (its warnings go to stderr at exit, so a subprocess observes what
    an in-process test cannot)."""
    _require_process_backend()
    script = textwrap.dedent(
        """
        def main():
            import numpy as np

            from repro.monet import fragments as fr
            from repro.monet.bat import BAT, Column, VoidColumn
            from repro.monet.fragments import FragmentationPolicy, fragment_bat

            words = np.array(
                ["apple", "banana", None, "cherry"] * 150, dtype=object
            )
            bat = BAT(VoidColumn(0, len(words)), Column("str", words))
            policy = FragmentationPolicy(
                target_size=64, workers=2, backend="process"
            )
            fb = fragment_bat(bat, policy)
            result = fr.likeselect(fb, "ap")
            assert len(result) > 0
            assert fr._PROCESS_BACKEND.spawned()
            fr.shutdown_backends()
            print("OK")


        if __name__ == "__main__":
            main()
        """
    )
    env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_PROCESS_MIN_BUNS="0")
    env.pop("REPRO_EXECUTOR_BACKEND", None)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode == 0, out.stderr
    assert "OK" in out.stdout
    assert "leaked" not in out.stderr, out.stderr
    assert "resource_tracker" not in out.stderr, out.stderr


# ----------------------------------------------------------------------
# Results across backends for the remaining offloaded shapes
# ----------------------------------------------------------------------


def test_str_equality_and_range_select_offload(tuning_override):
    _require_process_backend()
    tuning_override(process_min=0)
    bat = _str_bat()
    thread_fb = fragment_bat(bat, FragmentationPolicy(target_size=64, workers=2))
    process_fb = fragment_bat(bat, _process_policy())
    for call in (
        lambda fb: fr.select(fb, "apple"),
        lambda fb: fr.select(fb, "b", "d"),
        lambda fb: fr.select(fb, "b", None, include_low=False),
        lambda fb: fr.uselect(fb, "apple"),
    ):
        assert call(process_fb).to_bat().to_pairs() == call(thread_fb).to_bat().to_pairs()
