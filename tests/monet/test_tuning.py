"""The one tuning record (:mod:`repro.monet.tuning`), table-driven.

Every per-knob test is parametrized over the rows of ``tuning.KNOBS``,
so a new knob is covered by adding its row: precedence (override >
environment > derived default) and the bound rejected through both
inputs.  The environment is read once at import, so its legs run in a
fresh interpreter.  The catalog carries no tuning: an entry written by
an older build is ignored and dropped.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro.ir.index import InvertedIndex
from repro.monet import bbp, fragments, kernel, tuning
from repro.monet.bat import dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import KernelError
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from repro.monet.mil import builtins
from repro.monet.tuning import KNOBS
from repro.service import guard

REPO = Path(__file__).resolve().parents[2]
BY_FIELD = pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.field)

#: ``catalog["tuning"]`` entries as earlier builds wrote them -- the
#: five persisted knobs of the last build that had them, the seven of
#: the build before (with the two executor keys) -- and malformed ones
#: that used to fail the load.  Every one is now ignored.
OLD_TUNING_ENTRIES = {
    "five-knobs": {
        "fragment_size": 12345, "parallel_min": 67890, "merge_fanout": 24,
        "join_fanout": 12, "join_spill": 2000000,
    },
    "seven-knobs": {
        "fragment_size": 12345, "parallel_min": 67890, "merge_fanout": 24,
        "backend": "process", "process_min": 4096, "join_fanout": 12,
        "join_spill": 2000000,
    },
    "malformed": {
        "fragment_size": -1, "merge_fanout": "lots", "join_spill": math.inf,
        "wal_group_ms": None, "zzz": 1,
    },
    "list": [1, 2],
    "text": "fast",
    "number": 7,
    "null": None,
}
#: Variables the deleted process backend read, with values that were
#: valid while they existed.
REMOVED_VARIABLES = [
    ("REPRO_EXECUTOR_BACKEND", "process"),
    ("REPRO_PROCESS_MIN_BUNS", "4096"),
    ("REPRO_PROCESS_TASK_TIMEOUT", "30"),
]


def samples(knob):
    """Two valid values, differing from each other and from the
    derived default -- one per layer above it."""
    return [knob.kind(3), knob.kind(5)]


def bad_values(knob):
    """Typed values outside the knob's bound or of the wrong type."""
    bad = [-1, "8", None, True, math.nan] + ([0] if knob.positive else [])
    return bad + ([1.5] if knob.kind is int else [math.inf])


def bad_texts(knob):
    """Environment strings the knob must refuse."""
    bad = ["abc", "-1", "nan"] + (["0"] if knob.positive else [])
    return bad + (["1.5"] if knob.kind is int else ["inf"])


def derived(pins):
    """The record the table derives around *pins* (the reference for
    :func:`tuning.resolve`): each knob is pinned or its row's default,
    which may see the knobs of earlier rows."""
    cores = os.cpu_count() or 1
    values = {}
    for knob in KNOBS:
        if knob.field in pins:
            values[knob.field] = pins[knob.field]
        elif callable(knob.default):
            values[knob.field] = knob.default(cores, values)
        else:
            values[knob.field] = knob.default
    return values


def run_python(code: str, **env_changes: str):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(REPO / "src"), **env_changes)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )


@functools.lru_cache(maxsize=None)
def pinned_interpreter(field: str):
    """A fresh interpreter whose environment sets only *field*'s
    variable (to its first sample) reports the live record, the knob
    inside an override to its second sample, and the knob after it."""
    knob = next(knob for knob in KNOBS if knob.field == field)
    pinned, forced = samples(knob)
    code = (
        "import json\n"
        "from dataclasses import asdict\n"
        "from repro.monet import tuning\n"
        "live = asdict(tuning.current())\n"
        f"with tuning.override({field}={forced!r}) as inside:\n"
        f"    forced = inside.{field}\n"
        f"print(json.dumps([live, forced, tuning.current().{field}]))\n"
    )
    out = run_python(code, **{knob.env: str(pinned)})
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


# ----------------------------------------------------------------------
# The table itself
# ----------------------------------------------------------------------


def test_record_fields_are_the_table_rows():
    assert [f.name for f in fields(tuning.Tuning)] == [knob.field for knob in KNOBS]
    envs = [knob.env for knob in KNOBS]
    assert len(set(envs)) == len(envs)
    assert all(env.startswith("REPRO_") for env in envs)
    assert len(KNOBS) == 6


def test_derived_defaults_follow_the_core_count():
    one, many = tuning.resolve(cores=1), tuning.resolve(cores=64)
    if "fragment_size" not in tuning._ENV:
        assert (one.fragment_size, many.fragment_size) == (64 * 1024, 8 * 1024)
    if not {"fragment_size", "parallel_min"} & set(tuning._ENV):
        assert one.parallel_min == 8 * one.fragment_size
        assert many.parallel_min == 2 * many.fragment_size
    if "merge_fanout" not in tuning._ENV:
        assert (one.merge_fanout, many.merge_fanout) == (16, 256)


# ----------------------------------------------------------------------
# Precedence, knob by knob
# ----------------------------------------------------------------------


@BY_FIELD
def test_env_beats_derived_default(knob):
    """Only *knob* is pinned by its variable: it takes the pinned value
    and every other knob its derived default (computed around the pin
    where a default depends on it)."""
    pinned = samples(knob)[0]
    live, _, _ = pinned_interpreter(knob.field)
    assert live[knob.field] == pinned != derived({})[knob.field]
    assert live == derived({knob.field: pinned})


@BY_FIELD
def test_override_beats_env(knob):
    """An override wins over the pinned variable for the block, and the
    pinned value is back once the block exits."""
    pinned, forced = samples(knob)
    _, inside, after = pinned_interpreter(knob.field)
    assert (inside, after) == (forced, pinned)


def test_unset_and_empty_variables_are_not_set():
    out = run_python(
        "from repro.monet import tuning; print(tuning._ENV)",
        REPRO_MERGE_FANOUT="", REPRO_PARALLEL_MIN_BUNS="0",
        # Empty is "not set" for every REPRO_ name, knob or not.
        REPRO_EXECUTOR_BACKEND="", REPRO_FRAGMENT_SZIE="",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "{'parallel_min': 0}"


@pytest.mark.parametrize(
    "variable, value", [("REPRO_FRAGMENT_SZIE", "8192")] + REMOVED_VARIABLES
)
def test_repro_variable_that_is_no_knob_fails_the_import(variable, value):
    """The ``REPRO_`` prefix is the tuning namespace: a typo, or a
    variable whose knob was deleted, must not be silently ignored."""
    out = run_python("import repro.monet.fragments", **{variable: value})
    assert out.returncode != 0
    assert "KernelError" in out.stderr
    assert f"{variable}={value!r}: not a tuning variable; known: " in out.stderr
    for knob in KNOBS:
        assert knob.env in out.stderr


# ----------------------------------------------------------------------
# One validator, two inputs
# ----------------------------------------------------------------------


@BY_FIELD
def test_bound_rejected_through_override(knob):
    before = tuning.current()
    for bad in bad_values(knob):
        with pytest.raises(KernelError, match=knob.field):
            with tuning.override(**{knob.field: bad}):
                pass
    assert tuning.current() is before


@BY_FIELD
def test_bound_rejected_from_the_environment_text(knob):
    for text in bad_texts(knob):
        with pytest.raises(KernelError) as caught:
            tuning._validated(knob, text, knob.env, text=True)
        message = str(caught.value)
        assert knob.env in message and repr(text) in message
        assert knob.expects in message


@pytest.mark.parametrize(
    "variable, value",
    [
        ("REPRO_FRAGMENT_SIZE", "abc"),
        ("REPRO_FRAGMENT_SIZE", "-5"),
        ("REPRO_MERGE_FANOUT", "-1"),
        ("REPRO_WAL_GROUP_MS", "abc"),
        # No longer knobs: refused by name, whatever the value (the CI
        # "Tuning environment smoke" step runs the first probe too).
        ("REPRO_EXECUTOR_BACKEND", "gpu"),
        ("REPRO_PROCESS_TASK_TIMEOUT", "-3"),
    ],
)
def test_malformed_environment_fails_the_import(variable, value):
    out = run_python("import repro.monet.fragments", **{variable: value})
    assert out.returncode != 0
    assert "KernelError" in out.stderr
    assert f"{variable}={value!r}" in out.stderr


def test_override_rejects_unknown_knobs():
    with pytest.raises(KernelError, match="warp_factor"):
        with tuning.override(warp_factor=9):
            pass


# ----------------------------------------------------------------------
# The on-disk contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry", OLD_TUNING_ENTRIES.values(), ids=list(OLD_TUNING_ENTRIES)
)
def test_parent_catalog_tuning_entry_is_ignored_and_dropped(entry, tmp_path):
    """A catalog as the last build that persisted tuning wrote it --
    ``oid_next, generation, bats, tuning`` -- loads whatever its
    ``tuning`` entry holds: the live record is untouched (the very same
    object), the BATs load, and a re-save writes no ``tuning`` key."""
    pool = BATBufferPool()
    pool.register("x", dense_bat("int", [4, 5, 6]))
    pool.save(tmp_path / "db")
    path = tmp_path / "db" / "catalog.json"
    catalog = json.loads(path.read_text())
    assert list(catalog) == ["oid_next", "generation", "bats"]
    catalog["tuning"] = entry
    path.write_text(json.dumps(catalog, indent=1))
    before = tuning.current()
    loaded = BATBufferPool.load(tmp_path / "db")
    assert tuning.current() is before
    assert loaded.lookup("x").to_pairs() == [(0, 4), (1, 5), (2, 6)]
    loaded.save(tmp_path / "again")
    resaved = json.loads((tmp_path / "again" / "catalog.json").read_text())
    assert list(resaved) == ["oid_next", "generation", "bats"]


@pytest.mark.parametrize("workers", [None, 4, "x"], ids=["null", "4", "malformed"])
def test_parent_catalog_workers_key_is_ignored_and_dropped(
    workers, tmp_path, tuning_override
):
    """A fragmented entry as the commits that still had
    ``FragmentationPolicy.workers`` wrote it -- ``fragmented,
    target_size, workers, fragments`` -- still loads: the key is ignored
    like any unknown key (a malformed one used to load and then fail
    mid-query), the BAT fans out by the one rule, and a re-save writes
    the other three keys only."""
    tuning_override(parallel_min=0)
    pool = BATBufferPool()
    pool.register_fragmented(
        "w", fragment_bat(dense_bat("int", list(range(20))), FragmentationPolicy(5))
    )
    pool.save(tmp_path / "db")
    path = tmp_path / "db" / "catalog.json"
    catalog = json.loads(path.read_text())
    catalog["bats"]["w"] = {
        "fragmented": True,
        "target_size": 5,
        "workers": workers,
        "fragments": catalog["bats"]["w"]["fragments"],
    }
    path.write_text(json.dumps(catalog, indent=1))
    loaded = BATBufferPool.load(tmp_path / "db")
    fb = loaded.lookup_fragments("w")
    assert fb.nfragments == 4 and fb.policy == FragmentationPolicy(5)
    assert fragments.select(fb, 7).to_bat().to_pairs() == [(7, 7)]
    loaded.save(tmp_path / "again")
    resaved = json.loads((tmp_path / "again" / "catalog.json").read_text())
    assert list(resaved["bats"]["w"]) == ["fragmented", "target_size", "fragments"]


# ----------------------------------------------------------------------
# The live record and its seams
# ----------------------------------------------------------------------


def test_override_forces_then_restores_everything(tuning_override):
    before = tuning.current()
    with tuning.override(merge_fanout=3) as forced:
        assert forced is tuning.current() and forced.merge_fanout == 3
        with tuning.override(merge_fanout=4, join_fanout=5):
            live = tuning.current()
            assert (live.merge_fanout, live.join_fanout) == (4, 5)
        live = tuning.current()
        assert (live.merge_fanout, live.join_fanout) == (3, before.join_fanout)
    assert tuning.current() == before
    # The conftest fixture is the same seam, scoped to the test.
    assert tuning_override(wal_group_ms=2.5).wal_group_ms == 2.5
    assert bbp.WAL_GROUP_MS == 2.5


def test_forced_vestiges_mirror_the_live_record(tuning_override):
    tuning_override(fragment_size=777, wal_group_ms=1.5)
    assert fragments.default_tuning() == asdict(tuning.current())
    assert list(fragments.default_tuning()) == [knob.field for knob in KNOBS]
    assert fragments.default_tuning()["fragment_size"] == 777
    assert fragments.FragmentationPolicy().target_size == 777
    assert bbp.WAL_GROUP_MS == 1.5


@pytest.mark.parametrize(
    "module, name",
    [(fragments, name) for name in (
        "DEFAULT_FRAGMENT_SIZE", "PARALLEL_MIN_BUNS", "MERGE_FANOUT",
        "JOIN_FANOUT", "JOIN_SPILL_BUNS", "DEFAULT_BACKEND",
        "PROCESS_MIN_BUNS", "PROCESS_TASK_TIMEOUT", "_TUNING_MEASURED",
        "_JOIN_SPILL_ENV", "_PROCESS_MIN_ENV", "set_default_tuning",
        "_default_policy",
        # The process backend and everything that selected it.
        "ProcessBackend", "ThreadBackend", "Backend", "get_backend",
        "_resolve_backend", "_BACKENDS", "_offload_subset", "_concat_values",
        # The worker-count knob and the alias of kdiff.
        "_resolve_workers", "antijoin",
    )] + [(bbp, "_wal_group_window_ms"), (bbp, "_install_persisted_tuning")]
    # The six parallel dispatch dicts of the builtin table, their
    # accessors, and the guard's copy of the interpreter's specials.
    + [(builtins, name) for name in (
        "_SIGNATURES", "_PLAIN", "_FRAGMENT", "_FRAGMENT_ANY_OPERAND", "_PUMPS",
        "_FRAGMENT_PUMPS", "_require_bat", "plain_builtin", "pump_builtin",
        "invoke_pump",
    )] + [(guard, "_INTERPRETER_SPECIALS")]
    + [(kernel, name) for name in (
        "FRAGMENT_TASKS", "task_equal_positions", "task_range_positions",
        "task_like_positions", "task_member_positions", "task_member_key_set",
        "task_join_partition_positions", "_column_bat",
    )] + [(tuning, name) for name in (
        "BACKEND_NAMES",
        # The calibrated and persisted layers, gone with calibrate().
        "install", "load_persisted", "persistable", "_PERSISTED", "_INSTALLED",
    )] + [(InvertedIndex, "score_sum_parallel")],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_old_surface_is_deleted_not_aliased(module, name):
    assert not hasattr(module, name)


def test_the_shared_memory_transport_module_is_gone():
    with pytest.raises(ImportError):
        import repro.monet.shm  # noqa: F401


def test_environment_is_read_only_in_the_tuning_module():
    readers = [
        str(path.relative_to(REPO / "src"))
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        if re.search(r"\benviron\b|\bgetenv\b", path.read_text())
    ]
    assert readers == ["repro/monet/tuning.py"]


def test_no_process_pool_machinery_anywhere_in_the_source():
    users = [
        str(path.relative_to(REPO / "src"))
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        if re.search(r"multiprocessing|ProcessPool|shared_memory", path.read_text())
    ]
    assert users == []


def _functions(path: Path):
    return [
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]


def _mentions(node: ast.AST, name: str) -> bool:
    """True when *node*'s code (not its docstring) names *name*."""
    return any(
        getattr(inner, "attr", None) == name or getattr(inner, "id", None) == name
        for inner in ast.walk(node)
    )


def _imported_or_named(tree: ast.AST) -> set:
    """Every name *tree*'s code imports or refers to."""
    return {
        getattr(inner, "attr", None) or getattr(inner, "id", None)
        for inner in ast.walk(tree)
    } | {
        alias.name.rsplit(".", 1)[-1]
        for inner in ast.walk(tree) if isinstance(inner, (ast.ImportFrom, ast.Import))
        for alias in inner.names
    }


def test_one_fan_out_rule_and_one_pool_in_the_source():
    """No function takes a worker count; the serial floor is read in
    exactly one function, the only thread pool under ``monet/`` is the
    one ``_shared_executor`` builds, and nothing outside ``monet/``
    fans out through ``map_fragments`` (imported or called)."""
    sources = sorted((REPO / "src" / "repro").rglob("*.py"))
    takers = [
        f"{path.relative_to(REPO / 'src')}:{node.lineno}"
        for path in sources
        for node in _functions(path)
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg == "workers"
    ]
    assert takers == []
    defs = {
        str(path.relative_to(REPO / "src")): [
            node for node in _functions(path) if not isinstance(node, ast.Lambda)
        ]
        for path in sources
    }
    assert [
        node.name
        for node in defs["repro/monet/fragments.py"]
        if _mentions(node, "parallel_min")
    ] == ["map_fragments"]
    assert [
        (name, node.name)
        for name, nodes in defs.items() if name.startswith("repro/monet/")
        for node in nodes if _mentions(node, "ThreadPoolExecutor")
    ] == [("repro/monet/fragments.py", "_shared_executor")]
    assert [
        name
        for name, path in (
            (str(path.relative_to(REPO / "src")), path) for path in sources
        )
        if not name.startswith("repro/monet/")
        and "map_fragments" in _imported_or_named(ast.parse(path.read_text()))
    ] == []


def test_readme_tuning_table_lists_every_knob():
    readme = (REPO / "README.md").read_text()
    section = readme[readme.index("## Tuning"):]
    section = section[: section.index("\n## ", 1)]
    for knob in KNOBS:
        row = next(
            (line for line in section.splitlines() if f"`{knob.field}`" in line),
            None,
        )
        assert row is not None, knob.field
        assert f"`{knob.env}`" in row
        assert knob.expects.split(" ", 1)[1] in row.rsplit("|", 2)[-2]
    header = next(line for line in section.splitlines() if line.startswith("| field"))
    assert [cell.strip() for cell in header.strip("|").split("|")] == [
        "field", "variable", "derived default", "bound",
    ]
