"""Save/load round-trips of the BAT buffer pool.

Covers the property-flag and NIL corners the coarse npz layout must
preserve exactly: ``hsorted``/``tkey``/``hdense`` flags, str columns
(stored as codes plus a heap of their distinct values) with NILs and
awkward values, fragmented BATs (even and ragged fragmentations); and
what the reader refuses: malformed or pickled files, and the layouts
of earlier builds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.monet.bat import BAT, Column, VoidColumn, bat_from_pairs, column_from_values, dense_bat
from repro.monet.bbp import BATBufferPool, read_spill_unit
from repro.monet.errors import BBPError
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from tests.conftest import STRATEGIES, assert_codes_decode, fragment_layout


def _roundtrip(pool: BATBufferPool, tmp_path) -> BATBufferPool:
    pool.save(tmp_path / "db")
    return BATBufferPool.load(tmp_path / "db")


def test_property_flags_roundtrip(pool, tmp_path):
    sorted_keys = BAT(
        Column("int", np.array([1, 3, 5, 9], dtype=np.int64)),
        column_from_values("str", np.array(["a", "b", "c", "d"], dtype=object)),
        hsorted=True,
        hkey=True,
        tkey=True,
        tsorted=True,
    )
    pool.register("flags", sorted_keys)
    dense = dense_bat("dbl", [0.5, 1.5], seqbase=7)
    pool.register("dense", dense)
    loaded = _roundtrip(pool, tmp_path)

    flags = loaded.lookup("flags")
    assert (flags.hsorted, flags.hkey, flags.tkey, flags.tsorted) == (
        True,
        True,
        True,
        True,
    )
    assert not flags.hdense
    restored = loaded.lookup("dense")
    assert restored.hdense and restored.head.seqbase == 7
    assert restored.to_pairs() == dense.to_pairs()


def test_object_column_with_nils_roundtrip(pool, tmp_path):
    values = ["red", None, "", "green", None, "\x00odd"]
    bat = dense_bat("str", values)
    pool.register("strs", bat)
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.lookup("strs").tail_list() == values


def test_numeric_nils_roundtrip(pool, tmp_path):
    pool.register("ints", dense_bat("int", [1, None, 3]))
    pool.register("dbls", dense_bat("dbl", [0.25, None, 4.0]))
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.lookup("ints").tail_list() == [1, None, 3]
    assert loaded.lookup("dbls").tail_list() == [0.25, None, 4.0]


def test_nonvoid_oid_head_roundtrip(pool, tmp_path):
    bat = bat_from_pairs("oid", "int", [(3, 30), (5, 50), (9, 90)])
    assert bat.hsorted and bat.hkey and not bat.hdense
    pool.register("sparse", bat)
    loaded = _roundtrip(pool, tmp_path)
    restored = loaded.lookup("sparse")
    assert restored.to_pairs() == bat.to_pairs()
    assert restored.hsorted and restored.hkey and not restored.hdense


def test_register_fragmented_renames_cached_coalesce(pool):
    bat = dense_bat("int", list(range(12)))
    fb = fragment_bat(bat, FragmentationPolicy(target_size=4))
    fb.to_bat()  # populate the coalesce cache before registration
    pool.register_fragmented("named", fb)
    assert pool.lookup("named").name == "named"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragmented_roundtrip(pool, tmp_path, strategy):
    rng = np.random.default_rng(11)
    n = 257
    strs = np.empty(n, dtype=object)
    for i in range(n):
        strs[i] = None if i % 11 == 0 else f"w{int(rng.integers(0, 40))}"
    bat = BAT(VoidColumn(2, n), column_from_values("str", strs))
    policy = FragmentationPolicy(target_size=50)
    pool.register_fragmented("lib.words", fragment_layout(bat, strategy, policy))
    pool.register("plain", dense_bat("int", [1, 2, 3]))
    loaded = _roundtrip(pool, tmp_path)

    assert loaded.is_fragmented("lib.words")
    fb = loaded.lookup_fragments("lib.words")
    assert fb.policy.target_size == 50
    assert fb.nfragments == pool.lookup_fragments("lib.words").nfragments
    assert fb.fragment_sizes() == pool.lookup_fragments("lib.words").fragment_sizes()
    assert loaded.lookup("lib.words").to_pairs() == bat.to_pairs()
    assert loaded.lookup("plain").tail_list() == [1, 2, 3]


def test_fragmented_roundtrip_preserves_oid_sequence(pool, tmp_path):
    bat = BAT(VoidColumn(100, 20), Column("int", np.arange(20, dtype=np.int64)))
    pool.register_fragmented("f", fragment_bat(bat, FragmentationPolicy(target_size=6)))
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.oid_generator.current >= 120


# ----------------------------------------------------------------------
# Str columns: codes plus one UTF-8 heap of the distinct values
# ----------------------------------------------------------------------


def _distinct(count: int) -> list:
    return [f"d{i}" for i in range(count)] + [None, "d0"]


#: Value shapes a str column must round-trip exactly.  128 and 32 768
#: distinct values are the largest the int8 and int16 code dtypes hold;
#: one more widens them.
STR_CASES = {
    "nil_heavy": [None, "a", None, None, "b", None, "a", None, None],
    "all_nil": [None] * 7,
    "empty_column": [],
    "empty_string": ["", "x", "", None, ""],
    "nil_marker_text": ["\x00NIL", None, "plain", "\x00NIL"],
    "trailing_nul": ["tail\x00", "tail", "\x00", "tail\x00\x00"],
    "lone_surrogate": ["\ud800x", "x\udfff", None, "\ud800x"],
    "non_ascii": ["café", "日本語", "😀", None, "ß", "café"],
    "one_distinct": ["same"] * 9,
    "all_distinct": [f"v{i}" for i in range(40)],
    "distinct_128": _distinct(128),
    "distinct_129": _distinct(129),
    "distinct_32768": _distinct(32768),
    "distinct_32769": _distinct(32769),
}


def _str_bat(values: list, side: str) -> BAT:
    strs = column_from_values("str", np.array(values, dtype=object))
    if side == "head":
        return BAT(strs, Column("int", np.arange(len(values), dtype=np.int64)))
    return BAT(VoidColumn(0, len(values)), strs)


def _code_dtype(distinct: int):
    return next(
        dtype
        for dtype in (np.int8, np.int16, np.int32)
        if distinct - 1 <= np.iinfo(dtype).max
    )


def _entries(directory, name: str) -> list:
    entry = json.loads((directory / "catalog.json").read_text())["bats"][name]
    return entry["fragments"] if entry.get("fragmented") else [entry]


@pytest.mark.parametrize("layout", ["monolithic", "fragmented"])
@pytest.mark.parametrize("side", ["head", "tail"])
@pytest.mark.parametrize("case", list(STR_CASES))
def test_str_column_roundtrip(pool, tmp_path, case, side, layout):
    """Every value comes back as the same str (or NIL), the fragments of
    a loaded column share one heap, and each file holds the column as
    codes in the narrowest signed dtype plus a heap of exactly its
    distinct values -- readable without pickle.  Saving changes no
    saved column."""
    values = STR_CASES[case]
    bat = _str_bat(values, side)
    if layout == "fragmented":
        policy = FragmentationPolicy(target_size=max(1, len(values) // 3))
        saved = fragment_bat(bat, policy)
        pool.register_fragmented("s", saved)
        saved = saved.fragments
    else:
        pool.register("s", bat)
        saved = [bat]
    before = [(getattr(b, side).codes.copy(), len(getattr(b, side).heap)) for b in saved]
    loaded = _roundtrip(pool, tmp_path)
    for b, (codes, heap_length) in zip(saved, before):
        assert getattr(b, side).codes.tolist() == codes.tolist()
        assert len(getattr(b, side).heap) == heap_length

    restored = loaded.lookup("s")
    column = restored.head if side == "head" else restored.tail
    assert column.materialize().tolist() == values
    assert all(type(v) is str for v in column.materialize().tolist() if v is not None)
    assert_codes_decode(column, case)
    if layout == "fragmented":
        heaps = {id(getattr(f, side).heap) for f in loaded.lookup_fragments("s").fragments}
        assert len(heaps) == 1
    stored = 0
    for entry in _entries(tmp_path / "db", "s"):
        with np.load(tmp_path / "db" / entry["file"], allow_pickle=False) as data:
            assert {side, f"{side}_heap", f"{side}_offsets"} <= set(data.files)
            codes, heap, offsets = (
                data[side], data[f"{side}_heap"], data[f"{side}_offsets"]
            )
        rows = values[stored : stored + len(codes)]
        stored += len(codes)
        distinct = {v for v in rows if v is not None}
        assert heap.dtype == np.uint8 and offsets.dtype == np.int64
        assert len(offsets) == len(distinct) + 1
        assert codes.dtype == _code_dtype(len(distinct))
        raw, bounds = heap.tobytes(), offsets.tolist()
        words = [
            raw[lo:hi].decode("utf-8", "surrogatepass") for lo, hi in zip(bounds, bounds[1:])
        ]
        assert set(words) == distinct
        assert [None if code < 0 else words[code] for code in codes.tolist()] == rows
    assert stored == len(values)


def test_str_file_size_is_codes_plus_distinct_values(pool, tmp_path):
    """One long value no longer widens every row: 2 000 short rows plus
    one 2 000-character value store in a few KiB (a fixed-width unicode
    array would take 4 bytes x 2 000 characters per row, ~16 MB)."""
    values = [f"w{i % 50}" for i in range(2000)] + ["x" * 2000]
    pool.register("s", dense_bat("str", values))
    loaded = _roundtrip(pool, tmp_path)
    (entry,) = _entries(tmp_path / "db", "s")
    assert (tmp_path / "db" / entry["file"]).stat().st_size < 64 * 1024
    assert loaded.lookup("s").tail_list() == values


def test_numeric_files_hold_their_value_arrays(pool, tmp_path):
    """Numeric columns are stored as they are: one array per column, in
    the atom's dtype, next to an unchanged catalog entry."""
    pool.register("ints", bat_from_pairs("oid", "int", [(3, 30), (5, None)]))
    pool.save(tmp_path / "db")
    (entry,) = _entries(tmp_path / "db", "ints")
    assert set(entry) == {
        "file", "htype", "ttype", "hsorted", "tsorted", "hkey", "tkey", "hvoid", "tvoid",
    }
    with np.load(tmp_path / "db" / entry["file"], allow_pickle=False) as data:
        assert set(data.files) == {"head", "tail"}
        assert data["head"].dtype == np.int64 and data["tail"].dtype == np.int64
        assert data["head"].tolist() == [3, 5]


# ----------------------------------------------------------------------
# A data directory is outside input: validated, never unpickled
# ----------------------------------------------------------------------


def _leave_mark(path: str) -> None:
    """The payload of the crafted pickles below: proof that it ran."""
    Path(path).write_text("ran")


class _Payload:
    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return _leave_mark, (self.marker,)


def _saved_bat(tmp_path, bat: BAT):
    pool = BATBufferPool()
    pool.register("s", bat)
    pool.save(tmp_path / "db")
    (entry,) = _entries(tmp_path / "db", "s")
    return tmp_path / "db" / entry["file"]


def _saved_str_bat(tmp_path, values=("ape", None, "bat", "ape")):
    return _saved_bat(tmp_path, dense_bat("str", list(values)))


def _rewrite(path, **changes):
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    arrays.update(changes)
    for key in [key for key, value in arrays.items() if value is None]:
        del arrays[key]
    np.savez(path, **arrays)


def test_crafted_object_array_bat_file_never_runs(tmp_path):
    path = _saved_str_bat(tmp_path)
    marker = tmp_path / "ran"
    np.savez(path, tail=np.array([_Payload(marker)], dtype=object))
    with pytest.raises(BBPError, match=rf"'s'.*{path.name}.*'tail'"):
        BATBufferPool.load(tmp_path / "db")
    assert not marker.exists()


def test_crafted_object_array_spill_unit_never_runs(tmp_path):
    marker = tmp_path / "ran"
    path = tmp_path / "unit.npz"
    np.savez(path, keys=np.array([_Payload(marker)], dtype=object))
    with pytest.raises(BBPError, match="'keys'"):
        read_spill_unit(path)
    assert not marker.exists()


def test_no_source_file_enables_pickle():
    offenders = [
        path.name
        for path in Path(repro.__file__).parent.rglob("*.py")
        if "allow_pickle" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "changes, array",
    [
        ({"tail": np.array([0, 2, 1, 0], dtype=np.int8)}, "tail"),
        ({"tail": np.array([0, -2, 1, 0], dtype=np.int8)}, "tail"),
        ({"tail": np.array([0.0, -1.0, 1.0, 0.0])}, "tail"),
        ({"tail_offsets": np.array([0, 4, 3], dtype=np.int64)}, "tail_offsets"),
        ({"tail_offsets": np.array([1, 3, 6], dtype=np.int64)}, "tail_offsets"),
        ({"tail_offsets": np.array([0, 3, 5], dtype=np.int64)}, "tail_offsets"),
        ({"tail_offsets": np.array([], dtype=np.int64)}, "tail_offsets"),
        ({"tail_heap": np.frombuffer(b"ap\xffbat", dtype=np.uint8)}, "tail_heap"),
        ({"tail_heap": np.arange(6, dtype=np.int64)}, "tail_heap"),
        ({"tail_heap": None}, "tail_heap"),
        ({"extra": np.arange(3)}, "extra"),
    ],
    ids=[
        "code_too_high",
        "code_below_nil",
        "float_codes",
        "offsets_decrease",
        "offsets_not_from_zero",
        "offsets_short_of_heap",
        "offsets_empty",
        "heap_not_utf8",
        "heap_not_bytes",
        "heap_missing",
        "unexpected_array",
    ],
)
def test_malformed_str_file_is_refused(tmp_path, changes, array):
    """Codes within [-1, n), offsets from 0 up to len(heap) without a
    step back, a heap that decodes, exactly the written arrays: any
    violation is a BBPError naming the entry, the file and the array."""
    path = _saved_str_bat(tmp_path)
    _rewrite(path, **changes)
    with pytest.raises(BBPError, match=rf"'s'.*{path.name}.*{array}"):
        BATBufferPool.load(tmp_path / "db")


def _oid_bit_bat():
    return BAT(
        Column("oid", np.array([3, 5, 8], dtype=np.int64)),
        Column("bit", np.array([1, 0, -1], dtype=np.int8)),
    )


def _void_int_bat():
    return dense_bat("int", [4, None, 6])


@pytest.mark.parametrize(
    "make_bat, changes, entry_changes, problem",
    [
        (_oid_bit_bat, {"head": np.array([3.5, 5.0, 8.0])}, {}, "'head'"),
        (_oid_bit_bat, {"tail": np.array([1, 300, -1])}, {}, "'tail'"),
        (_oid_bit_bat, {"head": np.array([3, 5], dtype=np.int64)}, {}, "3 rows"),
        (_void_int_bat, {}, {"count": 4}, "4 rows"),
        (_void_int_bat, {}, {"count": None}, "hseqbase and count"),
        (_void_int_bat, {}, {"hseqbase": -1}, "hseqbase and count"),
    ],
    ids=[
        "float_under_oid",
        "int_outside_bit",
        "head_tail_lengths",
        "void_count_mismatch",
        "void_without_count",
        "void_negative_seqbase",
    ],
)
def test_malformed_numeric_file_is_refused(
    tmp_path, make_bat, changes, entry_changes, problem
):
    """A numeric array must hold its atom's values exactly (no float under
    an integral atom, nothing outside bit's range), and head, tail and a
    void side's ``count`` must agree: a BBPError naming the entry and
    file, never a cast or a BATError."""
    path = _saved_bat(tmp_path, make_bat())
    _rewrite(path, **changes)
    catalog_path = tmp_path / "db" / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    catalog["bats"]["s"].update(entry_changes)
    catalog_path.write_text(json.dumps(catalog))
    with pytest.raises(BBPError, match=rf"'s'.*{path.name}.*{problem}"):
        BATBufferPool.load(tmp_path / "db")


def test_numeric_array_in_a_narrower_dtype_loads(tmp_path):
    """A lossless dtype (int32 under oid) is not a violation: it loads
    as the atom's dtype."""
    path = _saved_bat(tmp_path, _oid_bit_bat())
    _rewrite(path, head=np.array([3, 5, 8], dtype=np.int32))
    head = BATBufferPool.load(tmp_path / "db").lookup("s").head.values
    assert head.dtype == np.int64 and head.tolist() == [3, 5, 8]


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw: b"",
        lambda raw: b"not an npz archive",
        lambda raw: raw[: len(raw) // 2],
        lambda raw: raw[:60] + bytes([raw[60] ^ 0xFF]) + raw[61:],
    ],
    ids=["empty", "garbage", "truncated", "bad_crc"],
)
def test_unreadable_bat_file_is_refused(tmp_path, damage):
    path = _saved_str_bat(tmp_path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(BBPError, match=rf"'s'.*{path.name}"):
        BATBufferPool.load(tmp_path / "db")


# ----------------------------------------------------------------------
# Older layouts are refused, not read
# ----------------------------------------------------------------------


def _write_legacy_roundrobin(directory, bat: BAT, target: int):
    """Hand-write the directory an earlier build's ``save`` produced for
    a round-robin registration of *bat*: BUN ``i`` in fragment
    ``i % nfragments``, materialized heads, and each fragment's global
    BUN positions beside its columns."""
    directory.mkdir()
    n = len(bat)
    nfragments = -(-n // target)
    entry = {
        "fragmented": True,
        "strategy": "roundrobin",
        "target_size": target,
        "workers": None,
        "fragments": [],
    }
    for k in range(nfragments):
        positions = np.arange(k, n, nfragments, dtype=np.int64)
        filename = f"bat_g0001_00000_f{k:03d}.npz"
        np.savez(
            directory / filename,
            head=bat.head_values()[positions],
            tail=bat.tail_values()[positions],
            positions=positions,
        )
        entry["fragments"].append(
            {
                "file": filename,
                "htype": bat.htype,
                "ttype": bat.ttype,
                "hsorted": True,
                "tsorted": False,
                "hkey": True,
                "tkey": False,
                "hvoid": False,
                "tvoid": False,
                "has_positions": True,
            }
        )
    catalog = {"oid_next": n, "generation": 1, "bats": {"legacy": entry}}
    (directory / "catalog.json").write_text(json.dumps(catalog))


def _legacy_bat(n=23):
    rng = np.random.default_rng(3)
    return BAT(VoidColumn(0, n), Column("int", rng.integers(0, 99, n)))


def test_legacy_roundrobin_entry_is_refused(tmp_path):
    _write_legacy_roundrobin(tmp_path / "db", _legacy_bat(), 5)
    with pytest.raises(BBPError, match="catalog entry 'legacy'"):
        BATBufferPool.load(tmp_path / "db")


def test_legacy_roundrobin_fragment_entry_is_refused(tmp_path):
    """The fragment half of the round-robin form on its own: a
    ``has_positions`` sub-entry under a current fragmented entry."""
    _write_legacy_roundrobin(tmp_path / "db", _legacy_bat(), 5)
    catalog = json.loads((tmp_path / "db" / "catalog.json").read_text())
    entry = catalog["bats"]["legacy"]
    del entry["strategy"], entry["workers"]
    (tmp_path / "db" / "catalog.json").write_text(json.dumps(catalog))
    with pytest.raises(BBPError, match="catalog entry 'legacy'"):
        BATBufferPool.load(tmp_path / "db")


def test_legacy_catalog_with_mismatched_positions_is_rejected(tmp_path):
    _write_legacy_roundrobin(tmp_path / "db", _legacy_bat(), 5)
    np.savez(
        tmp_path / "db" / "bat_g0001_00000_f000.npz",
        head=np.arange(5),
        tail=np.arange(5),
        positions=np.arange(4),
    )
    with pytest.raises(BBPError, match="catalog entry 'legacy'"):
        BATBufferPool.load(tmp_path / "db")


@pytest.mark.parametrize("target_size", ["missing", None])
def test_fragmented_entry_without_target_size_is_refused(pool, tmp_path, target_size):
    pool.register_fragmented(
        "f", fragment_bat(dense_bat("int", list(range(9))), FragmentationPolicy(4))
    )
    pool.save(tmp_path / "db")
    catalog = json.loads((tmp_path / "db" / "catalog.json").read_text())
    if target_size == "missing":
        del catalog["bats"]["f"]["target_size"]
    else:
        catalog["bats"]["f"]["target_size"] = target_size
    (tmp_path / "db" / "catalog.json").write_text(json.dumps(catalog))
    with pytest.raises(BBPError, match="catalog entry 'f'"):
        BATBufferPool.load(tmp_path / "db")


def test_fixed_width_unicode_str_file_is_refused(tmp_path):
    """The earlier str form: one ``<U`` array with a NIL sentinel."""
    path = _saved_str_bat(tmp_path)
    np.savez(path, tail=np.array(["ape", "\x00NIL", "bat", "ape"], dtype=str))
    with pytest.raises(BBPError, match=rf"'s'.*{path.name}.*'tail'"):
        BATBufferPool.load(tmp_path / "db")


_DELETE = object()


def _damaged(catalog, *path, value=_DELETE):
    """*catalog* with the key at *path* set to *value* (or deleted)."""
    *parents, key = path
    node = catalog
    for parent in parents:
        node = node[parent]
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    return catalog


def _outside_file(catalog, directory):
    """Entry 's' pointed at a valid BAT file one directory up."""
    outside = directory.parent / "outside.npz"
    (directory / catalog["bats"]["s"]["file"]).rename(outside)
    return _damaged(catalog, "bats", "s", "file", value="../outside.npz")


#: catalog damage (the new catalog, or raw text) -> what the BBPError
#: must name.  Each case escaped as a raw JSONDecodeError, KeyError,
#: TypeError, AttributeError or ValueError, or read a file outside the
#: directory, before the catalog was validated.
CATALOG_DAMAGE = {
    "corrupt_json": (lambda c, d: '{"bats": {"s": ', r"catalog\.json"),
    "no_bats": (lambda c, d: _damaged(c, "bats"), r"catalog\.json.*'bats'"),
    "fragmented_without_fragments": (
        lambda c, d: _damaged(c, "bats", "f", "fragments"),
        r"catalog\.json.*'f'.*fragments",
    ),
    "oid_next_text": (
        lambda c, d: _damaged(c, "oid_next", value="7"), r"catalog\.json.*'oid_next'"
    ),
    "entry_not_an_object": (
        lambda c, d: _damaged(c, "bats", "s", value=["bat.npz"]), r"catalog\.json.*'s'"
    ),
    "generation_text": (
        lambda c, d: _damaged(c, "generation", value="x"), r"catalog\.json.*'generation'"
    ),
    "top_level_list": (lambda c, d: [c], r"catalog\.json"),
    "file_outside_directory": (_outside_file, r"catalog\.json.*'s'.*'\.\./outside\.npz'"),
    "file_absolute_path": (
        lambda c, d: _damaged(c, "bats", "s", "file", value=str(d / c["bats"]["s"]["file"])),
        r"catalog\.json.*'s'.*bare filename",
    ),
    "flag_not_a_bool": (
        lambda c, d: _damaged(c, "bats", "s", "tsorted", value="yes"),
        r"catalog\.json.*'s'.*'tsorted'",
    ),
    "unknown_atom": (
        lambda c, d: _damaged(c, "bats", "s", "ttype", value="nosuchatom"),
        r"'s'.*nosuchatom",
    ),
}


@pytest.mark.parametrize("damage", list(CATALOG_DAMAGE))
def test_malformed_catalog_is_refused(pool, tmp_path, damage):
    """A data directory's catalog is outside input too: every malformed
    shape is a BBPError naming catalog.json and, below the top level,
    the entry -- and ``file`` must be a bare filename inside the
    directory."""
    pool.register("s", dense_bat("int", [1, None, 3]))
    pool.register_fragmented(
        "f", fragment_bat(dense_bat("int", list(range(9))), FragmentationPolicy(4))
    )
    directory = tmp_path / "db"
    pool.save(directory)
    change, named = CATALOG_DAMAGE[damage]
    catalog_path = directory / "catalog.json"
    damaged = change(json.loads(catalog_path.read_text()), directory)
    catalog_path.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
    with pytest.raises(BBPError, match=named):
        BATBufferPool.load(directory)


# ----------------------------------------------------------------------
# Concurrency: the locked catalog and view-cache invalidation
# ----------------------------------------------------------------------


def test_concurrent_reregister_and_lookup_never_serves_stale_views(pool):
    """Two threads hammer re-registration of the same fragmented name
    while two more look it up: every lookup must observe one of the
    registered generations in full -- never a torn or stale coalesced
    view (the cache is invalidated under the catalog lock)."""
    import threading

    policy = FragmentationPolicy(target_size=8)
    generations = {
        g: dense_bat("int", [g] * (16 + g)) for g in range(4)
    }
    for g, bat in generations.items():
        pool.register_fragmented(f"gen{g}", fragment_bat(bat, policy))
    pool.register_fragmented("hot", fragment_bat(generations[0], policy))

    stop = threading.Event()
    errors = []

    def writer(seed: int):
        g = seed
        while not stop.is_set():
            g = (g + 1) % 4
            pool.register_fragmented(
                "hot", fragment_bat(generations[g], policy), replace=True
            )

    def reader():
        while not stop.is_set():
            try:
                coalesced = pool.lookup("hot")
                values = set(coalesced.tail_values().tolist())
                assert len(values) == 1, f"torn view: {values}"
                g = values.pop()
                assert len(coalesced) == 16 + g, (
                    f"stale mix: generation {g} with {len(coalesced)} BUNs"
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    threads = [
        threading.Thread(target=writer, args=(0,)),
        threading.Thread(target=writer, args=(2,)),
        threading.Thread(target=reader),
        threading.Thread(target=reader),
    ]
    for t in threads:
        t.start()
    import time

    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[:3]


def test_concurrent_drop_and_lookup_raise_cleanly(pool):
    """Racing drop/lookup must either succeed or raise BBPError -- no
    KeyError/AttributeError from half-updated catalog state."""
    import threading

    from repro.monet.errors import BBPError

    stop = threading.Event()
    errors = []

    def churn():
        while not stop.is_set():
            try:
                pool.register("flicker", dense_bat("int", [1, 2, 3]))
                pool.drop("flicker")
            except BBPError:
                pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    def probe():
        while not stop.is_set():
            try:
                if pool.exists("flicker"):
                    pool.lookup("flicker")
            except BBPError:
                pass  # dropped between exists and lookup: acceptable
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    threads = [threading.Thread(target=churn) for _ in range(2)] + [
        threading.Thread(target=probe) for _ in range(2)
    ]
    for t in threads:
        t.start()
    import time

    time.sleep(0.4)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
