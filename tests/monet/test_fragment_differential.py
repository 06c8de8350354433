"""Differential kernel testing: fragmented vs monolithic vs naive.

For a seeded population of randomized BATs (numeric + object dtypes,
NILs, duplicates, empty inputs) this suite asserts, operator by
operator:

1. the monolithic kernel matches a naive pure-Python reference
   evaluated over the *stored* column values (NIL sentinels included,
   so sentinel arithmetic is part of the contract), and
2. fragmented execution over >= 3 fragments (both the even range
   split and a ragged one: a 1-BUN fragment, an empty one, one past
   twice the target) is BUN-for-BUN identical to the monolithic
   kernel, and
3. the property flags of every produced BAT are *sound* (a flag is
   only ever True when the property actually holds).

Scalar/grouped double aggregates compare with a tiny tolerance: the
fragmented variants combine partial sums, which is equivalent only up
to floating-point addition order.
"""

from __future__ import annotations

import math
import sys
import threading
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.monet import aggregates as agg
from repro.monet import fragments as fr
from repro.monet import kernel
from repro.monet.atoms import atom
from repro.monet.bat import BAT, Column, StrHeap, VoidColumn, column_from_values
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import KernelError
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT, fragment_bat
from repro.monet.groups import group
from repro.monet.mil.builtins import BUILTINS, fan_out
from tests.conftest import STRATEGIES, assert_codes_decode, fragment_layout

#: Every builtin row by name, run through its fragment rule
#: (``builtins.fan_out``): the fragmented side of an operator whose
#: fragmented twin became a rule row.
_ROWS = SimpleNamespace(**{row.name: partial(fan_out, row.name) for row in BUILTINS})

N_CASES = 60
#: The seeds of the three suites that also ran on the process backend
#: while it existed.  Their ids keep the ``thread-`` prefix of that
#: axis so each case's history (and the tier-1 floor list, which names
#: tests by id) carries across its removal.
BY_THREAD_SEED = pytest.mark.parametrize(
    "seed", range(N_CASES), ids="thread-{}".format
)
#: Every test of this module fans out on the shared pool, tiny inputs
#: included.
pytestmark = pytest.mark.usefixtures("fan_out_on_tiny_inputs")


# ----------------------------------------------------------------------
# Randomized BAT generation
# ----------------------------------------------------------------------


def _random_bat(rng: np.random.Generator, ttype: str, *, nils: bool = True) -> BAT:
    """A random void-headed BAT; sizes include empty and tiny inputs."""
    n = int(rng.choice([0, 1, 2, 3, 17, 64, 65, 120, 200]))
    seqbase = int(rng.integers(0, 5))
    if ttype == "int":
        values = rng.integers(-20, 20, n).astype(np.int64)
        if nils and n:
            values[rng.random(n) < 0.1] = np.iinfo(np.int64).min
        tail = Column("int", values)
    elif ttype == "oid":
        values = rng.integers(0, 40, n).astype(np.int64)
        tail = Column("oid", values)
    elif ttype == "dbl":
        values = np.round(rng.random(n) * 10, 3)
        if nils and n:
            values[rng.random(n) < 0.1] = np.nan
        tail = Column("dbl", values)
    elif ttype == "str":
        words = ["ape", "bat", "cat", "dog", "eel", "fox", "gnu", "owl"]
        values = np.empty(n, dtype=object)
        for i in range(n):
            if nils and rng.random() < 0.1:
                values[i] = None
            else:
                values[i] = str(rng.choice(words)) + ("x" if rng.random() < 0.3 else "")
        tail = column_from_values("str", values)
    else:  # pragma: no cover - test config error
        raise ValueError(ttype)
    return BAT(VoidColumn(seqbase, n), tail)


def _random_nonvoid_head_bat(rng: np.random.Generator, n: int) -> BAT:
    """A BAT with a materialized (duplicate-rich) oid head."""
    heads = rng.integers(0, max(1, n // 2), n).astype(np.int64)
    tails = rng.integers(-5, 5, n).astype(np.int64)
    return BAT(Column("oid", heads), Column("int", tails))


def _fragment(bat: BAT, strategy: str) -> FragmentedBAT:
    """Split into >= 3 fragments whenever the input has >= 3 BUNs."""
    target = max(1, -(-len(bat) // 4))  # ceil(n/4) -> 4 fragments
    return fragment_layout(bat, strategy, FragmentationPolicy(target_size=target))


def test_ragged_layout_is_uneven_and_in_bun_order():
    """The layout axis keeps stressing what it claims to: a 1-BUN
    fragment, an empty one and one past twice the target, all slice
    views in BUN order."""
    rng = np.random.default_rng(1)
    bat = _random_nonvoid_head_bat(rng, 200)
    fb = _fragment(bat, "ragged")
    target = fb.policy.target_size
    assert fb.fragment_sizes()[:3] == [1, 0, 2 * target + 1]
    assert fb.fragments[2].tail.values.base is bat.tail.values
    assert_pairs_equal(fb.to_bat(), _raw_pairs(bat))


# ----------------------------------------------------------------------
# Naive pure-Python references (over stored values)
# ----------------------------------------------------------------------


def _raw_pairs(bat: BAT):
    return list(zip(bat.head_values().tolist(), bat.tail_values().tolist()))


def _ref_select_range(pairs, low, high, include_low, include_high):
    out = []
    for h, t in pairs:
        if t is None:
            continue
        if isinstance(t, float) and math.isnan(t):
            continue
        ok = True
        if low is not None:
            ok = t >= low if include_low else t > low
        if ok and high is not None:
            ok = t <= high if include_high else t < high
        if ok:
            out.append((h, t))
    return out


def _ref_select_equal(pairs, value):
    return [(h, t) for h, t in pairs if t is not None and t == value]


def _ref_likeselect(pairs, pattern):
    return [(h, t) for h, t in pairs if t is not None and pattern in t]


def _ref_fetchjoin(pairs, right_seqbase, right_tails):
    """A value is a position only when it is integral and not NIL: a
    dbl probe of 1.5 or NaN equals no oid."""
    out = []
    for h, t in pairs:
        if isinstance(t, float):
            if not t.is_integer():  # NaN and inf included
                continue
            t = int(t)
        position = t - right_seqbase
        if 0 <= position < len(right_tails):
            out.append((h, right_tails[position]))
    return out


#: The int and oid NIL sentinels (``INT_NIL``, ``OID_NIL``).
_INT_NILS = (np.iinfo(np.int64).min, np.iinfo(np.int64).max)


def _is_nil(value) -> bool:
    """A NIL under the comparison rule: ``None``, NaN, or an int/oid
    sentinel (the test data never stores one atom's sentinel in a
    column of the other)."""
    if isinstance(value, float):
        return math.isnan(value)
    return value is None or value in _INT_NILS


def _ref_join(pairs, right_pairs):
    """NIL (None/NaN/the int sentinels) never joins, not even with
    itself -- Monet semantics, asserted since the kernel drops NIL
    probes/builds."""
    out = []
    for h, t in pairs:
        if _is_nil(t):
            continue
        for rh, rt in right_pairs:
            if _is_nil(rh):
                continue
            if t == rh:
                out.append((h, rt))
    return out


def _ref_outerjoin(pairs, right_pairs, nil):
    """The nested loop of :func:`_ref_join` with every unmatched left
    BUN kept, NIL-padded with the right tail atom's stored *nil*."""
    out = []
    for pair in pairs:
        matches = _ref_join([pair], right_pairs)
        out.extend(matches or [(pair[0], nil)])
    return out


def _ref_semijoin(pairs, right_heads):
    members = set(right_heads)
    return [(h, t) for h, t in pairs if h in members]


def _ref_antijoin(pairs, right_heads):
    members = set(right_heads)
    return [(h, t) for h, t in pairs if h not in members]


def _ref_mark(pairs, base):
    return [(h, base + i) for i, (h, _) in enumerate(pairs)]


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def assert_pairs_equal(result: BAT, expected) -> None:
    got = _raw_pairs(result)
    assert len(got) == len(expected), f"{len(got)} BUNs, expected {len(expected)}"
    for position, (g, e) in enumerate(zip(got, expected)):
        assert _same_value(g[0], e[0]) and _same_value(g[1], e[1]), (
            f"BUN {position}: got {g}, expected {e}"
        )


def assert_flags_sound(bat: BAT) -> None:
    """Every True property flag must actually hold.

    Sortedness is judged under the kernel's ordering of stored values:
    NaN (dbl NIL) and ``None`` (str NIL) sort last, the int NIL
    sentinel is just a very negative number."""
    heads = bat.head_values().tolist()
    tails = bat.tail_values().tolist()

    def sort_key(value):
        if value is None:
            return (1, "")
        if isinstance(value, float) and math.isnan(value):
            return (1, 0.0)
        return (0, value)

    def nondecreasing(vals):
        try:
            return all(
                sort_key(a) <= sort_key(b) for a, b in zip(vals, vals[1:])
            )
        except TypeError:
            return False

    if bat.hsorted:
        assert nondecreasing(heads), "hsorted flag on unsorted head"
    if bat.tsorted:
        assert nondecreasing(tails), "tsorted flag on unsorted tail"
    if bat.hkey:
        assert len(set(map(repr, heads))) == len(heads), "hkey flag with dup heads"
    if bat.tkey:
        assert len(set(map(repr, tails))) == len(tails), "tkey flag with dup tails"
    if bat.hdense:
        assert bat.head.is_void


def _check_op(monolithic: BAT, reference, fragmented_results) -> None:
    """Full differential check for one operator application."""
    assert_pairs_equal(monolithic, reference)
    assert_flags_sound(monolithic)
    for result in fragmented_results:
        coalesced = result.to_bat()
        assert_pairs_equal(coalesced, reference)
        assert_flags_sound(coalesced)
        for fragment in result.fragments:
            assert_flags_sound(fragment)


# ----------------------------------------------------------------------
# The differential suites
# ----------------------------------------------------------------------


@BY_THREAD_SEED
def test_select_family_differential(seed):
    rng = np.random.default_rng(seed)
    ttype = ("int", "dbl", "oid", "str")[seed % 4]
    bat = _random_bat(rng, ttype)
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]

    if ttype == "str":
        value = "cat"
        _check_op(
            kernel.select(bat, value),
            _ref_select_equal(pairs, value),
            [fr.select(fb, value) for fb in fbs],
        )
        pattern = "a"
        _check_op(
            kernel.likeselect(bat, pattern),
            _ref_likeselect(pairs, pattern),
            [fan_out("likeselect", fb, pattern) for fb in fbs],
        )
        low, high = "b", "f"
    else:
        value = int(rng.integers(-20, 40)) if ttype != "dbl" else 3.0
        _check_op(
            kernel.select(bat, value),
            _ref_select_equal(pairs, value),
            [fr.select(fb, value) for fb in fbs],
        )
        low, high = (-5, 10) if ttype != "dbl" else (2.0, 7.5)
    include_low = bool(rng.integers(0, 2))
    include_high = bool(rng.integers(0, 2))
    _check_op(
        kernel.select(bat, low, high, include_low=include_low, include_high=include_high),
        _ref_select_range(pairs, low, high, include_low, include_high),
        [
            fr.select(fb, low, high, include_low=include_low, include_high=include_high)
            for fb in fbs
        ],
    )
    # The same bounds through uselect: a mistyped flag must not fall
    # back to the inclusive range silently.
    flags = {"include_low": include_low, "include_high": include_high}
    _check_op(
        kernel.uselect(bat, low, high, **flags),
        _ref_mark(_ref_select_range(pairs, low, high, include_low, include_high), 0),
        [fan_out("uselect", fb, low, high, **flags) for fb in fbs],
    )
    for uselect, operand in ((kernel.uselect, bat), (partial(fan_out, "uselect"), fbs[0])):
        with pytest.raises(TypeError, match="inclde_low"):
            uselect(operand, low, high, inclde_low=False)
    # Open-ended range on one side.
    _check_op(
        kernel.select(bat, low, None),
        _ref_select_range(pairs, low, None, True, True),
        [fr.select(fb, low, None) for fb in fbs],
    )


@pytest.mark.parametrize("seed", range(N_CASES))
def test_uselect_and_mark_differential(seed):
    rng = np.random.default_rng(100 + seed)
    bat = _random_bat(rng, "int")
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]
    selected = _ref_select_range(pairs, -10, 10, True, True)
    _check_op(
        kernel.uselect(bat, -10, 10),
        _ref_mark(selected, 0),
        [fan_out("uselect", fb, -10, 10) for fb in fbs],
    )
    base = int(rng.integers(0, 100))
    _check_op(
        kernel.mark(bat, base),
        _ref_mark(pairs, base),
        [fan_out("mark", fb, base) for fb in fbs],
    )


@pytest.mark.parametrize("seed", range(N_CASES))
def test_fetchjoin_differential(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.choice([0, 1, 40, 120]))
    left = BAT(VoidColumn(0, n), Column("oid", rng.integers(-3, 30, n)))
    right_seqbase = int(rng.integers(0, 4))
    right_n = int(rng.integers(0, 25))
    right = BAT(
        VoidColumn(right_seqbase, right_n),
        Column("dbl", np.round(rng.random(right_n), 3)),
    )
    pairs = _raw_pairs(left)
    right_tails = right.tail_values().tolist()
    _check_op(
        kernel.fetchjoin(left, right),
        _ref_fetchjoin(pairs, right_seqbase, right_tails),
        [fr.fetchjoin(_fragment(left, s), right) for s in STRATEGIES],
    )
    # dbl probes (check_join_types admits dbl <-> oid widening): NaN,
    # fractional, negative and out-of-range values hit nothing, on a
    # monolithic and a fragmented receiver, against a monolithic and a
    # fragmented dense right alike.
    probes = np.round(rng.random(n) * (right_n + 8) - 3, 0) + right_seqbase
    if n:
        probes[rng.random(n) < 0.2] += 0.5
        probes[rng.random(n) < 0.15] = np.nan
    dleft = BAT(VoidColumn(0, n), Column("dbl", probes))
    expected = _ref_fetchjoin(_raw_pairs(dleft), right_seqbase, right_tails)
    fragmented = [_fragment(dleft, s) for s in STRATEGIES]
    _check_op(
        kernel.fetchjoin(dleft, right),
        expected,
        [fr.fetchjoin(fb, right) for fb in fragmented]
        + [fr.fetchjoin(fb, _fragment(right, "range")) for fb in fragmented]
        + [fr.join(fb, right) for fb in fragmented],
    )
    assert_pairs_equal(kernel.join(dleft, right), expected)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_join_differential(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.choice([0, 1, 30, 90]))
    if seed % 3 == 2:
        # Object-dtype (string) join, NILs (None) on both sides: NIL
        # has no heap code, so NIL never matches NIL.
        words = ["ape", "bat", "cat", "dog", "eel"]
        left = BAT(VoidColumn(0, n), column_from_values("str", _random_words(rng, n, words)))
        m = int(rng.integers(0, 12))
        right = BAT(
            column_from_values("str", _random_words(rng, m, words)),
            Column("int", rng.integers(0, 9, m)),
        )
    elif seed % 3 == 1:
        # dbl join with NaN (dbl NIL) probes *and* builds: the
        # vectorized path must drop NaN probes (Monet: NIL != NIL).
        probe_vals = np.round(rng.random(n) * 8, 0)
        if n:
            probe_vals[rng.random(n) < 0.2] = np.nan
        left = BAT(VoidColumn(0, n), Column("dbl", probe_vals))
        m = int(rng.integers(0, 12))
        build_vals = np.round(rng.random(m) * 8, 0)
        if m:
            build_vals[rng.random(m) < 0.2] = np.nan
        right = BAT(Column("dbl", build_vals), Column("int", rng.integers(-4, 4, m)))
    else:
        left = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, 15, n)))
        m = int(rng.integers(0, 12))
        right = BAT(
            Column("oid", rng.integers(0, 15, m).astype(np.int64)),
            Column("int", rng.integers(-4, 4, m)),
        )
    pairs = _raw_pairs(left)
    right_pairs = _raw_pairs(right)
    _check_op(
        kernel.join(left, right),
        _ref_join(pairs, right_pairs),
        [fr.join(_fragment(left, s), right) for s in STRATEGIES],
    )
    _check_str_join_arms(np.random.default_rng(330 + seed))
    _check_positional_join_arms(np.random.default_rng(360 + seed))


def _check_join(left: BAT, right: BAT) -> None:
    """join and outerjoin of one operand pair against the nested-loop
    oracle (order-sensitive), monolithic and fragmented receiver."""
    pairs, right_pairs = _raw_pairs(left), _raw_pairs(right)
    fragmented = [_fragment(left, s) for s in STRATEGIES]
    _check_op(
        kernel.join(left, right),
        _ref_join(pairs, right_pairs),
        [fr.join(fb, right) for fb in fragmented],
    )
    nil = right.tail.atom_type.make_array([None]).tolist()[0]
    _check_op(
        kernel.outerjoin(left, right),
        _ref_outerjoin(pairs, right_pairs, nil),
        [fr.outerjoin(fb, right) for fb in fragmented],
    )


def _random_words(rng, n: int, words) -> np.ndarray:
    values = np.empty(n, dtype=object)
    for i in range(n):
        values[i] = None if rng.random() < 0.15 else str(rng.choice(words))
    return values


def _check_str_join_arms(rng) -> None:
    """One str join of two columns on heaps of their own, repeated, and
    over ``take``/``window`` gathers that share their column's heap.
    Duplicates and ``None`` on both sides, empty sides, a word only the
    probe side has and one only the build side has."""
    n = int(rng.choice([0, 1, 30, 90]))
    m = int(rng.integers(0, 12))
    left = BAT(
        VoidColumn(0, n),
        column_from_values("str", _random_words(rng, n, ["ape", "bat", "cat", "dog", "elk"])),
    )
    right = BAT(
        column_from_values("str", _random_words(rng, m, ["bat", "cat", "dog", "elk", "fox"])),
        Column("int", rng.integers(0, 9, m)),
    )
    heaps = len(left.tail.heap), len(right.head.heap)
    _check_join(left, right)
    _check_join(left, right)  # the same columns again
    assert (len(left.tail.heap), len(right.head.heap)) == heaps  # a join extends no heap
    # Gathers and windows of the probe and build sides share their heaps.
    for gathered in (
        left.take_positions(rng.permutation(n)[: n // 2]),
        left.slice(n // 4, n),
        kernel.select(left, "bat", "dog"),
    ):
        assert gathered.tail.heap is left.tail.heap
        _check_join(gathered, right)
        _check_join(gathered, right.slice(1, m))
    assert right.slice(1, m).head.heap is right.head.heap
    # The same values on a heap of their own, on either side.
    _check_join(BAT(left.head, column_from_values("str", left.tail.materialize())), right)
    _check_join(left, BAT(column_from_values("str", right.head.materialize()), right.tail))
    # A build over a wider vocabulary than the probe's: the index is in
    # the build's code space and the probe's values are translated.
    wide = BAT(
        column_from_values("str", _random_words(rng, 60, [f"w{i}" for i in range(40)] + ["bat", "dog"])),
        Column("int", rng.integers(0, 9, 60)),
    )
    _check_join(left, wide)
    _check_join(
        BAT(VoidColumn(0, min(n, 3)), column_from_values("str", left.tail.materialize()[:3])),
        wide,
    )


def _check_positional_join_arms(rng) -> None:
    """Build heads that are void, provably dense but materialized,
    sorted-key-but-gapped (must not go positional) and unsorted, under
    oid, dbl and void probes that hit everywhere or only partially.
    The void, the flagged-dense and an unflagged copy of the same head
    must produce identical BUNs."""
    n = int(rng.choice([0, 1, 30, 90]))
    m = int(rng.integers(0, 12))
    seqbase = int(rng.integers(0, 4))
    tails = Column("int", rng.integers(-4, 4, m))
    dense = np.arange(seqbase, seqbase + m, dtype=np.int64)
    gapped = dense + (np.arange(m) >= m // 2)
    rights = {
        "void": BAT(VoidColumn(seqbase, m), tails),
        "dense": BAT(Column("oid", dense), tails, hsorted=True, hkey=True),
        "unflagged": BAT(Column("oid", dense.copy()), tails),
        "gapped": BAT(Column("oid", gapped), tails, hsorted=True, hkey=True),
        "unsorted": BAT(Column("oid", rng.permutation(gapped)), tails, hkey=True),
    }
    assert rights["dense"].hseqbase == (seqbase if m else 0)
    assert rights["unflagged"].hseqbase is None
    assert m < 2 or rights["gapped"].hseqbase is None
    dbl = np.round(rng.random(n) * (m + 8) - 3, 0) + seqbase
    if n:
        dbl[rng.random(n) < 0.2] += 0.5
        dbl[rng.random(n) < 0.15] = np.nan
    head = Column("oid", rng.integers(0, 50, n).astype(np.int64))
    lefts = [
        # partial hits: negative and out-of-range probes
        BAT(head, Column("oid", rng.integers(seqbase - 3, seqbase + m + 6, n))),
        BAT(VoidColumn(3, n), Column("dbl", dbl)),
        BAT(head, VoidColumn(int(rng.integers(0, 6)), n)),
    ]
    if m:
        # every probe hits: the identity / window arms
        lefts.append(
            BAT(VoidColumn(0, n), Column("oid", rng.integers(seqbase, seqbase + m, n)))
        )
        lefts.append(BAT(VoidColumn(5, m), VoidColumn(seqbase, m)))
        lefts.append(BAT(Column("oid", dense[::-1].copy()), Column("oid", dense)))
    for left in lefts:
        for right in rights.values():
            _check_join(left, right)
        reference = _raw_pairs(kernel.join(left, rights["unflagged"]))
        assert_pairs_equal(kernel.join(left, rights["void"]), reference)
        assert_pairs_equal(kernel.join(left, rights["dense"]), reference)


def test_nil_join_never_matches():
    """Monet NIL semantics: a dbl NIL (NaN) probe matches nothing, a
    NaN build value is unreachable, and an outer join NIL-pads the NaN
    probe like any unmatched BUN -- on the monolithic and the
    fragmented path alike."""
    left = BAT(VoidColumn(0, 4), Column("dbl", np.array([1.0, np.nan, 2.0, np.nan])))
    right = BAT(
        Column("dbl", np.array([np.nan, 1.0, np.nan])),
        Column("int", np.array([7, 8, 9], dtype=np.int64)),
    )
    assert kernel.join(left, right).to_pairs() == [(0, 8)]
    assert kernel.outerjoin(left, right).to_pairs() == [
        (0, 8), (1, None), (2, None), (3, None)
    ]
    for strategy in STRATEGIES:
        fb = _fragment(left, strategy)
        assert fr.join(fb, right).to_bat().to_pairs() == [(0, 8)]
        assert fr.outerjoin(fb, right).to_bat().to_pairs() == [
            (0, 8), (1, None), (2, None), (3, None)
        ]
    # str NIL (None) likewise never matches None.
    sleft = BAT(VoidColumn(0, 2), column_from_values("str", np.array(["a", None], dtype=object)))
    sright = BAT(
        column_from_values("str", np.array([None, "a"], dtype=object)),
        Column("int", np.array([1, 2], dtype=np.int64)),
    )
    assert kernel.join(sleft, sright).to_pairs() == [(0, 2)]
    assert kernel.outerjoin(sleft, sright).to_pairs() == [(0, 2), (1, None)]
    # Head membership (semijoin/kdiff) follows the same rule: a NIL
    # head is never a member, even of a NIL-containing right side.
    hleft = BAT(
        column_from_values("str", np.array(["a", None, "b"], dtype=object)),
        Column("int", np.array([1, 2, 3], dtype=np.int64)),
    )
    hright = BAT(
        column_from_values("str", np.array([None, "a"], dtype=object)),
        Column("int", np.array([0, 0], dtype=np.int64)),
    )
    assert kernel.semijoin(hleft, hright).to_pairs() == [("a", 1)]
    assert kernel.kdiff(hleft, hright).to_pairs() == [(None, 2), ("b", 3)]
    dleft = BAT(
        Column("dbl", np.array([1.0, np.nan])),
        Column("int", np.array([1, 2], dtype=np.int64)),
    )
    dright = BAT(
        Column("dbl", np.array([np.nan, 1.0])),
        Column("int", np.array([0, 0], dtype=np.int64)),
    )
    assert kernel.semijoin(dleft, dright).to_pairs() == [(1.0, 1)]
    assert kernel.kdiff(dleft, dright).head_list() == [None]
    # The int/oid sentinels are NILs too: ``INT_NIL`` joins nothing, not
    # even ``INT_NIL``, on the span arm (compact keys) and the sorted
    # arm (sparse keys) alike.
    for name in ("int", "oid"):
        nil = atom(name).nil
        ileft = BAT(VoidColumn(0, 3), Column(name, np.array([5, nil, 6])))
        for keys in ([nil, 5], [nil, 5, 9000]):
            iright = BAT(
                Column(name, np.array(keys)),
                Column("int", np.array([10, 20, 30][: len(keys)], dtype=np.int64)),
            )
            joined = [(0, 20)]
            padded = [(0, 20), (1, None), (2, None)]
            assert kernel.join(ileft, iright).to_pairs() == joined
            assert kernel.outerjoin(ileft, iright).to_pairs() == padded
            for strategy in STRATEGIES:
                fb = _fragment(ileft, strategy)
                for build in (iright, _fragment(iright, strategy)):
                    assert fr.join(fb, build).to_bat().to_pairs() == joined
                    assert fr.outerjoin(fb, build).to_bat().to_pairs() == padded
            hleft = BAT(
                Column(name, np.array([5, nil, 6])),
                Column("int", np.array([1, 2, 3], dtype=np.int64)),
            )
            members, survivors = [(5, 1)], [(None, 2), (6, 3)]
            assert kernel.semijoin(hleft, iright).to_pairs() == members
            assert kernel.kdiff(hleft, iright).to_pairs() == survivors
            for strategy in STRATEGIES:
                fb = _fragment(hleft, strategy)
                for build in (iright, _fragment(iright, strategy)):
                    assert fr.semijoin(fb, build).to_bat().to_pairs() == members
                    assert fr.kdiff(fb, build).to_bat().to_pairs() == survivors


@pytest.mark.parametrize("seed", range(N_CASES))
def test_semijoin_antijoin_differential(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.choice([0, 1, 40, 130]))
    left = _random_nonvoid_head_bat(rng, n)
    if seed % 2:
        m = int(rng.integers(0, 20))
        right = BAT(
            Column("oid", rng.integers(0, max(1, n), m).astype(np.int64)),
            Column("int", rng.integers(0, 3, m)),
        )
        right_heads = right.head_values().tolist()
    else:
        seqbase = int(rng.integers(0, 5))
        m = int(rng.integers(0, 20))
        right = BAT(VoidColumn(seqbase, m), Column("int", rng.integers(0, 3, m)))
        right_heads = list(range(seqbase, seqbase + m))
    pairs = _raw_pairs(left)
    _check_op(
        kernel.semijoin(left, right),
        _ref_semijoin(pairs, right_heads),
        [fr.semijoin(_fragment(left, s), right) for s in STRATEGIES],
    )
    _check_op(
        kernel.kdiff(left, right),
        _ref_antijoin(pairs, right_heads),
        [fr.kdiff(_fragment(left, s), right) for s in STRATEGIES],
    )


@pytest.mark.parametrize("seed", range(N_CASES))
def test_scalar_aggregates_differential(seed):
    rng = np.random.default_rng(500 + seed)
    ttype = "int" if seed % 2 else "dbl"
    # NIL-free: int NILs are sentinel ints the kernel sums like any
    # number (covered elsewhere); dbl NaNs poison sums identically in
    # both paths but make tolerance comparison meaningless.
    bat = _random_bat(rng, ttype, nils=False)
    raw = bat.tail_values().tolist()
    fbs = [_fragment(bat, s) for s in STRATEGIES]

    ref_count = len(raw)
    ref_sum = sum(raw) if raw else (0.0 if ttype == "dbl" else 0)
    ref_min = min(raw) if raw else None
    ref_max = max(raw) if raw else None
    ref_avg = (sum(raw) / len(raw)) if raw else None

    assert agg.count(bat) == ref_count
    assert agg.max_(bat) == ref_max
    assert agg.min_(bat) == ref_min
    _assert_scalar_close(agg.sum_(bat), ref_sum)
    _assert_scalar_close(agg.avg(bat), ref_avg)
    for fb in fbs:
        assert fan_out("count", fb) == ref_count
        assert fr.max_(fb) == ref_max
        assert fan_out("min", fb) == ref_min
        _assert_scalar_close(fr.sum_(fb), ref_sum)
        _assert_scalar_close(fan_out("avg", fb), ref_avg)


def _assert_scalar_close(got, expected):
    if expected is None or got is None:
        assert got is None and expected is None
    else:
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_grouped_aggregates_differential(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.choice([0, 1, 50, 160]))
    values = BAT(VoidColumn(0, n), Column("dbl", np.round(rng.random(n) * 5, 3)))
    keys = BAT(VoidColumn(0, n), Column("int", rng.integers(0, 12, n)))
    grouping = group(keys)

    # Naive per-group reference.
    members: dict = {}
    ids = grouping.tail_values().tolist()
    raw = values.tail_values().tolist()
    for gid, value in zip(ids, raw):
        members.setdefault(gid, []).append(value)
    size = max(ids) + 1 if ids else 0
    ref_sum = [sum(members.get(g, [0.0])) for g in range(size)]
    ref_count = [len(members.get(g, [])) for g in range(size)]
    ref_max = [max(members[g]) if g in members else None for g in range(size)]
    ref_min = [min(members[g]) if g in members else None for g in range(size)]
    ref_avg = [
        (sum(members[g]) / len(members[g])) if g in members else None
        for g in range(size)
    ]

    mono = {
        "sum": agg.grouped_sum(values, grouping),
        "count": agg.grouped_count(values, grouping),
        "max": agg.grouped_max(values, grouping),
        "min": agg.grouped_min(values, grouping),
        "avg": agg.grouped_avg(values, grouping),
    }
    _assert_grouped(mono, ref_sum, ref_count, ref_max, ref_min, ref_avg)
    for strategy in STRATEGIES:
        policy = FragmentationPolicy(target_size=max(1, -(-n // 4)))
        fv = fragment_layout(values, strategy, policy)
        fg = fragment_layout(grouping, strategy, policy)
        frag = {
            "sum": fan_out("{sum}", fv, fg),
            "count": fan_out("{count}", fv, fg),
            "max": fan_out("{max}", fv, fg),
            "min": fan_out("{min}", fv, fg),
            "avg": fan_out("{avg}", fv, fg),
        }
        _assert_grouped(frag, ref_sum, ref_count, ref_max, ref_min, ref_avg)


def _assert_grouped(results, ref_sum, ref_count, ref_max, ref_min, ref_avg):
    assert results["sum"].tail_values().tolist() == pytest.approx(ref_sum)
    assert results["count"].tail_values().tolist() == ref_count
    assert results["max"].tail_list() == pytest.approx(ref_max)
    assert results["min"].tail_list() == pytest.approx(ref_min)
    assert results["avg"].tail_list() == pytest.approx(ref_avg)


def test_nan_extremes_match_monolithic():
    """dbl NIL (NaN) members poison their group/aggregate exactly like
    the monolithic kernel -- regression for an fmax/fmin-based combine
    that silently dropped NaN partials."""
    values = BAT(
        VoidColumn(0, 4),
        Column("dbl", np.array([np.nan, 1.0, 5.0, 2.0])),
    )
    keys = BAT(VoidColumn(0, 4), Column("int", np.array([0, 1, 0, 1], dtype=np.int64)))
    grouping = group(keys)
    for strategy in STRATEGIES:
        policy = FragmentationPolicy(target_size=2)
        fv = fragment_layout(values, strategy, policy)
        fg = fragment_layout(grouping, strategy, policy)
        for mono_fn, frag_fn in (
            (agg.grouped_max, partial(fan_out, "{max}")),
            (agg.grouped_min, partial(fan_out, "{min}")),
        ):
            mono = mono_fn(values, grouping).tail_list()
            frag = frag_fn(fv, fg).tail_list()
            assert len(mono) == len(frag) == 2
            for m, f in zip(mono, frag):
                assert _same_value(m, f) or (m is None and f is None), (mono, frag)
        # Scalar extremes: NaN anywhere makes the whole aggregate NaN.
        assert math.isnan(agg.max_(values))
        assert math.isnan(fr.max_(fv))
        assert math.isnan(agg.min_(values))
        assert math.isnan(fan_out("min", fv))
    # NaN in the *last* fragment too (order dependence of Python max()).
    tail_nan = BAT(VoidColumn(0, 4), Column("dbl", np.array([5.0, 1.0, 2.0, np.nan])))
    ft = fragment_bat(tail_nan, FragmentationPolicy(target_size=2))
    assert math.isnan(fr.max_(ft)) and math.isnan(fan_out("min", ft))


# ----------------------------------------------------------------------
# Order-sensitive operators: sort / unique / refine
# ----------------------------------------------------------------------


def _nil_key(value):
    """NILs compare equal under the identity rule (kernel docstring):
    NaN and None normalize to one sentinel for dedup references."""
    if value is None:
        return ("\0nil",)
    if isinstance(value, float) and math.isnan(value):
        return ("\0nil",)
    return value


def _order_key(value):
    """The kernel's sort order over stored values: NaN/None last, the
    int NIL sentinel is simply the most negative int."""
    if value is None:
        return (1, "")
    if isinstance(value, float) and math.isnan(value):
        return (1, 0.0)
    return (0, value)


def _ref_sort(pairs):
    return sorted(pairs, key=lambda p: _order_key(p[0]))


def _ref_tsort(pairs):
    return sorted(pairs, key=lambda p: _order_key(p[1]))


def _ref_unique(pairs):
    seen = set()
    out = []
    for h, t in pairs:
        key = (_nil_key(h), _nil_key(t))
        if key not in seen:
            seen.add(key)
            out.append((h, t))
    return out


def _ref_kunique(pairs):
    seen = set()
    out = []
    for h, t in pairs:
        key = _nil_key(h)
        if key not in seen:
            seen.add(key)
            out.append((h, t))
    return out


def _ref_tunique(pairs):
    seen = set()
    out = []
    for h, t in pairs:
        key = _nil_key(t)
        if key not in seen:
            seen.add(key)
            out.append((h, t))
    return out


def _headed_bat(rng: np.random.Generator, htype: str, n: int, *, nils=True) -> BAT:
    """A duplicate-rich BAT with a materialized head of *htype* and an
    int tail (the shape sort/unique actually reorder)."""
    if htype == "int":
        heads = rng.integers(-8, 8, n).astype(np.int64)
        if nils and n:
            heads[rng.random(n) < 0.15] = np.iinfo(np.int64).min
        head = Column("int", heads)
    elif htype == "oid":
        head = Column("oid", rng.integers(0, 10, n).astype(np.int64))
    elif htype == "dbl":
        heads = np.round(rng.random(n) * 4, 1)
        if nils and n:
            heads[rng.random(n) < 0.2] = np.nan
        head = Column("dbl", heads)
    elif htype == "str":
        words = ["ape", "bat", "cat", "dog"]
        heads = np.empty(n, dtype=object)
        for i in range(n):
            if nils and rng.random() < 0.2:
                heads[i] = None
            else:
                heads[i] = str(rng.choice(words))
        head = column_from_values("str", heads)
    else:  # pragma: no cover - test config error
        raise ValueError(htype)
    tails = rng.integers(-4, 4, n).astype(np.int64)
    if nils and n:
        tails[rng.random(n) < 0.1] = np.iinfo(np.int64).min
    return BAT(head, Column("int", tails))


@pytest.mark.parametrize("seed", range(N_CASES))
def test_sort_differential(seed):
    rng = np.random.default_rng(800 + seed)
    htype = ("int", "dbl", "str", "oid")[seed % 4]
    n = int(rng.choice([0, 1, 2, 17, 64, 120]))
    bat = _headed_bat(rng, htype, n)
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]
    _check_op(kernel.sort(bat), _ref_sort(pairs), [fr.sort(fb) for fb in fbs])
    _check_op(kernel.tsort(bat), _ref_tsort(pairs), [fr.tsort(fb) for fb in fbs])


@pytest.mark.parametrize("seed", range(N_CASES))
def test_unique_family_differential(seed):
    rng = np.random.default_rng(900 + seed)
    htype = ("int", "dbl", "str", "oid")[seed % 4]
    n = int(rng.choice([0, 1, 2, 17, 64, 120]))
    bat = _headed_bat(rng, htype, n)
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]
    _check_op(kernel.unique(bat), _ref_unique(pairs), [_ROWS.unique(fb) for fb in fbs])
    _check_op(
        kernel.kunique(bat), _ref_kunique(pairs), [_ROWS.kunique(fb) for fb in fbs]
    )
    _check_op(
        kernel.tunique(bat), _ref_tunique(pairs), [_ROWS.tunique(fb) for fb in fbs]
    )


@pytest.mark.parametrize(
    "htype,shape",
    [
        (htype, shape)
        for htype in ("int", "dbl", "str", "oid")
        for shape in ("all_equal", "presorted")
    ]
    # int/oid NILs are plain sentinel values for ordering; NaN/None
    # have their own last-place rule, so only dbl/str get the shape.
    + [("dbl", "nil_heavy"), ("str", "nil_heavy")],
)
def test_sort_unique_edge_shapes(htype, shape):
    """The satellite edge shapes: all-equal columns (every BUN ties),
    already-sorted inputs (the merge degenerates to concatenation), and
    NIL-heavy columns (NaN/None ordering and identity-rule dedup)."""
    rng = np.random.default_rng(hash(shape) % 1000)
    n = 90
    if shape == "all_equal":
        bat = _headed_bat(rng, htype, n, nils=False)
        value = bat.head_values()[0]
        if htype == "str":
            head = column_from_values("str", np.full(n, value, dtype=object))
        else:
            head = Column(
                bat.head.atom_type,
                np.full(n, value, dtype=bat.head.atom_type.dtype),
            )
        bat = BAT(head, bat.tail)
    elif shape == "presorted":
        base = _headed_bat(rng, htype, n, nils=False)
        bat = kernel.sort(base)
        bat = BAT(bat.head, bat.tail)  # drop the hsorted flag: detection path
    else:
        bat = _headed_bat(rng, htype, n)
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]
    _check_op(kernel.sort(bat), _ref_sort(pairs), [fr.sort(fb) for fb in fbs])
    _check_op(kernel.unique(bat), _ref_unique(pairs), [_ROWS.unique(fb) for fb in fbs])


def _order_head(rng, shape: str, n: int) -> Column:
    """A head column for one arm of ``kernel.stable_order``: compact
    int keys pack into words; a wide span, an int/oid NIL sentinel
    among small values, dbl and str ranks of a NIL-holding column
    exercise the rest."""
    if shape == "all_equal":
        return Column("int", np.full(n, 5, dtype=np.int64))
    if shape == "compact_int":
        return Column("int", rng.integers(-50, 50, n).astype(np.int64))
    if shape == "wide_int":
        far = rng.integers(-(1 << 62), 1 << 62, 12).astype(np.int64)
        return Column("int", rng.choice(far, n))
    if shape == "nil_int":
        values = rng.integers(-5, 5, n).astype(np.int64)
        values[rng.random(n) < 0.5] = np.iinfo(np.int64).min
        return Column("int", values)
    if shape == "nil_oid":
        values = rng.integers(0, 10, n).astype(np.int64)
        values[rng.random(n) < 0.5] = np.iinfo(np.int64).max
        return Column("oid", values)
    if shape == "dbl":
        return Column("dbl", rng.choice([0.0, -0.0, np.nan, 1.5, -2.25], n))
    assert shape == "str", shape
    return column_from_values("str", rng.choice(np.array(["ape", "bat", None], dtype=object), n))


@pytest.mark.parametrize("layout", ["one", *STRATEGIES])
@pytest.mark.parametrize(
    "shape",
    ["all_equal", "compact_int", "wide_int", "nil_int", "nil_oid", "dbl", "str"],
)
def test_stable_order_sort_differential(shape, layout):
    """Fragmented ``sort``/``tsort`` equal the kernel's -- per-fragment
    runs and partition merges both ordered by ``kernel.stable_order``
    -- over one fragment and the k-fragment layouts, on either side of
    the packed-word arm.  The other column numbers the BUNs, so every
    tie order is visible."""
    rng = np.random.default_rng(len(shape) * 31 + len(layout))
    n = 200
    bat = BAT(_order_head(rng, shape, n), Column("int", np.arange(n, dtype=np.int64)))
    for operand, op, ref in (
        (bat, "sort", _ref_sort),
        (bat.reverse(), "tsort", _ref_tsort),
    ):
        if layout == "one":
            fb = fragment_bat(operand, FragmentationPolicy(target_size=n))
        else:
            fb = _fragment(operand, layout)
        _check_op(
            getattr(kernel, op)(operand),
            ref(_raw_pairs(operand)),
            [getattr(fr, op)(fb)],
        )


def test_nil_dedup_identity_rule():
    """The NIL-dedup decision (recorded in the kernel module
    docstring): joins never match NIL, but unique/kunique treat all
    NILs of a column as one value -- a single NaN/None survives, on the
    monolithic and the fragmented path alike."""
    nan_heads = BAT(
        Column("dbl", np.array([np.nan, 1.0, np.nan, 1.0])),
        Column("int", np.array([7, 8, 7, 8], dtype=np.int64)),
    )
    assert kernel.unique(nan_heads).to_pairs() == [(None, 7), (1.0, 8)]
    assert kernel.kunique(nan_heads).to_pairs() == [(None, 7), (1.0, 8)]
    none_heads = BAT(
        column_from_values("str", np.array([None, "a", None], dtype=object)),
        Column("int", np.array([1, 2, 1], dtype=np.int64)),
    )
    assert kernel.unique(none_heads).to_pairs() == [(None, 1), ("a", 2)]
    assert kernel.kunique(none_heads).to_pairs() == [(None, 1), ("a", 2)]
    for bat in (nan_heads, none_heads):
        for strategy in STRATEGIES:
            fb = _fragment(bat, strategy)
            assert _ROWS.unique(fb).to_bat().to_pairs() == kernel.unique(bat).to_pairs()
            assert (
                _ROWS.kunique(fb).to_bat().to_pairs() == kernel.kunique(bat).to_pairs()
            )


@pytest.mark.parametrize("seed", range(20))
def test_refine_differential(seed):
    from repro.monet.groups import refine

    rng = np.random.default_rng(1000 + seed)
    n = int(rng.choice([0, 1, 50, 160]))
    keys = BAT(VoidColumn(0, n), Column("int", rng.integers(0, 6, n)))
    if seed % 2:
        values_raw = np.round(rng.random(n) * 2, 1)
        if n:
            values_raw[rng.random(n) < 0.2] = np.nan
        values = BAT(VoidColumn(0, n), Column("dbl", values_raw))
    else:
        words = np.empty(n, dtype=object)
        for i in range(n):
            words[i] = None if rng.random() < 0.2 else str(
                rng.choice(["x", "y", "z"])
            )
        values = BAT(VoidColumn(0, n), column_from_values("str", words))
    grouping = group(keys)
    mono = refine(grouping, values)

    # Naive reference: same group iff same (old group, value) pair,
    # ids in first-appearance order, NILs equal under the identity rule.
    ids: dict = {}
    expected = []
    for old, value in zip(grouping.tail_values().tolist(), values.tail_list()):
        key = (old, _nil_key(value))
        if key not in ids:
            ids[key] = len(ids)
        expected.append(ids[key])
    assert mono.tail_values().tolist() == expected

    for strategy in STRATEGIES:
        policy = FragmentationPolicy(target_size=max(1, -(-n // 4)))
        fragmented = _ROWS.refine(
            fragment_layout(grouping, strategy, policy),
            fragment_layout(values, strategy, policy),
        )
        coalesced = fragmented.to_bat()
        assert coalesced.to_pairs() == mono.to_pairs()
        assert_flags_sound(coalesced)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sort_after_subset_chain(strategy):
    """Sorting a *derived* fragmented subset (uneven fragments, some
    possibly empty) must break ties by global BUN position --
    regression for the unique -> sort chain."""
    rng = np.random.default_rng(9)
    bat = _headed_bat(rng, "oid", 120, nils=False)
    fb = _fragment(bat, strategy)
    chained = fr.sort(_ROWS.unique(fb)).to_bat()
    expected = kernel.sort(kernel.unique(bat))
    assert chained.to_pairs() == expected.to_pairs()
    assert_flags_sound(chained)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sort_output_stays_fragmented(strategy):
    """Fragmented sort/unique emit fragmented results partitioned at
    the policy's target size -- the property that keeps the rest of the
    plan fragment-parallel."""
    rng = np.random.default_rng(5)
    bat = _headed_bat(rng, "oid", 200, nils=False)
    fb = fragment_layout(
        bat, strategy, FragmentationPolicy(target_size=32)
    )
    result = fr.sort(fb)
    assert isinstance(result, FragmentedBAT)
    assert max(result.fragment_sizes()) <= 32
    deduped = _ROWS.unique(fb)
    assert isinstance(deduped, FragmentedBAT)
    assert deduped.nfragments == fb.nfragments  # dedup keeps the shape


# ----------------------------------------------------------------------
# Structural invariants of the fragmentation itself
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragment_roundtrip_identity(seed, strategy):
    rng = np.random.default_rng(700 + seed)
    ttype = ("int", "dbl", "str", "oid")[seed % 4]
    bat = _random_bat(rng, ttype)
    fb = _fragment(bat, strategy)
    if len(bat) >= 4:
        assert fb.nfragments >= 3
    assert len(fb) == len(bat)
    assert_pairs_equal(fb.to_bat(), _raw_pairs(bat))
    assert_flags_sound(fb.to_bat())
    # Coalescing a split of a void-headed BAT restores voidness.
    assert fb.to_bat().hdense == bat.hdense


# ----------------------------------------------------------------------
# Set operators: kunion / kintersect (identity NIL rule) and the
# shared-build semijoin / kdiff fast path (comparison NIL rule)
# ----------------------------------------------------------------------


def _ref_kunion(pairs, right_pairs):
    members = {_nil_key(h) for h, _ in pairs}
    return list(pairs) + [
        (h, t) for h, t in right_pairs if _nil_key(h) not in members
    ]


def _ref_kintersect(pairs, right_pairs):
    members = {_nil_key(h) for h, _ in right_pairs}
    return [(h, t) for h, t in pairs if _nil_key(h) in members]


def _ref_semijoin_comparison(pairs, right_pairs):
    members = {h for h, _ in right_pairs if not _is_nil(h)}
    return [
        (h, t) for h, t in pairs if not _is_nil(h) and h in members
    ]


def _ref_kdiff_comparison(pairs, right_pairs):
    members = {h for h, _ in right_pairs if not _is_nil(h)}
    return [(h, t) for h, t in pairs if _is_nil(h) or h not in members]


@BY_THREAD_SEED
def test_set_operators_differential(seed):
    """kunion/kintersect (identity rule) and semijoin/kdiff (comparison
    rule) over NIL-heavy heads: monolithic vs identity/comparison
    references vs fragmented execution -- fragmented left against
    monolithic, same-strategy fragmented, and cross-strategy fragmented
    right operands."""
    rng = np.random.default_rng(1500 + seed)
    htype = ("int", "dbl", "str", "oid")[seed % 4]
    n_left = int(rng.choice([0, 1, 2, 17, 64, 120]))
    n_right = int(rng.choice([0, 1, 3, 20, 65, 119]))
    left = _headed_bat(rng, htype, n_left)
    right = _headed_bat(rng, htype, n_right)
    left_pairs, right_pairs = _raw_pairs(left), _raw_pairs(right)
    left_fbs = [_fragment(left, s) for s in STRATEGIES]
    right_fbs = [_fragment(right, s) for s in STRATEGIES]

    def variants(op):
        out = [op(fb, right) for fb in left_fbs]
        out += [op(lf, rf) for lf, rf in zip(left_fbs, right_fbs)]
        out.append(op(left_fbs[0], right_fbs[1]))  # range left, ragged right
        out.append(op(left_fbs[1], right_fbs[0]))  # ragged left, range right
        return out

    _check_op(
        kernel.kunion(left, right),
        _ref_kunion(left_pairs, right_pairs),
        variants(fr.kunion),
    )
    _check_op(
        kernel.kintersect(left, right),
        _ref_kintersect(left_pairs, right_pairs),
        variants(fr.kintersect),
    )
    _check_op(
        kernel.semijoin(left, right),
        _ref_semijoin_comparison(left_pairs, right_pairs),
        variants(fr.semijoin),
    )
    _check_op(
        kernel.kdiff(left, right),
        _ref_kdiff_comparison(left_pairs, right_pairs),
        variants(fr.kdiff),
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_setops_nil_identity_rule_fragmented(strategy):
    """The PR-4 set-op NIL decision, fragment-parallel: one NaN head on
    each side unions to a single NaN BUN and intersects to the left
    NaN BUN, BUN-identical to the monolithic kernel."""
    left = BAT(
        Column("dbl", np.array([np.nan, 1.0, 2.0])),
        Column("int", np.array([1, 2, 3], dtype=np.int64)),
    )
    right = BAT(
        Column("dbl", np.array([np.nan, 2.0, 9.0])),
        Column("int", np.array([4, 5, 6], dtype=np.int64)),
    )
    lf, rf = _fragment(left, strategy), _fragment(right, strategy)
    union = fr.kunion(lf, rf).to_bat()
    assert_pairs_equal(union, _raw_pairs(kernel.kunion(left, right)))
    nan_heads = [h for h, _ in _raw_pairs(union) if isinstance(h, float) and math.isnan(h)]
    assert len(nan_heads) == 1  # the identity rule: all NILs are one value
    intersection = fr.kintersect(lf, rf).to_bat()
    assert_pairs_equal(intersection, _raw_pairs(kernel.kintersect(left, right)))
    assert _raw_pairs(intersection)[1] == (2.0, 3)


# ----------------------------------------------------------------------
# Sample-sort merge edge cases
# ----------------------------------------------------------------------


def _explicit_range_fragments(bat: BAT, sizes) -> FragmentedBAT:
    """A range FragmentedBAT with the exact fragment *sizes* (empty
    fragments allowed), pinned to the parallel code path."""
    assert sum(sizes) == len(bat)
    fragments = []
    at = 0
    for size in sizes:
        fragments.append(bat.slice(at, at + size))
        at += size
    policy = FragmentationPolicy(target_size=max(1, max(sizes, default=1)))
    return FragmentedBAT(fragments, policy=policy)


_ALL_EQUAL_HEAD = {
    "int": lambda n: Column("int", np.full(n, 5, dtype=np.int64)),
    "oid": lambda n: Column("oid", np.full(n, 3, dtype=np.int64)),
    "dbl": lambda n: Column("dbl", np.full(n, 0.5)),
    "str": lambda n: column_from_values("str", np.array(["cat"] * n, dtype=object)),
}


@pytest.mark.parametrize("htype", ["int", "oid", "dbl", "str"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_sort_all_equal_keys(htype, strategy):
    """Degenerate pivots: every sampled key is identical, so the pivot
    set dedupes to (at most) one value and a single partition does all
    the work -- the result must still be the stable identity ordering
    by global BUN position."""
    n = 97
    rng = np.random.default_rng(31)
    bat = BAT(
        _ALL_EQUAL_HEAD[htype](n),
        Column("int", rng.permutation(n).astype(np.int64)),
    )
    fb = _fragment(bat, strategy)
    _check_op(kernel.sort(bat), _ref_sort(_raw_pairs(bat)), [fr.sort(fb)])


@pytest.mark.parametrize("htype", ["int", "dbl", "str"])
def test_sample_sort_empty_and_single_fragments(htype):
    """Empty fragments mixed between full ones contribute empty runs
    and empty partition slices; a single fragment degenerates to the
    no-merge path.  Both must stay BUN-identical to the monolithic
    sort."""
    rng = np.random.default_rng(57)
    bat = _headed_bat(rng, htype, 60)
    pairs = _raw_pairs(bat)
    holey = _explicit_range_fragments(bat, [0, 20, 0, 0, 25, 15, 0])
    single = FragmentedBAT(
        [bat], policy=FragmentationPolicy(target_size=len(bat))
    )
    _check_op(kernel.sort(bat), _ref_sort(pairs), [fr.sort(holey), fr.sort(single)])
    _check_op(
        kernel.unique(bat),
        _ref_unique(pairs),
        [_ROWS.unique(holey), _ROWS.unique(single)],
    )


@pytest.mark.parametrize("fanout", [1, 3, 64])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_sort_fanout_extremes(fanout, strategy, tuning_override):
    """MERGE_FANOUT=1 orders everything in one partition; a
    fan-out far beyond the data yields many tiny (some empty)
    partitions.  Both ends must be BUN-identical to the monolithic
    sort, for numeric and object heads."""
    tuning_override(merge_fanout=fanout)
    rng = np.random.default_rng(101 + fanout)
    for htype in ("dbl", "str"):
        bat = _headed_bat(rng, htype, 120)
        fb = _fragment(bat, strategy)
        _check_op(kernel.sort(bat), _ref_sort(_raw_pairs(bat)), [fr.sort(fb)])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_sort_output_feeds_fragment_parallel_ops(strategy):
    """The sample-sort result is range-partitioned: a following
    fragment-parallel operator (select) over it must agree with the
    monolithic pipeline."""
    rng = np.random.default_rng(77)
    bat = _headed_bat(rng, "int", 150)
    fb = _fragment(bat, strategy)
    sorted_fb = fr.sort(fb)
    got = fr.select(sorted_fb, -2, 4).to_bat()
    expected = kernel.select(kernel.sort(bat), -2, 4)
    assert_pairs_equal(got, _raw_pairs(expected))


# ----------------------------------------------------------------------
# Grace-join differential: fragmented rights, spill, fan-out extremes
# ----------------------------------------------------------------------


def _join_case(rng, flavor: str, n: int, m: int):
    """Random (left, right) join operands of one dtype flavor with
    NIL-heavy bases on both sides."""
    if flavor == "str":
        words = ["ape", "bat", "cat", "dog", "eel"]
        probe_vals = np.empty(n, dtype=object)
        for i in range(n):
            probe_vals[i] = None if rng.random() < 0.2 else str(rng.choice(words))
        left = BAT(VoidColumn(0, n), column_from_values("str", probe_vals))
        build_vals = np.empty(m, dtype=object)
        for i in range(m):
            build_vals[i] = None if rng.random() < 0.2 else str(rng.choice(words))
        right = BAT(column_from_values("str", build_vals), Column("int", rng.integers(0, 9, m)))
    elif flavor == "dbl":
        probe_vals = np.round(rng.random(n) * 8, 0)
        if n:
            probe_vals[rng.random(n) < 0.25] = np.nan
        left = BAT(VoidColumn(0, n), Column("dbl", probe_vals))
        build_vals = np.round(rng.random(m) * 8, 0)
        if m:
            build_vals[rng.random(m) < 0.25] = np.nan
        right = BAT(Column("dbl", build_vals), Column("int", rng.integers(-4, 4, m)))
    else:
        # "sparse" spreads the oid keys x1000: too wide for the span
        # arm, so the build takes the radix-partitioned sorted arm (the
        # one that spills); "sparse_str" carries NIL-heavy str tails
        # through it.
        spread = 1 if flavor == "oid" else 1000
        left = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, 15, n) * spread))
        keys = Column("oid", rng.integers(0, 15, m).astype(np.int64) * spread)
        if flavor == "sparse_str":
            words = ["ape", "bat", "cat", "\x00NIL", ""]
            tails = np.empty(m, dtype=object)
            for i in range(m):
                tails[i] = None if rng.random() < 0.3 else str(rng.choice(words))
            tail = column_from_values("str", tails)
        else:
            tail = Column("int", rng.integers(-4, 4, m))
        right = BAT(keys, tail)
    return left, right


#: The flavors the grace-join differentials cycle through, by seed; the
#: str-tail flavor runs in suites of its own.
JOIN_FLAVORS = ("oid", "dbl", "str")


@BY_THREAD_SEED
def test_join_fragmented_right_differential(seed):
    """The grace hash join with fragmented *right* operands: range x
    ragged splits of both sides, over NIL-heavy bases -- BUN-identical to the
    monolithic kernel for join and outerjoin alike, with no coalesce
    of either operand."""
    _check_fragmented_right_join(seed, JOIN_FLAVORS[seed % len(JOIN_FLAVORS)])


@pytest.mark.parametrize("seed", range(0, N_CASES, 3))
def test_join_fragmented_right_str_tail_differential(seed):
    """The same with sparse oid keys (the sorted arm) carrying NIL-heavy
    str tails."""
    _check_fragmented_right_join(seed, "sparse_str")


def _check_fragmented_right_join(seed: int, flavor: str) -> None:
    rng = np.random.default_rng(1300 + seed)
    n = int(rng.choice([0, 1, 30, 90]))
    m = int(rng.integers(0, 25))
    left, right = _join_case(rng, flavor, n, m)
    join_variants = [
        fr.join(_fragment(left, ls), _fragment(right, rs))
        for ls in STRATEGIES
        for rs in STRATEGIES
    ]
    _check_op(
        kernel.join(left, right),
        _ref_join(_raw_pairs(left), _raw_pairs(right)),
        join_variants,
    )
    # outerjoin rides the same shared partitioned build (the reference
    # is the monolithic kernel, itself pinned by test_nil_join_*).
    mono_outer = kernel.outerjoin(left, right)
    outer_variants = [
        fr.outerjoin(_fragment(left, ls), _fragment(right, rs))
        for ls in STRATEGIES
        for rs in STRATEGIES
    ]
    _check_op(mono_outer, _raw_pairs(mono_outer), outer_variants)


@pytest.mark.parametrize("seed", range(0, N_CASES, 5))
def test_join_spill_forced_differential(seed, monkeypatch, tuning_override):
    """JOIN_SPILL_BUNS=0 forces every partitioned build through the
    BBP npz spill units; results stay BUN-identical, a unit holds no
    object array (str tails are gathered from the build fragments, not
    spilled), and no spill unit outlives its join."""
    _check_spill_forced_join(
        seed, JOIN_FLAVORS[seed % len(JOIN_FLAVORS)], monkeypatch, tuning_override
    )


@pytest.mark.parametrize("seed", range(0, N_CASES, 5))
def test_join_spill_forced_str_tail_differential(seed, monkeypatch, tuning_override):
    """The same with sparse oid keys carrying NIL-heavy str tails: the
    sorted arm spills every build."""
    _check_spill_forced_join(seed, "sparse_str", monkeypatch, tuning_override)


def _check_spill_forced_join(seed: int, flavor: str, monkeypatch, tuning_override) -> None:
    from repro.monet import bbp

    tuning_override(join_spill=0)
    monkeypatch.setattr(fr, "JOIN_PARTITION_MIN_BUNS", 1)
    spilled = []
    real_spill = bbp.write_spill_unit
    monkeypatch.setattr(
        bbp,
        "write_spill_unit",
        lambda tag, **arrays: spilled.extend(a.dtype for a in arrays.values())
        or real_spill(tag, **arrays),
    )
    rng = np.random.default_rng(1400 + seed)
    n = int(rng.choice([1, 30, 90]))
    m = int(rng.integers(1, 25))
    left, right = _join_case(rng, flavor, n, m)
    variants = [
        fr.join(_fragment(left, ls), _fragment(right, rs))
        for ls in STRATEGIES
        for rs in STRATEGIES
    ] + [
        fr.outerjoin(_fragment(left, ls), _fragment(right, "range"))
        for ls in STRATEGIES
    ]
    _check_op(
        kernel.join(left, right),
        _ref_join(_raw_pairs(left), _raw_pairs(right)),
        variants[:4],
    )
    mono_outer = kernel.outerjoin(left, right)
    _check_op(mono_outer, _raw_pairs(mono_outer), variants[4:])
    if kernel.build_match_index([right.head]).arm == "sorted":
        assert spilled
    assert np.dtype(object) not in spilled
    if bbp._SPILL_ROOT is not None:
        assert list(bbp._SPILL_ROOT.iterdir()) == []


@pytest.mark.parametrize("fanout", [1, 64])
@pytest.mark.parametrize("flavor", ["oid", "str", "sparse"])
def test_join_fanout_extremes(fanout, flavor, monkeypatch, tuning_override):
    """JOIN_FANOUT extremes, with the partition floor disabled so the
    cap actually binds: one partition (a plain shared-index join) and
    more partitions than distinct keys must both reproduce the
    monolithic join."""
    tuning_override(join_fanout=fanout)
    monkeypatch.setattr(fr, "JOIN_PARTITION_MIN_BUNS", 1)
    rng = np.random.default_rng(99 + fanout)
    left, right = _join_case(rng, flavor, 120, 30)
    expected = _ref_join(_raw_pairs(left), _raw_pairs(right))
    variants = [
        fr.join(_fragment(left, ls), _fragment(right, rs))
        for ls in STRATEGIES
        for rs in STRATEGIES
    ]
    _check_op(kernel.join(left, right), expected, variants)


# ----------------------------------------------------------------------
# The span arm: integral keys of compact span, coded ``key - lo``
# ----------------------------------------------------------------------

_SPAN_M = 12

#: Build shapes and the arm each must select.  ``boundary_*`` sit at
#: the rule ``hi - lo < 2 * count``: count excludes the NIL, so 11 keys
#: allow a span of 21 and not 22.
_SPAN_SHAPES = {
    "compact": "span",
    "boundary_in": "span",
    "boundary_out": "sorted",
    "sparse": "sorted",
    "negative_lo": "span",
    "all_nil": "span",
    "empty": "span",
    "single": "span",
}


def _span_build_keys(rng, name: str, shape: str) -> np.ndarray:
    nil, m = atom(name).nil, _SPAN_M
    if shape == "empty":
        return np.empty(0, dtype=np.int64)
    if shape == "all_nil":
        return np.full(m, nil, dtype=np.int64)
    if shape == "single":
        return np.full(m, 7, dtype=np.int64)
    if shape == "sparse":
        keys = rng.integers(0, m, m) * 1000
        keys[:2] = (0, 1000 * (m - 1))
    elif shape == "negative_lo":
        keys = rng.integers(-20, -20 + m, m)
    elif shape == "compact":
        keys = rng.integers(3, 3 + m, m)
    else:
        count = m - 1  # one NIL below
        keys = rng.integers(10, 15, m)
        keys[1:3] = (10, 10 + 2 * count - (1 if shape == "boundary_in" else 0))
    keys = keys.astype(np.int64)
    # One NIL: at 0 on the boundary shapes, so it cannot hit lo or hi.
    keys[0 if shape.startswith("boundary") else rng.integers(2, m)] = nil
    return keys


def _span_probes(rng, name: str, keys: np.ndarray):
    """An int/oid probe column over ``lo - 5 .. hi + 5`` with NILs, and
    a dbl probe column of integral, ``x.5`` and NaN values."""
    finite = keys[keys != atom(name).nil]
    lo, hi = (int(finite.min()), int(finite.max())) if len(finite) else (0, 20)
    n = 40
    values = rng.integers(lo - 5, hi + 6, n).astype(np.int64)
    if len(finite):
        values[: n // 2] = rng.choice(finite, n // 2)
    values[rng.random(n) < 0.15] = atom(name).nil
    doubles = values.astype(np.float64)
    doubles[rng.random(n) < 0.2] += 0.5
    doubles[rng.random(n) < 0.15] = np.nan
    doubles[values == atom(name).nil] = np.nan
    return Column(name, values), Column("dbl", doubles)


@pytest.mark.parametrize("spill", [False, True], ids=["resident", "spill"])
@pytest.mark.parametrize("shape", list(_SPAN_SHAPES))
@pytest.mark.parametrize("name", ["int", "oid"])
def test_span_arm_join_differential(name, shape, spill, monkeypatch, tuning_override):
    """Every build shape around the span rule, against int/oid and dbl
    probes: the kernel picks the declared arm, and join/outerjoin --
    monolithic, and fragmented with {1, k} probe x {1, k} build
    fragments -- match the nested-loop oracle in order.  The fragmented
    join builds exactly one index on a code-space arm and none on the
    sorted arm, which partitions (and spills, when forced) instead."""
    from repro.monet import bbp

    if spill:
        tuning_override(join_spill=0)
        monkeypatch.setattr(fr, "JOIN_PARTITION_MIN_BUNS", 1)
    rng = np.random.default_rng(sum(map(ord, name + shape)))
    keys = _span_build_keys(rng, name, shape)
    arm = _SPAN_SHAPES[shape]
    right = BAT(Column(name, keys), Column("int", np.arange(len(keys), dtype=np.int64)))
    assert kernel.build_match_index([right.head]).arm == arm
    builds = [
        right,
        FragmentedBAT([right], policy=FragmentationPolicy(target_size=max(1, len(keys)))),
        _fragment(right, "ragged"),
    ]
    assert kernel.build_match_index([frag.head for frag in builds[2].fragments]).arm == arm
    built, spilled = [], []
    real_build, real_spill = kernel.build_match_index, bbp.write_spill_unit
    monkeypatch.setattr(
        kernel, "build_match_index",
        lambda *args: built.append(real_build(*args).arm) or real_build(*args),
    )
    monkeypatch.setattr(
        bbp, "write_spill_unit", lambda *a, **k: spilled.append(1) or real_spill(*a, **k)
    )
    for probe_column in _span_probes(rng, name, keys):
        built.clear(), spilled.clear()
        left = BAT(VoidColumn(0, len(probe_column)), probe_column)
        pairs, right_pairs = _raw_pairs(left), _raw_pairs(right)
        probes = [
            FragmentedBAT([left], policy=FragmentationPolicy(target_size=len(left))),
            _fragment(left, "range"),
        ]
        joined = [fr.join(fb, build) for fb in probes for build in builds]
        outer = [fr.outerjoin(fb, build) for fb in probes for build in builds]
        expected_builds = ["span"] if arm == "span" else []
        assert built == expected_builds * 2 * len(joined)
        assert bool(spilled) == (spill and arm == "sorted")
        _check_op(kernel.join(left, right), _ref_join(pairs, right_pairs), joined)
        _check_op(
            kernel.outerjoin(left, right),
            _ref_outerjoin(pairs, right_pairs, atom("int").nil),
            outer,
        )


@pytest.mark.parametrize(
    "keys,arm",
    [
        ([3.0, np.nan, 5.0, 3.0, 4.0], "span"),
        ([3.0, 4.5, 5.0], "sorted"),
        ([3.0, np.inf, 4.0], "sorted"),
        ([-np.inf, 3.0, 4.0], "sorted"),
    ],
    ids=["integral", "fractional", "inf", "neg_inf"],
)
def test_dbl_build_arms(keys, arm):
    """A dbl build takes the span arm only when every non-NIL key is a
    finite integral value; int and dbl probes (``x.5``, NaN, +-inf)
    match the nested loop on either arm, against a monolithic and a
    fragmented build."""
    right = BAT(Column("dbl", np.array(keys)), Column("int", np.arange(len(keys))))
    assert kernel.build_match_index([right.head]).arm == arm
    int_probes = np.array([3, 4, 5, np.iinfo(np.int64).min, 6, 3], dtype=np.int64)
    for left in (
        BAT(VoidColumn(0, 6), Column("int", int_probes)),
        BAT(VoidColumn(0, 6), Column("dbl", np.array([3.0, 4.5, np.nan, np.inf, 5.0, -np.inf]))),
    ):
        _check_join(left, right)
        _check_op(
            kernel.join(left, right),
            _ref_join(_raw_pairs(left), _raw_pairs(right)),
            [fr.join(_fragment(left, s), _fragment(right, s)) for s in STRATEGIES],
        )


@pytest.mark.parametrize("m", [1000, 64_000])
def test_frag_relational_shapes_share_one_span_index(m, monkeypatch):
    """The benchmark's two value joins -- 320 000 oid probes in five
    fragments into a permutation of 0..m-1 (m = 1 000 and 64 000) --
    run the span arm over one shared index, BUN-identical to the
    monolithic kernel."""
    rng = np.random.default_rng(m)
    n = 320_000
    probe = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, m, n)))
    build = BAT(Column("oid", rng.permutation(m)), Column("dbl", rng.random(m)))
    policy = FragmentationPolicy(target_size=65_536)
    fprobe, fbuild = fragment_bat(probe, policy), fragment_bat(build, policy)
    assert fprobe.nfragments == 5
    built = []
    real_build = kernel.build_match_index
    monkeypatch.setattr(
        kernel, "build_match_index",
        lambda *args: built.append(real_build(*args).arm) or real_build(*args),
    )
    got = fr.join(fprobe, fbuild).to_bat()
    assert built == ["span"]
    expected = kernel.join(probe, build)
    assert np.array_equal(got.head_values(), expected.head_values())
    assert np.array_equal(got.tail_values(), expected.tail_values())


def test_fragmented_bat_requires_fragments_and_tolerates_empty_ones():
    """The >=1-fragment constructor invariant that _probe_dtype leans
    on, plus the degenerate case it guards: a fragmentation whose only
    fragment has zero BUNs must still probe (join/topn/group) safely."""
    from repro.monet.errors import KernelError as KE

    with pytest.raises(KE):
        FragmentedBAT([])
    empty = BAT(VoidColumn(0, 0), Column("int", np.empty(0, dtype=np.int64)))
    fb = fragment_bat(empty, FragmentationPolicy(target_size=4))
    assert fb.nfragments == 1 and len(fb.fragments[0]) == 0
    right = BAT(
        Column("int", np.array([1, 2], dtype=np.int64)),
        Column("int", np.array([10, 20], dtype=np.int64)),
    )
    assert fr.join(fb, right).to_bat().to_pairs() == []
    assert fr.topn(fb, 3).to_pairs() == []
    assert _ROWS.group(fb).to_bat().to_pairs() == []
    sempty = BAT(VoidColumn(0, 0), column_from_values("str", np.empty(0, dtype=object)))
    sfb = fragment_bat(sempty, FragmentationPolicy(target_size=4))
    sright = BAT(
        column_from_values("str", np.array(["a"], dtype=object)),
        Column("int", np.array([1], dtype=np.int64)),
    )
    assert fr.join(sfb, sright).to_bat().to_pairs() == []
    assert fr.topn(sfb, 2).to_pairs() == []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fetchjoin_fragmented_dense_right(strategy, monkeypatch):
    """A fragmented dense right operand routes by seqbase windows (no
    coalesce, no join index), ragged windows (empty and 1-BUN)
    included -- for ``join`` also when the heads are materialized but
    proven dense (:attr:`BAT.hseqbase`), as in ``kernel.join``; one
    whose windows are not contiguous coalesces and keeps the monolithic
    error behaviour, and ``fetchjoin`` still insists on void heads."""
    rng = np.random.default_rng(55)
    n = 160
    left = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, 90, n)))
    dense = BAT(VoidColumn(10, 60), Column("dbl", np.round(rng.random(60), 3)))
    materialized = BAT(
        Column("oid", dense.head_values()), dense.tail, hsorted=True, hkey=True
    )
    expected = kernel.fetchjoin(left, dense)
    assert_pairs_equal(kernel.join(left, materialized), _raw_pairs(expected))
    fleft = _fragment(left, strategy)
    fdense, fmaterialized = (
        fragment_layout(right, strategy, FragmentationPolicy(target_size=16))
        for right in (dense, materialized)
    )
    # FragmentedBAT uses __slots__, so the no-coalesce tripwire patches
    # the class; undo before coalescing the *results* for comparison.
    monkeypatch.setattr(
        fr.FragmentedBAT,
        "to_bat",
        lambda self: (_ for _ in ()).throw(AssertionError("coalesced")),
    )
    monkeypatch.setattr(
        fr, "_grace_matches", lambda *_: (_ for _ in ()).throw(AssertionError("indexed"))
    )
    results = (
        fr.fetchjoin(fleft, fdense),
        fr.join(fleft, fdense),
        fr.join(fleft, fmaterialized),
    )
    monkeypatch.undo()
    for result in results:
        assert_pairs_equal(result.to_bat(), _raw_pairs(expected))
    with pytest.raises(KernelError):
        fr.fetchjoin(fleft, fmaterialized)
    # Void windows with a gap between them are not one dense head.
    gapped = FragmentedBAT([fdense.fragments[0], fdense.fragments[-1]])
    with pytest.raises(KernelError):
        fr.fetchjoin(fleft, gapped)


# ----------------------------------------------------------------------
# The str code space: one key space across fragments, whatever heaps
# the fragments hold
# ----------------------------------------------------------------------


def _str_ops(m, group_fn, refine_fn, reverse):
    """Every operator that reads a str column through its codes (or the
    ranks of its codes), over ``m`` -- the kernel or the fragment
    module -- on a [str, int] BAT ``b`` and a str-headed partner ``r``."""
    return {
        "sort": lambda b, r: m.sort(b),
        "tsort": lambda b, r: m.tsort(reverse(b)),
        "topn": lambda b, r: m.topn(reverse(b), 9),
        "topn-asc": lambda b, r: m.topn(reverse(b), 9, descending=False),
        "unique": lambda b, r: m.unique(b),
        "kunique": lambda b, r: m.kunique(b),
        "tunique": lambda b, r: m.tunique(reverse(b)),
        "group": lambda b, r: group_fn(reverse(b)),
        "refine": lambda b, r: refine_fn(group_fn(b), reverse(b)),
        "select-range": lambda b, r: m.select(reverse(b), "b", "d"),
        "select-eq": lambda b, r: m.select(reverse(b), "cat"),
        "select-nil": lambda b, r: m.select(reverse(b), None),
        "uselect": lambda b, r: m.uselect(reverse(b), "bat", "cat"),
        "likeselect": lambda b, r: m.likeselect(reverse(b), "a"),
        "semijoin": lambda b, r: m.semijoin(b, r),
        "kdiff": lambda b, r: m.kdiff(b, r),
        "kintersect": lambda b, r: m.kintersect(b, r),
        "kunion": lambda b, r: m.kunion(b, r),
    }


def _recoded(fb: FragmentedBAT) -> FragmentedBAT:
    """*fb* with every fragment's str head a fresh column, encoded on
    a heap of its own."""
    fragments = [
        BAT(column_from_values("str", frag.head.materialize()), frag.tail)
        for frag in fb.fragments
    ]
    return FragmentedBAT(fragments, policy=fb.policy)


def _str_states(seed: int, strategy: str):
    """The same [str, int] operand and partner in three heap states, as
    (state, monolithic, partner, fragmented, fragmented partner):
    ``shared`` (windows of one column, and a partner gathered from it:
    one heap), ``gathered`` (a gather of a column whose heap holds a
    value the operand lacks and numbers the rest in reverse) and
    ``disjoint`` (every fragment on a heap of its own, numbering its
    values by its own first appearance)."""
    rng = np.random.default_rng(3300 + seed)
    n = int(rng.choice([0, 1, 5, 40, 120]))
    source = _headed_bat(rng, "str", n)
    values = source.head.materialize().tolist()
    partner_positions = rng.permutation(n)[: n // 2]

    def operands(column):
        bat = BAT(column, source.tail)
        return bat, bat.take_positions(partner_positions)

    bat, partner = operands(column_from_values("str", values))
    fb, fb_partner = _fragment(bat, strategy), _fragment(partner, strategy)
    for frag in fb.fragments + fb_partner.fragments:
        assert frag.head.heap is bat.head.heap
    yield "shared", bat, partner, fb, fb_partner
    parent = column_from_values("str", ["only in the parent", *values[::-1]])
    bat, partner = operands(parent.take(np.arange(n, 0, -1)))
    yield "gathered", bat, partner, _fragment(bat, strategy), _fragment(partner, strategy)
    bat, partner = operands(column_from_values("str", values))
    fb = _recoded(_fragment(bat, strategy))
    if fb.nfragments > 1:
        assert len({id(f.head.heap) for f in fb.fragments}) == fb.nfragments
    yield "disjoint", bat, partner, fb, _recoded(_fragment(partner, strategy))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(20))
def test_str_code_space_dictionary_states(seed, strategy):
    """Shared, gathered and disjoint heaps give BUN-identical results
    for every operator reading a str column through its codes,
    monolithic (twice) and fragmented alike."""
    from repro.monet.groups import refine

    mono_ops = _str_ops(kernel, group, refine, lambda b: b.reverse())
    frag_ops = _str_ops(_ROWS, _ROWS.group, _ROWS.refine, fr.reverse)
    for name, mono_op in mono_ops.items():
        reference = None
        for state, bat, partner, fb, fb_partner in _str_states(seed, strategy):
            fragmented = frag_ops[name](fb, fb_partner)
            if isinstance(fragmented, FragmentedBAT):
                for fragment in fragmented.fragments:
                    assert_flags_sound(fragment)
                fragmented = fragmented.to_bat()
            for result in (fragmented, mono_op(bat, partner), mono_op(bat, partner)):
                assert_flags_sound(result)
                if reference is None:
                    reference = _raw_pairs(result)
                try:
                    assert_pairs_equal(result, reference)
                except AssertionError as exc:
                    raise AssertionError(f"{name} [{state}]: {exc}") from None


# ----------------------------------------------------------------------
# Str payloads in code space: fragmented gathers carry the codes
# ----------------------------------------------------------------------

#: NIL-heavy str payloads hold the values the string heap keeps apart
#: from NIL and from each other: the empty string, a NUL-led
#: ``"\x00NIL"``, a lone surrogate, a non-BMP and a non-ASCII word.
_PAYLOAD_WORDS = ("ape", "bat", "", "\x00NIL", "\ud800x", "\U0001f600", "caf\xe9")
#: Heap states of a fragmented str payload (the ids are stable test
#: ids): ``shared`` windows of one column, ``disjoint`` fragments each on
#: a heap of its own, ``cold`` a first fragment plus appended deltas,
#: whose values the appends numbered into its heap after the first
#: fragment was cut.
_PAYLOAD_STATES = ("shared", "disjoint", "cold")


def _payload_words(rng, n: int) -> np.ndarray:
    values = np.empty(n, dtype=object)
    for i in range(n):
        values[i] = None if rng.random() < 0.3 else str(rng.choice(_PAYLOAD_WORDS))
    return values


def _payload_layout(head, values: np.ndarray, state: str, target: int) -> FragmentedBAT:
    """A [head, str] operand over *values* in fragments of *target*
    BUNs, its str column in one heap state (:data:`_PAYLOAD_STATES`)."""
    policy = FragmentationPolicy(target_size=target)
    if state == "shared":
        return fragment_bat(BAT(head, column_from_values("str", values)), policy)
    if state == "disjoint":
        return FragmentedBAT(
            [
                BAT(
                    head.window(lo, min(lo + target, len(values))),
                    column_from_values("str", values[lo: lo + target]),
                )
                for lo in range(0, len(values), target)
            ],
            policy=policy,
        )
    first = BAT(head.window(0, min(target, len(values))), column_from_values("str", values[:target]))
    fb = FragmentedBAT([first], policy=policy)
    for lo in range(target, len(values), target):
        chunk = values[lo: lo + target].tolist()
        if head.is_void:
            fb = fb.append(tails=chunk)
        else:
            fb = fb.append(list(zip(head.materialize()[lo: lo + target].tolist(), chunk)))
    return fb


def _payload_case(op: str, rng, state: str, target: int, held: bool):
    """(monolithic result, fragmented result, which side is str, the
    fragmented str operand's fragments) of one gather-carrying operator
    over a str operand in *state*; a join's right operand is named, as
    the pool names what it holds, when *held*."""
    m = 40
    values = _payload_words(rng, m)
    if op.startswith("fetchjoin"):
        right = BAT(VoidColumn(3, m), column_from_values("str", values.copy()))
        if op == "fetchjoin":
            targets = rng.integers(0, m + 6, 90).astype(np.int64)
            targets[rng.random(90) < 0.1] = atom("oid").nil
            probe = BAT(VoidColumn(0, 90), Column("oid", targets))
        else:  # a void probe tail: a run, partly past the right's end
            probe = BAT(VoidColumn(0, 50), VoidColumn(10, 50))
        fright = _payload_layout(right.head, values, state, target)
        fright.name = "payload" if held else None
        result = fr.fetchjoin(_fragment(probe, "ragged"), fright)
        return kernel.fetchjoin(probe, right), result, "tail", fright.fragments
    if op.startswith(("join", "outerjoin")):
        spread = 1000 if op.endswith(("radix", "spill")) else 1
        keys = Column("int", rng.integers(0, 15, m).astype(np.int64) * spread)
        probes = rng.integers(0, 20, 90).astype(np.int64) * spread
        probes[rng.random(90) < 0.2] = atom("int").nil
        probe = BAT(VoidColumn(0, 90), Column("int", probes))
        right = BAT(keys, column_from_values("str", values.copy()))
        fright = _payload_layout(keys, values, state, target)
        fright.name = "payload" if held else None
        kernel_op, frag_op = (
            (kernel.join, fr.join) if op.startswith("join") else (kernel.outerjoin, fr.outerjoin)
        )
        result = frag_op(_fragment(probe, "range"), fright)
        return kernel_op(probe, right), result, "tail", fright.fragments
    heads = Column("int", rng.integers(0, 12, m).astype(np.int64))
    fb = _payload_layout(heads, values, state, target)
    mono = BAT(heads, column_from_values("str", values.copy()))
    if op == "sort-tail":
        return kernel.sort(mono), fr.sort(fb), "tail", fb.fragments
    assert op == "sort-head"
    reverse = fr.reverse(fb)
    return kernel.sort(mono.reverse()), fr.sort(reverse), "head", reverse.fragments


_PAYLOAD_OPS = (
    "fetchjoin", "fetchjoin-run", "join-span", "join-radix", "join-spill",
    "outerjoin-span", "outerjoin-radix", "sort-tail", "sort-head",
)


@pytest.mark.parametrize("held", [True, False], ids=["held", "intermediate"])
@pytest.mark.parametrize("layout", ["one", "many"])
@pytest.mark.parametrize("state", _PAYLOAD_STATES)
@pytest.mark.parametrize("op", _PAYLOAD_OPS)
def test_str_payload_gathers_carry_codes(
    op, state, layout, held, monkeypatch, tuning_override
):
    """fetchjoin, join, outerjoin and sort over a str payload in one
    right fragment or many, on one heap, disjoint heaps or one heap
    extended by appends, held by the pool or not: BUN-identical to the
    monolithic kernel, and every result column's codes decode to its
    values (NIL exactly at -1).  A payload on one heap gathers onto that
    heap, and no operator extends it."""
    if op == "join-spill":
        tuning_override(join_spill=0)
        monkeypatch.setattr(fr, "JOIN_PARTITION_MIN_BUNS", 1)
    rng = np.random.default_rng(4100 + _PAYLOAD_OPS.index(op))
    target = 40 if layout == "one" else 8
    expected, result, side, payload = _payload_case(op, rng, state, target, held)
    heaps = {id(getattr(frag, side).heap): len(getattr(frag, side).heap) for frag in payload}
    coalesced = result.to_bat()
    assert_pairs_equal(coalesced, _raw_pairs(expected))
    assert_flags_sound(coalesced)
    for bat in (coalesced, *result.fragments):
        assert_flags_sound(bat)
        str_column = getattr(bat, side)
        assert_codes_decode(str_column)
        if len(heaps) == 1:
            assert id(str_column.heap) in heaps, f"{op} [{state}]: gathered off its heap"
    for frag in payload:
        column = getattr(frag, side)
        assert len(column.heap) == heaps[id(column.heap)], f"{op} [{state}]: heap grew"
    if op == "fetchjoin-run" and layout == "one":
        # A run fetched from one right fragment is a window (a view) of
        # it, not a gathered copy.
        for frag in result.fragments:
            if len(frag):
                assert frag.tail.codes.base is not None, "run fetch copied"


@pytest.mark.parametrize("op", ["fetchjoin", "join"])
def test_appended_payload_gathers_warm_again(op, monkeypatch):
    """A stored multi-fragment str payload, queried, then appended to:
    the append numbers only its batch's values into the stored heap, so
    prefix and delta fragments share one heap, and the next join's
    gather spanning them carries codes on it and encodes nothing."""
    pool = BATBufferPool()
    rng = np.random.default_rng(4200)
    values = _payload_words(rng, 40)
    keys = VoidColumn(0, 40) if op == "fetchjoin" else Column("int", np.arange(40))
    stored = fragment_bat(
        BAT(keys, column_from_values("str", values)), FragmentationPolicy(target_size=8)
    )
    pool.register_fragmented("payload", stored)
    probe_atom = "oid" if op == "fetchjoin" else "int"
    probe = _fragment(
        BAT(VoidColumn(0, 60), Column(probe_atom, np.arange(60) % 48)), "range"
    )
    run, reference = (
        (fr.fetchjoin, kernel.fetchjoin) if op == "fetchjoin" else (fr.join, kernel.join)
    )
    run(probe, pool.lookup_fragments("payload"))
    encoded = []
    real_encode = StrHeap.encode
    monkeypatch.setattr(
        StrHeap, "encode", lambda heap, values: encoded.append(len(values)) or real_encode(heap, values)
    )
    batch = _payload_words(rng, 8).tolist()
    if op == "fetchjoin":
        pool.append("payload", tails=batch)
    else:
        pool.append("payload", list(zip(range(40, 48), batch)))
    assert encoded == [len(batch)]
    current = pool.lookup_fragments("payload")
    heap = stored.fragments[0].tail.heap
    assert current.nfragments > 1
    assert all(frag.tail.heap is heap for frag in current.fragments)
    result = run(probe, current)
    assert encoded == [len(batch)], "the query encoded a str column"
    monkeypatch.undo()
    expected = reference(probe.to_bat(), current.to_bat())
    assert_pairs_equal(result.to_bat(), _raw_pairs(expected))
    for frag in result.fragments:
        assert frag.tail.heap is heap, "the gather across the delta left the heap"
        assert_codes_decode(frag.tail)


def test_racing_joint_encodings_settle_on_one_dictionary():
    """Threads appending overlapping new values into one shared heap at
    once leave it holding each value once, and every column they built
    decodes to its values: the check for a value and its numbering are
    one critical section under the heap's lock.  A tiny switch interval
    interleaves the appends often enough to show a duplicate without
    the lock."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            heap = column_from_values("str", ["w0", None]).heap
            batches = [[f"w{j % 5}", None, f"v{j % 16}"] * 50 for j in range(64)]
            columns: list = [None] * len(batches)
            barrier = threading.Barrier(4)

            def append(worker: int):
                barrier.wait()
                for index in range(worker, len(batches), 4):
                    columns[index] = column_from_values("str", batches[index], heap)

            threads = [threading.Thread(target=append, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(heap) == 5 + 16
            assert sorted(heap.index.values()) == list(range(len(heap)))
            for column, batch in zip(columns, batches):
                assert column.heap is heap
                assert column.materialize().tolist() == batch
                assert_codes_decode(column)
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Str order keys: the fragmented sort gathers its str key column's codes
# ----------------------------------------------------------------------


def _str_key_layout(values: np.ndarray, state: str, target: int) -> FragmentedBAT:
    """A [void, str] operand over *values* in fragments of *target*
    BUNs, its str column ``shared`` (windows of one column),
    ``appended`` (a stored prefix beside the delta fragment an append
    leaves, on the prefix's heap) or ``cold`` (every fragment on a heap
    of its own; the id is a stable test id)."""
    policy = FragmentationPolicy(target_size=target)
    if state == "shared":
        return fragment_bat(BAT(VoidColumn(0, len(values)), column_from_values("str", values)), policy)
    if state == "cold":
        return FragmentedBAT(
            [
                BAT(VoidColumn(lo, len(values[lo: lo + target])), column_from_values("str", values[lo: lo + target]))
                for lo in range(0, len(values), target)
            ],
            policy=policy,
        )
    split = len(values) - len(values) // 4
    prefix = column_from_values("str", values[:split])
    stored = fragment_bat(BAT(VoidColumn(0, split), prefix), policy)
    return stored.append(tails=values[split:].tolist())


@pytest.mark.parametrize("layout", ["one", "many"])
@pytest.mark.parametrize("state", ["cold", "shared", "appended"])
@pytest.mark.parametrize("op", ["sort", "tsort"])
def test_str_key_order_gathers_warm(op, state, layout):
    """sort over a str head and tsort over a str tail, in one fragment
    or many, on one heap, on a prefix's heap extended by an append, or
    on a heap per fragment: BUN-identical to the kernel, and the ordered
    str column of the result and of every output fragment carries
    codes decoding to its values -- on the operand's heap when it has
    one, so the next keyed operator translates nothing."""
    rng = np.random.default_rng(4300)
    values = _payload_words(rng, 48)
    fb = _str_key_layout(values, state, 64 if layout == "one" else 8)
    assert (fb.nfragments > 1) == (layout == "many")
    heaps = {id(frag.tail.heap) for frag in fb.fragments}
    assert (len(heaps) == 1) == (state != "cold" or layout == "one")
    mono = BAT(VoidColumn(0, len(values)), column_from_values("str", values.copy()))
    if op == "sort":
        expected, result, side = kernel.sort(mono.reverse()), fr.sort(fr.reverse(fb)), "head"
    else:
        expected, result, side = kernel.tsort(mono), fr.tsort(fb), "tail"
    coalesced = result.to_bat()
    assert_pairs_equal(coalesced, _raw_pairs(expected))
    for bat in (coalesced, *result.fragments):
        assert_flags_sound(bat)
        keys = getattr(bat, side)
        if len(heaps) == 1:
            assert id(keys.heap) in heaps, f"{op} [{state}, {layout}]: ordered keys off the heap"
        assert_codes_decode(keys, f"{op} [{state}, {layout}]")
