"""Property-based tests: BAT operators vs naive Python models.

Each kernel operator is checked against a straightforward Python
implementation of its algebraic definition on random BUN lists --
the contract the Moa compiler relies on.  The str section is the
oracle for the code space: monolithic and fragmented execution both
read a str column through its dictionary codes, so a mono-vs-frag
differential alone could not catch a wrong code or rank.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.monet import kernel
from repro.monet.atoms import INT_NIL, OID_NIL
from repro.monet.bat import bat_from_pairs
from repro.monet.groups import group, group_sizes
from repro.monet.aggregates import grouped_sum

_small_int = st.integers(min_value=-20, max_value=20)
_oid = st.integers(min_value=0, max_value=30)

_pairs_int = st.lists(st.tuples(_oid, _small_int), max_size=40)
_pairs_str = st.lists(
    st.tuples(_oid, st.sampled_from(["a", "b", "c", "d", "e"])), max_size=40
)


@given(_pairs_int, _small_int)
def test_select_matches_filter(pairs, needle):
    bat = bat_from_pairs("oid", "int", pairs)
    expected = [(h, t) for h, t in pairs if t == needle]
    assert kernel.select(bat, needle).to_pairs() == expected


@given(_pairs_int, _small_int, _small_int)
def test_range_select_matches_filter(pairs, low, high):
    lo, hi = min(low, high), max(low, high)
    bat = bat_from_pairs("oid", "int", pairs)
    expected = [(h, t) for h, t in pairs if lo <= t <= hi]
    assert kernel.select(bat, lo, hi).to_pairs() == expected


@given(_pairs_str, _pairs_str)
def test_join_matches_nested_loop(left_pairs, right_pairs):
    left = bat_from_pairs("oid", "str", left_pairs)
    right = bat_from_pairs("str", "oid", [(t, h) for h, t in right_pairs])
    expected = [
        (lh, rt)
        for lh, lt in left_pairs
        for rt2, rt in [(t, h) for h, t in right_pairs]
        if lt == rt2
    ]
    # Order-sensitive: left BUN order, then right BUN order per probe.
    assert kernel.join(left, right).to_pairs() == expected


@pytest.mark.parametrize("atom", ["str", "int"])
@pytest.mark.parametrize("run", [kernel._SLICE_RUN - 1, kernel._SLICE_RUN])
def test_join_with_long_runs_matches_nested_loop(atom, run):
    """A few probes, each matching a run of build BUNs just below and
    at the length from which the matcher copies runs as slices: the
    nested loop's pairs, in its order (a str build in its own heap
    probes its held index; int keys take the span arm)."""
    values = ["a", "b", "c"] if atom == "str" else [3, 1, 2]
    rng = np.random.default_rng(run)
    build = [values[i] for i in rng.permutation(np.repeat([0, 1, 2], run))]
    probe = [values[2], values[0], None if atom == "str" else 99, values[1], values[2]]
    left = bat_from_pairs("oid", atom, list(enumerate(probe)))
    right = bat_from_pairs(atom, "oid", [(v, h) for h, v in enumerate(build)])
    expected = [
        (lh, rh)
        for lh, lv in enumerate(probe)
        for rh, rv in enumerate(build)
        if lv is not None and lv == rv
    ]
    assert kernel.join(left, right).to_pairs() == expected


@given(_pairs_int, _pairs_int)
def test_semijoin_matches_membership(left_pairs, right_pairs):
    left = bat_from_pairs("oid", "int", left_pairs)
    right = bat_from_pairs("oid", "int", right_pairs)
    members = {h for h, _ in right_pairs}
    expected = [(h, t) for h, t in left_pairs if h in members]
    assert kernel.semijoin(left, right).to_pairs() == expected


@given(_pairs_int, _pairs_int)
def test_kdiff_is_complement_of_semijoin(left_pairs, right_pairs):
    left = bat_from_pairs("oid", "int", left_pairs)
    right = bat_from_pairs("oid", "int", right_pairs)
    semi = kernel.semijoin(left, right).to_pairs()
    diff = kernel.kdiff(left, right).to_pairs()
    assert sorted(semi + diff) == sorted(left_pairs)


@given(_pairs_int)
def test_reverse_involution(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    assert bat.reverse().reverse().to_pairs() == pairs


@given(_pairs_int)
def test_mark_produces_dense_tail(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    marked = kernel.mark(bat, 7)
    assert [t for _, t in marked.to_pairs()] == list(
        range(7, 7 + len(pairs))
    )
    assert [h for h, _ in marked.to_pairs()] == [h for h, _ in pairs]


@given(_pairs_int)
def test_sort_is_sorted_and_permutation(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    result = kernel.sort(bat).to_pairs()
    assert sorted(result) == sorted(pairs)
    heads = [h for h, _ in result]
    assert heads == sorted(heads)


@given(_pairs_int)
def test_unique_removes_exact_duplicates(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    result = kernel.unique(bat).to_pairs()
    assert len(result) == len(set(pairs))
    assert set(result) == set(pairs)


@given(_pairs_int)
def test_kunique_one_bun_per_head(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    result = kernel.kunique(bat).to_pairs()
    heads = [h for h, _ in result]
    assert len(heads) == len(set(heads)) == len({h for h, _ in pairs})
    first_per_head = {}
    for h, t in pairs:
        first_per_head.setdefault(h, t)
    assert dict(result) == first_per_head


@given(_pairs_int, _pairs_int)
def test_kunion_heads_are_union(left_pairs, right_pairs):
    left = bat_from_pairs("oid", "int", left_pairs)
    right = bat_from_pairs("oid", "int", right_pairs)
    result = kernel.kunion(left, right)
    expected_heads = {h for h, _ in left_pairs} | {h for h, _ in right_pairs}
    assert set(result.head_list()) == expected_heads


@given(st.lists(st.sampled_from(["x", "y", "z", "w"]), max_size=30))
def test_group_ids_dense_and_consistent(values):
    from repro.monet.bat import dense_bat

    bat = dense_bat("str", values)
    grouping = group(bat)
    ids = grouping.tail_list()
    # Same value <=> same id.
    seen = {}
    for value, gid in zip(values, ids):
        assert seen.setdefault(value, gid) == gid
    # Ids are dense, first-appearance ordered.
    if ids:
        assert sorted(set(ids)) == list(range(max(ids) + 1))
        first_ids = list(dict.fromkeys(ids))
        assert first_ids == sorted(first_ids)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_grouped_sum_matches_python(group_values):
    from repro.monet.bat import dense_bat

    groups = [g for g, _ in group_values]
    values = [v for _, v in group_values]
    if not group_values:
        return
    n_groups = max(groups) + 1
    gb = dense_bat("oid", groups)
    vb = dense_bat("dbl", values)
    result = grouped_sum(vb, gb, n_groups).tail_list()
    expected = [0.0] * n_groups
    for g, v in group_values:
        expected[g] += v
    assert len(result) == n_groups
    for got, want in zip(result, expected):
        assert abs(got - want) < 1e-9


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
def test_group_sizes_total(values):
    from repro.monet.bat import dense_bat

    grouping = group(dense_bat("str", values))
    sizes = group_sizes(grouping).tail_list()
    assert sum(sizes) == len(values)


# ----------------------------------------------------------------------
# stable_order: packed (key - lo) << b | position words where the span
# fits, the stable argsort elsewhere.  The model is the stable argsort
# itself; the boundary cases sit one below and at the packing limit
# 2**(63 - b), b the bits of the largest position.
# ----------------------------------------------------------------------

_int64 = st.integers(min_value=INT_NIL, max_value=OID_NIL)


def _packing_limit(n: int) -> int:
    return 1 << (63 - (n - 1).bit_length())


@st.composite
def _order_keys(draw):
    """int64 keys: duplicates, negatives, NIL sentinels, empty, single
    and all-equal arrays, and spans at exactly the packing limit or one
    below it."""
    shape = draw(st.sampled_from(["small", "any", "nil", "equal", "boundary"]))
    if shape == "boundary":
        n = draw(st.integers(min_value=2, max_value=40))
        span = _packing_limit(n) - draw(st.sampled_from([0, 1]))
        lo = draw(st.integers(min_value=INT_NIL, max_value=OID_NIL - span))
        fill = st.sampled_from([lo, lo + span]) | st.integers(lo, lo + span)
        rest = draw(st.lists(fill, min_size=n - 2, max_size=n - 2))
        keys = draw(st.permutations([lo, lo + span, *rest]))
    elif shape == "equal":
        keys = [draw(_int64)] * draw(st.integers(min_value=0, max_value=40))
    else:
        element = {
            "small": _small_int,
            "any": _int64,
            "nil": _small_int | st.sampled_from([INT_NIL, OID_NIL]),
        }[shape]
        keys = draw(st.lists(element, max_size=40))
    return np.array(keys, dtype=np.int64)


@given(_order_keys())
def test_stable_order_is_the_stable_argsort(keys):
    assert np.array_equal(
        kernel.stable_order(keys), np.argsort(keys, kind="stable")
    )


@pytest.mark.parametrize("n", [2, 3, 64, 65, 1000])
@pytest.mark.parametrize("below, packs", [(1, True), (0, False)])
def test_stable_order_packs_exactly_below_the_limit(n, below, packs, monkeypatch):
    """A span one below the limit packs (no argsort runs); a span at
    the limit falls back -- its top word would wrap past int64.  The
    low key is the int NIL sentinel, the least int64."""
    span = _packing_limit(n) - below
    rng = np.random.default_rng(n)
    offsets = [0, span, *rng.integers(0, 2, n - 2) * span]
    keys = np.array([INT_NIL + int(o) for o in rng.permutation(offsets)])
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda *a, **k: calls.append(k) or argsort(*a, **k)
    )
    got = kernel.stable_order(keys)
    monkeypatch.undo()
    assert np.array_equal(got, np.argsort(keys, kind="stable"))
    assert bool(calls) != packs


@pytest.mark.parametrize(
    "keys",
    [
        # bit: its NIL -1, and the int8 extremes (a span past int8).
        np.array([1, -1, 0, 127, -128, 1, -1, 0, -128], dtype=np.int8),
        # dbl falls back: NaN last, -0.0 ties with 0.0.
        np.array([0.0, -0.0, np.nan, 1.5, -0.0, np.nan, 0.0, -2.5]),
    ],
    ids=["bit", "dbl"],
)
def test_stable_order_other_keys(keys):
    assert np.array_equal(
        kernel.stable_order(keys), np.argsort(keys, kind="stable")
    )


# ----------------------------------------------------------------------
# str: every operator reads a str column through its dictionary codes
# (identity, comparison) or the rank of a code (order).  The models
# below compare plain Python strings instead, NIL as None: it equals
# nothing under comparison, is one value under identity, and sorts
# above every string.
# ----------------------------------------------------------------------

_str_value = st.one_of(
    st.none(),
    st.sampled_from(["", "a", "ab", "abc", "b", "ba", "Z", "é", "éa", "日本", "日"]),
    st.text(alphabet="abzé日", max_size=3),
)
_str_tails = st.lists(st.tuples(_oid, _str_value), max_size=40)
_str_heads = st.lists(st.tuples(_str_value, _small_int), max_size=40)


def _str_rank(values):
    """Model rank of every value: sorted distinct strings, NIL above."""
    distinct = sorted({v for v in values if v is not None})
    rank = {v: i for i, v in enumerate(distinct)}
    return lambda v: len(distinct) if v is None else rank[v]


def _first_per(pairs, key):
    seen, out = set(), []
    for pair in pairs:
        if key(pair) not in seen:
            seen.add(key(pair))
            out.append(pair)
    return out


@given(_str_heads)
def test_str_sort_is_stable_by_value_nil_last(pairs):
    rank = _str_rank([h for h, _ in pairs])
    expected = sorted(pairs, key=lambda p: rank(p[0]))
    assert kernel.sort(bat_from_pairs("str", "int", pairs)).to_pairs() == expected


@given(_str_tails)
def test_str_tsort_is_stable_by_value_nil_last(pairs):
    rank = _str_rank([t for _, t in pairs])
    expected = sorted(pairs, key=lambda p: rank(p[1]))
    assert kernel.tsort(bat_from_pairs("oid", "str", pairs)).to_pairs() == expected


@given(_str_tails, st.integers(min_value=0, max_value=45), st.booleans())
def test_str_topn_ties_earliest_first(pairs, n, descending):
    rank = _str_rank([t for _, t in pairs])
    sign = -1 if descending else 1
    order = sorted(range(len(pairs)), key=lambda i: (sign * rank(pairs[i][1]), i))
    expected = [pairs[i] for i in order[:n]]
    bat = bat_from_pairs("oid", "str", pairs)
    assert kernel.topn(bat, n, descending=descending).to_pairs() == expected


@given(_str_heads)
def test_str_unique_and_kunique_first_wins(pairs):
    bat = bat_from_pairs("str", "int", pairs)
    assert kernel.unique(bat).to_pairs() == _first_per(pairs, lambda p: p)
    assert kernel.kunique(bat).to_pairs() == _first_per(pairs, lambda p: p[0])
    tails = [(position, h) for position, (h, _) in enumerate(pairs)]
    assert kernel.tunique(bat_from_pairs("oid", "str", tails)).to_pairs() == (
        _first_per(tails, lambda p: p[1])
    )


@given(_str_tails)
def test_str_group_and_refine_by_first_appearance(pairs):
    from repro.monet.groups import refine

    bat = bat_from_pairs("oid", "str", pairs)
    ids = {}
    expected = [ids.setdefault(t, len(ids)) for _, t in pairs]
    grouping = group(bat)
    assert grouping.tail_list() == expected
    # Refine a grouping by first letter with the whole value.
    first_letters = [(h, t and t[:1]) for h, t in pairs]
    refined = refine(group(bat_from_pairs("oid", "str", first_letters)), bat)
    pair_ids = {}
    assert refined.tail_list() == [
        pair_ids.setdefault((t and t[:1], t), len(pair_ids)) for _, t in pairs
    ]


@given(_str_tails, _str_value, _str_value, st.booleans(), st.booleans())
def test_str_range_select_matches_filter(pairs, low, high, include_low, include_high):
    bat = bat_from_pairs("oid", "str", pairs)

    def inside(t):
        if t is None:
            return False
        if low is not None and not (t >= low if include_low else t > low):
            return False
        return high is None or (t <= high if include_high else t < high)

    got = kernel.select(
        bat, low, high, include_low=include_low, include_high=include_high
    )
    assert got.to_pairs() == [(h, t) for h, t in pairs if inside(t)]


@given(_str_tails, _str_value)
def test_str_equality_select_and_like_match_filter(pairs, needle):
    bat = bat_from_pairs("oid", "str", pairs)
    # NIL equals nothing, a NIL needle included.
    assert kernel.select(bat, needle).to_pairs() == [
        (h, t) for h, t in pairs if needle is not None and t == needle
    ]
    assert kernel.uselect(bat, needle).head_list() == [
        h for h, t in pairs if needle is not None and t == needle
    ]
    pattern = needle or ""
    assert kernel.likeselect(bat, pattern).to_pairs() == [
        (h, t) for h, t in pairs if t is not None and pattern in t
    ]


@given(_str_heads, _str_heads)
def test_str_semijoin_kdiff_kintersect_kunion_membership(left_pairs, right_pairs):
    left = bat_from_pairs("str", "int", left_pairs)
    right = bat_from_pairs("str", "int", right_pairs)
    heads = {h for h, _ in right_pairs}
    # Comparison rule: a NIL head is never a member.
    assert kernel.semijoin(left, right).to_pairs() == [
        (h, t) for h, t in left_pairs if h is not None and h in heads
    ]
    assert kernel.kdiff(left, right).to_pairs() == [
        (h, t) for h, t in left_pairs if h is None or h not in heads
    ]
    # Identity rule: NIL is one value, a member of a NIL-holding set.
    assert kernel.kintersect(left, right).to_pairs() == [
        (h, t) for h, t in left_pairs if h in heads
    ]
    left_heads = {h for h, _ in left_pairs}
    assert kernel.kunion(left, right).to_pairs() == left_pairs + [
        (h, t) for h, t in right_pairs if h not in left_heads
    ]
