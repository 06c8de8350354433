"""Kernel operators: selections, the join family, reconstruction, sets."""

import math

import numpy as np
import pytest

from repro.monet import kernel
from repro.monet.bat import BAT, Column, bat_from_pairs, dense_bat, empty_bat
from repro.monet.errors import KernelError


def _nil_key(value):
    """The identity rule's model key: every NIL (None, NaN) is one."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ("nil",)
    return value


class TestSelect:
    def test_equality(self):
        bat = dense_bat("int", [5, 3, 5, 9])
        assert kernel.select(bat, 5).to_pairs() == [(0, 5), (2, 5)]

    def test_equality_string(self):
        bat = dense_bat("str", ["a", "b", "a"])
        assert kernel.select(bat, "a").head_list() == [0, 2]

    def test_equality_no_match(self):
        bat = dense_bat("int", [1, 2])
        assert len(kernel.select(bat, 99)) == 0

    def test_range_inclusive(self):
        bat = dense_bat("int", [1, 5, 10, 15])
        assert kernel.select(bat, 5, 10).tail_list() == [5, 10]

    def test_range_exclusive_bounds(self):
        bat = dense_bat("int", [1, 5, 10, 15])
        result = kernel.select(bat, 5, 10, include_low=False, include_high=False)
        assert result.tail_list() == []

    def test_range_open_low(self):
        bat = dense_bat("int", [1, 5, 10])
        assert kernel.select(bat, None, 5).tail_list() == [1, 5]

    def test_range_open_high(self):
        bat = dense_bat("int", [1, 5, 10])
        assert kernel.select(bat, 5, None).tail_list() == [5, 10]

    def test_range_on_strings(self):
        bat = dense_bat("str", ["apple", "cherry", "banana"])
        assert kernel.select(bat, "apple", "banana").tail_list() == [
            "apple", "banana",
        ]

    def test_empty_input(self):
        bat = empty_bat("oid", "int")
        assert len(kernel.select(bat, 1)) == 0

    def test_uselect_produces_void_tail(self):
        bat = dense_bat("int", [5, 3, 5])
        result = kernel.uselect(bat, 5)
        assert result.head_list() == [0, 2]
        assert result.tail.is_void

    def test_likeselect(self):
        bat = dense_bat("str", ["sunset beach", "green forest", "red sunset"])
        assert kernel.likeselect(bat, "sunset").head_list() == [0, 2]

    def test_likeselect_requires_str(self):
        with pytest.raises(KernelError):
            kernel.likeselect(dense_bat("int", [1]), "x")

    def test_str_gather_reads_only_its_own_values(self):
        """A gather of a str column keeps the column's heap, yet a
        predicate sees each distinct value the gather uses once --
        never the rest of the heap -- and NIL never qualifies."""
        bat = dense_bat("str", [f"v{i}" for i in range(1000)] + [None])
        small = bat.take_positions(np.array([7, 3, 7, 1000, 3]))
        assert small.tail.heap is bat.tail.heap
        seen = []

        def evaluate(values):
            seen.append(values)
            return [value == "v7" for value in values]

        mask = kernel._str_mask(small.tail, evaluate)
        assert len(seen) == 1 and sorted(seen[0]) == ["v3", "v7"]
        assert mask.tolist() == [True, False, True, False, False]
        assert kernel.select(small, "v3", "v5").head_list() == [3, 3]
        assert kernel.likeselect(small, "7").head_list() == [7, 7]
        assert kernel.tsort(small).tail_list() == ["v3", "v3", "v7", "v7", None]


class TestJoin:
    def test_basic_join(self):
        left = bat_from_pairs("oid", "str", [(0, "a"), (1, "b"), (2, "a")])
        right = bat_from_pairs("str", "int", [("a", 10), ("b", 20)])
        assert kernel.join(left, right).to_pairs() == [
            (0, 10), (1, 20), (2, 10),
        ]

    def test_join_multiplicity(self):
        left = bat_from_pairs("oid", "int", [(0, 1)])
        right = bat_from_pairs("int", "str", [(1, "x"), (1, "y")])
        assert sorted(kernel.join(left, right).tail_list()) == ["x", "y"]

    def test_join_preserves_left_order(self):
        left = bat_from_pairs("oid", "int", [(0, 2), (1, 1), (2, 2)])
        right = bat_from_pairs("int", "str", [(1, "one"), (2, "two")])
        assert kernel.join(left, right).to_pairs() == [
            (0, "two"), (1, "one"), (2, "two"),
        ]

    def test_join_dense_right_is_fetchjoin(self):
        left = bat_from_pairs("oid", "oid", [(0, 2), (1, 0)])
        right = dense_bat("str", ["a", "b", "c"])
        assert kernel.join(left, right).to_pairs() == [(0, "c"), (1, "a")]

    def test_fetchjoin_drops_out_of_range(self):
        left = bat_from_pairs("oid", "oid", [(0, 5), (1, 1)])
        right = dense_bat("str", ["a", "b"])
        assert kernel.fetchjoin(left, right).to_pairs() == [(1, "b")]

    def test_fetchjoin_requires_dense_right(self):
        left = bat_from_pairs("oid", "int", [(0, 1)])
        right = bat_from_pairs("int", "str", [(1, "x")])
        with pytest.raises(KernelError):
            kernel.fetchjoin(left, right)

    def test_join_type_mismatch(self):
        left = bat_from_pairs("oid", "str", [(0, "a")])
        right = bat_from_pairs("int", "str", [(1, "x")])
        with pytest.raises(KernelError, match="type mismatch"):
            kernel.join(left, right)

    def test_join_empty_sides(self):
        left = empty_bat("oid", "int")
        right = bat_from_pairs("int", "str", [(1, "x")])
        assert len(kernel.join(left, right)) == 0
        assert len(kernel.join(right.reverse(), left.reverse())) == 0

    def test_outerjoin_pads_with_nil(self):
        left = bat_from_pairs("oid", "int", [(0, 1), (1, 99)])
        right = bat_from_pairs("int", "str", [(1, "one")])
        assert kernel.outerjoin(left, right).to_pairs() == [
            (0, "one"), (1, None),
        ]

    def test_outerjoin_dense_right(self):
        left = bat_from_pairs("oid", "oid", [(0, 0), (1, 7)])
        right = dense_bat("dbl", [1.5])
        assert kernel.outerjoin(left, right).to_pairs() == [(0, 1.5), (1, None)]


class TestSemijoinFamily:
    def test_semijoin(self):
        left = bat_from_pairs("oid", "str", [(0, "a"), (1, "b"), (5, "c")])
        right = bat_from_pairs("oid", "int", [(0, 9), (5, 9)])
        assert kernel.semijoin(left, right).to_pairs() == [(0, "a"), (5, "c")]

    def test_semijoin_dense_right(self):
        left = bat_from_pairs("oid", "str", [(0, "a"), (9, "b")])
        right = dense_bat("int", [1, 2, 3])
        assert kernel.semijoin(left, right).head_list() == [0]

    def test_dense_right_members_are_positions(self):
        """A dense right head holds integral values only: a dbl head of
        1.5 or NaN is no member, as against the same heads
        materialized."""
        left = bat_from_pairs("dbl", "int", [(1.5, 1), (2.0, 2), (None, 3)])
        for right in (
            dense_bat("int", [7, 8, 9, 10]),
            BAT(Column("oid", np.arange(4)), Column("int", np.arange(4))),
        ):
            assert kernel.semijoin(left, right).to_pairs() == [(2.0, 2)]
            assert kernel.kdiff(left, right).to_pairs() == [(1.5, 1), (None, 3)]

    def test_kdiff(self):
        left = bat_from_pairs("oid", "str", [(0, "a"), (1, "b")])
        right = bat_from_pairs("oid", "int", [(0, 9)])
        assert kernel.kdiff(left, right).to_pairs() == [(1, "b")]

    def test_kdiff_disjoint(self):
        left = bat_from_pairs("oid", "str", [(0, "a")])
        right = bat_from_pairs("oid", "int", [(7, 9)])
        assert kernel.kdiff(left, right).to_pairs() == [(0, "a")]

    def test_kintersect_alias(self):
        left = bat_from_pairs("oid", "str", [(0, "a"), (1, "b")])
        right = bat_from_pairs("oid", "int", [(1, 9)])
        assert kernel.kintersect(left, right).to_pairs() == [(1, "b")]

    def test_kunion_dedups_on_head(self):
        left = bat_from_pairs("oid", "str", [(0, "a")])
        right = bat_from_pairs("oid", "str", [(0, "other"), (1, "b")])
        assert kernel.kunion(left, right).to_pairs() == [(0, "a"), (1, "b")]

    def test_kunion_right_empty(self):
        left = bat_from_pairs("oid", "str", [(0, "a")])
        assert kernel.kunion(left, empty_bat("oid", "str")).to_pairs() == [
            (0, "a"),
        ]


class TestReconstruction:
    def test_mark(self):
        bat = bat_from_pairs("str", "int", [("a", 1), ("b", 2)])
        assert kernel.mark(bat, 100).to_pairs() == [("a", 100), ("b", 101)]

    def test_number(self):
        bat = bat_from_pairs("str", "int", [("a", 1), ("b", 2)])
        assert kernel.number(bat, 10).to_pairs() == [(10, 1), (11, 2)]

    def test_sort(self):
        bat = bat_from_pairs("int", "str", [(3, "c"), (1, "a"), (2, "b")])
        assert kernel.sort(bat).to_pairs() == [(1, "a"), (2, "b"), (3, "c")]

    def test_sort_stable(self):
        bat = bat_from_pairs("int", "str", [(1, "first"), (1, "second")])
        assert kernel.sort(bat).tail_list() == ["first", "second"]

    def test_sort_string_head(self):
        bat = bat_from_pairs("str", "int", [("b", 2), ("a", 1)])
        assert kernel.sort(bat).head_list() == ["a", "b"]

    def test_tsort(self):
        bat = bat_from_pairs("oid", "int", [(0, 3), (1, 1), (2, 2)])
        assert kernel.tsort(bat).tail_list() == [1, 2, 3]

    def test_unique(self):
        bat = bat_from_pairs("int", "str", [(1, "a"), (1, "a"), (2, "b")])
        assert kernel.unique(bat).to_pairs() == [(1, "a"), (2, "b")]

    def test_unique_keeps_distinct_tails(self):
        bat = bat_from_pairs("int", "str", [(1, "a"), (1, "b")])
        assert len(kernel.unique(bat)) == 2

    def test_kunique(self):
        bat = bat_from_pairs("int", "str", [(1, "a"), (1, "b"), (2, "c")])
        assert kernel.kunique(bat).to_pairs() == [(1, "a"), (2, "c")]

    def test_kunique_string_heads(self):
        bat = bat_from_pairs("str", "int", [("x", 1), ("x", 2), ("y", 3)])
        assert kernel.kunique(bat).to_pairs() == [("x", 1), ("y", 3)]

    def test_tunique(self):
        bat = bat_from_pairs("oid", "str", [(0, "a"), (1, "a"), (2, "b")])
        assert kernel.tunique(bat).to_pairs() == [(0, "a"), (2, "b")]

    def test_const_bat(self):
        base = dense_bat("int", [1, 2, 3])
        result = kernel.const_bat(base, "dbl", 0.4)
        assert result.tail_list() == [0.4, 0.4, 0.4]

    def test_topn_descending(self):
        bat = dense_bat("dbl", [0.5, 0.9, 0.1, 0.7])
        assert kernel.topn(bat, 2).tail_list() == [0.9, 0.7]

    def test_topn_ascending(self):
        bat = dense_bat("int", [5, 1, 3])
        assert kernel.topn(bat, 2, descending=False).tail_list() == [1, 3]

    def test_topn_larger_than_input(self):
        bat = dense_bat("int", [5, 1])
        assert len(kernel.topn(bat, 10)) == 2

    def test_topn_negative_rejected(self):
        with pytest.raises(KernelError):
            kernel.topn(dense_bat("int", [1]), -1)

    def test_slice_bat(self):
        bat = dense_bat("int", [10, 20, 30])
        assert kernel.slice_bat(bat, 0, 2).tail_list() == [10, 20]

    def test_exist(self):
        bat = bat_from_pairs("str", "int", [("k", 1)])
        assert kernel.exist(bat, "k")
        assert not kernel.exist(bat, "missing")


class TestNilDedup:
    """The identity rule (module docstring): unique/kunique/tunique
    treat all NILs of a column as one value, while join comparisons
    never match NIL.  Regression for NaN BUNs surviving dedup because
    NaN != NaN in the old set-of-pairs key."""

    def test_unique_collapses_nan_buns(self):
        bat = BAT(
            Column("dbl", np.array([np.nan, 1.0, np.nan, 1.0])),
            Column("int", np.array([7, 8, 7, 8], dtype=np.int64)),
        )
        assert kernel.unique(bat).to_pairs() == [(None, 7), (1.0, 8)]

    def test_unique_distinguishes_nan_pairs_by_tail(self):
        bat = BAT(
            Column("dbl", np.array([np.nan, np.nan])),
            Column("int", np.array([1, 2], dtype=np.int64)),
        )
        assert kernel.unique(bat).to_pairs() == [(None, 1), (None, 2)]

    def test_kunique_collapses_nan_heads(self):
        bat = BAT(
            Column("dbl", np.array([np.nan, 2.0, np.nan])),
            Column("int", np.array([1, 2, 3], dtype=np.int64)),
        )
        assert kernel.kunique(bat).to_pairs() == [(None, 1), (2.0, 2)]

    def test_tunique_collapses_nan_tails(self):
        bat = BAT(
            Column("int", np.array([1, 2, 3], dtype=np.int64)),
            Column("dbl", np.array([np.nan, np.nan, 5.0])),
        )
        assert kernel.tunique(bat).to_pairs() == [(1, None), (3, 5.0)]

    def test_unique_negative_zero_equals_zero(self):
        bat = BAT(
            Column("dbl", np.array([-0.0, 0.0])),
            Column("int", np.array([1, 1], dtype=np.int64)),
        )
        assert kernel.unique(bat).to_pairs() == [(0.0, 1)]

    def test_unique_vectorized_matches_first_seen_scan(self):
        rng = np.random.default_rng(3)
        heads = rng.integers(0, 6, 200).astype(np.int64)
        tails = np.round(rng.random(200) * 2, 1)
        tails[rng.random(200) < 0.2] = np.nan
        bat = BAT(Column("int", heads), Column("dbl", tails))
        seen = set()
        expected = []
        for h, t in bat.items():
            key = (_nil_key(h), _nil_key(t))
            if key not in seen:
                seen.add(key)
                expected.append((h, t))
        got = kernel.unique(bat).to_pairs()
        assert len(got) == len(expected)
        for (gh, gt), (eh, et) in zip(got, expected):
            assert gh == eh
            assert gt == et or (gt is None and et is None) or (
                isinstance(gt, float) and isinstance(et, float)
                and math.isnan(gt) and math.isnan(et)
            )

    def test_dedup_keys_orders_like_numpy(self):
        values = np.array([-np.inf, -2.5, -0.0, 0.0, 1.5, np.inf, np.nan])
        keys = kernel.dedup_keys(Column("dbl", values))
        assert list(np.argsort(keys, kind="stable")) == list(
            np.argsort(values, kind="stable")
        )


class TestSetOpNilSemantics:
    """The set operators follow the identity rule (module docstring):
    all NILs of a head column are one set element, so kunion never
    duplicates a NIL head and kintersect keeps a NIL head iff both
    sides have one.  semijoin/kdiff keep the comparison rule (NIL
    matches nothing).  Regression: kunion/kintersect previously
    inherited the comparison rule from the semijoin machinery, so a
    NaN-headed BUN was always "unseen" and unions accumulated
    duplicate NaN heads."""

    def test_kunion_does_not_duplicate_nan_heads(self):
        left = BAT(
            Column("dbl", np.array([np.nan, 1.0])),
            Column("int", np.array([10, 11], dtype=np.int64)),
        )
        right = BAT(
            Column("dbl", np.array([np.nan, 2.0])),
            Column("int", np.array([20, 21], dtype=np.int64)),
        )
        assert kernel.kunion(left, right).to_pairs() == [
            (None, 10), (1.0, 11), (2.0, 21),
        ]

    def test_kunion_appends_nan_head_when_left_has_none(self):
        left = bat_from_pairs("dbl", "int", [(1.0, 1)])
        right = BAT(
            Column("dbl", np.array([np.nan])),
            Column("int", np.array([9], dtype=np.int64)),
        )
        assert kernel.kunion(left, right).to_pairs() == [(1.0, 1), (None, 9)]

    def test_kunion_does_not_duplicate_none_heads(self):
        left = bat_from_pairs("str", "int", [(None, 1), ("a", 2)])
        right = bat_from_pairs("str", "int", [(None, 3), ("b", 4)])
        assert kernel.kunion(left, right).to_pairs() == [
            (None, 1), ("a", 2), ("b", 4),
        ]

    def test_kintersect_nan_head_matches_nan_head(self):
        left = BAT(
            Column("dbl", np.array([np.nan, 1.0, 2.0])),
            Column("int", np.array([1, 2, 3], dtype=np.int64)),
        )
        right = BAT(
            Column("dbl", np.array([np.nan, 2.0])),
            Column("int", np.array([0, 0], dtype=np.int64)),
        )
        assert kernel.kintersect(left, right).to_pairs() == [(None, 1), (2.0, 3)]

    def test_kintersect_nan_head_dropped_without_nil_on_right(self):
        left = BAT(
            Column("dbl", np.array([np.nan, 1.0])),
            Column("int", np.array([1, 2], dtype=np.int64)),
        )
        right = bat_from_pairs("dbl", "int", [(1.0, 0)])
        assert kernel.kintersect(left, right).to_pairs() == [(1.0, 2)]

    def test_kintersect_none_head_matches_none_head(self):
        left = bat_from_pairs("str", "int", [(None, 1), ("a", 2)])
        right = bat_from_pairs("str", "int", [(None, 0), ("b", 0)])
        assert kernel.kintersect(left, right).to_pairs() == [(None, 1)]

    def test_kintersect_negative_zero_head_matches_zero(self):
        left = BAT(
            Column("dbl", np.array([-0.0, 3.0])),
            Column("int", np.array([1, 2], dtype=np.int64)),
        )
        right = bat_from_pairs("dbl", "int", [(0.0, 0)])
        assert kernel.kintersect(left, right).to_pairs() == [(-0.0, 1)]

    def test_semijoin_and_kdiff_keep_comparison_rule(self):
        left = BAT(
            Column("dbl", np.array([np.nan, 1.0])),
            Column("int", np.array([1, 2], dtype=np.int64)),
        )
        right = BAT(
            Column("dbl", np.array([np.nan, 1.0])),
            Column("int", np.array([0, 0], dtype=np.int64)),
        )
        # NIL matches nothing: the NaN head is not semijoin-kept ...
        assert kernel.semijoin(left, right).to_pairs() == [(1.0, 2)]
        # ... and therefore always survives kdiff.
        assert kernel.kdiff(left, right).to_pairs() == [(None, 1)]

    def test_str_none_semijoin_vs_kintersect(self):
        left = bat_from_pairs("str", "int", [(None, 1), ("a", 2)])
        right = bat_from_pairs("str", "int", [(None, 0), ("a", 0)])
        assert kernel.semijoin(left, right).to_pairs() == [("a", 2)]
        assert kernel.kdiff(left, right).to_pairs() == [(None, 1)]
        assert kernel.kintersect(left, right).to_pairs() == [(None, 1), ("a", 2)]


class TestTopnBoundaryTies:
    """topn membership at the selection boundary is deterministic:
    among BUNs tied at the n-th tail value, the earliest BUN positions
    win the remaining slots.  Regression (found by the MIL fuzzer):
    argpartition kept an arbitrary subset of the tied BUNs, so
    monolithic and fragmented execution could disagree."""

    def test_all_equal_tails_keep_earliest_positions(self):
        bat = dense_bat("int", [7] * 10)
        assert kernel.topn(bat, 4).head_list() == [0, 1, 2, 3]
        assert kernel.topn(bat, 4, descending=False).head_list() == [0, 1, 2, 3]

    def test_partial_tie_at_boundary(self):
        # Tails 9 > 7 == 7 == 7 > 1: the two slots left after the 9 go
        # to the earliest of the tied 7s.
        bat = dense_bat("int", [7, 9, 7, 1, 7])
        assert kernel.topn(bat, 3).to_pairs() == [(1, 9), (0, 7), (2, 7)]

    def test_nan_tails_sort_last_in_both_directions(self):
        bat = dense_bat("dbl", [1.0, float("nan"), 3.0, float("nan"), 2.0])
        assert kernel.topn(bat, 3).head_list() == [2, 4, 0]
        assert kernel.topn(bat, 3, descending=False).head_list() == [0, 4, 2]

    def test_str_ties_break_earliest_first_in_both_directions(
        self, fan_out_on_tiny_inputs
    ):
        """One tie rule for every atom (kernel NIL docstring): a str NIL
        ranks above every string -- last ascending, first descending --
        and tied BUNs, NILs included, come out earliest-first in both
        directions, monolithic and fragmented alike."""
        from repro.monet import fragments as fr
        from repro.monet.fragments import FragmentationPolicy
        from tests.conftest import STRATEGIES, fragment_layout

        bat = dense_bat("str", ["b", None, "a", "b", None, "a"])
        assert kernel.topn(bat, 6).to_pairs() == [
            (1, None), (4, None), (0, "b"), (3, "b"), (2, "a"), (5, "a"),
        ]
        assert kernel.topn(bat, 6, descending=False).to_pairs() == [
            (2, "a"), (5, "a"), (0, "b"), (3, "b"), (1, None), (4, None),
        ]
        # Boundary membership: the earliest of the tied BUNs win.
        assert kernel.topn(bat, 3).head_list() == [1, 4, 0]
        assert kernel.topn(bat, 3, descending=False).head_list() == [2, 5, 0]
        for strategy in STRATEGIES:
            fb = fragment_layout(bat, strategy, FragmentationPolicy(target_size=2))
            for n in range(8):
                for descending in (True, False):
                    assert (
                        fr.topn(fb, n, descending=descending).to_pairs()
                        == kernel.topn(bat, n, descending=descending).to_pairs()
                    ), (strategy, n, descending)

    def test_fragmented_matches_monolithic_on_ties(self, fan_out_on_tiny_inputs):
        from repro.monet import fragments as fr
        from repro.monet.fragments import FragmentationPolicy
        from tests.conftest import STRATEGIES, fragment_layout

        rng = np.random.default_rng(5)
        bat = dense_bat("int", rng.integers(0, 4, 100).tolist())
        for strategy in STRATEGIES:
            fb = fragment_layout(
                bat, strategy, FragmentationPolicy(target_size=13)
            )
            for descending in (True, False):
                assert (
                    fr.topn(fb, 10, descending=descending).to_pairs()
                    == kernel.topn(bat, 10, descending=descending).to_pairs()
                )


class TestKunionTypeGuard:
    """kunion concatenates under the left atom types; mismatched
    operands must raise instead of silently reinterpreting right-side
    values (dbl heads used to truncate into an int column)."""

    def test_mismatched_head_types_raise(self):
        left = bat_from_pairs("int", "int", [(1, 1), (2, 2)])
        right = bat_from_pairs("dbl", "int", [(2.5, 1)])
        with pytest.raises(KernelError, match="kunion type mismatch"):
            kernel.kunion(left, right)

    def test_mismatched_tail_types_raise(self):
        left = bat_from_pairs("oid", "int", [(0, 1)])
        right = bat_from_pairs("oid", "str", [(1, "a")])
        with pytest.raises(KernelError, match="kunion type mismatch"):
            kernel.kunion(left, right)

    def test_fragmented_kunion_raises_too(self, fan_out_on_tiny_inputs):
        from repro.monet import fragments as fr
        from repro.monet.fragments import FragmentationPolicy, fragment_bat

        left = bat_from_pairs("oid", "int", [(0, 1), (1, 2), (2, 3)])
        right = bat_from_pairs("oid", "str", [(5, "a")])
        fb = fragment_bat(left, FragmentationPolicy(target_size=1))
        with pytest.raises(KernelError, match="kunion type mismatch"):
            fr.kunion(fb, right)


@pytest.mark.parametrize(
    "module_name, name",
    [("kernel", name) for name in (
        "nil_dedup_key", "NIL_KEY", "set_keyspace", "pivot_sample_positions",
        "pivot_quantile_positions",
    )]
    + [("fragments", name) for name in (
        "_sort_object", "_object_pivots", "_group_key", "_member_build",
        "_ids_by_first_appearance", "_first_positions", "_rows_in_order",
        # The identity family runs through kernel.Identity.
        "unique", "tunique", "group", "refine", "_distinct_blocks",
        "_first_appearance_ids", "_relabel", "_first_global_occurrences",
        "_keep_positions",
        # semijoin is its partitioned build, with no positional arm.
        "_partitioned_semijoin",
    )]
    + [("groups", name) for name in (
        "_dense_group_ids_from_keys", "_codes", "_dense_group_ids",
        "_first_appearance_relabel",
    )]
    + [("aggregates", "_aligned_group_ids_fallback")],
)
def test_per_bun_object_paths_are_deleted(module_name, name):
    """A str column has one key space -- its dictionary codes -- so the
    second, per-BUN Python implementation of each operator is gone,
    not aliased."""
    import importlib

    module = importlib.import_module(f"repro.monet.{module_name}")
    assert not hasattr(module, name)
