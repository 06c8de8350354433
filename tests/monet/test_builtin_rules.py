"""The builtin table's fragment rules, row by row.

Every :data:`~repro.monet.mil.builtins.BUILTINS` row with a fragment
rule runs through the one driver (``invoke_builtin``) on monolithic
operands and on the ``range`` and ``ragged`` layouts
(``tests/conftest.py``) of NIL-heavy int, dbl and str tails: every BAT
operand fragmented, only the receiver, and only the others.  A BAT
result is BUN-identical with sound property flags, a scalar equal (dbl
sums to 1e-9), and a monolithic error is the fragmented one.

A row's cases come from :data:`CASES` by row name, so a new row with a
rule fails here until it has cases: the table is covered by
construction.  An identity row declares its key sides and finish once,
for both paths, so its result is also checked against the
plain-Python model of ``tests/monet/test_identity.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.monet.atoms import INT_NIL
from repro.monet.bat import BAT, Column, VoidColumn, column_from_values
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT
from repro.monet.groups import group
from repro.monet.mil.builtins import BUILTINS, IDENTITY, MONOLITHIC, invoke_builtin
from tests.conftest import STRATEGIES, fragment_layout
from tests.monet.test_fragment_differential import (
    _raw_pairs,
    _same_value,
    assert_flags_sound,
    assert_pairs_equal,
)
from tests.monet.test_identity import _expected

pytestmark = pytest.mark.usefixtures("fan_out_on_tiny_inputs")

N = 23
POLICY = FragmentationPolicy(target_size=4)
KINDS = ("int", "dbl", "str")
WORDS = np.array(["ant", "bat", "cat", "dog", "eel"], dtype=object)


def _tail(kind: str, rng, n: int = N):
    """A tail of *kind* with about a third NILs."""
    nil = rng.random(n) < 0.35
    if kind == "int":
        return Column("int", np.where(nil, INT_NIL, rng.integers(-4, 9, n)))
    if kind == "dbl":
        return Column("dbl", np.where(nil, np.nan, np.round(rng.random(n) * 8, 1)))
    return column_from_values("str", np.where(nil, None, rng.choice(WORDS, n)))


class Operands:
    """The BATs and values one row's cases draw on, for one tail kind."""

    def __init__(self, kind: str, seed: int):
        rng = np.random.default_rng(seed)
        self.kind = kind
        self.v = BAT(VoidColumn(0, N), _tail(kind, rng))
        self.w = BAT(VoidColumn(0, N), _tail(kind, rng))
        self.g = group(BAT(VoidColumn(0, N), Column("int", rng.integers(0, 5, N))))
        # Groupings joined on materialized heads: v's heads permuted, and
        # repeated heads (dv's) in another order, where the last grouping
        # BUN of a head wins.
        self.pg = BAT(Column("oid", rng.permutation(N)), Column("oid", rng.integers(0, 5, N)))
        heads = np.sort(rng.integers(0, N // 2, N))
        self.dv = BAT(Column("oid", heads), self.v.tail)
        self.dg = BAT(
            Column("oid", rng.permutation(heads)), Column("oid", rng.integers(0, 5, N))
        )
        # [kind, int], the join partner of v's tail: duplicates and NILs.
        self.r = BAT(_tail(kind, rng, 9), Column("int", rng.integers(0, 50, 9)))
        # oid probes into a dense right of 12, some out of range.
        self.ids = BAT(VoidColumn(0, N), Column("oid", rng.integers(0, 15, N)))
        self.dense = BAT(VoidColumn(2, 12), _tail(kind, rng, 12))
        self.materialized = BAT(
            Column("oid", np.arange(2, 14)), self.dense.tail, hsorted=True, hkey=True
        )
        present = [x for x in self.v.tail_list() if x is not None and x == x]
        self.x = present[0]
        self.lo, self.hi = sorted(present)[len(present) // 4], sorted(present)[-2]


#: Row name -> the operand lists of its cases.
CASES = {
    "select": lambda o: [[o.v, o.x], [o.v, o.lo, o.hi], [o.v, None], [o.v, o.lo, None]],
    "uselect": lambda o: [[o.v, o.x], [o.v, o.lo, o.hi], [o.v, None, o.hi]],
    "likeselect": lambda o: [[o.v, "a"], [o.v, "t"]],
    "join": lambda o: [[o.v, o.r], [o.ids, o.dense], [o.ids, o.materialized]],
    "leftjoin": lambda o: [[o.v, o.r], [o.ids, o.materialized]],
    "fetchjoin": lambda o: [[o.ids, o.dense], [o.ids, o.materialized]],
    "outerjoin": lambda o: [[o.v, o.r], [o.ids, o.dense], [o.ids, o.materialized]],
    "semijoin": lambda o: [[o.v.reverse(), o.w.reverse()], [o.v, o.dense]],
    "kdiff": lambda o: [[o.v.reverse(), o.w.reverse()], [o.v, o.dense]],
    "kunion": lambda o: [[o.v.reverse(), o.w.reverse()]],
    "kintersect": lambda o: [[o.v.reverse(), o.w.reverse()]],
    "reverse": lambda o: [[o.v]],
    "mirror": lambda o: [[o.v]],
    "mark": lambda o: [[o.v], [o.v, 7]],
    "number": lambda o: [[o.v], [o.v, 7]],
    "sort": lambda o: [[o.v], [o.v.reverse()]],
    "tsort": lambda o: [[o.v]],
    "unique": lambda o: [[o.v], [o.v.reverse()]],
    "kunique": lambda o: [[o.v.reverse()]],
    "tunique": lambda o: [[o.v]],
    "slice": lambda o: [[o.v, 2, 9], [o.v, -3, 100], [o.v, 5, 5], [o.v, 6, 13]],
    "topn": lambda o: [[o.v, 5], [o.v, 5, False]],
    "group": lambda o: [[o.v]],
    "refine": lambda o: [[o.g, o.v]],
    "count": lambda o: [[o.v]],
    "sum": lambda o: [[o.v]],
    "max": lambda o: [[o.v]],
    "min": lambda o: [[o.v]],
    "avg": lambda o: [[o.v]],
    "const": lambda o: [[o.v, "int", 5], [o.v, "str", None]],
    "insert": lambda o: [[o.v, N, o.x], [o.v, 100, None]],
    "[op]": lambda o: [["+", o.v, o.w], ["*", o.v, 2], ["=", o.v, o.w], ["isnil", o.v]],
    "{sum}": lambda o: [[o.v, o.g], [o.v, o.g, 7], [o.v, o.pg], [o.dv, o.dg, 7]],
    "{count}": lambda o: [[o.v, o.g], [o.v, o.g, 7], [o.v, o.pg, 7], [o.dv, o.dg]],
    "{max}": lambda o: [[o.v, o.g], [o.v, o.g, 7], [o.v, o.pg], [o.dv, o.dg, 7]],
    "{min}": lambda o: [[o.v, o.g], [o.v, o.pg, 7], [o.dv, o.dg]],
    "{avg}": lambda o: [[o.v, o.g], [o.v, o.pg], [o.dv, o.dg, 7]],
}

RULE_ROWS = [row.name for row in BUILTINS if row.rule != MONOLITHIC]


def test_every_row_with_a_rule_has_cases():
    assert sorted(set(RULE_ROWS) - set(CASES)) == []


def _variants(args: list, strategy: str):
    """*args* with every BAT operand fragmented under *strategy*, only
    the first BAT operand, and only the others."""
    positions = [i for i, a in enumerate(args) if isinstance(a, BAT)]
    for chosen in (positions, positions[:1], positions[1:]):
        if chosen:
            yield chosen, [
                fragment_layout(a, strategy, POLICY) if i in chosen else a
                for i, a in enumerate(args)
            ]


def _run(name: str, args: list):
    try:
        return invoke_builtin(name, args, POLICY)
    except Exception as exc:  # the error is a result the paths must share
        return exc


def _assert_same(got, expected, context: str) -> None:
    if isinstance(expected, Exception):
        assert type(got) is type(expected), f"{context}: {got!r} vs {expected!r}"
        return
    assert not isinstance(got, Exception), f"{context}: raised {got!r}"
    if isinstance(got, FragmentedBAT):
        for fragment in got.fragments:
            assert_flags_sound(fragment)
        got = got.to_bat()
    if isinstance(expected, BAT):
        assert isinstance(got, BAT), context
        assert_flags_sound(got)
        try:
            assert_pairs_equal(got, _raw_pairs(expected))
        except AssertionError as exc:
            raise AssertionError(f"{context}: {exc}") from None
    elif isinstance(expected, float) and isinstance(got, float):
        assert _same_value(got, expected) or math.isclose(
            got, expected, rel_tol=1e-9, abs_tol=1e-12
        ), f"{context}: {got} vs {expected}"
    else:
        assert got == expected, f"{context}: {got!r} vs {expected!r}"


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", RULE_ROWS)
def test_row_rule_matches_the_monolithic_row(name, kind, strategy):
    for seed in range(3):
        operands = Operands(kind, seed)
        for case, args in enumerate(CASES[name](operands)):
            expected = _run(name, args)
            for chosen, fragmented in _variants(args, strategy):
                _assert_same(
                    _run(name, fragmented),
                    expected,
                    f"{name} [{kind}, {strategy}, seed {seed}, case {case}, "
                    f"fragmented operands {chosen}]",
                )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", [row.name for row in BUILTINS if row.rule == IDENTITY])
def test_identity_row_is_the_dict_order_model(name, kind):
    """An identity row's key sides and finish are declared once, for
    both paths, so the row differential cannot see a wrong declaration:
    the row's result is checked against the plain-Python model."""
    for seed in range(3):
        operands = Operands(kind, seed)
        for args in CASES[name](operands):
            assert_pairs_equal(_run(name, args), _expected(name, args))
