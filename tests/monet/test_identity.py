"""The identity family's one first-occurrence primitive and its rule.

``kernel.first_occurrences`` numbers every distinct key tuple by first
appearance; ``kernel.Identity`` runs it for ``unique``/``kunique``/
``tunique`` (keep finish) and ``groups.group``/``refine`` (label
finish), monolithic and per fragment.  Both are checked against a
plain-Python model: a dict in insertion order over the values under
the identity rule (every NIL one key, ``-0.0 == +0.0``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.monet import kernel
from repro.monet.atoms import INT_NIL, OID_NIL
from repro.monet.bat import BAT, Column, VoidColumn, column_from_values
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT
from repro.monet.groups import group
from repro.monet.mil.builtins import BUILTINS, fan_out
from tests.conftest import STRATEGIES, fragment_layout
from tests.monet.test_fragment_differential import (
    _raw_pairs,
    assert_flags_sound,
    assert_pairs_equal,
)

pytestmark = pytest.mark.usefixtures("fan_out_on_tiny_inputs")

#: Per atom, a few values that collide often, with its NIL and the
#: values the identity rule must keep apart or fold.
VALUES = {
    "int": st.sampled_from([INT_NIL, INT_NIL + 1, -1, 0, 1, 2, np.iinfo(np.int64).max]),
    "oid": st.sampled_from([OID_NIL, 0, 1, 2, 7]),
    "dbl": st.sampled_from([math.nan, -0.0, 0.0, 1.5, -1.5, math.inf, 2.0]),
    "str": st.sampled_from([None, "", "a", "b", "\x00NIL", "caf\xe9"]),
}
KINDS = tuple(VALUES)
ROWS = {row.name: row for row in BUILTINS}


def _column(kind: str, values: list) -> Column:
    if kind == "str":
        return column_from_values("str", np.array(values, dtype=object))
    dtype = np.float64 if kind == "dbl" else np.int64
    return Column(kind, np.array(values, dtype=dtype))


def _model_key(value):
    """A value's identity under the model: NaN and None are the NIL."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NIL"
    return value + 0.0 if isinstance(value, float) else value  # -0.0 -> 0.0


def _model(rows: list) -> tuple:
    """(first positions, ids) of *rows*, key tuples, in dict order."""
    ids: dict = {}
    firsts, labels = [], []
    for position, row in enumerate(rows):
        if row not in ids:
            ids[row] = len(ids)
            firsts.append(position)
        labels.append(ids[row])
    return firsts, labels


@st.composite
def key_columns(draw, max_keys: int = 2):
    """One or two aligned columns of any atoms, empty included."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=max_keys))
    n = draw(st.integers(0, 30))
    return [
        (kind, draw(st.lists(VALUES[kind], min_size=n, max_size=n))) for kind in kinds
    ]


@settings(max_examples=200, deadline=None)
@given(key_columns())
def test_first_occurrences_is_the_dict_order_model(columns):
    keys = []
    for kind, values in columns:
        column = _column(kind, values)
        keys.append(kernel.key_space(column)(column))
    rows = list(zip(*([_model_key(v) for v in values] for _, values in columns)))
    firsts, ids = kernel.first_occurrences(*keys)
    assert (firsts.tolist(), ids.tolist()) == _model(rows)
    kept, unlabelled = kernel.first_occurrences(*keys, label=False)
    assert kept.tolist() == firsts.tolist() and unlabelled is None


def _expected(name: str, operands: list) -> list:
    """The model result of identity row *name* on *operands*, as raw
    pairs: the receiver's BUNs kept, or its heads with their labels."""
    receiver = _raw_pairs(operands[0])
    firsts = [_model_key(h) for h, _ in receiver]
    seconds = [_model_key(t) for _, t in _raw_pairs(operands[-1])]
    rows = {
        "unique": list(zip(firsts, seconds)),
        "kunique": firsts,
        "tunique": seconds,
        "group": seconds,
        "refine": list(zip((g for _, g in receiver), seconds)),
    }[name]
    kept, labels = _model(rows)
    if name in ("group", "refine"):
        return [(head, label) for (head, _), label in zip(receiver, labels)]
    return [receiver[position] for position in kept]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(key_columns(max_keys=1), key_columns(max_keys=1), st.integers(1, 5))
@pytest.mark.parametrize("name", ["unique", "kunique", "tunique", "group", "refine"])
def test_identity_rows_monolithic_and_fragmented_are_the_model(name, heads, tails, target):
    (hkind, hvalues), (tkind, tvalues) = heads[0], tails[0]
    n = min(len(hvalues), len(tvalues))
    bat = BAT(_column(hkind, hvalues[:n]), _column(tkind, tvalues[:n]))
    grouping = group(BAT(VoidColumn(0, n), Column("int", np.arange(n) % 3)))
    operands = [grouping, bat] if name == "refine" else [bat]
    expected = _expected(name, operands)
    result = ROWS[name].mono(*operands)
    assert_pairs_equal(result, expected)
    assert_flags_sound(result)
    policy = FragmentationPolicy(target_size=target)
    for strategy in STRATEGIES:
        fragmented = fan_out(
            name, *(fragment_layout(x, strategy, policy) for x in operands)
        )
        assert isinstance(fragmented, FragmentedBAT)
        for fragment in fragmented.fragments:
            assert_flags_sound(fragment)
        assert_pairs_equal(fragmented.to_bat(), expected)
