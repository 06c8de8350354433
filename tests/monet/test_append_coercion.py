"""Coercion errors hold on the column-array append path.

``column_from_values`` and ``pool.append(tails=...)`` take a Python
list (each value coerced by ``coerce_value``) or an ndarray (the
in-column form when its dtype is the atom's, coerced per value
otherwise).  Every ``AtomError`` that ``coerce_value`` raises for a
value must be raised for the same input in either form, with the same
message, and a refused append leaves the pool and its WAL untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.monet.atoms import atom, coerce_value
from repro.monet.bat import column_from_values, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import AtomError, BATError

#: (atom, the one value of the batch coerce_value refuses, the batch as
#: an ndarray; its ``tolist()`` is the list form)
REFUSED = {
    "1.5-int": ("int", 1.5, np.array([2.0, 1.5])),
    "nan-int": ("int", float("nan"), np.array([2.0, np.nan])),
    "nan-oid": ("oid", float("nan"), np.array([2.0, np.nan])),
    "x-int": ("int", "x", np.array(["x"])),
    "x-dbl": ("dbl", "x", np.array(["x"])),
    "x-int-object": ("int", "x", np.array([2, "x"], dtype=object)),
    "int-str": ("str", 3, np.array([3])),
    "object-str": ("str", 3, np.array(["ok", 3], dtype=object)),
    "float-object-str": ("str", 2.5, np.array([None, 2.5], dtype=object)),
    "bytes-object-str": ("str", b"x", np.array(["ok", b"x"], dtype=object)),
}

#: atom -> the value the refusing pool BAT already holds.
HELD = {"int": 2, "oid": 2, "dbl": 2.0, "str": "ok"}


def _refusal(atom_name, value) -> str:
    with pytest.raises(AtomError) as raised:
        coerce_value(value, atom(atom_name))
    return str(raised.value)


def _batch(array, form):
    return array.tolist() if form == "list" else array


@pytest.mark.parametrize("form", ["list", "ndarray"])
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_column_from_values_refuses(case, form):
    atom_name, value, array = REFUSED[case]
    message = _refusal(atom_name, value)
    with pytest.raises(AtomError) as raised:
        column_from_values(atom_name, _batch(array, form))
    assert str(raised.value) == message


@pytest.mark.parametrize("form", ["list", "ndarray"])
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_pool_append_refuses_and_logs_nothing(tmp_path, case, form):
    atom_name, value, array = REFUSED[case]
    message = _refusal(atom_name, value)
    pool = BATBufferPool()
    before = dense_bat(atom_name, [HELD[atom_name]])
    pool.register("c", before)
    pool.save(tmp_path)
    with pytest.raises(AtomError) as raised:
        pool.append("c", tails=_batch(array, form))
    assert str(raised.value) == message
    assert pool.lookup("c") is before
    assert not (tmp_path / "wal.jsonl").exists() or not (
        tmp_path / "wal.jsonl"
    ).read_text()


def test_bit_array_outside_its_domain_is_refused():
    with pytest.raises(AtomError, match="bit"):
        column_from_values("bit", np.array([1, 0, 2], dtype=np.int8))
    column = column_from_values("bit", np.array([1, 0, -1], dtype=np.int8))
    assert column.values.tolist() == [1, 0, -1]


@pytest.mark.parametrize(
    "atom_name, array",
    [
        ("int", np.array([1, -4], dtype=np.int64)),
        ("oid", np.array([0, 9], dtype=np.int64)),
        ("dbl", np.array([1.5, np.nan])),
        ("str", np.array(["a", None, np.str_("b")], dtype=object)),
        ("bit", np.array([1, -1], dtype=np.int8)),
    ],
)
def test_own_dtype_array_is_the_column_copied(atom_name, array):
    column = column_from_values(atom_name, array)
    values = column.materialize()
    assert values.dtype == atom(atom_name).dtype
    np.testing.assert_array_equal(values, array)
    assert values is not array


def test_two_dimensional_array_is_refused():
    with pytest.raises(BATError):
        column_from_values("int", np.zeros((2, 2), dtype=np.int64))
