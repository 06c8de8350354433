"""A NIL needle in ``find``/``exist`` follows the comparison rule of
``select(b, nil)`` for every atom: it matches nothing, not even a NIL
head (the NIL-semantics table in :mod:`repro.monet.kernel`).  Checked on
:meth:`BAT.find`/:meth:`BAT.exists`, the MIL ``find``/``exist`` rows and
``FragmentedBAT.find``/``exists``, monolithic and fragmented."""

from __future__ import annotations

import numpy as np
import pytest

from repro.monet.bat import bat_from_pairs, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BATError
from repro.monet.fragments import FragmentationPolicy, fragment_bat
from repro.monet.mil import run_program

#: One non-NIL head value per atom, beside a NIL head.
HEADS = {"str": "ape", "int": -4, "oid": 7, "dbl": 1.5, "bit": True}


def _bat(head_type: str):
    return bat_from_pairs(head_type, "int", [(HEADS[head_type], 1), (None, 2)])


def _pool(head_type: str, layout: str):
    pool = BATBufferPool()
    if layout == "fragmented":
        fragmented = fragment_bat(_bat(head_type), FragmentationPolicy(target_size=1))
        assert fragmented.nfragments == 2
        pool.register_fragmented("b", fragmented)
    else:
        pool.register("b", _bat(head_type))
    return pool


@pytest.mark.parametrize("layout", ["monolithic", "fragmented"])
@pytest.mark.parametrize("head_type", list(HEADS))
def test_nil_needle_matches_nothing(head_type, layout):
    pool = _pool(head_type, layout)
    value = pool.lookup_fragments("b") if layout == "fragmented" else pool.lookup("b")
    assert value.exists(None) is False
    with pytest.raises(BATError):
        value.find(None)
    # A present needle still finds its BUN, NIL heads beside it or not.
    assert value.exists(HEADS[head_type]) is True
    assert value.find(HEADS[head_type]) == 1

    policy = FragmentationPolicy(target_size=1)
    run = lambda script: run_program(script, pool, fragment_policy=policy).value  # noqa: E731
    assert run('exist(bat("b"), nil);') is False
    with pytest.raises(BATError):
        run('find(bat("b"), nil);')
    assert run('exist(bat("b"), bat("b").reverse().find(1));') is True


def test_nil_needle_on_a_void_head():
    bat = dense_bat("int", [10, 20])
    assert bat.exists(None) is False
    with pytest.raises(BATError):
        bat.find(None)
    assert bat.find(1) == 20


@pytest.mark.parametrize("layout", ["monolithic", "fragmented"])
def test_void_head_needle_becomes_a_position_as_in_the_positional_join(layout):
    """On a void head a needle is a position only if it is integral and
    in range (:func:`repro.monet.kernel.fetch_positions`): 1.5 and NaN
    find nothing -- they equal no oid -- and neither do -1 or a needle
    past the end."""
    bat = dense_bat("int", [10, 20, 30])
    value = fragment_bat(bat, FragmentationPolicy(target_size=1)) if layout == "fragmented" else bat
    for needle in (1.5, float("nan"), -1, 3, 10**30, "1", True):
        assert value.exists(needle) is False, needle
        with pytest.raises(BATError):
            value.find(needle)
    for needle, expected in ((1, 20), (2.0, 30), (np.int64(0), 10), (np.uint8(2), 30)):
        assert value.exists(needle) is True
        assert value.find(needle) == expected
