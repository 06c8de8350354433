"""Differential MIL testing: fragmented vs monolithic plan execution.

The kernel harness (``test_fragment_differential``) proves operator
equivalence; this suite proves the *MIL layer* preserves it: the same
MIL script -- function-style and method-style -- run over a pool whose
BATs are registered fragmented must produce BUN-identical results to
the run over monolithic registrations.  It also asserts the headline
property of fragment-aware execution: a whole pipeline
(``select -> join -> group -> aggregate``) never touches the coalescing
``pool.lookup`` path and keeps its intermediates fragmented.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.monet.bat import BAT, bat_from_pairs, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BBPError, MILRuntimeError
from repro.monet.fragments import (
    FragmentationPolicy,
    FragmentedBAT,
    fragment_bat,
)
from repro.monet.mil import MILInterpreter, run_program
from repro.monet.mil.builtins import BUILTINS
from tests.conftest import STRATEGIES, fragment_layout

N = 120

#: Ops whose results accumulate floating point partials in a different
#: order on the fragmented path; values compare with tolerance.
_SCRIPTS = [
    'bat("nums").select(10, 60);',
    'select(bat("nums"), 10, 60);',
    'bat("nums").select(7);',
    'uselect(bat("nums"), 5, 40);',
    'bat("words").likeselect("a");',
    'bat("nums").mark(oid(3));',
    'number(bat("nums"), 2);',
    'bat("nums").reverse;',
    'mirror(bat("nums"));',
    'bat("nums").slice(5, 25);',
    'slice(bat("nums"), 100, 400);',
    'topn(bat("scores"), 5);',
    'bat("scores").topn(3, false);',
    'bat("keys").join(bat("dim"));',
    'join(bat("keys"), bat("dim"));',
    'leftjoin(bat("keys"), bat("dim"));',
    'outerjoin(bat("keys"), bat("dim"));',
    'bat("keys").fetchjoin(bat("dimv"));',
    'semijoin(bat("headed"), bat("dim"));',
    'kdiff(bat("headed"), bat("dim"));',
    'const(bat("nums"), "dbl", 0.25);',
    'count(bat("nums"));',
    'sum(bat("nums"));',
    'min(bat("nums"));',
    'bat("nums").max;',
    'avg(bat("scores"));',
    'sum(bat("scores"));',
    '[+](bat("nums"), 1);',
    '[*](bat("scores"), bat("scores"));',
    'group(bat("keys"));',
    'g := group(bat("keys")); {sum}(bat("scores"), g);',
    'g := group(bat("keys")); {count}(bat("scores"), g);',
    'g := group(bat("keys")); {max}(bat("scores"), g);',
    # Order-sensitive operators run fragment-parallel (merge-based).
    'sort(bat("headed"));',
    'bat("headed").tsort;',
    'tsort(bat("scores"));',
    'unique(bat("nums"));',
    'unique(bat("headed"));',
    'kunique(bat("headed"));',
    'tunique(bat("headed"));',
    'bat("words").reverse.sort;',
    'g := group(bat("keys")); refine(g, bat("scores"));',
    'g := group(bat("keys")); refine(g, bat("words"));',
    # Set operators run fragment-parallel (shared membership build).
    'kunion(bat("headed"), bat("headed"));',
    'kunion(bat("headed"), bat("headed2"));',
    'bat("headed").kunion(bat("headed2"));',
    'kintersect(bat("headed"), bat("headed2"));',
    'bat("headed2").kintersect(bat("headed"));',
    'kdiff(bat("headed"), bat("headed2"));',
    # Operators with no fragment-parallel counterpart coalesce.
    'g := group(bat("keys")); group_sizes(g);',
    # Full pipelines, method-style.
    's := bat("keys").select(oid(2), oid(8)); s.join(bat("dim")).sum;',
    'u := bat("headed").unique; u.sort.count;',
    's := bat("headed").sort; s.kunique.tsort;',
    'u := kunion(bat("headed"), bat("headed2")); u.kunique.sort;',
    'i := kintersect(bat("headed"), bat("headed2")); i.unique.count;',
]


_POLICY = FragmentationPolicy(target_size=16)
#: Every test of this module fans out on the shared pool, tiny inputs
#: included.
pytestmark = pytest.mark.usefixtures("fan_out_on_tiny_inputs")


def _data():
    rng = np.random.default_rng(42)
    nums = rng.integers(0, 80, N).tolist()
    scores = np.round(rng.random(N) * 10, 3).tolist()
    keys = rng.integers(0, 10, N).tolist()
    words = [
        str(rng.choice(["ape", "bat", "cat", "dog", "eel"]))
        + ("x" if rng.random() < 0.3 else "")
        for _ in range(N)
    ]
    return {
        "nums": dense_bat("int", nums),
        "scores": dense_bat("dbl", scores),
        "keys": dense_bat("oid", keys),
        "words": dense_bat("str", words),
        "dim": bat_from_pairs(
            "oid", "dbl", [(i, float(i) * 0.5) for i in range(10)]
        ),
        "dimv": dense_bat("dbl", [float(i) * 0.25 for i in range(12)]),
        "headed": bat_from_pairs(
            "oid", "int", [(int(h), int(t)) for h, t in
                           zip(rng.integers(0, 20, 40), rng.integers(-5, 5, 40))]
        ),
        "headed2": bat_from_pairs(
            "oid", "int", [(int(h), int(t)) for h, t in
                           zip(rng.integers(10, 30, 40), rng.integers(-5, 5, 40))]
        ),
    }


def _pools(strategy: str):
    """(monolithic pool, fully fragmented pool) over identical data.
    The ragged arm registers the full ragged shape, oversized fragment
    included: ``bat("name")`` folds it to the plan policy at name
    resolution, so sibling registrations stay aligned."""
    mono = BATBufferPool()
    frag = BATBufferPool()
    for name, bat in _data().items():
        mono.register(name, bat)
        frag.register_fragmented(
            name, fragment_layout(bat, strategy, _POLICY), replace=True
        )
    return mono, frag


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def _assert_same_value(got, expected, context: str) -> None:
    assert type(got) is type(expected) or (
        isinstance(got, BAT) and isinstance(expected, BAT)
    ), f"{context}: {type(got).__name__} vs {type(expected).__name__}"
    if isinstance(expected, BAT):
        got_pairs, expected_pairs = got.to_pairs(), expected.to_pairs()
        assert len(got_pairs) == len(expected_pairs), context
        for position, (g, e) in enumerate(zip(got_pairs, expected_pairs)):
            assert _close(g[0], e[0]) and _close(g[1], e[1]), (
                f"{context}: BUN {position}: {g} vs {e}"
            )
    elif isinstance(expected, float):
        assert _close(got, expected), f"{context}: {got} vs {expected}"
    else:
        assert got == expected, f"{context}: {got} vs {expected}"


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("script", _SCRIPTS)
def test_mil_differential(script, strategy):
    mono_pool, frag_pool = _pools(strategy)
    mono = run_program(script, mono_pool)
    frag = run_program(script, frag_pool, fragment_policy=_POLICY)
    _assert_same_value(frag.value, mono.value, script)
    assert frag.printed == mono.printed


#: One tail per atom, NIL at BUNs 1 and 3, and the MIL literal of the
#: value at BUNs 0 and 4.
_NIL_TAILS = {
    "int": ([3, None, 7, None, 3], "3"),
    "oid": ([3, None, 7, None, 3], "3"),
    "dbl": ([3.5, None, 7.0, None, 3.5], "3.5"),
    "str": (["ape", None, "bat", None, "ape"], '"ape"'),
    "bit": ([True, None, False, None, True], "1"),
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("atom_name", sorted(_NIL_TAILS))
def test_select_nil_matches_nothing(atom_name, strategy):
    """"NIL equals nothing" holds for a NIL needle too, for every atom:
    ``select(b, nil)`` and ``uselect(b, nil)`` return no BUN,
    monolithic and fragmented (the two share the equality mask)."""
    tails, literal = _NIL_TAILS[atom_name]
    bat = dense_bat(atom_name, tails)
    mono_pool, frag_pool = BATBufferPool(), BATBufferPool()
    mono_pool.register("b", bat)
    frag_pool.register_fragmented(
        "b", fragment_layout(bat, strategy, FragmentationPolicy(target_size=2))
    )
    for op in ("select", "uselect"):
        script = f'{op}(bat("b"), nil);'
        mono = run_program(script, mono_pool).value
        frag = run_program(script, frag_pool, fragment_policy=_POLICY).value
        assert mono.to_pairs() == [], f"{script} [{atom_name}]"
        assert frag.to_pairs() == [], f"{script} [{atom_name}, {strategy}]"
    # An ordinary needle still matches.
    got = run_program(f'select(bat("b"), {literal});', mono_pool).value
    assert [head for head, _ in got.to_pairs()] == [0, 4]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("atom_name", sorted(_NIL_TAILS))
def test_range_select_open_bound_matches_no_nil(atom_name, strategy):
    """A range with an open (``nil``) bound compares values, never the
    NIL representation: the int/oid/bit sentinels are not the least or
    greatest values, monolithic and fragmented (the two share the range
    mask)."""
    tails, literal = _NIL_TAILS[atom_name]
    bat = dense_bat(atom_name, tails)
    mono_pool, frag_pool = BATBufferPool(), BATBufferPool()
    mono_pool.register("b", bat)
    frag_pool.register_fragmented(
        "b", fragment_layout(bat, strategy, FragmentationPolicy(target_size=2))
    )
    needle = tails[0]
    present = [(i, v) for i, v in enumerate(tails) if v is not None]
    cases = {
        (f"nil, {literal}"): [i for i, v in present if v <= needle],
        (f"{literal}, nil"): [i for i, v in present if v >= needle],
        "nil, nil": [i for i, _ in present],
    }
    for op in ("select", "uselect"):
        for bounds, expected in cases.items():
            script = f'{op}(bat("b"), {bounds});'
            mono = run_program(script, mono_pool).value
            frag = run_program(script, frag_pool, fragment_policy=_POLICY).value
            assert [h for h, _ in mono.to_pairs()] == expected, (
                f"{script} [{atom_name}]"
            )
            assert [h for h, _ in frag.to_pairs()] == expected, (
                f"{script} [{atom_name}, {strategy}]"
            )


def _operand_mistakes():
    """One MIL call per (builtin row with a BAT receiver, operand the
    row type-checks): that operand wrong -- a scalar where a BAT
    belongs, a non-numeric string where an int does -- and every other
    required operand plausible."""
    valid = {BAT: 'bat("nums")', int: "1", str: '"x"', bool: "1", None: "1"}
    wrong = {BAT: "3", int: '"x"'}
    for row in BUILTINS:
        if row.operands[0] is not BAT:
            continue
        for position, kind in enumerate(row.operands):
            if position == 0 or kind not in wrong:
                continue
            kinds = row.operands[: max(row.required, position + 1)]
            args = [valid[k] for k in kinds]
            args[position] = wrong[kind]
            yield pytest.param(
                f"{row.name}({', '.join(args)});", row.name,
                id=f"{row.name}-operand{position + 1}",
            )


@pytest.mark.parametrize("script, name", _operand_mistakes())
def test_same_error_for_the_same_mistake_on_both_paths(script, name):
    """The one driver checks operands before it chooses a path: a
    monolithic and a fragmented receiver raise the same
    ``MILRuntimeError`` naming the builtin -- never an
    ``AttributeError``/``ValueError``/``TypeError`` from inside an
    implementation."""
    errors = []
    for pool in _pools("range"):
        with pytest.raises(MILRuntimeError) as raised:
            run_program(script, pool, fragment_policy=_POLICY)
        assert type(raised.value) is MILRuntimeError
        errors.append(str(raised.value))
    assert errors[0] == errors[1] and errors[0].startswith(f"{name} ")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pipeline_never_coalesces_via_pool_lookup(strategy, monkeypatch):
    """The acceptance property of fragment-aware MIL: a select -> join
    -> group -> aggregate pipeline over fragmented BATs runs without
    ever taking the coalescing ``pool.lookup`` path, and its BAT
    intermediates stay fragmented."""
    _, frag_pool = _pools(strategy)

    def forbidden(name):
        raise AssertionError(
            f"pool.lookup({name!r}) called during a fragmented pipeline"
        )

    monkeypatch.setattr(frag_pool, "lookup", forbidden)
    interpreter = MILInterpreter(frag_pool, fragment_policy=_POLICY)
    result = interpreter.run(
        """
        s := bat("keys").select(oid(2), oid(8));
        j := s.join(bat("dim"));
        g := group(bat("keys"));
        a := {sum}(bat("scores"), g);
        total := sum(j);
        total;
        """
    )
    assert isinstance(result.env["s"], FragmentedBAT)
    assert isinstance(result.env["j"], FragmentedBAT)
    assert isinstance(result.env["g"], FragmentedBAT)
    assert isinstance(result.env["a"], BAT)  # pump output: combined partials
    assert isinstance(result.value, float)

    mono_pool, _ = _pools(strategy)
    mono = MILInterpreter(mono_pool).run(
        's := bat("keys").select(oid(2), oid(8)); sum(s.join(bat("dim")));'
    )
    assert _close(result.env["total"], mono.value)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sort_unique_pipeline_never_coalesces(strategy, monkeypatch):
    """The PR-3 acceptance property: a pipeline containing ``sort`` and
    ``unique`` (plus ``tsort``/``kunique``/``refine``) coalesces only at
    result return -- neither the transparent ``fragments.coalesce``
    dispatch path nor the pool's coalescing ``lookup`` ever runs, and
    every BAT intermediate stays fragmented."""
    from repro.monet import fragments as fragments_module

    _, frag_pool = _pools(strategy)

    def forbidden_lookup(name):
        raise AssertionError(
            f"pool.lookup({name!r}) called during a fragmented sort/unique plan"
        )

    def forbidden_coalesce(value):
        raise AssertionError(
            "fragments.coalesce called before result return"
        )

    monkeypatch.setattr(frag_pool, "lookup", forbidden_lookup)
    monkeypatch.setattr(fragments_module, "coalesce", forbidden_coalesce)
    interpreter = MILInterpreter(frag_pool, fragment_policy=_POLICY)
    result = interpreter.run(
        """
        s := bat("headed").sort;
        u := s.unique;
        k := u.kunique;
        t := bat("scores").tsort;
        g := group(bat("keys"));
        r := refine(g, bat("scores"));
        c := count(u);
        u;
        """
    )
    monkeypatch.undo()
    for name in ("s", "u", "k", "t", "g", "r"):
        assert isinstance(result.env[name], FragmentedBAT), name
    assert isinstance(result.value, BAT)  # coalesced exactly at return

    mono_pool, _ = _pools(strategy)
    mono = MILInterpreter(mono_pool).run(
        'u := bat("headed").sort.unique; count(u); u;'
    )
    assert result.value.to_pairs() == mono.value.to_pairs()
    assert result.env["c"] == len(mono.value)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_setops_pipeline_never_coalesces(strategy, monkeypatch):
    """The PR-4 acceptance property: set-operator pipelines
    (``kunion``/``kintersect``/``kdiff`` feeding ``kunique``/``sort``)
    coalesce only at result return -- neither the transparent
    ``fragments.coalesce`` dispatch path nor the pool's coalescing
    ``lookup`` ever runs, and every BAT intermediate stays
    fragmented."""
    from repro.monet import fragments as fragments_module

    _, frag_pool = _pools(strategy)

    def forbidden_lookup(name):
        raise AssertionError(
            f"pool.lookup({name!r}) called during a fragmented set-op plan"
        )

    def forbidden_coalesce(value):
        raise AssertionError("fragments.coalesce called before result return")

    monkeypatch.setattr(frag_pool, "lookup", forbidden_lookup)
    monkeypatch.setattr(fragments_module, "coalesce", forbidden_coalesce)
    interpreter = MILInterpreter(frag_pool, fragment_policy=_POLICY)
    result = interpreter.run(
        """
        u := kunion(bat("headed"), bat("headed2"));
        i := kintersect(bat("headed"), bat("headed2"));
        d := kdiff(bat("headed"), bat("headed2"));
        k := u.kunique;
        s := k.sort;
        c := count(s);
        s;
        """
    )
    monkeypatch.undo()
    for name in ("u", "i", "d", "k", "s"):
        assert isinstance(result.env[name], FragmentedBAT), name
    assert isinstance(result.value, BAT)  # coalesced exactly at return

    mono_pool, _ = _pools(strategy)
    mono = MILInterpreter(mono_pool).run(
        's := kunion(bat("headed"), bat("headed2")).kunique.sort; count(s); s;'
    )
    assert result.value.to_pairs() == mono.value.to_pairs()
    assert result.env["c"] == len(mono.value)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_join_pipeline_never_coalesces(strategy, monkeypatch):
    """The PR-6 acceptance property: a pipeline joining two *fragmented*
    BATs runs the radix-partitioned build without materializing either
    side -- ``pool.lookup``, ``fragments.coalesce`` AND
    ``FragmentedBAT.to_bat`` are all tripwired, so not even the join's
    build side may coalesce before result return."""
    from repro.monet import fragments as fragments_module

    _, frag_pool = _pools(strategy)

    def forbidden_lookup(name):
        raise AssertionError(
            f"pool.lookup({name!r}) called during a fragmented join plan"
        )

    def forbidden_coalesce(value):
        raise AssertionError("fragments.coalesce called before result return")

    def forbidden_to_bat(self):
        raise AssertionError("FragmentedBAT.to_bat called inside a join plan")

    monkeypatch.setattr(frag_pool, "lookup", forbidden_lookup)
    monkeypatch.setattr(fragments_module, "coalesce", forbidden_coalesce)
    monkeypatch.setattr(FragmentedBAT, "to_bat", forbidden_to_bat)
    interpreter = MILInterpreter(frag_pool, fragment_policy=_POLICY)
    result = interpreter.run(
        """
        s := bat("keys").select(oid(1), oid(8));
        j := s.join(bat("dim"));
        o := bat("keys").outerjoin(bat("dim"));
        m := bat("headed").semijoin(bat("dim"));
        c := count(j);
        c;
        """
    )
    monkeypatch.undo()
    for name in ("s", "j", "o", "m"):
        assert isinstance(result.env[name], FragmentedBAT), name
    assert isinstance(result.value, int)

    mono_pool, _ = _pools(strategy)
    mono = MILInterpreter(mono_pool).run(
        """
        s := bat("keys").select(oid(1), oid(8));
        j := s.join(bat("dim"));
        o := bat("keys").outerjoin(bat("dim"));
        m := bat("headed").semijoin(bat("dim"));
        c := count(j);
        c;
        """
    )
    assert result.value == mono.value
    for name in ("j", "o", "m"):
        _assert_same_value(
            result.env[name].to_bat(), mono.env[name], f"join pipeline {name}"
        )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_final_result_is_coalesced_once(strategy):
    """A fragmented plan's final BAT value coalesces exactly at result
    return (and the coalesce is cached on the handle)."""
    _, frag_pool = _pools(strategy)
    interpreter = MILInterpreter(frag_pool, fragment_policy=_POLICY)
    result = interpreter.run('x := bat("nums").select(10, 60); x;')
    assert isinstance(result.value, BAT)
    assert isinstance(result.env["x"], FragmentedBAT)
    assert result.env["x"].to_bat() is result.value


def test_persists_keeps_fragmentation():
    """Persisting a fragmented intermediate registers it fragmented --
    the pool keeps fragments as the storage unit."""
    _, frag_pool = _pools("range")
    run_program(
        'persists("out", bat("nums").select(10, 60));',
        frag_pool,
        fragment_policy=_POLICY,
    )
    assert frag_pool.is_fragmented("out")
    mono_pool, _ = _pools("range")
    expected = run_program('bat("nums").select(10, 60);', mono_pool)
    assert frag_pool.lookup("out").to_pairs() == expected.value.to_pairs()


def test_bbp_lookup_caches_coalesced_view():
    """``lookup`` of a fragmented registration returns the *same*
    coalesced view on every call, until the name is re-registered or
    dropped."""
    pool = BATBufferPool()
    bat = dense_bat("int", list(range(100)))
    policy = FragmentationPolicy(target_size=16)
    pool.register_fragmented("x", fragment_bat(bat, policy))
    first = pool.lookup("x")
    assert pool.lookup("x") is first
    # Re-registering invalidates the cached view.
    pool.register_fragmented(
        "x", fragment_bat(dense_bat("int", list(range(50))), policy), replace=True
    )
    second = pool.lookup("x")
    assert second is not first
    assert len(second) == 50
    # Replacing with a monolithic BAT also invalidates.
    pool.register("x", dense_bat("int", [1, 2, 3]), replace=True)
    assert pool.lookup("x").tail_list() == [1, 2, 3]
    pool.drop("x")
    with pytest.raises(BBPError):
        pool.lookup("x")


def test_fragmented_multiplex_keeps_alignment_guards():
    """A monolithic operand of the wrong length must raise the same
    KernelError as the monolithic multiplex -- window-slicing may not
    silently truncate it."""
    from repro.monet.errors import KernelError
    from repro.monet.mil.builtins import fan_out

    short = fragment_bat(
        dense_bat("int", list(range(100))),
        FragmentationPolicy(target_size=16),
    )
    long = dense_bat("int", list(range(150)))
    with pytest.raises(KernelError, match="length mismatch"):
        fan_out("[op]", "+", short, long)


def test_bbp_lookup_fragments_caches_on_the_fly_split():
    """``lookup_fragments`` of a monolithic registration caches the
    split (per name), re-splitting only for a different policy."""
    pool = BATBufferPool()
    pool.register("m", dense_bat("int", list(range(200))))
    a = pool.lookup_fragments("m", FragmentationPolicy(target_size=50))
    assert pool.lookup_fragments("m", FragmentationPolicy(target_size=50)) is a
    assert pool.lookup_fragments("m") is a  # None policy reuses the cache
    b = pool.lookup_fragments("m", FragmentationPolicy(target_size=20))
    assert b is not a and b.nfragments == 10
    pool.register("m", dense_bat("int", [0]), replace=True)
    assert pool.lookup_fragments("m").nfragments == 1
