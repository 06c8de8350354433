"""Randomized MIL differential fuzzer: fragmented vs monolithic plans.

The hand-written suites (``test_fragment_differential``,
``test_mil_fragments``) cover each operator and a few curated
pipelines; this fuzzer covers the *composition space*: ~100 seeded
random MIL pipelines of 5-10 chained operators -- sorts, dedups, set
operators, joins, selections, reconstructions -- over randomized base
BATs that are deliberately nasty (NIL-heavy heads and tails, all-equal
keys, presorted runs, empty and tiny inputs).  Every pipeline runs
twice, over a monolithic pool and over a pool whose registrations are
fragmented (both split strategies, tiny fragments, pinned thread
fan-out), and the runs must agree on **every** intermediate variable:
BUN-for-BUN identical BATs (NaN-aware), equal scalars, and sound
property flags on the fragmented results (a True flag must actually
hold, on the coalesced view and on every fragment).

Pipelines are generated by a tiny type-tracked grammar: each step
picks an operator valid for the current (head type, tail type) pair,
so every generated script is well-typed by construction and failures
are real divergences, not type errors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.monet.bat import BAT, Column, VoidColumn, column_from_values
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT
from repro.monet.mil import run_program
from tests.conftest import STRATEGIES, assert_codes_decode, fragment_layout

N_SEEDS = 50
NUMERIC = ("int", "oid", "dbl")

#: Base BATs: two interchangeable partners per (head, tail) signature
#: so the set operators always have a same-typed right operand, plus a
#: keyed dimension for joins.
_BASE_TYPES = {
    "ai": ("oid", "int"),
    "bi": ("oid", "int"),
    "ad": ("dbl", "int"),
    "bd": ("dbl", "int"),
    "aw": ("str", "int"),
    "bw": ("str", "int"),
    "dim": ("oid", "dbl"),
}

#: nil-heavy is deliberately overweighted: the NIL identity/comparison
#: rules are where fragmented and monolithic execution historically
#: diverged, so most base BATs should carry NIL heads and tails.
_FLAVORS = ("plain", "nil-heavy", "nil-heavy", "all-equal", "presorted")


def _head_column(rng, htype: str, n: int, flavor: str) -> Column:
    if flavor == "all-equal":
        if htype == "str":
            return column_from_values("str", np.array(["cat"] * n, dtype=object))
        return Column(htype, np.full(n, 4, dtype=np.int64) if htype != "dbl"
                      else np.full(n, 2.5))
    nil_rate = 0.25 if flavor == "nil-heavy" else 0.08
    if htype == "oid":
        return Column("oid", rng.integers(0, 25, n).astype(np.int64))
    if htype == "dbl":
        values = np.round(rng.random(n) * 6, 1)
        if n:
            values[rng.random(n) < nil_rate] = np.nan
        return Column("dbl", values)
    if htype == "str":
        words = ["ape", "bat", "cat", "dog", "eel"]
        values = np.empty(n, dtype=object)
        for i in range(n):
            if rng.random() < nil_rate:
                values[i] = None
            else:
                values[i] = str(rng.choice(words)) + (
                    "x" if rng.random() < 0.3 else ""
                )
        return column_from_values("str", values)
    values = rng.integers(-8, 8, n).astype(np.int64)
    if n:
        values[rng.random(n) < nil_rate] = np.iinfo(np.int64).min
    return Column("int", values)


def _tail_column(rng, ttype: str, n: int, flavor: str) -> Column:
    nil_rate = 0.2 if flavor == "nil-heavy" else 0.05
    if ttype == "dbl":
        values = np.round(rng.random(n) * 5, 2)
        if n:
            values[rng.random(n) < nil_rate] = np.nan
        return Column("dbl", values)
    values = rng.integers(-8, 8, n).astype(np.int64)
    if n and ttype == "int":
        values[rng.random(n) < nil_rate] = np.iinfo(np.int64).min
    return Column(ttype, values)


def _make_base(rng, htype: str, ttype: str) -> BAT:
    flavor = str(rng.choice(_FLAVORS))
    n = int(rng.choice([0, 1, 2, 13, 40, 90, 160]))
    bat = BAT(_head_column(rng, htype, n, flavor),
              _tail_column(rng, ttype, n, flavor))
    if flavor == "presorted":
        from repro.monet import kernel

        bat = kernel.sort(bat)
    return bat


def _make_data(rng) -> dict:
    data = {
        name: _make_base(rng, htype, ttype)
        for name, (htype, ttype) in _BASE_TYPES.items()
        if name != "dim"
    }
    # The join dimension stays non-degenerate: dense-ish keyed oid heads
    # overlapping the tail domains of the fact BATs.
    heads = rng.permutation(30).astype(np.int64)
    data["dim"] = BAT(
        Column("oid", heads),
        Column("dbl", np.round(rng.random(30) * 3, 2)),
        hkey=True,
    )
    return data


# ----------------------------------------------------------------------
# Type-tracked pipeline generation
# ----------------------------------------------------------------------


def _setop_partners(types):
    return [n for n, t in _BASE_TYPES.items() if t == types and n != "dim"]


def _head_compatible(ht: str):
    """Bases whose head can be membership-tested against *ht* heads."""
    return [
        name
        for name, (bht, _) in _BASE_TYPES.items()
        if (ht in NUMERIC and bht in NUMERIC) or bht == ht
    ]


def _step_candidates(rng, ht: str, tt: str):
    """(script template, new (ht, tt)) choices valid for the current
    value type; ``{src}``/``{dst}`` are substituted by the driver."""
    out = [
        (f"{{dst}} := reverse({{src}});", (tt, ht)),
        (f"{{dst}} := mirror({{src}});", (ht, ht)),
        ("{dst} := sort({src});", (ht, tt)),
        ("{dst} := tsort({src});", (ht, tt)),
        ("{dst} := unique({src});", (ht, tt)),
        ("{dst} := kunique({src});", (ht, tt)),
        ("{dst} := tunique({src});", (ht, tt)),
        ("{dst} := group({src});", (ht, "oid")),
        (f"{{dst}} := mark({{src}}, {int(rng.integers(0, 5))});", (ht, "oid")),
        (f"{{dst}} := number({{src}}, {int(rng.integers(0, 5))});", ("oid", tt)),
    ]
    lo = int(rng.integers(0, 120))
    out.append(
        (f"{{dst}} := slice({{src}}, {lo}, {lo + int(rng.integers(0, 80))});",
         (ht, tt))
    )
    if tt in NUMERIC:
        low = int(rng.integers(-6, 4))
        high = low + int(rng.integers(0, 9))
        out.append((f"{{dst}} := select({{src}}, {low}, {high});", (ht, tt)))
        # The join family probes the fragmented-right (grace) build:
        # bat("dim") registers fragmented in the frag pool, so every one
        # of these steps runs the radix-partitioned path mid-pipeline.
        out.append(("{dst} := join({src}, bat(\"dim\"));", (ht, "dbl")))
        out.append(("{dst} := leftjoin({src}, bat(\"dim\"));", (ht, "dbl")))
        out.append(("{dst} := outerjoin({src}, bat(\"dim\"));", (ht, "dbl")))
        out.append(
            (f"{{dst}} := topn({{src}}, {int(rng.integers(0, 9))});", (ht, tt))
        )
    if tt == "str":
        # The code space: a predicate per distinct value, ranks of codes
        # (overweighted: str tails are rare in the grammar).
        direction = ", false" if rng.random() < 0.5 else ""
        out += 2 * [
            ('{dst} := likeselect({src}, "a");', (ht, tt)),
            ('{dst} := select({src}, "b", "m");', (ht, tt)),
            (f"{{dst}} := topn({{src}}, {int(rng.integers(0, 9))}{direction});",
             (ht, tt)),
        ]
    # NIL equals nothing, a NIL needle included, for every tail atom.
    out.append(("{dst} := select({src}, nil);", (ht, tt)))
    for name in _setop_partners((ht, tt)):
        # Overweighted: the set operators compose with everything and
        # carry the newest NIL-semantics surface.
        out.append((f'{{dst}} := kunion({{src}}, bat("{name}"));', (ht, tt)))
        out.append((f'{{dst}} := kunion({{src}}, bat("{name}"));', (ht, tt)))
        out.append((f'{{dst}} := kintersect({{src}}, bat("{name}"));', (ht, tt)))
    for name in _head_compatible(ht):
        out.append((f'{{dst}} := kintersect({{src}}, bat("{name}"));', (ht, tt)))
        out.append((f'{{dst}} := kdiff({{src}}, bat("{name}"));', (ht, tt)))
        out.append((f'{{dst}} := semijoin({{src}}, bat("{name}"));', (ht, tt)))
    return out


def _gen_pipeline(rng) -> str:
    start = str(rng.choice([n for n in _BASE_TYPES if n != "dim"]))
    ht, tt = _BASE_TYPES[start]
    lines = [f'x0 := bat("{start}");']
    steps = int(rng.integers(5, 11))
    for i in range(1, steps + 1):
        candidates = _step_candidates(rng, ht, tt)
        template, (ht, tt) = candidates[int(rng.integers(0, len(candidates)))]
        lines.append(template.format(src=f"x{i - 1}", dst=f"x{i}"))
    lines.append(f"c := count(x{steps});")
    lines.append(f"x{steps};")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Join arms every seed also runs
# ----------------------------------------------------------------------


def _join_data(rng) -> dict:
    """Join build sides whose heads differ only in what they *prove*:
    one dense oid run as a void head, materialized and flagged
    sorted + key (provably dense), materialized and unflagged, plus a
    sorted-key-but-gapped head that must not join positionally.  Kept
    out of ``_BASE_TYPES`` and built from their own rng, so the
    grammar's seeded pipelines are unchanged by their presence."""
    m = int(rng.choice([0, 1, 2, 13, 40]))
    seqbase = int(rng.integers(0, 4))
    tails = _tail_column(rng, "dbl", m, "plain")
    dense = np.arange(seqbase, seqbase + m, dtype=np.int64)
    gapped = dense + (np.arange(m) >= m // 2)
    # Unsorted int keys with duplicates, NILs and a negative low end:
    # compact enough for the span arm, and x1000 for the sorted arm.
    k = int(rng.choice([0, 1, 7, 30]))
    span = rng.integers(-3, 25, k).astype(np.int64)
    if k:
        span[rng.random(k) < 0.2] = np.iinfo(np.int64).min
    sparse = np.where(span == np.iinfo(np.int64).min, span, span * 1000)
    span_tails = _tail_column(rng, "dbl", k, "plain")
    # Order keys for both arms of ``kernel.stable_order`` on every seed:
    # the NIL-free keys as a compact tail (packed words), and all of
    # them plus the NIL sentinel and a far value as a wide one (the
    # stable argsort).
    nil = np.iinfo(np.int64).min
    compact = np.append(span[span != nil], (24, -3, 24))
    wide = np.append(span, (nil, 1 << 61, nil))
    # Str payloads: one NIL-heavy word column in three heap states
    # (see _pools) behind dense heads, and behind compact and sparse
    # int keys.
    words = np.empty(m, dtype=object)
    for i in range(m):
        words[i] = None if rng.random() < 0.3 else str(rng.choice(_PAYLOAD_WORDS))
    shared = column_from_values("str", words)
    keys = rng.integers(0, 15, m).astype(np.int64)
    return {
        "jshared": BAT(VoidColumn(0, m), shared),
        "jcold": BAT(VoidColumn(0, m), column_from_values("str", words.copy())),
        "jdelta": BAT(VoidColumn(0, m), column_from_values("str", words.copy())),
        "jkeyed": BAT(Column("int", keys), shared),
        "jkeyed_sparse": BAT(Column("int", keys * 1000), shared),
        "jvoid": BAT(VoidColumn(seqbase, m), tails),
        "jdense": BAT(Column("oid", dense), tails, hsorted=True, hkey=True),
        "jplain": BAT(Column("oid", dense.copy()), tails),
        "jgap": BAT(Column("oid", gapped), tails, hsorted=True, hkey=True),
        "jspan": BAT(Column("int", span), span_tails),
        "jsparse": BAT(Column("int", sparse), span_tails),
        "jcompact": BAT(VoidColumn(0, len(compact)), Column("int", compact)),
        "jwide": BAT(VoidColumn(0, len(wide)), Column("int", wide)),
    }


_DENSE_TWINS = ("jvoid", "jdense", "jplain")

#: NIL-heavy str payload words, with the values the string heap keeps
#: apart from NIL and from each other (empty, NUL-led, a lone
#: surrogate, non-BMP).
_PAYLOAD_WORDS = ("ape", "bat", "", "\x00NIL", "\ud800x", "\U0001f600")
#: The str payload rights: windows of one column (one heap), windows of
#: a second column built apart (its own heap), and fragments each on a
#: heap of its own (disjoint).
_PAYLOAD_RIGHTS = ("jshared", "jcold", "jdelta")

#: Appended to every generated pipeline.  ``s*``: str joins (``s2``
#: repeats ``s1``: a join leaves its operands as they were), on codes
#: gathered from a column (``s3``, ``s6``), NIL and
#: duplicates on both sides, each side holding words the other lacks
#: (the ``x`` suffixes), roles swapped (``s5``).  ``d*``/``i*``: dbl
#: (NaN, fractional) and int (negative, out-of-range, NIL) probes
#: against every head shape.  ``h*``/``v*``: probes that all hit -- the
#: identity and window arms.  ``*_jspan``/``*_jsparse``: the same int
#: keys compact (span arm) and spread (radix-partitioned sorted arm),
#: probed by dbl, oid and NIL-bearing int tails.  ``c*``: the str code
#: space outside the join.  ``o*``: both stable-order arms, a compact
#: and a wide int tail.
_JOIN_EPILOGUE = "\n".join(
    [
        's0 := reverse(bat("aw"));',
        's1 := join(s0, bat("bw"));',
        's2 := join(s0, bat("bw"));',
        's3 := join(slice(s0, 2, 60), bat("bw"));',
        's4 := outerjoin(s0, bat("bw"));',
        's5 := join(reverse(bat("bw")), bat("aw"));',
        's6 := join(likeselect(s0, "a"), bat("bw"));',
        'd0 := reverse(bat("ad"));',
        'i0 := reverse(bat("ai"));',
        'h0 := mirror(bat("jdense"));',
        'v0 := mark(bat("ai"), 1);',
        # The str code space on every seed: order (ranks of codes),
        # identity and comparison (codes), over fragments whose
        # heaps are disjoint (columns encoded separately).
        'c0 := topn(s0, 7);',
        'c1 := topn(s0, 7, false);',
        'c2 := select(s0, "b", "m");',
        'c3 := select(s0, nil);',
        'c4 := tsort(s0);',
        'c5 := tunique(s0);',
        'c6 := group(s0);',
        'c7 := sort(bat("aw"));',
        'c8 := semijoin(bat("aw"), bat("bw"));',
        'c9 := kunion(bat("aw"), bat("bw"));',
        'c10 := kintersect(bat("aw"), bat("bw"));',
        'c11 := unique(mirror(bat("aw")));',
        'o0 := tsort(bat("jcompact"));',
        'o1 := tsort(bat("jwide"));',
        # Str payloads through the fragmented gathers (``p*``):
        # fetchjoin, join and outerjoin by oid probes and by a void run,
        # value joins on both arms and sorts by the other side or by
        # the str column itself.
        'pk0 := sort(bat("jkeyed"));',
        'pk1 := join(bat("ai"), bat("jkeyed"));',
        'pk2 := outerjoin(bat("ai"), bat("jkeyed"));',
        'pk3 := join(mirror(bat("jkeyed_sparse")), bat("jkeyed_sparse"));',
        'pk4 := outerjoin(mirror(bat("jsparse")), bat("jkeyed_sparse"));',
    ]
    + [
        f'p{step}_{name} := {expression.format(name=name)};'
        for name in _PAYLOAD_RIGHTS
        for step, expression in enumerate(
            (
                'fetchjoin(reverse(bat("dim")), bat("{name}"))',
                'join(reverse(bat("dim")), bat("{name}"))',
                'outerjoin(reverse(bat("dim")), bat("{name}"))',
                'join(mark(bat("ai"), 2), bat("{name}"))',
                'sort(reverse(bat("{name}")))',
                'tsort(join(reverse(bat("dim")), bat("{name}")))',
            )
        )
    ]
    + [
        f'{probe}_{op}_{name} := {op}({probe}0, bat("{name}"));'
        for probe in "dihv"
        for op in ("join", "outerjoin")
        for name in (*_DENSE_TWINS, "jgap", "dim")
    ]
    + [
        f'{probe}_{op}_{name} := {op}({source}, bat("{name}"));'
        for probe, source in (("d", "d0"), ("i", "i0"), ("n", 'bat("ai")'))
        for op in ("join", "outerjoin")
        for name in ("jspan", "jsparse")
    ]
)


# ----------------------------------------------------------------------
# Differential comparison
# ----------------------------------------------------------------------


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def _assert_bats_equal(got: BAT, expected: BAT, context: str) -> None:
    got_pairs = list(zip(got.head_values().tolist(), got.tail_values().tolist()))
    exp_pairs = list(
        zip(expected.head_values().tolist(), expected.tail_values().tolist())
    )
    assert len(got_pairs) == len(exp_pairs), (
        f"{context}: {len(got_pairs)} vs {len(exp_pairs)} BUNs"
    )
    for position, (g, e) in enumerate(zip(got_pairs, exp_pairs)):
        assert _same_value(g[0], e[0]) and _same_value(g[1], e[1]), (
            f"{context}: BUN {position}: {g} vs {e}"
        )


def _assert_flags_sound(bat: BAT, context: str) -> None:
    """A True property flag must actually hold (NIL-last sort order,
    like the differential kernel harness)."""
    heads = bat.head_values().tolist()
    tails = bat.tail_values().tolist()

    def sort_key(value):
        if value is None:
            return (1, "")
        if isinstance(value, float) and math.isnan(value):
            return (1, 0.0)
        return (0, value)

    def nondecreasing(values):
        try:
            return all(
                sort_key(a) <= sort_key(b) for a, b in zip(values, values[1:])
            )
        except TypeError:
            return False

    if bat.hsorted:
        assert nondecreasing(heads), f"{context}: hsorted flag on unsorted head"
    if bat.tsorted:
        assert nondecreasing(tails), f"{context}: tsorted flag on unsorted tail"
    if bat.hkey:
        assert len({repr(h) for h in heads}) == len(heads), (
            f"{context}: hkey flag with duplicate heads"
        )
    if bat.tkey:
        assert len({repr(t) for t in tails}) == len(tails), (
            f"{context}: tkey flag with duplicate tails"
        )


#: Every test of this module fans out on the shared pool, tiny inputs
#: included.
pytestmark = pytest.mark.usefixtures("fan_out_on_tiny_inputs")


def _assert_twins_agree(env: dict, context: str) -> None:
    """A void, a provably dense and an unflagged head over the same oid
    run give identical BUNs, and so does a str join run twice."""
    _assert_bats_equal(env["s2"], env["s1"], f"{context}: repeated str join")
    for probe in "dihv":
        for op in ("join", "outerjoin"):
            reference = env[f"{probe}_{op}_jplain"]
            for twin in _DENSE_TWINS:
                _assert_bats_equal(
                    env[f"{probe}_{op}_{twin}"], reference,
                    f"{context}: {probe}_{op}_{twin} vs the value join",
                )


def _delta_layout(bat: BAT, policy: FragmentationPolicy) -> FragmentedBAT:
    """A [void, str] *bat* as target-sized fragments, every one encoded
    on its own: disjoint heaps."""
    target = policy.target_size
    values = bat.tail.materialize()
    return FragmentedBAT(
        [
            BAT(
                bat.head.window(lo, min(lo + target, len(bat))),
                column_from_values("str", values[lo: lo + target]),
            )
            for lo in range(0, max(len(bat), 1), target)
        ],
        policy=policy,
    )


def _pools(data: dict, strategy: str):
    policy = FragmentationPolicy(target_size=16)
    mono = BATBufferPool()
    frag = BATBufferPool()
    for name, bat in data.items():
        mono.register(name, bat)
        if name == "jdelta":
            frag.register_fragmented(name, _delta_layout(bat, policy))
        else:
            frag.register_fragmented(name, fragment_layout(bat, strategy, policy))
    return mono, frag, policy


def _assert_codes_decode(bat: BAT, context: str) -> None:
    for column in (bat.head, bat.tail):
        assert_codes_decode(column, context)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_mil_pipeline_fuzz(seed, strategy):
    rng = np.random.default_rng(10_000 + seed)
    data = _make_data(rng)
    data.update(_join_data(np.random.default_rng(20_000 + seed)))
    script = _gen_pipeline(rng)
    # The epilogue goes first: the pipeline's last statement stays the
    # program's value.
    script = _JOIN_EPILOGUE + "\n" + script
    mono_pool, frag_pool, policy = _pools(data, strategy)
    mono = run_program(script, mono_pool)
    frag = run_program(script, frag_pool, fragment_policy=policy)
    assert frag.printed == mono.printed, script
    _assert_twins_agree(mono.env, f"seed {seed} [mono]")
    for name, expected in mono.env.items():
        got = frag.env[name]
        context = f"seed {seed} [{strategy}] var {name}\n{script}"
        if isinstance(expected, BAT):
            assert isinstance(got, (BAT, FragmentedBAT)), context
            _assert_codes_decode(expected, context)
            if isinstance(got, FragmentedBAT):
                for fragment in got.fragments:
                    _assert_flags_sound(fragment, context)
                    _assert_codes_decode(fragment, context)
                if name.endswith("_jshared") and not name.startswith("p4"):
                    # Gathered from windows of one column: on its heap.
                    heap = data["jshared"].tail.heap
                    assert all(f.tail.heap is heap for f in got.fragments), context
                got = got.to_bat()
            _assert_flags_sound(got, context)
            _assert_codes_decode(got, context)
            _assert_bats_equal(got, expected, context)
        else:
            assert _same_value(got, expected), (
                f"{context}: {got!r} vs {expected!r}"
            )
    # The final value itself (coalesced at return on the fragmented run).
    if isinstance(mono.value, BAT):
        assert isinstance(frag.value, BAT)
        _assert_bats_equal(frag.value, mono.value, f"seed {seed} final\n{script}")
    else:
        assert _same_value(frag.value, mono.value), script


# ----------------------------------------------------------------------
# Snapshot-isolation fuzz: appends/drops racing a pinned plan
# ----------------------------------------------------------------------

N_WRITE_SEEDS = 12


def _mutation_pairs(rng, htype: str, ttype: str, k: int):
    bat = BAT(_head_column(rng, htype, k, "plain"),
              _tail_column(rng, ttype, k, "plain"))
    return list(zip(bat.head_values().tolist(), bat.tail_values().tolist()))


def _make_mutator(rng, pool, names):
    """A per-statement checkpoint that mutates the *live* pool between
    the pinned plan's statements: copy-on-write appends, plus
    drop-and-replace of whole registrations."""
    applied = {"mutations": 0}

    def mutate() -> None:
        applied["mutations"] += 1
        name = str(rng.choice(names))
        htype, ttype = _BASE_TYPES[name]
        if rng.random() < 0.7:
            pairs = _mutation_pairs(rng, htype, ttype, int(rng.integers(1, 5)))
            pool.append(name, pairs)
        else:
            replacement = _make_base(rng, htype, ttype)
            pool.drop(name)
            pool.register(name, replacement)

    return mutate, applied


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(N_WRITE_SEEDS))
def test_mil_snapshot_isolation_fuzz(seed, strategy):
    """A plan whose statements interleave with concurrent appends,
    drops, and re-registrations must produce exactly what a run against
    the frozen pre-plan catalog produces: the per-plan snapshot pin
    means no pipeline ever sees a torn append.  Runs on both the
    monolithic and the fragmented registration."""
    rng = np.random.default_rng(77_000 + seed)
    data = _make_data(rng)
    script = _gen_pipeline(rng)
    names = [n for n in _BASE_TYPES if n != "dim"]
    policy = FragmentationPolicy(target_size=16)

    for fragmented in (False, True):
        live = BATBufferPool()
        frozen = BATBufferPool()
        for name, bat in data.items():
            if fragmented:
                live.register_fragmented(
                    name, fragment_layout(bat, strategy, policy)
                )
                frozen.register_fragmented(
                    name, fragment_layout(bat, strategy, policy)
                )
            else:
                live.register(name, bat)
                frozen.register(name, bat)
        kwargs = {"fragment_policy": policy} if fragmented else {}
        mutate, applied = _make_mutator(
            np.random.default_rng(88_000 + seed), live, names
        )
        pinned_epoch = live.epoch
        got = run_program(script, live, checkpoint=mutate, **kwargs)
        expected = run_program(script, frozen, **kwargs)
        assert applied["mutations"] > 0
        assert got.epoch == pinned_epoch
        assert live.epoch > pinned_epoch  # the mutations really landed
        label = "frag" if fragmented else "mono"
        assert got.printed == expected.printed, script
        for name, exp in expected.env.items():
            value = got.env[name]
            context = f"seed {seed} [{strategy}/{label}] var {name}\n{script}"
            if isinstance(exp, (BAT, FragmentedBAT)):
                if isinstance(exp, FragmentedBAT):
                    exp = exp.to_bat()
                if isinstance(value, FragmentedBAT):
                    value = value.to_bat()
                _assert_bats_equal(value, exp, context)
            else:
                assert _same_value(value, exp), (
                    f"{context}: {value!r} vs {exp!r}"
                )
        if isinstance(expected.value, BAT):
            _assert_bats_equal(
                got.value, expected.value,
                f"seed {seed} [{strategy}/{label}] final\n{script}",
            )
        else:
            assert _same_value(got.value, expected.value), script


def test_fuzz_generates_diverse_well_typed_pipelines():
    """Meta-check: the generator actually exercises the operator space
    (sorts, dedups, set operators, joins) across the seeded corpus --
    a regression guard against the grammar silently collapsing to a
    few trivial shapes."""
    scripts = []
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(10_000 + seed)
        _make_data(rng)
        scripts.append(_gen_pipeline(rng))
    corpus = "\n".join(scripts)
    for op in ("sort", "unique", "kunion", "kintersect", "kdiff", "semijoin",
               "join", "outerjoin", "leftjoin", "select", "group", "reverse",
               "slice"):
        assert op in corpus, f"fuzz corpus never generated {op}"
    # 5-10 chained ops per pipeline, plus the bat() head and count/value.
    for script in scripts:
        assert 8 <= len(script.splitlines()) <= 13
