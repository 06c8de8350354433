"""A str join translates the side with the smaller heap.

The compiled belief plan looks its k query terms up in the bound
statistics' vocabulary (``query.outerjoin(stats_idf)``).  The join
indexes in the code space of the side with the larger heap and
translates only the distinct values the other side uses, so that lookup
costs k heap probes, not one per vocabulary term.  Checked by a
spy on :meth:`repro.monet.kernel.CodeSpace.codes` (every translation
goes through it), monolithic and fragmented, against the oracle and
against the index built in the probe's code space.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir.stats import CollectionStats
from repro.monet import fragments, kernel
from repro.monet.bat import BAT, StrColumn, VoidColumn, dense_bat
from repro.monet.fragments import FragmentationPolicy, fragment_bat

VOCABULARY = 200_000
QUERY = ["t000005", "t123456", "nosuchterm"]


@pytest.fixture(scope="module")
def idf() -> tuple:
    """A 200 000-term statistics object and its idf BAT."""
    terms = [f"t{i:06d}" for i in range(VOCABULARY)]
    stats = CollectionStats(
        VOCABULARY, 10.0, {term: 1 + i % 50 for i, term in enumerate(terms)}
    )
    return stats, stats.idf_bat()


@pytest.fixture
def translated(monkeypatch) -> list:
    """Every value translated into another heap's code space."""
    seen: list = []
    codes = kernel.CodeSpace.codes

    def spy(space, values, extend):
        seen.extend(values)
        return codes(space, values, extend)

    monkeypatch.setattr(kernel.CodeSpace, "codes", spy)
    return seen


def _pairs(bat) -> list:
    bat = bat.to_bat() if isinstance(bat, fragments.FragmentedBAT) else bat
    return list(zip(bat.head_values().tolist(), bat.tail_values().tolist()))


def _in_probe_space(query: BAT, build: BAT) -> list:
    """The outerjoin with the index forced into the probe's code space
    (every build value translated): the join's result before the
    smaller side was the translated one."""
    probe_positions, build_positions = kernel.probe_match_index(
        query.tail, kernel.build_match_index([build.head], query.tail.heap)
    )
    tails = np.full(len(query), np.nan)
    tails[probe_positions] = build.tail_values()[build_positions]
    return list(zip(query.head_values().tolist(), tails.tolist()))


def _same(actual: list, expected: list) -> None:
    assert [h for h, _ in actual] == [h for h, _ in expected]
    np.testing.assert_array_equal(
        np.array([t for _, t in actual]), np.array([t for _, t in expected])
    )


def _oracle(stats: CollectionStats) -> list:
    return [
        (i, stats.idf(term) if stats.df(term) else np.nan)
        for i, term in enumerate(QUERY)
    ]


@pytest.mark.parametrize(
    "layout", ["monolithic", "fragmented probe", "fragmented build"]
)
def test_query_lookup_translates_only_the_query_terms(idf, translated, layout):
    stats, build = idf
    query = dense_bat("str", QUERY)
    expected = _in_probe_space(query, build)
    translated.clear()
    if layout == "monolithic":
        result = kernel.outerjoin(query, build)
    elif layout == "fragmented probe":
        probe = fragment_bat(query, FragmentationPolicy(target_size=1))
        assert probe.nfragments == 3
        result = fragments.outerjoin(probe, build)
    else:
        split = fragment_bat(build, FragmentationPolicy(target_size=VOCABULARY // 4))
        assert split.nfragments == 4
        result = fragments.outerjoin(fragment_bat(query), split)
    assert len(translated) <= len(QUERY)
    _same(_pairs(result), expected)
    _same(_pairs(result), _oracle(stats))


def test_larger_probe_dictionary_keeps_the_probe_space(idf, translated):
    """The rule is symmetric: a probe over the whole vocabulary joined
    against a 3-term build translates the build's 3 values."""
    _, vocabulary = idf
    build = BAT(dense_bat("str", QUERY).tail, dense_bat("int", [7, 8, 9]).tail)
    translated.clear()
    probe = BAT(VoidColumn(0, VOCABULARY), vocabulary.head)
    result = kernel.join(probe, build)
    assert len(translated) <= len(QUERY)
    assert _pairs(result) == [(5, 7), (123456, 8)]


@pytest.mark.parametrize(
    "layout", ["monolithic", "fragmented probe", "fragmented build"]
)
def test_idf_lookup_keeps_the_query_head_and_probes_a_held_index(idf, layout, monkeypatch):
    """``query.outerjoin(stats_idf)`` -- every query row comes out
    exactly once -- keeps the query's void head (so the plan's ``nidf``
    joins it by position) and is BUN-identical to the outer join with a
    gathered head; the vocabulary's held index is built at the first
    lookup and probed, not rebuilt, by every later one."""
    stats, build = idf
    query = dense_bat("str", QUERY)
    # The reference probes with a materialized head, which the result
    # keeps as it is.
    gathered = BAT(query.head.take(np.arange(len(query))), query.tail)
    materialized = kernel.outerjoin(gathered, build)
    assert not materialized.head.is_void
    # A fresh head column, which holds no index yet.
    build = BAT(StrColumn(build.head.codes, build.head.heap), build.tail)
    if layout == "fragmented build":
        build = fragment_bat(build, FragmentationPolicy(target_size=VOCABULARY // 4))
    builds: list = []
    real = kernel._code_runs
    monkeypatch.setattr(
        kernel, "_code_runs", lambda codes: builds.append(len(codes)) or real(codes)
    )
    for _ in range(3):
        if layout == "monolithic":
            result = kernel.outerjoin(query, build)
            heads = [result.head]
        else:
            probe = fragment_bat(query, FragmentationPolicy(target_size=1))
            if layout == "fragmented build":
                probe = fragment_bat(query)
            result = fragments.outerjoin(probe, build)
            heads = [frag.head for frag in result.fragments]
        assert all(head.is_void for head in heads)
        _same(_pairs(result), _pairs(materialized))
    assert sum(builds) == VOCABULARY  # one build, at the first lookup


def test_outerjoin_with_a_repeated_left_bun_gathers_its_head():
    """A left BUN matching twice comes out twice: the head is gathered."""
    left = dense_bat("str", ["a", "b", "z"])
    right = BAT(dense_bat("str", ["a", "a", "b"]).tail, dense_bat("int", [1, 2, 3]).tail)
    result = kernel.outerjoin(left, right)
    assert not result.head.is_void
    assert result.to_pairs() == [(0, 1), (0, 2), (1, 3), (2, None)]
