"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.core.mirror import MirrorDBMS
from repro.moa.structures.contrep import ContentRepresentation
from repro.monet import tuning
from repro.monet.bat import BAT, StrColumn
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import (
    FragmentationPolicy,
    FragmentedBAT,
    fragment_bat,
)

#: The layout axis of the fragment differential suites.  Both are BUN
#: ranges in BUN order (the only layout the kernel has): ``range`` is
#: :func:`fragment_bat`'s even split, ``ragged`` the uneven shape that
#: selects, tombstones and delta tails really leave behind.
STRATEGIES = ("range", "ragged")


def fragment_layout(
    bat: BAT, strategy: str, policy: FragmentationPolicy
) -> FragmentedBAT:
    """Fragment *bat* under one of :data:`STRATEGIES`.  ``ragged`` cuts
    a 1-BUN fragment, an empty one, one of more than twice the target
    size, then target-sized ones (all slice views, clipped to the BAT's
    length)."""
    if strategy == "range":
        return fragment_bat(bat, policy)
    assert strategy == "ragged", strategy
    n, target = len(bat), policy.target_size
    bounds = [0]
    for width in (1, 0, 2 * target + 1):
        bounds.append(min(n, bounds[-1] + width))
    while bounds[-1] < n:
        bounds.append(min(n, bounds[-1] + target))
    return FragmentedBAT(
        [bat.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])],
        policy=policy,
        name=bat.name,
    )


def assert_codes_decode(column, context: str = "") -> None:
    """A str column's codes name its values in its heap: every code
    below the heap's length, -1 exactly at NIL, and each value's code
    the one the heap's map gives it (void and fixed columns pass)."""
    if not isinstance(column, StrColumn):
        return
    codes, heap = column.codes, column.heap
    assert codes.dtype.kind == "i", f"{context}: codes are {codes.dtype}"
    assert codes.min(initial=0) >= -1 and codes.max(initial=-1) < len(heap), context
    values = column.materialize().tolist()
    expected = [-1 if v is None else heap.index[v] for v in values]
    assert codes.tolist() == expected, f"{context}: codes do not decode"


#: One element type per structure mapper, with its payload as a
#: function of a row number (a NIL or an empty collection every few
#: rows): the axis of the write-path differentials and the crash-copy
#: durability gate.
CRASH_SHAPES = {
    "tuple": ("Atomic<int>", lambda i: None if i % 4 == 3 else i * 10),
    "set": (
        "SET<Atomic<int>>",
        lambda i: [i, i + 1, None][: i % 4],
    ),
    "list": (
        "LIST<Atomic<str>>",
        lambda i: [f"w{i}", None, f"w{i}"][: i % 4],
    ),
    "set-of-set": (
        "SET<TUPLE<Atomic<str>: a, SET<TUPLE<Atomic<int>: b>>: inner>>",
        lambda i: [
            {"a": f"a{i}.{j}", "inner": [{"b": i * j + m} for m in range(j)]}
            for j in range(i % 3)
        ],
    ),
    "contrep": (
        "CONTREP<Text>",
        lambda i: ["", None, "sea sunset sea", "storm wave sand sea"][i % 4],
    ),
}


@pytest.fixture
def pool():
    return BATBufferPool()


@pytest.fixture
def tuning_override():
    """``tuning_override(**changes)`` forces tuning knobs on the single
    live record (:func:`repro.monet.tuning.override`) until the test
    ends."""
    with contextlib.ExitStack() as stack:

        def force(**changes):
            return stack.enter_context(tuning.override(**changes))

        force()
        yield force


@pytest.fixture
def fan_out_on_tiny_inputs(tuning_override):
    """Serial floor at zero: multi-fragment operators fan out on the
    shared pool however tiny the input (they would otherwise take the
    serial shortcut), so a differential comparison covers the parallel
    code path.  Modules whose every test needs it say
    ``pytestmark = pytest.mark.usefixtures("fan_out_on_tiny_inputs")``."""
    tuning_override(parallel_min=0)


ANNOTATED_DOCS = [
    {"source": "http://img/1", "annotation": "a red sunset over the sea"},
    {"source": "http://img/2", "annotation": "green forest with tall trees"},
    {"source": "http://img/3", "annotation": "sunset beach with red sky and sea waves"},
    {"source": "http://img/4", "annotation": "a city skyline at night"},
    {"source": "http://img/5", "annotation": "waves crashing on the beach at sunset"},
    {"source": "http://img/6", "annotation": "a quiet green meadow"},
]

TRADITIONAL_DDL = """
define TraditionalImgLib as
SET<
  TUPLE<
    Atomic<URL>: source,
    CONTREP<Text>: annotation
  >>;
"""

#: The paper's section 3 ranking query, verbatim modulo whitespace.
SECTION3_QUERY = (
    "map[sum(THIS)]("
    "map[getBL(THIS.annotation, query, stats)]( TraditionalImgLib ));"
)


@pytest.fixture
def annotated_db():
    """A MirrorDBMS loaded with the paper's section 3 example library."""
    db = MirrorDBMS()
    db.define(TRADITIONAL_DDL)
    db.insert("TraditionalImgLib", ANNOTATED_DOCS)
    return db


@pytest.fixture
def annotated_stats(annotated_db):
    return annotated_db.stats("TraditionalImgLib", "annotation")


@pytest.fixture
def annotated_reps():
    return [
        ContentRepresentation.from_value(d["annotation"], "Text")
        for d in ANNOTATED_DOCS
    ]


@pytest.fixture
def annotated_data(annotated_reps):
    """The same library as Python values for the reference interpreter."""
    return {
        "TraditionalImgLib": [
            {"source": d["source"], "annotation": rep}
            for d, rep in zip(ANNOTATED_DOCS, annotated_reps)
        ]
    }
