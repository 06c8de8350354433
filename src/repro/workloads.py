"""Workload generators for the benchmark harness (deliverable d).

The benchmark (``BENCHMARK.json``, ``benchmarks/mirrorbench``) and the
``benchmarks/bench_*.py`` sweeps draw their data from these generators
so numbers across benches are comparable.  All generation is seeded
and deterministic:

* :func:`synth_annotations` -- annotated-image rows with Zipf-ish term
  frequencies (the text side of the library);
* :func:`build_text_db` -- a loaded ``TraditionalImgLib`` MirrorDBMS;
* :func:`interpreter_data` -- the same rows as Python values for the
  tuple-at-a-time baseline;
* :func:`visual_word_rows` -- ``ImageLibraryInternal`` rows with
  synthetic visual words (the content side).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.mirror import MirrorDBMS
from repro.ir.stats import CollectionStats
from repro.moa.structures.contrep import ContentRepresentation

#: Vocabulary for synthetic annotations, sampled with 1/rank weights.
VOCABULARY = [
    "sunset", "beach", "sea", "wave", "sand", "forest", "green", "tree",
    "leaf", "mountain", "snow", "rock", "peak", "city", "night", "light",
    "building", "ocean", "blue", "water", "desert", "dune", "dry", "sky",
    "red", "orange", "cloud", "storm", "river", "valley", "bridge", "road",
]

_WEIGHTS = [1.0 / (rank + 1) for rank in range(len(VOCABULARY))]

TRADITIONAL_DDL = """
define TraditionalImgLib as
SET<
  TUPLE<
    Atomic<URL>: source,
    CONTREP<Text>: annotation
  >>;
"""

INTERNAL_DDL = """
define ImageLibraryInternal as
SET<
  TUPLE<
    Atomic<URL>: source,
    CONTREP<Text>: annotation,
    CONTREP<Image>: image
  >>;
"""

#: The paper's section 3 ranking query.
SECTION3_QUERY = (
    "map[sum(THIS)]("
    "map[getBL(THIS.annotation, query, stats)](TraditionalImgLib));"
)

#: The section 5.2 content ranking query.
SECTION5_QUERY = (
    "map[sum(THIS)]("
    "map[getBL(THIS.image, query, stats)](ImageLibraryInternal));"
)


def synth_annotations(
    count: int, *, seed: int = 0, words_per_doc: int = 8
) -> List[dict]:
    """Synthetic annotated-image rows with Zipf-ish term frequencies."""
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        words = rng.choices(VOCABULARY, weights=_WEIGHTS, k=words_per_doc)
        rows.append(
            {
                "source": f"http://synthetic/{index:06d}",
                "annotation": " ".join(words),
            }
        )
    return rows


def build_text_db(
    count: int, *, seed: int = 0
) -> Tuple[MirrorDBMS, CollectionStats, List[dict]]:
    """(db, stats, rows) for a TraditionalImgLib of *count* documents."""
    db = MirrorDBMS()
    db.define(TRADITIONAL_DDL)
    rows = synth_annotations(count, seed=seed)
    db.replace("TraditionalImgLib", rows)
    stats = db.stats("TraditionalImgLib", "annotation")
    return db, stats, rows


def interpreter_data(rows: List[dict]) -> Dict[str, List[dict]]:
    """The same rows as Python values for the reference interpreter."""
    return {
        "TraditionalImgLib": [
            {
                "source": r["source"],
                "annotation": ContentRepresentation.from_value(
                    r["annotation"], "Text"
                ),
            }
            for r in rows
        ]
    }


def visual_word_rows(
    count: int,
    *,
    seed: int = 0,
    clusters: int = 40,
    words_per_image: int = 24,
) -> List[dict]:
    """ImageLibraryInternal rows with synthetic visual words."""
    rng = random.Random(seed)
    spaces = ["rgb", "hsv", "gabor", "glcm", "autocorr", "laws"]
    rows = []
    for index in range(count):
        tokens = [
            f"{rng.choice(spaces)}_{rng.randrange(clusters)}"
            for _ in range(words_per_image)
        ]
        rows.append(
            {
                "source": f"http://synthetic/{index:06d}",
                "annotation": " ".join(
                    rng.choices(VOCABULARY, weights=_WEIGHTS, k=5)
                ),
                "image": tokens,
            }
        )
    return rows


def build_internal_db(
    count: int, *, seed: int = 0, clusters: int = 40
) -> Tuple[MirrorDBMS, CollectionStats, List[dict]]:
    """(db, image-stats, rows) for an ImageLibraryInternal collection."""
    db = MirrorDBMS()
    db.define(INTERNAL_DDL)
    rows = visual_word_rows(count, seed=seed, clusters=clusters)
    db.replace("ImageLibraryInternal", rows)
    stats = db.stats("ImageLibraryInternal", "image")
    return db, stats, rows


def best_of(fn, repetitions: int = 3) -> float:
    """Best-of-N wall-clock timing with one warmup call (the measuring
    convention of every standalone bench report)."""
    import time

    fn()  # warmup: JIT-less but populates caches and allocators
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
