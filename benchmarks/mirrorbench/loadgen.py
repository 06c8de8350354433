"""Seeded input generators.

Every byte the program sees in a run -- the loaded collections and the
op sequence -- is a pure function of ``--seed``: same seed, same
inputs, same :func:`ops_hash`.  Each workload draws from its own named
stream (``random.Random("<workload>:<seed>")``), so adding a workload
never perturbs another workload's inputs.

The collection generators reuse :mod:`repro.workloads` (the library's
own Zipf-ish annotation and visual-word generators and the paper's two
ranking queries); only the op streams and the relational BATs are new.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List

import numpy as np

from repro.workloads import VOCABULARY, synth_annotations, visual_word_rows

#: 1/rank weights over :data:`repro.workloads.VOCABULARY` (the same law
#: the annotations are drawn from, so frequent query terms hit long
#: posting lists).
ZIPF_WEIGHTS = [1.0 / (rank + 1) for rank in range(len(VOCABULARY))]

#: Feature spaces of :func:`repro.workloads.visual_word_rows`.
FEATURE_SPACES = ["rgb", "hsv", "gabor", "glcm", "autocorr", "laws"]

VISITS_DDL = (
    "define Visits as SET<TUPLE<Atomic<int>: visitor, "
    "Atomic<int>: page, Atomic<int>: dwell>>;"
)

#: Visitor ids of transaction-inserted ``Visits`` rows start here, far
#: above the preloaded ids, so a recovered store can be checked commit
#: by commit.
TXN_VISITOR_BASE = 1_000_000
TXN_DWELL_BASE = 100_000


def _stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _distinct_weighted(rng: random.Random, population, weights, k: int) -> list:
    picked: list = []
    while len(picked) < k:
        choice = rng.choices(population, weights=weights, k=1)[0]
        if choice not in picked:
            picked.append(choice)
    return picked


# -- text_rank -----------------------------------------------------------
def text_rows(seed: int, count: int) -> List[dict]:
    return synth_annotations(count, seed=seed)


def text_queries(seed: int, count: int, terms: int = 3) -> List[List[str]]:
    """*count* queries of *terms* distinct vocabulary words, Zipf-wise."""
    rng = _stream("text_rank", seed)
    return [
        _distinct_weighted(rng, VOCABULARY, ZIPF_WEIGHTS, terms)
        for _ in range(count)
    ]


# -- svc_image_rank ------------------------------------------------------
def image_rows(seed: int, count: int, clusters: int) -> List[dict]:
    return visual_word_rows(count, seed=seed, clusters=clusters)


def image_queries(
    seed: int, count: int, clusters: int, words: int = 6
) -> List[List[str]]:
    """*count* queries of *words* distinct visual words."""
    rng = _stream("svc_image_rank", seed)
    vocabulary = [f"{s}_{c}" for s in FEATURE_SPACES for c in range(clusters)]
    return [rng.sample(vocabulary, words) for _ in range(count)]


# -- frag_relational -----------------------------------------------------
def relational_arrays(seed: int, n: int) -> Dict[str, np.ndarray]:
    """Column arrays of the five relational BATs at *n* fact BUNs:
    ``fact`` [void,oid] -> 1000-row ``dim`` [oid,dbl]; ``vals``
    [void,int]; ``big`` [void,oid] -> ``bdim`` [oid,int] of n/5 rows."""
    rng = np.random.default_rng([seed, n])
    m = n // 5
    return {
        "fact": rng.integers(0, 1000, n).astype(np.int64),
        "dim_head": rng.permutation(1000).astype(np.int64),
        "dim_tail": rng.random(1000),
        "vals": rng.integers(0, 1_000_000, n).astype(np.int64),
        "big": rng.integers(0, m, n).astype(np.int64),
        "bdim_head": rng.permutation(m).astype(np.int64),
        "bdim_tail": rng.integers(0, 1_000_000, m).astype(np.int64),
    }


def relational_ops(seed: int, count: int) -> List[Dict[str, int]]:
    """Range parameters of the composite op: a ~70 % oid range on
    ``fact`` and a 50 % int range on ``vals`` (the grace join has none)."""
    rng = _stream("frag_relational", seed)
    ops = []
    for _ in range(count):
        lo = rng.randrange(0, 300)
        lo2 = rng.randrange(0, 500_000)
        ops.append({"lo": lo, "hi": lo + 700, "lo2": lo2, "hi2": lo2 + 500_000})
    return ops


# -- txn_mixed -----------------------------------------------------------
def visits_rows(seed: int, count: int) -> List[dict]:
    rng = _stream("txn_mixed.visits", seed)
    return [
        {
            "visitor": rng.randrange(10_000),
            "page": rng.randrange(5_000),
            "dwell": rng.randrange(1_000),
        }
        for _ in range(count)
    ]


def txn_commits(seed: int, count: int, docs: int = 4, visits: int = 4) -> List[dict]:
    """Commit *k* inserts *docs* documents and *visits* ``Visits`` rows
    of visitor ``TXN_VISITOR_BASE + k`` and patches the dwell of the
    previous commit's rows to ``TXN_DWELL_BASE + k`` (commit 0 patches
    nothing that exists, like an update that matches no row)."""
    annotations = synth_annotations(count * docs, seed=seed + 7919)
    commits = []
    for k in range(count):
        batch = annotations[k * docs:(k + 1) * docs]
        commits.append(
            {
                "k": k,
                "docs": [
                    {"source": f"http://txn/{k:05d}/{j}", "annotation": r["annotation"]}
                    for j, r in enumerate(batch)
                ],
                "visits": [
                    {"visitor": TXN_VISITOR_BASE + k, "page": j, "dwell": 0}
                    for j in range(visits)
                ],
                "update": {
                    "set": {"dwell": TXN_DWELL_BASE + k},
                    "where": {"visitor": TXN_VISITOR_BASE + k - 1},
                },
            }
        )
    return commits


def user_bytes(rows: List[dict]) -> int:
    """Bytes of user data in *rows*: UTF-8 text, eight bytes per int."""
    total = 0
    for row in rows:
        for value in row.values():
            if isinstance(value, str):
                total += len(value.encode("utf-8"))
            else:
                total += 8
    return total


def ops_hash(ops: Any) -> str:
    """Stable fingerprint of an op list (recorded in every result)."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
