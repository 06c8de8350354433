"""Belief estimation for the inference network retrieval model.

The CONTREP structure "supports the ranking scheme known as the
inference network retrieval model.  This retrieval model is the basis
of the successful IR system InQuery." (Mirror paper, section 3.)

In that model the belief that document *d* supports concept (term) *t*
is estimated from term frequency and inverse document frequency with
the default-belief smoothing of Turtle & Croft / InQuery:

.. math::

    bel(t|d) = \\alpha + (1 - \\alpha) \\cdot ntf \\cdot nidf

    ntf  = tf / (tf + 0.5 + 1.5 \\cdot dl / avgdl)

    nidf = \\log((N + 0.5) / df) / \\log(N + 1)

with default belief :math:`\\alpha = 0.4`.  ``getBL`` -- the operator
the paper's queries call -- returns, per document, the *belief list* of
the query terms found in that document.  Both the scalar reference
implementation (used by the Moa interpreter) and the vectorized one
(used by the compiled MIL plans through multiplexed BAT arithmetic)
live here, so the two execution paths share one formula.  The idf is
a function of the term alone, and :func:`normalized_idf` is its one
formula: the scalar path, :func:`beliefs_array` and the per-term idf
BAT the compiled plans look query terms up in
(:meth:`repro.ir.stats.CollectionStats.idf_bat`) all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from repro.ir.stats import CollectionStats


@dataclass(frozen=True)
class BeliefParameters:
    """Tunable constants of the InQuery belief function."""

    default_belief: float = 0.4
    tf_k: float = 0.5
    tf_doclen_weight: float = 1.5

    def __post_init__(self):
        if not 0.0 <= self.default_belief < 1.0:
            raise ValueError("default belief must be in [0, 1)")


DEFAULT_PARAMETERS = BeliefParameters()


def default_belief(params: BeliefParameters = DEFAULT_PARAMETERS) -> float:
    """Belief contributed by a term with no evidence in the document."""
    return params.default_belief


def normalized_tf(
    tf: float,
    doc_length: float,
    average_doc_length: float,
    params: BeliefParameters = DEFAULT_PARAMETERS,
) -> float:
    """InQuery/Okapi-style saturating term-frequency normalization."""
    if tf <= 0:
        return 0.0
    avg = average_doc_length if average_doc_length > 0 else 1.0
    return tf / (tf + params.tf_k + params.tf_doclen_weight * doc_length / avg)


def normalized_idf(
    document_count: int, document_frequency: Union[int, np.ndarray]
) -> Union[float, np.ndarray]:
    """InQuery normalized idf in [0, 1], ``log((N + 0.5) / df) /
    log(N + 1)``, of one df (a float comes back) or of an array of dfs
    (a float64 array): 0 where df <= 0 or N <= 0.  The numerator is
    numpy's elementwise log and the denominator ``math.log`` of the
    scalar, the arithmetic of the compiled belief plans' ``[log]`` and
    ``log``, so every path gets the same bits."""
    dfs = np.asarray(document_frequency, dtype=np.float64)
    if document_count > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.log((document_count + 0.5) / dfs)
        idf = np.where(dfs > 0, ratios / math.log(document_count + 1.0), 0.0)
    else:
        idf = np.zeros(dfs.shape)
    return float(idf) if idf.ndim == 0 else idf


def belief(
    tf: float,
    doc_length: float,
    stats: CollectionStats,
    term: str,
    params: BeliefParameters = DEFAULT_PARAMETERS,
) -> float:
    """Scalar belief bel(term | document)."""
    ntf = normalized_tf(tf, doc_length, stats.average_document_length, params)
    nidf = normalized_idf(stats.document_count, stats.df(term))
    return params.default_belief + (1.0 - params.default_belief) * ntf * nidf


def beliefs_array(
    tfs: np.ndarray,
    doc_lengths: np.ndarray,
    dfs: np.ndarray,
    document_count: int,
    average_doc_length: float,
    params: BeliefParameters = DEFAULT_PARAMETERS,
) -> np.ndarray:
    """Vectorized belief computation over aligned posting arrays.

    This is the exact arithmetic the compiled MIL plans perform with
    multiplexed operators; factored out so tests can assert the two
    paths agree bitwise.
    """
    tfs = tfs.astype(np.float64)
    doc_lengths = doc_lengths.astype(np.float64)
    avg = average_doc_length if average_doc_length > 0 else 1.0
    ntf = tfs / (tfs + params.tf_k + params.tf_doclen_weight * doc_lengths / avg)
    nidf = normalized_idf(document_count, dfs)
    return params.default_belief + (1.0 - params.default_belief) * ntf * nidf


def belief_list(
    document: Mapping[str, int],
    doc_length: float,
    query_terms: Sequence[str],
    stats: CollectionStats,
    params: BeliefParameters = DEFAULT_PARAMETERS,
) -> List[float]:
    """Reference ``getBL``: beliefs of the query terms *present* in the
    document, one entry per matching (query term, posting) pair.

    Query terms absent from the document contribute nothing here --
    ranking by ``sum`` then effectively scores only matched terms, the
    set-at-a-time evaluation the Mirror DBMS performs physically.
    Duplicated query terms contribute once per occurrence (weighted
    queries by repetition).
    """
    out: List[float] = []
    for term in query_terms:
        tf = document.get(term, 0)
        if tf > 0:
            out.append(belief(tf, doc_length, stats, term, params))
    return out
