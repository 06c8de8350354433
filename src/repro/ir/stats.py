"""Global collection statistics: the ``stats`` parameter of the paper's
ranking queries.

"... and stats is a structure that represents global statistics of the
whole collection" (Mirror paper, section 3).  For the inference network
belief functions we need, per CONTREP attribute:

* ``document_count`` (N),
* ``document_frequency`` per term (df),
* ``average_document_length`` (avgdl),
* optionally ``collection_frequency`` (cf, for diagnostics).

Statistics can be built from raw term lists, from an
:class:`repro.ir.index.InvertedIndex`, or gathered from the CONTREP
BATs living in a buffer pool (:meth:`CollectionStats.from_pool`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.ir.beliefs import normalized_idf
from repro.monet.bat import BAT, Column, StrColumn, column_from_values
from repro.monet.bbp import BATBufferPool


@dataclass
class CollectionStats:
    """Immutable snapshot of collection-wide term statistics."""

    document_count: int
    average_document_length: float
    document_frequency: Dict[str, int] = field(default_factory=dict)
    collection_frequency: Dict[str, int] = field(default_factory=dict)
    _idf_bat: Optional[BAT] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The vocabulary, sorted, as a str column on the term column's heap
    #: (statistics gathered from a pool), else ``None``.
    _terms: Optional[StrColumn] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_documents(cls, documents: Iterable[Mapping[str, int]]) -> "CollectionStats":
        """Build from per-document term-frequency mappings."""
        df: Dict[str, int] = {}
        cf: Dict[str, int] = {}
        total_length = 0
        count = 0
        for doc in documents:
            count += 1
            total_length += sum(doc.values())
            for term, tf in doc.items():
                df[term] = df.get(term, 0) + 1
                cf[term] = cf.get(term, 0) + tf
        avgdl = (total_length / count) if count else 0.0
        return cls(count, avgdl, df, cf)

    @classmethod
    def from_pool(cls, pool: BATBufferPool, prefix: str) -> "CollectionStats":
        """Gather statistics from the CONTREP BATs under *prefix*
        (``<collection>.<attr>``); see the CONTREP mapper for layout."""
        pool.lookup(f"{prefix}.owner")  # existence check: the mapper always writes it
        term = pool.lookup(f"{prefix}.term")
        tf = pool.lookup(f"{prefix}.tf")
        doclen = pool.lookup(f"{prefix}.doclen")
        document_count = len(doclen)
        lengths = doclen.tail_values()
        avgdl = float(lengths.mean()) if document_count else 0.0
        # One posting per (document, term): df counts a term's postings
        # and cf sums their tf, both per heap code of the term column.
        # Only terms with a posting count: a delete's survivors keep
        # their heap, so it may hold terms no document has any more.
        codes, heap = term.tail.codes, term.tail.heap
        coded = codes >= 0  # a NIL term has no code and counts nowhere
        codes = codes[coded]
        df_counts = np.bincount(codes, minlength=len(heap))
        cf_counts = np.bincount(codes, weights=tf.tail_values()[coded], minlength=len(heap))
        live = np.flatnonzero(df_counts)
        terms = heap.values_at(live).tolist()
        df = dict(zip(terms, df_counts[live].tolist()))
        cf = dict(zip(terms, cf_counts[live].astype(np.int64).tolist()))
        stats = cls(document_count, avgdl, df, cf)
        stats._terms = StrColumn(live[sorted(range(len(terms)), key=terms.__getitem__)], heap)
        return stats

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def df(self, term: str) -> int:
        """Document frequency of *term* (0 when unseen)."""
        return self.document_frequency.get(term, 0)

    def cf(self, term: str) -> int:
        """Collection frequency of *term* (0 when unseen)."""
        return self.collection_frequency.get(term, 0)

    def vocabulary(self) -> List[str]:
        return sorted(self.document_frequency)

    def idf(self, term: str) -> float:
        """InQuery normalized idf of *term*
        (:func:`repro.ir.beliefs.normalized_idf`; 0 when unseen)."""
        return normalized_idf(self.document_count, self.df(term))

    # ------------------------------------------------------------------
    # Physical bindings (for the flattening compiler)
    # ------------------------------------------------------------------
    def idf_bat(self) -> BAT:
        """[term(str), idf(dbl)] BAT the compiled getBL plans look the
        query terms up in (:func:`~repro.ir.beliefs.normalized_idf`).
        Built at the first bind and once per snapshot, so every bind
        shares one BAT; its head shares the term column's heap when the
        statistics were gathered from a pool."""
        if self._idf_bat is None:
            terms = self.vocabulary()
            dfs = np.array([self.document_frequency[t] for t in terms], dtype=float)
            self._idf_bat = BAT(
                self._terms if self._terms is not None else column_from_values("str", terms),
                Column("dbl", normalized_idf(self.document_count, dfs)),
                hsorted=True,
                hkey=True,
            )
        return self._idf_bat

    def mil_bindings(self, name: str) -> Dict[str, object]:
        """Environment variables the compiler expects for a stats
        parameter called *name*: ``<name>_idf`` (:meth:`idf_bat`, all
        a plan needs of N and df) and ``<name>_avgdl``."""
        return {
            f"{name}_idf": self.idf_bat(),
            f"{name}_avgdl": float(self.average_document_length)
            if self.average_document_length > 0
            else 1.0,
        }
