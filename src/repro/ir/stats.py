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

from repro.monet.bat import BAT, bat_from_pairs
from repro.monet.bbp import BATBufferPool


@dataclass
class CollectionStats:
    """Immutable snapshot of collection-wide term statistics."""

    document_count: int
    average_document_length: float
    document_frequency: Dict[str, int] = field(default_factory=dict)
    collection_frequency: Dict[str, int] = field(default_factory=dict)
    _df_bat: Optional[BAT] = field(
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
        # and cf sums their tf, both per dictionary code of the term
        # column -- whose encoding this also warms for the first query.
        codes, dictionary = term.tail.encoding()
        coded = codes >= 0  # a NIL term has no code and counts nowhere
        codes = codes[coded]
        df_counts = np.bincount(codes, minlength=len(dictionary))
        cf_counts = np.bincount(
            codes, weights=tf.tail_values()[coded], minlength=len(dictionary)
        )
        df = dict(zip(dictionary, df_counts.tolist()))
        cf = dict(zip(dictionary, cf_counts.astype(np.int64).tolist()))
        return cls(document_count, avgdl, df, cf)

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
        """InQuery normalized idf: log((N+0.5)/df) / log(N+1)."""
        n = self.document_count
        d = self.df(term)
        if n == 0 or d == 0:
            return 0.0
        return float(np.log((n + 0.5) / d) / np.log(n + 1.0))

    # ------------------------------------------------------------------
    # Physical bindings (for the flattening compiler)
    # ------------------------------------------------------------------
    def df_bat(self) -> BAT:
        """[term(str), df(int)] BAT used by compiled getBL plans; built
        once per snapshot, so every bind shares one BAT (and with it
        the dictionary encoding of its head)."""
        if self._df_bat is None:
            pairs = sorted(self.document_frequency.items())
            self._df_bat = bat_from_pairs("str", "int", pairs)
        return self._df_bat

    def mil_bindings(self, name: str) -> Dict[str, object]:
        """Environment variables the compiler expects for a stats
        parameter called *name*: ``<name>_df``, ``<name>_N``,
        ``<name>_avgdl``."""
        return {
            f"{name}_df": self.df_bat(),
            f"{name}_N": int(self.document_count),
            f"{name}_avgdl": float(self.average_document_length)
            if self.average_document_length > 0
            else 1.0,
        }
