"""Inverted file laid out as BATs.

This is the physical shape of a CONTREP attribute (the same four BATs
the Moa mapper registers in a buffer pool), packaged standalone so IR
code and the daemons can build and query content representations
without going through the logical layer:

* ``owner``  -- [void posting, doc-id]
* ``term``   -- [void posting, str]
* ``tf``     -- [void posting, int]
* ``doclen`` -- [void doc-id, int]

Document ids are dense 0..N-1, the per-collection oid discipline of
:mod:`repro.moa.mapping`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.ir.beliefs import BeliefParameters, DEFAULT_PARAMETERS, beliefs_array
from repro.ir.stats import CollectionStats
from repro.monet.bat import BAT, Column, VoidColumn, column_from_values
from repro.monet.bbp import BATBufferPool


class InvertedIndex:
    """Posting-list index over dense documents 0..N-1."""

    def __init__(self, documents: Sequence[Mapping[str, int]]):
        owners: List[int] = []
        terms: List[str] = []
        tfs: List[int] = []
        lengths: List[int] = []
        for doc_id, doc in enumerate(documents):
            length = 0
            for term, tf in sorted(doc.items()):
                if tf <= 0:
                    continue
                owners.append(doc_id)
                terms.append(term)
                tfs.append(int(tf))
                length += int(tf)
            lengths.append(length)
        self._owners = np.asarray(owners, dtype=np.int64)
        self._terms = np.array(terms, dtype=object)
        self._tfs = np.asarray(tfs, dtype=np.int64)
        self._lengths = np.asarray(lengths, dtype=np.int64)
        self.stats = CollectionStats.from_documents(documents)

    # ------------------------------------------------------------------
    @property
    def document_count(self) -> int:
        return len(self._lengths)

    @property
    def posting_count(self) -> int:
        return len(self._owners)

    def document_length(self, doc_id: int) -> int:
        return int(self._lengths[doc_id])

    def postings(self, term: str) -> List[Tuple[int, int]]:
        """(doc-id, tf) pairs for *term*, in doc order."""
        mask = self._terms == term
        return [
            (int(d), int(f))
            for d, f in zip(self._owners[mask], self._tfs[mask])
        ]

    # ------------------------------------------------------------------
    def term_beliefs(
        self,
        term: str,
        params: BeliefParameters = DEFAULT_PARAMETERS,
    ) -> np.ndarray:
        """Per-document belief vector for one term; documents without
        the term get the default belief."""
        out = np.full(self.document_count, params.default_belief)
        mask = self._terms == term
        if not mask.any():
            return out
        docs = self._owners[mask]
        tfs = self._tfs[mask]
        dfs = np.full(len(docs), self.stats.df(term), dtype=np.float64)
        values = beliefs_array(
            tfs,
            self._lengths[docs],
            dfs,
            self.stats.document_count,
            self.stats.average_document_length,
            params,
        )
        out[docs] = values
        return out

    def score_sum(
        self,
        query_terms: Sequence[str],
        params: BeliefParameters = DEFAULT_PARAMETERS,
    ) -> np.ndarray:
        """Sum-of-matched-beliefs scores (the paper's ranking query):
        vectorized equivalent of ``map[sum(THIS)](map[getBL(...)](...))``."""
        scores = np.zeros(self.document_count)
        for term in query_terms:
            mask = self._terms == term
            if not mask.any():
                continue
            docs = self._owners[mask]
            dfs = np.full(len(docs), self.stats.df(term), dtype=np.float64)
            values = beliefs_array(
                self._tfs[mask],
                self._lengths[docs],
                dfs,
                self.stats.document_count,
                self.stats.average_document_length,
                params,
            )
            np.add.at(scores, docs, values)
        return scores

    # ------------------------------------------------------------------
    def as_bats(self) -> Dict[str, BAT]:
        """The four CONTREP BATs."""
        return {
            "owner": BAT(VoidColumn(0, len(self._owners)), Column("oid", self._owners)),
            "term": BAT(VoidColumn(0, len(self._terms)), column_from_values("str", self._terms)),
            "tf": BAT(VoidColumn(0, len(self._tfs)), Column("int", self._tfs)),
            "doclen": BAT(VoidColumn(0, len(self._lengths)), Column("int", self._lengths)),
        }

    def register(self, pool: BATBufferPool, prefix: str) -> None:
        """Register the four BATs under ``<prefix>.<name>``."""
        for name, bat in self.as_bats().items():
            pool.register(f"{prefix}.{name}", bat, replace=True)

    @classmethod
    def from_pool(cls, pool: BATBufferPool, prefix: str) -> "InvertedIndex":
        """Rebuild an index object from pool BATs (inverse of register)."""
        owner = pool.lookup(f"{prefix}.owner").tail_values()
        term = pool.lookup(f"{prefix}.term").tail_values()
        tf = pool.lookup(f"{prefix}.tf").tail_values()
        doclen = pool.lookup(f"{prefix}.doclen").tail_values()
        documents: List[Dict[str, int]] = [dict() for _ in range(len(doclen))]
        for i in range(len(owner)):
            documents[int(owner[i])][term[i]] = int(tf[i])
        return cls(documents)
