"""``text_rank``: the paper's Section 3 ranking query, in process.

Who waits: a library user calling ``MirrorDBMS.query``.  Closed loop,
one caller.  Storage is monolithic (``fragment_threshold=None``), so
the MIL interpreter and the monolithic ``monet.kernel`` joins do nearly
all the work; the service, the fragment layer and the WAL do none -- a
kernel or join gain shows here, a wire or WAL change must not.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import layers
import loadgen
from harness import WARMUP_OPS, Phase, Workload, closed_loop, dissect_items

from repro.core.mirror import MirrorDBMS
from repro.workloads import SECTION3_QUERY, TRADITIONAL_DDL

COLLECTION = "TraditionalImgLib"
ATTRIBUTE = "annotation"
#: Collection size.  30 000 documents put one query near 75 ms on the
#: reference box: >= 200 timed ops in a 20 s run, three set-ups in 7 s.
DOCS = 30_000
QUERY_POOL = 4_000
SCORE_TOLERANCE = 1e-9


class TextRank(Workload):
    name = "text_rank"
    CPUS = "last"

    def __init__(self, seed, tmp, rec):
        super().__init__(seed, tmp, rec)
        queries = loadgen.text_queries(seed, QUERY_POOL)
        self.ops_hash = loadgen.ops_hash(queries)
        self.queries = itertools.cycle(queries)
        self.sampled: List[List[str]] = queries[:2]

    def setup(self) -> None:
        rows = loadgen.text_rows(self.seed, DOCS)
        self.db = MirrorDBMS()
        self.db.define(TRADITIONAL_DDL)
        with self.rec.span("mapping.load"):
            self.db.replace(COLLECTION, rows)
        with self.rec.span("ir.stats"):
            self.stats = self.db.stats(COLLECTION, ATTRIBUTE)

    def _params(self, query: List[str]) -> Dict[str, object]:
        return {"query": query, "stats": self.stats}

    def op(self, query: List[str]) -> bool:
        result = self.db.query(SECTION3_QUERY, self._params(query))
        return len(result.value) == DOCS

    def warmup(self) -> None:
        for _ in range(WARMUP_OPS):
            self.op(next(self.queries))

    def run(self, seconds: float, traced: bool = False) -> Phase:
        return closed_loop(
            self.op, self.queries, seconds,
            self.rec if traced else None, self.request_ids,
        )

    def dissect(self, seconds: float) -> None:
        counts: Dict[str, int] = {}
        for query in dissect_items(self.sampled[0], self.queries, seconds * 0.8):
            _, plan = layers.dissect_moa(
                self.rec, self.db, SECTION3_QUERY, self._params(query),
                next(self.request_ids),
            )
            counts = counts or plan
        layers.run_cases(
            self.rec,
            layers.kernel_cases(
                *layers.contrep_probe_bats(self.db.pool, COLLECTION, ATTRIBUTE),
                bounds=(1, 2), groups=DOCS,
            ),
        )
        self.counts.update(
            {
                "moa.plan_statements": counts["statements"],
                "mil.op_calls": counts["op_calls"],
            }
        )

    def verify(self) -> List[str]:
        failures = []
        for query in self.sampled:
            compiled = self.db.query(SECTION3_QUERY, self._params(query)).value
            reference = self.db.query_interpreted(
                SECTION3_QUERY, self._params(query)
            )
            if len(compiled) != DOCS or len(reference) != DOCS:
                failures.append(
                    f"{query}: {len(compiled)} compiled / {len(reference)} "
                    f"interpreted scores for {DOCS} documents"
                )
                continue
            worst = max(abs(a - b) for a, b in zip(compiled, reference))
            if worst > SCORE_TOLERANCE:
                failures.append(
                    f"{query}: compiled scores differ from query_interpreted "
                    f"by {worst:g}"
                )
        return failures
