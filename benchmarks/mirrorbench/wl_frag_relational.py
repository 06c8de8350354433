"""``frag_relational``: relational MIL pipelines over fragmented BATs.

Who waits: an analyst running MIL over large registrations.  Closed
loop, one caller.  One op is three MIL programs back to back through
``MILInterpreter`` on a pool of **fragmented** registrations: select ->
join -> sum (the E11 shape), select -> tsort -> count, and a grace
``join`` -> max.  ``monet.fragments`` dispatch, backends, the
sample-sort merge and the grace join do the work; Moa, the service and
the WAL do none.  The composite op keeps latency unimodal, so a gain in
any one pipeline moves the median.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import numpy as np

import layers
import loadgen
from harness import WARMUP_OPS, Phase, Workload, closed_loop, dissect_items

from repro.monet import fragments
from repro.monet.bat import BAT, Column, VoidColumn
from repro.monet.bbp import BATBufferPool
from repro.monet.mil import MILInterpreter

#: Fact BUNs: five default-size (65 536) fragments, above the parallel
#: threshold (262 144), one composite op near 190 ms on the reference
#: box -- >= 100 timed ops in a 20 s run.
FACT_BUNS = 320_000
OP_POOL = 2_000
SUM_TOLERANCE = 1e-9
#: Ops re-run on the monolithic reference after the timed phase.
CHECKED_OPS = 4

PROGRAMS = (
    's := bat("fact").select(oid({lo}), oid({hi}));'
    ' j := s.join(bat("dim"));'
    ' sum(j);',
    's := bat("vals").select({lo2}, {hi2});'
    ' t := s.tsort;'
    ' count(t);',
    'j := bat("big").join(bat("bdim"));'
    ' max(j);',
)


def _bats(arrays: Dict[str, np.ndarray]) -> Dict[str, BAT]:
    n = len(arrays["fact"])
    return {
        "fact": BAT(VoidColumn(0, n), Column("oid", arrays["fact"])),
        "dim": BAT(Column("oid", arrays["dim_head"]), Column("dbl", arrays["dim_tail"])),
        "vals": BAT(VoidColumn(0, n), Column("int", arrays["vals"])),
        "big": BAT(VoidColumn(0, n), Column("oid", arrays["big"])),
        "bdim": BAT(Column("oid", arrays["bdim_head"]), Column("int", arrays["bdim_tail"])),
    }


def _same_buns(a: BAT, b: BAT) -> bool:
    return (
        len(a) == len(b)
        and np.array_equal(a.head_values(), b.head_values())
        and np.array_equal(a.tail_values(), b.tail_values())
    )


class FragRelational(Workload):
    name = "frag_relational"

    def __init__(self, seed, tmp, rec):
        super().__init__(seed, tmp, rec)
        ops = loadgen.relational_ops(seed, OP_POOL)
        self.ops_hash = loadgen.ops_hash(ops)
        self.ops = itertools.cycle(ops)
        self.checked = ops[:CHECKED_OPS]

    def setup(self) -> None:
        self.bats = _bats(loadgen.relational_arrays(self.seed, FACT_BUNS))
        mono_pool, frag_pool = BATBufferPool(), BATBufferPool()
        for name, bat in self.bats.items():
            mono_pool.register(name, bat)
            frag_pool.register_fragmented(name, fragments.fragment_bat(bat))
        self.mono = MILInterpreter(mono_pool)
        self.frag = MILInterpreter(frag_pool)

    def op(self, params: Dict[str, int]) -> bool:
        values = [
            self.frag.run(program.format(**params)).value for program in PROGRAMS
        ]
        return all(value is not None for value in values)

    def warmup(self) -> None:
        for _ in range(WARMUP_OPS):
            self.op(next(self.ops))

    def run(self, seconds: float, traced: bool = False) -> Phase:
        return closed_loop(
            self.op, self.ops, seconds,
            self.rec if traced else None, self.request_ids,
        )

    def dissect(self, seconds: float) -> None:
        rec = self.rec
        snapshot = self.frag.pool.read_snapshot()
        fb = {name: snapshot.lookup_fragments(name) for name in self.bats}
        counts: Dict[str, int] = {}
        for params in dissect_items(self.checked[0], self.ops, seconds * 0.7):
            with rec.span("dissect", next(self.request_ids)):
                op_calls = 0
                for program in PROGRAMS:
                    _, plan = layers.dissect_mil(
                        rec, self.frag, program.format(**params), {}
                    )
                    op_calls += plan["op_calls"]
                # The same op as direct calls into monet.fragments.
                with rec.span("fragments.direct"):
                    with rec.span("fragments.select"):
                        s = fragments.select(fb["fact"], params["lo"], params["hi"])
                    with rec.span("fragments.join"):
                        j = fragments.join(s, fb["dim"])
                    with rec.span("fragments.sum"):
                        fragments.sum_(j)
                    with rec.span("fragments.select"):
                        s2 = fragments.select(fb["vals"], params["lo2"], params["hi2"])
                    with rec.span("fragments.tsort"):
                        fragments.tsort(s2)
                    with rec.span("fragments.join"):
                        j3 = fragments.join(fb["big"], fb["bdim"])
                    with rec.span("fragments.max"):
                        fragments.max_(j3)
            counts = counts or {
                "mil.op_calls": op_calls,
                "fragments.out_fragments": s.nfragments + j.nfragments,
            }
        probe = dict(bounds=(250_000, 750_000))
        keys, dim, values = self.bats["fact"], self.bats["dim"], self.bats["vals"]
        layers.run_cases(
            rec, layers.kernel_cases(keys, dim, values, groups=1000, **probe)
        )
        cases, _ = layers.fragment_cases(keys, dim, values, **probe)
        per_op = ("fragments.select", "fragments.join", "fragments.tsort",
                  "fragments.sum")
        layers.run_cases(
            rec, {name: case for name, case in cases.items() if name not in per_op}
        )
        self.counts.update(counts)

    def verify(self) -> List[str]:
        """Sampled ops, fragmented against the monolithic interpreter:
        every BAT the programs bind BUN-identical, scalars equal (the
        dbl sum to rounding: fragments accumulate in another order)."""
        failures = []
        for params in self.checked:
            for program in PROGRAMS:
                source = program.format(**params)
                got, want = self.frag.run(source), self.mono.run(source)
                for name, reference in want.env.items():
                    candidate = got.env[name]
                    if isinstance(candidate, fragments.FragmentedBAT):
                        candidate = candidate.to_bat()
                    if not _same_buns(candidate, reference):
                        failures.append(f"{source!r}: {name} is not BUN-identical")
                if isinstance(want.value, float):
                    scale = max(1.0, abs(want.value))
                    same = abs(got.value - want.value) <= SUM_TOLERANCE * scale
                else:
                    same = got.value == want.value
                if not same:
                    failures.append(
                        f"{source!r}: fragmented {got.value!r} != "
                        f"monolithic {want.value!r}"
                    )
        return failures
