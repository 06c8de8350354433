"""Extending Moa with a new structure: the paper's open-system claim.

"It is an open complex object system, supporting extensibility of
structures.  Thus, new structures can be added to the system"
(section 2).  CONTREP is the paper's showcase; this example adds a
*new* domain-specific structure -- ``INTERVAL`` (a closed numeric
range) -- from scratch, using exactly the same three registries:

1. a structure type + DDL factory (``register_structure``);
2. a physical mapper laying intervals out as lo/hi BATs
   (``register_mapper``);
3. a logical operation ``contains(interval, x)`` with typecheck,
   interpreter and *compiler* hooks, so it runs set-at-a-time in MIL.

Nothing inside repro.moa is modified.

Run:  python examples/extending_moa.py
"""

from dataclasses import dataclass

from repro.core import MirrorDBMS
from repro.moa.compiler import AtomCol, ResultRep, register_attr_rep
from repro.moa.errors import MoaTypeError
from repro.moa.functions import register_compile_hook, register_function
from repro.moa.mapping import StructureMapper, append_attribute, register_mapper
from repro.moa.types import AtomicType, MoaType, register_structure


# -- 1. the structure type ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalType(MoaType):
    """INTERVAL<base>: a closed numeric range [lo, hi]."""

    base: str
    structure = "INTERVAL"

    def render(self) -> str:
        return f"INTERVAL<{self.base}>"


def _interval_factory(args):
    if len(args) != 1 or not isinstance(args[0], str):
        raise MoaTypeError("INTERVAL takes one base-type name")
    return IntervalType(args[0])


register_structure("INTERVAL", _interval_factory)


# -- 2. the physical mapper ---------------------------------------------------


class IntervalMapper(StructureMapper):
    """INTERVAL attribute -> <prefix>.lo and <prefix>.hi BATs.

    The five hooks: the BATs it owns, how to read them back, and the
    append / delete / update deltas (loading is appending to the empty
    BATs ``bat_names`` lists)."""

    def bat_names(self, prefix, ty):
        return [(f"{prefix}.lo", "dbl"), (f"{prefix}.hi", "dbl")]

    def reconstruct(self, pool, prefix, ty, count):
        los = pool.lookup(f"{prefix}.lo").tail_list()
        his = pool.lookup(f"{prefix}.hi").tail_list()
        return list(zip(los, his))

    def append(self, pool, prefix, ty, values, offset):
        append_attribute(pool, f"{prefix}.lo", [v[0] for v in values])
        append_attribute(pool, f"{prefix}.hi", [v[1] for v in values])

    def delete(self, pool, prefix, ty, positions):
        pool.delete(f"{prefix}.lo", positions)
        pool.delete(f"{prefix}.hi", positions)

    def update(self, pool, prefix, ty, positions, values):
        pool.update(f"{prefix}.lo", positions, [v[0] for v in values])
        pool.update(f"{prefix}.hi", positions, [v[1] for v in values])


register_mapper(IntervalType, IntervalMapper())


# -- 3. the logical operation -------------------------------------------------

# Compile-time reps: a lazy one remembering where the BATs live, and a
# materialized one that knows how to come back as Python values.  The
# lazy rep's `gather` field and `finalize_rep` are the compiler's
# duck-typed extension protocol; the materialized rep is a `ResultRep`
# naming its leaf columns, so the same `rebuild` runs in process and in
# a service client that imported this module.


@dataclass
class IntervalCols(ResultRep):
    lo: str
    hi: str

    LEAVES = ("lo", "hi")

    def rebuild(self, column, count):
        return list(zip(column(self.lo), column(self.hi)))


@dataclass
class IntervalLazy:
    prefix: str
    gather: str

    def finalize_rep(self, compiler):
        lo = compiler.emit(f'{self.gather}.join(bat("{self.prefix}.lo"))', "lo")
        hi = compiler.emit(f'{self.gather}.join(bat("{self.prefix}.hi"))', "hi")
        return IntervalCols(lo, hi)


register_attr_rep("IntervalType", lambda c, prefix, ty, g: IntervalLazy(prefix, g))


def _tc_contains(arg_types):
    if len(arg_types) != 2 or not isinstance(arg_types[0], IntervalType):
        raise MoaTypeError("contains takes (interval, numeric)")
    return AtomicType("bit")


def _interp_contains(args, _context):
    (lo, hi), x = args
    return lo <= x <= hi


def _compile_contains(compiler, cc, node):
    rep = compiler.compile_elem(node.args[0], cc)
    if not isinstance(rep, IntervalLazy):
        raise MoaTypeError("contains needs an INTERVAL attribute")
    lo = compiler.emit(f'{rep.gather}.join(bat("{rep.prefix}.lo"))', "lo")
    hi = compiler.emit(f'{rep.gather}.join(bat("{rep.prefix}.hi"))', "hi")
    x = compiler._operand(compiler.compile_elem(node.args[1], cc), cc)
    above = compiler.emit(f"[<=]({lo}, {x})")
    below = compiler.emit(f"[>=]({hi}, {x})")
    return AtomCol(compiler.emit(f"[and]({above}, {below})"), "bit")


register_function("contains", _tc_contains, _interp_contains)
register_compile_hook("contains", _compile_contains)


# -- use it -------------------------------------------------------------------


def main() -> None:
    db = MirrorDBMS()
    db.define(
        """
        define Sensors as
        SET<
          TUPLE<
            Atomic<str>: name,
            INTERVAL<float>: valid_range
          >>;
        """
    )
    db.insert(
        "Sensors",
        [
            {"name": "thermo-a", "valid_range": (-40.0, 85.0)},
            {"name": "thermo-b", "valid_range": (0.0, 50.0)},
            {"name": "cryo-1", "valid_range": (-200.0, -100.0)},
        ],
    )
    print("schema:", db.ddl())
    result = db.query(
        "map[tuple(name = THIS.name, "
        "ok = contains(THIS.valid_range, 60.0))](Sensors);"
    )
    print("\nwhich sensors accept 60.0 degrees?")
    for row in result.value:
        print(f"    {row['name']:10s} {'yes' if row['ok'] else 'no'}")

    filtered = db.query(
        "select[contains(THIS.valid_range, 20.0)](Sensors);"
    )
    print("\nsensors valid at 20.0 degrees:",
          [r["name"] for r in filtered.value])

    print("\ngenerated plan for the select:")
    plan = db.executor.prepare(
        "select[contains(THIS.valid_range, 20.0)](Sensors);"
    )
    for line in plan.program.strip().splitlines():
        print("   ", line)


if __name__ == "__main__":
    main()
