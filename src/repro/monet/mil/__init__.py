"""MIL: the Monet Interpreter Language front-end of the substitute kernel.

The real Mirror DBMS works by having the Moa logical layer *generate
MIL text* which the Monet server executes.  We reproduce that contract:
:mod:`repro.moa.compiler` emits MIL programs as strings, and this
package lexes, parses and interprets them against a
:class:`repro.monet.bbp.BATBufferPool`.

Supported surface (a faithful subset of MIL):

* assignments ``v := expr;`` and expression statements;
* method-style calls ``b.select(3).reverse.mark(oid(0))``;
* function-style calls ``join(a, b)``;
* multiplexed operators ``[+](a, b)``, ``[log](x)``;
* pump (grouped) aggregates ``{sum}(values, groups)``;
* catalog access ``bat("name")`` and persistence ``persists(name, b)``;
* literals (int, dbl, str, bit, ``nil``), ``oid(n)`` casts;
* ``print(expr);`` for inspection (captured in the result).

Execution is fragment-aware: programs over fragmented BBP
registrations run their operators fragment-parallel
(:mod:`repro.monet.fragments`) and coalesce at most once, at result
return -- see :mod:`repro.monet.mil.interpreter` and the builtin
table and its driver in :mod:`repro.monet.mil.builtins`.
"""

from repro.monet.mil.interpreter import MILInterpreter, run_program
from repro.monet.mil.lexer import tokenize
from repro.monet.mil.parser import parse_program

__all__ = ["MILInterpreter", "run_program", "tokenize", "parse_program"]
