"""Multiplexed scalar operators: MIL's ``[op]`` family.

Monet lifts any scalar operation to whole BATs with the *multiplex*
construct: ``[+](a, b)`` adds the tails of two positionally aligned
BATs, ``[log](a)`` takes elementwise logarithms, ``[*](a, 0.4)``
broadcasts a constant.  The result keeps the head of the (first) BAT
argument.

The probabilistic operators of the Mirror DBMS's CONTREP structure are
implemented at the physical level exactly this way: belief computation
is a short pipeline of multiplexed arithmetic over the matched
postings' tf and document-length BATs and the per-query-term idf
spread over them (see :mod:`repro.ir.beliefs`).

Alignment rule: all BAT arguments must have the same length and, when
their heads are void, the same seqbase.  (The Moa compiler only ever
emits aligned multiplexes; the check is a guard against compiler bugs.)
"""

from __future__ import annotations

from typing import Any, Dict, Union

import numpy as np

from repro.monet.bat import BAT, Column, column_from_values
from repro.monet.errors import KernelError
from repro.monet.kernel import key_space

Operand = Union[BAT, int, float, bool, str]

#: op name -> (numpy implementation, result atom name or None=numeric-promote)
_UNARY: Dict[str, Any] = {
    "log": (np.log, "dbl"),
    "log10": (np.log10, "dbl"),
    "exp": (np.exp, "dbl"),
    "sqrt": (np.sqrt, "dbl"),
    "abs": (np.abs, None),
    "neg": (np.negative, None),
    "not": (lambda a: (~a.astype(bool)).astype(np.int8), "bit"),
    "dbl": (lambda a: a.astype(np.float64), "dbl"),
    "int": (lambda a: a.astype(np.int64), "int"),
    "isnil": (lambda a: np.isnan(a).astype(np.int8) if a.dtype == np.float64
              else np.zeros(len(a), dtype=np.int8), "bit"),
}

_BINARY: Dict[str, Any] = {
    "+": (np.add, None),
    "-": (np.subtract, None),
    "*": (np.multiply, None),
    "/": (lambda a, b: np.divide(np.asarray(a, dtype=np.float64), b), "dbl"),
    "min": (np.minimum, None),
    "max": (np.maximum, None),
    "pow": (np.power, "dbl"),
    "=": (lambda a, b: (a == b).astype(np.int8), "bit"),
    "!=": (lambda a, b: (a != b).astype(np.int8), "bit"),
    "<": (lambda a, b: (a < b).astype(np.int8), "bit"),
    "<=": (lambda a, b: (a <= b).astype(np.int8), "bit"),
    ">": (lambda a, b: (a > b).astype(np.int8), "bit"),
    ">=": (lambda a, b: (a >= b).astype(np.int8), "bit"),
    "and": (lambda a, b: (a.astype(bool) & b.astype(bool)).astype(np.int8), "bit"),
    "or": (lambda a, b: (a.astype(bool) | b.astype(bool)).astype(np.int8), "bit"),
}

#: Spelled-out aliases accepted by the MIL front-end.
ALIASES = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "div": "/",
    "eq": "=",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}


def has_multiplex_op(op: str) -> bool:
    """True when ``[op]`` names an operator :func:`multiplex` knows."""
    op = ALIASES.get(op, op)
    return op in _UNARY or op in _BINARY or op == "ifthenelse"


def _str_equal(a: Operand, b: Operand) -> np.ndarray:
    """``[=]`` of two operands, one a BAT with a str tail, in one code
    space: equal codes, so a NIL equals a NIL (code -1) as the values'
    ``==`` would, and a str equals no number."""
    if not isinstance(a, BAT):
        a, b = b, a
    if isinstance(b, BAT):
        keys = key_space(a.tail, b.tail)
        if keys is None:
            return np.zeros(len(a), dtype=bool)
        return keys(a.tail) == keys(b.tail)
    if a.ttype != "str":
        return np.zeros(len(a), dtype=bool)
    code = -1 if b is None else a.tail.heap.index.get(b, -2)
    return a.tail.codes == code


def multiplex(op: str, *operands: Operand) -> BAT:
    """Apply scalar operation *op* elementwise across the operands.

    At least one operand must be a BAT; scalars broadcast.  The result
    BAT reuses the head of the first BAT operand.
    """
    op = ALIASES.get(op, op)
    bats = [x for x in operands if isinstance(x, BAT)]
    if not bats:
        raise KernelError("multiplex needs at least one BAT operand")
    length = len(bats[0])
    for other in bats[1:]:
        if len(other) != length:
            raise KernelError(
                f"multiplex [{op}]: operand length mismatch {length} vs {len(other)}"
            )
        if bats[0].hdense and other.hdense and bats[0].head.seqbase != other.head.seqbase:
            raise KernelError(f"multiplex [{op}]: void heads misaligned")
    str_tail = any(x.ttype == "str" for x in bats)
    if str_tail and op not in ("=", "!=", "ifthenelse"):
        raise KernelError("multiplex arithmetic on str tails is not defined")
    coded = str_tail and op != "ifthenelse"  # [=]/[!=] compare codes
    arrays = [x.tail_values() if isinstance(x, BAT) and not coded else x for x in operands]
    if op in _UNARY:
        if len(arrays) != 1:
            raise KernelError(f"[{op}] takes one operand, got {len(arrays)}")
        func, result_atom = _UNARY[op]
        result = func(arrays[0])
    elif op in _BINARY:
        if len(arrays) != 2:
            raise KernelError(f"[{op}] takes two operands, got {len(arrays)}")
        func, result_atom = _BINARY[op]
        if coded:
            equal = _str_equal(*arrays)
            result = (equal if op == "=" else ~equal).astype(np.int8)
        else:
            result = func(arrays[0], arrays[1])
    elif op == "ifthenelse":
        if len(arrays) != 3:
            raise KernelError("[ifthenelse] takes three operands")
        result_atom = None
        cond = np.asarray(arrays[0]).astype(bool)
        result = np.where(cond, arrays[1], arrays[2])
    else:
        raise KernelError(f"unknown multiplexed operation [{op}]")
    head = bats[0].head
    atom_name = result_atom or _infer_result_atom(result)
    result = np.asarray(result)
    if atom_name == "int" and result.dtype != np.int64:
        result = result.astype(np.int64)
    if atom_name == "dbl" and result.dtype != np.float64:
        result = result.astype(np.float64)
    tail = column_from_values("str", result) if atom_name == "str" else Column(atom_name, result)
    return BAT(head, tail, hsorted=bats[0].hsorted, hkey=bats[0].hkey)


def _infer_result_atom(result: np.ndarray) -> str:
    dtype = np.asarray(result).dtype
    if dtype == np.dtype(np.float64) or dtype.kind == "f":
        return "dbl"
    if dtype == np.dtype(np.int8):
        return "bit"
    if dtype.kind in ("i", "u", "b"):
        return "int"
    if dtype == np.dtype(object):
        return "str"
    raise KernelError(f"cannot infer result atom for dtype {dtype}")


def scalar_op(op: str, *operands):
    """The scalar (non-multiplexed) version of the same operator table,
    used by the MIL interpreter for plain expressions like ``0.4 + x``."""
    op = ALIASES.get(op, op)
    if op in _UNARY and len(operands) == 1:
        func, result_atom = _UNARY[op]
        value = func(np.asarray([operands[0]]))[0]
    elif op in _BINARY and len(operands) == 2:
        func, result_atom = _BINARY[op]
        if op in ("=", "!="):
            equal = operands[0] == operands[1]
            return bool(equal) if op == "=" else not bool(equal)
        value = func(np.asarray([operands[0]]), np.asarray([operands[1]]))[0]
    elif op == "ifthenelse" and len(operands) == 3:
        return operands[1] if operands[0] else operands[2]
    else:
        raise KernelError(f"unknown scalar operation {op} / arity {len(operands)}")
    if result_atom == "bit":
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value
