"""CONTREP: the content-representation structure for multimedia IR.

"The CONTREP Moa structure supports the ranking scheme known as the
inference network retrieval model." (Mirror paper, section 3.)

This module demonstrates the full extension recipe of the paper:

1. a new **structure type** ``CONTREP<media>`` registered with the DDL
   parser/type system;
2. a **physical mapper** laying the structure out as inverted-file BATs
   (``owner``/``term``/``tf``/``doclen``, see :class:`ContrepMapper`);
3. a **logical operation** ``getBL(contrep, query, stats)`` registered
   in the function registry with typecheck + interpret hooks;
4. a **compile hook** emitting the probabilistic operators at the
   physical level: the belief formula becomes a pipeline of multiplexed
   BAT arithmetic inside the generated MIL plan.

The inverted file is written from token codes: a batch of values is
analyzed once into (document, term code) arrays over the batch's
sorted vocabulary (:func:`repro.ir.tokenize.analyze_coded`), and the
postings are one ``np.unique`` of ``doc * V + code`` with its counts
(:func:`_postings`), the lengths a ``bincount``; the term column
reaches the pool as codes on a heap of the batch's vocabulary, which
the stored column's heap absorbs in O(distinct).  No per-document
object is built; :class:`ContentRepresentation` is the value the
interpreter and a reconstruction see, not a step of the write path.

The inverted file is used as an index, not scanned: the plan probes
the ``term`` column's held index with the k query terms
(:func:`repro.monet.kernel.held_match_index`, built at the column
version's first query) and reads ``owner``, ``tf`` and ``doclen`` at
the matched postings only (:func:`_term_first_matches`), so a query
costs O(matches + documents), not O(postings).

Nothing in the Moa kernel mentions CONTREP -- it is wired in entirely
through the registries, exactly the open-system claim of section 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.ir.beliefs import DEFAULT_PARAMETERS, belief_list
from repro.ir.stats import CollectionStats
from repro.ir.tokenize import analyze, analyze_coded, code_tokens
from repro.moa.compiler import (
    AtomCol,
    Compiler,
    ContrepCols,
    ContrepLazy,
    NestedSet,
    register_attr_rep,
)
from repro.moa.errors import MoaCompileError, MoaTypeError
from repro.moa.functions import register_compile_hook, register_function
from repro.moa.mapping import (
    StructureMapper,
    append_attribute,
    children_of,
    register_mapper,
)
from repro.moa.types import (
    AtomicType,
    MoaType,
    SetType,
    StatsType,
    register_structure,
)
from repro.monet.bat import StrColumn, StrHeap
from repro.monet.kernel import stable_order


# ----------------------------------------------------------------------
# 1. The structure type
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ContrepType(MoaType):
    """``CONTREP<media>``: an indexed content representation."""

    media: str

    structure = "CONTREP"

    def render(self) -> str:
        return f"CONTREP<{self.media}>"


def _contrep_factory(args):
    if len(args) != 1 or not isinstance(args[0], str):
        raise MoaTypeError("CONTREP takes exactly one media-type name")
    return ContrepType(args[0])


register_structure("CONTREP", _contrep_factory)


# ----------------------------------------------------------------------
# Runtime value
# ----------------------------------------------------------------------


class ContentRepresentation:
    """Python-level CONTREP value: term frequencies plus length.

    Constructible from raw text (tokenized/stopped/stemmed for ``Text``
    media), a token list (counted as-is, used for cluster labels), or a
    prepared term->tf mapping.
    """

    __slots__ = ("terms", "length")

    def __init__(self, terms: Mapping[str, int], length: Optional[int] = None):
        self.terms: Dict[str, int] = {
            t: int(f) for t, f in terms.items() if int(f) > 0
        }
        self.length = int(length) if length is not None else sum(self.terms.values())

    @classmethod
    def of_checked(cls, terms: Dict[str, int], length: int) -> "ContentRepresentation":
        """The representation of *terms* as given: every tf already a
        positive ``int`` (postings read back from the BATs)."""
        rep = cls.__new__(cls)
        rep.terms = terms
        rep.length = length
        return rep

    @classmethod
    def from_value(cls, value: Any, media: str) -> "ContentRepresentation":
        if isinstance(value, ContentRepresentation):
            return value
        if value is None:
            return cls({})
        if isinstance(value, str):
            tokens = analyze(value) if media == "Text" else value.split()
            return cls.from_tokens(tokens)
        if isinstance(value, (list, tuple)):
            return cls.from_tokens(value)
        if isinstance(value, Mapping):
            return cls(value)
        raise MoaTypeError(
            f"cannot build a CONTREP value from {type(value).__name__}"
        )

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "ContentRepresentation":
        return cls(Counter(tokens))

    def get(self, term: str, default: int = 0) -> int:
        return self.terms.get(term, default)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ContentRepresentation)
            and self.terms == other.terms
            and self.length == other.length
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContentRepresentation({self.terms!r}, length={self.length})"


# ----------------------------------------------------------------------
# 2. The physical mapper (inverted-file BATs)
# ----------------------------------------------------------------------


#: The posting BATs under a CONTREP prefix, in :class:`Postings` order.
_POSTINGS = ("owner", "term", "tf")


class Postings(NamedTuple):
    """The columns one batch adds: ``owner``/``term``/``tf`` one BUN
    per (document, distinct term), each document's terms in sorted
    order -- ``owner`` oids (int64), ``term`` a str column of codes on a
    batch heap holding only the batch's terms (:func:`_by_first_posting`),
    ``tf`` int64 -- and ``doclen``, one int64 per document."""

    owner: np.ndarray
    term: StrColumn
    tf: np.ndarray
    doclen: np.ndarray


def _postings(values: Sequence[Any], media: str, owners: np.ndarray) -> Postings:
    """The :class:`Postings` of one batch, *owners* naming each value's
    parent oid, set-at-a-time.

    One pass sorts the values into three coded parts
    (:class:`repro.ir.tokenize.CodedTerms`): the ``Text`` media's
    strings, analyzed by one :func:`analyze_coded`; token lists and the
    other media's strings (split on whitespace), by the identity
    analyzer :func:`code_tokens`; term -> tf mappings, a
    representation's included, as weighted rows (a tf <= 0 dropped).
    The parts' vocabularies merge into one sorted vocabulary of ``V``
    terms, and (owner, term, tf) is one ``np.unique(doc * V + code,
    return_counts=True)`` over the counted occurrences plus the
    weighted rows; ``doclen`` is a ``bincount`` of the occurrences,
    or a mapping's tf sum, or a representation's own ``length``.  A
    value of no CONTREP shape is a :class:`MoaTypeError`, raised before
    the caller touches a BAT."""
    texts: List[str] = []
    text_docs: List[int] = []
    token_lists: List[Sequence[str]] = []
    token_docs: List[int] = []
    mapped: List[List[str]] = []
    mapped_docs: List[int] = []
    weights: List[int] = []
    lengths: List[int] = []
    for doc, value in enumerate(values):
        if value is None:
            continue
        if isinstance(value, str) and media == "Text":
            texts.append(value)
            text_docs.append(doc)
        elif isinstance(value, (str, list, tuple)):
            token_lists.append(value.split() if isinstance(value, str) else value)
            token_docs.append(doc)
        elif isinstance(value, (Mapping, ContentRepresentation)):
            given = isinstance(value, ContentRepresentation)
            tfs = {t: int(f) for t, f in (value.terms if given else value).items()}
            kept = [t for t, f in tfs.items() if f > 0]
            mapped.append(kept)
            mapped_docs.append(doc)
            weights.extend(map(tfs.__getitem__, kept))
            lengths.append(value.length if given else sum(map(tfs.__getitem__, kept)))
        else:
            raise MoaTypeError(
                f"cannot build a CONTREP value from {type(value).__name__}"
            )
    coders = (
        (analyze_coded, texts, text_docs),
        (code_tokens, token_lists, token_docs),
        (code_tokens, mapped, mapped_docs),  # last: its keys are weighted
    )
    try:
        parts = [
            (code(items), np.asarray(docs, dtype=np.int64))
            for code, items, docs in coders
            if docs
        ]
    except TypeError as exc:
        raise MoaTypeError(f"a CONTREP term must be a str: {exc}") from None
    vocabulary = sorted(set().union(*(coded.vocabulary for coded, _ in parts)))
    code_of = dict(zip(vocabulary, range(len(vocabulary))))
    width = max(len(vocabulary), 1)
    keys = []
    for coded, docs in parts:
        key = docs[coded.doc]
        key *= width
        key += np.fromiter(
            map(code_of.__getitem__, coded.vocabulary), dtype=np.int64,
            count=len(coded.vocabulary),
        )[coded.code]
        keys.append(key)
    weighted = keys.pop() if mapped_docs else None
    counted = keys[0] if len(keys) == 1 else np.concatenate(keys or [np.empty(0, np.int64)])
    key, tf = np.unique(counted, return_counts=True)
    doclen = np.bincount(counted // width, minlength=len(values))
    if weighted is not None:
        key = np.concatenate([key, weighted])
        tf = np.concatenate([tf, np.asarray(weights, dtype=np.int64)])
        order = np.argsort(key)
        key, tf = key[order], tf[order]
        doclen[mapped_docs] = lengths
    return Postings(
        owners[key // width],
        _by_first_posting(key % width, vocabulary),
        tf.astype(np.int64, copy=False),
        doclen.astype(np.int64, copy=False),
    )


def _by_first_posting(codes: np.ndarray, vocabulary: List[str]) -> StrColumn:
    """The term run *codes* (into *vocabulary*) as a str column on a
    batch heap numbering the terms in order of first posting -- the
    order a list of the values would number them in, so the stored
    heap that absorbs the run gives every term the code a list append
    would."""
    first = np.full(len(vocabulary), len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes), dtype=np.int64))
    used = np.flatnonzero(first < len(codes))
    used = used[np.argsort(first[used])]
    number = np.empty(len(vocabulary), dtype=np.int64)
    number[used] = np.arange(len(used), dtype=np.int64)
    return StrColumn(number[codes], StrHeap([vocabulary[c] for c in used.tolist()]))


def contrep_values(
    owners: Sequence[int], terms: Sequence[str], tfs: Sequence[int],
    doclens: Sequence[int],
) -> List[ContentRepresentation]:
    """The representation of each document from its postings (any
    order; a document's terms in posting order), ``doclens`` giving each
    its length (the mapper's reconstruction and the compiled plan's
    ``ContrepCols`` both rebuild through here).  The postings with a
    positive tf are grouped by owner with one stable order, and each
    document's dict is built from its slice."""
    tf = np.asarray(tfs, dtype=np.int64)
    owner = np.asarray(owners, dtype=np.int64)
    kept = np.flatnonzero(tf > 0)
    order = kept[stable_order(owner[kept])]
    term = np.asarray(terms, dtype=object)[order].tolist()
    bounds = np.searchsorted(owner[order], np.arange(len(doclens) + 1)).tolist()
    tf = tf[order].tolist()
    return [
        ContentRepresentation.of_checked(dict(zip(term[lo:hi], tf[lo:hi])), int(length))
        for lo, hi, length in zip(bounds, bounds[1:], doclens)
    ]


class ContrepMapper(StructureMapper):
    """CONTREP attribute -> owner/term/tf/doclen BATs under the prefix.

    ``owner``/``term``/``tf`` hold one posting per (document, distinct
    term), ``owner`` naming the document's parent oid; ``doclen`` is
    per document.  An append adds postings and ``doclen`` rows, a
    delete drops the documents' postings and renumbers the surviving
    owners, an update replaces a document's postings (the new ones at
    the end, so ``owner`` is sorted only until the first update) and
    patches its ``doclen``.

    A batch is written set-at-a-time from codes (:func:`_postings`):
    its values are analyzed into (document, term code) arrays once, and
    the pool receives column arrays -- ``term`` as codes on a heap of
    the batch's vocabulary, which the stored column's heap absorbs in
    O(distinct) (:func:`repro.monet.bat.rebase`).  No per-document
    object is built on the way.
    """

    def append(self, pool, prefix, ty: ContrepType, values, offset):
        values = list(values)
        owners = np.arange(offset, offset + len(values), dtype=np.int64)
        postings = _postings(values, ty.media, owners)
        self._append_postings(pool, prefix, postings)
        append_attribute(pool, f"{prefix}.doclen", postings.doclen)

    def delete(self, pool, prefix, ty: ContrepType, positions):
        self._drop_postings(pool, prefix, positions, renumber=positions)
        pool.delete(f"{prefix}.doclen", positions)

    def update(self, pool, prefix, ty: ContrepType, positions, values):
        owners = np.asarray(positions, dtype=np.int64)
        postings = _postings(list(values), ty.media, owners)
        self._drop_postings(pool, prefix, positions, renumber=None)
        self._append_postings(pool, prefix, postings)
        pool.update(f"{prefix}.doclen", owners, postings.doclen)

    def _append_postings(self, pool, prefix, postings: Postings) -> None:
        for suffix, column in zip(_POSTINGS, postings):
            append_attribute(pool, f"{prefix}.{suffix}", column)

    def _drop_postings(self, pool, prefix, owners, renumber) -> None:
        doomed = children_of(pool, f"{prefix}.owner", owners)
        pool.delete(f"{prefix}.owner", doomed, renumber=renumber)
        pool.delete(f"{prefix}.term", doomed)
        pool.delete(f"{prefix}.tf", doomed)

    def reconstruct(self, pool, prefix, ty: ContrepType, count):
        owner, term, tf = (
            pool.lookup(f"{prefix}.{suffix}").tail_values() for suffix in _POSTINGS
        )
        doclen = pool.lookup(f"{prefix}.doclen").tail_list()
        if len(doclen) != count:
            raise MoaTypeError(
                f"{prefix}: doclen covers {len(doclen)} docs, expected {count}"
            )
        return contrep_values(owner, term, tf, doclen)

    def bat_names(self, prefix, ty: ContrepType):
        layout = (("owner", "oid"), ("term", "str"), ("tf", "int"), ("doclen", "int"))
        return [(f"{prefix}.{suffix}", atom) for suffix, atom in layout]


register_mapper(ContrepType, ContrepMapper())


# ----------------------------------------------------------------------
# 3. The logical operation: getBL
# ----------------------------------------------------------------------


def _tc_getbl(arg_types):
    if len(arg_types) != 3:
        raise MoaTypeError("getBL takes (contrep, query, stats)")
    contrep, query, stats = arg_types
    if not isinstance(contrep, ContrepType):
        raise MoaTypeError(
            "getBL's first argument must be a CONTREP attribute, "
            f"got {contrep.render()}"
        )
    query_ok = (
        isinstance(query, SetType)
        and isinstance(query.element, AtomicType)
        and query.element.atom == "str"
    )
    if not query_ok:
        raise MoaTypeError(
            f"getBL's query must be SET<Atomic<str>>, got {query.render()}"
        )
    if not isinstance(stats, StatsType):
        raise MoaTypeError(
            f"getBL's third argument must be collection stats, got {stats.render()}"
        )
    return SetType(AtomicType("float"))


def _interp_getbl(args, _context):
    contrep, query_terms, stats = args
    rep = (
        contrep
        if isinstance(contrep, ContentRepresentation)
        else ContentRepresentation.from_value(contrep, "Text")
    )
    if not isinstance(stats, CollectionStats):
        raise MoaTypeError("getBL stats parameter must be CollectionStats")
    return belief_list(rep.terms, rep.length, list(query_terms), stats)


register_function("getBL", _tc_getbl, _interp_getbl)


# ----------------------------------------------------------------------
# 4. The compile hook: probabilistic operators at the physical level
# ----------------------------------------------------------------------


def _contrep_attr_rep(compiler: Compiler, prefix: str, ty: ContrepType, gather: str):
    return ContrepLazy(prefix=prefix, gather=gather)


register_attr_rep("ContrepType", _contrep_attr_rep)


def _term_first_matches(compiler: Compiler, rep, qvar: str):
    """Emit the term-first match of a CONTREP attribute against the
    query: ``(bown, btf, bdl, rows)``, one BUN per matched posting of a
    document in the current collection -- its document position, tf,
    document length and (*rows*, an expression) matched query row --
    in posting order.

    The query's k terms probe the term column's held index
    (``query.join(term.reverse)``, :func:`repro.monet.kernel.held_match_index`),
    and ``.reverse.sort`` puts the matches back in posting order (a
    stable sort: a posting matched by a duplicated query term keeps its
    query rows in order), which is the order the old whole-column scan
    produced and the ``{sum}`` pump adds in.  ``owner``, ``tf`` and
    ``doclen`` are then read at the matched positions only.  An
    unforced attribute (:class:`ContrepLazy`) maps the matched owners
    through the gather's reverse, which drops the postings of documents
    outside the current collection; a forced one (:class:`ContrepCols`)
    is already restricted to it."""
    emit = compiler.emit
    if isinstance(rep, ContrepCols):
        term, owner, tf, doclen = rep.term, rep.owner, rep.tf, rep.doclen
    elif isinstance(rep, ContrepLazy):
        term, owner, tf, doclen = (
            f'bat("{rep.prefix}.{suffix}")' for suffix in ("term", "owner", "tf", "doclen")
        )
    else:
        raise MoaCompileError("getBL applied to a non-CONTREP attribute")
    matches = emit(f"{qvar}.join({term}.reverse)", "m")
    by_posting = emit(f"{matches}.reverse.sort", "mp")
    sel = emit(f"{by_posting}.mark(oid(0)).reverse", "sel")
    rows = f"{by_posting}.number(oid(0))"
    if isinstance(rep, ContrepCols):
        bown = emit(f"{sel}.join({owner})", "bown")
        btf = emit(f"{sel}.join({tf})", "btf")
        bdl = emit(f"{bown}.join({doclen})", "bdl")
        return bown, btf, bdl, rows
    owned = emit(f"{sel}.join({owner}).join({rep.gather}.reverse)", "ow")
    bown = emit(f"{owned}.number(oid(0))", "bown")
    keep = emit(f"{owned}.mirror.mark(oid(0)).reverse", "keep")
    btf = emit(f"{keep}.join({sel}).join({tf})", "btf")
    bdl = emit(f"{bown}.join({rep.gather}).join({doclen})", "bdl")
    return bown, btf, bdl, f"{keep}.join({rows})"


def _compile_getbl(compiler: Compiler, cc, node):
    """Emit the getBL belief pipeline into the MIL plan.

    Produces a NestedSet of beliefs per document: the postings matching
    the query come from a term-first probe of the inverted file
    (:func:`_term_first_matches`: no statement reads a whole posting
    column), and the InQuery belief formula runs as multiplexed BAT
    arithmetic -- identical numerics to
    :func:`repro.ir.beliefs.beliefs_array`.

    The idf is a function of the query term alone, so it is looked up
    once per query term: ``qidf`` outer-joins the k query rows with
    ``<stats>_idf`` (:meth:`repro.ir.stats.CollectionStats.idf_bat`,
    whose head's held index answers the probe), a term the stats never
    saw getting idf 0 as in
    :meth:`~repro.ir.stats.CollectionStats.idf`.  The outer join keeps
    the query's void head, so ``nidf`` spreads it over the matches *by
    position* from each match's query row.  No str column is gathered
    after the term match.
    """
    from repro.moa import ast as moa_ast

    contrep_rep = compiler.compile_elem(node.args[0], cc)
    query_node = node.args[1]
    stats_node = node.args[2]
    if not isinstance(query_node, moa_ast.VarRef):
        raise MoaCompileError("getBL query must be a bound parameter")
    if not isinstance(stats_node, moa_ast.VarRef):
        raise MoaCompileError("getBL stats must be a bound parameter")
    qvar = query_node.name
    stats_name = stats_node.name

    params = DEFAULT_PARAMETERS
    alpha = params.default_belief
    # Duplicated query terms keep weighted queries working: each
    # occurrence matches, and contributes, once.
    bown, btf, bdl, rows = _term_first_matches(compiler, contrep_rep, qvar)
    # nidf per query term (0 when unseen), spread over the matches.
    qidf = compiler.emit(f"{qvar}.outerjoin({stats_name}_idf)", "qidf")
    qidf = compiler.emit(f"[ifthenelse]([isnil]({qidf}), 0.0, {qidf})", "qidf")
    nidf = compiler.emit(f"{rows}.join({qidf})", "nidf")
    # ntf = tf / (tf + k + w * dl / avgdl)
    tf_dbl = compiler.emit(f"[dbl]({btf})", "v")
    dl_term = compiler.emit(
        f"[/]([*]({params.tf_doclen_weight}, [dbl]({bdl})), {stats_name}_avgdl)",
        "v",
    )
    denominator = compiler.emit(
        f"[+]([+]({tf_dbl}, {params.tf_k}), {dl_term})", "v"
    )
    ntf = compiler.emit(f"[/]({tf_dbl}, {denominator})", "ntf")
    bel = compiler.emit(
        f"[+]({alpha}, [*]([*]({1.0 - alpha}, {ntf}), {nidf}))", "bel"
    )
    return NestedSet(parent=bown, elem=AtomCol(bel, "dbl"))


register_compile_hook("getBL", _compile_getbl)
