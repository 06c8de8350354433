"""Tokenization and stopping for CONTREP text representations.

``analyze_coded`` is the full InQuery-style pipeline the CONTREP mapper
uses: lowercase -> split on non-alphanumerics -> drop stopwords ->
Porter stem.  It works set-at-a-time, the way a batch reaches the
mapper: every text of the batch is tokenized, the tokens are
factorized, and each *distinct* token is stopped and stemmed once (a
collection of 30 000 annotations has a few dozen distinct words, so
the stemmer runs a few dozen times, not once per occurrence).  Its
result is codes, not strings (:class:`CodedTerms`): one (text index,
term code) pair per term occurrence, as int64 arrays, plus the sorted
vocabulary the codes index -- the shape the mapper builds postings
from with numpy.  :func:`code_tokens` is the same factorization over
token lists, the identity analyzer when no term map is given (token
media such as visual words).  ``analyze_many`` -- per-text term
lists -- is the decode of the coded form, and ``analyze`` its one-text
case, so there is one analysis implementation.  Cluster labels
produced by the multimedia pipeline (e.g. ``gabor_21``, treated "as if
they are words in text retrieval", section 5.2) pass through unchanged
because they contain an underscore and digits -- the analyzer never
mangles non-linguistic tokens.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Set

import numpy as np

from repro.ir.porter import stem

#: A compact version of the classic van Rijsbergen / SMART stop list;
#: enough to keep the paper's example annotations clean.
STOPWORDS: Set[str] = {
    "a", "about", "above", "after", "again", "against", "all", "am", "an",
    "and", "any", "are", "as", "at", "be", "because", "been", "before",
    "being", "below", "between", "both", "but", "by", "can", "cannot",
    "could", "did", "do", "does", "doing", "down", "during", "each", "few",
    "for", "from", "further", "had", "has", "have", "having", "he", "her",
    "here", "hers", "him", "his", "how", "i", "if", "in", "into", "is",
    "it", "its", "itself", "just", "me", "more", "most", "my", "myself",
    "no", "nor", "not", "now", "of", "off", "on", "once", "only", "or",
    "other", "our", "ours", "out", "over", "own", "same", "she", "should",
    "so", "some", "such", "than", "that", "the", "their", "theirs", "them",
    "then", "there", "these", "they", "this", "those", "through", "to",
    "too", "under", "until", "up", "very", "was", "we", "were", "what",
    "when", "where", "which", "while", "who", "whom", "why", "will",
    "with", "would", "you", "your", "yours",
}

_TOKEN_RE = re.compile(r"[a-z0-9_]+")
_LINGUISTIC_RE = re.compile(r"^[a-z]+$")


def tokenize(text: str) -> List[str]:
    """Lowercase and split *text* into raw tokens (no stopping/stemming)."""
    return _TOKEN_RE.findall(text.lower())


class CodedTerms(NamedTuple):
    """A batch's term occurrences as codes: occurrence *i* is term
    ``vocabulary[code[i]]`` of text ``doc[i]`` (int64 arrays, in text
    order and, within a text, in token order); ``vocabulary`` is the
    batch's distinct terms, sorted, so a code's order is its term's."""

    doc: np.ndarray
    code: np.ndarray
    vocabulary: List[str]

    def decode(self, count: int) -> List[List[str]]:
        """The term list of each of *count* texts."""
        terms = np.array(self.vocabulary, dtype=object)[self.code].tolist()
        bounds = np.searchsorted(self.doc, np.arange(count + 1)).tolist()
        return [terms[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def code_tokens(
    token_lists: Sequence[Sequence[str]],
    term_of: Optional[Callable[[str], Optional[str]]] = None,
) -> CodedTerms:
    """The :class:`CodedTerms` of the token lists *token_lists*: the
    tokens are factorized once and each *distinct* token maps to its
    term through *term_of* (``None``: dropped), or is its own term when
    *term_of* is ``None`` -- the identity analyzer of token-list media.
    A token that is not a ``str`` is a :class:`TypeError`."""
    counts = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    flat = list(itertools.chain.from_iterable(token_lists))
    distinct = dict.fromkeys(flat)
    for token in distinct:
        if not isinstance(token, str):
            raise TypeError(f"a token must be a str, not {type(token).__name__}")
    terms = list(distinct) if term_of is None else list(map(term_of, distinct))
    vocabulary = sorted(set(terms).difference([None]))
    code_of = dict(zip(vocabulary, range(len(vocabulary))))
    token_code = {token: code_of.get(term, -1) for token, term in zip(distinct, terms)}
    codes = np.fromiter(map(token_code.__getitem__, flat), dtype=np.int64, count=len(flat))
    doc = np.repeat(np.arange(len(token_lists), dtype=np.int64), counts)
    kept = codes >= 0
    if not kept.all():
        doc, codes = doc[kept], codes[kept]
    return CodedTerms(doc, codes, vocabulary)


def analyze_coded(
    texts: Iterable[str],
    *,
    stopwords: Optional[Set[str]] = None,
    stemming: bool = True,
) -> CodedTerms:
    """The analysis of every text in *texts* as :class:`CodedTerms`:
    tokenize, then stop and stem each distinct token once per call.

    Tokens that are not purely alphabetic (cluster labels like
    ``rgb_3``, numbers) are passed through verbatim -- they are already
    canonical "words" of the multimedia vocabulary.
    """
    stops = STOPWORDS if stopwords is None else stopwords

    def term_of(token: str) -> Optional[str]:
        if token in stops:
            return None
        term = stem(token) if stemming and _LINGUISTIC_RE.match(token) else token
        return None if term in stops else term

    return code_tokens([tokenize(text) for text in texts], term_of)


def analyze_many(
    texts: Iterable[str],
    *,
    stopwords: Optional[Set[str]] = None,
    stemming: bool = True,
) -> List[List[str]]:
    """The analyzed term list of every text in *texts*: the decode of
    :func:`analyze_coded`."""
    texts = list(texts)
    coded = analyze_coded(texts, stopwords=stopwords, stemming=stemming)
    return coded.decode(len(texts))


def analyze(
    text: str,
    *,
    stopwords: Optional[Set[str]] = None,
    stemming: bool = True,
) -> List[str]:
    """The analyzed term list of one text (:func:`analyze_many`)."""
    return analyze_many([text], stopwords=stopwords, stemming=stemming)[0]


def analyze_terms(tokens: List[str], *, stemming: bool = True) -> List[str]:
    """Analyze an already-tokenized list (used for query terms)."""
    return analyze(" ".join(tokens), stemming=stemming)
