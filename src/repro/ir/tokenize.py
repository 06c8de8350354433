"""Tokenization and stopping for CONTREP text representations.

``analyze_many`` is the full InQuery-style pipeline the CONTREP mapper
uses: lowercase -> split on non-alphanumerics -> drop stopwords ->
Porter stem.  It works set-at-a-time, the way a batch reaches the
mapper: every text of the batch is tokenized, the tokens are
factorized, and each *distinct* token is stopped and stemmed once (a
collection of 30 000 annotations has a few dozen distinct words, so
the stemmer runs a few dozen times, not once per occurrence); the
per-text term lists are then gathered from that table.  ``analyze`` is
the one-text case.  Cluster labels produced by the multimedia pipeline
(e.g. ``gabor_21``, treated "as if they are words in text retrieval",
section 5.2) pass through unchanged because they contain an underscore
and digits -- the analyzer never mangles non-linguistic tokens.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterable, List, Optional, Set

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


def analyze_many(
    texts: Iterable[str],
    *,
    stopwords: Optional[Set[str]] = None,
    stemming: bool = True,
) -> List[List[str]]:
    """The analyzed term list of every text in *texts*: tokenize,
    stop, stem -- each distinct token once per call.

    Tokens that are not purely alphabetic (cluster labels like
    ``rgb_3``, numbers) are passed through verbatim -- they are already
    canonical "words" of the multimedia vocabulary.
    """
    stops = STOPWORDS if stopwords is None else stopwords
    token_lists = [tokenize(text) for text in texts]
    # Distinct token -> its term, or None when stopped (before or
    # after stemming).
    terms: Dict[str, Optional[str]] = dict.fromkeys(
        itertools.chain.from_iterable(token_lists)
    )
    for token in terms:
        if token in stops:
            continue
        term = stem(token) if stemming and _LINGUISTIC_RE.match(token) else token
        terms[token] = None if term in stops else term
    return [
        [term for term in map(terms.__getitem__, tokens) if term is not None]
        for tokens in token_lists
    ]


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
