"""Porter stemmer and the text analysis pipeline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import importlib
import re

import numpy as np

from repro.ir.porter import stem
from repro.ir.tokenize import (
    STOPWORDS,
    analyze,
    analyze_coded,
    analyze_many,
    analyze_terms,
    code_tokens,
    tokenize,
)
from repro.workloads import VOCABULARY


class TestPorterClassics:
    """Examples from Porter's paper and the reference vocabulary."""

    CASES = [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("ties", "ti"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("bled", "bled"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("conflated", "conflat"),
        ("troubled", "troubl"),
        ("sized", "size"),
        ("hopping", "hop"),
        ("tanned", "tan"),
        ("falling", "fall"),
        ("hissing", "hiss"),
        ("fizzed", "fizz"),
        ("failing", "fail"),
        ("filing", "file"),
        ("happy", "happi"),
        ("sky", "sky"),
        ("relational", "relat"),
        ("conditional", "condit"),
        ("rational", "ration"),
        ("valenci", "valenc"),
        ("hesitanci", "hesit"),
        ("digitizer", "digit"),
        ("conformabli", "conform"),
        ("radicalli", "radic"),
        ("differentli", "differ"),
        ("vileli", "vile"),
        ("analogousli", "analog"),
        ("vietnamization", "vietnam"),
        ("predication", "predic"),
        ("operator", "oper"),
        ("feudalism", "feudal"),
        ("decisiveness", "decis"),
        ("hopefulness", "hope"),
        ("callousness", "callous"),
        ("formaliti", "formal"),
        ("sensitiviti", "sensit"),
        ("sensibiliti", "sensibl"),
        ("triplicate", "triplic"),
        ("formative", "form"),
        ("formalize", "formal"),
        ("electriciti", "electr"),
        ("electrical", "electr"),
        ("hopeful", "hope"),
        ("goodness", "good"),
        ("revival", "reviv"),
        ("allowance", "allow"),
        ("inference", "infer"),
        ("airliner", "airlin"),
        ("gyroscopic", "gyroscop"),
        ("adjustable", "adjust"),
        ("defensible", "defens"),
        ("irritant", "irrit"),
        ("replacement", "replac"),
        ("adjustment", "adjust"),
        ("dependent", "depend"),
        ("adoption", "adopt"),
        ("homologou", "homolog"),
        ("communism", "commun"),
        ("activate", "activ"),
        ("angulariti", "angular"),
        ("homologous", "homolog"),
        ("effective", "effect"),
        ("bowdlerize", "bowdler"),
        ("probate", "probat"),
        ("rate", "rate"),
        ("cease", "ceas"),
        ("controll", "control"),
        ("roll", "roll"),
    ]

    @pytest.mark.parametrize("word,expected", CASES)
    def test_case(self, word, expected):
        assert stem(word) == expected

    def test_short_words_untouched(self):
        assert stem("a") == "a"
        assert stem("is") == "is"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=15))
    def test_never_longer_and_never_empty(self, word):
        result = stem(word)
        assert 0 < len(result) <= len(word)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=12))
    def test_idempotent_on_own_output_prefix_stability(self, word):
        # Stemming the stem may shrink further, but must stay non-empty
        # and deterministic.
        once = stem(word)
        assert stem(word) == once


class TestTokenize:
    def test_lowercase_split(self):
        assert tokenize("Red SUNSET, over. the Sea!") == [
            "red", "sunset", "over", "the", "sea",
        ]

    def test_keeps_cluster_labels(self):
        assert tokenize("gabor_21 rgb_3") == ["gabor_21", "rgb_3"]

    def test_empty(self):
        assert tokenize("") == []

    def test_numbers_kept(self):
        assert tokenize("route 66") == ["route", "66"]


class TestAnalyze:
    def test_stopwords_removed(self):
        assert analyze("the sunset over the sea") == ["sunset", "sea"]

    def test_stemming_applied(self):
        assert analyze("waves crashing") == ["wave", "crash"]

    def test_cluster_labels_not_stemmed(self):
        assert analyze("gabor_21 clusters") == ["gabor_21", "cluster"]

    def test_custom_stopwords(self):
        assert analyze("red sunset", stopwords={"red"}) == ["sunset"]

    def test_stemming_can_be_disabled(self):
        assert analyze("waves", stemming=False) == ["waves"]

    def test_analyze_terms(self):
        assert analyze_terms(["Waves", "the"]) == ["wave"]

    def test_stopword_after_stemming_dropped(self):
        # "doing" stems to "do" which is a stopword... check pipeline
        # keeps non-stopword stems.
        result = analyze("running does")
        assert "run" in result


def _analyze_per_text(text, *, stopwords=None, stemming=True):
    """The per-text, per-occurrence analysis loop :func:`analyze_many`
    replaced, kept here as its oracle: stop, then stem every linguistic
    token occurrence, then stop the stem."""
    stops = STOPWORDS if stopwords is None else stopwords
    out = []
    for token in re.findall(r"[a-z0-9_]+", text.lower()):
        if token in stops:
            continue
        if stemming and re.match(r"^[a-z]+$", token):
            token = stem(token)
            if token in stops:
                continue
        out.append(token)
    return out


#: Tokens that are not stopwords but whose Porter stem is one.
STEMS_TO_STOPWORD = ["thes", "ones", "others", "owned", "willing", "downs", "hows"]

_WORDS = st.sampled_from(
    VOCABULARY
    + sorted(STOPWORDS)
    + STEMS_TO_STOPWORD
    + ["running", "Runners", "WAVES", "crashing", "relational"]
)
_LABELS = st.builds(
    "{}_{}".format,
    st.sampled_from(["gabor", "rgb", "hsv", "laws"]),
    st.integers(0, 40),
)
_DIGITS = st.integers(0, 10_000).map(str)
_SEPARATORS = st.sampled_from([" ", "  ", ", ", ". ", "!", "-", "\t", "\n", "/"])
_TOKENS = st.one_of(_WORDS, _WORDS.map(str.upper), _LABELS, _DIGITS)
_TEXTS = st.one_of(
    st.just(""),
    st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=12).map(
        lambda parts: "".join(token + sep for token, sep in parts)
    ),
    st.text(max_size=20),
)
_STOP_SETS = st.one_of(
    st.none(),
    st.sets(st.sampled_from(VOCABULARY + ["the", "a", "wave", "run", "gabor_3"])),
)


class TestAnalyzeMany:
    """``analyze_many`` == the per-text loop, text by text."""

    @given(
        texts=st.lists(_TEXTS, max_size=8),
        stopwords=_STOP_SETS,
        stemming=st.booleans(),
    )
    def test_equals_per_text_analysis(self, texts, stopwords, stemming):
        assert analyze_many(texts, stopwords=stopwords, stemming=stemming) == [
            _analyze_per_text(text, stopwords=stopwords, stemming=stemming)
            for text in texts
        ]

    @given(
        texts=st.lists(_TEXTS, max_size=8),
        stopwords=_STOP_SETS,
        stemming=st.booleans(),
    )
    def test_coded_form_decodes_to_the_per_text_lists(self, texts, stopwords, stemming):
        coded = analyze_coded(texts, stopwords=stopwords, stemming=stemming)
        assert coded.doc.dtype == coded.code.dtype == np.int64
        assert coded.vocabulary == sorted(set(coded.vocabulary))
        assert len(coded.doc) == len(coded.code)
        assert np.all(np.diff(coded.doc) >= 0)
        assert coded.decode(len(texts)) == [
            _analyze_per_text(text, stopwords=stopwords, stemming=stemming)
            for text in texts
        ]
        # Every vocabulary term occurs: the codes cover it.
        assert set(coded.code.tolist()) == set(range(len(coded.vocabulary)))

    def test_identity_analyzer_counts_tokens_as_given(self):
        coded = code_tokens([["rgb_3", "Sea", "rgb_3"], [], ("Sea",)])
        assert coded.vocabulary == ["Sea", "rgb_3"]
        assert coded.doc.tolist() == [0, 0, 0, 2]
        assert coded.code.tolist() == [1, 0, 1, 0]
        assert coded.decode(3) == [["rgb_3", "Sea", "rgb_3"], [], ["Sea"]]

    @pytest.mark.parametrize("tokens", [["sea", 3], ["sea", None], [b"sea"]])
    def test_identity_analyzer_refuses_a_token_that_is_not_a_str(self, tokens):
        with pytest.raises(TypeError, match="must be a str"):
            code_tokens([tokens])

    @given(text=_TEXTS, stemming=st.booleans())
    def test_analyze_is_the_one_text_case(self, text, stemming):
        assert analyze(text, stemming=stemming) == _analyze_per_text(
            text, stemming=stemming
        )

    def test_stem_that_is_a_stopword_is_dropped(self):
        for token in STEMS_TO_STOPWORD:
            assert token not in STOPWORDS and stem(token) in STOPWORDS
        assert analyze_many(["thes sunset ones", "others"]) == [["sunset"], []]

    def test_empty_batch_and_empty_texts(self):
        assert analyze_many([]) == []
        assert analyze_many(["", "the", "!!"]) == [[], [], []]

    def test_stems_each_distinct_token_once(self, monkeypatch):
        # ``repro.ir.tokenize`` the attribute is the function; the
        # module is the import.
        tokenize_module = importlib.import_module("repro.ir.tokenize")
        calls = []

        def counting_stem(token):
            calls.append(token)
            return stem(token)

        monkeypatch.setattr(tokenize_module, "stem", counting_stem)
        texts = ["waves crashing waves", "Waves sea", "crashing gabor_2"] * 50
        assert analyze_many(texts) == [_analyze_per_text(t) for t in texts]
        assert sorted(calls) == ["crashing", "sea", "waves"]
