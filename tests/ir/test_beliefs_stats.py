"""Belief functions and collection statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.beliefs import (
    BeliefParameters,
    belief,
    belief_list,
    beliefs_array,
    default_belief,
    normalized_idf,
    normalized_tf,
)
from repro.ir.stats import CollectionStats

DOCS = [
    {"sunset": 1, "sea": 2, "red": 1},
    {"forest": 3, "green": 1},
    {"sunset": 2, "beach": 1},
]


@pytest.fixture
def stats():
    return CollectionStats.from_documents(DOCS)


class TestStats:
    def test_document_count(self, stats):
        assert stats.document_count == 3

    def test_df(self, stats):
        assert stats.df("sunset") == 2
        assert stats.df("forest") == 1
        assert stats.df("unknown") == 0

    def test_cf(self, stats):
        assert stats.cf("sunset") == 3
        assert stats.cf("sea") == 2

    def test_avgdl(self, stats):
        lengths = [4, 4, 3]
        assert stats.average_document_length == pytest.approx(
            sum(lengths) / 3
        )

    def test_vocabulary_sorted(self, stats):
        vocab = stats.vocabulary()
        assert vocab == sorted(vocab)
        assert "sunset" in vocab

    def test_idf_monotone_in_rarity(self, stats):
        assert stats.idf("forest") > stats.idf("sunset") > 0

    def test_idf_unknown_term(self, stats):
        assert stats.idf("unknown") == 0.0

    def test_empty_collection(self):
        empty = CollectionStats.from_documents([])
        assert empty.document_count == 0
        assert empty.average_document_length == 0.0

    def test_idf_bat(self, stats):
        idf = dict(stats.idf_bat().to_pairs())
        assert sorted(idf) == stats.vocabulary()
        assert all(idf[term] == stats.idf(term) for term in idf)

    def test_mil_bindings(self, stats):
        bindings = stats.mil_bindings("stats")
        assert set(bindings) == {"stats_idf", "stats_avgdl"}
        assert bindings["stats_idf"] is stats.idf_bat()
        assert bindings["stats_avgdl"] == pytest.approx(11 / 3)

    def test_mil_bindings_avgdl_floor(self):
        empty = CollectionStats.from_documents([])
        assert empty.mil_bindings("s")["s_avgdl"] == 1.0

    def test_from_pool_roundtrip(self, stats, pool):
        from repro.ir.index import InvertedIndex

        InvertedIndex(DOCS).register(pool, "Lib.c")
        rebuilt = CollectionStats.from_pool(pool, "Lib.c")
        assert rebuilt.document_count == stats.document_count
        assert rebuilt.document_frequency == stats.document_frequency
        assert rebuilt.average_document_length == pytest.approx(
            stats.average_document_length
        )

    def test_from_pool_equals_from_documents_on_synthetic_collection(self):
        """The bincount over term codes counts what the per-document
        loop counts, with the dicts keyed by first posting."""
        from repro.workloads import build_text_db, interpreter_data

        db, pooled, rows = build_text_db(300, seed=11)
        docs = interpreter_data(rows)["TraditionalImgLib"]
        reference = CollectionStats.from_documents(
            doc["annotation"].terms for doc in docs
        )
        assert pooled == reference
        postings = db.pool.lookup("TraditionalImgLib.annotation.term").tail_list()
        by_first_posting = list(dict.fromkeys(postings))
        assert list(pooled.document_frequency) == by_first_posting
        assert list(pooled.collection_frequency) == by_first_posting
        assert all(type(v) is int for v in pooled.collection_frequency.values())
        # An immutable snapshot binds one idf BAT, however often.
        first = db.executor._bind({"stats": pooled})["stats_idf"]
        assert db.executor._bind({"stats": pooled})["stats_idf"] is first


class TestBeliefFormula:
    def test_default_belief(self):
        assert default_belief() == 0.4

    def test_params_validated(self):
        with pytest.raises(ValueError):
            BeliefParameters(default_belief=1.5)

    def test_ntf_zero_for_no_occurrence(self):
        assert normalized_tf(0, 10, 5) == 0.0

    def test_ntf_saturates_below_one(self):
        assert 0 < normalized_tf(100, 10, 10) < 1.0

    def test_ntf_monotone_in_tf(self):
        a = normalized_tf(1, 10, 10)
        b = normalized_tf(5, 10, 10)
        assert b > a

    def test_ntf_penalizes_long_docs(self):
        short = normalized_tf(2, 5, 10)
        long_ = normalized_tf(2, 50, 10)
        assert short > long_

    def test_nidf_range(self):
        assert 0 < normalized_idf(100, 1) <= 1.0
        assert normalized_idf(100, 100) < normalized_idf(100, 1)

    def test_nidf_degenerate(self):
        assert normalized_idf(0, 5) == 0.0
        assert normalized_idf(10, 0) == 0.0

    @pytest.mark.parametrize("n_docs", [0, 1, 7, 1000])
    def test_nidf_of_an_array_is_the_scalar_per_element(self, n_docs):
        dfs = np.array([-1, 0, 1, 2, 7, 1000])
        vector = normalized_idf(n_docs, dfs)
        assert vector.dtype == np.float64 and vector.shape == dfs.shape
        assert vector.tolist() == [normalized_idf(n_docs, int(df)) for df in dfs]
        assert vector[:2].tolist() == [0.0, 0.0]

    def test_belief_bounds(self, stats):
        value = belief(2, 4, stats, "sunset")
        assert 0.4 < value < 1.0

    def test_belief_of_absent_term_is_default_plus_zero(self, stats):
        assert belief(0, 4, stats, "sunset") == pytest.approx(0.4)

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=100),
    )
    def test_belief_always_in_unit_interval(self, tf, dl):
        stats = CollectionStats.from_documents(DOCS)
        value = belief(tf, dl, stats, "sunset")
        assert 0.0 <= value <= 1.0


class TestVectorizedAgreement:
    """beliefs_array must agree exactly with the scalar formula -- this
    is the contract between the compiled MIL path and the reference."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=1, max_value=50),
                st.integers(min_value=1, max_value=10),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_matches_scalar(self, rows):
        tfs = np.array([r[0] for r in rows], dtype=np.float64)
        dls = np.array([r[1] for r in rows], dtype=np.float64)
        dfs = np.array([r[2] for r in rows], dtype=np.float64)
        n_docs, avgdl = 50, 7.5
        vector = beliefs_array(tfs, dls, dfs, n_docs, avgdl)
        for i, (tf, dl, df) in enumerate(rows):
            ntf = normalized_tf(tf, dl, avgdl)
            nidf = normalized_idf(n_docs, df)
            expected = 0.4 + 0.6 * ntf * nidf
            assert vector[i] == pytest.approx(expected, abs=1e-12)

    def test_zero_df_guarded(self):
        out = beliefs_array(
            np.array([1.0]), np.array([5.0]), np.array([0.0]), 10, 5.0
        )
        assert out[0] == pytest.approx(0.4)


class TestBeliefList:
    def test_only_matched_terms(self, stats):
        bl = belief_list(DOCS[0], 4, ["sunset", "forest"], stats)
        assert len(bl) == 1  # forest not in doc 0

    def test_duplicate_query_terms(self, stats):
        bl = belief_list(DOCS[0], 4, ["sunset", "sunset"], stats)
        assert len(bl) == 2
        assert bl[0] == bl[1]

    def test_empty_query(self, stats):
        assert belief_list(DOCS[0], 4, [], stats) == []

    def test_values_exceed_default(self, stats):
        bl = belief_list(DOCS[0], 4, ["sunset", "sea", "red"], stats)
        assert all(b > 0.4 for b in bl)


@pytest.mark.parametrize("fragment_threshold", [None, 16], ids=["monolithic", "fragmented"])
def test_from_pool_after_a_delete_lists_only_live_terms(fragment_threshold):
    """A delete's survivors keep their term heap, which still holds the
    terms only the deleted document had: the statistics count postings,
    so those terms leave the vocabulary and the idf BAT, and the pool's
    statistics equal the per-document ones over what is left."""
    from repro.core.mirror import MirrorDBMS
    from repro.monet.fragments import FragmentationPolicy
    from repro.workloads import TRADITIONAL_DDL, synth_annotations

    collection = "TraditionalImgLib"
    db = MirrorDBMS(
        fragment_threshold=fragment_threshold,
        fragment_policy=FragmentationPolicy(target_size=32),
    )
    db.define(TRADITIONAL_DDL)
    zebra = {"source": "http://zebra/1", "annotation": "zebraword quagga"}
    db.insert(collection, synth_annotations(20, seed=3) + [zebra])
    assert db.pool.is_fragmented(f"{collection}.annotation.term") == bool(fragment_threshold)
    assert "zebraword" in db.stats(collection, "annotation").vocabulary()
    db.delete(collection, where={"source": zebra["source"]})
    pooled = db.stats(collection, "annotation")
    assert "zebraword" not in pooled.vocabulary()
    assert "zebraword" not in pooled.idf_bat().head_list()
    reference = CollectionStats.from_documents(
        doc["annotation"].terms for doc in db.contents(collection)
    )
    assert pooled.document_count == reference.document_count == 20
    assert pooled.average_document_length == pytest.approx(reference.average_document_length)
    assert pooled.document_frequency == reference.document_frequency
    assert pooled.collection_frequency == reference.collection_frequency
