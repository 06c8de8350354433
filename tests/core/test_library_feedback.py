"""DigitalLibrary pipeline, relevance feedback, retrieval sessions."""

import pytest

from repro.core.feedback import RelevanceFeedback
from repro.core.library import DigitalLibrary
from repro.core.session import RetrievalSession
from repro.ir.tokenize import analyze
from repro.multimedia.webrobot import WebRobot
from repro.thesaurus.cooccurrence import CooccurrenceCounts


@pytest.fixture(scope="module")
def library():
    """A small but fully processed library (module-scoped: the daemon
    pipeline is the expensive part)."""
    robot = WebRobot(seed=7, annotated_fraction=0.8)
    lib = DigitalLibrary(max_classes=6, seed=3)
    lib.ingest(robot.crawl(24))
    lib.summary = lib.run_daemons()
    return lib


class TestPipeline:
    def test_summary_counts(self, library):
        assert library.summary["images"] == 24
        assert library.summary["segments"] == 96  # 2x2 grid
        assert library.summary["feature_spaces"] == 6
        assert library.summary["visual_words"] > 6
        assert library.summary["thesaurus_associations"] > 0

    def test_all_calls_went_through_orb(self, library):
        assert library.summary["orb_calls"] > 24  # at least one per image

    def test_media_server_holds_all_images(self, library):
        assert len(library.media) == 24

    def test_schemas_registered(self, library):
        assert "ImageLibrary" in library.mirror.collections()
        assert "ImageLibraryInternal" in library.mirror.collections()
        assert library.dictionary.has_schema("ImageLibraryInternal")

    def test_internal_schema_is_contrep(self, library):
        ty = library.mirror.collection_type("ImageLibraryInternal")
        assert ty.element.field_type("image").render() == "CONTREP<Image>"

    def test_every_image_has_visual_words(self, library):
        for tokens in library.image_tokens:
            assert len(tokens) == 24  # 4 segments x 6 spaces

    def test_tokens_for_url(self, library):
        url = library.items[0].url
        assert library.tokens_for(url) == library.image_tokens[0]
        with pytest.raises(KeyError):
            library.tokens_for("http://ghost")

    def test_thesaurus_counts_match_per_item_analysis(self, library):
        """The batch's one ``analyze_many`` builds the co-occurrence
        counts a per-annotation ``analyze`` loop builds."""
        expected = CooccurrenceCounts.from_documents(
            (analyze(item.annotation), tokens)
            for item, tokens in zip(library.items, library.image_tokens)
            if item.annotation
        )
        assert expected.joint
        daemon = library.orb._objects["thesaurus"]
        assert daemon.thesaurus.counts == expected
        assert library.summary["thesaurus_associations"] == len(expected.joint)

    def test_run_daemons_requires_ingest(self):
        with pytest.raises(RuntimeError):
            DigitalLibrary().run_daemons()


class TestQuerying:
    def test_text_query_finds_class(self, library):
        results = library.query_text("sunset beach waves", k=6)
        assert results
        top_classes = [r.true_class for r in results[:2]]
        assert "sunset_beach" in top_classes

    def test_formulate_produces_clusters(self, library):
        clusters = library.formulate("sunset beach")
        assert clusters
        assert all("_" in c for c in clusters)

    def test_content_query_groups_class(self, library):
        results = library.query_content("sunset beach", k=4)
        assert results
        hits = sum(1 for r in results if r.true_class == "sunset_beach")
        assert hits >= 2

    def test_content_query_unknown_words(self, library):
        assert library.query_content("xyzzy plugh", k=5) == []

    def test_combined_query(self, library):
        results = library.query_combined("green forest", k=4)
        assert results
        assert results[0].true_class == "forest"

    def test_scores_sorted_descending(self, library):
        results = library.query_text("sunset", k=10)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)


class TestFeedback:
    def test_update_query_adds_relevant_tokens(self, library):
        feedback = RelevanceFeedback(library)
        relevant = [
            i.url for i in library.items if i.true_class == "forest"
        ][:2]
        update = feedback.update_query([], relevant, [])
        assert update.added
        assert set(update.added) <= set(
            t for url in relevant for t in library.tokens_for(url)
        )

    def test_update_query_drops_negative_tokens(self, library):
        feedback = RelevanceFeedback(library)
        relevant = [library.items[0].url]
        nonrelevant = [library.items[1].url]
        bad_token = library.tokens_for(nonrelevant[0])[0]
        query = [bad_token]
        update = feedback.update_query(query, relevant, nonrelevant)
        if bad_token not in set(library.tokens_for(relevant[0])):
            assert bad_token in update.removed

    def test_adapt_thesaurus_records_changes(self, library):
        feedback = RelevanceFeedback(library)
        url = library.items[0].url
        update = feedback.adapt_thesaurus("sunset", [url], [])
        assert update.reinforced

    def test_session_loop(self, library):
        session = RetrievalSession(library, k=6, adapt_thesaurus=False)
        initial = session.start("sunset beach")
        assert session.rounds[0].results == initial
        relevant = [
            r.url for r in initial if r.true_class == "sunset_beach"
        ]
        nonrelevant = [
            r.url for r in initial if r.true_class != "sunset_beach"
        ]
        session.give_feedback(relevant, nonrelevant)
        assert len(session.rounds) == 2
        # Precision must not collapse after positive feedback.
        before = session.precision_at(4, "sunset_beach", 0)
        after = session.precision_at(4, "sunset_beach", 1)
        assert after >= before - 0.25

    def test_feedback_before_start_rejected(self, library):
        session = RetrievalSession(library)
        with pytest.raises(RuntimeError):
            session.give_feedback([], [])
