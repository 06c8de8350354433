"""Persistence across the full pipeline: a processed library's
metadata database survives save/load and answers the same queries."""

import pytest

from repro.core.library import CONTENT_QUERY, DigitalLibrary
from repro.core.mirror import MirrorDBMS
from repro.multimedia.webrobot import WebRobot


@pytest.fixture(scope="module")
def processed(tmp_path_factory):
    robot = WebRobot(seed=41, annotated_fraction=1.0)
    library = DigitalLibrary(
        feature_spaces=("rgb", "gabor"), max_classes=4, seed=1
    )
    library.ingest(robot.crawl(10))
    library.run_daemons(store_intermediate=True)
    directory = tmp_path_factory.mktemp("mirrordb")
    library.mirror.save(directory)
    return library, directory


class TestReload:
    def test_collections_survive(self, processed):
        library, directory = processed
        restored = MirrorDBMS.load(directory)
        assert set(restored.collections()) == set(library.mirror.collections())
        assert restored.count("ImageLibraryInternal") == 10
        assert restored.count("ImageLibraryIntermediate") == 10

    def test_content_query_identical_after_reload(self, processed):
        library, directory = processed
        restored = MirrorDBMS.load(directory)
        clusters = library.formulate("sunset beach")
        if not clusters:
            pytest.skip("thesaurus produced no clusters for this seed")
        stats_before = library.mirror.stats("ImageLibraryInternal", "image")
        stats_after = restored.stats("ImageLibraryInternal", "image")
        params_before = {"query": clusters, "stats": stats_before}
        params_after = {"query": clusters, "stats": stats_after}
        before = library.mirror.query(CONTENT_QUERY, params_before).value
        after = restored.query(CONTENT_QUERY, params_after).value
        assert len(before) == len(after)
        for a, b in zip(before, after):
            assert a["source"] == b["source"]
            assert a["score"] == pytest.approx(b["score"])

    def test_stats_identical_after_reload(self, processed):
        library, directory = processed
        restored = MirrorDBMS.load(directory)
        before = library.mirror.stats("ImageLibraryInternal", "annotation")
        after = restored.stats("ImageLibraryInternal", "annotation")
        assert before.document_frequency == after.document_frequency
        assert before.average_document_length == pytest.approx(
            after.average_document_length
        )

    def test_intermediate_vectors_survive(self, processed):
        library, directory = processed
        restored = MirrorDBMS.load(directory)
        from repro.multimedia.vectors import decode_vector

        rows = restored.contents("ImageLibraryIntermediate")
        vector = decode_vector(rows[0]["image_segments"][0]["rgb"])
        assert len(vector) == 64

    def test_reloaded_db_accepts_updates(self, processed):
        _, directory = processed
        restored = MirrorDBMS.load(directory)
        restored.insert(
            "ImageLibraryInternal",
            [{"source": "new", "annotation": "fresh sunset", "image": ["rgb_0"]}],
        )
        assert restored.count("ImageLibraryInternal") == 11
        removed = restored.delete(
            "ImageLibraryInternal", where=lambda r: r["source"] == "new"
        )
        assert removed == 1
