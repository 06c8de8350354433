"""DigitalLibrary: the Figure-1 federation, end to end.

Wires together everything the paper's section 5 demo uses:

1. the web robot's crawl lands in the **media server**;
2. the ``ImageLibrary`` schema (section 5.2, verbatim) is defined in
   the **Mirror DBMS** and loaded with (url, annotation, image-ref)
   tuples;
3. the **segmentation daemon** and the six **feature daemons** run over
   the media (through ORB proxies), producing the intermediate schema's
   per-segment feature vectors;
4. the **clustering daemon** (AutoClass) fits each feature space; the
   clusters become visual words;
5. the ``ImageLibraryInternal`` schema (CONTREP annotation + CONTREP
   image) is loaded -- the internal schema of section 5.2;
6. the **thesaurus daemon** associates annotation words with visual
   words (dual coding);
7. queries: text-only ranking (section 3 query), content ranking via
   thesaurus formulation (section 5.2 query), or both combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.assignments import ClusterVocabulary
from repro.core.mirror import MirrorDBMS
from repro.daemons.daemon import (
    ClusteringDaemon,
    FeatureDaemon,
    SegmentationDaemon,
    ThesaurusDaemon,
)
from repro.daemons.dictionary import DataDictionary
from repro.daemons.mediaserver import MediaServer
from repro.daemons.orb import Orb
from repro.ir.tokenize import analyze, analyze_many
from repro.multimedia.webrobot import CrawledImage

#: The paper's section 5.2 external schema, verbatim.
IMAGE_LIBRARY_DDL = """
define ImageLibrary as
SET<
  TUPLE<
    Atomic<URL>: source,
    Atomic<Text>: annotation,
    Atomic<Image>: image
  >>;
"""

#: The paper's internal schema after daemons have run, verbatim.
IMAGE_LIBRARY_INTERNAL_DDL = """
define ImageLibraryInternal as
SET<
  TUPLE<
    Atomic<URL>: source,
    CONTREP<Text>: annotation,
    CONTREP<Image>: image
  >>;
"""

#: The *intermediate* schema of section 5.2: per-segment feature
#: vectors, before clustering turns them into visual words.  The paper
#: lists RGB and Gabor columns; we carry one Vector column per
#: configured feature space (same shape, generalized to the six
#: daemons of section 5.1).
def intermediate_ddl(feature_spaces) -> str:
    columns = ",\n        ".join(
        f"Atomic<Vector>: {space}" for space in feature_spaces
    )
    return f"""
    define ImageLibraryIntermediate as
    SET<
      TUPLE<
        Atomic<URL>: source,
        CONTREP<Text>: annotation,
        SET<
          TUPLE<
            Atomic<Image>: segment,
            {columns}
          >
        >: image_segments
      >>;
    """

#: The section 5.2 ranking query over image content.
CONTENT_QUERY = (
    "map[tuple(source = THIS.source, "
    "score = sum(getBL(THIS.image, query, stats)))]"
    "(ImageLibraryInternal);"
)

#: The section 3 ranking query over annotations.
TEXT_QUERY = (
    "map[tuple(source = THIS.source, "
    "score = sum(getBL(THIS.annotation, query, stats)))]"
    "(ImageLibraryInternal);"
)


@dataclass
class RetrievalResult:
    """One ranked answer."""

    url: str
    score: float
    true_class: Optional[str] = None


class DigitalLibrary:
    """The full multimedia digital library federation."""

    FEATURE_SPACES = ("rgb", "hsv", "gabor", "glcm", "autocorr", "laws")

    def __init__(
        self,
        *,
        feature_spaces: Sequence[str] = FEATURE_SPACES,
        clustering_algorithm: str = "autoclass",
        max_classes: int = 8,
        segmentation: str = "grid",
        grid: Tuple[int, int] = (2, 2),
        seed: int = 0,
    ):
        self.orb = Orb()
        self.dictionary = DataDictionary()
        self.media = MediaServer()
        self.mirror = MirrorDBMS()
        self.seed = seed
        # Daemons + their ORB proxies (all calls below go through the
        # proxies: marshalled, accounted, location-transparent).
        segmenter = SegmentationDaemon(
            media=self.media, method=segmentation, rows=grid[0], cols=grid[1]
        )
        self.segmenter = segmenter.attach(self.orb, self.dictionary)
        self.feature_daemons = {}
        for space in feature_spaces:
            daemon = FeatureDaemon(space, media=self.media)
            self.feature_daemons[space] = daemon.attach(self.orb, self.dictionary)
        clusterer = ClusteringDaemon(
            algorithm=clustering_algorithm, max_classes=max_classes, seed=seed
        )
        self.clusterer = clusterer.attach(self.orb, self.dictionary)
        thesaurus = ThesaurusDaemon()
        self.thesaurus = thesaurus.attach(self.orb, self.dictionary)
        # Library state built by ingest()/run_daemons().
        self.items: List[CrawledImage] = []
        self.vocabularies: List[ClusterVocabulary] = []
        self.image_tokens: List[List[str]] = []
        self._annotation_stats = None
        self._image_stats = None

    # ------------------------------------------------------------------
    # Stage 1: crawl -> media server + external schema
    # ------------------------------------------------------------------
    def ingest(self, items: Sequence[CrawledImage]) -> int:
        """Load the robot's crawl: media bytes to the media server, the
        ``ImageLibrary`` tuples into the Mirror DBMS."""
        self.items = list(items)
        for item in self.items:
            self.media.put_image(item.url, item.image)
        self.dictionary.define(_one_line(IMAGE_LIBRARY_DDL))
        self.mirror.define(IMAGE_LIBRARY_DDL)
        rows = [
            {
                "source": item.url,
                "annotation": item.annotation or "",
                "image": item.url,
            }
            for item in self.items
        ]
        return self.mirror.replace("ImageLibrary", rows)

    # ------------------------------------------------------------------
    # Stage 2: daemons -> internal schema
    # ------------------------------------------------------------------
    def run_daemons(self, *, store_intermediate: bool = False) -> Dict[str, int]:
        """Run the full metadata-extraction pipeline; returns a summary
        (segment counts, vocabulary sizes, thesaurus entries).

        With ``store_intermediate=True`` the section 5.2 *intermediate*
        schema (``image_segments`` with per-segment feature vectors) is
        additionally materialized in the Mirror DBMS before clustering.
        """
        if not self.items:
            raise RuntimeError("ingest() a crawl first")
        bboxes_per_image: List[List[Tuple[int, int, int, int]]] = []
        for item in self.items:
            bboxes = self.segmenter.segment_url(item.url)
            bboxes_per_image.append([tuple(b) for b in bboxes])

        features: Dict[str, List[np.ndarray]] = {}
        for space, proxy in self.feature_daemons.items():
            per_image = []
            for item, bboxes in zip(self.items, bboxes_per_image):
                per_image.append(proxy.extract_url(item.url, bboxes))
            features[space] = per_image

        if store_intermediate:
            self._store_intermediate(bboxes_per_image, features)

        self.vocabularies = []
        for space, per_image in features.items():
            stacked = np.vstack([m for m in per_image if len(m)])
            model = self.clusterer.cluster(stacked)
            self.vocabularies.append(ClusterVocabulary(prefix=space, model=model))

        self.image_tokens = []
        for index in range(len(self.items)):
            tokens: List[str] = []
            for vocabulary in self.vocabularies:
                matrix = features[vocabulary.prefix][index]
                if len(matrix):
                    tokens.extend(vocabulary.tokens(matrix))
            self.image_tokens.append(tokens)

        self.dictionary.define(_one_line(IMAGE_LIBRARY_INTERNAL_DDL))
        self.mirror.define(IMAGE_LIBRARY_INTERNAL_DDL)
        rows = [
            {
                "source": item.url,
                "annotation": item.annotation or "",
                "image": tokens,
            }
            for item, tokens in zip(self.items, self.image_tokens)
        ]
        self.mirror.replace("ImageLibraryInternal", rows)
        self._annotation_stats = self.mirror.stats(
            "ImageLibraryInternal", "annotation"
        )
        self._image_stats = self.mirror.stats("ImageLibraryInternal", "image")

        annotated = [
            (item.annotation, tokens)
            for item, tokens in zip(self.items, self.image_tokens)
            if item.annotation
        ]
        terms = analyze_many(annotation for annotation, _ in annotated)
        associations = self.thesaurus.build(
            [(words, tokens) for words, (_, tokens) in zip(terms, annotated)]
        )
        return {
            "images": len(self.items),
            "segments": sum(len(b) for b in bboxes_per_image),
            "feature_spaces": len(self.vocabularies),
            "visual_words": sum(
                getattr(v.model, "n_classes", 0) for v in self.vocabularies
            ),
            "thesaurus_associations": associations,
            "orb_calls": self.orb.call_count(),
        }

    def _store_intermediate(
        self,
        bboxes_per_image: List[List[Tuple[int, int, int, int]]],
        features: Dict[str, List[np.ndarray]],
    ) -> None:
        """Materialize the section 5.2 intermediate schema."""
        from repro.multimedia.vectors import encode_vector

        spaces = list(self.feature_daemons)
        ddl = intermediate_ddl(spaces)
        self.dictionary.define(_one_line(ddl))
        self.mirror.define(ddl)
        rows = []
        for index, (item, bboxes) in enumerate(
            zip(self.items, bboxes_per_image)
        ):
            segments = []
            for seg_index, bbox in enumerate(bboxes):
                segment = {"segment": f"{item.url}#seg{seg_index}"}
                for space in spaces:
                    segment[space] = encode_vector(
                        features[space][index][seg_index]
                    )
                segments.append(segment)
            rows.append(
                {
                    "source": item.url,
                    "annotation": item.annotation or "",
                    "image_segments": segments,
                }
            )
        self.mirror.replace("ImageLibraryIntermediate", rows)

    # ------------------------------------------------------------------
    # Stage 3: querying
    # ------------------------------------------------------------------
    def formulate(self, text: str, per_word: int = 3) -> List[str]:
        """Query formulation: text -> visual-cluster terms via the
        thesaurus daemon (the section 5.2 first step)."""
        return list(self.thesaurus.formulate(analyze(text), per_word))

    def query_text(self, text: str, k: int = 10) -> List[RetrievalResult]:
        """Rank by textual annotations (the section 3 query)."""
        terms = analyze(text)
        result = self.mirror.query(
            TEXT_QUERY, {"query": terms, "stats": self._annotation_stats}
        )
        return self._ranked(result.value, k)

    def query_content(
        self, text: str, k: int = 10, per_word: int = 3
    ) -> List[RetrievalResult]:
        """Rank by image content via thesaurus formulation (the
        section 5.2 query); returns [] when no clusters associate."""
        clusters = self.formulate(text, per_word)
        return self.query_clusters(clusters, k)

    def query_clusters(
        self, clusters: Sequence[str], k: int = 10
    ) -> List[RetrievalResult]:
        """Rank by an explicit visual-word query (the paper's ``query``
        Moa expression after formulation)."""
        if not clusters:
            return []
        result = self.mirror.query(
            CONTENT_QUERY, {"query": list(clusters), "stats": self._image_stats}
        )
        return self._ranked(result.value, k)

    def query_combined(
        self,
        text: str,
        k: int = 10,
        *,
        text_weight: float = 0.5,
        per_word: int = 3,
    ) -> List[RetrievalResult]:
        """Dual-coding retrieval: weighted sum of annotation and content
        scores (evidence combination across the two codes)."""
        terms = analyze(text)
        clusters = self.formulate(text, per_word)
        text_result = self.mirror.query(
            TEXT_QUERY, {"query": terms, "stats": self._annotation_stats}
        )
        scores: Dict[str, float] = {
            row["source"]: text_weight * row["score"]
            for row in text_result.value
        }
        if clusters:
            content_result = self.mirror.query(
                CONTENT_QUERY, {"query": clusters, "stats": self._image_stats}
            )
            for row in content_result.value:
                scores[row["source"]] = scores.get(row["source"], 0.0) + (
                    1.0 - text_weight
                ) * row["score"]
        ranked = [{"source": url, "score": s} for url, s in scores.items()]
        return self._ranked(ranked, k)

    # ------------------------------------------------------------------
    def _ranked(self, rows: List[dict], k: int) -> List[RetrievalResult]:
        classes = {item.url: item.true_class for item in self.items}
        results = [
            RetrievalResult(
                url=row["source"],
                score=float(row["score"]),
                true_class=classes.get(row["source"]),
            )
            for row in rows
        ]
        results.sort(key=lambda r: (-r.score, r.url))
        return results[:k]

    def tokens_for(self, url: str) -> List[str]:
        """Visual words of one image (feedback uses this)."""
        for item, tokens in zip(self.items, self.image_tokens):
            if item.url == url:
                return list(tokens)
        raise KeyError(f"unknown url {url!r}")

    def annotation_for(self, url: str) -> Optional[str]:
        for item in self.items:
            if item.url == url:
                return item.annotation
        raise KeyError(f"unknown url {url!r}")


def _one_line(ddl: str) -> str:
    return " ".join(ddl.split())
