"""Procedural scene generator: the stand-in for the web robot's crawl.

The paper's demo library holds real web images; offline we synthesize
images from a fixed set of *scene classes*.  Each class prescribes a
vertical composition of colored bands (sky/horizon/ground), a
characteristic texture (orientation + frequency of a sinusoidal
grating, so the Gabor/texture extractors genuinely discriminate), and
an annotation vocabulary.  Ground truth (the generating class) travels
with every image, which is what lets :mod:`repro.evaluation` and
``benchmarks/bench_feedback.py`` measure retrieval quality
(precision@k) instead of eyeballing screenshots.

Determinism: everything derives from an integer seed through
``numpy.random.default_rng``; the same seed reproduces the same
library byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.multimedia.image import Image


@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one scene class."""

    name: str
    #: vertical bands top->bottom: (fraction, (r, g, b) base color)
    bands: Tuple[Tuple[float, Tuple[int, int, int]], ...]
    #: sinusoidal grating: (orientation radians, cycles per image, amplitude)
    texture: Tuple[float, float, float]
    #: words used to annotate images of this class
    vocabulary: Tuple[str, ...]
    #: per-pixel gaussian noise sigma
    noise: float = 8.0


SCENE_CLASSES: Dict[str, SceneSpec] = {
    "sunset_beach": SceneSpec(
        name="sunset_beach",
        bands=(
            (0.35, (240, 120, 60)),   # orange sky
            (0.15, (250, 180, 90)),   # glow
            (0.25, (60, 90, 160)),    # sea
            (0.25, (210, 190, 140)),  # sand
        ),
        texture=(0.0, 6.0, 18.0),     # horizontal waves
        vocabulary=("sunset", "beach", "sea", "orange", "sky", "waves", "sand"),
    ),
    "forest": SceneSpec(
        name="forest",
        bands=(
            (0.25, (140, 180, 220)),  # pale sky
            (0.55, (40, 110, 50)),    # canopy
            (0.20, (70, 60, 40)),     # ground
        ),
        texture=(np.pi / 2, 14.0, 22.0),  # vertical trunks
        vocabulary=("forest", "green", "trees", "leaves", "wood", "nature"),
    ),
    "mountain": SceneSpec(
        name="mountain",
        bands=(
            (0.30, (150, 180, 230)),  # sky
            (0.40, (120, 120, 130)),  # rock
            (0.30, (230, 235, 240)),  # snow field
        ),
        texture=(np.pi / 4, 10.0, 16.0),  # diagonal ridges
        vocabulary=("mountain", "snow", "rock", "peak", "alpine", "sky"),
    ),
    "city_night": SceneSpec(
        name="city_night",
        bands=(
            (0.45, (20, 20, 45)),     # night sky
            (0.35, (40, 40, 60)),     # skyline
            (0.20, (15, 15, 25)),     # street
        ),
        texture=(np.pi / 2, 24.0, 30.0),  # window grids
        vocabulary=("city", "night", "skyline", "lights", "buildings", "urban"),
    ),
    "ocean": SceneSpec(
        name="ocean",
        bands=(
            (0.40, (130, 170, 220)),  # day sky
            (0.60, (30, 80, 150)),    # open water
        ),
        texture=(0.0, 9.0, 20.0),     # horizontal swell
        vocabulary=("ocean", "sea", "blue", "water", "waves", "horizon"),
    ),
    "desert": SceneSpec(
        name="desert",
        bands=(
            (0.35, (170, 200, 240)),  # sky
            (0.65, (220, 180, 110)),  # dunes
        ),
        texture=(np.pi / 8, 5.0, 14.0),  # gentle dune ripples
        vocabulary=("desert", "sand", "dunes", "dry", "yellow", "heat"),
    ),
}


def generate_scene(
    class_name: str,
    *,
    rng: Optional[np.random.Generator] = None,
    size: Tuple[int, int] = (64, 64),
) -> Image:
    """Render one image of scene class *class_name*."""
    spec = SCENE_CLASSES.get(class_name)
    if spec is None:
        raise KeyError(
            f"unknown scene class {class_name!r}; known: {sorted(SCENE_CLASSES)}"
        )
    rng = rng or np.random.default_rng(0)
    height, width = size
    canvas = np.zeros((height, width, 3), dtype=np.float64)
    top = 0
    for fraction, color in spec.bands:
        band_height = max(1, int(round(fraction * height)))
        bottom = min(height, top + band_height)
        jitter = rng.normal(0.0, 6.0, size=3)
        canvas[top:bottom, :] = np.asarray(color, dtype=np.float64) + jitter
        top = bottom
    if top < height:
        canvas[top:height, :] = canvas[top - 1, :]

    orientation, cycles, amplitude = spec.texture
    ys, xs = np.mgrid[0:height, 0:width]
    phase = rng.uniform(0, 2 * np.pi)
    wave = np.sin(
        2
        * np.pi
        * cycles
        * (np.cos(orientation) * ys / height + np.sin(orientation) * xs / width)
        + phase
    )
    canvas += amplitude * wave[:, :, None]
    canvas += rng.normal(0.0, spec.noise, size=canvas.shape)
    return Image(np.clip(canvas, 0, 255).astype(np.uint8))


def annotate_scene(
    class_name: str,
    rng: Optional[np.random.Generator] = None,
    *,
    words: int = 5,
) -> str:
    """Draw an annotation sentence from the class vocabulary."""
    spec = SCENE_CLASSES[class_name]
    rng = rng or np.random.default_rng(0)
    count = min(words, len(spec.vocabulary))
    chosen = list(rng.choice(spec.vocabulary, size=count, replace=False))
    return "a photo of " + " ".join(chosen)


def class_names() -> List[str]:
    return sorted(SCENE_CLASSES)
