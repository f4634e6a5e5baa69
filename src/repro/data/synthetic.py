"""Synthetic data generators shared by the per-setting proxy datasets.

Every generator is deterministic given a seed, sized for CPU execution and
constructed so that learning-rate scheduling visibly matters: class templates
are separated enough for a small network to learn, but per-sample noise keeps
mini-batch gradients stochastic so a never-decayed learning rate plateaus at a
higher error than a decayed one.

The generators are pure functions of their arguments, and a budget sweep asks
for the same (spec, seed) once per cell and split, so each is memoised per
process.  Their arrays are shared between callers and therefore read-only;
datasets index them and the loader's batches are fresh copies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.utils.seeding import get_global_seed, spawn_rng

__all__ = [
    "ImageClassificationSpec",
    "make_image_classification",
    "SequenceTaskSpec",
    "make_sequence_classification",
    "make_detection_scenes",
]

#: generations kept per generator and process: every cell of a table shares
#: one (spec, seed), a seed-batched cell needs one entry per trial seed, and
#: the detection proxy's two splits are two entries
_MEMO_SIZE = 16

_Generator = Callable[..., tuple[np.ndarray, ...]]


def _memoised(generate: _Generator) -> _Generator:
    """LRU-cache ``generate`` on its positional arguments; cached arrays are read-only."""

    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def cached(*args: object) -> tuple[np.ndarray, ...]:
        arrays = generate(*args)
        for array in arrays:
            array.flags.writeable = False
        return arrays

    return cached


def _resolve_seed(seed: int | None) -> int:
    """The base seed :func:`spawn_rng` would use, so equal streams share a cache key."""
    return get_global_seed() if seed is None else int(seed)


@dataclass(frozen=True)
class ImageClassificationSpec:
    """Parameters of a synthetic class-conditional image dataset."""

    num_classes: int
    num_train: int
    num_test: int
    image_size: int = 8
    channels: int = 3
    noise_std: float = 0.9
    template_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.num_train < self.num_classes or self.num_test < 1:
            raise ValueError("dataset too small for the number of classes")
        if self.image_size < 4:
            raise ValueError("image_size must be at least 4")


def make_image_classification(
    spec: ImageClassificationSpec, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate (x_train, y_train, x_test, y_test) as read-only arrays.

    Each class has a fixed smooth random template; samples are
    ``template + noise`` with additive Gaussian noise and a random per-sample
    brightness jitter, producing a non-trivially separable problem whose
    optimum benefits from annealing the learning rate.
    """
    return _image_classification(spec, _resolve_seed(seed))


@_memoised
def _image_classification(
    spec: ImageClassificationSpec, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rng = spawn_rng("image_classification", seed=seed)
    c, h = spec.channels, spec.image_size
    templates = rng.standard_normal((spec.num_classes, c, h, h))
    # Smooth the templates a little so nearby pixels correlate (image-like).
    kernel = np.array([0.25, 0.5, 0.25])
    for axis in (2, 3):
        templates = _smooth_along(templates, kernel, axis)
    templates *= spec.template_scale

    def _sample(n: int, label_rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        labels = label_rng.integers(0, spec.num_classes, size=n)
        base = templates[labels]
        noise = label_rng.standard_normal(base.shape) * spec.noise_std
        brightness = label_rng.uniform(0.8, 1.2, size=(n, 1, 1, 1))
        x = base * brightness + noise
        return x.astype(np.float64), labels.astype(np.int64)

    x_train, y_train = _sample(spec.num_train, spawn_rng("img_train", seed=seed))
    x_test, y_test = _sample(spec.num_test, spawn_rng("img_test", seed=seed))
    return x_train, y_train, x_test, y_test


def _smooth_along(x: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """1D convolution along ``axis`` with edge padding (cheap smoothing)."""
    pad = len(kernel) // 2
    padded = np.take(x, np.clip(np.arange(-pad, x.shape[axis] + pad), 0, x.shape[axis] - 1), axis=axis)
    out = np.zeros_like(x)
    for i, k in enumerate(kernel):
        out += k * np.take(padded, np.arange(i, i + x.shape[axis]), axis=axis)
    return out


@dataclass(frozen=True)
class SequenceTaskSpec:
    """Parameters of a synthetic token-sequence (NLP proxy) task."""

    name: str
    num_train: int
    num_test: int
    seq_len: int = 16
    vocab_size: int = 64
    num_classes: int = 2
    pair: bool = False
    regression: bool = False
    label_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.seq_len < 4:
            raise ValueError("seq_len must be at least 4")
        if self.vocab_size < 8:
            raise ValueError("vocab_size must be at least 8")


def make_sequence_classification(
    spec: SequenceTaskSpec, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate a token-sequence task: (tokens, segments, labels) for train and test.

    The six arrays are read-only.

    * single-sentence tasks: the label depends on the balance of tokens drawn
      from two designated "sentiment" vocab halves;
    * sentence-pair tasks (``pair=True``): segment ids mark the two sentences
      and the label depends on their token overlap (entailment/similarity
      proxy);
    * regression tasks (``regression=True``): the label is the continuous
      overlap score instead of a class index.
    """
    return _sequence_classification(spec, _resolve_seed(seed))


@_memoised
def _sequence_classification(
    spec: SequenceTaskSpec, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    def _make(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        tokens = rng.integers(2, spec.vocab_size, size=(n, spec.seq_len))
        segments = np.zeros((n, spec.seq_len), dtype=np.int64)
        if spec.pair:
            split = spec.seq_len // 2
            segments[:, split:] = 1
            first, second = tokens[:, :split], tokens[:, split:]
            overlap = np.array(
                [len(np.intersect1d(a, b)) / split for a, b in zip(first, second)]
            )
            score = overlap
        else:
            half = spec.vocab_size // 2
            positive_frac = (tokens >= half).mean(axis=1)
            score = positive_frac
        if spec.regression:
            labels = score.astype(np.float64)
            labels = labels + rng.normal(0.0, spec.label_noise, size=labels.shape)
        else:
            edges = np.quantile(score, np.linspace(0, 1, spec.num_classes + 1)[1:-1])
            labels = np.digitize(score, edges).astype(np.int64)
            flip = rng.random(n) < spec.label_noise
            labels[flip] = rng.integers(0, spec.num_classes, size=int(flip.sum()))
        tokens[:, 0] = 1  # [CLS]-like token
        return tokens.astype(np.int64), segments, labels

    train = _make(spec.num_train, spawn_rng("seq_train", spec.name, seed=seed))
    test = _make(spec.num_test, spawn_rng("seq_test", spec.name, seed=seed))
    return (*train, *test)


def make_detection_scenes(
    num_scenes: int,
    image_size: int = 16,
    grid_size: int = 4,
    num_classes: int = 3,
    max_objects: int = 3,
    noise_std: float = 0.3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate synthetic detection scenes and YOLO-style grid targets (read-only).

    Returns
    -------
    images:
        (N, 3, H, H) scenes — noisy background with bright class-coloured
        square objects.
    targets:
        (N, G, G, 5 + num_classes) grid targets: [tx, ty, tw, th, obj, onehot...]
        where (tx, ty) are the object centre and (tw, th) the box size, all
        expressed as fractions of the image so every coordinate shares the
        same units (which keeps the IoU matching in the mAP metric well posed).
    """
    if image_size % grid_size != 0:
        raise ValueError("image_size must be divisible by grid_size")
    return _detection_scenes(
        num_scenes, image_size, grid_size, num_classes, max_objects, noise_std, _resolve_seed(seed)
    )


@_memoised
def _detection_scenes(
    num_scenes: int,
    image_size: int,
    grid_size: int,
    num_classes: int,
    max_objects: int,
    noise_std: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    rng = spawn_rng("detection", seed=seed)
    cell = image_size // grid_size
    images = rng.standard_normal((num_scenes, 3, image_size, image_size)) * noise_std
    targets = np.zeros((num_scenes, grid_size, grid_size, 5 + num_classes))
    # Spread class colours around distinct channel directions so the class of a
    # patch is visually unambiguous (the proxy detector must be able to learn
    # classification within a small step budget).
    base_colours = np.eye(3)[np.arange(num_classes) % 3] * 2.5
    class_colours = base_colours + rng.uniform(0.0, 0.5, size=(num_classes, 3))

    for i in range(num_scenes):
        n_obj = rng.integers(1, max_objects + 1)
        used_cells: set[tuple[int, int]] = set()
        for _ in range(n_obj):
            cls = int(rng.integers(0, num_classes))
            size = int(rng.integers(cell, 2 * cell))
            cx = float(rng.uniform(size / 2, image_size - size / 2))
            cy = float(rng.uniform(size / 2, image_size - size / 2))
            gx, gy = int(cx // cell), int(cy // cell)
            if (gx, gy) in used_cells:
                continue
            used_cells.add((gx, gy))
            x0, x1 = int(cx - size / 2), int(cx + size / 2)
            y0, y1 = int(cy - size / 2), int(cy + size / 2)
            images[i, :, y0:y1, x0:x1] += class_colours[cls][:, None, None]
            targets[i, gy, gx, 0] = cx / image_size
            targets[i, gy, gx, 1] = cy / image_size
            targets[i, gy, gx, 2] = size / image_size
            targets[i, gy, gx, 3] = size / image_size
            targets[i, gy, gx, 4] = 1.0
            targets[i, gy, gx, 5 + cls] = 1.0
    return images, targets
