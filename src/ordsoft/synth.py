"""Synthetic ordinal datasets.

``generate`` places class k at k * class_separation along the first feature
axis with isotropic Gaussian noise, then corrupts labels by flipping each one
to a uniformly chosen adjacent grade with a fixed probability — the
adjacent-confusion regime ordinal soft labels are built for. ``generate_paired``
draws A uniformly over its grades and B conditionally on A, so that the joint
table is concentrated on B = 0 for low A grades and spreads toward uniform for
high A grades, reproducing the asymmetric association shape the joint
analysis targets. Paired data takes the same label noise
(``adjacent_flip_prob``, applied to each scale) and the same feature spec
(``n_features``, ``class_separation``, ``noise_sd``) as single data, with the
same checks, except that it needs at least 2 features.

All draws come from per-purpose child generators of the spec seed, so e.g.
changing the flip probability never changes the noise drawn for the features.
``paired_features`` places its rows at the flipped grades, though, so on paired
data the flips move the features with the labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import SampleSet

# substream ids for seeding child generators
_STREAM_FEATURES = 1
_STREAM_FLIPS = 2
_STREAM_PAIRS = 3
_STREAM_PAIR_FLIPS_A = 21
_STREAM_PAIR_FLIPS_B = 22


def _check_features_and_noise(spec, min_features: int) -> None:
    """The checks shared by both specs of the feature, label-noise and seed fields."""
    if spec.n_features < min_features:
        raise ValueError(f"n_features must be at least {min_features}, got {spec.n_features}")
    if spec.class_separation <= 0 or spec.noise_sd <= 0:
        raise ValueError("class_separation and noise_sd must be positive")
    if not 0.0 <= spec.adjacent_flip_prob < 0.5:
        raise ValueError("adjacent_flip_prob must lie in [0, 0.5)")
    if spec.seed < 0:
        raise ValueError(f"seed must be non-negative, got {spec.seed}")


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int
    n_per_class: Union[int, tuple]
    n_features: int = 8
    class_separation: float = 1.0
    noise_sd: float = 0.5
    adjacent_flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        counts = self.class_counts()
        if any(c < 2 for c in counts):
            raise ValueError("every class needs at least 2 samples")
        _check_features_and_noise(self, min_features=1)

    def class_counts(self) -> tuple:
        if isinstance(self.n_per_class, int):
            return (self.n_per_class,) * self.n_classes
        counts = tuple(int(c) for c in self.n_per_class)
        if len(counts) != self.n_classes:
            raise ValueError("n_per_class must have one entry per class")
        return counts


def flip_adjacent(labels: np.ndarray, n_classes: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each label to a uniformly chosen adjacent grade with probability prob."""
    labels = np.asarray(labels, dtype=int).copy()
    if prob == 0.0:
        return labels
    flip = rng.random(labels.size) < prob
    direction = rng.integers(0, 2, size=labels.size) * 2 - 1  # -1 or +1
    moved = labels + direction
    # boundary grades have a single neighbour
    moved[labels == 0] = 1
    moved[labels == n_classes - 1] = n_classes - 2
    labels[flip] = moved[flip]
    return labels


def generate(spec: SynthSpec) -> SampleSet:
    """Gaussian class clusters along a latent severity axis, with label noise."""
    counts = spec.class_counts()
    rng_feat = np.random.default_rng([spec.seed, _STREAM_FEATURES])
    rng_flip = np.random.default_rng([spec.seed, _STREAM_FLIPS])
    labels = np.repeat(np.arange(spec.n_classes), counts)
    centres = np.zeros((spec.n_classes, spec.n_features))
    # zero-centred severity axis keeps the output bias from dominating early training
    centres[:, 0] = (np.arange(spec.n_classes) - (spec.n_classes - 1) / 2.0) * spec.class_separation
    features = centres[labels] + rng_feat.normal(0.0, spec.noise_sd, size=(labels.size, spec.n_features))
    labels = flip_adjacent(labels, spec.n_classes, spec.adjacent_flip_prob, rng_flip)
    return SampleSet(features, labels)


@dataclass(frozen=True)
class PairedSynthSpec:
    n_classes_a: int
    n_classes_b: int
    n_samples: int
    low_grade_concentration: float = 0.85
    high_grade_spread: float = 0.9
    seed: int = 0
    n_features: int = 8
    class_separation: float = 1.0
    noise_sd: float = 0.5
    adjacent_flip_prob: float = 0.0  # per scale

    def __post_init__(self) -> None:
        if self.n_classes_a < 2 or self.n_classes_b < 2:
            raise ValueError("both grade scales need at least 2 levels")
        if self.n_samples < 1:
            raise ValueError("need at least 1 sample")
        if not 0.0 < self.low_grade_concentration <= 1.0:
            raise ValueError("low_grade_concentration must lie in (0, 1]")
        if not 0.0 < self.high_grade_spread <= 1.0:
            raise ValueError("high_grade_spread must lie in (0, 1]")
        # axis 0 carries A and axis 1 carries B
        _check_features_and_noise(self, min_features=2)


def paired_conditional(spec: PairedSynthSpec, grade_a: int) -> np.ndarray:
    """P(B | A = grade_a): concentrated on B=0 for low A, near-uniform for high A.

    The mixing weight toward uniform grows linearly with the A grade index and
    is scaled by high_grade_spread; the concentrated component puts
    low_grade_concentration on B = 0 and spreads the remainder uniformly.
    """
    jb = spec.n_classes_b
    conc = np.full(jb, (1.0 - spec.low_grade_concentration) / (jb - 1))
    conc[0] = spec.low_grade_concentration
    uniform = np.full(jb, 1.0 / jb)
    w = (grade_a / (spec.n_classes_a - 1)) * spec.high_grade_spread
    return (1.0 - w) * conc + w * uniform


def generate_paired(spec: PairedSynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """The A and B grades of each sample: A drawn uniformly over its grades, then B
    conditionally on A, then each scale's grades flipped to an adjacent one at
    ``adjacent_flip_prob``."""
    rng = np.random.default_rng([spec.seed, _STREAM_PAIRS])
    labels_a = rng.integers(0, spec.n_classes_a, size=spec.n_samples)
    labels_b = np.empty(spec.n_samples, dtype=int)
    conditionals = np.stack([paired_conditional(spec, a) for a in range(spec.n_classes_a)])
    for a in range(spec.n_classes_a):
        mask = labels_a == a
        labels_b[mask] = rng.choice(spec.n_classes_b, size=int(mask.sum()), p=conditionals[a])
    labels_a = flip_adjacent(
        labels_a, spec.n_classes_a, spec.adjacent_flip_prob,
        np.random.default_rng([spec.seed, _STREAM_PAIR_FLIPS_A]),
    )
    labels_b = flip_adjacent(
        labels_b, spec.n_classes_b, spec.adjacent_flip_prob,
        np.random.default_rng([spec.seed, _STREAM_PAIR_FLIPS_B]),
    )
    return labels_a, labels_b


def paired_features(labels_a: np.ndarray, labels_b: np.ndarray, spec: PairedSynthSpec) -> np.ndarray:
    """Features carrying both grades: axis 0 scales with A, axis 1 with B."""
    rng = np.random.default_rng([spec.seed, _STREAM_FEATURES])
    features = rng.normal(0.0, spec.noise_sd, size=(labels_a.size, spec.n_features))
    features[:, 0] += labels_a * spec.class_separation
    features[:, 1] += labels_b * spec.class_separation
    return features
