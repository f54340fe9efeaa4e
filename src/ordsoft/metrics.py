"""Ordinal evaluation measures computed from a confusion matrix.

QWK penalises disagreement by squared rank distance; MAE is the mean rank
distance; AMAE/MMAE average/maximise the per-class MAE so minority grades
count equally; MS and BA are the worst and mean per-class recall. Classes
with no evaluated samples are excluded from per-class averages and flagged
in the report, since the per-class formulas divide by the class count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ConfusionMatrix

METRIC_NAMES = ("qwk", "mae", "ms", "ba", "amae", "mmae")


class UndefinedMetricError(ValueError):
    """A metric is undefined for this matrix (degenerate marginals or empty input)."""


def _counts(confusion: ConfusionMatrix) -> np.ndarray:
    counts = confusion.counts.astype(float)
    if counts.sum() == 0:
        raise UndefinedMetricError("metrics are undefined for an empty confusion matrix")
    return counts


def qwk(confusion: ConfusionMatrix) -> float:
    """Quadratic weighted kappa: |i-j|^2 / (J-1)^2 penalties."""
    counts = _counts(confusion)
    j = confusion.n_classes
    idx = np.arange(j)
    weights = np.abs(idx[:, None] - idx[None, :]) ** 2 / (j - 1) ** 2
    total = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / total
    denom = (weights * expected).sum()
    if denom == 0:
        raise UndefinedMetricError(
            "QWK is undefined: expected-agreement weight is zero (degenerate marginals)"
        )
    return float(1.0 - (weights * counts).sum() / denom)


def mae(confusion: ConfusionMatrix) -> float:
    """Mean absolute rank distance between true and predicted grades."""
    counts = _counts(confusion)
    j = confusion.n_classes
    idx = np.arange(j)
    dist = np.abs(idx[:, None] - idx[None, :])
    return float((dist * counts).sum() / counts.sum())


def per_class_mae(confusion: ConfusionMatrix) -> list[Optional[float]]:
    """MAE restricted to each true class; None for classes with no samples."""
    counts = _counts(confusion)
    j = confusion.n_classes
    idx = np.arange(j)
    dist = np.abs(idx[:, None] - idx[None, :])
    row_totals = counts.sum(axis=1)
    out: list[Optional[float]] = []
    for k in range(j):
        if row_totals[k] == 0:
            out.append(None)
        else:
            out.append(float((dist[k] * counts[k]).sum() / row_totals[k]))
    return out


def _present_class_values(values: Sequence[Optional[float]]) -> list[float]:
    present = [v for v in values if v is not None]
    if not present:
        raise UndefinedMetricError("all classes are empty")
    return present


def amae(confusion: ConfusionMatrix) -> float:
    """Mean of the per-class MAE over classes with at least one sample."""
    return float(np.mean(_present_class_values(per_class_mae(confusion))))


def mmae(confusion: ConfusionMatrix) -> float:
    """Largest per-class MAE; always >= amae."""
    return float(np.max(_present_class_values(per_class_mae(confusion))))


def _per_class_recall(confusion: ConfusionMatrix) -> list[Optional[float]]:
    counts = _counts(confusion)
    row_totals = counts.sum(axis=1)
    return [
        None if row_totals[k] == 0 else float(counts[k, k] / row_totals[k])
        for k in range(confusion.n_classes)
    ]


def min_sensitivity(confusion: ConfusionMatrix) -> float:
    """Worst per-class recall over classes with at least one sample."""
    return float(np.min(_present_class_values(_per_class_recall(confusion))))


def balanced_accuracy(confusion: ConfusionMatrix) -> float:
    """Mean per-class recall over classes with at least one sample."""
    return float(np.mean(_present_class_values(_per_class_recall(confusion))))


@dataclass(frozen=True)
class MetricReport:
    qwk: float
    mae: float
    amae: float
    mmae: float
    ms: float
    ba: float
    per_class_mae: tuple
    empty_classes: tuple

    def to_dict(self) -> dict:
        """Every field under the report schema; the tuples are written as JSON lists."""
        return {"schema": "ordsoft.metric_report-v1", **asdict(self)}


def compute_report(confusion: ConfusionMatrix) -> MetricReport:
    """All six measures plus the per-class MAE breakdown for one matrix."""
    pcm = per_class_mae(confusion)
    empty = tuple(k for k, v in enumerate(pcm) if v is None)
    return MetricReport(
        qwk=qwk(confusion),
        mae=mae(confusion),
        amae=amae(confusion),
        mmae=mmae(confusion),
        ms=min_sensitivity(confusion),
        ba=balanced_accuracy(confusion),
        per_class_mae=tuple(pcm),
        empty_classes=empty,
    )
