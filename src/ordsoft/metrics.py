"""Ordinal evaluation measures computed from a confusion matrix.

QWK penalises disagreement by squared rank distance; MAE is the mean rank
distance; AMAE/MMAE average/maximise the per-class MAE so minority grades
count equally; MS and BA are the worst and mean per-class recall. Classes
with no evaluated samples are excluded from per-class averages and flagged
in the report, since the per-class formulas divide by the class count.

Each matrix is scored in one pass (``Scores``): its float counts, ``|i-j|``
distances, row totals and per-class MAE and recall are computed once, and
``compute_report`` reads all six measures off that pass, as a caller that
needs a few of them reads those. Each single measure is a reader of its own
pass. The counts are integers, so every sum before a division is exact and
the pass gives the per-class formulas' values bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import ConfusionMatrix

METRIC_NAMES = ("qwk", "mae", "ms", "ba", "amae", "mmae")


class UndefinedMetricError(ValueError):
    """A metric is undefined for this matrix (degenerate marginals or empty input)."""


class Scores:
    """One pass over a confusion matrix: its float counts, ``|i-j|`` distances and
    row totals, MAE, and each class's MAE and recall over the classes with samples,
    with the mean and extremes of those; QWK, which can be undefined, on demand."""

    def __init__(self, confusion: ConfusionMatrix):
        self.counts = confusion.counts.astype(float)
        self.total = self.counts.sum()
        if self.total == 0:
            raise UndefinedMetricError("metrics are undefined for an empty confusion matrix")
        idx = np.arange(confusion.n_classes)
        self.dist = np.abs(idx[:, None] - idx[None, :])
        weighted = self.dist * self.counts
        self.mae = float(weighted.sum() / self.total)
        self.rows = self.counts.sum(axis=1)
        self.present = self.rows > 0
        rows = self.rows[self.present]
        class_mae = weighted.sum(axis=1)[self.present] / rows
        recall = self.counts.diagonal()[self.present] / rows
        self.amae, self.mmae = float(np.mean(class_mae)), float(np.max(class_mae))
        self.ms, self.ba = float(np.min(recall)), float(np.mean(recall))
        values = iter(class_mae.tolist())
        self.per_class_mae = tuple(next(values) if has else None for has in self.present)

    def qwk(self) -> float:
        weights = self.dist**2 / (len(self.rows) - 1) ** 2
        expected = np.outer(self.rows, self.counts.sum(axis=0)) / self.total
        denom = (weights * expected).sum()
        if denom == 0:
            raise UndefinedMetricError(
                "QWK is undefined: expected-agreement weight is zero (degenerate marginals)"
            )
        return float(1.0 - (weights * self.counts).sum() / denom)


def qwk(confusion: ConfusionMatrix) -> float:
    """Quadratic weighted kappa: |i-j|^2 / (J-1)^2 penalties."""
    return Scores(confusion).qwk()


def mae(confusion: ConfusionMatrix) -> float:
    """Mean absolute rank distance between true and predicted grades."""
    return Scores(confusion).mae


def amae(confusion: ConfusionMatrix) -> float:
    """Mean of the per-class MAE over classes with at least one sample."""
    return Scores(confusion).amae


def mmae(confusion: ConfusionMatrix) -> float:
    """Largest per-class MAE; always >= amae."""
    return Scores(confusion).mmae


def min_sensitivity(confusion: ConfusionMatrix) -> float:
    """Worst per-class recall over classes with at least one sample."""
    return Scores(confusion).ms


def balanced_accuracy(confusion: ConfusionMatrix) -> float:
    """Mean per-class recall over classes with at least one sample."""
    return Scores(confusion).ba


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
    """All six measures plus the per-class MAE breakdown for one matrix, off one pass."""
    scores = Scores(confusion)
    return MetricReport(
        qwk=scores.qwk(),
        mae=scores.mae,
        amae=scores.amae,
        mmae=scores.mmae,
        ms=scores.ms,
        ba=scores.ba,
        per_class_mae=scores.per_class_mae,
        empty_classes=tuple(np.flatnonzero(~scores.present).tolist()),
    )
