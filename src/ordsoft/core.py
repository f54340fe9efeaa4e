"""Domain types shared across the package: label spaces, sample sets, count
tables, prediction records and run results.

Grades are 0-indexed internally; reports print whatever clinical labels the
caller attaches. Each type checks its own fields, once, at construction:
``LabelSpace`` owns J >= 2 and ``PredictionSet`` finite probability rows that
sum to 1, and sets its hard predictions to the row argmax itself, so they hold
by construction; ties break toward the lower grade (under-calling severity is
the conservative default), which is what ``np.argmax`` does.

``ContingencyTable.from_labels`` is the one rule for counting label pairs, for
a joint KL x CPPD table and for its square case, ``ConfusionMatrix``, alike.
``RunResult`` holds the trainer's record of the candidate a run trained.

``read_labelled_csv`` reads the header with the csv module and checks its
trailing label columns and at least one feature column before them, then
parses the rows in one pass with numpy's C reader (``np.loadtxt`` into one
record per row: d float64 features and an int64 per label), in about half
the time of ``csv.reader`` and ``float()`` and with the same float64 bits.
Blank lines are skipped and CRLF, CR and LF line ends read alike, as with the
csv module; a row whose cell count differs from the header's, a cell that does
not parse (a label must be an integer literal) and a NaN or infinite feature
raise a ``ValueError``. Only then is the file rescanned, with the csv module,
to name the first such row by its 1-based line and its fault; a file read
without fault is parsed once.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .metrics import MetricReport
    from .trainer import TrainHistory

ROW_SUM_TOL = 1e-9


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a number, or an
    integer when ``integer``; an integer is a number too, a boolean neither."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if integer else "a number"
        raise ValueError(f"{name} must be {expected}, got {value!r}")


def read_header(reader, path: str) -> list[str]:
    """The header row of a CSV ``reader`` over ``path``; an empty file raises a
    ``ValueError`` naming it."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header line")
    return header


def write_labelled_csv(path: str, features: np.ndarray, labels: dict) -> None:
    """Write ``features`` as columns f0,...,f{d-1} followed by one integer column
    per entry of ``labels`` (column name -> labels)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(features.shape[1])] + list(labels))
        for row, *labs in zip(features, *labels.values()):
            writer.writerow([repr(float(v)) for v in row] + [int(v) for v in labs])


def read_labelled_csv(path: str, label_names: tuple) -> tuple:
    """The features and the label columns of a CSV with header f0,...,f{d-1}
    followed by ``label_names``: ``(features, labels_1, ...)``, parsed in one pass
    by numpy's C reader (see the module docstring)."""
    with open(path) as fh:  # universal newlines: the C reader sees LF line ends only
        header = read_header(csv.reader(fh), path)
        d = len(header) - len(label_names)
        if d < 0 or header[d:] != list(label_names):
            raise ValueError(f"{path}: expected trailing columns {','.join(label_names)}")
        if d == 0:
            raise ValueError(
                f"{path}: expected at least one feature column before {','.join(label_names)}"
            )
        row = np.dtype([("features", float, (d,)), *((name, int) for name in label_names)])
        first = next((line for line in fh if line != "\n"), None)
        if first is None:  # a body without rows, on which numpy would warn
            rows = np.empty(0, dtype=row)
        else:  # line by line from the open file: no copy of the whole body
            try:
                rows = np.loadtxt(itertools.chain([first], fh), dtype=row, delimiter=",",
                                  comments=None, quotechar='"', ndmin=1)
            except ValueError as exc:
                raise ValueError(_bad_row(path, header, d) or f"{path}: {exc}") from exc
    features = np.ascontiguousarray(rows["features"])
    if not np.isfinite(features).all():
        fault = _bad_row(path, header, d) or f"{path}: features must be finite, found NaN or inf"
        raise ValueError(fault)
    return (features, *(np.ascontiguousarray(rows[name]) for name in label_names))


def _parses(cell: str, kind: type) -> bool:
    """Whether numpy's reader takes ``cell`` as a ``kind``, float or int: as Python
    parses it, less the underscores, non-ASCII digits and int64 overflow Python takes."""
    try:
        value = kind(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell and (kind is float or -(2**63) <= value < 2**63)


def _bad_row(path: str, header: list[str], n_features: int) -> str | None:
    """The first fault of a labelled CSV that ``read_labelled_csv`` rejected, named
    by its 1-based file line: a cell count unlike the header's, a cell that does not
    parse or a feature that is not finite; None when this rescan finds none."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for cells in filter(None, reader):  # blank lines are skipped
            where = f"{path}: line {reader.line_num}"
            if len(cells) != len(header):
                return f"{where}: expected {len(header)} cells, found {len(cells)}"
            for i, (name, cell) in enumerate(zip(header, cells)):
                kind, noun = (float, "a number") if i < n_features else (int, "an integer")
                if not _parses(cell, kind):
                    return f"{where}: {name} {cell!r} is not {noun}"
                if kind is float and not math.isfinite(float(cell)):
                    return f"{where}: {name} {cell!r} is not finite"
    return None


@dataclass(frozen=True)
class LabelSpace:
    """An ordered set of grades indexed 0 .. n_classes-1."""

    n_classes: int

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError(f"a label space needs at least 2 grades, got {self.n_classes}")


@dataclass(frozen=True)
class SampleSet:
    """Flat feature vectors with one grade label per row."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if features.ndim != 2:
            raise ValueError("features must be an N x d matrix")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError("labels must be a vector with one entry per feature row")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite, found NaN or inf")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative grade indices")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "SampleSet":
        return SampleSet(self.features[indices], self.labels[indices])

    def to_csv(self, path: str) -> None:
        """Write as CSV with header f0,...,f{d-1},label."""
        write_labelled_csv(path, self.features, {"label": self.labels})

    @classmethod
    def from_csv(cls, path: str) -> "SampleSet":
        return cls(*read_labelled_csv(path, ("label",)))


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts of two grade variables (row variable x column variable)."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=int)
        if counts.ndim != 2 or counts.shape[0] < 2 or counts.shape[1] < 2:
            raise ValueError("contingency table must be at least 2 x 2")
        if (counts < 0).any():
            raise ValueError("contingency table entries must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_labels(cls, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        """The table of ``shape`` whose cell (i, j) counts the positions where
        ``rows`` holds i and ``cols`` holds j."""
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        for labels, n in ((rows, shape[0]), (cols, shape[1])):
            if labels.size and (labels.min() < 0 or labels.max() >= n):
                raise ValueError(f"labels out of range for a {shape[0]} x {shape[1]} table")
        counts = np.zeros(shape, dtype=int)
        np.add.at(counts, (rows, cols), 1)
        return cls(counts)

    def to_csv(self, path: str) -> None:
        """Header cell 'A\\B' (rows A, columns B); column grades name the columns."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["A\\B"] + list(range(self.shape[1])))
            for i, row in enumerate(self.counts):
                writer.writerow([i] + [int(v) for v in row])

    @classmethod
    def from_csv(cls, path: str) -> "ContingencyTable":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = read_header(reader, path)
            if not header or "\\" not in header[0]:
                raise ValueError(f"{path}: expected a 'row\\col' header cell")
            rows = [row for row in reader if row]
        if any(len(row) != len(header) for row in rows):
            raise ValueError(f"{path}: every row must have the header's {len(header)} cells")
        counts = np.asarray([[int(v) for v in row[1:]] for row in rows], dtype=int)
        return cls(counts)


class ConfusionMatrix(ContingencyTable):
    """Observed counts with true grade on rows, predicted grade on columns."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shape[0] != self.shape[1]:
            raise ValueError("confusion matrix must be square")

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True)
class PredictionSet:
    """True labels, the row-stochastic probabilities predicted for them and the hard
    predictions, which are set here to the row argmax (ties to the lower grade)."""

    true_labels: np.ndarray
    predicted_probs: np.ndarray
    predicted_labels: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        true_labels = np.asarray(self.true_labels, dtype=int)
        probs = np.asarray(self.predicted_probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("predicted_probs must be an N x J matrix")
        if true_labels.shape != (probs.shape[0],):
            raise ValueError("true_labels must have one entry per probability row")
        if not np.isfinite(probs).all():
            raise ValueError("predicted_probs must be finite")
        if probs.shape[0] and np.abs(probs.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("probability rows must sum to 1 within 1e-9")
        object.__setattr__(self, "true_labels", true_labels)
        object.__setattr__(self, "predicted_probs", probs)
        object.__setattr__(self, "predicted_labels", np.argmax(probs, axis=1))


def build_confusion(preds: PredictionSet, space: LabelSpace) -> ConfusionMatrix:
    """Count matrix O[i, j] = number of samples with true grade i predicted as j."""
    return confusion_from_labels(preds.true_labels, preds.predicted_labels, space)


def confusion_from_labels(
    true_labels: np.ndarray, predicted_labels: np.ndarray, space: LabelSpace
) -> ConfusionMatrix:
    j = space.n_classes
    return ConfusionMatrix.from_labels(true_labels, predicted_labels, (j, j))


@dataclass(frozen=True)
class RunResult:
    """One (seed, strategy) run: the record of the candidate it trained, whose
    config names the seed and strategy, and its holdout metrics and predictions."""

    history: "TrainHistory"
    metrics: "MetricReport"
    predictions: PredictionSet
