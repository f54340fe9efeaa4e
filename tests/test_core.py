"""Domain type construction, validation and CSV round-trips."""

import numpy as np
import pytest

from ordsoft.core import (
    ConfusionMatrix,
    ContingencyTable,
    LabelSpace,
    PredictionSet,
    SampleSet,
    build_confusion,
    confusion_from_labels,
)


def test_label_space_requires_two_grades():
    with pytest.raises(ValueError):
        LabelSpace(1)
    assert LabelSpace(5).n_classes == 5


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros((3, 2)), np.array([0, 1]))  # length mismatch
    with pytest.raises(ValueError):
        SampleSet(np.array([[np.nan, 0.0]]), np.array([0]))
    with pytest.raises(ValueError):
        SampleSet(np.zeros((2, 2)), np.array([0, -1]))


def test_sample_set_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    original = SampleSet(rng.normal(size=(10, 4)), rng.integers(0, 3, size=10))
    path = tmp_path / "data.csv"
    original.to_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "f0,f1,f2,f3,label"
    loaded = SampleSet.from_csv(str(path))
    np.testing.assert_array_equal(loaded.labels, original.labels)
    np.testing.assert_array_equal(loaded.features, original.features)  # repr round-trips


def test_build_confusion_perfect_agreement():
    preds = PredictionSet([0, 1], np.array([[0.9, 0.1], [0.2, 0.8]]))
    confusion = build_confusion(preds, LabelSpace(2))
    np.testing.assert_array_equal(confusion.counts, [[1, 0], [0, 1]])


def test_build_confusion_direct_count():
    confusion = confusion_from_labels([0, 0, 1], [1, 0, 1], LabelSpace(2))
    np.testing.assert_array_equal(confusion.counts, [[1, 1], [0, 1]])
    assert confusion.counts.sum() == 3


def test_build_confusion_empty():
    confusion = confusion_from_labels([], [], LabelSpace(3))
    np.testing.assert_array_equal(confusion.counts, np.zeros((3, 3), dtype=int))


def test_build_confusion_label_out_of_range():
    with pytest.raises(ValueError):
        confusion_from_labels([0, 2], [0, 1], LabelSpace(2))


def test_confusion_row_sums_are_class_counts():
    rng = np.random.default_rng(5)
    true = rng.integers(0, 4, size=200)
    pred = rng.integers(0, 4, size=200)
    confusion = confusion_from_labels(true, pred, LabelSpace(4))
    expected = [int((true == k).sum()) for k in range(4)]
    np.testing.assert_array_equal(confusion.counts.sum(axis=1), expected)


def test_build_confusion_permutation_invariant():
    rng = np.random.default_rng(9)
    true = rng.integers(0, 3, size=50)
    pred = rng.integers(0, 3, size=50)
    base = confusion_from_labels(true, pred, LabelSpace(3))
    perm = rng.permutation(50)
    shuffled = confusion_from_labels(true[perm], pred[perm], LabelSpace(3))
    np.testing.assert_array_equal(base.counts, shuffled.counts)


def test_prediction_set_tie_breaks_to_lower_grade():
    probs = np.array([[0.4, 0.4, 0.2]])
    preds = PredictionSet([1], probs)
    assert preds.predicted_labels[0] == 0


def test_prediction_set_rejects_bad_rows():
    with pytest.raises(ValueError):
        PredictionSet([0], np.array([[0.5, 0.4]]))  # sums to 0.9


def test_confusion_matrix_rejects_negative():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[1, -1], [0, 2]]))


def test_confusion_matrix_rejects_a_non_square_table():
    counts = np.array([[1, 2, 3], [4, 5, 6]])
    assert ContingencyTable(counts).shape == (2, 3)
    with pytest.raises(ValueError, match="must be square"):
        ConfusionMatrix(counts)
    with pytest.raises(ValueError, match="must be square"):
        ConfusionMatrix.from_labels([0, 1], [2, 0], (2, 3))


def test_contingency_from_labels_counts_each_pair_on_a_rectangular_table():
    rng = np.random.default_rng(13)
    rows, cols = rng.integers(0, 5, size=300), rng.integers(0, 4, size=300)
    expected = np.zeros((5, 4), dtype=int)
    for i, j in zip(rows, cols):
        expected[i, j] += 1
    table = ContingencyTable.from_labels(rows, cols, (5, 4))
    assert type(table) is ContingencyTable
    np.testing.assert_array_equal(table.counts, expected)
    assert table.total == 300
    # a grade missing from the labels still gets its row and column
    sparse = ContingencyTable.from_labels([0, 0, 2], [1, 1, 0], (4, 3))
    np.testing.assert_array_equal(sparse.counts, [[0, 2, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0]])
    confusion = ConfusionMatrix.from_labels([0, 1, 1], [1, 1, 0], (2, 2))
    assert type(confusion) is ConfusionMatrix
    np.testing.assert_array_equal(confusion.counts, [[0, 1], [1, 1]])
    for bad_rows, bad_cols in (([0, 5], [0, 1]), ([0, 1], [0, 4]), ([-1, 0], [0, 1])):
        with pytest.raises(ValueError, match="out of range for a 5 x 4 table"):
            ContingencyTable.from_labels(bad_rows, bad_cols, (5, 4))
