"""Domain type construction, validation and CSV round-trips."""

import csv
import warnings

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
    read_labelled_csv,
)


def test_label_space_requires_two_grades():
    with pytest.raises(ValueError):
        LabelSpace(1)
    assert LabelSpace(5).n_classes == 5


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros((3, 2)), np.array([0, 1]))  # length mismatch
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SampleSet(np.array([[bad, 0.0]]), np.array([0]))
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


def _csv_module_read(path, label_names):
    """The labelled-CSV reader as the csv module and ``float``/``int`` give it,
    the oracle for numpy's reader: blank rows skipped, no cell-count check."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        d = len(next(reader)) - len(label_names)
        rows = [row for row in reader if row]
    features = np.asarray([[float(v) for v in row[:d]] for row in rows], dtype=float)
    labels = [np.asarray([int(row[d + i]) for row in rows], dtype=int)
              for i in range(len(label_names))]
    return (features.reshape(len(rows), d), *labels)


_HEADER = "f0,f1,label\n"


@pytest.mark.parametrize("text", [
    _HEADER + "0.5,-1.25,1\n2.0,3.0,0\n",
    _HEADER + "\n0.5,-1.25,1\n\n2.0,3.0,0\n\n",
    (_HEADER + "0.5,-1.25,1\n2.0,3.0,0\n").replace("\n", "\r\n"),
    _HEADER + "0.5,-1.25,1\n2.0,3.0,0",
    _HEADER + '"0.5","-1.25","1"\n2.0, 3.0 ,0\n',
    _HEADER,
    _HEADER[:-1],
    _HEADER + "\r\n\r\n",
], ids=["plain", "blank_lines", "crlf", "no_trailing_newline", "quoted_cells", "header_only",
        "header_only_no_newline", "header_and_blank_lines"])
def test_labelled_csv_reader_gives_the_csv_module_arrays(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a body without rows must not warn
        got = read_labelled_csv(str(path), ("label",))
    expected = _csv_module_read(str(path), ("label",))
    for array, reference in zip(got, expected, strict=True):
        assert array.dtype == reference.dtype and array.shape == reference.shape
        assert array.flags.c_contiguous and array.tobytes() == reference.tobytes()


@pytest.mark.parametrize("row, fault", [
    ("#0.5,-1.25,1", "f0 '#0.5' is not a number"),
    ("0.5,-1.25,1.5", "label '1.5' is not an integer"),
    ("0.5,-1.25,1e0", "label '1e0' is not an integer"),
    ("0.5,-1.25", "expected 3 cells, found 2"),
    ("0.5,-1.25,1,0", "expected 3 cells, found 4"),
    ("0.5,,1", "f1 '' is not a number"),
    ("x,-1.25,1", "f0 'x' is not a number"),
    ("1_0,-1.25,1", "f0 '1_0' is not a number"),
    ("0.5,-1.25,99999999999999999999", "label '99999999999999999999' is not an integer"),
    ("nan,-1.25,1", "f0 'nan' is not finite"),
    ("0.5,inf,1", "f1 'inf' is not finite"),
    ("-inf,-1.25,1", "f0 '-inf' is not finite"),
], ids=["comment", "fractional_label", "exponent_label", "short_row", "long_row", "empty_cell",
        "non_numeric", "underscore", "label_overflow", "nan", "inf", "minus_inf"])
def test_labelled_csv_reader_rejects_a_malformed_row(tmp_path, row, fault):
    path = tmp_path / "data.csv"
    # the faulty row is the file's fourth line, after a blank one; a good row follows
    text = _HEADER + "2.0,3.0,0\n\n" + row + "\n4.0,5.0,1\n"
    for newline in ("\n", "\r\n"):
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(ValueError) as raised:
            read_labelled_csv(str(path), ("label",))
        assert str(raised.value) == f"{path}: line 4: {fault}"
        assert "usecols" not in str(raised.value)


def test_labelled_csv_reader_parses_floats_to_the_bits_of_float(tmp_path):
    rng = np.random.default_rng(17)
    values = rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, size=300)
    cells = ["0.1", "-0.0", "1e-320", "5e-324", "2.2250738585072014e-308",
             "1.7976931348623157e+308", "0.30000000000000004"]
    cells += [repr(float(v)) for v in values] + [format(float(v), ".17g") for v in values]
    cells += [format(float(v), ".17e") for v in values[:50]]  # 18 digits, rounded on read
    if len(cells) % 2:
        cells.append("1")
    pairs = [cells[i:i + 2] for i in range(0, len(cells), 2)]
    path = tmp_path / "data.csv"
    path.write_text(_HEADER + "".join(f"{a},{b},0\n" for a, b in pairs))
    features, labels = read_labelled_csv(str(path), ("label",))
    assert features.tobytes() == np.array([float(c) for c in cells]).tobytes()
    assert labels.tolist() == [0] * len(pairs)


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
    # a NaN row's sum check compares NaN, which is never out of tolerance
    for row in ([np.nan] * 3, [np.inf, 0.0, 0.0], [0.5, 0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            PredictionSet([0], np.array([row]))


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
