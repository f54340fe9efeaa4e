"""Metric implementations against independently coded brute-force oracles.

The oracles below expand a confusion matrix to a per-sample list and apply
the metric definitions with explicit Python loops, sharing no code with the
library path.
"""

import dataclasses

import numpy as np
import pytest

from ordsoft.core import ConfusionMatrix
from ordsoft.metrics import (
    UndefinedMetricError,
    amae,
    balanced_accuracy,
    compute_report,
    mae,
    min_sensitivity,
    mmae,
    qwk,
)


def _expand(counts):
    """Confusion counts -> explicit (true, pred) sample list."""
    pairs = []
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            pairs.extend([(i, j)] * int(counts[i, j]))
    return pairs


def oracle_qwk(counts, n=2):
    j = counts.shape[0]
    num = 0.0
    den = 0.0
    total = counts.sum()
    for i in range(j):
        for jj in range(j):
            w = abs(i - jj) ** n / (j - 1) ** n
            e = counts[i, :].sum() * counts[:, jj].sum() / total
            num += w * counts[i, jj]
            den += w * e
    return 1.0 - num / den


def oracle_mae(counts):
    pairs = _expand(counts)
    return sum(abs(t - p) for t, p in pairs) / len(pairs)


def oracle_per_class_mae(counts):
    pairs = _expand(counts)
    out = []
    for k in range(counts.shape[0]):
        errors = [abs(t - p) for t, p in pairs if t == k]
        out.append(sum(errors) / len(errors) if errors else None)
    return out


def oracle_sensitivities(counts):
    pairs = _expand(counts)
    result = []
    for k in range(counts.shape[0]):
        mine = [(t, p) for t, p in pairs if t == k]
        if mine:
            result.append(sum(1 for t, p in mine if p == t) / len(mine))
    return result


def _random_confusion(rng, j, ensure_full_rows=True):
    counts = rng.integers(0, 20, size=(j, j))
    if ensure_full_rows:
        counts[np.arange(j), rng.integers(0, j, size=j)] += 1  # no empty class
    return ConfusionMatrix(counts)


def test_metrics_match_oracles_on_random_matrices():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        j = int(rng.integers(2, 7))
        confusion = _random_confusion(rng, j)
        counts = confusion.counts.astype(float)
        assert qwk(confusion) == pytest.approx(oracle_qwk(counts), abs=1e-12)
        assert mae(confusion) == pytest.approx(oracle_mae(confusion.counts), abs=1e-12)
        pcm = oracle_per_class_mae(confusion.counts)
        present = [v for v in pcm if v is not None]
        assert amae(confusion) == pytest.approx(np.mean(present), abs=1e-12)
        assert mmae(confusion) == pytest.approx(max(present), abs=1e-12)
        sens = oracle_sensitivities(confusion.counts)
        assert min_sensitivity(confusion) == pytest.approx(min(sens), abs=1e-12)
        assert balanced_accuracy(confusion) == pytest.approx(np.mean(sens), abs=1e-12)


def test_diagonal_matrix_extremes():
    confusion = ConfusionMatrix(np.diag([5, 3, 7, 2]))
    assert qwk(confusion) == pytest.approx(1.0, abs=1e-15)
    assert mae(confusion) == 0.0
    assert amae(confusion) == 0.0
    assert mmae(confusion) == 0.0
    assert min_sensitivity(confusion) == 1.0
    assert balanced_accuracy(confusion) == 1.0


def test_qwk_weight_is_one_at_extremes():
    # J=5, (0,4): weight |0-4|^2/4^2 = 1 makes that single error hit maximally
    counts = np.zeros((5, 5), dtype=int)
    counts[0, 4] = 1
    counts[4, 0] = 1
    confusion = ConfusionMatrix(counts)
    assert qwk(confusion) == pytest.approx(oracle_qwk(counts.astype(float)), abs=1e-14)


def test_qwk_reverse_relabel_invariance():
    rng = np.random.default_rng(73)
    for _ in range(50):
        j = int(rng.integers(2, 7))
        confusion = _random_confusion(rng, j)
        reversed_counts = confusion.counts[::-1, ::-1]
        assert qwk(ConfusionMatrix(reversed_counts)) == pytest.approx(qwk(confusion), abs=1e-12)


def test_qwk_degenerate_marginals():
    counts = np.zeros((3, 3), dtype=int)
    counts[1, 1] = 10  # single class on both axes: expected weight sum is 0
    with pytest.raises(UndefinedMetricError):
        qwk(ConfusionMatrix(counts))


def test_mae_single_one_step_error():
    assert mae(ConfusionMatrix(np.array([[0, 1], [0, 0]]))) == 1.0


def test_amae_mmae_hand_example():
    # true=[0,0,1], pred=[0,1,1]: per-class MAE (0.5, 0)
    confusion = ConfusionMatrix(np.array([[1, 1], [0, 1]]))
    assert compute_report(confusion).per_class_mae == (0.5, 0.0)
    assert amae(confusion) == pytest.approx(0.25)
    assert mmae(confusion) == pytest.approx(0.5)


def test_amae_equals_mae_for_balanced_matrix():
    counts = np.array([[8, 2, 0], [1, 8, 1], [0, 2, 8]])  # equal row sums
    confusion = ConfusionMatrix(counts)
    assert amae(confusion) == pytest.approx(mae(confusion), abs=1e-12)


def test_sensitivity_examples():
    confusion = ConfusionMatrix(np.array([[1, 1], [0, 2]]))
    assert min_sensitivity(confusion) == pytest.approx(0.5)
    assert balanced_accuracy(confusion) == pytest.approx(0.75)
    fully_missed = ConfusionMatrix(np.array([[0, 3], [1, 4]]))
    assert min_sensitivity(fully_missed) == 0.0


def test_order_invariants_on_random_matrices():
    rng = np.random.default_rng(79)
    for _ in range(200):
        j = int(rng.integers(2, 7))
        confusion = _random_confusion(rng, j)
        assert mmae(confusion) >= amae(confusion) - 1e-12
        assert balanced_accuracy(confusion) >= min_sensitivity(confusion) - 1e-12
        off_diagonal = confusion.counts.sum() - np.trace(confusion.counts)
        if off_diagonal == 0:
            assert qwk(confusion) == pytest.approx(1.0, abs=1e-12)
        else:
            assert qwk(confusion) < 1.0


def test_empty_class_excluded_and_flagged():
    counts = np.array([[3, 1, 0], [0, 0, 0], [0, 1, 4]])  # class 1 never occurs
    report = compute_report(ConfusionMatrix(counts))
    assert report.empty_classes == (1,)
    assert report.per_class_mae[1] is None
    present = [v for v in report.per_class_mae if v is not None]
    assert report.amae == pytest.approx(np.mean(present))



def _parent_formulas(counts):
    """Each measure as the per-class formulas give it, class by class in a loop."""
    counts = counts.astype(float)
    j = counts.shape[0]
    idx = np.arange(j)
    dist = np.abs(idx[:, None] - idx[None, :])
    rows = counts.sum(axis=1)
    weights = dist**2 / (j - 1) ** 2
    expected = np.outer(rows, counts.sum(axis=0)) / counts.sum()
    pcm = [None if rows[k] == 0 else float((dist[k] * counts[k]).sum() / rows[k])
           for k in range(j)]
    recall = [float(counts[k, k] / rows[k]) for k in range(j) if rows[k] != 0]
    present = [v for v in pcm if v is not None]
    return {
        "qwk": float(1.0 - (weights * counts).sum() / (weights * expected).sum()),
        "mae": float((dist * counts).sum() / counts.sum()),
        "amae": float(np.mean(present)),
        "mmae": float(np.max(present)),
        "ms": float(np.min(recall)),
        "ba": float(np.mean(recall)),
        "per_class_mae": tuple(pcm),
        "empty_classes": tuple(k for k in range(j) if rows[k] == 0),
    }


def test_report_is_each_public_measure_and_the_per_class_formulas_bit_for_bit():
    rng = np.random.default_rng(83)
    readers = {"qwk": qwk, "mae": mae, "amae": amae, "mmae": mmae, "ms": min_sensitivity,
               "ba": balanced_accuracy}
    n_empty = 0
    for _ in range(400):
        j = int(rng.integers(2, 10))
        counts = rng.integers(0, 30, size=(j, j)) * (rng.random((j, j)) < 0.7)
        counts[rng.random(j) < 0.25] = 0  # empty classes
        if counts.sum(axis=0).max() == counts.sum() or counts.sum(axis=1).max() == counts.sum():
            continue  # degenerate marginals leave QWK undefined
        confusion = ConfusionMatrix(counts)
        report = compute_report(confusion)
        n_empty += bool(report.empty_classes)
        for name, reader in readers.items():
            assert getattr(report, name) == reader(confusion), name
        assert dataclasses.asdict(report) == _parent_formulas(counts)
    assert n_empty > 50
