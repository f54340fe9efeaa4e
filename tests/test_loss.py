"""Softmax/cross-entropy identities; the gradient is checked against central
differences in the trainer's tests, where the backward pass lives."""

import math

import numpy as np
import pytest

from ordsoft.loss import mean_soft_ce, soft_ce, softmax


def test_softmax_uniform_cases():
    np.testing.assert_allclose(softmax(np.zeros(4)), [0.25] * 4)
    np.testing.assert_allclose(softmax(np.full(3, 7.3)), [1 / 3] * 3, atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(41)
    logits = rng.normal(size=6)
    np.testing.assert_allclose(softmax(logits), softmax(logits + 123.4), atol=1e-12)


def test_softmax_closed_form():
    np.testing.assert_allclose(softmax(np.array([math.log(2), 0.0])), [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_batch_rows():
    rng = np.random.default_rng(43)
    logits = rng.normal(size=(5, 4))
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)


def test_soft_ce_uniform_vs_onehot():
    for j in (2, 4, 6):
        probs = np.full(j, 1.0 / j)
        target = np.zeros(j)
        target[1 % j] = 1.0
        assert soft_ce(probs, target) == pytest.approx(math.log(j), abs=1e-12)


def test_soft_ce_perfect_confidence_is_near_zero():
    target = np.array([0.0, 1.0, 0.0])
    probs = np.array([1e-15, 1.0, 1e-15])
    assert soft_ce(probs, target) == pytest.approx(0.0, abs=1e-12)


def test_soft_ce_scalar_example():
    value = soft_ce(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
    assert value == pytest.approx(-0.5 * (math.log(0.7) + math.log(0.3)), abs=1e-12)
    assert value == pytest.approx(0.7803, abs=1e-4)


def test_soft_ce_rejects_unnormalised_target():
    with pytest.raises(ValueError):
        soft_ce(np.array([0.5, 0.5]), np.array([0.6, 0.6]))


def test_soft_ce_reduces_to_cce_for_onehot():
    rng = np.random.default_rng(47)
    for _ in range(20):
        j = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.ones(j))
        k = int(rng.integers(0, j))
        onehot = np.zeros(j)
        onehot[k] = 1.0
        assert soft_ce(probs, onehot) == pytest.approx(-math.log(probs[k]), abs=1e-12)


def test_gibbs_inequality():
    rng = np.random.default_rng(53)
    for _ in range(200):
        j = int(rng.integers(2, 7))
        target = rng.dirichlet(np.ones(j))
        probs = rng.dirichlet(np.ones(j))
        entropy = -(target * np.log(target)).sum()
        assert soft_ce(probs, target) >= entropy - 1e-10
    target = rng.dirichlet(np.ones(4))
    entropy = -(target * np.log(target)).sum()
    assert soft_ce(target, target) == pytest.approx(entropy, abs=1e-12)


def test_mean_soft_ce_matches_per_row():
    rng = np.random.default_rng(67)
    probs = rng.dirichlet(np.ones(5), size=8)
    targets = rng.dirichlet(np.ones(5), size=8)
    expected = np.mean([soft_ce(p, t) for p, t in zip(probs, targets)])
    assert mean_soft_ce(probs, targets) == pytest.approx(expected, abs=1e-12)


def test_mean_soft_ce_of_one_row_is_its_soft_ce():
    rng = np.random.default_rng(71)
    for j in (2, 5, 9):
        probs, target = rng.dirichlet(np.ones(j)), rng.dirichlet(np.ones(j))
        expected = float(-(target * np.log(probs)).sum())
        # a 1-D input is one row, as is a (1, J) batch
        assert mean_soft_ce(probs, target) == soft_ce(probs, target) == expected
        assert mean_soft_ce(probs[None], target[None]) == expected
