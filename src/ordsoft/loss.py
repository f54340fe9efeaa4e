"""Softmax output layer and soft-target cross-entropy.

The loss is -sum_j target[j] * log(probs[j]); with a one-hot target this is
the ordinary categorical cross-entropy. Probabilities are floored at 1e-12
before the logarithm since the loss is undefined at exactly zero.

These are the plain, allocating forms. The trainer's inference,
``predict_proba``, calls ``softmax``; its fit computes the same softmax and loss
in place over preallocated work arrays, and its tests hold the fit to these
functions bit for bit: every pass of the fit, a training batch or a validation
block, sums each member's terms in one block and divides by its row count, as
``mean_soft_ce`` does, so both its losses equal ``mean_soft_ce`` bit for bit.
The loss's gradient with respect to the logits, softmax minus target, lives
only in the trainer's backward pass, whose tests check it against central
differences of ``mean_soft_ce``.
"""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-12
_TARGET_TOL = 1e-6


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (works on vectors and batches)."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def check_target(target: np.ndarray) -> np.ndarray:
    """``target`` as floats, once every row is checked to sum to 1 within 1e-6."""
    target = np.asarray(target, dtype=float)
    sums = target.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > _TARGET_TOL:
        raise ValueError("target must be normalised to sum 1 within 1e-6")
    return target


def soft_ce(probs: np.ndarray, target: np.ndarray) -> float:
    """Cross-entropy of a predicted distribution against a soft target:
    ``mean_soft_ce``'s one-row case."""
    return mean_soft_ce(probs, target)


def mean_soft_ce(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean of soft_ce over the rows: every row's terms summed at once, then
    divided by the row count; a 1-D input is one row."""
    probs = np.asarray(probs, dtype=float)
    targets = check_target(targets)
    terms = targets * np.log(np.maximum(probs, PROB_FLOOR))
    return float(-terms.sum() / (terms.size // terms.shape[-1]))
