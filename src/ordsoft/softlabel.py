"""Unimodal soft-target construction.

Each strategy produces, for true grade k, a probability vector peaked at k
that decays with ordinal distance; the final supervision row blends it with
the one-hot label:

    row_k[j] = (1 - eta) * 1{j == k} + eta * soft_k[j]

Strategies: ``triangular`` (fixed adjacent-class mass), ``binomial``
(Binomial(J-1, k/(J-1)) pmf), ``exponential`` (softmax of -|j-k|^p), ``beta``
(cdf differences of a Beta density over the J equal segments of [0, 1], mode
at the class-segment midpoint), plus the ``nominal`` one-hot baseline and a
``nominal_smoothed`` uniform-blend ablation.

``STRATEGY_RULES`` declares each strategy once: the ``SmoothingParams`` fields
it reads and its row rule. To add a strategy, add its entry there (through
``_ordinal`` for one blended at ``eta``). To add a parameter, add a
``SmoothingParams`` field with its range check and a ``trainer.SearchSpace``
grid named after it plus ``s``; ``ordsoft softlabels`` and ``train`` make a
flag per field.

Each rule has one owner: ``SmoothingParams`` the parameter ranges;
``STRATEGY_RULES`` which fields a strategy reads, as ``strategy_rule`` checks
for ``build_target_matrix`` and, unread fields too, ``trainer.TrainConfig``;
``core.LabelSpace`` J >= 2; ``SoftTargetMatrix``, its rows alone, row validity
(finite, non-negative, summing to 1, peaked at its own grade, unimodal). The
``*_row`` functions are the bare formulas and check nothing themselves.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .core import LabelSpace, ROW_SUM_TOL, check_number
from .specfun import reg_inc_beta

_UNIMODAL_TOL = 1e-12


@dataclass(frozen=True)
class SmoothingParams:
    """Per-strategy smoothing parameters; fields unused by a strategy stay None.

    ``eta`` is the blend weight between the one-hot label and the unimodal
    mass (the nominal_smoothed ablation reuses it as its uniform weight).
    """

    eta: float = 1.0
    alpha: Optional[float] = None  # triangular adjacent-class probability
    p: Optional[float] = None  # exponential decay exponent
    concentration: Optional[float] = None  # beta concentration

    def __post_init__(self) -> None:
        # a field with a number for its default is required, the others optional
        for f in fields(self):
            if f.default is not None or getattr(self, f.name) is not None:
                check_number(f.name, getattr(self, f.name))
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.alpha is not None and not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if self.p is not None and self.p <= 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.concentration is not None and self.concentration <= 0:
            raise ValueError(f"concentration must be positive, got {self.concentration}")

    def to_dict(self) -> dict:
        return {name: value for name, value in asdict(self).items() if value is not None}


def triangular_row(n_classes: int, k: int, alpha: float) -> np.ndarray:
    """Mass 1-2*alpha at k and alpha at each neighbour (1-alpha / alpha at the ends)."""
    row = np.zeros(n_classes)
    neighbours = [j for j in (k - 1, k + 1) if 0 <= j < n_classes]
    for j in neighbours:
        row[j] = alpha
    row[k] = 1.0 - alpha * len(neighbours)
    return row


def binomial_row(n_classes: int, k: int) -> np.ndarray:
    """Binomial(J-1, k/(J-1)) pmf; at t = 0 and t = 1 it is exactly one-hot, since
    ``0.0**0 == 1.0``."""
    n = n_classes - 1
    t = k / n
    row = np.zeros(n_classes)
    for j in range(n_classes):
        row[j] = math.comb(n, j) * t**j * (1.0 - t) ** (n - j)
    return row


def exponential_row(n_classes: int, k: int, p: float) -> np.ndarray:
    """Softmax of -|j - k|^p over the grades."""
    dist = np.abs(np.arange(n_classes) - k).astype(float)
    weights = np.exp(-(dist**p))
    return weights / weights.sum()


def beta_row(n_classes: int, k: int, concentration: float) -> np.ndarray:
    """Beta-density mass over the J equal segments of the unit interval.

    The density for grade k is Beta(1 + s*m_k, 1 + s*(1 - m_k)) with
    m_k = (2k+1)/(2J), placing the mode at the midpoint of segment k; entry j
    is the cdf difference over [j/J, (j+1)/J].
    """
    m = (2 * k + 1) / (2 * n_classes)
    a = 1.0 + concentration * m
    b = 1.0 + concentration * (1.0 - m)
    cdf = [reg_inc_beta(j / n_classes, a, b) for j in range(n_classes + 1)]
    return np.diff(np.asarray(cdf))


def nominal_smooth_row(n_classes: int, k: int, lam: float) -> np.ndarray:
    """Uniform label smoothing: (1-lambda) one-hot plus lambda/J everywhere."""
    row = np.full(n_classes, lam / n_classes)
    row[k] += 1.0 - lam
    return row


def blend_ordinal_row(k: int, soft: np.ndarray, eta: float) -> np.ndarray:
    """(1-eta) * one-hot(k) + eta * soft."""
    row = eta * soft
    row[k] += 1.0 - eta
    return row


def _reads(formula, *names):
    """The table entry of a strategy whose row for grade k of J is
    ``formula(J, k, *values)``, the values of its ``SmoothingParams`` fields ``names``."""
    return names, lambda j, k, params: formula(j, k, *(getattr(params, n) for n in names))


def _ordinal(formula, *names):
    """The table entry of an ordinal strategy: the row ``_reads`` makes of
    ``formula`` and ``names``, blended with the one-hot label at ``eta``."""
    _, soft = _reads(formula, *names)
    return ("eta", *names), lambda j, k, params: blend_ordinal_row(k, soft(j, k, params), params.eta)


# strategy -> (the ``SmoothingParams`` fields it reads, its row rule (J, k, params) -> row)
STRATEGY_RULES = {
    "nominal": _reads(lambda j, k: np.eye(j)[k]),
    "nominal_smoothed": _reads(nominal_smooth_row, "eta"),
    "triangular": _ordinal(triangular_row, "alpha"),
    "binomial": _ordinal(binomial_row),
    "beta": _ordinal(beta_row, "concentration"),
    "exponential": _ordinal(exponential_row, "p"),
}
STRATEGIES = tuple(STRATEGY_RULES)


def is_unimodal(row: np.ndarray, k: int, tol: float = _UNIMODAL_TOL) -> bool:
    """True when mass weakly decreases moving away from k on both sides."""
    row = np.asarray(row, dtype=float)
    right = all(row[j + 1] <= row[j] + tol for j in range(k, row.shape[0] - 1))
    left = all(row[j - 1] <= row[j] + tol for j in range(k, 0, -1))
    return right and left


@dataclass(frozen=True)
class SoftTargetMatrix:
    """J x J row-stochastic supervision matrix; row k targets true grade k."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        j = rows.shape[0]
        if rows.ndim != 2 or rows.shape[1] != j:
            raise ValueError("target matrix must be square")
        if not np.isfinite(rows).all():
            raise ValueError("target matrix entries must be finite")
        if (rows < -1e-12).any():
            raise ValueError("target matrix entries must be non-negative")
        if np.abs(rows.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("target matrix rows must sum to 1 within 1e-9")
        for k in range(j):
            if rows[k, k] < rows[k].max() - 1e-9:
                raise ValueError(f"row {k} does not peak at its own grade")
            if not is_unimodal(rows[k], k, tol=1e-9):
                raise ValueError(f"row {k} is not unimodal around grade {k}")
        object.__setattr__(self, "rows", rows)


def strategy_rule(strategy: str, params: SmoothingParams, strict: bool = False):
    """The row rule of ``strategy``, known and given the fields it reads; when
    ``strict``, the fields it does not read must be at their defaults."""
    if not isinstance(strategy, str):
        raise ValueError(f"strategy must be a string, got {strategy!r}")
    if strategy not in STRATEGY_RULES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    names, rule = STRATEGY_RULES[strategy]
    for name in names:
        if getattr(params, name) is None:
            raise ValueError(f"{strategy} strategy requires {name}")
    if strict:
        for f in fields(params):
            value = getattr(params, f.name)
            if f.name not in names and value != f.default:
                raise ValueError(f"{strategy} strategy does not read {f.name}, given {value}")
    return rule


def build_target_matrix(
    space: LabelSpace, strategy: str, params: SmoothingParams = SmoothingParams()
) -> SoftTargetMatrix:
    """Assemble the J x J supervision matrix for one labelling strategy."""
    rule, j = strategy_rule(strategy, params), space.n_classes
    return SoftTargetMatrix(np.stack([rule(j, k, params) for k in range(j)]))
