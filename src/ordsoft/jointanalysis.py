"""Joint-distribution analysis of two grade variables plus the nonparametric
test pipeline used to compare labelling strategies.

Covers: the normalised joint distributions of ``core.ContingencyTable``
counts, the Kullback-Leibler divergence (natural log) of a predicted joint
distribution from the true one, residual matrices P - Q, the cell-wise MAE
between two tables, Kruskal-Wallis with tie correction, the Wilcoxon
signed-rank test (exact by sign-pattern counting up to n = 25, normal
approximation with tie correction beyond), Holm-corrected pairwise Wilcoxon
comparisons, and a balanced two-way ANOVA with F-test p-values.

A rank test sorts its values once: ``_ranks`` returns the midranks and the
tie group sizes together. Every p-value is an upper tail computed directly by
``specfun`` (``chi2_sf``, ``f_sf``, ``normal_sf``), never ``1 - cdf``: the
subtraction rounds a p below about 1e-16 to 0, so separated strategies, or
the paper's model F of 58 on (4, 190), would read p = 0.0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ContingencyTable
from .specfun import chi2_sf, f_sf, normal_sf

DEFAULT_KLD_EPSILON = 1e-6
EXACT_WILCOXON_LIMIT = 25


@dataclass(frozen=True)
class JointDistribution:
    """A normalised contingency table: finite, non-negative cells summing to 1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("joint distribution must be a matrix")
        if not np.isfinite(probs).all():
            raise ValueError("joint distribution entries must be finite")
        if (probs < -1e-12).any():
            raise ValueError("joint distribution entries must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("joint distribution must sum to 1 within 1e-9")
        object.__setattr__(self, "probs", probs)

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str  # kruskal_wallis | wilcoxon_exact | wilcoxon_normal
    n: tuple
    degenerate: bool = False

    __test__ = False  # keep pytest from collecting this as a test class


def normalise(table: ContingencyTable) -> JointDistribution:
    """Counts divided by the grand total."""
    total = table.total
    if total == 0:
        raise ValueError("cannot normalise an empty contingency table")
    return JointDistribution(table.counts / total)


def _check_shapes(p: JointDistribution, q: JointDistribution) -> None:
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")


def kld(p: JointDistribution, q: JointDistribution, epsilon: float = DEFAULT_KLD_EPSILON) -> float:
    """KL divergence D(P || Q) in nats, with additive smoothing on Q.

    Q is replaced by (Q + epsilon) / (1 + epsilon * n_cells) so that zero
    predicted cells cannot blow up the sum; with epsilon = 0 a zero Q cell
    under positive P mass yields +inf rather than an exception. Cells with
    P = 0 contribute nothing. An epsilon that is negative, NaN or infinite is a
    ``ValueError`` naming it.
    """
    _check_shapes(p, q)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon}")
    pp = p.probs
    qq = q.probs
    if epsilon > 0:
        qq = (qq + epsilon) / (1.0 + epsilon * qq.size)
    mask = pp > 0
    if (qq[mask] == 0).any():
        return math.inf
    return float((pp[mask] * np.log(pp[mask] / qq[mask])).sum())


def residuals(p: JointDistribution, q: JointDistribution) -> np.ndarray:
    """R = P - Q; positive cells mark mass the predictions under-cover. Both
    distributions sum to 1, so R sums to 0."""
    _check_shapes(p, q)
    return p.probs - q.probs


def table_mae(p: JointDistribution, q: JointDistribution) -> float:
    """Mean absolute cell-wise difference between two joint distributions."""
    _check_shapes(p, q)
    return float(np.abs(p.probs - q.probs).mean())


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n with tied values sharing the average of their rank range, and
    the size of each group of tied values, both from one sort."""
    _, inverse, counts = np.unique(
        np.asarray(values, dtype=float), return_inverse=True, return_counts=True
    )
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Kruskal-Wallis H test with tie correction; p is the chi-squared upper tail."""
    groups = [np.asarray(g, dtype=float) for g in groups]
    if len(groups) < 2:
        raise ValueError("kruskal_wallis needs at least 2 groups")
    if any(g.size == 0 for g in groups):
        raise ValueError("kruskal_wallis groups must be non-empty")
    sizes = tuple(int(g.size) for g in groups)
    pooled = np.concatenate(groups)
    n = pooled.size
    ranks, ties = _ranks(pooled)
    h = 0.0
    start = 0
    for g in groups:
        r = ranks[start : start + g.size]
        h += r.sum() ** 2 / g.size
        start += g.size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - float(((ties**3 - ties).sum()) / (n**3 - n))
    if correction <= 0:  # every observation identical
        return TestResult(0.0, 1.0, "kruskal_wallis", sizes, degenerate=True)
    h = float(h / correction)
    return TestResult(h, chi2_sf(h, len(groups) - 1), "kruskal_wallis", sizes)


def _exact_signed_rank_p(w_pos: float, ranks: np.ndarray) -> float:
    """Two-sided p by counting sign assignments; midranks doubled to integers."""
    doubled = np.rint(2.0 * ranks).astype(int)
    # counts[s] = number of sign patterns with doubled positive-rank sum s
    counts = np.zeros(int(doubled.sum()) + 1)
    counts[0] = 1.0
    for r in doubled:  # numpy reads an overlapping operand as a copy
        counts[r:] += counts[: counts.size - r]
    w2 = int(round(2.0 * w_pos))
    n_patterns = 2.0 ** len(ranks)
    p_le = counts[: w2 + 1].sum() / n_patterns
    p_ge = counts[w2:].sum() / n_patterns
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_signed_rank_p(w_pos: float, n: int, ties: np.ndarray) -> float:
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float((ties**3 - ties).sum()) / 48.0
    if var <= 0:
        return 1.0
    return 2.0 * normal_sf(abs(w_pos - mu) / math.sqrt(var))


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped. With at most 25 effective pairs the p-value
    is exact over all sign assignments (enough for 20-seed comparisons);
    larger samples use the tie-corrected normal approximation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("wilcoxon_signed_rank requires paired vectors of equal length")
    diffs = x - y
    diffs = diffs[diffs != 0]
    n = diffs.size
    if n == 0:
        warnings.warn("all paired differences are zero; Wilcoxon test is degenerate")
        return TestResult(0.0, 1.0, "wilcoxon_exact", (0,), degenerate=True)
    ranks, ties = _ranks(np.abs(diffs))
    w_pos = float(ranks[diffs > 0].sum())
    if n <= EXACT_WILCOXON_LIMIT:
        p = _exact_signed_rank_p(w_pos, ranks)
        method = "wilcoxon_exact"
    else:
        p = _normal_signed_rank_p(w_pos, n, ties)
        method = "wilcoxon_normal"
    return TestResult(w_pos, float(p), method, (int(n),))


def pairwise_wilcoxon_holm(samples: dict[str, Sequence[float]]) -> list[dict]:
    """All pairwise Wilcoxon tests with Holm-adjusted p-values.

    Substitution note: this replaces Tukey HSD grouping as the post-hoc
    multiple-comparison step; the adjusted p-values are Holm step-down.
    """
    names = list(samples)
    if len(names) < 2:
        raise ValueError("need at least 2 named samples for pairwise comparisons")
    results = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            test = wilcoxon_signed_rank(samples[a], samples[b])
            results.append({"pair": (a, b), "test": test})
    order = sorted(range(len(results)), key=lambda i: results[i]["test"].p_value)
    m = len(results)
    running = 0.0
    for rank, idx in enumerate(order):
        adjusted = (m - rank) * results[idx]["test"].p_value
        running = max(running, min(1.0, adjusted))
        results[idx]["p_holm"] = running
    return results


@dataclass(frozen=True)
class AnovaResult:
    """Balanced two-way ANOVA decomposition with F tests per factor."""

    ss: dict
    df: dict
    f: dict
    p: dict
    zero_variance: bool = False


def two_way_anova(
    values: Sequence[float], factor_a: Sequence, factor_b: Sequence
) -> AnovaResult:
    """Two-way ANOVA with interaction for a balanced design.

    Factor A is the model/strategy factor, factor B the task factor. The
    design must be balanced (equal replicates per cell, at least 2). When all
    values are identical the F statistics are undefined and flagged instead
    of being reported as numbers. The values are sorted into one
    (a, b, replicates) array, so every mean is an axis mean of it.
    """
    values = np.asarray(values, dtype=float)
    if not (values.shape == np.shape(factor_a) == np.shape(factor_b)) or values.ndim != 1:
        raise ValueError("values and factor labels must be equal-length vectors")
    levels_a, index_a = np.unique(factor_a, return_inverse=True)
    levels_b, index_b = np.unique(factor_b, return_inverse=True)
    a, b = levels_a.size, levels_b.size
    if a < 2 or b < 2:
        raise ValueError("each factor needs at least 2 levels")
    cell = index_a * b + index_b
    sizes = np.bincount(cell, minlength=a * b)
    r = int(sizes[0])
    if (sizes != r).any():
        raise ValueError(f"unbalanced design: cell sizes {sorted(set(sizes.tolist()))}")
    if r < 2:
        raise ValueError("balanced two-way ANOVA needs at least 2 replicates per cell")

    cells = values[np.argsort(cell, kind="stable")].reshape(a, b, r)
    grand = values.mean()
    mean_ab = cells.mean(axis=2)
    mean_a = mean_ab.mean(axis=1)
    mean_b = mean_ab.mean(axis=0)
    ss = {
        "model": float(r * b * ((mean_a - grand) ** 2).sum()),
        "task": float(r * a * ((mean_b - grand) ** 2).sum()),
        "interaction": float(r * ((mean_ab - mean_a[:, None] - mean_b + grand) ** 2).sum()),
        "residual": float(((cells - mean_ab[..., None]) ** 2).sum()),
    }
    df = {
        "model": a - 1,
        "task": b - 1,
        "interaction": (a - 1) * (b - 1),
        "residual": a * b * (r - 1),
    }
    ms_res = ss["residual"] / df["residual"]
    if ms_res == 0:
        return AnovaResult(ss, df, {}, {}, zero_variance=True)
    f = {k: (ss[k] / df[k]) / ms_res for k in ("model", "task", "interaction")}
    p = {k: f_sf(f_k, df[k], df["residual"]) for k, f_k in f.items()}
    return AnovaResult(ss, df, f, p)
