"""Scalar special functions backing the beta soft labels and the test statistics.

The incomplete beta and gamma functions are hand-rolled (Lentz continued
fractions / power series) so their numerical behaviour is pinned by this
module rather than by an external library version: target absolute accuracy
1e-12, iteration cap 300, and non-convergence raised as ``ConvergenceError``
instead of silently returning a stale iterate.

The distribution functions are upper tails, ``chi2_sf``, ``f_sf`` and
``normal_sf``, each computed directly rather than as ``1 - cdf``: a p-value
is an upper tail, and near 0 the subtraction cancels every digit, so an F of
58 on (4, 190) gave p = 0.0 against a true 6.4e-32. A tail keeps its relative
accuracy there, and lies in [0, 1] without a clamp.
"""

from __future__ import annotations

import math

_MAX_ITER = 300
_EPS = 1e-15  # relative step threshold; well below the 1e-12 accuracy target
_FPMIN = 1e-300


class ConvergenceError(ArithmeticError):
    """Continued fraction or series failed to converge within the iteration cap."""


def _lentz_step(a: float, b: float, c: float, d: float) -> tuple[float, float, float]:
    """One modified-Lentz step of a continued fraction by its next term a / b:
    the new ``c`` and ``d``, each kept off 0 by ``_FPMIN``, and the factor
    ``d * c`` by which the step multiplies the convergent."""
    d = b + a * d
    if abs(d) < _FPMIN:
        d = _FPMIN
    c = b + a / c
    if abs(c) < _FPMIN:
        c = _FPMIN
    d = 1.0 / d
    return c, d, d * c


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the continued fraction for I_x(a, b)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        c, d, delta = _lentz_step(even, 1.0, c, d)
        h *= delta
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        c, d, delta = _lentz_step(odd, 1.0, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Uses the continued fraction directly for x below the symmetry point
    (a+1)/(a+b+2) and the identity I_x(a,b) = 1 - I_{1-x}(b,a) above it,
    which keeps the fraction in its fast-converging regime.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"reg_inc_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def _gamma_series(s: float, x: float) -> float:
    """P(s, x) by the ascending series, valid for x < s + 1."""
    term = 1.0 / s
    total = term
    ap = s
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(f"incomplete gamma series did not converge for s={s}, x={x}")


def _gamma_cont_frac(s: float, x: float) -> float:
    """Q(s, x) = 1 - P(s, x) by Lentz continued fraction, valid for x >= s + 1."""
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        b += 2.0
        c, d, delta = _lentz_step(-i * (i - s), b, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge for s={s}, x={x}"
    )


def reg_inc_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(s, x) = 1 - P(s, x)."""
    if s <= 0:
        raise ValueError(f"reg_inc_gamma_upper requires s > 0, got s={s}")
    if x < 0:
        raise ValueError(f"reg_inc_gamma_upper requires x >= 0, got x={x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:  # Q stays far from 0 here, so 1 - P keeps its relative accuracy
        return 1.0 - _gamma_series(s, x)
    return _gamma_cont_frac(s, x)


def chi2_sf(x: float, df: float) -> float:
    """Upper tail P(X > x) of the chi-squared distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"chi2_sf requires df > 0, got df={df}")
    if x <= 0:
        return 1.0
    return reg_inc_gamma_upper(df / 2.0, x / 2.0)


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper tail P(F > f) of the F distribution, I_{d2/(d2 + d1 f)}(d2/2, d1/2)."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError(f"f_sf requires positive degrees of freedom, got {df1}, {df2}")
    if f <= 0:
        return 1.0
    return reg_inc_beta(df2 / (df2 + df1 * f), df2 / 2.0, df1 / 2.0)


def normal_sf(z: float) -> float:
    """Upper tail P(Z > z) of the standard normal, via the complementary error function."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
