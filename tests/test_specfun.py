"""Special-function accuracy against high-precision mpmath oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from ordsoft.specfun import (
    chi2_cdf,
    f_cdf,
    normal_cdf,
    reg_inc_beta,
    reg_inc_gamma_lower,
)

mp.mp.dps = 30


def test_reg_inc_beta_bounds_and_trivials():
    assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
    assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0
    assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_reg_inc_beta_matches_mpmath():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = float(rng.uniform(0.05, 30.0))
        b = float(rng.uniform(0.05, 30.0))
        x = float(rng.uniform(0.0, 1.0))
        expected = float(mp.betainc(a, b, 0, x, regularized=True))
        assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=1e-12)


def test_reg_inc_beta_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(300):
        a = float(rng.uniform(0.1, 20.0))
        b = float(rng.uniform(0.1, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(1.0, abs=1e-12)


def test_reg_inc_beta_monotone_in_x():
    rng = np.random.default_rng(17)
    xs = np.linspace(0.0, 1.0, 21)
    for _ in range(1000):
        a = float(rng.uniform(0.1, 15.0))
        b = float(rng.uniform(0.1, 15.0))
        values = [reg_inc_beta(float(x), a, b) for x in xs]
        assert all(v2 >= v1 - 1e-13 for v1, v2 in zip(values, values[1:]))


def test_reg_inc_beta_domain():
    with pytest.raises(ValueError):
        reg_inc_beta(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_beta(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, 1.0, -2.0)


def test_reg_inc_gamma_trivials():
    assert reg_inc_gamma_lower(1.0, 0.0) == 0.0
    assert reg_inc_gamma_lower(0.5, 1e6) == pytest.approx(1.0, abs=1e-12)
    # P(1/2, x) equals erf(sqrt(x)); the erf oracle pins the expected value
    assert reg_inc_gamma_lower(0.5, 1.0) == pytest.approx(math.erf(1.0), abs=1e-12)
    assert reg_inc_gamma_lower(0.5, 1.0) == pytest.approx(0.8427007929, abs=1e-10)
    # P(1, x) has the closed form 1 - exp(-x)
    assert reg_inc_gamma_lower(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_reg_inc_gamma_matches_mpmath():
    rng = np.random.default_rng(19)
    for _ in range(300):
        s = float(rng.uniform(0.05, 40.0))
        x = float(rng.uniform(0.0, 80.0))
        expected = float(mp.gammainc(s, 0, x, regularized=True))
        assert reg_inc_gamma_lower(s, x) == pytest.approx(expected, abs=1e-12)


def test_reg_inc_gamma_domain():
    with pytest.raises(ValueError):
        reg_inc_gamma_lower(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_gamma_lower(1.0, -0.5)


def test_chi2_cdf_against_mpmath():
    rng = np.random.default_rng(23)
    for _ in range(100):
        df = float(rng.integers(1, 12))
        x = float(rng.uniform(0.0, 30.0))
        expected = float(mp.gammainc(df / 2, 0, x / 2, regularized=True))
        assert chi2_cdf(x, df) == pytest.approx(expected, abs=1e-12)


def test_f_cdf_against_scipy():
    from scipy import stats

    rng = np.random.default_rng(29)
    for _ in range(100):
        d1 = int(rng.integers(1, 10))
        d2 = int(rng.integers(2, 200))
        f = float(rng.uniform(0.0, 20.0))
        assert f_cdf(f, d1, d2) == pytest.approx(stats.f.cdf(f, d1, d2), abs=1e-10)


def test_normal_cdf():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
