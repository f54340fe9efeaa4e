"""Special-function accuracy against high-precision mpmath oracles."""

import math

import mpmath as mp
import numpy as np
import pytest

from ordsoft.specfun import (
    chi2_sf,
    f_sf,
    normal_sf,
    reg_inc_beta,
    reg_inc_gamma_upper,
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
    assert reg_inc_gamma_upper(1.0, 0.0) == 1.0
    assert reg_inc_gamma_upper(0.5, 1e6) == 0.0
    # Q(1/2, x) equals erfc(sqrt(x)); the erfc oracle pins the expected value
    assert reg_inc_gamma_upper(0.5, 1.0) == pytest.approx(math.erfc(1.0), rel=1e-12)
    assert reg_inc_gamma_upper(0.5, 1.0) == pytest.approx(0.1572992071, abs=1e-10)
    # Q(1, x) has the closed form exp(-x), far tail included
    assert reg_inc_gamma_upper(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert reg_inc_gamma_upper(1.0, 700.0) == pytest.approx(math.exp(-700.0), rel=1e-12)


def test_reg_inc_gamma_matches_mpmath():
    rng = np.random.default_rng(19)
    for _ in range(300):
        s = float(rng.uniform(0.05, 40.0))
        x = float(rng.uniform(0.0, 80.0))
        expected = float(mp.gammainc(s, x, mp.inf, regularized=True))
        assert reg_inc_gamma_upper(s, x) == pytest.approx(expected, rel=1e-9)


def test_reg_inc_gamma_domain():
    with pytest.raises(ValueError):
        reg_inc_gamma_upper(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_gamma_upper(1.0, -0.5)


def test_chi2_sf_against_mpmath():
    rng = np.random.default_rng(23)
    for _ in range(100):
        df = float(rng.integers(1, 12))
        x = float(rng.uniform(0.0, 30.0))
        expected = float(mp.gammainc(df / 2, x / 2, mp.inf, regularized=True))
        assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-9)
    assert chi2_sf(0.0, 3) == 1.0


def test_f_sf_against_scipy():
    from scipy import stats

    rng = np.random.default_rng(29)
    for _ in range(100):
        d1 = int(rng.integers(1, 10))
        d2 = int(rng.integers(2, 200))
        f = float(rng.uniform(0.0, 20.0))
        assert f_sf(f, d1, d2) == pytest.approx(stats.f.sf(f, d1, d2), rel=1e-9)
    assert f_sf(0.0, 4, 190) == 1.0


def test_normal_sf():
    assert normal_sf(0.0) == 0.5
    assert normal_sf(1.96) == pytest.approx(1.0 - 0.9750021048517795, abs=1e-12)
    # far tail: 1 - cdf rounds this to 0.0
    assert normal_sf(9.0) == pytest.approx(float(mp.ncdf(-9.0)), rel=1e-9)
