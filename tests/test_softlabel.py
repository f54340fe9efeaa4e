"""Soft-target rows: frozen examples, quadrature oracle for the beta mode,
and the full Table-4-style grid invariants."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from ordsoft.core import LabelSpace
from ordsoft.softlabel import (
    STRATEGIES,
    SmoothingParams,
    SoftTargetMatrix,
    beta_row,
    binomial_row,
    blend_ordinal_row,
    build_target_matrix,
    exponential_row,
    is_unimodal,
    nominal_smooth_row,
    triangular_row,
)

GRID_ETAS = (0.8, 1.0)
GRID_ALPHAS = (0.01, 0.05, 0.10)
GRID_PS = (1.0, 1.5, 2.0)
GRID_CONCENTRATIONS = (5.0, 10.0)


def test_triangular_rows():
    np.testing.assert_allclose(triangular_row(4, 1, 0.10), [0.10, 0.80, 0.10, 0.0])
    np.testing.assert_allclose(triangular_row(4, 0, 0.05), [0.95, 0.05, 0.0, 0.0])
    np.testing.assert_allclose(triangular_row(5, 2, 0.01), [0.0, 0.01, 0.98, 0.01, 0.0])


def test_binomial_rows():
    # the end grades' rows are exactly one-hot, zeros positive, from the pmf itself
    for j in range(2, 10):
        for k in (0, j - 1):
            row = binomial_row(j, k)
            assert np.array_equal(row, np.eye(j)[k]) and row.tobytes() == np.eye(j)[k].tobytes()
    # exact expansion of Binomial(3, 1/3)
    np.testing.assert_allclose(binomial_row(4, 1), [8 / 27, 12 / 27, 6 / 27, 1 / 27], atol=1e-15)


def test_exponential_rows():
    # scalar oracle: normalise exp(0..-3) directly
    weights = [math.exp(-d) for d in range(4)]
    expected = [w / sum(weights) for w in weights]
    np.testing.assert_allclose(exponential_row(4, 0, 1.0), expected, atol=1e-15)
    np.testing.assert_allclose(
        exponential_row(2, 0, 1.0),
        [math.e / (math.e + 1), 1 / (math.e + 1)],
        atol=1e-15,
    )
    row = exponential_row(3, 1, 2.0)
    assert row[0] == pytest.approx(row[2], abs=1e-15)
    assert row[1] == max(row)


def test_beta_row_sums_to_one():
    for j, k, s in [(4, 1, 5.0), (5, 4, 10.0), (6, 2, 5.0), (2, 0, 7.3)]:
        assert beta_row(j, k, s).sum() == pytest.approx(1.0, abs=1e-9)


def test_beta_row_uniform_limit():
    np.testing.assert_allclose(beta_row(2, 0, 1e-9), [0.5, 0.5], atol=1e-8)


def test_beta_row_mode_against_quadrature_oracle():
    # independent oracle: integrate the beta density over each segment
    j, k, s = 4, 1, 10.0
    m = (2 * k + 1) / (2 * j)
    a, b = 1 + s * m, 1 + s * (1 - m)
    masses = [
        integrate.quad(lambda z: stats.beta.pdf(z, a, b), i / j, (i + 1) / j)[0] for i in range(j)
    ]
    assert int(np.argmax(masses)) == k
    np.testing.assert_allclose(beta_row(j, k, s), masses, atol=1e-9)


def test_nominal_smooth_rows():
    np.testing.assert_allclose(nominal_smooth_row(4, 1, 0.8), [0.2, 0.4, 0.2, 0.2], atol=1e-15)
    np.testing.assert_allclose(nominal_smooth_row(4, 1, 0.0), [0, 1, 0, 0])
    np.testing.assert_allclose(nominal_smooth_row(4, 1, 1.0), [0.25] * 4)


def test_blend_ordinal_row():
    soft = np.array([0.1, 0.8, 0.1, 0.0])
    np.testing.assert_allclose(blend_ordinal_row(1, soft, 1.0), soft)
    np.testing.assert_allclose(blend_ordinal_row(1, soft, 0.8), [0.08, 0.84, 0.08, 0.0], atol=1e-15)
    np.testing.assert_allclose(blend_ordinal_row(1, soft, 0.0), [0, 1, 0, 0])


def test_blend_is_exactly_linear():
    rng = np.random.default_rng(31)
    for _ in range(50):
        j = int(rng.integers(2, 7))
        k = int(rng.integers(0, j))
        soft = rng.dirichlet(np.ones(j))
        eta = float(rng.uniform(0, 1))
        onehot = np.zeros(j)
        onehot[k] = 1.0
        np.testing.assert_array_equal(
            blend_ordinal_row(k, soft, eta), (1 - eta) * onehot + eta * soft
        )


@pytest.mark.parametrize("rows, message", [
    ([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]], "square"),
    ([[1.1, -0.1], [0.0, 1.0]], "non-negative"),
    ([[0.9, 0.2], [0.0, 1.0]], "sum to 1"),
    ([[0.4, 0.6], [0.0, 1.0]], "row 0 does not peak"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.0, 0.7]], "row 2 is not unimodal"),
    ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
    ([[1.0, 0.0], [np.inf, 1.0]], "finite"),
])
def test_soft_target_matrix_rejects_invalid_rows(rows, message):
    with pytest.raises(ValueError, match=message):
        SoftTargetMatrix(np.array(rows))


def test_build_nominal_is_identity():
    matrix = build_target_matrix(LabelSpace(5), "nominal")
    np.testing.assert_array_equal(matrix.rows, np.eye(5))


def test_build_triangular_eta_one_matches_rows():
    params = SmoothingParams(eta=1.0, alpha=0.10)
    matrix = build_target_matrix(LabelSpace(4), "triangular", params)
    for k in range(4):
        np.testing.assert_allclose(matrix.rows[k], triangular_row(4, k, 0.10))


# each strategy's row for grade k of J, its formula called directly
DIRECT_ROWS = {
    "nominal": lambda j, k, sp: np.eye(j)[k],
    "nominal_smoothed": lambda j, k, sp: nominal_smooth_row(j, k, sp.eta),
    "triangular": lambda j, k, sp: blend_ordinal_row(k, triangular_row(j, k, sp.alpha), sp.eta),
    "binomial": lambda j, k, sp: blend_ordinal_row(k, binomial_row(j, k), sp.eta),
    "beta": lambda j, k, sp: blend_ordinal_row(k, beta_row(j, k, sp.concentration), sp.eta),
    "exponential": lambda j, k, sp: blend_ordinal_row(k, exponential_row(j, k, sp.p), sp.eta),
}


@pytest.mark.parametrize("n_classes", [2, 4, 5, 9])
def test_each_strategy_builds_its_formula_rows_bit_for_bit(n_classes):
    assert tuple(DIRECT_ROWS) == STRATEGIES
    space = LabelSpace(n_classes)
    grid = itertools.product((0.0, 0.8, 1.0), (0.05, 0.3), (1.0, 2.5), (5.0, 20.0))
    for eta, alpha, p, concentration in grid:
        # every field set, so each strategy must read only its own
        params = SmoothingParams(eta=eta, alpha=alpha, p=p, concentration=concentration)
        for strategy, row in DIRECT_ROWS.items():
            expected = np.stack([row(n_classes, k, params) for k in range(n_classes)])
            rows = build_target_matrix(space, strategy, params).rows
            assert np.array_equal(rows, expected), (strategy, params)


def test_build_rejects_an_unknown_strategy():
    with pytest.raises(ValueError, match="^unknown strategy 'ordinal'; expected one of"):
        build_target_matrix(LabelSpace(3), "ordinal")
    # a list is no strategy name, nor a key of the strategy table
    with pytest.raises(ValueError, match="^strategy must be a string"):
        build_target_matrix(LabelSpace(3), ["ordinal"])


def _grid_matrices(n_classes):
    """Every strategy/parameter combination of the search grid."""
    space = LabelSpace(n_classes)
    yield build_target_matrix(space, "nominal")
    for eta in GRID_ETAS:
        yield build_target_matrix(space, "binomial", SmoothingParams(eta=eta))
        for alpha in GRID_ALPHAS:
            yield build_target_matrix(space, "triangular", SmoothingParams(eta=eta, alpha=alpha))
        for p in GRID_PS:
            yield build_target_matrix(space, "exponential", SmoothingParams(eta=eta, p=p))
        for s in GRID_CONCENTRATIONS:
            yield build_target_matrix(space, "beta", SmoothingParams(eta=eta, concentration=s))


@pytest.mark.parametrize("n_classes", [2, 3, 4, 5, 6])
def test_grid_rows_are_valid_unimodal_distributions(n_classes):
    for matrix in _grid_matrices(n_classes):
        rows = matrix.rows
        assert (rows >= 0).all()
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        for k in range(n_classes):
            assert int(np.argmax(rows[k])) == k, (matrix.strategy, matrix.params, k)
            assert is_unimodal(rows[k], k), (matrix.strategy, matrix.params, k)


def test_beta_concentration_widens_with_lower_s():
    sharp = beta_row(5, 2, 10.0)
    wide = beta_row(5, 2, 5.0)
    assert sharp[2] > wide[2]


def test_smoothing_params_validation():
    with pytest.raises(ValueError):
        SmoothingParams(eta=1.2)
    for alpha in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            SmoothingParams(alpha=alpha)
    with pytest.raises(ValueError):
        SmoothingParams(p=0.0)
    with pytest.raises(ValueError):
        SmoothingParams(concentration=-1.0)
