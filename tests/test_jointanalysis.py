"""Contingency/KLD machinery and the statistical test pipeline.

Wilcoxon exact p-values are checked against a direct 2^n sign-pattern
enumeration oracle (and scipy where it supports the case); Kruskal-Wallis is
calibrated by Monte-Carlo under the null; ANOVA is checked against scipy's F
distribution, an injected-effect construction, and the published 5x2x20
degrees-of-freedom bookkeeping.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from ordsoft.jointanalysis import (
    AnovaResult,
    ContingencyTable,
    JointDistribution,
    TestResult,
    kld,
    kruskal_wallis,
    normalise,
    pairwise_wilcoxon_holm,
    residuals,
    table_mae,
    two_way_anova,
    wilcoxon_signed_rank,
    _ranks,
)
from ordsoft.specfun import f_sf


# ------------------------------------------------------------- contingency


def test_normalise_cells():
    counts = np.zeros((5, 4), dtype=int)
    counts[0, 0] = 111
    counts[1, 0] = 201
    counts[4, 3] = 968 - 111 - 201
    dist = normalise(ContingencyTable(counts))
    assert dist.probs[0, 0] == pytest.approx(111 / 968)
    assert dist.probs[1, 0] == pytest.approx(201 / 968)


def test_normalise_padded_single_cell():
    dist = normalise(ContingencyTable(np.array([[5, 0], [0, 0]])))
    np.testing.assert_allclose(dist.probs, [[1.0, 0.0], [0.0, 0.0]])


def test_normalise_uniform():
    dist = normalise(ContingencyTable(np.full((3, 3), 4)))
    np.testing.assert_allclose(dist.probs, np.full((3, 3), 1 / 9))


@pytest.mark.parametrize("probs, message", [
    ([0.5, 0.5], "matrix"),
    ([[1.2, -0.2], [0.0, 0.0]], "non-negative"),
    ([[0.5, 0.4], [0.0, 0.0]], "sum to 1"),
    (np.full((2, 2), np.nan), "finite"),
    ([[np.inf, 0.0], [0.0, 0.0]], "finite"),
    ([[0.5, 0.5], [-np.inf, 0.0]], "finite"),
])
def test_joint_distribution_rejects_bad_entries(probs, message):
    with pytest.raises(ValueError, match=message):
        JointDistribution(np.array(probs))


def test_contingency_csv_roundtrip(tmp_path):
    table = ContingencyTable(np.array([[1, 2, 3], [4, 5, 6]]))
    path = tmp_path / "table.csv"
    table.to_csv(str(path))
    assert path.read_text().splitlines()[0] == "A\\B,0,1,2"
    loaded = ContingencyTable.from_csv(str(path))
    np.testing.assert_array_equal(loaded.counts, table.counts)
    # any 'row\col' header cell reads; one without the backslash does not
    path.write_text("KL\\CPPD,0,1,2\n0,1,2,3\n1,4,5,6\n")
    np.testing.assert_array_equal(ContingencyTable.from_csv(str(path)).counts, table.counts)
    path.write_text("KL,0,1,2\n0,1,2,3\n1,4,5,6\n")
    with pytest.raises(ValueError, match="row\\\\col"):
        ContingencyTable.from_csv(str(path))


# --------------------------------------------------------------------- KLD


def test_kld_identity_is_zero():
    p = JointDistribution(np.array([[0.25, 0.25], [0.3, 0.2]]))
    assert kld(p, p, epsilon=0.0) == 0.0
    assert kld(p, p) == pytest.approx(0.0, abs=1e-9)


def test_kld_two_term_example():
    p = JointDistribution(np.array([[0.5, 0.5]]))
    q = JointDistribution(np.array([[0.25, 0.75]]))
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert kld(p, q, epsilon=0.0) == pytest.approx(expected, abs=1e-12)
    assert kld(p, q, epsilon=0.0) == pytest.approx(0.14384, abs=1e-5)


def test_kld_nonnegative_on_smoothed_pairs():
    rng = np.random.default_rng(89)
    for _ in range(1000):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        p = JointDistribution(rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape))
        q = JointDistribution(rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape))
        assert kld(p, q) >= -1e-12


def test_kld_zero_cell_infinite_when_unsmoothed():
    p = JointDistribution(np.array([[0.5, 0.5], [0.0, 0.0]]))
    q = JointDistribution(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert math.isinf(kld(p, q, epsilon=0.0))
    assert math.isfinite(kld(p, q, epsilon=1e-6))


@pytest.mark.parametrize("epsilon", [-1e-6, math.nan, math.inf])
def test_kld_rejects_an_epsilon_that_is_not_a_finite_number_at_least_0(epsilon):
    # a zero predicted cell under truth mass: NaN once read as 0 and gave inf,
    # and inf gave NaN
    p = normalise(ContingencyTable(np.array([[30, 5], [5, 30]])))
    q = normalise(ContingencyTable(np.array([[20, 15], [0, 26]])))
    with pytest.raises(ValueError, match=f"epsilon must be a finite number >= 0, got {epsilon}"):
        kld(p, q, epsilon)


def test_kld_zero_p_cells_contribute_nothing():
    p = JointDistribution(np.array([[1.0, 0.0]]))
    q = JointDistribution(np.array([[0.5, 0.5]]))
    assert kld(p, q, epsilon=0.0) == pytest.approx(math.log(2.0), abs=1e-12)


# --------------------------------------------------------------- residuals


def test_residuals_properties():
    rng = np.random.default_rng(97)
    p = JointDistribution(rng.dirichlet(np.ones(12)).reshape(3, 4))
    q = JointDistribution(rng.dirichlet(np.ones(12)).reshape(3, 4))
    r = residuals(p, q)
    assert abs(r.sum()) < 1e-12
    np.testing.assert_allclose(r, -residuals(q, p), atol=1e-15)
    np.testing.assert_allclose(residuals(p, p), np.zeros((3, 4)), atol=1e-15)


def test_residuals_shape_mismatch():
    p = JointDistribution(np.full((2, 2), 0.25))
    q = JointDistribution(np.full((2, 3), 1 / 6))
    with pytest.raises(ValueError):
        residuals(p, q)


def test_table_mae():
    p = JointDistribution(np.array([[0.5, 0.5]]))
    q = JointDistribution(np.array([[0.25, 0.75]]))
    assert table_mae(p, q) == pytest.approx(0.25)
    assert table_mae(p, p) == 0.0
    rng = np.random.default_rng(101)
    a = JointDistribution(rng.dirichlet(np.ones(6)).reshape(2, 3))
    b = JointDistribution(rng.dirichlet(np.ones(6)).reshape(2, 3))
    assert table_mae(a, b) <= np.abs(a.probs - b.probs).max() + 1e-15


# ---------------------------------------------------------- kruskal-wallis


def test_ranks_match_scipy_on_random_tie_patterns():
    rng = np.random.default_rng(97)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        values = rng.integers(0, int(rng.integers(1, n + 2)), size=n) * 0.25 - 1.0
        ranks, counts = _ranks(values)
        assert ranks.tobytes() == stats.rankdata(values, method="average").tobytes()
        np.testing.assert_array_equal(counts, np.unique(values, return_counts=True)[1])


def test_kruskal_identical_groups():
    result = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert result.p_value > 0.9


def test_kruskal_separated_groups():
    result = kruskal_wallis([[1.0, 2.0, 3.0], [101.0, 102.0, 103.0]])
    # rank arithmetic oracle: R1=6, R2=15 -> H = 12/42*(12+75)-21
    assert result.statistic == pytest.approx(12 / 42 * (36 / 3 + 225 / 3) - 21, abs=1e-12)
    assert result.p_value < 0.05


def test_kruskal_all_identical_degenerate():
    result = kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.degenerate


def test_kruskal_matches_scipy():
    rng = np.random.default_rng(103)
    for _ in range(50):
        groups = [rng.normal(size=int(rng.integers(5, 15))) for _ in range(int(rng.integers(2, 5)))]
        ours = kruskal_wallis(groups)
        ref = stats.kruskal(*groups)
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)


def test_kruskal_far_tail_of_separated_groups_matches_scipy():
    # 5 strategies x 20 seeds with no overlap: 1 - cdf rounded this p to 0.0
    groups = [np.arange(20.0) + 100.0 * k for k in range(5)]
    ours = kruskal_wallis(groups)
    ref = stats.kruskal(*groups)
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)
    assert 0.0 < ours.p_value < 1e-18


def test_kruskal_monotone_transform_invariance():
    rng = np.random.default_rng(107)
    groups = [rng.normal(size=10) for _ in range(3)]
    base = kruskal_wallis(groups)
    transformed = kruskal_wallis([np.exp(g) for g in groups])
    assert transformed.statistic == pytest.approx(base.statistic, abs=1e-12)


def test_kruskal_null_calibration():
    # 1000 null simulations, 3 groups of 20 from one distribution
    rng = np.random.default_rng(109)
    rejections = 0
    for _ in range(1000):
        groups = [rng.normal(size=20) for _ in range(3)]
        if kruskal_wallis(groups).p_value < 0.05:
            rejections += 1
    assert 0.03 <= rejections / 1000 <= 0.08


def test_kruskal_input_validation():
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0], []])


# ---------------------------------------------------------------- wilcoxon


def oracle_wilcoxon_exact(x, y):
    """Brute-force: every sign pattern of the absolute-difference ranks."""
    diffs = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    diffs = diffs[diffs != 0]
    ranks = stats.rankdata(np.abs(diffs), method="average")
    n = diffs.size
    w_obs = ranks[diffs > 0].sum()
    w_values = [
        sum(r for r, sign in zip(ranks, signs) if sign)
        for signs in itertools.product([False, True], repeat=n)
    ]
    w_values = np.asarray(w_values)
    p_le = np.mean(w_values <= w_obs + 1e-12)
    p_ge = np.mean(w_values >= w_obs - 1e-12)
    return w_obs, min(1.0, 2.0 * min(p_le, p_ge))


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(113)
    for n in range(5, 13):
        for _ in range(12):
            x = rng.normal(size=n)
            y = x + rng.normal(size=n)  # continuous: ties essentially impossible
            w_oracle, p_oracle = oracle_wilcoxon_exact(x, y)
            result = wilcoxon_signed_rank(x, y)
            assert result.method == "wilcoxon_exact"
            assert result.statistic == pytest.approx(w_oracle, abs=1e-12)
            assert result.p_value == pytest.approx(p_oracle, abs=1e-12)


def test_wilcoxon_with_ties_matches_enumeration_oracle():
    rng = np.random.default_rng(127)
    for _ in range(30):
        n = int(rng.integers(5, 11))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        diffs = x - y
        if (diffs != 0).sum() < 5:
            continue
        w_oracle, p_oracle = oracle_wilcoxon_exact(x, y)
        result = wilcoxon_signed_rank(x, y)
        assert result.statistic == pytest.approx(w_oracle, abs=1e-12)
        assert result.p_value == pytest.approx(p_oracle, abs=1e-12)


def test_wilcoxon_matches_scipy_exact():
    rng = np.random.default_rng(131)
    for n in (6, 10, 14, 20):
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        ours = wilcoxon_signed_rank(x, y)
        ref = stats.wilcoxon(x, y, mode="exact", alternative="two-sided")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_extreme_shift():
    rng = np.random.default_rng(137)
    x = rng.normal(size=20)
    result = wilcoxon_signed_rank(x, x + 100.0)
    assert result.method == "wilcoxon_exact"
    assert result.p_value == pytest.approx(2.0 / 2**20, abs=1e-15)
    assert result.p_value < 0.001


def test_wilcoxon_minimal_exact_p_n6():
    x = np.arange(1.0, 7.0)
    result = wilcoxon_signed_rank(x, x + 5.0)
    assert result.p_value == pytest.approx(2.0 / 64.0, abs=1e-15)


def test_wilcoxon_symmetric_null_large_p():
    # perfectly symmetric differences: statistic sits at the null centre
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    y = x + np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
    result = wilcoxon_signed_rank(x, y)
    assert result.p_value > 0.9


def test_wilcoxon_all_zero_differences():
    x = np.ones(8)
    with pytest.warns(UserWarning):
        result = wilcoxon_signed_rank(x, x)
    assert result.p_value == 1.0
    assert result.degenerate


def test_wilcoxon_few_pairs_match_scipy_exact():
    # the exact sign enumeration is valid for any n >= 1
    rng = np.random.default_rng(149)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            x = rng.normal(size=n)
            y = x + rng.normal(size=n)
            ours = wilcoxon_signed_rank(x, y)
            ref = stats.wilcoxon(x, y, method="exact", alternative="two-sided")
            assert ours.method == "wilcoxon_exact"
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_wilcoxon_normal_branch_for_large_n():
    rng = np.random.default_rng(139)
    x = rng.normal(size=60)
    y = x + rng.normal(loc=0.3, size=60)
    ours = wilcoxon_signed_rank(x, y)
    assert ours.method == "wilcoxon_normal"
    ref = stats.wilcoxon(x, y, mode="approx", alternative="two-sided", correction=False)
    assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)


def test_pairwise_holm_ordering():
    rng = np.random.default_rng(149)
    base = rng.normal(size=20)
    samples = {
        "worst": base + 1.0,
        "mid": base + rng.normal(scale=0.6, size=20),
        "best": base,
    }
    results = pairwise_wilcoxon_holm(samples)
    assert len(results) == 3
    for entry in results:
        assert entry["p_holm"] >= entry["test"].p_value - 1e-15
        assert entry["p_holm"] <= 1.0


# ------------------------------------------------------------------- anova


def _balanced_design(rng, effects_a, effects_b, interaction=0.0, r=20, noise=1.0):
    values, fa, fb = [], [], []
    for i, ea in enumerate(effects_a):
        for j, eb in enumerate(effects_b):
            cell = ea + eb + interaction * i * j + rng.normal(scale=noise, size=r)
            values.extend(cell)
            fa.extend([f"a{i}"] * r)
            fb.extend([f"b{j}"] * r)
    return np.asarray(values), np.asarray(fa), np.asarray(fb)


def test_anova_df_bookkeeping_5x2x20():
    rng = np.random.default_rng(151)
    values, fa, fb = _balanced_design(rng, np.zeros(5), np.zeros(2), r=20)
    result = two_way_anova(values, fa, fb)
    assert (
        result.df["model"],
        result.df["task"],
        result.df["interaction"],
        result.df["residual"],
    ) == (4, 1, 4, 190)


def test_anova_ss_decomposition():
    rng = np.random.default_rng(157)
    values, fa, fb = _balanced_design(rng, [0.0, 0.5, 1.0], [0.0, 0.3], r=6)
    result = two_way_anova(values, fa, fb)
    ss_total = float(((values - values.mean()) ** 2).sum())
    parts = sum(result.ss.values())
    assert parts == pytest.approx(ss_total, rel=1e-9)


def test_anova_injected_model_effect():
    rng = np.random.default_rng(163)
    values, fa, fb = _balanced_design(rng, [0.0, 2.0, 4.0, 6.0, 8.0], [0.0, 0.0], r=20, noise=1.0)
    result = two_way_anova(values, fa, fb)
    assert result.f["model"] > 50.0
    assert result.f["task"] < 5.0
    assert result.p["model"] < 1e-6


def test_anova_zero_variance_flagged():
    values = np.ones(40)
    fa = np.repeat(["a0", "a1"], 20)
    fb = np.tile(np.repeat(["b0", "b1"], 10), 2)
    result = two_way_anova(values, fa, fb)
    assert result.zero_variance
    assert result.f == {}


def test_anova_rejects_unbalanced():
    values = np.arange(7.0)
    fa = np.array(["a0"] * 4 + ["a1"] * 3)
    fb = np.array(["b0", "b1"] * 3 + ["b0"])
    with pytest.raises(ValueError):
        two_way_anova(values, fa, fb)


def test_anova_matches_scipy_f_pvalues():
    rng = np.random.default_rng(167)
    values, fa, fb = _balanced_design(rng, [0.0, 0.4, 0.8], [0.0, 0.2], r=10)
    result = two_way_anova(values, fa, fb)
    for factor in ("model", "task", "interaction"):
        ref = stats.f.sf(result.f[factor], result.df[factor], result.df["residual"])
        assert result.p[factor] == pytest.approx(float(ref), abs=1e-10)


def test_anova_reproduces_published_f_from_ss():
    # published two-way table: SS (model 2.367, task 0.197, interaction 0.053,
    # residual 1.939) with DF (4, 1, 4, 190) gives F (57.961, 19.252, 1.289)
    ms_resid = 1.939 / 190
    assert (2.367 / 4) / ms_resid == pytest.approx(57.961, abs=0.2)
    assert (0.197 / 1) / ms_resid == pytest.approx(19.252, abs=0.2)
    assert (0.053 / 4) / ms_resid == pytest.approx(1.289, abs=0.05)
    # the implied p-values, far tail included, and the reported significance pattern
    p = {}
    for name, ss, df in (("model", 2.367, 4), ("task", 0.197, 1), ("interaction", 0.053, 4)):
        f = (ss / df) / ms_resid
        p[name] = f_sf(f, df, 190)
        assert p[name] == pytest.approx(stats.f.sf(f, df, 190), rel=1e-9), name
    assert 0.0 < p["model"] < 1e-30
    assert p["task"] < 0.001
    assert p["interaction"] > 0.05
    assert f_sf(57.96, 4, 190) == pytest.approx(stats.f.sf(57.96, 4, 190), rel=1e-9)
