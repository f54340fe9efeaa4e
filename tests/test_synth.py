"""Synthetic generators: exact class counts, flip-rate calibration,
determinism, and the asymmetric paired-table shape."""

import numpy as np
import pytest

from ordsoft.core import ContingencyTable, LabelSpace
from ordsoft.metrics import amae
from ordsoft.core import PredictionSet, build_confusion
from ordsoft.synth import (
    PairedSynthSpec,
    SynthSpec,
    generate,
    generate_paired,
    paired_conditional,
    paired_features,
)


def test_per_class_counts_exact_without_flips():
    spec = SynthSpec(n_classes=4, n_per_class=(10, 20, 30, 12), noise_sd=0.5, seed=1)
    data = generate(spec)
    counts = [int((data.labels == k).sum()) for k in range(4)]
    assert counts == [10, 20, 30, 12]


def test_labels_in_range_with_flips():
    spec = SynthSpec(n_classes=5, n_per_class=40, adjacent_flip_prob=0.4, seed=2)
    data = generate(spec)
    assert data.labels.min() >= 0 and data.labels.max() <= 4


def test_flip_rate_matches_probability():
    base = SynthSpec(n_classes=5, n_per_class=800, adjacent_flip_prob=0.0, seed=3)
    flipped = SynthSpec(n_classes=5, n_per_class=800, adjacent_flip_prob=0.3, seed=3)
    clean = generate(base)
    noisy = generate(flipped)
    # same seed, flips on a separate stream: features and base labels coincide
    np.testing.assert_array_equal(clean.features, noisy.features)
    changed = (clean.labels != noisy.labels)
    rate = changed.mean()
    assert abs(rate - 0.3) < 3 * np.sqrt(0.3 * 0.7 / clean.n_samples)
    # every flip lands on an adjacent grade
    assert (np.abs(clean.labels[changed] - noisy.labels[changed]) == 1).all()


def test_generate_deterministic_csv(tmp_path):
    spec = SynthSpec(n_classes=3, n_per_class=15, adjacent_flip_prob=0.2, seed=9)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate(spec).to_csv(str(path_a))
    generate(spec).to_csv(str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_separable_limit_trains_to_zero_amae():
    from ordsoft.trainer import TrainConfig, init_model, predict_proba, stratified_split, train
    from ordsoft.softlabel import SmoothingParams

    spec = SynthSpec(
        n_classes=3, n_per_class=40, noise_sd=0.01, class_separation=2.0,
        adjacent_flip_prob=0.0, seed=11,
    )
    data = generate(spec)
    space = LabelSpace(3)
    train_idx, test_idx = stratified_split(data.labels, 0.7, seed=0)
    config = TrainConfig(0.5, "nominal", SmoothingParams(), seed=0, batch_size=256, max_epochs=200, patience=200)
    model = init_model(data.n_features, 3, seed=0, hidden_width=8)
    model, _ = train(model, data.subset(train_idx), config, data.subset(test_idx))
    preds = PredictionSet(
        data.labels[test_idx], predict_proba(model, data.features[test_idx])
    )
    assert amae(build_confusion(preds, space)) == pytest.approx(0.0, abs=1e-9)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SynthSpec(n_classes=1, n_per_class=10)
    with pytest.raises(ValueError):
        SynthSpec(n_classes=3, n_per_class=1)
    with pytest.raises(ValueError):
        SynthSpec(n_classes=3, n_per_class=10, adjacent_flip_prob=0.5)
    with pytest.raises(ValueError):
        PairedSynthSpec(n_classes_a=5, n_classes_b=4, n_samples=10, low_grade_concentration=0.0)


def test_paired_conditional_extremes():
    spec = PairedSynthSpec(n_classes_a=5, n_classes_b=4, n_samples=100, low_grade_concentration=1.0)
    row0 = paired_conditional(spec, 0)
    np.testing.assert_allclose(row0, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    full_spread = PairedSynthSpec(n_classes_a=5, n_classes_b=4, n_samples=100, high_grade_spread=1.0)
    top = paired_conditional(full_spread, 4)
    np.testing.assert_allclose(top, [0.25] * 4, atol=1e-15)


def _paired_table(spec):
    """The joint counts of ``generate_paired``'s grades, A on the rows."""
    shape = (spec.n_classes_a, spec.n_classes_b)
    return ContingencyTable.from_labels(*generate_paired(spec), shape).counts


def test_paired_bottom_row_one_hot_when_fully_concentrated():
    spec = PairedSynthSpec(
        n_classes_a=5, n_classes_b=4, n_samples=2000, low_grade_concentration=1.0, seed=13
    )
    table = _paired_table(spec)
    assert table[0, 1:].sum() == 0  # row A=0 entirely on B=0
    assert table[0, 0] > 0


def test_paired_top_row_near_uniform_in_expectation():
    spec = PairedSynthSpec(
        n_classes_a=5, n_classes_b=4, n_samples=40000, high_grade_spread=1.0, seed=17
    )
    table = _paired_table(spec)
    top = table[4] / table[4].sum()
    np.testing.assert_allclose(top, [0.25] * 4, atol=0.02)


def test_paired_default_low_rows_modal_at_zero():
    spec = PairedSynthSpec(n_classes_a=5, n_classes_b=4, n_samples=968, seed=19)
    table = _paired_table(spec)
    assert int(np.argmax(table[0])) == 0
    assert int(np.argmax(table[1])) == 0


def _row_entropy(row):
    p = row / row.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def test_paired_asymmetry_statistic_positive_over_seeds():
    positive = 0
    for seed in range(100):
        spec = PairedSynthSpec(n_classes_a=5, n_classes_b=4, n_samples=968, seed=seed)
        table = _paired_table(spec).astype(float)
        if _row_entropy(table[4]) > _row_entropy(table[0]):
            positive += 1
    assert positive == 100


def test_paired_features_carry_both_grades():
    spec = PairedSynthSpec(n_classes_a=4, n_classes_b=3, n_samples=3000, seed=23,
                           n_features=6, class_separation=1.0, noise_sd=0.3)
    labels_a, labels_b = generate_paired(spec)
    feats = paired_features(labels_a, labels_b, spec)
    assert feats.shape == (3000, 6)
    # axis 0 correlates with A, axis 1 with B
    assert np.corrcoef(feats[:, 0], labels_a)[0, 1] > 0.8
    assert np.corrcoef(feats[:, 1], labels_b)[0, 1] > 0.8
