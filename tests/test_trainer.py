"""Split fidelity against the published class marginals, training/early-stop
contracts, determinism, and the random-search selection rule."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from ordsoft.core import LabelSpace, PredictionSet, SampleSet, build_confusion
from ordsoft.loss import mean_soft_ce, softmax
from ordsoft.metrics import amae, mae
from ordsoft.softlabel import STRATEGIES, SmoothingParams, build_target_matrix
from ordsoft.synth import PairedSynthSpec, SynthSpec, generate, generate_paired, paired_features
from ordsoft import trainer
from ordsoft.trainer import (
    ProtocolSettings,
    SearchSpace,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    _STREAM_SHUFFLE,
    _Arena,
    _batch_gradients,
    _compact,
    _fit_lockstep,
    _layout,
    _views,
    init_model,
    predict_proba,
    random_search,
    run_fixed,
    run_paired_single,
    run_single,
    stratified_split,
    train,
    validation_split,
)


# the model's name in the ids of the fit tests, which run the one-hidden-layer MLP
MLP = "mlp_1_hidden"
_OPTIMIZER_IDS = [f"{optimizer}-{MLP}" for optimizer in ("adam", "sgd")]


def _labels_from_marginals(marginals):
    return np.repeat(np.arange(len(marginals)), marginals)


# ------------------------------------------------------------------- split


def test_split_reproduces_published_five_class_marginals():
    labels = _labels_from_marginals([146, 310, 207, 195, 112])
    train_idx, test_idx = stratified_split(labels, 0.7, seed=0)
    train_counts = [int((labels[train_idx] == k).sum()) for k in range(5)]
    assert train_counts == [102, 217, 145, 137, 78]
    assert len(train_idx) == 679
    assert len(test_idx) == 291


def test_split_reproduces_published_four_class_marginals():
    labels = _labels_from_marginals([816, 372, 480, 502])
    train_idx, test_idx = stratified_split(labels, 0.7, seed=5)
    train_counts = [int((labels[train_idx] == k).sum()) for k in range(4)]
    assert train_counts == [571, 260, 336, 352]
    assert len(train_idx) == 1519
    assert len(test_idx) == 651


def test_split_rejects_boundary_fractions():
    labels = _labels_from_marginals([5, 5])
    for fraction in (0.0, 1.0, 1.2):
        with pytest.raises(ValueError):
            stratified_split(labels, fraction, seed=0)


def test_split_rejects_tiny_classes():
    with pytest.raises(ValueError):
        stratified_split(np.array([0, 0, 1]), 0.7, seed=0)


def test_split_deterministic_and_disjoint():
    rng = np.random.default_rng(211)
    labels = rng.integers(0, 4, size=200)
    a_train, a_test = stratified_split(labels, 0.7, seed=42)
    b_train, b_test = stratified_split(labels, 0.7, seed=42)
    np.testing.assert_array_equal(a_train, b_train)
    np.testing.assert_array_equal(a_test, b_test)
    assert set(a_train).isdisjoint(a_test)
    assert len(a_train) + len(a_test) == 200
    c_train, _ = stratified_split(labels, 0.7, seed=43)
    assert not np.array_equal(a_train, c_train)


def test_split_per_class_proportions_within_one_sample():
    rng = np.random.default_rng(223)
    for _ in range(50):
        j = int(rng.integers(2, 6))
        marginals = rng.integers(5, 60, size=j)
        labels = _labels_from_marginals(marginals)
        fraction = float(rng.uniform(0.3, 0.9))
        train_idx, _ = stratified_split(labels, fraction, seed=int(rng.integers(1000)))
        for k in range(j):
            got = (labels[train_idx] == k).sum()
            assert abs(got - marginals[k] * fraction) < 1.0 + 1e-9


# ------------------------------------------------------------------- train


def _small_dataset(seed=31, n_classes=3, n_per_class=30, **kw):
    spec = SynthSpec(n_classes=n_classes, n_per_class=n_per_class, seed=seed, **kw)
    return generate(spec), LabelSpace(n_classes)


def test_training_loss_decreases_on_separable_data():
    data, space = _small_dataset(noise_sd=0.05, class_separation=1.0)
    config = TrainConfig(
        0.5, "nominal", SmoothingParams(), seed=1, batch_size=10_000,
        max_epochs=2000, patience=2000, optimizer="sgd",
    )
    model = init_model(data.n_features, space.n_classes, seed=1, hidden_width=8)
    model, history = train(model, data, config, data)
    losses = history.train_loss
    # full-batch plain gradient descent at this step descends monotonically, though
    # the MLP's loss is not convex
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.05


def test_early_stopping_patience_one_constant_loss():
    # zero features with uniform targets sit at an exact stationary point, so
    # the validation loss is constant from epoch 1 on
    space = LabelSpace(3)
    flat = SampleSet(np.zeros((12, 4)), np.array([0, 1, 2] * 4))
    config = TrainConfig(
        0.1, "nominal_smoothed", SmoothingParams(eta=1.0),
        seed=2, batch_size=16, max_epochs=50, patience=1,
    )
    model = init_model(4, space.n_classes, seed=2, hidden_width=8)
    _, history = train(model, flat, config, flat)
    assert history.stopped_epoch == 2
    assert history.best_epoch == 1
    assert history.val_loss[0] == history.val_loss[1]


def test_early_stopping_restores_best_epoch_weights():
    data, space = _small_dataset(noise_sd=0.8)
    val = generate(SynthSpec(n_classes=3, n_per_class=20, noise_sd=0.8, seed=99))
    targets = build_target_matrix(space, "triangular", SmoothingParams(eta=0.8, alpha=0.05))
    config = TrainConfig(
        0.05, "triangular", SmoothingParams(eta=0.8, alpha=0.05),
        seed=3, batch_size=8, max_epochs=40, patience=10,
    )
    model = init_model(data.n_features, space.n_classes, seed=3, hidden_width=16)
    model, history = train(model, data, config, val)
    final_val = mean_soft_ce(predict_proba(model, val.features), targets.rows[val.labels])
    assert final_val == min(history.val_loss)


def test_identical_seeds_give_identical_weights():
    data, space = _small_dataset()
    config = TrainConfig(
        0.01, "binomial", SmoothingParams(eta=0.8), seed=7, batch_size=8, max_epochs=15, patience=15
    )
    runs = []
    for _ in range(2):
        model = init_model(data.n_features, space.n_classes, seed=7, hidden_width=8)
        model, _ = train(model, data, config, data)
        runs.append(model)
    for key in runs[0]:
        np.testing.assert_array_equal(runs[0][key], runs[1][key])


def test_divergence_raises():
    data, space = _small_dataset()
    # drive the weights past float range so the loss turns non-finite
    big = SampleSet(data.features * 1e4, data.labels)
    config = TrainConfig(
        1e300, "nominal", SmoothingParams(), seed=4, batch_size=8,
        max_epochs=10, patience=10, optimizer="sgd",
    )
    model = init_model(big.n_features, space.n_classes, seed=4, hidden_width=8)
    with pytest.raises(TrainingDiverged):
        train(model, big, config, big)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(-1.0, "nominal", SmoothingParams(), seed=0)
    with pytest.raises(ValueError):
        TrainConfig(0.1, "nominal", SmoothingParams(), seed=0, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(0.1, "nominal", SmoothingParams(), seed=0, patience=200, max_epochs=100)


@pytest.mark.parametrize("strategy, params, message", [
    ("ordinal", SmoothingParams(), "unknown strategy 'ordinal'; expected one of"),
    ("triangular", SmoothingParams(eta=0.8), "triangular strategy requires alpha$"),
    ("beta", SmoothingParams(alpha=0.05, concentration=10.0),
     "beta strategy does not read alpha, given 0.05$"),
    ("nominal", SmoothingParams(eta=0.5), "nominal strategy does not read eta, given 0.5$"),
    (["a"], SmoothingParams(), r"strategy must be a string, got \['a'\]$"),
])
def test_train_config_rejects_a_strategy_fault_with_the_cli_message(strategy, params, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        TrainConfig(0.1, strategy, params)


def test_train_config_accepts_every_config_of_every_search_grid():
    space = SearchSpace()
    for strategy in STRATEGIES:
        for lr, params in space.grid(strategy):
            assert TrainConfig(lr, strategy, params).params == params
    # a field that the strategy does not read is accepted at its default
    assert TrainConfig(0.1, "nominal", SmoothingParams(eta=1.0)).params == SmoothingParams()


# ------------------------------------------------------------------- fit


def test_a_fit_builds_one_target_matrix_per_distinct_strategy_and_params(monkeypatch):
    data, space = _small_dataset(n_classes=4)
    subtrain, val = validation_split(data, 1, ProtocolSettings())
    pairs = [("binomial", SmoothingParams(eta=0.8)), ("nominal", SmoothingParams()),
             ("binomial", SmoothingParams(eta=0.8)), ("binomial", SmoothingParams(eta=1.0)),
             ("nominal", SmoothingParams())]
    configs = [TrainConfig(lr, strategy, params, seed=1, max_epochs=2, patience=2)
               for lr, (strategy, params) in zip((1e-3, 1e-2, 0.1, 1e-3, 0.3), pairs)]
    built = []
    build = trainer.build_target_matrix

    def spy(space, strategy, params=None):
        built.append((space.n_classes, strategy, params))
        return build(space, strategy, params)

    monkeypatch.setattr(trainer, "build_target_matrix", spy)
    init = init_model(data.n_features, space.n_classes, seed=1, hidden_width=4)
    _fit_lockstep(init, subtrain, val, configs)
    # in first-use order, over the grades of the initial weights
    assert built == [(4, *pairs[0]), (4, *pairs[1]), (4, *pairs[3])]


# a value of each field that a lockstep fit's configs share, unlike the base config's
_SHARED = {"seed": 2, "batch_size": 8, "max_epochs": 3, "optimizer": "sgd"}


@pytest.mark.parametrize("field", _SHARED)
def test_lockstep_rejects_configs_that_disagree_on_a_shared_field(field):
    data, space = _small_dataset()
    base = TrainConfig(0.1, "nominal", SmoothingParams(), seed=1, batch_size=16,
                       max_epochs=4, patience=2)
    init = init_model(data.n_features, space.n_classes, seed=1, hidden_width=4)
    names = list(_SHARED)
    # the field alone, then with every field after it: the first is the one named
    for changed in ([field], names[names.index(field):]):
        other = dataclasses.replace(base, learning_rate=0.01, **{n: _SHARED[n] for n in changed})
        with pytest.raises(ValueError, match=f"^lockstep configs must share {field}$"):
            _fit_lockstep(init, data, data, [base, other])


def test_lockstep_members_stop_on_their_own_patience():
    data, space = _small_dataset()
    base = TrainConfig(0.1, "nominal", SmoothingParams(), seed=1, batch_size=16,
                       max_epochs=6, patience=1)
    configs = [base, dataclasses.replace(base, patience=6)]
    # zero features hold every member at a stationary point: the validation loss never improves
    flat = SampleSet(np.zeros((12, data.n_features)), np.array([0, 1, 2] * 4))
    init = init_model(data.n_features, space.n_classes, seed=1, hidden_width=4)
    short, long = _fit_lockstep(init, flat, flat, configs)
    assert (short.stopped_epoch, long.stopped_epoch) == (2, 6)


# ------------------------------------------------------------------ search


def test_search_grid_sizes_follow_published_table():
    space = SearchSpace()
    assert len(space.grid("nominal")) == 3
    assert len(space.grid("binomial")) == 6
    assert len(space.grid("triangular")) == 18  # 3 lr x 3 alpha x 2 eta
    assert len(space.grid("exponential")) == 18
    assert len(space.grid("beta")) == 12
    # a grid given as a JSON list is held as a tuple, like the defaults
    assert SearchSpace(learning_rates=[0.1, 0.01]) == SearchSpace(learning_rates=(0.1, 0.01))


def test_search_grid_is_the_learning_rate_major_cross_product():
    # unsorted grids, so the test pins the order the search draws indices from
    space = SearchSpace(learning_rates=(0.2, 0.1), etas=(1.0, 0.5), alphas=(0.2, 0.01),
                        ps=(1.0, 3.0, 2.0), concentrations=(7.0, 4.0))
    lrs, etas = space.learning_rates, space.etas
    expected = {
        "nominal": [(lr, SmoothingParams()) for lr in lrs],
        "nominal_smoothed": [(lr, SmoothingParams(eta=e)) for lr in lrs for e in etas],
        "triangular": [(lr, SmoothingParams(eta=e, alpha=a))
                       for lr in lrs for e in etas for a in space.alphas],
        "binomial": [(lr, SmoothingParams(eta=e)) for lr in lrs for e in etas],
        "beta": [(lr, SmoothingParams(eta=e, concentration=c))
                 for lr in lrs for e in etas for c in space.concentrations],
        "exponential": [(lr, SmoothingParams(eta=e, p=p))
                        for lr in lrs for e in etas for p in space.ps],
    }
    assert tuple(expected) == STRATEGIES
    for strategy, grid in expected.items():
        assert space.grid(strategy) == grid, strategy
    with pytest.raises(ValueError, match="unknown strategy 'ordinal'"):
        space.grid("ordinal")
    for strategy, name in (("triangular", "alpha"), ("beta", "concentration"), ("exponential", "p")):
        with pytest.raises(ValueError, match=f"^{strategy} strategy requires {name}$"):
            build_target_matrix(LabelSpace(5), strategy, SmoothingParams(eta=0.8))


def _spy_on_lockstep(monkeypatch):
    """The configs of each lockstep fit that runs."""
    fits = []
    fit = trainer._fit_lockstep

    def spy(init_weights, data, validation, configs):
        fits.append(list(configs))
        return fit(init_weights, data, validation, configs)

    monkeypatch.setattr(trainer, "_fit_lockstep", spy)
    return fits


def test_search_caps_sampled_configs_at_fifteen(monkeypatch):
    data, _ = _small_dataset(n_per_class=20)
    space = SearchSpace(max_configs=15)
    settings = ProtocolSettings(max_epochs=3, patience=3, hidden_width=4)
    fits = _spy_on_lockstep(monkeypatch)
    random_search(space, data, ["triangular"], seed=0, label_space=LabelSpace(3),
                  settings=settings)
    # 18 triangular candidates, 15 drawn without replacement
    assert len(space.grid("triangular")) == 18
    assert [len(configs) for configs in fits] == [15]
    assert len(set(fits[0])) == 15


def test_search_single_config_grid_returns_it(monkeypatch):
    data, _ = _small_dataset(n_per_class=20)
    space = SearchSpace(learning_rates=(1e-3,), max_configs=5)
    settings = ProtocolSettings(max_epochs=3, patience=3, hidden_width=4)
    fits = _spy_on_lockstep(monkeypatch)
    (outcome,) = random_search(space, data, ["nominal"], seed=1, label_space=LabelSpace(3),
                               settings=settings)
    assert outcome.config.learning_rate == 1e-3
    assert fits == [[outcome.config]]


def test_search_recovers_planted_best_config():
    # a vanishing learning rate cannot move the model; the workable rate must win
    data, space = _small_dataset(n_per_class=40, noise_sd=0.2, class_separation=2.0)
    grid = SearchSpace(learning_rates=(1e-12, 0.3), max_configs=2)
    settings = ProtocolSettings(max_epochs=30, patience=30, hidden_width=8)
    (outcome,) = random_search(grid, data, ["nominal"], seed=3, label_space=space, settings=settings)
    assert outcome.config.learning_rate == 0.3


def test_search_returns_the_model_it_trained_for_the_winner():
    data, space = _small_dataset(n_per_class=20)
    settings = ProtocolSettings(max_epochs=5, patience=5, hidden_width=4)
    (outcome,) = random_search(SearchSpace(max_configs=4), data, ["exponential"], seed=2,
                               label_space=space, settings=settings)
    subtrain, val = validation_split(data, 2, settings)
    init = init_model(data.n_features, space.n_classes, 2, settings.hidden_width)
    refit, history = train(init, subtrain, outcome.config, val)
    for key, weights in refit.items():
        np.testing.assert_array_equal(outcome.best_weights[key], weights)
    # the validation scores are the metrics' own, read off one pass
    preds = PredictionSet(val.labels, predict_proba(refit, val.features))
    confusion = build_confusion(preds, space)
    assert (outcome.val_amae, outcome.val_mae) == (amae(confusion), mae(confusion))
    # the same record, bar the validation scores that only the search takes
    assert (history.val_amae, history.val_mae) == (None, None)
    assert outcome.val_amae is not None and outcome.val_mae is not None
    history.val_amae, history.val_mae = outcome.val_amae, outcome.val_mae
    assert outcome == history


def test_search_raises_when_every_candidate_diverges():
    data, space = _small_dataset()
    big = SampleSet(data.features * 1e4, data.labels)
    grid = SearchSpace(learning_rates=(1e300,), etas=(0.8, 1.0), max_configs=2)
    settings = ProtocolSettings(batch_size=8, max_epochs=10, patience=10, hidden_width=8,
                                optimizer="sgd")
    with pytest.raises(TrainingDiverged, match="strategy=binomial, seed=4"):
        random_search(grid, big, ["binomial"], seed=4, label_space=space, settings=settings)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"], ids=lambda optimizer: f"{MLP}-{optimizer}")
def test_search_over_strategies_returns_each_strategys_lone_search(optimizer):
    data, space = _small_dataset(n_classes=4, n_per_class=25, noise_sd=0.6, adjacent_flip_prob=0.2)
    settings = ProtocolSettings(batch_size=16, max_epochs=8, patience=3, optimizer=optimizer,
                                hidden_width=8)
    # a short last batch, so the fit's second set of work arrays runs too
    subtrain, _ = validation_split(data, 7, settings)
    assert subtrain.n_samples % settings.batch_size != 0
    grid = SearchSpace(learning_rates=(1e-3, 0.1, 1.0), max_configs=8)
    strategies = ["nominal", "binomial", "beta", "triangular", "exponential"]
    # beta listed twice is searched once
    outcomes = random_search(grid, data, strategies + ["beta"], seed=7, label_space=space,
                             settings=settings)
    assert [o.config.strategy for o in outcomes] == strategies + ["beta"]
    assert outcomes[-1] is outcomes[2]
    for strategy, outcome in zip(strategies, outcomes):
        (lone,) = random_search(grid, data, [strategy], seed=7, label_space=space,
                                settings=settings)
        # config, losses, best epoch, and validation AMAE and MAE
        assert outcome == lone
        for key, weights in lone.best_weights.items():
            np.testing.assert_array_equal(outcome.best_weights[key], weights)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"], ids=_OPTIMIZER_IDS)
def test_lockstep_members_match_lone_fits(optimizer):
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    settings = ProtocolSettings(batch_size=16, max_epochs=30, patience=4, optimizer=optimizer,
                                hidden_width=8)
    subtrain, val = validation_split(data, 6, settings)
    # 11 members of two strategies validate in a block of 8 and a short one of 3;
    # lr 1e308 diverges; the others stop early at different epochs or run to max_epochs
    candidates = [("triangular", lr, SmoothingParams(eta=eta, alpha=0.05))
                  for lr in (1e-3, 0.1, 2.0, 1e308) for eta in (0.8, 1.0)]
    candidates += [("binomial", lr, SmoothingParams(eta=0.8)) for lr in (1e-3, 0.1, 2.0)]
    configs = [
        TrainConfig(lr, strategy, params, seed=6, batch_size=16, max_epochs=30, patience=4,
                    optimizer=optimizer)
        for strategy, lr, params in candidates
    ]
    assert len(configs) > trainer._VAL_BLOCK
    # a short last batch; a lone fit's validation pass (V rows) outruns its batch (16 rows),
    # so its arena is sized by validation and each batch runs on a prefix of it
    assert subtrain.n_samples % 16 != 0 and val.n_samples > 16
    init = init_model(data.n_features, space.n_classes, seed=6, hidden_width=8)
    members = _fit_lockstep(init, subtrain, val, configs)

    stopped = set()
    for config, member in zip(configs, members):
        lone = init_model(data.n_features, space.n_classes, seed=6, hidden_width=8)
        if config.learning_rate == 1e308:
            assert isinstance(member.diverged, TrainingDiverged)
            with pytest.raises(TrainingDiverged):
                train(lone, subtrain, config, val)
            continue
        # a diverged member shared the stack with these, so equality shows it touched none
        lone, history = train(lone, subtrain, config, val)
        assert member.diverged is None
        assert member == history
        for key, weights in lone.items():
            np.testing.assert_array_equal(member.best_weights[key], weights)
        stopped.add(history.stopped_epoch)
    assert len(stopped) >= 2


def test_lockstep_rejects_labels_past_the_target_grades():
    data, space = _small_dataset(n_classes=4)
    config = TrainConfig(0.1, "nominal", SmoothingParams(), seed=0, max_epochs=2, patience=2)
    init = init_model(data.n_features, 3, seed=0, hidden_width=4)
    # the per-batch target gather clips, so it would quietly read grade 2's row for grade 3
    with pytest.raises(ValueError, match="below 3 grades"):
        _fit_lockstep(init, data, data, [config])
    # so does validation's: training labels in range do not let a validation label past
    init = init_model(data.n_features, 4, seed=0, hidden_width=4)
    past = SampleSet(data.features[:3], np.array([0, 4, 1]))
    with pytest.raises(ValueError, match="below 4 grades"):
        _fit_lockstep(init, data, past, [config])


@pytest.mark.parametrize("n_members", [1, 3, 6, 9, 19])
def test_lockstep_validates_every_member_in_blocks_of_eight(monkeypatch, n_members):
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    subtrain, val = validation_split(data, 5, ProtocolSettings())
    # patience 2 stops some members early while others run on to max_epochs
    learning_rates = (1e-3, 0.3, 3.0, 1e-2, 0.1, 1.0) + tuple(np.geomspace(2e-3, 2.0, 13))
    configs = [
        TrainConfig(lr, "nominal", SmoothingParams(), seed=5, batch_size=16,
                    max_epochs=12, patience=2)
        for lr in learning_rates[:n_members]
    ]
    init = init_model(data.n_features, space.n_classes, seed=5, hidden_width=8)
    passes = []
    mean_soft_ce = trainer._mean_soft_ce

    def spy(weights, x, work):
        # every validation row of each member of the block, in one pass
        assert work.targets.shape[1] == len(x) == val.n_samples
        passes.append(work.targets.shape[0])
        return mean_soft_ce(weights, x, work)

    monkeypatch.setattr(trainer, "_mean_soft_ce", spy)
    members = _fit_lockstep(init, subtrain, val, configs)

    epochs = [member.stopped_epoch for member in members]
    alive = [sum(e >= epoch for e in epochs) for epoch in range(1, max(epochs) + 1)]
    block = trainer._VAL_BLOCK
    assert block == 8
    # each epoch validates the members still training in ceil(alive / 8) passes,
    # blocks of 8 in stack order and then the rest
    assert len(passes) == sum(math.ceil(n / block) for n in alive)
    assert passes == [min(block, n - lo) for n in alive for lo in range(0, n, block)]


def _ones(a):
    """A new array of ``a`` with a ones column appended to its last axis."""
    return np.concatenate([a, np.ones(a.shape[:-1] + (1,))], axis=-1)


def _reference_epochs(init_weights, data, val, target, config, n_epochs):
    """Each epoch's weights, train loss and val loss of a lone fit with per-block
    dict-of-arrays SGD/Adam: the forward/backward, update and losses written one
    block at a time with ``loss.softmax`` and ``loss.mean_soft_ce``, allocating as
    they go. Each block is a weight matrix over its bias row and reads its input
    with a ones column appended, so its bias gradient is its gradient product's
    last row."""
    weights = {k: w[None].copy() for k, w in init_weights.items()}
    m = {k: np.zeros_like(w) for k, w in weights.items()}
    v = {k: np.zeros_like(w) for k, w in weights.items()}
    lr, steps, epochs = config.learning_rate, 0, []
    rng = np.random.default_rng([config.seed, _STREAM_SHUFFLE])
    t_all = target.rows[data.labels][None]

    def forward(x):
        hidden = np.maximum(_ones(x) @ weights["w_in"], 0.0)
        return hidden, softmax(_ones(hidden) @ weights["w_out"])

    for _ in range(n_epochs):
        perm = rng.permutation(data.n_samples)
        batch_losses = []
        for start in range(0, data.n_samples, config.batch_size):
            idx = perm[start:start + config.batch_size]
            x, t = data.features[idx], t_all[:, idx]
            hidden, probs = forward(x)
            batch_losses.append(mean_soft_ce(probs, t))
            d_logits = (probs - t) / x.shape[0]
            # the bias row has no input to pass a gradient back to; the product
            # takes the fit's form: an NN gemm on a contiguous transposed copy for
            # two or more rows, the strided (NT) transpose for one, where numpy
            # takes gemv. At hidden width 2, 3, 4 or 12 with 16 or more grades
            # the two forms round apart at every batch size
            w_out_t = weights["w_out"][:, :-1].swapaxes(-1, -2)
            if len(idx) > 1:
                w_out_t = np.ascontiguousarray(w_out_t)
            d_hidden = d_logits @ w_out_t
            d_hidden *= hidden > 0.0
            # and the fit's operand: its d_hidden rows are H+1 apart, the last slot
            # under the hidden ones column, and at hidden width 1 a product over
            # 2 or 3 rows rounds by that stride
            grads = {"w_in": _ones(x).T @ _ones(d_hidden)[..., :-1],
                     "w_out": _ones(hidden).swapaxes(-1, -2) @ d_logits}
            if config.optimizer == "sgd":
                for key, grad in grads.items():
                    weights[key] -= lr * grad
                continue
            steps += 1
            for key, grad in grads.items():
                m[key] = 0.9 * m[key] + 0.1 * grad
                v[key] = 0.999 * v[key] + 0.001 * grad**2
                m_hat = m[key] / (1.0 - 0.9**steps)
                v_hat = v[key] / (1.0 - 0.999**steps)
                weights[key] -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        val_loss = mean_soft_ce(forward(val.features)[1][0], target.rows[val.labels])
        epochs.append(({k: w[0].copy() for k, w in weights.items()},
                       float(np.mean(batch_losses)), val_loss))
    return epochs


def _spy_on_record(monkeypatch):
    """Record, per member, its blocks at each epoch: a copy of each, and the live
    stacked block views of the fit's buffer it was validated on. An epoch
    validates its members in stack order and then books them in that order, so
    the n-th member booked is the n-th row validated."""
    seen, validated = {}, []
    record, mean_soft_ce = TrainHistory.record, trainer._mean_soft_ce

    def spy_validation(weights, x, work):
        for row in range(len(weights["w_out"])):
            validated.append(({key: w[row].copy() for key, w in weights.items()}, weights))
        return mean_soft_ce(weights, x, work)

    def spy(self, epoch, train_loss, val_loss):
        seen.setdefault(id(self), []).append(validated.pop(0))
        return record(self, epoch, train_loss, val_loss)

    monkeypatch.setattr(trainer, "_mean_soft_ce", spy_validation)
    monkeypatch.setattr(TrainHistory, "record", spy)
    return seen


def _assert_fit_is_the_reference(monkeypatch, init, subtrain, val, configs):
    """Fit ``configs`` from ``init``: every epoch's weights and losses of each member
    equal ``_reference_epochs``' to the bit. The members and their epoch counts."""
    seen = _spy_on_record(monkeypatch)
    members = _fit_lockstep(init, subtrain, val, configs)
    space = LabelSpace(init["w_out"].shape[1])
    epochs_run = [len(seen[id(member)]) for member in members]
    for config, member, n_epochs in zip(configs, members, epochs_run):
        target = build_target_matrix(space, config.strategy, config.params)
        reference = _reference_epochs(init, subtrain, val, target, config, n_epochs)
        for (got, _), (expected, _, _) in zip(seen[id(member)], reference):
            assert got.keys() == expected.keys()
            for key, weights in expected.items():
                np.testing.assert_array_equal(got[key], weights)
        # early stopping reads these, so they must be the reference's to the bit
        assert member.diverged is None
        assert member.train_loss == [r[1] for r in reference]
        assert member.val_loss == [r[2] for r in reference]
    return members, epochs_run


def _check_fit_against_reference(monkeypatch, optimizer, n_members):
    """Every epoch's weights and losses of each member of an ``n_members`` fit equal
    ``_reference_epochs``' to the bit."""
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    settings = ProtocolSettings(batch_size=16, max_epochs=60, patience=3, optimizer=optimizer,
                                hidden_width=8)
    subtrain, val = validation_split(data, 2, settings)
    # a short last batch, so the fit's second set of work arrays runs too
    assert subtrain.n_samples % settings.batch_size != 0
    n_batches = math.ceil(subtrain.n_samples / settings.batch_size)
    # (learning rate, eta, patience): the first member never stops early, so it runs
    # past Adam's step 356, from which the first moment's bias correction is 1.0;
    # the others stop at staggered epochs
    candidates = [(1e-3, 0.8, 60)] + [(lr, eta, 3) for lr in (1e-3, 0.1, 2.0) for eta in (0.8, 1.0)]
    candidates += [(0.03, 0.9, 5), (0.3, 0.9, 4), (1.0, 1.0, 6), (3e-3, 1.0, 8)]
    configs = [
        TrainConfig(lr, "triangular", SmoothingParams(eta=eta, alpha=0.05), seed=2,
                    batch_size=16, max_epochs=60, patience=patience, optimizer=optimizer)
        for lr, eta, patience in candidates
    ][:n_members]
    init = init_model(data.n_features, space.n_classes, seed=2, hidden_width=8)
    members, epochs_run = _assert_fit_is_the_reference(monkeypatch, init, subtrain, val, configs)
    assert epochs_run[0] * n_batches > 356
    if n_members > 1:
        # members left the stack at different epochs while others trained on
        assert len(set(epochs_run)) >= 3 and max(epochs_run) > min(epochs_run)
    return subtrain, val, members


# per grade count and last-batch size, class sizes whose validation split leaves
# 16k + that many training rows (20 equal classes leave an even count)
_TAIL_CLASS_SIZES = {
    (2, 1): 35, (4, 1): 29, (5, 1): 14, (9, 1): 18, (20, 1): (9,) + (8,) * 19,
    (2, 2): 36, (4, 2): 18, (5, 2): 28, (9, 2): 13, (20, 2): 7,
}


@pytest.mark.parametrize("hidden_width, n_classes, tail", [
    # the 1-row cases keep the ids they had before the 2-row ones were added
    pytest.param(hidden_width, n_classes, tail,
                 id=f"{MLP}-{hidden_width}-{n_classes}" + ("-tail2" if tail == 2 else ""))
    for tail in (1, 2)
    for hidden_width in (1, 4, 16, 32)
    for n_classes in (2, 4, 5, 9, 20)
])
def test_folded_fit_matches_the_reference_on_every_shape(
    monkeypatch, hidden_width, n_classes, tail
):
    """A product's rounding depends on its shapes, so the folded blocks are held to
    the folded reference over hidden widths and grade counts, with a last batch
    of one row, where numpy's matmul takes its matrix-vector path, or of two. At
    hidden width 4 and 20 grades the backward pass's NN and NT products round
    apart, so the reference pins which one each batch size takes."""
    data, space = _small_dataset(n_classes=n_classes,
                                 n_per_class=_TAIL_CLASS_SIZES[n_classes, tail],
                                 noise_sd=0.6, adjacent_flip_prob=0.2)
    settings = ProtocolSettings(batch_size=16)
    subtrain, val = validation_split(data, 8, settings)
    assert subtrain.n_samples % settings.batch_size == tail
    configs = [
        TrainConfig(lr, "triangular", SmoothingParams(eta=0.8, alpha=0.05), seed=8,
                    batch_size=16, max_epochs=12, patience=patience)
        for lr, patience in ((1e-3, 12), (0.1, 3), (1.0, 2))
    ]
    init = init_model(data.n_features, n_classes, seed=8, hidden_width=hidden_width)
    members, _ = _assert_fit_is_the_reference(monkeypatch, init, subtrain, val, configs)
    # and each member is its lone fit, whose work arrays are laid out for one member
    for config, member in zip(configs, members):
        (lone,) = _fit_lockstep(init, subtrain, val, [config])
        assert lone == member
        for key, weights in lone.best_weights.items():
            assert member.best_weights[key].tobytes() == weights.tobytes()


@pytest.mark.parametrize("optimizer", ["adam", "sgd"], ids=_OPTIMIZER_IDS)
def test_flat_update_matches_per_layer_reference_every_epoch(monkeypatch, optimizer):
    # 11 members validate in a block of 8 and a tail block of 3
    _check_fit_against_reference(monkeypatch, optimizer, n_members=11)
    assert 11 > trainer._VAL_BLOCK


@pytest.mark.parametrize("optimizer", ["adam", "sgd"], ids=_OPTIMIZER_IDS)
def test_lone_fit_on_an_arena_sized_by_validation_matches_the_reference(monkeypatch, optimizer):
    subtrain, val, (member,) = _check_fit_against_reference(monkeypatch, optimizer, n_members=1)
    # the validation pass (V rows) outruns a batch (16 rows), so it sizes the arena
    # and every batch, the short last one too, runs on a prefix of its buffers
    assert val.n_samples > 16 and subtrain.n_samples % 16 != 0
    assert member.stopped_epoch > 1


def _spy_on_arenas(monkeypatch):
    """The ``_Arena`` of each fit run after this call, in order."""
    arenas = []

    class SpyArena(trainer._Arena):
        def __init__(self, *args):
            super().__init__(*args)
            arenas.append(self)

    monkeypatch.setattr(trainer, "_Arena", SpyArena)
    return arenas


@pytest.mark.parametrize("optimizer", ["adam", "sgd"], ids=_OPTIMIZER_IDS)
def test_one_arena_per_fit_and_members_leave_the_stack_in_place(monkeypatch, optimizer):
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    subtrain, val = validation_split(data, 5, ProtocolSettings())
    # 11 members validate in blocks of 8 and 3; patience 2 stops some early
    configs = [
        TrainConfig(lr, "nominal", SmoothingParams(), seed=5, batch_size=16, max_epochs=12,
                    patience=2, optimizer=optimizer)
        for lr in np.geomspace(1e-3, 3.0, 11)
    ]
    init = init_model(data.n_features, space.n_classes, seed=5, hidden_width=8)
    arenas = _spy_on_arenas(monkeypatch)
    events = []  # each set built, and "exit" as members leave

    class SpyWork(trainer._Work):
        def __init__(self, arena, n_members, n_rows):
            super().__init__(arena, n_members, n_rows)
            events.append((arena, self, n_members, n_rows))

    monkeypatch.setattr(trainer, "_Work", SpyWork)
    removals = []  # per removal, the memory owner of each optimizer buffer before and after
    keep = trainer._Optimizer.keep

    def spy_keep(self, rows):
        names = ["lr"] + (["m", "v", "denom"] if self.kind == "adam" else [])
        before = [_owner(getattr(self, name)) for name in names]
        keep(self, rows)
        removals.append((before, [_owner(getattr(self, name)) for name in names]))
        events.append("exit")

    def live_sets(n_stack):
        """The sets a stack of ``n_stack`` members runs: its batches, full and
        short, and its validation blocks."""
        blocks = {(min(8, n_stack - lo), val.n_samples) for lo in range(0, n_stack, 8)}
        return {(n_stack, 16), (n_stack, subtrain.n_samples % 16)} | blocks

    batch_gradients = trainer._batch_gradients

    def spy_gradients(weights, grads, x, work):
        # after an exit the arena holds only sets of the stack that is training
        (arena,) = arenas
        assert set(arena.sets) <= live_sets(work.targets.shape[0])
        return batch_gradients(weights, grads, x, work)

    monkeypatch.setattr(trainer._Optimizer, "keep", spy_keep)
    monkeypatch.setattr(trainer, "_batch_gradients", spy_gradients)
    seen = _spy_on_record(monkeypatch)
    members = _fit_lockstep(init, subtrain, val, configs)

    (arena,) = arenas
    sets = [event for event in events if event != "exit"]
    built = [(n_members, n_rows) for _, _, n_members, n_rows in sets]
    # the full and short batch and both validation block sizes, then smaller stacks
    assert live_sets(11) <= set(built)
    assert any(n_members < 11 for n_members, _ in built)
    for owner, work, _, _ in sets:
        assert owner is arena
        # every set, batch or validation block, is prefix views of the arena's buffers;
        # only a batch writes the mask, so a set of more pairs than the largest batch has none
        assert (work.mask is None) == (math.prod(work.hidden.shape[:2]) > 11 * 16)
        roles = ["hidden", "w_out_t", "logits", "llik", "targets", "row_sum", "total"]
        for role in roles + ([] if work.mask is None else ["mask"]):
            assert np.shares_memory(getattr(work, role), getattr(arena, role)), role
    # each stack builds each of its sets once, on its first use
    stacks = [[]]
    for event in events:
        if event == "exit":
            stacks.append([])
        else:
            stacks[-1].append(event)
    for stack in stacks:
        keys = [(n_members, n_rows) for _, _, n_members, n_rows in stack]
        assert len(keys) == len(set(keys))
    # and the sets the fit keeps at its end are those its last stack ran
    epochs = [member.stopped_epoch for member in members]
    assert set(arena.sets) == live_sets(epochs.count(max(epochs)))

    # members left at staggered epochs; every member's parameters, at every epoch,
    # were a row of the one buffer the fit started with, and so were the optimizer's
    assert len({member.stopped_epoch for member in members}) >= 3 and removals
    buffers = {id(_owner(w)) for member in members for _, live in seen[id(member)]
               for w in live.values()}
    assert len(buffers) == 1
    for before, after in removals:
        assert all(b is a for b, a in zip(before, after))


@pytest.mark.parametrize("sizes", [[256, 32, 160, 5], [1, 7, 2, 9], [5] * 5])
def test_compact_keeps_each_roles_rows_as_a_role_major_prefix(sizes):
    """Against a fancy-index gather per role: every subset of a stack of 6 members,
    with roles larger than the roles before them, so that a run's source and
    destination overlap."""
    n_members = 6
    flat0 = np.arange(n_members * sum(sizes), dtype=float)
    bounds = np.cumsum([0] + [n_members * size for size in sizes])
    for n_kept in range(1, n_members + 1):
        for rows in itertools.combinations(range(n_members), n_kept):
            expected = np.concatenate([
                flat0[lo:hi].reshape(n_members, size)[list(rows)].ravel()
                for lo, hi, size in zip(bounds, bounds[1:], sizes)
            ])
            flat = flat0.copy()
            kept = _compact(flat, sizes, n_members, list(rows))
            assert np.shares_memory(kept, flat) and kept.base is flat
            np.testing.assert_array_equal(kept, expected)


def _owner(array):
    """The array that owns the memory ``array`` views."""
    return array if array.base is None else array.base


@pytest.mark.parametrize("hidden_width", [
    pytest.param(16, id=MLP), pytest.param(1, id=f"{MLP}-width1"),
    pytest.param(32, id=f"{MLP}-width32"),
])
@pytest.mark.parametrize("n_classes", [2, 4, 5, 9])
@pytest.mark.parametrize("spread", [1e3, 10.0])
def test_predict_proba_is_the_reference_softmax(hidden_width, n_classes, spread):
    rng = np.random.default_rng(n_classes)
    model = init_model(8, n_classes, seed=4, hidden_width=hidden_width)
    # random bias rows too
    weights = {k: w + rng.normal(size=w.shape) for k, w in model.items()}
    # a row count unlike any batch size
    x = rng.normal(size=(37, 8))

    def reference_logits():
        hidden = np.maximum(_ones(x) @ weights["w_in"], 0.0)
        return _ones(hidden) @ weights["w_out"]

    # scale the output block so the logits spread over ``spread``: at 1e3 most
    # probabilities underflow, at 10 every grade adds to each row's sum
    weights["w_out"] = weights["w_out"] * (spread / np.ptp(reference_logits()))
    logits = reference_logits()
    assert np.ptp(logits) == pytest.approx(spread)
    probs = predict_proba(weights, x)
    assert probs.tobytes() == softmax(logits).tobytes()


@pytest.mark.parametrize("hidden_width", [8], ids=[MLP])
def test_predict_proba_is_the_fits_validation_at_each_members_best_epoch(
    monkeypatch, hidden_width
):
    """``random_search`` scores each candidate on ``predict_proba`` of its best
    weights over the validation rows: those are, bit for bit, the probabilities
    the fit's validation pass computed at the member's best epoch, in a block of
    the stack that epoch ran."""
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    subtrain, val = validation_split(data, 5, ProtocolSettings())
    # 11 members validate in blocks of 8 and 3; patience 2 stops some early
    configs = [
        TrainConfig(lr, "nominal", SmoothingParams(), seed=5, batch_size=16, max_epochs=12,
                    patience=2)
        for lr in np.geomspace(1e-3, 3.0, 11)
    ]
    init = init_model(data.n_features, space.n_classes, seed=5, hidden_width=hidden_width)
    probs, validated = {}, []
    mean_soft_ce, record = trainer._mean_soft_ce, TrainHistory.record

    def spy_validation(weights, x, work):
        out = mean_soft_ce(weights, x, work)
        # the softmax leaves each member's probabilities in its block of the logits
        validated.extend(block.copy() for block in work.logits)
        return out

    def spy_record(self, epoch, train_loss, val_loss):
        probs.setdefault(id(self), []).append(validated.pop(0))
        return record(self, epoch, train_loss, val_loss)

    monkeypatch.setattr(trainer, "_mean_soft_ce", spy_validation)
    monkeypatch.setattr(TrainHistory, "record", spy_record)
    members = _fit_lockstep(init, subtrain, val, configs)

    assert len({member.stopped_epoch for member in members}) >= 3
    for member in members:
        expected = probs[id(member)][member.best_epoch - 1]
        assert predict_proba(member.best_weights, val.features).tobytes() == expected.tobytes()


@pytest.mark.parametrize("hidden_width", [7], ids=[MLP])
def test_init_model_draws_each_blocks_weights_over_a_zero_bias_row(hidden_width):
    # the blocks' weight rows are the draws a model of separate biases made, in order
    n_features, n_classes, seed = 6, 4, 11
    rng = np.random.default_rng([seed, trainer._STREAM_INIT])
    fans = [(n_features, hidden_width), (hidden_width, n_classes)]
    draws = [rng.uniform(-1 / math.sqrt(i), 1 / math.sqrt(i), size=(i, o)) for i, o in fans]
    model = init_model(n_features, n_classes, seed, hidden_width)
    assert list(model) == ["w_in", "w_out"]
    for block, draw in zip(model.values(), draws):
        assert block.shape == (draw.shape[0] + 1, draw.shape[1])
        assert block[:-1].tobytes() == draw.tobytes()
        assert block[-1].tobytes() == np.zeros(draw.shape[1]).tobytes()


def test_the_hidden_ones_column_holds_after_every_pass_shape(monkeypatch):
    """Every pass shape that shares the fit's arena's ``hidden`` buffer, a full and
    a short batch, whose backward pass writes the hidden gradient over it, and a
    full and a short validation block, leaves each (member, row)'s ones column,
    which the output block's bias row reads, at 1.0. Inference builds no arena."""
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    subtrain, val = validation_split(data, 5, ProtocolSettings())
    configs = [TrainConfig(lr, "nominal", SmoothingParams(), seed=5, batch_size=16,
                           max_epochs=4, patience=4) for lr in np.geomspace(1e-3, 1.0, 11)]
    init = init_model(data.n_features, space.n_classes, seed=5, hidden_width=8)
    arenas, passes = _spy_on_arenas(monkeypatch), []

    def checked(name, fn):
        def spy(*args):
            out = fn(*args)
            work = args[-1]
            passes.append((name, work.hidden.shape[:2]))
            # the pass's own rows, and every row of the arena's buffers
            assert (work.hidden[..., -1] == 1.0).all()
            assert (arenas[-1].hidden[8::9] == 1.0).all()
            return out
        return spy

    monkeypatch.setattr(trainer, "_batch_gradients",
                        checked("batch", trainer._batch_gradients))
    monkeypatch.setattr(trainer, "_mean_soft_ce", checked("validation", trainer._mean_soft_ce))
    monkeypatch.setattr(trainer, "_forward", checked("forward", trainer._forward))
    (member, *_) = _fit_lockstep(init, subtrain, val, configs)
    tail = subtrain.n_samples % 16
    shapes = {("batch", (11, 16)), ("batch", (11, tail)), ("validation", (8, val.n_samples)),
              ("validation", (3, val.n_samples))}
    assert tail and shapes <= set(passes)
    passes.clear()
    predict_proba(member.best_weights, data.features)
    assert passes == [] and len(arenas) == 1


def test_each_members_work_arrays_are_one_contiguous_block_in_every_pass(monkeypatch):
    """The work arrays are member-major: in a full batch, the short last batch and
    a validation block, each member's ``hidden``, ``logits`` and ``llik`` are one
    C-contiguous block, and the arena keeps no second copy of the loss terms."""
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    subtrain, val = validation_split(data, 5, ProtocolSettings())
    configs = [TrainConfig(lr, "nominal", SmoothingParams(), seed=5, batch_size=16,
                           max_epochs=2, patience=2) for lr in np.geomspace(1e-3, 1.0, 11)]
    init = init_model(data.n_features, space.n_classes, seed=5, hidden_width=8)
    arenas, passes = _spy_on_arenas(monkeypatch), set()

    def checked(name, fn):
        def spy(*args):
            work = args[-1]
            passes.add((name, work.hidden.shape[:2]))
            for role in ("hidden", "logits", "llik"):
                blocks = getattr(work, role)
                assert len(blocks) == len(work.total)
                assert all(block.flags.c_contiguous for block in blocks), (name, role)
            return fn(*args)
        return spy

    monkeypatch.setattr(trainer, "_batch_gradients",
                        checked("batch", trainer._batch_gradients))
    monkeypatch.setattr(trainer, "_mean_soft_ce", checked("validation", trainer._mean_soft_ce))
    _fit_lockstep(init, subtrain, val, configs)
    tail = subtrain.n_samples % 16
    assert tail and passes >= {("batch", (11, 16)), ("batch", (11, tail)),
                               ("validation", (8, val.n_samples))}
    (arena,) = arenas
    assert not hasattr(arena, "member_llik")


def test_the_mask_is_sized_for_the_largest_batch_where_validation_is_the_largest_pass(
    monkeypatch
):
    """Only a batch writes the ReLU mask, so the arena holds it for the largest
    batch, K x batch_size (member, row) pairs, while its other roles hold the
    largest pass: at K=15 with 204 validation rows, a validation block of 8
    members runs 1632 pairs and a batch 480. A validation set of more pairs than
    a batch has no mask, and the fit is still the reference's to the bit."""
    settings = ProtocolSettings()
    dataset = generate(SynthSpec(n_classes=5, n_per_class=194, adjacent_flip_prob=0.1, seed=1))
    train_idx, _ = stratified_split(dataset.labels, settings.train_fraction, 0)
    subtrain, val = validation_split(dataset.subset(train_idx), 0, settings)
    assert val.n_samples == 204 and settings.batch_size == 32
    configs = [TrainConfig(lr, "triangular", SmoothingParams(eta=0.8, alpha=0.05), seed=0,
                           max_epochs=2, patience=2) for lr in np.geomspace(1e-4, 1e-2, 15)]
    init = init_model(dataset.n_features, 5, seed=0, hidden_width=32)
    arenas = _spy_on_arenas(monkeypatch)
    _assert_fit_is_the_reference(monkeypatch, init, subtrain, val, configs)
    (arena,) = arenas
    assert arena.mask.size == 15 * 32 * 33
    assert arena.hidden.size == 8 * 204 * 33
    assert {key for key, work in arena.sets.items() if work.mask is None} == {(8, 204), (7, 204)}
    for work in arena.sets.values():
        if work.mask is not None:
            assert np.shares_memory(work.mask, arena.mask)


@pytest.mark.parametrize("n_rows", [1, 2, 16])
def test_the_backward_pass_leaves_the_hidden_gradient_in_the_hidden_buffer(n_rows):
    """After ``_batch_gradients``, ``work.hidden`` holds, bit for bit, an allocating
    reference's gradient at the hidden units, ``(d_logits @ w_out[:, :-1].T) *
    (h > 0)`` per member, over the activations ``h`` it held, and its ones
    column is 1.0, as the next forward pass reads it."""
    rng = np.random.default_rng(n_rows)
    n_members, n_features, n_classes = 3, 6, 4
    init = init_model(n_features, n_classes, seed=3, hidden_width=8)
    layout = _layout(init)
    # each member its own weights, random bias rows included, stacked role-major
    stacked = {k: w + rng.normal(scale=0.5, size=(n_members, *w.shape)) for k, w in init.items()}
    params = np.concatenate([w.ravel() for w in stacked.values()])
    x = _ones(rng.normal(size=(n_rows, n_features)))
    labels = rng.integers(n_classes, size=n_rows)
    target_rows = rng.dirichlet(np.ones(n_classes), size=(n_members, n_classes))
    arena = _Arena(init, n_members, n_members * 16)
    work = arena.scored(target_rows, labels)
    _batch_gradients(_views(params, layout, n_members),
                     _views(np.empty(params.size), layout, n_members), x, work)

    hidden = np.maximum(x @ stacked["w_in"], 0.0)  # (K, B, H)
    probs = softmax(_ones(hidden) @ stacked["w_out"])
    d_logits = (probs - target_rows[:, labels]) / n_rows
    # the fit's product form: an NN gemm on a contiguous transposed copy for two
    # or more rows, the strided (NT) transpose for one
    w_out_t = stacked["w_out"][:, :-1].swapaxes(-1, -2)
    if n_rows > 1:
        w_out_t = np.ascontiguousarray(w_out_t)
    expected = (d_logits @ w_out_t) * (hidden > 0.0)
    assert work.hidden[..., :-1].tobytes() == expected.tobytes()
    assert (work.hidden[..., -1] == 1.0).all()


def test_batch_gradients_match_central_differences():
    """The backward pass against central differences of ``loss.mean_soft_ce`` in
    every parameter."""
    rng = np.random.default_rng(61)
    x = rng.normal(size=(7, 3))
    targets = rng.dirichlet(np.ones(4), size=7)
    step = 1e-5
    init = init_model(3, 4, seed=2, hidden_width=5)
    layout = _layout(init)
    assert [shape for _, _, _, shape in layout] == [(4, 5), (6, 4)]
    # random bias rows too, so no ReLU input sits near its kink
    flat = np.concatenate([w.ravel() for w in init.values()])
    flat = flat + rng.normal(scale=0.5, size=flat.size)

    def loss(params):
        # the blocks' weights and biases apart, as an affine layer is written
        w = _views(params, layout)
        hidden = np.maximum(x @ w["w_in"][:-1] + w["w_in"][-1], 0.0)
        logits = hidden @ w["w_out"][:-1] + w["w_out"][-1]
        return mean_soft_ce(softmax(logits), targets)

    # one member's role-major stack is its flat parameters
    params, grads = flat.copy(), np.empty(flat.size)
    # each row its own label, so the target gather puts each row's target in place
    work = _Arena(init, 1, len(x)).scored(targets[None], np.arange(len(x)))
    total = _batch_gradients(_views(params, layout, 1), _views(grads, layout, 1), _ones(x), work)
    assert -total[0] / len(x) == pytest.approx(loss(flat), rel=1e-12)
    numeric = np.empty(flat.size)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += step
        down[i] -= step
        numeric[i] = (loss(up) - loss(down)) / (2 * step)
    np.testing.assert_allclose(grads, numeric, rtol=1e-5, atol=1e-9)


def test_best_weights_do_not_alias_the_training_buffer(monkeypatch):
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    subtrain, val = validation_split(data, 3, ProtocolSettings())
    config = TrainConfig(0.1, "nominal", SmoothingParams(), seed=3, batch_size=16,
                         max_epochs=30, patience=5)
    init = init_model(data.n_features, space.n_classes, seed=3, hidden_width=8)
    shapes = {k: w.shape for k, w in init.items()}
    seen = _spy_on_record(monkeypatch)
    (member,) = _fit_lockstep(init, subtrain, val, [config])

    epochs = seen[id(member)]
    # later steps ran on the buffer after the best epoch was recorded
    assert member.best_epoch < len(epochs)
    best, _ = epochs[member.best_epoch - 1]
    last, live = epochs[-1]
    assert not all(np.array_equal(best[key], last[key]) for key in best)
    for key, weights in best.items():
        np.testing.assert_array_equal(member.best_weights[key], weights)
        assert not np.shares_memory(member.best_weights[key], live[key])

    model, _ = train(init, subtrain, config, val)
    assert {k: w.shape for k, w in model.items()} == shapes
    # one flat copy seen through the layer views
    assert len({id(w.base) for w in model.values()}) == 1


def test_each_leaving_member_keeps_an_owned_copy_of_its_best_epochs_weights(monkeypatch):
    """The fit snapshots the members that improved into a buffer beside the
    parameters once per epoch, each member in its row of the first stack, and
    cuts each member's own copy from it when the fit ends: a member that goes
    non-finite after improving keeps its last best weights, and one that does so
    at epoch 1 has none."""
    data, space = _small_dataset(n_classes=4, noise_sd=0.6, adjacent_flip_prob=0.2)
    subtrain, val = validation_split(data, 5, ProtocolSettings())
    # under SGD, lr 1e5 improves to epoch 4 and goes non-finite at epoch 6, and lr
    # 1e308 at epoch 1; patience 2 stops the others at staggered epochs
    configs = [
        TrainConfig(lr, "nominal", SmoothingParams(), seed=5, batch_size=16, max_epochs=12,
                    patience=2, optimizer="sgd")
        for lr in (1e-3, 0.3, 1.0, 3.0, 3e4, 1e5, 1e308)
    ]
    init = init_model(data.n_features, space.n_classes, seed=5, hidden_width=8)
    stacks = []  # the owner of every buffer the fit compacts, the parameters among them
    compact = trainer._compact

    def spy_compact(flat, *args):
        stacks.append(_owner(flat))
        return compact(flat, *args)

    monkeypatch.setattr(trainer, "_compact", spy_compact)
    seen = _spy_on_record(monkeypatch)
    members = _fit_lockstep(init, subtrain, val, configs)

    *trained, late, early = members
    assert early.diverged is not None and early.best_epoch == 0 and early.best_weights is None
    assert late.diverged is not None and 1 < late.best_epoch < late.stopped_epoch
    assert len({member.stopped_epoch for member in members}) >= 4 and stacks
    n_params = sum(w.size for w in init.values())
    for member in trained + [late]:
        best, _ = seen[id(member)][member.best_epoch - 1]
        last, live = seen[id(member)][-1]
        if member.best_epoch < len(seen[id(member)]):
            # later steps moved the member's parameters on from its best epoch's
            assert not all(np.array_equal(best[key], last[key]) for key in best)
        # one owned flat copy of one member's parameters, seen through block views
        owner = _owner(member.best_weights["w_out"])
        assert owner.size == n_params
        for key, weights in best.items():
            assert member.best_weights[key].tobytes() == weights.tobytes()
            assert _owner(member.best_weights[key]) is owner
            assert not np.shares_memory(owner, live[key])
            assert not any(np.shares_memory(owner, stack) for stack in stacks)


def test_search_skips_a_candidate_that_diverged_at_epoch_one(monkeypatch):
    data, space = _small_dataset()
    fits = []
    fit = trainer._fit_lockstep

    def spy(*args):
        fits.append(fit(*args))
        return fits[-1]

    monkeypatch.setattr(trainer, "_fit_lockstep", spy)
    grid = SearchSpace(learning_rates=(1e-2, 1e308), max_configs=2)
    settings = ProtocolSettings(batch_size=16, max_epochs=5, patience=5, hidden_width=8)
    (outcome,) = random_search(grid, data, ["nominal"], seed=5, label_space=space,
                               settings=settings)
    ((first, second),) = fits
    diverged = first if first.config.learning_rate == 1e308 else second
    assert diverged.diverged is not None and diverged.best_epoch == 0
    # never scored: it has no weights to score
    assert diverged.best_weights is None and diverged.val_amae is None
    assert outcome.diverged is None and outcome.config.learning_rate == 1e-2


def test_train_returns_the_best_weights_and_leaves_its_model_alone():
    data, space = _small_dataset(n_classes=4, noise_sd=0.6)
    subtrain, val = validation_split(data, 4, ProtocolSettings())
    config = TrainConfig(0.05, "nominal", SmoothingParams(), seed=4, batch_size=16,
                         max_epochs=12, patience=12)
    init = init_model(data.n_features, space.n_classes, seed=4, hidden_width=8)
    before = {k: w.copy() for k, w in init.items()}
    model, history = train(init, subtrain, config, val)
    assert model is history.best_weights
    assert init.keys() == before.keys()
    for key, weights in init.items():
        assert weights.tobytes() == before[key].tobytes()
        assert not np.array_equal(model[key], weights)


def test_search_deterministic():
    data, space = _small_dataset(n_per_class=20)
    settings = ProtocolSettings(max_epochs=3, patience=3, hidden_width=4)
    (a,) = random_search(SearchSpace(), data, ["beta"], seed=5, label_space=space, settings=settings)
    (b,) = random_search(SearchSpace(), data, ["beta"], seed=5, label_space=space, settings=settings)
    assert a == b


# ---------------------------------------------------------------- protocol


def test_run_single_metrics_recomputable():
    data, space = _small_dataset(n_per_class=30, adjacent_flip_prob=0.2)
    settings = ProtocolSettings(max_epochs=10, patience=10, hidden_width=8)
    (result,) = run_single(data, space, ["triangular"], seed=0,
                           search_space=SearchSpace(max_configs=3), settings=settings)
    recomputed = amae(build_confusion(result.predictions, space))
    assert recomputed == pytest.approx(result.metrics.amae, abs=1e-12)
    assert (result.history.config.strategy, result.history.config.seed) == ("triangular", 0)


def test_run_single_deterministic():
    data, space = _small_dataset(n_per_class=24, adjacent_flip_prob=0.2)
    settings = ProtocolSettings(max_epochs=5, patience=5, hidden_width=4)
    runs = [
        run_single(data, space, [strategy], seed, SearchSpace(max_configs=2), settings)[0]
        for _ in range(2)
        for seed in (0, 1)
        for strategy in ("nominal", "binomial")
    ]
    for a, b in zip(runs[:4], runs[4:]):
        assert a.history == b.history
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.predictions.predicted_probs, b.predictions.predicted_probs)
        np.testing.assert_array_equal(a.predictions.predicted_labels, b.predictions.predicted_labels)


def test_fixed_run_of_a_searched_config_is_the_search_runs_result():
    data, space = _small_dataset(n_per_class=24, adjacent_flip_prob=0.2)
    # patience below the epoch cap, so members leave the search's stack early
    settings = ProtocolSettings(max_epochs=8, patience=2, hidden_width=4)
    for strategy in ("nominal", "beta", "exponential"):
        (searched,) = run_single(data, space, [strategy], 2, SearchSpace(max_configs=4), settings)
        fixed = run_fixed(data, space, searched.history.config, settings)
        np.testing.assert_array_equal(fixed.predictions.true_labels, searched.predictions.true_labels)
        assert fixed.predictions.predicted_probs.tobytes() == searched.predictions.predicted_probs.tobytes()
        assert fixed.metrics == searched.metrics
        # the search adds its validation scores to the record; the fit is the same
        scores = {"val_amae": searched.history.val_amae, "val_mae": searched.history.val_mae}
        assert dataclasses.replace(fixed.history, **scores) == searched.history
        assert fixed.history.val_amae is None


def test_paired_run_evaluates_both_scales_on_the_split_stratified_on_a():
    spec = PairedSynthSpec(n_classes_a=4, n_classes_b=3, n_samples=120, seed=6)
    labels_a, labels_b = generate_paired(spec)
    features = paired_features(labels_a, labels_b, spec)
    settings = ProtocolSettings(max_epochs=3, patience=3, hidden_width=4)
    _, test_idx = stratified_split(labels_a, settings.train_fraction, seed=1)
    # the test would not tell the two splits apart if B's own split were the same
    _, b_test_idx = stratified_split(labels_b, settings.train_fraction, seed=1)
    assert not np.array_equal(test_idx, b_test_idx)
    scales = [(labels_a, LabelSpace(4)), (labels_b, LabelSpace(3))]
    [(a, b)] = run_paired_single(features, scales, ["nominal"], 1, SearchSpace(max_configs=2),
                                 settings)
    np.testing.assert_array_equal(a.predictions.true_labels, labels_a[test_idx])
    np.testing.assert_array_equal(b.predictions.true_labels, labels_b[test_idx])
    assert a.predictions.predicted_probs.shape[1] == 4
    assert b.predictions.predicted_probs.shape[1] == 3
    for result in (a, b):
        assert (result.history.config.seed, result.history.config.strategy) == (1, "nominal")
