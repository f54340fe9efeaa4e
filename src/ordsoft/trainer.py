"""Desk-scale classifier training under soft-target supervision.

A small numpy network, a one-hidden-layer ReLU MLP, stands in for the image
backbone: the supervision strategies under study act purely at the label
level, so the comparison logic does not depend on the model. Training is
plain mini-batch gradient descent (SGD or Adam) on the soft cross-entropy,
with early stopping on validation loss (weights restored from the best epoch)
and full determinism: every random draw comes from child generators of the
run seed.

A model is the dict of two affine blocks that ``init_model`` makes, and
``predict_proba`` is its inference. There is one training loop,
``_fit_lockstep``, which trains K models at once; ``train`` is its one-member
case, and ``random_search`` trains every candidate of every strategy on one
seed as one such fit. ``run_single``, ``run_paired_single`` and ``run_fixed``
are one seed's protocol: split, search or train, and score on the holdout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import LabelSpace, PredictionSet, RunResult, SampleSet, build_confusion, check_number
from .loss import PROB_FLOOR, softmax
from .metrics import Scores, compute_report
from .softlabel import STRATEGY_RULES, SmoothingParams, build_target_matrix, strategy_rule

_STREAM_SPLIT = 11
_STREAM_INIT = 12
_STREAM_SHUFFLE = 13
_STREAM_SEARCH = 14

# members per validation pass: bounds the work arrays a large stack's validation needs
_VAL_BLOCK = 8


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


class TooFewToSplit(ValueError):
    """A grade has fewer than 2 rows, so a stratified split cannot put it on both sides.

    ``scale`` is the index of the grade scale whose labels were split, when
    ``run_paired_single`` made the split."""

    scale: Optional[int] = None


def _check_schedule(config, seed_field: str) -> None:
    """The batch, epoch, patience, optimizer and seed checks of ``TrainConfig``
    and ``ProtocolSettings``; ``seed_field`` names the config's seed field."""
    for name in ("batch_size", "max_epochs", "patience", seed_field):
        check_number(name, getattr(config, name), integer=True)
    if config.batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 1 <= config.patience <= config.max_epochs:
        raise ValueError("patience must lie in [1, max_epochs]")
    if config.optimizer not in ("adam", "sgd"):
        raise ValueError(f"unknown optimizer {config.optimizer!r}")
    if getattr(config, seed_field) < 0:
        raise ValueError(f"{seed_field} must be non-negative, got {getattr(config, seed_field)}")


@dataclass(frozen=True)
class TrainConfig:
    """One fit's settings; its ``strategy`` must read exactly its ``params``."""

    learning_rate: float = 1e-3
    strategy: str = "nominal"
    params: SmoothingParams = SmoothingParams()
    seed: int = 0
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 40
    optimizer: str = "adam"  # "adam" | "sgd"

    def __post_init__(self) -> None:
        check_number("learning_rate", self.learning_rate)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        _check_schedule(self, "seed")
        strategy_rule(self.strategy, self.params, strict=True)

    def to_dict(self) -> dict:
        return {**asdict(self), "params": self.params.to_dict()}


class _Arena:
    """The work buffers of one fit: one flat buffer per work role, and one
    ``_Work`` set of prefix views of them per pass shape, built on its first use.

    ``hidden``, ``logits``, ``llik``, ``targets`` and ``row_sum`` hold the
    (member, row) pairs of the largest pass, a batch of all K members or a
    validation block; ``mask``, which only a batch writes, those of the largest
    batch. ``hidden`` holds H+1 values per pair, the last of them set to 1
    here: the ones column that the output block's bias row reads. Every set's
    view puts its pairs' ones at the same places and every pass leaves them as
    they are, so a prefix view serves any pass: every other value is written
    before it is read, and a matmul or ufunc writing into such a view rounds
    bit for bit as into an array of its own. ``w_out_t`` holds each member's
    ``w_out`` weight rows transposed, J x H, for the backward product;
    ``total`` holds one value per member. The fit clears ``sets`` when members
    leave, as the smaller stack runs other shapes.
    """

    def __init__(self, blocks: dict, n_members: int, batch_rows: int, val_rows: int = 0):
        """Buffers for passes of up to ``n_members`` models laid out as ``blocks``
        (one model's): batches of up to ``batch_rows`` (member, row) pairs and
        validation blocks of up to ``val_rows``."""
        self.n_hidden, self.n_grades = blocks["w_in"].shape[1], blocks["w_out"].shape[1]
        n_rows = max(batch_rows, val_rows)
        self.hidden = np.empty(n_rows * (self.n_hidden + 1))
        self.hidden[self.n_hidden:: self.n_hidden + 1] = 1.0
        self.mask = np.empty(batch_rows * (self.n_hidden + 1), dtype=bool)
        self.w_out_t = np.empty(n_members * self.n_hidden * self.n_grades)
        self.logits, self.llik = np.empty(n_rows * self.n_grades), np.empty(n_rows * self.n_grades)
        self.targets = np.empty(self.logits.size)
        self.row_sum = np.empty(n_rows)
        self.total = np.empty(n_members)
        self.sets = {}

    def scored(self, target_rows: np.ndarray, labels: np.ndarray) -> _Work:
        """The set for a pass of the members whose target rows are the ``(k, J, J)``
        ``target_rows`` over rows labelled ``labels``, their targets gathered in
        with one ``take`` that clips, so no array of every row's targets is kept
        or reshuffled."""
        key = (len(target_rows), len(labels))
        if key not in self.sets:
            self.sets[key] = _Work(self, *key)
        work = self.sets[key]
        target_rows.take(labels, 1, work.targets, "clip")
        return work


class _Work:
    """Work arrays for one pass of K members over n rows, each a contiguous
    ``[:size].reshape(...)`` view of its role's buffer in an ``_Arena``.

    The arrays are member-major, so each member's ``(n, .)`` matrix is one
    contiguous block, and its products and loss sums run as a lone member's do:
    ``hidden`` and the ReLU ``mask`` are ``(K, n, H+1)``, and ``units`` is
    ``hidden``'s H units alone; ``targets``, ``logits`` and ``llik`` are
    ``(K, n, J)``; ``row_sum`` is ``(K, n)``; ``total`` is ``(K,)``;
    ``w_out_t`` is ``(K, J, H)``. A set too large for the arena's ``mask``, a
    validation block, has none. The J column views of ``logits`` and the
    ``(K, n, 1)`` broadcast view of ``row_sum`` are built with the set.
    """

    def __init__(self, arena: _Arena, n_members: int, n_rows: int):
        def view(buffer: np.ndarray, *shape: int) -> np.ndarray:
            return buffer[: math.prod(shape)].reshape(shape)

        stack = (n_members, n_rows)
        self.hidden = view(arena.hidden, *stack, arena.n_hidden + 1)
        self.units = self.hidden[..., :-1]
        fits = self.hidden.size <= arena.mask.size  # the mask holds the largest batch's pairs
        self.mask = view(arena.mask, *self.hidden.shape) if fits else None
        self.w_out_t = view(arena.w_out_t, n_members, arena.n_grades, arena.n_hidden)
        self.logits = view(arena.logits, *stack, arena.n_grades)
        self.llik = view(arena.llik, *stack, arena.n_grades)
        self.targets = view(arena.targets, *stack, arena.n_grades)
        self.row_sum = view(arena.row_sum, *stack)
        self.total = arena.total[:n_members]
        self.cols = [self.logits[..., j] for j in range(arena.n_grades)]
        self.row_bc = self.row_sum[..., None]


def _forward(weights: dict, x: np.ndarray, work: _Work) -> np.ndarray:
    """Logits of a ``(K, ...)`` stack of models on the batch ``x`` they share, whose
    last column is ones, written into ``work.logits`` and returned: two products
    and a ReLU. ``work.hidden`` keeps the ReLU hidden layer, its ones column too
    (``max(1, 0) = 1``), so the output product reads its bias row off it."""
    np.matmul(x, weights["w_in"], out=work.units)
    np.maximum(work.hidden, 0.0, out=work.hidden)
    np.matmul(work.hidden, weights["w_out"], out=work.logits)
    return work.logits


def _softmax(work: _Work) -> np.ndarray:
    """Turn ``work.logits`` into softmax probabilities in place and return them.

    Each row's max is J-1 ufuncs over the grade columns, in grade order, and is
    exact. A row shorter than 8 is summed likewise, as J-1 column adds in grade
    order, since numpy reduces a short trailing axis slowly and sums such a row
    in index order; longer rows take numpy's own pairwise reduction. So the
    result is bit for bit ``loss.softmax``. One row buffer, ``work.row_sum``,
    holds the max until it is subtracted, then the sum.
    """
    probs, cols, row = work.logits, work.cols, work.row_sum
    np.maximum(cols[0], cols[1], out=row)
    for col in cols[2:]:
        np.maximum(row, col, out=row)
    probs -= work.row_bc
    np.exp(probs, out=probs)
    if len(cols) < 8:
        np.add(cols[0], cols[1], out=row)
        for col in cols[2:]:
            row += col
    else:
        probs.sum(axis=-1, out=row)
    probs /= work.row_bc
    return probs


def _log_likelihood(weights: dict, x: np.ndarray, work: _Work) -> np.ndarray:
    """Each member's sum of target-weighted log-probabilities over the rows ``x``,
    whose last column is ones, against its slice of ``work.targets``: minus its
    loss times the row count, written into ``work.total`` and returned.

    The forward pass and the softmax leave the probabilities in ``work.logits``;
    their logarithms, floored as in ``loss``, go to ``work.llik``, which is then
    weighted by the targets in place, so each member's ``(n, J)`` terms are one
    contiguous block summed at once, as ``loss.mean_soft_ce`` sums a lone
    member's."""
    _forward(weights, x, work)
    _softmax(work)
    np.maximum(work.logits, PROB_FLOOR, out=work.llik)
    np.log(work.llik, out=work.llik)
    work.llik *= work.targets
    return work.llik.sum(axis=(-2, -1), out=work.total)


def _with_ones(features: np.ndarray) -> np.ndarray:
    """A new ``(N, d+1)`` array of the rows ``features`` with a ones column appended."""
    out = np.ones((len(features), features.shape[1] + 1))
    out[:, :-1] = features
    return out


def predict_proba(weights: dict, features: np.ndarray) -> np.ndarray:
    """Softmax probabilities of the model ``weights`` on ``features``: the plain,
    allocating forward pass, two products and a ReLU over inputs with their ones
    columns appended, then ``loss.softmax``. It rounds as the fit's does, so a
    member's best weights give, bit for bit, its validation probabilities at its
    best epoch."""
    hidden = np.maximum(_with_ones(features) @ weights["w_in"], 0.0)
    return softmax(_with_ones(hidden) @ weights["w_out"])


def init_model(n_features: int, n_classes: int, seed: int, hidden_width: int = 32) -> dict:
    """A model: two affine blocks, ``w_in`` ((d+1) x H) and then ``w_out``
    ((H+1) x J), each a weight matrix whose last row is its bias, so a block
    reads its input with a ones column appended and its bias is the last term of
    its product. The weights are fan-in-scaled symmetric uniform, all seeded, in
    block order, over bias rows of zeros. The grade count and hidden width are
    read off these shapes wherever a model is used."""
    rng = np.random.default_rng([seed, _STREAM_INIT])

    def block(fan_in: int, fan_out: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(fan_in)
        weights = np.zeros((fan_in + 1, fan_out))
        weights[:-1] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return weights

    return {"w_in": block(n_features, hidden_width), "w_out": block(hidden_width, n_classes)}


def stratified_split(
    labels: Sequence[int], train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stratified partition into train and holdout indices.

    Per-class train counts are the class quotas N_j * fraction rounded down,
    then topped up largest-remainder-first until the global total matches
    round(N * fraction); remainder ties go to the larger class (smallest
    proportional perturbation), then to the lower grade.
    """
    labels = np.asarray(labels, dtype=int)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    classes, class_counts = np.unique(labels, return_counts=True)
    if (class_counts < 2).any():
        small = classes[class_counts < 2].tolist()
        raise TooFewToSplit(f"classes {small} have fewer than 2 samples and cannot be split")
    total_train = int(math.floor(labels.size * train_fraction + 0.5))
    quotas = class_counts * train_fraction
    train_counts = np.floor(quotas).astype(int)
    remainders = quotas - train_counts
    order = sorted(
        range(len(classes)),
        key=lambda i: (-remainders[i], -class_counts[i], classes[i]),
    )
    for i in order[: total_train - int(train_counts.sum())]:
        train_counts[i] += 1

    rng = np.random.default_rng([seed, _STREAM_SPLIT])
    train_parts, holdout_parts = [], []
    for cls, n_train in zip(classes, train_counts):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        train_parts.append(members[:n_train])
        holdout_parts.append(members[n_train:])
    train_idx = np.sort(np.concatenate(train_parts))
    holdout_idx = np.sort(np.concatenate(holdout_parts))
    return train_idx, holdout_idx


def _layout(weights: dict) -> list[tuple[str, int, int, tuple]]:
    """Name, offset and size among one model's parameters, and shape, of each of
    its blocks, in order."""
    layout, offset = [], 0
    for key, w in weights.items():
        layout.append((key, offset, w.size, w.shape))
        offset += w.size
    return layout


def _views(flat: np.ndarray, layout: list[tuple[str, int, int, tuple]], *lead: int) -> dict:
    """Named block views of the role-major buffer ``flat`` of ``prod(lead)`` models:
    each block's values of every model are one contiguous ``(*lead, *shape)`` run,
    the blocks in order; with no ``lead``, one model's blocks. Writing to a view
    writes to the buffer."""
    n = math.prod(lead)
    return {key: flat[n * offset: n * (offset + size)].reshape(lead + shape)
            for key, offset, size, shape in layout}


def _compact(flat: np.ndarray, sizes: Sequence[int], n_members: int, rows: list[int]) -> np.ndarray:
    """Keep the members ``rows`` (ascending) of the role-major stack ``flat`` of
    ``n_members`` members, whose roles hold ``sizes`` values per member, in place:
    each role's kept rows move to the front of its segment and the segment slides
    down, so the members kept form the role-major stack of ``len(rows)`` members
    in the prefix of ``flat`` that is returned.

    Each run of consecutive kept rows moves as one 1-D copy. Every copy moves
    toward the front and the copies run in address order, so no value is
    overwritten before it moves, and numpy copies an overlapping 1-D run front
    to back without a temporary."""
    runs = []  # [first row, its row once kept, length] of each run of consecutive rows
    for to, row in enumerate(rows):
        if runs and row == runs[-1][0] + runs[-1][2]:
            runs[-1][2] += 1
        else:
            runs.append([row, to, 1])
    n_kept, offset = len(rows), 0
    for size in sizes:
        for row, to, length in runs:
            src, dst = n_members * offset + row * size, n_kept * offset + to * size
            if src != dst:
                flat[dst: dst + length * size] = flat[src: src + length * size]
        offset += size
    return flat[: n_kept * offset]


def _batch_gradients(weights: dict, grads: dict, x: np.ndarray, work: _Work) -> np.ndarray:
    """Per member: write the gradients of one batch's mean soft cross-entropy
    against ``work.targets`` into ``grads`` (views of the same layout as
    ``weights``) and return the batch's sum of target-weighted log-probabilities
    (minus the loss times the batch size), all through the work arrays ``work``
    sized for this batch; ``x``'s last column is ones. Each block's gradient is
    one product of its input, ones column included, with the gradient at its
    output, so its last row, the bias gradient, is the sum over the batch, and
    no bias sum is left. The hidden units' gradient is written over their
    activations in ``work.hidden`` once the ``w_out`` gradient product and the
    ReLU mask have read them, so one buffer serves both (memory shared by
    liveness, as in Chen, Xu, Zhang & Guestrin, 2016); the ones column stays 1
    for the next forward pass."""
    _log_likelihood(weights, x, work)
    d_logits = work.logits
    d_logits -= work.targets
    d_logits /= x.shape[0]
    np.matmul(work.hidden.swapaxes(-1, -2), d_logits, out=grads["w_out"])
    # hidden > 0 exactly where the ReLU's input is positive
    np.greater(work.hidden, 0.0, out=work.mask)
    # the bias row takes no part: the ones column has no input to pass back to
    w_out_t = weights["w_out"][:, :-1].swapaxes(-1, -2)
    if x.shape[0] > 1:
        # an NN gemm on a contiguous copy; a 1-row batch keeps the strided (NT)
        # form, since numpy takes gemv there and the two forms round apart
        np.copyto(work.w_out_t, w_out_t)
        w_out_t = work.w_out_t
    np.matmul(d_logits, w_out_t, out=work.units)
    # the mask is True under the ones column, so that slot stays 1
    work.hidden *= work.mask
    np.matmul(x.T, work.units, out=grads["w_in"])
    return work.total


def _mean_soft_ce(weights: dict, x: np.ndarray, work: _Work) -> np.ndarray:
    """Each member's mean soft cross-entropy over ``x``, whose last column is ones,
    against its ``(V, J)`` slice of ``work.targets``, bit for bit
    ``loss.mean_soft_ce``: its summed terms, negated, over the row count."""
    return -_log_likelihood(weights, x, work) / len(x)


class _Optimizer:
    """Plain SGD or Adam (bias-corrected moments, betas 0.9/0.999, eps 1e-8) over
    the flat parameter buffer of a stack of members, with one learning rate per
    member.

    The learning rates are spread to a vector with one entry per parameter, laid
    out as the parameters are, and Adam's moments are buffers of that layout too,
    so a step is one run of in-place ufuncs over the whole buffer, whatever the
    blocks or the stack; a block's bias row is updated as its weights are. The
    order of operations is that of the textbook per-block update:
    ``m = 0.9 m + 0.1 g``, ``v = 0.999 v + 0.001 g**2`` and
    ``w -= (lr * m_hat) / (sqrt(v_hat) + 1e-8)``.
    """

    def __init__(self, kind: str, learning_rates: np.ndarray, sizes: Sequence[int]):
        """``sizes`` holds each block's parameter count of one member."""
        self.kind, self.sizes = kind, sizes
        self.steps = 0
        self.lr = np.concatenate([np.repeat(learning_rates, size) for size in sizes])
        if kind == "adam":
            self.m, self.v = np.zeros_like(self.lr), np.zeros_like(self.lr)
            self.denom = np.empty_like(self.lr)

    def keep(self, rows: list[int]) -> None:
        """Keep the state of the members ``rows`` (ascending) alone: the learning
        rates and moments are compacted into a prefix of their buffers, and the
        denominator, rewritten every step, shrinks to one."""
        n_members = self.lr.size // sum(self.sizes)
        self.lr = _compact(self.lr, self.sizes, n_members, rows)
        if self.kind == "adam":
            self.m = _compact(self.m, self.sizes, n_members, rows)
            self.v = _compact(self.v, self.sizes, n_members, rows)
            self.denom = self.denom[: self.lr.size]

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One step on ``params`` from ``grads``, whose buffer ends the step
        overwritten: once the moments have read them, the step is computed there."""
        if self.kind == "sgd":
            grads *= self.lr
            params -= grads
            return
        self.steps += 1
        m, v, denom = self.m, self.v, self.denom
        # denom is free until v_hat, so it holds the moments' increments
        m *= 0.9
        np.multiply(grads, 0.1, out=denom)
        m += denom
        v *= 0.999
        np.square(grads, out=denom)
        denom *= 0.001
        v += denom
        np.divide(v, 1.0 - 0.999**self.steps, out=denom)
        np.sqrt(denom, out=denom)
        denom += 1e-8
        step = grads
        correction = 1.0 - 0.9**self.steps
        if correction == 1.0:
            # from step 356 on; m / 1.0 is m to the bit, so the divide is skipped
            np.multiply(m, self.lr, out=step)
        else:
            np.divide(m, correction, out=step)
            step *= self.lr
        step /= denom
        params -= step


@dataclass
class TrainHistory:
    """One member of a lockstep fit, the one record of a trained candidate: its
    config, epoch losses, best validation loss with its 1-based epoch and
    weights, and any divergence; ``random_search`` adds the validation AMAE and
    MAE of each candidate it scores. ``train`` returns it, ``random_search`` each
    strategy's winning one, and a ``RunResult`` holds it. The weights and the
    divergence take no part in equality.

    ``record`` books the losses alone. The fit snapshots the weights of each epoch
    that improves and sets ``best_weights`` when it ends; it stays None for a
    member that never improved (one that went non-finite at epoch 1)."""

    config: TrainConfig
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_val: float = math.inf
    best_epoch: int = 0
    best_weights: Optional[dict] = field(default=None, compare=False)  # block views of one copy
    diverged: Optional[TrainingDiverged] = field(default=None, compare=False)
    val_amae: Optional[float] = None
    val_mae: Optional[float] = None

    @property
    def stopped_epoch(self) -> int:
        return len(self.val_loss)

    @property
    def stale_epochs(self) -> int:
        """The epochs booked since the best one."""
        return len(self.val_loss) - self.best_epoch

    def record(self, epoch: int, train_loss: float, val_loss: float) -> bool:
        """Book one epoch's losses; False once it stops. An epoch that improves
        becomes ``best_epoch``, whose weights the fit snapshots."""
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            self.diverged = TrainingDiverged(
                f"non-finite loss at epoch {epoch} (train={train_loss}, val={val_loss}) "
                f"with lr={self.config.learning_rate}, strategy={self.config.strategy}"
            )
            return False
        self.train_loss.append(train_loss)
        self.val_loss.append(val_loss)
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best_epoch = epoch
        return self.stale_epochs < self.config.patience


def _keep_best(member: TrainHistory, snapshot: dict, row: int, layout: list) -> None:
    """Give a member of a fit that has ended its best weights, unless it never
    improved: an owned flat copy of its row ``row`` of the stacked blocks
    ``snapshot``, seen through block views."""
    if member.best_epoch:
        blocks = np.concatenate([w[row].ravel() for w in snapshot.values()])
        member.best_weights = _views(blocks, layout)


def _fit_lockstep(
    init_weights: dict,
    data: SampleSet,
    validation: SampleSet,
    configs: Sequence[TrainConfig],
) -> list[TrainHistory]:
    """Train one member per config in lockstep, every member from ``init_weights``.

    The configs share seed, batch size, epoch limit and optimizer (a ``ValueError``
    names the first they do not); each member has its own learning rate, patience
    and targets, one matrix per distinct (strategy, params) over ``init_weights``'
    grades. The members' weights are stacked on a leading axis, and each step runs
    one batched forward/backward and update on one mini-batch that all members
    share; each epoch ends with a batched forward over the validation set per
    block of at most ``_VAL_BLOCK`` members, in stack order, whose weights and
    target rows are slices of the stack's. Stacking saves a step's fixed cost of
    numpy calls, not its arithmetic. Every pass, batch or block, takes its work
    set from the fit's one ``_Arena`` by shape and gathers its rows' targets
    into it from its members' ``(k, J, J)`` target rows. Its input rows carry a
    ones column: each epoch's shuffled training rows are gathered into one
    ``(N, d+1)`` buffer made once per fit with its last column ones, and the
    validation rows get theirs once. A batched matmul runs one gemm per member
    on its contiguous block, and each member's loss sums run over its block, so
    every member's arithmetic is bit for bit that of the member trained alone.

    The parameters are one flat buffer laid out role-major,
    ``[w_in (K, d+1, H) | w_out (K, H+1, J)]``, so each block of every member is
    one contiguous run, seen through a ``(K, *shape)`` view; the gradients and
    the optimizer's state are buffers of the same layout. After each epoch's
    validation, the members whose loss improved copy their parameters into their
    rows of a ``best`` buffer of the first stack's layout, which never moves. A
    member that stops early or goes non-finite leaves the stack: the members
    left are compacted, role by role, into a role-major prefix of the parameter,
    moment, learning-rate and target-row buffers, the gradient prefix and block
    views are taken afresh over the same memory, and the arena drops its work
    sets; a member leaving allocates nothing and changes no other member's bits.
    When the fit ends, every member takes its own copy of its ``best`` rows.
    """
    if data.n_samples == 0 or validation.n_samples == 0:
        raise ValueError("training and validation sets must be non-empty")
    shared = configs[0]
    for name in ("seed", "batch_size", "max_epochs", "optimizer"):
        if any(getattr(c, name) != getattr(shared, name) for c in configs):
            raise ValueError(f"lockstep configs must share {name}")
    members = [TrainHistory(c) for c in configs]
    alive = list(members)
    layout = _layout(init_weights)
    sizes = [size for _, _, size, _ in layout]
    params = np.concatenate([np.tile(w.ravel(), len(members)) for w in init_weights.values()])
    # the gradients, and each member's best epoch's parameters in its row of the first stack
    flat_grads = np.empty_like(params)
    weights, grads, snapshot = (_views(flat, layout, len(members))
                                for flat in (params, flat_grads, np.empty_like(params)))
    ids = np.arange(len(members))  # each live member's row of the first stack
    n_grades = init_weights["w_out"].shape[1]
    keys = dict.fromkeys((c.strategy, c.params) for c in configs)
    matrices = {key: build_target_matrix(LabelSpace(n_grades), *key).rows for key in keys}
    # (K, J, J): each member's target row of each label
    target_rows = np.stack([matrices[c.strategy, c.params] for c in configs])
    # each pass's target gather clips its indices, so a label past the grades must fail here
    if max(data.labels.max(), validation.labels.max()) >= n_grades:
        raise ValueError(f"labels must lie below {n_grades} grades")
    learning_rates = np.array([c.learning_rate for c in configs], dtype=float)
    optimizer = _Optimizer(shared.optimizer, learning_rates, sizes)
    rng = np.random.default_rng([shared.seed, _STREAM_SHUFFLE])
    starts = range(0, data.n_samples, shared.batch_size)
    batch_sizes = np.array([min(shared.batch_size, data.n_samples - s) for s in starts])
    batch_rows = len(members) * int(batch_sizes[0])
    val_rows = min(len(members), _VAL_BLOCK) * validation.n_samples
    arena = _Arena(init_weights, len(members), batch_rows, val_rows)
    x_epoch, x_val = _with_ones(data.features), _with_ones(validation.features)

    for epoch in range(1, shared.max_epochs + 1):
        perm = rng.permutation(data.n_samples)
        x_epoch[:, :-1], labels_epoch = data.features[perm], data.labels[perm]
        log_likelihoods = np.empty((len(alive), len(starts)))
        # divergence surfaces as non-finite losses below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for i, start in enumerate(starts):
                end = start + shared.batch_size
                work = arena.scored(target_rows, labels_epoch[start:end])
                log_likelihoods[:, i] = _batch_gradients(weights, grads, x_epoch[start:end], work)
                optimizer.update(params, flat_grads)
            # per-batch mean losses, then their mean over the epoch
            epoch_train = (-log_likelihoods / batch_sizes).mean(axis=1)
            blocks = [slice(lo, lo + _VAL_BLOCK) for lo in range(0, len(alive), _VAL_BLOCK)]
            epoch_val = np.concatenate([
                _mean_soft_ce({k: w[block] for k, w in weights.items()}, x_val,
                              arena.scored(target_rows[block], validation.labels))
                for block in blocks
            ])
            rows, improved = [], []
            for row, member in enumerate(alive):
                if member.record(epoch, float(epoch_train[row]), float(epoch_val[row])):
                    rows.append(row)
                if member.best_epoch == epoch:
                    improved.append(row)
        for key, w in weights.items():
            snapshot[key][ids[improved]] = w[improved]
        if len(rows) < len(alive):
            if not rows:
                break
            params = _compact(params, sizes, len(alive), rows)
            target_rows = _compact(target_rows.reshape(-1), [n_grades**2], len(alive),
                                   rows).reshape(len(rows), n_grades, n_grades)
            alive, ids = [alive[row] for row in rows], ids[rows]
            flat_grads = flat_grads[: params.size]  # rewritten every step
            weights, grads = (_views(flat, layout, len(rows)) for flat in (params, flat_grads))
            optimizer.keep(rows)
            arena.sets.clear()
    for row, member in enumerate(members):
        _keep_best(member, snapshot, row, layout)
    return members


def train(
    model: dict, data: SampleSet, config: TrainConfig, validation: SampleSet
) -> tuple[dict, TrainHistory]:
    """Mini-batch gradient descent on ``config``'s targets from the blocks ``model``,
    left as they are, with early stopping on validation loss: the best weights and history.

    Stops after ``patience`` consecutive epochs without strict validation-loss
    improvement (or at max_epochs). This is the one-member case of the lockstep
    fit that ``random_search`` runs.
    """
    (history,) = _fit_lockstep(model, data, validation, [config])
    if history.diverged is not None:
        raise history.diverged
    return history.best_weights, history


@dataclass(frozen=True)
class SearchSpace:
    """Per-strategy hyperparameter grids; the search samples at most max_configs.

    The grid of a ``SmoothingParams`` field is named after it plus ``s``.
    Construction checks every grid and builds every strategy's grid once, so
    ``SmoothingParams`` checks the smoothing values before any search runs.
    """

    learning_rates: tuple = (1e-4, 1e-3, 1e-2)
    etas: tuple = (0.8, 1.0)
    alphas: tuple = (0.01, 0.05, 0.10)
    ps: tuple = (1.0, 1.5, 2.0)
    concentrations: tuple = (5.0, 10.0)
    max_configs: int = 15
    # strategy -> its (learning rate, SmoothingParams) grid
    _grids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_number("max_configs", self.max_configs, integer=True)
        if self.max_configs < 1:
            raise ValueError("max_configs must be >= 1")
        read = dict.fromkeys(name for names, _ in STRATEGY_RULES.values() for name in names)
        for name in ("learning_rates", *(f"{param}s" for param in read)):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)) or not values:
                raise ValueError(f"{name} must be a non-empty list")
            for value in values:
                check_number(f"each of {name}", value)
            object.__setattr__(self, name, tuple(values))
        if min(self.learning_rates) <= 0:
            raise ValueError(f"learning_rates must be positive, got {list(self.learning_rates)}")
        grids = {}
        for strategy, (names, _) in STRATEGY_RULES.items():
            values = [getattr(self, f"{name}s") for name in names]
            grids[strategy] = [
                (lr, SmoothingParams(**dict(zip(names, params))))
                for lr, *params in itertools.product(self.learning_rates, *values)
            ]
        object.__setattr__(self, "_grids", grids)

    def grid(self, strategy: str) -> list[tuple[float, SmoothingParams]]:
        """Learning rates crossed with the grid of each parameter the strategy
        takes (``eta`` -> ``etas``, ``alpha`` -> ``alphas``, ...), learning rate
        slowest, then the parameters in the strategy's ``STRATEGY_RULES`` order."""
        if strategy not in self._grids:
            raise ValueError(f"unknown strategy {strategy!r}")
        return self._grids[strategy]


@dataclass(frozen=True)
class ProtocolSettings:
    train_fraction: float = 0.7
    val_fraction: float = 0.3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 40
    hidden_width: int = 32
    optimizer: str = "adam"
    root_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("train_fraction", "val_fraction"):
            check_number(name, getattr(self, name))
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1")
        _check_schedule(self, "root_seed")
        check_number("hidden_width", self.hidden_width, integer=True)
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")


def validation_split(
    data: SampleSet, seed: int, settings: ProtocolSettings
) -> tuple[SampleSet, SampleSet]:
    """Carve the validation set from a training split at ``settings.val_fraction``."""
    sub_idx, val_idx = stratified_split(data.labels, 1.0 - settings.val_fraction, seed)
    return data.subset(sub_idx), data.subset(val_idx)


def random_search(
    space: SearchSpace,
    data: SampleSet,
    strategies: Sequence[str],
    seed: int,
    label_space: LabelSpace,
    settings: ProtocolSettings = ProtocolSettings(),
) -> list[TrainHistory]:
    """Each strategy's search: the record of the lowest validation AMAE among
    configurations sampled without replacement from its grid, one per strategy in
    order, holding the weights it trained.

    The validation set is carved from ``data`` (the training split) at
    ``settings.val_fraction``. Each strategy draws its candidates from its own
    generator of the seed, as a search of that strategy alone would. Every
    candidate of every strategy shares the seed, hence the initial weights and
    the shuffle order, so all of them train in one lockstep fit, each exactly as
    it would train alone. A strategy listed twice is searched once. Ties break
    by validation MAE, then lower learning rate, then grid position. A diverged
    candidate is skipped; ``TrainingDiverged`` is raised when every candidate
    of a strategy diverges. At the default grid the five paper strategies train
    as one fit of 51 members, where five per-strategy fits would each pay a
    step's fixed cost of numpy calls.
    """
    draws: dict[str, list[tuple[int, float, SmoothingParams]]] = {}
    for strategy in dict.fromkeys(strategies):
        grid = space.grid(strategy)
        rng = np.random.default_rng([seed, _STREAM_SEARCH])
        n_sample = min(space.max_configs, len(grid))
        draws[strategy] = [
            (int(g), *grid[g]) for g in rng.choice(len(grid), size=n_sample, replace=False)
        ]
    subtrain, val = validation_split(data, seed, settings)

    shared = ("batch_size", "max_epochs", "patience", "optimizer")  # the settings' schedule
    schedule = {name: getattr(settings, name) for name in shared}
    configs = [
        TrainConfig(learning_rate=lr, strategy=strategy, params=params, seed=seed, **schedule)
        for strategy, drawn in draws.items()
        for _, lr, params in drawn
    ]
    init = init_model(subtrain.n_features, label_space.n_classes, seed, settings.hidden_width)
    histories = _fit_lockstep(init, subtrain, val, configs)

    grid_positions = [g for drawn in draws.values() for g, _, _ in drawn]
    best: dict[str, tuple[tuple, TrainHistory]] = {}
    for grid_pos, history in zip(grid_positions, histories):
        if history.diverged is not None:
            continue
        strategy = history.config.strategy
        preds = PredictionSet(val.labels, predict_proba(history.best_weights, val.features))
        # one pass for both; QWK, which can be undefined, is not read
        scores = Scores(build_confusion(preds, label_space))
        history.val_amae, history.val_mae = scores.amae, scores.mae
        key = (history.val_amae, history.val_mae, history.config.learning_rate, grid_pos)
        if strategy not in best or key < best[strategy][0]:
            best[strategy] = key, history
    for strategy, drawn in draws.items():
        if strategy not in best:
            raise TrainingDiverged(
                f"all {len(drawn)} candidates diverged for strategy={strategy}, seed={seed}"
            )
    return [best[strategy][1] for strategy in strategies]


def _holdout_run(history: TrainHistory, holdout: SampleSet, space: LabelSpace) -> RunResult:
    """The run of the candidate ``history`` records: its model scored on ``holdout``."""
    preds = PredictionSet(holdout.labels, predict_proba(history.best_weights, holdout.features))
    return RunResult(history, compute_report(build_confusion(preds, space)), preds)


def run_fixed(
    dataset: SampleSet, label_space: LabelSpace, config: TrainConfig,
    settings: ProtocolSettings = ProtocolSettings(),
) -> RunResult:
    """The run of one fixed ``config``: on the split stratified on the labels at the
    config's seed, carve the validation set, train from the seed's initial weights
    and score on the holdout, as a search trains and scores it."""
    train_idx, test_idx = stratified_split(dataset.labels, settings.train_fraction, config.seed)
    subtrain, val = validation_split(dataset.subset(train_idx), config.seed, settings)
    model = init_model(dataset.n_features, label_space.n_classes, config.seed,
                       settings.hidden_width)
    _, history = train(model, subtrain, config, val)
    return _holdout_run(history, dataset.subset(test_idx), label_space)


def run_single(
    dataset: SampleSet,
    label_space: LabelSpace,
    strategies: Sequence[str],
    seed: int,
    search_space: SearchSpace,
    settings: ProtocolSettings,
) -> list[RunResult]:
    """One seed's runs, one per strategy, on a split stratified on the labels."""
    scales = [(dataset.labels, label_space)]
    runs = run_paired_single(dataset.features, scales, strategies, seed, search_space, settings)
    return [result for (result,) in runs]


def run_paired_single(
    features: np.ndarray,
    scales: Sequence[tuple[np.ndarray, LabelSpace]],
    strategies: Sequence[str],
    seed: int,
    search_space: SearchSpace,
    settings: ProtocolSettings,
) -> list[tuple[RunResult, ...]]:
    """One seed's runs per grade scale on shared ``features``, given each scale's
    labels and grades as ``[(labels, space), ...]``, on one split stratified on the
    first scale's labels: per scale, search every strategy on the train subset and
    score its model on the holdout. Per strategy, the scales' results in order.
    A ``TooFewToSplit`` carries the index of the scale whose labels it could not
    split."""
    scale = 0  # the scale whose labels the split in progress stratifies on
    try:
        train_idx, test_idx = stratified_split(scales[0][0], settings.train_fraction, seed)
        per_scale = []
        for scale, (labels, space) in enumerate(scales):
            dataset = SampleSet(features, labels)
            train_set, test_set = dataset.subset(train_idx), dataset.subset(test_idx)
            histories = random_search(search_space, train_set, strategies, seed, space, settings)
            per_scale.append([_holdout_run(history, test_set, space) for history in histories])
    except TooFewToSplit as exc:
        exc.scale = scale
        raise
    return list(zip(*per_scale))
