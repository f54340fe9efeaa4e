"""Correctness oracles written independently of ``ordsoft``'s code.

Each check reads the files a command wrote and recomputes what they claim
from first principles (numpy, and ``scipy.stats`` for the test p-values).
``selftest`` pins the oracles themselves to hand-worked examples.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

METRICS = ("qwk", "mae", "ms", "ba", "amae", "mmae")
TOL = 1e-9


class CheckFailed(Exception):
    pass


def _close(name: str, got: float, want: float, tol: float = TOL) -> None:
    if not math.isclose(got, want, rel_tol=tol, abs_tol=tol):
        raise CheckFailed(f"{name}: program says {got!r}, oracle says {want!r}")


# ------------------------------------------------------------------ metrics


def confusion(true, pred, n_classes: int) -> np.ndarray:
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(true, pred):
        counts[t, p] += 1
    return counts


def ordinal_metrics(counts: np.ndarray) -> dict:
    """QWK, MAE, AMAE, MMAE, MS and BA; grades without samples are left out of per-class terms."""
    counts = np.asarray(counts, dtype=float)
    j = counts.shape[0]
    n = counts.sum()
    dist = np.abs(np.subtract.outer(np.arange(j), np.arange(j)))
    weights = (dist / (j - 1)) ** 2
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n
    rows = counts.sum(axis=1)
    present = rows > 0
    class_mae = (dist * counts).sum(axis=1)[present] / rows[present]
    recall = np.diag(counts)[present] / rows[present]
    return {
        "qwk": 1.0 - (weights * counts).sum() / (weights * expected).sum(),
        "mae": (dist * counts).sum() / n,
        "amae": class_mae.mean(),
        "mmae": class_mae.max(),
        "ms": recall.min(),
        "ba": recall.mean(),
    }


def check_record_metrics(where: str, metrics: dict, true, pred, n_classes: int) -> None:
    want = ordinal_metrics(confusion(true, pred, n_classes))
    for m in METRICS:
        _close(f"{where} {m}", metrics[m], want[m])


# ------------------------------------------------------------------ splits


def holdout_counts(class_counts, train_fraction: float) -> np.ndarray:
    """Holdout size per grade under largest-remainder stratified quotas.

    Train quotas are floor(N_j * f), topped up one at a time until they sum to
    round(N * f), largest remainder first, then larger class, then lower grade.
    """
    class_counts = np.asarray(class_counts, dtype=np.int64)
    exact = class_counts * train_fraction
    train = np.floor(exact).astype(np.int64)
    target = int(math.floor(class_counts.sum() * train_fraction + 0.5))
    order = sorted(range(len(class_counts)),
                   key=lambda i: (-(exact[i] - train[i]), -class_counts[i], i))
    for i in order[: target - int(train.sum())]:
        train[i] += 1
    return class_counts - train


def check_holdout(where: str, true_labels, dataset_labels, n_classes: int,
                  train_fraction: float = 0.7) -> None:
    want = holdout_counts(np.bincount(dataset_labels, minlength=n_classes), train_fraction)
    got = np.bincount(np.asarray(true_labels, dtype=int), minlength=n_classes)
    if not np.array_equal(got, want):
        raise CheckFailed(f"{where}: holdout per grade {got.tolist()}, quotas give {want.tolist()}")


# ------------------------------------------------------------------ search grids

GRID_PARAMS = {
    "nominal": (),
    "nominal_smoothed": ("etas",),
    "binomial": ("etas",),
    "beta": ("etas", "concentrations"),
    "triangular": ("etas", "alphas"),
    "exponential": ("etas", "ps"),
}
PARAM_KEY = {"etas": "eta", "concentrations": "concentration", "alphas": "alpha", "ps": "p"}
DEFAULT_SPACE = {
    "learning_rates": [1e-4, 1e-3, 1e-2], "etas": [0.8, 1.0], "alphas": [0.01, 0.05, 0.10],
    "ps": [1.0, 1.5, 2.0], "concentrations": [5.0, 10.0],
}


def grid(strategy: str, space: dict) -> list[dict]:
    space = {**DEFAULT_SPACE, **space}
    axes = GRID_PARAMS[strategy]
    out = []
    for lr, *values in itertools.product(space["learning_rates"], *(space[a] for a in axes)):
        params = {"eta": 1.0}
        params.update({PARAM_KEY[a]: v for a, v in zip(axes, values)})
        out.append({"learning_rate": lr, "params": params})
    return out


def check_in_grid(where: str, config: dict, space: dict) -> None:
    entry = {"learning_rate": config["learning_rate"], "params": config["params"]}
    if entry not in grid(config["strategy"], space):
        raise CheckFailed(f"{where}: chosen config {entry} is not in the {config['strategy']} grid")


# ------------------------------------------------------------------ summaries


def check_summary(summary: dict, records: list[dict], metrics_key: str) -> None:
    by_strategy: dict[str, list[dict]] = {}
    for rec in records:
        by_strategy.setdefault(rec["strategy"], []).append(rec[metrics_key])
    if set(summary["strategies"]) != set(by_strategy):
        raise CheckFailed("summary strategies differ from the records'")
    for strategy, reports in by_strategy.items():
        for m in METRICS:
            values = [r[m] for r in reports]
            mean = sum(values) / len(values)
            std = (math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
                   if len(values) > 1 else 0.0)
            cell = summary["strategies"][strategy][m]
            _close(f"summary {strategy} {m} mean", cell["mean"], mean)
            _close(f"summary {strategy} {m} std", cell["std"], std)
    for m in METRICS:
        cells = [summary["strategies"][s][m] for s in by_strategy]
        _close(f"summary average {m} mean", summary["average"][m]["mean"],
               sum(c["mean"] for c in cells) / len(cells))


# ------------------------------------------------------------------ joint tables


def read_table_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[int(v) for v in row[1:]] for row in rows[1:] if row], dtype=np.int64)


def kld(p_counts: np.ndarray, q_counts: np.ndarray, epsilon: float) -> float:
    """D(P || Q) in nats with Q smoothed to (Q + eps) / (1 + eps * cells)."""
    p = p_counts / p_counts.sum()
    q = q_counts / q_counts.sum()
    q = (q + epsilon) / (1.0 + epsilon * q.size)
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def holm(p_values: list[float]) -> list[float]:
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    out = [0.0] * len(p_values)
    running = 0.0
    for rank, i in enumerate(order):
        running = max(running, min(1.0, (len(p_values) - rank) * p_values[i]))
        out[i] = running
    return out


def check_analysis(report: dict, truth_csv: Path, tables_dir: Path) -> None:
    """KLD per run, Kruskal-Wallis and exact Wilcoxon with Holm, against scipy.stats."""
    from scipy import stats

    truth = read_table_csv(truth_csv)
    eps = report["epsilon"]
    kl_by_strategy = {}
    for strategy, entry in sorted(report["strategies"].items()):
        values = []
        for run in entry["runs"]:
            table = read_table_csv(tables_dir / f"{strategy}_seed{run['seed']}.csv")
            want = kld(truth, table, eps)
            _close(f"analyze kld {strategy} seed {run['seed']}", run["kld"], want)
            values.append(want)
        kl_by_strategy[strategy] = values
    h, p = stats.kruskal(*kl_by_strategy.values())
    _close("analyze kruskal-wallis H", report["kruskal_wallis"]["statistic"], float(h), 1e-7)
    _close("analyze kruskal-wallis p", report["kruskal_wallis"]["p_value"], float(p), 1e-7)
    names = list(kl_by_strategy)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    p_exact = []
    for a, b in pairs:
        x, y = np.array(kl_by_strategy[a]), np.array(kl_by_strategy[b])
        p_exact.append(float(stats.wilcoxon(x, y, zero_method="wilcox", method="exact").pvalue))
    got = {tuple(e["pair"]): e for e in report["pairwise"]}
    for (a, b), p_ab, p_holm in zip(pairs, p_exact, holm(p_exact)):
        entry = got[(a, b)]
        if entry["method"] != "wilcoxon_exact":
            raise CheckFailed(f"analyze {a} vs {b}: method {entry['method']}")
        _close(f"analyze wilcoxon {a} vs {b} p", entry["p_value"], p_ab, 1e-9)
        _close(f"analyze holm {a} vs {b}", entry["p_holm"], p_holm, 1e-9)


# ------------------------------------------------------------------ self-test


def selftest() -> None:
    """Pin the oracles to hand-worked values."""
    cases = [
        ([[2, 1], [0, 3]], dict(qwk=2 / 3, mae=1 / 6, amae=1 / 6, mmae=1 / 3, ms=2 / 3, ba=5 / 6)),
        ([[3, 1, 0], [1, 2, 1], [0, 1, 3]],
         dict(qwk=3 / 4, mae=1 / 3, amae=1 / 3, mmae=1 / 2, ms=1 / 2, ba=2 / 3)),
        # grade 1 has no samples, so it is left out of the per-class terms
        ([[2, 0, 0], [0, 0, 0], [1, 0, 1]],
         dict(qwk=1 / 2, mae=1 / 2, amae=1 / 2, mmae=1.0, ms=1 / 2, ba=3 / 4)),
    ]
    for counts, want in cases:
        got = ordinal_metrics(np.array(counts))
        for m in METRICS:
            _close(f"selftest {counts} {m}", got[m], want[m], 1e-12)
    if not np.array_equal(confusion([0, 0, 1, 2], [0, 1, 1, 0], 3),
                          [[1, 1, 0], [0, 1, 0], [1, 0, 0]]):
        raise CheckFailed("selftest confusion")
    if holdout_counts([10, 5, 3], 0.7).tolist() != [3, 1, 1]:
        raise CheckFailed("selftest holdout quotas")
    _close("selftest kld", kld(np.array([[1, 1], [0, 0]]), np.array([[1, 1], [1, 1]]), 0.0),
           math.log(2), 1e-12)
    for got, want in zip(holm([0.01, 0.04, 0.03]), [0.03, 0.06, 0.06]):
        _close("selftest holm", got, want, 1e-12)
    if len(grid("triangular", {})) != 18 or len(grid("nominal", {"learning_rates": [1.0]})) != 1:
        raise CheckFailed("selftest grid sizes")
    summary = {"strategies": {"s": {m: {"mean": 2.0, "std": math.sqrt(2.0)} for m in METRICS}},
               "average": {m: {"mean": 2.0} for m in METRICS}}
    check_summary(summary, [{"strategy": "s", "m": {k: v for k in METRICS}} for v in (1.0, 3.0)],
                  "m")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]
