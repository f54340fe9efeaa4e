"""Command-line front end.

Subcommands: ``softlabels`` (inspect a target matrix), ``synth`` (write
synthetic datasets), ``train`` (one configured run), ``sweep`` (full
multi-seed protocol from a JSON experiment config), ``evaluate`` (metric
report from a predictions CSV) and ``analyze`` (KLD / residual / test
pipeline over contingency tables).

Exit codes: 0 success, 1 usage error, 2 runtime failure. Per-run records are
JSON lines with sorted keys; all randomness derives from the seeds in the
config, so re-running a command reproduces its output files byte for byte.
The ``ORDSOFT_WORKERS`` environment variable bounds the sweep worker pool.

A command imports only what it runs: the joint-table statistics, the synthetic
generators and the worker pool are imported by the functions that use them,
so ``train`` and a ``sweep``, single-task or paired, load none of them: a
paired sweep counts its joint tables from its label columns with
``core.ContingencyTable``. A run's record reads its seed, strategy, config and
validation AMAE from the ``trainer.TrainHistory`` its ``RunResult`` holds.

An unknown key or a wrong-typed value in a config file is a usage error that
names it, and so is a strategy listed twice in a sweep config. ``train``
merges its flags over its config file, leaves every other default to
``TrainConfig`` and ``SmoothingParams`` and runs ``trainer.run_fixed``. The
smoothing flags of ``softlabels`` and ``train`` are one per ``SmoothingParams``
field, and ``train``'s others one per ``TrainConfig`` field. ``TrainConfig``
checks every value, its strategy's smoothing fields too, so a record's params
are those that shaped its targets.

The process entry, ``run`` (the ``ordsoft`` script and ``python -m
ordsoft.cli``), calls ``gc.freeze()`` before ``main``. Importing this module
and numpy leaves ~22k tracked containers that live until exit, and CPython's
shutdown walks them in each of its final collections: with Python 3.11 and
numpy 2.4 on a 2-core Xeon, a process that imports this module spends a median
30.8 ms exiting, and 8.1 ms once the heap is frozen (20 runs each). Frozen
objects are also skipped by every full collection during the run. ``main``
itself leaves the collector alone, so in-process callers see no global change.
"""

from __future__ import annotations

import argparse
import csv
import gc
import glob as globmod
import json
import os
import re
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from .core import (
    ContingencyTable,
    LabelSpace,
    RunResult,
    SampleSet,
    check_number,
    confusion_from_labels,
    read_header,
    read_labelled_csv,
    write_labelled_csv,
)
from .metrics import METRIC_NAMES, compute_report
from .softlabel import STRATEGIES, SmoothingParams, build_target_matrix
from .trainer import (
    ProtocolSettings,
    SearchSpace,
    TooFewToSplit,
    TrainConfig,
    run_fixed,
    run_paired_single,
    run_single,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
WORKERS_ENV = "ORDSOFT_WORKERS"
PAIRED_LABELS = ("label_a", "label_b")  # a paired CSV's last two columns, scale A first
_SWEEP_KEYS = ("task", "dataset", "strategies", "n_seeds", "output_dir", "search_space", "settings",
               "n_classes", "n_classes_b")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise UsageError(message)


def _dump_json(obj) -> str:
    """``obj`` as JSON; a NaN or infinity, which JSON has no number for, raises ``ValueError``."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _make_parent(path: str | Path) -> None:
    """Create the directory that ``path`` is written into, and its parents."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _atomic_write(path: Path, text: str) -> None:
    _make_parent(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(Path(out), text)
    else:
        sys.stdout.write(text)


def _check_keys(obj, known, where: str) -> dict:
    """``obj`` when it is a JSON object whose keys all lie in ``known``, a list or a
    dataclass's fields; otherwise a ``ValueError`` naming ``where`` and the keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if isinstance(known, type):
        known = [f.name for f in fields(known) if f.init]
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    return obj


def _given_flags(args, cls) -> dict:
    """The flags given (0 included) that are named after a field of ``cls``."""
    names = [f.name for f in fields(cls)]
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


# ---------------------------------------------------------------- softlabels


def cmd_softlabels(args) -> int:
    try:
        params = SmoothingParams(**_given_flags(args, SmoothingParams))
        matrix = build_target_matrix(LabelSpace(args.classes), args.strategy, params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = matrix.rows.tolist()
    if args.plot_data:
        lines = ["strategy,true_grade,grade,mass"] + [
            f"{args.strategy},{k},{j},{mass!r}"
            for k, row in enumerate(rows) for j, mass in enumerate(row)
        ]
    else:
        lines = [",".join(map(repr, row)) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --------------------------------------------------------------------- synth


def _write_paired_csv(path: str, features: np.ndarray, labels_a: np.ndarray, labels_b: np.ndarray) -> None:
    write_labelled_csv(path, features, dict(zip(PAIRED_LABELS, (labels_a, labels_b))))


@contextmanager
def _reading(path: str, errors: type = ValueError):
    """Turn an ``errors`` exception raised while reading ``path``, by default any
    ``ValueError``, such as a non-numeric cell, a short row or a negative grade,
    into a usage error naming the file."""
    try:
        yield
    except errors as exc:
        message = str(exc)
        if not message.startswith(f"{path}:"):
            message = f"{path}: {message}"
        raise UsageError(message) from exc


def _read_paired_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The features and A and B grades of the paired CSV at ``path``."""
    with _reading(path):
        return read_labelled_csv(path, PAIRED_LABELS)


def cmd_synth(args) -> int:
    from .synth import PairedSynthSpec, SynthSpec, generate, generate_paired, paired_features

    shared = dict(
        n_features=args.dim,
        class_separation=args.separation,
        noise_sd=args.noise_sd,
        adjacent_flip_prob=args.flip_prob,
        seed=args.seed,
    )
    try:
        if args.paired:
            spec = PairedSynthSpec(
                n_classes_a=args.classes_a,
                n_classes_b=args.classes_b,
                n_samples=args.n,
                low_grade_concentration=args.low_grade_concentration,
                high_grade_spread=args.high_grade_spread,
                **shared,
            )
        else:
            spec = SynthSpec(n_classes=args.classes, n_per_class=args.per_class, **shared)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for path in (args.out, args.truth_out):
        if path:
            _make_parent(path)
    if args.paired:
        labels_a, labels_b = generate_paired(spec)
        _write_paired_csv(args.out, paired_features(labels_a, labels_b, spec), labels_a, labels_b)
        if args.truth_out:
            shape = (spec.n_classes_a, spec.n_classes_b)
            ContingencyTable.from_labels(labels_a, labels_b, shape).to_csv(args.truth_out)
    else:
        generate(spec).to_csv(args.out)
    return EXIT_OK


# --------------------------------------------------------------------- train


def _run_record(task: str, result: RunResult) -> dict:
    config = result.history.config
    return {
        "schema": "ordsoft.run_record-v1",
        "task": task,
        "seed": config.seed,
        "strategy": config.strategy,
        "config": config.to_dict(),
        "validation_amae": result.history.val_amae,
        "metrics": result.metrics.to_dict(),
        "true_labels": [int(v) for v in result.predictions.true_labels],
        "predicted_labels": [int(v) for v in result.predictions.predicted_labels],
    }


def _label_space(
    classes: int | None, labels: np.ndarray, source: str, name: str = "--classes"
) -> LabelSpace:
    """The grades of ``classes``, given as ``name``, when given (0 included), else
    0 .. the largest label.

    No labels, a bad grade count and labels outside the grades are usage errors.
    """
    if labels.size == 0:
        raise UsageError(f"{source}: no rows after the header")
    try:
        space = LabelSpace(int(labels.max()) + 1 if classes is None else classes)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outside = labels[(labels < 0) | (labels >= space.n_classes)]
    if outside.size:
        given = f" of {name}" if classes is not None else ""
        raise UsageError(
            f"labels {np.unique(outside).tolist()} in {source} lie outside the"
            f" {space.n_classes} grades{given}"
        )
    return space


def cmd_train(args) -> int:
    with _reading(args.data):
        dataset = SampleSet.from_csv(args.data)
    space = _label_space(args.classes, dataset.labels, args.data)
    try:
        # the flags given override the config file, which overrides the field defaults
        cfg = json.loads(Path(args.config).read_text()) if args.config else {}
        _check_keys(cfg, TrainConfig, args.config)
        cfg_params = _check_keys(cfg.get("params", {}), SmoothingParams, f"{args.config} params")
        params = SmoothingParams(**{**cfg_params, **_given_flags(args, SmoothingParams)})
        config = TrainConfig(**{**cfg, **_given_flags(args, TrainConfig), "params": params})
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.config}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.out:
        _make_parent(args.out)  # before the fit, which a missing directory would waste
    # a grade too small to split is the file's fault, though the fit finds it
    with _reading(args.data, TooFewToSplit):
        result = run_fixed(dataset, space, config)
    line = _dump_json(_run_record(args.task, result))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    else:
        sys.stdout.write(line + "\n")
    return EXIT_OK


# --------------------------------------------------------------------- sweep


def _sample_std(values: list[float]) -> float:
    """Sample standard deviation (ddof=1), 0 for a single value."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def summarise_records(records: list[dict], task: str, n_seeds: int, metrics_key: str) -> dict:
    """Mean/std per strategy and metric, in the paper's Mean_STD display form.

    Exactly recomputable from the JSON-lines records: uses only their
    ``strategy`` field and the metrics under ``metrics_key`` (``metrics``, or
    ``metrics_a``/``metrics_b`` for one scale of a paired record). Std is the
    sample standard deviation (ddof=1), 0 for a single seed.
    """
    by_strategy: dict[str, dict[str, list[float]]] = {}
    for rec in records:
        bucket = by_strategy.setdefault(rec["strategy"], {m: [] for m in METRIC_NAMES})
        for m in METRIC_NAMES:
            bucket[m].append(rec[metrics_key][m])

    def cell(mean: float, std: float) -> dict:
        return {"mean": mean, "std": std, "display": f"{mean:.3f}_{{{std:.3f}}}"}

    strategies = {
        name: {m: cell(float(np.mean(vals[m])), _sample_std(vals[m])) for m in METRIC_NAMES}
        for name, vals in by_strategy.items()
    }
    average = {}
    for m in METRIC_NAMES:
        cells = [strategies[s][m] for s in strategies]
        average[m] = cell(
            float(np.mean([c["mean"] for c in cells])), float(np.mean([c["std"] for c in cells]))
        )
    return {
        "schema": "ordsoft.sweep_summary-v1",
        "task": task,
        "n_seeds": n_seeds,
        "strategies": strategies,
        "average": average,
    }


def render_summary(summary: dict) -> str:
    names = list(summary["strategies"]) + ["Average"]
    rows = [["strategy"] + [m.upper() for m in METRIC_NAMES]]
    for name in names:
        cells = summary["average"] if name == "Average" else summary["strategies"][name]
        rows.append([name] + [cells[m]["display"] for m in METRIC_NAMES])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows) + "\n"


def _single_task(payload) -> list[dict]:
    """One seed's records, one per strategy in order."""
    dataset, space, strategies, seed, search_space, settings, task = payload
    results = run_single(dataset, space, strategies, seed, search_space, settings)
    return [_run_record(task, result) for result in results]


def _paired_task(payload) -> list[dict]:
    """One seed's paired records, one per strategy in order."""
    features, scales, strategies, seed, search_space, settings, task = payload
    shape = tuple(space.n_classes for _, space in scales)
    try:
        runs = run_paired_single(features, scales, strategies, seed, search_space, settings)
    except TooFewToSplit as exc:
        raise TooFewToSplit(f"{PAIRED_LABELS[exc.scale]}: {exc}") from exc
    records = []
    for a, b in runs:
        strategy = a.history.config.strategy
        predicted = (a.predictions.predicted_labels, b.predictions.predicted_labels)
        records.append({
            "schema": "ordsoft.paired_run_record-v1",
            "task": task,
            "seed": seed,
            "strategy": strategy,
            "config_a": a.history.config.to_dict(),
            "config_b": b.history.config.to_dict(),
            "metrics_a": a.metrics.to_dict(),
            "metrics_b": b.metrics.to_dict(),
            "table": ContingencyTable.from_labels(*predicted, shape).counts.tolist(),
            "table_file": f"tables/{strategy}_seed{seed}.csv",
        })
    return records


def _workers() -> int:
    """The worker count that ``ORDSOFT_WORKERS`` asks for: an integer >= 1, default 1."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    return workers


def _map_tasks(fn, payloads, workers: int):
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


def cmd_sweep(args) -> int:
    try:
        config = _check_keys(json.loads(Path(args.config).read_text()), _SWEEP_KEYS, args.config)
        for key in ("task", "dataset", "output_dir"):
            if key in config and not isinstance(config[key], str):
                raise ValueError(f"{key} must be a string, got {config[key]!r}")
        task, dataset_path, strategies = config["task"], config["dataset"], config["strategies"]
        if not isinstance(strategies, list) or {type(s) for s in strategies} != {str}:
            raise ValueError(f"strategies must be a non-empty list of strings, got {strategies!r}")
        n_seeds = config["n_seeds"]
        check_number("n_seeds", n_seeds, integer=True)
        output_dir = Path(args.out_dir or config["output_dir"])
        search_space, settings = (
            cls(**_check_keys(config.get(key, {}), cls, key))
            for cls, key in ((SearchSpace, "search_space"), (ProtocolSettings, "settings"))
        )
        if n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        # each scale's grade count, inferred from its labels when not given
        classes = {name: config.get(name) for name in ("n_classes", "n_classes_b")}
        for name, value in classes.items():
            if value is not None:
                check_number(name, value, integer=True)
                if value < 2:
                    raise ValueError(f"{name} must be >= 2, got {value}")
        unknown = [s for s in strategies if s not in STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategies {unknown}")
        repeated = sorted(s for s, n in Counter(strategies).items() if n > 1)
        if repeated:
            raise ValueError(f"strategies listed more than once: {repeated}")
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise UsageError(f"bad sweep config: {exc}") from exc
    workers = _workers()

    with open(dataset_path, newline="") as fh, _reading(dataset_path):
        header = read_header(csv.reader(fh), dataset_path)
    paired = tuple(header[-2:]) == PAIRED_LABELS

    if paired:
        features, *labels = _read_paired_csv(dataset_path)
        spaces = [_label_space(classes[name], column, dataset_path, name)
                  for name, column in zip(classes, labels)]
        task_fn, data = _paired_task, (features, list(zip(labels, spaces)))
        summaries = [("summary.json", "metrics_a", "scale A\n"),
                     ("summary_b.json", "metrics_b", "scale B\n")]
    else:
        with _reading(dataset_path):
            dataset = SampleSet.from_csv(dataset_path)
        if classes["n_classes_b"] is not None:
            raise UsageError(
                f"bad sweep config: n_classes_b needs a paired dataset, not {dataset_path}"
            )
        space = _label_space(classes["n_classes"], dataset.labels, dataset_path, "n_classes")
        task_fn, data = _single_task, (dataset, space)
        summaries = [("summary.json", "metrics", "")]
    payloads = [
        (*data, strategies, settings.root_seed + i, search_space, settings, task)
        for i in range(n_seeds)
    ]
    # one task per seed, its records in strategy order
    with _reading(dataset_path, TooFewToSplit):
        per_seed = _map_tasks(task_fn, payloads, workers)
    records = [rec for recs in per_seed for rec in recs]
    if paired:
        (output_dir / "tables").mkdir(parents=True, exist_ok=True)
        truth = ContingencyTable.from_labels(*labels, tuple(s.n_classes for s in spaces))
        truth.to_csv(str(output_dir / "tables" / "truth.csv"))
        for rec in records:
            counts = np.asarray(rec["table"], dtype=int)
            ContingencyTable(counts).to_csv(str(output_dir / rec["table_file"]))

    output_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(
        output_dir / "results.jsonl", "".join(_dump_json(r) + "\n" for r in records)
    )
    rendered = []
    for name, metrics_key, heading in summaries:
        summary = summarise_records(records, task, n_seeds, metrics_key)
        _atomic_write(output_dir / name, _dump_json(summary) + "\n")
        rendered.append(heading + render_summary(summary))
    text = "\n".join(rendered)
    _atomic_write(output_dir / "summary.txt", text)
    sys.stdout.write(text)
    return EXIT_OK


# ------------------------------------------------------------------ evaluate


def cmd_evaluate(args) -> int:
    path = args.predictions
    with open(path, newline="") as fh, _reading(path):
        reader = csv.reader(fh)
        if read_header(reader, path)[:2] != ["true", "pred"]:
            raise ValueError("expected header true,pred")
        rows = [row for row in reader if row]
        if any(len(row) < 2 for row in rows):
            raise ValueError("every row needs a true and a pred cell")
        pairs = np.array([[int(row[0]), int(row[1])] for row in rows], dtype=int)
    true_labels, pred_labels = pairs.reshape(-1, 2).T
    space = _label_space(args.classes, np.concatenate([true_labels, pred_labels]), path)
    confusion = confusion_from_labels(true_labels, pred_labels, space)
    _emit(_dump_json(compute_report(confusion).to_dict()) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------- analyze


_TABLE_NAME = re.compile(r"^(?P<strategy>.+)_seed(?P<seed>\d+)$")


def analyse_tables(
    truth: ContingencyTable,
    predicted: dict[str, list[tuple[int, ContingencyTable]]],
    epsilon: float | None = None,
) -> dict:
    """KLD/MAE per run, residuals of mean predicted tables, and the test pipeline.

    ``epsilon`` smooths the KLD; None means ``jointanalysis.DEFAULT_KLD_EPSILON``.
    Fewer than 2 strategies, a strategy that lists one seed twice, or strategies
    whose seed sets differ, so that their runs cannot pair, raise ``ValueError``
    before any KLD is taken. A run whose
    KLD is infinite, as at epsilon 0 when its table has 0 in a cell the truth
    fills, is a ``UsageError`` naming its strategy and seed.
    """
    from .jointanalysis import (
        DEFAULT_KLD_EPSILON,
        JointDistribution,
        kld,
        kruskal_wallis,
        normalise,
        pairwise_wilcoxon_holm,
        residuals,
        table_mae,
    )

    if len(predicted) < 2:
        raise ValueError("need at least 2 strategies for the global test")
    for strategy, runs in sorted(predicted.items()):
        seeds = sorted(seed for seed, _ in runs)
        for seed, following in zip(seeds, seeds[1:]):
            if seed == following:
                raise ValueError(f"{strategy} lists seed {seed} twice; a run has one table")
    if len({tuple(sorted(seed for seed, _ in runs)) for runs in predicted.values()}) != 1:
        raise ValueError("strategies have mismatched seed sets; cannot pair runs")
    epsilon = DEFAULT_KLD_EPSILON if epsilon is None else epsilon
    p = normalise(truth)
    strategies_report = {}
    kld_by_strategy: dict[str, list[float]] = {}
    for strategy, runs in sorted(predicted.items()):
        runs = sorted(runs, key=lambda sr: sr[0])
        entries = []
        dists = []
        for seed, table in runs:
            if table.shape != truth.shape:
                raise ValueError(
                    f"table shape {table.shape} for {strategy} seed {seed} "
                    f"does not match truth {truth.shape}"
                )
            q = normalise(table)
            dists.append(q.probs)
            divergence = kld(p, q, epsilon)
            if divergence == np.inf:
                raise UsageError(
                    f"the KLD of {strategy} seed {seed} is infinite at epsilon {epsilon}: "
                    f"its table has 0 in a cell the truth fills; use an epsilon above 0"
                )
            entries.append({"seed": seed, "kld": divergence, "table_mae": table_mae(p, q)})
        mean_q = JointDistribution(np.mean(dists, axis=0))
        klds = [e["kld"] for e in entries]
        maes = [e["table_mae"] for e in entries]
        strategies_report[strategy] = {
            "runs": entries,
            "kld_mean": float(np.mean(klds)),
            "kld_std": _sample_std(klds),
            "table_mae_mean": float(np.mean(maes)),
            "table_mae_std": _sample_std(maes),
            "residual_of_mean": residuals(p, mean_q).tolist(),
        }
        kld_by_strategy[strategy] = klds

    kw = kruskal_wallis(list(kld_by_strategy.values()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate pairs are flagged in the result
        pairwise = pairwise_wilcoxon_holm(kld_by_strategy)
    return {
        "schema": "ordsoft.analysis_report-v1",
        "epsilon": epsilon,
        "truth_total": truth.total,
        "strategies": strategies_report,
        "kruskal_wallis": asdict(kw),
        "pairwise": [
            {
                "pair": list(entry["pair"]),
                "statistic": entry["test"].statistic,
                "p_value": entry["test"].p_value,
                "method": entry["test"].method,
                "degenerate": entry["test"].degenerate,
                "p_holm": entry["p_holm"],
            }
            for entry in pairwise
        ],
    }


def _read_table(path: str) -> ContingencyTable:
    """The contingency table at ``path``; one whose counts are all 0, which has no
    joint distribution, is a usage error naming the file."""
    with _reading(path):
        table = ContingencyTable.from_csv(path)
        if table.total == 0:
            raise ValueError("every count is 0, so the table has no joint distribution")
    return table


def cmd_analyze(args) -> int:
    """Analyse the tables ``args.pred`` matches against ``args.truth``. Every fault
    of the tables is a usage error: a second table of one (strategy, seed),
    which names both files, and each ``ValueError`` of ``analyse_tables``."""
    if args.epsilon is not None and not (np.isfinite(args.epsilon) and args.epsilon >= 0):
        raise UsageError(f"--epsilon must be a finite number >= 0, got {args.epsilon}")
    truth = _read_table(args.truth)
    files = sorted(globmod.glob(args.pred))
    if not files:
        raise UsageError(f"no predicted tables match {args.pred!r}")
    predicted: dict[str, list[tuple[int, ContingencyTable]]] = {}
    paths: dict[tuple[str, int], str] = {}  # (strategy, seed) -> the file that holds its table
    for path in files:
        stem = Path(path).stem
        match = _TABLE_NAME.match(stem)
        if not match:
            raise UsageError(
                f"{path}: predicted tables must be named <strategy>_seed<N>.csv"
            )
        run = match["strategy"], int(match["seed"])
        if run in paths:
            raise UsageError(
                f"{paths[run]} and {path} are both the table of {run[0]} seed {run[1]}"
            )
        paths[run] = path
        predicted.setdefault(run[0], []).append((run[1], _read_table(path)))
    try:
        report = analyse_tables(truth, predicted, epsilon=args.epsilon)
    except ValueError as exc:
        # every ValueError of analyse_tables is a fault of the tables it was given
        raise UsageError(str(exc)) from exc
    _emit(_dump_json(report) + "\n", args.out)
    return EXIT_OK


# -------------------------------------------------------------------- parser


def _add_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One flag per field of the dataclass ``cls``, typed as its default (float for
    None), a dataclass field's flags in its place; one not given keeps its default."""
    for f in fields(cls):
        if is_dataclass(f.default):
            _add_flags(parser, type(f.default))
        else:
            kind = float if f.default is None else type(f.default)
            parser.add_argument(f"--{f.name.replace('_', '-')}", type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ordsoft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("softlabels", help="print a soft-target matrix as CSV")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    _add_flags(p, SmoothingParams)
    p.add_argument("--plot-data", action="store_true", help="long-format per-row mass table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_softlabels)

    p = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p.add_argument("--paired", action="store_true", help="paired two-scale dataset")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-class", type=int, default=60)
    p.add_argument("--classes-a", type=int, default=5)
    p.add_argument("--classes-b", type=int, default=4)
    p.add_argument("--n", type=int, default=968)
    p.add_argument("--low-grade-concentration", type=float, default=0.85)
    p.add_argument("--high-grade-spread", type=float, default=0.9)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--noise-sd", type=float, default=0.5)
    p.add_argument("--flip-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", help="paired mode: ground-truth contingency table CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run one configured training run")
    p.add_argument("--data", required=True)
    p.add_argument("--task", default="adhoc")
    p.add_argument("--classes", type=int)
    p.add_argument("--config", help="TrainConfig JSON; flags override")
    _add_flags(p, TrainConfig)
    p.add_argument("--out", help="JSON-lines file to append the run record to")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="run the multi-seed protocol from an experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out-dir", help="override the config output_dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evaluate", help="metric report from a true,pred CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--classes", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="joint-table KLD/residual/statistics report")
    p.add_argument("--truth", required=True, help="ground-truth contingency CSV")
    p.add_argument("--pred", required=True, help="glob of <strategy>_seed<N>.csv tables")
    p.add_argument("--epsilon", type=float,
                   help="KLD smoothing (default: jointanalysis.DEFAULT_KLD_EPSILON, 1e-6)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> int:
    """The process entry of ``ordsoft`` and ``python -m ordsoft.cli``: freeze the
    import heap, then run ``main`` on the command line."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
