"""The three workloads: their inputs, the commands of one round, and their checks.

Each workload runs the real ``ordsoft`` commands. A round is one batch of
commands; the harness repeats whole rounds, so every run attempts the same
operations in the same proportions. Operations are sweep tasks, ``train``
invocations and ``analyze`` calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs


@dataclass
class Command:
    args: list[str]  # ordsoft arguments
    ops: int  # operations this command performs
    after: list[int] = field(default_factory=list)  # commands whose output it reads


class Workload:
    name = ""

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self, out: Path) -> list[Command]:
        """The commands of one round writing under ``out``; valid after ``prepare``."""
        raise NotImplementedError

    def check(self, out: Path) -> None:
        """Raise CheckFailed unless the round's outputs are right."""
        raise NotImplementedError

    def deterministic_files(self, out: Path) -> list[Path]:
        raise NotImplementedError


def _labels(csv_path: Path, column: int = -1) -> np.ndarray:
    lines = csv_path.read_text().splitlines()[1:]
    return np.array([int(line.split(",")[column]) for line in lines if line])


class SingleSweep(Workload):
    """``ordsoft sweep`` on a 970-row 5-grade set, 2 seeds, default search (up to 15 candidates)."""

    name = "sweep_single"

    def prepare(self, root, work, seed):
        self.dataset = inputs.kl_dataset(root, work, inputs.SINGLE_PER_CLASS, seed)
        self.config = inputs.sweep_config(work, self.name, self.dataset, inputs.SINGLE_SEEDS)
        self.labels = _labels(self.dataset)

    def commands(self, out):
        return [Command(["sweep", "--config", str(self.config), "--out-dir", str(out)],
                        len(inputs.STRATEGIES) * inputs.SINGLE_SEEDS)]

    def check(self, out):
        records = checks.read_jsonl(out / "results.jsonl")
        expected = {(s, seed) for s in inputs.STRATEGIES for seed in range(inputs.SINGLE_SEEDS)}
        if {(r["strategy"], r["seed"]) for r in records} != expected or len(records) != len(expected):
            raise checks.CheckFailed("results.jsonl does not hold one record per (strategy, seed)")
        for rec in records:
            where = f"{rec['strategy']} seed {rec['seed']}"
            checks.check_record_metrics(where, rec["metrics"], rec["true_labels"],
                                        rec["predicted_labels"], 5)
            checks.check_holdout(where, rec["true_labels"], self.labels, 5)
            checks.check_in_grid(where, rec["config"], {})
        checks.check_summary(json.loads((out / "summary.json").read_text()), records, "metrics")

    def deterministic_files(self, out):
        return [out / "results.jsonl", out / "summary.json"]


class PairedSweep(Workload):
    """Paired 5x4 sweep over 5 seeds with a reduced search, then ``ordsoft analyze``."""

    name = "sweep_paired"

    def prepare(self, root, work, seed):
        self.dataset = inputs.paired_dataset(root, work, seed)
        self.config = inputs.sweep_config(
            work, self.name, self.dataset, inputs.PAIRED_SEEDS,
            {"max_configs": inputs.PAIRED_MAX_CONFIGS}, inputs.PAIRED_SETTINGS)
        self.labels_a = _labels(self.dataset, -2)
        self.labels_b = _labels(self.dataset, -1)

    def commands(self, out):
        tables = out / "tables"
        return [
            Command(["sweep", "--config", str(self.config), "--out-dir", str(out)],
                    len(inputs.STRATEGIES) * inputs.PAIRED_SEEDS),
            Command(["analyze", "--truth", str(tables / "truth.csv"),
                     "--pred", str(tables / "*_seed*.csv"), "--out", str(out / "analysis.json")],
                    1, after=[0]),
        ]

    def check(self, out):
        records = checks.read_jsonl(out / "results.jsonl")
        space = {"max_configs": inputs.PAIRED_MAX_CONFIGS}
        holdout = int(checks.holdout_counts(np.bincount(self.labels_a), 0.7).sum())
        if len(records) != len(inputs.STRATEGIES) * inputs.PAIRED_SEEDS:
            raise checks.CheckFailed("results.jsonl does not hold one record per (strategy, seed)")
        for rec in records:
            where = f"{rec['strategy']} seed {rec['seed']}"
            checks.check_in_grid(where + " A", rec["config_a"], space)
            checks.check_in_grid(where + " B", rec["config_b"], space)
            table = np.array(rec["table"])
            if table.shape != (5, 4) or int(table.sum()) != holdout:
                raise checks.CheckFailed(f"{where}: table {table.shape} sums to {table.sum()}, "
                                         f"holdout is {holdout}")
            if not np.array_equal(table, checks.read_table_csv(out / rec["table_file"])):
                raise checks.CheckFailed(f"{where}: record table differs from {rec['table_file']}")
        truth = checks.read_table_csv(out / "tables" / "truth.csv")
        if not np.array_equal(truth, checks.confusion(self.labels_a, self.labels_b, 5)[:, :4]):
            raise checks.CheckFailed("truth.csv is not the dataset's joint table")
        # the paired summary is computed from scale A alone
        checks.check_summary(json.loads((out / "summary.json").read_text()), records, "metrics_a")
        checks.check_analysis(json.loads((out / "analysis.json").read_text()),
                              out / "tables" / "truth.csv", out / "tables")

    def deterministic_files(self, out):
        return [out / "results.jsonl", out / "summary.json", out / "analysis.json"]


class FixedTrain(Workload):
    """A batch of ``ordsoft train`` runs on 2170 rows: one fixed config per strategy, 2 seeds.

    Every run trains exactly 100 epochs, so the work is the same for every seed.
    """

    name = "train_fixed"

    def prepare(self, root, work, seed):
        self.dataset = inputs.kl_dataset(root, work, inputs.FIXED_PER_CLASS, seed)
        self.configs = inputs.train_configs(work)
        self.labels = _labels(self.dataset)

    def commands(self, out):
        return [
            Command(["train", "--data", str(self.dataset), "--task", self.name,
                     "--config", str(self.configs[strategy]), "--seed", str(seed),
                     "--out", str(out / "train.jsonl")], 1)
            for seed in inputs.FIXED_SEEDS
            for strategy in inputs.STRATEGIES
        ]

    def check(self, out):
        records = checks.read_jsonl(out / "train.jsonl")
        expected = [(seed, s) for seed in inputs.FIXED_SEEDS for s in inputs.STRATEGIES]
        if [(r["seed"], r["strategy"]) for r in records] != expected:
            raise checks.CheckFailed("train.jsonl does not hold the expected runs in order")
        for rec in records:
            where = f"train {rec['strategy']} seed {rec['seed']}"
            given = {"params": inputs.FIXED_CONFIGS[rec["strategy"]],
                     "learning_rate": inputs.FIXED_LEARNING_RATE,
                     "max_epochs": inputs.FIXED_EPOCHS, "patience": inputs.FIXED_EPOCHS}
            if any(rec["config"][k] != v for k, v in given.items()):
                raise checks.CheckFailed(f"{where}: config {rec['config']} is not the one given")
            checks.check_record_metrics(where, rec["metrics"], rec["true_labels"],
                                        rec["predicted_labels"], 5)
            checks.check_holdout(where, rec["true_labels"], self.labels, 5)

    def deterministic_files(self, out):
        return [out / "train.jsonl"]


WORKLOADS = {w.name: w for w in (SingleSweep(), PairedSweep(), FixedTrain())}
