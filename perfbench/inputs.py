"""Input generator: every dataset and config the workloads feed to ``ordsoft``.

All data comes from ``ordsoft synth`` run with the workload seed, as the
program writes it. Only the row counts come from the paper (2172 images, 968
paired radiographs); the grades are balanced, as ``synth --per-class`` makes
them. Everything is written under the run's work directory, which the root
``.gitignore`` excludes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

STRATEGIES = ("nominal", "binomial", "beta", "triangular", "exponential")

KL_GRADES = 5
# rows per grade: 5 x 194 = 970 rows, the size of the single-task baseline in
# ROADMAP.md, and 5 x 434 = 2170, the paper's 2172 images rounded to 5 grades
SINGLE_PER_CLASS = 194
FIXED_PER_CLASS = 434
FLIP_PROB = 0.1  # adjacent-grade label noise
SINGLE_SEEDS = 2  # ROADMAP.md's single-task baseline: 5 strategies x 2 seeds

PAIRED_ROWS = 968
PAIRED_SEEDS = 5  # the fewest `ordsoft analyze` accepts for its Wilcoxon tests
PAIRED_MAX_CONFIGS = 3
PAIRED_SETTINGS = {"max_epochs": 20, "patience": 8}

# One fixed config per strategy for `ordsoft train`.
FIXED_CONFIGS = {
    "nominal": {"eta": 1.0},
    "binomial": {"eta": 1.0},
    "beta": {"eta": 1.0, "concentration": 10.0},
    "triangular": {"eta": 1.0, "alpha": 0.05},
    "exponential": {"eta": 1.0, "p": 1.5},
}
FIXED_LEARNING_RATE = 1e-3
# patience = max_epochs turns early stopping off: every run trains exactly 100
# epochs whatever the seed, so a round's work does not move with the data
FIXED_EPOCHS = 100
FIXED_SEEDS = (0, 1)


def program_env(root: Path) -> dict:
    """Environment for every ``ordsoft`` process: source tree, no pool, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["ORDSOFT_WORKERS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _synth(root: Path, args: list[str]) -> None:
    subprocess.run(
        [sys.executable, "-m", "ordsoft.cli", "synth", *args],
        env=program_env(root),
        check=True,
        stdout=subprocess.DEVNULL,
    )


def kl_dataset(root: Path, work: Path, per_class: int, seed: int) -> Path:
    out = work / f"kl_{KL_GRADES * per_class}.csv"
    _synth(root, ["--classes", str(KL_GRADES), "--per-class", str(per_class),
                  "--flip-prob", str(FLIP_PROB), "--seed", str(seed), "--out", str(out)])
    return out


def paired_dataset(root: Path, work: Path, seed: int) -> Path:
    out = work / f"paired_{PAIRED_ROWS}.csv"
    _synth(root, ["--paired", "--n", str(PAIRED_ROWS), "--classes-a", "5", "--classes-b", "4",
                  "--flip-prob", "0.05", "--seed", str(seed), "--out", str(out)])
    return out


def sweep_config(work: Path, name: str, dataset: Path, n_seeds: int,
                 search_space: dict | None = None, settings: dict | None = None) -> Path:
    config = {
        "task": name,
        "dataset": str(dataset),
        "strategies": list(STRATEGIES),
        "n_seeds": n_seeds,
        "output_dir": str(work / "unused"),
        "search_space": search_space or {},
        "settings": settings or {},
    }
    path = work / f"{name}.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def train_configs(work: Path) -> dict[str, Path]:
    paths = {}
    for strategy, params in FIXED_CONFIGS.items():
        path = work / f"train_{strategy}.json"
        path.write_text(json.dumps({
            "strategy": strategy, "learning_rate": FIXED_LEARNING_RATE, "params": params,
            "max_epochs": FIXED_EPOCHS, "patience": FIXED_EPOCHS,
        }))
        paths[strategy] = path
    return paths
