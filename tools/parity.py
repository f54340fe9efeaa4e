"""Run a fixed set of ``ordsoft`` commands on two source trees and compare their outputs.

    python3 tools/parity.py --parent TREE --change TREE [--work DIR]

Each tree is a checkout of this repository. The commands run once per tree,
serially (``ORDSOFT_WORKERS=1``), as ``python -m ordsoft.cli`` with
``PYTHONPATH=TREE/src``, each tree in a directory of its own under ``--work``
(default: a new temporary directory) with the same relative paths, so any
difference in an output is a difference of the program. This is the repository's
determinism check. CI runs it twice: with ``--parent . --change .``, two runs of
one tree, which must agree run to run; and, on a pull request, against a
checkout of its base, so a change that moves any output of the set shows it.
The set covers:

- ``synth``: a 400-row 5-grade set, a 460-row 20-grade set, and a 300-row paired
  5x4 set with its truth table;
- ``sweep``: single-scale with the default search (51 candidates, past Adam's
  step 356, members leaving at staggered epochs), a short run with patience 3,
  one under SGD, and a paired sweep followed by ``analyze``;
- ``train``: one record under Adam and one under SGD, set by flags alone; one
  from a config file whose seed and eta the flags override; and one with the
  exponential strategy;
- ``softlabels``: each of the six strategies given every smoothing flag, and
  the ``--plot-data`` table of one;
- ``evaluate``: the metric report of a fixed ``true,pred`` CSV that the tool
  writes beside the configs;
- ``histories.json``: the library's ``trainer.run_single``, default search, on
  the 400-row set under Adam and under SGD, and on the 20-grade set with an
  MLP of hidden width 4, with each winner's epoch losses, best weights and
  holdout probabilities written out in full. The commands' outputs hold argmax
  labels and metrics read off them, which a change in a weight's last bit
  rarely moves; these do not. A product's rounding depends on its shapes, and
  the 20-grade set's 225-row search subtrain leaves a 1-row last batch, so its
  fit shows drift that the default 8 -> 32 -> 5 shapes hide: in the 1-row
  backward product into the hidden layer, in the backward products at width 4
  with 20 grades, and in numpy's pairwise row sums over 8 or more grades. The
  best weights are written as one flat vector, the model's arrays concatenated
  in dict order, so a change of how a model splits its parameters into named
  arrays that keeps their order and values, such as biases kept apart or held
  as the last row of their weight matrix, leaves the file as it was.

Every file the commands write, and each command's standard output, must be
identical on both sides. The script prints each differing or one-sided file
and exits 1 if there is one, or if a command fails on either side; 0 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STRATEGIES = ["nominal", "binomial", "beta", "triangular", "exponential"]

CONFIGS = {
    # 400 rows -> 196 training rows in 7 batches of 32, so 60 epochs run 420 steps
    "single.json": {"task": "parity", "dataset": "data.csv", "strategies": STRATEGIES,
                    "n_seeds": 2, "output_dir": "unused",
                    "settings": {"max_epochs": 60, "patience": 20}},
    "stagger.json": {"task": "parity_stagger", "dataset": "data.csv",
                     "strategies": ["nominal", "beta", "triangular"], "n_seeds": 2,
                     "output_dir": "unused", "search_space": {"max_configs": 6},
                     "settings": {"max_epochs": 20, "patience": 3}},
    "sgd.json": {"task": "parity_sgd", "dataset": "data.csv", "strategies": STRATEGIES,
                 "n_seeds": 2, "output_dir": "unused", "search_space": {"max_configs": 4},
                 "settings": {"max_epochs": 30, "patience": 10, "optimizer": "sgd"}},
    "paired.json": {"task": "parity_paired", "dataset": "paired.csv", "strategies": STRATEGIES,
                    "n_seeds": 2, "output_dir": "unused", "search_space": {"max_configs": 3},
                    "settings": {"max_epochs": 20, "patience": 20}},
    # a train config whose seed and eta the command's flags override
    "train.json": {"strategy": "beta", "learning_rate": 0.01,
                   "params": {"eta": 1.0, "concentration": 10.0}, "seed": 1, "max_epochs": 10,
                   "patience": 10},
}

# the CSV that ``evaluate`` reads: every grade predicted, errors of 0, 1 and 2 grades
PREDICTIONS = "true,pred\n0,0\n0,1\n1,1\n1,0\n1,2\n2,2\n2,1\n2,4\n3,3\n3,2\n4,4\n4,3\n4,2\n"

COMMANDS = [
    ["synth", "--classes", "5", "--per-class", "80", "--flip-prob", "0.1", "--seed", "7",
     "--out", "data.csv"],
    ["synth", "--classes", "20", "--per-class", "23", "--flip-prob", "0.1", "--seed", "7",
     "--out", "grades20.csv"],
    ["synth", "--paired", "--n", "300", "--flip-prob", "0.05", "--seed", "7",
     "--out", "paired.csv", "--truth-out", "truth.csv"],
    ["sweep", "--config", "single.json", "--out-dir", "single"],
    ["sweep", "--config", "stagger.json", "--out-dir", "stagger"],
    ["sweep", "--config", "sgd.json", "--out-dir", "sgd"],
    ["sweep", "--config", "paired.json", "--out-dir", "paired"],
    ["analyze", "--truth", "paired/tables/truth.csv", "--pred", "paired/tables/*_seed*.csv",
     "--out", "paired/analysis.json"],
    ["train", "--data", "data.csv", "--strategy", "triangular", "--alpha", "0.05", "--seed", "1",
     "--max-epochs", "60", "--patience", "60", "--out", "train.jsonl"],
    ["train", "--data", "data.csv", "--strategy", "beta", "--concentration", "10",
     "--optimizer", "sgd", "--learning-rate", "0.05", "--seed", "2", "--max-epochs", "30",
     "--patience", "8", "--out", "train.jsonl"],
    ["train", "--data", "data.csv", "--config", "train.json", "--seed", "2", "--eta", "0.8",
     "--out", "train.jsonl"],
    ["train", "--data", "data.csv", "--strategy", "exponential", "--p", "1.5", "--seed", "1",
     "--max-epochs", "10", "--patience", "10", "--out", "train.jsonl"],
    # every strategy takes every smoothing flag, each reading its own
    *(["softlabels", "--classes", "5", "--strategy", strategy, "--eta", "0.8", "--alpha", "0.05",
       "--p", "1.5", "--concentration", "10", "--out", f"softlabels/{strategy}.csv"]
      for strategy in ["nominal", "nominal_smoothed", "triangular", "binomial", "beta",
                       "exponential"]),
    ["softlabels", "--classes", "5", "--strategy", "beta", "--concentration", "10", "--plot-data",
     "--out", "softlabels/plot_data.csv"],
    ["evaluate", "--predictions", "predictions.csv", "--classes", "5", "--out", "evaluate.json"],
]


# run with ``python -c`` in the working directory, after the commands
HISTORIES = f"""
import json
import numpy as np
from ordsoft.core import LabelSpace, SampleSet
from ordsoft.trainer import ProtocolSettings, SearchSpace, run_single

runs = []
for path, n_classes, settings in (
    ("data.csv", 5, ProtocolSettings(max_epochs=60, patience=20)),
    ("data.csv", 5, ProtocolSettings(max_epochs=30, patience=10, optimizer="sgd")),
    ("grades20.csv", 20, ProtocolSettings(hidden_width=4, max_epochs=30, patience=10)),
):
    data = SampleSet.from_csv(path)
    for result in run_single(data, LabelSpace(n_classes), {STRATEGIES!r}, 3, SearchSpace(),
                             settings):
        history = result.history
        runs.append({{
            "config": history.config.to_dict(), "train_loss": history.train_loss,
            "val_loss": history.val_loss, "best_epoch": history.best_epoch,
            "best_weights": np.concatenate([w.ravel() for w in history.best_weights.values()]
                                           ).tolist(),
            "holdout_probs": result.predictions.predicted_probs.tolist(),
        }})
with open("histories.json", "w") as fh:
    json.dump(runs, fh, sort_keys=True)
"""


def run_side(tree: Path, work: Path) -> list[str]:
    """Run every command on ``tree`` in ``work``; the failures, as messages."""
    work.mkdir(parents=True)
    for name, config in CONFIGS.items():
        (work / name).write_text(json.dumps(config))
    (work / "predictions.csv").write_text(PREDICTIONS)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "ORDSOFT_WORKERS": "1"}
    # an installed ordsoft must not shadow the tree's
    where = subprocess.run([sys.executable, "-c", "import ordsoft; print(ordsoft.__file__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(tree / "src"):
        return [f"imports ordsoft from {where or 'nowhere'}, not from {tree / 'src'}"]
    (work / "stdout").mkdir()
    failures = []
    argvs = [["-m", "ordsoft.cli", *args] for args in COMMANDS] + [["-c", HISTORIES]]
    for i, argv in enumerate(argvs):
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        (work / "stdout" / f"{i}.txt").write_text(proc.stdout)
        if proc.returncode != 0:
            failures.append(f"{' '.join(argv[:3])} #{i} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
    return failures


def differences(parent: Path, change: Path) -> list[str]:
    """The relative paths of the files that differ or exist on one side only."""
    files = {side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    found = [f"only in {side}: {path}" for side, other in (("parent", "change"),
                                                            ("change", "parent"))
             for path in sorted(files[side] - files[other])]
    found += [f"differs: {path}" for path in sorted(files["parent"] & files["change"])
              if not filecmp.cmp(parent / path, change / path, shallow=False)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--work", type=Path, help="directory for both sides' runs (must not exist)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "ordsoft" / "cli.py").is_file():
            parser.error(f"--{side} {tree} has no src/ordsoft/cli.py")
    work = args.work or Path(tempfile.mkdtemp(prefix="ordsoft-parity-"))
    failures = []
    for side, tree in trees.items():
        failures += [f"{side}: {f}" for f in run_side(tree, work / side)]
    found = failures + differences(work / "parent", work / "change")
    n_files = sum(1 for p in (work / "change").rglob("*") if p.is_file())
    for line in found:
        print(line)
    print(f"{len(COMMANDS) + 1} commands per side, {n_files} files compared under {work}: "
          f"{'no difference' if not found else f'{len(found)} problems'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
