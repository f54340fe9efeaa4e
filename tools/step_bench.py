"""Time one lockstep training step and one validation block per stack size, on one CPU.

    python3 tools/step_bench.py --tree parent=TREE --tree change=TREE \
        [--members 1,8,15,40,51] [--epochs 15] [--repeats 3] [--cpu N] \
        [--dim 8] [--hidden-width 32] [--out FILE]

Each tree is a checkout of this repository whose ``trainer.init_model`` takes
``(n_features, n_classes, seed, hidden_width)``; a tree whose ``init_model``
takes an architecture first cannot be timed. For each repeat, and each tree in
turn (the order alternating between repeats), a worker process imports
``ordsoft`` from ``TREE/src``, pins itself to CPU ``N`` (default: the last CPU
this process may run on) and, per stack size K, trains K members in one
``trainer._fit_lockstep`` fit for ``--epochs`` epochs with early stopping off,
so no member leaves. The data are ``ordsoft synth``'s 5-grade set of 970 rows
(flip probability 0.1, seed 1) with ``--dim`` features (default 8), split as a
search splits it: 475 training rows in batches of 32 and 204 validation rows,
on an MLP of ``--hidden-width`` units (default 32; so 8 -> 32 -> 5, the
default model) with Adam. The K members differ in learning rate and strategy.

The worker times, with ``time.perf_counter`` wrappers around the trainer's own
functions, every full batch's ``_batch_gradients`` plus ``_Optimizer.update``
(one step) and every ``_mean_soft_ce`` call (one validation block of at most 8
members). A wrapper adds under a microsecond per call, on both trees alike.
The output JSON holds, per tree and K, the minimum and median over every
sample of every repeat, in microseconds, the step minimum per member, and
``arena_bytes``, the sum of ``nbytes`` over the buffers of the fit's one
``trainer._Arena``, its work memory. Each tree's ``src_sha256`` is
``tools/bench_pairs.py``'s digest of its ``src/``, so a step file and a
benchmark file of one tree carry one digest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the digest both bench tools record, from bench_pairs.py beside this file
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import src_digest  # noqa: E402

MEMBERS = (1, 8, 15, 40, 51)


def worker(src: Path, members: list[int], epochs: int, cpu: int, dim: int,
           hidden_width: int) -> dict:
    """Per K in ``members``: the step and validation-block samples, in µs, of one fit."""
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(src))
    import numpy as np
    from ordsoft import trainer
    from ordsoft.softlabel import SmoothingParams
    from ordsoft.synth import SynthSpec, generate

    dataset = generate(SynthSpec(n_classes=5, n_per_class=194, n_features=dim,
                                 adjacent_flip_prob=0.1, seed=1))
    settings = trainer.ProtocolSettings()
    train_idx, _ = trainer.stratified_split(dataset.labels, settings.train_fraction, 0)
    subtrain, val = trainer.validation_split(dataset.subset(train_idx), 0, settings)
    init = trainer.init_model(dataset.n_features, 5, 0, hidden_width)
    strategies = [("nominal", SmoothingParams()), ("triangular", SmoothingParams(alpha=0.05)),
                  ("binomial", SmoothingParams()), ("beta", SmoothingParams(concentration=10.0)),
                  ("exponential", SmoothingParams(p=1.5))]

    samples = {"step": [], "val": []}
    batch_gradients, update, mean_soft_ce = (
        trainer._batch_gradients, trainer._Optimizer.update, trainer._mean_soft_ce)
    pending = {}

    def timed_gradients(weights, grads, x, work):
        pending["full"] = x.shape[0] == settings.batch_size
        pending["start"] = time.perf_counter()
        return batch_gradients(weights, grads, x, work)

    def timed_update(self, params, grads):
        update(self, params, grads)
        if pending.pop("full"):
            samples["step"].append(time.perf_counter() - pending.pop("start"))

    def timed_validation(weights, x, work):
        start = time.perf_counter()
        out = mean_soft_ce(weights, x, work)
        samples["val"].append((weights["w_out"].shape[0], time.perf_counter() - start))
        return out

    arenas = []

    class CountedArena(trainer._Arena):
        def __init__(self, *args):
            super().__init__(*args)
            arenas.append(self)

    trainer._batch_gradients, trainer._mean_soft_ce = timed_gradients, timed_validation
    trainer._Optimizer.update = timed_update
    trainer._Arena = CountedArena
    rows = []
    for n in members:
        configs = [
            trainer.TrainConfig(float(lr), *strategies[i % len(strategies)], seed=0,
                                max_epochs=epochs, patience=epochs)
            for i, lr in enumerate(np.geomspace(1e-4, 1e-2, n))
        ]
        samples["step"], samples["val"] = [], []
        trainer._fit_lockstep(init, subtrain, val, configs)
        (arena,) = arenas
        arenas.clear()
        rows.append({"members": n, "step_us": [1e6 * s for s in samples["step"]],
                     "arena_bytes": sum(buffer.nbytes for buffer in vars(arena).values()
                                        if isinstance(buffer, np.ndarray)),
                     # full blocks only: min(K, 8) members
                     "val_block_us": [1e6 * s for k, s in samples["val"] if k == min(n, 8)]})
    return {"numpy": np.__version__, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=TREE",
                        help="a named checkout to time; give it once per tree")
    parser.add_argument("--members", default=",".join(map(str, MEMBERS)))
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    parser.add_argument("--dim", type=int, default=8, help="features per row")
    parser.add_argument("--hidden-width", type=int, default=32, help="the MLP's hidden units")
    parser.add_argument("--out", type=Path, help="output file (default: stdout)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    members = [int(k) for k in args.members.split(",")]
    if args.worker:
        json.dump(worker(args.worker, members, args.epochs, args.cpu, args.dim,
                         args.hidden_width), sys.stdout)
        return 0
    trees = {}
    for spec in args.tree:
        name, _, tree = spec.partition("=")
        trees[name] = Path(tree).resolve()
        if not (trees[name] / "src" / "ordsoft" / "trainer.py").is_file():
            parser.error(f"--tree {spec}: no src/ordsoft/trainer.py")
    if not trees or min(args.epochs, args.repeats, args.dim, args.hidden_width) < 1:
        parser.error("give at least one --tree, and --epochs, --repeats, --dim and "
                     "--hidden-width of at least 1")

    runs = {name: [] for name in trees}
    for repeat in range(args.repeats):
        order = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
        for name in order:
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", str(trees[name] / "src"), "--members",
                 args.members, "--epochs", str(args.epochs), "--cpu", str(args.cpu),
                 "--dim", str(args.dim), "--hidden-width", str(args.hidden_width)],
                capture_output=True, text=True, check=True)
            runs[name].append(json.loads(proc.stdout))
            print(f"repeat {repeat} {name} done", file=sys.stderr)

    report = {"schema": "step_bench-v1", "cpu": args.cpu, "epochs": args.epochs,
              "repeats": args.repeats, "dim": args.dim, "hidden_width": args.hidden_width,
              "trees": {}}
    for name, results in runs.items():
        table = []
        for i, n in enumerate(members):
            step = [s for r in results for s in r["rows"][i]["step_us"]]
            val = [s for r in results for s in r["rows"][i]["val_block_us"]]
            table.append({
                "members": n, "arena_bytes": results[0]["rows"][i]["arena_bytes"],
                "step_samples": len(step), "val_block_samples": len(val),
                "step_us_min": round(min(step), 1),
                "step_us_median": round(statistics.median(step), 1),
                "step_us_min_per_member": round(min(step) / n, 2),
                "val_block_us_min": round(min(val), 1),
                "val_block_us_median": round(statistics.median(val), 1),
            })
        report["trees"][name] = {"src_sha256": src_digest(trees[name]),
                                 "numpy": results[0]["numpy"], "stacks": table}
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
