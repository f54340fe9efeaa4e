"""Run the benchmark on two source trees in alternating pairs and summarise them.

    python3 tools/bench_pairs.py --parent TREE --change TREE --pairs 10 \
        --seed 61 --seconds 15 --tag NAME [--out FILE]

Each tree is a checkout of this repository. Pair i runs, for each workload
that the parent's ``BENCHMARK.json`` names in turn,
``python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0`` once
in each tree, the parent first in even pairs and the change first in odd ones,
one run at a time. Each workload runs in a process of its own, so no run
inherits the memory high-water mark of another workload's checks; a
single-workload run prints its line without a ``workload`` key, so each line is
tagged with the workload it ran. The benchmark is only run as a command, never
imported or changed. ``BENCH_<tag>.json`` (or ``--out``) gets every run's JSON
lines and, per workload and end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles (``statistics.quantiles(n=4)``, as
``perfbench/README.md`` defines them), the change's win count over all pairs
run (a pair where either side did not report the metric counts as a loss, a
tie counts for neither side), and whether the gain rule holds: wins in at least nine tenths of the
pairs run, a median gap wider than the parent's interquartile range, and no
fewer correct runs and no more failed operations on the change's side. Each
side is identified by a SHA-256 of its ``src/`` files, so the result can be
matched to a commit later.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def src_digest(tree: Path) -> str:
    """SHA-256 over the relative paths and bytes of the files under ``tree/src``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (tree / "src").rglob("*") if p.is_file()):
        if "__pycache__" in path.parts or path.suffix == ".pyc" or ".egg-info" in str(path):
            continue
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def benchmark_argv(workload: str, seed: int, seconds: float) -> list[str]:
    """The benchmark command of one run: one workload, untraced."""
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of ``workload`` in ``tree``: its exit code and the JSON
    lines it printed, each tagged with the workload."""
    proc = subprocess.run([sys.executable, *benchmark_argv(workload, seed, seconds)], cwd=tree,
                          capture_output=True, text=True)
    lines = [{**json.loads(text), "workload": workload}
             for text in proc.stdout.splitlines() if text.startswith("{")]
    return {"exit_code": proc.returncode, "lines": lines, "stderr_tail": proc.stderr[-2000:]}


def quartiles(values: list[float]) -> dict | None:
    if not values:
        return None
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: run counts, and per metric the sides' spreads and the pair wins."""
    pairs = sorted({r["pair"] for r in runs})
    lines = {}  # (pair, side, workload) -> line
    for r in runs:
        for line in r["lines"]:
            lines[(r["pair"], r["side"], line["workload"])] = line
    workloads = sorted({key[2] for key in lines})
    summary = {}
    for wl in workloads:
        entry = {side: {"runs": 0, "correct": 0, "failed_ops": 0} for side in SIDES}
        for (_, side, name), line in lines.items():
            if name == wl:
                entry[side]["runs"] += 1
                entry[side]["correct"] += bool(line.get("correct"))
                entry[side]["failed_ops"] += line.get("failed", 0)
        no_worse = (entry["change"]["correct"] >= entry["parent"]["correct"]
                    and entry["change"]["failed_ops"] <= entry["parent"]["failed_ops"])
        entry["metrics"] = {}
        for metric in metrics:
            name, lower = metric["name"], metric.get("better", "lower") == "lower"
            values = {i: [lines.get((i, side, wl), {}).get("metrics", {}).get(name, {})
                          .get("value") for side in SIDES] for i in pairs}
            if all(v == [None, None] for v in values.values()):
                continue
            paired = [v for v in values.values() if None not in v]
            parent = quartiles([p for p, _ in values.values() if p is not None])
            change = quartiles([c for _, c in values.values() if c is not None])
            wins = sum((c < p) if lower else (c > p) for p, c in paired)
            ties = sum(c == p for p, c in paired)
            gain = False
            change_rel = None
            if parent and change:
                gap = change["median"] - parent["median"]
                if parent["median"]:
                    change_rel = gap / parent["median"]
                if lower:
                    gap = -gap
                gain = no_worse and wins >= 0.9 * len(pairs) and gap > parent["iqr"]
            entry["metrics"][name] = {
                "unit": metric.get("unit"),
                "better": metric.get("better", "lower"),
                "bound": metric.get("bound"),
                "parent": parent,
                "change": change,
                "change_rel": change_rel,
                "pairs": len(pairs),
                "reported": len(paired),
                "wins": wins,
                "ties": ties,
                "gain_rule_met": gain,
            }
        summary[wl] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<tag>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {tree} has no perfbench/run.py")
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    out = args.out or Path(f"BENCH_{args.tag}.json")

    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_benchmark(trees[side], workload, args.seed, args.seconds)
                runs.append({"pair": i, "side": side, "workload": workload, **result})
                wall = [line.get("metrics", {}).get("wall_s", {}).get("value")
                        for line in result["lines"]]
                print(f"pair {i} {workload} {side}: exit {result['exit_code']} wall_s {wall}",
                      file=sys.stderr)
    report = {
        "schema": "bench_pairs-v1",
        "tag": args.tag,
        "command": ["python3", *benchmark_argv("NAME", args.seed, args.seconds)],
        "workloads": workloads,
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "src_sha256": {side: src_digest(tree) for side, tree in trees.items()},
        "summary": summarise(runs, spec["end_to_end"]),
        "runs": runs,
    }
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["exit_code"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
