"""The pair summary of ``tools/bench_pairs.py``: medians, quartiles, wins and the
gain rule, on made-up runs, and its runs, one process per workload, on fake trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair, side, wall, rss, correct=True, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    if wall is None:
        del metrics["wall_s"]
    line = {"workload": "w", "correct": correct, "failed": failed, "metrics": metrics}
    return {"pair": pair, "side": side, "exit_code": 0, "lines": [line]}


def _crashed(pair, side):
    return {"pair": pair, "side": side, "exit_code": 1, "lines": []}


METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}]


def test_wins_quartiles_and_gain_rule():
    runs = []
    for i in range(10):
        runs.append(_run(i, "parent", 10.0 + i * 0.1, 40.0))
        # the change is faster in 9 pairs, slower in the last; memory ties throughout
        runs.append(_run(i, "change", 8.0 + i * 0.1 if i < 9 else 20.0, 40.0))
    summary = _tool().summarise(runs, METRICS)["w"]
    wall = summary["metrics"]["wall_s"]
    assert (wall["pairs"], wall["reported"], wall["wins"], wall["ties"]) == (10, 10, 9, 0)
    assert wall["parent"]["median"] == pytest.approx(10.45)
    # statistics.quantiles' default (exclusive) method, as perfbench/README.md defines them
    assert wall["parent"]["q1"] == pytest.approx(10.175)
    assert wall["parent"]["q3"] == pytest.approx(10.725)
    assert wall["gain_rule_met"] is True
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["ties"], rss["change_rel"]) == (0, 10, 0.0)
    assert rss["gain_rule_met"] is False
    assert summary["parent"] == {"runs": 10, "correct": 10, "failed_ops": 0}


def test_gain_rule_needs_nine_tenths_of_the_pairs():
    runs = []
    for i in range(10):
        runs.append(_run(i, "parent", 10.0, 40.0))
        runs.append(_run(i, "change", 5.0 if i < 8 else 11.0, 40.0, correct=i != 3))
    summary = _tool().summarise(runs, METRICS)["w"]
    assert summary["metrics"]["wall_s"]["wins"] == 8
    assert summary["metrics"]["wall_s"]["gain_rule_met"] is False
    assert summary["change"]["correct"] == 9


def test_gain_rule_counts_every_pair_run():
    # the change wins every pair it reports, but reports wall_s in only 8 of 10
    runs = []
    for i in range(10):
        runs.append(_run(i, "parent", 10.0, 40.0))
        runs.append(_run(i, "change", 5.0 if i < 8 else None, 40.0))
    wall = _tool().summarise(runs, METRICS)["w"]["metrics"]["wall_s"]
    assert (wall["pairs"], wall["reported"], wall["wins"]) == (10, 8, 8)
    assert wall["change"]["n"] == 8
    assert wall["gain_rule_met"] is False
    # one pair where the change run printed no line at all: 9 wins of 10, but a run is lost
    runs = []
    for i in range(10):
        runs.append(_run(i, "parent", 10.0, 40.0))
        runs.append(_run(i, "change", 5.0, 40.0) if i < 9 else _crashed(i, "change"))
    summary = _tool().summarise(runs, METRICS)["w"]
    assert (summary["metrics"]["wall_s"]["pairs"], summary["metrics"]["wall_s"]["wins"]) == (10, 9)
    assert summary["change"] == {"runs": 9, "correct": 9, "failed_ops": 0}
    assert summary["metrics"]["wall_s"]["gain_rule_met"] is False


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_gain_rule_fails_when_the_change_fails_more(correct, failed):
    runs = []
    for i in range(10):
        runs.append(_run(i, "parent", 10.0 + i * 0.01, 40.0))
        bad = i == 4
        runs.append(_run(i, "change", 5.0, 40.0, correct=correct if bad else True,
                         failed=failed if bad else 0))
    wall = _tool().summarise(runs, METRICS)["w"]["metrics"]["wall_s"]
    assert wall["wins"] == 10
    assert wall["gain_rule_met"] is False


FAKE_RUN = '''\
"""Stands in for perfbench/run.py: logs its arguments, prints one untagged line."""
import json, sys
from pathlib import Path

root = Path(__file__).resolve().parents[1]
args = sys.argv[1:]
with open(root / "calls.log", "a") as fh:
    fh.write(" ".join(args) + "\\n")
workload = args[args.index("--workload") + 1]
rss = {"parent": 40.0, "change": 39.0}[root.name] + {"a": 0.0, "b": 10.0}[workload]
print("warming up")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": rss, "unit": "MiB"}}}))
'''


def test_main_runs_each_workload_in_its_own_process(tmp_path):
    spec = {"workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
                            "bound": 0.1}]}
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / side / "src").mkdir()
        (tmp_path / side / "src" / "module.py").write_text(f"# {side}\n")
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    out = tmp_path / "BENCH_fake.json"
    assert _tool().main(["--parent", str(tmp_path / "parent"), "--change",
                         str(tmp_path / "change"), "--pairs", "2", "--seed", "5",
                         "--seconds", "0", "--tag", "fake", "--out", str(out)]) == 0

    for side in ("parent", "change"):
        calls = (tmp_path / side / "calls.log").read_text().splitlines()
        # one process per workload and pair, never --workload all
        assert calls == [f"--workload {w} --seed 5 --seconds 0.0 --trace 0"
                         for _ in range(2) for w in ("a", "b")]
    report = json.loads(out.read_text())
    assert [(r["pair"], r["workload"], r["side"]) for r in report["runs"]] == [
        (0, "a", "parent"), (0, "a", "change"), (0, "b", "parent"), (0, "b", "change"),
        (1, "a", "change"), (1, "a", "parent"), (1, "b", "change"), (1, "b", "parent"),
    ]
    for run in report["runs"]:
        (line,) = run["lines"]
        assert line["workload"] == run["workload"]
    assert report["workloads"] == ["a", "b"]
    assert report["src_sha256"]["parent"] != report["src_sha256"]["change"]
    for workload, base in (("a", 40.0), ("b", 50.0)):
        entry = report["summary"][workload]
        assert entry["parent"] == entry["change"] == {"runs": 2, "correct": 2, "failed_ops": 0}
        rss = entry["metrics"]["peak_rss_mb"]
        assert (rss["parent"]["median"], rss["change"]["median"]) == (base, base - 1.0)
        assert (rss["pairs"], rss["wins"], rss["gain_rule_met"]) == (2, 2, True)


def test_both_bench_tools_give_one_digest_for_one_tree(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "schemas").mkdir(parents=True)
    (package / "__pycache__").mkdir()
    (package / "module.py").write_text("x = 1\n")
    (package / "schemas" / "record.json").write_text("{}\n")
    (package / "__pycache__" / "module.cpython-311.pyc").write_bytes(b"\0")
    step_bench = _tool(TOOL.with_name("step_bench.py"))
    assert step_bench.src_digest(tmp_path) == _tool().src_digest(tmp_path)
