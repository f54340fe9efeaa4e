"""Run one ``ordsoft`` command with layer spans recorded from outside the program.

    python3 perfbench/tracer.py --spans DIR -- <ordsoft arguments>
    python3 perfbench/tracer.py --probe FILE -- <ordsoft arguments>

``--spans`` wraps the layer-boundary functions listed in ``LAYERS`` wherever a
module of the package holds a reference to them, runs ``ordsoft.cli.main``,
and writes each process's spans as JSON lines to ``DIR/spans-<pid>.jsonl``.
A span is ``[pid, id, parent, name, start, end, info]``: ``parent`` is the
``[pid, id]`` of the enclosing span, times come from the system-wide monotonic
clock. The benchmark runs ``ordsoft`` without its worker pool, so one process
holds every span.

Per-step helpers (``softmax``, ``_batch_gradients``) are deliberately not
wrapped: a span per optimizer step would cost a sizeable share of the step
itself. Steps are derived from each ``train`` call's epochs and batch count.

``--probe`` measures set-up: at the first entry into a fit boundary it writes
the monotonic time to ``FILE`` and kills its own process group.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# layer -> names of module-level functions ("Class.method" for methods).
LAYERS = {
    "cli": ("cmd_sweep", "cmd_train", "cmd_analyze", "analyse_tables", "summarise_records",
            "_map_tasks", "_single_task", "_paired_task", "_read_paired_csv",
            "_write_paired_csv", "_atomic_write"),
    "trainer": ("run_single", "run_paired_single", "random_search", "train", "init_model",
                "stratified_split"),
    "softlabel": ("build_target_matrix",),
    "loss": ("mean_soft_ce", "soft_ce"),
    "metrics": ("compute_report", "qwk", "mae", "amae", "mmae", "min_sensitivity",
                "balanced_accuracy"),
    "jointanalysis": ("kld", "kruskal_wallis", "wilcoxon_signed_rank", "pairwise_wilcoxon_holm",
                      "normalise", "residuals", "table_mae", "ContingencyTable.from_csv",
                      "ContingencyTable.to_csv"),
    "core": ("SampleSet.from_csv", "SampleSet.to_csv", "build_confusion",
             "confusion_from_labels"),
}
TASK_FUNCTIONS = ("cli._single_task", "cli._paired_task")
FIT_BOUNDARIES = ("trainer.random_search", "trainer.init_model", "trainer.train")


def _info(name: str, fn, args: tuple, kwargs: dict, result) -> dict | None:
    """Counts taken from a call's arguments and result."""
    if name == "trainer.train":
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        history = result[1]
        batches = math.ceil(bound["data"].n_samples / bound["config"].batch_size)
        return {"epochs": history.stopped_epoch, "best_epoch": history.best_epoch,
                "steps": history.stopped_epoch * batches}
    if name == "softlabel.build_target_matrix":
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        return {"key": f"{bound['space'].n_classes}|{bound['strategy']}|{bound.get('params')!r}"}
    if name in ("core.SampleSet.from_csv", "cli._read_paired_csv"):
        labels = result.labels if name.startswith("core") else result[1]
        return {"rows": int(len(labels))}
    if name == "jointanalysis.ContingencyTable.from_csv":
        return {"rows": int(result.counts.shape[0])}
    return None


class Tracer:
    """Keeps the spans of one process in memory until ``flush``."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append([os.getpid(), span_id])
            start = time.monotonic()
            info = None
            try:
                result = fn(*args, **kwargs)
                info = _info(name, fn, args, kwargs, result)
                return result
            except BaseException as exc:
                info = {"raised": type(exc).__name__}
                raise
            finally:
                end = time.monotonic()
                self.stack.pop()
                self.spans.append([os.getpid(), span_id, parent, name, start, end, info])

        return wrapper

    def flush(self) -> None:
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ordsoft"]


def _patch(name: str, make_wrapper) -> None:
    """Replace ``layer.func`` (or ``layer.Class.method``) in every module that refers to it."""
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"ordsoft.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[meth]
        func = original.__func__ if isinstance(original, classmethod) else original
        wrapped = make_wrapper(name, func)
        setattr(cls, meth, classmethod(wrapped) if isinstance(original, classmethod) else wrapped)
        return
    original = getattr(module, attr)
    wrapped = make_wrapper(name, original)
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    import ordsoft.cli  # noqa: F401 - loads every module that holds references
    for layer, names in LAYERS.items():
        for fn_name in names:
            _patch(f"{layer}.{fn_name}", tracer.wrap)


def install_probe(out_file: Path) -> None:
    import ordsoft.cli  # noqa: F401

    def make(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out_file.write_text(repr(time.monotonic()))
            os.killpg(os.getpgid(0), signal.SIGKILL)
        return wrapper

    for name in FIT_BOUNDARIES:
        _patch(name, make)


# ---------------------------------------------------------------- analysis

CSV_READS = ("core.SampleSet.from_csv", "cli._read_paired_csv",
             "jointanalysis.ContingencyTable.from_csv")
CSV_WRITES = ("core.SampleSet.to_csv", "cli._write_paired_csv",
              "jointanalysis.ContingencyTable.to_csv")
STAT_TESTS = ("jointanalysis.kruskal_wallis", "jointanalysis.pairwise_wilcoxon_holm",
              "jointanalysis.wilcoxon_signed_rank")
COMMANDS = ("cli.cmd_sweep", "cli.cmd_train", "cli.cmd_analyze")


def load_spans(span_dir: Path) -> list[list]:
    spans = []
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarise(spans: list[list], scale: float) -> dict:
    """Additive per-layer totals of one command's spans (counts, seconds, distinct keys).

    Span times are multiplied by ``scale``, the command's reference seconds per
    measured second, so layer times share the end-to-end metrics' unit.
    """
    by_key = {(s[0], s[1]): s for s in spans}
    children: dict[tuple, list] = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault(tuple(s[2]), []).append(s)

    def ancestors(s):
        while s[2] is not None and tuple(s[2]) in by_key:
            s = by_key[tuple(s[2])]
            yield s[3]

    def self_time(s):
        kids = [(c[4], c[5]) for c in children.get((s[0], s[1]), [])]
        return ((s[5] - s[4]) - _covered(kids, s[4], s[5])) * scale

    t: dict = {"build_keys": set()}

    def add(key, value):
        t[key] = t.get(key, 0) + value

    for s in spans:
        name, dur, info = s[3], (s[5] - s[4]) * scale, s[6] or {}
        layer = name.split(".", 1)[0]
        add(f"{layer}.self_s", self_time(s))
        outer = layer not in {a.split(".", 1)[0] for a in ancestors(s)}
        if name == "trainer.train":
            add("trainer.fits", 1)
            add("trainer.train_s", dur)
            add("trainer.diverged", int(info.get("raised") == "TrainingDiverged"))
            add("trainer.epochs", info.get("epochs", 0))
            add("trainer.best_epochs", info.get("best_epoch", 0))
            add("trainer.steps", info.get("steps", 0))
            if "trainer.random_search" not in ancestors(s):
                add("trainer.final_fit_s", dur)
        elif name == "trainer.random_search":
            add("trainer.search_s", dur)
        elif name == "softlabel.build_target_matrix":
            add("softlabel.builds", 1)
            add("softlabel.build_s", dur)
            t["build_keys"].add(info.get("key"))
        elif name == "cli.analyse_tables":
            add("jointanalysis.analyse_s", dur)
        elif name == "jointanalysis.kld":
            add("jointanalysis.kld_calls", 1)
        elif name in CSV_READS:
            add("core.csv_read_s", dur)
            add("core.csv_rows_read", info.get("rows", 0))
        elif name in CSV_WRITES:
            add("core.csv_write_s", dur)
        elif name in TASK_FUNCTIONS:
            add("cli.tasks", 1)
        if name in COMMANDS:
            add("cli.overhead_s", self_time(s))
        if layer == "loss":
            add("loss.calls", 1)
            add("loss.s", dur)
        if name == "metrics.compute_report":
            add("metrics.reports", 1)
        if layer == "metrics" and outer:
            add("metrics.report_s", dur)
        if name in STAT_TESTS and not any(a in STAT_TESTS for a in ancestors(s)):
            add("jointanalysis.tests_s", dur)
    return t


LAYER_METRICS = {
    # name: unit; counts must repeat exactly between traced rounds of one input
    "trainer.fits": "count", "trainer.epochs": "count", "trainer.steps": "count",
    "trainer.diverged": "count", "trainer.search_s": "s", "trainer.final_fit_s": "s",
    "trainer.train_s": "s", "trainer.step_us": "us", "trainer.useful_epoch_share": "ratio",
    "loss.calls": "count", "loss.s": "s",
    "softlabel.builds": "count", "softlabel.distinct_builds": "count", "softlabel.build_s": "s",
    "metrics.reports": "count", "metrics.report_s": "s",
    "jointanalysis.analyse_s": "s", "jointanalysis.tests_s": "s",
    "jointanalysis.kld_calls": "count",
    "core.csv_rows_read": "count", "core.csv_read_s": "s", "core.csv_write_s": "s",
    "cli.tasks": "count", "cli.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def layer_metrics(totals: list[dict]) -> dict:
    """Per-layer metrics of a round from the per-command totals."""
    t: dict = {}
    keys: set = set()
    for part in totals:
        keys |= part["build_keys"]
        for k, v in part.items():
            if k != "build_keys":
                t[k] = t.get(k, 0) + v
    out = {name: t.get(name, 0) for name in LAYER_METRICS}
    out["softlabel.distinct_builds"] = len(keys)
    steps, epochs = t.get("trainer.steps", 0), t.get("trainer.epochs", 0)
    out["trainer.step_us"] = 1e6 * t.get("trainer.train_s", 0.0) / steps if steps else 0.0
    out["trainer.useful_epoch_share"] = t.get("trainer.best_epochs", 0) / epochs if epochs else 0.0
    return out


# -------------------------------------------------------------------- entry


def main(argv: list[str]) -> int:
    mode, target = argv[0], Path(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py (--spans DIR | --probe FILE) -- <ordsoft args>")
    if mode == "--probe":
        install_probe(target)
        import ordsoft.cli
        return ordsoft.cli.main(argv[3:])
    tracer = Tracer(target)
    install(tracer)
    import ordsoft.cli
    try:
        return ordsoft.cli.main(argv[3:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
