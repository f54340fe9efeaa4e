"""The benchmark's tracer patches ``ordsoft`` functions by name; a rename must
fail here rather than crash the benchmark's set-up probe or traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name: str):
    layer, _, attr = name.partition(".")
    obj = importlib.import_module(f"ordsoft.{layer}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves():
    tracer = _tracer()
    names = [f"{layer}.{fn}" for layer, fns in tracer.LAYERS.items() for fn in fns]
    names += list(tracer.FIT_BOUNDARIES) + list(tracer.TASK_FUNCTIONS)
    for name in names:
        assert callable(_resolve(name)), name


def test_train_binds_the_arguments_the_tracer_reads():
    params = inspect.signature(_resolve("trainer.train")).parameters
    assert {"data", "config"} <= set(params)
