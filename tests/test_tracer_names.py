"""The benchmark's tracer patches ``ordsoft`` functions by name; a rename must
fail here rather than crash the benchmark's set-up probe or traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

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


def test_train_returns_the_history_the_tracer_reads():
    from ordsoft.core import SampleSet
    from ordsoft.softlabel import SmoothingParams
    from ordsoft.trainer import TrainConfig, init_model, train

    data = SampleSet(np.arange(24.0).reshape(12, 2) / 24, np.array([0, 1, 2] * 4))
    config = TrainConfig(0.01, "nominal", SmoothingParams(), seed=0, batch_size=5,
                         max_epochs=3, patience=3)
    args = (init_model(2, 3, seed=0), data, config, data)
    fn = _resolve("trainer.train")
    info = _tracer()._info("trainer.train", fn, args, {}, fn(*args))
    # the best epoch is not the last, so the two counts are read apart
    assert info == {"epochs": 3, "best_epoch": 2, "steps": 9}
