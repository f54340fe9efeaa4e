"""Command-line surface: formats, exit codes, determinism and schema validity."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from ordsoft.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main, run, summarise_records
from ordsoft.core import LabelSpace
from ordsoft.softlabel import STRATEGIES, STRATEGY_RULES, SmoothingParams, build_target_matrix
from ordsoft.trainer import TrainConfig

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "ordsoft" / "schemas"


def _validator(name: str) -> Draft202012Validator:
    schemas = {}
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        schemas[schema["$id"]] = schema
        registry = registry.with_resource(schema["$id"], Resource.from_contents(schema))
    return Draft202012Validator(schemas[name], registry=registry)


def _validate(name: str, doc: dict) -> None:
    _validator(name).validate(doc)


# a valid value of each ``SmoothingParams`` field, given as its flag
SMOOTHING = {"eta": 0.8, "alpha": 0.05, "p": 1.5, "concentration": 10.0}
SMOOTHING_FLAGS = [arg for name, value in SMOOTHING.items() for arg in (f"--{name}", str(value))]


def test_smoothing_flags_cover_every_smoothing_field():
    assert list(SMOOTHING) == [f.name for f in dataclasses.fields(SmoothingParams)]


# ---------------------------------------------------------------- softlabels


def test_softlabels_triangular_matrix(capsys):
    assert main(["softlabels", "--classes", "4", "--strategy", "triangular",
                 "--alpha", "0.10", "--eta", "1.0"]) == EXIT_OK
    rows = [list(map(float, line.split(","))) for line in capsys.readouterr().out.splitlines()]
    np.testing.assert_allclose(rows[0], [0.9, 0.1, 0, 0])
    np.testing.assert_allclose(rows[1], [0.1, 0.8, 0.1, 0])


def test_softlabels_nominal_identity(capsys):
    assert main(["softlabels", "--classes", "5", "--strategy", "nominal"]) == EXIT_OK
    rows = [list(map(float, line.split(","))) for line in capsys.readouterr().out.splitlines()]
    np.testing.assert_array_equal(np.asarray(rows), np.eye(5))


def test_softlabels_exponential_row(capsys):
    assert main(["softlabels", "--classes", "4", "--strategy", "exponential", "--p", "1.0"]) == EXIT_OK
    first = list(map(float, capsys.readouterr().out.splitlines()[0].split(",")))
    np.testing.assert_allclose(first, [0.6439, 0.2369, 0.0871, 0.0321], atol=1e-4)


def test_softlabels_plot_data(capsys):
    assert main(["softlabels", "--classes", "3", "--strategy", "binomial", "--plot-data"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "strategy,true_grade,grade,mass"
    assert len(lines) == 1 + 9


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_softlabels_takes_every_smoothing_field_as_a_flag(capsys, strategy):
    assert main(["softlabels", "--classes", "5", "--strategy", strategy, *SMOOTHING_FLAGS]) == EXIT_OK
    rows = [list(map(float, line.split(","))) for line in capsys.readouterr().out.splitlines()]
    expected = build_target_matrix(LabelSpace(5), strategy, SmoothingParams(**SMOOTHING)).rows
    assert np.asarray(rows).tobytes() == expected.tobytes()


def test_softlabels_bad_params_is_usage_error(capsys):
    assert main(["softlabels", "--classes", "4", "--strategy", "triangular"]) == EXIT_USAGE
    assert main(["softlabels", "--classes", "4", "--strategy", "beta", "--eta", "1.5",
                 "--concentration", "5"]) == EXIT_USAGE
    assert main(["softlabels", "--classes", "4"]) == EXIT_USAGE  # missing --strategy


# --------------------------------------------------------------------- synth


def test_synth_writes_deterministic_csv(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["synth", "--classes", "3", "--per-class", "8", "--flip-prob", "0.2", "--seed", "4"]
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().splitlines()[0].endswith(",label")


def test_synth_paired_writes_dataset_and_truth(tmp_path):
    out = tmp_path / "paired.csv"
    truth = tmp_path / "truth.csv"
    assert main([
        "synth", "--paired", "--classes-a", "4", "--classes-b", "3", "--n", "200",
        "--seed", "1", "--out", str(out), "--truth-out", str(truth),
    ]) == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header.endswith("label_a,label_b")
    truth_lines = truth.read_text().splitlines()
    assert truth_lines[0].startswith("A\\B")
    counts = np.array([[int(v) for v in line.split(",")[1:]] for line in truth_lines[1:]])
    assert counts.sum() == 200


@pytest.mark.parametrize("paired", [False, True])
def test_synth_creates_the_missing_directories_of_its_outputs(tmp_path, paired):
    out, truth = tmp_path / "data" / "new" / "set.csv", tmp_path / "tables" / "truth.csv"
    args = ["synth", "--n", "60", "--per-class", "8", "--seed", "3", "--out", str(out)]
    args += ["--paired", "--truth-out", str(truth)] if paired else []
    assert main(args) == EXIT_OK
    assert out.read_text().splitlines()[0].endswith("label_a,label_b" if paired else ",label")
    assert truth.exists() == paired


def test_synth_invalid_spec_usage_error(tmp_path):
    assert main(["synth", "--classes", "1", "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE


@pytest.mark.parametrize("flag, value", [
    ("--flip-prob", "0.7"), ("--flip-prob", "-1"), ("--noise-sd", "0"), ("--dim", "1"),
])
def test_synth_paired_bad_noise_or_features_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "paired.csv"
    # paired data takes single data's checks; --dim 1 leaves no axis for scale B
    assert main(["synth", "--paired", "--n", "50", flag, value, "--out", str(out)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ train/evaluate


def test_train_appends_valid_record(tmp_path):
    data = tmp_path / "data.csv"
    out = tmp_path / "runs.jsonl"
    main(["synth", "--classes", "3", "--per-class", "30", "--noise-sd", "0.4",
          "--flip-prob", "0.1", "--seed", "2", "--out", str(data)])
    assert main([
        "train", "--data", str(data), "--strategy", "triangular", "--alpha", "0.05",
        "--eta", "0.8", "--learning-rate", "0.01", "--seed", "3",
        "--max-epochs", "8", "--patience", "8", "--out", str(out),
    ]) == EXIT_OK
    record = json.loads(out.read_text().splitlines()[0])
    _validate("ordsoft.run_record-v1", record)
    assert record["strategy"] == "triangular"
    assert record["config"]["params"]["alpha"] == 0.05
    # every smoothing field is a flag of train too, and lands in the record's params
    # through a strategy that reads it
    for name in SMOOTHING:
        strategy = next(s for s, (reads, _) in STRATEGY_RULES.items() if name in reads)
        given = {n: SMOOTHING[n] for n in STRATEGY_RULES[strategy][0]}
        flags = [arg for n, value in given.items() for arg in (f"--{n}", str(value))]
        assert main(["train", "--data", str(data), "--strategy", strategy, *flags,
                     "--max-epochs", "2", "--patience", "2", "--out", str(out)]) == EXIT_OK
        record = json.loads(out.read_text().splitlines()[-1])
        assert (record["strategy"], record["config"]["params"]) == (strategy, {"eta": 1.0, **given})


def test_train_creates_the_missing_directory_of_its_record_before_the_fit(tmp_path, monkeypatch):
    import ordsoft.cli as cli

    data, out = tmp_path / "data.csv", tmp_path / "runs" / "new" / "records.jsonl"
    main(["synth", "--classes", "3", "--per-class", "20", "--seed", "2", "--out", str(data)])
    run_fixed, made = cli.run_fixed, []

    def spy(*args):
        made.append(out.parent.is_dir())
        return run_fixed(*args)

    monkeypatch.setattr(cli, "run_fixed", spy)
    for _ in range(2):
        assert main(["train", "--data", str(data), "--max-epochs", "2", "--patience", "2",
                     "--out", str(out)]) == EXIT_OK
    assert made == [True, True]
    assert len(out.read_text().splitlines()) == 2


def test_train_rejects_a_smoothing_field_its_strategy_does_not_read(tmp_path, capsys):
    data = tmp_path / "data.csv"
    out = tmp_path / "runs.jsonl"
    main(["synth", "--classes", "3", "--per-class", "10", "--seed", "2", "--out", str(data)])
    short = ["--max-epochs", "2", "--patience", "2", "--out", str(out)]
    cases = [
        ("beta", SMOOTHING_FLAGS, "alpha"),
        ("nominal", ["--eta", "0.5"], "eta"),
        ("binomial", ["--p", "1.5"], "p"),
        ("triangular", ["--alpha", "0.05", "--concentration", "10"], "concentration"),
    ]
    for strategy, flags, field in cases:
        assert main(["train", "--data", str(data), "--strategy", strategy, *flags,
                     *short]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{strategy} strategy does not read {field}" in err, err
    # so does a config file's field
    config = tmp_path / "config.json"
    config.write_text('{"strategy": "exponential", "params": {"p": 1.5, "concentration": 5}}')
    assert main(["train", "--data", str(data), "--config", str(config), *short]) == EXIT_USAGE
    assert "exponential strategy does not read concentration" in capsys.readouterr().err
    assert not out.exists()
    # a field given at its default is what the record holds anyway
    assert main(["train", "--data", str(data), "--strategy", "nominal", "--eta", "1.0",
                 *short]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["params"] == {"eta": 1.0}


def test_train_flags_are_the_train_config_fields():
    args = vars(build_parser().parse_args(["train", "--data", "data.csv"]))
    flags = set(args) - {"command", "func", "data", "task", "classes", "config", "out"}
    names = {f.name for f in dataclasses.fields(TrainConfig)} - {"params"}
    assert flags == names | {f.name for f in dataclasses.fields(SmoothingParams)}


def test_train_flags_override_the_config_file_which_overrides_the_defaults(tmp_path):
    data, config, out = tmp_path / "data.csv", tmp_path / "config.json", tmp_path / "runs.jsonl"
    main(["synth", "--classes", "3", "--per-class", "10", "--seed", "2", "--out", str(data)])
    config.write_text(json.dumps({"strategy": "beta", "learning_rate": 0.01, "seed": 1,
                                  "params": {"eta": 1.0, "concentration": 10.0},
                                  "max_epochs": 3, "patience": 3}))
    assert main(["train", "--data", str(data), "--config", str(config), "--seed", "2",
                 "--eta", "0.8", "--out", str(out)]) == EXIT_OK
    record = json.loads(out.read_text())
    # batch_size and optimizer, which neither gives, keep TrainConfig's defaults
    expected = TrainConfig(learning_rate=0.01, strategy="beta", seed=2, max_epochs=3, patience=3,
                           params=SmoothingParams(eta=0.8, concentration=10.0))
    assert (record["seed"], record["config"]) == (2, expected.to_dict())


@pytest.mark.parametrize("flags, message", [
    (["--strategy", "bogus"], "unknown strategy 'bogus'"),
    (["--optimizer", "rmsprop"], "unknown optimizer 'rmsprop'"),
    (["--strategy", "triangular"], "triangular strategy requires alpha"),
    (["--seed", "1.5"], "invalid int value: '1.5'"),
])
def test_train_bad_run_flag_is_usage_error(tmp_path, capsys, flags, message):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "3", "--per-class", "10", "--seed", "2", "--out", str(data)])
    assert main(["train", "--data", str(data), "--max-epochs", "2", "--patience", "2",
                 *flags]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--learning-rate", "--batch-size", "--max-epochs", "--patience"])
def test_train_zero_flag_is_usage_error(tmp_path, capsys, flag):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "3", "--per-class", "10", "--seed", "2", "--out", str(data)])
    # a given 0 reaches TrainConfig's checks instead of falling back to a default
    assert main(["train", "--data", str(data), "--max-epochs", "40", "--patience", "2",
                 flag, "0"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_train_labels_outside_classes_is_usage_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "5", "--per-class", "10", "--seed", "2", "--out", str(data)])
    assert main(["train", "--data", str(data), "--classes", "3"]) == EXIT_USAGE
    assert "labels [3, 4]" in capsys.readouterr().err
    assert main(["train", "--data", str(data), "--classes", "1"]) == EXIT_USAGE


@pytest.mark.parametrize("case", ["header_only", "negative_grade"])
def test_train_without_rows_or_with_a_negative_grade_is_usage_error(tmp_path, capsys, case):
    data = tmp_path / "data.csv"
    if case == "header_only":
        data.write_text("f0,f1,label\n")
    else:
        data.write_text("f0,f1,label\n0.1,0.2,0\n0.3,0.4,-1\n0.5,0.6,1\n")
    assert main(["train", "--data", str(data)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and str(data) in err


def test_train_malformed_config_is_usage_error_naming_it(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "3", "--per-class", "10", "--seed", "2", "--out", str(data)])
    config = tmp_path / "config.json"
    # not JSON, JSON that is no object, params that are no object, and unknown keys
    cases = [("{bad", ""), ("[]", ""), ('{"params": [1]}', "params"),
             ('{"learning_rte": 0.5}', "learning_rte"), ('{"params": {"conc": 3}}', "conc")]
    for text, key in cases:
        config.write_text(text)
        assert main(["train", "--data", str(data), "--config", str(config)]) == EXIT_USAGE, text
        err = capsys.readouterr().err
        assert "usage error" in err and str(config) in err and key in err, err
    # wrong-typed values name their key; a boolean is no number, an integer is one
    for text, key in (('{"learning_rate": "a"}', "learning_rate"), ('{"seed": 1.5}', "seed"),
                      ('{"max_epochs": true}', "max_epochs"),
                      ('{"params": {"eta": null}}', "eta"), ('{"strategy": ["a"]}', "strategy"),
                      ('{"strategy": "beta", "params": {"concentration": "5"}}', "concentration")):
        config.write_text(text)
        assert main(["train", "--data", str(data), "--config", str(config)]) == EXIT_USAGE, text
        err = capsys.readouterr().err
        assert "usage error" in err and f"{key} must be" in err, err
    config.write_text('{"learning_rate": 1, "params": {"eta": 1}, "max_epochs": 2, "patience": 2}')
    assert main(["train", "--data", str(data), "--config", str(config)]) == EXIT_OK


@pytest.mark.parametrize("flags, config", [
    (["--eta", "2"], None),
    (["--strategy", "triangular", "--alpha", "0.7"], None),
    ([], {"strategy": "bogus"}),
    ([], {"strategy": "triangular", "params": {"eta": 1.0}}),  # no alpha
])
def test_train_bad_smoothing_or_strategy_is_usage_error(tmp_path, capsys, flags, config):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "3", "--per-class", "10", "--seed", "2", "--out", str(data)])
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        flags = flags + ["--config", str(tmp_path / "config.json")]
    args = ["train", "--data", str(data), "--max-epochs", "2", "--patience", "2"]
    assert main(args + flags) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_evaluate_reports_metrics(tmp_path, capsys):
    pred = tmp_path / "preds.csv"
    pred.write_text("true,pred\n0,0\n1,1\n1,0\n2,2\n")
    assert main(["evaluate", "--predictions", str(pred)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    _validate("ordsoft.metric_report-v1", report)
    assert report["mae"] == pytest.approx(0.25)


def test_evaluate_of_a_train_records_holdout_pairs_is_the_records_metrics(tmp_path, capsys):
    data, out, pairs = tmp_path / "data.csv", tmp_path / "runs.jsonl", tmp_path / "holdout.csv"
    main(["synth", "--classes", "5", "--per-class", "20", "--flip-prob", "0.1", "--seed", "7",
          "--out", str(data)])
    assert main(["train", "--data", str(data), "--strategy", "triangular", "--alpha", "0.05",
                 "--seed", "1", "--max-epochs", "10", "--patience", "10",
                 "--out", str(out)]) == EXIT_OK
    record = json.loads(out.read_text())
    rows = zip(record["true_labels"], record["predicted_labels"])
    pairs.write_text("true,pred\n" + "".join(f"{t},{p}\n" for t, p in rows))
    assert main(["evaluate", "--predictions", str(pairs), "--classes", "5"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == record["metrics"]


def test_evaluate_zero_classes_is_usage_error(tmp_path, capsys):
    pred = tmp_path / "preds.csv"
    pred.write_text("true,pred\n0,0\n1,1\n2,2\n")
    # a given 0 reaches LabelSpace instead of falling back to the inferred count
    assert main(["evaluate", "--predictions", str(pred), "--classes", "0"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_evaluate_labels_outside_classes_is_usage_error(tmp_path, capsys):
    pred = tmp_path / "preds.csv"
    pred.write_text("true,pred\n0,1\n4,2\n3,3\n")
    assert main(["evaluate", "--predictions", str(pred), "--classes", "3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "labels [3, 4]" in err and str(pred) in err
    assert main(["evaluate", "--predictions", str(pred), "--classes", "5"]) == EXIT_OK


def test_evaluate_header_only_is_usage_error(tmp_path, capsys):
    pred = tmp_path / "preds.csv"
    pred.write_text("true,pred\n")
    assert main(["evaluate", "--predictions", str(pred)]) == EXIT_USAGE
    assert str(pred) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate", "sweep", "analyze_truth", "analyze_pred"])
def test_empty_csv_is_usage_error(tmp_path, capsys, command):
    empty = tmp_path / "empty_seed0.csv"
    empty.write_text("")
    table = tmp_path / "table.csv"
    _write_table(table, [[5, 5], [5, 5]])
    argv = {
        "train": ["train", "--data", str(empty)],
        "evaluate": ["evaluate", "--predictions", str(empty)],
        "sweep": ["sweep", "--config", str(_write_sweep_config(tmp_path, empty, ["nominal"])[0])],
        "analyze_truth": ["analyze", "--truth", str(empty), "--pred", str(table)],
        "analyze_pred": ["analyze", "--truth", str(table), "--pred", str(empty)],
    }[command]
    assert main(argv) == EXIT_USAGE
    assert f"{empty}: empty file" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("evaluate", "true,pred\n0,1\n1,x\n"),
    ("evaluate", "true,pred\n0,1\n1\n"),
    ("analyze_truth", "A\\B,0,1\n0,5,x\n1,5,5\n"),
    ("analyze_truth", "A\\B,0,1\n0,5,5\n1,5\n"),
    ("analyze_pred", "A\\B,0,1\n0,5,5\n1,5,5,5\n"),
    ("train", "f0,f1,label\n0.1,0.2,0\n0.3,0.4,1.5\n"),
    ("train", "f0,f1,label\n0.1,0.2,0\n0.3,0.4,1e0\n"),
    ("train", "f0,f1,label\n0.1,0.2,0\n#0.3,0.4,1\n"),
], ids=["evaluate_non_integer", "evaluate_short_row", "analyze_non_integer",
        "analyze_short_row", "analyze_long_row", "train_fractional_label",
        "train_exponent_label", "train_comment"])
def test_malformed_csv_is_usage_error_naming_it(tmp_path, capsys, command, text):
    bad = tmp_path / "bad_seed0.csv"
    bad.write_text(text)
    table = tmp_path / "table.csv"
    _write_table(table, [[5, 5], [5, 5]])
    argv = {
        "evaluate": ["evaluate", "--predictions", str(bad)],
        "analyze_truth": ["analyze", "--truth", str(bad), "--pred", str(table)],
        "analyze_pred": ["analyze", "--truth", str(table), "--pred", str(bad)],
        "train": ["train", "--data", str(bad)],
    }[command]
    assert main(argv) == EXIT_USAGE
    assert f"usage error: {bad}: " in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["short_row", "long_row", "nan", "inf"])
@pytest.mark.parametrize("command", ["train", "sweep", "paired_sweep"])
def test_bad_labelled_csv_row_is_usage_error_naming_it(tmp_path, capsys, command, fault):
    if command == "paired_sweep":
        lines = _paired_dataset(tmp_path).read_text().splitlines()
    else:
        source = tmp_path / "source.csv"
        main(["synth", "--classes", "3", "--per-class", "10", "--seed", "2", "--out", str(source)])
        lines = source.read_text().splitlines()
    rest = lines[-1].split(",", 1)[1]
    lines[-1] = {
        "short_row": lines[-1].rsplit(",", 1)[0],  # one cell fewer than the header
        "long_row": lines[-1] + ",0",  # its extra cell used to be dropped
        "nan": "nan," + rest,
        "inf": "inf," + rest,  # used to train on, or to score as grade 0
    }[fault]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "runs.jsonl"
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=1)
    argv = (["train", "--data", str(data), "--max-epochs", "2", "--out", str(out)]
            if command == "train" else ["sweep", "--config", str(config)])
    assert main(argv) == EXIT_USAGE
    assert f"usage error: {data}: " in capsys.readouterr().err
    assert not out.exists() and not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "paired_sweep"])
def test_labelled_csv_without_a_feature_column_is_usage_error_naming_it(tmp_path, capsys, command):
    # d = 0 features used to reach init_model and exit 2 on a division by zero
    paired = command == "paired_sweep"
    labels = "label_a,label_b" if paired else "label"
    rows = ["0,1", "1,2", "2,0"] if paired else ["0", "1", "2"]
    data = tmp_path / "data.csv"
    data.write_text("\n".join([labels, *rows * 10]) + "\n")
    out = tmp_path / "runs.jsonl"
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=1)
    argv = (["train", "--data", str(data), "--max-epochs", "2", "--patience", "2", "--out", str(out)]
            if command == "train" else ["sweep", "--config", str(config)])
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage error: {data}: expected at least one feature column before {labels}" in err
    assert not out.exists() and not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_grade_too_small_to_split_is_usage_error_naming_the_file(tmp_path, capsys, command):
    # 10/10/2 rows: the holdout split keeps one grade-2 row for training, where the
    # validation split inside the fit finds it alone
    data = tmp_path / "data.csv"
    rows = [f"{0.1 * k},{grade}" for grade, n in enumerate((10, 10, 2)) for k in range(n)]
    data.write_text("\n".join(["f0,label", *rows]) + "\n")
    out = tmp_path / "runs.jsonl"
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=1)
    argv = (["train", "--data", str(data), "--max-epochs", "2", "--patience", "2", "--out", str(out)]
            if command == "train" else ["sweep", "--config", str(config)])
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage error: {data}: classes [2] have fewer than 2 samples" in err
    assert not out.exists() and not out_dir.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_paired_grade_too_small_to_split_is_usage_error_naming_its_column(
    tmp_path, capsys, monkeypatch, workers
):
    # grades 0-2 ten times each on both scales, but for two rows whose B grade is 3:
    # the split stratified on A keeps one of them for training, where B's own
    # validation split finds it alone
    monkeypatch.setenv("ORDSOFT_WORKERS", workers)
    data = tmp_path / "paired.csv"
    rows = [f"{0.1 * k},{k % 3},{3 if k < 2 else k % 3}" for k in range(30)]
    data.write_text("\n".join(["f0,label_a,label_b", *rows]) + "\n")
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=1)
    assert main(["sweep", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage error: {data}: label_b: classes [3] have fewer than 2 samples" in err, err
    assert not out_dir.exists()


def test_main_leaves_the_garbage_collector_as_it_found_it(tmp_path, capsys):
    data = tmp_path / "data.csv"
    before = (gc.get_freeze_count(), gc.isenabled())
    assert main(["synth", "--classes", "3", "--per-class", "10", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--max-epochs", "2", "--patience", "2"]) == EXIT_OK
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_run_freezes_the_import_heap_then_runs_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ordsoft", "softlabels", "--classes", "3",
                                      "--strategy", "nominal"])
    try:
        assert run() == EXIT_OK
        assert gc.get_freeze_count() > 0 and gc.isenabled()
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n"


def test_evaluate_missing_file_is_runtime_error(tmp_path):
    assert main(["evaluate", "--predictions", str(tmp_path / "nope.csv")]) == EXIT_RUNTIME


# --------------------------------------------------------------------- sweep


def _write_sweep_config(tmp_path, dataset, strategies, n_seeds=2, extra=None):
    config = {
        "task": "toy",
        "dataset": str(dataset),
        "strategies": strategies,
        "n_seeds": n_seeds,
        "output_dir": str(tmp_path / "out"),
        "search_space": {"max_configs": 2},
        "settings": {"max_epochs": 5, "patience": 5, "hidden_width": 4},
    }
    config.update(extra or {})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    return path, Path(config["output_dir"])


def test_sweep_end_to_end(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "3", "--per-class", "20", "--flip-prob", "0.2",
          "--seed", "0", "--out", str(data)])
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal", "binomial"])
    assert main(["sweep", "--config", str(config)]) == EXIT_OK

    records = [json.loads(line) for line in (out_dir / "results.jsonl").read_text().splitlines()]
    assert len(records) == 4  # 2 seeds x 2 strategies
    for record in records:
        _validate("ordsoft.run_record-v1", record)
    assert [(r["seed"], r["strategy"]) for r in records] == [
        (0, "nominal"), (0, "binomial"), (1, "nominal"), (1, "binomial"),
    ]

    summary = json.loads((out_dir / "summary.json").read_text())
    _validate("ordsoft.sweep_summary-v1", summary)
    # summary is exactly recomputable from the records
    assert summarise_records(records, "toy", 2, "metrics") == summary
    table = capsys.readouterr().out
    assert "QWK" in table and "nominal" in table


def test_sweep_rerun_is_byte_identical(tmp_path):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "3", "--per-class", "16", "--flip-prob", "0.2",
          "--seed", "1", "--out", str(data)])
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=2)
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    first = (out_dir / "results.jsonl").read_bytes()
    first_summary = (out_dir / "summary.json").read_bytes()
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    assert (out_dir / "results.jsonl").read_bytes() == first
    assert (out_dir / "summary.json").read_bytes() == first_summary


@pytest.mark.parametrize("case", ["single", "staggered", "paired"])
def test_sweep_worker_pool_matches_serial(tmp_path, monkeypatch, case):
    strategies, extra = ["nominal", "binomial"], None
    if case == "paired":
        data = _paired_dataset(tmp_path)
    elif case == "single":
        data = tmp_path / "data.csv"
        main(["synth", "--classes", "3", "--per-class", "16", "--flip-prob", "0.2",
              "--seed", "1", "--out", str(data)])
    else:
        # patience below the epoch cap: on this data the members of each seed's stack of
        # 15 stop at epochs from 14 to 20, so removals and smaller validation blocks run
        data = tmp_path / "data.csv"
        main(["synth", "--classes", "5", "--per-class", "40", "--flip-prob", "0.1",
              "--seed", "7", "--out", str(data)])
        strategies = ["nominal", "beta", "triangular"]
        extra = {"search_space": {"max_configs": 6},
                 "settings": {"max_epochs": 20, "patience": 3}}
    config, _ = _write_sweep_config(tmp_path, data, strategies, n_seeds=2, extra=extra)
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("ORDSOFT_WORKERS", workers)
        out_dir = tmp_path / f"workers{workers}"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == EXIT_OK
        outputs.append({path.relative_to(out_dir): path.read_bytes()
                        for path in out_dir.rglob("*") if path.is_file()})
    assert outputs[0] == outputs[1]
    # results, summaries and, when paired, the truth and 2 x 2 predicted tables
    assert len(outputs[0]) == (9 if case == "paired" else 3)


@pytest.mark.parametrize("workers", ["abc", "0", "-3", "1.5"])
def test_sweep_bad_workers_is_usage_error(tmp_path, capsys, monkeypatch, workers):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "3", "--per-class", "16", "--seed", "1", "--out", str(data)])
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=1)
    monkeypatch.setenv("ORDSOFT_WORKERS", workers)
    assert main(["sweep", "--config", str(config)]) == EXIT_USAGE
    assert "ORDSOFT_WORKERS" in capsys.readouterr().err
    assert not out_dir.exists()


def _paired_dataset(tmp_path):
    data = tmp_path / "paired.csv"
    main(["synth", "--paired", "--classes-a", "3", "--classes-b", "3", "--n", "150",
          "--noise-sd", "0.4", "--seed", "5", "--out", str(data)])
    return data


@pytest.mark.parametrize("case", [
    "single_header_only", "single_negative", "paired_header_only", "paired_negative_b",
    "paired_nonnumeric",
])
def test_sweep_without_rows_or_with_a_negative_grade_is_usage_error(tmp_path, capsys, case):
    data = tmp_path / "data.csv"
    if case == "single_header_only":
        data.write_text("f0,f1,label\n")
    elif case == "single_negative":
        data.write_text("f0,f1,label\n0.1,0.2,0\n0.3,0.4,-1\n0.5,0.6,1\n")
    elif case == "paired_header_only":
        data.write_text("f0,f1,label_a,label_b\n")
    elif case == "paired_negative_b":
        lines = _paired_dataset(tmp_path).read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",-1"
        data.write_text("\n".join(lines) + "\n")
    else:
        lines = _paired_dataset(tmp_path).read_text().splitlines()
        lines[1] = "x," + lines[1].split(",", 1)[1]
        data.write_text("\n".join(lines) + "\n")
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=1)
    assert main(["sweep", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and str(data) in err
    assert not out_dir.exists()


def test_train_and_single_sweep_load_no_statistics_synth_or_pool(tmp_path):
    import ordsoft

    data = tmp_path / "data.csv"
    main(["synth", "--classes", "3", "--per-class", "16", "--seed", "1", "--out", str(data)])
    config, _ = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=1)
    # a paired sweep counts its tables from its label columns, without the generators
    (tmp_path / "paired").mkdir()
    paired, paired_out = _write_sweep_config(
        tmp_path / "paired", _paired_dataset(tmp_path), ["nominal"], n_seeds=1
    )
    script = (
        "import sys\n"
        "from ordsoft.cli import main\n"
        f"assert main(['train', '--data', {str(data)!r}, '--max-epochs', '2',"
        f" '--patience', '2', '--out', {str(tmp_path / 'runs.jsonl')!r}]) == 0\n"
        f"assert main(['sweep', '--config', {str(config)!r}]) == 0\n"
        f"assert main(['sweep', '--config', {str(paired)!r}]) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(ordsoft.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("ORDSOFT_WORKERS", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.splitlines()[-1].split())  # after the sweeps' summary tables
    assert (paired_out / "tables" / "truth.csv").exists()
    assert "ordsoft.trainer" in loaded
    for module in ("ordsoft.jointanalysis", "ordsoft.synth", "concurrent.futures.process"):
        assert module not in loaded


def test_sweep_paired_writes_tables(tmp_path, capsys):
    config, out_dir = _write_sweep_config(tmp_path, _paired_dataset(tmp_path), ["nominal"])
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    records = [json.loads(line) for line in (out_dir / "results.jsonl").read_text().splitlines()]
    for record in records:
        _validate("ordsoft.paired_run_record-v1", record)
        table_path = out_dir / record["table_file"]
        assert table_path.exists()
    tables = sorted(path.name for path in (out_dir / "tables").iterdir())
    assert tables == sorted(["truth.csv", *(Path(r["table_file"]).name for r in records)])
    for name, metrics_key in (("summary.json", "metrics_a"), ("summary_b.json", "metrics_b")):
        summary = json.loads((out_dir / name).read_text())
        _validate("ordsoft.sweep_summary-v1", summary)
        assert summarise_records(records, "toy", 2, metrics_key) == summary
    text = (out_dir / "summary.txt").read_text()
    assert "scale A" in text and "scale B" in text
    assert capsys.readouterr().out == text


def test_paired_sweep_with_one_seed_then_analyze(tmp_path, capsys):
    config, out_dir = _write_sweep_config(
        tmp_path, _paired_dataset(tmp_path), ["nominal", "binomial"], n_seeds=1
    )
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    tables = out_dir / "tables"
    report = out_dir / "analysis.json"
    assert main(["analyze", "--truth", str(tables / "truth.csv"),
                 "--pred", str(tables / "*_seed*.csv"), "--out", str(report)]) == EXIT_OK
    pair = json.loads(report.read_text())["pairwise"][0]
    assert pair["pair"] == ["binomial", "nominal"]
    assert not pair["degenerate"]  # one non-zero KLD difference
    assert pair["p_value"] == 1.0


def _records(out_dir):
    return [json.loads(line) for line in (out_dir / "results.jsonl").read_text().splitlines()]


def test_sweep_trains_and_scores_on_the_grades_given(tmp_path):
    data = tmp_path / "data.csv"
    # grades 0..3 only: a 5-grade scale whose top grade no row has
    main(["synth", "--classes", "4", "--per-class", "16", "--flip-prob", "0.2",
          "--seed", "1", "--out", str(data)])
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal", "beta"], n_seeds=1)
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    inferred = (out_dir / "results.jsonl").read_bytes()
    assert all(len(r["metrics"]["per_class_mae"]) == 4 for r in _records(out_dir))
    # the grade count the labels imply, given explicitly, writes the same bytes
    config, _ = _write_sweep_config(tmp_path, data, ["nominal", "beta"], n_seeds=1,
                                    extra={"n_classes": 4})
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    assert (out_dir / "results.jsonl").read_bytes() == inferred
    config, _ = _write_sweep_config(tmp_path, data, ["nominal", "beta"], n_seeds=1,
                                    extra={"n_classes": 5})
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    for record in _records(out_dir):
        _validate("ordsoft.run_record-v1", record)
        assert len(record["metrics"]["per_class_mae"]) == 5
        assert record["metrics"]["empty_classes"] == [4]


def test_paired_sweep_trains_and_scores_on_the_grades_given(tmp_path):
    config, out_dir = _write_sweep_config(tmp_path, _paired_dataset(tmp_path), ["nominal"],
                                          n_seeds=1, extra={"n_classes": 4, "n_classes_b": 5})
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    (record,) = _records(out_dir)
    _validate("ordsoft.paired_run_record-v1", record)
    assert len(record["metrics_a"]["per_class_mae"]) == 4
    assert len(record["metrics_b"]["per_class_mae"]) == 5
    assert np.asarray(record["table"]).shape == (4, 5)
    truth = (out_dir / "tables" / "truth.csv").read_text().splitlines()
    assert len(truth) == 5 and len(truth[0].split(",")) == 6


@pytest.mark.parametrize("extra, message", [
    ({"n_classes": 4}, "labels [4]"),
    ({"n_classes_b": 3}, "n_classes_b needs a paired dataset"),
])
def test_sweep_labels_past_the_grades_given_are_a_usage_error(tmp_path, capsys, extra, message):
    data = tmp_path / "data.csv"
    main(["synth", "--classes", "5", "--per-class", "10", "--seed", "2", "--out", str(data)])
    config, out_dir = _write_sweep_config(tmp_path, data, ["nominal"], n_seeds=1, extra=extra)
    assert main(["sweep", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and next(iter(extra)) in err, err
    assert not out_dir.exists()


def test_paired_sweep_b_labels_past_n_classes_b_are_a_usage_error(tmp_path, capsys):
    config, out_dir = _write_sweep_config(tmp_path, _paired_dataset(tmp_path), ["nominal"],
                                          n_seeds=1, extra={"n_classes_b": 2})
    assert main(["sweep", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "labels [2]" in err and "2 grades of n_classes_b" in err, err
    assert not out_dir.exists()


def test_sweep_bad_config_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"task": "x"}))
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
    path.write_text(json.dumps({
        "task": "x", "dataset": "d.csv", "strategies": ["nope"],
        "n_seeds": 1, "output_dir": str(tmp_path),
    }))
    assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
    capsys.readouterr()
    bad_settings = [("patience", 0), ("batch_size", 0), ("train_fraction", 1.0),
                    ("val_fraction", 0), ("optimizer", "rmsprop"),
                    ("hidden_width", 0)]
    for setting, value in bad_settings:
        # a bad setting fails before the dataset, which does not exist here, is read
        path.write_text(json.dumps({
            "task": "x", "dataset": str(tmp_path / "absent.csv"), "strategies": ["nominal"],
            "n_seeds": 1, "output_dir": str(tmp_path), "settings": {setting: value},
        }))
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE, setting
        err = capsys.readouterr().err
        assert "bad sweep config" in err and setting in err, err
    bad_grids = [({"learning_rates": []}, "learning_rates"), ({"etas": []}, "etas"),
                 ({"ps": [-1.0]}, "p must be positive"),
                 ({"learning_rates": [-0.1]}, "learning_rates"), ({"etas": 0.8}, "etas")]
    for search_space, message in bad_grids:
        # every grid is checked, and its smoothing values too, before the dataset is read
        path.write_text(json.dumps({
            "task": "x", "dataset": str(tmp_path / "absent.csv"), "strategies": ["nominal"],
            "n_seeds": 1, "output_dir": str(tmp_path), "search_space": search_space,
        }))
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE, search_space
        err = capsys.readouterr().err
        assert "bad sweep config" in err and message in err, err
    base = {"task": "x", "dataset": str(tmp_path / "absent.csv"), "strategies": ["nominal"],
            "n_seeds": 1, "output_dir": str(tmp_path)}
    # misspelt keys and wrong types, at every level, name the key before the dataset is read
    bad_keys_and_types = [
        ({"setings": {"max_epochs": 5}}, "setings"), ({"search_spaces": {}}, "search_spaces"),
        ({"settings": {"patiense": 3}}, "patiense"),
        # the trainer has one model, so no setting names an architecture
        ({"settings": {"architecture": "mlp_1_hidden"}}, "architecture"),
        ({"search_space": {"learning_rte": [0.1]}}, "learning_rte"),
        ({"search_space": None}, "search_space"), ({"n_seeds": 1.9}, "n_seeds"),
        ({"n_seeds": True}, "n_seeds"),
        ({"search_space": {"learning_rates": ["a"]}}, "learning_rates"),
        ({"search_space": {"etas": [None]}}, "etas"),
        ({"search_space": {"max_configs": 2.5}}, "max_configs"),
        ({"settings": {"root_seed": "1"}}, "root_seed"),
        ({"settings": {"max_epochs": True}}, "max_epochs"),
        ({"settings": {"train_fraction": "0.7"}}, "train_fraction"),
        ({"n_classes": 1}, "n_classes"), ({"n_classes": 4.0}, "n_classes"),
        ({"n_classes_b": "4"}, "n_classes_b"), ({"n_classes_b": True}, "n_classes_b"),
        # each record of a strategy listed twice would enter its summary twice
        ({"strategies": ["nominal", "beta", "beta"]}, "listed more than once: ['beta']"),
        # a number is no path (open() would take it for a file descriptor), and a
        # record's task is a string
        ({"dataset": 5}, "dataset must be a string"), ({"task": ["t"]}, "task must be a string"),
        ({"output_dir": 3}, "output_dir must be a string"),
        # a string is no list of strategies, nor is an empty list or one of numbers
        ({"strategies": "nominal"}, "strategies must be a non-empty list of strings"),
        ({"strategies": []}, "strategies must be a non-empty list of strings"),
        ({"strategies": ["nominal", 1]}, "strategies must be a non-empty list of strings"),
    ]
    for extra, message in bad_keys_and_types:
        path.write_text(json.dumps({**base, **extra}))
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE, extra
        err = capsys.readouterr().err
        assert "bad sweep config" in err and message in err, err


@pytest.mark.parametrize("command, field", [
    ("synth", "seed"), ("train", "seed"), ("sweep", "root_seed"),
])
def test_negative_seed_is_usage_error_naming_the_field(tmp_path, capsys, command, field):
    data, out = tmp_path / "data.csv", tmp_path / "out"
    argv = {
        "synth": ["synth", "--seed", "-1", "--out", str(out)],
        "train": ["train", "--data", str(data), "--seed", "-1", "--out", str(out)],
        "sweep": ["sweep", "--config", str(tmp_path / "sweep.json"), "--out-dir", str(out)],
    }[command]
    if command == "train":
        main(["synth", "--classes", "3", "--per-class", "10", "--seed", "2", "--out", str(data)])
    if command == "sweep":
        # the dataset does not exist: the seed is checked before it is read
        _write_sweep_config(tmp_path, data, ["nominal"], extra={"settings": {"root_seed": -1}})
    assert main(argv) == EXIT_USAGE
    assert f"{field} must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------- analyze


def _write_table(path, counts):
    from ordsoft.core import ContingencyTable

    ContingencyTable(np.asarray(counts)).to_csv(str(path))


def test_analyze_perfect_predictions(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    counts = [[30, 5], [5, 30]]
    _write_table(truth, counts)
    for strategy in ("beta", "nominal"):
        for seed in range(5):
            _write_table(tmp_path / f"{strategy}_seed{seed}.csv", counts)
    assert main(["analyze", "--truth", str(truth), "--pred", str(tmp_path / "*_seed*.csv")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    _validate("ordsoft.analysis_report-v1", report)
    for strategy in ("beta", "nominal"):
        runs = report["strategies"][strategy]["runs"]
        assert len(runs) == 5
        assert all(abs(r["kld"]) < 1e-9 for r in runs)
        assert all(r["table_mae"] == 0 for r in runs)
        residual = np.asarray(report["strategies"][strategy]["residual_of_mean"])
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)
    assert report["pairwise"][0]["degenerate"] is True


def test_analyze_epsilon_defaults_to_the_kld_default(tmp_path, capsys):
    from ordsoft.cli import analyse_tables
    from ordsoft.jointanalysis import DEFAULT_KLD_EPSILON, ContingencyTable

    assert DEFAULT_KLD_EPSILON == 1e-6
    truth = tmp_path / "truth.csv"
    _write_table(truth, [[30, 5], [5, 30]])
    predicted = {}
    for strategy, counts in (("beta", [[28, 7], [4, 31]]), ("nominal", [[20, 15], [9, 26]])):
        for seed in range(5):
            _write_table(tmp_path / f"{strategy}_seed{seed}.csv", counts)
            predicted.setdefault(strategy, []).append((seed, ContingencyTable(np.asarray(counts))))
    assert main(["analyze", "--truth", str(truth), "--pred", str(tmp_path / "*_seed*.csv")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["epsilon"] == DEFAULT_KLD_EPSILON
    direct = analyse_tables(ContingencyTable.from_csv(str(truth)), predicted)
    assert direct["epsilon"] == DEFAULT_KLD_EPSILON
    assert direct["strategies"] == report["strategies"]


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_analyse_tables_rejects_a_non_finite_epsilon_naming_it(epsilon):
    from ordsoft.cli import analyse_tables
    from ordsoft.jointanalysis import ContingencyTable

    truth = ContingencyTable(np.array([[30, 5], [5, 30]]))
    predicted = {strategy: [(seed, ContingencyTable(np.array([[20, 15], [0, 26]])))
                            for seed in range(5)] for strategy in ("beta", "nominal")}
    with pytest.raises(ValueError, match=f"epsilon must be a finite number >= 0, got {epsilon}"):
        analyse_tables(truth, predicted, epsilon=epsilon)


def test_analyze_separated_strategies(tmp_path, capsys):
    rng = np.random.default_rng(8)
    truth = tmp_path / "truth.csv"
    _write_table(truth, [[40, 10], [10, 40]])
    # "good" tables close to truth, "bad" ones far from it
    for seed in range(20):
        near = np.array([[40, 10], [10, 40]]) + rng.integers(0, 3, size=(2, 2))
        far = np.array([[10, 40], [40, 10]]) + rng.integers(0, 3, size=(2, 2))
        _write_table(tmp_path / f"good_seed{seed}.csv", near)
        _write_table(tmp_path / f"bad_seed{seed}.csv", far)
    assert main(["analyze", "--truth", str(truth), "--pred", str(tmp_path / "*_seed*.csv")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["strategies"]["good"]["kld_mean"] < report["strategies"]["bad"]["kld_mean"]
    assert report["kruskal_wallis"]["p_value"] < 0.01
    pair = report["pairwise"][0]
    assert pair["method"] == "wilcoxon_exact"
    assert pair["p_value"] == pytest.approx(2 / 2**20, abs=1e-12)


def test_analyze_requires_two_strategies(tmp_path, capsys):
    # the input is at fault, so each is a usage error, as is analyse_tables' ValueError
    truth = tmp_path / "truth.csv"
    _write_table(truth, [[5, 5], [5, 5]])
    _write_table(tmp_path / "only_seed0.csv", [[5, 5], [5, 5]])
    assert main(["analyze", "--truth", str(truth),
                 "--pred", str(tmp_path / "only_seed*.csv")]) == EXIT_USAGE
    assert "usage error: need at least 2 strategies" in capsys.readouterr().err
    # two strategies whose seed sets differ cannot pair their runs
    _write_table(tmp_path / "other_seed1.csv", [[5, 5], [5, 5]])
    assert main(["analyze", "--truth", str(truth),
                 "--pred", str(tmp_path / "*_seed*.csv")]) == EXIT_USAGE
    assert "usage error: strategies have mismatched seed sets" in capsys.readouterr().err


def test_analyze_rejects_a_second_table_of_one_run_naming_both_files(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    _write_table(truth, [[30, 5], [5, 30]])
    for name in ("beta_seed1", "beta_seed01", "nominal_seed1", "nominal_seed01"):
        _write_table(tmp_path / f"{name}.csv", [[28, 7], [4, 31]])
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--truth", str(truth), "--pred", str(tmp_path / "*_seed*.csv"),
                 "--out", str(out)]) == EXIT_USAGE
    # the files are read in sorted order, so beta_seed01 comes first
    first, second = tmp_path / "beta_seed01.csv", tmp_path / "beta_seed1.csv"
    err = capsys.readouterr().err
    assert f"usage error: {first} and {second} are both the table of beta seed 1" in err, err
    assert not out.exists()


def test_analyse_tables_rejects_a_strategy_listing_one_seed_twice_naming_it():
    from ordsoft.cli import analyse_tables
    from ordsoft.jointanalysis import ContingencyTable

    truth = ContingencyTable(np.array([[30, 5], [5, 30]]))
    near = ContingencyTable(np.array([[28, 7], [4, 31]]))
    far = ContingencyTable(np.array([[20, 15], [9, 26]]))
    # the seed sets match as multisets, so only the repeat is at fault
    predicted = {"beta": [(1, near), (1, far)], "nominal": [(1, far), (1, near)]}
    with pytest.raises(ValueError, match="beta lists seed 1 twice"):
        analyse_tables(truth, predicted)
    # a repeat among other seeds, in the second strategy by name
    predicted = {"beta": [(0, near), (2, far), (3, near)],
                 "nominal": [(2, near), (0, far), (2, far)]}
    with pytest.raises(ValueError, match="nominal lists seed 2 twice"):
        analyse_tables(truth, predicted)


def test_analyse_tables_checks_the_seed_sets_before_any_kld_or_test(monkeypatch):
    import ordsoft.jointanalysis as jointanalysis
    from ordsoft.cli import analyse_tables
    from ordsoft.jointanalysis import ContingencyTable

    called = []
    for name in ("kld", "kruskal_wallis", "pairwise_wilcoxon_holm"):
        monkeypatch.setattr(jointanalysis, name, lambda *args, name=name: called.append(name))
    table = ContingencyTable(np.array([[30, 5], [5, 30]]))
    predicted = {"beta": [(0, table), (1, table)], "nominal": [(0, table), (2, table)]}
    with pytest.raises(ValueError, match="mismatched seed sets"):
        analyse_tables(table, predicted)
    with pytest.raises(ValueError, match="need at least 2 strategies"):
        analyse_tables(table, {"beta": predicted["beta"]})
    assert called == []


def test_analyze_shape_mismatch_is_usage_error(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    _write_table(truth, [[5, 5], [5, 5]])
    _write_table(tmp_path / "a_seed0.csv", [[5, 5, 1], [5, 5, 1]])
    _write_table(tmp_path / "b_seed0.csv", [[5, 5], [5, 5]])
    assert main(["analyze", "--truth", str(truth),
                 "--pred", str(tmp_path / "*_seed0.csv")]) == EXIT_USAGE
    assert "table shape (2, 3) for a seed 0 does not match truth (2, 2)" in capsys.readouterr().err


def test_analyze_bad_glob_usage_error(tmp_path):
    truth = tmp_path / "truth.csv"
    _write_table(truth, [[5, 5], [5, 5]])
    assert main(["analyze", "--truth", str(truth),
                 "--pred", str(tmp_path / "missing*.csv")]) == EXIT_USAGE


@pytest.mark.parametrize("epsilon", ["nan", "-1", "inf"])
def test_analyze_rejects_a_bad_epsilon_before_reading_any_table(tmp_path, capsys, epsilon):
    # neither the truth nor any predicted table exists: the epsilon is checked first
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--truth", str(tmp_path / "truth.csv"), "--pred",
                 str(tmp_path / "*_seed*.csv"), "--epsilon", epsilon, "--out", str(out)]
                ) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--epsilon must be a finite number >= 0, got {float(epsilon)}" in err
    assert not out.exists()


def test_analyze_an_infinite_kld_is_a_usage_error_naming_its_run(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    _write_table(truth, [[30, 5], [5, 30]])
    for seed in range(3):
        _write_table(tmp_path / f"beta_seed{seed}.csv", [[28, 7], [4, 31]])
        # seed 1 predicts no (1, 0) pair, which the truth holds 5 of
        _write_table(tmp_path / f"nominal_seed{seed}.csv",
                     [[20, 15], [0 if seed == 1 else 9, 26]])
    argv = ["analyze", "--truth", str(truth), "--pred", str(tmp_path / "*_seed*.csv")]
    out = tmp_path / "analysis.json"
    assert main(argv + ["--epsilon", "0", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "the KLD of nominal seed 1 is infinite at epsilon 0.0" in err
    assert not out.exists()
    # smoothed, the same tables have a finite KLD
    assert main(argv + ["--epsilon", "1e-6", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    _validate("ordsoft.analysis_report-v1", report)
    assert report["epsilon"] == 1e-6
    # and at epsilon 0 tables with no zero cell under truth mass analyse as ever
    _write_table(tmp_path / "nominal_seed1.csv", [[20, 15], [9, 26]])
    assert main(argv + ["--epsilon", "0", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    _validate("ordsoft.analysis_report-v1", report)
    assert report["epsilon"] == 0 and report["strategies"]["nominal"]["kld_mean"] > 0


@pytest.mark.parametrize("which", ["truth", "pred"])
def test_analyze_an_all_zero_table_is_a_usage_error_naming_it(tmp_path, capsys, which):
    # it has no joint distribution; normalise's ValueError used to exit 2 naming no file
    truth = tmp_path / "truth.csv"
    _write_table(truth, [[30, 5], [5, 30]])
    for strategy in ("beta", "nominal"):
        for seed in range(2):
            _write_table(tmp_path / f"{strategy}_seed{seed}.csv", [[28, 7], [4, 31]])
    zero = truth if which == "truth" else tmp_path / "nominal_seed1.csv"
    _write_table(zero, [[0, 0], [0, 0]])
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--truth", str(truth), "--pred", str(tmp_path / "*_seed*.csv"),
                 "--out", str(out)]) == EXIT_USAGE
    assert f"usage error: {zero}: every count is 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_no_command_writes_a_nan_or_infinity(value):
    from ordsoft.cli import _dump_json

    assert _dump_json({"x": 1.5}) == '{"x": 1.5}'
    with pytest.raises(ValueError):
        _dump_json({"nested": [0.0, value]})
