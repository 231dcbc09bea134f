import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import reference_data_digest
from quantcal import cli, softsort
from quantcal.cli import ExperimentConfig, main
from quantcal.datasets import load_csv

TINY = {
    "dataset": "synth_hetero",
    "synth_n": 120,
    "epochs": 3,
    "batch_size": 64,
    "mc_passes": 4,
    "n_splits": 3,
    "seed": 0,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = dict(TINY)
    cfg.update(overrides or {})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_config_defaults_are_reference_settings():
    cfg = ExperimentConfig()
    assert cfg.learning_rate == 1e-2
    assert cfg.batch_size == 512
    assert cfg.epochs == 100
    assert cfg.dropout_rate == 0.25
    assert cfg.mc_passes == 10
    assert cfg.ensemble_size == 5
    assert cfg.bins == 20
    assert cfg.n_splits == 5
    assert cfg.test_fraction == 0.2
    assert cfg.resolved_lambdas("train") == [0.0, 20.0]
    assert cfg.resolved_lambdas("sweep") == [0.0, 1.0, 5.0, 10.0, 20.0]


def test_desk_scale_caps_epochs():
    cfg = ExperimentConfig(epochs=100, desk_scale=True)
    assert cfg.effective_epochs() == cli.DESK_EPOCHS
    assert ExperimentConfig(epochs=5, desk_scale=True).effective_epochs() == 5
    assert ExperimentConfig(epochs=100).effective_epochs() == 100


def test_config_validation_errors():
    with pytest.raises(cli.ConfigError, match="model"):
        ExperimentConfig(model="svm").validate()
    with pytest.raises(cli.ConfigError, match="nonnegative"):
        ExperimentConfig(lambdas=[-1.0]).validate()
    with pytest.raises(cli.ConfigError, match="nonempty"):
        ExperimentConfig(lambdas=[]).validate()
    with pytest.raises(cli.ConfigError, match="test_fraction"):
        ExperimentConfig(test_fraction=2.0).validate()


@pytest.mark.parametrize(
    "overrides",
    [
        {"epochs": "10"},
        {"lambdas": 5},
        {"lambdas": ["a"]},
        {"n_splits": 2.0},
        {"bins": 2.5},
        {"percent": "no"},
        {"mc_passes": True},
        {"tau": 0},
        {"batch_size": 1},
        {"adv_eps_scale": -1, "model": "ensemble"},
        {"dropout_rate": 0},
        {"seed": -1},
        {"lambdas": [float("nan")]},
        {"learning_rate": float("nan")},
        {"learning_rate": -0.01},
        {"learning_rate": 0},
        {"adv_eps_scale": float("inf"), "model": "ensemble"},
        {"tau": float("inf")},
        {"dataset": "nope"},
        {"dataset": "gone.json"},
        {"lambdas": [0, 0.0]},
        {"lambdas": [0.1, 0.1000001]},
        {"lambdas": [0, -0.0]},
        {"synth_n": 4},
    ],
    ids=json.dumps,
)
def test_config_errors_exit_2_before_data_loads(tmp_path, capsys, monkeypatch, overrides):
    def no_data(cfg):
        raise AssertionError("dataset loaded despite a config error")

    monkeypatch.setattr(cli, "_load_base_dataset", no_data)
    out = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, overrides), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(overrides)) in err
    assert not out.exists()


def test_bad_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "epochs": oops\n}\n')
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:2:13" in err


def test_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"epocs": 3}')
    assert main(["train", "--config", str(path)]) == 2
    assert "unknown keys ['epocs']" in capsys.readouterr().err


def test_missing_dataset_exits_2_with_path(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert main(["train", "--dataset", str(tmp_path / "gone.csv"), "--out", out]) == 2
    assert "gone.csv" in capsys.readouterr().err
    assert main(["train", "--dataset", "boston", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "boston.csv" in err and "fetch" in err


def assert_one_error_line(err, path):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err


def test_out_that_is_a_file_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a model trained before --out was made")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["train", "--config", write_config(tmp_path), "--out", str(out)]) == 1
    assert_one_error_line(capsys.readouterr().err, out)
    assert out.read_text() == "not a directory\n"


def test_dataset_that_is_a_directory_exits_1_naming_it(tmp_path, capsys):
    data = tmp_path / "x.csv"
    data.mkdir()
    assert main(["train", "--config", write_config(tmp_path), "--dataset", str(data),
                 "--out", str(tmp_path / "run")]) == 1
    assert_one_error_line(capsys.readouterr().err, data)


def test_runtime_failure_exits_1(tmp_path, capsys):
    # steps this large overflow a forward pass within a couple of updates
    bad = write_config(
        tmp_path,
        {"synth_n": 40, "epochs": 3, "n_splits": 2, "learning_rate": 1e200,
         "lambdas": [0.0]},
        name="bad.json",
    )
    out = tmp_path / "r2"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", bad, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "split 0" in err and "non-finite" in err
    # every run is computed before any output is written
    assert list(out.iterdir()) == []


def test_train_writes_expected_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    rows = read_rows(out / "metrics.csv")
    assert len(rows) == 3 * 2  # n_splits x lambdas
    assert list(rows[0]) == list(cli.METRICS_FIELDS)
    lams = {float(r["lam"]) for r in rows}
    assert lams == {0.0, 20.0}
    assert (out / "run_config.json").exists()
    assert (out / "reliability.csv").exists()
    stored = json.loads((out / "run_config.json").read_text())
    assert stored["synth_n"] == 120
    models = sorted(p.name for p in (out / "models").iterdir())
    assert len(models) == 6
    assert models[0].startswith("mc_dropout_lam0_split")


def test_summary_matches_hand_computation(tmp_path):
    out = tmp_path / "run"
    main(["train", "--config", write_config(tmp_path), "--out", str(out)])
    metrics = read_rows(out / "metrics.csv")
    summary = {
        (r["lam"], r["metric"]): (float(r["mean"]), float(r["std"]))
        for r in read_rows(out / "summary.csv")
    }
    for lam in ("0.0", "20.0"):
        vals = np.array(
            [float(r["calib_error"]) for r in metrics if r["lam"] == lam]
        )
        mean, std = summary[(lam, "calib_error")]
        assert abs(mean - vals.mean()) < 1e-12
        assert abs(std - vals.std(ddof=1)) < 1e-12


def test_train_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", cfg, "--out", str(a)])
    main(["train", "--config", cfg, "--out", str(b)])
    for name in ("metrics.csv", "summary.csv", "reliability.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_recalibrate_requires_run(tmp_path, capsys):
    assert main(["recalibrate", "--out", str(tmp_path / "none")]) == 2
    assert "run_config.json" in capsys.readouterr().err
    for text, message in (('{"seed": ', "run_config.json:1:10"), ("[1]", "JSON object")):
        (tmp_path / "run_config.json").write_text(text)
        assert main(["recalibrate", "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


def test_recalibrate_flags_degradations(tmp_path):
    out = tmp_path / "run"
    main(["train", "--config", write_config(tmp_path), "--out", str(out)])
    assert main(["recalibrate", "--out", str(out)]) == 0
    rows = read_rows(out / "recalib.csv")
    assert len(rows) == 6
    for r in rows:
        assert r["flag"] in ("", "*")
        worse = float(r["post_calib_error"]) > float(r["pre_calib_error"])
        assert (r["flag"] == "*") == worse
    maps = list((out / "maps").iterdir())
    assert len(maps) == 6


def test_recalibrate_holdout_mode(tmp_path):
    out = tmp_path / "run"
    main(["train", "--config", write_config(tmp_path), "--out", str(out),
          "--calib-split", "holdout"])
    assert main(["recalibrate", "--out", str(out)]) == 0
    stored = json.loads((out / "run_config.json").read_text())
    assert stored["calib_split"] == "holdout"
    # the holdout carve shrinks the training rows
    rows = read_rows(out / "metrics.csv")
    assert int(rows[0]["n_train"]) < 120 - int(rows[0]["n_test"])


@pytest.mark.parametrize("model", cli.MODELS)
@pytest.mark.parametrize("mode", cli.CALIB_SPLITS)
def test_recalibrate_uses_stored_calib_split(tmp_path, capsys, mode, model):
    out = tmp_path / "run"
    overrides = {"calib_split": mode, "model": model, "ensemble_size": 2}
    main(["train", "--config", write_config(tmp_path, overrides), "--out", str(out)])
    assert main(["recalibrate", "--out", str(out)]) == 0
    # the unrecalibrated score is the one train wrote, so both verbs
    # standardized on the same rows
    trained = {(r["lam"], r["split"]): r["calib_error"] for r in read_rows(out / "metrics.csv")}
    rows = read_rows(out / "recalib.csv")
    assert len(rows) == len(trained)
    for r in rows:
        assert r["pre_calib_error"] == trained[(r["lam"], r["split"])]
    # the carve is made before training, so recalibrate takes no choice of rows
    other = "train" if mode == "holdout" else "holdout"
    capsys.readouterr()
    assert main(["recalibrate", "--out", str(out), "--calib-split", other]) == 2
    assert "unrecognized arguments: --calib-split" in capsys.readouterr().err


def test_recalibrate_missing_artifact_exits_2_writing_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"synth_n": 60, "epochs": 1, "n_splits": 1, "mc_passes": 2})
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    gone = out / "models" / "mc_dropout_lam20_split0.bin"
    gone.unlink()
    capsys.readouterr()
    assert main(["recalibrate", "--out", str(out)]) == 2
    # lam=0 ran first, but its map waits for every run
    assert_one_error_line(capsys.readouterr().err, gone)
    assert not (out / "maps").exists() and not (out / "recalib.csv").exists()


def test_recalibrate_on_a_wider_csv_exits_1_naming_the_run(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x,y\n" + "".join(f"{i * 0.1},{i * 0.2}\n" for i in range(60)))
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"dataset": str(data), "n_splits": 1, "lambdas": [0.0],
                                  "epochs": 1, "mc_passes": 2})
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    # a second varying feature the stored models do not take (standardize
    # drops a constant one, so that would still fit), under the new data's
    # digest, so the run reaches the models
    data.write_text("c,x,y\n" + "".join(f"{i % 7},{i * 0.1},{i * 0.2}\n" for i in range(60)))
    run_config = out / "run_config.json"
    stored = json.loads(run_config.read_text())
    stored[cli.DIGEST_KEY] = cli._data_digest(load_csv(data))
    run_config.write_text(json.dumps(stored))
    capsys.readouterr()
    assert main(["recalibrate", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: split 0, lam=0: ") and err.count("\n") == 1
    assert "Traceback" not in err and not (out / "maps").exists()


def count_mc_calls(monkeypatch):
    """The network count of every `cli.mc_dropout_predict` call, 1 for a
    single network."""
    calls, predict = [], cli.mc_dropout_predict

    def spy(nets, *args, **kwargs):
        calls.append(len(nets) if isinstance(nets, list) else 1)
        return predict(nets, *args, **kwargs)

    monkeypatch.setattr(cli, "mc_dropout_predict", spy)
    return calls


@pytest.mark.parametrize("calib_split", ["train", "holdout"])
def test_every_lambda_of_a_split_is_predicted_in_one_call(tmp_path, monkeypatch, calib_split):
    # S splits and L lambdas: one call per split for the test rows, and in
    # recalibrate one more for the calibration rows, each of L networks
    splits, lambdas = 2, [0.0, 5.0, 20.0]
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"n_splits": splits, "lambdas": lambdas, "epochs": 1,
                                  "calib_split": calib_split})
    calls = count_mc_calls(monkeypatch)
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [len(lambdas)] * splits
    calls.clear()
    assert main(["recalibrate", "--out", str(out)]) == 0
    assert calls == [len(lambdas)] * 2 * splits


def test_a_failure_in_the_shared_prediction_names_its_lambda(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"n_splits": 2, "lambdas": [0.0, 20.0], "epochs": 1})
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    # only split 0's lambda-20 network overflows layer 2, inside the call it
    # shares with lambda 0
    path = out / "models" / "mc_dropout_lam20_split0.bin"
    params = cli.load_params(path)
    params.b1.value.fill(1.0)
    params.w2.value.fill(1e308)
    cli.save_params(params, path)
    calls = count_mc_calls(monkeypatch)
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["recalibrate", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: split 0, lam=20: mlp: non-finite values in a pre-activation\n")
    # the shared call, then lambda 0 and lambda 20 alone
    assert calls == [2, 1, 1] and not (out / "maps").exists()


def write_table(path, values, cell="{!r}"):
    path.write_text("x,y\n" + "".join(
        ",".join(cell.format(float(v)) for v in row) + "\n" for row in values))


def test_recalibrate_checks_the_data_it_was_trained_on(tmp_path, capsys):
    values = np.random.default_rng(0).normal(size=(60, 2))
    data = tmp_path / "data.csv"
    write_table(data, values)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"dataset": str(data), "n_splits": 1, "epochs": 1, "mc_passes": 2})
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    run_config = out / "run_config.json"
    trained_on = json.loads(run_config.read_text())[cli.DIGEST_KEY]
    # the same values, spelled another way
    write_table(data, values, cell='"{:.17e}"')
    assert main(["recalibrate", "--out", str(out)]) == 0
    for column in (0, 1):  # a feature, then the target
        changed = values.copy()
        changed[::7, column] += 1.0
        write_table(data, changed)
        capsys.readouterr()
        assert main(["recalibrate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, run_config)
        assert trained_on in err and cli._data_digest(load_csv(data)) in err
    # a run directory without the record cannot vouch for its data either
    write_table(data, values)
    stored = json.loads(run_config.read_text())
    del stored[cli.DIGEST_KEY]
    run_config.write_text(json.dumps(stored))
    assert main(["recalibrate", "--out", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, trained_on)


@pytest.mark.parametrize("has_header", [True, False])
@pytest.mark.parametrize("target", [0, 2, -1])
def test_data_digest_is_the_one_recorded_before(tmp_path, target, has_header):
    # load_csv's features are now a view of the table for an edge target
    # and were an F-ordered copy; run directories recorded under the old
    # formula must still recalibrate
    table = np.random.default_rng(3).normal(size=(40, 5))
    path = tmp_path / "data.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",", comments="",
               header="a,b,c,d,e" if has_header else "")
    ds = load_csv(path, target_column=target, has_header=has_header)
    for data in (ds, ds.subset(np.arange(0, 40, 3))):  # and a desk-scale gather
        assert cli._data_digest(data) == reference_data_digest(data)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """A seeded 30000 x 41 CSV, the target last, and its table's bytes."""
    table = np.random.default_rng(0).normal(size=(30000, 41)) * np.geomspace(0.5, 50.0, 41)
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"c{i}" for i in range(41)))
    return path, table.nbytes


@pytest.mark.parametrize("model, calib_split", [("mc_dropout", "train"), ("ensemble", "holdout")])
def test_train_and_recalibrate_hold_the_table_once(tmp_path, wide_csv, model, calib_split):
    path, table_bytes = wide_csv
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"dataset": str(path), "model": model, "calib_split": calib_split,
                                  "lambdas": [0.0], "epochs": 1, "n_splits": 1, "batch_size": 512,
                                  "mc_passes": 2, "ensemble_size": 2})
    for argv in (["train", "--config", cfg, "--out", str(out)], ["recalibrate", "--out", str(out)]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the table, the parser's scratch and batch- or block-sized reads;
        # standardized copies of the split's rows beside the table read 2.3-2.7x
        assert peak <= 1.8 * table_bytes, (argv[0], peak / table_bytes)


def test_out_of_memory_exits_1_naming_the_run(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (20000, 20000)")

    monkeypatch.setattr(softsort, "_exponentials", no_memory)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"n_splits": 1, "epochs": 1, "lambdas": [0.0, 20.0]})
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: split 0, lam=20: Unable to allocate 2.98 GiB for an array with " \
                  "shape (20000, 20000)\n"
    assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    out = root / "run"
    cfg = write_config(root, {"synth_n": 60, "epochs": 1, "n_splits": 2, "lambdas": [0.0],
                              "mc_passes": 2})
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("verb", ["recalibrate", "report"])
@pytest.mark.parametrize(
    "flag",
    [["--dataset", "boston"], ["--lambda", "7"], ["--seed", "9"], ["--desk-scale"],
     ["--model", "ensemble"], ["--calib-split", "holdout"]],
    ids=lambda flag: flag[0],
)
def test_run_directory_verbs_take_only_config_and_out(tiny_run, capsys, verb, flag):
    # everything else comes from the run directory, so an experiment flag
    # would be ignored; it is a usage error instead
    assert main([verb, "--out", str(tiny_run), *flag]) == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tiny_run / "recalib.csv").exists() and not (tiny_run / "report.txt").exists()


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["train", "--help"], 0), (["--version"], 0), (["fly"], 2), ([], 2)],
)
def test_usage_returns_argparse_status(capsys, argv, code):
    # an in-process caller gets a status back, never SystemExit
    assert main(argv) == code
    if code == 2:
        assert "usage:" in capsys.readouterr().err


def test_run_directory_verbs_read_only_out_from_config(tiny_run, tmp_path, capsys):
    # the run's settings come from its directory, so the config's other keys
    # are not read and one config serves all four verbs; unknown keys still fail
    run = tmp_path / "run"
    shutil.copytree(tiny_run, run)
    cfg = write_config(tmp_path, {"out": str(run), "model": "ensemble", "lambdas": [7],
                                  "calib_split": "holdout", "epochs": 0})
    for verb in ("recalibrate", "report"):
        assert main([verb, "--out", str(run)]) == 0
        expected = capsys.readouterr().out
        assert main([verb, "--config", cfg]) == 0
        assert capsys.readouterr().out == expected
    unknown = write_config(tmp_path, {"out": str(run), "outt": "x"}, name="unknown.json")
    assert main(["report", "--config", unknown]) == 2
    assert "unknown keys ['outt']" in capsys.readouterr().err


def test_sweep_writes_curve_and_matches_train(tmp_path):
    cfg = write_config(tmp_path)
    train_out, sweep_out = tmp_path / "t", tmp_path / "s"
    main(["train", "--config", cfg, "--out", str(train_out), "--lambda", "20"])
    assert main(["sweep", "--config", cfg, "--out", str(sweep_out), "--lambda", "20"]) == 0
    assert (
        (train_out / "metrics.csv").read_bytes() == (sweep_out / "metrics.csv").read_bytes()
    )
    curve = read_rows(sweep_out / "curve.csv")
    assert len(curve) == 1
    assert list(curve[0]) == list(cli.CURVE_FIELDS)


def test_sweep_default_grid(tmp_path):
    out = tmp_path / "s"
    cfg = write_config(tmp_path, {"synth_n": 80, "epochs": 2, "n_splits": 2, "mc_passes": 2})
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    curve = read_rows(out / "curve.csv")
    assert [float(r["lam"]) for r in curve] == [0.0, 1.0, 5.0, 10.0, 20.0]


def test_report_requires_metrics(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "none")]) == 2
    assert "metrics.csv" in capsys.readouterr().err


def write_results(path, fields, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


@pytest.mark.parametrize("name", ["metrics.csv", "recalib.csv"])
@pytest.mark.parametrize("case", ["missing column", "short row", "non-numeric", "non-utf8"])
def test_report_names_malformed_results_file(tmp_path, capsys, name, case):
    files = {
        "metrics.csv": (cli.METRICS_FIELDS, [["d", "m", 0.0, 0, 80, 20, 0.5, 1.0, 2.0],
                                             ["d", "m", 20.0, 0, 80, 20, 0.1, 1.5, 2.5]]),
        "recalib.csv": (cli.RECALIB_FIELDS, [["d", "m", 0.0, 0, 0.5, 0.7, "*"],
                                             ["d", "m", 20.0, 0, 0.1, 0.05, ""]]),
    }
    for file_name, (fields, rows) in files.items():
        if file_name == name and case == "missing column":
            fields, rows = fields[1:], [row[1:] for row in rows]
        elif file_name == name and case == "short row":
            rows = [rows[0], rows[1][:-2]]
        elif file_name == name and case == "non-numeric":
            rows = [rows[0], rows[1][:2] + ["abc"] + rows[1][3:]]
        write_results(tmp_path / file_name, fields, rows)
    path = tmp_path / name
    if case == "non-utf8":
        path.write_bytes(path.read_bytes().replace(b"20.0", b"2\xff"))
    assert main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err
    assert not (tmp_path / "report.txt").exists()


RESULTSISH = st.text(alphabet='0123456789.-e,dm* "\r\nnaif\xe9', max_size=80)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(["metrics.csv", "recalib.csv"]),
    body=st.one_of(st.binary(max_size=80), RESULTSISH.map(str.encode)),
    with_header=st.booleans(),
)
def test_report_reads_any_bytes_or_names_the_file_once(tmp_path, capsys, name, body, with_header):
    fields = {"metrics.csv": cli.METRICS_FIELDS, "recalib.csv": cli.RECALIB_FIELDS}[name]
    write_results(tmp_path / "metrics.csv", cli.METRICS_FIELDS, [["d", "m", 0.0, 0, 80, 20, 0.5, 1.0, 2.0]])
    path = tmp_path / name
    header = (",".join(fields) + "\n").encode() if with_header else b""
    path.write_bytes(header + body)
    try:
        cli._read_results(path, fields)
    except ValueError as exc:
        assert str(exc).count(str(path)) == 1
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count(str(path)) == 1 and "Traceback" not in err
    else:
        assert main(["report", "--out", str(tmp_path)]) in (0, 2)


def test_report_bolds_better_column(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.METRICS_FIELDS)
        for split in range(2):
            writer.writerow(["d", "m", "0.0", split, 80, 20, 0.5 + split, 1.0, 2.0])
            writer.writerow(["d", "m", "20.0", split, 80, 20, 0.1 + split, 1.5, 2.5])
    assert main(["report", "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    assert "**0.6000 +/- 0.7071**" in text  # lam=20 wins calibration
    assert "**1.0000 +/- 0.0000**" in text  # lam=0 wins rmse
    summary = read_rows(out / "summary.csv")
    assert len(summary) == 6


def test_report_ties_bold_both(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.METRICS_FIELDS)
        writer.writerow(["d", "m", "0.0", 0, 80, 20, 0.5, 1.0, 2.0])
        writer.writerow(["d", "m", "20.0", 0, 80, 20, 0.5 + 1e-12, 1.0, 2.0])
    main(["report", "--out", str(out)])
    line = [
        l for l in (out / "report.txt").read_text().splitlines() if l.startswith("d/m")
    ][0]
    assert line.count("**") == 4  # both columns bolded on a tie


def test_report_includes_recalibration_table(tmp_path):
    out = tmp_path / "run"
    main(["train", "--config", write_config(tmp_path), "--out", str(out)])
    main(["recalibrate", "--out", str(out)])
    trained_summary = (out / "summary.csv").read_bytes()
    main(["report", "--out", str(out)])
    text = (out / "report.txt").read_text()
    assert "recalibration" in text
    assert "splits worse" in text
    assert (out / "summary.csv").read_bytes() == trained_summary


def test_csv_path_dataset_roundtrip(tmp_path):
    rows = ["x,y"] + [f"{i * 0.1},{i * 0.2}" for i in range(60)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path, {"dataset": str(data), "n_splits": 2, "lambdas": [0.0], "epochs": 2}
    )
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_rows(out / "metrics.csv")
    assert len(metrics) == 2
    assert metrics[0]["dataset"] == str(data)


def test_cli_overrides_beat_config(tmp_path):
    cfg = write_config(tmp_path, {"seed": 1})
    out = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(out), "--seed", "2", "--lambda", "0"])
    stored = json.loads((out / "run_config.json").read_text())
    assert stored["seed"] == 2
    assert stored["lambdas"] == [0.0]


SRC = Path(__file__).resolve().parents[1] / "src"
COLD_START = """\
import sys
from quantcal.cli import main
if sys.argv[1:]:
    assert main(sys.argv[1:]) == 0
print("scipy:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def scipy_in_fresh_interpreter(*argv):
    """The scipy modules a new interpreter holds after importing quantcal.cli
    and, given `argv`, running main(argv). This process has scipy loaded
    already, so the check cannot run here."""
    proc = subprocess.run([sys.executable, "-c", COLD_START, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = next(line for line in proc.stdout.splitlines() if line.startswith("scipy:"))
    return set(line.split()[1:])


def test_import_loads_no_scipy():
    assert scipy_in_fresh_interpreter() == set()


def test_report_loads_no_scipy(tiny_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(tiny_run, run)
    assert scipy_in_fresh_interpreter("report", "--out", str(run)) == set()


@pytest.mark.parametrize("model", ["mc_dropout", "ensemble"])
def test_train_and_recalibrate_load_no_scipy(tmp_path, model):
    # lambda 20 also takes the normal CDF inside training, in the penalty
    cfg = write_config(tmp_path, {"model": model, "ensemble_size": 2, "synth_n": 60, "epochs": 1,
                                  "n_splits": 1, "mc_passes": 2, "lambdas": [0.0, 20.0]})
    run = str(tmp_path / "run")
    assert scipy_in_fresh_interpreter("train", "--config", cfg, "--out", run) == set()
    assert scipy_in_fresh_interpreter("recalibrate", "--config", cfg, "--out", run) == set()


def test_sweep_loads_no_scipy(tmp_path):
    cfg = write_config(tmp_path, {"synth_n": 60, "epochs": 1, "n_splits": 1, "mc_passes": 2,
                                  "lambdas": [0.0, 1.0, 20.0]})
    assert scipy_in_fresh_interpreter("sweep", "--config", cfg,
                                      "--out", str(tmp_path / "run")) == set()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quantcal.cli", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0
    assert "quantcal" in proc.stdout


class DataWouldLoad(Exception):
    """Raised by the stubbed dataset loader: the config passed the gate."""


# ints from 2**1024 up overflow a float
INTS = st.integers() | st.integers(min_value=2**1020, max_value=2**1030)
NUMBERS = INTS | st.floats()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
# values of each field's own type, often in range, so that examples get past the type checks
TYPED_VALUES = {
    "int": st.integers(1, 50) | INTS,
    "float": st.floats(0.01, 0.99) | NUMBERS,
    "bool": st.booleans(),
    "str": st.sampled_from(cli.MODELS + cli.CALIB_SPLITS) | st.text(max_size=8),
    "list[float] | None": st.none() | st.lists(NUMBERS, max_size=3),
}
FIELDS = dataclasses.fields(ExperimentConfig)
RUN_CONFIGS = st.one_of(
    st.fixed_dictionaries({}, optional={f.name: TYPED_VALUES[f.type] for f in FIELDS}),
    st.dictionaries(st.sampled_from([f.name for f in FIELDS] + ["version"]) | st.text(max_size=8),
                    JSON_VALUES, max_size=6),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=RUN_CONFIGS)
@example(raw={"lambdas": [2**1024]})
def test_any_run_config_exits_2_or_reaches_the_data(tmp_path, capsys, monkeypatch, raw):
    def no_data(cfg):
        raise DataWouldLoad

    monkeypatch.setattr(cli, "_load_base_dataset", no_data)
    (tmp_path / "run_config.json").write_text(json.dumps(raw))
    capsys.readouterr()
    try:
        rc = main(["recalibrate", "--out", str(tmp_path)])
    except DataWouldLoad:
        return
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# values of each field's own type, often in range, so that examples reach the CSV reader
DESCRIPTOR_VALUES = {
    "name": st.text(max_size=6),
    "filename": st.sampled_from(["tiny.csv", "gone.csv", "", "."]),
    "source": st.text(max_size=6),
    "target_column": st.integers(-3, 3) | st.sampled_from(["1", "x"]),
    "delimiter": st.sampled_from([",", ";", "", ",,", '"', "\n", "\r", "\x00"]),
    "has_header": st.booleans(),
    "expected_rows": st.none() | st.integers(0, 4),
    "expected_features": st.none() | st.integers(0, 4),
}
REQUIRED = ("name", "filename", "source")
DESCRIPTORS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({k: DESCRIPTOR_VALUES[k] for k in REQUIRED},
                          optional={k: v for k, v in DESCRIPTOR_VALUES.items() if k not in REQUIRED}),
    st.fixed_dictionaries({}, optional={k: v | JSON_VALUES for k, v in DESCRIPTOR_VALUES.items()}),
)


class DescriptorLoaded(Exception):
    """Raised by the stubbed split loop: the descriptor's CSV loaded."""


@pytest.mark.filterwarnings("ignore:.*descriptor lists")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=DESCRIPTORS)
@example(raw=[1, 2])
@example(raw={"name": "x", "source": "y"})
@example(raw={"name": "x", "filename": "gone.csv", "source": "a\nb"})
@example(raw={"name": "a\nb", "filename": "tiny.csv", "source": "y", "expected_rows": 2})
def test_any_descriptor_exits_1_or_2_or_loads(tmp_path, capsys, monkeypatch, raw):
    def loaded(*args):
        raise DescriptorLoaded

    monkeypatch.setattr(cli, "_split_runs", loaded)
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    (data / "tiny.csv").write_text("1,2\n3,4\n5,6\n")
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps(raw))
    config = write_config(tmp_path, {"data_dir": str(data)})
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    try:
        rc = main(["train", "--config", config, "--dataset", str(desc), "--out", str(out)])
    except DescriptorLoaded:
        return
    err = capsys.readouterr().err
    assert rc in (1, 2) and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()
    # a descriptor the loader rejects is named; a CSV fault names the CSV
    assert str(desc) in err or str(data) in err
