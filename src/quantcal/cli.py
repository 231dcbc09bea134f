"""Experiment harness: train / recalibrate / sweep / report.

Runs the base-versus-regularized comparison over seeded splits of a CSV or
synthetic dataset, writes everything as CSV (full-precision floats, stable
row order, so identical configs produce byte-identical files), and renders
mean +/- std tables from the results.

`train` and `sweep` take a JSON config whose keys are all optional (the
defaults reproduce the reference settings; the training, ensemble, metric
and split defaults are those of the component configs) plus flag overrides.
`recalibrate` and `report` take only `--config` and `--out` and read only
`out` from the config: everything else they read from the run directory,
so `calib_split` is chosen at train time. `--desk-scale` caps epochs and
rows so a full run finishes in well under a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (MIN_SPLIT_ROWS, SplitSpec, _has_type, descriptor_names, find_descriptor,
                       fit_standardization, load_csv, load_from_descriptor, make_splits,
                       read_csv_rows, standardized_view, synth_hetero, write_csv)
from .gaussian import pit
from .metrics import MetricConfig, MetricsReport, calibration_error, spearman
from .models import (
    EnsembleConfig,
    TrainConfig,
    ensemble_predict,
    ensemble_train,
    load_params,
    mc_dropout_predict,
    save_params,
    train,
)
from .recalib import apply_map, fit_calibration_map, save_map
from .softsort import SoftSortConfig

DESK_EPOCHS = 25
DESK_MAX_ROWS = 500
# per-split seed derivation; lambda-independent so base and regularized runs
# start from identical weights and batch orders
TRAIN_SEED_STRIDE = 1000
PREDICT_SEED_OFFSET = 500000
CALIB_SEED_OFFSET = 600000
# run_config.json's record of the values `train` loaded (`_data_digest`)
DIGEST_KEY = "data_sha256"

MODELS = ("mc_dropout", "ensemble")
CALIB_SPLITS = ("train", "holdout")
METRICS = ("calib_error", "rmse", "nll")

METRICS_FIELDS = ("dataset", "model", "lam", "split", "n_train", "n_test", "calib_error", "rmse", "nll")
RELIABILITY_FIELDS = ("dataset", "model", "lam", "split", "expected", "observed")
SUMMARY_FIELDS = ("dataset", "model", "lam", "metric", "mean", "std")
RECALIB_FIELDS = ("dataset", "model", "lam", "split", "pre_calib_error", "post_calib_error", "flag")
CURVE_FIELDS = ("lam", "calib_error_mean", "calib_error_std", "rmse_mean", "rmse_std", "nll_mean", "nll_std")


class ConfigError(Exception):
    pass


# field annotation (a string: annotations are postponed) -> accepted types
_FIELD_TYPES = {
    "int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
    "list[float] | None": (list, type(None)),
}


def _is_finite_float(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past float's range
        return False


def _read_json_object(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return raw


@dataclass
class ExperimentConfig:
    dataset: str = "synth_hetero"
    data_dir: str = "data"
    synth_n: int = 2000
    model: str = "mc_dropout"
    lambdas: list[float] | None = None
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    dropout_rate: float = TrainConfig.dropout_rate
    tau: float = SoftSortConfig.tau
    mc_passes: int = 10
    ensemble_size: int = EnsembleConfig.size
    adv_eps_scale: float = EnsembleConfig.adv_eps_scale
    bins: int = MetricConfig.bins
    percent: bool = MetricConfig.percent
    n_splits: int = SplitSpec.n_splits
    test_fraction: float = SplitSpec.test_fraction
    seed: int = 0
    out: str = "results"
    desk_scale: bool = False
    calib_split: str = "train"

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(_read_json_object(path), source=str(path))

    @classmethod
    def from_dict(cls, raw, source="config"):
        """Unvalidated config; call `validate` once every override is in."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"{source}: unknown keys {unknown}; known keys: {sorted(known)}")
        return cls(**raw)

    def validate(self):
        """The one config gate: field types first, then every component
        config the run will build, so each range rule lives in the
        component that owns it and a bad value fails before data loads."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, list) else []
            if not _has_type(value, _FIELD_TYPES[f.type]) or not all(
                _has_type(v, (int, float)) for v in items
            ):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            # json reads NaN, Infinity and ints too large for a float
            numbers = [v for v in [*items, value] if isinstance(v, (int, float))]
            if "float" in f.type and not all(_is_finite_float(v) for v in numbers):
                raise ConfigError(f"{f.name} must be a finite float, got {value!r}")
        if (self.dataset != "synth_hetero" and not self.dataset.endswith(".csv")
                and find_descriptor(self.dataset) is None):
            raise ConfigError(
                f"dataset must be synth_hetero, a CSV path, a descriptor JSON path or one of "
                f"{descriptor_names()}, got {self.dataset!r}"
            )
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.calib_split not in CALIB_SPLITS:
            raise ConfigError(
                f"calib_split must be one of {CALIB_SPLITS}, got {self.calib_split!r}"
            )
        if self.lambdas is not None and not self.lambdas:
            raise ConfigError("lambdas must be a nonempty list when given")
        # a lambda's value keys its summary rows and its {lam:g} spelling names its files
        lams = self.lambdas or []
        if len(set(map(float, lams))) < len(lams) or len({f"{lam:g}" for lam in lams}) < len(lams):
            raise ConfigError(f"lambdas must differ in value and when printed as {{lam:g}}, got {lams!r}")
        for name, least in (("mc_passes", 1), ("synth_n", MIN_SPLIT_ROWS)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        try:
            self.split_spec()
            self.metric_config()
            SoftSortConfig(tau=self.tau)
            self.ensemble_config()
            for lam in self.resolved_lambdas("train"):
                self.train_config(lam, split=0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # no component sees both fields
        if self.model == "mc_dropout" and self.dropout_rate == 0.0:
            raise ConfigError("model mc_dropout needs dropout_rate > 0, got 0")

    def resolved_lambdas(self, command):
        if self.lambdas is not None:
            return [float(l) for l in self.lambdas]
        if command == "sweep":
            return [0.0, 1.0, 5.0, 10.0, 20.0]
        return [0.0, 20.0]

    def effective_epochs(self):
        return min(self.epochs, DESK_EPOCHS) if self.desk_scale else self.epochs

    def metric_config(self):
        return MetricConfig(bins=self.bins, percent=self.percent)

    def train_seed(self, split):
        return self.seed + TRAIN_SEED_STRIDE * (split + 1)

    def split_spec(self):
        return SplitSpec(n_splits=self.n_splits, test_fraction=self.test_fraction, seed=self.seed)

    def ensemble_config(self):
        return EnsembleConfig(size=self.ensemble_size, adv_eps_scale=self.adv_eps_scale)

    def train_config(self, lam, split):
        return TrainConfig(
            lam=lam,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.effective_epochs(),
            dropout_rate=self.dropout_rate,
            tau=self.tau,
            seed=self.train_seed(split),
        )


def _load_base_dataset(cfg):
    if cfg.dataset == "synth_hetero":
        ds = synth_hetero(cfg.synth_n, seed=cfg.seed)
    elif cfg.dataset.endswith(".csv"):
        ds = load_csv(cfg.dataset)  # a missing file raises FileNotFoundError naming it
    else:
        ds = load_from_descriptor(cfg.dataset, cfg.data_dir)
    if cfg.desk_scale and len(ds) > DESK_MAX_ROWS:
        keep = np.sort(np.random.default_rng(cfg.seed).permutation(len(ds))[:DESK_MAX_ROWS])
        ds = ds.subset(keep)
    return ds


def _data_digest(ds):
    """sha256 of the dataset's float64 values, the features column by column
    and then the targets, the same bytes in any layout: one column's copy at
    a time, not the table's. A reformatted CSV with the same values gives
    the same digest."""
    digest = hashlib.sha256()
    for column in ds.features.T:
        digest.update(np.ascontiguousarray(column))
    digest.update(np.ascontiguousarray(ds.targets))
    return digest.hexdigest()


def _split_runs(cfg, ds, lambdas, members_of):
    """The split loop `train`, `sweep` and `recalibrate` share; it predicts
    nothing. Yields (split, fit, calib, test_idx, transform, members) per
    seeded split: the standardized rows the models train on and those that
    fit the calibration map, the test row indices, the standardization
    fitted on the training rows, and per lambda `members_of(lam, split,
    fit)`, got for every lambda before the split is yielded so that one
    `_predict` call can predict them all. `holdout` carves a seeded fifth
    of the train split off before training so the map never sees training
    rows; otherwise `calib` is `fit` itself. The standardized sets are views
    of `ds` (`standardized_view`), standardized a batch or row block at a
    time as they are read, so a run holds the loaded table once. A failure
    is named by its split and lambda (`_run_named`)."""
    for split, (train_idx, test_idx) in enumerate(make_splits(len(ds), cfg.split_spec())):
        fit_idx = calib_idx = train_idx
        if cfg.calib_split == "holdout":
            perm = np.random.default_rng(cfg.train_seed(split) + 17).permutation(len(train_idx))
            n_calib = max(1, int(round(0.2 * len(train_idx))))
            calib_idx = np.sort(train_idx[perm[:n_calib]])
            fit_idx = np.sort(train_idx[perm[n_calib:]])
        transform = fit_standardization(ds, fit_idx)
        fit = standardized_view(ds, fit_idx, transform)
        calib = fit if calib_idx is fit_idx else standardized_view(ds, calib_idx, transform)
        members = []
        for lam in lambdas:
            with _run_named(split, lam):
                members.append(members_of(lam, split, fit))
        yield split, fit, calib, test_idx, transform, members


@contextlib.contextmanager
def _run_named(split, lam):
    """Re-raise a failure inside the run of `split` and `lam` as one
    RuntimeError line that names them."""
    try:
        yield
    except (RuntimeError, ValueError, MemoryError) as exc:
        detail = str(exc) or type(exc).__name__  # a bare MemoryError has no message
        raise RuntimeError(f"split {split}, lam={lam:g}: {detail}") from exc


def _predict(cfg, split, lambdas, members, x, seed):
    """Each lambda's prediction of `x` under `seed`, from its members, in one
    call for either model; MC dropout draws each mask once for all lambdas.
    A failure is named by the lambda whose network or mixture raised it (the
    group `_blockwise` tags), else by the first lambda."""
    try:
        if cfg.model == "ensemble":
            return ensemble_predict(members, x)
        return mc_dropout_predict([run_members[0] for run_members in members], x,
                                  passes=cfg.mc_passes, dropout_rate=cfg.dropout_rate, seed=seed)
    except (RuntimeError, ValueError, MemoryError) as exc:
        with _run_named(split, lambdas[getattr(exc, "group", 0)]):
            raise


def _artifact_paths(out_dir, cfg, lam, split):
    stem = out_dir / "models" / f"{cfg.model}_lam{lam:g}_split{split}"
    if cfg.model == "mc_dropout":
        return [Path(f"{stem}.bin")]
    return [Path(f"{stem}_m{j}.bin") for j in range(cfg.ensemble_size)]


def _pits_path(out_dir, cfg, lam, split):
    return out_dir / "pits" / f"{cfg.model}_lam{lam:g}_split{split}.npy"


def _load_pits(path, n_test):
    """The test PITs `train` saved at `path` for a split of `n_test` test
    rows. A missing file raises ConfigError; anything but a float64
    (n_test,) .npy array of values in [0, 1] raises a ValueError naming it."""
    try:
        with open(path, "rb") as fh:
            # np.load reads a zip archive or a pickle too; only an array will do
            is_npy = fh.read(6) == b"\x93NUMPY"
    except FileNotFoundError:
        raise ConfigError(f"{path} not found; run `quantcal train` again to write it") from None
    try:
        if not is_npy:
            raise ValueError("not a .npy file")
        # mapped, so a header that claims a huge shape allocates nothing; its
        # size may overflow, which then fails as a ValueError, not a warning
        with np.errstate(over="ignore"):
            mapped = np.load(path, mmap_mode="r", allow_pickle=False)
        if mapped.dtype != np.float64 or mapped.shape != (n_test,):
            raise ValueError(f"expected {n_test} float64 values, got {mapped.dtype} of shape "
                             f"{mapped.shape}")
        pits = np.array(mapped)
        if not np.all((pits >= 0.0) & (pits <= 1.0)):  # NaN included
            raise ValueError("values outside [0, 1]")
    except (ValueError, TypeError, OSError) as exc:
        raise ValueError(f"{path} is not a PIT file of the split's test rows: {exc}") from None
    return pits


def _summarize(metric_rows):
    """(dataset, model, lam) -> metric -> (mean, std). Sample std, 0 for a
    single value."""
    groups = {}
    for row in metric_rows:
        key = (row["dataset"], row["model"], row["lam"])
        groups.setdefault(key, []).append(row)
    summary = {}
    for key, rows in sorted(groups.items()):
        stats = {}
        for metric in METRICS:
            vals = np.array([r[metric] for r in rows])
            std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
            stats[metric] = (float(vals.mean()), std)
        summary[key] = stats
    return summary


def _write_summary(out_dir, summary):
    write_csv(
        out_dir / "summary.csv",
        SUMMARY_FIELDS,
        [
            [dataset, model, lam, metric, mean, std]
            for (dataset, model, lam), stats in summary.items()
            for metric, (mean, std) in stats.items()
        ],
    )


def _run_experiment(cfg, lambdas):
    """Train every (lambda, split) pair and predict its test rows; returns
    metric rows, reliability rows, the trained members and the test PITs
    keyed by (lam, split), and the data's digest."""
    ds = _load_base_dataset(cfg)
    # after the data loads, so a dataset that fails leaves no --out, and before
    # any model trains, so an --out that cannot be made costs no run
    Path(cfg.out).mkdir(parents=True, exist_ok=True)

    def members_of(lam, split, fit):
        tcfg = cfg.train_config(lam, split)
        if cfg.model == "mc_dropout":
            return [train(fit, tcfg)]
        return ensemble_train(fit, tcfg, cfg.ensemble_config())

    mcfg = cfg.metric_config()
    metric_rows = []
    reliability_rows = []
    members_by_run = {}
    pits_by_run = {}
    for split, fit, _, test_idx, transform, members in _split_runs(cfg, ds, lambdas, members_of):
        test = standardized_view(ds, test_idx, transform)
        seed = cfg.train_seed(split) + PREDICT_SEED_OFFSET
        preds = _predict(cfg, split, lambdas, members, test.features, seed)
        for lam, run_members, pred in zip(lambdas, members, preds):
            with _run_named(split, lam):
                pits = pit(pred, test.targets)
            report = MetricsReport.evaluate(
                transform.inverse_predictions(pred), ds.targets[test_idx], pits, mcfg
            )
            row = (cfg.dataset, cfg.model, lam, split, len(fit), len(test_idx),
                   report.calib_error, report.rmse, report.nll)
            metric_rows.append(dict(zip(METRICS_FIELDS, row)))
            for expected, observed in report.reliability:
                reliability_rows.append((cfg.dataset, cfg.model, lam, split, expected, observed))
            members_by_run[(lam, split)] = run_members
            pits_by_run[(lam, split)] = pits
    return metric_rows, reliability_rows, members_by_run, pits_by_run, _data_digest(ds)


def _write_run_outputs(cfg, out_dir, metric_rows, reliability_rows, members_by_run, pits_by_run,
                       summary, digest):
    # an earlier run's curve, report, models and recalibration would be
    # shown beside these metrics
    for name in ("recalib.csv", "curve.csv", "report.txt"):
        (out_dir / name).unlink(missing_ok=True)
    for stale in (out_dir / "maps", out_dir / "pits", out_dir / "models"):
        if stale.exists():
            shutil.rmtree(stale)
    write_csv(out_dir / "metrics.csv", METRICS_FIELDS, [r.values() for r in metric_rows])
    write_csv(out_dir / "reliability.csv", RELIABILITY_FIELDS, reliability_rows)
    _write_summary(out_dir, summary)
    (out_dir / "models").mkdir()
    for (lam, split), members in members_by_run.items():
        for member, path in zip(members, _artifact_paths(out_dir, cfg, lam, split)):
            save_params(member, path)
    (out_dir / "pits").mkdir()
    for (lam, split), pits in pits_by_run.items():
        np.save(_pits_path(out_dir, cfg, lam, split), pits, allow_pickle=False)
    resolved = dataclasses.asdict(cfg)
    resolved["version"] = __version__
    resolved[DIGEST_KEY] = digest
    with open(out_dir / "run_config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(cfg, command="train"):
    """`train`, or `sweep`: the same run over a wider default lambda grid,
    plus the trade-off curve in curve.csv."""
    # stored as run, so `recalibrate` reads these lambdas, not a verb's default
    cfg = replace(cfg, lambdas=cfg.resolved_lambdas(command))
    lambdas, out_dir = cfg.lambdas, Path(cfg.out)
    metric_rows, reliability_rows, members_by_run, pits_by_run, digest = _run_experiment(
        cfg, lambdas)
    summary = _summarize(metric_rows)
    _write_run_outputs(cfg, out_dir, metric_rows, reliability_rows, members_by_run, pits_by_run,
                       summary, digest)
    if command != "sweep":
        for (dataset, model, lam), stats in summary.items():
            mean, std = stats["calib_error"]
            print(
                f"{dataset} {model} lam={lam:g}: calib_error {mean:.4f} +/- {std:.4f}, "
                f"rmse {stats['rmse'][0]:.4f}, nll {stats['nll'][0]:.4f}"
            )
        print(f"wrote {out_dir / 'metrics.csv'}")
        return 0
    curve = [summary[(cfg.dataset, cfg.model, lam)] for lam in lambdas]
    write_csv(
        out_dir / "curve.csv",
        CURVE_FIELDS,
        [
            [lam] + [v for metric in METRICS for v in stats[metric]]
            for lam, stats in zip(lambdas, curve)
        ],
    )
    means = [stats["calib_error"][0] for stats in curve]
    for lam, mean in zip(lambdas, means):
        print(f"lam={lam:g}: mean calib_error {mean:.4f}")
    if len(lambdas) > 1:
        rho = spearman(lambdas, means)
        print(f"spearman(lambda, calib_error) = {rho:.3f}")
    print(f"wrote {out_dir / 'curve.csv'}")
    return 0


def cmd_recalibrate(cfg):
    """Refit isotonic maps for the run in `cfg.out`, under its stored config,
    and score them on the test PITs `train` saved under `pits/`. Every PIT
    file is read and checked before any model loads. Each split's models
    are loaded once (`_split_runs`), and one `_predict` call predicts its
    calibration rows for every lambda under the split's seed: the only
    inference the verb makes."""
    out_dir = Path(cfg.out)
    run_config_path = out_dir / "run_config.json"
    if not run_config_path.exists():
        raise ConfigError(
            f"{run_config_path} not found; run `quantcal train` into this directory first"
        )
    stored = _read_json_object(run_config_path)
    stored.pop("version", None)
    trained_on = stored.pop(DIGEST_KEY, None)
    cfg = ExperimentConfig.from_dict(stored, source=str(run_config_path))
    cfg.validate()

    ds = _load_base_dataset(cfg)
    digest = _data_digest(ds)
    if trained_on != digest:
        raise ConfigError(
            f"{run_config_path}: the dataset is not the one the models were trained on: "
            f"{DIGEST_KEY} {trained_on} there, {digest} in {cfg.dataset}"
        )

    def members_of(lam, split, fit):
        # a missing file raises FileNotFoundError naming it
        return [load_params(p) for p in _artifact_paths(out_dir, cfg, lam, split)]

    mcfg = cfg.metric_config()
    maps = {}
    rows = []
    lambdas = cfg.resolved_lambdas("train")
    n_test = cfg.split_spec().test_rows(len(ds))
    pits_by_run = {(lam, split): _load_pits(_pits_path(out_dir, cfg, lam, split), n_test)
                   for split in range(cfg.n_splits) for lam in lambdas}
    for split, _, calib, _, _, members in _split_runs(cfg, ds, lambdas, members_of):
        seed = cfg.train_seed(split) + CALIB_SEED_OFFSET
        for lam, pred in zip(lambdas, _predict(cfg, split, lambdas, members, calib.features, seed)):
            pits = pits_by_run[(lam, split)]
            cal_map = fit_calibration_map(pred, calib.targets)
            maps[f"{cfg.model}_lam{lam:g}_split{split}.csv"] = cal_map
            pre = calibration_error(pits, mcfg)
            post = calibration_error(apply_map(cal_map, pits), mcfg)
            rows.append((cfg.dataset, cfg.model, lam, split, pre, post, "*" if post > pre else ""))
    # only after every run, so a failed one leaves the earlier maps as they were
    (out_dir / "maps").mkdir(exist_ok=True)
    for name, cal_map in maps.items():
        save_map(cal_map, out_dir / "maps" / name)
    write_csv(out_dir / "recalib.csv", RECALIB_FIELDS, rows)
    for dataset, model, lam, split, pre, post, flag in rows:
        print(
            f"{dataset} {model} lam={lam:g} split={split}: "
            f"calib_error {pre:.4f} -> {post:.4f}{flag}"
        )
    print(f"wrote {out_dir / 'recalib.csv'}")
    return 0


def _read_results(path, fields):
    """Rows of a results CSV written with header `fields`, as dicts with all
    but the text columns converted to float; an empty file has no rows. Any other
    file raises a ValueError naming it, and the row and column at fault."""
    rows = read_csv_rows(path)
    if rows and tuple(rows[0]) != fields:
        raise ValueError(f"{path}: expected the columns {list(fields)}, got {rows[0]}")
    records = []
    for r, row in enumerate(rows[1:]):
        record = {}
        for name, cell in zip(fields, row):
            try:
                record[name] = cell if name in ("dataset", "model", "flag") else float(cell)
            except ValueError:
                raise ValueError(f"{path}: non-numeric value {cell!r} at row {r}, column {name}") from None
        records.append(record)
    return records


def _bold_pair(values):
    """Indices to bold: the lowest value, plus anything within 1e-9 of it."""
    best = min(values)
    return [abs(v - best) <= 1e-9 for v in values]


def cmd_report(cfg):
    out_dir = Path(cfg.out)
    metrics_path = out_dir / "metrics.csv"
    if not metrics_path.exists():
        raise ConfigError(f"{metrics_path} not found; nothing to report")
    metric_rows = _read_results(metrics_path, METRICS_FIELDS)
    if not metric_rows:
        raise ConfigError(f"{metrics_path} has no rows")
    summary = _summarize(metric_rows)
    lambdas = sorted({key[2] for key in summary})
    groups = sorted({(key[0], key[1]) for key in summary})
    lines = []
    for metric in METRICS:
        lines.append(f"== {metric} (mean +/- std over splits; best per row in **bold**) ==")
        header = ["dataset/model"] + [f"lam={lam:g}" for lam in lambdas]
        lines.append(" | ".join(header))
        for dataset, model in groups:
            cells = []
            means = []
            for lam in lambdas:
                stats = summary.get((dataset, model, lam))
                if stats is None:
                    cells.append("-")
                    means.append(float("inf"))
                    continue
                mean, std = stats[metric]
                means.append(mean)
                cells.append(f"{mean:.4f} +/- {std:.4f}")
            for i, bold in enumerate(_bold_pair(means)):
                if bold and cells[i] != "-":
                    cells[i] = f"**{cells[i]}**"
            lines.append(" | ".join([f"{dataset}/{model}"] + cells))
        lines.append("")
    recalib_path = out_dir / "recalib.csv"
    rec = _read_results(recalib_path, RECALIB_FIELDS) if recalib_path.exists() else []
    if rec:
        lines.append("== recalibration (pre -> post calibration error; * marks post > pre) ==")
        header = ["dataset/model/lam", "pre", "post"]
        lines.append(" | ".join(header))
        grouped = {}
        for r in rec:
            grouped.setdefault((r["dataset"], r["model"], r["lam"]), []).append(r)
        for key, rs in sorted(grouped.items()):
            pre = np.mean([r["pre_calib_error"] for r in rs])
            post = np.mean([r["post_calib_error"] for r in rs])
            stars = sum(1 for r in rs if r["flag"] == "*")
            mark = "*" if stars > len(rs) / 2 else ""
            lines.append(
                f"{key[0]}/{key[1]}/lam={key[2]:g} | {pre:.4f} | {post:.4f}{mark} "
                f"({stars}/{len(rs)} splits worse)"
            )
        lines.append("")
    text = "\n".join(lines)
    _write_summary(out_dir, summary)
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(text)
    print(text)
    print(f"wrote {out_dir / 'report.txt'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quantcal",
        description="Quantile-calibration experiments for probabilistic regression.",
    )
    parser.add_argument("--version", action="version", version=f"quantcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train base and regularized models over seeded splits"),
        ("recalibrate", "fit isotonic maps for a finished run and re-score"),
        ("sweep", "train across a lambda grid and emit the trade-off curve"),
        ("report", "render mean +/- std tables from a results directory"),
    ):
        p = sub.add_parser(name, help=help_text)
        # recalibrate and report read the rest from the run directory
        runs_experiment = name in ("train", "sweep")
        p.add_argument("--config", help="JSON config file")
        if runs_experiment:
            p.add_argument("--dataset", help="synth_hetero, a shipped descriptor name, or a CSV path")
            p.add_argument("--lambda", dest="lambdas", type=float, action="append",
                           help="penalty weight; repeat for a grid (overrides config)")
            p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="results directory")
        if runs_experiment:
            p.add_argument("--desk-scale", action="store_true", default=None,
                           help=f"cap epochs at {DESK_EPOCHS} and rows at {DESK_MAX_ROWS}")
            p.add_argument("--calib-split", choices=CALIB_SPLITS,
                           help="rows used to fit the isotonic map, chosen at train time (default train)")
            p.add_argument("--model", choices=MODELS, help="uncertainty model")
    return parser


def _config_from_args(args):
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for key in ("dataset", "lambdas", "seed", "out", "desk_scale", "calib_split", "model"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if args.command in ("recalibrate", "report"):
        # they read the run's own settings from its directory
        cfg = ExperimentConfig(out=cfg.out)
    cfg.validate()
    return cfg


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    try:
        cfg = _config_from_args(args)
        if args.command == "recalibrate":
            return cmd_recalibrate(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        return cmd_train(cfg, args.command)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError, KeyError, MemoryError) as exc:  # OSError names its path
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
