"""Dataset loading, standardization, splitting, and a synthetic benchmark.

Real tabular data comes in as CSV; shipped JSON descriptors record where
the well-known regression benchmarks live, which column is the target, and
the expected shape (row mismatches are errors, feature-count mismatches
only warn because published counts are not consistent about including the
target column).

The synthetic benchmark has strong heteroscedastic noise with a known
ground truth: x ~ U[-2, 2], y = sin(2x) + (0.1 + 0.4|x|) * eps.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .gaussian import GaussianPrediction


@dataclass
class Standardization:
    """Affine transform fitted on (a subset of) a dataset.

    Population statistics (ddof=0); constant feature columns are dropped
    rather than divided by zero.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float
    target_std: float
    kept_columns: np.ndarray

    def apply(self, features, targets):
        """The standardized copies of `features` and `targets`: the column
        selection and the target difference are fresh arrays, so the rest
        runs in place on them, with the bits of (f - mean) / std."""
        z = np.asarray(features, dtype=np.float64)[:, self.kept_columns]
        z -= self.feature_mean
        z /= self.feature_std
        t = np.asarray(targets, dtype=np.float64) - self.target_mean
        t /= self.target_std
        return z, t

    def inverse_predictions(self, preds):
        """Map a prediction on the standardized scale back to raw units."""
        return GaussianPrediction(
            preds.mu * self.target_std + self.target_mean,
            preds.sigma * self.target_std,
        )


@dataclass
class Dataset:
    features: np.ndarray
    targets: np.ndarray
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.ndim != 2 or self.targets.ndim != 1:
            raise ValueError(
                f"Dataset: expected (n, d) features and (n,) targets, got "
                f"{self.features.shape} and {self.targets.shape}"
            )
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"Dataset: {self.features.shape[0]} feature rows vs "
                f"{self.targets.shape[0]} targets"
            )
        if not self.feature_names:
            self.feature_names = [f"x{i}" for i in range(self.features.shape[1])]

    def __len__(self):
        return self.targets.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def subset(self, idx):
        return Dataset(self.features[idx], self.targets[idx], list(self.feature_names))


def read_csv_rows(path, delimiter=",", has_header=True):
    """The nonblank rows of a CSV file, each as wide as the first; a ragged
    row (numbered from 0 after any header), bytes that are not text or a
    field past the csv size limit raise a ValueError naming the path."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh, delimiter=delimiter) if r]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    width = len(rows[0]) if rows else 0
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r - has_header} has {len(row)} cells, expected {width}")
    return rows


def write_csv(path, fields, rows):
    """Write `fields` as the header, then `rows`; floats keep their repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def _target_index(path, header, target_column):
    """Position of the target: a name in `header`, or an integer position in
    [-width, width)."""
    if isinstance(target_column, str):
        if target_column not in header:
            raise ValueError(
                f"load_csv: {path}: target column {target_column!r} not in header {header}"
            )
        return header.index(target_column)
    width, position = len(header), int(target_column)
    if not -width <= position < width:
        raise ValueError(f"load_csv: {path}: target column {position} is outside [-{width}, {width})")
    return position % width


def load_csv(path, target_column=-1, delimiter=",", has_header=True):
    """Read a numeric CSV into a Dataset.

    target_column: name (requires a header) or integer position in
    [-width, width). The header is the first nonblank
    row, read with `csv`; the target is checked against it before any cell
    is parsed. The cells go through numpy's C text reader (`np.loadtxt`),
    which makes no Python string per cell and rounds correctly, as float()
    does, so the values are float()'s to the bit. Blank lines are skipped,
    and a cell may be quoted with '"' and padded with whitespace.

    The spellings it accepts are float()'s, with these exceptions:
    underscores between digits ('1_0') and non-ASCII digits ('１', '٣') are
    rejected; padding with the ASCII separator controls '\\x1c'-'\\x1f' is
    accepted; and a cell longer than csv's field size limit (131072
    characters) is read.

    Only a file that fails is read again, with `read_csv_rows` and float(),
    to name the fault: a ragged row, or a non-numeric or non-finite cell
    with its row and column. Every error is a ValueError naming the path.
    """
    header = None
    try:
        with open(path, newline="") as fh:
            if has_header:
                header = next((r for r in csv.reader(fh, delimiter=delimiter) if r), None)
                if header is None:
                    raise ValueError("no header")
                target_idx = _target_index(path, header, target_column)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on no rows
                data = np.loadtxt(fh, np.float64, comments=None, delimiter=delimiter,
                                  quotechar='"', ndmin=2)
        if header is None:
            header = [f"col{i}" for i in range(data.shape[1])]
            target_idx = _target_index(path, header, target_column)
        if data.shape[0] == 0 or data.shape[1] != len(header):
            raise ValueError(f"{data.shape[0]} rows of {data.shape[1]} cells under {len(header)} names")
        if not np.isfinite(data).all():
            raise ValueError("non-finite value")
    except (ValueError, UnicodeDecodeError, csv.Error) as exc:
        _explain_failure(path, target_column, delimiter, has_header, exc)
    feature_cols = [i for i in range(len(header)) if i != target_idx]
    names = [header[i] for i in feature_cols]
    # a copy, so the Dataset does not keep the whole table alive
    return Dataset(data[:, feature_cols], data[:, target_idx].copy(), names)


def _explain_failure(path, target_column, delimiter, has_header, reason):
    """Raise the ValueError for a CSV that `load_csv` turned down. The file
    is read again with `read_csv_rows` and float(), and the first fault in
    this order names the message: bytes that are not text or a ragged row,
    no rows, a header with no rows, the target, a non-numeric cell, a
    non-finite cell. If there is none, `reason` (numpy's) is the message."""
    rows = read_csv_rows(path, delimiter, has_header)
    if not rows:
        raise ValueError(f"load_csv: {path} is empty")
    if has_header:
        header, rows = rows[0], rows[1:]
        if not rows:
            raise ValueError(f"load_csv: {path} has a header but no data rows")
    else:
        header = [f"col{i}" for i in range(len(rows[0]))]
    _target_index(path, header, target_column)
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                raise ValueError(
                    f"load_csv: {path}: non-numeric value {cell!r} at row {r}, "
                    f"column {c} ({header[c]})"
                ) from None
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            if not math.isfinite(float(cell)):
                raise ValueError(
                    f"load_csv: {path}: non-finite value {cell!r} at row {r}, "
                    f"column {c} ({header[c]})"
                ) from None
    raise ValueError(f"load_csv: {path}: {reason}") from None


def standardize(dataset):
    """Zero-mean unit-variance copy of a dataset, with statistics from all
    of its rows. Returns (standardized dataset, transform); to standardize
    other rows the same way, fit on a subset and use `transform.apply`.
    """
    f = dataset.features
    mean = f.mean(axis=0)
    std = f.std(axis=0)
    kept = np.flatnonzero(std > 0.0)
    if kept.size < dataset.n_features:
        dropped = [dataset.feature_names[i] for i in np.flatnonzero(std == 0.0)]
        warnings.warn(f"standardize: dropping constant feature columns {dropped}")
    if kept.size == 0:
        raise ValueError("standardize: every feature column is constant")
    t_mean = float(dataset.targets.mean())
    t_std = float(dataset.targets.std())
    if t_std == 0.0:
        raise ValueError("standardize: target is constant on the fitting rows")
    transform = Standardization(mean[kept], std[kept], t_mean, t_std, kept)
    z, t = transform.apply(dataset.features, dataset.targets)
    names = [dataset.feature_names[i] for i in kept]
    return Dataset(z, t, names), transform


@dataclass(frozen=True)
class SplitSpec:
    n_splits: int = 5
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.n_splits < 1:
            raise ValueError(f"SplitSpec: n_splits must be positive, got {self.n_splits}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(
                f"SplitSpec: test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        if self.seed < 0:
            raise ValueError(f"SplitSpec: seed must be nonnegative, got {self.seed}")


# the fewest rows `make_splits` takes, so both sides are nonempty at sensible fractions
MIN_SPLIT_ROWS = 5


def make_splits(n, spec=SplitSpec()):
    """Independent random train/test partitions of range(n).

    Returns a list of (train_idx, test_idx) pairs, each sorted; requires
    n >= MIN_SPLIT_ROWS.
    """
    if n < MIN_SPLIT_ROWS:
        raise ValueError(f"make_splits: need at least {MIN_SPLIT_ROWS} rows, got {n}")
    n_test = int(round(n * spec.test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    rng = np.random.default_rng(spec.seed)
    splits = []
    for _ in range(spec.n_splits):
        perm = rng.permutation(n)
        splits.append((np.sort(perm[n_test:]), np.sort(perm[:n_test])))
    return splits


def synth_hetero(n, seed=0):
    """Noisy sine with input-dependent scale; targets are never standardized
    away from their natural units (they are already O(1))."""
    if n < 1:
        raise ValueError(f"synth_hetero: n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=n)
    y = np.sin(2.0 * x) + (0.1 + 0.4 * np.abs(x)) * rng.standard_normal(n)
    return Dataset(x[:, None], y, ["x"])


def descriptor_names():
    root = resources.files("quantcal.descriptors")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def find_descriptor(name):
    """The descriptor file `name` refers to, a path to a JSON file or a
    shipped name, or None if it refers to neither."""
    path = Path(name)
    if path.suffix == ".json" and path.exists():
        return path
    shipped = resources.files("quantcal.descriptors") / f"{name}.json"
    return shipped if shipped.is_file() else None


# descriptor field -> accepted types; the first three are required
_DESCRIPTOR_FIELDS = {
    "name": (str,),
    "filename": (str,),
    "source": (str,),
    "target_column": (int, str),
    "delimiter": (str,),
    "has_header": (bool,),
    "expected_rows": (int, type(None)),
    "expected_features": (int, type(None)),
}


def _has_type(value, types):
    # bool subclasses int, so it passes only where it is named
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _check_descriptor(descriptor, source):
    """`descriptor`, if it is an object with the three required fields and
    every known field of its type; otherwise a ValueError naming `source`.
    Other keys are ignored."""
    if not isinstance(descriptor, dict):
        raise ValueError(
            f"{source}: a dataset descriptor must be a JSON object, got {type(descriptor).__name__}"
        )
    for key in list(_DESCRIPTOR_FIELDS)[:3]:
        if key not in descriptor:
            raise ValueError(f"{source}: descriptor has no {key!r} field")
    for key, types in _DESCRIPTOR_FIELDS.items():
        value = descriptor.get(key)
        if key in descriptor and not _has_type(value, types):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ValueError(f"{source}: descriptor field {key!r} must be {names}, got {value!r}")
    delimiter = descriptor.get("delimiter", ",")
    if len(delimiter) != 1 or delimiter in '"\r\n':  # csv and numpy cannot split on these
        raise ValueError(
            f"{source}: descriptor field 'delimiter' must be one character other than "
            f"a quote or a newline, got {delimiter!r}"
        )
    return descriptor


def load_descriptor(name):
    """Shipped descriptor by name, or any descriptor JSON by path. A name
    that refers to neither raises KeyError; a file that is not a descriptor
    (not JSON, not an object, a required field missing or a field of the
    wrong type) raises a ValueError naming it."""
    path = find_descriptor(name)
    if path is None:
        raise KeyError(
            f"load_descriptor: unknown dataset {name!r}; shipped: {descriptor_names()}"
        )
    try:
        descriptor = json.loads(path.read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"load_descriptor: {path}: {exc}") from None
    return _check_descriptor(descriptor, f"load_descriptor: {path}")


def load_from_descriptor(descriptor, data_dir="data"):
    """Load the CSV a descriptor (a name or path for `load_descriptor`, or
    the object itself) points at and validate its shape.

    Row-count mismatches raise; feature-count mismatches only warn (counts
    in the literature are off-by-one depending on whether they include the
    target column).
    """
    if isinstance(descriptor, str):
        descriptor = load_descriptor(descriptor)
    else:
        _check_descriptor(descriptor, "load_from_descriptor: descriptor")
    path = Path(data_dir) / descriptor["filename"]
    if not path.exists():
        raise FileNotFoundError(
            f"dataset file {str(path)!r} not found; fetch it from {descriptor['source']!r} "
            f"and place it there"
        )
    ds = load_csv(
        path,
        target_column=descriptor.get("target_column", -1),
        delimiter=descriptor.get("delimiter", ","),
        has_header=descriptor.get("has_header", False),
    )
    expected_rows = descriptor.get("expected_rows")
    if expected_rows is not None and len(ds) != expected_rows:
        raise ValueError(
            f"{descriptor['name']!r}: expected {expected_rows} rows, {str(path)!r} has {len(ds)}"
        )
    expected_features = descriptor.get("expected_features")
    if expected_features is not None and ds.n_features != expected_features:
        warnings.warn(
            f"{descriptor['name']!r}: descriptor lists {expected_features} features, "
            f"file has {ds.n_features}"
        )
    return ds
