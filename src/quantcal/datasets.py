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
        """The standardized copies of `features` and `targets`
        (`apply_features`, `apply_targets`)."""
        return self.apply_features(features), self.apply_targets(targets)

    def apply_features(self, features):
        """The standardized copy of `features`, which must be (n, d) with a
        column for every kept index: the column selection is a fresh array,
        so the rest runs in place on it, with the bits of (f - mean) / std."""
        f = np.asarray(features, dtype=np.float64)
        width = int(np.max(self.kept_columns, initial=-1)) + 1
        if f.ndim != 2 or f.shape[1] < width:
            raise ValueError(
                f"Standardization.apply: expected (n, d) features with at least {width} "
                f"columns, got {f.shape}"
            )
        z = f[:, self.kept_columns]
        z -= self.feature_mean
        z /= self.feature_std
        return z

    def apply_targets(self, targets):
        """The standardized copy of `targets`: the difference is a fresh
        array, divided in place, with the bits of (t - mean) / std."""
        t = np.asarray(targets, dtype=np.float64) - self.target_mean
        t /= self.target_std
        return t

    def inverse_predictions(self, preds):
        """Map a prediction on the standardized scale back to raw units."""
        return GaussianPrediction(
            preds.mu * self.target_std + self.target_mean,
            preds.sigma * self.target_std,
        )


class StandardizedRows:
    """The features of rows `rows` (an index array) of `dataset` as
    `transform` standardizes them, read on demand: `view[i]`, for an index
    array or slice i of the view's rows, is `transform.apply_features` of
    those rows of `dataset.features`, the bits of the same rows of a
    standardized copy, and no copy of the whole set is made."""

    ndim = 2

    def __init__(self, dataset, rows, transform):
        self.dataset, self.rows, self.transform = dataset, rows, transform
        self.shape = (len(rows), transform.kept_columns.size)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, i):
        return self.transform.apply_features(self.dataset.features[self.rows[i]])


def as_feature_rows(features):
    """`features` to read by rows: a `StandardizedRows` view as it is,
    anything else as a float64 array."""
    if isinstance(features, StandardizedRows):
        return features
    return np.asarray(features, dtype=np.float64)


@dataclass
class Dataset:
    """Features (an (n, d) array or a `StandardizedRows` view) and (n,) targets."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        self.features = as_feature_rows(self.features)
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


def standardized_view(dataset, rows, transform):
    """Rows `rows` (an index array) of `dataset` standardized by `transform`,
    as a Dataset whose features are a `StandardizedRows` view, standardized
    as they are read, and whose targets are standardized now: the bits of
    `transform.apply` on those rows, with only the (n,) targets copied."""
    names = [dataset.feature_names[i] for i in transform.kept_columns]
    return Dataset(StandardizedRows(dataset, rows, transform),
                   transform.apply_targets(dataset.targets[rows]), names)


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

    When the target is the first or last column, the features are a view of
    the parsed table, so the table is held once; otherwise they are a copy.

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
    # an edge target leaves the features a view of the table, not a copy;
    # the targets are a copy, so they alone do not keep the table alive
    if target_idx == 0:
        feature_cols = slice(1, None)
    elif target_idx == len(header) - 1:
        feature_cols = slice(0, -1)
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


# the columns that `fit_standardization` reduces together
_CHUNK_COLUMNS = 8


def _column_chunks(d):
    """Slices of `_CHUNK_COLUMNS` columns covering d, the last one wider
    rather than one column unless d is 1. numpy reduces an (n, 1) array over
    axis 0 pairwise but a wider one column by column in row order, so a
    one-column chunk of a wider table would change its statistics' bits. It
    loops over the rows with a chunk's columns innermost, so a narrow chunk
    of many rows is slow: over 412276 rows of 90 columns, chunks of 2
    columns took 1.9 s, and chunks of 8 took 0.6 s, as one call on all did."""
    edges = [*range(0, d, _CHUNK_COLUMNS), d]
    if len(edges) > 2 and edges[-1] - edges[-2] < 2:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def fit_standardization(dataset, rows=slice(None)):
    """The Standardization of rows `rows` of `dataset`, all of them by
    default: population statistics (ddof=0), constant feature columns
    dropped with a warning.

    The statistics reduce one chunk of columns (`_column_chunks`) of the
    rows at a time, so no copy or temporary spans all columns. A chunk is a
    gather f[rows, a:b], C-ordered as the gather f[rows] of every column
    is, or for all rows the view f[:, a:b], in f's own layout; either way
    each column adds in the order of one call on all columns, bit for bit."""
    f, t = dataset.features, dataset.targets[rows]
    mean, std = np.empty((2, dataset.n_features))
    for cols in _column_chunks(dataset.n_features):
        chunk = f[rows, cols]
        mean[cols] = chunk.mean(axis=0)
        std[cols] = chunk.std(axis=0)
    kept = np.flatnonzero(std > 0.0)
    if kept.size < dataset.n_features:
        dropped = [dataset.feature_names[i] for i in np.flatnonzero(std == 0.0)]
        warnings.warn(f"standardize: dropping constant feature columns {dropped}")
    if kept.size == 0:
        raise ValueError("standardize: every feature column is constant")
    t_mean = float(t.mean())
    t_std = float(t.std())
    if t_std == 0.0:
        raise ValueError("standardize: target is constant on the fitting rows")
    return Standardization(mean[kept], std[kept], t_mean, t_std, kept)


def standardize(dataset):
    """Zero-mean unit-variance copy of a dataset, with statistics from all
    of its rows. Returns (standardized dataset, transform); to standardize
    other rows the same way, fit on some rows (`fit_standardization`) and
    use `transform.apply` or `standardized_view`.
    """
    transform = fit_standardization(dataset)
    z, t = transform.apply(dataset.features, dataset.targets)
    names = [dataset.feature_names[i] for i in transform.kept_columns]
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

    def test_rows(self, n):
        """The number of test rows in each split of `n` rows."""
        return min(max(int(round(n * self.test_fraction)), 1), n - 1)


# the fewest rows `make_splits` takes, so both sides are nonempty at sensible fractions
MIN_SPLIT_ROWS = 5


def make_splits(n, spec=SplitSpec()):
    """Independent random train/test partitions of range(n).

    Returns a list of (train_idx, test_idx) pairs, each sorted; requires
    n >= MIN_SPLIT_ROWS.
    """
    if n < MIN_SPLIT_ROWS:
        raise ValueError(f"make_splits: need at least {MIN_SPLIT_ROWS} rows, got {n}")
    n_test = spec.test_rows(n)
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
