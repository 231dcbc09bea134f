"""Reference implementations the tests compare against.

These are deliberately written in a different style from the package code:
closed-form segment integrals instead of the order-statistic shortcut, and
the minimax characterization of isotonic regression instead of pooling.
Slow is fine here; independent is the point.

The tape ops at the end are the generic chain the fused MLP op replaced;
the fused op and the numpy inference path must reproduce it bit for bit.
`reference_soft_sorted` is the soft sort built from the full n x n
relaxed permutation matrix; the closed form must stay within a stated
bound of it. `reference_load_csv` is the CSV reader that made a Python
string per cell and converted them with float(); numpy's text reader must
give its values to the bit. `reference_standardize` is standardization
with each statistic one numpy call on all columns, as it was before the
statistics were taken in column chunks. `reference_data_digest` is the run record's
data digest as it was first written, which hashed a Fortran-ordered copy
of the features; run directories recorded with it must still match.
`reference_test_pits` predicts a run's test rows again from its saved
models, one prediction per lambda on a standardized copy of the rows, as
`recalibrate` did before it read the PITs that `train` saves.

scipy.special is the oracle of the package's own `ndtr` and `expit`, which
must equal it to the bit (`assert_same_bits`) on any float64
(`float64_arrays`).
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from scipy.special import expit

from quantcal import cli
from quantcal import ndgrad as nd
from quantcal.datasets import make_splits
from quantcal.gaussian import GaussianPrediction, pit
from quantcal.models import ensemble_predict, load_params, mc_dropout_predict


def assert_same_bits(got, want):
    """`got` equals `want` to the bit, shape included; any NaN matches any NaN."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    differ = got[~nan].view(np.int64) != want[~nan].view(np.int64)
    assert not differ.any(), list(zip(want[~nan][differ][:5], got[~nan][differ][:5]))


# arrays of arbitrary float64 bit patterns: NaNs of any payload, infinities,
# subnormals and both zeros included
float64_arrays = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))

# +-0, +-inf, NaN, the extreme subnormals, the smallest normal and the largest finite
SPECIAL_FLOATS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                           2.225073858507201e-308, -2.225073858507201e-308,
                           2.2250738585072014e-308, -2.2250738585072014e-308,
                           1.7976931348623157e308, -1.7976931348623157e308])


def ulp_neighbours(values, k=16):
    """Each of the positive `values` and the k floats on either side of it, with their negatives."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)[:, None] + np.arange(-k, k + 1)
    out = bits.ravel().view(np.float64)
    return np.concatenate([out, -out])


def _antideriv_log1m(x):
    """Antiderivative of ln(1 - x), continuously extended to x = 1."""
    one = 1.0 - x
    return one - (one * math.log(one) if one > 0.0 else 0.0)


def _segment_ckl(p, a, b):
    """Integral over [a, b] of Fbar ln(Fbar / Gbar) - Fbar + Gbar with
    Fbar = p constant and Gbar(x) = 1 - x."""
    width = b - a
    gbar_int = width - 0.5 * (b * b - a * a)
    if p == 0.0:
        return gbar_int
    p_log_p = p * math.log(p) if p > 0.0 else 0.0
    log_gbar_int = _antideriv_log1m(b) - _antideriv_log1m(a)
    return p_log_p * width - p * log_gbar_int - p * width + gbar_int


def exact_ckl_uniform(samples):
    """Cumulative KL divergence of the empirical law of `samples` against
    Uniform[0, 1], by piecewise integration of the survival functions over
    every segment between consecutive order statistics."""
    s = np.sort(np.clip(np.asarray(samples, dtype=np.float64), 0.0, 1.0))
    n = s.shape[0]
    edges = np.concatenate([[0.0], s, [1.0]])
    total = 0.0
    for i in range(n + 1):
        a, b = edges[i], edges[i + 1]
        if b > a:
            total += _segment_ckl((n - i) / n, a, b)
    return total


def exact_cre(samples):
    """Cumulative residual entropy -integral of Fbar ln Fbar of the
    empirical distribution, again segment by segment."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.shape[0]
    total = 0.0
    for i in range(n - 1):
        p = (n - i - 1) / n
        if p > 0.0:
            total -= (s[i + 1] - s[i]) * p * math.log(p)
    return total


def minimax_isotonic(y):
    """Least-squares nondecreasing fit via the max-min mean formula:
    fit[i] = max over a <= i of (min over b >= i of mean(y[a..b]))."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    out = np.empty(n)
    for i in range(n):
        out[i] = max(
            min(y[a : b + 1].mean() for b in range(i, n)) for a in range(i + 1)
        )
    return out


def synth_hetero_truth(features):
    """The exact predictive law `datasets.synth_hetero` draws from."""
    x = np.asarray(features, dtype=np.float64).reshape(-1)
    return GaussianPrediction(np.sin(2.0 * x), 0.1 + 0.4 * np.abs(x))


def relu(a):
    a = nd.constant(a)
    return nd._result(
        "relu", np.maximum(a.value, 0.0), (a,), lambda g: (g * (a.value > 0.0),)
    )


def softplus(a):
    """log(1 + exp(x)), computed stably; gradient is the logistic sigmoid."""
    a = nd.constant(a)
    value = np.logaddexp(0.0, a.value)
    return nd._result("softplus", value, (a,), lambda g: (g * expit(a.value),))


def matmul(a, b):
    a, b = nd.constant(a), nd.constant(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def backward(g):
        return (g @ b.value.T, a.value.T @ g)

    return nd._result("matmul", a.value @ b.value, (a, b), backward)


def einsum_head(h, w):
    """h @ w for the (rows, 2) head as `models._head_out` forms it, in
    numpy's einsum loop over a contiguous copy of w's columns; the backward
    is matmul's."""
    h, w = nd.constant(h), nd.constant(w)
    value = np.einsum("ij,kj->ik", h.value, np.ascontiguousarray(w.value.T))
    return nd._result("einsum_head", value, (h, w), lambda g: (g @ w.value.T, h.value.T @ g))


def take(a, idx):
    """Indexing/slicing; the backward scatters the gradient back in place."""
    a = nd.constant(a)
    value = a.value[idx]

    def backward(g):
        buf = np.zeros_like(a.value)
        np.add.at(buf, idx, g)
        return (buf,)

    return nd._result("take", value, (a,), backward)


def dropout(a, mask, rate):
    """Multiply by a 0/1 mask with inverted scaling 1/(1-rate)."""
    a = nd.constant(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != a.value.shape:
        raise ValueError(
            f"dropout: mask shape {mask.shape} does not match input {a.shape}"
        )
    scaled = mask / (1.0 - rate)
    return nd._result("dropout", a.value * scaled, (a,), lambda g: (g * scaled,))


def chain_mlp_forward(params, x, dropout_masks=None, dropout_rate=0.0):
    """(mu, sigma) through 14 tape nodes, generic but for the head's
    product (`einsum_head`); `dropout_masks` is a pair of 0/1 masks shaped
    (n, 128)."""
    x = nd.constant(x)
    h = relu(nd.add(matmul(x, params.w1), params.b1))
    if dropout_masks is not None:
        h = dropout(h, dropout_masks[0], dropout_rate)
    h = relu(nd.add(matmul(h, params.w2), params.b2))
    if dropout_masks is not None:
        h = dropout(h, dropout_masks[1], dropout_rate)
    out = nd.add(einsum_head(h, params.w3), params.b3)
    return take(out, (slice(None), 0)), nd.add(softplus(take(out, (slice(None), 1))), 1e-6)


def reference_soft_sorted(s, tau):
    """Soft sort through the full relaxed permutation matrix P: its value
    and its backward through the softmax, the scores and the column sums of
    |s_j - s_k|, as one tape op."""
    node = nd.constant(s)
    v = node.value
    n = v.shape[0]
    coef = (2 * np.arange(1, n + 1) - n - 1).astype(np.float64)
    diff = v[:, None] - v[None, :]
    col_sums = np.abs(diff).sum(axis=0, keepdims=True)  # (1, n): sum_k |v_j - v_k|
    scores = (coef[:, None] @ v.reshape((1, n)) - col_sums) / tau
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gp = g.reshape((n, 1)) @ v.reshape((1, n))
        gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) / tau
        gs = -gz.sum(axis=0, keepdims=True) * np.sign(diff)
        grad = gs.sum(axis=1) - gs.sum(axis=0)
        grad = grad + (coef[:, None].T @ gz).reshape((n,))
        return (grad + (p.T @ g.reshape((n, 1))).reshape((n,)),)

    return nd._result("soft_sorted", (p @ v.reshape((n, 1))).reshape((n,)), (node,), backward)


def reference_load_csv(path, target_column=-1, delimiter=",", has_header=True):
    """(features, targets, feature names) of a numeric CSV read with
    `csv.reader` and converted in one `np.array` call, which applies float()
    to every cell; any file it cannot read raises a ValueError."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh, delimiter=delimiter) if r]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if has_header:
        header, rows = (rows[0], rows[1:]) if rows else ([], [])
    else:
        header = [f"col{i}" for i in range(len(rows[0]))] if rows else []
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: no rows, or a ragged row")
    if isinstance(target_column, str):
        target_idx = header.index(target_column)
    else:
        target_idx = int(target_column) % len(header)
    data = np.array(rows, dtype=np.float64)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value")
    feature_cols = [i for i in range(len(header)) if i != target_idx]
    return data[:, feature_cols], data[:, target_idx], [header[i] for i in feature_cols]


def reference_data_digest(ds):
    """sha256 of the features' Fortran-ordered buffer, the columns one after
    another, then of the targets."""
    digest = hashlib.sha256(np.asfortranarray(ds.features).T)
    digest.update(np.ascontiguousarray(ds.targets))
    return digest.hexdigest()


def reference_standardize(features, targets):
    """(features, targets, feature mean, feature std, target mean, target
    std, kept columns) of standardizing with whole-array reductions:
    population statistics, constant feature columns dropped, then
    (x - mean) / std."""
    mean, std = features.mean(axis=0), features.std(axis=0)
    kept = np.flatnonzero(std > 0.0)
    t_mean, t_std = float(targets.mean()), float(targets.std())
    z = (features[:, kept] - mean[kept]) / std[kept]
    return z, (targets - t_mean) / t_std, mean[kept], std[kept], t_mean, t_std, kept


def reference_test_pits(out_dir, command="train"):
    """(lam, split) -> the test PITs of the run `command` wrote in
    `out_dir`, from its stored config and saved models: each split's test
    rows standardized by `reference_standardize`'s statistics of the rows
    the models trained on, and predicted for each lambda alone under the
    split's prediction seed."""
    out_dir = Path(out_dir)
    stored = json.loads((out_dir / "run_config.json").read_text())
    cfg = cli.ExperimentConfig(**{k: v for k, v in stored.items()
                                  if k not in ("version", cli.DIGEST_KEY)})
    ds = cli._load_base_dataset(cfg)
    pits = {}
    for split, (train_idx, test_idx) in enumerate(make_splits(len(ds), cfg.split_spec())):
        fit_idx = train_idx
        if cfg.calib_split == "holdout":
            perm = np.random.default_rng(cfg.train_seed(split) + 17).permutation(len(train_idx))
            fit_idx = np.sort(train_idx[perm[max(1, int(round(0.2 * len(train_idx)))):]])
        *_, mean, std, t_mean, t_std, kept = reference_standardize(ds.features[fit_idx],
                                                                   ds.targets[fit_idx])
        x = (ds.features[test_idx][:, kept] - mean) / std
        y = (ds.targets[test_idx] - t_mean) / t_std
        for lam in cfg.resolved_lambdas(command):
            members = [load_params(path) for path in cli._artifact_paths(out_dir, cfg, lam, split)]
            if cfg.model == "ensemble":
                pred = ensemble_predict(members, x)
            else:
                pred = mc_dropout_predict(members[0], x, passes=cfg.mc_passes,
                                          dropout_rate=cfg.dropout_rate,
                                          seed=cfg.train_seed(split) + cli.PREDICT_SEED_OFFSET)
            pits[(lam, split)] = pit(pred, y)
    return pits
