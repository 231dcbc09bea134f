"""Quantile-calibration and accuracy metrics for Gaussian predictions.

Calibration error follows the M-bin squared form: average over expected
confidence levels p_i = i/M of (observed fraction of PITs <= p_i minus
p_i)^2, optionally times 100 to read as squared percentage points. The NLL
is the value of `gaussian.gaussian_nll`, the expression training uses.
`spearman` is the rank correlation `sweep` reports between lambda and
calibration error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import gaussian_nll


@dataclass(frozen=True)
class MetricConfig:
    bins: int = 20
    percent: bool = True

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError(f"MetricConfig: bins must be positive, got {self.bins}")


def _observed_levels(pits, bins):
    pits = np.asarray(pits, dtype=np.float64)
    if pits.ndim != 1 or pits.shape[0] == 0:
        raise ValueError("expected a nonempty 1-d array of PIT values")
    # a NaN fails both comparisons, so only this form rejects it
    if not np.all((pits >= 0.0) & (pits <= 1.0)):
        raise ValueError("PIT values must lie in [0, 1]")
    expected = np.arange(1, bins + 1) / bins
    observed = np.searchsorted(np.sort(pits), expected, side="right") / pits.shape[0]
    return expected, observed


def calibration_error(pits, config=MetricConfig()):
    """Mean squared gap between expected and observed confidence levels."""
    expected, observed = _observed_levels(pits, config.bins)
    err = float(np.mean((observed - expected) ** 2))
    return err * 100.0 if config.percent else err


def reliability_curve(pits, config=MetricConfig()):
    """(expected level, observed level) pairs, one per bin."""
    expected, observed = _observed_levels(pits, config.bins)
    return list(zip(expected.tolist(), observed.tolist()))


def rmse(preds, y):
    y = np.asarray(y, dtype=np.float64)
    if y.shape != preds.mu.shape or y.size == 0:
        raise ValueError(f"rmse: bad target shape {y.shape} for {preds.mu.shape}")
    return float(np.sqrt(np.mean((y - preds.mu) ** 2)))


def predictive_nll(preds, y):
    """Mean Gaussian negative log-likelihood, `gaussian_nll`'s value."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != preds.mu.shape or y.size == 0:
        raise ValueError(
            f"predictive_nll: bad target shape {y.shape} for {preds.mu.shape}"
        )
    return gaussian_nll(preds.mu, preds.sigma, y).item()


def _average_ranks(v):
    """1-based ranks of the entries of `v`; tied entries share the mean of
    the ranks they span."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(starts, append=len(s))
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def spearman(a, b):
    """Spearman's rank correlation of two paired, finite 1-d samples:
    Pearson's correlation of their average ranks, NaN when either sample is
    constant. This is scipy.stats.spearmanr's statistic, bit for bit. Empty,
    unequal-length or non-finite samples raise a ValueError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape or a.size == 0:
        raise ValueError(
            f"spearman: expected two nonempty 1-d samples of one length, "
            f"got {a.shape} and {b.shape}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("spearman: samples must be finite")
    if np.all(a == a[0]) or np.all(b == b[0]):
        return float("nan")
    ranks = np.column_stack((_average_ranks(a), _average_ranks(b)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


@dataclass
class MetricsReport:
    """One evaluation of one prediction set against its targets."""

    calib_error: float
    rmse: float
    nll: float
    n: int
    reliability: list = field(default_factory=list)

    @classmethod
    def evaluate(cls, preds, y, pits, config=MetricConfig()):
        return cls(
            calib_error=calibration_error(pits, config),
            rmse=rmse(preds, y),
            nll=predictive_nll(preds, y),
            n=int(np.asarray(y).shape[0]),
            reliability=reliability_curve(pits, config),
        )
