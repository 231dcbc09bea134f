"""Cumulative KL divergence of PIT values against Uniform[0, 1].

For a sample S supported on [0, 1] with survival function Fbar, the
divergence against the uniform distribution has the closed form

    -eps(S) + E[(1 - S) ln(1 - S)] + 1/2,

where eps(S) = -integral of Fbar ln Fbar is the cumulative residual
entropy. Plugging in the empirical distribution of sorted values
s_(1) <= ... <= s_(n) gives

    sum_{i=1}^{n-1} w_i (s_(i+1) - s_(i))
        + (1/n) sum_i (1 - s_i) ln(1 - s_i) + 1/2,
    w_i = ((n - i)/n) ln((n - i)/n),

which is exactly the piecewise integral, not an approximation. The loss
variant below replaces the hard sort with a differentiable relaxation so
the whole thing can act as a training penalty on predicted PIT values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndgrad as nd
from .gaussian import gaussian_nll
from .softsort import SoftSortConfig, soft_sorted

# PIT values are clamped into [PIT_EPS, 1 - PIT_EPS] inside the loss so the
# (1 - c) ln(1 - c) term stays differentiable at the boundary.
PIT_EPS = 1e-6

_WEIGHT_CACHE = {}


def _gap_weights(n):
    """w_i = ((n - i)/n) ln((n - i)/n) for i = 1..n-1 (all nonpositive)."""
    cached = _WEIGHT_CACHE.get(n)
    if cached is None:
        frac = (n - np.arange(1, n)) / n
        cached = frac * np.log(frac)
        cached.flags.writeable = False
        _WEIGHT_CACHE[n] = cached
    return cached


def _xlogx(v):
    """v * ln(v) extended by continuity with value 0 at v = 0."""
    out = np.zeros_like(v)
    pos = v > 0.0
    out[pos] = v[pos] * np.log(v[pos])
    return out


@dataclass(frozen=True)
class CklEstimate:
    """Estimate split into its two data-dependent terms.

    value = -cre_term + expectation_term + 1/2
    """

    value: float
    cre_term: float
    expectation_term: float


def cre_empirical(sorted_values):
    """Cumulative residual entropy of the empirical distribution.

    Expects an ascending vector (hard- or soft-sorted); returns a
    nonnegative float, 0.0 for a single sample.
    """
    s = np.asarray(sorted_values, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"cre_empirical: expected 1-d input, got shape {s.shape}")
    n = s.shape[0]
    if n == 0:
        raise ValueError("cre_empirical: empty sample")
    if n == 1:
        return 0.0
    if np.any(np.diff(s) < -1e-12):
        raise ValueError("cre_empirical: input must be ascending")
    return float(-np.dot(_gap_weights(n), np.diff(s)))


def ckl_uniform(samples):
    """Exact cumulative KL divergence of the empirical law of `samples`
    (values in [0, 1]) against Uniform[0, 1]. Sorts internally."""
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"ckl_uniform: expected 1-d input, got shape {s.shape}")
    if s.shape[0] == 0:
        raise ValueError("ckl_uniform: empty sample")
    if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-12):
        raise ValueError("ckl_uniform: samples must lie in [0, 1]")
    s = np.sort(np.clip(s, 0.0, 1.0))
    n = s.shape[0]
    # + 0.0 turns a possible -0.0 into 0.0
    cre = 0.0 if n == 1 else float(-np.dot(_gap_weights(n), np.diff(s))) + 0.0
    expectation = float(np.mean(_xlogx(1.0 - s)))
    return CklEstimate(
        value=-cre + expectation + 0.5,
        cre_term=cre,
        expectation_term=expectation,
    )


def quantile_reg_loss(y, mu, sigma, config=SoftSortConfig()):
    """Differentiable divergence of predicted PIT values from uniformity.

    PITs are computed on the tape via the exact normal CDF, clamped away
    from {0, 1}, and ordered with the sorting relaxation; only the gap term
    needs the ordering, the expectation term uses the raw clamped values.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = nd.as_node(mu)
    sigma = nd.as_node(sigma)
    n = y.shape[0]
    if n < 2:
        raise ValueError(f"quantile_reg_loss: need at least 2 points, got {n}")
    if y.shape != mu.value.shape or y.shape != sigma.value.shape:
        raise ValueError(
            f"quantile_reg_loss: shapes differ (mu {mu.shape}, sigma "
            f"{sigma.shape}, y {y.shape})"
        )
    c = nd.std_normal_cdf((nd.constant(y) - mu) / sigma)
    c = nd.clip(c, PIT_EPS, 1.0 - PIT_EPS)
    s = soft_sorted(c, config)
    gap_term = (nd.constant(_gap_weights(n)) * (s[1:] - s[:-1])).sum()
    one_minus = 1.0 - c
    expectation_term = (one_minus * nd.log(one_minus)).mean()
    return gap_term + expectation_term + 0.5


def total_loss(y, mu, sigma, lam, config=SoftSortConfig()):
    """NLL plus lam times the uniformity penalty.

    lam = 0 returns the bare NLL node (the penalty graph is never built, so
    results are bitwise identical to an unpenalized run).
    """
    if lam < 0:
        raise ValueError(f"total_loss: lam must be nonnegative, got {lam}")
    nll = gaussian_nll(mu, sigma, y)
    if lam == 0:
        return nll
    return nll + lam * quantile_reg_loss(y, mu, sigma, config)
