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
from .gaussian import gaussian_nll, ndtr
from .softsort import SoftSortConfig, soft_sorted

# PIT values are clamped into [PIT_EPS, 1 - PIT_EPS] inside the loss so the
# (1 - c) ln(1 - c) term stays differentiable at the boundary.
PIT_EPS = 1e-6
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _gap_weights(n):
    """w_i = ((n - i)/n) ln((n - i)/n) for i = 1..n-1 (all nonpositive)."""
    frac = (n - np.arange(1, n)) / n
    return frac * np.log(frac)


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


def _clipped_pit(y, mu, sigma):
    """Phi((y - mu) / sigma) clamped into [PIT_EPS, 1 - PIT_EPS], one tape
    op; the backward uses the exact normal density."""
    if np.any(sigma.value == 0.0):
        raise ValueError("quantile_reg_loss: zero sigma")
    d = y - mu.value
    z = d / sigma.value
    u = ndtr(z)
    mask = (u >= PIT_EPS) & (u <= 1.0 - PIT_EPS)

    def backward(g):
        gz = (g * mask) * INV_SQRT_2PI * np.exp(-0.5 * z * z)
        return -(gz / sigma.value), -gz * d / (sigma.value * sigma.value)

    c = np.clip(u, PIT_EPS, 1.0 - PIT_EPS)
    return nd._result("clipped_pit", c, (mu, sigma), backward)


def _ckl_estimate(s, c):
    """The exact estimator on soft-sorted PITs s (gap term) and raw PITs c
    (expectation term), one tape op."""
    n = c.value.shape[0]
    w = _gap_weights(n)
    om = 1.0 - c.value
    lom = np.log(om)

    def backward(g):
        gw = g * w
        gs = np.zeros(n)
        gs[1:] += gw
        gs[:-1] -= gw
        ge = g / n
        return gs, -(ge * lom + (ge * om) / om)

    value = (w * (s.value[1:] - s.value[:-1])).sum() + (om * lom).mean() + 0.5
    return nd._result("ckl_estimate", value, (s, c), backward)


def quantile_reg_loss(y, mu, sigma, config=SoftSortConfig()):
    """Differentiable divergence of predicted PIT values from uniformity.

    Three tape ops: the PITs via the exact normal CDF, clamped away from
    {0, 1}; the sorting relaxation; the estimator, whose gap term uses the
    ordering and whose expectation term uses the raw clamped values. The
    expressions and their order are fixed because their rounding reaches
    every trained model; a test holds them to the generic tape chain bit
    for bit.
    """
    y = np.asarray(y, dtype=np.float64)
    mu = nd.constant(mu)
    sigma = nd.constant(sigma)
    n = y.shape[0]
    if n < 2:
        raise ValueError(f"quantile_reg_loss: need at least 2 points, got {n}")
    if y.shape != mu.value.shape or y.shape != sigma.value.shape:
        raise ValueError(
            f"quantile_reg_loss: shapes differ (mu {mu.shape}, sigma "
            f"{sigma.shape}, y {y.shape})"
        )
    c = _clipped_pit(y, mu, sigma)
    return _ckl_estimate(soft_sorted(c, config), c)


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
