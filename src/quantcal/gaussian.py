"""Gaussian predictive distributions: PIT values, NLL, mixture aggregation.

A prediction is a per-point Normal(mu_i, sigma_i). Both Monte-Carlo dropout
passes and ensemble members are combined by matching the first two moments
of the equally weighted Gaussian mixture, which is what both aggregation
rules below reduce to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndgrad as nd

SIGMA_FLOOR = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianPrediction:
    """Per-point Gaussian predictive distribution over a 1-d target."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != self.sigma.shape:
            raise ValueError(
                f"GaussianPrediction: mu shape {self.mu.shape} does not match "
                f"sigma shape {self.sigma.shape}"
            )
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.sigma))):
            raise ValueError("GaussianPrediction: non-finite parameters")
        # never store a degenerate scale
        self.sigma = np.maximum(self.sigma, SIGMA_FLOOR)

    def __len__(self):
        return self.mu.shape[0]


def pit(pred, y):
    """Probability integral transform Phi((y - mu) / sigma), in [0, 1]."""
    from scipy.special import ndtr

    y = np.asarray(y, dtype=np.float64)
    if y.shape != pred.mu.shape:
        raise ValueError(
            f"pit: target shape {y.shape} does not match prediction {pred.mu.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("pit: non-finite targets")
    return np.clip(ndtr((y - pred.mu) / pred.sigma), 0.0, 1.0)


def gaussian_nll(mu, sigma, y):
    """Mean Gaussian negative log-likelihood as one differentiable Node.

    sigma is clamped at SIGMA_FLOOR inside the op (gradient zero where the
    clamp is active). The expressions and their order are fixed because
    their rounding reaches every trained model; a test holds them to the
    generic tape chain bit for bit.
    """
    mu = nd.constant(mu)
    sigma = nd.constant(sigma)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != mu.value.shape or y.shape != sigma.value.shape:
        raise ValueError(
            f"gaussian_nll: shapes differ (mu {mu.shape}, sigma {sigma.shape}, "
            f"y {y.shape})"
        )
    ss = np.clip(sigma.value, SIGMA_FLOOR, np.inf)
    d = y - mu.value
    z = d / ss
    hz = 0.5 * z
    mask = sigma.value >= SIGMA_FLOOR

    def backward(g):
        gb = g / y.size
        gz = gb * hz + (gb * z) * 0.5
        return -(gz / ss), (gb / ss + (-gz * d / (ss * ss))) * mask

    value = (0.5 * LOG_2PI + np.log(ss) + hz * z).mean()
    return nd._result("gaussian_nll", value, (mu, sigma), backward)


def _mixture_moments(mus, sigmas):
    """Mean and sigma of the equally weighted Gaussian mixture whose k
    components are the rows of the (k, n) arrays `mus` and `sigmas`, which
    are checked and floored once here, as `GaussianPrediction` does.

    The variance mean(sigma_i^2) + mean((mu_i - mu_bar)^2) equals the raw
    second-moment form mean(sigma_i^2 + mu_i^2) - mu_bar^2 but does not
    cancel catastrophically for large |mu|. Both terms go through one
    (k, n) scratch array, so aggregation holds one copy beside its inputs.
    """
    mus = np.asarray(mus, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if mus.ndim != 2 or mus.shape != sigmas.shape:
        raise ValueError(
            f"aggregate: expected (k, n) means and sigmas, got {mus.shape} and {sigmas.shape}"
        )
    if len(mus) == 0:
        raise ValueError("aggregate: empty prediction list")
    if not (np.all(np.isfinite(mus)) and np.all(np.isfinite(sigmas))):
        raise ValueError("aggregate: non-finite parameters")
    mu_bar = mus.mean(axis=0)
    scratch = np.maximum(sigmas, SIGMA_FLOOR)
    scratch *= scratch
    var = scratch.mean(axis=0)
    np.subtract(mus, mu_bar, out=scratch)
    scratch *= scratch
    var += scratch.mean(axis=0)
    return GaussianPrediction(mu_bar, np.sqrt(var, out=var))


def aggregate_mc(mus, sigmas):
    """Combine Monte-Carlo dropout passes, the rows of (passes, n) arrays of
    means and sigmas, into a single Gaussian."""
    return _mixture_moments(mus, sigmas)


def aggregate_ensemble(preds):
    """Combine ensemble member predictions into a single Gaussian."""
    if not preds:
        raise ValueError("aggregate: empty prediction list")
    return _mixture_moments(np.stack([p.mu for p in preds]), np.stack([p.sigma for p in preds]))
