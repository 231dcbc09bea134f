"""Gaussian predictive distributions: PIT values, NLL, mixture aggregation.

A prediction is a per-point Normal(mu_i, sigma_i), sigma_i >= SIGMA_FLOOR.
Monte-Carlo dropout passes and ensemble members are both combined by
`aggregate_mc`, which matches the first two moments of the equally weighted
Gaussian mixture. `gaussian_nll` is the one NLL, on the tape and in metrics.
The normal CDF `ndtr` is Cephes' ndtr/erf/erfc, the code scipy.special
ships, evaluated in numpy with the C library's exp (`libm_exp`), so its
values equal scipy's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ndgrad as nd

SIGMA_FLOOR = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))

# Cephes ndtr.c: erfc = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, exp(-x^2) R(x)/S(x)
# for x >= 8, erf = x T(x^2)/U(x^2) for |x| <= 1; Q, S and U have a leading 1
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc underflows to 0 once x^2 exceeds log(DBL_MAX)
MAXLOG = 7.09782712893383996843e2
SQRT1_2 = 0.70710678118654752440


def libm_exp(v):
    """exp of each entry of the 1-d float array `v` through `math.exp`, the C
    library's exp that compiled code such as scipy.special calls (`np.exp`'s
    SIMD loops round some entries differently), with inf where it overflows."""
    values = v.tolist()
    try:
        return np.fromiter(map(math.exp, values), np.float64, len(values))
    except OverflowError:
        return np.array([_exp_or_inf(t) for t in values], dtype=np.float64)


def _exp_or_inf(t):
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, in Cephes' polevl order."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """As `_polevl` with a leading coefficient 1 that `coef` leaves out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erfc_outer(z):
    """Cephes' erfc for z >= 1 (NaN passes through), 0 where it underflows.
    A branch with no entries is skipped: R/S, z >= 8, seldom has any."""
    with np.errstate(over="ignore"):
        zz = z * z
    out = np.zeros_like(z)
    live = ~(zz > MAXLOG)
    zl = z[live]
    e = libm_exp(-zz[live])
    c = np.empty_like(zl)
    pq = zl < 8.0
    for branch, num, den in ((pq, _P, _Q), (~pq, _R, _S)):
        zb = zl[branch]
        if zb.size:
            c[branch] = (e[branch] * _polevl(zb, num)) / _p1evl(zb, den)
    out[live] = c
    return out


def ndtr(a):
    """Standard normal CDF of each entry, as Cephes' ndtr (scipy.special.ndtr)
    computes it, bit for bit: with x = a / sqrt(2), 0.5 + 0.5 erf(x) where
    |x| < sqrt(1/2), else erfc(|x|) / 2, reflected where x > 0. NaN gives
    NaN. Only the erfc entries beyond |x| = 1 call exp, and a branch with no
    entries is skipped."""
    x = np.asarray(a, dtype=np.float64) * SQRT1_2
    z = np.abs(x)
    h = np.empty_like(z)  # erfc(|x|) / 2
    inner = z < 1.0
    zi = z[inner]
    if zi.size:
        zz = zi * zi
        e = zi * _polevl(zz, _T) / _p1evl(zz, _U)  # erf(|x|), which Cephes' erfc uses below 1
        h[inner] = 0.5 * (1.0 - e)
    outer = ~inner
    zo = z[outer]
    if zo.size:
        h[outer] = 0.5 * _erfc_outer(zo)
    y = np.where(x > 0, 1.0 - h, h)
    if zi.size:
        # erf is odd to the bit, so erf(x) is erf(|x|) with x's sign
        near = z < SQRT1_2
        y[near] = 0.5 + 0.5 * np.copysign(e[near[inner]], x[near])
    return y


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


def aggregate_mc(mus, sigmas):
    """Mean and sigma of the equally weighted Gaussian mixture of k passes,
    the rows of (k, n) arrays `mus` and `sigmas`, which are checked and
    floored once here, as `GaussianPrediction` does.

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


def aggregate_ensemble(preds):
    """Combine whole ensemble member predictions into a single Gaussian:
    the reference for `models.ensemble_predict`, which mixes per row block."""
    if not preds:
        raise ValueError("aggregate: empty prediction list")
    return aggregate_mc(np.stack([p.mu for p in preds]), np.stack([p.sigma for p in preds]))
