"""Differentiable sorting via a unimodal row-stochastic relaxation.

Row i of the relaxed permutation matrix (NeuralSort, Grover et al. 2019) is

    softmax((c_i * s - A @ 1) / tau),   c_i = 2i - n - 1,   A[j, k] = |s_j - s_k|

which at low temperature concentrates on the index of the i-th smallest
entry, so the sorted vector P @ s is ascending.

As tau -> 0 the matrix approaches the exact permutation; as tau grows the
rows flatten toward uniform and sorted values shrink toward the mean.

Everything but the exponentials is computed in closed form from one sort:

- the column sums `A @ 1` come from prefix sums of the sorted gaps, in
  O(n log n);
- row i's scores are concave in s_j (the column sums are convex and
  piecewise linear with slope 2r - n past the r-th smallest entry), so
  their maximum is at the entry of rank i. Shifting by that entry makes it
  exactly 0, so every row sum is at least 1;
- a shifted score below log of the smallest normal double would give a
  subnormal or 0, which numpy's `exp` computes off its vector path at many
  times the cost; those entries are set to 0 instead, so no subnormal
  reaches a matmul either.

P itself is never formed: the op keeps the unnormalised exponentials E and
the row sums z, and the forward and backward are each one thin matmul
with E or E^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndgrad as nd

# exp of anything below this is subnormal or 0
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))


@dataclass(frozen=True)
class SoftSortConfig:
    tau: float = 0.1

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError(f"SoftSortConfig: tau must be positive, got {self.tau}")


def _check_input(s):
    node = nd.constant(s)
    if node.value.ndim != 1:
        raise ValueError(f"soft sort: expected a 1-d vector, got shape {node.shape}")
    if node.value.shape[0] == 0:
        raise ValueError("soft sort: empty input")
    if not np.all(np.isfinite(node.value)):
        raise ValueError("soft sort: non-finite input")
    return node


def _exponentials(v, tau):
    """(E, coef, order) for a 1-d vector v: E[i, j] = p_ij * z_i holds the
    unnormalised exponentials of row i's scores shifted by their maximum,
    coef the row coefficients 2i - n - 1 and order = argsort(v)."""
    n = v.shape[0]
    coef = (2 * np.arange(1, n + 1) - n - 1).astype(np.float64)
    order = np.argsort(v, kind="stable")
    # the entry of rank r is sum_k |v_j - v_k| = (gaps below it, each times
    # the entries under that gap) + (gaps above it, times the entries over
    # it): sums of nonnegative terms, so nothing cancels
    gaps = np.diff(v[order])
    ranks = np.arange(1, n)
    to_lower = np.concatenate(([0.0], np.cumsum(gaps * ranks)))
    to_upper = np.concatenate((np.cumsum(gaps[::-1] * ranks)[::-1], [0.0]))
    col_sums = np.empty(n)
    col_sums[order] = to_lower + to_upper
    e = np.multiply.outer(coef / tau, v)
    e -= col_sums / tau
    e -= e[np.arange(n), order][:, None]
    low = e < _LOG_TINY
    np.putmask(e, low, 0.0)
    np.exp(e, out=e)
    np.putmask(e, low, 0.0)
    return e, coef, order


def soft_permutation(s, config=SoftSortConfig()):
    """Relaxed permutation matrix for `s` as an ndarray. Rows sum to one."""
    e = _exponentials(_check_input(s).value, config.tau)[0]
    return e / e.sum(axis=-1, keepdims=True)


def soft_sorted(s, config=SoftSortConfig()):
    """Relaxed sorted vector: each entry a convex combination of inputs.

    One tape op. The forward is `E @ [1, s]`, which gives the row sums z
    and the sorted values (E s) / z. The backward needs one (n, 4) matmul
    with E^T for P^T g and the score terms, and the gradient of the column
    sums comes from the forward's sort with prefix sums; no n x n array
    other than E is made.
    """
    node = _check_input(s)
    v = node.value
    n = v.shape[0]
    tau = config.tau
    e, coef, order = _exponentials(v, tau)
    zs = e @ np.stack((np.ones(n), v), axis=1)
    z = zs[:, 0]
    value = zs[:, 1] / z

    def backward(g):
        # with P = E / z, the score gradient is p_ij g_i (v_j - value_i) / tau;
        # its column sums r multiply the column sums' gradient, and its
        # coef-weighted column sums t are the score's own v_j term
        gout = g * value
        y = e.T @ (np.stack((g, gout, coef * g, coef * gout), axis=1) / z[:, None])
        r = (v * y[:, 0] - y[:, 1]) / tau
        t = (v * y[:, 2] - y[:, 3]) / tau
        # d/dv_m of -sum_j r_j sum_k |v_j - v_k| is
        # -sum_k r_k sign(v_m - v_k) - r_m sum_k sign(v_m - v_k); ties give 0
        w = v[order]
        below = np.searchsorted(w, v, "left")
        above = np.searchsorted(w, v, "right")
        r_cum = np.concatenate(([0.0], np.cumsum(r[order])))
        r_signed = r_cum[below] - (r_cum[-1] - r_cum[above])
        return (y[:, 0] + t - r_signed - r * (below + above - n),)

    out = nd._result("soft_sorted", value, (node,), backward)
    return out if isinstance(s, nd.Node) else out.value
