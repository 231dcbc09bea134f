"""Differentiable sorting via a unimodal row-stochastic relaxation.

Row i of the relaxed permutation matrix is

    softmax(((2i - n - 1) * s - A @ 1) / tau),   A[j, k] = |s_j - s_k|

which at low temperature concentrates on the index of the i-th smallest
entry, so the sorted vector P @ s is ascending.

As tau -> 0 the matrix approaches the exact permutation; as tau grows the
rows flatten toward uniform and sorted values shrink toward the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndgrad as nd


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


def _permutation(v, tau):
    """(P, diff, coef) for a 1-d vector v, with diff[j, k] = v_j - v_k and
    coef the row coefficients 2i - n - 1."""
    n = v.shape[0]
    coef = (2 * np.arange(1, n + 1) - n - 1).astype(np.float64)
    diff = v[:, None] - v[None, :]
    col_sums = np.abs(diff).sum(axis=0, keepdims=True)  # (1, n): sum_k |v_j - v_k|
    # every matmul here and in the backward keeps its (n, 1) / (1, n) shapes:
    # BLAS may round other shapes differently, and saved models depend on
    # these bits
    scores = (coef[:, None] @ v.reshape((1, n)) - col_sums) / tau
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True), diff, coef


def soft_permutation(s, config=SoftSortConfig()):
    """Relaxed permutation matrix for `s` as an ndarray. Rows sum to one."""
    return _permutation(_check_input(s).value, config.tau)[0]


def soft_sorted(s, config=SoftSortConfig()):
    """Relaxed sorted vector: each entry a convex combination of inputs.

    One tape op; the backward is the closed form through the softmax, the
    score matrix and the column sums of |s_j - s_k|. Its three terms are
    added in a fixed order (column sums, scores, P^T g) because the sum's
    rounding reaches every trained model.
    """
    node = _check_input(s)
    v = node.value
    n = v.shape[0]
    tau = config.tau
    p, diff, coef = _permutation(v, tau)

    def backward(g):
        gp = g.reshape((n, 1)) @ v.reshape((1, n))
        gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) / tau
        gs = -gz.sum(axis=0, keepdims=True) * np.sign(diff)
        grad = gs.sum(axis=1) - gs.sum(axis=0)
        grad = grad + (coef[:, None].T @ gz).reshape((n,))
        return (grad + (p.T @ g.reshape((n, 1))).reshape((n,)),)

    out = nd._result("soft_sorted", (p @ v.reshape((n, 1))).reshape((n,)), (node,), backward)
    return out if isinstance(s, nd.Node) else out.value
