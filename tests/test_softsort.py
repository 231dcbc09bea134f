import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_soft_sorted
from quantcal import ndgrad as nd
from quantcal.softsort import SoftSortConfig, soft_permutation, soft_sorted

COLD = SoftSortConfig(tau=1e-3)


def spaced_vector(rng, n, gap=0.05):
    """Random vector whose sorted entries are at least `gap` apart."""
    base = np.cumsum(rng.uniform(gap, 3.0 * gap, size=n))
    return rng.permutation(base)


def test_config_validation():
    with pytest.raises(ValueError, match="tau"):
        SoftSortConfig(tau=0.0)


def test_defaults():
    cfg = SoftSortConfig()
    assert cfg.tau == 0.1


def test_rows_are_stochastic():
    rng = np.random.default_rng(0)
    s = rng.normal(size=16)
    perm = soft_permutation(s, SoftSortConfig(tau=0.5))
    assert np.all(perm >= 0)
    assert np.allclose(perm.sum(axis=1), 1.0, atol=1e-12)


def test_cold_limit_matches_hard_sort_ascending():
    rng = np.random.default_rng(1)
    s = spaced_vector(rng, 12)
    assert np.allclose(soft_sorted(s, COLD), np.sort(s), atol=1e-6)


def test_cold_permutation_is_the_argsort_matrix():
    rng = np.random.default_rng(3)
    s = spaced_vector(rng, 9)
    perm = soft_permutation(s, COLD)
    hard = np.zeros((9, 9))
    hard[np.arange(9), np.argsort(s)] = 1.0
    assert np.allclose(perm, hard, atol=1e-6)


def test_sorted_is_permutation_applied():
    rng = np.random.default_rng(4)
    s = rng.normal(size=10)
    cfg = SoftSortConfig(tau=0.2)
    assert np.allclose(soft_permutation(s, cfg) @ s, soft_sorted(s, cfg), atol=1e-14)


def test_warm_temperature_shrinks_toward_mean():
    rng = np.random.default_rng(5)
    s = rng.normal(size=20)
    warm = soft_sorted(s, SoftSortConfig(tau=1e6))
    assert np.allclose(warm, s.mean(), atol=1e-3)


def test_array_in_array_out_node_in_node_out():
    s = np.array([0.3, 0.1, 0.9])
    assert isinstance(soft_sorted(s), np.ndarray)
    assert isinstance(soft_permutation(nd.param(s)), np.ndarray)
    out = soft_sorted(nd.param(s))
    assert isinstance(out, nd.Node)
    assert out.requires_grad


def test_input_validation():
    with pytest.raises(ValueError, match="1-d"):
        soft_sorted(np.ones((2, 2)))
    with pytest.raises(ValueError, match="empty"):
        soft_sorted(np.array([]))
    with pytest.raises(ValueError, match="non-finite"):
        soft_permutation(np.array([0.1, np.nan]))


def test_single_element():
    assert np.allclose(soft_sorted(np.array([2.5])), [2.5])


def test_ties_stay_row_stochastic():
    s = np.array([0.5, 0.5, 0.5, 0.1])
    perm = soft_permutation(s, COLD)
    assert np.allclose(perm.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(perm))


def test_gradients_flow_through_sorting():
    rng = np.random.default_rng(6)
    s = spaced_vector(rng, 8)
    w = np.linspace(-1.0, 1.0, 8)

    def f(leaf):
        return (soft_sorted(leaf, SoftSortConfig(tau=0.1)) * nd.constant(w)).sum()

    assert nd.finite_diff_check(f, s) < 1e-5


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.01, max_value=10.0),
)
def test_gradient_matches_finite_differences_property(seed, n, tau):
    rng = np.random.default_rng(seed)
    s = spaced_vector(rng, n)
    # ascending positive weights keep every gradient entry away from zero,
    # where central differences have no relative accuracy
    w = nd.constant(np.sort(rng.uniform(1.0, 2.0, size=n)))

    def f(leaf):
        return (soft_sorted(leaf, SoftSortConfig(tau=tau)) * w).sum()

    assert nd.finite_diff_check(f, s) < 1e-5


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=32),
)
def test_cold_agreement_property(seed, n):
    rng = np.random.default_rng(seed)
    s = spaced_vector(rng, n)
    soft = soft_sorted(s, COLD)
    assert np.max(np.abs(soft - np.sort(s))) < 1e-4


def value_and_gradient(op, s, g):
    leaf = nd.param(s)
    out = op(leaf)
    return out.value, nd.gradients((out * nd.constant(g)).sum(), [leaf])[0]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=700),
    st.sampled_from([0.001, 0.01, 0.1, 1.0, 7.5]),
    st.sampled_from([1.0, 10.0, 100.0]),
    st.booleans(),
)
def test_closed_form_stays_near_the_full_matrix_reference(seed, n, tau, spread, ties):
    # at spread 10 or more and tau 0.01 or less nearly every exponential
    # underflows and is flushed to 0
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, spread, size=n)
    if ties:
        s = rng.choice(s[: max(1, n // 4)], size=n)
    g = rng.normal(size=n)
    value, grad = value_and_gradient(lambda x: soft_sorted(x, SoftSortConfig(tau=tau)), s, g)
    ref_value, ref_grad = value_and_gradient(lambda x: reference_soft_sorted(x, tau), s, g)
    scale = np.max(np.abs(s))
    # measured worst over 1400 draws: 4.2e-13 on values; 4.7e-13 on the
    # gradient, which grows with the score scale max|s| / tau because the
    # closed form takes the score terms as differences of two matmul columns
    assert np.max(np.abs(value - ref_value)) <= 2e-12 * scale
    assert np.max(np.abs(grad - ref_grad)) <= 2e-12 * (1.0 + scale / tau) * np.max(np.abs(ref_grad))


def test_forward_and_backward_keep_about_one_square_array():
    # the exponentials E are the only n x n float64 array that outlives a
    # statement; the flush mask adds an eighth of one
    n = 2048
    s = np.random.default_rng(0).uniform(size=n)
    tracemalloc.start()
    try:
        leaf = nd.param(s)
        nd.gradients(soft_sorted(leaf).sum(), [leaf])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (n * n * 8) < 1.5
