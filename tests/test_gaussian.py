import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr as scipy_ndtr

from oracles import SPECIAL_FLOATS, assert_same_bits, float64_arrays, ulp_neighbours
from quantcal import ndgrad as nd
from quantcal.gaussian import (
    LOG_2PI,
    SIGMA_FLOOR,
    GaussianPrediction,
    aggregate_ensemble,
    aggregate_mc,
    gaussian_nll,
    libm_exp,
    ndtr,
    pit,
)


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_prediction_coerces_and_floors():
    pred = GaussianPrediction([0, 1], [1, 0])
    assert pred.mu.dtype == np.float64
    assert pred.sigma[1] == SIGMA_FLOOR
    assert len(pred) == 2


def test_prediction_shape_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        GaussianPrediction(np.zeros(3), np.ones(2))


def test_prediction_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        GaussianPrediction([np.nan], [1.0])


def test_pit_against_erf():
    mu = np.array([0.0, 1.0, -2.0])
    sigma = np.array([1.0, 2.0, 0.5])
    y = np.array([0.0, 4.92, -3.0])
    got = pit(GaussianPrediction(mu, sigma), y)
    want = [normal_cdf((yi - m) / s) for yi, m, s in zip(y, mu, sigma)]
    assert np.allclose(got, want, atol=1e-15)
    assert got[0] == 0.5


def test_pit_stays_in_unit_interval():
    pred = GaussianPrediction(np.zeros(2), np.full(2, 1e-6))
    out = pit(pred, np.array([100.0, -100.0]))
    assert out[0] == 1.0 and out[1] == 0.0


def test_pit_validates():
    pred = GaussianPrediction(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="target shape"):
        pit(pred, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        pit(pred, np.array([0.0, np.inf]))


def test_nll_value_matches_plain_formula():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=50)
    sigma = rng.uniform(0.5, 2.0, size=50)
    y = rng.normal(size=50)
    node = gaussian_nll(nd.constant(mu), nd.constant(sigma), y)
    want = np.mean(0.5 * LOG_2PI + np.log(sigma) + 0.5 * ((y - mu) / sigma) ** 2)
    assert abs(node.item() - want) < 1e-12


def test_nll_gradients():
    rng = np.random.default_rng(1)
    y = rng.normal(size=12)
    sigma = rng.uniform(0.5, 2.0, size=12)
    mu0 = rng.normal(size=12)
    assert nd.finite_diff_check(lambda m: gaussian_nll(m, nd.constant(sigma), y), mu0) < 1e-7
    assert (
        nd.finite_diff_check(lambda s: gaussian_nll(nd.constant(mu0), s, y), sigma)
        < 1e-7
    )


def test_nll_clamps_tiny_sigma_and_counts():
    y = np.zeros(3)
    mu = nd.constant(np.zeros(3))
    bad = nd.param(np.array([1.0, 1e-9, 1.0]))
    node = gaussian_nll(mu, bad, y)
    assert np.isfinite(node.item())
    # the clamp kills the gradient where it is active
    (g,) = nd.gradients(node, [bad])
    assert g[1] == 0.0 and g[0] != 0.0


def test_nll_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        gaussian_nll(nd.constant(np.zeros(2)), nd.constant(np.ones(3)), np.zeros(2))


def stacked(preds):
    """The (k, n) means and sigmas of a list of predictions."""
    return np.stack([p.mu for p in preds]), np.stack([p.sigma for p in preds])


def brute_force_mixture(preds):
    mus, sigmas = stacked(preds)
    mu_bar = mus.mean(axis=0)
    second = (sigmas**2 + mus**2).mean(axis=0)
    return mu_bar, np.sqrt(second - mu_bar**2)


def stacked_moments(preds):
    """The deviation form on freshly stacked, floored predictions, in the
    order of its expressions; aggregation must keep its bits."""
    mus, sigmas = stacked(preds)
    mu_bar = mus.mean(axis=0)
    var = (sigmas**2).mean(axis=0) + ((mus - mu_bar) ** 2).mean(axis=0)
    return mu_bar, np.maximum(np.sqrt(var), SIGMA_FLOOR)


def test_aggregate_matches_second_moment_form():
    rng = np.random.default_rng(2)
    preds = [
        GaussianPrediction(rng.normal(size=6), rng.uniform(0.5, 2.0, size=6))
        for _ in range(5)
    ]
    got = aggregate_mc(*stacked(preds))
    mu_bar, sigma_bar = brute_force_mixture(preds)
    assert np.allclose(got.mu, mu_bar, atol=1e-12)
    assert np.allclose(got.sigma, sigma_bar, atol=1e-12)


def test_aggregate_single_member_is_identity():
    pred = GaussianPrediction([1.0, 2.0], [0.3, 0.4])
    out = aggregate_ensemble([pred])
    assert np.allclose(out.mu, pred.mu)
    assert np.allclose(out.sigma, pred.sigma)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        aggregate_mc(np.empty((0, 3)), np.empty((0, 3)))
    with pytest.raises(ValueError, match="empty"):
        aggregate_ensemble([])


def test_aggregate_checks_and_floors_its_arrays():
    with pytest.raises(ValueError, match=r"\(k, n\)"):
        aggregate_mc(np.zeros((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError, match=r"\(k, n\)"):
        aggregate_mc(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="non-finite"):
        aggregate_mc(np.array([[0.0, np.nan]]), np.ones((1, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        aggregate_mc(np.zeros((1, 2)), np.array([[1.0, np.inf]]))
    sigmas = np.array([[0.0, 2.0], [-1.0, 2.0]])
    out = aggregate_mc(np.zeros((2, 2)), sigmas)
    assert np.array_equal(out.sigma, [SIGMA_FLOOR, 2.0])
    assert np.array_equal(sigmas, [[0.0, 2.0], [-1.0, 2.0]])  # inputs untouched


def test_aggregate_disagreement_widens_sigma():
    a = GaussianPrediction([0.0], [0.1])
    b = GaussianPrediction([2.0], [0.1])
    out = aggregate_ensemble([a, b])
    assert out.mu[0] == 1.0
    assert out.sigma[0] > 1.0  # spread dominated by the mean disagreement


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=6),
)
def test_aggregate_equals_brute_force_property(seed, members):
    rng = np.random.default_rng(seed)
    preds = [
        GaussianPrediction(rng.normal(size=4) * 5.0, rng.uniform(0.1, 3.0, size=4))
        for _ in range(members)
    ]
    got = aggregate_mc(*stacked(preds))
    mu_bar, sigma_bar = brute_force_mixture(preds)
    assert np.allclose(got.mu, mu_bar, atol=1e-10)
    assert np.allclose(got.sigma, sigma_bar, atol=1e-10)
    mu_bar, sigma_bar = stacked_moments(preds)
    for out in (got, aggregate_ensemble(preds)):
        assert out.mu.tobytes() == mu_bar.tobytes()
        assert out.sigma.tobytes() == sigma_bar.tobytes()


def test_ndtr_equals_scipy_on_special_values():
    assert_same_bits(ndtr(SPECIAL_FLOATS), scipy_ndtr(SPECIAL_FLOATS))


def test_ndtr_equals_scipy_at_branch_edges():
    # with x = a / sqrt(2), Cephes switches at |x| = sqrt(1/2) (erf or erfc),
    # 1 (erfc's own erf branch or exp) and 8 (P/Q or R/S)
    v = ulp_neighbours([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)])
    assert_same_bits(ndtr(v), scipy_ndtr(v))


def test_ndtr_equals_scipy_on_a_dense_grid():
    rng = np.random.default_rng(0)
    v = np.concatenate([np.linspace(-40.0, 40.0, 400_001), rng.normal(size=200_000) * 3.0])
    assert_same_bits(ndtr(v), scipy_ndtr(v))


@settings(max_examples=200, deadline=None)
@given(float64_arrays)
def test_ndtr_equals_scipy_on_any_bits(v):
    with np.errstate(invalid="ignore"):  # signalling NaNs raise the invalid flag
        assert_same_bits(ndtr(v), scipy_ndtr(v))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(1.3, 1.5),  # |x| = 1
    st.floats(11.2, 11.4),  # |x| = 8
    st.floats(37.5, 38.6),  # erfc's subnormal results and its underflow to 0
    st.floats(),
), min_size=1, max_size=64))
def test_ndtr_equals_scipy_near_branches_and_underflow(values):
    v = np.array(values)
    v = np.concatenate([v, -v])
    assert_same_bits(ndtr(v), scipy_ndtr(v))


def test_libm_exp_is_math_exp_with_inf_on_overflow():
    v = np.array([-800.0, -1.5, 0.0, 1.0, 709.0, 710.0])
    want = [math.exp(-800.0), math.exp(-1.5), 1.0, math.exp(1.0), math.exp(709.0), math.inf]
    assert_same_bits(libm_exp(v), want)
    assert np.isnan(libm_exp(np.array([np.nan]))[0])
