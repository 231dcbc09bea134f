import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_ckl_uniform, exact_cre
from quantcal import ndgrad as nd
from quantcal.ckl import (
    PIT_EPS,
    CklEstimate,
    _gap_weights,
    ckl_uniform,
    cre_empirical,
    quantile_reg_loss,
    total_loss,
)
from quantcal.gaussian import gaussian_nll
from quantcal.softsort import SoftSortConfig


def random_unit_samples(rng, n):
    """Mixed shapes so the oracle comparison is not uniform-only."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.random(n)
    if kind == 1:
        return rng.beta(0.4, 0.7, size=n)
    return np.clip(rng.normal(0.5, 0.2, size=n), 0.0, 1.0)


def test_estimator_matches_exact_integral():
    rng = np.random.default_rng(0)
    for n in (2, 3, 10, 100, 1000):
        s = random_unit_samples(rng, n)
        got = ckl_uniform(s).value
        assert abs(got - exact_ckl_uniform(s)) < 1e-12


def test_cre_matches_exact_integral():
    rng = np.random.default_rng(1)
    for n in (2, 5, 50):
        s = np.sort(rng.random(n))
        assert abs(cre_empirical(s) - exact_cre(s)) < 1e-12


def test_estimate_decomposition():
    est = ckl_uniform(np.array([0.1, 0.4, 0.8]))
    assert isinstance(est, CklEstimate)
    assert est.value == -est.cre_term + est.expectation_term + 0.5


def test_nonnegative_on_edge_cases():
    for s in ([0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5], [0.5, 0.5, 0.5]):
        est = ckl_uniform(np.array(s))
        assert est.value >= -1e-12
        assert est.cre_term >= 0.0


def test_single_sample():
    est = ckl_uniform(np.array([0.3]))
    assert abs(est.value - exact_ckl_uniform([0.3])) < 1e-12
    assert cre_empirical(np.array([0.3])) == 0.0


def test_uniform_grid_is_nearly_calibrated():
    n = 2000
    grid = (np.arange(n) + 0.5) / n
    assert ckl_uniform(grid).value < 1e-6


def test_shrinks_with_sample_size():
    rng = np.random.default_rng(2)
    means = [
        np.mean([ckl_uniform(rng.random(n)).value for _ in range(30)])
        for n in (10, 100, 1000)
    ]
    assert means[0] > means[1] > means[2]


def test_input_validation():
    with pytest.raises(ValueError, match="1-d"):
        ckl_uniform(np.ones((2, 2)))
    with pytest.raises(ValueError, match="empty"):
        ckl_uniform(np.array([]))
    with pytest.raises(ValueError, match="lie in"):
        ckl_uniform(np.array([0.5, 1.2]))
    with pytest.raises(ValueError, match="ascending"):
        cre_empirical(np.array([0.5, 0.1]))
    with pytest.raises(ValueError, match="empty"):
        cre_empirical(np.array([]))


def test_boundary_tolerance_clips():
    est = ckl_uniform(np.array([-1e-13, 1.0 + 1e-13]))
    assert np.isfinite(est.value)


def test_gap_weights_cached_and_frozen():
    w1 = _gap_weights(64)
    w2 = _gap_weights(64)
    assert w1 is w2
    assert not w1.flags.writeable
    assert np.all(w1 <= 0.0)


def make_instance(seed, n):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    mu = rng.normal(size=n)
    sigma = rng.uniform(0.5, 2.0, size=n)
    return y, mu, sigma


def test_loss_close_to_hard_estimate_at_low_tau():
    y, mu, sigma = make_instance(3, 64)
    loss = quantile_reg_loss(y, nd.constant(mu), nd.constant(sigma), SoftSortConfig(tau=1e-4))
    from quantcal.gaussian import GaussianPrediction, pit

    hard = ckl_uniform(
        np.clip(pit(GaussianPrediction(mu, sigma), y), PIT_EPS, 1 - PIT_EPS)
    ).value
    assert abs(loss.item() - hard) < 1e-6


def test_loss_gradients():
    y, mu, sigma = make_instance(4, 16)
    assert (
        nd.finite_diff_check(
            lambda m: quantile_reg_loss(y, m, nd.constant(sigma)), mu
        )
        < 1e-4
    )
    assert (
        nd.finite_diff_check(
            lambda s: quantile_reg_loss(y, nd.constant(mu), s), sigma
        )
        < 1e-4
    )


def test_loss_validation():
    with pytest.raises(ValueError, match="at least 2"):
        quantile_reg_loss(np.ones(1), nd.constant(np.ones(1)), nd.constant(np.ones(1)))
    with pytest.raises(ValueError, match="shapes differ"):
        quantile_reg_loss(np.ones(3), nd.constant(np.ones(2)), nd.constant(np.ones(3)))


def test_total_loss_lambda_zero_is_bare_nll():
    y, mu, sigma = make_instance(6, 32)
    mu_n, sigma_n = nd.constant(mu), nd.constant(sigma)
    assert (
        total_loss(y, mu_n, sigma_n, 0.0).item()
        == gaussian_nll(mu_n, sigma_n, y).item()
    )


def test_total_loss_composition():
    y, mu, sigma = make_instance(7, 32)
    cfg = SoftSortConfig(tau=0.1)
    mu_n, sigma_n = nd.constant(mu), nd.constant(sigma)
    want = (
        gaussian_nll(mu_n, sigma_n, y).item()
        + 3.5 * quantile_reg_loss(y, mu_n, sigma_n, cfg).item()
    )
    assert abs(total_loss(y, mu_n, sigma_n, 3.5, cfg).item() - want) < 1e-12


def test_total_loss_rejects_negative_lambda():
    y, mu, sigma = make_instance(8, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        total_loss(y, nd.constant(mu), nd.constant(sigma), -1.0)


def test_total_loss_gradients():
    y, mu, sigma = make_instance(9, 16)
    assert (
        nd.finite_diff_check(
            lambda m: total_loss(y, m, nd.constant(sigma), 5.0), mu
        )
        < 1e-4
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=200),
)
def test_estimator_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    s = random_unit_samples(rng, n)
    est = ckl_uniform(s)
    assert est.value >= -1e-12
    assert abs(est.value - exact_ckl_uniform(s)) < 1e-10
