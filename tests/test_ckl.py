import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from oracles import exact_ckl_uniform, exact_cre, take
from quantcal import ndgrad as nd
from quantcal.ckl import (
    INV_SQRT_2PI,
    PIT_EPS,
    CklEstimate,
    _gap_weights,
    ckl_uniform,
    quantile_reg_loss,
    total_loss,
)
from quantcal.gaussian import LOG_2PI, SIGMA_FLOOR, gaussian_nll
from quantcal.softsort import SoftSortConfig, soft_sorted


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
        assert abs(ckl_uniform(s).cre_term - exact_cre(s)) < 1e-12


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
    assert est.cre_term == 0.0


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


def test_boundary_tolerance_clips():
    est = ckl_uniform(np.array([-1e-13, 1.0 + 1e-13]))
    assert np.isfinite(est.value)


def test_gap_weights_nonpositive():
    assert np.all(_gap_weights(64) <= 0.0)


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
    with pytest.raises(ValueError, match="zero sigma"):
        quantile_reg_loss(np.ones(2), nd.constant(np.zeros(2)), nd.constant(np.array([1.0, 0.0])))
    with pytest.raises(ValueError, match="non-finite"):
        quantile_reg_loss(np.ones(2), nd.constant(np.array([0.0, np.nan])), nd.constant(np.ones(2)))


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


def test_losses_are_fused_tape_ops():
    y, mu, sigma = make_instance(10, 8)
    mu_n, sigma_n = nd.param(mu), nd.param(sigma)
    nll = gaussian_nll(mu_n, sigma_n, y)
    assert nll.parents == (mu_n, sigma_n)
    loss = quantile_reg_loss(y, mu_n, sigma_n)
    s, c = loss.parents
    assert s.parents == (c,)
    assert c.parents == (mu_n, sigma_n)


# The losses as the chains of generic tape ops they were before they became
# fused ops. The fused ops must reproduce them bit for bit: trained models
# and every CSV depend on the rounding.
def _unary(name, a, f, df):
    a = nd.constant(a)
    return nd._result(name, f(a.value), (a,), lambda g: (df(g, a.value),))


def _sub(a, b):
    return nd._binary("subtract", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def _div(a, b):
    return nd._binary(
        "divide", a, b, np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y)
    )


def _log(a):
    return _unary("log", a, np.log, lambda g, x: g / x)


def _clip(a, lo, hi):
    return _unary("clip", a, lambda x: np.clip(x, lo, hi), lambda g, x: g * ((x >= lo) & (x <= hi)))


def _mean(a):
    return _unary("mean", a, np.mean, lambda g, x: np.broadcast_to(g / x.size, x.shape).copy())


def _ndtr(a):
    return _unary("ndtr", a, ndtr, lambda g, x: g * INV_SQRT_2PI * np.exp(-0.5 * x * x))


def chain_total_loss(y, mu, sigma, lam, cfg):
    ss = _clip(sigma, SIGMA_FLOOR, np.inf)
    z = _div(_sub(y, mu), ss)
    nll = _mean(nd.add(0.5 * LOG_2PI, _log(ss)) + 0.5 * z * z)
    c = _clip(_ndtr(_div(_sub(y, mu), sigma)), PIT_EPS, 1.0 - PIT_EPS)
    s = soft_sorted(c, cfg)
    gaps = _sub(take(s, slice(1, None)), take(s, slice(None, -1)))
    gap = (nd.constant(_gap_weights(y.shape[0])) * gaps).sum()
    om = _sub(1.0, c)
    return nll + lam * (gap + _mean(om * _log(om)) + 0.5)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=80),
    st.sampled_from([0.01, 0.1, 1.0, 7.5]),
    st.sampled_from([1.0, 3.7, 20.0]),
)
def test_fused_losses_equal_tape_chain_bitwise(seed, n, tau, lam):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    mu = rng.normal(size=n)
    sigma = rng.uniform(0.05, 2.0, size=n)
    sigma[rng.random(n) < 0.1] = 1e-8  # below the NLL's sigma floor
    far = rng.random(n) < 0.1  # PIT past the penalty's clip
    y[far] = mu[far] + 60.0 * sigma[far]
    cfg = SoftSortConfig(tau=tau)
    results = []
    for loss in (total_loss, chain_total_loss):
        mu_n, sigma_n = nd.param(mu), nd.param(sigma)
        out = loss(y, mu_n, sigma_n, lam, cfg)
        results.append([out.value, *nd.gradients(out, [mu_n, sigma_n])])
    for fused, chain in zip(*results):
        assert fused.tobytes() == chain.tobytes()


def central_differences(f, x, steps, coords):
    """(f(x + h e_i) - f(x - h e_i)) / 2h for each i in coords."""
    out = np.zeros_like(x)
    for i in coords:
        hi, lo = x.copy(), x.copy()
        hi[i] += steps[i]
        lo[i] -= steps[i]
        out[i] = (f(hi) - f(lo)) / (hi[i] - lo[i])
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=64),
    st.floats(min_value=0.01, max_value=10.0),
)
def test_fused_loss_gradients_match_central_differences_property(seed, n, tau):
    rng = np.random.default_rng(seed)
    cfg = SoftSortConfig(tau=tau)
    # distinct grid z-scores keep the soft sort's |c_j - c_k| kinks farther
    # from every PIT than a finite-difference step moves it
    z = rng.choice(np.arange(-60, 61), size=n, replace=False) / 20.0
    mu = rng.normal(size=n)
    sigma = rng.uniform(0.2, 3.0, size=n)
    tiny = rng.random(n) < 0.2  # below the NLL's sigma floor
    far = tiny | (rng.random(n) < 0.2)  # PIT past the penalty's clip
    sigma[tiny] = rng.uniform(1e-9, 5e-7, size=tiny.sum())
    z[far] = rng.choice([-50.0, 50.0], size=far.sum())
    y = mu + z * sigma
    mu_steps = 1e-5 * np.maximum(sigma, SIGMA_FLOOR)
    sigma_steps = 1e-5 * sigma

    def check(loss, frozen_mu, frozen_sigma):
        mu_n, sigma_n = nd.param(mu), nd.param(sigma)
        g_mu, g_sigma = nd.gradients(loss(mu_n, sigma_n), [mu_n, sigma_n])
        assert np.all(g_mu[frozen_mu] == 0.0) and np.all(g_sigma[frozen_sigma] == 0.0)
        free_mu, free_sigma = np.flatnonzero(~frozen_mu), np.flatnonzero(~frozen_sigma)
        num_mu = central_differences(lambda m: loss(m, sigma).item(), mu, mu_steps, free_mu)
        num_sigma = central_differences(lambda s: loss(mu, s).item(), sigma, sigma_steps, free_sigma)
        for auto, num, free in ((g_mu, num_mu, free_mu), (g_sigma, num_sigma, free_sigma)):
            err = np.abs(auto[free] - num[free])
            assert np.all(err <= 1e-7 + 1e-5 * np.abs(num[free])), (err.max(), num[free])

    check(lambda m, s: gaussian_nll(m, s, y), np.zeros(n, bool), tiny)
    check(lambda m, s: quantile_reg_loss(y, m, s, cfg), far, far)
