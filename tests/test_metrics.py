import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from oracles import assert_same_bits
from quantcal.gaussian import GaussianPrediction
from quantcal.metrics import (
    MetricConfig,
    MetricsReport,
    calibration_error,
    predictive_nll,
    reliability_curve,
    rmse,
    spearman,
)


def test_config_validation():
    assert MetricConfig().bins == 20
    with pytest.raises(ValueError, match="bins"):
        MetricConfig(bins=0)


def test_calibration_error_hand_case():
    pits = np.array([0.05, 0.25, 0.55, 0.95])
    cfg = MetricConfig(bins=4, percent=False)
    # levels 0.25/0.5/0.75/1.0 observe 2/4, 2/4, 3/4, 4/4
    want = np.mean(
        [(0.5 - 0.25) ** 2, (0.5 - 0.5) ** 2, (0.75 - 0.75) ** 2, (1.0 - 1.0) ** 2]
    )
    assert abs(calibration_error(pits, cfg) - want) < 1e-15


def test_percent_scales_by_100():
    pits = np.array([0.1, 0.6, 0.7])
    raw = calibration_error(pits, MetricConfig(bins=10, percent=False))
    pct = calibration_error(pits, MetricConfig(bins=10, percent=True))
    assert abs(pct - 100.0 * raw) < 1e-12


def test_perfect_grid_scores_zero():
    n = 400
    pits = (np.arange(n) + 1) / n
    assert calibration_error(pits, MetricConfig(bins=20, percent=False)) < 1e-12


def test_one_sided_pits_score_badly():
    pits = np.full(100, 0.01)
    err = calibration_error(pits, MetricConfig(bins=20, percent=False))
    assert err > 0.3


def test_reliability_curve_points():
    pits = np.array([0.1, 0.2, 0.9])
    curve = reliability_curve(pits, MetricConfig(bins=2))
    assert curve == [(0.5, 2 / 3), (1.0, 1.0)]


def test_pit_validation():
    with pytest.raises(ValueError, match="nonempty"):
        calibration_error(np.array([]))
    with pytest.raises(ValueError, match="lie in"):
        calibration_error(np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="1-d"):
        calibration_error(np.ones((2, 2)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=20), st.data())
def test_a_nan_pit_anywhere_is_rejected(pits, data):
    # every comparison with NaN is False, so a check for values below 0 or
    # above 1 lets it through to a finite, wrong score
    pits.insert(data.draw(st.integers(0, len(pits))), float("nan"))
    for metric in (calibration_error, reliability_curve):
        with pytest.raises(ValueError, match="lie in"):
            metric(np.array(pits))


def test_rmse_oracle():
    pred = GaussianPrediction(np.array([1.0, 2.0, 3.0]), np.ones(3))
    y = np.array([1.0, 1.0, 5.0])
    assert abs(rmse(pred, y) - np.sqrt((0 + 1 + 4) / 3)) < 1e-15
    with pytest.raises(ValueError, match="rmse"):
        rmse(pred, np.ones(2))


def test_nll_oracle():
    mu = np.array([0.0, 1.0])
    sigma = np.array([1.0, 2.0])
    y = np.array([0.5, -1.0])
    pred = GaussianPrediction(mu, sigma)
    z = (y - mu) / sigma
    want = np.mean(0.5 * np.log(2 * np.pi) + np.log(sigma) + 0.5 * z * z)
    assert abs(predictive_nll(pred, y) - want) < 1e-14


def test_nll_penalizes_overconfidence():
    y = np.array([3.0])
    wide = GaussianPrediction(np.zeros(1), np.array([3.0]))
    narrow = GaussianPrediction(np.zeros(1), np.array([0.1]))
    assert predictive_nll(narrow, y) > predictive_nll(wide, y)


def test_report_evaluate_wires_everything():
    rng = np.random.default_rng(0)
    y = rng.normal(size=200)
    pred = GaussianPrediction(np.zeros(200), np.ones(200))
    from quantcal.gaussian import pit

    pits = pit(pred, y)
    cfg = MetricConfig(bins=10, percent=True)
    report = MetricsReport.evaluate(pred, y, pits, cfg)
    assert report.n == 200
    assert report.calib_error == calibration_error(pits, cfg)
    assert report.rmse == rmse(pred, y)
    assert report.nll == predictive_nll(pred, y)
    assert len(report.reliability) == 10


def test_report_accepts_external_pits():
    """Recalibrated PITs pair with accuracy metrics of the raw prediction."""
    y = np.array([0.0, 1.0])
    pred = GaussianPrediction(np.zeros(2), np.ones(2))
    report = MetricsReport.evaluate(pred, y, np.array([0.25, 0.75]))
    assert report.rmse == rmse(pred, y)


def scipy_spearman(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input warns and gives NaN
        return spearmanr(a, b).statistic


@pytest.mark.parametrize("a, b", [
    ([0.0, 1.0, 5.0, 10.0, 20.0], [3.1, 2.9, 2.5, 2.6, 1.0]),  # untied
    ([0.0, 1.0, 5.0, 10.0, 20.0], [2.0, 1.0, 1.0, 3.0, 1.0]),  # ties on one side
    ([1.0, 1.0, 2.0, 2.0, 3.0], [0.5, 0.5, 0.5, 0.1, 0.2]),  # ties on both
    ([0.0, 20.0], [1.5, 0.5]),
    ([0.0, 1.0, 2.0], [4.0, 4.0, 4.0]),  # constant: NaN
    ([5.0, 5.0], [0.1, 0.3]),
])
def test_spearman_equals_scipy(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and a constant side warns of no division by 0
        rho = spearman(a, b)
    assert_same_bits(rho, scipy_spearman(a, b))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 3) | st.floats(-1e3, 1e3), min_size=n, max_size=n),
    st.lists(st.integers(0, 3) | st.floats(-1e3, 1e3), min_size=n, max_size=n),
)))
def test_spearman_equals_scipy_on_tied_and_untied_samples(pair):
    a, b = (np.array(side, dtype=np.float64) for side in pair)
    assert_same_bits(spearman(a, b), scipy_spearman(a, b))


@pytest.mark.parametrize("a, b, match", [
    ([], [], "nonempty"),
    ([1.0, 2.0, 3.0], [1.0, 2.0], "one length"),
    ([1.0, 2.0, np.nan], [1.0, 2.0, 3.0], "finite"),  # scipy gives NaN, not 1.0
    ([1.0, 2.0, 3.0], [np.inf, 2.0, 1.0], "finite"),
])
def test_spearman_rejects_empty_unequal_or_non_finite_samples(a, b, match):
    with pytest.raises(ValueError, match=f"spearman: .*{match}"):
        spearman(a, b)
