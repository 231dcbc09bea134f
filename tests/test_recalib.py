import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import minimax_isotonic
from quantcal.gaussian import GaussianPrediction, pit
from quantcal.metrics import MetricConfig, calibration_error
from quantcal.recalib import (
    CalibrationMap,
    apply_map,
    fit_calibration_map,
    load_map,
    pav,
    save_map,
)


def pav_calibration_map(c):
    """The isotonic map built the long way, as a reference: PAV on the
    searchsorted ECDF levels of the sorted PITs, one knot per distinct PIT
    (the last of each tie), pinned at (0, 0) and (1, 1)."""
    c = np.sort(c)
    fit = pav(c, np.searchsorted(c, c, side="right") / c.shape[0])
    keep = np.concatenate([np.diff(c) > 0, [True]])
    knots_p, knots_r = c[keep], fit[keep]
    if knots_p[0] > 0.0:
        knots_p = np.concatenate([[0.0], knots_p])
        knots_r = np.concatenate([[0.0], knots_r])
    else:
        knots_r[0] = 0.0
    if knots_p[-1] < 1.0:
        knots_p = np.concatenate([knots_p, [1.0]])
        knots_r = np.concatenate([knots_r, [1.0]])
    else:
        knots_r[-1] = 1.0
    return knots_p, knots_r


def test_pav_matches_minimax_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(1, 9)
        y = rng.normal(size=n)
        x = np.sort(rng.random(n))
        assert np.allclose(pav(x, y), minimax_isotonic(y), atol=1e-10)


def test_pav_hand_cases():
    x = np.arange(4.0)
    assert np.array_equal(pav(x, np.array([1.0, 2.0, 3.0, 4.0])), [1, 2, 3, 4])
    assert np.allclose(pav(x, np.array([4.0, 3.0, 2.0, 1.0])), np.full(4, 2.5))
    assert np.allclose(pav(x, np.array([1.0, 3.0, 2.0, 4.0])), [1.0, 2.5, 2.5, 4.0])


def test_pav_idempotent_and_mean_preserving():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y = rng.normal(size=rng.integers(1, 40))
        x = np.arange(len(y), dtype=float)
        fit = pav(x, y)
        assert np.allclose(pav(x, fit), fit, atol=1e-12)
        assert abs(fit.mean() - y.mean()) < 1e-12
        assert np.all(np.diff(fit) >= 0)


def test_pav_validation():
    with pytest.raises(ValueError, match="ascending"):
        pav(np.array([1.0, 0.5]), np.zeros(2))
    with pytest.raises(ValueError, match="equal length"):
        pav(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="empty"):
        pav(np.array([]), np.array([]))


def test_fit_calibration_map_hand_case():
    pred = GaussianPrediction(np.zeros(4), np.ones(4))
    from scipy.special import ndtri

    pits = np.array([0.2, 0.4, 0.4, 0.9])
    y = ndtri(pits)  # targets whose PITs are `pits` to within rounding
    cal = fit_calibration_map(pred, y)
    assert np.allclose(cal.knots_p, [0.0, 0.2, 0.4, 0.9, 1.0], atol=1e-12)
    assert np.array_equal(cal.knots_r, [0.0, 0.25, 0.75, 1.0, 1.0])
    with pytest.raises(ValueError, match="empty"):
        fit_calibration_map(GaussianPrediction(np.zeros(0), np.ones(0)), np.zeros(0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            # +-50 standard deviations give PITs of exactly 0.0 and 1.0
            st.sampled_from([-50.0, -1.0, 0.0, 0.5, 50.0]),
            st.floats(-9.0, 9.0),
        ),
        min_size=1,
        max_size=60,
    ),
    st.floats(0.1, 3.0),
)
def test_ecdf_map_equals_pav_construction(values, scale):
    y = np.array(values)
    pred = GaussianPrediction(np.zeros(len(y)), np.full(len(y), scale))
    cal = fit_calibration_map(pred, y)
    knots_p, knots_r = pav_calibration_map(pit(pred, y))
    assert cal.knots_p.tobytes() == knots_p.tobytes()
    assert cal.knots_r.tobytes() == knots_r.tobytes()


def test_calibration_map_validation():
    CalibrationMap(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increase"):
        CalibrationMap(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="nondecreasing"):
        CalibrationMap(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.7, 0.6]))
    with pytest.raises(ValueError, match=r"span \[0, 1\]"):
        CalibrationMap(np.array([0.1, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="from 0 to 1"):
        CalibrationMap(np.array([0.0, 1.0]), np.array([0.1, 1.0]))
    with pytest.raises(ValueError, match="at least 2"):
        CalibrationMap(np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="finite"):
        CalibrationMap(np.array([0.0, np.nan, 1.0]), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        CalibrationMap(np.array([0.0, 0.5, 1.0]), np.array([0.0, np.inf, 1.0]))


def test_apply_map_interpolates_and_pins_endpoints():
    cal = CalibrationMap(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0]))
    assert apply_map(cal, 0.0) == 0.0
    assert apply_map(cal, 1.0) == 1.0
    assert apply_map(cal, 0.25) == 0.125
    out = apply_map(cal, np.array([0.5, 0.75]))
    assert isinstance(out, np.ndarray)
    assert np.allclose(out, [0.25, 0.625])
    assert isinstance(apply_map(cal, 0.3), float)
    with pytest.raises(ValueError, match="lie in"):
        apply_map(cal, 1.5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=20), st.data())
def test_apply_map_rejects_a_nan_anywhere(p, data):
    cal = CalibrationMap(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0]))
    p.insert(data.draw(st.integers(0, len(p))), float("nan"))
    with pytest.raises(ValueError, match="lie in"):
        apply_map(cal, np.array(p))
    with pytest.raises(ValueError, match="lie in"):
        apply_map(cal, float("nan"))


def test_fit_on_identity_data_is_near_identity():
    rng = np.random.default_rng(2)
    y = rng.normal(size=500)
    pred = GaussianPrediction(np.zeros(500), np.ones(500))
    cal = fit_calibration_map(pred, y)
    grid = np.linspace(0, 1, 21)
    assert np.max(np.abs(apply_map(cal, grid) - grid)) < 0.08


def test_same_data_fit_restores_calibration():
    # badly miscalibrated model: predicted scale half the true one
    rng = np.random.default_rng(3)
    y = rng.standard_normal(800) * 2.0
    pred = GaussianPrediction(np.zeros(800), np.ones(800))
    cal = fit_calibration_map(pred, y)
    before = pit(pred, y)
    after = apply_map(cal, pit(pred, y))
    cfg = MetricConfig(bins=20, percent=False)
    assert calibration_error(after, cfg) < 0.05 * calibration_error(before, cfg)
    assert calibration_error(after, cfg) < 1 / 20 + 1 / 800


def test_fitted_map_handles_tied_pits():
    pred = GaussianPrediction(np.zeros(6), np.ones(6))
    y = np.array([-1.0, -1.0, 0.0, 0.0, 1.0, 1.0])
    cal = fit_calibration_map(pred, y)
    assert np.all(np.diff(cal.knots_p) > 0)
    assert cal.knots_p[0] == 0.0 and cal.knots_p[-1] == 1.0


def test_save_load_roundtrip(tmp_path):
    cal = CalibrationMap(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.4, 1.0]))
    path = tmp_path / "map.csv"
    save_map(cal, path)
    loaded = load_map(path)
    assert np.array_equal(loaded.knots_p, cal.knots_p)
    assert np.array_equal(loaded.knots_r, cal.knots_r)


def test_load_map_rejects_other_files(tmp_path):
    not_maps = [  # load_csv turns these down
        b"a,b\n1,2\n",
        b"",
        b"p,r\n",  # header only
        b"p,r\n0,0\n1\n",  # short row
        b"p,r\n0,0\nx,0.5\n1,1\n",
        b"p,r\n0,0\nnan,0.5\n1,1\n",
        b"p,r\n0,0\n" + b"1" * 200_000 + b",1\n",  # past the csv field limit
        b"p,r\n\xff\xfe,0\n1,1\n",  # not text
    ]
    bad_maps = [  # load_map's own checks turn these down
        b"p,r\n0,0\n",  # one knot
        b"p,r,q\n0,0,0\n1,1,1\n",
        b"p,r\n0,0\n0.5,0.7\n0.4,0.6\n1,1\n",  # positions not increasing
    ]
    path = tmp_path / "junk.csv"
    for content in not_maps + bad_maps:
        path.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            load_map(path)
        assert str(exc.value).count(str(path)) == 1
        assert str(exc.value).startswith(f"load_map: {path} is not a calibration map file") == (
            content in bad_maps
        )


MAPISH = st.text(alphabet='0123456789.-e,pr "\r\nnaif', max_size=80)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=80), MAPISH.map(str.encode),
                 MAPISH.map(lambda text: ("p,r\n0,0\n" + text).encode())))
def test_load_map_any_bytes_load_or_name_the_file_once(tmp_path, content):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(content)
    try:
        cal = load_map(path)
    except ValueError as exc:
        assert str(exc).count(str(path)) == 1
        return
    assert isinstance(cal, CalibrationMap)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
def test_pav_properties(values):
    y = np.array(values)
    x = np.arange(len(y), dtype=float)
    fit = pav(x, y)
    assert np.all(np.diff(fit) >= -1e-12)
    assert abs(fit.mean() - y.mean()) < 1e-9
    # projection never increases the distance to any monotone vector (here: sorted y)
    target = np.sort(y)
    assert np.sum((fit - target) ** 2) <= np.sum((y - target) ** 2) + 1e-9
