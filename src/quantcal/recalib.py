"""Post-hoc isotonic recalibration of PIT values.

Given held-out (or training) predictions, the empirical frequency
P_hat(c) = fraction of PITs <= c is regressed isotonically on c. That fit
is the empirical CDF (ECDF) of the calibration PITs itself, so a map fitted
on a split sends that split's PITs to their own ECDF levels, as uniform as
their ties allow, whatever other PITs look like. Applying the map to future
PITs pushes their distribution toward uniform only insofar as the
miscalibration pattern generalizes. The map is kept as piecewise-linear
knots pinned at (0, 0) and (1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import load_csv, write_csv
from .gaussian import pit


@dataclass
class CalibrationMap:
    """Monotone piecewise-linear map [0, 1] -> [0, 1]."""

    knots_p: np.ndarray
    knots_r: np.ndarray

    def __post_init__(self):
        self.knots_p = np.asarray(self.knots_p, dtype=np.float64)
        self.knots_r = np.asarray(self.knots_r, dtype=np.float64)
        if self.knots_p.shape != self.knots_r.shape or self.knots_p.ndim != 1:
            raise ValueError("CalibrationMap: knot arrays must be 1-d and equal length")
        if self.knots_p.shape[0] < 2:
            raise ValueError("CalibrationMap: need at least 2 knots")
        if not (np.all(np.isfinite(self.knots_p)) and np.all(np.isfinite(self.knots_r))):
            raise ValueError("CalibrationMap: knots must be finite")
        if np.any(np.diff(self.knots_p) <= 0):
            raise ValueError("CalibrationMap: knot positions must strictly increase")
        if np.any(np.diff(self.knots_r) < 0):
            raise ValueError("CalibrationMap: knot values must be nondecreasing")
        if self.knots_p[0] != 0.0 or self.knots_p[-1] != 1.0:
            raise ValueError("CalibrationMap: knots must span [0, 1]")
        if self.knots_r[0] != 0.0 or self.knots_r[-1] != 1.0:
            raise ValueError("CalibrationMap: values must run from 0 to 1")


def pav(x, y):
    """Isotonic regression by pool-adjacent-violators, unit weights.

    The isotonic primitive; no CLI verb calls it, because the isotonic fit
    of ECDF levels needs no pooling (see `fit_calibration_map`). x must be
    ascending (it only orders the points); returns the nondecreasing fit,
    one value per input, minimizing sum (fit - y)^2.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pav: x and y must be 1-d and equal length")
    if x.shape[0] == 0:
        raise ValueError("pav: empty input")
    if np.any(np.diff(x) < 0):
        raise ValueError("pav: x must be ascending")
    means = []
    counts = []
    for value in y:
        means.append(value)
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            total = means[-2] * counts[-2] + means[-1] * counts[-1]
            counts[-2] += counts[-1]
            means[-2] = total / counts[-2]
            means.pop()
            counts.pop()
    return np.repeat(means, counts)


def fit_calibration_map(preds, y):
    """Isotonic fit of empirical CDF levels on PIT values, as a map.

    The fit is the ECDF of the PITs, so a map fitted on the training split
    reproduces that split's quirks; fitting on held-out data is the safer
    route when there is enough of it.
    """
    c = pit(preds, y)
    if len(c) == 0:
        raise ValueError("fit_calibration_map: empty predictions")
    # The ECDF levels (fraction of PITs <= c) are nondecreasing in c, so
    # their isotonic fit is themselves: one knot per distinct PIT.
    knots_p, counts = np.unique(c, return_counts=True)
    knots_r = np.cumsum(counts) / len(c)
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
    return CalibrationMap(knots_p, knots_r)


def apply_map(cal_map, p):
    """Evaluate the map at probabilities p (scalar or array) in [0, 1]."""
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN included
        raise ValueError("apply_map: probabilities must lie in [0, 1]")
    out = np.interp(arr, cal_map.knots_p, cal_map.knots_r)
    return float(out) if np.isscalar(p) else out


def save_map(cal_map, path):
    write_csv(path, ["p", "r"], zip(map(float, cal_map.knots_p), map(float, cal_map.knots_r)))


def load_map(path):
    """Read a map written by `save_map`; any malformed file raises a
    ValueError that names it."""
    data = load_csv(path, target_column="r")  # its errors name the path
    try:
        if data.feature_names != ["p"]:
            raise ValueError("expected the two columns p and r")
        return CalibrationMap(data.features[:, 0], data.targets)
    except ValueError as exc:
        raise ValueError(f"load_map: {path} is not a calibration map file: {exc}") from None
