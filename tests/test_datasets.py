import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import assert_same_bits, reference_load_csv, reference_standardize, synth_hetero_truth
from quantcal import datasets, models
from quantcal.datasets import (
    Dataset,
    SplitSpec,
    Standardization,
    descriptor_names,
    fit_standardization,
    load_csv,
    load_descriptor,
    load_from_descriptor,
    make_splits,
    standardize,
    standardized_view,
    synth_hetero,
)


def write_csv(path, text):
    path.write_text(text)
    return path


def test_dataset_basics():
    ds = Dataset(np.ones((3, 2)), np.zeros(3))
    assert len(ds) == 3
    assert ds.n_features == 2
    assert ds.feature_names == ["x0", "x1"]
    sub = ds.subset([0, 2])
    assert len(sub) == 2


def test_dataset_validation():
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        Dataset(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match="rows vs"):
        Dataset(np.ones((3, 1)), np.zeros(2))


def test_load_csv_with_header(tmp_path):
    path = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5,6\n")
    ds = load_csv(path)
    assert ds.feature_names == ["a", "b"]
    assert np.array_equal(ds.targets, [3.0, 6.0])
    assert np.array_equal(ds.features, [[1, 2], [4, 5]])


def test_load_csv_target_by_name_and_index(tmp_path):
    path = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n")
    by_name = load_csv(path, target_column="a")
    assert np.array_equal(by_name.targets, [1.0])
    assert by_name.feature_names == ["b", "y"]
    by_index = load_csv(path, target_column=0)
    assert np.array_equal(by_index.targets, by_name.targets)
    with pytest.raises(ValueError, match="not in header"):
        load_csv(path, target_column="zz")


def test_load_csv_no_header(tmp_path):
    path = write_csv(tmp_path / "d.csv", "1,2\n3,4\n")
    ds = load_csv(path, has_header=False)
    assert np.array_equal(ds.targets, [2.0, 4.0])
    assert ds.feature_names == ["col0"]


def test_load_csv_delimiter(tmp_path):
    path = write_csv(tmp_path / "d.csv", "1;2\n3;4\n")
    ds = load_csv(path, delimiter=";", has_header=False)
    assert ds.n_features == 1


def test_load_csv_errors(tmp_path):
    cases = [
        ("e.csv", "", "empty"),
        ("r.csv", "a,b\n1,2\n3\n", "row 1 has 1 cells"),
        ("a.csv", "a,b\n1,x\n", r"non-numeric value 'x' at row 0, column 1 \(b\)"),
        ("n.csv", "a,b\n1,2\n3,nan\n", r"non-finite value 'nan' at row 1, column 1 \(b\)"),
        ("i.csv", "a,b\n-inf,2\n", r"non-finite value '-inf' at row 0, column 0 \(a\)"),
        ("h.csv", "a,b\n", "no data rows"),
    ]
    for name, text, message in cases:
        path = write_csv(tmp_path / name, text)
        with pytest.raises(ValueError, match=message) as exc:
            load_csv(path)
        assert str(path) in str(exc.value)
    path = tmp_path / "u.csv"
    path.write_bytes(b"a,b\n1,\xff\n")
    with pytest.raises(ValueError, match="codec") as exc:
        load_csv(path)
    assert str(path) in str(exc.value)
    with pytest.raises(ValueError, match="target column 'z'") as exc:
        load_csv(tmp_path / "a.csv", target_column="z")
    assert str(tmp_path / "a.csv") in str(exc.value)
    path = write_csv(tmp_path / "w.csv", "a,b,y\n1,2,3\n")
    for position in (3, 5, -4):  # the first two used to wrap to columns 0 and 2
        with pytest.raises(ValueError, match=rf"target column {position} is outside \[-3, 3\)") as exc:
            load_csv(path, target_column=position)
        assert str(path) in str(exc.value)
    assert np.array_equal(load_csv(path, target_column=-3).targets, [1.0])


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1.5e-320, 2.2250738585072014e-308, 1e308, -1e308]),
)


def quoted_or_not(draw, text):
    return f'"{text}"' if draw(st.booleans()) else text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    table=st.integers(1, 5).flatmap(
        lambda w: st.lists(st.lists(FINITE, min_size=w, max_size=w), min_size=1, max_size=8)
    ),
    spell=st.sampled_from([repr, "%.17g".__mod__]),
    delimiter=st.sampled_from([",", ";", "\t"]),
    has_header=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    data=st.data(),
)
def test_load_csv_matches_the_float_reader_bit_for_bit(
    tmp_path, table, spell, delimiter, has_header, newline, data
):
    width = len(table[0])
    names = [f"c{i}" for i in range(width)]
    lines = [delimiter.join(quoted_or_not(data.draw, name) for name in names)] if has_header else []
    for row in table:
        lines += [""] * data.draw(st.integers(0, 2))  # blank lines are skipped
        lines.append(delimiter.join(quoted_or_not(data.draw, spell(v)) for v in row))
    path = tmp_path / "t.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    target = data.draw(st.sampled_from(names) if has_header and data.draw(st.booleans())
                       else st.integers(-width, width - 1))
    ds = load_csv(path, target, delimiter, has_header)
    features, targets, feature_names = reference_load_csv(path, target, delimiter, has_header)
    assert ds.features.tobytes() == features.tobytes() and ds.features.shape == features.shape
    assert ds.targets.tobytes() == targets.tobytes()
    assert ds.feature_names == feature_names
    written = np.array(table)
    column = names.index(target) if isinstance(target, str) else target % width
    assert ds.targets.tobytes() == written[:, column].tobytes()
    assert ds.features.tobytes() == np.delete(written, column, axis=1).tobytes()


CSVISH = st.text(alphabet='0123456789.-+eE_,;\t "\r\nnaifINF\x1c\xa0\uff11', max_size=120)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    content=st.one_of(st.binary(max_size=120), CSVISH.map(str.encode)),
    target=st.one_of(st.integers(-3, 3), st.sampled_from(["a", "0"])),
    has_header=st.booleans(),
)
def test_load_csv_any_bytes_load_or_name_the_file(tmp_path, content, target, has_header):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(content)
    try:
        ds = load_csv(path, target, has_header=has_header)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert np.isfinite(ds.features).all() and np.isfinite(ds.targets).all()
    try:
        features, targets, _ = reference_load_csv(path, target, has_header=has_header)
    except ValueError:
        return  # a spelling only numpy's reader accepts
    assert ds.features.tobytes() == features.tobytes() and ds.targets.tobytes() == targets.tobytes()


@pytest.mark.parametrize(
    "cell, value",
    [
        ("1_0", None),  # float() reads 10.0
        ("\uff11", None),  # full-width 1; float() reads 1.0
        ("\u0663", None),  # Arabic-Indic 3; float() reads 3.0
        ("\x1c1", 1.0),  # float() rejects the separator control
        ("0" * 140_000 + "1", 1.0),  # past csv's field size limit
    ],
)
def test_load_csv_spellings_that_differ_from_float(tmp_path, cell, value):
    path = tmp_path / "s.csv"
    path.write_text(f"a,b\n{cell},2\n", encoding="utf-8")
    if value is None:
        assert reference_load_csv(path)[0][0, 0] == float(cell)
        with pytest.raises(ValueError) as exc:
            load_csv(path)
        assert str(path) in str(exc.value)
    else:
        with pytest.raises(ValueError):
            reference_load_csv(path)
        assert load_csv(path).features[0, 0] == value


def test_load_csv_peak_stays_near_its_data(tmp_path):
    table = np.random.default_rng(0).standard_normal((20000, 11))
    path = tmp_path / "big.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=",".join(f"c{i}" for i in range(11)), comments="")
    tracemalloc.start()
    try:
        ds = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.column_stack([ds.features, ds.targets]), table)
    # the float64 table, which the features view, and the targets' copy;
    # a feature copy beside the table read 2x, and a string per cell 12.5x
    assert peak < 1.5 * table.nbytes


def test_load_csv_targets_do_not_keep_the_table_alive(tmp_path):
    # protein's layout: ten features, the target last, no header
    table = np.random.default_rng(1).standard_normal((500, 11))
    path = tmp_path / "protein.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",")
    ds = load_csv(path, has_header=False)
    assert ds.targets.base is None and ds.targets.flags.owndata
    assert np.array_equal(ds.targets, table[:, -1])


def test_standardize_population_stats():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(2.0, 3.0, size=(40, 2)), rng.normal(5.0, 2.0, size=40))
    std, tf = standardize(ds)
    assert np.allclose(std.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(std.features.std(axis=0), 1.0, atol=1e-12)
    assert abs(std.targets.mean()) < 1e-12
    assert abs(std.targets.std() - 1.0) < 1e-12
    back = std.targets * tf.target_std + tf.target_mean
    assert np.allclose(back, ds.targets, atol=1e-12)


def test_standardize_respects_train_idx():
    ds = Dataset(np.arange(10.0)[:, None], np.arange(10.0))
    idx = np.arange(5)
    fitted, tf = standardize(ds.subset(idx))
    z, t = tf.apply(ds.features, ds.targets)
    assert np.array_equal(z[:5], fitted.features)
    assert np.array_equal(t[:5], fitted.targets)
    assert abs(z[:5, 0].mean()) < 1e-12
    assert z[9, 0] > z[4, 0]
    assert tf.target_mean == 2.0


def test_standardize_drops_constant_columns():
    f = np.column_stack([np.ones(10), np.arange(10.0)])
    ds = Dataset(f, np.arange(10.0), feature_names=["flat", "ramp"])
    with pytest.warns(UserWarning, match="flat"):
        std, tf = standardize(ds)
    assert std.n_features == 1
    assert std.feature_names == ["ramp"]
    assert np.array_equal(tf.kept_columns, [1])
    z, _ = tf.apply(f, np.zeros(10))
    assert z.shape == (10, 1)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.just(d)), elements=ANY_FLOAT),
    st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True),
    hnp.arrays(np.float64, d, elements=ANY_FLOAT),
    hnp.arrays(np.float64, d, elements=ANY_FLOAT),
    ANY_FLOAT, ANY_FLOAT,
)))
def test_apply_in_place_gives_the_bits_of_the_expression(case):
    features, kept, mean, std, t_mean, t_std = case
    kept = np.array(kept)
    targets = features[:, 0].copy()
    tf = Standardization(mean[kept], std[kept], t_mean, t_std, kept)
    before = features.copy()
    with np.errstate(all="ignore"):
        z, t = tf.apply(features, targets)
        assert_same_bits(z, (features[:, kept] - mean[kept]) / std[kept])
        assert_same_bits(t, (targets - t_mean) / t_std)
    assert_same_bits(features, before)
    assert_same_bits(targets, before[:, 0])


def test_apply_names_the_width_it_expects():
    # a bare IndexError once: "index 2 is out of bounds" for (4, 2) features
    tf = Standardization(np.zeros(3), np.ones(3), 0.0, 1.0, np.arange(3))
    for features in (np.ones((4, 2)), np.ones(4), np.ones((4, 3, 1))):
        with pytest.raises(ValueError, match=r"at least 3 columns, got \(4,"):
            tf.apply(features, np.ones(4))
    # a transform that dropped column 0 needs the columns up to 1 only
    z, _ = Standardization(np.zeros(1), np.ones(1), 0.0, 1.0, np.array([1])).apply(
        np.arange(8.0).reshape(4, 2), np.ones(4))
    assert np.array_equal(z, [[1.0], [3.0], [5.0], [7.0]])


def test_standardize_peak_stays_near_its_output():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(20000, 10)), rng.normal(size=20000))
    tracemalloc.start()
    try:
        standardize(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the standardized features and targets; a full-size temporary beside
    # them, as (f - mean) / std made two of, breaks the bound
    assert peak < 1.25 * ds.features.nbytes


def laid_out(features, targets, layout):
    """A Dataset of `features` and `targets` as `load_csv` leaves a table
    whose target is its first column, its last, or one in the middle: the
    features a C-ordered view of the table for an edge target, else an
    F-ordered copy."""
    n, d = features.shape
    if layout == "target_first":
        return Dataset(np.column_stack([targets, features])[:, 1:], targets.copy())
    if layout == "target_last":
        return Dataset(np.column_stack([features, targets])[:, :-1], targets.copy())
    table = np.column_stack([features[:, :1], targets, features[:, 1:]])
    return Dataset(table[:, [0, *range(2, d + 1)]], targets.copy())


def warnings_of(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 19), st.integers(6, 1200), st.integers(2, 20),
       st.sampled_from(["target_first", "target_last", "middle_target"]),
       st.integers(0, 2**32 - 1), st.data())
def test_views_give_the_bits_of_standardized_copies(d, n, width, layout, seed, data):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, d) + rng.uniform(-50.0, 50.0, d)
    constant = data.draw(st.lists(st.integers(0, d - 1), max_size=d - 1, unique=True))
    # integers, so every sum of a constant column is exact and its std is 0
    features[:, constant] = rng.integers(-5, 6, len(constant))
    ds = laid_out(features, rng.normal(3.0, 2.0, n), layout)
    order = rng.permutation(n)
    n_fit = data.draw(st.integers(2, n - 2))
    fit, calib = np.sort(order[:n_fit]), np.sort(order[n_fit:])
    # chunks of `width` columns, the last one wider rather than one column
    with mock.patch.object(datasets, "_CHUNK_COLUMNS", width):
        tf, caught = warnings_of(fit_standardization, ds, fit)
        (copy, copy_tf), copy_caught = warnings_of(standardize, ds.subset(fit))
        (_, whole_tf), _ = warnings_of(standardize, ds)
    dropped = [f"x{i}" for i in sorted(constant)]
    assert caught == copy_caught == ([f"standardize: dropping constant feature columns {dropped}"]
                                     if constant else [])
    # the statistics: whole-array reductions over the fit rows, and over all rows
    for got, rows in ((tf, fit), (copy_tf, fit), (whole_tf, slice(None))):
        *_, mean, std, t_mean, t_std, kept = reference_standardize(ds.features[rows], ds.targets[rows])
        assert_same_bits(got.feature_mean, mean)
        assert_same_bits(got.feature_std, std)
        assert (got.target_mean, got.target_std) == (t_mean, t_std)
        assert np.array_equal(got.kept_columns, kept)
    # the fit rows' view, in any batch, and the holdout calibration rows' view
    view = standardized_view(ds, fit, tf)
    assert len(view) == n_fit and view.n_features == d - len(constant)
    assert view.feature_names == copy.feature_names
    assert_same_bits(view.targets, copy.targets)
    batch = rng.permutation(n_fit)[: data.draw(st.integers(1, n_fit))]
    for rows in (slice(None), batch, slice(n_fit // 3, n_fit)):
        assert_same_bits(view.features[rows], copy.features[rows])
    z, t = tf.apply(ds.features[calib], ds.targets[calib])
    calib_view = standardized_view(ds, calib, tf)
    assert_same_bits(calib_view.features[:], z)
    assert_same_bits(calib_view.targets, t)
    # ensemble_train's FGSM step, read a row block at a time from the view
    with mock.patch.object(models, "train", lambda dataset, cfg, adv_eps: adv_eps):
        (adv_eps,) = models.ensemble_train(view, models.TrainConfig(lam=0.0),
                                           models.EnsembleConfig(size=1))
    assert_same_bits(adv_eps, 0.01 * (copy.features.max(axis=0) - copy.features.min(axis=0)))


def test_column_chunks_are_two_columns_or_more():
    # an (n, 1) chunk of a wider table reduces pairwise and changes the bits
    for width in range(2, 10):
        with mock.patch.object(datasets, "_CHUNK_COLUMNS", width):
            for d in range(1, 40):
                edges = [c.start for c in datasets._column_chunks(d)] + [d]
                assert edges[0] == 0
                assert all(min(2, d) <= b - a <= width + 1 for a, b in zip(edges, edges[1:]))
    assert datasets._column_chunks(10) == [slice(0, 8), slice(8, 10)]
    assert datasets._column_chunks(9) == [slice(0, 9)]


def test_standardize_rejects_constant_target():
    ds = Dataset(np.arange(6.0)[:, None], np.ones(6))
    with pytest.raises(ValueError, match="target is constant"):
        standardize(ds)


def test_inverse_predictions_rescales_sigma():
    from quantcal.gaussian import GaussianPrediction

    ds = Dataset(np.arange(8.0)[:, None], np.arange(8.0) * 10.0)
    _, tf = standardize(ds)
    pred = GaussianPrediction(np.zeros(3), np.ones(3))
    raw = tf.inverse_predictions(pred)
    assert np.allclose(raw.mu, tf.target_mean)
    assert np.allclose(raw.sigma, tf.target_std)


def test_split_spec_validation():
    with pytest.raises(ValueError, match="n_splits"):
        SplitSpec(n_splits=0)
    with pytest.raises(ValueError, match="test_fraction"):
        SplitSpec(test_fraction=1.0)


def test_make_splits_shapes_and_determinism():
    splits = make_splits(100, SplitSpec(n_splits=5, test_fraction=0.2, seed=3))
    assert len(splits) == 5
    for train_idx, test_idx in splits:
        assert len(test_idx) == 20 and len(train_idx) == 80
        assert np.array_equal(np.sort(np.concatenate([train_idx, test_idx])), np.arange(100))
        assert np.all(np.diff(train_idx) > 0)
    again = make_splits(100, SplitSpec(n_splits=5, test_fraction=0.2, seed=3))
    for (a, b), (c, d) in zip(splits, again):
        assert np.array_equal(a, c) and np.array_equal(b, d)
    assert not np.array_equal(splits[0][1], splits[1][1])


def test_make_splits_bounds():
    with pytest.raises(ValueError, match="at least 5"):
        make_splits(4)
    splits = make_splits(5, SplitSpec(n_splits=1, test_fraction=0.01))
    assert len(splits[0][1]) == 1  # clamped to one test row


def test_synth_hetero_matches_truth():
    ds = synth_hetero(500, seed=9)
    assert ds.features.shape == (500, 1)
    truth = synth_hetero_truth(ds.features)
    x = ds.features[:, 0]
    assert np.allclose(truth.mu, np.sin(2 * x))
    assert np.allclose(truth.sigma, 0.1 + 0.4 * np.abs(x))
    again = synth_hetero(500, seed=9)
    assert np.array_equal(ds.targets, again.targets)
    assert not np.array_equal(ds.targets, synth_hetero(500, seed=10).targets)
    # standardized residuals should look like unit noise
    z = (ds.targets - truth.mu) / truth.sigma
    assert abs(z.std() - 1.0) < 0.1


def test_descriptors_ship_with_package():
    names = descriptor_names()
    assert "boston" in names and "yacht" in names and "airfoil" in names
    assert len(names) == 10
    desc = load_descriptor("boston")
    assert desc["expected_rows"] == 506
    assert desc["filename"].endswith(".csv")
    assert "source" in desc
    with pytest.raises(KeyError, match="unknown dataset"):
        load_descriptor("nope")


def test_load_from_descriptor_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="boston.csv"):
        load_from_descriptor("boston", data_dir=tmp_path)


def test_load_from_descriptor_checks_shape(tmp_path):
    desc = {
        "name": "tiny",
        "filename": "tiny.csv",
        "source": "nowhere",
        "target_column": -1,
        "has_header": False,
        "expected_rows": 3,
        "expected_features": 1,
    }
    write_csv(tmp_path / "tiny.csv", "1,2\n3,4\n")
    with pytest.raises(ValueError, match="expected 3 rows"):
        load_from_descriptor(desc, data_dir=tmp_path)
    desc["expected_rows"] = 2
    ds = load_from_descriptor(desc, data_dir=tmp_path)
    assert len(ds) == 2
    desc["expected_features"] = 4
    with pytest.warns(UserWarning, match="4 features"):
        load_from_descriptor(desc, data_dir=tmp_path)


@pytest.mark.parametrize("name, columns, features", [("year_msd", 91, 90), ("protein", 11, 10)])
def test_descriptor_features_match_their_csv_layout_without_a_warning(
    tmp_path, name, columns, features
):
    # UCI's YearPredictionMSD is the year and 90 attributes; the protein CSV
    # the benchmark writes is 10 features and the target
    desc = {**load_descriptor(name), "expected_rows": 3}
    table = np.random.default_rng(columns).normal(size=(3, columns))
    write_csv(tmp_path / desc["filename"],
              "".join(",".join(map(str, row.tolist())) + "\n" for row in table))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_from_descriptor(desc, data_dir=tmp_path)
    assert ds.n_features == desc["expected_features"] == features


def test_load_descriptor_from_path(tmp_path):
    desc_path = tmp_path / "custom.json"
    desc_path.write_text(json.dumps({"name": "c", "filename": "c.csv", "source": "x"}))
    desc = load_descriptor(str(desc_path))
    assert desc["name"] == "c"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "must be a JSON object, got list"),
        ('{"name": "c", "source": "x"}', "no 'filename' field"),
        ('{"name": "c", "filename": "c.csv"}', "no 'source' field"),
        ('{"name": "c", "filename": 3, "source": "x"}', "'filename' must be str, got 3"),
        ('{"name": "c", "filename": "c.csv", "source": "x", "has_header": 1}', "'has_header' must be bool"),
        ('{"name": "c", "filename": "c.csv", "source": "x", "expected_rows": true}',
         "'expected_rows' must be int or null"),
        ('{"name": "c", "filename": "c.csv", "source": "x", "target_column": 1.5}',
         "'target_column' must be int or str"),
        ('{"name": "c", "filename": "c.csv", "source": "x", "delimiter": ",,"}', "one character"),
        ('{"name": "c", "filename": "c.csv", "source": "x", "delimiter": "\\""}', "one character"),
        ('{"name": "c"', "Expecting"),
    ],
)
def test_malformed_descriptor_names_its_file(tmp_path, text, message):
    desc_path = tmp_path / "custom.json"
    desc_path.write_text(text)
    for load in (load_descriptor, load_from_descriptor):
        with pytest.raises(ValueError, match=message) as info:
            load(str(desc_path))
        assert str(desc_path) in str(info.value)
    if message != "Expecting":  # the same object, given to the loader directly
        with pytest.raises(ValueError, match=message):
            load_from_descriptor(json.loads(text), data_dir=tmp_path)


def test_descriptor_rows_match_known_catalog():
    catalog = {
        "airfoil": 1503,
        "boston": 506,
        "concrete": 1030,
        "fish_toxicity": 908,
        "kin8nm": 8192,
        "protein": 45730,
        "wine_red": 1599,
        "wine_white": 4898,
        "yacht": 308,
        "year_msd": 515345,
    }
    for name, rows in catalog.items():
        assert load_descriptor(name)["expected_rows"] == rows
