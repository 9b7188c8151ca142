import csv
import warnings

import numpy as np
import pytest

from nlvar.errors import (
    BadDataError,
    BadRangeError,
    ConstantSeriesError,
    DimensionMismatchError,
    SeriesTooShortError,
)
from nlvar.series import (
    MultivariateSeries,
    NormStats,
    SupervisedSet,
    lag_columns,
    lag_embed,
    read_csv,
    standardize_apply,
    standardize_fit,
    write_csv,
)


def _series(values, names=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    names = names or [f"s{j}" for j in range(values.shape[1])]
    return MultivariateSeries(values=values, names=names)


def test_fit_two_point_column():
    stats = standardize_fit(_series([-1.0, 1.0]), train_len=2)
    assert stats.mean[0] == pytest.approx(0.0, abs=1e-15)
    assert stats.std[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_fit_is_idempotent_on_standardized_window():
    rng = np.random.default_rng(7)
    raw = _series(rng.standard_normal((200, 3)))
    stats = standardize_fit(raw, 150)
    std = standardize_apply(raw, stats, "forward")
    stats2 = standardize_fit(std, 150)
    np.testing.assert_allclose(stats2.mean, 0.0, atol=1e-12)
    np.testing.assert_allclose(stats2.std, 1.0, rtol=1e-12)


def test_fit_rejects_constant_column():
    with pytest.raises(ConstantSeriesError):
        standardize_fit(_series([5.0, 5.0, 5.0]), 3)


def test_fit_rejects_values_that_overflow_the_mean_or_std():
    # finite values around 1e200 square to inf in the std: no std of inf,
    # no all-zero standardized series and no numpy warning
    rng = np.random.default_rng(3)
    values = rng.standard_normal((40, 2))
    values[:, 1] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadDataError, match=r"\['s1'\] overflow"):
            standardize_fit(_series(values), 40)


def test_fit_rejects_bad_window():
    s = _series([1.0, 2.0, 3.0])
    with pytest.raises(BadRangeError):
        standardize_fit(s, 1)
    with pytest.raises(BadRangeError):
        standardize_fit(s, 4)


def test_apply_round_trip():
    rng = np.random.default_rng(11)
    raw = _series(100.0 * rng.standard_normal((50, 4)) + 3.0)
    stats = standardize_fit(raw, 50)
    back = standardize_apply(standardize_apply(raw, stats, "forward"), stats, "inverse")
    np.testing.assert_allclose(back.values, raw.values, atol=1e-12)


def test_apply_maps_mean_to_zero_and_mean_plus_std_to_one():
    stats = NormStats(mean=np.array([2.0, -1.0]), std=np.array([3.0, 0.5]))
    row = _series([[2.0, -1.0], [5.0, -0.5]], names=["a", "b"])
    fwd = standardize_apply(row, stats, "forward")
    np.testing.assert_allclose(fwd.values[0], [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(fwd.values[1], [1.0, 1.0], rtol=1e-15)


def test_apply_checks_dimensions():
    stats = NormStats(mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(DimensionMismatchError):
        standardize_apply(_series(np.ones((4, 2))), stats, "forward")


def test_embed_univariate():
    sup = lag_embed(_series([1, 2, 3, 4, 5, 6, 7]), p=5)
    assert sup.n_pairs == 2
    np.testing.assert_array_equal(sup.inputs[0], [5, 4, 3, 2, 1])
    assert sup.outputs[0, 0] == 6.0
    np.testing.assert_array_equal(sup.inputs[1], [6, 5, 4, 3, 2])
    assert sup.outputs[1, 0] == 7.0


def test_embed_bivariate_with_partition_map():
    s = MultivariateSeries(values=np.array([[1, 4], [2, 5], [3, 6]], dtype=float),
                           names=["a", "b"])
    sup = lag_embed(s, p=2)
    assert sup.n_pairs == 1
    np.testing.assert_array_equal(sup.inputs[0], [2, 1, 5, 4])
    np.testing.assert_array_equal(sup.outputs[0], [3, 6])
    assert sup.partition_map == [[0, 1], [2, 3]]


def test_embed_rejects_short_series():
    with pytest.raises(SeriesTooShortError):
        lag_embed(_series([1, 2, 3]), p=3)


@pytest.mark.parametrize("n_total,m,p", [(10, 1, 3), (25, 4, 5), (6, 2, 5)])
def test_embed_pair_count(n_total, m, p):
    rng = np.random.default_rng(n_total + m + p)
    sup = lag_embed(_series(rng.standard_normal((n_total, m))), p)
    assert sup.n_pairs == n_total - p


def test_partition_map_covers_all_columns_and_values():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((30, 3))
    sup = lag_embed(_series(values), p=4)
    all_cols = sorted(c for cols in sup.partition_map for c in cols)
    assert all_cols == list(range(3 * 4))
    # each partition slice holds the series' own past, most recent first
    for t in range(sup.n_pairs):
        for j, cols in enumerate(sup.partition_map):
            np.testing.assert_array_equal(
                sup.inputs[t, cols], values[t : t + 4, j][::-1]
            )


def test_subset_keeps_structure():
    rng = np.random.default_rng(5)
    sup = lag_embed(_series(rng.standard_normal((20, 2))), p=3)
    sub = sup.subset(np.arange(4, 9))
    assert sub.n_pairs == 5
    assert sub.partition_map == sup.partition_map
    np.testing.assert_array_equal(sub.outputs, sup.outputs[4:9])


def test_partition_map_is_derived_from_the_output_width_and_lag():
    rng = np.random.default_rng(6)
    sup = SupervisedSet(inputs=rng.standard_normal((4, 6)), outputs=rng.standard_normal((4, 3)),
                        lag=2)
    assert sup.n_series == 3
    assert sup.partition_map == lag_columns(3, 2)
    with pytest.raises(DimensionMismatchError):
        SupervisedSet(inputs=rng.standard_normal((4, 5)), outputs=rng.standard_normal((4, 3)),
                      lag=2)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    series = _series(rng.standard_normal((12, 3)), names=["x", "y", "z"])
    path = tmp_path / "data.csv"
    write_csv(series, path)
    loaded = read_csv(path)
    assert loaded.names == ["x", "y", "z"]
    np.testing.assert_array_equal(loaded.values, series.values)


def test_csv_writes_each_value_as_its_repr_and_reads_it_back_exactly(tmp_path):
    rng = np.random.default_rng(10)
    values = np.vstack([[-0.0, 1e-300, 1e300, 3.0, -7.0],
                        [0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0, 2.0**52],
                        rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))])
    series = _series(values)
    path = tmp_path / "data.csv"
    write_csv(series, path)
    # the per-value writer the file must stay byte-identical to
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(series.names)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])
    assert path.read_bytes() == reference.read_bytes()
    loaded = read_csv(path).values
    assert np.array_equal(loaded, values)
    assert np.array_equal(np.signbit(loaded), np.signbit(values))  # -0.0 stays negative


def test_undoing_the_standardization_rejects_a_forecast_that_overflows():
    stats = NormStats(mean=np.array([0.5, -0.5]), std=np.array([4.0, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadDataError, match="forecast overflows in original units"):
            standardize_apply(_series([[1.7e308, 1.0]]), stats, "inverse")
        with pytest.raises(BadDataError, match="overflows when standardized"):
            standardize_apply(_series([[1.0, 1.7e308]]), stats, "forward")


def test_csv_rejects_missing_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,\n")
    with pytest.raises(ValueError, match="missing or non-numeric"):
        read_csv(path)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="expected 2 values"):
        read_csv(path)


def test_series_validation():
    with pytest.raises(DimensionMismatchError):
        MultivariateSeries(values=np.ones((3, 2)), names=["only_one"])
    with pytest.raises(ValueError):
        MultivariateSeries(values=np.array([[1.0], [np.nan]]), names=["a"])


def test_series_names_are_one_string_per_column():
    # a name that was not a string was written into the CSV header as its repr
    for names in ("ab", ["a", 1], ["a", None], [["a"], "b"]):
        with pytest.raises(BadDataError, match="names must be a list of strings"):
            MultivariateSeries(values=np.ones((3, 2)), names=names)
    with pytest.raises(DimensionMismatchError):
        MultivariateSeries(values=np.ones((3, 2)), names=("a", "b", "c"))
    assert MultivariateSeries(values=np.ones((3, 2)), names=("a", "b")).names == ("a", "b")
