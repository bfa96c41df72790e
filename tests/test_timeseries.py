import csv
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bootband.errors import (
    CsvFormatError,
    DuplicateDateError,
    MissingColumnError,
    NonPositivePriceError,
    ValidationError,
)
from bootband.timeseries import (
    PriceSeries,
    from_log_returns,
    load_csv,
    to_log_returns,
    window_minmax_scale,
)

positive_prices = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=200,
)


def write_csv(path, rows, header=("Date", "Open", "Close")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


class TestLoadCsv:
    def test_three_row_parse(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            ["2020-01-01", "1", "100"],
            ["2020-01-02", "1", "101"],
            ["2020-01-03", "1", "102"],
        ])
        series = load_csv(p, "Close")
        assert list(series.values) == [100.0, 101.0, 102.0]
        assert series.timestamps[0] == date(2020, 1, 1)
        assert series.name == "Close"

    def test_zero_price_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            ["2020-01-01", "1", "100"],
            ["2020-01-02", "1", "0"],
        ])
        with pytest.raises(NonPositivePriceError):
            load_csv(p, "Close")

    def test_shuffled_dates_sorted(self, tmp_path):
        rows = [
            ["2020-01-03", "1", "102"],
            ["2020-01-01", "1", "100"],
            ["2020-01-02", "1", "101"],
        ]
        p = write_csv(tmp_path / "a.csv", rows)
        series = load_csv(p, "Close")
        # oracle: sort the (date, value) pairs independently
        expected = [float(v) for _, _, v in sorted(rows, key=lambda r: r[0])]
        assert list(series.values) == expected

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "Close")

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [["2020-01-01", "1", "100"], ["2020-01-02", "1", "101"]])
        with pytest.raises(MissingColumnError):
            load_csv(p, "AdjClose")

    def test_duplicate_date(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            ["2020-01-01", "1", "100"],
            ["2020-01-01", "1", "101"],
            ["2020-01-02", "1", "102"],
        ])
        with pytest.raises(DuplicateDateError):
            load_csv(p, "Close")

    def test_missing_value_rows_dropped(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [
            ["2020-01-01", "1", "100"],
            ["2020-01-02", "1", ""],
            ["2020-01-03", "1", "102"],
        ])
        series = load_csv(p, "Close")
        assert list(series.values) == [100.0, 102.0]

    def test_bad_date(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [["01/02/2020", "1", "100"], ["2020-01-02", "1", "101"]])
        with pytest.raises(CsvFormatError):
            load_csv(p, "Close")

    def test_non_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [["2020-01-01", "1", "abc"], ["2020-01-02", "1", "101"]])
        with pytest.raises(CsvFormatError):
            load_csv(p, "Close")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400"])
    def test_infinite_cell_rejected_with_line(self, tmp_path, cell):
        p = write_csv(tmp_path / "a.csv", [
            ["2020-01-01", "1", "100"],
            ["2020-01-02", "1", cell],
            ["2020-01-03", "1", "102"],
        ])
        with pytest.raises(CsvFormatError, match=r"a\.csv:3: non-finite"):
            load_csv(p, "Close")


class TestLogReturns:
    def test_constant_prices_zero_returns(self):
        r = to_log_returns(np.array([100.0, 100.0, 100.0]))
        assert list(r) == [0.0, 0.0]

    def test_single_return_value(self):
        # ln(110/100), evaluated independently
        r = to_log_returns(np.array([100.0, 110.0]))
        assert r[0] == pytest.approx(0.09531017980432486, abs=1e-15)
        assert len(r) == 1

    def test_length_shrinks_by_one(self):
        p = np.array([100.0, 101.0, 103.0, 99.0])
        assert len(to_log_returns(p)) == len(p) - 1

    def test_too_short(self):
        with pytest.raises((ValidationError, NonPositivePriceError)):
            PriceSeries(timestamps=(date(2020, 1, 1),), values=np.array([100.0]))

    @given(positive_prices)
    @settings(max_examples=100)
    def test_round_trip(self, values):
        p = np.asarray(values, dtype=np.float64)
        back = from_log_returns(to_log_returns(p), p[0])
        assert np.allclose(back, p, rtol=1e-9, atol=0)

    def test_from_zero_returns(self):
        out = from_log_returns(np.zeros(2), anchor_price=50.0)
        assert list(out) == [50.0, 50.0, 50.0]

    def test_from_log2(self):
        out = from_log_returns(np.array([math.log(2)]), anchor_price=1.0)
        assert out == pytest.approx([1.0, 2.0], abs=1e-15)

    def test_lengthens_by_one(self):
        assert len(from_log_returns(np.zeros(5), anchor_price=1.0)) == 6

    def test_matrix_equals_stacked_rows(self):
        # one call on a (k, n) matrix gives every row's path bit for bit
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((12,))))
        for k, n in ((1, 1), (3, 17), (40, 257)):
            returns = 0.02 * rng.standard_normal((k, n))
            anchor = float(rng.uniform(10, 500))
            paths = from_log_returns(returns, anchor)
            stacked = np.stack([from_log_returns(row, anchor) for row in returns])
            assert paths.shape == (k, n + 1)
            assert np.array_equal(paths, stacked)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_bootstrapped_returns_give_positive_prices(self, seed):
        from bootband.bootstrap import BlockPlan, batch_resample

        prices = np.linspace(50, 150, 40)
        plan = BlockPlan(method="mbb", block_len=4, seed=seed)
        pseudo, _ = batch_resample(to_log_returns(prices), plan, 3)
        paths = from_log_returns(pseudo, prices[0])
        assert np.all(paths > 0)
        assert np.all(paths[:, 0] == prices[0])


class TestWindowScale:
    def test_two_point_window(self):
        scaled, _ = window_minmax_scale([2, 4], 2)
        assert list(scaled) == [0.0, 1.0]

    def test_degenerate_segment_maps_to_zero(self):
        scaled, scale = window_minmax_scale([5, 5, 5], 3)
        assert list(scaled) == [0.0, 0.0, 0.0]
        back = scale.denormalize(scaled, np.arange(3))
        assert list(back) == [5.0, 5.0, 5.0]

    def test_two_segments_by_hand(self):
        # segment [1,2] -> [0,1]; segment [3,4] -> [0,1]
        scaled, _ = window_minmax_scale([1, 2, 3, 4], 2)
        assert list(scaled) == [0.0, 1.0, 0.0, 1.0]

    def test_short_last_segment(self):
        scaled, scale = window_minmax_scale([0, 10, 4], 2)
        assert list(scaled) == [0.0, 1.0, 0.0]
        assert scale.mins[1] == scale.maxs[1] == 4.0

    def test_bad_window(self):
        with pytest.raises(ValidationError):
            window_minmax_scale([1, 2], 0)

    def test_fractional_position_rejected(self):
        scaled, scale = window_minmax_scale(np.arange(10.0), 4)
        with pytest.raises(ValidationError, match="positions must be integers"):
            scale.denormalize(scaled[:1], [6.9])

    @given(
        st.lists(st.floats(-1e8, 1e8, allow_nan=False), min_size=1, max_size=80),
        st.integers(1, 30),
    )
    @settings(max_examples=150)
    def test_bounds_and_denormalization(self, values, window_len):
        x = np.asarray(values)
        scaled, scale = window_minmax_scale(x, window_len)
        assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)
        back = scale.denormalize(scaled, np.arange(len(x)))
        seg_ranges = scale.maxs - scale.mins
        nondegenerate = seg_ranges[np.arange(len(x)) // window_len] > 0
        scale_floor = max(1.0, np.abs(x).max())
        assert np.allclose(back[nondegenerate], x[nondegenerate], rtol=0, atol=1e-12 * scale_floor)
        # degenerate segments denormalize to the recorded constant
        assert np.array_equal(back[~nondegenerate], x[~nondegenerate])

    @given(
        st.lists(st.floats(1.0, 1e3, allow_nan=False), min_size=2, max_size=60),
        st.integers(1, 20),
    )
    @settings(max_examples=100)
    def test_denormalization_price_scale(self, values, window_len):
        # at price magnitudes the recovery is within 1e-12 absolute
        x = np.asarray(values)
        scaled, scale = window_minmax_scale(x, window_len)
        back = scale.denormalize(scaled, np.arange(len(x)))
        assert np.all(np.abs(back - x) <= 1e-12)


scale_values = st.floats(-1e8, 1e8, allow_nan=False)
# 1 to 5 rows of one length, some of them constant
scale_matrices = st.integers(1, 40).flatmap(lambda n: st.lists(
    st.one_of(st.lists(scale_values, min_size=n, max_size=n), scale_values.map(lambda v: [v] * n)),
    min_size=1,
    max_size=5,
))


class TestWindowScaleMatrix:
    @given(scale_matrices, st.integers(1, 50))
    @example([[1.0, 5.0, 2.0, 4.0, 3.0], [7.0] * 5], 2)   # a constant row, a short last segment
    @example([[3.0, 1.0, 2.0], [2.0, 2.0, 2.0]], 8)       # a window longer than the series
    @settings(max_examples=150)
    def test_matrix_equals_row_by_row(self, rows, window_len):
        x = np.array(rows)
        scaled, scale = window_minmax_scale(x, window_len)
        positions = np.arange(x.shape[1])
        back = scale.denormalize(scaled, positions)
        assert scaled.shape == back.shape == x.shape
        assert scale.mins.shape == scale.maxs.shape == (len(x), -(-x.shape[1] // window_len))
        for k, row in enumerate(x):
            row_scaled, row_scale = window_minmax_scale(row, window_len)
            assert scaled[k].tobytes() == row_scaled.tobytes()
            assert scale.mins[k].tobytes() == row_scale.mins.tobytes()
            assert scale.maxs[k].tobytes() == row_scale.maxs.tobytes()
            assert back[k].tobytes() == row_scale.denormalize(row_scaled, positions).tobytes()


class TestInvariantsAndExport:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_price_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            PriceSeries(
                timestamps=(date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 3)),
                values=np.array([100.0, bad, 101.0]),
            )

    def test_strictly_increasing_dates_required(self):
        with pytest.raises(ValidationError):
            PriceSeries(
                timestamps=(date(2020, 1, 2), date(2020, 1, 1)),
                values=np.array([1.0, 2.0]),
            )
