import csv
import json
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootband.errors import (
    CsvFormatError,
    DuplicateDateError,
    MissingColumnError,
    NonPositivePriceError,
    ValidationError,
)
from bootband.timeseries import (
    LogReturnSeries,
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


def make_series(values):
    return PriceSeries(
        timestamps=tuple(date.fromordinal(737000 + k) for k in range(len(values))),
        values=np.asarray(values, dtype=np.float64),
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


class TestLogReturns:
    def test_constant_prices_zero_returns(self):
        r = to_log_returns(np.array([100.0, 100.0, 100.0]))
        assert list(r.values) == [0.0, 0.0]
        assert r.anchor_price == 100.0

    def test_single_return_value(self):
        # ln(110/100), evaluated independently
        r = to_log_returns(np.array([100.0, 110.0]))
        assert r.values[0] == pytest.approx(0.09531017980432486, abs=1e-15)
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
        back = from_log_returns(to_log_returns(p))
        assert np.allclose(back, p, rtol=1e-9, atol=0)

    def test_from_zero_returns(self):
        out = from_log_returns(LogReturnSeries(values=np.zeros(2), anchor_price=50.0))
        assert list(out) == [50.0, 50.0, 50.0]

    def test_from_log2(self):
        out = from_log_returns(np.array([math.log(2)]), anchor_price=1.0)
        assert out == pytest.approx([1.0, 2.0], abs=1e-15)

    def test_bare_array_needs_anchor(self):
        with pytest.raises(ValidationError):
            from_log_returns(np.zeros(3))

    def test_lengthens_by_one(self):
        assert len(from_log_returns(np.zeros(5), anchor_price=1.0)) == 6

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_bootstrapped_returns_give_positive_prices(self, seed):
        from bootband.bootstrap import BlockPlan, mbb_resample

        r = to_log_returns(np.linspace(50, 150, 40))
        plan = BlockPlan(method="mbb", block_len=4, seed=seed)
        pseudo = mbb_resample(r.values, plan)
        path = from_log_returns(pseudo.values, r.anchor_price)
        assert np.all(path > 0)
        assert path[0] == r.anchor_price


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


class TestInvariantsAndExport:
    def test_strictly_increasing_dates_required(self):
        with pytest.raises(ValidationError):
            PriceSeries(
                timestamps=(date(2020, 1, 2), date(2020, 1, 1)),
                values=np.array([1.0, 2.0]),
            )

    def test_csv_json_round_trip(self, tmp_path):
        p = make_series([100.5, 101.25, 99.875])
        p.to_csv(tmp_path / "out.csv")
        with open(tmp_path / "out.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == list(p.values)
        doc = json.loads(p.to_json())
        assert doc["values"] == list(p.values)
        assert doc["dates"][0] == p.timestamps[0].isoformat()
