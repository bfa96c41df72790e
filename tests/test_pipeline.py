import concurrent.futures.process
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bootband.pipeline as pl
from bootband._rng import derive_seed
from bootband.blocklen import SelectorConfig, select_block_length
from bootband.bootstrap import BlockPlan, BootstrapMethod
from bootband.errors import PipelineError, ReplicateFailureError, ValidationError
from bootband.lstm import TrainConfig, fit
from bootband.pipeline import (
    ConfidenceBand,
    PipelineConfig,
    compare_methods,
    percentile_band,
    run,
)
from bootband.timeseries import PriceSeries
from conftest import gbm_prices


def brute_force_quantile(column, q):
    """Sort-and-interpolate oracle, written independently of the library."""
    values = sorted(float(v) for v in column)
    h = (len(values) - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (h - lo) * (values[hi] - values[lo])


def small_train(**train_kw):
    defaults = dict(lookback=4, batch_size=10, epochs=2, hidden_size=4, dropout_rate=0.2,
                    seed=101)
    return TrainConfig(**{**defaults, **train_kw})


def cap_group_rows(monkeypatch, rows):
    """Cap lockstep groups at ``rows`` rows at the small_train shape (batch 10, hidden 4)."""
    monkeypatch.setattr(pl, "GROUP_ELEMENTS", rows * 10 * 4 * 4)


def task_replicates(args, reps):
    """The replicate ids of a group task's rows, read from its seeds (small_train's seed)."""
    ids = {derive_seed(small_train().seed, m): m for m in range(reps)}
    return [ids[seed] for seed in args[1]]


def small_cfg(train_len, method="mbb", reps=4, seed=11, **train_kw):
    return PipelineConfig(
        train_len=train_len,
        reps=reps,
        alpha=0.05,
        selector=SelectorConfig(method=BootstrapMethod(method), reps=8, l_max=6, seed=77),
        train=small_train(**train_kw),
        seed=seed,
        scale_window=40,
    )


def price_series(values, start=date(2021, 1, 1)):
    return PriceSeries(
        timestamps=tuple(start + timedelta(days=k) for k in range(len(values))),
        values=np.asarray(values, dtype=np.float64),
    )


class TestPercentileBand:
    def test_constant_column(self):
        samples = np.full((6, 3), 2.5)
        lower, median, upper = percentile_band(samples, 0.05)
        assert np.array_equal(lower, [2.5] * 3)
        assert np.array_equal(median, [2.5] * 3)
        assert np.array_equal(upper, [2.5] * 3)

    def test_one_to_hundred(self):
        # h = 99 * 0.025 = 2.475 -> between order stats 3 and 4 -> 3.475
        col = np.arange(1.0, 101.0).reshape(100, 1)
        lower, median, upper = percentile_band(col, 0.05)
        assert lower[0] == pytest.approx(3.475, abs=1e-12)
        assert median[0] == pytest.approx(50.5, abs=1e-12)
        assert upper[0] == pytest.approx(97.525, abs=1e-12)
        # against the brute-force oracle, exactly
        assert lower[0] == brute_force_quantile(col[:, 0], 0.025)
        assert upper[0] == brute_force_quantile(col[:, 0], 0.975)

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5,))))
        samples = rng.random((37, 9)) * 100
        lower, median, upper = percentile_band(samples, 0.1)
        for j in range(9):
            assert lower[j] == brute_force_quantile(samples[:, j], 0.05)
            assert median[j] == brute_force_quantile(samples[:, j], 0.5)
            assert upper[j] == brute_force_quantile(samples[:, j], 0.95)

    @given(st.floats(0.01, 0.5), st.floats(0.01, 0.5))
    @settings(max_examples=50)
    def test_monotone_in_alpha(self, a1, a2):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((9,))))
        samples = rng.random((25, 4))
        lo1, _, up1 = percentile_band(samples, min(a1, a2))
        lo2, _, up2 = percentile_band(samples, max(a1, a2))
        # smaller alpha -> wider band, pointwise
        assert np.all(lo1 <= lo2 + 1e-15) and np.all(up1 >= up2 - 1e-15)

    def test_sandwich_within_extremes(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((13,))))
        samples = rng.standard_normal((12, 6))
        lower, median, upper = percentile_band(samples, 0.05)
        assert np.all(lower >= samples.min(axis=0)) and np.all(upper <= samples.max(axis=0))
        assert np.all(lower <= median) and np.all(median <= upper)

    def test_validation(self):
        with pytest.raises(ValidationError):
            percentile_band(np.ones((1, 3)), 0.05)
        with pytest.raises(ValidationError):
            percentile_band(np.array([[1.0, np.nan], [2.0, 3.0]]), 0.05)
        with pytest.raises(ValidationError):
            percentile_band(np.ones((3, 2)), 1.5)


class TestComparingFactor:
    def make_band(self, lower, upper):
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        mid = (lower + upper) / 2
        return ConfidenceBand(
            timestamps=tuple(date(2021, 1, 1) + timedelta(days=k) for k in range(len(lower))),
            lower=lower, point=mid, upper=upper,
            method=BootstrapMethod.MBB, block_len=2, reps=2,
        )

    def test_zero_width(self):
        band = self.make_band([1.0, 2.0], [1.0, 2.0])
        assert band.comparing_factor == 0.0

    def test_direct_sum(self):
        band = self.make_band([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        assert band.comparing_factor == 6.0

    def test_identical_replicates_zero_width(self):
        # degenerate prediction matrix: both rows equal -> zero-width band
        preds = np.tile(np.linspace(10, 12, 5), (2, 1))
        lower, median, upper = percentile_band(preds, 0.05)
        band = self.make_band(lower, upper)
        assert band.comparing_factor == 0.0
        assert np.array_equal(lower, median)

    def test_band_ordering_enforced(self):
        with pytest.raises(ValidationError):
            ConfidenceBand(
                timestamps=(date(2021, 1, 1),),
                lower=np.array([2.0]), point=np.array([1.0]), upper=np.array([3.0]),
                method=BootstrapMethod.MBB, block_len=1, reps=2,
            )


class SerialPool:
    """Stands in for ProcessPoolExecutor: maps in process, counts the pools opened
    and records the workers the last one asked for."""

    opened = 0
    max_workers = None

    def __init__(self, max_workers):
        SerialPool.opened += 1
        SerialPool.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


METHODS = (BootstrapMethod.NBB, BootstrapMethod.MBB, BootstrapMethod.LBB)


def with_method(cfg, method):
    return replace(cfg, selector=replace(cfg.selector, method=method))


class TestRun:
    def test_smoke_band_is_ordered_and_deterministic(self):
        prices = price_series(gbm_prices(120, seed=3))
        cfg = small_cfg(80)
        result = run(prices, cfg)
        band = result.band
        assert len(band.lower) == 40
        assert np.all(band.lower <= band.point) and np.all(band.point <= band.upper)
        assert band.comparing_factor == pytest.approx(np.sum(band.upper - band.lower), abs=0)
        assert 0.0 <= result.coverage <= 1.0
        assert result.predictions.shape == (4, 40)
        assert band.timestamps == prices.timestamps[80:]
        # bit-reproducible
        again = run(prices, cfg)
        assert np.array_equal(result.band.lower, again.band.lower)
        assert np.array_equal(result.predictions, again.predictions)

    def test_jobs_do_not_change_results(self):
        prices = price_series(gbm_prices(100, seed=6))
        cfg = small_cfg(70, reps=3)
        seq = run(prices, cfg, jobs=1)
        par = run(prices, cfg, jobs=2)
        assert np.array_equal(seq.predictions, par.predictions)
        assert np.array_equal(seq.band.lower, par.band.lower)
        assert seq.band.comparing_factor == par.band.comparing_factor

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("group_size", [1, 3, 5])
    def test_group_size_does_not_change_predictions(self, monkeypatch, jobs, group_size):
        prices = price_series(gbm_prices(100, seed=6))
        cfg = small_cfg(70, reps=5)
        solo = run(prices, cfg, jobs=1)  # one group of 5
        cap_group_rows(monkeypatch, group_size)
        grouped = run(prices, cfg, jobs=jobs)
        assert grouped.predictions.tobytes() == solo.predictions.tobytes()
        assert grouped.replicate_ids == solo.replicate_ids == tuple(range(5))

    def test_groups_are_contiguous_and_cover_every_replicate(self, monkeypatch):
        prices = price_series(gbm_prices(100, seed=6))
        seen = []
        real_task = pl._group_task

        def recording(args):
            seen.append(tuple(task_replicates(args, 7)))
            return real_task(args)

        monkeypatch.setattr(pl, "_group_task", recording)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", SerialPool)
        cap_group_rows(monkeypatch, 3)
        run(prices, small_cfg(70, reps=7), jobs=1)
        assert seen == [(0, 1, 2), (3, 4), (5, 6)]
        # with a cap above ceil(reps / jobs), one group per job
        cap_group_rows(monkeypatch, 16)
        seen.clear()
        run(prices, small_cfg(70, reps=7), jobs=2)
        assert seen == [(0, 1, 2, 3), (4, 5, 6)]
        seen.clear()
        run(prices, small_cfg(70, reps=2), jobs=2)
        assert seen == [(0,), (1,)]

    def test_fits_skip_the_epoch_rmse_pass(self, monkeypatch):
        # the only inference pass of a group is its test-horizon prediction
        import bootband.lstm as lstm

        prices = price_series(gbm_prices(100, seed=6))
        real_infer, calls = lstm._infer, []

        def counting(theta, windows):
            calls.append(theta.shape[0])
            return real_infer(theta, windows)

        monkeypatch.setattr(lstm, "_infer", counting)
        cap_group_rows(monkeypatch, 3)
        run(prices, small_cfg(70, reps=7, epochs=3), jobs=1)
        assert calls == [3, 2, 2]

    def test_quantile_sandwich_against_replicates(self):
        prices = price_series(gbm_prices(110, seed=9))
        result = run(prices, small_cfg(75, reps=5))
        assert np.all(result.band.lower >= result.predictions.min(axis=0))
        assert np.all(result.band.upper <= result.predictions.max(axis=0))

    def test_train_len_must_leave_a_test_segment(self):
        prices = price_series(gbm_prices(100, seed=2))
        for train_len in (100, 101):
            with pytest.raises(ValidationError):
                run(prices, small_cfg(train_len))

    def test_training_shorter_than_lookback_rejected(self):
        # lookback 4: a training length of lookback + 1 or less is rejected
        prices = price_series(gbm_prices(50, seed=2))
        for train_len in (3, 5):
            with pytest.raises(ValidationError):
                run(prices, small_cfg(train_len))

    def test_resamples_with_the_selected_method(self, monkeypatch):
        # default selector and no method anywhere else: the block length is
        # selected for selector.method and the replicates are drawn with it
        prices = price_series(gbm_prices(90, seed=16))
        cfg = PipelineConfig(train_len=70, reps=2, train=small_train(), scale_window=40)
        drawn_with = []
        real_batch_resample = pl.batch_resample

        def recording(x, plan, count):
            drawn_with.append(plan.method)
            return real_batch_resample(x, plan, count)

        monkeypatch.setattr(pl, "batch_resample", recording)
        result = run(prices, cfg)
        assert drawn_with == [cfg.selector.method]
        assert result.band.method == cfg.selector.method == cfg.method
        returns = np.diff(np.log(prices.values[:70]))
        l_opt, curve = select_block_length(returns, cfg.selector)
        assert result.band.block_len == l_opt
        for name in ("lengths", "distances", "penalties", "objectives"):
            assert np.array_equal(getattr(result.curve, name), getattr(curve, name))

    def test_all_replicates_diverge_aborts(self):
        prices = price_series(gbm_prices(90, seed=5))
        cfg = small_cfg(60, reps=2, learning_rate=1e200)
        with pytest.raises(ReplicateFailureError) as err:
            run(prices, cfg)
        assert err.value.failed_indices == (0, 1)
        for idx, cause in err.value.failures.items():
            assert cause.startswith("non-finite loss at epoch 0, batch ")
            assert f"replicate {idx}: {cause}" in str(err.value)

    def test_allow_failures_drops_and_records(self, monkeypatch):
        prices = price_series(gbm_prices(100, seed=8))
        cfg = replace(small_cfg(70, reps=4), allow_failures=1)
        real_task = pl._group_task

        def flaky(args):
            preds, causes = real_task(args)
            return preds, ["forced divergence" if idx == 2 else cause
                           for idx, cause in zip(task_replicates(args, cfg.reps), causes)]

        monkeypatch.setattr(pl, "_group_task", flaky)
        result = run(prices, cfg)
        assert result.failed_ids == (2,)
        assert result.replicate_ids == (0, 1, 3)
        assert result.predictions.shape == (3, 30)
        assert result.band.reps == 3

    def test_non_finite_predictions_fail_their_replicate(self, monkeypatch):
        # replicate 2's forecasts overflow although its training loss stayed finite
        prices = price_series(gbm_prices(100, seed=8))
        cfg = small_cfg(70, reps=4)
        real_predict = pl.predict_series

        def overflowing(model, context, positions):
            preds = real_predict(model, context, positions)
            preds[2, 5] = np.inf
            return preds

        cap_group_rows(monkeypatch, 4)
        monkeypatch.setattr(pl, "predict_series", overflowing)
        with pytest.raises(ReplicateFailureError) as err:
            run(prices, cfg)
        assert err.value.failed_indices == (2,)
        assert err.value.failures == {2: "non-finite test prediction"}
        assert str(err.value).endswith("replicate 2: non-finite test prediction")
        result = run(prices, replace(cfg, allow_failures=1))
        assert result.failed_ids == (2,)
        assert result.replicate_ids == (0, 1, 3)
        assert np.all(np.isfinite(result.predictions))

    def test_one_replicate_diverging_leaves_the_others(self, monkeypatch):
        # a pseudo path blown up by 1e300 scales like any other, so blow up
        # the scaled series of replicate 1: row 1 of the group's scaled block,
        # the second scaling, after the actual prices
        prices = price_series(gbm_prices(100, seed=8))
        cfg = small_cfg(70, reps=3)
        real_scale = pl.window_minmax_scale
        calls = []

        def blown_up(x, window_len):
            scaled, scale = real_scale(x, window_len)
            calls.append(np.shape(x))
            if len(calls) == 2:
                assert scaled.shape == (3, 70)
                scaled[1] *= 1e300
            return scaled, scale

        clean = run(prices, cfg)
        monkeypatch.setattr(pl, "window_minmax_scale", blown_up)
        with np.errstate(over="ignore"):
            result = run(prices, replace(cfg, allow_failures=1))
        assert result.failed_ids == (1,)
        assert result.replicate_ids == (0, 2)
        assert np.array_equal(result.predictions, clean.predictions[[0, 2]])

    def test_out_of_memory_fails_its_group(self, monkeypatch):
        # groups (0, 1), (2, 3), (4): the second group's fit runs out of memory
        prices = price_series(gbm_prices(100, seed=8))
        cfg = replace(small_cfg(70, reps=5), allow_failures=2)
        real_fit = pl.fit

        def short_of_memory(series, train_cfg, seeds, **kwargs):
            if seeds[0] == derive_seed(train_cfg.seed, 2):
                raise MemoryError
            return real_fit(series, train_cfg, seeds)

        cap_group_rows(monkeypatch, 2)
        monkeypatch.setattr(pl, "fit", short_of_memory)
        result = run(prices, cfg)
        assert result.failed_ids == (2, 3)
        assert result.replicate_ids == (0, 1, 4)
        with pytest.raises(ReplicateFailureError) as err:
            run(prices, replace(cfg, allow_failures=1))
        assert err.value.failures == {2: "out of memory", 3: "out of memory"}

    def test_anchor_consistency_of_pseudo_paths(self):
        # rebuild the exact replicate price paths the run used: anchored at
        # the first training price and strictly positive
        from bootband.bootstrap import BlockPlan, batch_resample
        from bootband.timeseries import from_log_returns

        prices = price_series(gbm_prices(100, seed=30))
        cfg = small_cfg(70, reps=5)
        result = run(prices, cfg)
        returns = np.diff(np.log(prices.values[:70]))
        plan = BlockPlan(method=cfg.method, block_len=result.band.block_len,
                         locality=cfg.selector.locality, seed=cfg.seed)
        pseudo_returns, _ = batch_resample(returns, plan, cfg.reps)
        paths = from_log_returns(pseudo_returns, prices.values[0])
        assert paths.shape == (cfg.reps, 70)
        assert np.all(paths[:, 0] == prices.values[0])
        assert np.all(paths > 0)

    @pytest.mark.parametrize("name,stage", [
        ("to_log_returns", "log-returns"),
        ("select_block_length", "block-length-selection"),
        ("batch_resample", "bootstrap"),
        ("percentile_band", "quantile-band"),
    ], ids=["log-returns", "block-length-selection", "bootstrap", "quantile-band"])
    @pytest.mark.parametrize("entry", [run, compare_methods], ids=["run", "compare"])
    def test_stage_tagged_errors(self, monkeypatch, name, stage, entry):
        # a failure inside a stage is tagged with the stage its time is keyed by
        def failing(*args):
            raise ValidationError("boom")

        real_timed, keys = pl.timed, []

        def recording_timed(sink, key):
            keys.append(key)
            return real_timed(sink, key)

        monkeypatch.setattr(pl, name, failing)
        monkeypatch.setattr(pl, "timed", recording_timed)
        with pytest.raises(PipelineError) as err:
            entry(price_series(gbm_prices(60, seed=4)), small_cfg(40))
        assert err.value.stage == stage
        if entry is run:
            assert keys[-1] == stage
            assert err.value.method is None
        else:
            # NBB draws and finishes first
            assert keys[-1] == f"nbb:{stage}"
            assert err.value.method == "nbb"
            assert err.value.detail == "nbb: boom"

    def test_selector_bounds_beyond_training_fail_before_selection(self, monkeypatch):
        # selector config invalid for the 39 training returns -> a plain ValidationError
        monkeypatch.setattr(pl, "select_block_length", None)
        prices = price_series(gbm_prices(60, seed=4))
        cfg = replace(small_cfg(40), selector=SelectorConfig(reps=5, l_max=45, seed=1))
        with pytest.raises(ValidationError, match="l_max 45 exceeds series length 39"):
            run(prices, cfg)


class TestCompareMethods:
    def test_ranks_all_three(self):
        prices = price_series(gbm_prices(110, seed=12))
        cfg = small_cfg(75, reps=3)
        comparison = compare_methods(prices, cfg)
        assert set(comparison.results) == {
            BootstrapMethod.NBB, BootstrapMethod.MBB, BootstrapMethod.LBB
        }
        factors = [comparison.results[m].band.comparing_factor for m in comparison.ranking]
        assert factors == sorted(factors)
        rows = comparison.report(seed=11)
        assert [r["method"] for r in rows] == [m.value for m in comparison.ranking]
        assert all(set(r) >= {"method", "l_opt", "reps", "seed", "comparing_factor"} for r in rows)

    def test_methods_use_own_selector(self):
        prices = price_series(gbm_prices(100, seed=14))
        comparison = compare_methods(prices, small_cfg(70, reps=2))
        for method, res in comparison.results.items():
            assert res.band.method == method

    def test_deterministic(self):
        prices = price_series(gbm_prices(90, seed=15))
        cfg = small_cfg(65, reps=2)
        a = compare_methods(prices, cfg)
        b = compare_methods(prices, cfg)
        assert a.ranking == b.ranking
        for m in a.results:
            assert a.results[m].band.comparing_factor == b.results[m].band.comparing_factor

    def test_equal_factors_tie_break_by_name(self):
        # constant prices: zero returns, so every pseudo-path is identical
        # for every method and the factors tie exactly; ranking falls back
        # to method name order
        prices = price_series(np.full(90, 50.0))
        comparison = compare_methods(prices, small_cfg(65, reps=3))
        factors = {m: r.band.comparing_factor for m, r in comparison.results.items()}
        assert len(set(factors.values())) == 1
        assert [m.value for m in comparison.ranking] == ["lbb", "mbb", "nbb"]

    def test_one_timings_dict_per_run(self):
        prices = price_series(gbm_prices(90, seed=15))
        stages = ("log-returns", "block-length-selection", "bootstrap", "quantile-band")
        single = run(prices, small_cfg(65, reps=2))
        assert set(single.timings) == {*stages, "train-predict"}
        comparison = compare_methods(prices, small_cfg(65, reps=2))
        # the shared stage once, every method's own stages under its name
        assert set(comparison.timings) == {"train-predict"} | {
            f"{m}:{stage}" for m in ("nbb", "mbb", "lbb") for stage in stages
        }
        assert all(result.timings is comparison.timings for result in comparison.results.values())


@given(st.integers(1, 500), st.integers(1, 8), st.integers(1, 80))
@settings(max_examples=200)
def test_group_spans_rule(rows, jobs, cap):
    spans = pl._group_spans(rows, jobs, cap)
    # contiguous and in order, covering every row once
    assert [k for span in spans for k in span] == list(range(rows))
    widths = [len(span) for span in spans]
    assert min(widths) >= 1 and max(widths) - min(widths) <= 1 and max(widths) <= cap
    if rows >= jobs:
        # a multiple of jobs, unless one-row groups run out of rows first
        assert len(spans) % jobs == 0 or widths == [1] * rows
        # the fewest groups of at most cap rows whose count is a multiple of jobs
        assert len(spans) == jobs or (len(spans) - jobs) * cap < rows


@pytest.mark.parametrize("batch_size, hidden_size, cap", [
    (15, 32, 16),    # the reference group
    (15, 8, 38),     # band-many-small: 64 by pre-activations, held at GROUP_ROWS
    (1, 32, 38),     # 240 by pre-activations
    (250, 4, 7),     # select-long
    (1000, 64, 1),   # wider than GROUP_ELEMENTS: one row per group
])
def test_group_cap(batch_size, hidden_size, cap):
    train = small_train(batch_size=batch_size, hidden_size=hidden_size)
    assert pl._group_cap(train) == cap


class TestSharedTraining:
    """compare_methods trains the replicates of all three methods as one set of groups."""

    @pytest.fixture(scope="class")
    def case(self):
        prices = price_series(gbm_prices(100, seed=6))
        cfg = small_cfg(70, reps=4)  # dropout 0.2
        return prices, cfg, {m: run(prices, with_method(cfg, m)) for m in METHODS}

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("group_size", [1, 3, 16])
    def test_equals_one_run_per_method(self, case, monkeypatch, jobs, group_size):
        prices, cfg, solo = case
        cap_group_rows(monkeypatch, group_size)
        comparison = compare_methods(prices, cfg, jobs=jobs)
        assert tuple(comparison.results) == METHODS
        for method in METHODS:
            got, want = comparison.results[method], solo[method]
            assert got.predictions.tobytes() == want.predictions.tobytes()
            for name in ("lower", "point", "upper"):
                assert getattr(got.band, name).tobytes() == getattr(want.band, name).tobytes()
            for name in ("lengths", "distances", "penalties", "objectives"):
                assert np.array_equal(getattr(got.curve, name), getattr(want.curve, name))
            assert got.band.block_len == want.band.block_len
            assert got.replicate_ids == want.replicate_ids == tuple(range(4))
            assert got.failed_ids == want.failed_ids == ()

    @pytest.mark.parametrize("reps, jobs, group_size, widths", [
        (2, 2, 16, [3, 3]),           # ceil(6 / 2) = 3: both groups span two methods
        (7, 1, 3, [3] * 7),
        (5, 2, 16, [8, 7]),
        (4, 1, 16, [12]),
        (2, 8, 16, [1] * 6),          # more jobs than rows: one worker per group
    ])
    def test_groups_are_contiguous_rows_of_all_methods(self, monkeypatch, reps, jobs,
                                                       group_size, widths):
        prices = price_series(gbm_prices(100, seed=6))
        drawn, groups = [], []
        real_paths, real_task = pl.from_log_returns, pl._group_task

        def recording_paths(returns, anchor):
            drawn.append(real_paths(returns, anchor))
            return drawn[-1]

        def recording_task(args):
            groups.append((task_replicates(args, reps), args[0]))
            return real_task(args)

        monkeypatch.setattr(pl, "from_log_returns", recording_paths)
        monkeypatch.setattr(pl, "_group_task", recording_task)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", SerialPool)
        cap_group_rows(monkeypatch, group_size)
        SerialPool.opened, SerialPool.max_workers = 0, None
        comparison = compare_methods(prices, small_cfg(70, reps=reps), jobs=jobs)
        assert SerialPool.opened == (1 if jobs > 1 else 0)
        assert SerialPool.max_workers == (min(jobs, len(widths)) if jobs > 1 else None)
        assert [len(ids) for ids, _ in groups] == widths
        # rows in (method, replicate) order: NBB's replicates, then MBB's, then LBB's
        assert [m for ids, _ in groups for m in ids] == list(range(reps)) * 3
        assert len(drawn) == 3
        assert np.array_equal(np.vstack([paths for _, paths in groups]), np.vstack(drawn))
        # every group's paths are a row slice of one replicate matrix
        assert len({id(paths.base) for _, paths in groups}) == 1
        # no row failed: each method's predictions are its row block of one
        # prediction matrix, in (method, replicate) order
        blocks = [comparison.results[method].predictions for method in METHODS]
        matrix = blocks[0].base
        assert matrix.shape == (3 * reps, 30)
        for k, block in enumerate(blocks):
            assert block.base is matrix
            assert block.shape == (reps, 30)
            assert (block.__array_interface__["data"][0]
                    == matrix.__array_interface__["data"][0] + k * block.nbytes)

    def test_one_method_failure_stays_with_its_method(self, monkeypatch):
        # fail MBB's replicate 1, the row at position reps + 1
        prices = price_series(gbm_prices(100, seed=6))
        cfg = replace(small_cfg(70, reps=4), allow_failures=1)
        clean = compare_methods(prices, cfg)
        real_task = pl._group_task
        position = []

        def flaky(args):
            preds, causes = real_task(args)
            forced = []
            for cause in causes:
                position.append(len(position))
                forced.append("forced divergence" if position[-1] == cfg.reps + 1 else cause)
            return preds, forced

        cap_group_rows(monkeypatch, 3)
        monkeypatch.setattr(pl, "_group_task", flaky)
        comparison = compare_methods(prices, cfg)
        for method in METHODS:
            got, want = comparison.results[method], clean.results[method]
            if method is BootstrapMethod.MBB:
                assert got.failed_ids == (1,)
                assert got.replicate_ids == (0, 2, 3)
                assert np.array_equal(got.predictions, want.predictions[[0, 2, 3]])
            else:
                assert got.failed_ids == ()
                assert np.array_equal(got.predictions, want.predictions)
        position.clear()
        with pytest.raises(ReplicateFailureError) as err:
            compare_methods(prices, replace(cfg, allow_failures=0))
        assert err.value.method == "mbb"
        assert err.value.detail.startswith("mbb: 1 replicate(s) failed (allowed: 0): replicate 1:")

    def test_every_selection_runs_before_any_training(self, monkeypatch):
        # a failing LBB selection stops the compare before NBB or MBB trains
        prices = price_series(gbm_prices(100, seed=6))
        real_select, fits = pl.select_block_length, []

        def failing_lbb(returns, selector):
            if selector.method is BootstrapMethod.LBB:
                raise ValidationError("no candidate fits")
            return real_select(returns, selector)

        monkeypatch.setattr(pl, "select_block_length", failing_lbb)
        monkeypatch.setattr(pl, "fit", lambda *args, **kwargs: fits.append(args))
        with pytest.raises(PipelineError) as err:
            compare_methods(prices, small_cfg(70, reps=2))
        assert err.value.stage == "block-length-selection"
        assert err.value.detail == "lbb: no candidate fits"
        assert fits == []

    def test_bad_lbb_locality_stops_the_compare_before_selection(self, monkeypatch):
        # an NBB selector ignores locality; LBB's copy of it rejects 0
        prices = price_series(gbm_prices(100, seed=6))
        cfg = small_cfg(70, method="nbb", reps=2)
        cfg = replace(cfg, selector=replace(cfg.selector, locality=0.0))
        monkeypatch.setattr(pl, "select_block_length", None)
        with pytest.raises(ValidationError, match="locality"):
            compare_methods(prices, cfg)

    def test_train_len_checked_before_selection(self, monkeypatch):
        prices = price_series(gbm_prices(100, seed=6))
        monkeypatch.setattr(pl, "select_block_length", None)
        with pytest.raises(ValidationError):
            compare_methods(prices, small_cfg(100, reps=2))


class TestBandCsv:
    def test_factor_recompute_from_file(self, tmp_path):
        prices = price_series(gbm_prices(100, seed=21))
        result = run(prices, small_cfg(70, reps=3))
        path = tmp_path / "band.csv"
        result.band.to_csv(path, actual=result.actual)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "date,lower,median,upper,actual"
        widths = []
        for row in rows[1:]:
            _, lo, _, hi, _ = row.split(",")
            widths.append(float(hi) - float(lo))
        assert abs(sum(widths) - result.band.comparing_factor) < 1e-9


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValidationError):
            PipelineConfig(train_len=10, alpha=0.0)

    def test_reps_minimum(self):
        with pytest.raises(ValidationError):
            PipelineConfig(train_len=10, reps=1)

    def test_train_len_positive(self):
        with pytest.raises(ValidationError):
            PipelineConfig(train_len=0)

    @pytest.mark.parametrize("make", [
        lambda: PipelineConfig(train_len=10, seed=-1),
        lambda: SelectorConfig(seed=-1),
        lambda: TrainConfig(seed=-1),
        lambda: BlockPlan(method="mbb", block_len=2, seed=-1),
        lambda: fit(np.zeros((30, 2)), TrainConfig(lookback=3, epochs=1), [0, -1]),
    ], ids=["pipeline", "selector", "train", "plan", "fit"])
    def test_negative_seed_is_rejected_up_front(self, make):
        # numpy would reject it only when the first stream is drawn
        with pytest.raises(ValidationError, match=r"seeds? must be >= 0"):
            make()

    def test_method_follows_selector(self):
        assert PipelineConfig(train_len=10).method is SelectorConfig().method
        cfg = PipelineConfig(train_len=10, selector=SelectorConfig(method="nbb"))
        assert cfg.method is BootstrapMethod.NBB
        with pytest.raises(TypeError):
            PipelineConfig(train_len=10, method=BootstrapMethod.LBB)
