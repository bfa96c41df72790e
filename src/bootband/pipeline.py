"""End-to-end construction of bootstrap confidence bands for LSTM forecasts.

The procedure, per method:

1. transform the training prices to log-returns;
2. pick the block length that minimizes the penalized selector objective
   on those returns;
3. draw ``reps`` bootstrap pseudo-return series and reverse-transform each
   (anchored at the first training price) into a positive pseudo price path;
4. per replicate: window-scale the pseudo path, train one LSTM on it, then
   predict every test timestep one-step-ahead against the *actual* scaled
   history and de-normalize with the actual series' scale records;
5. per timestep: take the empirical alpha/2, 0.5 and 1-alpha/2 quantiles
   across replicates (linear interpolation of order statistics);
6. sum the per-timestep widths into the comparing factor (smaller = tighter
   band = better resampling strategy).

Replicates are independent given their derived seeds, so they can be trained
in parallel; results are assembled in replicate order regardless of
scheduling, keeping runs bit-reproducible for any ``jobs`` value.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

import numpy as np

from ._rng import derive_seed
from .blocklen import SelectorConfig, SelectorCurve, select_block_length
from .bootstrap import BlockPlan, BootstrapMethod, batch_resample
from .errors import (
    BootbandError,
    DivergenceError,
    PipelineError,
    ReplicateFailureError,
    ValidationError,
)
from .lstm import TrainConfig, fit, predict_series
from .timeseries import (
    LogReturnSeries,
    PriceSeries,
    SplitSpec,
    _freeze,
    from_log_returns,
    window_minmax_scale,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Full configuration of one band construction run."""

    split: SplitSpec
    method: BootstrapMethod = BootstrapMethod.LBB
    reps: int = 1000
    alpha: float = 0.05
    selector: SelectorConfig = SelectorConfig()
    train: TrainConfig = TrainConfig()
    seed: int = 0
    scale_window: int = 200
    allow_failures: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", BootstrapMethod(self.method))
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must lie in (0, 1)")
        if self.reps < 2:
            raise ValidationError("reps must be >= 2")
        if self.scale_window < 1:
            raise ValidationError("scale_window must be >= 1")
        if self.allow_failures < 0:
            raise ValidationError("allow_failures must be >= 0")


@dataclass(frozen=True)
class ConfidenceBand:
    """Per-timestep 95% (by default) band over the test horizon, in price units."""

    timestamps: tuple[date, ...]
    lower: np.ndarray
    point: np.ndarray
    upper: np.ndarray
    comparing_factor: float
    method: BootstrapMethod
    block_len: int
    reps: int

    def __post_init__(self):
        for name in ("lower", "point", "upper"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if not (len(self.timestamps) == len(self.lower) == len(self.point) == len(self.upper)):
            raise ValidationError("band columns must share one length")
        if np.any(self.lower > self.point) or np.any(self.point > self.upper):
            raise ValidationError("band must satisfy lower <= point <= upper")

    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def to_csv(self, path: str | Path, actual: np.ndarray) -> None:
        """Write ``date,lower,median,upper,actual`` rows at full float precision."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["date", "lower", "median", "upper", "actual"])
            for ts, lo, med, hi, act in zip(
                self.timestamps, self.lower, self.point, self.upper, actual
            ):
                w.writerow(
                    [ts.isoformat(), repr(float(lo)), repr(float(med)), repr(float(hi)), repr(float(act))]
                )


@dataclass(frozen=True)
class PipelineResult:
    """Band plus the audit artifacts of one run."""

    band: ConfidenceBand
    curve: SelectorCurve
    block_len: int
    predictions: np.ndarray          # (successful replicates, test_len), price units
    replicate_ids: tuple[int, ...]   # sub-stream index of each prediction row
    failed_ids: tuple[int, ...]
    actual: np.ndarray
    coverage: float                  # fraction of actuals inside [lower, upper]

    def report(self, seed: int | None = None) -> dict:
        """Machine-readable summary row of this method's run."""
        return {
            "method": self.band.method.value,
            "l_opt": self.block_len,
            "reps": self.band.reps,
            "seed": seed,
            "comparing_factor": self.band.comparing_factor,
            "coverage": self.coverage,
            "failed_replicates": list(self.failed_ids),
        }


class _StageClock:
    """No-op unless a dict is supplied; then records seconds per stage name."""

    def __init__(self, sink: dict | None):
        self.sink = sink
        self._last = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        if self.sink is not None:
            self.sink[stage] = self.sink.get(stage, 0.0) + (now - self._last)
        self._last = now


def _interp_quantile(sorted_samples: np.ndarray, q: float) -> np.ndarray:
    """Order-statistic quantile with linear interpolation, per column.

    Uses the rank h = (M - 1) * q (0-based) and interpolates between the
    floor and ceil order statistics.
    """
    m = sorted_samples.shape[0]
    h = (m - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, m - 1)
    frac = h - lo
    return sorted_samples[lo] + frac * (sorted_samples[hi] - sorted_samples[lo])


def percentile_band(samples: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical (alpha/2, 0.5, 1 - alpha/2) quantiles down each column of (M, T)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValidationError("percentile_band needs an (M, T) matrix with M >= 2")
    if not np.all(np.isfinite(samples)):
        raise ValidationError("non-finite sample in prediction matrix")
    if not 0 < alpha < 1:
        raise ValidationError("alpha must lie in (0, 1)")
    srt = np.sort(samples, axis=0)
    return (
        _interp_quantile(srt, alpha / 2.0),
        _interp_quantile(srt, 0.5),
        _interp_quantile(srt, 1.0 - alpha / 2.0),
    )


def comparing_factor(band: ConfidenceBand) -> float:
    """Sum of the band width over all test timesteps."""
    return float(np.sum(band.upper - band.lower))


def _replicate_task(args):
    """Train one replicate and predict the test horizon in price units.

    Module-level so process pools can pickle it.  Returns
    (index, predictions | None, error message | None).
    """
    (idx, pseudo_prices, scaled_actual, scale_actual, train_cfg, scale_window, positions) = args
    try:
        scaled_pseudo, _ = window_minmax_scale(pseudo_prices, scale_window)
        model, _ = fit(scaled_pseudo, train_cfg)
        preds_scaled = predict_series(model, scaled_actual, positions)
        return idx, scale_actual.denormalize(preds_scaled, positions), None
    except DivergenceError as exc:
        return idx, None, str(exc)


def run(
    prices: PriceSeries,
    cfg: PipelineConfig,
    jobs: int = 1,
    timings: dict | None = None,
) -> PipelineResult:
    """Execute the full band construction for one bootstrap method.

    ``timings``, when given, collects wall-clock seconds per stage.
    """
    clock = _StageClock(timings)
    cfg.split.check(len(prices))
    train_len = cfg.split.train_len
    if train_len <= cfg.train.lookback + 1:
        raise ValidationError(
            f"training length {train_len} must exceed lookback + 1 = {cfg.train.lookback + 1}"
        )
    train_prices = prices.values[:train_len]
    actual_test = prices.values[train_len:]
    positions = np.arange(train_len, len(prices))

    try:
        returns = LogReturnSeries(
            values=np.diff(np.log(train_prices)), anchor_price=float(train_prices[0])
        )
    except BootbandError as exc:
        raise PipelineError("log-returns", str(exc)) from exc

    clock.mark("log-returns")

    try:
        l_opt, curve = select_block_length(returns, cfg.selector)
    except BootbandError as exc:
        raise PipelineError("block-length-selection", str(exc)) from exc
    clock.mark("block-length-selection")

    try:
        plan = BlockPlan(
            method=cfg.method, block_len=l_opt, locality=cfg.selector.locality, seed=cfg.seed
        )
        pseudo_returns = batch_resample(returns.values, plan, cfg.reps)
        pseudo_paths = [
            from_log_returns(ps.values, returns.anchor_price) for ps in pseudo_returns
        ]
    except BootbandError as exc:
        raise PipelineError("bootstrap", str(exc)) from exc
    clock.mark("bootstrap")

    scaled_actual, scale_actual = window_minmax_scale(prices.values, cfg.scale_window)
    tasks = [
        (
            m,
            pseudo_paths[m],
            scaled_actual,
            scale_actual,
            replace(cfg.train, seed=derive_seed(cfg.train.seed, m)),
            cfg.scale_window,
            positions,
        )
        for m in range(cfg.reps)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_replicate_task, tasks, chunksize=max(1, cfg.reps // (4 * jobs))))
    else:
        outcomes = [_replicate_task(t) for t in tasks]

    succeeded = [(idx, preds) for idx, preds, err in outcomes if err is None]
    failed = tuple(idx for idx, _, err in outcomes if err is not None)
    if len(failed) > cfg.allow_failures:
        raise ReplicateFailureError(failed, cfg.allow_failures)
    if len(succeeded) < 2:
        raise PipelineError("train", f"only {len(succeeded)} replicate(s) trained; need >= 2")
    predictions = np.vstack([preds for _, preds in succeeded])
    clock.mark("train-predict")

    try:
        lower, median, upper = percentile_band(predictions, cfg.alpha)
    except BootbandError as exc:
        raise PipelineError("percentile-band", str(exc)) from exc

    band = ConfidenceBand(
        timestamps=prices.timestamps[train_len:],
        lower=lower,
        point=median,
        upper=upper,
        comparing_factor=float(np.sum(upper - lower)),
        method=cfg.method,
        block_len=l_opt,
        reps=len(succeeded),
    )
    coverage = float(np.mean((actual_test >= lower) & (actual_test <= upper)))
    clock.mark("quantile-band")
    return PipelineResult(
        band=band,
        curve=curve,
        block_len=l_opt,
        predictions=predictions,
        replicate_ids=tuple(idx for idx, _ in succeeded),
        failed_ids=failed,
        actual=actual_test,
        coverage=coverage,
    )


@dataclass(frozen=True)
class MethodComparison:
    """Per-method results ranked ascending by comparing factor."""

    results: dict[BootstrapMethod, PipelineResult]
    ranking: tuple[BootstrapMethod, ...]

    def report(self, seed: int | None = None) -> list[dict]:
        """Machine-readable summary rows, best method first."""
        return [self.results[method].report(seed) for method in self.ranking]


def compare_methods(
    prices: PriceSeries,
    cfg: PipelineConfig,
    jobs: int = 1,
    timings: dict | None = None,
) -> MethodComparison:
    """Run the pipeline once per bootstrap method and rank by comparing factor.

    Each method re-selects its own block length.  Ties rank by method name.
    """
    results = {}
    for method in (BootstrapMethod.NBB, BootstrapMethod.MBB, BootstrapMethod.LBB):
        method_cfg = replace(cfg, method=method, selector=replace(cfg.selector, method=method))
        method_timings: dict | None = {} if timings is not None else None
        results[method] = run(prices, method_cfg, jobs=jobs, timings=method_timings)
        if timings is not None:
            for stage, secs in method_timings.items():
                timings[f"{method.value}:{stage}"] = secs
    ranking = tuple(
        sorted(results, key=lambda m: (results[m].band.comparing_factor, m.value))
    )
    return MethodComparison(results=results, ranking=ranking)
