"""End-to-end construction of bootstrap confidence bands for LSTM forecasts.

The first ``train_len`` prices train; every later price is a test timestep.
The procedure, per method:

1. transform the training prices to log-returns;
2. pick the block length that minimizes the penalized selector objective
   on those returns, for the method named by ``selector.method``;
3. draw ``reps`` pseudo-return series with that same method and length, as
   one value matrix, and reverse-transform every row (anchored at the first
   training price) into a positive pseudo price path;
4. per replicate: window-scale the pseudo path, train one LSTM on it, then
   predict every test timestep one-step-ahead against the *actual* scaled
   history and de-normalize with the actual series' scale records;
5. per timestep: take the empirical alpha/2, 0.5 and 1-alpha/2 quantiles
   across replicates (linear interpolation of order statistics);
6. sum the per-timestep widths into the comparing factor (smaller = tighter
   band = better resampling strategy).

Replicates are independent given their derived seeds.  They are trained in
groups: a group is a contiguous run of replicate ids, at most
``min(GROUP_SIZE, ceil(reps / jobs))`` long, that :func:`bootband.lstm.fit`
trains in lockstep, one stacked forward, backward and Adam step per
minibatch for the whole group.  Every row of a group is bit-identical to the
same replicate trained alone, so ``jobs`` worker processes take whole groups
and results are assembled in replicate order, keeping runs bit-reproducible
for any ``jobs`` value.  A replicate whose loss or test predictions turn
non-finite is recorded as failed by index.  Each run returns the wall-clock
seconds of its five stages, timed with :func:`bootband.manifest.timed`.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

import numpy as np

from ._rng import derive_seed
from .blocklen import SelectorConfig, SelectorCurve, select_block_length
from .bootstrap import BlockPlan, BootstrapMethod, batch_resample
from .errors import (
    BootbandError,
    PipelineError,
    ReplicateFailureError,
    ValidationError,
)
from .lstm import TrainConfig, fit, predict_series
from .manifest import timed
from .timeseries import (
    PriceSeries,
    _freeze,
    from_log_returns,
    to_log_returns,
    window_minmax_scale,
)

# Most replicates trained in lockstep per group.  Stacking amortizes the
# per-call numpy overhead of a minibatch step.  On a 2-CPU VM, a step of 8 to
# 32 rows at hidden 8 costs about a quarter of as many solo steps per row, and
# band-many-small ran 13% faster with 16 than with 8.  At hidden 32 the
# arithmetic dominates (about two thirds of a solo step per row at any width
# from 4 to 32) and each row adds 0.3 to 0.5 MB of peak memory, so wider
# groups only cost memory (a group of 16 peaks about 5 MB above one replicate).
GROUP_SIZE = 16


@dataclass(frozen=True)
class PipelineConfig:
    """Full configuration of one band construction run.

    The test horizon is every price after the first ``train_len``.
    """

    train_len: int
    reps: int = 1000
    alpha: float = 0.05
    selector: SelectorConfig = SelectorConfig()
    train: TrainConfig = TrainConfig()
    seed: int = 0
    scale_window: int = 200
    allow_failures: int = 0

    def __post_init__(self):
        if self.train_len < 1:
            raise ValidationError("train_len must be >= 1")
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must lie in (0, 1)")
        if self.reps < 2:
            raise ValidationError("reps must be >= 2")
        if self.scale_window < 1:
            raise ValidationError("scale_window must be >= 1")
        if self.allow_failures < 0:
            raise ValidationError("allow_failures must be >= 0")

    @property
    def method(self) -> BootstrapMethod:
        """The bootstrap method: the block length is selected for it and resampled with it."""
        return self.selector.method


@dataclass(frozen=True)
class ConfidenceBand:
    """Per-timestep 95% (by default) band over the test horizon, in price units."""

    timestamps: tuple[date, ...]
    lower: np.ndarray
    point: np.ndarray
    upper: np.ndarray
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

    @property
    def comparing_factor(self) -> float:
        """Sum of the band width over all test timesteps."""
        return float(np.sum(self.upper - self.lower))

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
    predictions: np.ndarray          # (successful replicates, test_len), price units
    replicate_ids: tuple[int, ...]   # sub-stream index of each prediction row
    failed_ids: tuple[int, ...]
    actual: np.ndarray
    coverage: float                  # fraction of actuals inside [lower, upper]
    timings: dict                    # stage name -> wall-clock seconds

    def report(self, seed: int | None = None) -> dict:
        """Machine-readable summary row of this method's run."""
        return {
            "method": self.band.method.value,
            "l_opt": self.band.block_len,
            "reps": self.band.reps,
            "seed": seed,
            "comparing_factor": self.band.comparing_factor,
            "coverage": self.coverage,
            "failed_replicates": list(self.failed_ids),
        }


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


def _group_task(args):
    """Train one group of replicates in lockstep and predict the test horizon in price units.

    Module-level so process pools can pickle it.  Returns one
    (index, predictions | None, error message | None) per replicate.
    """
    (ids, pseudo_paths, scaled_actual, scale_actual, train_cfg, seeds, scale_window, positions) = args
    scaled = np.column_stack([window_minmax_scale(path, scale_window)[0] for path in pseudo_paths])
    model, _, diverged = fit(scaled, train_cfg, seeds)
    preds = scale_actual.denormalize(predict_series(model, scaled_actual, positions), positions)
    outcomes = []
    for row, idx in enumerate(ids):
        if row in diverged:
            outcomes.append((idx, None, str(diverged[row])))
        elif not np.all(np.isfinite(preds[row])):
            outcomes.append((idx, None, "non-finite test prediction"))
        else:
            outcomes.append((idx, preds[row], None))
    return outcomes


def run(prices: PriceSeries, cfg: PipelineConfig, jobs: int = 1) -> PipelineResult:
    """Execute the full band construction for the bootstrap method ``cfg.method``."""
    train_len = cfg.train_len
    if train_len >= len(prices):
        raise ValidationError(
            f"training length {train_len} leaves no test timestep in {len(prices)} prices"
        )
    if train_len <= cfg.train.lookback + 1:
        raise ValidationError(
            f"training length {train_len} must exceed lookback + 1 = {cfg.train.lookback + 1}"
        )
    actual_test = prices.values[train_len:]
    positions = np.arange(train_len, len(prices))
    timings: dict = {}

    with timed(timings, "log-returns"):
        returns = to_log_returns(prices.values[:train_len])

    with timed(timings, "block-length-selection"):
        try:
            l_opt, curve = select_block_length(returns, cfg.selector)
        except BootbandError as exc:
            raise PipelineError("block-length-selection", str(exc)) from exc

    with timed(timings, "bootstrap"):
        try:
            plan = BlockPlan(
                method=cfg.method, block_len=l_opt, locality=cfg.selector.locality, seed=cfg.seed
            )
            pseudo_returns, _ = batch_resample(returns, plan, cfg.reps)
            pseudo_paths = from_log_returns(pseudo_returns, prices.values[0])
        except BootbandError as exc:
            raise PipelineError("bootstrap", str(exc)) from exc

    with timed(timings, "train-predict"):
        scaled_actual, scale_actual = window_minmax_scale(prices.values, cfg.scale_window)
        width = min(GROUP_SIZE, math.ceil(cfg.reps / jobs))
        tasks = [
            (
                ids,
                pseudo_paths[ids.start : ids.stop],
                scaled_actual,
                scale_actual,
                cfg.train,
                [derive_seed(cfg.train.seed, m) for m in ids],
                cfg.scale_window,
                positions,
            )
            for ids in (range(lo, min(lo + width, cfg.reps)) for lo in range(0, cfg.reps, width))
        ]
        if jobs > 1:
            try:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    groups = list(pool.map(_group_task, tasks))
            except BrokenProcessPool as exc:
                raise PipelineError("train", f"a worker process died: {exc}") from exc
        else:
            groups = [_group_task(t) for t in tasks]
        outcomes = [outcome for group in groups for outcome in group]

        succeeded = [(idx, preds) for idx, preds, err in outcomes if err is None]
        failed = tuple(idx for idx, _, err in outcomes if err is not None)
        if len(failed) > cfg.allow_failures:
            raise ReplicateFailureError(failed, cfg.allow_failures)
        if len(succeeded) < 2:
            raise PipelineError("train", f"only {len(succeeded)} replicate(s) trained; need >= 2")
        predictions = np.vstack([preds for _, preds in succeeded])

    with timed(timings, "quantile-band"):
        try:
            lower, median, upper = percentile_band(predictions, cfg.alpha)
        except BootbandError as exc:
            raise PipelineError("percentile-band", str(exc)) from exc
        band = ConfidenceBand(
            timestamps=prices.timestamps[train_len:],
            lower=lower,
            point=median,
            upper=upper,
            method=cfg.method,
            block_len=l_opt,
            reps=len(succeeded),
        )
        coverage = float(np.mean((actual_test >= lower) & (actual_test <= upper)))
    return PipelineResult(
        band=band,
        curve=curve,
        predictions=predictions,
        replicate_ids=tuple(idx for idx, _ in succeeded),
        failed_ids=failed,
        actual=actual_test,
        coverage=coverage,
        timings=timings,
    )


@dataclass(frozen=True)
class MethodComparison:
    """Per-method results ranked ascending by comparing factor."""

    results: dict[BootstrapMethod, PipelineResult]
    ranking: tuple[BootstrapMethod, ...]

    def report(self, seed: int | None = None) -> list[dict]:
        """Machine-readable summary rows, best method first."""
        return [self.results[method].report(seed) for method in self.ranking]


def compare_methods(prices: PriceSeries, cfg: PipelineConfig, jobs: int = 1) -> MethodComparison:
    """Run the pipeline once per bootstrap method and rank by comparing factor.

    Each method re-selects its own block length, so ``cfg.selector.method``
    is not used.  Ties rank by method name.
    """
    results = {
        method: run(prices, replace(cfg, selector=replace(cfg.selector, method=method)), jobs=jobs)
        for method in (BootstrapMethod.NBB, BootstrapMethod.MBB, BootstrapMethod.LBB)
    }
    ranking = tuple(
        sorted(results, key=lambda m: (results[m].band.comparing_factor, m.value))
    )
    return MethodComparison(results=results, ranking=ranking)
