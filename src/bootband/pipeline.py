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
groups: a group is a contiguous run of rows that :func:`bootband.lstm.fit`
trains in lockstep, one stacked forward, backward and Adam step per
minibatch for the whole group.  Every row of a group is bit-identical to the
same replicate trained alone, so ``jobs`` worker processes (no more than
there are groups) take whole groups and results are assembled in row order,
keeping runs bit-reproducible for any ``jobs`` value.  A replicate whose
loss or test predictions turn non-finite, or whose group runs out of
memory, is recorded as failed by index, with its cause.

A group's width is set by its pre-activation count, not its row count: a
minibatch step of ``rows`` networks computes ``rows * batch_size * 4 *
hidden_size`` gate pre-activations.  :data:`GROUP_ELEMENTS` caps that
count and :data:`GROUP_ROWS` the rows, so a group has at most ``cap``
rows: 16 at the reference shape (batch 15, hidden 32), 38 at hidden 8.
The rows split into ``jobs * ceil(rows / (jobs * cap))`` contiguous groups
whose widths differ by at most one, so every worker gets as many groups.

A run is three phases: each method's checks and draw (steps 1-3), one
shared training phase (step 4), and each method's finish (failure check,
steps 5-6).  The draws write one replicate matrix, a block of ``reps``
pseudo paths per method in (method, replicate) order, and every group is a
fixed row slice of it.  :func:`run` is the one-method case.
:func:`compare_methods` is the three-method case: it selects and draws for
NBB, MBB and LBB first, then trains all ``3 * reps`` rows as one set of
groups on one pool, so a group may span two methods.  Row ``m`` of every
method is replicate ``m`` with the seed ``derive_seed(train.seed, m)``, and
outcomes go back to their method by position.  Each method's result times its own
stages with :func:`bootband.manifest.timed`; the shared ``train-predict``
seconds are timed once (a single-method run adds them to its result).
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

# Most gate pre-activations (rows x batch x 4 x hidden) a lockstep group
# computes per minibatch step: 16 rows at the reference shape (batch 15,
# hidden 32).  Stacking amortizes the per-call numpy overhead of a step, which
# dominates small steps: on a 2-CPU VM, 152 hidden-8 replicates (200 points,
# 3 epochs) train in 0.35 s in groups of 38 and in 0.40 s in groups of 16.
# At hidden 32 the arithmetic dominates and each row adds 0.3 to 0.5 MB of
# peak memory, so wider groups would only cost memory.  A cap in elements
# serves both with one constant.
GROUP_ELEMENTS = 16 * 15 * 128

# Most rows in a group, the widest measured (band-many-small's).  A row's
# parameters, Adam moments and dropout masks do not shrink with the batch, so
# without this cap batch 1 at hidden 32 would make groups of 240 rows.
# Trained in one process on a 2-CPU VM, 76 replicates (200 points) took about
# 23% less CPU time in two groups of 38 than in groups of 16, both at hidden 8
# (3 epochs, peak RSS 0.5 MB higher) and at hidden 32 with batch 1 (1 epoch,
# peak RSS 2.2 MB higher); BENCH_16.json's group_width block.
GROUP_ROWS = 38


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
    (index, predictions | None, error message | None) per replicate.  A group
    that runs out of memory fails every one of its replicates.
    """
    (ids, pseudo_paths, scaled_actual, scale_actual, train_cfg, seeds, scale_window, positions) = args
    try:
        scaled = np.column_stack([window_minmax_scale(path, scale_window)[0] for path in pseudo_paths])
        model, _, diverged = fit(scaled, train_cfg, seeds)
        preds = scale_actual.denormalize(predict_series(model, scaled_actual, positions), positions)
    except MemoryError:
        return [(idx, None, "out of memory") for idx in ids]
    outcomes = []
    for row, idx in enumerate(ids):
        if row in diverged:
            outcomes.append((idx, None, diverged[row]))
        elif not np.all(np.isfinite(preds[row])):
            outcomes.append((idx, None, "non-finite test prediction"))
        else:
            outcomes.append((idx, preds[row], None))
    return outcomes


@dataclass(frozen=True)
class _Draw:
    """One method's block length and curve; its pseudo paths are rows of the replicate matrix."""

    cfg: PipelineConfig
    l_opt: int
    curve: SelectorCurve
    timings: dict


def _draw(prices: PriceSeries, cfg: PipelineConfig, label: str | None,
          paths: np.ndarray) -> _Draw:
    """Log-returns, block-length selection and the replicate draw for ``cfg.method``.

    The ``cfg.reps`` pseudo price paths are written into ``paths``.
    """
    timings: dict = {}
    with timed(timings, "log-returns"):
        returns = to_log_returns(prices.values[: cfg.train_len])

    with timed(timings, "block-length-selection"):
        try:
            l_opt, curve = select_block_length(returns, cfg.selector)
        except BootbandError as exc:
            raise PipelineError("block-length-selection", str(exc), label) from exc

    with timed(timings, "bootstrap"):
        try:
            plan = BlockPlan(
                method=cfg.method, block_len=l_opt, locality=cfg.selector.locality, seed=cfg.seed
            )
            # only the values: the drawn starts would add to the peak memory of this step
            pseudo_returns = batch_resample(returns, plan, cfg.reps)[0]
            paths[...] = from_log_returns(pseudo_returns, prices.values[0])
        except BootbandError as exc:
            raise PipelineError("bootstrap", str(exc), label) from exc
    return _Draw(cfg=cfg, l_opt=l_opt, curve=curve, timings=timings)


def _group_cap(train: TrainConfig) -> int:
    """Most rows a lockstep group of ``train``'s shape holds.

    See :data:`GROUP_ELEMENTS` and :data:`GROUP_ROWS`.
    """
    return max(1, min(GROUP_ROWS, GROUP_ELEMENTS // (train.batch_size * 4 * train.hidden_size)))


def _group_spans(rows: int, jobs: int, cap: int) -> list[range]:
    """The contiguous groups, in row order, that ``rows`` replicates train in.

    ``jobs * ceil(rows / (jobs * cap))`` groups (one per row if that is
    more than ``rows``), whose widths differ by at most one, the wider first:
    each of ``jobs`` workers gets as many groups, and none exceeds ``cap`` rows.
    """
    count = min(rows, jobs * math.ceil(rows / (jobs * cap)))
    base, extra = divmod(rows, count)
    starts = [k * base + min(k, extra) for k in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(starts, starts[1:])]


def _train_predict(prices: PriceSeries, cfg: PipelineConfig, paths: np.ndarray,
                   labels: list[str | None], jobs: int) -> list[list[tuple]]:
    """Train every row of the replicate matrix ``paths`` in contiguous lockstep groups.

    ``paths`` holds a block of ``cfg.reps`` rows per method, so a group, one
    row slice, may span two methods.  Row ``m`` of every block is replicate
    ``m`` with seed ``derive_seed(cfg.train.seed, m)``.  The groups run on
    ``min(jobs, groups)`` worker processes, in process if that is one.
    Returns the outcomes of each block, split back by position.  If a worker
    dies, the error names the first group without a result by the ``labels``
    of its methods and its replicate ids.
    """
    positions = np.arange(cfg.train_len, len(prices))
    scaled_actual, scale_actual = window_minmax_scale(prices.values, cfg.scale_window)
    spans = _group_spans(len(paths), jobs, _group_cap(cfg.train))
    tasks = []
    for span in spans:
        ids = [k % cfg.reps for k in span]
        tasks.append((
            ids,
            paths[span.start : span.stop],
            scaled_actual,
            scale_actual,
            cfg.train,
            [derive_seed(cfg.train.seed, m) for m in ids],
            cfg.scale_window,
            positions,
        ))
    workers = min(jobs, len(tasks))
    if workers > 1:
        groups = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for group in pool.map(_group_task, tasks):
                    groups.append(group)
        except BrokenProcessPool as exc:
            lost: dict = {}  # method label -> replicate ids of the first lost group
            for k in spans[len(groups)]:
                lost.setdefault(labels[k // cfg.reps], []).append(str(k % cfg.reps))
            named = "; ".join(", ".join(ids) if label is None else f"{label} {', '.join(ids)}"
                              for label, ids in lost.items())
            raise PipelineError(
                "train", f"a worker process died: first group without a result: {named}"
            ) from exc
    else:
        groups = [_group_task(t) for t in tasks]
    outcomes = [outcome for group in groups for outcome in group]
    return [outcomes[lo : lo + cfg.reps] for lo in range(0, len(outcomes), cfg.reps)]


def _finish(prices: PriceSeries, draw: _Draw, outcomes: list[tuple],
            label: str | None) -> PipelineResult:
    """Check one method's failures, then take its quantile band."""
    cfg = draw.cfg
    succeeded = [(idx, preds) for idx, preds, err in outcomes if err is None]
    failed = {idx: err for idx, _, err in outcomes if err is not None}
    if len(failed) > cfg.allow_failures:
        raise ReplicateFailureError(failed, cfg.allow_failures, label)
    if len(succeeded) < 2:
        raise PipelineError("train", f"only {len(succeeded)} replicate(s) trained; need >= 2", label)
    predictions = np.vstack([preds for _, preds in succeeded])
    actual_test = prices.values[cfg.train_len :]

    timings = dict(draw.timings)
    with timed(timings, "quantile-band"):
        try:
            lower, median, upper = percentile_band(predictions, cfg.alpha)
        except BootbandError as exc:
            raise PipelineError("percentile-band", str(exc), label) from exc
        band = ConfidenceBand(
            timestamps=prices.timestamps[cfg.train_len :],
            lower=lower,
            point=median,
            upper=upper,
            method=cfg.method,
            block_len=draw.l_opt,
            reps=len(succeeded),
        )
        coverage = float(np.mean((actual_test >= lower) & (actual_test <= upper)))
    return PipelineResult(
        band=band,
        curve=draw.curve,
        predictions=predictions,
        replicate_ids=tuple(idx for idx, _ in succeeded),
        failed_ids=tuple(failed),
        actual=actual_test,
        coverage=coverage,
        timings=timings,
    )


def _run(prices: PriceSeries, cfg: PipelineConfig, methods: tuple[BootstrapMethod, ...],
         jobs: int) -> tuple[list[PipelineResult], dict]:
    """Draw for every method, train all their replicates together, then finish each.

    Returns one result per method, each timing its own four stages, and the
    shared ``train-predict`` seconds.  With several methods, a failing
    method's error names it.
    """
    train_len = cfg.train_len
    if train_len >= len(prices):
        raise ValidationError(
            f"training length {train_len} leaves no test timestep in {len(prices)} prices"
        )
    if train_len <= cfg.train.lookback + 1:
        raise ValidationError(
            f"training length {train_len} must exceed lookback + 1 = {cfg.train.lookback + 1}"
        )
    # block-length bounds beyond the training returns fail before any selection runs
    cfg.selector.resolved_l_max(train_len - 1)
    labels = [method.value if len(methods) > 1 else None for method in methods]
    # every method's config is checked before any selection runs
    cfgs = [replace(cfg, selector=replace(cfg.selector, method=method)) for method in methods]
    # one replicate matrix, a block of reps rows per method, written in place
    paths = np.empty((len(methods) * cfg.reps, train_len))
    draws = [_draw(prices, method_cfg, label, paths[k * cfg.reps : (k + 1) * cfg.reps])
             for k, (method_cfg, label) in enumerate(zip(cfgs, labels))]
    shared: dict = {}
    with timed(shared, "train-predict"):
        outcomes = _train_predict(prices, cfg, paths, labels, jobs)
    results = [_finish(prices, draw, rows, label)
               for draw, rows, label in zip(draws, outcomes, labels)]
    return results, shared


def run(prices: PriceSeries, cfg: PipelineConfig, jobs: int = 1) -> PipelineResult:
    """Execute the full band construction for the bootstrap method ``cfg.method``."""
    (result,), shared = _run(prices, cfg, (cfg.method,), jobs)
    return replace(result, timings={**result.timings, **shared})


@dataclass(frozen=True)
class MethodComparison:
    """Per-method results ranked ascending by comparing factor."""

    results: dict[BootstrapMethod, PipelineResult]
    ranking: tuple[BootstrapMethod, ...]
    timings: dict                    # shared stage name -> wall-clock seconds

    def report(self, seed: int | None = None) -> list[dict]:
        """Machine-readable summary rows, best method first."""
        return [self.results[method].report(seed) for method in self.ranking]


def compare_methods(prices: PriceSeries, cfg: PipelineConfig, jobs: int = 1) -> MethodComparison:
    """Build a band with each bootstrap method and rank them by comparing factor.

    Each method re-selects its own block length, so ``cfg.selector.method``
    is not used.  All three draw before any replicate trains, and their
    replicates train as one set of groups on one pool.  Ties rank by method
    name.
    """
    methods = (BootstrapMethod.NBB, BootstrapMethod.MBB, BootstrapMethod.LBB)
    per_method, timings = _run(prices, cfg, methods, jobs)
    results = dict(zip(methods, per_method))
    ranking = tuple(
        sorted(results, key=lambda m: (results[m].band.comparing_factor, m.value))
    )
    return MethodComparison(results=results, ranking=ranking, timings=timings)
