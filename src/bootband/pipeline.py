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
   history and de-normalize with the actual series' scale records.  One
   function, :func:`fit_predict`, does this for every lockstep group and
   for the ``train`` command's single network on the actual training prices;
5. per timestep: take the empirical alpha/2, 0.5 and 1-alpha/2 quantiles
   across replicates (linear interpolation of order statistics);
6. sum the per-timestep widths into the comparing factor (smaller = tighter
   band = better resampling strategy).

Replicates are independent given their derived seeds.  They are trained in
groups: a group is a contiguous run of rows that :func:`bootband.lstm.fit`
trains in lockstep, one stacked forward, backward and Adam step per
minibatch for the whole group.  Every row of a group is bit-identical to the
same replicate trained alone, so ``jobs`` worker processes (no more than
there are groups) take whole groups, keeping runs bit-reproducible for any
``jobs`` value; only a run that forks workers imports the process pool and
:mod:`multiprocessing`.  A replicate whose loss or test predictions turn
non-finite, or whose group runs out of memory, is recorded as failed by
index, with its cause.

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
pseudo paths per method in (method, replicate) order.  Every group scales
and trains one row slice of it and returns one prediction block, written at
the same rows of one prediction matrix.  :func:`run` is the one-method case.
:func:`compare_methods` is the three-method case: it selects and draws for
NBB, MBB and LBB first, then trains all ``3 * reps`` rows as one set of
groups on one pool, so a group may span two methods.  Row ``m`` of every
method is replicate ``m`` with the seed ``derive_seed(train.seed, m)``, and
each method keeps the trained rows of its block.  A run keeps one timings
dict, filled with :func:`bootband.manifest.timed`: each method's stages are
named ``<method>:<stage>`` when the run has several methods and by the bare
stage otherwise, and the shared ``train-predict`` stage is timed once.
Every result of the run, and a comparison, holds that same dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

import numpy as np

from ._rng import derive_seed
from .blocklen import SelectorConfig, SelectorCurve, select_block_length
from .bootstrap import BlockPlan, BootstrapMethod, batch_resample, lbb_halo
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
    write_csv,
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
        write_csv(path, ["date", "lower", "median", "upper", "actual"],
                  ([ts.isoformat(), repr(float(lo)), repr(float(med)), repr(float(hi)), repr(float(act))]
                   for ts, lo, med, hi, act in zip(self.timestamps, self.lower, self.point, self.upper, actual)))


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
    timings: dict                    # stage key -> wall-clock seconds, shared by the run's results

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


def fit_predict(paths, train: TrainConfig, seeds, actual, positions, epoch_rmse: bool = False):
    """Scale, fit and forecast each row of the price matrix ``paths`` as one lockstep group.

    Each row is window-scaled on its own, with the window of ``actual``'s
    records, and trains one network from its seed in ``seeds``.  Every
    network predicts ``positions`` one step ahead from the scaled actual
    history, ``actual = window_minmax_scale(prices, scale_window)``, and
    de-normalizes with that pair's records.  Returns
    ``(model, rmse, scaled, preds, causes)``: the group model, its
    epoch-RMSE trace (``None`` unless ``epoch_rmse``), the ``(rows,
    len(positions))`` predictions scaled and in price units, and one failure
    cause per row, ``None`` for a trained row.  A group that runs out of
    memory returns only its causes, every other item ``None``.
    """
    scaled_actual, scale_actual = actual
    try:
        scaled = window_minmax_scale(paths, scale_actual.window_len)[0]
        model, rmse, diverged = fit(scaled.T, train, seeds, epoch_rmse=epoch_rmse)
        scaled_preds = predict_series(model, scaled_actual, positions)
        preds = scale_actual.denormalize(scaled_preds, positions)
    except MemoryError:
        return None, None, None, None, ["out of memory"] * len(paths)
    finite = np.isfinite(preds).all(axis=1)
    causes = [diverged.get(row, None if finite[row] else "non-finite test prediction")
              for row in range(len(paths))]
    return model, rmse, scaled_preds, preds, causes


def _group_task(args):
    """Run :func:`fit_predict` on one group task; module-level so process pools can pickle it.

    Returns the ``(rows, test_len)`` prediction block in price units
    (``None`` if the group ran out of memory) and one failure cause per row.
    """
    paths, seeds, train, actual, positions = args
    *_, preds, causes = fit_predict(paths, train, seeds, actual, positions)
    return preds, causes


@dataclass(frozen=True)
class _Draw:
    """One method's block length and curve; its pseudo paths are rows of the replicate matrix."""

    cfg: PipelineConfig
    l_opt: int
    curve: SelectorCurve


def _stage(label: str | None, stage: str) -> str:
    """A stage's timings key: ``<method>:<stage>`` for a labelled method, else the bare stage."""
    return stage if label is None else f"{label}:{stage}"


def _draw(prices: PriceSeries, cfg: PipelineConfig, label: str | None,
          paths: np.ndarray, timings: dict) -> _Draw:
    """Log-returns, block-length selection and the replicate draw for ``cfg.method``.

    The ``cfg.reps`` pseudo price paths are written into ``paths``, and each
    stage's seconds into ``timings``.
    """
    with timed(timings, _stage(label, "log-returns")):
        returns = to_log_returns(prices.values[: cfg.train_len])

    with timed(timings, _stage(label, "block-length-selection")):
        try:
            l_opt, curve = select_block_length(returns, cfg.selector)
        except BootbandError as exc:
            raise PipelineError("block-length-selection", str(exc), label) from exc

    with timed(timings, _stage(label, "bootstrap")):
        try:
            plan = BlockPlan(
                method=cfg.method, block_len=l_opt, locality=cfg.selector.locality, seed=cfg.seed
            )
            # only the values: the drawn starts would add to the peak memory of this step
            pseudo_returns = batch_resample(returns, plan, cfg.reps)[0]
            paths[...] = from_log_returns(pseudo_returns, prices.values[0])
        except BootbandError as exc:
            raise PipelineError("bootstrap", str(exc), label) from exc
    return _Draw(cfg=cfg, l_opt=l_opt, curve=curve)


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
                   labels: list[str | None], jobs: int) -> tuple[np.ndarray, list[str | None]]:
    """Train every row of the replicate matrix ``paths`` in contiguous lockstep groups.

    ``paths`` holds a block of ``cfg.reps`` rows per method, so a group, one
    row slice, may span two methods.  Row ``m`` of every block is replicate
    ``m`` with seed ``derive_seed(cfg.train.seed, m)``.  The groups run on
    ``min(jobs, groups)`` worker processes, in process if that is one.
    Returns the prediction matrix, each group's block written at its rows as
    it arrives (NaN where a group returned none), and one failure cause per
    row, ``None`` for a trained row.  If a worker dies, the error names the
    first group without a result by the ``labels`` of its methods and its
    replicate ids.
    """
    positions = np.arange(cfg.train_len, len(prices))
    actual = window_minmax_scale(prices.values, cfg.scale_window)
    spans = _group_spans(len(paths), jobs, _group_cap(cfg.train))
    tasks = [(paths[span.start : span.stop],
              [derive_seed(cfg.train.seed, k % cfg.reps) for k in span],
              cfg.train, actual, positions)
             for span in spans]
    predictions = np.full((len(paths), len(positions)), np.nan)
    causes: list[str | None] = []
    workers = min(jobs, len(tasks))

    def collect(results):
        for span, (block, group_causes) in zip(spans, results):
            if block is not None:
                predictions[span.start : span.stop] = block
            causes.extend(group_causes)

    if workers <= 1:
        collect(map(_group_task, tasks))
        return predictions, causes
    # imported here, not at module level: a run that forks no worker never loads
    # multiprocessing and the socket, subprocess and logging modules it pulls in
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(_group_task, tasks))
    except BrokenProcessPool as exc:
        # the first group without a result starts at the first row without a cause
        lost: dict = {}  # method label -> replicate ids of that group
        for k in next(span for span in spans if span.start == len(causes)):
            lost.setdefault(labels[k // cfg.reps], []).append(str(k % cfg.reps))
        named = "; ".join(", ".join(ids) if label is None else f"{label} {', '.join(ids)}"
                          for label, ids in lost.items())
        raise PipelineError(
            "train", f"a worker process died: first group without a result: {named}"
        ) from exc
    return predictions, causes


def _finish(prices: PriceSeries, draw: _Draw, predictions: np.ndarray,
            causes: list[str | None], label: str | None, timings: dict) -> PipelineResult:
    """Check one method's failures, then take its quantile band over its trained rows.

    With no failure, ``predictions``, the method's rows of the prediction
    matrix, is kept as is.  The result holds the run's ``timings`` dict itself.
    """
    cfg = draw.cfg
    failed = {idx: cause for idx, cause in enumerate(causes) if cause is not None}
    if len(failed) > cfg.allow_failures:
        raise ReplicateFailureError(failed, cfg.allow_failures, label)
    trained = [idx for idx, cause in enumerate(causes) if cause is None]
    if len(trained) < 2:
        raise PipelineError("train", f"only {len(trained)} replicate(s) trained; need >= 2", label)
    if failed:
        predictions = predictions[trained]
    actual_test = prices.values[cfg.train_len :]

    with timed(timings, _stage(label, "quantile-band")):
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
            reps=len(trained),
        )
        coverage = float(np.mean((actual_test >= lower) & (actual_test <= upper)))
    return PipelineResult(
        band=band,
        curve=draw.curve,
        predictions=predictions,
        replicate_ids=tuple(trained),
        failed_ids=tuple(failed),
        actual=actual_test,
        coverage=coverage,
        timings=timings,
    )


def _run(prices: PriceSeries, cfg: PipelineConfig, methods: tuple[BootstrapMethod, ...],
         jobs: int) -> list[PipelineResult]:
    """Draw for every method, train all their replicates together, then finish each.

    Returns one result per method, all holding the run's one timings dict.
    With several methods, a failing method's error and its stage keys name it.
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
    if BootstrapMethod.LBB in methods:
        # so is an LBB locality window that the training returns cannot hold
        lbb_halo(train_len - 1, cfg.selector.locality)
    # one replicate matrix and one prediction matrix, a block of reps rows per method
    blocks = [slice(k * cfg.reps, (k + 1) * cfg.reps) for k in range(len(methods))]
    paths = np.empty((len(methods) * cfg.reps, train_len))
    timings: dict = {}
    draws = [_draw(prices, method_cfg, label, paths[rows], timings)
             for method_cfg, label, rows in zip(cfgs, labels, blocks)]
    with timed(timings, "train-predict"):
        predictions, causes = _train_predict(prices, cfg, paths, labels, jobs)
    return [_finish(prices, draw, predictions[rows], causes[rows], label, timings)
            for draw, rows, label in zip(draws, blocks, labels)]


def run(prices: PriceSeries, cfg: PipelineConfig, jobs: int = 1) -> PipelineResult:
    """Execute the full band construction for the bootstrap method ``cfg.method``."""
    (result,) = _run(prices, cfg, (cfg.method,), jobs)
    return result


@dataclass(frozen=True)
class MethodComparison:
    """Per-method results ranked ascending by comparing factor."""

    results: dict[BootstrapMethod, PipelineResult]
    ranking: tuple[BootstrapMethod, ...]
    timings: dict                    # the results' one timings dict

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
    results = dict(zip(methods, _run(prices, cfg, methods, jobs)))
    ranking = tuple(
        sorted(results, key=lambda m: (results[m].band.comparing_factor, m.value))
    )
    return MethodComparison(results=results, ranking=ranking, timings=results[methods[0]].timings)
