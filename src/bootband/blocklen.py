"""Penalized-distance selection of the bootstrap block length.

For each candidate length ``l`` the series and its bootstrap replicates are
reduced to non-overlapping block means, and the objective

    (1/M) * sum_i (l/n) * sum_T (rep_mean[T, i] - orig_mean[T])**2
        + (log(n) / n**t) * l

is evaluated.  The squared-distance term rewards replicates whose coarse
structure tracks the original; the linear penalty makes the curve convex in
``l`` so the argmin is stable.  Selection runs every candidate on the same
base seed, so results are reproducible and common random numbers damp the
candidate-to-candidate noise.  Each candidate draws all its replicates as
one ``(M, n)`` value matrix, and :func:`distance` reduces that matrix with
one reshape; the :class:`SelectorCurve` returned by
:func:`select_block_length` holds the distance, penalty and objective of
every candidate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bootstrap import BlockPlan, BootstrapMethod, batch_resample
from .errors import ValidationError
from .timeseries import _freeze


@dataclass(frozen=True)
class SelectorConfig:
    """Knobs for :func:`select_block_length`.

    ``l_max=None`` resolves to ``min(50, n // 4)`` (clamped to >= 1) when the
    series length is known.  ``locality`` only matters for the LBB method.
    """

    method: BootstrapMethod = BootstrapMethod.MBB
    reps: int = 100
    l_min: int = 1
    l_max: int | None = None
    t: float = 2.0
    locality: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", BootstrapMethod(self.method))
        if self.reps < 1:
            raise ValidationError("reps must be >= 1")
        if not (math.isfinite(self.t) and self.t > 0):  # NaN fails too
            raise ValidationError(f"penalty exponent t must be finite and > 0, got {self.t}")
        if self.l_min < 1:
            raise ValidationError("l_min must be >= 1")
        if self.l_max is not None and self.l_max < self.l_min:
            raise ValidationError("l_max must be >= l_min")

    def resolved_l_max(self, n: int) -> int:
        if self.l_max is not None:
            if self.l_max > n:
                raise ValidationError(f"l_max {self.l_max} exceeds series length {n}")
            return self.l_max
        return max(self.l_min, min(50, n // 4))


@dataclass(frozen=True)
class SelectorCurve:
    """Objective decomposition per candidate length, in ascending ``l`` order."""

    lengths: np.ndarray
    distances: np.ndarray
    penalties: np.ndarray
    objectives: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lengths", np.ascontiguousarray(self.lengths, dtype=np.intp))
        self.lengths.setflags(write=False)
        for name in ("distances", "penalties", "objectives"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["l", "distance", "penalty", "objective"])
            for l, d, p, o in zip(self.lengths, self.distances, self.penalties, self.objectives):
                w.writerow([int(l), repr(float(d)), repr(float(p)), repr(float(o))])


def block_means(x, l: int) -> np.ndarray:
    """Means of consecutive length-``l`` blocks along the last axis.

    ``x`` is one series or a matrix with one series per row; the trailing
    remainder of each is dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if not 1 <= l <= n:
        raise ValidationError(f"block length {l} outside [1, {n}]")
    b = n // l
    return x[..., : b * l].reshape(x.shape[:-1] + (b, l)).mean(axis=-1)


def distance(x, replicates, l: int) -> float:
    """Average scaled squared distance between replicate and original block means.

    ``replicates`` is an ``(M, n)`` matrix, one replicate per row.  Each
    row's squared norm is a vector dot product and the rows are summed left
    to right, so the result equals a one-replicate-at-a-time loop bit for
    bit; ``einsum`` or ``np.sum`` would reorder the additions.
    """
    x = np.asarray(x, dtype=np.float64)
    replicates = np.asarray(replicates, dtype=np.float64)
    n = x.size
    if replicates.ndim != 2 or replicates.shape[1] != n:
        raise ValidationError(f"replicates of shape {replicates.shape} do not match series length {n}")
    diff = block_means(replicates, l) - block_means(x, l)
    sq = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    return float(np.add.accumulate((l / n) * sq)[-1]) / len(replicates)


def length_penalty(n: int, l: int, t: float) -> float:
    """The convexifying linear penalty log(n) / n**t * l."""
    return math.log(n) / n**t * l


def select_block_length(x, cfg: SelectorConfig) -> tuple[int, SelectorCurve]:
    """Evaluate the objective over the candidate range and return the argmin.

    Ties break toward the smaller length.  The full curve is returned so the
    convexity can be plotted or re-checked.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    l_max = cfg.resolved_l_max(n)
    if cfg.l_min > n:
        raise ValidationError(f"l_min {cfg.l_min} exceeds series length {n}")
    lengths = np.arange(cfg.l_min, l_max + 1)
    dists = np.empty(len(lengths))
    pens = np.empty(len(lengths))
    for j, l in enumerate(lengths.tolist()):
        plan = BlockPlan(method=cfg.method, block_len=l, locality=cfg.locality, seed=cfg.seed)
        replicates, _ = batch_resample(x, plan, cfg.reps)
        dists[j], pens[j] = distance(x, replicates, l), length_penalty(n, l, cfg.t)
    objs = dists + pens
    curve = SelectorCurve(lengths=lengths, distances=dists, penalties=pens, objectives=objs)
    l_opt = int(lengths[int(np.argmin(objs))])
    return l_opt, curve
