"""Penalized-distance selection of the bootstrap block length.

For each candidate length ``l`` the series and its bootstrap replicates are
reduced to non-overlapping block means, and the objective

    (1/M) * sum_i (l/n) * sum_T (rep_mean[T, i] - orig_mean[T])**2
        + (log(n) / n**t) * l

is evaluated.  The squared-distance term rewards replicates whose coarse
structure tracks the original; the linear penalty makes the curve convex in
``l`` so the argmin is stable.  Selection runs every candidate on the same
base seed, so results are reproducible and common random numbers damp the
candidate-to-candidate noise.  Row ``k`` of every candidate therefore starts
from the same sub-stream state: the ``M`` generators are built once per
selection and rewound before each candidate, which draws the same starts as
fresh generators.  A candidate is scored from the block starts it draws, not
from laid-out replicates: a replicate block is a source window wherever the
blocks before it all have full length, so its mean is read off the means of
the drawn windows, and only rows laid after a short NBB grid block are
gathered from that block on.  No ``(M, n)`` replicate matrix is built, the
block means equal those of :func:`batch_resample`'s replicates bit for bit,
and :func:`distance` scores them.  The :class:`SelectorCurve` returned by
:func:`select_block_length` holds the distance, penalty and objective of
every candidate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import substream
from .bootstrap import BlockPlan, BootstrapMethod, draw_starts
# selection no longer lays replicates, but perfbench/traced_cli.py still wraps
# this name here
from .bootstrap import batch_resample  # noqa: F401
from .errors import ValidationError
from .timeseries import _freeze

# Window means are averaged in gathered slices of at most this many values
# (1 MB), so a long candidate length allocates no (n - l + 1, l) matrix.
_GATHER_ELEMENTS = 1 << 17


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


def distance(x, replicate_means, l: int) -> float:
    """Average scaled squared distance between replicate and original block means.

    ``replicate_means`` is an ``(M, n // l)`` matrix, the :func:`block_means`
    of one replicate per row.  Each row's squared norm is a vector dot
    product and the rows are summed left to right, so the result equals a
    one-replicate-at-a-time loop bit for bit; ``einsum`` or ``np.sum`` would
    reorder the additions.
    """
    x = np.asarray(x, dtype=np.float64)
    replicate_means = np.asarray(replicate_means, dtype=np.float64)
    orig = block_means(x, l)
    if replicate_means.ndim != 2 or replicate_means.shape[1] != orig.size:
        raise ValidationError(
            f"replicate block means of shape {replicate_means.shape} do not match "
            f"{orig.size} blocks of length {l} in {x.size} values"
        )
    diff = replicate_means - orig
    sq = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
    return float(np.add.accumulate((l / x.size) * sq)[-1]) / len(replicate_means)


def _replicate_block_means(x, rows, l: int) -> np.ndarray:
    """:func:`block_means` of the replicates laid from the start ``rows``, without laying them.

    Block ``T < n // l`` of a replicate is the source window at its ``T``-th
    start whenever every block before it has full length, so its mean is that
    window's mean.  Window means are averaged only at the starts drawn, in
    gathered ``(k, l)`` slices of at most ``_GATHER_ELEMENTS`` values; a
    contiguous length-``l`` row averages to the same bits as the block it
    equals.  A start past ``n - l`` (the short NBB grid block) shifts every
    later block, so from that block on the row is laid and averaged as
    :func:`batch_resample` lays it.
    """
    n = x.size
    b = n // l
    heads = np.array([row[:b] for row in rows])
    used = np.zeros(n, dtype=bool)
    used[heads] = True
    at = np.flatnonzero(used[: n - l + 1])
    window_mean = np.full(n, np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(x, l)
    step = max(1, _GATHER_ELEMENTS // l)
    for lo in range(0, at.size, step):
        part = at[lo : lo + step]
        window_mean[part] = windows[part].mean(axis=1)
    means = window_mean[heads]
    short = heads > n - l
    offsets = np.arange(l)
    for k in np.flatnonzero(short.any(axis=1)).tolist():
        p = int(np.argmax(short[k]))
        idx = (rows[k][p:, None] + offsets).ravel()
        means[k, p:] = x[idx[idx < n][: (b - p) * l]].reshape(b - p, l).mean(axis=1)
    return means


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
    # every candidate draws row k from the same sub-stream state, so build
    # the generators once and rewind them before each candidate
    rngs = [substream(cfg.seed, k) for k in range(cfg.reps)]
    states = [rng.bit_generator.state for rng in rngs]
    for j, l in enumerate(lengths.tolist()):
        plan = BlockPlan(method=cfg.method, block_len=l, locality=cfg.locality, seed=cfg.seed)
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        means = _replicate_block_means(x, draw_starts(rngs, n, plan), l)
        dists[j], pens[j] = distance(x, means, l), length_penalty(n, l, cfg.t)
    objs = dists + pens
    curve = SelectorCurve(lengths=lengths, distances=dists, penalties=pens, objectives=objs)
    l_opt = int(lengths[int(np.argmin(objs))])
    return l_opt, curve
