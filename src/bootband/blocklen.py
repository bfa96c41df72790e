"""Penalized-distance selection of the bootstrap block length.

For each candidate length ``l`` the series and its bootstrap replicates are
reduced to non-overlapping block means, and the objective

    (1/M) * sum_i (l/n) * sum_T (rep_mean[T, i] - orig_mean[T])**2
        + (log(n) / n**t) * l

is evaluated.  The squared-distance term rewards replicates whose coarse
structure tracks the original; the linear penalty makes the curve convex in
``l`` so the argmin is stable.  Selection runs every candidate on the same
base seed, so results are reproducible and common random numbers damp the
candidate-to-candidate noise.  Row ``k`` of every candidate therefore reads
the same 32-bit word stream of sub-stream ``(seed, k)``; only the bound of
the draw changes with ``l``.  The words are read once per selection, and
:mod:`bootband.bootstrap` maps each candidate's starts from them and lays
rows as it does for :func:`batch_resample`, so this module only scores.  A
replicate block is a source window wherever the blocks before it all have
full length, so its mean is read from one table of every window's mean; only
NBB rows after a short grid block are laid, from that block on, by the
band's own ``_laid_values``.  The ``M`` rows are scored in contiguous row
slices of at most ``_SLICE_ELEMENTS`` block starts; each row's squared
distance goes into one ``(M,)`` vector, averaged as :func:`distance`
averages it.  No ``(M, n)`` replicate matrix is built: beside the word
matrix, of ``ceil(n / l_min) + 16`` words per row, a candidate holds one
table and one slice.  The block means equal :func:`batch_resample`'s bit for
bit.  The :class:`SelectorCurve` returned by :func:`select_block_length`
holds the distance, penalty and objective of every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bootstrap import BlockPlan, BootstrapMethod, _laid_values, _read_words, _start_matrix
from .bootstrap import batch_resample  # noqa: F401  (perfbench/traced_cli.py wraps it here)
from .errors import ValidationError
from .timeseries import _freeze, write_csv

# A candidate's rows are scored in slices of at most this many block starts
# (or one row); NBB rows laid after a short grid block are laid in sub-slices
# of about this many values.  Only the word matrix holds M * n values.
_SLICE_ELEMENTS = 1 << 15


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
            raise ValidationError(f"selector reps must be >= 1, got {self.reps}")
        if self.seed < 0:
            raise ValidationError(f"selector seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.t) and self.t > 0):  # NaN fails too
            raise ValidationError(f"penalty exponent t must be finite and > 0, got {self.t}")
        if self.l_min < 1:
            raise ValidationError("l_min must be >= 1")
        if self.l_max is not None and self.l_max < self.l_min:
            raise ValidationError("l_max must be >= l_min")
        BlockPlan(method=self.method, block_len=1, locality=self.locality)  # checks locality

    def resolved_l_max(self, n: int) -> int:
        """The largest candidate length for ``n`` values; both bounds must fit in ``n``."""
        if self.l_max is not None and self.l_max > n:
            raise ValidationError(f"l_max {self.l_max} exceeds series length {n}")
        if self.l_min > n:
            raise ValidationError(f"l_min {self.l_min} exceeds series length {n}")
        return self.l_max if self.l_max is not None else max(self.l_min, min(50, n // 4))


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
        write_csv(path, ["l", "distance", "penalty", "objective"],
                  ([int(l), repr(float(d)), repr(float(p)), repr(float(o))]
                   for l, d, p, o in zip(self.lengths, self.distances, self.penalties, self.objectives)))


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
    return _mean_scaled(_squared_distances(replicate_means, orig), l, x.size)


def _squared_distances(means, orig) -> np.ndarray:
    """Each row's squared distance to ``orig``, one vector dot product per row."""
    diff = means - orig
    return (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]


def _mean_scaled(sq, l: int, n: int) -> float:
    """``(1/M) * sum_i (l/n) * sq[i]``, summed left to right over the ``M`` rows."""
    return float(np.add.accumulate((l / n) * sq)[-1]) / sq.size


def _window_means(x, l: int) -> np.ndarray:
    """The mean of the length-``l`` source window at each start, NaN past ``n - l``.

    Each window is averaged as one contiguous row, so its mean has the bits
    of :func:`block_means` of a block holding the same values.
    """
    table = np.full(x.size, np.nan)
    table[: x.size - l + 1] = np.lib.stride_tricks.sliding_window_view(x, l).mean(axis=1)
    return table


def _replicate_block_means(x, table, starts, l: int) -> np.ndarray:
    """:func:`block_means` of the replicates laid from the ``starts`` matrix, without laying them.

    Block ``T < n // l`` of a replicate is the source window at its ``T``-th
    start whenever every block before it has full length, so its mean is read
    from the :func:`_window_means` ``table``.  A start past ``n - l`` (the
    short NBB grid block) shifts every later block, so from that block on the
    row is laid by the band's own :func:`_laid_values` and averaged.
    """
    n = x.size
    b = n // l
    heads = starts[:, :b]
    means = table[heads]
    if n % l == 0:  # no start lies past n - l
        return means
    short = heads > n - l
    rows = np.flatnonzero(short.any(axis=1))
    first = short[rows].argmax(axis=1)
    # short rows are laid in sub-slices of about _SLICE_ELEMENTS values (or one row)
    cut = np.cumsum((b - first) * l) // _SLICE_ELEMENTS
    parts = np.split(np.arange(rows.size), np.flatnonzero(np.diff(cut)) + 1) if rows.size else []
    for part in parts:
        r, c = np.nonzero(np.arange(b) >= first[part, None])
        laid = _laid_values(x, starts[rows[part]], l, first[part], (b - first[part]) * l)
        means[rows[part][r], c] = laid.reshape(-1, l).mean(axis=1)
    return means


def _candidate_distance(x, words, plan: BlockPlan) -> float:
    """:func:`distance` of candidate ``plan.block_len``, scored in row slices.

    A slice holds at most ``_SLICE_ELEMENTS`` block starts (or one row), so
    beside ``words`` the memory held is one window-mean table and one slice.
    """
    n, l = x.size, plan.block_len
    table, orig = _window_means(x, l), block_means(x, l)
    step = max(1, _SLICE_ELEMENTS // -(-n // l))
    sq = np.empty(len(words))
    for lo in range(0, len(words), step):
        rows = slice(lo, lo + step)
        starts = _start_matrix(words[rows], n, plan, first=lo)[0]
        sq[rows] = _squared_distances(_replicate_block_means(x, table, starts, l), orig)
    return _mean_scaled(sq, l, n)


def length_penalty(n: int, l: int, t: float) -> float:
    """The convexifying linear penalty log(n) / n**t * l."""
    return math.log(n) / n**t * l


def select_block_length(x, cfg: SelectorConfig) -> tuple[int, SelectorCurve]:
    """Evaluate the objective over the candidate range and return the argmin.

    Ties break toward the smaller length.  The full curve is returned so the
    convexity can be plotted or re-checked.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"x must be one series, got shape {x.shape}")
    n = x.size
    l_max = cfg.resolved_l_max(n)
    lengths = np.arange(cfg.l_min, l_max + 1)
    dists = np.empty(len(lengths))
    pens = np.empty(len(lengths))
    # every candidate maps row k from the same words of sub-stream (seed, k)
    words = _read_words(cfg.seed, cfg.reps, n, cfg.l_min)
    for j, l in enumerate(lengths.tolist()):
        plan = BlockPlan(method=cfg.method, block_len=l, locality=cfg.locality, seed=cfg.seed)
        dists[j], pens[j] = _candidate_distance(x, words, plan), length_penalty(n, l, cfg.t)
    objs = dists + pens
    curve = SelectorCurve(lengths=lengths, distances=dists, penalties=pens, objectives=objs)
    l_opt = int(lengths[int(np.argmin(objs))])
    return l_opt, curve
