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
the draw changes with ``l``.  Each row's raw PCG64 words are read once per
selection, and a candidate's ``(M, ceil(n / l))`` start matrix is mapped
from them in one vectorized pass by the multiply-shift rule that
``Generator.integers`` applies (Lemire 2019, "Fast Random Integer Generation
in an Interval", ACM TOMACS 29(1)).  A row where that rule would reject a
word, or whose NBB top-ups run past the words read, is redrawn exactly by
:func:`draw_starts` from a fresh generator of its sub-stream, so every start
equals :func:`batch_resample`'s.  A candidate is scored from the block starts it
draws, not from laid-out replicates: a replicate block is a source window
wherever the blocks before it all have full length, so its mean is read off
the means of the drawn windows, and only rows laid after a short NBB grid
block are gathered from that block on.  No ``(M, n)`` replicate matrix is
built, the block means equal those of :func:`batch_resample`'s replicates
bit for bit, and :func:`distance` scores them.  The :class:`SelectorCurve`
returned by :func:`select_block_length` holds the distance, penalty and
objective of every candidate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rng import substream
from .bootstrap import BlockPlan, BootstrapMethod, draw_starts, lbb_halo, lbb_start_windows
# selection no longer lays replicates, but perfbench/traced_cli.py still wraps
# this name here
from .bootstrap import batch_resample  # noqa: F401
from .errors import ValidationError
from .timeseries import _freeze

# Window means are averaged in gathered slices of at most this many values
# (1 MB), so a long candidate length allocates no (n - l + 1, l) matrix.
# Rejection masks are taken in row slices of the same size.
_GATHER_ELEMENTS = 1 << 17

# Rows laid after a short NBB block are laid in slices of about this many
# values (or one row); each slice holds a few index arrays of that size.
_LAY_ELEMENTS = 1 << 15

# 32-bit words read per row beyond the ceil(n / l_min) of the longest main
# draw, for NBB top-ups; a row whose top-ups need more is redrawn
_TOPUP_WORDS = 16


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
        if not (math.isfinite(self.t) and self.t > 0):  # NaN fails too
            raise ValidationError(f"penalty exponent t must be finite and > 0, got {self.t}")
        if self.l_min < 1:
            raise ValidationError("l_min must be >= 1")
        if self.l_max is not None and self.l_max < self.l_min:
            raise ValidationError("l_max must be >= l_min")
        # written so that NaN fails too; NBB and MBB never read locality
        if self.method is BootstrapMethod.LBB and not 0 < self.locality <= 1:
            raise ValidationError(f"locality must lie in (0, 1], got {self.locality}")

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


def _read_words(seed: int, reps: int, count: int) -> np.ndarray:
    """At least ``count`` 32-bit words of sub-stream ``(seed, k)`` in row ``k < reps``.

    A word is one half of a raw 64-bit output, the low half first: the order
    in which ``Generator.integers`` reads them for bounds up to ``2**32``.
    """
    pairs = -(-count // 2)
    words = np.empty((reps, 2 * pairs), dtype=np.uint32)
    for k, row in enumerate(words):
        raw = substream(seed, k).bit_generator.random_raw(pairs)
        row[0::2] = raw & 0xFFFFFFFF
        row[1::2] = raw >> 32
    return words


def _lemire_draws(words, bound, out) -> np.ndarray:
    """``Generator.integers(0, bound)`` values from the 32-bit ``words`` each draw reads.

    ``words[:, j]`` is the word that draw ``j`` of a row reads when no draw
    before it rejects one; ``bound`` is a scalar or one bound per column.
    As numpy maps it, ``m = word * bound`` in 64 bits gives the value
    ``m >> 32``, and the draw is rejected (another word is read) when the low
    half of ``m`` is below ``(2**32 - bound) % bound``.  The values go to the
    uint64 matrix ``out``; the returned mask marks each row with a rejection,
    whose values are not what numpy draws.  A bound of 1 maps any word to 0
    and never rejects, so it may sit on a word that numpy does not read.
    """
    bound = np.asarray(bound, dtype=np.uint64)
    np.multiply(words, bound, out=out, dtype=np.uint64)
    threshold = (np.uint64(1 << 32) - bound) % bound
    rejected = np.zeros(len(out), dtype=bool)
    if threshold.any():
        step = max(1, _GATHER_ELEMENTS // out.shape[1])
        for lo in range(0, len(out), step):
            part = slice(lo, lo + step)
            rejected[part] = ((out[part] & 0xFFFFFFFF) < threshold).any(axis=1)
    out >>= 32
    return rejected


def _start_matrix(words, n: int, plan: BlockPlan) -> np.ndarray:
    """Every row's :func:`draw_starts` starts as one C-contiguous int64 matrix.

    Row ``k`` is mapped from its words ``words[k]``, read from sub-stream
    ``(plan.seed, k)``, by :func:`_lemire_draws`; a row with a rejection, or
    with more than ``_TOPUP_WORDS`` NBB top-ups, is redrawn by
    :func:`draw_starts` from a fresh generator of that sub-stream.  NBB rows
    are padded with zeros after their last start; a row's own starts already
    cover the ``n`` values it lays.
    """
    l = plan.block_len
    big_l = -(-n // l)
    gap = big_l * l - n
    if plan.method is BootstrapMethod.LBB:
        lo, hi = lbb_start_windows(n, l, lbb_halo(n, plan.locality))
        bound = hi - lo + 1  # a clamped tail window holds one start and reads no word
    else:
        lo, bound = 0, big_l if plan.method is BootstrapMethod.NBB else n - l + 1
    topups = _TOPUP_WORDS if plan.method is BootstrapMethod.NBB and gap else 0
    draws = np.zeros((len(words), big_l + topups), dtype=np.uint64)
    redraw = _lemire_draws(words[:, :big_l], bound, draws[:, :big_l])
    if topups:
        # each short grid block in the main draw after the first leaves n
        # uncovered by gap; top-ups read the words that follow the main draw
        deficit = gap * (np.count_nonzero(draws[:, :big_l] == big_l - 1, axis=1) - 1)
        rows = np.flatnonzero((deficit > 0) & ~redraw)
        top = np.empty((rows.size, topups), dtype=np.uint64)
        redraw[rows] |= _lemire_draws(words[rows, big_l : big_l + topups], big_l, top)
        covered = np.where(top == big_l - 1, l - gap, l).cumsum(axis=1)
        taken = np.count_nonzero(covered < deficit[rows, None], axis=1) + 1
        redraw[rows[taken > topups]] = True
        top[np.arange(topups) >= taken[:, None]] = 0
        draws[rows, big_l:] = top
    starts = draws.view(np.int64)
    if plan.method is BootstrapMethod.LBB:
        starts += lo
    elif plan.method is BootstrapMethod.NBB:
        starts *= l
    for k in np.flatnonzero(redraw).tolist():
        row = draw_starts([substream(plan.seed, k)], n, plan)[0]
        if row.size > starts.shape[1]:
            starts = np.pad(starts, ((0, 0), (0, row.size - starts.shape[1])))
        starts[k] = 0
        starts[k, : row.size] = row
    return starts


def _replicate_block_means(x, starts, l: int) -> np.ndarray:
    """:func:`block_means` of the replicates laid from the ``starts`` matrix, without laying them.

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
    heads = starts[:, :b]
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
    if n % l == 0:  # no start lies past n - l
        return means
    short = heads > n - l
    rows = np.flatnonzero(short.any(axis=1))
    first = short[rows].argmax(axis=1)
    # short rows are laid in slices of about _LAY_ELEMENTS values (or one row)
    cut = np.cumsum((b - first) * l) // _LAY_ELEMENTS
    parts = np.split(np.arange(rows.size), np.flatnonzero(np.diff(cut)) + 1) if rows.size else []
    for part in parts:
        r, c = np.nonzero(np.arange(b) >= first[part, None])
        means[rows[part][r], c] = _laid_block_means(x, starts[rows[part]], first[part], l)
    return means


def _laid_block_means(x, starts, first, l: int) -> np.ndarray:
    """Means of blocks ``first[k]`` to ``n // l - 1`` of each replicate laid from ``starts``.

    As :func:`batch_resample` lays them, the block at start ``s`` keeps its
    ``min(l, n - s)`` values inside the series and a row ends after ``n``
    values; blocks before ``first[k]`` have full length.  Every row's values
    from block ``first[k]`` on are gathered by one ``repeat`` and averaged
    ``l`` at a time, in row order.
    """
    n = x.size
    # in place and dropped early: these arrays bound the peak memory of a slice
    lens = np.minimum(n - starts, l)
    lens[np.arange(starts.shape[1]) < first[:, None]] = 0
    # keep only the (n // l - first) * l values that the block means read
    before = np.cumsum(lens, axis=1)
    before -= lens
    np.subtract(((n // l - first) * l)[:, None], before, out=before)
    np.clip(before, 0, lens, out=lens)
    del before
    lens = lens.ravel()
    at = np.cumsum(lens)
    at -= lens
    np.subtract(starts.ravel(), at, out=at)
    idx = np.repeat(at, lens)
    del at
    idx += np.arange(idx.size)
    return x[idx].reshape(-1, l).mean(axis=1)


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
    lengths = np.arange(cfg.l_min, l_max + 1)
    dists = np.empty(len(lengths))
    pens = np.empty(len(lengths))
    # every candidate maps row k from the same words of sub-stream (seed, k)
    words = _read_words(cfg.seed, cfg.reps, -(-n // cfg.l_min) + _TOPUP_WORDS)
    for j, l in enumerate(lengths.tolist()):
        plan = BlockPlan(method=cfg.method, block_len=l, locality=cfg.locality, seed=cfg.seed)
        means = _replicate_block_means(x, _start_matrix(words, n, plan), l)
        dists[j], pens[j] = distance(x, means, l), length_penalty(n, l, cfg.t)
        del means  # before the next candidate draws its starts
    objs = dists + pens
    curve = SelectorCurve(lengths=lengths, distances=dists, penalties=pens, objectives=objs)
    l_opt = int(lengths[int(np.argmin(objs))])
    return l_opt, curve
