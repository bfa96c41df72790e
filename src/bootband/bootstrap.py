"""Block-bootstrap resampling for dependent data.

Three schemes are provided.  They differ only in how block starts are
drawn; :func:`batch_resample` then lays the blocks at those starts end to
end and truncates to the input length ``n``:

* non-overlapping (``nbb``): blocks start on the fixed grid 0, l, 2l, ...;
  the last grid block may be shorter than ``l`` when ``l`` does not divide
  ``n`` and is used as-is (no wrap-around).
* moving (``mbb``): blocks of length ``l`` drawn uniformly with replacement
  from all ``n - l + 1`` overlapping starts.
* local (``lbb``): block ``m`` is drawn from starts within ``floor(n * B)``
  positions of its own output offset, so the pseudo-series stays close to
  the original path locally.

Row ``k`` of a batch is drawn from the sub-stream keyed by
``(plan.seed, k)``, so every row is reproducible on its own regardless of
the batch size.  Every row's starts, for the band and for block-length
selection alike, are mapped from its raw PCG64 words by the multiply-shift
rule of ``Generator.integers`` (Lemire 2019, ACM TOMACS 29(1)) in one pass:
an NBB row's top-ups, drawn until its blocks cover ``n``, are mapped with its
main draw from the words after it.  A row that rule cannot map is redrawn by
:func:`draw_starts`, and every row is laid by :func:`_laid_values`.  The
drawn block starts are returned for audit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .errors import ValidationError

# 32-bit words per row for NBB top-ups, after the main draw's; a row that needs more is redrawn
_TOPUP_WORDS = 16
# batch_resample lays its rows in slices of at most this many values (or one row);
# a slice's index and values come on top of the value matrix, so they are kept small
_SLICE_VALUES = 1 << 13


class BootstrapMethod(str, enum.Enum):
    NBB = "nbb"
    MBB = "mbb"
    LBB = "lbb"


@dataclass(frozen=True)
class BlockPlan:
    """Everything that determines a resample: method, block length, locality, seed."""

    method: BootstrapMethod
    block_len: int
    locality: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "method", BootstrapMethod(self.method))
        if self.block_len < 1:
            raise ValidationError("block_len must be >= 1")
        if self.method is BootstrapMethod.LBB:
            if self.locality is None:
                raise ValidationError("LBB requires a locality fraction")
            if not 0 < self.locality <= 1:
                raise ValidationError(f"locality must lie in (0, 1], got {self.locality}")
        # NBB and MBB never read it, but a manifest records it and JSON has no NaN
        if self.locality is not None and not math.isfinite(self.locality):
            raise ValidationError(f"locality must be finite, got {self.locality}")


def lbb_halo(n: int, locality: float) -> int:
    """The LBB start-window half-width ``floor(n * B)``; it must be at least 1."""
    halo = math.floor(n * locality + 1e-9)
    if halo < 1:
        raise ValidationError(
            f"locality {locality} gives floor(n*B) = {halo}; need >= 1 for n = {n}"
        )
    return halo


def lbb_start_windows(n: int, l: int, halo: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based inclusive start windows per block: [max(0, ml - halo),
    min(n - l, ml + halo)], centered on each block's output offset; the
    upper clamp keeps a full block inside the series.  Both bounds are
    capped at n - l, so when a tail block sits closer than ``halo`` to the
    end of a series that cannot fit a full block there, its window
    degenerates to the nearest feasible start instead of turning empty.
    """
    offsets = np.arange(-(-n // l)) * l
    lo = np.minimum(np.maximum(0, offsets - halo), n - l)
    hi = np.minimum(n - l, offsets + halo)
    return lo, hi


def draw_starts(rng, n: int, plan: BlockPlan) -> np.ndarray:
    """One row's block starts in laying order, drawn from ``rng`` by the rule of ``plan.method``."""
    l = plan.block_len
    if plan.method is BootstrapMethod.NBB:
        # the last grid block is short when l does not divide n, so each draw
        # of it can force scalar top-up draws until the blocks cover n
        big_l = -(-n // l)
        starts = (rng.integers(0, big_l, size=big_l) * l).tolist()
        covered = sum(min(l, n - start) for start in starts)
        while covered < n:
            starts.append(int(rng.integers(0, big_l)) * l)
            covered += min(l, n - starts[-1])
        return np.array(starts)
    if plan.method is BootstrapMethod.MBB:
        return rng.integers(0, n - l + 1, size=-(-n // l))
    lo, hi = lbb_start_windows(n, l, lbb_halo(n, plan.locality))
    return rng.integers(lo, hi + 1)


def _read_words(seed: int, reps: int, n: int, l_min: int) -> np.ndarray:
    """The 32-bit words of sub-stream ``(seed, k)`` in row ``k < reps``, enough
    for any block length from ``l_min`` on, NBB top-ups included.

    A word is one half of a raw 64-bit output, the low half first: the order
    in which ``Generator.integers`` reads them for bounds up to ``2**32``.
    Each row is one little-endian view of its raw outputs, which puts the
    words in that order on any byte order.
    """
    pairs = (-(-n // l_min) + _TOPUP_WORDS + 1) // 2
    words = np.empty((reps, 2 * pairs), dtype=np.uint32)
    for k, row in enumerate(words):
        row[:] = substream(seed, k).bit_generator.random_raw(pairs).astype("<u8").view("<u4")
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
    threshold = (np.uint64(1 << 32) - bound) % bound
    # the low half of m, as the product modulo 2**32: a uint64 copy would add to the peak
    low = np.multiply(words, bound.astype(np.uint32), dtype=np.uint32)
    rejected = (low < threshold.astype(np.uint32)).any(axis=1)
    np.multiply(words, bound, out=out, dtype=np.uint64)
    out >>= 32
    return rejected


def _start_matrix(words, n: int, plan: BlockPlan, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Every row's :func:`draw_starts` starts as one C-contiguous int64 matrix, and each row's size.

    Row ``k`` is mapped from its words ``words[k]``, read from sub-stream
    ``(plan.seed, first + k)``, by one :func:`_lemire_draws` pass; for NBB
    with a short grid block the pass runs on past the main draw into the
    ``_TOPUP_WORDS`` words after it.  A row's size is the number of draws it
    takes to cover ``n``, as in :func:`draw_starts`, and NBB rows are padded
    with zeros after their last start.  A row that rejects a word, or that
    needs more draws than it was mapped, is redrawn by :func:`draw_starts`
    from a fresh generator of that sub-stream.
    """
    l = plan.block_len
    big_l = -(-n // l)
    gap = big_l * l - n
    if plan.method is BootstrapMethod.LBB:
        lo, hi = lbb_start_windows(n, l, lbb_halo(n, plan.locality))
        bound = hi - lo + 1  # a clamped tail window holds one start and reads no word
    else:
        lo, bound = 0, big_l if plan.method is BootstrapMethod.NBB else n - l + 1
    width = big_l + (_TOPUP_WORDS if plan.method is BootstrapMethod.NBB and gap else 0)
    draws = np.empty((len(words), width), dtype=np.uint64)
    redraw = _lemire_draws(words[:, :width], bound, draws)
    sizes = np.full(len(words), big_l)
    if width > big_l:
        # column 0 holds the values the main draw covers, column j those top-up j adds
        # (l - gap for the short grid block, else l); top-ups are taken until n is covered
        covered = np.where(draws[:, big_l - 1 :] == big_l - 1, l - gap, l)
        covered[:, 0] = big_l * l - gap * np.count_nonzero(draws[:, :big_l] == big_l - 1, axis=1)
        sizes += np.count_nonzero(covered.cumsum(axis=1) < n, axis=1)
        redraw |= sizes > width
        draws[np.arange(width) >= sizes[:, None]] = 0
    starts = draws.view(np.int64)
    if plan.method is BootstrapMethod.LBB:
        starts += lo
    elif plan.method is BootstrapMethod.NBB:
        starts *= l
    for k in np.flatnonzero(redraw).tolist():
        row = draw_starts(substream(plan.seed, first + k), n, plan)
        if row.size > starts.shape[1]:
            starts = np.pad(starts, ((0, 0), (0, row.size - starts.shape[1])))
        starts[k, : row.size], starts[k, row.size :] = row, 0
        sizes[k] = row.size
    return starts, sizes


def _laid_values(x, starts, l: int, first, need) -> np.ndarray:
    """The values of the rows laid from the ``starts`` matrix, concatenated in row order.

    The block at start ``s`` keeps its ``min(l, n - s)`` values inside the
    series and the blocks of a row run end to end.  Row ``k`` is laid from its
    block ``first[k]`` on and keeps its first ``need[k]`` values, which with
    the skipped blocks' values stay within the ``n`` its starts cover, so the
    zeros that pad an NBB row add none.  ``first`` or ``need`` may be a scalar.
    """
    n = x.size
    # in place and dropped early: these arrays bound the peak memory of a slice
    lens = np.minimum(n - starts, l)
    lens *= np.arange(starts.shape[1]) >= np.reshape(first, (-1, 1))
    before = np.cumsum(lens, axis=1)
    before -= lens
    np.subtract(np.reshape(need, (-1, 1)), before, out=before)
    np.clip(before, 0, lens, out=lens)
    del before
    lens = lens.ravel()
    at = np.cumsum(lens)
    at -= lens
    np.subtract(starts.ravel(), at, out=at)
    idx = np.repeat(at, lens)
    del at
    idx += np.arange(idx.size)
    return x[idx]


def batch_resample(x, plan: BlockPlan, count: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Draw ``count`` pseudo-series of ``x`` on sub-streams 0 .. count-1 of ``plan.seed``.

    Returns the read-only ``(count, n)`` value matrix and, per row, the
    drawn block starts in laying order (NBB rows can hold different numbers
    of starts), mapped by :func:`_start_matrix` as selection maps them.  The
    rows are laid by :func:`_laid_values` in slices of at most
    ``_SLICE_VALUES`` values (or one row); positions past the end of the
    series are dropped, which shortens only an NBB grid block when ``l`` does
    not divide ``n``; MBB and LBB starts always leave room for a full block.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        raise ValidationError("cannot resample an empty series")
    if plan.block_len > n:
        raise ValidationError(f"block_len {plan.block_len} exceeds series length {n}")
    matrix, sizes = _start_matrix(_read_words(plan.seed, count, n, plan.block_len), n, plan)
    values = np.empty((count, n))
    step = max(1, _SLICE_VALUES // n)
    for lo in range(0, count, step):
        laid = _laid_values(x, matrix[lo : lo + step], plan.block_len, 0, n)
        values[lo : lo + step] = laid.reshape(-1, n)
    values.setflags(write=False)
    return values, [row[:size] for row, size in zip(matrix, sizes.tolist())]
