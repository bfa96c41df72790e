"""Block-bootstrap resampling for dependent data.

Three schemes are provided.  They differ only in how block starts are
drawn; :func:`batch_resample` then lays the blocks at those starts end to
end with one gather and truncates to the input length ``n``:

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
the batch size.  The drawn block starts are returned next to the value
matrix for audit.  :func:`draw_starts` draws the starts from generators the
caller passes, so block-length selection can redraw one row from a saved
generator state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .errors import ValidationError


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


def draw_starts(rngs, n: int, plan: BlockPlan) -> list[np.ndarray]:
    """Block starts in laying order, one row per generator in ``rngs``, drawn
    by the rule of ``plan.method``.
    """
    l = plan.block_len
    if plan.method is BootstrapMethod.NBB:
        # the last grid block is short by ``gap`` values when l does not divide
        # n; each draw of it can force scalar top-up draws until n is covered
        big_l = -(-n // l)
        last, gap = (big_l - 1) * l, big_l * l - n
        rows = []
        for rng in rngs:
            starts = rng.integers(0, big_l, size=big_l) * l
            covered = big_l * l - gap * int(np.count_nonzero(starts == last))
            extra = []
            while covered < n:
                start = int(rng.integers(0, big_l)) * l
                extra.append(start)
                covered += min(l, n - start)
            rows.append(np.concatenate([starts, extra]) if extra else starts)
        return rows
    if plan.method is BootstrapMethod.MBB:
        return [rng.integers(0, n - l + 1, size=-(-n // l)) for rng in rngs]
    lo, hi = lbb_start_windows(n, l, lbb_halo(n, plan.locality))
    stop = hi + 1
    return [rng.integers(lo, stop) for rng in rngs]


def batch_resample(x, plan: BlockPlan, count: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Draw ``count`` pseudo-series of ``x`` on sub-streams 0 .. count-1 of ``plan.seed``.

    Returns the read-only ``(count, n)`` value matrix and, per row, the
    drawn block starts in laying order (NBB rows can hold different numbers
    of starts).  The blocks at the drawn starts are laid end to end by one
    gather and truncated to ``n``.  Positions past the end of the series are
    dropped first, which shortens only an NBB grid block when ``l`` does
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
    offsets = np.arange(plan.block_len)
    starts = draw_starts((substream(plan.seed, k) for k in range(count)), n, plan)
    values = np.empty((count, n))
    for k, row_starts in enumerate(starts):
        idx = (row_starts[:, None] + offsets).ravel()
        values[k] = x[idx[idx < n][:n]]
    values.setflags(write=False)
    return values, starts
