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
matrix for audit.
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
                raise ValidationError("locality must lie in (0, 1]")


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


def _draw_starts(rng: np.random.Generator, n: int, plan: BlockPlan) -> np.ndarray:
    """Block starts in laying order, drawn by the rule of ``plan.method``."""
    l = plan.block_len
    if plan.method is BootstrapMethod.NBB:
        # the short grid block covers fewer than l values, so it can force extra draws
        big_l = -(-n // l)
        starts = (rng.integers(0, big_l, size=big_l) * l).tolist()
        covered = int(np.minimum(l, n - np.asarray(starts)).sum())
        while covered < n:
            start = int(rng.integers(0, big_l)) * l
            starts.append(start)
            covered += min(l, n - start)
        return np.asarray(starts)
    if plan.method is BootstrapMethod.MBB:
        return rng.integers(0, n - l + 1, size=-(-n // l))
    halo = math.floor(n * plan.locality + 1e-9)
    if halo < 1:
        raise ValidationError(
            f"locality {plan.locality} gives floor(n*B) = {halo}; need >= 1 for n = {n}"
        )
    lo, hi = lbb_start_windows(n, l, halo)
    return rng.integers(lo, hi + 1)


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
    values = np.empty((count, n))
    starts = []
    for k in range(count):
        row_starts = _draw_starts(substream(plan.seed, k), n, plan)
        idx = (row_starts[:, None] + offsets).ravel()
        values[k] = x[idx[idx < n][:n]]
        starts.append(row_starts)
    values.setflags(write=False)
    return values, starts
