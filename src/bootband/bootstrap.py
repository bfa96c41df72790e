"""Block-bootstrap resampling for dependent data.

Three schemes are provided, each producing a pseudo-series of the same
length as the input by concatenating sampled blocks and truncating:

* non-overlapping (``nbb``): blocks start on the fixed grid 0, l, 2l, ...;
  the last grid block may be shorter than ``l`` when ``l`` does not divide
  ``n`` and is used as-is (no wrap-around).
* moving (``mbb``): blocks of length ``l`` drawn uniformly with replacement
  from all ``n - l + 1`` overlapping starts.
* local (``lbb``): block ``m`` is drawn from starts within ``floor(n * B)``
  positions of its own output offset, so the pseudo-series stays close to
  the original path locally.

Every draw comes from a sub-stream keyed by ``(plan.seed, stream)``, so a
batch of resamples is reproducible element-by-element regardless of
evaluation order.  The drawn block starts are kept on the result for audit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .errors import ValidationError
from .timeseries import _freeze


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


@dataclass(frozen=True)
class PseudoSeries:
    """A resampled series and the drawn block starts."""

    values: np.ndarray
    starts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))


def _check_input(x: np.ndarray, plan: BlockPlan) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValidationError("cannot resample an empty series")
    if plan.block_len > x.size:
        raise ValidationError(f"block_len {plan.block_len} exceeds series length {x.size}")
    return x


def nbb_resample(x, plan: BlockPlan, stream: int = 0) -> PseudoSeries:
    """Non-overlapping block bootstrap.

    Draws starts uniformly from the grid {0, l, 2l, ...} until the laid
    blocks cover ``n`` values, then truncates.  When ``l`` divides ``n``
    this is exactly ``n / l`` draws; otherwise the shortened boundary block
    can force extra draws to reach full length.
    """
    if plan.method is not BootstrapMethod.NBB:
        raise ValidationError(f"plan method {plan.method} is not nbb")
    x = _check_input(x, plan)
    n, l = x.size, plan.block_len
    big_l = -(-n // l)
    rng = substream(plan.seed, stream)
    starts = (rng.integers(0, big_l, size=big_l) * l).tolist()
    covered = int(np.minimum(l, n - np.asarray(starts)).sum())
    while covered < n:
        start = int(rng.integers(0, big_l)) * l
        starts.append(start)
        covered += min(l, n - start)
    idx = np.concatenate([np.arange(s, min(s + l, n)) for s in starts])[:n]
    return PseudoSeries(values=x[idx], starts=tuple(starts))


def mbb_resample(x, plan: BlockPlan, stream: int = 0) -> PseudoSeries:
    """Moving block bootstrap: ceil(n/l) uniform draws from all overlapping blocks."""
    if plan.method is not BootstrapMethod.MBB:
        raise ValidationError(f"plan method {plan.method} is not mbb")
    x = _check_input(x, plan)
    n, l = x.size, plan.block_len
    n_blocks = n - l + 1
    k = -(-n // l)
    rng = substream(plan.seed, stream)
    drawn = rng.integers(0, n_blocks, size=k)
    idx = (drawn[:, None] + np.arange(l)).ravel()[:n]
    return PseudoSeries(values=x[idx], starts=tuple(int(s) for s in drawn))


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


def lbb_resample(x, plan: BlockPlan, stream: int = 0) -> PseudoSeries:
    """Local block bootstrap: block ``m`` starts within ``floor(n*B)`` of offset ``m*l``."""
    if plan.method is not BootstrapMethod.LBB:
        raise ValidationError(f"plan method {plan.method} is not lbb")
    x = _check_input(x, plan)
    n, l = x.size, plan.block_len
    halo = math.floor(n * plan.locality + 1e-9)
    if halo < 1:
        raise ValidationError(
            f"locality {plan.locality} gives floor(n*B) = {halo}; need >= 1 for n = {n}"
        )
    lo, hi = lbb_start_windows(n, l, halo)
    rng = substream(plan.seed, stream)
    starts = rng.integers(lo, hi + 1)
    idx = (starts[:, None] + np.arange(l)).ravel()[:n]
    return PseudoSeries(values=x[idx], starts=tuple(int(s) for s in starts))


_RESAMPLERS = {
    BootstrapMethod.NBB: nbb_resample,
    BootstrapMethod.MBB: mbb_resample,
    BootstrapMethod.LBB: lbb_resample,
}


def resample(x, plan: BlockPlan, stream: int = 0) -> PseudoSeries:
    """Dispatch to the resampler named by ``plan.method``."""
    return _RESAMPLERS[plan.method](x, plan, stream)


def batch_resample(x, plan: BlockPlan, count: int) -> list[PseudoSeries]:
    """Draw ``count`` pseudo-series on sub-streams 0 .. count-1 of ``plan.seed``."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    fn = _RESAMPLERS[plan.method]
    return [fn(x, plan, stream) for stream in range(count)]
