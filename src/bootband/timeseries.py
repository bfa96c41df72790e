"""Price series ingestion, log-return transforms, and windowed min-max scaling.

Log returns are plain arrays; the price series and the scale records are
frozen dataclasses holding read-only numpy arrays, so instances can be
shared freely across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import (
    CsvFormatError,
    DuplicateDateError,
    MissingColumnError,
    NonPositivePriceError,
    ValidationError,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PriceSeries:
    """Ordered finite, positive closing prices with a calendar-date index."""

    timestamps: tuple[date, ...]
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        if len(self.values) != len(self.timestamps):
            raise ValidationError("timestamps and values must have equal length")
        if len(self.values) < 2:
            raise ValidationError("a price series needs at least 2 observations")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("all prices must be finite")
        if not np.all(self.values > 0):
            raise NonPositivePriceError("all prices must be strictly positive")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if not a < b:
                raise ValidationError(f"timestamps must be strictly increasing ({a} !< {b})")

    def __len__(self) -> int:
        return len(self.values)


def load_csv(path: str | Path, column: str) -> PriceSeries:
    """Load one numeric column of a dated CSV as a :class:`PriceSeries`.

    The first column must hold ISO-8601 dates; the remaining columns are
    named numeric fields.  Rows whose selected cell is empty are dropped,
    the rest are sorted by date.  Duplicate dates, infinite and non-positive
    prices are rejected.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if len(header) < 2:
            raise CsvFormatError(f"{path}: need a date column plus at least one value column")
        names = [h.strip() for h in header[1:]]
        if column not in names:
            raise MissingColumnError(f"{path}: no column {column!r} (have {names})")
        col_idx = 1 + names.index(column)

        rows: list[tuple[date, float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                ts = date.fromisoformat(row[0].strip())
            except (ValueError, IndexError) as exc:
                raise CsvFormatError(f"{path}:{lineno}: bad date {row[0]!r}") from exc
            cell = row[col_idx].strip() if col_idx < len(row) else ""
            if not cell or cell.lower() in ("nan", "null", "na"):
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise CsvFormatError(f"{path}:{lineno}: non-numeric {column!r} cell {cell!r}") from exc
            if math.isnan(value):
                continue
            if math.isinf(value):
                raise CsvFormatError(f"{path}:{lineno}: non-finite {column!r} cell {cell!r}")
            if value <= 0:
                raise NonPositivePriceError(f"{path}:{lineno}: non-positive price {value}")
            rows.append((ts, value))

    if len(rows) < 2:
        raise CsvFormatError(f"{path}: fewer than 2 usable rows")
    rows.sort(key=lambda r: r[0])
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise DuplicateDateError(f"{path}: duplicate date {a.isoformat()}")
    return PriceSeries(
        timestamps=tuple(r[0] for r in rows),
        values=np.array([r[1] for r in rows]),
        name=column,
    )


def to_log_returns(prices: np.ndarray) -> np.ndarray:
    """ln(p[t+1] / p[t]) for consecutive prices; ``prices[0]`` is the anchor."""
    return np.diff(np.log(prices))


def from_log_returns(returns: np.ndarray, anchor_price: float) -> np.ndarray:
    """Invert the log-return transform back to positive price paths.

    ``returns`` is one series or a ``(k, n)`` matrix of series, one per row,
    and ``anchor_price`` is the price preceding the first return of each.
    Returns the reconstructed price values, ``n + 1`` per series; the
    caller owns any date index.
    """
    returns = np.asarray(returns, dtype=np.float64)
    # one matrix: the steps are exponentiated into it and multiplied up in place
    steps = np.empty(returns.shape[:-1] + (returns.shape[-1] + 1,))
    steps[..., 0] = anchor_price
    np.exp(returns, out=steps[..., 1:])
    return np.multiply.accumulate(steps, axis=-1, out=steps)


@dataclass(frozen=True)
class WindowScale:
    """Per-segment (min, max) records from :func:`window_minmax_scale`.

    Segment ``k`` covers positions ``[k * window_len, (k + 1) * window_len)``
    of the original sequence; the last segment may be shorter.
    """

    window_len: int
    mins: np.ndarray
    maxs: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "mins", _freeze(self.mins))
        object.__setattr__(self, "maxs", _freeze(self.maxs))

    def denormalize(self, scaled: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Map scaled values at the given original positions back to raw units."""
        positions = np.asarray(positions, dtype=np.intp)
        if positions.size and (positions.min() < 0 or positions.max() >= self.n):
            raise ValidationError("positions outside the scaled range")
        seg = positions // self.window_len
        lo, hi = self.mins[seg], self.maxs[seg]
        return np.asarray(scaled, dtype=np.float64) * (hi - lo) + lo


def window_minmax_scale(x, window_len: int) -> tuple[np.ndarray, WindowScale]:
    """Scale each consecutive ``window_len`` segment to [0, 1] by its own min/max.

    A degenerate segment (max == min) maps to all zeros; the recorded pair
    still denormalizes back to the constant.  Returns the scaled sequence
    and the per-segment scale records needed to undo the mapping.
    """
    x = np.asarray(x, dtype=np.float64)
    if window_len < 1:
        raise ValidationError("window_len must be >= 1")
    n = len(x)
    n_seg = -(-n // window_len) if n else 0
    mins = np.empty(n_seg)
    maxs = np.empty(n_seg)
    scaled = np.empty(n)
    for k in range(n_seg):
        seg = x[k * window_len : (k + 1) * window_len]
        lo, hi = seg.min(), seg.max()
        mins[k], maxs[k] = lo, hi
        scaled[k * window_len : (k + 1) * window_len] = (
            np.zeros(len(seg)) if hi == lo else (seg - lo) / (hi - lo)
        )
    return scaled, WindowScale(window_len=window_len, mins=mins, maxs=maxs, n=n)
