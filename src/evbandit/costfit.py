"""Fit the discrete Markov cost chain from a real-time price trace.

Pipeline: resample the raw trace onto the slot grid, quantize slot prices
into K equal-count bins, then estimate the transition matrix from the state
sequence by smoothed frequency counts.  Levels are normalized by a retail
price so that a charging payment of 1 per slot corresponds to the retail
rate; by default the retail price is twice the trace mean, putting the mean
normalized cost near 0.5.  ``fit_cost_chain``'s signature holds the fit defaults.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .model import CostChain

__all__ = [
    "PriceTrace",
    "FitResult",
    "resample",
    "quantize",
    "estimate_matrix",
    "estimate_chain",
    "fit_cost_chain",
    "FIT_OPTIONS",
]

# entries of the largest array a fit builds (the slot grid, the transition
# counts); a longer grid or a larger period stack is refused
MAX_ENTRIES = 1 << 22
# from_csv counts seconds from these; a timestamp without a UTC offset is UTC
NAIVE_EPOCH, EPOCH = datetime(1970, 1, 1), datetime(1970, 1, 1, tzinfo=timezone.utc)
# the options of fit_cost_chain that a run config or a fitcost flag may set
FIT_OPTIONS = {"k": int, "slot_minutes": float, "alpha": float, "retail_price": float,
               "n_periods": int}


@dataclass(frozen=True)
class PriceTrace:
    """Ordered (epoch-seconds, price) samples."""

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        px = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)
        if ts.size == 0:
            raise ValueError("empty trace")
        if ts.size != px.size:
            raise ValueError("timestamps and prices differ in length")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(px)):
            raise ValueError("prices must be finite")

    @classmethod
    def from_csv(cls, path) -> "PriceTrace":
        """Read a `timestamp,price` CSV with ISO-8601 timestamps; one without
        a UTC offset is read as UTC, whatever the host's time zone."""
        ts, px = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
                raise ValueError("expected a header row: timestamp,price")
            for row in reader:
                if not row:
                    continue
                if len(row) < 2:
                    raise ValueError(f"line {reader.line_num}: expected timestamp,price")
                stamp = datetime.fromisoformat(row[0].strip())
                ts.append((stamp - (EPOCH if stamp.tzinfo else NAIVE_EPOCH)).total_seconds())
                px.append(float(row[1]))
        return cls(np.array(ts), np.array(px))


def resample(trace: PriceTrace, slot_minutes: float) -> np.ndarray:
    """Mean price per slot on a grid anchored at the first sample.

    Slots without samples repeat the previous slot's value.
    """
    if not 0 < slot_minutes < np.inf:
        raise ValueError("slot_minutes must be positive and finite")
    width = slot_minutes * 60.0
    elapsed = trace.timestamps - trace.timestamps[0]
    if elapsed[-1] >= MAX_ENTRIES * width:
        raise ValueError(f"slot grid too long: over {MAX_ENTRIES:,} slots of {slot_minutes} min")
    idx = np.floor(elapsed / width).astype(np.int64)
    sums = np.bincount(idx, weights=trace.prices)
    counts = np.bincount(idx)
    # each slot takes the mean of the last slot at or before it with samples
    # (slot 0 always has one)
    last = np.maximum.accumulate(np.where(counts > 0, np.arange(counts.size), 0))
    return sums[last] / counts[last]


def quantize(
    prices, k: int, retail_price: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Equal-count quantile binning into k cost levels.

    Returns (normalized levels, 0-based state sequence, retail price used).
    Each level is the mean raw price of its bin divided by the retail price;
    the default retail price is twice the trace mean.  Ties at a bin boundary
    are split by position (stable rank order).
    """
    px = np.asarray(prices, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if px.size < k:
        raise ValueError("fewer slots than levels")
    sorted_px = np.sort(px)  # np.unique would import numpy.ma
    if k > 1 and np.count_nonzero(sorted_px[1:] != sorted_px[:-1]) + 1 < k:
        raise ValueError(f"need at least {k} distinct prices")
    if retail_price is None:
        retail_price = 2.0 * float(px.mean())
    if not 0 < retail_price < np.inf:
        raise ValueError("retail price must be positive and finite")
    order = np.argsort(px, kind="stable")
    ranks = np.empty(px.size, dtype=np.int64)
    ranks[order] = np.arange(px.size)
    states = (ranks * k) // px.size
    with np.errstate(over="ignore"):  # refused just below
        levels = np.array([px[states == j].mean() for j in range(k)]) / retail_price
    if not np.all(np.isfinite(levels)):
        raise ValueError("cost levels overflow; the retail price is too small")
    return levels, states, float(retail_price)


def estimate_matrix(
    states, k: int, alpha: float, n_periods: int | None = None
) -> np.ndarray:
    """Smoothed transition frequencies: (count(j,k) + a) / (count(j,.) + aK).

    With n_periods, transitions are binned by the period of the source slot
    and a (n_periods, k, k) stack is returned.
    """
    s = np.asarray(states, dtype=np.int64)
    if s.size < 2:
        raise ValueError("need at least 2 slots to estimate transitions")
    if s.min() < 0 or s.max() >= k:
        raise ValueError("state out of range")
    if not 0 <= alpha * k < np.inf:
        raise ValueError("alpha must be >= 0, with alpha * k finite")
    nt = 1 if n_periods is None else int(n_periods)
    if nt < 1:
        raise ValueError("n_periods must be >= 1")
    if nt * k * k > MAX_ENTRIES:
        raise ValueError(f"too many transition counts: n_periods * k^2 = {nt * k * k:,} "
                         f"> {MAX_ENTRIES:,}")
    counts = np.zeros((nt, k, k))
    src = np.arange(s.size - 1)
    np.add.at(counts, (src % nt, s[:-1], s[1:]), 1.0)
    rows = counts.sum(axis=2, keepdims=True)
    if alpha == 0 and np.any(rows == 0):
        raise ValueError("empty transition row; use alpha > 0")
    p = (counts + alpha) / (rows + alpha * k)
    return p[0] if n_periods is None else p


def estimate_chain(
    states, levels, alpha: float, n_periods: int | None = None
) -> CostChain:
    levels = np.asarray(levels, dtype=float)
    return CostChain(values=levels, P=estimate_matrix(states, levels.size, alpha, n_periods))


@dataclass(frozen=True)
class FitResult:
    chain: CostChain
    states: np.ndarray
    slot_prices: np.ndarray
    retail_price: float


def fit_cost_chain(
    trace: PriceTrace,
    k: int = 5,
    slot_minutes: float = 60.0,
    alpha: float = 0.5,
    retail_price: float | None = None,
    n_periods: int | None = None,
) -> FitResult:
    """Full pipeline: resample, quantize, estimate."""
    slot_prices = resample(trace, slot_minutes)
    levels, states, retail = quantize(slot_prices, k, retail_price)
    chain = estimate_chain(states, levels, alpha, n_periods)
    return FitResult(chain=chain, states=states, slot_prices=slot_prices, retail_price=retail)
