"""Box regions (cylinder x fiber interval): exact measure, region_union, complement, intersect and difference."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegionError
from .fibers import RealInterval
from .symbolic import MarkovChain, TransitionSystem, _window_pair, cylinder_measure


def measure_boxes(chain: MarkovChain, boxes) -> float:
    """Sum of cylinder measure times fiber length over (window, interval) boxes.

    Boxes on one cylinder (same offset and symbols) must be disjoint; prior
    merging is the caller's job.
    """
    by_cylinder: dict[tuple[int, tuple[int, ...]], list[RealInterval]] = {}
    total = 0.0
    for window, interval in boxes:
        key = (window.offset, window.symbols)
        for other in by_cylinder.setdefault(key, []):
            if max(other.lo, interval.lo) < min(other.hi, interval.hi):
                raise InvalidRegionError(
                    f"overlapping fiber intervals on cylinder {window.symbols}"
                )
        by_cylinder[key].append(interval)
        total += cylinder_measure(chain, window) * interval.length
    return total


def sweep_rows(lo: np.ndarray, hi: np.ndarray):
    """Merge the closed intervals in each row of (rows, k) arrays; absent ones have lo = inf, hi = -inf.

    Each row is swept in (lo, hi, column) order: an interval starts a piece at
    its lo if that lies beyond the running end of the earlier ones, at the
    running end if only its hi does, and is covered otherwise. Returns the
    pieces (row, column, start, end) and the merged runs of touching pieces
    (row, start, end), both sorted by row, then start. Rows are ordered by numpy's
    default (SIMD) argsort of lo, and by the stable lexsort only where finite lo
    values tie: absent intervals start no piece, so their order changes nothing.
    """
    n, k = lo.shape
    order = np.argsort(lo, axis=1)
    order += np.arange(n)[:, None] * k  # flat indices into lo and hi
    flat_lo, flat_hi = lo.ravel(), hi.ravel()
    key = flat_lo[order]
    tied = np.flatnonzero(((key[:, 1:] == key[:, :-1]) & (key[:, 1:] < np.inf)).any(axis=1))
    if len(tied):
        order[tied] = np.lexsort((hi[tied], lo[tied]), axis=-1) + tied[:, None] * k
    key = flat_hi[order]
    end = np.full_like(key, -np.inf)  # running end of the earlier intervals
    np.maximum.accumulate(key[:, :-1], axis=1, out=end[:, 1:])
    at = np.flatnonzero(key > end)
    src = order.ravel()[at]
    del order, key  # before the piece gathers
    row, end = at // max(k, 1), end.ravel()[at]
    start, stop = flat_lo[src], flat_hi[src]
    opens = start > end
    start = np.where(opens, start, end)
    closes = np.ones_like(opens)  # the last piece closes the last run
    closes[:-1] = opens[1:]
    return (row, src - row * k, start, stop), (row[opens], start[opens], stop[closes])


@dataclass(frozen=True, eq=False)
class BoxRegion:
    """Union of boxes sharing one cylinder window (L, R).

    Box i is the cylinder of word ranks[i] of system.word_array(L + R + 1) times
    the fiber interval [lo[i], hi[i]]. Boxes are sorted by (rank, lo) and
    disjoint on each word.
    """

    system: TransitionSystem
    window: tuple[int, int]
    ranks: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        L, R = window = _window_pair(self.window, "region window")
        ranks = np.asarray(self.ranks)
        if ranks.size and not np.issubdtype(ranks.dtype, np.integer):
            raise InvalidRegionError(f"word ranks must be integers, got {ranks.dtype}")
        ranks = ranks.astype(np.int64)
        lo, hi = np.array(self.lo, dtype=float), np.array(self.hi, dtype=float)
        if not (ranks.ndim == 1 and ranks.shape == lo.shape == hi.shape):
            raise InvalidRegionError("ranks, lo and hi must be 1-d arrays of one length")
        words = self.system.word_array(L + R + 1)
        bad = (ranks < 0) | (ranks >= len(words))
        if bad.any():
            raise InvalidRegionError(f"word rank {ranks[bad][0]} is not in 0..{len(words) - 1}")
        bad = ~((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
        if bad.any():
            i = bad.argmax()
            word = tuple(words[ranks[i]].tolist())
            raise InvalidRegionError(f"[{lo[i]}, {hi[i]}] on word {word} is not an interval inside [0, 1]")
        bad = (ranks[1:] < ranks[:-1]) | ((ranks[1:] == ranks[:-1]) & (lo[1:] < hi[:-1]))
        if bad.any():
            i = bad.argmax() + 1
            word = tuple(words[ranks[i]].tolist())
            raise InvalidRegionError(f"interval {i} on word {word} overlaps or is out of (rank, lo) order")
        for name, arr in (("ranks", ranks), ("lo", lo), ("hi", hi)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "window", window)

    def measure(self, chain: MarkovChain) -> float:
        """Sum of cylinder measure times interval length, box by box in (rank, lo) order.

        Weights multiply transition probabilities left to right and the sum runs
        on from 0.0, so the result equals measure_boxes on these boxes bit for bit.
        """
        words = self.system.word_array(sum(self.window) + 1)[self.ranks] - 1
        weights = chain.stationary[words[:, 0]]
        for a, b in zip(words.T, words.T[1:]):
            weights = weights * chain.stochastic[a, b]
        return float(np.add.accumulate(np.append(0.0, weights * (self.hi - self.lo)))[-1])

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        keys = self.ranks.astype(complex)
        keys.imag = self.lo
        return keys

    def _locate(self, lo: int, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Index of the box holding each point, -1 where none does.

        rows hold the points' symbols on coordinates lo.. (admissible words covering the window,
        as the classifier checks) and xs their fiber coordinates. Boxes are keyed by (rank, lo)
        as one complex number; numpy orders complex numbers lexicographically, so one
        searchsorted finds each point's last box of its word at or below it.
        """
        if not len(self.ranks):
            return np.full(len(xs), -1)
        L, R = self.window
        keys = self.system.word_ranks(rows, -L - lo, L + R + 1).astype(complex)
        keys.imag = xs
        i = np.searchsorted(self._keys, keys, side="right") - 1
        return np.where((i >= 0) & (self.ranks[i] == keys.real) & (xs <= self.hi[i]), i, -1)

    def complement(self) -> "BoxRegion":
        """Closed gaps of [0, 1] between each window word's boxes: the closure of the true complement, which is open."""
        words = np.arange(len(self.system.word_array(sum(self.window) + 1)))
        start, stop = np.searchsorted(self.ranks, words), np.searchsorted(self.ranks, words, side="right")
        lo, hi = np.insert(self.hi, start, 0.0), np.insert(self.lo, stop, 1.0)  # gap k is [hi[k - 1], lo[k]]
        keep = lo < hi  # zero-length gaps go, and a word without boxes gets [0, 1]
        return BoxRegion(self.system, self.window, np.insert(self.ranks, start, words)[keep], lo[keep], hi[keep])

    def refined(self, window: tuple[int, int]) -> "BoxRegion":
        """The same set on a wider window: each word takes the boxes of its restriction."""
        if tuple(window) == self.window:
            return self
        sub = self.system.window_ranks(self.window, window)
        first = np.searchsorted(self.ranks, sub)
        count = np.searchsorted(self.ranks, sub, side="right") - first
        ranks = np.repeat(np.arange(len(sub)), count)
        take = np.arange(len(ranks)) - np.repeat(np.cumsum(count) - count - first, count)
        return BoxRegion(self.system, window, ranks, self.lo[take], self.hi[take])


def joined_boxes(a: BoxRegion, b: BoxRegion):
    """Common window of two regions, and both regions' boxes on it by (rank, lo, hi): is-a's mask, ranks, lo, hi."""
    if not a.system.same_base(b.system):
        raise InvalidRegionError("regions live over different bases")
    window = (max(a.window[0], b.window[0]), max(a.window[1], b.window[1]))
    ra, rb = a.refined(window), b.refined(window)
    ranks, lo, hi = (np.concatenate(pair) for pair in zip((ra.ranks, ra.lo, ra.hi), (rb.ranks, rb.lo, rb.hi)))
    order = np.lexsort((hi, lo, ranks))
    return window, order < len(ra.ranks), ranks[order], lo[order], hi[order]


def region_union(a: BoxRegion, b: BoxRegion) -> BoxRegion:
    """Set union of two box regions, exact on the common refined window."""
    window, _, ranks, lo, hi = joined_boxes(a, b)
    col = np.arange(len(ranks)) - np.searchsorted(ranks, ranks)  # place among the word's intervals
    shape = (len(a.system.word_array(window[0] + window[1] + 1)), col.max(initial=-1) + 1)
    rows_lo, rows_hi = np.full(shape, np.inf), np.full(shape, -np.inf)
    rows_lo[ranks, col], rows_hi[ranks, col] = lo, hi
    return BoxRegion(a.system, window, *sweep_rows(rows_lo, rows_hi)[1])


def intersect(a: BoxRegion, b: BoxRegion) -> BoxRegion:
    """Set intersection on the common refined window, exact except at box endpoints (finitely many per word)."""
    return region_union(a.complement(), b.complement()).complement()


def difference(a: BoxRegion, b: BoxRegion) -> BoxRegion:
    """The points of a outside b on the common refined window: intersect(a, b.complement())."""
    return intersect(a, b.complement())
