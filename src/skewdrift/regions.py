"""Box unions (cylinder x fiber-interval) with exact standard measure."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidRegionError
from .fibers import RealInterval
from .symbolic import MarkovChain, SymbolWindow, TransitionSystem, cylinder_measure


def merge_intervals(intervals) -> tuple[tuple[float, float], ...]:
    """Union of closed intervals as sorted disjoint ones; touching intervals coalesce."""
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


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


@dataclass(frozen=True, eq=False)
class BoxRegion:
    """Union of boxes sharing one cylinder window: word -> disjoint intervals."""

    system: TransitionSystem
    window: tuple[int, int]
    intervals: dict[tuple[int, ...], tuple[tuple[float, float], ...]]

    def __post_init__(self):
        cleaned = {}
        for word, ivs in self.intervals.items():
            ivs = tuple(sorted((float(lo), float(hi)) for lo, hi in ivs))
            for lo, hi in ivs:
                if not (0.0 <= lo <= hi <= 1.0):
                    raise InvalidRegionError(f"[{lo}, {hi}] on word {word} is not an interval inside [0, 1]")
            for (alo, ahi), (blo, bhi) in zip(ivs, ivs[1:]):
                if blo < ahi:
                    raise InvalidRegionError(f"overlapping intervals on word {word}")
            if ivs:
                cleaned[tuple(word)] = ivs
        object.__setattr__(self, "intervals", cleaned)
        object.__setattr__(self, "window", (int(self.window[0]), int(self.window[1])))

    @classmethod
    def empty(cls, system: TransitionSystem) -> "BoxRegion":
        return cls(system, (0, 0), {})

    def measure(self, chain: MarkovChain) -> float:
        """Sum of cylinder measure times interval length, box by box in storage order."""
        L, _R = self.window
        total = 0.0
        for word, ivs in self.intervals.items():
            weight = cylinder_measure(chain, SymbolWindow(-L, word))
            for lo, hi in ivs:
                total += weight * (hi - lo)
        return total

    def refined(self, window: tuple[int, int]) -> "BoxRegion":
        if tuple(window) == self.window:
            return self
        return BoxRegion(self.system, window, self.system.refine_table(self.intervals, self.window, window))

    def same_boxes(self, other: "BoxRegion") -> bool:
        return self.window == other.window and self.intervals == other.intervals


def region_union(a: BoxRegion, b: BoxRegion) -> BoxRegion:
    """Set union of two box regions, exact on the common refined window."""
    if not a.system.same_base(b.system):
        raise InvalidRegionError("regions live over different bases")
    window = (max(a.window[0], b.window[0]), max(a.window[1], b.window[1]))
    ra = a.refined(window)
    rb = b.refined(window)
    words = set(ra.intervals) | set(rb.intervals)
    out = {word: merge_intervals(ra.intervals.get(word, ()) + rb.intervals.get(word, ())) for word in words}
    return BoxRegion(a.system, window, out)
