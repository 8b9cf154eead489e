"""Multistep skew products: iteration, the strict fiberwise order, distance,
and multistep truncation of continuously-parameterized products.

A product assigns a fiber map to every admissible word on a two-sided
dependence window (l, r); iteration consumes pre-supplied future symbols, so
every computation here is finite.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    IncompatibleProductsError,
    InvalidApproximationError,
    ResourceBoundError,
    WindowTooShortError,
)
from .fibers import (
    EPS_ROUND,
    FiberMap,
    MapStack,
    _form_key,
    _indexed,
    _joined,
    _slope,
    _stacked,
    invert,
    map_from_json,
    map_to_json,
    validate_class,
)
from .symbolic import MarkovChain, SymbolWindow, TransitionSystem, _at_least, _symbol_rows, _window_pair

# Hard cap on dependence-window size, shared with the drift-witness machinery.
WINDOW_CAP = 12

_XGRID = np.linspace(0.0, 1.0, 1025)
_ORDER_EXTRA_DEPTH = 6
# Map pairs per lockstep block in distance: (1025, 32) arrays stay in cache.
_DISTANCE_BLOCK = 32


@dataclass(frozen=True)
class LabeledPoint:
    """A base window plus a fiber coordinate."""

    window: SymbolWindow
    x: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0):
            raise ValueError(f"fiber coordinate {self.x} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class MultistepSkewProduct:
    """Assignment of a fiber map to every admissible word on window (l, r).

    The fiber map applied at a base point depends on its coordinates -l..r.
    """

    base: TransitionSystem
    chain: MarkovChain
    window: tuple[int, int]
    assignment: dict[tuple[int, ...], FiberMap]
    # drift classifiers by depth, filled only by drift.get_classifier; they live as long as the product
    _classifiers: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        l, r = _window_pair(self.window, "window")
        size = l + r + 1
        if size > WINDOW_CAP:
            raise ResourceBoundError(f"window size {size} exceeds the bound {WINDOW_CAP}")
        if not self.base.same_base(self.chain.base):
            raise IncompatibleProductsError("chain support must match the base transitions")
        words = self.base.words(size)
        assignment = dict(self.assignment)
        missing = [w for w in words if w not in assignment]
        if missing:
            raise ValueError(f"assignment missing admissible word {missing[0]}")
        extra = set(assignment) - set(words)
        if extra:
            raise ValueError(f"assignment contains inadmissible word {sorted(extra)[0]}")
        # each distinct map object once, at its first word (words are sorted, and they often share a map)
        for w in sorted({id(assignment[w]): w for w in reversed(words)}.values()):
            check = validate_class(assignment[w])
            if not check:
                raise ValueError(f"fiber map for word {w}: {check.reason}")
        object.__setattr__(self, "window", (l, r))
        object.__setattr__(self, "assignment", assignment)

    @functools.cached_property
    def map_slots(self) -> tuple[MapStack, np.ndarray]:
        """The distinct fiber maps, joined by value (_joined), and per word of the window (by rank) its map's index."""
        words = self.base.words(self.window[0] + self.window[1] + 1)
        maps, [slots] = _joined([[self.assignment[w] for w in words]])
        return maps, slots

    def fingerprint(self) -> str:
        return hashlib.sha256(json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "assignment": [
                {"word": list(w), "map": map_to_json(m)} for w, m in sorted(self.assignment.items())
            ],
        }

    @staticmethod
    def from_json(base: TransitionSystem, chain: MarkovChain, record: dict) -> "MultistepSkewProduct":
        """The product of a JSON record; TypeError unless its window and words are lists of integers (no bools)."""
        window = _int_tuple(record["window"], "a window")
        assignment = {_int_tuple(e["word"], "a word"): map_from_json(e["map"]) for e in record["assignment"]}
        return MultistepSkewProduct(base, chain, window, assignment)


def _int_tuple(values, name: str) -> tuple[int, ...]:
    if not isinstance(values, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in values):
        raise TypeError(f"{name} must be a list of integers, got {values!r}")
    return tuple(values)


def iterate(product: MultistepSkewProduct, point: LabeledPoint, n: int) -> LabeledPoint:
    """Apply the skew product n times to a point whose window is a base word; the output window is re-offset by -n."""
    n = _at_least(n, 1, "iteration count")
    l, r = product.window
    win = point.window
    product.base.check_rows(win.lo, _symbol_rows([win.symbols]))
    needed = (-l, r + n - 1)
    if not win.covers(*needed):
        raise WindowTooShortError(needed, (win.lo, win.hi), f"{n}-step iteration")
    x = point.x
    for k in range(n):
        x = product.assignment[win.word(k - l, k + r)].eval(x)
    shifted = SymbolWindow(win.offset - n, win.symbols)
    return LabeledPoint(shifted, float(x))


class ProductOrder(Enum):
    FIRST_BELOW = "first_below"
    SECOND_BELOW = "second_below"
    INCOMPARABLE = "incomparable"


def _strictly_below(f: FiberMap, g: FiberMap) -> bool:
    """Certified f(x) < g(x) for all x in [0, 1].

    Chord-plus-curvature bound on each grid cell; the inconclusive cells are
    bisected all at once, up to _ORDER_EXTRA_DEPTH times. Failure means "not
    certified", never a claim about the true order.
    """
    d = np.asarray(f.eval(_XGRID) - g.eval(_XGRID), dtype=float)
    if (d >= 0.0).any():
        return False
    curv = f.second_derivative_bound() + g.second_derivative_bound()
    u, v, du, dv = _XGRID[:-1], _XGRID[1:], d[:-1], d[1:]
    for depth in range(_ORDER_EXTRA_DEPTH + 1):
        open_ = ~(np.maximum(du, dv) + curv * (v - u) ** 2 / 8.0 + 4.0 * EPS_ROUND < 0.0)
        if not open_.any():
            return True
        if depth == _ORDER_EXTRA_DEPTH:
            return False
        u, v, du, dv = u[open_], v[open_], du[open_], dv[open_]
        m = 0.5 * (u + v)
        dm = f.eval(m) - g.eval(m)
        if (dm >= 0.0).any():
            return False
        u, v = np.concatenate([u, m]), np.concatenate([m, v])
        du, dv = np.concatenate([du, dm]), np.concatenate([dm, dv])


def _map_pairs(F: MultistepSkewProduct, G: MultistepSkewProduct) -> list[tuple[FiberMap, FiberMap]]:
    """Each distinct (f, g) pair of map values over the words of the common
    window, in the order of the pair's first word."""
    window = (max(F.window[0], G.window[0]), max(F.window[1], G.window[1]))
    (f_maps, f_slots), (g_maps, g_slots) = F.map_slots, G.map_slots
    f = f_slots[F.base.window_ranks(F.window, window)]
    g = g_slots[G.base.window_ranks(G.window, window)]
    first = np.sort(np.unique(f * len(g_maps.maps) + g, return_index=True)[1])
    return [(f_maps.maps[f[k]], g_maps.maps[g[k]]) for k in first]


def compare_order(F: MultistepSkewProduct, G: MultistepSkewProduct) -> ProductOrder:
    """Certified three-way comparison under the strict fiberwise order.

    INCOMPARABLE covers both genuine crossings and pairs too close to certify.
    """
    if not F.base.same_base(G.base):
        raise IncompatibleProductsError("products live over different bases")
    if F.window != G.window:
        raise IncompatibleProductsError(
            f"windows {F.window} and {G.window} differ; pad the narrower product first"
        )
    pairs = _map_pairs(F, G)
    if all(_strictly_below(f, g) for f, g in pairs):
        return ProductOrder.FIRST_BELOW
    if all(_strictly_below(g, f) for f, g in pairs):
        return ProductOrder.SECOND_BELOW
    return ProductOrder.INCOMPARABLE


def pad_to_window(product: MultistepSkewProduct, window: tuple[int, int]) -> MultistepSkewProduct:
    """Replicate the assignment onto a wider dependence window.

    Each word keeps its own map object, so the padded product's JSON repeats
    the narrow one's maps exactly, signed zeros included.
    """
    l, r = product.window
    maps = [product.assignment[w] for w in product.base.words(l + r + 1)]
    ranks = product.base.window_ranks(product.window, window)
    words = product.base.words(window[0] + window[1] + 1)
    return MultistepSkewProduct(product.base, product.chain, window, {w: maps[k] for w, k in zip(words, ranks)})


def distance(F: MultistepSkewProduct, G: MultistepSkewProduct) -> float:
    """Grid approximation of the sup distance over words of |f-g|, |f'-g'|,
    and the same for the inverse branches on their common image range.

    A lower bound of the true sup, off by at most the grid step times a
    Lipschitz bound of the compared quantities. Each distinct pair of map
    values is compared once, in blocks of pairs of one (form of f, form of g)
    whose stacked maps run each step on (1025, block) arrays, one column per
    pair; broadcasting gives every column the bits of a pair on its own.
    """
    if not F.base.same_base(G.base):
        raise IncompatibleProductsError("products live over different bases")
    groups: dict[tuple[str, str], list[tuple[FiberMap, FiberMap]]] = {}
    for f, g in _map_pairs(F, G):
        groups.setdefault((_form_key(f), _form_key(g)), []).append((f, g))
    x = _XGRID[:, None]
    best = 0.0
    for pairs in groups.values():
        for start in range(0, len(pairs), _DISTANCE_BLOCK):
            fs, gs = zip(*pairs[start : start + _DISTANCE_BLOCK])
            f, g = _stacked(fs), _stacked(gs)
            fv, gv = f.eval(x), g.eval(x)
            best = max(best, float(np.abs(fv - gv).max()), float(np.abs(_slope(f, x) - _slope(g, x)).max()))
            y_lo, y_hi = np.maximum(fv[0], gv[0]), np.minimum(fv[-1], gv[-1])
            overlap = y_lo < y_hi
            if overlap.any():
                # a column's linspace matches the pair's own unless some step
                # (y_hi - y_lo) / 1024 underflows to 0, which needs both ends below 2^-1012
                ys = np.linspace(y_lo[overlap], y_hi[overlap], 1025)
                f, g = _indexed(f, overlap), _indexed(g, overlap)
                xf, xg = invert(f, ys), invert(g, ys)
                best = max(
                    best,
                    float(np.abs(xf - xg).max()),
                    float(np.abs(1.0 / _slope(f, xf) - 1.0 / _slope(g, xg)).max()),
                )
    return best


@dataclass(frozen=True, eq=False)
class ContinuousProductSpec:
    """Template product whose designated parameter depends on all coordinates.

    For the symbol s at coordinate 0, the designated parameter equals
    base value(s) + sum over n != 0 of 2^-|n| * rho[s, omega_n]; truncating the
    sum gives multistep approximants.
    """

    base: TransitionSystem
    chain: MarkovChain
    template_form: str
    designated: str
    symbol_params: tuple[dict, ...]
    rho: np.ndarray

    def __post_init__(self):
        n = self.base.alphabet_size
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (n, n) or not np.isfinite(rho).all():
            raise ValueError(f"coefficient table must be finite with shape ({n}, {n})")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        params = tuple(dict(p) for p in self.symbol_params)
        if len(params) != n:
            raise ValueError(f"need one parameter record per symbol, got {len(params)}")
        for s in range(1, n + 1):
            if self.designated not in params[s - 1]:
                raise ValueError(f"symbol {s} record lacks designated parameter {self.designated!r}")
            # worst case over all sequences: the full two-sided series has mass 2
            for extreme in (2.0 * rho[s - 1].min(), 2.0 * rho[s - 1].max()):
                m = self.make_map(s, params[s - 1][self.designated] + extreme)
                check = validate_class(m)
                if not check:
                    raise ValueError(f"symbol {s} worst-case parameter leaves the class: {check.reason}")
        object.__setattr__(self, "symbol_params", params)

    def make_map(self, symbol: int, designated_value: float) -> FiberMap:
        params = dict(self.symbol_params[symbol - 1])
        params[self.designated] = designated_value
        return map_from_json({"form": self.template_form, "parameters": params})

    def tail_midrange(self, symbol: int) -> float:
        row = self.rho[symbol - 1]
        return 0.5 * (float(row.min()) + float(row.max())) + 0.0  # a zero midrange is 0.0 in any row order


def multistep_approximation(spec: ContinuousProductSpec, m: int) -> MultistepSkewProduct:
    """Truncate the parameter series to coordinates in [-m, m].

    The tail is replaced by its midpoint value, so successive approximants are
    within a geometric distance of each other (halving in m). One map is built
    and validated per distinct (symbol, value), and the words that share it
    share the object: since rho[s][a] + rho[s][b] == rho[s][b] + rho[s][a],
    there are at most (N(N+1)/2)^m values per symbol, not N^(2m).
    """
    m = _at_least(m, 0, "truncation depth")
    if 2 * m + 1 > WINDOW_CAP:
        raise ResourceBoundError(f"window size {2 * m + 1} exceeds the bound {WINDOW_CAP}")
    assignment: dict[tuple[int, ...], FiberMap] = {}
    maps: dict[tuple[int, float], FiberMap] = {}
    tails = [2.0 ** (1 - m) * spec.tail_midrange(s) for s in range(1, spec.base.alphabet_size + 1)]
    # one entry per word, summed with the additions of the series in their per-word order
    w = spec.base.word_array(2 * m + 1) - 1
    s = w[:, m]
    values = np.array([p[spec.designated] for p in spec.symbol_params], dtype=float)[s]
    for j in range(1, m + 1):
        values += 2.0 ** (-j) * (spec.rho[s, w[:, m - j]] + spec.rho[s, w[:, m + j]])
    values += np.array(tails)[s]  # last: x + 0.0 is never -0.0, so value keys need no sign
    for word, value in zip(spec.base.words(2 * m + 1), values.tolist()):
        key = (word[m], value)
        fmap = maps.get(key)
        if fmap is None:
            fmap = maps[key] = spec.make_map(word[m], value)
            check = validate_class(fmap)
            if not check:
                raise InvalidApproximationError(f"word {word}: {check.reason}")
        assignment[word] = fmap
    return MultistepSkewProduct(spec.base, spec.chain, (m, m), assignment)


def approximation_distance_bound(spec: ContinuousProductSpec, m: int) -> float:
    """Upper bound C * 2^-m on the distance between approximants at m and m+1.

    C is read from the coefficient table's per-symbol spread, inflated by
    conservative inverse-branch and derivative factors.
    """
    spread = 0.0
    min_slope = np.inf
    second = 0.0
    for s in range(1, spec.base.alphabet_size + 1):
        row = spec.rho[s - 1]
        spread = max(spread, float(row.max() - row.min()))
        for extreme in (2.0 * row.min(), 2.0 * row.max()):
            fmap = spec.make_map(s, spec.symbol_params[s - 1][spec.designated] + extreme)
            min_slope = min(min_slope, fmap.derivative_range(0.0, 1.0)[0])
            second = max(second, fmap.second_derivative_bound())
    c = 0.5 * spread * (2.0 + 2.0 / min_slope + (2.0 + second) / min_slope**2)
    return c * 2.0 ** (-m)
