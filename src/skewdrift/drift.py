"""Drift-witness machinery: cylinder-step graphs, certified drift of graphs,
and sound classification of points into Up / Down / Unknown.

A step graph is constant on depth-bounded cylinders. Its image under a
multistep product is again a step graph on a window shifted one step into the
past. A graph that moves strictly toward larger fiber values under the product
(with a certified margin) witnesses upward drift for every point caught
between the graph and its image; downward is symmetric. Verdicts produced
here are sound but deliberately incomplete: Unknown never lies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleProductsError, InvalidRegionError, ResourceBoundError, WindowTooShortError
from .fibers import EPS_ROUND, FiberMap
from .products import WINDOW_CAP, LabeledPoint, MultistepSkewProduct
from .regions import BoxRegion, merge_intervals
from .symbolic import PeriodicWord, TransitionSystem

# Strictness margin for every certified inequality: four orders above
# accumulated rounding at composition depth <= 64, far below problem scales.
DELTA_CERT = 1e-9

# 64 interior witness levels, at odd multiples of 1/128.
LEVEL_GRID = tuple((2 * i + 1) / 128.0 for i in range(64))
REFINE_STEPS = 20

UP = "Up"
DOWN = "Down"
UNKNOWN = "Unknown"
# Verdict codes of the batch API are indices into this tuple.
VERDICTS = (UP, DOWN, UNKNOWN)
_UP_CODE, _DOWN_CODE, _UNKNOWN_CODE = range(3)


@dataclass(frozen=True, eq=False)
class StepGraph:
    """Function on the base space constant on cylinders of window (L, R).

    values maps every admissible word on coordinates -L..R to a level in (0, 1).
    """

    system: TransitionSystem
    window: tuple[int, int]
    values: dict[tuple[int, ...], float]

    def __post_init__(self):
        L, R = self.window
        if L < 0 or R < 0:
            raise ValueError("graph window offsets must be nonnegative")
        words = self.system.words(L + R + 1)
        values = dict(self.values)
        missing = [w for w in words if w not in values]
        if missing:
            raise ValueError(f"graph lacks a value for admissible word {missing[0]}")
        extra = set(values) - set(words)
        if extra:
            raise ValueError(f"graph has a value for inadmissible word {sorted(extra)[0]}")
        for w, v in values.items():
            if not (0.0 < v < 1.0):
                raise ValueError(f"graph value {v} for word {w} is not strictly inside (0, 1)")
        object.__setattr__(self, "window", (int(L), int(R)))
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, system: TransitionSystem, level: float) -> "StepGraph":
        return cls(system, (0, 0), {(s,): float(level) for s in range(1, system.alphabet_size + 1)})

    def refined(self, window: tuple[int, int]) -> "StepGraph":
        """Same function represented on a wider window."""
        if tuple(window) == self.window:
            return self
        return StepGraph(self.system, window, self.system.refine_table(self.values, self.window, window))

    def value_at(self, point_window) -> float:
        """Graph level on the cylinder containing the given window."""
        L, R = self.window
        return self.values[point_window.word(-L, R)]


def _minimized(graph: StepGraph) -> StepGraph:
    """Drop boundary coordinates the values do not depend on (exact equality).

    Represents the same function on the smallest window; keeps witness chains
    of effectively shallow systems from hitting the window cap.
    """
    L, R = graph.window
    values = graph.values
    changed = True
    while changed:
        changed = False
        if L > 0:
            reduced = _drop_edge(values, left=True)
            if reduced is not None:
                values, L = reduced, L - 1
                changed = True
        if R > 0:
            reduced = _drop_edge(values, left=False)
            if reduced is not None:
                values, R = reduced, R - 1
                changed = True
    if (L, R) == graph.window:
        return graph
    return StepGraph(graph.system, (L, R), values)


def _drop_edge(values: dict, left: bool) -> dict | None:
    out: dict[tuple[int, ...], float] = {}
    for word, v in values.items():
        key = word[1:] if left else word[:-1]
        known = out.get(key)
        if known is None:
            out[key] = v
        elif known != v:
            return None
    return out


def image_graph(product: MultistepSkewProduct, graph: StepGraph) -> StepGraph:
    """Push a step graph one step forward under the product.

    The new level over a base point is the fiber map of the point's
    predecessor applied to the graph's level at that predecessor, so all word
    bookkeeping shifts one coordinate into the past. The raw window is
    (max(L, l) + 1, max(R, r) - 1) extended to >= 0; the result is then
    represented on its minimal window.
    """
    if not product.base.same_base(graph.system):
        raise IncompatibleProductsError("graph and product live over different bases")
    l, r = product.window
    L, R = graph.window
    Lp = max(L, l) + 1
    Rp = max(max(R, r) - 1, 0)
    if Lp + Rp + 1 > WINDOW_CAP:
        raise ResourceBoundError(
            f"image window size {Lp + Rp + 1} exceeds the bound {WINDOW_CAP}"
        )
    fiber_start = (-l - 1) + Lp
    fiber_len = l + r + 1
    graph_start = (-L - 1) + Lp
    graph_len = L + R + 1
    assignment = product.assignment
    g_values = graph.values
    values = {
        u: assignment[u[fiber_start : fiber_start + fiber_len]].eval(
            g_values[u[graph_start : graph_start + graph_len]]
        )
        for u in product.base.words(Lp + Rp + 1)
    }
    return _minimized(StepGraph(graph.system, (Lp, Rp), values))


@dataclass(frozen=True)
class DriftOutcome:
    """Certified verdict for one graph: direction, margin, and the refined pair."""

    direction: str  # "up" | "down" | "inconclusive"
    margin: float | None
    graph: StepGraph
    image: StepGraph


def _drift_outcome(graph: StepGraph, image: StepGraph) -> DriftOutcome:
    L = max(graph.window[0], image.window[0])
    R = max(graph.window[1], image.window[1])
    if L + R + 1 > WINDOW_CAP:
        raise ResourceBoundError(f"common window size {L + R + 1} exceeds the bound {WINDOW_CAP}")
    g = graph.refined((L, R))
    e = image.refined((L, R))
    lo = min(e.values[w] - g.values[w] for w in g.values)
    hi = max(e.values[w] - g.values[w] for w in g.values)
    up_margin = lo - 2.0 * EPS_ROUND
    down_margin = -hi - 2.0 * EPS_ROUND
    if up_margin >= DELTA_CERT:
        return DriftOutcome("up", up_margin, g, e)
    if down_margin >= DELTA_CERT:
        return DriftOutcome("down", down_margin, g, e)
    return DriftOutcome("inconclusive", None, g, e)


def certify_drift(product: MultistepSkewProduct, graph: StepGraph) -> DriftOutcome:
    """Certify whether the graph drifts up or down under the product.

    Outward-rounded comparison over all admissible words of the common window;
    "inconclusive" includes "too close to certify".
    """
    return _drift_outcome(graph, image_graph(product, graph))


@dataclass(frozen=True)
class DriftCertificate:
    """A drifting graph with a certified margin; replayable on other products."""

    direction: str
    graph: StepGraph
    margin: float
    product_fingerprint: str

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "window": list(self.graph.window),
            "values": [{"word": list(w), "value": v} for w, v in sorted(self.graph.values.items())],
            "margin": self.margin,
            "product_fingerprint": self.product_fingerprint,
        }


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    margin: float | None
    reason: str | None = None


def replay_certificate(
    product: MultistepSkewProduct,
    certificate: DriftCertificate,
    point: LabeledPoint | None = None,
) -> ReplayResult:
    """Re-certify a witness graph on another product, optionally with its strip condition."""
    outcome = certify_drift(product, certificate.graph)
    if outcome.direction != certificate.direction:
        return ReplayResult(False, None, f"drift verdict is {outcome.direction}")
    if point is not None:
        level = outcome.graph.value_at(point.window)
        image_level = outcome.image.value_at(point.window)
        if certificate.direction == "up":
            lo, hi = level, image_level
        else:
            lo, hi = image_level, level
        if not (point.x - lo >= DELTA_CERT and hi - point.x >= DELTA_CERT):
            return ReplayResult(False, outcome.margin, "strip condition fails at the point")
    return ReplayResult(True, outcome.margin)


@dataclass(frozen=True)
class Classification:
    """Sound verdict for one point; Up/Down always carry a witness."""

    verdict: str
    witness: DriftCertificate | None
    depth_searched: int

    def __post_init__(self):
        if self.verdict in (UP, DOWN) and self.witness is None:
            raise ValueError("Up/Down verdicts must carry a witness")
        if self.verdict == UNKNOWN and self.witness is not None:
            raise ValueError("Unknown verdicts never carry a witness")

    def to_json(self) -> dict:
        record = {"verdict": self.verdict, "depth": self.depth_searched}
        if self.witness is not None:
            record["witness"] = self.witness.to_json()
        return record


@dataclass(frozen=True)
class _Witness:
    graph: StepGraph  # refined to the common window with its image
    image: StepGraph
    margin: float


def _word_codes(rows: np.ndarray, start: int, length: int, alphabet_size: int) -> np.ndarray:
    """Positional codes of the words in columns start..start+length-1 of symbol rows.

    Lexicographic order of words of one length is numeric order of their codes.
    """
    return (rows[:, start : start + length] - 1) @ alphabet_size ** np.arange(length - 1, -1, -1, dtype=np.int64)


def _tagged_pieces(boxes: list) -> tuple[list, list, list]:
    """Disjoint pieces covering tagged boxes, each piece keeping one covering tag."""
    boxes.sort()
    starts: list[float] = []
    ends: list[float] = []
    tags: list[int] = []
    for lo, hi, tag in boxes:
        if starts and lo <= ends[-1]:
            if hi > ends[-1]:
                starts.append(ends[-1])
                ends.append(hi)
                tags.append(tag)
        else:
            starts.append(lo)
            ends.append(hi)
            tags.append(tag)
    return starts, ends, tags


class _RegionIndex:
    """Per-word disjoint certified strips, each tagged with a covering witness.

    The strips of all words are stored flat, keyed by (word code, start) as
    one complex number. numpy sorts and searches complex numbers
    lexicographically, so one searchsorted finds, for every point, the last
    strip of its own word that starts at or below it.
    """

    def __init__(self, system: TransitionSystem, window: tuple[int, int], pieces: dict[tuple[int, ...], tuple]):
        self.window = window
        self.alphabet_size = system.alphabet_size
        words = sorted(pieces)
        size = window[0] + window[1] + 1
        codes = _word_codes(np.array(words, dtype=np.int64).reshape(-1, size), 0, size, self.alphabet_size)
        self.keys = np.repeat(codes, [len(pieces[w][0]) for w in words]).astype(complex)
        self.keys.imag = [v for w in words for v in pieces[w][0]]
        self.ends = np.array([v for w in words for v in pieces[w][1]], dtype=float)
        self.tags = np.array([v for w in words for v in pieces[w][2]], dtype=np.int64)

    def lookup(self, lo: int, rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Tag of the strip containing each point, -1 where no strip does."""
        if not len(self.tags):
            return np.full(len(xs), -1, dtype=np.int64)
        L, R = self.window
        keys = _word_codes(rows, -L - lo, L + R + 1, self.alphabet_size).astype(complex)
        keys.imag = xs
        i = np.searchsorted(self.keys, keys, side="right") - 1
        hit = (i >= 0) & (self.keys.real[i] == keys.real) & (xs <= self.ends[i])
        return np.where(hit, self.tags[i], -1)


def _as_batch(rows, xs) -> tuple[np.ndarray, np.ndarray]:
    rows = np.asarray(rows, dtype=np.int64)
    xs = np.asarray(xs, dtype=float)
    if rows.ndim != 2 or xs.ndim != 1 or len(rows) != len(xs):
        raise ValueError(f"need symbol rows (n, width) and n fiber coordinates, got shapes {rows.shape} and {xs.shape}")
    return rows, xs


class DriftClassifier:
    """Witness family for one product at one depth, shared across point queries.

    The family consists of the 64-level grid of constant graphs iterated up to
    the depth (chains stop early at the window cap), plus per-point binary
    refinement of the level near the queried fiber coordinate.
    """

    def __init__(self, product: MultistepSkewProduct, depth: int):
        if depth < 0:
            raise ValueError("search depth must be >= 0")
        self.product = product
        self.depth = depth
        self._fingerprint = product.fingerprint()
        # the distinct fiber maps, and per defining word (by code) the slot of its map
        l, r = product.window
        words = product.base.words(l + r + 1)
        self._maps = tuple(dict.fromkeys(product.assignment.values()))
        slots = {fmap: i for i, fmap in enumerate(self._maps)}
        self._defining_codes = _word_codes(np.array(words, dtype=np.int64), 0, l + r + 1, product.base.alphabet_size)
        self._defining_maps = np.array([slots[product.assignment[w]] for w in words], dtype=np.int64)
        self._up: list[_Witness] = []
        self._down: list[_Witness] = []
        for level in LEVEL_GRID:
            graph = StepGraph.constant(product.base, level)
            for _ in range(depth + 1):
                try:
                    image = image_graph(product, graph)
                    outcome = _drift_outcome(graph, image)
                except ResourceBoundError:
                    break
                if outcome.direction == "up":
                    self._up.append(_Witness(outcome.graph, outcome.image, outcome.margin))
                elif outcome.direction == "down":
                    self._down.append(_Witness(outcome.graph, outcome.image, outcome.margin))
                graph = image
        self._up_index, self._up_region = self._build_index(self._up, up=True)
        self._down_index, self._down_region = self._build_index(self._down, up=False)
        self._check_disjoint()

    def _build_index(self, witnesses: list[_Witness], up: bool) -> tuple[_RegionIndex, BoxRegion]:
        """Witness-tagged strips for point lookup, and their union as a region."""
        system = self.product.base
        if not witnesses:
            return _RegionIndex(system, (0, 0), {}), BoxRegion.empty(system)
        window = (
            max(w.graph.window[0] for w in witnesses),
            max(w.graph.window[1] for w in witnesses),
        )
        by_word: dict[tuple[int, ...], list] = {}
        for tag, wit in enumerate(witnesses):
            g = wit.graph.refined(window)
            e = wit.image.refined(window)
            for word in g.values:
                if up:
                    lo = g.values[word] + DELTA_CERT
                    hi = e.values[word] - DELTA_CERT
                else:
                    lo = e.values[word] + DELTA_CERT
                    hi = g.values[word] - DELTA_CERT
                if hi > lo:
                    by_word.setdefault(word, []).append((lo, hi, tag))
        pieces = {word: _tagged_pieces(boxes) for word, boxes in by_word.items()}
        del by_word  # the raw strips are the bulk of a build's peak memory
        intervals = {w: merge_intervals(zip(starts, ends)) for w, (starts, ends, _) in pieces.items()}
        return _RegionIndex(system, window, pieces), BoxRegion(system, window, intervals)

    def _check_disjoint(self):
        # certified Up and Down strips can never overlap; a hit is a bug
        up, down = self._up_region, self._down_region
        window = (max(up.window[0], down.window[0]), max(up.window[1], down.window[1]))
        ups = up.refined(window).intervals
        downs = down.refined(window).intervals
        try:
            BoxRegion(self.product.base, window, {w: ups[w] + downs[w] for w in ups.keys() & downs.keys()})
        except InvalidRegionError as exc:
            raise RuntimeError(f"internal inconsistency: Up and Down strips overlap: {exc}") from exc

    def required_range(self) -> tuple[int, int]:
        l, r = self.product.window
        return (-(self.depth + l + 1), self.depth + r)

    def certified_boxes(self, direction: str) -> BoxRegion:
        """Certified region for a direction: per-word disjoint fiber intervals."""
        return self._up_region if direction == UP else self._down_region

    def classify(self, point: LabeledPoint) -> Classification:
        up_cert, down_cert = self._point_certificates(point, exhaustive=False)
        if up_cert is not None:
            return Classification(UP, up_cert, self.depth)
        if down_cert is not None:
            return Classification(DOWN, down_cert, self.depth)
        return Classification(UNKNOWN, None, self.depth)

    def search_certificates(self, point: LabeledPoint) -> tuple[DriftCertificate | None, DriftCertificate | None]:
        """Exhaustive independent searches in both directions (soundness testing)."""
        return self._point_certificates(point, exhaustive=True)

    def classify_arrays(self, lo: int, rows, xs) -> np.ndarray:
        """Verdict codes, indices into VERDICTS, for a batch of points.

        rows is an int array (n, width) of symbols on coordinates
        lo..lo + width - 1 and xs holds the n fiber coordinates. The codes are
        the verdicts classify gives point by point; points with x <= 0 or
        x >= 1 are Unknown.
        """
        rows, xs = _as_batch(rows, xs)
        up_tag, down_tag, up_level, down_level = self._search(lo, rows, xs, exhaustive=False)
        codes = np.full(len(xs), _UNKNOWN_CODE, dtype=np.int8)
        codes[(up_tag >= 0) | ~np.isnan(up_level)] = _UP_CODE
        codes[(down_tag >= 0) | ~np.isnan(down_level)] = _DOWN_CODE
        return codes

    def _point_certificates(self, point: LabeledPoint, exhaustive: bool):
        rows, xs = _as_batch([point.window.symbols], [point.x])
        up_tag, down_tag, up_level, down_level = self._search(point.window.lo, rows, xs, exhaustive)
        return (
            self._certificate(UP, int(up_tag[0]), float(up_level[0])),
            self._certificate(DOWN, int(down_tag[0]), float(down_level[0])),
        )

    def _certificate(self, direction: str, tag: int, level: float) -> DriftCertificate | None:
        """Witness of an index hit (tag >= 0) or of a refined level (not NaN)."""
        if tag >= 0:
            witness = (self._up if direction == UP else self._down)[tag]
        elif not np.isnan(level):
            graph = StepGraph.constant(self.product.base, level)
            outcome = _drift_outcome(graph, image_graph(self.product, graph))
            if outcome.direction != direction.lower():
                raise RuntimeError(f"internal inconsistency: refined level {level} is not {direction}")
            witness = _Witness(outcome.graph, outcome.image, outcome.margin)
        else:
            return None
        return DriftCertificate(direction.lower(), witness.graph, witness.margin, self._fingerprint)

    def _search(self, lo: int, rows: np.ndarray, xs: np.ndarray, exhaustive: bool):
        """Per point: Up and Down index tags (-1 for none), then Up and Down refined levels (NaN for none).

        Refinement runs only for points the index leaves open. A point's Down
        search follows only when Up found nothing, unless the search is
        exhaustive, which runs both directions independently.
        """
        need_lo, need_hi = self.required_range()
        have_hi = lo + rows.shape[1] - 1
        if not (lo <= need_lo and need_hi <= have_hi):
            raise WindowTooShortError((need_lo, need_hi), (lo, have_hi), f"classification at depth {self.depth}")
        inside = (xs > 0.0) & (xs < 1.0)
        up_tag = np.where(inside, self._up_index.lookup(lo, rows, xs), -1)
        down_tag = np.where(inside, self._down_index.lookup(lo, rows, xs), -1)
        if not exhaustive and ((up_tag >= 0) & (down_tag >= 0)).any():
            raise RuntimeError("internal inconsistency: point certified both Up and Down")
        up_level = np.full(len(xs), np.nan)
        down_level = np.full(len(xs), np.nan)
        todo = inside & (up_tag < 0) & (exhaustive | (down_tag < 0))
        if todo.any():
            up_level[todo] = self._refine(lo, rows[todo], xs[todo], up=True)
        todo = inside & (down_tag < 0) & (exhaustive | ((up_tag < 0) & np.isnan(up_level)))
        if todo.any():
            down_level[todo] = self._refine(lo, rows[todo], xs[todo], up=False)
        return up_tag, down_tag, up_level, down_level

    def _refine(self, lo: int, rows: np.ndarray, xs: np.ndarray, up: bool) -> np.ndarray:
        """Binary search, per point, for a constant-graph level whose strip straddles it.

        Returns the level, or NaN where the search fails. Sound for any
        system; complete only when the fiber displacement over the searched
        side changes sign once, which covers the witness gaps the 64-level
        grid leaves near slow equilibria.

        All points bisect in lockstep, and each step decides as
        certify_drift(product, StepGraph.constant(level)) would. The image of
        the constant graph at level c takes the value f_k(c) over every base
        point whose predecessor defining word, on coordinates [-l-1, r-1], is
        k. Refining and minimizing graphs only re-key those floats, and in a
        transitive SFT every defining word extends to a word of the common
        window. So the drift margins are min_k and max_k of f_k(c) - c over
        all of the product's maps, and the image level at a point is f_k(c)
        at its own k. The maps are evaluated on Python floats, as image_graph
        evaluates them (a Plateau's array path squares where its scalar path
        calls pow, which can differ in the last bit), so every comparison
        sees the same floats and every decision is the scalar one, bit for
        bit. A point whose defining word is not admissible is not searched.
        """
        levels = np.full(len(xs), np.nan)
        if not len(xs):
            return levels
        l, r = self.product.window
        size = l + 2 + max(r - 1, 0)
        if size > WINDOW_CAP:
            raise ResourceBoundError(f"image window size {size} exceeds the bound {WINDOW_CAP}")
        codes = _word_codes(rows, -l - 1 - lo, l + r + 1, self.product.base.alphabet_size)
        rank = np.minimum(np.searchsorted(self._defining_codes, codes), len(self._defining_codes) - 1)
        slot = self._defining_maps[rank]
        lower, upper = (np.zeros_like(xs), xs.copy()) if up else (xs.copy(), np.ones_like(xs))
        active = np.flatnonzero(self._defining_codes[rank] == codes)
        for _ in range(REFINE_STEPS):
            level = 0.5 * (lower[active] + upper[active])
            valid = (0.0 < level) & (level < 1.0)
            active, level = active[valid], level[valid]
            if not len(active):
                break
            values = np.array([[fmap.eval(c) for c in level.tolist()] for fmap in self._maps])
            drift = values - level
            x = xs[active]
            image = values[slot[active], np.arange(len(active))]
            if up:
                drifting = drift.min(axis=0) - 2.0 * EPS_ROUND >= DELTA_CERT
                move_lo = drifting & (image - x < DELTA_CERT)
                move_hi = ~drifting | (~move_lo & (x - level < DELTA_CERT))
            else:
                drifting = -drift.max(axis=0) - 2.0 * EPS_ROUND >= DELTA_CERT
                move_hi = drifting & (x - image < DELTA_CERT)
                move_lo = ~drifting | (~move_hi & (level - x < DELTA_CERT))
            lower[active[move_lo]] = level[move_lo]
            upper[active[move_hi]] = level[move_hi]
            found = ~(move_lo | move_hi)
            levels[active[found]] = level[found]
            active = active[~found]
        return levels


@functools.lru_cache(maxsize=8)
def _cached_classifier(product: MultistepSkewProduct, depth: int) -> DriftClassifier:
    return DriftClassifier(product, depth)


def get_classifier(product: MultistepSkewProduct, depth: int) -> DriftClassifier:
    """Classifier shared across queries for one (product, depth) pair.

    Products compare by identity, so an equal but distinct product gets its own
    classifier; the eight most recently used classifiers are kept, whatever
    the call form.
    """
    return _cached_classifier(product, depth)


def classify_point(product: MultistepSkewProduct, point: LabeledPoint, depth: int) -> Classification:
    """Sound Up/Down/Unknown verdict from the depth-bounded witness search."""
    return get_classifier(product, depth).classify(point)


def certified_regions(product: MultistepSkewProduct, depth: int):
    """Certified under-approximations of the drifting regions as box unions.

    Returns the (up, down) pair of BoxRegions; boxes are per-cylinder disjoint
    fiber intervals.
    """
    classifier = get_classifier(product, depth)
    return classifier.certified_boxes(UP), classifier.certified_boxes(DOWN)


def periodic_fiber_map(
    product: MultistepSkewProduct, word: PeriodicWord, phase: int = 0
) -> list[FiberMap]:
    """Fiber maps along one period of the periodic point, starting at the phase.

    The word wraps to cover the dependence window, so any admissible cyclic
    word works regardless of its length.
    """
    l, r = product.window
    n = len(word.symbols)
    if not product.base.admits(word.symbols + (word.symbols[0],)):
        raise ValueError(f"word {word.symbols} is not cyclically admissible for this base")
    maps = []
    for k in range(n):
        defining = tuple(word.symbol(phase + k + i) for i in range(-l, r + 1))
        maps.append(product.assignment[defining])
    return maps


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of checking a verdict against one full period of the orbit."""

    consistent: bool
    word: tuple[int, ...]
    x: float
    verdict: str
    mapped_x: float
    witness: DriftCertificate | None

    def to_json(self) -> dict:
        record = {
            "consistent": self.consistent,
            "word": list(self.word),
            "x": self.x,
            "verdict": self.verdict,
            "mapped_x": self.mapped_x,
        }
        if self.witness is not None:
            record["witness"] = self.witness.to_json()
        return record


def periodic_consistency(
    product: MultistepSkewProduct, word: PeriodicWord, x: float, depth: int
) -> ConsistencyReport:
    """Check the classifier against the return map over one period.

    An Up verdict with a non-increasing return, or a Down verdict with a
    non-decreasing one, is a soundness violation.
    """
    from .fibers import compose_along_word

    classifier = get_classifier(product, depth)
    lo, hi = classifier.required_range()
    point = LabeledPoint(word.window(lo, hi), x)
    result = classifier.classify(point)
    mapped = float(compose_along_word(periodic_fiber_map(product, word), x))
    violation = (result.verdict == UP and mapped <= x) or (result.verdict == DOWN and mapped >= x)
    return ConsistencyReport(not violation, word.symbols, x, result.verdict, mapped, result.witness)
