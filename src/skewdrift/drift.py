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

import bisect
import functools
from dataclasses import dataclass

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


class _RegionIndex:
    """Per-word disjoint certified strips, each tagged with a covering witness."""

    def __init__(self, window: tuple[int, int], by_word: dict[tuple[int, ...], list]):
        self.window = window
        self.pieces: dict[tuple[int, ...], tuple[list, list, list]] = {}
        for word, boxes in by_word.items():
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
            self.pieces[word] = (starts, ends, tags)

    def lookup(self, word: tuple[int, ...], x: float) -> int | None:
        entry = self.pieces.get(word)
        if entry is None:
            return None
        starts, ends, tags = entry
        i = bisect.bisect_right(starts, x) - 1
        if i >= 0 and x <= ends[i]:
            return tags[i]
        return None


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
            return _RegionIndex((0, 0), {}), BoxRegion.empty(system)
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
        index = _RegionIndex(window, by_word)
        intervals = {w: merge_intervals(zip(starts, ends)) for w, (starts, ends, _) in index.pieces.items()}
        return index, BoxRegion(system, window, intervals)

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

    def _certificate(self, witness: _Witness, direction: str) -> DriftCertificate:
        return DriftCertificate(direction.lower(), witness.graph, witness.margin, self._fingerprint)

    def classify(self, point: LabeledPoint) -> Classification:
        up_cert, down_cert = self._region_hits(point)
        if up_cert is not None and down_cert is not None:
            raise RuntimeError("internal inconsistency: point certified both Up and Down")
        if up_cert is not None:
            return Classification(UP, up_cert, self.depth)
        if down_cert is not None:
            return Classification(DOWN, down_cert, self.depth)
        cert = self._refine(point, up=True)
        if cert is not None:
            return Classification(UP, cert, self.depth)
        cert = self._refine(point, up=False)
        if cert is not None:
            return Classification(DOWN, cert, self.depth)
        return Classification(UNKNOWN, None, self.depth)

    def search_certificates(self, point: LabeledPoint) -> tuple[DriftCertificate | None, DriftCertificate | None]:
        """Exhaustive independent searches in both directions (soundness testing)."""
        up_cert, down_cert = self._region_hits(point)
        if up_cert is None:
            up_cert = self._refine(point, up=True)
        if down_cert is None:
            down_cert = self._refine(point, up=False)
        return up_cert, down_cert

    def _region_hits(self, point: LabeledPoint):
        self._check_coverage(point)
        if point.x <= 0.0 or point.x >= 1.0:
            return None, None
        up_cert = None
        down_cert = None
        tag = self._lookup(self._up_index, point)
        if tag is not None:
            up_cert = self._certificate(self._up[tag], UP)
        tag = self._lookup(self._down_index, point)
        if tag is not None:
            down_cert = self._certificate(self._down[tag], DOWN)
        return up_cert, down_cert

    def _lookup(self, index: _RegionIndex, point: LabeledPoint) -> int | None:
        if not index.pieces:
            return None
        L, R = index.window
        return index.lookup(point.window.word(-L, R), point.x)

    def _check_coverage(self, point: LabeledPoint):
        lo, hi = self.required_range()
        if not point.window.covers(lo, hi):
            raise WindowTooShortError((lo, hi), (point.window.lo, point.window.hi),
                                      f"classification at depth {self.depth}")

    def _refine(self, point: LabeledPoint, up: bool) -> DriftCertificate | None:
        """Binary search a constant-graph level whose strip straddles the point.

        Sound for any system; complete only when the fiber displacement over
        the searched side changes sign once, which covers the witness gaps the
        64-level grid leaves near slow equilibria.
        """
        x = point.x
        if x <= 0.0 or x >= 1.0:
            return None
        lo, hi = (0.0, x) if up else (x, 1.0)
        product = self.product
        for _ in range(REFINE_STEPS):
            level = 0.5 * (lo + hi)
            if not (0.0 < level < 1.0):
                break
            graph = StepGraph.constant(product.base, level)
            outcome = _drift_outcome(graph, image_graph(product, graph))
            if up:
                if outcome.direction != "up":
                    hi = level
                    continue
                image_level = outcome.image.value_at(point.window)
                if image_level - x < DELTA_CERT:
                    lo = level
                elif x - level < DELTA_CERT:
                    hi = level
                else:
                    return self._certificate(_Witness(outcome.graph, outcome.image, outcome.margin), UP)
            else:
                if outcome.direction != "down":
                    lo = level
                    continue
                image_level = outcome.image.value_at(point.window)
                if x - image_level < DELTA_CERT:
                    hi = level
                elif level - x < DELTA_CERT:
                    lo = level
                else:
                    return self._certificate(_Witness(outcome.graph, outcome.image, outcome.margin), DOWN)
        return None


@functools.lru_cache(maxsize=8)
def get_classifier(product: MultistepSkewProduct, depth: int) -> DriftClassifier:
    """Classifier shared across queries for one (product, depth) pair.

    Products compare by identity, so an equal but distinct product gets its own
    classifier; the eight most recently used classifiers are kept. The cache
    key follows the call form: pass both arguments positionally to share.
    """
    return DriftClassifier(product, depth)


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
