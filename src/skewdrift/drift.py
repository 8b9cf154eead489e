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

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleProductsError, ResourceBoundError, WindowTooShortError
from .fibers import EPS_ROUND, FiberMap, MapStack, _joined, compose_along_word
from .products import WINDOW_CAP, LabeledPoint, MultistepSkewProduct
from .regions import BoxRegion, joined_boxes, sweep_rows
from .symbolic import PeriodicWord, TransitionSystem, _at_least, _frozen, _reduce, _symbol_rows, _window_pair

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

    values is a read-only row of levels in (0, 1), one per admissible word on
    coordinates -L..R, in the lexicographic order of system.word_array(L + R + 1).
    """

    system: TransitionSystem
    window: tuple[int, int]
    values: np.ndarray
    __reduce__ = _reduce

    def __post_init__(self):
        L, R = _window_pair(self.window, "graph window")
        words = self.system.word_array(L + R + 1)
        values = np.array(self.values, dtype=float)
        if values.shape != (len(words),):
            raise ValueError(f"graph needs {len(words)} values, one per admissible word, got shape {values.shape}")
        inside = (0.0 < values) & (values < 1.0)
        if not inside.all():
            i = inside.argmin()
            word = tuple(words[i].tolist())
            raise ValueError(f"graph value {values[i]} for word {word} is not strictly inside (0, 1)")
        _frozen(self, window=(L, R), values=values)

    @classmethod
    def constant(cls, system: TransitionSystem, level: float) -> "StepGraph":
        return cls(system, (0, 0), np.full(system.alphabet_size, float(level)))

    def value_at(self, point_window) -> float:
        """Graph level on the cylinder containing the given window, which must be a word of the base."""
        return float(self.values[_point_rank(self.system, self.window, point_window)])


def _point_rank(system: TransitionSystem, window, point_window) -> int:
    """Rank of a point window's word on coordinates -L..R; ValueError unless the window is a base word covering them."""
    system.check_rows(point_window.lo, _symbol_rows([point_window.symbols]))
    L, R = window
    return int(system.word_ranks(np.array([point_window.word(-L, R)]), 0, L + R + 1)[0])


# Graphs inside the kernel below are (window, values): values is an array
# (k, W) holding k graphs over the W lexicographically ordered words of
# system.word_array(L + R + 1).


def _image_window(product_window, window) -> tuple[int, int]:
    """Raw window of a graph's image (see image_graph); ResourceBoundError past WINDOW_CAP."""
    (l, r), (L, R) = product_window, window
    Lp, Rp = max(L, l) + 1, max(max(R, r) - 1, 0)
    if Lp + Rp + 1 > WINDOW_CAP:
        raise ResourceBoundError(f"image window size {Lp + Rp + 1} exceeds the bound {WINDOW_CAP}")
    return Lp, Rp


def _image_arrays(system: TransitionSystem, product_window, maps: MapStack, slots, window, values):
    """Raw image window and image values of k graphs given as values (k, W) on a window.

    See image_graph. slots holds the map of each word of the product window,
    or a row of them per graph. The map and the graph word over each image
    word are gathers by subword rank, and the maps are evaluated on the
    gathered columns, one array call per map form.
    """
    (l, r), (L, R) = product_window, window
    Lp, Rp = _image_window(product_window, window)
    size = Lp + Rp + 1
    slot = slots[..., system.sub_ranks(size, Lp - l - 1, l + r + 1)]
    graph_rank = system.sub_ranks(size, Lp - L - 1, L + R + 1)
    return (Lp, Rp), maps.eval_columns(slot, values[:, graph_rank])


def _minimized(system: TransitionSystem, window, values) -> list:
    """Split graphs by their smallest window: [(window, row indices, values)].

    Drops boundary coordinates the values do not depend on (exact equality),
    which keeps witness chains of effectively shallow systems from hitting
    the window cap. Dropping one edge never changes the dependence on the
    other, so left edges are dropped first, then right ones.
    """
    groups = [(tuple(window), np.arange(len(values)), values)]
    for left in (True, False):
        done = []
        while groups:
            (L, R), rows, vals = groups.pop()
            if (L if left else R) == 0:
                done.append(((L, R), rows, vals))
                continue
            size = L + R + 1
            start = 1 if left else 0
            reduced = vals[:, system.first_extensions(size, start, size - 1)]
            drop = (reduced[:, system.sub_ranks(size, start, size - 1)] == vals).all(axis=1)
            if not drop.all():
                done.append(((L, R), rows[~drop], vals[~drop]))
            if drop.any():
                groups.append(((L - 1, R) if left else (L, R - 1), rows[drop], reduced[drop]))
        groups = done
    return groups


def _drift_arrays(system: TransitionSystem, graph_window, graph, image_window, image):
    """Common window, graph and image values (rows, or one row) on it; per row Up (ranked first), certified, margin."""
    L = max(graph_window[0], image_window[0])
    R = max(graph_window[1], image_window[1])
    size = L + R + 1
    if size > WINDOW_CAP:
        raise ResourceBoundError(f"common window size {size} exceeds the bound {WINDOW_CAP}")
    graph = graph[..., system.window_ranks(graph_window, (L, R))]
    image = image[..., system.window_ranks(image_window, (L, R))]
    drift = image - graph
    up, down = drift.min(axis=-1) - 2.0 * EPS_ROUND, -drift.max(axis=-1) - 2.0 * EPS_ROUND
    is_up = up >= DELTA_CERT
    return (L, R), graph, image, is_up, is_up | (down >= DELTA_CERT), np.where(is_up, up, down)


def _strip(g, e, up: bool):
    """Closed bounds (lo, hi) of the fiber strip a witness certifies between its graph g and image e levels."""
    return (g + DELTA_CERT, e - DELTA_CERT) if up else (e + DELTA_CERT, g - DELTA_CERT)


def _chains(products: list, depth: int):
    """Per product of one base and window: its chains' witness groups, Up and Down places and chains cut short.

    Each level's chain is its constant graph and the graph's images up to the
    depth; a step whose graph certifiably drifts gives a witness. All chains
    advance together, rows (product, level) of one array per current window,
    and stop where the next image window would exceed WINDOW_CAP. Rows map by
    their product's slot row into the products' maps joined by value by
    _joined, so each product gets, when the returned iterator reaches it,
    what a pass of its own gives: its witnesses on one common window form a
    group (window, graph rows, image rows, margins), in order of first
    appearance, and each direction tags its witnesses 0.. by level, then
    step, placing tag t at row row[t] of group group[t].
    """
    if not products:
        return iter(())
    system, product_window, count = products[0].base, products[0].window, len(products)
    levels = np.array(LEVEL_GRID)
    maps, keys = _joined([p.map_slots[0].maps for p in products])
    slots = np.array([key[p.map_slots[1]] for key, p in zip(keys, products)])
    # (window, chains product * len(levels) + level, values)
    values = np.repeat(np.tile(levels, count)[:, None], system.alphabet_size, axis=1)
    groups = [((0, 0), np.arange(count * len(levels)), values)]
    slices = [[] for _ in products]  # per product: (part, its slice) of each step and image window it reaches
    truncated, edges = np.zeros(count, dtype=np.int64), np.arange(count + 1) * len(levels)
    for _ in range(depth + 1):
        advanced = []
        for window, chains, values in groups:
            try:
                raw, image = _image_arrays(system, product_window, maps, slots[chains // len(levels)], window, values)
            except ResourceBoundError:
                truncated += np.bincount(chains // len(levels), minlength=count)
                continue
            for image_window, rows, image_values in _minimized(system, raw, image):
                # within the cap: a graph's right offset never exceeds its image's raw one
                common, g, e, up, ok, margin = _drift_arrays(system, window, values[rows], image_window, image_values)
                hits = np.flatnonzero(ok)
                kept = chains[rows]  # chains run by product, so each product's rows and witnesses are slices
                level = (kept[hits] % len(levels)).astype(np.min_scalar_type(len(levels)))
                part = (common, level, up[hits], g[hits], e[hits], margin[hits])
                present, bounds = np.searchsorted(kept, edges).tolist(), np.searchsorted(kept[hits], edges).tolist()
                for m in range(count):
                    if present[m] < present[m + 1]:
                        slices[m].append((part, bounds[m], bounds[m + 1]))
                advanced.append((image_window, kept, image_values))
        groups = advanced
    return map(_product_chains, slices, truncated.tolist())


def _product_chains(slices: list, truncated: int) -> tuple:
    """One product's _chains result from its part slices (common window, levels, Up flags, graphs, images, margins)."""
    parts = [(part[0], *(v[a:b] for v in part[1:])) for part, a, b in slices]
    if not parts:
        none = np.empty(0, dtype=np.int64)
        return [], (none, none), (none, none), truncated
    group_of, first, size = {}, [], {}  # common window -> group; each part's first row; rows per group
    for window, level, *_ in parts:
        group_of.setdefault(window, len(group_of))
        first.append(size.get(window, 0))
        size[window] = first[-1] + len(level)
    witnesses = [(w, *map(np.concatenate, zip(*(p[3:] for p in parts if p[0] == w)))) for w in group_of]
    at, level, is_up = zip(*(p[:3] for p in parts))
    counts = list(map(len, level))
    group, first = np.repeat([group_of[w] for w in at], counts), np.repeat(first, counts)
    level, is_up = np.concatenate(level), np.concatenate(is_up)
    row = first + np.arange(len(level)) - np.repeat(np.cumsum(counts) - counts, counts)
    order = np.argsort(level, kind="stable")  # by level, then step: parts come step by step
    up, down = order[is_up[order]], order[~is_up[order]]
    return witnesses, (group[up], row[up]), (group[down], row[down]), truncated


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
    return _image_graph(product.window, *product.map_slots, graph)


def _image_graph(product_window, maps: MapStack, slots, graph: StepGraph) -> StepGraph:
    """image_graph for a product given as its window and map_slots."""
    system = graph.system
    raw, image = _image_arrays(system, product_window, maps, slots, graph.window, graph.values[None])
    [(window, _, image)] = _minimized(system, raw, image)
    return StepGraph(system, window, image[0])


@dataclass(frozen=True)
class DriftOutcome:
    """Certified verdict for one graph: direction, margin, and the refined pair."""

    direction: str  # "up" | "down" | "inconclusive"
    margin: float | None
    graph: StepGraph
    image: StepGraph


def _drift(graph: StepGraph, image: StepGraph) -> tuple:
    """Common window, graph and image rows on it, direction ("up", "down" or "inconclusive") and margin or None."""
    window, g, e, up, ok, margin = _drift_arrays(graph.system, graph.window, graph.values, image.window, image.values)
    return window, g, e, ("up" if up else "down") if ok else "inconclusive", float(margin) if ok else None


def certify_drift(product: MultistepSkewProduct, graph: StepGraph) -> DriftOutcome:
    """Certify whether the graph drifts up or down under the product.

    Outward-rounded comparison over all admissible words of the common window;
    "inconclusive" includes "too close to certify".
    """
    window, g, e, direction, margin = _drift(graph, image_graph(product, graph))
    return DriftOutcome(direction, margin, StepGraph(graph.system, window, g), StepGraph(graph.system, window, e))


@dataclass(frozen=True)
class DriftCertificate:
    """A drifting graph with a certified margin; replayable on other products."""

    direction: str
    graph: StepGraph
    margin: float
    product_fingerprint: str

    def to_json(self) -> dict:
        L, R = self.graph.window
        words = self.graph.system.word_array(L + R + 1).tolist()
        return {
            "direction": self.direction,
            "window": list(self.graph.window),
            "values": [{"word": w, "value": v} for w, v in zip(words, self.graph.values.tolist())],
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
    """Re-certify a witness graph on another product, optionally with its strip condition.

    Raises ValueError if the point's window is not a word of the base space.
    Decides as certify_drift would, and tests the strip as the classifier does.
    """
    window, g, e, direction, margin = _drift(certificate.graph, image_graph(product, certificate.graph))
    rank = None if point is None else _point_rank(product.base, window, point.window)
    if direction != certificate.direction:
        return ReplayResult(False, None, f"drift verdict is {direction}")
    if rank is not None:
        lo, hi = _strip(g[rank], e[rank], direction == "up")
        if not lo <= point.x <= hi:
            return ReplayResult(False, margin, "strip condition fails at the point")
    return ReplayResult(True, margin)


@dataclass(frozen=True)
class Classification:
    """Sound verdict for one point; Up/Down always carry a witness."""

    verdict: str
    witness: DriftCertificate | None
    depth_searched: int

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict {self.verdict!r} is not one of {VERDICTS}")
        if self.verdict in (UP, DOWN) and self.witness is None:
            raise ValueError("Up/Down verdicts must carry a witness")
        if self.verdict == UNKNOWN and self.witness is not None:
            raise ValueError("Unknown verdicts never carry a witness")

    def to_json(self) -> dict:
        record = {"verdict": self.verdict, "depth": self.depth_searched}
        if self.witness is not None:
            record["witness"] = self.witness.to_json()
        return record


def _as_batch(rows, xs) -> tuple[np.ndarray, np.ndarray]:
    rows, xs = _symbol_rows(rows), np.asarray(xs, dtype=float)
    if rows.ndim != 2 or xs.ndim != 1 or len(rows) != len(xs):
        raise ValueError(f"need symbol rows (n, width) and n fiber coordinates, got shapes {rows.shape} and {xs.shape}")
    return rows, xs


class DriftClassifier:
    """Witness family for one product at one depth, shared across point queries.

    The family is the 64-level grid of constant graphs iterated up to the
    depth (truncated_chains counts chains cut short at the window cap), kept
    as array groups like graphs and regions, plus per-point binary refinement
    of the level near the queried fiber coordinate (the points its index leaves
    open are a _refine part, refined alone or in sweep's batches). It keeps only
    what it reads of the product (base, window, map_slots, fingerprint), never the product,
    and the certificate of each index tag once a query has hit it.
    Its witness chains are the next share of chains, an iterator over the
    shares of one _chains pass at the depth (sweep's, handed on by get_classifier),
    or of a pass of its own.
    """

    def __init__(self, product: MultistepSkewProduct, depth: int, chains=None):
        self.depth = depth = _at_least(depth, 0, "search depth")
        # an unnamed pass of its own is freed once next returns, with the parts its share was cut from
        share = next(_chains([product], depth) if chains is None else chains)
        witnesses, self._up, self._down, self.truncated_chains = share
        self.base = product.base
        self.product_window = product.window
        self._fingerprint = product.fingerprint()
        self._maps, self._slots = product.map_slots
        self._up_index, self._up_region = self._build_index(witnesses, self._up, up=True)
        self._down_index, self._down_region = self._build_index(witnesses, self._down, up=False)
        self._witnesses = [(window, graphs, margins) for window, graphs, _, margins in witnesses]  # no images
        self._certificates = {}  # (direction, tag) -> certificate of an index hit
        self._verdict_index = self._check_disjoint()  # where every query reads a point's verdict
        # the last coordinate a query reads: the joint window's right end, or r - 1 for refinement
        self._read_hi = max(self._verdict_index[0].window[1], self.product_window[1] - 1)

    def _build_index(self, witnesses: list, places, up: bool) -> tuple[tuple[BoxRegion, np.ndarray], BoxRegion]:
        """Witness-tagged strips for point lookup, and their union as a region.

        The strips of the witnesses at places, (group, row) arrays in tag
        order, are stacked into (word, witness) arrays on the common window,
        one gather per group, and each word's row is swept by sweep_rows. Its
        pieces form the index, a region whose box i is covered by witness
        tags[i] (the tags end with -1, the tag of box -1), and its merged runs
        the region.
        """
        system = self.base
        group, row = places
        used = np.flatnonzero(np.bincount(group, minlength=len(witnesses))).tolist()
        window = tuple(max((witnesses[k][0][i] for k in used), default=0) for i in (0, 1))
        count = len(system.word_array(window[0] + window[1] + 1))
        lo, hi = np.empty((2, count, len(group)))
        for k in used:
            wit_window, graph, image, _ = witnesses[k]
            cols = np.flatnonzero(group == k)
            ranks = system.window_ranks(wit_window, window)
            lo[:, cols], hi[:, cols] = _strip(graph[row[cols]][:, ranks].T, image[row[cols]][:, ranks].T, up)
        empty = hi <= lo
        lo[empty], hi[empty] = np.inf, -np.inf
        (words, cols, starts, ends), runs = sweep_rows(lo, hi)
        return (BoxRegion(system, window, words, starts, ends), np.append(cols, -1)), BoxRegion(system, window, *runs)

    def _check_disjoint(self) -> tuple[BoxRegion, np.ndarray]:
        """The Up and Down runs as one region, and each box's verdict code (the codes end with Unknown, box -1's).

        Closed Up and Down strips can never meet, and runs of one direction never do (sweep_rows merges
        touching pieces), so a box meeting the one before it on its word is an Up/Down contact: a bug.
        """
        window, ups, ranks, lo, hi = joined_boxes(self._up_region, self._down_region)
        meet = 1 + np.flatnonzero((ranks[1:] == ranks[:-1]) & (lo[1:] <= hi[:-1]))
        if len(meet):
            raise RuntimeError(f"internal inconsistency: Up and Down strips meet at {lo[meet[0]]}, word rank {ranks[meet[0]]}")
        codes = np.append(np.where(ups, _UP_CODE, _DOWN_CODE), _UNKNOWN_CODE).astype(np.int8)
        return BoxRegion(self.base, window, ranks, lo, hi), codes

    def required_range(self) -> tuple[int, int]:
        l, r = self.product_window
        return (-(self.depth + l + 1), self.depth + r)

    def certified_boxes(self, direction: str) -> BoxRegion:
        """Certified region for a direction, UP or DOWN (else ValueError): per-word disjoint fiber intervals."""
        if direction not in (UP, DOWN):
            raise ValueError(f"direction must be {UP!r} or {DOWN!r}, got {direction!r}")
        return self._up_region if direction == UP else self._down_region

    def classify(self, point: LabeledPoint) -> Classification:
        code, up_cert, down_cert = self._point_certificates(point, exhaustive=False)
        return Classification(VERDICTS[code], up_cert or down_cert, self.depth)

    def search_certificates(self, point: LabeledPoint) -> tuple[DriftCertificate | None, DriftCertificate | None]:
        """Exhaustive independent searches in both directions (soundness testing)."""
        return self._point_certificates(point, exhaustive=True)[1:]

    def classify_arrays(self, lo: int, rows, xs) -> np.ndarray:
        """Verdict codes, indices into VERDICTS, for a batch of points.

        rows is an int array (n, width) of symbols on coordinates
        lo..lo + width - 1 and xs holds the n fiber coordinates. The codes are
        the verdicts classify gives point by point; points with x <= 0 or
        x >= 1 are Unknown. A row that is not an admissible word of the
        base (a symbol outside the alphabet or a forbidden transition)
        raises ValueError.
        """
        return self._search(lo, *_as_batch(rows, xs), False)[0]

    def _point_certificates(self, point: LabeledPoint, exhaustive: bool):
        """A point's verdict code, Up and Down certificates; only an index hit's tag is read, from its pieces."""
        lo, (rows, xs) = point.window.lo, _as_batch([point.window.symbols], [point.x])
        (code,), *levels = self._search(lo, rows, xs, exhaustive)
        hit = [-1, -1]  # per direction the tag of an index hit: a code no refined level set
        if code != _UNKNOWN_CODE and np.isnan(levels[code][0]):
            pieces, tags = (self._up_index, self._down_index)[code]
            hit[code] = int(tags[pieces._locate(lo, rows, xs)[0]])
            if hit[code] < 0:
                raise RuntimeError(f"internal inconsistency: no {VERDICTS[code]} piece holds a point its runs hold")
        return code, *(self._certificate(d, tag, float(level[0])) for d, tag, level in zip((UP, DOWN), hit, levels))

    def _certificate(self, direction: str, tag: int, level: float) -> DriftCertificate | None:
        """Witness of an index hit (tag >= 0, built once per tag) or of a refined level (not NaN)."""
        if tag >= 0:
            if (direction, tag) not in self._certificates:
                group, row = self._up if direction == UP else self._down
                window, graphs, margins = self._witnesses[group[tag]]
                graph, margin = StepGraph(self.base, window, graphs[row[tag]]), float(margins[row[tag]])
                certificate = DriftCertificate(direction.lower(), graph, margin, self._fingerprint)
                self._certificates[direction, tag] = certificate
            return self._certificates[direction, tag]
        if np.isnan(level):
            return None
        graph = StepGraph.constant(self.base, level)
        window, g, _, found, margin = _drift(graph, _image_graph(self.product_window, self._maps, self._slots, graph))
        if found != direction.lower():
            raise RuntimeError(f"internal inconsistency: refined level {level} is not {direction}")
        return DriftCertificate(found, StepGraph(self.base, window, g), margin, self._fingerprint)

    def _check_cover(self, lo: int, rows: np.ndarray, hi: int):
        """WindowTooShortError unless rows on coordinates lo.. cover required_range()[0] up to hi."""
        need, have = (self.required_range()[0], hi), (lo, lo + rows.shape[1] - 1)
        if not (have[0] <= need[0] and need[1] <= have[1]):
            raise WindowTooShortError(need, have, f"classification at depth {self.depth}")

    def _lookup(self, lo: int, rows: np.ndarray, xs: np.ndarray, exhaustive: bool):
        """Per point its verdict code, one lookup in the joint Up and Down runs, then the open points and their part.

        A point inside (0, 1) is open (see _refine) where it is coded Unknown, or, if exhaustive, in each
        direction it is not coded: the runs are the pieces' union and never meet (_check_disjoint).
        Rows cover required_range()[0] up to _read_hi, the last coordinate a query reads; a row that is
        not a word of the base space raises ValueError.
        """
        self._check_cover(lo, rows, self._read_hi)
        self.base.check_rows(lo, rows)
        region, codes = self._verdict_index
        inside = (xs > 0.0) & (xs < 1.0)
        code = codes[np.where(inside, region._locate(lo, rows, xs), -1)]
        unknown = inside & (code == _UNKNOWN_CODE)
        open_up, open_down = (inside & (code != c) for c in (_UP_CODE, _DOWN_CODE)) if exhaustive else (unknown,) * 2
        points = np.flatnonzero(open_up | open_down)
        l, r = self.product_window
        if len(points):
            _image_window(self.product_window, (0, 0))  # refinement tries constant graphs
        ranks = self.base.word_ranks(rows[points], -l - 1 - lo, l + r + 1) if len(points) else points
        part = (self._maps, self._slots[ranks], xs[points], open_up[points], open_down[points])
        return code, points, part

    def _search(self, lo: int, rows: np.ndarray, xs: np.ndarray, exhaustive: bool):
        """Per point: verdict codes (the index's if exhaustive), then Up and Down refined levels (NaN for none)."""
        self._check_cover(lo, rows, self.required_range()[1])
        codes, points, part = self._lookup(lo, rows, xs, exhaustive)
        levels = np.full((2, len(xs)), np.nan)
        if len(points):  # most scalar queries end at the index
            levels[:, points] = _refine([part], exhaustive)[0]
            if not exhaustive:
                codes[~np.isnan(levels[0])], codes[~np.isnan(levels[1])] = _UP_CODE, _DOWN_CODE
        return codes, *levels


def _refine(parts: list, exhaustive: bool) -> list:
    """Binary search, per open point of each part, for a constant-graph level whose strip straddles it.

    A part is one classifier's open points (maps, slots, xs, up, down): its MapStack, each point's slot
    (the map of its predecessor's defining word) and x, and the masks searched Up and Down, equal unless
    exhaustive. Returns per part its (2, len(xs)) Up and Down levels, NaN where a search fails or does
    not run. All searches bisect in lockstep, a search on its own part's maps only: several parts' maps
    are joined by value (_joined) and padded by repeating one, which changes no min or max. So each step
    decides as certify_drift would on the point's own product, whatever the batch (README, "Refinement").
    """
    out = [np.full((2, len(xs)), np.nan) for _, _, xs, _, _ in parts]
    # Up searches part by part, then Down ones: unless exhaustive, Up search i and Down search m + i share a point
    points = [np.flatnonzero(part[3]) for part in parts] + [np.flatnonzero(part[4]) for part in parts]
    counts = list(map(len, points))
    total, m = sum(counts), sum(counts[: len(parts)])
    slot, x = (np.concatenate([part[i][p] for part, p in zip(parts * 2, points)]) for i in (1, 2))
    active, sign = np.arange(total), np.where(np.arange(total) < m, 1.0, -1.0)
    x = upper = sign * x
    s, lower, stop, levels = sign, np.minimum(sign, 0.0), np.zeros(total, dtype=bool), np.full(total, np.nan)
    maps, keys = _joined([part[0].maps for part in parts]) if len(parts) > 1 else (parts[0][0], [])
    table = np.array([np.pad(key, (0, max(map(len, keys)) - len(key)), mode="edge") for key in keys])
    rows = table[np.repeat(np.tile(np.arange(len(parts)), 2), counts)] if keys else None  # each search's part's maps
    for _ in range(REFINE_STEPS):
        level = 0.5 * (lower + upper)
        # level lies in [lower, upper] inside [0, x] or [-1, x], so only the lower end 0 or -1 can be hit
        valid = level > np.minimum(s, 0.0)
        if not valid.all():
            active, s, x, slot, lower, upper, level = (v[valid] for v in (active, s, x, slot, lower, upper, level))
        if not len(active):
            break
        if rows is None:
            values = maps.eval_all(s * level) * s
        else:  # (maps, searches): each column its own part's maps
            which = rows[active].T
            values = maps.eval_columns(which, np.broadcast_to(s * level, which.shape)) * s
        image = values[0] if len(values) == 1 else values[slot, np.arange(len(active))]  # one map: every slot is 0
        # rounding is monotone, so min_k fl(f_k(c) - c) is fl(min_k f_k(c) - c)
        drifting = values.min(axis=0) - level - 2.0 * EPS_ROUND >= DELTA_CERT
        bottom, top = _strip(level, image, up=True)  # on negated values it is the Down strip
        move_lo = drifting & (x > top)
        move_hi = ~drifting | (~move_lo & (x < bottom))
        lower, upper = np.where(move_lo, level, lower), np.where(move_hi, level, upper)
        moved = move_lo | move_hi
        if not moved.all():
            done = active[~moved]
            levels[done] = level[~moved]
            if not exhaustive:
                stop[done[done < m] + m] = True
            keep = moved & ~stop[active]
            active, s, x, slot, lower, upper = (v[keep] for v in (active, s, x, slot, lower, upper))
    levels = np.where(stop, np.nan, sign * levels)
    for k, found in enumerate(np.split(levels, np.cumsum(counts)[:-1])):
        out[k % len(parts)][k // len(parts), points[k]] = found
    return out


def get_classifier(product: MultistepSkewProduct, depth: int, chains=None) -> DriftClassifier:
    """Classifier shared across queries for one (product, depth) pair.

    The product keeps one classifier per depth, so the classifier lives as
    long as the product; an equal but distinct product gets its own. A new
    classifier takes its witness chains from chains (DriftClassifier's), if given.
    """
    depth = _at_least(depth, 0, "search depth")
    if depth not in product._classifiers:
        product._classifiers[depth] = DriftClassifier(product, depth, chains)
    return product._classifiers[depth]


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


def periodic_fiber_map(product: MultistepSkewProduct, word: PeriodicWord) -> list[FiberMap]:
    """Fiber maps along one period of the periodic point, starting at coordinate 0.

    The word wraps to cover the dependence window, so any admissible cyclic
    word works regardless of its length.
    """
    l, r = product.window
    n = len(word.symbols)
    if not product.base.admits(word.symbols + (word.symbols[0],)):
        raise ValueError(f"word {word.symbols} is not cyclically admissible for this base")
    maps = []
    for k in range(n):
        defining = tuple(word.symbol(k + i) for i in range(-l, r + 1))
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
    classifier = get_classifier(product, depth)
    lo, hi = classifier.required_range()
    point = LabeledPoint(word.window(lo, hi), x)
    result = classifier.classify(point)
    mapped = float(compose_along_word(periodic_fiber_map(product, word), x))
    violation = (result.verdict == UP and mapped <= x) or (result.verdict == DOWN and mapped >= x)
    return ConsistencyReport(not violation, word.symbols, x, result.verdict, mapped, result.witness)
