import functools
import json
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import skewdrift as sd
from skewdrift import drift
from skewdrift.config import load_config
from skewdrift.drift import DELTA_CERT, DOWN, LEVEL_GRID, REFINE_STEPS, UNKNOWN, UP, VERDICTS
from skewdrift.errors import IncompatibleProductsError, ResourceBoundError, WindowTooShortError
from skewdrift.fibers import EPS_ROUND, MapStack
from skewdrift.products import WINDOW_CAP
from skewdrift.symbolic import _symbols_from_uniforms

from conftest import (
    constant_product,
    exact_eval,
    graph_dict,
    merge_intervals,
    multistep_affines,
    region_dict,
    same_boxes,
    sampled_points,
    scalar_eval,
    wide_point,
)

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


class TestImageGraph:
    def test_two_map_constant_graph(self, two_map):
        g = sd.StepGraph.constant(two_map.base, 0.3)
        img = sd.image_graph(two_map, g)
        # level over a point is the predecessor's map applied to 0.3
        values = graph_dict(img)
        assert img.window == (1, 0)
        assert values[(1, 1)] == pytest.approx(0.34)
        assert values[(1, 2)] == pytest.approx(0.34)
        assert values[(2, 1)] == pytest.approx(0.41)
        assert values[(2, 2)] == pytest.approx(0.41)

    def test_invariant_graph_of_constant_system(self, const_affine):
        g = sd.StepGraph.constant(const_affine.base, 0.5)
        img = sd.image_graph(const_affine, g)
        assert img.window == (0, 0)
        assert all(v == pytest.approx(0.5) for v in img.values)

    def test_twice_equals_two_step_composition(self, two_map):
        g = sd.StepGraph.constant(two_map.base, 0.3)
        twice = sd.image_graph(two_map, sd.image_graph(two_map, g))
        maps = {1: sd.Affine(0.1, 0.8), 2: sd.Affine(0.2, 0.7)}
        # direct oracle: follow the two-step word composition by hand
        assert twice.window == (2, 0)
        for word, value in graph_dict(twice).items():
            expected = maps[word[1]].eval(maps[word[0]].eval(0.3))
            assert value == pytest.approx(expected, abs=1e-15)

    def test_window_growth_capped(self, ms_full):
        g = sd.StepGraph.constant(ms_full.base, 0.3)
        with pytest.raises(ResourceBoundError):
            for _ in range(20):
                g = sd.image_graph(ms_full, g)

    def test_normalization_keeps_constant_systems_shallow(self, const_affine):
        g = sd.StepGraph.constant(const_affine.base, 0.1)
        for _ in range(30):  # far past the cap if windows grew
            g = sd.image_graph(const_affine, g)
            assert g.window == (0, 0)


def _wide_left_product(system, chain):
    """Window (11, 0): a step's image window, and so a refinement step's, is 13 > WINDOW_CAP symbols wide."""
    return sd.MultistepSkewProduct(system, chain, (11, 0), dict.fromkeys(system.words(12), sd.Affine(0.1, 0.8)))


class TestWindowCaps:
    """The window caps of refinement and of a graph's common window with its image refuse one symbol past WINDOW_CAP."""

    def test_refinement_image_window(self, full2, uniform_chain):
        # every chain is cut at its first step, so every point is left to refinement, whose
        # constant-graph image needs the same 13-symbol window as certify_drift's
        product = _wide_left_product(full2, uniform_chain)
        with pytest.raises(ResourceBoundError, match="image window size 13 exceeds the bound 12"):
            sd.certify_drift(product, sd.StepGraph.constant(full2, 0.3))
        with pytest.raises(ResourceBoundError, match="image window size 13 exceeds the bound 12"):
            sd.classify_point(product, wide_point(product, 0, seed=5, x=0.3), 0)
        with pytest.raises(ResourceBoundError, match="image window size 13 exceeds the bound 12"):
            sd.estimate_regions(product, 0, 100, 0)

    def test_common_window_of_graph_and_image(self, full2, const_affine):
        # the image of a (0, 11) graph under a (0, 0) product lies on (1, 10): each fits, their union (1, 11) does not
        values = np.random.default_rng(7).uniform(0.1, 0.9, len(full2.word_array(12)))
        graph = sd.StepGraph(full2, (0, 11), values)
        assert sd.image_graph(const_affine, graph).window == (1, 10)
        with pytest.raises(ResourceBoundError, match="common window size 13 exceeds the bound 12"):
            sd.certify_drift(const_affine, graph)


class TestCertifyDrift:
    def test_upward_level(self, const_affine):
        out = sd.certify_drift(const_affine, sd.StepGraph.constant(const_affine.base, 0.1))
        assert out.direction == "up"
        assert out.margin == pytest.approx(0.08, abs=1e-9)

    def test_fixed_level_inconclusive(self, const_affine):
        out = sd.certify_drift(const_affine, sd.StepGraph.constant(const_affine.base, 0.5))
        assert out.direction == "inconclusive" and out.margin is None

    def test_two_map_margin_is_min_over_words(self, two_map):
        out = sd.certify_drift(two_map, sd.StepGraph.constant(two_map.base, 0.3))
        assert out.direction == "up"
        assert out.margin == pytest.approx(0.04, abs=1e-9)

    def test_downward_level(self, const_affine):
        out = sd.certify_drift(const_affine, sd.StepGraph.constant(const_affine.base, 0.9))
        assert out.direction == "down"
        assert out.margin == pytest.approx(0.08, abs=1e-9)

    def test_monotone_iteration_preserves_verdict(self, two_map, ms_full, const_affine):
        for product in (const_affine, two_map, ms_full):
            for level in (0.1, 0.25, 0.85):
                g = sd.StepGraph.constant(product.base, level)
                out = sd.certify_drift(product, g)
                if out.direction == "inconclusive":
                    continue
                again = sd.certify_drift(product, sd.image_graph(product, g))
                assert again.direction == out.direction

    def test_pair_is_the_gather_onto_the_common_window(self, two_map, ms_full, const_affine):
        # graph and image re-keyed onto the common window, bit for bit: the rank of each common
        # word's restriction, found here by word lookup
        for product in (const_affine, two_map, ms_full):
            for level in (0.1, 0.5, 0.85):
                graph = sd.StepGraph.constant(product.base, level)
                for _ in range(4):
                    image = sd.image_graph(product, graph)
                    out = sd.certify_drift(product, graph)
                    L, R = (max(a, b) for a, b in zip(graph.window, image.window))
                    assert out.graph.window == out.image.window == (L, R)
                    for source, got in ((graph, out.graph), (image, out.image)):
                        La, Ra = source.window
                        rank = {w: i for i, w in enumerate(product.base.words(La + Ra + 1))}
                        want = [source.values[rank[w[L - La : L + Ra + 1]]] for w in product.base.words(L + R + 1)]
                        assert np.array_equal(got.values.view(np.int64), np.array(want).view(np.int64))
                    graph = image


class TestClassifyPoint:
    def test_one_dimensional_verdicts(self, const_affine):
        for x, expected in ((0.2, UP), (0.5, UNKNOWN), (0.8, DOWN)):
            point = wide_point(const_affine, 1, seed=1, x=x)
            result = sd.classify_point(const_affine, point, 1)
            assert result.verdict == expected

    def test_invariant_level_unknown_at_every_depth(self, const_affine):
        for depth in (0, 2, 5, 8):
            point = wide_point(const_affine, depth, seed=2, x=0.5)
            assert sd.classify_point(const_affine, point, depth).verdict == UNKNOWN

    def test_up_witness_strip_contains_point(self, const_affine):
        point = wide_point(const_affine, 1, seed=3, x=0.2)
        result = sd.classify_point(const_affine, point, 1)
        cert = result.witness
        assert cert is not None and cert.direction == "up"
        level = cert.graph.value_at(point.window)
        assert level < 0.2
        replay = sd.replay_certificate(const_affine, cert, point)
        assert replay.ok and replay.margin >= DELTA_CERT

    def test_boundary_points_unknown(self, const_affine):
        for x in (0.0, 1.0):
            point = wide_point(const_affine, 2, seed=4, x=x)
            assert sd.classify_point(const_affine, point, 2).verdict == UNKNOWN

    def test_window_too_short_names_range(self, const_affine):
        point = sd.LabeledPoint(sd.SymbolWindow(-1, (1, 1, 1)), 0.2)
        with pytest.raises(WindowTooShortError) as err:
            sd.classify_point(const_affine, point, 4)
        assert err.value.needed == (-5, 4)

    def test_longer_window_same_verdict(self, ms_full):
        depth = 4
        rng = np.random.default_rng(6)
        for _ in range(25):
            win = sd.sample_window(ms_full.chain, -(depth + 2), depth + 1, rng)
            x = float(rng.random())
            short = sd.LabeledPoint(win, x)
            extended = sd.LabeledPoint(
                sd.SymbolWindow(win.offset - 2, (1, 1) + win.symbols + (1, 1)), x
            )
            a = sd.classify_point(ms_full, short, depth)
            b = sd.classify_point(ms_full, extended, depth)
            assert a.verdict == b.verdict

    def test_no_double_certificates_small_sample(self, two_map):
        classifier = sd.get_classifier(two_map, 5)
        rng = np.random.default_rng(7)
        for _ in range(200):
            win = sd.sample_window(two_map.chain, -7, 5, rng)
            up_cert, down_cert = classifier.search_certificates(
                sd.LabeledPoint(win, float(rng.random()))
            )
            assert up_cert is None or down_cert is None


class TestCertifiedRegions:
    def test_constant_affine_coverage(self, const_affine):
        region, _down = sd.certified_regions(const_affine, 8)
        # oracle: below the fixed point 0.5 the reachable collar shrinks
        # geometrically; levels from the grid must cover (0.1, 0.5 - 0.4*0.8^8)
        lo, hi = 0.1 + 1e-6, 0.5 - 0.4 * 0.8**8
        measure = region.measure(const_affine.chain)
        for word, ivs in region_dict(region).items():
            covered = sum(min(b, hi) - max(a, lo) for a, b in ivs if b > lo and a < hi)
            assert covered >= (hi - lo) - 1e-6
        assert measure >= 0.40

    def test_empty_at_depth_zero_strict_grid(self, full2, uniform_chain):
        # a product whose displacement stays below the certification margin
        # everywhere on the level grid yields no boxes
        f = sd.Plateau(1e-12, 0.0078125 / 2, 1 - 0.0078125 / 2)
        product = constant_product(full2, uniform_chain, f)
        up, down = sd.certified_regions(product, 0)
        assert not region_dict(up) and not region_dict(down)

    def test_up_down_boxes_disjoint(self, two_map, ms_full):
        for product in (two_map, ms_full):
            up_region, down_region = sd.certified_regions(product, 6)
            assert up_region.window == down_region.window
            up, down = region_dict(up_region), region_dict(down_region)
            for word in set(up) & set(down):
                for alo, ahi in up[word]:
                    for blo, bhi in down[word]:
                        assert min(ahi, bhi) <= max(alo, blo)


class TestOrderMonotonicity:
    def test_up_certificates_replay_upward(self, full2, uniform_chain):
        F = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))
        G = constant_product(full2, uniform_chain, sd.Affine(0.15, 0.8))
        assert sd.compare_order(F, G) is sd.ProductOrder.FIRST_BELOW
        rng = np.random.default_rng(8)
        replayed = 0
        for _ in range(100):
            win = sd.sample_window(F.chain, -8, 6, rng)
            point = sd.LabeledPoint(win, float(rng.random()))
            result = sd.classify_point(F, point, 5)
            if result.verdict == UP:
                assert sd.replay_certificate(G, result.witness, point).ok
                replayed += 1
        assert replayed > 10


class TestPeriodicOps:
    def test_two_word_composition(self, two_map):
        word = sd.PeriodicWord((1, 2))
        maps = sd.periodic_fiber_map(two_map, word)
        # oracle: f2(f1(x)) = 0.27 + 0.56 x
        assert sd.compose_along_word(maps, 0.0) == pytest.approx(0.27)
        assert sd.compose_along_word(maps, 1.0) == pytest.approx(0.83)

    def test_single_word_constant_system(self, const_affine):
        maps = sd.periodic_fiber_map(const_affine, sd.PeriodicWord((1,)))
        assert maps == [sd.Affine(0.1, 0.8)]

    def test_cyclically_inadmissible_word_rejected(self, golden_ms):
        with pytest.raises(ValueError, match="cyclically"):
            sd.periodic_fiber_map(golden_ms, sd.PeriodicWord((2,)))

    @pytest.mark.parametrize("symbols", [(0, 1), (1, 3)])
    def test_word_outside_the_alphabet_rejected(self, golden_ms, symbols):
        # 0 would index the last transition row and raise KeyError at the assignment, 3 no row (IndexError);
        # PeriodicWord itself refuses a symbol below 1, as SymbolWindow does
        with pytest.raises(ValueError, match="1-based positive" if min(symbols) < 1 else "cyclically"):
            sd.periodic_fiber_map(golden_ms, sd.PeriodicWord(symbols))

    def test_return_fixed_point(self, two_map):
        word = sd.PeriodicWord((1, 2))
        maps = sd.periodic_fiber_map(two_map, word)
        fixed = 0.27 / (1 - 0.56)
        assert sd.compose_along_word(maps, fixed) == pytest.approx(fixed)
        assert fixed == pytest.approx(0.6136363636363636)

    def test_consistency_below_fixed_point(self, two_map):
        report = sd.periodic_consistency(two_map, sd.PeriodicWord((1, 2)), 0.3, 4)
        assert report.mapped_x == pytest.approx(0.438)
        assert report.verdict in (UP, UNKNOWN)
        assert report.consistent

    def test_consistency_at_invariant_level(self, const_affine):
        report = sd.periodic_consistency(const_affine, sd.PeriodicWord((1,)), 0.5, 4)
        assert report.verdict == UNKNOWN and report.consistent

    def test_report_is_reproducible_record(self, two_map):
        report = sd.periodic_consistency(two_map, sd.PeriodicWord((1, 2)), 0.3, 4)
        record = report.to_json()
        assert record["word"] == [1, 2] and record["x"] == 0.3
        assert "verdict" in record and "mapped_x" in record

    def test_consistency_across_all_test_systems(self, const_affine, const_plateau,
                                                 two_map, ms_full, golden_ms):
        rng = np.random.default_rng(10)
        for product in (const_affine, const_plateau, two_map, ms_full, golden_ms):
            for length in (1, 2, 3):
                for word in sd.periodic_words(product.base, length):
                    for x in rng.random(20):
                        assert sd.periodic_consistency(product, word, float(x), 4).consistent


class TestSearchDepth:
    """A search depth is a plain int >= 0; numpy integers count, bools and other numbers do not."""

    @staticmethod
    def product(full2, uniform_chain):
        return constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))

    def test_numpy_integer_depth(self, full2, uniform_chain):
        product = self.product(full2, uniform_chain)
        point = wide_point(product, 2, seed=9, x=0.25)
        record = sd.classify_point(product, point, np.int64(2)).to_json()
        assert type(record["depth"]) is int and json.loads(json.dumps(record)) == record
        assert sd.get_classifier(product, 2) is sd.get_classifier(product, np.int64(2))
        assert list(product._classifiers) == [2] and type(next(iter(product._classifiers))) is int

    def test_bool_depth_rejected(self, full2, uniform_chain):
        product = self.product(full2, uniform_chain)
        point = wide_point(product, 1, seed=9, x=0.25)
        with pytest.raises(ValueError, match="search depth must be an integer >= 0, got True"):
            sd.classify_point(product, point, True)
        with pytest.raises(ValueError, match="got False"):
            sd.DriftClassifier(product, False)
        depth = sd.classify_point(product, point, 1).to_json()["depth"]
        assert depth == 1 and type(depth) is int

    @pytest.mark.parametrize("depth", [2.5, "2", None, -1])
    def test_other_depths_rejected(self, full2, uniform_chain, depth):
        product = self.product(full2, uniform_chain)
        with pytest.raises(ValueError, match=f"search depth must be an integer >= 0, got {depth!r}"):
            sd.get_classifier(product, depth)
        with pytest.raises(ValueError, match="search depth"):
            sd.DriftClassifier(product, depth)
        assert product._classifiers == {}

    def test_unknown_verdict_rejected(self):
        for verdict in ("up", "Maybe", None):
            with pytest.raises(ValueError, match="is not one of"):
                sd.Classification(verdict, None, 3)


class TestCertificateSerialization:
    def test_json_fields(self, const_affine):
        point = wide_point(const_affine, 2, seed=9, x=0.25)
        cert = sd.classify_point(const_affine, point, 2).witness
        record = cert.to_json()
        assert record["direction"] == "up"
        assert record["margin"] >= DELTA_CERT
        assert record["window"] == list(cert.graph.window)
        assert len(record["values"]) == len(cert.graph.values)


def _reference_refine(product, point, up):
    """Per-point bisection through certify_drift, the reference for the lockstep refine: its level, or None."""
    x = point.x
    lo, hi = (0.0, x) if up else (x, 1.0)
    for _ in range(REFINE_STEPS):
        level = 0.5 * (lo + hi)
        if not (0.0 < level < 1.0):
            break
        outcome = sd.certify_drift(product, sd.StepGraph.constant(product.base, level))
        if outcome.direction != ("up" if up else "down"):
            lo, hi = (lo, level) if up else (level, hi)
            continue
        image_level = outcome.image.value_at(point.window)
        if up:
            if image_level - x < DELTA_CERT:
                lo = level
            elif x - level < DELTA_CERT:
                hi = level
            else:
                return level
        else:
            if x - image_level < DELTA_CERT:
                hi = level
            elif level - x < DELTA_CERT:
                lo = level
            else:
                return level
    return None


cached_region_dict = functools.cache(region_dict)


def _reference_verdict(product, classifier, point):
    """Certified-region membership, then per-point refinement, one point at a time."""
    x = point.x
    if not (0.0 < x < 1.0):
        return UNKNOWN
    hits = []
    for direction in (UP, DOWN):
        region = classifier.certified_boxes(direction)
        L, R = region.window
        if any(lo <= x <= hi for lo, hi in cached_region_dict(region).get(point.window.word(-L, R), ())):
            hits.append(direction)
    assert len(hits) < 2
    if hits:
        return hits[0]
    for direction, up in ((UP, True), (DOWN, False)):
        if _reference_refine(product, point, up) is not None:
            return direction
    return UNKNOWN


def _criterion_2_products(full2, uniform_chain, two_map, ms_full):
    return [
        constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8)),
        constant_product(full2, uniform_chain, sd.Affine(0.15, 0.8)),
        two_map,
        sd.MultistepSkewProduct(
            full2, uniform_chain, (0, 0), {(1,): sd.Affine(0.14, 0.8), (2,): sd.Affine(0.24, 0.7)}
        ),
        ms_full,
        multistep_affines(full2, uniform_chain, base_offset=0.09),
    ]


class TestBatchEquivalence:
    """Batch codes, scalar classify and a per-point reference agree point for point."""

    def check(self, product, depth, points):
        points = list(points)
        classifier = sd.get_classifier(product, depth)
        codes = classifier.classify_arrays(
            points[0].window.lo, [p.window.symbols for p in points], [p.x for p in points]
        )
        assert codes.shape == (len(points),)
        for point, code in zip(points, codes):
            result = classifier.classify(point)
            assert VERDICTS[code] == result.verdict == _reference_verdict(product, classifier, point)
            if result.witness is not None:
                assert sd.replay_certificate(product, result.witness, point).ok
        return Counter(VERDICTS[c] for c in codes)

    def test_criterion_1_systems(self, const_affine, const_plateau, two_map, ms_full, golden_ms):
        for k, product in enumerate([const_affine, const_plateau, two_map, ms_full, golden_ms]):
            self.check(product, 6, sampled_points(product, 6, 2000, seed=100 + k))

    def test_criterion_2_products(self, full2, uniform_chain, two_map, ms_full):
        products = _criterion_2_products(full2, uniform_chain, two_map, ms_full)
        for k in range(3):
            self.check(products[2 * k], 5, sampled_points(products[2 * k], 5, 150, seed=200 + k))
            self.check(products[2 * k + 1], 5, sampled_points(products[2 * k + 1], 5, 150, seed=300 + k))

    def test_criterion_6_periodic_points(self, golden_ms, golden):
        depth = 5
        lo, hi = sd.get_classifier(golden_ms, depth).required_range()
        rng = np.random.default_rng(600)
        points = [
            sd.LabeledPoint(word.window(lo, hi), float(x))
            for length in range(1, 6)
            for word in sd.periodic_words(golden, length)
            for x in rng.random(100)
        ]
        self.check(golden_ms, depth, points)

    @pytest.mark.parametrize("tau", [-0.004, 0.0, 0.004])
    def test_plateau_members(self, const_plateau, tau):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        member = sd.family_member(family, tau)
        counts = self.check(member, 10, sampled_points(member, 10, 1000, seed=7))
        assert counts[UP] and counts[DOWN]

    def test_window_1_1_product_at_depth_8(self, ms_full):
        self.check(ms_full, 8, sampled_points(ms_full, 8, 500, seed=8))

    def test_estimate_counts_match_scalar_recount(self, const_plateau):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        member = sd.family_member(family, 0.0)
        depth, n, seed = 10, 500, 21
        est = sd.estimate_regions(member, depth, n, seed)
        classifier = sd.get_classifier(member, depth)
        lo, hi = classifier.required_range()
        width = hi - lo + 1
        uniforms = np.random.default_rng(seed).random((n, width + 1))
        rows = _symbols_from_uniforms(member.chain, uniforms[:, :width])
        counts = Counter(
            classifier.classify(sd.LabeledPoint(sd.SymbolWindow(lo, tuple(row)), x)).verdict
            for row, x in zip(rows.tolist(), uniforms[:, width].tolist())
        )
        assert all(counts[v] > 0 for v in VERDICTS)
        assert (est.mc_up, est.mc_down, est.mc_unknown) == (counts[UP] / n, counts[DOWN] / n, counts[UNKNOWN] / n)


class TestBatchEdgeCases:
    def test_window_one_column_short(self, const_affine):
        classifier = sd.get_classifier(const_affine, 4)
        lo, hi = classifier.required_range()
        rows = np.ones((3, hi - lo), dtype=np.int64)
        for start in (lo, lo + 1):
            with pytest.raises(WindowTooShortError) as err:
                classifier.classify_arrays(start, rows, [0.2, 0.5, 0.8])
            assert err.value.needed == (lo, hi)

    def test_boundary_points_unknown(self, const_affine):
        classifier = sd.get_classifier(const_affine, 4)
        lo, hi = classifier.required_range()
        rows = np.ones((2, hi - lo + 1), dtype=np.int64)
        codes = classifier.classify_arrays(lo, rows, [0.0, 1.0])
        assert [VERDICTS[c] for c in codes] == [UNKNOWN, UNKNOWN]

    def test_empty_batch(self, const_affine):
        classifier = sd.get_classifier(const_affine, 4)
        lo, hi = classifier.required_range()
        codes = classifier.classify_arrays(lo, np.empty((0, hi - lo + 1), dtype=np.int64), [])
        assert codes.shape == (0,)

    def test_rows_and_fibers_must_match(self, const_affine):
        classifier = sd.get_classifier(const_affine, 4)
        lo, hi = classifier.required_range()
        with pytest.raises(ValueError, match="symbol rows"):
            classifier.classify_arrays(lo, np.ones((2, hi - lo + 1), dtype=np.int64), [0.5])


# Test-side reference of the dict-by-dict classifier build: a graph is a
# (window, {word: value}) pair, edges are dropped by first appearance, and
# strips are swept word by word. The dicts list words in their own order;
# the build is compared with them in rank (lexicographic) order.


def _dict_refined(system, window, values, target):
    """Re-key {word: value} from words on window onto words on the wider target window."""
    if tuple(target) == tuple(window):
        return values
    (L, R), (L2, R2) = window, target
    start, stop = L2 - L, L2 + R + 1
    return {w: values[w[start:stop]] for w in system.words(L2 + R2 + 1) if w[start:stop] in values}


def _dict_minimized(window, values):
    L, R = window
    changed = True
    while changed:
        changed = False
        for left in (True, False):
            if (L if left else R) > 0:
                reduced = _dict_drop_edge(values, left)
                if reduced is not None:
                    values = reduced
                    L, R = (L - 1, R) if left else (L, R - 1)
                    changed = True
    return (L, R), values


def _dict_drop_edge(values, left):
    out = {}
    for word, v in values.items():
        key = word[1:] if left else word[:-1]
        if out.setdefault(key, v) != v:
            return None
    return out


def _dict_image_graph(product, graph):
    l, r = product.window
    (L, R), graph = graph
    Lp, Rp = max(L, l) + 1, max(max(R, r) - 1, 0)
    if Lp + Rp + 1 > WINDOW_CAP:
        raise ResourceBoundError("image window over the cap")
    fs, gs = Lp - l - 1, Lp - L - 1
    values = {
        u: product.assignment[u[fs : fs + l + r + 1]].eval(graph[u[gs : gs + L + R + 1]])
        for u in product.base.words(Lp + Rp + 1)
    }
    return _dict_minimized((Lp, Rp), values)


def _dict_drift(system, graph, image):
    window = (max(graph[0][0], image[0][0]), max(graph[0][1], image[0][1]))
    g, e = _dict_refined(system, *graph, window), _dict_refined(system, *image, window)
    lo = min(e[w] - g[w] for w in g)
    hi = max(e[w] - g[w] for w in g)
    g, e = (window, g), (window, e)
    if lo - 2.0 * EPS_ROUND >= DELTA_CERT:
        return "up", lo - 2.0 * EPS_ROUND, g, e
    if -hi - 2.0 * EPS_ROUND >= DELTA_CERT:
        return "down", -hi - 2.0 * EPS_ROUND, g, e
    return "inconclusive", None, g, e


def _assert_same_graph(graph, reference):
    """A StepGraph equals a (window, dict) graph, compared in rank order."""
    window, values = reference
    L, R = window
    words = graph.system.words(L + R + 1)
    assert graph.window == window and sorted(values) == list(words)
    assert graph.values.tolist() == [values[w] for w in words]


def _reference_chains(product, depth):
    """Up and Down witnesses (graph, image, margin, (level index, step)) and the truncated-chain count.

    Every step is checked against the public image_graph and certify_drift.
    """
    system = product.base
    found = {"up": [], "down": []}
    truncated = 0
    for i, level in enumerate(LEVEL_GRID):
        graph = ((0, 0), {(s,): level for s in range(1, system.alphabet_size + 1)})
        for step in range(depth + 1):
            L, R = graph[0]
            step_graph = sd.StepGraph(system, graph[0], [graph[1][w] for w in system.words(L + R + 1)])
            try:
                image = _dict_image_graph(product, graph)
            except ResourceBoundError:
                with pytest.raises(ResourceBoundError):
                    sd.image_graph(product, step_graph)
                truncated += 1
                break
            _assert_same_graph(sd.image_graph(product, step_graph), image)
            direction, margin, g, e = _dict_drift(system, graph, image)
            outcome = sd.certify_drift(product, step_graph)
            assert (outcome.direction, outcome.margin) == (direction, margin)
            _assert_same_graph(outcome.graph, g)
            _assert_same_graph(outcome.image, e)
            if direction != "inconclusive":
                found[direction].append((g, e, margin, (i, step)))
            graph = image
    return found["up"], found["down"], truncated


def _tagged_pieces(boxes):
    boxes.sort()
    starts, ends, tags = [], [], []
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


def _reference_index(system, witnesses, up):
    """Index window, its (ranks, starts, ends, tags) arrays and region intervals from a per-word sweep."""
    if not witnesses:
        return (0, 0), (np.empty(0, np.int64), np.empty(0), np.empty(0), np.empty(0, np.int64)), {}
    window = (max(g[0][0] for g, *_ in witnesses), max(g[0][1] for g, *_ in witnesses))
    by_word = {}
    for tag, (g, e, *_) in enumerate(witnesses):
        g, e = _dict_refined(system, *g, window), _dict_refined(system, *e, window)
        for word in g:
            lo, hi = (g[word], e[word]) if up else (e[word], g[word])
            lo, hi = lo + DELTA_CERT, hi - DELTA_CERT
            if hi > lo:
                by_word.setdefault(word, []).append((lo, hi, tag))
    pieces = {word: _tagged_pieces(boxes) for word, boxes in by_word.items()}
    intervals = {w: merge_intervals(zip(starts, ends)) for w, (starts, ends, _) in pieces.items()}
    all_words = system.words(window[0] + window[1] + 1)
    words = sorted(pieces)
    ranks = np.repeat(np.array([all_words.index(w) for w in words], dtype=np.int64), [len(pieces[w][0]) for w in words])
    starts, ends, tags = (
        np.array([v for w in words for v in pieces[w][k]], dtype=dtype) for k, dtype in enumerate((float, float, np.int64))
    )
    return window, (ranks, starts, ends, tags), intervals


def _three_symbol_product(window, fmap):
    """A product over the 3-symbol shift without repeated symbols, one map everywhere.

    No symbol precedes every other one, so dropping a left edge lists the
    remaining words in a non-lexicographic order.
    """
    system = sd.TransitionSystem(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    chain = sd.MarkovChain(system, np.array([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]))
    l, r = window
    return sd.MultistepSkewProduct(system, chain, window, {w: fmap for w in system.words(l + r + 1)})


class TestArrayBuild:
    """The array build gives the dict build's witnesses, index and regions exactly, in rank order."""

    def check(self, product, depth):
        classifier = sd.DriftClassifier(product, depth)
        up, down, truncated = _reference_chains(product, depth)
        assert classifier.truncated_chains == truncated
        # the classifier drops the image rows after the build; a fresh chain search gives them
        witnesses = next(drift._chains([product], depth))[0]
        system = product.base
        for direction, reference, (group, row), index, is_up in (
            (UP, up, classifier._up, classifier._up_index, True),
            (DOWN, down, classifier._down, classifier._down_index, False),
        ):
            assert len(group) == len(row) == len(reference)
            # tag t is the t-th witness in (level, step) order
            keys = [key for *_, key in reference]
            assert keys == sorted(set(keys))
            for tag, (g, e, margin, _key) in enumerate(reference):
                cert = classifier._certificate(direction, tag, np.nan)
                window, _graphs, images, _margins = witnesses[group[tag]]
                assert classifier._witnesses[group[tag]][0] == window
                assert cert.graph.window == g[0] == window
                _assert_same_graph(cert.graph, g)
                assert cert.margin == margin
                L, R = window
                assert images[row[tag]].tolist() == [e[1][w] for w in system.words(L + R + 1)]
            window, arrays, intervals = _reference_index(system, reference, is_up)
            region = classifier.certified_boxes(direction)
            pieces, tags = index
            assert pieces.window == region.window == window and tags[-1] == -1
            for got, want in zip((pieces.ranks, pieces.lo, pieces.hi, tags[:-1]), arrays):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert list(region_dict(region).items()) == sorted(intervals.items())
        return classifier, up, down

    def test_fixture_systems(self, const_affine, const_plateau, two_map, ms_full, golden_ms):
        for product in (const_affine, const_plateau, two_map, ms_full, golden_ms):
            self.check(product, 6)

    @pytest.mark.parametrize("tau", [-0.02, -0.004, 0.0, 0.004, 0.02])
    def test_plateau_members(self, const_plateau, tau):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        self.check(sd.family_member(family, tau), 10)

    def test_window_1_1_pair_at_depth_8(self, full2, uniform_chain, ms_full):
        for product in (ms_full, multistep_affines(full2, uniform_chain, base_offset=0.09)):
            self.check(product, 8)

    @pytest.mark.parametrize("window", [(1, 0), (0, 1), (1, 1)])
    def test_three_symbol_shift(self, window):
        classifier, up, _down = self.check(_three_symbol_product(window, sd.Affine(0.1, 0.8)), 4)
        # the reference's graphs minimized by a left drop list their words
        # out of lexicographic order; the build still matches them in rank order
        assert any(list(g[1]) != sorted(g[1]) for g, *_ in up)

    def test_region_in_rank_order_without_first_witness(self):
        # without the constant graph at tag 0, the first witness to cover
        # every word lists its words out of lexicographic order
        product = _three_symbol_product((1, 0), sd.Affine(0.1, 0.8))
        classifier = sd.DriftClassifier(product, 4)
        up, _down, _truncated = _reference_chains(product, 4)
        group, row = classifier._up
        _index, region = classifier._build_index(next(drift._chains([product], 4))[0], (group[1:], row[1:]), up=True)
        _window, _arrays, intervals = _reference_index(product.base, up[1:], True)
        assert list(intervals) == [(1,), (3,), (2,)]
        assert list(region_dict(region).items()) == sorted(intervals.items())

    @pytest.mark.parametrize("up", [True, False])
    def test_sweep_on_tied_and_touching_strips(self, const_affine, up):
        # strips drawn from a few values, so that starts, ends and tags tie
        # and a strip's start often equals another's end exactly
        system = const_affine.base
        classifier = sd.DriftClassifier(const_affine, 0)
        rng = np.random.default_rng(11)
        grid = np.linspace(0.1, 0.9, 9).tolist()
        edges = [v for v in grid if (v + DELTA_CERT) - DELTA_CERT == v == (v - DELTA_CERT) + DELTA_CERT]
        inner = {v: v - DELTA_CERT if up else v + DELTA_CERT for v in edges}  # strip edge v from graph value
        outer = {v: v + DELTA_CERT if up else v - DELTA_CERT for v in edges}  # strip edge v from image value
        # three groups on one window, their rows interleaved in tag order
        places = (np.arange(30) % 3, np.arange(30) // 3)
        for _ in range(20):
            graphs, images, reference = [], [], []
            for _ in range(30):
                a, b = rng.choice(edges, size=(2, 4)).tolist()
                graph, image = [inner[v] for v in a], [outer[v] for v in b]
                graphs.append(graph)
                images.append(image)
                words = system.words(2)
                reference.append((((1, 0), dict(zip(words, graph))), ((1, 0), dict(zip(words, image))), 1.0))
            graphs, images = np.array(graphs), np.array(images)
            witnesses = [((1, 0), graphs[k::3], images[k::3], np.ones(10)) for k in range(3)]
            (pieces, tags), region = classifier._build_index(witnesses, places, up)
            window, arrays, intervals = _reference_index(system, reference, up)
            assert pieces.window == region.window == window
            for got, want in zip((pieces.ranks, pieces.lo, pieces.hi, tags[:-1]), arrays):
                assert np.array_equal(got, want)
            assert list(region_dict(region).items()) == sorted(intervals.items())

    @pytest.mark.parametrize("depth", [0, 3])
    def test_direction_without_witnesses(self, full2, uniform_chain, depth):
        # the fixed point 0.998 lies above the top level 127/128: every level
        # drifts up, so Down has no witness and only refinement finds Down
        product = constant_product(full2, uniform_chain, sd.Affine(0.0499, 0.95))
        classifier, up, down = self.check(product, depth)
        assert up and not down
        region = classifier.certified_boxes(DOWN)
        assert region.window == (0, 0) and len(region.ranks) == 0
        points = list(sampled_points(product, depth, 200, seed=31 + depth))
        points += [sd.LabeledPoint(p.window, 0.99 + 0.0001 * i) for i, p in enumerate(points[:100])]
        codes = classifier.classify_arrays(
            points[0].window.lo, [p.window.symbols for p in points], [p.x for p in points]
        )
        verdicts = [classifier.classify(p).verdict for p in points]
        assert [VERDICTS[c] for c in codes] == verdicts
        assert verdicts.count(DOWN) and all(p.x > 0.998 for p, v in zip(points, verdicts) if v == DOWN)

    def test_truncated_chains_counted(self, ms_full, const_affine):
        # ms_full's windows grow by one per step, so at depth 10 every chain
        # needs a 13-symbol window at its last step
        assert sd.DriftClassifier(ms_full, 10).truncated_chains == len(LEVEL_GRID)
        assert sd.DriftClassifier(const_affine, 10).truncated_chains == 0

    def test_every_chain_cut_at_its_first_step(self, full2, uniform_chain):
        # no witness in either direction, and both regions empty on the default window
        classifier, up, down = self.check(_wide_left_product(full2, uniform_chain), 0)
        assert classifier.truncated_chains == len(LEVEL_GRID) and not up and not down
        for direction in (UP, DOWN):
            region = classifier.certified_boxes(direction)
            assert region.window == (0, 0) and len(region.ranks) == 0


class _ScalarMaps:
    """Test-side MapStack that evaluates every map on Python floats, one value at a time.

    This is how _refine and _image_arrays evaluated maps before they took
    arrays; swapped into a product, it is the reference for the array kernels.
    """

    def __init__(self, stack):
        self.maps = stack.maps

    def eval_all(self, x):
        return np.array([[scalar_eval(f, c) for c in x.tolist()] for f in self.maps])

    def eval_columns(self, which, x):
        maps = [self.maps[k] for k in which.tolist()]
        return np.array([[scalar_eval(f, c) for f, c in zip(maps, row)] for row in x.tolist()])


def _scalar_twin(product):
    """An equal product whose drift kernels evaluate maps one float at a time."""
    twin = sd.MultistepSkewProduct(product.base, product.chain, product.window, product.assignment)
    maps, slots = product.map_slots
    vars(twin)["map_slots"] = (_ScalarMaps(maps), slots)
    return twin


def _mixed_form_product(full2, uniform_chain):
    """Window (1, 1) product whose words alternate affine, plateau and bump-composed plateau maps."""
    forms = [
        lambda i: sd.Affine(0.06 + 0.02 * i, 0.75),
        lambda i: sd.Plateau(0.5, 0.35 + 0.01 * i, 0.6),
        lambda i: sd.BumpComposed(0.01 * i - 0.03, sd.Plateau(0.5, 0.4, 0.6 + 0.01 * i)),
    ]
    words = full2.words(3)
    return sd.MultistepSkewProduct(full2, uniform_chain, (1, 1), {w: forms[i % 3](i) for i, w in enumerate(words)})


class TestArrayKernels:
    """Maps evaluated on arrays give the per-float kernels' results exactly."""

    def check(self, product, depth, count, seed):
        twin = _scalar_twin(product)
        assert isinstance(twin.map_slots[0], _ScalarMaps)
        got, want = sd.DriftClassifier(product, depth), sd.DriftClassifier(twin, depth)
        assert got.truncated_chains == want.truncated_chains
        for direction in (UP, DOWN):
            a, b = got.certified_boxes(direction), want.certified_boxes(direction)
            assert same_boxes(a, b)
        points = list(sampled_points(product, depth, count, seed))
        lo, rows, xs = points[0].window.lo, [p.window.symbols for p in points], [p.x for p in points]
        codes = got.classify_arrays(lo, rows, xs)
        assert np.array_equal(codes, want.classify_arrays(lo, rows, xs))
        for level in (0.05, 0.3, 0.5, 0.7, 0.95):
            graph = sd.StepGraph.constant(product.base, level)
            for _ in range(3):
                image, reference = sd.image_graph(product, graph), sd.image_graph(twin, graph)
                assert image.window == reference.window
                assert image.values.tolist() == reference.values.tolist()
                graph = image
        return Counter(VERDICTS[c] for c in codes)

    @pytest.mark.parametrize("tau", [-0.004, 0.0, 0.004])
    def test_plateau_members(self, const_plateau, tau):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        counts = self.check(sd.family_member(family, tau), 10, 2000, seed=70)
        assert counts[UP] and counts[DOWN]

    def test_window_1_1_products(self, ms_full, golden_ms):
        self.check(ms_full, 6, 1000, seed=71)
        self.check(golden_ms, 6, 1000, seed=72)

    def test_mixed_forms(self, full2, uniform_chain):
        product = _mixed_form_product(full2, uniform_chain)
        maps, _slots = product.map_slots
        assert len(maps._forms) == 3
        counts = self.check(product, 6, 2000, seed=73)
        assert counts[UP] and counts[DOWN]


class TestInadmissiblePoints:
    def test_symbol_outside_alphabet(self):
        cfg = load_config(str(CONFIGS / "golden_affine.json"))
        point = sd.LabeledPoint(sd.SymbolWindow(-5, (1,) * 5 + (3,) + (1,) * 4), 0.05)
        with pytest.raises(ValueError, match="symbol 3 at coordinate 0"):
            sd.classify_point(cfg.product, point, 4)

    def test_forbidden_transition(self, golden_ms):
        point = sd.LabeledPoint(sd.SymbolWindow(-7, (2,) * 13), 0.3)
        with pytest.raises(ValueError, match="transition 2 -> 2 at coordinates -7, -6"):
            sd.classify_point(golden_ms, point, 4)

    def test_batch_names_the_point(self, golden_ms):
        classifier = sd.get_classifier(golden_ms, 4)
        lo, hi = classifier.required_range()
        rows = np.ones((3, hi - lo + 1), dtype=np.int64)
        rows[2, 4:6] = 2
        with pytest.raises(ValueError, match="of point 2 is forbidden"):
            classifier.classify_arrays(lo, rows, [0.2, 0.5, 0.8])

    def test_replay_rejects_point_outside_base_space(self, golden, golden_chain):
        # the README's golden-mean product: the witness graph lives on window
        # (0, 0), so only a check of the whole point window sees the 2 -> 2
        product = constant_product(golden, golden_chain, sd.Affine(0.1, 0.8))
        cert = sd.classify_point(product, sd.LabeledPoint(sd.SymbolWindow(-8, (1, 2) * 8), 0.2), 6).witness
        point = sd.LabeledPoint(sd.SymbolWindow(-8, (2,) * 16), 0.2)
        with pytest.raises(ValueError, match="transition 2 -> 2 at coordinates -8, -7"):
            sd.replay_certificate(product, cert, point)

    def test_value_at_rejects_symbol_outside_alphabet(self, full2):
        with pytest.raises(ValueError, match="symbol 3 at coordinate -1"):
            sd.StepGraph.constant(full2, 0.3).value_at(sd.SymbolWindow(-1, (3, 3, 3)))

    def test_symbol_beyond_int64_is_outside_the_alphabet(self, golden, golden_chain, golden_ms):
        # 2^70 does not fit an int64 row; every entry point refuses it as it refuses 3
        huge, message = 2**70, "symbol 1180591620717411303424 at coordinate 0 of point 0 is not in the alphabet 1..2"
        classifier = sd.get_classifier(golden_ms, 4)
        lo, hi = classifier.required_range()
        row = [1] * (hi - lo + 1)
        row[-lo] = huge
        with pytest.raises(ValueError, match=message):
            classifier.classify_arrays(lo, [row], [0.5])
        point = sd.LabeledPoint(sd.SymbolWindow(lo, tuple(row)), 0.5)
        with pytest.raises(ValueError, match=message):
            sd.classify_point(golden_ms, point, 4)
        product = constant_product(golden, golden_chain, sd.Affine(0.1, 0.8))
        cert = sd.classify_point(product, sd.LabeledPoint(sd.SymbolWindow(-8, (1, 2) * 8), 0.2), 6).witness
        with pytest.raises(ValueError, match=message):
            sd.replay_certificate(product, cert, sd.LabeledPoint(sd.SymbolWindow(-1, (1, huge, 1)), 0.2))
        with pytest.raises(ValueError, match=message):
            sd.StepGraph.constant(golden, 0.3).value_at(sd.SymbolWindow(-1, (1, huge, 1)))


class TestPointWindowCoverage:
    """A point window that does not cover the graph's window raises WindowTooShortError."""

    def test_value_at(self, two_map):
        graph = sd.image_graph(two_map, sd.StepGraph.constant(two_map.base, 0.3))
        assert graph.window == (1, 0)
        assert graph.value_at(sd.SymbolWindow(-1, (2, 1))) == pytest.approx(0.41)
        for window in (sd.SymbolWindow(0, (2, 1)), sd.SymbolWindow(-2, (1, 2))):
            with pytest.raises(WindowTooShortError) as err:
                graph.value_at(window)
            assert err.value.needed == (-1, 0)
            assert err.value.have == (window.lo, window.hi)

    def test_replay_certificate(self, ms_full):
        point = wide_point(ms_full, 4, seed=11, x=0.05)
        result = sd.classify_point(ms_full, point, 4)
        assert result.verdict == UP
        L, R = sd.certify_drift(ms_full, result.witness.graph).graph.window
        assert L >= 1
        assert sd.replay_certificate(ms_full, result.witness, point).ok
        short = sd.LabeledPoint(sd.SymbolWindow(-L + 1, point.window.word(-L + 1, R)), point.x)
        with pytest.raises(WindowTooShortError) as err:
            sd.replay_certificate(ms_full, result.witness, short)
        assert err.value.needed == (-L, R)


class TestClassifierLifetime:
    """A product keeps its classifiers, one per depth, and they die with it."""

    @staticmethod
    def product(full2, uniform_chain, a=0.1):
        return constant_product(full2, uniform_chain, sd.Affine(a, 0.8))

    def test_classifier_dies_with_its_product(self, full2, uniform_chain):
        product = self.product(full2, uniform_chain)
        classifier = weakref.ref(sd.get_classifier(product, 4))
        sd.certified_regions(product, 4)
        assert classifier() is not None
        del product
        # plain reference counting: the classifier holds no reference to its product
        assert classifier() is None

    def test_held_product_keeps_its_classifier(self, full2, uniform_chain):
        product = self.product(full2, uniform_chain)
        first = sd.get_classifier(product, 3)
        others = [self.product(full2, uniform_chain, 0.1 + 0.01 * k) for k in range(3)]
        for k in range(9):
            sd.get_classifier(others[k % 3], k // 3 + 1)
        assert sd.get_classifier(product, 3) is first

    def test_classifier_outlives_dropped_product(self, full2, uniform_chain):
        product = self.product(full2, uniform_chain)
        classifier = sd.get_classifier(product, 3)
        lo, hi = classifier.required_range()
        point = sd.LabeledPoint(sd.SymbolWindow(lo, (1,) * (hi - lo + 1)), 0.25)
        dropped = weakref.ref(product)
        del product
        assert dropped() is None
        # a point the 64-level grid leaves open: its Up witness is a refined constant level
        result = classifier.classify(point)
        assert result.verdict == UP
        assert result.witness.graph.window == (0, 0)
        assert result.witness.graph.values[0] not in drift.LEVEL_GRID
        assert sd.replay_certificate(self.product(full2, uniform_chain), result.witness, point).ok


class TestInBoxInvariant:
    """A point inside a certified box gets that box's verdict from classify_arrays."""

    def test_criterion_1_systems(self, const_affine, const_plateau, two_map, ms_full, golden_ms):
        depth = 6
        for k, product in enumerate([const_affine, const_plateau, two_map, ms_full, golden_ms]):
            classifier = sd.get_classifier(product, depth)
            lo, hi = classifier.required_range()
            uniforms = np.random.default_rng(900 + k).random((2000, hi - lo + 2))
            rows = _symbols_from_uniforms(product.chain, uniforms[:, :-1]).tolist()
            xs = uniforms[:, -1].tolist()
            points, expected = [], []
            for direction in (UP, DOWN):
                region = classifier.certified_boxes(direction)
                boxes = region_dict(region)
                L, R = region.window
                for i, row in enumerate(rows):
                    ivs = boxes.get(tuple(row[-L - lo : R + 1 - lo]), ())
                    # the sampled x when a box holds it; both edges and the midpoint of every box of the first rows
                    inside = [xs[i]] if any(a <= xs[i] <= b for a, b in ivs) else []
                    if i < 100:
                        inside += [v for a, b in ivs for v in (a, 0.5 * (a + b), b)]
                    points += [(row, x) for x in inside]
                    expected += [VERDICTS.index(direction)] * len(inside)
                assert expected.count(VERDICTS.index(direction)) > 100
            codes = classifier.classify_arrays(lo, [p[0] for p in points], [p[1] for p in points])
            assert codes.tolist() == expected


def _reference_replay(product, cert, point):
    """replay_certificate's (ok, margin, reason) from certify_drift and the closed strip at the point's word."""
    outcome = sd.certify_drift(product, cert.graph)
    if point is not None:
        L, R = outcome.graph.window
        rank = product.base.words(L + R + 1).index(point.window.word(-L, R))
    if outcome.direction != cert.direction:
        return False, None, f"drift verdict is {outcome.direction}"
    if point is not None:
        level, image = outcome.graph.values[rank], outcome.image.values[rank]
        lo, hi = (level, image) if cert.direction == "up" else (image, level)
        lo, hi = lo + DELTA_CERT, hi - DELTA_CERT
        if not lo <= point.x <= hi:
            return False, outcome.margin, "strip condition fails at the point"
    return True, outcome.margin, None


class TestReplayOnKernel:
    """replay_certificate decides as certify_drift and the refined graphs would."""

    def test_criterion_2_pair_at_depth_8(self, full2, uniform_chain, ms_full):
        products = (ms_full, multistep_affines(full2, uniform_chain, base_offset=0.09))
        # a wider product window moves the common window past the graph's own
        wide = sd.MultistepSkewProduct(
            full2, uniform_chain, (2, 1), {w: sd.Affine(0.06 + 0.01 * i, 0.75) for i, w in enumerate(full2.words(4))}
        )
        seen = Counter()
        for k, source in enumerate(products):
            # one coordinate more on each side than depth 8 needs, for the wide product
            for point in sampled_points(source, 9, 150, seed=41 + k):
                witness = sd.classify_point(source, point, 8).witness
                if witness is None:
                    continue
                for target in (*products, wide):
                    for at in (None, point):
                        got = sd.replay_certificate(target, witness, at)
                        assert (got.ok, got.margin, got.reason) == _reference_replay(target, witness, at)
                        seen[got.reason] += 1
        # every outcome occurs: replayed, lost direction, strip condition fails
        assert seen[None] and seen["strip condition fails at the point"]
        assert any(reason.startswith("drift verdict is") for reason in seen if reason)

    def test_errors(self, golden, golden_chain, ms_full):
        point = wide_point(ms_full, 4, seed=11, x=0.05)
        witness = sd.classify_point(ms_full, point, 4).witness
        other = constant_product(golden, golden_chain, sd.Affine(0.1, 0.8))
        with pytest.raises(IncompatibleProductsError):
            sd.replay_certificate(other, witness, point)
        with pytest.raises(IncompatibleProductsError):
            sd.replay_certificate(other, witness)
        L, R = witness.graph.window
        short = sd.LabeledPoint(sd.SymbolWindow(-L + 1, point.window.word(-L + 1, R)), point.x)
        with pytest.raises(WindowTooShortError):
            sd.replay_certificate(ms_full, witness, short)
        outside = sd.LabeledPoint(sd.SymbolWindow(point.window.lo, (3,) + point.window.symbols[1:]), point.x)
        with pytest.raises(ValueError, match="symbol 3"):
            sd.replay_certificate(ms_full, witness, outside)


class TestWitnessReplaysAtItsPoint:
    """Every Up/Down verdict's witness replays on its product at the point it was issued for.

    The index and replay test one closed strip, so points on and next to box
    edges replay too; so do points only refinement resolves.
    """

    @staticmethod
    def check(product, classifier, points) -> Counter:
        """Assert each witnessed point replays; count witnesses by direction and by refinement."""
        rows, xs = drift._as_batch([p.window.symbols for p in points], [p.x for p in points])
        _, up_level, down_level = classifier._search(points[0].window.lo, rows, xs, False)
        seen = Counter()
        for point, refined in zip(points, ~(np.isnan(up_level) & np.isnan(down_level))):
            witness = classifier.classify(point).witness
            if witness is not None:
                assert sd.replay_certificate(product, witness, point).ok, (point, witness.to_json())
                seen[witness.direction] += 1
                seen["refined"] += bool(refined)
        return seen

    @pytest.mark.parametrize("depth", [2, 6])
    def test_box_edges(self, const_affine, const_plateau, two_map, ms_full, golden_ms, depth):
        for product in (const_affine, const_plateau, two_map, ms_full, golden_ms):
            classifier = sd.DriftClassifier(product, depth)
            lo, hi = classifier.required_range()
            points = []
            for pieces, _ in (classifier._up_index, classifier._down_index):
                L, R = pieces.window
                words = product.base.words(L + R + 1)
                # 200 evenly spaced boxes of each index: the deep ones hold tens of thousands
                for i in np.unique(np.linspace(0, len(pieces.ranks) - 1, 200).astype(int)).tolist():
                    a, b = pieces.lo[i], pieces.hi[i]
                    # symbol 1 may precede and follow every symbol of both bases
                    window = sd.SymbolWindow(lo, (1,) * (-L - lo) + words[pieces.ranks[i]] + (1,) * (hi - R))
                    xs = (a, b, 0.5 * (a + b), np.nextafter(a, b), np.nextafter(b, a))
                    points += [sd.LabeledPoint(window, float(x)) for x in xs]
            seen = self.check(product, classifier, points)
            # every box point is witnessed, by the index
            assert seen["up"] + seen["down"] == len(points) and seen["up"] and seen["down"] and not seen["refined"]

    @pytest.mark.parametrize("tau", [-0.002, 0.0, 0.002])
    def test_refined_plateau_members(self, const_plateau, tau):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        member = sd.family_member(family, tau)
        points = list(sampled_points(member, 10, 400, seed=70))
        assert self.check(member, sd.get_classifier(member, 10), points)["refined"]

    def test_refined_golden_affine(self):
        product = load_config(str(CONFIGS / "golden_affine.json")).product
        offsets = [s * 10.0**-k for k in range(2, 10) for s in (-1, 1)]
        sampled = sampled_points(product, 6, 320, seed=71)
        points = [sd.LabeledPoint(p.window, 0.5 + d) for p, d in zip(sampled, offsets * 20)]
        seen = self.check(product, sd.get_classifier(product, 6), points)
        assert seen["up"] and seen["down"] and seen["refined"]


class TestTagCertificates:
    """An index tag's certificate is built once and kept by its classifier."""

    def test_shared_per_tag(self, ms_full):
        classifier = sd.DriftClassifier(ms_full, 8)
        assert all(len(group) == 3 for group in classifier._witnesses)  # no image rows kept
        by_tag, refined = {}, []
        for point in sampled_points(ms_full, 8, 400, seed=5):
            rows, xs = drift._as_batch([point.window.symbols], [point.x])
            up_tag, down_tag = _reference_tags(classifier, point.window.lo, rows, xs)
            (code,), _, _ = classifier._search(point.window.lo, rows, xs, False)
            result = classifier.classify(point)
            assert drift.VERDICTS[code] == result.verdict
            if up_tag[0] >= 0 or down_tag[0] >= 0:
                key = (UP, int(up_tag[0])) if up_tag[0] >= 0 else (DOWN, int(down_tag[0]))
                by_tag.setdefault(key, []).append(result.witness)
            elif result.witness is not None:
                refined.append((point, result.witness))
        shared = [certs for certs in by_tag.values() if len(certs) > 1]
        assert shared and refined
        for (direction, tag), certs in by_tag.items():
            assert all(cert is certs[0] for cert in certs)
            group, row = classifier._up if direction == UP else classifier._down
            window, graphs, margins = classifier._witnesses[group[tag]]
            rebuilt = drift.DriftCertificate(
                direction.lower(), sd.StepGraph(ms_full.base, window, graphs[row[tag]]),
                float(margins[row[tag]]), ms_full.fingerprint(),
            )
            assert certs[0].to_json() == rebuilt.to_json()
        assert sorted(classifier._certificates) == sorted(by_tag)
        # a refined level's certificate is built afresh for every query
        for point, witness in refined:
            again = classifier.classify(point).witness
            assert again is not witness and again.to_json() == witness.to_json()
            # a constant graph at a level off the grid, on the common window of it and its image
            level = witness.graph.values[0]
            assert (witness.graph.values == level).all() and level not in LEVEL_GRID

    def test_equal_products_share_nothing(self, full2, uniform_chain):
        first, second = (multistep_affines(full2, uniform_chain) for _ in range(2))
        for point in sampled_points(first, 6, 200, seed=9):
            a, b = sd.classify_point(first, point, 6).witness, sd.classify_point(second, point, 6).witness
            assert (a is None) == (b is None)
            if a is not None:
                assert a is not b and a.to_json() == b.to_json()
        mine = {id(cert) for cert in sd.get_classifier(first, 6)._certificates.values()}
        assert mine and mine.isdisjoint(id(cert) for cert in sd.get_classifier(second, 6)._certificates.values())


def _boundary_points(points):
    """The points again with fiber coordinates at and next to the ends of (0, 1)."""
    edges = [0.0, 5e-324, 1e-300, 1e-17, 1e-12, 1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0]
    return [sd.LabeledPoint(p.window, float(x)) for p, x in zip(points, edges)]


class TestLockstepRefine:
    """The signed lockstep search finds, per point and direction, the level of a per-point bisection."""

    def check(self, product, depth, points):
        points = list(points)
        points += _boundary_points(points)
        classifier = sd.get_classifier(product, depth)
        rows, xs = drift._as_batch([p.window.symbols for p in points], [p.x for p in points])
        reference = functools.cache(lambda i, up: _reference_refine(product, points[i], up))
        up_tag, down_tag = _reference_tags(classifier, points[0].window.lo, rows, xs)
        seen = Counter()
        for exhaustive in (False, True):
            codes, up_level, down_level = classifier._search(points[0].window.lo, rows, xs, exhaustive)
            # the index's codes, and unless exhaustive each refined level's direction where the index has none
            want = _index_codes(up_tag, down_tag)
            if not exhaustive:
                want[~np.isnan(up_level)], want[~np.isnan(down_level)] = drift._UP_CODE, drift._DOWN_CODE
            assert codes.dtype == np.int8 and np.array_equal(codes, want)
            for i, point in enumerate(points):
                inside = 0.0 < point.x < 1.0
                want_up = reference(i, True) if inside and up_tag[i] < 0 and (exhaustive or down_tag[i] < 0) else None
                runs_down = inside and down_tag[i] < 0 and (exhaustive or (up_tag[i] < 0 and want_up is None))
                want_down = reference(i, False) if runs_down else None
                for direction, got, want in ((UP, up_level[i], want_up), (DOWN, down_level[i], want_down)):
                    assert np.isnan(got) if want is None else got == want, (exhaustive, direction, point)
                    seen[exhaustive, direction] += want is not None
        # both directions find levels in both modes
        assert all(seen[exhaustive, direction] for exhaustive in (False, True) for direction in (UP, DOWN)), seen

    @pytest.mark.parametrize("tau", [-0.002, -0.0005, 0.0, 0.0005, 0.002])
    def test_plateau_members_near_zero(self, const_plateau, tau):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        member = sd.family_member(family, tau)
        self.check(member, 10, sampled_points(member, 10, 150, seed=51))

    def test_criterion_2_pair_at_depth_8(self, full2, uniform_chain, ms_full):
        for k, product in enumerate((ms_full, multistep_affines(full2, uniform_chain, base_offset=0.09))):
            self.check(product, 8, sampled_points(product, 8, 300, seed=52 + k))

    def test_golden_affine(self):
        product = load_config(str(CONFIGS / "golden_affine.json")).product
        assert not (product.base.transitions == 1).all()
        # both maps fix 0.5, and only points near it are left to refinement
        points = list(sampled_points(product, 6, 200, seed=54))
        offsets = [s * 10.0**-k for k in range(2, 10) for s in (-1, 1)]
        points = [sd.LabeledPoint(p.window, 0.5 + d) for p, d in zip(points, offsets * 10)]
        self.check(product, 6, points)


class TestMixedPartRefine:
    """One _refine call over parts of different products gives each part, bit for bit, its levels alone."""

    @staticmethod
    def parts(const_plateau, full2, uniform_chain, ms_full, exhaustive):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        products = [(sd.family_member(family, 0.002), 10), (const_plateau, 10), (ms_full, 8)]
        products.append((_mixed_form_product(full2, uniform_chain), 6))
        parts = []
        for k, (product, depth) in enumerate(products):
            points = list(sampled_points(product, depth, 300, seed=70 + k))
            rows, xs = drift._as_batch([p.window.symbols for p in points], [p.x for p in points])
            parts.append(sd.get_classifier(product, depth)._lookup(points[0].window.lo, rows, xs, exhaustive)[2])
        maps, slots, xs, up, down = parts[2]
        return parts[:2] + [(maps, slots[:0], xs[:0], up[:0], down[:0])] + parts[2:]  # and a part with no open point

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_batch_equals_each_part_alone(self, const_plateau, full2, uniform_chain, ms_full, exhaustive):
        parts = self.parts(const_plateau, full2, uniform_chain, ms_full, exhaustive)
        # a bump member's one map, the base's plateau, eight affine maps and three forms: joined and padded
        assert [len(maps.maps) for maps, *_ in parts] == [1, 1, 8, 8, 8]
        assert [len(xs) > 0 for _, _, xs, _, _ in parts] == [True, True, False, True, True]
        batch = drift._refine(parts, exhaustive)
        for part, got in zip(parts, batch):
            [want] = drift._refine([part], exhaustive)
            assert got.shape == want.shape == (2, len(part[2])) and got.tobytes() == want.tobytes()
        found = np.concatenate([~np.isnan(levels) for levels in batch], axis=1)
        assert found[0].any() and found[1].any() and not (found[0] & found[1]).any()


def _reference_tags(classifier, lo, rows, xs):
    """Per point its Up and Down piece tags (-1 for none), located in each direction's pieces; no point is in both."""
    inside = (xs > 0.0) & (xs < 1.0)
    up, down = (tags[np.where(inside, pieces._locate(lo, rows, xs), -1)]
                for pieces, tags in (classifier._up_index, classifier._down_index))
    assert not ((up >= 0) & (down >= 0)).any()
    return up, down


def _index_codes(up_tag, down_tag):
    """Verdict codes of the tagged-piece lookups: Up where an Up piece holds the point, Down where a Down one does."""
    return np.select([up_tag >= 0, down_tag >= 0], [drift._UP_CODE, drift._DOWN_CODE], drift._UNKNOWN_CODE)


def _assert_lookup_matches_pieces(classifier, lo, rows, xs, full_rows=None):
    """_lookup's codes and open points, in both modes, equal those of the reference tags on full_rows (default rows).

    Open points are the inside points no piece holds, or, if exhaustive, per direction those no piece of it holds.
    Returns the non-exhaustive codes, open points and part.
    """
    up, down = _reference_tags(classifier, lo, rows if full_rows is None else full_rows, xs)
    inside = (xs > 0.0) & (xs < 1.0)
    for exhaustive in (True, False):
        codes, points, part = classifier._lookup(lo, rows, xs, exhaustive)
        open_up, open_down = inside & (up < 0), inside & (down < 0)
        if not exhaustive:
            open_up = open_down = open_up & open_down
        want = np.flatnonzero(open_up | open_down)
        assert codes.dtype == np.int8 and np.array_equal(codes, _index_codes(up, down)), exhaustive
        assert np.array_equal(points, want) and np.array_equal(part[2], xs[want]), exhaustive
        assert np.array_equal(part[3], open_up[want]) and np.array_equal(part[4], open_down[want]), exhaustive
    return codes, points, part


class TestNarrowRows:
    """The private entry sampled estimates use reads rows only up to the last coordinate a query reads."""

    @staticmethod
    def narrow_search(classifier, lo, rows, xs):
        """Index verdict codes, open points and refined levels from rows that reach only _read_hi, as sampling reads them."""
        codes, points, part = classifier._lookup(lo, *drift._as_batch(rows, xs), False)
        levels = np.full((2, len(codes)), np.nan)
        levels[:, points] = drift._refine([part], False)[0]
        return codes, points, levels

    @staticmethod
    def products(const_plateau, full2, uniform_chain, ms_full):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        right_2 = {w: sd.Affine(0.06 + 0.01 * i, 0.75) for i, w in enumerate(full2.words(3))}
        yield from ((sd.family_member(family, tau), 10) for tau in (-0.004, 0.0, 0.004))
        yield ms_full, 8
        yield multistep_affines(full2, uniform_chain, base_offset=0.09), 8
        yield load_config(str(CONFIGS / "golden_affine.json")).product, 6
        yield sd.MultistepSkewProduct(full2, uniform_chain, (0, 2), right_2), 4

    def test_same_codes_as_full_rows(self, const_plateau, full2, uniform_chain, ms_full):
        for k, (product, depth) in enumerate(self.products(const_plateau, full2, uniform_chain, ms_full)):
            classifier = sd.get_classifier(product, depth)
            lo, hi = classifier.required_range()
            read = classifier._read_hi
            windows = [classifier.certified_boxes(d).window for d in (UP, DOWN)]
            assert read == max(windows[0][1], windows[1][1], product.window[1] - 1) < hi
            if product.window == (0, 0) and depth == 10:
                assert (read - lo + 1, hi - lo + 1) == (12, 22)  # the plateau sweep's rows
            uniforms = np.random.default_rng(60 + k).random((3000, hi - lo + 2))
            full = _symbols_from_uniforms(product.chain, uniforms[:, :-1])
            narrow = _symbols_from_uniforms(product.chain, uniforms[:, : read - lo + 1])
            assert np.array_equal(narrow, full[:, : read - lo + 1])
            xs = uniforms[:, -1]
            xs[:4] = (0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0))
            # every point: the index verdict and whether it is open, against the pieces on full rows,
            # and its refined levels, against full-row _search
            _, points, _ = _assert_lookup_matches_pieces(classifier, lo, narrow, xs, full)
            _, narrow_points, levels = self.narrow_search(classifier, lo, narrow, xs)
            _, *want_levels = classifier._search(lo, full, xs, False)
            assert np.array_equal(narrow_points, points) and np.array_equal(levels, want_levels, equal_nan=True)
            assert len(set(classifier.classify_arrays(lo, full, xs).tolist())) == 3

    def test_rows_short_of_read_hi(self, const_plateau, full2, uniform_chain, ms_full):
        for product, depth in self.products(const_plateau, full2, uniform_chain, ms_full):
            classifier = sd.get_classifier(product, depth)
            lo, hi = classifier.required_range()
            read = classifier._read_hi
            rows = np.array([sd.sample_window(product.chain, lo, read, np.random.default_rng(3)).symbols] * 2)
            assert len(self.narrow_search(classifier, lo, rows, [0.3, 0.7])[0]) == 2
            for start, short in ((lo, rows[:, :-1]), (lo + 1, rows[:, 1:])):
                with pytest.raises(WindowTooShortError) as err:
                    self.narrow_search(classifier, start, short, [0.3, 0.7])
                assert err.value.needed == (lo, read)
                assert err.value.have == (start, start + short.shape[1] - 1)
            # the public entries still need the whole required range
            with pytest.raises(WindowTooShortError) as err:
                classifier.classify_arrays(lo, rows, [0.3, 0.7])
            assert err.value.needed == (lo, hi)
            with pytest.raises(WindowTooShortError) as err:
                classifier.classify(sd.LabeledPoint(sd.SymbolWindow(lo, tuple(rows[0].tolist())), 0.3))
            assert err.value.needed == (lo, hi) and err.value.have == (lo, read)

    def test_admissibility_checked_up_to_read_hi(self):
        product = load_config(str(CONFIGS / "golden_affine.json")).product
        classifier = sd.get_classifier(product, 6)
        lo, hi = classifier.required_range()
        read = classifier._read_hi
        rows = np.ones((2, hi - lo + 1), dtype=np.int64)
        rows[1, read - lo - 1 : read - lo + 1] = 2
        with pytest.raises(ValueError, match=f"transition 2 -> 2 at coordinates {read - 1}, {read} of point 1"):
            TestNarrowRows.narrow_search(classifier, lo, rows[:, : read - lo + 1], [0.3, 0.7])
        # past read_hi only the public entry, which checks every column it is given, sees a forbidden pair
        rows[1] = 1
        rows[1, hi - lo - 1 :] = 2
        assert len(TestNarrowRows.narrow_search(classifier, lo, rows[:, : read - lo + 1], [0.3, 0.7])[0]) == 2
        with pytest.raises(ValueError, match="of point 1 is forbidden"):
            classifier.classify_arrays(lo, rows, [0.3, 0.7])


def _extended_rows(system, words, left: int, right: int) -> np.ndarray:
    """Admissible rows: each word with left symbols before it and right after, each the first one allowed."""
    first_before = system.transitions.argmax(axis=0) + 1  # per symbol, its least allowed predecessor
    first_after = system.transitions.argmax(axis=1) + 1
    columns = list(np.asarray(words, dtype=np.int64).T)
    for _ in range(left):
        columns.insert(0, first_before[columns[0] - 1])
    for _ in range(right):
        columns.append(first_after[columns[-1] - 1])
    return np.array(columns).T


class TestVerdictRoute:
    """Every lookup reads one joint region of Up and Down runs; its codes and open points are the tagged pieces'."""

    @staticmethod
    def shipped():
        for name in ("constant_affine.json", "golden_affine.json"):
            cfg = load_config(str(CONFIGS / name))
            yield cfg.product, cfg.analysis.depth
        cfg = load_config(str(CONFIGS / "plateau_family.json"))
        yield from ((sd.family_member(cfg.family, tau), cfg.analysis.depth) for tau in cfg.analysis.grid)

    @staticmethod
    def endpoint_points(classifier):
        """(word rank, x) on the joint window: every piece and run endpoint, each one ulp either side, and four edges."""
        region, _ = classifier._verdict_index
        indices = [classifier._up_index[0], classifier._down_index[0]]
        boxes = [r.refined(region.window) for r in indices + [classifier.certified_boxes(d) for d in (UP, DOWN)]]
        ranks = np.concatenate([np.tile(b.ranks, 2) for b in boxes])
        ends = np.concatenate([np.concatenate((b.lo, b.hi)) for b in boxes])
        near = np.stack((np.nextafter(ends, -np.inf), ends, np.nextafter(ends, np.inf)), axis=1).ravel()
        words = np.unique(ranks)
        edges = np.tile([0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)], len(words))
        return np.concatenate([np.repeat(ranks, 3), np.repeat(words, 4)]), np.concatenate((near, edges))

    def check(self, product, depth):
        classifier = sd.get_classifier(product, depth)
        region, codes = classifier._verdict_index
        assert codes.dtype == np.int8 and codes[-1] == drift._UNKNOWN_CODE and len(codes) == len(region.ranks) + 1
        ranks, xs = self.endpoint_points(classifier)
        lo, hi = classifier.required_range()
        (L, R), words = region.window, product.base.word_array(sum(region.window) + 1)
        rows = _extended_rows(product.base, words[ranks], -L - lo, hi - R)
        verdicts, _, _ = _assert_lookup_matches_pieces(classifier, lo, rows, xs)
        return len(xs), set(verdicts.tolist())

    def test_shipped_configs(self):
        seen = [self.check(product, depth) for product, depth in self.shipped()]
        assert sum(n for n, _ in seen) > 250000
        assert set().union(*(codes for _, codes in seen)) == {drift._UP_CODE, drift._DOWN_CODE, drift._UNKNOWN_CODE}

    def test_narrow_rows_products(self, const_plateau, full2, uniform_chain, ms_full):
        for product, depth in TestNarrowRows.products(const_plateau, full2, uniform_chain, ms_full):
            self.check(product, depth)

    @pytest.mark.parametrize("direction", [UP, DOWN])
    def test_run_hit_without_a_piece_raises(self, ms_full, monkeypatch, direction):
        # the witness of an index hit is the tag of the piece holding the point, read only to build its certificate
        classifier = sd.DriftClassifier(ms_full, 6)
        points = list(sampled_points(ms_full, 6, 300, seed=8))
        rows, xs = drift._as_batch([p.window.symbols for p in points], [p.x for p in points])
        codes, *levels = classifier._search(points[0].window.lo, rows, xs, False)
        code = drift.VERDICTS.index(direction)
        hits = (codes == code) & np.isnan(levels[code])
        refined = ~np.isnan(levels[0]) | ~np.isnan(levels[1])
        assert hits.any() and (~hits & (codes != drift._UNKNOWN_CODE)).any() and refined.any()
        name = "_up_index" if direction == UP else "_down_index"
        pieces, tags = getattr(classifier, name)
        monkeypatch.setattr(classifier, name, (sd.BoxRegion(ms_full.base, pieces.window, [], [], []), tags[-1:]))
        for point, hit, verdict in zip(points, hits, codes):
            if hit:
                message = f"internal inconsistency: no {direction} piece holds a point its runs hold"
                for query in (classifier.classify, classifier.search_certificates):
                    with pytest.raises(RuntimeError, match=message):
                        query(point)
            else:  # the other direction's hits, refined points and Unknown ones read no emptied piece
                assert classifier.classify(point).verdict == drift.VERDICTS[verdict]
        assert np.array_equal(classifier.classify_arrays(points[0].window.lo, rows, xs), codes)

    def test_touching_up_and_down_runs_raise(self, const_affine):
        classifier = sd.get_classifier(const_affine, 2)
        system = const_affine.base

        def joint(up, down):
            classifier._up_region, classifier._down_region = up, down
            return classifier._check_disjoint()

        # Up [0.2, 0.5] and Down [0.5, 0.8] on word (1,) share the point 0.5, also when Down lies on a wider window
        up = sd.BoxRegion(system, (0, 0), [0], [0.2], [0.5])
        for down in (sd.BoxRegion(system, (0, 0), [0, 1], [0.5, 0.5], [0.8, 0.8]),
                     sd.BoxRegion(system, (1, 0), [2], [0.5], [0.8])):  # word (2, 1) on coordinates -1, 0
            with pytest.raises(RuntimeError, match="Up and Down strips meet at 0.5, word rank"):
                joint(up, down)
            with pytest.raises(RuntimeError, match="Up and Down strips meet at 0.3, word rank"):
                joint(up, sd.BoxRegion(system, down.window, down.ranks, down.lo - 0.2, down.hi))
        # one ulp apart they are disjoint: the joint region keeps both, in (rank, lo) order with their codes
        down = sd.BoxRegion(system, (0, 0), [0, 1], [np.nextafter(0.5, 1.0), 0.3], [0.8, 0.4])
        region, codes = joint(up, down)
        assert region.ranks.tolist() == [0, 0, 1] and region.lo.tolist() == [0.2, np.nextafter(0.5, 1.0), 0.3]
        assert codes.tolist() == [drift._UP_CODE, drift._DOWN_CODE, drift._DOWN_CODE, drift._UNKNOWN_CODE]


def _same_arrays(got, want):
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def _assert_same_chains(got, want):
    """Equal _chains results: witness groups (windows, rows, dtypes), Up and Down places, chains cut short."""
    assert got[3] == want[3]
    for (window, *arrays), (want_window, *want_arrays) in zip(got[0], want[0], strict=True):
        assert window == want_window and _same_arrays(arrays, want_arrays)
    for places, want_places in zip(got[1:3], want[1:3]):
        assert all(a.dtype == np.int64 for a in places) and _same_arrays(places, want_places)


class TestChainKeys:
    """The chain pass's Up and Down places give the dict reference's witnesses in (level, step) order."""

    def check(self, product, depth):
        witnesses, *places, truncated = next(drift._chains([product], depth))
        *references, want_truncated = _reference_chains(product, depth)
        assert truncated == want_truncated
        system = product.base
        for (group, row), reference in zip(places, references, strict=True):
            assert group.dtype == row.dtype == np.int64 and len(group) == len(row) == len(reference)
            for k, r, (g, e, margin, _key) in zip(group, row, reference):
                window, graphs, images, margins = witnesses[k]
                L, R = window
                words = system.words(L + R + 1)
                assert g[0] == e[0] == window and margins[r] == margin
                assert graphs[r].tolist() == [g[1][w] for w in words]
                assert images[r].tolist() == [e[1][w] for w in words]
        return truncated

    def test_fixture_systems(self, const_affine, const_plateau, two_map, ms_full, golden_ms):
        for product in (const_affine, const_plateau, two_map, ms_full, golden_ms):
            self.check(product, 6)

    @pytest.mark.parametrize("tau", [-0.004, 0.0, 0.004])
    def test_plateau_members(self, const_plateau, tau):
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        self.check(sd.family_member(family, tau), 10)

    def test_groups_over_many_windows(self, full2, uniform_chain, ms_full):
        # window (1, 1) at depth 8 and 10: many groups, chains cut short at the cap
        for product in (ms_full, multistep_affines(full2, uniform_chain, base_offset=0.09)):
            self.check(product, 8)
        assert self.check(ms_full, 10) == len(LEVEL_GRID)
        for window in [(1, 0), (1, 1)]:
            self.check(_three_symbol_product(window, sd.Affine(0.1, 0.8)), 4)


def _assert_same_classifier(got, want):
    """Classifiers that agree in witnesses, places, chains cut short, read range, index, regions and tags."""
    assert got.truncated_chains == want.truncated_chains and got._read_hi == want._read_hi
    for (window, *arrays), (want_window, *want_arrays) in zip(got._witnesses, want._witnesses, strict=True):
        assert window == want_window and _same_arrays(arrays, want_arrays)
    assert _same_arrays((*got._up, *got._down), (*want._up, *want._down))
    pairs = [(got._up_index, want._up_index), (got._down_index, want._down_index)]
    for (pieces, tags), (want_pieces, want_tags) in pairs:
        assert pieces.window == want_pieces.window and _same_arrays(
            (pieces.ranks, pieces.lo, pieces.hi, tags), (want_pieces.ranks, want_pieces.lo, want_pieces.hi, want_tags)
        )
    for direction in (UP, DOWN):
        region, want_region = got.certified_boxes(direction), want.certified_boxes(direction)
        assert region.window == want_region.window
        assert _same_arrays((region.ranks, region.lo, region.hi), (want_region.ranks, want_region.lo, want_region.hi))


class TestBatchedChains:
    """One chain pass over a family's members gives each member what its own classifier build gives."""

    def check(self, members, depth, seed):
        slices = list(drift._chains(members, depth))
        assert len(slices) == len(members)
        for k, (member, chains) in enumerate(zip(members, slices)):
            alone = sd.DriftClassifier(member, depth)
            _assert_same_chains(chains, next(drift._chains([member], depth)))
            assembled = sd.DriftClassifier(member, depth, iter([chains]))
            _assert_same_classifier(assembled, alone)
            points = list(sampled_points(member, depth, 300, seed + k))
            lo, rows, xs = points[0].window.lo, [p.window.symbols for p in points], [p.x for p in points]
            assert np.array_equal(assembled.classify_arrays(lo, rows, xs), alone.classify_arrays(lo, rows, xs))
        return slices

    def test_plateau_family_members(self):
        cfg = load_config(str(CONFIGS / "plateau_family.json"))
        members = [sd.family_member(cfg.family, tau) for tau in cfg.analysis.grid]
        # the base plateau at tau = 0 and the bump-composed members: two map forms in one pass
        assert any(member is cfg.family.base_product for member in members)
        self.check(members, cfg.analysis.depth, seed=90)

    def test_mixed_form_family_at_depth_8(self, full2, uniform_chain):
        family = sd.MonotoneFamily(_mixed_form_product(full2, uniform_chain), 1.0, (-0.01, 0.01))
        self.check([sd.family_member(family, tau) for tau in (-0.01, -0.004, 0.0, 0.004, 0.01)], 8, seed=91)

    def test_chains_cut_at_the_cap(self, ms_full):
        # ms_full's windows grow by one per step, so at depth 10 every chain of every member is cut short
        family = sd.MonotoneFamily(ms_full, 1.0, (-0.02, 0.02))
        slices = self.check([sd.family_member(family, tau) for tau in (-0.02, 0.0, 0.02)], 10, seed=92)
        assert [chains[3] for chains in slices] == [len(LEVEL_GRID)] * 3

    def test_products_on_different_window_paths(self, full2, uniform_chain, ms_full):
        # any products of one base and window batch together: here some chains grow to the cap and
        # others stay on small windows, so parts of the pass hold only some of the products
        words = full2.words(3)
        products = [
            ms_full,
            sd.MultistepSkewProduct(full2, uniform_chain, (1, 1), {w: sd.Affine(0.1, 0.8) for w in words}),
            _mixed_form_product(full2, uniform_chain),
            sd.MultistepSkewProduct(full2, uniform_chain, (1, 1), {w: sd.Plateau(0.5, 0.4, 0.6) for w in words}),
        ]
        slices = self.check(products, 10, seed=93)
        assert [chains[3] for chains in slices] == [len(LEVEL_GRID), 0, len(LEVEL_GRID), 0]

    def test_slot_gathers(self, monkeypatch):
        # a single product, as a batch of one, and a batch both map by one slot row per (member, level) row
        dims = []
        original = MapStack.eval_columns

        def recording(self, which, x):
            dims.append(which.ndim)
            return original(self, which, x)

        monkeypatch.setattr(MapStack, "eval_columns", recording)
        cfg = load_config(str(CONFIGS / "plateau_family.json"))
        members = [sd.family_member(cfg.family, tau) for tau in (-0.002, 0.0, 0.002)]
        sd.DriftClassifier(members[0], 4)
        assert set(dims) == {2}
        dims.clear()
        list(drift._chains(members, 4))
        assert set(dims) == {2}


class TestCertifiedBoxes:
    @pytest.mark.parametrize("direction", ["up", "Unknown", None])
    def test_only_up_or_down_is_a_direction(self, const_affine, direction):
        # "up" is the spelling of DriftCertificate.direction, not of a verdict
        classifier = sd.DriftClassifier(const_affine, 4)
        with pytest.raises(ValueError) as info:
            classifier.certified_boxes(direction)
        assert str(info.value) == f"direction must be 'Up' or 'Down', got {direction!r}"


class TestFixedPointSoundness:
    """No certificate covers a common fixed point: the plateau's band [0.4, 0.6], constant_affine's 0.5."""

    BAND = (0.4, 0.6)

    @pytest.fixture(scope="class")
    def plateau(self):
        product = load_config(str(CONFIGS / "plateau_family.json")).family.base_product
        assert set(product.assignment.values()) == {sd.Plateau(0.5, *self.BAND)}
        return product

    def test_no_box_meets_the_band(self, plateau):
        lo, hi = self.BAND
        for depth in (0, 10, 16):
            classifier = sd.DriftClassifier(plateau, depth)
            up, down = classifier.certified_boxes(UP), classifier.certified_boxes(DOWN)
            assert len(up.hi) and len(down.lo)
            assert up.hi.max() < lo and down.lo.min() > hi, depth

    def test_band_points_are_unknown(self, plateau):
        lo, hi = self.BAND
        for depth in (2, 10):
            classifier = sd.DriftClassifier(plateau, depth)
            points = list(sampled_points(plateau, depth, 2000, seed=140 + depth))
            xs = np.concatenate([[lo, hi], np.random.default_rng(150 + depth).uniform(lo, hi, len(points) - 2)])
            rows = [p.window.symbols for p in points]
            codes = classifier.classify_arrays(points[0].window.lo, rows, xs)
            assert (codes == VERDICTS.index(UNKNOWN)).all(), depth
            for point, x in zip(points[:200], xs[:200].tolist()):
                assert classifier.search_certificates(sd.LabeledPoint(point.window, x)) == (None, None)

    def test_constant_affine_fixed_point_in_no_box(self):
        product = load_config(str(CONFIGS / "constant_affine.json")).product
        for depth in (0, 4, 8, 16):
            classifier = sd.DriftClassifier(product, depth)
            for direction in (UP, DOWN):
                boxes = classifier.certified_boxes(direction)
                assert len(boxes.lo) and not ((boxes.lo <= 0.5) & (0.5 <= boxes.hi)).any(), (depth, direction)


@functools.cache
def one_map_products() -> tuple:
    """The 1-D products: the 21 plateau_family grid members (tau = 0 is the plain plateau) and constant_affine,
    each carrying one map f on every word, so its exact Up, Down and nonwandering sets are those of f alone."""
    cfg = load_config(str(CONFIGS / "plateau_family.json"))
    products = [sd.family_member(cfg.family, tau) for tau in cfg.analysis.grid]
    return tuple(products + [load_config(str(CONFIGS / "constant_affine.json")).product])


class TestExactEndpoints:
    """Exact signs at box ends on the 1-D products: f(hi) > hi at every Up box's hi and f(lo) < lo at every Down
    box's lo, in Fraction. TestExactFixedPoints proves by Sturm counts that f(x) - x is positive left of its zeros
    and negative right of them, so these end checks place every whole box in {f > x} or {f < x}.
    """

    def test_box_ends_have_the_exact_sign(self):
        products = one_map_products()
        assert len(products) == 22
        for product in products:
            [f] = set(product.assignment.values())
            for depth in (6, 10):
                classifier = drift.get_classifier(product, depth)
                highs = set(classifier.certified_boxes(UP).hi.tolist())
                lows = set(classifier.certified_boxes(DOWN).lo.tolist())
                assert highs and lows, (f, depth)
                assert all(exact_eval(f, hi) > Fraction(hi) for hi in highs), (f, depth)
                assert all(exact_eval(f, lo) < Fraction(lo) for lo in lows), (f, depth)


# Polynomials in Fraction, constant coefficient first, with no trailing zero: [] is the zero polynomial.


def _trimmed(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _value(p, x):
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def _divided(p, d):
    """(quotient, remainder) of p by the nonzero d."""
    p, q = list(p), [Fraction(0)] * max(len(p) - len(d) + 1, 0)
    while len(p) >= len(d):
        factor, shift = p[-1] / d[-1], len(p) - len(d)
        q[shift] = factor
        p = _trimmed(c - factor * d[k - shift] if k >= shift else c for k, c in enumerate(p))
    return q, p


def _derivative(p):
    return [k * c for k, c in enumerate(p)][1:]  # p has no trailing zero, so neither has this


def through_points(xs, ys):
    """The polynomial of degree < len(xs) through the points: Newton's divided differences, expanded."""
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for k in range(len(xs) - 2, -1, -1):
        poly = [-xs[k] * poly[0] + coef[k]] + [poly[i - 1] - xs[k] * poly[i] for i in range(1, len(poly))] + [poly[-1]]
    return _trimmed(poly)


def root_count(p, lo, hi, lo_in, hi_in) -> int:
    """Distinct real roots of the nonzero polynomial p between lo and hi, each end counted if in: a Sturm count.

    On the square-free part q = p / gcd(p, p'), the sign variations V of q's Sturm sequence fall by one at each
    root, and V(lo) - V(hi) counts the roots in (lo, hi].
    """
    g, h = p, _derivative(p)
    while h:
        g, h = h, _divided(g, h)[1]
    q = _divided(p, g)[0]
    sequence = [q, _derivative(q)]
    while len(sequence[-1]) > 1:
        sequence.append([-c for c in _divided(sequence[-2], sequence[-1])[1]])

    def variations(x):
        signs = [v > 0 for v in (_value(r, x) for r in sequence if r) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi) + (lo_in and _value(q, lo) == 0) - (not hi_in and _value(q, hi) == 0)


def polynomial_pieces(f):
    """(lo, hi, lo_in, hi_in, p) for each piece of [0, 1] on which f(x) - x is the polynomial p.

    Plateau's pieces, alone or under a bump, are of degree <= 4; p interpolates exact_eval at five nodes inside
    the piece, and a sixth node checks it.
    """
    plateau = f.inner if isinstance(f, sd.BumpComposed) else f
    ends = (Fraction(plateau.j_lo), Fraction(plateau.j_hi)) if isinstance(plateau, sd.Plateau) else ()
    bounds = [Fraction(0), *ends, Fraction(1)]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        nodes = [lo + (hi - lo) * i / 7 for i in range(1, 7)]
        values = [exact_eval(f, x) - x for x in nodes]
        p = through_points(nodes[:5], values[:5])
        assert _value(p, nodes[5]) == values[5], (f, lo, hi)
        # the middle piece of a plateau is closed, its outer pieces are open towards it
        yield lo, hi, k == 0 or k == 1, k == len(bounds) - 2 or k == 1, p


@functools.cache
def exact_masses(f) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Rational brackets of Leb{f > x} and Leb{f < x}, after proving the sign pattern of f(x) - x.

    Either f(x) - x has one root in (0, 1), isolated to a bracket 2^-40 wide, or it is positive on [0, j_lo),
    zero on [j_lo, j_hi] and negative on (j_hi, 1]: then both masses are exact.
    """
    def g(x):
        return exact_eval(f, x) - x

    assert g(Fraction(0)) > 0 > g(Fraction(1)), f
    pieces = list(polynomial_pieces(f))
    zero = [(lo, hi) for lo, hi, _, _, p in pieces if not p]
    counts = [root_count(p, lo, hi, lo_in, hi_in) for lo, hi, lo_in, hi_in, p in pieces if p]
    if zero:
        [(j_lo, j_hi)] = zero
        assert counts == [0, 0], f  # so f - x keeps the sign of g(0) left of the block and of g(1) right of it
        return (j_lo, j_lo), (1 - j_hi, 1 - j_hi)
    assert sum(counts) == 1, (f, counts)  # one root between g(0) > 0 and g(1) < 0: one sign change
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > Fraction(1, 2**40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    return (lo, hi), (1 - hi, 1 - lo)


def _exact_box_mass(region, chain) -> Fraction:
    """The region's measure in Fraction: each box's cylinder weight, from the chain's entries, times its length."""
    words = region.system.word_array(sum(region.window) + 1)[region.ranks] - 1
    total = Fraction(0)
    for word, lo, hi in zip(words.tolist(), region.lo.tolist(), region.hi.tolist()):
        weight = Fraction(chain.stationary[word[0]])
        for a, b in zip(word, word[1:]):
            weight *= Fraction(chain.stochastic[a, b])
        total += weight * (Fraction(hi) - Fraction(lo))
    return total


class TestExactFixedPoints:
    """The 1-D products as an exact oracle: Sturm counts of f(x) - x on each polynomial piece of f, in Fraction,
    give Fix(f) and the exact masses of {f > x} and {f < x}, which bound what the tool certifies."""

    def test_one_sign_change_or_a_fixed_block(self):
        for product in one_map_products():
            [f] = set(product.assignment.values())
            (up_lo, up_hi), (down_lo, down_hi) = exact_masses(f)
            if up_lo == up_hi:  # only the tau = 0 member has a block of fixed points
                assert isinstance(f, sd.Plateau) and (up_lo, down_lo) == (Fraction(f.j_lo), 1 - Fraction(f.j_hi))
                continue
            assert 0 < up_hi - up_lo <= Fraction(1, 2**40)
            a, b = 0.0, 1.0  # float bisection of f(x) - x, blind to the exact analysis
            for _ in range(60):
                mid = (a + b) / 2
                a, b = (mid, b) if float(f.eval(mid)) > mid else (a, mid)
            assert float(up_lo) - 1e-12 <= a <= float(up_hi) + 1e-12, f

    def test_tau_zero_masses(self):
        assert load_config(str(CONFIGS / "plateau_family.json")).analysis.grid[10] == 0.0  # the grid holds 0 exactly
        [f] = set(one_map_products()[10].assignment.values())
        assert exact_masses(f) == ((Fraction(0.4),) * 2, (Fraction(0.4),) * 2)

    def test_certified_masses_stay_below_the_exact_ones(self):
        for product in one_map_products():
            [f] = set(product.assignment.values())
            (up, _), (down, _) = exact_masses(f)
            for depth in (6, 10):
                classifier = drift.get_classifier(product, depth)
                assert _exact_box_mass(classifier.certified_boxes(UP), product.chain) <= up, (f, depth)
                assert _exact_box_mass(classifier.certified_boxes(DOWN), product.chain) <= down, (f, depth)

    def test_sweep_curves_stay_below_the_exact_masses(self):
        cfg = load_config(str(CONFIGS / "plateau_family.json"))
        result = sd.sweep(cfg.family, cfg.analysis.grid, cfg.analysis.depth, 100, cfg.analysis.seed)
        for product, up_lower, down_lower in zip(one_map_products(), result.mu_lower, result.down_lower):
            [f] = set(product.assignment.values())
            (_, up), (_, down) = exact_masses(f)
            assert up_lower <= float(up) + 1e-12 and down_lower <= float(down) + 1e-12, f


class TestWanderingOracle:
    """A witnessed point's orbit stays strictly past its witness's image: Up above it, Down below, step after step.

    For an Up witness g with image F(g) > g and x > g(w), monotonicity gives
    F^n(x) > F^n(g)(shifted w) >= F(g)(shifted w) for n >= 1. The check runs
    the orbit by iterate, not through any certified margin.
    """

    def test_orbits_stay_past_the_image(self, ms_full):
        products = [load_config(str(CONFIGS / name)).product for name in ("constant_affine.json", "golden_affine.json")]
        products += [load_config(str(CONFIGS / "plateau_family.json")).family.base_product, ms_full]
        depth, checks = 6, Counter()
        for k, product in enumerate(products):
            l, r = product.window
            classifier, rng = sd.DriftClassifier(product, depth), np.random.default_rng(160 + k)
            for _ in range(300):
                # depth + 12 more right coordinates: the image's window still fits after 6 shifts
                window = sd.sample_window(product.chain, -(depth + l + 1), 2 * depth + r + 12, rng)
                point = sd.LabeledPoint(window, float(rng.random()))
                witness = classifier.classify(point).witness
                if witness is None:
                    continue
                image = sd.image_graph(product, witness.graph)
                for n in range(1, depth + 1):
                    moved = sd.iterate(product, point, n)
                    level = image.value_at(moved.window)
                    assert moved.x > level if witness.direction == "up" else moved.x < level, (k, point, n)
                    checks[witness.direction] += 1
        assert checks["up"] > 1000 and checks["down"] > 1000, checks
