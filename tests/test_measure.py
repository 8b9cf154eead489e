import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import skewdrift as sd
from skewdrift import measure
from skewdrift.config import load_config
from skewdrift.drift import DriftClassifier
from skewdrift.errors import FamilyRangeError, InvalidRegionError, ToleranceError
from skewdrift.measure import RegionEstimate
from skewdrift.regions import sweep_rows

from conftest import (
    REGION_CHAINS,
    REGION_ENDS,
    box_region,
    box_regions,
    constant_product,
    merge_intervals,
    multistep_affines,
    region_dict,
    same_boxes,
)

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def boxes_of(region):
    L, _R = region.window
    return [
        (sd.SymbolWindow(-L, word), sd.RealInterval(lo, hi))
        for word, ivs in region_dict(region).items()
        for lo, hi in ivs
    ]


class TestMeasureBoxes:
    def test_full_cylinder_half_fiber(self, uniform_chain):
        boxes = [
            (sd.SymbolWindow(0, (1,)), sd.RealInterval(0.0, 0.5)),
            (sd.SymbolWindow(0, (2,)), sd.RealInterval(0.0, 0.5)),
        ]
        assert sd.measure_boxes(uniform_chain, boxes) == pytest.approx(0.5)

    def test_golden_cylinder_slice(self, golden_chain):
        boxes = [(sd.SymbolWindow(0, (1, 2)), sd.RealInterval(0.2, 0.6))]
        assert sd.measure_boxes(golden_chain, boxes) == pytest.approx(0.1)

    def test_empty_list(self, uniform_chain):
        assert sd.measure_boxes(uniform_chain, []) == 0.0

    def test_overlap_rejected(self, uniform_chain):
        w = sd.SymbolWindow(0, (1,))
        boxes = [(w, sd.RealInterval(0.1, 0.4)), (w, sd.RealInterval(0.3, 0.5))]
        with pytest.raises(InvalidRegionError):
            sd.measure_boxes(uniform_chain, boxes)

    def test_region_measure_matches_measure_boxes(self, golden_ms):
        # same boxes, same summation order: the two sums agree to the last bit
        for region in sd.certified_regions(golden_ms, 5):
            assert region.measure(golden_ms.chain) == sd.measure_boxes(golden_ms.chain, boxes_of(region))

    def test_depth_8_multistep_region_measure_matches_measure_boxes(self, full2, uniform_chain, ms_full):
        for product in (ms_full, multistep_affines(full2, uniform_chain, base_offset=0.09)):
            for region in sd.certified_regions(product, 8):
                assert len(region_dict(region)) == 2048  # every word of the 11-symbol window
                assert region.measure(product.chain) == sd.measure_boxes(product.chain, boxes_of(region))

    @pytest.mark.parametrize("interval", [(-0.1, 0.2), (0.5, 1.2), (0.6, 0.4)])
    def test_region_intervals_must_lie_in_unit_interval(self, full2, interval):
        with pytest.raises(InvalidRegionError, match="not an interval"):
            sd.BoxRegion(full2, (0, 0), [0], [interval[0]], [interval[1]])

    def test_region_union_measure(self, full2, uniform_chain):
        a = box_region(full2, (0, 0), {(1,): ((0.1, 0.3),), (2,): ((0.2, 0.4),)})
        b = box_region(full2, (0, 0), {(1,): ((0.25, 0.5),)})
        u = sd.region_union(a, b)
        assert u.measure(uniform_chain) == pytest.approx(0.5 * 0.4 + 0.5 * 0.2)


# Interval ends on a coarse grid, so that random intervals tie, touch, nest
# and include degenerate [a, a] ones.
EDGES = (0.0, 0.1, 0.2, 0.25, 0.5, 0.75, 1.0)


def sorted_boxes(rng, count):
    """Intervals that are disjoint but may touch, repeat a degenerate [a, a], or be degenerate."""
    ends = np.sort(rng.choice(EDGES, 2 * count)).tolist()
    return list(zip(ends[::2], ends[1::2]))


def reference_union(system, regions, window):
    """Union word by word: each word on the window takes its restrictions' intervals, merged."""
    out = {}
    L2, R2 = window
    for region in regions:
        L, R = region.window
        boxes = region_dict(region)
        for word in system.words(L2 + R2 + 1):
            out.setdefault(word, []).extend(boxes.get(word[L2 - L : L2 + R + 1], ()))
    return {word: merge_intervals(ivs) for word, ivs in out.items() if ivs}


def sweep_rows_reference(lo, hi):
    """sweep_rows row by row in Python: a stable sort by (lo, hi, column), then a running-end sweep."""
    pieces, runs = [], []
    for r in range(lo.shape[0]):
        end = -math.inf
        for c in sorted(range(lo.shape[1]), key=lambda c: (lo[r, c], hi[r, c], c)):
            a, b = lo[r, c], hi[r, c]
            if b > end:
                if a > end:
                    runs.append([r, a, b])
                else:
                    runs[-1][2] = b
                pieces.append((r, c, a if a > end else end, b))
            end = end if end > b else b  # as numpy's maximum: of two equal zeros, the later
    return _columns(pieces, (np.intp, np.intp, float, float)), _columns(runs, (np.intp, float, float))


def _columns(rows, dtypes):
    return tuple(np.array([row[i] for row in rows], dtype=dtype) for i, dtype in enumerate(dtypes))


class TestRegionArrays:
    """region_union and sweep_rows against the per-word reference merge."""

    @pytest.mark.parametrize("intervals, merged", [
        ([(0.1, 0.3), (0.1, 0.3)], ((0.1, 0.3),)),  # tied
        ([(0.2, 0.4), (0.1, 0.2)], ((0.1, 0.4),)),  # touching
        ([(0.1, 0.5), (0.2, 0.3)], ((0.1, 0.5),)),  # nested
        ([(0.3, 0.3)], ((0.3, 0.3),)),  # degenerate
        ([(0.2, 0.4), (0.2, 0.2), (0.4, 0.4), (0.6, 0.6), (0.6, 0.6)], ((0.2, 0.4), (0.6, 0.6))),
    ])
    def test_special_cases(self, full2, intervals, merged):
        assert merge_intervals(intervals) == merged
        lo, hi = np.array([intervals]).transpose(2, 0, 1)
        _pieces, (row, start, stop) = sweep_rows(lo, hi)
        assert row.tolist() == [0] * len(merged) and list(zip(start.tolist(), stop.tolist())) == list(merged)
        union = box_region(full2, (0, 0), {})
        for interval in intervals:
            union = sd.region_union(union, box_region(full2, (0, 0), {(2,): [interval]}))
        assert region_dict(union) == {(2,): merged}

    def test_sweep_rows_matches_reference(self):
        rng = np.random.default_rng(5)
        lo, hi = np.sort(rng.choice(EDGES, (2, 60, 7)), axis=0)
        absent = rng.random((60, 7)) < 0.3
        lo[absent], hi[absent] = np.inf, -np.inf
        (row, col, start, stop), (run_row, run_lo, run_hi) = sweep_rows(lo, hi)
        for r in range(60):
            runs = list(zip(run_lo[run_row == r].tolist(), run_hi[run_row == r].tolist()))
            assert runs == list(merge_intervals((a, b) for a, b in zip(lo[r], hi[r]) if a <= b))
            mine = row == r
            pieces = list(zip(start[mine].tolist(), stop[mine].tolist()))
            assert merge_intervals(pieces) == tuple(runs)
            assert all(lo[r, c] <= a <= b <= hi[r, c] for c, a, b in zip(col[mine], *zip(*pieces)))

    @given(
        shape=st.tuples(st.integers(0, 5), st.integers(0, 6)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    @example(shape=(0, 3), data=None)
    @example(shape=(4, 0), data=None)
    @example(shape=(4, 1), data=None)
    @example(shape=(3, 4), data=None)
    def test_sweep_rows_bitwise(self, shape, data):
        # ends drawn from a few values (with both zeros), so that some rows
        # tie in lo and others do not; data=None makes every entry absent
        if data is None:
            lo, hi = np.full(shape, np.inf), np.full(shape, -np.inf)
        else:
            ends = arrays(float, (2, *shape), elements=st.sampled_from((-0.0, 0.0) + EDGES[1:]))
            a, b = data.draw(ends)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            absent = data.draw(arrays(bool, shape))
            lo[absent], hi[absent] = np.inf, -np.inf
        pieces, runs = sweep_rows(lo, hi)
        want_pieces, want_runs = sweep_rows_reference(lo, hi)
        for got, want in zip(pieces + runs, want_pieces + want_runs):
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("windows", [((0, 0), (0, 0)), ((1, 0), (0, 2)), ((0, 1), (2, 1)), ((2, 2), (0, 0))])
    def test_union_matches_reference(self, golden, windows):
        rng = np.random.default_rng(len(windows[0]) + 10 * sum(windows[1]))
        for _ in range(20):
            a, b = (
                box_region(golden, w, {
                    word: sorted_boxes(rng, 3) for word in golden.words(w[0] + w[1] + 1) if rng.random() < 0.7
                })
                for w in windows
            )
            window = (max(windows[0][0], windows[1][0]), max(windows[0][1], windows[1][1]))
            union = sd.region_union(a, b)
            assert union.window == window
            assert list(region_dict(union).items()) == sorted(reference_union(golden, (a, b), window).items())

    def test_refined_keeps_every_box(self, golden):
        region = box_region(golden, (0, 1), {(1, 1): [(0.1, 0.2), (0.2, 0.2)], (2, 1): [(0.5, 0.6)]})
        boxes = region_dict(region)
        want = {w: boxes[w[1:3]] for w in golden.words(4) if w[1:3] in boxes}
        assert list(region_dict(region.refined((1, 2))).items()) == sorted(want.items())
        with pytest.raises(ValueError, match="does not contain"):
            region.refined((1, 0))

    @pytest.mark.parametrize("ranks, lo, hi, message", [
        ([1, 0], [0.1, 0.2], [0.2, 0.3], "interval 1 on word \\(1,\\) overlaps or is out of"),
        ([0, 0], [0.3, 0.1], [0.4, 0.2], "interval 1 on word \\(1,\\) overlaps or is out of"),
        ([0, 0, 1], [0.1, 0.2, 0.5], [0.3, 0.4, 0.6], "interval 1 on word \\(1,\\) overlaps or is out of"),
        ([2], [0.1], [0.2], "word rank 2 is not in 0..1"),
        ([0, 1], [0.1], [0.2], "one length"),
        ([0.7], [0.1], [0.2], "word ranks must be integers, got float64"),
        ([True], [0.1], [0.2], "word ranks must be integers, got bool"),
        (["1"], [0.1], [0.2], "word ranks must be integers, got <U1"),
    ])
    def test_invalid_boxes_rejected(self, full2, ranks, lo, hi, message):
        with pytest.raises(InvalidRegionError, match=message):
            sd.BoxRegion(full2, (0, 0), ranks, lo, hi)

    def test_touching_and_degenerate_boxes_accepted(self, full2):
        region = sd.BoxRegion(full2, (0, 0), [0, 0, 0, 0, 1], [0.1, 0.2, 0.2, 0.2, 0.5], [0.2, 0.2, 0.2, 0.3, 0.5])
        assert region_dict(region) == {(1,): ((0.1, 0.2), (0.2, 0.2), (0.2, 0.2), (0.2, 0.3)), (2,): ((0.5, 0.5),)}


def covers(boxes, x):
    return any(lo <= x <= hi for lo, hi in boxes)


def membership(region, window):
    """Point membership in region, read off its boxes word by word, for points whose symbols cover window."""
    boxes, L, (l, r) = region_dict(region), window[0], region.window
    return lambda word, x: covers(boxes.get(word[L - l:L + r + 1], ()), x)


def one_ulp(x):
    """The floats of [0, 1] next to x."""
    return [y for y in (np.nextafter(x, -1.0), np.nextafter(x, 2.0)) if 0.0 <= y <= 1.0]


class TestSetAlgebra:
    """complement, intersect, difference and region_union against per-word point membership."""

    @given(chain=st.sampled_from(REGION_CHAINS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_point_membership(self, chain, data):
        system = chain.base
        a, b = data.draw(box_regions(system)), data.draw(box_regions(system))
        window = (max(a.window[0], b.window[0]), max(a.window[1], b.window[1]))
        in_a, in_b = membership(a, window), membership(b, window)
        ops = [
            ("union", membership(sd.region_union(a, b), window), lambda p, q: p or q),
            ("intersect", membership(sd.intersect(a, b), window), lambda p, q: p and q),
            ("difference", membership(sd.difference(a, b), window), lambda p, q: p and not q),
            ("complement", membership(a.complement(), window), lambda p, q: not p),
        ]
        # off box endpoints membership is exact: a grid missing every end, and every end +- 1 ulp
        ends = {0.0, 1.0, *a.lo.tolist(), *a.hi.tolist(), *b.lo.tolist(), *b.hi.tolist()}
        xs = [(u + v) / 2 for u, v in zip(REGION_ENDS, REGION_ENDS[1:])] + [y for e in ends for y in one_ulp(e)]
        for word in system.words(window[0] + window[1] + 1):
            for x in xs:
                p, q = in_a(word, x), in_b(word, x)
                for name, member, rule in ops:
                    assert member(word, x) == rule(p, q), (name, word, x)

        # an end lies in a, and in a's complement (its closure) exactly where it bounds a
        boxes, gaps = region_dict(a), region_dict(a.complement())
        for word, ivs in boxes.items():
            for e in {end for box in ivs for end in box}:
                assert covers(ivs, e)
                assert covers(gaps.get(word, ()), e) == any(not covers(ivs, y) for y in one_ulp(e))

        L, R = a.window
        words = system.words(L + R + 1)
        total = sum(sd.cylinder_measure(chain, sd.SymbolWindow(-L, w)) for w in words)
        assert abs(a.measure(chain) + a.complement().measure(chain) - total) <= 1e-12
        empty = sd.BoxRegion(system, a.window, [], [], [])
        assert region_dict(empty.complement()) == {w: ((0.0, 1.0),) for w in words}

    def test_closed_contact_is_no_intersection(self, full2):
        # De Morgan over closures: the one shared point of two closed boxes is lost
        up, down = sd.BoxRegion(full2, (0, 0), [0], [0.2], [0.5]), sd.BoxRegion(full2, (0, 0), [0], [0.5], [0.8])
        assert len(sd.intersect(up, down).ranks) == 0
        assert region_dict(sd.difference(up, down)) == {(1,): ((0.2, 0.5),)}


class TestUncoveredMass:
    """What the certified Up and Down boxes leave uncovered at depth 10 on the shipped configs."""

    @pytest.mark.parametrize("name, tau", [
        ("constant_affine.json", None),
        ("golden_affine.json", None),  # index window (11, 0)
        ("plateau_family.json", -0.02),
        ("plateau_family.json", 0.0),
        ("plateau_family.json", 0.02),
    ])
    def test_up_down_and_uncovered_fill_the_space(self, name, tau):
        cfg = load_config(str(CONFIGS / name))
        product = cfg.product if tau is None else sd.family_member(cfg.family, tau)
        up, down = sd.certified_regions(product, depth=10)
        uncovered = sd.region_union(up, down).complement().measure(product.chain)
        assert abs(up.measure(product.chain) + down.measure(product.chain) + uncovered - 1.0) <= 1e-12
        assert len(sd.intersect(up, down).ranks) == 0
        if tau == 0.0:
            # every map is the identity on [0.4, 0.6], and no witness covers a fixed point
            assert uncovered >= 0.2


class TestHoeffding:
    def test_radius_at_100(self):
        assert sd.hoeffding_radius(100) == pytest.approx(math.sqrt(math.log(40) / 200))
        assert sd.hoeffding_radius(100) == pytest.approx(0.1358, abs=2e-4)


class TestEstimateRegions:
    def test_deterministic_given_seed(self, const_affine):
        a = sd.estimate_regions(const_affine, 4, 500, 123)
        b = sd.estimate_regions(const_affine, 4, 500, 123)
        assert a == b
        assert same_boxes(a.up_region, b.up_region)

    def test_fractions_sum_to_one(self, two_map):
        est = sd.estimate_regions(two_map, 4, 500, 5)
        assert est.mc_up + est.mc_down + est.mc_unknown == pytest.approx(1.0, abs=1e-12)

    def test_minimum_samples(self, const_affine):
        with pytest.raises(ValueError):
            sd.estimate_regions(const_affine, 4, 50, 0)

    def test_mc_consistent_with_certified(self, const_affine):
        est = sd.estimate_regions(const_affine, 6, 2000, 11)
        assert est.mc_up >= est.certified_up_measure - est.radius
        assert est.mc_down >= est.certified_down_measure - est.radius

    def test_golden_base_multistep(self, golden_ms):
        # non-uniform chain, genuinely multistep window: the region windows
        # grow into the past and words must restrict consistently
        est = sd.estimate_regions(golden_ms, 5, 1000, 13)
        assert est.mc_up + est.mc_down + est.mc_unknown == pytest.approx(1.0, abs=1e-12)
        assert est.certified_up_measure > 0.2
        assert est.certified_down_measure > 0.2

    def test_numpy_depth_serializes(self, const_affine):
        est = sd.estimate_regions(const_affine, np.int64(2), 200, 1)
        assert type(est.depth) is int and json.loads(json.dumps(est.to_json()))["depth"] == 2

    def test_numpy_sample_count_serializes(self, const_affine):
        est = sd.estimate_regions(const_affine, 4, np.int64(150), 1)
        assert type(est.n_samples) is int and json.loads(json.dumps(est.to_json()))["n"] == 150

    @pytest.mark.parametrize("n", [150.0, True, 99, "150"])
    def test_sample_count_must_be_an_integer_from_100(self, const_affine, n):
        with pytest.raises(ValueError) as info:
            sd.estimate_regions(const_affine, 4, n, 1)
        assert type(info.value) is ValueError
        assert str(info.value) == f"sample count must be an integer >= 100, got {n!r}"

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(ValueError, match="sum to 1"):
            RegionEstimate(0.0, 0.0, 0.5, 0.4, 0.2, 0.1, 1000, 4, 0)

    @pytest.mark.parametrize("product_name, depth, seed", [("const_affine", 6, 834), ("const_plateau", 4, 479)])
    def test_fraction_below_certified_measure_is_returned(self, request, product_name, depth, seed):
        # a sampled fraction more than one radius below the certified measure
        # is a 5%-probability event at n = 100, not an inconsistency
        est = sd.estimate_regions(request.getfixturevalue(product_name), depth, 100, seed)
        assert est.mc_down < est.certified_down_measure - est.radius
        assert est.mc_up + est.mc_down + est.mc_unknown == pytest.approx(1.0, abs=1e-12)


class TestSeedRule:
    """A seed is an integer >= 0 (numpy's too, never a bool), or for estimate_regions a tuple of them, as sweep's
    (seed, grid index); anything else raises `seed must be an integer >= 0, got X` before any sampling."""

    REFUSED = [(-1, -1), (True, True), (None, None), (1.0, 1.0), ("1", "1"), ([1, 2], [1, 2]), ((1, -1), -1),
               ((1, True), True), ((1.5,), 1.5)]

    def test_numpy_seed_serializes(self, const_affine):
        est = sd.estimate_regions(const_affine, 2, 200, np.int64(1))
        assert type(est.seed) is int and json.loads(json.dumps(est.to_json()))["seed"] == 1
        assert est == sd.estimate_regions(const_affine, 2, 200, 1)

    def test_numpy_tuple_seed_serializes(self, const_affine):
        est = sd.estimate_regions(const_affine, 2, 200, (np.int64(4), np.int8(2)))
        assert est.seed == (4, 2) and all(type(k) is int for k in est.seed)
        assert json.loads(json.dumps(est.to_json()))["seed"] == [4, 2]
        assert est == sd.estimate_regions(const_affine, 2, 200, (4, 2))

    def test_numpy_sweep_seed_serializes(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        result = sd.sweep(fam, [0.0, 0.01], 2, 200, np.int64(7))
        assert [json.loads(json.dumps(e.to_json()))["seed"] for e in result.estimates] == [[7, 0], [7, 1]]
        assert result == sd.sweep(fam, [0.0, 0.01], 2, 200, 7)

    @pytest.mark.parametrize("seed, named", REFUSED)
    def test_estimate_refuses(self, full2, uniform_chain, monkeypatch, seed, named):
        product = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))  # no classifier yet
        sampled = []
        monkeypatch.setattr(measure, "_looked_up", lambda *args: sampled.append(args))
        with pytest.raises(ValueError) as info:
            sd.estimate_regions(product, 2, 200, seed)
        assert type(info.value) is ValueError and str(info.value) == f"seed must be an integer >= 0, got {named!r}"
        assert sampled == [] and not product._classifiers

    @pytest.mark.parametrize("seed, named", REFUSED[:5] + [((1, 2), (1, 2))])
    def test_sweep_refuses(self, const_affine, monkeypatch, seed, named):
        passes = []
        monkeypatch.setattr(measure, "_chains", lambda products, depth: passes.append(len(products)))
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        for grid in ([0.0, 0.01], []):
            with pytest.raises(ValueError) as info:
                sd.sweep(fam, grid, 2, 200, seed)
            assert type(info.value) is ValueError and str(info.value) == f"seed must be an integer >= 0, got {named!r}"
        assert passes == []


class TestClassifierSharing:
    def test_estimate_builds_one_classifier(self, full2, uniform_chain, monkeypatch):
        product = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))
        builds = []
        original = DriftClassifier.__init__

        def counting_init(self, *args):
            builds.append(args)
            original(self, *args)

        monkeypatch.setattr(DriftClassifier, "__init__", counting_init)
        est = sd.estimate_regions(product, 4, 200, 3)
        assert len(builds) == 1
        up, down = sd.certified_regions(product, 4)
        assert len(builds) == 1
        assert est.up_region is up and est.down_region is down

    def test_get_classifier_call_forms_share_one_build(self, full2, uniform_chain, monkeypatch):
        product = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))
        builds = []
        original = DriftClassifier.__init__

        def counting_init(self, *args):
            builds.append(args)
            original(self, *args)

        monkeypatch.setattr(DriftClassifier, "__init__", counting_init)
        first = sd.get_classifier(product, 3)
        assert sd.get_classifier(product, depth=3) is first
        assert sd.get_classifier(product=product, depth=3) is first
        assert len(builds) == 1

    def test_get_classifier_keyed_by_product_identity(self, full2, uniform_chain):
        a = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))
        b = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))
        assert sd.get_classifier(a, 3) is sd.get_classifier(a, 3)
        assert sd.get_classifier(b, 3) is not sd.get_classifier(a, 3)


class TestMonotoneFamily:
    def test_member_at_zero_is_base(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.05, 0.05))
        assert sd.family_member(fam, 0.0) is const_affine

    def test_bumped_offset_value(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.05, 0.15))
        member = sd.family_member(fam, 0.1)
        fmap = member.assignment[(1,)]
        assert fmap.eval(0.0) == pytest.approx(0.109)
        # closed-form fold of the bump must agree with direct composition
        direct = sd.BumpComposed(0.1, sd.Affine(0.1, 0.8))
        for x in np.linspace(0, 1, 37):
            assert fmap.eval(float(x)) == pytest.approx(direct.eval(float(x)), abs=1e-15)

    def test_members_are_ordered(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.05, 0.1))
        a = sd.family_member(fam, 0.0)
        b = sd.family_member(fam, 0.05)
        assert sd.compare_order(a, b) is sd.ProductOrder.FIRST_BELOW

    def test_tiny_separation_still_certifies(self, const_plateau):
        fam = sd.MonotoneFamily(const_plateau, 1.0, (-0.02, 0.02))
        a = sd.family_member(fam, 1e-7)
        b = sd.family_member(fam, 1e-7 + 1e-6)
        assert sd.compare_order(a, b) is sd.ProductOrder.FIRST_BELOW

    def test_out_of_range_rejected(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.05, 0.05))
        with pytest.raises(FamilyRangeError):
            sd.family_member(fam, 0.2)

    def test_class_violation_rejected(self, const_affine):
        # at tau*kappa near 1 the bump slope bound degenerates
        with pytest.raises(FamilyRangeError):
            sd.MonotoneFamily(const_affine, 20.0, (-0.2, 0.2))

    def test_kappa_positive(self, const_affine):
        with pytest.raises(FamilyRangeError):
            sd.MonotoneFamily(const_affine, -1.0, (-0.05, 0.05))


class TestSweep:
    def test_affine_family_lower_curve(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        grid = [i * 0.002 for i in range(50)]
        result = sd.sweep(fam, grid, 8, 2000, 21)
        lower = result.mu_lower
        assert all(b >= a - 1e-12 for a, b in zip(lower, lower[1:]))
        assert max(b - a for a, b in zip(lower, lower[1:])) <= 0.05
        assert all(b <= a + 1e-12 for a, b in zip(result.down_lower, result.down_lower[1:]))

    def test_no_gaps_in_continuous_family(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        grid = [i * 0.01 for i in range(11)]
        result = sd.sweep(fam, grid, 8, 4000, 22)
        assert sd.detect_gaps(result, 0.05) == []

    def test_empty_grid(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        result = sd.sweep(fam, [], 4, 400, 0)
        assert result.grid == () and result.estimates == ()

    def test_sample_count_checked_before_the_chain_pass(self, const_plateau, monkeypatch):
        passes = []
        monkeypatch.setattr(measure, "_chains", lambda products, depth: passes.append(len(products)))
        family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
        with pytest.raises(ValueError, match="sample count must be an integer >= 100, got 50"):
            sd.sweep(family, [-0.02 + 0.002 * i for i in range(21)], 10, 50, 1)
        assert passes == []

    def test_grid_must_increase(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        with pytest.raises(ValueError) as info:
            sd.sweep(fam, [0.0, 0.0], 4, 400, 0)
        assert type(info.value) is ValueError and str(info.value) == "grid must be strictly increasing"

    def test_grid_must_stay_in_the_family_range(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        with pytest.raises(FamilyRangeError, match=r"grid leaves the family range \[-0.01, 0.12\]"):
            sd.sweep(fam, [0.0, 0.13], 4, 400, 0)

    @staticmethod
    def check_curve(const_affine, monkeypatch, broken_call, name):
        # sweep accumulates up-regions, then down-regions from the right: on good regions both running
        # measures increase (so down_lower, read back to front, decreases); the broken call's decreases
        calls = []

        def curves(regions, chain):
            calls.append(len(regions))
            curve = [0.1 * i for i in range(len(regions))]
            return curve[::-1] if len(calls) == broken_call else curve

        monkeypatch.setattr(measure, "_running_union_measures", curves)
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        with pytest.raises(RuntimeError, match=f"^certified {name}-measure curve lost monotonicity$"):
            sd.sweep(fam, [0.0, 0.01, 0.02], 2, 200, 0)
        assert calls == [3, 3]

    def test_up_curve_must_not_decrease(self, const_affine, monkeypatch):
        self.check_curve(const_affine, monkeypatch, 1, "up")

    def test_down_curve_must_not_increase(self, const_affine, monkeypatch):
        self.check_curve(const_affine, monkeypatch, 2, "down")


class TestSweepChainPass:
    """A sweep runs one chain pass for its members and assembles one member's classifier at a time."""

    GRID = (-0.004, -0.002, 0.0, 0.002, 0.004)

    @staticmethod
    def family(full2, uniform_chain):
        # a fresh base: no classifier from another test
        return sd.MonotoneFamily(constant_product(full2, uniform_chain, sd.Plateau(0.5, 0.4, 0.6)), 1.0, (-0.01, 0.01))

    @staticmethod
    def spy(monkeypatch):
        passes = []
        original = measure._chains

        def counting(products, depth):
            passes.append(len(products))
            return original(products, depth)

        monkeypatch.setattr(measure, "_chains", counting)
        return passes

    def test_one_pass_gives_each_members_own_estimate(self, full2, uniform_chain, monkeypatch):
        family = self.family(full2, uniform_chain)
        passes = self.spy(monkeypatch)
        result = sd.sweep(family, self.GRID, 6, 300, 4)
        assert passes == [len(self.GRID)]
        for i, (tau, est) in enumerate(zip(self.GRID, result.estimates)):
            alone = sd.estimate_regions(sd.family_member(self.family(full2, uniform_chain), tau), 6, 300, (4, i))
            assert est == alone
            assert same_boxes(est.up_region, alone.up_region) and same_boxes(est.down_region, alone.down_region)

    def test_member_with_a_classifier_keeps_it(self, full2, uniform_chain, monkeypatch):
        family = self.family(full2, uniform_chain)
        classifier = sd.get_classifier(family.base_product, 6)
        passes = self.spy(monkeypatch)
        sd.sweep(family, self.GRID, 6, 300, 4)
        assert passes == [len(self.GRID) - 1]
        assert family.base_product._classifiers[6] is classifier
        # a second sweep at another depth runs its own pass, the base included
        sd.sweep(family, self.GRID, 5, 300, 4)
        assert passes == [len(self.GRID) - 1, len(self.GRID)]

    @staticmethod
    def record_builds(monkeypatch):
        """Weak references to the classifiers built through DriftClassifier.__init__, in build order."""
        built, init = [], DriftClassifier.__init__

        def recording_init(self, *args):
            init(self, *args)
            built.append(weakref.ref(self))

        monkeypatch.setattr(DriftClassifier, "__init__", recording_init)
        return built

    def test_one_build_per_member_without_a_classifier(self, full2, uniform_chain, monkeypatch):
        family = self.family(full2, uniform_chain)
        sd.get_classifier(family.base_product, 6)
        built = self.record_builds(monkeypatch)
        sd.sweep(family, self.GRID, 6, 300, 4)
        assert len(built) == len(self.GRID) - 1  # the base member keeps its classifier
        sd.sweep(family, self.GRID, 5, 300, 4)
        assert len(built) == 2 * len(self.GRID) - 1

    def test_one_assembled_classifier_alive_at_a_time(self, full2, uniform_chain, monkeypatch):
        family = self.family(full2, uniform_chain)
        built, alive, look_up = self.record_builds(monkeypatch), [], measure._looked_up

        def counting_look_up(*args):
            alive.append(sum(ref() is not None for ref in built))
            return look_up(*args)

        monkeypatch.setattr(measure, "_looked_up", counting_look_up)
        grid = [tau for tau in self.GRID if tau != 0.0]  # the base member keeps its classifier
        sd.sweep(family, grid, 6, 300, 4)
        assert len(built) == len(grid) and alive == [1] * len(grid)
        assert all(ref() is None for ref in built)


class TestRefineBatches:
    """The members' open points are refined in batches of consecutive members; the cap moves no estimate."""

    def test_estimates_do_not_depend_on_the_cap(self, full2, uniform_chain, monkeypatch):
        batches, refine = [], measure._refine

        def recording_refine(parts, exhaustive):
            batches[-1].append(len(parts))
            return refine(parts, exhaustive)

        monkeypatch.setattr(measure, "_refine", recording_refine)
        results = []
        for cap in (1, measure.REFINE_BATCH, 10**9):
            monkeypatch.setattr(measure, "REFINE_BATCH", cap)
            batches.append([])
            family = TestSweepChainPass.family(full2, uniform_chain)
            results.append(sd.sweep(family, TestSweepChainPass.GRID, 6, 300, 4))
        count = len(TestSweepChainPass.GRID)
        assert batches == [[1] * count, [count], [count]]  # at n = 300 the default cap holds every member
        for result in results[1:]:
            assert result == results[0]
            for est, first in zip(result.estimates, results[0].estimates):
                assert same_boxes(est.up_region, first.up_region) and same_boxes(est.down_region, first.down_region)

    def test_part_over_the_cap_is_refined_alone(self, full2, uniform_chain, monkeypatch):
        sizes, refine = [], measure._refine

        def recording_refine(parts, exhaustive):
            sizes.append([2 * len(part[2]) for part in parts])
            return refine(parts, exhaustive)

        monkeypatch.setattr(measure, "_refine", recording_refine)
        grid = TestSweepChainPass.GRID
        alone = sd.sweep(TestSweepChainPass.family(full2, uniform_chain), grid, 6, 300, 4)
        searches = [s for batch in sizes for s in batch]
        cap = sorted(searches)[len(searches) // 2]
        monkeypatch.setattr(measure, "REFINE_BATCH", cap)
        sizes.clear()
        assert sd.sweep(TestSweepChainPass.family(full2, uniform_chain), grid, 6, 300, 4) == alone
        assert [s for batch in sizes for s in batch] == searches
        assert all(len(batch) == 1 or sum(batch) <= cap for batch in sizes) and len(sizes) > 1


def synthetic_sweep(mc_values, radius=0.01):
    estimates = tuple(
        RegionEstimate(0.0, 0.0, mc, 1.0 - mc, 0.0, radius, 1000, 4, 0)
        for mc in mc_values
    )
    grid = tuple(float(i) for i in range(len(mc_values)))
    return sd.SweepResult(grid, estimates, (0.0,) * len(grid), (0.0,) * len(grid))


class TestDetectGaps:
    def test_flags_single_jump(self):
        result = synthetic_sweep([0.30, 0.31, 0.60, 0.61])
        gaps = sd.detect_gaps(result, 0.1)
        assert len(gaps) == 1
        gap = gaps[0]
        assert (gap.tau_lo, gap.tau_hi) == (1.0, 2.0)
        assert gap.lower_bound == pytest.approx(0.29 - 0.02)

    def test_negative_jumps_never_flagged(self):
        result = synthetic_sweep([0.9, 0.2, 0.85])
        gaps = sd.detect_gaps(result, 0.1)
        assert [(g.tau_lo, g.tau_hi) for g in gaps] == [(1.0, 2.0)]

    def test_eps_below_noise_rejected(self):
        result = synthetic_sweep([0.3, 0.6], radius=0.2)
        with pytest.raises(ToleranceError):
            sd.detect_gaps(result, 0.3)


class TestCsvExports:
    def test_sweep_csv_layout(self, const_affine):
        from skewdrift.measure import gaps_to_csv, mu_data_file, sweep_to_csv

        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        result = sd.sweep(fam, [0.0, 0.01], 4, 400, 9)
        text = sweep_to_csv(result, 9, 4, 400)
        lines = text.strip().split("\n")
        assert lines[0] == "# seed=9 depth=4 samples=400"
        assert lines[1].split(",")[:3] == ["tau", "certified_up", "certified_down"]
        assert len(lines) == 4
        again = sweep_to_csv(sd.sweep(fam, [0.0, 0.01], 4, 400, 9), 9, 4, 400)
        assert again == text
        assert mu_data_file(result, 9, 4, 400).startswith("# seed=9")
        assert gaps_to_csv([], 9, 4, 400).strip().split("\n")[1] == "tau_lo,tau_hi,gap_lower_bound"
