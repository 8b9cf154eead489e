import math

import numpy as np
import pytest

import skewdrift as sd
from skewdrift.drift import DriftClassifier
from skewdrift.errors import FamilyRangeError, InvalidRegionError, ToleranceError
from skewdrift.measure import RegionEstimate

from conftest import constant_product


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
            L, _R = region.window
            boxes = [
                (sd.SymbolWindow(-L, word), sd.RealInterval(lo, hi))
                for word, ivs in region.intervals.items()
                for lo, hi in ivs
            ]
            assert region.measure(golden_ms.chain) == sd.measure_boxes(golden_ms.chain, boxes)

    @pytest.mark.parametrize("interval", [(-0.1, 0.2), (0.5, 1.2), (0.6, 0.4)])
    def test_region_intervals_must_lie_in_unit_interval(self, full2, interval):
        with pytest.raises(InvalidRegionError, match="not an interval"):
            sd.BoxRegion(full2, (0, 0), {(1,): (interval,)})

    def test_region_union_measure(self, full2, uniform_chain):
        a = sd.BoxRegion(full2, (0, 0), {(1,): ((0.1, 0.3),), (2,): ((0.2, 0.4),)})
        b = sd.BoxRegion(full2, (0, 0), {(1,): ((0.25, 0.5),)})
        u = sd.region_union(a, b)
        assert u.measure(uniform_chain) == pytest.approx(0.5 * 0.4 + 0.5 * 0.2)


class TestHoeffding:
    def test_radius_at_100(self):
        assert sd.hoeffding_radius(100) == pytest.approx(math.sqrt(math.log(40) / 200))
        assert sd.hoeffding_radius(100) == pytest.approx(0.1358, abs=2e-4)


class TestEstimateRegions:
    def test_deterministic_given_seed(self, const_affine):
        a = sd.estimate_regions(const_affine, 4, 500, 123)
        b = sd.estimate_regions(const_affine, 4, 500, 123)
        assert a == b
        assert a.up_region.same_boxes(b.up_region)

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

    def test_grid_must_increase(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.01, 0.12))
        with pytest.raises(ValueError):
            sd.sweep(fam, [0.0, 0.0], 4, 400, 0)


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
