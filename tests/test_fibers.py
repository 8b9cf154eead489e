from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdrift as sd
import skewdrift.fibers as fibers
from skewdrift.fibers import EPS_ROUND, INVERT_TOL, MapStack, _indexed, _stacked
from skewdrift.measure import _bump_after

from conftest import scalar_eval

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def sample_maps():
    return [
        sd.Affine(0.1, 0.8),
        sd.Affine(0.3, 0.5),
        sd.BumpedAffine(0.1, 0.7, 0.2),
        sd.BumpedAffine(0.2, 0.6, -0.3),
        sd.Plateau(0.5, 0.4, 0.6),
        sd.Plateau(0.8, 0.3, 0.7),
        sd.BumpComposed(0.4, sd.Plateau(0.5, 0.4, 0.6)),
        sd.BumpComposed(-0.25, sd.Affine(0.1, 0.8)),
    ]


def invert_maps():
    """One map of each invertible shape: the four forms, the bump over both inner forms."""
    return [
        sd.Affine(0.1, 0.8),
        sd.BumpedAffine(0.2, 0.6, -0.3),
        sd.Plateau(0.5, 0.4, 0.6),
        sd.BumpComposed(0.4, sd.Plateau(0.5, 0.4, 0.6)),
        sd.BumpComposed(-0.25, sd.Affine(0.1, 0.8)),
    ]


FORM_KEYS = ("affine", "bumped_affine", "plateau", "bump_composed.plateau", "bump_composed.affine")


def bisection_invert(f, ys):
    """`invert` as a 60-round bisection with 0.5*(lo + hi) midpoints, then two Newton steps."""
    f0 = float(f.eval(0.0))
    f1 = float(f.eval(1.0))
    ys = np.clip(ys, f0, f1)
    lo = np.zeros_like(ys)
    hi = np.ones_like(ys)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = f.eval(mid) < ys
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(2):
        x = np.clip(x - (f.eval(x) - ys) / f.derivative(x), 0.0, 1.0)
    return x


def invert_targets(f, rng, n):
    """Values of f at uniform points, at points below 2^-7 and near 1, at tiny
    points, at both ends, and just outside the image within the tolerance."""
    xs = np.concatenate([
        rng.random(n), rng.random(n) * 2.0**-7, 1.0 - rng.random(n) * 2.0**-7,
        [0.0, 1.0, 5e-324, 1e-300, 1e-20, 1.0 - 2.0**-53],
    ])
    f0, f1 = float(f.eval(0.0)), float(f.eval(1.0))
    return np.concatenate([np.asarray(f.eval(xs)), [f0, f1, f0 - 1e-13, f1 + 1e-13]])


class TestValidateClass:
    def test_affine_inside(self):
        assert sd.validate_class(sd.Affine(0.1, 0.8)).ok

    def test_affine_escapes(self):
        check = sd.validate_class(sd.Affine(0.1, 0.95))
        assert not check and "f(1)" in check.reason

    def test_bumped_derivative_bound(self):
        # oracle: minimize b + c*(1 - 2x) over a fine grid of [0, 1]
        b, c = 0.5, 0.6
        grid_min = min(b + c * (1 - 2 * x) for x in np.linspace(0, 1, 10_001))
        assert grid_min == pytest.approx(b - abs(c), abs=1e-4)
        assert not sd.validate_class(sd.BumpedAffine(0.1, b, c))

    def test_plateau_requirements(self):
        assert sd.validate_class(sd.Plateau(0.5, 0.4, 0.6)).ok
        assert not sd.validate_class(sd.Plateau(-0.5, 0.4, 0.6))
        assert not sd.validate_class(sd.Plateau(0.5, 0.0, 0.6))
        assert not sd.validate_class(sd.Plateau(2.0, 0.4, 0.6))  # slope bound fails

    def test_all_samples_in_class(self):
        for f in sample_maps():
            assert sd.validate_class(f).ok, f


class TestEvalAndDerivative:
    def test_affine_values(self):
        f = sd.Affine(0.1, 0.8)
        assert f.eval(0.5) == pytest.approx(0.5)
        assert sd.derivative(f, 0.5) == 0.8

    def test_plateau_identity_region(self):
        f = sd.Plateau(0.5, 0.4, 0.6)
        assert f.eval(0.5) == 0.5
        assert sd.derivative(f, 0.5) == 1.0

    def test_plateau_at_zero(self):
        f = sd.Plateau(0.5, 0.4, 0.6)
        assert f.eval(0.0) == pytest.approx(0.08)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sd.derivative(sd.Affine(0.1, 0.8), 1.5)

    def test_domain_error_on_nan(self):
        f = sd.Affine(0.1, 0.8)
        for x in (float("nan"), np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match=r"argument outside \[0, 1\]"):
                sd.derivative(f, x)
            with pytest.raises(ValueError, match=r"argument outside \[0, 1\]"):
                sd.compose_along_word([f], x)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0, 1, 257)
        for f in sample_maps():
            np.testing.assert_allclose(f.eval(xs), [f.eval(float(x)) for x in xs], rtol=0, atol=0)

    def test_array_bits_equal_scalar_bits(self):
        # a float and an array must give the same bits for every form; a
        # Plateau that squared with pow on floats and by multiplication on
        # arrays differed in the last bit on a few inputs in 10^5
        plateau = sd.Plateau(0.5, 0.4, 0.6)
        maps = [
            sd.Affine(0.1, 0.8),
            sd.BumpedAffine(0.2, 0.6, -0.3),
            plateau,
            sd.BumpComposed(0.4, plateau),
            _bump_after(sd.Affine(0.1, 0.8), 0.37),
        ]
        assert type(maps[-1]) is sd.BumpedAffine
        rng = np.random.default_rng(20)
        xs = np.concatenate([[0.0, 1.0, plateau.j_lo, plateau.j_hi], rng.random(100_000)])
        for f in maps:
            scalar = np.array([scalar_eval(f, x) for x in xs.tolist()])
            assert np.array_equal(f.eval(xs).view(np.int64), scalar.view(np.int64)), f
            # a float call gives a float with the same bits
            calls = [f.eval(x) for x in xs[:1000].tolist()]
            assert all(isinstance(v, float) for v in calls), f
            assert np.array_equal(np.array(calls).view(np.int64), scalar[:1000].view(np.int64)), f

    def test_map_stack_bits_equal_scalar_bits(self):
        stack = MapStack(sample_maps())
        maps = stack.maps
        assert len(stack._forms) == 5 and sorted(maps, key=repr) == sorted(sample_maps(), key=repr)
        rng = np.random.default_rng(21)
        xs = rng.random(2000)
        scalar = np.array([[scalar_eval(f, x) for x in xs.tolist()] for f in maps])
        assert np.array_equal(stack.eval_all(xs).view(np.int64), scalar.view(np.int64))
        which = rng.integers(0, len(maps), 500)
        columns = rng.random((3, 500))
        want = np.array([[scalar_eval(maps[k], x) for k, x in zip(which.tolist(), row)] for row in columns.tolist()])
        assert np.array_equal(stack.eval_columns(which, columns).view(np.int64), want.view(np.int64))

    def test_stacked_bits_equal_per_map_bits(self):
        # each form stacked twice: parameters (k,) against an (n, k) x, and
        # parameter columns (k, 1) against a 1-d x
        rng = np.random.default_rng(22)
        xs = np.concatenate([[0.0, 1.0, 0.4, 0.6], rng.random(2000)])
        for form in FORM_KEYS:
            maps = [f for f in sample_maps() + invert_maps() if fibers._form_key(f) == form]
            stacked = _stacked(maps)
            for method in ("eval", "derivative"):
                want = np.array([getattr(f, method)(xs) for f in maps])
                rows = getattr(_indexed(stacked, (slice(None), None)), method)(xs)
                cols = getattr(stacked, method)(xs[:, None])
                assert np.array_equal(rows.view(np.int64), want.view(np.int64)), (form, method)
                assert np.array_equal(cols.T.view(np.int64), want.view(np.int64)), (form, method)

    def test_derivative_of_int_array(self):
        # the sample maps cover all four forms
        ints = np.array([0, 1])
        for f in sample_maps():
            d = sd.derivative(f, ints)
            assert d.dtype == np.float64
            np.testing.assert_array_equal(d, sd.derivative(f, ints.astype(float)))

    def test_finite_differences(self):
        # central differences on a quadratic-by-pieces map are exact up to
        # rounding; the composed forms contribute a genuine third derivative
        h = 1e-5
        rng = np.random.default_rng(0)
        for f in sample_maps():
            m3 = f.third_derivative_bound()
            joins = [f.j_lo, f.j_hi] if isinstance(f, sd.Plateau) else []
            if isinstance(f, sd.BumpComposed) and isinstance(f.inner, sd.Plateau):
                joins = [f.inner.j_lo, f.inner.j_hi]
            count = 0
            while count < 100:
                x = float(rng.uniform(2 * h, 1 - 2 * h))
                if any(abs(x - j) < 2 * h for j in joins):
                    continue
                count += 1
                fd = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
                assert abs(f.derivative(x) - fd) <= 10 * h * h * m3 + 1e-9

    def test_derivative_range_encloses(self):
        rng = np.random.default_rng(1)
        for f in sample_maps():
            for _ in range(50):
                lo, hi = sorted(rng.uniform(0, 1, 2))
                dlo, dhi = f.derivative_range(lo, hi)
                for x in rng.uniform(lo, hi, 20):
                    assert dlo - 1e-12 <= f.derivative(float(x)) <= dhi + 1e-12


class TestInvert:
    def test_affine_fixed_point(self):
        assert sd.invert(sd.Affine(0.1, 0.8), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_affine_closed_form(self):
        # oracle: x = (y - a) / b
        assert sd.invert(sd.Affine(0.1, 0.8), 0.9) == pytest.approx(1.0, abs=1e-10)

    def test_plateau_identity(self):
        assert sd.invert(sd.Plateau(0.5, 0.4, 0.6), 0.45) == pytest.approx(0.45, abs=1e-12)

    def test_range_error(self):
        with pytest.raises(ValueError):
            sd.invert(sd.Affine(0.1, 0.8), 0.95)

    def test_range_error_names_the_image(self):
        with pytest.raises(ValueError, match=r"outside the image \[0.1, 0.9"):
            sd.invert(sd.Affine(0.1, 0.8), np.array([0.5, 0.95]))
        stacked = _stacked([sd.Affine(0.1, 0.8), sd.Affine(0.3, 0.5)])
        with pytest.raises(ValueError, match=r"outside the image \[0.3, 0.8\]"):
            sd.invert(stacked, np.array([[0.5, 0.5], [0.5, 0.2]]))

    def test_bits_equal_plain_bisection(self):
        # the first 53 rounds step lo + 2^-k, which equals 0.5*(lo + hi) exactly
        rng = np.random.default_rng(23)
        for f in invert_maps():
            ys = invert_targets(f, rng, 40_000)
            assert len(ys) > 100_000
            got = sd.invert(f, ys)
            assert np.array_equal(got.view(np.int64), bisection_invert(f, ys).view(np.int64)), f
            one = sd.invert(f, float(ys[-3]))
            assert isinstance(one, float) and one == got[-3]

    def test_nan_is_outside_the_image(self):
        for f in invert_maps():
            for y in (float("nan"), np.array([0.5 * (f.eval(0.0) + f.eval(1.0)), np.nan])):
                with pytest.raises(ValueError, match="outside the image"):
                    sd.invert(f, y)
        stacked = _stacked([sd.Affine(0.1, 0.8), sd.Affine(0.3, 0.5)])
        with pytest.raises(ValueError, match=r"outside the image \[0.3, 0.8\]"):
            sd.invert(stacked, np.array([[0.5, 0.5], [0.5, np.nan]]))

    def test_empty_targets(self):
        got = sd.invert(sd.Affine(0.1, 0.8), np.array([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,)
        stacked = _stacked([sd.Affine(0.1, 0.8), sd.Affine(0.3, 0.5)])
        assert sd.invert(stacked, np.zeros((0, 2))).shape == (0, 2)

    @staticmethod
    def assert_affine_bits(f, ys):
        got = sd.invert(f, ys)
        assert np.array_equal(got.view(np.int64), bisection_invert(f, ys).view(np.int64)), f
        for k in (0, len(ys) // 2, -1):
            assert sd.invert(f, float(ys[k])) == got[k], (f, ys[k])

    @given(
        exponent=st.floats(-17.0, -0.01),
        share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_affine_bracket_bits_equal_plain_bisection(self, exponent, share, seed):
        # small slopes fail the bracket's check and take the full 53 rounds
        b = 10.0**exponent
        f = sd.Affine(share * (1.0 - b), b)
        if not f.class_check():
            return
        self.assert_affine_bits(f, invert_targets(f, np.random.default_rng(seed), 100))

    def test_affine_bracket_edges(self):
        # images of 0, 1, subnormal x and 1 - 2^-53, and the tolerance band around [f(0), f(1)]
        rng = np.random.default_rng(25)
        maps = [sd.Affine(0.1, 0.8), sd.Affine(0.3, 0.5), sd.Affine(1e-3, 0.998), sd.Affine(0.45, 1e-6),
                sd.Affine(0.45, 1e-16), sd.Affine(5e-324, 1e-320)]
        for f in maps:
            f0, f1 = float(f.eval(0.0)), float(f.eval(1.0))
            edges = [f0 - INVERT_TOL, np.nextafter(f0, 1.0), np.nextafter(f1, 0.0), f1 + INVERT_TOL]
            self.assert_affine_bits(f, np.concatenate([invert_targets(f, rng, 500), edges]))
            with pytest.raises(ValueError, match="outside the image"):
                sd.invert(f, np.nextafter(f1 + INVERT_TOL, 2.0))
        # the narrow bracket's check fails on a small slope, a tiny one and a subnormal one
        for f in maps[-3:]:
            assert fibers._affine_start(f, np.asarray(f.eval(rng.random(50)))) is None, f

    def test_stacked_affine_block_falls_back_as_a_whole(self):
        rng = np.random.default_rng(26)
        for maps, bracketed in (([sd.Affine(0.1, 0.8), sd.Affine(0.3, 0.5)], True),
                                ([sd.Affine(0.1, 0.8), sd.Affine(0.45, 1e-6)], False),
                                ([sd.Affine(0.1, 0.8), sd.Affine(0.45, 1e-16)], False)):
            ys = np.stack([invert_targets(f, rng, 300) for f in maps], axis=1)
            stacked = _stacked(maps)
            assert (fibers._affine_start(stacked, ys) is not None) == bracketed
            got = sd.invert(stacked, ys)
            for j, f in enumerate(maps):
                assert np.array_equal(got[:, j].view(np.int64), sd.invert(f, ys[:, j]).view(np.int64)), f
                assert np.array_equal(got[:, j].view(np.int64), bisection_invert(f, ys[:, j]).view(np.int64)), f

    @staticmethod
    def first_rounds(monkeypatch):
        """Spy on fibers._dyadic_rounds: the list it returns gets (is the map affine, first round) per call."""
        seen, rounds = [], fibers._dyadic_rounds

        def spy(f, ys, lo, first):
            seen.append((isinstance(f, sd.Affine), first))
            return rounds(f, ys, lo, first)

        monkeypatch.setattr(fibers, "_dyadic_rounds", spy)
        return seen

    @pytest.mark.parametrize("depth, blocks", [(4, 14), (5, 28)])
    def test_shipped_ladder_takes_the_narrow_bracket(self, monkeypatch, tmp_path, depth, blocks):
        from skewdrift.cli import run

        seen = self.first_rounds(monkeypatch)
        assert run("approx", str(CONFIGS / "continuous_geometric.json"), out=str(tmp_path), depth=depth) == 0
        assert seen == [(True, 52)] * blocks

    def test_bracket_widths_by_block_kind(self, monkeypatch):
        # the narrow bracket fails on slopes of 1e-6 and 1e-16 and on a subnormal map, and one
        # failing column sends the whole block to all 53 rounds
        rng = np.random.default_rng(28)
        narrow, small, tiny = sd.Affine(0.1, 0.8), sd.Affine(0.45, 1e-6), sd.Affine(0.45, 1e-16)
        cases = [([small], [1]), ([tiny], [1]), ([sd.Affine(5e-324, 1e-320)], [1]),
                 ([narrow, small], [1]), ([narrow, tiny], [1]), ([narrow, narrow], [52])]
        seen = self.first_rounds(monkeypatch)
        for maps, firsts in cases:
            ys = np.stack([invert_targets(f, rng, 300) for f in maps], axis=1)
            seen.clear()
            got = sd.invert(_stacked(maps), ys)
            assert len(seen) == 1 and seen[0][1] in firsts, (maps, seen)
            for j, f in enumerate(maps):
                assert np.array_equal(got[:, j].view(np.int64), bisection_invert(f, ys[:, j]).view(np.int64)), f

    def test_root_above_the_narrow_bracket(self, monkeypatch):
        # y - a and a + t (t = fl(b*J*2^-53), even) both tie and round to t, while fl(t/b) < J*2^-53:
        # J passes the test but G = J - 1, so G + 1 passes too and the block runs all 53 rounds
        f, J, unit = sd.Affine(2.0**-54, 0.7), 8526652922651484, 2.0**-53
        ys = np.array([f.b * (J * unit) + unit])
        assert np.floor((ys - f.a) / f.b * 2.0**53) == J - 1 and f.eval(J * unit) < ys
        assert fibers._affine_start(f, ys) is None
        seen = self.first_rounds(monkeypatch)
        sd.invert(f, ys)
        assert seen == [(True, 1)]
        assert fibers._dyadic_rounds(f, ys, np.zeros(1), 1)[0] >= J * unit
        self.assert_affine_bits(f, ys)

    @given(
        exponents=st.lists(st.floats(-8.0, np.log10(0.999)), min_size=1, max_size=6),
        share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_affine_bits_equal_plain_bisection(self, exponents, share, seed):
        maps = [sd.Affine(share * (1.0 - 10.0**e), 10.0**e) for e in exponents]
        maps = [f for f in maps if f.class_check()]
        if not maps:
            return
        rng = np.random.default_rng(seed)
        ys = np.stack([invert_targets(f, rng, 100) for f in maps], axis=1)
        got = sd.invert(_stacked(maps), ys)
        for j, f in enumerate(maps):
            assert np.array_equal(got[:, j].view(np.int64), bisection_invert(f, ys[:, j]).view(np.int64)), f

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "upper half"])
    def test_halvings_on_moving_rows_equal_plain_bisection(self, order):
        # rounds after the 53rd run only on the row range that can still move:
        # a prefix of ascending targets, a suffix of descending ones, most of a
        # shuffled block, and no row at all where every root is at least 0.6
        rng = np.random.default_rng(27)
        for form in FORM_KEYS:
            maps = [f for f in sample_maps() + invert_maps() if fibers._form_key(f) == form]
            if order == "upper half":
                ys = np.stack([np.asarray(f.eval(0.6 + 0.4 * rng.random(2000))) for f in maps], axis=1)
            else:
                ys = np.stack([invert_targets(f, rng, 300) for f in maps], axis=1)
                ys = {"ascending": np.sort(ys, axis=0), "descending": np.sort(ys, axis=0)[::-1],
                      "shuffled": rng.permutation(ys)}[order]
            got = sd.invert(_stacked(maps), ys)
            for j, f in enumerate(maps):
                assert np.array_equal(got[:, j].view(np.int64), bisection_invert(f, ys[:, j]).view(np.int64)), f
                one = sd.invert(f, ys[:, j])
                assert np.array_equal(one.view(np.int64), got[:, j].view(np.int64)), f
                for k in (0, len(ys) // 3, -1):
                    assert sd.invert(f, float(ys[k, j])) == got[k, j], (f, k)
                    assert sd.invert(f, np.float64(ys[k, j])) == got[k, j], (f, k)
            assert sd.invert(_stacked(maps), ys[:0]).shape == (0, len(maps))
            assert sd.invert(maps[0], ys[:0, 0]).shape == (0,)

    def test_stacked_block_with_one_column_in_the_slack(self):
        # column 0 ends on f(0), or on a target inside the INVERT_TOL slack below it, which inverts like f(0)
        # (to 2^-61) only if the block is clipped, else to 0; column 1 has targets at g(0) and below g(2^-7),
        # and a root at 0 runs all seven halvings
        rng = np.random.default_rng(31)
        for form in FORM_KEYS:
            f, g = [m for m in sample_maps() + invert_maps() if fibers._form_key(m) == form][:2]
            f0 = float(f.eval(0.0))
            low = np.concatenate([[float(g.eval(0.0))], np.asarray(g.eval(rng.random(50) * 2.0**-7))])
            for bottom in (f0, f0 - 0.5 * INVERT_TOL):
                ys = np.stack([np.append(np.asarray(f.eval(rng.random(50))), bottom), low], axis=1)
                got = sd.invert(_stacked([f, g]), ys)
                for j, m in enumerate((f, g)):
                    assert np.array_equal(got[:, j].view(np.int64), bisection_invert(m, ys[:, j]).view(np.int64)), m

    def test_stacked_equals_per_map(self):
        rng = np.random.default_rng(24)
        for form in FORM_KEYS:
            maps = [f for f in sample_maps() + invert_maps() if fibers._form_key(f) == form]
            assert len(maps) >= 2
            ys = np.stack([invert_targets(f, rng, 300) for f in maps], axis=1)
            got = sd.invert(_stacked(maps), ys)
            assert got.shape == ys.shape
            for j, f in enumerate(maps):
                assert np.array_equal(got[:, j].view(np.int64), sd.invert(f, ys[:, j]).view(np.int64)), f

    def test_round_trip_all_forms(self):
        rng = np.random.default_rng(2)
        for f in sample_maps():
            xs = rng.uniform(0, 1, 1000)
            back = sd.invert(f, np.asarray(f.eval(xs)))
            assert np.abs(back - xs).max() < 1e-10

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(4)
        for f in sample_maps():
            ys = rng.uniform(float(f.eval(0.0)), float(f.eval(1.0)), 500)
            xs = sd.invert(f, ys)
            assert np.abs(np.asarray(f.eval(xs)) - ys).max() < 1e-12

    @given(x=st.floats(0, 1), y=st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = sorted((x, y))
        if hi - lo < 1e-12:  # below float granularity of the arithmetic
            return
        for f in sample_maps():
            assert f.eval(lo) < f.eval(hi)


class TestComposeAndIntervals:
    def test_two_step_composition(self):
        maps = [sd.Affine(0.1, 0.8), sd.Affine(0.2, 0.7)]
        assert sd.compose_along_word(maps, 0.0) == pytest.approx(0.27)

    def test_empty_word_is_identity(self):
        assert sd.compose_along_word([], 0.3) == 0.3

    def test_fixed_point_composition(self):
        f = sd.Affine(0.1, 0.8)
        assert sd.compose_along_word([f, f], 0.5) == pytest.approx(0.5)

    def test_interval_image_endpoints(self):
        img = sd.interval_image(sd.Affine(0.1, 0.8), sd.RealInterval(0.0, 1.0))
        assert img.lo == pytest.approx(0.1, abs=1e-12) and img.lo < 0.1
        assert img.hi == pytest.approx(0.9, abs=1e-12) and img.hi > 0.9

    def test_degenerate_interval(self):
        f = sd.Plateau(0.5, 0.4, 0.6)
        img = sd.interval_image(f, sd.RealInterval(0.2, 0.2))
        assert img.hi - img.lo <= 2 * EPS_ROUND + 1e-15
        assert img.contains(f.eval(0.2))

    def test_plateau_fixed_interval(self):
        img = sd.interval_image(sd.Plateau(0.5, 0.4, 0.6), sd.RealInterval(0.4, 0.6))
        assert img.lo == pytest.approx(0.4, abs=1e-12)
        assert img.hi == pytest.approx(0.6, abs=1e-12)

    def test_enclosure_property(self):
        rng = np.random.default_rng(3)
        for f in sample_maps():
            for _ in range(125):
                lo, hi = sorted(rng.uniform(0, 1, 2))
                iv = sd.RealInterval(lo, hi)
                img = sd.interval_image(f, iv)
                x = float(rng.uniform(lo, hi))
                assert img.contains(float(f.eval(x)))


class TestSerialization:
    def test_round_trip(self):
        for f in sample_maps() + [sd.BumpComposed(0.1, sd.BumpComposed(-0.2, sd.BumpedAffine(0.1, 0.7, 0.2)))]:
            back = sd.map_from_json(sd.map_to_json(f))
            assert back == f

    @pytest.mark.parametrize("parameters, missing", [({"amount": 0.1, "zz": 5}, "'zz': unknown field"),
                                                     ({}, "'amount': missing required field")],
                             ids=["unknown", "missing"])
    def test_bump_composed_parameters_checked(self, parameters, missing):
        # like the plain forms: an unknown parameter is not dropped, a missing one not defaulted
        inner = sd.map_to_json(sd.Affine(0.1, 0.8))
        with pytest.raises(TypeError, match=missing):
            sd.map_from_json({"form": "bump_composed", "parameters": parameters, "inner": inner})

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            sd.map_from_json({"form": "cubic", "parameters": {}})

    @pytest.mark.parametrize("record, message", [
        ({"form": "affine", "parameters": {"a": 0.1, "b": 0.8}, "inner": 5}, "a map record 'inner': unknown field"),
        ({"form": "affine", "paramters": {"a": 0.1, "b": 0.8}}, "a map record 'paramters': unknown field"),
        ({"form": "bump_composed", "parameters": {"amount": 0.1}}, "a map record 'inner': missing required field"),
        ({"form": "plateau", "parameters": {"c1": 0.5, "j_lo": 0.4}}, "plateau parameters 'j_hi': missing required field"),
    ], ids=["inner-beside-affine", "parameters-misspelled", "bump-composed-without-inner", "parameter-missing"])
    def test_record_holds_exactly_its_keys(self, record, message):
        # the first two loaded (the inner map was ignored), the last two failed with a constructor's message
        with pytest.raises(TypeError, match=message):
            sd.map_from_json(record)
