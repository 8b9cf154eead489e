"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the heavy plateau sweep is shared between the gap criteria.
"""

import time

import numpy as np
import pytest

import skewdrift as sd
from skewdrift.drift import DOWN, UP

from conftest import constant_product, multistep_affines, sampled_points


def report(number: int, label: str, ok: bool, detail: str, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number} ({label}): {detail} [{time.time() - started:.1f}s]")
    assert ok, f"criterion {number} ({label}): {detail}"


@pytest.fixture(scope="module")
def plateau_sweep(const_plateau):
    family = sd.MonotoneFamily(const_plateau, 1.0, (-0.025, 0.025))
    grid = [(i - 10) * 0.002 for i in range(21)]
    started = time.time()
    result = sd.sweep(family, grid, 10, 100_000, 7)
    print(f"\n[setup] plateau sweep, 21 parameters, n=100000, depth 10: {time.time() - started:.1f}s")
    return result


def test_criterion_01_disjointness(const_affine, const_plateau, two_map, ms_full, golden_ms):
    started = time.time()
    systems = [const_affine, const_plateau, two_map, ms_full, golden_ms]
    depth = 6
    double = 0
    total = 0
    for k, product in enumerate(systems):
        classifier = sd.get_classifier(product, depth)
        for point in sampled_points(product, depth, 2000, seed=100 + k):
            up_cert, down_cert = classifier.search_certificates(point)
            total += 1
            double += up_cert is not None and down_cert is not None
    report(1, "disjointness", double == 0,
           f"{total} points over {len(systems)} systems, {double} double certificates", started)


def test_criterion_02_order_monotonicity(full2, uniform_chain, two_map, ms_full):
    started = time.time()
    pairs = [
        (
            constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8)),
            constant_product(full2, uniform_chain, sd.Affine(0.15, 0.8)),
        ),
        (
            two_map,
            sd.MultistepSkewProduct(
                full2, uniform_chain, (0, 0),
                {(1,): sd.Affine(0.14, 0.8), (2,): sd.Affine(0.24, 0.7)},
            ),
        ),
        (ms_full, multistep_affines(full2, uniform_chain, base_offset=0.09)),
    ]
    depth = 5
    up_total = up_ok = down_total = down_ok = 0
    for k, (low, high) in enumerate(pairs):
        assert sd.compare_order(low, high) is sd.ProductOrder.FIRST_BELOW
        for point in sampled_points(low, depth, 150, seed=200 + k):
            result = sd.classify_point(low, point, depth)
            if result.verdict == UP:
                up_total += 1
                up_ok += sd.replay_certificate(high, result.witness, point).ok
        for point in sampled_points(high, depth, 150, seed=300 + k):
            result = sd.classify_point(high, point, depth)
            if result.verdict == DOWN:
                down_total += 1
                down_ok += sd.replay_certificate(low, result.witness, point).ok
    ok = up_total > 50 and down_total > 50 and up_ok == up_total and down_ok == down_total
    report(2, "order monotonicity", ok,
           f"up replays {up_ok}/{up_total}, down replays {down_ok}/{down_total} over 3 pairs", started)


def test_criterion_03_contraction_baseline(const_affine):
    started = time.time()
    est = sd.estimate_regions(const_affine, 8, 100_000, 2026)
    ok = (
        0.48 <= est.mc_up <= 0.52
        and 0.48 <= est.mc_down <= 0.52
        and est.certified_up_measure >= 0.40
    )
    report(3, "contraction baseline", ok,
           f"mc_up={est.mc_up:.4f}, mc_down={est.mc_down:.4f}, "
           f"certified_up={est.certified_up_measure:.4f} (>= 0.40)", started)


def test_criterion_04_gap_reproduction(plateau_sweep):
    started = time.time()
    gaps = sd.detect_gaps(plateau_sweep, 0.05)
    ok = (
        len(gaps) == 1
        and gaps[0].tau_lo <= 0.0 <= gaps[0].tau_hi
        and gaps[0].lower_bound >= 0.15
    )
    detail = ", ".join(
        f"[{g.tau_lo:+.3f}, {g.tau_hi:+.3f}] bound {g.lower_bound:.3f}" for g in gaps
    ) or "no gaps"
    report(4, "gap reproduction", ok, f"{len(gaps)} gap interval(s): {detail}", started)


def test_criterion_05_finiteness_per_eps(plateau_sweep):
    started = time.time()
    gaps = sd.detect_gaps(plateau_sweep, 0.05)
    flagged = set()
    for gap in gaps:
        flagged.add(gap.tau_lo)
        flagged.add(gap.tau_hi)
    worst = 0.0
    for tau, est in zip(plateau_sweep.grid, plateau_sweep.estimates):
        if tau in flagged:
            continue
        worst = max(worst, est.mc_unknown + est.radius)
    report(5, "finiteness per eps", worst < 0.15,
           f"max unknown+radius over non-flagged parameters = {worst:.4f} (< 0.15)", started)


def test_criterion_06_periodic_orbit_oracle(golden_ms, golden):
    started = time.time()
    rng = np.random.default_rng(600)
    violations = 0
    checks = 0
    for length in range(1, 6):
        for word in sd.periodic_words(golden, length):
            for x in rng.random(100):
                result = sd.periodic_consistency(golden_ms, word, float(x), 5)
                checks += 1
                violations += not result.consistent
    report(6, "periodic orbit oracle", violations == 0,
           f"{checks} checks over all periodic words of length <= 5, {violations} violations", started)


def test_criterion_07_coverage_union(full2, uniform_chain, const_affine):
    started = time.time()
    low = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))
    high = constant_product(full2, uniform_chain, sd.Affine(0.15, 0.8))
    assert sd.compare_order(low, high) is sd.ProductOrder.FIRST_BELOW
    depth = 12

    def union_measure(down_product, up_product):
        _up, down = sd.certified_regions(down_product, depth)
        up, _down = sd.certified_regions(up_product, depth)
        union = sd.region_union(down, up)
        return union.measure(uniform_chain)

    pair_measure = union_measure(low, high)
    family = sd.MonotoneFamily(const_affine, 1.0, (-0.05, 0.05))
    family_measure = union_measure(
        sd.family_member(family, 0.0), sd.family_member(family, 0.01)
    )
    ok = pair_measure >= 0.95 and family_measure >= 0.95
    report(7, "coverage union", ok,
           f"pair union {pair_measure:.4f}, family union {family_measure:.4f} (>= 0.95)", started)


def test_criterion_08_approximation_ladder(full2, uniform_chain):
    started = time.time()
    rho = np.array([[0.01, -0.01], [0.006, -0.006]])
    spec = sd.ContinuousProductSpec(
        full2, uniform_chain, "affine", "a",
        ({"a": 0.10, "b": 0.8}, {"a": 0.12, "b": 0.8}), rho,
    )
    approx = {m: sd.multistep_approximation(spec, m) for m in range(2, 6)}
    dists = [sd.distance(approx[m], approx[m + 1]) for m in (2, 3, 4)]
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    ok = all(0.3 <= r <= 0.7 for r in ratios) and all(d > 0 for d in dists)
    report(8, "approximation ladder", ok,
           "distances " + ", ".join(f"{d:.6f}" for d in dists)
           + "; ratios " + ", ".join(f"{r:.3f}" for r in ratios), started)


def test_criterion_09_family_independence(const_affine):
    started = time.time()
    h = 0.005
    mus = []
    radii = []
    for kappa, seed in ((1.0, 901), (2.0, 902)):
        family = sd.MonotoneFamily(const_affine, kappa, (-0.01, 0.05))
        est = sd.estimate_regions(sd.family_member(family, h), 8, 100_000, seed)
        mus.append(est.mc_up)
        radii.append(est.radius)
    diff = abs(mus[0] - mus[1])
    allowance = 2.0 * (radii[0] + radii[1])
    report(9, "family independence", diff <= allowance,
           f"mu(kappa=1)={mus[0]:.4f}, mu(kappa=2)={mus[1]:.4f}, "
           f"|diff|={diff:.4f} <= {allowance:.4f}", started)


def test_criterion_10_unit_invariants(golden_chain, uniform_chain):
    started = time.time()
    failures = []

    # metric axioms
    rng = np.random.default_rng(1000)
    for _ in range(300):
        a = sd.sample_window(uniform_chain, -3, 3, rng)
        b = sd.sample_window(uniform_chain, -3, 3, rng)
        if sd.metric(a, b).value != sd.metric(b, a).value or sd.metric(a, a).value != 0.0:
            failures.append("metric axioms")
            break

    # cylinder additivity at 1e-12
    for length in range(1, 5):
        for word in golden_chain.base.words(length):
            total = sum(
                sd.cylinder_measure(golden_chain, sd.SymbolWindow(0, word + (s,)))
                for s in golden_chain.base.successors(word[-1])
            )
            if abs(total - sd.cylinder_measure(golden_chain, sd.SymbolWindow(0, word))) > 1e-12:
                failures.append("cylinder additivity")

    # stationary residuals at 1e-10
    for P in ([[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.5, 0.5]], [[2 / 3, 1 / 3], [1.0, 0.0]]):
        pi = sd.stationary_distribution(P)
        if np.abs(pi @ np.asarray(P) - pi).max() >= 1e-10:
            failures.append("stationary residual")

    maps = [
        sd.Affine(0.1, 0.8),
        sd.BumpedAffine(0.1, 0.7, 0.2),
        sd.Plateau(0.5, 0.4, 0.6),
        sd.BumpComposed(0.3, sd.Plateau(0.5, 0.4, 0.6)),
    ]

    # round-trip inversion at 1e-10, 10^3 points per form
    for f in maps:
        xs = rng.uniform(0, 1, 1000)
        if np.abs(sd.invert(f, np.asarray(f.eval(xs))) - xs).max() >= 1e-10:
            failures.append(f"round trip {f.form}")

    # interval enclosure, 10^3 triples
    for _ in range(1000):
        f = maps[rng.integers(len(maps))]
        lo, hi = sorted(rng.uniform(0, 1, 2))
        x = float(rng.uniform(lo, hi))
        if not sd.interval_image(f, sd.RealInterval(lo, hi)).contains(float(f.eval(x))):
            failures.append("enclosure")
            break

    # derivative vs central differences at 10 h^2 M3 (plus rounding floor)
    h = 1e-5
    for f in maps:
        joins = []
        inner = f.inner if isinstance(f, sd.BumpComposed) else f
        if isinstance(inner, sd.Plateau):
            joins = [inner.j_lo, inner.j_hi]
        bound = 10 * h * h * f.third_derivative_bound() + 1e-9
        checked = 0
        while checked < 100:
            x = float(rng.uniform(2 * h, 1 - 2 * h))
            if any(abs(x - j) < 2 * h for j in joins):
                continue
            checked += 1
            fd = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
            if abs(f.derivative(x) - fd) > bound:
                failures.append(f"finite differences {f.form}")
                break

    report(10, "unit invariants", not failures,
           "all invariant groups hold" if not failures else f"failing: {sorted(set(failures))}",
           started)
