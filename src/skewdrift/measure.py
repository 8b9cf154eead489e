"""Region measures, Monte Carlo estimates, monotone families, parameter sweeps,
and detection of jumps of the certified up-measure curve.

The Monte Carlo side uses distribution-free Hoeffding intervals at fixed 95%
confidence; unknown mass is reported, never allocated. Sweeps accumulate
certified up-boxes forward along the grid (valid because certificates replay
upward through the order), so the recorded lower curve is monotone exactly,
not just statistically.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .drift import _DOWN_CODE, _UP_CODE, DOWN, UP, VERDICTS, DriftClassifier, _chains, _refine, get_classifier
from .errors import FamilyRangeError, ToleranceError
from .fibers import Affine, BumpComposed, BumpedAffine, FiberMap
from .products import MultistepSkewProduct, ProductOrder, compare_order
from .regions import BoxRegion, region_union
from .symbolic import _at_least, _frozen, _symbols_from_uniforms

CONFIDENCE = 0.95
MIN_SAMPLES = 100  # fewest samples an estimate or a sweep takes


def hoeffding_radius(n: int) -> float:
    """Distribution-free two-sided CONFIDENCE radius for a [0,1] mean of n >= 1 samples."""
    return math.sqrt(math.log(2.0 / (1.0 - CONFIDENCE)) / (2.0 * _at_least(n, 1, "sample count")))


@dataclass(frozen=True)
class RegionEstimate:
    """Certified box measures plus Monte Carlo fractions for one product.

    mc fractions sum to 1. A sampled fraction below its certified measure by
    more than the radius is a 5%-probability event, not an error, so it is not
    checked here.
    """

    certified_up_measure: float
    certified_down_measure: float
    mc_up: float
    mc_down: float
    mc_unknown: float
    radius: float
    n_samples: int
    depth: int
    seed: object
    up_region: BoxRegion = field(compare=False, repr=False, default=None)
    down_region: BoxRegion = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.certified_up_measure + self.certified_down_measure > 1.0 + 1e-12:
            raise ValueError("certified measures exceed total mass")
        if abs(self.mc_up + self.mc_down + self.mc_unknown - 1.0) > 1e-12:
            raise ValueError("mc fractions must sum to 1")

    def to_json(self) -> dict:
        return {
            "certified_up": self.certified_up_measure,
            "certified_down": self.certified_down_measure,
            "mc_up": self.mc_up,
            "mc_down": self.mc_down,
            "mc_unknown": self.mc_unknown,
            "radius": self.radius,
            "n": self.n_samples,
            "depth": self.depth,
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
        }


def estimate_regions(product: MultistepSkewProduct, depth: int, n: int, seed) -> RegionEstimate:
    """Classify n sampled points at the given depth and measure certified boxes.

    Sampling draws a private row of uniforms per point up front, so the result
    is a pure function of the seed, an integer >= 0 or a tuple of them. A row
    holds a uniform per coordinate of required_range, then x; symbols are drawn
    (left to right) and checked only up to the last coordinate a query reads.
    n must be an integer >= MIN_SAMPLES. This is sweep's _estimates for one product.
    """
    seed = tuple(_at_least(v, 0, "seed") for v in seed) if isinstance(seed, tuple) else _at_least(seed, 0, "seed")
    return _estimates([product], _at_least(depth, 0, "search depth"), _at_least(n, MIN_SAMPLES, "sample count"), [seed])[0]


# Most searches (two per open point) one _refine batch of consecutive members holds, a larger part
# alone: parameters per search cost more than one part's broadcast ones (README, "Refinement").
REFINE_BATCH = 2**14


def _estimates(members: list, depth, n: int, seeds) -> list[RegionEstimate]:
    """Estimates at the seeds, from one chain pass over the members without a classifier; each goes after its lookup."""
    chains, looked = _chains([m for m in members if depth not in m._classifiers], depth), []
    for i, seed in enumerate(seeds):
        looked.append(_looked_up(get_classifier(members[i], depth, chains), members[i].chain, n, seed))
        members[i] = None
    counts, batches, held = [hits for hits, _, _ in looked], [], 0
    for k, (_, part, _) in enumerate(looked):
        held += 2 * len(part[2])
        if held > REFINE_BATCH or not batches:
            batches, held = batches + [[]], 2 * len(part[2])
        batches[-1].append(k)
    for batch in batches:
        for k, levels in zip(batch, _refine([looked[k][1] for k in batch], False)):
            counts[k] = counts[k] + (~np.isnan(levels)).sum(axis=1)
    return [estimate(mc_up=up / n, mc_down=down / n, mc_unknown=(n - up - down) / n)
            for (up, down), (_, _, estimate) in zip((c.tolist() for c in counts), looked)]


def _looked_up(classifier: DriftClassifier, chain, n: int, seed) -> tuple:
    """One member's Up and Down index hits, its part of open points and the rest of its estimate."""
    lo, hi = classifier.required_range()
    width = hi - lo + 1
    rng = np.random.default_rng(seed)
    uniforms = rng.random((n, width + 1))
    xs = uniforms[:, width].copy()
    symbol_rows = _symbols_from_uniforms(chain, uniforms[:, : classifier._read_hi - lo + 1])
    del uniforms  # classification needs only the symbols and xs
    codes, _, part = classifier._lookup(lo, symbol_rows, xs, False)
    up_region, down_region = classifier.certified_boxes(UP), classifier.certified_boxes(DOWN)
    estimate = functools.partial(RegionEstimate, up_region.measure(chain), down_region.measure(chain),
                                 radius=hoeffding_radius(n), n_samples=n, depth=classifier.depth, seed=seed,
                                 up_region=up_region, down_region=down_region)
    return np.bincount(codes, minlength=len(VERDICTS))[[_UP_CODE, _DOWN_CODE]], part, estimate


@dataclass(frozen=True, eq=False)
class MonotoneFamily:
    """Post-composition family: every fiber map followed by y + tau*kappa*y*(1-y).

    The bump fixes both endpoints, so class membership reduces to endpoint
    checks on the base maps, and members are strictly increasing in tau.
    """

    base_product: MultistepSkewProduct
    kappa: float
    tau_range: tuple[float, float]

    def __post_init__(self):
        if not (self.kappa > 0):
            raise FamilyRangeError(f"kappa must be positive, got {self.kappa}")
        lo, hi = self.tau_range
        if not (lo < hi):
            raise FamilyRangeError(f"need tau_min < tau_max, got {self.tau_range}")
        _frozen(self, tau_range=(float(lo), float(hi)))
        # class membership is monotone in tau, so the endpoints certify the range
        member_lo = family_member(self, lo)
        member_hi = family_member(self, hi)
        if compare_order(member_lo, member_hi) is not ProductOrder.FIRST_BELOW:
            raise FamilyRangeError("family endpoints are not certifiably ordered")


def _bump_after(fmap: FiberMap, amount: float) -> FiberMap:
    if isinstance(fmap, Affine):
        # psi o affine stays quadratic: fold into closed form
        a, b = fmap.a, fmap.b
        return BumpedAffine(
            a=a + amount * a * (1.0 - a),
            b=b + amount * b * (1.0 - 2.0 * a) - amount * b * b,
            c=amount * b * b,
        )
    return BumpComposed(amount=amount, inner=fmap)


def family_member(family: MonotoneFamily, tau: float) -> MultistepSkewProduct:
    """The product at parameter tau; tau = 0 returns the base unchanged. Words sharing a base map share its bump."""
    lo, hi = family.tau_range
    if not (lo <= tau <= hi):
        raise FamilyRangeError(f"tau = {tau} outside [{lo}, {hi}]")
    if tau == 0.0:
        return family.base_product
    base, amount = family.base_product, tau * family.kappa
    composed = {id(f): f for f in base.assignment.values()}  # each distinct map object once
    composed = {key: _bump_after(f, amount) for key, f in composed.items()}
    assignment = {word: composed[id(f)] for word, f in base.assignment.items()}
    try:
        return MultistepSkewProduct(base.base, base.chain, base.window, assignment)
    except ValueError as exc:  # the product class-checks each composed map at its first word
        raise FamilyRangeError(f"member at tau = {tau}: {exc}") from exc


@dataclass(frozen=True)
class GapInterval:
    tau_lo: float
    tau_hi: float
    lower_bound: float


@dataclass(frozen=True)
class SweepResult:
    """Per-parameter estimates along a grid, with monotone certified curves.

    mu_lower accumulates certified up-boxes left to right (down_lower right to
    left), so it is non-decreasing exactly when the depth is fixed.
    """

    grid: tuple[float, ...]
    estimates: tuple[RegionEstimate, ...]
    mu_lower: tuple[float, ...]
    down_lower: tuple[float, ...]

    @property
    def mu_mc(self) -> tuple[float, ...]:
        return tuple(e.mc_up for e in self.estimates)


def _running_union_measures(regions: list[BoxRegion], chain) -> list[float]:
    """Measure of the union of regions[0..i], for each i."""
    return [u.measure(chain) for u in itertools.accumulate(regions, region_union)]


def _grid_problem(grid: list[float], tau_range: tuple[float, float]) -> ValueError | None:
    """The error sweep raises for a grid that is not strictly increasing or leaves tau_range, or None."""
    lo, hi = tau_range
    if any(a >= b for a, b in zip(grid, grid[1:])):
        return ValueError("grid must be strictly increasing")
    if grid and not (lo <= grid[0] and grid[-1] <= hi):
        return FamilyRangeError(f"grid leaves the family range [{lo}, {hi}]")
    return None


def sweep(
    family: MonotoneFamily, grid, depth: int, n: int, seed: int
) -> SweepResult:
    """Estimate regions along an increasing grid of parameters.

    Per-parameter randomness derives from (seed, grid index). Certified
    up-boxes accumulate forward (down-boxes backward): boxes certified at a
    smaller parameter remain valid at larger ones, which makes the recorded
    lower curves monotone by construction. A member without a classifier at
    the depth gets one built from its share of one chain pass over all such
    members just before its lookup (see _estimates); the open points of
    consecutive members are refined in lockstep batches.
    """
    grid = [float(t) for t in grid]
    problem = _grid_problem(grid, family.tau_range)
    if problem:
        raise problem
    chain = family.base_product.chain
    n, depth, seed = _at_least(n, MIN_SAMPLES, "sample count"), _at_least(depth, 0, "search depth"), _at_least(seed, 0, "seed")
    members = [family_member(family, tau) for tau in grid]
    estimates = _estimates(members, depth, n, [(seed, i) for i in range(len(grid))])
    mu_lower = _running_union_measures([e.up_region for e in estimates], chain)
    down_lower = _running_union_measures([e.down_region for e in reversed(estimates)], chain)[::-1]
    # negation is exact, so b < a - 1e-12 on -down_lower is b > a + 1e-12 on down_lower
    for name, curve in (("up", mu_lower), ("down", [-v for v in down_lower])):
        if any(b < a - 1e-12 for a, b in zip(curve, curve[1:])):
            raise RuntimeError(f"certified {name}-measure curve lost monotonicity")
    return SweepResult(tuple(grid), tuple(estimates), tuple(mu_lower), tuple(down_lower))


def _gap_tolerance_problem(eps: float, n: int, radius: float) -> str | None:
    """Why eps cannot separate a jump from noise at n samples of confidence radius radius, or None.

    eps must exceed twice the radius. The message names the smallest sample
    count whose Hoeffding radius would resolve eps, if one does.
    """
    if eps > 2.0 * radius:
        return None
    fix = "no sample count resolves it"
    need = 2.0 * math.log(2.0 / (1.0 - CONFIDENCE)) / eps / eps if eps > 0.0 else math.inf  # eps = 2r(need)
    if math.isfinite(need):
        need = max(1, math.floor(need) - 1)
        while not eps > 2.0 * hoeffding_radius(need):
            need += 1
        fix = f"n >= {need} resolves it"
    return f"eps = {eps} must exceed twice the confidence radius {radius} of n = {n} samples; {fix}"


def detect_gaps(result: SweepResult, eps: float) -> list[GapInterval]:
    """Flag grid pairs where the sampled up-measure jumps beyond noise.

    A flagged pair localizes a parameter whose unknown/anchored mass is at
    least the reported lower bound (jump minus the statistical allowance).
    Only positive jumps are reported.
    """
    if not result.estimates:
        return []
    worst = max(result.estimates, key=lambda e: e.radius)
    problem = _gap_tolerance_problem(eps, worst.n_samples, worst.radius)
    if problem:
        raise ToleranceError(problem)
    gaps = []
    mc = result.mu_mc
    for i in range(len(result.grid) - 1):
        allowance = result.estimates[i].radius + result.estimates[i + 1].radius
        jump = mc[i + 1] - mc[i]
        if jump > eps + allowance:
            gaps.append(GapInterval(result.grid[i], result.grid[i + 1], jump - allowance))
    return gaps


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _table(seed: int, depth: int, n: int, columns: str, rows, sep: str = ",") -> str:
    """A table artifact: the run line, the column line, then each row's fields joined by sep."""
    lines = [f"# seed={seed} depth={depth} samples={n}", columns, *(sep.join(row) for row in rows)]
    return "\n".join(lines) + "\n"


def sweep_to_csv(result: SweepResult, seed: int, depth: int, n: int) -> str:
    """Fixed 17-significant-digit CSV; reruns with the same seed are byte-identical."""
    columns = "tau,certified_up,certified_down,mc_up,mc_down,mc_unknown,radius,n,depth,seed"
    rows = (
        [_fmt(tau), _fmt(up_lo), _fmt(down_lo), _fmt(est.mc_up), _fmt(est.mc_down), _fmt(est.mc_unknown),
         _fmt(est.radius), str(est.n_samples), str(est.depth), str(seed)]
        for tau, est, up_lo, down_lo in zip(result.grid, result.estimates, result.mu_lower, result.down_lower)
    )
    return _table(seed, depth, n, columns, rows)


def gaps_to_csv(gaps, seed: int, depth: int, n: int) -> str:
    rows = ([_fmt(gap.tau_lo), _fmt(gap.tau_hi), _fmt(gap.lower_bound)] for gap in gaps)
    return _table(seed, depth, n, "tau_lo,tau_hi,gap_lower_bound", rows)


def mu_data_file(result: SweepResult, seed: int, depth: int, n: int) -> str:
    """Plot-ready whitespace table of the sampled and certified up-measure curves."""
    rows = (map(_fmt, row) for row in zip(result.grid, result.mu_mc, result.mu_lower))
    return _table(seed, depth, n, "# tau mu_mc mu_lower", rows, sep=" ")
