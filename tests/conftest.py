"""Shared systems and products used across the suite."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

import skewdrift as sd

FULL2 = [[1, 1], [1, 1]]
GOLDEN = [[1, 1], [1, 0]]


@pytest.fixture(scope="session")
def full2():
    return sd.TransitionSystem(np.array(FULL2))


@pytest.fixture(scope="session")
def uniform_chain(full2):
    return sd.MarkovChain(full2, np.array([[0.5, 0.5], [0.5, 0.5]]))


@pytest.fixture(scope="session")
def golden():
    return sd.TransitionSystem(np.array(GOLDEN))


@pytest.fixture(scope="session")
def golden_chain(golden):
    return sd.MarkovChain(golden, np.array([[2 / 3, 1 / 3], [1.0, 0.0]]))


def constant_product(system, chain, fmap):
    words = system.words(1)
    return sd.MultistepSkewProduct(system, chain, (0, 0), {w: fmap for w in words})


@pytest.fixture(scope="session")
def const_affine(full2, uniform_chain):
    return constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))


@pytest.fixture(scope="session")
def const_plateau(full2, uniform_chain):
    return constant_product(full2, uniform_chain, sd.Plateau(0.5, 0.4, 0.6))


@pytest.fixture(scope="session")
def two_map(full2, uniform_chain):
    return sd.MultistepSkewProduct(
        full2, uniform_chain, (0, 0), {(1,): sd.Affine(0.1, 0.8), (2,): sd.Affine(0.2, 0.7)}
    )


def multistep_affines(system, chain, base_offset=0.06, step=0.02, slope=0.75):
    words = system.words(3)
    assignment = {w: sd.Affine(base_offset + step * i, slope) for i, w in enumerate(words)}
    return sd.MultistepSkewProduct(system, chain, (1, 1), assignment)


@pytest.fixture(scope="session")
def ms_full(full2, uniform_chain):
    return multistep_affines(full2, uniform_chain)


@pytest.fixture(scope="session")
def golden_ms(golden, golden_chain):
    return multistep_affines(golden, golden_chain, base_offset=0.05, step=0.03, slope=0.8)


def wide_point(product, depth, seed, x=None):
    """Random point with enough window for classification at the given depth."""
    rng = np.random.default_rng(seed)
    l, r = product.window
    win = sd.sample_window(product.chain, -(depth + l + 1), depth + r, rng)
    return sd.LabeledPoint(win, float(rng.random()) if x is None else x)


def sampled_points(product, depth, count, seed):
    """Random points on exactly the window classification at the depth needs."""
    chain = product.chain
    l, r = product.window
    lo, hi = -(depth + l + 1), depth + r
    rng = np.random.default_rng(seed)
    for _ in range(count):
        win = sd.sample_window(chain, lo, hi, rng)
        yield sd.LabeledPoint(win, float(rng.random()))


# Word-keyed views of the array forms, in rank (lexicographic) order.


def graph_dict(graph):
    """A StepGraph as {word: value}."""
    L, R = graph.window
    return dict(zip(graph.system.words(L + R + 1), graph.values.tolist()))


def region_dict(region):
    """A BoxRegion as {word: ((lo, hi), ...)}."""
    L, R = region.window
    words = region.system.words(L + R + 1)
    out = {}
    for rank, lo, hi in zip(region.ranks.tolist(), region.lo.tolist(), region.hi.tolist()):
        out[words[rank]] = out.get(words[rank], ()) + ((lo, hi),)
    return out


def box_region(system, window, intervals):
    """A BoxRegion from {word: [(lo, hi), ...]}, boxes sorted by (rank, lo)."""
    L, R = window
    rank = {w: i for i, w in enumerate(system.words(L + R + 1))}
    boxes = sorted((rank[w], lo, hi) for w, ivs in intervals.items() for lo, hi in ivs)
    return sd.BoxRegion(system, window, *(list(zip(*boxes)) or [(), (), ()]))


# Markov bases for random regions, and the grid their box ends are drawn from.
REGION_CHAINS = (
    sd.MarkovChain(sd.TransitionSystem(np.array(FULL2)), np.array([[0.5, 0.5], [0.5, 0.5]])),
    sd.MarkovChain(sd.TransitionSystem(np.array(GOLDEN)), np.array([[2 / 3, 1 / 3], [1.0, 0.0]])),
)
REGION_ENDS = tuple(k / 10 for k in range(11))


@st.composite
def box_regions(draw, system):
    """A random BoxRegion on system: window up to (2, 2), box ends from REGION_ENDS.

    Each word pairs up a sorted draw of ends, so boxes may touch, repeat or be
    degenerate, and many words get none.
    """
    window = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    intervals = {}
    for word in system.words(window[0] + window[1] + 1):
        ends = sorted(draw(st.lists(st.sampled_from(REGION_ENDS), max_size=6)))
        intervals[word] = list(zip(ends[::2], ends[1::2]))
    return box_region(system, window, intervals)


def same_boxes(a, b):
    return a.window == b.window and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in ("ranks", "lo", "hi")
    )


def scalar_eval(f, x: float) -> float:
    """f(x) for one Python float by per-form float formulas: the reference for evaluation on arrays.

    Plateau (alone or under a bump) branches on x here; the library evaluates
    a float as a 0-d array with the array formulas.
    """
    if isinstance(f, sd.Plateau):
        if x < f.j_lo:
            return x + f.c1 * ((f.j_lo - x) * (f.j_lo - x))
        if x > f.j_hi:
            return x - f.c1 * ((x - f.j_hi) * (x - f.j_hi))
        return x
    if isinstance(f, sd.BumpComposed):
        y = scalar_eval(f.inner, x)
        return y + f.amount * y * (1.0 - y)
    return f.eval(x)


def exact_eval(f, x) -> Fraction:
    """f(x) in exact rational arithmetic, each float parameter read as the rational it is.

    The reference for the sign of f(x) - x, which float evaluation may round
    away near a fixed point. Plateau (alone or under a bump) branches on x exactly.
    """
    x = Fraction(x)
    if isinstance(f, sd.BumpComposed):
        y, amount = exact_eval(f.inner, x), Fraction(f.amount)
        return y + amount * y * (1 - y)
    p = {name: Fraction(value) for name, value in vars(f).items()}
    if isinstance(f, sd.Affine):
        return p["a"] + p["b"] * x
    if isinstance(f, sd.BumpedAffine):
        return p["a"] + p["b"] * x + p["c"] * x * (1 - x)
    if isinstance(f, sd.Plateau):
        if x < p["j_lo"]:
            return x + p["c1"] * (p["j_lo"] - x) ** 2
        if x > p["j_hi"]:
            return x - p["c1"] * (x - p["j_hi"]) ** 2
        return x
    raise TypeError(f"no exact form for {f!r}")


def merge_intervals(intervals):
    """Reference union of closed intervals: sorted disjoint ones, touching intervals coalesce."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)
