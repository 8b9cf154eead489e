import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdrift as sd
import skewdrift.products as products
from skewdrift.cli import _product_text
from skewdrift.config import load_config
from skewdrift.errors import (
    IncompatibleProductsError,
    InvalidApproximationError,
    ResourceBoundError,
    WindowTooShortError,
)

from conftest import constant_product

CONTINUOUS_GEOMETRIC = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "continuous_geometric.json"


def geometric_spec(full2, uniform_chain, scale=0.01):
    rho = np.array([[scale, -scale], [0.6 * scale, -0.6 * scale]])
    return sd.ContinuousProductSpec(
        full2, uniform_chain, "affine", "a",
        ({"a": 0.10, "b": 0.8}, {"a": 0.12, "b": 0.8}), rho,
    )


def signed_zero_spec(full2, uniform_chain):
    """A spec where one word's designated value sums to -0.0 and the others to 0.0."""
    return sd.ContinuousProductSpec(
        full2, uniform_chain, "bumped_affine", "c",
        ({"a": 0.1, "b": 0.8, "c": -0.0}, {"a": 0.12, "b": 0.8, "c": 0.0}),
        np.array([[0.0, -0.0], [0.0, 0.0]]),
    )


# the 3-symbol shift without repeated symbols, which is not a full shift
THREE_SYMBOL = sd.TransitionSystem(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
THREE_SYMBOL_CHAIN = sd.MarkovChain(THREE_SYMBOL, np.array([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]))


def three_symbol_spec(seed):
    rho = np.random.default_rng(seed).uniform(-0.01, 0.01, (3, 3))
    return sd.ContinuousProductSpec(
        THREE_SYMBOL, THREE_SYMBOL_CHAIN, "affine", "a",
        ({"a": 0.10, "b": 0.8}, {"a": 0.12, "b": 0.7}, {"a": 0.2, "b": 0.6}), rho,
    )


def random_spec(full2, uniform_chain, seed, offset=0.0):
    rho = np.random.default_rng(seed).uniform(-0.01, 0.01, (2, 2))
    return sd.ContinuousProductSpec(
        full2, uniform_chain, "affine", "a",
        ({"a": 0.10 + offset, "b": 0.8}, {"a": 0.12 + offset, "b": 0.8}), rho,
    )


@pytest.fixture(scope="module")
def shipped_ladder():
    spec = load_config(str(CONTINUOUS_GEOMETRIC), {}).continuous
    return {m: sd.multistep_approximation(spec, m) for m in range(2, 6)}


def map_at(product, word, window):
    """The map of a word given on a window containing the product's, by slicing the word."""
    start = window[0] - product.window[0]
    return product.assignment[word[start : start + product.window[0] + product.window[1] + 1]]


def word_pairs(F, G):
    """The (f, g) pair of every word on the common window, in word order."""
    window = (max(F.window[0], G.window[0]), max(F.window[1], G.window[1]))
    return [(map_at(F, w, window), map_at(G, w, window)) for w in F.base.words(window[0] + window[1] + 1)]


def reference_pad(product, window):
    """`pad_to_window` by slicing every word of the wider window."""
    words = product.base.words(window[0] + window[1] + 1)
    return sd.MultistepSkewProduct(product.base, product.chain, window, {w: map_at(product, w, window) for w in words})


def reference_distance(F, G):
    """`distance` with its per-word body run on every word, without dedup."""
    grid = np.linspace(0.0, 1.0, 1025)
    best = 0.0
    for f, g in word_pairs(F, G):
        fv = np.asarray(f.eval(grid), dtype=float)
        gv = np.asarray(g.eval(grid), dtype=float)
        d = float(np.abs(fv - gv).max())
        d = max(d, float(np.abs(np.asarray(f.derivative(grid)) - np.asarray(g.derivative(grid))).max()))
        y_lo = max(fv[0], gv[0])
        y_hi = min(fv[-1], gv[-1])
        if y_lo < y_hi:
            ys = np.linspace(y_lo, y_hi, 1025)
            xf = sd.invert(f, ys)
            xg = sd.invert(g, ys)
            d = max(d, float(np.abs(xf - xg).max()))
            d = max(
                d,
                float(np.abs(1.0 / np.asarray(f.derivative(xf)) - 1.0 / np.asarray(g.derivative(xg))).max()),
            )
        best = max(best, d)
    return best


def reference_maps(spec, m):
    """Each word's approximant map, built fresh from a per-word sum of the series."""
    assignment = {}
    for word in spec.base.words(2 * m + 1):
        s = word[m]
        value = spec.symbol_params[s - 1][spec.designated]
        for j in range(1, m + 1):
            value += 2.0 ** (-j) * (spec.rho[s - 1][word[m - j] - 1] + spec.rho[s - 1][word[m + j] - 1])
        value += 2.0 ** (1 - m) * spec.tail_midrange(s)
        assignment[word] = spec.make_map(s, value)
    return assignment


def reference_approximation(spec, m):
    """`multistep_approximation` with a fresh map built per word."""
    return sd.MultistepSkewProduct(spec.base, spec.chain, (m, m), reference_maps(spec, m))


def value_copy(product):
    """The same product with every word holding its own value-equal map object."""
    assignment = {w: sd.map_from_json(sd.map_to_json(f)) for w, f in product.assignment.items()}
    return sd.MultistepSkewProduct(product.base, product.chain, product.window, assignment)


class TestConstruction:
    def test_missing_word_rejected(self, full2, uniform_chain):
        with pytest.raises(ValueError, match="missing"):
            sd.MultistepSkewProduct(full2, uniform_chain, (0, 0), {(1,): sd.Affine(0.1, 0.8)})

    def test_out_of_class_map_rejected(self, full2, uniform_chain):
        f = sd.Affine(0.2, 0.8)  # f(1) = 1.0 touches the boundary
        with pytest.raises(ValueError, match="f\\(1\\)"):
            constant_product(full2, uniform_chain, f)

    def test_shared_map_error_names_its_first_word(self, full2, uniform_chain, monkeypatch):
        good, bad, worse = sd.Affine(0.1, 0.8), sd.Affine(0.2, 0.8), sd.Affine(0.3, 0.8)
        words = full2.words(2)
        calls = []
        validate = products.validate_class
        monkeypatch.setattr(products, "validate_class", lambda f: calls.append(f) or validate(f))
        for maps in ((good, bad, worse, bad), (good, worse, bad, bad), (bad, good, worse, bad), (good, good, good, bad)):
            first = next(w for w, f in zip(words, maps) if not validate(f))
            reason = validate(dict(zip(words, maps))[first]).reason
            with pytest.raises(ValueError) as err:
                sd.MultistepSkewProduct(full2, uniform_chain, (1, 0), dict(zip(words, maps)))
            assert str(err.value) == f"fiber map for word {first}: {reason}"
        # each distinct map object is validated once; a value-equal copy is another object
        calls.clear()
        sd.MultistepSkewProduct(full2, uniform_chain, (1, 0), dict(zip(words, (good, sd.Affine(0.1, 0.8), good, good))))
        assert len(calls) == 2 and calls[0] is good

    def test_window_cap(self, full2, uniform_chain):
        with pytest.raises(ResourceBoundError):
            sd.MultistepSkewProduct(full2, uniform_chain, (6, 6), {})

    def test_json_round_trip(self, two_map, full2, uniform_chain):
        back = sd.MultistepSkewProduct.from_json(full2, uniform_chain, two_map.to_json())
        assert back.window == two_map.window
        assert back.assignment == two_map.assignment
        assert back.fingerprint() == two_map.fingerprint()


class TestIterate:
    def test_fixed_point_constant_system(self, const_affine):
        p = sd.LabeledPoint(sd.SymbolWindow(-3, (1, 2, 1, 1, 2, 1, 1, 2, 1, 2)), 0.5)
        out = sd.iterate(const_affine, p, 7)
        assert out.x == pytest.approx(0.5)
        assert out.window.offset == -10

    def test_two_map_two_steps(self, two_map):
        p = sd.LabeledPoint(sd.SymbolWindow(-1, (1, 1, 2, 1)), 0.0)
        out = sd.iterate(two_map, p, 2)
        assert out.x == pytest.approx(0.27)

    def test_window_too_short(self, two_map):
        p = sd.LabeledPoint(sd.SymbolWindow(0, (1, 2)), 0.0)
        with pytest.raises(WindowTooShortError):
            sd.iterate(two_map, p, 3)

    @given(a=st.integers(1, 3), b=st.integers(1, 3), seed=st.integers(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_semigroup_property(self, two_map, a, b, seed):
        rng = np.random.default_rng(seed)
        win = sd.sample_window(two_map.chain, -1, a + b + 1, rng)
        p = sd.LabeledPoint(win, float(rng.random()))
        combined = sd.iterate(two_map, p, a + b)
        stepped = sd.iterate(two_map, sd.iterate(two_map, p, a), b)
        assert combined.x == pytest.approx(stepped.x, abs=1e-14)
        assert combined.window == stepped.window


class TestCompareOrder:
    def test_offset_pair(self, full2, uniform_chain):
        F = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))
        G = constant_product(full2, uniform_chain, sd.Affine(0.15, 0.8))
        assert sd.compare_order(F, G) is sd.ProductOrder.FIRST_BELOW
        assert sd.compare_order(G, F) is sd.ProductOrder.SECOND_BELOW

    def test_self_comparison_incomparable(self, const_affine):
        assert sd.compare_order(const_affine, const_affine) is sd.ProductOrder.INCOMPARABLE

    def test_crossing_pair_incomparable(self, full2, uniform_chain):
        # word 1: strictly below everywhere; word 2: the difference crosses zero
        F = sd.MultistepSkewProduct(
            full2, uniform_chain, (0, 0),
            {(1,): sd.Affine(0.1, 0.5), (2,): sd.Affine(0.3, 0.5)},
        )
        G = sd.MultistepSkewProduct(
            full2, uniform_chain, (0, 0),
            {(1,): sd.Affine(0.15, 0.5), (2,): sd.Affine(0.25, 0.62)},
        )
        d = np.linspace(0, 1, 101)
        crosses = ((0.3 + 0.5 * d) - (0.25 + 0.62 * d))
        assert (crosses > 0).any() and (crosses < 0).any()
        assert sd.compare_order(F, G) is sd.ProductOrder.INCOMPARABLE

    def test_window_mismatch(self, const_affine, ms_full):
        with pytest.raises(IncompatibleProductsError):
            sd.compare_order(const_affine, ms_full)

    def test_base_mismatch(self, ms_full, golden_ms):
        with pytest.raises(IncompatibleProductsError):
            sd.compare_order(ms_full, golden_ms)
        with pytest.raises(IncompatibleProductsError):
            sd.distance(ms_full, golden_ms)

    def test_padding_enables_comparison(self, full2, uniform_chain, ms_full):
        low = constant_product(full2, uniform_chain, sd.Affine(0.02, 0.75))
        padded = sd.pad_to_window(low, ms_full.window)
        assert sd.compare_order(padded, ms_full) is sd.ProductOrder.FIRST_BELOW

    def test_transitivity_on_family(self, const_affine):
        fam = sd.MonotoneFamily(const_affine, 1.0, (-0.05, 0.2))
        members = [sd.family_member(fam, t) for t in (0.0, 0.05, 0.1)]
        assert sd.compare_order(members[0], members[1]) is sd.ProductOrder.FIRST_BELOW
        assert sd.compare_order(members[1], members[2]) is sd.ProductOrder.FIRST_BELOW
        assert sd.compare_order(members[0], members[2]) is sd.ProductOrder.FIRST_BELOW

    def test_order_implies_positive_distance(self, full2, uniform_chain):
        F = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.8))
        G = constant_product(full2, uniform_chain, sd.Affine(0.15, 0.8))
        assert sd.compare_order(F, G) is sd.ProductOrder.FIRST_BELOW
        assert sd.distance(F, G) > 0


class TestDistance:
    def test_self_distance_zero(self, const_affine):
        assert sd.distance(const_affine, const_affine) == 0.0

    def test_offset_pair_closed_form(self, full2, uniform_chain):
        # oracle: all four sup terms in closed form for a + b*x vs a' + b*x:
        # |f-g| = da, |f'-g'| = 0, |f^-1-g^-1| = da/b on the common range
        F = constant_product(full2, uniform_chain, sd.Affine(0.1, 0.75))
        G = constant_product(full2, uniform_chain, sd.Affine(0.2, 0.75))
        expected = 0.1 / 0.75
        d = sd.distance(F, G)
        assert expected - 1e-9 <= d <= expected + 1e-4

    def test_symmetry(self, two_map, full2, uniform_chain):
        other = constant_product(full2, uniform_chain, sd.Affine(0.12, 0.8))
        assert sd.distance(two_map, other) == sd.distance(other, two_map)


class TestDistanceByValue:
    @pytest.mark.parametrize("m", [2, 3])
    def test_shipped_rungs_equal_reference(self, shipped_ladder, m):
        F, G = shipped_ladder[m], shipped_ladder[m + 1]
        assert sd.distance(F, G) == reference_distance(F, G)

    @pytest.mark.parametrize("seed", [3, 29])
    def test_random_specs_equal_reference(self, full2, uniform_chain, seed):
        spec = random_spec(full2, uniform_chain, seed)
        F, G = sd.multistep_approximation(spec, 2), sd.multistep_approximation(spec, 3)
        assert sd.distance(F, G) == reference_distance(F, G)

    def test_value_equal_copies(self, full2, uniform_chain, shipped_ladder):
        F, G = shipped_ladder[2], shipped_ladder[3]
        assert len({id(f) for f in value_copy(G).assignment.values()}) == len(G.assignment)
        assert sd.distance(value_copy(F), value_copy(G)) == sd.distance(F, G)
        low = sd.pad_to_window(F, G.window)
        high = sd.multistep_approximation(random_spec(full2, uniform_chain, 3, offset=0.05), 3)
        for P, Q in ((low, G), (low, high), (high, low)):
            assert sd.compare_order(value_copy(P), value_copy(Q)) is sd.compare_order(P, Q)
        assert sd.compare_order(low, G) is sd.ProductOrder.INCOMPARABLE
        assert sd.compare_order(low, high) is sd.ProductOrder.FIRST_BELOW

    def test_invert_calls_per_distinct_pair(self, shipped_ladder, monkeypatch):
        # one entry per inverted column: distance inverts blocks of pairs in lockstep
        calls = []

        def counting_invert(f, y):
            calls.extend([f] * y.shape[1])
            return sd.invert(f, y)

        monkeypatch.setattr(products, "invert", counting_invert)
        distinct = []
        for m in (2, 3, 4):
            F, G = shipped_ladder[m], shipped_ladder[m + 1]
            before = len(calls)
            sd.distance(F, G)
            distinct.append(len(set(word_pairs(F, G))))
            assert len(calls) - before == 2 * distinct[-1]
        assert distinct == [48, 108, 228]
        assert len(calls) == 768

    def test_mixed_forms_equal_reference(self, full2, uniform_chain):
        def mixed(i):
            shift = 0.001 * i
            return [
                sd.Affine(0.1 + shift, 0.8),
                sd.Affine(0.02, 0.05),  # its image misses every other map's
                sd.BumpedAffine(0.1, 0.7 - shift, 0.2),
                sd.Plateau(0.5 + shift, 0.4, 0.6),
                sd.BumpComposed(0.4 - shift, sd.Plateau(0.5, 0.4, 0.6)),
                sd.BumpComposed(-0.25, sd.Affine(0.1, 0.8 - shift)),
            ][i % 6]

        # F's last 80 words are affine maps with distinct offsets, so one
        # (affine, affine) group spans more than one block
        F = sd.MultistepSkewProduct(full2, uniform_chain, (3, 3), {
            w: mixed(i) if i < 48 else sd.Affine(0.1 + 0.001 * i, 0.75) for i, w in enumerate(full2.words(7))
        })
        G = sd.MultistepSkewProduct(full2, uniform_chain, (1, 1), {
            w: mixed(5 * i) for i, w in enumerate(full2.words(3))
        })
        pairs = set(word_pairs(F, G))
        groups = Counter((products._form_key(f), products._form_key(g)) for f, g in pairs)
        assert len(groups) == 23 and groups["affine", "affine"] > products._DISTANCE_BLOCK
        apart = [(f, g) for f, g in pairs if max(f.eval(0.0), g.eval(0.0)) >= min(f.eval(1.0), g.eval(1.0))]
        assert len(apart) == 23 and sd.Affine(0.02, 0.05) in apart[0]
        assert sd.distance(F, G) == reference_distance(F, G)
        assert sd.distance(G, F) == reference_distance(G, F)

    def test_order_checks_per_distinct_pair(self, shipped_ladder, monkeypatch):
        calls = []
        strictly_below = products._strictly_below

        def recording(f, g):
            calls.append((f, g))
            return strictly_below(f, g)

        monkeypatch.setattr(products, "_strictly_below", recording)
        for m, count in ((2, 48), (3, 108), (4, 228)):
            G = shipped_ladder[m + 1]
            low = sd.pad_to_window(shipped_ladder[m], G.window)
            high = sd.family_member(sd.MonotoneFamily(G, 1.0, (0.0, 0.2)), 0.1)
            # first pair: f < g certified, g < f not; after that only f < g is tried
            distinct = list(dict.fromkeys(word_pairs(low, G)))
            assert len(distinct) == count
            calls.clear()
            assert sd.compare_order(low, G) is sd.ProductOrder.INCOMPARABLE
            assert calls == [distinct[0], distinct[0][::-1], distinct[1]]
            distinct = list(dict.fromkeys(word_pairs(low, high)))
            assert len(distinct) == count
            calls.clear()
            assert sd.compare_order(low, high) is sd.ProductOrder.FIRST_BELOW
            assert calls == [distinct[0], distinct[0][::-1], *distinct[1:]]


# every form, bump_composed over each inner form, and pairs that are == but print a different zero
WRITER_MAPS = (
    sd.Affine(0.1, 0.8),
    sd.Affine(0.25, 0.5),
    sd.BumpedAffine(0.1, 0.8, 0.0),
    sd.BumpedAffine(0.1, 0.8, -0.0),
    sd.BumpedAffine(0.2, 0.6, -0.3),
    sd.Plateau(0.5, 0.4, 0.6),
    sd.BumpComposed(0.4, sd.Plateau(0.5, 0.4, 0.6)),
    sd.BumpComposed(0.0, sd.Affine(0.1, 0.8)),
    sd.BumpComposed(-0.0, sd.Affine(0.1, 0.8)),
    sd.BumpComposed(-0.25, sd.BumpedAffine(0.1, 0.8, -0.0)),
)


def assert_dumped(product):
    """The writer's text is json.dumps's; a failure shows only where they first differ."""
    got, expected = _product_text(product), json.dumps(product.to_json(), indent=2, sort_keys=True) + "\n"
    same = got == expected
    at = 0 if same else next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), len(got))
    assert same, f"texts differ at {at}: {got[at - 60 : at + 60]!r} != {expected[at - 60 : at + 60]!r}"
    return got


class TestProductText:
    """`approx`'s product writer gives json.dumps's text."""

    @given(
        three=st.booleans(),
        window=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        picks=st.lists(st.integers(0, len(WRITER_MAPS) - 1), min_size=1, max_size=12),
        fresh=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_json_dumps(self, full2, uniform_chain, three, window, picks, fresh):
        system, chain = (THREE_SYMBOL, THREE_SYMBOL_CHAIN) if three else (full2, uniform_chain)
        words = system.words(window[0] + window[1] + 1)
        # maps cycle through the picks; fresh gives every word its own value-equal copy
        maps = [WRITER_MAPS[picks[k % len(picks)]] for k in range(len(words))]
        if fresh:
            maps = [sd.map_from_json(sd.map_to_json(f)) for f in maps]
        product = sd.MultistepSkewProduct(system, chain, window, dict(zip(words, maps)))
        assert_dumped(product)

    def test_signed_zero_spec(self, full2, uniform_chain):
        spec = signed_zero_spec(full2, uniform_chain)
        for m in (0, 1, 2):
            text = assert_dumped(sd.multistep_approximation(spec, m))
        assert text.count('"c": -0.0') == 1

    def test_shipped_ladder(self, shipped_ladder):
        for approx in shipped_ladder.values():
            assert_dumped(approx)


class TestMultistepApproximation:
    @pytest.mark.parametrize("seed", [None, 3, 29])
    def test_one_object_per_map_value(self, full2, uniform_chain, shipped_ladder, seed):
        if seed is None:
            approx = shipped_ladder[4]
        else:
            approx = sd.multistep_approximation(random_spec(full2, uniform_chain, seed), 4)
        maps = approx.assignment.values()
        assert len({id(f) for f in maps}) == len(set(maps))

    def test_json_equals_per_word_build(self, full2, uniform_chain):
        spec = random_spec(full2, uniform_chain, 3)
        for m in (0, 1, 3):
            assert sd.multistep_approximation(spec, m).to_json() == reference_approximation(spec, m).to_json()

    def test_signed_zero_value_keeps_its_sign(self, full2, uniform_chain):
        # numpy's min and max of [0.0, -0.0] both read -0.0, so the tail term
        # is -0.0 and word (2, 1, 2) sums to -0.0 where every other symbol-1
        # word sums to 0.0; the two maps are == but print differently
        spec = signed_zero_spec(full2, uniform_chain)
        for m in (1, 2):
            text = json.dumps(sd.multistep_approximation(spec, m).to_json())
            assert text == json.dumps(reference_approximation(spec, m).to_json())
            assert text.count('"c": -0.0') == 1

    @pytest.mark.parametrize("name", ["shipped", "random 3", "random 29", "signed zero", "three symbols"])
    def test_array_values_equal_per_word_sums(self, full2, uniform_chain, name):
        spec = {
            "shipped": lambda: load_config(str(CONTINUOUS_GEOMETRIC), {}).continuous,
            "random 3": lambda: random_spec(full2, uniform_chain, 3),
            "random 29": lambda: random_spec(full2, uniform_chain, 29, offset=0.05),
            "signed zero": lambda: signed_zero_spec(full2, uniform_chain),
            "three symbols": lambda: three_symbol_spec(11),
        }[name]()
        for m in range(6):
            got = sd.multistep_approximation(spec, m)
            reference = reference_approximation(spec, m)
            assert json.dumps(got.to_json()) == json.dumps(reference.to_json())
            # words share one object exactly when they share the symbol and the printed map
            words = spec.base.words(2 * m + 1)
            shared, first = {}, {}
            assert [shared.setdefault(id(got.assignment[w]), k) for k, w in enumerate(words)] == [
                first.setdefault((w[m], json.dumps(sd.map_to_json(reference.assignment[w]))), k)
                for k, w in enumerate(words)
            ]

    @pytest.mark.parametrize("three", [False, True])
    def test_invalid_approximant_names_first_word(self, full2, uniform_chain, three):
        # a series in class at its extremes keeps every approximant in class, so
        # raise symbol 1's base value past the validated range after the fact
        spec = three_symbol_spec(11) if three else geometric_spec(full2, uniform_chain)
        params = list(spec.symbol_params)
        values = sorted(f.a for w, f in reference_maps(spec, 1).items() if w[1] == 1)
        shift = 1.0 - params[0]["b"] - values[len(values) // 2]
        params[0] = {**params[0], "a": params[0]["a"] + shift}
        object.__setattr__(spec, "symbol_params", tuple(params))
        for m in (1, 3, 5):
            bad = [(w, f) for w, f in reference_maps(spec, m).items() if not sd.validate_class(f)]
            assert 0 < len(bad) < len(spec.base.words(2 * m + 1))
            word, fmap = bad[0]
            with pytest.raises(InvalidApproximationError) as info:
                sd.multistep_approximation(spec, m)
            assert str(info.value) == f"word {word}: {sd.validate_class(fmap).reason}"

    def test_padding_keeps_signed_zero(self, full2, uniform_chain):
        spec = signed_zero_spec(full2, uniform_chain)
        approx = sd.multistep_approximation(spec, 1)
        text = json.dumps(sd.pad_to_window(approx, (2, 2)).to_json())
        assert text == json.dumps(reference_pad(approx, (2, 2)).to_json())
        # (2, 1, 2) is the middle of four words on (2, 2)
        assert text.count('"c": -0.0') == 4

    def test_no_dependence_equals_one_step(self, full2, uniform_chain):
        spec = geometric_spec(full2, uniform_chain, scale=0.0)
        for m in (0, 2):
            approx = sd.multistep_approximation(spec, m)
            for word, fmap in approx.assignment.items():
                expected = sd.Affine(0.10, 0.8) if word[m] == 1 else sd.Affine(0.12, 0.8)
                assert fmap == expected

    def test_halving_ratio(self, full2, uniform_chain):
        spec = geometric_spec(full2, uniform_chain)
        approx = {m: sd.multistep_approximation(spec, m) for m in range(2, 6)}
        dists = [sd.distance(approx[m], approx[m + 1]) for m in (2, 3, 4)]
        for a, b in zip(dists, dists[1:]):
            assert 0.3 <= b / a <= 0.7
        for m, d in zip((2, 3, 4), dists):
            assert d <= sd.approximation_distance_bound(spec, m)

    def test_cauchy_decrease_on_random_specs(self, full2, uniform_chain):
        rng = np.random.default_rng(17)
        for _ in range(5):
            rho = rng.uniform(-0.01, 0.01, (2, 2))
            spec = sd.ContinuousProductSpec(
                full2, uniform_chain, "affine", "a",
                ({"a": 0.10, "b": 0.8}, {"a": 0.12, "b": 0.8}), rho,
            )
            approx = {m: sd.multistep_approximation(spec, m) for m in range(2, 6)}
            dists = [sd.distance(approx[m], approx[m + 1]) for m in (2, 3, 4)]
            assert dists[0] >= dists[1] >= dists[2]

    def test_window_cap(self, full2, uniform_chain):
        with pytest.raises(ResourceBoundError):
            sd.multistep_approximation(geometric_spec(full2, uniform_chain), 6)

    def test_worst_case_class_validation(self, full2, uniform_chain):
        rho = np.full((2, 2), 0.06)  # series mass 2 * 0.06 pushes f(1) past 1
        with pytest.raises(ValueError, match="class"):
            sd.ContinuousProductSpec(
                full2, uniform_chain, "affine", "a",
                ({"a": 0.10, "b": 0.8}, {"a": 0.12, "b": 0.8}), rho,
            )
