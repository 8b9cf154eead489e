import dataclasses
import itertools
import pickle
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdrift as sd
from skewdrift.errors import (
    IncomparableWindowsError,
    InvalidMatrixError,
    NotErgodicError,
    ResourceBoundError,
)
from skewdrift.symbolic import _symbols_from_uniforms

from conftest import FULL2, GOLDEN


def dfs_strongly_connected(matrix):
    """Independent oracle: plain reachability from every node."""
    n = len(matrix)

    def reach(start):
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if matrix[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    return all(len(reach(i)) == n for i in range(n))


class TestValidateTransitive:
    def test_disconnected_loops(self):
        assert sd.validate_transitive([[1, 0], [0, 1]]) is False

    def test_full_shift(self):
        assert sd.validate_transitive([[1, 1], [1, 1]]) is True

    def test_golden_mean_matches_dfs_oracle(self):
        assert sd.validate_transitive(GOLDEN) is dfs_strongly_connected(GOLDEN)
        assert sd.validate_transitive(GOLDEN) is True

    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_dfs_oracle_on_random_matrices(self, n, rnd):
        matrix = [[1 if rnd.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
        assert sd.validate_transitive(matrix) is dfs_strongly_connected(matrix)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidMatrixError):
            sd.validate_transitive([[1, 1, 0], [1, 1, 1]])
        with pytest.raises(InvalidMatrixError):
            sd.validate_transitive([[1, 2], [1, 1]])

    def test_system_construction_fails_on_nontransitive(self):
        with pytest.raises(InvalidMatrixError):
            sd.TransitionSystem(np.array([[1, 0], [0, 1]]))
        with pytest.raises(InvalidMatrixError):
            sd.TransitionSystem(np.array([[1, 1], [0, 0]]))


class TestMetric:
    def test_identical_windows_value_zero_flagged(self):
        w = sd.SymbolWindow(-3, (1, 2, 1, 1, 2, 1, 2))
        result = sd.metric(w, w)
        assert result.value == 0.0
        assert not result.exact
        # agreement on [-3, 3] still allows disagreement at |n| = 4
        assert result.upper_bound == 2.0 ** -4

    def test_first_disagreement_at_two(self):
        a = sd.SymbolWindow(-3, (1, 1, 1, 1, 1, 1, 2))  # differs at n = -2 and n = 3
        b = sd.SymbolWindow(-3, (1, 2, 1, 1, 1, 1, 1))
        result = sd.metric(a, b)
        assert result.exact and result.value == 0.25

    def test_disagreement_at_zero(self):
        a = sd.SymbolWindow(-1, (1, 1, 1))
        b = sd.SymbolWindow(-1, (1, 2, 1))
        assert sd.metric(a, b).value == 1.0

    def test_disjoint_ranges_error(self):
        a = sd.SymbolWindow(-5, (1, 1))
        b = sd.SymbolWindow(0, (1, 1))
        with pytest.raises(IncomparableWindowsError):
            sd.metric(a, b)

    @given(st.lists(st.integers(1, 2), min_size=7, max_size=7),
           st.lists(st.integers(1, 2), min_size=7, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, xs, ys):
        a = sd.SymbolWindow(-3, tuple(xs))
        b = sd.SymbolWindow(-3, tuple(ys))
        ab, ba = sd.metric(a, b), sd.metric(b, a)
        assert ab.value == ba.value and ab.exact == ba.exact

    @given(st.lists(st.integers(1, 2), min_size=5, max_size=5),
           st.lists(st.integers(1, 2), min_size=5, max_size=5),
           st.lists(st.integers(1, 2), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_ultrametric_on_common_range(self, xs, ys, zs):
        a = sd.SymbolWindow(-2, tuple(xs))
        b = sd.SymbolWindow(-2, tuple(ys))
        c = sd.SymbolWindow(-2, tuple(zs))
        assert sd.metric(a, c).value <= max(sd.metric(a, b).value, sd.metric(b, c).value)


class TestStationary:
    def test_symmetric_chain(self):
        pi = sd.stationary_distribution([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-14)

    def test_two_state_matches_closed_form(self):
        # oracle: pi = (p21, p12) / (p12 + p21) for a two-state chain
        pi = sd.stationary_distribution([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(pi, [5 / 6, 1 / 6], atol=1e-12)

    def test_permutation_chain(self):
        pi = sd.stationary_distribution([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-14)

    def test_reducible_support_rejected(self):
        with pytest.raises(NotErgodicError):
            sd.stationary_distribution([[1.0, 0.0], [0.0, 1.0]])

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_residual_below_tolerance(self, rnd):
        n = rnd.choice([2, 3, 4])
        P = np.array([[rnd.random() + 0.05 for _ in range(n)] for _ in range(n)])
        P /= P.sum(axis=1, keepdims=True)
        pi = sd.stationary_distribution(P)
        assert np.abs(pi @ P - pi).max() < 1e-10
        assert abs(pi.sum() - 1.0) < 1e-12


class TestCylinderMeasure:
    def test_uniform_full_shift(self, uniform_chain):
        for w in [(1, 1, 1), (1, 2, 1), (2, 2, 2)]:
            assert sd.cylinder_measure(uniform_chain, sd.SymbolWindow(0, w)) == pytest.approx(1 / 8)

    def test_golden_word(self, golden_chain):
        np.testing.assert_allclose(golden_chain.stationary, [0.75, 0.25], atol=1e-12)
        m = sd.cylinder_measure(golden_chain, sd.SymbolWindow(0, (1, 2)))
        assert m == pytest.approx(0.25, abs=1e-12)

    def test_forbidden_word_measures_zero(self, golden_chain):
        assert sd.cylinder_measure(golden_chain, sd.SymbolWindow(0, (2, 2))) == 0.0

    def test_shift_invariance(self, golden_chain):
        a = sd.cylinder_measure(golden_chain, sd.SymbolWindow(0, (1, 2, 1)))
        b = sd.cylinder_measure(golden_chain, sd.SymbolWindow(-2, (1, 2, 1)))
        assert a == b

    @given(length=st.integers(1, 5), pick=st.integers(0, 200))
    @settings(max_examples=120, deadline=None)
    def test_additivity_under_extension(self, golden_chain, length, pick):
        words = golden_chain.base.words(length)
        w = words[pick % len(words)]
        total = sum(
            sd.cylinder_measure(golden_chain, sd.SymbolWindow(0, w + (a,)))
            for a in golden_chain.base.successors(w[-1])
        )
        assert total == pytest.approx(sd.cylinder_measure(golden_chain, sd.SymbolWindow(0, w)), abs=1e-12)


class TestSymbolInput:
    """SymbolWindow and PeriodicWord take integer symbols only, numpy integers included."""

    @pytest.mark.parametrize("make", [lambda s: sd.SymbolWindow(0, s), sd.PeriodicWord], ids=["window", "periodic"])
    @pytest.mark.parametrize("symbols", [(1.7, 2), (1, True), (1, np.True_), ("1", 2), "12", (1, 2.0)],
                             ids=["float", "bool", "numpy-bool", "string", "string-word", "integral-float"])
    def test_non_integer_symbols_are_refused(self, make, symbols):
        with pytest.raises(ValueError, match="symbols must be integers"):
            make(symbols)

    @pytest.mark.parametrize("make", [lambda s: sd.SymbolWindow(0, s), sd.PeriodicWord], ids=["window", "periodic"])
    @pytest.mark.parametrize("symbols", [(0, -1), (1, 0), (2, -3), (np.int64(0),)],
                             ids=["zero-and-negative", "zero", "negative", "numpy-zero"])
    def test_non_positive_symbols_are_refused(self, make, symbols):
        with pytest.raises(ValueError, match="symbols are 1-based positive integers"):
            make(symbols)

    @pytest.mark.parametrize("make", [lambda s: sd.SymbolWindow(0, s), sd.PeriodicWord], ids=["window", "periodic"])
    def test_numpy_integers_become_ints(self, make):
        for symbols in ((np.int64(1), np.uint8(2)), np.array([1, 2], dtype=np.int32)):
            made = make(symbols)
            assert made.symbols == (1, 2) and all(type(s) is int for s in made.symbols)


class TestPeriodicWords:
    def test_full_shift_period_two(self, full2):
        assert len(sd.periodic_words(full2, 2)) == 4

    def test_golden_period_one(self, golden):
        words = sd.periodic_words(golden, 1)
        assert [w.symbols for w in words] == [(1,)]

    def test_golden_period_three(self, golden):
        assert len(sd.periodic_words(golden, 3)) == 4

    @pytest.mark.parametrize("matrix", [FULL2, GOLDEN])
    def test_count_equals_trace_power(self, matrix):
        system = sd.TransitionSystem(np.array(matrix))
        A = np.array(matrix)
        for n in range(1, 9):
            assert len(sd.periodic_words(system, n)) == int(np.trace(np.linalg.matrix_power(A, n)))

    def test_minimal_period(self):
        assert sd.PeriodicWord((1, 2, 1, 2)).minimal_period == 2
        assert sd.PeriodicWord((1, 1, 2)).minimal_period == 3

    def test_bad_argument(self, full2):
        with pytest.raises(ValueError):
            sd.periodic_words(full2, 0)

    def test_admits_only_symbols_of_the_alphabet(self, golden):
        assert golden.admits((1, 2)) and golden.admits((2, 1)) and not golden.admits((2, 2))
        # 0 would index the last row (an allowed 2 -> 1), 3 no row at all
        assert not golden.admits((0, 1))
        assert not golden.admits((1, 3))
        assert not golden.admits((3,))


def transitive_matrix(data, n):
    """A random 0/1 matrix on n symbols whose cycle 1 -> 2 -> ... -> n -> 1 keeps it strongly connected."""
    extra = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n), label="support")
    return (np.array(extra).reshape(n, n) | np.roll(np.eye(n, dtype=bool), 1, axis=1)).astype(int)


def brute_words(matrix, length):
    """Admissible words in lexicographic order, by filtering every word of the alphabet."""
    n = len(matrix)
    every = itertools.product(range(1, n + 1), repeat=length)
    return [w for w in every if all(matrix[a - 1][b - 1] for a, b in zip(w, w[1:]))]


def cycle_with_loop(n: int) -> np.ndarray:
    """The cycle 1 -> 2 -> ... -> n -> 1 plus the loop 1 -> 1: few words of each length over a large alphabet."""
    matrix = np.roll(np.eye(n, dtype=int), 1, axis=1)
    matrix[0, 0] = 1
    return matrix


def brute_fault(matrix, rows):
    """(i, j) of the first symbol outside 1..N, else of the first forbidden transition j -> j + 1, else None."""
    n = len(matrix)
    outside = [(i, j) for i, row in enumerate(rows) for j, s in enumerate(row) if not 1 <= s <= n]
    if outside:
        return outside[0]
    forbidden = [
        (i, j) for i, row in enumerate(rows) for j in range(len(row) - 1) if not matrix[row[j] - 1][row[j + 1] - 1]
    ]
    return forbidden[0] if forbidden else None


class TestWordTable:
    """word_array is the one word table; check_rows, admits, successors and cylinder_measure share one rule."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_array_equals_brute_force(self, data):
        matrix = transitive_matrix(data, data.draw(st.integers(2, 4), label="alphabet size"))
        system = sd.TransitionSystem(matrix)
        for length in data.draw(st.permutations(range(1, 7)), label="build order"):
            table = system.word_array(length)
            assert table.dtype == np.int64 and table.shape == (len(table), length)
            assert table.tolist() == [list(w) for w in brute_words(matrix.tolist(), length)]
            assert system.words(length) == tuple(map(tuple, table.tolist()))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_check_rows_and_admits_agree_with_brute_force(self, data):
        n = data.draw(st.integers(2, 4), label="alphabet size")
        matrix = transitive_matrix(data, n)
        system = sd.TransitionSystem(matrix)
        width = data.draw(st.integers(1, 6), label="width")
        row = st.lists(st.integers(0, n + 1), min_size=width, max_size=width)
        rows = data.draw(st.lists(row, min_size=1, max_size=6), label="rows")
        lo = data.draw(st.integers(-5, 0), label="lo")
        for r in rows:
            assert system.admits(r) is (brute_fault(matrix, [r]) is None)
        fault = brute_fault(matrix, rows)
        if fault is None:
            system.check_rows(lo, np.array(rows, dtype=np.int64))
            return
        i, j = fault
        if not 1 <= rows[i][j] <= n:
            message = f"symbol {rows[i][j]} at coordinate {lo + j} of point {i} is not in the alphabet 1..{n}"
        else:
            message = (
                f"transition {rows[i][j]} -> {rows[i][j + 1]} at coordinates {lo + j}, {lo + j + 1} "
                f"of point {i} is forbidden"
            )
        with pytest.raises(ValueError) as info:
            system.check_rows(lo, np.array(rows, dtype=np.int64))
        assert str(info.value) == message

    def test_admits_symbols_too_large_for_int64(self, golden):
        assert not golden.admits((1, 2**70)) and not golden.admits((-(2**70), 1))

    @pytest.mark.parametrize("matrix", [FULL2, GOLDEN])
    def test_successors_only_of_symbols_of_the_alphabet(self, matrix):
        system = sd.TransitionSystem(np.array(matrix))
        assert [system.successors(s) for s in (1, 2)] == [
            tuple(w[1] for w in brute_words(matrix, 2) if w[0] == s) for s in (1, 2)
        ]
        for symbol in (0, 3):
            with pytest.raises(ValueError, match=f"symbol {symbol} is not in the alphabet 1..2"):
                system.successors(symbol)

    def test_word_ranks_up_to_the_longest_length_with_int64_codes(self):
        # 40^11 < 2^63 < 40^12: positional codes of 11 symbols fit int64, those of 12 could wrap
        system = sd.TransitionSystem(cycle_with_loop(40))
        table = system.word_array(12)
        index = {w: k for k, w in enumerate(system.words(11))}
        for start in (0, 1):
            want = [index[tuple(row[start : start + 11])] for row in table.tolist()]
            assert system.word_ranks(table, start, 11).tolist() == want
        with pytest.raises(ResourceBoundError, match="words of length 12 over 40 symbols exceed int64 codes"):
            system.word_ranks(table, 0, 12)

    def test_cylinder_of_a_symbol_above_the_alphabet_measures_zero(self, golden_chain):
        assert sd.cylinder_measure(golden_chain, sd.SymbolWindow(0, (1, 3))) == 0.0

    def test_graphs_regions_and_certificates_build_no_word_tuples(self, monkeypatch):
        def no_tuples(self, length):
            raise AssertionError("word tuples built")

        system = sd.TransitionSystem(np.array(FULL2))  # fresh: no table cached yet
        monkeypatch.setattr(sd.TransitionSystem, "words", no_tuples)
        graph = sd.StepGraph(system, (12, 0), np.full(2**13, 0.5))
        region = sd.BoxRegion(system, (12, 0), [0, 2**13 - 1], [0.1, 0.2], [0.3, 0.4])
        assert region.ranks.tolist() == [0, 2**13 - 1]
        values = sd.DriftCertificate("up", graph, 1e-3, "0" * 16).to_json()["values"]
        assert len(values) == 2**13
        assert values[0] == {"word": [1] * 13, "value": 0.5} and values[-1]["word"] == [2] * 13
        with pytest.raises(ValueError, match=r"for word \(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2\) is not strictly"):
            sd.StepGraph(system, (12, 0), np.r_[0.5, 1.0, np.full(2**13 - 2, 0.5)])


class TestSampling:
    def test_reproducible(self, uniform_chain):
        a = sd.sample_window(uniform_chain, -2, 2, np.random.default_rng(11))
        b = sd.sample_window(uniform_chain, -2, 2, np.random.default_rng(11))
        assert a == b and len(a.symbols) == 5

    def test_symbol_frequency_full_shift(self, uniform_chain):
        rng = np.random.default_rng(3)
        draws = [sd.sample_window(uniform_chain, 0, 0, rng).symbols[0] for _ in range(100_000)]
        freq = draws.count(1) / len(draws)
        assert abs(freq - 0.5) < 0.01

    def test_golden_never_emits_forbidden_adjacency(self, golden_chain):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(20_000):
            w = sd.sample_window(golden_chain, -2, 2, rng).symbols
            hits += any(a == 2 and b == 2 for a, b in zip(w, w[1:]))
        assert hits == 0

    def test_single_symbol_from_stationary(self, golden_chain):
        rng = np.random.default_rng(9)
        draws = [sd.sample_window(golden_chain, 0, 0, rng).symbols[0] for _ in range(50_000)]
        assert abs(draws.count(1) / len(draws) - 0.75) < 0.01

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_samples_always_admissible(self, golden_chain, seed):
        w = sd.sample_window(golden_chain, -3, 3, np.random.default_rng(seed))
        assert golden_chain.base.admits(w.symbols)

    def test_precondition(self, uniform_chain):
        with pytest.raises(ValueError):
            sd.sample_window(uniform_chain, 1, 3, np.random.default_rng(0))


def _reference_symbols(chain, u):
    """Row-block sampler: gather each sample's cumulative row, count thresholds <= u.

    A uniform at or above the row's sum, which can fall just below 1, picks
    the row's last symbol of positive probability.
    """
    n, width = u.shape
    nsym = chain.base.alphabet_size
    cum_rows = chain._cum_rows
    last = nsym - 1 - np.argmax(chain.stochastic[:, ::-1] > 0, axis=1)
    out = np.empty((n, width), dtype=np.int64)
    first = np.searchsorted(chain._cum_start, u[:, 0], side="right")
    out[:, 0] = np.minimum(first, nsym - 1) + 1
    for j in range(1, width):
        rows = cum_rows[out[:, j - 1] - 1]
        nxt = (rows <= u[:, j, None]).sum(axis=1)
        out[:, j] = np.minimum(nxt, last[out[:, j - 1] - 1]) + 1
    return out


def _three_symbol_chain():
    # one forbidden transition (3 -> 1) and non-uniform rows
    system = sd.TransitionSystem(np.array([[1, 1, 1], [1, 1, 1], [0, 1, 1]]))
    return sd.MarkovChain(system, np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.0, 0.35, 0.65]]))


class TestSymbolsFromUniforms:
    @pytest.fixture(params=["three_symbol", "uniform", "golden"])
    def chain(self, request, uniform_chain, golden_chain):
        return {"three_symbol": _three_symbol_chain(), "uniform": uniform_chain, "golden": golden_chain}[request.param]

    @pytest.mark.parametrize("n", [1, 5000])
    @pytest.mark.parametrize("width", [1, 2, 23])
    def test_matches_row_block_reference(self, chain, n, width):
        # a wider block sliced, as estimate_regions passes it
        u = np.random.default_rng(1000 * n + width).random((n, width + 1))[:, :width]
        got = _symbols_from_uniforms(chain, u)
        assert got.dtype == np.int64 and got.flags.c_contiguous and got.shape == (n, width)
        assert np.array_equal(got, _reference_symbols(chain, u))
        assert all(chain.base.admits(tuple(row)) for row in got[:50].tolist())

    def test_rows_independent_of_chunking(self, chain):
        u = np.random.default_rng(3).random((1000, 23))
        whole = _symbols_from_uniforms(chain, u)
        for k in (1, 417, 999):
            parts = np.concatenate([_symbols_from_uniforms(chain, u[:k]), _symbols_from_uniforms(chain, u[k:])])
            assert np.array_equal(parts, whole)

    def test_uniforms_at_thresholds(self):
        # uniforms exactly on cumulative thresholds, 0.0 and just below 1.0
        chain = _three_symbol_chain()
        edges = np.unique(np.concatenate([chain._cum_rows.ravel(), chain._cum_start, [0.0, np.nextafter(1.0, 0.0)]]))
        edges = edges[edges < 1.0]
        rng = np.random.default_rng(4)
        u = rng.choice(edges, size=(2000, 9))
        assert np.array_equal(_symbols_from_uniforms(chain, u), _reference_symbols(chain, u))


class _FixedUniforms:
    """Stand-in generator whose random(size) returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u[:size].copy()


def _edge_uniforms(chain, rng, shape):
    """Uniforms drawn from the chain's thresholds, 0.0 and the largest float below 1."""
    edges = np.unique(np.concatenate([chain._cum_rows.ravel(), chain._cum_start, [0.0, np.nextafter(1.0, 0.0)]]))
    return rng.choice(edges[edges < 1.0], size=shape)


class TestRowsEndingInZeros:
    """A row whose positive entries sum to just below 1 never sends the sampler to a forbidden symbol."""

    def test_regression_chain(self):
        # 0.7 + 0.2 + 0.1 sums to 0.9999999999999999, which ROW_SUM_TOL accepts; counting the
        # thresholds up to the last positive entry at u = nextafter(1, 0) would give symbol 4
        system = sd.TransitionSystem(np.array([[1, 1, 1, 0]] + [[1, 1, 1, 1]] * 3))
        chain = sd.MarkovChain(system, np.array([[0.7, 0.2, 0.1, 0.0]] + [[0.25] * 4] * 3))
        top = np.nextafter(1.0, 0.0)
        assert chain._cum_rows[0, 2] == top
        u = np.array([[0.0, top], [0.0, 0.75], [0.0, 0.5]])
        rows = _symbols_from_uniforms(chain, u)
        assert rows.tolist() == [[1, 3], [1, 2], [1, 1]]
        assert np.array_equal(rows, _reference_symbols(chain, u))
        system.check_rows(0, rows)
        # sample_window draws with the same sampler
        assert sd.sample_window(chain, 0, 1, _FixedUniforms([0.0, top])).symbols == (1, 3)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_sampled_rows_admissible(self, data):
        n = data.draw(st.integers(2, 5), label="alphabet size")
        # entries off the cycle, trailing ones too, may be 0
        support = transitive_matrix(data, n)
        # tenths and other short fractions, whose float sums often miss 1 by an ulp
        weights = np.array(data.draw(st.lists(st.integers(1, 9), min_size=n * n, max_size=n * n), label="weights"))
        weights = weights.reshape(n, n) * support
        stochastic = weights / weights.sum(axis=1, keepdims=True)
        system = sd.TransitionSystem(support)
        chain = sd.MarkovChain(system, stochastic)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        u = _edge_uniforms(chain, rng, (300, 6))
        u[::7, 1:] = np.nextafter(1.0, 0.0)
        rows = _symbols_from_uniforms(chain, u)
        system.check_rows(0, rows)
        assert np.array_equal(rows, _reference_symbols(chain, u))
        window = sd.sample_window(chain, -2, 3, _FixedUniforms(u[0]))
        assert system.admits(window.symbols)


def _spec(system, chain):
    rho = np.array([[0.01, -0.01], [0.006, -0.006]])
    return sd.ContinuousProductSpec(system, chain, "affine", "a", ({"a": 0.1, "b": 0.8}, {"a": 0.12, "b": 0.8}), rho)


def _constant(system, chain):
    return sd.MultistepSkewProduct(system, chain, (0, 0), {w: sd.Affine(0.1, 0.8) for w in system.words(1)})


_POINT = sd.LabeledPoint(sd.SymbolWindow(0, (1, 2, 1)), 0.5)


class TestIntegerArguments:
    """Counts, depths, lengths and window offsets follow one rule: an integer (numpy's too, never a bool) at or
    above a least value, else `<what> must be an integer >= k, got X`. A SymbolWindow offset is such an integer
    at most 0, else `window offset must be an integer <= 0`. A product, graph or region window is a pair of
    such offsets, else `<what> must be a pair of offsets, got W`."""

    @pytest.mark.parametrize("call, message", [
        (lambda s, c: sd.iterate(_constant(s, c), _POINT, True), "iteration count must be an integer >= 1, got True"),
        (lambda s, c: sd.multistep_approximation(_spec(s, c), True),
         "truncation depth must be an integer >= 0, got True"),
        (lambda s, c: sd.multistep_approximation(_spec(s, c), 2.0),
         "truncation depth must be an integer >= 0, got 2.0"),
        (lambda s, c: sd.periodic_words(s, 2.0), "period length must be an integer >= 1, got 2.0"),
        (lambda s, c: sd.periodic_words(s, True), "period length must be an integer >= 1, got True"),
        (lambda s, c: sd.periodic_words(s, 1.5), "period length must be an integer >= 1, got 1.5"),
        (lambda s, c: sd.MultistepSkewProduct(s, c, (True, 0), {}), "window offset must be an integer >= 0, got True"),
        (lambda s, c: sd.MultistepSkewProduct(s, c, (0.0, 0), {}), "window offset must be an integer >= 0, got 0.0"),
        (lambda s, c: sd.MultistepSkewProduct(s, c, (0.5, 0), {}), "window offset must be an integer >= 0, got 0.5"),
        (lambda s, c: sd.StepGraph(s, (True, 0), [0.5] * 4), "graph window offset must be an integer >= 0, got True"),
        (lambda s, c: sd.StepGraph(s, (0.0, 0), [0.5] * 2), "graph window offset must be an integer >= 0, got 0.0"),
        (lambda s, c: sd.StepGraph(s, (0.5, 0), [0.5] * 2), "graph window offset must be an integer >= 0, got 0.5"),
        (lambda s, c: sd.BoxRegion(s, (0.7, 0), [], [], []), "region window offset must be an integer >= 0, got 0.7"),
        (lambda s, c: sd.BoxRegion(s, (True, 0), [], [], []), "region window offset must be an integer >= 0, got True"),
        (lambda s, c: sd.BoxRegion(s, (-1, 1), [], [], []), "region window offset must be an integer >= 0, got -1"),
        (lambda s, c: sd.MultistepSkewProduct(s, c, (0, 0, 0), {}), "window must be a pair of offsets, got (0, 0, 0)"),
        (lambda s, c: sd.MultistepSkewProduct(s, c, (0,), {}), "window must be a pair of offsets, got (0,)"),
        (lambda s, c: sd.StepGraph(s, (0, 0, 0), [0.5] * 8), "graph window must be a pair of offsets, got (0, 0, 0)"),
        (lambda s, c: sd.StepGraph(s, (0,), [0.5] * 2), "graph window must be a pair of offsets, got (0,)"),
        (lambda s, c: sd.BoxRegion(s, (0, 0, 0), [], [], []), "region window must be a pair of offsets, got (0, 0, 0)"),
        (lambda s, c: sd.BoxRegion(s, (0,), [], [], []), "region window must be a pair of offsets, got (0,)"),
        (lambda s, c: sd.SymbolWindow(False, (1, 2)), "window offset must be an integer <= 0"),
        (lambda s, c: sd.SymbolWindow(-1.0, (1, 2)), "window offset must be an integer <= 0"),
        (lambda s, c: sd.SymbolWindow(np.int64(1), (1, 2)), "window offset must be an integer <= 0"),
        (lambda s, c: sd.hoeffding_radius(0), "sample count must be an integer >= 1, got 0"),
        (lambda s, c: sd.hoeffding_radius(-5), "sample count must be an integer >= 1, got -5"),
        (lambda s, c: sd.hoeffding_radius(2.5), "sample count must be an integer >= 1, got 2.5"),
        (lambda s, c: sd.hoeffding_radius(True), "sample count must be an integer >= 1, got True"),
    ], ids=["iterate-bool", "approximation-bool", "approximation-float", "period-float", "period-bool",
            "period-fraction", "window-bool", "window-float", "window-fraction", "graph-bool", "graph-float",
            "graph-fraction", "region-fraction", "region-bool", "region-negative", "window-triple", "window-single",
            "graph-triple", "graph-single", "region-triple", "region-single", "symbol-window-bool",
            "symbol-window-float", "symbol-window-positive", "radius-zero", "radius-negative", "radius-fraction",
            "radius-bool"])
    def test_refused(self, full2, uniform_chain, call, message):
        with pytest.raises(ValueError) as info:
            call(full2, uniform_chain)
        assert str(info.value) == message

    def test_numpy_integers_become_ints(self, full2, uniform_chain):
        product = _constant(full2, uniform_chain)
        assert sd.iterate(product, _POINT, np.int64(2)) == sd.iterate(product, _POINT, 2)
        windows = [sd.MultistepSkewProduct(full2, uniform_chain, (np.int64(1), np.int8(0)), dict.fromkeys(
                       full2.words(2), sd.Affine(0.1, 0.8))).window,
                   sd.StepGraph(full2, (np.int64(1), np.int8(0)), [0.5] * 4).window,
                   sd.BoxRegion(full2, (np.int64(1), np.int8(0)), [3], [0.2], [0.4]).window,
                   sd.multistep_approximation(_spec(full2, uniform_chain), np.int64(1)).window]
        assert windows == [(1, 0), (1, 0), (1, 0), (1, 1)]
        assert all(type(k) is int for window in windows for k in window)
        offset = sd.SymbolWindow(np.int64(-1), (1, 2)).offset
        assert offset == -1 and type(offset) is int
        assert sd.periodic_words(full2, np.int64(2)) == sd.periodic_words(full2, 2)
        assert sd.hoeffding_radius(np.int64(100)) == sd.hoeffding_radius(100)


class TestFrozenState:
    """Every array a frozen object stores, and every table a TransitionSystem or a product's map_slots hands out,
    is read-only, and every mapping it stores is a read-only view: an in-place edit raises. The arrays and dicts a
    caller passes to a constructor stay the caller's own, writable and unshared."""

    @pytest.fixture
    def inputs(self):
        return {
            "transitions": np.array(GOLDEN),
            "stochastic": np.array([[2 / 3, 1 / 3], [1.0, 0.0]]),
            "values": np.full(3, 0.5),
            "ranks": np.array([0, 2]),
            "lo": np.array([0.1, 0.2]),
            "hi": np.array([0.3, 0.4]),
            "rho": np.full((2, 2), 0.01),
            "assignment": {(1, 1): sd.Affine(0.1, 0.8), (1, 2): sd.Affine(0.2, 0.7), (2, 1): sd.Affine(0.1, 0.8)},
            "params": ({"a": 0.1, "b": 0.8}, {"a": 0.12, "b": 0.8}),
        }

    @pytest.fixture
    def built(self, inputs):
        system = sd.TransitionSystem(inputs["transitions"])
        chain = sd.MarkovChain(system, inputs["stochastic"])
        return {
            "system": system,
            "chain": chain,
            "graph": sd.StepGraph(system, (1, 0), inputs["values"]),
            "region": sd.BoxRegion(system, (1, 0), inputs["ranks"], inputs["lo"], inputs["hi"]),
            "product": sd.MultistepSkewProduct(system, chain, (1, 0), inputs["assignment"]),
            "spec": sd.ContinuousProductSpec(system, chain, "affine", "a", inputs["params"], inputs["rho"]),
        }

    def test_stored_and_handed_out_arrays_refuse_edits(self, built):
        system, chain, product = built["system"], built["chain"], built["product"]
        arrays = {
            "transitions": system.transitions,
            "stochastic": chain.stochastic,
            "stationary": chain.stationary,
            "_cum_start": chain._cum_start,
            "_cum_rows": chain._cum_rows,
            "graph values": built["graph"].values,
            "region ranks": built["region"].ranks,
            "region lo": built["region"].lo,
            "region hi": built["region"].hi,
            "rho": built["spec"].rho,
            "word_array(1)": system.word_array(1),
            "word_array(3)": system.word_array(3),
            "sub_ranks": system.sub_ranks(3, 1, 2),
            "window_ranks": system.window_ranks((1, 0), (1, 1)),
            "first_extensions": system.first_extensions(3, 1, 2),
            "map_slots": product.map_slots[1],
        }
        system.word_ranks(system.word_array(3), 0, 2)  # caches the place and code tables of length 2
        arrays.update((f"cached {key}", table) for key, table in system._table_cache.items()
                      if isinstance(table, np.ndarray))
        for name, arr in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = arr
        with pytest.raises(ValueError, match="read-only"):
            words = system.word_array(2)
            words -= 1
        assert system.words(3)[0] == (1, 1, 1)
        assert built["region"].measure(chain) == pytest.approx(0.15)  # 0.2 * (pi(1) P(1, 1) + pi(2) P(2, 1))

    def test_stored_mappings_refuse_edits(self, built):
        product, spec = built["product"], built["spec"]
        with pytest.raises(TypeError):
            product.assignment[(1, 1)] = sd.Affine(0.9, -0.5)
        with pytest.raises(TypeError):
            spec.symbol_params[0]["a"] = 0.5
        assert product.assignment[(1, 1)] == sd.Affine(0.1, 0.8) and spec.symbol_params[0]["a"] == 0.1

    def test_a_callers_inputs_stay_writable_and_unshared(self, inputs, built):
        for name in ("transitions", "stochastic", "values", "ranks", "lo", "hi", "rho"):
            assert inputs[name].flags.writeable, name
            inputs[name][...] = 0
        inputs["assignment"][(1, 1)] = sd.Affine(0.3, 0.5)
        inputs["params"][0]["a"] = 0.3
        assert built["system"].transitions.tolist() == GOLDEN
        assert built["chain"].stochastic.tolist() == [[2 / 3, 1 / 3], [1.0, 0.0]]
        assert built["graph"].values.tolist() == [0.5] * 3
        region = built["region"]
        assert (region.ranks.tolist(), region.lo.tolist(), region.hi.tolist()) == ([0, 2], [0.1, 0.2], [0.3, 0.4])
        assert built["spec"].rho.tolist() == [[0.01, 0.01], [0.01, 0.01]]
        assert built["product"].assignment[(1, 1)] == sd.Affine(0.1, 0.8)
        assert built["spec"].symbol_params[0]["a"] == 0.1

    def test_a_pickle_round_trip_rebuilds_through_the_constructor(self, built):
        # unpickling calls each constructor again, so the copy is checked and frozen anew and its caches start empty
        product, system = built["product"], built["system"]
        product.map_slots, system.word_array(3)  # fill caches the copies must not carry
        objects = dict(built, window=sd.SymbolWindow(-2, (1, 2, 1)), word=sd.PeriodicWord((1, 2, 1)),
                       family=sd.MonotoneFamily(product, 1.0, (-0.01, 0.01)))
        for name, obj in objects.items():
            copy = pickle.loads(pickle.dumps(obj))
            assert same_state(obj, copy), name
        copy = pickle.loads(pickle.dumps(product))
        assert ("words", 3) in system._table_cache and ("words", 3) not in copy.base._table_cache
        assert copy._classifiers == {}
        assert "map_slots" not in vars(copy) and not copy.map_slots[1].flags.writeable
        with pytest.raises(TypeError):
            copy.assignment[(1, 1)] = sd.Affine(0.9, -0.5)


def same_state(a, b) -> bool:
    """a and b hold equal fields through every nested frozen object, b's arrays read-only and its dicts mapping
    proxies; the caches are left out."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b) and not b.flags.writeable
    if isinstance(a, MappingProxyType):
        return type(b) is MappingProxyType and a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same_state, a, b))
    if dataclasses.is_dataclass(a):
        names = [f.name for f in dataclasses.fields(a) if f.name not in ("_table_cache", "_classifiers")]
        return type(a) is type(b) and all(same_state(getattr(a, n), getattr(b, n)) for n in names)
    return a == b
