"""Transitive subshifts of finite type, Markov measures, windows, and sampling.

Symbols are 1-based (alphabet {1, ..., N}); matrices are indexed 0-based.
Points of the base space are represented only by finite two-sided windows;
every operation that consumes a window states how much of it it needs.
"""

from __future__ import annotations

import operator
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IncomparableWindowsError,
    InvalidMatrixError,
    NotErgodicError,
    ResourceBoundError,
    WindowTooShortError,
)

STATIONARY_RESIDUAL_TOL = 1e-10
ROW_SUM_TOL = 1e-12


def _read_only(value):
    """The value as a frozen object stores it: a numpy array made read-only in place, a dict behind a mapping proxy."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        return types.MappingProxyType(value)
    return value


def _frozen(obj, **fields):
    """Set each field on a frozen dataclass instance, stored through _read_only."""
    for name, value in fields.items():
        object.__setattr__(obj, name, _read_only(value))


def _as_binary_matrix(transitions) -> np.ndarray:
    arr = np.asarray(transitions)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise InvalidMatrixError("transition matrix must be square and nonempty")
    if not np.isin(arr, (0, 1)).all():
        raise InvalidMatrixError("transition matrix entries must be 0 or 1")
    return arr.astype(np.int8)


def _strongly_connected(arr: np.ndarray) -> bool:
    """True iff the sets reached from symbol 1 forward and backward, grown a step a round, hold every symbol."""
    links = arr != 0
    ahead = behind = np.arange(len(links)) == 0
    while True:
        grown = ahead | links[ahead].any(axis=0), behind | links[:, behind].any(axis=1)
        if np.array_equal(grown[0], ahead) and np.array_equal(grown[1], behind):
            return bool(ahead.all() and behind.all())
        ahead, behind = grown


def validate_transitive(transitions) -> bool:
    """True iff the 0/1 matrix's digraph is strongly connected.

    Raises InvalidMatrixError for non-square or non-binary input.
    """
    return _strongly_connected(_as_binary_matrix(transitions))


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    """Alphabet {1..N}, N >= 2, with a strongly connected 0/1 transition matrix."""

    transitions: np.ndarray
    _table_cache: dict = field(default_factory=dict, init=False, repr=False)  # word tables by key, each read-only

    def __post_init__(self):
        arr = _as_binary_matrix(self.transitions)
        if arr.shape[0] < 2:
            raise InvalidMatrixError("alphabet size must be at least 2")
        if (arr.sum(axis=1) == 0).any() or (arr.sum(axis=0) == 0).any():
            raise InvalidMatrixError("every symbol needs an outgoing and an incoming transition")
        if not _strongly_connected(arr):
            raise InvalidMatrixError("transition digraph must be strongly connected")
        _frozen(self, transitions=arr)  # astype made arr a copy: the caller's matrix stays writable
        self._table_cache["words", 1] = _read_only(np.arange(1, len(arr) + 1, dtype=np.int64)[:, None])

    @property
    def alphabet_size(self) -> int:
        return self.transitions.shape[0]

    def successors(self, symbol: int) -> tuple[int, ...]:
        if not self.admits((symbol,)):
            raise ValueError(f"symbol {symbol} is not in the alphabet 1..{self.alphabet_size}")
        return tuple(int(j) + 1 for j in np.flatnonzero(self.transitions[symbol - 1]))

    def _fault(self, rows: np.ndarray):
        """(i, j) of the first symbol outside 1..N, else of the first one its next may not follow; None if none."""
        n = self.alphabet_size
        bad = (rows < 1) | (rows > n)
        if not bad.any():
            pairs = rows[:, :-1] * n
            pairs += rows[:, 1:]
            pairs -= n + 1
            bad = self.transitions.ravel()[pairs.astype(np.intp, copy=False)] == 0
        return tuple(np.argwhere(bad)[0]) if bad.any() else None

    def check_rows(self, lo: int, rows: np.ndarray):
        """Raise ValueError unless every row of symbols on lo.. is an admissible word."""
        fault = self._fault(rows)
        if fault is None:
            return
        (i, j), n = fault, self.alphabet_size
        if not 1 <= rows[i, j] <= n:
            raise ValueError(f"symbol {rows[i, j]} at coordinate {lo + j} of point {i} is not in the alphabet 1..{n}")
        raise ValueError(
            f"transition {rows[i, j]} -> {rows[i, j + 1]} at coordinates {lo + j}, {lo + j + 1} "
            f"of point {i} is forbidden"
        )

    def admits(self, symbols) -> bool:
        """True iff every symbol is in 1..N and consecutive symbols follow allowed transitions."""
        return self._fault(np.array([tuple(symbols)])) is None

    def _table(self, key: tuple, build):
        if key not in self._table_cache:
            self._table_cache[key] = _read_only(build())
        return self._table_cache[key]

    def word_array(self, length: int) -> np.ndarray:
        """All admissible words of the given length as an int array (count, length), lexicographically ordered.

        np.nonzero extends the shorter words by their last symbols' successors row by row, which keeps the order.
        """
        if length < 1:
            raise ValueError("word length must be >= 1")
        if ("words", length) not in self._table_cache:
            shorter = self.word_array(length - 1)
            rows, last = np.nonzero(self.transitions[shorter[:, -1] - 1])
            self._table_cache["words", length] = _read_only(np.column_stack([shorter[rows], last + 1]))
        return self._table_cache["words", length]

    def words(self, length: int) -> tuple[tuple[int, ...], ...]:
        """word_array(length) as tuples, for callers that key by word."""
        return self._table(("tuples", length), lambda: tuple(map(tuple, self.word_array(length).tolist())))

    def word_ranks(self, rows: np.ndarray, start: int, length: int) -> np.ndarray:
        """Rank in words(length) of each row's admissible word in columns start..start+length-1.

        Positional codes of words of one length are in lexicographic order. They are int64, so
        ResourceBoundError if N^length exceeds 2^63, where a code could wrap onto another word's.
        """
        if self.alphabet_size**length > 2**63:
            raise ResourceBoundError(f"words of length {length} over {self.alphabet_size} symbols exceed int64 codes")
        place = self._table(("place", length), lambda: self.alphabet_size ** np.arange(length, dtype=np.int64)[::-1])
        codes = self._table(("codes", length), lambda: (self.word_array(length) - 1) @ place)
        return np.searchsorted(codes, (rows[:, start : start + length] - 1) @ place)

    def sub_ranks(self, length: int, start: int, sub_length: int) -> np.ndarray:
        """For each word of words(length), the rank of its subword at start..start+sub_length-1."""
        return self._table(
            ("sub", length, start, sub_length), lambda: self.word_ranks(self.word_array(length), start, sub_length)
        )

    def window_ranks(self, window: tuple[int, int], target: tuple[int, int]) -> np.ndarray:
        """For each word on the target window, the rank of its restriction to the window inside it.

        A gather with these ranks re-keys a per-word array onto the target window.
        """
        (L, R), (L2, R2) = window, target
        if L2 < L or R2 < R:
            raise ValueError(f"target window {tuple(target)} does not contain {tuple(window)}")
        return self.sub_ranks(L2 + R2 + 1, L2 - L, L + R + 1)

    def first_extensions(self, length: int, start: int, sub_length: int) -> np.ndarray:
        """For each word of words(sub_length), the index of the first word of words(length)
        whose subword at start..start+sub_length-1 it is."""
        return self._table(
            ("first", length, start, sub_length),
            lambda: np.unique(self.sub_ranks(length, start, sub_length), return_index=True)[1],
        )

    def same_base(self, other: "TransitionSystem") -> bool:
        return np.array_equal(self.transitions, other.transitions)


def stationary_distribution(stochastic) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by direct linear solve.

    One balance equation is replaced by the normalization row; the support
    pattern must be irreducible (otherwise the chain is not ergodic).
    """
    P = np.asarray(stochastic, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.size == 0:
        raise InvalidMatrixError("stochastic matrix must be square and nonempty")
    if (P < 0).any() or (P > 1).any() or not np.isfinite(P).all():
        raise InvalidMatrixError("stochastic entries must lie in [0, 1]")
    if np.abs(P.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise InvalidMatrixError("stochastic rows must sum to 1 within 1e-12")
    if not _strongly_connected((P > 0).astype(np.int8)):
        raise NotErgodicError("stochastic support pattern is reducible")
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.abs(pi @ P - pi).max()
    if residual >= STATIONARY_RESIDUAL_TOL:
        raise NotErgodicError(f"stationary residual {residual:.3e} exceeds 1e-10")
    return pi


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Stochastic matrix compatible with a transition system, plus its stationary vector."""

    base: TransitionSystem
    stochastic: np.ndarray
    stationary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        P = np.array(self.stochastic, dtype=float)
        A = self.base.transitions
        if P.shape != A.shape:
            raise InvalidMatrixError("stochastic matrix shape must match the transition matrix")
        if not ((P > 0) == (A == 1)).all():
            raise InvalidMatrixError("stochastic support must match the transition pattern exactly")
        pi = stationary_distribution(P)
        _frozen(self, stochastic=P, stationary=pi, _cum_start=np.cumsum(pi), _cum_rows=np.cumsum(P, axis=1))


def _symbols(values) -> tuple[int, ...]:
    """values as a tuple of ints; ValueError if one is a float, a bool, a string or below 1 (numpy integers pass)."""
    syms = tuple(values)
    if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in syms):
        raise ValueError(f"symbols must be integers, got {syms!r}")
    if any(s < 1 for s in syms):
        raise ValueError("symbols are 1-based positive integers")
    return tuple(map(int, syms))


def _at_least(value, least: int, what: str) -> int:
    """The value as a plain int; ValueError unless it is an integer >= least (a bool is not)."""
    try:
        if not isinstance(value, bool) and operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def _window_pair(window, what: str) -> tuple[int, int]:
    """The window's two offsets as plain ints >= 0 (see _at_least); ValueError naming the window unless it is a pair."""
    offsets = tuple(window)
    if len(offsets) != 2:
        raise ValueError(f"{what} must be a pair of offsets, got {window!r}")
    return tuple(_at_least(k, 0, f"{what} offset") for k in offsets)


def _symbol_rows(rows) -> np.ndarray:
    """rows as int64, or as Python ints if a symbol is beyond int64, for check_rows to refuse it by value."""
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        return np.asarray(rows, dtype=object)


@dataclass(frozen=True)
class SymbolWindow:
    """Finite two-sided window: symbols occupying indices offset..offset+len-1.

    Admissibility is checked where a transition system is available; a window
    built for one system may be measured under another.
    """

    offset: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        # the integer rule of _at_least: any integer, numpy's too, never a bool
        if isinstance(self.offset, bool) or not isinstance(self.offset, (int, np.integer)) or self.offset > 0:
            raise ValueError("window offset must be an integer <= 0")
        syms = _symbols(self.symbols)
        if not syms:
            raise ValueError("window must be nonempty")
        _frozen(self, offset=int(self.offset), symbols=syms)

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + len(self.symbols) - 1

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def symbol(self, index: int) -> int:
        if not (self.lo <= index <= self.hi):
            raise WindowTooShortError((index, index), (self.lo, self.hi), "symbol access")
        return self.symbols[index - self.offset]

    def word(self, lo: int, hi: int) -> tuple[int, ...]:
        """Symbols on [lo, hi] as a word."""
        if not self.covers(lo, hi):
            raise WindowTooShortError((lo, hi), (self.lo, self.hi), "word extraction")
        start = lo - self.offset
        return self.symbols[start : start + (hi - lo + 1)]


@dataclass(frozen=True)
class WindowMetric:
    """Result of comparing two windows under the 2^-|n| sequence metric.

    ``value`` is the exact metric when a disagreement exists in the shared
    range, and 0 otherwise; ``upper_bound`` is what the metric of any pair of
    underlying sequences can be at most; ``exact`` flags the first case.
    """

    value: float
    upper_bound: float
    exact: bool


def metric(a: SymbolWindow, b: SymbolWindow) -> WindowMetric:
    """Sequence metric restricted to the shared index range of two windows.

    Agreement on the whole shared range returns value 0 flagged inexact, with
    upper_bound 2^-(radius+1) where radius = min(-lo, hi) of the shared range.
    """
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        raise IncomparableWindowsError(
            f"windows cover [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}]: no shared range"
        )
    best: int | None = None
    for n in range(lo, hi + 1):
        if a.symbol(n) != b.symbol(n) and (best is None or abs(n) < best):
            best = abs(n)
    if best is not None:
        v = 2.0 ** (-best)
        return WindowMetric(v, v, True)
    radius = min(-lo, hi)
    return WindowMetric(0.0, min(1.0, 2.0 ** (-(radius + 1))), False)


def cylinder_measure(chain: MarkovChain, window: SymbolWindow) -> float:
    """Markov measure of the cylinder fixed by the window; 0 if the window is not a word of the base.

    Shift-invariant: the offset does not enter.
    """
    syms = window.symbols
    if not chain.base.admits(syms):
        return 0.0
    m = float(chain.stationary[syms[0] - 1])
    for a, b in zip(syms, syms[1:]):
        m *= float(chain.stochastic[a - 1, b - 1])
    return m


@dataclass(frozen=True)
class PeriodicWord:
    """Cyclically admissible word; repeating it two-sidedly gives a periodic point."""

    symbols: tuple[int, ...]
    minimal_period: int = field(init=False)

    def __post_init__(self):
        syms = _symbols(self.symbols)
        if not syms:
            raise ValueError("periodic word must be nonempty")
        n = len(syms)
        period = n
        for d in range(1, n):
            if n % d == 0 and all(syms[i] == syms[(i + d) % n] for i in range(n)):
                period = d
                break
        _frozen(self, symbols=syms, minimal_period=period)

    def symbol(self, index: int) -> int:
        return self.symbols[index % len(self.symbols)]

    def window(self, lo: int, hi: int) -> SymbolWindow:
        """Materialize the periodic point on [lo, hi]."""
        return SymbolWindow(lo, tuple(self.symbol(i) for i in range(lo, hi + 1)))


def periodic_words(system: TransitionSystem, n: int) -> list[PeriodicWord]:
    """All cyclically admissible words of length n; count equals trace(transitions^n)."""
    return [PeriodicWord(w) for w in system.words(_at_least(n, 1, "period length")) if system.transitions[w[-1] - 1, w[0] - 1]]


def sample_window(chain: MarkovChain, left: int, right: int, rng: np.random.Generator) -> SymbolWindow:
    """Window on [left, right] sampled from the Markov measure; deterministic given rng state."""
    if left > 0 or right < 0:
        raise ValueError("need left <= 0 <= right")
    width = right - left + 1
    u = rng.random(width)
    syms = _symbols_from_uniforms(chain, u[None, :])[0]
    return SymbolWindow(left, tuple(int(s) for s in syms))


def _symbols_from_uniforms(chain: MarkovChain, u: np.ndarray) -> np.ndarray:
    """Map a block of uniforms (n, width) to Markov-sampled symbol rows (1-based).

    Row i is sample i's private randomness, so results do not depend on how
    rows are chunked across workers. Columns are drawn one after another
    into a narrow (width, n) buffer: the next symbol counts the thresholds
    of the current one's cumulative row that lie at or below the uniform.
    Threshold k counts only where a later symbol of its row has positive
    probability (inf elsewhere), so that a uniform above a row sum just below
    1 picks no forbidden symbol; the last threshold never counts.
    """
    n, width = u.shape
    nsym = chain.base.alphabet_size
    P = chain.stochastic
    thresholds = [np.where((P[:, k + 1 :] > 0).any(axis=1), chain._cum_rows[:, k], np.inf) for k in range(nsym - 1)]
    out = np.empty((n, width), dtype=np.int64)
    drawn = np.empty((width, n), dtype=np.min_scalar_type(nsym))
    prev = drawn[0] = np.minimum(np.searchsorted(chain._cum_start, u[:, 0], side="right"), nsym - 1)
    for j in range(1, width):
        uj = u[:, j]
        count = np.zeros(n, dtype=np.int64)
        for column in thresholds:
            count += np.take(column, prev) <= uj
        prev = drawn[j] = count
    out[...] = drawn.T
    out += 1
    return out
