"""Parametric orientation-preserving interval diffeomorphisms with a rigor layer.

Four closed-form families: affine maps, affine maps with a quadratic bump,
plateau maps that are the identity on an inner interval, and post-compositions
with an endpoint-fixing bump (used by monotone one-parameter families).
All class checks use closed-form derivative and endpoint bounds, not sampling.
Evaluation and derivative methods accept floats or numpy arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import _exact_record

# Outward rounding margin for interval images and certified comparisons.
# A fixed margin is portable and dominates accumulated rounding at the
# composition depths used here (<= 64).
EPS_ROUND = 1e-13
INVERT_TOL = 1e-12
_BISECT_STEPS = 60
# Bisection rounds whose midpoint lo + 2^-k is a dyadic of at most 53 bits.
# Affine maps run only the last two, in a bracket verified on every column;
# monotone rounding makes the result exact (see _affine_start).
_DYADIC_STEPS = 53


@dataclass(frozen=True)
class RealInterval:
    """Closed subinterval of [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class ClassCheck:
    """Outcome of a map-class validation; falsy with a reason on failure."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_OK = ClassCheck(True)


@dataclass(frozen=True)
class Affine:
    """x -> a + b*x."""

    a: float
    b: float

    form = "affine"

    def eval(self, x):
        return self.a + self.b * x

    def derivative(self, x):
        if isinstance(x, np.ndarray):
            return np.full(np.broadcast_shapes(x.shape, np.shape(self.b)), self.b, dtype=float)
        return self.b

    def derivative_range(self, lo: float, hi: float) -> tuple[float, float]:
        return (self.b, self.b)

    def second_derivative_bound(self) -> float:
        return 0.0

    def third_derivative_bound(self) -> float:
        return 0.0

    def class_check(self) -> ClassCheck:
        if not all(math.isfinite(v) for v in (self.a, self.b)):
            return ClassCheck(False, "parameters must be finite")
        if self.b <= 0:
            return ClassCheck(False, f"derivative bound b = {self.b} is not positive")
        if self.a <= 0:
            return ClassCheck(False, f"f(0) = {self.a} is not > 0")
        if self.a + self.b >= 1:
            return ClassCheck(False, f"f(1) = {self.a + self.b} is not < 1")
        return _OK


@dataclass(frozen=True)
class BumpedAffine:
    """x -> a + b*x + c*x*(1-x)."""

    a: float
    b: float
    c: float

    form = "bumped_affine"

    def eval(self, x):
        return self.a + self.b * x + self.c * x * (1.0 - x)

    def derivative(self, x):
        return self.b + self.c * (1.0 - 2.0 * x)

    def derivative_range(self, lo: float, hi: float) -> tuple[float, float]:
        e1 = self.b + self.c * (1.0 - 2.0 * lo)
        e2 = self.b + self.c * (1.0 - 2.0 * hi)
        return (min(e1, e2), max(e1, e2))

    def second_derivative_bound(self) -> float:
        return 2.0 * abs(self.c)

    def third_derivative_bound(self) -> float:
        return 0.0

    def class_check(self) -> ClassCheck:
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            return ClassCheck(False, "parameters must be finite")
        if self.b - abs(self.c) <= 0:
            return ClassCheck(False, f"derivative bound b - |c| = {self.b - abs(self.c)} is not positive")
        if self.a <= 0:
            return ClassCheck(False, f"f(0) = {self.a} is not > 0")
        if self.a + self.b >= 1:
            return ClassCheck(False, f"f(1) = {self.a + self.b} is not < 1")
        return _OK


@dataclass(frozen=True)
class Plateau:
    """Identity on [j_lo, j_hi], quadratic push-in outside; C^1 at the joins.

    f(x) = x + c1*(j_lo - x)^2 below j_lo, x on the plateau,
    x - c1*(x - j_hi)^2 above j_hi, squaring by multiplication (never pow).
    A float runs as a 0-d array, unwrapped by [()] to a numpy float, so it
    gets the bits of the same float inside an array.
    """

    c1: float
    j_lo: float
    j_hi: float

    form = "plateau"

    def eval(self, x):
        d_lo = self.j_lo - x
        d_hi = x - self.j_hi
        return np.where(
            x < self.j_lo,
            x + self.c1 * (d_lo * d_lo),
            np.where(x > self.j_hi, x - self.c1 * (d_hi * d_hi), x),
        )[()]

    def derivative(self, x):
        return np.where(
            x < self.j_lo,
            1.0 - 2.0 * self.c1 * (self.j_lo - x),
            np.where(x > self.j_hi, 1.0 - 2.0 * self.c1 * (x - self.j_hi), 1.0),
        )[()]

    def derivative_range(self, lo: float, hi: float) -> tuple[float, float]:
        # slope is unimodal: increases to 1 at j_lo, flat, then decreases
        d_lo = float(self.derivative(lo))
        d_hi = float(self.derivative(hi))
        if hi < self.j_lo or lo > self.j_hi:
            return (min(d_lo, d_hi), max(d_lo, d_hi))
        return (min(d_lo, d_hi), 1.0)

    def second_derivative_bound(self) -> float:
        return 2.0 * self.c1

    def third_derivative_bound(self) -> float:
        return 0.0

    def class_check(self) -> ClassCheck:
        if not all(math.isfinite(v) for v in (self.c1, self.j_lo, self.j_hi)):
            return ClassCheck(False, "parameters must be finite")
        if not (0.0 < self.j_lo <= self.j_hi < 1.0):
            return ClassCheck(False, f"need 0 < j_lo <= j_hi < 1, got ({self.j_lo}, {self.j_hi})")
        if self.c1 <= 0:
            return ClassCheck(False, f"c1 = {self.c1} is not positive")
        slope_lb = 1.0 - 2.0 * self.c1 * max(self.j_lo, 1.0 - self.j_hi)
        if slope_lb <= 0:
            return ClassCheck(False, f"derivative bound {slope_lb} is not positive")
        return _OK


def _bump(y, amount):
    return y + amount * y * (1.0 - y)


def _bump_slope(y, amount):
    return 1.0 + amount * (1.0 - 2.0 * y)


@dataclass(frozen=True)
class BumpComposed:
    """psi o inner, where psi(y) = y + amount*y*(1-y) fixes both endpoints.

    The bump keeps 0 and 1 fixed, so class membership reduces to the inner
    map's endpoint checks plus a positive slope bound on the inner image.
    """

    amount: float
    inner: "FiberMap"

    form = "bump_composed"

    def eval(self, x):
        return _bump(self.inner.eval(x), self.amount)

    def derivative(self, x):
        y = self.inner.eval(x)
        return _bump_slope(y, self.amount) * self.inner.derivative(x)

    def derivative_range(self, lo: float, hi: float) -> tuple[float, float]:
        y_lo = float(self.inner.eval(lo)) - EPS_ROUND
        y_hi = float(self.inner.eval(hi)) + EPS_ROUND
        p1 = _bump_slope(y_lo, self.amount)
        p2 = _bump_slope(y_hi, self.amount)
        i_lo, i_hi = self.inner.derivative_range(lo, hi)
        candidates = [p * d for p in (p1, p2) for d in (i_lo, i_hi)]
        return (min(candidates), max(candidates))

    def second_derivative_bound(self) -> float:
        s_hi = self.inner.derivative_range(0.0, 1.0)[1]
        psi_slope_hi = 1.0 + abs(self.amount)
        return 2.0 * abs(self.amount) * s_hi * s_hi + psi_slope_hi * self.inner.second_derivative_bound()

    def third_derivative_bound(self) -> float:
        s_hi = self.inner.derivative_range(0.0, 1.0)[1]
        return (
            6.0 * abs(self.amount) * s_hi * self.inner.second_derivative_bound()
            + (1.0 + abs(self.amount)) * self.inner.third_derivative_bound()
        )

    def class_check(self) -> ClassCheck:
        if not math.isfinite(self.amount):
            return ClassCheck(False, "bump amount must be finite")
        inner_check = self.inner.class_check()
        if not inner_check:
            return ClassCheck(False, f"inner map: {inner_check.reason}")
        y0 = float(self.inner.eval(0.0))
        y1 = float(self.inner.eval(1.0))
        slope_lb = min(_bump_slope(y0, self.amount), _bump_slope(y1, self.amount))
        if slope_lb <= 0:
            return ClassCheck(False, f"bump slope bound {slope_lb} on the inner image is not positive")
        f0 = _bump(y0, self.amount)
        f1 = _bump(y1, self.amount)
        if f0 <= 0:
            return ClassCheck(False, f"f(0) = {f0} is not > 0")
        if f1 >= 1:
            return ClassCheck(False, f"f(1) = {f1} is not < 1")
        return _OK


FiberMap = Affine | BumpedAffine | Plateau | BumpComposed

_FORMS = {"affine": Affine, "bumped_affine": BumpedAffine, "plateau": Plateau, "bump_composed": BumpComposed}
# the keys of a map record by form, and of its "parameters": the form's fields, a bump_composed's inner map aside
_RECORD_KEYS = dict.fromkeys(_FORMS, frozenset({"form", "parameters"}))
_RECORD_KEYS["bump_composed"] = frozenset({"form", "parameters", "inner"})
_PARAMETER_KEYS = {form: frozenset(k.name for k in fields(cls) if k.name != "inner") for form, cls in _FORMS.items()}


def _params(f: FiberMap) -> dict:
    """A map's parameters by name: its dataclass fields in order, a bump_composed's inner map left out."""
    return {k.name: getattr(f, k.name) for k in fields(f) if k.name != "inner"}


def _form_key(f: FiberMap) -> str:
    return f"{f.form}.{_form_key(f.inner)}" if isinstance(f, BumpComposed) else f.form


def _stacked(maps) -> FiberMap:
    """One map of the maps' common form whose parameters are arrays over the maps."""
    rows = [_params(m) for m in maps]
    params = {name: np.array([row[name] for row in rows], dtype=float) for name in rows[0]}
    if isinstance(maps[0], BumpComposed):
        return BumpComposed(inner=_stacked([m.inner for m in maps]), **params)
    return type(maps[0])(**params)


def _indexed(f: FiberMap, index) -> FiberMap:
    """A stacked map with every parameter array indexed by index."""
    params = {name: v[index] for name, v in _params(f).items()}
    if isinstance(f, BumpComposed):
        return BumpComposed(inner=_indexed(f.inner, index), **params)
    return type(f)(**params)


class MapStack:
    """Fiber maps ordered by form and evaluated on arrays, one call per form.

    The maps of one form are evaluated as one map whose parameters are arrays
    over them. Broadcasting runs, per element, the IEEE operations of a
    scalar call, so every value is bit-identical to maps[k].eval(x).
    """

    def __init__(self, maps):
        self.maps = tuple(sorted(maps, key=_form_key))

    @functools.cached_property
    def _forms(self) -> list:
        """Per form: start and stop in maps, the stacked map, and the same with parameter columns.

        Built on the first evaluation, so a stack read only for its maps stacks nothing.
        """
        forms, start = [], 0
        for _, run in itertools.groupby(self.maps, key=_form_key):
            run = list(run)
            stacked = _stacked(run)
            forms.append((start, start + len(run), stacked, _indexed(stacked, (slice(None), None))))
            start += len(run)
        return forms

    def eval_all(self, x: np.ndarray) -> np.ndarray:
        """(len(maps), len(x)) values: row k is maps[k] on the 1-d array x."""
        rows = [columns.eval(x) for *_, columns in self._forms]
        return rows[0] if len(rows) == 1 else np.concatenate(rows)

    def eval_columns(self, which: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Values of a 2-d array x whose entry (i, j) is mapped by maps[which[i, j]]; which broadcasts against x."""
        if len(self._forms) == 1:
            return _indexed(self._forms[0][2], which).eval(x)
        which, out = np.broadcast_to(which, x.shape), np.empty_like(x)
        for start, stop, stacked, _ in self._forms:
            mask = (start <= which) & (which < stop)
            out[mask] = _indexed(stacked, which[mask] - start).eval(x[mask])
        return out


def _joined(groups) -> tuple[MapStack, list]:
    """The groups' maps joined by value into one MapStack, and per group the index there of each of its maps.

    Maps are frozen dataclasses, so equal parameters run identical float operations and any one of
    them gives the same results bit for bit. The one case where == does not mean identical bits is
    -0.0 against 0.0, and an in-class map only ever adds such a parameter's term to a nonzero value
    (c in a + b*x + c*x*(1-x) and b + c*(1-2x), a bump amount in y + amount*y*(1-y)) or takes its abs.
    """
    maps = MapStack(dict.fromkeys(f for group in groups for f in group))
    index = {f: i for i, f in enumerate(maps.maps)}
    return maps, [np.array([index[f] for f in group], dtype=np.int64) for group in groups]


def validate_class(f: FiberMap) -> ClassCheck:
    """Closed-form check that f is an increasing diffeomorphism sending [0,1] strictly inside."""
    return f.class_check()


def derivative(f: FiberMap, x):
    """Exact analytic derivative at x in [0, 1]."""
    _check_domain(x)
    return f.derivative(x)


def _check_domain(x):
    arr = np.asarray(x)
    if arr.size and not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ValueError("argument outside [0, 1]")


def invert(f: FiberMap, y):
    """Unique x in [0, 1] with f(x) = y, by monotone bisection refined by Newton.

    y must lie in [f(0), f(1)] up to INVERT_TOL slack, else ValueError (NaN
    included). Accepts scalars or arrays. A stacked map, whose parameters are
    (k,) arrays, inverts the columns of an (n, k) y in lockstep, column j by
    map j, with the bits of k separate calls. An affine map whose every
    column passes its check starts the bisection from a bracket four units of
    2^-53 wide around (y - a)/b instead of from 0, and otherwise runs all 53
    rounds (see _affine_start). It ends the dyadic rounds on the same lo, so
    the result has the same bits.
    """
    scalar = np.isscalar(y) or (isinstance(y, np.ndarray) and y.ndim == 0)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    f0, f1 = f.eval(np.zeros(1)), f.eval(np.ones(1))
    # f(0) and f(1) are constant down a column, so its least and greatest target decide; NaN reaches both
    y_min, y_max = ys.min(axis=0, initial=np.inf), ys.max(axis=0, initial=-np.inf)
    if not ((y_min >= f0 - INVERT_TOL) & (y_max <= f1 + INVERT_TOL)).all():
        f0, f1, ys = np.broadcast_arrays(f0, f1, ys)
        at = np.unravel_index(np.argmax(~((ys >= f0 - INVERT_TOL) & (ys <= f1 + INVERT_TOL))), ys.shape)
        raise ValueError(f"value outside the image [{f0[at]}, {f1[at]}]")
    if (y_min < f0).any() or (y_max > f1).any():
        ys = np.clip(ys, f0, f1)
    lo = _affine_start(f, ys) if isinstance(f, Affine) and ys.size else None
    if lo is None:
        lo = _dyadic_rounds(f, ys, np.zeros_like(ys), 1)
    hi = lo + 2.0**-_DYADIC_STEPS
    # lo passes the test or is 0, hi fails it or is 1: a midpoint rounding to either changes nothing, then or
    # later, so a round runs on the rows from the first to the last with one inside (lo, hi). lo stays 0 or at
    # least hi - lo and mid >= hi/2, so mid - lo and hi - mid are exact (Sterbenz): an update lands on mid or adds 0
    rows, cols = slice(0, len(ys)), tuple(range(1, ys.ndim))
    for _ in range(_BISECT_STEPS - _DYADIC_STEPS):
        mid = 0.5 * (lo[rows] + hi[rows])
        moving = np.flatnonzero(((lo[rows] < mid) & (mid < hi[rows])).any(axis=cols))
        if not moving.size:
            break
        mid = mid[moving[0] : moving[-1] + 1]
        rows = slice(rows.start + moving[0], rows.start + moving[-1] + 1)
        below = f.eval(mid) < ys[rows]
        lo[rows] += below * (mid - lo[rows])
        hi[rows] -= ~below * (hi[rows] - mid)
    x = 0.5 * (lo + hi)
    step = np.empty_like(x)
    for _ in range(2):
        step = _eval_into(f, x, step)
        step -= ys
        step /= _slope(f, x)
        np.subtract(x, step, out=x)
        np.clip(x, 0.0, 1.0, out=x)
    return float(x[0]) if scalar else x


def _eval_into(f: FiberMap, x, out):
    """f(x); an affine map writes Affine.eval's a + b*x into out, the same ops with no temporary.

    Under glibc's malloc a fresh temporary the size of a (1025, 32) block of
    invert is often returned to the system when freed and faults its pages
    in again when next allocated, so invert's affine steps evaluate into
    buffers they keep.
    """
    if isinstance(f, Affine):
        return np.add(f.a, np.multiply(f.b, x, out=out), out=out)
    return f.eval(x)


def _slope(f: FiberMap, x):
    """f.derivative(x), except that an affine map gives its b: broadcast, it has the values of the full array."""
    return f.b if isinstance(f, Affine) else f.derivative(x)


def _dyadic_rounds(f: FiberMap, ys, lo, first: int):
    """Rounds first..53 of the bisection: lo becomes lo + 2^-k wherever f(lo + 2^-k) < y.

    While hi - lo = 2^(1-k) for k <= 53, every lo is a multiple of 2^(1-k)
    below 1, so lo + 2^-k is exactly 0.5*(lo + hi): only lo is kept, in place.
    Adding below * 2^-k is exact too (lo + 0 is lo), and unlike a masked copy
    it does not branch on every element.
    """
    mid = np.empty_like(ys)
    below = np.empty(ys.shape, dtype=bool)
    for k in range(first, _DYADIC_STEPS + 1):
        np.add(lo, 2.0**-k, out=mid)
        np.less(_eval_into(f, mid, mid), ys, out=below)
        np.multiply(below, 2.0**-k, out=mid)
        lo += mid
    return lo


def _affine_start(f: Affine, ys):
    """lo after the 53 dyadic rounds, searched in a verified bracket; None to run all 53.

    For b > 0, m -> fl(a + fl(b*m)) is non-decreasing (rounding to nearest is
    monotone), so the test f(j*2^-53) < y is true up to some j and false
    after it. The 53 rounds from 0 then end at J*2^-53, with J the largest j
    in [1, 2^53) passing the test, or 0. With G = floor(fl(fl(y - a)/b) * 2^53),
    the bracket [G - 3, G + 1] in units of 2^-53 (clipped to [0, 2^53]) holds
    J when its lower end passes the test (or is 0) and its upper end fails it
    (or is 2^53); rounds 52 and 53 from the lower end then find J. Rounding
    puts J a few units below G or at it: on the shipped ladder J - G is in
    {-3, ..., 0} for every target. Exactness rests on the check of every
    column, not on that bound: if any column fails it, the block runs all 53
    rounds, as other forms always do (their float evaluation is not provably monotone).
    """
    if not np.all(f.b > 0.0):
        return None
    units = 2.0**_DYADIC_STEPS
    lo = np.clip(np.floor((ys - f.a) / f.b * units) - 3.0, 0.0, units - 4.0) / units
    hi = lo + 2.0 ** (2 - _DYADIC_STEPS)
    val = np.empty_like(ys)
    if ((lo == 0.0) | (_eval_into(f, lo, val) < ys)).all() and ((hi == 1.0) | (_eval_into(f, hi, val) >= ys)).all():
        return _dyadic_rounds(f, ys, lo, _DYADIC_STEPS - 1)
    return None


def compose_along_word(maps, x):
    """Apply maps left to right; the empty word is the identity."""
    _check_domain(x)
    for m in maps:
        x = m.eval(x)
    return x


def interval_image(f: FiberMap, iv: RealInterval) -> RealInterval:
    """Outward-rounded enclosure of f(iv), valid by monotonicity."""
    lo = max(0.0, float(f.eval(iv.lo)) - EPS_ROUND)
    hi = min(1.0, float(f.eval(iv.hi)) + EPS_ROUND)
    return RealInterval(min(lo, hi), hi)


def map_to_json(f: FiberMap) -> dict:
    record = {"form": f.form, "parameters": _params(f)}
    if isinstance(f, BumpComposed):
        record["inner"] = map_to_json(f.inner)
    return record


def map_from_json(record: dict) -> FiberMap:
    """The map of a {"form", "parameters"} record (and "inner", a map record, for bump_composed and only there).

    ValueError for an unknown form; TypeError for a record key or parameter that is missing or unknown, or a
    parameter that is no number.
    """
    if not (isinstance(record, dict) and isinstance(record.get("parameters", {}), dict)):
        raise TypeError(f"a map and its parameters must be objects, got {record!r}")
    form = record.get("form")
    if form not in _FORMS:
        raise ValueError(f"unknown map form {form!r}")
    params = _exact_record(record, _RECORD_KEYS[form], "a map record")["parameters"]
    _exact_record(params, _PARAMETER_KEYS[form], f"{form} parameters")
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in params.values()):
        raise TypeError(f"map parameters must be numbers, got {params!r}")
    inner = {"inner": map_from_json(record["inner"])} if form == "bump_composed" else {}
    return _FORMS[form](**{k: float(v) for k, v in params.items()}, **inner)
