"""JSON run configuration: parsing and validation with field-anchored errors.

Schema (all sections are plain JSON, UTF-8, no comments):

    {
      "base": {"alphabet_size": 2, "transitions": [[1,1],[1,0]],
               "stochastic": [[0.6667,0.3333],[1.0,0.0]]},
      "product": {"window": [0,0],
                  "assignment": [{"word": [1], "map": {"form": "affine",
                                  "parameters": {"a": 0.1, "b": 0.8}}}, ...]},
      "continuous": {"template": "affine", "designated": "a",
                     "symbol_params": [{"a": 0.1, "b": 0.8}, ...],
                     "rho": [[0.01,-0.01],[0.006,-0.006]]},
      "family": {"kappa": 1.0, "tau_range": [-0.02, 0.02]},
      "analysis": {"depth": 8, "samples": 10000, "seed": 42,
                   "grid": "-0.02:0.02:0.002", "gap_epsilon": 0.05}
    }

Each record holds exactly its fields:

- the top level: the sections. "base" is required, and so is exactly one of "product" / "continuous";
  "family" is optional and applies to the product section;
- "base", "product", "continuous" and "family": every field shown, all required. "analysis": any of its
  fields, each of which may be left out;
- an "assignment" entry: "word" and "map", with each word listed once;
- a map record: "form" and "parameters", and "inner", a map record, for "bump_composed" and only there;
- "parameters": exactly those of the form: "affine" a, b; "bumped_affine" a, b, c; "plateau" c1, j_lo, j_hi;
  "bump_composed" amount.

Any other key, a misspelled one say, is refused as an unknown field and a field left out as a missing one: in
a section at its path ("base.alphabet_size"), and within an entry or map record as a malformed product or
continuous section.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResourceBoundError, _file_error, _unfit_key
from .measure import MIN_SAMPLES, MonotoneFamily
from .products import ContinuousProductSpec, MultistepSkewProduct
from .symbolic import MarkovChain, TransitionSystem

MAX_GRID_POINTS = 10**5  # most points of a "lo:hi:step" grid; the shipped sweep has 21


@dataclass
class AnalysisConfig:
    depth: int = 6
    samples: int = 1000
    seed: int = 0
    grid: list[float] | None = None
    gap_epsilon: float = 0.05


@dataclass
class RunConfig:
    base: TransitionSystem
    chain: MarkovChain
    product: MultistepSkewProduct | None
    continuous: ContinuousProductSpec | None
    family: MonotoneFamily | None
    analysis: AnalysisConfig


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not np.isfinite(v):
        raise ConfigError(path, "must be finite")
    return v


@contextmanager
def _anchored(path: str, malformed: str):
    """A section's ValueError as a ConfigError at path and its KeyError or TypeError
    as a malformed record at malformed; a ConfigError passes through."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    except (KeyError, TypeError) as exc:
        raise ConfigError(malformed, f"malformed record: {exc}")


def _matrix(value, dtype=None) -> np.ndarray:
    """A JSON matrix as an array; ValueError for a boolean entry, which numpy would read as 0 or 1."""
    if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
        raise ValueError("entries must be numbers, not booleans")
    return np.asarray(value, dtype=dtype)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def parse_grid_spec(text: str) -> list[float]:
    """Inclusive "lo:hi:step" grid of finite numbers, with at most MAX_GRID_POINTS points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("analysis.grid", f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        lo = hi = step = math.nan
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError("analysis.grid", f"lo, hi and step must be finite numbers, got {text!r}")
    if step <= 0 or hi < lo:
        raise ConfigError("analysis.grid", "need step > 0 and hi >= lo")
    steps = (hi - lo) / step  # inf where hi - lo overflows
    count = round(steps) if math.isfinite(steps) else math.inf
    if count >= MAX_GRID_POINTS:
        raise ResourceBoundError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(count + 1) if lo + i * step <= hi + 1e-12]


def _grid(value, path: str) -> list[float]:
    if isinstance(value, str):
        return parse_grid_spec(value)
    if isinstance(value, list):
        return [_number(t, f"{path}[{i}]") for i, t in enumerate(value)]
    raise ConfigError(path, "expected a list or a lo:hi:step string")


def _window(value, path: str) -> list[int]:
    if not (isinstance(value, list) and len(value) == 2 and all(_integer(v, path) >= 0 for v in value)):
        raise ConfigError(path, f"expected [l, r] with integers l, r >= 0, got {value!r}")
    return value


def _tau_range(value, path: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(path, "expected [tau_min, tau_max]")
    return tuple(_number(t, f"{path}[{i}]") for i, t in enumerate(value))


# each section's fields and their parsers, in the order a config's fields are checked; None where the
# section's constructor checks the field. The sections are the top level's fields.
_FIELDS = {
    "base": {"transitions": None, "stochastic": None, "alphabet_size": _integer},
    "product": {"window": _window, "assignment": None},
    "continuous": {"template": None, "designated": None, "symbol_params": None, "rho": None},
    "family": {"kappa": _number, "tau_range": _tau_range},
    "analysis": {"depth": _integer, "samples": _integer, "seed": _integer, "gap_epsilon": _number, "grid": _grid},
}


def _check_keys(record, fields, required, path: str) -> None:
    if not isinstance(record, dict):
        raise ConfigError(path, "must be an object")
    bad = _unfit_key(record, fields, required)
    if bad:
        raise ConfigError(f"{path}.{bad[0]}", bad[1])


def _sections(raw: dict, flags: dict) -> dict[str, dict]:
    """Each present section's fields, parsed, then the flags' analysis fields: ConfigError at the top level's first
    unknown key or a missing "base", then section by section at the first bad record, key or value."""
    _check_keys(raw, _FIELDS, ("base",), "config")  # a misspelled section is named before the sections it leaves missing
    sections = {}
    for name, parsers in _FIELDS.items():
        if name in raw:
            _check_keys(raw[name], parsers, () if name == "analysis" else parsers, name)
            sections[name] = {key: parse(raw[name][key], f"{name}.{key}") if parse else raw[name][key]
                              for key, parse in parsers.items() if key in raw[name]}
    analysis = sections.setdefault("analysis", {})
    for key, parse in _FIELDS["analysis"].items():
        if flags.get(key) is not None:
            analysis[key] = parse(flags[key], f"analysis.{key}")
    return sections


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error("config", path, exc) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be an object")
    return parse_config(raw, overrides)


def parse_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    sections = _sections(raw, overrides or {})
    rec = sections["base"]
    with _anchored("base.transitions", "base.transitions"):
        base = TransitionSystem(_matrix(rec["transitions"]))
    if rec["alphabet_size"] != base.alphabet_size:
        raise ConfigError("base.alphabet_size", f"declared {rec['alphabet_size']}, matrix has {base.alphabet_size}")
    with _anchored("base.stochastic", "base.stochastic"):
        chain = MarkovChain(base, _matrix(rec["stochastic"], float))

    product = None
    continuous = None
    if ("product" in sections) == ("continuous" in sections):
        raise ConfigError("config", "exactly one of 'product' or 'continuous' is required")
    if "product" in sections:
        with _anchored("product.assignment", "product"):
            product = MultistepSkewProduct.from_json(base, chain, sections["product"])
    else:
        rec = sections["continuous"]
        with _anchored("continuous", "continuous"):
            continuous = ContinuousProductSpec(base, chain, str(rec["template"]), str(rec["designated"]),
                                               tuple(rec["symbol_params"]), np.asarray(rec["rho"], dtype=float))

    family = None
    if "family" in sections:
        if product is None:
            raise ConfigError("family", "a family needs a 'product' section as its base")
        with _anchored("family", "family"):
            family = MonotoneFamily(product, sections["family"]["kappa"], sections["family"]["tau_range"])

    analysis = AnalysisConfig(**sections["analysis"])
    if analysis.depth < 0:
        raise ConfigError("analysis.depth", "must be nonnegative")
    if analysis.seed < 0:
        raise ConfigError("analysis.seed", "must be nonnegative")
    if analysis.samples < MIN_SAMPLES:
        raise ConfigError("analysis.samples", f"need at least {MIN_SAMPLES} samples")

    return RunConfig(base, chain, product, continuous, family, analysis)
