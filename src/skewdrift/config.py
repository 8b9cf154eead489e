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

Exactly one of "product" / "continuous" is required; "family" is optional and
applies to the product section. A map's "parameters" are exactly those of its
form: "affine" a, b; "bumped_affine" a, b, c; "plateau" c1, j_lo, j_hi; and
"bump_composed" amount, with its "inner" map record beside "parameters".
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResourceBoundError, _file_error
from .measure import MonotoneFamily
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


def _expect(record: dict, key: str, path: str):
    if not isinstance(record, dict):
        raise ConfigError(path, "must be an object")
    if key not in record:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return record[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not np.isfinite(v):
        raise ConfigError(path, "must be finite")
    return v


@contextmanager
def _anchored(path: str, malformed: str | None = None):
    """A section's ValueError as a ConfigError at path and, if malformed is given,
    its KeyError or TypeError as a malformed record there; a ConfigError passes through."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    except (KeyError, TypeError) as exc:
        if malformed is None:
            raise
        raise ConfigError(malformed, f"malformed record: {exc}")


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def parse_grid_spec(text: str) -> list[float]:
    """Inclusive "lo:hi:step" grid of finite numbers, with at most MAX_GRID_POINTS points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("grid", f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        lo = hi = step = math.nan
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError("grid", f"lo, hi and step must be finite numbers, got {text!r}")
    if step <= 0 or hi < lo:
        raise ConfigError("grid", "need step > 0 and hi >= lo")
    steps = (hi - lo) / step  # inf where hi - lo overflows
    count = round(steps) if math.isfinite(steps) else math.inf
    if count >= MAX_GRID_POINTS:
        raise ResourceBoundError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(count + 1) if lo + i * step <= hi + 1e-12]


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
    return parse_config(raw, overrides or {})


def parse_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    overrides = overrides or {}
    base_rec = _expect(raw, "base", "config")
    transitions, stochastic = (_expect(base_rec, key, "base") for key in ("transitions", "stochastic"))
    with _anchored("base.transitions"):
        base = TransitionSystem(np.asarray(transitions))
    declared = _integer(_expect(base_rec, "alphabet_size", "base"), "base.alphabet_size")
    if declared != base.alphabet_size:
        raise ConfigError("base.alphabet_size", f"declared {declared}, matrix has {base.alphabet_size}")
    with _anchored("base.stochastic", "base.stochastic"):
        chain = MarkovChain(base, np.asarray(stochastic, dtype=float))

    product = None
    continuous = None
    if ("product" in raw) == ("continuous" in raw):
        raise ConfigError("config", "exactly one of 'product' or 'continuous' is required")
    if "product" in raw:
        with _anchored("product.assignment", "product"):
            window = raw["product"]["window"]  # a product that is no object or has no window is a malformed record
            if not (isinstance(window, list) and len(window) == 2
                    and all(_integer(v, "product.window") >= 0 for v in window)):
                raise ConfigError("product.window", f"expected [l, r] with integers l, r >= 0, got {window!r}")
            product = MultistepSkewProduct.from_json(base, chain, raw["product"])
    else:
        rec = raw["continuous"]
        with _anchored("continuous", "continuous"):
            continuous = ContinuousProductSpec(
                base,
                chain,
                template_form=str(_expect(rec, "template", "continuous")),
                designated=str(_expect(rec, "designated", "continuous")),
                symbol_params=tuple(_expect(rec, "symbol_params", "continuous")),
                rho=np.asarray(_expect(rec, "rho", "continuous"), dtype=float),
            )

    family = None
    if "family" in raw:
        if product is None:
            raise ConfigError("family", "a family needs a 'product' section as its base")
        rec = raw["family"]
        kappa = _number(_expect(rec, "kappa", "family"), "family.kappa")
        tau_range = _expect(rec, "tau_range", "family")
        if not (isinstance(tau_range, list) and len(tau_range) == 2):
            raise ConfigError("family.tau_range", "expected [tau_min, tau_max]")
        taus = tuple(_number(t, f"family.tau_range[{i}]") for i, t in enumerate(tau_range))
        with _anchored("family"):
            family = MonotoneFamily(product, kappa, taus)

    analysis = AnalysisConfig()
    rec = raw.get("analysis", {})
    if not isinstance(rec, dict):
        raise ConfigError("analysis", "must be an object")
    if "depth" in rec:
        analysis.depth = _integer(rec["depth"], "analysis.depth")
    if "samples" in rec:
        analysis.samples = _integer(rec["samples"], "analysis.samples")
    if "seed" in rec:
        analysis.seed = _integer(rec["seed"], "analysis.seed")
    if "gap_epsilon" in rec:
        analysis.gap_epsilon = _number(rec["gap_epsilon"], "analysis.gap_epsilon")
    if "grid" in rec:
        grid = rec["grid"]
        if isinstance(grid, str):
            analysis.grid = parse_grid_spec(grid)
        elif isinstance(grid, list):
            analysis.grid = [_number(t, f"analysis.grid[{i}]") for i, t in enumerate(grid)]
        else:
            raise ConfigError("analysis.grid", "expected a list or a lo:hi:step string")

    for key in ("depth", "samples", "seed"):
        if overrides.get(key) is not None:
            setattr(analysis, key, int(overrides[key]))
    if overrides.get("grid") is not None:
        analysis.grid = parse_grid_spec(overrides["grid"])
    if analysis.depth < 0:
        raise ConfigError("analysis.depth", "must be nonnegative")
    if analysis.seed < 0:
        raise ConfigError("analysis.seed", "must be nonnegative")
    if analysis.samples < 100:
        raise ConfigError("analysis.samples", "need at least 100 samples")

    return RunConfig(base, chain, product, continuous, family, analysis)
