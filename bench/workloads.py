"""The benchmark's three workloads: generated inputs, one timed pass, output checks.

A pass is what one user-facing call does: a CLI command, or for
`multistep_classify` a CLI command followed by a loop of scalar library calls.
Every pass loads its configs afresh, as a separate CLI invocation would, so no
classifier built in one pass is reused by the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import skewdrift.cli as cli
import skewdrift.config as config
import skewdrift.drift as drift
import skewdrift.products as products
import skewdrift.symbolic as symbolic

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"

# Input sizes. `tiny` exists for the self-test only; reference digests are
# recorded per profile.
PROFILES = {
    "standard": {
        # Gap detection needs n >= 2952 at eps = 0.05. The gap's lower bound
        # is the tau = 0 jump (0.233, sd 0.0143 at n = 3000) minus twice the
        # confidence radius; at n = 5000 the check bound >= 0.15 holds with
        # a 4-sigma margin (at n = 3000 it fails on about 1% of seeds).
        "plateau_samples": 5000,
        "plateau_grid": None,
        "ms_depth": 8,
        "ms_samples": 2000,
        # 1000 timed queries per pass after the first (building) call
        "ms_points": 1001,
        "approx_depth": None,
    },
    "tiny": {
        "plateau_samples": 3000,
        "plateau_grid": "-0.004:0.004:0.002",
        "ms_depth": 4,
        "ms_samples": 200,
        "ms_points": 100,
        "approx_depth": 3,
    },
}


class Checks:
    """Counts checked operations; every mismatch or exception is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quiet_cli(*args, **kwargs):
    """cli.run with its console output captured; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(*args, **kwargs)
    return code, err.getvalue().strip()


def check_digests(checks: Checks, label: str, observed: dict, expected: dict | None, artifacts):
    """One checked operation per artifact; a missing digest on either side fails."""
    for name in artifacts:
        got = observed.get(name)
        want = None if expected is None else expected.get(name)
        checks.check(got is not None and got == want, f"{label}: {name} sha256 {got} != expected {want}")


class PlateauSweep:
    """`sweep` on plateau_family.json (21 tau values, depth 10, eps 0.05)."""

    name = "plateau_sweep"
    artifacts = ("sweep.csv", "gaps.csv", "mu.dat")
    reference_seed = 7  # the config's own seed

    def __init__(self, profile: dict, run_dir: Path):
        self.config = str(CONFIGS / "plateau_family.json")
        self.samples = profile["plateau_samples"]
        self.grid = profile["plateau_grid"]

    def setup(self, inputs: dict):
        # config load builds the family, whose endpoint compare_order runs here
        return config.load_config(self.config)

    def describe(self) -> dict:
        grid = config.load_config(self.config, {"grid": self.grid}).analysis.grid
        return {"grid_size": len(grid), "samples": self.samples}

    def prepare(self, seed: int) -> dict:
        return {"seed": seed}

    def run_pass(self, inputs: dict, out_dir: Path, clock) -> dict:
        code, err = _quiet_cli("sweep", self.config, seed=inputs["seed"], samples=self.samples,
                               grid=self.grid, out=str(out_dir))
        return {"exit_code": code, "stderr": err}

    def check_pass(self, timing: dict, inputs: dict, out_dir: Path, checks: Checks, label: str) -> dict:
        if not checks.check(timing["exit_code"] == 0, f"{label}: sweep exited {timing['exit_code']}: {timing['stderr']}"):
            return {}
        gaps = [line.split(",") for line in (out_dir / "gaps.csv").read_text().splitlines()[2:]]
        gap_ok = (
            len(gaps) == 1
            and float(gaps[0][0]) <= 0.0 <= float(gaps[0][1])
            and float(gaps[0][2]) >= 0.15
        )
        checks.check(gap_ok, f"{label}: expected one gap containing 0 with bound >= 0.15, got {gaps}")
        rows = [line.split() for line in (out_dir / "mu.dat").read_text().splitlines() if not line.startswith("#")]
        mu_lower = [float(r[2]) for r in rows]
        checks.check(all(b >= a for a, b in zip(mu_lower, mu_lower[1:])), f"{label}: mu_lower decreases: {mu_lower}")
        return {name: sha256_file(out_dir / name) for name in self.artifacts}


class MultistepClassify:
    """The criterion-2 product pair on the full 2-shift: `measure`, then scalar queries.

    Window (1, 1), eight affine maps a = off + 0.02 i, b = 0.75, with off = 0.06
    (lower product) and 0.09 (higher product).
    """

    name = "multistep_classify"
    artifacts = ("region_estimate.json", "verdicts.jsonl")
    reference_seed = 0

    def __init__(self, profile: dict, run_dir: Path):
        self.depth = profile["ms_depth"]
        self.samples = profile["ms_samples"]
        self.n_points = profile["ms_points"]
        self.run_dir = run_dir

    def _write_config(self, path: Path, offset: float, seed: int):
        words = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]  # lexicographic
        record = {
            "base": {"alphabet_size": 2, "transitions": [[1, 1], [1, 1]],
                     "stochastic": [[0.5, 0.5], [0.5, 0.5]]},
            "product": {"window": [1, 1], "assignment": [
                {"word": list(w), "map": {"form": "affine", "parameters": {"a": offset + 0.02 * i, "b": 0.75}}}
                for i, w in enumerate(words)
            ]},
            "analysis": {"depth": self.depth, "samples": self.samples, "seed": seed},
        }
        path.write_text(json.dumps(record, indent=2) + "\n")

    def prepare(self, seed: int) -> dict:
        """Configs for the product pair, and points on exactly the window the depth
        requires, [-(depth + 2), depth + 1].

        Uniform i.i.d. symbols are the uniform Markov chain of the full 2-shift.
        """
        lower = self.run_dir / f"multistep_lower_{seed}.json"
        higher = self.run_dir / f"multistep_higher_{seed}.json"
        self._write_config(lower, 0.06, seed)
        self._write_config(higher, 0.09, seed)
        rng = np.random.default_rng([2, seed])
        lo, hi = -(self.depth + 2), self.depth + 1
        symbols = rng.integers(1, 3, size=(self.n_points, hi - lo + 1))
        xs = rng.random(self.n_points)
        points = [products.LabeledPoint(symbolic.SymbolWindow(lo, tuple(row)), x)
                  for row, x in zip(symbols.tolist(), xs.tolist())]
        return {"lower": str(lower), "higher": str(higher), "points": points}

    def setup(self, inputs: dict):
        return config.load_config(inputs["lower"]), config.load_config(inputs["higher"])

    def describe(self) -> dict:
        return {"depth": self.depth, "samples": self.samples, "points": self.n_points}

    def run_pass(self, inputs: dict, out_dir: Path, clock) -> dict:
        """Bulk `measure`, then one classify_point per point; phases in reference-speed
        seconds (with raw twins), per-call latencies in raw milliseconds."""
        points = inputs["points"]
        start = clock.mark()
        code, err = _quiet_cli("measure", inputs["lower"], out=str(out_dir))
        measured = clock.mark()
        lower = config.load_config(inputs["lower"]).product
        higher = config.load_config(inputs["higher"]).product
        order = products.compare_order(lower, higher)
        loaded = clock.mark()
        results = [drift.classify_point(lower, points[0], self.depth)]  # builds the classifier
        built = clock.mark()
        classify_ms = []
        replay_ms = []
        higher_replays = []
        json_s = 0.0
        raw = clock.raw
        for point in points[1:]:
            a = raw()
            result = drift.classify_point(lower, point, self.depth)
            b = raw()
            result.to_json()
            c = raw()
            classify_ms.append((b - a) * 1e3)
            json_s += c - b
            if result.verdict == drift.UP:
                higher_replays.append(drift.replay_certificate(higher, result.witness, point).ok)
                replay_ms.append((raw() - c) * 1e3)
            results.append(result)
        end = clock.mark()
        phases = {"measure": (start, measured), "load": (measured, loaded),
                  "first_classify": (loaded, built), "scalar": (built, end)}
        timing = {}
        for name, (begin, finish) in phases.items():
            timing[f"{name}_s"] = finish[0] - begin[0]
            timing[f"{name}_raw_s"] = finish[1] - begin[1]
        return {
            **timing,
            "verdict_json_raw_s": json_s,
            "classify_ms": classify_ms,
            "replay_ms": replay_ms,
            "exit_code": code,
            "stderr": err,
            # objects for the untimed checks; dropped before the result is written
            "_order": order,
            "_lower": lower,
            "_results": results,
            "_higher_replays": higher_replays,
        }

    def check_pass(self, timing: dict, inputs: dict, out_dir: Path, checks: Checks, label: str) -> dict:
        digests = {}
        if checks.check(timing["exit_code"] == 0, f"{label}: measure exited {timing['exit_code']}: {timing['stderr']}"):
            digests["region_estimate.json"] = sha256_file(out_dir / "region_estimate.json")
        checks.check(timing["_order"] is products.ProductOrder.FIRST_BELOW,
                     f"{label}: lower product not certifiably below the higher one")
        for i, ok in enumerate(timing["_higher_replays"]):
            checks.check(ok, f"{label}: Up witness {i} does not replay on the higher product")
        lower = timing["_lower"]
        verdicts = hashlib.sha256()
        for point, result in zip(inputs["points"], timing["_results"]):
            if result.witness is not None:
                replay = drift.replay_certificate(lower, result.witness, point)
                checks.check(replay.ok, f"{label}: {result.verdict} witness fails to replay on its own product")
            verdicts.update(json.dumps(result.to_json(), sort_keys=True).encode() + b"\n")
        digests["verdicts.jsonl"] = verdicts.hexdigest()
        return digests


class ApproxLadder:
    """`approx` on continuous_geometric.json at its own depth (5): approximants and distances.

    The command takes no sample seed, so its inputs and outputs are the same
    for every workload seed and every pass is checked against the reference.
    """

    name = "approx_ladder"
    artifacts = ("approx_product.json", "approx_ladder.csv")
    reference_seed = None

    def __init__(self, profile: dict, run_dir: Path):
        self.config = str(CONFIGS / "continuous_geometric.json")
        self.depth = profile["approx_depth"]

    def setup(self, inputs: dict):
        return config.load_config(self.config)

    def describe(self) -> dict:
        return {"depth": config.load_config(self.config, {"depth": self.depth}).analysis.depth}

    def prepare(self, seed: int) -> dict:
        return {}

    def run_pass(self, inputs: dict, out_dir: Path, clock) -> dict:
        code, err = _quiet_cli("approx", self.config, depth=self.depth, out=str(out_dir))
        return {"exit_code": code, "stderr": err}

    def check_pass(self, timing: dict, inputs: dict, out_dir: Path, checks: Checks, label: str) -> dict:
        if not checks.check(timing["exit_code"] == 0, f"{label}: approx exited {timing['exit_code']}: {timing['stderr']}"):
            return {}
        rows = (out_dir / "approx_ladder.csv").read_text().splitlines()[2:]
        distances = [float(row.split(",")[1]) for row in rows]
        for a, b in zip(distances, distances[1:]):
            checks.check(a > 0 and 0.3 <= b / a <= 0.7, f"{label}: ladder ratio {b}/{a} outside [0.3, 0.7]")
        return {name: sha256_file(out_dir / name) for name in self.artifacts}


WORKLOADS = {w.name: w for w in (PlateauSweep, MultistepClassify, ApproxLadder)}
