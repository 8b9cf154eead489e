"""skewdrift benchmark: one closed-loop workload per call, each in a fresh process.

    python3 bench/run.py --workload plateau_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads: plateau_sweep, multistep_classify, approx_ladder (see bench/README.md).
With --trace 0 it prints every end-to-end metric, with --trace 1 every per-layer
metric, each with its unit, and checks the outputs. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
"metrics" holds the metrics BENCHMARK.json lists. A run record with the raw
samples is written under .bench_run/records/.

Run it from anywhere inside a checkout that has src/skewdrift and
scripts/configs; without them it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("plateau_sweep", "multistep_classify", "approx_ladder")
REQUIRED = ("BENCHMARK.json", "src/skewdrift/__init__.py", "scripts/configs/plateau_family.json",
            "scripts/configs/continuous_geometric.json")
SETUP_PROBES = {"standard": 5, "tiny": 1}
RUN_BUDGET_S = 170.0  # a run must end within 180 s

# Per-layer busy times (inclusive, outermost span of each name, per pass).
# They are printed and recorded but kept out of the final JSON line, because a
# layer a workload never calls reads exactly 0 on every run.
LAYER_TIMES = {
    "drift.classifier_build_s": "drift.classifier_build",
    "drift.image_graph_s": "drift.image_graph",
    "drift.classify_s": "drift.classify",
    "drift.certificate_json_s": "drift.certificate_json",
    "drift.replay_s": "drift.replay",
    "regions.union_s": "regions.union",
    "regions.measure_s": "regions.measure",
    "symbolic.sample_s": "symbolic.sample",
    "products.distance_s": "products.distance",
    "fibers.invert_s": "fibers.invert",
    "products.multistep_approximation_s": "products.multistep_approximation",
    "products.compare_order_s": "products.compare_order",
    "config.load_s": "config.load",
    "measure.estimate_regions_s": "measure.estimate_regions",
    "measure.family_member_s": "measure.family_member",
    "measure.detect_gaps_s": "measure.detect_gaps",
    "measure.artifact_format_s": "measure.artifact_format",
    "cli.run_s": "cli.run",
}
LAYER_COUNTS = {
    "drift.classifier_builds": "drift.classifier_build",
    "drift.image_graph_calls.build": "drift.image_graph.build",
    "drift.image_graph_calls.query": "drift.image_graph.query",
    "drift.classify_calls": "drift.classify",
    "drift.refined_points": "drift.refined_points",
    "regions.union_calls": "regions.union",
    "regions.measure_calls": "regions.measure",
    "regions.boxes": "regions.boxes",
    "symbolic.cylinder_measure_calls": "symbolic.cylinder_measure",
    "products.distance_calls": "products.distance",
    "fibers.invert_calls": "fibers.invert",
    "products.compare_order_calls": "products.compare_order",
    "measure.estimate_regions_calls": "measure.estimate_regions",
}
LAYERS = ("cli", "config", "measure", "drift", "regions", "symbolic", "products", "fibers")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def host_snapshot() -> dict:
    """Read-only view of the host: load average and the aggregate CPU time line."""
    stat = _read("/proc/stat")
    return {
        "time": time.time(),
        "loadavg": (_read("/proc/loadavg") or "").strip(),
        "cpu": stat.splitlines()[0] if stat else None,
    }


def host_info() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    return {"git_sha": git_sha, "src_sha256": src_digest(), "nproc": os.cpu_count(), "cpu_model": model}


def src_digest() -> str:
    """sha256 over src/skewdrift/*.py, which identifies the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "skewdrift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # every probe compiles skewdrift afresh, so set-up time never depends on leftover caches
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv], env=worker_env(),
                          capture_output=True, text=True, timeout=timeout, cwd=str(ROOT))


def setup_probes(workload: str, profile: str, run_dir: Path, deadline: float) -> list[dict]:
    """Set-up time, each sample in a fresh process."""
    samples = []
    for _ in range(SETUP_PROBES[profile]):
        done = run_worker(["probe", "--workload", workload, "--profile", profile,
                           "--run-dir", str(run_dir)], timeout=deadline - time.monotonic())
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end_metrics(result: dict, setup: list[dict]) -> tuple[dict, list[str]]:
    passes = [p for p in result["passes"] if not p["traced"]]
    checks = result["checks"]

    def median(key):
        return statistics.median(p[key] for p in passes)

    wall = median("wall_s")
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "setup_raw_s": (statistics.median(s["setup_raw_s"] for s in setup), "s"),
        "wall_s": (wall, "s"),
        "wall_raw_s": (median("wall_raw_s"), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "fail_ratio": (checks["failed"] / checks["attempted"], "ratio"),
    }
    notes = [f"setup_s: median of {len(setup)} fresh-process probes",
             f"wall_s: median of {len(passes)} passes",
             "*_s without _raw: reference-speed seconds (bench/hostclock.py); *_raw_s: plain wall time",
             f"fail_ratio: {checks['failed']} of {checks['attempted']} checked operations"]
    if result["workload"] == "plateau_sweep":
        sizes = result["sizes"]
        metrics["sweep_points_per_s"] = (sizes["grid_size"] * sizes["samples"] / wall, "1/s")
        notes.append(f"sweep_points_per_s: {sizes['grid_size']} tau x n = {sizes['samples']} per pass")
    if result["workload"] == "multistep_classify":
        classify = [v for p in passes for v in p["classify_ms"]]
        replay = [v for p in passes for v in p["replay_ms"]]
        for phase in ("measure", "first_classify"):
            metrics[f"{phase}_s"] = (median(f"{phase}_s"), "s")
            metrics[f"{phase}_raw_s"] = (median(f"{phase}_raw_s"), "s")
        metrics["classify_p50_ms"] = (statistics.median(classify), "ms")
        metrics["classify_p99_ms"] = (percentile(classify, 99), "ms")
        metrics["replay_p50_ms"] = (statistics.median(replay), "ms")
        notes.append(f"classify_p50/p99_ms: {len(classify)} scalar classify_point calls after the build "
                     f"({len(classify) - int(0.99 * len(classify))} beyond p99), plain wall time")
        notes.append(f"replay_p50_ms: {len(replay)} replays of Up witnesses on the higher product")
    return metrics, notes


def per_layer_metrics(result: dict) -> tuple[dict, list[str]]:
    summaries = result["trace"]
    counts = summaries[0]["counts"]

    def count(key):
        return counts.get(key, 0)

    def median_time(key):
        return statistics.median(s["inclusive_s"].get(key, 0.0) for s in summaries)

    metrics = {name: (count(key), "count") for name, key in LAYER_COUNTS.items()}
    refined = count("drift.refined_points")
    classified = count("drift.classify")
    metrics["drift.refine_yield"] = (count("drift.refined_resolved") / refined if refined else 0.0, "ratio")
    metrics["drift.unknown_ratio"] = (count("drift.verdict.Unknown") / classified if classified else 0.0, "ratio")
    metrics["drift.classifier_cache_hits"] = (count("drift.get_classifier") - count("drift.classifier_build"), "count")
    for name, key in LAYER_TIMES.items():
        metrics[name] = (median_time(key), "s")
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (statistics.median(s["self_s_by_layer"].get(layer, 0.0) for s in summaries), "s")
    traced = [p["wall_s"] for p in result["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.coverage"] = (min(s["coverage"] for s in summaries), "ratio")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / statistics.median(untraced), "ratio")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    notes = [f"{len(traced)} traced and {len(untraced)} untraced passes, alternating; times are per-pass medians",
             "counts are per pass and identical in every traced pass (checked)",
             "trace.coverage: smallest share of a traced pass covered by top-level spans"]
    return metrics, notes


def run_workload(args, workload: str, declared: list[str]) -> tuple[dict, int]:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_dir = ROOT / ".bench_run" / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record_dir = ROOT / ".bench_run" / "records"
    run_dir.mkdir(parents=True, exist_ok=True)
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "profile": args.profile, **host_info(), "host_start": host_snapshot()}
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setup = [] if args.trace else setup_probes(workload, args.profile, run_dir, deadline)
        result_path = run_dir / "result.json"
        done = run_worker(["run", "--workload", workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace),
                           "--profile", args.profile, "--reference", str(args.reference),
                           "--run-dir", str(run_dir), "--result", str(result_path)],
                          timeout=deadline - time.monotonic())
        if done.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr}")
        result = json.loads(result_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{workload}: benchmark run failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, 1
    finally:
        record["host_end"] = host_snapshot()
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer_metrics(result)
    else:
        metrics, notes = end_to_end_metrics(result, setup)
    checks = result["checks"]
    record.update(result=result, setup_samples=setup,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    record_path = record_dir / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {workload}  seed {args.seed}  trace {args.trace}  profile {args.profile}  "
          f"python {result['python']}  numpy {result['numpy']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for failure in checks["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  record: {record_path}")
    line = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }
    return line, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--profile", choices=sorted(SETUP_PROBES), default="standard",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                        help="reference artifact digests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]
    code = 0
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        line, status = run_workload(args, workload, declared)
        code = max(code, status)
        print(json.dumps(line), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
