"""Self-test of the benchmark at tiny sizes: metric coverage and the digest gate."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("plateau_sweep", "multistep_classify", "approx_ladder")
END_TO_END = {
    "plateau_sweep": {"setup_s", "wall_s", "peak_rss_mb", "fail_ratio", "sweep_points_per_s"},
    "multistep_classify": {"setup_s", "wall_s", "peak_rss_mb", "fail_ratio", "measure_s",
                           "classify_p50_ms", "classify_p99_ms", "replay_p50_ms"},
    "approx_ladder": {"setup_s", "wall_s", "peak_rss_mb", "fail_ratio"},
}
PER_LAYER = {
    "drift.classifier_builds", "drift.classifier_build_s", "drift.image_graph_calls.build",
    "drift.image_graph_calls.query", "drift.image_graph_s", "drift.classify_calls", "drift.classify_s",
    "drift.refined_points", "drift.refine_yield", "drift.unknown_ratio", "drift.classifier_cache_hits",
    "drift.certificate_json_s", "drift.replay_s", "regions.union_calls", "regions.union_s",
    "regions.measure_calls", "regions.measure_s", "regions.boxes", "symbolic.cylinder_measure_calls",
    "symbolic.sample_s", "products.distance_calls", "products.distance_s", "fibers.invert_calls",
    "fibers.invert_s", "products.multistep_approximation_s", "products.compare_order_calls",
    "products.compare_order_s", "config.load_s", "measure.estimate_regions_calls",
    "measure.estimate_regions_s", "measure.family_member_s", "measure.detect_gaps_s",
    "measure.artifact_format_s", "cli.run_s", "trace.overhead_s", "trace.coverage",
}


def bench(*args) -> tuple[list[dict], list[dict]]:
    """Run the benchmark at tiny sizes; returns its JSON result lines and run records."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--profile", "tiny", "--seconds", "1", "--seed", "5", *args],
        capture_output=True, text=True, timeout=600, cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    records = [json.loads(Path(line.split("record: ", 1)[1]).read_text())
               for line in lines if line.strip().startswith("record: ")]
    return results, records


def test_every_metric_is_emitted_with_a_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        results, records = bench("--workload", "all", "--trace", str(trace))
        assert [r["workload"] for r in records] == list(WORKLOADS)
        for result, record in zip(results, records):
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in declared[section]}
            named = END_TO_END[record["workload"]] if trace == 0 else PER_LAYER
            assert named <= set(record["metrics"]), named - set(record["metrics"])
            for name, metric in record["metrics"].items():
                assert metric["unit"], name
                assert isinstance(metric["value"], (int, float)), name


def test_wrong_reference_digest_fails():
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["tiny"]["approx_ladder"]["approx_ladder.csv"] = "0" * 64
    path = ROOT / ".bench_run" / "wrong_reference.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference))
    try:
        results, records = bench("--workload", "approx_ladder", "--reference", str(path))
    finally:
        path.unlink()
    assert not results[0]["correct"] and results[0]["failed"] > 0
    assert records[0]["metrics"]["fail_ratio"]["value"] > 0
