"""scripts/bench_summary.py on two synthetic checkouts: record filtering, medians, spreads, ratios, host check."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def checkout(root: Path, source: str) -> Path:
    (root / "src" / "skewdrift").mkdir(parents=True)
    (root / "src" / "skewdrift" / "core.py").write_text(source)
    (root / ".bench_run" / "records").mkdir(parents=True)
    return root


def record(root: Path, name: str, *, workload="plateau_sweep", trace=0, seed=1, metrics, digest=None,
           profile="standard", cpu_model="cpu A", failed=0, host_start=None):
    data = {
        "src_sha256": digest or bench_summary.src_digest(root),
        "profile": profile,
        "workload": workload,
        "trace": trace,
        "seed": seed,
        "nproc": 2,
        "cpu_model": cpu_model,
        "result": {"python": "3.11.7", "numpy": "2.4.6", "checks": {"failed": failed}},
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }
    if host_start is not None:
        data["host_start"] = host_start
    (root / ".bench_run" / "records" / f"{name}.json").write_text(json.dumps(data))


def summarise(before: Path, after: Path, tmp_path: Path) -> dict:
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--before", str(before), "--after", str(after), "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture
def sides(tmp_path):
    before = checkout(tmp_path / "before", "x = 1\n")
    after = checkout(tmp_path / "after", "x = 2\n")
    for seed, wall in enumerate((1.0, 3.0, 2.0)):
        record(before, f"b{seed}", seed=seed, metrics={"wall_s": wall, "setup_s": 0.5})
    for seed, wall in enumerate((1.0, 1.5)):
        record(after, f"a{seed}", seed=seed, metrics={"wall_s": wall, "setup_s": 0.25}, failed=seed)
    record(before, "traced", trace=1, seed=9, metrics={"cli.run_s": 4.0, "drift.classify_calls": 0})
    record(after, "traced", trace=1, seed=9, metrics={"cli.run_s": 3.0, "drift.classify_calls": 5})
    return before, after


def test_keeps_only_records_of_the_current_source(sides, tmp_path):
    before, after = sides
    # a record of older code, and one of the tiny profile, both left out
    record(before, "stale", seed=7, metrics={"wall_s": 100.0, "setup_s": 100.0}, digest="0" * 64)
    record(before, "tiny", seed=8, metrics={"wall_s": 100.0, "setup_s": 100.0}, profile="tiny")
    report = summarise(before, after, tmp_path)
    end_to_end = report["before"]["workloads"]["plateau_sweep"]["end_to_end"]
    assert end_to_end["runs"] == 3 and end_to_end["seeds"] == [0, 1, 2]
    assert end_to_end["metrics"]["wall_s"]["median"] == 2.0
    assert report["before"]["src_sha256"] == bench_summary.src_digest(before)
    assert report["before"]["src_sha256"] != report["after"]["src_sha256"]


def test_no_record_of_the_current_source(sides, tmp_path):
    before, after = sides
    (after / "src" / "skewdrift" / "core.py").write_text("x = 3\n")
    with pytest.raises(SystemExit, match="no standard-profile records"):
        summarise(before, after, tmp_path)


def test_medians_and_ratios(sides, tmp_path):
    before, after = sides
    report = summarise(before, after, tmp_path)
    side = report["after"]
    assert (side["python"], side["numpy"], side["nproc"], side["cpu_model"]) == ("3.11.7", "2.4.6", 2, "cpu A")
    sections = side["workloads"]["plateau_sweep"]
    assert sections["end_to_end"]["metrics"]["wall_s"] == {"median": 1.25, "iqr": [1.125, 1.375], "unit": "s"}
    assert sections["end_to_end"]["failed_checks"] == 1
    assert sections["per_layer"]["runs"] == 1
    assert sections["per_layer"]["metrics"]["cli.run_s"] == {"median": 3.0, "iqr": None, "unit": "s"}
    # the spread of a side's own runs: inclusive quartiles of 1, 2, 3
    assert report["before"]["workloads"]["plateau_sweep"]["end_to_end"]["metrics"]["wall_s"]["iqr"] == [1.5, 2.5]
    # a zero median before gives no ratio
    assert report["ratio_after_to_before"] == {
        "plateau_sweep": {"wall_s": 0.625, "setup_s": 0.5, "cli.run_s": 0.75}
    }


def test_refuses_records_from_mixed_hosts(sides, tmp_path):
    before, after = sides
    record(after, "other_host", seed=5, metrics={"wall_s": 1.0, "setup_s": 0.25}, cpu_model="cpu B")
    with pytest.raises(SystemExit, match="different versions or hosts"):
        summarise(before, after, tmp_path)


def test_a_side_run_twice_keeps_its_newest_batch(tmp_path):
    # the parent's source never changes, so a second batch adds records of the same source:
    # each (workload, trace, seed) keeps the newest k records of each side, k the smaller count
    before = checkout(tmp_path / "before", "x = 1\n")
    after = checkout(tmp_path / "after", "x = 2\n")
    for batch, (start, wall) in enumerate(((100.0, 9.0), (200.0, 2.0))):
        for run in range(3):
            record(before, f"b{batch}{run}", metrics={"wall_s": wall + run}, host_start={"time": start + run})
    for run in range(3):
        record(after, f"a{run}", metrics={"wall_s": 1.0 + run}, host_start={"time": 300.0 + run})
    report = summarise(before, after, tmp_path)
    old = report["before"]["workloads"]["plateau_sweep"]["end_to_end"]
    new = report["after"]["workloads"]["plateau_sweep"]["end_to_end"]
    assert old["runs"] == new["runs"] == 3 and old["seeds"] == new["seeds"] == [1]
    assert old["metrics"]["wall_s"]["median"] == 3.0  # the newest batch: 2, 3, 4
    assert (report["before"]["dropped_records"], report["after"]["dropped_records"]) == (3, 0)


def test_source_line_count(tmp_path):
    before = checkout(tmp_path / "before", "x = 1\n")
    after = checkout(tmp_path / "after", "x = 2\ny = 3\n")
    (after / "src" / "skewdrift" / "extra.py").write_text("a = 1\n\nb = 2")  # no final newline: wc -l counts 2
    (after / "src" / "skewdrift" / "notes.txt").write_text("not python\n")
    for root in (before, after):
        record(root, "run", metrics={"wall_s": 1.0})
    report = summarise(before, after, tmp_path)
    assert (report["before"]["src_lines"], report["after"]["src_lines"]) == (1, 4)
