import hashlib
import json
import os
import shlex
import subprocess
from pathlib import Path

import pytest

from skewdrift.cli import main, run
from skewdrift.config import MAX_GRID_POINTS, load_config, parse_grid_spec
from skewdrift.errors import ConfigError, ResourceBoundError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"


def write_json(path: Path, record: dict) -> str:
    path.write_text(json.dumps(record, indent=2))
    return str(path)


def small_plateau_config(tmp_path: Path, **analysis) -> str:
    record = json.loads((CONFIGS / "plateau_family.json").read_text())
    record["analysis"].update({"samples": 300, "depth": 4, "grid": "-0.01:0.01:0.01",
                               "gap_epsilon": 0.5, **analysis})
    return write_json(tmp_path / "plateau_small.json", record)


class TestConfigParsing:
    def test_grid_spec(self):
        grid = parse_grid_spec("-0.02:0.02:0.01")
        assert len(grid) == 5 and grid[0] == -0.02 and grid[-1] == pytest.approx(0.02)

    def test_field_anchored_error(self, tmp_path):
        record = json.loads((CONFIGS / "golden_affine.json").read_text())
        del record["base"]["stochastic"]
        path = write_json(tmp_path / "broken.json", record)
        with pytest.raises(ConfigError, match="base.stochastic"):
            load_config(path)

    def test_both_product_and_continuous_rejected(self, tmp_path):
        record = json.loads((CONFIGS / "golden_affine.json").read_text())
        record["continuous"] = json.loads((CONFIGS / "continuous_geometric.json").read_text())["continuous"]
        path = write_json(tmp_path / "both.json", record)
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(path)

    def test_loads_example_configs(self):
        for name in ("golden_affine.json", "constant_affine.json",
                     "plateau_family.json", "continuous_geometric.json"):
            cfg = load_config(str(CONFIGS / name))
            assert cfg.analysis.samples >= 100


class TestValidateCommand:
    def test_golden_affine_reports_stationary(self, tmp_path, capsys):
        code = run("validate", str(CONFIGS / "golden_affine.json"), out=str(tmp_path))
        assert code == 0
        text = capsys.readouterr().out
        assert "0.75" in text and "0.25" in text
        assert (tmp_path / "validate_report.txt").exists()

    def test_family_monotonicity_checked(self, tmp_path, capsys):
        code = run("validate", small_plateau_config(tmp_path), out=str(tmp_path))
        assert code == 0
        assert "family monotone" in capsys.readouterr().out

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("validate", str(bad), out=str(tmp_path)) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run("validate", str(tmp_path / "absent.json"), out=str(tmp_path)) == 2

    def test_nontransitive_base_exits_2(self, tmp_path, capsys):
        record = json.loads((CONFIGS / "golden_affine.json").read_text())
        record["base"]["transitions"] = [[1, 0], [0, 1]]
        record["base"]["stochastic"] = [[1.0, 0.0], [0.0, 1.0]]
        path = write_json(tmp_path / "loops.json", record)
        assert run("validate", path, out=str(tmp_path)) == 2

    def test_window_over_cap_exits_3(self, tmp_path):
        record = json.loads((CONFIGS / "golden_affine.json").read_text())
        record["product"]["window"] = [6, 6]
        path = write_json(tmp_path / "wide.json", record)
        assert run("validate", path, out=str(tmp_path)) == 3

    @pytest.mark.parametrize("name, report", [
        ("golden_affine.json", "stationary vector: (0.75, 0.25)\nfiber maps in class: 2/2\n"),
        ("constant_affine.json", "stationary vector: (0.5, 0.5)\nfiber maps in class: 2/2\n"),
        ("plateau_family.json", "stationary vector: (0.5, 0.5)\nfiber maps in class: 2/2\n"
                                "family monotone on [-0.025000000000000001, 0.025000000000000001]: ok\n"),
        ("continuous_geometric.json", "stationary vector: (0.5, 0.5)\n"
                                      "continuous template: worst-case parameters stay in class\n"),
    ])
    def test_report_of_each_shipped_config(self, tmp_path, capsys, name, report):
        assert run("validate", str(CONFIGS / name), out=str(tmp_path)) == 0
        report = "transitive base: ok\n" + report
        assert capsys.readouterr().out == report
        assert (tmp_path / "validate_report.txt").read_text() == report

    def test_family_order_compared_once(self, tmp_path, monkeypatch):
        # loading compares the family's endpoint members; the report reuses that check
        import skewdrift.cli as cli
        import skewdrift.measure as measure

        calls = []

        def counting(compare):
            return lambda *args: calls.append(args) or compare(*args)

        for module in (measure, cli):
            monkeypatch.setattr(module, "compare_order", counting(module.compare_order))
        assert run("validate", str(CONFIGS / "plateau_family.json"), out=str(tmp_path)) == 0
        assert len(calls) == 1


class TestClassifyCommand:
    def test_verdicts_for_three_points(self, tmp_path, capsys):
        code = run(
            "classify", str(CONFIGS / "constant_affine.json"),
            points=str(CONFIGS / "points_example.csv"), out=str(tmp_path), depth=6,
        )
        assert code == 0
        lines = (tmp_path / "classifications.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# seed=42 depth=6")
        verdicts = [line.split(",")[2] for line in lines[2:]]
        assert verdicts == ["Up", "Unknown", "Down"]
        records = [json.loads(l) for l in (tmp_path / "classifications.jsonl").read_text().splitlines()]
        assert [r["verdict"] for r in records] == ["Up", "Unknown", "Down"]

    def test_points_file_without_rows(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("window,x\n")
        code = run("classify", str(CONFIGS / "constant_affine.json"), points=str(points), out=str(tmp_path), depth=6)
        assert code == 0
        assert (tmp_path / "classifications.jsonl").read_bytes() == b""
        assert (tmp_path / "classifications.csv").read_text() == (
            "# seed=42 depth=6 samples=0\nwindow,x,verdict,margin,depth\n")

    def test_missing_points_flag_exits_2(self, tmp_path):
        assert run("classify", str(CONFIGS / "constant_affine.json"), out=str(tmp_path)) == 2

    @pytest.mark.parametrize("window, message", [
        ("-5 1 1 1 1 1 3 1 1 1 1", "symbol 3 at coordinate 0"),
        ("-5 1 1 1 1 1 2 2 1 1 1", "transition 2 -> 2 at coordinates 0, 1"),
    ])
    def test_point_outside_base_space_exits_2(self, tmp_path, capsys, window, message):
        points = tmp_path / "points.csv"
        points.write_text(f"window,x\n# a comment line\n-5 1 1 1 1 1 1 1 1 1 1,0.05\n{window},0.05\n")
        code = run("classify", str(CONFIGS / "golden_affine.json"), points=str(points), out=str(tmp_path), depth=4)
        assert code == 2
        assert f"points line 4: {message}" in capsys.readouterr().err
        assert not (tmp_path / "classifications.csv").exists()


class TestMeasureCommand:
    def test_writes_estimate_json(self, tmp_path, capsys):
        code = run("measure", str(CONFIGS / "constant_affine.json"),
                   out=str(tmp_path), samples=500, depth=4)
        assert code == 0
        record = json.loads((tmp_path / "region_estimate.json").read_text())
        assert record["n"] == 500 and record["depth"] == 4 and record["seed"] == 42
        assert abs(record["mc_up"] + record["mc_down"] + record["mc_unknown"] - 1) < 1e-12


class TestSweepCommand:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        cfg = small_plateau_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert run("sweep", cfg, out=str(out1)) == 0
        assert run("sweep", cfg, out=str(out2)) == 0
        for name in ("sweep.csv", "gaps.csv", "mu.dat"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header = (out1 / "sweep.csv").read_text().splitlines()
        assert header[0] == "# seed=7 depth=4 samples=300"
        assert header[1].split(",") == [
            "tau", "certified_up", "certified_down", "mc_up", "mc_down",
            "mc_unknown", "radius", "n", "depth", "seed",
        ]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = small_plateau_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("sweep", cfg, out=str(out1)) == 0
        assert run("sweep", cfg, out=str(out2), seed=8) == 0
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()


class TestBadRunInput:
    @pytest.mark.parametrize("grid, code, error", [
        ("0:inf:0.1", 2, "invalid input: grid: lo, hi and step must be finite numbers, got '0:inf:0.1'"),
        ("0:0.01:nan", 2, "invalid input: grid: lo, hi and step must be finite numbers"),
        ("a:b:c", 2, "invalid input: grid: lo, hi and step must be finite numbers, got 'a:b:c'"),
        ("0:0.02:1e-15", 3, "resource bound: grid '0:0.02:1e-15' has more than 100000 points"),
        ("-1e308:1e308:1", 3, "resource bound: grid"),  # hi - lo overflows
    ], ids=["infinite", "nan", "not-a-number", "too-many-points", "overflowing-span"])
    def test_grid_spec_errors(self, tmp_path, capsys, grid, code, error):
        assert main(["sweep", "--config", small_plateau_config(tmp_path), f"--grid={grid}",
                     "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err.startswith(error)
        assert not (tmp_path / "out").exists()

    def test_grid_point_bound(self):
        assert len(parse_grid_spec(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        with pytest.raises(ResourceBoundError):
            parse_grid_spec(f"0:{MAX_GRID_POINTS}:1")

    def test_negative_seed_rejected_at_config_time(self, tmp_path, capsys):
        args = ["sweep", "--config", small_plateau_config(tmp_path), "--out", str(tmp_path / "out")]
        assert main([*args, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "invalid input: analysis.seed: must be nonnegative\n"
        assert main(["sweep", "--config", small_plateau_config(tmp_path, seed=-1), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "invalid input: analysis.seed: must be nonnegative\n"
        assert not (tmp_path / "out").exists()

    def test_sample_count_beyond_memory_exits_3(self, tmp_path, capsys):
        # the sample arrays of 10^12 points are refused at allocation, before any is filled
        assert main(["sweep", "--config", small_plateau_config(tmp_path), "--samples", "1000000000000",
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("resource bound: Unable to allocate ")

    def test_gap_epsilon_checked_before_sweeping(self, tmp_path, capsys, monkeypatch):
        # eps = 0.05 needs 2 * hoeffding_radius(n) < 0.05, first true at n = 2952
        import skewdrift.cli as cli

        calls = []
        sweep = cli.sweep
        monkeypatch.setattr(cli, "sweep", lambda *args: calls.append(args) or sweep(*args))
        config = small_plateau_config(tmp_path, gap_epsilon=0.05)
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--samples", "2951", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: analysis.gap_epsilon: eps = 0.05 must exceed twice the confidence radius ")
        assert err.endswith(" of n = 2951 samples; n >= 2952 resolves it\n")
        assert calls == [] and not out.exists()
        assert main(["sweep", "--config", config, "--samples", "2952", "--grid=0:0.01:0.01", "--out", str(out)]) == 0
        assert len(calls) == 1 and (out / "gaps.csv").exists()

    def test_negative_grid_in_equals_form(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--config", small_plateau_config(tmp_path), "--grid=-0.004:0.004:0.002",
                     "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == pytest.approx([-0.004, -0.002, 0.0, 0.002, 0.004])


class TestBadFilesAndShapes:
    """Unreadable files and malformed shapes exit 2 with a field-anchored message and no traceback."""

    def run_main(self, capsys, *args):
        code = main(list(args))
        return code, capsys.readouterr().err

    def test_missing_points_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        code, err = self.run_main(capsys, "classify", "--config", str(CONFIGS / "constant_affine.json"),
                                  "--points", str(missing), "--out", str(tmp_path / "out"))
        assert code == 2 and err == f"invalid input: points: {missing}: No such file or directory\n"

    def test_config_is_a_directory(self, tmp_path, capsys):
        code, err = self.run_main(capsys, "validate", "--config", str(CONFIGS), "--out", str(tmp_path))
        assert code == 2 and err == f"invalid input: config: {CONFIGS}: Is a directory\n"

    def test_config_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"base": "\xff"}')
        code, err = self.run_main(capsys, "validate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 2 and err.startswith(f"invalid input: config: {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, err = self.run_main(capsys, "measure", "--config", str(CONFIGS / "constant_affine.json"),
                                  "--samples", "200", "--depth", "2", "--out", str(taken))
        assert code == 2 and err == f"invalid input: out: {taken}: File exists\n"

    @pytest.mark.parametrize("section", ["base", "family"])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section):
        record = json.loads((CONFIGS / "plateau_family.json").read_text())
        record[section] = 5
        code, err = self.run_main(capsys, "validate", "--config", write_json(tmp_path / "bad.json", record),
                                  "--out", str(tmp_path))
        assert code == 2 and err == f"invalid input: {section}: must be an object\n"

    @pytest.mark.parametrize("name, edit, error", [
        ("constant_affine.json", lambda r: r["base"].update(stochastic={"a": 1}),
         "base.stochastic: malformed record: float() argument must be a string or a real number, not 'dict'"),
        ("constant_affine.json", lambda r: r["product"]["assignment"][0].update(map=None),
         "product: malformed record: a map and its parameters must be objects, got None"),
        ("constant_affine.json", lambda r: r["product"]["assignment"][0]["map"].update(parameters=[1]),
         "product: malformed record: a map and its parameters must be objects, got "
         "{'form': 'affine', 'parameters': [1]}"),
        ("plateau_family.json", lambda r: r["family"].update(tau_range=["x", 0.02]),
         "family.tau_range[0]: expected a number, got 'x'"),
    ], ids=["stochastic-not-a-matrix", "map-null", "parameters-a-list", "tau-not-a-number"])
    def test_malformed_section_exits_2(self, tmp_path, capsys, name, edit, error):
        record = json.loads((CONFIGS / name).read_text())
        edit(record)
        code, err = self.run_main(capsys, "validate", "--config", write_json(tmp_path / "bad.json", record),
                                  "--out", str(tmp_path / "out"))
        assert code == 2 and err == f"invalid input: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, error", [
        (lambda p: p["assignment"][0].update(word=[1.5]), "product: malformed record: "
         "a word must be a list of integers, got [1.5]"),
        (lambda p: p["assignment"][0].update(word=["1"]), "product: malformed record: "
         "a word must be a list of integers, got ['1']"),
        (lambda p: p.update(window=[0.5, 0]), "product.window: expected an integer, got 0.5"),
        (lambda p: p.update(window=["0", 0]), "product.window: expected an integer, got '0'"),
        (lambda p: p.update(window=[0]), "product.window: expected [l, r] with integers l, r >= 0, got [0]"),
        (lambda p: p.update(window=[0, 0, 0]),
         "product.window: expected [l, r] with integers l, r >= 0, got [0, 0, 0]"),
        (lambda p: p.update(window=[-1, 0]), "product.window: expected [l, r] with integers l, r >= 0, got [-1, 0]"),
        (lambda p: p["assignment"][0]["map"]["parameters"].update(a="0.1"), "product: malformed record: "
         "map parameters must be numbers, got {'a': '0.1', 'b': 0.8}"),
        (lambda p: p["assignment"][0]["map"]["parameters"].update(a=True), "product: malformed record: "
         "map parameters must be numbers, got {'a': True, 'b': 0.8}"),
        (lambda p: [entry.update(map={"form": "bump_composed", "parameters": {"amount": 0.1, "zz": 5},
                                      "inner": entry["map"]}) for entry in p["assignment"]],
         "product: malformed record: BumpComposed.__init__() got an unexpected keyword argument 'zz'"),
    ], ids=["word-float", "word-string", "window-float", "window-string", "window-short", "window-long",
            "window-negative", "parameter-string", "parameter-bool", "bump-composed-unknown-parameter"])
    def test_malformed_product_record_exits_2(self, tmp_path, capsys, edit, error):
        # each of these loaded with a coerced value, or failed at product.assignment with a Python message
        record = json.loads((CONFIGS / "constant_affine.json").read_text())
        edit(record["product"])
        code, err = self.run_main(capsys, "validate", "--config", write_json(tmp_path / "bad.json", record),
                                  "--out", str(tmp_path / "out"))
        assert code == 2 and err == f"invalid input: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, line", [
        ("window,x\n-5 1 1 1 1 1 1 1 1 1 1,0.2\n-5 1 1 1 1 1 1 1 1 1 1\n", 3),
        ("x,window\n0.2,-5 1 1 1 1 1 1 1 1 1 1\n0.3\n", 3),
        ("x\n0.2\n", 2),
    ], ids=["no-x-value", "no-window-value", "no-window-column"])
    def test_point_row_without_a_field(self, tmp_path, capsys, text, line):
        points = tmp_path / "points.csv"
        points.write_text(text)
        code, err = self.run_main(capsys, "classify", "--config", str(CONFIGS / "constant_affine.json"),
                                  "--points", str(points), "--depth", "2", "--out", str(tmp_path / "out"))
        assert code == 2
        assert err == f"invalid input: points line {line}: malformed point row: needs a window and an x value\n"
        assert not (tmp_path / "out").exists()


class TestApproxCommand:
    def test_product_and_ladder(self, tmp_path):
        code = run("approx", str(CONFIGS / "continuous_geometric.json"),
                   out=str(tmp_path), depth=3)
        assert code == 0
        product = json.loads((tmp_path / "approx_product.json").read_text())
        assert product["window"] == [3, 3]
        assert len(product["assignment"]) == 2 ** 7
        ladder = (tmp_path / "approx_ladder.csv").read_text().splitlines()
        assert ladder[1] == "m,distance_to_next,bound"
        rows = [line.split(",") for line in ladder[2:]]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        for r in rows:
            assert float(r[1]) <= float(r[2])

    def test_ladder_digits_at_depth_5(self, tmp_path):
        assert run("approx", str(CONFIGS / "continuous_geometric.json"), out=str(tmp_path), depth=5) == 0
        ladder = (tmp_path / "approx_ladder.csv").read_text().splitlines()
        assert ladder[2:] == [
            "2,0.0031250000000001554,0.0190625",
            "3,0.0015625000000001332,0.0095312499999999998",
            "4,0.00078125000000017764,0.0047656249999999999",
        ]

    def test_depth_beyond_cap_exits_3(self, tmp_path):
        code = run("approx", str(CONFIGS / "continuous_geometric.json"),
                   out=str(tmp_path), depth=6)
        assert code == 3

    @pytest.mark.parametrize("field, value, error", [
        ("symbol_params", [1, 2], "not iterable"),
        ("symbol_params", [{"a": 0.1, "b": 0.8, "zz": 1}, {"a": 0.12, "b": 0.8}], "zz"),
        ("template", "bump_composed", "'inner'"),
    ])
    def test_malformed_continuous_section_exits_2(self, tmp_path, capsys, field, value, error):
        record = json.loads((CONFIGS / "continuous_geometric.json").read_text())
        record["continuous"][field] = value
        path = write_json(tmp_path / "malformed.json", record)
        assert run("approx", path, out=str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: continuous: malformed record: ") and error in err
        assert not (tmp_path / "out").exists()


def readme_cli_commands() -> dict[str, list[str]]:
    """argv (program name dropped) of each `skewdrift ...` line in the README CLI block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = {}
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if argv and argv[0] == "skewdrift":
            commands[argv[1]] = argv[1:]
    return commands


def readme_script_commands() -> list[list[str]]:
    """argv of each `python3 scripts/...` line in the README experiment-scripts block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Experiment scripts", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [argv for argv in lines if argv[:1] == ["python3"] and argv[1].startswith("scripts/")]


class TestReadmeCommands:
    @pytest.mark.parametrize("command", ["validate", "classify", "measure", "sweep", "approx"])
    def test_runs_as_written(self, command, tmp_path, monkeypatch, capsys):
        # the README paths are relative to the repository root; a linked
        # scripts/ keeps --out out/ inside the temporary directory
        (tmp_path / "scripts").symlink_to(ROOT / "scripts", target_is_directory=True)
        monkeypatch.chdir(tmp_path)
        assert main(readme_cli_commands()[command]) == 0

    def test_scripts_run_as_written(self, tmp_path):
        (tmp_path / "scripts").symlink_to(ROOT / "scripts", target_is_directory=True)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        commands = readme_script_commands()
        assert sorted(argv[1] for argv in commands) == [
            "scripts/run_classifier_demo.py", "scripts/run_contraction_baseline.py", "scripts/run_gap_sweep.py",
        ]
        for argv in commands:
            done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
            assert done.returncode == 0, (argv, done.stderr)
        assert all((tmp_path / "out" / "gap_sweep" / name).is_file() for name in ("sweep.csv", "gaps.csv", "mu.dat"))


# SHA-256 of artifacts of the shipped configs, recorded with the earlier
# dict-backed graphs and regions; the array forms must reproduce every byte.
SHIPPED_ARTIFACTS = {
    "measure_constant_affine/region_estimate.json": "376e0d91d1ba0b1390377627dfd8ce773f705dea5158a18d8b241afd49d4d232",
    "measure_golden_affine/region_estimate.json": "e88b536dbfc41d811378a10e9f84a13616b11e465e6f6723b9bdc49d12efe634",
    "measure_plateau_family/region_estimate.json": "de4d1bf249ab1e3fb4e416fee7019bf99f44bed75237eeb0eddd862241e45835",
    "out/classifications.csv": "34d02103b4971c8c71a7014e58043181f8d44aa5c04af866274744e1c06df6ea",
    "out/classifications.jsonl": "185f3a0149d300d16e0e74f1242630c411e7493eb5c94990a2af0177044889af",
    "approx_depth4/approx_ladder.csv": "3f4be564aed0b60f9286147dac77d66a4b39f0eea4cedbacbd652ceb9cb39651",
    "approx_depth4/approx_product.json": "870311aff6682e1105d0869df24e84fb8e050f6867ad170cf82d07dc788b98fd",
    "approx_depth5/approx_ladder.csv": "58d298735592fcf5f3ccba5999fcf32c90eb4ae2d9544c764959b37af1f5d811",
    "approx_depth5/approx_product.json": "4e4d5eba34794e220c9b97279880c229d58fe42a254c967c5469577c710b4530",
    # the plateau sweep at the benchmark's sample size: its standard reference digests
    "sweep_plateau_family/sweep.csv": "6e391563187348b63be8577045cef778ebf4af08a5a5bca8f5f8b3510dabecd6",
    "sweep_plateau_family/gaps.csv": "3b2ec20468180be363342433e31ec710b0ddd47c7c83affb1c4252e170c305cc",
    "sweep_plateau_family/mu.dat": "366d3116968874bea63657f5d8d2c3b2b6a9980c125ecafd69d846869d15b7c9",
}


class TestShippedArtifacts:
    def test_digests_unchanged(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "scripts").symlink_to(ROOT / "scripts", target_is_directory=True)
        monkeypatch.chdir(tmp_path)
        for name in ("constant_affine", "golden_affine", "plateau_family"):
            assert main(["measure", "--config", f"scripts/configs/{name}.json", "--out", f"measure_{name}"]) == 0
        assert main(readme_cli_commands()["classify"]) == 0
        for depth in ("4", "5"):
            assert main(["approx", "--config", "scripts/configs/continuous_geometric.json", "--depth", depth,
                         "--out", f"approx_depth{depth}"]) == 0
        assert main(["sweep", "--config", "scripts/configs/plateau_family.json", "--samples", "5000",
                     "--out", "sweep_plateau_family"]) == 0
        digests = {path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() for path in SHIPPED_ARTIFACTS}
        assert digests == SHIPPED_ARTIFACTS
