"""Configuration-driven command line: validate, classify, measure, sweep, approx.

Exit codes: 0 success, 2 validation/config failure, 3 resource-bound violation.
All file writes are plain text: CSV and .dat files render floats with 17
significant digits, JSON files with Python's shortest round-trip repr, so
identical config + seed reproduces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .drift import classify_point
from .errors import ConfigError, ResourceBoundError, _file_error
from .fibers import map_to_json
# compare_order and family_member are bound here, unused, so that bench/tracer.py can patch them on this module
from .measure import (
    _fmt,
    _gap_tolerance_problem,
    _grid_problem,
    _table,
    detect_gaps,
    estimate_regions,
    family_member,
    gaps_to_csv,
    hoeffding_radius,
    mu_data_file,
    sweep,
    sweep_to_csv,
)
from .products import (
    LabeledPoint,
    MultistepSkewProduct,
    approximation_distance_bound,
    compare_order,
    distance,
    multistep_approximation,
)
from .symbolic import SymbolWindow


def _write(path: Path, text: str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _file_error("out", path, exc) from exc


def _parse_point_row(row: dict, line: int) -> LabeledPoint:
    try:
        if row.get("window") is None or row.get("x") is None:  # a missing column or a short row
            raise ValueError("needs a window and an x value")
        tokens = row["window"].split()
        offset = int(tokens[0])
        symbols = tuple(int(t) for t in tokens[1:])
        x = float(row["x"])
        return LabeledPoint(SymbolWindow(offset, symbols), x)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"points line {line}", f"malformed point row: {exc}")


def _cmd_validate(cfg: RunConfig, out_dir: Path) -> int:
    # Loading refused every failing config with exit 2, so each check below holds:
    # TransitionSystem requires a strongly connected digraph, MultistepSkewProduct
    # class-checks every map, ContinuousProductSpec its worst-case parameters, and
    # MonotoneFamily requires compare_order to put its tau_min member below its tau_max one.
    pi = ", ".join(_fmt(v) for v in cfg.chain.stationary)
    lines = ["transitive base: ok", f"stationary vector: ({pi})"]
    if cfg.product is not None:
        lines.append(f"fiber maps in class: {len(cfg.product.assignment)}/{len(cfg.product.assignment)}")
    if cfg.continuous is not None:
        lines.append("continuous template: worst-case parameters stay in class")
    if cfg.family is not None:
        lo, hi = cfg.family.tau_range
        lines.append(f"family monotone on [{_fmt(lo)}, {_fmt(hi)}]: ok")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    _write(out_dir / "validate_report.txt", report)
    return 0


def _cmd_classify(cfg: RunConfig, out_dir: Path, points_path: str | None) -> int:
    if not points_path:
        raise ConfigError("points", "classify needs --points CSV")
    depth = cfg.analysis.depth
    points = []
    try:
        with open(points_path, "r", encoding="utf-8") as fh:
            lines = [(n, text) for n, text in enumerate(fh, start=1) if not text.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error("points", points_path, exc) from exc
    reader = csv.DictReader(text for _, text in lines)
    for row in reader:
        line = lines[reader.line_num - 1][0]  # line_num counts the non-comment lines read
        points.append((line, _parse_point_row(row, line)))
    rows, json_lines = [], []
    for line, point in points:
        try:
            result = classify_point(cfg.product, point, depth)
        except ValueError as exc:
            raise ConfigError(f"points line {line}", str(exc)) from exc
        margin = "" if result.witness is None else _fmt(result.witness.margin)
        window_txt = " ".join([str(point.window.offset)] + [str(s) for s in point.window.symbols])
        rows.append([window_txt, _fmt(point.x), result.verdict, margin, str(depth)])
        record = result.to_json()
        record["window"] = window_txt
        record["x"] = point.x
        json_lines.append(json.dumps(record, sort_keys=True) + "\n")
    table = _table(cfg.analysis.seed, depth, len(points), "window,x,verdict,margin,depth", rows)
    _write(out_dir / "classifications.csv", table)
    _write(out_dir / "classifications.jsonl", "".join(json_lines))
    print(f"classified {len(points)} points at depth {depth} -> {out_dir}/classifications.csv")
    return 0


def _cmd_measure(cfg: RunConfig, out_dir: Path) -> int:
    est = estimate_regions(cfg.product, cfg.analysis.depth, cfg.analysis.samples, cfg.analysis.seed)
    _write(out_dir / "region_estimate.json", json.dumps(est.to_json(), indent=2, sort_keys=True) + "\n")
    print(
        f"mc_up={est.mc_up:.4f} mc_down={est.mc_down:.4f} mc_unknown={est.mc_unknown:.4f} "
        f"certified_up={est.certified_up_measure:.4f} certified_down={est.certified_down_measure:.4f}"
    )
    return 0


def _cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    if not cfg.analysis.grid:
        raise ConfigError("analysis.grid", "sweep needs a parameter grid")
    a = cfg.analysis
    problem = _grid_problem(a.grid, cfg.family.tau_range)
    if problem:  # refused before any member is built
        raise ConfigError("analysis.grid", str(problem))
    problem = _gap_tolerance_problem(a.gap_epsilon, a.samples, hoeffding_radius(a.samples))
    if problem:  # detect_gaps would refuse eps only after every member is swept
        raise ConfigError("analysis.gap_epsilon", problem)
    result = sweep(cfg.family, a.grid, a.depth, a.samples, a.seed)
    gaps = detect_gaps(result, a.gap_epsilon)
    _write(out_dir / "sweep.csv", sweep_to_csv(result, a.seed, a.depth, a.samples))
    _write(out_dir / "gaps.csv", gaps_to_csv(gaps, a.seed, a.depth, a.samples))
    _write(out_dir / "mu.dat", mu_data_file(result, a.seed, a.depth, a.samples))
    print(f"swept {len(result.grid)} parameters; {len(gaps)} gap interval(s) -> {out_dir}/sweep.csv")
    return 0


def _product_text(product: MultistepSkewProduct) -> str:
    """json.dumps(product.to_json(), indent=2, sort_keys=True) + "\n", each map object encoded once.

    Keyed by object: Affine(-0.0, b) == Affine(0.0, b) prints differently. A
    JSON string holds no raw newline, so replacing "\n" re-indents a map exactly.
    """
    maps = {}
    entries = []
    for word, fmap in sorted(product.assignment.items()):
        if id(fmap) not in maps:
            maps[id(fmap)] = json.dumps(map_to_json(fmap), indent=2, sort_keys=True).replace("\n", "\n      ")
        symbols = ",\n        ".join(map(str, word))
        entries.append(f'    {{\n      "map": {maps[id(fmap)]},\n      "word": [\n        {symbols}\n      ]\n    }}')
    l, r = product.window
    return '{\n  "assignment": [\n' + ",\n".join(entries) + f'\n  ],\n  "window": [\n    {l},\n    {r}\n  ]\n}}\n'


def _cmd_approx(cfg: RunConfig, out_dir: Path) -> int:
    m = cfg.analysis.depth
    ladder = {m: multistep_approximation(cfg.continuous, m)}
    _write(out_dir / "approx_product.json", _product_text(ladder[m]))
    rungs = range(max(0, m - 3), m)
    ladder.update((k, multistep_approximation(cfg.continuous, k)) for k in rungs)
    rows = ([str(k), _fmt(distance(ladder[k], ladder[k + 1])), _fmt(approximation_distance_bound(cfg.continuous, k))]
            for k in rungs)
    table = _table(cfg.analysis.seed, m, cfg.analysis.samples, "m,distance_to_next,bound", rows)
    _write(out_dir / "approx_ladder.csv", table)
    print(f"truncated at m={m}; ladder -> {out_dir}/approx_ladder.csv")
    return 0


# each command, the config section it needs (None if it needs none) and its function
COMMANDS = {"validate": (None, _cmd_validate), "classify": ("product", _cmd_classify),
            "measure": ("product", _cmd_measure), "sweep": ("family", _cmd_sweep), "approx": ("continuous", _cmd_approx)}


def run(command: str, config_path: str, *, seed=None, depth=None, samples=None,
        grid=None, out=".", points=None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        cfg = load_config(config_path, {"seed": seed, "depth": depth, "samples": samples, "grid": grid})
        if command not in COMMANDS:
            print(f"unknown command {command!r}", file=sys.stderr)
            return 2
        section, cmd = COMMANDS[command]
        if section is not None and getattr(cfg, section) is None:
            raise ConfigError(section, f"{command} needs a '{section}' section")
        return cmd(cfg, Path(out), points) if cmd is _cmd_classify else cmd(cfg, Path(out))
    except (ResourceBoundError, MemoryError) as exc:  # numpy raises MemoryError for an array it cannot allocate
        print(f"resource bound: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewdrift",
        description="Certified drift analysis for interval skew products over subshifts of finite type.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override analysis.seed")
    parser.add_argument("--depth", type=int, default=None, help="override analysis.depth (m for approx)")
    parser.add_argument("--samples", type=int, default=None, help="override analysis.samples")
    parser.add_argument("--grid", type=str, default=None,
                        help="override sweep grid as --grid=LO:HI:STEP (the = form also takes LO < 0)")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--points", type=str, default=None, help="input points CSV for classify")
    args = vars(parser.parse_args(argv))
    return run(args.pop("command"), args.pop("config"), **args)


if __name__ == "__main__":
    sys.exit(main())
