#!/usr/bin/env python3
"""Summarise the benchmark records of two checkouts into one BENCH_*.json file.

    python3 scripts/bench_summary.py --before ../parent --after . --out BENCH_6.json
    python3 scripts/bench_summary.py --before ../parent --after . --control ../control --out BENCH_25.json

bench/run.py writes one record per run to .bench_run/records/ of the checkout
it runs in. This script reads the records of each checkout and keeps those
whose src_sha256 is the digest of the checkout's current src/skewdrift/*.py,
so records of older code are left out. A (workload, trace, seed) run on both
sides keeps the newest k records of each side by start time, k the smaller
count, so a side benchmarked in two batches is not counted twice; the number
of records dropped this way is written per side. Per workload and side it writes the
median of every metric over the kept runs (end-to-end metrics from --trace 0
runs, per-layer metrics from --trace 1 runs) and its interquartile range, the
first and third quartiles by statistics.quantiles(n=4, method="inclusive")
(null for one run), the runs' seeds and failed checks, and the after/before
ratio of each median. The kept --trace 0 runs of a (workload, seed) pair up
across the sides in start-time order, and "pairs" counts, per workload and
end-to-end metric, the pairs whose after value is lower, higher or equal.
Each side also names its
git commit, whether src/ differs from that commit, Python and numpy versions,
nproc, the CPU model and src_lines, the summed line counts of
src/skewdrift/*.py as wc -l gives them. Records of different versions or
hosts on one side are refused.

With --control, a third checkout (the parent plus a change that does
nothing, to show how far source layout alone moves the metrics) is read like
the change: "control" is its side, "ratio_control_to_before" its ratios to
the before medians, and "control_pairs" its pair counts against before, with
its runs and the parent's paired as for the change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECTIONS = {0: "end_to_end", 1: "per_layer"}


def src_digest(root: Path) -> str:
    """sha256 over src/skewdrift/*.py, computed as bench/run.py records it."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "skewdrift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_lines(root: Path) -> int:
    """Summed line counts of src/skewdrift/*.py, counted as wc -l counts them (newline characters)."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "skewdrift").glob("*.py"))


def git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30)


def current_records(root: Path) -> list[dict]:
    """The standard-profile records of root's current src/."""
    digest = src_digest(root)
    paths = sorted((root / ".bench_run" / "records").glob("*.json"))
    records = [r for r in (json.loads(p.read_text()) for p in paths)
               if r.get("src_sha256") == digest and r.get("profile") == "standard"]
    if not records:
        raise SystemExit(f"{root}: no standard-profile records of the current src/ (sha256 {digest[:12]})")
    return records


def by_run(records: list[dict]) -> dict:
    """Records grouped by (workload, trace, seed), each group in start-time order."""
    groups: dict = {}
    for r in sorted(records, key=lambda r: r["host_start"]["time"]):
        groups.setdefault((r["workload"], r["trace"], r["seed"]), []).append(r)
    return groups


def paired(before: list[dict], after: list[dict]) -> tuple[list[dict], list[dict]]:
    """Both sides with each (workload, trace, seed) of both cut to its newest k records, k the smaller count."""
    old, new = by_run(before), by_run(after)
    for key in old.keys() & new.keys():
        k = min(len(old[key]), len(new[key]))
        old[key], new[key] = old[key][-k:], new[key][-k:]
    return [r for runs in old.values() for r in runs], [r for runs in new.values() for r in runs]


def pair_counts(before: list[dict], after: list[dict]) -> dict:
    """Per workload and end-to-end metric, how many run pairs read lower, higher or equal after than before.

    The --trace 0 runs of a (workload, seed) on each side pair up in start-time order.
    """
    old, new = by_run(before), by_run(after)
    counts: dict = {}
    for key in sorted(k for k in old.keys() & new.keys() if k[1] == 0):
        for b, a in zip(old[key], new[key]):
            for name in sorted(a["metrics"].keys() & b["metrics"].keys()):
                diff = a["metrics"][name]["value"] - b["metrics"][name]["value"]
                tally = counts.setdefault(key[0], {}).setdefault(name, {"lower": 0, "higher": 0, "equal": 0})
                tally["lower" if diff < 0 else "higher" if diff > 0 else "equal"] += 1
    return counts


def metric_summary(entries: list[dict]) -> dict:
    """Median, interquartile range [first, third quartile] (None for one run) and unit of one metric's runs."""
    values = [e["value"] for e in entries]
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else None
    return {
        "median": statistics.median(values),
        "iqr": None if quartiles is None else [quartiles[0], quartiles[2]],
        "unit": entries[0]["unit"],
    }


def summarise(root: Path, records: list[dict], dropped: int) -> dict:
    digest = src_digest(root)
    host = {(r["result"]["python"], r["result"]["numpy"], r["nproc"], r["cpu_model"]) for r in records}
    if len(host) > 1:
        raise SystemExit(f"{root}: records come from different versions or hosts: {sorted(host)}")
    [(python, numpy, nproc, cpu_model)] = host
    sha = git(root, "rev-parse", "HEAD").stdout.strip() or None
    differs = None if sha is None else git(root, "diff", "--quiet", "HEAD", "--", "src").returncode != 0
    side = {
        "git_sha": sha,
        "src_differs_from_commit": differs,
        "src_sha256": digest,
        "src_lines": src_lines(root),
        "python": python,
        "numpy": numpy,
        "nproc": nproc,
        "cpu_model": cpu_model,
        "dropped_records": dropped,
        "workloads": {},
    }
    groups: dict = {}
    for r in records:
        groups.setdefault(r["workload"], {}).setdefault(SECTIONS[r["trace"]], []).append(r)
    for workload, sections in sorted(groups.items()):
        entry = side["workloads"][workload] = {}
        for section, runs in sorted(sections.items()):
            names = dict.fromkeys(name for r in runs for name in r["metrics"])
            entry[section] = {
                "runs": len(runs),
                "seeds": sorted({r["seed"] for r in runs}),
                "failed_checks": sum(r["result"]["checks"]["failed"] for r in runs),
                "metrics": {name: metric_summary([r["metrics"][name] for r in runs if name in r["metrics"]])
                            for name in names},
            }
    return side


def ratios(before: dict, after: dict) -> dict:
    """after/before of every median both sides have, where before is not zero."""
    out = {}
    for workload, sections in after["workloads"].items():
        for section, summary in sections.items():
            old = before["workloads"].get(workload, {}).get(section, {}).get("metrics", {})
            for name, metric in summary["metrics"].items():
                if name in old and old[name]["median"]:
                    out.setdefault(workload, {})[name] = metric["median"] / old[name]["median"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--before", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--after", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--control", type=Path, help="checkout of the parent plus a change that does nothing")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json file to write")
    args = parser.parse_args(argv)
    roots = args.before.resolve(), args.after.resolve()
    records = [current_records(root) for root in roots]
    kept = paired(*records)
    before, after = (summarise(root, runs, len(all_runs) - len(runs))
                     for root, runs, all_runs in zip(roots, kept, records))
    report = {"before": before, "after": after, "ratio_after_to_before": ratios(before, after),
              "pairs": pair_counts(*kept)}
    if args.control:
        root = args.control.resolve()
        runs = current_records(root)
        old, new = paired(records[0], runs)
        report["control"] = summarise(root, new, len(runs) - len(new))
        report["ratio_control_to_before"] = ratios(before, report["control"])
        report["control_pairs"] = pair_counts(old, new)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
