"""One benchmark process: a set-up probe or a measured workload run.

    worker.py probe --workload W --profile P --run-dir D
        Prints {"setup_s": ..., "setup_raw_s": ...}: import of skewdrift plus
        config load and product/family construction, timed in this fresh
        process (numpy is imported before timing starts).

    worker.py run --workload W --seed S --seconds T --trace 0|1 --profile P
                  --reference FILE --run-dir D --result FILE
        Runs the reference pass (untimed), then timed passes on the seed's
        inputs until the next pass would overrun T seconds, checks every pass
        and writes the raw samples to FILE. Timed passes run with the host
        clock (hostclock.py) on. With --trace 1 the timed passes alternate
        untraced and traced, so the tracing overhead is measured in the same
        process; spans are timed on the host clock's raw time, which leaves
        out the calibration samples.

run.py starts this script with BLAS threads pinned to 1 and src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Host-clock sampling intervals: a timed pass lasts seconds, a set-up probe ~0.1 s.
PASS_INTERVAL_S = 0.05
PROBE_INTERVAL_S = 0.01


def probe(args) -> int:
    import numpy  # noqa: F401  numpy's own import is not timed

    import hostclock

    clock = hostclock.HostClock(PROBE_INTERVAL_S)
    clock.start()
    begin = clock.mark()
    import workloads

    imported = clock.mark()
    workload = workloads.WORKLOADS[args.workload](workloads.PROFILES[args.profile], Path(args.run_dir))
    inputs = workload.prepare(workload.reference_seed or 0)
    prepared = clock.mark()
    workload.setup(inputs)
    clock.stop()
    done = clock.mark()
    print(json.dumps({"setup_s": imported[0] - begin[0] + done[0] - prepared[0],
                      "setup_raw_s": imported[1] - begin[1] + done[1] - prepared[1]}))
    return 0


def _public(timing: dict) -> dict:
    return {k: v for k, v in timing.items() if not k.startswith("_")}


def run(args) -> int:
    import numpy as np

    import hostclock
    import tracer as tracing
    import workloads

    run_dir = Path(args.run_dir)
    profile = workloads.PROFILES[args.profile]
    workload = workloads.WORKLOADS[args.workload](profile, run_dir)
    expected = json.loads(Path(args.reference).read_text()).get(args.profile, {}).get(args.workload)
    checks = workloads.Checks()
    clock = hostclock.HostClock(PASS_INTERVAL_S)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "profile": args.profile,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "passes": [],
        "trace": [],
    }

    def checked_pass(inputs, out_dir: Path, label: str, tracer=None, sampled=False):
        """Run and check one pass; returns (timing or None, digests).

        A sampled pass runs with the host clock on; its wall_s is in
        reference-speed seconds. wall_raw_s is plain wall time.
        """
        out_dir.mkdir(parents=True, exist_ok=True)
        timing = None
        if tracer is not None:
            tracer.reset()
            tracer.install()
        if sampled:
            clock.start()
        start = clock.mark()
        try:
            timing = workload.run_pass(inputs, out_dir, clock)
        except Exception:
            checks.check(False, f"{label}: {traceback.format_exc(limit=3)}")
        finally:
            end = clock.mark()
            if sampled:
                clock.stop()
            if tracer is not None:
                tracer.uninstall()
        if timing is None:
            return None, {}
        timing["wall_raw_s"] = end[1] - start[1]
        timing["wall_s"] = end[0] - start[0] if sampled else timing["wall_raw_s"]
        try:
            digests = workload.check_pass(timing, inputs, out_dir, checks, label)
        except Exception:
            checks.check(False, f"{label} checks: {traceback.format_exc(limit=3)}")
            digests = {}
        return timing, digests

    if workload.reference_seed is not None:
        timing, digests = checked_pass(workload.prepare(workload.reference_seed), run_dir / "reference",
                                       f"reference seed {workload.reference_seed}")
        workloads.check_digests(checks, "reference", digests, expected, workload.artifacts)
        result["reference"] = {"seed": workload.reference_seed, "digests": digests,
                               "timing": None if timing is None else _public(timing)}

    inputs = workload.prepare(args.seed)
    result["sizes"] = workload.describe()
    tracer = tracing.Tracer(now=clock.raw) if args.trace else None
    first_digests = None
    first_counts = None
    min_passes = 2 if args.trace else 1
    walls = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        timing, digests = checked_pass(inputs, run_dir / "pass", f"pass {index}",
                                       tracer if traced else None, sampled=True)
        if first_digests is None:
            first_digests = digests
            result["digests"] = digests
        if workload.reference_seed is None:
            workloads.check_digests(checks, f"pass {index}", digests, expected, workload.artifacts)
        elif index > 0:
            workloads.check_digests(checks, f"pass {index} against pass 0", digests, first_digests,
                                    workload.artifacts)
        if timing is not None:
            walls.append(timing["wall_raw_s"])
            result["passes"].append({"traced": traced, **_public(timing)})
            if traced:
                summary = tracer.summary(timing["wall_raw_s"])
                if first_counts is None:
                    first_counts = summary["counts"]
                else:
                    checks.check(summary["counts"] == first_counts,
                                 f"pass {index}: traced counts differ from the first traced pass")
                result["trace"].append(summary)
                tracer.reset()
        if index == 0:
            # after the first timed pass, so it does not depend on how many passes fit
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        index += 1
        elapsed = time.perf_counter() - start
        if index >= min_passes and (not walls or elapsed + statistics.median(walls) > args.seconds):
            break

    result["checks"] = {"attempted": checks.attempted, "failed": len(checks.failures),
                        "failures": checks.failures[:50]}
    Path(args.result).write_text(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=["probe", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--profile", default="standard")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    Path(args.run_dir).mkdir(parents=True, exist_ok=True)
    return probe(args) if args.mode == "probe" else run(args)


if __name__ == "__main__":
    sys.exit(main())
