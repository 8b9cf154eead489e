#!/usr/bin/env python3
"""Sweep a plateau-map family through the parameter where an anchored block of
positive measure appears, and locate it as a jump of the sampled up-measure.

The base map is the identity on [0.4, 0.6] with quadratic push-in outside;
post-composing with tau * x * (1 - x) tilts the plateau. For tau < 0 the
anchored set is a single attracting level, for tau = 0 it is the whole block
of measure 0.2, and the up-measure curve jumps by that amount across 0.

The family, grid, depth, seed and gap epsilon are those of
scripts/configs/plateau_family.json; the flags override them.

Usage: python3 scripts/run_gap_sweep.py [--samples N] [--depth M] [--seed S] [--eps E] [--out DIR]
"""

import argparse
from pathlib import Path

import skewdrift as sd
from skewdrift.config import load_config
from skewdrift.measure import gaps_to_csv, mu_data_file, sweep_to_csv

CONFIG = Path(__file__).resolve().parent / "configs" / "plateau_family.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=20_000, help="override analysis.samples")
    parser.add_argument("--depth", type=int, default=None, help="override analysis.depth")
    parser.add_argument("--seed", type=int, default=None, help="override analysis.seed")
    parser.add_argument("--eps", type=float, default=None, help="override analysis.gap_epsilon")
    parser.add_argument("--out", type=str, default="out/gap_sweep")
    args = parser.parse_args()

    overrides = {"samples": args.samples, "depth": args.depth, "seed": args.seed, "gap_epsilon": args.eps}
    cfg = load_config(str(CONFIG), overrides)
    a = cfg.analysis
    result = sd.sweep(cfg.family, a.grid, a.depth, a.samples, a.seed)
    gaps = sd.detect_gaps(result, a.gap_epsilon)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(sweep_to_csv(result, a.seed, a.depth, a.samples))
    (out / "gaps.csv").write_text(gaps_to_csv(gaps, a.seed, a.depth, a.samples))
    (out / "mu.dat").write_text(mu_data_file(result, a.seed, a.depth, a.samples))

    print(f"{'tau':>8} {'mc_up':>8} {'mu_lower':>9}")
    for tau, mc, lower in zip(result.grid, result.mu_mc, result.mu_lower):
        print(f"{tau:>+8.3f} {mc:>8.4f} {lower:>9.4f}")
    for gap in gaps:
        print(f"gap on [{gap.tau_lo:+.3f}, {gap.tau_hi:+.3f}]: lower bound {gap.lower_bound:.3f}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
