#!/usr/bin/env python3
"""Sweep a plateau-map family through the parameter where an anchored block of
positive measure appears, and locate it as a jump of the sampled up-measure.

The base map is the identity on [0.4, 0.6] with quadratic push-in outside;
post-composing with tau * x * (1 - x) tilts the plateau. For tau < 0 the
anchored set is a single attracting level, for tau = 0 it is the whole block
of measure 0.2, and the up-measure curve jumps by that amount across 0.

Usage: python3 scripts/run_gap_sweep.py [--samples N] [--depth M] [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

import skewdrift as sd
from skewdrift.measure import gaps_to_csv, mu_data_file, sweep_to_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--depth", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--eps", type=float, default=0.05)
    parser.add_argument("--out", type=str, default="out/gap_sweep")
    args = parser.parse_args()

    system = sd.TransitionSystem(np.array([[1, 1], [1, 1]]))
    chain = sd.MarkovChain(system, np.array([[0.5, 0.5], [0.5, 0.5]]))
    plateau = sd.Plateau(0.5, 0.4, 0.6)
    product = sd.MultistepSkewProduct(
        system, chain, (0, 0), {(1,): plateau, (2,): plateau}
    )
    family = sd.MonotoneFamily(product, 1.0, (-0.025, 0.025))
    grid = [(i - 10) * 0.002 for i in range(21)]

    result = sd.sweep(family, grid, args.depth, args.samples, args.seed)
    gaps = sd.detect_gaps(result, args.eps)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(sweep_to_csv(result, args.seed, args.depth, args.samples))
    (out / "gaps.csv").write_text(gaps_to_csv(gaps, args.seed, args.depth, args.samples))
    (out / "mu.dat").write_text(mu_data_file(result, args.seed, args.depth, args.samples))

    print(f"{'tau':>8} {'mc_up':>8} {'mu_lower':>9}")
    for tau, mc, lower in zip(result.grid, result.mu_mc, result.mu_lower):
        print(f"{tau:>+8.3f} {mc:>8.4f} {lower:>9.4f}")
    for gap in gaps:
        print(f"gap on [{gap.tau_lo:+.3f}, {gap.tau_hi:+.3f}]: lower bound {gap.lower_bound:.3f}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
