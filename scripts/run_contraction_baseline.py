#!/usr/bin/env python3
"""Baseline experiment: the single contracting affine fiber map of
scripts/configs/constant_affine.json over the full 2-shift. Prints how the
sampled Up/Down split and the certified region measures converge as the
witness depth grows.

Usage: python3 scripts/run_contraction_baseline.py [--samples N] [--seed S]
"""

import argparse
from pathlib import Path

import skewdrift as sd
from skewdrift.config import load_config

CONFIG = Path(__file__).resolve().parent / "configs" / "constant_affine.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    product = load_config(str(CONFIG)).product
    fmap = product.assignment[(1,)]

    print(f"fiber map a + b*x with a={fmap.a}, b={fmap.b}; invariant level at {fmap.a / (1 - fmap.b):g}")
    print(f"{'depth':>5} {'mc_up':>8} {'mc_down':>8} {'mc_unk':>8} {'cert_up':>8} {'cert_down':>9}")
    for depth in (0, 2, 4, 8, 12):
        est = sd.estimate_regions(product, depth, args.samples, args.seed)
        print(
            f"{depth:>5} {est.mc_up:>8.4f} {est.mc_down:>8.4f} {est.mc_unknown:>8.4f} "
            f"{est.certified_up_measure:>8.4f} {est.certified_down_measure:>9.4f}"
        )


if __name__ == "__main__":
    main()
