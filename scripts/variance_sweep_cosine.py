"""Bond variance across a grid of tilts for the cosine-perturbed model.

Sweeps the integer tilt grid, estimates the untilted bond variance per
axis with one fresh chain per tilt, and reports the spread as the
max/min ratio; the CSV marks the tilts on the hull of the grid.

Usage: python3 scripts/variance_sweep_cosine.py [--sweeps 6000] [--span 3]
"""

import argparse
import itertools
from pathlib import Path

import numpy as np

from heightlab import make_cosine_perturbed, variance_sweep
from heightlab.io import write_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, default=0.5)
    ap.add_argument("--kappa", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=8)
    ap.add_argument("--span", type=int, default=3)
    ap.add_argument("--sweeps", type=int, default=6000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/variance_sweep_cosine.csv")
    args = ap.parse_args()

    pot = make_cosine_perturbed(args.a, args.kappa)
    rng = range(-args.span, args.span + 1)
    tilts = np.array(list(itertools.product(rng, rng)), dtype=float)
    sweep = variance_sweep(pot, args.N, tilts, sweeps=args.sweeps, seed=args.seed)

    edge = sweep.edge_mask()
    out = Path(args.out)
    write_csv(
        out,
        {
            "u_0": sweep.tilts[:, 0],
            "u_1": sweep.tilts[:, 1],
            "var_0": sweep.values[:, 0],
            "var_err_0": sweep.stderr[:, 0],
            "var_1": sweep.values[:, 1],
            "var_err_1": sweep.stderr[:, 1],
            "on_hull": edge.astype(int),
        },
        {"potential": pot.name, "N": args.N, "sweeps": args.sweeps, "seed": args.seed},
    )
    print(f"{len(tilts)} tilts -> {out}")
    print(f"variance range: [{sweep.values.min():.4f}, {sweep.values.max():.4f}]")
    print(f"max/min ratio: {sweep.ratio:.3f}")


if __name__ == "__main__":
    main()
