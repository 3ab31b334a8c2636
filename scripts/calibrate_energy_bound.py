"""Calibrate the constant K in the a-priori energy bound.

Flat initial data with zero boundary values makes both sides of

    E|h(t)|^2 + c_minus E int_0^t |grad|^2  <=  2 E|h(0)|^2 + K (1 + t)

start from zero signals, so the left side's late-time growth is pure
fluctuation production and its least-squares slope is the natural scale
for K.  The frozen default in heightlab.dynamics is that slope times a
1.2 safety factor, rounded up to two decimals, from a run of the
Euler-Maruyama step at half today's step cap (slope 1.443); today's
step gives slope 1.410, and the default is kept.

Usage: python3 scripts/calibrate_energy_bound.py [--N 16] [--seeds 32]
"""

import argparse

import numpy as np

from heightlab import DomainSpec, make_gaussian
from heightlab.dynamics import DirichletSystem, langevin_step, run_dirichlet
from heightlab.lattice import discretize_domain


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, default=16)
    ap.add_argument("--seeds", type=int, default=32)
    ap.add_argument("--t-end", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    pot = make_gaussian()
    spec = DomainSpec(shape="box", center=(0.5,), sides=(1.0,))
    dom = discretize_domain(spec, args.N)
    psi = np.zeros(dom.n_sites)
    system = DirichletSystem(
        dom, pot, psi, phi0=psi.copy(), seed=args.seed, replicas=args.seeds
    )
    times = np.linspace(0.0, args.t_end, 21)[1:]
    dt = langevin_step(pot, spec.d)
    trace = run_dirichlet(system, dt, times)

    lhs = trace.h_norm_sq.mean(axis=1) + pot.c_minus * trace.dirichlet_integral.mean(
        axis=1
    )
    slope = float(np.polyfit(trace.times, lhs, 1)[0])
    ratio = float((lhs / (1.0 + trace.times)).max())
    suggested = float(np.ceil(120.0 * slope) / 100.0)
    print(f"N={args.N} replicas={args.seeds} dt={dt:g} t_end={args.t_end}")
    print(f"lhs slope (least squares): {slope:.6f}")
    print(f"max lhs/(1+t):             {ratio:.6f}")
    print(f"suggested K = 1.2 * slope, rounded up: {suggested}")


if __name__ == "__main__":
    main()
