"""Diffusive-scaling experiments: microscopic profiles against the PDE.

For each lattice scale N the microscopic system starts from cell
averages of the initial profile, evolves under the Langevin dynamics for
N^2 t microscopic time units, and is rescaled to a piecewise-constant
macroscopic profile.  The realizations of one scale are the replicas
of one system, so their profiles form one ``MacroscopicField`` and
``l2_compare`` gives one squared L2 distance to the limiting PDE
solution per realization.  Their mean should shrink as N grows; the
convergence table records exactly that.

``run`` advances the replicas in contiguous chunks, one per usable CPU,
each in a forked child (``_forks.fork_map``), while the calling process
solves the PDE.  Replica r of scale N draws from stream (seed, N, r) in
any chunk, so the joined profiles, and every gap, are the same bits at
any worker count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._forks import cpus, fork_map
from .dynamics import DirichletSystem, MacroscopicField, advance, langevin_step, macro_height
from .errors import PlotSkipped, PotentialMismatch
from .io import write_csv
from .lattice import DomainSpec, boundary_height, cell_average, discretize_domain
from .pde import GaussianFlux, PdeGrid, TableFlux, l2_compare, solve
from .surface import SurfaceTensionTable


def profile_zero(points: np.ndarray) -> np.ndarray:
    return np.zeros(len(np.atleast_2d(points)))


def make_bump(amp: float = 0.4, radius: float = 0.3, center=None):
    """Smooth compactly supported bump, peak ``amp`` at ``center``."""

    def bump(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c = np.zeros(pts.shape[1]) if center is None else np.asarray(center)
        s2 = np.einsum("ij,ij->i", pts - c, pts - c) / radius**2
        out = np.zeros(len(pts))
        inside = s2 < 1.0
        out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out

    return bump


def make_linear(slope):
    slope = np.atleast_1d(np.asarray(slope, dtype=float))

    def linear(points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(points, dtype=float)) @ slope

    return linear


@dataclass
class HydroExperiment:
    pot: object
    spec: DomainSpec
    boundary: object          # f, callable on (M, d) points
    initial: object           # h0, callable; must equal f near the boundary
    scales: tuple = (8, 16, 32)
    times: tuple = (0.05,)
    realizations: int = 32
    seed: int = 0
    dt: float | None = None          # microscopic step; default 0.9 * cap
    pde_spacing: float | None = None  # default (4 max N)^-1
    flux: object = "auto"            # as resolve_flux takes it


@dataclass
class ConvergenceTable:
    """Rows (N, t, mean squared L2 gap, stderr, realizations)."""

    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def gaps(self, t: float):
        """Scales and mean gaps at one checkpoint time, sorted by N."""
        sel = sorted(
            (r for r in self.rows if abs(r["t"] - t) < 1e-12), key=lambda r: r["N"]
        )
        return (
            [r["N"] for r in sel],
            [r["mean_sq_gap"] for r in sel],
            [r["stderr"] for r in sel],
        )

    def strictly_decreasing(self, t: float, n_se: float = 0.0) -> bool:
        """Whether gaps drop as N doubles, by at least n_se combined SEs."""
        _, gaps, errs = self.gaps(t)
        return all(
            gaps[i] - gaps[i + 1] >= n_se * np.hypot(errs[i], errs[i + 1])
            for i in range(len(gaps) - 1)
        )


def resolve_flux(flux, pot):
    """The flux that ``flux`` names for ``pot``: "auto" and "gaussian" name the
    closed form, which only the Gaussian potential has; a surface table or its
    CSV path is interpolated, and must not name another potential in its
    ``potential`` meta; a flux object passes through as given."""
    if isinstance(flux, str) and flux not in ("auto", "gaussian"):
        flux = SurfaceTensionTable.from_csv(flux)
    if isinstance(flux, SurfaceTensionTable):
        built_for = flux.meta.get("potential", pot.name)
        if built_for != pot.name:
            raise PotentialMismatch(
                f"surface table was built for potential {built_for!r}, "
                f"not for this run's {pot.name!r}"
            )
        return TableFlux(flux)
    if isinstance(flux, str):
        if pot.spec != {"kind": "gaussian"}:
            raise ValueError(
                f"no closed-form flux for potential {pot.name!r}; pass a surface table"
            )
        return GaussianFlux()
    return flux


def clamped_system(spec, N, pot, boundary, initial, seed, replicas=1):
    """The ``DirichletSystem`` of ``spec`` at scale N with ``replicas``
    replicas, a count or a range of indices as ``DirichletSystem`` takes
    them: N times the cell averages of ``boundary`` on the clamped sites
    and of ``initial`` inside."""
    dom = discretize_domain(spec, N)
    psi = boundary_height(boundary, N, dom.sites)
    phi0 = psi.copy()
    phi0[: dom.n_interior] = N * cell_average(initial, N, dom.sites[: dom.n_interior])
    return DirichletSystem(dom, pot, psi, phi0=phi0, seed=seed, replicas=replicas)


def _profiles(exp: HydroExperiment, dt: float, times, replicas: range) -> dict:
    """The profiles of ``replicas`` at every scale and checkpoint time,
    {(N, t): MacroscopicField}, one row per replica: one worker's job."""
    fields = {}
    for N in exp.scales:
        system = clamped_system(
            exp.spec, N, exp.pot, exp.boundary, exp.initial,
            seed=(exp.seed, N), replicas=replicas,
        )

        def keep(t, sys):
            fields[N, t] = macro_height(sys, t)

        advance(system, dt, times, collect=keep)
        del system  # its noise block is freed before the next scale's is made
    return fields


def _join(parts: list) -> dict:
    """The chunks' profiles as one field per (N, t), replicas in chunk order."""
    return {
        key: MacroscopicField(
            f.N, f.sites, np.concatenate([p[key].values for p in parts]), f.spec
        )
        for key, f in parts[0].items()
    }


def run(exp: HydroExperiment) -> ConvergenceTable:
    """Run the scaling study and collect the convergence table.

    The replicas run in one contiguous chunk per usable CPU: with more
    than one, each in a forked child while this process solves the PDE;
    with one, here after the solve.  The table is the same bits either way.
    """
    if not exp.scales:
        raise ValueError("need at least one lattice scale")
    if exp.realizations < 2:
        raise ValueError(
            f"need at least 2 realizations for a standard error, got {exp.realizations}"
        )
    d = exp.spec.d
    # the step as given, checked ahead of the PDE solve
    dt = langevin_step(exp.pot, d, exp.dt)
    times = tuple(sorted(float(t) for t in exp.times))
    if not times:
        raise ValueError("need at least one checkpoint time")
    if times[0] <= 0:
        raise ValueError("checkpoint times must be positive")
    max_n = max(exp.scales)
    spacing = 1.0 / (4 * max_n) if exp.pde_spacing is None else exp.pde_spacing
    flux = resolve_flux(exp.flux, exp.pot)
    grid = PdeGrid(exp.spec, spacing)

    reference, parts = fork_map(
        lambda chunk: _profiles(exp, dt, times, chunk), exp.realizations, cpus(),
        lambda: solve(
            grid, exp.initial, flux, t_end=times[-1], boundary=exp.boundary, record=times
        ),
    )
    fields = _join(parts)

    table = ConvergenceTable(
        meta={
            "potential": exp.pot.name,
            "domain": exp.spec.shape,
            "d": d,
            "realizations": exp.realizations,
            "seed": exp.seed,
            "pde_spacing": spacing,
            "flux": getattr(flux, "label", str(exp.flux)),
            "times": times,
        }
    )
    per_seed: dict = {}
    for N in exp.scales:
        for t in times:
            g = l2_compare(fields[N, t], reference.field_at(t), exp.spec)
            table.rows.append(
                {
                    "N": N,
                    "t": t,
                    "mean_sq_gap": float(g.mean()),
                    "stderr": float(g.std(ddof=1) / np.sqrt(len(g))),
                    "realizations": len(g),
                }
            )
            per_seed[(N, t)] = g
    table.meta["per_seed"] = per_seed
    return table


def report(table: ConvergenceTable, outdir, meta: dict | None = None) -> list:
    """Write convergence CSV, plain plot data, and a log-log figure.

    ``convergence.csv`` and ``gap_vs_N.dat`` are always written.  The
    figure ``gap_vs_N.png`` needs matplotlib, the ``[plot]`` extra; when
    matplotlib is not installed it is skipped with a ``PlotSkipped``
    warning.  Any other import failure, such as a matplotlib install
    missing one of its own dependencies, propagates.  Returns the paths
    written, in the order above.
    """
    if not table.rows:
        raise ValueError("empty convergence table")
    outdir = Path(outdir)
    header_meta = dict(meta or {})
    for key in ("potential", "domain", "d", "flux", "realizations"):
        if key in table.meta:
            header_meta.setdefault(key, table.meta[key])

    columns = ("N", "t", "mean_sq_gap", "stderr", "realizations")
    paths = [
        write_csv(
            outdir / "convergence.csv",
            {c: [row[c] for row in table.rows] for c in columns},
            header_meta,
        )
    ]

    dat_path = outdir / "gap_vs_N.dat"
    with open(dat_path, "w") as fh:
        fh.write("# columns: N t mean_sq_gap stderr\n")
        for row in table.rows:
            fh.write(
                f"{row['N']} {row['t']!r} {row['mean_sq_gap']!r} {row['stderr']!r}\n"
            )
    paths.append(dat_path)

    try:
        import matplotlib
    except ModuleNotFoundError as exc:
        if exc.name != "matplotlib":
            raise
        warnings.warn(
            PlotSkipped(
                "skipped gap_vs_N.png: matplotlib is not installed "
                "(pip install 'heightlab[plot]')"
            ),
            stacklevel=2,
        )
        return paths

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 4))
    times = sorted(set(row["t"] for row in table.rows))
    for t in times:
        ns, gaps, errs = table.gaps(t)
        ax.errorbar(ns, gaps, yerr=errs, marker="o", label=f"t={t:g}")
    ax.set_xscale("log", base=2)
    ax.set_yscale("log")
    ax.set_xlabel("lattice scale N")
    ax.set_ylabel("mean squared L2 gap")
    ax.legend()
    fig.tight_layout()
    png_path = outdir / "gap_vs_N.png"
    fig.savefig(png_path, dpi=150)
    plt.close(fig)
    paths.append(png_path)
    return paths
