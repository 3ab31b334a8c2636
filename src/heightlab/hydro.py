"""Diffusive-scaling experiments: microscopic profiles against the PDE.

For each lattice scale N the microscopic system starts from cell
averages of the initial profile, evolves under the Langevin dynamics for
N^2 t microscopic time units, and is rescaled to a piecewise-constant
macroscopic profile.  The squared L2 distance to the limiting PDE
solution, averaged over independent realizations, should shrink as N
grows; the convergence table records exactly that.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import DirichletSystem, macro_height, run_dirichlet, step_cap
from .errors import PlotSkipped
from .io import write_csv
from .lattice import DomainSpec, boundary_height, cell_average, discretize_domain
from .pde import (
    GaussianFlux,
    PdeGrid,
    TableFlux,
    l2_compare,
    quadrature,
    solve,
    squared_l2,
)
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
    CSV path is interpolated; a flux object passes through as given."""
    if isinstance(flux, str):
        if flux not in ("auto", "gaussian"):
            return TableFlux(SurfaceTensionTable.from_csv(flux))
        if pot.spec != {"kind": "gaussian"}:
            raise ValueError(
                f"no closed-form flux for potential {pot.name!r}; pass a surface table"
            )
        return GaussianFlux()
    if isinstance(flux, SurfaceTensionTable):
        return TableFlux(flux)
    return flux


def realization_gaps(fields, ref, spec) -> np.ndarray:
    """``l2_compare(field, ref, spec)`` for each field, on one quadrature.

    The fields are the realizations of one replicated system, so they
    share N and sites: the quadrature points, the reference samples and
    the cell of each point are found once, and each gap is a gather, a
    difference and a sum, bit for bit what ``l2_compare`` returns.
    """
    pts, weight = quadrature(fields[0], ref, spec)
    if not len(pts):  # nothing to sample: l2_compare's zero gap
        return np.array([l2_compare(fld, ref, spec) for fld in fields])
    ref_vals = np.asarray(ref.sample(pts))
    ids = fields[0].cell_ids(pts)
    covered = ids >= 0
    return np.array(
        [
            squared_l2(np.where(covered, fld.values[ids], 0.0) - ref_vals, weight)
            for fld in fields
        ]
    )


def run(exp: HydroExperiment) -> ConvergenceTable:
    """Run the scaling study and collect the convergence table."""
    if not exp.scales:
        raise ValueError("need at least one lattice scale")
    if exp.realizations < 2:
        raise ValueError(
            f"need at least 2 realizations for a standard error, got {exp.realizations}"
        )
    times = tuple(sorted(float(t) for t in exp.times))
    if not times or times[0] <= 0:
        raise ValueError("checkpoint times must be positive")
    d = exp.spec.d
    max_n = max(exp.scales)
    spacing = exp.pde_spacing if exp.pde_spacing else 1.0 / (4 * max_n)
    flux = resolve_flux(exp.flux, exp.pot)

    grid = PdeGrid(exp.spec, spacing)
    reference = solve(
        grid, exp.initial, flux, t_end=times[-1], boundary=exp.boundary, record=times
    )

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
    dt = exp.dt if exp.dt is not None else 0.9 * step_cap(exp.pot, d)
    per_seed: dict = {}
    for N in exp.scales:
        dom = discretize_domain(exp.spec, N)
        psi = boundary_height(exp.boundary, N, dom.sites)
        phi0 = psi.copy()
        phi0[: dom.n_interior] = N * cell_average(
            exp.initial, N, dom.sites[: dom.n_interior]
        )
        system = DirichletSystem(
            dom, exp.pot, psi, phi0=phi0, seed=(exp.seed, N), replicas=exp.realizations
        )
        gaps = {t: None for t in times}

        def checkpoint(t, sys):
            fields = macro_height(sys, t)
            ref = reference.field_at(t)
            gaps[t] = realization_gaps(fields, ref, exp.spec)

        run_dirichlet(system, dt, times, collect=checkpoint)
        for t in times:
            g = gaps[t]
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
