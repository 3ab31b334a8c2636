"""The four benchmark workloads: inputs from a seed, the timed job, checks.

Each workload has ``setup(seed, iteration, workdir, size)`` returning its
inputs, ``run(inputs)`` doing the timed work through the public heightlab
API, and ``check(inputs, outputs)`` returning ``(name, ok, detail)``
triples.  Calls go through module attributes (``surface.build_table``,
``hydro.run``) so the traced run can wrap them where they are looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from heightlab import pde, surface, hydro
from heightlab.errors import FluxRangeExceeded
from heightlab.lattice import DomainSpec
from heightlab.potential import make_cosine_perturbed, make_gaussian

# Statistical checks gate at Z_GATE combined standard errors.  The
# acceptance tests use 3 (gibbs_chain) and 4 (surface_table) on single
# fixed seeds.  A benchmark campaign runs ~100 seeded iterations per
# workload, and the batch-means errors of these short chains read low:
# over 23 calibration seeds surface_table's largest |z| reached 3.9, and
# over 30 seeds gibbs_chain's reached 3.0, so 4 and 3 would fail correct
# runs every few dozen iterations.  The largest |z| is printed each run.
Z_GATE = 6.0
T_HYDRO = 0.05

SIZES = {
    "full": {
        "surface_table": {"N": 8, "nodes": 3, "sweeps": 1000},
        "gibbs_chain": {"N": 16, "sweeps": 3000},
        "hydro_table": {"scales": (8, 16), "realizations": 32, "spacing": 1 / 64},
        "hydro_1d": {"scales": (8, 16, 32), "realizations": 256, "spacing": 1 / 128},
    },
    "tiny": {
        "surface_table": {"N": 4, "nodes": 3, "sweeps": 64},
        "gibbs_chain": {"N": 4, "sweeps": 64},
        "hydro_table": {"scales": (8, 16), "realizations": 8, "spacing": 1 / 16},
        "hydro_1d": {"scales": (8, 16), "realizations": 8, "spacing": 1 / 32},
    },
}


def _int_seed(seed: int, iteration: int) -> int:
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# surface_table: the `surface-tension --table` job


@dataclass
class TableInputs:
    pot: object
    N: int
    axes: list
    sweeps: int
    seed: tuple
    csv: Path


def setup_surface_table(seed, iteration, workdir, size):
    p = SIZES[size]["surface_table"]
    return TableInputs(
        pot=make_cosine_perturbed(0.5, 1.0),
        N=p["N"],
        axes=[np.linspace(-1.0, 1.0, p["nodes"])] * 2,
        sweeps=p["sweeps"],
        seed=(seed, iteration),
        csv=Path(workdir) / "surface_table.csv",
    )


def run_surface_table(inp):
    table = surface.build_table(
        inp.pot, inp.N, inp.axes, sweeps=inp.sweeps, seed=inp.seed, workers=0
    )
    table.to_csv(inp.csv)
    return {"table": table}


def _mirror(a: np.ndarray, d: int) -> np.ndarray:
    """Values at -u for a grid symmetric about the origin."""
    return a[(slice(None, None, -1),) * d]


def check_surface_table(inp, out):
    t = out["table"]
    d = t.d
    D, E = t.dsigma, t.dsigma_err
    anchor = tuple(int(np.argmin(np.abs(a))) for a in t.axes)
    symmetric = all(np.array_equal(a, -a[::-1]) for a in t.axes)
    # V is even, so dsigma(-u) = -dsigma(u) and dsigma_j = 0 where u_j = 0
    z_anti = np.abs(D + _mirror(D, d)) / np.hypot(E, _mirror(E, d))
    zero = np.stack(
        np.meshgrid(*[a == 0.0 for a in t.axes], indexing="ij"), axis=-1
    )
    z_zero = np.abs(D[zero]) / E[zero]
    lo, _ = t.monotonicity_bounds()
    back = surface.SurfaceTensionTable.from_csv(inp.csv)
    same = all(np.array_equal(x, y) for x, y in zip(back.axes, t.axes)) and all(
        np.array_equal(getattr(back, k), getattr(t, k))
        for k in ("dsigma", "dsigma_err", "sigma", "sigma_err")
    )
    return [
        ("sigma_zero_at_anchor", t.sigma[anchor] == 0.0, f"sigma={float(t.sigma[anchor])!r}"),
        (
            "dsigma_antisymmetric",
            symmetric and z_anti.max() <= Z_GATE,
            f"max|z|={z_anti.max():.2f} gate={Z_GATE:g}",
        ),
        (
            "dsigma_zero_on_axes",
            z_zero.size > 0 and z_zero.max() <= Z_GATE,
            f"max|z|={z_zero.max():.2f} gate={Z_GATE:g}",
        ),
        ("monotone", lo > 0, f"C1={lo:.4f}"),
        ("csv_roundtrip_exact", same, ""),
    ]


def info_surface_table(inp, out):
    return {"mean_dsigma_err2": float(np.mean(out["table"].dsigma_err ** 2))}


# ---------------------------------------------------------------------------
# gibbs_chain: the acceptance-criterion-5 shape, one long chain at a time


@dataclass
class ChainInputs:
    pot: object
    N: int
    u: np.ndarray
    sweeps: int
    seeds: tuple


def setup_gibbs_chain(seed, iteration, workdir, size):
    p = SIZES[size]["gibbs_chain"]
    return ChainInputs(
        pot=make_cosine_perturbed(0.2, 1.0),
        N=p["N"],
        u=np.array([1.0, 0.0]),
        sweeps=p["sweeps"],
        seeds=((seed, iteration, 0), (seed, iteration, 1)),
    )


def run_gibbs_chain(inp):
    dec = surface.decompose_flux(inp.pot, inp.N, inp.u, sweeps=inp.sweeps, seed=inp.seeds[0])
    g, gerr = surface.grad_sigma(inp.pot, inp.N, inp.u, sweeps=inp.sweeps, seed=inp.seeds[1])
    return {"decomposition": dec, "grad": g, "grad_err": gerr}


def check_gibbs_chain(inp, out):
    dec = out["decomposition"]
    recon, rerr = dec.reconstruct()
    diff = float(np.linalg.norm(recon - out["grad"]))
    comb = float(np.linalg.norm(np.hypot(rerr, out["grad_err"])))
    return [
        ("samples_in_bounds", dec.samples_in_bounds, ""),
        (
            "reconstructs_grad_sigma",
            diff <= Z_GATE * comb,
            f"|z|={diff / comb:.2f} gate={Z_GATE:g}",
        ),
    ]


# ---------------------------------------------------------------------------
# hydro workloads: lattice against PDE under diffusive scaling


@dataclass
class HydroInputs:
    pot: object
    spec: DomainSpec
    scales: tuple
    realizations: int
    spacing: float
    seed: int
    table_csv: Path | None = None


def _bump(d: int):
    return hydro.make_bump(amp=0.8, radius=0.3, center=(0.5,) * d)


def gaussian_table(half_width: float = 8.0, nodes: int = 33):
    """Closed-form Gaussian surface tension: sigma = |u|^2 / 2, dsigma = u."""
    ax = np.linspace(-half_width, half_width, nodes)
    u = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    zeros = np.zeros_like(u)
    return surface.SurfaceTensionTable(
        [ax, ax], u, zeros, 0.5 * (u**2).sum(axis=-1), zeros[..., 0],
        {"potential": "gaussian", "source": "closed-form"},
    )


def setup_hydro_table(seed, iteration, workdir, size):
    p = SIZES[size]["hydro_table"]
    csv = Path(workdir) / "gaussian_table.csv"
    gaussian_table().to_csv(csv)
    return HydroInputs(
        pot=make_gaussian(),
        spec=DomainSpec(shape="box", center=(0.5, 0.5), sides=(1.0, 1.0)),
        scales=p["scales"],
        realizations=p["realizations"],
        spacing=p["spacing"],
        seed=_int_seed(seed, iteration),
        table_csv=csv,
    )


def setup_hydro_1d(seed, iteration, workdir, size):
    p = SIZES[size]["hydro_1d"]
    return HydroInputs(
        pot=make_gaussian(),
        spec=DomainSpec(shape="box", center=(0.5,), sides=(1.0,)),
        scales=p["scales"],
        realizations=p["realizations"],
        spacing=p["spacing"],
        seed=_int_seed(seed, iteration),
    )


def _experiment(inp, flux):
    # The PDE spacing is always explicit: the CLI default pde.spacing
    # overrides HydroExperiment's 1/(4 max N), so neither is assumed.
    return hydro.HydroExperiment(
        pot=inp.pot,
        spec=inp.spec,
        boundary=hydro.profile_zero,
        initial=_bump(inp.spec.d),
        scales=inp.scales,
        times=(T_HYDRO,),
        realizations=inp.realizations,
        seed=inp.seed,
        pde_spacing=inp.spacing,
        flux=flux,
    )


def run_hydro(inp):
    flux = "auto"
    if inp.table_csv is not None:
        flux = pde.TableFlux(surface.SurfaceTensionTable.from_csv(inp.table_csv))
    exp = _experiment(inp, flux)
    # hydro.run does not return its PDE reference; keep it for the
    # closed-form check, which runs after the timed region.
    references = []
    solve = hydro.solve

    def keep(*args, **kwargs):
        sol = solve(*args, **kwargs)
        references.append(sol)
        return sol

    hydro.solve = keep
    try:
        table = hydro.run(exp)
    except FluxRangeExceeded as err:
        return {"error": str(err), "flux": flux}
    finally:
        hydro.solve = solve
    return {"convergence": table, "reference": references[0], "flux": flux}


def check_hydro(inp, out):
    checks = [("no_flux_range_exceeded", "error" not in out, out.get("error", ""))]
    if "error" in out:
        return checks + [("gaps_drop_2se", False, "no convergence table")]
    table = out["convergence"]
    _, gaps, _ = table.gaps(T_HYDRO)
    checks.append(
        (
            "gaps_drop_2se",
            table.strictly_decreasing(T_HYDRO, n_se=2.0),
            "gaps=" + "/".join(f"{g:.4g}" for g in gaps),
        )
    )
    if inp.table_csv is None:
        return checks
    flux = out["flux"]
    ref = out["reference"]
    exact = pde.solve(
        ref.grid, _bump(inp.spec.d), pde.GaussianFlux(), T_HYDRO,
        boundary=hydro.profile_zero, record=(T_HYDRO,),
    )
    # multilinear interpolation of the linear Gaussian flux is exact
    dev = float(np.abs(ref.final - exact.final).max())
    checks.append(("table_flux_matches_closed_form", dev <= 1e-9, f"max|dh|={dev:.2e}"))
    checks.append(
        ("zero_clamp_events", flux.clamp_events == 0, f"clamps={flux.clamp_events}")
    )
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    check: object
    info: object = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("surface_table", setup_surface_table, run_surface_table,
                 check_surface_table, info_surface_table),
        Workload("gibbs_chain", setup_gibbs_chain, run_gibbs_chain, check_gibbs_chain),
        Workload("hydro_table", setup_hydro_table, run_hydro, check_hydro),
        Workload("hydro_1d", setup_hydro_1d, run_hydro, check_hydro),
    )
}
