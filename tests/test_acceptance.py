"""End-to-end acceptance checks for the whole laboratory.

Each test pins one headline capability with fixed seeds and sizes and
writes its single PASS/FAIL line into acceptance_report.txt at the repo
root, keeping the other lines in criterion order.  A session first drops
the old lines of the criteria it selected, so a full run leaves a
ten-line summary next to the package, a partial run updates only the
criteria it ran, and a criterion that crashes leaves no line.  The report
holds the margins only; wall times are printed to stdout.
Tolerances are three error bars throughout, with error bars combined in
quadrature when two independent estimates are compared.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from heightlab import (
    DomainSpec,
    TiltedPeriodicSystem,
    TorusLattice,
    make_cosine_perturbed,
    make_gaussian,
    variance_sweep,
)
from heightlab.cli import main as cli_main
from heightlab.dynamics import (
    K_ENERGY_DEFAULT,
    DirichletSystem,
    energy_diagnostic,
    run_dirichlet,
    step_cap,
)
from heightlab.gibbs import bond_statistics, dlr_check, make_sampler
from heightlab.hydro import HydroExperiment, make_bump, profile_zero, run
from heightlab.lattice import discretize_domain
from heightlab.pde import GaussianFlux, PdeGrid, solve
from heightlab.surface import decompose_flux, grad_sigma, sigma

from oracles import heat_solution, integrate_bonds, plaquette_circulation, winding

REPORT = Path(__file__).resolve().parents[1] / "acceptance_report.txt"


def _report_lines() -> dict[int, str]:
    lines = {}
    if REPORT.exists():
        for old in REPORT.read_text().splitlines():
            if old.startswith("criterion "):
                lines[int(old.split()[1])] = old
    return lines


def _write_report(lines: dict[int, str]) -> None:
    REPORT.write_text("".join(lines[k] + "\n" for k in sorted(lines)))


@pytest.fixture(scope="module", autouse=True)
def _drop_lines_of_selected_criteria(request):
    # A criterion that raises before record() must not keep its line from
    # an earlier run, so every criterion selected in this session loses its
    # line up front; the criteria not selected keep theirs.
    selected = {
        int(item.name.split("_")[1])
        for item in request.session.items
        if item.module is request.module
    }
    lines = _report_lines()
    _write_report({k: v for k, v in lines.items() if k not in selected})


def record(
    num: int, label: str, ok: bool, detail: str, t0: float | None = None
) -> None:
    # Wall times vary from run to run, so they go to stdout only: a rerun
    # with unchanged margins rewrites the report byte for byte.
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail}"
    lines = _report_lines()
    lines[num] = line + ")"
    _write_report(lines)
    if t0 is not None:
        line += f" t={time.time() - t0:.0f}s"
    print(line + ")")


def test_01_gaussian_surface_tension_matches_exact_value():
    t0 = time.time()
    est = sigma(make_gaussian(), 16, (1.0, 0.0))
    # zero-variance estimator: the reported error is O(1e-17), below the
    # float accumulation noise of the weight sum, so allow 1e-12 slack
    ok = est.stderr <= 0.02 and abs(est.value - 0.5) <= 3.0 * est.stderr + 1e-12
    record(
        1,
        "gaussian surface tension",
        ok,
        f"sigma={est.value:.12f} err={est.stderr:.1e}",
        t0,
    )
    assert ok


def test_02_gradient_estimator_matches_finite_difference():
    t0 = time.time()
    pot = make_cosine_perturbed(a=0.2, kappa=1.0)
    u = np.array([0.5, 0.0])
    g, gerr = grad_sigma(pot, 16, u, sweeps=8000, seed=11)
    h = 0.1
    fd = np.zeros(2)
    fderr = np.zeros(2)
    seeds = iter(range(20, 24))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        sp = sigma(pot, 16, u + e, seed=next(seeds))
        sm = sigma(pot, 16, u - e, seed=next(seeds))
        fd[i] = (sp.value - sm.value) / (2.0 * h)
        fderr[i] = np.hypot(sp.stderr, sm.stderr) / (2.0 * h)
    comb = np.hypot(gerr, fderr)
    ok = bool(np.all(np.abs(g - fd) <= 3.0 * comb))
    record(
        2,
        "gradient vs finite difference",
        ok,
        f"|diff|={np.abs(g - fd).max():.1e} 3se={3 * comb.min():.1e}",
        t0,
    )
    assert ok


def test_03_tilted_bond_identity():
    s = make_sampler(make_gaussian(), 16, (1.0, 0.0), burn_in=5000, seed=0)
    values, errors, _ = bond_statistics(s, 2000)
    value, err = values[0, -1], errors[0, -1]  # the identity row
    # target |u|^2 + 1 = 2; the finite-torus value differs by N^-d, which
    # sits well inside three error bars at this chain length
    ok = abs(value - 2.0) <= 3.0 * err
    record(
        3,
        "tilted bond identity",
        ok,
        f"value={value:.4f} err={err:.4f}",
    )
    assert ok


def test_04_bond_variance_uniform_over_tilts():
    t0 = time.time()
    pot = make_cosine_perturbed(a=0.5, kappa=1.0)
    grid = np.array([(i, j) for i in range(-3, 4) for j in range(-3, 4)], dtype=float)
    vs = variance_sweep(pot, N=8, tilts=grid, sweeps=2500, seed=0)
    vals = vs.values.ravel()
    errs = vs.stderr.ravel()
    ratio = float(vals.max() / vals.min())
    edge = np.repeat(vs.edge_mask(), vs.values.shape[1])
    i_edge = int(np.argmax(np.where(edge, vals, -np.inf)))
    i_inner = int(np.argmax(np.where(~edge, vals, -np.inf)))
    excess = vals[i_edge] - vals[i_inner]
    comb = float(np.hypot(errs[i_edge], errs[i_inner]))
    ok = ratio <= 3.0 and excess <= 3.0 * comb
    record(
        4,
        "bond variance uniform over tilts",
        ok,
        f"max/min={ratio:.2f} edge_excess={excess / comb:+.1f}se",
        t0,
    )
    assert ok


def test_05_flux_decomposition_reconstructs_gradient():
    pot = make_cosine_perturbed(a=0.2, kappa=1.0)
    u = np.array([1.0, 0.0])
    dec = decompose_flux(pot, 16, u, sweeps=8000, seed=3)
    g, gerr = grad_sigma(pot, 16, u, sweeps=8000, seed=7)
    recon, rerr = dec.reconstruct()
    diff = float(np.linalg.norm(recon - g))
    comb = float(np.linalg.norm(np.hypot(rerr, gerr)))
    ok = dec.samples_in_bounds and diff <= 3.0 * comb
    record(
        5,
        "flux decomposition reconstructs gradient",
        ok,
        f"in_bounds={dec.samples_in_bounds} |diff|={diff:.1e} 3se={3 * comb:.1e}",
    )
    assert ok


def test_06_pde_solver_is_second_order():
    t0 = time.time()
    bump = make_bump(amp=0.8, radius=0.3, center=(0.5,))
    spec = DomainSpec(shape="box", center=(0.5,), sides=(1.0,))
    hs = [1 / 16, 1 / 32, 1 / 64]
    errs = []
    for h in hs:
        g = PdeGrid(spec, h)
        sol = solve(g, bump, GaussianFlux(), 0.05)
        exact = heat_solution(bump, g.axes[0], 0.05)
        errs.append(float(np.sqrt(h * np.sum((sol.final - exact) ** 2))))
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = order >= 1.8
    record(
        6,
        "pde order vs heat kernel",
        ok,
        f"order={order:.2f}",
        t0,
    )
    assert ok


def test_07_lattice_converges_to_pde_profile():
    t0 = time.time()
    exp = HydroExperiment(
        pot=make_gaussian(),
        spec=DomainSpec(shape="box", center=(0.5,), sides=(1.0,)),
        boundary=profile_zero,
        initial=make_bump(amp=0.8, radius=0.3, center=(0.5,)),
        scales=(8, 16, 32),
        times=(0.05,),
        realizations=32,
        seed=0,
    )
    tab = run(exp)
    ns, gaps, ses = tab.gaps(0.05)
    ok = tab.strictly_decreasing(0.05, n_se=2.0)
    record(
        7,
        "lattice-to-pde gap decreasing",
        ok,
        "gaps=" + "/".join(f"{g:.4f}" for g in gaps),
        t0,
    )
    assert ok


def test_08_energy_bound_with_frozen_constant():
    pot = make_gaussian()
    dom = discretize_domain(DomainSpec(shape="box", center=(0.5,), sides=(1.0,)), 16)
    psi = np.zeros(dom.n_sites)
    system = DirichletSystem(dom, pot, psi, phi0=psi.copy(), seed=0, replicas=32)
    times = np.linspace(0.0, 0.1, 21)[1:]
    trace = run_dirichlet(system, 0.9 * step_cap(pot, 1), times)
    diag = energy_diagnostic(trace, pot.c_minus)
    margin = float((diag.lhs / diag.rhs).max())
    ok = diag.ok
    record(
        8,
        "energy growth bound",
        ok,
        f"K={K_ENERGY_DEFAULT} max lhs/rhs={margin:.2f}",
    )
    assert ok


def test_09_conditional_law_matches_quadrature():
    rep = dlr_check(
        make_cosine_perturbed(a=0.5, kappa=1.0), (0.5,), window=1,
        n_samples=100000,
    )
    ok = rep.sup_distance is not None and rep.sup_distance <= 0.05
    record(
        9,
        "one-site conditional law",
        ok,
        f"sup={rep.sup_distance:.4f} samples={rep.n_samples}",
    )
    assert ok


def test_10_structural_invariants(tmp_path, monkeypatch):
    t0 = time.time()
    # (a) the bond differences every run forms close around each plaquette,
    # wind zero times round the torus and sum back to the heights
    lat = TorusLattice(8, 2)
    phi = np.random.default_rng(0).normal(size=lat.shape)
    torus = TiltedPeriodicSystem(lat, make_gaussian(), [(0.0, 0.0)], phi=phi, seed=[0])
    eta = torus.bond_pass(torus.phi).diffs[:, 0]
    plaquette_ok = plaquette_circulation(eta) <= 1e-12 and winding(eta) <= 1e-12
    back = integrate_bonds(eta)
    roundtrip_ok = bool(np.allclose(back, phi - phi.flat[0], atol=1e-12, rtol=0))

    # (b) clamped boundary values survive the dynamics bit for bit
    pot = make_gaussian()
    dom = discretize_domain(DomainSpec(shape="box", center=(0.5,), sides=(1.0,)), 8)
    psi = np.linspace(0.0, 1.0, dom.n_sites)
    system = DirichletSystem(dom, pot, psi, seed=1, replicas=2)
    before = system.phi[..., dom.n_interior:].tobytes()
    run_dirichlet(system, 0.9 * step_cap(pot, 1), [0.01])
    boundary_ok = system.phi[..., dom.n_interior:].tobytes() == before

    # (c) a rerun of the same seeded job produces byte-identical output
    monkeypatch.delenv("HEIGHTLAB_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    flags = (
        "sample-gibbs", "--u", "0.5", "--N", "8", "--seed", "5",
        "--set", "sampler.sweeps=300", "--set", "sampler.burn_in=100",
    )
    assert cli_main([*flags, "--out", "a"]) == 0
    assert cli_main([*flags, "--out", "b"]) == 0
    csv_a = next((tmp_path / "a").iterdir()) / "gibbs.csv"
    csv_b = next((tmp_path / "b").iterdir()) / "gibbs.csv"
    rerun_ok = csv_a.read_bytes() == csv_b.read_bytes()

    ok = plaquette_ok and roundtrip_ok and boundary_ok and rerun_ok
    record(
        10,
        "structural invariants",
        ok,
        f"roundtrip={roundtrip_ok} plaquette={plaquette_ok} "
        f"boundary={boundary_ok} rerun={rerun_ok}",
        t0,
    )
    assert ok
