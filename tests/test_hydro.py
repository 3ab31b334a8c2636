"""Scaling studies: profiles, flux resolution, and the convergence table.

The full-size study lives in the acceptance suite; here small Gaussian
runs check the plumbing end to end, including determinism of the
replicated dynamics and the report files.
"""

import builtins
import importlib.util
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heightlab
from heightlab import (
    DomainSpec, PlotSkipped, make_cosine_perturbed, make_gaussian, make_split_bump,
)
from heightlab.hydro import (
    ConvergenceTable,
    HydroExperiment,
    make_bump,
    make_linear,
    profile_zero,
    report,
    resolve_flux,
    run,
)
from heightlab import dynamics, hydro
from heightlab.dynamics import MacroscopicField, domain_cell_weights, step_cap
from heightlab.lattice import boundary_height, cell_average, discretize_domain
from heightlab.pde import (
    GaussianFlux,
    GridField,
    PdeGrid,
    TableFlux,
    l2_compare,
    quadrature,
    solve,
)
from heightlab.rng import seed_key, stream
from heightlab.surface import SurfaceTensionTable

from oracles import PlainDirichlet, reference_dirichlet_run

HAVE_MATPLOTLIB = importlib.util.find_spec("matplotlib") is not None


def box1d() -> DomainSpec:
    return DomainSpec(shape="box", center=(0.5,), sides=(1.0,))


def small_experiment(**kw) -> HydroExperiment:
    base = dict(
        pot=make_gaussian(),
        spec=box1d(),
        boundary=profile_zero,
        initial=make_bump(amp=0.8, radius=0.3, center=(0.5,)),
        scales=(8, 16),
        times=(0.02,),
        realizations=8,
        seed=0,
        pde_spacing=1 / 64,
    )
    base.update(kw)
    return HydroExperiment(**base)


class TestProfiles:
    def test_zero_profile(self):
        assert not profile_zero(np.zeros((5, 2))).any()

    def test_bump_compact_support(self):
        bump = make_bump(amp=0.4, radius=0.3, center=(0.5,))
        pts = np.array([[0.5], [0.65], [0.8], [0.35], [0.95]])
        vals = bump(pts)
        assert vals[0] == 0.4                       # peak value at the center
        assert 0 < vals[1] < 0.4
        assert vals[2] == 0.0 and vals[4] == 0.0    # support edge is closed off
        assert vals[3] == vals[1]                   # radial symmetry

    def test_linear_profile(self):
        lin = make_linear((2.0, -1.0))
        assert np.allclose(lin(np.array([[0.5, 0.25]])), [0.75])


class TestResolveFlux:
    def test_auto_gaussian(self):
        assert isinstance(resolve_flux("auto", make_gaussian()), GaussianFlux)

    def test_auto_requires_closed_form(self):
        with pytest.raises(ValueError):
            resolve_flux("auto", make_cosine_perturbed(0.5, 1.0))

    def test_named_gaussian(self):
        assert isinstance(resolve_flux("gaussian", make_gaussian()), GaussianFlux)

    @pytest.mark.parametrize("pot", [make_cosine_perturbed(2.0, 1.0), make_split_bump()])
    def test_named_gaussian_requires_gaussian_potential(self, pot):
        with pytest.raises(ValueError, match="no closed-form flux"):
            resolve_flux("gaussian", pot)

    def test_table_wrapped(self, tmp_path):
        a = np.array([-1.0, 0.0, 1.0])
        tab = SurfaceTensionTable([a], a[:, None], np.zeros((3, 1)),
                                  a**2 / 2, np.zeros(3))
        assert isinstance(resolve_flux(tab, make_gaussian()), TableFlux)
        path = tmp_path / "table.csv"
        tab.to_csv(path)
        flux = resolve_flux(str(path), make_cosine_perturbed(0.5, 1.0))
        assert isinstance(flux, TableFlux)
        assert np.array_equal(flux.table.dsigma, tab.dsigma)

    def test_flux_objects_pass_through(self):
        # an explicit flux object is an override: no potential check
        flux = GaussianFlux()
        assert resolve_flux(flux, make_gaussian()) is flux
        assert resolve_flux(flux, make_cosine_perturbed(0.5, 1.0)) is flux


class TestConvergenceTable:
    def rows(self):
        return [
            {"N": 16, "t": 0.1, "mean_sq_gap": 0.4, "stderr": 0.01, "realizations": 4},
            {"N": 8, "t": 0.1, "mean_sq_gap": 1.0, "stderr": 0.02, "realizations": 4},
            {"N": 32, "t": 0.1, "mean_sq_gap": 0.35, "stderr": 0.02, "realizations": 4},
        ]

    def test_gaps_sorted_by_scale(self):
        tab = ConvergenceTable(rows=self.rows())
        ns, gaps, errs = tab.gaps(0.1)
        assert ns == [8, 16, 32]
        assert gaps == [1.0, 0.4, 0.35]

    def test_strict_decrease_with_margin(self):
        tab = ConvergenceTable(rows=self.rows())
        assert tab.strictly_decreasing(0.1)
        assert tab.strictly_decreasing(0.1, n_se=1.0)
        # the 16 -> 32 drop is 0.05, under 3 combined SEs (~0.067)
        assert not tab.strictly_decreasing(0.1, n_se=3.0)


class TestRun:
    def test_bump_gaps_shrink_with_scale(self):
        table = run(small_experiment())
        assert len(table.rows) == 2
        assert table.strictly_decreasing(0.02, n_se=3.0)
        for row in table.rows:
            assert row["realizations"] == 8
            assert row["mean_sq_gap"] > 0
        assert table.meta["per_seed"][(8, 0.02)].shape == (8,)

    def test_flat_profile_gaps_are_fluctuation_sized(self):
        table = run(small_experiment(initial=profile_zero))
        _, gaps, _ = table.gaps(0.02)
        assert all(g < 0.05 for g in gaps)

    def test_runs_are_deterministic(self):
        a = run(small_experiment())
        b = run(small_experiment())
        assert a.rows == b.rows

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run(small_experiment(scales=()))
        with pytest.raises(ValueError):
            run(small_experiment(times=()))
        with pytest.raises(ValueError):
            run(small_experiment(times=(0.0,)))
        with pytest.raises(ValueError):
            run(small_experiment(pot=make_cosine_perturbed(0.5, 1.0)))

    @pytest.mark.parametrize("realizations", [0, 1])
    def test_too_few_realizations_fail_before_the_pde_solve(self, realizations, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(hydro, "solve", no_solve)
        with pytest.raises(ValueError, match="at least 2 realizations"):
            run(small_experiment(realizations=realizations))


def plain_hydro_gaps(exp: HydroExperiment) -> dict:
    """Per-seed gaps of ``exp`` from the plain step loop and per-field l2_compare."""
    times = tuple(sorted(exp.times))
    spacing = exp.pde_spacing or 1.0 / (4 * max(exp.scales))
    reference = solve(
        PdeGrid(exp.spec, spacing), exp.initial, resolve_flux(exp.flux, exp.pot),
        t_end=times[-1], boundary=exp.boundary, record=times,
    )
    dt = exp.dt if exp.dt is not None else 0.9 * step_cap(exp.pot, exp.spec.d)
    gaps = {}
    for N in exp.scales:
        dom = discretize_domain(exp.spec, N)
        n_int = dom.n_interior
        psi = boundary_height(exp.boundary, N, dom.sites)
        phi0 = psi.copy()
        phi0[:n_int] = N * cell_average(exp.initial, N, dom.sites[:n_int])
        rngs = [stream(*seed_key((exp.seed, N)), r) for r in range(exp.realizations)]
        plain = PlainDirichlet(
            np.tile(phi0, (exp.realizations, 1)), psi, n_int, dom.neighbors,
            dom.bonds_closure, exp.pot.vp, rngs,
        )

        def collect(t, phi, N=N, dom=dom):
            ref = reference.field_at(t)
            gaps[(N, t)] = np.array([
                l2_compare(MacroscopicField(N, dom.sites, v, exp.spec), ref, exp.spec)
                for v in phi / N
            ])

        weights = domain_cell_weights(exp.spec, N, dom.sites)
        reference_dirichlet_run(plain, N, weights, dt, times, collect=collect)
    return gaps


class TestRunMatchesPlainLoop:
    """hydro.run's per-seed gaps equal the plain loop's, bit for bit."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(realizations=5, times=(0.004, 0.011, 0.02)),
            dict(
                pot=make_cosine_perturbed(0.8, 1.0), flux=GaussianFlux(),
                scales=(8, 16, 32), realizations=3, times=(0.006,),
            ),
            dict(
                spec=DomainSpec.ball(0.5, center=(0.0, 0.0)),
                initial=make_bump(amp=0.8, radius=0.3, center=(0.0, 0.0)),
                pot=make_cosine_perturbed(0.5, 1.0), flux=GaussianFlux(),
                scales=(9, 12), realizations=3, times=(0.003, 0.007), pde_spacing=1 / 24,
            ),
            dict(
                spec=DomainSpec.box((1.0, 1.0), center=(0.5, 0.5)),
                initial=make_bump(amp=0.8, radius=0.3, center=(0.5, 0.5)),
                scales=(8,), realizations=2, times=(0.005,), pde_spacing=1 / 4,
            ),
        ],
        ids=["box1d-uneven-times", "box1d-cosine", "ball2d-cosine", "box2d-coarse-pde"],
    )
    @pytest.mark.parametrize("budget", [None, 1000])
    def test_per_seed_gaps(self, kw, budget, monkeypatch):
        if budget is not None:
            # a few steps of noise per block, so the runs cross block edges
            monkeypatch.setattr(dynamics, "NOISE_BLOCK_BYTES", budget, raising=False)
        exp = small_experiment(**kw)
        got = run(exp).meta["per_seed"]
        want = plain_hydro_gaps(exp)
        assert sorted(got) == sorted(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key


TABLE_RUN = """
import numpy as np
from heightlab import DomainSpec, SurfaceTensionTable, make_gaussian
from heightlab.hydro import HydroExperiment, make_bump, profile_zero, run
from heightlab.pde import TableFlux

ax = np.linspace(-4.0, 4.0, 9)
u = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
zeros = np.zeros_like(u)
table = SurfaceTensionTable([ax, ax], u, zeros, 0.5 * (u**2).sum(-1), zeros[..., 0])
exp = HydroExperiment(
    pot=make_gaussian(),
    spec=DomainSpec(shape="box", center=(0.5, 0.5), sides=(1.0, 1.0)),
    boundary=profile_zero,
    initial=make_bump(amp=0.4, radius=0.3, center=(0.5, 0.5)),
    scales=(8,),
    times=(0.01,),
    realizations=2,
    pde_spacing=1 / 16,
    flux=TableFlux(table),
)
assert run(exp).rows  # the gaps come from l2_compare
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestImportFootprint:
    def test_table_flux_run_never_imports_scipy(self):
        # a fresh interpreter: the test process itself imports scipy
        src = str(Path(heightlab.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r})\n" + TABLE_RUN
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestReport:
    def test_files_written_and_readable(self, tmp_path):
        table = run(small_experiment())
        if HAVE_MATPLOTLIB:
            paths = report(table, tmp_path / "out", meta={"run": "smoke"})
            names = [p.name for p in paths]
            assert names == ["convergence.csv", "gap_vs_N.dat", "gap_vs_N.png"]
        else:
            with pytest.warns(PlotSkipped, match=r"gap_vs_N\.png.*heightlab\[plot\]"):
                paths = report(table, tmp_path / "out", meta={"run": "smoke"})
            names = [p.name for p in paths]
            assert names == ["convergence.csv", "gap_vs_N.dat"]
            assert not (tmp_path / "out" / "gap_vs_N.png").exists()
        text = (tmp_path / "out" / "convergence.csv").read_text()
        assert "# run=smoke\n" in text
        assert "# potential=gaussian\n" in text
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "N,t,mean_sq_gap,stderr,realizations"
        assert len(body) == 3
        # repr round trip preserves every digit of the gap column
        vals = [float(l.split(",")[2]) for l in body[1:]]
        assert vals == [r["mean_sq_gap"] for r in table.rows]

    def test_plot_skip_without_matplotlib(self, tmp_path, monkeypatch):
        table = ConvergenceTable(
            rows=[
                {"N": 8, "t": 0.02, "mean_sq_gap": 3e-3, "stderr": 4e-4, "realizations": 8},
                {"N": 16, "t": 0.02, "mean_sq_gap": 1e-3, "stderr": 2e-4, "realizations": 8},
            ],
            meta={"potential": "gaussian"},
        )
        with monkeypatch.context() as mp:
            mp.setitem(sys.modules, "matplotlib", None)
            with pytest.warns(PlotSkipped, match=r"pip install 'heightlab\[plot\]'"):
                skipped = report(table, tmp_path / "skip")
        assert [p.name for p in skipped] == ["convergence.csv", "gap_vs_N.dat"]
        assert not (tmp_path / "skip" / "gap_vs_N.png").exists()

        # the data files do not depend on whether the figure is drawn
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlotSkipped)
            plain = report(table, tmp_path / "plain")
        figure = ["gap_vs_N.png"] if HAVE_MATPLOTLIB else []
        assert [p.name for p in plain] == [p.name for p in skipped] + figure
        for a, b in zip(skipped, plain):
            assert a.read_bytes() == b.read_bytes()

        # only a missing matplotlib counts as absent; a broken install raises
        real_import = builtins.__import__

        def broken(name, *args, **kw):
            if name == "matplotlib":
                raise ModuleNotFoundError("No module named 'kiwisolver'", name="kiwisolver")
            return real_import(name, *args, **kw)

        monkeypatch.setattr(builtins, "__import__", broken)
        with pytest.raises(ModuleNotFoundError) as info:
            report(table, tmp_path / "broken")
        assert info.value.name == "kiwisolver"

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            report(ConvergenceTable(), tmp_path)


class TestSharedQuadrature:
    """realization_gaps equals per-field l2_compare, bit for bit."""

    @pytest.mark.parametrize(
        "spec,N,spacing",
        [
            (DomainSpec.ball(0.5, center=(0.0, 0.0)), 9, 1 / 32),
            (DomainSpec.box((1.0, 1.0), center=(0.5, 0.5)), 8, 1 / 16),
            (DomainSpec.box((1.0, 0.5), center=(0.5, 0.25)), 16, 1 / 4),
            (box1d(), 32, 1 / 8),
        ],
        ids=["ball", "box2d", "macro-finer-2d", "macro-finer-1d"],
    )
    def test_gaps_equal_l2_compare(self, spec, N, spacing):
        rng = np.random.default_rng(7)
        grid = PdeGrid(spec, spacing)
        ref = GridField(grid, rng.normal(size=grid.shape))
        sites = discretize_domain(spec, N).sites
        fields = [
            MacroscopicField(N, sites, rng.normal(size=len(sites)), spec) for _ in range(4)
        ]
        want = np.array([l2_compare(f, ref, spec) for f in fields])
        assert np.array_equal(hydro.realization_gaps(fields, ref, spec), want)

    def test_ball_has_points_outside_macro_coverage(self):
        # at N = 9 the nodes (0.5, 0) and (0, 0.5) on the circle round up
        # to cell 5, which the discretized domain does not cover
        spec = DomainSpec.ball(0.5, center=(0.0, 0.0))
        sites = discretize_domain(spec, 9).sites
        field = MacroscopicField(9, sites, np.ones(len(sites)), spec)
        pts, _ = quadrature(field, GridField(PdeGrid(spec, 1 / 32), np.zeros((33, 33))), spec)
        ids = field.cell_ids(pts)
        assert (ids == -1).any() and (ids >= 0).any()
        assert np.array_equal(field.sample(pts), np.where(ids >= 0, 1.0, 0.0))

    def test_macro_field_supplies_points_when_finer(self):
        spec = DomainSpec.box((1.0, 0.5), center=(0.5, 0.25))
        sites = discretize_domain(spec, 16).sites
        field = MacroscopicField(16, sites, np.zeros(len(sites)), spec)
        ref = GridField(PdeGrid(spec, 1 / 4), np.zeros((5, 3)))
        pts, weight = quadrature(field, ref, spec)
        centers = field.cell_centers()
        assert np.array_equal(pts, centers[spec.contains(centers)])
        assert weight == field.cell_volume
