"""Scaling studies: profiles, flux resolution, and the convergence table.

The full-size study lives in the acceptance suite; here small Gaussian
runs check the plumbing end to end, including determinism of the
replicated dynamics and the report files.
"""

import builtins
import importlib.util
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import heightlab
from heightlab import (
    DomainSpec, FluxRangeExceeded, NonFinite, PlotSkipped, PotentialMismatch, StepTooLarge,
    make_cosine_perturbed, make_gaussian, make_split_bump,
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
from heightlab import _forks, dynamics, hydro
from heightlab.dynamics import MacroscopicField, step_cap
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
from heightlab.surface import SurfaceTensionTable, build_table

from oracles import (
    PlainDirichlet,
    assert_no_child_left,
    expected_gap,
    gaussian_dirichlet_moments,
    reference_dirichlet_run,
)

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

    @pytest.mark.parametrize("source", ["table", "csv"])
    def test_table_for_another_potential_is_refused(self, tmp_path, source):
        a = np.array([-1.0, 0.0, 1.0])
        tab = SurfaceTensionTable([a], a[:, None], np.zeros((3, 1)), a**2 / 2,
                                  np.zeros(3), meta={"potential": "gaussian"})
        if source == "csv":
            tab.to_csv(tmp_path / "table.csv")
            tab = str(tmp_path / "table.csv")
        cosine = make_cosine_perturbed(2.0, 1.0)
        with pytest.raises(PotentialMismatch, match=r"'gaussian'.*'cosine\(a=2,kappa=1\)'"):
            resolve_flux(tab, cosine)

    def test_cosine_table_from_csv_matches(self, tmp_path):
        pot = make_cosine_perturbed(2.0, 1.0)
        tab = build_table(pot, 4, [np.array([-0.5, 0.0, 0.5])], sweeps=64, seed=0,
                          step=0.05, burn_in=10)
        tab.to_csv(tmp_path / "table.csv")
        flux = resolve_flux(str(tmp_path / "table.csv"), make_cosine_perturbed(2.0, 1.0))
        assert isinstance(flux, TableFlux)
        assert flux.table.meta["potential"] == pot.name
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

    def test_repeated_checkpoint_time_repeats_its_rows(self):
        rows = run(small_experiment(scales=(8,), times=(0.01, 0.01))).rows
        assert len(rows) == 2 and rows[0] == rows[1]

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

    @pytest.mark.parametrize("dt, error, match", [
        (1.0, StepTooLarge, r"dt=1 exceeds cap 0\.1\b"),
        (np.nan, ValueError, "positive and finite"),
        (0.0, ValueError, "positive and finite"),
    ])
    def test_bad_step_fails_before_the_pde_solve(self, dt, error, match, monkeypatch):
        # the step as given is named, not a segment's shortened dt_eff
        def no_solve(*args, **kwargs):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(hydro, "solve", no_solve)
        with pytest.raises(error, match=match):
            run(small_experiment(dt=dt))


def plain_hydro_gaps(exp: HydroExperiment) -> dict:
    """Per-seed gaps of ``exp`` from the plain step loop and per-field l2_compare."""
    times = tuple(sorted(exp.times))
    spacing = 1.0 / (4 * max(exp.scales)) if exp.pde_spacing is None else exp.pde_spacing
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

        weights = exp.spec.cell_weights(N, dom.sites)
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


class TestRunSkipsEnergyBookkeeping:
    def test_no_dirichlet_sum_and_one_em_step_per_segment_step(self, monkeypatch):
        calls = {"dirichlet_sum": 0, "em_step": 0}
        dirichlet_sum, em_step = dynamics.DirichletSystem.dirichlet_sum, dynamics.em_step

        def counting_sum(self):
            calls["dirichlet_sum"] += 1
            return dirichlet_sum(self)

        def counting_step(*args, **kwargs):
            calls["em_step"] += 1
            return em_step(*args, **kwargs)

        monkeypatch.setattr(dynamics.DirichletSystem, "dirichlet_sum", counting_sum)
        monkeypatch.setattr(dynamics, "em_step", counting_step)
        # the counts live in this process, so the replicas must step here
        monkeypatch.setattr(hydro, "cpus", lambda: 1)
        exp = small_experiment(times=(0.004, 0.011, 0.02))
        run(exp)
        dt = 0.9 * step_cap(exp.pot, exp.spec.d)
        want = sum(
            n for N in exp.scales for _, n, _ in dynamics.checkpoint_steps(exp.times, N, dt)
        )
        assert calls == {"dirichlet_sum": 0, "em_step": want}


def closed_form_gaussian_table(half_width: float = 8.0, nodes: int = 33):
    """The Gaussian's surface tension sigma = |u|^2 / 2 on a d = 2 grid."""
    ax = np.linspace(-half_width, half_width, nodes)
    u = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    zeros = np.zeros_like(u)
    return SurfaceTensionTable(
        [ax, ax], u, zeros, 0.5 * (u**2).sum(axis=-1), zeros[..., 0],
        {"potential": "gaussian"},
    )


def table_study_2d(table: SurfaceTensionTable) -> HydroExperiment:
    return small_experiment(
        spec=DomainSpec(shape="box", center=(0.5, 0.5), sides=(1.0, 1.0)),
        initial=make_bump(amp=0.8, radius=0.3, center=(0.5, 0.5)),
        scales=(8,), realizations=5, times=(0.005, 0.01), pde_spacing=1 / 16,
        flux=TableFlux(table),
    )


class TestWorkers:
    """hydro.run splits the replicas over forked workers, bit for bit."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Force the worker count with ``forks.workers`` (at first the
        usable CPUs); ``forks.made`` counts the children forked."""
        state = SimpleNamespace(workers=_forks.cpus(), made=0)
        fork = _forks._fork

        def counting_fork(*args):
            state.made += 1
            return fork(*args)

        monkeypatch.setattr(hydro, "cpus", lambda: state.workers)
        monkeypatch.setattr(_forks, "_fork", counting_fork)
        return state

    def test_one_worker_per_usable_cpu_and_one_beside_other_threads(self, forks):
        assert forks.workers == len(os.sched_getaffinity(0))
        exp = small_experiment()
        run(exp)
        workers = min(forks.workers, exp.realizations)
        assert forks.made == (workers if workers > 1 else 0)
        forks.workers, forks.made = 2, 0
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run(exp)
        finally:
            stop.set()
            thread.join()
        assert forks.made == 0

    @pytest.mark.parametrize(
        "make",
        [lambda: small_experiment(realizations=7, times=(0.004, 0.011, 0.02)),
         lambda: table_study_2d(closed_form_gaussian_table())],
        ids=["d1-gaussian", "d2-table"],
    )
    def test_rows_and_per_seed_gaps_equal_at_any_worker_count(self, make, forks):
        tables = {}
        for workers in (1, 2, 3):
            forks.workers, forks.made = workers, 0
            tables[workers] = run(make())
            assert forks.made == (workers if workers > 1 else 0)
            assert_no_child_left()
        serial = tables[1]
        for table in (tables[2], tables[3]):
            assert table.rows == serial.rows
            per_seed = table.meta["per_seed"]
            assert sorted(per_seed) == sorted(serial.meta["per_seed"])
            for key, gaps in serial.meta["per_seed"].items():
                assert np.array_equal(per_seed[key], gaps), key

    def test_a_workers_non_finite_state_surfaces_as_non_finite(self, forks, monkeypatch):
        parent, em_step = os.getpid(), dynamics.em_step

        def step(system, dt):
            if os.getpid() != parent:
                raise NonFinite("height field left float range in a worker")
            em_step(system, dt)

        monkeypatch.setattr(dynamics, "em_step", step)
        forks.workers = 2
        with pytest.raises(NonFinite, match="in a worker"):
            run(small_experiment())
        assert forks.made == 2
        assert_no_child_left()

    def test_a_worker_that_dies_without_a_result_raises(self, forks, monkeypatch):
        parent, profiles = os.getpid(), hydro._profiles

        def die(*args):
            if os.getpid() != parent:
                os._exit(3)
            return profiles(*args)

        monkeypatch.setattr(hydro, "_profiles", die)
        forks.workers = 2
        with pytest.raises(RuntimeError, match="exited with status 3"):
            run(small_experiment())
        assert_no_child_left()

    def test_no_child_left_when_the_parents_solve_fails(self, forks):
        # the flux leaves the table while the workers run
        forks.workers = 2
        with pytest.raises(FluxRangeExceeded):
            run(table_study_2d(closed_form_gaussian_table(half_width=0.25, nodes=3)))
        assert forks.made == 2
        assert_no_child_left()


def gaussian_study(d: int, scales, **kw) -> HydroExperiment:
    """test_07's run in d = 1 and hydro_table's box in d = 2: unit box,
    bump of amp 0.8, zero boundary, t = 0.05, PDE spacing 1/128 and 1/64."""
    center = (0.5,) * d
    return small_experiment(
        spec=DomainSpec(shape="box", center=center, sides=(1.0,) * d),
        initial=make_bump(amp=0.8, radius=0.3, center=center),
        scales=scales, times=(0.05,), pde_spacing=1 / 128 if d == 1 else 1 / 64, **kw,
    )


def exact_gaps(exp: HydroExperiment, dt: float, scheme: str, noise_var: float = 1.0) -> dict:
    """The oracle's expected squared L2 gap per (N, t) of a Gaussian
    ``exp`` at step ``dt``, on hydro's own quadrature."""
    times = tuple(sorted(exp.times))
    reference = solve(
        PdeGrid(exp.spec, exp.pde_spacing), exp.initial, GaussianFlux(),
        t_end=times[-1], boundary=exp.boundary, record=times,
    )
    gaps = {}
    for N in exp.scales:
        dom = discretize_domain(exp.spec, N)
        phi0 = boundary_height(exp.boundary, N, dom.sites)
        phi0[: dom.n_interior] = N * cell_average(exp.initial, N, dom.sites[: dom.n_interior])
        moments = gaussian_dirichlet_moments(dom.neighbors, phi0, dt, times, N, scheme, noise_var)
        for t, (mean, var) in moments.items():
            ref = reference.field_at(t)
            h = MacroscopicField(N, dom.sites, mean / N, exp.spec)
            pts, weight = quadrature(h, ref, exp.spec)
            var_h = MacroscopicField(N, dom.sites, var / N**2, exp.spec).sample(pts)
            gaps[(N, t)] = expected_gap(h.sample(pts), var_h, ref.sample(pts), weight)
    return gaps


class TestExactGaussianGap:
    """For Gaussian V the Langevin dynamics is linear, so the expected
    hydro gap is known exactly (``gaussian_dirichlet_moments``)."""

    @pytest.mark.parametrize("d, scales, seed", [(1, (8, 16, 32), 0), (2, (8, 16), 1)])
    def test_monte_carlo_gaps_match_the_exact_lm_gaps(self, d, scales, seed):
        exp = gaussian_study(d, scales, realizations=256, seed=seed)
        ns, gaps, ses = run(exp).gaps(0.05)
        dt = 0.9 * step_cap(exp.pot, d)
        exact = exact_gaps(exp, dt, "lm")
        z = [(g - exact[(N, 0.05)]) / se for N, g, se in zip(ns, gaps, ses)]
        assert max(map(abs, z)) < 3, z
        # negative control: doubled noise variance is seen at the largest N
        doubled = exact_gaps(exp, dt, "lm", noise_var=2.0)[(ns[-1], 0.05)]
        assert abs(gaps[-1] - doubled) > 3 * ses[-1]

    @pytest.mark.parametrize("d, scales", [(1, (8, 16, 32, 64)), (2, (8, 16))])
    def test_default_step_stays_near_continuous_time(self, d, scales):
        exp = gaussian_study(d, scales)
        dt = 0.9 * step_cap(exp.pot, d)
        cont = exact_gaps(exp, dt, "continuous")
        rel = {scheme: [g / cont[key] - 1 for key, g in exact_gaps(exp, dt, scheme).items()]
               for scheme in ("lm", "em")}
        assert max(map(abs, rel["lm"])) < 0.025, rel
        # control: Euler-Maruyama noise at the same step misses somewhere
        assert max(rel["em"]) > 0.025, rel

    def test_em_branch_reproduces_the_old_default_step(self):
        # the exact Euler-Maruyama gaps at 0.9 * 0.1 / 2, the default step
        # before LM noise, as a dense covariance loop gave them (ROADMAP
        # item 2)
        exp = gaussian_study(1, (8, 16, 32, 64))
        got = exact_gaps(exp, 0.45 * step_cap(exp.pot, 1), "em")
        want = [0.03929, 0.01180, 0.00470, 0.00215]
        assert [got[(N, 0.05)] for N in exp.scales] == pytest.approx(want, abs=5e-6)


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
    """l2_compare of a batched field equals l2_compare of each row, bit for bit."""

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
        rows = rng.normal(size=(4, len(sites)))
        want = np.array([l2_compare(MacroscopicField(N, sites, v, spec), ref, spec)
                         for v in rows])
        got = l2_compare(MacroscopicField(N, sites, rows, spec), ref, spec)
        assert got.shape == (4,)
        assert np.array_equal(got, want)

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
