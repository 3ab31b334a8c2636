import numpy as np
import pytest

from heightlab import dynamics
from heightlab import (
    DirichletSystem,
    DomainSpec,
    NonFinite,
    Potential,
    StepTooLarge,
    TiltedPeriodicSystem,
    TimeMismatch,
    TorusLattice,
    boundary_height,
    discretize_domain,
    em_step,
    energy_diagnostic,
    macro_height,
    make_cosine_perturbed,
    make_gaussian,
    make_split_bump,
    run_dirichlet,
    step_cap,
)
from heightlab.dynamics import MacroscopicField
from heightlab.hydro import clamped_system, make_bump, profile_zero
from heightlab.rng import seed_key, stream

from oracles import (
    PlainDirichlet,
    em_gaussian_bond_variance,
    fd_gradient,
    hamiltonian_domain,
    hamiltonian_torus,
    lm_gaussian_bond_variance,
    pointwise_drift,
    reference_dirichlet_run,
)

UNIT_BOX_1D = DomainSpec.box((1.0,), center=(0.0,))


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


FREE = Potential(
    name="free",
    v=_zero, vp=_zero, vpp=_zero,
    v0=_zero, v0p=_zero, v0pp=_zero,
    g=_zero, gp=_zero, gpp=_zero,
    c_minus=0.0, c_plus=0.0, c_g=0.0,
)


class TestStepCap:
    def test_formula(self):
        pot = make_cosine_perturbed(0.5, 1.0)   # lipschitz 1 + 1
        assert step_cap(pot, 2) == pytest.approx(0.2 / (2 * 2 * 2.0))

    def test_free_potential_uncapped(self):
        assert step_cap(FREE, 1) == np.inf

    def test_step_too_large(self):
        lat = TorusLattice(4, 1)
        sys = TiltedPeriodicSystem(lat, make_gaussian(), [(0.0,)], seed=[0])
        with pytest.raises(StepTooLarge):
            em_step(sys, 1.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -0.01, 0.0])
    @pytest.mark.parametrize("pot", [make_gaussian(), FREE], ids=["capped", "uncapped"])
    def test_bad_dt_refused_before_the_step(self, dt, pot):
        dom = discretize_domain(UNIT_BOX_1D, 8)
        sys = DirichletSystem(dom, pot, np.zeros(dom.n_sites), seed=3, replicas=2)
        before = sys.phi.copy()
        with pytest.raises(ValueError, match="positive and finite"):
            em_step(sys, dt)
        assert np.array_equal(sys.phi, before)
        assert sys.t == 0.0

    def test_langevin_step_defaults_to_nine_tenths_of_the_cap(self):
        pot = make_cosine_perturbed(0.5, 1.0)
        cap = step_cap(pot, 2)
        assert dynamics.langevin_step(pot, 2) == 0.9 * cap
        assert dynamics.langevin_step(pot, 2, 0.01) == 0.01
        with pytest.raises(StepTooLarge, match="dt=1 exceeds cap"):
            dynamics.langevin_step(pot, 2, 1.0)
        for bad in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"positive and finite, got {bad!r}"):
                dynamics.langevin_step(pot, 2, bad)


class TestDriftAgainstEnergy:
    def test_torus_drift_is_minus_energy_gradient(self):
        pot = make_cosine_perturbed(0.8, 1.3)
        lat = TorusLattice(5, 2)
        rng = np.random.default_rng(11)
        phi = rng.normal(size=lat.shape)
        sys = TiltedPeriodicSystem(lat, pot, [(0.4, -0.2)], phi=phi, seed=[0])
        fn = lambda p: hamiltonian_torus(pot.v, p, (0.4, -0.2))
        want = -fd_gradient(fn, phi, h=1e-6)
        assert np.max(np.abs(sys.drift_interior()[0] - want)) < 1e-7

    def test_domain_drift_is_minus_energy_gradient(self):
        pot = make_split_bump()
        dom = discretize_domain(UNIT_BOX_1D, 14)
        rng = np.random.default_rng(12)
        psi = rng.normal(size=dom.n_sites)
        sys = DirichletSystem(dom, pot, psi, seed=0)
        heads = dom.bonds_closure[:, 0]
        tails = dom.bonds_closure[:, 1]

        def fn(interior):
            full = sys.phi[0].copy()
            full[: dom.n_interior] = interior
            return hamiltonian_domain(pot.v, full, heads, tails)

        want = -fd_gradient(fn, sys.phi[0, : dom.n_interior].copy(), h=1e-6)
        assert np.max(np.abs(sys.drift_interior()[0] - want)) < 1e-7

    def test_domain_drift_in_four_dimensions_matches_a_site_loop(self):
        # 8 neighbours per site: numpy may add them in another order than
        # the loop does, so the two agree to rounding, not bit for bit
        pot = make_cosine_perturbed(2.0, 1.0)
        dom = discretize_domain(DomainSpec.box((1.0,) * 4, center=(0.0,) * 4), 7)
        assert dom.d == 4 and dom.n_interior > 0
        rng = np.random.default_rng(14)
        sys = DirichletSystem(dom, pot, rng.normal(size=dom.n_sites), seed=0, replicas=2)
        sys.phi[:, : dom.n_interior] = rng.normal(size=(2, dom.n_interior))
        index = {tuple(site): k for k, site in enumerate(dom.sites)}
        want = np.zeros((2, dom.n_interior))
        for k, site in enumerate(dom.sites[: dom.n_interior]):
            for i in range(4):
                for s in (1, -1):
                    y = index[tuple(site + s * np.eye(4, dtype=int)[i])]
                    want[:, k] -= pot.vp(sys.phi[:, k] - sys.phi[:, y])
        assert np.max(np.abs(sys.drift_interior() - want)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("pot", [make_cosine_perturbed(0.8, 1.3), make_split_bump()])
    def test_bond_pass_matches_roll_form(self, d, pot):
        # per chain: energy, gradient, differences, V' and V sums of the
        # np.roll passes, bit for bit and in the sign of zero, for a lone
        # chain, chains sharing one tilt row and chains with their own, on
        # N = 2 (where a site's forward and backward neighbours coincide)
        # and larger N
        def same(x, y):
            return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))

        def check(pot, tilts, phi):
            sys = TiltedPeriodicSystem(lat, pot, tilts, phi=phi, seed=range(len(tilts)))
            b = sys.bond_pass(phi)
            for r, (p, tilt) in enumerate(zip(phi, tilts)):
                want_grad = np.zeros(lat.shape)
                for i in range(d):
                    bond = np.roll(p, -1, axis=i) - p + tilt[i]
                    a = pot.vp(bond)
                    want_grad += np.roll(a, 1, axis=i) - a
                    assert same(b.diffs[i][r], np.roll(p, -1, axis=i) - p)
                    assert same(b.vp[i][r], a)
                    assert b.v_sums[i][r] == pot.v(bond).sum()
                assert b.energy[r] == hamiltonian_torus(pot.v, p, tilt)
                assert same(b.grad[r], want_grad)
            assert same(sys.drift_interior(), -b.grad)
            skipped = sys.bond_pass(phi, with_energy=False)
            assert skipped.energy is None and skipped.v_sums is None
            assert same(skipped.grad, b.grad)

        rng = np.random.default_rng(d)
        tilt = np.linspace(-0.4, 0.7, d)
        for N in (2, 5 if d < 3 else 3):
            lat = TorusLattice(N, d)
            for tilts in (tilt[None], np.tile(tilt, (4, 1)), rng.normal(size=(3, d))):
                check(pot, tilts, rng.normal(size=(len(tilts),) + lat.shape))
            # bonds at exactly +-0.0: the Gaussian V' keeps their sign, so
            # some V' differences are -0.0, which the gradient adds to +0.0
            zeros = np.where(rng.random((3,) + lat.shape) < 0.5, -0.0, 0.0)
            for p in (pot, make_gaussian()):
                check(p, np.full((3, d), -0.0), zeros)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bond_pass_per_chain_tilts(self, d):
        # a (B, d) tilt gives chain j exactly the pass of a system tilted by row j
        pot = make_split_bump()
        lat = TorusLattice(4, d)
        tilts = np.random.default_rng(d).normal(size=(3, d))
        phi = np.random.default_rng(d + 10).normal(size=(3,) + lat.shape)
        batch = TiltedPeriodicSystem(lat, pot, tilts, phi=phi, seed=[0, 1, 2])
        b = batch.bond_pass(phi)
        for j in range(3):
            single = TiltedPeriodicSystem(lat, pot, tilts[j : j + 1], phi=phi[j], seed=[j])
            one = single.bond_pass(phi[j : j + 1])
            assert b.energy[j] == one.energy[0]
            assert np.array_equal(b.grad[j], one.grad[0])
            for name in ("diffs", "vp", "v_sums"):
                assert all(
                    np.array_equal(x[j], y[0])
                    for x, y in zip(getattr(b, name), getattr(one, name))
                )
        for seed in ([0, 1], 0):
            with pytest.raises(ValueError):
                TiltedPeriodicSystem(lat, pot, tilts, seed=seed)

    @pytest.mark.parametrize("tilt", [(0.5, 0.0), [[[0.5, 0.0]]], [(0.5,)]])
    def test_tilt_needs_one_row_per_chain(self, tilt):
        # a (d,) tilt, extra axes or the wrong d are refused
        with pytest.raises(ValueError, match=r"tilt of shape \(B, d\)"):
            TiltedPeriodicSystem(TorusLattice(4, 2), make_gaussian(), tilt, seed=[0])

    def test_pointwise_reference_matches_vectorized(self):
        pot = make_cosine_perturbed(0.4, 2.0)
        lat = TorusLattice(6, 2)
        rng = np.random.default_rng(13)
        phi = rng.normal(size=lat.shape)
        sys = TiltedPeriodicSystem(lat, pot, [(0.0, 0.0)], phi=phi, seed=[0])
        vec = sys.drift_interior()[0]
        for site in [(0, 0), (3, 4), (5, 5)]:
            want = pytest.approx(vec[site], abs=1e-12)
            assert pointwise_drift(pot.vp, phi, site) == want


class TestEulerStep:
    def test_linear_profile_is_stationary_without_noise(self):
        # an affine height field is harmonic for any symmetric potential
        dom = discretize_domain(UNIT_BOX_1D, 16)
        f = lambda p: 0.7 * np.atleast_2d(p)[:, 0]
        psi = boundary_height(f, 16, dom.sites)
        sys = DirichletSystem(dom, make_split_bump(), psi, seed=0)
        before = sys.phi.copy()
        for _ in range(25):
            em_step(sys, 1e-3, noise_scale=0.0)
        assert np.max(np.abs(sys.phi - before)) < 1e-12

    def test_boundary_clamp_bit_exact(self):
        dom = discretize_domain(UNIT_BOX_1D, 12)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=dom.n_sites)
        sys = DirichletSystem(dom, make_gaussian(), psi, seed=9)
        for _ in range(60):
            em_step(sys, 0.01)
        assert np.array_equal(sys.phi[0, dom.n_interior:], psi[dom.n_interior:])

    def test_nonfinite_detected(self):
        lat = TorusLattice(4, 1)
        sys = TiltedPeriodicSystem(lat, make_gaussian(), [(0.0,)], seed=[0])
        sys.phi[0, 0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(NonFinite):
            em_step(sys, 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_boundary_data_refused(self, bad):
        dom = discretize_domain(UNIT_BOX_1D, 6)
        psi = np.zeros(dom.n_sites)
        psi[-1] = bad  # a clamped site, which no step checks
        with pytest.raises(NonFinite, match="boundary data"):
            DirichletSystem(dom, make_gaussian(), psi, replicas=2)

    def test_nonfinite_interior_detected(self):
        dom = discretize_domain(UNIT_BOX_1D, 6)
        sys = DirichletSystem(dom, make_gaussian(), np.zeros(dom.n_sites), replicas=2)
        sys.phi[1, 0] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
            em_step(sys, 0.01)

    def test_same_seed_same_trajectory(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        psi = np.zeros(dom.n_sites)
        a = DirichletSystem(dom, make_gaussian(), psi, seed=21)
        b = DirichletSystem(dom, make_gaussian(), psi, seed=21)
        for _ in range(30):
            em_step(a, 0.02)
            em_step(b, 0.02)
        assert np.array_equal(a.phi, b.phi)

    def test_replica_zero_matches_serial_run(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        psi = np.zeros(dom.n_sites)
        serial = DirichletSystem(dom, make_gaussian(), psi, seed=5)
        batch = DirichletSystem(dom, make_gaussian(), psi, seed=5, replicas=3)
        for _ in range(20):
            em_step(serial, 0.02)
            em_step(batch, 0.02)
        assert serial.phi.shape == (1, dom.n_sites)
        assert np.array_equal(batch.phi[0], serial.phi[0])
        assert not np.array_equal(batch.phi[1], batch.phi[2])

    def test_a_range_of_replicas_matches_those_rows_of_the_batch(self):
        # hydro.run's workers each make the system of one chunk of replicas
        dom = discretize_domain(UNIT_BOX_1D, 10)
        psi = np.zeros(dom.n_sites)
        batch = DirichletSystem(dom, make_gaussian(), psi, seed=5, replicas=5)
        chunk = DirichletSystem(dom, make_gaussian(), psi, seed=5, replicas=range(2, 4))
        for _ in range(20):
            em_step(batch, 0.02)
            em_step(chunk, 0.02)
        assert chunk.phi.shape == (2, dom.n_sites)
        assert np.array_equal(chunk.phi, batch.phi[2:4])

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_replica_zero_energy_trace_matches_lone_run(self, N):
        # the norms and the Dirichlet integral reduce each row alone, so a
        # replica's trace keeps every bit whatever the number of replicas
        spec = DomainSpec(shape="box", center=(0.5,), sides=(1.0,))
        pot = make_gaussian()
        bump = make_bump(amp=0.8, radius=0.3, center=(0.5,))
        traces = [
            run_dirichlet(
                clamped_system(spec, N, pot, profile_zero, bump, seed=0, replicas=r),
                0.9 * step_cap(pot, 1), (0.02, 0.05),
            )
            for r in (1, 3)
        ]
        lone, batch = traces
        for key in ("h_norm_sq", "dirichlet_integral", "initial_norm_sq"):
            assert np.array_equal(getattr(batch, key)[..., :1], getattr(lone, key)), key

    @pytest.mark.parametrize("d", [1, 2])
    def test_torus_chain_matches_lone_run(self, d, monkeypatch):
        # chain j of a batch, with its own tilt and seed, follows the
        # trajectory of the same chain run alone, bit for bit; a small
        # block budget puts block edges at different steps in the two runs
        pot = make_cosine_perturbed(0.8, 1.3)
        lat = TorusLattice(5, d)
        monkeypatch.setattr(dynamics, "NOISE_BLOCK_BYTES", 8 * 3 * lat.n_sites * 2 + 7)
        rng = np.random.default_rng(d)
        tilts = rng.normal(size=(3, d))
        phi = rng.normal(size=(3,) + lat.shape)
        seeds = [(4, j) for j in range(3)]
        batch = TiltedPeriodicSystem(lat, pot, tilts, phi=phi, seed=seeds)
        lone = [
            TiltedPeriodicSystem(lat, pot, tilts[j : j + 1], phi=phi[j], seed=[seeds[j]])
            for j in range(3)
        ]
        dt = 0.9 * step_cap(pot, d)
        for scale in (1.0, 1.0, 0.0, 1.0, 0.5, 1.0, 1.0):
            em_step(batch, dt, noise_scale=scale)
            for j, one in enumerate(lone):
                em_step(one, dt, noise_scale=scale)
                assert np.array_equal(batch.phi[j], one.phi[0])
        assert not np.array_equal(batch.phi[0], batch.phi[1])

    def test_free_field_spreads_like_brownian_motion(self):
        # with V = 0 each interior height is sqrt(dt / 2) times
        # xi_0 + 2 xi_1 + ... + 2 xi_{n-1} + xi_n after n steps, so
        # Var = (2 n - 1) dt; Brownian motion's 2 n dt lies 7.9 SE off
        dom = discretize_domain(UNIT_BOX_1D, 10)
        psi = np.zeros(dom.n_sites)
        sys = DirichletSystem(dom, FREE, psi, seed=7, replicas=10000)
        n, dt = 5, 0.01
        for _ in range(n):
            em_step(sys, dt)
        var = sys.phi[:, : dom.n_interior].var(axis=0, ddof=1)
        want = (2 * n - 1) * dt
        se = want * np.sqrt(2.0 / (10000 - 1))
        assert np.all(np.abs(var - want) < 4 * se)
        assert np.all(np.abs(var - 2 * n * dt) > 4 * se)

    def test_gaussian_chain_reaches_lm_stationary_variance(self):
        # exact discrete-time oracle: the stationary variance per Fourier
        # mode of the LM recursion, which is the Gibbs value; Euler-
        # Maruyama's (0.9291 here) lies 5.8 SE above the 0.8784 read
        N, dt, reps, steps = 8, 0.05, 3000, 1500
        lat = TorusLattice(N, 1)
        sys = TiltedPeriodicSystem(
            lat, make_gaussian(), np.zeros((reps, 1)), seed=[(3, r) for r in range(reps)]
        )
        for _ in range(steps):
            em_step(sys, dt)
        per_rep = np.square(sys.bond_pass(sys.phi).diffs[0]).mean(axis=1)
        got = per_rep.mean()
        se = per_rep.std(ddof=1) / np.sqrt(reps)
        assert abs(got - lm_gaussian_bond_variance(N, 1, 0, dt)) < 4 * se
        assert abs(got - em_gaussian_bond_variance(N, 1, 0, dt)) > 4 * se


class TestMacroscopic:
    def test_mean_gradient_is_exact_tilt(self):
        lat = TorusLattice(6, 2)
        rng = np.random.default_rng(8)
        sys = TiltedPeriodicSystem(
            lat, make_gaussian(), [(0.9, -0.3)], phi=rng.normal(size=lat.shape), seed=[0]
        )
        # zero winding: the untilted differences average to 0 on every axis
        got = [e.mean() + u for e, u in zip(sys.bond_pass(sys.phi).diffs, sys.tilt[0])]
        assert np.allclose(got, [0.9, -0.3], atol=1e-12, rtol=0)

    def test_macro_height_requires_matching_clock(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        sys = DirichletSystem(dom, make_gaussian(), np.zeros(dom.n_sites))
        with pytest.raises(TimeMismatch):
            macro_height(sys, 0.01)

    def test_macro_height_scales_values(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        psi = np.ones(dom.n_sites) * 5.0
        sys = DirichletSystem(dom, make_gaussian(), psi)
        field = macro_height(sys, 0.0)
        assert np.allclose(field.values, 0.5, atol=1e-15)

    def test_field_sampling_picks_cells(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        vals = dom.sites[:, 0].astype(float)
        field = MacroscopicField(10, dom.sites, vals, UNIT_BOX_1D)
        pts = np.array([[0.0], [0.31], [-0.27], [0.34 + 0.04]])
        # cell of theta is round(N theta)
        want = np.round(10 * pts[:, 0])
        assert np.allclose(field.sample(pts), want)
        assert field.sample(np.array([[9.9]]))[0] == 0.0   # outside coverage

    def test_box_cell_weights_partition_volume(self):
        dom = discretize_domain(UNIT_BOX_1D, 16)
        w = UNIT_BOX_1D.cell_weights(16, dom.sites)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        field = MacroscopicField(16, dom.sites, np.ones(dom.n_sites), UNIT_BOX_1D)
        assert field.l2_norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_ball_cell_weights_close_to_area(self):
        spec = DomainSpec.ball(0.4, center=(0.0, 0.0))
        dom = discretize_domain(spec, 12)
        w = spec.cell_weights(12, dom.sites)
        assert w.sum() == pytest.approx(np.pi * 0.4**2, rel=2e-3)


class TestCheckpointSteps:
    def test_segments_land_on_each_checkpoint(self):
        # uneven spans, a repeated checkpoint and t = 0, given out of order
        times = (0.011, 0.0, 0.005, 0.005, 0.0021)
        got = dynamics.checkpoint_steps(times, 12, 0.03)
        assert [t for t, _, _ in got] == sorted(times)
        prev = 0.0
        for t, n_steps, dt_eff in got:
            span = (t - prev) * 12**2
            if span == 0:
                assert n_steps == 0
            else:
                assert n_steps == max(1, int(np.ceil(span / 0.03)))
                assert dt_eff == span / n_steps <= 0.03
            prev = t

    def test_negative_time_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dynamics.checkpoint_steps((0.1, -0.1), 8, 0.01)

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf, -np.inf])
    def test_bad_step_refused(self, dt):
        # 0 used to divide by zero, NaN to fail converting to int, and a
        # negative or infinite step to become one step over the whole span
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            dynamics.checkpoint_steps((0.1,), 8, dt)


class TestEnergyTrace:
    def test_checkpoints_land_exactly(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        sys = DirichletSystem(dom, make_gaussian(), np.zeros(dom.n_sites), seed=1)
        times = (0.013, 0.04)
        trace = run_dirichlet(sys, 0.004, times)
        assert sys.t == pytest.approx(0.04 * 100, rel=1e-12)
        fields = macro_height(sys, 0.04)   # no TimeMismatch
        assert np.allclose(trace.times, times)
        assert trace.h_norm_sq.shape == (2, 1)

    def test_integral_monotone_and_nonnegative(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        sys = DirichletSystem(
            dom, make_gaussian(), np.zeros(dom.n_sites), seed=2, replicas=4
        )
        trace = run_dirichlet(sys, 0.01, (0.01, 0.02, 0.05))
        assert (trace.dirichlet_integral >= 0).all()
        assert (np.diff(trace.dirichlet_integral, axis=0) >= 0).all()

    def test_flat_start_satisfies_energy_bound(self):
        dom = discretize_domain(UNIT_BOX_1D, 16)
        sys = DirichletSystem(
            dom, make_gaussian(), np.zeros(dom.n_sites), seed=3, replicas=8
        )
        trace = run_dirichlet(sys, 0.01, np.linspace(0.01, 0.1, 10))
        diag = energy_diagnostic(trace, c_minus=1.0)
        assert diag.ok
        assert (diag.lhs <= diag.rhs).all()


def _system_and_plain(spec, N, pot, seed, replicas):
    """A DirichletSystem with random data and its plain-loop twin."""
    dom = discretize_domain(spec, N)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=dom.n_sites)
    phi0 = psi + rng.normal(size=dom.n_sites)
    system = DirichletSystem(dom, pot, psi, phi0=phi0, seed=seed, replicas=replicas)
    rngs = [stream(*seed_key(seed), r) for r in range(replicas)]
    plain = PlainDirichlet(
        system.phi, psi, dom.n_interior, dom.neighbors, dom.bonds_closure, pot.vp, rngs
    )
    return system, plain


# (spec, N, potential, replicas); d <= 3, where numpy adds the 2d
# neighbour terms in the loop's order (d = 4: a site-loop test to 1e-12)
PLAIN_LOOP_CASES = {
    "box1d": (UNIT_BOX_1D, 12, make_gaussian(), 5),
    "box2d-cosine": (DomainSpec.box((1.0, 1.0)), 8, make_cosine_perturbed(0.6, 1.5), 3),
    "ball-split-bump": (DomainSpec.ball(0.4, center=(0.0, 0.0)), 10, make_split_bump(), 7),
    "single-replica": (UNIT_BOX_1D, 9, make_cosine_perturbed(0.8, 1.0), 1),
    "box3d": (DomainSpec.box((1.0,) * 3), 8, make_cosine_perturbed(0.3, 1.0), 2),
}


class TestMatchesPlainLoop:
    """Bit-identity of the block-noise Dirichlet path with the plain loop."""

    @pytest.mark.parametrize("case", sorted(PLAIN_LOOP_CASES))
    @pytest.mark.parametrize("block_steps", [1, 3, None])
    def test_phi_after_every_step(self, case, block_steps, monkeypatch):
        spec, N, pot, replicas = PLAIN_LOOP_CASES[case]
        dom = discretize_domain(spec, N)
        if block_steps is not None:
            # block_steps rows per block, the carried one included (at
            # least 2), plus a little slack, so 11 steps end mid-block
            budget = 8 * replicas * dom.n_interior * block_steps + 7
            monkeypatch.setattr(dynamics, "NOISE_BLOCK_BYTES", budget, raising=False)
        system, plain = _system_and_plain(spec, N, pot, seed=(4, N), replicas=replicas)
        cap = step_cap(pot, spec.d)
        # noise-free steps interleaved with noisy ones, and uneven dt
        scales = [1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5, 1.0, 0.0, 1.0]
        for i, scale in enumerate(scales):
            dt = cap * (0.9 - 0.05 * (i % 3))
            em_step(system, dt, noise_scale=scale)
            plain.step(dt, scale)
            assert np.array_equal(system.phi, plain.phi), f"step {i}"

    @pytest.mark.parametrize("case", ["box1d", "box2d-cosine", "ball-split-bump", "single-replica"])
    def test_energy_trace_and_checkpoints(self, case, monkeypatch):
        spec, N, pot, replicas = PLAIN_LOOP_CASES[case]
        dom = discretize_domain(spec, N)
        budget = 8 * replicas * dom.n_interior * 4 + 1
        monkeypatch.setattr(dynamics, "NOISE_BLOCK_BYTES", budget, raising=False)
        system, plain = _system_and_plain(spec, N, pot, seed=9, replicas=replicas)
        dt = 0.9 * step_cap(pot, spec.d)
        times = (0.0021, 0.005, 0.0061, 0.011)   # uneven checkpoint spans
        got, want = [], []
        trace = run_dirichlet(
            system, dt, times, collect=lambda t, s: got.append((t, s.phi.copy()))
        )
        weights = spec.cell_weights(N, dom.sites)
        ref = reference_dirichlet_run(
            plain, N, weights, dt, times, collect=lambda t, phi: want.append((t, phi.copy()))
        )
        for key in ("times", "h_norm_sq", "dirichlet_integral", "initial_norm_sq"):
            assert np.array_equal(getattr(trace, key), ref[key]), key
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert np.array_equal(a, b)


class TestNoiseBlock:
    def test_many_replicas_hold_at_most_two_steps_or_the_budget(self):
        # a step reads its own draws and the next ones, so two steps'
        # worth is the least a block holds
        dom = discretize_domain(UNIT_BOX_1D, 40)
        system = DirichletSystem(dom, FREE, np.zeros(dom.n_sites), seed=1, replicas=4000)
        em_step(system, 0.01)
        one_step = 8 * 4000 * dom.n_interior
        assert one_step > dynamics.NOISE_BLOCK_BYTES
        assert system._noise.block.nbytes == 2 * one_step

    def test_small_system_stays_within_the_budget(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        system = DirichletSystem(dom, FREE, np.zeros(dom.n_sites), seed=1, replicas=4)
        em_step(system, 0.01)
        assert system._noise.block.nbytes <= dynamics.NOISE_BLOCK_BYTES
        # K steps' fresh draws and the carried row: K + 1 rows in the budget
        rows = dynamics.NOISE_BLOCK_BYTES // (8 * 4 * dom.n_interior)
        assert system._noise.block.shape == (4, rows, dom.n_interior)

    def test_block_made_on_the_first_noisy_step(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        dirichlet = DirichletSystem(dom, FREE, np.zeros(dom.n_sites), replicas=2)
        torus = TiltedPeriodicSystem(TorusLattice(4, 2), FREE, np.zeros((3, 2)), seed=[0, 1, 2])
        for system in (dirichlet, torus):
            em_step(system, 0.01, noise_scale=0.0)
            assert system._noise.block is None
            em_step(system, 0.01)
            # one step of the block is shaped like the sites a step moves
            assert system._noise.block[:, 0].shape == system.moving.shape

    @pytest.mark.parametrize("noisy_before", [0, 1, 2])
    def test_noise_free_steps_draw_nothing(self, noisy_before, monkeypatch):
        # with V = 0 a step moves phi by the noise alone, so equal fields
        # after the next noisy step mean equal draws
        dom = discretize_domain(UNIT_BOX_1D, 10)
        budget = 8 * 3 * dom.n_interior * 3
        monkeypatch.setattr(dynamics, "NOISE_BLOCK_BYTES", budget, raising=False)
        psi = np.zeros(dom.n_sites)
        a = DirichletSystem(dom, FREE, psi, seed=12, replicas=3)
        b = DirichletSystem(dom, FREE, psi, seed=12, replicas=3)
        for _ in range(noisy_before):
            em_step(a, 0.01)
            em_step(b, 0.01)
        for _ in range(4):
            em_step(a, 0.01, noise_scale=0.0)
        assert np.array_equal(a.phi, b.phi)
        for _ in range(3):
            em_step(a, 0.01)
            em_step(b, 0.01)
            assert np.array_equal(a.phi, b.phi)
