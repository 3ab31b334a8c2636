import numpy as np
import pytest

from heightlab import dynamics
from heightlab import (
    DirichletSystem,
    DomainSpec,
    HeightField,
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
from heightlab.dynamics import MacroscopicField, domain_cell_weights, drift
from heightlab.rng import seed_key, stream

from oracles import (
    PlainDirichlet,
    em_gaussian_bond_variance,
    fd_gradient,
    hamiltonian_domain,
    hamiltonian_torus,
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
        assert step_cap(pot, 2) == pytest.approx(0.1 / (2 * 2 * 2.0))

    def test_free_potential_uncapped(self):
        assert step_cap(FREE, 1) == np.inf

    def test_step_too_large(self):
        lat = TorusLattice(4, 1)
        sys = TiltedPeriodicSystem(lat, make_gaussian(), (0.0,), seed=0)
        with pytest.raises(StepTooLarge):
            em_step(sys, 1.0)


class TestDriftAgainstEnergy:
    def test_torus_drift_is_minus_energy_gradient(self):
        pot = make_cosine_perturbed(0.8, 1.3)
        lat = TorusLattice(5, 2)
        rng = np.random.default_rng(11)
        phi = rng.normal(size=lat.shape)
        sys = TiltedPeriodicSystem(lat, pot, (0.4, -0.2), phi=phi)
        fn = lambda p: hamiltonian_torus(pot.v, p, (0.4, -0.2))
        want = -fd_gradient(fn, phi, h=1e-6)
        assert np.max(np.abs(sys.drift() - want)) < 1e-7

    def test_domain_drift_is_minus_energy_gradient(self):
        pot = make_split_bump()
        dom = discretize_domain(UNIT_BOX_1D, 14)
        rng = np.random.default_rng(12)
        psi = rng.normal(size=dom.n_sites)
        sys = DirichletSystem(dom, pot, psi, seed=0)
        heads = dom.bonds_closure[:, 0]
        tails = dom.bonds_closure[:, 1]

        def fn(interior):
            full = sys.phi.copy()
            full[: dom.n_interior] = interior
            return hamiltonian_domain(pot.v, full, heads, tails)

        want = -fd_gradient(fn, sys.phi[: dom.n_interior].copy(), h=1e-6)
        assert np.max(np.abs(sys.drift_interior() - want)) < 1e-7

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("pot", [make_cosine_perturbed(0.8, 1.3), make_split_bump()])
    def test_bond_pass_matches_roll_form(self, d, pot):
        # per replica: energy, gradient, differences, V' and V sums of the
        # np.roll passes
        lat = TorusLattice(5 if d < 3 else 3, d)
        tilt = np.linspace(-0.4, 0.7, d)
        rng = np.random.default_rng(d)
        phi = rng.normal(size=(4,) + lat.shape)
        sys = TiltedPeriodicSystem(lat, pot, tilt, phi=phi)
        b = sys.bond_pass(phi)
        for r in range(len(phi)):
            want_grad = np.zeros(lat.shape)
            for i in range(d):
                bond = np.roll(phi[r], -1, axis=i) - phi[r] + tilt[i]
                a = pot.vp(bond)
                want_grad += np.roll(a, 1, axis=i) - a
                assert np.array_equal(b.diffs[i][r], np.roll(phi[r], -1, axis=i) - phi[r])
                assert np.array_equal(b.vp[i][r], a)
                assert b.v_sums[i][r] == pot.v(bond).sum()
            assert b.energy[r] == hamiltonian_torus(pot.v, phi[r], tilt)
            assert np.array_equal(b.grad[r], want_grad)
        assert np.array_equal(sys.energy(), b.energy)
        assert np.array_equal(sys.drift(), -b.grad)
        assert all(np.array_equal(x, y) for x, y in zip(sys.eta_tilde(), b.diffs))
        skipped = sys.bond_pass(phi, with_energy=False)
        assert skipped.energy is None and skipped.v_sums is None
        assert np.array_equal(skipped.grad, b.grad)

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
            single = TiltedPeriodicSystem(lat, pot, tilts[j], phi=phi[j])
            one = single.bond_pass(phi[j])
            assert b.energy[j] == one.energy
            assert np.array_equal(b.grad[j], one.grad)
            for name in ("diffs", "vp", "v_sums"):
                assert all(
                    np.array_equal(x[j], y) for x, y in zip(getattr(b, name), getattr(one, name))
                )
        for seed in ([0, 1], 0):
            with pytest.raises(ValueError):
                TiltedPeriodicSystem(lat, pot, tilts, seed=seed)

    def test_pointwise_reference_matches_vectorized(self):
        pot = make_cosine_perturbed(0.4, 2.0)
        lat = TorusLattice(6, 2)
        rng = np.random.default_rng(13)
        f = HeightField(lat, rng.normal(size=lat.shape))
        sys = TiltedPeriodicSystem(lat, pot, (0.0, 0.0), phi=f.values)
        vec = sys.drift()
        for site in [(0, 0), (3, 4), (5, 5)]:
            assert drift(pot, f, site) == pytest.approx(vec[site], abs=1e-12)


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
        assert np.array_equal(sys.phi[dom.n_interior:], psi[dom.n_interior:])

    def test_nonfinite_detected(self):
        lat = TorusLattice(4, 1)
        sys = TiltedPeriodicSystem(lat, make_gaussian(), (0.0,))
        sys.phi[0] = 1e308
        with np.errstate(over="ignore"), pytest.raises(NonFinite):
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
        assert np.array_equal(batch.phi[0], serial.phi)
        assert not np.array_equal(batch.phi[1], batch.phi[2])

    def test_free_field_spreads_like_brownian_motion(self):
        # with V = 0 each interior height is a pure Brownian motion,
        # so Var = 2 n dt after n steps
        dom = discretize_domain(UNIT_BOX_1D, 10)
        psi = np.zeros(dom.n_sites)
        sys = DirichletSystem(dom, FREE, psi, seed=7, replicas=10000)
        n, dt = 5, 0.01
        for _ in range(n):
            em_step(sys, dt)
        var = sys.phi[:, : dom.n_interior].var(axis=0, ddof=1)
        want = 2 * n * dt
        se = want * np.sqrt(2.0 / (10000 - 1))
        assert np.all(np.abs(var - want) < 4 * se)

    def test_gaussian_chain_reaches_em_stationary_variance(self):
        # exact discrete-time oracle: AR(1) variance per Fourier mode
        N, dt, reps, steps = 8, 0.05, 3000, 1500
        lat = TorusLattice(N, 1)
        sys = TiltedPeriodicSystem(
            lat, make_gaussian(), (0.0,), phi=np.zeros((reps, N)), seed=3
        )
        for _ in range(steps):
            em_step(sys, dt)
        per_rep = np.square(sys.eta_tilde()[0]).mean(axis=1)
        got = per_rep.mean()
        se = per_rep.std(ddof=1) / np.sqrt(reps)
        want = em_gaussian_bond_variance(N, 1, 0, dt)
        assert abs(got - want) < 4 * se


class TestMacroscopic:
    def test_mean_gradient_is_exact_tilt(self):
        lat = TorusLattice(6, 2)
        rng = np.random.default_rng(8)
        sys = TiltedPeriodicSystem(
            lat, make_gaussian(), (0.9, -0.3), phi=rng.normal(size=lat.shape)
        )
        # zero winding: the untilted differences average to 0 on every axis
        got = [e.mean() + u for e, u in zip(sys.eta_tilde(), sys.tilt)]
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
        w = domain_cell_weights(UNIT_BOX_1D, 16, dom.sites)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        field = MacroscopicField(16, dom.sites, np.ones(dom.n_sites), UNIT_BOX_1D)
        assert field.l2_norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_ball_cell_weights_close_to_area(self):
        spec = DomainSpec.ball(0.4, center=(0.0, 0.0))
        dom = discretize_domain(spec, 12)
        w = domain_cell_weights(spec, 12, dom.sites)
        assert w.sum() == pytest.approx(np.pi * 0.4**2, rel=2e-3)


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


def _system_and_plain(spec, N, pot, seed, replicas=None):
    """A DirichletSystem with random data and its plain-loop twin."""
    dom = discretize_domain(spec, N)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=dom.n_sites)
    phi0 = psi + rng.normal(size=dom.n_sites)
    system = DirichletSystem(dom, pot, psi, phi0=phi0, seed=seed, replicas=replicas)
    n_rep = 1 if system.phi.ndim == 1 else system.phi.shape[0]
    rngs = [stream(*seed_key(seed), r) for r in range(n_rep)]
    plain = PlainDirichlet(
        system.phi, psi, dom.n_interior, dom.neighbors, dom.bonds_closure, pot.vp, rngs
    )
    return system, plain


# (spec, N, potential, replicas); the d = 4 box sums 8 neighbour terms
PLAIN_LOOP_CASES = {
    "box1d": (UNIT_BOX_1D, 12, make_gaussian(), 5),
    "box2d-cosine": (DomainSpec.box((1.0, 1.0)), 8, make_cosine_perturbed(0.6, 1.5), 3),
    "ball-split-bump": (DomainSpec.ball(0.4, center=(0.0, 0.0)), 10, make_split_bump(), 7),
    "single-replica": (UNIT_BOX_1D, 9, make_cosine_perturbed(0.8, 1.0), None),
    "box3d": (DomainSpec.box((1.0,) * 3), 8, make_cosine_perturbed(0.3, 1.0), 2),
    "box4d": (DomainSpec.box((1.0,) * 4), 7, make_cosine_perturbed(0.3, 1.0), 2),
}


class TestMatchesPlainLoop:
    """Bit-identity of the block-noise Dirichlet path with the plain loop."""

    @pytest.mark.parametrize("case", sorted(PLAIN_LOOP_CASES))
    @pytest.mark.parametrize("block_steps", [1, 3, None])
    def test_phi_after_every_step(self, case, block_steps, monkeypatch):
        spec, N, pot, replicas = PLAIN_LOOP_CASES[case]
        dom = discretize_domain(spec, N)
        if block_steps is not None:
            # K steps per block plus a little slack, so 11 steps end mid-block
            budget = 8 * (replicas or 1) * dom.n_interior * block_steps + 7
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
        budget = 8 * (replicas or 1) * dom.n_interior * 4 + 1
        monkeypatch.setattr(dynamics, "NOISE_BLOCK_BYTES", budget, raising=False)
        system, plain = _system_and_plain(spec, N, pot, seed=9, replicas=replicas)
        dt = 0.9 * step_cap(pot, spec.d)
        times = (0.0021, 0.005, 0.0061, 0.011)   # uneven checkpoint spans
        got, want = [], []
        trace = run_dirichlet(
            system, dt, times, collect=lambda t, s: got.append((t, s.phi.copy()))
        )
        weights = domain_cell_weights(spec, N, dom.sites)
        ref = reference_dirichlet_run(
            plain, N, weights, dt, times, collect=lambda t, phi: want.append((t, phi.copy()))
        )
        for key in ("times", "h_norm_sq", "dirichlet_integral", "initial_norm_sq"):
            assert np.array_equal(getattr(trace, key), ref[key]), key
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert np.array_equal(a, b)


class TestNoiseBlock:
    def test_many_replicas_hold_at_most_one_step_or_the_budget(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        system = DirichletSystem(dom, FREE, np.zeros(dom.n_sites), seed=1, replicas=10000)
        em_step(system, 0.01)
        one_step = 8 * 10000 * dom.n_interior
        assert system._block.nbytes <= max(one_step, dynamics.NOISE_BLOCK_BYTES)

    def test_small_system_stays_within_the_budget(self):
        dom = discretize_domain(UNIT_BOX_1D, 10)
        system = DirichletSystem(dom, FREE, np.zeros(dom.n_sites), seed=1, replicas=4)
        assert system._block.nbytes <= dynamics.NOISE_BLOCK_BYTES
        k = dynamics.NOISE_BLOCK_BYTES // (8 * 4 * dom.n_interior)
        assert system._block.shape == (4, k, dom.n_interior)

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
