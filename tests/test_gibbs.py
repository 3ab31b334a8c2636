import dataclasses

import numpy as np
import pytest

from heightlab import (
    batch_means,
    dlr_check,
    estimate_bond_variance,
    estimate_identity2,
    integrated_autocorr_time,
    make_cosine_perturbed,
    make_gaussian,
    make_sampler,
    make_split_bump,
    variance_sweep,
)
from heightlab import gibbs
from heightlab.dynamics import TiltedPeriodicSystem
from heightlab.rng import seed_key, stream
from heightlab.surface import build_table, decompose_flux, grad_sigma

from oracles import (
    conditional_density_1d,
    density_moments,
    gaussian_bond_variance,
    reference_mala_chain,
)


class TestBatchMeans:
    def test_iid_series(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=6400)
        mean, se, ess = batch_means(x)
        assert abs(mean) < 4 * se
        assert se == pytest.approx(1.0 / np.sqrt(6400), rel=0.35)
        assert ess > 3000

    def test_constant_series(self):
        # 500 samples truncate to 15 per batch x 32 batches = 480 kept
        mean, se, ess = batch_means(np.full(500, 2.5))
        assert mean == 2.5 and se == 0.0 and ess == 480

    def test_correlated_series_inflates_error(self):
        rng = np.random.default_rng(1)
        n, rho = 20000, 0.95
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + rng.normal() * np.sqrt(1 - rho**2)
        _, se, ess = batch_means(x)
        assert se > 2.0 / np.sqrt(n)   # far above the iid error
        assert ess < n / 10


class TestAutocorrTime:
    def test_iid_is_order_one(self):
        rng = np.random.default_rng(2)
        tau = integrated_autocorr_time(rng.normal(size=20000))
        assert 0.5 < tau < 2.0

    def test_ar1_matches_formula(self):
        rng = np.random.default_rng(3)
        n, rho = 200000, 0.9
        eps = rng.normal(size=n) * np.sqrt(1 - rho**2)
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + eps[i]
        tau = integrated_autocorr_time(x)
        want = (1 + rho) / (1 - rho)
        assert want / 1.5 < tau < want * 1.5


class TestMalaGaussian:
    def test_acceptance_in_band_after_tuning(self):
        # prepare() zeroes the counters, so rate is only defined after sweeps
        s = make_sampler(make_gaussian(), 8, (0.0, 0.0), seed=1)
        s.prepare()
        assert np.isnan(s.acceptance_rate)
        s.collect(300, {"e": lambda et: float(et[0].mean())})
        assert 0.3 < s.acceptance_rate < 0.9

    def test_mean_gradient_components(self):
        # periodic part is exactly mean-free, so the tilted mean is u
        s = make_sampler(make_gaussian(), 8, (1.0, 0.0), seed=2)
        series = s.collect(500, {"m": lambda et: float((et[0] + 1.0).mean())})["m"]
        assert np.allclose(series, 1.0, atol=1e-12)

    def test_bond_variance_matches_fourier_sum(self):
        # exact invariance: no step-size bias to hide behind
        s = make_sampler(make_gaussian(), 8, (0.0, 0.0), seed=3)
        rep = estimate_bond_variance(s, axis=0, sweeps=8000)
        want = gaussian_bond_variance(8, 2, 0)
        assert abs(rep.value - want) < 4 * rep.stderr
        assert rep.stderr < 0.01

    def test_vprime_mean_is_exact_for_quadratic(self):
        # grad sigma is the mean of V'; V' is linear, and the periodic part
        # cancels around each cycle
        g, ge = grad_sigma(make_gaussian(), 8, (0.7,), sweeps=400, seed=4)
        assert g[0] == pytest.approx(0.7, abs=1e-12)
        assert ge[0] <= 1e-12

    def test_identity2_at_zero_tilt(self):
        s = make_sampler(make_gaussian(), 8, (0.0, 0.0), seed=5)
        rep = estimate_identity2(s, sweeps=8000)
        want = 1.0 - 8.0**-2   # == sum_i Var[eta(e_i)], Fourier value
        assert want == pytest.approx(
            sum(gaussian_bond_variance(8, 2, i) for i in range(2)), abs=1e-12
        )
        assert abs(rep.value - want) < 4 * rep.stderr

    def test_translation_invariance(self):
        s = make_sampler(make_gaussian(), 6, (0.0, 0.0), seed=6)
        obs = {
            "a": lambda et: float(et[0][0, 0] ** 2),
            "b": lambda et: float(et[0][3, 2] ** 2),
        }
        series = s.collect(6000, obs)
        ma, sa, _ = batch_means(series["a"])
        mb, sb, _ = batch_means(series["b"])
        assert abs(ma - mb) < 3.5 * np.hypot(sa, sb)


class TestUla:
    def test_runs_and_lands_near_target(self):
        s = make_sampler(make_gaussian(), 8, (0.0,), kind="ula", seed=7)
        rep = estimate_bond_variance(s, axis=0, sweeps=6000)
        want = gaussian_bond_variance(8, 1, 0)
        # first-order discretization bias allowed on top of the MC error
        assert abs(rep.value - want) < 4 * rep.stderr + 0.05 * want


class TestCosineChain:
    def test_vprime_mean_vanishes_at_zero_tilt(self):
        pot = make_cosine_perturbed(0.5, 1.0)
        g, ge = grad_sigma(pot, 8, (0.0,), sweeps=6000, seed=8)
        assert abs(g[0]) < 3.5 * ge[0]

    def test_identity2_finite_size_value(self):
        # integration by parts gives u.grad sigma + 1 - N^-d for any V
        pot = make_cosine_perturbed(0.5, 1.0)
        s = make_sampler(pot, 8, (0.0, 0.0), seed=9)
        rep = estimate_identity2(s, sweeps=8000)
        assert abs(rep.value - (1.0 - 8.0**-2)) < 4 * rep.stderr

    def test_odd_moments_vanish(self):
        pot = make_cosine_perturbed(0.8, 1.0)
        s = make_sampler(pot, 8, (0.0,), seed=10)
        series = s.collect(6000, {"m3": lambda et: float((et[0] ** 3).mean())})["m3"]
        m, se, _ = batch_means(series)
        assert abs(m) < 3.5 * se

    def test_error_shrinks_with_sweeps(self):
        pot = make_cosine_perturbed(0.5, 1.0)
        a = estimate_bond_variance(
            make_sampler(pot, 8, (0.0,), seed=11), axis=0, sweeps=1500
        )
        b = estimate_bond_variance(
            make_sampler(pot, 8, (0.0,), seed=11), axis=0, sweeps=12000
        )
        assert b.stderr < a.stderr


class TestVarianceSweep:
    def test_gaussian_grid_is_flat(self):
        grid = [(u1, u2) for u1 in (-1.0, 0.0, 1.0) for u2 in (-1.0, 0.0, 1.0)]
        sweep = variance_sweep(make_gaussian(), 6, grid, sweeps=2500, seed=13)
        lo = (sweep.values - 3.5 * sweep.stderr).max()
        hi = (sweep.values + 3.5 * sweep.stderr).min()
        assert lo <= hi or sweep.ratio < 1.1
        assert np.isfinite(sweep.values).all()

    @pytest.mark.parametrize("kw", [{}, {"kind": "ula", "thin": 3}])
    def test_batch_equals_per_tilt_loop(self, kw):
        pot = make_cosine_perturbed(0.5, 1.0)
        tilts = [(0.0,), (0.5,), (1.0,), (2.0,)]
        vs = variance_sweep(pot, 6, tilts, sweeps=192, seed=4, **kw)
        for j, u in enumerate(tilts):
            rep = estimate_bond_variance(make_sampler(pot, 6, u, seed=(4, j), **kw), 0, 192)
            assert (vs.values[j, 0], vs.stderr[j, 0]) == (rep.value, rep.stderr)

    def test_scale_uniformity_at_zero_tilt(self):
        pot = make_cosine_perturbed(0.5, 1.0)
        a = variance_sweep(pot, 8, [(0.0,)], sweeps=5000, seed=14)
        b = variance_sweep(pot, 16, [(0.0,)], sweeps=5000, seed=15)
        gap = abs(a.values[0, 0] - b.values[0, 0])
        assert gap < 3.5 * np.hypot(a.stderr[0, 0], b.stderr[0, 0]) + 2.0 / 8**1


class TestDlr:
    def test_gaussian_conditional_moments(self):
        rep = dlr_check(
            make_gaussian(), 16, (0.5,), window=1,
            n_samples=40000, chains=50, thin=2, burn=800, seed=16,
        )
        # conditional of the middle height is N((a+b)/2, 1/2)
        assert rep.var_quad == pytest.approx(0.5, abs=1e-6)
        assert abs(rep.mean_emp - rep.mean_quad) < 4 * rep.mean_stderr
        assert abs(rep.var_emp - 0.5) < 0.02
        assert rep.sup_distance < 0.05

    def test_quadrature_agrees_with_independent_oracle(self):
        pot = make_cosine_perturbed(0.7, 1.0)
        rep = dlr_check(
            pot, 16, (0.3,), window=1,
            n_samples=30000, chains=50, thin=2, burn=800, seed=17,
        )
        left, right = rep.exterior
        grid = np.linspace(min(left, right) - 8, max(left, right) + 8, 8001)
        dens = conditional_density_1d(pot.v, left, right, grid)
        m, v = density_moments(dens, grid)
        assert rep.mean_quad == pytest.approx(m, abs=1e-5)
        assert rep.var_quad == pytest.approx(v, abs=1e-5)
        assert rep.sup_distance < 0.05

    def test_two_starts_agree(self):
        rep = dlr_check(
            make_cosine_perturbed(0.5, 1.0), 16, (0.0,), window=1,
            n_samples=30000, chains=60, thin=2, burn=800, seed=18,
        )
        assert rep.two_start_distance < 0.08

    def test_window_width_two(self):
        rep = dlr_check(
            make_gaussian(), 16, (0.0,), window=2,
            n_samples=20000, chains=40, thin=2, burn=600, seed=19,
        )
        assert rep.sup_distance is None
        assert rep.two_start_distance < 0.08


# ---------------------------------------------------------------------------
# bit identity with the plain chain, and one bond pass per proposal

COSINE = make_cosine_perturbed(0.2, 1.0)
BUMP = make_split_bump()


def _plain_chain(pot, N, tilt, seed, sweeps, observables=None, **kw):
    tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
    return reference_mala_chain(
        pot.v, pot.vp, tilt, np.zeros((N,) * len(tilt)), stream(*seed_key(seed), 0),
        sweeps, observables, lipschitz=pot.drift_lipschitz, **kw,
    )


def _record_states(sampler):
    """Per chain, a list that receives a copy of its heights after every
    sweep that chain makes; a chain waiting in lockstep records nothing."""
    sys = sampler.system
    n = len(sys.rngs)
    phis = [[] for _ in range(n)]
    inner = sampler._sweep

    def recorded(active=None):
        moved = inner(active)
        phi = sys.phi.reshape((n,) + sys.lattice.shape)
        for j in range(n):
            if active is None or active[j]:
                phis[j].append(phi[j].copy())
        return moved

    sampler._sweep = recorded
    return phis


def _plain_grad_sigma(pot, N, u, seed, sweeps, **kw):
    obs = {i: (lambda et, i=i: float(pot.vp(et[i] + u[i]).mean())) for i in range(len(u))}
    series = _plain_chain(pot, N, u, seed, sweeps, obs, **kw)["series"]
    vec, err = np.zeros(len(u)), np.zeros(len(u))
    for i in range(len(u)):
        vec[i], err[i], _ = batch_means(series[i])
    return vec, err


def _observables(pot, tilt):
    return {
        "vp0": lambda et: float(pot.vp(et[0] + tilt[0]).mean()),
        "sq": lambda et: float(np.square(et[-1]).mean()),
        "bonds": lambda et: np.stack(et),
    }


CHAINS = [
    pytest.param(COSINE, 8, (0.6,), {}, id="cosine-d1"),
    pytest.param(BUMP, 8, (0.4,), {}, id="bump-d1"),
    pytest.param(COSINE, 6, (1.0, -0.5), {}, id="cosine-d2"),
    pytest.param(BUMP, 6, (0.5, 0.0), {}, id="bump-d2"),
    pytest.param(COSINE, 4, (0.3, 0.0, -0.2), {}, id="cosine-d3"),
    pytest.param(BUMP, 4, (0.2, 0.1, 0.0), {}, id="bump-d3"),
    pytest.param(COSINE, 6, (0.5, 0.2), {"step": 0.08, "burn_in": 150, "thin": 3},
                 id="cosine-d2-fixed-step-thin3"),
    pytest.param(BUMP, 6, (0.4, 0.0), {"kind": "ula"}, id="bump-d2-ula"),
    pytest.param(COSINE, 8, (0.3,), {"kind": "ula", "burn_in": 100, "thin": 3},
                 id="cosine-d1-ula-fixed-burn-thin3"),
]


class TestMatchesPlainLoop:
    """The sampler reproduces the plain np.roll chain bit for bit."""

    @pytest.mark.parametrize("pot, N, tilt, kw", CHAINS)
    def test_states_counts_and_series(self, pot, N, tilt, kw):
        seed = (N, len(tilt), len(kw))
        s = make_sampler(pot, N, tilt, seed=seed, **kw)
        phis = _record_states(s)[0]
        got = s.collect(120, _observables(pot, tilt))
        want = _plain_chain(pot, N, tilt, seed, 120, _observables(pot, tilt), **kw)
        assert len(phis) == len(want["phis"])
        assert all(np.array_equal(a, b) for a, b in zip(phis, want["phis"]))
        assert s.step == want["step"]
        assert (s._accepts, s._proposals) == (want["accepts"], want["proposals"])
        for name, series in want["series"].items():
            assert np.array_equal(got[name], series)

    def test_tuning_rounds_change_the_step(self):
        pot, N, tilt = COSINE, 6, (1.0, -0.5)
        s = make_sampler(pot, N, tilt, seed=1)
        s.prepare()
        assert s.step != (N * N) ** (-1.0 / 3.0) / pot.drift_lipschitz
        assert s.step == _plain_chain(pot, N, tilt, 1, 0)["step"]

    @pytest.mark.parametrize("pot, u, kw", [
        pytest.param(COSINE, (0.5, 0.2), {}, id="cosine-d2"),
        pytest.param(BUMP, (0.7,), {}, id="bump-d1"),
        pytest.param(COSINE, (0.3, 0.0, -0.2), {"step": 0.05, "burn_in": 100, "thin": 3},
                     id="cosine-d3-fixed-step-thin3"),
        pytest.param(BUMP, (0.5, 0.2), {"kind": "ula"}, id="bump-d2-ula"),
    ])
    def test_grad_sigma(self, pot, u, kw):
        N = 4 if len(u) == 3 else 6
        got = grad_sigma(pot, N, u, sweeps=320, seed=7, **kw)
        want = _plain_grad_sigma(pot, N, u, 7, 320, **kw)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("pot, u", [
        pytest.param(COSINE, (1.0, 0.0), id="cosine"),
        pytest.param(BUMP, (0.7, -0.4), id="bump"),
    ])
    def test_decompose_flux(self, pot, u):
        u = np.asarray(u)
        d, nodes = len(u), 8
        x, w = np.polynomial.legendre.leggauss(nodes)
        lam, wl = (x + 1.0) / 2.0, w / 2.0
        mins, maxs = np.full(d, np.inf), np.full(d, -np.inf)

        def big_a(et, i):
            eta = et[i] + u[i]
            per_bond = sum(wl[m] * pot.v0pp(eta - lam[m] * u[i]) for m in range(nodes))
            mins[i] = min(mins[i], float(per_bond.min()))
            maxs[i] = max(maxs[i], float(per_bond.max()))
            return float(per_bond.mean())

        def small_a(et, i):
            eta = et[i] + u[i]
            return float(pot.v0p(eta - u[i]).mean() + pot.gp(eta).mean())

        obs = {}
        for i in range(d):
            obs[f"A{i}"] = lambda et, i=i: big_a(et, i)
            obs[f"a{i}"] = lambda et, i=i: small_a(et, i)
        series = _plain_chain(pot, 6, u, 3, 320, obs)["series"]
        dec = decompose_flux(pot, 6, u, sweeps=320, seed=3)
        for i in range(d):
            assert (dec.A[i], dec.A_err[i], dec.a[i], dec.a_err[i]) == (
                batch_means(series[f"A{i}"])[:2] + batch_means(series[f"a{i}"])[:2]
            )
        assert np.array_equal(dec.A_sample_min, mins)
        assert np.array_equal(dec.A_sample_max, maxs)

    def test_build_table(self):
        axes = [np.array([-0.5, 0.0, 0.5])] * 2
        tab = build_table(COSINE, 4, axes, sweeps=200, seed=5)
        idx = np.indices((3, 3)).reshape(2, -1).T
        for j, (k, m) in enumerate(idx):
            u = np.array([axes[0][k], axes[1][m]])
            vec, err = _plain_grad_sigma(COSINE, 4, u, tuple(seed_key(5)) + (j,), 200)
            assert np.array_equal(tab.dsigma[k, m], vec)
            assert np.array_equal(tab.dsigma_err[k, m], err)

    def test_variance_sweep(self):
        tilts = np.array([(0.0, 0.0), (1.0, -0.5)])
        vs = variance_sweep(BUMP, 6, tilts, sweeps=320, seed=3)
        for j, u in enumerate(tilts):
            obs = {i: (lambda et, i=i: float(np.square(et[i]).mean())) for i in range(2)}
            series = _plain_chain(BUMP, 6, u, tuple(seed_key(3)) + (j,), 320, obs)["series"]
            for i in range(2):
                assert (vs.values[j, i], vs.stderr[j, i]) == batch_means(series[i])[:2]


# ---------------------------------------------------------------------------
# batches: every chain is the plain chain on its own stream


def _batch_observables(pot, tilts, sampler):
    """``_observables`` of every chain at once, plus the mean of the kept V'."""
    d = tilts.shape[1]
    axes = tuple(range(1, d + 1))
    col = tilts[:, 0].reshape((-1,) + (1,) * d)
    return {
        "vp0": lambda et: pot.vp(et[0] + col).mean(axis=axes),
        "kept_vp0": lambda et: sampler.vprime[0].mean(axis=axes),
        "sq": lambda et: np.square(et[-1]).mean(axis=axes),
        "bonds": lambda et: np.stack(et, axis=1),
    }


BATCHES = [
    pytest.param(BUMP, 6, [(0.5, 0.0)], {}, id="B1-bump-d2"),
    pytest.param(COSINE, 8, [(0.0,), (0.6,), (1.5,)], {}, id="B3-cosine-d1"),
    pytest.param(BUMP, 6, [(1.0, -0.5), (0.0, 0.0), (0.5, 0.3)], {}, id="B3-bump-d2"),
    pytest.param(COSINE, 4, [(0.3, 0.0, -0.2), (0.0, 0.0, 0.0), (1.0, 0.5, 0.0)], {},
                 id="B3-cosine-d3"),
    pytest.param(COSINE, 4, [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)], {},
                 id="B9-cosine-d2"),
    pytest.param(BUMP, 4, [(0.2, 0.1, 0.0), (0.0, 0.0, 0.0), (0.6, -0.4, 0.3)],
                 {"step": 0.05, "burn_in": 100, "thin": 3}, id="B3-bump-d3-fixed-step-thin3"),
    pytest.param(BUMP, 8, [(0.1 * j,) for j in range(9)],
                 {"step": 0.1, "burn_in": 60, "thin": 3}, id="B9-bump-d1-fixed-step-thin3"),
    pytest.param(BUMP, 6, [(0.4, 0.0), (0.0, 0.8), (-0.3, 0.2)], {"kind": "ula"},
                 id="B3-bump-d2-ula"),
    pytest.param(COSINE, 8, [(0.3,), (1.2,), (0.0,)], {"kind": "ula", "burn_in": 100, "thin": 3},
                 id="B3-cosine-d1-ula-fixed-burn-thin3"),
]


class TestBatchMatchesPlainLoop:
    """Each chain of a batch reproduces the plain chain on its own stream."""

    @pytest.mark.parametrize("pot, N, tilts, kw", BATCHES)
    def test_every_chain_every_sweep(self, pot, N, tilts, kw):
        tilts = np.asarray(tilts, dtype=float)
        B, d = tilts.shape
        seeds = [(B, d, len(kw), j) for j in range(B)]
        s = make_sampler(pot, N, tilts, seed=seeds, **kw)
        phis = _record_states(s)
        got = s.collect(90, _batch_observables(pot, tilts, s))
        accepts = proposals = 0
        for j in range(B):
            obs = _observables(pot, tilts[j])
            obs["kept_vp0"] = obs["vp0"]
            want = _plain_chain(pot, N, tilts[j], seeds[j], 90, obs, **kw)
            assert len(phis[j]) == len(want["phis"])
            assert all(np.array_equal(a, b) for a, b in zip(phis[j], want["phis"]))
            assert s.step[j] == want["step"]
            for name, series in want["series"].items():
                assert np.array_equal(got[name][:, j], series)
            accepts += want["accepts"]
            proposals += want["proposals"]
        assert (s._accepts, s._proposals) == (accepts, proposals)

    @pytest.mark.parametrize("kw", [
        pytest.param({"burn_in": 40}, id="tuning"),
        pytest.param({"step": 0.05}, id="adaptive-burn-in"),
    ])
    def test_waiting_chains_draw_nothing(self, kw, monkeypatch):
        # chain-dependent IACTs in [100, 130) give each chain its own extra
        # burn-in; the plain chains read the same stand-in
        monkeypatch.setattr(
            gibbs, "integrated_autocorr_time",
            lambda x: 100.0 + float(np.sum(x) * 1e3 % 30.0),
        )
        tilts = np.array([(0.0, 0.0), (1.0, -0.5), (0.5, 0.5), (1.5, 0.0)])
        seeds = [(21, j) for j in range(len(tilts))]
        s = make_sampler(BUMP, 4, tilts, seed=seeds, **kw)
        phis = _record_states(s)
        s.prepare()
        for j, u in enumerate(tilts):
            rng = stream(*seed_key(seeds[j]), 0)
            want = reference_mala_chain(
                BUMP.v, BUMP.vp, u, np.zeros((4, 4)), rng, 0,
                lipschitz=BUMP.drift_lipschitz, **kw,
            )
            # both streams stand at the same draw
            assert np.array_equal(s.system.rngs[j].random(8), rng.random(8))
            assert all(np.array_equal(a, b) for a, b in zip(phis[j], want["phis"]))
            assert len(phis[j]) == len(want["phis"])
        # the chains made different numbers of sweeps, so some waited
        assert len({len(p) for p in phis}) > 1


def _counting(pot, counts):
    """Copy of ``pot`` whose callables named in ``counts`` count their calls."""
    def counted(name):
        fn = getattr(pot, name)
        return lambda x: (counts.__setitem__(name, counts[name] + 1), fn(x))[1]
    return dataclasses.replace(pot, **{name: counted(name) for name in counts})


class TestOnePassPerProposal:
    @pytest.mark.parametrize("tilt", [(0.5,), (0.5, 0.0), (0.5, 0.0, 0.2)])
    @pytest.mark.parametrize("kind", ["mala", "ula"])
    def test_potential_calls_per_sweep(self, tilt, kind):
        counts = {"v": 0, "vp": 0}
        s = make_sampler(_counting(COSINE, counts), 4, tilt, kind=kind, step=0.05,
                         burn_in=1, seed=0)
        s.prepare()
        counts.update(v=0, vp=0)
        for _ in range(10):
            s._sweep()
        d = len(tilt)
        # ULA needs no energy, so its pass evaluates V' only
        assert counts == {"v": 10 * d if kind == "mala" else 0, "vp": 10 * d}

    @pytest.mark.parametrize("tilt", [(0.5,), (0.5, 0.0), (0.5, 0.0, 0.2)])
    @pytest.mark.parametrize("kind", ["mala", "ula"])
    def test_burn_in_probes_read_the_pass(self, tilt, kind, monkeypatch):
        # no extra burn-in: the first pass, then 1000 probe sweeps, each of
        # one pass with V and V' on every axis and no further potential call
        monkeypatch.setattr(gibbs, "integrated_autocorr_time", lambda x: 1.0)
        counts = {"v": 0, "vp": 0}
        s = make_sampler(_counting(COSINE, counts), 4, tilt, kind=kind, step=0.05, seed=0)
        s.prepare()
        d = len(tilt)
        assert counts == {"v": 1001 * d, "vp": 1001 * d}

    def test_grad_sigma_reads_the_kept_vprime(self):
        counts = {"v": 0, "vp": 0}
        grad_sigma(_counting(COSINE, counts), 4, (0.5, 0.0), sweeps=64, step=0.05, burn_in=0)
        assert counts == {"v": 65 * 2, "vp": 65 * 2}  # the first pass and one per sweep

    def test_identity2_reads_the_kept_vprime(self):
        counts = {"v": 0, "vp": 0}
        s = make_sampler(_counting(COSINE, counts), 4, (0.5, 0.0), step=0.05,
                         burn_in=0, seed=0)
        estimate_identity2(s, 64)
        assert counts == {"v": 65 * 2, "vp": 65 * 2}  # the first pass and one per sweep

    def test_decompose_flux_curvature_calls(self):
        counts = {"v0pp": 0}
        decompose_flux(_counting(BUMP, counts), 4, (0.5, 0.0), sweeps=64,
                       step=0.05, burn_in=0)
        assert counts["v0pp"] == 64 * 2  # one V0'' call per axis and sample

    def test_collect_reads_cached_differences(self, monkeypatch):
        calls = []
        inner = TiltedPeriodicSystem.eta_tilde
        monkeypatch.setattr(
            TiltedPeriodicSystem, "eta_tilde",
            lambda self: (calls.append(1), inner(self))[1],
        )
        s = make_sampler(COSINE, 6, (0.5, 0.0), seed=0)
        s.collect(40, {"m": lambda et: float(et[0].mean())})
        assert calls == []

    def test_observables_cannot_write_the_cache(self):
        s = make_sampler(COSINE, 6, (0.5, 0.0), step=0.05, burn_in=0, seed=0)

        def scribble(et):
            et[0][0, 0] = 1.0
            return 0.0

        with pytest.raises(ValueError):
            s.collect(1, {"x": scribble})
