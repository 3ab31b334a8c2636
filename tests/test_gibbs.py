import dataclasses
import tracemalloc

import numpy as np
import pytest

from heightlab import (
    UnmixedChains,
    batch_means,
    dlr_check,
    integrated_autocorr_time,
    make_cosine_perturbed,
    make_gaussian,
    make_sampler,
    make_split_bump,
    variance_sweep,
)
from heightlab import gibbs
from heightlab.gibbs import bond_statistics
from heightlab.dynamics import TiltedPeriodicSystem
from heightlab.lattice import TorusLattice
from heightlab.rng import seed_key, stream
from heightlab.surface import build_table, decompose_flux, grad_sigma

from oracles import (
    conditional_density_1d,
    density_moments,
    gaussian_bond_variance,
    gaussian_window_law,
    reference_mala_chain,
    window_ring,
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
        s.collect(300, {"e": lambda et, vp: et[0].mean(axis=(-2, -1))})
        assert 0.3 < s.acceptance_rate < 0.9

    def test_mean_gradient_components(self):
        # periodic part is exactly mean-free, so the tilted mean is u
        s = make_sampler(make_gaussian(), 8, (1.0, 0.0), seed=2)
        series = s.collect(500, {"m": lambda et, vp: (et[0] + 1.0).mean(axis=(-2, -1))})["m"]
        assert np.allclose(series, 1.0, atol=1e-12)

    def test_bond_variance_matches_fourier_sum(self):
        # exact invariance: no step-size bias to hide behind
        s = make_sampler(make_gaussian(), 8, (0.0, 0.0), seed=3)
        values, errors, _ = bond_statistics(s, 8000)
        for i in range(2):
            want = gaussian_bond_variance(8, 2, i)
            assert abs(values[0, i] - want) < 4 * errors[0, i]
            assert errors[0, i] < 0.01

    def test_vprime_mean_is_exact_for_quadratic(self):
        # grad sigma is the mean of V'; V' is linear, and the periodic part
        # cancels around each cycle
        g, ge = grad_sigma(make_gaussian(), 8, (0.7,), sweeps=400, seed=4)
        assert g[0] == pytest.approx(0.7, abs=1e-12)
        assert ge[0] <= 1e-12

    def test_identity2_at_zero_tilt(self):
        s = make_sampler(make_gaussian(), 8, (0.0, 0.0), seed=5)
        values, errors, _ = bond_statistics(s, 8000)
        want = 1.0 - 8.0**-2   # == sum_i Var[eta(e_i)], Fourier value
        assert want == pytest.approx(
            sum(gaussian_bond_variance(8, 2, i) for i in range(2)), abs=1e-12
        )
        assert abs(values[0, 2] - want) < 4 * errors[0, 2]

    def test_translation_invariance(self):
        s = make_sampler(make_gaussian(), 6, (0.0, 0.0), seed=6)
        obs = {
            "a": lambda et, vp: et[0][..., 0, 0] ** 2,
            "b": lambda et, vp: et[0][..., 3, 2] ** 2,
        }
        series = s.collect(6000, obs)
        ma, sa, _ = batch_means(series["a"])
        mb, sb, _ = batch_means(series["b"])
        assert abs(ma - mb) < 3.5 * np.hypot(sa, sb)


class TestCosineChain:
    def test_vprime_mean_vanishes_at_zero_tilt(self):
        pot = make_cosine_perturbed(0.5, 1.0)
        g, ge = grad_sigma(pot, 8, (0.0,), sweeps=6000, seed=8)
        assert abs(g[0]) < 3.5 * ge[0]

    def test_identity2_finite_size_value(self):
        # integration by parts gives u.grad sigma + 1 - N^-d for any V
        pot = make_cosine_perturbed(0.5, 1.0)
        s = make_sampler(pot, 8, (0.0, 0.0), seed=9)
        values, errors, _ = bond_statistics(s, 8000)
        assert abs(values[0, 2] - (1.0 - 8.0**-2)) < 4 * errors[0, 2]

    def test_odd_moments_vanish(self):
        pot = make_cosine_perturbed(0.8, 1.0)
        s = make_sampler(pot, 8, (0.0,), seed=10)
        series = s.collect(6000, {"m3": lambda et, vp: (et[0] ** 3).mean(axis=-1)})["m3"]
        m, se, _ = batch_means(series)
        assert abs(m) < 3.5 * se

    def test_error_shrinks_with_sweeps(self):
        pot = make_cosine_perturbed(0.5, 1.0)
        _, a, _ = bond_statistics(make_sampler(pot, 8, (0.0,), seed=11), 1500)
        _, b, _ = bond_statistics(make_sampler(pot, 8, (0.0,), seed=11), 12000)
        assert b[0, 0] < a[0, 0]


class TestVarianceSweep:
    def test_gaussian_grid_is_flat(self):
        grid = [(u1, u2) for u1 in (-1.0, 0.0, 1.0) for u2 in (-1.0, 0.0, 1.0)]
        sweep = variance_sweep(make_gaussian(), 6, grid, sweeps=2500, seed=13)
        lo = (sweep.values - 3.5 * sweep.stderr).max()
        hi = (sweep.values + 3.5 * sweep.stderr).min()
        assert lo <= hi or sweep.ratio < 1.1
        assert np.isfinite(sweep.values).all()

    def test_batch_equals_per_tilt_loop(self):
        pot = make_cosine_perturbed(0.5, 1.0)
        tilts = [(0.0,), (0.5,), (1.0,), (2.0,)]
        vs = variance_sweep(pot, 6, tilts, sweeps=192, seed=4)
        for j, u in enumerate(tilts):
            values, errors, _ = bond_statistics(make_sampler(pot, 6, u, seed=(4, j)), 192)
            assert (vs.values[j, 0], vs.stderr[j, 0]) == (values[0, 0], errors[0, 0])

    def test_scale_uniformity_at_zero_tilt(self):
        pot = make_cosine_perturbed(0.5, 1.0)
        a = variance_sweep(pot, 8, [(0.0,)], sweeps=5000, seed=14)
        b = variance_sweep(pot, 16, [(0.0,)], sweeps=5000, seed=15)
        gap = abs(a.values[0, 0] - b.values[0, 0])
        assert gap < 3.5 * np.hypot(a.stderr[0, 0], b.stderr[0, 0]) + 2.0 / 8**1


class TestDlr:
    def test_gaussian_conditional_moments(self):
        rep = dlr_check(
            make_gaussian(), (0.5,), window=1,
            n_samples=40000, chains=50, thin=2, burn=800, seed=16,
        )
        # conditional of the middle height is N((a+b)/2, 1/2)
        assert rep.var_quad == pytest.approx(0.5, abs=1e-6)
        assert abs(rep.mean_emp - rep.mean_quad) < 4 * rep.mean_stderr
        assert abs(rep.var_emp - 0.5) < 0.02
        assert rep.sup_distance < 0.05

    @staticmethod
    def _check_quadrature_against_oracle(pot):
        rep = dlr_check(
            pot, (0.3,), window=1,
            n_samples=30000, chains=50, thin=2, burn=800, seed=17,
        )
        left, right = rep.exterior
        grid = np.linspace(min(left, right) - 8, max(left, right) + 8, 8001)
        dens = conditional_density_1d(pot.v, left, right, grid)
        m, v = density_moments(dens, grid)
        assert rep.mean_quad == pytest.approx(m, abs=1e-5)
        assert rep.var_quad == pytest.approx(v, abs=1e-5)
        assert rep.sup_distance < 0.05

    def test_quadrature_agrees_with_independent_oracle(self):
        self._check_quadrature_against_oracle(make_cosine_perturbed(0.7, 1.0))

    @pytest.mark.parametrize(
        "pot", [make_cosine_perturbed(2.0, 1.0), make_split_bump()],
        ids=["cosine-a2", "split_bump"],
    )
    def test_quadrature_agrees_on_nonconvex_potential(self, pot):
        # V'' < 0 near 0 for both, so the conditional law is not log-concave
        self._check_quadrature_against_oracle(pot)

    def test_start_group_that_never_moves_raises(self):
        # a ring spread of 200 keeps every chain at its start for burn=200;
        # the typed error comes before any 0/0 density warning
        with pytest.raises(UnmixedChains, match=r"window 1: .*burn=200"):
            dlr_check(
                make_gaussian(), np.zeros(3), window=1,
                exterior=lambda ys: ys @ [1, 10, 100],
                burn=200, n_samples=2000, chains=20,
            )

    def test_nonconvex_conditional_law_in_two_dimensions(self):
        rep = dlr_check(
            make_cosine_perturbed(2.0, 1.0), (0.5, 0.0), window=1,
            n_samples=30000, chains=50, thin=2, burn=800, seed=20,
        )
        assert rep.sup_distance < 0.05
        assert abs(rep.mean_emp - rep.mean_quad) < 4 * rep.mean_stderr

    @pytest.mark.parametrize("d, width", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_gaussian_window_matches_exact_law(self, d, width):
        tilt = np.array([0.5, -0.25, 0.125][:d])

        def exterior(ys):
            return ys @ tilt + 0.4 * np.cos(3.0 * ys.sum(axis=1))

        mean, cov = gaussian_window_law(d, width, exterior)
        rep = dlr_check(
            make_gaussian(), tilt, window=width, exterior=exterior,
            n_samples=40000, chains=50, thin=2, burn=800, seed=21,
        )
        assert abs(rep.mean_emp - mean[0]) < 4 * rep.mean_stderr
        assert rep.var_emp == pytest.approx(cov[0, 0], rel=0.05)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_window_is_a_dirichlet_domain(self, d, width):
        dom = gibbs._window_domain(d, width)
        m = dom.n_interior
        assert m == width**d
        assert dom.n_layer == 2 * d * width ** (d - 1)
        window = np.indices((width,) * d).reshape(d, -1).T
        assert np.array_equal(dom.sites[:m], window)
        ring = window_ring(d, width)
        assert np.array_equal(dom.sites[m : m + dom.n_layer], ring)
        # the report lists the ring values in lexicographic site order

        def exterior(ys):
            return ys @ np.array([1.0, 0.31, 0.097][:d])  # distinct per site

        rep = dlr_check(
            make_gaussian(), np.zeros(d), window=width, exterior=exterior,
            n_samples=200, chains=10, thin=1, burn=200,
        )
        np.testing.assert_allclose(
            rep.exterior, exterior(ring.astype(float)), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("kw, message", [
        pytest.param({"bins": 0}, "bins must be at least 1, got 0", id="no-bin"),
        pytest.param({"burn": -5}, "burn must be at least 0, got -5", id="negative-burn"),
    ])
    def test_bad_counts_raise(self, kw, message):
        # no bin ended in an IndexError, and a negative burn ran no burn-in
        with pytest.raises(ValueError, match=message):
            dlr_check(make_gaussian(), (0.5,), n_samples=200, chains=10, **kw)

    def test_two_starts_agree(self):
        rep = dlr_check(
            make_cosine_perturbed(0.5, 1.0), (0.0,), window=1,
            n_samples=30000, chains=60, thin=2, burn=800, seed=18,
        )
        assert rep.two_start_distance < 0.08

    def test_window_width_two(self):
        rep = dlr_check(
            make_gaussian(), (0.0,), window=2,
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
        for j in range(n):
            if active is None or active[j]:
                phis[j].append(sys.phi[j].copy())
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
    """Per-sweep observables of the plain chain, the reference."""
    return {
        "vp0": lambda et: float(pot.vp(et[0] + tilt[0]).mean()),
        "sq": lambda et: float(np.square(et[-1]).mean()),
        "bonds": lambda et: np.stack(et),
    }


def _block_observables(pot, tilts):
    """``_observables`` of a block of records of every chain at once, plus
    the mean of the kept V'; one tilt per chain, (B, d)."""
    B, d = tilts.shape
    lat = tuple(range(-d, 0))
    u0 = tilts[:, 0].reshape((B,) + (1,) * d)
    return {
        "vp0": lambda et, vp: pot.vp(et[0] + u0).mean(axis=lat),
        "kept_vp0": lambda et, vp: vp[0].mean(axis=lat),
        "sq": lambda et, vp: np.square(et[-1]).mean(axis=lat),
        "bonds": lambda et, vp: np.moveaxis(et, 0, -d - 1),
    }


def _assert_chains_match(pot, N, tilt, seed, sweeps, kw):
    """Every chain of ``make_sampler(pot, N, tilt, seed=seed, **kw)`` is the
    plain chain on its own stream: the heights after each of its sweeps,
    its step, the pooled accept counts and each block observable's series.
    A (d,) tilt with one seed is the batch of one."""
    tilts = np.atleast_2d(np.asarray(tilt, dtype=float))
    seeds = [seed] if np.ndim(tilt) == 1 else seed
    s = make_sampler(pot, N, tilt, seed=seed, **kw)
    phis = _record_states(s)
    got = s.collect(sweeps, _block_observables(pot, tilts))
    accepts = proposals = 0
    for j, u in enumerate(tilts):
        obs = _observables(pot, u)
        obs["kept_vp0"] = obs["vp0"]
        want = _plain_chain(pot, N, u, seeds[j], sweeps, obs, **kw)
        assert len(phis[j]) == len(want["phis"])
        assert all(np.array_equal(a, b) for a, b in zip(phis[j], want["phis"]))
        assert s.step[j] == want["step"]
        for name, series in want["series"].items():
            assert np.array_equal(got[name][:, j], series)
        accepts += want["accepts"]
        proposals += want["proposals"]
    assert (s._accepts, s._proposals) == (accepts, proposals)


def _block_of(monkeypatch, k, record_bytes):
    """Make ``collect`` hand out k records per block, all of them when None."""
    size = 10**9 if k is None else k * record_bytes
    monkeypatch.setattr(gibbs, "RECORD_BLOCK_BYTES", size)


# k = 1, k dividing none of the record counts (120 here, 90 for
# batches), and every record in one block
BLOCKS = [pytest.param(1, id="k1"), pytest.param(7, id="k7"), pytest.param(None, id="k-all")]


def _pick(params, *ids):
    """The cases of ``params`` with these ids, for the block-size runs."""
    return [p for p in params if p.id in ids]


CHAINS = [
    pytest.param(COSINE, 8, (0.6,), {}, id="cosine-d1"),
    pytest.param(BUMP, 8, (0.4,), {}, id="bump-d1"),
    pytest.param(COSINE, 6, (1.0, -0.5), {}, id="cosine-d2"),
    pytest.param(BUMP, 6, (0.5, 0.0), {}, id="bump-d2"),
    pytest.param(COSINE, 4, (0.3, 0.0, -0.2), {}, id="cosine-d3"),
    pytest.param(BUMP, 4, (0.2, 0.1, 0.0), {}, id="bump-d3"),
    pytest.param(COSINE, 6, (0.5, 0.2), {"step": 0.08, "burn_in": 150},
                 id="cosine-d2-fixed-step"),
    pytest.param(COSINE, 8, (0.3,), {"burn_in": 100}, id="cosine-d1-fixed-burn"),
]


class TestMatchesPlainLoop:
    """The sampler reproduces the plain np.roll chain bit for bit."""

    @pytest.mark.parametrize("pot, N, tilt, kw", CHAINS)
    def test_states_counts_and_series(self, pot, N, tilt, kw):
        # the batch check on a batch of one, made from a (d,) tilt and one seed
        _assert_chains_match(pot, N, tilt, (N, len(tilt), len(kw)), 120, kw)

    @pytest.mark.parametrize("k", BLOCKS)
    @pytest.mark.parametrize("pot, N, tilt, kw", _pick(
        CHAINS, "cosine-d1", "cosine-d2", "bump-d3", "cosine-d2-fixed-step",
        "cosine-d1-fixed-burn",
    ))
    def test_any_record_block(self, pot, N, tilt, kw, k, monkeypatch):
        _block_of(monkeypatch, k, 2 * len(tilt) * N ** len(tilt) * 8)
        self.test_states_counts_and_series(pot, N, tilt, kw)

    def test_bond_statistics_of_a_batch_are_each_chain_alone(self):
        # every row of every chain, the identity row with its tilt included
        tilts, seeds = [(0.5, 0.0), (0.0, 0.5)], [0, 1]
        kw = {"step": 0.05, "burn_in": 0}
        batch = bond_statistics(make_sampler(COSINE, 4, tilts, seed=seeds, **kw), 64)
        assert batch[0].shape == (2, 3)
        for j in range(2):
            alone = bond_statistics(make_sampler(COSINE, 4, tilts[j], seed=seeds[j], **kw), 64)
            for got, want in zip(batch, alone):
                assert np.array_equal(got[j], want[0])

    def test_sampler_needs_a_chain_axis(self):
        # the system refuses a (d,) tilt, so every sampler has a chain axis
        with pytest.raises(ValueError, match=r"tilt of shape \(B, d\)"):
            TiltedPeriodicSystem(TorusLattice(4, 2), COSINE, (0.5, 0.0), seed=[0])

    @pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
    def test_invalid_step_raises(self, step):
        # step 0 would never move and report stderr 0; a negative step
        # makes NaN noise and rejects every move
        system = TiltedPeriodicSystem(TorusLattice(4, 2), COSINE, [(0.5, 0.0)], seed=[0])
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            gibbs.GibbsSampler(system, step=step)
        with pytest.raises(ValueError, match="step must be finite and > 0"):
            make_sampler(COSINE, 4, (0.5, 0.0), step=step)

    def test_negative_burn_in_raises(self):
        # it would run no burn-in at all
        with pytest.raises(ValueError, match="burn_in must be at least 0, got -3"):
            make_sampler(COSINE, 4, (0.5, 0.0), step=0.05, burn_in=-3)

    def test_too_few_records_raise(self):
        # two records make no batch means, which must not read as an estimate
        with pytest.raises(ValueError, match="need at least 32 samples, got 2"):
            grad_sigma(COSINE, 4, (0.5, 0.0), sweeps=2, step=0.05, burn_in=0)

    def test_tuning_rounds_change_the_step(self):
        pot, N, tilt = COSINE, 6, (1.0, -0.5)
        s = make_sampler(pot, N, tilt, seed=1)
        s.prepare()
        assert s.step[0] != (N * N) ** (-1.0 / 3.0) / pot.drift_lipschitz
        assert s.step[0] == _plain_chain(pot, N, tilt, 1, 0)["step"]

    @pytest.mark.parametrize("pot, u, kw", [
        pytest.param(COSINE, (0.5, 0.2), {}, id="cosine-d2"),
        pytest.param(BUMP, (0.7,), {}, id="bump-d1"),
        pytest.param(COSINE, (0.3, 0.0, -0.2), {"step": 0.05, "burn_in": 100},
                     id="cosine-d3-fixed-step"),
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
            mins[i] = np.minimum(mins[i], per_bond.min())  # a NaN sample stays
            maxs[i] = np.maximum(maxs[i], per_bond.max())
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

    @pytest.mark.parametrize("k", BLOCKS)
    @pytest.mark.parametrize("pot, u", [
        pytest.param(COSINE, (1.0, 0.0), id="cosine"),
        pytest.param(BUMP, (0.7,), id="bump-d1"),
    ])
    def test_decompose_flux_any_record_block(self, pot, u, k, monkeypatch):
        _block_of(monkeypatch, k, 2 * len(u) * 6 ** len(u) * 8)
        self.test_decompose_flux(pot, u)

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


BATCHES = [
    pytest.param(BUMP, 6, [(0.5, 0.0)], {}, id="B1-bump-d2"),
    pytest.param(COSINE, 8, [(0.0,), (0.6,), (1.5,)], {}, id="B3-cosine-d1"),
    pytest.param(BUMP, 6, [(1.0, -0.5), (0.0, 0.0), (0.5, 0.3)], {}, id="B3-bump-d2"),
    pytest.param(COSINE, 4, [(0.3, 0.0, -0.2), (0.0, 0.0, 0.0), (1.0, 0.5, 0.0)], {},
                 id="B3-cosine-d3"),
    pytest.param(COSINE, 4, [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)], {},
                 id="B9-cosine-d2"),
    pytest.param(BUMP, 4, [(0.2, 0.1, 0.0), (0.0, 0.0, 0.0), (0.6, -0.4, 0.3)],
                 {"step": 0.05, "burn_in": 100}, id="B3-bump-d3-fixed-step"),
    pytest.param(BUMP, 8, [(0.1 * j,) for j in range(9)],
                 {"step": 0.1, "burn_in": 60}, id="B9-bump-d1-fixed-step"),
    pytest.param(COSINE, 8, [(0.3,), (1.2,), (0.0,)], {"burn_in": 100},
                 id="B3-cosine-d1-fixed-burn"),
]


class TestBatchMatchesPlainLoop:
    """Each chain of a batch reproduces the plain chain on its own stream."""

    @pytest.mark.parametrize("pot, N, tilts, kw", BATCHES)
    def test_every_chain_every_sweep(self, pot, N, tilts, kw):
        B, d = np.shape(tilts)
        seeds = [(B, d, len(kw), j) for j in range(B)]
        _assert_chains_match(pot, N, tilts, seeds, 90, kw)

    @pytest.mark.parametrize("k", BLOCKS)
    @pytest.mark.parametrize("pot, N, tilts, kw", _pick(
        BATCHES, "B1-bump-d2", "B3-cosine-d1", "B3-bump-d3-fixed-step",
        "B9-bump-d1-fixed-step", "B3-cosine-d1-fixed-burn",
    ))
    def test_any_record_block(self, pot, N, tilts, kw, k, monkeypatch):
        B, d = np.shape(tilts)
        _block_of(monkeypatch, k, 2 * d * B * N**d * 8)
        self.test_every_chain_every_sweep(pot, N, tilts, kw)

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


class TestSweepWorkspace:
    """A sweep writes into the sampler's own arrays; a pass stays intact
    while it is current."""

    def test_steady_sweeps_allocate_only_the_bonds_and_v(self):
        # the Gaussian's V' returns the tilted bonds themselves, so beyond
        # the workspace a sweep holds the bonds, V's own temporaries and a
        # few (B,) arrays; the sampler's per-sweep heights, noise, residual
        # and pass arrays (about 10 lattice fields before) allocate nothing
        B, N = 16, 32
        pot = make_gaussian()
        s = make_sampler(pot, N, [(0.5, 0.0)] * B, step=0.05, burn_in=0,
                         seed=[(4, j) for j in range(B)])
        for _ in range(5):
            s._sweep()
        bonds = s._cur.diffs + s.system._tilts
        tracemalloc.start()
        try:
            pot.v(bonds)
            v_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                s._sweep()
            sweep_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sweep_peak <= bonds.nbytes + v_peak + 4096

    @pytest.mark.parametrize("tilts", [[(0.5, 0.0)], [(0.5, 0.0), (1.5, -1.0), (0.0, 0.3)]])
    def test_kept_pass_survives_rejected_proposals(self, tilts):
        # for the Gaussian V'(eta) = eta, and V' aliases the bonds.  At this
        # step every chain both accepts and rejects, and batches adopt some
        # rows only; a proposal, written in the other buffers, must leave
        # the kept pass as it was
        s = make_sampler(make_gaussian(), 4, tilts, step=0.15, burn_in=0,
                         seed=[(6, j) for j in range(len(tilts))])
        u_col = np.asarray(tilts).T.reshape(2, -1, 1, 1)
        moves = []
        for _ in range(200):
            moves.append(s._sweep())
            cur = s._cur
            assert np.array_equal(cur.vp, cur.diffs + u_col)
            fresh = s.system.bond_pass(s.system.phi)
            assert np.array_equal(cur.diffs, fresh.diffs)
            assert np.array_equal(cur.energy, fresh.energy)
        moves = np.array(moves)
        assert moves.any(axis=0).all() and not moves.all(axis=0).any()


def _counting(pot, calls, elements):
    """Copy of ``pot`` whose callables named in ``calls`` count their calls
    there and the elements they evaluate in ``elements``."""
    def counted(name):
        fn = getattr(pot, name)

        def f(x):
            calls[name] += 1
            elements[name] += np.size(x)
            return fn(x)
        return f
    return dataclasses.replace(pot, **{name: counted(name) for name in calls})


class TestOnePassPerProposal:
    """V and V' run once per pass on all axes stacked; the estimators read
    the kept pass, and their own potential calls run once per block."""

    @pytest.mark.parametrize("tilt", [(0.5,), (0.5, 0.0), (0.5, 0.0, 0.2)])
    def test_potential_calls_per_sweep(self, tilt):
        calls, elements = {"v": 0, "vp": 0}, {"v": 0, "vp": 0}
        s = make_sampler(_counting(COSINE, calls, elements), 4, tilt,
                         step=0.05, burn_in=1, seed=0)
        s.prepare()
        calls.update(v=0, vp=0)
        elements.update(v=0, vp=0)
        for _ in range(10):
            s._sweep()
        d = len(tilt)
        assert calls == {"v": 10, "vp": 10}
        bonds = 10 * d * 4**d
        assert elements == {"v": bonds, "vp": bonds}

    @pytest.mark.parametrize("tilt", [(0.5,), (0.5, 0.0), (0.5, 0.0, 0.2)])
    def test_burn_in_probes_read_the_pass(self, tilt, monkeypatch):
        # no extra burn-in: the first pass, then 1000 probe sweeps, each of
        # one pass with V and V' on all axes and no further potential call
        monkeypatch.setattr(gibbs, "integrated_autocorr_time", lambda x: 1.0)
        calls, elements = {"v": 0, "vp": 0}, {"v": 0, "vp": 0}
        s = make_sampler(_counting(COSINE, calls, elements), 4, tilt, step=0.05, seed=0)
        s.prepare()
        d = len(tilt)
        assert calls == {"v": 1001, "vp": 1001}
        assert elements == {"v": 1001 * d * 4**d, "vp": 1001 * d * 4**d}

    def test_grad_sigma_reads_the_kept_vprime(self):
        calls, elements = {"v": 0, "vp": 0}, {"v": 0, "vp": 0}
        grad_sigma(_counting(COSINE, calls, elements), 4, (0.5, 0.0), sweeps=64,
                   step=0.05, burn_in=0)
        assert calls == {"v": 65, "vp": 65}  # the first pass and one per sweep
        assert elements == {"v": 65 * 2 * 16, "vp": 65 * 2 * 16}

    def test_identity2_reads_the_kept_vprime(self):
        calls, elements = {"v": 0, "vp": 0}, {"v": 0, "vp": 0}
        s = make_sampler(_counting(COSINE, calls, elements), 4, (0.5, 0.0), step=0.05,
                         burn_in=0, seed=0)
        bond_statistics(s, 64)
        assert calls == {"v": 65, "vp": 65}  # the first pass and one per sweep
        assert elements == {"v": 65 * 2 * 16, "vp": 65 * 2 * 16}

    def test_decompose_flux_curvature_calls(self, monkeypatch):
        _block_of(monkeypatch, 5, 2 * 2 * 16 * 8)  # 64 records in 13 blocks
        calls, elements = {"v0pp": 0}, {"v0pp": 0}
        decompose_flux(_counting(BUMP, calls, elements), 4, (0.5, 0.0), sweeps=64,
                       step=0.05, burn_in=0)
        assert calls["v0pp"] == 13  # one V0'' call per block, all axes stacked
        assert elements["v0pp"] == 64 * 2 * 8 * 16  # every node, bond and sample

    def test_collect_reads_cached_differences(self, monkeypatch):
        # a record is the kept pass of its sweep: one bond pass per sweep,
        # for the proposal, and none to record the differences
        s = make_sampler(COSINE, 6, (0.5, 0.0), seed=0)
        s.prepare()
        calls = []
        inner = TiltedPeriodicSystem.bond_pass
        monkeypatch.setattr(
            TiltedPeriodicSystem, "bond_pass",
            lambda self, *a, **k: (calls.append(1), inner(self, *a, **k))[1],
        )
        s.collect(40, {"m": lambda et, vp: et[0].mean(axis=(-2, -1))})
        assert len(calls) == 40

    def test_observables_cannot_write_the_cache(self):
        for which in (0, 1):  # et, then vp
            s = make_sampler(COSINE, 6, (0.5, 0.0), step=0.05, burn_in=0, seed=0)

            def scribble(et, vp):
                (et, vp)[which][0][0, 0, 0] = 1.0
                return np.zeros(len(et[0]))

            with pytest.raises(ValueError, match="read-only"):
                s.collect(1, {"x": scribble})

    def test_observables_return_one_row_per_record(self):
        s = make_sampler(COSINE, 6, (0.5, 0.0), step=0.05, burn_in=0, seed=0)
        with pytest.raises(ValueError, match="block of 3 records"):
            s.collect(3, {"x": lambda et, vp: 0.0})
