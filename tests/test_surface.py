"""Surface tension estimators, convexity probes, flux split, and tables.

The Gaussian potential makes most of these estimators exact per sample
(the gradient observable is linear in the field), which pins values to
machine precision.  The cosine and bump potentials exercise the
statistical paths with fixed seeds so every assertion is reproducible.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import reference_integrate_paths

from heightlab import (
    make_cosine_perturbed,
    make_gaussian,
    make_split_bump,
    split_potential,
)
from heightlab.io import write_csv
from heightlab.potential import bump_callables
from heightlab.surface import (
    SurfaceTensionTable,
    _integrate_paths,
    build_table,
    convexity_probe,
    decompose_flux,
    grad_sigma,
    sigma,
)


class TestGradSigma:
    def test_gaussian_gradient_is_tilt(self):
        # E[V'(eta)] = E[eta] = u holds sample by sample, so zero variance
        g, ge = grad_sigma(make_gaussian(), 8, (0.7, -0.3), sweeps=300, seed=0)
        assert np.allclose(g, [0.7, -0.3], atol=1e-12)
        assert np.all(ge < 1e-12)


class TestSigma:
    def test_gaussian_value_is_half_norm_squared(self):
        est = sigma(make_gaussian(), 8, (1.0, 0.0), nodes=6, sweeps=300, seed=3)
        assert abs(est.value - 0.5) < 1e-12
        assert est.stderr < 1e-12
        # integrand u . grad(s u) = s |u|^2 is linear in s
        assert np.allclose(est.node_values, est.nodes, atol=1e-12)

    def test_zero_tilt_short_circuits(self):
        est = sigma(make_gaussian(), 8, (0.0, 0.0), seed=0)
        assert est.value == 0.0 and est.stderr == 0.0
        assert not est.node_values.any()

    def test_batch_equals_per_node_loop(self):
        # node j is grad_sigma's chain at s_j u, seeded (*seed, j)
        pot, u, nodes = make_split_bump(), np.array([0.6, -0.3]), 4
        est = sigma(pot, 4, u, nodes=nodes, sweeps=160, seed=3)
        s = (np.polynomial.legendre.leggauss(nodes)[0] + 1.0) / 2.0
        for j in range(nodes):
            g, ge = grad_sigma(pot, 4, s[j] * u, sweeps=160, seed=(3, j))
            assert est.node_values[j] == float(u @ g)
            assert est.node_stderr[j] == float(np.sqrt(np.sum(u**2 * ge**2)))

    def test_error_budget_sums(self):
        est = sigma(make_cosine_perturbed(0.3, 1.0), 8, (0.5,), nodes=4,
                    sweeps=400, seed=1)
        assert est.stderr == est.mc_error + est.quad_error
        assert est.mc_error > 0

    def test_cosine_gradient_consistent_with_finite_difference(self):
        # independent chains; the 3 sigma band also absorbs the O(h^2)
        # truncation of the centered quotient
        pot = make_cosine_perturbed(0.5, 1.0)
        g, ge = grad_sigma(pot, 8, (0.4,), sweeps=4000, seed=5)
        sp = sigma(pot, 8, (0.5,), nodes=6, sweeps=3000, seed=6)
        sm = sigma(pot, 8, (0.3,), nodes=6, sweeps=3000, seed=7)
        fd = (sp.value - sm.value) / 0.2
        se = np.hypot(sp.stderr, sm.stderr) / 0.2
        assert abs(g[0] - fd) < 3 * np.hypot(ge[0], se)


class TestConvexityProbe:
    def test_gaussian_quotients_are_unity(self):
        pot = make_gaussian()

        def provider(u):
            return grad_sigma(pot, 8, u, sweeps=200, seed=4)

        pairs = [((1.0, 0.0), (0.0, 0.0)), ((1.0, 1.0), (-1.0, 0.5))]
        rep = convexity_probe(provider, pairs)
        assert np.allclose(rep.quotients, 1.0, atol=1e-9)
        assert abs(rep.c1_hat - 1.0) < 1e-9
        assert abs(rep.c2_hat - 1.0) < 1e-9
        assert not rep.any_nonpositive

    def test_each_distinct_tilt_queried_once(self):
        calls = []

        def provider(u):
            calls.append(tuple(u))
            return np.asarray(u, dtype=float), np.zeros(len(u))

        pairs = [((1.0,), (0.0,)), ((1.0,), (2.0,))]
        convexity_probe(provider, pairs)
        assert len(calls) == 3

    def test_identical_tilts_rejected(self):
        def provider(u):
            return np.asarray(u, dtype=float), np.zeros(len(u))

        with pytest.raises(ValueError):
            convexity_probe(provider, [((1.0,), (1.0,))])

    def test_flags_monotonicity_failure(self):
        def provider(u):
            return -np.asarray(u, dtype=float), np.zeros(len(u))

        rep = convexity_probe(provider, [((1.0,), (0.0,))])
        assert rep.any_nonpositive
        assert rep.c1_hat == -1.0


class TestFluxDecomposition:
    def test_gaussian_split_is_identity(self):
        fd = decompose_flux(make_gaussian(), 8, (0.6, -0.4), sweeps=400, seed=2)
        assert np.allclose(fd.A, 1.0, atol=1e-12)
        assert np.all(fd.A_err < 1e-12)
        assert np.allclose(fd.A_sample_min, 1.0) and np.allclose(fd.A_sample_max, 1.0)
        assert fd.samples_in_bounds
        assert np.all(np.abs(fd.a) < 3 * fd.a_err + 1e-12)
        val, err = fd.reconstruct()
        assert np.allclose(err, fd.a_err, atol=1e-15)

    def test_cosine_reconstructs_gradient_exactly_on_shared_chain(self):
        # quadratic convex part: the segment quadrature is exact, so the
        # reconstruction agrees with the gradient sample by sample
        pot = make_cosine_perturbed(0.5, 1.0)
        u = (0.4, -0.2)
        g, _ = grad_sigma(pot, 8, u, sweeps=800, seed=11)
        fd = decompose_flux(pot, 8, u, sweeps=800, seed=11, nodes=6)
        val, _ = fd.reconstruct()
        assert np.allclose(val, g, atol=1e-10)
        assert np.allclose(fd.A, 1.0, atol=1e-12)
        assert fd.c_minus == fd.c_plus == 1.0
        assert fd.samples_in_bounds

    def test_nan_sample_is_out_of_bounds(self):
        # V0'' is NaN on a band of bonds that the chain visits: the extremes
        # must carry the NaN, and the samples must not read as in bounds
        pot = make_cosine_perturbed(0.2, 1.0)
        inner = pot.v0pp
        pot = dataclasses.replace(
            pot, v0pp=lambda x: np.where(np.abs(x - 0.5) < 0.05, np.nan, inner(x)))
        fd = decompose_flux(pot, 4, (0.5,), sweeps=64, seed=0, step=0.05, burn_in=0)
        assert np.isnan(fd.A_sample_min).all() and np.isnan(fd.A_sample_max).all()
        assert np.isnan(fd.A).all()
        assert not fd.samples_in_bounds

    def test_bump_samples_vary_within_certified_bounds(self):
        pot = make_split_bump()
        g, ge = grad_sigma(pot, 8, (0.5,), sweeps=1500, seed=12)
        fd = decompose_flux(pot, 8, (0.5,), sweeps=1500, seed=12, nodes=8)
        assert fd.samples_in_bounds
        assert fd.A_sample_min[0] < fd.A_sample_max[0]
        assert fd.c_minus - 1e-12 <= fd.A[0] <= fd.c_plus + 1e-12
        val, _ = fd.reconstruct()
        # same chain, so the residual is pure quadrature error at the
        # curvature kink and stays far below the Monte Carlo scale
        assert abs(val[0] - g[0]) < 1e-6


class TestSurfaceTensionTable:
    def gaussian_table(self):
        return build_table(make_gaussian(), 8, [np.linspace(-1, 1, 5)],
                           sweeps=200, seed=0)

    def test_gaussian_table_exact(self):
        tab = self.gaussian_table()
        assert np.allclose(tab.dsigma[..., 0], np.linspace(-1, 1, 5), atol=1e-12)
        assert np.allclose(tab.sigma, np.linspace(-1, 1, 5) ** 2 / 2, atol=1e-12)
        assert np.all(tab.dsigma_err < 1e-12)

    def test_interpolation_and_clamping(self):
        tab = self.gaussian_table()
        g = tab.grad_many([0.5])[0]
        assert abs(g[0] - 0.5) < 1e-12
        g = tab.grad_many([0.25])[0]     # linear data, so midpoints exact too
        assert abs(g[0] - 0.25) < 1e-12
        assert tab.sigma[list(tab.axes[0]).index(0.0)] == 0.0
        assert tab.clamp_events == 0
        tab.grad_many([2.0])
        assert tab.clamp_events == 1
        many = tab.grad_many(np.array([[0.1], [-0.7], [0.3]]))
        singles = np.array([tab.grad_many([x])[0] for x in (0.1, -0.7, 0.3)])
        assert np.allclose(many, singles, atol=1e-15)

    def test_monotonicity_and_lipschitz_on_gaussian(self):
        tab = self.gaussian_table()
        lo, hi = tab.monotonicity_bounds()
        assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12
        assert abs(tab.lipschitz_upper() - 1.0) < 1e-12

    def test_monotonicity_and_lipschitz_hand_built(self):
        axes = [np.array([-1.0, 0.0, 1.0])]
        dsig = np.array([[-2.0], [0.0], [1.0]])
        z = np.zeros(3)
        tab = SurfaceTensionTable(axes, dsig, np.zeros_like(dsig), z, z)
        assert tab.monotonicity_bounds() == (1.0, 2.0)
        assert tab.lipschitz_upper() == 2.0

    def test_csv_round_trip_bit_exact(self, tmp_path):
        tab = self.gaussian_table()
        tab.meta["note"] = "round-trip"
        path = tmp_path / "table.csv"
        tab.to_csv(path)
        back = SurfaceTensionTable.from_csv(path)
        assert all(np.array_equal(a, b) for a, b in zip(tab.axes, back.axes))
        assert np.array_equal(tab.dsigma, back.dsigma)
        assert np.array_equal(tab.dsigma_err, back.dsigma_err)
        assert np.array_equal(tab.sigma, back.sigma)
        assert np.array_equal(tab.sigma_err, back.sigma_err)
        assert back.meta["note"] == "round-trip"

    def test_from_csv_rejects_bad_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# only=meta\n")
        with pytest.raises(ValueError):
            SurfaceTensionTable.from_csv(empty)
        tab = self.gaussian_table()
        path = tmp_path / "table.csv"
        tab.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")   # duplicated node
        with pytest.raises(ValueError):
            SurfaceTensionTable.from_csv(path)

    def test_constructor_validates_shapes(self):
        axes = [np.array([-1.0, 0.0, 1.0])]
        with pytest.raises(ValueError):
            SurfaceTensionTable(axes, np.zeros((4, 1)), np.zeros((4, 1)),
                                np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("axis", [[-1.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
    def test_axes_must_strictly_increase(self, axis):
        dsig = np.zeros((3, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            SurfaceTensionTable([np.array(axis)], dsig, dsig, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="strictly increasing"):
            build_table(make_gaussian(), 8, [np.array(axis)], sweeps=50)

    @pytest.mark.parametrize("axis", [[-np.inf, 0.0, 1.0], [-1.0, 0.0, np.inf],
                                      [-1.0, 0.0, np.nan]])
    def test_axes_must_be_finite(self, axis, tmp_path, monkeypatch):
        with pytest.raises(ValueError, match="finite"):
            SurfaceTensionTable([np.array(axis)] * 2, np.zeros((3, 3, 2)),
                                np.zeros((3, 3, 2)), np.zeros((3, 3)), np.zeros((3, 3)))
        path = write_csv(tmp_path / "table.csv", {
            "u_0": axis, "sigma": [0.0] * 3, "sigma_err": [0.0] * 3,
            "dsigma_0": [0.0] * 3, "dsigma_err_0": [0.0] * 3,
        })
        with pytest.raises(ValueError, match="finite"):
            SurfaceTensionTable.from_csv(path)

        def no_sampling(args):
            raise AssertionError("build_table sampled before checking its axes")

        monkeypatch.setattr("heightlab.surface._table_batch", no_sampling)
        with pytest.raises(ValueError, match="finite"):
            build_table(make_gaussian(), 8, [np.array(axis)], sweeps=50)

    def test_axes_must_contain_origin(self):
        with pytest.raises(ValueError):
            build_table(make_gaussian(), 8, [np.array([0.5, 1.0])], sweeps=50)

    def test_parallel_build_matches_serial(self):
        pot = make_cosine_perturbed(0.3, 1.0)
        axes = [np.array([-0.5, 0.0, 0.5])]
        serial = build_table(pot, 8, axes, sweeps=400, seed=5)
        forked = build_table(pot, 8, axes, sweeps=400, seed=5, workers=2)
        assert np.array_equal(serial.dsigma, forked.dsigma)
        assert np.array_equal(serial.sigma, forked.sigma)
        assert np.array_equal(serial.dsigma_err, forked.dsigma_err)

    def test_uneven_worker_batches_match_one_batch(self):
        # six nodes over four workers: batches of 2, 2, 1 and 1 chains
        pot = make_split_bump()
        axes = [np.array([-0.5, 0.0, 0.5]), np.array([-0.3, 0.0])]
        serial = build_table(pot, 4, axes, sweeps=160, seed=8, burn_in=50)
        forked = build_table(pot, 4, axes, sweeps=160, seed=8, burn_in=50, workers=4)
        for name in ("dsigma", "dsigma_err", "sigma", "sigma_err"):
            assert np.array_equal(getattr(serial, name), getattr(forked, name))

    def test_potential_without_spec_runs_serially(self):
        # the same callables as the stock split_bump, so the same bits
        mine = split_potential(*bump_callables(1, 0.5), M=2, name="mine")
        assert mine.spec is None
        axes = [np.array([-0.5, 0.0, 0.5])]
        got = build_table(mine, 4, axes, sweeps=64, seed=2, burn_in=20, workers=0)
        want = build_table(make_split_bump(1, 0.5, 2), 4, axes, sweeps=64, seed=2,
                           burn_in=20)
        assert np.array_equal(got.dsigma, want.dsigma)
        assert got.meta["potential"] == "mine"

    def test_potential_without_spec_rejects_workers(self):
        mine = split_potential(*bump_callables(1, 0.5), M=2, name="mine")
        with pytest.raises(ValueError, match="'mine' has no spec"):
            build_table(mine, 4, [np.array([-0.5, 0.0, 0.5])], sweeps=64, workers=2)


class TestIntegratePaths:
    """The cumsum runs give the node-by-node walk's bits."""

    @pytest.mark.parametrize("d, longest", [(1, 40), (2, 14), (3, 6)])
    @pytest.mark.parametrize("where", ["first", "last", "any"])
    def test_matches_node_walk(self, d, longest, where):
        rng = np.random.default_rng([d, len(where)])
        for _ in range(40):
            # non-uniform nodes; some axes have a single node
            sizes = rng.integers(1, longest + 1, size=d)
            axes = [np.cumsum(rng.uniform(0.05, 1.0, n)) - rng.uniform(0, 1) for n in sizes]
            pick = {"first": 0, "last": -1, "any": int(rng.integers(1 << 20))}[where]
            anchor = tuple(pick % n for n in sizes)
            shape = tuple(sizes) + (d,)
            g = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
            e = np.abs(rng.normal(size=shape)) * 10.0 ** rng.uniform(-3, 0)
            got = _integrate_paths(axes, anchor, g, e)
            want = reference_integrate_paths(axes, anchor, g, e)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


@st.composite
def clamp_queries(draw):
    """(table, points): a d = 1 or 2 table on [-1, 1]^d and query rows
    inside, outside (one or both coordinates), on the walls, and NaN."""
    d = draw(st.integers(1, 2))
    ax = np.linspace(-1.0, 1.0, 5)
    u = np.stack(np.meshgrid(*[ax] * d, indexing="ij"), axis=-1)
    dsig = u + 0.1 * u[..., ::-1] ** 3
    tab = SurfaceTensionTable([ax] * d, dsig, 0.01 * np.abs(dsig),
                              (u**2).sum(axis=-1), np.zeros(u.shape[:-1]))
    coord = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0, np.nan]))
    pts = draw(arrays(float, (draw(st.integers(1, 30)), d), elements=coord))
    return tab, pts


class TestClampSemantics:
    """The column-wise clamp against ``np.clip`` on the (m, d) points."""

    @settings(max_examples=150, deadline=None)
    @given(clamp_queries())
    def test_clip_and_event_count(self, case):
        tab, pts = case
        lo, hi = np.full(tab.d, -1.0), np.full(tab.d, 1.0)
        clipped = np.clip(pts, lo, hi)
        moved = (clipped != pts).any(axis=1)
        assert np.array_equal(tab._clamp(pts.T).T, clipped, equal_nan=True)
        assert tab.clamp_events == moved.sum()
        tab.grad_many(pts)
        assert tab.clamp_events == 2 * moved.sum()
        for row, m in zip(pts, moved):
            before = tab.clamp_events
            tab.grad_many(row)
            tab.grad_many(row[None])
            assert tab.clamp_events - before == 2 * m

    def test_both_coordinates_out_is_one_event(self):
        ax = np.linspace(-1.0, 1.0, 3)
        u = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
        z = np.zeros(u.shape[:-1])
        tab = SurfaceTensionTable([ax, ax], u, np.zeros_like(u), z, z)
        tab.grad_many(np.array([[2.0, -2.0], [np.nan, np.nan], [0.5, 0.5]]))
        assert tab.clamp_events == 2

    @settings(max_examples=60, deadline=None)
    @given(clamp_queries())
    def test_component_query_is_a_column_of_grad_many(self, case):
        tab, pts = case
        full = tab.grad_many(pts)
        for i in range(tab.d):
            out = np.empty(len(pts))
            assert tab.grad_component(pts.T.copy(), i, out) is out
            assert np.array_equal(out, full[:, i], equal_nan=True)
        moved = (np.clip(pts, -1.0, 1.0) != pts).any(axis=1).sum()
        assert tab.clamp_events == (tab.d + 1) * moved

    def test_component_lookup_allocates_only_the_cell_indices(self):
        # the PDE step's promise: a lookup of the same size as the one
        # before allocates at most the cell indices (d * m intp), and only
        # for points whose guessed cell fails its check (here the upper
        # walls); points inside the box allocate nothing of size m (m
        # bools alone would be 20 kB)
        ax = np.linspace(-1.0, 1.0, 9)
        u = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
        z = np.zeros(u.shape[:-1])
        tab = SurfaceTensionTable([ax, ax], u**3 + u, np.zeros_like(u), z, z)
        m = 20_000
        rng = np.random.default_rng(0)
        cols = rng.uniform(-1.5, 1.5, (tab.d, m))
        inner = rng.uniform(-0.99, 0.99, (tab.d, m))
        out = np.empty(m)

        def peak_bytes(lookup):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lookup()
            return tracemalloc.get_traced_memory()[1] - before

        tab.grad_component(cols, 0, out)
        tracemalloc.start()
        try:
            lookup = peak_bytes(lambda: tab.grad_component(cols, 1, out))
            interior = peak_bytes(lambda: tab.grad_component(inner, 1, out))
            clamp = peak_bytes(lambda: tab._clamp(cols))
        finally:
            tracemalloc.stop()
        assert lookup <= tab.d * m * np.dtype(np.intp).itemsize + 4096
        assert interior <= 4096
        assert clamp <= 4096  # freed before the search, so checked on its own

    def test_grad_many_results_do_not_alias(self):
        ax = np.linspace(-1.0, 1.0, 5)
        u = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
        z = np.zeros(u.shape[:-1])
        tab = SurfaceTensionTable([ax, ax], u**3 + u, np.zeros_like(u), z, z)
        first = tab.grad_many(np.array([[0.1, 0.2], [0.3, -0.4]]))
        kept = first.copy()
        second = tab.grad_many(np.array([[-0.5, 0.6], [0.7, 0.8]]))
        g = tab.grad_many([0.9, -0.9])
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, g) and not np.shares_memory(second, g)
        assert np.array_equal(first, kept)
