"""Grid construction, the explicit solver, and field comparison.

With the exact quadratic flux the scheme reduces to the classical
five-point heat stencil, so every quantitative check here runs against
the independent sine-series oracle or closed-form grid geometry.  The
multilinear kernel behind table lookups and field sampling is checked
against scipy's ``RegularGridInterpolator`` and, bit for bit in every
dimension, against a plain per-corner loop; the buffered, column-only
step loop is checked against the plain step loop in ``oracles``.
"""

import hashlib
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import RegularGridInterpolator

import heightlab
from heightlab import DomainSpec, make_gaussian
from heightlab._interp import Multilinear, multilinear
from heightlab.errors import CflViolation, FluxRangeExceeded, NonFinite
from heightlab.hydro import HydroExperiment, profile_zero, run
from heightlab.pde import (
    GaussianFlux,
    GridField,
    PdeGrid,
    TableFlux,
    l2_compare,
    solve,
)
from heightlab.surface import SurfaceTensionTable

from oracles import heat_solution, reference_pde_solve


def unit_box(d: int = 1) -> DomainSpec:
    return DomainSpec(shape="box", center=(0.5,) * d, sides=(1.0,) * d)


def linear_table(axes_1d) -> SurfaceTensionTable:
    # gradient identical to the tilt: same flux as GaussianFlux, tabulated
    a = np.asarray(axes_1d, dtype=float)
    return SurfaceTensionTable(
        [a], a[:, None], np.zeros((len(a), 1)), a**2 / 2, np.zeros(len(a))
    )


class TestPdeGrid:
    def test_nodes_cover_walls(self):
        g = PdeGrid(unit_box(), 0.25)
        assert g.shape == (5,)
        assert np.allclose(g.axes[0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert list(g.interior) == [False, True, True, True, False]

    def test_rejects_non_tiling_spacing(self):
        with pytest.raises(ValueError):
            PdeGrid(unit_box(), 0.3)
        with pytest.raises(ValueError):
            PdeGrid(unit_box(), 1.0)   # a single cell cannot hold an interior

    def test_two_dim_interior_count(self):
        g = PdeGrid(unit_box(2), 0.25)
        assert g.shape == (5, 5)
        assert int(g.interior.sum()) == 9

    def test_ball_interior(self):
        spec = DomainSpec(shape="ball", center=(0.0, 0.0), radius=0.45)
        g = PdeGrid(spec, 0.9 / 8)
        pts = g.points()[g.interior.ravel()]
        assert (pts**2).sum(axis=1).max() < 0.45**2
        assert g.interior[4, 4]
        assert not g.interior[0, 0]

    def test_evaluate_callable(self):
        g = PdeGrid(unit_box(2), 0.5)
        vals = g.evaluate(lambda p: p[:, 0] + 2 * p[:, 1])
        assert vals.shape == (3, 3)
        assert vals[2, 1] == 1.0 + 2 * 0.5


class TestGridField:
    def test_sampling_is_multilinear(self):
        g = PdeGrid(unit_box(), 0.25)
        f = GridField(g, np.array([0.0, 1.0, 4.0, 9.0, 16.0]))
        assert f.sample([[0.5]])[0] == 4.0
        assert f.sample([[0.375]])[0] == 2.5
        # queries outside the box clip to the walls
        assert f.sample([[1.7]])[0] == 16.0
        assert f.cell_volume == 0.25

    def test_cell_centers_are_nodes(self):
        g = PdeGrid(unit_box(2), 0.5)
        assert len(GridField(g, np.zeros(g.shape)).cell_centers()) == 9


@st.composite
def axis_nodes(draw):
    """Strictly increasing nodes, possibly a single one: exactly uniform,
    PdeGrid-style, jittered by up to a fifth of a spacing, or free gaps."""
    n = draw(st.integers(1, 7))
    lo = draw(st.floats(-10.0, 10.0))
    h = draw(st.floats(0.01, 3.0))
    kind = draw(st.sampled_from(["linspace", "arange", "jitter", "free"]))
    if kind == "linspace":
        return np.linspace(lo, lo + h * (n - 1), n)
    if kind == "arange":
        return lo + h * np.arange(n)
    if kind == "jitter":
        jitter = draw(arrays(float, n, elements=st.floats(-0.2, 0.2)))
        return lo + h * (np.arange(n) + jitter)
    gaps = draw(arrays(float, n - 1, elements=st.floats(0.01, 5.0)))
    return lo + np.concatenate([[0.0], np.cumsum(gaps)])


@st.composite
def grid_queries(draw, d, bound=1e3):
    """(axes, values, points): every node, the upper walls, and points
    inside cells, all within the grid box."""
    axes = [draw(axis_nodes()) for _ in range(d)]
    trailing = draw(st.sampled_from([(), (2,), (2, 3)]))
    shape = tuple(len(a) for a in axes) + trailing
    values = draw(arrays(float, shape, elements=st.floats(-bound, bound)))
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
    m = draw(st.integers(1, 20))
    fracs = draw(arrays(float, (m, d), elements=st.floats(0.0, 1.0)))
    lo = np.array([a[0] for a in axes])
    hi = np.array([a[-1] for a in axes])
    inside = np.clip(lo + fracs * (hi - lo), lo, hi)
    walls = []
    for k, a in enumerate(axes):
        wall = inside.copy()
        wall[:, k] = a[-1]
        walls.append(wall)
    return axes, values, np.concatenate([nodes, inside] + walls)


def rgi_per_component(axes, values, pts):
    """The linear RegularGridInterpolator, one call per trailing component."""
    d = len(axes)
    flat = values.reshape(values.shape[:d] + (-1,))
    cols = [
        RegularGridInterpolator(axes, flat[..., j], method="linear")(pts)
        for j in range(flat.shape[-1])
    ]
    return np.stack(cols, -1).reshape((len(pts),) + values.shape[d:])


def per_corner_reference(axes, values, pts):
    """The plain kernel: one gather and weighting per corner, ((v * w0) * w1)
    * ..., with the corner terms added onto zero in corner order."""
    d = len(axes)
    flat = values.reshape(values.shape[:d] + (-1,))
    cells, weights = [], []
    for a, x in zip(axes, pts.T):
        if len(a) == 1:
            i, y = np.zeros(len(x), dtype=int), np.zeros(len(x))
        else:
            i = np.clip(np.searchsorted(a, x, side="right") - 1, 0, len(a) - 2)
            y = (x - a[i]) / (a[i + 1] - a[i])
        cells.append(i)
        weights.append((1.0 - y, y))
    out = np.zeros((len(pts), flat.shape[-1]))
    for corner in itertools.product((0, 1), repeat=d):
        node = tuple(np.minimum(i + c, len(a) - 1) for i, c, a in zip(cells, corner, axes))
        term = flat[node]
        for w, c in zip(weights, corner):
            term = term * w[c][:, None]
        out = out + term
    return out.reshape((len(pts),) + values.shape[d:])


def locate(a, x):
    """The cell index and distance the kernel finds for the points x on axis a."""
    i, y = np.empty(len(x), np.intp), np.empty(len(x))
    Multilinear([a])._locate(0, x, i, y, np.empty(len(x)), np.empty(len(x), bool))
    return i, y


class TestMultilinearKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(grid_queries))
    def test_bit_equal_to_per_corner_loop(self, case):
        axes, values, pts = case
        # add the lower walls and NaN coordinates to the nodes, inner
        # points and upper walls; also look up a few points one at a time
        lo = np.array([[a[0] for a in axes]])
        nan = np.where(np.eye(len(axes), dtype=bool), np.nan, lo)
        pts = np.concatenate([pts, lo, nan, np.full_like(lo, np.nan)])
        want = per_corner_reference(axes, values, pts)
        assert np.array_equal(multilinear(axes, values, pts), want, equal_nan=True)
        for j in range(-len(axes) - 3, 0):
            got = multilinear(axes, values, pts[j:][:1])
            assert np.array_equal(got, want[j:][:1], equal_nan=True)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2).flatmap(grid_queries))
    def test_bit_equal_to_rgi_in_one_and_two_dims(self, case):
        axes, values, pts = case
        assert np.array_equal(multilinear(axes, values, pts),
                              rgi_per_component(axes, values, pts))

    @settings(max_examples=40, deadline=None)
    @given(grid_queries(3, bound=1.0))
    def test_three_dims_within_rounding(self, case):
        # the generic three-dimensional path multiplies the weights
        # together before the value, so results differ by rounding only
        axes, values, pts = case
        diff = multilinear(axes, values, pts) - rgi_per_component(axes, values, pts)
        assert np.abs(diff).max() <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(axis_nodes(), st.data())
    def test_cell_holds_the_point(self, a, data):
        fracs = data.draw(arrays(float, 30, elements=st.floats(0.0, 1.0)))
        x = np.clip(np.concatenate([a, a[0] + fracs * (a[-1] - a[0])]), a[0], a[-1])
        i, y = locate(a, x)
        if len(a) == 1:
            assert not i.any() and not y.any()
            return
        assert np.array_equal(i, np.searchsorted(a[1:-1], x, side="right"))
        assert np.all((0 <= i) & (i <= len(a) - 2))
        assert np.all(a[i] <= x)
        assert np.all((x < a[i + 1]) | ((i == len(a) - 2) & (x == a[-1])))
        assert np.all((y >= 0.0) & (y <= 1.0))

    @pytest.mark.parametrize("a", [
        np.linspace(-8.0, 8.0, 33),
        np.linspace(-1.0, 1.0, 7),
        np.linspace(0.1, 0.7, 4),
        np.linspace(-1.0, 1.0, 9) + np.random.default_rng(4).uniform(-0.05, 0.05, 9),
        np.array([-2.8, -1.9, -1.05, 0.0, 0.7, 1.95, 2.9]),
        np.array([-0.5, 2.0]),
        np.array([0.3]),
    ], ids=["33-nodes", "7-nodes", "4-nodes", "jittered", "jittered-zero", "one-cell", "one-node"])
    def test_cell_is_the_binary_search_cell(self, a):
        # the arithmetic guess misses below a node by ulps, on jittered
        # nodes and at the upper wall; every miss must be caught
        tiny = np.array([-4.44e-16, -5.55e-17, -0.0, 0.0, 5.55e-17, 4.44e-16])
        near = [np.nextafter(a, -np.inf), np.nextafter(a, np.inf), (a[:, None] + tiny).ravel()]
        x = np.concatenate([np.clip(np.concatenate([a, tiny, *near]), a[0], a[-1]), [np.nan]])
        i, y = locate(a, x)
        if len(a) == 1:
            assert not i.any() and not y.any()
            return
        want = np.searchsorted(a[1:-1], x, side="right")
        assert np.array_equal(i, want)
        assert np.array_equal(y, (x - a[want]) / np.diff(a)[want], equal_nan=True)

    def test_nan_query_gives_nan(self):
        a = np.linspace(0.0, 1.0, 5)
        out = multilinear([a], np.arange(5.0), np.array([[np.nan], [0.5]]))
        assert np.isnan(out[0]) and out[1] == 2.0


class TestSolve:
    def test_zero_data_stays_zero(self):
        g = PdeGrid(unit_box(), 0.125)
        sol = solve(g, lambda p: 0.0 * p[:, 0], GaussianFlux(), 0.02,
                    record=(0.01,))
        assert not sol.final.any()
        assert set(sol.snapshots) == {0.01, 0.02}
        assert not sol.field_at(0.01).values.any()
        with pytest.raises(KeyError):
            sol.field_at(0.015)

    def test_cfl_guard(self):
        g = PdeGrid(unit_box(), 0.125)
        cap = 0.125**2 / 2.0
        with pytest.raises(CflViolation):
            solve(g, lambda p: 0.0 * p[:, 0], GaussianFlux(), 0.1, dt=1.5 * cap)
        sol = solve(g, lambda p: 0.0 * p[:, 0], GaussianFlux(), 0.1, dt=0.9 * cap)
        assert sol.dt == 0.9 * cap

    def test_record_times_validated(self):
        g = PdeGrid(unit_box(), 0.25)
        with pytest.raises(ValueError):
            solve(g, lambda p: 0.0 * p[:, 0], GaussianFlux(), 0.1, record=(0.2,))

    def test_initial_array_shape_checked(self):
        g = PdeGrid(unit_box(), 0.25)
        with pytest.raises(ValueError):
            solve(g, np.zeros(7), GaussianFlux(), 0.1)

    def test_maximum_principle_flags_hold(self):
        g = PdeGrid(unit_box(2), 0.125)
        sol = solve(
            g,
            lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            GaussianFlux(),
            0.05,
        )
        assert sol.linf_ok
        assert np.abs(sol.final).max() <= 1.0 + 1e-9

    def test_boundary_values_pinned(self):
        g = PdeGrid(unit_box(), 0.25)
        sol = solve(g, lambda p: p[:, 0], GaussianFlux(), 0.3,
                    boundary=lambda p: p[:, 0])
        # linear data is stationary for the quadratic flux
        assert np.allclose(sol.final, g.axes[0], atol=1e-12)

    def test_heat_profile_matches_series_oracle(self):
        def h0(p):
            x = p[:, 0]
            return np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)

        t = 0.02
        errs = []
        hs = [1 / 8, 1 / 16, 1 / 32]
        for h in hs:
            g = PdeGrid(unit_box(), h)
            sol = solve(g, h0, GaussianFlux(), t)
            exact = heat_solution(h0, g.axes[0], t)
            errs.append(float(np.sqrt(h * np.sum((sol.final - exact) ** 2))))
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order > 1.8


class TestL2Compare:
    def test_identical_fields_give_zero(self):
        g = PdeGrid(unit_box(2), 0.25)
        f = GridField(g, np.ones(g.shape))
        assert l2_compare(f, f, unit_box(2)) == 0.0

    def test_unit_offset_integrates_to_volume(self):
        spec = unit_box(2)
        g = PdeGrid(spec, 0.125)
        a = GridField(g, np.ones(g.shape))
        b = GridField(g, np.zeros(g.shape))
        assert abs(l2_compare(a, b, spec) - 1.0) < 1e-12
        assert l2_compare(a, b, spec) == l2_compare(b, a, spec)

    def test_linear_fields_agree_across_resolutions(self):
        spec = unit_box()
        coarse = PdeGrid(spec, 0.25)
        fine = PdeGrid(spec, 0.0625)
        f = lambda g: GridField(g, g.evaluate(lambda p: 2.0 * p[:, 0] - 0.3))
        assert l2_compare(f(coarse), f(fine), spec) < 1e-24


class TestTableFlux:
    def test_monotone_table_accepted(self):
        flux = TableFlux(linear_table([-1.0, 0.0, 1.0]))
        assert flux.monotone_lower == 1.0
        assert flux.lipschitz_upper == 1.0
        pts = np.array([[0.3], [-0.8]])
        assert np.allclose(flux.grad_many(pts), pts)

    def test_non_monotone_table_rejected(self):
        tab = SurfaceTensionTable(
            [np.array([-1.0, 0.0, 1.0])],
            np.array([[0.5], [0.0], [-0.5]]),
            np.zeros((3, 1)),
            np.zeros(3),
            np.zeros(3),
        )
        with pytest.raises(ValueError):
            TableFlux(tab)

    def test_tabulated_solution_matches_exact_flux(self):
        g = PdeGrid(unit_box(), 0.0625)
        h0 = lambda p: np.sin(np.pi * p[:, 0])
        a = solve(g, h0, GaussianFlux(), 0.01)
        b = solve(g, h0, TableFlux(linear_table(np.linspace(-4, 4, 9))), 0.01)
        assert np.allclose(a.final, b.final, atol=1e-12)

    def test_leaving_the_table_range_raises(self):
        g = PdeGrid(unit_box(), 0.0625)
        narrow = TableFlux(linear_table([-0.005, 0.0, 0.005]))
        with pytest.raises(FluxRangeExceeded):
            solve(g, lambda p: np.sin(np.pi * p[:, 0]), narrow, 0.01)


# ---------------------------------------------------------------------------
# the buffered, column-only step loop against the plain one


def nonlinear_table(half_width: float = 8.0, nodes: int = 33) -> SurfaceTensionTable:
    """sigma(u) = |u|^2 / 2 + 0.15 log cosh(u0 + 2 u1), tabulated.

    The flux u + 0.15 tanh(u0 + 2 u1) (1, 2) is monotone, non-separable
    and nonlinear, and its two components differ: a solver that reads
    column j for face direction i gets a different answer.
    """
    ax = np.linspace(-half_width, half_width, nodes)
    u = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    s = u[..., 0] + 2.0 * u[..., 1]
    dsig = u + 0.15 * np.tanh(s)[..., None] * np.array([1.0, 2.0])
    sig = 0.5 * (u**2).sum(axis=-1) + 0.15 * np.log(np.cosh(s))
    return SurfaceTensionTable([ax, ax], dsig, np.zeros_like(dsig), sig, np.zeros_like(sig))


def off_center_bump(amp=0.8, width=0.05, center=(0.4, 0.3)):
    c = np.asarray(center)
    return lambda p: amp * np.exp(-np.sum((p - c[: p.shape[1]]) ** 2, axis=1) / width)


class ScaledFlux:
    """grad sigma(u) = gain * u under a claimed Lipschitz bound of 1, so a
    gain above 1 breaks the CFL condition on purpose."""

    label = "scaled"
    lipschitz_upper = 1.0

    def __init__(self, gain: float):
        self.gain = gain

    def grad_many(self, pts):
        return self.gain * np.asarray(pts, dtype=float)

    def grad_component(self, cols, i, out):
        return np.multiply(cols[i], self.gain, out=out)


def start_values(grid, h0, boundary=None):
    h = grid.evaluate(h0) if callable(h0) else np.array(h0, dtype=float)
    if boundary is not None:
        h[~grid.interior] = grid.evaluate(boundary)[~grid.interior]
    return h


RECORD = (0.001, 0.0025, 0.004)
def table_flux(*args):
    return lambda: TableFlux(nonlinear_table(*args))


MATCH_CASES = {
    "d1-gaussian": (unit_box(), 1 / 32, GaussianFlux, lambda p: 0.2 * p[:, 0], {}),
    "d2-table": (unit_box(2), 1 / 16, table_flux(), None, {}),
    "d2-table-clamping": (
        unit_box(2), 1 / 16, table_flux(0.75, 7), None, {"clamp_tol": 1.0},
    ),
    "ball-table": (
        DomainSpec(shape="ball", center=(0.5, 0.5), radius=0.75),
        1 / 16, table_flux(), lambda p: 0.1 * p[:, 0], {},
    ),
    "ball-gaussian": (
        DomainSpec(shape="ball", center=(0.5, 0.5), radius=0.75),
        1 / 16, GaussianFlux, lambda p: 0.1 * p[:, 0], {},
    ),
    "non-square-box-table": (
        DomainSpec(shape="box", center=(0.5, 0.25), sides=(1.0, 0.5)),
        1 / 16, table_flux(), None, {},
    ),
}


class TestSolveMatchesPlainStepLoop:
    @pytest.mark.parametrize("case", sorted(MATCH_CASES))
    def test_bit_identical(self, case):
        spec, spacing, make_flux, boundary, kw = MATCH_CASES[case]
        grid = PdeGrid(spec, spacing)
        h0 = off_center_bump()
        ours, theirs = make_flux(), make_flux()
        sol = solve(grid, h0, ours, 0.005, boundary=boundary, record=RECORD, **kw)
        ref = reference_pde_solve(
            start_values(grid, h0, boundary), grid.interior, spacing, theirs, 0.005,
            record=RECORD, **kw,
        )
        assert np.array_equal(sol.final, ref["final"])
        assert list(sol.snapshots) == list(ref["snapshots"]) == [*RECORD, 0.005]
        for t, vals in ref["snapshots"].items():
            assert np.array_equal(sol.snapshots[t], vals)
        assert sol.steps == ref["steps"] > 0
        assert sol.linf_ok == ref["linf_ok"]
        clamps = getattr(ours, "clamp_events", 0)
        assert clamps == getattr(theirs, "clamp_events", 0)
        if case == "d2-table-clamping":
            assert clamps > 0

    def test_overflow_raises_at_the_same_step(self):
        grid = PdeGrid(unit_box(), 1 / 16)
        h0 = lambda p: np.sin(np.pi * p[:, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_pde_solve(
                start_values(grid, h0), grid.interior, grid.spacing, ScaledFlux(40.0), 1.0
            )
            step = ref["nonfinite_step"]
            assert step is not None
            with pytest.raises(NonFinite, match=rf"at step {step}$"):
                solve(grid, h0, ScaledFlux(40.0), 1.0)

    def test_overshoot_clears_linf_ok(self):
        grid = PdeGrid(unit_box(), 1 / 16)
        h0 = np.random.default_rng(3).uniform(-1.0, 1.0, grid.shape)
        dt = 0.9 * grid.spacing**2 / 2.0
        sol = solve(grid, h0, ScaledFlux(3.0), 5 * dt)
        ref = reference_pde_solve(h0, grid.interior, grid.spacing, ScaledFlux(3.0), 5 * dt)
        assert ref["nonfinite_step"] is None
        assert not sol.linf_ok and not ref["linf_ok"]
        assert np.array_equal(sol.final, ref["final"])

    def test_range_exceeded_counts_as_the_plain_loop(self):
        grid = PdeGrid(unit_box(2), 1 / 16)
        h0 = off_center_bump()
        ours, theirs = TableFlux(nonlinear_table(0.75, 7)), TableFlux(nonlinear_table(0.75, 7))
        with pytest.raises(FluxRangeExceeded) as err:
            solve(grid, h0, ours, 0.005)
        ref = reference_pde_solve(start_values(grid, h0), grid.interior, grid.spacing,
                                  theirs, 0.005)
        assert ref["range_exceeded"]
        assert ours.clamp_events == ref["clamped"] > 0
        assert str(err.value).startswith(f"{ref['clamped']} of ~{ref['queries']} ")


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


class TestTableFluxPins:
    """sha256 of table-flux outputs: a lookup change that keeps cells,
    weights and sums leaves every byte of them as it was."""

    @pytest.mark.parametrize("case, want", [
        ("d2-table-clamping",
         "c85b37eba9ed8c58e595795320301be752480f39fefe89cac95eae8df40e50ce"),
        ("non-square-box-table",
         "88dd6c4eff25b61e67890b4f2c2430ea76a3ea5c5d3246d0f9c4d5255990747c"),
    ])
    def test_solve(self, case, want):
        spec, spacing, make_flux, boundary, kw = MATCH_CASES[case]
        flux = make_flux()
        sol = solve(PdeGrid(spec, spacing), off_center_bump(), flux, 0.005,
                    boundary=boundary, record=RECORD, **kw)
        counts = np.array([sol.steps, flux.clamp_events], np.int64)
        assert digest(sol.final, *sol.snapshots.values(), counts) == want

    def test_hydro_run_gaps(self):
        exp = HydroExperiment(
            pot=make_gaussian(),
            spec=unit_box(2),
            boundary=profile_zero,
            initial=off_center_bump(amp=0.4, center=(0.4, 0.5)),
            scales=(8, 16),
            times=(0.004, 0.01),
            realizations=4,
            pde_spacing=1 / 32,
            flux=TableFlux(nonlinear_table()),
        )
        per_seed = run(exp).meta["per_seed"]
        assert digest(*(per_seed[key] for key in sorted(per_seed))) == (
            "860e54f3e9ea86518da05bbb855ee73fff1530566debc012dd3b62cd0c891ac4"
        )


FAULT_RUN = """
import resource
import numpy as np
from heightlab import DomainSpec
from heightlab.pde import PdeGrid, TableFlux, solve
from heightlab.surface import SurfaceTensionTable

ax = np.linspace(-8.0, 8.0, 33)
u = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
zeros = np.zeros_like(u)
table = SurfaceTensionTable([ax, ax], u, zeros, 0.5 * (u**2).sum(axis=-1), zeros[..., 0])
grid = PdeGrid(DomainSpec(shape="box", center=(0.5, 0.5), sides=(1.0, 1.0)), 1 / 64)
flux = TableFlux(table)
h0 = lambda p: 0.8 * np.exp(-np.sum((p - 0.5) ** 2, axis=1) / 0.09)
solve(grid, h0, flux, 0.002)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sol = solve(grid, h0, flux, 0.01)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / sol.steps)
"""


class TestStepAllocations:
    def test_table_flux_step_does_not_page_fault(self):
        # 65 x 65 nodes and a 33 x 33 table, as in the hydro_table benchmark;
        # a fresh interpreter so the test process's heap does not interfere
        pytest.importorskip("resource")
        src = str(Path(heightlab.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r})\n" + FAULT_RUN
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 10.0
