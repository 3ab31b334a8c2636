import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab import (
    DomainSpec,
    EmptyInterior,
    TiltedPeriodicSystem,
    TorusLattice,
    boundary_height,
    cell_average,
    discretize_domain,
    make_gaussian,
)
from heightlab.io import write_csv

from oracles import (
    brute_force_interior,
    integrate_bonds,
    plaquette_circulation,
    read_field_csv,
    winding,
)


UNIT_BOX_1D = DomainSpec.box((1.0,), center=(0.0,))


def eta_tilde(lat, phi):
    """Untilted bond differences of ``phi`` as every run forms them."""
    sys = TiltedPeriodicSystem(lat, make_gaussian(), np.zeros((1, lat.d)), phi=phi, seed=[0])
    return sys.bond_pass(sys.phi).diffs[:, 0]


class TestDomainSpec:
    def test_box_contains(self):
        spec = DomainSpec.box((1.0, 2.0), center=(0.0, 0.5))
        pts = np.array([[0.0, 0.5], [0.49, 1.49], [0.51, 0.5], [0.0, -0.51]])
        assert spec.contains(pts).tolist() == [True, True, False, False]

    def test_ball_contains(self):
        spec = DomainSpec.ball(0.5, center=(0.0, 0.0))
        pts = np.array([[0.0, 0.0], [0.49, 0.0], [0.36, 0.36], [0.5001, 0.0]])
        assert spec.contains(pts).tolist() == [True, True, False, False]

    def test_domain_must_contain_origin(self):
        with pytest.raises(ValueError):
            DomainSpec.box((1.0,), center=(3.0,))

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: DomainSpec.box((1.0,), center=(0.0, 0.0)),
                     "box domain needs 2 sides, one per axis", id="one-side-in-2d"),
        pytest.param(lambda: DomainSpec.box((1.0,) * 3, center=(0.0, 0.0)),
                     "box domain needs 2 sides, one per axis", id="three-sides-in-2d"),
        pytest.param(lambda: DomainSpec.box((1.0, 0.0)), "box sides must be positive",
                     id="zero-side"),
        pytest.param(lambda: DomainSpec.box((1.0, -1.0)), "box sides must be positive",
                     id="negative-side"),
        pytest.param(lambda: DomainSpec.ball(0.0, center=(0.0,)),
                     "ball radius must be positive", id="zero-radius"),
        pytest.param(lambda: DomainSpec.ball(-0.45, center=(0.0, 0.0)),
                     "ball radius must be positive", id="negative-radius"),
        pytest.param(lambda: DomainSpec.ball(float("nan"), center=(0.0, 0.0)),
                     "ball radius must be positive", id="nan-radius"),
        pytest.param(lambda: DomainSpec.ball(float("inf"), center=(0.0, 0.0)),
                     "ball radius must be positive and finite", id="inf-radius"),
    ])
    def test_sizes_are_checked(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestDiscretization:
    def test_unit_interval_at_n40(self):
        # margin of two cells on each side: interior = {-17, ..., 17}
        dom = discretize_domain(UNIT_BOX_1D, 40)
        ints = np.sort(dom.sites[: dom.n_interior, 0])
        assert ints[0] == -17 and ints[-1] == 17
        assert dom.n_interior == 35

    def test_interior_matches_brute_force_box(self):
        spec = DomainSpec.box((1.0, 1.0), center=(0.0, 0.0))
        dom = discretize_domain(spec, 12)
        expect = brute_force_interior(spec.contains, 12, 2, span=10)
        got = dom.sites[: dom.n_interior]
        assert sorted(map(tuple, got)) == sorted(map(tuple, expect))

    def test_interior_matches_brute_force_ball(self):
        spec = DomainSpec.ball(0.5, center=(0.0, 0.0))
        dom = discretize_domain(spec, 14)
        expect = brute_force_interior(spec.contains, 14, 2, span=10)
        got = dom.sites[: dom.n_interior]
        assert sorted(map(tuple, got)) == sorted(map(tuple, expect))

    def test_too_coarse_raises(self):
        with pytest.raises(EmptyInterior):
            discretize_domain(UNIT_BOX_1D, 4)

    def test_layer_is_one_step_from_interior(self):
        spec = DomainSpec.box((1.0, 1.0), center=(0.0, 0.0))
        dom = discretize_domain(spec, 10)
        interior = set(map(tuple, dom.sites[: dom.n_interior]))
        for site in dom.sites[dom.n_interior : dom.n_interior + dom.n_layer]:
            assert tuple(site) not in interior
            steps = [
                tuple(site + e)
                for e in np.vstack([np.eye(2, dtype=int), -np.eye(2, dtype=int)])
            ]
            assert any(s in interior for s in steps)

    def test_bond_counts_consistent(self):
        spec = DomainSpec.ball(0.5, center=(0.0, 0.0))
        dom = discretize_domain(spec, 16)
        # count the bonds from the neighbour table: an interior-interior
        # bond is seen from both ends, a crossing bond from one
        inner = dom.neighbors < dom.n_interior
        n_int = int(inner.sum()) // 2
        n_cross = int((~inner).sum())
        n_in = (dom.bonds_closure < dom.n_interior).sum(axis=1)
        assert len(dom.bonds_closure) == n_int + n_cross
        # interior-interior bonds first, then the crossing ones, each of
        # which touches exactly one interior site
        assert (n_in[:n_int] == 2).all() and (n_in[n_int:] == 1).all()

    def test_bonds_sorted_lexicographically(self):
        spec = DomainSpec.box((1.0, 1.0), center=(0.0, 0.0))
        dom = discretize_domain(spec, 10)
        n_in = (dom.bonds_closure < dom.n_interior).sum(axis=1)
        for group in (n_in == 2, n_in == 1):
            # bonds come grouped by axis; within an axis, tails sort lex
            assert group.any()
            tails = dom.sites[dom.bonds_closure[group, 1]]
            heads = dom.sites[dom.bonds_closure[group, 0]]
            axis = np.argmax(heads - tails, axis=1)
            assert (np.diff(axis) >= 0).all()
            for i in range(2):
                block = tails[axis == i]
                keys = [tuple(r) for r in block]
                assert keys == sorted(keys)

    def test_neighbor_table(self):
        dom = discretize_domain(UNIT_BOX_1D, 12)
        sid = {tuple(s): j for j, s in enumerate(dom.sites.tolist())}
        for j in range(dom.n_interior):
            x = dom.sites[j, 0]
            expect = {sid[(x + 1,)], sid[(x - 1,)]}
            assert set(dom.neighbors[j].tolist()) == expect


class TestTorus:
    def test_counts(self):
        lat = TorusLattice(6, 2)
        assert lat.n_sites == 36
        heads = lat.bond_heads()
        assert heads.shape == (2, 36)
        # each axis shifts the torus onto itself
        assert all(np.array_equal(np.sort(row), np.arange(36)) for row in heads)

    def test_gradient_roundtrip_exact(self):
        lat = TorusLattice(8, 2)
        phi = np.random.default_rng(0).normal(size=lat.shape)
        sys = TiltedPeriodicSystem(lat, make_gaussian(), [(0.0, 0.0)], phi=phi, seed=[0])
        eta = sys.bond_pass(phi[None]).diffs[:, 0]
        assert plaquette_circulation(eta) <= 1e-12
        assert winding(eta) <= 1e-12
        assert np.allclose(integrate_bonds(eta), phi - phi.flat[0], atol=1e-12, rtol=0)

    def test_tampered_field_not_integrable(self):
        lat = TorusLattice(6, 2)
        eta = eta_tilde(lat, np.random.default_rng(2).normal(size=lat.shape))
        assert plaquette_circulation(eta) <= 1e-12
        eta[0, 2, 3] += 0.5
        assert plaquette_circulation(eta) > 0.4

    def test_constant_shift_breaks_winding(self):
        lat = TorusLattice(6, 1)
        eta = eta_tilde(lat, np.zeros(lat.shape))
        assert winding(eta) == 0.0
        eta += 0.25        # constant tilt is not a gradient on the torus
        assert winding(eta) == pytest.approx(6 * 0.25)


class TestDomainBonds:
    def test_closure_bonds_on_ball(self):
        spec = DomainSpec.ball(0.5, center=(0.0, 0.0))
        dom = discretize_domain(spec, 12)
        heads, tails = dom.bonds_closure.T
        # every closure bond is (x + e_i, x) for some unit vector e_i
        steps = dom.sites[heads] - dom.sites[tails]
        assert np.isin(steps, (0, 1)).all() and (steps.sum(axis=1) == 1).all()
        # bonds reach exactly the interior and its layer; coverage-only
        # cells carry none
        bonded = set(dom.bonds_closure.ravel().tolist())
        assert bonded == set(range(dom.n_interior + dom.n_layer))


class TestCellAverages:
    def test_linear_profile_is_exact(self):
        dom = discretize_domain(UNIT_BOX_1D, 20)
        f = lambda p: 3.0 * np.atleast_2d(p)[:, 0]
        psi = boundary_height(f, 20, dom.sites)
        # cell average of a linear function is its centre value x/N
        assert np.allclose(psi, 3.0 * dom.sites[:, 0], atol=1e-12, rtol=0)

    def test_polynomial_degree_nine_exact(self):
        # order-5 tensor rule integrates monomials through degree 9
        sites = np.array([[2], [5]])
        f = lambda p: np.atleast_2d(p)[:, 0] ** 9
        got = cell_average(f, 8, sites)
        x = sites[:, 0] / 8.0
        h = 1.0 / 16
        exact = ((x + h) ** 10 - (x - h) ** 10) / (10 * 2 * h)
        assert np.allclose(got, exact, atol=1e-14, rtol=1e-13)

    def test_2d_separable(self):
        sites = np.array([[1, 2]])
        f = lambda p: np.atleast_2d(p)[:, 0] ** 2 * np.atleast_2d(p)[:, 1]
        got = cell_average(f, 4, sites)
        # product of 1d averages for a separable integrand
        x, y, h = 0.25, 0.5, 0.125
        ax = (((x + h) ** 3 - (x - h) ** 3) / (3 * 2 * h))
        assert got[0] == pytest.approx(ax * y, abs=1e-14)


class TestFieldIo:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        sites = np.array([[-3, 1], [0, 0], [2, -5]])
        values = rng.normal(size=3) * 1e-7
        p = tmp_path / "field.csv"
        cols = {f"x{i}": sites[:, i] for i in range(sites.shape[1])}
        write_csv(p, cols | {"value": values}, {"seed": 1, "config": "abc"})
        sites2, values2, meta = read_field_csv(p)
        assert np.array_equal(sites, sites2)
        assert np.array_equal(values, values2)   # bit exact via repr round-trip
        assert meta["config"] == "abc"


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_gradient_integrates_back(N, d, seed):
    # integer heights: every difference and partial sum is exact
    lat = TorusLattice(N, d)
    phi = np.random.default_rng(seed).integers(-5, 6, size=lat.shape).astype(float)
    eta = eta_tilde(lat, phi)
    assert plaquette_circulation(eta) == 0.0
    assert winding(eta) == 0.0
    assert np.array_equal(integrate_bonds(eta), phi - phi.flat[0])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=6, max_value=20))
def test_property_interior_scales_monotonically(N):
    # a finer lattice never loses interior coverage on the unit interval
    if N < 6:
        return
    coarse = discretize_domain(UNIT_BOX_1D, N)
    fine = discretize_domain(UNIT_BOX_1D, 2 * N)
    cover_coarse = coarse.n_interior / N
    cover_fine = fine.n_interior / (2 * N)
    assert cover_fine >= cover_coarse - 1e-9
