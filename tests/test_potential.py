import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab import (
    Potential,
    SplitFailed,
    TemperatureRegime,
    beta0,
    certify,
    make_cosine_perturbed,
    make_gaussian,
    make_split_bump,
    split_potential,
)
from heightlab.potential import bump_callables, potential_from_spec


class TestGaussian:
    def test_point_values(self):
        pot = make_gaussian()
        assert pot.v(2.0) == 2.0
        assert pot.vp(2.0) == 2.0
        assert pot.vpp(17.3) == 1.0
        assert pot.gp(0.4) == 0.0 and pot.gpp(0.4) == 0.0
        assert pot.c_minus == 1.0 and pot.c_plus == 1.0 and pot.c_g == 0.0

    def test_certify_clean(self):
        rep = certify(make_gaussian())
        assert rep.ok
        assert rep.v0pp_min == 1.0 and rep.v0pp_max == 1.0
        assert rep.g_bound_max == 0.0
        assert rep.symmetry_defect == 0.0
        assert rep.split_defect == 0.0


class TestCosinePerturbed:
    def test_zero_amplitude_is_quadratic(self):
        pot = make_cosine_perturbed(0.0, 1.0)
        x = np.linspace(-5, 5, 101)
        assert np.allclose(pot.v(x), 0.5 * x**2, atol=1e-15)
        assert pot.c_g == 0.0

    def test_nonconvex_curvature_points(self):
        pot = make_cosine_perturbed(2.0, 1.0)
        assert pot.vpp(np.pi) == pytest.approx(3.0, abs=1e-12)
        assert pot.vpp(0.0) == pytest.approx(-1.0, abs=1e-12)
        assert pot.c_g == 4.0  # a k + a k^2

    def test_certified_bound_reaches_scan_max(self):
        # |g'| + |g''| = 2|sin| + 2|cos| peaks at 2 sqrt(2), below the
        # declared bound 4
        rep = certify(make_cosine_perturbed(2.0, 1.0))
        assert rep.g_ok
        assert rep.g_bound_max == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-3)
        assert rep.g_bound_max <= 4.0

    def test_split_is_exact(self):
        pot = make_cosine_perturbed(0.7, 2.0)
        x = np.linspace(-30, 30, 1001)
        assert np.max(np.abs(pot.v(x) - pot.v0(x) - pot.g(x))) <= 1e-12


class TestSplitPotential:
    def test_gaussian_split_is_identity(self):
        pot = make_gaussian()
        out = split_potential(pot.v, pot.vp, pot.vpp, M=1.0)
        # alpha = V''(1) * 1 - V'(1) = 0, so V0 = V and g = 0
        x = np.linspace(-8, 8, 401)
        assert np.allclose(out.v0(x), 0.5 * x**2, atol=1e-12)
        assert np.max(np.abs(out.g(x))) <= 1e-12

    def test_cosine_example_at_pi(self):
        # V = x^2/2 + cos x, M = pi: V''(pi) = 2, V'(pi) = pi, alpha = pi
        v = lambda x: 0.5 * np.square(x) + np.cos(x)
        vp = lambda x: np.asarray(x, dtype=float) - np.sin(x)
        vpp = lambda x: 1.0 - np.cos(x)
        out = split_potential(v, vp, vpp, M=np.pi)
        x = np.linspace(-np.pi + 1e-3, np.pi - 1e-3, 101)
        v_pi = 0.5 * np.pi**2 - 1.0
        assert np.allclose(out.v0(x), x**2 + v_pi, atol=1e-10)
        # outer branch: V0 = V + alpha |x|
        y = np.array([4.0, -5.5, 9.0])
        assert np.allclose(out.v0(y), v(y) + np.pi * np.abs(y), atol=1e-10)

    def test_branches_meet_continuously(self):
        out = split_potential(*bump_callables(1.0, 0.5), M=2.0)
        eps = 1e-8
        for s in (+1.0, -1.0):
            m = 2.0 * s
            jump = abs(float(out.v0(m + eps)) - float(out.v0(m - eps)))
            slope = abs(float(out.v0p(m)))
            assert jump <= 2 * eps * slope + 1e-10
            pjump = abs(float(out.v0p(m + eps)) - float(out.v0p(m - eps)))
            assert pjump <= 2 * eps * max(out.c_plus, 1.0) + 1e-10

    def test_split_reassembles(self):
        out = make_split_bump()
        x = np.linspace(-40, 40, 2001)
        defect = np.abs(out.v(x) - out.v0(x) - out.g(x)) / (1.0 + np.abs(out.v(x)))
        assert defect.max() <= 1e-10

    def test_bad_threshold_raises(self):
        # V''(0.1) < 0 for the standard bump, so the quadratic core of
        # the split would be concave
        with pytest.raises(SplitFailed):
            split_potential(*bump_callables(1.0, 0.5), M=0.1)

    def test_stock_bump_certifies(self):
        pot = make_split_bump(1.0, 0.5, 2.0)
        rep = certify(pot)
        assert rep.ok
        assert pot.c_minus > 0


class TestCertify:
    def test_asymmetric_potential_fails(self):
        shifted = Potential(
            name="asym",
            v=lambda x: 0.5 * np.square(x) + np.asarray(x, dtype=float),
            vp=lambda x: np.asarray(x, dtype=float) + 1.0,
            vpp=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            v0=lambda x: 0.5 * np.square(x) + np.asarray(x, dtype=float),
            v0p=lambda x: np.asarray(x, dtype=float) + 1.0,
            v0pp=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            g=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            gp=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            gpp=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            c_minus=1.0,
            c_plus=1.0,
            c_g=0.0,
        )
        rep = certify(shifted)
        assert rep.symmetry_defect > 0
        assert not rep.symmetry_ok
        assert not rep.ok

    def test_grid_must_cover_core(self):
        with pytest.raises(ValueError):
            certify(make_gaussian(), lo=-5.0, hi=5.0)

    @pytest.mark.parametrize(
        "pot",
        [make_gaussian(), make_cosine_perturbed(0.5, 1.0), make_split_bump()],
        ids=["gaussian", "cosine", "split_bump"],
    )
    def test_derivatives_consistent(self, pot):
        # central differences of V match V' to O(h^2); same for V' vs V''
        x = np.linspace(-6.0, 6.0, 241)
        h = 1e-5
        fd1 = (pot.v(x + h) - pot.v(x - h)) / (2 * h)
        assert np.max(np.abs(fd1 - pot.vp(x))) < 5e-9
        fd2 = (pot.vp(x + h) - pot.vp(x - h)) / (2 * h)
        assert np.max(np.abs(fd2 - pot.vpp(x))) < 5e-9

    def test_lipschitz_constant_honoured(self):
        for pot in (make_gaussian(), make_cosine_perturbed(2.0, 1.0)):
            rep = certify(pot)
            assert rep.lipschitz_ok
            assert rep.vp_slope_max <= pot.c_plus + pot.c_g + 1e-6


class TestBeta0:
    def test_printed_example(self):
        assert beta0(1.0, 1.0, 1.0, 1.0, 1.0, 1) == pytest.approx(1.0 / 32)

    def test_doubling_gpp_divides_by_four(self):
        base = beta0(1.0, 1.0, 1.0, 1.0, 1.0, 1)
        assert beta0(1.0, 1.0, 1.0, 1.0, 2.0, 1) == pytest.approx(base / 4)

    def test_doubling_dimension_halves(self):
        base = beta0(1.0, 1.0, 1.0, 1.0, 1.0, 1)
        assert beta0(1.0, 1.0, 1.0, 1.0, 1.0, 2) == pytest.approx(base / 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            beta0(-1.0, 1.0, 1.0, 1.0, 1.0, 1)

    def test_regime_threshold(self):
        regime = TemperatureRegime(
            beta=1.0 / 40, c_minus=1.0, c_plus=1.0, d_plus=1.0,
            q=1.0, gpp_norm=1.0, d=1,
        )
        assert regime.beta0 == pytest.approx(1.0 / 32)
        assert regime.small_enough
        hot = TemperatureRegime(
            beta=1.0 / 8, c_minus=1.0, c_plus=1.0, d_plus=1.0,
            q=1.0, gpp_norm=1.0, d=1,
        )
        assert not hot.small_enough


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "pot",
        [make_gaussian(), make_cosine_perturbed(0.3, 2.0), make_split_bump(1.0, 0.5, 2.0)],
        ids=["gaussian", "cosine", "split_bump"],
    )
    def test_roundtrip(self, pot):
        rebuilt = potential_from_spec(pot.spec)
        assert rebuilt.spec == pot.spec
        x = np.linspace(-10, 10, 301)
        assert np.allclose(rebuilt.v(x), pot.v(x), atol=1e-12)
        assert rebuilt.c_minus == pot.c_minus
        assert rebuilt.c_g == pot.c_g

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            potential_from_spec({"kind": "gaussian", "bogus": 1})
        with pytest.raises(ValueError):
            potential_from_spec({"kind": "nope"})


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=-15.0, max_value=15.0),
)
def test_property_cosine_split_identity(a, kappa, x):
    pot = make_cosine_perturbed(a, kappa)
    v = float(pot.v(x))
    assert abs(v - float(pot.v0(x)) - float(pot.g(x))) <= 1e-10 * (1 + abs(v))
    assert abs(float(pot.gp(x))) + abs(float(pot.gpp(x))) <= pot.c_g + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1.2, max_value=4.0))
def test_property_bump_split_valid_above_threshold(M):
    # thresholds beyond the non-convex core always certify
    pot = split_potential(*bump_callables(1.0, 0.5), M=M)
    assert pot.c_minus > 0
    x = np.linspace(-3 * M, 3 * M, 501)
    assert np.max(np.abs(pot.v(x) - pot.v0(x) - pot.g(x))) <= 1e-10
