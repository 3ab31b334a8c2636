"""Bond potentials V = V0 + g and their certification.

The model accepts symmetric C^2 potentials that split into a uniformly
convex part V0 (curvature pinched between c_minus and c_plus) plus a
bounded perturbation g with |g'| + |g''| <= c_g.  Constants are certified
by a dense grid scan rather than trusted, and a perturbation-strength
threshold beta0 marks the regime where the gradient Gibbs measures are
known to behave like the unperturbed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import SplitFailed

Array = np.ndarray


@dataclass(frozen=True)
class Potential:
    """Callable bundle (V, V', V'') with its convex/perturbation split.

    All callables are numpy-vectorized.  ``c_minus``/``c_plus`` bound the
    curvature of V0, ``c_g`` bounds |g'| + |g''|; these are declared
    values, checked against a grid scan by :func:`certify`.  ``spec`` is
    the plain dict :func:`potential_from_spec` rebuilds a stock potential
    from, and ``None`` for any other.
    """

    name: str
    v: Callable[[Array], Array]
    vp: Callable[[Array], Array]
    vpp: Callable[[Array], Array]
    v0: Callable[[Array], Array]
    v0p: Callable[[Array], Array]
    v0pp: Callable[[Array], Array]
    g: Callable[[Array], Array]
    gp: Callable[[Array], Array]
    gpp: Callable[[Array], Array]
    c_minus: float
    c_plus: float
    c_g: float
    spec: dict | None = None

    @property
    def drift_lipschitz(self) -> float:
        """Bound on |V''|, hence a Lipschitz constant for V'."""
        return self.c_plus + self.c_g

    def __repr__(self):
        return f"Potential({self.name!r})"


def make_gaussian() -> Potential:
    """Quadratic potential V(x) = x^2 / 2; the exactly solvable case."""
    return Potential(
        name="gaussian",
        v=lambda x: 0.5 * np.square(x),
        vp=lambda x: np.asarray(x, dtype=float),
        vpp=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        v0=lambda x: 0.5 * np.square(x),
        v0p=lambda x: np.asarray(x, dtype=float),
        v0pp=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        g=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gp=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gpp=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c_minus=1.0,
        c_plus=1.0,
        c_g=0.0,
        spec={"kind": "gaussian"},
    )


def make_cosine_perturbed(a: float, kappa: float) -> Potential:
    """V(x) = x^2 / 2 + a cos(kappa x), non-convex once a kappa^2 > 1.

    The split is V0 = x^2 / 2 and g = a cos(kappa x), so
    c_g = |a| kappa + |a| kappa^2.
    """
    a = float(a)
    kappa = float(kappa)
    return Potential(
        name=f"cosine(a={a:g},kappa={kappa:g})",
        v=lambda x: 0.5 * np.square(x) + a * np.cos(kappa * x),
        vp=lambda x: np.asarray(x, dtype=float) - a * kappa * np.sin(kappa * x),
        vpp=lambda x: 1.0 - a * kappa**2 * np.cos(kappa * x),
        v0=lambda x: 0.5 * np.square(x),
        v0p=lambda x: np.asarray(x, dtype=float),
        v0pp=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        g=lambda x: a * np.cos(kappa * x),
        gp=lambda x: -a * kappa * np.sin(kappa * x),
        gpp=lambda x: -a * kappa**2 * np.cos(kappa * x),
        c_minus=1.0,
        c_plus=1.0,
        c_g=abs(a) * kappa + abs(a) * kappa**2,
        spec={"kind": "cosine", "a": a, "kappa": kappa},
    )


def bump_callables(a: float = 1.0, w: float = 0.5):
    """Raw (v, v', v'') for V(x) = x^2/2 + a exp(-x^2 / (2 w^2)).

    Non-convex at the origin when a > w^2, but uniformly convex in the
    tails, so it admits a threshold split.  Used as the stock input to
    :func:`split_potential`.
    """
    a = float(a)
    w = float(w)

    def v(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x**2 + a * np.exp(-(x**2) / (2 * w**2))

    def vp(x):
        x = np.asarray(x, dtype=float)
        return x - (a * x / w**2) * np.exp(-(x**2) / (2 * w**2))

    def vpp(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + a * (x**2 - w**2) / w**4 * np.exp(-(x**2) / (2 * w**2))

    return v, vp, vpp


def split_potential(
    v: Callable[[Array], Array],
    vp: Callable[[Array], Array],
    vpp: Callable[[Array], Array],
    M: float,
    name: str = "split",
) -> Potential:
    """Threshold split of a symmetric C^2 potential at |x| = M.

    Inside [-M, M] the convex part is the parabola with curvature V''(M)
    matched in value and slope to the outer branch; outside it is
    V(x) + alpha |x| with alpha = V''(M) M - V'(M).  The remainder
    g = V - V0 then has compactly supported g'' and bounded g'.

    The split is certified on a grid of step 1e-3 over
    [-max(3M + 5, 20), max(3M + 5, 20)]: the measured curvature of V0
    must stay positive and |g'| + |g''| must not keep growing at the grid
    edge, else ``SplitFailed``.
    """
    M = float(M)
    if M <= 0:
        raise ValueError("threshold M must be positive")
    cM = float(vpp(np.array(M)))
    sM = float(vp(np.array(M)))
    vM = float(v(np.array(M)))
    alpha = cM * M - sM
    const = -0.5 * cM * M**2 + vM + alpha * M

    def v0(x):
        x = np.asarray(x, dtype=float)
        inner = 0.5 * cM * x**2 + const
        outer = v(x) + alpha * np.abs(x)
        return np.where(np.abs(x) <= M, inner, outer)

    def v0p(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= M, cM * x, vp(x) + alpha * np.sign(x))

    def v0pp(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= M, cM, vpp(x))

    def g(x):
        x = np.asarray(x, dtype=float)
        return v(x) - v0(x)

    def gp(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= M, vp(x) - cM * x, -alpha * np.sign(x))

    def gpp(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= M, vpp(x) - cM, 0.0)

    half, step = max(3 * M + 5.0, 20.0), 1e-3
    xs = np.arange(-half, half + step / 2, step)
    curv = v0pp(xs)
    c_minus = float(curv.min())
    c_plus = float(curv.max())
    gbound = np.abs(gp(xs)) + np.abs(gpp(xs))
    c_g = float(gbound.max())
    if c_minus <= 0.0:
        raise SplitFailed(
            f"V0'' reaches {c_minus:.3e} at |x| ~ "
            f"{abs(xs[int(np.argmin(curv))]):.3f}; no uniformly convex split"
        )
    tail = gbound[-200:]
    if tail[-1] > tail[0] + 1e-9 and tail[-1] > 0.99 * c_g:
        raise SplitFailed("|g'| + |g''| still growing at the grid edge")
    return Potential(
        name=name,
        v=lambda x: np.asarray(v(x), dtype=float),
        vp=lambda x: np.asarray(vp(x), dtype=float),
        vpp=lambda x: np.asarray(vpp(x), dtype=float),
        v0=v0,
        v0p=v0p,
        v0pp=v0pp,
        g=g,
        gp=gp,
        gpp=gpp,
        c_minus=c_minus,
        c_plus=c_plus,
        c_g=c_g,
    )


def make_split_bump(a: float = 1.0, w: float = 0.5, M: float = 2.0) -> Potential:
    """Stock non-convex potential with a certified threshold split."""
    pot = split_potential(
        *bump_callables(a, w), M=M, name=f"split_bump(a={a:g},w={w:g},M={M:g})"
    )
    return replace(
        pot, spec={"kind": "split_bump", "a": float(a), "w": float(w), "M": float(M)}
    )


# kind -> (factory, parameter defaults): the one list of stock potentials
STOCK_KINDS = {
    "gaussian": (make_gaussian, {}),
    "cosine": (make_cosine_perturbed, {"a": 0.2, "kappa": 1.0}),
    "split_bump": (make_split_bump, {"a": 1.0, "w": 0.5, "M": 2.0}),
}


def potential_from_spec(spec: dict) -> Potential:
    """Rebuild a stock potential from a plain dict, as config files give it.

    ``spec["kind"]`` names an entry of ``STOCK_KINDS``; parameters it
    leaves out take that entry's defaults.
    """
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in STOCK_KINDS:
        raise ValueError(f"unknown potential kind {kind!r}")
    factory, defaults = STOCK_KINDS[kind]
    unknown = sorted(set(spec) - set(defaults))
    if unknown:
        raise ValueError(f"unexpected potential keys {unknown}")
    return factory(**(defaults | spec))


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertificationReport:
    potential: str
    v0pp_min: float
    v0pp_max: float
    g_bound_max: float          # max of |g'| + |g''| on the grid
    symmetry_defect: float      # max |V(x) - V(-x)|
    split_defect: float         # max |V - V0 - g| / (1 + |V|)
    vp_slope_max: float         # max finite-difference slope of V'
    curvature_ok: bool
    g_ok: bool
    symmetry_ok: bool
    split_ok: bool
    lipschitz_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.curvature_ok
            and self.g_ok
            and self.symmetry_ok
            and self.split_ok
            and self.lipschitz_ok
        )


def certify(pot: Potential) -> CertificationReport:
    """Grid-scan check of a potential against its declared constants.

    The scan runs over [-50, 50] at step 1e-3.  Curvature of V0 must stay
    in [c_minus - 1e-9, c_plus + 1e-9], |g'| + |g''| below c_g + 1e-9,
    V must be even to 1e-10 and equal V0 + g to relative 1e-10, and the
    finite-difference slope of V' must not exceed c_plus + c_g + step.
    """
    step, slack = 1e-3, 1e-9
    xs = np.arange(-50.0, 50.0 + step / 2, step)
    curv = pot.v0pp(xs)
    gbound = np.abs(pot.gp(xs)) + np.abs(pot.gpp(xs))
    vx = pot.v(xs)
    sym = float(np.abs(vx - pot.v(-xs)).max())
    split = float((np.abs(vx - pot.v0(xs) - pot.g(xs)) / (1.0 + np.abs(vx))).max())
    slopes = np.abs(np.diff(pot.vp(xs))) / step
    return CertificationReport(
        potential=pot.name,
        v0pp_min=float(curv.min()),
        v0pp_max=float(curv.max()),
        g_bound_max=float(gbound.max()),
        symmetry_defect=sym,
        split_defect=split,
        vp_slope_max=float(slopes.max()),
        curvature_ok=bool(
            curv.min() >= pot.c_minus - slack and curv.max() <= pot.c_plus + slack
        ),
        g_ok=bool(gbound.max() <= pot.c_g + slack),
        symmetry_ok=bool(sym <= 1e-10),
        split_ok=bool(split <= 1e-10),
        lipschitz_ok=bool(slopes.max() <= pot.drift_lipschitz + step),
    )


# ---------------------------------------------------------------------------
# perturbation-strength threshold


def beta0(
    c_minus: float,
    c_plus: float,
    d_plus: float,
    q: float,
    gpp_norm: float,
    d: int,
) -> float:
    """Smallness threshold for the perturbation strength.

    beta0 = c_minus^(3q) / (2 d 2^(2q) (c_plus + d_plus)^(q+1) ||g''||^(2q)).
    Scales linearly in 1/d and inversely with ||g''||^(2q).
    """
    if min(c_minus, c_plus, d_plus, q, gpp_norm) <= 0 or d < 1:
        raise ValueError("beta0 needs positive constants and d >= 1")
    num = c_minus ** (3 * q)
    den = 2 * d * 2 ** (2 * q) * (c_plus + d_plus) ** (q + 1) * gpp_norm ** (2 * q)
    return num / den


@dataclass(frozen=True)
class TemperatureRegime:
    """Perturbation strength beta against its smallness threshold."""

    beta: float
    c_minus: float
    c_plus: float
    d_plus: float
    q: float
    gpp_norm: float
    d: int

    @property
    def beta0(self) -> float:
        return beta0(
            self.c_minus, self.c_plus, self.d_plus, self.q, self.gpp_norm, self.d
        )

    @property
    def small_enough(self) -> bool:
        return self.beta <= self.beta0
