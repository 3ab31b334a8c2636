"""Langevin dynamics for height fields.

The stochastic dynamics is

    d phi_t(x) = -sum_{y ~ x} V'(phi_t(x) - phi_t(y)) dt + sqrt(2) dw_t(x),

whose invariant density is proportional to exp(-H) with
H = sum over undirected bonds of V(gradient).  Two settings:

* ``DirichletSystem``: heights evolve on the interior sites of a
  discretized domain while every exterior site is clamped to boundary
  data for all time.
* ``TiltedPeriodicSystem``: zero-average representative heights on a
  torus carrying a fixed mean tilt u; bond variables are eta_tilde + u_i
  and the energy sums V over the tilted bonds.

The Euler-Maruyama step keeps dt below 0.1 / (2 d Lip(V')); the scheme
is then a contraction in the convex part and stays finite.

A ``DirichletSystem`` draws its noise ahead, in per-replica blocks of
several steps, from the same per-replica streams: a Generator fills an
array in draw order, so a block holds exactly the numbers that one
``standard_normal(n_interior)`` call per step would give.  The block is
sized to ``NOISE_BLOCK_BYTES`` (never less than one step), so batched
runs stay small in memory however many steps they take.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import NonFinite, StepTooLarge, TimeMismatch
from .lattice import DiscretizedDomain, HeightField, TorusLattice
from .rng import seed_key, stream

# Linear-growth constant for the energy diagnostic, frozen from the
# calibration run in scripts/calibrate_energy_bound.py (Gaussian
# potential, unit box, zero boundary data, N = 16, d = 1, 32 replicas,
# master seed 0; least-squares slope 1.443 of the mean left side
# against t, times a 1.2 safety factor, rounded up).
K_ENERGY_DEFAULT = 1.74

# Bytes of pre-drawn noise a DirichletSystem keeps, for all replicas
# together; one step's worth is drawn even if that is more.
NOISE_BLOCK_BYTES = 256 * 1024


def step_cap(pot, d: int) -> float:
    """Largest admissible Euler-Maruyama step for this potential."""
    lip = pot.drift_lipschitz
    if lip <= 0:
        return np.inf
    return 0.1 / (2 * d * lip)


@cache
def _wrap_slices(ax: int):
    """Index tuples selecting [0:1], [1:], [-1:] and [:-1] along axis ``ax``."""
    pre = (slice(None),) * ax
    return tuple(
        pre + (s,)
        for s in (slice(0, 1), slice(1, None), slice(-1, None), slice(None, -1))
    )


def _forward_differences(phi: np.ndarray, d: int) -> list[np.ndarray]:
    """Periodic differences phi(x + e_i) - phi(x) along each of the last d axes."""
    out = []
    for ax in range(phi.ndim - d, phi.ndim):
        first, rest, last, init = _wrap_slices(ax)
        e = np.empty_like(phi)
        np.subtract(phi[rest], phi[init], out=e[init])
        np.subtract(phi[first], phi[last], out=e[last])
        out.append(e)
    return out


class BondPass(NamedTuple):
    """One pass over the tilted bonds of a height array, per axis i.

    Arrays keep the leading chain or replica axes of the heights; the
    energy and the V sums are per chain (a scalar without leading axes).
    """

    energy: np.ndarray | float | None  # sum of v_sums in axis order; None without V
    grad: np.ndarray                   # dH/dphi
    diffs: list                        # untilted differences eta_tilde
    vp: list                           # V' on the tilted bonds
    v_sums: list | None                # sums of V over the tilted bonds; None without V


class TiltedPeriodicSystem:
    """Representative heights on a torus with a frozen mean tilt.

    ``phi`` stores the zero-winding part; the physical bond variable
    along axis i is phi(x + e_i) - phi(x) + tilt_i.  With a tilt of
    shape (d,), leading axes of ``phi`` beyond the lattice shape are
    independent replicas that share it and one stream, ``seed``.  With a
    tilt of shape (B, d), ``phi`` holds B chains, chain j carries tilt
    row j and draws from its own stream ``seed[j]``; ``rngs`` lists the
    streams and ``rng`` is the first.  The tilt is fixed at construction.
    """

    def __init__(self, lattice: TorusLattice, pot, tilt, phi=None, seed=0):
        tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
        if tilt.ndim > 2 or tilt.shape[-1] != lattice.d:
            raise ValueError(f"tilt must have {lattice.d} components")
        chains = tilt.shape[:-1]
        tilt.flags.writeable = False
        self.lattice = lattice
        self.pot = pot
        self._tilt = tilt
        if phi is None:
            phi = np.zeros(chains + lattice.shape)
        phi = np.asarray(phi, dtype=float)
        if phi.shape[-lattice.d :] != lattice.shape:
            raise ValueError("phi trailing axes must match the lattice shape")
        if chains:
            phi = np.broadcast_to(phi, chains + lattice.shape)
        self.phi = phi.copy()
        self.t = 0.0
        self.seed = seed
        seeds = (list(seed) if np.iterable(seed) else []) if chains else [seed]
        if len(seeds) != (chains[0] if chains else 1):
            raise ValueError("a batch of chains needs one seed per chain")
        self.rngs = [stream(*seed_key(s), 0) for s in seeds]
        self.rng = self.rngs[0]
        # tilt of axis i at index i: a scalar, or per chain a full array,
        # which numpy adds faster than a broadcast column
        self._axis_tilts = tilt
        if chains:
            column = (-1,) + (1,) * lattice.d
            self._axis_tilts = [
                np.broadcast_to(t.reshape(column), self.phi.shape).copy()
                for t in tilt.T
            ]

    @property
    def tilt(self) -> np.ndarray:
        """Mean tilt, (d,) or one row per chain (B, d); read-only."""
        return self._tilt

    def eta_tilde(self) -> list[np.ndarray]:
        """Untilted bond differences, component i on bonds (x + e_i, x)."""
        return _forward_differences(self.phi, self.lattice.d)

    def bond_pass(self, phi: np.ndarray, with_energy: bool = True) -> BondPass:
        """Energy, dH/dphi, eta_tilde and V' of the heights ``phi`` in one pass.

        ``phi`` has this system's lattice axes last, after its replica or
        chain axes.  Each axis evaluates V' once on its tilted bonds, and
        V once unless ``with_energy`` is false, in which case the energy
        and the V sums are None.
        """
        d = self.lattice.d
        axes = tuple(range(phi.ndim - d, phi.ndim))
        tilts = self._axis_tilts
        diffs = _forward_differences(phi, d)
        v_sums = [] if with_energy else None
        vps = []
        grad = np.zeros_like(phi)
        for i, e in enumerate(diffs):
            bond = e + tilts[i]
            if with_energy:
                v_sums.append(self.pot.v(bond).sum(axis=axes))
            a = self.pot.vp(bond)
            vps.append(a)
            # site x gets V' of bond (x, x - e_i) minus V' of bond (x + e_i, x)
            first, rest, last, init = _wrap_slices(axes[i])
            grad[rest] += a[init] - a[rest]
            grad[first] += a[last] - a[first]
        energy = None
        if with_energy:
            energy = 0.0
            for s in v_sums:
                energy = energy + s
        return BondPass(energy, grad, diffs, vps, v_sums)

    def energy(self) -> np.ndarray | float:
        """H = sum of V over undirected tilted bonds (per replica)."""
        return self.bond_pass(self.phi).energy

    def drift(self) -> np.ndarray:
        """-dH/dphi, vectorized over sites and replicas."""
        return -self.bond_pass(self.phi, with_energy=False).grad


class DirichletSystem:
    """Heights on a discretized domain, clamped to boundary data outside.

    ``boundary`` holds one value per domain site; only the non-interior
    entries act as the constraint.  ``phi`` has shape (n_sites,) or
    (replicas, n_sites); replica r draws from its own stream (seed, r).

    Noise is drawn K steps at a time into one (replicas, K, n_interior)
    block, one ``standard_normal(out=...)`` call per replica, and handed
    out a step at a time; the stream, and hence every trajectory, is the
    same as with one draw per replica and step.  K is the number of steps
    that fit in ``NOISE_BLOCK_BYTES``, at least 1.  Noise-free steps
    draw nothing.
    """

    def __init__(
        self,
        domain: DiscretizedDomain,
        pot,
        boundary: np.ndarray,
        phi0: np.ndarray | None = None,
        seed: int = 0,
        replicas: int | None = None,
    ):
        boundary = np.asarray(boundary, dtype=float)
        if boundary.shape != (domain.n_sites,):
            raise ValueError("boundary data must cover every domain site")
        self.domain = domain
        self.pot = pot
        self.boundary = boundary.copy()
        if phi0 is None:
            phi0 = boundary.copy()
        phi0 = np.asarray(phi0, dtype=float)
        if replicas is not None:
            phi0 = np.broadcast_to(phi0, (replicas, domain.n_sites)).copy()
        self.phi = phi0.copy()
        if self.phi.shape[-1] != domain.n_sites:
            raise ValueError("phi must cover every domain site")
        self.phi[..., domain.n_interior :] = boundary[domain.n_interior :]
        self.t = 0.0
        self.seed = seed
        n_rep = 1 if self.phi.ndim == 1 else self.phi.shape[0]
        self.rngs = [stream(*seed_key(seed), r) for r in range(n_rep)]
        n_int = domain.n_interior
        k = max(1, NOISE_BLOCK_BYTES // (8 * n_rep * n_int))
        self._block = np.empty((n_rep, k, n_int))
        self._drawn = k  # steps of the block already handed out
        self._nbrs_t = np.ascontiguousarray(domain.neighbors.T)  # (2d, n_int)

    def drift_interior(self) -> np.ndarray:
        """-sum_{y ~ x} V'(phi(x) - phi(y)) on interior sites."""
        n_int = self.domain.n_interior
        if self.domain.d < 4:
            # numpy adds fewer than 8 terms left to right along any axis, so
            # reducing the (..., 2d, n_int) gather over axis -2 gives the
            # same bits as the slow short-axis sum of (..., n_int, 2d)
            center = self.phi[..., None, :n_int]
            return -self.pot.vp(center - self.phi[..., self._nbrs_t]).sum(axis=-2)
        # from 8 terms on (d >= 4) numpy's order depends on the memory
        # layout of the terms, so these keep the (..., n_int, 2d) gather
        center = self.phi[..., :n_int, None]
        return -self.pot.vp(center - self.phi[..., self.domain.neighbors]).sum(axis=-1)

    def dirichlet_sum(self) -> np.ndarray | float:
        """Sum of squared gradients over directed closure bonds."""
        heads = self.domain.bonds_closure[:, 0]
        tails = self.domain.bonds_closure[:, 1]
        diff = self.phi[..., heads] - self.phi[..., tails]
        return 2.0 * np.square(diff).sum(axis=-1)

    def _noise(self) -> np.ndarray:
        """Next step's standard normals, (n_interior,) or (replicas, n_interior).

        The result is a view into the block, valid until the block is refilled.
        """
        block = self._block
        if self._drawn == block.shape[1]:
            for g, rows in zip(self.rngs, block):
                g.standard_normal(out=rows)
            self._drawn = 0
        k = self._drawn
        self._drawn += 1
        return block[0, k] if self.phi.ndim == 1 else block[:, k]


def em_step(system, dt: float, noise_scale: float = 1.0) -> None:
    """One Euler-Maruyama step phi += drift dt + sqrt(2 dt) xi, in place.

    ``noise_scale=0`` gives the deterministic gradient flow (test hook).
    Raises ``StepTooLarge`` above the stability cap and ``NonFinite`` if
    the state leaves float range.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    d = (
        system.lattice.d
        if isinstance(system, TiltedPeriodicSystem)
        else system.domain.d
    )
    cap = step_cap(system.pot, d)
    if dt > cap:
        raise StepTooLarge(f"dt={dt:g} exceeds cap {cap:g}")
    amp = noise_scale * np.sqrt(2.0 * dt)
    if isinstance(system, TiltedPeriodicSystem):
        system.phi += dt * system.drift()
        if amp:
            system.phi += amp * system.rng.standard_normal(system.phi.shape)
    else:
        n_int = system.domain.n_interior
        incr = dt * system.drift_interior()
        if amp:
            incr += amp * system._noise()
        system.phi[..., :n_int] += incr
        # re-assert the clamp; exterior sites never move
        system.phi[..., n_int:] = system.boundary[n_int:]
    if not np.isfinite(system.phi).all():
        raise NonFinite("height field left float range")
    system.t += dt


# ---------------------------------------------------------------------------
# macroscopic profiles


class MacroscopicField:
    """Piecewise-constant profile h(theta) = value on the cell B(x/N, 1/N).

    Values cover every cell that meets the domain; exterior queries
    return 0.  ``sample`` and ``cell_centers`` make the field usable by
    the L2 comparison in :mod:`heightlab.pde`.
    """

    def __init__(self, N: int, sites: np.ndarray, values: np.ndarray, spec):
        self.N = int(N)
        self.sites = np.asarray(sites)
        self.values = np.asarray(values, dtype=float)
        self.spec = spec
        self._lookup = None

    @property
    def spacing(self) -> float:
        return 1.0 / self.N

    @property
    def cell_volume(self) -> float:
        return self.N ** (-self.sites.shape[1])

    def cell_centers(self) -> np.ndarray:
        return self.sites / self.N

    def _build_lookup(self):
        lo = self.sites.min(axis=0)
        hi = self.sites.max(axis=0)
        shape = tuple(hi - lo + 1)
        table = np.full(shape, -1, dtype=np.int64)
        table[tuple((self.sites - lo).T)] = np.arange(len(self.sites))
        self._lookup = (lo, hi, table)

    def cell_ids(self, points: np.ndarray) -> np.ndarray:
        """Index into ``values`` of the cell containing each point, -1 outside coverage."""
        if self._lookup is None:
            self._build_lookup()
        lo, hi, table = self._lookup
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = np.floor(self.N * pts + 0.5).astype(np.int64)
        inside = np.all((cells >= lo) & (cells <= hi), axis=1)
        ids = np.full(len(pts), -1, dtype=np.int64)
        ids[inside] = table[tuple((cells[inside] - lo).T)]
        return ids

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Value of the cell containing each point (0 outside coverage)."""
        ids = self.cell_ids(points)
        ok = ids >= 0
        out = np.zeros(len(ids))
        out[ok] = self.values[ids[ok]]
        return out

    def l2_norm_sq(self) -> float:
        """Squared L2(D) norm, cells weighted by their overlap with D."""
        w = domain_cell_weights(self.spec, self.N, self.sites)
        return float(np.dot(self.values**2, w))


def domain_cell_weights(spec, N: int, sites: np.ndarray) -> np.ndarray:
    """Volume of cell(x) intersected with the domain, per site.

    Exact for boxes; balls and polytopes use a midpoint subgrid of the
    cell (error O(cell side / 12)).
    """
    sites = np.asarray(sites)
    m, d = sites.shape
    if spec.shape == "box":
        lo, hi = spec.bounding_box()
        left = np.maximum(sites / N - 0.5 / N, lo)
        right = np.minimum(sites / N + 0.5 / N, hi)
        return np.prod(np.clip(right - left, 0.0, None), axis=1)
    k = 12 if d == 1 else (8 if d == 2 else 4)
    offs = (np.arange(k) + 0.5) / k - 0.5
    grids = np.meshgrid(*([offs] * d), indexing="ij")
    sub = np.stack([g.ravel() for g in grids], axis=-1)  # (k^d, d)
    pts = sites[:, None, :] / N + sub[None, :, :] / N
    frac = spec.contains(pts.reshape(-1, d)).reshape(m, -1).mean(axis=1)
    return frac * N ** (-d)


def macro_height(system: DirichletSystem, t_macro: float, tol: float | None = None):
    """Diffusively rescaled profile at macroscopic time t.

    Requires the system clock to sit at N^2 t within ``tol`` (default
    1e-9 relative), else ``TimeMismatch``.  For replicated systems a
    list of fields is returned.
    """
    dom = system.domain
    micro = dom.N**2 * t_macro
    if tol is None:
        tol = 1e-9 * max(1.0, abs(micro))
    if abs(system.t - micro) > tol:
        raise TimeMismatch(
            f"system at t={system.t:g}, requested {micro:g} (macro {t_macro:g})"
        )
    vals = system.phi / dom.N
    if vals.ndim == 1:
        return MacroscopicField(dom.N, dom.sites, vals, dom.spec)
    return [MacroscopicField(dom.N, dom.sites, v, dom.spec) for v in vals]


# ---------------------------------------------------------------------------
# energy diagnostic


@dataclass
class EnergyTrace:
    """Checkpointed norms and the running Dirichlet-energy integral.

    ``h_norm_sq`` and ``dirichlet_integral`` have shape (n_times,
    replicas); the integral is N^{-d} int_0^t sum over directed closure
    bonds of the squared gradient, in macroscopic time, accumulated with
    left endpoints.
    """

    times: np.ndarray
    h_norm_sq: np.ndarray
    dirichlet_integral: np.ndarray
    initial_norm_sq: np.ndarray


def run_dirichlet(
    system: DirichletSystem,
    dt: float,
    times,
    noise_scale: float = 1.0,
    collect=None,
) -> EnergyTrace:
    """Evolve to each macroscopic checkpoint, recording the energy trace.

    ``times`` are macroscopic; each segment is integrated with a step
    just below ``dt`` chosen to land exactly.  ``collect(t, system)`` is
    called at every checkpoint if given.
    """
    dom = system.domain
    times = np.asarray(sorted(float(t) for t in times))
    if (times < 0).any():
        raise ValueError("checkpoint times must be nonnegative")
    n_rep = 1 if system.phi.ndim == 1 else system.phi.shape[0]
    scale = dom.N ** (-dom.d)
    weights = domain_cell_weights(dom.spec, dom.N, dom.sites)

    def norm_sq():
        h = system.phi / dom.N
        return np.atleast_1d((h**2) @ weights)

    initial = norm_sq()
    h_out = np.zeros((len(times), n_rep))
    i_out = np.zeros((len(times), n_rep))
    integral = np.zeros(n_rep)
    t_macro = 0.0
    for k, t_next in enumerate(times):
        span = (t_next - t_macro) * dom.N**2
        if span > 0:
            n_steps = max(1, int(np.ceil(span / dt)))
            dt_eff = span / n_steps
            for _ in range(n_steps):
                integral += (
                    np.atleast_1d(system.dirichlet_sum()) * scale * dt_eff / dom.N**2
                )
                em_step(system, dt_eff, noise_scale=noise_scale)
        t_macro = t_next
        h_out[k] = norm_sq()
        i_out[k] = integral
        if collect is not None:
            collect(t_next, system)
    return EnergyTrace(times, h_out, i_out, initial)


@dataclass
class EnergyDiagnostic:
    times: np.ndarray
    lhs: np.ndarray      # mean over replicas of |h|^2 + c_minus * integral
    rhs: np.ndarray      # 2 E|h(0)|^2 + K (1 + t)
    K: float
    ok: bool


def energy_diagnostic(
    trace: EnergyTrace, c_minus: float, K: float = K_ENERGY_DEFAULT
) -> EnergyDiagnostic:
    """Check E|h(t)|^2 + c_minus E integral <= 2 E|h(0)|^2 + K (1 + t)."""
    lhs = trace.h_norm_sq.mean(axis=1) + c_minus * trace.dirichlet_integral.mean(axis=1)
    rhs = 2.0 * trace.initial_norm_sq.mean() + K * (1.0 + trace.times)
    return EnergyDiagnostic(trace.times, lhs, rhs, K, bool((lhs <= rhs).all()))


# ---------------------------------------------------------------------------
# pointwise drift (reference implementation for tests and small studies)


def drift(pot, field: HeightField, site) -> float:
    """-sum over neighbours y of V'(phi(x) - phi(y)) at one site."""
    lat = field.lattice
    if isinstance(lat, TorusLattice):
        x = tuple(int(c) % lat.N for c in np.atleast_1d(site))
        total = 0.0
        for i in range(lat.d):
            for s in (1, -1):
                y = list(x)
                y[i] = (y[i] + s) % lat.N
                total += float(pot.vp(field.values[x] - field.values[tuple(y)]))
        return -total
    dom = lat
    xid = dom.site_id(np.atleast_1d(site))
    if xid >= dom.n_interior:
        raise ValueError("drift is defined on interior sites only")
    nbrs = dom.neighbors[xid]
    return float(-pot.vp(field.values[xid] - field.values[nbrs]).sum())
