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
runs stay small in memory however many steps they take.  It is 1 MiB
because a Philox fill has a fixed cost per call: with 256 replicas a
256 KiB block gives each ``standard_normal`` call only 128 draws, at
about 28 ns per normal, against about 17 ns from 1024 draws on.

``advance`` is the one loop that steps a ``DirichletSystem`` through
macroscopic checkpoints; ``run_dirichlet`` adds the energy bookkeeping
to it, and hydro runs, which read only the checkpoints, go without.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFinite, StepTooLarge, TimeMismatch
from .lattice import DiscretizedDomain, TorusLattice
from .rng import seed_key, stream

# Linear-growth constant for the energy diagnostic, frozen from the
# calibration run in scripts/calibrate_energy_bound.py (Gaussian
# potential, unit box, zero boundary data, N = 16, d = 1, 32 replicas,
# master seed 0; least-squares slope 1.443 of the mean left side
# against t, times a 1.2 safety factor, rounded up).
K_ENERGY_DEFAULT = 1.74

# Bytes of pre-drawn noise a DirichletSystem keeps, for all replicas
# together; one step's worth is drawn even if that is more.
NOISE_BLOCK_BYTES = 1024 * 1024


def step_cap(pot, d: int) -> float:
    """Largest admissible Euler-Maruyama step for this potential."""
    lip = pot.drift_lipschitz
    if lip <= 0:
        return np.inf
    return 0.1 / (2 * d * lip)


class BondPass(NamedTuple):
    """One pass over the tilted bonds of a height array.

    Per-axis quantities are stacked, axis i in row i, ahead of the leading
    chain or replica axes of the heights; the energy is per chain (a
    scalar without leading axes).
    """

    energy: np.ndarray | float | None  # sum of v_sums in axis order; None without V
    grad: np.ndarray                   # dH/dphi
    diffs: np.ndarray                  # untilted differences eta_tilde, (d,) + phi.shape
    vp: np.ndarray                     # V' on the tilted bonds, (d,) + phi.shape
    v_sums: np.ndarray | None          # V summed per axis, (d,) + chains; None without V


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
        # tilts stacked like the differences, keyed by the number of height
        # axes: per chain one full array, which numpy adds faster than
        # broadcast columns; else columns, made on first use
        self._tilt_stacks = {}
        self._gathers = {}  # height shape -> (fwd, back), see _gather
        if chains:
            column = (lattice.d, -1) + (1,) * lattice.d
            self._tilt_stacks[self.phi.ndim] = np.broadcast_to(
                tilt.T.reshape(column), (lattice.d,) + self.phi.shape
            ).copy()

    @property
    def tilt(self) -> np.ndarray:
        """Mean tilt, (d,) or one row per chain (B, d); read-only."""
        return self._tilt

    def _gather(self, shape: tuple) -> tuple:
        """Flat neighbour indices (fwd, back), (d,) + ``shape`` each, made
        once per height shape: ``phi.take(fwd)[i]`` is phi(x + e_i) and, on
        a stacked (d,) + ``shape`` array, ``a.take(back)[i]`` is a[i](x - e_i).
        """
        idx = self._gathers.get(shape)
        if idx is None:
            n, d, size = self.lattice.n_sites, self.lattice.d, math.prod(shape)
            # fwd: canonical bond heads, offset per leading row; back: their
            # inverse permutation, offset per leading row and per axis row
            heads = self.lattice.bond_heads().reshape(d, 1, n)
            rows = n * np.arange(size // n).reshape(1, -1, 1)
            back = np.argsort(heads, axis=-1) + rows + size * np.arange(d).reshape(d, 1, 1)
            fwd = (heads + rows).reshape((d,) + shape)
            idx = self._gathers[shape] = (fwd, back.reshape((d,) + shape))
        return idx

    def eta_tilde(self) -> np.ndarray:
        """Untilted bond differences, row i on bonds (x + e_i, x)."""
        return self.phi.take(self._gather(self.phi.shape)[0]) - self.phi

    def bond_pass(self, phi: np.ndarray, with_energy: bool = True) -> BondPass:
        """Energy, dH/dphi, eta_tilde and V' of the heights ``phi`` in one pass.

        ``phi`` has this system's lattice axes last, after its replica or
        chain axes; differences and gradient gather through ``_gather``.
        The stacked tilted bonds of all axes go through V' in one call, and
        through V in one more unless ``with_energy`` is false, in which
        case the energy and the V sums are None.
        """
        d = self.lattice.d
        lead = phi.ndim - d  # replica or chain axes
        fwd, back = self._gather(phi.shape)
        diffs = phi.take(fwd) - phi
        tilts = self._tilt_stacks.get(phi.ndim)
        if tilts is None:
            tilts = self._tilt_stacks[phi.ndim] = self._tilt.reshape((d,) + (1,) * phi.ndim)
        bonds = diffs + tilts
        v_sums = energy = None
        if with_energy:
            v_sums = self.pot.v(bonds).sum(axis=tuple(range(lead + 1, phi.ndim + 1)))
            energy = 0.0
            for s in v_sums:
                energy = energy + s
        vp = self.pot.vp(bonds)
        # site x gets V' of bond (x, x - e_i) minus V' of bond (x + e_i, x),
        # added to 0 one axis after the other
        grad = np.add.reduce(vp.take(back) - vp, axis=0, initial=0.0)
        return BondPass(energy, grad, diffs, vp, v_sums)

    def drift(self) -> np.ndarray:
        """-dH/dphi, vectorized over sites and replicas."""
        return -self.bond_pass(self.phi, with_energy=False).grad


class DirichletSystem:
    """Heights on a discretized domain, clamped to boundary data outside.

    ``boundary`` holds one value per domain site; only the non-interior
    entries act as the constraint, are copied into ``phi`` once and must
    be finite (else ``NonFinite``).  ``phi`` has shape (n_sites,) or
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
        # steps never write the clamped sites, so they are checked once, here
        if not np.isfinite(boundary[domain.n_interior :]).all():
            raise NonFinite("boundary data must be finite outside the interior")
        self.domain = domain
        self.pot = pot
        if phi0 is None:
            phi0 = boundary
        phi0 = np.asarray(phi0, dtype=float)
        if replicas is not None:
            phi0 = np.broadcast_to(phi0, (replicas, domain.n_sites))
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

    def drift_interior(self, phi=None) -> np.ndarray:
        """-sum_{y ~ x} V'(phi(x) - phi(y)) on interior sites, of this
        system's heights or of ``phi``, heights laid out like them."""
        phi = self.phi if phi is None else phi
        n_int = self.domain.n_interior
        if self.domain.d < 4:
            # numpy adds fewer than 8 terms left to right along any axis, so
            # reducing the (..., 2d, n_int) gather over axis -2 gives the
            # same bits as the slow short-axis sum of (..., n_int, 2d)
            center = phi[..., None, :n_int]
            return -self.pot.vp(center - phi[..., self._nbrs_t]).sum(axis=-2)
        # from 8 terms on (d >= 4) numpy's order depends on the memory
        # layout of the terms, so these keep the (..., n_int, 2d) gather
        center = phi[..., :n_int, None]
        return -self.pot.vp(center - phi[..., self.domain.neighbors]).sum(axis=-1)

    def energy(self, phi) -> np.ndarray | float:
        """H(phi): V summed over the closure bonds, per replica."""
        heads, tails = self.domain.bonds_closure.T
        return self.pot.v(phi[..., heads] - phi[..., tails]).sum(axis=-1)

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
        moved = system.phi
        moved += dt * system.drift()
        if amp:
            moved += amp * system.rng.standard_normal(system.phi.shape)
    else:
        # only interior sites move; the clamped ones were checked finite
        # when the system was made.  The drift and the noise are fresh or
        # used once, so they are scaled in place.
        incr = system.drift_interior()
        incr *= dt
        if amp:
            noise = system._noise()
            noise *= amp
            incr += noise
        moved = system.phi[..., : system.domain.n_interior]
        moved += incr
    if not np.isfinite(moved).all():
        raise NonFinite("height field left float range")
    system.t += dt


# ---------------------------------------------------------------------------
# macroscopic profiles


class MacroscopicField:
    """Piecewise-constant profile h(theta) = value on the cell B(x/N, 1/N).

    Values cover every cell that meets the domain, one per site, shape
    (n_sites,) or, for replicas, (R, n_sites); exterior queries return 0.
    ``sample`` and ``cell_centers`` make the field usable by the L2
    comparison in :mod:`heightlab.pde`, which gives one gap per replica.
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
        """Value of the cell containing each point (0 outside coverage), a
        fresh (m,) or (R, m) array; ``take`` keeps each replica's row
        contiguous, so its sums match a single row's bit for bit."""
        ids = self.cell_ids(points)
        out = self.values.take(ids, axis=-1)
        out[..., ids < 0] = 0.0
        return out

    def l2_norm_sq(self) -> float | np.ndarray:
        """Squared L2(D) norm, cells weighted by their overlap with D; a
        float, or (R,) for replicas."""
        norm = (self.values**2) @ domain_cell_weights(self.spec, self.N, self.sites)
        return norm if np.ndim(norm) else float(norm)


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


def macro_height(system: DirichletSystem, t_macro: float) -> MacroscopicField:
    """Diffusively rescaled profile at macroscopic time t, one field whose
    values are laid out like the system's heights: (n_sites,) or
    (replicas, n_sites).

    Requires the system clock to sit at N^2 t within 1e-9 relative, else
    ``TimeMismatch``.
    """
    dom = system.domain
    micro = dom.N**2 * t_macro
    if abs(system.t - micro) > 1e-9 * max(1.0, abs(micro)):
        raise TimeMismatch(
            f"system at t={system.t:g}, requested {micro:g} (macro {t_macro:g})"
        )
    return MacroscopicField(dom.N, dom.sites, system.phi / dom.N, dom.spec)


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


def checkpoint_steps(times, N: int, dt: float) -> list[tuple[float, int, float]]:
    """(t, n_steps, dt_eff) for each macroscopic checkpoint, in time order.

    The segment from the previous checkpoint (from 0 for the first) spans
    N^2 (t - t_prev) microscopic time and is integrated in
    n_steps = max(1, ceil(span / dt)) steps of dt_eff = span / n_steps,
    which land on it exactly; an empty segment takes no step.
    """
    times = sorted(float(t) for t in times)
    if times and times[0] < 0:
        raise ValueError("checkpoint times must be nonnegative")
    out = []
    t_macro = 0.0
    for t in times:
        span = (t - t_macro) * N**2
        n_steps = max(1, int(np.ceil(span / dt))) if span > 0 else 0
        out.append((t, n_steps, span / n_steps if n_steps else 0.0))
        t_macro = t
    return out


def advance(
    system: DirichletSystem,
    dt: float,
    times,
    noise_scale: float = 1.0,
    collect=None,
    before_step=None,
) -> None:
    """Evolve through each macroscopic checkpoint of ``times``.

    Segments follow ``checkpoint_steps``, every step is one ``em_step``.
    ``before_step(dt_eff)`` is called ahead of each step and
    ``collect(t, system)`` at each checkpoint, if given.
    """
    for t, n_steps, dt_eff in checkpoint_steps(times, system.domain.N, dt):
        for _ in range(n_steps):
            if before_step is not None:
                before_step(dt_eff)
            em_step(system, dt_eff, noise_scale=noise_scale)
        if collect is not None:
            collect(t, system)


def run_dirichlet(
    system: DirichletSystem,
    dt: float,
    times,
    noise_scale: float = 1.0,
    collect=None,
) -> EnergyTrace:
    """Evolve to each macroscopic checkpoint, recording the energy trace.

    ``times`` are macroscopic; each segment is integrated with a step
    just below ``dt`` chosen to land exactly (``checkpoint_steps``).
    ``collect(t, system)`` is called at every checkpoint if given.
    """
    dom = system.domain
    n_rep = 1 if system.phi.ndim == 1 else system.phi.shape[0]
    scale = dom.N ** (-dom.d)

    def norm_sq():
        h = MacroscopicField(dom.N, dom.sites, system.phi / dom.N, dom.spec)
        return np.atleast_1d(h.l2_norm_sq())

    times = np.asarray(sorted(float(t) for t in times))
    initial = norm_sq()
    integral = np.zeros(n_rep)
    h_rows, i_rows = [], []

    def accumulate(dt_eff):
        nonlocal integral
        integral += np.atleast_1d(system.dirichlet_sum()) * scale * dt_eff / dom.N**2

    def record(t, sys):
        h_rows.append(norm_sq())
        i_rows.append(integral.copy())
        if collect is not None:
            collect(t, sys)

    advance(system, dt, times, noise_scale, collect=record, before_step=accumulate)
    shape = (len(times), n_rep)
    return EnergyTrace(times, np.reshape(h_rows, shape), np.reshape(i_rows, shape), initial)


@dataclass
class EnergyDiagnostic:
    times: np.ndarray
    lhs: np.ndarray      # mean over replicas of |h|^2 + c_minus * integral
    rhs: np.ndarray      # 2 E|h(0)|^2 + K (1 + t), K = K_ENERGY_DEFAULT
    ok: bool


def energy_diagnostic(trace: EnergyTrace, c_minus: float) -> EnergyDiagnostic:
    """Check E|h(t)|^2 + c_minus E integral <= 2 E|h(0)|^2 + K (1 + t),
    with K the calibrated ``K_ENERGY_DEFAULT``."""
    lhs = trace.h_norm_sq.mean(axis=1) + c_minus * trace.dirichlet_integral.mean(axis=1)
    rhs = 2.0 * trace.initial_norm_sq.mean() + K_ENERGY_DEFAULT * (1.0 + trace.times)
    return EnergyDiagnostic(trace.times, lhs, rhs, bool((lhs <= rhs).all()))
