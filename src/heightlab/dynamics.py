"""Langevin dynamics for height fields.

The stochastic dynamics is

    d phi_t(x) = -sum_{y ~ x} V'(phi_t(x) - phi_t(y)) dt + sqrt(2) dw_t(x),

whose invariant density is proportional to exp(-H) with
H = sum over undirected bonds of V(gradient).  Two settings, each a
batch of independent replicas (or chains) along a leading axis:

* ``DirichletSystem``: heights evolve on the interior sites of a
  discretized domain while every exterior site is clamped to boundary
  data for all time.
* ``TiltedPeriodicSystem``: heights on a torus, defined up to a
  constant (the Gibbs sampler pins phi(0) = 0, ``em_step`` moves every
  site), chain j carrying a fixed mean tilt u_j; bond variables are
  eta_tilde + u_j and the energy sums V over the tilted bonds.

Replica or chain r draws from its own stream, so it follows the same
trajectory whether it runs alone or in a batch.  Both systems expose
``d``, ``pot``, ``drift_interior()`` and ``moving``, the view of the
sites that move (on a torus all of them), which is all ``em_step``
needs.  The step is Euler-Maruyama's drift with Leimkuhler-Matthews
noise, sqrt(dt / 2) (xi_n + xi_{n+1}): it costs one drift call and one
normal per site and step, as Euler-Maruyama does, and its invariant law
is right to O(dt^2), exactly right for the Gaussian potential
(Leimkuhler & Matthews, AMRX 2013).  It keeps dt below
0.2 / (2 d Lip(V')), a fifth of the explicit drift's linear stability
limit; the scheme is then a contraction in the convex part and stays
finite.

A ``NoiseBlock`` draws the step noise ahead, in per-replica blocks of
several steps, from the per-replica streams: a Generator fills an array
in draw order, so a block holds exactly the numbers that one
``standard_normal`` call per replica and step would give.  One row is
carried from block to block, because a step reads its own draw and the
next.  The block is sized to ``NOISE_BLOCK_BYTES`` (never less than two
steps), so batched runs stay small in memory however many steps they
take.  It is 1 MiB because a Philox fill has a fixed cost per call:
with 256 replicas a 256 KiB block gives each ``standard_normal`` call
only 128 draws, at about 28 ns per normal, against about 17 ns from
1024 draws on.

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
# against t, times a 1.2 safety factor, rounded up).  That run used
# Euler-Maruyama noise at the old step cap, half of today's; with
# today's step and noise the script prints slope 1.410 (K = 1.70 by the
# same rule), and K is kept.
K_ENERGY_DEFAULT = 1.74

# Bytes of pre-drawn noise a NoiseBlock keeps, for all replicas
# together, carried row included; two steps' worth are held even if
# that is more.
NOISE_BLOCK_BYTES = 1024 * 1024


def step_cap(pot, d: int) -> float:
    """Largest admissible Langevin step for this potential,
    0.2 / (2 d Lip(V')): a fifth of 1 / (2 d Lip(V')), the linear
    stability limit of the explicit drift."""
    lip = pot.drift_lipschitz
    if lip <= 0:
        return np.inf
    return 0.2 / (2 * d * lip)


def check_step(dt: float, cap: float = math.inf) -> float:
    """``dt``; ``ValueError`` unless positive and finite, ``StepTooLarge`` above cap."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if dt > cap:
        raise StepTooLarge(f"dt={dt:g} exceeds cap {cap:g}")
    return dt


def langevin_step(pot, d: int, dt: float | None = None) -> float:
    """A run's Langevin step: ``dt``, or 0.9 * ``step_cap`` if None, checked."""
    cap = step_cap(pot, d)
    return check_step(0.9 * cap if dt is None else dt, cap)


class NoiseBlock:
    """Leimkuhler-Matthews noise for the steps of a batch, one stream per
    replica.

    Each replica's standard normals xi_0, xi_1, ... are read in stream
    order, (replicas,) + ``shape`` per step; calling the block returns
    the next step's xi_n + xi_{n+1}, a view into the block that is valid
    until the next call.  The (replicas, K + 1) + ``shape`` block is
    made on the first call, so a system that never takes a noisy step
    holds none.  A call adds row k + 1 into row k and hands row k out;
    row k + 1 stays as the next call's xi_n.  After row K the carried row
    moves to row 0 and rows 1..K are refilled, with one
    ``standard_normal(out=...)`` call per replica; the stream, and hence
    every trajectory, is the same as with one draw per replica and step.
    K + 1 is the number of steps that fit in ``NOISE_BLOCK_BYTES``, at
    least 2.
    """

    def __init__(self, rngs: list, shape: tuple):
        self.rngs = rngs
        self.shape = shape  # one replica's draws per step
        self.block = None
        self._carried = 0  # row of the next step's xi_n

    def __call__(self) -> np.ndarray:
        block = self.block
        if block is None:
            per_step = 8 * len(self.rngs) * math.prod(self.shape)
            rows = max(2, NOISE_BLOCK_BYTES // per_step)
            block = self.block = np.empty((len(self.rngs), rows) + self.shape)
            for g, draws in zip(self.rngs, block):
                g.standard_normal(out=draws)
        elif self._carried == block.shape[1] - 1:
            block[:, 0] = block[:, -1]
            for g, draws in zip(self.rngs, block):
                g.standard_normal(out=draws[1:])
            self._carried = 0
        k = self._carried
        self._carried += 1
        pair = block[:, k]
        pair += block[:, k + 1]
        return pair


class BondPass(NamedTuple):
    """One pass over the tilted bonds of a height array.

    Per-axis quantities are stacked, axis i in row i, ahead of the chain
    axis of the heights; the energy is per chain.
    """

    energy: np.ndarray | None  # sum of v_sums in axis order; None without V
    grad: np.ndarray           # dH/dphi
    diffs: np.ndarray          # untilted differences eta_tilde, (d,) + phi.shape
    vp: np.ndarray             # V' on the tilted bonds, (d,) + phi.shape
    v_sums: np.ndarray | None  # V summed per axis, (d, B); None without V


class TiltedPeriodicSystem:
    """B chains of representative heights on a torus, each with a frozen
    mean tilt.

    ``phi`` has shape (B,) + lattice shape and stores the zero-winding
    part; the physical bond variable of chain j along axis i is
    phi(x + e_i) - phi(x) + tilt[j, i].  The tilt has shape (B, d), one
    row per chain, and is fixed at construction; a lone chain is a batch
    of one.  Chain j draws from its own stream ``seed[j]``; ``rngs`` lists
    the streams.
    """

    def __init__(self, lattice: TorusLattice, pot, tilt, phi=None, *, seed):
        tilt = np.array(tilt, dtype=float)
        d = lattice.d
        if tilt.ndim != 2 or tilt.shape[1] != d:
            raise ValueError(f"needs a tilt of shape (B, d), one row per chain, d = {d}")
        n_chains = len(tilt)
        seeds = list(seed) if np.iterable(seed) else []
        if len(seeds) != n_chains:
            raise ValueError("a batch of chains needs one seed per chain")
        tilt.flags.writeable = False
        self.lattice = lattice
        self.d = d
        self.pot = pot
        self._tilt = tilt
        shape = (n_chains,) + lattice.shape
        if phi is None:
            phi = np.zeros(shape)
        phi = np.asarray(phi, dtype=float)
        if phi.shape[-d:] != lattice.shape:
            raise ValueError("phi trailing axes must match the lattice shape")
        self.phi = np.broadcast_to(phi, shape).copy()
        self.t = 0.0
        self.rngs = [stream(*seed_key(s), 0) for s in seeds]
        self._noise = NoiseBlock(self.rngs, lattice.shape)
        # tilts stacked like the differences: per chain one full array,
        # which numpy adds faster than broadcast columns
        column = (d, -1) + (1,) * d
        self._tilts = np.broadcast_to(tilt.T.reshape(column), (d,) + shape).copy()
        # flat neighbour indices: phi.take(fwd)[i] is phi(x + e_i) and, on a
        # stacked (d,) + shape array, a.take(back)[i] is a[i](x - e_i).  fwd
        # holds the canonical bond heads, offset per chain; back their
        # inverse permutation, offset per chain and per axis row
        n = lattice.n_sites
        heads = lattice.bond_heads().reshape(d, 1, n)
        rows = n * np.arange(n_chains).reshape(1, -1, 1)
        back = np.argsort(heads, axis=-1) + rows + n * n_chains * np.arange(d).reshape(d, 1, 1)
        self._fwd = (heads + rows).reshape((d,) + shape)
        self._back = back.reshape((d,) + shape)

    @property
    def tilt(self) -> np.ndarray:
        """Mean tilt, one row per chain (B, d); read-only."""
        return self._tilt

    @property
    def moving(self) -> np.ndarray:
        """The heights that a step moves: all of them."""
        return self.phi

    def bond_pass(self, phi: np.ndarray, with_energy: bool = True, out=None) -> BondPass:
        """Energy, dH/dphi, eta_tilde and V' of the heights ``phi`` in one pass.

        ``phi`` is shaped like this system's heights.  The stacked tilted
        bonds of all axes go through V' in one call, and through V in one
        more unless ``with_energy`` is false, in which case the energy and
        the V sums are None.

        ``out``, a BondPass of arrays shaped like the result's, receives
        the differences, the gradient, the V sums and the energy; its
        ``vp`` holds the gather of V' behind each site.  V' itself comes
        fresh from the potential (for the Gaussian it is the tilted bonds),
        so the returned pass carries it in place of ``out.vp``.  Without
        ``out`` the arrays are new.
        """
        d, n_chains = self.d, len(phi)
        if out is None:  # each numpy call below then makes its own array
            out = BondPass(None, None, None, None, None)
        # indices are in range by construction; "clip" writes to ``out``
        # directly where the checked mode would write a copy back
        diffs = phi.take(self._fwd, out=out.diffs, mode="clip")
        np.subtract(diffs, phi, out=diffs)
        bonds = diffs + self._tilts
        v_sums = energy = None
        if with_energy:
            # V per chain and axis over one flat lattice axis, which adds in
            # the same order as the sum over the lattice axes; the energy
            # adds the axes to 0 in order
            v = self.pot.v(bonds).reshape(d, n_chains, -1)
            v_sums = np.add.reduce(v, axis=-1, out=out.v_sums)
            del v  # freed before V' runs
            energy = np.add.reduce(v_sums, axis=0, initial=0.0, out=out.energy)
        vp = self.pot.vp(bonds)
        # site x gets V' of bond (x, x - e_i) minus V' of bond (x + e_i, x),
        # added to 0 one axis after the other
        back = vp.take(self._back, out=out.vp, mode="clip")
        np.subtract(back, vp, out=back)
        grad = np.add.reduce(back, axis=0, initial=0.0, out=out.grad)
        return BondPass(energy, grad, diffs, vp, v_sums)

    def drift_interior(self) -> np.ndarray:
        """-dH/dphi on every site (all are interior on a torus), per chain."""
        return -self.bond_pass(self.phi, with_energy=False).grad


class DirichletSystem:
    """Replicas of heights on a discretized domain, clamped to boundary
    data outside.

    ``boundary`` holds one value per domain site; only the non-interior
    entries act as the constraint, are copied into ``phi`` once and must
    be finite (else ``NonFinite``).  ``replicas`` is a count R, meaning
    replicas 0, ..., R - 1 (one by default), or a range of their indices,
    such as ``range(lo, hi)`` for one chunk of a larger batch; ``phi``
    has one row per replica, (len, n_sites).  Replica r draws from its
    own stream (seed, r), through a ``NoiseBlock`` of (n_interior,)
    normals per step, so a chunk's rows are the batch's rows lo..hi - 1,
    bit for bit.
    """

    def __init__(
        self,
        domain: DiscretizedDomain,
        pot,
        boundary: np.ndarray,
        phi0: np.ndarray | None = None,
        seed: int = 0,
        replicas: int | range = 1,
    ):
        boundary = np.asarray(boundary, dtype=float)
        if boundary.shape != (domain.n_sites,):
            raise ValueError("boundary data must cover every domain site")
        # steps never write the clamped sites, so they are checked once, here
        if not np.isfinite(boundary[domain.n_interior :]).all():
            raise NonFinite("boundary data must be finite outside the interior")
        self.domain = domain
        self.d = domain.d
        self.pot = pot
        if phi0 is None:
            phi0 = boundary
        phi0 = np.asarray(phi0, dtype=float)
        if phi0.shape[-1] != domain.n_sites:
            raise ValueError("phi must cover every domain site")
        if not isinstance(replicas, range):
            replicas = range(replicas)
        self.phi = np.broadcast_to(phi0, (len(replicas), domain.n_sites)).copy()
        self.phi[:, domain.n_interior :] = boundary[domain.n_interior :]
        self.t = 0.0
        self.rngs = [stream(*seed_key(seed), r) for r in replicas]
        self._noise = NoiseBlock(self.rngs, (domain.n_interior,))
        self._nbrs_t = np.ascontiguousarray(domain.neighbors.T)  # (2d, n_int)

    @property
    def moving(self) -> np.ndarray:
        """The heights that a step moves: the interior sites, a view."""
        return self.phi[:, : self.domain.n_interior]

    def drift_interior(self, phi=None) -> np.ndarray:
        """-sum_{y ~ x} V'(phi(x) - phi(y)) on interior sites, of this
        system's heights or of ``phi``, heights laid out like them."""
        phi = self.phi if phi is None else phi
        center = phi[..., None, : self.domain.n_interior]
        return -self.pot.vp(center - phi[..., self._nbrs_t]).sum(axis=-2)

    def energy(self, phi) -> np.ndarray:
        """H(phi): V summed over the closure bonds, per replica."""
        heads, tails = self.domain.bonds_closure.T
        return self.pot.v(phi[..., heads] - phi[..., tails]).sum(axis=-1)

    def dirichlet_sum(self) -> np.ndarray:
        """Sum of squared gradients over directed closure bonds, per replica."""
        heads = self.domain.bonds_closure[:, 0]
        tails = self.domain.bonds_closure[:, 1]
        # one sum per row: over (R, bonds) numpy rounds a row differently
        # from the row alone, and a replica's trace must not depend on R
        return 2.0 * np.array([np.square(row[heads] - row[tails]).sum() for row in self.phi])


def em_step(system, dt: float, noise_scale: float = 1.0) -> None:
    """One Langevin step
    phi += drift dt + noise_scale sqrt(dt / 2) (xi_n + xi_{n+1}), in place,
    on the moving sites of a ``DirichletSystem`` or ``TiltedPeriodicSystem``.

    The drift is Euler-Maruyama's and the noise Leimkuhler-Matthews':
    xi_n is the draw the previous noisy step read as its xi_{n+1}, so
    each step draws one normal per site (``NoiseBlock``).
    ``noise_scale=0`` gives the deterministic gradient flow, a hook for
    tests: ``advance`` and every run take the full noise.  Such a step
    draws nothing, and the carried xi_n waits for the next noisy step.
    Raises as ``check_step`` for a bad dt, before the step, and
    ``NonFinite`` if the state leaves float range.
    """
    check_step(dt, step_cap(system.pot, system.d))
    amp = noise_scale * np.sqrt(0.5 * dt)
    # clamped sites were checked finite when the system was made.  The
    # drift and the noise pair are fresh or used once, so they are scaled
    # in place
    incr = system.drift_interior()
    incr *= dt
    if amp:
        noise = system._noise()
        noise *= amp
        incr += noise
    moved = system.moving
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
        float, or (R,) for replicas, each row's the same as the row alone's."""
        weights = self.spec.cell_weights(self.N, self.sites)
        # one product per row: an (R, n) matmul rounds a row differently
        rows = [row @ weights for row in np.atleast_2d(self.values**2)]
        return np.reshape(rows, self.values.shape[:-1])[()]


def macro_height(system: DirichletSystem, t_macro: float) -> MacroscopicField:
    """Diffusively rescaled profile at macroscopic time t, one field whose
    values are laid out like the system's heights, (replicas, n_sites).

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
    which land on it exactly; an empty segment takes no step.  ``dt``
    must pass ``check_step``.
    """
    check_step(dt)
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
            em_step(system, dt_eff)
        if collect is not None:
            collect(t, system)


def run_dirichlet(
    system: DirichletSystem,
    dt: float,
    times,
    collect=None,
) -> EnergyTrace:
    """Evolve to each macroscopic checkpoint, recording the energy trace.

    ``times`` are macroscopic; each segment is integrated with a step
    just below ``dt`` chosen to land exactly (``checkpoint_steps``).
    ``collect(t, system)`` is called at every checkpoint if given.
    """
    dom = system.domain
    scale = dom.N ** (-dom.d)

    def norm_sq():
        return MacroscopicField(dom.N, dom.sites, system.phi / dom.N, dom.spec).l2_norm_sq()

    times = np.asarray(sorted(float(t) for t in times))
    initial = norm_sq()
    integral = np.zeros(len(system.phi))
    h_rows, i_rows = [], []

    def accumulate(dt_eff):
        nonlocal integral
        integral += system.dirichlet_sum() * scale * dt_eff / dom.N**2

    def record(t, sys):
        h_rows.append(norm_sq())
        i_rows.append(integral.copy())
        if collect is not None:
            collect(t, sys)

    advance(system, dt, times, collect=record, before_step=accumulate)
    shape = (len(times), len(system.phi))
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
