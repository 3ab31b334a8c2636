"""Gibbs sampling of tilted gradient ensembles on the torus.

The target law has density proportional to exp(-H_u(phi)) with

    H_u(phi) = sum_{x, i} V(phi(x + e_i) - phi(x) + u_i)

over heights gauge-fixed by phi(0) = 0; heights modulo constants are in
bijection with zero-winding gradient configurations, so this samples the
gradient ensemble with mean tilt u.  The kernel is MALA, whose
Metropolis correction makes the invariant law exact.

Error bars use batch means over ``N_BATCHES`` = 32 batches and effective
sample sizes are the ratio of series variance to squared standard error.
The sampler tunes its step during burn-in toward the 0.50-0.65 acceptance
window, freezes it, then burns for at least max(1000, 10 IACT) sweeps
before any estimate.

A sampler advances B chains as one batch; one chain is a batch of one.
A sweep makes one bond pass, on the proposal, through cached neighbour
gathers; the tilted bonds of all axes are stacked, so V and V' are each
called once per proposal.  The pass of the current state is kept.  The
sampler makes its lattice-sized arrays once, two of each that a state
owns: a proposal is written into the side the current state does not
use, and adopting it swaps the sides.  So a steady sweep allocates no
lattice-sized array but the tilted bonds and what V and V' make.  Sums
over the lattice run over one flat axis, which adds in the same order
as the lattice axes.
Observables do not see single sweeps: ``collect`` copies the kept
untilted differences and V' of consecutive recorded sweeps into a block
of about ``RECORD_BLOCK_BYTES`` and hands each observable the whole
block, so an observable reduces over the lattice axes of k records and
B chains with one numpy call instead of k B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import BondPass, DirichletSystem, TiltedPeriodicSystem
from .errors import UnmixedChains
from .lattice import DomainSpec, TorusLattice, discretize_domain
from .rng import seed_key, stream


# ---------------------------------------------------------------------------
# time-series statistics

N_BATCHES = 32  # batches behind every error bar

# Bytes of recorded differences and V' that ``collect`` hands to the
# observables at once; one record's worth is kept even if that is more.
# Observables make temporaries several times this size: decompose_flux
# evaluates V0'' at all nodes of all axes at once, nodes / 2 = 4 times
# the block per temporary.  So it stays small: on the N = 16, d = 2
# chain (decompose_flux and grad_sigma, 3000 sweeps each), three sets
# of 6-10 interleaved runs put the median of 16 KiB 4-9 % and of 64 KiB
# 3-21 % above 32 KiB, and 64 KiB raised peak RSS by 0.3 MiB.
RECORD_BLOCK_BYTES = 32 * 1024


def batch_means(series):
    """(mean, stderr, ess) of a stationary series via batch means."""
    x = np.asarray(series, dtype=float)
    if len(x) < N_BATCHES:
        raise ValueError(f"need at least {N_BATCHES} samples, got {len(x)}")
    m = len(x) // N_BATCHES
    x = x[len(x) - m * N_BATCHES :]
    means = x.reshape(N_BATCHES, m).mean(axis=1)
    value = float(x.mean())
    stderr = float(np.sqrt(means.var(ddof=1) / N_BATCHES))
    if stderr > 0:
        ess = float(min(x.var(ddof=1) / stderr**2, len(x)))
    else:
        ess = float(len(x))
    return value, stderr, ess


def integrated_autocorr_time(series) -> float:
    """Self-consistent windowed IACT estimate (FFT autocorrelation): the
    window is the first lag k with k >= 5 tau(k)."""
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 4:
        return 1.0
    x = x - x.mean()
    var = float(np.dot(x, x))
    if var == 0:
        return 1.0
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conjugate(f))[:n].real
    acf /= acf[0]
    taus = 2.0 * np.cumsum(acf) - 1.0
    for k in range(1, n):
        if k >= 5.0 * taus[k]:
            return float(max(taus[k], 1.0))
    return float(max(taus[-1], 1.0))


# ---------------------------------------------------------------------------
# the sampler


class GibbsSampler:
    """MALA chains on gauge-fixed torus heights, advanced as one batch.

    The system holds B chains in one (B,) + lattice array, one tilt row
    each; a single chain is a batch of one.  Each chain draws from the
    system's stream for it, one ``standard_normal`` fill and one
    ``random()`` per sweep, and its own step, tuning rounds and
    adaptive burn-in, so it reproduces the same chain run alone bit for
    bit.  Phases run in lockstep: a chain that finishes its tuning or
    burn-in early waits, drawing nothing, until all have.  Acceptance is
    counted over all chains together.

    The bond pass of the current state (energy, gradient, differences,
    V' and V sums) is kept, so a sweep makes one pass, on the proposal,
    and observables and burn-in probes read the kept one.  Per-axis
    arrays of the pass are stacked: axis i in row i, then the chain axis.

    The lattice-sized arrays a sweep writes are made once, here: the pass
    buffers of the current state and of the proposal, the spare heights,
    the noise xi and the residual, and with them the (B,) uniform draws.  A sweep writes its
    proposal and the proposal's pass into the side the current state
    does not use; adopting it swaps the sides, and a rejected proposal
    leaves its side to the next sweep.  So no buffer of the current pass
    is written while that pass is current.  For the Gaussian, V' returns
    its argument, so the kept V' is that pass's own tilted bonds.
    """

    def __init__(
        self,
        system: TiltedPeriodicSystem,
        step: float | None = None,
        burn_in: int | None = None,
    ):
        if burn_in is not None and burn_in < 0:
            raise ValueError(f"burn_in must be at least 0, got {burn_in}")
        if step is not None and not (np.isfinite(step) and step > 0):
            raise ValueError(f"step must be finite and > 0, got {step}")
        lat = system.lattice
        self.system = system
        self.burn_in = burn_in
        self._n = n = len(system.tilt)
        self._axes = tuple(range(1, lat.d + 1))  # lattice axes after the chain axis
        mask = np.ones(lat.shape)
        mask[(0,) * lat.d] = 0.0  # gauge: phi(0) pinned at 0
        self._mask = mask
        self._step = None
        if step is not None:
            self._set_step(np.full(n, step, dtype=float))
        self._prepared = False
        self._cur = None  # BondPass of the current state
        self._accepts = 0  # pooled over the chains
        self._proposals = 0
        # the workspace; _passes[0] is the current state's side
        shape = (n,) + lat.shape
        stacked = (lat.d,) + shape
        self._passes = [
            BondPass(np.empty(n), np.empty(shape), np.empty(stacked), np.empty(stacked),
                     np.empty((lat.d, n)))
            for _ in range(2)
        ]
        self._spare = np.empty(shape)
        self._xi = np.empty(shape)
        self._res = np.empty(shape)
        self._uniform = np.empty(n)
        # (B, n_sites) view: a chain's sum over one flat lattice axis adds
        # in the same order as its sum over the lattice axes
        self._res_flat = self._res.reshape(n, -1)
        self._res_origin = self._res[(slice(None),) + (0,) * lat.d]  # gauge site, per chain

    # -- kernels ------------------------------------------------------------

    def _set_step(self, step: np.ndarray) -> None:
        """Set the per-chain steps h and the factors a sweep uses: h and
        sqrt(2 h) as full arrays, which numpy multiplies faster than
        broadcast columns, then 2 h and 4 h per chain.

        The full arrays carry the gauge mask: (h mask) g and (sqrt(2 h)
        mask) xi are h (g mask) and sqrt(2 h) (xi mask) to the bit, the
        sign of a zero included, so neither the gradient nor the noise is
        masked on its own.
        """
        self._step = step
        shape = (self._n,) + self._mask.shape
        h = np.broadcast_to(step.reshape((-1,) + (1,) * len(self._axes)), shape).copy()
        self._factors = (h * self._mask, np.sqrt(2.0 * h) * self._mask, 2.0 * step, 4.0 * step)

    def _adopt(self, prop: np.ndarray, new, moved: np.ndarray, n_moved: int) -> None:
        """Make ``prop`` and its pass ``new`` current for the ``n_moved``
        chains flagged in ``moved``; the other chains' rows of the
        proposal are overwritten with the kept state.  The old state's
        heights and pass buffers then take the next proposal.
        """
        if n_moved < self._n:
            if n_moved == 0:
                return
            stay = ~moved  # as a column it broadcasts behind the axis rows too
            column = stay.reshape((-1,) + (1,) * len(self._axes))
            cur = self._cur
            copies = [(prop, self.system.phi), (new.grad, cur.grad),
                      (new.diffs, cur.diffs), (new.vp, cur.vp)]
            for dst, src in copies:
                np.copyto(dst, src, where=column)
            np.copyto(new.energy, cur.energy, where=stay)
            np.copyto(new.v_sums, cur.v_sums, where=stay)
        self._spare, self.system.phi = self.system.phi, prop
        self._passes.reverse()
        self._cur = new

    def _sweep(self, active: np.ndarray | None = None) -> np.ndarray:
        """One sweep of the chains flagged in ``active`` (all when None).

        The other chains wait: they draw nothing and keep their state.
        Returns the mask of chains that accepted.
        """
        if active is not None and active.all():
            active = None
        phi = self.system.phi
        if self._cur is None:
            self._cur = self.system.bond_pass(phi, out=self._passes[0])
        cur = self._cur
        rngs = self.system.rngs
        xi, res, log_u = self._xi, self._res, self._uniform
        if active is None:
            rows = range(self._n)
        else:
            rows = np.flatnonzero(active)
            xi.fill(0.0)
            log_u.fill(np.inf)  # a waiting chain never moves
        for j in rows:
            rngs[j].standard_normal(out=xi[j])
        h, noise, two_h, four_h = self._factors
        # the proposal phi - h grad + noise xi, in place, in that order
        prop = np.multiply(h, cur.grad, out=self._spare)
        np.subtract(phi, prop, out=prop)
        prop += np.multiply(noise, xi, out=res)
        new = self.system.bond_pass(prop, out=self._passes[1])
        np.square(xi, out=res)
        self._res_origin.fill(0.0)  # the gauge site draws no noise: (xi mask)^2 is +0 there
        fwd = two_h * np.add.reduce(self._res_flat, axis=1)
        # the reverse-move residual phi - prop + h grad(prop), in place
        np.subtract(phi, prop, out=res)
        res += np.multiply(h, new.grad, out=xi)
        np.square(res, out=res)
        rev = np.add.reduce(self._res_flat, axis=1)
        log_alpha = cur.energy - new.energy + (fwd - rev) / four_h
        for j in rows:
            log_u[j] = rngs[j].random()  # uniform() is 0 + 1 * random()
        moved = np.log(log_u, out=log_u) < log_alpha
        n_moved = int(np.count_nonzero(moved))
        self._proposals += len(rows)
        self._accepts += n_moved
        self._adopt(prop, new, moved, n_moved)
        return moved

    # -- preparation ----------------------------------------------------------

    def _tune(self):
        rounds, per_round = 40, 25
        lo, hi = 0.50, 0.65
        tuning = np.ones(self._n, dtype=bool)
        for _ in range(rounds):
            acc = sum(self._sweep(tuning) for _ in range(per_round)) / per_round
            up, down = tuning & (acc > hi), tuning & (acc < lo)
            step = self._step.copy()
            step[up] *= 1.2
            step[down] /= 1.2
            self._set_step(step)
            tuning = up | down
            if not tuning.any():
                break

    def _adaptive_burn_in(self):
        """1000 probed sweeps, then each chain up to 10 IACT of its probes.

        The probes are the mean of V over all bonds (summed over axes) and
        of V' over axis 0, read from the kept pass: each sum divided by the
        bond count is what ``.mean()`` computes.
        """
        d, n_bonds = self.system.lattice.d, self.system.lattice.n_sites
        base = 1000
        # per sweep the V sum of each axis and the flat V' sum of axis 0;
        # dividing after the loop gives each sweep's means elementwise
        sums = np.empty((d + 1, self._n, base))
        for k in range(base):
            self._sweep()
            cur = self._cur
            sums[:d, :, k] = cur.v_sums
            np.add.reduce(cur.vp[0].reshape(self._n, -1), axis=1, out=sums[d, :, k])
        means = sums / n_bonds
        probes = (np.add.reduce(means[:d], axis=0), means[d])  # axis means added in order
        tau = [max(integrated_autocorr_time(p[j]) for p in probes)
               for j in range(self._n)]
        extra = np.array([max(0, int(np.ceil(10 * t)) - base) for t in tau])
        for k in range(extra.max()):
            self._sweep(extra > k)

    def prepare(self) -> None:
        """Tune the steps (if unset) and burn in; idempotent."""
        if self._prepared:
            return
        sys = self.system
        if self._step is None:
            lip = max(sys.pot.drift_lipschitz, 1e-6)
            self._set_step(np.full(self._n, sys.lattice.n_sites ** (-1.0 / 3.0) / lip))
            self._tune()
        if self.burn_in is not None:
            for _ in range(self.burn_in):
                self._sweep()
        else:
            self._adaptive_burn_in()
        self._accepts = self._proposals = 0
        self._prepared = True

    @property
    def step(self) -> np.ndarray | None:
        """The step of each chain, (B,); None until set or tuned."""
        return None if self._step is None else self._step.copy()

    @property
    def acceptance_rate(self) -> float:
        """Accepted over proposed sweeps, pooled over the chains."""
        if self._proposals == 0:
            return float("nan")
        return self._accepts / self._proposals

    # -- collection -----------------------------------------------------------

    def collect(self, sweeps: int, observables: dict) -> dict:
        """Run ``sweeps`` post-burn sweeps, recording every one.

        A record is the kept pass's untilted bond differences and V' on
        the tilted bonds.  Records are gathered k at a time, k as many as
        fit in ``RECORD_BLOCK_BYTES`` (at least one, at most all), and each
        observable is called once per block as ``fn(et, vp)``.  ``et`` and
        ``vp`` are read-only arrays of shape (d, k, B) + lattice: axis i,
        then the record, then the chain.  The last block may be shorter,
        and the arrays are refilled for the next block, so an observable
        must not keep them.  It returns one row per record: a scalar
        observable returns (k, B).  The series of ``sweeps`` rows come back
        as (sweeps,) + row shape.
        """
        self.prepare()
        out = {name: np.empty(0) for name in observables}
        d = self.system.lattice.d
        record = self._n * self._mask.size * 8  # bytes of one axis row
        k = min(sweeps, max(1, RECORD_BLOCK_BYTES // (2 * d * record)))
        block = np.empty((2, d, k, self._n) + self._mask.shape)
        places = [(block[0, :, j], block[1, :, j]) for j in range(k)]  # record j's rows
        held = done = 0  # records in the block, records handed out
        for _ in range(sweeps):
            self._sweep()
            diffs, vp = places[held]
            diffs[...] = self._cur.diffs
            vp[...] = self._cur.vp
            held += 1
            if held < k and done + held < sweeps:
                continue
            et, vp = block[:, :, :held]
            et.flags.writeable = vp.flags.writeable = False
            for name, fn in observables.items():
                v = np.asarray(fn(et, vp))
                if v.shape[:1] != (held,):
                    raise ValueError(
                        f"observable {name!r} returned shape {v.shape} "
                        f"for a block of {held} records"
                    )
                if done == 0:  # one array per series, shaped by the first block
                    out[name] = np.empty((sweeps,) + v.shape[1:], v.dtype)
                out[name][done : done + held] = v
            done += held
            held = 0
        return out


def make_sampler(
    pot,
    N: int,
    tilt,
    step: float | None = None,
    burn_in: int | None = None,
    seed=0,
) -> GibbsSampler:
    """Sampler for the tilt-u ensemble on the (Z/NZ)^d torus, d = tilt.shape[-1].

    A tilt of shape (B, d) makes a batch of B chains, and ``seed`` lists
    one seed per chain.  A tilt of shape (d,) with one ``seed`` is the
    batch of one chain, (1, d) with ``[seed]``.
    """
    tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
    if tilt.ndim == 1:
        tilt, seed = tilt[None], [seed]
    lat = TorusLattice(N, tilt.shape[-1])
    system = TiltedPeriodicSystem(lat, pot, tilt, seed=seed)
    return GibbsSampler(system, step=step, burn_in=burn_in)


# ---------------------------------------------------------------------------
# estimators


def chain_means(sampler: GibbsSampler, sweeps: int, obs):
    """Batch means over ``sweeps`` of the sampler's ``obs(et, vp)``, which
    maps a block to an (m, k, B) array: m quantities per record and chain;
    returns (values, stderr, ess), each (B, m)."""
    if sweeps < N_BATCHES:
        raise ValueError(f"need at least {N_BATCHES} samples, got {sweeps}")
    rows = sampler.collect(sweeps, {"o": lambda et, vp: obs(et, vp).transpose(1, 2, 0)})
    series = np.ascontiguousarray(np.moveaxis(rows["o"], 0, -1))  # (B, m, sweeps)
    values, errors, ess = np.zeros((3,) + series.shape[:2])
    for j, i in np.ndindex(series.shape[:2]):
        values[j, i], errors[j, i], ess[j, i] = batch_means(series[j, i])
    return values, errors, ess


def _lattice_axes(sampler: GibbsSampler) -> tuple:
    """The lattice axes of a block, which come last."""
    return tuple(range(-sampler.system.lattice.d, 0))


def bond_statistics(sampler: GibbsSampler, sweeps: int):
    """Batch means over one collection of ``sweeps``: (values, stderr, ess),
    each (B, d + 1).  Column i < d is the variance of the bond variable
    along axis i (the tilt drops out); column d is
    sum_i E[(eta_i + u_i) V'(eta_i + u_i)], read from the kept V', which
    equals u . grad sigma + 1 in the infinite-volume limit (the finite-N
    value differs at O(N^-d))."""
    lat = _lattice_axes(sampler)
    u_col = sampler.system.tilt.T.reshape((len(lat), 1, -1) + (1,) * len(lat))  # row i: u_i

    def obs(et, vp):
        identity = sum(((et + u_col) * vp).mean(axis=lat))  # axes added in order
        return np.concatenate([np.square(et).mean(axis=lat), identity[None]])

    return chain_means(sampler, sweeps, obs)


@dataclass
class VarianceSweep:
    """Bond variances over a grid of tilts, with batch-means errors."""

    tilts: np.ndarray     # (n, d)
    values: np.ndarray    # (n, d)
    stderr: np.ndarray    # (n, d)
    sweeps: int
    potential: str
    N: int

    @property
    def ratio(self) -> float:
        return float(self.values.max() / self.values.min())

    def edge_mask(self) -> np.ndarray:
        hull = np.abs(self.tilts).max()
        return (np.abs(self.tilts).max(axis=1) >= hull - 1e-12)


def variance_sweep(
    pot,
    N: int,
    tilts,
    sweeps: int = 6000,
    seed=0,
    step: float | None = None,
    burn_in: int | None = None,
) -> VarianceSweep:
    """Bond variances across a grid of tilts, one chain per tilt, all
    advanced as one batch; chain j is seeded (*seed, j)."""
    tilts = np.atleast_2d(np.asarray(tilts, dtype=float))
    n = len(tilts)
    sampler = make_sampler(
        pot, N, tilts, step=step, burn_in=burn_in,
        seed=[tuple(seed_key(seed)) + (j,) for j in range(n)],
    )
    lat = _lattice_axes(sampler)
    values, errors, _ = chain_means(
        sampler, sweeps, lambda et, vp: np.square(et).mean(axis=lat)
    )
    return VarianceSweep(tilts, values, errors, sweeps, pot.name, N)


# ---------------------------------------------------------------------------
# local-conditional (DLR) check


def _window_domain(d: int, width: int):
    """The window {0..width-1}^d as a Dirichlet domain at scale 1; its
    interior is the window and its boundary layer the ring, both lexicographic."""
    return discretize_domain(
        DomainSpec.box(sides=(width + 4.0,) * d, center=((width - 1) / 2,) * d), 1
    )


@dataclass
class DlrReport:
    """Comparison of a window-conditional chain with its exact density."""

    window: int
    n_samples: int
    sup_distance: float | None    # histogram vs quadrature (window = 1)
    two_start_distance: float     # histogram gap between the two start groups
    mean_emp: float
    mean_quad: float | None
    var_emp: float
    var_quad: float | None
    mean_stderr: float
    exterior: tuple               # ring values, ring sites in lexicographic order


def dlr_check(
    pot,
    tilt,
    window: int = 1,
    n_samples: int = 100_000,
    chains: int = 100,
    thin: int = 5,
    burn: int = 2000,
    bins: int = 60,
    seed=0,
    exterior=None,
) -> DlrReport:
    """Sample heights in a small window with frozen exterior and compare
    against the exact conditional.

    The conditional is the Gibbs law of the window as a Dirichlet domain
    whose boundary layer, the ring, holds ``exterior(ring sites)``.  With
    ``window == 1`` it is a one-dimensional density computed by
    quadrature; the report carries the sup distance between the empirical
    histogram and the bin-averaged exact density.  Larger windows (up to
    width 3) only compare the two overdispersed start groups against each
    other.  With ``window == 1``, ``UnmixedChains`` is raised when a start
    group has no sample within 6 sd of the exact mean, as when ``burn`` is
    too short for its chains to leave their start.
    """
    tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
    d = len(tilt)
    if not 1 <= window <= 3:
        raise ValueError("window width must be 1, 2, or 3")
    for name, value, least in (("thin", thin, 1), ("bins", bins, 1), ("burn", burn, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if chains < 2 or n_samples < chains:  # each start group needs a chain and a sample
        raise ValueError(f"dlr_check needs chains >= 2 and n_samples >= chains, "
                         f"got chains={chains}, n_samples={n_samples}")
    rng = stream(*seed_key(seed), 7)
    if exterior is None:
        jitter = rng.uniform(-1.0, 1.0, size=3**d * 2 * d)

        def exterior(ys):
            base = ys @ tilt
            return base + jitter[: len(ys)]

    dom = _window_domain(d, window)
    m = dom.n_interior
    ring = dom.sites[m : m + dom.n_layer].astype(float)
    ext_val = np.asarray(exterior(ring), dtype=float)
    # the ring columns hold the frozen exterior; the cover sites past it
    # carry no bond
    boundary = np.zeros(dom.n_sites)
    boundary[m : m + dom.n_layer] = ext_val
    system = DirichletSystem(dom, pot, boundary)

    # overdispersed starts: half the chains low, half high
    ext_lo, ext_hi = float(ext_val.min()), float(ext_val.max())
    phi = np.tile(boundary, (chains, 1))
    phi[: chains // 2, :m] = ext_lo - 2.0
    phi[chains // 2 :, :m] = ext_hi + 2.0
    prop = phi.copy()
    group = np.zeros(chains, dtype=bool)
    group[chains // 2 :] = True

    h = 0.5 / max(pot.drift_lipschitz, 0.5)
    # log density -H and its gradient -drift, kept at the accepted state
    logp = -system.energy(phi)
    grad = -system.drift_interior(phi)

    def mala_update(h):
        """One MALA step of every chain."""
        xi = rng.standard_normal((chains, m))
        prop[:, :m] = phi[:, :m] - h * grad + np.sqrt(2.0 * h) * xi
        logp_prop = -system.energy(prop)
        gp = -system.drift_interior(prop)
        fwd = 2.0 * h * np.sum(xi**2, axis=1)
        rev = np.sum((phi[:, :m] - prop[:, :m] + h * gp) ** 2, axis=1)
        log_alpha = logp_prop - logp + (fwd - rev) / (4.0 * h)
        acc = np.log(rng.uniform(size=chains)) < log_alpha
        phi[acc, :m] = prop[acc, :m]
        logp[acc] = logp_prop[acc]
        grad[acc] = gp[acc]
        return acc

    accept_window = (0.5, 0.65)
    for it in range(burn):
        acc = mala_update(h)
        if it < burn // 2 and (it + 1) % 50 == 0:
            rate = acc.mean()
            if rate > accept_window[1]:
                h *= 1.2
            elif rate < accept_window[0]:
                h /= 1.2

    keep = int(np.ceil(n_samples / chains))
    out = np.empty((keep, chains))
    for k in range(keep):
        for _ in range(thin):
            mala_update(h)
        out[k] = phi[:, 0]  # representative site (the window origin)

    samples = out.ravel()[:n_samples]
    sample_group = np.tile(group, keep)[:n_samples]
    mean_emp = float(samples.mean())
    var_emp = float(samples.var(ddof=1))
    # stderr of the mean from per-chain means (chains are independent)
    chain_means = out.mean(axis=0)
    mean_stderr = float(chain_means.std(ddof=1) / np.sqrt(chains))

    sup = None
    mean_q = var_q = None
    if window == 1:
        xs = np.linspace(ext_lo - 8.0, ext_hi + 8.0, 8001)
        logd = -sum(pot.v(xs - a) for a in ext_val)
        dens = np.exp(logd - logd.max())
        z = np.trapezoid(dens, xs)
        dens /= z
        mean_q = float(np.trapezoid(xs * dens, xs))
        var_q = float(np.trapezoid((xs - mean_q) ** 2 * dens, xs))
        sd_q = np.sqrt(var_q)
        edges = np.linspace(mean_q - 6 * sd_q, mean_q + 6 * sd_q, bins + 1)
        width = edges[1] - edges[0]
        cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(xs))])
        cum_at = np.interp(edges, xs, cum)
        quad_density = np.diff(cum_at) / width
        # a group with no sample in range would give 0/0 densities (the
        # edges of larger windows span every sample)
        for name, member in (("low", ~sample_group), ("high", sample_group)):
            if not ((samples[member] >= edges[0]) & (samples[member] <= edges[-1])).any():
                raise UnmixedChains(
                    f"window {window}: no sample of the {name} start group lies within "
                    f"6 sd of the exact mean after burn={burn} sweeps; its chains have "
                    f"not reached the conditional law, so raise burn"
                )
        emp_density, _ = np.histogram(samples, bins=edges, density=True)
        sup = float(np.abs(emp_density - quad_density).max())
    else:
        edges = np.histogram_bin_edges(samples, bins=bins)
    lo_density, _ = np.histogram(samples[~sample_group], bins=edges, density=True)
    hi_density, _ = np.histogram(samples[sample_group], bins=edges, density=True)
    two_start = float(np.abs(lo_density - hi_density).max())

    return DlrReport(
        window=window,
        n_samples=int(n_samples),
        sup_distance=sup,
        two_start_distance=two_start,
        mean_emp=mean_emp,
        mean_quad=mean_q,
        var_emp=var_emp,
        var_quad=var_q,
        mean_stderr=mean_stderr,
        exterior=tuple(np.round(ext_val, 12).tolist()),
    )
