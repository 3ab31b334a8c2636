"""Gibbs sampling of tilted gradient ensembles on the torus.

The target law has density proportional to exp(-H_u(phi)) with

    H_u(phi) = sum_{x, i} V(phi(x + e_i) - phi(x) + u_i)

over heights gauge-fixed by phi(0) = 0; heights modulo constants are in
bijection with zero-winding gradient configurations, so this samples the
gradient ensemble with mean tilt u.  The default kernel is MALA, whose
Metropolis correction makes the invariant law exact; the unadjusted
Langevin chain (``kind="ula"``) is kept for bias cross-checks.

Error bars use batch means over ``N_BATCHES`` = 32 batches and effective
sample sizes are the ratio of series variance to squared standard error.
The sampler tunes its step during burn-in toward the 0.50-0.65 acceptance
window, freezes it, then burns for at least max(1000, 10 IACT) sweeps
before any estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import TiltedPeriodicSystem, step_cap
from .lattice import TorusLattice
from .rng import seed_key, stream


# ---------------------------------------------------------------------------
# time-series statistics

N_BATCHES = 32  # batches behind every error bar


def batch_means(series, n_batches: int = N_BATCHES):
    """(mean, stderr, ess) of a stationary series via batch means."""
    x = np.asarray(series, dtype=float)
    if len(x) < n_batches:
        raise ValueError(f"need at least {n_batches} samples, got {len(x)}")
    m = len(x) // n_batches
    x = x[len(x) - m * n_batches :]
    means = x.reshape(n_batches, m).mean(axis=1)
    value = float(x.mean())
    stderr = float(np.sqrt(means.var(ddof=1) / n_batches))
    if stderr > 0:
        ess = float(min(x.var(ddof=1) / stderr**2, len(x)))
    else:
        ess = float(len(x))
    return value, stderr, ess


def integrated_autocorr_time(series, c: float = 5.0) -> float:
    """Self-consistent windowed IACT estimate (FFT autocorrelation)."""
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
        if k >= c * taus[k]:
            return float(max(taus[k], 1.0))
    return float(max(taus[-1], 1.0))


@dataclass(frozen=True)
class EstimatorReport:
    name: str
    value: float
    stderr: float
    ess: float
    sweeps: int
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the sampler


class GibbsSampler:
    """MALA/ULA chains on gauge-fixed torus heights, advanced as one batch.

    A system with a tilt of shape (B, d) holds B chains in one
    (B,) + lattice array; a system with a tilt of shape (d,) holds one
    chain, run as a batch of one and seen without the chain axis.  Each
    chain has its own Philox stream, one ``standard_normal`` fill and, for
    MALA, one ``uniform()`` per sweep, and its own step, tuning rounds and
    adaptive burn-in, so it reproduces the same chain run alone bit for
    bit.  Phases run in lockstep: a chain that finishes its tuning or
    burn-in early waits, drawing nothing, until all have.  Acceptance is
    counted over all chains together.

    The bond pass of the current state (energy, masked gradient,
    differences, V' and V sums) is kept, so a sweep makes one pass, on
    the proposal, and observables and burn-in probes read the kept one.
    """

    def __init__(
        self,
        system: TiltedPeriodicSystem,
        kind: str = "mala",
        step: float | None = None,
        burn_in: int | None = None,
        thin: int = 1,
    ):
        if kind not in ("mala", "ula"):
            raise ValueError("kind must be 'mala' or 'ula'")
        lat = system.lattice
        chains = system.tilt.shape[:-1]
        if system.phi.shape != chains + lat.shape:
            raise ValueError("sampler needs one height array per chain")
        self.system = system
        self.kind = kind
        self.thin = max(1, int(thin))
        self.burn_in = burn_in
        self._batched = bool(chains)
        self._n = chains[0] if chains else 1
        self._axes = tuple(range(1, lat.d + 1))  # lattice axes after the chain axis
        mask = np.ones(lat.shape)
        mask[(0,) * lat.d] = 0.0  # gauge: phi(0) pinned at 0
        self._mask = mask
        self._step = None
        if step is not None:
            self._set_step(np.full(self._n, step, dtype=float))
        self._prepared = False
        self._probing = False  # the adaptive burn-in probes read the V sums
        self._cur = None  # BondPass of the current state, masked gradient
        self._everyone = np.ones(self._n, dtype=bool)
        self._accepts = 0  # pooled over the chains
        self._proposals = 0

    # -- kernels ------------------------------------------------------------

    def _set_step(self, step: np.ndarray) -> None:
        """Set the per-chain steps h and the factors a sweep uses: h and
        sqrt(2 h) as full arrays, which numpy multiplies faster than
        broadcast columns, then 2 h and 4 h per chain."""
        self._step = step
        shape = (self._n,) + self._mask.shape
        h = np.broadcast_to(step.reshape((-1,) + (1,) * len(self._axes)), shape).copy()
        self._factors = (h, np.sqrt(2.0 * h), 2.0 * step, 4.0 * step)

    def _phi(self) -> np.ndarray:
        """The heights with the chain axis first."""
        return self.system.phi if self._batched else self.system.phi[None]

    def _view(self, arrays: list) -> list:
        """Kept per-axis arrays, made read-only, as a caller sees them: without
        the chain axis when unbatched."""
        for a in arrays:
            a.flags.writeable = False
        return arrays if self._batched else [a[0] for a in arrays]

    def _bonds(self, phi: np.ndarray):
        """BondPass of ``phi`` with the gauge-masked gradient.

        Only MALA's accept test and the burn-in probes read V, so ULA
        outside the probes does not evaluate it.
        """
        b = self.system.bond_pass(
            phi, with_energy=self.kind == "mala" or self._probing
        )
        np.multiply(b.grad, self._mask, out=b.grad)
        return b

    def _adopt(self, prop: np.ndarray, new, moved: np.ndarray, n_moved: int) -> None:
        """Make ``prop`` and its pass ``new`` current for the ``n_moved``
        chains flagged in ``moved``.

        The other rows of the fresh arrays are overwritten with the kept
        state, so arrays already handed to observables never change.
        """
        if n_moved < self._n:
            if n_moved == 0:
                return
            stay = ~moved
            cur = self._cur
            pairs = [(prop, self._phi()), (new.grad, cur.grad)]
            pairs += zip(new.diffs + new.vp, cur.diffs + cur.vp)
            if new.energy is not None:
                pairs += [(new.energy, cur.energy)] + list(zip(new.v_sums, cur.v_sums))
            for a, b in pairs:
                a[stay] = b[stay]
        self.system.phi = prop if self._batched else prop[0]
        self._cur = new

    def _sweep(self, active: np.ndarray | None = None) -> np.ndarray:
        """One sweep of the chains flagged in ``active`` (all when None).

        The other chains wait: they draw nothing and keep their state.
        Returns the mask of chains that moved (accepted, for MALA).
        """
        if active is not None and active.all():
            active = None
        phi = self._phi()
        if self._cur is None:
            self._cur = self._bonds(phi)
        cur = self._cur
        rngs = self.system.rngs
        rows = range(self._n) if active is None else np.flatnonzero(active)
        xi = np.empty_like(phi) if active is None else np.zeros_like(phi)
        for j in rows:
            rngs[j].standard_normal(out=xi[j])
        xi *= self._mask
        h, noise, two_h, four_h = self._factors
        prop = phi - h * cur.grad + noise * xi
        new = self._bonds(prop)
        if self.kind == "mala":
            fwd = two_h * (xi**2).sum(axis=self._axes)
            rev = ((phi - prop + h * new.grad) ** 2).sum(axis=self._axes)
            log_alpha = cur.energy - new.energy + (fwd - rev) / four_h
            log_u = np.full(self._n, np.inf)  # a waiting chain never moves
            for j in rows:
                log_u[j] = rngs[j].uniform()
            moved = np.log(log_u, out=log_u) < log_alpha
            n_moved = int(np.count_nonzero(moved))
            self._proposals += len(rows)
            self._accepts += n_moved
        else:
            moved = self._everyone if active is None else active
            n_moved = len(rows)
        self._adopt(prop, new, moved, n_moved)
        return moved

    # -- preparation ----------------------------------------------------------

    def _tune(self, rounds: int = 40, per_round: int = 25):
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

    def _adaptive_burn_in(self, base: int = 1000):
        """``base`` probed sweeps, then each chain up to 10 IACT of its probes.

        The probes are the mean of V over all bonds (summed over axes) and
        of V' over axis 0, read from the kept pass: each sum divided by the
        bond count is what ``.mean()`` computes.
        """
        n_bonds = self.system.lattice.n_sites
        probes = np.empty((2, self._n, base))
        self._probing = True
        for k in range(base):
            self._sweep()
            cur = self._cur
            energy = cur.v_sums[0] / n_bonds
            for v_sum in cur.v_sums[1:]:
                energy = energy + v_sum / n_bonds
            probes[0, :, k] = energy
            probes[1, :, k] = cur.vp[0].sum(axis=self._axes) / n_bonds
        self._probing = False
        tau = [max(integrated_autocorr_time(p[j]) for p in probes)
               for j in range(self._n)]
        extra = np.array([max(0, int(np.ceil(10 * t)) - base) for t in tau])
        for k in range(extra.max()):
            self._sweep(extra > k)

    def prepare(self) -> None:
        """Tune the steps (MALA, if unset) and burn in; idempotent."""
        if self._prepared:
            return
        sys = self.system
        if self._step is None:
            n, d = sys.lattice.n_sites, sys.lattice.d
            if self.kind == "mala":
                lip = max(sys.pot.drift_lipschitz, 1e-6)
                self._set_step(np.full(self._n, n ** (-1.0 / 3.0) / lip))
                self._tune()
            else:
                self._set_step(np.full(self._n, 0.5 * min(step_cap(sys.pot, d), 1.0)))
        if self.burn_in is not None:
            for _ in range(self.burn_in):
                self._sweep()
        else:
            self._adaptive_burn_in()
        self._accepts = self._proposals = 0
        self._prepared = True

    @property
    def step(self):
        """The step: a float for one unbatched chain, else one per chain."""
        if self._step is None:
            return None
        return self._step.copy() if self._batched else float(self._step[0])

    @property
    def acceptance_rate(self) -> float:
        """Accepted over proposed sweeps, pooled over the chains."""
        if self._proposals == 0:
            return float("nan")
        return self._accepts / self._proposals

    @property
    def eta_tilde(self) -> list:
        """Untilted bond differences of the current state, per axis (read-only)."""
        return self._view(self._cur.diffs)

    @property
    def vprime(self) -> list:
        """V' on the tilted bonds of the current state, per axis (read-only)."""
        return self._view(self._cur.vp)

    # -- collection -----------------------------------------------------------

    def collect(self, sweeps: int, observables: dict) -> dict:
        """Run ``sweeps`` post-burn sweeps, recording every ``thin``-th.

        Each observable maps the list of untilted bond components (the
        read-only ``eta_tilde``) to a value: a scalar for an unbatched
        sampler, an array with one entry per chain for a batch, which
        records as (samples, B).  An observable may also read ``vprime``.
        """
        self.prepare()
        n_rec = sweeps // self.thin
        out = {name: np.empty(0) for name in observables}
        for s in range(sweeps):
            self._sweep()
            if (s + 1) % self.thin == 0:
                k = s // self.thin
                et = self.eta_tilde
                for name, fn in observables.items():
                    v = fn(et)
                    if k == 0:  # one array per series, shaped by the first record
                        v = np.asarray(v)
                        out[name] = np.empty((n_rec,) + v.shape, v.dtype)
                    out[name][k] = v
        return out


def make_sampler(
    pot,
    N: int,
    tilt,
    kind: str = "mala",
    step: float | None = None,
    burn_in: int | None = None,
    thin: int = 1,
    seed=0,
    phi0=None,
) -> GibbsSampler:
    """Sampler for the tilt-u ensemble on the (Z/NZ)^d torus, d = len(tilt).

    A tilt of shape (B, d) makes a batch of B chains instead; ``seed``
    then lists one seed per chain.
    """
    tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
    lat = TorusLattice(N, tilt.shape[-1])
    system = TiltedPeriodicSystem(lat, pot, tilt, phi=phi0, seed=seed)
    return GibbsSampler(system, kind=kind, step=step, burn_in=burn_in, thin=thin)


# ---------------------------------------------------------------------------
# estimators


def _report(sampler: GibbsSampler, name: str, sweeps: int, obs) -> EstimatorReport:
    """Batch-means report of the scalar observable ``obs`` over ``sweeps``."""
    sys = sampler.system
    series = sampler.collect(sweeps, {"o": obs})["o"]
    value, stderr, ess = batch_means(series)
    return EstimatorReport(
        name=name,
        value=value,
        stderr=stderr,
        ess=ess,
        sweeps=sweeps,
        meta={"potential": sys.pot.name, "N": sys.lattice.N, "tilt": tuple(sys.tilt)},
    )


def estimate_identity2(sampler: GibbsSampler, sweeps: int = 20000) -> EstimatorReport:
    """Estimate sum_i E[eta(e_i) V'(eta(e_i))], which equals u . grad sigma + 1
    in the infinite-volume limit (finite-N value differs at O(N^-d))."""
    u = sampler.system.tilt

    def obs(et):
        vp = sampler.vprime  # V' of the kept bond pass
        return float(sum(((e + u[i]) * vp[i]).mean() for i, e in enumerate(et)))

    return _report(sampler, "eta_vprime_identity", sweeps, obs)


def estimate_bond_variance(
    sampler: GibbsSampler, axis: int = 0, sweeps: int = 20000
) -> EstimatorReport:
    """Variance of the bond variable along one axis (tilt drops out)."""
    return _report(
        sampler, f"bond_variance[{axis}]", sweeps,
        lambda et: float(np.square(et[axis]).mean()),
    )


def chain_means(sampler: GibbsSampler, sweeps: int, obs):
    """Batch means over ``sweeps`` of ``obs(et, i)``, an array with one entry
    per chain of a batched sampler, for each lattice axis i; returns
    (values, stderr), each (chains, d)."""
    d = sampler.system.lattice.d
    series = sampler.collect(sweeps, {i: (lambda et, i=i: obs(et, i)) for i in range(d)})
    values = np.zeros((sampler._n, d))
    errors = np.zeros((sampler._n, d))
    for i in range(d):
        for j, x in enumerate(np.ascontiguousarray(series[i].T)):
            values[j, i], errors[j, i], _ = batch_means(x)
    return values, errors


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

    def max_on_edge_within(self, n_se: float = 3.0) -> bool:
        """Whether the largest variance sits on the tilt-grid hull, up to
        ``n_se`` combined standard errors."""
        edge = self.edge_mask()
        flat_edge = self.values[edge]
        if flat_edge.size == 0:
            return False
        best_edge = float(flat_edge.max())
        se_edge = float(self.stderr[edge].ravel()[np.argmax(flat_edge)])
        inner = ~edge
        if not inner.any():
            return True
        best_inner = float(self.values[inner].max())
        se_inner = float(self.stderr[inner].ravel()[np.argmax(self.values[inner])])
        return best_inner <= best_edge + n_se * (se_edge + se_inner)


def variance_sweep(
    pot,
    N: int,
    tilts,
    sweeps: int = 6000,
    seed=0,
    kind: str = "mala",
    step: float | None = None,
    burn_in: int | None = None,
    thin: int = 1,
) -> VarianceSweep:
    """Bond variances across a grid of tilts, one chain per tilt, all
    advanced as one batch; chain j is seeded (*seed, j)."""
    tilts = np.atleast_2d(np.asarray(tilts, dtype=float))
    n, d = tilts.shape
    sampler = make_sampler(
        pot, N, tilts, kind=kind, step=step, burn_in=burn_in, thin=thin,
        seed=[tuple(seed_key(seed)) + (j,) for j in range(n)],
    )
    axes = tuple(range(1, d + 1))
    values, errors = chain_means(
        sampler, sweeps, lambda et, i: np.square(et[i]).mean(axis=axes)
    )
    return VarianceSweep(tilts, values, errors, sweeps, pot.name, N)


# ---------------------------------------------------------------------------
# local-conditional (DLR) check


class _WindowTarget:
    """Conditional law of heights in a window given frozen exterior heights."""

    def __init__(self, pot, d: int, width: int, exterior):
        self.pot = pot
        coords = np.stack(
            np.meshgrid(*([np.arange(width)] * d), indexing="ij")
        ).reshape(d, -1).T
        self.coords = coords
        index = {tuple(c): i for i, c in enumerate(coords.tolist())}
        pairs = []
        ext = []
        ring = []
        for i, c in enumerate(coords.tolist()):
            for ax in range(d):
                for s in (1, -1):
                    y = list(c)
                    y[ax] += s
                    ty = tuple(y)
                    if ty in index:
                        if s == 1:
                            pairs.append((index[ty], i))  # head, tail
                    else:
                        ring.append(ty)
                        ext.append((i, ty))
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.ring = sorted(set(ring))
        ring_vals = {}
        ys = np.asarray(self.ring, dtype=float)
        vals = np.asarray(exterior(ys), dtype=float)
        for ty, v in zip(self.ring, vals):
            ring_vals[ty] = float(v)
        self.ext_site = np.asarray([i for i, _ in ext], dtype=np.int64)
        self.ext_val = np.asarray([ring_vals[ty] for _, ty in ext])

    @property
    def size(self) -> int:
        return len(self.coords)

    def logp(self, phi: np.ndarray) -> np.ndarray:
        """Unnormalized log density, phi of shape (chains, m)."""
        s = np.zeros(phi.shape[0])
        if len(self.pairs):
            s -= self.pot.v(phi[:, self.pairs[:, 0]] - phi[:, self.pairs[:, 1]]).sum(
                axis=1
            )
        s -= self.pot.v(phi[:, self.ext_site] - self.ext_val).sum(axis=1)
        return s

    def grad_neg_logp(self, phi: np.ndarray) -> np.ndarray:
        g = np.zeros_like(phi)
        if len(self.pairs):
            dv = self.pot.vp(phi[:, self.pairs[:, 0]] - phi[:, self.pairs[:, 1]])
            np.add.at(g, (slice(None), self.pairs[:, 0]), dv)
            np.add.at(g, (slice(None), self.pairs[:, 1]), -dv)
        dve = self.pot.vp(phi[:, self.ext_site] - self.ext_val)
        np.add.at(g, (slice(None), self.ext_site), dve)
        return g


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
    exterior: tuple


def dlr_check(
    pot,
    N: int,
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

    With ``window == 1`` the conditional is a one-dimensional density
    computed by quadrature; the report carries the sup distance between
    the empirical histogram and the bin-averaged exact density.  Larger
    windows (up to width 3) only compare the two overdispersed start
    groups against each other.  ``N`` records the ambient scale for
    provenance; the conditional itself only sees the frozen ring.
    """
    tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
    d = len(tilt)
    if not 1 <= window <= 3:
        raise ValueError("window width must be 1, 2, or 3")
    rng = stream(*seed_key(seed), 7)
    if exterior is None:
        jitter = rng.uniform(-1.0, 1.0, size=3**d * 2 * d)

        def exterior(ys):
            base = ys @ tilt
            return base + jitter[: len(ys)]

    target = _WindowTarget(pot, d, window, exterior)
    m = target.size

    # overdispersed starts: half the chains low, half high
    ext_lo, ext_hi = float(target.ext_val.min()), float(target.ext_val.max())
    phi = np.empty((chains, m))
    phi[: chains // 2] = ext_lo - 2.0
    phi[chains // 2 :] = ext_hi + 2.0
    group = np.zeros(chains, dtype=bool)
    group[chains // 2 :] = True

    h = 0.5 / max(pot.drift_lipschitz, 0.5)
    logp = target.logp(phi)
    grad = target.grad_neg_logp(phi)

    def mala_update(h):
        """One MALA step of every chain; the gradient is kept at the accepted state."""
        xi = rng.standard_normal(phi.shape)
        prop = phi - h * grad + np.sqrt(2.0 * h) * xi
        logp_prop = target.logp(prop)
        gp = target.grad_neg_logp(prop)
        fwd = 2.0 * h * np.sum(xi**2, axis=1)
        rev = np.sum((phi - prop + h * gp) ** 2, axis=1)
        log_alpha = logp_prop - logp + (fwd - rev) / (4.0 * h)
        acc = np.log(rng.uniform(size=chains)) < log_alpha
        phi[acc] = prop[acc]
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
    if window == 1 and m == 1:
        lo = float(target.ext_val.min()) - 8.0
        hi = float(target.ext_val.max()) + 8.0
        xs = np.linspace(lo, hi, 8001)
        logd = -sum(pot.v(xs - a) for a in target.ext_val)
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
        emp_density, _ = np.histogram(samples, bins=edges, density=True)
        sup = float(np.abs(emp_density - quad_density).max())
        lo_density, _ = np.histogram(samples[~sample_group], bins=edges, density=True)
        hi_density, _ = np.histogram(samples[sample_group], bins=edges, density=True)
        two_start = float(np.abs(lo_density - hi_density).max())
    else:
        a = samples[~sample_group]
        b = samples[sample_group]
        edges = np.histogram_bin_edges(samples, bins=bins)
        da, _ = np.histogram(a, bins=edges, density=True)
        db, _ = np.histogram(b, bins=edges, density=True)
        two_start = float(np.abs(da - db).max())

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
        exterior=tuple(np.round(target.ext_val, 12).tolist()),
    )
