"""Gibbs sampling of tilted gradient ensembles on the torus.

The target law has density proportional to exp(-H_u(phi)) with

    H_u(phi) = sum_{x, i} V(phi(x + e_i) - phi(x) + u_i)

over heights gauge-fixed by phi(0) = 0; heights modulo constants are in
bijection with zero-winding gradient configurations, so this samples the
gradient ensemble with mean tilt u.  The default kernel is MALA, whose
Metropolis correction makes the invariant law exact; the unadjusted
Langevin chain (``kind="ula"``) is kept for bias cross-checks.

Error bars use batch means (32 batches by default) and effective sample
sizes are the ratio of series variance to squared standard error.  The
sampler tunes its step during burn-in toward the 0.50-0.65 acceptance
window, freezes it, then burns for at least max(1000, 10 IACT) sweeps
before any estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import TiltedPeriodicSystem, step_cap
from .lattice import GradientField, TorusLattice
from .rng import seed_key, stream


# ---------------------------------------------------------------------------
# time-series statistics


def batch_means(series, n_batches: int = 32):
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
    """MALA/ULA chain on gauge-fixed torus heights.

    The energy, masked gradient and bond differences of the current state
    are kept from the bond pass that produced it, so a sweep makes one
    pass, on the proposal, and observables read the kept differences.
    """

    def __init__(
        self,
        system: TiltedPeriodicSystem,
        kind: str = "mala",
        step: float | None = None,
        burn_in: int | None = None,
        thin: int = 1,
        n_batches: int = 32,
    ):
        if kind not in ("mala", "ula"):
            raise ValueError("kind must be 'mala' or 'ula'")
        if system.phi.ndim != system.lattice.d:
            raise ValueError("sampler needs a single-replica system")
        self.system = system
        self.kind = kind
        self.thin = max(1, int(thin))
        self.n_batches = int(n_batches)
        self._step = step
        self.burn_in = burn_in
        mask = np.ones(system.lattice.shape)
        mask[(0,) * system.lattice.d] = 0.0  # gauge: phi(0) pinned at 0
        self._mask = mask
        self._prepared = False
        self._cur = None  # (energy, masked gradient, eta_tilde) of system.phi
        self._accepts = 0
        self._proposals = 0

    # -- kernels ------------------------------------------------------------

    def _bonds(self, phi: np.ndarray):
        """(energy, masked gradient, read-only eta_tilde) of ``phi``.

        Only MALA's accept test reads the energy, so ULA does not form it.
        """
        energy, grad, diffs = self.system.bond_pass(
            phi, with_energy=self.kind == "mala"
        )
        for e in diffs:
            e.flags.writeable = False
        return energy, grad * self._mask, diffs

    def _mala_sweep(self) -> bool:
        sys = self.system
        h = self._step
        phi = sys.phi
        if self._cur is None:
            self._cur = self._bonds(phi)
        e_cur, g, _ = self._cur
        xi = sys.rng.standard_normal(phi.shape) * self._mask
        prop = phi - h * g + np.sqrt(2.0 * h) * xi
        proposed = self._bonds(prop)
        e_prop, gp, _ = proposed
        fwd = 2.0 * h * float(np.sum(xi**2))
        rev = float(np.sum((phi - prop + h * gp) ** 2))
        log_alpha = e_cur - e_prop + (fwd - rev) / (4.0 * h)
        self._proposals += 1
        if np.log(sys.rng.uniform()) < log_alpha:
            sys.phi = prop
            self._cur = proposed
            self._accepts += 1
            return True
        return False

    def _ula_sweep(self) -> bool:
        sys = self.system
        h = self._step
        if self._cur is None:
            self._cur = self._bonds(sys.phi)
        xi = sys.rng.standard_normal(sys.phi.shape) * self._mask
        sys.phi = sys.phi - h * self._cur[1] + np.sqrt(2.0 * h) * xi
        self._cur = self._bonds(sys.phi)
        return True

    def _sweep(self) -> bool:
        return self._mala_sweep() if self.kind == "mala" else self._ula_sweep()

    # -- preparation ----------------------------------------------------------

    def _tune(self, rounds: int = 40, per_round: int = 25):
        lo, hi = 0.50, 0.65
        for _ in range(rounds):
            acc = sum(self._mala_sweep() for _ in range(per_round)) / per_round
            if acc > hi:
                self._step *= 1.2
            elif acc < lo:
                self._step /= 1.2
            else:
                break
        self._accepts = 0
        self._proposals = 0

    def prepare(self) -> None:
        """Tune the step (MALA, if unset) and burn in; idempotent."""
        if self._prepared:
            return
        sys = self.system
        d = sys.lattice.d
        if self._step is None:
            if self.kind == "mala":
                lip = max(sys.pot.drift_lipschitz, 1e-6)
                self._step = sys.lattice.n_sites ** (-1.0 / 3.0) / lip
                self._tune()
            else:
                self._step = 0.5 * min(step_cap(sys.pot, d), 1.0)
        if self.burn_in is not None:
            for _ in range(self.burn_in):
                self._sweep()
        else:
            probes = {"energy": [], "vprime": []}
            pot, u = sys.pot, sys.tilt
            base = 1000
            for _ in range(base):
                self._sweep()
                et = self._cur[2]
                probes["energy"].append(
                    sum(float(pot.v(e + u[i]).mean()) for i, e in enumerate(et))
                )
                probes["vprime"].append(float(pot.vp(et[0] + u[0]).mean()))
            tau = max(integrated_autocorr_time(np.array(p)) for p in probes.values())
            for _ in range(max(0, int(np.ceil(10 * tau)) - base)):
                self._sweep()
        self._accepts = 0
        self._proposals = 0
        self._prepared = True

    @property
    def step(self) -> float | None:
        return self._step

    @property
    def acceptance_rate(self) -> float:
        if self._proposals == 0:
            return float("nan")
        return self._accepts / self._proposals

    # -- collection -----------------------------------------------------------

    def collect(self, sweeps: int, observables: dict) -> dict:
        """Run ``sweeps`` post-burn sweeps, recording every ``thin``-th.

        Each observable maps the list of untilted bond components to a
        scalar; the arrays are read-only.
        """
        self.prepare()
        out = {name: [] for name in observables}
        for s in range(sweeps):
            self._sweep()
            if (s + 1) % self.thin == 0:
                et = self._cur[2]
                for name, fn in observables.items():
                    out[name].append(fn(et))
        return {name: np.asarray(vals) for name, vals in out.items()}


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
    """Sampler for the tilt-u ensemble on the (Z/NZ)^d torus, d = len(tilt)."""
    tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
    lat = TorusLattice(N, len(tilt))
    system = TiltedPeriodicSystem(lat, pot, tilt, phi=phi0, seed=seed)
    return GibbsSampler(system, kind=kind, step=step, burn_in=burn_in, thin=thin)


def sample(sampler: GibbsSampler, sweeps: int):
    """Yield tilted gradient configurations, one per ``thin`` sweeps."""
    sampler.prepare()
    sys = sampler.system
    for s in range(sweeps):
        sampler._sweep()
        if (s + 1) % sampler.thin == 0:
            comps = np.stack([e + sys.tilt[i] for i, e in enumerate(sampler._cur[2])])
            yield GradientField(sys.lattice, comps)


# ---------------------------------------------------------------------------
# estimators


def estimate_vprime_mean(
    sampler: GibbsSampler, axis: int = 0, sweeps: int = 20000
) -> EstimatorReport:
    """Mean of V' over the tilted bonds along one axis.

    By tilt-differentiation of the free energy this equals the
    corresponding component of the surface-tension gradient.
    """
    sys = sampler.system
    pot, u = sys.pot, sys.tilt

    def obs(et):
        return float(pot.vp(et[axis] + u[axis]).mean())

    series = sampler.collect(sweeps, {"o": obs})["o"]
    value, stderr, ess = batch_means(series, sampler.n_batches)
    return EstimatorReport(
        name=f"vprime_mean[{axis}]",
        value=value,
        stderr=stderr,
        ess=ess,
        sweeps=sweeps,
        meta={"potential": pot.name, "N": sys.lattice.N, "tilt": tuple(u)},
    )


def estimate_identity2(sampler: GibbsSampler, sweeps: int = 20000) -> EstimatorReport:
    """Estimate sum_i E[eta(e_i) V'(eta(e_i))], which equals u . grad sigma + 1
    in the infinite-volume limit (finite-N value differs at O(N^-d))."""
    sys = sampler.system
    pot, u = sys.pot, sys.tilt

    def obs(et):
        return float(
            sum(((e + u[i]) * pot.vp(e + u[i])).mean() for i, e in enumerate(et))
        )

    series = sampler.collect(sweeps, {"o": obs})["o"]
    value, stderr, ess = batch_means(series, sampler.n_batches)
    return EstimatorReport(
        name="eta_vprime_identity",
        value=value,
        stderr=stderr,
        ess=ess,
        sweeps=sweeps,
        meta={"potential": pot.name, "N": sys.lattice.N, "tilt": tuple(u)},
    )


def estimate_bond_variance(
    sampler: GibbsSampler, axis: int = 0, sweeps: int = 20000
) -> EstimatorReport:
    """Variance of the bond variable along one axis (tilt drops out)."""
    sys = sampler.system

    def obs(et):
        return float(np.square(et[axis]).mean())

    series = sampler.collect(sweeps, {"o": obs})["o"]
    value, stderr, ess = batch_means(series, sampler.n_batches)
    return EstimatorReport(
        name=f"bond_variance[{axis}]",
        value=value,
        stderr=stderr,
        ess=ess,
        sweeps=sweeps,
        meta={"potential": sys.pot.name, "N": sys.lattice.N, "tilt": tuple(sys.tilt)},
    )


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
    """Bond variances across a grid of tilts, one fresh chain per tilt."""
    tilts = np.atleast_2d(np.asarray(tilts, dtype=float))
    n, d = tilts.shape
    values = np.zeros((n, d))
    errors = np.zeros((n, d))
    for j, u in enumerate(tilts):
        sampler = make_sampler(
            pot, N, u, kind=kind, step=step, burn_in=burn_in, thin=thin,
            seed=tuple(seed_key(seed)) + (j,),
        )
        obs = {
            f"var{i}": (lambda et, i=i: float(np.square(et[i]).mean()))
            for i in range(d)
        }
        series = sampler.collect(sweeps, obs)
        for i in range(d):
            v, se, _ = batch_means(series[f"var{i}"], sampler.n_batches)
            values[j, i] = v
            errors[j, i] = se
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
    accept_window = (0.5, 0.65)
    for it in range(burn):
        g = target.grad_neg_logp(phi)
        xi = rng.standard_normal(phi.shape)
        prop = phi - h * g + np.sqrt(2.0 * h) * xi
        logp_prop = target.logp(prop)
        gp = target.grad_neg_logp(prop)
        fwd = 2.0 * h * np.sum(xi**2, axis=1)
        rev = np.sum((phi - prop + h * gp) ** 2, axis=1)
        log_alpha = logp_prop - logp + (fwd - rev) / (4.0 * h)
        acc = np.log(rng.uniform(size=chains)) < log_alpha
        phi[acc] = prop[acc]
        logp[acc] = logp_prop[acc]
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
            g = target.grad_neg_logp(phi)
            xi = rng.standard_normal(phi.shape)
            prop = phi - h * g + np.sqrt(2.0 * h) * xi
            logp_prop = target.logp(prop)
            gp = target.grad_neg_logp(prop)
            fwd = 2.0 * h * np.sum(xi**2, axis=1)
            rev = np.sum((phi - prop + h * gp) ** 2, axis=1)
            log_alpha = logp_prop - logp + (fwd - rev) / (4.0 * h)
            acc = np.log(rng.uniform(size=chains)) < log_alpha
            phi[acc] = prop[acc]
            logp[acc] = logp_prop[acc]
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
