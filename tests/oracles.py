"""Independent reference computations used by the test suite.

Everything here is written directly against numpy/scipy, not against
the package under test, so a bug in the package cannot silently agree
with its own oracle.
"""

import numpy as np
from scipy.integrate import simpson


def laplacian_eigenvalues(N: int, d: int) -> np.ndarray:
    """Eigenvalues of the lattice Laplacian on the d-torus, shape (N,)*d."""
    k = np.arange(N)
    s2 = 4.0 * np.sin(np.pi * k / N) ** 2
    lam = np.zeros((N,) * d)
    for i in range(d):
        shape = [1] * d
        shape[i] = N
        lam = lam + s2.reshape(shape)
    return lam


def gaussian_bond_variance(N: int, d: int, axis: int) -> float:
    """Var of one gradient component under the zero-tilt Gaussian ensemble.

    Fourier diagonalization: Var = N^-d sum_{k != 0} 4 sin^2(pi k_axis/N)
    / lambda_k with lambda_k the Laplacian eigenvalue.
    """
    lam = laplacian_eigenvalues(N, d)
    k = np.arange(N)
    shape = [1] * d
    shape[axis] = N
    num = (4.0 * np.sin(np.pi * k / N) ** 2).reshape(shape) * np.ones((N,) * d)
    mask = lam > 0
    return float(np.sum(num[mask] / lam[mask]) / N**d)


def em_gaussian_bond_variance(N: int, d: int, axis: int, dt: float) -> float:
    """Stationary bond variance of the Euler chain for the quadratic model.

    The update is linear, phi' = (1 - dt L) phi + sqrt(2 dt) xi, so each
    Fourier mode is an AR(1) with stationary variance
    2 dt / (1 - (1 - dt lambda)^2) = 1 / (lambda (1 - dt lambda / 2)).
    """
    lam = laplacian_eigenvalues(N, d)
    k = np.arange(N)
    shape = [1] * d
    shape[axis] = N
    num = (4.0 * np.sin(np.pi * k / N) ** 2).reshape(shape) * np.ones((N,) * d)
    mask = lam > 0
    denom = lam[mask] * (1.0 - dt * lam[mask] / 2.0)
    return float(np.sum(num[mask] / denom) / N**d)


def heat_solution(h0, x, t, n_terms: int = 200, n_quad: int = 4001):
    """Dirichlet heat equation on [0,1] by sine series.

    Coefficients are computed with Simpson quadrature of the initial
    profile, so this shares no code with the finite-difference solver it
    checks.
    """
    xs = np.linspace(0.0, 1.0, n_quad)
    vals = np.asarray(h0(xs[:, None])).ravel()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for k in range(1, n_terms + 1):
        bk = 2.0 * simpson(vals * np.sin(k * np.pi * xs), x=xs)
        out += bk * np.exp(-((k * np.pi) ** 2) * t) * np.sin(k * np.pi * x)
    return out


def conditional_density_1d(v, left, right, grid):
    """Normalized density of the middle height given frozen neighbours.

    One-site window in d=1: two bonds contribute, weight
    exp(-v(phi - left) - v(right - phi)); trapezoid normalization.
    """
    logw = -(v(grid - left) + v(right - grid))
    logw -= logw.max()
    w = np.exp(logw)
    z = np.trapezoid(w, grid)
    return w / z


def density_moments(density, grid):
    m = np.trapezoid(density * grid, grid)
    var = np.trapezoid(density * (grid - m) ** 2, grid)
    return float(m), float(var)


def brute_force_interior(contains, N: int, d: int, span: int = None):
    """All sites whose 5/N-cube sits inside the region, by dense sampling.

    ``contains`` maps (M, d) points to booleans.  Cube membership is
    checked on a 7-point-per-axis tensor cloud spanning the half-open
    cube [-2.5, 2.5)^d / N; the open side is shaved by a small epsilon.
    """
    if span is None:
        span = 3 * N
    ticks = np.arange(-span, span + 1)
    grids = np.meshgrid(*([ticks] * d), indexing="ij")
    sites = np.stack([g.ravel() for g in grids], axis=1)
    lo, hi = -2.5 / N, 2.5 / N - 1e-12
    probe = np.linspace(lo, hi, 7)
    cloud = np.meshgrid(*([probe] * d), indexing="ij")
    cloud = np.stack([c.ravel() for c in cloud], axis=1)
    keep = []
    for x in sites:
        pts = x / N + cloud
        if contains(pts).all():
            keep.append(x)
    return np.array(keep, dtype=int).reshape(-1, d)


def fd_gradient(fn, x, h: float = 1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = g.ravel()
    xf = x.ravel()
    for i in range(x.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += h
        xm[i] -= h
        flat[i] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2 * h)
    return g


def hamiltonian_torus(v, phi, tilt):
    """Reference tilted energy on the torus: sum over directed bonds in
    the positive axis directions of v(gradient + tilt component)."""
    phi = np.asarray(phi, dtype=float)
    d = phi.ndim
    total = 0.0
    for i in range(d):
        eta = np.roll(phi, -1, axis=i) - phi + tilt[i]
        total += v(eta).sum()
    return float(total)


def hamiltonian_domain(v, phi, heads, tails):
    """Reference Dirichlet energy: sum of v over the closure bond list."""
    return float(v(phi[heads] - phi[tails]).sum())


def reference_integrate_paths(axes, anchor, dsigma, dsigma_err):
    """sigma and its variance by a node-by-node trapezoid walk from 0 at
    ``anchor``: along axis 0, then along axis 1 from every node filled so
    far, and so on; each node adds one step to its filled neighbour."""
    d = len(axes)
    grid_shape = dsigma.shape[:-1]
    sigma_vals = np.zeros(grid_shape)
    sigma_var = np.zeros(grid_shape)
    for k in range(d):
        base = [slice(None)] * d
        for m in range(k + 1, d):
            base[m] = anchor[m]
        ax = axes[k]
        for direction in (1, -1):
            start = anchor[k]
            nodes = range(start + 1, len(ax)) if direction == 1 else range(start - 1, -1, -1)
            for i in nodes:
                prev = i - direction
                cur_sl, prev_sl = list(base), list(base)
                cur_sl[k], prev_sl[k] = i, prev
                cur, prv = tuple(cur_sl), tuple(prev_sl)
                du = ax[i] - ax[prev]
                g_cur, g_prev = dsigma[cur + (k,)], dsigma[prv + (k,)]
                e_cur, e_prev = dsigma_err[cur + (k,)], dsigma_err[prv + (k,)]
                sigma_vals[cur] = sigma_vals[prv] + 0.5 * du * (g_cur + g_prev)
                sigma_var[cur] = sigma_var[prv] + (0.25 * du**2 * (e_cur**2 + e_prev**2))
    return sigma_vals, sigma_var


def reference_pde_solve(h, interior, spacing, flux, t_end, dt=None, record=(),
                        safety=0.9, clamp_tol=1e-3):
    """The explicit flux-form PDE step loop in its plain form.

    Boolean-mask gather/scatter updates, ``np.gradient`` node gradients,
    and per face direction i one full-vector ``flux.grad_many`` call of
    which column i is kept.  ``h`` holds the initial values with the
    boundary already in place; ``interior`` is the mask of nodes that
    move.  Returns a dict with ``final``, ``snapshots``, ``steps``,
    ``linf_ok``, ``clamped`` and ``queries``, plus ``nonfinite_step``
    (the step at which the state left float range, else None) and
    ``range_exceeded`` (clamped / queries above ``clamp_tol``).
    """
    h = np.array(h, dtype=float)
    d = h.ndim
    exterior = ~interior
    bvals = h.copy()

    def along(i, sl):
        return tuple(sl if k == i else slice(None) for k in range(d))

    def divergence(h):
        div = np.zeros_like(h)
        node_grads = np.gradient(h, spacing) if d > 1 else None
        for i in range(d):
            lower, upper = along(i, slice(None, -1)), along(i, slice(1, None))
            face_grad = (h[upper] - h[lower]) / spacing
            comps = [
                face_grad if j == i
                else 0.5 * (node_grads[j][lower] + node_grads[j][upper])
                for j in range(d)
            ]
            face_vec = np.stack([c.ravel() for c in comps], axis=-1)
            flux_i = flux.grad_many(face_vec)[:, i].reshape(face_grad.shape)
            div[along(i, slice(1, -1))] += (flux_i[upper] - flux_i[lower]) / spacing
        return div

    cap = spacing**2 / (2.0 * d * flux.lipschitz_upper)
    dt_base = dt if dt is not None else safety * cap
    times = sorted(set(float(t) for t in record) | {float(t_end)})
    clamp_before = getattr(flux, "clamp_events", 0)
    out = {"snapshots": {}, "linf_ok": True, "nonfinite_step": None}
    bound0 = float(np.abs(h).max())
    queries = 0
    t = 0.0
    steps = 0
    for t_next in times:
        span = t_next - t
        if span > 1e-15:
            n = max(1, int(np.ceil(span / dt_base - 1e-12)))
            dt_eff = span / n
            for _ in range(n):
                div = divergence(h)
                h[interior] += dt_eff * div[interior]
                h[exterior] = bvals[exterior]
                steps += 1
                queries += d * h.size
                if not np.isfinite(h).all():
                    out["nonfinite_step"] = steps
                    break
                if np.abs(h).max() > bound0 + 1e-9:
                    out["linf_ok"] = False
            if out["nonfinite_step"] is not None:
                break
        t = t_next
        out["snapshots"][t_next] = h.copy()
    clamped = getattr(flux, "clamp_events", 0) - clamp_before
    out.update(final=h, steps=steps, clamped=clamped, queries=queries,
               range_exceeded=bool(queries and clamped / queries > clamp_tol))
    return out


class PlainDirichlet:
    """Dirichlet Langevin dynamics in its plain form.

    Interior sites come first in ``phi`` (shape (n_sites,) or (replicas,
    n_sites)) and ``neighbors`` is the (n_interior, 2d) id table.  Noise
    is one ``standard_normal(n_interior)`` call per replica and step,
    stacked; the drift gathers neighbours as (..., n_interior, 2d) and
    sums the last axis.
    """

    def __init__(self, phi, boundary, n_interior, neighbors, bonds_closure, vp, rngs):
        self.phi = np.array(phi, dtype=float)
        self.boundary = np.asarray(boundary, dtype=float)
        self.n_int = n_interior
        self.neighbors = neighbors
        self.heads, self.tails = bonds_closure[:, 0], bonds_closure[:, 1]
        self.vp = vp
        self.rngs = rngs

    def drift(self):
        center = self.phi[..., : self.n_int]
        nbrs = self.phi[..., self.neighbors]
        return -self.vp(center[..., None] - nbrs).sum(axis=-1)

    def noise(self):
        if self.phi.ndim == 1:
            return self.rngs[0].standard_normal(self.n_int)
        return np.stack([g.standard_normal(self.n_int) for g in self.rngs])

    def dirichlet_sum(self):
        diff = self.phi[..., self.heads] - self.phi[..., self.tails]
        return 2.0 * np.square(diff).sum(axis=-1)

    def step(self, dt, noise_scale=1.0):
        amp = noise_scale * np.sqrt(2.0 * dt)
        incr = dt * self.drift()
        if amp:
            incr += amp * self.noise()
        self.phi[..., : self.n_int] += incr
        self.phi[..., self.n_int :] = self.boundary[self.n_int :]


def reference_dirichlet_run(plain, N, weights, dt, times, noise_scale=1.0, collect=None):
    """Checkpointed energy trace of a ``PlainDirichlet`` run.

    Each span of N^2 (t_next - t) microscopic time takes the fewest steps
    of at most ``dt``; the Dirichlet integral is accumulated with left
    endpoints and scaled by N^-d / N^2.  ``weights`` are the L2(D) cell
    weights per site.  ``collect(t, phi)`` runs at each checkpoint.
    Returns a dict with ``times``, ``h_norm_sq``, ``dirichlet_integral``
    and ``initial_norm_sq``.
    """
    d = plain.neighbors.shape[1] // 2
    times = np.asarray(sorted(float(t) for t in times))
    n_rep = 1 if plain.phi.ndim == 1 else plain.phi.shape[0]
    scale = N ** (-d)

    def norm_sq():
        return np.atleast_1d(((plain.phi / N) ** 2) @ weights)

    out = {
        "times": times,
        "initial_norm_sq": norm_sq(),
        "h_norm_sq": np.zeros((len(times), n_rep)),
        "dirichlet_integral": np.zeros((len(times), n_rep)),
    }
    integral = np.zeros(n_rep)
    t_macro = 0.0
    for k, t_next in enumerate(times):
        span = (t_next - t_macro) * N**2
        if span > 0:
            n_steps = max(1, int(np.ceil(span / dt)))
            dt_eff = span / n_steps
            for _ in range(n_steps):
                integral += np.atleast_1d(plain.dirichlet_sum()) * scale * dt_eff / N**2
                plain.step(dt_eff, noise_scale)
        t_macro = t_next
        out["h_norm_sq"][k] = norm_sq()
        out["dirichlet_integral"][k] = integral
        if collect is not None:
            collect(t_next, plain.phi)
    return out


def reference_mala_chain(v, vp, tilt, phi, rng, sweeps, observables=None, kind="mala",
                         step=None, lipschitz=1.0, burn_in=None, thin=1):
    """A single gauge-fixed torus chain in its plain form.

    MALA (or ULA) sweeps with ``np.roll`` energy and gradient passes and a
    fresh gradient of the current state on every sweep; step tuning toward
    the 0.50-0.65 acceptance window in rounds of 25 sweeps; burn-in either
    fixed or adaptive (1000 probed sweeps, then up to 10 IACT); then
    ``sweeps`` sweeps recording each observable of ``np.roll`` bond
    differences every ``thin``-th sweep.  ``rng`` supplies one
    ``standard_normal(phi.shape)`` and, for MALA, one ``uniform()`` per
    sweep.  Returns a dict with ``phis`` (the state after every sweep),
    ``step``, ``accepts`` and ``proposals`` (counted after burn-in) and
    ``series`` (one array per observable).  The burn-in length uses the
    package's IACT estimator, which has its own tests.
    """
    from heightlab.gibbs import integrated_autocorr_time

    observables = dict(observables or {})
    tilt = np.atleast_1d(np.asarray(tilt, dtype=float))
    d = len(tilt)
    mask = np.ones(np.shape(phi))
    mask[(0,) * d] = 0.0
    st = {"phi": np.array(phi, dtype=float), "energy": None, "step": step,
          "accepts": 0, "proposals": 0}
    phis = []

    def energy_of(p):
        total = 0.0
        for i in range(d):
            total += float(v(np.roll(p, -1, axis=i) - p + tilt[i]).sum())
        return total

    def grad_of(p):
        out = np.zeros_like(p)
        for i in range(d):
            a = vp(np.roll(p, -1, axis=i) - p + tilt[i])
            out += np.roll(a, 1, axis=i) - a
        return out

    def eta_tilde():
        return [np.roll(st["phi"], -1, axis=i) - st["phi"] for i in range(d)]

    def mala():
        h, p = st["step"], st["phi"]
        if st["energy"] is None:
            st["energy"] = energy_of(p)
        g = grad_of(p) * mask
        xi = rng.standard_normal(p.shape) * mask
        prop = p - h * g + np.sqrt(2.0 * h) * xi
        e_prop = energy_of(prop)
        gp = grad_of(prop) * mask
        fwd = 2.0 * h * float(np.sum(xi**2))
        rev = float(np.sum((p - prop + h * gp) ** 2))
        log_alpha = st["energy"] - e_prop + (fwd - rev) / (4.0 * h)
        st["proposals"] += 1
        accepted = bool(np.log(rng.uniform()) < log_alpha)
        if accepted:
            st["phi"], st["energy"] = prop, e_prop
            st["accepts"] += 1
        phis.append(st["phi"].copy())
        return accepted

    def ula():
        h, p = st["step"], st["phi"]
        g = grad_of(p) * mask
        xi = rng.standard_normal(p.shape) * mask
        st["phi"] = p - h * g + np.sqrt(2.0 * h) * xi
        phis.append(st["phi"].copy())
        return True

    sweep = mala if kind == "mala" else ula
    if st["step"] is None:
        if kind == "mala":
            st["step"] = mask.size ** (-1.0 / 3.0) / max(lipschitz, 1e-6)
            for _ in range(40):
                acc = sum(mala() for _ in range(25)) / 25
                if acc > 0.65:
                    st["step"] *= 1.2
                    st["energy"] = None
                elif acc < 0.50:
                    st["step"] /= 1.2
                    st["energy"] = None
                else:
                    break
        else:
            cap = 0.1 / (2 * d * lipschitz) if lipschitz > 0 else np.inf
            st["step"] = 0.5 * min(cap, 1.0)
    if burn_in is not None:
        for _ in range(burn_in):
            sweep()
    else:
        e_probe, vp_probe = [], []
        for _ in range(1000):
            sweep()
            et = eta_tilde()
            e_probe.append(sum(float(v(e + tilt[i]).mean()) for i, e in enumerate(et)))
            vp_probe.append(float(vp(et[0] + tilt[0]).mean()))
        tau = max(integrated_autocorr_time(np.array(p)) for p in (e_probe, vp_probe))
        for _ in range(max(0, int(np.ceil(10 * tau)) - 1000)):
            sweep()
    st["accepts"] = st["proposals"] = 0
    series = {name: [] for name in observables}
    for s in range(sweeps):
        sweep()
        if (s + 1) % thin == 0:
            et = eta_tilde()
            for name, fn in observables.items():
                series[name].append(fn(et))
    return {"phis": phis, "step": st["step"], "accepts": st["accepts"],
            "proposals": st["proposals"],
            "series": {name: np.asarray(x) for name, x in series.items()}}
