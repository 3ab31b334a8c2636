"""Independent reference computations used by the test suite.

Everything here is written directly against numpy/scipy, not against
the package under test, so a bug in the package cannot silently agree
with its own oracle.
"""

import csv
import itertools

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


def _bond_modes(N: int, d: int, axis: int):
    """Nonzero torus Laplacian eigenvalues lambda_k and the weights
    4 sin^2(pi k_axis / N) with which the modes enter one bond's
    variance, as flat arrays."""
    lam = laplacian_eigenvalues(N, d)
    k = np.arange(N)
    shape = [1] * d
    shape[axis] = N
    num = (4.0 * np.sin(np.pi * k / N) ** 2).reshape(shape) * np.ones((N,) * d)
    mask = lam > 0
    return lam[mask], num[mask]


def gaussian_bond_variance(N: int, d: int, axis: int) -> float:
    """Var of one gradient component under the zero-tilt Gaussian ensemble.

    Fourier diagonalization: Var = N^-d sum_{k != 0} 4 sin^2(pi k_axis/N)
    / lambda_k with lambda_k the Laplacian eigenvalue.
    """
    lam, num = _bond_modes(N, d, axis)
    return float(np.sum(num / lam) / N**d)


def em_gaussian_bond_variance(N: int, d: int, axis: int, dt: float) -> float:
    """Stationary bond variance of the Euler chain for the quadratic model.

    The update is linear, phi' = (1 - dt L) phi + sqrt(2 dt) xi, so each
    Fourier mode is an AR(1) with stationary variance
    2 dt / (1 - (1 - dt lambda)^2) = 1 / (lambda (1 - dt lambda / 2)).
    """
    lam, num = _bond_modes(N, d, axis)
    return float(np.sum(num / (lam * (1.0 - dt * lam / 2.0))) / N**d)


def lm_gaussian_bond_variance(N: int, d: int, axis: int, dt: float) -> float:
    """Stationary bond variance of the Leimkuhler-Matthews chain for the
    quadratic model.

    Per Fourier mode x' = r x + a (xi_n + xi_{n+1}) with r = 1 - dt lambda
    and a = sqrt(dt / 2); x_n is independent of xi_{n+1} and
    Cov(x_n, xi_n) = a, so the stationary variance solves
    v = r^2 v + 2 a^2 + 2 r a^2, v = dt (1 + r) / (1 - r^2) = 1 / lambda:
    the Gibbs value, whatever dt.
    """
    lam, num = _bond_modes(N, d, axis)
    r = 1.0 - dt * lam
    return float(np.sum(num * dt * (1.0 + r) / (1.0 - r**2)) / N**d)


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


def window_ring(d: int, width: int) -> np.ndarray:
    """Sites outside the window {0..width-1}^d with a neighbour inside, sorted."""
    ring = set()
    for x in itertools.product(range(width), repeat=d):
        for i in range(d):
            for s in (1, -1):
                y = list(x)
                y[i] += s
                if not 0 <= y[i] < width:
                    ring.add(tuple(y))
    return np.array(sorted(ring), dtype=int).reshape(-1, d)


def gaussian_window_law(d: int, width: int, exterior):
    """Mean and covariance of the window heights under V(x) = x^2 / 2,
    given ring heights ``exterior(ring sites)``; window sites lexicographic.

    The log density is -phi.L phi / 2 + b.phi, with L the Dirichlet
    Laplacian of the window (2d on the diagonal, -1 per neighbour pair
    inside) and b_x the sum of the ring heights next to x, so the law is
    N(L^-1 b, L^-1).
    """
    sites = list(itertools.product(range(width), repeat=d))
    index = {x: k for k, x in enumerate(sites)}
    ring = window_ring(d, width)
    values = np.asarray(exterior(ring.astype(float)), dtype=float)
    ring_value = {tuple(y): v for y, v in zip(ring.tolist(), values)}
    lap = 2.0 * d * np.eye(len(sites))
    b = np.zeros(len(sites))
    for x, k in index.items():
        for i in range(d):
            for s in (1, -1):
                y = list(x)
                y[i] += s
                y = tuple(y)
                if y in index:
                    lap[k, index[y]] -= 1.0
                else:
                    b[k] += ring_value[y]
    cov = np.linalg.inv(lap)
    return cov @ b, cov


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


def plaquette_circulation(eta) -> float:
    """Largest |circulation| of torus bond values around an elementary
    square; ``eta[i]`` at x is the value on the bond (x + e_i, x)."""
    d = len(eta)
    worst = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            circ = eta[i] + np.roll(eta[j], -1, axis=i) - np.roll(eta[i], -1, axis=j) - eta[j]
            worst = max(worst, float(np.abs(circ).max()))
    return worst


def winding(eta) -> float:
    """Largest |sum of component i along a line of axis i| of torus bond values."""
    return max(float(np.abs(eta[i].sum(axis=i)).max()) for i in range(len(eta)))


def integrate_bonds(eta) -> np.ndarray:
    """Heights phi - phi(0) from torus bond values, by cumulative sums along
    the staircase path from the origin: axis 0 first, then axis 1, ..."""
    d = len(eta)
    phi = np.zeros(eta.shape[1:])
    for i in range(d):
        partial = np.roll(np.cumsum(eta[i], axis=i), 1, axis=i)
        partial[(slice(None),) * i + (0,)] = 0.0  # sum of the bonds before x_i
        phi = phi + partial[(slice(None),) * (i + 1) + (slice(0, 1),) * (d - i - 1)]
    return phi


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
                sigma_var[cur] = sigma_var[prv] + (
                    0.25 * (du * du) * (e_cur * e_cur + e_prev * e_prev))
    return sigma_vals, sigma_var


def plain_divergence(h, spacing, flux):
    """div grad sigma(grad h) at the inner nodes in its plain form:
    ``np.gradient`` node gradients and, per face direction i, one
    full-vector ``flux.grad_many`` call of which column i is kept."""
    d = h.ndim

    def along(i, sl):
        return tuple(sl if k == i else slice(None) for k in range(d))

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


def euler_plan(span, dt_base):
    """Forward Euler: the fewest steps of at most dt_base, one evaluation each."""
    n = max(1, int(np.ceil(span / dt_base - 1e-12)))
    return n, 1


def euler_step(h, interior, spacing, flux, dt, evals):
    """One forward-Euler step at interior nodes; ``evals`` is always 1."""
    out = h.copy()
    out[interior] += dt * plain_divergence(h, spacing, flux)[interior]
    return out


def rkl2_plan(span, dt_base):
    """RKL2: ceil(1.5 sqrt(n)) super-steps for the n Euler steps of the
    span, each with the fewest stages s >= 2 that the stability bound
    dt_base (s^2 + s - 2) / 4 allows."""
    n_euler, _ = euler_plan(span, dt_base)
    n_super = int(np.ceil(1.5 * np.sqrt(n_euler)))
    s = 2
    while dt_base * (s**2 + s - 2) / 4 < span / n_super * (1 - 1e-12):
        s += 1
    return n_super, s


def rkl2_step(h, interior, spacing, flux, tau, s):
    """One Runge-Kutta-Legendre super-step of s stages (Meyer, Balsara
    and Aslam 2014), every stage formed whole and kept at interior nodes."""
    b = [1 / 3, 1 / 3, 1 / 3] + [(j**2 + j - 2) / (2 * j * (j + 1)) for j in range(3, s + 1)]
    w1 = 4 / (s**2 + s - 2)
    L0 = plain_divergence(h, spacing, flux)
    ys = [h, np.where(interior, h + w1 / 3 * tau * L0, h)]
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        y = (mu * ys[j - 1] + nu * ys[j - 2] + (1 - mu - nu) * h
             + mu * w1 * tau * plain_divergence(ys[j - 1], spacing, flux)
             + -(1 - b[j - 1]) * mu * w1 * tau * L0)
        ys.append(np.where(interior, y, h))
    return ys[-1]


def reference_pde_solve(h, interior, spacing, flux, t_end, dt=None, record=(),
                        safety=0.9, clamp_tol=1e-3, plan=rkl2_plan, step=rkl2_step):
    """The explicit flux-form PDE solve in its plain form, RKL2 by default.

    ``plan(span, dt_base)`` gives the steps of a record segment and the
    flux evaluations per step, and ``step(h, interior, spacing, flux,
    dt, evals)`` returns the next state.  ``plan=euler_plan,
    step=euler_step`` is the forward-Euler loop, the time-converged
    accuracy reference at a small ``dt``.  ``h`` holds the initial
    values with the boundary already in place; ``interior`` is the mask
    of nodes that move.  Returns a dict with ``final``, ``snapshots``,
    ``steps`` (flux evaluations), ``linf_ok``, ``clamped`` and
    ``queries``, plus ``nonfinite_step`` (the evaluation count after the
    step at which the state left float range, else None) and
    ``range_exceeded`` (clamped / queries above ``clamp_tol``).
    """
    h = np.array(h, dtype=float)
    d = h.ndim
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
            n, evals = plan(span, dt_base)
            for _ in range(n):
                h = step(h, interior, spacing, flux, span / n, evals)
                steps += evals
                queries += evals * d * h.size
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
    stacked, two on the first noisy step; a step adds
    sqrt(dt / 2) (xi_n + xi_{n+1}) and keeps xi_{n+1} for the next noisy
    step (Leimkuhler-Matthews).  The drift gathers neighbours as
    (..., n_interior, 2d) and sums the last axis.
    """

    def __init__(self, phi, boundary, n_interior, neighbors, bonds_closure, vp, rngs):
        self.phi = np.array(phi, dtype=float)
        self.boundary = np.asarray(boundary, dtype=float)
        self.n_int = n_interior
        self.neighbors = neighbors
        self.heads, self.tails = bonds_closure[:, 0], bonds_closure[:, 1]
        self.vp = vp
        self.rngs = rngs
        self.xi = None  # the carried draw, xi_n of the next noisy step

    def drift(self):
        center = self.phi[..., : self.n_int]
        nbrs = self.phi[..., self.neighbors]
        return -self.vp(center[..., None] - nbrs).sum(axis=-1)

    def noise(self):
        if self.phi.ndim == 1:
            return self.rngs[0].standard_normal(self.n_int)
        return np.stack([g.standard_normal(self.n_int) for g in self.rngs])

    def dirichlet_sum(self):
        """Per replica, each row summed alone."""
        rows = np.atleast_2d(self.phi)
        return 2.0 * np.array([np.square(r[self.heads] - r[self.tails]).sum() for r in rows])

    def step(self, dt, noise_scale=1.0):
        amp = noise_scale * np.sqrt(0.5 * dt)
        incr = dt * self.drift()
        if amp:
            if self.xi is None:
                self.xi = self.noise()
            nxt = self.noise()
            incr += amp * (self.xi + nxt)
            self.xi = nxt
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
        return np.array([row @ weights for row in np.atleast_2d((plain.phi / N) ** 2)])

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
                integral += plain.dirichlet_sum() * scale * dt_eff / N**2
                plain.step(dt_eff, noise_scale)
        t_macro = t_next
        out["h_norm_sq"][k] = norm_sq()
        out["dirichlet_integral"][k] = integral
        if collect is not None:
            collect(t_next, plain.phi)
    return out


def gaussian_dirichlet_moments(neighbors, phi0, dt, times, N, scheme="lm", noise_var=1.0):
    """Exact mean and variance per site of the Dirichlet Langevin dynamics
    with V(x) = x^2 / 2, at each macroscopic checkpoint.

    ``neighbors`` is the (n_interior, 2d) id table, interior sites first,
    and ``phi0`` holds the initial heights of every site, the clamped
    ones at their boundary values.  The drift on the interior is
    -L phi + b, with L the interior graph Laplacian (2d on the diagonal,
    -1 per pair of interior neighbours) and b the sum of the clamped
    neighbours.  In the eigenbasis L = U diag(lam) U^T each mode
    x = U^T phi_int is a scalar chain with r = 1 - dt lam, c = U^T b and
    s = ``noise_var``:

    * "em": x' = r x + dt c + sqrt(2 dt s) z;
    * "lm": x' = r x + dt c + sqrt(dt s / 2) (xi_n + xi_{n+1}), whose
      state carries k = Cov(x_n, xi_n): Var x' = r^2 v + 2 a^2 + 2 r a k
      with a = sqrt(dt s / 2), and then k = a;
    * "continuous": the Ornstein-Uhlenbeck law after the same time,
      mean e^{-lam T} m + c (1 - e^{-lam T}) / lam and variance
      e^{-2 lam T} v + s (1 - e^{-2 lam T}) / lam.

    The span N^2 (t - t_prev) of each checkpoint takes
    n = max(1, ceil(span / dt)) steps of span / n.  Returns
    {t: (mean, var)}, each (n_sites,); clamped sites keep their value and
    variance 0.
    """
    phi0 = np.asarray(phi0, dtype=float)
    n_int = len(neighbors)
    lap = np.zeros((n_int, n_int))
    b = np.zeros(n_int)
    for x, row in enumerate(neighbors):
        lap[x, x] = len(row)
        for y in row:
            if y < n_int:
                lap[x, y] -= 1.0
            else:
                b[x] += phi0[y]
    lam, U = np.linalg.eigh(lap)
    c = U.T @ b
    m = U.T @ phi0[:n_int]
    v = np.zeros(n_int)
    k = np.zeros(n_int)
    out = {}
    t_prev = 0.0
    for t in sorted(float(t) for t in times):
        span = (t - t_prev) * N**2
        t_prev = t
        if span > 0 and scheme == "continuous":
            decay = np.exp(-lam * span)
            m = decay * m + c * (1.0 - decay) / lam
            v = decay**2 * v + noise_var * (1.0 - decay**2) / lam
        elif span > 0:
            n_steps = max(1, int(np.ceil(span / dt)))
            h = span / n_steps
            r = 1.0 - h * lam
            a = np.sqrt(0.5 * h * noise_var)
            for _ in range(n_steps):
                m = r * m + h * c
                if scheme == "em":
                    v = r**2 * v + 2.0 * h * noise_var
                elif scheme == "lm":
                    v, k = r**2 * v + 2.0 * a**2 + 2.0 * r * a * k, a
                else:
                    raise ValueError(f"unknown scheme {scheme!r}")
        mean = phi0.copy()
        mean[:n_int] = U @ m
        var = np.zeros_like(phi0)
        var[:n_int] = np.square(U) @ v
        out[t] = (mean, var)
    return out


def expected_gap(mean_h, var_h, ref, weight):
    """Expected squared L2 gap on a midpoint quadrature: weight times the
    sum over the points of (E h - ref)^2 + Var h."""
    return float(weight * (np.sum(np.square(mean_h - ref)) + np.sum(var_h)))


def reference_mala_chain(v, vp, tilt, phi, rng, sweeps, observables=None,
                         step=None, lipschitz=1.0, burn_in=None):
    """A single gauge-fixed torus chain in its plain form.

    MALA sweeps with ``np.roll`` energy and gradient passes and a
    fresh gradient of the current state on every sweep; step tuning toward
    the 0.50-0.65 acceptance window in rounds of 25 sweeps; burn-in either
    fixed or adaptive (1000 probed sweeps, then up to 10 IACT); then
    ``sweeps`` sweeps recording each observable of ``np.roll`` bond
    differences after every sweep.  ``rng`` supplies one
    ``standard_normal(phi.shape)`` and one ``uniform()`` per sweep.
    Returns a dict with ``phis`` (the state after every sweep), ``step``, ``accepts`` and ``proposals`` (counted after burn-in) and
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

    if st["step"] is None:
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
    if burn_in is not None:
        for _ in range(burn_in):
            mala()
    else:
        e_probe, vp_probe = [], []
        for _ in range(1000):
            mala()
            et = eta_tilde()
            e_probe.append(sum(float(v(e + tilt[i]).mean()) for i, e in enumerate(et)))
            vp_probe.append(float(vp(et[0] + tilt[0]).mean()))
        tau = max(integrated_autocorr_time(np.array(p)) for p in (e_probe, vp_probe))
        for _ in range(max(0, int(np.ceil(10 * tau)) - 1000)):
            mala()
    st["accepts"] = st["proposals"] = 0
    series = {name: [] for name in observables}
    for _ in range(sweeps):
        mala()
        et = eta_tilde()
        for name, fn in observables.items():
            series[name].append(fn(et))
    return {"phis": phis, "step": st["step"], "accepts": st["accepts"],
            "proposals": st["proposals"],
            "series": {name: np.asarray(x) for name, x in series.items()}}


def pointwise_drift(vp, phi, site) -> float:
    """-sum over torus neighbours y of V'(phi(x) - phi(y)) at one site x,
    with heights ``phi`` of shape (N,) * d."""
    N, d = phi.shape[0], phi.ndim
    x = tuple(int(c) % N for c in np.atleast_1d(site))
    total = 0.0
    for i in range(d):
        for s in (1, -1):
            y = list(x)
            y[i] = (y[i] + s) % N
            total += float(vp(phi[x] - phi[tuple(y)]))
    return -total


def read_field_csv(path):
    """(sites, values, meta) of a field CSV: '# key=value' header lines, then
    columns x0, x1, ... of integer site coordinates and a ``value`` column."""
    meta, rows = {}, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key] = val
            elif line.strip():
                rows.append(line)
    header, *body = list(csv.reader(rows))
    coords = [j for j, name in enumerate(header) if name.startswith("x")]
    sites = np.array([[int(r[j]) for j in coords] for r in body])
    values = np.array([float(r[header.index("value")]) for r in body])
    return sites, values, meta
