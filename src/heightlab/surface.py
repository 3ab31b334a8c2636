"""Surface tension of the tilted ensemble and its gradient.

The free-energy cost per bond of a mean tilt u is sigma(u), normalized
so sigma(0) = 0.  Tilt differentiation of the partition function gives
the exact finite-N identity

    (grad sigma)_i (u) = E_u[ V'(eta(e_i)) ],

so the gradient is a plain Gibbs expectation and sigma itself is the
line integral sigma(u) = int_0^1 u . grad sigma(s u) ds, evaluated with
a Gauss-Legendre rule over Monte Carlo gradient estimates.

``decompose_flux`` splits the gradient as grad sigma(u) = A(u) u + a(u)
with the diagonal A from the convex curvature averaged along the tilt
segment; each A sample is pinched between the certified curvature bounds,
which is what makes the decomposition useful for uniqueness arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._interp import Multilinear, Workspace
from .gibbs import chain_means, make_sampler
from .io import read_csv, write_csv
from .potential import potential_from_spec
from .rng import seed_key


def grad_sigma(
    pot,
    N: int,
    u,
    sweeps: int = 20000,
    seed=0,
    step: float | None = None,
    burn_in: int | None = None,
):
    """Monte Carlo estimate of grad sigma(u); returns (vector, stderr)."""
    vec, err = _grad_sigma_chains(pot, N, u, seed, sweeps, step, burn_in)
    return vec[0], err[0]


def _grad_sigma_chains(pot, N, tilts, seeds, sweeps, step, burn_in):
    """grad sigma at each row of ``tilts`` (B, d), chain j seeded ``seeds[j]``
    (or at one (d,) tilt and seed), all chains advanced as one batch;
    returns (values, stderr), each (B, d).

    The observable is the mean of the V' that the sampler's bond pass kept.
    """
    sampler = make_sampler(pot, N, tilts, step=step, burn_in=burn_in, seed=seeds)
    d = sampler.system.lattice.d
    return chain_means(sampler, sweeps, lambda et, vp: _lattice_mean(vp, d))[:2]


def _lattice_mean(x: np.ndarray, d: int) -> np.ndarray:
    """Mean over the last ``d`` (lattice) axes of ``x``: one flat sum per
    row, which adds in the order of the sum over those axes, divided by
    the site count, as ``.mean`` divides."""
    flat = x.reshape(x.shape[:-d] + (-1,))
    return np.add.reduce(flat, axis=-1) / flat.shape[-1]


@dataclass(frozen=True)
class SigmaEstimate:
    value: float
    stderr: float          # Monte Carlo + quadrature parts combined
    mc_error: float
    quad_error: float
    nodes: np.ndarray      # integration abscissae in [0, 1]
    node_values: np.ndarray
    node_stderr: np.ndarray


def sigma(
    pot,
    N: int,
    u,
    nodes: int = 8,
    sweeps: int = 12000,
    seed=0,
    step: float | None = None,
    burn_in: int | None = None,
) -> SigmaEstimate:
    """Thermodynamic integration of grad sigma along the ray to u.

    The chains at the ``nodes`` Gauss-Legendre abscissae run as one
    batch; node j is seeded (*seed, j).

    The quadrature error proxy is the magnitude of the two highest
    Legendre coefficients the node values can resolve; for the smooth
    integrands here it is dominated by the Monte Carlo error.
    """
    if nodes < 2:
        raise ValueError(f"sigma needs nodes >= 2 for its quadrature error, got {nodes}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not u.any():
        z = np.zeros(nodes)
        return SigmaEstimate(0.0, 0.0, 0.0, 0.0, z, z, z)
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = (x + 1.0) / 2.0
    ws = w / 2.0
    seeds = [tuple(seed_key(seed)) + (j,) for j in range(nodes)]
    g, ge = _grad_sigma_chains(pot, N, np.outer(s, u), seeds, sweeps, step, burn_in)
    vals = np.array([float(u @ g[j]) for j in range(nodes)])
    errs = np.array([float(np.sqrt(np.sum(u**2 * ge[j] ** 2))) for j in range(nodes)])
    value = float(ws @ vals)
    mc_err = float(np.sqrt(np.sum(ws**2 * errs**2)))
    coeffs = np.array(
        [
            (2 * k + 1) / 2.0 * np.sum(w * vals * np.polynomial.legendre.legval(
                x, np.eye(nodes)[k]))
            for k in range(nodes)
        ]
    )
    quad_err = float((abs(coeffs[-1]) + abs(coeffs[-2])) / (2 * nodes - 1))
    return SigmaEstimate(
        value=value,
        stderr=mc_err + quad_err,
        mc_error=mc_err,
        quad_error=quad_err,
        nodes=s,
        node_values=vals,
        node_stderr=errs,
    )


# ---------------------------------------------------------------------------
# convexity probe


@dataclass
class ConvexityReport:
    """Monotonicity quotients (u-v).(g(u)-g(v)) / |u-v|^2 over tilt pairs."""

    quotients: np.ndarray
    stderr: np.ndarray
    c1_hat: float
    c1_err: float
    c2_hat: float
    c2_err: float

    @property
    def any_nonpositive(self) -> bool:
        return bool((self.quotients <= 0).any())


def convexity_probe(gradient_provider, pairs) -> ConvexityReport:
    """Probe strong monotonicity of a gradient map over tilt pairs.

    ``gradient_provider(u) -> (vector, stderr)`` may be a Monte Carlo
    closure or a table lookup.  Each distinct tilt is queried once.
    """
    cache: dict = {}

    def query(u):
        key = tuple(np.round(np.atleast_1d(u).astype(float), 12))
        if key not in cache:
            cache[key] = gradient_provider(np.asarray(key))
        return cache[key]

    quotients = []
    errors = []
    for u, v in pairs:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        dvec = u - v
        n2 = float(dvec @ dvec)
        if n2 == 0.0:
            raise ValueError("convexity probe needs distinct tilts in each pair")
        gu, su = query(u)
        gv, sv = query(v)
        quotients.append(float(dvec @ (gu - gv)) / n2)
        errors.append(float(np.sqrt(np.sum(dvec**2 * (su**2 + sv**2)))) / n2)
    quotients = np.asarray(quotients)
    errors = np.asarray(errors)
    i_min = int(np.argmin(quotients))
    i_max = int(np.argmax(quotients))
    return ConvexityReport(
        quotients=quotients,
        stderr=errors,
        c1_hat=float(quotients[i_min]),
        c1_err=float(errors[i_min]),
        c2_hat=float(quotients[i_max]),
        c2_err=float(errors[i_max]),
    )


# ---------------------------------------------------------------------------
# flux decomposition


@dataclass
class FluxDecomposition:
    """Diagonal split grad sigma(u) = A(u) u + a(u) with sample bounds."""

    tilt: np.ndarray
    A: np.ndarray
    A_err: np.ndarray
    a: np.ndarray
    a_err: np.ndarray
    A_sample_min: np.ndarray   # per-bond, per-sweep extremes of the A integrand
    A_sample_max: np.ndarray
    c_minus: float
    c_plus: float
    sweeps: int

    def reconstruct(self):
        """(value, stderr) of A u + a, componentwise."""
        val = self.A * self.tilt + self.a
        err = np.sqrt(self.tilt**2 * self.A_err**2 + self.a_err**2)
        return val, err

    @property
    def samples_in_bounds(self) -> bool:
        return bool(
            (self.A_sample_min >= self.c_minus - 1e-12).all()
            and (self.A_sample_max <= self.c_plus + 1e-12).all()
        )


def decompose_flux(
    pot,
    N: int,
    u,
    sweeps: int = 20000,
    seed=0,
    nodes: int = 8,
    step: float | None = None,
    burn_in: int | None = None,
) -> FluxDecomposition:
    """Estimate A_ii(u) = E int_0^1 V0''(eta(e_i) - s u_i) ds and
    a_i(u) = E[V0'(eta(e_i) - u_i)] + E[g'(eta(e_i))].

    The segment integral is a Gauss-Legendre rule in s, so every sample
    of the A integrand is a convex combination of V0'' values and lands
    in [c_minus, c_plus] whenever the certified bounds hold.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = len(u)
    sampler = make_sampler(pot, N, u, step=step, burn_in=burn_in, seed=seed)
    x, w = np.polynomial.legendre.leggauss(nodes)
    lam = (x + 1.0) / 2.0
    ahead = (1,) * (d + 2)  # block, chain and lattice axes
    u_col = u.reshape((d,) + ahead)
    lam_u = np.outer(lam, u).reshape((nodes, d) + ahead)  # node m, axis i: lam_m u_i
    wl_col = (w / 2.0).reshape((-1, 1) + ahead)

    mins = np.full(d, np.inf)
    maxs = np.full(d, -np.inf)

    def obs(et, vp):
        """Rows A_0 .. A_{d-1}, a_0 .. a_{d-1} of a block, each (k, 1)."""
        eta = et + u_col
        # one V0'' call for all nodes and axes; reducing the outer node axis
        # adds the rows to 0 in node order, as a loop over the nodes would
        per_bond = np.add.reduce(wl_col * pot.v0pp(eta - lam_u), axis=0, initial=0.0)
        # np.minimum and np.maximum keep a NaN sample, which min() and max()
        # of Python would drop
        flat = per_bond.reshape(d, -1)
        np.minimum(mins, np.minimum.reduce(flat, axis=1), out=mins)
        np.maximum(maxs, np.maximum.reduce(flat, axis=1), out=maxs)
        small = _lattice_mean(pot.v0p(eta - u_col), d) + _lattice_mean(pot.gp(eta), d)
        return np.concatenate([_lattice_mean(per_bond, d), small])

    values, errors, _ = chain_means(sampler, sweeps, obs)
    A, avec = values[0, :d], values[0, d:]
    A_err, a_err = errors[0, :d], errors[0, d:]
    return FluxDecomposition(
        tilt=u,
        A=A,
        A_err=A_err,
        a=avec,
        a_err=a_err,
        A_sample_min=mins,
        A_sample_max=maxs,
        c_minus=pot.c_minus,
        c_plus=pot.c_plus,
        sweeps=sweeps,
    )


# ---------------------------------------------------------------------------
# tabulated surface tension


def _increasing_axes(axes):
    """The axes as float arrays; each must be 1-d with finite, strictly
    increasing nodes."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    for a in axes:
        if (a.ndim != 1 or len(a) == 0 or not np.all(np.isfinite(a))
                or not np.all(np.diff(a) > 0)):
            raise ValueError("each table axis must have finite, strictly increasing nodes")
    return axes


class SurfaceTensionTable:
    """Gradient and value of sigma on a tensor grid of tilts.

    Queries interpolate multilinearly and clamp to the grid box,
    counting clamp events so a PDE run can detect leaving the tabulated
    range.  The sigma column comes from composite trapezoid integration
    of the gradient along grid paths rooted at the origin node.
    """

    def __init__(self, axes, dsigma, dsigma_err, sigma_vals, sigma_err, meta=None):
        self.axes = _increasing_axes(axes)
        self.d = len(self.axes)
        self.dsigma = np.asarray(dsigma, dtype=float)
        self.dsigma_err = np.asarray(dsigma_err, dtype=float)
        self.sigma = np.asarray(sigma_vals, dtype=float)
        self.sigma_err = np.asarray(sigma_err, dtype=float)
        self.meta = dict(meta or {})
        self.clamp_events = 0
        self._kernel = Multilinear(self.axes, self.d)
        self._work = Workspace()
        self._lo = np.array([[a[0]] for a in self.axes])
        self._hi = np.array([[a[-1]] for a in self.axes])
        grid_shape = tuple(len(a) for a in self.axes)
        if self.sigma.shape != grid_shape or self.dsigma.shape != grid_shape + (self.d,):
            raise ValueError("table arrays do not match the axes")

    def _clamp(self, cols: np.ndarray) -> np.ndarray:
        """The points ``cols`` (d, m, one axis per row) clipped into the grid
        box, in a buffer reused by the next lookup.  Counts one clamp event
        per point with a coordinate changed by the clip (NaN included)."""
        d, m = cols.shape
        clipped = self._work.get("clipped", (d, m))
        moved = self._work.get("moved", (d, m), bool)
        outside = self._work.get("outside", (m,), bool)
        np.maximum(cols, self._lo, out=clipped)
        np.minimum(clipped, self._hi, out=clipped)
        np.not_equal(clipped, cols, out=moved)
        moved.any(axis=0, out=outside)
        self.clamp_events += int(np.count_nonzero(outside))
        return clipped

    def grad_many(self, pts: np.ndarray) -> np.ndarray:
        """Gradient at the tilts ``pts``, one per row: shape (m, d), clamped
        multilinear interpolation, a fresh array per call."""
        cols = self._clamp(np.atleast_2d(np.asarray(pts, dtype=float)).T)
        out = np.empty((self.d, cols.shape[1]))
        return self._kernel(self.dsigma, cols, range(self.d), out).T

    def grad_component(self, cols: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
        """Component i of the gradient at the tilts ``cols`` (d, m, one axis
        per row), written into ``out`` (m,): the PDE's per-direction query."""
        self._kernel(self.dsigma, self._clamp(cols), (i,), out[None])
        return out

    # -- probes used by the PDE solver --------------------------------------

    def monotonicity_bounds(self):
        """(min, max) of axis-neighbour quotients (g(u')-g(u)).e_k / du."""
        lo, hi = np.inf, -np.inf
        for k in range(self.d):
            dvals = np.diff(self.dsigma[..., k], axis=k)
            du = np.diff(self.axes[k]).reshape(
                [-1 if i == k else 1 for i in range(self.d)] + [1]
            )[..., 0]
            q = dvals / du
            lo = min(lo, float(q.min()))
            hi = max(hi, float(q.max()))
        return lo, hi

    def lipschitz_upper(self) -> float:
        """Max over neighbouring nodes of |grad change| / |tilt change|."""
        worst = 0.0
        for k in range(self.d):
            dg = np.diff(self.dsigma, axis=k)
            du = np.diff(self.axes[k]).reshape(
                [-1 if i == k else 1 for i in range(self.d)] + [1]
            )
            worst = max(worst, float((np.linalg.norm(dg, axis=-1) / du[..., 0]).max()))
        return worst

    # -- serialization --------------------------------------------------------

    def to_csv(self, path) -> None:
        idx = np.indices(self.sigma.shape).reshape(self.d, -1)
        cols = {f"u_{i}": a[idx[i]] for i, a in enumerate(self.axes)}
        cols.update(sigma=self.sigma.ravel(), sigma_err=self.sigma_err.ravel())
        for name, values in (("dsigma", self.dsigma), ("dsigma_err", self.dsigma_err)):
            cols.update({f"{name}_{i}": values[..., i].ravel() for i in range(self.d)})
        write_csv(path, cols, self.meta)

    @classmethod
    def from_csv(cls, path) -> "SurfaceTensionTable":
        cols, meta = read_csv(path)
        data = np.stack(list(cols.values()), axis=1).astype(float)
        if not len(data):
            raise ValueError(f"no table data in {path}")
        d = sum(1 for name in cols if name.startswith("u_"))
        axes = [np.unique(data[:, i]) for i in range(d)]
        grid_shape = tuple(len(a) for a in axes)
        if int(np.prod(grid_shape)) != len(data):
            raise ValueError("table rows do not form a complete tensor grid")
        order = np.lexsort(tuple(data[:, i] for i in reversed(range(d))))
        data = data[order]
        sigma_vals = data[:, d].reshape(grid_shape)
        sigma_err = data[:, d + 1].reshape(grid_shape)
        dsig = data[:, d + 2 : 2 * d + 2].reshape(grid_shape + (d,))
        dsig_err = data[:, 2 * d + 2 : 3 * d + 2].reshape(grid_shape + (d,))
        return cls(axes, dsig, dsig_err, sigma_vals, sigma_err, meta)


def _table_batch(args):
    """One batch of table chains; a potential given by its spec is rebuilt
    first, as in a worker process."""
    pot, *rest = args
    if isinstance(pot, dict):
        pot = potential_from_spec(pot)
    return _grad_sigma_chains(pot, *rest)


def _integrate_paths(axes, anchor, dsigma, dsigma_err):
    """(sigma, variance) by the trapezoid rule from 0 at ``anchor``: along axis
    0, then along axis 1 from every node filled so far, and so on.  Each run is
    one ``np.cumsum`` from its filled node, so it adds as a node-by-node walk."""
    sigma_vals = np.zeros(dsigma.shape[:-1])
    sigma_var = np.zeros(dsigma.shape[:-1])
    for k, a in enumerate(anchor):
        # the filled sub-grid: axes up to k in full, axes after k at the anchor
        sub = (slice(None),) * (k + 1) + anchor[k + 1 :]
        g, e = dsigma[sub + (k,)], dsigma_err[sub + (k,)]
        du = np.diff(axes[k])
        e2 = e**2
        inc = 0.5 * du * (g[..., 1:] + g[..., :-1])
        inc_var = 0.25 * du**2 * (e2[..., 1:] + e2[..., :-1])
        runs = ((sigma_vals[sub], inc, -inc), (sigma_var[sub], inc_var, inc_var))
        for vals, up, down in runs:
            start = vals[..., a : a + 1]
            vals[..., a:] = np.cumsum(np.concatenate([start, up[..., a:]], -1), -1)
            down = down[..., :a][..., ::-1]
            vals[..., a::-1] = np.cumsum(np.concatenate([start, down], -1), -1)
    return sigma_vals, sigma_var


def build_table(
    pot,
    N: int,
    axes,
    sweeps: int = 8000,
    seed=0,
    step: float | None = None,
    burn_in: int | None = None,
    workers: int = 0,
) -> SurfaceTensionTable:
    """Tabulate grad sigma on a tensor grid and integrate for sigma.

    Each node runs its own chain, streamed by its flat index.  The chains
    run as one batch, or with ``workers > 1`` as one batch per worker
    process; a chain's numbers do not depend on its batch, so both give
    the same bits.  Workers rebuild the potential from ``pot.spec``, so a
    potential without one runs serially only.  The grid must contain the
    origin, which anchors sigma = 0.
    """
    axes = _increasing_axes(axes)
    d = len(axes)
    grid_shape = tuple(len(a) for a in axes)
    anchor = []
    for a in axes:
        hits = np.where(np.isclose(a, 0.0, atol=1e-12))[0]
        if len(hits) != 1:
            raise ValueError("each table axis must contain the origin exactly once")
        anchor.append(int(hits[0]))
    anchor = tuple(anchor)

    idx = np.indices(grid_shape).reshape(d, -1).T
    tilts = np.stack([axes[i][idx[:, i]] for i in range(d)], axis=-1)
    seeds = [tuple(seed_key(seed)) + (j,) for j in range(len(tilts))]
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if pot.spec is None and workers > 1:
        raise ValueError(f"potential {pot.name!r} has no spec to rebuild in workers")
    parts = np.array_split(np.arange(len(tilts)), max(1, min(workers, len(tilts))))
    jobs = [
        (pot.spec or pot, N, tilts[part], [seeds[j] for j in part], sweeps, step, burn_in)
        for part in parts
    ]
    if len(jobs) > 1:
        # imported here: multiprocessing costs every serial run memory and time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            results = list(pool.map(_table_batch, jobs))
    else:
        results = [_table_batch(jobs[0])]
    dsigma = np.concatenate([g for g, _ in results]).reshape(grid_shape + (d,))
    dsigma_err = np.concatenate([e for _, e in results]).reshape(grid_shape + (d,))

    sigma_vals, sigma_var = _integrate_paths(axes, anchor, dsigma, dsigma_err)

    meta = {
        "potential": pot.name,
        "N": N,
        "sweeps": sweeps,
        "seed": tuple(seed_key(seed)),
    }
    return SurfaceTensionTable(
        axes, dsigma, dsigma_err, sigma_vals, np.sqrt(sigma_var), meta
    )
