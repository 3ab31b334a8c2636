"""Lattice geometry: tori, discretized domains, height and gradient fields.

Conventions
-----------
A directed bond b = (x, y) joins nearest neighbours; its head is x, its
tail is y, and the gradient of a height field along b is phi(x) - phi(y).
Canonical storage keeps one orientation per undirected bond, the
positive-axis one (x + e_i, x); the reversed value follows by
antisymmetry.  Sites and bonds are enumerated lexicographically so every
run is reproducible bit for bit.

Microscopic cells: B(a, l) denotes the half-open cube of side l centred
at a, the product of the intervals [a_i - l/2, a_i + l/2).  A site x of
the scaled lattice (1/N) Z^d represents the cell B(x/N, 1/N); it belongs
to the interior discretization of a continuum domain D when the fattened
cube B(x/N, 5/N) fits inside D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInterior, NotIntegrable

_GL_NODES = {}  # cache of Gauss-Legendre rules keyed by order


def _gauss_legendre(order: int):
    if order not in _GL_NODES:
        _GL_NODES[order] = np.polynomial.legendre.leggauss(order)
    return _GL_NODES[order]


# ---------------------------------------------------------------------------
# continuum domains


@dataclass(frozen=True)
class DomainSpec:
    """Bounded continuum domain containing the origin.

    Supported shapes: ``box`` (half-open axis-aligned cube product),
    ``ball`` (closed Euclidean ball) and ``polytope`` (intersection of
    half-spaces ``normal . theta <= offset`` with an explicit bounding
    box).  Membership tests are exact for boxes and balls; for polytopes
    the cell-intersection test is a per-face corner check, exact for
    cells that meet the polytope away from its corners.
    """

    shape: str
    center: tuple[float, ...] = (0.0,)
    sides: tuple[float, ...] | None = None
    radius: float | None = None
    normals: tuple[tuple[float, ...], ...] | None = None
    offsets: tuple[float, ...] | None = None
    bbox: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.shape not in ("box", "ball", "polytope"):
            raise ValueError(f"unknown domain shape {self.shape!r}")
        if self.shape == "box" and self.sides is None:
            raise ValueError("box domain needs side lengths")
        if self.shape == "ball" and self.radius is None:
            raise ValueError("ball domain needs a radius")
        if self.shape == "polytope" and (
            self.normals is None or self.offsets is None or self.bbox is None
        ):
            raise ValueError("polytope domain needs normals, offsets and a bbox")
        origin = np.zeros((1, self.d))
        if not bool(self.contains(origin)[0]):
            raise ValueError("domain must contain the origin")

    @staticmethod
    def box(sides, center=None) -> "DomainSpec":
        sides = tuple(float(s) for s in np.atleast_1d(sides))
        if center is None:
            center = (0.0,) * len(sides)
        return DomainSpec(shape="box", center=tuple(center), sides=sides)

    @staticmethod
    def ball(radius: float, center=None, d: int = 1) -> "DomainSpec":
        if center is None:
            center = (0.0,) * d
        return DomainSpec(shape="ball", center=tuple(center), radius=float(radius))

    @property
    def d(self) -> int:
        return len(self.center)

    def bounding_box(self):
        """(lo, hi) arrays of an axis-aligned box containing the domain."""
        c = np.asarray(self.center, dtype=float)
        if self.shape == "box":
            s = np.asarray(self.sides, dtype=float)
            return c - s / 2.0, c + s / 2.0
        if self.shape == "ball":
            return c - self.radius, c + self.radius
        lo, hi = self.bbox
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership of an (M, d) array of points, exact per shape."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c = np.asarray(self.center, dtype=float)
        if self.shape == "box":
            lo, hi = self.bounding_box()
            return np.all((pts >= lo) & (pts < hi), axis=1)
        if self.shape == "ball":
            return np.einsum("ij,ij->i", pts - c, pts - c) <= self.radius**2
        a = np.asarray(self.normals, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        return np.all(pts @ a.T <= b, axis=1)

    def _corners(self, centers: np.ndarray, side: float) -> np.ndarray:
        """(M, 2^d, d) corners of the cubes B(center, side)."""
        d = self.d
        signs = np.array(
            np.meshgrid(*([[-0.5, 0.5]] * d), indexing="ij")
        ).reshape(d, -1).T
        return centers[:, None, :] + side * signs[None, :, :]

    def cube_inside(self, centers: np.ndarray, side: float) -> np.ndarray:
        """Whether B(center, side) lies inside the domain, per center."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if self.shape == "box":
            lo, hi = self.bounding_box()
            return np.all(
                (centers - side / 2.0 >= lo) & (centers + side / 2.0 <= hi), axis=1
            )
        corners = self._corners(centers, side)
        if self.shape == "ball":
            c = np.asarray(self.center, dtype=float)
            r2 = np.einsum("mkd,mkd->mk", corners - c, corners - c)
            return np.all(r2 <= self.radius**2, axis=1)
        a = np.asarray(self.normals, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        vals = np.einsum("mkd,fd->mkf", corners, a)
        return np.all(vals <= b, axis=(1, 2))

    def cube_intersects(self, centers: np.ndarray, side: float) -> np.ndarray:
        """Whether B(center, side) meets the domain in positive measure."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        lo, hi = self.bounding_box()
        if self.shape == "box":
            return np.all(
                (centers + side / 2.0 > lo) & (centers - side / 2.0 < hi), axis=1
            )
        if self.shape == "ball":
            c = np.asarray(self.center, dtype=float)
            clamped = np.clip(c, centers - side / 2.0, centers + side / 2.0)
            r2 = np.einsum("md,md->m", clamped - c, clamped - c)
            return r2 < self.radius**2
        # necessary condition only: some corner on the inner side of each face
        a = np.asarray(self.normals, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        corners = self._corners(centers, side)
        vals = np.einsum("mkd,fd->mkf", corners, a)
        return np.all(np.min(vals, axis=1) < b, axis=1)


# ---------------------------------------------------------------------------
# lattices


class TorusLattice:
    """Periodic lattice (Z/NZ)^d with lexicographic site order."""

    def __init__(self, N: int, d: int):
        if N < 2:
            raise ValueError("torus needs N >= 2")
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.N = int(N)
        self.d = int(d)
        self.shape = (self.N,) * self.d
        self.n_sites = self.N**self.d
        self._bonds = None

    @property
    def directed_bond_count(self) -> int:
        return 2 * self.d * self.n_sites

    def canonical_bonds(self):
        """(heads, tails) flat site ids, one bond (x + e_i, x) per pair.

        Ordered axis-major, then by tail site lexicographically.
        """
        if self._bonds is None:
            idx = np.arange(self.n_sites).reshape(self.shape)
            tails = np.tile(np.arange(self.n_sites), self.d)
            heads = np.concatenate(
                [np.roll(idx, -1, axis=i).ravel() for i in range(self.d)]
            )
            self._bonds = (heads, tails)
        return self._bonds

    def __repr__(self):
        return f"TorusLattice(N={self.N}, d={self.d})"


class DiscretizedDomain:
    """Interior sites of a domain at scale N plus their boundary layer.

    Site order: interior sites (lexicographic), then the boundary layer
    (exterior sites adjacent to the interior, lexicographic), then any
    remaining sites whose cells B(x/N, 1/N) meet the domain (these carry
    boundary data for macroscopic profiles but no bonds).
    """

    def __init__(self, spec, N, sites, n_interior, n_layer, neighbors,
                 bonds_interior, bonds_crossing):
        self.spec = spec
        self.N = int(N)
        self.d = spec.d
        self.sites = sites                    # (M, d) int coordinates
        self.n_interior = int(n_interior)
        self.n_layer = int(n_layer)
        self.neighbors = neighbors            # (n_interior, 2d) ids
        self.bonds_interior = bonds_interior  # (K_int, 2) [head, tail] ids
        self.bonds_crossing = bonds_crossing  # (K_x, 2), one endpoint interior
        self.bonds_closure = (
            np.vstack([bonds_interior, bonds_crossing])
            if len(bonds_crossing)
            else bonds_interior.copy()
        )
        self._id_of = {tuple(s): i for i, s in enumerate(np.asarray(sites).tolist())}

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def interior_sites(self) -> np.ndarray:
        return self.sites[: self.n_interior]

    @property
    def layer_sites(self) -> np.ndarray:
        return self.sites[self.n_interior : self.n_interior + self.n_layer]

    # bond counts follow the directed convention: each undirected bond
    # contributes both orientations
    @property
    def directed_interior_bond_count(self) -> int:
        return 2 * len(self.bonds_interior)

    @property
    def directed_closure_bond_count(self) -> int:
        return 2 * len(self.bonds_closure)

    def site_id(self, coords) -> int:
        return self._id_of[tuple(int(c) for c in coords)]

    def __repr__(self):
        return (
            f"DiscretizedDomain(N={self.N}, d={self.d}, "
            f"interior={self.n_interior}, layer={self.n_layer})"
        )


def discretize_domain(spec: DomainSpec, N: int) -> DiscretizedDomain:
    """Interior sites {x : B(x/N, 5/N) inside D} with boundary layer and cover.

    Raises ``EmptyInterior`` when no cell qualifies (N too small for D).
    """
    if N < 1:
        raise ValueError("scale N must be >= 1")
    d = spec.d
    lo, hi = spec.bounding_box()
    axes = [
        np.arange(int(np.floor(N * lo[i])) - 2, int(np.ceil(N * hi[i])) + 3)
        for i in range(d)
    ]
    scan_shape = tuple(len(a) for a in axes)
    origin = np.array([a[0] for a in axes])
    coords = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(d, -1).T

    interior = spec.cube_inside(coords / N, 5.0 / N).reshape(scan_shape)
    if not interior.any():
        raise EmptyInterior(f"no interior sites for {spec.shape} at N={N}")

    # exterior sites touching the interior through a bond
    layer = np.zeros(scan_shape, dtype=bool)
    for i in range(d):
        for s in (1, -1):
            shifted = np.roll(interior, s, axis=i)
            # roll wraps around; the scan box has a 2-site margin of
            # non-interior sites so wrapped-in values are False
            layer |= shifted
    layer &= ~interior

    cover = spec.cube_intersects(coords / N, 1.0 / N).reshape(scan_shape)
    extra = cover & ~interior & ~layer

    flat_interior = interior.ravel()
    flat_layer = layer.ravel()
    flat_extra = extra.ravel()
    sites = np.vstack(
        [coords[flat_interior], coords[flat_layer], coords[flat_extra]]
    )
    n_int = int(flat_interior.sum())
    n_lay = int(flat_layer.sum())

    # dense id lookup over the scan box
    ids = np.full(scan_shape, -1, dtype=np.int64)
    sel = sites - origin
    ids[tuple(sel.T)] = np.arange(len(sites))

    # neighbor table for interior sites
    int_rel = sites[:n_int] - origin
    nbr = np.empty((n_int, 2 * d), dtype=np.int64)
    col = 0
    for i in range(d):
        for s in (1, -1):
            shifted = int_rel.copy()
            shifted[:, i] += s
            nbr[:, col] = ids[tuple(shifted.T)]
            col += 1
    if (nbr < 0).any():
        raise AssertionError("interior neighbor missing from site list")

    # canonical bonds (x + e_i, x), at least one endpoint interior
    int_ids = ids.copy()
    int_ids[~interior] = -1
    b_int, b_cross = [], []
    for i in range(d):
        tails_rel = sites[: n_int + n_lay] - origin
        heads_rel = tails_rel.copy()
        heads_rel[:, i] += 1
        inside_scan = heads_rel[:, i] < scan_shape[i]
        t_ids = ids[tuple(tails_rel[inside_scan].T)]
        h_ids = ids[tuple(heads_rel[inside_scan].T)]
        ok = (t_ids >= 0) & (h_ids >= 0)
        t_ids, h_ids = t_ids[ok], h_ids[ok]
        t_in = t_ids < n_int
        h_in = h_ids < n_int
        both = t_in & h_in
        one = t_in ^ h_in
        pairs = np.column_stack([h_ids, t_ids])
        for mask, dest in ((both, b_int), (one, b_cross)):
            chosen = pairs[mask]
            order = np.lexsort(sites[chosen[:, 1]].T[::-1])  # tail coords, lex
            dest.append(chosen[order])
    bonds_interior = (
        np.vstack(b_int) if any(len(b) for b in b_int) else np.empty((0, 2), np.int64)
    )
    bonds_crossing = (
        np.vstack(b_cross)
        if any(len(b) for b in b_cross)
        else np.empty((0, 2), np.int64)
    )
    return DiscretizedDomain(
        spec, N, sites, n_int, n_lay, nbr, bonds_interior, bonds_crossing
    )


# ---------------------------------------------------------------------------
# fields


class HeightField:
    """Heights phi attached to lattice sites.

    On a torus the values are stored as an (N, ..., N) grid; on a
    discretized domain as a flat vector over the site list.
    """

    def __init__(self, lattice, values):
        values = np.asarray(values, dtype=float)
        if isinstance(lattice, TorusLattice):
            if values.shape != lattice.shape:
                raise ValueError(f"expected shape {lattice.shape}, got {values.shape}")
        else:
            if values.shape != (lattice.n_sites,):
                raise ValueError(
                    f"expected {lattice.n_sites} site values, got {values.shape}"
                )
        self.lattice = lattice
        self.values = values

    @classmethod
    def zeros(cls, lattice) -> "HeightField":
        if isinstance(lattice, TorusLattice):
            return cls(lattice, np.zeros(lattice.shape))
        return cls(lattice, np.zeros(lattice.n_sites))

    def copy(self) -> "HeightField":
        return HeightField(self.lattice, self.values.copy())

    def flat(self) -> np.ndarray:
        return self.values.ravel()


class GradientField:
    """Bond values eta over the canonical (positive-axis) bond list.

    Torus storage is an array of shape (d, N, ..., N): component i at
    index x is the value on the bond (x + e_i, x).  Domain storage is a
    flat vector over ``bonds_closure``.
    """

    def __init__(self, lattice, data):
        data = np.asarray(data, dtype=float)
        if isinstance(lattice, TorusLattice):
            want = (lattice.d,) + lattice.shape
            if data.shape != want:
                raise ValueError(f"expected shape {want}, got {data.shape}")
        else:
            if data.shape != (len(lattice.bonds_closure),):
                raise ValueError("bond data does not match closure bond list")
        self.lattice = lattice
        self.data = data

    def flat(self) -> np.ndarray:
        return self.data.reshape(-1) if self.data.ndim > 1 else self.data

    def plaquette_defect(self) -> float:
        """Largest absolute circulation around an elementary square."""
        lat = self.lattice
        if isinstance(lat, TorusLattice):
            if lat.d == 1:
                return 0.0
            worst = 0.0
            for i in range(lat.d):
                for j in range(i + 1, lat.d):
                    gi, gj = self.data[i], self.data[j]
                    circ = (
                        gi
                        + np.roll(gj, -1, axis=i)
                        - np.roll(gi, -1, axis=j)
                        - gj
                    )
                    worst = max(worst, float(np.abs(circ).max()))
            return worst
        if lat.d == 1:
            return 0.0
        val = {}
        for (h, t), v in zip(lat.bonds_closure.tolist(), self.data.tolist()):
            val[(h, t)] = v
        sites = lat.sites
        worst = 0.0
        for x in sites[: lat.n_interior + lat.n_layer].tolist():
            for i in range(lat.d):
                for j in range(i + 1, lat.d):
                    try:
                        xi = lat.site_id([c + (1 if k == i else 0) for k, c in enumerate(x)])
                        xj = lat.site_id([c + (1 if k == j else 0) for k, c in enumerate(x)])
                        xij = lat.site_id(
                            [c + (1 if k in (i, j) else 0) for k, c in enumerate(x)]
                        )
                        x0 = lat.site_id(x)
                        circ = (
                            val[(xi, x0)]
                            + val[(xij, xi)]
                            - val[(xij, xj)]
                            - val[(xj, x0)]
                        )
                    except KeyError:
                        continue
                    worst = max(worst, abs(circ))
        return worst

    def winding_defect(self) -> float:
        """Torus only: largest |sum of a component along its own axis|."""
        if not isinstance(self.lattice, TorusLattice):
            return 0.0
        worst = 0.0
        for i in range(self.lattice.d):
            worst = max(worst, float(np.abs(self.data[i].sum(axis=i)).max()))
        return worst


def gradient(field: HeightField) -> GradientField:
    """Discrete gradient phi(head) - phi(tail) on canonical bonds."""
    lat = field.lattice
    if isinstance(lat, TorusLattice):
        comps = np.stack(
            [np.roll(field.values, -1, axis=i) - field.values for i in range(lat.d)]
        )
        return GradientField(lat, comps)
    heads = lat.bonds_closure[:, 0]
    tails = lat.bonds_closure[:, 1]
    return GradientField(lat, field.values[heads] - field.values[tails])


def integrate_gradient(
    gf: GradientField,
    base: float = 0.0,
    root=None,
    tol: float = 1e-9,
    chain_seed: int | None = None,
) -> HeightField:
    """Recover heights from bond values, fixing phi(root) = base.

    Heights are propagated along a spanning tree and then every bond is
    checked against the input; any residual above ``tol`` (relative to
    the field scale) means a plaquette or winding obstruction and raises
    ``NotIntegrable``.  ``chain_seed`` shuffles the traversal, which must
    not change the answer beyond the tolerance.  Domain sites that carry
    no bond (coverage cells beyond the one-step layer) stay at 0.
    """
    lat = gf.lattice
    if isinstance(lat, TorusLattice):
        n = lat.n_sites
        heads, tails = lat.canonical_bonds()
        values = gf.data.reshape(lat.d, -1).ravel()
    else:
        n = lat.n_sites
        heads = gf.lattice.bonds_closure[:, 0]
        tails = gf.lattice.bonds_closure[:, 1]
        values = gf.data

    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for h, t, v in zip(heads.tolist(), tails.tolist(), values.tolist()):
        adj[t].append((h, v))
        adj[h].append((t, -v))
    if chain_seed is not None:
        shuffler = np.random.default_rng(chain_seed)
        for lst in adj:
            shuffler.shuffle(lst)

    if root is None:
        root = 0
        if not isinstance(lat, TorusLattice):
            zero = tuple(0 for _ in range(lat.d))
            root = lat._id_of.get(zero, 0)

    phi = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    phi[root] = base
    seen[root] = True
    queue = [root]
    while queue:
        x = queue.pop()
        px = phi[x]
        for y, v in adj[x]:
            if not seen[y]:
                seen[y] = True
                phi[y] = px + v
                queue.append(y)

    if not seen[heads].all() or not seen[tails].all():
        raise NotIntegrable("bond graph is disconnected")
    scale = max(1.0, float(np.abs(values).max()) if len(values) else 1.0)
    resid = np.abs(phi[heads] - phi[tails] - values)
    worst = float(resid.max()) if len(resid) else 0.0
    if worst > tol * scale:
        raise NotIntegrable(f"bond residual {worst:.3e} exceeds tolerance")

    if isinstance(lat, TorusLattice):
        return HeightField(lat, phi.reshape(lat.shape))
    return HeightField(lat, phi)


# ---------------------------------------------------------------------------
# boundary data


def cell_average(f, N: int, sites: np.ndarray, order: int = 5) -> np.ndarray:
    """Average of f over the cells B(x/N, 1/N), Gauss-Legendre per axis.

    ``f`` maps an (M, d) array of points to (M,) values.  A tensor rule
    of the given order is exact for polynomials up to degree 2*order - 1
    per axis.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    m, d = sites.shape
    nodes, weights = _gauss_legendre(order)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=-1)  # (order^d, d)
    wgrids = np.meshgrid(*([weights] * d), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1) / 2.0**d
    pts = sites[:, None, :] / N + offs[None, :, :] / (2.0 * N)
    vals = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape(m, -1)
    return vals @ w


def boundary_height(f, N: int, sites: np.ndarray) -> np.ndarray:
    """Microscopic boundary heights N * (cell average of f) at given sites."""
    return N * cell_average(f, N, sites)
