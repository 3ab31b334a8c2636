"""Wrap heightlab's layers for the traced run and turn spans into metrics.

Every per-layer metric is reported on every workload; a layer that does
not run on a workload reads 0 (count, seconds and rate alike).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from heightlab import dynamics, gibbs, hydro, pde, surface

CONSISTENCY_TOL = 0.01


def _patches(tr):
    """(owner, attribute, replacement) for every traced call site."""
    SurfaceTensionTable = surface.SurfaceTensionTable

    def count_collect(_, args, kwargs):
        sampler = args[0]
        sweeps = args[1] if len(args) > 1 else kwargs["sweeps"]
        tr.add("gibbs.chains", 1)
        tr.add("gibbs.post_sweeps", sweeps)
        tr.add("gibbs.accepted", sampler.acceptance_rate * sweeps)

    def count_em(_, args, kwargs):
        system = args[0]
        tr.add("dynamics.em_steps", 1)
        tr.add("dynamics.site_steps", system.phi[..., : system.domain.n_interior].size)

    def count_solve(sol, args, kwargs):
        tr.add("pde.steps", sol.steps)
        tr.add("pde.node_steps", sol.steps * int(np.prod(args[0].shape)))

    grad_many = SurfaceTensionTable.grad_many

    def traced_grad_many(self, pts):
        before = self.clamp_events
        with tr.span("surface.grad_many"):
            out = grad_many(self, pts)
        tr.add("surface.interp_points", len(np.atleast_2d(pts)))
        tr.add("surface.clamps", self.clamp_events - before)
        return out

    from_spec = surface.potential_from_spec
    from_csv = SurfaceTensionTable.from_csv.__func__

    return [
        (surface, "build_table", tr.wrap("surface.build_table", surface.build_table)),
        (surface, "grad_sigma", tr.wrap("surface.grad_sigma", surface.grad_sigma)),
        (surface, "decompose_flux", tr.wrap("surface.decompose_flux", surface.decompose_flux)),
        # build_table rebuilds the potential from its spec in every node
        (surface, "potential_from_spec", lambda spec: tr.wrap_potential(from_spec(spec))),
        (gibbs.GibbsSampler, "prepare", tr.wrap("gibbs.prepare", gibbs.GibbsSampler.prepare)),
        (gibbs.GibbsSampler, "collect",
         tr.wrap("gibbs.collect", gibbs.GibbsSampler.collect, count_collect)),
        (SurfaceTensionTable, "grad_many", traced_grad_many),
        (SurfaceTensionTable, "to_csv", tr.wrap("surface.csv", SurfaceTensionTable.to_csv)),
        (SurfaceTensionTable, "from_csv", classmethod(tr.wrap("surface.csv", from_csv))),
        (hydro, "run", tr.wrap("hydro.run", hydro.run)),
        (hydro, "solve", tr.wrap("pde.solve", hydro.solve, count_solve)),
        (hydro, "macro_height", tr.wrap("hydro.compare", hydro.macro_height)),
        (hydro, "l2_compare", tr.wrap("hydro.compare", hydro.l2_compare)),
        (hydro, "discretize_domain", tr.wrap("lattice.setup", hydro.discretize_domain)),
        (hydro, "boundary_height", tr.wrap("lattice.setup", hydro.boundary_height)),
        (hydro, "cell_average", tr.wrap("lattice.setup", hydro.cell_average)),
        (dynamics, "em_step", tr.wrap("dynamics.em_step", dynamics.em_step, count_em)),
        (dynamics.DirichletSystem, "drift_interior",
         tr.wrap("dynamics.drift", dynamics.DirichletSystem.drift_interior)),
        (dynamics.DirichletSystem, "dirichlet_sum",
         tr.wrap("dynamics.energy", dynamics.DirichletSystem.dirichlet_sum)),
        (pde.GaussianFlux, "grad_many", tr.wrap("pde.flux", pde.GaussianFlux.grad_many)),
        (pde.TableFlux, "grad_many", tr.wrap("pde.flux", pde.TableFlux.grad_many)),
    ]


@contextmanager
def instrument(tr):
    """Install the tracing wrappers; the originals come back on exit."""
    patches = _patches(tr)
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, new in patches:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(tr, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (root span ``bench``)."""
    c = lambda key: float(tr.counts.get(key, 0))  # noqa: E731
    prepare = tr.total("gibbs.prepare")
    collect_self = tr.total("gibbs.collect") - tr.child_time("gibbs.collect", "gibbs.prepare")
    em = tr.total("dynamics.em_step")
    solve = tr.total("pde.solve")
    interp_points = c("surface.interp_points")
    return {
        "gibbs.prepare_s": prepare,
        "gibbs.collect_self_s": collect_self,
        "gibbs.us_per_sweep": 1e6 * _ratio(collect_self, c("gibbs.post_sweeps")),
        "gibbs.chains": c("gibbs.chains"),
        "gibbs.post_sweeps": c("gibbs.post_sweeps"),
        "gibbs.acceptance": _ratio(round(c("gibbs.accepted")), c("gibbs.post_sweeps")),
        "potential.evals": float(tr.leaf_evals),
        "potential.s": tr.leaf_s,
        "surface.interp_s": tr.total("surface.grad_many"),
        "surface.interp_points": interp_points,
        "surface.clamp_ratio": _ratio(c("surface.clamps"), interp_points),
        "surface.csv_s": tr.total("surface.csv"),
        "dynamics.em_steps": c("dynamics.em_steps"),
        "dynamics.drift_s": tr.total("dynamics.drift"),
        "dynamics.em_self_s": em - tr.child_time("dynamics.em_step", "dynamics.drift"),
        "dynamics.energy_s": tr.total("dynamics.energy"),
        "dynamics.site_steps_per_s": _ratio(c("dynamics.site_steps"), em),
        "pde.steps": c("pde.steps"),
        "pde.node_steps_per_s": _ratio(c("pde.node_steps"), solve),
        "pde.stencil_s": solve - tr.child_time("pde.solve", "pde.flux"),
        "hydro.compare_s": tr.total("hydro.compare"),
        "lattice.setup_s": tr.total("lattice.setup"),
        "share.gibbs_prepare": _ratio(prepare, wall_s),
        "share.gibbs_post_collect": _ratio(collect_self, wall_s),
        "share.pde_solve": _ratio(solve, wall_s),
        "share.em_step": _ratio(em, wall_s),
        "trace.wall_s": wall_s,
        "trace.bench_self_s": tr.self_times().get("bench", 0.0),
    }


def node_seconds(tr) -> list[float]:
    """Seconds per surface-table node (grad_sigma spans under build_table)."""
    return tr.durations("surface.grad_sigma", parent="surface.build_table")


def consistency(tr, wall_s: float):
    """Self times (layers plus the benchmark's own) against the traced wall.

    Self time is a span's duration minus its children's, so on a correctly
    nested span tree the sum telescopes to the root span, which ``wall_s``
    is timed right around.  The check therefore verifies that the spans
    nest (no overlap, no negative self time); it does not bound the
    tracing overhead, which ``trace.overhead_s`` reports.
    """
    selfs = tr.self_times()
    total = sum(selfs.values())
    worst = min(selfs.values())
    resid = abs(total - wall_s) / wall_s
    ok = resid <= CONSISTENCY_TOL and worst >= -1e-6
    return (
        "trace_self_times_sum_to_wall",
        ok,
        f"sum={total:.6f}s wall={wall_s:.6f}s resid={resid:.1e} "
        f"tol={CONSISTENCY_TOL:g} min_self={worst:.2e}s",
    )
