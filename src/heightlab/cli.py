"""Command-line front end.

Every subcommand is driven by the same config tree: defaults, then an
optional JSON config file, then --set dotted overrides, then the short
convenience flags.  Each command runs one handler, with no mode flag,
and takes only the config keys that handler reads and the short flags
that set them, so no accepted key moves the config hash without an
effect: ``surface-tension`` estimates sigma at one tilt, and
``surface-table`` tabulates grad sigma over the ``surface.grid`` tilts.
Artifacts land in ``<output
root>/<command>-<config hash>/`` and each CSV header carries the hash
and master seed, so a rerun of the same config reproduces the bytes
exactly, at any worker count: only the ``# config=`` line of
``surface-table``, whose hash covers ``workers``, follows the count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .config import (
    RunConfig,
    apply_overrides,
    build_domain,
    build_profile,
    config_hash,
    tilt_vector,
)
from .dynamics import energy_diagnostic, langevin_step, macro_height, run_dirichlet
from .errors import ConfigError, HeightLabError, PlotSkipped
from .gibbs import bond_statistics, dlr_check, make_sampler
from .hydro import (
    HydroExperiment,
    clamped_system,
    report as hydro_report,
    resolve_flux,
    run as hydro_run,
)
from .io import write_csv
from .pde import PdeGrid, solve
from .potential import STOCK_KINDS, certify, potential_from_spec
from .surface import build_table, convexity_probe, decompose_flux, grad_sigma, sigma


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heightlab",
        description="Lattice interface model laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            metavar="KEY=VALUE",
            help="override a config leaf, e.g. sampler.sweeps=4000",
        )
        p.add_argument("--out", help="output root directory")
        for flag, (key, options) in FLAGS.items():
            if _reads(name, key):
                p.add_argument(flag, **options)
    sub.choices["convexity-probe"].add_argument(
        "--v", help="second tilt for the probe, comma separated"
    )
    return parser


def _reads(command: str, key: str) -> bool:
    """Whether ``command`` reads the config key (a leaf or a section);
    every command reads output_dir, the default root for ``--out``."""
    entries = COMMANDS[command][2]
    return key == "output_dir" or key in entries or key.partition(".")[0] in entries


def _floats(text: str) -> list:
    """A comma-separated vector, e.g. a tilt."""
    return [float(p) for p in text.split(",")]


def _flag_overrides(args) -> list:
    items = list(args.overrides or [])
    for flag, (key, _) in FLAGS.items():
        value = getattr(args, flag[2:], None)
        if value is None:
            continue
        if flag == "--u":
            value = _floats(value)
            if args.d is None:
                items.append(f"lattice.d={len(value)}")
        items.append(f"{key}={value}")
    return items


def _load(args) -> tuple[RunConfig, dict, str]:
    """Config, CSV header fields and output directory of the run; a
    config-file or --set key the command never reads is a ConfigError."""
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    cfg = apply_overrides(data, _flag_overrides(args))
    keys = [item.partition("=")[0] for item in args.overrides or ()]
    for key, value in data.items():
        keys += [f"{key}.{k}" for k in value] if isinstance(value, dict) else [key]
    unread = sorted({k for k in keys if not _reads(args.command, k)})
    if unread:
        raise ConfigError(f"{args.command} never reads config keys {unread}")
    digest = config_hash(cfg)
    # convexity-probe's second tilt is no config key, yet it changes the
    # result: it names the run directory too, so probes of other pairs
    # do not overwrite each other
    run = config_hash(cfg, v=_floats(args.v)) if getattr(args, "v", None) else digest
    root = args.out or os.environ.get("HEIGHTLAB_OUT") or cfg.output_dir
    outdir = os.path.join(root, f"{args.command}-{run}")
    meta = {"config": digest, "seed": cfg.seed}
    return cfg, meta, outdir


def cmd_certify_potential(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    rep = certify(pot)
    print(f"potential {pot.name}: c_minus={pot.c_minus!r} c_plus={pot.c_plus!r} c_g={pot.c_g!r}")
    for label, flag in (
        ("curvature window", rep.curvature_ok),
        ("perturbation bound", rep.g_ok),
        ("symmetry", rep.symmetry_ok),
        ("split consistency", rep.split_ok),
        ("drift lipschitz", rep.lipschitz_ok),
    ):
        print(f"  {label}: {'ok' if flag else 'FAIL'}")
    write_csv(
        os.path.join(outdir, "certify.csv"),
        {
            "v0pp_min": [rep.v0pp_min],
            "v0pp_max": [rep.v0pp_max],
            "g_bound_max": [rep.g_bound_max],
            "symmetry_defect": [rep.symmetry_defect],
            "split_defect": [rep.split_defect],
            "vp_slope_max": [rep.vp_slope_max],
            "ok": [int(rep.ok)],
        },
        meta | {"potential": pot.name},
    )
    return 0 if rep.ok else 3


def _chain_options(s) -> dict:
    """Sampler keyword arguments from the ``sampler`` config section:
    ``step`` 0 means auto-tuned and ``burn_in`` -1 adaptive."""
    if s.burn_in < -1:
        raise ConfigError(
            f"config key 'sampler.burn_in' takes -1 (adaptive) or a sweep count, got {s.burn_in}"
        )
    return {"step": s.step or None, "burn_in": None if s.burn_in < 0 else s.burn_in}


def cmd_sample_gibbs(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    u = tilt_vector(cfg.lattice)
    s = cfg.sampler
    sampler = make_sampler(pot, cfg.lattice.N, u, seed=cfg.seed, **_chain_options(s))
    # one chain: row 0 of every estimate
    values, errors, ess = (x[0] for x in bond_statistics(sampler, s.sweeps))
    names = [f"bond_variance[{i}]" for i in range(len(u))] + ["eta_vprime_identity"]
    print(
        f"sampler: step={sampler.step[0]:.4g} "
        f"acceptance={sampler.acceptance_rate:.3f}"
    )
    for name, value, err, n in zip(names, values, errors, ess):
        print(f"{name} = {value:.6f} +/- {err:.6f}  (ess {n:.0f}, sweeps {s.sweeps})")
    write_csv(
        os.path.join(outdir, "gibbs.csv"),
        {"name": names, "value": values, "stderr": errors, "ess": ess},
        meta | {
            "potential": pot.name, "N": cfg.lattice.N,
            "tilt": ",".join(repr(float(x)) for x in u),
            "step": repr(float(sampler.step[0])),
            "acceptance": repr(sampler.acceptance_rate),
        },
    )
    return 0


def cmd_surface_tension(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    u = tilt_vector(cfg.lattice)
    s, sf = cfg.sampler, cfg.surface
    est = sigma(
        pot, cfg.lattice.N, u, nodes=sf.nodes, sweeps=sf.sweeps,
        seed=cfg.seed, **_chain_options(s),
    )
    grad, gerr = grad_sigma(
        pot, cfg.lattice.N, u, sweeps=sf.sweeps, seed=cfg.seed,
        **_chain_options(s),
    )
    u_label = "(" + ",".join(f"{x:g}" for x in u) + ")"
    print(f"sigma({u_label}) = {est.value:.6f} +/- {est.stderr:.6f}")
    print(
        "grad sigma = ["
        + ", ".join(f"{g:.5f}+/-{e:.5f}" for g, e in zip(grad, gerr))
        + "]"
    )
    write_csv(
        os.path.join(outdir, "surface.csv"),
        {
            "sigma": [est.value],
            "stderr": [est.stderr],
            "mc_err": [est.mc_error],
            "quad_err": [est.quad_error],
            **{f"dsigma_{i}": [grad[i]] for i in range(len(u))},
            **{f"dsigma_err_{i}": [gerr[i]] for i in range(len(u))},
        },
        meta | {
            "potential": pot.name, "N": cfg.lattice.N,
            "tilt": ",".join(repr(float(x)) for x in u),
        },
    )
    return 0


def cmd_surface_table(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    sf = cfg.surface
    if len(sf.grid) != 3:
        raise ConfigError(f"config key 'surface.grid' takes [lo, hi, count], got {list(sf.grid)}")
    lo, hi, count = sf.grid
    axes = [np.linspace(lo, hi, int(count)) for _ in range(cfg.lattice.d)]
    table = build_table(
        pot, cfg.lattice.N, axes, sweeps=sf.sweeps, seed=cfg.seed,
        **_chain_options(cfg.sampler), workers=cfg.workers,
    )
    table.meta.update(config=meta["config"])
    path = os.path.join(outdir, "surface_table.csv")
    table.to_csv(path)
    print(f"surface table: {table.sigma.size} nodes -> {path}")
    return 0


def cmd_convexity_probe(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    u = tilt_vector(cfg.lattice)
    if args.v:
        v = np.array(_floats(args.v))
        if v.shape != u.shape or not np.isfinite(v).all():
            raise ConfigError(
                f"--v takes one finite number per axis of the tilt (d = {len(u)}), got {args.v!r}"
            )
    else:
        v = np.zeros_like(u)
    s, sf = cfg.sampler, cfg.surface

    def provider(w):
        return grad_sigma(
            pot, cfg.lattice.N, w, sweeps=sf.sweeps, seed=cfg.seed,
            **_chain_options(s),
        )

    rep = convexity_probe(provider, [(u, v)])
    q, qe = rep.quotients[0], rep.stderr[0]
    print(f"quotient <grad diff, u-v>/|u-v|^2 = {q:.5f} +/- {qe:.5f}")
    print(f"c1_hat = {rep.c1_hat:.5f} +/- {rep.c1_err:.5f}, "
          f"c2_hat = {rep.c2_hat:.5f} +/- {rep.c2_err:.5f}")
    write_csv(
        os.path.join(outdir, "convexity.csv"),
        {
            "quotient": rep.quotients,
            "stderr": rep.stderr,
            "c1_hat": [rep.c1_hat] * len(rep.quotients),
            "c2_hat": [rep.c2_hat] * len(rep.quotients),
        },
        meta | {
            "potential": pot.name, "N": cfg.lattice.N,
            "u": ",".join(repr(float(x)) for x in u),
            "v": ",".join(repr(float(x)) for x in v),
        },
    )
    return 0 if not rep.any_nonpositive else 3


def cmd_decompose_flux(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    u = tilt_vector(cfg.lattice)
    s, sf = cfg.sampler, cfg.surface
    dec = decompose_flux(
        pot, cfg.lattice.N, u, sweeps=sf.sweeps, seed=cfg.seed,
        nodes=sf.nodes, **_chain_options(s),
    )
    # its own stream, so the check compares two independent chains
    grad, gerr = grad_sigma(
        pot, cfg.lattice.N, u, sweeps=sf.sweeps, seed=(cfg.seed, 1),
        **_chain_options(s),
    )
    recon, recon_err = dec.reconstruct()
    print(f"A diag = {dec.A}")
    print(f"a vec  = {dec.a}")
    print(f"samples in [c_minus, c_plus]: {dec.samples_in_bounds}")
    print(f"A u + a = {recon} vs grad sigma = {grad}")
    d = len(u)
    write_csv(
        os.path.join(outdir, "flux.csv"),
        {
            "axis": np.arange(d),
            "A_diag": dec.A,
            "A_err": dec.A_err,
            "a_vec": dec.a,
            "a_err": dec.a_err,
            "reconstructed": recon,
            "reconstructed_err": recon_err,
            "dsigma": grad,
            "dsigma_err": gerr,
        },
        meta | {
            "potential": pot.name, "N": cfg.lattice.N,
            "tilt": ",".join(repr(float(x)) for x in u),
            "in_bounds": int(dec.samples_in_bounds),
        },
    )
    ok = dec.samples_in_bounds and np.all(
        np.abs(recon - grad) <= 3.0 * np.hypot(recon_err, gerr) + 1e-12
    )
    return 0 if ok else 3


def cmd_simulate(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    d = cfg.lattice.d
    N = cfg.lattice.N
    dyn = cfg.dynamics
    dt = langevin_step(pot, d, dyn.dt or None)
    system = clamped_system(
        build_domain(cfg.domain, d), N, pot, build_profile(cfg.boundary, d),
        build_profile(cfg.initial, d), seed=cfg.seed,
    )
    times = (dyn.t_end,)
    trace = run_dirichlet(system, dt, times)
    field = macro_height(system, dyn.t_end)
    diag = energy_diagnostic(trace, pot.c_minus)
    print(
        f"simulate: N={N} t={dyn.t_end} dt={dt:.3g} "
        f"|h|^2={field.l2_norm_sq()[0]:.6f} energy_ok={diag.ok}"
    )
    write_csv(
        os.path.join(outdir, "final_height.csv"),
        {**{f"x{i}": field.sites[:, i] for i in range(d)}, "value": field.values[0]},
        meta | {"potential": pot.name, "N": N, "t": repr(dyn.t_end)},
    )
    write_csv(
        os.path.join(outdir, "energy.csv"),
        {
            "t": trace.times,
            "h_norm_sq": trace.h_norm_sq.mean(axis=1),
            "dirichlet_integral": trace.dirichlet_integral.mean(axis=1),
        },
        meta | {"potential": pot.name, "N": N},
    )
    return 0


def cmd_pde_solve(cfg: RunConfig, meta, outdir, args) -> int:
    d = cfg.lattice.d
    spec = build_domain(cfg.domain, d)
    grid = PdeGrid(spec, cfg.pde.spacing)
    h0 = build_profile(cfg.initial, d)
    f = build_profile(cfg.boundary, d)
    if not cfg.pde.t_end > 0:
        raise ConfigError(f"config key 'pde.t_end' must be positive, got {cfg.pde.t_end}")
    flux = resolve_flux(cfg.pde.flux, potential_from_spec(cfg.potential))
    sol = solve(grid, h0, flux, t_end=cfg.pde.t_end, boundary=f)
    print(
        f"pde: t={cfg.pde.t_end} steps={sol.steps} dt={sol.dt:.3g} "
        f"max_ok={sol.linf_ok} flux={sol.flux_label}"
    )
    pts = grid.points()
    write_csv(
        os.path.join(outdir, "pde_final.csv"),
        {**{f"x{i}": pts[:, i] for i in range(d)}, "value": sol.final.ravel()},
        meta | {
            "t": repr(cfg.pde.t_end), "spacing": repr(cfg.pde.spacing),
            "flux": sol.flux_label, "steps": sol.steps,
        },
    )
    return 0


def cmd_hydro(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    d = cfg.lattice.d
    spec = build_domain(cfg.domain, d)
    f = build_profile(cfg.boundary, d)
    h0 = build_profile(cfg.initial, d)
    exp = HydroExperiment(
        pot=pot, spec=spec, boundary=f, initial=h0,
        scales=tuple(cfg.hydro.scales), times=tuple(cfg.hydro.times),
        realizations=cfg.hydro.realizations, seed=cfg.seed,
        dt=cfg.dynamics.dt or None, pde_spacing=cfg.pde.spacing,
        flux=cfg.pde.flux,
    )
    table = hydro_run(exp)
    for row in table.rows:
        print(
            f"N={row['N']:>4} t={row['t']:g} gap^2={row['mean_sq_gap']:.3e} "
            f"+/- {row['stderr']:.1e} ({row['realizations']} runs)"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PlotSkipped)
        hydro_report(table, outdir, meta)
    for w in caught:
        if issubclass(w.category, PlotSkipped):
            print(w.message)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return 0


def cmd_dlr_check(cfg: RunConfig, meta, outdir, args) -> int:
    pot = potential_from_spec(cfg.potential)
    u = tilt_vector(cfg.lattice)
    dl = cfg.dlr
    rep = dlr_check(
        pot, u, window=dl.window, n_samples=dl.n_samples,
        chains=dl.chains, thin=dl.thin, burn=dl.burn, bins=dl.bins,
        seed=cfg.seed,
    )
    sup = "n/a" if rep.sup_distance is None else f"{rep.sup_distance:.4f}"
    print(
        f"dlr window={dl.window}: sup|hist - exact| = {sup} "
        f"start-group distance = {rep.two_start_distance:.4f} "
        f"({rep.n_samples} samples)"
    )
    write_csv(
        os.path.join(outdir, "dlr.csv"),
        {
            "sup_distance": [np.nan if rep.sup_distance is None else rep.sup_distance],
            "two_start_distance": [rep.two_start_distance],
            "mean": [rep.mean_emp],
            "mean_exact": [np.nan if rep.mean_quad is None else rep.mean_quad],
            "var": [rep.var_emp],
            "var_exact": [np.nan if rep.var_quad is None else rep.var_quad],
            "n_samples": [rep.n_samples],
        },
        meta | {"potential": pot.name, "window": dl.window},
    )
    return 0


# the sampler keys _chain_options reads; these commands run surface.sweeps
CHAIN_KEYS = ("sampler.step", "sampler.burn_in")

COMMANDS = {  # name -> (help, handler, config entries the handler reads)
    "certify-potential": (
        "check a potential against its declared constants", cmd_certify_potential,
        ("potential",)),
    "sample-gibbs": (
        "sample the tilted gradient ensemble, report estimates", cmd_sample_gibbs,
        ("potential", "lattice", "sampler", "seed")),
    "surface-tension": (
        "estimate sigma(u) by thermodynamic integration", cmd_surface_tension,
        ("potential", "lattice", *CHAIN_KEYS, "surface.sweeps", "surface.nodes", "seed")),
    "surface-table": (
        "tabulate grad sigma over the surface.grid tilts", cmd_surface_table,
        ("potential", "lattice.N", "lattice.d", *CHAIN_KEYS, "surface.sweeps",
         "surface.grid", "seed", "workers")),
    "convexity-probe": (
        "monotonicity quotient between two tilts", cmd_convexity_probe,
        ("potential", "lattice", *CHAIN_KEYS, "surface.sweeps", "seed")),
    "decompose-flux": (
        "uniformly elliptic flux decomposition at a tilt", cmd_decompose_flux,
        ("potential", "lattice", *CHAIN_KEYS, "surface.sweeps", "surface.nodes", "seed")),
    "simulate": (
        "Langevin evolution in a domain with boundary data", cmd_simulate,
        ("potential", "lattice.N", "lattice.d", "domain", "boundary", "initial",
         "dynamics", "seed")),
    "pde-solve": (
        "deterministic limit equation solver", cmd_pde_solve,
        ("potential", "lattice.d", "domain", "boundary", "initial", "pde")),
    "hydro": (
        "microscopic vs PDE scaling study", cmd_hydro,
        ("potential", "lattice.d", "domain", "boundary", "initial", "hydro",
         "dynamics.dt", "pde.spacing", "pde.flux", "seed")),
    "dlr-check": (
        "conditional-law check in a frozen window", cmd_dlr_check,
        ("potential", "lattice.d", "lattice.tilt", "dlr", "seed")),
}

# short flag -> (config key, argparse options); a command takes the flag
# only if it reads the key.  --u also sets lattice.d by its length.
FLAGS = {
    "--pot": ("potential.kind", {"help": "potential kind: " + " | ".join(STOCK_KINDS)}),
    "--u": ("lattice.tilt", {"help": "tilt, comma separated, e.g. 1,0"}),
    "--N": ("lattice.N", {"type": int, "help": "lattice scale"}),
    "--d": ("lattice.d", {"type": int, "help": "dimension"}),
    "--seed": ("seed", {"type": int, "help": "master seed"}),
    "--workers": (
        "workers", {"type": int, "help": "forked worker processes, 0 = none"}),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg, meta, outdir = _load(args)
        return COMMANDS[args.command][1](cfg, meta, outdir, args)
    except (HeightLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
