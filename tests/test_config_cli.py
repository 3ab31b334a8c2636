"""Config tree, overrides, artifact serialization, and the CLI.

CLI runs use small sweep counts; the point here is exit codes, artifact
layout, and byte-level reproducibility rather than statistics.
"""

import dataclasses
import hashlib
import importlib.util
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from heightlab.cli import COMMANDS, FLAGS, _chain_options, _load, _reads, build_parser, main
from heightlab.config import (
    RunConfig,
    apply_overrides,
    build_domain,
    build_potential,
    build_profile,
    config_hash,
    from_dict,
    tilt_vector,
    to_dict,
)
from heightlab.errors import ConfigError
from heightlab.io import read_csv, write_csv

HAVE_MATPLOTLIB = importlib.util.find_spec("matplotlib") is not None


class TestConfigTree:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert from_dict(to_dict(cfg)) == cfg

    def test_nested_assignment_and_freezing(self):
        cfg = from_dict({"lattice": {"tilt": [1, 0], "d": 2}, "seed": 7})
        assert cfg.lattice.tilt == (1, 0)
        assert cfg.seed == 7
        assert cfg.sampler.sweeps == 20000     # untouched sections keep defaults

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            from_dict({"seeed": 1})
        with pytest.raises(ConfigError):
            from_dict({"sampler": {"sweep": 10}})
        with pytest.raises(ConfigError):
            from_dict({"sampler": 5})

    def test_hash_tracks_content(self):
        a, b = RunConfig(), RunConfig()
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12
        b.seed = 1
        assert config_hash(a) != config_hash(b)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"lattice": {"N": 8}, "seed": 3}))
        cfg, meta, _ = _load(build_parser().parse_args(["sample-gibbs", "--config", str(path)]))
        assert cfg.lattice.N == 8 and cfg.seed == 3 and meta["seed"] == 3

    def test_overrides(self):
        cfg = apply_overrides(
            RunConfig(),
            ["sampler.sweeps=4000", "potential.kind=cosine", "lattice.tilt=[1,0]"],
        )
        assert cfg.sampler.sweeps == 4000
        assert cfg.potential.kind == "cosine"
        assert cfg.lattice.tilt == (1, 0)

    def test_override_errors(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["sampler.sweeps"])
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["nope.x=1"])
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["sampler.nope=1"])


class TestBuilders:
    def test_potentials(self):
        assert build_potential(RunConfig().potential).name == "gaussian"
        cfg = from_dict({"potential": {"kind": "cosine", "a": 0.3}})
        assert "cosine" in build_potential(cfg.potential).name
        cfg = from_dict({"potential": {"kind": "split_bump"}})
        assert "bump" in build_potential(cfg.potential).name
        with pytest.raises(ConfigError):
            build_potential(from_dict({"potential": {"kind": "quartic"}}).potential)

    def test_domains(self):
        box = build_domain(RunConfig().domain, 2)
        assert box.shape == "box" and box.contains(np.zeros((1, 2)))[0]
        ball = build_domain(from_dict({"domain": {"shape": "ball"}}).domain, 2)
        assert ball.shape == "ball"
        poly_cfg = from_dict(
            {
                "domain": {
                    "shape": "polytope",
                    "normals": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                    "offsets": [0.5, 0.5, 0.5, 0.5],
                    "bbox": [[-0.5, -0.5], [0.5, 0.5]],
                }
            }
        ).domain
        poly = build_domain(poly_cfg, 2)
        assert poly.contains(np.zeros((1, 2)))[0]
        with pytest.raises(ConfigError):
            build_domain(from_dict({"domain": {"shape": "polytope"}}).domain, 2)
        with pytest.raises(ConfigError):
            build_domain(from_dict({"domain": {"center": [0.0]}}).domain, 2)

    def test_profiles(self):
        pts = np.array([[0.25, 0.0]])
        assert build_profile(RunConfig().initial, 2)(pts)[0] == 0.0
        lin_cfg = from_dict({"initial": {"kind": "linear", "slope": [2.0, 0.0]}})
        assert build_profile(lin_cfg.initial, 2)(pts)[0] == 0.5
        with pytest.raises(ConfigError):
            build_profile(
                from_dict({"initial": {"kind": "linear", "slope": [1.0]}}).initial, 2
            )
        with pytest.raises(ConfigError):
            build_profile(from_dict({"initial": {"kind": "steps"}}).initial, 2)

    def test_tilt_vector(self):
        assert np.array_equal(tilt_vector(RunConfig().lattice), np.zeros(2))
        cfg = from_dict({"lattice": {"tilt": [1.0], "d": 2}})
        with pytest.raises(ConfigError):
            tilt_vector(cfg.lattice)


class TestCsvRoundTrip:
    def test_values_and_meta_survive(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = {"a": np.array([0.1, 1 / 3]), "b": np.array([1, 2])}
        write_csv(path, cols, meta={"seed": 0, "config": "abc"})
        back, meta = read_csv(path)
        assert np.array_equal(back["a"], cols["a"])     # repr round trip
        assert np.array_equal(back["b"], [1.0, 2.0])
        assert meta == {"seed": "0", "config": "abc"}

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", {"a": [1.0], "b": [1.0, 2.0]})
        path = tmp_path / "read.csv"
        for text, match in (("", "no header"), ("a,b\n1,2\n3\n", "row 2 has 1 cells")):
            path.write_text(text)
            with pytest.raises(ValueError, match=match):
                read_csv(path)
        path.write_text("# k=v\n\na,b\n1,2\n\n3,4\n")   # blank lines skipped
        assert np.array_equal(read_csv(path)[0]["b"], [2.0, 4.0])


@pytest.fixture()
def cli_env(tmp_path, monkeypatch):
    monkeypatch.delenv("HEIGHTLAB_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


class TestCliExitCodes:
    def test_no_command_is_usage_error(self, cli_env, capsys):
        assert run_cli() == 2
        assert run_cli("sample-gibbs", "--no-such-flag") == 2
        # --workers has an effect only on surface-table
        assert run_cli("hydro", "--workers", "2") == 2
        capsys.readouterr()

    def test_runtime_errors_exit_one(self, cli_env, capsys):
        # N=4 leaves no interior site at the default margin
        code = run_cli("simulate", "--N", "4", "--d", "1",
                       "--set", "domain.center=[0.5]")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_exits_one(self, cli_env, capsys):
        assert run_cli("sample-gibbs", "--set", "sampler.nope=1") == 1
        assert "error:" in capsys.readouterr().err

    def test_sampler_n_batches_is_not_a_key(self, cli_env, capsys):
        # batch-means error bars use the fixed gibbs.N_BATCHES; no key sets them
        assert run_cli("sample-gibbs", "--set", "sampler.n_batches=16") == 1
        assert "no config key 'sampler.n_batches'" in capsys.readouterr().err

    def test_sampler_kind_is_not_a_key(self, cli_env, capsys):
        # MALA is the one kernel; no key picks another
        assert run_cli("sample-gibbs", "--set", "sampler.kind=mala") == 1
        assert "no config key 'sampler.kind'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param("surface-tension", ("--N", "4", "--u", "0.5", "--set", "surface.nodes=1"),
                     "nodes >= 2", id="sigma-one-node"),
        pytest.param("dlr-check", ("--set", "dlr.chains=0"), "chains >= 2", id="dlr-no-chain"),
        pytest.param("dlr-check", ("--set", "dlr.chains=1"), "chains >= 2", id="dlr-one-chain"),
        pytest.param("dlr-check", ("--set", "dlr.n_samples=0"), "n_samples >= chains",
                     id="dlr-no-sample"),
        pytest.param("dlr-check", ("--set", "dlr.n_samples=10"), "n_samples >= chains",
                     id="dlr-fewer-samples-than-chains"),
        pytest.param("surface-table", ("--N", "4", "--workers", "-1"),
                     "workers must be >= 0", id="table-negative-workers"),
    ])
    def test_degenerate_counts_exit_one(self, cli_env, capsys, command, flags, message):
        # refused before any sampling, with no artifact written
        assert run_cli(command, *flags, "--out", "root") == 1
        assert message in capsys.readouterr().err
        assert not any((cli_env / "root").glob("*/*.csv"))

    @pytest.mark.parametrize("command, key", [
        ("sample-gibbs", "sampler.thin=0"), ("dlr-check", "dlr.thin=0"),
    ])
    def test_thin_below_one_exits_one(self, cli_env, capsys, command, key):
        assert run_cli(command, "--set", key, "--out", "root") == 1
        assert "thin must be at least 1, got 0" in capsys.readouterr().err

    def test_invalid_step_exits_one(self, cli_env, capsys):
        assert run_cli("sample-gibbs", "--set", "sampler.step=-0.1", "--out", "root") == 1
        assert "step must be finite and > 0, got -0.1" in capsys.readouterr().err
        # 0 is the config's "auto-tuned", which the sampler receives as None
        assert _chain_options(from_dict({"sampler": {"step": 0}}).sampler)["step"] is None

    @pytest.mark.parametrize("command", ["dlr-check", "hydro", "pde-solve", "certify-potential"])
    def test_N_refused_where_no_lattice_scale_is_read(self, cli_env, capsys, command):
        # lattice.N would only move the config hash on these commands
        assert run_cli(command, "--N", "8", "--out", "root") == 2
        assert "unrecognized arguments: --N 8" in capsys.readouterr().err
        assert not (cli_env / "root").exists()

    def test_hydro_single_realization_exits_one(self, cli_env, capsys):
        assert run_cli("hydro", "--set", "hydro.realizations=1", "--out", "root") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "at least 2 realizations" in err
        assert not any((cli_env / "root").glob("*/convergence.csv"))


    @pytest.mark.parametrize("command", ["hydro", "pde-solve"])
    def test_closed_form_flux_refused_for_cosine(self, cli_env, capsys, command):
        # pde.flux defaults to "gaussian", the Gaussian potential's closed form
        study = ("--set", "hydro.scales=[8,16]", "--set", "hydro.realizations=8")
        code = run_cli(
            command, "--set", "potential.kind=cosine", "--set", "potential.a=2.0",
            *(study if command == "hydro" else ()), "--out", "root",
        )
        assert code == 1
        assert "no closed-form flux" in capsys.readouterr().err
        assert not any((cli_env / "root").glob("*/*.csv"))


class TestCliCommands:
    def test_certify_writes_report(self, cli_env, capsys):
        code = run_cli("certify-potential", "--pot", "cosine", "--out", "root")
        assert code == 0
        out = capsys.readouterr().out
        assert "curvature window: ok" in out
        runs = list((cli_env / "root").iterdir())
        assert len(runs) == 1 and runs[0].name.startswith("certify-potential-")
        cols, meta = read_csv(runs[0] / "certify.csv")
        assert cols["ok"][0] == 1.0
        assert "potential" in meta and "config" in meta

    def test_surface_tension_gaussian_exact(self, cli_env, capsys):
        code = run_cli(
            "surface-tension", "--u", "1", "--N", "8", "--out", "root",
            "--set", "surface.sweeps=300", "--set", "surface.nodes=4",
        )
        assert code == 0
        assert "sigma((1)) = 0.500000" in capsys.readouterr().out
        run_dir = next((cli_env / "root").iterdir())
        cols, meta = read_csv(run_dir / "surface.csv")
        assert float(meta["tilt"]) == 1.0  # a plain float, not numpy's repr
        assert abs(cols["sigma"][0] - 0.5) < 1e-12
        assert abs(cols["dsigma_0"][0] - 1.0) < 1e-12

    def test_surface_table_artifact_loads(self, cli_env, capsys):
        from heightlab.surface import SurfaceTensionTable

        code = run_cli(
            "surface-table", "--d", "1", "--N", "8", "--out", "root",
            "--set", "surface.sweeps=200", "--set", "surface.grid=[-0.5,0.5,3]",
        )
        assert code == 0
        run_dir = next((cli_env / "root").iterdir())
        tab = SurfaceTensionTable.from_csv(run_dir / "surface_table.csv")
        assert tab.sigma[list(tab.axes[0]).index(0.0)] == 0.0
        assert "config" in tab.meta
        capsys.readouterr()

    def test_convexity_probe_gaussian(self, cli_env, capsys):
        code = run_cli(
            "convexity-probe", "--u", "1", "--v=-1", "--N", "8", "--out", "root",
            "--set", "surface.sweeps=300",
        )
        assert code == 0
        assert "quotient" in capsys.readouterr().out
        cols, meta = read_csv(next((cli_env / "root").iterdir()) / "convexity.csv")
        assert (float(meta["u"]), float(meta["v"])) == (1.0, -1.0)
        assert abs(cols["quotient"][0] - 1.0) < 1e-9

    def test_convexity_probe_runs_differing_in_v_keep_their_own_directory(
        self, cli_env, capsys
    ):
        # --v is no config key, yet it names the run directory: a probe of
        # another pair must not overwrite the first one's convexity.csv
        common = ("--u", "1", "--N", "4", "--out", "root", "--set", "surface.sweeps=64")
        for v in ("--v=-1", "--v=-0.5", "--v=-1.0"):
            assert run_cli("convexity-probe", v, *common) == 0
        runs = sorted((cli_env / "root").iterdir())
        assert len(runs) == 2
        assert sorted(float(read_csv(r / "convexity.csv")[1]["v"]) for r in runs) == [-1.0, -0.5]
        # without --v the directory is named by the config hash alone
        assert run_cli("convexity-probe", *common) == 0
        (plain,) = set((cli_env / "root").iterdir()) - set(runs)
        _, meta = read_csv(plain / "convexity.csv")
        assert plain.name == f"convexity-probe-{meta['config']}"
        capsys.readouterr()

    def test_decompose_flux_gaussian(self, cli_env, capsys):
        code = run_cli(
            "decompose-flux", "--u", "0.5", "--N", "8", "--out", "root",
            "--set", "surface.sweeps=300",
        )
        assert code == 0
        cols, meta = read_csv(next((cli_env / "root").iterdir()) / "flux.csv")
        assert abs(cols["A_diag"][0] - 1.0) < 1e-12
        assert meta["in_bounds"] == "1"
        assert float(meta["tilt"]) == 0.5
        capsys.readouterr()

    def test_decompose_flux_check_reads_an_independent_chain(self, cli_env, capsys):
        # on one shared chain A u + a and grad sigma agree to rounding; the
        # Gaussian gives u for both on any chain, so the check needs a cosine
        code = run_cli(
            "decompose-flux", "--pot", "cosine", "--u", "0.5", "--N", "8",
            "--out", "root", "--set", "surface.sweeps=2000",
        )
        assert code == 0
        cols, _ = read_csv(next((cli_env / "root").iterdir()) / "flux.csv")
        assert np.all(np.abs(cols["dsigma"] - cols["reconstructed"]) > 1e-9)
        capsys.readouterr()

    def test_sample_gibbs_reruns_are_byte_identical(self, cli_env, capsys):
        flags = (
            "sample-gibbs", "--u", "0.5", "--N", "8", "--seed", "5",
            "--set", "sampler.sweeps=300", "--set", "sampler.burn_in=100",
        )
        assert run_cli(*flags, "--out", "a") == 0
        assert run_cli(*flags, "--out", "b") == 0
        a = next((cli_env / "a").iterdir()) / "gibbs.csv"
        b = next((cli_env / "b").iterdir()) / "gibbs.csv"
        assert a.read_bytes() == b.read_bytes()
        assert float(read_csv(a)[1]["tilt"]) == 0.5
        capsys.readouterr()

    def test_readme_run_artifacts_are_pinned(self, cli_env, capsys):
        # sha256 of the README runs' artifacts: a refactor that changes no
        # output leaves every byte of them as it was
        runs = [
            ("sample-gibbs", "--u", "0.5", "--N", "8", "--seed", "5",
             "--set", "sampler.sweeps=2000"),
            ("surface-table", "--d", "1", "--set", "surface.grid=[-0.5,0.5,5]"),
            ("hydro", "--set", "hydro.scales=[8,16]", "--set", "hydro.realizations=8"),
        ]
        for argv in runs:
            assert run_cli(*argv, "--out", "readme") == 0
        want = {
            "sample-gibbs-c68995af4073/gibbs.csv":
                "bd8124a1abf3c6490be892e22b5263e09681720eea164436e1c846c3db256e2f",
            "surface-table-75708abaea2a/surface_table.csv":
                "18c2075e0eb36325d7b6f370939e6cacca0b0bb8ed22a33a69fadcab7f739678",
            "hydro-6533410c8851/convergence.csv":
                "270a3ad8b6a0a2e496f6843afd94ec53339ca154de5c1b6ee0fb964abedd51cc",
            "hydro-6533410c8851/gap_vs_N.dat":
                "c290b4e8a7edb78e2531f6a934b9cd1465b711b2a6254077ec9b845f9d8d831e",
        }
        root = cli_env / "readme"
        got = {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.suffix in (".csv", ".dat")
        }
        assert got == want
        # the table's data rows as `surface-tension --u 1 --table` wrote
        # them, before the table had a command of its own
        rows = [line for line in (root / "surface-table-75708abaea2a/surface_table.csv")
                .read_bytes().splitlines(keepends=True) if not line.startswith(b"#")]
        assert hashlib.sha256(b"".join(rows)).hexdigest() == (
            "f225a5b881141f8eb948e79821e43b4fd0ef0f0b644849abd7c2ef31e30e246a")
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["sampler.step=0.05", "sampler.burn_in=30"])
    @pytest.mark.parametrize("command, csv, flags", [
        pytest.param("surface-tension", "surface.csv",
                     ("--u", "0.5", "--set", "surface.nodes=2"), id="surface-tension"),
        pytest.param("surface-table", "surface_table.csv",
                     ("--d", "1", "--set", "surface.grid=[-0.5,0.5,3]"), id="surface-table"),
        pytest.param("convexity-probe", "convexity.csv", ("--u", "0.5", "--v=-0.5"),
                     id="convexity-probe"),
        pytest.param("decompose-flux", "flux.csv", ("--u", "0.5", "--set", "surface.nodes=2"),
                     id="decompose-flux"),
    ])
    def test_sampler_key_changes_the_csv(self, cli_env, capsys, key, command, csv, flags):
        # the key reaches the chains: the data rows change, not only the
        # config hash in the header
        base = (command, "--pot", "cosine", "--N", "4", *flags, "--set", "surface.sweeps=64")
        assert run_cli(*base, "--out", "default") == 0
        assert run_cli(*base, "--set", key, "--out", "keyed") == 0
        rows = [
            [line for line in (next((cli_env / out).iterdir()) / csv).read_text().splitlines()
             if not line.startswith("#")]
            for out in ("default", "keyed")
        ]
        assert rows[0][0] == rows[1][0]   # same columns
        assert rows[0][1:] != rows[1][1:]
        capsys.readouterr()

    def test_output_root_precedence(self, cli_env, monkeypatch, capsys):
        flags = ("certify-potential", "--pot", "gaussian")
        assert run_cli(*flags) == 0                      # config default root
        assert (cli_env / "out").is_dir()
        monkeypatch.setenv("HEIGHTLAB_OUT", str(cli_env / "env_root"))
        assert run_cli(*flags) == 0
        assert (cli_env / "env_root").is_dir()
        assert run_cli(*flags, "--out", str(cli_env / "flag_root")) == 0
        assert (cli_env / "flag_root").is_dir()
        capsys.readouterr()

    def test_pde_solve_writes_final_field(self, cli_env, capsys):
        code = run_cli(
            "pde-solve", "--d", "2", "--out", "root",
            "--set", "pde.spacing=0.125", "--set", "pde.t_end=0.01",
            "--set", "domain.center=[0.5,0.5]",
        )
        assert code == 0
        cols, meta = read_csv(next((cli_env / "root").iterdir()) / "pde_final.csv")
        assert set(cols) == {"x0", "x1", "value"}
        assert len(cols["value"]) == 81
        capsys.readouterr()

    def test_simulate_writes_field_and_energy(self, cli_env, capsys):
        code = run_cli(
            "simulate", "--N", "8", "--d", "1", "--out", "root",
            "--set", "domain.center=[0.5]",
            "--set", "initial.kind=bump", "--set", "initial.center=[0.5]",
            "--set", "dynamics.t_end=0.02",
        )
        assert code == 0
        run_dir = next((cli_env / "root").iterdir())
        assert (run_dir / "final_height.csv").exists()
        cols, _ = read_csv(run_dir / "energy.csv")
        assert cols["t"][-1] == 0.02
        capsys.readouterr()

    def test_hydro_from_config_file(self, cli_env, capsys):
        cfg = {
            "lattice": {"d": 1},
            "domain": {"center": [0.5]},
            "initial": {"kind": "bump", "amp": 0.8, "center": [0.5]},
            "hydro": {"scales": [8, 16], "times": [0.02], "realizations": 4},
        }
        path = cli_env / "hydro.json"
        path.write_text(json.dumps(cfg))
        code = run_cli("hydro", "--config", str(path), "--out", "root")
        assert code == 0
        run_dir = next((cli_env / "root").iterdir())
        assert (run_dir / "convergence.csv").exists()
        out = capsys.readouterr().out
        if HAVE_MATPLOTLIB:
            assert (run_dir / "gap_vs_N.png").exists()
        else:
            assert "skipped gap_vs_N.png" in out and "heightlab[plot]" in out
            assert not (run_dir / "gap_vs_N.png").exists()
        assert "N=   8" in out and "N=  16" in out

    def test_dlr_check_quick(self, cli_env, capsys):
        code = run_cli(
            "dlr-check", "--pot", "cosine", "--u", "0.5", "--out", "root",
            "--set", "dlr.n_samples=2000", "--set", "dlr.chains=10",
            "--set", "dlr.burn=200", "--set", "dlr.bins=30",
        )
        assert code == 0
        cols, _ = read_csv(next((cli_env / "root").iterdir()) / "dlr.csv")
        assert cols["sup_distance"][0] < 0.2
        assert cols["n_samples"][0] == 2000
        capsys.readouterr()


# every config leaf, dotted, with its default value
LEAVES = {
    f"{key}.{leaf}" if isinstance(value, dict) else key: leaf_value
    for key, value in to_dict(RunConfig()).items()
    for leaf, leaf_value in (value.items() if isinstance(value, dict) else [(key, value)])
}

# a valid value for each short flag
FLAG_VALUES = {"--pot": "cosine", "--u": "0.5", "--N": "8", "--d": "1", "--seed": "3",
               "--workers": "0"}

# one tiny run per command, reaching every branch of its handler that
# reads config
READ_RUNS = {
    "certify-potential": ("--pot", "cosine"),
    "sample-gibbs": ("--u", "0.5", "--N", "4", "--set", "sampler.sweeps=64"),
    "surface-tension": (
        "--u", "0.5", "--N", "4", "--set", "surface.sweeps=64", "--set", "surface.nodes=2"),
    "surface-table": ("--d", "1", "--N", "4", "--set", "surface.sweeps=64",
                      "--set", "surface.grid=[-0.5,0.5,3]"),
    "convexity-probe": ("--u", "0.5", "--v=-0.5", "--N", "4", "--set", "surface.sweeps=64"),
    "decompose-flux": (
        "--u", "0.5", "--N", "4", "--set", "surface.sweeps=64", "--set", "surface.nodes=2"),
    "simulate": ("--N", "8", "--d", "1", "--set", "domain.center=[0.5]",
                 "--set", "dynamics.t_end=0.002"),
    "pde-solve": ("--d", "1", "--set", "domain.center=[0.5]", "--set", "pde.spacing=0.125",
                  "--set", "pde.t_end=0.01"),
    "hydro": ("--d", "1", "--set", "domain.center=[0.5]", "--set", "hydro.scales=[8]",
              "--set", "hydro.times=[0.002]", "--set", "hydro.realizations=2"),
    "dlr-check": ("--pot", "cosine", "--u", "0.5", "--set", "dlr.n_samples=100",
                  "--set", "dlr.chains=10", "--set", "dlr.burn=50"),
}


class _Reads:
    """A config, or one of its sections, that logs each leaf read as a
    dotted key."""

    def __init__(self, obj, log, prefix=""):
        self._obj, self._log, self._prefix = obj, log, prefix

    def __getattr__(self, name):
        value = getattr(self._obj, name)
        key = self._prefix + name
        if dataclasses.is_dataclass(value):
            return _Reads(value, self._log, key + ".")
        self._log.add(key)
        return value


class TestReadSets:
    @pytest.mark.parametrize("flag", list(FLAGS))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_flag_parses_exactly_where_its_key_is_read(self, capsys, command, flag):
        argv = [command, flag, FLAG_VALUES[flag]]
        if _reads(command, FLAGS[flag][0]):
            build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_set_accepted_exactly_where_the_leaf_is_read(self, command):
        assert len(LEAVES) == 51
        for key, value in LEAVES.items():
            args = build_parser().parse_args([command, "--set", f"{key}={json.dumps(value)}"])
            if _reads(command, key):
                _load(args)
            else:
                with pytest.raises(ConfigError, match=f"never reads config keys \\['{key}'\\]"):
                    _load(args)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_handler_reads_exactly_its_declared_entries(self, cli_env, capsys, command):
        seen = set()
        args = build_parser().parse_args([command, *READ_RUNS[command], "--out", "root"])
        cfg, meta, outdir = _load(args)
        COMMANDS[command][1](_Reads(cfg, seen), meta, outdir, args)
        capsys.readouterr()
        assert sorted(k for k in seen if not _reads(command, k)) == []
        entries = COMMANDS[command][2]
        assert [e for e in entries if not any(k == e or k.startswith(e + ".") for k in seen)] == []

    def test_config_file_key_must_be_read(self, cli_env, capsys):
        path = cli_env / "run.json"
        path.write_text(json.dumps({"potential": {"kind": "cosine"}, "seed": 3}))
        assert run_cli("certify-potential", "--config", str(path), "--out", "root") == 1
        assert "certify-potential never reads config keys ['seed']" in capsys.readouterr().err
        assert not (cli_env / "root").exists()

    @pytest.mark.parametrize("argv", [
        ("certify-potential", "--u", "1", "--seed", "3"),
        ("pde-solve", "--u", "1", "--seed", "4"),
    ])
    def test_unread_flags_are_usage_errors(self, cli_env, capsys, argv):
        assert run_cli(*argv) == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (cli_env / "out").exists()

    @pytest.mark.parametrize("argv, code, message", [
        (("surface-tension", "--set", "surface.grid=[-1,1,3]"), 1,
         "surface-tension never reads config keys ['surface.grid']"),
        (("surface-tension", "--workers", "2"), 2, "unrecognized arguments: --workers 2"),
        (("surface-table", "--u", "1"), 2, "unrecognized arguments: --u 1"),
        (("surface-table", "--set", "surface.nodes=3"), 1,
         "surface-table never reads config keys ['surface.nodes']"),
    ])
    def test_sigma_and_table_refuse_each_others_keys(self, cli_env, capsys, argv, code, message):
        # the sigma estimate never reads the grid or the pool size, and the
        # table never reads the tilt or the quadrature nodes
        run = (*argv, "--N", "4", "--set", "surface.sweeps=64", "--out", "root")
        assert run_cli(*run) == code
        assert message in capsys.readouterr().err
        assert not (cli_env / "root").exists()

    def test_readme_cli_lines_parse_and_pass_the_key_check(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        argvs = [shlex.split(line)[1:] for line in block.splitlines()
                 if line.startswith("heightlab ")]
        assert {argv[0] for argv in argvs} == set(COMMANDS)
        for argv in argvs:
            _load(build_parser().parse_args(argv))
        # the table of the short flags and config keys each command takes
        rows = [[cell.strip("` ") for cell in line.split("|")[1:4]]
                for line in readme.splitlines() if line.startswith("| `")]
        assert [name for name, _, _ in rows] == list(COMMANDS)
        for name, flags, keys in rows:
            taken = {flag for flag, (key, _) in FLAGS.items() if _reads(name, key)}
            assert set(flags.split()) - {"--v"} == taken
            assert [k.strip("` ") for k in keys.split(",")] == list(COMMANDS[name][2])
