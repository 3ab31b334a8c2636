"""Config tree, overrides, artifact serialization, and the CLI.

CLI runs use small sweep counts; the point here is exit codes, artifact
layout, and byte-level reproducibility rather than statistics.
"""

import hashlib
import importlib.util
import json

import numpy as np
import pytest

from heightlab.cli import main
from heightlab.config import (
    RunConfig,
    apply_overrides,
    build_domain,
    build_potential,
    build_profile,
    config_hash,
    from_dict,
    load_config,
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
        assert cfg.sampler.kind == "mala"      # untouched sections keep defaults

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
        cfg = load_config(path)
        assert cfg.lattice.N == 8 and cfg.seed == 3

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

    def test_hydro_single_realization_exits_one(self, cli_env, capsys):
        assert run_cli("hydro", "--set", "hydro.realizations=1", "--out", "root") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "at least 2 realizations" in err
        assert not any((cli_env / "root").glob("*/convergence.csv"))


    @pytest.mark.parametrize("command", ["hydro", "pde-solve"])
    def test_closed_form_flux_refused_for_cosine(self, cli_env, capsys, command):
        # pde.flux defaults to "gaussian", the Gaussian potential's closed form
        code = run_cli(
            command, "--set", "potential.kind=cosine", "--set", "potential.a=2.0",
            "--set", "hydro.scales=[8,16]", "--set", "hydro.realizations=8",
            "--out", "root",
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
        cols, _ = read_csv(run_dir / "surface.csv")
        assert abs(cols["sigma"][0] - 0.5) < 1e-12
        assert abs(cols["dsigma_0"][0] - 1.0) < 1e-12

    def test_surface_table_artifact_loads(self, cli_env, capsys):
        from heightlab.surface import SurfaceTensionTable

        code = run_cli(
            "surface-tension", "--table", "--d", "1", "--N", "8", "--out", "root",
            "--set", "surface.sweeps=200", "--set", "surface.grid=[-0.5,0.5,3]",
        )
        assert code == 0
        run_dir = next((cli_env / "root").iterdir())
        tab = SurfaceTensionTable.from_csv(run_dir / "surface_table.csv")
        assert tab.sigma_at([0.0]) == 0.0
        assert "config" in tab.meta
        capsys.readouterr()

    def test_convexity_probe_gaussian(self, cli_env, capsys):
        code = run_cli(
            "convexity-probe", "--u", "1", "--v=-1", "--N", "8", "--out", "root",
            "--set", "surface.sweeps=300",
        )
        assert code == 0
        assert "quotient" in capsys.readouterr().out
        cols, _ = read_csv(next((cli_env / "root").iterdir()) / "convexity.csv")
        assert abs(cols["quotient"][0] - 1.0) < 1e-9

    def test_decompose_flux_gaussian(self, cli_env, capsys):
        code = run_cli(
            "decompose-flux", "--u", "0.5", "--N", "8", "--out", "root",
            "--set", "surface.sweeps=300",
        )
        assert code == 0
        cols, meta = read_csv(next((cli_env / "root").iterdir()) / "flux.csv")
        assert abs(cols["A_diag"][0] - 1.0) < 1e-12
        assert meta["in_bounds"] == "1"
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
        capsys.readouterr()

    def test_readme_run_artifacts_are_pinned(self, cli_env, capsys):
        # sha256 of the README runs' artifacts: a refactor that changes no
        # output leaves every byte of them as it was
        runs = [
            ("sample-gibbs", "--u", "0.5", "--N", "8", "--seed", "5",
             "--set", "sampler.sweeps=2000"),
            ("surface-tension", "--u", "1", "--table",
             "--set", "surface.grid=[-0.5,0.5,5]"),
            ("hydro", "--set", "hydro.scales=[8,16]", "--set", "hydro.realizations=8"),
        ]
        for argv in runs:
            assert run_cli(*argv, "--out", "readme") == 0
        want = {
            "sample-gibbs-2322286ebc85/gibbs.csv":
                "38e006e714b8ac3cbc6796cffee88ca656daa0743b5e0c79a13a7eaf9e0cd0d3",
            "surface-tension-d97f35cd1699/surface_table.csv":
                "dff5373a61a6e68440f33f475ec4b7495f83b0f5b3a6360d98c02ac12c33219d",
            "hydro-f9b7c5a35445/convergence.csv":
                "b1cd21c9b2914fc33356ba9c2d8a5503e1bd9195e224f774369a29f4c9e3c450",
            "hydro-f9b7c5a35445/gap_vs_N.dat":
                "c290b4e8a7edb78e2531f6a934b9cd1465b711b2a6254077ec9b845f9d8d831e",
        }
        root = cli_env / "readme"
        got = {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.suffix in (".csv", ".dat")
        }
        assert got == want
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["sampler.step=0.05", "sampler.burn_in=30"])
    @pytest.mark.parametrize("command, csv, flags", [
        pytest.param("surface-tension", "surface.csv", ("--u", "0.5"), id="surface-tension"),
        pytest.param("surface-tension", "surface_table.csv",
                     ("--table", "--d", "1", "--set", "surface.grid=[-0.5,0.5,3]"),
                     id="surface-tension-table"),
        pytest.param("convexity-probe", "convexity.csv", ("--u", "0.5", "--v=-0.5"),
                     id="convexity-probe"),
        pytest.param("decompose-flux", "flux.csv", ("--u", "0.5"), id="decompose-flux"),
    ])
    def test_sampler_key_changes_the_csv(self, cli_env, capsys, key, command, csv, flags):
        # the key reaches the chains: the data rows change, not only the
        # config hash in the header
        base = (command, "--pot", "cosine", "--N", "4", *flags,
                "--set", "surface.sweeps=64", "--set", "surface.nodes=2")
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
            "dlr-check", "--pot", "cosine", "--u", "0.5", "--N", "8", "--out", "root",
            "--set", "dlr.n_samples=2000", "--set", "dlr.chains=10",
            "--set", "dlr.burn=200", "--set", "dlr.bins=30",
        )
        assert code == 0
        cols, _ = read_csv(next((cli_env / "root").iterdir()) / "dlr.csv")
        assert cols["sup_distance"][0] < 0.2
        assert cols["n_samples"][0] == 2000
        capsys.readouterr()
