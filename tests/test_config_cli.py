"""Config tree, overrides, artifact serialization, and the CLI.

CLI runs use small sweep counts; the point here is exit codes, artifact
layout, and byte-level reproducibility rather than statistics.
"""

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from heightlab import cli
from heightlab.cli import COMMANDS, FLAGS, _chain_options, _load, _reads, build_parser, main
from heightlab.config import (
    KIND_SECTIONS,
    RunConfig,
    apply_overrides,
    build_domain,
    build_profile,
    config_hash,
    from_dict,
    tilt_vector,
    to_dict,
)
from heightlab.errors import ConfigError
from heightlab.gibbs import GibbsSampler
from heightlab.io import read_csv, write_csv
from heightlab.potential import make_split_bump, potential_from_spec

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
            {},
            ["sampler.sweeps=4000", "potential.kind=cosine", "lattice.tilt=[1,0]"],
        )
        assert cfg.sampler.sweeps == 4000
        assert cfg.potential["kind"] == "cosine"
        assert cfg.lattice.tilt == (1, 0)

    def test_override_errors(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["sampler.sweeps"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["nope.x=1"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["sampler.nope=1"])
        with pytest.raises(ConfigError, match="'seed' is a config value, not a section"):
            apply_overrides({}, ["seed.x=1"])

    def test_overrides_leave_the_raw_data_alone(self):
        data = {"potential": {"kind": "cosine"}, "seed": 2}
        cfg = apply_overrides(data, ["potential.a=2.0", "seed=3"])
        assert (cfg.potential["a"], cfg.seed) == (2.0, 3)
        assert data == {"potential": {"kind": "cosine"}, "seed": 2}

    @pytest.mark.parametrize("data, message", [
        pytest.param({"seed": 1.0}, "config key 'seed' takes an int, got float", id="seed"),
        pytest.param({"workers": True}, "config key 'workers' takes an int, got bool",
                     id="bool-for-int"),
        pytest.param({"output_dir": 3}, "config key 'output_dir' takes a string, got int",
                     id="output-dir"),
        pytest.param({"dynamics": {"dt": False}},
                     "config key 'dynamics.dt' takes a number, got bool", id="bool-for-number"),
        pytest.param({"hydro": {"scales": 8}}, "config key 'hydro.scales' takes a list, got int",
                     id="int-for-list"),
        pytest.param({"pde": {"flux": ["gaussian"]}},
                     "config key 'pde.flux' takes a string, got list", id="list-for-string"),
        pytest.param({"domain": {"shape": "ball", "radius": "0.3"}},
                     "config key 'domain.radius' takes a number, got str", id="kind-section"),
    ])
    def test_a_leaf_takes_the_type_of_its_default(self, data, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            from_dict(data)

    def test_a_number_leaf_takes_an_int(self):
        cfg = from_dict({"sampler": {"step": 1}, "potential": {"kind": "cosine", "a": 2},
                         "lattice": {"tilt": [1, 0]}})
        assert (cfg.sampler.step, cfg.potential["a"], cfg.lattice.tilt) == (1, 2, (1, 0))


class TestKindSections:
    def test_each_kind_holds_exactly_its_table_keys(self):
        for name, (key, default, table) in KIND_SECTIONS.items():
            assert getattr(RunConfig(), name) == {key: default} | table[default]
            for kind, keys in table.items():
                got = getattr(from_dict({name: {key: kind}}), name)
                assert got == {key: kind} | keys

    @pytest.mark.parametrize("section, data, message", [
        ("potential", {"a": 3}, "potential kind 'gaussian' takes no keys ['a']"),
        ("potential", {"kind": "cosine", "w": 0.5, "M": 2}, "potential kind 'cosine' takes no keys ['M', 'w']"),
        ("domain", {"radius": 0.3}, "domain shape 'box' takes no keys ['radius']"),
        ("domain", {"shape": "ball", "sides": [1.0]}, "domain shape 'ball' takes no keys ['sides']"),
        ("initial", {"kind": "bump", "slope": [1.0]}, "initial kind 'bump' takes no keys ['slope']"),
        ("boundary", {"amp": 0.4}, "boundary kind 'zero' takes no keys ['amp']"),
        ("potential", {"kind": "quartic"}, "unknown potential kind 'quartic'"),
        ("domain", {"shape": ["box"]}, "unknown domain shape ['box']"),
        ("domain", {"shape": "polytope"},
         "unknown domain shape 'polytope', expected one of ['box', 'ball']"),
        ("initial", 5, "section 'initial' must be a mapping"),
    ])
    def test_a_key_the_kind_does_not_take_is_refused(self, section, data, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            from_dict({section: data})

    def test_hash_of_a_kind_is_the_hash_of_its_defaults(self):
        given = from_dict({"potential": {"kind": "cosine"}})
        spelled = from_dict({"potential": {"kind": "cosine", "a": 0.2, "kappa": 1.0}})
        assert config_hash(given) == config_hash(spelled)
        assert config_hash(given) != config_hash(from_dict({"potential": {"kind": "cosine", "a": 2.0}}))


class TestBuilders:
    def test_potentials(self):
        assert potential_from_spec(RunConfig().potential).name == "gaussian"
        cfg = from_dict({"potential": {"kind": "cosine", "a": 0.3}})
        assert "cosine" in potential_from_spec(cfg.potential).name
        cfg = from_dict({"potential": {"kind": "split_bump"}})
        assert potential_from_spec(cfg.potential).name == "split_bump(a=1,w=0.5,M=2)"
        with pytest.raises(ConfigError):
            from_dict({"potential": {"kind": "quartic"}})

    def test_domains(self):
        box = build_domain(RunConfig().domain, 2)
        assert box.shape == "box" and box.contains(np.zeros((1, 2)))[0]
        ball = build_domain(from_dict({"domain": {"shape": "ball"}}).domain, 2)
        assert ball.shape == "ball"
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
            from_dict({"initial": {"kind": "steps"}})

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


# a small d = 1 simulation, domain and clock set
SIMULATE_8 = ("--N", "8", "--d", "1", "--set", "domain.center=[0.5]",
              "--set", "dynamics.t_end=0.002")


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
        pytest.param("dlr-check", ("--set", "dlr.bins=0"), "bins must be at least 1, got 0",
                     id="dlr-no-bin"),
        pytest.param("dlr-check", ("--set", "dlr.burn=-5"), "burn must be at least 0, got -5",
                     id="dlr-negative-burn"),
        pytest.param("surface-table", ("--N", "4", "--workers", "-1"),
                     "workers must be >= 0", id="table-negative-workers"),
        pytest.param("simulate", (*SIMULATE_8, "--set", "dynamics.dt=-0.01"),
                     "dt must be positive and finite, got -0.01", id="simulate-dt--0.01"),
        # a number leaf or list element is finite: NaN and Infinity are
        # refused with the key, not run to a nan clock or a traceback
        *(pytest.param("simulate", (*SIMULATE_8, "--set", f"dynamics.dt={dt}"),
                       f"config key 'dynamics.dt' takes a finite number, got {value}",
                       id=f"simulate-dt-{dt}")
          for dt, value in (("NaN", "nan"), ("Infinity", "inf"))),
        *(pytest.param("simulate", ("--N", "8", "--d", "1", "--set", "domain.center=[0.5]",
                                    "--set", f"dynamics.t_end={t}"),
                       f"config key 'dynamics.t_end' takes a finite number, got {value}",
                       id=f"simulate-t-end-{t}")
          for t, value in (("NaN", "nan"), ("Infinity", "inf"))),
        *(pytest.param("pde-solve", ("--d", "1", "--set", "domain.center=[0.5]",
                                     "--set", f"pde.t_end={t}"),
                       f"config key 'pde.t_end' takes a finite number, got {value}",
                       id=f"pde-t-end-{t}")
          for t, value in (("NaN", "nan"), ("Infinity", "inf"))),
        # a PDE run ends at a positive time, not at an empty recording window
        *(pytest.param("pde-solve", ("--d", "1", "--set", "domain.center=[0.5]",
                                     "--set", f"pde.t_end={t}"),
                       f"config key 'pde.t_end' must be positive, got {t}",
                       id=f"pde-t-end-{t}")
          for t in ("-1", "0", "-0.5")),
        # -1 is adaptive burn-in; no other negative count stands for it
        pytest.param("sample-gibbs", ("--N", "4", "--set", "sampler.sweeps=64",
                                      "--set", "sampler.burn_in=-5"),
                     "config key 'sampler.burn_in' takes -1 (adaptive) or a sweep count, got -5",
                     id="gibbs-burn-in--5"),
        pytest.param("hydro", ("--d", "1", "--set", "domain.center=[0.5]",
                               "--set", "hydro.times=[NaN]", "--set", "hydro.realizations=2"),
                     "config key 'hydro.times[0]' takes a finite number, got nan",
                     id="nan-checkpoint-time"),
        # the PDE spacing is refused, not rounded to an infinite node count
        # nor, in hydro, replaced by 1 / (4 max N)
        pytest.param("pde-solve", ("--d", "1", "--set", "domain.center=[0.5]",
                                   "--set", "pde.spacing=0"),
                     "spacing must be positive and finite, got 0", id="pde-zero-spacing"),
        pytest.param("hydro", ("--d", "1", "--set", "domain.center=[0.5]",
                               "--set", "pde.spacing=0", "--set", "hydro.scales=[8]",
                               "--set", "hydro.times=[0.002]", "--set", "hydro.realizations=2"),
                     "spacing must be positive and finite, got 0", id="hydro-zero-spacing"),
        pytest.param("certify-potential", ("--set", "potential.a=3"),
                     "potential kind 'gaussian' takes no keys ['a']", id="gaussian-a"),
        pytest.param("pde-solve", ("--set", "domain.radius=0.3"),
                     "domain shape 'box' takes no keys ['radius']", id="box-radius"),
        pytest.param("simulate", (*SIMULATE_8, "--set", "initial.amp=0.8"),
                     "initial kind 'zero' takes no keys ['amp']", id="zero-profile-amp"),
        pytest.param("pde-solve", ("--d", "2", "--set", "domain.shape=polytope"),
                     "unknown domain shape 'polytope', expected one of ['box', 'ball']",
                     id="polytope"),
        # a box takes one positive side per axis, a ball a positive radius
        *(pytest.param("pde-solve", ("--d", "2", "--set", f"domain.sides={sides}"),
                       "box domain needs 2 sides, one per axis", id=f"sides-{sides}")
          for sides in ("[1.0]", "[1.0,1.0,1.0]")),
        pytest.param("pde-solve", ("--d", "2", "--set", "domain.sides=[1.0,-0.5]"),
                     "box sides must be positive and finite, got (1.0, -0.5)",
                     id="negative-side"),
        pytest.param("simulate", ("--N", "16", "--d", "2", "--set", "domain.shape=ball",
                                  "--set", "domain.radius=-0.45"),
                     "ball radius must be positive and finite, got -0.45",
                     id="negative-radius"),
        *(pytest.param("surface-table", ("--d", "1", "--N", "4", "--set", f"surface.grid={grid}"),
                       f"config key 'surface.grid' takes [lo, hi, count], got {got}",
                       id=f"grid-{grid}")
          for grid, got in (("[-0.5,0.5]", "[-0.5, 0.5]"), ("[-0.5,0.5,3,7]", "[-0.5, 0.5, 3, 7]"))),
        pytest.param("hydro", ("--d", "1", "--set", "domain.center=[0.5]",
                               "--set", "hydro.times=[]", "--set", "hydro.realizations=2"),
                     "need at least one checkpoint time", id="no-checkpoint-time"),
        # the probe's second tilt has the first one's axes, each finite,
        # not a broadcast of a d = 1 chain against a d = 2 one
        *(pytest.param("convexity-probe", ("--N", "4", "--u", u, f"--v={v}",
                                           "--set", "surface.sweeps=64"),
                       f"--v takes one finite number per axis of the tilt (d = {d}), got {v!r}",
                       id=f"probe-v-{v}")
          for u, d, v in (("1", 1, "1,2"), ("1,0", 2, "1"), ("1", 1, "nan"),
                          ("1", 1, "inf"))),
        # keys that no run set: pde-solve never wrote the snapshots of pde.record
        pytest.param("sample-gibbs", ("--N", "4", "--set", "sampler.sweeps=64",
                                      "--set", "sampler.thin=2"),
                     "no config key 'sampler.thin'", id="no-thin"),
        pytest.param("simulate", (*SIMULATE_8, "--set", "dynamics.noise_scale=0"),
                     "no config key 'dynamics.noise_scale'", id="no-noise-scale"),
        pytest.param("pde-solve", ("--d", "1", "--set", "domain.center=[0.5]",
                                   "--set", "pde.record=[0.01]"),
                     "no config key 'pde.record'", id="no-record"),
        # a value of another type than its key's default, not a TypeError in the run
        pytest.param("certify-potential", ("--pot", "cosine", "--set", "potential.a=[1,2]"),
                     "config key 'potential.a' takes a number, got list", id="list-for-number"),
        pytest.param("sample-gibbs", ("--N", "4", "--set", "sampler.sweeps=abc"),
                     "config key 'sampler.sweeps' takes an int, got str", id="str-for-int"),
        pytest.param("sample-gibbs", ("--N", "4", "--set", "sampler.sweeps=64.5"),
                     "config key 'sampler.sweeps' takes an int, got float", id="float-for-int"),
        pytest.param("simulate", ("--N", "8", "--d", "1", "--set", "domain.center=[0.5]",
                                  "--set", "dynamics.t_end=[1]"),
                     "config key 'dynamics.t_end' takes a number, got list", id="list-for-time"),
        pytest.param("pde-solve", ("--d", "1", "--set", "domain.center=[0.5]",
                                   "--set", "pde.spacing=null"),
                     "config key 'pde.spacing' takes a number, got NoneType",
                     id="null-for-number"),
        # a list's elements follow the scalar rule: ints where the default
        # holds ints, numbers elsewhere
        pytest.param("hydro", ("--d", "1", "--set", "domain.center=[0.5]",
                               "--set", "hydro.scales=[8.5]", "--set", "hydro.times=[0.002]",
                               "--set", "hydro.realizations=2"),
                     "config key 'hydro.scales[0]' takes an int, got float",
                     id="float-in-int-list"),
        pytest.param("surface-table", ("--d", "1", "--N", "4", "--set", "surface.sweeps=64",
                                       "--set", "surface.grid=[-0.5,0.5,3.7]"),
                     "config key 'surface.grid[2]' takes an int, got float",
                     id="float-grid-count"),
        pytest.param("hydro", ("--d", "1", "--set", "domain.center=[0.5]",
                               "--set", "hydro.scales=[[8]]"),
                     "config key 'hydro.scales[0]' takes an int, got list",
                     id="nested-list"),
        pytest.param("hydro", ("--d", "1", "--set", "domain.center=[0.5]",
                               "--set", "hydro.scales=[true]"),
                     "config key 'hydro.scales[0]' takes an int, got bool",
                     id="bool-in-int-list"),
        pytest.param("simulate", ("--N", "8", "--d", "1", "--set", 'domain.center=["a"]'),
                     "config key 'domain.center[0]' takes a number, got str",
                     id="str-in-number-list"),
    ])
    def test_degenerate_counts_exit_one(self, cli_env, capsys, command, flags, message):
        # refused before any sampling, with no artifact written
        assert run_cli(command, *flags, "--out", "root") == 1
        assert message in capsys.readouterr().err
        assert not any((cli_env / "root").glob("*/*.csv"))

    @pytest.mark.parametrize("command, key", [("dlr-check", "dlr.thin=0")])
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


class TestCliKindKeys:
    def test_split_bump_is_the_stock_bump(self, cli_env, capsys):
        run_cli("certify-potential", "--pot", "split_bump", "--out", "root")
        assert "potential split_bump(a=1,w=0.5,M=2):" in capsys.readouterr().out
        _, meta = read_csv(next((cli_env / "root").iterdir()) / "certify.csv")
        assert meta["potential"] == make_split_bump().name

    def test_kind_and_its_key_set_in_either_order(self, cli_env, capsys):
        keys = ("--set", "potential.kind=cosine", "--set", "potential.a=2.0")
        codes = [run_cli("certify-potential", *order, "--out", "root")
                 for order in (keys, (*keys[2:], *keys[:2]))]
        assert codes[0] == codes[1] != 1
        assert "cosine" in capsys.readouterr().out
        (run,) = (cli_env / "root").iterdir()  # one config, one run directory
        assert read_csv(run / "certify.csv")[1]["potential"] == "cosine(a=2,kappa=1)"


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

    def test_one_node_table_refused_as_a_flux(self, cli_env, capsys):
        # surface-table writes a one-node table; hydro refuses it as a flux,
        # naming the node count, before its monotonicity probe reduces an
        # empty difference
        code = run_cli("surface-table", "--d", "1", "--N", "4", "--out", "table",
                       "--set", "surface.sweeps=64", "--set", "surface.grid=[0,0,1]")
        assert code == 0
        csv = next((cli_env / "table").iterdir()) / "surface_table.csv"
        code = run_cli("hydro", "--d", "1", "--set", "domain.center=[0.5]",
                       "--set", f"pde.flux={csv}", "--set", "hydro.scales=[8]",
                       "--set", "hydro.times=[0.002]", "--set", "hydro.realizations=2",
                       "--out", "root")
        assert code == 1
        err = capsys.readouterr().err
        assert "flux table needs at least two nodes on every axis, got (1,)" in err
        assert not (cli_env / "root").exists()

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

    @pytest.mark.parametrize("u, names", [
        ("0.5", ["bond_variance[0]", "eta_vprime_identity"]),
        ("0.5,0", ["bond_variance[0]", "bond_variance[1]", "eta_vprime_identity"]),
    ], ids=["d1", "d2"])
    def test_sample_gibbs_collects_once(self, cli_env, capsys, monkeypatch, u, names):
        # every row is read from one collection of sampler.sweeps sweeps
        calls = []
        inner = GibbsSampler.collect
        monkeypatch.setattr(
            GibbsSampler, "collect",
            lambda self, sweeps, obs: (calls.append(sweeps), inner(self, sweeps, obs))[1],
        )
        code = run_cli("sample-gibbs", "--u", u, "--N", "4", "--set", "sampler.sweeps=64",
                       "--set", "sampler.burn_in=10", "--out", "root")
        assert code == 0
        assert calls == [64]
        cols, _ = read_csv(next((cli_env / "root").iterdir()) / "gibbs.csv")
        assert list(cols["name"]) == names
        out = capsys.readouterr().out
        assert all(f"{name} = " in out and "(ess " in out for name in names)

    def test_readme_run_artifacts_are_pinned(self, cli_env, capsys):
        # sha256 of the README runs' artifacts: a refactor that changes no
        # output leaves every byte of them as it was
        runs = [
            ("sample-gibbs", "--u", "0.5", "--N", "8", "--seed", "5",
             "--set", "sampler.sweeps=2000"),
            ("surface-table", "--d", "1", "--set", "surface.grid=[-0.5,0.5,5]"),
            ("hydro", "--set", "hydro.scales=[8,16]", "--set", "hydro.realizations=8"),
            ("simulate", "--N", "16", "--d", "1", "--set", "initial.kind=bump",
             "--set", "dynamics.t_end=0.02"),
            ("decompose-flux", "--u", "0.5", "--N", "16"),
            ("pde-solve", "--d", "1", "--set", "domain.center=[0.5]", "--set", "initial.kind=bump",
             "--set", "initial.center=[0.5]", "--set", "pde.t_end=0.05"),
            ("certify-potential", "--pot", "cosine"),
            ("surface-tension", "--u", "1", "--N", "16"),
            ("convexity-probe", "--u", "1", "--v=-1"),
            # window 1 has no interior-interior bond: V is summed over the
            # crossing bonds of the domain's closure
            ("dlr-check", "--u", "0.5"),
        ]
        for argv in runs:
            assert run_cli(*argv, "--out", "readme") == 0
        want = {
            # every row from one collection: the identity row reads the
            # sweeps of bond_variance[0], so on the Gaussian it is that row + u^2
            "sample-gibbs-8df82b2c79ee/gibbs.csv":
                "e9bda852b1e98c9239cc187bb7a768b182d94d2f1a1cb379df0ef99d758b8d0f",
            "surface-table-067cc2011ae9/surface_table.csv":
                "2369490ae8f91609e865b2c9f3de3c10b25418009d5db64364dbb1633c7ee499",
            "hydro-b938ab276fa0/convergence.csv":
                "6a73ac0d2dfa5237631ef2cb699dfa030bc48108be99c8210274d070f1dbd939",
            "hydro-b938ab276fa0/gap_vs_N.dat":
                "3bc6629b518b1c8040cd05134ca629103e8c735f0668f567a6f2b79175d6d949",
            "simulate-d6015554076a/final_height.csv":
                "44c019e93a492dffc59f31c0f2cad60c63ad5c18b3b0a10a0b1b1d1f8a3f05d5",
            "simulate-d6015554076a/energy.csv":
                "39e7dc6cd6717bdd261715b7f2dcd104cbd6444e841be0861bfc444d900768f7",
            "decompose-flux-cb60e741bc24/flux.csv":
                "f81fca38f04af0231244d4fc584e35b7f408063a4b7092f4aeb1e435ce05f003",
            "pde-solve-f7773c2e6e75/pde_final.csv":
                "7d26e167ff82588968ec68d6e922adb880adaea730180a9a977b3827d40bd45b",
            "certify-potential-0494c92083a4/certify.csv":
                "ec12f4e7425e8d0b2efa0dfde178fd7fbeb67d41f033537913d0cb92f99f381d",
            "surface-tension-937412874076/surface.csv":
                "8ad1aab2474a8b3328c71e1ea4aba0361870694694dea3f03f58ad1fc2c3d33c",
            "convexity-probe-37225a926e3f/convexity.csv":
                "a664c695df21b6ec96125ec2240fa859a383b2a235c9e5be9a087f13c6843272",
            "dlr-check-cb60e741bc24/dlr.csv":
                "dd5857732907bd86a31c2a0681e497048ce661c238d30cadeb5acff08c234e3b",
        }
        root = cli_env / "readme"
        got = {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.suffix in (".csv", ".dat")
        }
        assert got == want
        cols, _ = read_csv(root / "sample-gibbs-8df82b2c79ee/gibbs.csv")
        assert cols["value"][1] == pytest.approx(cols["value"][0] + 0.5**2, abs=1e-12)

        def data_rows(name):
            lines = (root / name).read_bytes().splitlines(keepends=True)
            return hashlib.sha256(b"".join(x for x in lines if not x.startswith(b"#"))).hexdigest()

        # the table's data rows as `surface-tension --u 1 --table` wrote
        # them, before the table had a command of its own
        assert data_rows("surface-table-067cc2011ae9/surface_table.csv") == (
            "f225a5b881141f8eb948e79821e43b4fd0ef0f0b644849abd7c2ef31e30e246a")
        # the bump's profile and RKL2 plan as they were while pde.record
        # could re-segment the plan
        pde_final = "pde-solve-f7773c2e6e75/pde_final.csv"
        assert data_rows(pde_final) == (
            "28d7544735faf1e8c873d29e4b0018ddde4e21578184e3529d467c2e3bf1e3b3")
        assert b"# steps=264\n" in (root / pde_final).read_bytes()
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


# every config leaf, dotted, with its default value; a kind section has
# its kind's leaves only
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
    dotted key.  A kind section is logged where its builder takes it."""

    def __init__(self, obj, log, prefix=""):
        self._obj, self._log, self._prefix = obj, log, prefix

    def __getattr__(self, name):
        value = getattr(self._obj, name)
        key = self._prefix + name
        if dataclasses.is_dataclass(value):
            return _Reads(value, self._log, key + ".")
        if key not in KIND_SECTIONS:
            self._log.add(key)
        return value


def _declared_leaves(entries) -> set:
    """The leaves of declared config entries: a kind section stands whole
    for its leaves, a fixed section for each of its leaves."""
    return {
        entry if entry in KIND_SECTIONS else leaf
        for entry in entries for leaf in LEAVES
        if leaf == entry or leaf.startswith(entry + ".")
    }


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
        assert len(LEAVES) == 32
        for key, value in LEAVES.items():
            args = build_parser().parse_args([command, "--set", f"{key}={json.dumps(value)}"])
            if _reads(command, key):
                _load(args)
            else:
                with pytest.raises(ConfigError, match=f"never reads config keys \\['{key}'\\]"):
                    _load(args)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_handler_reads_exactly_its_declared_entries(
        self, cli_env, capsys, monkeypatch, command
    ):
        seen = set()
        args = build_parser().parse_args([command, *READ_RUNS[command], "--out", "root"])
        cfg, meta, outdir = _load(args)
        sections = {id(getattr(cfg, name)): name for name in KIND_SECTIONS}

        def taking(builder):
            def build(section, *rest):
                seen.add(sections[id(section)])
                return builder(section, *rest)
            return build

        for name in ("potential_from_spec", "build_domain", "build_profile"):
            monkeypatch.setattr(cli, name, taking(getattr(cli, name)))
        COMMANDS[command][1](_Reads(cfg, seen), meta, outdir, args)
        capsys.readouterr()
        assert sorted(k for k in seen if not _reads(command, k)) == []
        # every leaf of a declared fixed section is read, not just one
        assert sorted(_declared_leaves(COMMANDS[command][2]) - seen) == []

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

    @pytest.mark.parametrize(
        "command", ["surface-tension", "surface-table", "convexity-probe", "decompose-flux"])
    def test_chain_commands_refuse_sampler_sweeps(self, cli_env, capsys, command):
        # their chains run surface.sweeps; of the sampler section they read
        # only step and burn_in
        assert run_cli(command, "--set", "sampler.sweeps=5", "--out", "root") == 1
        assert (f"{command} never reads config keys ['sampler.sweeps']"
                in capsys.readouterr().err)
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
        rows = _readme_table(readme, "| command | short flags | config keys read |")
        assert [name for name, _, _ in rows] == list(COMMANDS)
        for name, flags, keys in rows:
            taken = {flag for flag, (key, _) in FLAGS.items() if _reads(name, key)}
            assert set(flags.split()) - {"--v"} == taken
            assert keys.split(", ") == list(COMMANDS[name][2])
        # the table of each kind's keys and defaults, default kind first
        listed = {}
        for names, kind, keys in _readme_table(readme, "| section | kind | keys and defaults |"):
            params = dict(item.split("=", 1) for item in keys.split(", ") if item)
            for name in names.split(", "):
                listed.setdefault(name, []).append(
                    (kind, {k: json.loads(v) for k, v in params.items()}))
        want = {}
        for name, (key, default, table) in KIND_SECTIONS.items():
            kinds = [default, *(k for k in table if k != default)]
            want[name] = [(kind, {k: v for k, v in to_dict(from_dict({name: {key: kind}}))[name]
                                  .items() if k != key}) for kind in kinds]
        assert listed == want


def _readme_table(readme: str, header: str) -> list:
    """The body rows of the README table under ``header``, as cells
    without backticks."""
    lines = readme.split("\n" + header + "\n", 1)[1].splitlines()[1:]
    return [[cell.replace("`", "").strip() for cell in line.split("|")[1:-1]]
            for line in itertools.takewhile(lambda line: line.startswith("|"), lines)]
