"""Smoke runs of the study scripts in ``scripts/``, each at a small size in
a fresh interpreter, so that they cannot drift from the package unseen."""

import os
import re
import subprocess
import sys
from pathlib import Path

import heightlab
from heightlab.io import read_csv

SRC = Path(heightlab.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"
FLOAT = r"-?\d+\.\d+"


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_variance_sweep_cosine(tmp_path):
    out = tmp_path / "sweep.csv"
    lines = run_script(
        "variance_sweep_cosine.py", "--N", "4", "--span", "1", "--sweeps", "64",
        "--out", str(out), cwd=tmp_path,
    )
    assert lines[0] == f"9 tilts -> {out}"
    assert re.fullmatch(rf"variance range: \[{FLOAT}, {FLOAT}\]", lines[1])
    assert re.fullmatch(rf"max/min ratio: {FLOAT}", lines[2])
    assert len(lines) == 3
    cols, _ = read_csv(out)
    assert len(cols["u_0"]) == 9 and sum(cols["on_hull"]) == 8


def test_calibrate_energy_bound(tmp_path):
    lines = run_script(
        "calibrate_energy_bound.py", "--N", "8", "--seeds", "2", "--t-end", "0.002",
        cwd=tmp_path,
    )
    assert re.fullmatch(r"N=8 replicas=2 dt=\S+ t_end=0\.002", lines[0])
    assert re.fullmatch(rf"lhs slope \(least squares\): {FLOAT}", lines[1])
    assert re.fullmatch(rf"max lhs/\(1\+t\): +{FLOAT}", lines[2])
    assert re.fullmatch(rf"suggested K = 1\.2 \* slope, rounded up: {FLOAT}", lines[3])
    assert len(lines) == 4
    assert list(tmp_path.iterdir()) == []  # it prints and writes nothing
