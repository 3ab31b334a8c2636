"""Tests of the benchmark itself: metric coverage and failing checks.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check(checks, name):
    (ok,) = [ok for n, ok, _ in checks if n == name]
    return ok


def test_workload_names_agree():
    assert set(run.WORKLOAD_NAMES) == set(wl.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        assert f" {m['name']} " in proc.stdout  # human-readable line too
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert " wall_s " in proc.stdout and " fail_ratio " in proc.stdout
    assert '"commit"' in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    proc = _bench("--workload", "hydro_1d", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# each output check passes on the real output and fails on a corrupted one


def _run(name, tmp_path, seed=0):
    w = wl.WORKLOADS[name]
    inp = w.setup(seed, 0, tmp_path, "tiny")
    return w, inp, w.run(inp)


@pytest.fixture(scope="module")
def table_run(tmp_path_factory):
    return _run("surface_table", tmp_path_factory.mktemp("table"))


def test_surface_checks_pass_on_clean_output(table_run):
    w, inp, out = table_run
    assert all(ok for _, ok, _ in w.check(inp, out))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("sigma_zero_at_anchor", lambda t: t.sigma.__setitem__((1, 1), 1e-3)),
        # one node's sign flipped
        ("dsigma_antisymmetric", lambda t: t.dsigma.__setitem__((2, 2), -t.dsigma[2, 2])),
        ("dsigma_zero_on_axes", lambda t: t.dsigma.__setitem__((1, 2, 0), 0.5)),
        ("monotone", lambda t: t.dsigma.__setitem__((2, 1, 0), t.dsigma[0, 1, 0])),
    ],
)
def test_surface_check_fails_on_corrupted_table(table_run, name, corrupt):
    w, inp, out = table_run
    table = out["table"]
    saved = (table.sigma.copy(), table.dsigma.copy())
    try:
        corrupt(table)
        assert not _check(w.check(inp, out), name)
    finally:
        table.sigma[...], table.dsigma[...] = saved


def test_csv_roundtrip_check_fails_on_altered_file(table_run, tmp_path):
    w, inp, out = table_run
    lines = inp.csv.read_text().splitlines()
    last = lines[-1].split(",")
    last[-1] = repr(float(last[-1]) * (1 + 1e-9) + 1e-12)
    bad = tmp_path / "altered.csv"
    bad.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")
    inp2 = wl.TableInputs(inp.pot, inp.N, inp.axes, inp.sweeps, inp.seed, bad)
    assert not _check(w.check(inp2, out), "csv_roundtrip_exact")


def test_gibbs_chain_checks(tmp_path):
    w, inp, out = _run("gibbs_chain", tmp_path)
    assert all(ok for _, ok, _ in w.check(inp, out))
    shifted = dict(out, grad=out["grad"] + 10 * wl.Z_GATE * out["grad_err"].max())
    assert not _check(w.check(inp, shifted), "reconstructs_grad_sigma")
    dec = out["decomposition"]
    dec.A_sample_min = dec.A_sample_min - 0.5
    assert not _check(w.check(inp, out), "samples_in_bounds")


def test_hydro_gap_check_fails_when_gap_order_swapped(tmp_path):
    w, inp, out = _run("hydro_1d", tmp_path)
    assert all(ok for _, ok, _ in w.check(inp, out))
    rows = out["convergence"].rows
    rows[0]["mean_sq_gap"], rows[1]["mean_sq_gap"] = (
        rows[1]["mean_sq_gap"], rows[0]["mean_sq_gap"],
    )
    assert not _check(w.check(inp, out), "gaps_drop_2se")


def _table_inputs(tmp_path, table):
    w = wl.WORKLOADS["hydro_table"]
    inp = w.setup(0, 0, tmp_path, "tiny")
    table.to_csv(inp.table_csv)
    return w, inp


def test_hydro_table_checks_pass_on_closed_form_table(tmp_path):
    w, inp = _table_inputs(tmp_path, wl.gaussian_table())
    assert all(ok for _, ok, _ in w.check(inp, w.run(inp)))


def test_hydro_table_check_fails_on_scaled_flux(tmp_path):
    table = wl.gaussian_table()
    table.dsigma *= 1.1
    w, inp = _table_inputs(tmp_path, table)
    assert not _check(w.check(inp, w.run(inp)), "table_flux_matches_closed_form")


def test_hydro_table_checks_fail_when_flux_leaves_the_table(tmp_path):
    w, inp = _table_inputs(tmp_path, wl.gaussian_table(half_width=0.25, nodes=3))
    checks = w.check(inp, w.run(inp))
    assert not _check(checks, "no_flux_range_exceeded")
    assert not _check(checks, "gaps_drop_2se")


# ---------------------------------------------------------------------------
# tracer


def test_self_times_sum_to_root_and_leaves_count_elements():
    tr = spans.Tracer()
    f = tr.wrap_leaf(np.square)
    with tr.span("bench"):
        with tr.span("a"):
            f(np.ones(7))
        f(np.ones(3))
    wall = tr.spans[0][2] - tr.spans[0][1]
    assert tr.leaf_evals == 10
    assert sum(tr.self_times().values()) == pytest.approx(wall, rel=1e-9)
    assert _check([layers.consistency(tr, wall)], "trace_self_times_sum_to_wall")


def test_consistency_check_fails_on_overlapping_spans():
    tr = spans.Tracer()
    tr.spans = [["bench", 0.0, 1.0, -1, 0.0], ["a", 0.0, 0.8, 0, 0.0], ["b", 0.2, 1.0, 0, 0.0]]
    assert not _check([layers.consistency(tr, 1.0)], "trace_self_times_sum_to_wall")


def test_instrument_restores_the_program():
    from heightlab import gibbs, hydro, surface

    before = (hydro.solve, surface.potential_from_spec, gibbs.GibbsSampler.__dict__["prepare"],
              surface.SurfaceTensionTable.__dict__["from_csv"])
    with layers.instrument(spans.Tracer()):
        assert hydro.solve is not before[0]
    after = (hydro.solve, surface.potential_from_spec, gibbs.GibbsSampler.__dict__["prepare"],
             surface.SurfaceTensionTable.__dict__["from_csv"])
    assert after == before
