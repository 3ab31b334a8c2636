"""heightlab benchmark: run one workload (or all) and print every metric.

Usage, from the root of a checkout:

    python3 bench/run.py --workload surface_table --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 0 --seconds 25

Each iteration is a fresh single-threaded interpreter (``worker.py``) that
imports heightlab from ``./src``, makes its inputs from ``(seed,
iteration)``, runs the workload and checks the outputs.  Iterations repeat
until ``--seconds`` is used up (at least ``MIN_ITERATIONS``); metrics are
medians over iterations.  Each iteration times a fixed reference loop
just before and after its workload (``worker.reference_loop``).
``wall_ref_ratio`` is the median over iterations of wall time divided by
that iteration's reference time, and ``setup_s`` the median of set-up
time scaled by ``REF_S`` over the same reference time; pairing each
reading with a reference timed in the same process moments apart cancels
most drift in the speed of a shared machine.  ``--trace 1`` alternates an
untraced and a traced iteration on the same inputs and reports the
per-layer metrics; tracing overhead is the median traced minus untraced
wall time.

Human-readable lines go first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``.
Per-run records and spans are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("surface_table", "gibbs_chain", "hydro_table", "hydro_1d")
# Dominant layer of each workload and its share of the traced wall time as
# measured when the benchmark was specified, at larger workload sizes.
EXPECTED_SHARE = {
    "surface_table": ("share.gibbs_prepare", 0.35),
    "gibbs_chain": ("share.gibbs_post_collect", 0.90),
    "hydro_table": ("share.pde_solve", 0.80),
    "hydro_1d": ("share.em_step", 0.85),
}
# Reference-loop seconds that ``setup_s`` is scaled to: the median
# reference time of the first baseline (Intel Xeon, shared 2-vCPU VM).
REF_S = 0.15
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, crash)."""


# ---------------------------------------------------------------------------
# environment


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    """HEAD of the checkout if it is a git repository (not a parent's); else unknown."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "matplotlib": _version("matplotlib"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {v: "1" for v in THREAD_VARS},
        "seed": seed,
        "commit": _commit(root),
    }


# ---------------------------------------------------------------------------
# iterations


def run_iteration(root, workload, seed, k, trace, size, spans_path=None) -> dict:
    work = HERE / "results" / "work"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--iteration", str(k),
        "--trace", str(trace), "--size", size, "--workdir", str(work),
    ]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=root, env=env, capture_output=True, text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} iteration {k} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root, workload, seed, seconds, trace, size) -> dict:
    """Repeat iterations for ``seconds``; return raw per-iteration records."""
    untraced, traced = [], []
    start = time.monotonic()
    k = 0
    results = HERE / "results"
    while True:
        untraced.append(run_iteration(root, workload, seed, k, 0, size))
        if trace:
            spans = results / f"{workload}-s{seed}-k{k}-spans.json"
            traced.append(run_iteration(root, workload, seed, k, 1, size, spans))
        k += 1
        elapsed = time.monotonic() - start
        floor = MIN_TRACED_PAIRS if trace else MIN_ITERATIONS
        if k >= floor and elapsed * (k + 1) / k > seconds:
            return {"untraced": untraced, "traced": traced, "elapsed_s": elapsed}


def _median(records, key):
    return statistics.median(r[key] for r in records)


def _deciles(xs):
    """p10 ... p90 by linear interpolation (numpy's default); 0 when empty."""
    if len(xs) < 2:
        return [float(sum(xs))] * 9
    return statistics.quantiles(xs, n=10, method="inclusive")


def summarize(workload, raw, trace) -> dict:
    untraced, traced = raw["untraced"], raw["traced"]
    records = untraced + traced
    checks = [c for r in records for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    wall = _median(untraced, "wall_s")
    e2e = {
        "wall_ref_ratio": statistics.median(r["wall_s"] / r["ref_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] * REF_S / r["ref_s"] for r in untraced),
        "peak_rss_mb": _median(untraced, "peak_rss_mb"),
    }
    extra = {
        "wall_s": wall,
        "setup_raw_s": _median(untraced, "setup_s"),
        "fail_ratio": len(failed) / len(checks),
        "iterations": len(untraced),
    }
    if workload == "surface_table":
        extra["time_to_err_s"] = statistics.median(
            r["wall_s"] * r["info"]["mean_dsigma_err2"] / 1e-3**2 for r in untraced
        )
    out = {"end_to_end": e2e, "extra": extra, "checks": checks, "failed": failed}
    if trace:
        layer = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        nodes = [s for r in traced for s in r["node_s"]]
        deciles = _deciles(nodes)
        layer["surface.node_s.p50"] = deciles[4]
        layer["surface.node_s.p60"] = deciles[5]
        layer["surface.node_samples"] = float(len(nodes))
        layer["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)
        )
        out["per_layer"] = layer
    return out


# ---------------------------------------------------------------------------
# reporting


def _line(workload, name, value, unit, note=""):
    print(f"{workload:<14} {name:<28} {value:>16.6g} {unit:<8} {note}".rstrip())


def report(workload, summary, units, trace):
    for name, value in summary["end_to_end"].items():
        _line(workload, name, value, units[name])
    extra = summary["extra"]
    _line(workload, "wall_s", extra["wall_s"], "s", "median over iterations; not gated")
    _line(workload, "setup_raw_s", extra["setup_raw_s"], "s", "setup_s before scaling; not gated")
    _line(workload, "fail_ratio", extra["fail_ratio"], "ratio",
          f"({len(summary['failed'])} of {len(summary['checks'])} checks failed)")
    if "time_to_err_s" in extra:
        _line(workload, "time_to_err_s", extra["time_to_err_s"], "s",
              "wall_s * mean(dsigma_err^2) / (1e-3)^2")
    _line(workload, "iterations", extra["iterations"], "count")
    if trace:
        layer = summary["per_layer"]
        key, expected = EXPECTED_SHARE[workload]
        for name in sorted(layer):
            note = ""
            if name == key:
                verdict = "matches" if abs(layer[name] - expected) <= 0.10 else "MISMATCH"
                note = f"dominant layer; specified ~{expected:.2f}: {verdict}"
            _line(workload, name, layer[name], units[name], note)
    seen = {}
    for name, ok, detail in summary["checks"]:
        seen.setdefault(name, []).append((ok, detail))
    for name, results in seen.items():
        n_ok = sum(ok for ok, _ in results)
        last = results[-1][1]
        print(f"{workload:<14} check {name:<34} {n_ok}/{len(results)} passed  {last}")


def run_one(root, spec, env, workload, seed, seconds, trace, size) -> dict:
    raw = measure(root, workload, seed, seconds, trace, size)
    summary = summarize(workload, raw, trace)
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    values = summary[section]
    if set(values) != set(declared):
        raise BenchError(
            f"{section} metrics {sorted(set(values) ^ set(declared))} "
            "differ between the benchmark and BENCHMARK.json"
        )
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    report(workload, summary, units, trace)
    record = {
        "workload": workload,
        "trace": trace,
        "size": size,
        "environment": env,
        "summary": {k: v for k, v in summary.items() if k != "failed"},
        "iterations": raw,
    }
    out = HERE / "results" / f"{workload}-s{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1))
    return {
        "correct": not summary["failed"],
        "attempted": len(summary["checks"]),
        "failed": len(summary["failed"]),
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_NAMES))
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")

    root = Path.cwd()
    if not (root / "src" / "heightlab" / "__init__.py").is_file():
        print(f"error: no heightlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = environment(root, args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    (HERE / "results").mkdir(exist_ok=True)
    try:
        if not args.all:
            result = run_one(
                root, spec, env, args.workload, args.seed, args.seconds, args.trace, args.size
            )
            print(json.dumps(result))
            return 0
        results = {}
        for name in WORKLOAD_NAMES:
            for trace in (0, 1):
                results[f"{name}/trace{trace}"] = run_one(
                    root, spec, env, name, args.seed, args.seconds, trace, args.size
                )
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "runs": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
