"""One benchmark iteration in a fresh interpreter.

Run by ``run.py``; prints one JSON object.  Set-up time counts from the
parent's ``time.monotonic()`` just before it started this process
(CLOCK_MONOTONIC is shared by all processes on Linux), so it covers
interpreter start, ``import heightlab`` and making the inputs.  Wall time
covers the workload's calls into heightlab, from the first to the last,
including any lazy imports they trigger; the output checks run after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def reference_loop(reps: int = 8000) -> float:
    """Seconds for a fixed job of small NumPy operations and Python overhead.

    heightlab's hot paths are made of the same kind of work, so the ratio
    of a workload's wall time to this loop's, both timed in one process
    moments apart, cancels most of the drift in the speed of a shared
    machine.  The workload itself is not touched.
    """
    import numpy as np

    t = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(0))
    a = np.zeros(64)
    for _ in range(reps):
        a = 0.5 * np.roll(a, 1) - 0.25 * a + rng.standard_normal(64)
    return time.perf_counter() - t


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--iteration", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args()

    src = (Path.cwd() / "src").resolve()
    import heightlab

    if Path(heightlab.__file__).resolve().parent.parent != src:
        print(f"heightlab imported from {heightlab.__file__}, not {src}", file=sys.stderr)
        return 2

    import layers
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.iteration, args.workdir, args.size)
    setup_s = time.monotonic() - args.t0

    result = {"setup_s": setup_s}
    if args.trace:
        tr = spans.Tracer()
        inputs.pot = tr.wrap_potential(inputs.pot)
        with layers.instrument(tr):
            t = time.perf_counter()
            with tr.span("bench"):
                outputs = wl.run(inputs)
            wall_s = time.perf_counter() - t
        result["layers"] = layers.layer_metrics(tr, wall_s)
        result["node_s"] = layers.node_seconds(tr)
        checks = [layers.consistency(tr, wall_s)]
        if args.spans:
            Path(args.spans).write_text(json.dumps(tr.dump()))
    else:
        ref_before = reference_loop()
        t = time.perf_counter()
        outputs = wl.run(inputs)
        wall_s = time.perf_counter() - t
        result["ref_s"] = 0.5 * (ref_before + reference_loop())
        checks = []
    checks = wl.check(inputs, outputs) + checks
    result["wall_s"] = wall_s
    result["checks"] = [(name, bool(ok), detail) for name, ok, detail in checks]
    result["info"] = wl.info(inputs, outputs) if wl.info else {}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
