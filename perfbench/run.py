#!/usr/bin/env python3
"""epsarb benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload curved --seed 1 --seconds 20 --trace 0

Workloads: curved, polyhedral, transport, cli (see perfbench/design.json).
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off; ``--trace 1`` prints its per-layer metrics from a traced pass.
Human-readable lines come first; the last line of standard output is the
JSON result.  The program under test is built from ``src/`` of the checkout.

Set-up time is ``import epsarb`` in a fresh interpreter: the median of
SETUP_PROBES separate interpreters and of the one that runs the pass, each
scaled by the calibration kernel that interpreter timed (see worker.py).
Every interpreter gets one BLAS thread, and only one runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def run_child(argv, env, limit_s):
    """Run one child in its own process group; kill the group on overrun."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(limit_s, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{argv[1]} overran the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        fail(f"{' '.join(argv[1:3])} exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "epsarb" / "__init__.py").is_file():
        fail(f"no epsarb sources under {ROOT / 'src'}")
    if not (ROOT / "demos" / "data").is_dir():
        fail(f"no example data under {ROOT / 'demos' / 'data'}")
    if not spec_path.is_file():
        fail(f"no {spec_path.name} at {ROOT}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    worker = [sys.executable, str(HERE / "worker.py")]
    probes = [json.loads(run_child(worker + ["probe"], env, 60.0).strip().splitlines()[-1])
              for _ in range(SETUP_PROBES)]
    limit = RUN_LIMIT_S - (perf_counter() - started)
    out = run_child(worker + [args.workload, str(args.seed), str(args.seconds),
                              str(args.trace), str(out_dir)], env, limit)
    result = json.loads(out.strip().splitlines()[-1])
    imports = [p["import_s"] for p in probes] + [result["import_s"]]

    if args.trace:
        names = spec["per_layer"]
        values = result["metrics"]
    else:
        names = spec["end_to_end"]
        scaled = [p["scaled_import_s"] for p in probes] + [result["scaled_import_s"]]
        values = dict(result, setup_s=statistics.median(scaled))
    metrics = {}
    for m in names:
        value = values.get(m["name"], 0.0 if args.trace else None)
        if value is None:
            fail(f"worker reported no {m['name']}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"BLAS threads: {', '.join(f'{v}=1' for v in THREAD_VARS)}")
    print(f"import epsarb (s, unscaled): {', '.join(f'{t:.4f}' for t in imports)}")
    if not args.trace:
        cal = sorted(result["calibration_ms"])
        print(f"window {result['window_s']:.2f} s, {result['units']} unit(s), "
              f"{result['attempted']} operations of {result['kinds']} kinds; "
              f"tail is p{result['tail_percentile']} of the kinds' medians, "
              f"{result['tail_beyond']} kinds beyond it")
        print(f"calibration kernel: {len(cal)} runs, {cal[0]:.1f} to {cal[-1]:.1f} ms; "
              f"unscaled ops_per_s {result['raw_ops_per_s']:.6f}")
        for kind, (n, ms) in sorted(result["kind_ms"].items()):
            print(f"  {kind:40s} {n:4d} x {ms:12.3f} ms (median, unscaled)")
    print(f"failed_frac {result['failed'] / max(result['attempted'], 1):.6f} "
          f"({result['failed']}/{result['attempted']})")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
