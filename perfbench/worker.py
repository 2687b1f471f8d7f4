"""One pass of a workload in a fresh interpreter; prints one JSON line.

Usage: worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR
       worker.py probe

Started by run.py with PYTHONPATH=src and BLAS pinned to one thread.  The
first thing it does is time ``import epsarb``; ``probe`` only does that and
times the calibration kernel, for one more set-up sample.

Untraced (TRACE 0): runs whole units until SECONDS have passed, always
finishing the first unit, and stopping between operations after that.
Traced (TRACE 1): runs unit 0 three times on the same inputs, rebuilt as
fresh objects each time: untraced to warm up, traced with every epsarb
layer wrapped, and untraced again.  It reports the traced pass's layer
metrics and the overhead of tracing against the last, warm, untraced pass.
"""

import sys
from time import perf_counter

_start = perf_counter()
import epsarb  # noqa: E402
IMPORT_S = perf_counter() - _start
import epsarb.cli  # noqa: E402,F401
CLI_IMPORT_S = perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import tracer as tr  # noqa: E402
from workloads import HERE, WORKLOADS  # noqa: E402


def run_op(op, tracer=None):
    """(latency, failure message or None) of one operation and its check."""
    start = perf_counter()
    try:
        result = op.call() if tracer is None else tracer.call(f"op.{op.kind}", op.call, (), {})
    except Exception as exc:  # an operation that raises is a failed operation
        return perf_counter() - start, f"raised {exc!r}"
    latency = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    try:
        return latency, op.check(result)
    except Exception as exc:  # a result the check cannot read is a failure too
        return latency, f"check raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.enabled = True


def run_unit(ops, samples, failures, index, tracer=None, deadline=None, calibration=None):
    """Run ``ops`` in order; False when ``deadline`` stopped the unit early."""
    for op in ops:
        if deadline is not None and perf_counter() >= deadline:
            return False
        latency, failure = run_op(op, tracer)
        samples.append((op.kind, latency))
        if failure:
            failures.append(f"{op.kind} (unit {index}): {failure}")
        if calibration is not None:
            calibration.maybe_run()
    return True


class Calibration:
    """A fixed kernel of HiGHS LPs (through scipy) and interpreted Python,
    timed between operations about every EVERY_S seconds of a run.

    Machines shared with other work change speed by 10-20 % over tens of
    seconds.  Latencies are scaled by REF_S / (median kernel time of the
    run), i.e. to a machine on which the kernel takes REF_S, so the
    end-to-end numbers follow the program more than the neighbours.
    """

    EVERY_S = 1.0
    REF_S = 0.040

    def __init__(self):
        from scipy.optimize import linprog
        self._linprog = linprog
        g = np.random.default_rng(0)
        self._lps = [(g.normal(size=12), g.normal(size=(10, 12)), g.uniform(1.0, 2.0, 10))
                     for _ in range(20)]
        self.times = []
        self._last = 0.0
        self.run()

    def run(self):
        start = perf_counter()
        for c, a, b in self._lps:
            self._linprog(c, A_ub=a, b_ub=b, bounds=[(-1.0, 1.0)] * 12, method="highs")
        acc = 0.0
        for i in range(100_000):
            acc += i * 0.5
        self._last = perf_counter()
        self.times.append(self._last - start)

    def maybe_run(self):
        if perf_counter() - self._last >= self.EVERY_S:
            self.run()

    def factor(self):
        return self.REF_S / statistics.median(self.times)

    def scaled(self, samples):
        return [(kind, lat * self.factor()) for kind, lat in samples]


def by_kind(samples):
    out = defaultdict(list)
    for kind, latency in samples:
        out[kind].append(latency)
    return out


def kind_medians(samples):
    return sorted(statistics.median(v) for v in by_kind(samples).values())


def ops_per_s(samples):
    """Operations per second of one pass: one operation of each kind, each
    at the median latency it had in this run."""
    medians = kind_medians(samples)
    return len(medians) / sum(medians)


def quantile(samples, frac):
    """Harrell-Davis quantile of the per-kind median latencies.

    One value per kind weights the kinds as one pass does; the smooth
    weights keep the estimate from jumping between neighbouring kinds when
    two of them swap places.
    """
    x = np.array(kind_medians(samples))
    n = x.size
    a, b = frac * (n + 1), (1.0 - frac) * (n + 1)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seed, seconds):
    samples, failures = [], []
    calibration = Calibration()
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while run_unit(wl.unit(seed, index), samples, failures, index,
                   deadline=deadline if index else None, calibration=calibration) \
            and perf_counter() < deadline:
        index += 1
    window = perf_counter() - start
    calibration.run()
    scaled = calibration.scaled(samples)
    tail = quantile(scaled, wl.tail_percentile / 100.0)
    rss = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "ops_per_s": ops_per_s(scaled),
        "op_p50_ms": 1e3 * quantile(scaled, 0.5),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": peak_rss_mb(rss),
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures,
        "units": index + 1,
        "kinds": len(by_kind(samples)),
        "tail_percentile": wl.tail_percentile,
        "tail_beyond": sum(1 for m in kind_medians(scaled) if m > tail),
        "window_s": window,
        "scaled_import_s": IMPORT_S * calibration.factor(),
        "raw_ops_per_s": ops_per_s(samples),
        "calibration_ms": [1e3 * t for t in calibration.times],
        "kind_ms": {k: [len(v), 1e3 * statistics.median(v)] for k, v in by_kind(samples).items()},
    }


def trace(wl, seed, out_dir: Path):
    warm, failures = [], []
    run_unit(wl.unit(seed, 0), warm, failures, 0)
    identical = getattr(wl, "byte_identical", 0)
    traced = []
    if wl.name == "cli":
        ops = wl.unit(seed, 0)
        spans_dir = out_dir / f"cli-spans-{seed}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for old in spans_dir.glob("cli-*.jsonl"):
            old.unlink()
        untraced_command = wl.command
        wl.command = [sys.executable, str(HERE / "cli_child.py"), str(spans_dir)]
        run_unit(ops, traced, failures, 0)
        wl.command = untraced_command
        metrics = defaultdict(float)
        imports = []
        for path in sorted(spans_dir.glob("cli-*.jsonl")):
            head, spans = tr.read(path)
            imports.append(head["meta"]["import_s"])
            for key, val in tr.summarize(spans, head["counters"]).items():
                metrics[key] += val
        metrics["cli.import_s"] = statistics.median(imports)
    else:
        tracer = tr.Tracer()
        tr.install(tracer)
        tracer.enabled = False
        ops = wl.unit(seed, 0)  # inputs are built untraced
        tracer.enabled = True
        run_unit(ops, traced, failures, 0, tracer=tracer)
        tracer.enabled = False
        metrics = defaultdict(float, tr.summarize(tracer.spans, tracer.counters))
        metrics["cli.import_s"] = CLI_IMPORT_S
        tracer.write(out_dir / f"spans-{wl.name}-{seed}.jsonl",
                     {"workload": wl.name, "seed": seed, "import_s": IMPORT_S})
    base = []
    run_unit(wl.unit(seed, 0), base, failures, 0)
    metrics["cli.byte_identical"] = identical
    calls = metrics["solvers.maximize_concave.calls"]
    metrics["solvers.maximize_concave.cap_rate"] = (
        metrics["solvers.maximize_concave.capped"] / calls if calls else 0.0)
    lp_total = metrics["solvers.highs.s"] + metrics["solvers.linprog.s"]
    metrics["solvers.highs.share"] = metrics["solvers.highs.s"] / lp_total if lp_total else 0.0
    metrics["trace.ops_per_s_untraced"] = ops_per_s(base)
    metrics["trace.ops_per_s_traced"] = ops_per_s(traced)
    metrics["trace.overhead_frac"] = ops_per_s(base) / ops_per_s(traced) - 1.0
    return {"metrics": dict(metrics), "attempted": len(warm) + len(traced) + len(base),
            "failed": len(failures), "failures": failures}


def probe():
    calibration = Calibration()
    calibration.run()
    calibration.run()
    return {"scaled_import_s": IMPORT_S * calibration.factor()}


def main():
    if sys.argv[1] == "probe":
        result = probe()
        result["import_s"] = IMPORT_S
        print(json.dumps(result))
        return
    workload, seed, seconds, traced, out_dir = sys.argv[1:6]
    root = HERE.parent
    wl = WORKLOADS[workload](epsarb, root)
    if int(traced):
        result = trace(wl, int(seed), Path(out_dir))
    else:
        result = measure(wl, int(seed), float(seconds))
    result["import_s"] = IMPORT_S
    print(json.dumps(result))


if __name__ == "__main__":
    main()
