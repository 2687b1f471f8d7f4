"""The four workloads: each yields units of operations with their checks.

A unit is the fixed batch of one pass: every operation kind of the workload
appears exactly once in it, and unit ``i`` of a seed is always the same
input.  Each operation carries a check that returns a failure message, or
None when the result agrees with the benchmark's own oracles.

Run as a script, this module records the CLI golden reports:
``python3 perfbench/workloads.py`` from the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import gen
import oracles

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Market operations (curved and polyhedral)
# ---------------------------------------------------------------------------

def market_ops(ea, model, p: float, tag: str) -> list[Op]:
    """The eight market operations at a low and a high level around eps(P).

    The levels are half and one and a half times the oracle's eps(P), far
    from the boundary, so every verdict is known in advance: strict
    arbitrage and no measure below, none and a measure above.
    """
    norms = ea.NormPair(p)
    q = norms.q
    eps_star = oracles.critical_level(model, q)
    lo, hi = 0.5 * eps_star, 1.5 * eps_star
    payoff = ea.Payoff.from_function(model, lambda path: float(np.linalg.norm(path[-1] - path[0])))
    ctx: dict = {}

    def detect_lo(rep):
        if rep.status != "strict_arbitrage":
            return f"{rep.status} at eps {lo:.6g} below eps(P) {eps_star:.6g}"
        if rep.certificate is None:
            return "strict arbitrage without a certificate"
        s = oracles.strategy_slacks(model, rep.certificate.values, lo, p)
        if s.min() < -1e-7 or s.max() <= 1e-9:
            return f"certificate slacks in [{s.min():.3g}, {s.max():.3g}]"
        return None

    def detect_hi(rep):
        if rep.status == "strict_arbitrage":
            return f"strict arbitrage at eps {hi:.6g} above eps(P) {eps_star:.6g}"
        return None

    def critical(res):
        if not _close(res.epsilon, eps_star, 1e-5):
            return f"eps(P) {res.epsilon:.10g}, oracle {eps_star:.10g}"
        return None

    def emm_lo(res):
        return f"a measure at eps {lo:.6g} below eps(P)" if res.feasible else None

    def emm_hi(res):
        if not res.feasible:
            return f"{res.status} at eps {hi:.6g} above eps(P) {eps_star:.6g}"
        w = np.asarray(res.measure.weights, dtype=float)
        if w.min() <= 0.0 or abs(w.sum() - 1.0) > 1e-9:
            return f"weights not a positive probability (min {w.min():.3g}, sum {w.sum():.12g})"
        dev = oracles.max_mean_increment(model, w, q)
        if dev > hi + 1e-8:
            return f"mean increment {dev:.10g} above eps {hi:.10g}"
        ctx["mean_payoff"] = float(w @ payoff.values)
        return None

    def na_prime(rep):
        return None if rep.holds else f"NA' fails at eps {hi:.6g} above eps(P)"

    def superhedge(res):
        if res.gap is None or res.gap > 1e-5 * (1.0 + abs(res.price)):
            return f"duality gap {res.gap} (mode {res.mode})"
        if "mean_payoff" in ctx and res.price < ctx["mean_payoff"] - 1e-7 * (1.0 + abs(res.price)):
            return f"price {res.price:.10g} below E_Q[payoff] {ctx['mean_payoff']:.10g}"
        ctx["price"] = res.price
        return None

    def fair_range(res):
        if not res.lower <= res.upper:
            return f"empty interval [{res.lower}, {res.upper}]"
        tol = 1e-6 * (1.0 + abs(res.upper))
        if "price" in ctx and abs(res.upper - hi - ctx["price"]) > tol:
            return f"upper end {res.upper:.10g} is not the superhedge price + eps"
        m = ctx.get("mean_payoff")
        if m is not None and not (res.lower + hi - tol <= m <= res.upper - hi + tol):
            return f"E_Q[payoff] {m:.10g} outside [{res.lower + hi:.10g}, {res.upper - hi:.10g}]"
        return None

    def op(name, call, check):
        return Op(f"{name}/{tag}", call, check)

    return [
        op("detect_lo", lambda: ea.detect_strict_arbitrage(model, lo, norms), detect_lo),
        op("detect_hi", lambda: ea.detect_strict_arbitrage(model, hi, norms), detect_hi),
        op("critical_value", lambda: ea.critical_value(model, norms), critical),
        op("find_emm_lo", lambda: ea.find_eps_martingale_measure(model, lo, norms), emm_lo),
        op("find_emm_hi", lambda: ea.find_eps_martingale_measure(model, hi, norms), emm_hi),
        op("na_prime", lambda: ea.check_na_prime(model, hi, norms), na_prime),
        op("superhedge", lambda: ea.superhedge_price(model, hi, norms, payoff), superhedge),
        op("fair_range", lambda: ea.fair_price_range(model, hi, norms, payoff), fair_range),
    ]


def _variant(ea, seed, name, index, T, base):
    g = gen.rng(seed, name, index)
    d = len(base[0]["prices"])
    return ea.MarketModel.from_nodes(T, d, gen.symmetric_variant(g, base, gen.symmetry(g, d)))


CURVED_PANEL = 3


class Curved:
    """A fixed panel of CURVED_PANEL p = 2, d = 2, T = 2 binary trees (4
    leaves, 3 trading nodes each); the seed only sets their order.

    The cutting planes behind these operations are sensitive to the exact
    numbers: the same tree after a reordering of its children can take ten
    times as long on one operation, and random trees of this shape take
    from under 1 s to about 30 s for the eight operations.  A run holds only a few trees, so any change of input
    between seeds would outweigh the effect being measured; the panel
    therefore stays the same and every seed does the same work.
    """

    name = "curved"
    tail_percentile = 58

    def __init__(self, ea, root):
        self.ea = ea
        self.panel = [gen.tree_nodes(gen.rng(0, self.name, j), 2, 2, 2, root_push=True)
                      for j in range(CURVED_PANEL)]

    def unit(self, seed, index):
        ops = []
        for j in gen.rng(seed, self.name, index).permutation(CURVED_PANEL):
            model = self.ea.MarketModel.from_nodes(2, 2, self.panel[j])
            ops += market_ops(self.ea, model, 2.0, f"g{j}")
        return ops


POLYHEDRAL_SHAPES = [(T, d, 1.0) for T in (2, 3, 4) for d in (1, 2)] + \
                    [(T, 1, 2.0) for T in (2, 3, 4)]
POLYHEDRAL_PANEL = 4


class Polyhedral:
    """Full ternary trees, T in {2, 3, 4} (9 to 81 leaves): d in {1, 2} at
    p = 1, and d = 1 at p = 2.

    Each shape has a panel of POLYHEDRAL_PANEL geometries; unit i uses
    geometry i mod POLYHEDRAL_PANEL of every shape, so a run of several
    units covers the whole panel.
    """

    name = "polyhedral"
    tail_percentile = 85

    def __init__(self, ea, root):
        self.ea = ea
        self.panel = [[gen.tree_nodes(gen.rng(0, self.name, j * len(POLYHEDRAL_SHAPES) + k),
                                      T, 3, d, root_push=True)
                       for k, (T, d, _) in enumerate(POLYHEDRAL_SHAPES)]
                      for j in range(POLYHEDRAL_PANEL)]

    def unit(self, seed, index):
        ops = []
        bases = self.panel[index % POLYHEDRAL_PANEL]
        for k, ((T, d, p), base) in enumerate(zip(POLYHEDRAL_SHAPES, bases)):
            model = _variant(self.ea, seed, self.name, index * len(POLYHEDRAL_SHAPES) + k, T, base)
            ops += market_ops(self.ea, model, p, f"T{T}d{d}p{p:g}")
        return ops


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

TRANSPORT_SHAPES = [(2, 3, 1), (2, 3, 2), (2, 4, 1), (3, 3, 1), (3, 4, 2)]  # (T, branching, d)
GLOBAL_CHECK_LEAVES = 9


def transport_ops(ea, lawx, lawy, tag: str) -> list[Op]:
    q = 2.0
    small = lawx.n_leaves <= GLOBAL_CHECK_LEAVES and lawy.n_leaves <= GLOBAL_CHECK_LEAVES
    ctx: dict = {}

    def coupling_errors(res, increments, include_t0) -> Optional[str]:
        joint = oracles.joint_law(res.coupling)
        err = oracles.marginal_error(joint, lawx.leaf_prob, lawy.leaf_prob)
        if err > 1e-9:
            return f"coupling marginals off by {err:.3g}"
        costs = oracles.path_costs(lawx, lawy, q, increments, include_t0)
        worst = float(np.max(costs[joint > 1e-12]))
        if worst > res.value + 1e-9 * (1.0 + res.value):
            return f"coupling charges {worst:.12g} above the value {res.value:.12g}"
        return None

    def bottleneck(increments, include_t0, key):
        def check(res):
            err = coupling_errors(res, increments, include_t0)
            if err is None and small:
                ref = ea.global_bicausal_bottleneck(lawx, lawy, q, increments=increments,
                                                    include_t0=include_t0)
                if abs(res.value - ref) > 1e-8 * (1.0 + ref):
                    err = f"value {res.value:.12g}, global bicausal {ref:.12g}"
            ctx[key] = res.value
            return err
        return check

    def winf(res):
        err = oracles.marginal_error(res.plan, lawx.leaf_prob, lawy.leaf_prob)
        if err > 1e-9:
            return f"plan marginals off by {err:.3g}"
        if "aw" in ctx and res.value > ctx["aw"] + 1e-9:
            return f"w_inf {res.value:.12g} above aw_inf {ctx['aw']:.12g}"
        return None

    def elog(res):
        joint = oracles.joint_law(res.coupling)
        err = oracles.marginal_error(joint, lawx.leaf_prob, lawy.leaf_prob)
        if err > 1e-9:
            return f"coupling marginals off by {err:.3g}"
        if "aw" in ctx and res.value > ctx["aw"] + 1e-9:
            return f"elog {res.value:.12g} above aw_inf {ctx['aw']:.12g}"
        return None

    return [
        Op(f"aw_inf/{tag}", lambda: ea.aw_inf(lawx, lawy, q), bottleneck(False, True, "aw")),
        Op(f"aw_inf_delta/{tag}", lambda: ea.aw_inf_delta(lawx, lawy, q),
           bottleneck(True, True, "awd")),
        Op(f"aw_inf_delta_no_t0/{tag}", lambda: ea.aw_inf_delta(lawx, lawy, q, include_t0=False),
           bottleneck(True, False, "awd0")),
        Op(f"w_inf/{tag}", lambda: ea.w_inf(lawx, lawy, q), winf),
        # elog_divergence at lambda = 200 is left out: it returns more than
        # aw_inf on most of these pairs (see NOTES.md, "Defects found";
        # perfbench/defects.py reproduces it).
        Op(f"elog_3/{tag}", lambda: ea.elog_divergence(lawx, lawy, q, lam=3.0), elog),
    ]


def stability_op(ea, lawx, lawy, p: float) -> Op:
    """stability_report at 1.25 eps(P_x); at p = 2 with a 1-Lipschitz claim."""
    norms = ea.NormPair(p)
    eps_x = oracles.critical_level(lawx, norms.q)
    eps = 1.25 * eps_x
    with_claim = p != 1.0

    def call():
        if with_claim:
            return ea.stability_report(lawx, lawy, eps, norms,
                                       payoff_fn=lambda path: float(path[-1, 0]), lipschitz=1.0)
        return ea.stability_report(lawx, lawy, eps, norms)

    def check(rep):
        if not _close(rep.eps_x, eps_x, 1e-5):
            return f"eps(P) {rep.eps_x:.10g}, oracle {eps_x:.10g}"
        if rep.critical_slack < -1e-5 * (1.0 + rep.distance):
            return f"|eps(P) - eps(P')| exceeds the distance by {-rep.critical_slack:.3g}"
        if not rep.emm_x_feasible:
            return f"no measure at {eps:.6g} above eps(P)"
        for name in ("pushforward_slack", "fair_lower_slack", "fair_upper_slack"):
            val = getattr(rep, name)
            if val is not None and val < -1e-6:
                return f"{name} {val:.3g} < 0"
        if with_claim and rep.fair_x is None:
            return f"fair-range transfer skipped: {list(rep.notes)}"
        return None

    return Op(f"stability/p{p:g}", call, check)


class Transport:
    """Path-law pairs of 9 to 64 leaves, plus two small stability pairs.

    One geometry per pair; each unit applies one signed permutation of the
    assets to both laws of a pair (which keeps their distances) and
    reorders every node's children.
    """

    name = "transport"
    tail_percentile = 60

    def __init__(self, ea, root):
        self.ea = ea
        g = gen.rng(0, self.name, 0)
        self.pairs = [(T, [gen.tree_nodes(g, T, b, d, False) for _ in range(2)], f"L{b ** T}d{d}")
                      for T, b, d in TRANSPORT_SHAPES]
        self.stability = [[gen.tree_nodes(g, 2, 2, 1, True) for _ in range(2)] for _ in range(2)]

    def _pair(self, g, T, bases):
        d = len(bases[0][0]["prices"])
        sym = gen.symmetry(g, d)
        return [self.ea.MarketModel.from_nodes(T, d, gen.symmetric_variant(g, base, sym))
                for base in bases]

    def unit(self, seed, index):
        g = gen.rng(seed, self.name, index)
        ops = []
        for T, bases, tag in self.pairs:
            ops += transport_ops(self.ea, *self._pair(g, T, bases), tag)
        for p, bases in zip((1.0, 2.0), self.stability):
            ops.append(stability_op(self.ea, *self._pair(g, 2, bases), p))
        return ops


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

D = "demos/data/"
CLI_CALLS = {
    "critical-value": ["critical-value", D + "kbar_market.json", "--p", "2"],
    "find-emm": ["find-emm", D + "nsaem.json", "--eps", "1.0", "--p", "2"],
    "fair-range": ["fair-range", D + "price_range.json", "--eps", "1.0", "--p", "2",
                   "--payoff", D + "psi_price_range.json"],
    "aw-delta": ["aw-delta", D + "p0.json", D + "peps.json", "--q", "2"],
    "elog": ["elog", D + "kr_p.json", D + "kr_pprime.json", "--q", "2", "--lambda", "200"],
    "adapted-empirical": ["adapted-empirical", "perfbench/data/samples.csv", "--T", "1", "--d", "1"],
    "stability": ["stability", D + "p0.json", D + "peps.json", "--eps", "0.1", "--p", "2"],
    "check-arbitrage": ["check-arbitrage", D + "nostrictarb.json", "--eps", "0.5", "--p", "2"],
    "na-prime": ["na-prime", D + "nostrictarb.json", "--eps", "1.0", "--p", "2"],
    "node-structure": ["node-structure", D + "kbar_market.json", "--eps", "1.0", "--p", "2"],
    "superhedge": ["superhedge", D + "price_range.json", "--eps", "1.0", "--p", "2",
                   "--payoff", D + "psi_price_range.json"],
    "w-inf": ["w-inf", D + "p0.json", D + "peps.json", "--q", "2"],
    "kr": ["kr", D + "kr_p.json", D + "kr_pprime.json", "--q", "2"],
}
GOLDEN = HERE / "golden" / "cli.json"


def json_mismatch(got, want, where="$") -> Optional[str]:
    """First difference between two reports: exact for strings, booleans,
    nulls and structure; numbers to 1e-6 relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys differ"
        for key in want:
            diff = json_mismatch(got[key], want[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: lengths differ"
        for i, (a, b) in enumerate(zip(got, want)):
            diff = json_mismatch(a, b, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{where}: {got!r} is not a number"
        if not _close(float(got), float(want), 1e-6):
            return f"{where}: {got!r}, golden {want!r}"
        return None
    return None if got == want and type(got) is type(want) else f"{where}: {got!r}, golden {want!r}"


class Cli:
    """The 13 shipped invocations, one `epsarb` process at a time."""

    name = "cli"
    tail_percentile = 50

    def __init__(self, ea, root):
        self.root = root
        self.golden = json.loads(GOLDEN.read_text())
        self.byte_identical = 0
        self.command = [sys.executable, "-m", "epsarb.cli"]
        self.env = None

    def run(self, argv):
        return subprocess.run(self.command + argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=170)

    def unit(self, seed, index):
        order = list(CLI_CALLS)
        gen.rng(seed, self.name, index).shuffle(order)
        return [Op(name, (lambda argv=CLI_CALLS[name]: self.run(argv)), self._checker(name))
                for name in order]

    def _checker(self, name):
        want = self.golden[name]

        def check(proc):
            if proc.returncode != want["exit"]:
                return f"exit {proc.returncode}, golden {want['exit']}: {proc.stderr.strip()[-200:]}"
            if proc.stdout == want["stdout"]:
                self.byte_identical += 1
                return None
            try:
                got = json.loads(proc.stdout)
            except ValueError:
                return "report is not JSON"
            return json_mismatch(got, json.loads(want["stdout"]))
        return check


WORKLOADS = {cls.name: cls for cls in (Curved, Polyhedral, Transport, Cli)}


def record_golden(root: Path) -> None:
    """Run every CLI call once and store its exit code and report."""
    out = {}
    for name, argv in CLI_CALLS.items():
        proc = subprocess.run([sys.executable, "-m", "epsarb.cli"] + argv, cwd=root,
                              capture_output=True, text=True, timeout=170,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")))
        out[name] = {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_golden(HERE.parent)
