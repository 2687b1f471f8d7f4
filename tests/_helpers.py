"""Shared market builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's solver paths: grid search over
strategies, explicit enumeration of transportation polytopes, and
scipy-based simplex minimization, so expected values are computed through an
independent route before being asserted.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import struct
import subprocess
import sys
import threading
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog, minimize

from epsarb.market import (EXACT_TOL, MarketModel, NormPair, Payoff, Strategy, gain, qnorm,
                           strategy_cost)
from epsarb import programs, solvers
from epsarb.solvers import TransportInstance, bottleneck_transport, log_transport


def validation_oracle(model: MarketModel) -> tuple:
    """The violations ``validate_market`` reports, node by node in one loop."""
    bad: list[str] = []
    if model.T < 1:
        bad.append(f"horizon T={model.T} < 1")
    if model.d < 1:
        bad.append(f"dimension d={model.d} < 1")
    for i in range(model.n_nodes):
        t, p = int(model.times[i]), int(model.parent[i])
        if not (0 <= t <= model.T):
            bad.append(f"node {model.ids[i]} has time {t} outside 0..{model.T}")
        if p < 0 and t != 0:
            bad.append(f"node {model.ids[i]} has no parent but time {t} != 0")
        if p >= 0 and model.times[p] != t - 1:
            bad.append(f"node {model.ids[i]} at time {t} has parent at time {int(model.times[p])}")
        if not (0.0 < model.cond_prob[i] <= 1.0):
            bad.append(f"node {model.ids[i]} conditional probability {model.cond_prob[i]} outside (0,1]")
        if not np.all(np.isfinite(model.prices[i])):
            bad.append(f"node {model.ids[i]} has non-finite prices")
        if not model.children[i] and t != model.T:
            bad.append(f"leaf at wrong depth: node {model.ids[i]} has no children at time {t} < T={model.T}")
    for v in model.internal:
        s = float(np.sum(model.cond_prob[list(model.children[v])]))
        if abs(s - 1.0) > EXACT_TOL:
            bad.append(f"sibling probabilities sum {s:.12g} != 1 under node {model.ids[v]}")
    root_mass = float(np.sum(model.cond_prob[list(model.roots)]))
    if abs(root_mass - 1.0) > EXACT_TOL:
        bad.append(f"time-0 probabilities sum {root_mass:.12g} != 1")
    return tuple(bad)


def run_fresh(script: str, *args: str, cwd=None) -> str:
    """Run ``script`` with ``args`` in a fresh interpreter that imports
    epsarb from this checkout's ``src`` (the test process has scipy loaded
    already); assert it exits 0 and return its standard output."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def two_state(prices0, prices1a, prices1b, d, pa=0.5, T=1) -> MarketModel:
    return MarketModel.from_nodes(T, d, [
        {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": prices0},
        {"id": "w1", "time": 1, "parent": "r", "cond_prob": pa, "prices": prices1a},
        {"id": "w2", "time": 1, "parent": "r", "cond_prob": 1 - pa, "prices": prices1b},
    ])


def nostrictarb_market(eps: float = 1.0) -> MarketModel:
    """Two assets, S1 in {(eps,0),(eps,1)} uniform: sequential but no strict arbitrage."""
    return two_state([0.0, 0.0], [eps, 0.0], [eps, 1.0], 2)


def kbar_market(eps: float = 1.0) -> MarketModel:
    """Two assets, S1 = (eps, +-1) uniform: gains set strictly below its closure."""
    return two_state([0.0, 0.0], [eps, 1.0], [eps, -1.0], 2)


def price_range_market(eps: float = 1.0) -> MarketModel:
    """Single asset, S1 in {eps/2, 3 eps/2}: half-open fair-price interval."""
    return two_state([0.0], [0.5 * eps], [1.5 * eps], 1)


def binary_martingale(up: float = 1.0) -> MarketModel:
    return two_state([0.0], [up], [-up], 1)


def drift_market(M: float = 5.0) -> MarketModel:
    """Deterministic one-step drift: the critical level equals |M|."""
    return MarketModel.from_nodes(1, 1, [
        {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0]},
        {"id": "u", "time": 1, "parent": "r", "cond_prob": 1.0, "prices": [M]},
    ])


def telescoping_market() -> MarketModel:
    """Single asset, one path with increments +1 then -1."""
    return MarketModel.from_nodes(2, 1, [
        {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0]},
        {"id": "a", "time": 1, "parent": "r", "cond_prob": 1.0, "prices": [1.0]},
        {"id": "b", "time": 2, "parent": "a", "cond_prob": 1.0, "prices": [0.0]},
    ])


def kr_pair():
    P = MarketModel.from_paths(np.array([[0.0, 3.0], [1.0, 5.0]]), np.array([0.5, 0.5]))
    Pp = MarketModel.from_paths(np.array([[1.0, 1.0], [3.0, 2.0]]), np.array([0.5, 0.5]))
    return P, Pp


def counterexample_pair(eps: float = 0.25):
    P0 = MarketModel.from_paths(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([0.5, 0.5]))
    Pe = MarketModel.from_paths(np.array([[eps, 1.0], [-eps, -1.0]]), np.array([0.5, 0.5]))
    return P0, Pe


def closing_pair(M: float = 5.0, delta: float = 0.25, p_small: float = 0.1):
    P = MarketModel.from_paths(np.array([[0.0, M]]), np.array([1.0]))
    Pp = MarketModel.from_paths(np.array([[0.0, M], [0.0, -delta]]),
                                np.array([1.0 - p_small, p_small]))
    return P, Pp


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def grid_search_maximin(model: MarketModel, eps: float, norms: NormPair,
                        n_grid: int = 720):
    """Best uniform slack per unit norm over a dense grid of strategy rays.

    Only for markets with a single internal node and d = 2.
    """
    (v,) = model.internal
    best, best_h = -np.inf, None
    for k in range(n_grid):
        ang = 2 * np.pi * k / n_grid
        h = np.array([np.cos(ang), np.sin(ang)])
        h = h / norms.norm(h)
        vals = np.zeros((model.n_nodes, 2))
        vals[v] = h
        s = gain(model, Strategy(vals)) - eps * strategy_cost(model, Strategy(vals), norms)
        m = float(np.min(s))
        if m > best:
            best, best_h = m, h
    return best, best_h


def min_simplex_deviation_oracle(model: MarketModel, v: int, norms: NormPair) -> float:
    """min over child-simplex weights of |sum a_w dS(w)|_q.

    d = 1 has a closed form and q = inf is one LP (SLSQP stops at kinks of
    the max-norm); other d >= 2 run SLSQP from several starts with a
    barycentric-grid fallback.
    """
    kids = list(model.children[v])
    A = model.delta[kids]
    k = len(kids)
    if k == 1:
        return norms.dual_norm(A[0])
    if model.d == 1:
        c = A[:, 0]
        if c.min() <= 0.0 <= c.max():
            return 0.0
        return float(np.min(np.abs(c)))
    if norms.q == math.inf:
        return min_simplex_deviation_lp(A)

    def fun(a):
        return norms.dual_norm(A.T @ a)

    best = np.inf
    for start in [np.full(k, 1.0 / k)] + [np.eye(k)[i] * 0.98 + 0.02 / k for i in range(k)]:
        res = minimize(fun, start, method="SLSQP",
                       bounds=[(0.0, 1.0)] * k,
                       constraints=[{"type": "eq", "fun": lambda a: np.sum(a) - 1.0}],
                       options={"maxiter": 300, "ftol": 1e-14})
        if res.success:
            best = min(best, float(fun(res.x)))
    if not np.isfinite(best):
        grid = np.linspace(0.0, 1.0, 201)
        if k == 2:
            best = min(fun(np.array([t, 1 - t])) for t in grid)
        else:
            best = min(fun(np.array([s, t, max(1 - s - t, 0.0)]))
                       for s in grid for t in grid if s + t <= 1.0)
    return float(best)


def min_simplex_deviation_lp(A: np.ndarray) -> float:
    """min over the simplex of |A' a|_inf, by one HiGHS LP in (a, t).

    The deviation for q = inf, and for every q when d = 1: the oracle for
    the closed form of scalar increments.
    """
    k, d = A.shape
    a_ub = np.vstack([np.hstack([A.T, -np.ones((d, 1))]),
                      np.hstack([-A.T, -np.ones((d, 1))])])
    res = linprog(np.concatenate([np.zeros(k), [1.0]]), A_ub=a_ub, b_ub=np.zeros(2 * d),
                  A_eq=np.concatenate([np.ones(k), [0.0]])[None, :], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * k + [(0.0, None)], method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def critical_value_oracle(model: MarketModel, norms: NormPair) -> float:
    """Independent critical level: the largest node-wise minimal deviation."""
    return max(min_simplex_deviation_oracle(model, v, norms) for v in model.internal)


def enumerate_2x2_transport(cost: np.ndarray, src, tgt, n: int = 20001):
    """Sweep the one-parameter 2x2 transportation polytope."""
    lo = max(0.0, src[0] - tgt[1])
    hi = min(src[0], tgt[0])
    best_cost, best_btl = np.inf, np.inf
    for a in np.linspace(lo, hi, n):
        plan = np.array([[a, src[0] - a], [tgt[0] - a, tgt[1] - (src[0] - a)]])
        if np.min(plan) < -1e-12:
            continue
        c = float(np.sum(plan * cost))
        btl = float(np.max(cost[plan > 1e-12]))
        best_cost = min(best_cost, c)
        best_btl = min(best_btl, btl)
    return best_cost, best_btl


def brute_force_log_transport(v: np.ndarray, wx, wy) -> float:
    """min over vertices of the transportation polytope of
    log sum_ij pi_ij exp(v_ij), with marginals wx / sum(wx) and wy / sum(wy)
    for integer weights.

    Every choice of m + n - 1 cells of positive-mass rows and columns is
    tried as a basis; its flows are found exactly, in rationals, by peeling
    leaves of the basis graph, and only vertices with flows >= 0 count.
    """
    a = [Fraction(int(w), int(sum(wx))) for w in wx]
    b = [Fraction(int(w), int(sum(wy))) for w in wy]
    rows = [i for i, w in enumerate(a) if w > 0]
    cols = [j for j, w in enumerate(b) if w > 0]
    best = math.inf
    for basis in itertools.combinations(itertools.product(rows, cols), len(rows) + len(cols) - 1):
        left_a, left_b = list(a), list(b)
        todo, flow = set(basis), {}
        while todo:
            count = {}
            for i, j in todo:
                count[("r", i)] = count.get(("r", i), 0) + 1
                count[("c", j)] = count.get(("c", j), 0) + 1
            leaf = next(((i, j) for i, j in sorted(todo)
                         if count[("r", i)] == 1 or count[("c", j)] == 1), None)
            if leaf is None:
                break  # the cells hold a cycle: not a basis
            i, j = leaf
            flow[leaf] = left_a[i] if count[("r", i)] == 1 else left_b[j]
            left_a[i] -= flow[leaf]
            left_b[j] -= flow[leaf]
            todo.remove(leaf)
        if todo or any(left_a) or any(left_b) or min(flow.values()) < 0:
            continue
        terms = [(float(v[i, j]), float(x)) for (i, j), x in flow.items() if x > 0]
        top = max(t for t, _ in terms)
        best = min(best, top + math.log(sum(x * math.exp(t - top) for t, x in terms)))
    return best


def full_tree_law(rng: np.random.Generator, T: int, branching: int, d: int) -> MarketModel:
    """A full tree of the shape the transport benchmark uses: every internal
    node has ``branching`` children, draws its own drift, and its children
    step by drift plus standard normal noise (prices rounded to 6 digits)."""
    nodes = [{"id": "n0", "time": 0, "parent": None, "cond_prob": 1.0,
              "prices": np.round(rng.normal(0.0, 1.0, size=d), 6)}]
    frontier = [0]
    for t in range(1, T + 1):
        nxt = []
        for v in frontier:
            probs = rng.uniform(0.2, 1.0, size=branching)
            probs /= probs.sum()
            drift = rng.normal(0.0, 0.5, size=d)
            for c in range(branching):
                nodes.append({"id": f"n{len(nodes)}", "time": t, "parent": nodes[v]["id"],
                              "cond_prob": float(probs[c]),
                              "prices": np.round(nodes[v]["prices"] + drift
                                                 + rng.normal(0.0, 1.0, size=d), 6)})
                nxt.append(len(nodes) - 1)
        frontier = nxt
    return MarketModel.from_nodes(T, d, nodes)


def random_feasible_plan(rng: np.random.Generator, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """A random vertex of the transportation polytope (north-west corner on
    shuffled orders)."""
    perm_i = rng.permutation(src.size)
    perm_j = rng.permutation(tgt.size)
    a = src[perm_i].copy()
    b = tgt[perm_j].copy()
    plan = np.zeros((src.size, tgt.size))
    i = j = 0
    while i < a.size and j < b.size:
        m = min(a[i], b[j])
        plan[perm_i[i], perm_j[j]] = m
        a[i] -= m
        b[j] -= m
        if a[i] <= 1e-15:
            i += 1
        if j < b.size and b[j] <= 1e-15:
            j += 1
    return plan


def brute_force_bicausal_couplings(lawx, lawy, samples: int, rng: np.random.Generator):
    """Random stage-plan choices: a sample of genuine bicausal couplings."""
    from epsarb.transport import BicausalCoupling
    out = []
    for _ in range(samples):
        rx, ry = list(lawx.roots), list(lawy.roots)
        root = random_feasible_plan(rng, lawx.cond_prob[rx], lawy.cond_prob[ry])
        plans = {}
        for vx in range(lawx.n_nodes):
            for vy in range(lawy.n_nodes):
                if lawx.times[vx] == lawy.times[vy] and lawx.children[vx] and lawy.children[vy]:
                    cx, cy = list(lawx.children[vx]), list(lawy.children[vy])
                    plans[(vx, vy)] = random_feasible_plan(
                        rng, lawx.cond_prob[cx], lawy.cond_prob[cy])
        out.append(BicausalCoupling(lawx, lawy, root, plans))
    return out


def payoff_linear_terminal(model: MarketModel, coeff: float = 1.0, coord: int = 0) -> Payoff:
    return Payoff.from_function(model, lambda path: coeff * float(path[-1, coord]))


def lp_bottleneck_value(cost: np.ndarray, src: np.ndarray, tgt: np.ndarray,
                        feas_tol: float = 1e-9) -> float:
    """Reference bottleneck value: bisection over the sorted live cost
    levels, each level decided by a bipartite max-flow LP on the allowed
    cells (feasible when it moves all but ``feas_tol`` of the mass).
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    src = np.asarray(src, dtype=float)
    tgt = np.asarray(tgt, dtype=float)
    m, n = cost.shape
    total = float(src.sum())
    if total <= 0.0:
        return 0.0

    def feasible(lam: float) -> bool:
        idx = np.flatnonzero((cost <= lam).ravel())
        if idx.size == 0:
            return False
        a_ub = np.zeros((m + n, idx.size))
        for col, flat in enumerate(idx):
            i, j = divmod(int(flat), n)
            a_ub[i, col] = 1.0
            a_ub[m + j, col] = 1.0
        res = linprog(c=-np.ones(idx.size), A_ub=a_ub, b_ub=np.concatenate([src, tgt]),
                      bounds=[(0, None)] * idx.size, method="highs")
        return res.status == 0 and float(np.maximum(res.x, 0.0).sum()) >= total - feas_tol

    levels = np.unique(cost[np.outer(src > 0, tgt > 0)])
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(levels[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def _oracle_stage_costs(lawx, lawy, xs, ys, t, q, increments, include_t0):
    if increments:
        if t == 0 and not include_t0:
            return np.zeros((len(xs), len(ys)))
        vx, vy = lawx.delta[xs], lawy.delta[ys]
    else:
        vx, vy = lawx.prices[xs], lawy.prices[ys]
    return qnorm(vx[:, None, :] - vy[None, :, :], q)


def backward_oracle(lawx, lawy, q: float, increments: bool, lam, variants: tuple) -> tuple:
    """The backward induction of ``transport._backward``, one node pair at a
    time: every stage transport is a public call, ``bottleneck_transport``
    of a ``TransportInstance`` (``lam`` None) or ``log_transport`` of the
    children's values, and each pair's value is the scalar sum of its stage
    cost and that transport's value.  A pair with children on one side only
    is a transport with no rows or no columns.  Returns (value, root plan,
    stage plans) per ``include_t0`` flag in ``variants``."""
    scale = 1.0 if lam is None else lam

    def kernel(costs, source, target):
        if lam is None:
            return bottleneck_transport(TransportInstance(costs, source, target))
        return log_transport(costs, source, target)

    def nodes_at(law, t):
        return [v for v in range(law.n_nodes) if law.times[v] == t]

    value, below, plans = {}, {}, {}
    for t in range(lawx.T, -1, -1):
        xs, ys = nodes_at(lawx, t), nodes_at(lawy, t)
        stage = scale * _oracle_stage_costs(lawx, lawy, xs, ys, t, q, increments, True) if t else None
        for a, vx in enumerate(xs):
            cx = lawx.children[vx]
            for b, vy in enumerate(ys):
                rest = None
                cy = lawy.children[vy]
                if cx or cy:
                    costs = np.array([[value[(wx, wy)] for wy in cy]
                                      for wx in cx]).reshape(len(cx), len(cy))
                    res = kernel(costs, lawx.cond_prob[list(cx)], lawy.cond_prob[list(cy)])
                    rest = res.value
                    plans[(vx, vy)] = res.plan
                if t:
                    c = float(stage[a, b])
                    value[(vx, vy)] = c if rest is None else c + rest
                else:
                    below[(vx, vy)] = rest
    rx, ry = list(lawx.roots), list(lawy.roots)
    out = []
    for include_t0 in variants:
        stage = scale * _oracle_stage_costs(lawx, lawy, rx, ry, 0, q, increments, include_t0)
        top = np.array([[float(stage[a, b]) if below[(vx, vy)] is None
                         else float(stage[a, b]) + below[(vx, vy)]
                         for b, vy in enumerate(ry)] for a, vx in enumerate(rx)])
        res = kernel(top, lawx.cond_prob[rx], lawy.cond_prob[ry])
        out.append((float(res.value) / scale, res.plan, plans))
    return tuple(out)


def weak_duality_bound(prog: solvers.ConeProgram, y: np.ndarray, z: np.ndarray,
                       box: np.ndarray) -> float:
    """A lower bound on min c.x of ``prog`` from any dual point (y, z), valid
    whenever some minimizer has |x_i| <= box_i: z is moved into the dual
    cone (``ConeProgram.project_dual``), and the dual residual r = c + G'z +
    A'y then costs at most sum_i |r_i| box_i (weak duality)."""
    z = prog.project_dual(z)
    r = prog.c + prog.G.T @ z + prog.A.T @ y
    return float(-prog.h @ z - prog.b @ y) - float(np.abs(r) @ box)


def cone_rows_linf_oracle(ops, eps: float) -> np.ndarray:
    """The q = inf node rows of the whole-tree measure LPs, one row at a
    time: for each internal node and asset, the row of +coeff - eps mask,
    then -coeff - eps mask."""
    rows = []
    for j in range(len(ops.internal)):
        coeff_j = ops.coeff[:, j, :]
        mask_j = ops.mask[:, j]
        for i in range(ops.model.d):
            rows.append(coeff_j[:, i] - eps * mask_j)
            rows.append(-coeff_j[:, i] - eps * mask_j)
    return np.vstack(rows) if rows else np.zeros((0, ops.model.n_leaves))


# ---------------------------------------------------------------------------
# The whole-tree LPs of the measure programs, frozen as they ran on
# polyhedral geometry (d = 1, q = inf, eps = 0) before the node inductions:
# the reference the closed-form and polytope-vertex inductions are held to
# ---------------------------------------------------------------------------


def _measure_lp_rows(model: MarketModel, eps: float) -> np.ndarray:
    """The node rows +-z_{v,i} <= eps qbar(v) of every internal node."""
    return cone_rows_linf_oracle(programs.tree_ops(model), eps)


def lp_node_deviation(A: np.ndarray) -> float:
    """gamma(v) at q = inf, min over the simplex of |A' a|_inf, as
    ``programs.node_min_simplex_deviation`` solved it: one LP in (a, t)."""
    k, d = A.shape
    a_ub = np.vstack([np.hstack([A.T, -np.ones((d, 1))]),
                      np.hstack([-A.T, -np.ones((d, 1))])])
    res = solvers.solve_lp(solvers.LinearProgram(
        c=np.concatenate([np.zeros(k), [1.0]]), sense="min", a_ub=a_ub, b_ub=np.zeros(2 * d),
        a_eq=np.concatenate([np.ones(k), [0.0]])[None, :], b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * k + [(0.0, None)]))
    assert res.status == "optimal", res.message
    return float(res.value)


def lp_interior_ratio(model: MarketModel, eps: float):
    """rho* = max min q / P over the closed eps-martingale set, one LP in
    (q, t); None when the set is empty."""
    L = model.n_leaves
    rows = _measure_lp_rows(model, eps)
    a_ub = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]),
                      np.hstack([-np.eye(L), model.leaf_prob[:, None]])])
    lp = solvers.LinearProgram(c=np.eye(L + 1)[L], sense="max", a_ub=a_ub,
                               b_ub=np.zeros(a_ub.shape[0]),
                               a_eq=np.concatenate([np.ones(L), [0.0]])[None, :],
                               b_eq=np.array([1.0]), bounds=[(0.0, 1.0)] * L + [(None, 1.0)])
    res = solvers.solve_lp(lp)
    if res.status == "infeasible":
        return None
    assert res.status == "optimal", res.message
    return float(res.value)


def lp_price(model: MarketModel, eps: float, c: np.ndarray, sense: str):
    """The optimum of c.q over the closed eps-martingale set in ``sense``,
    one LP; None when the set is empty."""
    L = model.n_leaves
    rows = _measure_lp_rows(model, eps)
    res = solvers.solve_lp(solvers.LinearProgram(
        c=np.asarray(c, dtype=float), sense=sense, a_ub=rows, b_ub=np.zeros(rows.shape[0]),
        a_eq=np.ones((1, L)), b_eq=np.array([1.0]), bounds=[(0.0, 1.0)] * L))
    if res.status == "infeasible":
        return None
    assert res.status == "optimal", res.message
    return float(res.value)


def lp_face_min_weight(model: MarketModel, eps: float, c: np.ndarray, target: float) -> float:
    """max min leaf weight over the closed eps-martingale set with c.q
    within 1e-9 (1 + |target|) of target, one LP; 0 without a point."""
    L = model.n_leaves
    scale = 1e-9 * (1.0 + abs(target))
    rows = _measure_lp_rows(model, eps)
    c = np.asarray(c, dtype=float)
    a_ub = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]),
                      np.concatenate([c, [0.0]]), np.concatenate([-c, [0.0]]),
                      np.hstack([-np.eye(L), np.ones((L, 1))])])
    b_ub = np.concatenate([np.zeros(rows.shape[0]), [target + scale, scale - target],
                           np.zeros(L)])
    res = solvers.solve_lp(solvers.LinearProgram(
        c=np.eye(L + 1)[L], sense="max", a_ub=a_ub, b_ub=b_ub,
        a_eq=np.concatenate([np.ones(L), [0.0]])[None, :], b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * (L + 1)))
    return float(res.value) if res.status == "optimal" else 0.0


def bottleneck_transport_arrays(inst):
    """``solvers.bottleneck_transport`` as one array computation: the rows
    and columns of positive mass are always cut out with index arrays, the
    lower bound is taken with numpy, and the flow is scattered back."""
    from epsarb.solvers import TransportResult, _threshold_flow
    total = float(inst.source.sum())
    plan = np.zeros_like(inst.cost)
    if total <= 0.0:
        return TransportResult(0.0, plan)
    rows = np.flatnonzero(inst.source > 0)
    cols = np.flatnonzero(inst.target > 0)
    cost = inst.cost[np.ix_(rows, cols)]
    lam = float(max(cost.min(axis=1).max(), cost.min(axis=0).max()))
    lam, flow = _threshold_flow(cost.tolist(), inst.source[rows].tolist(),
                                inst.target[cols].tolist(), lam, total)
    plan[np.ix_(rows, cols)] = flow
    return TransportResult(lam, plan / plan.sum() * total)


def log_transport_arrays(log_weights, source, target):
    """``solvers.log_transport`` as one array computation: index arrays cut
    out the block of positive mass, the flow fills a block array, and a
    boolean mask of its positive cells gives the value."""
    from epsarb.solvers import TransportResult, _log_simplex
    v = np.asarray(log_weights, dtype=float)
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if np.isnan(v).any() or np.isposinf(v).any():
        raise ValueError("log-weights must be below +inf")
    plan = np.zeros(v.shape)
    rows = np.flatnonzero(src > 0)
    cols = np.flatnonzero(tgt > 0)
    if not rows.size or not cols.size:
        return TransportResult(-math.inf, plan)
    sub = v[np.ix_(rows, cols)]
    flow = _log_simplex(sub.tolist(), src[rows].tolist(), tgt[cols].tolist())
    block = np.zeros(sub.shape)
    for (i, j), x in flow.items():
        block[i, j] = x
    plan[np.ix_(rows, cols)] = block
    keep = block > 0.0
    top = float(sub[keep].max())
    if top == -math.inf:
        return TransportResult(-math.inf, plan)
    return TransportResult(top + math.log(float(block[keep] @ np.exp(sub[keep] - top))), plan)


def log_simplex_reference(v: list, supply: list, demand: list) -> dict:
    """``solvers._log_simplex`` as it priced every nonbasic cell before the
    dual potentials: each cell's cycle is walked in the basis tree and
    tested in the log domain, equal terms cancelled, against 1 - exp(-1e-13)
    of its - side.  The north-west start, Bland's rule, the leaving cell
    and the flow arithmetic are the kernel's; a frozen copy, so the live
    kernel's pivots and flow bits can be compared with it."""
    m, n = len(supply), len(demand)
    tiny = 1e-14 * sum(supply)
    flow = {}
    i = j = 0
    left_i, left_j = supply[0], demand[0]
    while True:
        x = min(left_i, left_j)
        flow[i, j] = x
        left_i = 0.0 if left_i - x <= tiny else left_i - x
        left_j = 0.0 if left_j - x <= tiny else left_j - x
        if i == m - 1 and j == n - 1:
            break
        if i < m - 1 and (left_i <= left_j or j == n - 1):
            i += 1
            left_i = supply[i]
        else:
            j += 1
            left_j = demand[j]
    shrink = math.exp(-1e-13)
    seen = set()
    while True:
        basis = frozenset(flow)
        if basis in seen:
            raise RuntimeError("transportation simplex revisited a basis")
        seen.add(basis)
        adj = [[] for _ in range(m + n)]
        for a, b in flow:
            adj[a].append(m + b)
            adj[m + b].append(a)
        parent, depth, order = [-1] * (m + n), [0] * (m + n), [0]
        for a in order:
            for b in adj[a]:
                if b != parent[a]:
                    parent[b], depth[b] = a, depth[a] + 1
                    order.append(b)
        enter = None
        for i, j in itertools.product(range(m), range(n)):
            if (i, j) in flow:
                continue
            plus, minus = _reference_cycle(parent, depth, m, i, j)
            if _reference_improves([v[i][j]] + [v[a][b] for a, b in plus],
                                   [v[a][b] for a, b in minus], shrink):
                enter = (i, j)
                break
        if enter is None:
            return flow
        theta = min(flow[c] for c in minus)
        for c in plus:
            flow[c] += theta
        for c in minus:
            flow[c] = 0.0 if flow[c] - theta <= tiny else flow[c] - theta
        del flow[min(c for c in minus if flow[c] == 0.0)]
        flow[enter] = theta


def _reference_cycle(parent: list, depth: list, m: int, i: int, j: int) -> tuple:
    """(+ cells, - cells) of the cycle cell (i, j) closes in the basis tree."""
    plus, minus = [], []
    a, b = i, m + j
    while a != b:
        if depth[a] >= depth[b]:
            p = parent[a]
            if a < m:
                minus.append((a, p - m))
            else:
                plus.append((p, a - m))
            a = p
        else:
            p = parent[b]
            if b >= m:
                minus.append((p, b - m))
            else:
                plus.append((b, p - m))
            b = p
    return plus, minus


def _reference_improves(plus: list, minus: list, shrink: float) -> bool:
    """sum exp(plus) < shrink * sum exp(minus), equal terms cancelled."""
    for x in plus[:]:
        if x in minus:
            minus.remove(x)
            plus.remove(x)
    if not minus:
        return False
    top = max(plus + minus)
    if top == -math.inf:
        return False
    return (sum([math.exp(x - top) for x in plus])
            < shrink * sum([math.exp(x - top) for x in minus]))


# ---------------------------------------------------------------------------
# The market operations and their results, for the program store's tests
# ---------------------------------------------------------------------------


def fresh_copy(model: MarketModel) -> MarketModel:
    """The same market as a new model, which keeps nothing yet."""
    return MarketModel(model.T, model.d, model.ids, model.times, model.parent,
                       model.cond_prob, model.prices)


def market_operations(model: MarketModel, norms: NormPair, eps_star: float) -> list:
    """The eight market operations at 0.5 and 1.5 eps_star, as the
    benchmark's market workloads run them, as (name, call of a model)."""
    import epsarb as ea

    lo, hi = 0.5 * eps_star, 1.5 * eps_star

    def payoff(m):
        return Payoff.from_function(m, lambda path: float(np.linalg.norm(path[-1] - path[0])))

    return [
        ("detect_lo", lambda m: ea.detect_strict_arbitrage(m, lo, norms)),
        ("detect_hi", lambda m: ea.detect_strict_arbitrage(m, hi, norms)),
        ("critical_value", lambda m: ea.critical_value(m, norms)),
        ("find_emm_lo", lambda m: ea.find_eps_martingale_measure(m, lo, norms)),
        ("find_emm_hi", lambda m: ea.find_eps_martingale_measure(m, hi, norms)),
        ("na_prime", lambda m: ea.check_na_prime(m, hi, norms)),
        ("superhedge", lambda m: ea.superhedge_price(m, hi, norms, payoff(m))),
        ("fair_range", lambda m: ea.fair_price_range(m, hi, norms, payoff(m))),
    ]


def result_bytes(x) -> bytes:
    """A result's canonical bytes: type names, dataclass fields, mapping
    items, sequence items, arrays by dtype, shape and bytes, and floats by
    their bits, so equal bytes mean equal results to the last bit (0.0 and
    -0.0 apart).  A read-only mapping reads as the dict it views."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        parts = [type(x).__name__.encode()] + [
            f.name.encode() + result_bytes(getattr(x, f.name)) for f in dataclasses.fields(x)]
    elif isinstance(x, Mapping):
        parts = [b"map"] + [result_bytes(k) + result_bytes(v) for k, v in x.items()]
    elif isinstance(x, (list, tuple)):
        parts = [type(x).__name__.encode()] + [result_bytes(v) for v in x]
    elif isinstance(x, np.ndarray):
        parts = [b"array", x.dtype.str.encode(), repr(x.shape).encode(), x.tobytes()]
    elif isinstance(x, (bool, np.bool_)):
        parts = [b"bool", repr(bool(x)).encode()]
    elif isinstance(x, (float, np.floating)):
        parts = [type(x).__name__.encode(), struct.pack("<d", float(x))]
    else:
        parts = [type(x).__name__.encode(), repr(x).encode()]
    return b"(" + b",".join(parts) + b")"


def result_arrays(x) -> list:
    """Every array inside a result, by the walk of ``result_bytes``."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return [a for f in dataclasses.fields(x) for a in result_arrays(getattr(x, f.name))]
    if isinstance(x, Mapping):
        return [a for v in x.values() for a in result_arrays(v)]
    if isinstance(x, (list, tuple)):
        return [a for v in x for a in result_arrays(v)]
    return [x] if isinstance(x, np.ndarray) else []


def _callers() -> frozenset:
    """The names of the functions on the caller's stack."""
    frame, names = sys._getframe(2), set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return frozenset(names)


def count_solves(monkeypatch) -> list:
    """Record each cone solve and HiGHS run from now on, as ("lp",
    "cone", or "power" for a cone program with power blocks; the names of
    the functions on the stack): a kept program's result is returned by
    its store and never enters the program's own function.  HiGHS
    instances are kept per thread, so a fresh one is counted.  A counter
    installed over another counts through it: undo the first one."""
    core = solvers._scipy_extension("scipy.optimize._highspy._core")
    solves = []

    class Counted(core._Highs):
        def run(self):
            solves.append(("lp", _callers()))
            return super().run()

    real_socp = programs.solve_socp

    def counted_socp(prog):
        solves.append(("power" if prog.power else "cone", _callers()))
        return real_socp(prog)

    monkeypatch.setattr(core, "_Highs", Counted)
    monkeypatch.setattr(solvers, "_THREAD", threading.local())
    monkeypatch.setattr(programs, "solve_socp", counted_socp)
    return solves


def count_node_programs(monkeypatch) -> list:
    """Record each node program of the measure inductions from now on, as
    ("node", the names of the functions on the stack), the form of
    ``count_solves``: a closed-form node solves nothing, so only this
    counter sees it.  The polytope nodes of one time and child count run
    as one batch, recorded once."""
    runs = []

    def counting(real):
        def counted(*args, **kwargs):
            runs.append(("node", _callers()))
            return real(*args, **kwargs)
        return counted

    for name in ("_node_program", "_polytope_nodes"):
        monkeypatch.setattr(programs, name, counting(getattr(programs, name)))
    return runs


def solves_in(solves: list, program: str) -> int:
    """How many of the recorded solves ran inside ``program``."""
    return sum(program in names for _, names in solves)
