"""Correctness oracles owned by the benchmark.

They read only a market's arrays (children, increments, probabilities) and
compute with numpy and scipy directly, never through epsarb's solvers.

The critical level is eps(P) = max_v gamma(v), where gamma(v) is the least
q-norm of a convex combination of the one-step increments at node v:

* q = 2: the min-norm point of the simplex.  NNLS on [A'; 1'] u ~ [0; 1]
  splits into min_s s^2 gamma^2 + (s - 1)^2 over the mass s = sum(u), so
  u / sum(u) is an exact minimizer;
* d = 1: the increments straddle 0 (gamma = 0) or gamma is the least |dS|;
* q = inf: an LP, min t subject to -t <= (A'a)_i <= t on the simplex.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, nnls


def gamma(A: np.ndarray, q: float) -> float:
    """min over the simplex of |A' a|_q; A holds one increment per row."""
    k, d = A.shape
    if d == 1:
        c = A[:, 0]
        return 0.0 if c.min() <= 0.0 <= c.max() else float(np.min(np.abs(c)))
    if q == 2.0:
        u, _ = nnls(np.vstack([A.T, np.ones((1, k))]), np.concatenate([np.zeros(d), [1.0]]))
        return float(np.linalg.norm(A.T @ (u / u.sum())))
    if q == math.inf:
        a_ub = np.vstack([np.hstack([A.T, -np.ones((d, 1))]),
                          np.hstack([-A.T, -np.ones((d, 1))])])
        res = linprog(np.concatenate([np.zeros(k), [1.0]]), A_ub=a_ub, b_ub=np.zeros(2 * d),
                      A_eq=np.concatenate([np.ones(k), [0.0]])[None, :], b_eq=[1.0],
                      bounds=[(0.0, None)] * (k + 1), method="highs")
        if res.status != 0:
            raise RuntimeError(f"oracle LP failed: {res.message}")
        return float(res.fun)
    raise ValueError(f"no oracle for q = {q}")


def critical_level(model, q: float) -> float:
    return max(gamma(model.delta[list(model.children[v])], q) for v in model.internal)


def qnorm(x: np.ndarray, q: float) -> float:
    return float(np.max(np.abs(x))) if q == math.inf else float(np.sum(np.abs(x) ** q) ** (1.0 / q))


def leaf_paths(model) -> list[list[int]]:
    paths = []
    for leaf in model.leaves:
        path, v = [], leaf
        while v >= 0:
            path.append(v)
            v = int(model.parent[v])
        paths.append(path[::-1])
    return paths


def strategy_slacks(model, values: np.ndarray, eps: float, p: float) -> np.ndarray:
    """gain - eps * cost per leaf for holdings ``values`` (one row per node)."""
    out = []
    for path in leaf_paths(model):
        gain = sum(float(values[a] @ model.delta[b]) for a, b in zip(path, path[1:]))
        cost = sum(qnorm(values[a], p) for a in path[:-1])
        out.append(gain - eps * cost)
    return np.array(out)


def max_mean_increment(model, weights: np.ndarray, q: float) -> float:
    """max over internal nodes of |E_Q[dS | node]|_q for leaf weights Q."""
    mass = np.zeros(model.n_nodes)
    for k, path in enumerate(leaf_paths(model)):
        mass[path] += weights[k]
    worst = 0.0
    for v in model.internal:
        kids = list(model.children[v])
        mean = (mass[kids] @ model.delta[kids]) / mass[v]
        worst = max(worst, qnorm(mean, q))
    return worst


def path_costs(lawx, lawy, q: float, increments: bool, include_t0: bool) -> np.ndarray:
    """sum_t |X_t - Y_t|_q (or of increments) for every leaf pair."""
    def series(law):
        rows = []
        for path in leaf_paths(law):
            vals = law.delta[path] if increments else law.prices[path]
            rows.append(vals if include_t0 or not increments else vals[1:])
        return np.array(rows)

    sx, sy = series(lawx), series(lawy)
    diff = sx[:, None] - sy[None, :]
    if q == math.inf:
        return np.max(np.abs(diff), axis=3).sum(axis=2)
    return (np.sum(np.abs(diff) ** q, axis=3) ** (1.0 / q)).sum(axis=2)


def joint_law(coupling) -> np.ndarray:
    """Leaf-pair masses of a nested coupling: root plan times stage plans."""
    lawx, lawy = coupling.lawx, coupling.lawy
    posx = {v: k for k, v in enumerate(lawx.leaves)}
    posy = {v: k for k, v in enumerate(lawy.leaves)}
    out = np.zeros((lawx.n_leaves, lawy.n_leaves))
    stack = [(rx, ry, coupling.root_plan[i, j])
             for i, rx in enumerate(lawx.roots) for j, ry in enumerate(lawy.roots)]
    while stack:
        vx, vy, mass = stack.pop()
        if mass <= 0.0:
            continue
        cx, cy = lawx.children[vx], lawy.children[vy]
        if not cx:
            out[posx[vx], posy[vy]] += mass
            continue
        plan = coupling.stage_plans[(vx, vy)]
        stack.extend((wx, wy, mass * plan[i, j])
                     for i, wx in enumerate(cx) for j, wy in enumerate(cy))
    return out


def marginal_error(joint: np.ndarray, px: np.ndarray, py: np.ndarray) -> float:
    return max(float(np.max(np.abs(joint.sum(axis=1) - px))),
               float(np.max(np.abs(joint.sum(axis=0) - py))))
