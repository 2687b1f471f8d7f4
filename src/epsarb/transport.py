"""Bicausal transport between discrete path laws.

Distances are computed by backward induction over matched node pairs: the
stage subproblem couples the two conditional child laws, a bottleneck
transport for the sup-cost distances and an exact min-cost transport (in the
log domain) for the exponential divergence.  Stage plans are independent
across node pairs, which is exactly the decomposition certified against the
global bicausal-polytope solvers below on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import logsumexp

from .market import MarketModel, NormPair, PathLaw
from .solvers import (TransportInstance, _marginal_system, bottleneck_transport,
                      discrete_ot, linprog)

_LOG_TINY = -745.0  # log of the smallest normal double; clamps underflow


def _norms(diff: np.ndarray, q: float) -> np.ndarray:
    """q-norm of every vector along the last axis (q = 2 as a dot product)."""
    if q == math.inf:
        return np.max(np.abs(diff), axis=-1)
    if q == 2.0:
        return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    return np.sum(np.abs(diff) ** q, axis=-1) ** (1.0 / q)


def _stage_costs(lawx: PathLaw, lawy: PathLaw, xs: list, ys: list, t: int, q: float,
                 increments: bool, include_t0: bool) -> np.ndarray:
    """Costs of all time-t node pairs: levels |X_t - Y_t|_q or increments
    |dX_t - dY_t|_q.

    The time-0 increment is the level itself; ``include_t0`` drops the t = 0
    term of the increments variant.
    """
    if increments:
        if t == 0 and not include_t0:
            return np.zeros((len(xs), len(ys)))
        vx, vy = lawx.delta[xs], lawy.delta[ys]
    else:
        vx, vy = lawx.prices[xs], lawy.prices[ys]
    return _norms(vx[:, None, :] - vy[None, :, :], q)


@dataclass(frozen=True)
class BicausalCoupling:
    """Nested stage plans: a root-pair plan plus one conditional plan per
    matched node pair with positive mass.

    Stage plans are conditional couplings of the two child laws, so both
    causality directions hold by construction.
    """

    lawx: PathLaw
    lawy: PathLaw
    root_plan: np.ndarray
    stage_plans: dict

    def joint_leaf_matrix(self, support_tol: float = 0.0) -> np.ndarray:
        """Flatten to a joint law on leaf pairs (rows: lawx leaves)."""
        posx = {v: k for k, v in enumerate(self.lawx.leaves)}
        posy = {v: k for k, v in enumerate(self.lawy.leaves)}
        out = np.zeros((self.lawx.n_leaves, self.lawy.n_leaves))
        stack = []
        for i, rx in enumerate(self.lawx.roots):
            for j, ry in enumerate(self.lawy.roots):
                mass = self.root_plan[i, j]
                if mass > support_tol:
                    stack.append((rx, ry, mass))
        while stack:
            vx, vy, mass = stack.pop()
            cx = self.lawx.children[vx]
            cy = self.lawy.children[vy]
            if not cx and not cy:
                out[posx[vx], posy[vy]] += mass
                continue
            plan = self.stage_plans[(vx, vy)]
            for i, wx in enumerate(cx):
                for j, wy in enumerate(cy):
                    m = mass * plan[i, j]
                    if m > support_tol:
                        stack.append((wx, wy, m))
        return out

    def path_cost_matrix(self, q: float, increments: bool = False,
                         include_t0: bool = True) -> np.ndarray:
        return path_cost_matrix(self.lawx, self.lawy, q, increments, include_t0)

    def esssup_cost(self, q: float, increments: bool = False,
                    include_t0: bool = True, support_tol: float = 1e-12) -> float:
        """Largest path-pair cost charged with positive mass."""
        joint = self.joint_leaf_matrix()
        costs = self.path_cost_matrix(q, increments, include_t0)
        mask = joint > support_tol
        return float(np.max(costs[mask])) if mask.any() else 0.0

    def log_exp_cost(self, q: float, lam: float, increments: bool = False,
                     include_t0: bool = True) -> float:
        """(1/lam) log E_pi[exp(lam * path cost)], in the log domain."""
        joint = self.joint_leaf_matrix().ravel()
        costs = self.path_cost_matrix(q, increments, include_t0).ravel()
        keep = joint > 0.0
        return float(logsumexp(lam * costs[keep], b=joint[keep])) / lam

    def marginal_errors(self) -> tuple[float, float]:
        joint = self.joint_leaf_matrix()
        ex = float(np.max(np.abs(joint.sum(axis=1) - self.lawx.leaf_prob)))
        ey = float(np.max(np.abs(joint.sum(axis=0) - self.lawy.leaf_prob)))
        return ex, ey

    def to_dict(self) -> dict:
        plans = {f"{self.lawx.ids[vx]}|{self.lawy.ids[vy]}":
                 [[float(x) for x in row] for row in plan]
                 for (vx, vy), plan in sorted(self.stage_plans.items())}
        return {"root_plan": [[float(x) for x in row] for row in self.root_plan],
                "root_ids_x": [self.lawx.ids[v] for v in self.lawx.roots],
                "root_ids_y": [self.lawy.ids[v] for v in self.lawy.roots],
                "stage_plans": plans}


@dataclass(frozen=True)
class DistanceResult:
    value: float
    coupling: BicausalCoupling


def _check_shapes(lawx: PathLaw, lawy: PathLaw) -> None:
    if lawx.T != lawy.T or lawx.d != lawy.d:
        raise ValueError(f"path laws have mismatched shape: T={lawx.T},{lawy.T} "
                         f"d={lawx.d},{lawy.d}")


def _nodes_at(law: PathLaw, t: int) -> list[int]:
    return [v for v in range(law.n_nodes) if law.times[v] == t]


def _bottleneck_dp(lawx: PathLaw, lawy: PathLaw, q: float, increments: bool,
                   variants: tuple = (True,)) -> tuple:
    """Backward bottleneck DP, one result per ``include_t0`` flag in ``variants``.

    The variants differ only in the t = 0 stage costs, so the stage
    transports are solved once and only the root solve is repeated.
    """
    value_to_go: dict[tuple, float] = {}
    below: dict[tuple, Optional[float]] = {}  # root pairs: their children's bottleneck
    plans: dict[tuple, np.ndarray] = {}
    for t in range(lawx.T, -1, -1):
        xs, ys = _nodes_at(lawx, t), _nodes_at(lawy, t)
        stage = _stage_costs(lawx, lawy, xs, ys, t, q, increments, True) if t else None
        for a, vx in enumerate(xs):
            cx = lawx.children[vx]
            for b, vy in enumerate(ys):
                rest = None
                if cx:
                    cy = lawy.children[vy]
                    costs = np.array([[value_to_go[(wx, wy)] for wy in cy] for wx in cx])
                    inst = TransportInstance(costs, lawx.cond_prob[list(cx)],
                                             lawy.cond_prob[list(cy)])
                    res = bottleneck_transport(inst)
                    rest = res.value
                    plans[(vx, vy)] = res.plan
                if t:
                    c = float(stage[a, b])
                    value_to_go[(vx, vy)] = c if rest is None else c + rest
                else:
                    below[(vx, vy)] = rest
    rx, ry = list(lawx.roots), list(lawy.roots)
    out = []
    for include_t0 in variants:
        stage = _stage_costs(lawx, lawy, rx, ry, 0, q, increments, include_t0)
        top = np.array([[float(stage[a, b]) if below[(vx, vy)] is None
                         else float(stage[a, b]) + below[(vx, vy)]
                         for b, vy in enumerate(ry)] for a, vx in enumerate(rx)])
        res = bottleneck_transport(TransportInstance(top, lawx.cond_prob[rx],
                                                     lawy.cond_prob[ry]))
        out.append(DistanceResult(float(res.value), BicausalCoupling(lawx, lawy, res.plan, plans)))
    return tuple(out)


def aw_inf_delta(lawx: PathLaw, lawy: PathLaw, q: float = 2.0,
                 include_t0: bool = True) -> DistanceResult:
    """Adapted sup-distance on increment paths (time-0 increment = level).

    Backward-induction bottleneck: stage cost |dX_t - dY_t|_q plus the child
    value, minimized over stage couplings; the returned coupling attains the
    value.
    """
    _check_shapes(lawx, lawy)
    return _bottleneck_dp(lawx, lawy, q, increments=True, variants=(include_t0,))[0]


def aw_inf(lawx: PathLaw, lawy: PathLaw, q: float = 2.0) -> DistanceResult:
    """Adapted sup-distance on level paths: esssup of sum_t |X_t - Y_t|_q."""
    _check_shapes(lawx, lawy)
    return _bottleneck_dp(lawx, lawy, q, increments=False)[0]


def path_cost_matrix(lawx: PathLaw, lawy: PathLaw, q: float,
                     increments: bool = False, include_t0: bool = True) -> np.ndarray:
    """sum_t per-time q-norm distance for every leaf-path pair."""
    px = lawx.leaf_paths()
    py = lawy.leaf_paths()
    if increments:
        dx = np.diff(np.concatenate([np.zeros((px.shape[0], 1, lawx.d)), px], axis=1), axis=1)
        dy = np.diff(np.concatenate([np.zeros((py.shape[0], 1, lawy.d)), py], axis=1), axis=1)
        if not include_t0:
            dx = dx[:, 1:]
            dy = dy[:, 1:]
        px, py = dx, dy
    return _norms(px[:, None, :, :] - py[None, :, :, :], q).sum(axis=2)


def w_inf(lawx: PathLaw, lawy: PathLaw, q: float = 2.0, increments: bool = False,
          include_t0: bool = True):
    """Non-causal sup-distance: bottleneck transport on whole-path costs."""
    _check_shapes(lawx, lawy)
    costs = path_cost_matrix(lawx, lawy, q, increments, include_t0)
    return bottleneck_transport(TransportInstance(costs, lawx.leaf_prob, lawy.leaf_prob))


def _logexp_dp(lawx: PathLaw, lawy: PathLaw, q: float, lam: float,
               increments: bool, include_t0: bool) -> DistanceResult:
    """Multiplicative backward DP in the log domain."""
    log_value: dict[tuple, float] = {}
    plans: dict[tuple, np.ndarray] = {}

    def _inner(values: np.ndarray, src: np.ndarray, tgt: np.ndarray):
        shift = float(np.max(values))
        weights = np.exp(np.maximum(values - shift, _LOG_TINY))
        res = discrete_ot(TransportInstance(weights, src, tgt))
        if res.value > 1e-280:
            return shift + math.log(res.value), res.plan
        # Extreme spread: every usable weight underflowed, so take the
        # lexicographic limit — bottleneck level plus the log of the least
        # mass any admissible plan must park on the top-level cells.
        btl = bottleneck_transport(TransportInstance(values, src, tgt))
        level = btl.value
        tol = 1e-12 * (1.0 + abs(level))
        allowed = values <= level + tol
        top = (values >= level - tol) & allowed
        m, n = values.shape
        idx = np.flatnonzero(allowed.ravel())
        cvec = top.ravel()[idx].astype(float)
        a_eq = _marginal_system(m, n)[:, idx]
        res2 = linprog(c=cvec, A_eq=a_eq, b_eq=np.concatenate([src, tgt]),
                       bounds=[(0, None)] * idx.size)
        if res2.status != 0 or res2.fun <= 0.0:
            return level, btl.plan
        plan = np.zeros(m * n)
        plan[idx] = np.maximum(res2.x, 0.0)
        return level + math.log(res2.fun), plan.reshape(m, n)

    for t in range(lawx.T, -1, -1):
        xs, ys = _nodes_at(lawx, t), _nodes_at(lawy, t)
        stage = lam * _stage_costs(lawx, lawy, xs, ys, t, q, increments, include_t0)
        for a, vx in enumerate(xs):
            cx = lawx.children[vx]
            for b, vy in enumerate(ys):
                c = float(stage[a, b])
                if not cx:
                    log_value[(vx, vy)] = c
                    continue
                cy = lawy.children[vy]
                vals = np.array([[log_value[(wx, wy)] for wy in cy] for wx in cx])
                lv, plan = _inner(vals, lawx.cond_prob[list(cx)], lawy.cond_prob[list(cy)])
                log_value[(vx, vy)] = c + lv
                plans[(vx, vy)] = plan
    rx, ry = list(lawx.roots), list(lawy.roots)
    top = np.array([[log_value[(a, b)] for b in ry] for a in rx])
    total, root_plan = _inner(top, lawx.cond_prob[rx], lawy.cond_prob[ry])
    coupling = BicausalCoupling(lawx, lawy, root_plan, plans)
    return DistanceResult(total / lam, coupling)


def elog_divergence(lawx: PathLaw, lawy: PathLaw, q: float = 2.0, lam: float = 1.0,
                    increments: bool = False, include_t0: bool = True) -> DistanceResult:
    """Adapted log-exponential divergence (1/lam) log min E[exp(lam |X-Y|-cost)].

    Computed entirely in the log domain so large lam (up to ~1e4) survives;
    increases to the adapted sup-distance as lam grows.
    """
    _check_shapes(lawx, lawy)
    if lam <= 0:
        raise ValueError("lam must be positive")
    return _logexp_dp(lawx, lawy, q, lam, increments, include_t0)


def laplace_smoothed_esssup(values, probs, lam: float) -> float:
    """(1/lam) log sum_i p_i exp(lam v_i), evaluated stably in the log domain."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to one")
    if lam <= 0:
        raise ValueError("lam must be positive")
    keep = probs > 0
    return float(logsumexp(lam * values[keep], b=probs[keep])) / lam


# ---------------------------------------------------------------------------
# Knothe-Rosenblatt rearrangement (real-valued paths)
# ---------------------------------------------------------------------------


def _comonotone_plan(vals_x: np.ndarray, px: np.ndarray,
                     vals_y: np.ndarray, py: np.ndarray,
                     tol: float = 1e-12) -> np.ndarray:
    """Quantile coupling of two discrete laws on R: northwest corner after sorting."""
    ox = np.argsort(vals_x, kind="stable")
    oy = np.argsort(vals_y, kind="stable")
    plan = np.zeros((px.size, py.size))
    i = j = 0
    rx = px[ox[0]] if px.size else 0.0
    ry = py[oy[0]] if py.size else 0.0
    while i < px.size and j < py.size:
        m = min(rx, ry)
        plan[ox[i], oy[j]] += m
        rx -= m
        ry -= m
        if rx <= tol:
            i += 1
            rx = px[ox[i]] if i < px.size else 0.0
        if ry <= tol:
            j += 1
            ry = py[oy[j]] if j < py.size else 0.0
    return plan


def knothe_rosenblatt(lawx: PathLaw, lawy: PathLaw) -> BicausalCoupling:
    """Stage-wise quantile coupling driven by shared uniforms (d = 1 only)."""
    _check_shapes(lawx, lawy)
    if lawx.d != 1:
        raise ValueError("the quantile rearrangement is defined for d = 1 paths")
    rx, ry = list(lawx.roots), list(lawy.roots)
    root_plan = _comonotone_plan(lawx.prices[rx, 0], lawx.cond_prob[rx],
                                 lawy.prices[ry, 0], lawy.cond_prob[ry])
    plans: dict[tuple, np.ndarray] = {}
    stack = [(rx[i], ry[j]) for i in range(len(rx)) for j in range(len(ry))
             if root_plan[i, j] > 0.0]
    while stack:
        vx, vy = stack.pop()
        cx, cy = lawx.children[vx], lawy.children[vy]
        if not cx:
            continue
        plan = _comonotone_plan(lawx.prices[list(cx), 0], lawx.cond_prob[list(cx)],
                                lawy.prices[list(cy), 0], lawy.cond_prob[list(cy)])
        plans[(vx, vy)] = plan
        for i, wx in enumerate(cx):
            for j, wy in enumerate(cy):
                if plan[i, j] > 0.0:
                    stack.append((wx, wy))
    return BicausalCoupling(lawx, lawy, root_plan, plans)


# ---------------------------------------------------------------------------
# Adapted empirical measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantizerConfig:
    """Grid quantizer for sample paths on [0,1]^(d(T+1)).

    Resolution exponent r = (T+2)^-1 for d = 1 and (d(T+1))^-1 otherwise;
    each axis carries round(N^r) equal half-open cells (the last one closed)
    mapped to their centers, so the cells partition [0,1] exactly.
    """

    N: int
    T: int
    d: int
    r: float
    cells_per_axis: int
    nominal_edge: float

    @staticmethod
    def for_samples(N: int, T: int, d: int) -> "QuantizerConfig":
        if N < 1:
            raise ValueError("need at least one sample")
        r = 1.0 / (T + 2) if d == 1 else 1.0 / (d * (T + 1))
        cells = max(1, round(N ** r))
        return QuantizerConfig(N, T, d, r, cells, N ** (-r))

    def centers(self) -> np.ndarray:
        k = self.cells_per_axis
        return (np.arange(k) + 0.5) / k

    def quantize(self, u: np.ndarray) -> np.ndarray:
        k = self.cells_per_axis
        idx = np.minimum(np.floor(np.asarray(u) * k).astype(int), k - 1)
        return (idx + 0.5) / k


def adapted_empirical(samples: np.ndarray, config: Optional[QuantizerConfig] = None) -> PathLaw:
    """Grid-quantized empirical path law of iid sample paths in [0,1]^(d(T+1)).

    Samples may be given as (N, T+1, d) or flat (N, d(T+1)); equal-weight
    atoms landing in the same cells merge into one tree node.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 2 and config is not None:
        samples = samples.reshape(samples.shape[0], config.T + 1, config.d)
    if samples.ndim == 2:
        samples = samples[:, :, None]
    N, steps, d = samples.shape
    if config is None:
        config = QuantizerConfig.for_samples(N, steps - 1, d)
    if config.N != N or config.T != steps - 1 or config.d != d:
        raise ValueError("quantizer config does not match the sample array")
    if np.any(samples < 0.0) or np.any(samples > 1.0):
        raise ValueError("sample coordinates must lie in [0, 1]")
    quantized = config.quantize(samples)
    return MarketModel.from_paths(quantized, np.full(N, 1.0 / N))


def sample_paths(law: PathLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """iid draws from a discrete path law, shape (n, T+1, d)."""
    paths = law.leaf_paths()
    idx = rng.choice(law.n_leaves, size=n, p=law.leaf_prob)
    return paths[idx]


# ---------------------------------------------------------------------------
# Global bicausal-polytope reference solvers (dual route for the DP)
# ---------------------------------------------------------------------------


def bicausal_rows(lawx: PathLaw, lawy: PathLaw) -> tuple[np.ndarray, np.ndarray]:
    """Equality system (marginals + two-sided causality) for the joint leaf law.

    Causality from X to Y: for every time t, x-leaf x with time-t ancestor u,
    and y-node w at t,  pi(X = x, Y in w) P(X in u) = pi(X in u, Y in w) P(X = x);
    these are linear in the flattened (n_leaves_x x n_leaves_y) variable.  The
    symmetric family handles causality from Y to X.
    """
    Kx, Ky = lawx.n_leaves, lawy.n_leaves
    nvar = Kx * Ky

    def flat(i, j):
        return i * Ky + j

    rows = []
    rhs = []
    for i in range(Kx):
        row = np.zeros(nvar)
        row[i * Ky:(i + 1) * Ky] = 1.0
        rows.append(row)
        rhs.append(float(lawx.leaf_prob[i]))
    for j in range(Ky):
        row = np.zeros(nvar)
        row[j::Ky] = 1.0
        rows.append(row)
        rhs.append(float(lawy.leaf_prob[j]))

    def causality(law_a: PathLaw, law_b: PathLaw, transpose: bool):
        # law_a plays the conditioning side X; leaves_under holds leaf positions.
        for t in range(law_a.T):
            for bnode in _nodes_at(law_b, t):
                b_idx = list(law_b.leaves_under[bnode])
                for ia in range(law_a.n_leaves):
                    u = law_a.leaves[ia]
                    while law_a.times[u] > t:
                        u = int(law_a.parent[u])
                    u_idx = list(law_a.leaves_under[u])
                    if len(u_idx) == 1:
                        continue  # X = x and X in u are the same event
                    pu = float(law_a.node_prob[u])
                    pa = float(law_a.leaf_prob[ia])
                    row = np.zeros(nvar)
                    for jb in b_idx:
                        row[flat(ia, jb) if not transpose else flat(jb, ia)] += pu
                    for ka in u_idx:
                        for jb in b_idx:
                            row[flat(ka, jb) if not transpose else flat(jb, ka)] -= pa
                    rows.append(row)
                    rhs.append(0.0)

    causality(lawx, lawy, transpose=False)
    causality(lawy, lawx, transpose=True)
    return np.vstack(rows), np.array(rhs)


def global_bicausal_logexp(lawx: PathLaw, lawy: PathLaw, q: float, lam: float,
                           increments: bool = False, include_t0: bool = True) -> float:
    """Reference value of the log-exponential divergence via one joint LP."""
    a_eq, b_eq = bicausal_rows(lawx, lawy)
    costs = path_cost_matrix(lawx, lawy, q, increments, include_t0).ravel()
    shift = lam * float(np.max(costs))
    c = np.exp(np.maximum(lam * costs - shift, _LOG_TINY))
    res = linprog(c=c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * c.size)
    if res.status != 0:
        raise RuntimeError(f"global bicausal LP failed: {res.status} {res.message}")
    return (shift + math.log(max(res.fun, math.exp(_LOG_TINY)))) / lam


def global_bicausal_bottleneck(lawx: PathLaw, lawy: PathLaw, q: float,
                               increments: bool = False, include_t0: bool = True,
                               feas_tol: float = 1e-9) -> float:
    """Reference sup-distance: threshold bisection over the bicausal polytope."""
    a_eq, b_eq = bicausal_rows(lawx, lawy)
    costs = path_cost_matrix(lawx, lawy, q, increments, include_t0).ravel()
    levels = np.unique(costs)

    def feasible(lam: float) -> bool:
        ub = np.where(costs <= lam + 1e-13 * (1 + abs(lam)), None, 0.0)
        bounds = [(0, u) for u in ub]
        res = linprog(c=np.zeros(costs.size), A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds)
        return res.status == 0

    lo, hi = 0, levels.size - 1
    if feasible(float(levels[0])):
        return float(levels[0])
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(levels[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


# ---------------------------------------------------------------------------
# Stability of arbitrage quantities under the adapted sup-distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Checkable stability inequalities between two markets.

    Slacks are signed so that non-negative means the inequality holds:
    existence of approximate martingale measures transfers within the
    distance, critical levels differ by at most the distance, and fair-price
    ranges widen by the Lipschitz-scaled distance.
    """

    distance: float
    distance_no_t0: float
    eps_level: float
    eps_x: float
    eps_y: float
    critical_slack: float
    emm_x_feasible: bool
    emm_y_shifted_feasible: Optional[bool]
    pushforward_measure: Optional[np.ndarray]
    pushforward_deviation: Optional[float]
    pushforward_slack: Optional[float]
    fair_x: Optional[object]
    fair_y: Optional[object]
    fair_lower_slack: Optional[float]
    fair_upper_slack: Optional[float]
    notes: tuple

    def to_dict(self, lawy: PathLaw) -> dict:
        out = {
            "distance": self.distance,
            "distance_no_t0": self.distance_no_t0,
            "eps": self.eps_level,
            "eps_P": self.eps_x,
            "eps_P_prime": self.eps_y,
            "critical_slack": self.critical_slack,
            "emm_feasible": self.emm_x_feasible,
            "emm_shifted_feasible": self.emm_y_shifted_feasible,
            "pushforward_deviation": self.pushforward_deviation,
            "pushforward_slack": self.pushforward_slack,
            "notes": list(self.notes),
        }
        if self.pushforward_measure is not None:
            out["pushforward_weights"] = {
                lawy.ids[leaf]: float(self.pushforward_measure[k])
                for k, leaf in enumerate(lawy.leaves)}
        if self.fair_x is not None:
            out["fair_range_P"] = self.fair_x.to_dict()
        if self.fair_y is not None:
            out["fair_range_P_prime"] = self.fair_y.to_dict()
        if self.fair_lower_slack is not None:
            out["fair_lower_slack"] = self.fair_lower_slack
            out["fair_upper_slack"] = self.fair_upper_slack
        return out


def pushforward_measure(coupling: BicausalCoupling, weights_x: np.ndarray) -> np.ndarray:
    """Second marginal of pi^x(dy) Q(dx): reweight the coupling kernels by Q."""
    joint = coupling.joint_leaf_matrix()
    px = coupling.lawx.leaf_prob
    kernel = joint / px[:, None]
    return weights_x @ kernel


def stability_report(lawx: PathLaw, lawy: PathLaw, eps: float, norms: NormPair,
                     payoff_fn: Optional[Callable] = None,
                     lipschitz: Optional[float] = None,
                     critical_method: str = "dual",
                     tol: float = 1e-8) -> StabilityReport:
    """Distance plus the three transfer inequalities between two markets.

    Reports the adapted increment sup-distance D (with and without the t = 0
    term), then checks: (i) an eps-feasible reference market stays feasible
    at eps + D in the perturbed one (both by re-solving and by pushing the
    witness through the optimal coupling); (ii) |eps(P) - eps(P')| <= D;
    (iii) with an L-Lipschitz claim and p > 1, the eps-fair range of P is
    contained in the (eps + L D)-fair range of P'.
    """
    from .arbitrage import critical_value
    from .market import MeasureWeights, Payoff, is_eps_martingale
    from .pricing import fair_price_range, find_eps_martingale_measure

    notes: list[str] = []
    _check_shapes(lawx, lawy)
    dres, dres_no_t0 = _bottleneck_dp(lawx, lawy, norms.q, increments=True,
                                      variants=(True, False))
    d_no_t0 = dres_no_t0.value
    D = dres.value
    eps_x = critical_value(lawx, norms, method=critical_method).epsilon
    eps_y = critical_value(lawy, norms, method=critical_method).epsilon
    critical_slack = D - abs(eps_x - eps_y)

    emm_x = find_eps_martingale_measure(lawx, eps, norms)
    emm_y_ok = None
    push = push_dev = push_slack = None
    if emm_x.feasible:
        emm_y = find_eps_martingale_measure(lawy, eps + D, norms)
        emm_y_ok = emm_y.feasible
        push = pushforward_measure(dres.coupling, emm_x.measure.weights)
        if np.min(push) > 0:
            q_push = MeasureWeights.from_array(lawy, push / push.sum())
            _, push_dev = is_eps_martingale(lawy, q_push, eps + D, norms)
            push_slack = eps + D - push_dev
        else:
            notes.append("pushforward witness lost support; skipped its deviation check")
    else:
        notes.append(f"reference market has no eps-martingale structure at {eps}")

    fair_x = fair_y = None
    fair_lo = fair_hi = None
    if payoff_fn is not None and lipschitz is not None:
        if norms.p == 1.0:
            notes.append("fair-range transfer needs p > 1; skipped")
        elif not emm_x.feasible:
            notes.append("fair-range transfer skipped: no structure in the reference market")
        else:
            shifted = eps + lipschitz * D
            emm_y_shift = find_eps_martingale_measure(lawy, shifted, norms)
            if not emm_y_shift.feasible:
                notes.append(
                    f"no eps-martingale structure at {shifted} in the perturbed market; "
                    "fair-range transfer skipped")
            else:
                fair_x = fair_price_range(lawx, eps, norms, Payoff.from_function(lawx, payoff_fn))
                fair_y = fair_price_range(lawy, shifted, norms, Payoff.from_function(lawy, payoff_fn))
                fair_lo = fair_x.lower - fair_y.lower
                fair_hi = fair_y.upper - fair_x.upper
    return StabilityReport(
        distance=D, distance_no_t0=d_no_t0, eps_level=eps, eps_x=eps_x, eps_y=eps_y,
        critical_slack=critical_slack, emm_x_feasible=emm_x.feasible,
        emm_y_shifted_feasible=emm_y_ok, pushforward_measure=push,
        pushforward_deviation=push_dev, pushforward_slack=push_slack,
        fair_x=fair_x, fair_y=fair_y, fair_lower_slack=fair_lo,
        fair_upper_slack=fair_hi, notes=tuple(notes))
