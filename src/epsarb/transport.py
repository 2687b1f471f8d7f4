"""Bicausal transport between discrete path laws.

Distances are computed by backward induction over matched node pairs: the
stage subproblem couples the two conditional child laws, a bottleneck
transport for the sup-cost distances and an exact min-cost transport of
log-weights (``solvers.log_transport``) for the exponential divergence.
Stage plans are independent across node pairs, which is exactly the
decomposition certified against the global bicausal-polytope solvers below
on small instances.

The induction keeps one value table per time over the two laws' nodes, so
numpy work is done once per time and pure-Python work once per pair,
through the list-level kernels of ``solvers``; results and errors are
those of calling the public kernels pair by pair, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .market import (MarketModel, MeasureWeights, NormPair, PathLaw, Payoff, _check_level,
                     is_eps_martingale, qnorm)
from .solvers import (LinearProgram, TransportInstance, _bottleneck, _log_transport,
                      bottleneck_transport, log_transport, solve_lp)

_LOG_TINY = -745.0  # log of the smallest normal double; clamps underflow


def _logsumexp(a: np.ndarray, b: np.ndarray) -> float:
    """log sum_i b_i exp(a_i) for weights b >= 0, as scipy.special.logsumexp.

    The same formula, so results agree to the last bit: zero weights drop
    their term, the terms at the largest exponent a_max are split off with
    total weight m, and the rest sum to s after the shift by a_max, giving
    log1p(s / m) + log(m) + a_max.  A non-finite result (every weight zero,
    or an infinite exponent) is recomputed directly, as log sum b exp(a).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.where(b == 0, -np.inf, a)
        a_max = np.max(shifted)
        at_max = shifted == a_max
        m = np.sum(b * at_max)
        s = np.sum(b * np.exp(np.where(at_max, -np.inf, shifted) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(b * np.exp(a)))
    return float(out)


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
    return qnorm(vx[:, None, :] - vy[None, :, :], q)


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

    def joint_leaf_matrix(self) -> np.ndarray:
        """Flatten to a joint law on leaf pairs (rows: lawx leaves)."""
        posx = {v: k for k, v in enumerate(self.lawx.leaves)}
        posy = {v: k for k, v in enumerate(self.lawy.leaves)}
        out = np.zeros((self.lawx.n_leaves, self.lawy.n_leaves))
        stack = []
        for i, rx in enumerate(self.lawx.roots):
            for j, ry in enumerate(self.lawy.roots):
                mass = self.root_plan[i, j]
                if mass > 0.0:
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
                    if m > 0.0:
                        stack.append((wx, wy, m))
        return out

    def path_cost_matrix(self, q: float, increments: bool = False,
                         include_t0: bool = True) -> np.ndarray:
        return path_cost_matrix(self.lawx, self.lawy, q, increments, include_t0)

    def esssup_cost(self, q: float, increments: bool = False,
                    include_t0: bool = True) -> float:
        """Largest path-pair cost charged with mass above 1e-12."""
        joint = self.joint_leaf_matrix()
        costs = self.path_cost_matrix(q, increments, include_t0)
        mask = joint > 1e-12
        return float(np.max(costs[mask])) if mask.any() else 0.0

    def log_exp_cost(self, q: float, lam: float, increments: bool = False,
                     include_t0: bool = True) -> float:
        """(1/lam) log E_pi[exp(lam * path cost)], in the log domain."""
        joint = self.joint_leaf_matrix().ravel()
        costs = self.path_cost_matrix(q, increments, include_t0).ravel()
        keep = joint > 0.0
        return _logsumexp(lam * costs[keep], joint[keep]) / lam

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


def _check_q(q: float) -> None:
    """Raise ValueError unless q lies in [1, inf], where |.|_q is a norm;
    NaN fails."""
    if not q >= 1.0:
        raise ValueError(f"q must lie in [1, inf], got {q}")


def _stages(law: PathLaw) -> list[list[int]]:
    """The law's nodes at each time 0..T, in index order, from one pass."""
    stages: list[list[int]] = [[] for _ in range(law.T + 1)]
    for v, t in enumerate(law.times.tolist()):
        if 0 <= t <= law.T:
            stages[t].append(v)
    return stages


def _tree(law: PathLaw) -> tuple[list, list]:
    """:func:`_stages` and each node's children as (positions in the next
    time's list, conditional probabilities, their ``np.sum``, whether they
    are a valid marginal: none negative and some positive, so never a
    leaf's).

    The backward induction reads a node's children in the next time's
    value table, so node times must be 0 exactly at the roots and rise by
    one from parent to child.
    """
    times, parent = law.times, law.parent
    child = parent >= 0
    if (np.any(times < 0) or np.any(times > law.T) or np.any(child == (times == 0))
            or np.any(times[child] != times[parent[child]] + 1)):
        raise ValueError("path law node times must be 0 at the roots and rise by one "
                         f"from parent to child, up to T={law.T}")
    stages = _stages(law)
    pos = [0] * law.n_nodes
    for nodes in stages:
        for k, v in enumerate(nodes):
            pos[v] = k
    kids = []
    for cs in law.children:
        probs = law.cond_prob[list(cs)]
        w = probs.tolist()
        kids.append(([pos[c] for c in cs], w, float(np.sum(probs)),
                     bool(w) and min(w) >= 0 and max(w) > 0))
    return stages, kids


def _backward(lawx: PathLaw, lawy: PathLaw, q: float, increments: bool, lam: Optional[float],
              variants: tuple) -> tuple:
    """Backward induction over matched node pairs, one result per
    ``include_t0`` flag in ``variants``.

    ``lam`` None gives the sup-cost distances: a pair's value is its stage
    cost plus the bottleneck transport of its children's values.  A
    positive ``lam`` gives the log domain of ``elog_divergence``: lam times
    the stage cost plus the log-weight transport (``log_transport``) of the
    children's values, and a result's value is the root's / lam.  The
    variants differ only in the t = 0 stage costs, so the stage transports
    are solved once and only the root solve is repeated.

    Each time t holds one value table over (x nodes, y nodes) at t: the
    stage costs plus, in one masked add over the pairs whose x node has
    children, the pairs' transport values.  A pair's cost block is read
    from the next time's table, converted to lists once, and solved by the
    list-level kernels of ``solvers``.  The checks their public callers
    make per call are made once per node (marginals) or per table
    (finiteness), in both domains; a pair that fails one is handed to the
    public check, which raises its own error, so errors are the per-call
    ones.  A leaf before T against a node with children is a stage
    transport with no rows, as the mirrored pair is one with no columns,
    and fails the same check.  The root solves go through the public
    kernels.
    """
    _check_q(q)
    log = lam is not None
    scale = lam if log else 1.0
    check = log_transport if log else TransportInstance
    stx, kidx = _tree(lawx)
    sty, kidy = _tree(lawy)
    plans: dict[tuple, np.ndarray] = {}
    rest = None  # rest[a][b]: the transport value of pair (xs[a], ys[b]), over its children
    table = None
    for t in range(lawx.T, -1, -1):
        xs, ys = stx[t], sty[t]
        if table is not None:
            invalid = (np.isnan(table) | np.isposinf(table)) if log else ~np.isfinite(table)
            faulty = invalid.tolist() if invalid.any() else None
            vals = table.tolist()
            rest, has = [], []
            for vx in xs:
                px, wx, sx, okx = kidx[vx]
                has.append(bool(px))
                if not px:
                    for vy in ys:
                        py, wy = kidy[vy][:2]
                        if py:
                            check(np.zeros((0, len(py))), wx, wy)  # raises the public error
                    rest.append([0.0] * len(ys))
                    continue
                tol = 1e-12 * max(1.0, sx)
                rows = [vals[i] for i in px]
                row = []
                for vy in ys:
                    py, wy, sy, oky = kidy[vy]
                    block = [[r[j] for j in py] for r in rows]
                    bad = faulty is not None and any(faulty[i][j] for i in px for j in py)
                    if bad or not (okx and oky) or abs(sx - sy) > tol:
                        check(block, wx, wy)  # raises the public error
                    res = _log_transport(block, wx, wy) if log else _bottleneck(block, wx, wy, sx)
                    plans[(vx, vy)] = res.plan
                    row.append(res.value)
                rest.append(row)
        if t:
            table = scale * _stage_costs(lawx, lawy, xs, ys, t, q, increments, True)
            if rest is not None:
                _add_rest(table, rest, has)
    out = []
    for include_t0 in variants:
        top = scale * _stage_costs(lawx, lawy, stx[0], sty[0], 0, q, increments, include_t0)
        if rest is not None:
            _add_rest(top, rest, has)
        px, py = lawx.cond_prob[stx[0]], lawy.cond_prob[sty[0]]
        res = log_transport(top, px, py) if log else bottleneck_transport(
            TransportInstance(top, px, py))
        out.append(DistanceResult(float(res.value) / scale,
                                  BicausalCoupling(lawx, lawy, res.plan, plans)))
    return tuple(out)


def _add_rest(stage: np.ndarray, rest: list, has: list) -> None:
    """stage += rest in place on the rows whose node has children; IEEE
    addition, as the scalar ``c + rest`` it replaces, with no warnings."""
    with np.errstate(invalid="ignore", over="ignore"):
        np.add(stage, np.array(rest).reshape(stage.shape), out=stage,
               where=np.array(has, dtype=bool)[:, None])


def aw_inf_delta(lawx: PathLaw, lawy: PathLaw, q: float = 2.0,
                 include_t0: bool = True) -> DistanceResult:
    """Adapted sup-distance on increment paths (time-0 increment = level).

    Backward-induction bottleneck: stage cost |dX_t - dY_t|_q plus the child
    value, minimized over stage couplings; the returned coupling attains the
    value.
    """
    _check_shapes(lawx, lawy)
    return _backward(lawx, lawy, q, True, None, (include_t0,))[0]


def aw_inf(lawx: PathLaw, lawy: PathLaw, q: float = 2.0) -> DistanceResult:
    """Adapted sup-distance on level paths: esssup of sum_t |X_t - Y_t|_q."""
    _check_shapes(lawx, lawy)
    return _backward(lawx, lawy, q, False, None, (True,))[0]


def path_cost_matrix(lawx: PathLaw, lawy: PathLaw, q: float,
                     increments: bool = False, include_t0: bool = True) -> np.ndarray:
    """sum_t per-time q-norm distance for every leaf-path pair."""
    _check_q(q)
    px = lawx.leaf_paths()
    py = lawy.leaf_paths()
    if increments:
        dx = np.diff(np.concatenate([np.zeros((px.shape[0], 1, lawx.d)), px], axis=1), axis=1)
        dy = np.diff(np.concatenate([np.zeros((py.shape[0], 1, lawy.d)), py], axis=1), axis=1)
        if not include_t0:
            dx = dx[:, 1:]
            dy = dy[:, 1:]
        px, py = dx, dy
    return qnorm(px[:, None, :, :] - py[None, :, :, :], q).sum(axis=2)


def w_inf(lawx: PathLaw, lawy: PathLaw, q: float = 2.0, increments: bool = False,
          include_t0: bool = True):
    """Non-causal sup-distance: bottleneck transport on whole-path costs."""
    _check_shapes(lawx, lawy)
    costs = path_cost_matrix(lawx, lawy, q, increments, include_t0)
    return bottleneck_transport(TransportInstance(costs, lawx.leaf_prob, lawy.leaf_prob))


def elog_divergence(lawx: PathLaw, lawy: PathLaw, q: float = 2.0, lam: float = 1.0,
                    increments: bool = False, include_t0: bool = True) -> DistanceResult:
    """Adapted log-exponential divergence (1/lam) log min E[exp(lam |X-Y|-cost)].

    Each DP stage is an exact min-cost transport of the children's log
    values whose pivots are those of pricing every cycle in the log domain,
    so the value is exact at every lam: no pivot rests on a weight
    exponentiated outside one cycle's own scale.  It increases to the
    adapted sup-distance as lam grows.  lam must be finite and positive.
    """
    _check_shapes(lawx, lawy)
    _check_level("lam", lam, True)
    return _backward(lawx, lawy, q, increments, lam, (include_t0,))[0]


def laplace_smoothed_esssup(values, probs, lam: float) -> float:
    """(1/lam) log sum_i p_i exp(lam v_i), evaluated stably in the log domain.

    values and probs have one shape, every value is finite, every
    probability finite and non-negative, and they sum to one.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.shape != probs.shape:
        raise ValueError(f"values {values.shape} and probabilities {probs.shape} differ in shape")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if not np.all(np.isfinite(probs) & (probs >= 0.0)):
        raise ValueError("probabilities must be finite and non-negative")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to one")
    _check_level("lam", lam, True)
    keep = probs > 0
    return _logsumexp(lam * values[keep], probs[keep]) / lam


# ---------------------------------------------------------------------------
# Knothe-Rosenblatt rearrangement (real-valued paths)
# ---------------------------------------------------------------------------


def _comonotone_plan(vals_x: np.ndarray, px: np.ndarray,
                     vals_y: np.ndarray, py: np.ndarray) -> np.ndarray:
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
        if rx <= 1e-12:
            i += 1
            rx = px[ox[i]] if i < px.size else 0.0
        if ry <= 1e-12:
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
        stages = _stages(law_b)
        for t in range(law_a.T):
            for bnode in stages[t]:
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
    res = solve_lp(LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * c.size))
    if res.status != "optimal":
        raise RuntimeError(f"global bicausal LP failed: {res.status} {res.message}")
    return (shift + math.log(max(res.value, math.exp(_LOG_TINY)))) / lam


def global_bicausal_bottleneck(lawx: PathLaw, lawy: PathLaw, q: float,
                               increments: bool = False, include_t0: bool = True) -> float:
    """Reference sup-distance: threshold bisection over the bicausal polytope."""
    a_eq, b_eq = bicausal_rows(lawx, lawy)
    costs = path_cost_matrix(lawx, lawy, q, increments, include_t0).ravel()
    levels = np.unique(costs)

    def feasible(lam: float) -> bool:
        ub = np.where(costs <= lam + 1e-13 * (1 + abs(lam)), None, 0.0)
        bounds = [(0, u) for u in ub]
        res = solve_lp(LinearProgram(c=np.zeros(costs.size), a_eq=a_eq, b_eq=b_eq,
                                     bounds=bounds))
        return res.status == "optimal"

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
                     lipschitz: Optional[float] = None) -> StabilityReport:
    """Distance plus the three transfer inequalities between two markets.

    Reports the adapted increment sup-distance D (with and without the t = 0
    term), then checks: (i) an eps-feasible reference market stays feasible
    at eps + D in the perturbed one (both by re-solving and by pushing the
    witness through the optimal coupling); (ii) |eps(P) - eps(P')| <= D;
    (iii) with an L-Lipschitz claim and p > 1, the eps-fair range of P is
    contained in the (eps + L D)-fair range of P'.

    eps(P) and eps(P') are the measure-side bisection's values
    (``critical_value(method="dual")``, bit for bit), whose steps away from
    the critical level are settled by the exact route's two certified
    checks instead of one interior solve each.  Each market's interior
    program runs once per level: the fair ranges are anchored at the
    measures found for (i), and P' reuses its eps + D measure when
    eps + L D is the same number.  The arbitrage and pricing
    layers load on the first call, so the distance functions run without
    them.
    """
    from .arbitrage import _dual_level
    from .pricing import _fair_range, find_eps_martingale_measure

    _check_level("eps", eps, False)
    notes: list[str] = []
    _check_shapes(lawx, lawy)
    dres, dres_no_t0 = _backward(lawx, lawy, norms.q, True, None, (True, False))
    d_no_t0 = dres_no_t0.value
    D = dres.value
    eps_x = _dual_level(lawx, norms)
    eps_y = _dual_level(lawy, norms)
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
            emm_y_shift = (emm_y if shifted == eps + D
                           else find_eps_martingale_measure(lawy, shifted, norms))
            if not emm_y_shift.feasible:
                notes.append(
                    f"no eps-martingale structure at {shifted} in the perturbed market; "
                    "fair-range transfer skipped")
            else:
                fair_x = _fair_range(lawx, eps, norms, Payoff.from_function(lawx, payoff_fn),
                                     emm_x.measure)
                fair_y = _fair_range(lawy, shifted, norms, Payoff.from_function(lawy, payoff_fn),
                                     emm_y_shift.measure)
                fair_lo = fair_x.lower - fair_y.lower
                fair_hi = fair_y.upper - fair_x.upper
    return StabilityReport(
        distance=D, distance_no_t0=d_no_t0, eps_level=eps, eps_x=eps_x, eps_y=eps_y,
        critical_slack=critical_slack, emm_x_feasible=emm_x.feasible,
        emm_y_shifted_feasible=emm_y_ok, pushforward_measure=push,
        pushforward_deviation=push_dev, pushforward_slack=push_slack,
        fair_x=fair_x, fair_y=fair_y, fair_lower_slack=fair_lo,
        fair_upper_slack=fair_hi, notes=tuple(notes))
