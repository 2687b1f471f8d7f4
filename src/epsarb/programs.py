"""Shared optimization programs over an event tree.

Two families recur across arbitrage detection and pricing:

* strategy programs — variables are one d-vector per internal node, leaf
  constraints mix the linear gain with the concave -eps |H|_p cost;
* measure programs — variables are leaf weights, every internal node
  imposes the cone constraint |sum_w q(w) dS(w)|_q <= eps qbar(v).

The strategy side is two programs over a :class:`TreeOps`: the p = 1 sum
LP, whose sign decides strict arbitrage on polyhedral geometry, and the
maximin program, which certifies it.  Strict arbitrage localizes to one
trading period, so a node's decision runs the same two programs on the
node's one-period market (``node_strict_arbitrage``).

Both families are HiGHS LPs when the geometry is polyhedral (p = 1, q = inf,
d = 1, and the measure side at eps = 0).  At p = q = 2 with d >= 2 the node
geometry is exact, once per model (:func:`node_geometry`): gamma(v) is the
norm of the children's min-norm point, and a tangent node's cone is the
linear rows of that point's face.  Every other program there is one
second-order cone program, checked exactly (``_cone_margins``,
``_leaf_gain_cost``, q >= eta P, and a recomputed dual bound or hedge;
measure programs solve twice at most, ``_measure_solves``); a result that
fails is counted in ``CONIC_FALLBACKS`` and has no answer: indeterminate,
or no certificate.  Kelley cutting planes are the route of every other
p.  Public wrappers live in :mod:`epsarb.arbitrage` and
:mod:`epsarb.pricing`.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .market import MarketModel, NormPair, Strategy, qnorm, qnorm_grad
from .solvers import (ConeProgram, LinearProgram, face_support, maximize_concave,
                      min_norm_point, solve_lp, solve_socp)

_log = logging.getLogger("epsarb")


@dataclass(frozen=True)
class TreeOps:
    """Dense coefficient tensors for one market.

    ``coeff[k, j]`` is dS at the child of internal node j toward leaf k (zero
    when leaf k does not pass through node j), so leaf gains are
    ``einsum('kjd,jd->k', coeff, H)`` and node cone vectors are
    ``einsum('k,kd->d', q, coeff[:, j])``.  ``mask[k, j]`` flags leaf k under
    internal node j.  The strategy programs read only ``coeff`` and ``mask``,
    so a node's one-period market is the ops with ``model`` None, its
    children as leaves and a mask of ones.
    """

    model: Optional[MarketModel]
    internal: tuple
    coeff: np.ndarray  # (n_leaves, n_internal, d)
    mask: np.ndarray   # (n_leaves, n_internal) float 0/1


def tree_ops(model: MarketModel) -> TreeOps:
    """The model's coefficient tensors, built once and kept on the model."""
    cached = model.__dict__.get("_tree_ops")
    if cached is not None:
        return cached
    internal = tuple(model.internal)
    pos = {v: j for j, v in enumerate(internal)}
    coeff = np.zeros((model.n_leaves, len(internal), model.d))
    mask = np.zeros((model.n_leaves, len(internal)))
    for k, leaf in enumerate(model.leaves):
        path = model.path_to(leaf)
        for a in range(len(path) - 1):
            j = pos[path[a]]
            coeff[k, j] = model.delta[path[a + 1]]
            mask[k, j] = 1.0
    ops = TreeOps(model, internal, coeff, mask)
    object.__setattr__(model, "_tree_ops", ops)
    return ops


def strategy_from_packed(ops: TreeOps, x: np.ndarray) -> Strategy:
    model = ops.model
    vals = np.zeros((model.n_nodes, model.d))
    d = model.d
    for j, v in enumerate(ops.internal):
        vals[v] = x[j * d:(j + 1) * d]
    return Strategy(vals)


# ---------------------------------------------------------------------------
# Conic route: the q = 2, d >= 2 programs
# ---------------------------------------------------------------------------

CONIC_FALLBACKS: Counter = Counter()
"""Per program, the calls left indeterminate or without a certificate by a failed check."""

# Measure programs solve first at eps (1 - _TIGHTEN): interior-point points
# carry residuals of 1e-13 to 1e-10 (worst near the critical level, where
# the cone set is thin), and the tightened cones leave them room to pass the
# exact check at eps itself; a second solve at eps charges no tightening.
_TIGHTEN = 1e-10

_NODE_BAND = 1e-8  # per (1 + max |dS|): the strategy side's boundary band around gamma(v) = eps
_FLOOR = 1e-12  # per (1 + max |dS|): the rounding floor of an exact node check
_ATTAINED = 1e-7  # a price bound is attained when its face has a point of min leaf weight above this


def _polyhedral(model: MarketModel, norms: NormPair, eps: Optional[float] = None) -> bool:
    """Whether the q-cones (and the p-costs) are exactly LP-representable:
    q = inf (that is, p = 1), scalar assets, or the level eps = 0 when one
    is given."""
    return norms.q == math.inf or model.d == 1 or eps == 0.0


def _conic(d: int, norms: NormPair) -> bool:
    """Whether the program's cones are second-order cones (q = 2, d >= 2)."""
    return norms.q == 2.0 and d >= 2


def _fallback(program: str, why: str) -> None:
    CONIC_FALLBACKS[program] += 1
    _log.debug("%s: conic result rejected (%s); no certified answer", program, why)


class NodeGeometry:
    """One internal node's q = 2 geometry: its children's increments A, their
    min-norm point z with gamma = |z|_2, its simplex weights lam and, on
    first use, which children carry weight on the face of z (``on``)."""

    def __init__(self, A: np.ndarray):
        self.A = A
        self.z, self.lam = min_norm_point(A)
        self.gamma = float(np.linalg.norm(self.z))

    @cached_property
    def on(self) -> np.ndarray:
        return face_support(self.A, self.z)


def node_geometry(model: MarketModel) -> dict:
    """Per internal node, its :class:`NodeGeometry`; built once and kept on
    the model (as ``tree_ops``)."""
    cached = model.__dict__.get("_node_geometry")
    if cached is None:
        cached = {v: NodeGeometry(model.delta[list(model.children[v])])
                  for v in model.internal}
        object.__setattr__(model, "_node_geometry", cached)
    return cached


def _tangent_faces(ops: TreeOps, eps: float):
    """The tangent nodes at level eps, {j: (z, off)}: the min-norm point of
    internal node j, whose face z_v(q) = qbar_v(q) z is the cone set there
    (facial reduction: Borwein & Wolkowicz, 1981), and the leaves off it.
    Tangent means eps <= gamma(v) <= eps + floor, gamma = eps to rounding;
    None when some gamma(v) is above that, which empties the set.  One-sided:
    a node with gamma(v) < eps keeps its cone, whose set is larger."""
    model = ops.model
    geometry = node_geometry(model)
    faces = {}
    for j, v in enumerate(ops.internal):
        node = geometry[v]
        if node.gamma > eps + _FLOOR * (1.0 + float(np.max(np.abs(node.A)))):
            return None
        if node.gamma >= eps:
            off = [k for w, on in zip(model.children[v], node.on) if not on
                   for k in model.leaves_under[w]]
            faces[j] = (node.z, np.isin(np.arange(model.n_leaves), off))
    return faces


def _measure_cones(ops: TreeOps, eps: float, faces: dict) -> tuple[np.ndarray, tuple]:
    """Rows G (columns: the leaf weights q) and block sizes of the cones
    s_v = (eps qbar_v(q), z_v(q)) of the non-tangent nodes, with G q + s = 0,
    so that |z_v(q)|_2 <= eps qbar_v(q)."""
    d = ops.model.d
    keep = [j for j in range(len(ops.internal)) if j not in faces]
    blocks = np.concatenate([eps * ops.mask.T[keep, None, :],
                             ops.coeff[:, keep].transpose(1, 2, 0)], axis=1)
    return -blocks.reshape(-1, ops.model.n_leaves), (d + 1,) * len(keep)


def _norm_cones(d: int, n: int) -> tuple[np.ndarray, tuple]:
    """Rows G (columns: n packed holdings H_v in R^d, then n bounds t_v) and
    block sizes of the cones s_v = (t_v, H_v) with G x + s = 0, so that
    |H_v|_2 <= t_v."""
    G = np.zeros((n, d + 1, n * (d + 1)))
    for j in range(n):
        G[j, 0, n * d + j] = -1.0
        G[j, 1:, j * d:(j + 1) * d] = -np.eye(d)
    return G.reshape(n * (d + 1), n * (d + 1)), (d + 1,) * n


def _measure_solves(ops: TreeOps, eps: float, faces: dict, c: np.ndarray, lin: np.ndarray,
                    n_extra: int, fixed=None):
    """min c.(q, extra) s.t. lin (q, extra) <= 0, sum q = 1, the node cones,
    the tangent faces' rows (z_v(q) = qbar_v(q) z, no weight off the face)
    and f.q = value when ``fixed`` = (f, value): the measure programs' one
    two-solve loop.  It solves at eps (1 - _TIGHTEN), then at eps, yielding
    the solver's result and the exact program (at eps)."""
    L = ops.model.n_leaves
    a_eq = np.vstack([np.ones((1, L))] + [
        np.vstack([ops.coeff[:, j, :].T - np.outer(z, ops.mask[:, j]), np.eye(L)[off]])
        for j, (z, off) in faces.items()])
    b_eq = np.zeros(len(a_eq))
    b_eq[0] = 1.0
    if fixed is not None:
        a_eq, b_eq = np.vstack([a_eq, fixed[0]]), np.append(b_eq, fixed[1])
    a_eq = np.hstack([a_eq, np.zeros((len(a_eq), n_extra))])

    def program(level):
        blocks, soc = _measure_cones(ops, level, faces)
        G = np.vstack([lin, np.hstack([blocks, np.zeros((blocks.shape[0], n_extra))])])
        return ConeProgram(c, G, np.zeros(G.shape[0]), lin.shape[0], soc, a_eq, b_eq)

    exact = program(eps)
    for level in (eps * (1.0 - _TIGHTEN), eps):
        yield solve_socp(program(level)), exact


def _gap_closed(value: float, bound: float, tol: float) -> bool:
    """A verified value within ``tol`` (relative) of its certified bound."""
    return abs(bound - value) <= tol * (1.0 + abs(value))


def _min_norm_solution(A: np.ndarray, rhs: np.ndarray, norms: NormPair):
    """min |h|_p subject to A h = rhs; returns (h, |h|_p) or (None, None) if infeasible."""
    d = A.shape[1]
    h2, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0)) + float(np.max(np.abs(A)))
    if np.max(np.abs(A @ h2 - rhs), initial=0.0) > 1e-9 * scale:
        return None, None
    if norms.p == 2.0:
        return h2, float(np.linalg.norm(h2))
    if norms.p == 1.0:
        lp = LinearProgram(
            c=np.ones(2 * d), sense="min",
            a_eq=np.hstack([A, -A]), b_eq=rhs,
            bounds=[(0, None)] * (2 * d))
        res = solve_lp(lp)
        if res.status != "optimal":
            return None, None
        h = res.x[:d] - res.x[d:]
        return h, float(np.sum(np.abs(h)))
    from scipy.optimize import minimize

    fun = lambda h: qnorm(h, norms.p)
    jac = lambda h: qnorm_grad(h, norms.p, qnorm(h, norms.p))
    res = minimize(fun, h2, jac=jac, method="SLSQP",
                   constraints=[{"type": "eq", "fun": lambda h: A @ h - rhs,
                                 "jac": lambda h: A}],
                   options={"maxiter": 300, "ftol": 1e-14})
    if not res.success:
        raise RuntimeError(f"min-norm solve failed at p={norms.p}: {res.message}")
    return res.x, float(fun(res.x))


# ---------------------------------------------------------------------------
# Strategy-side programs
# ---------------------------------------------------------------------------

def _leaf_gain_cost(ops: TreeOps, norms: NormPair, x: np.ndarray, eps: float):
    """Per-leaf slacks gain - eps * path cost at packed x, with each node's
    norm gradient (the slack gradient of leaf k is
    coeff[k] - eps * mask[k, j] * node_grad[j])."""
    _, n_int, d = ops.coeff.shape
    H = x.reshape(n_int, d)
    node_norm = np.zeros(n_int)
    node_grad = np.zeros((n_int, d))
    for j in range(n_int):
        node_norm[j] = qnorm(H[j], norms.p)
        node_grad[j] = qnorm_grad(H[j], norms.p, node_norm[j])
    slack = np.einsum("kjd,jd->k", ops.coeff, H) - eps * (ops.mask @ node_norm)
    return slack, node_grad


def _l1_slack_rows(ops: TreeOps, eps: float):
    """Leaf slacks at p = 1 as linear maps of (H+, H-): s_plus H+ + s_minus H-."""
    L, n_int, d = ops.coeff.shape
    a = ops.coeff.reshape(L, n_int * d)
    b = np.repeat(ops.mask, d, axis=1)
    return a - eps * b, -a - eps * b


def _strategy_conic(ops: TreeOps, eps: float, norms: NormPair, tol: float):
    """The maximin strict-arbitrage program as one cone program.

    Variables (H, t, delta) with |H_v|_2 <= t_v, sum_v t_v <= 1 and every
    leaf slack, linear in (H, t), at least delta.  The holdings, scaled to
    unit total norm, are checked on the exact slacks of ``_leaf_gain_cost``:
    their minimum must reach the certified bound.  Returns (value, H,
    slacks), or None when the check fails.
    """
    L, n_int, d = ops.coeff.shape
    N = n_int * d
    S = np.hstack([ops.coeff.reshape(L, N), -eps * ops.mask])  # leaf slacks over (H, t)
    blocks, soc = _norm_cones(d, n_int)
    budget = np.concatenate([np.zeros(N), np.ones(n_int)])[None, :]
    c = np.zeros(N + n_int + 1)
    c[-1] = -1.0
    G = np.vstack([np.hstack([-S, np.ones((L, 1))]), np.hstack([budget, [[0.0]]]),
                   np.hstack([blocks, np.zeros((blocks.shape[0], 1))])])
    reach = float(np.max(np.linalg.norm(ops.coeff, axis=2).sum(axis=1))) + eps * n_int
    box = np.concatenate([np.ones(N + n_int), [reach]])
    prog = ConeProgram(c, G, np.concatenate([np.zeros(L), [1.0], np.zeros(blocks.shape[0])]),
                       L + 1, soc)
    res = solve_socp(prog)
    if res.status not in ("optimal", "unsolved"):
        return None
    bound = -prog.lower_bound(res.y, res.z, box)
    if bound <= tol:
        # No positive uniform slack: the zero strategy is optimal.
        return 0.0, np.zeros(N), np.zeros(L)
    h = res.x[:N]
    total = float(np.linalg.norm(h.reshape(n_int, d), axis=1).sum())
    if total > 0.0:
        h = h / total
    slack = _leaf_gain_cost(ops, norms, h, eps)[0]
    value = float(np.min(slack))
    return (value, h, slack) if _gap_closed(value, bound, 10 * tol) else None


def strict_arbitrage_sum_program(ops: TreeOps, eps: float):
    """max sum of leaf slacks s.t. every slack >= 0, sum_v |H(v)|_1 <= 1.

    One exact LP in (H+, H-).  A positive optimum is the strict-arbitrage
    criterion at level eps for polyhedral geometry: p = 1, or d = 1, where
    every p-norm is |h|.  Returns (optimum, packed H or None, per-leaf
    slacks).
    """
    L, n_int, d = ops.coeff.shape
    N = n_int * d
    if N == 0:
        return 0.0, None, np.zeros(L)
    s_plus, s_minus = _l1_slack_rows(ops, eps)
    lp = LinearProgram(
        c=np.concatenate([s_plus.sum(axis=0), s_minus.sum(axis=0)]), sense="max",
        a_ub=np.vstack([np.hstack([-s_plus, -s_minus]), np.ones((1, 2 * N))]),
        b_ub=np.concatenate([np.zeros(L), [1.0]]),
        bounds=[(0, None)] * (2 * N))
    res = solve_lp(lp)
    if res.status != "optimal":
        raise RuntimeError(f"strict-arbitrage LP failed: {res.status} {res.message}")
    h = res.x[:N] - res.x[N:]
    slack = s_plus @ res.x[:N] + s_minus @ res.x[N:]
    return float(res.value), h, slack


def strict_arbitrage_maximin_program(ops: TreeOps, eps: float, norms: NormPair,
                                     tol: float = 1e-9):
    """max delta s.t. every leaf slack >= delta, sum_v |H(v)|_p <= 1.

    The maximin certificate: its margin per unit of strategy norm is the
    uniform slack rate.  One LP at p = 1 or d = 1, one checked cone program
    at p = 2 with d >= 2, cutting planes otherwise.  Returns (delta, packed
    H or None, slacks); (0.0, None, zeros) is "no certificate".
    """
    L, n_int, d = ops.coeff.shape
    N = n_int * d
    if N == 0:
        return 0.0, None, np.zeros(L)
    if norms.p == 1.0 or d == 1:
        s_plus, s_minus = _l1_slack_rows(ops, eps)
        cvec = np.zeros(2 * N + 1)
        cvec[-1] = 1.0
        lp = LinearProgram(
            c=cvec, sense="max",
            a_ub=np.vstack([np.hstack([-s_plus, -s_minus, np.ones((L, 1))]),
                            np.concatenate([np.ones(2 * N), [0.0]])[None, :]]),
            b_ub=np.concatenate([np.zeros(L), [1.0]]),
            bounds=[(0, None)] * (2 * N) + [(None, None)])
        res = solve_lp(lp)
        if res.status != "optimal":
            raise RuntimeError(f"maximin LP failed: {res.status} {res.message}")
        h = res.x[:N] - res.x[N:2 * N]
        slack = s_plus @ res.x[:N] + s_minus @ res.x[N:2 * N]
        return float(res.value), h, slack
    if _conic(d, norms):
        out = _strategy_conic(ops, eps, norms, tol)
        if out is not None:
            return out
        _fallback("strict_arbitrage_maximin_program", "gap check failed")
        return 0.0, None, np.zeros(L)

    # Leaf slacks are positively homogeneous in H, so maximize the minimum
    # slack over the box (iterates are always usable) and normalize the
    # winner to unit total node norm afterward.
    def objective(x):
        slack, node_grad = _leaf_gain_cost(ops, norms, x, eps)
        k = int(np.argmin(slack))
        grad = ops.coeff[k] - eps * ops.mask[k][:, None] * node_grad
        return float(slack[k]), grad.ravel()

    res = maximize_concave(objective, -np.ones(N), np.ones(N), tol=tol,
                           max_iter=400, start=np.zeros(N))
    if res.x is None:
        return 0.0, None, np.zeros(L)
    h = res.x
    total = sum(qnorm(h[j * d:(j + 1) * d], norms.p) for j in range(n_int))
    if total > 0:
        h = h / total
    slack = _leaf_gain_cost(ops, norms, h, eps)[0]
    return float(np.min(slack)), h, slack


# ---------------------------------------------------------------------------
# Measure-side programs (leaf weights under node-wise cone constraints)
# ---------------------------------------------------------------------------

def _cone_oracles(ops: TreeOps, eps: float, norms: NormPair, n_extra: int = 0,
                  cut_bank: Optional[dict] = None):
    """Concave oracles eps*qbar(v) - |z_v(q)|_q >= 0, padded for extra vars.

    When a ``cut_bank`` is given, every evaluated norm subgradient u is
    deposited under its node key (the last 30 per node): since
    u . z0 = |z0|_q, the induced cut (coeff u) . q <= eps (mask . q) is a
    supporting ray valid at every eps, so banks can be replayed across
    levels (bisection reuse).
    """
    cons = []
    for j in range(len(ops.internal)):
        coeff_j = ops.coeff[:, j, :]
        mask_j = ops.mask[:, j]

        def g(x, j=j, coeff_j=coeff_j, mask_j=mask_j):
            q = x[:mask_j.size]
            z = coeff_j.T @ q
            val = qnorm(z, norms.q)
            zgrad = qnorm_grad(z, norms.q, val)
            if cut_bank is not None and val > 0.0:
                bank = cut_bank.setdefault(j, [])
                bank.append(zgrad)
                if len(bank) > 30:
                    del bank[0]
            grad = np.concatenate([eps * mask_j - coeff_j @ zgrad, np.zeros(n_extra)])
            return eps * float(mask_j @ q) - val, grad
        cons.append(g)
    return cons


def _bank_rows(ops: TreeOps, eps: float, cut_bank: dict, n_extra: int = 0):
    """Static rows (coeff u - eps mask) . q <= 0 replayed from a cut bank."""
    rows = []
    for j, bank in cut_bank.items():
        coeff_j = ops.coeff[:, j, :]
        mask_j = ops.mask[:, j]
        for u in bank:
            rows.append(np.concatenate([coeff_j @ u - eps * mask_j, np.zeros(n_extra)]))
    if not rows:
        return None, None
    return np.vstack(rows), np.zeros(len(rows))


def _cone_rows_linf(ops: TreeOps, eps: float):
    """Linear rows z_{v,i} <= eps qbar(v) in both signs, for q = inf."""
    rows = []
    for j in range(len(ops.internal)):
        coeff_j = ops.coeff[:, j, :]
        mask_j = ops.mask[:, j]
        for i in range(ops.model.d):
            rows.append(coeff_j[:, i] - eps * mask_j)
            rows.append(-coeff_j[:, i] - eps * mask_j)
    return np.vstack(rows) if rows else np.zeros((0, ops.model.n_leaves))


def _cone_margins(ops: TreeOps, eps: float, norms: NormPair, q: np.ndarray,
                  faces: Optional[dict] = None) -> np.ndarray:
    """Exact node margins eps*qbar(v) - |z_v(q)|_q at given leaf weights.

    At a node of ``faces`` (margin +-1 ulp at eps = gamma(v)) it is the
    rounding floor _FLOOR (1 + max |coeff|) less the distance from the face,
    |z_v(q) - qbar_v(q) z|_2 + weight off the face, concave too."""
    out = np.zeros(len(ops.internal))
    for j in range(len(ops.internal)):
        z = ops.coeff[:, j, :].T @ q
        out[j] = eps * float(ops.mask[:, j] @ q) - qnorm(z, norms.q)
    if faces:
        floor = _FLOOR * (1.0 + float(np.max(np.abs(ops.coeff))))
        for j, (z, off) in faces.items():
            miss = ops.coeff[:, j, :].T @ q - float(ops.mask[:, j] @ q) * z
            out[j] = floor - qnorm(miss, 2.0) - q[off].sum()
    return out


def _checked_weights(ops: TreeOps, eps: float, norms: NormPair, faces: dict,
                     x: Optional[np.ndarray]):
    """Leaf weights from a solver point x (or None), clipped to >= 0 and
    renormalized, that pass ``_min_norm_repair``; None if there are none."""
    q = np.zeros(0) if x is None else np.maximum(x[:ops.model.n_leaves], 0.0)
    return _min_norm_repair(ops, eps, norms, faces, q / q.sum()) if q.sum() > 0.0 else None


def _min_norm_repair(ops: TreeOps, eps: float, norms: NormPair, faces: dict, x: np.ndarray):
    """Weights x with each node of negative margin (``_cone_margins`` with
    the tangent faces), deepest first, mixed toward its children's min-norm
    split; None unless every margin is then >= 0.

    A node's margin depends only on how its mass splits among its children,
    so re-split by the min-norm weights, node v has margin
    (eps - gamma(v)) qbar(v), or lies on its face when tangent, and no other
    node changes sign (each child's subtree is scaled as a whole; one
    without mass is split by the min-norm weights all the way down).
    Margins are concave in q: the mix of x and the re-split x' passes node
    v at t >= m(x) / (m(x) - m(x')), and it mixes at twice that bound.
    """
    model, geometry = ops.model, node_geometry(ops.model)
    m0 = _cone_margins(ops, eps, norms, x, faces)
    fail = m0 < 0.0
    if not fail.any():
        return x
    q = x.copy()
    for j in sorted(np.flatnonzero(fail), key=lambda j: -model.times[model.internal[j]]):
        v = model.internal[j]
        resplit = q.copy()
        total = float(q[list(model.leaves_under[v])].sum())
        for w, l_w in zip(model.children[v], geometry[v].lam):
            u = list(model.leaves_under[w])
            m_w = float(q[u].sum())
            if m_w > 0.0:
                resplit[u] *= l_w * total / m_w
            elif l_w > 0.0:
                stack = [(w, l_w * total)]
                while stack:
                    node, mass = stack.pop()
                    if model.children[node]:
                        stack += [(c, mass * l) for c, l in
                                  zip(model.children[node], geometry[node].lam) if l > 0.0]
                    else:
                        resplit[model.leaves_under[node][0]] = mass
        m1 = float(_cone_margins(ops, eps, norms, resplit, faces)[j])
        if m1 <= 0.0:
            return None
        q += min(1.0, 2.0 * float(m0[j] / (m0[j] - m1))) * (resplit - q)
    return q if float(np.min(_cone_margins(ops, eps, norms, q, faces))) >= 0.0 else None


def _ratio_conic(program: str, ops: TreeOps, eps: float, norms: NormPair, eta: float,
                 P: np.ndarray, fixed=None):
    """max rho s.t. q >= rho P, rho >= 0, sum q = 1, the node cones (and
    f.q = value, checked to 1e-9 (1 + |value|), when ``fixed`` = (f, value)).

    The nodes decide first (``_tangent_faces``): the set is empty, or a
    tangent face with no full-support point puts weight 0 on some leaf, so
    rho* = 0.  Otherwise the whole tree is one cone program, tangent cones
    as face rows: feasible when the solver's weights, repaired by
    ``_checked_weights``, have q >= eta P; infeasible on a certificate, or
    a certified bound on rho* below eta; else indeterminate, with the bound.
    """
    faces = _tangent_faces(ops, eps)
    if faces is None:
        return "infeasible", None, None, None, None
    if any(off.any() for _, off in faces.values()):
        return "infeasible", None, None, 0.0, None
    L = ops.model.n_leaves
    c = np.zeros(L + 1)
    c[-1] = -1.0
    lin = np.vstack([np.hstack([-np.eye(L), P[:, None]]), c[None, :]])
    rho_ub, box = math.inf, np.ones(L + 1)
    for res, exact in _measure_solves(ops, eps, faces, c, lin, 1, fixed):
        # weak duality on the exact program, the residual charged to |q|, rho <= 1
        if res.status == "infeasible" and exact.certifies_infeasible(res.y, res.z, box):
            return "infeasible", None, None, None, None
        if res.status != "infeasible" and res.x is not None:
            rho_ub = min(rho_ub, -exact.lower_bound(res.y, res.z, box))
        q = _checked_weights(ops, eps, norms, faces, res.x)
        if (q is not None and np.all(q >= eta * P) and (
                fixed is None or abs(fixed[0] @ q - fixed[1]) <= 1e-9 * (1.0 + abs(fixed[1])))):
            return ("feasible", q, float(np.min(q / P)), rho_ub,
                    float(np.min(_cone_margins(ops, eps, norms, q, faces))))
        if rho_ub < eta:
            return "infeasible", None, None, rho_ub, None
    _fallback(program, "no checked witness or bound")
    return "indeterminate", None, None, rho_ub if rho_ub < math.inf else None, None


def _dual_hedge(ops: TreeOps, eps: float, norms: NormPair, faces: dict, phi: np.ndarray,
                y: np.ndarray, z: np.ndarray):
    """The super-hedge (capital, strategy, {node: add-on}, slacks) of phi
    read from the price program's dual (y, z), whose rows read phi = y[0] +
    gain(H) - eps sum_v t_v + sum_j (dS - z_j).g_j + mu - s (t_v >= |H_v|,
    s >= 0): H_v = -(tail of z on node v's cone), and tangent node j's
    face-row multiplier g_j, taken orthogonal to z_j, is a costless add-on
    of mean 0 on the face.  A leaf off the face (free multiplier mu) is
    covered by lambda z_j / gamma_j, whose slack per unit dS.z_j / gamma_j
    - eps is > 0 off the face and >= 0 on it (no slack drops: the cost is
    subadditive); then the capital y[0] is raised to cover every exact slack."""
    L, n_int, d = ops.coeff.shape
    H = np.zeros((n_int, d))
    H[[j for j in range(n_int) if j not in faces]] = -z[L:].reshape(-1, d + 1)[:, 1:]
    add_on, row = {}, 1
    for j, (zj, off) in faces.items():
        add_on[j] = y[row:row + d] - (y[row:row + d] @ zj) / (zj @ zj) * zj
        row += d + int(off.sum())

    def rest():  # the leaf slacks less the capital
        return (_leaf_gain_cost(ops, norms, H.ravel(), eps)[0] - phi
                + sum(ops.coeff[:, j, :] @ g for j, g in add_on.items()))

    for j, (zj, off) in faces.items():
        unit, short = zj / np.linalg.norm(zj), -(y[0] + rest())
        rate = ops.coeff[:, j, :] @ unit - eps
        cover = off & (short > 0.0) & (rate > 0.0)
        if cover.any():
            H[j] += float(np.max(short[cover] / rate[cover])) * unit
    r = rest()
    capital = max(float(y[0]), -float(np.min(r)))
    return (capital, strategy_from_packed(ops, H.ravel()),
            {ops.internal[j]: g for j, g in add_on.items()}, capital + r)


def _price_conic(ops: TreeOps, eps: float, norms: NormPair, phi: np.ndarray,
                 anchor: Optional[np.ndarray]):
    """sup phi.q over the closed cone set as a certified bracket (all None
    when a node empties it): (phi.q, q, capital, hedge) at the best checked
    q of ``_measure_solves`` (else ``anchor``) and the ``_dual_hedge`` of
    least capital (None, capital inf, without a dual point); one wider than
    1e-9 (relative) after both solves is counted in ``CONIC_FALLBACKS``."""
    faces = _tangent_faces(ops, eps)
    if faces is None:
        return (None,) * 4
    best, best_q, hedge = -math.inf, None, None
    for res, _ in _measure_solves(ops, eps, faces, -phi, -np.eye(ops.model.n_leaves), 0):
        q = _checked_weights(ops, eps, norms, faces, res.x)
        if q is not None and float(phi @ q) > best:
            best, best_q = float(phi @ q), q
        if res.status in ("optimal", "unsolved"):
            h = _dual_hedge(ops, eps, norms, faces, phi, res.y, res.z)
            hedge = h if hedge is None or h[0] < hedge[0] else hedge
        if best_q is not None and hedge is not None and _gap_closed(best, hedge[0], 1e-9):
            return best, best_q, hedge[0], hedge
    if best_q is None and anchor is not None:
        best, best_q = float(phi @ anchor), anchor
    _fallback("cone_linear_optimum", "bracket wider than 1e-9")
    return best, best_q, math.inf if hedge is None else hedge[0], hedge


def interior_feasibility(model: MarketModel, eps: float, norms: NormPair, eta: float,
                         cut_bank: Optional[dict] = None):
    """Decide the eta-interior cone program q >= eta P, sum q = 1, node cones.

    Returns (status, q, rho, rho_upper_bound, margin) with status in
    {feasible, infeasible, indeterminate}.  A feasible verdict carries
    weights with q >= eta P, checked elementwise, and node margins >= 0:
    exactly on the conic (tangent nodes: on the face) and cutting-plane
    routes, and to the rounding floor 1e-12 (1 + max |coeff|) on the LP
    route, whose vertex meets its rows only to rounding (an LP vertex that
    fails either check is indeterminate).

    Polyhedral geometry (q = inf, d = 1, or eps = 0) is one exact LP, and
    q = 2 the node check and one cone program (``_ratio_conic``).  Other
    q run two cutting-plane programs once each: the margin program
    max min_v [eps qbar - |z_v|_q] over {q >= eta P}, whose first exact
    LP-vertex incumbent with a margin at the rounding floor is the witness
    (150 iterations at most), and the max-min-ratio program, whose upper
    bound below eta certifies infeasibility even when the interior margin
    is far below machine precision (400 at most).
    """
    ops = tree_ops(model)
    L = model.n_leaves
    P = model.leaf_prob
    # Rounding floor of |z_v(q)|_q at this price scale.
    scale = 1.0 + float(np.max(np.abs(ops.coeff)))
    margin_floor = _FLOOR * scale
    if _polyhedral(model, norms, eps):
        rows = _cone_rows_linf(ops, eps)
        a_ub = np.vstack([
            np.hstack([rows, np.zeros((rows.shape[0], 1))]),
            np.hstack([-np.eye(L), P[:, None]]),
        ])
        b_ub = np.zeros(a_ub.shape[0])
        a_eq = np.concatenate([np.ones(L), [0.0]])[None, :]
        cvec = np.zeros(L + 1)
        cvec[-1] = 1.0
        lp = LinearProgram(c=cvec, sense="max", a_ub=a_ub, b_ub=b_ub,
                           a_eq=a_eq, b_eq=np.array([1.0]),
                           bounds=[(0.0, 1.0)] * L + [(None, 1.0)])
        # HiGHS meets its rows to 1e-7, enough to turn a small rho* near the
        # critical level into a vertex with margins of -1e-7; such a vertex
        # is solved again at 1e-10.  Margins are checked to the rounding
        # floor (at eps = 0 the exact margin is -|z_v|, a few ulps below
        # zero), and q >= eta P exactly.
        for highs_tol in (None, 1e-10):
            res = solve_lp(lp, highs_tol=highs_tol)
            if res.status == "infeasible":
                return "infeasible", None, None, None, None
            if res.status != "optimal":
                raise RuntimeError(f"interior-ratio LP failed: {res.status} {res.message}")
            rho = float(res.value)
            if rho < eta:
                return "infeasible", None, rho, rho, None
            q = res.x[:L]
            margin = float(np.min(_cone_margins(ops, eps, norms, q)))
            if np.all(q >= eta * P) and margin >= -margin_floor:
                return "feasible", q, rho, rho, margin
        return "indeterminate", None, None, rho, margin
    if _conic(model.d, norms):
        return _ratio_conic("interior_feasibility", ops, eps, norms, eta, model.leaf_prob)

    # Margin route: statics are exact at LP vertices, so incumbents certify.
    # Each node's cone margin must cover the margin variable x[-1].
    def minus_margin(cone):
        def g(x):
            val, grad = cone(x)
            grad[-1] = -1.0
            return val - x[-1], grad
        return g

    margin_cons = [minus_margin(cone) for cone in
                   _cone_oracles(ops, eps, norms, n_extra=1, cut_bank=cut_bank)]

    def margin_objective(x):
        grad = np.zeros(L + 1)
        grad[-1] = 1.0
        return float(x[-1]), grad

    def margin_repair(x):
        qv = x[:L]
        m = float(np.min(_cone_margins(ops, eps, norms, qv)))
        return np.concatenate([qv, [m]])

    # Margins below the rounding floor cannot be distinguished from zero, so
    # such verdicts defer to the ratio route (whose certified upper bound
    # amplifies sub-machine interior collapses).
    a_ub, b_ub = None, None
    if cut_bank:
        a_ub, b_ub = _bank_rows(ops, eps, cut_bank, n_extra=1)
    res = maximize_concave(
        margin_objective,
        np.concatenate([eta * P, [-2.0 * eps - scale]]),
        np.concatenate([np.ones(L), [eps * 2.0 + scale]]),
        margin_cons, a_ub=a_ub, b_ub=b_ub,
        a_eq=np.concatenate([np.ones(L), [0.0]])[None, :], b_eq=np.array([1.0]),
        tol=1e-10, feas_tol=1e-12, max_iter=150,
        start=np.concatenate([P, [0.0]]), stop_above=margin_floor,
        stop_below=-1e-10, repair=margin_repair)
    if res.status == "infeasible":
        return "infeasible", None, None, None, None
    if res.x is not None and res.value is not None and res.value >= margin_floor:
        q = res.x[:L]
        if np.all(q >= eta * P) and float(np.min(_cone_margins(ops, eps, norms, q))) >= 0.0:
            return "feasible", q, float(np.min(q / P)), None, float(res.value)
    margin_ub = float(res.upper_bound)
    if margin_ub < -max(1e-11, margin_floor):
        return "infeasible", None, None, None, margin_ub

    # Ratio route: a certified upper bound below eta excludes the interior.
    ratio_cons = _cone_oracles(ops, eps, norms, n_extra=1, cut_bank=cut_bank)
    ratio_rows = np.hstack([-np.eye(L), P[:, None]])
    a_ub, b_ub = ratio_rows, np.zeros(L)
    if cut_bank:
        bank_a, bank_b = _bank_rows(ops, eps, cut_bank, n_extra=1)
        if bank_a is not None:
            a_ub = np.vstack([a_ub, bank_a])
            b_ub = np.concatenate([b_ub, bank_b])

    def ratio_objective(x):
        grad = np.zeros(L + 1)
        grad[-1] = 1.0
        return float(x[-1]), grad

    res2 = maximize_concave(
        ratio_objective, np.concatenate([np.zeros(L), [-1.0]]), np.ones(L + 1),
        ratio_cons, a_ub=a_ub, b_ub=b_ub,
        a_eq=np.concatenate([np.ones(L), [0.0]])[None, :], b_eq=np.array([1.0]),
        tol=1e-10, feas_tol=1e-11, max_iter=400,
        start=np.concatenate([P, [0.0]]), stop_below=eta * 0.5)
    if res2.status == "infeasible":
        return "infeasible", None, None, None, None
    # The certified bound decides first: incumbents near the boundary may
    # evaluate as feasible in doubles even when the interior has collapsed.
    rho_ub = float(res2.upper_bound)
    if rho_ub < eta:
        return "infeasible", None, None, rho_ub, margin_ub if margin_ub < np.inf else None
    if res2.x is not None and res2.value is not None:
        q = res2.x[:L]
        rho = float(np.min(q / P))
        if np.all(q >= eta * P) and float(np.min(_cone_margins(ops, eps, norms, q))) >= 0.0:
            return "feasible", q, rho, rho_ub if rho_ub < np.inf else None, None
    return "indeterminate", None, None, rho_ub, margin_ub if margin_ub < np.inf else None


def cone_linear_optimum(model: MarketModel, eps: float, norms: NormPair,
                        leaf_objective: np.ndarray, sense: str, anchor: np.ndarray):
    """Optimize a linear leaf functional over the closed cone-feasible set.

    Returns (value, q, bound, hedge), all None when the closed set is
    empty: value = c.q at exactly feasible q, bound the certified other end
    of the optimum.  Polyhedral geometry is one LP (bound = value).  q = 2
    is one cone program (``_price_conic``), whose dual gives ``hedge`` =
    (capital, strategy, {node: add-on}, leaf slacks), an exact
    super-replication of c (sense max) or -c (min), whose capital (negated
    for min) is the bound.  ``anchor`` is an exactly feasible point: the q = 2 q when no
    solve gives a checked one, and the cutting planes' (other q) repair
    target, toward which iterates are mixed as far as stays feasible.
    """
    ops = tree_ops(model)
    L = model.n_leaves
    c = np.asarray(leaf_objective, dtype=float)
    if _polyhedral(model, norms, eps):
        rows = _cone_rows_linf(ops, eps)
        lp = LinearProgram(c=c, sense=sense, a_ub=rows, b_ub=np.zeros(rows.shape[0]),
                           a_eq=np.ones((1, L)), b_eq=np.array([1.0]),
                           bounds=[(0.0, 1.0)] * L)
        res = solve_lp(lp)
        if res.status == "infeasible":
            return None, None, None, None
        if res.status != "optimal":
            raise RuntimeError(f"cone LP failed: {res.status} {res.message}")
        return float(res.value), res.x, float(res.value), None
    sgn = 1.0 if sense == "max" else -1.0
    if _conic(model.d, norms):
        value, q, capital, hedge = _price_conic(ops, eps, norms, sgn * c, anchor)
        return (None,) * 4 if value is None else (sgn * value, q, sgn * capital, hedge)
    cons = _cone_oracles(ops, eps, norms)

    def objective(x):
        return float(sgn * (c @ x)), sgn * c

    anchor = np.asarray(anchor, dtype=float)

    def repair(x):
        if float(np.min(_cone_margins(ops, eps, norms, x))) >= 0.0:
            return x
        lo_t, hi_t = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo_t + hi_t)
            cand = anchor + mid * (x - anchor)
            if float(np.min(_cone_margins(ops, eps, norms, cand))) >= 0.0:
                lo_t = mid
            else:
                hi_t = mid
        return anchor + lo_t * (x - anchor)

    res = maximize_concave(
        objective, np.zeros(L), np.ones(L), cons,
        a_eq=np.ones((1, L)), b_eq=np.array([1.0]),
        tol=1e-9, feas_tol=1e-15, max_iter=400, start=anchor, repair=repair)
    if res.status == "infeasible" or res.x is None:
        return None, None, None, None
    return float(sgn * res.value), res.x, float(sgn * res.upper_bound), None


def max_min_weight_on_face(model: MarketModel, eps: float, norms: NormPair,
                           leaf_objective: np.ndarray, target: float):
    """max (min leaf weight) over cone-feasible q with c.q within 1e-9 (1 + |target|)
    of target, as (min weight, q, decided), or (0.0, None, True) when there
    is none.  q = 2 only decides whether it reaches _ATTAINED, by the ratio
    program on the slice c.q = target (a thin slab is as degenerate, and
    worse conditioned), and says when it cannot (q None unless reached)."""
    ops = tree_ops(model)
    L = model.n_leaves
    c = np.asarray(leaf_objective, dtype=float)
    scale = 1e-9 * (1.0 + abs(target))
    face_rows = np.vstack([np.concatenate([c, [0.0]]), np.concatenate([-c, [0.0]])])
    face_rhs = np.array([target + scale, -(target - scale)])
    min_rows = np.hstack([-np.eye(L), np.ones((L, 1))])
    if _polyhedral(model, norms, eps):
        rows = _cone_rows_linf(ops, eps)
        a_ub = np.vstack([np.hstack([rows, np.zeros((rows.shape[0], 1))]), face_rows, min_rows])
        b_ub = np.concatenate([np.zeros(rows.shape[0]), face_rhs, np.zeros(L)])
        cvec = np.zeros(L + 1)
        cvec[-1] = 1.0
        lp = LinearProgram(c=cvec, sense="max", a_ub=a_ub, b_ub=b_ub,
                           a_eq=np.concatenate([np.ones(L), [0.0]])[None, :],
                           b_eq=np.array([1.0]),
                           bounds=[(0.0, 1.0)] * L + [(0.0, 1.0)])
        res = solve_lp(lp)
        if res.status != "optimal":
            return 0.0, None, True
        return float(res.value), res.x[:L], True
    if _conic(model.d, norms):
        status, q, rho, bound, _ = _ratio_conic("max_min_weight_on_face", ops, eps, norms,
                                                _ATTAINED, np.ones(L), (c, target))
        return rho if q is not None else max(bound or 0.0, 0.0), q, status != "indeterminate"
    cons = _cone_oracles(ops, eps, norms, n_extra=1)

    def objective(x):
        g = np.zeros(L + 1)
        g[-1] = 1.0
        return float(x[-1]), g

    res = maximize_concave(
        objective, np.zeros(L + 1), np.ones(L + 1), cons,
        a_ub=np.vstack([face_rows, min_rows]),
        b_ub=np.concatenate([face_rhs, np.zeros(L)]),
        a_eq=np.concatenate([np.ones(L), [0.0]])[None, :], b_eq=np.array([1.0]),
        tol=1e-9, feas_tol=1e-10, max_iter=400)
    if res.x is None:
        return 0.0, None, True
    return float(res.value), res.x[:L], True


def reference_deviation(model: MarketModel, norms: NormPair) -> float:
    """max_v |E_P[dS | v]|_q — an upper bound for the critical value."""
    ops = tree_ops(model)
    P = model.leaf_prob
    worst = 0.0
    for j in range(len(ops.internal)):
        mass = float(ops.mask[:, j] @ P)
        z = ops.coeff[:, j, :].T @ P
        worst = max(worst, qnorm(z / mass, norms.q))
    return worst


# ---------------------------------------------------------------------------
# Single-node strict-arbitrage decision
#
# Localization reduces strict arbitrage to one trading period at one node.
# With slack map s_w(h) = h.dS(w) - eps |h|_p, minimax duality gives
#   max_{|h|_p<=1} min_w s_w(h) = max(gamma - eps, 0),
# where gamma = min over child-simplex weights of |sum_w a_w dS(w)|_q.  So
# gamma > eps certifies a uniformly positive arbitrage and gamma < eps rules
# out everything except boundary cases, which are settled by a support
# analysis: any zero-margin arbitrage must have exactly zero slack on the
# maximal feasible support S and non-negative slack off it, and for p > 1
# the unit-sphere slice {h . dS(w) = eps on S, |h|_p = 1} is a single point.
# ---------------------------------------------------------------------------


def node_min_simplex_deviation(model: MarketModel, v: int, norms: NormPair) -> float:
    """gamma(v) = min over child-simplex weights of |sum_w a_w dS(w)|_q.

    Scalar increments have a closed form: the simplex image is the interval
    [min dS, max dS], so gamma is 0 when it contains 0 and the smallest
    |dS| otherwise.  At q = 2 gamma is the norm of the children's min-norm
    point, kept on the model (:func:`node_geometry`).  Other geometry solves
    one LP (q = inf) or a cutting-plane program.
    """
    kids = list(model.children[v])
    A = model.delta[kids]  # (k, d)
    k = len(kids)
    if model.d == 1:
        c = A[:, 0]
        if c.min() <= 0.0 <= c.max():
            return 0.0
        return float(np.min(np.abs(c)))
    if k == 1:
        return qnorm(A[0], norms.q)
    if _polyhedral(model, norms):
        # min t s.t. -t <= (A' a)_i <= t, a in simplex
        d = model.d
        a_ub = np.vstack([np.hstack([A.T, -np.ones((d, 1))]),
                          np.hstack([-A.T, -np.ones((d, 1))])])
        lp = LinearProgram(c=np.concatenate([np.zeros(k), [1.0]]), sense="min",
                           a_ub=a_ub, b_ub=np.zeros(2 * d),
                           a_eq=np.concatenate([np.ones(k), [0.0]])[None, :],
                           b_eq=np.array([1.0]),
                           bounds=[(0.0, 1.0)] * k + [(0.0, None)])
        res = solve_lp(lp)
        if res.status != "optimal":
            raise RuntimeError(f"node deviation LP failed: {res.status}")
        return float(res.value)
    if _conic(model.d, norms):
        return node_geometry(model)[v].gamma

    def objective(a):
        z = A.T @ a
        val = qnorm(z, norms.q)
        zg = qnorm_grad(z, norms.q, val)
        return -val, -(A @ zg)

    res = maximize_concave(objective, np.zeros(k), np.ones(k),
                           a_eq=np.ones((1, k)), b_eq=np.array([1.0]),
                           tol=1e-10, feas_tol=1e-11, max_iter=300,
                           start=np.full(k, 1.0 / k), damping=0.5)
    if res.value is None:
        raise RuntimeError("node deviation program failed")
    return -float(res.value)


def _node_support_max(A: np.ndarray, w_pos: int, eps: float, norms: NormPair):
    """Upper bound on max a_w over {a in simplex: |A' a|_q <= eps} (0 when
    empty) by cutting planes, for the support analysis off the conic route
    (which reads the min-norm face; polyhedral nodes never reach it)."""
    k = A.shape[0]
    c = np.zeros(k)
    c[w_pos] = 1.0

    def objective(a):
        return float(c @ a), c

    def cone(a):
        z = A.T @ a
        val = qnorm(z, norms.q)
        zg = qnorm_grad(z, norms.q, val)
        return eps - val, -(A @ zg)

    res = maximize_concave(objective, np.zeros(k), np.ones(k), [cone],
                           a_eq=np.ones((1, k)), b_eq=np.array([1.0]),
                           tol=1e-9, feas_tol=1e-11, max_iter=300,
                           start=np.full(k, 1.0 / k))
    return 0.0 if res.status == "infeasible" else float(res.upper_bound)


def node_strict_arbitrage(model: MarketModel, v: int, eps: float, norms: NormPair,
                          band: float = 1e-9, gamma: Optional[float] = None,
                          with_certificate: bool = True):
    """Exact one-node strict-arbitrage decision; returns (found, h, gamma).

    The node's one-period market (its children as leaves) runs through the
    tree's strategy programs: the maximin program certifies gamma > eps,
    and at gamma = eps the sign of the sum LP decides polyhedral nodes.
    """
    A = model.delta[list(model.children[v])]
    ops = TreeOps(None, (v,), A[:, None, :], np.ones((A.shape[0], 1)))
    scale = 1.0 + float(np.max(np.abs(A)))
    if gamma is None:
        gamma = node_min_simplex_deviation(model, v, norms)
    if gamma > eps + band * scale:
        if not with_certificate:
            return True, None, gamma
        margin, h, _ = strict_arbitrage_maximin_program(ops, eps, norms, tol=1e-10)
        if h is not None and margin > 0:
            return True, h, gamma
        # Numerically at the threshold: fall through to the boundary analysis.
    if gamma < eps - band * scale or eps == 0.0:
        return False, None, gamma
    # Boundary band: support analysis.
    if _polyhedral(model, norms):
        # The polyhedral slack image is closed, so the LP's sign is exact.
        total, h, _ = strict_arbitrage_sum_program(ops, eps)
        return (True, h, gamma) if total > 1e-9 else (False, None, gamma)
    if _conic(model.d, norms):
        # Tangent: the cone set is the face of the min-norm point.
        on = node_geometry(model)[v].on
    else:
        on = np.array([_node_support_max(A, w, eps, norms) >= 1e-7 for w in range(len(A))])
    support, off = np.flatnonzero(on), np.flatnonzero(~on)
    if not off.size:
        return False, None, gamma
    if not support.size:
        # Cone empty at this level: uniform arbitrage must exist.
        margin, h, _ = strict_arbitrage_maximin_program(ops, eps, norms, tol=1e-10)
        if margin > 0 and h is not None:
            return True, h, gamma
        return False, None, gamma
    try:
        h, m = _min_norm_solution(A[support], np.full(len(support), eps), norms)
    except RuntimeError:
        # SLSQP failed on the min-norm system: no certificate to build here.
        return False, None, gamma
    if h is None or m is None or m > 1.0 + 1e-7 or m <= 0.0:
        return False, None, gamma
    h_unit = h / m
    slack_off = A[off] @ h_unit - eps
    if float(np.min(slack_off)) >= -band * scale and float(np.max(slack_off)) > band * scale:
        return True, h_unit, gamma
    return False, None, gamma
