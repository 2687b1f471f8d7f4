"""Shared optimization programs over an event tree.

Two families recur across arbitrage detection and pricing:

* strategy programs — variables are one d-vector per internal node, leaf
  constraints mix the linear gain with the concave -eps |H|_p cost;
* measure programs — variables are leaf weights, every internal node
  imposes the cone constraint |sum_w q(w) dS(w)|_q <= eps qbar(v).

Both are LPs when the relevant norm is polyhedral (p = 1, q = inf) and
cutting-plane programs otherwise.  This module holds the packing of tree
geometry into dense coefficient tensors plus the program builders; public
wrappers live in :mod:`epsarb.arbitrage` and :mod:`epsarb.pricing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .market import MarketModel, NormPair, Strategy
from .solvers import LinearProgram, maximize_concave, solve_lp


@dataclass(frozen=True)
class TreeOps:
    """Dense coefficient tensors for one market.

    ``coeff[k, j]`` is dS at the child of internal node j toward leaf k (zero
    when leaf k does not pass through node j), so leaf gains are
    ``einsum('kjd,jd->k', coeff, H)`` and node cone vectors are
    ``einsum('k,kd->d', q, coeff[:, j])``.  ``mask[k, j]`` flags leaf k under
    internal node j.
    """

    model: MarketModel
    internal: tuple
    coeff: np.ndarray  # (n_leaves, n_internal, d)
    mask: np.ndarray   # (n_leaves, n_internal) float 0/1
    leaf_count: np.ndarray  # leaves under each internal node


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
    ops = TreeOps(model, internal, coeff, mask, mask.sum(axis=0))
    object.__setattr__(model, "_tree_ops", ops)
    return ops


def pack_strategy(ops: TreeOps, strategy: Strategy) -> np.ndarray:
    return np.concatenate([strategy.values[v] for v in ops.internal]) if ops.internal else np.zeros(0)


def unpack_strategy(ops: TreeOps, x: np.ndarray) -> Strategy:
    model = ops.model
    vals = np.zeros((model.n_nodes, model.d))
    d = model.d
    for j, v in enumerate(ops.internal):
        vals[v] = x[j * d:(j + 1) * d]
    return Strategy(vals)


def _qnorm_and_grad(z: np.ndarray, q: float) -> tuple[float, np.ndarray]:
    """|z|_q and a (sub)gradient; gradient 0 at z = 0."""
    az = np.abs(z)
    if q == math.inf:
        val = float(az.max()) if z.size else 0.0
        g = np.zeros_like(z)
        if val > 0.0:
            i = int(np.argmax(az))
            g[i] = np.sign(z[i])
        return val, g
    if q == 2.0:
        val = float(np.sqrt(z @ z))
        return val, (z / val if val > 0.0 else np.zeros_like(z))
    val = float(np.sum(az ** q) ** (1.0 / q))
    if val == 0.0:
        return 0.0, np.zeros_like(z)
    return val, np.sign(z) * (az / val) ** (q - 1.0)


def pnorm_and_grad(h: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    return _qnorm_and_grad(h, p)


# ---------------------------------------------------------------------------
# Strategy-side programs
# ---------------------------------------------------------------------------

def _leaf_gain_cost(ops: TreeOps, norms: NormPair, x: np.ndarray, eps: float):
    """Per-leaf slack values/gradients of gain - eps * path cost at packed x."""
    n_int, d = len(ops.internal), ops.model.d
    H = x.reshape(n_int, d)
    gains = np.einsum("kjd,jd->k", ops.coeff, H)
    node_norm = np.zeros(n_int)
    node_grad = np.zeros((n_int, d))
    for j in range(n_int):
        node_norm[j], node_grad[j] = pnorm_and_grad(H[j], norms.p)
    costs = ops.mask @ node_norm
    slack = gains - eps * costs
    # gradient of slack_k wrt x: coeff[k] - eps * mask[k, j] * node_grad[j]
    return slack, gains, costs, node_norm, node_grad


def strict_arbitrage_sum_program(model: MarketModel, eps: float, norms: NormPair,
                                 tol: float = 1e-9, max_iter: int = 400):
    """max sum of leaf slacks s.t. every slack >= 0, sum_v |H(v)|_p <= 1.

    Returns (optimum, packed H or None, per-leaf slacks).  Positive optimum
    is the strict-arbitrage criterion at level eps.
    """
    ops = tree_ops(model)
    n_int, d = len(ops.internal), model.d
    N = n_int * d
    if N == 0:
        return 0.0, None, np.zeros(model.n_leaves)
    if norms.p == 1.0:
        a = ops.coeff.reshape(model.n_leaves, N)
        b = np.repeat(ops.mask, d, axis=1)
        # columns [H+, H-]; slack_k = (a - eps b) H+ + (-a - eps b) H-
        s_plus = a - eps * b
        s_minus = -a - eps * b
        rows = np.hstack([-s_plus, -s_minus])
        norm_row = np.ones((1, 2 * N))
        lp = LinearProgram(
            c=np.concatenate([s_plus.sum(axis=0), s_minus.sum(axis=0)]), sense="max",
            a_ub=np.vstack([rows, norm_row]),
            b_ub=np.concatenate([np.zeros(model.n_leaves), [1.0]]),
            bounds=[(0, None)] * (2 * N))
        res = solve_lp(lp)
        if res.status != "optimal":
            raise RuntimeError(f"strict-arbitrage LP failed: {res.status} {res.message}")
        h = res.x[:N] - res.x[N:]
        slack = s_plus @ res.x[:N] + s_minus @ res.x[N:]
        return float(res.value), h, slack

    def objective(x):
        slack, gains, costs, node_norm, node_grad = _leaf_gain_cost(ops, norms, x, eps)
        grad = ops.coeff.sum(axis=0) - eps * ops.leaf_count[:, None] * node_grad
        return float(slack.sum()), grad.ravel()

    def leaf_constraint(k):
        def g(x):
            slack, gains, costs, node_norm, node_grad = _leaf_gain_cost(ops, norms, x, eps)
            grad = ops.coeff[k] - eps * ops.mask[k][:, None] * node_grad
            return float(slack[k]), grad.ravel()
        return g

    def norm_constraint(x):
        slack, gains, costs, node_norm, node_grad = _leaf_gain_cost(ops, norms, x, eps)
        return 1.0 - float(node_norm.sum()), -node_grad.ravel()

    cons = [leaf_constraint(k) for k in range(model.n_leaves)] + [norm_constraint]
    res = maximize_concave(objective, -np.ones(N), np.ones(N), cons,
                           tol=tol, feas_tol=10 * tol, max_iter=max_iter,
                           start=np.zeros(N))
    if res.x is None:
        return 0.0, None, np.zeros(model.n_leaves)
    slack, *_ = _leaf_gain_cost(ops, norms, res.x, eps)
    return float(res.value), res.x, slack


def strict_arbitrage_maximin_program(model: MarketModel, eps: float, norms: NormPair,
                                     tol: float = 1e-9, max_iter: int = 400):
    """max delta s.t. every leaf slack >= delta, sum_v |H(v)|_p <= 1.

    The maximin certificate: its margin per unit of strategy norm is the
    uniform slack rate.  Returns (delta, packed H or None, slacks).
    """
    ops = tree_ops(model)
    n_int, d = len(ops.internal), model.d
    N = n_int * d
    if N == 0:
        return 0.0, None, np.zeros(model.n_leaves)
    if norms.p == 1.0:
        a = ops.coeff.reshape(model.n_leaves, N)
        b = np.repeat(ops.mask, d, axis=1)
        s_plus = a - eps * b
        s_minus = -a - eps * b
        rows = np.hstack([-s_plus, -s_minus, np.ones((model.n_leaves, 1))])
        norm_row = np.concatenate([np.ones(2 * N), [0.0]])[None, :]
        cvec = np.zeros(2 * N + 1)
        cvec[-1] = 1.0
        lp = LinearProgram(
            c=cvec, sense="max",
            a_ub=np.vstack([rows, norm_row]),
            b_ub=np.concatenate([np.zeros(model.n_leaves), [1.0]]),
            bounds=[(0, None)] * (2 * N) + [(None, None)])
        res = solve_lp(lp)
        if res.status != "optimal":
            raise RuntimeError(f"maximin LP failed: {res.status} {res.message}")
        h = res.x[:N] - res.x[N:2 * N]
        slack = s_plus @ res.x[:N] + s_minus @ res.x[N:2 * N]
        return float(res.value), h, slack

    # Leaf slacks are positively homogeneous in H, so maximize the minimum
    # slack over the box (iterates are always usable) and normalize the
    # winner to unit total node norm afterward.
    def objective(x):
        slack, gains, costs, node_norm, node_grad = _leaf_gain_cost(ops, norms, x, eps)
        k = int(np.argmin(slack))
        grad = ops.coeff[k] - eps * ops.mask[k][:, None] * node_grad
        return float(slack[k]), grad.ravel()

    res = maximize_concave(objective, -np.ones(N), np.ones(N), tol=tol,
                           max_iter=max_iter, start=np.zeros(N))
    if res.x is None:
        return 0.0, None, np.zeros(model.n_leaves)
    h = res.x
    total = sum(pnorm_and_grad(h[j * d:(j + 1) * d], norms.p)[0] for j in range(n_int))
    if total > 0:
        h = h / total
    slack, *_ = _leaf_gain_cost(ops, norms, h, eps)
    return float(np.min(slack)), h, slack


# ---------------------------------------------------------------------------
# Measure-side programs (leaf weights under node-wise cone constraints)
# ---------------------------------------------------------------------------

def _cone_oracles(ops: TreeOps, eps: float, norms: NormPair, n_extra: int = 0,
                  cut_bank: Optional[dict] = None, bank_cap: int = 30):
    """Concave oracles eps*qbar(v) - |z_v(q)|_q >= 0, padded for extra vars.

    When a ``cut_bank`` is given, every evaluated norm subgradient u is
    deposited under its node key: since u . z0 = |z0|_q, the induced cut
    (coeff u) . q <= eps (mask . q) is a supporting ray valid at every eps,
    so banks can be replayed across levels (bisection reuse).
    """
    cons = []
    for j in range(len(ops.internal)):
        coeff_j = ops.coeff[:, j, :]
        mask_j = ops.mask[:, j]

        def g(x, j=j, coeff_j=coeff_j, mask_j=mask_j):
            q = x[:mask_j.size]
            z = coeff_j.T @ q
            val, zgrad = _qnorm_and_grad(z, norms.q)
            if cut_bank is not None and val > 0.0:
                bank = cut_bank.setdefault(j, [])
                bank.append(zgrad)
                if len(bank) > bank_cap:
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


def _cone_margins(ops: TreeOps, eps: float, norms: NormPair, q: np.ndarray) -> np.ndarray:
    """Exact node margins eps*qbar(v) - |z_v(q)|_q at given leaf weights."""
    out = np.zeros(len(ops.internal))
    for j in range(len(ops.internal)):
        z = ops.coeff[:, j, :].T @ q
        out[j] = eps * float(ops.mask[:, j] @ q) - _qnorm_and_grad(z, norms.q)[0]
    return out


def interior_feasibility(model: MarketModel, eps: float, norms: NormPair, eta: float,
                         cut_bank: Optional[dict] = None, polish: bool = False,
                         tol: float = 1e-10, max_iter: Optional[int] = None):
    """Decide the eta-interior cone program q >= eta P, sum q = 1, node cones.

    Returns (status, q, rho, rho_upper_bound, margin) with status in
    {feasible, infeasible, indeterminate}.

    Two robust routes: the margin program max min_v [eps qbar - |z_v|_q]
    over {q >= eta P} has exact LP-vertex incumbents, so a non-negative
    incumbent margin certifies feasibility with no tolerance cascade; and
    the max-min-ratio program's cutting-plane upper bound certifies
    infeasibility when it drops below eta even when the interior margin
    itself is far below machine precision.  Polyhedral geometry (q = inf or
    d = 1) is decided by one exact LP instead.
    """
    ops = tree_ops(model)
    L = model.n_leaves
    P = model.leaf_prob
    n_nodes = len(ops.internal)
    if max_iter is None:
        max_iter = 400 if polish else 150
    if norms.q == math.inf or model.d == 1:
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
        res = solve_lp(lp)
        if res.status == "infeasible":
            return "infeasible", None, None, None, None
        if res.status != "optimal":
            raise RuntimeError(f"interior-ratio LP failed: {res.status} {res.message}")
        rho = float(res.value)
        if rho >= eta:
            q = res.x[:L]
            return "feasible", q, rho, rho, float(np.min(_cone_margins(ops, eps, norms, q)))
        return "infeasible", None, rho, rho, None

    # Margin route: statics are exact at LP vertices, so incumbents certify.
    margin_cons = []
    for j in range(n_nodes):
        coeff_j = ops.coeff[:, j, :]
        mask_j = ops.mask[:, j]

        def g(x, j=j, coeff_j=coeff_j, mask_j=mask_j):
            qv = x[:L]
            z = coeff_j.T @ qv
            val, zgrad = _qnorm_and_grad(z, norms.q)
            if cut_bank is not None and val > 0.0:
                bank = cut_bank.setdefault(j, [])
                bank.append(zgrad)
                if len(bank) > 30:
                    del bank[0]
            grad = np.concatenate([eps * mask_j - coeff_j @ zgrad, [-1.0]])
            return eps * float(mask_j @ qv) - val - x[-1], grad
        margin_cons.append(g)

    def margin_objective(x):
        grad = np.zeros(L + 1)
        grad[-1] = 1.0
        return float(x[-1]), grad

    def margin_repair(x):
        qv = x[:L]
        m = float(np.min(_cone_margins(ops, eps, norms, qv)))
        return np.concatenate([qv, [m]])

    # Margins below the rounding floor of |z|_q at this price scale cannot be
    # distinguished from zero, so such verdicts defer to the ratio route
    # (whose certified upper bound amplifies sub-machine interior collapses).
    scale = 1.0 + float(np.max(np.abs(ops.coeff)))
    margin_floor = 1e-12 * scale
    a_ub, b_ub = None, None
    if cut_bank:
        a_ub, b_ub = _bank_rows(ops, eps, cut_bank, n_extra=1)
    res = maximize_concave(
        margin_objective,
        np.concatenate([eta * P, [-2.0 * eps - scale]]),
        np.concatenate([np.ones(L), [eps * 2.0 + scale]]),
        margin_cons, a_ub=a_ub, b_ub=b_ub,
        a_eq=np.concatenate([np.ones(L), [0.0]])[None, :], b_eq=np.array([1.0]),
        tol=tol, feas_tol=1e-12, max_iter=max_iter,
        start=np.concatenate([P, [0.0]]),
        stop_above=None if polish else margin_floor,
        stop_below=-1e-10, repair=margin_repair)
    if res.status == "infeasible":
        return "infeasible", None, None, None, None
    if res.x is not None and res.value is not None and res.value >= margin_floor:
        q = res.x[:L]
        rho = float(np.min(q / P))
        return "feasible", q, rho, None, float(res.value)
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
        tol=tol, feas_tol=1e-11, max_iter=max_iter,
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
        if rho >= eta and float(np.min(_cone_margins(ops, eps, norms, q))) >= 0.0:
            return "feasible", q, rho, rho_ub if rho_ub < np.inf else None, None
    return "indeterminate", None, None, rho_ub, margin_ub if margin_ub < np.inf else None


def cone_linear_optimum(model: MarketModel, eps: float, norms: NormPair,
                        leaf_objective: np.ndarray, sense: str,
                        extra_ub=None, extra_rhs=None, anchor=None,
                        tol: float = 1e-9, max_iter: int = 400):
    """Optimize a linear leaf functional over the closed cone-feasible set.

    ``anchor`` is an exactly cone-feasible point (an interior witness);
    cutting-plane iterates are repaired by the longest feasible mix toward
    it, so incumbents are exactly feasible.  Returns (value, q) or
    (None, None) when the closed set is empty.
    """
    ops = tree_ops(model)
    L = model.n_leaves
    c = np.asarray(leaf_objective, dtype=float)
    if norms.q == math.inf or model.d == 1:
        rows = _cone_rows_linf(ops, eps)
        a_ub = rows
        b_ub = np.zeros(rows.shape[0])
        if extra_ub is not None:
            a_ub = np.vstack([a_ub, np.atleast_2d(extra_ub)])
            b_ub = np.concatenate([b_ub, np.atleast_1d(extra_rhs)])
        lp = LinearProgram(c=c, sense=sense, a_ub=a_ub, b_ub=b_ub,
                           a_eq=np.ones((1, L)), b_eq=np.array([1.0]),
                           bounds=[(0.0, 1.0)] * L)
        res = solve_lp(lp)
        if res.status == "infeasible":
            return None, None
        if res.status != "optimal":
            raise RuntimeError(f"cone LP failed: {res.status} {res.message}")
        return float(res.value), res.x
    sgn = 1.0 if sense == "max" else -1.0
    cons = _cone_oracles(ops, eps, norms)

    def objective(x):
        return float(sgn * (c @ x)), sgn * c

    repair = None
    if anchor is not None:
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
        a_ub=extra_ub, b_ub=extra_rhs,
        a_eq=np.ones((1, L)), b_eq=np.array([1.0]),
        tol=tol,
        feas_tol=1e-15 if anchor is not None else max(tol * 0.1, 1e-11),
        max_iter=max_iter,
        start=model.leaf_prob if anchor is None else anchor, repair=repair)
    if res.status == "infeasible":
        return None, None
    if res.x is None:
        return None, None
    return float(sgn * res.value), res.x


def max_min_weight_on_face(model: MarketModel, eps: float, norms: NormPair,
                           leaf_objective: np.ndarray, target: float,
                           face_tol: float = 1e-9, tol: float = 1e-9,
                           max_iter: int = 400):
    """max (min leaf weight) over cone-feasible q with c.q within face_tol of target."""
    ops = tree_ops(model)
    L = model.n_leaves
    c = np.asarray(leaf_objective, dtype=float)
    scale = face_tol * (1.0 + abs(target))
    face_rows = np.vstack([np.concatenate([c, [0.0]]), np.concatenate([-c, [0.0]])])
    face_rhs = np.array([target + scale, -(target - scale)])
    min_rows = np.hstack([-np.eye(L), np.ones((L, 1))])
    if norms.q == math.inf or model.d == 1:
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
            return 0.0, None
        return float(res.value), res.x[:L]

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
        tol=tol, feas_tol=max(tol * 0.1, 1e-11), max_iter=max_iter)
    if res.x is None:
        return 0.0, None
    return float(res.value), res.x[:L]


def reference_deviation(model: MarketModel, norms: NormPair) -> float:
    """max_v |E_P[dS | v]|_q — an upper bound for the critical value."""
    ops = tree_ops(model)
    P = model.leaf_prob
    worst = 0.0
    for j in range(len(ops.internal)):
        mass = float(ops.mask[:, j] @ P)
        z = ops.coeff[:, j, :].T @ P
        worst = max(worst, _qnorm_and_grad(z / mass, norms.q)[0])
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


def _polyhedral(model: MarketModel, norms: NormPair) -> bool:
    """Whether the q-cone (and the p-cost) is exactly LP-representable."""
    return norms.q == math.inf or model.d == 1


def node_min_simplex_deviation(model: MarketModel, v: int, norms: NormPair,
                               tol: float = 1e-10) -> float:
    """gamma(v) = min over child-simplex weights of |sum_w a_w dS(w)|_q."""
    kids = list(model.children[v])
    A = model.delta[kids]  # (k, d)
    k = len(kids)
    if k == 1:
        return _qnorm_and_grad(A[0], norms.q)[0]
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

    def objective(a):
        z = A.T @ a
        val, zg = _qnorm_and_grad(z, norms.q)
        return -val, -(A @ zg)

    res = maximize_concave(objective, np.zeros(k), np.ones(k),
                           a_eq=np.ones((1, k)), b_eq=np.array([1.0]),
                           tol=tol, feas_tol=1e-11, max_iter=300,
                           start=np.full(k, 1.0 / k), damping=0.5)
    if res.value is None:
        raise RuntimeError("node deviation program failed")
    return -float(res.value)


def _node_support_max(model: MarketModel, v: int, w_pos: int, eps: float,
                      norms: NormPair, tol: float = 1e-9):
    """(lower, upper) bounds on max a_w over {a in simplex: |A' a|_q <= eps}."""
    kids = list(model.children[v])
    A = model.delta[kids]
    k = len(kids)
    c = np.zeros(k)
    c[w_pos] = 1.0
    if _polyhedral(model, norms):
        d = model.d
        a_ub = np.vstack([A.T, -A.T])
        lp = LinearProgram(c=c, sense="max", a_ub=a_ub, b_ub=np.full(2 * d, eps),
                           a_eq=np.ones((1, k)), b_eq=np.array([1.0]),
                           bounds=[(0.0, 1.0)] * k)
        res = solve_lp(lp)
        if res.status == "infeasible":
            return None, None
        if res.status != "optimal":
            raise RuntimeError(f"support LP failed: {res.status}")
        return float(res.value), float(res.value)

    def objective(a):
        return float(c @ a), c

    def cone(a):
        z = A.T @ a
        val, zg = _qnorm_and_grad(z, norms.q)
        return eps - val, -(A @ zg)

    res = maximize_concave(objective, np.zeros(k), np.ones(k), [cone],
                           a_eq=np.ones((1, k)), b_eq=np.array([1.0]),
                           tol=tol, feas_tol=1e-11, max_iter=300,
                           start=np.full(k, 1.0 / k))
    if res.status == "infeasible":
        return None, None
    lb = None if res.x is None else float(res.value)
    return lb, float(res.upper_bound)


def _node_uniform_certificate(model: MarketModel, v: int, eps: float, norms: NormPair,
                              tol: float = 1e-10):
    """max_{|h|_p<=1} min_w slack_w(h) at one node, with the maximizer."""
    kids = list(model.children[v])
    A = model.delta[kids]
    k, d = A.shape
    if norms.p == 1.0 or model.d == 1:
        # variables (h+, h-, delta); node cost = sum(h+ + h-)
        rows = np.hstack([-(A - eps), -(-A - eps), np.ones((k, 1))])
        norm_row = np.concatenate([np.ones(2 * d), [0.0]])[None, :]
        cvec = np.zeros(2 * d + 1)
        cvec[-1] = 1.0
        lp = LinearProgram(c=cvec, sense="max",
                           a_ub=np.vstack([rows, norm_row]),
                           b_ub=np.concatenate([np.zeros(k), [1.0]]),
                           bounds=[(0, None)] * (2 * d) + [(None, None)])
        res = solve_lp(lp)
        if res.status != "optimal":
            raise RuntimeError(f"node maximin LP failed: {res.status}")
        return float(res.value), res.x[:d] - res.x[d:2 * d]

    # Slacks are positively homogeneous, so maximize min_w slack over the box
    # [-1, 1]^d (no nonlinear constraints: every iterate is usable) and
    # normalize afterward; the sign of the optimum is what matters.
    def objective(h):
        nv, gv = pnorm_and_grad(h, norms.p)
        slacks = A @ h - eps * nv
        w = int(np.argmin(slacks))
        return float(slacks[w]), A[w] - eps * gv

    res = maximize_concave(objective, -np.ones(d), np.ones(d),
                           tol=tol, max_iter=400, start=np.zeros(d))
    if res.x is None:
        raise RuntimeError("node maximin program failed")
    h = res.x
    nv = pnorm_and_grad(h, norms.p)[0]
    if nv > 0:
        h = h / nv
    margin = float(np.min(A @ h) - eps) if nv > 0 else 0.0
    return margin, h


def node_strict_arbitrage(model: MarketModel, v: int, eps: float, norms: NormPair,
                          band: float = 1e-9, support_tol: float = 1e-7,
                          gamma: Optional[float] = None, with_certificate: bool = True):
    """Exact one-node strict-arbitrage decision; returns (found, h, gamma)."""
    kids = list(model.children[v])
    A = model.delta[kids]
    scale = 1.0 + float(np.max(np.abs(A)))
    if gamma is None:
        gamma = node_min_simplex_deviation(model, v, norms)
    if gamma > eps + band * scale:
        if not with_certificate:
            return True, None, gamma
        margin, h = _node_uniform_certificate(model, v, eps, norms)
        if h is not None and margin > 0:
            return True, h, gamma
        # Numerically at the threshold: fall through to the boundary analysis.
    if gamma < eps - band * scale or eps == 0.0:
        return False, None, gamma
    # Boundary band: support analysis.
    if norms.p == 1.0 or model.d == 1:
        # Polyhedral slack image is closed, so one exact LP settles the sign.
        found, face_h = _p1_boundary_arbitrage(A, eps, model.d)
        if found:
            return True, face_h, gamma
        return False, None, gamma
    support: list[int] = []
    off: list[int] = []
    for w in range(len(kids)):
        lb, ub = _node_support_max(model, v, w, eps, norms)
        if ub is None or (ub is not None and ub < support_tol):
            off.append(w)
        else:
            support.append(w)
    if not off:
        return False, None, gamma
    if not support:
        # Cone empty at this level: uniform arbitrage must exist.
        margin, h = _node_uniform_certificate(model, v, eps, norms)
        if margin > 0 and h is not None:
            return True, h, gamma
        return False, None, gamma
    from .arbitrage import _min_norm_solution  # local import to avoid a cycle
    h, m = _min_norm_solution(A[support], np.full(len(support), eps), norms)
    if h is None or m is None or m > 1.0 + support_tol or m <= 0.0:
        return False, None, gamma
    h_unit = h / m
    slack_off = A[off] @ h_unit - eps
    if float(np.min(slack_off)) >= -band * scale and float(np.max(slack_off)) > band * scale:
        return True, h_unit, gamma
    return False, None, gamma


def _p1_boundary_arbitrage(A: np.ndarray, eps: float, d: int,
                           tol: float = 1e-9):
    """Zero-margin arbitrage search for polyhedral norms: exact LP.

    max total positive slack over {slack_w(h) >= 0, sum|h| <= 1} with slack
    capped at 1 per child, in (h+, h-, t) variables; the feasible set is a
    polytope, so the sign of the optimum is exact.
    """
    k = A.shape[0]
    # slack_w(h) = A_w (h+ - h-) - eps * sum(h+ + h-)
    s_plus = A - eps
    s_minus = -A - eps
    n = 2 * d + k
    a_ub = np.vstack([
        np.hstack([-s_plus, -s_minus, np.zeros((k, k))]),        # slack >= 0
        np.hstack([-s_plus, -s_minus, np.eye(k)]),               # t_w <= slack_w
        np.concatenate([np.ones(2 * d), np.zeros(k)])[None, :],  # norm <= 1
    ])
    b_ub = np.concatenate([np.zeros(2 * k), [1.0]])
    cvec = np.concatenate([np.zeros(2 * d), np.ones(k)])
    lp = LinearProgram(c=cvec, sense="max", a_ub=a_ub, b_ub=b_ub,
                       bounds=[(0, None)] * (2 * d) + [(None, 1.0)] * k)
    res = solve_lp(lp)
    if res.status != "optimal":
        return False, None
    if res.value > tol:
        return True, res.x[:d] - res.x[d:2 * d]
    return False, None
