"""Pricing under quantified arbitrage: approximate martingale measures,
robust price bounds, super-replication, and fair-price ranges.

The measure side optimizes leaf weights under node-wise cone constraints
|sum_w q(w) dS(w)|_q <= eps qbar(v).  Feasibility of the eta-interior
program is decided through the max-min-ratio value rho* = max min q/P over
the closed cone: the interior program at level eta is feasible iff
rho* >= eta, which stays numerically robust even when the interior margin
itself is far below solver precision.

Routes: HiGHS LPs for polyhedral geometry (p = 1, d = 1, or eps = 0); one
second-order cone program per measure program and per hedge pattern at
p = 2 with d >= 2, each result checked exactly before it is returned and
solved again by cutting planes when the check fails; cutting planes for
other p.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arbitrage import NodeStructure, compute_node_structure
from .market import (MarketModel, MeasureWeights, NormPair, Payoff, Strategy,
                     gain, is_eps_martingale, strategy_cost, validate_market)
from .programs import (_conic, _fallback, _norm_cones, cone_linear_optimum,
                       interior_feasibility, max_min_weight_on_face, pnorm_and_grad,
                       tree_ops, unpack_strategy)
from .solvers import ConeProgram, LinearProgram, maximize_concave, solve_lp, solve_socp


class NoMartingaleStructure(RuntimeError):
    """Raised when no eps-martingale structure exists at the requested level."""


@dataclass(frozen=True)
class EmmResult:
    """Outcome of the eta-interior eps-martingale feasibility program."""

    status: str  # feasible | infeasible
    eps: float
    eta: float
    measure: Optional[MeasureWeights]
    rho: Optional[float]
    rho_upper_bound: Optional[float]
    deviation: Optional[float]
    indeterminate: bool = False

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def to_dict(self, model: MarketModel) -> dict:
        out = {"status": self.status, "eps": self.eps, "eta": self.eta,
               "rho": self.rho, "rho_upper_bound": self.rho_upper_bound,
               "indeterminate": self.indeterminate}
        if self.measure is not None:
            out["weights"] = self.measure.to_dict(model)
            out["deviation"] = self.deviation
        return out


def find_eps_martingale_measure(model: MarketModel, eps: float, norms: NormPair,
                                eta: Optional[float] = None,
                                polish: bool = True) -> EmmResult:
    """A strictly positive measure with all mean increments within eps, or a certificate.

    Feasibility at interior level eta is decided by rho* = max over
    cone-feasible weights of the minimum density ratio min q/P: the witness
    has q >= eta P and exact node margins >= 0, and infeasibility is
    certified by an upper bound on rho* below eta (exact LP for polyhedral
    geometry; at p = 2 the cone program's recomputed dual bound or an
    infeasibility certificate; otherwise, or when the conic result fails
    its check, the cutting-plane upper bound).
    """
    report = validate_market(model)
    if not report.ok:
        raise ValueError(f"invalid market: {report.violations[0]}")
    if eta is None:
        eta = 1e-7 * float(np.min(model.leaf_prob))
    status, q, rho, rho_ub, margin = interior_feasibility(model, eps, norms, eta,
                                                          polish=polish)
    if status == "feasible":
        w = np.maximum(q, 0.0)
        measure = MeasureWeights.from_array(model, w / w.sum(), interior_threshold=0.0)
        _, dev = is_eps_martingale(model, measure, eps, norms)
        return EmmResult("feasible", eps, eta, measure, rho, rho_ub, dev)
    return EmmResult("infeasible", eps, eta, None, rho, rho_ub, None,
                     indeterminate=status == "indeterminate")


@dataclass(frozen=True)
class BoundResult:
    """One side of the robust price bound over the eps-martingale family."""

    direction: str
    value: float
    attained: bool
    witness: Optional[MeasureWeights]
    face_min_weight: float


def robust_price_bound(model: MarketModel, eps: float, norms: NormPair,
                       payoff: Payoff, direction: str,
                       attain_tol: float = 1e-7) -> BoundResult:
    """sup or inf of E_Q[payoff] over the eps-martingale family.

    Computed on the closed relaxation (weights >= 0): under the existence of
    one equivalent member, mixing makes boundary values limits of equivalent
    ones, so only attainment can differ — decided by maximizing the minimum
    leaf weight over the optimal face.
    """
    if direction not in ("sup", "inf"):
        raise ValueError("direction must be 'sup' or 'inf'")
    emm = find_eps_martingale_measure(model, eps, norms, polish=False)
    if not emm.feasible:
        raise NoMartingaleStructure(
            f"no eps-martingale structure at level {eps} (rho upper bound {emm.rho_upper_bound})")
    sense = "max" if direction == "sup" else "min"
    anchor = emm.measure.weights if emm.measure is not None else None
    value, _ = cone_linear_optimum(model, eps, norms, payoff.values, sense,
                                   anchor=anchor)
    if value is None:
        raise NoMartingaleStructure(f"cone program infeasible at level {eps}")
    min_w, q_face = max_min_weight_on_face(model, eps, norms, payoff.values, value)
    attained = bool(min_w > attain_tol)
    witness = None
    if q_face is not None:
        w = np.maximum(q_face, 0.0)
        witness = MeasureWeights.from_array(model, w / w.sum())
    return BoundResult(direction, float(value), attained, witness, float(min_w))


@dataclass(frozen=True)
class HedgeCertificate:
    """Super-replication certificate: capital, strategy, orthogonal add-on.

    The orthogonal part is active only at nodes where the costed strategy
    vanishes and lies in the admissible hyperplane there, so it carries no
    norm cost.
    """

    capital: float
    strategy: Strategy
    orthogonal: dict  # node index -> vector in the node's admissible hyperplane
    slacks: np.ndarray
    pattern: tuple

    def to_dict(self, model: MarketModel) -> dict:
        return {
            "x": self.capital,
            "strategy": {model.ids[v]: [float(x) for x in self.strategy.values[v]]
                         for v in model.internal},
            "orthogonal": {model.ids[v]: [float(x) for x in g]
                           for v, g in self.orthogonal.items()},
            "slacks": {model.ids[leaf]: float(self.slacks[k])
                       for k, leaf in enumerate(model.leaves)},
        }


@dataclass(frozen=True)
class SuperhedgeResult:
    price: float            # dual bound: sup E_Q[payoff]
    primal_value: Optional[float]
    gap: Optional[float]
    certificate: Optional[HedgeCertificate]
    mode: str               # direct | patterns | best_effort_gap
    duality_ok: Optional[bool]

    def to_dict(self, model: MarketModel) -> dict:
        out = {"price": self.price, "primal": self.primal_value, "gap": self.gap,
               "mode": self.mode, "duality_ok": self.duality_ok}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict(model)
        return out


def _orthogonal_gain(model: MarketModel, ops, orthogonal: dict) -> np.ndarray:
    extra = np.zeros(model.n_leaves)
    pos = {v: j for j, v in enumerate(ops.internal)}
    for v, gvec in orthogonal.items():
        j = pos[v]
        extra += ops.coeff[:, j, :] @ gvec
    return extra


def _superhedge_lp(model: MarketModel, eps: float, payoff: Payoff):
    """Epigraph LP for p = 1 (also exact at eps = 0 for any p)."""
    ops = tree_ops(model)
    L, n_int, d = model.n_leaves, len(ops.internal), model.d
    N = n_int * d
    a = ops.coeff.reshape(L, N)
    b = np.repeat(ops.mask, d, axis=1)
    rows = np.hstack([-np.ones((L, 1)), -(a - eps * b), -(-a - eps * b)])
    cvec = np.zeros(1 + 2 * N)
    cvec[0] = 1.0
    lp = LinearProgram(c=cvec, sense="min", a_ub=rows, b_ub=-payoff.values,
                       bounds=[(None, None)] + [(0, None)] * (2 * N))
    res = solve_lp(lp)
    if res.status != "optimal":
        raise RuntimeError(f"superhedge LP failed: {res.status} {res.message}")
    h = res.x[1:1 + N] - res.x[1 + N:]
    strategy = unpack_strategy(ops, h)
    slacks = float(res.x[0]) + gain(model, strategy) - eps * strategy_cost(model, strategy, NormPair(1.0)) - payoff.values
    return float(res.value), HedgeCertificate(float(res.x[0]), strategy, {}, slacks, ())


def _superhedge_pattern(model: MarketModel, eps: float, norms: NormPair, payoff: Payoff,
                        structures: dict[int, NodeStructure], pattern: tuple,
                        x_box: tuple, tol: float = 1e-7, warm_strategy=None):
    """Convex primal for one activity pattern of the orthogonal add-on (p > 1).

    Pattern nodes trade only the costless orthogonal direction (their costed
    holding is zero); free nodes trade the costed strategy.  One cone
    program at p = 2 with d >= 2 (``_pattern_conic``), cutting planes
    otherwise or when the conic hedge is not accepted.
    """
    ops = tree_ops(model)
    L, d = model.n_leaves, model.d
    pos = {v: j for j, v in enumerate(ops.internal)}
    free_nodes = [v for v in ops.internal if v not in pattern]
    y_dims = [structures[v].perp_basis.shape[1] for v in pattern]
    NH = len(free_nodes) * d
    NY = int(sum(y_dims))
    n = 1 + NH + NY

    gain_free = np.zeros((L, NH))
    mask_free = np.zeros((L, len(free_nodes)))
    for a_i, v in enumerate(free_nodes):
        j = pos[v]
        gain_free[:, a_i * d:(a_i + 1) * d] = ops.coeff[:, j, :]
        mask_free[:, a_i] = ops.mask[:, j]
    gain_y = np.zeros((L, NY))
    off = 0
    for v, r in zip(pattern, y_dims):
        j = pos[v]
        gain_y[:, off:off + r] = ops.coeff[:, j, :] @ structures[v].perp_basis
        off += r

    n_free = len(free_nodes)

    def leaf_block(z):
        """All leaf slack values and gradients at once."""
        H = z[1:1 + NH].reshape(n_free, d)
        y = z[1 + NH:]
        node_norm = np.zeros(n_free)
        node_grad = np.zeros((n_free, d))
        for a_i in range(n_free):
            node_norm[a_i], node_grad[a_i] = pnorm_and_grad(H[a_i], norms.p)
        vals = (z[0] + gain_free @ z[1:1 + NH] + gain_y @ y
                - eps * (mask_free @ node_norm) - payoff.values)
        grads = np.empty((L, n))
        grads[:, 0] = 1.0
        grads[:, 1:1 + NH] = gain_free - eps * np.einsum(
            "ka,ai->kai", mask_free, node_grad).reshape(L, NH)
        grads[:, 1 + NH:] = gain_y
        return vals, grads

    def objective(z):
        g = np.zeros(n)
        g[0] = -1.0
        return -float(z[0]), g

    def repair(z):
        # Exact feasibility restore: raise the capital to the binding leaf.
        worst = float(np.min(leaf_block(z)[0]))
        if worst >= 0.0:
            return z
        out = z.copy()
        out[0] -= worst
        return out

    scale = 1.0 + float(np.max(np.abs(payoff.values))) + float(np.max(np.abs(model.prices)))
    conic = _conic(model, norms)
    z = _pattern_conic(ops, eps, payoff, gain_free, mask_free, gain_y, leaf_block,
                       tol * scale) if conic else None
    if z is None:
        if conic:
            _fallback("_superhedge_pattern", "no converged hedge within tol")
        z = _pattern_kelley(objective, repair, leaf_block, x_box, scale, NH, NY, free_nodes,
                            warm_strategy, tol)
    if z is None:
        return None, None
    x = float(z[0])
    vals = np.zeros((model.n_nodes, d))
    for a_i, v in enumerate(free_nodes):
        vals[v] = z[1 + a_i * d:1 + (a_i + 1) * d]
    strategy = Strategy(vals)
    orthogonal = {}
    off = 1 + NH
    for v, r in zip(pattern, y_dims):
        orthogonal[v] = structures[v].perp_basis @ z[off:off + r]
        off += r
    slacks = x + gain(model, strategy) - eps * strategy_cost(model, strategy, norms) \
        + _orthogonal_gain(model, tree_ops(model), orthogonal) - payoff.values
    return x, HedgeCertificate(x, strategy, orthogonal, slacks, pattern)


def _pattern_conic(ops, eps: float, payoff: Payoff, gain_free: np.ndarray,
                   mask_free: np.ndarray, gain_y: np.ndarray, leaf_block, tol: float):
    """One pattern's primal as a cone program: min x over (H, t, x, y) with
    x + gain_free H + gain_y y - eps mask_free t >= payoff, |H_a|_2 <= t_a.

    The capital is raised to the binding exact leaf slack (at t = |H|), so
    the hedge returned is exactly feasible; it is taken when the solver's
    residuals and gap are under 1e-9 and the raise is at most ``tol``.
    Returns the packed point (x, H, y) or None.
    """
    L, NH = gain_free.shape
    n_free, NY = mask_free.shape[1], gain_y.shape[1]
    blocks, soc = _norm_cones(ops.model.d, n_free)
    lin = -np.hstack([gain_free, -eps * mask_free, np.ones((L, 1)), gain_y])
    G = np.vstack([lin, np.hstack([blocks, np.zeros((blocks.shape[0], 1 + NY))])])
    c = np.zeros(NH + n_free + 1 + NY)
    c[NH + n_free] = 1.0
    res = solve_socp(ConeProgram(c, G, np.concatenate([-payoff.values, np.zeros(blocks.shape[0])]),
                                 L, soc))
    if not res.near_optimal(1e-9):
        return None
    w = res.x
    z = np.concatenate([w[NH + n_free:NH + n_free + 1], w[:NH], w[NH + n_free + 1:]])
    raise_by = -float(np.min(leaf_block(z)[0]))
    if raise_by > tol:
        return None
    z[0] += max(raise_by, 0.0)
    return z


def _pattern_kelley(objective, repair, leaf_block, x_box, scale, NH, NY, free_nodes,
                    warm_strategy, tol):
    """One pattern's primal by cutting planes on a growing box."""
    start = np.concatenate([[x_box[1]], np.zeros(NH + NY)])
    if warm_strategy is not None:
        h0 = np.concatenate([warm_strategy.values[v] for v in free_nodes]) if free_nodes else np.zeros(0)
        cand = np.concatenate([[x_box[1]], h0, np.zeros(NY)])
        start = repair(cand)
    R = 8.0 * scale
    for _ in range(4):
        lower = np.concatenate([[x_box[0]], -R * np.ones(NH + NY)])
        upper = np.concatenate([[x_box[1] + scale], R * np.ones(NH + NY)])
        res = maximize_concave(objective, lower, upper, [leaf_block], tol=tol,
                               feas_tol=1e-12, max_iter=400, repair=repair,
                               start=np.clip(start, lower, upper), damping=0.5)
        if res.x is None:
            return None
        if NH + NY == 0 or float(np.max(np.abs(res.x[1:]))) < 0.995 * R:
            break
        R *= 4.0
    return res.x


def superhedge_price(model: MarketModel, eps: float, norms: NormPair, payoff: Payoff,
                     pattern_cap: int = 4096, gap_tol: float = 1e-6) -> SuperhedgeResult:
    """Least super-replication capital with its certificate.

    The price is the measure-side bound sup E_Q[payoff].  The matching primal
    is solved directly when the norm is polyhedral, the level is classical
    (eps = 0), or every node's extremal cone is trivial; otherwise the
    costless orthogonal add-on may act exactly where the costed strategy
    vanishes, so activity patterns over extremal nodes are enumerated (capped
    at ``pattern_cap``; beyond the cap the dual price is reported alone).
    """
    emm = find_eps_martingale_measure(model, eps, norms, polish=False)
    if not emm.feasible:
        raise NoMartingaleStructure(f"no eps-martingale structure at level {eps}")
    anchor = emm.measure.weights if emm.measure is not None else None
    dual, _ = cone_linear_optimum(model, eps, norms, payoff.values, "max", anchor=anchor)
    scale = 1.0 + abs(dual)
    if norms.p == 1.0 or eps == 0.0 or model.d == 1:
        # polyhedral geometry (p = 1, classical level, or scalar assets,
        # where every p-cost coincides): one exact LP, no closure gap
        primal, cert = _superhedge_lp(model, eps, payoff)
        gap = abs(primal - dual)
        return SuperhedgeResult(float(dual), primal, gap, cert, "direct",
                                gap <= gap_tol * scale)
    structures = compute_node_structure(model, eps, norms)
    hbar_nodes = tuple(v for v in model.internal if structures[v].active)
    x_box = (dual - 1.0 - 0.01 * scale, float(np.max(payoff.values)) + 1.0)
    _, warm_cert = _superhedge_lp(model, eps, payoff)
    warm = warm_cert.strategy
    if 2 ** len(hbar_nodes) > pattern_cap:
        primal, cert = _superhedge_pattern(model, eps, norms, payoff, structures, (),
                                           x_box, warm_strategy=warm)
        gap = None if primal is None else abs(primal - dual)
        return SuperhedgeResult(float(dual), primal, gap, cert, "best_effort_gap", None)
    best: tuple[Optional[float], Optional[HedgeCertificate]] = (None, None)
    for k in range(len(hbar_nodes) + 1):
        for pattern in itertools.combinations(hbar_nodes, k):
            val, cert = _superhedge_pattern(model, eps, norms, payoff, structures,
                                            pattern, x_box, warm_strategy=warm)
            if val is not None and (best[0] is None or val < best[0]):
                best = (val, cert)
    primal, cert = best
    gap = None if primal is None else abs(primal - dual)
    mode = "patterns" if hbar_nodes else "direct"
    ok = None if gap is None else gap <= gap_tol * scale
    return SuperhedgeResult(float(dual), primal, gap, cert, mode, ok)


@dataclass(frozen=True)
class PriceInterval:
    """Fair-price interval with endpoint attainment bookkeeping."""

    lower: float
    upper: float
    lower_attained: bool
    upper_attained: bool
    p1_caveat: bool
    lower_witness: Optional[MeasureWeights] = None
    upper_witness: Optional[MeasureWeights] = None

    @property
    def lower_open(self) -> bool:
        return not self.lower_attained

    @property
    def upper_open(self) -> bool:
        return not self.upper_attained

    def to_dict(self) -> dict:
        return {"lo": self.lower, "hi": self.upper,
                "lo_open": self.lower_open, "hi_open": self.upper_open,
                "p1_caveat": self.p1_caveat}


def fair_price_range(model: MarketModel, eps: float, norms: NormPair,
                     payoff: Payoff) -> PriceInterval:
    """The interval of quotes that add no arbitrage when the claim trades statically.

    [inf E_Q - eps, sup E_Q + eps] over the eps-martingale family; an endpoint
    is closed iff the inner bound is attained by an equivalent member.  For
    p = 1 the interval is a sound superset and carries a caveat flag (the
    exact converse is open there).
    """
    sup_res = robust_price_bound(model, eps, norms, payoff, "sup")
    inf_res = robust_price_bound(model, eps, norms, payoff, "inf")
    return PriceInterval(
        lower=inf_res.value - eps, upper=sup_res.value + eps,
        lower_attained=inf_res.attained, upper_attained=sup_res.attained,
        p1_caveat=(norms.p == 1.0),
        lower_witness=inf_res.witness, upper_witness=sup_res.witness)


def expectation(measure: MeasureWeights, payoff: Payoff) -> float:
    return float(measure.weights @ payoff.values)
