"""Arbitrage quantification: detection, critical level, node geometry.

A strategy is a strict arbitrage at level eps when its terminal gain covers
the norm-proportional cost eps * |H|_p on every path and beats it with
positive probability.  The detector solves the normalized concave program
over strategies; the critical level is located by bisecting the detector and
cross-checking against the measure-side cone feasibility threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import null_space

from .market import (EXACT_TOL, FEAS_TOL, MarketModel, NormPair, Strategy,
                     gain, strategy_cost, validate_market)
from .programs import (_conic, _fallback, _min_norm_solution, interior_feasibility,
                       node_strict_arbitrage, pack_strategy, pnorm_and_grad,
                       reference_deviation, strict_arbitrage_maximin_program,
                       strict_arbitrage_sum_program, tree_ops, unpack_strategy)
from .solvers import ConeProgram, LinearProgram, maximize_concave, solve_lp, solve_socp

STRICT_ARBITRAGE = "strict_arbitrage"
NO_ARBITRAGE = "none_within_tolerance"


@dataclass(frozen=True)
class ArbitrageReport:
    """Outcome of strict-arbitrage detection at one cost level."""

    status: str
    epsilon: float
    p: float
    optimum: float
    certificate: Optional[Strategy]
    slacks: Optional[np.ndarray]
    maximin_margin: float = 0.0

    @property
    def found(self) -> bool:
        return self.status == STRICT_ARBITRAGE

    def to_dict(self, model: MarketModel) -> dict:
        cert = {}
        if self.certificate is not None:
            cert = {model.ids[v]: [float(x) for x in self.certificate.values[v]]
                    for v in model.internal}
        slacks = {}
        if self.slacks is not None:
            slacks = {model.ids[leaf]: float(self.slacks[k])
                      for k, leaf in enumerate(model.leaves)}
        return {"status": self.status, "epsilon": self.epsilon, "p": self.p,
                "optimum": self.optimum, "maximin_margin": self.maximin_margin,
                "certificate": cert, "slacks": slacks}


def detect_strict_arbitrage(model: MarketModel, eps: float, norms: NormPair,
                            tol: float = 1e-8, solver_tol: float = 1e-9,
                            want_certificate: bool = True,
                            _gamma_cache: Optional[dict] = None) -> ArbitrageReport:
    """Decide strict eps-arbitrage and certify it when present.

    Decision target: the normalized program max over sum_v |H(v)|_p <= 1 of
    the total leaf slack subject to every leaf slack >= 0, whose sign is the
    strict-arbitrage criterion.  For polyhedral geometry (p = 1, d = 1, or
    eps = 0) that program is an exact LP.  Otherwise its optimum is unstable
    exactly at the sequential-closure boundary, so the decision is taken
    node by node (strict arbitrage localizes to one trading period): compare
    eps with the node's minimal simplex deviation and settle the boundary
    band by support analysis.  Certificates are re-optimized for maximin
    slack so the shipped margin per unit norm is uniform.
    """
    report = validate_market(model)
    if not report.ok:
        raise ValueError(f"invalid market: {report.violations[0]}")
    if not (eps >= 0 and math.isfinite(eps)):
        raise ValueError("eps must be finite and non-negative")
    polyhedral = norms.p == 1.0 or model.d == 1 or eps == 0.0
    ops = tree_ops(model)
    if polyhedral:
        # scalar assets and the classical level have exact l1 geometry
        use_norms = norms if norms.p == 1.0 else NormPair(1.0)
        opt, h, slacks = strict_arbitrage_sum_program(model, eps, use_norms, tol=solver_tol)
        if opt <= tol or h is None:
            return ArbitrageReport(NO_ARBITRAGE, eps, norms.p, float(opt), None, None, 0.0)
        margin, h_mm, slacks_mm = strict_arbitrage_maximin_program(model, eps, use_norms,
                                                                   tol=solver_tol)
        if margin > tol and h_mm is not None:
            cert, slk = h_mm, slacks_mm
        else:
            cert, slk = h, slacks
        return ArbitrageReport(STRICT_ARBITRAGE, eps, norms.p, float(opt),
                               unpack_strategy(ops, cert), slk, float(margin))

    hit = None
    for v in model.internal:
        cached = None if _gamma_cache is None else _gamma_cache.get(v)
        found, h_node, gamma = node_strict_arbitrage(model, v, eps, norms,
                                                     band=solver_tol * 10, gamma=cached,
                                                     with_certificate=want_certificate)
        if _gamma_cache is not None:
            _gamma_cache[v] = gamma
        if found:
            hit = (v, h_node)
            break
    if hit is None:
        return ArbitrageReport(NO_ARBITRAGE, eps, norms.p, 0.0, None, None, 0.0)
    if not want_certificate:
        return ArbitrageReport(STRICT_ARBITRAGE, eps, norms.p, np.nan, None, None, np.nan)
    v, h_node = hit
    vals = np.zeros((model.n_nodes, model.d))
    vals[v] = h_node
    nrm = norms.norm(h_node)
    if nrm > 0:
        vals[v] /= nrm
    cert = Strategy(vals)
    slacks = gain(model, cert) - eps * strategy_cost(model, cert, norms)
    optimum = float(np.sum(slacks))
    margin, h_mm, slacks_mm = strict_arbitrage_maximin_program(model, eps, norms,
                                                               tol=solver_tol)
    if margin > tol and h_mm is not None:
        cert = unpack_strategy(ops, h_mm)
        slacks = slacks_mm
        optimum = max(optimum, float(np.sum(slacks_mm)))
    return ArbitrageReport(STRICT_ARBITRAGE, eps, norms.p, optimum, cert,
                           slacks, float(margin))


@dataclass(frozen=True)
class CriticalValueResult:
    epsilon: float
    primal_estimate: float
    dual_estimate: float
    primal_curve: tuple
    dual_curve: tuple
    discrepancy: float
    agreed: bool
    eta: float
    eta_sweep: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"epsilon_P": self.epsilon, "primal_estimate": self.primal_estimate,
               "dual_estimate": self.dual_estimate, "discrepancy": self.discrepancy,
               "agreed": self.agreed, "eta": self.eta,
               "primal_curve": [list(t) for t in self.primal_curve],
               "dual_curve": [list(t) for t in self.dual_curve]}
        if self.eta_sweep is not None:
            out["eta_sweep"] = self.eta_sweep
        return out


def _dual_feasible(model: MarketModel, eps: float, norms: NormPair, eta: float,
                   cut_bank: Optional[dict] = None) -> tuple[str, float]:
    """Status of the eta-interior program at eps, and its curve value.

    A ``feasible`` status carries weights with q >= eta P and node margins
    >= 0, and ``infeasible`` a certificate or a certified bound below eta,
    so both are verdicts; an ``indeterminate`` one is retried with the
    cutting planes run to their full iteration budget and, if still open,
    returned as such.
    """
    status, _, rho, rho_ub, _ = interior_feasibility(model, eps, norms, eta,
                                                     cut_bank=cut_bank)
    if status == "indeterminate":
        status, _, rho, rho_ub, _ = interior_feasibility(model, eps, norms, eta,
                                                         cut_bank=cut_bank, polish=True)
    val = rho if rho is not None else (rho_ub if rho_ub is not None else -1.0)
    return status, val


def critical_value_dual(model: MarketModel, norms: NormPair, eta: Optional[float] = None,
                        rel_tol: float = 1e-6, max_iter: int = 60):
    """Measure-side threshold: smallest eps whose eta-interior cone program is feasible.

    Supporting rays of the deviation cones are banked across bisection steps
    (they are valid at every level), so later cutting-plane checks start
    from a near-complete outer model.  A step without a verdict stops the
    bisection.  Returns (estimate, curve, eta, converged): the estimate is
    the middle of the bracket reached, and ``converged`` is False when an
    undecided step stopped the bisection before the bracket closed.
    """
    if eta is None:
        eta = 1e-7 * float(np.min(model.leaf_prob))
    hi = reference_deviation(model, norms)
    curve = []
    if hi <= 1e-14:
        return 0.0, (), eta, True
    bank: dict = {}
    status0, r0 = _dual_feasible(model, 0.0, norms, eta, bank)
    curve.append((0.0, r0))
    if status0 == "feasible":
        return 0.0, tuple(curve), eta, True
    lo, hi_b = 0.0, hi * (1.0 + 1e-9)
    for _ in range(max_iter):
        if hi_b - lo <= rel_tol * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi_b)
        status, r = _dual_feasible(model, mid, norms, eta, bank)
        curve.append((mid, r))
        if status == "indeterminate":
            return 0.5 * (lo + hi_b), tuple(curve), eta, False
        if status == "feasible":
            hi_b = mid
        else:
            lo = mid
    return 0.5 * (lo + hi_b), tuple(curve), eta, True


def critical_value_primal(model: MarketModel, norms: NormPair, rel_tol: float = 1e-6,
                          arb_tol: float = 1e-9, max_iter: int = 60):
    """Strategy-side threshold: bisection of the strict-arbitrage detector.

    Each node's minimal simplex deviation is independent of eps, so it is
    memoized across bisection steps; the per-step decision is still the full
    detector decision.
    """
    hi = reference_deviation(model, norms)
    curve = []
    if hi <= 1e-14:
        return 0.0, ()
    cache: dict = {}
    polyhedral = norms.p == 1.0 or model.d == 1

    def _decision(e: float) -> bool:
        if polyhedral or e == 0.0:
            rep = detect_strict_arbitrage(model, e, norms, tol=arb_tol)
            curve.append((e, rep.optimum))
            return rep.found
        found = False
        for v in model.internal:
            fired, _, gamma = node_strict_arbitrage(
                model, v, e, norms, band=10 * arb_tol,
                gamma=cache.get(v), with_certificate=False)
            cache[v] = gamma
            if fired:
                found = True
                break
        margin = max(cache.values()) - e if cache else 0.0
        curve.append((e, margin if found else min(margin, 0.0)))
        return found

    if not _decision(0.0):
        return 0.0, tuple(curve)
    lo, hi_b = 0.0, hi * (1.0 + 1e-9)
    for _ in range(max_iter):
        if hi_b - lo <= rel_tol * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi_b)
        if _decision(mid):
            lo = mid
        else:
            hi_b = mid
    return 0.5 * (lo + hi_b), tuple(curve)


def critical_value(model: MarketModel, norms: NormPair, rel_tol: float = 1e-6,
                   eta: Optional[float] = None, eta_sweep: bool = False,
                   method: str = "both") -> CriticalValueResult:
    """The critical level eps(P): infimum of levels without strict arbitrage.

    The strategy-side bisection (replacing the sequential notion by strict
    arbitrage is value-preserving) is cross-checked against the measure-side
    feasibility threshold; disagreement beyond 10x the bisection tolerance is
    flagged rather than hidden.  A measure-side bisection stopped by an
    undecided step is flagged as well, and its estimate is left out of
    ``epsilon`` (which is then the primal estimate).  In an ``eta_sweep``
    such a step gives None.
    """
    report = validate_market(model)
    if not report.ok:
        raise ValueError(f"invalid market: {report.violations[0]}")
    if method not in ("both", "primal", "dual"):
        raise ValueError(f"unknown method {method!r}")
    primal = dual = None
    primal_curve: tuple = ()
    dual_curve: tuple = ()
    dual_converged = True
    eta_used = eta if eta is not None else 1e-7 * float(np.min(model.leaf_prob))
    if method in ("both", "primal"):
        primal, primal_curve = critical_value_primal(model, norms, rel_tol)
    if method in ("both", "dual"):
        dual, dual_curve, eta_used, dual_converged = critical_value_dual(model, norms, eta,
                                                                         rel_tol)
    if primal is None:
        primal = dual
    if dual is None:
        dual = primal
    scale = 1.0 + reference_deviation(model, norms)
    disc = abs(primal - dual)
    sweep = None
    if eta_sweep:
        sweep = {}
        for e in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            val, _, _, converged = critical_value_dual(
                model, norms, e * float(np.min(model.leaf_prob)), rel_tol)
            sweep[f"{e:.0e}"] = val if converged else None
    return CriticalValueResult(
        epsilon=0.5 * (primal + dual) if dual_converged else primal,
        primal_estimate=primal, dual_estimate=dual,
        primal_curve=primal_curve, dual_curve=dual_curve, discrepancy=disc,
        agreed=dual_converged and disc <= 10 * rel_tol * scale, eta=eta_used,
        eta_sweep=sweep)


# ---------------------------------------------------------------------------
# Node geometry: extremal direction, orthogonal subspaces, decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeStructure:
    """Arbitrage geometry at one internal node.

    ``hbar`` spans the extremal cone of strategies whose one-step gain equals
    the eps-cost at every child (zero vector when that cone is trivial);
    ``basis_g`` spans the orthocomplement piece of the admissible hyperplane
    and ``basis_g_tilde`` its gain-null piece.
    """

    node: int
    hbar: np.ndarray
    hbar_dual: np.ndarray
    basis_g: np.ndarray        # (d, k1), orthonormal columns
    basis_g_tilde: np.ndarray  # (d, k2), orthonormal columns
    strict_arbitrage_here: bool
    min_norm: Optional[float]
    arb_witness: Optional[np.ndarray] = None

    @property
    def active(self) -> bool:
        return bool(np.any(self.hbar != 0.0))

    @property
    def perp_basis(self) -> np.ndarray:
        return np.hstack([self.basis_g, self.basis_g_tilde])


def _orth_complement_within(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(outer) minus span(inner)."""
    if outer.shape[1] == 0:
        return outer
    M = outer - inner @ (inner.T @ outer) if inner.shape[1] else outer
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > 1e-10))
    return u[:, :rank]


def _p1_face_direction(A: np.ndarray, eps: float, d: int):
    """Support-maximal element of the norm-one slice {A h = eps 1, |h|_1 = 1}.

    Per-coordinate extremes over the LP optimal face; support-maximal signs
    are consistent under the absence of strict arbitrage, so averaging the
    extreme points keeps every reachable coordinate nonzero.
    """
    rows_eq = np.hstack([A, -A])
    rhs = np.full(A.shape[0], eps)
    norm_row = np.ones((1, 2 * d))
    picks = []
    signs = np.zeros(d)
    ambiguous = False
    for i in range(d):
        for sgn in (+1.0, -1.0):
            c = np.zeros(2 * d)
            c[i] = sgn
            c[d + i] = -sgn
            lp = LinearProgram(c=c, sense="max", a_ub=norm_row, b_ub=np.array([1.0]),
                               a_eq=rows_eq, b_eq=rhs, bounds=[(0, None)] * (2 * d))
            res = solve_lp(lp)
            if res.status != "optimal":
                continue
            if res.value > 1e-9:
                h = res.x[:d] - res.x[d:]
                picks.append(h)
                if signs[i] != 0.0 and signs[i] != sgn:
                    ambiguous = True
                if signs[i] == 0.0:
                    signs[i] = sgn
    if not picks:
        return None, False
    hbar = np.mean(picks, axis=0)
    return hbar, ambiguous


def compute_node_structure(model: MarketModel, eps: float, norms: NormPair,
                           m_tol: float = 1e-7) -> dict[int, NodeStructure]:
    """Per-node extremal direction and admissible-hyperplane bases at level eps.

    At each internal node solve m = min{|h|_p : h . dS(w) = eps for all
    children w}: infeasible or m > 1 means the cone is trivial; m = 1 yields
    the unit extremal direction; m < 1 flags one-step strict arbitrage and
    leaves the structure empty.
    """
    if eps <= 0:
        raise ValueError("node structure is defined for eps > 0")
    out: dict[int, NodeStructure] = {}
    d = model.d
    for v in model.internal:
        kids = list(model.children[v])
        A = model.delta[kids]
        rhs = np.full(len(kids), eps)
        h, m = _min_norm_solution(A, rhs, norms)
        strict_here = False
        witness = None
        hbar = np.zeros(d)
        if h is not None and m is not None:
            if m < 1.0 - m_tol:
                strict_here = True
                witness = h / m if m > 0 else h
            elif m <= 1.0 + m_tol:
                hbar = h / m
        if norms.p == 1.0 and not strict_here and h is not None and abs(m - 1.0) <= m_tol:
            face, ambiguous = _p1_face_direction(A, eps, d)
            if ambiguous:
                strict_here = True
                witness = face
                hbar = np.zeros(d)
            elif face is not None:
                nrm = float(np.sum(np.abs(face)))
                if nrm > 0:
                    hbar = face / nrm
        hbar_dual = norms.dual_vector(hbar)
        if np.any(hbar != 0.0):
            support_rows = []
            if norms.p == 1.0:
                for i in range(d):
                    if hbar[i] == 0.0:
                        row = np.zeros(d)
                        row[i] = 1.0
                        support_rows.append(row)
            rows = np.vstack([hbar_dual[None, :]] + support_rows) if support_rows else hbar_dual[None, :]
            basis_perp = null_space(rows)
            basis_tilde = null_space(np.vstack([rows, A]))
            basis_g = _orth_complement_within(basis_perp, basis_tilde)
        else:
            basis_g = np.zeros((d, 0))
            basis_tilde = np.zeros((d, 0))
        out[v] = NodeStructure(v, hbar, hbar_dual, basis_g, basis_tilde,
                               strict_here, m, witness)
    return out


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Node-wise split H = a hbar + G + G~ with G in the orthocomplement piece."""

    a: dict
    g: dict
    g_tilde: dict

    def reconstruct(self, model: MarketModel, structures: dict[int, NodeStructure]) -> Strategy:
        vals = np.zeros((model.n_nodes, model.d))
        for v in model.internal:
            vals[v] = self.a[v] * structures[v].hbar + self.g[v] + self.g_tilde[v]
        return Strategy(vals)


def canonical_decompose(model: MarketModel, eps: float, norms: NormPair,
                        strategy: Strategy,
                        structures: Optional[dict[int, NodeStructure]] = None,
                        support_tol: float = 1e-9) -> CanonicalDecomposition:
    """Split an admissible strategy into extremal, orthogonal, and null parts.

    Admissibility: H(v) vanishes where hbar(v) does (coordinate-wise for
    p = 1); violations raise with the offending node named.
    """
    if structures is None:
        structures = compute_node_structure(model, eps, norms)
    a: dict[int, float] = {}
    g: dict[int, np.ndarray] = {}
    g_tilde: dict[int, np.ndarray] = {}
    for v in model.internal:
        st = structures[v]
        h = strategy.values[v]
        if norms.p == 1.0:
            dead = st.hbar == 0.0
        else:
            dead = np.full(model.d, not st.active)
        if np.any(np.abs(h[dead]) > support_tol):
            raise ValueError(
                f"strategy at node {model.ids[v]} lies outside the admissible support class")
        a_v = float(st.hbar_dual @ h)
        resid = h - a_v * st.hbar
        bt = st.basis_g_tilde
        gt = bt @ (bt.T @ resid) if bt.shape[1] else np.zeros(model.d)
        a[v] = a_v
        g_tilde[v] = gt
        g[v] = resid - gt
    return CanonicalDecomposition(a, g, g_tilde)


@dataclass(frozen=True)
class NaPrimeReport:
    holds: bool
    strict_arbitrage: ArbitrageReport
    witnesses: dict  # node -> unit vector violating the orthogonal no-arbitrage condition

    def to_dict(self, model: MarketModel) -> dict:
        return {"holds": self.holds,
                "strict_status": self.strict_arbitrage.status,
                "witness": {model.ids[v]: [float(x) for x in w]
                            for v, w in self.witnesses.items()}}


def check_na_prime(model: MarketModel, eps: float, norms: NormPair,
                   tol: float = 1e-8, certificates: bool = True) -> NaPrimeReport:
    """Two-part non-asymptotic no-arbitrage check at level eps.

    (1) no strict eps-arbitrage; (2) node-wise, no classical one-step
    arbitrage among strategies in the admissible hyperplane: maximize the
    P-mean gain over the unit ball with all one-step gains >= 0; a positive
    optimum yields a witness direction.
    """
    strict = detect_strict_arbitrage(model, eps, norms, tol=tol,
                                     want_certificate=certificates)
    witnesses: dict[int, np.ndarray] = {}
    if strict.found:
        return NaPrimeReport(False, strict, witnesses)
    if eps == 0.0:
        # Classical level: the admissible-hyperplane family collapses into
        # condition (1), which was just checked.
        return NaPrimeReport(True, strict, witnesses)
    structures = compute_node_structure(model, eps, norms)
    for v in model.internal:
        st = structures[v]
        B = st.perp_basis
        if B.shape[1] == 0:
            continue
        kids = list(model.children[v])
        A = model.delta[kids]           # (k, d)
        probs = model.cond_prob[kids]
        c = B.T @ (A.T @ probs)
        rows = A @ B                    # one-step gains per child, in basis coords
        r = B.shape[1]
        if norms.p == 1.0:
            # variables (y, t) with t_i >= |(B y)_i| and sum t <= 1
            a_ub = np.vstack([
                np.hstack([-rows, np.zeros((rows.shape[0], model.d))]),
                np.hstack([B, -np.eye(model.d)]),
                np.hstack([-B, -np.eye(model.d)]),
                np.concatenate([np.zeros(r), np.ones(model.d)])[None, :],
            ])
            b_ub = np.concatenate([np.zeros(rows.shape[0]),
                                   np.zeros(2 * model.d), [1.0]])
            lp = LinearProgram(c=np.concatenate([c, np.zeros(model.d)]), sense="max",
                               a_ub=a_ub, b_ub=b_ub,
                               bounds=[(None, None)] * r + [(0, None)] * model.d)
            res = solve_lp(lp)
            if res.status == "optimal" and res.value > tol:
                witnesses[v] = B @ res.x[:r]
        else:
            conic = _conic(model, norms)
            found = _unit_ball_witness(c, rows, B, tol) if conic else None
            if found is None:
                if conic:
                    _fallback("check_na_prime", "no checked witness and bound above tol")
                found = _unit_ball_kelley(c, rows, B, norms, tol)
            if found is not False:
                witnesses[v] = found
    holds = not strict.found and not witnesses
    return NaPrimeReport(holds, strict, witnesses)


def _unit_ball_witness(c: np.ndarray, rows: np.ndarray, B: np.ndarray, tol: float):
    """max c.y s.t. rows y >= 0, |B y|_2 <= 1, as one cone program.

    Returns the witness B y when a checked point (gains >= -1e-10, inside
    the ball) has value > tol, False when the certified bound is <= tol,
    and None when neither holds.  B has orthonormal columns, so every
    feasible y has |y_i| <= |B y|_2 <= 1.
    """
    k, r = rows.shape
    d = B.shape[0]
    G = np.vstack([-rows, np.zeros((1, r)), -B])
    prog = ConeProgram(-c, G, np.concatenate([np.zeros(k), [1.0], np.zeros(d)]), k, (d + 1,))
    res = solve_socp(prog)
    if res.status == "infeasible" or res.z is None:
        return None
    if res.x is not None:
        y = res.x / max(1.0, float(np.linalg.norm(B @ res.x)))
        if float(np.min(rows @ y, initial=0.0)) >= -1e-10 and float(c @ y) > tol:
            return B @ y
    if -prog.lower_bound(res.y, res.z, np.ones(r)) <= tol:
        return False
    return None


def _unit_ball_kelley(c: np.ndarray, rows: np.ndarray, B: np.ndarray, norms: NormPair,
                      tol: float):
    """The unit-ball program by cutting planes: the witness B y, or False."""
    def objective(y):
        return float(c @ y), c

    def ball(y):
        val, grad = pnorm_and_grad(B @ y, norms.p)
        return 1.0 - val, -(B.T @ grad)

    r = B.shape[1]
    res = maximize_concave(objective, -np.ones(r), np.ones(r), [ball],
                           a_ub=-rows, b_ub=np.zeros(rows.shape[0]),
                           tol=1e-10, feas_tol=1e-10, max_iter=200,
                           start=np.zeros(r))
    if res.x is not None and res.value is not None and res.value > tol:
        return B @ res.x
    return False
