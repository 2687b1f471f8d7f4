"""Arbitrage quantification: detection, critical level, node geometry.

A strategy is a strict arbitrage at level eps when its terminal gain covers
the norm-proportional cost eps * |H|_p on every path and beats it with
positive probability.  The detector solves the normalized concave program
over strategies.  Strict arbitrage localizes to one trading period, so the
critical level is the largest node deviation max_v gamma(v), checked by one
node decision just below it and one measure-side interior solve just above
it; bisections of the detector and of the measure-side cone feasibility
threshold remain as an opt-in cross-check.  The measure-side bisection's
value alone (``_dual_level``, which ``stability_report`` uses) takes its
steps outside that bracket from the two checks, and solves only the steps
they leave open.  The NA' check is one LP per node for every p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .market import (MarketModel, NormPair, Strategy, _check_level, gain, strategy_cost,
                     validate_market)
from .programs import (_FLOOR, _NODE_BAND, _frozen, _min_norm_solution, _polyhedral,
                       interior_feasibility, node_min_simplex_deviation,
                       node_strict_arbitrage, reference_deviation, strategy_from_packed,
                       strict_arbitrage_maximin_program, strict_arbitrage_sum_program,
                       tree_ops)
from .solvers import LinearProgram, min_norm_point, solve_lp

STRICT_ARBITRAGE = "strict_arbitrage"
NO_ARBITRAGE = "none_within_tolerance"

# Bisection width, and the exact route's offset from eps(P), per 1 + reference deviation
_REL_TOL = 1e-6


@dataclass(frozen=True)
class ArbitrageReport:
    """Outcome of strict-arbitrage detection at one cost level; ``slacks``
    is read-only."""

    status: str
    epsilon: float
    p: float
    optimum: float
    certificate: Optional[Strategy]
    slacks: Optional[np.ndarray]
    maximin_margin: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "slacks", _frozen(self.slacks))

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


def _check_market(model: MarketModel) -> None:
    report = validate_market(model)
    if not report.ok:
        raise ValueError(f"invalid market: {report.violations[0]}")


def detect_strict_arbitrage(model: MarketModel, eps: float, norms: NormPair,
                            tol: float = 1e-8, want_certificate: bool = True) -> ArbitrageReport:
    """Decide strict eps-arbitrage and certify it when present.

    Decision target: the normalized program max over sum_v |H(v)|_p <= 1 of
    the total leaf slack subject to every leaf slack >= 0, whose sign is the
    strict-arbitrage criterion.  For polyhedral geometry (p = 1, d = 1, or
    eps = 0) that program is an exact LP, solved with the l1 norm (whose
    sign it shares).  Otherwise its optimum is unstable exactly at the
    sequential-closure boundary, so the decision is taken node by node
    (strict arbitrage localizes to one trading period): compare eps with the
    node's minimal simplex deviation and settle the boundary band by support
    analysis.  The node's certificate is shipped unless the maximin
    program's point, whose margin per unit norm is uniform over the leaves
    (a backward induction over nodes, with time-0 nodes sharing the budget),
    beats its exact worst leaf slack by more than the maximin's certified
    gap.  With ``want_certificate`` False no maximin program runs: a found
    arbitrage has no certificate, no slacks and a NaN margin, and its
    optimum is the sum LP's on polyhedral geometry, NaN otherwise.
    """
    _check_market(model)
    _check_level("eps", eps, False)
    ops = tree_ops(model)
    if _polyhedral(model, norms, eps):
        # scalar assets and the classical level have exact l1 geometry
        opt, h, slacks = strict_arbitrage_sum_program(ops, eps)
        if opt <= tol or h is None:
            return ArbitrageReport(NO_ARBITRAGE, eps, norms.p, float(opt), None, None, 0.0)
        if not want_certificate:
            return ArbitrageReport(STRICT_ARBITRAGE, eps, norms.p, float(opt), None, None, np.nan)
        use_norms = norms if norms.p == 1.0 else NormPair(1.0)
        margin, h_mm, slacks_mm, _ = strict_arbitrage_maximin_program(ops, eps, use_norms)
        if margin > tol and h_mm is not None:
            cert, slk = h_mm, slacks_mm
        else:
            cert, slk = h, slacks
        return ArbitrageReport(STRICT_ARBITRAGE, eps, norms.p, float(opt),
                               strategy_from_packed(ops, cert), slk, float(margin))

    hit = None
    for v in model.internal:
        found, h_node, _ = node_strict_arbitrage(model, v, eps, norms,
                                                 with_certificate=want_certificate)
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
    margin = float(np.min(slacks))
    value, h_mm, slacks_mm, gap = strict_arbitrage_maximin_program(ops, eps, norms)
    if h_mm is not None and value > tol and value - gap > margin:
        cert = strategy_from_packed(ops, h_mm)
        slacks = slacks_mm
        margin = value
        optimum = max(optimum, float(np.sum(slacks_mm)))
    return ArbitrageReport(STRICT_ARBITRAGE, eps, norms.p, optimum, cert,
                           slacks, margin)


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
    argmax_node: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"epsilon_P": self.epsilon, "primal_estimate": self.primal_estimate,
               "dual_estimate": self.dual_estimate, "discrepancy": self.discrepancy,
               "agreed": self.agreed, "eta": self.eta,
               "primal_curve": [list(t) for t in self.primal_curve],
               "dual_curve": [list(t) for t in self.dual_curve]}
        if self.eta_sweep is not None:
            out["eta_sweep"] = self.eta_sweep
        if self.argmax_node is not None:
            out["argmax_node"] = self.argmax_node
        return out


def _dual_feasible(model: MarketModel, eps: float, norms: NormPair,
                   eta: float) -> tuple[str, float]:
    """Status of the eta-interior program at eps, and its curve value.

    A ``feasible`` status carries weights with q >= eta P and node margins
    >= 0, and ``infeasible`` a certificate or a certified bound below eta,
    so both are verdicts; an ``indeterminate`` one is returned as such,
    without a retry.
    """
    status, _, rho, rho_ub, _ = interior_feasibility(model, eps, norms, eta)
    val = rho if rho is not None else (rho_ub if rho_ub is not None else -1.0)
    return status, val


def _bisect(model: MarketModel, norms: NormPair, above) -> tuple[float, bool]:
    """The critical level by bisection of a decision; returns (estimate, converged).

    ``above(eps)`` is True when eps lies above the critical level, False
    when below, and None when it cannot tell.  eps = 0 is decided first;
    then the bracket [0, ref (1 + 1e-9)], ref the reference deviation, is
    halved until it is _REL_TOL (1 + ref) wide, in 60 steps at most.  An
    undecided step stops the bisection, and the estimate is the middle of
    the bracket reached, unconverged.
    """
    hi = reference_deviation(model, norms)
    if hi <= 1e-14 or above(0.0):
        return 0.0, True
    lo, hi_b = 0.0, hi * (1.0 + 1e-9)
    for _ in range(60):
        if hi_b - lo <= _REL_TOL * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi_b)
        verdict = above(mid)
        if verdict is None:
            return 0.5 * (lo + hi_b), False
        if verdict:
            hi_b = mid
        else:
            lo = mid
    return 0.5 * (lo + hi_b), True


def critical_value_dual(model: MarketModel, norms: NormPair, eta: Optional[float] = None):
    """Measure-side threshold: smallest eps whose eta-interior cone program is feasible.

    A step without a verdict stops the bisection (``_bisect``).  Returns
    (estimate, curve, eta, converged): the estimate is the middle of the
    bracket reached, and ``converged`` is False when an undecided step
    stopped the bisection before the bracket closed.
    """
    if eta is None:
        eta = 1e-7 * float(np.min(model.leaf_prob))
    curve = []

    def feasible(e: float) -> Optional[bool]:
        status, r = _dual_feasible(model, e, norms, eta)
        curve.append((e, r))
        return None if status == "indeterminate" else status == "feasible"

    estimate, converged = _bisect(model, norms, feasible)
    return estimate, tuple(curve), eta, converged


def critical_value_primal(model: MarketModel, norms: NormPair):
    """Strategy-side threshold: bisection of the strict-arbitrage detector.

    Each node's minimal simplex deviation is independent of eps, so it is
    memoized across bisection steps; the per-step decision is still the full
    detector decision.
    """
    curve = []
    cache: dict = {}

    def arbitrage_free(e: float) -> bool:
        if _polyhedral(model, norms, e):
            rep = detect_strict_arbitrage(model, e, norms, tol=1e-9, want_certificate=False)
            curve.append((e, rep.optimum))
            return not rep.found
        found = False
        for v in model.internal:
            fired, _, gamma = node_strict_arbitrage(model, v, e, norms, gamma=cache.get(v),
                                                    with_certificate=False)
            cache[v] = gamma
            if fired:
                found = True
                break
        margin = max(cache.values()) - e if cache else 0.0
        curve.append((e, margin if found else min(margin, 0.0)))
        return not found

    estimate, _ = _bisect(model, norms, arbitrage_free)
    return estimate, tuple(curve)


def _hull_bound(A: np.ndarray) -> float:
    """|z|_inf of the min-norm point z of conv{rows of A}, an upper bound on
    the node's gamma at q = inf; inf when Wolfe's check fails."""
    try:
        z, _ = min_norm_point(A)
    except RuntimeError:
        return math.inf
    return float(np.max(np.abs(z)))


def _largest_deviation(model: MarketModel, norms: NormPair) -> tuple[int, float]:
    """The node v of largest gamma(v), the first in ``model.internal`` on a
    tie (as ``np.argmax``), and gamma(v).

    At q = inf with d >= 2 every gamma is an LP, and most nodes cannot be
    the largest.  Each node's min-norm point z lies in its hull, so
    gamma(v) <= |z|_inf; nodes are visited in descending bound, and the
    visit stops at the first whose bound, widened by _REL_TOL (1 + bound)
    for the LP's own tolerances, is below the largest gamma solved so far.
    Every other gamma is a closed form or read from the node geometry, and
    every node is visited.
    """
    internal = model.internal
    lp = norms.q == math.inf and model.d >= 2
    bounds = [_hull_bound(model.delta[list(model.children[v])]) if lp else math.inf
              for v in internal]
    best_j, best = -1, -math.inf
    for j in sorted(range(len(internal)), key=lambda j: -bounds[j]):
        if bounds[j] + _REL_TOL * (1.0 + bounds[j]) < best:
            break
        gamma = node_min_simplex_deviation(model, internal[j], norms)
        if gamma > best or (gamma == best and j < best_j):
            best_j, best = j, gamma
    return internal[best_j], best


def _exact_checks(model: MarketModel, norms: NormPair, eta: float):
    """eps(P) = max_v gamma(v) and the exact route's two checks around it.

    Returns (v, eps(P), delta, primal, (status, rho)): v the argmax node,
    ``primal`` the node decision at v at eps(P) - delta as (found, worst
    child slack of its certificate, 0 when none), None when eps(P) - delta
    <= 0, and the eta-interior solve at eps(P) + delta (see
    ``critical_value``).
    """
    v, eps = _largest_deviation(model, norms)
    # Clear the node decision's boundary band, which grows with the increments.
    band = _NODE_BAND * (1.0 + float(np.max(np.abs(model.delta[list(model.children[v])]))))
    delta = max(_REL_TOL * (1.0 + reference_deviation(model, norms)), 2.0 * band)
    primal = None
    lo = eps - delta
    if lo > 0.0:
        found, h, _ = node_strict_arbitrage(model, v, lo, norms, gamma=eps)
        slack = 0.0
        if found:
            kids = list(model.children[v])
            slack = float(np.min(model.delta[kids] @ h) - lo * norms.norm(h))
        primal = (found, slack)
    return v, eps, delta, primal, _dual_feasible(model, eps + delta, norms, eta)


def _critical_value_exact(model: MarketModel, norms: NormPair, eta: Optional[float],
                          sweep: Optional[dict]) -> CriticalValueResult:
    """eps(P) = max_v gamma(v), with one check on each side (see ``critical_value``).

    Above eps(P) the quantitative FTAP promises a measure with rho* > 0 and
    nothing more, so with no eta given the measure-side check accepts any
    checked measure with q > 0: its eta is the least positive double.
    """
    if eta is None:
        eta = float(np.finfo(float).tiny)
    v, eps, delta, primal, (status, rho) = _exact_checks(model, norms, eta)
    primal_curve = () if primal is None else ((eps - delta, primal[1]),)
    return CriticalValueResult(
        epsilon=eps, primal_estimate=eps, dual_estimate=eps, primal_curve=primal_curve,
        dual_curve=((eps + delta, rho),), discrepancy=0.0,
        agreed=(primal is None or primal[0]) and status == "feasible", eta=eta,
        eta_sweep=sweep, argmax_node=v)


def _dual_level(model: MarketModel, norms: NormPair) -> float:
    """``critical_value(model, norms, method="dual").epsilon``, bit for bit,
    with fewer eta-interior solves.

    The measure-side bisection at its own eta runs step for step, but the
    exact route's two checks, run once at that eta, settle the steps
    outside (eps(P) - delta, eps(P) + delta).  Strict arbitrage found at
    eps(P) - delta rules out, by Hoelder's inequality, every full-support
    measure with means within e <= eps(P) - delta; a checked measure at
    eps(P) + delta is eta-interior at every e above, since the cones only
    grow with e.  A check without that verdict (skipped, or no measure)
    leaves its side's steps to their own solves, and every step inside
    solves its program as the bisection does.  The checks run at the first
    step, so a market the bisection settles before any step runs none.
    """
    _check_market(model)
    eta = 1e-7 * float(np.min(model.leaf_prob))
    bracket: list = []

    def feasible(e: float) -> Optional[bool]:
        if not bracket:
            _, eps, delta, primal, (status, _) = _exact_checks(model, norms, eta)
            bracket.append(eps - delta if primal is not None and primal[0] else -math.inf)
            bracket.append(eps + delta if status == "feasible" else math.inf)
        if e <= bracket[0]:
            return False
        if e >= bracket[1]:
            return True
        status, _ = _dual_feasible(model, e, norms, eta)
        return None if status == "indeterminate" else status == "feasible"

    return _bisect(model, norms, feasible)[0]


def critical_value(model: MarketModel, norms: NormPair, eta: Optional[float] = None,
                   eta_sweep: bool = False, method: str = "exact") -> CriticalValueResult:
    """The critical level eps(P): infimum of levels without strict arbitrage.

    ``method="exact"`` (the default): strict arbitrage localizes to one
    trading period, so eps(P) is max_v gamma(v), the largest certified
    node deviation, reached at ``argmax_node`` (the first such node of
    ``model.internal``).  At p = 1 with d >= 2, where each gamma(v) is an
    LP, a node's LP is solved only while the norm of its min-norm point
    says it can still be the largest, so most nodes solve none; the value
    and node are those of the full scan.  With delta = 1e-6
    (1 + reference deviation), the bisections' own stopping width, or twice
    the node decision's boundary band at that node where that is wider
    (large increments around a small drift), one check on each side stands
    in for them: the node decision at the argmax node
    at eps(P) - delta must find strict arbitrage, with its certificate (its
    worst child slack is the one point of ``primal_curve``; skipped when
    eps(P) - delta <= 0), and one eta-interior solve at eps(P) + delta must
    return a measure (``dual_curve``).  ``agreed`` is true only when both
    give their verdict; an undecided check makes it False and is not
    retried.  Both estimates are eps(P) itself.  Without ``eta`` that solve
    asks only for a checked measure with q > 0, and ``eta`` reports the
    least positive double it used.

    ``"both"`` and ``"dual"`` bisect instead: ``"both"`` runs the
    strategy-side detector (replacing the sequential notion by strict
    arbitrage is value-preserving) and the measure-side feasibility
    threshold and cross-checks them, flagging disagreement beyond 10x the
    bisection width rather than hiding it; ``"dual"`` runs the measure side
    alone.  A measure-side bisection stopped by an undecided step is
    flagged as well, and its estimate is left out of ``epsilon`` (which is
    then the primal estimate).  An ``eta_sweep`` runs the measure-side bisection at each
    eta, on every method; an undecided step there gives None.
    """
    _check_market(model)
    if method not in ("exact", "both", "dual"):
        raise ValueError(f"unknown method {method!r}")
    if eta is not None:
        _check_level("eta", eta, True)
    sweep = None
    if eta_sweep:
        sweep = {}
        for e in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            val, _, _, converged = critical_value_dual(
                model, norms, e * float(np.min(model.leaf_prob)))
            sweep[f"{e:.0e}"] = val if converged else None
    if method == "exact":
        return _critical_value_exact(model, norms, eta, sweep)
    primal_curve: tuple = ()
    if method == "both":
        primal, primal_curve = critical_value_primal(model, norms)
    dual, dual_curve, eta_used, dual_converged = critical_value_dual(model, norms, eta)
    if method == "dual":
        primal = dual
    scale = 1.0 + reference_deviation(model, norms)
    disc = abs(primal - dual)
    return CriticalValueResult(
        epsilon=0.5 * (primal + dual) if dual_converged else primal,
        primal_estimate=primal, dual_estimate=dual,
        primal_curve=primal_curve, dual_curve=dual_curve, discrepancy=disc,
        agreed=dual_converged and disc <= 10 * _REL_TOL * scale, eta=eta_used,
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


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a, as scipy.linalg.null_space.

    The same rank rule: singular values above max(s) * eps * max(a.shape)
    count, and the rows of vh past the rank span the null space.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.max(s, initial=0.0) * np.finfo(float).eps * max(a.shape)
    return vh[int(np.sum(s > tol)):].T


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


def compute_node_structure(model: MarketModel, eps: float, norms: NormPair) -> dict[int, NodeStructure]:
    """Per-node extremal direction and admissible-hyperplane bases at level eps.

    At each internal node solve m = min{|h|_p : h . dS(w) = eps for all
    children w}: infeasible or m > 1 means the cone is trivial; m = 1 yields
    the unit extremal direction; m < 1 flags one-step strict arbitrage and
    leaves the structure empty.  m counts as 1 within 1e-7, or at q = 2 up
    to 1 + the tangent test's floor 1e-12 (1 + max |dS|) above 1.
    """
    _check_level("eps", eps, True)
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
            if m < 1.0 - 1e-7:
                strict_here = True
                witness = h / m if m > 0 else h
            elif m <= 1.0 + (_FLOOR * (1.0 + float(np.max(np.abs(A)))) if norms.q == 2.0
                             else 1e-7):
                hbar = h / m
        if norms.p == 1.0 and not strict_here and h is not None and abs(m - 1.0) <= 1e-7:
            face, ambiguous = _p1_face_direction(A, eps, d)
            if ambiguous:
                strict_here = True
                witness = face
                hbar = np.zeros(d)
            elif face is not None:
                nrm = float(np.sum(np.abs(face)))
                if nrm > 0:
                    hbar = face / nrm
        if norms.p < 2.0:
            # The dual map |x|^(p-1) lifts rounding noise in hbar (3e-17 to
            # 5.5e-9 at p = 1.5), which tilts the admissible hyperplane.
            hbar = np.where(np.abs(hbar) < 1e-12 * np.max(np.abs(hbar)), 0.0, hbar)
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
            basis_perp = _null_space(rows)
            basis_tilde = _null_space(np.vstack([rows, A]))
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


def canonical_decompose(model: MarketModel, eps: float, norms: NormPair, strategy: Strategy,
                        structures: Optional[dict[int, NodeStructure]] = None
                        ) -> CanonicalDecomposition:
    """Split an admissible strategy into extremal, orthogonal, and null parts.

    Admissibility: H(v) vanishes to 1e-9 where hbar(v) does (coordinate-wise
    for p = 1); violations raise with the offending node named.
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
        if np.any(np.abs(h[dead]) > 1e-9):
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
    """Outcome of the two-part NA' check; the witness vectors are read-only."""

    holds: bool
    strict_arbitrage: ArbitrageReport
    witnesses: dict  # node -> unit vector violating the orthogonal no-arbitrage condition

    def __post_init__(self) -> None:
        object.__setattr__(self, "witnesses", _frozen(self.witnesses))

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
    P-mean gain c.y over the cone {rows y >= 0} cut by the l1 ball
    |B y|_1 <= 1, one exact LP for every p; a positive optimum yields a
    witness direction B y, scaled to unit p-norm.  The sign of the optimum
    does not depend on which ball cuts the cone.  ``tol`` bounds the
    witness's own gain per unit p-norm, c.y / |B y|_p: it lies between the
    l1-ball optimum and the p-ball optimum, which exceeds the l1 one by a
    factor d^(1 - 1/p) at most, and equals the latter when the hyperplane
    piece is a line (B one column).
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
    d = model.d
    for v in model.internal:
        B = structures[v].perp_basis
        if B.shape[1] == 0:
            continue
        kids = list(model.children[v])
        A = model.delta[kids]           # (k, d)
        c = B.T @ (A.T @ model.cond_prob[kids])
        rows = A @ B                    # one-step gains per child, in basis coords
        r = B.shape[1]
        # variables (y, t) with t_i >= |(B y)_i| and sum t <= 1
        a_ub = np.vstack([
            np.hstack([-rows, np.zeros((rows.shape[0], d))]),
            np.hstack([B, -np.eye(d)]),
            np.hstack([-B, -np.eye(d)]),
            np.concatenate([np.zeros(r), np.ones(d)])[None, :],
        ])
        b_ub = np.concatenate([np.zeros(rows.shape[0]), np.zeros(2 * d), [1.0]])
        lp = LinearProgram(c=np.concatenate([c, np.zeros(d)]), sense="max",
                           a_ub=a_ub, b_ub=b_ub,
                           bounds=[(None, None)] * r + [(0, None)] * d)
        res = solve_lp(lp)
        w = B @ res.x[:r] if res.status == "optimal" else None
        if w is not None and res.value > tol * norms.norm(w):
            witnesses[v] = w if norms.p == 1.0 else w / norms.norm(w)
    holds = not strict.found and not witnesses
    return NaPrimeReport(holds, strict, witnesses)
