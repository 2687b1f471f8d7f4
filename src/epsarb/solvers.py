"""Solver kernel: linear programs, cutting-plane concave maximization, and
exact discrete transport (min-cost and bottleneck).

Problem sizes throughout the package are desk-scale (tens of variables), so
everything is dense.  LPs are delegated to HiGHS through scipy; results are
re-checked for primal feasibility and infeasibility is certified by an
explicitly computed Farkas ray.  Min-cost transport is one LP; bottleneck
transport needs none: a threshold algorithm grows a flow along augmenting
paths and raises the threshold at Hall cuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import linprog as _scipy_linprog

def linprog(*args, **kwargs):
    """HiGHS with package-default settings (one call site for all LPs)."""
    kwargs.setdefault("method", "highs")
    return _scipy_linprog(*args, **kwargs)


@dataclass(frozen=True)
class LinearProgram:
    """min or max c.x subject to a_ub x <= b_ub, a_eq x = b_eq and bounds.

    Bounds default to free variables; pass one (lo, hi) pair per variable.
    """

    c: np.ndarray
    sense: str = "min"
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    bounds: Optional[Sequence[tuple]] = None

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")


@dataclass(frozen=True)
class LPResult:
    status: str  # optimal | infeasible | unbounded | error
    x: Optional[np.ndarray]
    value: Optional[float]
    dual_ub: Optional[np.ndarray]
    dual_eq: Optional[np.ndarray]
    farkas: Optional[dict]
    message: str = ""


_STATUS = {0: "optimal", 1: "error", 2: "infeasible", 3: "unbounded", 4: "error"}


def _norm_bounds(n: int, bounds) -> list[tuple]:
    if bounds is None:
        return [(None, None)] * n
    bounds = list(bounds)
    if len(bounds) != n:
        raise ValueError(f"expected {n} bound pairs, got {len(bounds)}")
    return [(lo, hi) for lo, hi in bounds]


def _farkas_certificate(a_ub, b_ub, a_eq, b_eq, bounds, tol: float = 1e-9) -> Optional[dict]:
    """A ray (y_ub >= 0, y_eq) proving {a_ub x <= b_ub, a_eq x = b_eq, bounds} empty.

    The ray satisfies y_ub' a_ub + y_eq' a_eq - lam + mu = 0 with lam, mu >= 0
    supported on finite bounds, and certificate value
    y_ub' b_ub + y_eq' b_eq - lam' lo + mu' hi < 0.
    """
    m_ub = 0 if a_ub is None else a_ub.shape[0]
    m_eq = 0 if a_eq is None else a_eq.shape[0]
    n = (a_ub.shape[1] if m_ub else a_eq.shape[1])
    lo = np.array([b[0] if b[0] is not None else -np.inf for b in bounds])
    hi = np.array([b[1] if b[1] is not None else np.inf for b in bounds])
    fin_lo = np.where(np.isfinite(lo))[0]
    fin_hi = np.where(np.isfinite(hi))[0]
    # Variables of the certificate LP: y_ub, y_eq+, y_eq-, lam (on fin_lo), mu (on fin_hi).
    blocks = []
    cost = []
    if m_ub:
        blocks.append(a_ub.T)
        cost.append(b_ub)
    if m_eq:
        blocks.append(a_eq.T)
        blocks.append(-a_eq.T)
        cost.append(b_eq)
        cost.append(-b_eq)
    eye = np.eye(n)
    if fin_lo.size:
        blocks.append(-eye[:, fin_lo])
        cost.append(-lo[fin_lo])
    if fin_hi.size:
        blocks.append(eye[:, fin_hi])
        cost.append(hi[fin_hi])
    A = np.hstack(blocks)
    c = np.concatenate(cost)
    k = A.shape[1]
    res = linprog(c=c, A_eq=A, b_eq=np.zeros(n),
                  A_ub=np.ones((1, k)), b_ub=np.array([1.0]),
                  bounds=[(0, None)] * k)
    if res.status != 0 or res.fun > -tol:
        return None
    y = res.x
    pos = 0
    out = {"value": float(res.fun)}
    if m_ub:
        out["y_ub"] = y[pos:pos + m_ub]
        pos += m_ub
    if m_eq:
        out["y_eq"] = y[pos:pos + m_eq] - y[pos + m_eq:pos + 2 * m_eq]
        pos += 2 * m_eq
    if fin_lo.size:
        out["y_lower"] = (fin_lo, y[pos:pos + fin_lo.size])
        pos += fin_lo.size
    if fin_hi.size:
        out["y_upper"] = (fin_hi, y[pos:pos + fin_hi.size])
    return out


def solve_lp(lp: LinearProgram, tol: float = 1e-9) -> LPResult:
    """Solve a dense LP; never returns silent garbage.

    Optimal solutions are checked against ``tol`` primal residuals; an
    infeasible status comes with a Farkas ray when one can be extracted.
    """
    c = np.asarray(lp.c, dtype=float)
    sign = 1.0 if lp.sense == "min" else -1.0
    n = c.size
    bounds = _norm_bounds(n, lp.bounds)
    a_ub = None if lp.a_ub is None else np.atleast_2d(np.asarray(lp.a_ub, dtype=float))
    b_ub = None if lp.b_ub is None else np.atleast_1d(np.asarray(lp.b_ub, dtype=float))
    a_eq = None if lp.a_eq is None else np.atleast_2d(np.asarray(lp.a_eq, dtype=float))
    b_eq = None if lp.b_eq is None else np.atleast_1d(np.asarray(lp.b_eq, dtype=float))
    res = linprog(c=sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds)
    status = _STATUS.get(res.status, "error")
    if status == "optimal":
        x = np.asarray(res.x)
        scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
        guard = max(tol * 10, 1e-6) * scale
        if a_ub is not None and np.max(a_ub @ x - b_ub, initial=-np.inf) > guard:
            return LPResult("error", x, None, None, None, None,
                            "primal residual exceeds tolerance")
        if a_eq is not None and np.max(np.abs(a_eq @ x - b_eq), initial=0.0) > guard:
            return LPResult("error", x, None, None, None, None,
                            "equality residual exceeds tolerance")
        dual_ub = None if a_ub is None else sign * np.asarray(res.ineqlin.marginals)
        dual_eq = None if a_eq is None else sign * np.asarray(res.eqlin.marginals)
        return LPResult("optimal", x, float(sign * res.fun), dual_ub, dual_eq, None, res.message)
    if status == "infeasible":
        cert = _farkas_certificate(a_ub, b_ub, a_eq, b_eq, bounds)
        return LPResult("infeasible", None, None, None, None, cert, res.message)
    return LPResult(status, None, None, None, None, None, res.message)


# ---------------------------------------------------------------------------
# Cutting-plane maximization of a concave function over a box, with optional
# concave inequality constraints g_i(x) >= 0.
# ---------------------------------------------------------------------------

Oracle = Callable[[np.ndarray], tuple]


@dataclass(frozen=True)
class ConcaveOracle:
    """First-order oracle for a concave function on a compact box.

    ``evaluate(x)`` returns ``(value, supergradient)``; the supergradient g
    must satisfy f(y) <= f(x) + g.(y - x) on the box.
    """

    evaluate: Oracle
    lower: np.ndarray
    upper: np.ndarray
    constraints: tuple = ()


@dataclass(frozen=True)
class ConcaveResult:
    status: str  # optimal | iteration_cap | infeasible
    x: Optional[np.ndarray]
    value: Optional[float]
    upper_bound: float
    gap: float
    iterations: int


def maximize_concave(oracle, lower=None, upper=None, constraints: Sequence[Oracle] = (),
                     a_ub=None, b_ub=None, a_eq=None, b_eq=None,
                     tol: float = 1e-8, feas_tol: float = 1e-9,
                     max_iter: int = 400, start=None,
                     stop_above=None, stop_below=None, repair=None,
                     max_rows: int = 900, damping: float = 0.0) -> ConcaveResult:
    """Kelley cutting planes: max f(x) s.t. g_i(x) >= 0 over a box.

    Static linear rows (a_ub x <= b_ub, a_eq x = b_eq) enter every master LP
    directly; nonlinear concave constraints enter through cuts.  Cuts are
    outer approximations, so the LP value is a certified upper bound and an
    LP-infeasible master certifies infeasibility of the true problem.  The
    incumbent is the best oracle-feasible iterate; terminates at relative gap
    ``tol`` or reports the best value and gap at the iteration cap.

    ``stop_above`` / ``stop_below`` short-circuit threshold queries: return
    as soon as the incumbent clears ``stop_above`` or the certified upper
    bound drops under ``stop_below``.
    """
    if isinstance(oracle, ConcaveOracle):
        lower = oracle.lower if lower is None else lower
        upper = oracle.upper if upper is None else upper
        constraints = tuple(constraints) + tuple(oracle.constraints)
        objective = oracle.evaluate
    else:
        objective = oracle
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    static_rows: list[np.ndarray] = []
    static_rhs: list[float] = []
    if a_ub is not None:
        for row, rhs in zip(np.atleast_2d(a_ub), np.atleast_1d(b_ub)):
            static_rows.append(np.concatenate([row, [0.0]]))
            static_rhs.append(float(rhs))
    eq_rows = None
    eq_rhs = None
    if a_eq is not None:
        eq_rows = np.hstack([np.atleast_2d(a_eq), np.zeros((np.atleast_2d(a_eq).shape[0], 1))])
        eq_rhs = np.atleast_1d(b_eq)

    if start is not None:
        x = np.clip(np.asarray(start, dtype=float), lower, upper)
    else:
        x = np.clip((lower + upper) / 2.0, lower, upper)

    cut_rows: list[np.ndarray] = list(static_rows)
    cut_rhs: list[float] = list(static_rhs)
    best_val = -np.inf
    best_x: Optional[np.ndarray] = None
    ub = np.inf
    c = np.zeros(n + 1)
    c[-1] = -1.0  # minimize -theta
    var_bounds = [(float(lo), float(hi)) for lo, hi in zip(lower, upper)] + [(None, None)]

    static_mat = np.vstack([r[:-1] for r in static_rows]) if static_rows else None
    static_vec = np.array(static_rhs) if static_rows else None

    def _static_violation(z: np.ndarray) -> float:
        worst = 0.0
        if static_mat is not None:
            worst = min(worst, float(np.min(static_vec - static_mat @ z)))
        if eq_rows is not None:
            worst = min(worst, -float(np.max(np.abs(eq_rows[:, :-1] @ z - eq_rhs))))
        return worst

    for it in range(1, max_iter + 1):
        fval, fgrad = objective(x)
        fgrad = np.asarray(fgrad, dtype=float)
        cut_rows.append(np.concatenate([-fgrad, [1.0]]))  # theta <= f0 + g.(x-x0)
        cut_rhs.append(fval - float(fgrad @ x))
        worst = _static_violation(x)
        for g in constraints:
            gval, ggrad = g(x)
            if np.ndim(gval) == 0:  # scalar oracle: one cut
                ggrad = np.asarray(ggrad, dtype=float)
                worst = min(worst, float(gval))
                cut_rows.append(np.concatenate([-ggrad, [0.0]]))
                cut_rhs.append(float(gval) - float(ggrad @ x))
            else:  # block oracle: (m,) values with (m, n) gradients
                gval = np.asarray(gval, dtype=float)
                ggrad = np.asarray(ggrad, dtype=float)
                worst = min(worst, float(np.min(gval)))
                block = np.hstack([-ggrad, np.zeros((gval.size, 1))])
                cut_rows.extend(block)
                cut_rhs.extend((gval - ggrad @ x).tolist())
        if repair is not None:
            xr = np.clip(np.asarray(repair(x), dtype=float), lower, upper)
            fr = objective(xr)[0]
            wr = _static_violation(xr)
            for g in constraints:
                gv = g(xr)[0]
                wr = min(wr, float(gv) if np.ndim(gv) == 0 else float(np.min(gv)))
            if wr >= -feas_tol and fr > best_val:
                best_val = fr
                best_x = xr.copy()
        if worst >= -feas_tol and fval > best_val:
            best_val = fval
            best_x = x.copy()
        if stop_above is not None and best_val >= stop_above:
            return ConcaveResult("optimal", best_x, best_val, ub, ub - best_val, it)
        res = linprog(c=c, A_ub=np.vstack(cut_rows), b_ub=np.array(cut_rhs),
                      A_eq=eq_rows, b_eq=eq_rhs, bounds=var_bounds)
        if res.status == 2:
            return ConcaveResult("infeasible", None, None, -np.inf, np.inf, it)
        if res.status != 0:
            break
        ub = min(ub, float(-res.fun))
        gap = ub - best_val
        if stop_below is not None and ub <= stop_below:
            return ConcaveResult("optimal", best_x, best_val if best_x is not None else None,
                                 ub, gap, it)
        if best_x is not None and gap <= tol * (1.0 + abs(ub)):
            return ConcaveResult("optimal", best_x, best_val, ub, gap, it)
        x = np.clip(np.asarray(res.x[:-1]), lower, upper)
        if damping > 0.0 and best_x is not None:
            # Bundle-style stabilization: query between incumbent and master.
            x = (1.0 - damping) * x + damping * best_x
    gap = ub - best_val if best_x is not None else np.inf
    return ConcaveResult("iteration_cap", best_x, best_val if best_x is not None else None,
                         ub, gap, max_iter)


# ---------------------------------------------------------------------------
# Discrete transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportInstance:
    """Per-stage coupling data: cost matrix plus matching marginals."""

    cost: np.ndarray
    source: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        cost = np.atleast_2d(np.asarray(self.cost, dtype=float))
        src = np.atleast_1d(np.asarray(self.source, dtype=float))
        tgt = np.atleast_1d(np.asarray(self.target, dtype=float))
        if cost.shape != (src.size, tgt.size):
            raise ValueError(f"cost shape {cost.shape} does not match marginals "
                             f"({src.size}, {tgt.size})")
        if not np.all(np.isfinite(cost)):
            raise ValueError("costs must be finite")
        if np.any(src < 0) or np.any(tgt < 0):
            raise ValueError("marginals must be non-negative")
        if abs(src.sum() - tgt.sum()) > 1e-12 * max(1.0, src.sum()):
            raise ValueError(f"marginal sums differ: {src.sum()!r} vs {tgt.sum()!r}")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)


@dataclass(frozen=True)
class TransportResult:
    value: float
    plan: np.ndarray


def _marginal_system(m: int, n: int):
    """Row-sum and column-sum equality matrix for a flattened m x n plan."""
    rows = np.zeros((m + n, m * n))
    for i in range(m):
        rows[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        rows[m + j, j::n] = 1.0
    return rows


def discrete_ot(inst: TransportInstance) -> TransportResult:
    """Exact minimum-cost coupling of the two marginals."""
    m, n = inst.cost.shape
    a_eq = _marginal_system(m, n)
    b_eq = np.concatenate([inst.source, inst.target])
    res = linprog(c=inst.cost.ravel(), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (m * n))
    if res.status != 0:
        raise RuntimeError(f"transport LP failed with status {res.status}: {res.message}")
    plan = np.maximum(np.asarray(res.x).reshape(m, n), 0.0)
    return TransportResult(float(res.fun), plan)


def transport_feasible_below(inst: TransportInstance, lam: float,
                             feas_tol: float = 1e-9) -> bool:
    """Whether a coupling exists supported on cells of cost <= lam.

    Feasibility is monotone in lam, so this is exactly whether the
    bottleneck value is at most lam.
    """
    return bottleneck_transport(inst, feas_tol).value <= lam


def bottleneck_transport(inst: TransportInstance, feas_tol: float = 1e-9) -> TransportResult:
    """min over couplings of the maximum cost charged with positive mass.

    Exact threshold algorithm (Garfinkel & Rao, 1971).  lam starts at the
    lower bound max(max_i min_j c_ij, max_j min_i c_ij) over rows and
    columns of positive mass, and one flow on the cells of cost <= lam is
    kept throughout.  The flow grows along shortest residual paths.  When
    none is left, the rows reachable from unmoved supply form a set S that
    violates Hall's condition at lam; every augmenting path must leave S
    through a cell not yet allowed, so lam rises straight to the cheapest
    cell from S to a column S does not reach.  The value is therefore always
    one of the costs, and the plan moves all but ``feas_tol`` of the mass on
    cells of cost <= value.
    """
    total = float(inst.source.sum())
    plan = np.zeros_like(inst.cost)
    if total <= 0.0:
        return TransportResult(0.0, plan)
    rows = np.flatnonzero(inst.source > 0)
    cols = np.flatnonzero(inst.target > 0)
    cost = inst.cost[np.ix_(rows, cols)]
    lam = float(max(cost.min(axis=1).max(), cost.min(axis=0).max()))
    lam, flow = _threshold_flow(cost.tolist(), inst.source[rows].tolist(),
                                inst.target[cols].tolist(), lam, total, feas_tol)
    plan[np.ix_(rows, cols)] = flow
    return TransportResult(lam, plan / plan.sum() * total)


def _threshold_flow(cost: list, supply: list, demand: list, lam: float,
                    total: float, feas_tol: float) -> tuple[float, list]:
    """Augment a flow on the cells of cost <= lam, raising lam at Hall cuts.

    ``supply`` and ``demand`` are the residual marginals, consumed in place.
    Residuals at or below 1e-15 of the total mass count as zero, so float
    noise in the marginals starts no augmentation.  Returns the final lam
    and the flow as nested lists.
    """
    m, n = len(supply), len(demand)
    tiny = 1e-15 * total
    flow = [[0.0] * n for _ in range(m)]
    while True:
        # Breadth-first search from every row with residual supply; a row is
        # also reached backwards through a column it already sends flow to.
        seen = [s > tiny for s in supply]
        row_via = [-1] * m
        col_via = [-1] * n
        frontier = [i for i in range(m) if seen[i]]
        end = -1
        while frontier and end < 0:
            nxt = []
            for i in frontier:
                ci = cost[i]
                for j in range(n):
                    if col_via[j] >= 0 or ci[j] > lam:
                        continue
                    col_via[j] = i
                    if demand[j] > tiny:
                        end = j
                        break
                    for k in range(m):
                        if not seen[k] and flow[k][j] > tiny:
                            seen[k] = True
                            row_via[k] = j
                            nxt.append(k)
                if end >= 0:
                    break
            frontier = nxt
        if end < 0:
            if sum(supply) <= feas_tol:
                return lam, flow
            cut = [cost[i][j] for i in range(m) if seen[i] for j in range(n) if col_via[j] < 0]
            if not cut:  # every column is reached and full: the marginal sums differ by the rest
                return lam, flow
            lam = min(cut)
            continue
        path = []
        delta = demand[end]
        j = end
        while True:
            i = col_via[j]
            back = row_via[i]
            path.append((i, j, back))
            if back < 0:
                break
            delta = min(delta, flow[i][back])
            j = back
        delta = min(delta, supply[i])
        supply[i] -= delta
        demand[end] -= delta
        for i, j, back in path:
            flow[i][j] += delta
            if back >= 0:
                flow[i][back] -= delta
