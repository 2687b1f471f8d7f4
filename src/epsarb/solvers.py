"""Solver kernel: linear programs, second-order cone programs, cutting-plane
concave maximization, and exact discrete transport (min-cost and
bottleneck).

Problem sizes throughout the package are desk-scale (tens of variables), so
everything is dense.  LPs are delegated to HiGHS through scipy; results are
re-checked for primal feasibility and infeasibility is certified by an
explicitly computed Farkas ray.  LPs with second-order cones (the p = 2
programs) run a dense primal-dual interior point written in numpy, which
returns primal and dual points or an infeasibility certificate; a
:class:`ConeProgram` recomputes weak-duality bounds and certificates from
them.  Kelley cutting planes serve the remaining p.  Min-cost transport is
one LP; bottleneck transport needs none: a threshold algorithm grows a flow
along augmenting paths and raises the threshold at Hall cuts.
"""

from __future__ import annotations

import math
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


def solve_lp(lp: LinearProgram, tol: float = 1e-9,
             highs_tol: Optional[float] = None) -> LPResult:
    """Solve a dense LP; never returns silent garbage.

    Optimal solutions are checked against ``tol`` primal residuals; an
    infeasible status comes with a Farkas ray when one can be extracted.
    ``highs_tol`` overrides HiGHS's primal and dual feasibility tolerances
    (default 1e-7).
    """
    c = np.asarray(lp.c, dtype=float)
    sign = 1.0 if lp.sense == "min" else -1.0
    n = c.size
    bounds = _norm_bounds(n, lp.bounds)
    a_ub = None if lp.a_ub is None else np.atleast_2d(np.asarray(lp.a_ub, dtype=float))
    b_ub = None if lp.b_ub is None else np.atleast_1d(np.asarray(lp.b_ub, dtype=float))
    a_eq = None if lp.a_eq is None else np.atleast_2d(np.asarray(lp.a_eq, dtype=float))
    b_eq = None if lp.b_eq is None else np.atleast_1d(np.asarray(lp.b_eq, dtype=float))
    options = {} if highs_tol is None else {"primal_feasibility_tolerance": highs_tol,
                                            "dual_feasibility_tolerance": highs_tol}
    res = linprog(c=sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, options=options)
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
# Second-order cone programs: dense primal-dual interior point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeProgram:
    """min c.x subject to G x + s = h, A x = b, s in R+^l x Q^soc[0] x ...

    Q^n is the second-order cone {(u0, u1) in R^n : u0 >= |u1|_2}; the rows
    of G and h list the l orthant rows first, then each cone block in turn.
    """

    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    l: int
    soc: tuple = ()
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        G = np.asarray(self.G, dtype=float).reshape(-1, c.size)
        h = np.asarray(self.h, dtype=float)
        soc = tuple(int(k) for k in self.soc)
        if G.shape[0] != h.size or h.size != self.l + sum(soc):
            raise ValueError(f"G has {G.shape[0]} rows, h {h.size}, cones {self.l} + {sum(soc)}")
        if self.A is None:
            A, b = np.zeros((0, c.size)), np.zeros(0)
        else:
            A = np.asarray(self.A, dtype=float).reshape(-1, c.size)
            b = np.asarray(self.b, dtype=float).reshape(-1)
        for name, val in (("c", c), ("G", G), ("h", h), ("soc", soc), ("A", A), ("b", b)):
            object.__setattr__(self, name, val)

    def _blocks(self):
        start = self.l
        for k in self.soc:
            yield slice(start, start + k)
            start += k

    def project_dual(self, z: np.ndarray) -> np.ndarray:
        """z moved into the (self-dual) cone: negative orthant entries are
        zeroed, and a cone head is raised to the norm of its tail when it
        falls short."""
        z = np.array(z, dtype=float)
        z[:self.l] = np.maximum(z[:self.l], 0.0)
        for blk in self._blocks():
            z[blk.start] = max(z[blk.start], float(np.linalg.norm(z[blk.start + 1:blk.stop])))
        return z

    def lower_bound(self, y: np.ndarray, z: np.ndarray, box: np.ndarray) -> float:
        """Certified lower bound on min c.x, by weak duality from any (y, z),
        valid whenever some minimizer has |x_i| <= box_i.

        z is first moved into the cone; the dual residual r = c + G'z + A'y
        then costs at most sum_i |r_i| box_i.
        """
        z = self.project_dual(z)
        r = self.c + self.G.T @ z + self.A.T @ y
        slack = float(np.abs(r) @ box) if np.any(r) else 0.0
        return float(-self.h @ z - self.b @ y) - slack

    def certifies_infeasible(self, y: np.ndarray, z: np.ndarray, box: np.ndarray) -> bool:
        """Whether (y, z) proves that no x with |x_i| <= box_i is feasible:
        h.z + b.y + sum_i |(G'z + A'y)_i| box_i < 0 with z in the cone."""
        z = self.project_dual(z)
        r = self.G.T @ z + self.A.T @ y
        return float(self.h @ z + self.b @ y) + float(np.abs(r) @ box) < 0.0


@dataclass(frozen=True)
class ConeResult:
    """Outcome of :func:`solve_socp`.

    ``optimal``: (x, s) is primal and (y, z) dual feasible to 1e-13 with
    gap c.x - (-h.z - b.y) under 1e-13 (relative to the objective), both
    recomputed from the returned points.  ``infeasible``: (y, z) is a
    certificate scaled to h.z + b.y = -1, with z in the cone and
    G'z + A'y close to zero.  ``unbounded``: x is a ray with c.x = -1,
    A x and G x + s close to zero, s in the cone.  ``unsolved``: the best
    iterate reached, which still gives a valid dual bound through
    :meth:`ConeProgram.lower_bound`.  ``error``: no iterate at all (the
    starting KKT system is singular).
    """

    status: str
    x: Optional[np.ndarray]
    s: Optional[np.ndarray]
    y: Optional[np.ndarray]
    z: Optional[np.ndarray]
    value: float
    dual_value: float
    pres: float
    dres: float
    gap: float
    iterations: int

    def near_optimal(self, tol: float) -> bool:
        """Primal and dual residuals and relative gap all under ``tol``
        (``unsolved`` results that stalled short of the solver's own
        tolerance can still meet a looser one)."""
        return (self.status in ("optimal", "unsolved")
                and max(self.pres, self.dres, abs(self.gap) / (1.0 + abs(self.value))) <= tol)


def _jdet(u: np.ndarray) -> float:
    """u0^2 - |u1|^2, factored to avoid cancellation near the boundary."""
    nu = math.sqrt(float(u[1:] @ u[1:]))
    return (u[0] - nu) * (u[0] + nu)


def _soc_scaling(s: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling of one cone block (s, z interior).

    Returns (eta, wbar, lam, det_lam) with W = eta * [[w0, w1'],
    [w1, I + w1 w1' / (1 + w0)]], W z = W^-1 s = lam, and det_lam =
    lam0^2 - |lam1|^2 computed without cancellation.
    """
    a = math.sqrt(max(_jdet(s), 1e-300))
    b = math.sqrt(max(_jdet(z), 1e-300))
    sb = s / a
    zb = z / b
    gamma = math.sqrt(max((1.0 + float(sb @ zb)) / 2.0, 1e-300))
    wb = np.empty_like(s)
    wb[0] = (sb[0] + zb[0]) / (2.0 * gamma)
    wb[1:] = (sb[1:] - zb[1:]) / (2.0 * gamma)
    lam = np.empty_like(s)
    lam[0] = gamma
    lam[1:] = ((gamma + zb[0]) * sb[1:] + (gamma + sb[0]) * zb[1:]) / (sb[0] + zb[0] + 2.0 * gamma)
    return math.sqrt(a / b), wb, math.sqrt(a * b) * lam, a * b


def _soc_matrix(eta: float, wb: np.ndarray) -> np.ndarray:
    """The block scaling W as a dense matrix."""
    w0, w1 = wb[0], wb[1:]
    W = np.empty((wb.size, wb.size))
    W[0, 0] = w0
    W[0, 1:] = W[1:, 0] = w1
    W[1:, 1:] = np.eye(w1.size) + np.outer(w1, w1) / (1.0 + w0)
    return eta * W


class _Cone:
    """Jordan-algebra operations on the cone R+^l x Q^n1 x ... of a program."""

    def __init__(self, prog: ConeProgram):
        self.l = prog.l
        self.blocks = list(prog._blocks())
        self.m = prog.h.size
        self.degree = prog.l + len(prog.soc)
        self.e = np.zeros(self.m)  # the identity: ones, and (1, 0, ..., 0) per block
        self.e[:prog.l] = 1.0
        for blk in self.blocks:
            self.e[blk.start] = 1.0

    def min_eig(self, u: np.ndarray) -> float:
        out = float(np.min(u[:self.l])) if self.l else np.inf
        for blk in self.blocks:
            tail = u[blk.start + 1:blk.stop]
            out = min(out, u[blk.start] - math.sqrt(float(tail @ tail)))
        return out

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out[:self.l] = u[:self.l] * v[:self.l]
        for blk in self.blocks:
            a, b = u[blk], v[blk]
            out[blk.start] = a @ b
            out[blk.start + 1:blk.stop] = a[0] * b[1:] + b[0] * a[1:]
        return out

    def div(self, lam: np.ndarray, v: np.ndarray, dets) -> np.ndarray:
        """The x with lam o x = v (``dets``: lam0^2 - |lam1|^2 per block)."""
        out = np.empty_like(v)
        out[:self.l] = v[:self.l] / lam[:self.l]
        for blk, det in zip(self.blocks, dets):
            a, b = lam[blk], v[blk]
            x0 = (a[0] * b[0] - a[1:] @ b[1:]) / det
            out[blk.start] = x0
            out[blk.start + 1:blk.stop] = (b[1:] - x0 * a[1:]) / a[0]
        return out

    def max_step(self, lam: np.ndarray, d: np.ndarray) -> float:
        """Largest alpha with lam + alpha d in the cone (lam interior)."""
        alpha = np.inf
        if self.l:
            neg = d[:self.l] < 0.0
            if np.any(neg):
                alpha = float(np.min(-lam[:self.l][neg] / d[:self.l][neg]))
        for blk in self.blocks:
            u, v = lam[blk], d[blk]
            if v[0] < 0.0:  # the head must stay >= 0 (a line through the apex has disc 0)
                alpha = min(alpha, -u[0] / v[0])
            c0 = _jdet(u)
            a = v[0] ** 2 - v[1:] @ v[1:]
            b = 2.0 * (u[0] * v[0] - u[1:] @ v[1:])
            disc = b * b - 4.0 * a * c0
            if disc < 0.0:
                continue  # the head never meets the tail: no crossing
            qq = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots = [c0 / qq] if qq != 0.0 else []
            if a != 0.0:
                roots.append(qq / a)
            pos = [r for r in roots if r > 0.0]
            if pos:
                alpha = min(alpha, min(pos))
        return alpha


_TOL = 1e-13  # relative residuals and gap of an optimal point
_CERT_TOL = 1e-9  # relative residual of an infeasibility or unboundedness certificate
_MAX_ITER = 60


def solve_socp(prog: ConeProgram) -> ConeResult:
    """Dense primal-dual interior point for an LP with second-order cones.

    The homogeneous self-dual embedding (Domahidi, Chu & Boyd, ECOS, 2013;
    Vandenberghe, CVXOPT cone solvers, 2010) runs Mehrotra predictor-
    corrector steps under Nesterov-Todd scaling; each step factors one KKT
    matrix [[0, A', G'], [A, 0, 0], [G, 0, -W'W]] and solves it three times.
    Termination: primal and dual residuals and the relative gap under
    1e-13, or an infeasibility or unboundedness certificate whose residual
    is under 1e-9 relative to its value.  Otherwise (iteration cap, or
    rounding stalls the residuals) the status is ``unsolved`` and the
    iterate with the smallest worst relative residual or gap is returned.
    """
    # A stalled iterate may overflow or leave the KKT matrix singular; the
    # best earlier iterate is returned instead.
    with np.errstate(all="ignore"):
        try:
            return _interior_point(prog)
        except np.linalg.LinAlgError:  # no starting point: the KKT matrix is singular
            return ConeResult("error", None, None, None, None, np.nan, np.nan,
                              np.nan, np.nan, np.nan, 0)


def _interior_point(prog: ConeProgram) -> ConeResult:
    from scipy.linalg.lapack import dgetrf, dgetrs

    c, G, h, A, b = prog.c, prog.G, prog.h, prog.A, prog.b
    n, p = c.size, b.size
    cone = _Cone(prog)
    m, l, blocks = cone.m, cone.l, cone.blocks
    nrm_c = max(1.0, float(np.linalg.norm(c)))
    nrm_bh = max(1.0, float(np.linalg.norm(b)), float(np.linalg.norm(h)))
    K = np.zeros((n + p + m, n + p + m))
    K[:n, n:n + p] = A.T
    K[n:n + p, :n] = A
    K[:n, n + p:] = G.T
    K[n + p:, :n] = G
    reg = 1e-13

    def kkt(scale_sq):
        """Solver for the KKT matrix with (3, 3) block -scale_sq: LU of a
        slightly regularized copy, refined against the exact matrix."""
        K[n + p:, n + p:] = -scale_sq
        Kt = K.copy()
        K[:n, :n] += reg * np.eye(n)
        K[n:, n:] -= reg * np.eye(p + m)
        lu, piv, info = dgetrf(K)
        K[:] = Kt
        if info != 0 or not np.all(np.isfinite(lu)):
            raise np.linalg.LinAlgError("singular KKT matrix")

        def solve(rhs):
            sol = dgetrs(lu, piv, rhs)[0]
            for _ in range(2):
                sol = sol + dgetrs(lu, piv, rhs - Kt @ sol)[0]
            return sol
        return solve

    # Starting point: least-norm primal slack and dual multiplier (W = I).
    solve0 = kkt(np.eye(m))
    sol = solve0(np.concatenate([np.zeros(n), b, h]))
    x, s = sol[:n], -sol[n + p:]
    sol = solve0(np.concatenate([-c, np.zeros(p + m)]))
    y, z = sol[n:n + p], sol[n + p:]
    for v in (s, z):
        shift = -cone.min_eig(v)
        if shift >= -1e-8:
            v += (1.0 + shift) * cone.e
    tau = kappa = 1.0

    def result(status, it, x, s, y, z, scale):
        xs, ss, ys, zs = (None if v is None else v / scale for v in (x, s, y, z))
        pval = float(c @ xs) if xs is not None else np.nan
        dval = float(-h @ zs - b @ ys) if zs is not None else np.nan
        pres = dres = gap = np.nan
        if status in ("optimal", "unsolved"):
            pres = max(float(np.linalg.norm(A @ xs - b)) if p else 0.0,
                       float(np.linalg.norm(G @ xs + ss - h))) / nrm_bh
            dres = float(np.linalg.norm(G.T @ zs + A.T @ ys + c)) / nrm_c
            gap = pval - dval
        return ConeResult(status, xs, ss, ys, zs, pval, dval, pres, dres, gap, it)

    best = (np.inf, 0, x, s, y, z, tau)
    for it in range(_MAX_ITER + 1):
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z)) and np.isfinite(tau)):
            break
        rx = A.T @ y + G.T @ z + c * tau
        ry = A @ x - b * tau
        rz = G @ x + s - h * tau
        hz_by = float(h @ z + b @ y)
        cx = float(c @ x)
        rt = kappa + cx + hz_by
        mu = (float(s @ z) + tau * kappa) / (cone.degree + 1)
        pres = max(float(np.linalg.norm(ry)) if p else 0.0, float(np.linalg.norm(rz))) / tau / nrm_bh
        dres = float(np.linalg.norm(rx)) / tau / nrm_c
        pcost, dcost = cx / tau, -hz_by / tau
        gap = abs(pcost - dcost) / (1.0 + min(abs(pcost), abs(dcost)))
        merit = max(pres, dres, gap)
        if merit <= _TOL:
            return result("optimal", it, x, s, y, z, tau)
        if merit < best[0]:
            best = (merit, it, x, s, y, z, tau)
        elif best[0] <= 1e-6 and it - best[1] >= 4:
            break  # rounding has stalled the residuals
        if hz_by < 0.0 and float(np.linalg.norm(A.T @ y + G.T @ z)) <= _CERT_TOL * -hz_by * nrm_c:
            return result("infeasible", it, None, None, y, z, -hz_by)
        if cx < 0.0 and max(float(np.linalg.norm(A @ x)) if p else 0.0,
                            float(np.linalg.norm(G @ x + s))) <= _CERT_TOL * -cx * nrm_bh:
            return result("unbounded", it, x, s, None, None, -cx)
        if it == _MAX_ITER or not np.isfinite(mu) or mu <= 0.0:
            break

        # Scaling: W z = W^-1 s = lam, block by block.
        lam = np.empty(m)
        scale_sq = np.zeros((m, m))
        dz0 = np.sqrt(s[:l] / z[:l])
        lam[:l] = np.sqrt(s[:l] * z[:l])
        scale_sq[np.arange(l), np.arange(l)] = dz0 ** 2
        scalings = []
        dets = []
        for blk in blocks:
            eta, wb, lam[blk], det = _soc_scaling(s[blk], z[blk])
            Wm = _soc_matrix(eta, wb)
            scalings.append(Wm)
            dets.append(det)
            scale_sq[blk, blk] = Wm @ Wm

        def W(v):
            out = np.empty_like(v)
            out[:l] = v[:l] * dz0
            for blk, Wm in zip(blocks, scalings):
                out[blk] = Wm @ v[blk]
            return out

        try:
            solve = kkt(scale_sq)
        except np.linalg.LinAlgError:
            break
        sol1 = solve(np.concatenate([-c, b, h]))
        x1, y1, z1 = sol1[:n], sol1[n:n + p], sol1[n + p:]
        denom = float(c @ x1 + b @ y1 + h @ z1) - kappa / tau

        def direction(dx, dy, dz, dt, ds, dk):
            u = cone.div(lam, -ds, dets)
            sol2 = solve(np.concatenate([-dx, -dy, -dz - W(u)]))
            x2, y2, z2 = sol2[:n], sol2[n:n + p], sol2[n + p:]
            dtau = (-dt + dk / tau - float(c @ x2 + b @ y2 + h @ z2)) / denom
            ddz = z2 + dtau * z1
            wdz = W(ddz)
            return (x2 + dtau * x1, y2 + dtau * y1, ddz, dtau,
                    (-dk - kappa * dtau) / tau, u - wdz, wdz)

        def step(d):
            _, _, _, dtau, dkap, sdir, zdir = d
            alpha = min(cone.max_step(lam, sdir), cone.max_step(lam, zdir))
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkap < 0.0:
                alpha = min(alpha, -kappa / dkap)
            return alpha

        aff = direction(rx, ry, rz, rt, cone.prod(lam, lam), tau * kappa)
        alpha_aff = min(1.0, step(aff))
        sigma = min(1.0, max(0.0, 1.0 - alpha_aff)) ** 3
        corr = cone.prod(aff[5], aff[6])
        comb = direction((1.0 - sigma) * rx, (1.0 - sigma) * ry, (1.0 - sigma) * rz,
                         (1.0 - sigma) * rt,
                         cone.prod(lam, lam) - sigma * mu * cone.e + corr,
                         tau * kappa - sigma * mu + aff[3] * aff[4])
        alpha = 0.99 * min(1.0, step(comb))
        if not np.isfinite(alpha) or alpha <= 1e-12:
            break
        dx, dy, ddz, dtau, dkap, sdir, _ = comb
        x = x + alpha * dx
        y = y + alpha * dy
        z = z + alpha * ddz
        s = s + alpha * W(sdir)
        tau += alpha * dtau
        kappa += alpha * dkap
    return result("unsolved", *best[1:])


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
