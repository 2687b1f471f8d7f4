"""Solver kernel: linear programs, cone programs over second-order and
power cones, min-norm points, and exact discrete transport (min-cost and
bottleneck).

Problem sizes throughout the package are desk-scale (tens of variables), so
everything is dense.  :func:`solve_lp` is the LP front end, and it calls
the HiGHS core that scipy ships directly: scipy's ``linprog`` wrapper
(option validation, input cleaning, a sparse conversion, bound marginals
no caller reads) cost about three times as much per LP as HiGHS's own
solve on these sizes, so :func:`solve_lp` builds the same model with the
same options itself and keeps scipy's result check.  Optimal points are
re-checked for primal feasibility, and infeasibility is HiGHS's status.
LPs with second-order cones (the p = 2 programs) and three-dimensional
power cones (every other p > 1) run a dense primal-dual interior point
written in numpy around scipy's LAPACK LU, which returns primal and dual
points or an infeasibility certificate; a :class:`ConeProgram` recomputes
weak-duality bounds and certificates from them.  The HiGHS core and the
LAPACK module are compiled scipy modules, loaded from their files on first
use (:func:`_scipy_extension`) without the scipy package imports above
them, so ``import epsarb`` loads no scipy module and a solve loads only
those two.
The point of a polytope nearest the origin is Wolfe's finite active-set
method (:func:`min_norm_point`), certified by its optimality condition,
and one LP (:func:`face_support`) finds which vertices can carry weight in
that point.
Transport needs no LP: min-cost transport is a transportation simplex
whose pivots are those of pricing every cycle in the log domain, exact for
weights of any spread; it prices each cell from the basis's dual
potentials in O(1) and walks a cycle into the log-domain test only where
a rounding band around the potentials' price cannot decide.  Bottleneck
transport is a threshold algorithm that grows a flow along augmenting
paths and raises the threshold at Hall cuts.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


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
    message: str = ""


def _scipy_extension(name: str):
    """The compiled scipy module ``name``, loaded from its file in scipy's
    install directory without running the scipy package ``__init__``s above
    it (``scipy.optimize`` alone imports some 320 modules).

    The module is registered in ``sys.modules`` before it runs, so a later
    ``import scipy.optimize`` or ``scipy.linalg.lapack`` reuses it rather
    than loading the file a second time; a module that is already there is
    returned as it is.

    Once this has run, the two extensions are not attributes of
    ``scipy.optimize._highspy`` or ``scipy.linalg``, even after those
    packages are imported (CPython binds a submodule to its parent only
    when it loads it); a caller that patches the HiGHS core takes it from
    ``sys.modules`` or from this loader.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
    if scipy is None:
        raise ImportError(f"no compiled module {name}: scipy is not installed", name=name)
    *package, leaf = name.split(".")[1:]
    folder = os.path.join(scipy.submodule_search_locations[0], *package)
    paths = [os.path.join(folder, leaf + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None:
        raise ImportError(f"no compiled module {name}: none of {paths} exists", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    sys.modules[name] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


# scipy's check on an "optimal" point: bounds and rows met within 10 sqrt(1e-9)
_RESULT_TOL = 10 * math.sqrt(1e-9)


# One HiGHS instance per thread, built by solve_lp on the thread's first LP
_THREAD = threading.local()


@functools.cache
def _highs_options(highs_tol: Optional[float]):
    """The options scipy's ``linprog(method="highs")`` passes: presolve on,
    dual simplex, no debug checks, no output; built once per tolerance and
    only read after that."""
    core = _scipy_extension("scipy.optimize._highspy._core")

    opts = core.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = False
    opts.log_to_console = False
    if highs_tol is not None:
        opts.primal_feasibility_tolerance = highs_tol
        opts.dual_feasibility_tolerance = highs_tol
    return opts


def solve_lp(lp: LinearProgram, highs_tol: Optional[float] = None) -> LPResult:
    """Solve a dense LP with one HiGHS solve: every LP of the package comes
    here, and no result is silent garbage.

    The model, options and result check are those of scipy's
    ``linprog(method="highs")``, so results are bit-identical to it.  The
    rows are [a_ub; a_eq] in one column-wise matrix without explicit zeros
    and with ascending row indices in each column, as scipy's sparse
    conversion leaves them (another order changes HiGHS's pivots).  Each
    thread keeps one solver instance, since building one costs about a
    fifth of a small LP; every call passes its options and model again,
    and ``passModel`` resets the basis, so no state carries from one LP to
    the next and the result is that of a fresh instance.  Optimal points
    are then checked again, on rows recomputed from x, for primal
    residuals of at most 1e-6 (1 + max |x|): scipy's
    check keeps the statuses equal to scipy's, and this one is the tighter
    while max |x| stays under about 300.  An infeasible status is HiGHS's
    own verdict, with no certificate attached.  ``dual_ub`` and ``dual_eq``
    are HiGHS's row duals, signed for ``sense`` and empty where there are no
    rows.  ``highs_tol`` overrides HiGHS's primal and dual feasibility
    tolerances (default 1e-7).
    """
    core = _scipy_extension("scipy.optimize._highspy._core")

    sign = 1.0 if lp.sense == "min" else -1.0
    c = sign * np.asarray(lp.c, dtype=float).ravel()
    n = c.size
    a_ub = np.zeros((0, n)) if lp.a_ub is None else np.atleast_2d(np.asarray(lp.a_ub, dtype=float))
    a_eq = np.zeros((0, n)) if lp.a_eq is None else np.atleast_2d(np.asarray(lp.a_eq, dtype=float))
    b_ub = np.zeros(0) if lp.b_ub is None else np.asarray(lp.b_ub, dtype=float).ravel()
    b_eq = np.zeros(0) if lp.b_eq is None else np.asarray(lp.b_eq, dtype=float).ravel()
    bnd = np.array([(None, None)] * n if lp.bounds is None else lp.bounds, dtype=float)  # None -> nan
    if bnd.shape != (n, 2) or a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
        raise ValueError(f"inconsistent LP shapes: {n} costs, bounds {bnd.shape}, "
                         f"a_ub {a_ub.shape}, b_ub {b_ub.shape}, a_eq {a_eq.shape}, b_eq {b_eq.shape}")
    lower = np.where(np.isnan(bnd[:, 0]), -core.kHighsInf, bnd[:, 0])
    upper = np.where(np.isnan(bnd[:, 1]), core.kHighsInf, bnd[:, 1])
    m_ub = b_ub.size
    rhs = np.concatenate([b_ub, b_eq])
    at = np.vstack([a_ub, a_eq]).T  # column j of the constraint matrix is row j of at
    if not (np.isfinite(c).all() and np.isfinite(at).all() and np.isfinite(rhs).all()):
        raise ValueError("LP costs, rows and right-hand sides must be finite")
    nonzero = at != 0.0

    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = rhs.size
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
    model.a_matrix_.index_ = np.nonzero(nonzero)[1]
    model.a_matrix_.value_ = at[nonzero]
    model.col_cost_ = c
    model.col_lower_ = lower
    model.col_upper_ = upper
    model.row_lower_ = np.concatenate([np.full(m_ub, -core.kHighsInf), b_eq])
    model.row_upper_ = rhs

    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = core._Highs()
    highs.passOptions(_highs_options(highs_tol))
    if highs.passModel(model) == core.HighsStatus.kError:
        solved, status = False, core.HighsModelStatus.kModelError
    else:
        solved = highs.run() != core.HighsStatus.kError
        status = highs.getModelStatus()
    message = highs.modelStatusToString(status)
    if not solved or status != core.HighsModelStatus.kOptimal:
        # scipy's status codes: a model error counts as infeasible
        verdict = {core.HighsModelStatus.kInfeasible: "infeasible",
                   core.HighsModelStatus.kModelError: "infeasible",
                   core.HighsModelStatus.kUnbounded: "unbounded"}.get(status, "error")
        return LPResult(verdict, None, None, None, None, message)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = rhs - np.array(solution.row_value)  # b - A x on every row
    feasible = not (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
                    or np.any(x < lower - _RESULT_TOL) or np.any(x > upper + _RESULT_TOL)
                    or np.any(slack[:m_ub] < -_RESULT_TOL)
                    or np.any(np.abs(slack[m_ub:]) > _RESULT_TOL))
    if not feasible:
        return LPResult("error", None, None, None, None,
                        f"{message}, but the point misses a bound or row by over {_RESULT_TOL:.2e}")
    guard = 1e-6 * (1.0 + float(np.max(np.abs(x), initial=0.0)))
    if np.max(a_ub @ x - b_ub, initial=-np.inf) > guard:
        return LPResult("error", x, None, None, None, "primal residual exceeds tolerance")
    if np.max(np.abs(a_eq @ x - b_eq), initial=0.0) > guard:
        return LPResult("error", x, None, None, None, "equality residual exceeds tolerance")
    row_dual = sign * np.array(solution.row_dual)
    return LPResult("optimal", x, float(sign * fun), row_dual[:m_ub], row_dual[m_ub:], message)


# ---------------------------------------------------------------------------
# The point of a polytope nearest the origin: Wolfe's active-set method
# ---------------------------------------------------------------------------


def min_norm_point(points) -> tuple[np.ndarray, np.ndarray]:
    """The point z of conv{rows of points} nearest the origin, and its weights.

    Wolfe, *Finding the nearest point in a polytope* (Math. Programming
    1976).  A corral S of affinely independent rows carries positive
    weights with z = weights . points[S].  A major step adds the row of
    least p . z; minor steps move the weights toward the nearest point of
    S's affine hull and drop the first row whose weight reaches zero on the
    way.  z is optimal exactly when min_p p . z >= |z|^2, which ends the
    method and is checked to 1e-12 of the largest |p|^2.  Returns (z,
    weights), the weights on the simplex over all rows; raises RuntimeError
    when the check fails.
    """
    P = np.asarray(points, dtype=float)
    k = P.shape[0]
    sq = np.einsum("ij,ij->i", P, P)
    tol = 1e-12 * float(np.max(sq))
    S = [int(np.argmin(sq))]
    w = np.ones(1)
    z = P[S[0]]
    for _ in range(10 * k):
        dots = P @ z
        j = int(np.argmin(dots))
        if dots[j] >= float(z @ z) - tol or j in S:
            break
        S.append(j)
        w = np.append(w, 0.0)
        while True:
            # Nearest point of aff(S): min |mu . Q|^2 s.t. sum mu = 1.
            Q = P[S]
            n = len(S)
            K = np.zeros((n + 1, n + 1))
            K[:n, :n] = Q @ Q.T
            K[:n, n] = -1.0
            K[n, :n] = 1.0
            mu = np.linalg.solve(K, np.eye(n + 1)[n])[:n]
            if np.all(mu > 0.0):
                w = mu
                break
            out = np.flatnonzero(mu <= 0.0)
            ratios = w[out] / (w[out] - mu[out])
            w = w + float(np.min(ratios)) * (mu - w)
            w[out[np.argmin(ratios)]] = 0.0
            keep = w > 0.0
            S = [s for s, kept in zip(S, keep) if kept]
            w = w[keep]
        z = w @ P[S]
    # The affine-hull solves keep sum w = 1 only to their rounding, which a
    # near-singular corral lifts above 1e-14; rescale onto the simplex.
    w = w / w.sum()
    z = w @ P[S]
    if float(np.min(P @ z)) < float(z @ z) - tol:
        raise RuntimeError("min-norm point failed its optimality check")
    weights = np.zeros(k)
    weights[S] = w
    return z, weights


def face_support(points, z) -> np.ndarray:
    """Which rows of points carry weight in some convex combination equal to z.

    One LP over the cone {a >= 0: points' a = (sum a) z, sum a <= 1e7}:
    max sum t with 0 <= t <= 1 and t <= a.  The cone is closed under
    addition, so every row that can carry weight reaches t = 1 unless the
    cap binds; a row counts when t > 1/2, which needs weight 5e-8.
    """
    A = np.asarray(points, dtype=float)
    k, d = A.shape
    eye = np.eye(k)
    res = solve_lp(LinearProgram(
        c=np.concatenate([np.zeros(k), np.ones(k)]), sense="max",
        a_ub=np.vstack([np.hstack([-eye, eye]), np.concatenate([np.ones(k), np.zeros(k)])]),
        b_ub=np.concatenate([np.zeros(k), [1e7]]),
        a_eq=np.hstack([A.T - np.asarray(z)[:, None], np.zeros((d, k))]), b_eq=np.zeros(d),
        bounds=[(0.0, None)] * k + [(0.0, 1.0)] * k))
    if res.status != "optimal":
        raise RuntimeError(f"face support LP failed: {res.status} {res.message}")
    return res.x[k:] > 0.5


# ---------------------------------------------------------------------------
# Cone programs: dense primal-dual interior point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeProgram:
    """min c.x subject to G x + s = h, A x = b, s in R+^l x Q^soc[0] x ... x K_power[0] x ...

    Q^n is the second-order cone {(u0, u1) in R^n : u0 >= |u1|_2}, and K_a
    the three-dimensional power cone {(u, v, w) : u, v >= 0, |w| <= u^a
    v^(1 - a)} for 0 < a < 1 (``power`` lists the exponents a); the rows
    of G and h list the l orthant rows first, then each second-order block
    in turn, then each power block.
    """

    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    l: int
    soc: tuple = ()
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    power: tuple = ()

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        G = np.asarray(self.G, dtype=float).reshape(-1, c.size)
        h = np.asarray(self.h, dtype=float)
        soc = tuple(int(k) for k in self.soc)
        power = tuple(float(a) for a in self.power)
        if G.shape[0] != h.size or h.size != self.l + sum(soc) + 3 * len(power):
            raise ValueError(f"G has {G.shape[0]} rows, h {h.size}, cones "
                             f"{self.l} + {sum(soc)} + 3 x {len(power)}")
        if not all(0.0 < a < 1.0 for a in power):
            raise ValueError(f"power cone exponents must lie in (0, 1), got {power}")
        if self.A is None:
            A, b = np.zeros((0, c.size)), np.zeros(0)
        else:
            A = np.asarray(self.A, dtype=float).reshape(-1, c.size)
            b = np.asarray(self.b, dtype=float).reshape(-1)
        for name, val in (("c", c), ("G", G), ("h", h), ("soc", soc), ("A", A), ("b", b),
                          ("power", power)):
            object.__setattr__(self, name, val)

    def _blocks(self):
        start = self.l
        for k in self.soc:
            yield slice(start, start + k)
            start += k

    def _power_rows(self) -> np.ndarray:
        """The row indices (u, v, w) of each power block, one row per block."""
        start = self.l + sum(self.soc)
        return start + np.arange(3 * len(self.power)).reshape(-1, 3)

    def project_dual(self, z: np.ndarray) -> np.ndarray:
        """z moved into the dual cone: negative orthant entries are zeroed, a
        second-order head is raised to the norm of its tail when it falls
        short, and a power block's (u, v), clipped at 0, is scaled up until
        |w| <= (u/a)^a (v/(1 - a))^(1 - a), or raised to (a |w|, (1 - a)
        |w|) where it is 0."""
        z = np.array(z, dtype=float)
        z[:self.l] = np.maximum(z[:self.l], 0.0)
        for blk in self._blocks():
            z[blk.start] = max(z[blk.start], float(np.linalg.norm(z[blk.start + 1:blk.stop])))
        for (i, j, k), a in zip(self._power_rows(), self.power):
            u, v, w = max(z[i], 0.0), max(z[j], 0.0), abs(z[k])
            reach = (u / a) ** a * (v / (1.0 - a)) ** (1.0 - a)
            if w > reach > 0.0:
                u, v = u * w / reach, v * w / reach
            elif w > reach:
                u, v = max(u, a * w), max(v, (1.0 - a) * w)
            z[i], z[j] = u, v
        return z

    def certifies_infeasible(self, y: np.ndarray, z: np.ndarray, box: np.ndarray) -> bool:
        """Whether (y, z) proves that no x with |x_i| <= box_i is feasible:
        h.z + b.y + sum_i |(G'z + A'y)_i| box_i < 0 with z in the dual cone."""
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
    iterate reached, whose (y, z), moved into the dual cone
    (:meth:`ConeProgram.project_dual`), still bounds the optimum by weak
    duality.  ``error``: no iterate at all (the starting KKT system is
    singular).  ``iterations`` is the number of
    steps taken from the starting point, also when an earlier iterate is
    returned (a last direction computed but not taken is not counted).
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


def _power_barrier(s: np.ndarray, a: np.ndarray):
    """Gradient g (k, 3) and inverse Hessian (k, 3, 3) of the power-cone
    barrier -log(u^2a v^(2-2a) - w^2) - (1 - a) log u - a log v (degree 3;
    Chares, 2009) at interior rows s = (u, v, w) with exponents a.

    With phi = u^2a v^(2-2a), t = phi - w^2 and p = grad phi, eliminating w
    leaves the (u, v) Schur complement S = D + (2a(1-a) phi / t) r r' +
    p p' / (2 phi (phi + w^2)), r = (1/u, -1/v), D = diag((1-a)/u^2,
    a/v^2): a sum of positive semidefinite terms, so the inverse is formed
    without the cancellation that inverting the Hessian itself suffers as
    t -> 0, when the Hessian's norm grows like 1/t^2.
    """
    u, v, w = s.T
    root = np.exp(a * np.log(u) + (1.0 - a) * np.log(v))
    phi, w2 = root * root, w * w
    t = (root - np.abs(w)) * (root + np.abs(w))
    pu, pv = 2.0 * a * phi / u, (2.0 - 2.0 * a) * phi / v
    g = np.stack([-pu / t - (1.0 - a) / u, -pv / t - a / v, 2.0 * w / t], axis=1)
    c1, c2 = 2.0 * a * (1.0 - a) * phi / t, 0.5 / (phi * (phi + w2))
    s_uu = ((1.0 - a) + c1) / (u * u) + c2 * pu * pu
    s_vv = (a + c1) / (v * v) + c2 * pv * pv
    s_uv = -c1 / (u * v) + c2 * pu * pv
    det = (a * (1.0 - a) + c1) / (u * u * v * v) + c2 * ((1.0 - a) * pv * pv / (u * u)
                                                        + a * pu * pu / (v * v)) \
        + c1 * c2 * (pv / u + pu / v) ** 2
    hinv = np.empty((s.shape[0], 3, 3))
    hinv[:, 0, 0], hinv[:, 1, 1] = s_vv / det, s_uu / det
    hinv[:, 0, 1] = hinv[:, 1, 0] = -s_uv / det
    lift = w / (phi + w2)  # -(w-column of H) / H_ww = lift p
    hinv[:, :2, 2] = hinv[:, 2, :2] = lift[:, None] * np.einsum("kij,kj->ki", hinv[:, :2, :2],
                                                                np.stack([pu, pv], axis=1))
    hinv[:, 2, 2] = 0.5 * t * t / (phi + w2) + lift * (hinv[:, 0, 2] * pu + hinv[:, 1, 2] * pv)
    H = np.empty((s.shape[0], 3, 3))
    H[:, 0, 0] = (pu * pu / t - (2.0 * a - 1.0) * pu / u) / t + (1.0 - a) / (u * u)
    H[:, 1, 1] = (pv * pv / t - (1.0 - 2.0 * a) * pv / v) / t + a / (v * v)
    H[:, 0, 1] = H[:, 1, 0] = (pu * pv / t - (2.0 - 2.0 * a) * pu / v) / t
    H[:, 0, 2] = H[:, 2, 0] = -2.0 * w * pu / (t * t)
    H[:, 1, 2] = H[:, 2, 1] = -2.0 * w * pv / (t * t)
    H[:, 2, 2] = (2.0 + 4.0 * w2 / t) / t
    return g, hinv, H


def _in_power(s: np.ndarray, a: np.ndarray, dual: bool = False) -> bool:
    """Whether every row (u, v, w) of s is interior to K_a, or to its dual
    cone {|w| < (u/a)^a (v/(1 - a))^(1 - a)}."""
    u, v, w = s.T
    if not (np.all(u > 0.0) and np.all(v > 0.0)):
        return False
    if dual:
        u, v = u / a, v / (1.0 - a)
    return bool(np.all(a * np.log(u) + (1.0 - a) * np.log(v) > np.log(np.abs(w))))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the last axes of a and b, one BLAS dot each, so
    bit-equal to a[i] @ b[i] (np.einsum and np.sum(a * b, -1) round
    differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _jdet(u0: float, tail_sq: float) -> float:
    """u0^2 - |u1|^2 from u0 and |u1|^2, factored to avoid cancellation
    near the boundary."""
    nu = math.sqrt(tail_sq)
    return (u0 - nu) * (u0 + nu)


def _square(x: float) -> float:
    """x ** 2 rounded as numpy's float64 power rounds it (libm pow, which
    differs from x * x in the last bit of about one square in a thousand),
    and inf where it overflows."""
    try:
        return math.pow(x, 2.0)
    except OverflowError:
        return math.inf


class _Cone:
    """Jordan-algebra operations on the symmetric blocks R+^l x Q^n1 x ...
    of a program; its power blocks (rows ``power``, exponents
    ``exponents``) count three to the degree.

    Each run of consecutive second-order blocks of one size n is a (k, n)
    view of a vector.  Every dot product a block formula takes is one
    batched matmul per run, bit-equal to the block's own BLAS dot, and the
    rest of the block arithmetic is on Python floats.
    """

    def __init__(self, prog: ConeProgram):
        self.l = prog.l
        self.m = prog.h.size
        self.runs = []  # (first row, number of blocks, block size) of each run
        self.block_index = []  # per run, the (row, column) index of its blocks in an m x m matrix
        start = prog.l
        for n, run in itertools.groupby(prog.soc):
            k = len(list(run))
            self.runs.append((start, k, n))
            rows = np.arange(start, start + k * n).reshape(k, n)
            self.block_index.append((rows[:, :, None], rows[:, None, :]))
            start += k * n
        self.diag = np.arange(prog.l)
        self.power = prog._power_rows()
        self.exponents = np.array(prog.power)
        self.degree = prog.l + len(prog.soc) + 3 * len(prog.power)
        self.e = np.zeros(self.m)  # the identity: ones, and (1, 0, ..., 0) per block
        self.e[:prog.l] = 1.0
        for E in self.views(self.e):
            E[:, 0] = 1.0

    def views(self, v: np.ndarray) -> list:
        """The (..., k, n) view of v's last axis on each run of k blocks of size n."""
        lead = v.shape[:-1]
        return [v[..., r:r + k * n].reshape(lead + (k, n)) for r, k, n in self.runs]

    def min_eig(self, u: np.ndarray) -> float:
        out = float(np.min(u[:self.l])) if self.l else np.inf
        for U in self.views(u):
            for head, sq in zip(U[:, 0].tolist(), _dots(U[:, 1:], U[:, 1:]).tolist()):
                out = min(out, head - math.sqrt(sq))
        return out

    def prod(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u o v, zero on the power rows."""
        out = np.zeros_like(u)
        out[:self.l] = u[:self.l] * v[:self.l]
        ul, vl = u.tolist(), v.tolist()
        for (r, k, n), U, V in zip(self.runs, self.views(u), self.views(v)):
            row = []
            for j, dot in zip(range(r, r + k * n, n), _dots(U, V).tolist()):
                a0, b0 = ul[j], vl[j]
                row.append(dot)
                row += [a0 * y + b0 * x for x, y in zip(ul[j + 1:j + n], vl[j + 1:j + n])]
            out[r:r + k * n] = row
        return out


class _Scaling:
    """Nesterov-Todd scaling of the symmetric blocks at interior (s, z):
    W z = W^-1 s = lam, with W = sqrt(s / z) on the orthant and W = eta
    [[w0, w1'], [w1, I + w1 w1' / (1 + w0)]] on a second-order block.  W
    is the identity on the power rows, where lam is 1."""

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        l, m = cone.l, cone.m
        self.cone = cone
        self.dz0 = np.sqrt(s[:l] / z[:l])
        self.lam = lam = np.ones(m)
        lam[:l] = np.sqrt(s[:l] * z[:l])
        self.scale_sq = np.zeros((m, m))  # W'W
        self.scale_sq[cone.diag, cone.diag] = self.dz0 ** 2
        # per run: W as a (k, n, n) array, and lam0^2 - |lam1|^2 per block as
        # the scaling computes it (dets) and as factored from lam (jdets)
        self.mats, self.dets, self.jdets = [], [], []
        SZ = np.array((s, z))
        sl, zl = SZ.tolist()
        for (r, k, n), V, (row, col) in zip(cone.runs, cone.views(SZ), cone.block_index):
            starts = range(r, r + k * n, n)
            ab, sbs, zbs = [], [], []
            for j, ss, zz in zip(starts, *_dots(V[..., 1:], V[..., 1:]).tolist()):
                a = math.sqrt(max(_jdet(sl[j], ss), 1e-300))
                b = math.sqrt(max(_jdet(zl[j], zz), 1e-300))
                ab.append((a, b))
                sbs.append([x / a for x in sl[j:j + n]])
                zbs.append([x / b for x in zl[j:j + n]])
            mats, lams = [], []
            for (a, b), sb, zb, dot in zip(ab, sbs, zbs, _dots(*np.array((sbs, zbs))).tolist()):
                gamma = math.sqrt(max((1.0 + dot) / 2.0, 1e-300))
                w0 = (sb[0] + zb[0]) / (2.0 * gamma)
                w1 = [(x - y) / (2.0 * gamma) for x, y in zip(sb[1:], zb[1:])]
                eta, c = math.sqrt(a / b), 1.0 + w0
                mats.append([eta * w0] + [eta * x for x in w1])
                for i, x in enumerate(w1):
                    mats.append([eta * x] + [eta * (float(i == h) + x * y / c)
                                             for h, y in enumerate(w1)])
                root, den = math.sqrt(a * b), sb[0] + zb[0] + 2.0 * gamma
                gs, gz = gamma + sb[0], gamma + zb[0]
                lams.append(root * gamma)
                lams += [root * ((gz * x + gs * y) / den) for x, y in zip(sb[1:], zb[1:])]
            W = np.array(mats).reshape(k, n, n)
            self.scale_sq[row, col] = W @ W
            self.mats.append(W)
            self.dets.append([a * b for a, b in ab])
            lam[r:r + k * n] = lams
            L = lam[r:r + k * n].reshape(k, n)
            self.jdets.append([_jdet(u0, sq) for u0, sq in zip(
                lams[::n], _dots(L[:, 1:], L[:, 1:]).tolist())])
        self.lam_list = lam.tolist()
        self.lam_runs = cone.views(lam)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """W v."""
        out = v.copy()
        out[:self.cone.l] *= self.dz0
        for (r, k, n), W, V in zip(self.cone.runs, self.mats, self.cone.views(v)):
            out[r:r + k * n] = (W @ V[:, :, None]).ravel()
        return out

    def div(self, v: np.ndarray) -> np.ndarray:
        """The x with lam o x = v, zero on the power rows."""
        l, lam = self.cone.l, self.lam_list
        out = np.zeros_like(v)
        out[:l] = v[:l] / self.lam[:l]
        vl = v.tolist()
        for (r, k, n), L, V, dets in zip(self.cone.runs, self.lam_runs, self.cone.views(v),
                                         self.dets):
            row = []
            dots = _dots(L[:, 1:], V[:, 1:]).tolist()
            for j, dot, det in zip(range(r, r + k * n, n), dots, dets):
                a0 = lam[j]
                x0 = (a0 * vl[j] - dot) / det
                row.append(x0)
                row += [(y - x0 * x) / a0 for x, y in zip(lam[j + 1:j + n], vl[j + 1:j + n])]
            out[r:r + k * n] = row
        return out

    def max_step(self, sdir: np.ndarray, zdir: np.ndarray) -> float:
        """The largest alpha with lam + alpha sdir and lam + alpha zdir both
        in the cone."""
        l = self.cone.l
        D = np.array((sdir, zdir))
        alphas = [np.inf, np.inf]
        if l:
            Dl = D[:, :l]
            ratios = np.divide(-self.lam[:l], Dl, out=np.full_like(Dl, np.inf), where=Dl < 0.0)
            alphas = ratios.min(axis=1).tolist()
        rows = D.tolist()
        for (r, k, n), L, jdets, Dr in zip(self.cone.runs, self.lam_runs, self.jdets,
                                           self.cone.views(D)):
            T = Dr[..., 1:]
            for i, vvs, uvs in zip((0, 1), _dots(T, T).tolist(), _dots(L[:, 1:], T).tolist()):
                alpha, dl = alphas[i], rows[i]
                for j, vv, uv, c0 in zip(range(r, r + k * n, n), vvs, uvs, jdets):
                    u0, v0 = self.lam_list[j], dl[j]
                    if v0 < 0.0:  # the head must stay >= 0 (a line through the apex has disc 0)
                        alpha = min(alpha, -u0 / v0)
                    a = _square(v0) - vv
                    b = 2.0 * (u0 * v0 - uv)
                    disc = b * b - 4.0 * a * c0
                    if disc < 0.0:
                        continue  # the head never meets the tail: no crossing
                    qq = -0.5 * (b + math.copysign(math.sqrt(disc), b))
                    roots = [c0 / qq] if qq != 0.0 else []
                    if a != 0.0:
                        roots.append(qq / a)
                    pos = [t for t in roots if t > 0.0]
                    if pos:
                        alpha = min(alpha, min(pos))
                alphas[i] = alpha
        return min(alphas)


_TOL = 1e-13  # relative residuals and gap of an optimal point
_CERT_TOL = 1e-9  # relative residual of an infeasibility or unboundedness certificate
_MAX_ITER = 60


def solve_socp(prog: ConeProgram) -> ConeResult:
    """Dense primal-dual interior point for an LP with second-order and
    power cones.

    The homogeneous self-dual embedding (Domahidi, Chu & Boyd, ECOS, 2013;
    Vandenberghe, CVXOPT cone solvers, 2010) runs Mehrotra predictor-
    corrector steps under Nesterov-Todd scaling on the orthant and
    second-order blocks.  A power block has no such scaling: it is scaled
    by mu times its barrier Hessian at s, and its steps are cut back until
    it stays in a neighbourhood of the central path (Skajaa & Ye, Math.
    Prog. 2015).  Each step factors one KKT matrix [[0, A', G'], [A, 0, 0],
    [G, 0, -W'W]] and solves it three times.
    The orthant and second-order kernel (:class:`_Cone`, :class:`_Scaling`)
    views each run of consecutive equal-size blocks as one (k, n) array and
    takes every dot product of its block formulas as one batched matmul per
    run, which rounds as each block's own BLAS dot, so the iterates are
    bit-identical to a block-by-block loop at a fraction of its numpy calls.
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


_NEIGHBOURHOOD = 0.9  # largest |z/mu + g(s)| in the inverse barrier Hessian norm of a power block
_SIGMAS = np.array([0.1, 0.3, 0.5, 0.7, 1.0])  # centring weights tried on power blocks


def _interior_point(prog: ConeProgram) -> ConeResult:
    lapack = _scipy_extension("scipy.linalg._flapack")
    dgetrf, dgetrs = lapack.dgetrf, lapack.dgetrs

    c, G, h, A, b = prog.c, prog.G, prog.h, prog.A, prog.b
    n, p = c.size, b.size
    cone = _Cone(prog)
    m = cone.m
    pw, expo = cone.power, cone.exponents
    nrm_c = max(1.0, float(np.linalg.norm(c)))
    nrm_bh = max(1.0, float(np.linalg.norm(b)), float(np.linalg.norm(h)))
    K = np.zeros((n + p + m, n + p + m))
    K[:n, n:n + p] = A.T
    K[n:n + p, :n] = A
    K[:n, n + p:] = G.T
    K[n + p:, :n] = G
    reg = 1e-13

    def kkt(scale_sq, gram=None):
        """Solver for the KKT matrix with (3, 3) block -scale_sq: LU of a
        slightly regularized copy, refined against the exact matrix.  With
        ``gram`` = G_p' mu H G_p the power rows are eliminated: it is the
        (1, 1) block, and their rows and columns are decoupled."""
        K[n + p:, n + p:] = -scale_sq
        if gram is not None:
            K[:n, :n] = gram
            K[:n, n + p + pw.ravel()] = 0.0
            K[n + p + pw.ravel(), :n] = 0.0
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

    # Starting point: least-norm primal slack and dual multiplier (W = I),
    # and the point of each power block where s = -g(s).
    solve0 = kkt(np.eye(m))
    sol = solve0(np.concatenate([np.zeros(n), b, h]))
    x, s = sol[:n], -sol[n + p:]
    sol = solve0(np.concatenate([-c, np.zeros(p + m)]))
    y, z = sol[n:n + p], sol[n + p:]
    for v in (s, z):
        shift = -cone.min_eig(v)
        if shift >= -1e-8:
            v += (1.0 + shift) * cone.e
        v[pw] = np.stack([np.sqrt(1.0 + expo), np.sqrt(2.0 - expo), 0.0 * expo], axis=1)
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

    def central(s, z, tau, kappa) -> bool:
        """Whether the power blocks of (s, z) are interior and near the
        central path of the complementarity (s.z + tau kappa) / (degree + 1)."""
        if not (_in_power(s[pw], expo) and _in_power(z[pw], expo, dual=True)):
            return False
        g, hinv, _ = _power_barrier(s[pw], expo)
        psi = z[pw] * ((cone.degree + 1) / (float(s @ z) + tau * kappa)) + g
        prox = np.einsum("ki,kij,kj->k", psi, hinv, psi)
        return bool(np.all(prox <= _NEIGHBOURHOOD ** 2))

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

        # Scaling: W z = W^-1 s = lam on the symmetric blocks.  A power
        # block is scaled by mu H(s) instead (dz + mu H ds = r), eliminated
        # from the KKT system, and W is the identity on its rows.
        nt = _Scaling(cone, s, z)
        scale_sq, W = nt.scale_sq, nt.apply
        gram, grad = None, np.zeros((0, 3))
        if pw.size:
            grad, _, hess = _power_barrier(s[pw], expo)
            mu_hess = mu * hess
            Gp = G[pw]  # (k, 3, n)
            gram = np.einsum("kin,kij,kjm->nm", Gp, mu_hess, Gp)
            scale_sq[pw[:, :, None], pw[:, None, :]] = np.eye(3)

        try:
            solve = kkt(scale_sq, gram)
        except np.linalg.LinAlgError:
            break

        def solve_kkt(r1, r2, r3, e_pow, f_pow):
            """The KKT solution whose power rows read dz = mu H (G dx - e) + f."""
            if pw.size:
                r3 = r3.copy()
                r3[pw] = 0.0
                r1 = r1 + np.einsum("kin,ki->n", Gp,
                                    np.einsum("kij,kj->ki", mu_hess, e_pow) - f_pow)
            sol = solve(np.concatenate([r1, r2, r3]))
            dx, dy, dz = sol[:n], sol[n:n + p], sol[n + p:]
            if pw.size:
                dz[pw] = np.einsum("kij,kj->ki", mu_hess, Gp @ dx - e_pow) + f_pow
            return dx, dy, dz

        x1, y1, z1 = solve_kkt(-c, b, h, h[pw], 0.0 * h[pw])
        denom = float(c @ x1 + b @ y1 + h @ z1) - kappa / tau

        def direction(dx, dy, dz, dt, ds, dk, dpow):
            # dpow: the right-hand side r of dz + mu H(s) ds = r on the power
            # blocks; ds is read from their primal rows G dx + ds - h dtau = -dz
            u = nt.div(-ds)
            x2, y2, z2 = solve_kkt(-dx, -dy, -dz - W(u), -dz[pw], dpow)
            dtau = (-dt + dk / tau - float(c @ x2 + b @ y2 + h @ z2)) / denom
            ddx, ddy, ddz = x2 + dtau * x1, y2 + dtau * y1, z2 + dtau * z1
            wdz = W(ddz)
            sdir = u - wdz
            if pw.size:
                sdir[pw] = dtau * h[pw] - dz[pw] - Gp @ ddx
            return (ddx, ddy, ddz, dtau, (-dk - kappa * dtau) / tau, sdir, wdz)

        def step(d):
            _, _, _, dtau, dkap, sdir, zdir = d
            alpha = nt.max_step(sdir, zdir)
            if dtau < 0.0:
                alpha = min(alpha, -tau / dtau)
            if dkap < 0.0:
                alpha = min(alpha, -kappa / dkap)
            return alpha

        def power_step(d, limit, centred):
            """The largest of limit, 0.8 limit, 0.8^2 limit, ... (to 1e-12)
            whose power blocks are interior (and central, if ``centred``)."""
            if not pw.size:
                return limit
            _, _, ddz, dtau, dkap, sdir, _ = d
            ds = W(sdir)
            t = limit
            while t > 1e-12:
                sn, zn = s + t * ds, z + t * ddz
                if (centred and central(sn, zn, tau + t * dtau, kappa + t * dkap)) or (
                        not centred and _in_power(sn[pw], expo)
                        and _in_power(zn[pw], expo, dual=True)):
                    return t
                t *= 0.8
            return 0.0

        lamsq = cone.prod(nt.lam, nt.lam)
        aff = direction(rx, ry, rz, rt, lamsq, tau * kappa, -z[pw])
        alpha_aff = power_step(aff, min(1.0, step(aff)), False)
        sigma = min(1.0, max(0.0, 1.0 - alpha_aff)) ** 3
        corr = cone.prod(aff[5], aff[6])
        comb = direction((1.0 - sigma) * rx, (1.0 - sigma) * ry, (1.0 - sigma) * rz,
                         (1.0 - sigma) * rt,
                         lamsq - sigma * mu * cone.e + corr,
                         tau * kappa - sigma * mu + aff[3] * aff[4],
                         -z[pw] - sigma * mu * grad)
        alpha = power_step(comb, 0.99 * min(1.0, step(comb)), True)
        if pw.size and alpha < 0.5:
            # The direction is linear in sigma: comb + (t - sigma) (cent - aff)
            # at sigma = t.  Take the sigma whose step, cut back to stay near
            # the central path, shrinks the residuals and mu the most (the
            # longer step on a tie: pure centring shrinks nothing).
            cent = direction(0.0 * rx, 0.0 * ry, 0.0 * rz, 0.0, lamsq - mu * cone.e,
                             tau * kappa - mu, -z[pw] - mu * grad)
            rank = (1.0 - alpha * (1.0 - sigma), -alpha)
            for t in _SIGMAS[_SIGMAS > sigma]:
                trial = tuple(u + (t - sigma) * (v - w) for u, v, w in zip(comb, cent, aff))
                step_t = power_step(trial, 0.99 * min(1.0, step(trial)), True)
                if (1.0 - step_t * (1.0 - t), -step_t) < rank:
                    comb, alpha, rank = trial, step_t, (1.0 - step_t * (1.0 - t), -step_t)
        if not np.isfinite(alpha) or alpha <= 1e-12:
            break
        dx, dy, ddz, dtau, dkap, sdir, _ = comb
        x = x + alpha * dx
        y = y + alpha * dy
        z = z + alpha * ddz
        s = s + alpha * W(sdir)
        tau += alpha * dtau
        kappa += alpha * dkap
    return result("unsolved", it, *best[2:])


# ---------------------------------------------------------------------------
# Discrete transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportInstance:
    """Per-stage coupling data: cost matrix plus matching marginals, each
    carrying some positive mass."""

    cost: np.ndarray
    source: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        cost = np.atleast_2d(np.asarray(self.cost, dtype=float))
        src = np.atleast_1d(np.asarray(self.source, dtype=float))
        tgt = np.atleast_1d(np.asarray(self.target, dtype=float))
        _check_shape(cost, src, tgt)
        if not np.all(np.isfinite(cost)):
            raise ValueError("costs must be finite")
        _check_marginals(src, tgt)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)


def _check_shape(cost: np.ndarray, src: np.ndarray, tgt: np.ndarray) -> None:
    """Raise unless cost has one row per source entry and one column per
    target entry."""
    if cost.shape != (src.size, tgt.size):
        raise ValueError(f"cost shape {cost.shape} does not match marginals "
                         f"({src.size}, {tgt.size})")


def _check_marginals(src: np.ndarray, tgt: np.ndarray) -> None:
    """Raise unless both marginals are non-negative, their sums agree to
    1e-12 (relative) and each carries some positive mass."""
    if np.any(src < 0) or np.any(tgt < 0):
        raise ValueError("marginals must be non-negative")
    if abs(src.sum() - tgt.sum()) > 1e-12 * max(1.0, src.sum()):
        raise ValueError(f"marginal sums differ: {src.sum()!r} vs {tgt.sum()!r}")
    if not (np.any(src > 0) and np.any(tgt > 0)):
        raise ValueError("marginals carry no mass")


@dataclass(frozen=True)
class TransportResult:
    value: float
    plan: np.ndarray


def discrete_ot(inst: TransportInstance) -> TransportResult:
    """Exact minimum-cost coupling of the two marginals.

    The costs are shifted to c - min c >= 0 and solved as log-weights by
    :func:`log_transport`; min c times the total mass is added back.
    """
    low = float(inst.cost.min())
    with np.errstate(divide="ignore"):
        res = log_transport(np.log(inst.cost - low), inst.source, inst.target)
    return TransportResult(math.exp(res.value) + low * float(inst.source.sum()), res.plan)


_PRICE_TOL = 1e-13  # a cycle improves when it lowers the weight by more than this, relatively
_FLOW_TINY = 1e-14  # flows left by a subtraction at or below this share of the mass are zero


def log_transport(log_weights, source, target) -> TransportResult:
    """min over couplings pi of sum_ij pi_ij exp(v_ij), given v = ``log_weights``.

    The value is returned as its log, logsumexp(v + log pi) over the support
    of the optimal plan, so weights spanning any number of orders of
    magnitude keep their order: no pivot rests on a weight exponentiated
    outside its cycle's own scale.  Cells with v = -inf weigh zero.  Rows
    and columns of zero mass drop out.  The marginals are checked as
    :class:`TransportInstance` checks them, with its errors.

    Transportation simplex (Dantzig, 1951) on a spanning-tree basis, from
    the north-west corner.  A nonbasic cell enters when the log-sum-exp of
    its cycle's + cells is below that of its - cells by more than
    ``_PRICE_TOL`` (equal log-weights on both sides cancel first, so a tie
    between large weights cannot hide the smaller ones).  Each cell is
    first priced from the basis's dual potentials, as exp(v_ij - top)
    less its row's and column's potentials, relative to the basis's
    largest weight exp(top); that reduced cost settles the test unless it
    lies within a band that bounds its rounding.  Only a cell in the band,
    or with a non-finite price, walks its cycle: first its largest terms,
    then the log-sum-exp test itself, decide.  So the pivots are those of
    the log-domain test at every cell.  Bland's rule picks the first
    improving cell in row-major order and the first tied cell to leave, so
    the method ends with no improving cycle: the simplex optimality
    condition, checked at every cell.  A basis seen twice would mean a
    loop, and raises.  Flows that a subtraction leaves at or below
    ``_FLOW_TINY`` of the total mass are zero, so rounding noise in the
    marginals never carries a large weight.  The weights' shape must be
    (len(source), len(target)), with :class:`TransportInstance`'s error.
    """
    v = np.atleast_2d(np.asarray(log_weights, dtype=float))
    src = np.atleast_1d(np.asarray(source, dtype=float))
    tgt = np.atleast_1d(np.asarray(target, dtype=float))
    _check_shape(v, src, tgt)
    if np.isnan(v).any() or np.isposinf(v).any():
        raise ValueError("log-weights must be below +inf")
    _check_marginals(src, tgt)
    return _log_transport(v.tolist(), src.tolist(), tgt.tolist())


def _log_transport(v: list, source: list, target: list) -> TransportResult:
    """:func:`log_transport` on checked lists: ``v`` holds no NaN or +inf,
    and the marginals pass :func:`_check_marginals`.

    Rows and columns of zero mass are cut out of ``v`` only when there are
    any; the plan is written cell by cell, so no index arrays are built.
    """
    m, n = len(source), len(target)
    plan = np.zeros((m, n))
    rows = [i for i in range(m) if source[i] > 0]
    cols = [j for j in range(n) if target[j] > 0]
    if len(rows) < m or len(cols) < n:
        v = [[v[i][j] for j in cols] for i in rows]
    flow = _log_simplex(v, [source[i] for i in rows], [target[j] for j in cols])
    keep = sorted(c for c, x in flow.items() if x > 0.0)  # row-major, as a boolean mask reads
    for i, j in keep:
        plan[rows[i], cols[j]] = flow[i, j]
    w = [v[i][j] for i, j in keep]
    top = max(w)
    if top == -math.inf:
        return TransportResult(-math.inf, plan)
    x = np.array([flow[c] for c in keep])
    return TransportResult(top + math.log(float(x @ np.exp(np.array(w) - top))), plan)


def _log_simplex(v: list, supply: list, demand: list) -> dict:
    """Optimal basic flow {(i, j): x} of the log-weight transport problem.

    Tree nodes are rows 0..m-1 and columns m..m+n-1; basic cells are its
    edges.  Each basis is priced by its dual potentials
    (:func:`_basis_tree`), in units of exp(top) for the basis's largest
    log-weight top: a nonbasic cell's reduced cost r = exp(v_ij - top) -
    pot_i - pot_(m+j) is the sum of its cycle's + weights (its own
    included) less its - weights, as the potentials telescope along the
    cycle.  A cell with r > band does not improve and one with r < -band
    does, as the log-domain test would decide.  Any other cell, a
    non-finite r included (exp overflowing above top + 709, or top =
    -inf), walks its cycle and goes to that test,
    :func:`_cycle_improves`.  So every pivot is the log-domain test's.
    """
    m, n = len(supply), len(demand)
    tiny = _FLOW_TINY * sum(supply)
    # band = slack (mass + w_ij) covers the rounding of r and the test's
    # own slack.  With u = 2^-53, mass >= 1 the basis's summed weight (its
    # top cell weighs 1) and w_ij = exp(v_ij - top):
    # - each exp errs by 2u relative, plus u |v - top| w from its rounded
    #   argument: at most u/e where v <= top, and 710u w_ij where the
    #   cell's own v_ij > top (exp overflows past top + 709.8); an
    #   underflowed weight errs by 2^-1074;
    # - a potential is an alternating sum of at most m + n - 1 basic
    #   weights whose partial sums stay within mass, so r errs by at most
    #   (2.8(m + n) + 9)u mass + 716u w_ij;
    # - the test's two sums, of at most m + n terms, err by at most
    #   (1.4(m + n) + 2)u (mass + w_ij) together, and the exact S+ - shrink
    #   S- lies in [r, r + 1e-13 mass] (equal terms cancel from both sides
    #   without changing S+ - S-).
    # The three together stay below (1e-12 + 8(m + n)u)(mass + w_ij), as
    # 1e-12 > 9000u.
    slack = 1e-12 + 8 * (m + n) * 2.0 ** -53
    flow = {}
    i = j = 0
    left_i, left_j = supply[0], demand[0]
    while True:  # north-west corner: m + n - 1 cells, zero flows kept as basic
        x = min(left_i, left_j)
        flow[i, j] = x
        left_i = 0.0 if left_i - x <= tiny else left_i - x
        left_j = 0.0 if left_j - x <= tiny else left_j - x
        if i == m - 1 and j == n - 1:
            break
        if i < m - 1 and (left_i <= left_j or j == n - 1):
            i += 1
            left_i = supply[i]
        else:
            j += 1
            left_j = demand[j]
    shrink = math.exp(-_PRICE_TOL)
    seen = set()
    while True:
        basis = frozenset(flow)
        if basis in seen:
            raise RuntimeError("transportation simplex revisited a basis")
        seen.add(basis)
        parent, depth, pot, top, mass = _basis_tree(flow, v, m, n)
        enter = None
        for i in range(m):
            vi, pot_i = v[i], pot[i]
            for j in range(n):
                if (i, j) in flow:
                    continue
                try:
                    w = math.exp(vi[j] - top)
                except OverflowError:
                    w = math.inf  # r and band are inf: the test decides
                r = w - pot_i - pot[m + j]
                band = slack * (mass + w)
                if r > band:
                    continue
                plus, minus = _cycle(parent, depth, m, i, j)
                if r < -band or _cycle_improves([vi[j]] + [v[a][b] for a, b in plus],
                                                [v[a][b] for a, b in minus], shrink):
                    enter = (i, j)
                    break
            if enter is not None:
                break
        if enter is None:
            return flow
        theta = min(flow[c] for c in minus)
        for c in plus:
            flow[c] += theta
        for c in minus:
            flow[c] = 0.0 if flow[c] - theta <= tiny else flow[c] - theta
        del flow[min(c for c in minus if flow[c] == 0.0)]
        flow[enter] = theta


def _basis_tree(flow: dict, v: list, m: int, n: int) -> tuple:
    """Parent, depth and dual potential of every node of the basis tree,
    rooted at row 0, with the basis's largest log-weight top and its mass.

    A basic cell weighs w = exp(v - top), and mass is the sum of the
    weights.  The root's potential is 0 and a child's is its edge's weight
    less its parent's, so pot_i + pot_(m+j) = w_ij on every basic cell.
    With top = -inf every weight, and so every potential, is NaN.
    """
    top = max([v[i][j] for i, j in flow])
    adj = [[] for _ in range(m + n)]
    mass = 0.0
    for i, j in flow:
        w = math.exp(v[i][j] - top)
        mass += w
        adj[i].append((m + j, w))
        adj[m + j].append((i, w))
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)
    order = [0]
    for a in order:
        for b, w in adj[a]:
            if b != parent[a]:
                parent[b] = a
                depth[b] = depth[a] + 1
                pot[b] = w - pot[a]
                order.append(b)
    return parent, depth, pot, top, mass


def _cycle(parent: list, depth: list, m: int, i: int, j: int) -> tuple[list, list]:
    """Basic cells of the cycle that cell (i, j) closes, as (+ cells, - cells).

    Walking the tree path from row i to column j, a cell crossed from its
    row to its column is a - cell and one crossed from its column to its
    row a + cell.
    """
    plus, minus = [], []
    a, b = i, m + j
    while a != b:
        if depth[a] >= depth[b]:  # climb from the row side: a is the child
            p = parent[a]
            if a < m:
                minus.append((a, p - m))
            else:
                plus.append((p, a - m))
            a = p
        else:  # climb from the column side: b is the child
            p = parent[b]
            if b >= m:
                minus.append((p, b - m))
            else:
                plus.append((b, p - m))
            b = p
    return plus, minus


def _cycle_improves(plus: list, minus: list, shrink: float) -> bool:
    """:func:`_improves`, first settled by the largest terms where one side's
    beats the other's sum: a largest + term above the largest - term by
    log(number of - terms) + 1e-9 makes S+ > S- by a relative 1e-9, so no
    improvement, and the mirror case an improvement by more than the 1e-13
    the test asks for.  Both margins dwarf the test's own rounding, and
    the verdict is the test's; a NaN gap (both sides -inf) decides
    nothing."""
    gap = max(plus) - max(minus)
    if gap > math.log(len(minus)) + 1e-9:
        return False
    if -gap > math.log(len(plus)) + 1e-9:
        return True
    return _improves(plus, minus, shrink)


def _improves(plus: list, minus: list, shrink: float) -> bool:
    """Whether sum exp(plus) < shrink * sum exp(minus), equal terms cancelled."""
    for x in plus[:]:
        if x in minus:
            minus.remove(x)
            plus.remove(x)
    if not minus:
        return False
    top = max(plus + minus)
    if top == -math.inf:
        return False
    return (sum([math.exp(x - top) for x in plus])
            < shrink * sum([math.exp(x - top) for x in minus]))


def transport_feasible_below(inst: TransportInstance, lam: float) -> bool:
    """Whether a coupling exists supported on cells of cost <= lam.

    Feasibility is monotone in lam, so this is exactly whether the
    bottleneck value is at most lam.
    """
    return bottleneck_transport(inst).value <= lam


def bottleneck_transport(inst: TransportInstance) -> TransportResult:
    """min over couplings of the maximum cost charged with positive mass.

    Exact threshold algorithm (Garfinkel & Rao, 1971).  lam starts at the
    lower bound max(max_i min_j c_ij, max_j min_i c_ij) over rows and
    columns of positive mass, and one flow on the cells of cost <= lam is
    kept throughout.  The flow grows along shortest residual paths.  When
    none is left, the rows reachable from unmoved supply form a set S that
    violates Hall's condition at lam; every augmenting path must leave S
    through a cell not yet allowed, so lam rises straight to the cheapest
    cell from S to a column S does not reach.  The value is therefore always
    one of the costs, and the plan moves all but 1e-9 of the mass on cells
    of cost <= value.
    """
    return _bottleneck(inst.cost.tolist(), inst.source.tolist(), inst.target.tolist(),
                       float(inst.source.sum()))


def _bottleneck(cost: list, source: list, target: list, total: float) -> TransportResult:
    """:func:`bottleneck_transport` on lists that pass
    :func:`_check_marginals`; ``total`` is the ``np.sum`` of ``source``.

    Rows and columns of zero mass are cut out of the lists only when there
    are any.  The starting lam is taken with Python's min and max, which
    pick the value numpy's reductions pick (a zero's sign aside, when the
    costs hold both 0.0 and -0.0); the plan is written cell by cell, so no
    index arrays are built.
    """
    m, n = len(source), len(target)
    plan = np.zeros((m, n))
    rows = [i for i in range(m) if source[i] > 0]
    cols = [j for j in range(n) if target[j] > 0]
    if len(rows) < m or len(cols) < n:
        cost = [[cost[i][j] for j in cols] for i in rows]
    lam = max(max(map(min, cost)), max(map(min, zip(*cost))))
    lam, flow = _threshold_flow(cost, [source[i] for i in rows], [target[j] for j in cols],
                                lam, total)
    for i, row in zip(rows, flow):
        for j, x in zip(cols, row):
            if x:
                plan[i, j] = x
    return TransportResult(lam, plan / plan.sum() * total)


def _threshold_flow(cost: list, supply: list, demand: list, lam: float,
                    total: float) -> tuple[float, list]:
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
            if sum(supply) <= 1e-9:
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
