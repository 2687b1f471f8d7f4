"""Shared optimization programs over an event tree.

Two families recur across arbitrage detection and pricing:

* strategy programs — variables are one d-vector per internal node, leaf
  constraints mix the linear gain with the concave -eps |H|_p cost;
* measure programs — variables are leaf weights, every internal node
  imposes the cone constraint |sum_w q(w) dS(w)|_q <= eps qbar(v).

The strategy side is two programs over a :class:`TreeOps`: the p = 1 sum
LP, whose sign decides strict arbitrage on polyhedral geometry, and the
maximin program, which certifies it.  Strict arbitrage localizes to one
trading period, so a node's decision reads the node's geometry.

There are two routes.  Polyhedral geometry (p = 1, q = inf, d = 1, and the
measure side at eps = 0) is HiGHS LPs.  Everything else is one cone
program per question: an r-norm cone is one second-order block at r = 2
and d three-dimensional power blocks otherwise (``_cone_program``).  The
node geometry is exact once per model and q (:func:`node_geometry`):
gamma(v) is the least q-norm of the children's convex hull, Wolfe's
min-norm point at q = 2 and one cone program with a recomputed bracket at
other q, and a tangent node's cone is the linear rows of that point's face.
Every cone program is checked exactly (``_cone_margins``,
``_leaf_gain_cost``, q >= eta P, and a recomputed dual bound or hedge;
measure programs solve twice at most, ``_measure_solves``); a result that
fails is counted in ``CONIC_FALLBACKS`` and has no answer: indeterminate,
or no certificate.  Public wrappers live in :mod:`epsarb.arbitrage` and
:mod:`epsarb.pricing`.

A model keeps what is derived from it, through one helper (``_kept``):
its coefficient tensors (:func:`tree_ops`), its node geometry per q
(:func:`node_geometry`), and the results of the last 8 calls of the
interior, price and strict-arbitrage sum programs (``_kept_results``).
A model is frozen with read-only arrays, and HiGHS and the cone kernel are
deterministic, so a repeated call at the same level, keyed by the exact
bits of its arguments, returns the kept result, bit for bit: detection,
find-emm, the price bounds, the super-hedge and the fair range at one
(P, eps) read the same eps-martingale set and solve each program once.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Optional

import numpy as np

from .market import MarketModel, NormPair, Strategy, _as_readonly, qnorm, qnorm_grad
from .solvers import (ConeProgram, LinearProgram, face_support, min_norm_point, solve_lp,
                      solve_socp)

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


def _kept(model: MarketModel, name: str, build, *args):
    """What ``model`` keeps under ``name``, ``build(*args)`` on first use.

    The one writer of a model's ``__dict__`` after construction.  A model
    is frozen with read-only arrays, so what is derived from it alone, or
    from it and the exact bits of other arguments, holds for its life and
    is freed with it.
    """
    kept = model.__dict__.get(name)
    if kept is None:
        kept = model.__dict__.setdefault(name, build(*args))
    return kept


def _build_tree_ops(model: MarketModel) -> TreeOps:
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
    return TreeOps(model, internal, coeff, mask)


def tree_ops(model: MarketModel) -> TreeOps:
    """The model's coefficient tensors, built once and kept on the model:
    every program over the tree reads them, and they depend on the model
    alone."""
    return _kept(model, "_tree_ops", _build_tree_ops, model)


_KEPT_RESULTS = 8  # program results a model keeps; the oldest goes first


def _bits(x):
    """A program argument as a hashable key of its exact bits: a float by
    ``float.hex`` (0.0 and -0.0 apart, though they compare equal), an array
    by dtype, shape and bytes, a NormPair by its p, each with its type.
    TypeError for any other kind, which is not kept."""
    if x is None:
        return None
    if isinstance(x, float):
        return type(x), float.hex(x)
    if isinstance(x, (int, str)):
        return type(x), x
    if isinstance(x, np.ndarray) and x.dtype.kind in "biuf":
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, NormPair):
        return NormPair, float.hex(x.p)
    raise TypeError(f"no exact key for {type(x).__name__}")


def _frozen(result):
    """``result`` with each array read-only (a copy, unless it is a
    read-only array that owns its data) and each dict a new dict of frozen
    values, so no caller can change what another call returns.  Dicts are
    copied, not wrapped in a read-only view, so results and models still
    pickle."""
    if isinstance(result, np.ndarray):
        return result if result.base is None and not result.flags.writeable else _as_readonly(result)
    if isinstance(result, tuple):
        return tuple(_frozen(x) for x in result)
    if isinstance(result, dict):
        return {k: _frozen(x) for k, x in result.items()}
    return result


def _kept_results(program):
    """Keep ``program``'s results on the model it reads (its first
    argument, or that of its ``tree_ops``; a node's one-period ops are not
    kept), keyed by the program and the exact bits of the other arguments
    (``_bits``): a repeated call returns the kept result.  Every call,
    the first too, gets it through ``_frozen``: its arrays read-only and
    shared, its dicts its own.  A model keeps the last _KEPT_RESULTS
    results of all its programs.  Counters such as ``CONIC_FALLBACKS``
    count solves, so a kept result adds nothing.  Each step on the store
    is one dict operation, so threads sharing a model at worst solve a
    program twice."""
    @wraps(program)
    def kept(source, *args, **kwargs):
        model = source if isinstance(source, MarketModel) else source.model
        try:
            key = (program.__name__, tuple(map(_bits, args)),
                   tuple((name, _bits(x)) for name, x in sorted(kwargs.items())))
        except TypeError:
            key = None
        if key is None or model is None or (source is not model and tree_ops(model) is not source):
            return program(source, *args, **kwargs)
        results = _kept(model, "_programs", dict)
        result = results.get(key)
        if result is None:
            result = results[key] = _frozen(program(source, *args, **kwargs))
            for old in list(results)[:-_KEPT_RESULTS]:
                results.pop(old, None)
        return _frozen(result)
    return kept


def strategy_from_packed(ops: TreeOps, x: np.ndarray) -> Strategy:
    model = ops.model
    vals = np.zeros((model.n_nodes, model.d))
    d = model.d
    for j, v in enumerate(ops.internal):
        vals[v] = x[j * d:(j + 1) * d]
    return Strategy(vals)


# ---------------------------------------------------------------------------
# Conic route: every geometry that is not polyhedral
# ---------------------------------------------------------------------------

CONIC_FALLBACKS: Counter = Counter()
"""Per program, the calls left indeterminate or without a certificate by a failed check."""
SECOND_SOLVES: Counter = Counter()
"""Per measure program, the calls that went on to the untightened second solve."""

# Measure programs solve first at eps (1 - _TIGHTEN): interior-point points
# carry residuals of 1e-13 to 1e-10 (worst near the critical level, where
# the cone set is thin), and the tightened cones leave them room to pass the
# exact check at eps itself; a second solve at eps charges no tightening.
_TIGHTEN = 1e-10

_NODE_BAND = 1e-8  # per (1 + max |dS|): the strategy side's boundary band around gamma(v) = eps
_MAXIMIN_TOL = 1e-9  # the cone maximin's certified bound: no margin at or below it, gap within 10x
_FLOOR = 1e-12  # per (1 + max |dS|): the rounding floor of an exact node check
_ATTAINED = 1e-7  # a price bound is attained when its face has a point of min leaf weight above this


def _polyhedral(model: MarketModel, norms: NormPair, eps: Optional[float] = None) -> bool:
    """Whether the q-cones (and the p-costs) are exactly LP-representable:
    q = inf (that is, p = 1), scalar assets, or the level eps = 0 when one
    is given."""
    return norms.q == math.inf or model.d == 1 or eps == 0.0


def _second_order(r: float) -> bool:
    """Whether an r-norm cone is written as one second-order block, as at
    r = 2; every other r in (1, inf) takes power blocks, and its node
    geometry a cone program in place of Wolfe's method."""
    return r == 2.0


def _fallback(program: str, why: str) -> None:
    CONIC_FALLBACKS[program] += 1
    _log.debug("%s: conic result rejected (%s); no certified answer", program, why)


def _cone_program(c, lin, h_lin, cones, h_cones, r: float, A=None, b=None) -> ConeProgram:
    """min c.x s.t. lin x <= h_lin, A x = b and, for each cone j, the block
    (head, tail) = h_cones[j] - cones[j] x (``cones`` (k, d + 1, n)) with
    |tail|_r <= head.

    At r = 2 each cone is one second-order block.  Otherwise it is d power
    blocks (rho_i, head, tail_i) in K_{1/r}, over auxiliary variables rho
    appended after x with sum_i rho_i = head (appended after A's rows):
    |tail_i|^r <= rho_i head^(r - 1) summed over i is |tail|_r <= head
    (Chares, 2009).
    """
    n = c.size
    k, d1, _ = cones.shape
    if _second_order(r):
        return ConeProgram(c, np.vstack([lin, cones.reshape(-1, n)]),
                           np.concatenate([h_lin, h_cones.ravel()]), lin.shape[0],
                           (d1,) * k, A, b)
    d = d1 - 1
    na = k * d
    rows = np.zeros((k, d, 3, n + na))
    rows[:, :, 0, n:] = -np.eye(na).reshape(k, d, na)
    rows[:, :, 1, :n] = cones[:, None, 0, :]
    rows[:, :, 2, :n] = cones[:, 1:, :]
    h_rows = np.zeros((k, d, 3))
    h_rows[:, :, 1] = h_cones[:, None, 0]
    h_rows[:, :, 2] = h_cones[:, 1:]
    A = np.zeros((0, n)) if A is None else A
    b = np.zeros(0) if b is None else b
    sums = np.hstack([cones[:, 0, :], np.kron(np.eye(k), np.ones(d))])
    return ConeProgram(np.concatenate([c, np.zeros(na)]),
                       np.vstack([np.hstack([lin, np.zeros((lin.shape[0], na))]),
                                  rows.reshape(-1, n + na)]),
                       np.concatenate([h_lin, h_rows.ravel()]), lin.shape[0], (),
                       np.vstack([np.hstack([A, np.zeros((A.shape[0], na))]), sums]),
                       np.concatenate([b, h_cones[:, 0]]), (1.0 / r,) * na)


def _cone_tails(prog: ConeProgram, z: np.ndarray, d: int) -> np.ndarray:
    """The tails of the cones of ``_cone_program`` in a point z of its rows,
    one row of d per cone."""
    if prog.power:
        return z[prog.l:].reshape(-1, d, 3)[:, :, 2]
    return z[prog.l:].reshape(-1, d + 1)[:, 1:]


def _padded(box: np.ndarray, prog: ConeProgram, bound: float) -> np.ndarray:
    """A box on the variables of ``prog``: ``box`` on its own, ``bound`` on
    the auxiliary variables of its power blocks (each at most its cone's
    head)."""
    return np.concatenate([box, np.full(prog.c.size - box.size, bound)])


def _simplex_min_norm(A: np.ndarray, q: float):
    """min over simplex weights a of |A'a|_q as one cone program: returns
    the checked weights (the solver's, clipped at 0 and renormalized, or
    uniform without a point) and the dual strategy h, scaled to unit p-norm
    (zero without a dual point), with min_w h.dS(w) <= gamma."""
    k, d = A.shape
    cones = np.zeros((1, d + 1, k + 1))
    cones[0, 0, k] = -1.0
    cones[0, 1:, :k] = -A.T
    prog = _cone_program(np.eye(k + 1)[k], np.hstack([-np.eye(k), np.zeros((k, 1))]),
                         np.zeros(k), cones, np.zeros((1, d + 1)), q,
                         np.concatenate([np.ones(k), [0.0]])[None, :], np.ones(1))
    res = solve_socp(prog)
    lam = np.full(k, 1.0 / k)
    if res.x is not None and np.max(res.x[:k]) > 0.0:
        lam = np.maximum(res.x[:k], 0.0)
        lam /= lam.sum()
    h = np.zeros(d)
    if res.z is not None:
        h = -_cone_tails(prog, res.z, d)[0]
        size = qnorm(h, q / (q - 1.0))
        h = h / size if size > 0.0 else np.zeros(d)
    return lam, h


class NodeGeometry:
    """One internal node's geometry in the q-norm: its children's increments
    A, the point z of their convex hull of least q-norm with simplex weights
    lam, a certified bracket low <= gamma(v) <= gamma = |z|_q, a strategy h
    of unit p-norm with min_w h.dS(w) = low, whether z is exact, and, on
    first use, which children carry weight on the face of z (``on``).

    At q = 2, z is Wolfe's min-norm point, low = gamma and h = z / gamma.
    At other q a child whose increment passes the same optimality check,
    min_w u.dS(w) >= |z|_q to 1e-12 (1 + max |dS|)^2 at its dual vector u
    (Sion's minimax theorem: gamma(v) = max over |h|_p <= 1 of min_w
    h.dS(w)), is z itself, with h = u.  Otherwise one cone program
    (``_simplex_min_norm``) gives gamma = |A'lam|_q at its checked weights
    and low, its dual strategy's worst gain, and z is inexact.
    """

    def __init__(self, A: np.ndarray, q: float):
        self.A = A
        self.exact = True
        if _second_order(q):
            self.z, self.lam = min_norm_point(A)
            self.gamma = self.low = float(np.linalg.norm(self.z))
            self.h = self.z / self.gamma if self.gamma > 0.0 else np.zeros(A.shape[1])
            return
        sizes = qnorm(A, q)
        duals = qnorm_grad(A, q, sizes)
        worst = np.min(duals @ A.T, axis=1)
        w = int(np.argmax(worst - sizes))
        if worst[w] >= sizes[w] - 1e-12 * (1.0 + float(np.max(np.abs(A)))) ** 2:
            self.lam, self.h = np.eye(len(A))[w], duals[w]
        else:
            self.lam, self.h = _simplex_min_norm(A, q)
            self.exact = False
        self.z = A.T @ self.lam
        self.gamma = qnorm(self.z, q)
        self.low = min(max(float(np.min(A @ self.h)), 0.0), self.gamma)

    @cached_property
    def on(self) -> np.ndarray:
        return face_support(self.A, self.z)


def node_geometry(model: MarketModel, q: float) -> dict:
    """Per internal node, its :class:`NodeGeometry` in the q-norm; built
    once per q and kept on the model (as ``tree_ops``): it depends on the
    model and q alone, and every level's node decisions, tangent faces and
    repairs read it."""
    by_q = _kept(model, "_node_geometry", dict)
    if q not in by_q:
        by_q[q] = {v: NodeGeometry(model.delta[list(model.children[v])], q)
                   for v in model.internal}
    return by_q[q]


def _tangent_faces(ops: TreeOps, eps: float, q: float):
    """The tangent nodes at level eps, {j: (z, off)}: the min-norm point of
    internal node j, whose face z_v(q) = qbar_v(q) z is the cone set there
    (facial reduction: Borwein & Wolkowicz, 1981), and the leaves off it.
    Tangent means eps <= gamma(v) <= eps + floor, gamma = eps to rounding;
    None when some node's certified low is above eps + floor, which empties
    the set.  One-sided: a node with gamma < eps keeps its cone, whose set
    is larger.  Only an exact least-norm point (Wolfe's, or a checked
    vertex) has a face: a cone program's point is known to the solver's
    precision, which a flat norm makes far coarser than gamma's
    (|(1, t)|_6 - 1 = t^6 / 6, so t = 0.025 costs 4e-11), so such a tangent
    node keeps its cone and the exact check decides."""
    model = ops.model
    geometry = node_geometry(model, q)
    faces = {}
    for j, v in enumerate(ops.internal):
        node = geometry[v]
        if node.low > eps + _FLOOR * (1.0 + float(np.max(np.abs(node.A)))):
            return None
        if node.gamma >= eps and node.exact:
            off = [k for w, on in zip(model.children[v], node.on) if not on
                   for k in model.leaves_under[w]]
            faces[j] = (node.z, np.isin(np.arange(model.n_leaves), off))
    return faces


def _measure_cones(ops: TreeOps, eps: float, faces: dict) -> np.ndarray:
    """Rows G (columns: the leaf weights q) of the cones
    s_v = (eps qbar_v(q), z_v(q)) = -G q of the non-tangent nodes, one
    (d + 1, L) block per node."""
    keep = [j for j in range(len(ops.internal)) if j not in faces]
    return -np.concatenate([eps * ops.mask.T[keep, None, :],
                            ops.coeff[:, keep].transpose(1, 2, 0)], axis=1)


def _measure_solves(program: str, ops: TreeOps, eps: float, norms: NormPair, faces: dict,
                    c: np.ndarray, lin: np.ndarray, n_extra: int, fixed=None):
    """min c.(q, extra) s.t. lin (q, extra) <= 0, sum q = 1, the node cones,
    the tangent faces' rows (z_v(q) = qbar_v(q) z, no weight off the face)
    and f.q = value when ``fixed`` = (f, value): the measure programs' one
    two-solve loop.  It solves at eps (1 - _TIGHTEN), then at eps, yielding
    the solver's result and the exact program (at eps); the second solve is
    counted in ``SECOND_SOLVES`` under ``program``."""
    L = ops.model.n_leaves
    a_eq = np.vstack([np.ones((1, L))] + [
        np.vstack([ops.coeff[:, j, :].T - np.outer(z, ops.mask[:, j]), np.eye(L)[off]])
        for j, (z, off) in faces.items()])
    b_eq = np.zeros(len(a_eq))
    b_eq[0] = 1.0
    if fixed is not None:
        a_eq, b_eq = np.vstack([a_eq, fixed[0]]), np.append(b_eq, fixed[1])
    a_eq = np.hstack([a_eq, np.zeros((len(a_eq), n_extra))])

    def posed(level):
        cones = _measure_cones(ops, level, faces)
        cones = np.concatenate([cones, np.zeros(cones.shape[:2] + (n_extra,))], axis=2)
        return _cone_program(c, lin, np.zeros(lin.shape[0]), cones, np.zeros(cones.shape[:2]),
                             norms.q, a_eq, b_eq)

    exact = posed(eps)
    yield solve_socp(posed(eps * (1.0 - _TIGHTEN))), exact
    SECOND_SOLVES[program] += 1
    yield solve_socp(posed(eps)), exact


def _gap_closed(value: float, bound: float, tol: float) -> bool:
    """A verified value within ``tol`` (relative) of its certified bound."""
    return abs(bound - value) <= tol * (1.0 + abs(value))


def _min_norm_solution(A: np.ndarray, rhs: np.ndarray, norms: NormPair):
    """min |h|_p subject to A h = rhs; returns (h, |h|_p) or (None, None) if infeasible.

    The least-squares solution h0 decides feasibility, and is the answer at
    p = 2 or when A has full column rank.  p = 1 is one LP; other p solve
    one cone program over h0 + N y, N a basis of A's null space, so the
    point it returns (h0 when that is no longer) meets A h = rhs as h0
    does.
    """
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
    _, sv, vh = np.linalg.svd(A)
    N = vh[int(np.sum(sv > np.max(sv, initial=0.0) * np.finfo(float).eps * max(A.shape))):].T
    if N.shape[1] == 0:
        return h2, qnorm(h2, norms.p)
    # variables (y, t): min t s.t. |h0 + N y|_p <= t
    r = N.shape[1]
    cones = np.zeros((1, d + 1, r + 1))
    cones[0, 0, r] = -1.0
    cones[0, 1:, :r] = -N
    res = solve_socp(_cone_program(np.eye(r + 1)[r], np.zeros((0, r + 1)), np.zeros(0), cones,
                                   np.concatenate([[0.0], h2])[None, :], norms.p))
    h = h2 if res.x is None else h2 + N @ res.x[:r]
    if qnorm(h, norms.p) > qnorm(h2, norms.p):
        h = h2
    return h, qnorm(h, norms.p)


# ---------------------------------------------------------------------------
# Strategy-side programs
# ---------------------------------------------------------------------------

def _leaf_gain_cost(ops: TreeOps, norms: NormPair, x: np.ndarray, eps: float) -> np.ndarray:
    """Per-leaf slacks gain - eps * path cost at packed holdings x."""
    _, n_int, d = ops.coeff.shape
    H = x.reshape(n_int, d)
    node_norm = np.array([qnorm(H[j], norms.p) for j in range(n_int)])
    return np.einsum("kjd,jd->k", ops.coeff, H) - eps * (ops.mask @ node_norm)


def _l1_slack_rows(ops: TreeOps, eps: float):
    """Leaf slacks at p = 1 as linear maps of (H+, H-): s_plus H+ + s_minus H-."""
    L, n_int, d = ops.coeff.shape
    a = ops.coeff.reshape(L, n_int * d)
    b = np.repeat(ops.mask, d, axis=1)
    return a - eps * b, -a - eps * b


def _strategy_conic(ops: TreeOps, eps: float, norms: NormPair):
    """The maximin strict-arbitrage program as one cone program.

    Variables (H, t, delta) with |H_v|_p <= t_v, sum_v t_v <= 1 and every
    leaf slack, linear in (H, t), at least delta.  The holdings, scaled to
    unit total norm, are checked on the exact slacks of ``_leaf_gain_cost``:
    their minimum must reach the certified bound.  Returns (value, H,
    slacks, bound - value), or None when the check fails.
    """
    L, n_int, d = ops.coeff.shape
    N = n_int * d
    S = np.hstack([ops.coeff.reshape(L, N), -eps * ops.mask])  # leaf slacks over (H, t)
    n = N + n_int + 1
    cones = np.zeros((n_int, d + 1, n))
    for j in range(n_int):
        cones[j, 0, N + j] = -1.0
        cones[j, 1:, j * d:(j + 1) * d] = -np.eye(d)
    budget = np.concatenate([np.zeros(N), np.ones(n_int)])[None, :]
    c = np.zeros(n)
    c[-1] = -1.0
    lin = np.vstack([np.hstack([-S, np.ones((L, 1))]), np.hstack([budget, [[0.0]]])])
    prog = _cone_program(c, lin, np.concatenate([np.zeros(L), [1.0]]), cones,
                         np.zeros((n_int, d + 1)), norms.p)
    reach = float(np.max(np.linalg.norm(ops.coeff, axis=2).sum(axis=1))) + eps * n_int
    box = _padded(np.concatenate([np.ones(N + n_int), [reach]]), prog, 1.0)
    res = solve_socp(prog)
    if res.status not in ("optimal", "unsolved"):
        return None
    bound = -prog.lower_bound(res.y, res.z, box)
    if bound <= _MAXIMIN_TOL:
        # No positive uniform slack: the zero strategy is optimal.
        return 0.0, np.zeros(N), np.zeros(L), max(bound, 0.0)
    h = res.x[:N]
    total = float(np.linalg.norm(h.reshape(n_int, d), ord=norms.p, axis=1).sum())
    if total > 0.0:
        h = h / total
    slack = _leaf_gain_cost(ops, norms, h, eps)
    value = float(np.min(slack))
    closed = _gap_closed(value, bound, 10 * _MAXIMIN_TOL)
    return (value, h, slack, bound - value) if closed else None


@_kept_results
def strict_arbitrage_sum_program(ops: TreeOps, eps: float):
    """max sum of leaf slacks s.t. every slack >= 0, sum_v |H(v)|_1 <= 1.

    One exact LP in (H+, H-).  A positive optimum is the strict-arbitrage
    criterion at level eps for polyhedral geometry: p = 1, or d = 1, where
    every p-norm is |h|.  Returns (optimum, packed H or None, per-leaf
    slacks), kept on the model of a tree's ops (``_kept_results``).
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


def strict_arbitrage_maximin_program(ops: TreeOps, eps: float, norms: NormPair):
    """max delta s.t. every leaf slack >= delta, sum_v |H(v)|_p <= 1.

    The maximin certificate: its margin per unit of strategy norm is the
    uniform slack rate.  One LP at p = 1 or d = 1, one checked cone program
    otherwise.  Returns (delta, packed H or None, slacks, gap), the gap
    between delta and its certified bound (0 for the LP); (0.0, None,
    zeros, inf) is "no certificate".
    """
    L, n_int, d = ops.coeff.shape
    N = n_int * d
    if N == 0:
        return 0.0, None, np.zeros(L), 0.0
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
        return float(res.value), h, slack, 0.0
    out = _strategy_conic(ops, eps, norms)
    if out is not None:
        return out
    _fallback("strict_arbitrage_maximin_program", "gap check failed")
    return 0.0, None, np.zeros(L), math.inf


# ---------------------------------------------------------------------------
# Measure-side programs (leaf weights under node-wise cone constraints)
# ---------------------------------------------------------------------------

def _cone_rows_linf(ops: TreeOps, eps: float):
    """Linear rows z_{v,i} <= eps qbar(v) in both signs, for q = inf."""
    coeff = ops.coeff.transpose(1, 2, 0)[:, :, None, :]  # (node, asset, sign, leaf)
    rows = np.concatenate([coeff, -coeff], axis=2) - (eps * ops.mask.T)[:, None, None, :]
    return np.ascontiguousarray(rows.reshape(-1, ops.model.n_leaves))


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
    (eps - gamma) qbar(v), or lies on its face when tangent, and no other
    node changes sign (each child's subtree is scaled as a whole; one
    without mass is split by the min-norm weights all the way down).
    Margins are concave in q: the mix of x and the re-split x' passes node
    v at t >= m(x) / (m(x) - m(x')), and it mixes at twice that bound.
    """
    model, geometry = ops.model, node_geometry(ops.model, norms.q)
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


def _onto_slice(ops: TreeOps, eps: float, norms: NormPair, faces: dict, q: np.ndarray,
                f: np.ndarray, value: float, anchor: np.ndarray) -> np.ndarray:
    """Checked weights q off the slice f.q = value by more than 1e-9
    (1 + |value|), mixed toward ``anchor``, a checked point on it, until
    they are off by half that; q itself when it is close enough, or when
    the mix fails the exact check (margins are concave, so it passes but
    for rounding)."""
    miss, tol = float(f @ q) - value, 1e-9 * (1.0 + abs(value))
    if abs(miss) <= tol:
        return q
    mix = q + (1.0 - 0.5 * tol / abs(miss)) * (anchor - q)
    return mix if float(np.min(_cone_margins(ops, eps, norms, mix, faces))) >= 0.0 else q


def _ratio_conic(program: str, ops: TreeOps, eps: float, norms: NormPair, eta: float,
                 P: np.ndarray, fixed=None):
    """max rho s.t. q >= rho P, rho >= 0, sum q = 1, the node cones (and
    f.q = value, checked to 1e-9 (1 + |value|), when ``fixed`` = (f, value,
    anchor), anchor a checked point on that slice or None: checked weights
    off the slice are mixed toward it, ``_onto_slice``).

    The nodes decide first (``_tangent_faces``): the set is empty, or a
    tangent face with no full-support point puts weight 0 on some leaf, so
    rho* = 0.  Otherwise the whole tree is one cone program, tangent cones
    as face rows: feasible when the solver's weights, repaired by
    ``_checked_weights``, have q >= eta P; infeasible on a certificate, or
    a certified bound on rho* below eta; else indeterminate, with the bound.
    """
    faces = _tangent_faces(ops, eps, norms.q)
    if faces is None:
        return "infeasible", None, None, None, None
    if any(off.any() for _, off in faces.values()):
        return "infeasible", None, None, 0.0, None
    L = ops.model.n_leaves
    c = np.zeros(L + 1)
    c[-1] = -1.0
    lin = np.vstack([np.hstack([-np.eye(L), P[:, None]]), c[None, :]])
    rho_ub = math.inf
    for res, exact in _measure_solves(program, ops, eps, norms, faces, c, lin, 1, fixed):
        # weak duality on the exact program, the residual charged to |q|, rho <= 1
        box = _padded(np.ones(L + 1), exact, eps)
        if res.status == "infeasible" and exact.certifies_infeasible(res.y, res.z, box):
            return "infeasible", None, None, None, None
        if res.status != "infeasible" and res.x is not None:
            rho_ub = min(rho_ub, -exact.lower_bound(res.y, res.z, box))
        q = _checked_weights(ops, eps, norms, faces, res.x)
        if q is not None and fixed is not None and fixed[2] is not None:
            q = _onto_slice(ops, eps, norms, faces, q, *fixed)
        if (q is not None and np.all(q >= eta * P) and (
                fixed is None or abs(fixed[0] @ q - fixed[1]) <= 1e-9 * (1.0 + abs(fixed[1])))):
            return ("feasible", q, float(np.min(q / P)), rho_ub,
                    float(np.min(_cone_margins(ops, eps, norms, q, faces))))
        if rho_ub < eta:
            return "infeasible", None, None, rho_ub, None
    _fallback(program, "no checked witness or bound")
    return "indeterminate", None, None, rho_ub if rho_ub < math.inf else None, None


def _dual_hedge(ops: TreeOps, eps: float, norms: NormPair, faces: dict, phi: np.ndarray,
                prog: ConeProgram, y: np.ndarray, z: np.ndarray):
    """The super-hedge (capital, strategy, {node: add-on}, slacks) of phi
    read from the price program's dual (y, z), whose rows read phi = y[0] +
    gain(H) - eps sum_v t_v + sum_j (dS - z_j).g_j + mu - s (t_v >= |H_v|,
    s >= 0): H_v = -(tail of z on node v's cone, ``_cone_tails``), and
    tangent node j's face-row multiplier g_j, taken orthogonal to z_j, is a
    costless add-on of mean 0 on the face.  A leaf off the face (free multiplier mu) is
    covered by lambda h_j, the node's unit strategy (z_j / gamma_j at q =
    2), whose slack per unit dS.h_j - eps is > 0 off the face and >= 0 on
    it (no slack drops: the cost is subadditive); then the capital y[0] is
    raised to cover every exact slack."""
    _, n_int, d = ops.coeff.shape
    H = np.zeros((n_int, d))
    H[[j for j in range(n_int) if j not in faces]] = -_cone_tails(prog, z, d)
    add_on, row = {}, 1
    for j, (zj, off) in faces.items():
        add_on[j] = y[row:row + d] - (y[row:row + d] @ zj) / (zj @ zj) * zj
        row += d + int(off.sum())

    def rest():  # the leaf slacks less the capital
        return (_leaf_gain_cost(ops, norms, H.ravel(), eps) - phi
                + sum(ops.coeff[:, j, :] @ g for j, g in add_on.items()))

    geometry = node_geometry(ops.model, norms.q)
    for j, (_, off) in faces.items():
        unit, short = geometry[ops.internal[j]].h, -(y[0] + rest())
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
    faces = _tangent_faces(ops, eps, norms.q)
    if faces is None:
        return (None,) * 4
    best, best_q, hedge = -math.inf, None, None
    for res, exact in _measure_solves("cone_linear_optimum", ops, eps, norms, faces, -phi,
                                      -np.eye(ops.model.n_leaves), 0):
        q = _checked_weights(ops, eps, norms, faces, res.x)
        if q is not None and float(phi @ q) > best:
            best, best_q = float(phi @ q), q
        if res.status in ("optimal", "unsolved"):
            h = _dual_hedge(ops, eps, norms, faces, phi, exact, res.y, res.z)
            hedge = h if hedge is None or h[0] < hedge[0] else hedge
        if best_q is not None and hedge is not None and _gap_closed(best, hedge[0], 1e-9):
            return best, best_q, hedge[0], hedge
    if best_q is None and anchor is not None:
        best, best_q = float(phi @ anchor), anchor
    _fallback("cone_linear_optimum", "bracket wider than 1e-9")
    return best, best_q, math.inf if hedge is None else hedge[0], hedge


@_kept_results
def interior_feasibility(model: MarketModel, eps: float, norms: NormPair, eta: float):
    """Decide the eta-interior cone program q >= eta P, sum q = 1, node cones.

    Returns (status, q, rho, rho_upper_bound, margin) with status in
    {feasible, infeasible, indeterminate}.  A feasible verdict carries
    weights with q >= eta P, checked elementwise, and node margins >= 0:
    exactly on the conic route (tangent nodes: on the face), and to the
    rounding floor 1e-12 (1 + max |coeff|) on the LP route, whose vertex
    meets its rows only to rounding (an LP vertex that fails either check
    is indeterminate).

    Polyhedral geometry (q = inf, d = 1, or eps = 0) is one exact LP, and
    every other q the node check and one cone program (``_ratio_conic``).
    The result is kept on the model (``_kept_results``).
    """
    ops = tree_ops(model)
    L = model.n_leaves
    P = model.leaf_prob
    if not _polyhedral(model, norms, eps):
        return _ratio_conic("interior_feasibility", ops, eps, norms, eta, P)
    # Rounding floor of |z_v(q)|_q at this price scale.
    margin_floor = _FLOOR * (1.0 + float(np.max(np.abs(ops.coeff))))
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


@_kept_results
def cone_linear_optimum(model: MarketModel, eps: float, norms: NormPair,
                        leaf_objective: np.ndarray, sense: str, anchor: Optional[np.ndarray]):
    """Optimize a linear leaf functional over the closed cone-feasible set.

    Returns (value, q, bound, hedge), all None when the closed set is
    empty: value = c.q at exactly feasible q, bound the certified other end
    of the optimum.  Polyhedral geometry is one LP (bound = value).  Every
    other q is one cone program (``_price_conic``), whose dual gives
    ``hedge`` = (capital, strategy, {node: add-on}, leaf slacks), an exact
    super-replication of c (sense max) or -c (min), whose capital (negated
    for min) is the bound.  ``anchor``, an exactly feasible point, is the q
    returned when no solve gives a checked one.  The result is kept on the
    model (``_kept_results``).
    """
    ops = tree_ops(model)
    L = model.n_leaves
    c = np.asarray(leaf_objective, dtype=float)
    if not _polyhedral(model, norms, eps):
        sgn = 1.0 if sense == "max" else -1.0
        value, q, capital, hedge = _price_conic(ops, eps, norms, sgn * c, anchor)
        return (None,) * 4 if value is None else (sgn * value, q, sgn * capital, hedge)
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


def max_min_weight_on_face(model: MarketModel, eps: float, norms: NormPair,
                           leaf_objective: np.ndarray, target: float,
                           anchor: Optional[np.ndarray] = None):
    """max (min leaf weight) over cone-feasible q with c.q within 1e-9 (1 + |target|)
    of target, as (min weight, q, decided), or (0.0, None, True) when there
    is none.  Off polyhedral geometry it only decides whether it reaches
    _ATTAINED, by the ratio program on the slice c.q = target (a thin slab
    is as degenerate, and worse conditioned), whose checked weights are
    mixed toward ``anchor``, a checked point on the slice, when they miss
    it; it says when it cannot decide (q None unless reached)."""
    ops = tree_ops(model)
    L = model.n_leaves
    c = np.asarray(leaf_objective, dtype=float)
    if not _polyhedral(model, norms, eps):
        status, q, rho, bound, _ = _ratio_conic("max_min_weight_on_face", ops, eps, norms,
                                                _ATTAINED, np.ones(L), (c, target, anchor))
        return rho if q is not None else max(bound or 0.0, 0.0), q, status != "indeterminate"
    scale = 1e-9 * (1.0 + abs(target))
    face_rows = np.vstack([np.concatenate([c, [0.0]]), np.concatenate([-c, [0.0]])])
    face_rhs = np.array([target + scale, -(target - scale)])
    min_rows = np.hstack([-np.eye(L), np.ones((L, 1))])
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
# face of the least-norm point and non-negative slack off it, and for p > 1
# the unit-sphere slice {h . dS(w) = eps on the face, |h|_p = 1} is a
# single point.
# ---------------------------------------------------------------------------


def node_min_simplex_deviation(model: MarketModel, v: int, norms: NormPair) -> float:
    """gamma(v) = min over child-simplex weights of |sum_w a_w dS(w)|_q.

    Scalar increments have a closed form: the simplex image is the interval
    [min dS, max dS], so gamma is 0 when it contains 0 and the smallest
    |dS| otherwise.  q = inf solves one LP; any other q reads the node's
    geometry, kept on the model (:func:`node_geometry`): the upper end of
    its bracket, the norm of a point of the hull.
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
    if not _polyhedral(model, norms):
        return node_geometry(model, norms.q)[v].gamma
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


def node_strict_arbitrage(model: MarketModel, v: int, eps: float, norms: NormPair,
                          gamma: Optional[float] = None, with_certificate: bool = True):
    """Exact one-node strict-arbitrage decision; returns (found, h, gamma).

    Polyhedral nodes run the tree's strategy LPs on the node's one-period
    market (its children as leaves): the maximin LP certifies gamma > eps,
    and at gamma = eps the sign of the sum LP decides.  Every other node
    reads its geometry and solves nothing: above the band, 1e-8 (1 + max
    |dS|) around gamma = eps, its unit strategy h has worst slack low - eps
    (gamma - eps at q = 2), and in the band the face of the least-norm
    point decides.
    """
    A = model.delta[list(model.children[v])]
    band = _NODE_BAND * (1.0 + float(np.max(np.abs(A))))
    if gamma is None:
        gamma = node_min_simplex_deviation(model, v, norms)
    if _polyhedral(model, norms):
        ops = TreeOps(None, (v,), A[:, None, :], np.ones((A.shape[0], 1)))
        if gamma > eps + band:
            if not with_certificate:
                return True, None, gamma
            margin, h, _, _ = strict_arbitrage_maximin_program(ops, eps, norms)
            if h is not None and margin > 0:
                return True, h, gamma
            # Numerically at the threshold: fall through to the boundary analysis.
        if gamma < eps - band or eps == 0.0:
            return False, None, gamma
        # The polyhedral slack image is closed, so the LP's sign is exact.
        total, h, _ = strict_arbitrage_sum_program(ops, eps)
        return (True, h, gamma) if total > 1e-9 else (False, None, gamma)
    node = node_geometry(model, norms.q)[v]
    if node.low > eps + band:
        return True, (node.h if with_certificate else None), gamma
    if gamma < eps - band or eps == 0.0:
        return False, None, gamma
    # Boundary band: the face of the least-norm point is the cone set there.
    support, off = np.flatnonzero(node.on), np.flatnonzero(~node.on)
    if not off.size:
        return False, None, gamma
    h, m = _min_norm_solution(A[support], np.full(len(support), eps), norms)
    if h is None or m is None or m > 1.0 + 1e-7 or m <= 0.0:
        return False, None, gamma
    h_unit = h / m
    slack_off = A[off] @ h_unit - eps
    if float(np.min(slack_off)) >= -band and float(np.max(slack_off)) > band:
        return True, h_unit, gamma
    return False, None, gamma
