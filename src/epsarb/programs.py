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

Polyhedral geometry is p = 1 (q = inf), d = 1, and the measure side at
eps = 0.  The strategy side solves HiGHS LPs there, except a node's
decision at d = 1, a sign test.  The measure constraint is per node, so
every measure question (find-emm's interior decision, the price bounds
and their super-hedge, attainment) is one backward induction over
one-node programs (``_induction``), by the node's set K_v(eps):

* d = 1: a slab of the simplex, a closed form in scalar arithmetic
  (``_scalar_node``), a vertex with at most two nonzero weights;
* q = inf or eps = 0 with d >= 2: a polytope, a vertex of its small LP,
  found by enumerating the bases (``_polytope_nodes``, one batched solve
  for the nodes of one time and child count), or by column generation
  at a node of many children;
* otherwise: a closed form for binary nodes at q = 2 and for one-point
  nodes, one cone program on the node's one-period ops otherwise (an
  r-norm cone is one second-order block at r = 2 and d three-dimensional
  power blocks otherwise, ``_cone_program``).

An induction's measure is the product of the node kernels and its
super-hedge is the node hedges.  The strategy side's maximin is an
induction of the same kind (``_maximin_induction``): closed forms for
nodes whose children all have value 0, for one child and for binary
nodes at q = 2, one cone program otherwise; its strategy composes the
node duals.  The node geometry is exact once per model and
q (:func:`node_geometry`): gamma(v) is the least q-norm of the children's
convex hull, a closed form at d = 1, a vertex of its LP at q = inf,
Wolfe's min-norm point at q = 2 and one cone program with a recomputed
bracket at other q, and a tangent node's set off polyhedral geometry is
the face of that point.  Every result is checked exactly (node margins,
to the rounding floor for the vertex kernels of polyhedral geometry;
``_leaf_gain_cost``, q >= eta P, and a recomputed hedge capital or dual
bound); a result that fails is counted in ``CONIC_FALLBACKS`` and has no
answer: indeterminate, or no certificate.  ``NODE_PROGRAMS`` counts the
node programs of both sides by route.  Public wrappers live in
:mod:`epsarb.arbitrage` and :mod:`epsarb.pricing`.

A model keeps what is derived from it, through one helper (``_kept``),
and nothing it keeps points back at it, so its last reference frees it:
its coefficient arrays (:func:`tree_ops`), its node geometry per q
(:func:`node_geometry`), and the results of the last 8 calls of the
interior, price and strict-arbitrage sum programs and of the price
induction (``_kept_results``).
A model is frozen with read-only arrays, and HiGHS and the cone kernel are
deterministic, so a repeated call at the same level, keyed by the exact
bits of its arguments, returns the kept result, bit for bit: detection,
find-emm, the price bounds, the super-hedge and the fair range at one
(P, eps) read the same eps-martingale set and solve each program once.
"""

from __future__ import annotations

import itertools
import logging
import math
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
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


def _tree_arrays(model: MarketModel) -> tuple:
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
    return internal, coeff, mask


_LIVE_OPS: "weakref.WeakValueDictionary[int, TreeOps]" = weakref.WeakValueDictionary()


def tree_ops(model: MarketModel) -> TreeOps:
    """The model's coefficient tensors: every program over the tree reads
    them, and they depend on the model alone, so the arrays are built once
    and kept on the model.  The ops that hold them are not: they point at
    the model, which would then wait for the cyclic garbage collector
    instead of being freed with its last reference.  While a caller holds a
    model's ops, the same ops are returned (an entry of ``_LIVE_OPS`` goes
    with its ops, before their model can go and free its id)."""
    ops = _LIVE_OPS.get(id(model))
    if ops is None:
        ops = _LIVE_OPS[id(model)] = TreeOps(model, *_kept(model, "_tree_ops", _tree_arrays, model))
    return ops


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
# Node inductions
# ---------------------------------------------------------------------------

CONIC_FALLBACKS: Counter = Counter()
"""Per program, the calls left indeterminate or without a certificate by a failed check."""
NODE_PROGRAMS: Counter = Counter()
"""Node programs of the measure inductions and the strategy maximin, per
route: "scalar closed form" (d = 1, ``_scalar_node``), "polytope vertex"
(d >= 2 at q = inf or eps = 0, ``_polytope_nodes``), "closed form" or
"cone program"."""
SECOND_SOLVES: Counter = Counter()
"""Per measure program, the node cone programs that went on to the untightened second solve."""

# Node cone programs solve first at eps (1 - _TIGHTEN): interior-point
# points carry residuals of 1e-13 to 1e-10 (worst near the critical level,
# where the cone set is thin), and the tightened cone leaves them room to
# pass the exact check at eps itself; a second solve at eps charges no
# tightening.
_TIGHTEN = 1e-10

_NODE_BAND = 1e-8  # per (1 + max |dS|): the strategy side's boundary band around gamma(v) = eps
_MAXIMIN_TOL = 1e-9  # the maximin induction's certified bound: no margin at or below it, gap within 10x
_FLOOR = 1e-12  # per (1 + max |dS|): the rounding floor of an exact node check
_ATTAINED = 1e-7  # a price bound is attained when its face has a point of min leaf weight above this


def _polyhedral(model: MarketModel, norms: NormPair, eps: float) -> bool:
    """Whether the q-cones (and the p-costs) are exactly LP-representable:
    q = inf (that is, p = 1), scalar assets, or the level eps = 0."""
    return norms.q == math.inf or model.d == 1 or eps == 0.0


def _polytope(model: MarketModel, q: float, eps: float) -> bool:
    """Whether every node's set K_v(eps) is a polytope cut by 2d rows:
    polyhedral geometry with d >= 2, q = inf or eps = 0 (``_polytope_nodes``)."""
    return model.d > 1 and (q == math.inf or eps == 0.0)


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

    At d = 1 every q-norm is |.| and the hull is [min dS, max dS], so all
    of it is a closed form (``_scalar_geometry``); at q = inf with d >= 2
    it is a vertex of gamma's LP (``_linf_geometry``), which
    :func:`node_geometry` builds for the nodes of one child count at once.
    """

    def __init__(self, A: np.ndarray, q: float):
        self.A = A
        self.exact = True
        if A.shape[1] == 1:
            self._scalar_geometry(A[:, 0])
            return
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

    def _scalar_geometry(self, a: np.ndarray) -> None:
        """z = 0 clipped to [min a, max a], gamma = low = |z|, h = sgn z; lam
        one child at z, or the two extreme children about z = 0; the face is
        every child when min a < 0 < max a, else the children at z."""
        lo, hi = float(a.min()), float(a.max())
        z = min(max(0.0, lo), hi)
        self.z, self.gamma, self.low = np.array([z]), abs(z), abs(z)
        self.h = np.array([math.copysign(1.0, z) if z else 0.0])
        self.lam = np.zeros(len(a))
        if lo < 0.0 < hi and not np.any(a == 0.0):
            i, j = int(np.argmin(a)), int(np.argmax(a))
            self.lam[i], self.lam[j] = hi / (hi - lo), -lo / (hi - lo)
        else:
            self.lam[int(np.argmax(a == z))] = 1.0
        self.on = np.ones(len(a), dtype=bool) if lo < 0.0 < hi else a == z

    def _linf_geometry(self, A: np.ndarray, lam: np.ndarray, H: np.ndarray) -> None:
        """gamma = |z|_inf at z = A'lam, lam the vertex of gamma's LP, and
        h = H / |H|_1 (``_linf_vertices``), whose worst gain min_w h.dS(w)
        is gamma (Sion): low is that gain, recomputed."""
        self.A, self.exact, self.lam, self.z = A, True, lam, A.T @ lam
        self.gamma = qnorm(self.z, math.inf)
        size = float(np.sum(np.abs(H)))
        self.h = H / size if size > 0.0 else np.zeros_like(H)
        self.low = min(max(float(np.min(A @ self.h)), 0.0), self.gamma)

    @cached_property
    def on(self) -> np.ndarray:
        return face_support(self.A, self.z)

    @cached_property
    def floor(self) -> float:
        """The rounding floor of an exact check at this node."""
        return _FLOOR * (1.0 + float(np.max(np.abs(self.A))))

    def state(self, eps: float) -> str:
        """The node's set at level eps: "empty" when the certified low is
        above eps + floor (a node certificate), "tangent" when eps <= gamma
        <= eps + floor at an exact least-norm point, whose face is then the
        set (``_tangent_faces``), and "open" otherwise."""
        if self.low > eps + self.floor:
            return "empty"
        return "tangent" if self.gamma >= eps and self.exact else "open"


def node_geometry(model: MarketModel, q: float) -> dict:
    """Per internal node, its :class:`NodeGeometry` in the q-norm; built
    once per q and kept on the model (as ``tree_ops``): it depends on the
    model and q alone, and every level's node decisions, tangent faces and
    repairs read it."""
    by_q = _kept(model, "_node_geometry", dict)
    if q not in by_q:
        kids = {v: list(model.children[v]) for v in model.internal}
        geometry = {}
        if q == math.inf and model.d > 1:  # gamma's LPs of one child count in one batch
            for k in {len(w) for w in kids.values()}:
                group = [v for v in model.internal if len(kids[v]) == k]
                A = model.delta[[kids[v] for v in group]]
                for v, *vertex in zip(group, A, *_linf_vertices(A)):
                    geometry[v] = NodeGeometry.__new__(NodeGeometry)
                    geometry[v]._linf_geometry(*vertex)
        by_q[q] = {v: geometry.get(v) or NodeGeometry(model.delta[kids[v]], q)
                   for v in model.internal}
    return by_q[q]


def _linf_vertices(A: np.ndarray):
    """gamma's LPs at q = inf, min t s.t. -t <= sum_w lam_w dS(w)_i <= t
    over the simplex, of nodes of one child count (A (K, k, d)) in one
    ``_vertex_lp``: (lam, H), H = y+ - y- the duals of the rows + and -."""
    K, k, d = A.shape
    rows = np.concatenate([A, -A], axis=2).transpose(0, 2, 1)
    x, y, _ = _vertex_lp(-np.eye(1, k + 1, k).repeat(K, axis=0), np.append(np.ones(k), 0.0),
                         np.concatenate([rows, -np.ones((K, 2 * d, 1))], axis=2),
                         np.zeros((K, 2 * d)), d, np.eye(1, k + 1, dtype=bool).repeat(K, axis=0))
    return x[:, :k], y[:, :d] - y[:, d:]


def _tangent_faces(ops: TreeOps, eps: float, q: float, program: str = "measure program"):
    """The tangent nodes at level eps, {j: (z, off)}: the min-norm point of
    internal node j, whose face z_v(q) = qbar_v(q) z is the cone set there
    (facial reduction: Borwein & Wolkowicz, 1981), and the leaves off it.
    Tangent means eps <= gamma(v) <= eps + floor, gamma = eps to rounding;
    None when some node's certified low is above eps + floor, which empties
    the set.  One-sided: a node with gamma < eps keeps its cone, whose set
    is larger.  No polytope node (d >= 2 at q = inf or eps = 0) has one:
    its rows are its set.  Only an exact least-norm point (Wolfe's, or a
    checked vertex) has a face: a cone program's point is known to the
    solver's precision, which a flat norm makes far coarser than gamma's
    (|(1, t)|_6 - 1 = t^6 / 6, so t = 0.025 costs 4e-11), so such a
    tangent node keeps its cone and the exact check decides."""
    model = ops.model
    geometry = node_geometry(model, q)
    polytope = _polytope(model, q, eps)
    faces = {}
    for j, v in enumerate(ops.internal):
        node = geometry[v]
        state = node.state(eps)
        if state == "empty":
            _log.debug("%s: node %s decides: its set is empty at eps %r", program, model.ids[v], eps)
            return None
        if state == "tangent" and not polytope:
            off = [k for w, on in zip(model.children[v], node.on) if not on
                   for k in model.leaves_under[w]]
            faces[j] = (node.z, np.isin(np.arange(model.n_leaves), off))
    return faces


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


# ---------------------------------------------------------------------------
# Strategy side off polyhedral geometry: backward induction over nodes
#
# By Sion's minimax theorem the maximin delta* = max over sum_v |H(v)|_p <=
# 1 of the least leaf slack equals min over leaf measures mu of max_v
# (|z_v(mu)|_q - eps mubar(v))^+.  Written through mu's node kernels it
# splits into one-node programs, deepest first, with phi = 0 at the leaves:
#   phi(v) = min over kernels kappa of max(|sum_w kappa_w dS(w)|_q - eps,
#                                          max_w kappa_w phi(w), 0),
# and delta* = 1 / sum_r 1 / phi(r) over the time-0 nodes (0 if some phi(r)
# = 0): the one-period reduction of the measure side below, applied to the
# strategy side.  Each node has a dual (lam, h): lam on the simplex over
# {cone, children}, |h|_p <= 1 and lam_0 (h.dS(w) - eps) + lam_w phi(w) >=
# phi(v) for every child w.  A node with budget beta holds beta lam_0 h and
# passes beta lam_w to child w; time-0 node r has a budget proportional to
# 1 / phi(r), so every leaf's slack is at least delta* per unit of total
# norm.
# ---------------------------------------------------------------------------

def _roots(a: float, b: float, c: float) -> tuple:
    """The real roots of a t^2 + 2 b t + c = 0, taken without cancellation."""
    if a == 0.0:
        return (-c / (2.0 * b),) if b != 0.0 else ()
    disc = b * b - a * c
    if disc < 0.0:
        return ()
    r = -(b + math.copysign(math.sqrt(disc), b))
    return (r / a, c / r) if r != 0.0 else (0.0,)


def _split(c: np.ndarray, phi: np.ndarray):
    """A node's dual weights for a holding of exact unit slacks c_w at its
    children of values phi: lam over (the holding, each child), summing to
    at most 1, that maximizes min_w lam_0 c_w + lam_w phi_w.  With at most
    two children, or all phi_w = 0, the optimum is no spending, a vertex, or
    a point of an edge where two children's terms are equal."""
    k = len(c)
    cands = [np.zeros(k + 1), np.eye(k + 1)[0]]
    if k == 1:
        cands.append(np.array([0.0, 1.0]))
    if k == 2:
        for a, b in ((0, 1), (1, 0)):  # lam_0 + lam_a = 1 and the two terms equal
            den = phi[a] + c[b] - c[a]
            if den > 0.0 and phi[a] <= den:
                lam = np.zeros(3)
                lam[0], lam[1 + a] = phi[a] / den, 1.0 - phi[a] / den
                cands.append(lam)
        if phi[0] + phi[1] > 0.0:
            cands.append(np.array([0.0, phi[1], phi[0]]) / (phi[0] + phi[1]))
    return max(cands, key=lambda lam: float(np.min(lam[0] * c + lam[1:] * phi)))


def _binary_kernel(node: NodeGeometry, phi: np.ndarray, eps: float) -> np.ndarray:
    """The optimal kernel (t, 1 - t) of a binary node at q = 2:
    f(t) = max(|t dS(0) + (1 - t) dS(1)|_2 - eps, t phi_0, (1 - t) phi_1, 0)
    is convex, so its least value is at the least-norm weight, where the
    two children's terms cross, where the cone crosses either of them (the
    roots of two quadratics), or at an end."""
    a1, D = node.A[1], node.A[0] - node.A[1]
    alpha, beta, c = float(D @ D), float(a1 @ D), float(a1 @ a1)
    ts = [float(node.lam[0]), 0.0, 1.0]
    if phi[0] + phi[1] > 0.0:
        ts.append(phi[1] / (phi[0] + phi[1]))
    # |a1 + t D|^2 = (e + m t)^2 at (e, m) = (eps, phi_0) and (eps + phi_1, -phi_1)
    for e, m in ((eps, phi[0]), (eps + phi[1], -phi[1])):
        ts += _roots(alpha - m * m, beta - e * m, c - e * e)

    def f(t):
        return max(qnorm(a1 + t * D, 2.0) - eps, t * phi[0], (1.0 - t) * phi[1])

    t = min((t for t in ts if 0.0 <= t <= 1.0), key=f)
    return np.array([t, 1.0 - t])


def _maximin_cone(A: np.ndarray, phi: np.ndarray, eps: float, q: float):
    """The node program of ``_maximin_node`` as one cone program in
    (kappa, s): min s s.t. |sum_w kappa_w dS(w)|_q <= eps + s, kappa_w
    phi_w <= s, s >= 0, kappa in the simplex.  Returns the kernel (the
    solver's, clipped at 0 and renormalized) and the dual: the holding
    -(the cone's dual tail) and the multipliers of kappa_w phi_w <= s;
    None without both."""
    k, d = A.shape
    live = np.flatnonzero(phi > 0.0)
    lin = np.vstack([np.hstack([-np.eye(k), np.zeros((k, 1))]),
                     np.hstack([np.diag(phi)[live], -np.ones((len(live), 1))]),
                     -np.eye(k + 1)[k]])
    cones = np.zeros((1, d + 1, k + 1))
    cones[0, 0, k] = -1.0
    cones[0, 1:, :k] = -A.T
    h_cones = np.zeros((1, d + 1))
    h_cones[0, 0] = eps
    prog = _cone_program(np.eye(k + 1)[k], lin, np.zeros(len(lin)), cones, h_cones, q,
                         np.append(np.ones(k), 0.0)[None, :], np.ones(1))
    res = solve_socp(prog)
    if (res.status not in ("optimal", "unsolved") or res.x is None or res.z is None
            or not np.max(res.x[:k]) > 0.0):
        return None
    kernel = np.maximum(res.x[:k], 0.0)
    passes = np.zeros(k)
    passes[live] = np.maximum(res.z[k:k + len(live)], 0.0)
    return kernel / kernel.sum(), -_cone_tails(prog, res.z, d)[0], passes


def _maximin_node(node: NodeGeometry, phi: np.ndarray, eps: float, norms: NormPair):
    """One node of the maximin induction, from its geometry and its
    children's values phi: (kernel, holding, passes) or None.  The kernel
    minimizes max(|kappa dS|_q - eps, max_w kappa_w phi_w, 0) over the
    simplex; the dual spends a unit budget as the holding (of p-norm at
    most the cone's weight) and passes[w] to child w.  Routes: closed forms
    when every phi_w is 0 (the node's least-norm weights and unit strategy
    from its geometry), for one child, and for two children at q = 2
    (``_binary_kernel``, with the unit strategy of its kernel's point); one
    cone program otherwise (``_maximin_cone``).  The closed forms take
    their dual weights from ``_split``."""
    A, q = node.A, norms.q
    k = len(A)
    if not np.any(phi > 0.0):
        kernel, h = node.lam, node.h
    elif k == 1:
        kernel = np.ones(1)
        h = qnorm_grad(A[0], q, qnorm(A[0], q))
    elif k == 2 and _second_order(q):
        kernel = _binary_kernel(node, phi, eps)
        z = kernel @ A
        size = qnorm(z, 2.0)
        h = z / size if size > 0.0 else np.zeros_like(z)
    else:
        NODE_PROGRAMS["cone program"] += 1
        return _maximin_cone(A, phi, eps, q)
    NODE_PROGRAMS["closed form"] += 1
    lam = _split(A @ h - eps * qnorm(h, norms.p), phi)
    return kernel, lam[0] * h, lam[1:]


def _maximin_induction(ops: TreeOps, eps: float, norms: NormPair):
    """The maximin strict-arbitrage program off polyhedral geometry, by
    backward induction over nodes (see the section comment above).

    The holdings, scaled to unit total norm, give the value, the least
    exact leaf slack (``_leaf_gain_cost``).  The product of the node
    kernels, with time-0 node r weighted as 1 / phi(r), gives the bound,
    max(0, -min ``_cone_margins``): no solver gap is trusted.  Returns
    (value, H, slacks, bound - value), or None when a node's cone program
    fails or the two ends lie more than 1e-8 (relative) apart.
    """
    model = ops.model
    L, n_int, d = ops.coeff.shape
    geometry = node_geometry(model, norms.q)
    phi = np.zeros(model.n_nodes)
    kernels, holds, passes = {}, {}, {}
    for v in sorted(model.internal, key=lambda v: -model.times[v]):
        kids = list(model.children[v])
        out = _maximin_node(geometry[v], phi[kids], eps, norms)
        if out is None:
            return None
        kernels[v], holds[v], passes[v] = out
        phi[v] = max(qnorm(kernels[v] @ geometry[v].A, norms.q) - eps,
                     float(np.max(kernels[v] * phi[kids])), 0.0)
    roots = list(model.roots)
    if np.min(phi[roots]) > 0.0:
        budget = 1.0 / phi[roots] / float(np.sum(1.0 / phi[roots]))
    else:
        zero = int(np.argmin(phi[roots]))
        _log.debug("strict_arbitrage_maximin_program: time-0 node %s has no strict arbitrage "
                   "in its subtree at eps %r", model.ids[roots[zero]], eps)
        budget = np.eye(len(roots))[zero]
    bound = max(0.0, -float(np.min(_cone_margins(ops, eps, norms,
                                                 _product(model, kernels, budget)))))
    if bound <= _MAXIMIN_TOL:
        # No positive uniform slack: the zero strategy is optimal.
        return 0.0, np.zeros(n_int * d), np.zeros(L), bound
    beta = np.zeros(model.n_nodes)
    beta[roots] = budget
    H = np.zeros((model.n_nodes, d))
    for v in model.order:
        if model.children[v]:
            H[v] = beta[v] * holds[v]
            beta[list(model.children[v])] = beta[v] * passes[v]
    h = H[list(ops.internal)].ravel()
    total = float(np.sum(qnorm(H[list(ops.internal)], norms.p)))
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
    uniform slack rate.  One LP at p = 1 or d = 1, the node induction
    (``_maximin_induction``) on a model's own ops otherwise.  Returns
    (delta, packed H or None, slacks, gap), the gap between delta and its
    certified bound (0 for the LP); (0.0, None, zeros, inf) is "no
    certificate".
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
    out = _maximin_induction(ops, eps, norms)
    if out is not None:
        return out
    _fallback("strict_arbitrage_maximin_program", "gap check failed")
    return 0.0, None, np.zeros(L), math.inf


# ---------------------------------------------------------------------------
# Measure-side programs (leaf weights under node-wise cone constraints)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Measure side: backward induction over nodes
#
# The cone constraint is per node, so leaf weights q lie in the closed
# eps-martingale set exactly when every node's kernel kappa_v(w) =
# qbar(w) / qbar(v) lies in K_v(eps) = {kappa in the simplex:
# |sum_w kappa_w dS(w)|_q <= eps}, and q is then the product of its
# kernels.  Every measure question is a backward induction over one-node
# programs (the one-period reduction of Bouchard & Nutz, *Arbitrage and
# duality in nondominated discrete-time models*, 2015), with values V:
#   price  V(v) = max over K_v of sum_w kappa_w V(w),      V = payoff at the leaves;
#   ratio  V(v) = max over K_v of min_w kappa_w V(w) / p_w, V = 1 at the leaves,
# p_w the reference kernel, so the ratio at the root is rho* = max min q / P.
# Each node program reads its children's certified upper values: the
# tree's lower end is read off the product of the checked kernels, and its
# upper end composes the node bounds (at a price, the node hedges).
# Several time-0 nodes combine with no cone at the implicit root.
# ---------------------------------------------------------------------------

_PULL = 2.0 ** -48  # per (eps + max |dS|): the margin a checked kernel keeps inside K_v
_FACE = 1e-11  # per (1 + |price|): a node's optimal face holds the kernels this close to its price
_ROUND = 2.0 ** -48  # per (eps + max |dS|): the rounding of a d = 1 kernel's point kappa.dS
_STEPS = (0.0,) + tuple(2.0 ** e for e in range(-52, 0, 4)) + (1.0,)


def _beyond(bad, t: float, limit: float) -> float:
    """An outer end: the first of t + s (limit - t), for s = 0, 2^-52,
    2^-48, ..., 1/16, that is ``bad``, else ``limit``."""
    for s in _STEPS[:-1]:
        x = t + s * (limit - t)
        if bad(x):
            return x
    return limit


def _orthogonal(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """g less its component along z: an add-on of mean 0 on a face z."""
    return g - float(g @ z) / float(z @ z) * z


def _pull(x, target, needs):
    """x moved toward ``target`` until f(x) >= floor for every (f, floor) of
    ``needs``, each f concave and target passing them all: the mix at twice
    the weight that the chords ask, doubled until it passes (rounding);
    None when target itself fails."""
    short = []
    for f, floor in needs:
        fx, ft = f(x), f(target)
        if ft < floor:
            return None
        if fx < floor:
            short.append((floor - fx) / (ft - fx))
    theta = 2.0 * max(short, default=0.0)
    while True:
        y = x + min(theta, 1.0) * (target - x)
        if all(f(y) >= floor for f, floor in needs):
            return y
        if theta >= 1.0:
            return None
        theta *= 2.0


class _NodeSet:
    """K_v(eps) of one node at q (``NodeGeometry.state``): the exact margin
    of a kernel, the capital of a node hedge, and ``pull``, the margin a
    checked kernel keeps, enough that the margins recomputed from leaf
    weights (``_cone_margins``, which rounds otherwise) stay >= 0 and at
    most half the margin of the least-norm weights."""

    def __init__(self, node: NodeGeometry, eps: float, norms: NormPair):
        self.node, self.A, self.eps, self.norms = node, node.A, eps, norms
        self.state = node.state(eps)
        self.pull = 0.0
        if self.state == "open":
            top = float(np.max(np.abs(node.A)))
            self.pull = min(_PULL * (eps + top), max(0.5 * self.margin(node.lam), 0.0))

    def margin(self, kernel: np.ndarray) -> float:
        """eps sum kappa - |sum_w kappa_w dS(w)|_q, and at a tangent node the
        rounding floor less the distance from the face (``_cone_margins``)."""
        z, mass = kernel @ self.A, float(kernel.sum())
        if self.state == "tangent":
            return (self.node.floor - qnorm(z - mass * self.node.z, 2.0)
                    - float(kernel[~self.node.on].sum()))
        return self.eps * mass - qnorm(z, self.norms.q)

    def checked(self, kernel: np.ndarray, face, inside: np.ndarray):
        """``kernel``, clipped at 0 and renormalized, when its margin is at
        least ``pull`` and it meets the face slice (c, level), c.kappa >=
        level; else pulled toward ``inside``, a kernel that passes
        (``_pull``); None when that fails too."""
        k = np.maximum(kernel, 0.0)
        if not k.sum() > 0.0:
            return None
        needs = [(self.margin, self.pull)]
        if face is not None:
            needs.append((lambda x: float(face[0] @ x), face[1]))
        return _pull(k / k.sum(), inside, needs)

    def capital(self, c: np.ndarray, H: np.ndarray, g: Optional[np.ndarray]) -> float:
        """max_w (c_w - (H + g).dS(w)) + eps |H|_p: the least capital from
        which H, and the costless add-on g of a tangent node, cover c at
        every child."""
        gain = self.A @ (H if g is None else H + g)
        return float(np.max(c - gain)) + self.eps * qnorm(H, self.norms.p)

    def cover(self, c: np.ndarray, H: np.ndarray, g: Optional[np.ndarray]) -> np.ndarray:
        """At a tangent node, H plus lambda h, h the node's unit strategy and
        lambda the least that covers every child off the face from the face
        children's capital: h.dS(w) - eps, the slack per unit, is > 0 off
        the face and >= 0 on it, so no face child's term rises."""
        node = self.node
        if self.state != "tangent" or node.on.all():
            return H
        rest = c - self.A @ (H if g is None else H + g)
        short = rest - float(np.max(rest[node.on]))
        rate = self.A @ node.h - self.eps
        need = ~node.on & (short > 0.0) & (rate > 0.0)
        return H + float(np.max(short[need] / rate[need])) * node.h if need.any() else H

    def face_point(self) -> Optional[np.ndarray]:
        """The one kernel of K_v when it is one point: a single child, or a
        tangent face that holds one child or two distinct ones (then the
        least-norm weights); None otherwise."""
        k = len(self.A)
        if k == 1:
            return np.ones(1)
        if self.state != "tangent":
            return None
        face = np.flatnonzero(self.node.on)
        if len(face) == 1:
            return np.eye(k)[face[0]]
        if len(face) == 2 and np.any(self.A[face[0]] != self.A[face[1]]):
            return self.node.lam
        return None

    def interval(self, face):
        """K_v of an open binary node at q = 2, as the weight t of its first
        child, on the face slice when one is given: inner ends [lo, hi]
        whose kernels pass ``checked``, and outer ends [LO, HI] around the
        set (the exact margin, or the slice, fails there), or None.

        With z* the least-norm point at t*, |z(t* + s)|^2 - eps^2 = alpha s^2
        + 2 beta s - c for alpha = |D|^2, D = dS(0) - dS(1), beta = z*.D and
        c = (eps - gamma)(eps + gamma) >= 0, whose roots are taken without
        cancellation; a rounded end is pulled inside, and pushed outside,
        until the exact margin says so."""
        A, node = self.A, self.node
        D = A[0] - A[1]
        alpha = float(D @ D)
        t0 = float(node.lam[0])
        roots = (0.0, 1.0)
        if alpha > 0.0:
            c = max((self.eps - node.gamma) * (self.eps + node.gamma), 0.0)
            beta = float(node.z @ D)
            R = math.sqrt(beta * beta + alpha * c)
            if beta >= 0.0:
                up, down = (c / (beta + R) if beta + R > 0.0 else 0.0), -(beta + R) / alpha
            else:
                up, down = (R - beta) / alpha, -c / (R - beta)
            roots = (t0 + down, t0 + up)

        def margin(t):
            return self.margin(np.array([t, 1.0 - t]))

        needs = [(margin, self.pull)]
        ends = []
        for root, limit in zip(roots, (0.0, 1.0)):
            end = min(max(root, 0.0), 1.0)
            inner = _pull(end, t0, needs)
            if inner is None:
                return None
            ends += [inner, end if end == limit else _beyond(lambda t: margin(t) < 0.0, end, limit)]
        lo, LO, hi, HI = ends
        if face is not None:
            c, level = face
            slope = float(c[0] - c[1])

            def price(t):
                return float(c @ np.array([t, 1.0 - t]))

            if slope != 0.0:
                # the slice is t >= at (slope > 0) or t <= at; c.kappa is
                # largest at ``best``, the price kernel's end
                at = (level - float(c[1])) / slope
                best, limit = (hi, 0.0) if slope > 0.0 else (lo, 1.0)
                outer = _beyond(lambda t: price(t) < level, at, limit)
                if (slope > 0.0 and at > lo) or (slope < 0.0 and at < hi):
                    inner = _pull(at, best, needs + [(price, level)])
                    if inner is None:
                        return None
                    lo, hi = (inner, hi) if slope > 0.0 else (lo, inner)
                LO, HI = (max(LO, outer), HI) if slope > 0.0 else (LO, min(HI, outer))
        return (lo, hi, LO, HI) if lo <= hi else None


def _node_program(program: str, node: NodeGeometry, p: Optional[np.ndarray], values: np.ndarray,
                  eps: float, norms: NormPair, face=None, inside: Optional[np.ndarray] = None):
    """One node's program over K_v(eps), from the node's geometry (its
    children's increments), the reference kernel p (None at a price), the
    children's upper values and the level: the price max sum_w kappa_w
    values_w, or the ratio max min_w kappa_w values_w / p_w, on the face
    slice c.kappa >= level when ``face`` = (c, level).

    Returns None when K_v is empty (a node certificate), else (kernel, lo,
    hi, hedge): a kernel that passes ``_NodeSet.checked`` (None without
    one; ``inside``, the least-norm weights unless given, is the point it
    is mixed toward), its value lo against ``values``, a certified upper
    bound hi (inf without one), and at a price the node hedge (H, g), g the
    add-on of a tangent node (None elsewhere), whose exact capital is hi.
    Routes: the scalar closed forms at d = 1 (``_scalar_node``), a closed
    form for one point (``face_point``) and for open binary nodes at q = 2
    (``interval``), one cone program (``_node_cone``) otherwise; polytope
    nodes (d >= 2 at q = inf or eps = 0) take ``_polytope_nodes``.
    """
    if node.A.shape[1] == 1:
        return _scalar_node(node, p, values, eps, face, inside)
    S = _NodeSet(node, eps, norms)
    if S.state == "empty":
        return None
    inside = node.lam if inside is None else inside
    u = None if p is None else values / p
    ratio = u is not None
    if not np.all(np.isfinite(values)):  # a child without a bound
        return S.checked(inside, face, inside), -math.inf, math.inf, None
    if ratio and (np.min(u) <= 0.0 or (S.state == "tangent" and not node.on.all())):
        # a child of ratio 0, or weight 0 forced on a child off the face
        return S.checked(inside, face, inside), 0.0, 0.0, None
    point = S.face_point()
    binary = point is None and len(node.A) == 2 and _second_order(norms.q) and S.state == "open"
    NODE_PROGRAMS["closed form" if point is not None or binary else "cone program"] += 1
    if point is None and not binary:
        return _node_cone(program, S, values, u, face, inside)
    d = node.A.shape[1]
    H, g = np.zeros(d), None
    if point is not None:
        kernel = S.checked(point, face, point)
        if ratio:
            return kernel, float(np.min(point * u)), float(np.min(point * u)), None
        face_kids = np.flatnonzero(node.on) if S.state == "tangent" else ()
        if len(face_kids) == 2:
            D = node.A[face_kids[0]] - node.A[face_kids[1]]
            g = _orthogonal((values[face_kids[0]] - values[face_kids[1]]) / float(D @ D) * D,
                            node.z)
        elif S.state == "tangent":
            g = np.zeros(d)
        H = S.cover(values, H, g)
        return kernel, float(values @ point), S.capital(values, H, g), (H, g)
    ends = S.interval(face if ratio else None)
    if ends is None:
        return None, -math.inf, math.inf, None
    lo, hi, LO, HI = ends
    if ratio:
        r = u[1] / (u[0] + u[1])  # the weight of child 0 at which t u0 = (1 - t) u1
        t, T = min(max(r, lo), hi), min(max(r, LO), HI)
        kernel = np.array([t, 1.0 - t])
        return kernel, float(np.min(kernel * u)), min(T * u[0], (1.0 - T) * u[1]), None
    t = hi if values[0] > values[1] else lo
    kernel = np.array([t, 1.0 - t])
    z = kernel @ node.A
    size = qnorm(z, 2.0)
    if values[0] != values[1] and 0.0 < t < 1.0 and size > 0.0:
        # the cone binds: the hedge mu z/|z| makes both children's terms equal
        unit = z / size
        slope = float(unit @ (node.A[0] - node.A[1]))
        if slope != 0.0:
            H = (values[0] - values[1]) / slope * unit
    return kernel, float(values @ kernel), S.capital(values, H, None), (H, None)


def _node_cone(program: str, S: _NodeSet, c: np.ndarray, u: Optional[np.ndarray], face,
               inside: np.ndarray):
    """The node program of ``_node_program`` as one cone program over the
    kernel kappa: the price min -c.kappa s.t. kappa >= 0, or the ratio max s
    s.t. kappa >= s rhat, s >= 0 (rhat = (1/u) / sum(1/u), so s <= 1 and
    the value is s / sum(1/u)) with c.kappa >= level on a face slice; sum
    kappa = 1, and the node's cone (head eps sum kappa, tail sum_w kappa_w
    dS(w)) or, at a tangent node, the rows of its face.

    It solves at eps (1 - _TIGHTEN), then at eps (counted in
    ``SECOND_SOLVES`` under ``program``) unless the first solve gives a
    checked kernel within 1e-9 of its bound (relative; a ratio within a
    thousandth of its value too, enough for the verdicts it feeds); it
    keeps the best of both.  A face slice is solved once, at eps: its
    level is within _FACE of the price at eps, which the tightened cone
    would cut off.  A certificate that the program at eps is infeasible
    empties the node.
    The bound is weak duality, recomputed exactly: at a price the capital
    of the hedge H = -(the dual's cone tail), with at a tangent node the
    face rows' multiplier g, taken orthogonal to z, as the add-on; at a
    ratio, with lambda and sigma the multipliers of kappa >= s rhat and of
    the slice, s <= (capital(lambda + sigma c) - sigma level) / lambda.rhat.
    """
    A, eps, node = S.A, S.eps, S.node
    k, d = A.shape
    tangent = S.state == "tangent"
    ratio = u is not None
    n = k + ratio
    if ratio:
        rhat = 1.0 / u / float(np.sum(1.0 / u))
        obj = -np.eye(n)[k]
        lin = np.vstack([np.hstack([-np.eye(k), rhat[:, None]]), obj])
        h = np.zeros(k + 1)
        if face is not None:
            lin, h = np.vstack([lin, np.append(-face[0], 0.0)]), np.append(h, -face[1])
    else:
        obj, lin, h = -c, -np.eye(k), np.zeros(k)
    a_eq = np.ones((1, k))
    if tangent:
        a_eq = np.vstack([a_eq, (A - node.z).T, np.eye(k)[~node.on]])
    b_eq = np.zeros(len(a_eq))
    b_eq[0] = 1.0
    a_eq = np.hstack([a_eq, np.zeros((len(a_eq), n - k))])

    def posed(level):
        cones = np.zeros((0 if tangent else 1, d + 1, n))
        cones[:, 0, :k] = -level
        cones[:, 1:, :k] = -A.T
        return _cone_program(obj, lin, h, cones, np.zeros(cones.shape[:2]),
                             2.0 if tangent else S.norms.q, a_eq, b_eq)

    def value(kernel):
        return float(np.min(kernel * u)) if ratio else float(c @ kernel)

    exact = posed(eps)
    box = _padded(np.ones(n), exact, eps)
    scale = float(np.sum(1.0 / u)) if ratio else 1.0
    best, lo, hi, hedge = None, -math.inf, math.inf, None
    levels = (eps,) if tangent or face is not None else (eps * (1.0 - _TIGHTEN), eps)
    for i, level in enumerate(levels):
        if i:
            SECOND_SOLVES[program] += 1
        prog = posed(level)
        res = solve_socp(prog)
        if res.status == "infeasible" and exact.certifies_infeasible(res.y, res.z, box):
            return None
        kernel = None if res.x is None else S.checked(res.x[:k], face, inside)
        if kernel is not None and value(kernel) > lo:
            best, lo = kernel, value(kernel)
        if res.status in ("optimal", "unsolved") and res.z is not None:
            H = np.zeros(d) if tangent else -_cone_tails(prog, res.z, d)[0]
            g = None
            if tangent:
                g = _orthogonal(res.y[1:1 + d], node.z)
            if ratio:
                lam = np.maximum(res.z[:k], 0.0)
                sigma = max(float(res.z[k + 1]), 0.0) if face is not None else 0.0
                cvec = lam if face is None else lam + sigma * face[0]
                weight = float(lam @ rhat)
                bound = math.inf
                if weight > 0.0:
                    cap = S.capital(cvec, S.cover(cvec, H, g), g)
                    bound = (cap - (sigma * face[1] if face is not None else 0.0)) / weight / scale
            else:
                H = S.cover(c, H, g)
                bound = S.capital(c, H, g)
            if bound < hi:
                hi, hedge = bound, (None if ratio else (H, g))
        if best is not None and (_gap_closed(lo * scale, hi * scale, 1e-9)
                                 or (ratio and hi - lo <= 1e-3 * lo)):
            break
    return best, lo, hi, hedge


# ---------------------------------------------------------------------------
# Scalar assets (d = 1): K_v(eps) = {kappa in the simplex : |kappa.a| <=
# eps}, a the children's increments, is a slab of the simplex, so a node
# program is an LP with three rows and a basic optimum has at most two
# nonzero weights.  Each is solved in closed form, in scalar arithmetic.
# Its kernel is that vertex, not pulled inside the set: the tree's leaf
# weights are checked to the rounding floor, as an LP vertex's are.  A
# tangent node's set is its face, K_v(gamma).
# ---------------------------------------------------------------------------

def _scalar_node(node: NodeGeometry, p: Optional[np.ndarray], values: np.ndarray, eps: float,
                 face, inside: Optional[np.ndarray]):
    """``_node_program`` at d = 1: the price (``_scalar_price``), or the
    ratio, on the face slice when one is given (``_scalar_ratio``)."""
    if node.state(eps) == "empty":
        return None
    NODE_PROGRAMS["scalar closed form"] += 1
    a = node.A[:, 0].tolist()
    level = max(eps, node.gamma)
    if p is None:
        return _scalar_price(a, values.tolist(), level, eps)
    inside = node.lam if inside is None else inside
    u = (values / p).tolist()
    if min(u) <= 0.0:  # a child of ratio 0
        return inside, 0.0, 0.0, None
    return _scalar_ratio(a, u, level, face, inside)


def _scalar_price(a: list, V: list, e: float, eps: float):
    """max kappa.V over the slab |kappa.a| <= e: the best child inside it,
    or a pair across one of its faces kappa.a = +-e.  The hedge H minimizes
    the capital max_w (V_w - H a_w) + e |H|, convex and piecewise linear in
    H, so it is 0 or a point where two children's terms cross.  Returns
    (kernel, value, the hedge's exact capital at eps, (H, None))."""
    k = len(a)
    best, pick = -math.inf, ()
    for i in range(k):
        if -e <= a[i] <= e and V[i] > best:
            best, pick = V[i], ((i, 1.0),)
    for i in range(k):
        for j in range(k):
            for b in ((e, -e) if e else (0.0,)):
                if a[i] < b < a[j]:
                    t = (a[j] - b) / (a[j] - a[i])
                    value = t * V[i] + (1.0 - t) * V[j]
                    if value > best:
                        best, pick = value, ((i, t), (j, 1.0 - t))

    def capital(H, level):
        return max(v - H * x for v, x in zip(V, a)) + level * abs(H)

    H = min([0.0] + [(V[i] - V[j]) / (a[i] - a[j]) for i in range(k) for j in range(i)
                     if a[i] != a[j]], key=lambda H: capital(H, e))
    kernel = np.zeros(k)
    for i, t in pick:
        kernel[i] = t
    return kernel, best, capital(H, eps), (np.array([H]), None)


def _scalar_ratio(a: list, u: list, e: float, face, inside: np.ndarray):
    """max min_w kappa_w u_w over the slab |kappa.a| <= e, on the face slice
    c.kappa >= level when ``face`` = (c, level).  With rhat = (1/u) /
    sum(1/u), a kernel of value t is s rhat + (1 - s) mu, mu in the simplex
    and s = t sum(1/u), so this is max s.  In the plane of (kappa.a,
    kappa.c) the kernel's point is s R + (1 - s) M, R rhat's and M one of
    the hull of the children's, and it must lie in the region F that the
    slab and the slice cut out.  A vertex optimum has s = 1 (R in F), or mu
    one child and s the largest on its segment to R, or, with the slice,
    mu on two children and the point at a corner of F, where M is the far
    end of the ray from the corner away from R.  Returns (kernel, its
    value, max s / sum(1/u), None), or ``inside`` and 0 when no s > 0 is
    feasible."""
    k = len(u)
    inv = [1.0 / x for x in u]
    total = sum(inv)
    r = [x / total for x in inv]
    c = [0.0] * k if face is None else face[0].tolist()
    R = (sum(x * y for x, y in zip(r, a)), sum(x * y for x, y in zip(r, c)))

    def rows(x, y):
        """F's rows at a point, each >= 0 inside: the slab's two sides, then the slice."""
        return (e - x, e + x) if face is None else (e - x, e + x, y - face[1])

    at_R = rows(*R)
    # R is a sum of k products: within _ROUND of F it is in F, as when
    # every child sits on the slab's side
    best, mu = (1.0 if min(at_R) >= -_ROUND * (e + max(map(abs, a))) else -1.0), ()
    for w in range(k if best < 1.0 else 0):
        lo, hi = 0.0, 1.0
        for f0, f1 in zip(rows(a[w], c[w]), at_R):
            if f1 < f0:
                hi = min(hi, f0 / (f0 - f1))
            elif f0 < 0.0:
                lo = max(lo, -f0 / (f1 - f0)) if f1 > f0 else math.inf
        if lo <= hi and hi > best:
            best, mu = hi, ((w, 1.0),)
    for x in ((e, -e) if e else (0.0,)) if face is not None and best < 1.0 else ():
        D0, D1 = x - R[0], face[1] - R[1]
        for i in range(k):
            for j in range(i):
                E0, E1 = a[i] - a[j], c[i] - c[j]
                g0, g1 = a[j] - x, c[j] - face[1]
                det = E0 * D1 - D0 * E1
                if det == 0.0:
                    continue
                t, theta = (E0 * g1 - g0 * E1) / det, (D0 * g1 - g0 * D1) / det
                if t >= 0.0 and 0.0 <= theta <= 1.0 and t / (1.0 + t) > best:
                    best, mu = t / (1.0 + t), ((i, theta), (j, 1.0 - theta))
    if best < 0.0:
        return inside, 0.0, 0.0, None
    kernel = best * np.array(r)
    for i, t in mu:
        kernel[i] += (1.0 - best) * t
    return kernel, min(x * y for x, y in zip(kernel.tolist(), u)), best / total, None


# ---------------------------------------------------------------------------
# Polytope nodes (d >= 2 at q = inf or eps = 0): K_v(eps) is the simplex cut
# by the 2d rows +-sum_w kappa_w dS(w)_i <= eps, so a node program is a
# small LP.  One row of an asset at most is tight at a vertex (both only at
# eps = 0, where they are one), so a basic optimum has at most d + 1
# children.  As at d = 1 the kernel is that vertex, checked on the leaf
# weights to the rounding floor, and no node takes a tangent face: its
# rows are its set, K_v(gamma) at a level within the floor below gamma.
# A node of k children has O(k^(d+1)) bases: past _BASES its program grows
# its columns from a feasible vertex (column generation, ``_grown``), each
# step an enumeration over a few columns.  Every upper bound is weak
# duality's at the chosen duals, recomputed over all children.
# ---------------------------------------------------------------------------

_VERTEX = 2.0 ** -46  # per |x|_1 max |row| + |rhs|: how far a basic solution passes a row by rounding
_BASES = 2 ** 9  # bases of one program enumerated at once; a program with more grows its columns
_BATCH = 2 ** 16  # bases of the programs of one batched solve
_GROWTH = 64  # column steps of a grown program


@lru_cache(maxsize=None)
def _basis_count(n: int, d: int, extra: int, free: tuple, most: int) -> int:
    """The number of bases ``_bases`` lists, without listing them."""
    return sum((math.comb(n, s) - math.comb(len(free), s))
               * sum(math.comb(d, a) * 2 ** a * math.comb(extra, s - 1 - a) for a in range(min(d, s - 1) + 1))
               for s in range(1, min(most, d + extra + 1) + 1))


@lru_cache(maxsize=16)
def _bases(n: int, d: int, extra: int, free: tuple, most: int):
    """Every basis of ``_vertex_lp`` over n columns and 2d + extra rows
    (asset i's are i and d + i): s <= ``most`` columns, not all ``free``,
    and s - 1 tight rows, never both of an asset (opposite rows are
    singular; in gamma's program both are tight only at gamma = 0, where
    one gives the same vertex).  As index arrays (rows, cols) into the
    table [e; G; 0] with a zero column appended, padded to m = min(most,
    d + extra + 1) columns with its zero row and column, and the identity
    on the padded diagonal."""
    r = 2 * d + extra
    m = min(most, d + extra + 1)
    cols, rows = [], []
    for s in range(1, m + 1):
        tight = [R for R in itertools.combinations(range(1, r + 1), s - 1)
                 if not any(i + d in R for i in R if i <= d)]
        for S, R in itertools.product(itertools.combinations(range(n), s), tight):
            if not set(S) <= set(free):
                cols.append(S + (n,) * (m - s))
                rows.append((0,) + R + (r + 1,) * (m - s))
    cols, rows = np.array(cols, dtype=np.int32), np.array(rows, dtype=np.int32)
    return rows, cols, (cols == n)[:, :, None] & np.eye(m, dtype=bool)


def _dual_bound(c: np.ndarray, e: np.ndarray, G: np.ndarray, h: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """Weak duality for ``_vertex_lp``'s programs (c (K, n), G (K, r, n),
    h (K, r)) at row duals y >= 0 (K, N, r): max c.x over x >= 0, e.x = 1,
    Gx <= h is at most max over e_j = 1 of c_j - y.G_j, plus h.y; inf
    where a column of e_j = 0 has c_j > y.G_j beyond _VERTEX of its
    terms (only gamma's program has one, and its h is recomputed).  (K, N)."""
    gain, free = c[:, None] - y @ G, e == 0.0
    bound = gain[..., ~free].max(axis=2) + (y @ h[:, :, None])[..., 0]
    over = gain[..., free] > _VERTEX * (np.abs(c[:, free])[:, None] + y @ np.abs(G[:, :, free]))
    return np.where(over.any(axis=2), math.inf, bound)


def _vertex_lp(c: np.ndarray, e: np.ndarray, G: np.ndarray, h: np.ndarray, d: int,
               start: Optional[np.ndarray], ratio: bool = False):
    """max c_j.x s.t. x >= 0, e.x = 1, G_j x <= h_j for K programs of one
    shape (c (K, n), G (K, r, n), h (K, r); the first 2d rows those of d
    assets) by their bases (``_bases``; no support of columns with e = 0
    alone): each a square system [e_S; G_RS] x_S = [1; h_R] and its
    transpose against c_S, all solved in one batch (or in batches of
    _BATCH bases).  Per program (x, y, found): the best x that meets every
    row to _VERTEX, clipped at 0 and scaled to e.x = 1; y the row duals,
    clipped at 0, of least ``_dual_bound`` among the feasible bases within
    _VERTEX of x's value (a degenerate vertex has several); whether a
    basis is feasible.  A ``ratio`` program maximizes s over kappa = s rhat
    + mu, whose column (the first) is rhat's mix of the others: no basis
    holds it and all the others.  A singular basis fails the batch, solved
    again without those whose |det| is rounding of its l1 bound.  A
    program of more than _BASES bases grows its columns from ``start``
    (K, n), columns that hold a feasible point (``_grown``); None
    enumerates every program."""
    K, r, n = G.shape
    shape = (n, d, r - 2 * d, tuple(np.flatnonzero(e == 0.0)), n - 1 if ratio else n)
    if start is not None and _basis_count(*shape) > _BASES:
        return tuple(np.array(z) for z in zip(*(
            _grown(c[i], e, G[i], h[i], d, start[i]) for i in range(K))))
    rows, cols, pad = _bases(*shape)
    N, m = cols.shape
    step = max(1, _BATCH // N)
    if K > step:
        return tuple(np.concatenate(z) for z in zip(*(
            _vertex_lp(c[i:i + step], e, G[i:i + step], h[i:i + step], d, None, ratio)
            for i in range(0, K, step))))
    table = np.zeros((K, r + 2, n + 1))
    table[:, 0, :n], table[:, 1:r + 1, :n] = e, G
    M = table[:, rows[:, :, None], cols[:, None, :]] + pad
    cz = np.concatenate([c, np.zeros((K, 1))], axis=1)
    hz = np.concatenate([np.ones((K, 1)), h, np.zeros((K, 1))], axis=1)
    Gt, j = table[:, 1:r + 1].transpose(0, 2, 1), np.arange(K)

    def solved(ok):
        X = np.zeros((K, N, n + 1))
        X[j[:, None, None], np.arange(N)[:, None], cols] = np.linalg.solve(M, hz[:, rows, None])[..., 0]
        feasible = ok & (X >= -_VERTEX).all(axis=2) & (X @ Gt - h[:, None] <= _VERTEX * (
            np.abs(X).sum(axis=2, keepdims=True) * np.abs(Gt).max(axis=1)[:, None]
            + np.abs(h)[:, None])).all(axis=2)
        value = np.where(feasible, (X @ cz[:, :, None])[..., 0], -math.inf)
        top, found = value.max(axis=1, keepdims=True), feasible.any(axis=1)
        x = np.maximum(X[j, np.argmax(value, axis=1), :n], 0.0)
        x /= np.where(found, x @ e, 1.0)[:, None]
        near = feasible & (value >= top - _VERTEX * (1.0 + np.abs(X) @ np.abs(cz)[:, :, None])[..., 0])
        kk, bb = np.nonzero(near)
        Y = np.zeros((K, N, r + 2))
        Y[kk[:, None], bb[:, None], rows[bb]] = np.linalg.solve(
            M[kk, bb].transpose(0, 2, 1), cz[kk[:, None], cols[bb], None])[..., 0]
        Y = np.maximum(Y[..., 1:r + 1], 0.0)
        return x, Y[j, np.where(near, _dual_bound(c, e, G, h, Y), math.inf).argmin(axis=1)], found

    try:
        return solved(True)
    except np.linalg.LinAlgError:
        ok = np.abs(np.linalg.det(M)) > 1e-12 * np.abs(M).sum(axis=3).prod(axis=2)
        M[~ok] = np.eye(m)
        return solved(ok)


def _grown(c: np.ndarray, e: np.ndarray, G: np.ndarray, h: np.ndarray, d: int,
           start: np.ndarray):
    """One program of ``_vertex_lp`` by column generation: solved on the
    columns of ``start`` and those of e = 0, then again with up to a
    basis of the columns of largest reduced cost against its duals, until
    none is positive (to _VERTEX) or after _GROWTH steps.  Past ``widest``
    columns (those of _BASES bases, or two bases) it keeps the optimal
    support, e = 0 and the columns of least reduced cost; a step that does
    not raise the value widens it by one, to at most _BATCH bases (a
    degenerate vertex can hold the value over several steps).  Its x is a
    vertex of the whole program, and ``_dual_bound`` certifies its duals
    over every column, as it does the enumerated ones'.  On columns short
    of all, a ratio's s is independent of the others, so no basis is
    excluded."""
    n, extra = len(c), len(h) - 2 * d
    m, pinned = d + extra + 1, e == 0.0
    keep, free = start | pinned, tuple(range(int(pinned.sum())))
    width = [next(w for w in itertools.count(1) if _basis_count(w, d, extra, free, w) > bound) - 1
             for bound in (_BASES, _BATCH)]
    widest, most = min(max(width[0], 2 * m + len(free)), width[1]), width[1]
    value = -math.inf
    for _ in range(_GROWTH):
        S = np.flatnonzero(keep)
        xs, y, found = (z[0] for z in _vertex_lp(c[None, S], e[S], G[None][:, :, S], h[None], d, None))
        x = np.zeros(n)
        x[S] = xs
        if not found:
            break
        gain = c - y @ G
        best = float(np.max(gain[S][e[S] == 1.0]))
        new = np.flatnonzero(~keep & (gain > best + _VERTEX * (1.0 + abs(best))))
        if not new.size:
            break
        widest = min(widest + (float(c @ x) <= value), most)
        value = float(c @ x)
        new = new[np.argsort(-gain[new], kind="stable")][:m]
        rank = np.where(pinned | (x > 0.0), math.inf, np.where(keep, gain, -math.inf))
        top = np.argsort(-rank, kind="stable")[:widest - len(new)]
        keep = np.zeros(n, dtype=bool)
        keep[top[rank[top] > -math.inf]] = keep[new] = True
    return x, y, found


def _polytope_nodes(nodes: list, p: Optional[np.ndarray], values: np.ndarray, eps: float,
                    norms: NormPair, faces: list, insides: list) -> list:
    """``_node_program`` for nodes of one child count (p and values one row
    each) on their polytopes K_v at level max(eps, gamma), one batched
    ``_vertex_lp`` (started from the least-norm weights, or ``insides``):
    the price max kappa.V, its hedge H = y+ - y- from the duals of the
    rows + and -, with no add-on and its capital recomputed at eps; or the
    ratio max s over kappa = s rhat + mu, mu >= 0 (rhat = (1/u) / sum(1/u)),
    on the face slice (c, level) of ``faces`` (all or none), of value
    s / sum(1/u), its bound the duals' (``_dual_bound``) over sum(1/u), and
    0 for a child of ratio 0.  One (kernel, lo, hi, hedge) per node, none
    of them where a child has no bound or no basis is feasible, and no
    bound (inf) at a ratio whose duals give none; when a node's set is
    empty, None for it."""
    states = [node.state(eps) for node in nodes]
    if "empty" in states:
        return [None if s == "empty" else (None, -math.inf, math.inf, None) for s in states]
    NODE_PROGRAMS["polytope vertex"] += len(nodes)
    A = np.array([node.A for node in nodes])
    K, k, d = A.shape
    rows = np.concatenate([A, -A], axis=2).transpose(0, 2, 1)
    level = np.repeat([[max(eps, node.gamma)] for node in nodes], 2 * d, axis=1)
    start = np.array([node.lam if x is None else x for node, x in zip(nodes, insides)]) > 0.0
    bad = ~np.isfinite(values).all(axis=1)  # a child without a bound
    failed = (None, -math.inf, math.inf, None)
    if p is None:
        x, y, found = _vertex_lp(np.where(bad[:, None], 0.0, values), np.ones(k), rows, level, d, start)
        H = y[:, :d] - y[:, d:]
        capital = (values - (A @ H[:, :, None])[..., 0]).max(axis=1) + eps * qnorm(H, norms.p)
        return [(x[i], float(values[i] @ x[i]), float(capital[i]), (H[i], None))
                if found[i] and not bad[i] else failed for i in range(K)]
    u = values / p
    zero = ~bad & (u.min(axis=1) <= 0.0)
    inv = 1.0 / np.where((bad | zero)[:, None], 1.0, u)
    rhat = inv / inv.sum(axis=1, keepdims=True)
    if faces[0] is not None:
        rows = np.concatenate([rows, -np.array([f[0] for f in faces])[:, None]], axis=1)
        level = np.hstack([level, -np.array([[f[1]] for f in faces])])
    c, G = np.eye(1, k + 1).repeat(K, axis=0), np.concatenate([rows @ rhat[:, :, None], rows], axis=2)
    x, y, found = _vertex_lp(c, np.ones(k + 1), G, level, d, np.hstack([np.ones((K, 1), bool), start]),
                             ratio=True)
    kernel = x[:, :1] * rhat + x[:, 1:]
    hi = _dual_bound(c, np.ones(k + 1), G, level, y[:, None])[:, 0] / inv.sum(axis=1)
    return [failed if bad[i] or not found[i] else
            (nodes[i].lam if insides[i] is None else insides[i], 0.0, 0.0, None) if zero[i] else
            (kernel[i], float(np.min(kernel[i] * u[i])), float(hi[i]), None) for i in range(K)]


def _induction(program: str, model: MarketModel, eps: float, norms: NormPair,
               leaf_values: np.ndarray, p: Optional[np.ndarray] = None, faces=None,
               insides=None):
    """The node programs of ``program`` from the deepest internal node up
    (``_node_program``; on polytopes ``_polytope_nodes``, for the nodes of
    one time and child count at once; p the reference kernel per node,
    None at a price; ``faces`` and ``insides`` per node, for the face
    program): (kernels, lo, hi, hedges, doubt) with lo and hi per node and
    ``doubt`` the first node left without a checked kernel or with a
    bracket wider than 1e-9, else None; None when a node's set is empty,
    which is logged as the deciding node."""
    geometry = node_geometry(model, norms.q)
    lo = np.zeros(model.n_nodes)
    hi = np.zeros(model.n_nodes)
    lo[list(model.leaves)] = hi[list(model.leaves)] = leaf_values
    kernels, hedges, doubt = {}, {}, None
    polytope = _polytope(model, norms.q, eps)
    # polytope nodes of one time and child count run as one batch, others one by one
    batch = (lambda v: (model.times[v], len(model.children[v]))) if polytope else None
    for _, group in itertools.groupby(sorted(model.internal, key=lambda v: -model.times[v]), batch):
        group = list(group)
        kids = [list(model.children[v]) for v in group]
        face, inside = ([None if x is None else x[v] for v in group] for x in (faces, insides))
        if polytope:
            outs = _polytope_nodes([geometry[v] for v in group], None if p is None else p[kids],
                                   hi[kids], eps, norms, face, inside)
        else:
            outs = [_node_program(program, geometry[group[0]], None if p is None else p[kids[0]],
                                  hi[kids[0]], eps, norms, face[0], inside[0])]
        for v, out in zip(group, outs):
            if out is None:
                _log.debug("%s: node %s decides: its set is empty at eps %r", program,
                           model.ids[v], eps)
                return None
            kernels[v], lo[v], hi[v], hedges[v] = out
            if doubt is None and (out[0] is None or not _gap_closed(out[1], out[2], 1e-9)):
                doubt = v
    return kernels, lo, hi, hedges, doubt


def _product(model: MarketModel, kernels: dict, root_kernel: np.ndarray) -> Optional[np.ndarray]:
    """The leaf weights of the product of the node kernels, with
    ``root_kernel`` over the time-0 nodes; None when a kernel is missing."""
    if any(k is None for k in kernels.values()):
        return None
    mass = np.zeros(model.n_nodes)
    mass[list(model.roots)] = root_kernel
    for v in model.order:
        if model.children[v]:
            mass[list(model.children[v])] = mass[v] * kernels[v]
    return mass[list(model.leaves)]


def _ratio_induction(program: str, model: MarketModel, eps: float, norms: NormPair,
                     p: np.ndarray, faces=None, insides=None):
    """The ratio max min q / P (p the reference kernel per node, P's) by
    induction: (q, upper bound, the node of least upper ratio, doubt), or
    None when a node's set is empty.  The time-0 nodes combine with weights
    proportional to p_r / V(r), which gives 1 / sum_r p_r / V(r)."""
    out = _induction(program, model, eps, norms, np.ones(model.n_leaves), p, faces, insides)
    if out is None:
        return None
    kernels, _, hi, _, doubt = out
    roots = list(model.roots)
    u = hi[roots] / p[roots]
    root_kernel = p[roots] / float(np.sum(p[roots]))
    bound = 0.0
    if np.min(u) > 0.0:
        inverse = float(np.sum(1.0 / u))
        bound = 1.0 / inverse if inverse > 0.0 else math.inf
        if np.all(np.isfinite(u)):
            root_kernel = (1.0 / u) / inverse
    # the node whose own upper ratio (its value against its children's
    # best, s = V(v) sum_w p_w / V(w)) is least: the one that decides
    with np.errstate(all="ignore"):
        own = {v: hi[v] * float(np.sum(p[list(model.children[v])] / hi[list(model.children[v])]))
               for v in model.internal}
    least = min(model.internal, key=lambda v: own[v] if own[v] == own[v] else math.inf)
    return _product(model, kernels, root_kernel), bound, least, doubt


@_kept_results
def _price_induction(model: MarketModel, eps: float, norms: NormPair, c: np.ndarray):
    """sup c.q over the closed eps-martingale set by induction: None when a
    node's set is empty, else (q, c.q, capital, hedge, lo, hi, kernels): q
    the product of the checked kernels (None without), with all mass on a
    time-0 node of largest upper value, the super-hedge (capital, strategy,
    {node: add-on}, leaf slacks) composed of the node hedges, its capital
    raised to cover every exact leaf slack (None without a hedge at every
    node), and the nodes' values lo (their kernels' against hi) and upper
    values hi.  A bracket wider than 1e-9 (relative) is counted in
    ``CONIC_FALLBACKS``.  Kept on the model (``_kept_results``): the face
    program reads it again."""
    out = _induction("cone_linear_optimum", model, eps, norms, c)
    if out is None:
        return None
    kernels, lo, hi, hedges, doubt = out
    roots = list(model.roots)
    top = int(np.argmax(hi[roots]))
    q = _product(model, kernels, np.eye(len(roots))[top])
    hedge = None
    if all(h is not None for h in hedges.values()):
        ops = tree_ops(model)
        H = np.array([hedges[v][0] for v in ops.internal]).ravel()
        add_on = {v: hedges[v][1] for v in ops.internal if hedges[v][1] is not None}
        rest = _leaf_gain_cost(ops, norms, H, eps) - c
        for j, v in enumerate(ops.internal):
            if v in add_on:
                rest = rest + ops.coeff[:, j, :] @ add_on[v]
        capital = max(float(hi[roots][top]), -float(np.min(rest)))
        hedge = (capital, strategy_from_packed(ops, H), add_on, capital + rest)
    value = -math.inf if q is None else float(c @ q)
    capital = math.inf if hedge is None else hedge[0]
    if not _gap_closed(value, capital, 1e-9):
        _fallback("cone_linear_optimum", "bracket wider than 1e-9")
        if doubt is not None:
            _log.debug("cone_linear_optimum: node %s leaves the bracket open", model.ids[doubt])
    return q, value, capital, hedge, lo, hi, kernels


def _leaf_check(ops: TreeOps, eps: float, norms: NormPair, q: np.ndarray,
                faces: Optional[dict] = None):
    """The least exact node margin of leaf weights q and the floor it must
    reach: 0 for kernels checked inside their sets (tangent nodes: on the
    face, ``faces`` or ``_tangent_faces``), and minus the rounding floor
    _FLOOR (1 + max |coeff|) on polyhedral geometry, whose kernels are LP
    vertices."""
    if _polyhedral(ops.model, norms, eps):
        return (float(np.min(_cone_margins(ops, eps, norms, q))),
                -_FLOOR * (1.0 + float(np.max(np.abs(ops.coeff)))))
    if faces is None:
        faces = _tangent_faces(ops, eps, norms.q)
    return float(np.min(_cone_margins(ops, eps, norms, q, faces))), 0.0


@_kept_results
def interior_feasibility(model: MarketModel, eps: float, norms: NormPair, eta: float):
    """Decide the eta-interior cone program q >= eta P, sum q = 1, node cones.

    Returns (status, q, rho, rho_upper_bound, margin) with status in
    {feasible, infeasible, indeterminate}.  A feasible verdict carries
    weights with q >= eta P, checked elementwise, and node margins >= 0
    (``_leaf_check``).  The node geometry, then the ratio induction over
    node programs (``_ratio_induction``): the set is empty when a node's
    is (no bound), and rho* = 0 when a tangent face puts weight 0 on a
    leaf; otherwise the product of the node kernels is the witness when it
    passes the checks, a composed upper bound below eta decides
    infeasible, and anything else is indeterminate, with that bound.  The
    node behind an infeasible or indeterminate verdict is logged at DEBUG.
    The result is kept on the model (``_kept_results``).
    """
    program, ops = "interior_feasibility", tree_ops(model)
    faces = _tangent_faces(ops, eps, norms.q, program)
    if faces is None:
        return "infeasible", None, None, None, None
    zero = [ops.internal[j] for j, (_, off) in faces.items() if off.any()]
    if zero:
        _log.debug("%s: node %s decides: its face puts weight 0 on a leaf", program,
                   model.ids[zero[0]])
        return "infeasible", None, None, 0.0, None
    out = _ratio_induction(program, model, eps, norms, model.cond_prob)
    if out is None:
        return "infeasible", None, None, None, None
    q, bound, least, doubt = out
    P = model.leaf_prob
    if q is not None:
        margin, floor = _leaf_check(ops, eps, norms, q, faces)
        if margin >= floor and np.all(q >= eta * P):
            return "feasible", q, float(np.min(q / P)), bound, margin
    if bound < eta:
        _log.debug("%s: node %s decides: rho* <= %r, below eta", program, model.ids[least], bound)
        return "infeasible", None, None, bound, None
    _fallback(program, "no checked witness or bound")
    _log.debug("%s: node %s leaves the verdict open", program,
               model.ids[least if doubt is None else doubt])
    return "indeterminate", None, None, bound if bound < math.inf else None, None


@_kept_results
def cone_linear_optimum(model: MarketModel, eps: float, norms: NormPair,
                        leaf_objective: np.ndarray, sense: str, anchor: Optional[np.ndarray]):
    """Optimize a linear leaf functional over the closed cone-feasible set.

    Returns (value, q, bound, hedge), all None when the closed set is
    empty: value = c.q at exactly feasible q, bound the certified other end
    of the optimum, and ``hedge`` = (capital, strategy, {node: add-on},
    leaf slacks) an exact super-replication of c (sense max) or -c (min),
    its leaf slacks and capital (the least that covers them) recomputed
    exactly: the price induction over node programs (``_price_induction``),
    whose composed node hedges give ``hedge`` (no add-on on polyhedral
    geometry), with its capital (negated for min) the bound.  ``anchor``,
    an exactly feasible point, is the q returned when a node gives no
    checked kernel.  The result is kept on the model (``_kept_results``).
    """
    c = np.asarray(leaf_objective, dtype=float)
    sgn = 1.0 if sense == "max" else -1.0
    nodes = _price_induction(model, eps, norms, sgn * c)
    if nodes is None:
        return (None,) * 4
    q, value, capital, hedge = nodes[:4]
    if q is None and anchor is not None:
        q, value = anchor, float(sgn * c @ anchor)
    # + 0.0: a zero price of the min sense is 0.0, not sgn's -0.0
    return sgn * value + 0.0, q, sgn * capital + 0.0, hedge


def max_min_weight_on_face(model: MarketModel, eps: float, norms: NormPair,
                           leaf_objective: np.ndarray, target: float, sense: str = "max"):
    """max (min leaf weight) over cone-feasible q with c.q within 1e-9 (1 + |target|)
    of target, the optimum of c in ``sense``, as (min weight, q, decided),
    or (0.0, None, True) when there is none.

    It only decides whether it reaches _ATTAINED.  An equivalent measure
    attains the optimum exactly when every node's optimal face holds a
    full-support kernel, so it is the ratio induction with P = 1 on each
    node's face, the kernels within _FACE of the node's price against its
    children's upper values (from the kept ``_price_induction``): q, with
    each kernel mixed toward the price's when it falls short (an LP vertex
    kernel is mixed with nothing), is returned when it passes the checks,
    reaches _ATTAINED and lies on the slice; a composed bound below
    _ATTAINED decides the other way; it says when it cannot decide.  A
    time-0 node whose upper price is below another's lower one takes no
    mass at the optimum: not attained.
    """
    program, ops = "max_min_weight_on_face", tree_ops(model)
    c = np.asarray(leaf_objective, dtype=float)
    sgn = 1.0 if sense == "max" else -1.0
    nodes = _price_induction(model, eps, norms, sgn * c)
    if nodes is None:
        return 0.0, None, True
    _, _, _, _, lo, hi, kernels = nodes
    if any(k is None for k in kernels.values()):
        _fallback(program, "a node has no checked price kernel")
        return 0.0, None, False
    # E[sgn c | v] under the price kernels, at most the true value: a time-0
    # node whose upper value is below another's, by more than the slices'
    # _FACE, takes no mass at the optimum (a vertex kernel's value can pass
    # its own node's hedge capital by rounding)
    below = np.zeros(model.n_nodes)
    below[list(model.leaves)] = sgn * c
    for v in sorted(model.internal, key=lambda v: -model.times[v]):
        below[v] = float(kernels[v] @ below[list(model.children[v])])
    roots = list(model.roots)
    top = float(np.max(below[roots]))
    if float(np.min(hi[roots])) < top - _FACE * (1.0 + abs(top)):
        return 0.0, None, True
    slices = {v: (hi[list(model.children[v])], lo[v] - _FACE * (1.0 + abs(lo[v])))
              for v in model.internal}
    out = _ratio_induction(program, model, eps, norms, np.ones(model.n_nodes), slices, kernels)
    if out is None:
        return 0.0, None, True
    q, bound, least, doubt = out
    if q is not None and float(np.min(q)) >= _ATTAINED:
        on_slice = abs(float(c @ q) - target) <= 1e-9 * (1.0 + abs(target))
        if on_slice:
            margin, floor = _leaf_check(ops, eps, norms, q)
            if margin >= floor:
                return float(np.min(q)), q, True
    if bound < _ATTAINED:
        return max(bound, 0.0), None, True
    _fallback(program, "no checked witness or bound")
    _log.debug("%s: node %s leaves attainment open", program,
               model.ids[least if doubt is None else doubt])
    return max(bound, 0.0), None, False


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
    """gamma(v) = min over child-simplex weights of |sum_w a_w dS(w)|_q:
    |dS| of one child at d >= 2, else read from the node geometry, kept on
    the model (:func:`node_geometry`): the norm of a point of the hull,
    exact at d = 1 (a closed form), q = 2 (Wolfe's point) and q = inf (a
    vertex of its LP).
    """
    A = model.delta[list(model.children[v])]
    if len(A) == 1 and model.d > 1:
        return qnorm(A[0], norms.q)
    return node_geometry(model, norms.q)[v].gamma


def node_strict_arbitrage(model: MarketModel, v: int, eps: float, norms: NormPair,
                          gamma: Optional[float] = None, with_certificate: bool = True):
    """Exact one-node strict-arbitrage decision; returns (found, h, gamma).

    At d = 1 it is a sign test: strict arbitrage at eps exists exactly when
    h = +1 or h = -1 has every slack h dS(w) - eps >= 0 and some slack > 0,
    and that h is the certificate.  Other polyhedral nodes (q = inf, or
    eps = 0) run the tree's strategy LPs on the node's one-period market
    (its children as leaves), with the l1 norms, whose sign they share: the
    maximin LP certifies gamma > eps, and at gamma = eps the sign of the
    sum LP decides.  Every other node reads its geometry and solves
    nothing: above the band, 1e-8 (1 + max |dS|) around gamma = eps, its
    unit strategy h has worst slack low - eps (gamma - eps at q = 2), and
    in the band the face of the least-norm point decides.
    """
    A = model.delta[list(model.children[v])]
    band = _NODE_BAND * (1.0 + float(np.max(np.abs(A))))
    if gamma is None:
        gamma = node_min_simplex_deviation(model, v, norms)
    if model.d == 1:
        for h in (1.0, -1.0):
            slack = h * A[:, 0] - eps
            if slack.min() >= 0.0 and slack.max() > 0.0:
                return True, (np.array([h]) if with_certificate else None), gamma
        return False, None, gamma
    if _polyhedral(model, norms, eps):
        ops = TreeOps(None, (v,), A[:, None, :], np.ones((A.shape[0], 1)))
        if gamma > eps + band:
            if not with_certificate:
                return True, None, gamma
            margin, h, _, _ = strict_arbitrage_maximin_program(ops, eps, NormPair(1.0))
            if h is not None and margin > 0:
                return True, h, gamma
            # Numerically at the threshold: fall through to the boundary analysis.
        if gamma < eps - band:
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
