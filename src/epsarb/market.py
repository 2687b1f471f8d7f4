"""Finite event-tree markets: prices, strategies, measures, Doob splits.

A market is a rooted tree (or a forest of time-0 nodes when the initial
price is random) with strictly positive conditional probabilities and a
d-dimensional price vector at every node.  Filtration = tree levels, so a
predictable strategy attaches one vector to every non-terminal node: the
holdings over the following period.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

# Constraint-satisfaction tolerance (negative leaf weights) vs exact-identity
# tolerance (probabilities summing to one).
FEAS_TOL = 1e-10
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class NormPair:
    """Conjugate exponents: p in [1, inf) for strategies, q for measure deviations.

    1/p + 1/q = 1 holds exactly, with q = inf if and only if p = 1.
    """

    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        p = float(self.p)
        if not (1.0 <= p < math.inf):
            raise ValueError(f"p must lie in [1, inf), got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", math.inf if p == 1.0 else p / (p - 1.0))

    def norm(self, x: np.ndarray) -> float:
        """|x|_p on R^d."""
        return qnorm(x, self.p)

    def dual_norm(self, x: np.ndarray) -> float:
        """|x|_q on R^d (max-norm when p = 1)."""
        return qnorm(x, self.q)

    def dual_vector(self, x: np.ndarray) -> np.ndarray:
        """The vector x* with x . x* = |x|_p and |x*|_q = 1 (x nonzero)."""
        return qnorm_grad(x, self.p, self.norm(x))


def qnorm(x: np.ndarray, r: float):
    """|x|_r along the last axis: a float for a vector, an array for a stack.

    r = 2 is the square root of the dot product (of a batched matmul for a
    stack), r = inf the largest absolute entry (0 for an empty vector), and
    any other r the r-th root of the sum of |x_i|^r.
    """
    x = np.asarray(x, dtype=float)
    if r == math.inf:
        out = np.max(np.abs(x), axis=-1, initial=0.0)
    elif r == 2.0:
        if x.ndim == 1:
            return float(np.sqrt(np.dot(x, x)))
        out = np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])
    else:
        out = np.sum(np.abs(x) ** r, axis=-1) ** (1.0 / r)
    return float(out) if x.ndim == 1 else out


def qnorm_grad(x: np.ndarray, r: float, norm) -> np.ndarray:
    """Gradient of |x|_r along the last axis, given ``norm`` = qnorm(x, r).

    For finite r it is x*_i = sgn(x_i) (|x_i| / |x|_r)^(r-1), so that
    x . x* = |x|_r and |x*|_r' = 1 for the conjugate r'; at r = inf it is
    the sign of the first entry of largest magnitude.  Zero where x = 0.
    """
    x = np.asarray(x, dtype=float)
    if r == math.inf:
        g = np.zeros_like(x)
        if x.shape[-1]:
            i = np.argmax(np.abs(x), axis=-1)[..., None]
            np.put_along_axis(g, i, np.sign(np.take_along_axis(x, i, axis=-1)), axis=-1)
        return g
    # A zero norm divides a zero vector, whose sign is already zero.
    nrm = np.where(norm > 0.0, norm, 1.0)[..., None]
    return np.sign(x) * (np.abs(x) / nrm) ** (r - 1.0)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MarketModel:
    """Event tree with asset prices; doubles as a finitely supported path law.

    ``parent[i] == -1`` marks a time-0 node.  The usual case is a single
    time-0 node with ``cond_prob == 1``; several time-0 nodes (a forest under
    an implicit root) encode a random initial price, in which case each
    carries its own probability and trading at time 1 may condition on it.
    """

    T: int
    d: int
    ids: tuple
    times: np.ndarray
    parent: np.ndarray
    cond_prob: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        object.__setattr__(self, "times", _as_readonly(np.asarray(self.times, dtype=int)))
        object.__setattr__(self, "parent", _as_readonly(np.asarray(self.parent, dtype=int)))
        object.__setattr__(self, "cond_prob", _as_readonly(np.asarray(self.cond_prob, dtype=float)))
        prices = np.asarray(self.prices, dtype=float).reshape(n, self.d)
        object.__setattr__(self, "prices", _as_readonly(prices))

        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            p = int(self.parent[i])
            if p >= 0:
                children[p].append(i)
        object.__setattr__(self, "children", tuple(tuple(c) for c in children))
        object.__setattr__(self, "roots", tuple(i for i in range(n) if self.parent[i] < 0))
        object.__setattr__(self, "order", tuple(np.argsort(self.times, kind="stable").tolist()))
        leaves = tuple(i for i in range(n) if not children[i])
        internal = tuple(i for i in range(n) if children[i])
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "internal", internal)
        object.__setattr__(self, "index", {nid: i for i, nid in enumerate(self.ids)})

        prob = np.zeros(n)
        for i in self.order:
            p = int(self.parent[i])
            prob[i] = self.cond_prob[i] * (prob[p] if p >= 0 else 1.0)
        object.__setattr__(self, "node_prob", _as_readonly(prob))
        object.__setattr__(self, "leaf_prob", _as_readonly(prob[list(leaves)]))

        delta = prices.copy()
        has_parent = self.parent >= 0
        delta[has_parent] = prices[has_parent] - prices[self.parent[has_parent]]
        object.__setattr__(self, "delta", _as_readonly(delta))

        under: list[list[int]] = [[] for _ in range(n)]
        for k, leaf in enumerate(leaves):
            v = leaf
            while v >= 0:
                under[v].append(k)
                v = int(self.parent[v])
        object.__setattr__(self, "leaves_under", tuple(tuple(u) for u in under))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def path_to(self, leaf: int) -> list[int]:
        """Node indices from the time-0 node down to ``leaf`` inclusive."""
        path = []
        v = leaf
        while v >= 0:
            path.append(v)
            v = int(self.parent[v])
        return path[::-1]

    @staticmethod
    def from_nodes(T: int, d: int, nodes: Sequence[Mapping]) -> "MarketModel":
        """Build from records ``{id, time, parent (None for time-0), cond_prob, prices}``."""
        ids = [str(nd["id"]) for nd in nodes]
        idx = {nid: i for i, nid in enumerate(ids)}
        if len(idx) != len(ids):
            raise ValueError("duplicate node ids")
        times = [int(nd["time"]) for nd in nodes]
        parent = [-1 if nd.get("parent") is None else idx[str(nd["parent"])] for nd in nodes]
        cond = [float(nd.get("cond_prob", 1.0)) for nd in nodes]
        prices = [np.asarray(nd["prices"], dtype=float) for nd in nodes]
        return MarketModel(T=T, d=d, ids=tuple(ids), times=np.array(times),
                           parent=np.array(parent), cond_prob=np.array(cond),
                           prices=np.vstack([p.reshape(1, d) for p in prices]))

    @staticmethod
    def from_paths(paths: np.ndarray, probs: np.ndarray) -> "MarketModel":
        """Build the tree of a path law given atoms ``paths`` of shape (m, T+1, d).

        Atoms sharing a time-t prefix (exact float equality) share the
        corresponding tree node.
        """
        paths = np.asarray(paths, dtype=float)
        if paths.ndim == 2:
            paths = paths[:, :, None]
        m, steps, d = paths.shape
        T = steps - 1
        probs = np.asarray(probs, dtype=float)
        nodes: dict[tuple, dict] = {}
        for a in range(m):
            for t in range(T + 1):
                key = tuple(map(tuple, paths[a, : t + 1]))
                rec = nodes.setdefault(key, {"time": t, "prices": paths[a, t], "mass": 0.0,
                                             "parent": key[:-1] if t > 0 else None})
                rec["mass"] += probs[a]
        keys = sorted(nodes, key=lambda k: (len(k), k))
        key_id = {k: f"n{i}" for i, k in enumerate(keys)}
        recs = []
        for k in keys:
            rec = nodes[k]
            pk = rec["parent"]
            cond = rec["mass"] / nodes[pk]["mass"] if pk is not None else rec["mass"]
            recs.append({"id": key_id[k], "time": rec["time"],
                         "parent": key_id[pk] if pk is not None else None,
                         "cond_prob": cond, "prices": rec["prices"]})
        return MarketModel.from_nodes(T, d, recs)

    def leaf_paths(self) -> np.ndarray:
        """Price paths per leaf, shape (n_leaves, T+1, d)."""
        out = np.zeros((self.n_leaves, self.T + 1, self.d))
        for k, leaf in enumerate(self.leaves):
            for v in self.path_to(leaf):
                out[k, self.times[v]] = self.prices[v]
        return out


# A path law is the same tree structure read as a measure on R^{d(T+1)}.
PathLaw = MarketModel


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _check_level(name: str, value: float, positive: bool) -> None:
    """Raise ValueError unless a cost level or interior parameter is finite
    and non-negative (positive when ``positive``); NaN fails both."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ValueError(f"{name} must be finite and {name + ' > 0' if positive else 'non-negative'}")


def validate_market(model: MarketModel) -> ValidationReport:
    """Report every violated structural invariant; valid iff the report is empty.

    Every check runs over all nodes at once and only flagged nodes are
    visited for their messages: per node in index order (time, time-0
    parent, parent time, probability, prices, leaf depth), then sibling
    sums in ``model.internal`` order, then the time-0 mass.  Sibling sums
    come from one ``bincount``; a sum that another summation order could
    move across the bound, or that fails it, is summed again by ``np.sum``
    before it is judged and printed, so the report is that of a per-node
    ``np.sum``.
    """
    bad: list[str] = []
    if model.T < 1:
        bad.append(f"horizon T={model.T} < 1")
    if model.d < 1:
        bad.append(f"dimension d={model.d} < 1")
    n, times, parent, prob = model.n_nodes, model.times, model.parent, model.cond_prob
    has_parent = parent >= 0
    kids = parent[has_parent]
    count = np.bincount(kids, minlength=n)  # children per node
    parent_time = np.where(has_parent, times[np.where(has_parent, parent, 0)], times - 1)
    checks = (
        (times < 0) | (times > model.T),
        ~has_parent & (times != 0),
        parent_time != times - 1,
        ~((prob > 0.0) & (prob <= 1.0)),
        ~np.isfinite(model.prices).all(axis=1),
        (count == 0) & (times != model.T),
    )
    for i in np.flatnonzero(np.logical_or.reduce(checks)).tolist():
        nid, t = model.ids[i], int(times[i])
        if checks[0][i]:
            bad.append(f"node {nid} has time {t} outside 0..{model.T}")
        if checks[1][i]:
            bad.append(f"node {nid} has no parent but time {t} != 0")
        if checks[2][i]:
            bad.append(f"node {nid} at time {t} has parent at time {int(parent_time[i])}")
        if checks[3][i]:
            bad.append(f"node {nid} conditional probability {prob[i]} outside (0,1]")
        if checks[4][i]:
            bad.append(f"node {nid} has non-finite prices")
        if checks[5][i]:
            bad.append(f"leaf at wrong depth: node {nid} has no children at time {t} < T={model.T}")
    sums = np.bincount(kids, weights=prob[has_parent], minlength=n)
    # Two summation orders of k terms differ by at most 2 (k - 1) u sum |a|.
    slack = np.finfo(float).eps * count * np.bincount(kids, weights=np.abs(prob[has_parent]),
                                                      minlength=n)
    for v in np.flatnonzero((count > 0) & ~(np.abs(sums - 1.0) <= EXACT_TOL - slack)).tolist():
        s = float(np.sum(prob[list(model.children[v])]))
        if abs(s - 1.0) > EXACT_TOL:
            bad.append(f"sibling probabilities sum {s:.12g} != 1 under node {model.ids[v]}")
    root_mass = float(np.sum(prob[list(model.roots)]))
    if abs(root_mass - 1.0) > EXACT_TOL:
        bad.append(f"time-0 probabilities sum {root_mass:.12g} != 1")
    return ValidationReport(tuple(bad))


@dataclass(frozen=True)
class Strategy:
    """Predictable plan: row v holds the vector traded over the period after node v.

    Rows are meaningful on internal (non-terminal) nodes only; predictability
    is structural.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_readonly(np.asarray(self.values, dtype=float)))

    @staticmethod
    def zeros(model: MarketModel) -> "Strategy":
        return Strategy(np.zeros((model.n_nodes, model.d)))

    @staticmethod
    def from_dict(model: MarketModel, holdings: Mapping[str, Sequence[float]]) -> "Strategy":
        vals = np.zeros((model.n_nodes, model.d))
        for nid, h in holdings.items():
            vals[model.index[str(nid)]] = np.asarray(h, dtype=float)
        return Strategy(vals)

    @staticmethod
    def constant(model: MarketModel, h: Sequence[float]) -> "Strategy":
        """The same vector at every internal node (a buy-and-hold-per-period plan)."""
        vals = np.zeros((model.n_nodes, model.d))
        vals[list(model.internal)] = np.asarray(h, dtype=float)
        return Strategy(vals)


def _check_strategy(model: MarketModel, strategy: Strategy) -> None:
    if strategy.values.shape != (model.n_nodes, model.d):
        raise ValueError(
            f"strategy shape {strategy.values.shape} does not match market "
            f"({model.n_nodes} nodes, d={model.d})")


def gain(model: MarketModel, strategy: Strategy) -> np.ndarray:
    """Terminal gain (H . S)_T per leaf: sum of H_t . (S_t - S_(t-1)) along the path."""
    _check_strategy(model, strategy)
    acc = np.zeros(model.n_nodes)
    for i in model.order:
        p = int(model.parent[i])
        if p >= 0:
            acc[i] = acc[p] + float(np.dot(strategy.values[p], model.delta[i]))
    return acc[list(model.leaves)]


def strategy_cost(model: MarketModel, strategy: Strategy, norms: NormPair) -> np.ndarray:
    """Path-dependent norm cost |H|_p summed over trading periods, per leaf."""
    _check_strategy(model, strategy)
    node_cost = np.zeros(model.n_nodes)
    for v in model.internal:
        node_cost[v] = norms.norm(strategy.values[v])
    acc = np.zeros(model.n_nodes)
    for i in model.order:
        p = int(model.parent[i])
        acc[i] = node_cost[i] + (acc[p] if p >= 0 else 0.0)
    return acc[list(model.leaves)]


@dataclass(frozen=True)
class MeasureWeights:
    """A candidate measure as leaf weights >= 0 summing to one.

    ``equivalent`` is True iff every weight is positive, so the measure
    shares the null sets of the reference model.
    """

    weights: np.ndarray
    equivalent: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _as_readonly(np.asarray(self.weights, dtype=float)))

    @staticmethod
    def from_array(model: MarketModel, w: np.ndarray) -> "MeasureWeights":
        w = np.asarray(w, dtype=float)
        if w.shape != (model.n_leaves,):
            raise ValueError(f"expected {model.n_leaves} leaf weights, got shape {w.shape}")
        if np.any(w < -FEAS_TOL):
            raise ValueError("negative leaf weight")
        if abs(float(np.sum(w)) - 1.0) > 1e-9:
            raise ValueError(f"leaf weights sum to {float(np.sum(w))!r}, expected 1")
        return MeasureWeights(np.maximum(w, 0.0), bool(np.min(w) > 0.0))

    @staticmethod
    def from_dict(model: MarketModel, mapping: Mapping[str, float]) -> "MeasureWeights":
        w = np.zeros(model.n_leaves)
        leaf_pos = {model.ids[leaf]: k for k, leaf in enumerate(model.leaves)}
        for nid, val in mapping.items():
            if str(nid) not in leaf_pos:
                raise ValueError(f"weight given for unknown leaf id {nid!r}")
            w[leaf_pos[str(nid)]] = float(val)
        return MeasureWeights.from_array(model, w)

    @staticmethod
    def reference(model: MarketModel) -> "MeasureWeights":
        """The model's own law P as leaf weights."""
        return MeasureWeights(model.leaf_prob.copy(), True)

    def to_dict(self, model: MarketModel) -> dict:
        return {model.ids[leaf]: float(self.weights[k]) for k, leaf in enumerate(model.leaves)}

    def node_mass(self, model: MarketModel) -> np.ndarray:
        """Aggregated subtree mass per node (the measure of the node's cylinder)."""
        mass = np.zeros(model.n_nodes)
        for k, leaf in enumerate(model.leaves):
            mass[leaf] = self.weights[k]
        for i in reversed(model.order):
            p = int(model.parent[i])
            if p >= 0:
                mass[p] += mass[i]
        return mass

    def density(self, model: MarketModel) -> np.ndarray:
        """dQ/dP on leaves."""
        return self.weights / model.leaf_prob


@dataclass(frozen=True)
class NodeMean:
    """One-step conditional mean increment at an internal node.

    ``cone`` is sum_w Q(w) dS(w) (well defined even when the node mass
    vanishes); ``mean`` = cone / mass, or None when degenerate.
    """

    node: int
    mass: float
    cone: np.ndarray
    mean: Optional[np.ndarray]
    degenerate: bool


def conditional_mean_increments(model: MarketModel, measure: MeasureWeights) -> dict[int, NodeMean]:
    """E_Q[dS_t | F_(t-1)] - 0 at every internal node, in cone form when Q-null."""
    mass = measure.node_mass(model)
    out: dict[int, NodeMean] = {}
    for v in model.internal:
        kids = list(model.children[v])
        cone = np.einsum("k,kd->d", mass[kids], model.delta[kids])
        degenerate = mass[v] <= 0.0
        mean = None if degenerate else cone / mass[v]
        out[v] = NodeMean(v, float(mass[v]), cone, mean, bool(degenerate))
    return out


@dataclass(frozen=True)
class DoobDecomposition:
    """S = A + M node-wise: A predictable with A_0 = 0, M a Q-martingale."""

    A: np.ndarray
    M: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", _as_readonly(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "M", _as_readonly(np.asarray(self.M, dtype=float)))


def doob_decomposition(model: MarketModel, measure: MeasureWeights) -> DoobDecomposition:
    """Split S into predictable drift A and Q-martingale part M.

    dA at any child of v equals the conditional mean increment at v, so all
    siblings share the same dA (predictability).
    """
    mass = measure.node_mass(model)
    if np.any(mass[list(model.leaves)] <= 0.0):
        raise ValueError("Doob decomposition requires a strictly positive (equivalent) measure")
    means = conditional_mean_increments(model, measure)
    A = np.zeros((model.n_nodes, model.d))
    for i in model.order:
        p = int(model.parent[i])
        if p >= 0:
            A[i] = A[p] + means[p].mean
    return DoobDecomposition(A=A, M=model.prices - A)


class NoMartingaleStructure(RuntimeError):
    """Raised when no eps-martingale structure exists at the requested level.

    Defined here, with the notion it refers to, so that the CLI can catch it
    without loading the pricing layer; ``pricing`` re-exports it.
    """


def is_eps_martingale(model: MarketModel, measure: MeasureWeights, eps: float,
                      norms: NormPair) -> tuple[bool, float]:
    """Whether every one-step conditional mean increment has |.|_q <= eps + 1e-10.

    Returns the verdict together with the achieved maximum deviation.
    """
    mass = measure.node_mass(model)
    if np.any(mass[list(model.leaves)] <= 0.0):
        raise ValueError("epsilon-martingale check requires a strictly positive measure")
    means = conditional_mean_increments(model, measure)
    worst = 0.0
    for v in model.internal:
        worst = max(worst, norms.dual_norm(means[v].mean))
    return worst <= eps + 1e-10, worst


@dataclass(frozen=True)
class Payoff:
    """Scalar terminal claim, one value per leaf."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("payoff values must be finite")
        object.__setattr__(self, "values", _as_readonly(vals))

    @staticmethod
    def from_dict(model: MarketModel, mapping: Mapping[str, float]) -> "Payoff":
        vals = np.zeros(model.n_leaves)
        leaf_pos = {model.ids[leaf]: k for k, leaf in enumerate(model.leaves)}
        seen = set()
        for nid, val in mapping.items():
            if str(nid) not in leaf_pos:
                raise ValueError(f"payoff given for unknown leaf id {nid!r}")
            vals[leaf_pos[str(nid)]] = float(val)
            seen.add(str(nid))
        missing = set(leaf_pos) - seen
        if missing:
            raise ValueError(f"payoff missing leaf ids: {sorted(missing)}")
        return Payoff(vals)

    @staticmethod
    def from_function(model: MarketModel, fn: Callable[[np.ndarray], float]) -> "Payoff":
        """Evaluate ``fn`` on each leaf path (array of shape (T+1, d))."""
        paths = model.leaf_paths()
        return Payoff(np.array([float(fn(paths[k])) for k in range(model.n_leaves)]))
