"""Pricing under quantified arbitrage: approximate martingale measures,
robust price bounds, super-replication, and fair-price ranges.

The measure side optimizes leaf weights under node-wise cone constraints
|sum_w q(w) dS(w)|_q <= eps qbar(v).  Feasibility of the eta-interior
program is decided through the max-min-ratio value rho* = max min q/P over
the closed cone: the interior program at level eta is feasible iff
rho* >= eta, which stays numerically robust even when the interior margin
itself is far below solver precision.

The programs, and the choice of their route, live in :mod:`epsarb.programs`.
The cone constraint is per node, so there are three routes: at d = 1 a
backward induction over one-node programs, each a closed form (a node's
set is a slab of the simplex); at q = inf (p = 1) or eps = 0 with d >= 2
one whole-tree HiGHS LP; otherwise the same induction, with a closed form
at binary q = 2 nodes and one node cone program elsewhere (tangent nodes
on their faces; second-order cones at p = 2, power cones otherwise).  A
measure is the product of the node kernels, a price bracket runs from
that measure to the capital of the super-hedge composed of the node
hedges, and a price bracket or interior result that fails its check is
indeterminate.  The super-hedge is the one the price program returns on
every route, its capital recomputed exactly: the node hedges, or the
whole-tree LP's row duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .market import (MarketModel, MeasureWeights, NoMartingaleStructure, NormPair, Payoff,
                     Strategy, _check_level, is_eps_martingale, validate_market)
from .programs import (_ATTAINED, _frozen, _gap_closed, _polyhedral, cone_linear_optimum,
                       interior_feasibility, max_min_weight_on_face)


_GAP_TOL = 1e-6  # superhedge duality holds at gap <= _GAP_TOL (1 + |price|)


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
                                eta: Optional[float] = None) -> EmmResult:
    """A strictly positive measure with all mean increments within eps, or a certificate.

    Feasibility at interior level eta is decided by rho* = max over
    cone-feasible weights of the minimum density ratio min q/P: the witness
    has q >= eta P and exact node margins >= 0, and infeasibility is
    certified by an upper bound on rho* below eta.  At q = inf or eps = 0
    with d >= 2 it is one exact LP.  Otherwise a node with gamma(v) > eps
    empties the set (no bound), a tangent node whose least-norm face has
    no full-support point gives the bound 0, and otherwise rho* is a
    backward induction over the nodes: each node program gives a checked
    kernel (a closed form at d = 1, whose LP vertex is checked to the
    rounding floor, and at binary q = 2 nodes, one cone program elsewhere)
    and a certified bound, the witness is the product of the kernels, and
    the bound composes the node bounds.  Only a node certificate decides
    "infeasible"; a result that fails its check is indeterminate, and its
    deciding node is logged at DEBUG on the ``epsarb`` logger.  eps must
    be finite and >= 0, and eta finite and > 0.
    """
    report = validate_market(model)
    if not report.ok:
        raise ValueError(f"invalid market: {report.violations[0]}")
    _check_level("eps", eps, False)
    if eta is None:
        eta = 1e-7 * float(np.min(model.leaf_prob))
    _check_level("eta", eta, True)
    status, q, rho, rho_ub, margin = interior_feasibility(model, eps, norms, eta)
    if status == "feasible":
        w = np.maximum(q, 0.0)
        measure = MeasureWeights.from_array(model, w / w.sum())
        _, dev = is_eps_martingale(model, measure, eps, norms)
        return EmmResult("feasible", eps, eta, measure, rho, rho_ub, dev)
    return EmmResult("infeasible", eps, eta, None, rho, rho_ub, None,
                     indeterminate=status == "indeterminate")


@dataclass(frozen=True)
class BoundResult:
    """One side of the robust price bound over the eps-martingale family:
    E_Q[payoff] at an exactly feasible Q, the certified other end, and
    ``indeterminate`` (not attained) when they are over 1e-9 (relative)
    apart or attainment is undecided."""

    direction: str
    value: float
    attained: bool
    witness: Optional[MeasureWeights]
    face_min_weight: float
    bound: float
    indeterminate: bool = False


def robust_price_bound(model: MarketModel, eps: float, norms: NormPair,
                       payoff: Payoff, direction: str) -> BoundResult:
    """sup or inf of E_Q[payoff] over the eps-martingale family.

    Computed on the closed relaxation (weights >= 0): under the existence of
    one equivalent member, mixing makes boundary values limits of equivalent
    ones, so only attainment can differ — decided by maximizing the minimum
    leaf weight over the optimal face (unless the bracket is indeterminate):
    attained when it exceeds 1e-7.
    """
    if direction not in ("sup", "inf"):
        raise ValueError("direction must be 'sup' or 'inf'")
    return _price_bound(model, eps, norms, payoff, direction, _interior_measure(model, eps, norms))


def _interior_measure(model: MarketModel, eps: float, norms: NormPair) -> Optional[MeasureWeights]:
    """The interior eps-martingale measure that anchors the price programs,
    None when find-emm is indeterminate; NoMartingaleStructure when it is
    decided infeasible, which only a node certificate does."""
    _check_level("eps", eps, False)
    emm = find_eps_martingale_measure(model, eps, norms)
    if not (emm.feasible or emm.indeterminate):
        raise NoMartingaleStructure(
            f"no eps-martingale structure at level {eps} (rho upper bound {emm.rho_upper_bound})")
    return emm.measure


def _price_bound(model: MarketModel, eps: float, norms: NormPair, payoff: Payoff,
                 direction: str, anchor: Optional[MeasureWeights]) -> BoundResult:
    """:func:`robust_price_bound` from its anchoring interior measure (None
    when find-emm was indeterminate: the bound is then indeterminate too)."""
    sense = "max" if direction == "sup" else "min"
    value, q, bound, _ = cone_linear_optimum(model, eps, norms, payoff.values, sense,
                                             anchor=None if anchor is None else anchor.weights)
    if value is None:
        raise NoMartingaleStructure(f"cone program infeasible at level {eps}")
    min_w, decided = 0.0, False
    if anchor is not None and _gap_closed(value, bound, 1e-9):
        min_w, q_face, decided = max_min_weight_on_face(model, eps, norms, payoff.values, value,
                                                        sense)
        q = q if q_face is None else q_face
    witness = None
    if q is not None:
        w = np.maximum(q, 0.0)
        witness = MeasureWeights.from_array(model, w / w.sum())
    return BoundResult(direction, float(value), decided and min_w > _ATTAINED, witness,
                       float(min_w), float(bound), not decided)


@dataclass(frozen=True)
class HedgeCertificate:
    """Super-replication certificate: capital, strategy, orthogonal add-on.

    The orthogonal part lies in the admissible hyperplane of its tangent
    nodes, so it carries no norm cost; ``slacks`` are the exact leaf slacks
    capital + gain - eps cost + add-on gain - payoff.  Its arrays are
    read-only.
    """

    capital: float
    strategy: Strategy
    orthogonal: dict  # node index -> vector in the node's admissible hyperplane
    slacks: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "orthogonal", _frozen(self.orthogonal))
        object.__setattr__(self, "slacks", _frozen(self.slacks))

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
    mode: str               # direct (polyhedral geometry) | dual (curved geometry)
    duality_ok: Optional[bool]

    def to_dict(self, model: MarketModel) -> dict:
        out = {"price": self.price, "primal": self.primal_value, "gap": self.gap,
               "mode": self.mode, "duality_ok": self.duality_ok}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict(model)
        return out


def superhedge_price(model: MarketModel, eps: float, norms: NormPair,
                     payoff: Payoff) -> SuperhedgeResult:
    """Least super-replication capital with its certificate.

    The price is the measure-side bound sup E_Q[payoff], and the matching
    primal is the hedge that the price program returns with it, its leaf
    slacks and capital recomputed exactly.  Three routes: at d = 1 the
    node hedges of the closed-form price induction, each 0 or a crossing
    of two children's terms; at q = inf or eps = 0 with d >= 2 the row
    duals of the one whole-tree price LP; otherwise the node hedges of the
    conic price induction, each read from its node program's dual (or
    closed form).  Node hedges are composed down the tree with the capital
    raised to cover every exact leaf slack.  ``mode`` labels the geometry,
    not the route: "direct" when it is polyhedral (p = 1, d = 1, or
    eps = 0), "dual" otherwise.  Raises
    NoMartingaleStructure only on a node certificate; when find-emm is
    indeterminate the hedge is still computed.
    """
    _check_level("eps", eps, False)
    emm = find_eps_martingale_measure(model, eps, norms)
    if not (emm.feasible or emm.indeterminate):
        raise NoMartingaleStructure(f"no eps-martingale structure at level {eps}")
    anchor = None if emm.measure is None else emm.measure.weights
    dual, _, _, hedge = cone_linear_optimum(model, eps, norms, payoff.values, "max",
                                            anchor=anchor)
    if dual is None:
        raise NoMartingaleStructure(f"cone program infeasible at level {eps}")
    # hedge is None when no solve gave a dual point
    cert = None if hedge is None else HedgeCertificate(*hedge)
    gap = None if cert is None else cert.capital - dual
    mode = "direct" if _polyhedral(model, norms, eps) else "dual"
    return SuperhedgeResult(float(dual), cert and cert.capital, gap, cert, mode,
                            None if gap is None else gap <= _GAP_TOL * (1.0 + abs(dual)))


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

    [inf E_Q - eps, sup E_Q + eps] over the eps-martingale family, at each
    bound's certified outer end; an endpoint is closed iff the inner bound
    is attained by an equivalent member.  For p = 1 the interval is a sound
    superset and carries a caveat flag (the exact converse is open there).
    Both bounds share one interior measure.
    """
    return _fair_range(model, eps, norms, payoff, _interior_measure(model, eps, norms))


def _fair_range(model: MarketModel, eps: float, norms: NormPair, payoff: Payoff,
                anchor: MeasureWeights) -> PriceInterval:
    """:func:`fair_price_range` from its anchoring interior measure."""
    sup_res = _price_bound(model, eps, norms, payoff, "sup", anchor)
    inf_res = _price_bound(model, eps, norms, payoff, "inf", anchor)
    return PriceInterval(
        lower=inf_res.bound - eps, upper=sup_res.bound + eps,
        lower_attained=inf_res.attained, upper_attained=sup_res.attained,
        p1_caveat=(norms.p == 1.0),
        lower_witness=inf_res.witness, upper_witness=sup_res.witness)


def expectation(measure: MeasureWeights, payoff: Payoff) -> float:
    return float(measure.weights @ payoff.values)
