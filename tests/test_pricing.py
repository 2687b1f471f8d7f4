"""Pricing layer.

Core claims:
    - the approximate-martingale feasibility program finds exact witnesses
      and certifies infeasibility down to eta = 1e-9
    - robust price bounds match hand values with correct attainment flags
    - super-replication satisfies weak duality against every feasible
      measure and strong duality in the polyhedral / above-threshold cases
    - on polyhedral geometry ("direct") the superhedge's slacks, recomputed
      with the public gain and cost, cover the claim and its capital is the
      price to 1e-9: it is the node hedges (basis duals at d >= 2, p = 1
      or eps = 0 at p = 1.5 and 3; crossings at d = 1, two time-0 nodes
      too), and no LP runs
    - on polyhedral geometry the measure programs are node inductions of
      closed forms (d = 1) and polytope vertices (d >= 2): on Hypothesis
      trees (tangent and degenerate nodes, eps = 0, repeated and zero
      increments, one-child nodes, two time-0 nodes) and full d = 2 trees
      they match the whole-tree LPs they replace, and find-emm, the price
      bounds, the superhedge and the fair range solve no LP and no cone
      program
    - a unique full-support measure at eps = 0 attains its price bound at
      d = 2 as at d = 1 (the whole-tree face LP called its slice
      infeasible)
    - the orthogonal add-on restores exactness below the critical level
    - at p = 2 on full trees a price is a certified bracket: an exactly
      feasible measure below, the price program's dual hedge above
    - near the critical level a node program certifies what the whole
      tree needed a second solve for: an infeasibility bound below eta,
      logged with its deciding node, and a price bracket inside the one the
      whole-tree program certified
    - just above the critical level of a binary q = 2 node the closed form
      finds the measure, with rho within 1 % of its exact value
    - near the critical level at p = 1.5 and 3 every price bound is a
      closed bracket or an indeterminate one with finite ends, and only a
      node certificate raises NoMartingaleStructure
    - the induction's brackets overlap those the whole-tree cone programs
      certified (recorded in tests/data/whole_tree_brackets.json)
    - at p = 1.5 and 3 (power cones) the superhedge is the price program's
      dual too, with exact slacks >= 0, duality and a price above E_Q
    - fair-price intervals carry the documented endpoint openness, and
      both ends price against one interior measure: one interior solve,
      the interval of two robust_price_bound calls
    - a model keeps its interior and price programs' results: the eight
      market operations on one model are byte-equal to each on a fresh
      model, a repeated superhedge or fair range solves no interior or
      price program again, on the curved shape at p = 2 no operation solves
      a cone program, other argument bits (0.0 against -0.0 too)
      miss, every array of a result is read-only and each call gets its
      own dicts, models and results still pickle, the store stays at its
      bound over a sweep of levels, and the model is still freed
"""

import gc
import json
import logging
import math
import os
import pickle
import weakref
from collections import Counter

import numpy as np
import pytest

import epsarb as ea
from epsarb import pricing, programs
from epsarb.io import load_market
from epsarb.testing import random_market, random_martingale_market

from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (binary_martingale, count_node_programs, count_solves,
                      critical_value_oracle, fresh_copy,
                      full_tree_law, kbar_market, lp_face_min_weight, lp_interior_ratio, lp_price,
                      market_operations, nostrictarb_market,
                      payoff_linear_terminal, price_range_market, result_arrays, result_bytes,
                      solves_in, two_state)

N1, N2 = ea.NormPair(1.0), ea.NormPair(2.0)
DATA = os.path.join(os.path.dirname(__file__), "..", "demos", "data")


class TestFindMeasure:
    def test_no_measure_exists_for_shifted_two_asset_market(self):
        m = nostrictarb_market(1.0)
        for eta in (1e-4, 1e-6, 1e-9):
            res = ea.find_eps_martingale_measure(m, 1.0, N2, eta=eta)
            assert res.status == "infeasible"
            assert not res.indeterminate

    def test_kbar_market_returns_the_uniform_measure(self):
        res = ea.find_eps_martingale_measure(kbar_market(1.0), 1.0, N2)
        assert res.feasible
        assert res.measure.weights == pytest.approx([0.5, 0.5], abs=1e-8)
        assert res.deviation == pytest.approx(1.0, abs=1e-8)

    def test_price_range_market_interval_of_measures(self):
        m = price_range_market(1.0)
        res = ea.find_eps_martingale_measure(m, 1.0, N2)
        assert res.feasible
        alpha = res.measure.weights[0]
        assert 0.5 - 1e-9 <= alpha < 1.0
        _, dev = ea.is_eps_martingale(m, res.measure, 1.0, N2)
        assert dev <= 1.0 + 1e-9

    def test_node_certifies_infeasibility_just_above_the_critical_level(self, caplog):
        # node n0 sits 1e-11 (relative) above its gamma: its own program
        # bounds rho* by 2e-10, below eta, and is logged as the deciding node
        m, _, eps = _full_tree_case(101, 2, 1.0 + 1e-11)
        with caplog.at_level(logging.DEBUG, logger="epsarb"):
            res = ea.find_eps_martingale_measure(m, eps, N2)
        assert res.status == "infeasible" and not res.indeterminate
        assert res.rho_upper_bound < res.eta
        assert "interior_feasibility: node n0 decides" in caplog.text

    @pytest.mark.parametrize("delta", [1e-11, 3e-11, 7e-11])
    def test_just_above_a_binary_critical_level_is_feasible(self, delta):
        # gamma = 1 at the child (1, 0); at eps = 1 + delta the other child
        # takes weight up to s = sqrt(2 delta + delta^2), so rho* = 2 s
        m = nostrictarb_market(1.0)
        eps = 1.0 + delta
        res = ea.find_eps_martingale_measure(m, eps, N2)
        assert res.feasible and not res.indeterminate
        q = res.measure.weights
        assert np.all(q >= res.eta * m.leaf_prob)
        assert np.min(programs._cone_margins(programs.tree_ops(m), eps, N2, q)) >= 0.0
        assert res.rho == pytest.approx(2.0 * math.sqrt(2.0 * delta + delta ** 2), rel=1e-2)

    def test_logs_nothing_by_default(self, capsys):
        # the deciding node goes to the "epsarb" logger at DEBUG only
        ea.find_eps_martingale_measure(nostrictarb_market(1.0), 1.0, N2)
        ea.find_eps_martingale_measure(nostrictarb_market(1.0), 0.5, N2)
        assert capsys.readouterr() == ("", "")

    def test_feasibility_excludes_detection(self):
        # whenever a measure exists the detector must stay silent
        rng = np.random.default_rng(51)
        hits = 0
        for _ in range(15):
            m = random_market(rng)
            for norms in (N1, N2):
                crit = critical_value_oracle(m, norms)
                for eps in (0.7 * crit + 0.02, 1.1 * crit + 0.05):
                    emm = ea.find_eps_martingale_measure(m, eps, norms)
                    if emm.feasible:
                        rep = ea.detect_strict_arbitrage(m, eps, norms,
                                                         want_certificate=False)
                        assert not rep.found
                        hits += 1
        assert hits > 10


class TestRobustBounds:
    def test_price_range_sup_attained(self):
        m = price_range_market(1.0)
        psi = ea.Payoff(np.array([0.0, 1.0]))
        res = ea.robust_price_bound(m, 1.0, N2, psi, "sup")
        assert res.value == pytest.approx(0.5, abs=1e-6)
        assert res.attained
        assert res.face_min_weight == pytest.approx(0.5, abs=1e-6)

    def test_price_range_inf_not_attained(self):
        m = price_range_market(1.0)
        psi = ea.Payoff(np.array([0.0, 1.0]))
        res = ea.robust_price_bound(m, 1.0, N2, psi, "inf")
        assert res.value == pytest.approx(0.0, abs=1e-6)
        assert not res.attained

    def test_constant_payoff_any_direction(self):
        m = price_range_market(1.0)
        psi = ea.Payoff(np.array([3.0, 3.0]))
        for direction in ("sup", "inf"):
            res = ea.robust_price_bound(m, 1.0, N2, psi, direction)
            assert res.value == pytest.approx(3.0, abs=1e-9)
            assert res.attained

    def test_sup_of_negated_payoff_is_minus_inf(self):
        rng = np.random.default_rng(60)
        for _ in range(8):
            m = random_market(rng)
            eps = 1.1 * critical_value_oracle(m, N2) + 0.05
            psi = ea.Payoff(rng.normal(size=m.n_leaves))
            neg = ea.Payoff(-psi.values)
            up = ea.robust_price_bound(m, eps, N2, psi, "sup").value
            lo = ea.robust_price_bound(m, eps, N2, neg, "inf").value
            assert up == pytest.approx(-lo, abs=1e-7 * (1 + abs(up)))

    def test_rejects_levels_with_arbitrage(self):
        with pytest.raises(ea.NoMartingaleStructure):
            ea.robust_price_bound(nostrictarb_market(1.0), 1.0, N2,
                                  ea.Payoff(np.zeros(2)), "sup")


class TestSuperhedge:
    def test_symmetric_asset_claim(self):
        m = binary_martingale(1.0)
        res = ea.superhedge_price(m, 0.5, N2, ea.Payoff(np.array([1.0, -1.0])))
        assert res.price == pytest.approx(0.5, abs=1e-9)
        assert res.primal_value == pytest.approx(0.5, abs=1e-9)
        assert res.certificate.capital == pytest.approx(0.5, abs=1e-8)
        assert res.certificate.strategy.values[0] == pytest.approx([1.0], abs=1e-8)

    def test_zero_payoff_is_free(self):
        m = binary_martingale(1.0)
        res = ea.superhedge_price(m, 0.5, N2, ea.Payoff(np.zeros(2)))
        assert res.price == pytest.approx(0.0, abs=1e-9)
        assert res.primal_value == pytest.approx(0.0, abs=1e-9)

    def test_replicable_claim_at_zero_level(self):
        m = binary_martingale(1.0)
        H0 = ea.Strategy.from_dict(m, {"r": [2.0]})
        psi = ea.Payoff(ea.gain(m, H0))
        res = ea.superhedge_price(m, 0.0, N2, psi)
        expected = float(m.leaf_prob @ psi.values)
        assert res.price == pytest.approx(expected, abs=1e-9)
        assert res.primal_value == pytest.approx(expected, abs=1e-9)

    def test_orthogonal_add_on_restores_exactness(self):
        # at the critical level the costed strategy alone cannot close the
        # gap; the costless direction of the price program's dual does, at
        # exactly 1/2
        m = kbar_market(1.0)
        psi = ea.Payoff(np.array([1.0, 0.0]))
        res = ea.superhedge_price(m, 1.0, N2, psi)
        assert res.mode == "dual"
        assert res.price == pytest.approx(0.5, abs=1e-6)
        assert res.primal_value == pytest.approx(0.5, abs=1e-6)
        assert res.gap <= 1e-6 * 1.5
        cert = res.certificate
        assert cert.orthogonal  # the add-on is active somewhere
        for v, g in cert.orthogonal.items():
            assert np.max(np.abs(cert.strategy.values[v])) < 1e-12
        assert np.min(cert.slacks) >= -1e-9

    def test_weak_duality_against_feasible_measures(self):
        rng = np.random.default_rng(61)
        done = 0
        for _ in range(10):
            m = random_market(rng)
            for norms in (N1, N2):
                eps = 1.2 * critical_value_oracle(m, norms) + 0.05
                psi = ea.Payoff(rng.normal(size=m.n_leaves))
                emm = ea.find_eps_martingale_measure(m, eps, norms)
                if not emm.feasible:
                    continue
                res = ea.superhedge_price(m, eps, norms, psi)
                assert ea.expectation(emm.measure, psi) <= res.certificate.capital + 1e-8
                assert np.min(res.certificate.slacks) >= -1e-8
                done += 1
        assert done > 10

    def test_price_monotone_in_eps(self):
        # the measure family grows with eps, so the super-replication price
        # (its sup) is non-decreasing: see the +-1 asset whose price is eps
        rng = np.random.default_rng(62)
        for _ in range(6):
            m = random_market(rng)
            base = critical_value_oracle(m, N2)
            psi = ea.Payoff(rng.normal(size=m.n_leaves))
            prices = [ea.superhedge_price(m, e, N2, psi).price
                      for e in (base + 0.05, base + 0.3, base + 1.0)]
            assert prices[0] <= prices[1] + 5e-7
            assert prices[1] <= prices[2] + 5e-7


def _full_tree_case(seed, T, f, p=2.0):
    """A d = 2 full ternary tree (T = 3 drawn after T = 2 from one
    generator), the payoff |S_T - S_0|_2 and the level f eps(P) at p."""
    rng = np.random.default_rng(seed)
    for t in range(2, T + 1):
        m = full_tree_law(rng, t, 3, 2)
    psi = ea.Payoff(np.linalg.norm(m.prices[list(m.leaves)] - m.prices[0], axis=1))
    return m, psi, f * ea.critical_value(m, ea.NormPair(p)).epsilon


class TestFullTreeBrackets:
    # Both calls used to raise RuntimeError on (102, 2, 1.01) and on the
    # 27-leaf (104, 3, 1.01); the face program did on (100, 2, 1.5).
    @pytest.mark.parametrize("seed, T, f", [(102, 2, 1.01), (100, 2, 1.5), (104, 3, 1.01)])
    def test_price_is_a_certified_bracket(self, seed, T, f):
        m, psi, eps = _full_tree_case(seed, T, f)
        hedge = ea.superhedge_price(m, eps, N2, psi)
        cert = hedge.certificate
        assert hedge.mode == "dual" and hedge.price <= hedge.primal_value == cert.capital
        assert np.min(cert.slacks) >= 0.0
        add_on = np.zeros((m.n_nodes, m.d))
        for v, g in cert.orthogonal.items():
            add_on[v] = g
        slacks = (cert.capital + ea.gain(m, cert.strategy)
                  - eps * ea.strategy_cost(m, cert.strategy, N2)
                  + ea.gain(m, ea.Strategy(add_on)) - psi.values)
        assert np.min(slacks) >= -1e-12 * (1.0 + cert.capital)
        if (seed, T) == (102, 2):
            assert hedge.duality_ok

        res = ea.robust_price_bound(m, eps, N2, psi, "sup")
        assert res.value <= res.bound
        assert res.value == hedge.price and res.bound == hedge.primal_value
        assert res.indeterminate == (res.bound - res.value > 1e-9 * (1.0 + abs(res.value)))
        # the witness, mixed with a little of an equivalent member, is one too
        emm = ea.find_eps_martingale_measure(m, eps, N2)
        w = 0.999999 * res.witness.weights + 1e-6 * emm.measure.weights
        assert ea.is_eps_martingale(m, ea.MeasureWeights.from_array(m, w), eps, N2)[0]
        assert res.value == pytest.approx(float(res.witness.weights @ psi.values), abs=1e-9)


    def test_bracket_lies_in_the_whole_tree_bracket(self):
        # the whole-tree cone program needed its untightened second solve to
        # close this bracket at [2.5167442509, 2.5167442537]; the induction
        # closes one inside it
        m, psi, eps = _full_tree_case(110, 2, 1.0001)
        res = ea.robust_price_bound(m, eps, N2, psi, "sup")
        assert not res.indeterminate
        assert res.value >= 2.5167442509 - 1e-10
        assert res.bound <= 2.5167442537 + 1e-10


class TestNearCritical:
    # Before the node induction the p = 3 call raised NoMartingaleStructure
    # (its rho upper bound was 1.197), and the two p = 1.5 calls were
    # indeterminate with brackets up to 1.9e-3 wide.
    @pytest.mark.parametrize("seed, T, f, p", [(105, 3, 1.01, 3.0), (102, 2, 1.0 + 1e-6, 1.5),
                                               (102, 2, 1.0 + 1e-4, 1.5)])
    def test_bracket_is_closed_or_indeterminate(self, seed, T, f, p):
        m, psi, eps = _full_tree_case(seed, T, f, p)
        res = ea.robust_price_bound(m, eps, ea.NormPair(p), psi, "sup")
        assert math.isfinite(res.value) and math.isfinite(res.bound)
        assert res.value <= res.bound
        assert res.bound - res.value <= 1e-9 * (1.0 + abs(res.value)) or res.indeterminate

    def test_only_a_node_certificate_raises(self, monkeypatch):
        # every interior node program left without a verdict: find-emm is
        # indeterminate, and the price bound is an indeterminate bracket, not
        # NoMartingaleStructure
        m, psi, eps = _full_tree_case(102, 2, 1.01)
        real = programs._node_program

        def undecided(program, *args, **kwargs):
            if program == "interior_feasibility":
                return None, -math.inf, math.inf, None
            return real(program, *args, **kwargs)

        monkeypatch.setattr(programs, "_node_program", undecided)
        # count this call's rejection apart from the session's
        monkeypatch.setattr(programs, "CONIC_FALLBACKS", Counter())
        emm = ea.find_eps_martingale_measure(m, eps, N2)
        assert emm.status == "infeasible" and emm.indeterminate
        assert programs.CONIC_FALLBACKS == Counter(interior_feasibility=1)
        res = ea.robust_price_bound(m, eps, N2, psi, "sup")
        assert res.indeterminate and not res.attained
        assert math.isfinite(res.value) and math.isfinite(res.bound)
        assert ea.superhedge_price(m, eps, N2, psi).duality_ok


with open(os.path.join(os.path.dirname(__file__), "data", "whole_tree_brackets.json")) as _fh:
    WHOLE_TREE = json.load(_fh)["cases"]


def _overlap(lo, hi, old_lo, old_hi):
    """Whether [lo, hi] meets [old_lo, old_hi] widened by 1e-9 (relative)."""
    tol = 1e-9 * (1.0 + max(abs(old_lo), abs(old_hi)))
    return lo <= old_hi + tol and old_lo - tol <= hi


class TestWholeTreeBrackets:
    @pytest.mark.parametrize("case", WHOLE_TREE, ids=[c["name"] for c in WHOLE_TREE])
    def test_brackets_overlap(self, case):
        m = ea.MarketModel.from_nodes(case["T"], case["d"], case["nodes"])
        eps, psi = case["eps"], np.array(case["payoff"])
        status, q, rho, rho_ub, _ = programs.interior_feasibility(
            m, eps, N2, 1e-7 * float(np.min(m.leaf_prob)))
        assert status == case["interior"][0] == "feasible"
        assert _overlap(rho, rho_ub, *case["interior"][1:])
        value, _, bound, _ = programs.cone_linear_optimum(m, eps, N2, psi, "max", q)
        assert value <= bound and _overlap(value, bound, *case["max"])
        value, _, bound, _ = programs.cone_linear_optimum(m, eps, N2, psi, "min", q)
        assert bound <= value and _overlap(bound, value, case["min"][1], case["min"][0])

    def test_two_time_0_nodes_attain_only_a_tie(self):
        # a constant payoff ties the two time-0 nodes, whose kernels then
        # combine with weight on both; a payoff of one time-0 node puts all
        # mass of its sup on that node and of its inf on the other
        case = WHOLE_TREE[-1]
        m = ea.MarketModel.from_nodes(case["T"], case["d"], case["nodes"])
        first = np.array([float(m.ids[leaf].startswith("r0")) for leaf in m.leaves])
        for direction in ("sup", "inf"):
            tie = ea.robust_price_bound(m, case["eps"], N2, ea.Payoff(np.ones(m.n_leaves)),
                                        direction)
            assert tie.attained and tie.value == pytest.approx(1.0, abs=1e-12)
            one = ea.robust_price_bound(m, case["eps"], N2, ea.Payoff(first), direction)
            assert not one.attained and not one.indeterminate
            assert one.value == pytest.approx(1.0 if direction == "sup" else 0.0, abs=1e-12)


# increments from a small grid (repeated and zero ones) or with two decimals
_INCREMENTS = (st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
               | st.integers(-300, 300).map(lambda n: n / 100.0))


@st.composite
def tree_markets(draw, d: int = 1, widest: int = 3):
    """A tree in d assets of depth 1 to 3 with one or two time-0 nodes and
    one to ``widest`` children a node (two at most at depth 3), its
    probabilities from integer weights."""
    T = draw(st.integers(1, 3))

    def probs(k):
        w = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        return [x / sum(w) for x in w]

    roots = draw(st.integers(1, 2))
    nodes = [{"id": f"n{r}", "time": 0, "parent": None, "cond_prob": pr,
              "prices": [float(draw(st.integers(-2, 2))) for _ in range(d)]}
             for r, pr in enumerate(probs(roots))]
    frontier = list(range(roots))
    for t in range(1, T + 1):
        nxt = []
        for v in frontier:
            for pr in probs(draw(st.integers(1, widest if t < 3 else 2))):
                nodes.append({"id": f"n{len(nodes)}", "time": t, "parent": nodes[v]["id"],
                              "cond_prob": pr,
                              "prices": [x + draw(_INCREMENTS) for x in nodes[v]["prices"]]})
                nxt.append(len(nodes) - 1)
        frontier = nxt
    return ea.MarketModel.from_nodes(T, d, nodes)


def _matches_the_lp_route(m, eps, norms, c):
    """The polyhedral inductions against the whole-tree LPs they replace
    (``_helpers.lp_*``): the find-emm verdict at the default eta and rho*
    to 1e-9, each price to 1e-9 (relative) with the LP's optimum inside its
    bracket, and the attainment of each bound: a checked witness, or none
    that the LP finds either.  A node whose set is
    empty empties the induction's set, and find-emm's: the LP then still
    prices measures that put no mass on that node, which no public call
    asks for, since each needs an equivalent measure first."""
    eta = 1e-7 * float(np.min(m.leaf_prob))
    rho = lp_interior_ratio(m, eps)
    status, _, _, rho_bound, _ = programs.interior_feasibility(m, eps, norms, eta)
    assert status != "indeterminate"
    assert (status == "feasible") == (rho is not None and rho >= eta)
    if rho_bound is not None:
        assert abs(rho_bound - rho) <= 1e-9 * (1.0 + rho)
    for sense, sgn in (("max", 1.0), ("min", -1.0)):
        want = lp_price(m, eps, c, sense)
        value, _, bound, hedge = programs.cone_linear_optimum(m, eps, norms, c, sense, None)
        if value is None:
            assert status == "infeasible" and rho_bound is None
            continue
        tol = 1e-9 * (1.0 + abs(want))
        assert abs(value - want) <= tol
        assert sgn * value <= sgn * want + tol and sgn * want <= sgn * bound + tol
        assert hedge[2] == {} and np.min(hedge[3]) >= 0.0
        weight, q, decided = programs.max_min_weight_on_face(m, eps, norms, c, value, sense)
        assert decided
        if weight > programs._ATTAINED:
            # attained: the witness is checked here, since HiGHS can call the
            # LP's thin slice infeasible (eps = 0 with a unique measure)
            assert np.min(q) == weight and abs(np.sum(q) - 1.0) <= 1e-12
            assert abs(float(c @ q) - value) <= 1e-9 * (1.0 + abs(value))
            floor = programs._FLOOR * (1.0 + float(np.max(np.abs(m.delta))))
            assert np.min(programs._cone_margins(programs.tree_ops(m), eps, norms, q)) >= -floor
        else:
            assert lp_face_min_weight(m, eps, c, want) <= 1e-6


class TestScalarInduction:
    """At d = 1 the measure programs are node inductions of closed forms,
    held to the whole-tree LPs that ran there before."""

    @settings(max_examples=150, deadline=None)
    @given(tree_markets(), st.data())
    def test_inductions_match_the_lp_route(self, m, data):
        gammas = [programs.node_min_simplex_deviation(m, v, N2) for v in m.internal]
        eps = data.draw(st.sampled_from([0.0, max(gammas), 1.5 * max(gammas) + 0.1])
                        | st.sampled_from(gammas))  # a tangent node at eps = gamma(v)
        c = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=m.n_leaves,
                                        max_size=m.n_leaves)), dtype=float)
        _matches_the_lp_route(m, eps, data.draw(st.sampled_from([N1, N2])), c)

    @pytest.mark.parametrize("f", [0.0, 1.0, 1.5])
    def test_two_time0_nodes_match_the_lp_route(self, f):
        m, _ = load_market(os.path.join(DATA, "kr_p.json"))
        eps = f * ea.critical_value(m, N2).epsilon
        for c in ([1.0, -2.0], [1.0, 1.0], [0.0, 1.0]):
            _matches_the_lp_route(m, eps, N2, np.array(c))

    def test_prices_solve_no_lp_or_cone_program(self, monkeypatch):
        m = full_tree_law(np.random.default_rng(25), 3, 3, 1)
        psi = payoff_linear_terminal(m)
        eps = 1.5 * ea.critical_value(m, N1).epsilon
        solves = count_solves(monkeypatch)
        scalar = programs.NODE_PROGRAMS["scalar closed form"]
        cone = programs.NODE_PROGRAMS["cone program"]
        for norms in (N1, N2):
            assert ea.find_eps_martingale_measure(m, eps, norms).feasible
            for direction in ("sup", "inf"):
                assert not ea.robust_price_bound(m, eps, norms, psi, direction).indeterminate
            res = ea.superhedge_price(m, eps, norms, psi)
            assert res.mode == "direct" and res.duality_ok
            ea.fair_price_range(m, eps, norms, psi)
        assert solves == []
        assert programs.NODE_PROGRAMS["scalar closed form"] > scalar
        assert programs.NODE_PROGRAMS["cone program"] == cone


def _lifted_tree(d: int) -> ea.MarketModel:
    """n0 -> (n1 at -2, n2 at 0.5), n1 -> (-4, -1.99), n2 -> (0.51, -1.5),
    every conditional probability 1/2, with d - 1 constant assets beside:
    at eps = 0 its martingale measure is unique and has full support."""
    spec = [("n0", None, 0, 1.0, 0.0), ("n1", "n0", 1, 0.5, -2.0), ("n2", "n0", 1, 0.5, 0.5),
            ("n3", "n1", 2, 0.5, -4.0), ("n4", "n1", 2, 0.5, -1.99),
            ("n5", "n2", 2, 0.5, 0.51), ("n6", "n2", 2, 0.5, -1.5)]
    return ea.MarketModel.from_nodes(2, d, [
        {"id": i, "time": t, "parent": parent, "cond_prob": pr, "prices": [x] + [1.0] * (d - 1)}
        for i, parent, t, pr, x in spec])


def _one_node(k: int, d: int, seed: int, steps: int = 3) -> ea.MarketModel:
    """One node of k children with grid increments in {-steps/2, ...,
    steps/2}^d, steps of 1/2."""
    rng = np.random.default_rng(seed)
    return ea.MarketModel.from_nodes(1, d, [
        {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0] * d}] + [
        {"id": f"w{i}", "time": 1, "parent": "r", "cond_prob": 1.0 / k,
         "prices": list(rng.integers(-steps, steps + 1, size=d) / 2.0)} for i in range(k)])


class TestPolytopeInduction:
    """At d >= 2 with q = inf or eps = 0 each node's set is a polytope and
    its programs are vertices of small LPs, held to the whole-tree LPs that
    ran there before."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda d: tree_markets(d, 4)), st.data())
    def test_inductions_match_the_lp_route(self, m, data):
        norms = data.draw(st.sampled_from([N1, N2]))
        eps = 0.0
        if norms is N1:
            gammas = [programs.node_min_simplex_deviation(m, v, N1) for v in m.internal]
            eps = data.draw(st.sampled_from([0.0, max(gammas), 1.5 * max(gammas) + 0.1])
                            | st.sampled_from(gammas))  # a degenerate node set at eps = gamma(v)
        c = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=m.n_leaves,
                                        max_size=m.n_leaves)), dtype=float)
        _matches_the_lp_route(m, eps, norms, c)

    @pytest.mark.parametrize("T", [2, 3, 4])
    def test_full_trees_match_the_lp_route(self, T):
        rng = np.random.default_rng(300 + T)
        m = full_tree_law(rng, T, 3, 2)
        c = rng.integers(-3, 4, size=m.n_leaves).astype(float)
        star = ea.critical_value(m, N1).epsilon
        for norms, eps in ((N1, star), (N1, 1.5 * star), (N1, 0.0), (N2, 0.0)):
            _matches_the_lp_route(m, eps, norms, c)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_unique_full_support_measure_attains(self, d, p):
        # HiGHS called the whole-tree face LP's thin slice infeasible at d = 2
        res = ea.robust_price_bound(_lifted_tree(d), 0.0, ea.NormPair(p),
                                    ea.Payoff(np.array([0.0, 0.0, 0.0, 1.0])), "sup")
        assert res.attained and not res.indeterminate
        assert res.face_min_weight == pytest.approx(0.2 * 0.01 / 2.01, rel=1e-9)
        assert res.value == pytest.approx(0.8 * 0.01 / 2.01, rel=1e-9)

    @pytest.mark.parametrize("k", [3, 40])
    def test_wide_nodes_match_the_lp_route(self, k, monkeypatch):
        # at 3 children every program enumerates all its bases; at 40 (2.6e6
        # bases for a face slice) each grows its columns from a vertex, and
        # no enumeration spans the node's children.  On the coarser grid of
        # seed 4 a degenerate vertex holds the value over several steps at
        # eps = 0, p = 2, and only steps that widen the columns get past it
        widths, grown = [], []
        real_bases, real_grown = programs._bases, programs._grown
        monkeypatch.setattr(programs, "_bases", lambda n, *a: widths.append(n) or real_bases(n, *a))
        monkeypatch.setattr(programs, "_grown", lambda *a: grown.append(1) or real_grown(*a))
        for seed, steps in ((0, 3), (1, 3), (2, 3), (4, 2)):
            m = _one_node(k, 3, seed, steps)
            c = np.random.default_rng(seed).integers(-3, 4, size=k).astype(float)
            star = ea.critical_value(m, N1).epsilon
            for norms, eps in ((N1, star), (N1, 1.5 * star + 0.1), (N1, 0.0), (N2, 0.0)):
                _matches_the_lp_route(m, eps, norms, c)
        assert bool(grown) == (k == 40)
        assert max(widths) <= k + 1 if k == 3 else max(widths) < k

    @staticmethod
    def _zero_child():
        """n0 -> ((0, -0.5, 0.5), (0, 0, 0)), probabilities 1/2: at eps =
        1e-6, p = 1, rho* = 4e-6 at the vertex (4e-6, 1 - 4e-6)."""
        return ea.MarketModel.from_nodes(1, 3, [
            {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0, 0.0, 0.0]},
            {"id": "a", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [0.0, -0.5, 0.5]},
            {"id": "b", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [0.0, 0.0, 0.0]}])

    def test_lost_basis_leaves_no_infeasible_verdict(self, monkeypatch):
        # a constant first asset makes bases singular (solved again without
        # them), and the vertex meets its row to 1e-18: its basis was
        # rejected, and the ratio read 0 from the others
        m = self._zero_child()
        dets = []
        real_det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda M: dets.append(1) or real_det(M))
        emm = ea.find_eps_martingale_measure(m, 1e-6, N1)
        assert emm.feasible and dets
        assert np.min(emm.measure.weights / m.leaf_prob) == pytest.approx(4e-6, rel=1e-9)
        _matches_the_lp_route(m, 1e-6, N1, np.array([1.0, -1.0]))

    def test_a_lost_basis_leaves_the_verdict_open(self, monkeypatch):
        # without the ratio's bases of s and child b, no vertex reaches
        # rho* = 4e-6; the duals' bound still covers it, so no "infeasible"
        real_bases = programs._bases

        def lossy(n, d, extra, free, most):
            rows, cols, pad = real_bases(n, d, extra, free, most)
            if free:  # gamma's program keeps its bases
                return rows, cols, pad
            keep = ~((cols == 0).any(axis=1) & (cols == 2).any(axis=1))
            return rows[keep], cols[keep], pad[keep]

        monkeypatch.setattr(programs, "_bases", lossy)
        status, _, _, bound, _ = programs.interior_feasibility(self._zero_child(), 1e-6, N1, 1e-9)
        assert status == "indeterminate" and bound >= 4e-6 * (1.0 - 1e-9)

    def test_prices_solve_no_lp_or_cone_program(self, monkeypatch):
        m = full_tree_law(np.random.default_rng(25), 3, 3, 2)
        psi = payoff_linear_terminal(m)
        eps = 1.5 * ea.critical_value(m, N1).epsilon
        solves = count_solves(monkeypatch)
        vertex = programs.NODE_PROGRAMS["polytope vertex"]
        cone = programs.NODE_PROGRAMS["cone program"]
        assert ea.find_eps_martingale_measure(m, eps, N1).feasible
        for direction in ("sup", "inf"):
            assert not ea.robust_price_bound(m, eps, N1, psi, direction).indeterminate
        res = ea.superhedge_price(m, eps, N1, psi)
        assert res.mode == "direct" and res.duality_ok
        ea.fair_price_range(m, eps, N1, psi)
        assert solves == []
        assert programs.NODE_PROGRAMS["polytope vertex"] > vertex
        assert programs.NODE_PROGRAMS["cone program"] == cone


class TestGeneralExponent:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_superhedge_is_the_dual_hedge(self, p):
        # the first 9-leaf d = 2 tree of full_tree_law(default_rng(11), 2, 3, 2)
        norms = ea.NormPair(p)
        m = full_tree_law(np.random.default_rng(11), 2, 3, 2)
        psi = ea.Payoff(np.linalg.norm(m.prices[list(m.leaves)] - m.prices[0], axis=1))
        eps = 1.5 * ea.critical_value(m, norms).epsilon
        hedge = ea.superhedge_price(m, eps, norms, psi)
        cert = hedge.certificate
        assert hedge.mode == "dual" and hedge.duality_ok
        add_on = np.zeros((m.n_nodes, m.d))
        for v, g in cert.orthogonal.items():
            add_on[v] = g
        slacks = (cert.capital + ea.gain(m, cert.strategy)
                  - eps * ea.strategy_cost(m, cert.strategy, norms)
                  + ea.gain(m, ea.Strategy(add_on)) - psi.values)
        assert np.min(cert.slacks) >= 0.0
        assert np.min(slacks) >= -1e-12 * (1.0 + cert.capital)
        emm = ea.find_eps_martingale_measure(m, eps, norms)
        assert emm.feasible
        assert hedge.price >= float(emm.measure.weights @ psi.values)


class TestFairRange:
    def test_half_open_interval(self):
        m = price_range_market(1.0)
        psi = ea.Payoff(np.array([0.0, 1.0]))
        res = ea.fair_price_range(m, 1.0, N2, psi)
        assert res.lower == pytest.approx(-1.0, abs=1e-6)
        assert res.upper == pytest.approx(1.5, abs=1e-6)
        assert res.lower_open and not res.upper_open
        assert not res.p1_caveat

    def test_constant_claim_closed_interval(self):
        m = price_range_market(1.0)
        psi = ea.Payoff(np.array([2.0, 2.0]))
        res = ea.fair_price_range(m, 1.0, N2, psi)
        assert res.lower == pytest.approx(1.0, abs=1e-9)
        assert res.upper == pytest.approx(3.0, abs=1e-9)
        assert not res.lower_open and not res.upper_open

    def test_replicable_claim_degenerates(self):
        m = binary_martingale(1.0)
        psi = ea.Payoff(ea.gain(m, ea.Strategy.from_dict(m, {"r": [1.0]})))
        res = ea.fair_price_range(m, 0.0, N2, psi)
        assert res.lower == pytest.approx(res.upper, abs=1e-9)
        assert res.lower == pytest.approx(0.0, abs=1e-9)

    def test_p1_carries_caveat(self):
        res = ea.fair_price_range(price_range_market(1.0), 1.0, N1,
                                  ea.Payoff(np.array([0.0, 1.0])))
        assert res.p1_caveat

    def test_both_ends_share_one_interior_solve(self, monkeypatch):
        # a p = 2 full tree, where the interior program is a cone program
        m, psi, eps = _full_tree_case(102, 2, 1.01)
        calls = []
        real = pricing.interior_feasibility

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pricing, "interior_feasibility", counted)
        res = ea.fair_price_range(m, eps, N2, psi)
        assert len(calls) == 1
        sup = ea.robust_price_bound(m, eps, N2, psi, "sup")
        inf = ea.robust_price_bound(m, eps, N2, psi, "inf")
        assert len(calls) == 3
        assert (res.lower, res.upper) == (inf.bound - eps, sup.bound + eps)
        assert (res.lower_attained, res.upper_attained) == (inf.attained, sup.attained)
        assert np.array_equal(res.lower_witness.weights, inf.witness.weights)
        assert np.array_equal(res.upper_witness.weights, sup.witness.weights)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(63)
        for _ in range(5):
            m = random_market(rng, d=1)
            base = critical_value_oracle(m, N2)
            psi = payoff_linear_terminal(m, 1.0)
            r1 = ea.fair_price_range(m, base + 0.05, N2, psi)
            r2 = ea.fair_price_range(m, base + 0.5, N2, psi)
            assert r2.lower <= r1.lower + 1e-8
            assert r2.upper >= r1.upper - 1e-8


def _check_direct_hedge(m, eps, norms, psi):
    """The super-hedge on polyhedral geometry ("direct": the node hedges,
    basis duals at d >= 2 and crossings at d = 1): its slacks, recomputed with the
    public gain and cost, cover the claim, and its capital is the price to
    1e-9 (relative)."""
    res = ea.superhedge_price(m, eps, norms, psi)
    cert = res.certificate
    assert res.mode == "direct" and res.duality_ok
    assert cert.orthogonal == {}
    slacks = (cert.capital + ea.gain(m, cert.strategy)
              - eps * ea.strategy_cost(m, cert.strategy, norms) - psi.values)
    assert np.min(cert.slacks) >= 0.0
    assert np.min(slacks) >= -1e-12 * (1.0 + abs(cert.capital))
    assert abs(cert.capital - res.price) <= 1e-9 * (1.0 + abs(res.price))
    return res


class TestStrongDuality:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_battery_above_critical(self, p):
        norms = ea.NormPair(p)
        rng = np.random.default_rng(int(71 * p))
        for _ in range(12):
            m = random_market(rng)
            eps = 1.1 * critical_value_oracle(m, norms) + 0.05
            psi = ea.Payoff(rng.normal(size=m.n_leaves))
            res = ea.superhedge_price(m, eps, norms, psi)
            assert res.gap is not None
            assert res.gap <= 1e-6 * (1 + abs(res.price))
            assert res.duality_ok
            if p == 1.0 or m.d == 1:
                _check_direct_hedge(m, eps, norms, psi)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_classical_level_hedge_is_the_price_lps_dual(self, p):
        # eps = 0 is polyhedral at every p: d = 2 martingale trees
        norms = ea.NormPair(p)
        rng = np.random.default_rng(int(29 * p))
        for _ in range(6):
            m = random_martingale_market(rng, T=2, d=2)
            _check_direct_hedge(m, 0.0, norms, ea.Payoff(rng.normal(size=m.n_leaves)))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_two_time0_nodes_hedge_is_the_node_hedges(self, p, monkeypatch):
        # d = 1: the price induction's node hedges, with no LP
        m, _ = load_market(os.path.join(DATA, "kr_p.json"))
        norms = ea.NormPair(p)
        eps = 1.5 * ea.critical_value(m, norms).epsilon
        solves = count_solves(monkeypatch)
        _check_direct_hedge(m, eps, norms, ea.Payoff(np.array([1.0, -2.0])))
        assert solves == []

    def test_p1_superhedge_solves_no_second_lp(self, monkeypatch):
        # a fresh d = 2 model: one interior and one price induction over
        # polytope nodes, whose basis duals are the hedge, and no LP
        m = _market("curved")
        eps = 1.5 * ea.critical_value(fresh_copy(m), N1).epsilon
        solves = count_solves(monkeypatch)
        vertex = programs.NODE_PROGRAMS["polytope vertex"]
        _check_direct_hedge(m, eps, N1, payoff_linear_terminal(m))
        assert solves == []
        assert programs.NODE_PROGRAMS["polytope vertex"] - vertex == 2 * len(m.internal)


# (T, branching, d): a curved tree (d = 2, conic off p = 1) and a polyhedral
# one (d = 1: the scalar closed forms at every p)
SHAPES = {"curved": (2, 2, 2), "polyhedral": (2, 3, 1)}


def _market(shape: str) -> ea.MarketModel:
    return full_tree_law(np.random.default_rng(25), *SHAPES[shape])


def _outcome(call, model) -> bytes:
    """The bytes of a call's result, or of the error it raised."""
    try:
        return result_bytes(call(model))
    except (ValueError, RuntimeError) as exc:
        return repr(exc).encode()


class TestKeptPrograms:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("shape", ["curved", "polyhedral"])
    def test_one_model_gives_the_bytes_of_fresh_models(self, shape, p):
        m = _market(shape)
        norms = ea.NormPair(p)
        ops = market_operations(m, norms, ea.critical_value(fresh_copy(m), norms).epsilon)
        for _ in range(2):  # the second round reads every kept result
            for name, call in ops:
                assert _outcome(call, m) == _outcome(call, fresh_copy(m)), name

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_repeated_prices_solve_no_interior_or_price_program(self, p, monkeypatch):
        # a run is a solve (LP or cone) or a node program (at p = 2 every
        # node of this shape has a closed form, which solves nothing)
        m = _market("curved")
        norms = ea.NormPair(p)
        eps = 1.5 * ea.critical_value(m, norms).epsilon
        psi = payoff_linear_terminal(m)
        solves = count_solves(monkeypatch)
        nodes = count_node_programs(monkeypatch)
        hedge = result_bytes(ea.superhedge_price(m, eps, norms, psi))
        assert solves_in(solves + nodes, "interior_feasibility") > 0
        assert solves_in(solves + nodes, "cone_linear_optimum") > 0
        fair = result_bytes(ea.fair_price_range(m, eps, norms, psi))
        del solves[:], nodes[:]
        assert result_bytes(ea.superhedge_price(m, eps, norms, psi)) == hedge
        assert result_bytes(ea.fair_price_range(m, eps, norms, psi)) == fair
        # only the programs that are not kept run again: the face programs
        # of the two price bounds (the hedge is the kept price induction's)
        runs = solves + nodes
        assert solves_in(runs, "interior_feasibility") == 0
        assert solves_in(runs, "cone_linear_optimum") == 0
        assert all("max_min_weight_on_face" in names for _, names in runs)

    def test_curved_prices_solve_no_cone_program(self, monkeypatch):
        # every node of the curved shape is binary at q = 2: find-emm, the
        # price bounds, the superhedge and the fair range run closed forms
        m = _market("curved")
        eps = 1.5 * ea.critical_value(m, N2).epsilon
        psi = payoff_linear_terminal(m)
        solves = count_solves(monkeypatch)
        nodes = count_node_programs(monkeypatch)
        cone = programs.NODE_PROGRAMS["cone program"]
        assert ea.find_eps_martingale_measure(m, eps, N2).feasible
        for direction in ("sup", "inf"):
            assert not ea.robust_price_bound(m, eps, N2, psi, direction).indeterminate
        assert ea.superhedge_price(m, eps, N2, psi).duality_ok
        ea.fair_price_range(m, eps, N2, psi)
        assert solves == []
        assert nodes and programs.NODE_PROGRAMS["cone program"] == cone

    def test_other_argument_bits_miss(self):
        m = _market("curved")
        eps = 1.5 * ea.critical_value(m, N2).epsilon
        psi = payoff_linear_terminal(m).values
        anchor = ea.find_eps_martingale_measure(m, eps, N2).measure.weights

        def missed(program, *args, **kwargs):
            """Whether the call added a result to the model's store."""
            before = set(m.__dict__["_programs"])
            program(m, *args, **kwargs)
            return bool(set(m.__dict__["_programs"]) - before)

        interior = programs.interior_feasibility
        assert missed(interior, eps, N2, 1e-9)
        assert not missed(interior, eps, N2, 1e-9)
        assert missed(interior, np.nextafter(eps, 1.0), N2, 1e-9)
        assert missed(interior, eps, N2, 2e-9)
        assert missed(interior, 0.0, N2, 1e-9)  # the polytope route at eps = 0
        assert missed(interior, -0.0, N2, 1e-9)
        price = programs.cone_linear_optimum
        assert missed(price, eps, N2, psi, "max", anchor)
        assert not missed(price, eps, N2, psi.copy(), "max", anchor.copy())  # bits, not identity
        assert missed(price, eps, N2, psi, "min", anchor)
        assert missed(price, eps, N2, 2.0 * psi, "max", anchor)
        assert missed(price, eps, N2, psi, "max", None)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_results_are_read_only(self, p):
        m = _market("curved")
        norms = ea.NormPair(p)
        eps_star = ea.critical_value(m, norms).epsilon
        ops = market_operations(m, norms, eps_star)
        eps, psi = 1.5 * eps_star, payoff_linear_terminal(m).values
        anchor = ea.find_eps_martingale_measure(m, eps, norms).measure.weights
        direct = [
            ("interior", lambda m: programs.interior_feasibility(m, eps, norms, 1e-9)),
            ("price", lambda m: programs.cone_linear_optimum(m, eps, norms, psi, "max", anchor)),
            ("sum", lambda m: programs.strict_arbitrage_sum_program(programs.tree_ops(m), eps))]
        results = [call(m) for _, call in ops + direct]
        want = [result_bytes(r) for r in results]
        arrays = [a for r in results for a in result_arrays(r)]
        assert len(arrays) > 10
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 1.0
        # each call gets its own dicts: the superhedge's add-on, the kept hedge's
        results[6].certificate.orthogonal[-1] = np.zeros(m.d)
        results[-2][3][2][-1] = np.zeros(m.d)
        assert [result_bytes(call(m)) for _, call in ops + direct] == want
        assert pickle.loads(pickle.dumps((m, results)))

    def test_a_sweep_of_levels_keeps_the_bound(self, monkeypatch):
        m = kbar_market(1.0)
        levels = np.linspace(1.01, 2.0, 1000)  # one interior induction per level at p = 1
        for eps in levels:
            programs.interior_feasibility(m, eps, N1, 1e-9)
        assert len(m.__dict__["_programs"]) == programs._KEPT_RESULTS
        runs = count_node_programs(monkeypatch)
        for eps in levels[-programs._KEPT_RESULTS:]:
            programs.interior_feasibility(m, eps, N1, 1e-9)
        assert not runs
        programs.interior_feasibility(m, levels[-programs._KEPT_RESULTS - 1], N1, 1e-9)
        assert runs

    def test_model_is_freed_after_use(self):
        m = _market("curved")
        for _, call in market_operations(m, N2, ea.critical_value(m, N2).epsilon):
            call(m)
        assert m.__dict__["_programs"]
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None
