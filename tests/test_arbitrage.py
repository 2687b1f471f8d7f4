"""Arbitrage quantification.

Core claims:
    - the detector separates strict arbitrage from its sequential closure
      (no false positives at the boundary level)
    - maximin certificates carry uniform slack per unit norm, confirmed by a
      grid-search oracle; a detection that wants no certificate solves no
      maximin program (on polyhedral geometry, the sum LP alone)
    - the critical level matches an independent simplex-deviation oracle and
      the two bisections agree, also at p = 1.5 and p = 3, where measures
      exist above it and not below
    - the default critical level is max_v gamma(v), checked once on each
      side and with no bisection; the scalar-increment closed form of gamma
      matches its LP, and at d = 1 the critical level solves no LP
    - at d = 1 a node decision is a sign test on h = +1 and -1; at eps = 0
      it finds the classical arbitrage that detection finds, at every p
    - at p = 1 with d >= 2 each gamma(v) is a vertex of the node's LP, held
      to that LP (0 on a hull's boundary too), and the exact level returns
      its max and first argmax (ties to the first node) with no LP
    - the measure-side bisection's value with its steps outside the exact
      route's certified bracket left unsolved is the bisection's own, bit
      for bit, and a check without its verdict leaves its side to the solves
    - node geometry: extremal direction, orthogonal bases, decomposition
      identities, and the non-asymptotic no-arbitrage check
    - strictly-above-the-threshold levels kill the extremal direction
    - a model keeps its strict-arbitrage sum program's results: NA' reads
      the detector's at the same level, while -0.0 against 0.0, a node's
      one-period ops and ops that are not the model's own miss
    - off polyhedral geometry the maximin is a backward induction over
      nodes: its certified bracket meets the deleted whole-tree cone
      program's, it solves no cone program on binary q = 2 trees, and
      time-0 nodes share the budget as 1 / phi, or leave the node
      certificate when one of them has no arbitrage
"""

import json
import logging
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

import epsarb as ea
from epsarb import programs
from epsarb.testing import random_market, random_martingale_market

from _helpers import (binary_martingale, count_solves, critical_value_oracle, drift_market,
                      fresh_copy, full_tree_law, grid_search_maximin, kbar_market,
                      lp_node_deviation, min_simplex_deviation_lp, nostrictarb_market,
                      price_range_market, result_bytes, solves_in, two_state)

N1, N2 = ea.NormPair(1.0), ea.NormPair(2.0)


class TestDetect:
    def test_boundary_level_has_no_strict_arbitrage(self):
        rep = ea.detect_strict_arbitrage(nostrictarb_market(1.0), 1.0, N2)
        assert rep.status == "none_within_tolerance"
        assert rep.optimum <= 1e-8

    def test_half_level_detects_with_uniform_margin(self):
        m = nostrictarb_market(1.0)
        rep = ea.detect_strict_arbitrage(m, 0.5, N2)
        assert rep.found
        assert rep.maximin_margin == pytest.approx(0.5, abs=1e-8)
        assert rep.certificate.values[0] == pytest.approx([1.0, 0.0], abs=1e-7)
        assert np.min(rep.slacks) >= 0.5 - 1e-8

    def test_grid_oracle_confirms_certificate_direction(self):
        m = nostrictarb_market(1.0)
        best, best_h = grid_search_maximin(m, 0.5, N2)
        assert best == pytest.approx(0.5, abs=1e-4)
        assert best_h == pytest.approx([1.0, 0.0], abs=1e-2)

    def test_martingale_market_clean_at_zero(self):
        rep = ea.detect_strict_arbitrage(binary_martingale(), 0.0, N2)
        assert rep.status == "none_within_tolerance"

    def test_classical_one_sided_arbitrage_found(self):
        # d = 1: up 1 or flat, strict arbitrage with a zero slack on one leaf
        m = two_state([0.0], [1.0], [0.0], 1)
        rep = ea.detect_strict_arbitrage(m, 0.0, N1)
        assert rep.found
        assert np.min(rep.slacks) >= -1e-10
        assert np.sum(rep.slacks) > 1e-8

    def test_zero_slack_boundary_arbitrage_p2(self):
        # two assets, increments (2,0) and (1,0): slack vector (1, 0) at h=e1
        m = two_state([0.0, 0.0], [2.0, 0.0], [1.0, 0.0], 2)
        rep = ea.detect_strict_arbitrage(m, 1.0, N2)
        assert rep.found
        assert np.min(rep.slacks) >= -1e-9

    def test_polyhedral_detection_without_certificate_solves_only_the_sum_lp(self, monkeypatch):
        m = full_tree_law(np.random.default_rng(4), 2, 3, 2)
        eps = 0.5 * ea.critical_value(fresh_copy(m), N1).epsilon
        full = ea.detect_strict_arbitrage(fresh_copy(m), eps, N1)
        solves = count_solves(monkeypatch)
        rep = ea.detect_strict_arbitrage(m, eps, N1, want_certificate=False)
        assert len(solves) == solves_in(solves, "strict_arbitrage_sum_program") == 1
        assert rep.found and rep.optimum == full.optimum
        assert rep.certificate is None and rep.slacks is None and np.isnan(rep.maximin_margin)
        # NA' without certificates reads the kept sum LP and solves no maximin
        nap = ea.check_na_prime(m, eps, N1, certificates=False)
        assert len(solves) == 1 and not nap.holds
        assert nap.strict_arbitrage.certificate is None

    def test_invalid_market_rejected(self):
        bad = ea.MarketModel(T=1, d=1, ids=("r", "a", "b"),
                             times=np.array([0, 1, 1]), parent=np.array([-1, 0, 0]),
                             cond_prob=np.array([1.0, 0.6, 0.6]),
                             prices=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="invalid market"):
            ea.detect_strict_arbitrage(bad, 0.5, N2)

    def test_status_switches_once_along_eps(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            m = random_market(rng)
            for norms in (N1, N2):
                hi = 1.2 * critical_value_oracle(m, norms) + 0.4
                flags = [ea.detect_strict_arbitrage(m, e, norms).found
                         for e in np.linspace(0.0, hi, 9)]
                # arbitrage region is an initial segment
                assert flags == sorted(flags, reverse=True)


def _check_critical_level(m, norms):
    """Both bisections agree with the oracle; measures exist above eps(P) only."""
    want = critical_value_oracle(m, norms)
    res = ea.critical_value(m, norms, method="both")
    assert res.agreed
    assert res.epsilon == pytest.approx(want, rel=1e-5, abs=1e-9)
    if want > 1e-6:
        assert not ea.find_eps_martingale_measure(m, 0.5 * want, norms).feasible
    assert ea.find_eps_martingale_measure(m, 1.5 * want + 0.05, norms).feasible


class TestCriticalValue:
    def test_kbar_market_threshold(self):
        res = ea.critical_value(kbar_market(1.0), N2)
        assert res.epsilon == pytest.approx(1.0, abs=1e-5)
        assert res.agreed

    def test_symmetric_martingale_is_zero(self):
        res = ea.critical_value(binary_martingale(), N2)
        assert res.epsilon == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_drift_equals_move_size(self):
        res = ea.critical_value(drift_market(M=5.0), N2)
        assert res.epsilon == pytest.approx(5.0, abs=1e-4)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_independent_oracle(self, p):
        norms = ea.NormPair(p)
        rng = np.random.default_rng(int(31 * p))
        for _ in range(12):
            m = random_market(rng)
            want = critical_value_oracle(m, norms)
            res = ea.critical_value(m, norms)
            assert res.epsilon == pytest.approx(want, abs=2e-5 * (1 + want))
            assert abs(res.primal_estimate - res.dual_estimate) <= 1e-5 * (1 + want)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_bisections_match_independent_oracle(self, p):
        # The markets of test_matches_independent_oracle on the bisection
        # route, where the two estimates are computed independently.
        norms = ea.NormPair(p)
        rng = np.random.default_rng(int(31 * p))
        for _ in range(12):
            m = random_market(rng)
            want = critical_value_oracle(m, norms)
            res = ea.critical_value(m, norms, method="both")
            assert res.epsilon == pytest.approx(want, abs=2e-5 * (1 + want))
            assert abs(res.primal_estimate - res.dual_estimate) <= 1e-5 * (1 + want)

    @pytest.mark.parametrize("p, seed", [(1.5, 150), (3.0, 300)])
    def test_other_exponents_match_oracle(self, p, seed):
        norms = ea.NormPair(p)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            _check_critical_level(random_market(rng, T=1, d=2), norms)

    def test_dual_bisection_regression_p2(self):
        # A step of the measure-side bisection used to be undecided and was
        # counted as infeasible: the dual estimate came out 1.01887.
        rng = np.random.default_rng(2024)
        for _ in range(9):
            m = random_market(rng, T=1, d=2)
        _check_critical_level(m, N2)

    def test_undecided_dual_step_is_flagged_not_averaged(self, monkeypatch):
        # Every measure-side step above eps = 0 left undecided: the dual
        # bisection stops at its first step, so its estimate (the middle of
        # [0, hi]) must neither enter eps(P) nor pass the cross-check.  Each
        # undecided level is solved once, not retried: one per bisection
        # (the main one and six of the eta sweep).
        real = ea.arbitrage.interior_feasibility
        undecided_calls = []

        def undecided(model, eps, *args, **kwargs):
            if eps > 0.0:
                undecided_calls.append(eps)
                return "indeterminate", None, None, None, None
            return real(model, eps, *args, **kwargs)

        monkeypatch.setattr(ea.arbitrage, "interior_feasibility", undecided)
        m = kbar_market(1.0)
        res = ea.critical_value(m, N2, eta_sweep=True, method="both")
        assert len(undecided_calls) == 7
        assert len(res.dual_curve) == 2
        assert res.dual_estimate == pytest.approx(0.5 * ea.arbitrage.reference_deviation(m, N2), rel=1e-8)
        assert res.epsilon == res.primal_estimate
        assert res.epsilon == pytest.approx(1.0, abs=1e-5)
        assert not res.agreed
        assert all(v is None for v in res.eta_sweep.values())

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_zero_level_verdict_is_checked(self, p):
        # eps = 0 is decided by an LP whose vertex meets z_v(q) = 0 only to
        # rounding: a feasible verdict still carries q >= eta P elementwise
        # and margins -|z_v(q)| within the rounding floor.
        m = two_state([0.0, 0.0], [1.0, 0.5], [-1.0, -0.5], 2)
        eta = 1e-7 * float(np.min(m.leaf_prob))
        status, q, rho, _, margin = ea.programs.interior_feasibility(m, 0.0, ea.NormPair(p), eta)
        assert status == "feasible"
        assert np.all(q >= eta * m.leaf_prob) and rho >= eta
        assert margin >= -1e-12 * (1.0 + 1.0)
        assert ea.find_eps_martingale_measure(m, 0.0, ea.NormPair(p)).feasible

    def test_lp_route_verdicts_are_checked(self, monkeypatch):
        # Near eps(P) this d = 1 market's interior LP has rho* ~ 1e-6, and
        # HiGHS's first vertex misses a node row by 1e-7: every feasible
        # verdict of the bisection must still pass the exact checks.
        rng = np.random.default_rng(8)
        for _ in range(2):
            m = random_market(rng, T=2, d=1)
        ops = ea.programs.tree_ops(m)
        floor = 1e-12 * (1.0 + float(np.max(np.abs(ops.coeff))))
        real = ea.arbitrage.interior_feasibility
        verdicts = []

        def checked(model, eps, norms, eta, *args, **kwargs):
            out = real(model, eps, norms, eta, *args, **kwargs)
            verdicts.append(out[0])
            if out[0] == "feasible":
                assert np.all(out[1] >= eta * model.leaf_prob)
                assert np.min(ea.programs._cone_margins(ops, eps, norms, out[1])) >= -floor
            return out

        monkeypatch.setattr(ea.arbitrage, "interior_feasibility", checked)
        res = ea.critical_value(m, N1)
        assert "feasible" in verdicts and "indeterminate" not in verdicts
        assert res.agreed
        assert res.epsilon == pytest.approx(critical_value_oracle(m, N1), rel=1e-5)

    def test_lp_route_verdicts_are_checked_on_bisection(self, monkeypatch):
        # The market of test_lp_route_verdicts_are_checked, on the bisection
        # route, whose measure-side steps close in on eps(P) from both sides.
        rng = np.random.default_rng(8)
        for _ in range(2):
            m = random_market(rng, T=2, d=1)
        ops = ea.programs.tree_ops(m)
        floor = 1e-12 * (1.0 + float(np.max(np.abs(ops.coeff))))
        real = ea.arbitrage.interior_feasibility
        verdicts = []

        def checked(model, eps, norms, eta, *args, **kwargs):
            out = real(model, eps, norms, eta, *args, **kwargs)
            verdicts.append(out[0])
            if out[0] == "feasible":
                assert np.all(out[1] >= eta * model.leaf_prob)
                assert np.min(ea.programs._cone_margins(ops, eps, norms, out[1])) >= -floor
            return out

        monkeypatch.setattr(ea.arbitrage, "interior_feasibility", checked)
        res = ea.critical_value(m, N1, method="both")
        assert "feasible" in verdicts and "infeasible" in verdicts
        assert "indeterminate" not in verdicts
        assert res.agreed
        assert res.epsilon == pytest.approx(critical_value_oracle(m, N1), rel=1e-5)

    def test_eta_sweep_is_reported(self):
        res = ea.critical_value(kbar_market(1.0), N2, eta_sweep=True)
        assert res.eta_sweep is not None
        vals = np.array(list(res.eta_sweep.values()))
        assert np.max(np.abs(vals - 1.0)) < 1e-4


class TestExactCriticalValue:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0]))
    @example(356263484, 1.0)
    @example(356263484, 2.0)
    def test_matches_oracle(self, seed, p):
        # The oracle's SLSQP (p = 2) stalls at about 1e-8 near 0; at p = 1
        # it solves one LP per node.  Seed 356263484 (d = 1) has rho* = 5.8e-9
        # just above eps(P), under 1e-7 min P: the check asks only for q > 0.
        norms = ea.NormPair(p)
        m = random_market(np.random.default_rng(seed))
        want = critical_value_oracle(m, norms)
        res = ea.critical_value(m, norms)
        assert res.agreed
        assert res.epsilon == pytest.approx(want, rel=1e-6, abs=1e-7)
        v = res.argmax_node
        assert v in m.internal
        assert res.epsilon == ea.programs.node_min_simplex_deviation(m, v, norms)

    def test_default_path_runs_no_bisection(self, monkeypatch):
        calls = {"interior": 0, "detect": 0, "bisection": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ea.arbitrage, "interior_feasibility",
                            counted("interior", ea.arbitrage.interior_feasibility))
        monkeypatch.setattr(ea.arbitrage, "detect_strict_arbitrage",
                            counted("detect", ea.arbitrage.detect_strict_arbitrage))
        for name in ("critical_value_primal", "critical_value_dual"):
            monkeypatch.setattr(ea.arbitrage, name,
                                counted("bisection", getattr(ea.arbitrage, name)))
        rng = np.random.default_rng(12)
        cases = [(kbar_market(1.0), N2), (drift_market(M=5.0), N1)]
        cases += [(random_market(rng, d=d), norms) for d in (1, 2) for norms in (N1, N2)]
        for m, norms in cases:
            calls.update(interior=0, detect=0, bisection=0)
            res = ea.critical_value(m, norms)
            assert res.agreed
            assert calls == {"interior": 1, "detect": 0, "bisection": 0}

    def test_undecided_measure_check_is_flagged(self, monkeypatch):
        # The measure-side check at eps(P) + delta left undecided: the exact
        # value stands, but it is not agreed, and nothing is retried.
        real = ea.arbitrage.interior_feasibility

        def undecided(model, eps, *args, **kwargs):
            if eps > 0.0:
                return "indeterminate", None, None, None, None
            return real(model, eps, *args, **kwargs)

        monkeypatch.setattr(ea.arbitrage, "interior_feasibility", undecided)
        res = ea.critical_value(kbar_market(1.0), N2, eta_sweep=True)
        assert res.epsilon == pytest.approx(1.0, abs=1e-9)
        assert res.argmax_node == 0
        assert not res.agreed
        assert len(res.dual_curve) == 1
        assert all(v is None for v in res.eta_sweep.values())

    @pytest.mark.parametrize("scale", [150.0, 1500.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_large_increments_clear_the_node_band(self, scale, p):
        # gamma = ref = 1e-3, so 1e-6 (1 + ref) lies inside the node band
        # 1e-8 (1 + scale): the check below eps(P) must step past the band.
        m = _one_period([[scale, 1e-3], [-scale, 1e-3]])
        res = ea.critical_value(m, ea.NormPair(p))
        assert res.agreed
        assert res.epsilon == pytest.approx(1e-3, rel=1e-12)
        (lo, slack), = res.primal_curve
        assert lo < res.epsilon - 1e-8 * (1.0 + scale) and slack > 0.0


def _full_scan(m: ea.MarketModel):
    """max_v gamma(v) at p = 1 and the first node reaching it, by one LP per
    node (``lp_node_deviation``)."""
    gammas = [lp_node_deviation(m.delta[list(m.children[v])]) for v in m.internal]
    j = int(np.argmax(gammas))
    return gammas[j], m.internal[j]


@st.composite
def deviation_markets(draw):
    """One to four time-0 nodes in d in {2, 3} assets, each with one to six
    children at increments from a grid (0 often on a hull's boundary), and
    maybe a copy of the first node last: a tie the first must win."""
    d = draw(st.sampled_from([2, 3]))
    grid = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    kids = draw(st.lists(st.lists(st.lists(grid, min_size=d, max_size=d), min_size=1, max_size=6),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        kids.append(kids[0])
    nodes = []
    for r, increments in enumerate(kids):
        nodes.append({"id": f"r{r}", "time": 0, "parent": None, "cond_prob": 1.0 / len(kids),
                      "prices": [0.0] * d})
        nodes += [{"id": f"r{r}w{i}", "time": 1, "parent": f"r{r}",
                   "cond_prob": 1.0 / len(increments), "prices": x}
                  for i, x in enumerate(increments)]
    return ea.MarketModel.from_nodes(1, d, nodes)


class TestPrunedScan:
    """At p = 1 with d >= 2 each gamma(v) of the exact level's scan is a
    vertex of the node's LP (no LP runs), held to that LP: the max, and the
    first node reaching it, as ``np.argmax`` picks."""

    @pytest.mark.parametrize("T", [2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_the_full_scan(self, d, T):
        m = full_tree_law(np.random.default_rng(300 + 10 * d + T), T, 3, d)
        res = ea.critical_value(m, N1)
        eps, v = _full_scan(m)
        assert res.epsilon == pytest.approx(eps, rel=1e-9, abs=1e-12) and res.argmax_node == v

    @settings(max_examples=300, deadline=None)
    @given(deviation_markets())
    def test_vertex_deviations_match_the_lp(self, m):
        want = [lp_node_deviation(m.delta[list(m.children[v])]) for v in m.internal]
        got = [ea.programs.node_min_simplex_deviation(m, v, N1) for v in m.internal]
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        for v in m.internal:
            node = ea.programs.node_geometry(m, np.inf)[v]
            assert 0.0 <= node.low <= node.gamma <= node.low + 1e-12
        res = ea.critical_value(m, N1)
        j = list(m.internal).index(res.argmax_node)
        assert res.epsilon == got[j] == max(got) and max(got[:j], default=-1.0) < got[j]
        assert want[j] == pytest.approx(max(want), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("kids", [
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],  # 0 on an edge of the hull
        [[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]],  # 0 a vertex of the hull
        [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.5, -0.5, 2.0]],
    ])
    def test_zero_on_the_hull_boundary(self, kids):
        m = _one_period(kids)
        assert ea.programs.node_min_simplex_deviation(m, 0, N1) == 0.0
        assert lp_node_deviation(np.array(kids)) == pytest.approx(0.0, abs=1e-12)

    def test_tie_keeps_the_first_node(self):
        # nodes a and b are identical and the largest: a comes first
        kids = [[2.0, 0.5], [3.0, -0.5], [2.5, 1.0]]
        nodes = [{"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0, 0.0]}]
        for name, price in (("a", [1.0, 0.0]), ("b", [1.0, 0.0]), ("c", [-1.0, 0.5])):
            nodes.append({"id": name, "time": 1, "parent": "r", "cond_prob": 1 / 3,
                          "prices": price})
        for name, price in (("a", [1.0, 0.0]), ("b", [1.0, 0.0])):
            nodes += [{"id": f"{name}{i}", "time": 2, "parent": name, "cond_prob": 1 / 3,
                       "prices": list(np.add(price, x))} for i, x in enumerate(kids)]
        nodes += [{"id": f"c{i}", "time": 2, "parent": "c", "cond_prob": 1 / 3,
                   "prices": list(np.add([-1.0, 0.5], x))}
                  for i, x in enumerate([[1.0, 0.0], [-1.0, 0.3], [0.0, -1.0]])]
        m = ea.MarketModel.from_nodes(2, 2, nodes)
        res = ea.critical_value(m, N1)
        assert (res.epsilon, res.argmax_node) == _full_scan(m) == (2.0, m.index["a"])

    def test_81_leaf_tree_solves_few_lps(self, monkeypatch):
        # the 40 gammas are vertices: only the node decision below eps(P) solves LPs
        m = full_tree_law(np.random.default_rng(104), 4, 3, 2)
        solves = count_solves(monkeypatch)
        res = ea.critical_value(m, N1)
        assert res.agreed and len(m.internal) == 40
        assert 0 < len(solves) == solves_in(solves, "node_strict_arbitrage") <= 2


def _one_period(increments) -> ea.MarketModel:
    """One node with uniform children at the given (k, d) increments."""
    increments = np.asarray(increments, dtype=float)
    k, d = increments.shape
    nodes = [{"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0] * d}]
    nodes += [{"id": f"w{i}", "time": 1, "parent": "r", "cond_prob": 1.0 / k,
               "prices": list(x)} for i, x in enumerate(increments)]
    return ea.MarketModel.from_nodes(1, d, nodes)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestDualLevel:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_equals_the_dual_bisection(self, p):
        norms = ea.NormPair(p)
        markets = [random_market(np.random.default_rng(s)) for s in (1, 2, 3, 5, 6, 7)]
        markets += [random_martingale_market(np.random.default_rng(s), d=1 + s % 2)
                    for s in range(2)]
        # eps(P) = 0 with a drift, and 0 < eps(P) <= delta: the node check
        # below eps(P) is skipped on both
        markets += [_one_period([[1.0], [-0.5]]), _one_period([[1e-7], [1.0]]),
                    _one_period([[1e-7, 0.5], [2.0, 0.5]])]
        skipped = set()
        for m in markets:
            want = ea.critical_value(m, norms, method="dual").epsilon
            assert _bits(ea.arbitrage._dual_level(m, norms)) == _bits(want)
            exact = ea.critical_value(m, norms)
            if not exact.primal_curve:
                skipped.add("zero" if exact.epsilon == 0.0 else "positive")
        assert skipped == {"zero", "positive"}

    def test_invalid_market_rejected_as_by_critical_value(self):
        bad = ea.MarketModel(T=1, d=1, ids=("r", "a", "b"),
                             times=np.array([0, 1, 1]), parent=np.array([-1, 0, 0]),
                             cond_prob=np.array([1.0, 0.6, 0.6]),
                             prices=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="invalid market") as want:
            ea.critical_value(bad, N2, method="dual")
        with pytest.raises(ValueError) as got:
            ea.arbitrage._dual_level(bad, N2)
        assert str(got.value) == str(want.value)

    @staticmethod
    def _bracket(m, norms):
        exact = ea.critical_value(m, norms)
        return exact.primal_curve[0][0], exact.dual_curve[0][0]

    def test_undecided_check_leaves_its_side_to_the_solves(self, monkeypatch):
        # No verdict at eps(P) + delta: every step above eps(P) - delta
        # solves its program, the steps at or above eps(P) + delta included.
        m = random_market(np.random.default_rng(3), T=2, d=1)
        lo, hi = self._bracket(m, N2)
        real = ea.arbitrage.interior_feasibility
        levels = []

        def undecided_at_hi(model, eps, *args, **kwargs):
            levels.append(eps)
            if eps == hi:
                return "indeterminate", None, None, None, None
            return real(model, eps, *args, **kwargs)

        monkeypatch.setattr(ea.arbitrage, "interior_feasibility", undecided_at_hi)
        got = ea.arbitrage._dual_level(m, N2)
        assert levels[0] == hi
        steps = levels[1:]
        levels.clear()
        bisection = ea.critical_value(m, N2, method="dual")
        assert _bits(got) == _bits(bisection.epsilon)
        assert steps == [e for e, _ in bisection.dual_curve if e > lo]
        assert any(e >= hi for e in steps)
        assert any(e <= lo for e, _ in bisection.dual_curve)

    def test_undecided_step_in_the_bracket_stops_the_bisection(self, monkeypatch):
        m = random_market(np.random.default_rng(3), T=2, d=1)
        lo, hi = self._bracket(m, N2)
        real = ea.arbitrage.interior_feasibility
        undecided = []

        def undecided_inside(model, eps, *args, **kwargs):
            if lo < eps < hi:
                undecided.append(eps)
                return "indeterminate", None, None, None, None
            return real(model, eps, *args, **kwargs)

        monkeypatch.setattr(ea.arbitrage, "interior_feasibility", undecided_inside)
        got = ea.arbitrage._dual_level(m, N2)
        assert len(undecided) == 1
        estimate, curve, _, converged = ea.arbitrage.critical_value_dual(m, N2)
        assert not converged
        assert curve[-1][0] == undecided[0] == undecided[1]
        assert _bits(got) == _bits(estimate)
        assert _bits(got) == _bits(ea.critical_value(m, N2, method="dual").epsilon)


class TestNodeDeviation:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
                    | st.floats(-10.0, 10.0), min_size=1, max_size=6),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_scalar_closed_form_matches_lp(self, increments, p):
        m = _one_period([[x] for x in increments])
        got = ea.programs.node_min_simplex_deviation(m, 0, ea.NormPair(p))
        want = min_simplex_deviation_lp(m.delta[list(m.children[0])])
        assert got == pytest.approx(want, abs=1e-9)


class TestNodeDecision:
    def test_polyhedral_boundary_band_finds_zero_slack_arbitrage(self):
        # increments (2,0) and (1,0) at eps = gamma = 1: h = e1 has slacks (1, 0);
        # at q = 2 the band is decided on the min-norm face, the child (1, 0)
        for norms in (N1, N2):
            m = two_state([0.0, 0.0], [2.0, 0.0], [1.0, 0.0], 2)
            gamma = ea.programs.node_min_simplex_deviation(m, 0, norms)
            found, h, _ = ea.programs.node_strict_arbitrage(m, 0, gamma, norms)
            assert gamma == 1.0 and found
            assert h == pytest.approx([1.0, 0.0], abs=1e-12)
            slacks = m.delta[list(m.children[0])] @ h - gamma * norms.norm(h)
            assert slacks == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_polyhedral_boundary_band_finds_none(self):
        # increments (1,1) and (-1,1) at eps = gamma = 1: only h = (0, t)
        # keeps both slacks >= 0, and both are then 0 (at q = 2 the min-norm
        # face is the full-support point (1/2, 1/2))
        for norms in (N1, N2):
            m = two_state([0.0, 0.0], [1.0, 1.0], [-1.0, 1.0], 2)
            gamma = ea.programs.node_min_simplex_deviation(m, 0, norms)
            found, h, _ = ea.programs.node_strict_arbitrage(m, 0, gamma, norms)
            assert gamma == 1.0 and not found and h is None

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_certificate_margin_is_gamma_minus_eps(self, p, d):
        # minimax duality: max over |h|_p <= 1 of the worst child slack is gamma - eps
        norms = ea.NormPair(p)
        rng = np.random.default_rng(int(100 * p) + d)
        checked = 0
        for _ in range(30):
            k = int(rng.integers(1, 5))
            m = _one_period(rng.normal(size=(k, d)) + rng.normal(size=d))
            gamma = ea.programs.node_min_simplex_deviation(m, 0, norms)
            if gamma < 1e-3:
                continue
            eps = float(rng.uniform(0.0, 0.9)) * gamma
            found, h, got_gamma = ea.programs.node_strict_arbitrage(m, 0, eps, norms)
            assert found and got_gamma == gamma
            margin = float(np.min(m.delta[list(m.children[0])] @ h)) / norms.norm(h) - eps
            assert margin == pytest.approx(gamma - eps, abs=1e-9 * (1.0 + gamma))
            checked += 1
        assert checked >= 15

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), min_size=1,
                    max_size=5),
           st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    def test_scalar_decision_is_a_sign_test(self, increments, eps):
        # d = 1: h = +1 or -1 with every slack h a_w - eps >= 0 and one > 0
        m = _one_period([[x] for x in increments])
        a = np.array(increments)
        want = [h for h in (1.0, -1.0) if np.all(h * a >= eps) and np.any(h * a > eps)]
        for norms in (N1, N2):
            found, h, _ = ea.programs.node_strict_arbitrage(m, 0, eps, norms)
            assert found == bool(want)
            assert (h is None) if not want else (list(h) == want[:1])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_classical_arbitrage_at_eps_zero_agrees_with_detection(self, p):
        # at eps = 0 the node decision finds what detection finds, with a
        # certificate of slacks >= 0, one > 0
        norms = ea.NormPair(p)
        markets = [two_state([0.0], [1.0], [0.0], 1), two_state([0, 0], [1, 0], [0, 0], 2),
                   binary_martingale(), kbar_market(1.0), _one_period([[1.0, 1.0], [-1.0, 1.0]])]
        rng = np.random.default_rng(int(10 * p))
        markets += [_one_period(rng.integers(-2, 3, size=(int(rng.integers(1, 4)), d)))
                    for d in (1, 2) for _ in range(10)]
        for m in markets:
            found, h, _ = ea.programs.node_strict_arbitrage(m, 0, 0.0, norms)
            assert found == ea.detect_strict_arbitrage(m, 0.0, norms).found
            if found:
                slack = m.delta[list(m.children[0])] @ h
                assert np.min(slack) >= -1e-12 and np.max(slack) > 1e-9

    def test_scalar_critical_value_solves_no_lp(self, monkeypatch):
        # d = 1: gamma is a closed form, the node decision at eps(P) - delta
        # a sign test and the interior check at eps(P) + delta an induction
        m = full_tree_law(np.random.default_rng(25), 3, 3, 1)
        solves = count_solves(monkeypatch)
        for norms in (N1, N2):
            res = ea.critical_value(m, norms)
            assert res.agreed and res.primal_curve[0][1] > 0.0
        assert solves == []

    def test_failed_min_norm_solve_in_the_band_means_none(self):
        # gamma = 0 (zero inside the hull); at eps = 5e-11 the support
        # analysis runs on an inconsistent min-norm system at p = 1.5
        m = _one_period([[1.0, 0.0], [-3.0, 0.0], [1.0, 2.0]])
        norms = ea.NormPair(1.5)
        for eps in (5e-11, 1e-3):
            rep = ea.detect_strict_arbitrage(m, eps, norms)
            assert rep.status == "none_within_tolerance"


class TestNodeStructure:
    def test_two_asset_extremal_direction(self):
        m = nostrictarb_market(1.0)
        st = ea.compute_node_structure(m, 1.0, N2)[0]
        assert st.hbar == pytest.approx([1.0, 0.0], abs=1e-9)
        assert st.hbar_dual == pytest.approx([1.0, 0.0], abs=1e-9)
        span = st.perp_basis
        assert span.shape == (2, 1)
        assert abs(span[1, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_above_threshold_kills_the_direction(self):
        m = kbar_market(1.0)
        st = ea.compute_node_structure(m, 1.5, N2)[0]
        assert not st.active
        assert st.perp_basis.shape == (2, 0)

    def test_martingale_binary_node_infeasible_system(self):
        st = ea.compute_node_structure(binary_martingale(), 0.5, N2)[0]
        assert not st.active
        assert not st.strict_arbitrage_here

    def test_below_threshold_flags_strict_arbitrage(self):
        st = ea.compute_node_structure(kbar_market(1.0), 0.5, N2)[0]
        assert st.strict_arbitrage_here
        assert not st.active

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError, match="eps > 0"):
            ea.compute_node_structure(binary_martingale(), 0.0, N2)

    def test_p1_coordinate_structure(self):
        # dS in {(1,1), (1,-1)}: min l1-norm solution of h.dS = 1 is e1
        m = two_state([0.0, 0.0], [1.0, 1.0], [1.0, -1.0], 2)
        st = ea.compute_node_structure(m, 1.0, N1)[0]
        assert st.hbar == pytest.approx([1.0, 0.0], abs=1e-9)
        assert st.hbar_dual == pytest.approx([1.0, 0.0])
        # support restriction: admissible g live on coordinate 1 only -> none
        assert st.perp_basis.shape[1] == 0

    def test_invariants_on_random_markets(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(15):
            m = random_market(rng)
            for norms in (N1, N2):
                eps = critical_value_oracle(m, norms)
                if eps < 1e-6:
                    continue
                # at the critical level, to within the band where m counts
                # as 1: 1e-7 at p = 1, the rounding floor at q = 2
                level = eps * 1.0000001 if norms.p == 1.0 else eps
                structures = ea.compute_node_structure(m, level, norms)
                for v, st in structures.items():
                    if st.strict_arbitrage_here or not st.active:
                        continue
                    kids = list(m.children[v])
                    resid = m.delta[kids] @ st.hbar - eps * norms.norm(st.hbar)
                    assert np.max(np.abs(resid)) < 1e-7 * (1 + eps)
                    B = st.perp_basis
                    if B.shape[1]:
                        assert np.max(np.abs(B.T @ st.hbar_dual)) < 1e-10
                    Bt = st.basis_g_tilde
                    if Bt.shape[1]:
                        assert np.max(np.abs(m.delta[kids] @ Bt)) < 1e-8
                    checked += 1
        assert checked > 10

    def test_extremal_cone_is_stable_under_addition(self):
        m = nostrictarb_market(1.0)
        st = ea.compute_node_structure(m, 1.0, N2)[0]
        rng = np.random.default_rng(4)
        kids = list(m.children[0])
        for _ in range(25):
            a, b = rng.uniform(0, 3, size=2)
            h = (a + b) * st.hbar
            resid = m.delta[kids] @ h - 1.0 * N2.norm(h)
            assert np.max(np.abs(resid)) < 1e-9


class TestNullSpace:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.booleans(),
           st.sampled_from([0.0, 1e-10]), st.integers(0, 2**32 - 1))
    def test_matches_scipy(self, m, d, rank, integral, noise, seed):
        # rank-deficient products, with small-integer factors for exact ties;
        # noise of 1e-10 leaves singular values that the rank rule must count
        rng = np.random.default_rng(seed)

        def draw(shape):
            return rng.integers(-2, 3, size=shape).astype(float) if integral else rng.normal(size=shape)

        r = min(rank, m, d)
        a = draw((m, r)) @ draw((r, d)) + noise * rng.normal(size=(m, d))
        got, want = ea.arbitrage._null_space(a), null_space(a)
        assert got.shape == want.shape
        assert got @ got.T == pytest.approx(want @ want.T, abs=1e-12)
        assert got.T @ got == pytest.approx(np.eye(got.shape[1]), abs=1e-12)


class TestCanonicalDecomposition:
    def test_hbar_itself(self):
        m = nostrictarb_market(1.0)
        st = ea.compute_node_structure(m, 1.0, N2)
        H = ea.Strategy.from_dict(m, {"r": st[0].hbar})
        dec = ea.canonical_decompose(m, 1.0, N2, H, st)
        assert dec.a[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(dec.g[0])) < 1e-10
        assert np.max(np.abs(dec.g_tilde[0])) < 1e-10

    def test_two_asset_example(self):
        m = nostrictarb_market(1.0)
        st = ea.compute_node_structure(m, 1.0, N2)
        H = ea.Strategy.from_dict(m, {"r": [2.0, 3.0]})
        dec = ea.canonical_decompose(m, 1.0, N2, H, st)
        assert dec.a[0] == pytest.approx(2.0, abs=1e-10)
        assert dec.g[0] == pytest.approx([0.0, 3.0], abs=1e-10)
        assert np.max(np.abs(dec.g_tilde[0])) < 1e-10  # gain-null space is trivial here

    def test_pure_null_component(self):
        # one child with increment (1, 0): E0 = span e2 inside the hyperplane
        m = drift_market(M=1.0)
        m2 = ea.MarketModel.from_nodes(1, 2, [
            {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0, 0.0]},
            {"id": "u", "time": 1, "parent": "r", "cond_prob": 1.0, "prices": [1.0, 0.0]},
        ])
        st = ea.compute_node_structure(m2, 1.0, N2)
        H = ea.Strategy.from_dict(m2, {"r": [0.0, 4.0]})
        dec = ea.canonical_decompose(m2, 1.0, N2, H, st)
        assert dec.a[0] == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(dec.g[0])) < 1e-10
        assert dec.g_tilde[0] == pytest.approx([0.0, 4.0], abs=1e-10)

    def test_outside_support_class_is_rejected(self):
        m = kbar_market(1.0)
        st = ea.compute_node_structure(m, 1.5, N2)  # hbar = 0 everywhere
        H = ea.Strategy.from_dict(m, {"r": [1.0, 0.0]})
        with pytest.raises(ValueError, match="support class"):
            ea.canonical_decompose(m, 1.5, N2, H, st)

    def test_reconstruction_fixed_point(self):
        rng = np.random.default_rng(29)
        done = 0
        for _ in range(20):
            m = random_market(rng, d=2)
            eps = critical_value_oracle(m, N2)
            if eps < 1e-6:
                continue
            st = ea.compute_node_structure(m, eps * 1.0000001, N2)
            if any(s.strict_arbitrage_here for s in st.values()):
                continue
            vals = np.zeros((m.n_nodes, m.d))
            for v in m.internal:
                s = st[v]
                if s.active:
                    coeffs = rng.normal(size=1 + s.perp_basis.shape[1])
                    vals[v] = coeffs[0] * s.hbar + s.perp_basis @ coeffs[1:]
            H = ea.Strategy(vals)
            dec = ea.canonical_decompose(m, eps * 1.0000001, N2, H, st)
            recon = dec.reconstruct(m, st)
            assert np.max(np.abs(recon.values - H.values)) < 1e-9
            dec2 = ea.canonical_decompose(m, eps * 1.0000001, N2, recon, st)
            for v in m.internal:
                assert dec2.a[v] == pytest.approx(dec.a[v], abs=1e-9)
                assert dec2.g[v] == pytest.approx(dec.g[v], abs=1e-9)
                assert dec2.g_tilde[v] == pytest.approx(dec.g_tilde[v], abs=1e-9)
            done += 1
        assert done >= 5

    def test_p2_orthogonality(self):
        m = nostrictarb_market(1.0)
        st = ea.compute_node_structure(m, 1.0, N2)
        H = ea.Strategy.from_dict(m, {"r": [1.5, -2.0]})
        dec = ea.canonical_decompose(m, 1.0, N2, H, st)
        assert abs(float((dec.a[0] * st[0].hbar) @ dec.g[0])) < 1e-9
        assert abs(float(dec.g[0] @ dec.g_tilde[0])) < 1e-9


class TestNaPrime:
    def test_two_asset_violation_with_witness(self):
        rep = ea.check_na_prime(nostrictarb_market(1.0), 1.0, N2)
        assert not rep.holds
        (g,) = rep.witnesses.values()
        g = g / np.linalg.norm(g)
        assert abs(g[0]) < 1e-8
        assert abs(abs(g[1]) - 1.0) < 1e-8

    def test_symmetric_second_asset_passes(self):
        rep = ea.check_na_prime(kbar_market(1.0), 1.0, N2)
        assert rep.holds

    def test_martingale_market_holds_at_any_level(self):
        for eps in (0.0, 0.3, 2.0):
            assert ea.check_na_prime(binary_martingale(), eps, N2).holds

    def test_price_range_market_holds(self):
        assert ea.check_na_prime(price_range_market(1.0), 1.0, N2).holds

    def test_p1_orthogonal_condition_never_fires_alone(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            m = random_market(rng)
            eps = critical_value_oracle(m, N1) * 1.1 + 0.05
            rep = ea.check_na_prime(m, eps, N1)
            if not rep.strict_arbitrage.found:
                assert not rep.witnesses

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_two_asset_violation_at_other_exponents(self, p):
        # the witness e2 survives the dual map |x|^(p-1) of the extremal
        # direction; p = 2 is the test above and criterion 02
        norms = ea.NormPair(p)
        m = nostrictarb_market(1.0)
        rep = ea.check_na_prime(m, 1.0, norms)
        assert rep.holds is False
        (g,) = rep.witnesses.values()
        g = g / np.linalg.norm(g)
        assert abs(g[0]) < 1e-8
        assert abs(abs(g[1]) - 1.0) < 1e-8
        assert not ea.find_eps_martingale_measure(m, 1.0, norms).feasible

    def test_p1_witness_program_on_a_one_dimensional_basis(self):
        m = _one_period([[3.0, -1.0], [1.0, 0.0], [-3.0, 2.0]])
        eps = 1.0 / 3.0
        assert ea.compute_node_structure(m, eps, N1)[0].perp_basis.shape == (2, 1)
        rep = ea.check_na_prime(m, eps, N1)
        assert rep.holds and not rep.witnesses
        assert ea.find_eps_martingale_measure(m, eps, N1).feasible

    @pytest.mark.parametrize("tol, found", [(0.09, True), (0.11, False)])
    def test_p2_witness_gain_is_per_unit_two_norm(self, tol, found):
        # dS(w) = ((1 + a_w), (1 - a_w)) / sqrt 2 with a = (0, 0.1, 0.2):
        # hbar = (1, 1) / sqrt 2, and along g = (1, -1) / sqrt 2 every child
        # gains a_w >= 0, a P-mean of 0.1 per unit 2-norm (0.1 / sqrt 2 per
        # unit l1-norm, below both tolerances).
        a = np.array([0.0, 0.1, 0.2])
        m = _one_period(np.column_stack([1.0 + a, 1.0 - a]) / np.sqrt(2.0))
        rep = ea.check_na_prime(m, 1.0, N2, tol=tol)
        assert not rep.strict_arbitrage.found
        assert rep.holds is not found
        if found:
            (g,) = rep.witnesses.values()
            assert abs(np.linalg.norm(g) - 1.0) < 1e-12
            assert np.allclose(np.abs(g), 1.0 / np.sqrt(2.0), atol=1e-9)
            gains = m.delta[list(m.children[0])] @ g
            assert np.all(gains >= -1e-12)
            assert abs(gains.mean() - 0.1) < 1e-9

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_agrees_with_measure_feasibility(self, p):
        norms = ea.NormPair(p)
        rng = np.random.default_rng(int(41 * p))
        hits = 0
        for _ in range(12):
            m = random_market(rng)
            crit = critical_value_oracle(m, norms)
            for e in (0.5 * crit, 0.9 * crit, 1.1 * crit + 1e-3, 2.0 * crit + 0.01):
                if abs(e - crit) < 1e-4 or e <= 0:
                    continue
                na = ea.check_na_prime(m, e, norms).holds
                emm = ea.find_eps_martingale_measure(m, e, norms).feasible
                assert na == emm
                hits += 1
        assert hits > 20


class TestKeptSumProgram:
    @pytest.mark.parametrize("f", [0.5, 1.5])
    def test_na_prime_reads_the_detectors_sum_program(self, f, monkeypatch):
        m = full_tree_law(np.random.default_rng(25), 2, 3, 2)
        eps = f * ea.critical_value(m, N1).epsilon
        solves = count_solves(monkeypatch)
        rep = ea.detect_strict_arbitrage(m, eps, N1)
        assert solves_in(solves, "strict_arbitrage_sum_program") == 1
        nap = ea.check_na_prime(m, eps, N1)
        assert solves_in(solves, "strict_arbitrage_sum_program") == 1
        assert result_bytes(nap.strict_arbitrage) == result_bytes(rep)
        assert result_bytes(nap) == result_bytes(ea.check_na_prime(fresh_copy(m), eps, N1))

    def test_signed_zero_and_other_ops_miss(self, monkeypatch):
        m = full_tree_law(np.random.default_rng(25), 2, 3, 2)
        ops = programs.tree_ops(m)
        solves = count_solves(monkeypatch)

        def solved(ops, eps):
            before = len(solves)
            out = programs.strict_arbitrage_sum_program(ops, eps)
            return len(solves) - before, result_bytes(out)

        assert solved(ops, 0.0)[0] == 1
        assert solved(ops, 0.0)[0] == 0
        n, at_minus_zero = solved(ops, -0.0)
        assert n == 1
        fresh = programs.tree_ops(fresh_copy(m))
        assert at_minus_zero == result_bytes(programs.strict_arbitrage_sum_program(fresh, -0.0))
        # a node's one-period market, and ops that are not the model's own
        v = m.internal[0]
        A = m.delta[list(m.children[v])]
        node = programs.TreeOps(None, (v,), A[:, None, :], np.ones((len(A), 1)))
        assert solved(node, 0.5)[0] == solved(node, 0.5)[0] == 1
        copy = programs.TreeOps(m, ops.internal, ops.coeff.copy(), ops.mask.copy())
        assert solved(copy, 0.0)[0] == solved(copy, 0.0)[0] == 1


with open(os.path.join(os.path.dirname(__file__), "data", "whole_tree_maximin.json")) as _fh:
    MAXIMIN = json.load(_fh)


def _maximin_market(name: str) -> ea.MarketModel:
    mk = MAXIMIN["markets"][name]
    return ea.MarketModel.from_nodes(mk["T"], mk["d"], mk["nodes"])


def _two_roots(kids0, kids1) -> ea.MarketModel:
    """Two time-0 nodes at the origin, each of probability 1/2 with two
    equally likely children at the given prices."""
    nodes = [{"id": f"r{i}", "time": 0, "parent": None, "cond_prob": 0.5, "prices": [0.0, 0.0]}
             for i in range(2)]
    for i, kids in enumerate((kids0, kids1)):
        nodes += [{"id": f"r{i}c{j}", "time": 1, "parent": f"r{i}", "cond_prob": 0.5,
                   "prices": price} for j, price in enumerate(kids)]
    return ea.MarketModel.from_nodes(1, 2, nodes)


class TestMaximinInduction:
    @pytest.mark.parametrize("case", MAXIMIN["cases"], ids=[c["name"] for c in MAXIMIN["cases"]])
    def test_brackets_overlap(self, case):
        m = _maximin_market(case["market"])
        value, h, slacks, gap = programs.strict_arbitrage_maximin_program(
            programs.tree_ops(m), case["eps"], ea.NormPair(case["p"]))
        assert h is not None and value >= 0.0 and gap >= 0.0
        old_lo, old_hi = case["maximin"]
        tol = 1e-9 * (1.0 + max(abs(old_lo), abs(old_hi)))
        assert value <= old_hi + tol and old_lo - tol <= value + gap
        if value > 0.0:
            assert float(np.min(slacks)) == value
            assert sum(ea.NormPair(case["p"]).norm(x)
                       for x in h.reshape(-1, m.d)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("panel", range(3))
    def test_binary_q2_detection_solves_no_cone_program(self, panel, monkeypatch):
        # the curved shape: T = 2 binary d = 2 trees at p = 2; at eps(P) / 2
        # every node of the maximin is a closed form, and its point is shipped
        (case,) = [c for c in MAXIMIN["cases"] if c["name"] == f"curved panel {panel}, f = 0.5"]
        m = _maximin_market(case["market"])
        solves = count_solves(monkeypatch)
        closed = programs.NODE_PROGRAMS["closed form"]
        rep = ea.detect_strict_arbitrage(m, case["eps"], N2)
        assert solves == []
        assert programs.NODE_PROGRAMS["closed form"] - closed == len(m.internal)
        assert rep.found and float(np.min(rep.slacks)) == rep.maximin_margin
        lo, hi = case["maximin"]
        assert lo - 1e-9 <= rep.maximin_margin <= hi + 1e-9

    def test_two_arbitrage_roots_share_the_budget(self):
        # gamma = 1 and 2 at the two time-0 nodes, so phi = 0.5 and 1.5 at
        # eps = 0.5, and each leaf's slack per unit norm is 1 / (1/0.5 + 1/1.5)
        m = _two_roots([[1.0, 0.0], [1.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]])
        rep = ea.detect_strict_arbitrage(m, 0.5, N2)
        assert rep.found
        assert rep.maximin_margin == pytest.approx(1.0 / (1.0 / 0.5 + 1.0 / 1.5), rel=1e-12)
        slacks = ea.gain(m, rep.certificate) - 0.5 * ea.strategy_cost(m, rep.certificate, N2)
        assert np.min(slacks) >= rep.maximin_margin - 1e-12
        assert np.min(rep.slacks) == rep.maximin_margin
        total = sum(N2.norm(rep.certificate.values[v]) for v in m.internal)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_a_root_without_arbitrage_leaves_the_node_certificate(self, caplog):
        # r1's children straddle the origin (gamma = 0): no strategy gains
        # on its leaves, so the maximin is 0 and r0's node strategy is shipped
        m = _two_roots([[1.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [-1.0, 0.0]])
        with caplog.at_level(logging.DEBUG, logger="epsarb"):
            rep = ea.detect_strict_arbitrage(m, 0.5, N2)
        assert rep.found and rep.maximin_margin == 0.0
        r0 = m.index["r0"]
        want = np.zeros((m.n_nodes, m.d))
        want[r0] = programs.node_geometry(m, 2.0)[r0].h
        assert rep.certificate.values == pytest.approx(want, abs=1e-15)
        assert "time-0 node r1 has no strict arbitrage" in caplog.text
