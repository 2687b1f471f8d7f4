"""Arbitrage quantification.

Core claims:
    - the detector separates strict arbitrage from its sequential closure
      (no false positives at the boundary level)
    - maximin certificates carry uniform slack per unit norm, confirmed by a
      grid-search oracle
    - the critical level matches an independent simplex-deviation oracle and
      the two bisections agree, also at p = 1.5 and p = 3, where measures
      exist above it and not below
    - node geometry: extremal direction, orthogonal bases, decomposition
      identities, and the non-asymptotic no-arbitrage check
    - strictly-above-the-threshold levels kill the extremal direction
"""

import numpy as np
import pytest

import epsarb as ea
from epsarb.testing import random_market

from _helpers import (binary_martingale, critical_value_oracle, drift_market,
                      grid_search_maximin, kbar_market, nostrictarb_market,
                      price_range_market, two_state)

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
        # [0, hi]) must neither enter eps(P) nor pass the cross-check.
        real = ea.arbitrage.interior_feasibility

        def undecided(model, eps, *args, **kwargs):
            if eps > 0.0:
                return "indeterminate", None, None, None, None
            return real(model, eps, *args, **kwargs)

        monkeypatch.setattr(ea.arbitrage, "interior_feasibility", undecided)
        m = kbar_market(1.0)
        res = ea.critical_value(m, N2, eta_sweep=True)
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

    def test_eta_sweep_is_reported(self):
        res = ea.critical_value(kbar_market(1.0), N2, eta_sweep=True)
        assert res.eta_sweep is not None
        vals = np.array(list(res.eta_sweep.values()))
        assert np.max(np.abs(vals - 1.0)) < 1e-4


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
                structures = ea.compute_node_structure(m, eps * 1.0000001, norms)
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
