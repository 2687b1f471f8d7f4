"""Bicausal transport layer.

Core claims:
    - the backward-induction values reproduce the worked counterexamples
      (forced cross pair = 2, non-causal increments = 2 eps, sup-cost
      separation = M + delta, quantile-coupling suboptimality 5 > 4)
    - DP values match the global bicausal-polytope solvers on small pairs
    - exponential smoothing is monotone in lambda, below the sup-distance,
      and obeys the tilting identity and the finite-support sandwich
    - grid quantization and the empirical trend behave as stated
    - stability inequalities hold on perturbed pairs
"""

import math

import numpy as np
import pytest

import epsarb as ea
from epsarb import transport as tr
from epsarb.market import MarketModel
from epsarb.testing import (perturb_prices, random_market,
                            random_martingale_market, random_path_law)

from _helpers import (brute_force_bicausal_couplings, closing_pair,
                      counterexample_pair, kr_pair)

N1, N2 = ea.NormPair(1.0), ea.NormPair(2.0)


class TestAdaptedDistances:
    def test_identical_laws_are_at_zero(self):
        P, _ = kr_pair()
        assert tr.aw_inf_delta(P, P, 2.0).value == 0.0
        assert tr.aw_inf(P, P, 2.0).value == 0.0
        assert tr.w_inf(P, P, 2.0).value == 0.0
        assert tr.elog_divergence(P, P, 2.0, 5.0).value == pytest.approx(0.0, abs=1e-12)

    def test_initial_information_forces_the_cross_pair(self):
        P0, Pe = counterexample_pair(0.25)
        assert tr.aw_inf_delta(P0, Pe, 2.0).value == pytest.approx(2.0, abs=1e-10)

    def test_noncausal_increments_comparison(self):
        P0, Pe = counterexample_pair(0.25)
        res = tr.w_inf(P0, Pe, 2.0, increments=True)
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_sup_cost_separates_small_mean_perturbations(self):
        P, Pp = closing_pair(M=5.0, delta=0.25, p_small=0.1)
        assert tr.aw_inf_delta(P, Pp, 2.0).value == pytest.approx(5.25, abs=1e-9)

    def test_quantile_pair_level_distance(self):
        P, Pp = kr_pair()
        assert tr.aw_inf(P, Pp, 2.0).value == pytest.approx(4.0, abs=1e-12)

    def test_point_masses_sum_coordinate_distances(self):
        P = MarketModel.from_paths(np.array([[0.1, 0.4]]), np.array([1.0]))
        Q = MarketModel.from_paths(np.array([[0.3, 0.9]]), np.array([1.0]))
        assert tr.aw_inf(P, Q, 2.0).value == pytest.approx(0.2 + 0.5, abs=1e-12)

    def test_couplings_have_exact_marginals(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            P = random_path_law(rng, T=2)
            Q = random_path_law(rng, T=2)
            for res in (tr.aw_inf(P, Q, 2.0), tr.aw_inf_delta(P, Q, 2.0),
                        tr.elog_divergence(P, Q, 2.0, 3.0)):
                ex, ey = res.coupling.marginal_errors()
                assert max(ex, ey) < 1e-10

    def test_value_attained_by_the_returned_coupling(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            P = random_path_law(rng, T=1)
            Q = random_path_law(rng, T=1)
            res = tr.aw_inf(P, Q, 2.0)
            assert res.coupling.esssup_cost(2.0) == pytest.approx(res.value, abs=1e-10)

    def test_mismatched_shapes_rejected(self):
        P = MarketModel.from_paths(np.array([[0.0, 1.0]]), np.array([1.0]))
        Q = MarketModel.from_paths(np.array([[0.0, 1.0, 2.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="mismatch"):
            tr.aw_inf(P, Q, 2.0)


class TestGlobalOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_dp_matches_polytope_solvers(self, seed):
        rng = np.random.default_rng(100 + seed)
        P = random_path_law(rng, T=1 + seed % 2)
        Q = random_path_law(rng, T=1 + seed % 2)
        for increments in (False, True):
            dp = tr.aw_inf_delta(P, Q, 2.0) if increments else tr.aw_inf(P, Q, 2.0)
            ref = tr.global_bicausal_bottleneck(P, Q, 2.0, increments=increments)
            assert dp.value == pytest.approx(ref, abs=1e-8)
        lam = 3.0
        dp_log = tr.elog_divergence(P, Q, 2.0, lam)
        ref_log = tr.global_bicausal_logexp(P, Q, 2.0, lam)
        assert dp_log.value == pytest.approx(ref_log, abs=1e-8)

    def test_dp_never_beats_sampled_bicausal_couplings(self):
        rng = np.random.default_rng(200)
        for _ in range(5):
            P = random_path_law(rng, T=1)
            Q = random_path_law(rng, T=1)
            val = tr.aw_inf(P, Q, 2.0).value
            for pi in brute_force_bicausal_couplings(P, Q, 40, rng):
                assert val <= pi.esssup_cost(2.0) + 1e-10

    def test_sandwich_between_levels_and_increments(self):
        # levels telescope from at most T+1 increment terms (the time-0
        # increment is a level), so the valid lower constant is 1/(T+1):
        # point masses (0,0) vs (1,1) at T = 1 have level distance 2 and
        # increment distance 1, refuting a 1/T constant.
        rng = np.random.default_rng(201)
        for _ in range(12):
            T = int(rng.integers(1, 3))
            P = random_path_law(rng, T=T)
            Q = random_path_law(rng, T=T)
            aw = tr.aw_inf(P, Q, 2.0).value
            awd = tr.aw_inf_delta(P, Q, 2.0).value
            w = tr.w_inf(P, Q, 2.0).value
            assert w <= aw + 1e-10
            assert aw / (T + 1) - 1e-10 <= awd <= 2.0 * aw + 1e-10

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(202)
        for _ in range(8):
            laws = [random_path_law(rng, T=1) for _ in range(3)]
            d01 = tr.aw_inf(laws[0], laws[1], 2.0).value
            d10 = tr.aw_inf(laws[1], laws[0], 2.0).value
            d02 = tr.aw_inf(laws[0], laws[2], 2.0).value
            d12 = tr.aw_inf(laws[1], laws[2], 2.0).value
            assert d01 == pytest.approx(d10, abs=1e-10)
            assert d02 <= d01 + d12 + 1e-8
            assert tr.aw_inf(laws[0], laws[0], 2.0).value == 0.0


class TestLogExponential:
    def test_monotone_in_lambda(self):
        P, Pp = kr_pair()
        vals = [tr.elog_divergence(P, Pp, 2.0, lam).value for lam in (1, 5, 25, 125)]
        assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(3))

    def test_monotone_on_random_pairs(self):
        rng = np.random.default_rng(301)
        for _ in range(10):
            P = random_path_law(rng, T=1)
            Q = random_path_law(rng, T=1)
            vals = [tr.elog_divergence(P, Q, 2.0, lam).value for lam in (0.5, 2, 8, 32)]
            assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(3))

    def test_increases_to_the_sup_distance(self):
        rng = np.random.default_rng(302)
        for _ in range(8):
            P = random_path_law(rng, T=1, max_atoms=3)
            Q = random_path_law(rng, T=1, max_atoms=3)
            aw = tr.aw_inf(P, Q, 2.0).value
            e500 = tr.elog_divergence(P, Q, 2.0, 500.0).value
            assert e500 <= aw + 1e-9
            assert aw - e500 < 0.02

    def test_survives_huge_lambda_in_log_domain(self):
        P, Pp = kr_pair()
        val = tr.elog_divergence(P, Pp, 2.0, 1e4).value
        assert val == pytest.approx(4.0, abs=1e-6)

    def test_quantile_example_smoothed_value(self):
        P, Pp = kr_pair()
        val = tr.elog_divergence(P, Pp, 2.0, 200.0).value
        assert 3.95 <= val <= 4.0 + 1e-12


class TestLaplaceSmoothing:
    def test_constant_values(self):
        for lam in (0.1, 1.0, 50.0):
            assert tr.laplace_smoothed_esssup([2.5, 2.5], [0.4, 0.6], lam) == pytest.approx(2.5)

    def test_two_point_example(self):
        val = tr.laplace_smoothed_esssup([0.0, 1.0], [0.5, 0.5], 10.0)
        want = math.log((1 + math.exp(10.0)) / 2.0) / 10.0
        assert val == pytest.approx(want, rel=1e-12)
        assert val == pytest.approx(0.93069, abs=1e-5)

    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            v = rng.normal(size=n)
            p = rng.uniform(0.1, 1.0, size=n)
            p /= p.sum()
            assert tr.laplace_smoothed_esssup(v, p, 2.0) >= float(p @ v) - 1e-12

    def test_gibbs_tilting_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            v = rng.normal(size=n)
            p = rng.uniform(0.1, 1.0, size=n)
            p /= p.sum()
            lam = float(rng.uniform(0.5, 8.0))
            val = tr.laplace_smoothed_esssup(v, p, lam)
            tilt = p * np.exp(lam * (v - v.max()))
            tilt /= tilt.sum()
            kl = float(np.sum(tilt * np.log(tilt / p)))
            assert val == pytest.approx(float(tilt @ v) - kl / lam, abs=1e-10)

    def test_finite_support_sandwich(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            v = rng.normal(size=n)
            p = rng.uniform(0.05, 1.0, size=n)
            p /= p.sum()
            lam = float(rng.uniform(1.0, 30.0))
            val = tr.laplace_smoothed_esssup(v, p, lam)
            assert val <= v.max() + 1e-12
            assert val >= v.max() + math.log(p.min()) / lam - 1e-12

    def test_approaches_the_maximum(self):
        v = [0.3, 1.7, -0.4]
        p = [0.2, 0.3, 0.5]
        assert tr.laplace_smoothed_esssup(v, p, 2000.0) == pytest.approx(1.7, abs=1e-3)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="sum"):
            tr.laplace_smoothed_esssup([1.0], [0.5], 1.0)
        with pytest.raises(ValueError, match="positive"):
            tr.laplace_smoothed_esssup([1.0], [1.0], 0.0)


class TestKnotheRosenblatt:
    def test_identity_on_equal_laws(self):
        P, _ = kr_pair()
        pi = tr.knothe_rosenblatt(P, P)
        joint = pi.joint_leaf_matrix()
        assert joint == pytest.approx(np.diag(P.leaf_prob), abs=1e-12)

    def test_worked_example_pairs_and_cost(self):
        P, Pp = kr_pair()
        pi = tr.knothe_rosenblatt(P, Pp)
        joint = pi.joint_leaf_matrix()
        assert joint == pytest.approx(np.diag([0.5, 0.5]), abs=1e-12)  # (0,3)->(1,1)
        assert pi.esssup_cost(2.0) == pytest.approx(5.0, abs=1e-12)
        assert tr.aw_inf(P, Pp, 2.0).value == pytest.approx(4.0, abs=1e-12)

    def test_reversed_order_pairs_antitone(self):
        P = MarketModel.from_paths(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        Q = MarketModel.from_paths(np.array([[2.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
        pi = tr.knothe_rosenblatt(P, Q)
        # quantiles pair the low x-root (0) with the low y-root (1)
        i0 = list(P.roots)[0]
        lo_y = min(Q.roots, key=lambda v: Q.prices[v, 0])
        rp = pi.root_plan
        assert rp[0, list(Q.roots).index(lo_y)] > 0.4

    def test_never_better_than_the_adapted_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            P = random_path_law(rng, T=1)
            Q = random_path_law(rng, T=1)
            pi = tr.knothe_rosenblatt(P, Q)
            assert pi.esssup_cost(2.0) >= tr.aw_inf(P, Q, 2.0).value - 1e-10

    def test_requires_scalar_paths(self):
        m = random_market(np.random.default_rng(1), d=2)
        with pytest.raises(ValueError, match="d = 1"):
            tr.knothe_rosenblatt(m, m)


class TestAdaptedEmpirical:
    def test_eight_sample_quantizer_shape(self):
        cfg = tr.QuantizerConfig.for_samples(8, T=1, d=1)
        assert cfg.r == pytest.approx(1.0 / 3.0)
        assert cfg.cells_per_axis == 2
        assert cfg.centers() == pytest.approx([0.25, 0.75])

    def test_single_sample_maps_to_its_cell_center(self):
        samples = np.array([[[0.6], [0.1]]] * 8)
        samples[0] = [[0.6], [0.1]]
        law = tr.adapted_empirical(np.repeat(np.array([[[0.6], [0.1]]]), 8, axis=0))
        paths = law.leaf_paths()
        assert paths[0, 0, 0] == pytest.approx(0.75)
        assert paths[0, 1, 0] == pytest.approx(0.25)
        assert law.leaf_prob == pytest.approx([1.0])

    def test_mixed_samples_weighting(self):
        samples = np.concatenate([np.tile([[0.6], [0.1]], (1, 1, 1)),
                                  np.tile([[0.1], [0.1]], (7, 1, 1))]).reshape(8, 2, 1)
        law = tr.adapted_empirical(samples)
        assert law.n_leaves == 2
        assert sorted(law.leaf_prob) == pytest.approx([0.125, 0.875])

    def test_single_sample_single_cell(self):
        law = tr.adapted_empirical(np.array([[[0.9], [0.2]]]))
        assert law.leaf_paths()[0, :, 0] == pytest.approx([0.5, 0.5])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            tr.adapted_empirical(np.array([[[1.5], [0.0]]]))

    def test_empirical_trend_smoke(self):
        base = MarketModel.from_paths(
            np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]),
            np.array([0.3, 0.2, 0.3, 0.2]))
        rng = np.random.default_rng(77)
        vals = []
        for N in (64, 256):
            samples = tr.sample_paths(base, N, rng)
            law = tr.adapted_empirical(samples)
            vals.append(tr.elog_divergence(law, base, 2.0, 5.0).value)
        assert all(v >= 0 for v in vals)
        assert vals[1] < vals[0] + 0.3


class TestStability:
    def test_distances_match_separate_dps(self):
        # One DP with two root solves gives both include_t0 variants.
        rng = np.random.default_rng(17)
        for k in range(6):
            x = random_market(rng, T=2, d=1 + k % 2)
            y = perturb_prices(rng, x, 0.2)
            rep = tr.stability_report(x, y, 0.5, N2)
            assert rep.distance == tr.aw_inf_delta(x, y, 2.0, include_t0=True).value
            assert rep.distance_no_t0 == tr.aw_inf_delta(x, y, 2.0, include_t0=False).value

    def test_identical_markets_have_zero_distance(self):
        m = random_martingale_market(np.random.default_rng(3), T=2)
        rep = tr.stability_report(m, m, 0.5, N1)
        assert rep.distance == 0.0
        assert rep.critical_slack >= -1e-8
        assert rep.emm_x_feasible and rep.emm_y_shifted_feasible
        assert rep.pushforward_slack >= -1e-9

    def test_counterexample_pair_critical_gap(self):
        P0, Pe = counterexample_pair(0.25)
        rep = tr.stability_report(P0, Pe, 0.1, N2)
        assert rep.distance == pytest.approx(2.0, abs=1e-9)
        assert rep.eps_x == pytest.approx(0.0, abs=1e-6)
        assert rep.eps_y == pytest.approx(0.75, abs=1e-4)  # 1 - eps
        assert rep.critical_slack >= 1.0

    def test_perturbed_pairs_battery(self):
        rng = np.random.default_rng(15)
        for k in range(12):
            base = random_martingale_market(rng, T=2) if k % 2 else random_market(rng, T=2, d=1)
            pert = perturb_prices(rng, base, 0.1)
            rep = tr.stability_report(base, pert, 0.4, N1)
            assert rep.critical_slack >= -1e-8
            if rep.emm_x_feasible:
                assert rep.emm_y_shifted_feasible
                assert rep.pushforward_slack >= -1e-8

    def test_fair_range_transfer(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            base = random_martingale_market(rng, T=2)
            pert = perturb_prices(rng, base, 0.05)
            rep = tr.stability_report(base, pert, 0.3, N2,
                                      payoff_fn=lambda p: 2.0 * float(p[-1, 0]),
                                      lipschitz=2.0)
            assert rep.critical_slack >= -1e-8
            if rep.fair_lower_slack is not None:
                assert rep.fair_lower_slack >= -1e-8
                assert rep.fair_upper_slack >= -1e-8
