"""Bicausal transport layer.

Core claims:
    - the backward-induction values reproduce the worked counterexamples
      (forced cross pair = 2, non-causal increments = 2 eps, sup-cost
      separation = M + delta, quantile-coupling suboptimality 5 > 4)
    - DP values match the global bicausal-polytope solvers on small pairs
    - exponential smoothing is monotone in lambda, below the sup-distance
      and the sup-optimal coupling's own cost (also at lambda up to 1e4 on
      full trees of up to 64 leaves), and obeys the tilting identity and the
      finite-support sandwich; lambda must be finite and positive
    - grid quantization and the empirical trend behave as stated
    - stability inequalities hold on perturbed pairs, and each market's
      interior program runs once per level; the critical levels are the
      measure-side bisection's, bit for bit, with at most 3 eta-interior
      solves for the demo pair
    - the stage-array DP equals, byte for byte, the per-pair loop of public
      kernel calls it replaced (values, root plans, every stage plan), and
      raises the same errors on faulty laws; elog's bytes at lambda from
      0.01 to 1e4 are those of pricing every cycle in the log domain
"""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import epsarb as ea
from epsarb import arbitrage, pricing, solvers
from epsarb import io as eio
from epsarb import transport as tr
from epsarb.market import MarketModel
from epsarb.testing import (perturb_prices, random_market,
                            random_martingale_market, random_path_law)

from _helpers import (backward_oracle, brute_force_bicausal_couplings, closing_pair,
                      counterexample_pair, full_tree_law, kr_pair, log_simplex_reference)

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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_lambda_must_be_finite_and_positive(self, lam):
        # nan and inf used to reach the log-domain kernel and raise its
        # "log-weights must be below +inf"
        P, Pp = kr_pair()
        with pytest.raises(ValueError, match="^lam must be finite and lam > 0$"):
            tr.elog_divergence(P, Pp, 2.0, lam)

    @pytest.mark.parametrize("q", [math.nan, 0.0, -1.0, 0.5])
    @pytest.mark.parametrize("form", [
        lambda P, Q, q: tr.aw_inf(P, Q, q),
        lambda P, Q, q: tr.aw_inf_delta(P, Q, q),
        lambda P, Q, q: tr.w_inf(P, Q, q),
        lambda P, Q, q: tr.elog_divergence(P, Q, q, 3.0),
        lambda P, Q, q: tr.path_cost_matrix(P, Q, q),
        lambda P, Q, q: tr.global_bicausal_bottleneck(P, Q, q),
        lambda P, Q, q: tr.global_bicausal_logexp(P, Q, q, 3.0),
    ], ids=["aw_inf", "aw_inf_delta", "w_inf", "elog_divergence", "path_cost_matrix",
            "global_bicausal_bottleneck", "global_bicausal_logexp"])
    def test_q_must_lie_in_one_to_infinity(self, form, q):
        # q = 0 raised ZeroDivisionError, q = -1 returned 4.0 with a
        # divide-by-zero warning, q = nan raised "costs must be finite"
        P, Pp = kr_pair()
        with pytest.raises(ValueError, match=r"^q must lie in \[1, inf\], got "):
            form(P, Pp, q)

    def test_survives_huge_lambda_in_log_domain(self):
        P, Pp = kr_pair()
        val = tr.elog_divergence(P, Pp, 2.0, 1e4).value
        assert val == pytest.approx(4.0, abs=1e-6)

    def test_quantile_example_smoothed_value(self):
        P, Pp = kr_pair()
        val = tr.elog_divergence(P, Pp, 2.0, 200.0).value
        assert 3.95 <= val <= 4.0 + 1e-12

    @pytest.mark.parametrize("T, branching, d", [(2, 3, 1), (2, 3, 2), (2, 4, 1),
                                                 (3, 3, 1), (3, 4, 2)])
    def test_large_lambda_on_full_trees(self, T, branching, d):
        # Stage weights exp(lam * cost) span hundreds of orders of magnitude
        # here; elog is a minimum over bicausal couplings, so it stays below
        # the aw-optimal coupling's own log-exp cost and below aw_inf.
        rng = np.random.default_rng(400 + 10 * T + branching + d)
        P, Q = (full_tree_law(rng, T, branching, d) for _ in range(2))
        aw = tr.aw_inf(P, Q, 2.0)
        vals = []
        for lam in (20.0, 200.0, 1e4):
            val = tr.elog_divergence(P, Q, 2.0, lam).value
            assert val <= min(aw.value, aw.coupling.log_exp_cost(2.0, lam)) + 1e-9
            vals.append(val)
        assert vals[0] <= vals[1] <= vals[2]


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
        # a negative weight was dropped (log 1.5), a NaN value gave nan, and
        # a length mismatch raised numpy's IndexError
        with pytest.raises(ValueError, match="^probabilities must be finite and non-negative$"):
            tr.laplace_smoothed_esssup([0.0, 1.0], [1.5, -0.5], 1.0)
        with pytest.raises(ValueError, match="^probabilities must be finite and non-negative$"):
            tr.laplace_smoothed_esssup([0.0, 1.0], [math.nan, 1.0], 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^values must be finite$"):
                tr.laplace_smoothed_esssup([0.0, bad], [0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="differ in shape"):
            tr.laplace_smoothed_esssup([0.0, 1.0, 2.0], [0.5, 0.5], 1.0)
        for lam in (0.0, math.nan, math.inf):  # nan and inf used to return nan
            with pytest.raises(ValueError, match="^lam must be finite and lam > 0$"):
                tr.laplace_smoothed_esssup([1.0], [1.0], lam)


@st.composite
def _weighted_exponents(draw):
    """Exponents of spread 1 to 1e5 with ties at the max, and weights with zeros."""
    n = draw(st.integers(1, 8))
    spread = draw(st.sampled_from([1.0, 1e3, 1e5]))
    a = spread * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    tied = draw(st.lists(st.integers(0, n - 1), max_size=n))
    a[tied] = a.max()
    b = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=n, max_size=n))
    return a, np.array(b)


def _same_double(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(_weighted_exponents())
    @example((np.array([3.0]), np.array([0.5])))
    @example((np.array([1.0, 1.0, 1.0]), np.array([0.2, 0.3, 0.5])))
    @example((np.array([2.0, -2e3, 5.0]), np.array([0.5, 0.5, 0.0])))
    @example((np.array([0.0, 0.0]), np.array([0.0, 0.0])))
    def test_bitwise_equal_to_scipy(self, ab):
        a, b = ab
        assert _same_double(tr._logsumexp(a, b), float(logsumexp(a, b=b)))


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

    def test_critical_levels_skip_the_certified_steps(self, monkeypatch):
        # The dual bisection solves 20 eta-interior programs for the demo
        # pair's two levels; the exact route's checks settle all but a few.
        data = os.path.join(os.path.dirname(__file__), "..", "demos", "data")
        p0, _ = eio.load_market(os.path.join(data, "p0.json"))
        peps, _ = eio.load_market(os.path.join(data, "peps.json"))
        calls = []
        real = arbitrage.interior_feasibility

        def counted(model, eps, *args, **kwargs):
            calls.append(eps)
            return real(model, eps, *args, **kwargs)

        monkeypatch.setattr(arbitrage, "interior_feasibility", counted)
        rep = tr.stability_report(p0, peps, 0.1, N2)
        assert len(calls) <= 3
        monkeypatch.undo()
        for got, law in ((rep.eps_x, p0), (rep.eps_y, peps)):
            want = ea.critical_value(law, N2, method="dual").epsilon
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("lipschitz", [1.0, 2.0])
    def test_each_interior_program_runs_once(self, monkeypatch, lipschitz):
        # At L = 1 the perturbed market's two levels, eps + D and eps + L D,
        # are the same number and its measure is found once; the fair
        # ranges start from the measures already found.
        rng = np.random.default_rng(16)
        base = random_martingale_market(rng, T=2)
        pert = perturb_prices(rng, base, 0.05)
        eps = 0.3

        def payoff(path):
            return float(path[-1, 0])

        D = tr.aw_inf_delta(base, pert, 2.0).value
        shifted = eps + lipschitz * D
        want_x = ea.fair_price_range(base, eps, N2, ea.Payoff.from_function(base, payoff))
        want_y = ea.fair_price_range(pert, shifted, N2, ea.Payoff.from_function(pert, payoff))
        calls = []
        real = pricing.find_eps_martingale_measure

        def counted(model, level, norms, eta=None):
            calls.append((model, level))
            return real(model, level, norms, eta)

        # stability_report imports the function from pricing when it is
        # called, so the call resolves through this one binding
        monkeypatch.setattr(pricing, "find_eps_martingale_measure", counted)
        rep = tr.stability_report(base, pert, eps, N2, payoff_fn=payoff, lipschitz=lipschitz)
        want_calls = [(base, eps), (pert, eps + D)]
        assert calls == want_calls + ([(pert, shifted)] if shifted != eps + D else [])
        for got, want in ((rep.fair_x, want_x), (rep.fair_y, want_y)):
            assert got.to_dict() == want.to_dict()
            assert got.lower_witness.weights.tobytes() == want.lower_witness.weights.tobytes()
            assert got.upper_witness.weights.tobytes() == want.upper_witness.weights.tobytes()
        assert rep.emm_y_shifted_feasible
        assert rep.fair_lower_slack == want_x.lower - want_y.lower
        assert rep.fair_upper_slack == want_y.upper - want_x.upper


def _outcome(call) -> tuple:
    """A call's exception (type and message) or its result's bytes: value,
    root plan, and every stage plan in order."""
    try:
        value, root, plans = call()
    except Exception as exc:  # the exception itself is the outcome compared
        return ("raised", type(exc), str(exc))
    return (np.float64(value).tobytes(), root.shape, root.tobytes(),
            tuple((key, plan.shape, plan.tobytes()) for key, plan in plans.items()))


def _parts(res) -> tuple:
    return res.value, res.coupling.root_plan, res.coupling.stage_plans


def _forms(P, Q, q: float, lam: float) -> list:
    """(library call, per-pair oracle call) for each public DP form."""
    return [
        (lambda: _parts(tr.aw_inf(P, Q, q)),
         lambda: backward_oracle(P, Q, q, False, None, (True,))[0]),
        (lambda: _parts(tr.aw_inf_delta(P, Q, q)),
         lambda: backward_oracle(P, Q, q, True, None, (True,))[0]),
        (lambda: _parts(tr.aw_inf_delta(P, Q, q, include_t0=False)),
         lambda: backward_oracle(P, Q, q, True, None, (False,))[0]),
        (lambda: _parts(tr.elog_divergence(P, Q, q, lam)),
         lambda: backward_oracle(P, Q, q, False, lam, (True,))[0]),
        (lambda: _parts(tr.elog_divergence(P, Q, q, lam, increments=True, include_t0=False)),
         lambda: backward_oracle(P, Q, q, True, lam, (False,))[0]),
    ] + [  # the two distances of stability_report, from one DP
        (lambda k=k: _parts(tr._backward(P, Q, q, True, None, (True, False))[k]),
         lambda k=k: backward_oracle(P, Q, q, True, None, (True, False))[k]) for k in (0, 1)]


def _with_zero_mass(law, rng):
    """The law with one child of a random internal node at probability 0,
    its siblings rescaled to sum to one (row and column cuts in the kernels)."""
    v = law.internal[int(rng.integers(len(law.internal)))]
    kids = list(law.children[v])
    prob = np.array(law.cond_prob)
    prob[kids[int(rng.integers(len(kids)))]] = 0.0
    if prob[kids].sum() > 0.0:
        prob[kids] /= prob[kids].sum()
    return MarketModel(T=law.T, d=law.d, ids=law.ids, times=law.times, parent=law.parent,
                       cond_prob=prob, prices=law.prices)


@st.composite
def _law_pairs(draw):
    """Full trees, ragged path laws (forests among them, and nodes with up
    to ten children) and, sometimes, a child of zero mass."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    if draw(st.booleans()):
        laws = [full_tree_law(rng, T, draw(st.integers(1, 3)), d) for _ in range(2)]
    else:
        laws = [random_path_law(rng, draw(st.integers(2, 12)), T, d, draw(st.integers(1, 10)))
                for _ in range(2)]
    laws = [_with_zero_mass(law, rng) if law.internal and draw(st.booleans()) else law
            for law in laws]
    return laws[0], laws[1], draw(st.sampled_from([1.0, 2.0, math.inf]))


class TestStageArrays:
    @settings(max_examples=100, deadline=None)
    @given(_law_pairs(), st.sampled_from([3.0, 200.0]))
    def test_bit_identical_to_the_per_pair_loop(self, pair, lam):
        P, Q, q = pair
        for mine, oracle in _forms(P, Q, q, lam):
            assert _outcome(mine) == _outcome(oracle)

    def test_large_forest_pair(self):
        rng = np.random.default_rng(21)
        P = MarketModel.from_paths(rng.integers(0, 3, size=(30, 4, 2)) / 2.0, np.full(30, 1 / 30))
        Q = MarketModel.from_paths(rng.integers(0, 3, size=(30, 4, 2)) / 2.0, np.full(30, 1 / 30))
        assert len(P.roots) > 1 and len(Q.roots) > 1
        for mine, oracle in _forms(P, Q, 2.0, 3.0):
            assert _outcome(mine) == _outcome(oracle)

    def test_child_masses_are_summed_as_np_sum(self):
        # Twelve children whose np.sum (eight partial sums) and in-order sum
        # differ by one ulp: the stage kernel's total is the np.sum, as
        # TransportInstance's source.sum() is.
        prob = [0.10596888682633286, 0.09047030251349969, 0.06010849863167086,
                0.10126233156898781, 0.07689776279984635, 0.13081272213344083,
                0.1074172454547013, 0.11313340333757717, 0.05334566413371871,
                0.04211704060645114, 0.04703849844525226, 0.07142764354952111]
        in_order = 0.0
        for x in prob:
            in_order += x
        assert in_order != float(np.sum(prob))

        def law(shift, order):
            return MarketModel(T=2, d=1, ids=tuple(range(14)), times=[0, 1] + [2] * 12,
                               parent=[-1, 0] + [1] * 12,
                               cond_prob=[1.0, 1.0] + [prob[k] for k in order],
                               prices=np.concatenate([[0.0, 0.5], np.arange(12.0) + shift]))

        P, Q = law(0.0, range(12)), law(0.3, range(11, -1, -1))
        for mine, oracle in _forms(P, Q, 2.0, 3.0):
            assert _outcome(mine) == _outcome(oracle)

    @pytest.mark.parametrize("lam", [0.01, 3.0, 200.0, 1e4])
    def test_elog_bytes_equal_the_log_domain_kernel(self, lam, monkeypatch):
        # every stage and root transport priced by dual potentials gives the
        # bytes of pricing every cycle in the log domain: values, root plans
        # and stage plans, on full trees of 9 to 64 leaves
        rng = np.random.default_rng(2024)
        pairs = [[full_tree_law(rng, T, b, d) for _ in range(2)]
                 for T, b, d in ((2, 3, 1), (2, 3, 2), (2, 4, 1), (3, 3, 1), (3, 4, 2))]
        forms = [lambda P=P, Q=Q: _parts(tr.elog_divergence(P, Q, 2.0, lam)) for P, Q in pairs]
        mine = [_outcome(call) for call in forms]
        monkeypatch.setattr(solvers, "_log_simplex", log_simplex_reference)
        assert mine == [_outcome(call) for call in forms]

    def test_stability_distances(self):
        rng = np.random.default_rng(17)
        x = random_market(rng, T=2, d=2)
        y = perturb_prices(rng, x, 0.2)
        rep = tr.stability_report(x, y, 0.5, N2)
        want = backward_oracle(x, y, 2.0, True, None, (True, False))
        assert np.float64(rep.distance).tobytes() == np.float64(want[0][0]).tobytes()
        assert np.float64(rep.distance_no_t0).tobytes() == np.float64(want[1][0]).tobytes()


def _faulty_pair(fault: str):
    """Two T = 2 binary trees with one fault: a negative child probability,
    child sums 1e-11 apart, a node with children matched against a leaf, or
    an infinite price; or two, an infinite price met before a negative
    probability."""
    def tree(name, prob_a=(0.5, 0.5), price_a1=1.0, b_has_children=True, prob_b=(0.25, 0.75)):
        nodes = [{"id": "r", "time": 0, "parent": None, "prices": [0.0]},
                 {"id": "a", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [1.0]},
                 {"id": "b", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [-1.0]},
                 {"id": "a1", "time": 2, "parent": "a", "cond_prob": prob_a[0],
                  "prices": [price_a1]},
                 {"id": "a2", "time": 2, "parent": "a", "cond_prob": prob_a[1], "prices": [0.5]}]
        if b_has_children:
            nodes += [{"id": "b1", "time": 2, "parent": "b", "cond_prob": prob_b[0],
                       "prices": [-2.0]},
                      {"id": "b2", "time": 2, "parent": "b", "cond_prob": prob_b[1],
                       "prices": [0.0]}]
        return MarketModel.from_nodes(2, 1, nodes)

    x = {"negative": tree("x", prob_a=(-0.25, 1.25)),
         "sums": tree("x", prob_a=(0.5 + 1e-11, 0.5)),
         "leaf": tree("x"),
         "infinite": tree("x", price_a1=math.inf),
         "both": tree("x", price_a1=math.inf, prob_b=(-0.25, 1.25))}[fault]
    y = tree("y", b_has_children=fault != "leaf")
    return x, y


def _massless_law(first: float):
    """T = 1, two children of the root at probabilities (first, 0)."""
    return MarketModel(T=1, d=1, ids=("r", "u", "d"), times=[0, 1, 1], parent=[-1, 0, 0],
                       cond_prob=[1.0, first, 0.0], prices=[0.0, 1.0, -1.0])


class TestValidationParity:
    WANT = {"negative": "marginals must be non-negative",
            "sums": "marginal sums differ: np.float64(1.00000000001) vs np.float64(1.0)",
            "leaf": "marginal sums differ: np.float64(1.0) vs np.float64(0.0)",
            "infinite": "costs must be finite",
            "both": "costs must be finite"}
    # log_transport rejects the infinite stage costs before the marginals
    LOG_WANT = dict(WANT, infinite="log-weights must be below +inf",
                    both="log-weights must be below +inf")
    LOG_FORMS = (3, 4)  # positions of the elog forms in _forms

    def _assert_all_raise(self, x, y, want, log_want):
        for k, (mine, oracle) in enumerate(_forms(x, y, 2.0, 3.0)):
            assert _outcome(mine) == _outcome(oracle)
            assert _outcome(mine) == ("raised", ValueError,
                                      log_want if k in self.LOG_FORMS else want)
        with pytest.raises(ValueError) as err:
            tr.stability_report(x, y, 0.5, N2)
        assert str(err.value) == want

    @pytest.mark.parametrize("fault", ["negative", "sums", "leaf", "infinite", "both"])
    def test_errors_match_the_per_pair_loop(self, fault):
        # every form raises its public kernel's error, the log domain's
        # included: log_transport checks the marginals as TransportInstance
        x, y = _faulty_pair(fault)
        self._assert_all_raise(x, y, self.WANT[fault], self.LOG_WANT[fault])

    def test_a_leaf_before_T_fails_in_both_orders(self):
        # an x leaf against a y node with children is a transport with no
        # rows: the mirrored pair's error, with the sums swapped
        x, y = _faulty_pair("leaf")
        mirrored = "marginal sums differ: np.float64(0.0) vs np.float64(1.0)"
        self._assert_all_raise(y, x, mirrored, mirrored)

    def test_children_without_mass_fail_in_both_orders(self):
        # child sums 1e-13 and 0 pass the sum test, but one side carries no mass
        x, y = _massless_law(1e-13), _massless_law(0.0)
        for P, Q in ((x, y), (y, x)):
            self._assert_all_raise(P, Q, "marginals carry no mass", "marginals carry no mass")

    def test_log_domain_rejects_an_infinite_price(self):
        x, y = _faulty_pair("infinite")
        with pytest.raises(ValueError, match="log-weights must be below"):
            tr.elog_divergence(x, y, 2.0, 3.0)

    def test_times_must_step_by_one(self):
        x, y = _faulty_pair("leaf")
        skip = MarketModel(T=2, d=1, ids=x.ids, times=[0, 1, 1, 2, 2, 1, 2], parent=x.parent,
                           cond_prob=x.cond_prob, prices=x.prices)
        with pytest.raises(ValueError, match="rise by one"):
            tr.aw_inf(skip, x, 2.0)
