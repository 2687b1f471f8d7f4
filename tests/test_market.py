"""Event-tree market layer.

Core claims:
    - validation flags probability sums, tree shape, and depth violations,
      with the reports of a per-node loop on trees mutated with several
      faults at once
    - gains telescope along paths and are linear in the strategy
    - path costs accumulate per-period p-norms
    - dual vectors satisfy x . x* = |x|_p and |x*|_q = 1
    - the one q-norm and its gradient equal, bit for bit, the formulas they
      replaced, on single vectors and on stacks
    - conditional mean increments and Doob splits match hand computations
    - the eps-martingale deviation check is monotone in eps
    - martingale transforms of the Doob part have zero mean under Q
    - derived coefficient tensors live and die with their model, and the
      q = inf cone rows built from them equal the row-by-row loop's bytes
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import epsarb as ea
from epsarb.market import qnorm, qnorm_grad
from epsarb import programs
from epsarb.programs import tree_ops
from epsarb.testing import random_market

from _helpers import (binary_martingale, cone_rows_linf_oracle, drift_market, full_tree_law,
                      kbar_market, nostrictarb_market, telescoping_market, two_state,
                      validation_oracle)

N1, N2 = ea.NormPair(1.0), ea.NormPair(2.0)


class TestValidation:
    def test_well_formed_binary_tree_is_clean(self):
        assert ea.validate_market(nostrictarb_market()).ok

    def test_sibling_probabilities_must_sum_to_one(self):
        bad = two_state([0.0], [1.0], [-1.0], 1, pa=0.6)
        # overwrite the second sibling to 0.6 as well
        m = ea.MarketModel(T=1, d=1, ids=bad.ids, times=bad.times, parent=bad.parent,
                           cond_prob=np.array([1.0, 0.6, 0.6]), prices=bad.prices)
        report = ea.validate_market(m)
        assert not report.ok
        assert any("sum 1.2" in v for v in report.violations)

    def test_leaf_at_wrong_depth_is_reported(self):
        m = ea.MarketModel.from_nodes(2, 1, [
            {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0]},
            {"id": "a", "time": 1, "parent": "r", "cond_prob": 1.0, "prices": [1.0]},
        ])
        report = ea.validate_market(m)
        assert any("leaf at wrong depth" in v for v in report.violations)


# Valid trees to mutate: parents precede their children, so reparenting a
# node to an earlier one never makes a cycle.
VALID_TREES = [full_tree_law(np.random.default_rng(seed), T, b, d)
               for seed, (T, b, d) in enumerate([(1, 12, 1), (2, 3, 2), (3, 2, 1), (2, 9, 2)])]
VALID_TREES.append(ea.MarketModel.from_paths(  # a forest: three time-0 nodes
    np.array([[[0.0], [1.0]], [[0.0], [-1.0]], [[0.5], [2.0]], [[1.0], [0.0]]]),
    np.array([0.25, 0.25, 0.25, 0.25])))
FAULTS = ("probability", "price", "time", "parent", "sibling_sum", "leaf")


@st.composite
def faulty_trees(draw):
    """A valid tree with one to four nodes given one to three faults each,
    and sometimes another horizon."""
    base = draw(st.sampled_from(VALID_TREES))
    n = base.n_nodes
    times, parent = base.times.copy(), base.parent.copy()
    prob, prices = base.cond_prob.copy(), base.prices.copy()
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3)):
            if fault == "probability":
                prob[i] = draw(st.sampled_from([0.0, -0.5, 1.5, math.nan, math.inf])
                               | st.floats(allow_nan=True, allow_infinity=True))
            elif fault == "price":
                prices[i, draw(st.integers(0, base.d - 1))] = draw(
                    st.sampled_from([math.nan, math.inf, -math.inf]))
            elif fault == "time":
                times[i] = draw(st.integers(-2, base.T + 2))
            elif fault == "parent" and i > 0:
                parent[i] = draw(st.integers(-1, i - 1))
            elif fault == "sibling_sum":  # around the 1e-12 bound, or far off
                prob[i] += draw(st.sampled_from([1e-13, -9e-13, 1e-12, -1.1e-12, 0.25])
                                | st.floats(-3e-12, 3e-12))
            elif fault == "leaf":  # node i loses its children, which become time-0 nodes
                parent[parent == i] = -1
    T = draw(st.sampled_from([base.T, base.T, base.T + 1, 0]))
    with np.errstate(invalid="ignore", over="ignore"):  # the model's path products
        return ea.MarketModel(T=T, d=base.d, ids=base.ids, times=times, parent=parent,
                              cond_prob=prob, prices=prices)


class TestValidationReport:
    @pytest.mark.parametrize("model", VALID_TREES)
    def test_valid_trees_are_clean(self, model):
        assert ea.validate_market(model).violations == validation_oracle(model) == ()

    def test_sum_at_the_bound_is_judged_as_np_sum(self):
        # Twelve siblings whose sum in index order is within 1e-12 of 1, and
        # whose np.sum (eight partial sums) is one ulp beyond it.
        prob = [0.10596888682633286, 0.09047030251349969, 0.06010849863167086,
                0.10126233156898781, 0.07689776279984635, 0.13081272213344083,
                0.1074172454547013, 0.11313340333757717, 0.05334566413371871,
                0.04211704060645114, 0.04703849844525226, 0.07142764354952111]
        m = ea.MarketModel(T=1, d=1, ids=tuple(range(13)), times=[0] + [1] * 12,
                           parent=[-1] + [0] * 12, cond_prob=[1.0] + prob,
                           prices=np.arange(13.0))
        in_order = 0.0
        for x in prob:
            in_order += x
        assert abs(in_order - 1.0) <= ea.market.EXACT_TOL < abs(np.sum(prob) - 1.0)
        want = validation_oracle(m)
        assert want == ("sibling probabilities sum 1 != 1 under node 0",)
        assert ea.validate_market(m).violations == want

    @settings(max_examples=300, deadline=None)
    @given(faulty_trees())
    def test_matches_the_per_node_loop(self, model):
        assert ea.validate_market(model).violations == validation_oracle(model)


class TestGainAndCost:
    def test_zero_strategy_gains_nothing(self):
        m = nostrictarb_market()
        assert np.all(ea.gain(m, ea.Strategy.zeros(m)) == 0.0)

    def test_two_asset_single_period_gains(self):
        m = nostrictarb_market(eps=1.0)
        H = ea.Strategy.from_dict(m, {"r": [3.0, 1.0]})
        assert ea.gain(m, H) == pytest.approx([3.0, 4.0], abs=1e-12)

    def test_telescoping_path_cancels(self):
        m = telescoping_market()
        H = ea.Strategy.constant(m, [2.0])
        assert ea.gain(m, H) == pytest.approx([0.0], abs=1e-12)

    def test_cost_is_zero_for_zero_strategy(self):
        m = nostrictarb_market()
        assert np.all(ea.strategy_cost(m, ea.Strategy.zeros(m), N2) == 0.0)

    def test_euclidean_cost_single_period(self):
        m = nostrictarb_market()
        H = ea.Strategy.from_dict(m, {"r": [3.0, 1.0]})
        assert ea.strategy_cost(m, H, N2) == pytest.approx([np.sqrt(10)] * 2, abs=1e-12)

    def test_l1_cost_single_period(self):
        m = two_state([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 3)
        H = ea.Strategy.from_dict(m, {"r": [-2.0, 0.0, 5.0]})
        assert ea.strategy_cost(m, H, N1) == pytest.approx([7.0] * 2, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        m = nostrictarb_market()
        with pytest.raises(ValueError, match="shape"):
            ea.gain(m, ea.Strategy(np.zeros((m.n_nodes, 3))))

    def test_gain_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_market(rng)
            h1 = ea.Strategy(rng.normal(size=(m.n_nodes, m.d)))
            h2 = ea.Strategy(rng.normal(size=(m.n_nodes, m.d)))
            a, b = rng.normal(size=2)
            combo = ea.Strategy(a * h1.values + b * h2.values)
            lhs = ea.gain(m, combo)
            rhs = a * ea.gain(m, h1) + b * ea.gain(m, h2)
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + np.max(np.abs(rhs))))


class TestDualVector:
    def test_euclidean_three_four(self):
        assert N2.dual_vector(np.array([3.0, 4.0])) == pytest.approx([0.6, 0.8])

    def test_l1_sign_vector(self):
        x = np.array([-2.0, 0.0, 5.0])
        xs = N1.dual_vector(x)
        assert xs == pytest.approx([-1.0, 0.0, 1.0])
        assert float(x @ xs) == pytest.approx(7.0)

    def test_zero_maps_to_zero(self):
        assert np.all(N2.dual_vector(np.zeros(2)) == 0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_duality_identities_random(self, p):
        norms = ea.NormPair(p)
        rng = np.random.default_rng(int(10 * p))
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 5))
            if norms.norm(x) < 1e-9:
                continue
            xs = norms.dual_vector(x)
            assert float(x @ xs) == pytest.approx(norms.norm(x), rel=1e-12)
            assert norms.dual_norm(xs) == pytest.approx(1.0, rel=1e-12)


# The q-norm and gradient formulas that ``market.qnorm`` / ``qnorm_grad``
# replaced, copied inline: ``NormPair.norm`` / ``dual_norm``, the vector
# norm and gradient of the Kelley oracles, the stacked norm of the
# transport stage costs, and ``NormPair.dual_vector``.

def _old_pair_norm(x, r):
    if r == 1.0:
        return float(np.sum(np.abs(x)))
    if r == math.inf:
        return float(np.max(np.abs(x))) if x.size else 0.0
    if r == 2.0:
        return float(np.sqrt(np.dot(x, x)))
    return float(np.sum(np.abs(x) ** r) ** (1.0 / r))


def _old_oracle_norm_and_grad(z, r):
    az = np.abs(z)
    if r == math.inf:
        val = float(az.max()) if z.size else 0.0
        g = np.zeros_like(z)
        if val > 0.0:
            i = int(np.argmax(az))
            g[i] = np.sign(z[i])
        return val, g
    if r == 2.0:
        val = float(np.sqrt(z @ z))
        return val, (z / val if val > 0.0 else np.zeros_like(z))
    val = float(np.sum(az ** r) ** (1.0 / r))
    if val == 0.0:
        return 0.0, np.zeros_like(z)
    return val, np.sign(z) * (az / val) ** (r - 1.0)


def _old_stacked_norms(diff, r):
    if r == math.inf:
        return np.max(np.abs(diff), axis=-1)
    if r == 2.0:
        return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    return np.sum(np.abs(diff) ** r, axis=-1) ** (1.0 / r)


def _old_dual_vector(x, r):
    if r == 1.0:
        return np.sign(x)
    nrm = _old_pair_norm(x, r)
    if nrm == 0.0:
        return np.zeros_like(x)
    return np.sign(x) * (np.abs(x) / nrm) ** (r - 1.0)


_EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]
_ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


def _conjugate(r):
    return math.inf if r == 1.0 else (1.0 if r == math.inf else r / (r - 1.0))


class TestQNorm:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 5), elements=_ENTRIES),
           st.sampled_from(_EXPONENTS))
    def test_vector_matches_old_formulas(self, x, r):
        val = qnorm(x, r)
        assert type(val) is float
        assert val == _old_pair_norm(x, r)
        old_val, old_grad = _old_oracle_norm_and_grad(x, r)
        assert val == old_val
        g = qnorm_grad(x, r, val)
        assert np.array_equal(g, old_grad)
        if r < math.inf:
            assert np.array_equal(g, _old_dual_vector(x, r))
        if val > 0.0:
            assert float(g @ x) == pytest.approx(val, rel=1e-12)
            assert qnorm(g, _conjugate(r)) == pytest.approx(1.0, rel=1e-12)
        else:
            assert np.all(g == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=4, max_side=4),
                      elements=_ENTRIES),
           st.sampled_from(_EXPONENTS))
    def test_stack_matches_old_formulas(self, x, r):
        val = qnorm(x, r)
        assert np.array_equal(val, _old_stacked_norms(x, r))
        g = qnorm_grad(x, r, val)
        assert g.shape == x.shape
        for idx in np.ndindex(x.shape[:-1]):
            if val[idx] > 0.0:
                assert float(g[idx] @ x[idx]) == pytest.approx(val[idx], rel=1e-12)
                assert qnorm(g[idx], _conjugate(r)) == pytest.approx(1.0, rel=1e-12)
            else:
                assert np.all(g[idx] == 0.0)


class TestConditionalMeans:
    def test_symmetric_market_is_centred(self):
        m = binary_martingale()
        means = ea.conditional_mean_increments(m, ea.MeasureWeights.reference(m))
        assert means[0].mean == pytest.approx([0.0], abs=1e-14)

    def test_two_asset_halfway_mean_exceeds_eps(self):
        m = nostrictarb_market(eps=1.0)
        means = ea.conditional_mean_increments(m, ea.MeasureWeights.reference(m))
        assert means[0].mean == pytest.approx([1.0, 0.5])
        for q in (2.0, 4.0, 10.0):
            norms = ea.NormPair(q / (q - 1.0))
            assert norms.dual_norm(means[0].mean) > 1.0

    def test_single_child_node_returns_its_increment(self):
        m = drift_market(M=5.0)
        means = ea.conditional_mean_increments(m, ea.MeasureWeights.reference(m))
        assert means[0].mean == pytest.approx([5.0])

    def test_degenerate_node_is_flagged_with_cone_value(self):
        m = ea.MarketModel.from_nodes(2, 1, [
            {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0]},
            {"id": "a", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [1.0]},
            {"id": "b", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [-1.0]},
            {"id": "a1", "time": 2, "parent": "a", "cond_prob": 1.0, "prices": [2.0]},
            {"id": "b1", "time": 2, "parent": "b", "cond_prob": 1.0, "prices": [0.0]},
        ])
        q = ea.MeasureWeights.from_array(m, np.array([1.0, 0.0]))
        means = ea.conditional_mean_increments(m, q)
        dead = m.index["b"]
        assert means[dead].degenerate
        assert means[dead].mean is None
        assert means[dead].cone == pytest.approx([0.0])


class TestDoob:
    def test_martingale_market_has_zero_drift(self):
        m = binary_martingale()
        dec = ea.doob_decomposition(m, ea.MeasureWeights.reference(m))
        assert np.max(np.abs(dec.A)) < 1e-14
        assert dec.M == pytest.approx(m.prices)

    def test_deterministic_drift_is_all_drift(self):
        m = ea.MarketModel.from_nodes(2, 1, [
            {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0]},
            {"id": "a", "time": 1, "parent": "r", "cond_prob": 1.0, "prices": [1.0]},
            {"id": "b", "time": 2, "parent": "a", "cond_prob": 1.0, "prices": [2.0]},
        ])
        dec = ea.doob_decomposition(m, ea.MeasureWeights.reference(m))
        assert dec.A[:, 0] == pytest.approx([0.0, 1.0, 2.0])
        assert np.max(np.abs(dec.M)) < 1e-14

    def test_two_asset_drift_under_uniform(self):
        m = nostrictarb_market(eps=1.0)
        dec = ea.doob_decomposition(m, ea.MeasureWeights.reference(m))
        for leaf in m.leaves:
            assert dec.A[leaf] == pytest.approx([1.0, 0.5])

    def test_reconstruction_and_predictability(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_market(rng)
            w = rng.uniform(0.1, 1.0, size=m.n_leaves)
            q = ea.MeasureWeights.from_array(m, w / w.sum())
            dec = ea.doob_decomposition(m, q)
            scale = 1.0 + float(np.max(np.abs(m.prices)))
            assert np.max(np.abs(dec.A + dec.M - m.prices)) < 1e-12 * scale
            for v in m.internal:
                kids = list(m.children[v])
                dA = dec.A[kids] - dec.A[v]
                assert np.max(np.abs(dA - dA[0])) < 1e-12

    def test_martingale_transform_has_zero_mean(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            m = random_market(rng)
            w = rng.uniform(0.1, 1.0, size=m.n_leaves)
            q = ea.MeasureWeights.from_array(m, w / w.sum())
            dec = ea.doob_decomposition(m, q)
            mart = ea.MarketModel(T=m.T, d=m.d, ids=m.ids, times=m.times,
                                  parent=m.parent, cond_prob=m.cond_prob, prices=dec.M)
            H = ea.Strategy(rng.normal(size=(m.n_nodes, m.d)))
            assert float(q.weights @ ea.gain(mart, H)) == pytest.approx(0.0, abs=1e-9)

    def test_requires_equivalent_measure(self):
        m = binary_martingale()
        q = ea.MeasureWeights.from_array(m, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            ea.doob_decomposition(m, q)


class TestEpsMartingaleCheck:
    def test_martingale_measure_has_zero_deviation(self):
        m = binary_martingale()
        ok, dev = ea.is_eps_martingale(m, ea.MeasureWeights.reference(m), 0.0, N2)
        assert ok and dev == pytest.approx(0.0, abs=1e-14)

    def test_two_asset_deviation_formula(self):
        m = nostrictarb_market(eps=1.0)
        for alpha in (0.25, 0.5, 0.75):
            q = ea.MeasureWeights.from_array(m, np.array([alpha, 1 - alpha]))
            ok, dev = ea.is_eps_martingale(m, q, 1.0, N2)
            assert not ok
            assert dev == pytest.approx(np.hypot(1.0, 1 - alpha))

    def test_kbar_market_is_tight_at_eps(self):
        m = kbar_market(eps=1.0)
        q = ea.MeasureWeights.from_array(m, np.array([0.5, 0.5]))
        ok, dev = ea.is_eps_martingale(m, q, 1.0, N2)
        assert ok and dev == pytest.approx(1.0, abs=1e-14)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_market(rng)
            w = rng.uniform(0.1, 1.0, size=m.n_leaves)
            q = ea.MeasureWeights.from_array(m, w / w.sum())
            _, dev = ea.is_eps_martingale(m, q, 0.0, N2)
            verdicts = [ea.is_eps_martingale(m, q, e, N2)[0]
                        for e in np.linspace(0, dev * 1.5 + 0.1, 12)]
            assert verdicts == sorted(verdicts)  # False ... True, one switch


class TestMeasuresAndPayoffs:
    def test_weights_must_sum_to_one(self):
        m = binary_martingale()
        with pytest.raises(ValueError, match="sum"):
            ea.MeasureWeights.from_array(m, np.array([0.7, 0.7]))

    def test_equivalence_flag(self):
        m = binary_martingale()
        assert ea.MeasureWeights.from_array(m, np.array([0.5, 0.5])).equivalent
        assert not ea.MeasureWeights.from_array(m, np.array([1.0, 0.0])).equivalent

    def test_payoff_requires_all_leaves(self):
        m = binary_martingale()
        with pytest.raises(ValueError, match="missing"):
            ea.Payoff.from_dict(m, {"w1": 1.0})

    def test_density_against_reference(self):
        m = two_state([0.0], [1.0], [-1.0], 1, pa=0.25)
        q = ea.MeasureWeights.from_array(m, np.array([0.5, 0.5]))
        assert q.density(m) == pytest.approx([2.0, 2.0 / 3.0])


class TestTreeOps:
    def test_built_once_per_model(self):
        m = kbar_market()
        assert tree_ops(m) is tree_ops(m)
        assert tree_ops(m).model is m
        assert tree_ops(kbar_market()) is not tree_ops(m)

    def test_model_is_freed_after_use(self):
        m = two_state([0.0], [1.0], [-1.0], 1)
        tree_ops(m)
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None

    def test_model_is_freed_without_the_cyclic_collector(self):
        # nothing a model keeps points back at it, so its last reference
        # frees it, kept arrays, geometry and results with it
        m = full_tree_law(np.random.default_rng(3), 2, 2, 2)
        norms = ea.NormPair(2.0)
        eps = ea.critical_value(m, norms).epsilon
        psi = ea.Payoff(np.linalg.norm(m.prices[list(m.leaves)] - m.prices[0], axis=1))
        gc.disable()
        try:
            ops = tree_ops(m)
            assert tree_ops(m) is ops
            del ops
            results = [ea.detect_strict_arbitrage(m, 0.5 * eps, norms),
                       ea.find_eps_martingale_measure(m, 1.5 * eps, norms),
                       ea.superhedge_price(m, 1.5 * eps, norms, psi),
                       ea.fair_price_range(m, 1.5 * eps, norms, psi)]
            assert results[0].found and results[1].feasible
            assert "_tree_ops" in vars(m) and "_programs" in vars(m)
            ref = weakref.ref(m)
            del m
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.3, 2.5])
    def test_linf_cone_rows_match_the_row_loop(self, eps):
        # One stacked expression: rows in (node, asset, + then -) order,
        # byte-equal to the loop that built them one numpy call at a time.
        rng = np.random.default_rng(31)
        models = [random_market(rng) for _ in range(20)]
        models += [full_tree_law(rng, 3, 3, 2), two_state([0.0], [1.0], [-1.0], 1)]
        for m in models:
            rows = programs._cone_rows_linf(tree_ops(m), eps)
            want = cone_rows_linf_oracle(tree_ops(m), eps)
            assert rows.shape == want.shape and rows.flags["C_CONTIGUOUS"]
            assert rows.tobytes() == want.tobytes()
