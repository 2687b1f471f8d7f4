"""The conic route for p = q = 2 with d >= 2.

Core claims:
    - on tangent markets (a cone set that is a single point or touches the
      boundary) the node geometry decides exactly, by the min-norm point and
      its face, so no conic result is rejected and the verdict stands
    - the tangent test is one-sided: just above a tangent level whose face
      has no full-support point, the cone set is larger than the face and
      a measure is found; below it by more than rounding the set is empty
    - off the boundary the conic route decides alone, with no fallback
    - q = 2 pricing reads no node structures: price bounds and superhedge
      prices close their duality gap to 1e-9 by one price induction, each
      node cone program solving twice at most, also where the cone set is a
      single point
    - a binary node at q = 2 has a closed form: its value lies in the node
      cone program's certified bracket, and its kernel and hedge pass the
      exact checks (a property over random nodes)
    - the q = 2 cones written as second-order blocks and as power blocks
      (the general-p route) agree on verdicts, price bounds, node deviations
      (the power-cone gamma against Wolfe's point) and superhedge prices
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epsarb as ea
from epsarb import programs
from epsarb.testing import random_market

from _helpers import count_solves, kbar_market, nostrictarb_market

N2 = ea.NormPair(2.0)


def fan_market() -> ea.MarketModel:
    """One node, two assets, children dS = (1, 0), (1, 1), (1, 2), P uniform."""
    return ea.MarketModel.from_nodes(1, 2, [
        {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0, 0.0]},
        *({"id": f"w{i}", "time": 1, "parent": "r", "cond_prob": 1 / 3,
           "prices": [1.0, float(i)]} for i in range(3))])


def criterion_05_draw(k):
    """Market and payoff of draw k (from 0) in the criterion 05 battery."""
    rng = np.random.default_rng(505)
    for _ in range(k + 1):
        m = random_market(rng)
        psi = ea.Payoff(rng.normal(size=m.n_leaves))
    return m, psi


def _fallbacks(name):
    return programs.CONIC_FALLBACKS[name]


class TestTangentMarkets:
    def test_boundary_detection_falls_back_on_support_bounds(self):
        # Criterion 01: at eps = 1 the node's cone set is a single point.
        before = _fallbacks("_node_support_max")
        rep = ea.detect_strict_arbitrage(nostrictarb_market(1.0), 1.0, N2)
        assert rep.status == "none_within_tolerance"
        assert _fallbacks("_node_support_max") == before

    def test_tangent_measure_program_falls_back(self):
        # Criterion 02: the closed cone set is the point q = (1, 0).
        before = _fallbacks("interior_feasibility")
        res = ea.find_eps_martingale_measure(nostrictarb_market(1.0), 1.0, N2, eta=1e-9)
        assert res.status == "infeasible" and not res.indeterminate
        assert _fallbacks("interior_feasibility") == before

    def test_single_point_measure_is_found(self):
        # Criterion 03: the uniform measure is the whole cone set.
        res = ea.find_eps_martingale_measure(kbar_market(1.0), 1.0, N2)
        assert res.feasible
        assert np.max(np.abs(res.measure.weights - 0.5)) <= 1e-8

    @pytest.mark.parametrize("eps", [1.0 + 1e-9, 1.0 + 1e-8])
    def test_just_above_a_tangent_level_is_feasible(self, eps):
        # gamma = 1 at the vertex (1, 0), whose face carries one child only;
        # above it q = (1 - 2s, s, s) is in the cone set for 3s <= sqrt(eps^2 - 1).
        m = fan_market()
        res = ea.find_eps_martingale_measure(m, eps, N2)
        assert res.feasible and not res.indeterminate
        assert ea.is_eps_martingale(m, res.measure, eps, N2)[0]
        assert np.all(res.measure.weights > 0.0)
        # NA' agrees: the node's extremal cone is trivial above the tangent level
        assert ea.check_na_prime(m, eps, N2).holds

    @pytest.mark.parametrize("eps", [1.0 - 5e-9, 1.0 - 1e-11])
    def test_just_below_a_tangent_level_is_empty(self, eps):
        # gamma = 1 with the face q = (1/2, 1/2), whose deviation 1 exceeds
        # eps by more than rounding: no eps-martingale measure exists.
        m = kbar_market(1.0)
        res = ea.find_eps_martingale_measure(m, eps, N2)
        assert res.status == "infeasible" and not res.indeterminate
        psi = np.array([1.0, 0.0])
        assert programs.cone_linear_optimum(m, eps, N2, psi, "max", None) == (None,) * 4

    @pytest.mark.parametrize("eps", [1.0 - 1e-13, 1.0, 1.0 + 1e-9])
    def test_feasible_results_at_a_tangent_level_pass_the_check(self, eps):
        m = kbar_market(1.0)
        res = ea.find_eps_martingale_measure(m, eps, N2)
        assert res.feasible
        assert ea.is_eps_martingale(m, res.measure, eps, N2)[0]
        status, *_, margin = programs.interior_feasibility(m, eps, N2, 1e-9)
        assert status == "feasible" and margin >= 0.0

    def test_off_boundary_levels_need_no_fallback(self):
        before = sum(programs.CONIC_FALLBACKS.values())
        m = kbar_market(1.0)
        assert ea.find_eps_martingale_measure(m, 1.5, N2).feasible
        assert not ea.find_eps_martingale_measure(m, 0.5, N2).feasible
        assert ea.detect_strict_arbitrage(m, 0.5, N2).found
        assert not ea.detect_strict_arbitrage(m, 1.5, N2).found
        assert sum(programs.CONIC_FALLBACKS.values()) == before


class TestNoCuttingPlanes:
    def test_q2_pricing_closes_its_gap_without_cutting_planes(self, monkeypatch):
        def no_structures(*args, **kwargs):
            raise AssertionError("the q = 2 superhedge read the node structures")

        solves = []

        def counted(prog):
            solves.append(prog)
            return real_socp(prog)

        real_socp = programs.solve_socp
        monkeypatch.setattr(ea.arbitrage, "compute_node_structure", no_structures)
        monkeypatch.setattr(programs, "solve_socp", counted)
        for k in (45, 87):
            m, psi = criterion_05_draw(k)
            eps = 1.05 * programs.reference_deviation(m, N2) + 0.05
            ea.find_eps_martingale_measure(m, eps, N2)
            n_emm = len(solves)
            cone = programs.NODE_PROGRAMS["cone program"]
            res = ea.superhedge_price(m, eps, N2, psi)
            # one price induction, each node cone program solving twice at
            # most; the model keeps find-emm's interior result
            assert len(solves) - n_emm <= 2 * (programs.NODE_PROGRAMS["cone program"] - cone), k
            del solves[:]
            assert res.mode == "dual"
            assert res.gap is not None and res.gap <= 1e-9 * (1.0 + abs(res.price)), k
        # kbar at eps = gamma = 1: the cone set is the single point (1/2, 1/2)
        m, psi = kbar_market(1.0), ea.Payoff(np.array([1.0, 0.0]))
        assert abs(ea.robust_price_bound(m, 1.0, N2, psi, "sup").value - 0.5) <= 1e-9
        res = ea.superhedge_price(m, 1.0, N2, psi)
        assert abs(res.price - 0.5) <= 1e-9
        assert res.gap is not None and res.gap <= 1e-9 * (1.0 + abs(res.price))


@pytest.fixture
def power_cones(monkeypatch):
    """Write the q = 2 cones as power blocks, as for p outside {1, 2}: the
    node geometry then solves its cone program instead of Wolfe's method."""
    def use(flag):
        if flag:
            monkeypatch.setattr(programs, "_second_order", lambda r: False)
        else:
            monkeypatch.undo()
    return use


class TestPowerConesAgreeWithSecondOrderCones:
    def test_programs_agree(self, power_cones, monkeypatch):
        rng = np.random.default_rng(77)
        for _ in range(2):
            m = random_market(rng, T=1, d=2)
            payoff = ea.Payoff(np.arange(m.n_leaves, dtype=float))
            crit = ea.critical_value(m, N2).epsilon
            out = {}
            power_solves = {}
            for power in (False, True):
                monkeypatch.undo()  # the last pass's counter, which would count this pass too
                power_cones(power)
                power_solves[power] = count_solves(monkeypatch)
                # the geometry and the program results kept on the model
                m.__dict__.pop("_node_geometry", None)
                m.__dict__.pop("_programs", None)
                eps = 1.3 * crit + 0.05
                gammas = [programs.node_min_simplex_deviation(m, v, N2) for v in m.internal]
                hi = ea.robust_price_bound(m, eps, N2, payoff, "sup")
                lo = ea.robust_price_bound(m, eps, N2, payoff, "inf")
                hedge = ea.superhedge_price(m, eps, N2, payoff)
                verdicts = (ea.find_eps_martingale_measure(m, 0.7 * crit, N2).feasible,
                            ea.find_eps_martingale_measure(m, eps, N2).feasible,
                            ea.detect_strict_arbitrage(m, 0.7 * crit, N2).found,
                            ea.check_na_prime(m, eps, N2).holds)
                out[power] = (gammas, hi.value, lo.value, hedge.primal_value, verdicts)
            power_cones(False)
            # each pass solves its own programs: none is read from the other's
            assert all(kind != "power" for kind, _ in power_solves[False])
            # with power blocks every node of more than one child is a node
            # cone program (a single child is a closed form)
            for program in ("interior_feasibility", "cone_linear_optimum")[
                    :2 * any(len(m.children[v]) > 1 for v in m.internal)]:
                assert any(kind == "power" and program in names
                           for kind, names in power_solves[True]), program
            (g0, hi0, lo0, h0, v0), (g1, hi1, lo1, h1, v1) = out[False], out[True]
            assert np.allclose(g0, g1, atol=1e-8)
            assert hi0 == pytest.approx(hi1, abs=1e-6) and lo0 == pytest.approx(lo1, abs=1e-6)
            assert h0 == pytest.approx(h1, abs=1e-5)
            assert v0 == v1


def _node_cases():
    """Random binary d = 2 nodes: increments, reference kernel, children's
    values (positive, as ratio values are) and a level between 1 + 1e-6
    and 3 times gamma(v), or times a floor where gamma(v) is below it."""
    coords = st.floats(-2.0, 2.0, allow_nan=False)
    return st.tuples(
        st.lists(coords, min_size=4, max_size=4), st.floats(0.05, 0.95),
        st.lists(st.floats(0.01, 3.0), min_size=2, max_size=2),
        st.floats(1e-6, 2.0), st.floats(0.01, 1.0))


class TestBinaryClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(_node_cases())
    def test_lies_in_the_cone_bracket(self, case):
        coords, p0, values, rise, floor = case
        A = np.array(coords).reshape(2, 2)
        node = programs.NodeGeometry(A, 2.0)
        eps = (1.0 + rise) * max(node.gamma, floor)
        values, p = np.array(values), np.array([p0, 1.0 - p0])
        S = programs._NodeSet(node, eps, N2)
        assert S.state == "open"
        for ref in (None, p):
            out = programs._node_program("test", node, ref, values, eps, N2)
            kernel, lo, hi, hedge = out
            cone = programs._node_cone("test", S, values,
                                       None if ref is None else values / p, None, node.lam)
            # a kernel in K_v, whose value is lo, and a certified hi >= lo
            assert kernel is not None and np.all(kernel >= 0.0)
            assert kernel.sum() == pytest.approx(1.0, abs=1e-15)
            assert S.margin(kernel) >= 0.0
            want = float(values @ kernel) if ref is None else float(np.min(kernel * (values / p)))
            assert lo == want <= hi
            tol = 1e-9 * (1.0 + abs(lo))
            assert cone[1] - tol <= lo and hi <= cone[2] + tol
            if ref is None:
                # the hedge's capital, recomputed, is hi and covers every child
                H, g = hedge
                assert g is None and S.capital(values, H, None) == hi
                slack = hi + A @ H - eps * np.linalg.norm(H) - values
                assert np.all(slack >= -1e-12 * (1.0 + abs(hi)))
