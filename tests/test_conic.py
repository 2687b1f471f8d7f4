"""The conic route for p = q = 2 with d >= 2.

Core claims:
    - on tangent markets (a cone set that is a single point or touches the
      boundary) a conic result that fails its exact check is solved again by
      the cutting planes, the fallback is counted, and the verdict stands
    - off the boundary the conic route decides alone, with no fallback
    - conic and cutting-plane routes agree on verdicts, price bounds, node
      deviations and superhedge prices
"""

import numpy as np
import pytest

import epsarb as ea
from epsarb import arbitrage, pricing, programs
from epsarb.testing import random_market

from _helpers import kbar_market, nostrictarb_market

N2 = ea.NormPair(2.0)


def _fallbacks(name):
    return programs.CONIC_FALLBACKS[name]


class TestTangentMarkets:
    def test_boundary_detection_falls_back_on_support_bounds(self):
        # Criterion 01: at eps = 1 the node's cone set is a single point.
        before = _fallbacks("_node_support_max")
        rep = ea.detect_strict_arbitrage(nostrictarb_market(1.0), 1.0, N2)
        assert rep.status == "none_within_tolerance"
        assert _fallbacks("_node_support_max") > before

    def test_tangent_measure_program_falls_back(self):
        # Criterion 02: the closed cone set is the point q = (1, 0).
        before = _fallbacks("interior_feasibility")
        res = ea.find_eps_martingale_measure(nostrictarb_market(1.0), 1.0, N2, eta=1e-9)
        assert res.status == "infeasible" and not res.indeterminate
        assert _fallbacks("interior_feasibility") == before + 1

    def test_single_point_measure_is_found(self):
        # Criterion 03: the uniform measure is the whole cone set.
        res = ea.find_eps_martingale_measure(kbar_market(1.0), 1.0, N2)
        assert res.feasible
        assert np.max(np.abs(res.measure.weights - 0.5)) <= 1e-8

    def test_off_boundary_levels_need_no_fallback(self):
        before = sum(programs.CONIC_FALLBACKS.values())
        m = kbar_market(1.0)
        assert ea.find_eps_martingale_measure(m, 1.5, N2).feasible
        assert not ea.find_eps_martingale_measure(m, 0.5, N2).feasible
        assert ea.detect_strict_arbitrage(m, 0.5, N2).found
        assert not ea.detect_strict_arbitrage(m, 1.5, N2).found
        assert sum(programs.CONIC_FALLBACKS.values()) == before


@pytest.fixture
def cutting_planes(monkeypatch):
    """Route every program to the cutting planes, as for p outside {1, 2}."""
    def use(flag):
        if flag:
            for module in (programs, arbitrage, pricing):
                monkeypatch.setattr(module, "_conic", lambda model, norms: False)
        else:
            monkeypatch.undo()
    return use


class TestAgreesWithCuttingPlanes:
    def test_programs_agree(self, cutting_planes):
        rng = np.random.default_rng(77)
        for _ in range(2):
            m = random_market(rng, T=1, d=2)
            payoff = ea.Payoff(np.arange(m.n_leaves, dtype=float))
            crit = ea.critical_value(m, N2).epsilon
            out = {}
            for kelley in (False, True):
                cutting_planes(kelley)
                eps = 1.3 * crit + 0.05
                gammas = [programs.node_min_simplex_deviation(m, v, N2) for v in m.internal]
                hi = ea.robust_price_bound(m, eps, N2, payoff, "sup")
                lo = ea.robust_price_bound(m, eps, N2, payoff, "inf")
                hedge = ea.superhedge_price(m, eps, N2, payoff)
                verdicts = (ea.find_eps_martingale_measure(m, 0.7 * crit, N2).feasible,
                            ea.find_eps_martingale_measure(m, eps, N2).feasible,
                            ea.detect_strict_arbitrage(m, 0.7 * crit, N2).found,
                            ea.check_na_prime(m, eps, N2).holds)
                out[kelley] = (gammas, hi.value, lo.value, hedge.primal_value, verdicts)
            cutting_planes(False)
            (g0, hi0, lo0, h0, v0), (g1, hi1, lo1, h1, v1) = out[False], out[True]
            assert np.allclose(g0, g1, atol=1e-8)
            assert hi0 == pytest.approx(hi1, abs=1e-6) and lo0 == pytest.approx(lo1, abs=1e-6)
            assert h0 == pytest.approx(h1, abs=1e-5)
            assert v0 == v1
