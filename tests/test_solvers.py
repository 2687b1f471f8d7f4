"""Solver kernel.

Core claims:
    - LPs report optimal values with usable duals and certify infeasibility
      by a verifiable Farkas ray
    - the cutting-plane engine reaches stated tolerances on smooth and
      piecewise-linear objectives and matches the epigraph LP on the latter
    - discrete transport is exact against polytope enumeration and never
      beats a feasible plan
    - threshold feasibility is monotone and the bottleneck value is attained
      on the returned plan's support
    - the combinatorial bottleneck solver agrees with an LP threshold
      bisection on tied costs, zero-mass rows and columns and 1 x n / m x 1
      shapes, with exact plan marginals
    - the cone interior-point solver matches HiGHS on LPs and NNLS on
      min-norm points, and its infeasibility and unboundedness certificates
      hold when recomputed
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from epsarb.solvers import (ConcaveOracle, ConeProgram, LinearProgram, TransportInstance,
                            bottleneck_transport, discrete_ot, maximize_concave,
                            solve_lp, solve_socp, transport_feasible_below)

from _helpers import enumerate_2x2_transport, lp_bottleneck_value, random_feasible_plan


class TestSolveLP:
    def test_simple_max(self):
        res = solve_lp(LinearProgram(c=np.array([1.0]), sense="max",
                                     a_ub=np.array([[1.0]]), b_ub=np.array([3.0])))
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0)
        assert res.dual_ub == pytest.approx([1.0])

    def test_infeasible_with_farkas_ray(self):
        res = solve_lp(LinearProgram(c=np.array([0.0]),
                                     a_ub=np.array([[-1.0], [1.0]]),
                                     b_ub=np.array([-1.0, 0.0])))
        assert res.status == "infeasible"
        assert res.farkas is not None
        y = res.farkas["y_ub"]
        assert np.all(y >= -1e-12)
        # y' A = 0 and y' b < 0 certify emptiness
        assert y @ np.array([[-1.0], [1.0]]) == pytest.approx([0.0], abs=1e-9)
        assert float(y @ np.array([-1.0, 0.0])) < -1e-12

    def test_unbounded_status(self):
        res = solve_lp(LinearProgram(c=np.array([1.0]), sense="max"))
        assert res.status == "unbounded"

    def test_duality_battery(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(2, 25))
            A = rng.normal(size=(m, n))
            x0 = rng.uniform(0, 1, size=n)
            b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
            box = np.vstack([np.eye(n), -np.eye(n)])
            box_rhs = np.full(2 * n, 10.0)
            c = rng.normal(size=n)
            res = solve_lp(LinearProgram(c=c, sense="max",
                                         a_ub=np.vstack([A, box]),
                                         b_ub=np.concatenate([b, box_rhs])))
            assert res.status == "optimal"
            dual_val = float(res.dual_ub @ np.concatenate([b, box_rhs]))
            assert dual_val == pytest.approx(res.value, abs=1e-8 * (1 + abs(res.value)))

    def test_transportation_lp_matches_discrete_ot(self):
        cost = np.array([[3.0, 4.0], [4.0, 5.0]])
        inst = TransportInstance(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        ot = discrete_ot(inst)
        # same instance as an explicit LP
        a_eq = np.array([[1.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 1.0],
                         [1.0, 0.0, 1.0, 0.0],
                         [0.0, 1.0, 0.0, 1.0]])
        res = solve_lp(LinearProgram(c=cost.ravel(), a_eq=a_eq,
                                     b_eq=np.array([0.5, 0.5, 0.5, 0.5]),
                                     bounds=[(0, None)] * 4))
        assert res.value == pytest.approx(ot.value, abs=1e-10)


class TestMaximizeConcave:
    def test_smooth_quadratic_peak(self):
        res = maximize_concave(lambda x: (-float(x @ x), -2 * x),
                               lower=-np.ones(2), upper=np.ones(2), tol=1e-9)
        assert res.status == "optimal"
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_piecewise_linear_tent(self):
        def tent(x):
            if x[0] <= 1 - x[0]:
                return float(x[0]), np.array([1.0])
            return float(1 - x[0]), np.array([-1.0])

        res = maximize_concave(tent, lower=np.zeros(1), upper=np.ones(1), tol=1e-10)
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_oracle_object_with_ball_constraint(self):
        oracle = ConcaveOracle(
            evaluate=lambda x: (float(x[0] + x[1]), np.array([1.0, 1.0])),
            lower=-np.ones(2), upper=np.ones(2),
            constraints=(lambda x: (1.0 - float(np.hypot(*x)),
                                    -x / max(np.hypot(*x), 1e-12)),))
        # curved constraints want the repair hook: rescale into the disc
        res = maximize_concave(oracle, tol=1e-9,
                               repair=lambda x: x / max(1.0, float(np.hypot(*x))))
        assert res.value == pytest.approx(np.sqrt(2.0), abs=1e-7)

    def test_matches_epigraph_lp_on_random_piecewise_linear(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(2, 6))
            slopes = rng.normal(size=(k, n))
            offs = rng.normal(size=k)

            def f(x, slopes=slopes, offs=offs):
                vals = slopes @ x + offs
                i = int(np.argmin(vals))
                return float(vals[i]), slopes[i]

            res = maximize_concave(f, lower=-np.ones(n), upper=np.ones(n), tol=1e-10)
            lp = solve_lp(LinearProgram(
                c=np.concatenate([np.zeros(n), [1.0]]), sense="max",
                a_ub=np.hstack([-slopes, np.ones((k, 1))]), b_ub=offs,
                bounds=[(-1.0, 1.0)] * n + [(None, None)]))
            assert res.value == pytest.approx(lp.value, abs=1e-8 * (1 + abs(lp.value)))

    def test_infeasible_constraints_detected(self):
        res = maximize_concave(lambda x: (float(x[0]), np.array([1.0])),
                               lower=np.zeros(1), upper=np.ones(1),
                               constraints=[lambda x: (-1.0 - x[0], np.array([-1.0]))])
        assert res.status == "infeasible"

    def test_iteration_cap_reports_gap(self):
        c = np.array([0.3, 0.7, 0.1])
        res = maximize_concave(lambda x: (-float((x - c) @ (x - c)), -2 * (x - c)),
                               lower=-np.ones(3), upper=np.ones(3),
                               tol=1e-16, max_iter=4)
        assert res.status == "iteration_cap"
        assert np.isfinite(res.gap) and res.gap > 0


class TestDiscreteOT:
    def test_diagonal_zero_cost(self):
        cost = np.array([[0.0, 9.0], [9.0, 0.0]])
        res = discrete_ot(TransportInstance(cost, np.array([0.3, 0.7]),
                                            np.array([0.3, 0.7])))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_2x2_value_by_enumeration(self):
        cost = np.array([[3.0, 4.0], [4.0, 5.0]])
        src = np.array([0.5, 0.5])
        best_cost, _ = enumerate_2x2_transport(cost, src, src)
        res = discrete_ot(TransportInstance(cost, src, src))
        assert res.value == pytest.approx(best_cost, abs=1e-9)
        assert res.value == pytest.approx(4.0, abs=1e-10)

    def test_degenerate_source_returns_target_row(self):
        cost = np.array([[1.0, 2.0, 3.0]])
        tgt = np.array([0.2, 0.3, 0.5])
        res = discrete_ot(TransportInstance(cost, np.array([1.0]), tgt))
        assert res.plan[0] == pytest.approx(tgt, abs=1e-10)

    def test_marginal_mismatch_rejected(self):
        with pytest.raises(ValueError, match="marginal"):
            TransportInstance(np.ones((2, 2)), np.array([0.5, 0.4]), np.array([0.5, 0.5]))

    def test_never_beats_feasible_plans(self):
        rng = np.random.default_rng(12)
        trials = 0
        while trials < 1000:
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            src = rng.uniform(0.1, 1.0, m)
            src /= src.sum()
            tgt = rng.uniform(0.1, 1.0, n)
            tgt /= tgt.sum()
            cost = rng.uniform(0, 5, size=(m, n))
            opt = discrete_ot(TransportInstance(cost, src, tgt)).value
            for _ in range(10):
                plan = random_feasible_plan(rng, src, tgt)
                assert opt <= float(np.sum(plan * cost)) + 1e-9
                trials += 1


class TestBottleneck:
    def test_identical_point_masses(self):
        res = bottleneck_transport(TransportInstance(np.zeros((1, 1)),
                                                     np.array([1.0]), np.array([1.0])))
        assert res.value == 0.0

    def test_hall_condition_example(self):
        cost = np.array([[0.0, 5.0], [3.0, 4.0]])
        inst = TransportInstance(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert transport_feasible_below(inst, 5.0)
        assert not transport_feasible_below(inst, 3.0)  # second column starved
        assert transport_feasible_below(inst, 4.0)
        assert bottleneck_transport(inst).value == pytest.approx(4.0)

    def test_quantile_example_costs(self):
        cost = np.array([[3.0, 4.0], [4.0, 5.0]])
        inst = TransportInstance(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        _, best_btl = enumerate_2x2_transport(cost, np.array([0.5, 0.5]),
                                              np.array([0.5, 0.5]))
        res = bottleneck_transport(inst)
        assert res.value == pytest.approx(best_btl, abs=1e-12)
        assert res.value == 4.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            src = rng.uniform(0.1, 1.0, m)
            src /= src.sum()
            tgt = rng.uniform(0.1, 1.0, n)
            tgt /= tgt.sum()
            cost = rng.uniform(0, 5, size=(m, n))
            inst = TransportInstance(cost, src, tgt)
            flags = [transport_feasible_below(inst, lam)
                     for lam in np.linspace(0, 5.5, 12)]
            assert flags == sorted(flags)

    def test_value_attained_on_support(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            src = rng.uniform(0.1, 1.0, m)
            src /= src.sum()
            tgt = rng.uniform(0.1, 1.0, n)
            tgt /= tgt.sum()
            cost = rng.uniform(0, 5, size=(m, n))
            res = bottleneck_transport(TransportInstance(cost, src, tgt))
            support_max = float(np.max(cost[res.plan > 1e-12]))
            assert support_max == res.value


def _masses(k: int):
    """k integer weights with at least one positive, normalized: masses such
    as 1/3 or 2/7 carry float noise and zero masses stay exactly zero."""
    return st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any).map(
        lambda w: np.array(w, dtype=float) / sum(w))


@st.composite
def _instances(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.integers(0, 3).map(float) | st.floats(0.0, 10.0, allow_subnormal=False)
    cost = np.array(draw(st.lists(cell, min_size=m * n, max_size=m * n))).reshape(m, n)
    return TransportInstance(cost, draw(_masses(m)), draw(_masses(n)))


class TestBottleneckProperties:
    @settings(max_examples=300, deadline=None)
    @given(_instances())
    def test_matches_lp_threshold_bisection(self, inst):
        res = bottleneck_transport(inst)
        ref_value = lp_bottleneck_value(inst.cost, inst.source, inst.target)
        assert abs(res.value - ref_value) <= 1e-12
        assert np.min(res.plan) >= 0.0
        assert np.max(np.abs(res.plan.sum(axis=1) - inst.source)) <= 1e-12
        assert np.max(np.abs(res.plan.sum(axis=0) - inst.target)) <= 1e-12
        assert float(np.max(inst.cost[res.plan > 1e-12])) == res.value

    @settings(max_examples=100, deadline=None)
    @given(_instances(), st.data())
    def test_threshold_feasibility_matches_value(self, inst, data):
        ref_value = lp_bottleneck_value(inst.cost, inst.source, inst.target)
        levels = sorted(set(inst.cost.ravel().tolist()))
        lam = data.draw(st.sampled_from(levels) | st.floats(-1.0, 11.0))
        assert transport_feasible_below(inst, lam) == (ref_value <= lam)


# ---------------------------------------------------------------------------
# Second-order cone interior point
# ---------------------------------------------------------------------------

def _matrix(rows: int, cols: int):
    """Well-scaled entries: small integers, or floats of magnitude 1e-3 to 2."""
    cell = st.integers(-3, 3).map(float) | st.floats(-2.0, 2.0).filter(
        lambda v: abs(v) >= 1e-3)
    return st.lists(cell, min_size=rows * cols, max_size=rows * cols).map(
        lambda v: np.array(v).reshape(rows, cols))


@st.composite
def _feasible_lps(draw):
    """A box-bounded LP around a known point, with 0 or 1 equality rows."""
    n, m, p = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 1))
    G = draw(_matrix(m, n))
    x0 = draw(_matrix(1, n))[0]
    slack = np.abs(draw(_matrix(1, m))[0])
    G = np.vstack([G, np.eye(n), -np.eye(n)])
    h = np.concatenate([G[:m] @ x0 + slack, 3.0 + np.abs(x0), 3.0 + np.abs(x0)])
    A = draw(_matrix(p, n)) if p else None
    b = A @ x0 if p else None
    return ConeProgram(draw(_matrix(1, n))[0], G, h, G.shape[0], (), A, b)


def _dual_cone_member(prog: ConeProgram, z: np.ndarray, tol: float) -> bool:
    if np.any(z[:prog.l] < -tol):
        return False
    start = prog.l
    for k in prog.soc:
        if z[start] < np.linalg.norm(z[start + 1:start + k]) - tol:
            return False
        start += k
    return True


class TestSolveSocp:
    @settings(max_examples=150, deadline=None)
    @given(_feasible_lps())
    def test_orthant_lp_matches_highs(self, prog):
        res = solve_socp(prog)
        ref = solve_lp(LinearProgram(prog.c, a_ub=prog.G, b_ub=prog.h,
                                     a_eq=prog.A if prog.A.size else None,
                                     b_eq=prog.b if prog.b.size else None))
        assert ref.status == "optimal"
        assert res.status in ("optimal", "unsolved")
        assert abs(res.value - ref.value) <= 1e-7 * (1.0 + abs(ref.value))
        box = np.full(prog.c.size, 1e3)
        assert prog.lower_bound(res.y, res.z, box) <= ref.value + 1e-9 * (1.0 + abs(ref.value))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 3), st.data())
    def test_min_norm_point_matches_nnls(self, k, d, data):
        pts = data.draw(_matrix(k, d)) + data.draw(_matrix(1, d))
        # min t s.t. a >= 0, sum a = 1, |pts' a|_2 <= t
        G = np.zeros((k + 1 + d, k + 1))
        G[:k, :k] = -np.eye(k)
        G[k, k] = -1.0
        G[k + 1:, :k] = -pts.T
        prog = ConeProgram(np.concatenate([np.zeros(k), [1.0]]), G, np.zeros(k + 1 + d), k,
                           (d + 1,), np.concatenate([np.ones(k), [0.0]])[None, :],
                           np.array([1.0]))
        res = solve_socp(prog)
        weight = 1e4  # the simplex row enters NNLS as one heavily weighted residual
        a, _ = nnls(np.vstack([pts.T, weight * np.ones((1, k))]),
                    np.concatenate([np.zeros(d), [weight]]))
        ref = float(np.linalg.norm(pts.T @ (a / a.sum())))
        assert res.status in ("optimal", "unsolved")
        assert abs(res.value - ref) <= 1e-7

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), _matrix(1, 3), st.floats(0.01, 2.0), st.booleans())
    def test_infeasibility_certificate_recomputes(self, n, direction, gap, with_eq):
        # |x|_2 <= 1 and a.x >= |a| (1 + gap): the half-space misses the ball.
        a = direction[0, :n]
        a = a / np.linalg.norm(a) if np.linalg.norm(a) > 1e-3 else np.ones(n)
        G = np.vstack([-a[None, :], np.zeros((1, n)), -np.eye(n)])
        h = np.concatenate([[-np.linalg.norm(a) * (1.0 + gap)], [1.0], np.zeros(n)])
        A = np.ones((1, n)) if with_eq else None
        prog = ConeProgram(np.zeros(n), G, h, 1, (n + 1,), A, np.zeros(1) if with_eq else None)
        res = solve_socp(prog)
        assert res.status == "infeasible"
        value = float(prog.h @ res.z + prog.b @ res.y)
        assert value < 0.0
        assert np.linalg.norm(prog.G.T @ res.z + prog.A.T @ res.y) <= 1e-8 * -value
        assert _dual_cone_member(prog, res.z, 1e-12)
        assert prog.certifies_infeasible(res.y, res.z, np.full(n, 10.0))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), _matrix(4, 3), _matrix(1, 3))
    def test_unboundedness_certificate_recomputes(self, n, rows, ray):
        # Rows turned to hold the ray d in their recession cone, and c = -d.
        d = ray[0, :n]
        d = d / np.linalg.norm(d) if np.linalg.norm(d) > 1e-3 else np.ones(n)
        G = rows[:, :n] * np.where(rows[:, :n] @ d > 0.0, -1.0, 1.0)[:, None]
        prog = ConeProgram(-d, G, np.ones(G.shape[0]), G.shape[0])
        res = solve_socp(prog)
        assert res.status == "unbounded"
        assert abs(float(prog.c @ res.x) + 1.0) <= 1e-12
        assert np.linalg.norm(prog.G @ res.x + res.s) <= 1e-8
        assert np.all(res.s >= 0.0)
