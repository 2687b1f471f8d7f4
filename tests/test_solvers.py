"""Solver kernel.

Core claims:
    - LPs report optimal values with usable duals, an infeasible LP
      costs one HiGHS solve, and solve_lp's direct HiGHS call is bit-equal
      to scipy's linprog(method="highs") on points, values, duals and statuses
    - the HiGHS instance each thread reuses carries no state: a battery of
      optimal, infeasible and unbounded LPs gives the bytes of a fresh
      instance per LP, also on three threads at once
    - discrete transport is exact against polytope enumeration and never
      beats a feasible plan
    - threshold feasibility is monotone and the bottleneck value is attained
      on the returned plan's support
    - the combinatorial bottleneck solver agrees with an LP threshold
      bisection on tied costs, zero-mass rows and columns and 1 x n / m x 1
      shapes, with exact plan marginals
    - the log-weight transportation simplex (and discrete_ot on top of it)
      agrees with the HiGHS transport LP on the same shapes, and with
      vertex enumeration in the log domain when the log-weights span 1e3;
      its pricing by dual potentials makes the pivots of pricing every
      cycle in the log domain, so its flows are those bits, also past exp's
      overflow and where the log-domain test must decide
    - log_transport checks that the weights' shape matches the marginals
    - the cone interior-point solver matches HiGHS on LPs, where its dual
      iterate, optimal or unsolved, bounds the optimum by weak duality, and
      NNLS on min-norm points (Wolfe's method matches NNLS to 1e-10, also on
      duplicate and collinear points and with the origin in the hull), and
      its infeasibility and unboundedness certificates
      hold when recomputed, and its iteration count is the number of steps
      it took
    - on power cones it reaches the weighted geometric mean
      a^a (1 - a)^(1 - a), a hand-solved program mixing orthant, second-order
      and power blocks, and recomputable infeasibility and unboundedness
      certificates
    - the HiGHS core and the LAPACK LU load straight from their files, and
      a later scipy import reuses those module objects (and the reverse)
"""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog, nnls
from scipy.special import logsumexp

from epsarb import solvers
from epsarb.solvers import (ConeProgram, LinearProgram, TransportInstance,
                            bottleneck_transport, discrete_ot, log_transport,
                            solve_lp, solve_socp, transport_feasible_below)

from _helpers import (bottleneck_transport_arrays, brute_force_log_transport,
                      enumerate_2x2_transport, log_simplex_reference, log_transport_arrays,
                      lp_bottleneck_value, random_feasible_plan, run_fresh,
                      weak_duality_bound)


class TestSolveLP:
    def test_simple_max(self):
        res = solve_lp(LinearProgram(c=np.array([1.0]), sense="max",
                                     a_ub=np.array([[1.0]]), b_ub=np.array([3.0])))
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0)
        assert res.dual_ub == pytest.approx([1.0])

    def test_infeasible_status_from_one_solve(self, monkeypatch):
        core = solvers._scipy_extension("scipy.optimize._highspy._core")
        calls = []

        class Counted(core._Highs):
            def run(self):
                calls.append(self)
                return super().run()

        monkeypatch.setattr(core, "_Highs", Counted)
        # a new thread-local, so this thread's instance is built from Counted
        monkeypatch.setattr(solvers, "_THREAD", threading.local())
        res = solve_lp(LinearProgram(c=np.array([0.0]),
                                     a_ub=np.array([[-1.0], [1.0]]),
                                     b_ub=np.array([-1.0, 0.0])))
        assert res.status == "infeasible"
        assert len(calls) == 1

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

    @staticmethod
    def _mixed_battery():
        """(LP, highs_tol) pairs: the duality battery's bounded LPs with
        infeasible and unbounded ones mixed in, and LPs infeasible by 5e-9
        (optimal at HiGHS's default tolerances, infeasible at 1e-10), with
        highs_tol None and 1e-10 in turn on each kind."""
        rng = np.random.default_rng(43)
        battery = []
        for i in range(48):
            n, m = int(rng.integers(2, 12)), int(rng.integers(2, 10))
            A, c = rng.normal(size=(m, n)), rng.normal(size=n)
            x0 = rng.uniform(0, 1, size=n)
            b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
            kind = i % 4
            if kind == 0:
                box = np.vstack([np.eye(n), -np.eye(n)])
                lp = LinearProgram(c=c, sense="max", a_ub=np.vstack([A, box]),
                                   b_ub=np.concatenate([b, np.full(2 * n, 10.0)]),
                                   a_eq=A[:1], b_eq=A[:1] @ x0)
            elif kind == 3:  # free variables, one cost direction unrestricted
                lp = LinearProgram(c=c, sense="max", a_eq=A[:1], b_eq=np.ones(1))
            else:  # A[0] x <= b[0] and A[0] x >= b[0] + gap
                gap = 1.0 if kind == 1 else 5e-9
                lp = LinearProgram(c=c, a_ub=np.vstack([A, -A[:1]]),
                                   b_ub=np.concatenate([b, -b[:1] - gap]),
                                   bounds=[(-10.0, 10.0)] * n)
            battery.append((lp, None if i // 4 % 2 == 0 else 1e-10))
        return battery

    @staticmethod
    def _bytes(res):
        arrays = (res.x, res.dual_ub, res.dual_eq)
        return (res.status, res.message, None if res.value is None else res.value.hex(),
                tuple(None if a is None else a.tobytes() for a in arrays))

    def test_reused_instance_carries_no_state(self, monkeypatch):
        battery = self._mixed_battery()
        reused = [self._bytes(solve_lp(lp, highs_tol=tol)) for lp, tol in battery]
        assert {r[0] for r in reused} == {"optimal", "infeasible", "unbounded"}
        assert {r[0] for r in reused[2::4]} == {"optimal", "infeasible"}
        fresh = []
        for lp, tol in battery:
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_THREAD", threading.local())
                fresh.append(self._bytes(solve_lp(lp, highs_tol=tol)))
        assert reused == fresh
        # three threads, each running the battery in its own order
        orders = [np.arange(len(battery)), np.arange(len(battery))[::-1],
                  np.random.default_rng(0).permutation(len(battery))]
        start = threading.Barrier(len(orders), timeout=60)

        def run(order):
            start.wait()
            return [self._bytes(solve_lp(*battery[i])) for i in order]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads interleave between HiGHS calls
        try:
            with ThreadPoolExecutor(len(orders)) as pool:
                futures = [pool.submit(run, order) for order in orders]
                runs = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        for order, got in zip(orders, runs):
            assert got == [reused[i] for i in order]

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

    @pytest.mark.parametrize("highs_tol", [None, 1e-10])
    def test_bit_equal_to_scipy_highs(self, highs_tol):
        # the reference is scipy's own HiGHS wrapper on the same dense LP
        code = {0: "optimal", 1: "error", 2: "infeasible", 3: "unbounded", 4: "error"}
        options = {} if highs_tol is None else {"primal_feasibility_tolerance": highs_tol,
                                                "dual_feasibility_tolerance": highs_tol}
        rng = np.random.default_rng(23 if highs_tol is None else 24)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 10))
            m_ub, m_eq = int(rng.integers(0, 8)), int(rng.integers(0, 4))
            a_ub = rng.normal(size=(m_ub, n)) * (rng.random((m_ub, n)) < 0.7)
            a_eq = rng.normal(size=(m_eq, n)) * (rng.random((m_eq, n)) < 0.7)
            if rng.random() < 0.3:
                a_ub = np.round(a_ub)
            b_ub, b_eq = rng.normal(size=m_ub), rng.normal(size=m_eq)
            bounds = []
            for kind in rng.integers(0, 4, size=n):
                lo, hi = np.sort(3.0 * rng.normal(size=2))
                bounds.append([(None, None), (lo, None), (None, hi), (lo, hi)][kind])
            c = rng.normal(size=n)
            rows = dict(a_ub=a_ub if m_ub else None, b_ub=b_ub if m_ub else None,
                        a_eq=a_eq if m_eq else None, b_eq=b_eq if m_eq else None)
            ref = scipy_linprog(c, bounds=bounds, method="highs", options=options,
                                A_ub=rows["a_ub"], b_ub=rows["b_ub"],
                                A_eq=rows["a_eq"], b_eq=rows["b_eq"])
            res = solve_lp(LinearProgram(c, bounds=bounds, **rows), highs_tol=highs_tol)
            assert res.status == code[ref.status]
            seen.add(res.status)
            if res.status == "optimal":
                assert np.array_equal(res.x, ref.x) and res.value == ref.fun
                assert np.array_equal(res.dual_ub, ref.ineqlin.marginals)
                assert np.array_equal(res.dual_eq, ref.eqlin.marginals)
            else:
                assert res.x is None and res.value is None
        assert seen == {"optimal", "infeasible", "unbounded"}

    @pytest.mark.parametrize("rows, bounds", [
        (dict(a_ub=[[1.0, 1.0]], b_ub=[1.0, 2.0]), [(0, None)] * 2),
        (dict(a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0]), [(0, None)] * 2),
        (dict(a_ub=[[1.0, 1.0]], b_ub=[1.0]), [(0, None)] * 3),
        (dict(a_ub=[[1.0, np.nan]], b_ub=[1.0]), [(0, None)] * 2),
        (dict(a_eq=[[1.0, 1.0]], b_eq=[np.inf]), [(0, None)] * 2),
    ])
    def test_rejects_inconsistent_or_nonfinite_data(self, rows, bounds):
        # as scipy's linprog does, instead of handing HiGHS a malformed model
        with pytest.raises(ValueError):
            solve_lp(LinearProgram(np.array([1.0, 1.0]), bounds=bounds, **rows))


# Run in a fresh interpreter, since this one imported scipy.optimize while
# the tests were collected.  Each script runs one LP and one cone program.
_SOLVE_BOTH = """
import numpy as np
from epsarb import solvers
lp = solvers.solve_lp(solvers.LinearProgram(np.array([1.0, 2.0]), a_ub=np.array([[-1.0, -1.0]]),
                                            b_ub=np.array([-1.0]), bounds=[(0, None)] * 2))
assert lp.status == "optimal" and lp.value == 1.0, lp
prog = solvers.ConeProgram(np.array([1.0, 1.0]), np.vstack([np.zeros(2), -np.eye(2)]),
                           np.array([1.0, 0.0, 0.0]), 0, (3,))
assert solvers.solve_socp(prog).status == "optimal"
"""

_EPSARB_FIRST = _SOLVE_BOTH + """
import sys
core = solvers._scipy_extension("scipy.optimize._highspy._core")
lapack = solvers._scipy_extension("scipy.linalg._flapack")
assert not {"scipy", "scipy.optimize", "scipy.linalg"} & set(sys.modules)
import scipy.optimize, scipy.linalg.lapack
assert sys.modules["scipy.optimize._highspy._core"] is core
assert sys.modules["scipy.optimize._highspy._highs_wrapper"]._h is core
assert scipy.linalg.lapack._flapack is lapack
assert scipy.linalg.lapack.dgetrf is lapack.dgetrf
rng = np.random.default_rng(5)
for _ in range(20):
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    c, a, b = rng.normal(size=n), rng.normal(size=(m, n)), rng.normal(size=m)
    bounds = [(-2.0, 2.0)] * n
    ref = scipy.optimize.linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    res = solvers.solve_lp(solvers.LinearProgram(c, a_ub=a, b_ub=b, bounds=bounds))
    assert res.status == {0: "optimal", 2: "infeasible"}[ref.status]
    if ref.status == 0:
        assert np.array_equal(res.x, ref.x) and res.value == ref.fun
        assert np.array_equal(res.dual_ub, ref.ineqlin.marginals)
"""

_SCIPY_FIRST = """
import importlib.machinery, sys
import scipy.optimize, scipy.linalg.lapack

def no_second_load(*args):
    raise AssertionError("extension file loaded again")

importlib.machinery.ExtensionFileLoader = no_second_load
from epsarb import solvers
for name in ("scipy.optimize._highspy._core", "scipy.linalg._flapack"):
    assert solvers._scipy_extension(name) is sys.modules[name]
""" + _SOLVE_BOTH


class TestScipyExtensions:
    def test_epsarb_first_then_scipy_reuses_the_modules(self):
        run_fresh(_EPSARB_FIRST)

    def test_scipy_first_then_epsarb_reuses_the_modules(self):
        run_fresh(_SCIPY_FIRST)

    def test_missing_file_names_its_path(self):
        with pytest.raises(ImportError, match="_no_such_module"):
            solvers._scipy_extension("scipy.linalg._no_such_module")


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

    def test_marginals_without_mass_raise(self):
        # the sums 1e-13 and 0 pass the sum test, but the target carries no
        # mass: both kernels raise one validation error
        cost, src, tgt = np.ones((2, 2)), [1e-13, 0.0], [0.0, 0.0]
        for make in (lambda: bottleneck_transport(TransportInstance(cost, src, tgt)),
                     lambda: bottleneck_transport(TransportInstance(cost, tgt, src)),
                     lambda: log_transport(cost, src, tgt),
                     lambda: log_transport(cost, tgt, src)):
            with pytest.raises(ValueError, match="^marginals carry no mass$"):
                make()

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


def _weights(k: int):
    """k integer weights in 0..3, at least one positive."""
    return st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)


def _masses(k: int):
    """k integer weights, normalized: masses such as 1/3 or 2/7 carry float
    noise and zero masses stay exactly zero."""
    return _weights(k).map(lambda w: np.array(w, dtype=float) / sum(w))


_COSTS = st.integers(0, 3).map(float) | st.floats(0.0, 10.0, allow_subnormal=False)


@st.composite
def _instances(draw, cell=_COSTS):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
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


def lp_transport_value(cost: np.ndarray, src: np.ndarray, tgt: np.ndarray) -> float:
    """Reference min-cost transport value: one HiGHS LP on the marginal rows."""
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    res = solve_lp(LinearProgram(cost.ravel(), a_eq=a_eq, b_eq=np.concatenate([src, tgt]),
                                 bounds=[(0, None)] * (m * n)))
    assert res.status == "optimal"
    return res.value


def _check_log_plan(res, v, src, tgt):
    """Exact marginals, and the value is the log-exp cost of the plan's support."""
    assert np.min(res.plan) >= 0.0
    assert np.max(np.abs(res.plan.sum(axis=1) - src)) <= 1e-12
    assert np.max(np.abs(res.plan.sum(axis=0) - tgt)) <= 1e-12
    keep = res.plan > 0.0
    value = float(logsumexp(v[keep], b=res.plan[keep]))
    assert abs(value - res.value) <= 1e-12 * (1 + abs(res.value))


@st.composite
def _extreme_instances(draw):
    """Log-weights spanning at least 1e3, with integer mass weights."""
    m, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    cell = st.sampled_from([-1000.0, -500.0, 0.0, 1.0, 2.0, 500.0, 1000.0]) | st.floats(-1e3, 1e3)
    v = np.array(draw(st.lists(cell, min_size=m * n, max_size=m * n))).reshape(m, n)
    assume(v.max() - v.min() >= 1e3)
    return v, draw(_weights(m)), draw(_weights(n))


# Costs on a grid of 1/4 from 0 to 10: a cycle either ties exactly or
# differs far above HiGHS's 1e-7 tolerances, so the LP's vertex is optimal.
_GRID = st.integers(0, 40).map(lambda k: k / 4.0)


@pytest.fixture
def exact_tests(monkeypatch) -> list:
    """The argument lists of every call to the log-domain test
    ``solvers._improves``, which still decides each call."""
    calls = []
    exact = solvers._improves
    monkeypatch.setattr(solvers, "_improves", lambda *a: calls.append(a) or exact(*a))
    return calls


class TestLogTransportProperties:
    @settings(max_examples=300, deadline=None)
    @given(_instances(_GRID))
    def test_matches_highs_lp(self, inst):
        # The instance's costs serve as log-weights.
        res = log_transport(inst.cost, inst.source, inst.target)
        ref = math.log(lp_transport_value(np.exp(inst.cost), inst.source, inst.target))
        assert abs(res.value - ref) <= 1e-12 * (1 + abs(ref))
        _check_log_plan(res, inst.cost, inst.source, inst.target)

    @settings(max_examples=300, deadline=None)
    @given(_instances(_GRID))
    def test_discrete_ot_matches_highs_lp(self, inst):
        res = discrete_ot(inst)
        ref = lp_transport_value(inst.cost, inst.source, inst.target)
        assert abs(res.value - ref) <= 1e-12 * (1 + abs(ref))
        assert np.max(np.abs(res.plan.sum(axis=1) - inst.source)) <= 1e-12
        assert np.max(np.abs(res.plan.sum(axis=0) - inst.target)) <= 1e-12
        assert abs(float(np.sum(res.plan * inst.cost)) - res.value) <= 1e-12 * (1 + abs(ref))

    @settings(max_examples=300, deadline=None)
    @given(_extreme_instances())
    def test_extreme_spreads_match_vertex_enumeration(self, case):
        v, wx, wy = case
        src, tgt = np.array(wx) / sum(wx), np.array(wy) / sum(wy)
        res = log_transport(v, src, tgt)
        ref = brute_force_log_transport(v, wx, wy)
        assert abs(res.value - ref) <= 1e-12 * (1 + abs(ref))
        _check_log_plan(res, v, src, tgt)

    def test_equal_large_weights_cancel_in_pricing(self, exact_tests):
        # The improving cycle holds a log-weight of 1000 on each side;
        # summed without cancelling, the two hide its gain.  Its gain is far
        # below the potentials' band and its largest terms tie, so the cell
        # reaches the log-domain test itself.
        v = np.array([[2.0, 1.0, 0.0], [2.0, 1000.0, 2.0], [1.0, 1000.0, 2.0]])
        res = log_transport(v, np.array([0.25, 0.5, 0.25]), np.array([0.5, 0.25, 0.25]))
        ref = brute_force_log_transport(v, [1, 2, 1], [2, 1, 1])
        assert res.value == pytest.approx(ref, abs=1e-12)
        assert exact_tests

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2), (2,)])
    def test_weights_must_match_the_marginals(self, shape):
        # a (2, 3) block used to drop a column, (1, 2) to raise IndexError
        # and 1-D weights TypeError
        with pytest.raises(ValueError, match=r"^cost shape \(\d, \d\) does not match "
                                             r"marginals \(2, 2\)$"):
            log_transport(np.zeros(shape), np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_no_mass_and_minus_infinity_weights(self):
        with pytest.raises(ValueError, match="marginals carry no mass"):
            log_transport(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        v = np.array([[-math.inf, 0.0], [0.0, -math.inf]])
        res = log_transport(v, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert res.value == -math.inf
        assert res.plan == pytest.approx(np.diag([0.5, 0.5]))


def _flow_bytes(flow: dict) -> list:
    return [(cell, x.hex()) for cell, x in flow.items()]


@st.composite
def _simplex_cases(draw):
    """(v, supply, demand) of positive masses, up to 9 x 9: log-weights on a
    1/4 grid, spread over +-1000, drawn from a few tied values, with -inf
    cells, or lam = 200 times a grid; zero masses are cut as
    ``_log_transport`` cuts them."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell = draw(st.sampled_from([
        _GRID,
        st.floats(-1e3, 1e3),
        st.sampled_from([0.0, 1.0, 2.0, 1000.0, -1000.0]),
        st.just(-math.inf) | st.sampled_from([0.0, 0.5]) | st.floats(-5.0, 5.0),
        _GRID.map(lambda c: 200.0 * c)]))
    v = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    src, tgt = draw(_masses(m)).tolist(), draw(_masses(n)).tolist()
    rows = [i for i in range(m) if src[i] > 0]
    cols = [j for j in range(n) if tgt[j] > 0]
    return ([[v[i][j] for j in cols] for i in rows], [src[i] for i in rows],
            [tgt[j] for j in cols])


class TestPotentialPricing:
    # The kernel prices cells from dual potentials and hands the cells its
    # band cannot decide to the log-domain test; its pivots, and so its
    # flows, are those of the kernel that priced every cycle in the log
    # domain (tests/_helpers.log_simplex_reference), to the bit.
    @settings(max_examples=500, deadline=None)
    @given(_simplex_cases())
    def test_flows_equal_the_log_domain_kernel(self, case):
        assert (_flow_bytes(solvers._log_simplex(*case))
                == _flow_bytes(log_simplex_reference(*case)))

    def test_a_weight_past_exp_overflow_does_not_raise(self):
        # the nonbasic cell (0, 1) sits 800 above the basis's top: its weight
        # overflows exp, and the log-domain test prices it
        v = [[0.0, 800.0], [0.0, 0.0]]
        flow = solvers._log_simplex(v, [0.5, 0.5], [0.5, 0.5])
        assert _flow_bytes(flow) == _flow_bytes(log_simplex_reference(v, [0.5, 0.5], [0.5, 0.5]))
        res = log_transport(np.array(v), np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert res.value == pytest.approx(brute_force_log_transport(np.array(v), [1, 1], [1, 1]),
                                          abs=1e-12)

    @pytest.mark.parametrize("v, enters", [
        ([[math.log(2.0), 0.0], [0.0, -math.inf]], False),
        ([[0.0, math.log(2.0) - 2.5e-13], [-math.inf, 0.0]], True)])
    def test_largest_terms_near_the_other_sum_reach_the_log_domain_test(
            self, v, enters, exact_tests):
        # cell (0, 1) closes the cycle + (0, 1), (1, 0), - (0, 0), (1, 1).
        # First 1 + 1 against 2 + 0: a tie, kept.  Then (2 - 5e-13) + 0
        # against 1 + 1: a gain above 1e-13, taken.  Both sit inside the
        # potentials' band, and one side's largest term is within 1e-9 of
        # log 2 above the other's, so the largest terms settle neither.
        case = (v, [0.5, 0.5], [0.5, 0.5])
        flow = solvers._log_simplex(*case)
        assert _flow_bytes(flow) == _flow_bytes(log_simplex_reference(*case))
        assert ((0, 1) in flow) == enters and exact_tests

    def test_equal_weights_far_below_the_top_reach_the_log_domain_test(self, exact_tests):
        # every weight but the top cell's sits 1000 or more below it and
        # underflows to 0, so every reduced cost is 0, inside the band, and
        # the tied cycles go to the log-domain test
        v = [[0.0, -1000.0, -1000.0], [-1000.0, -1000.0, -1001.0]]
        case = (v, [0.5, 0.5], [0.25, 0.25, 0.5])
        assert _flow_bytes(solvers._log_simplex(*case)) == _flow_bytes(
            log_simplex_reference(*case))
        assert exact_tests


def _result_bytes(res) -> tuple:
    return np.float64(res.value).tobytes(), res.plan.shape, res.plan.tobytes()


@st.composite
def _wide_cases(draw, cell):
    """(costs, source, target): up to 8 x 8 cells, with zero masses among them."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cost = np.array(draw(st.lists(cell, min_size=m * n, max_size=m * n))).reshape(m, n)
    return cost, draw(_masses(m)), draw(_masses(n))


class TestListEntryPoints:
    # The public kernels run on lists and cut zero-mass rows and columns
    # only when there are some; their results are those of the array
    # computation they replaced, byte for byte.
    @settings(max_examples=300, deadline=None)
    @given(_wide_cases(_COSTS))
    def test_bottleneck_equals_the_array_computation(self, case):
        inst = TransportInstance(*case)
        assert (_result_bytes(bottleneck_transport(inst))
                == _result_bytes(bottleneck_transport_arrays(inst)))

    @settings(max_examples=300, deadline=None)
    @given(_wide_cases(_GRID | st.floats(-50.0, 50.0) | st.just(-math.inf)))
    def test_log_transport_equals_the_array_computation(self, case):
        assert _result_bytes(log_transport(*case)) == _result_bytes(log_transport_arrays(*case))


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
    for a in prog.power:
        u, v, w = z[start:start + 3]
        if min(u, v) < -tol or abs(w) > (max(u, 0.0) / a) ** a * (max(v, 0.0) / (1 - a)) ** (1 - a) + tol:
            return False
        start += 3
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
        assert weak_duality_bound(prog, res.y, res.z, box) <= ref.value + 1e-9 * (1.0 + abs(ref.value))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 3), st.data(),
           st.sampled_from(["plain", "duplicate", "collinear", "vertex", "edge", "inside"]))
    def test_min_norm_point_matches_nnls(self, k, d, data, kind):
        pts = data.draw(_matrix(k, d)) + data.draw(_matrix(1, d))
        if kind == "duplicate":
            pts[-1] = pts[0]
        elif kind == "collinear":
            pts[-1] = pts[0] + data.draw(st.floats(-2.0, 2.0)) * (pts[1] - pts[0])
        elif kind == "vertex":
            pts[0] = 0.0
        elif kind == "edge":
            # the origin between the first two points
            t = data.draw(st.floats(0.1, 0.9))
            pts[1] = -pts[0] * t / (1.0 - t)
        elif kind == "inside":
            pts = pts - pts.mean(axis=0)
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
        ref_point = pts.T @ (a / a.sum())
        ref = float(np.linalg.norm(ref_point))
        assert res.status in ("optimal", "unsolved")
        assert abs(res.value - ref) <= 1e-7
        # Wolfe's active-set method: the point and its simplex weights
        z, w = solvers.min_norm_point(pts)
        scale = 1.0 + float(np.max(np.abs(pts)))
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-14
        assert np.linalg.norm(pts.T @ w - z) <= 1e-13 * scale
        assert np.linalg.norm(z - ref_point) <= 1e-10 * scale
        assert abs(float(np.linalg.norm(z)) - ref) <= 1e-10 * scale
        assert float(np.min(pts @ z)) >= float(z @ z) - 1e-12 * scale ** 2

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

    def test_iterations_count_the_steps_of_a_stalled_solve(self, monkeypatch):
        # min x0 over the unit disc cut by x0 >= 1 - 1e-7: a sliver the solver
        # cannot resolve to 1e-13, so rounding stalls it; one factorization
        # starts the solve and each step factors once more.
        lapack = solvers._scipy_extension("scipy.linalg._flapack")
        factorizations = []
        dgetrf = lapack.dgetrf

        def counted(*args, **kwargs):
            factorizations.append(args)
            return dgetrf(*args, **kwargs)

        monkeypatch.setattr(lapack, "dgetrf", counted)
        G = np.zeros((4, 2))
        G[0, 0] = -1.0
        G[2:] = -np.eye(2)
        prog = ConeProgram(np.array([1.0, 0.0]), G, np.array([-1.0 + 1e-7, 1.0, 0.0, 0.0]),
                           1, (3,))
        res = solve_socp(prog)
        assert res.status == "unsolved"
        assert max(res.pres, res.dres, abs(res.gap) / (1.0 + abs(res.value))) <= 1e-8
        assert res.iterations == len(factorizations) - 1

    @pytest.mark.parametrize("a", [0.1, 1 / 3, 0.5, 2 / 3, 0.9])
    def test_power_cone_reaches_the_weighted_geometric_mean(self, a):
        # max w s.t. (u, v, w) in K_a and u + v = 1: u = a, v = 1 - a
        prog = ConeProgram(np.array([0.0, 0.0, -1.0]), -np.eye(3), np.zeros(3), 0, (),
                           np.array([[1.0, 1.0, 0.0]]), np.array([1.0]), (a,))
        res = solve_socp(prog)
        want = a ** a * (1 - a) ** (1 - a)
        assert res.status in ("optimal", "unsolved")
        assert -res.value == pytest.approx(want, abs=1e-9)
        assert res.x == pytest.approx([a, 1 - a, want], abs=1e-7)
        lower = weak_duality_bound(prog, res.y, res.z, np.full(3, 2.0))
        assert -want - 1e-9 <= lower <= -want + 1e-12

    def test_orthant_second_order_and_power_blocks_together(self):
        # max w + y / 4 s.t. u + v + t = 3, u >= 1/2, (u, v, w) in K_1/3 and
        # |(y, 1)|_2 <= t.  w <= g (u + v) with g = (1/3)^(1/3) (2/3)^(2/3)
        # at u = (u + v) / 3, and y = sqrt(t^2 - 1), so t/sqrt(t^2 - 1) = 4 g.
        g = (1 / 3) ** (1 / 3) * (2 / 3) ** (2 / 3)
        t = 4 * g / math.sqrt(16 * g * g - 1)
        budget = 3.0 - t
        want = np.array([budget / 3, 2 * budget / 3, g * budget, t, math.sqrt(t * t - 1)])
        # x = (u, v, w, t, y); rows: orthant -u <= -1/2, then (t, y, 1), then (u, v, w)
        G = np.zeros((7, 5))
        G[0, 0] = -1.0
        G[1, 3], G[2, 4] = -1.0, -1.0
        G[4:, :3] = -np.eye(3)
        h = np.array([-0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        prog = ConeProgram(np.array([0.0, 0.0, -1.0, 0.0, -0.25]), G, h, 1, (3,),
                           np.array([[1.0, 1.0, 0.0, 1.0, 0.0]]), np.array([3.0]), (1 / 3,))
        res = solve_socp(prog)
        assert res.status in ("optimal", "unsolved")
        assert res.x == pytest.approx(want, abs=1e-7)
        assert -res.value == pytest.approx(want[2] + want[4] / 4, abs=1e-9)
        assert _dual_cone_member(prog, res.z, 1e-9)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("gap", [0.01, 1.0])
    def test_power_infeasibility_certificate_recomputes(self, a, gap):
        # (u, v, w) in K_a with u + v <= 1 reaches w = a^a (1 - a)^(1 - a) < 1 at most
        G = np.vstack([[1.0, 1.0, 0.0], [0.0, 0.0, -1.0], -np.eye(3)])
        prog = ConeProgram(np.zeros(3), G, np.array([1.0, -(1.0 + gap), 0.0, 0.0, 0.0]), 2,
                           (), None, None, (a,))
        res = solve_socp(prog)
        assert res.status == "infeasible"
        value = float(prog.h @ res.z)
        assert value < 0.0
        assert np.linalg.norm(prog.G.T @ res.z) <= 1e-8 * -value
        assert _dual_cone_member(prog, res.z, 1e-12)
        assert prog.certifies_infeasible(res.y, res.z, np.full(3, 10.0))

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_power_unboundedness_certificate_recomputes(self, a):
        # min -w over (u, v, w) in K_a with u = v: w = u is a ray
        prog = ConeProgram(np.array([0.0, 0.0, -1.0]), -np.eye(3), np.zeros(3), 0, (),
                           np.array([[1.0, -1.0, 0.0]]), np.zeros(1), (a,))
        res = solve_socp(prog)
        assert res.status == "unbounded"
        assert abs(float(prog.c @ res.x) + 1.0) <= 1e-12
        assert np.linalg.norm(prog.G @ res.x + res.s) <= 1e-8
        assert np.linalg.norm(prog.A @ res.x) <= 1e-8
        u, v, w = res.s
        assert min(u, v) >= 0.0 and abs(w) <= u ** a * v ** (1 - a) + 1e-8
