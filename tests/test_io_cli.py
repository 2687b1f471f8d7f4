"""File formats and the command-line front end.

Core claims:
    - market/payoff/measure JSON round-trips exactly and malformed input
      errors carry a pointer to the offending field
    - every subcommand emits canonical JSON with the documented exit codes
      (0 computed, 1 input error, 2 domain violated)
    - repeated runs are byte-identical
    - the default reports of the shipped calls match the committed golden copy,
      byte for byte except two known ones, and the q = 2 ones among them run
      no cutting-plane program
    - ``--include-t0 false`` with a distance that has no t = 0 term is an
      input error
    - the shipped example files reproduce their published values
    - the LP-free calls load no scipy module, and the solver calls load only
      the HiGHS core and scipy's LAPACK extension, no scipy package
    - ``import epsarb`` loads the market and solvers layers only, and a
      CLI call loads only the layers its command runs; the public names
      are unchanged and each is its layer's object
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import epsarb as ea
from epsarb import io as eio
from epsarb.cli import run

from _helpers import run_fresh

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "demos", "data")
with open(os.path.join(ROOT, "perfbench", "golden", "cli.json")) as _fh:
    GOLDEN = json.load(_fh)


def data(name: str) -> str:
    return os.path.join(DATA, name)


class TestFormats:
    def test_market_round_trip(self, tmp_path):
        model, p = eio.load_market(data("kbar_market.json"))
        out = tmp_path / "again.json"
        eio.save_market(model, str(out), p=p)
        again, p2 = eio.load_market(str(out))
        assert p2 == p
        assert again.ids == model.ids
        assert np.array_equal(again.prices, model.prices)
        assert np.array_equal(again.cond_prob, model.cond_prob)

    def test_missing_field_pointer(self):
        with pytest.raises(eio.FormatError) as err:
            eio.market_from_dict({"T": 1, "d": 1, "nodes": [{"id": "r", "time": 0}]})
        assert "$.nodes[0]" in err.value.pointer

    def test_unknown_parent_pointer(self):
        with pytest.raises(eio.FormatError) as err:
            eio.market_from_dict({"T": 1, "d": 1, "nodes": [
                {"id": "r", "time": 0, "parent": "ghost", "cond_prob": 1.0, "prices": [0.0]}]})
        assert err.value.pointer == "$.nodes[0].parent"

    @pytest.mark.parametrize("bad", [True, None, "0.5", [0.5]])
    def test_non_number_price_names_the_field(self, bad):
        with pytest.raises(eio.FormatError) as err:
            eio.market_from_dict({"T": 1, "d": 1, "nodes": [
                {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [bad]}]})
        assert err.value.pointer == "$.nodes[0].prices"

    def test_wrong_price_arity(self):
        with pytest.raises(eio.FormatError) as err:
            eio.market_from_dict({"T": 1, "d": 2, "nodes": [
                {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0]}]})
        assert err.value.pointer.endswith("prices")

    def test_payoff_and_measure_round_trip(self, tmp_path):
        model, _ = eio.load_market(data("price_range.json"))
        psi = eio.load_payoff(model, data("psi_price_range.json"))
        assert sorted(psi.values) == [0.0, 1.0]
        mpath = tmp_path / "measure.json"
        mpath.write_text(json.dumps({"weights": {"w1": 0.5, "w2": 0.5}}))
        q = eio.load_measure(model, str(mpath))
        assert q.weights == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("bad", [True, None, "0.5", [0.5]])
    def test_non_number_weight_names_the_leaf(self, bad):
        model, _ = eio.load_market(data("price_range.json"))
        with pytest.raises(eio.FormatError) as err:
            eio.measure_from_dict(model, {"weights": {"w1": bad, "w2": 0.5}})
        assert err.value.pointer == "$.weights.w1"


class TestCli:
    def _run(self, argv, capsys):
        code = run(argv)
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    def test_check_arbitrage_schema(self, capsys):
        code, payload = self._run(["check-arbitrage", data("nostrictarb.json"),
                                   "--eps", "0.5", "--p", "2"], capsys)
        assert code == 0
        assert payload["status"] == "strict_arbitrage"
        assert set(payload) >= {"status", "epsilon", "optimum", "certificate", "slacks"}
        assert payload["certificate"]["r"] == pytest.approx([1.0, 0.0], abs=1e-7)

    def test_critical_value_on_shipped_market(self, capsys):
        code, payload = self._run(["critical-value", data("kbar_market.json"), "--p", "2"],
                                  capsys)
        assert code == 0
        assert payload["epsilon_P"] == pytest.approx(1.0, abs=1e-5)
        assert payload["agreed"]

    def test_na_prime(self, capsys):
        code, payload = self._run(["na-prime", data("nostrictarb.json"),
                                   "--eps", "1.0", "--p", "2"], capsys)
        assert code == 0
        assert payload["holds"] is False
        (witness,) = payload["witness"].values()
        assert abs(witness[0]) < 1e-7

    def test_find_emm_infeasible_exits_2(self, capsys):
        code, payload = self._run(["find-emm", data("nsaem.json"),
                                   "--eps", "1.0", "--p", "2"], capsys)
        assert code == 2
        assert payload["status"] == "infeasible"

    def test_pricing_without_structure_exits_2(self, tmp_path, capsys):
        # pricing raises NoMartingaleStructure, which run() catches as
        # market's class without loading pricing itself
        payoff = tmp_path / "zero.json"
        payoff.write_text(json.dumps({"values": {"w1": 0.0, "w2": 0.0}}))
        code = run(["price-bound", data("nostrictarb.json"), "--eps", "1.0", "--p", "2",
                    "--payoff", str(payoff)])
        assert code == 2
        assert capsys.readouterr().err == ("domain violated: no eps-martingale structure at "
                                           "level 1.0 (rho upper bound 0.0)\n")

    def test_find_emm_feasible(self, capsys):
        code, payload = self._run(["find-emm", data("kbar_market.json"),
                                   "--eps", "1.0", "--p", "2"], capsys)
        assert code == 0
        assert payload["weights"]["w1"] == pytest.approx(0.5, abs=1e-8)
        assert payload["deviation"] == pytest.approx(1.0, abs=1e-8)

    def test_superhedge_and_price_bound(self, capsys):
        code, payload = self._run(["superhedge", data("price_range.json"),
                                   "--payoff", data("psi_price_range.json"),
                                   "--eps", "1.0", "--p", "2"], capsys)
        assert code == 0
        assert payload["price"] == pytest.approx(0.5, abs=1e-8)
        assert payload["gap"] <= 1e-6
        code, payload = self._run(["price-bound", data("price_range.json"),
                                   "--payoff", data("psi_price_range.json"),
                                   "--eps", "1.0", "--p", "2", "--direction", "inf"], capsys)
        assert code == 0
        assert payload["value"] == pytest.approx(0.0, abs=1e-6)
        assert payload["attained"] is False

    def test_fair_range_interval(self, capsys):
        code, payload = self._run(["fair-range", data("price_range.json"),
                                   "--payoff", data("psi_price_range.json"),
                                   "--eps", "1.0", "--p", "2"], capsys)
        assert code == 0
        iv = payload["interval"]
        assert iv["lo"] == pytest.approx(-1.0, abs=1e-6)
        assert iv["hi"] == pytest.approx(1.5, abs=1e-6)
        assert iv["lo_open"] and not iv["hi_open"]

    def test_transport_commands(self, capsys):
        code, payload = self._run(["aw-delta", data("p0.json"), data("peps.json"),
                                   "--q", "2"], capsys)
        assert code == 0 and payload["value"] == pytest.approx(2.0, abs=1e-10)
        code, payload = self._run(["aw", data("kr_p.json"), data("kr_pprime.json"),
                                   "--q", "2"], capsys)
        assert code == 0 and payload["value"] == pytest.approx(4.0, abs=1e-10)
        code, payload = self._run(["w-inf", data("p0.json"), data("peps.json"),
                                   "--q", "2", "--cost", "increments"], capsys)
        assert code == 0 and payload["value"] == pytest.approx(0.5, abs=1e-10)
        code, payload = self._run(["elog", data("kr_p.json"), data("kr_pprime.json"),
                                   "--q", "2", "--lambda", "200"], capsys)
        assert code == 0 and 3.95 <= payload["value"] <= 4.0
        code, payload = self._run(["kr", data("kr_p.json"), data("kr_pprime.json")], capsys)
        assert code == 0 and payload["esssup_cost"] == pytest.approx(5.0)

    def test_adapted_empirical_from_csv(self, tmp_path, capsys):
        rows = np.array([[0.6, 0.1]] * 8)
        path = tmp_path / "samples.csv"
        np.savetxt(path, rows, delimiter=",")
        code, payload = self._run(["adapted-empirical", str(path), "--T", "1"], capsys)
        assert code == 0
        assert payload["quantizer"]["cells_per_axis"] == 2
        prices = [nd["prices"][0] for nd in payload["law"]["nodes"]]
        assert sorted(prices) == pytest.approx([0.25, 0.75])

    @pytest.mark.parametrize("argv", [
        ["aw", "p0.json", "peps.json", "--include-t0", "false"],
        ["aw-delta", "p0.json", "peps.json", "--variant", "plain", "--include-t0", "false"],
        ["w-inf", "p0.json", "peps.json", "--cost", "levels", "--include-t0", "false"],
    ])
    def test_include_t0_false_needs_increments(self, argv, capsys):
        # the level distances have no t = 0 increment to drop: the flag
        # used to be ignored, and the report was the one without it
        assert run([data(a) if a.endswith(".json") else a for a in argv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: --include-t0 false needs --")

    def test_include_t0_false_drops_the_first_increment(self, capsys):
        laws = [data("p0.json"), data("peps.json")]
        code, full = self._run(["aw-delta", *laws, "--q", "2"], capsys)
        code_no_t0, no_t0 = self._run(["aw-delta", *laws, "--q", "2", "--include-t0",
                                       "false"], capsys)
        assert code == code_no_t0 == 0
        assert full["value"] == pytest.approx(2.0, abs=1e-10)
        assert no_t0["value"] < full["value"]
        code, payload = self._run(["w-inf", *laws, "--cost", "increments",
                                   "--include-t0", "false"], capsys)
        assert code == 0 and payload["value"] <= 0.5

    def test_stability_command(self, capsys):
        code, payload = self._run(["stability", data("p0.json"), data("peps.json"),
                                   "--eps", "0.1", "--p", "2"], capsys)
        assert code == 0
        assert payload["distance"] == pytest.approx(2.0, abs=1e-9)
        assert payload["critical_slack"] >= 1.0

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(["check-arbitrage", str(bad), "--eps", "1", "--p", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "input error at $" in err

    def test_field_error_names_the_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 1, "d": 1, "nodes": [
            {"id": "r", "time": 0, "parent": None, "cond_prob": "x", "prices": [0.0]}]}))
        code = run(["check-arbitrage", str(bad), "--eps", "1", "--p", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "cond_prob" in err

    @pytest.mark.parametrize("bad", [None, [2], True, "2"])
    def test_non_number_p_names_the_field(self, bad, tmp_path, capsys):
        with open(data("kbar_market.json")) as fh:
            market = json.load(fh)
        market["p"] = bad
        path = tmp_path / "bad_p.json"
        path.write_text(json.dumps(market))
        code = run(["check-arbitrage", str(path), "--eps", "1.0"])
        assert code == 1
        assert "input error at $.p:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [None, True, "0", [0.0]])
    def test_non_number_payoff_value_names_the_leaf(self, bad, tmp_path, capsys):
        path = tmp_path / "bad_payoff.json"
        path.write_text(json.dumps({"values": {"w1": bad, "w2": 0.0}}))
        code = run(["superhedge", data("price_range.json"), "--payoff", str(path),
                    "--eps", "1.0", "--p", "2"])
        assert code == 1
        assert "input error at $.values.w1:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["find-emm", "nsaem.json", "--eps", "-1", "--p", "2"],
        ["fair-range", "price_range.json", "--eps", "-0.5", "--p", "2",
         "--payoff", "psi_price_range.json"],
        ["find-emm", "kbar_market.json", "--eps", "nan"],
        ["price-bound", "price_range.json", "--eps", "inf", "--p", "2",
         "--payoff", "psi_price_range.json", "--direction", "sup"],
        ["superhedge", "price_range.json", "--eps", "nan", "--p", "2",
         "--payoff", "psi_price_range.json"],
        ["stability", "p0.json", "peps.json", "--eps", "nan", "--p", "2"],
        ["node-structure", "kbar_market.json", "--eps", "nan"],
        ["node-structure", "kbar_market.json", "--eps", "0"],
        ["find-emm", "kbar_market.json", "--eps", "1.5", "--eta", "-1"],
        ["find-emm", "kbar_market.json", "--eps", "1.5", "--eta", "0"],
        ["critical-value", "kbar_market.json", "--eta", "nan"],
    ])
    def test_bad_level_is_an_input_error(self, argv, capsys):
        # eps must be finite and >= 0 (> 0 for node structure), eta finite
        # and > 0: checked where the value enters, before any program runs
        argv = [data(a) if a.endswith(".json") else a for a in argv]
        assert run(argv) == 1
        err = capsys.readouterr().err
        name = "eta" if "--eta" in argv else "eps"
        assert f"error: {name} must be finite and " in err

    @pytest.mark.parametrize("lam", ["nan", "inf", "0"])
    def test_bad_lambda_is_an_input_error(self, lam, capsys):
        assert run(["elog", data("kr_p.json"), data("kr_pprime.json"), "--lambda", lam]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: lam must be finite and lam > 0" in out.err

    @pytest.mark.parametrize("q", ["nan", "0", "-1", "0.5"])
    def test_bad_state_norm_exponent_is_an_input_error(self, q, capsys):
        # q = 0 printed a ZeroDivisionError traceback
        assert run(["aw", data("kr_p.json"), data("kr_pprime.json"), "--q", q]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: q must lie in [1, inf], got " in out.err

    def test_usage_error_exits_1(self, capsys):
        assert run(["check-arbitrage", "--bogus"]) == 1

    def test_missing_norm_exponent_is_an_error(self, tmp_path, capsys):
        model, _ = eio.load_market(data("kbar_market.json"))
        stripped = tmp_path / "nop.json"
        eio.save_market(model, str(stripped))
        code = run(["check-arbitrage", str(stripped), "--eps", "1.0"])
        assert code == 1
        assert "norm exponent" in capsys.readouterr().err

    def test_byte_identical_reruns(self, capsys):
        argv = ["critical-value", data("kbar_market.json"), "--p", "2"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "epsarb.cli", "aw", data("kr_p.json"),
             data("kr_pprime.json"), "--q", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == pytest.approx(4.0)


def _report_mismatch(got, want, where="$"):
    """First difference between two reports: exact for structure, strings,
    booleans and nulls; numbers to 1e-6 relative (absolute below 1)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys differ"
        parts = [(got[k], want[k], f"{where}.{k}") for k in want]
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: lengths differ"
        parts = [(a, b, f"{where}[{k}]") for k, (a, b) in enumerate(zip(got, want))]
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{where}: {got!r} is not a number"
        ok = abs(got - want) <= 1e-6 * max(1.0, abs(want))
        return None if ok else f"{where}: {got!r}, golden {want!r}"
    else:
        ok = type(got) is type(want) and got == want
        return None if ok else f"{where}: {got!r}, golden {want!r}"
    for a, b, at in parts:
        diff = _report_mismatch(a, b, at)
        if diff:
            return diff
    return None


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_golden_copy(self, name, capsys, monkeypatch):
        want = GOLDEN[name]
        monkeypatch.chdir(ROOT)
        assert run(want["argv"]) == want["exit"]
        got = json.loads(capsys.readouterr().out)
        assert _report_mismatch(got, json.loads(want["stdout"])) is None

    # The two golden reports that the code prints with other bytes:
    # check-arbitrage's certificate holds 0.0 where the golden copy has
    # -0.0, and find-emm's rho_upper_bound is 0.0 against -7.5e-12.  Both
    # still match to 1e-6.
    NOT_BYTE_EQUAL = ("check-arbitrage", "find-emm")

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_prints_the_golden_bytes(self, name, capsys, monkeypatch):
        want = GOLDEN[name]
        monkeypatch.chdir(ROOT)
        assert run(want["argv"]) == want["exit"]
        out = capsys.readouterr().out
        if name in self.NOT_BYTE_EQUAL:
            assert out != want["stdout"]
            assert _report_mismatch(json.loads(out), json.loads(want["stdout"])) is None
        else:
            assert out == want["stdout"]

    @pytest.mark.parametrize("name", ["critical-value", "find-emm", "check-arbitrage", "na-prime"])
    def test_q2_calls_run_no_cutting_planes(self, name, capsys, monkeypatch):
        # At q = 2 the node geometry is exact (min-norm point and face) and
        # the interior decision never falls back; no cutting-plane code is
        # left to reach, and these calls still match the golden copy.
        want = GOLDEN[name]
        monkeypatch.chdir(ROOT)
        assert run(want["argv"]) == want["exit"]
        got = json.loads(capsys.readouterr().out)
        assert _report_mismatch(got, json.loads(want["stdout"])) is None


# Golden calls that solve no LP or cone program.
LP_FREE_CALLS = ("adapted-empirical", "aw-delta", "elog", "kr", "node-structure", "w-inf")
# Golden calls that solve LPs or cone programs.
SOLVER_CALLS = ("check-arbitrage", "critical-value", "fair-range", "find-emm", "na-prime",
                "stability", "superhedge")
# The two compiled scipy modules the solvers load, and the submodules HiGHS
# registers itself.
SOLVER_EXTENSIONS = {"scipy.linalg._flapack", "scipy.optimize._highspy._core",
                     "scipy.optimize._highspy._core.cb",
                     "scipy.optimize._highspy._core.simplex_constants"}

_IMPORT_PROBE = """
import contextlib, io, json, sys
import epsarb, epsarb.cli
codes = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = epsarb.cli.run(argv)
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _probe_imports(names):
    """The scipy modules that the golden calls ``names`` load when run in a
    fresh interpreter, after checking their exit codes."""
    calls = {name: GOLDEN[name]["argv"] for name in names}
    got = json.loads(run_fresh(_IMPORT_PROBE, json.dumps(calls), cwd=ROOT))
    assert got["codes"] == {name: GOLDEN[name]["exit"] for name in names}
    return set(got["scipy"])


class TestImportPath:
    def test_lp_free_calls_load_no_scipy(self):
        assert _probe_imports(LP_FREE_CALLS) == set()

    def test_solver_calls_load_only_two_extensions(self):
        # HiGHS and the LAPACK LU load from their files, so no scipy package
        # (scipy, scipy.optimize, scipy.linalg) is loaded.  No golden call
        # solves a cone program (every q = 2 node is a closed form), so the
        # LU is probed with find-emm at p = 3, whose binary node is one
        loaded = _probe_imports(SOLVER_CALLS)
        assert loaded <= SOLVER_EXTENSIONS, loaded - SOLVER_EXTENSIONS
        assert "scipy.optimize._highspy._core" in loaded
        assert "scipy.linalg._flapack" not in loaded
        argv = ["find-emm", "demos/data/nostrictarb.json", "--eps", "1.5", "--p", "3"]
        got = json.loads(run_fresh(_IMPORT_PROBE, json.dumps({"find-emm": argv}), cwd=ROOT))
        assert got["codes"] == {"find-emm": 0}
        cone = set(got["scipy"])
        assert "scipy.linalg._flapack" in cone and cone <= SOLVER_EXTENSIONS, cone


# The public API by defining layer (NoMartingaleStructure is defined in
# market and re-exported by pricing), and the submodules bound on the package.
PUBLIC_API = {
    "market": "DoobDecomposition MarketModel MeasureWeights NormPair PathLaw Payoff Strategy "
              "ValidationReport conditional_mean_increments doob_decomposition gain "
              "is_eps_martingale strategy_cost validate_market",
    "solvers": "LinearProgram LPResult TransportInstance TransportResult bottleneck_transport "
               "discrete_ot solve_lp transport_feasible_below",
    "arbitrage": "ArbitrageReport CanonicalDecomposition CriticalValueResult NaPrimeReport "
                 "NodeStructure canonical_decompose check_na_prime compute_node_structure "
                 "critical_value detect_strict_arbitrage",
    "pricing": "BoundResult EmmResult HedgeCertificate NoMartingaleStructure PriceInterval "
               "SuperhedgeResult expectation fair_price_range find_eps_martingale_measure "
               "robust_price_bound superhedge_price",
    "transport": "BicausalCoupling DistanceResult QuantizerConfig StabilityReport "
                 "adapted_empirical aw_inf aw_inf_delta bicausal_rows elog_divergence "
                 "global_bicausal_bottleneck global_bicausal_logexp knothe_rosenblatt "
                 "laplace_smoothed_esssup path_cost_matrix pushforward_measure sample_paths "
                 "stability_report w_inf",
}
SUBMODULES = ("market", "solvers", "programs", "arbitrage", "pricing", "transport")

_FOOTPRINT_PROBE = """
import contextlib, io, json, sys
import epsarb
argv = json.loads(sys.argv[1])
code = None
if argv:
    import epsarb.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = epsarb.cli.run(argv)
print(json.dumps({"code": code, "layers": sorted(
    m.split(".")[1] for m in sys.modules if m.startswith("epsarb."))}))
"""

_API_PROBE = """
import importlib, json, sys
from epsarb import *
import epsarb
api = json.loads(sys.argv[1])
wrong = [name for layer, names in api.items() for name in names.split()
         if globals()[name] is not getattr(importlib.import_module("epsarb." + layer), name)]
wrong += [name for name in json.loads(sys.argv[2])
          if globals()[name] is not sys.modules["epsarb." + name]]
print(json.dumps({"all": epsarb.__all__, "wrong": wrong}))
"""


def _layers_loaded(name=None) -> set:
    """The epsarb modules loaded by ``import epsarb`` and, when ``name`` is
    given, that golden CLI call, in a fresh interpreter."""
    argv = GOLDEN[name]["argv"] if name else []
    got = json.loads(run_fresh(_FOOTPRINT_PROBE, json.dumps(argv), cwd=ROOT))
    assert got["code"] == (GOLDEN[name]["exit"] if name else None)
    return set(got["layers"])


class TestLazyLayers:
    def test_import_loads_the_base_layers_only(self):
        assert _layers_loaded() == {"market", "solvers"}

    @pytest.mark.parametrize("name, layer, absent", [
        ("aw-delta", "transport", {"arbitrage", "programs", "pricing"}),
        ("critical-value", "arbitrage", {"pricing", "transport"}),
        ("find-emm", "pricing", {"arbitrage", "transport"})])
    def test_command_loads_only_its_layers(self, name, layer, absent):
        loaded = _layers_loaded(name)
        assert layer in loaded
        assert not loaded & absent, loaded & absent

    def test_public_names_are_unchanged_and_shared(self):
        got = json.loads(run_fresh(_API_PROBE, json.dumps(PUBLIC_API), json.dumps(SUBMODULES)))
        want = sorted([name for names in PUBLIC_API.values() for name in names.split()]
                      + list(SUBMODULES))
        assert got["all"] == want
        assert got["wrong"] == []
        assert ea.pricing.NoMartingaleStructure is ea.market.NoMartingaleStructure
        assert {"io", "cli", "testing"} <= set(dir(ea))
        with pytest.raises(AttributeError):
            ea.no_such_name


class TestShippedExamples:
    def test_reproduction_script_passes(self):
        script = os.path.join(DATA, "..", "reproduce_paper_values.py")
        proc = subprocess.run([sys.executable, script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
        assert proc.stdout.count("ok") >= 8
