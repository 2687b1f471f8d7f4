"""Quantified arbitrage on finite event trees.

Core surfaces:

* :mod:`epsarb.market` — event-tree markets, strategies, measures, Doob splits;
* :mod:`epsarb.solvers` — LP / cone / discrete-transport kernel;
* :mod:`epsarb.arbitrage` — strict arbitrage detection, critical level, node geometry;
* :mod:`epsarb.pricing` — approximate martingale measures, duality, price ranges;
* :mod:`epsarb.transport` — bicausal bottleneck distances and empirical estimation;
* :mod:`epsarb.cli` — the ``epsarb`` command.

``import epsarb`` loads the two base layers, ``market`` and ``solvers``
(and numpy; scipy loads on the first solve).  Every other public name, and
the submodules ``programs``, ``arbitrage``, ``pricing``, ``transport``,
``io``, ``cli`` and ``testing``, loads on first use through the module
``__getattr__`` (PEP 562): ``epsarb.critical_value`` imports ``arbitrage``
(and ``programs``) then, and ``epsarb.X is epsarb.<layer>.X``.  A CLI
process therefore compiles only the layers its command runs: ``io`` and
the base layers, plus ``arbitrage`` for the four arbitrage commands,
``pricing`` for the four pricing ones (both with ``programs``),
``transport`` alone for the six distance commands, and all of them for
``stability``.  Without a bytecode cache, on a shared 2-core machine,
epsarb's own modules then cost one process about 47 ms (base), 61 ms
(transport), 71 ms (arbitrage or pricing) and 101 ms (stability), against
about 110 ms for every command when all six loaded up front; the
interpreter and numpy add about 150 ms (README, "Install and test").
"""

from .market import (DoobDecomposition, MarketModel, MeasureWeights, NoMartingaleStructure,
                     NormPair, PathLaw, Payoff, Strategy, ValidationReport,
                     conditional_mean_increments, doob_decomposition, gain,
                     is_eps_martingale, strategy_cost, validate_market)
from .solvers import (LinearProgram, LPResult, TransportInstance, TransportResult,
                      bottleneck_transport, discrete_ot, solve_lp,
                      transport_feasible_below)

# Name -> the submodule that defines it, loaded on first use; a submodule
# maps to itself.
_LAZY = {name: module for module, names in {
    "programs": "programs",
    "arbitrage": "arbitrage ArbitrageReport CanonicalDecomposition CriticalValueResult "
                 "NaPrimeReport NodeStructure canonical_decompose check_na_prime "
                 "compute_node_structure critical_value detect_strict_arbitrage",
    "pricing": "pricing BoundResult EmmResult HedgeCertificate PriceInterval "
               "SuperhedgeResult expectation fair_price_range find_eps_martingale_measure "
               "robust_price_bound superhedge_price",
    "transport": "transport BicausalCoupling DistanceResult QuantizerConfig StabilityReport "
                 "adapted_empirical aw_inf aw_inf_delta bicausal_rows elog_divergence "
                 "global_bicausal_bottleneck global_bicausal_logexp knothe_rosenblatt "
                 "laplace_smoothed_esssup path_cost_matrix pushforward_measure "
                 "sample_paths stability_report w_inf",
    "io": "io",
    "cli": "cli",
    "testing": "testing",
}.items() for name in names.split()}

# io, cli and testing are reachable as attributes but, as ever, not exported.
__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [name for name in _LAZY if name not in ("io", "cli", "testing")])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
