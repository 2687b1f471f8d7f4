"""Quantified arbitrage on finite event trees.

Core surfaces:

* :mod:`epsarb.market` — event-tree markets, strategies, measures, Doob splits;
* :mod:`epsarb.solvers` — LP / cone / discrete-transport kernel;
* :mod:`epsarb.arbitrage` — strict arbitrage detection, critical level, node geometry;
* :mod:`epsarb.pricing` — approximate martingale measures, duality, price ranges;
* :mod:`epsarb.transport` — bicausal bottleneck distances and empirical estimation;
* :mod:`epsarb.cli` — the ``epsarb`` command.
"""

from .market import (DoobDecomposition, MarketModel, MeasureWeights, NormPair,
                     PathLaw, Payoff, Strategy, ValidationReport,
                     conditional_mean_increments, doob_decomposition, gain,
                     is_eps_martingale, strategy_cost, validate_market)
from .solvers import (LinearProgram, LPResult, TransportInstance, TransportResult,
                      bottleneck_transport, discrete_ot, solve_lp,
                      transport_feasible_below)
from .arbitrage import (ArbitrageReport, CanonicalDecomposition,
                        CriticalValueResult, NaPrimeReport, NodeStructure,
                        canonical_decompose, check_na_prime, compute_node_structure,
                        critical_value, detect_strict_arbitrage)
from .pricing import (BoundResult, EmmResult, HedgeCertificate,
                      NoMartingaleStructure, PriceInterval, SuperhedgeResult,
                      expectation, fair_price_range, find_eps_martingale_measure,
                      robust_price_bound, superhedge_price)
from .transport import (BicausalCoupling, DistanceResult, QuantizerConfig,
                        StabilityReport, adapted_empirical, aw_inf, aw_inf_delta,
                        bicausal_rows, elog_divergence, global_bicausal_bottleneck,
                        global_bicausal_logexp, knothe_rosenblatt,
                        laplace_smoothed_esssup, path_cost_matrix,
                        pushforward_measure, sample_paths, stability_report, w_inf)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
