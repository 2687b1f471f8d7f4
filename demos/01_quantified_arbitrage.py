#!/usr/bin/env python3
"""Walkthrough: measuring the amount of arbitrage in a two-asset market.

The market has S0 = (0,0) and S1 = (eps, 0) or (eps, 1): the first asset
drifts by eps surely, the second is a free bet on one state.  No single
strategy beats the norm-proportional cost at level eps, yet scaling
(k, 1) / |(k, 1)| pushes the shortfall to zero — the classic gap between
strict arbitrage and its sequential closure.
"""

import numpy as np

import epsarb as ea

EPS = 1.0
market = ea.MarketModel.from_nodes(1, 2, [
    {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0, 0.0]},
    {"id": "w1", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [EPS, 0.0]},
    {"id": "w2", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [EPS, 1.0]},
])
norms = ea.NormPair(2.0)

print("== the sliding sequence (k, 1): shortfall vanishes but never closes ==")
for k in (1, 5, 50, 500):
    H = ea.Strategy.from_dict(market, {"r": [k, 1.0]})
    slack = ea.gain(market, H) - EPS * ea.strategy_cost(market, H, norms)
    print(f"  k={k:4d}  worst slack {slack.min(): .6f}   best slack {slack.max(): .4f}")

print("\n== detection at the boundary level and below ==")
for eps in (EPS, 0.5 * EPS):
    rep = ea.detect_strict_arbitrage(market, eps, norms)
    line = f"  level {eps:.2f}: {rep.status}"
    if rep.found:
        line += (f", margin per unit norm {rep.maximin_margin:.4f},"
                 f" holdings {np.round(rep.certificate.values[0], 6)}")
    print(line)

print("\n== the critical level: the largest node deviation, checked on both sides ==")
crit = ea.critical_value(market, norms)
print(f"  eps(P) {crit.epsilon:.8f} at node {market.ids[crit.argmax_node]}"
      f"   (agreed: {crit.agreed})")

print("\n== node geometry at the critical level ==")
st = ea.compute_node_structure(market, EPS, norms)[0]
print(f"  extremal direction  {np.round(st.hbar, 8)}")
print(f"  admissible hyperplane basis\n{np.round(st.perp_basis.T, 8)}")
dec = ea.canonical_decompose(market, EPS, norms,
                             ea.Strategy.from_dict(market, {"r": [2.0, 3.0]}))
print(f"  (2,3) split: a={dec.a[0]:.4f}, orthogonal {np.round(dec.g[0], 6)}, "
      f"null {np.round(dec.g_tilde[0], 6)}")

print("\n== the non-asymptotic check pinpoints the orthogonal free bet ==")
nap = ea.check_na_prime(market, EPS, norms)
print(f"  holds: {nap.holds}; witness directions "
      f"{[np.round(w / np.linalg.norm(w), 6) for w in nap.witnesses.values()]}")
