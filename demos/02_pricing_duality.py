#!/usr/bin/env python3
"""Walkthrough: pricing under quantified arbitrage.

Three markets show the pricing pipeline: approximate martingale measures,
super-replication with its duality gap, the costless orthogonal add-on at
the critical level (read, with the whole hedge, from the dual of the price
program), and half-open fair-price intervals.
"""

import numpy as np

import epsarb as ea

norms = ea.NormPair(2.0)

print("== symmetric asset, claim = terminal price, level 0.5 ==")
sym = ea.MarketModel.from_nodes(1, 1, [
    {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0]},
    {"id": "u", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [1.0]},
    {"id": "d", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [-1.0]},
])
sp = ea.superhedge_price(sym, 0.5, norms, ea.Payoff(np.array([1.0, -1.0])))
print(f"  price {sp.price:.6f} = capital {sp.certificate.capital:.6f} with "
      f"holdings {sp.certificate.strategy.values[0]}, gap {sp.gap:.2e}")

print("\n== at the critical level the costless direction is needed ==")
kbar = ea.MarketModel.from_nodes(1, 2, [
    {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0, 0.0]},
    {"id": "u", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [1.0, 1.0]},
    {"id": "d", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [1.0, -1.0]},
])
sp = ea.superhedge_price(kbar, 1.0, norms, ea.Payoff(np.array([1.0, 0.0])))
print(f"  mode {sp.mode} (the hedge is the price program's dual): "
      f"price {sp.price:.6f}, capital {sp.primal_value:.6f}")
for v, g in sp.certificate.orthogonal.items():
    print(f"  orthogonal holdings at node {kbar.ids[v]}: {np.round(g, 6)} "
          f"(costed holdings there are zero)")

print("\n== measures, bounds, and the half-open fair range ==")
prange = ea.MarketModel.from_nodes(1, 1, [
    {"id": "r", "time": 0, "parent": None, "cond_prob": 1.0, "prices": [0.0]},
    {"id": "w1", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [0.5]},
    {"id": "w2", "time": 1, "parent": "r", "cond_prob": 0.5, "prices": [1.5]},
])
psi = ea.Payoff(np.array([0.0, 1.0]))
emm = ea.find_eps_martingale_measure(prange, 1.0, norms)
print(f"  one admissible measure: {np.round(emm.measure.weights, 6)} "
      f"(deviation {emm.deviation:.4f})")
up = ea.robust_price_bound(prange, 1.0, norms, psi, "sup")
lo = ea.robust_price_bound(prange, 1.0, norms, psi, "inf")
print(f"  sup {up.value:.6f} attained={up.attained}; "
      f"inf {lo.value:.6f} attained={lo.attained}")
fr = ea.fair_price_range(prange, 1.0, norms, psi)
lbr = "(" if fr.lower_open else "["
rbr = ")" if fr.upper_open else "]"
print(f"  fair prices: {lbr}{fr.lower:.4f}, {fr.upper:.4f}{rbr}")

print("\n== weak duality in action ==")
print(f"  E_Q[claim] = {ea.expectation(emm.measure, psi):.6f} <= "
      f"superhedge capital {ea.superhedge_price(prange, 1.0, norms, psi).certificate.capital:.6f}")
