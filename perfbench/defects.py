#!/usr/bin/env python3
"""Reproduce the elog_divergence defect that keeps lambda = 200 out of transport.

Usage, from the repository root:

    python3 perfbench/defects.py

For each transport pair of unit 0 (seed 0) it prints aw_inf, elog_divergence
at lambda = 200 and the log-exp cost of the aw-optimal coupling.  The last two
must not exceed aw_inf, and elog, a minimum over bicausal couplings, must not
exceed the cost of any one of them.  Exits 1 while some pair breaks that, 0
once none does: then elog at lambda = 200 can go back into the workload.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import epsarb as ea  # noqa: E402

import gen  # noqa: E402
from workloads import Transport  # noqa: E402

LAM = 200.0
Q = 2.0


def main() -> int:
    wl = Transport(ea, HERE.parent)
    g = gen.rng(0, wl.name, 0)
    broken = 0
    for T, bases, tag in wl.pairs:
        lawx, lawy = wl._pair(g, T, bases)
        aw = ea.aw_inf(lawx, lawy, Q)
        elog = ea.elog_divergence(lawx, lawy, Q, lam=LAM).value
        bound = min(aw.value, aw.coupling.log_exp_cost(Q, LAM))
        bad = elog > bound + 1e-9
        broken += bad
        print(f"{tag:6s} aw_inf {aw.value:.6f}  elog {elog:.6f}  "
              f"aw coupling's log-exp cost {bound:.6f}  {'DEFECT' if bad else 'ok'}")
    print(f"{broken} of {len(wl.pairs)} pairs: elog_divergence above a feasible coupling's cost")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
