"""Command-line front end: JSON in, JSON report out.

Exit codes: 0 = computed, 1 = input error (with a pointer to the offending
field), 2 = domain infeasible or violated (for instance, pricing at a level
that admits arbitrage).  Reports are rendered canonically (sorted keys), so
repeated runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from . import io as eio
from .market import MarketModel, NoMartingaleStructure, NormPair


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _load_market(path: str, p_flag: Optional[float]) -> tuple[MarketModel, NormPair]:
    model, p_file = eio.load_market(path)
    p = p_flag if p_flag is not None else p_file
    if p is None:
        raise CliError(f"{path}: no norm exponent; give --p or add 'p' to the file")
    try:
        return model, NormPair(float(p))
    except ValueError as exc:
        raise CliError(str(exc))


def _emit(args, payload: dict) -> None:
    text = eio.canonical_json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _add_common(sp, eps=False, p=False, q=False, lam=False, eta=False, tol=False):
    sp.add_argument("--out", type=str, default=None, help="also write the report here")
    if tol:
        sp.add_argument("--tol", type=float, default=1e-8, help="decision tolerance")
    if eps:
        sp.add_argument("--eps", type=float, required=True, help="arbitrage cost level")
    if p:
        sp.add_argument("--p", type=float, default=None, help="strategy norm exponent")
    if q:
        sp.add_argument("--q", type=float, default=2.0, help="state norm exponent")
    if lam:
        sp.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="exponential smoothing parameter")
    if eta:
        sp.add_argument("--eta", type=float, default=None, help="interior parameter")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="epsarb",
                                 description="quantified arbitrage and adapted distances "
                                             "on finite event trees")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-arbitrage", help="detect strict eps-arbitrage")
    sp.add_argument("market")
    _add_common(sp, eps=True, p=True, tol=True)

    sp = sub.add_parser("critical-value", help="critical arbitrage level eps(P)")
    sp.add_argument("market")
    sp.add_argument("--eta-sweep", action="store_true",
                    help="re-run the measure-side bisection over an interior-parameter grid")
    _add_common(sp, p=True, eta=True)

    sp = sub.add_parser("node-structure", help="per-node extremal direction and bases")
    sp.add_argument("market")
    _add_common(sp, eps=True, p=True)

    sp = sub.add_parser("na-prime", help="non-asymptotic no-arbitrage check")
    sp.add_argument("market")
    _add_common(sp, eps=True, p=True, tol=True)

    sp = sub.add_parser("find-emm", help="find an eps-martingale measure")
    sp.add_argument("market")
    _add_common(sp, eps=True, p=True, eta=True)

    sp = sub.add_parser("superhedge", help="super-replication price and certificate")
    sp.add_argument("market")
    sp.add_argument("--payoff", required=True, help="payoff JSON file")
    _add_common(sp, eps=True, p=True)

    sp = sub.add_parser("price-bound", help="robust sup/inf price bound")
    sp.add_argument("market")
    sp.add_argument("--payoff", required=True, help="payoff JSON file")
    sp.add_argument("--direction", choices=("sup", "inf"), default="sup")
    _add_common(sp, eps=True, p=True)

    sp = sub.add_parser("fair-range", help="eps-fair price interval")
    sp.add_argument("market")
    sp.add_argument("--payoff", required=True, help="payoff JSON file")
    _add_common(sp, eps=True, p=True)

    for name, help_text in (("aw", "adapted sup-distance"),
                            ("aw-delta", "adapted sup-distance on increments")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("law_x")
        sp.add_argument("law_y")
        sp.add_argument("--variant", choices=("delta", "plain"),
                        default="delta" if name == "aw-delta" else "plain")
        sp.add_argument("--include-t0", choices=("true", "false"), default="true")
        _add_common(sp, q=True)

    sp = sub.add_parser("w-inf", help="non-causal sup-distance")
    sp.add_argument("law_x")
    sp.add_argument("law_y")
    sp.add_argument("--cost", choices=("levels", "increments"), default="levels")
    sp.add_argument("--include-t0", choices=("true", "false"), default="true")
    _add_common(sp, q=True)

    sp = sub.add_parser("elog", help="adapted log-exponential divergence")
    sp.add_argument("law_x")
    sp.add_argument("law_y")
    _add_common(sp, q=True, lam=True)

    sp = sub.add_parser("kr", help="stage-wise quantile coupling (d = 1)")
    sp.add_argument("law_x")
    sp.add_argument("law_y")
    _add_common(sp, q=True)

    sp = sub.add_parser("adapted-empirical", help="grid-quantized empirical path law")
    sp.add_argument("samples", help="CSV rows of d(T+1) coordinates in [0,1]")
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    _add_common(sp)

    sp = sub.add_parser("stability", help="stability inequalities between two markets")
    sp.add_argument("law_x")
    sp.add_argument("law_y")
    sp.add_argument("--payoff-coeff", type=float, default=None,
                    help="linear terminal claim C * X_T[i] (Lipschitz constant |C|)")
    sp.add_argument("--payoff-coordinate", type=int, default=0)
    _add_common(sp, eps=True, p=True)
    return ap


def _cmd(args) -> dict:
    """The report of one command.  Each branch imports the layer it runs, so
    a process loads only that layer (with ``programs`` under arbitrage and
    pricing)."""
    if args.command == "check-arbitrage":
        from .arbitrage import detect_strict_arbitrage
        model, norms = _load_market(args.market, args.p)
        rep = detect_strict_arbitrage(model, args.eps, norms, tol=args.tol)
        return rep.to_dict(model)
    if args.command == "critical-value":
        from .arbitrage import critical_value
        model, norms = _load_market(args.market, args.p)
        res = critical_value(model, norms, eta=args.eta, eta_sweep=args.eta_sweep,
                             method="both")
        return res.to_dict()
    if args.command == "node-structure":
        from .arbitrage import compute_node_structure
        model, norms = _load_market(args.market, args.p)
        structures = compute_node_structure(model, args.eps, norms)
        out = {}
        for v, st in structures.items():
            out[model.ids[v]] = {
                "hbar": [float(x) for x in st.hbar],
                "hbar_dual": [float(x) for x in st.hbar_dual],
                "basis_g": [[float(x) for x in col] for col in st.basis_g.T],
                "basis_g_tilde": [[float(x) for x in col] for col in st.basis_g_tilde.T],
                "strict_arbitrage_here": st.strict_arbitrage_here,
                "min_norm": st.min_norm,
            }
        return {"eps": args.eps, "nodes": out}
    if args.command == "na-prime":
        from .arbitrage import check_na_prime
        model, norms = _load_market(args.market, args.p)
        rep = check_na_prime(model, args.eps, norms, tol=args.tol)
        return rep.to_dict(model)
    if args.command == "find-emm":
        from .pricing import find_eps_martingale_measure
        model, norms = _load_market(args.market, args.p)
        res = find_eps_martingale_measure(model, args.eps, norms, eta=args.eta)
        payload = res.to_dict(model)
        if not res.feasible:
            raise CliError(eio.canonical_json(payload).strip(), code=2)
        return payload
    if args.command == "superhedge":
        from .pricing import superhedge_price
        model, norms = _load_market(args.market, args.p)
        payoff = eio.load_payoff(model, args.payoff)
        res = superhedge_price(model, args.eps, norms, payoff)
        return res.to_dict(model)
    if args.command == "price-bound":
        from .pricing import robust_price_bound
        model, norms = _load_market(args.market, args.p)
        payoff = eio.load_payoff(model, args.payoff)
        res = robust_price_bound(model, args.eps, norms, payoff, args.direction)
        return {"direction": res.direction, "value": res.value,
                "attained": res.attained, "face_min_weight": res.face_min_weight}
    if args.command == "fair-range":
        from .pricing import fair_price_range
        model, norms = _load_market(args.market, args.p)
        payoff = eio.load_payoff(model, args.payoff)
        res = fair_price_range(model, args.eps, norms, payoff)
        return {"interval": res.to_dict()}
    if args.command in ("aw", "aw-delta"):
        from .transport import aw_inf, aw_inf_delta
        lawx, _ = eio.load_market(args.law_x)
        lawy, _ = eio.load_market(args.law_y)
        include_t0 = args.include_t0 == "true"
        if not include_t0 and args.variant != "delta":
            raise CliError("--include-t0 false needs --variant delta: "
                           "the level distance has no t = 0 increment")
        if args.variant == "delta":
            res = aw_inf_delta(lawx, lawy, args.q, include_t0=include_t0)
        else:
            res = aw_inf(lawx, lawy, args.q)
        return {"value": res.value, "variant": args.variant,
                "coupling": res.coupling.to_dict()}
    if args.command == "w-inf":
        from .transport import w_inf
        lawx, _ = eio.load_market(args.law_x)
        lawy, _ = eio.load_market(args.law_y)
        if args.include_t0 == "false" and args.cost != "increments":
            raise CliError("--include-t0 false needs --cost increments: "
                           "the level cost has no t = 0 increment")
        res = w_inf(lawx, lawy, args.q, increments=args.cost == "increments",
                    include_t0=args.include_t0 == "true")
        return {"value": res.value}
    if args.command == "elog":
        from .transport import elog_divergence
        lawx, _ = eio.load_market(args.law_x)
        lawy, _ = eio.load_market(args.law_y)
        res = elog_divergence(lawx, lawy, args.q, args.lam)
        return {"value": res.value, "lambda": args.lam}
    if args.command == "kr":
        from .transport import knothe_rosenblatt
        lawx, _ = eio.load_market(args.law_x)
        lawy, _ = eio.load_market(args.law_y)
        coupling = knothe_rosenblatt(lawx, lawy)
        return {"esssup_cost": coupling.esssup_cost(args.q),
                "coupling": coupling.to_dict()}
    if args.command == "adapted-empirical":
        from .transport import QuantizerConfig, adapted_empirical
        try:
            samples = np.loadtxt(args.samples, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise CliError(f"{args.samples}: {exc}")
        config = QuantizerConfig.for_samples(samples.shape[0], args.T, args.d)
        law = adapted_empirical(samples.reshape(-1, args.T + 1, args.d), config)
        return {"quantizer": {"N": config.N, "r": config.r,
                              "cells_per_axis": config.cells_per_axis},
                "law": eio.market_to_dict(law)}
    if args.command == "stability":
        from .transport import stability_report
        lawx, norms = _load_market(args.law_x, args.p)
        lawy, _ = eio.load_market(args.law_y)
        payoff_fn = None
        lipschitz = None
        if args.payoff_coeff is not None:
            coeff, coord = args.payoff_coeff, args.payoff_coordinate
            payoff_fn = lambda path: coeff * float(path[-1, coord])
            lipschitz = abs(coeff)
        rep = stability_report(lawx, lawy, args.eps, norms,
                               payoff_fn=payoff_fn, lipschitz=lipschitz)
        return rep.to_dict(lawy)
    raise CliError(f"unknown command {args.command!r}")


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        payload = _cmd(args)
    except CliError as exc:
        if exc.code == 2:
            sys.stdout.write(str(exc) + "\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except eio.FormatError as exc:
        sys.stderr.write(f"input error at {exc.pointer}: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NoMartingaleStructure as exc:
        sys.stderr.write(f"domain violated: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(args, payload)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
