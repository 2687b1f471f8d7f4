"""JSON file formats for markets, payoffs, and measures.

Market files carry the tree plus a default norm exponent::

    {"T": int, "d": int, "p": number,
     "nodes": [{"id": str, "time": int, "parent": str|null,
                "cond_prob": number, "prices": [number x d]}]}

Payoffs are ``{"values": {leaf_id: number}}`` and measures
``{"weights": {leaf_id: number}}``.
"""

from __future__ import annotations

import json
from typing import Any, Optional

import numpy as np

from .market import MarketModel, MeasureWeights, Payoff


class FormatError(ValueError):
    """Malformed input file; ``pointer`` names the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _require(data: dict, key: str, kind, pointer: str):
    if key not in data:
        raise FormatError(f"{pointer}.{key}", "missing required field")
    val = data[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise FormatError(f"{pointer}.{key}", f"expected a number, got {type(val).__name__}")
        return float(val)
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise FormatError(f"{pointer}.{key}", f"expected an integer, got {type(val).__name__}")
        return val
    if not isinstance(val, kind):
        raise FormatError(f"{pointer}.{key}", f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def market_from_dict(data: dict) -> tuple[MarketModel, Optional[float]]:
    """Parse a market JSON object; returns the model and the file's norm exponent."""
    if not isinstance(data, dict):
        raise FormatError("$", "top level must be an object")
    T = _require(data, "T", int, "$")
    d = _require(data, "d", int, "$")
    p = _require(data, "p", float, "$") if "p" in data else None
    nodes = _require(data, "nodes", list, "$")
    recs = []
    for k, nd in enumerate(nodes):
        ptr = f"$.nodes[{k}]"
        if not isinstance(nd, dict):
            raise FormatError(ptr, "node must be an object")
        nid = _require(nd, "id", str, ptr)
        time = _require(nd, "time", int, ptr)
        parent = nd.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise FormatError(f"{ptr}.parent", "expected a node id or null")
        cond = _require(nd, "cond_prob", float, ptr)
        prices = _require(nd, "prices", list, ptr)
        if len(prices) != d:
            raise FormatError(f"{ptr}.prices", f"expected {d} entries, got {len(prices)}")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in prices):
            raise FormatError(f"{ptr}.prices", "entries must be numbers")
        vec = np.asarray(prices, dtype=float)
        recs.append({"id": nid, "time": time, "parent": parent, "cond_prob": cond, "prices": vec})
    known = {r["id"] for r in recs}
    for k, r in enumerate(recs):
        if r["parent"] is not None and r["parent"] not in known:
            raise FormatError(f"$.nodes[{k}].parent", f"unknown parent id {r['parent']!r}")
    try:
        model = MarketModel.from_nodes(T, d, recs)
    except ValueError as exc:
        raise FormatError("$.nodes", str(exc)) from None
    return model, p


def market_to_dict(model: MarketModel, p: Optional[float] = None) -> dict:
    nodes = []
    for i in range(model.n_nodes):
        par = int(model.parent[i])
        nodes.append({
            "id": model.ids[i],
            "time": int(model.times[i]),
            "parent": None if par < 0 else model.ids[par],
            "cond_prob": float(model.cond_prob[i]),
            "prices": [float(x) for x in model.prices[i]],
        })
    out: dict[str, Any] = {"T": model.T, "d": model.d, "nodes": nodes}
    if p is not None:
        out["p"] = float(p)
    return out


def load_market(path: str) -> tuple[MarketModel, Optional[float]]:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("$", f"invalid JSON: {exc}") from None
    return market_from_dict(data)


def save_market(model: MarketModel, path: str, p: Optional[float] = None) -> None:
    with open(path, "w") as fh:
        json.dump(market_to_dict(model, p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def payoff_from_dict(model: MarketModel, data: dict) -> Payoff:
    if not isinstance(data, dict) or "values" not in data:
        raise FormatError("$.values", "payoff file must be {'values': {leaf_id: number}}")
    if not isinstance(data["values"], dict):
        raise FormatError("$.values", "expected an object of leaf values")
    values = {nid: _require(data["values"], nid, float, "$.values") for nid in data["values"]}
    try:
        return Payoff.from_dict(model, values)
    except ValueError as exc:
        raise FormatError("$.values", str(exc)) from None


def load_payoff(model: MarketModel, path: str) -> Payoff:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("$", f"invalid JSON: {exc}") from None
    return payoff_from_dict(model, data)


def measure_from_dict(model: MarketModel, data: dict) -> MeasureWeights:
    if not isinstance(data, dict) or "weights" not in data:
        raise FormatError("$.weights", "measure file must be {'weights': {leaf_id: number}}")
    if not isinstance(data["weights"], dict):
        raise FormatError("$.weights", "expected an object of leaf weights")
    weights = {nid: _require(data["weights"], nid, float, "$.weights") for nid in data["weights"]}
    try:
        return MeasureWeights.from_dict(model, weights)
    except ValueError as exc:
        raise FormatError("$.weights", str(exc)) from None


def load_measure(model: MarketModel, path: str) -> MeasureWeights:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError("$", f"invalid JSON: {exc}") from None
    return measure_from_dict(model, data)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering used for all reports."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
