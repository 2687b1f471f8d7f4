"""Seeded input generators owned by the benchmark.

Every input comes from ``rng(seed, workload, index)``, so a seed fixes the
whole stream of units a workload runs, independent of how many units a run
reaches.  Trees are full (every internal node has ``branching`` children),
but the cost of a unit still depends on the geometry of its trees, not only
on their shape.  So the workloads draw their geometries once, from seed 0,
and a run's seed picks an exact symmetry of each one
(``symmetric_variant``): the program sees new numbers but does nearly the
same work, which keeps the spread between seeds small.
"""

from __future__ import annotations

import zlib
from collections import defaultdict

import numpy as np


def rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def tree_nodes(gen: np.random.Generator, T: int, branching: int, d: int,
               root_push: bool) -> list[dict]:
    """Node records of a full tree with random prices and probabilities.

    Each internal node draws its own drift, so some nodes are close to
    martingale nodes and some are far from them.  With ``root_push`` the
    root's children all move the first asset up by 0.3 to 1.2, which keeps
    the critical level at least 0.3 (strict arbitrage exists below it).
    """
    nodes = [{"id": "n0", "time": 0, "parent": None, "cond_prob": 1.0,
              "prices": np.round(gen.normal(0.0, 1.0, size=d), 6)}]
    frontier = [0]
    for t in range(1, T + 1):
        nxt = []
        for v in frontier:
            probs = gen.uniform(0.2, 1.0, size=branching)
            probs /= probs.sum()
            drift = gen.normal(0.0, 0.5, size=d)
            for c in range(branching):
                step = drift + gen.normal(0.0, 1.0, size=d)
                if root_push and t == 1:
                    step[0] = gen.uniform(0.3, 1.2)
                nodes.append({"id": f"n{len(nodes)}", "time": t,
                              "parent": nodes[v]["id"], "cond_prob": float(probs[c]),
                              "prices": np.round(nodes[v]["prices"] + step, 6)})
                nxt.append(len(nodes) - 1)
        frontier = nxt
    return nodes


def symmetry(gen: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A random signed permutation of d assets: (permutation, signs)."""
    return gen.permutation(d), gen.choice([-1.0, 1.0], size=d)


def symmetric_variant(gen: np.random.Generator, nodes: list[dict], sym) -> list[dict]:
    """The same market up to an exact symmetry: the signed permutation
    ``sym`` of the assets and a new order of every node's children.

    Signed permutations preserve the p-norms and the box bounds the solvers
    use, so every program sees the same geometry in new coordinates.  Two
    path laws given the same ``sym`` keep their distances.
    """
    perm, signs = sym
    kids = defaultdict(list)
    for nd in nodes:
        kids[nd["parent"]].append(nd)
    out = []
    todo = list(kids[None])
    while todo:
        nd = todo.pop()
        out.append(dict(nd, prices=signs * np.asarray(nd["prices"])[perm]))
        children = kids[nd["id"]]
        todo.extend(children[j] for j in gen.permutation(len(children)))
    return out
