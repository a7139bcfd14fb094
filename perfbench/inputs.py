"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed.  ``random_dag``,
``random_disjoint_triple`` and ``log_uniform`` consume the random stream
exactly as the functions of the same names in ``tests/helpers.py``, so the
benchmark draws from the distributions the test suite uses.  They are copied
rather than imported so that a later edit to the test helpers cannot change
the benchmark's inputs; ``test_perfbench.py`` checks the copies still agree.

Input files are written in the documented DAG JSON format by this module,
not by ``maxlinbn.formats``, so no input depends on the code under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the three workloads.

    Operation ``i`` uses model ``i % models``, so that a run's medians
    cover several random models rather than one.
    """

    models: int = 8
    learn_d: int = 50
    learn_p: float = 0.1
    learn_n: int = 20000
    fit_d: int = 200
    fit_p: float = 0.03
    fit_n: int = 2000
    sep_d: int = 200
    sep_p: float = 0.02
    sep_queries_per_round: int = 200
    sep_query_pool: int = 2000
    indep_d: int = 14
    indep_p: float = 0.3
    indep_max_cond: int = 3
    recovery_n: int = 3000
    # (label, d, p, weight range, draws); fixed draws per cell, never re-drawn
    recovery_cells: tuple = (
        ("d20_w0.5-2", 20, 0.4, (0.5, 2.0), 8),
        ("d20_w1e-2-1e2", 20, 0.4, (1e-2, 1e2), 8),
        ("d50_w0.5-2", 50, 0.4, (0.5, 2.0), 5),
    )


FULL = Sizes()

#: Tiny sizes for the smoke mode: every metric is emitted in seconds.
SMOKE = Sizes(
    learn_d=8,
    learn_p=0.3,
    learn_n=2000,
    fit_d=12,
    fit_p=0.3,
    fit_n=200,
    sep_d=20,
    sep_p=0.15,
    models=2,
    sep_queries_per_round=20,
    sep_query_pool=100,
    indep_d=6,
    indep_p=0.4,
    indep_max_cond=2,
    recovery_n=500,
    recovery_cells=(
        ("d6_w0.5-2", 6, 0.4, (0.5, 2.0), 2),
        ("d6_w1e-2-1e2", 6, 0.4, (1e-2, 1e2), 2),
    ),
)


def log_uniform(rng, lo=1e-2, hi=1e2) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_dag(rng, d, p=0.4) -> tuple[int, list[tuple[int, int]]]:
    """Random DAG as ``(d, edges)`` with a shuffled (not well-ordered) labeling."""
    perm = [int(v) for v in rng.permutation(d) + 1]
    edges = [
        (perm[i], perm[j])
        for i in range(d)
        for j in range(i + 1, d)
        if rng.random() < p
    ]
    return d, edges


def random_disjoint_triple(rng, d, max_side=2, max_cond=3):
    """Random (A, B, S) with A, B nonempty and all three pairwise disjoint."""
    verts = list(rng.permutation(d) + 1)
    na = int(rng.integers(1, max_side + 1))
    nb = int(rng.integers(1, max_side + 1))
    ns = int(rng.integers(0, max_cond + 1))
    if na + nb + ns > d:
        na, nb, ns = 1, 1, max(0, min(ns, d - 2))
    a = {int(v) for v in verts[:na]}
    b = {int(v) for v in verts[na : na + nb]}
    s = {int(v) for v in verts[na + nb : na + nb + ns]}
    return a, b, s


def weighted_dag(rng, d, p, lo, hi) -> tuple[int, dict[tuple[int, int], float]]:
    """Random DAG with log-uniform weights in ``[lo, hi]``, as ``(d, weights)``."""
    d, edges = random_dag(rng, d, p)
    return d, {e: log_uniform(rng, lo, hi) for e in edges}


def write_dag(path: str, d: int, edges, weights=None) -> None:
    """Write DAG JSON: ``{"d": d, "edges": [{"from", "to"[, "weight"]}]}``."""
    entries = []
    for u, v in sorted(edges):
        entry = {"from": u, "to": v}
        if weights is not None:
            entry["weight"] = weights[(u, v)]
        entries.append(entry)
    with open(path, "w") as fh:
        json.dump({"d": d, "edges": entries}, fh)


def streams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent generators for the separate purposes within one workload."""
    return [np.random.default_rng([seed, k]) for k in range(count)]


def op_seeds(rng, count=4096) -> list[int]:
    """Noise seeds for successive operations."""
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def weighted_models(rng, workdir, count, d, p, lo, hi) -> list[dict]:
    """``count`` weighted DAGs, each written to ``model<k>.json``."""
    models = []
    for k in range(count):
        d_k, weights = weighted_dag(rng, d, p, lo, hi)
        path = os.path.join(workdir, f"model{k}.json")
        write_dag(path, d_k, weights, weights)
        models.append({"d": d_k, "weights": weights, "path": path})
    return models


def learn_inputs(seed: int, sizes: Sizes, workdir: str) -> dict:
    model_rng, op_rng, recovery_rng = streams(seed, 3)
    models = weighted_models(
        model_rng, workdir, sizes.models, sizes.learn_d, sizes.learn_p, 0.5, 2.0
    )
    recovery = []
    for label, rd, rp, (lo, hi), draws in sizes.recovery_cells:
        for _ in range(draws):
            cell_d, cell_w = weighted_dag(recovery_rng, rd, rp, lo, hi)
            recovery.append((label, cell_d, cell_w, int(recovery_rng.integers(0, 2**31))))
    return {"models": models, "seeds": op_seeds(op_rng), "recovery": recovery}


def fit_inputs(seed: int, sizes: Sizes, workdir: str) -> dict:
    model_rng, op_rng = streams(seed, 2)
    models = weighted_models(
        model_rng, workdir, sizes.models, sizes.fit_d, sizes.fit_p, 1e-2, 1e2
    )
    return {"models": models, "seeds": op_seeds(op_rng)}


def separation_inputs(seed: int, sizes: Sizes, workdir: str) -> dict:
    dag_rng, query_rng = streams(seed, 2)
    dags, small = [], []
    for k in range(sizes.models):
        d, edges = random_dag(dag_rng, sizes.sep_d, sizes.sep_p)
        path = os.path.join(workdir, f"dag{k}.json")
        write_dag(path, d, edges)
        dags.append((path, d, edges))
        small.append(random_dag(dag_rng, sizes.indep_d, sizes.indep_p))
    queries = [
        random_disjoint_triple(query_rng, sizes.sep_d, 3, 5)
        for _ in range(sizes.sep_query_pool)
    ]
    return {"dags": dags, "small": small, "queries": queries}
