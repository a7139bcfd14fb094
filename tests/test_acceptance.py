"""Acceptance suite: one test per numbered criterion.

Each test prints a single ``ACCEPTANCE n PASS`` line once its assertions
held (run with ``pytest -s`` or ``-v`` to see them).  Tolerances follow the
package-wide convention: closure-only arithmetic is compared bitwise;
anything reconstructed from floating-point sample ratios is compared with
the documented relative tolerance of 1e-9.
"""

import time
from itertools import combinations

import numpy as np

from maxlinbn import (
    Dag,
    MaxLinearModel,
    NoiseSpec,
    ancestor_ratio_coefficients,
    assemble_weight_matrix,
    brute_force_coefficients,
    closure,
    d_separated,
    enumerate_independences,
    generalized_likelihood_ratio,
    glr_two_node_sample,
    gmle_coefficients,
    gmle_edge_weights,
    identify_coefficients,
    identify_structure,
    m_separated,
    marginal_rows,
    markov_equivalent,
    matrices_close,
    minimal_dag,
    noise_matrix,
    values_close,
)

from helpers import (
    log_uniform,
    random_dag,
    random_disjoint_triple,
    random_polytree,
    random_weighted_dag,
    reorient_skeleton,
)


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n} PASS - {detail}")


def test_criterion_01_worked_example_matrix(diamond, diamond_weights):
    c = assemble_weight_matrix(diamond, diamond_weights)
    b = closure(c)
    oracle = brute_force_coefficients(diamond, c)
    assert np.array_equal(b, oracle)
    assert b[3, 0] == max(0.6 * 0.5, 0.9 * 0.8)
    assert abs(b[3, 0] - 0.72) <= 1e-12
    assert b[3].tolist() == [b[3, 0], 0.6, 0.9, 1.0]
    assert b[1].tolist() == [0.5, 1.0, 0.0, 0.0]
    closure(c)  # warm up
    t0 = time.perf_counter()
    closure(c)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
    _report(1, f"diamond closure matches oracle, b41={float(b[3, 0])!r}, {elapsed * 1e6:.0f}us")


def test_criterion_02_separation_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    queries = 0
    for i in range(300):
        d = int(rng.integers(4, 9))
        g = random_dag(rng, d, p=0.45)
        for x, y in combinations(range(1, d + 1), 2):
            rest = [v for v in range(1, d + 1) if v != x and v != y]
            for k in range(len(rest) + 1):
                for s in combinations(rest, k):
                    assert d_separated(g, {x}, {y}, s) == m_separated(g, {x}, {y}, s)
                    queries += 1
        for _ in range(20):
            a, b, s = random_disjoint_triple(rng, d, max_side=3, max_cond=4)
            assert d_separated(g, a, b, s) == m_separated(g, a, b, s)
            queries += 1
    elapsed = time.perf_counter() - t0
    assert queries >= 10**5
    assert elapsed < 30.0
    _report(2, f"d-sep == m-sep on {queries} queries over 300 DAGs in {elapsed:.1f}s")


def test_criterion_03_worked_separation_verdicts(diamond_tail):
    assert d_separated(diamond_tail, {2}, {3}, {1})
    assert m_separated(diamond_tail, {2}, {3}, {1})
    assert not d_separated(diamond_tail, {2}, {3}, {1, 5})
    assert not m_separated(diamond_tail, {2}, {3}, {1, 5})
    _report(3, "2 _|_ 3 | 1 true and 2 _|_ 3 | {1,5} false by both methods")


def test_criterion_04_markov_equivalence():
    chain = Dag(3, [(1, 2), (2, 3)])
    reverse = Dag(3, [(3, 2), (2, 1)])
    fork = Dag(3, [(2, 1), (2, 3)])
    collider = Dag(3, [(1, 2), (3, 2)])
    for a, b in combinations([chain, reverse, fork], 2):
        assert markov_equivalent(a, b) and markov_equivalent(b, a)
    for g in (chain, reverse, fork):
        assert not markov_equivalent(g, collider)

    rng = np.random.default_rng(404)
    agreements = 0
    for i in range(100):
        d = int(rng.integers(3, 7))
        g1 = random_dag(rng, d, p=0.5)
        g2 = reorient_skeleton(rng, g1) if i % 2 == 0 else random_dag(rng, d, p=0.5)
        model1 = enumerate_independences(g1, max_cond=d)
        model2 = enumerate_independences(g2, max_cond=d)
        assert markov_equivalent(g1, g2) == (model1 == model2)
        agreements += 1
    assert agreements == 100
    _report(4, "skeleton+collider criterion matches brute-force models on 100 pairs")


def test_criterion_05_tropical_oracle():
    rng = np.random.default_rng(505)
    for _ in range(200):
        g, w = random_weighted_dag(rng, int(rng.integers(1, 9)), p=0.5)
        c = assemble_weight_matrix(g, w)
        np.testing.assert_allclose(closure(c), brute_force_coefficients(g, c), rtol=1e-12, atol=0)
    _report(5, "closure == brute-force enumeration at rtol 1e-12 on 200 DAGs")


def test_criterion_06_polytree_roundtrip():
    rng = np.random.default_rng(606)
    for _ in range(100):
        g = random_polytree(rng, int(rng.integers(1, 11)))
        weights = {e: log_uniform(rng) for e in g.edges}
        g2, w2 = minimal_dag(closure(assemble_weight_matrix(g, weights)))
        assert g2 == g
        assert w2 == weights  # bitwise: closure is exact on polytrees
    _report(6, "minimal DAG of the closure is (g, C) exactly on 100 polytrees")


def test_criterion_07_non_faithfulness_witness(diamond, diamond_weights):
    assert diamond_weights[(2, 4)] * diamond_weights[(1, 2)] < (
        diamond_weights[(3, 4)] * diamond_weights[(1, 3)]
    )
    full = MaxLinearModel(diamond, diamond_weights)
    reduced_dag = Dag(4, [(1, 3), (2, 4), (3, 4)])
    reduced = MaxLinearModel(reduced_dag, {e: diamond_weights[e] for e in reduced_dag.edges})
    assert np.array_equal(
        marginal_rows(full.B, {1, 3, 4}), marginal_rows(reduced.B, {1, 3, 4})
    )
    g_min, w_min = minimal_dag(full.B)
    assert g_min == diamond
    assert w_min == diamond_weights
    _report(7, "marginal rows {1,3,4} unchanged by deleting 1->2; minimal DAG = diamond")


def test_criterion_08_estimator_recovery(diamond, diamond_weights):
    model = MaxLinearModel(diamond, diamond_weights)
    t0 = time.perf_counter()
    exact = 0
    ordered = 0
    for seed in range(50):
        x = model.sample(200, NoiseSpec.frechet(1.0, seed))
        c_hat = gmle_edge_weights(diamond, x)
        if matrices_close(c_hat, model.C):
            exact += 1
        b_hat = gmle_coefficients(diamond, x)
        b_tilde = ancestor_ratio_coefficients(diamond, x)
        slack = 1e-9
        low = np.all(model.B <= b_hat + slack * np.maximum(model.B, b_hat))
        high = np.all(b_hat <= b_tilde + slack * np.maximum(b_hat, b_tilde))
        if low and high:
            ordered += 1
    elapsed = time.perf_counter() - t0
    assert exact >= 48
    assert ordered == 50
    assert elapsed < 10.0
    _report(8, f"edge GMLE recovered C in {exact}/50 runs, B<=Bhat<=Btilde in {ordered}/50, {elapsed:.1f}s")


def test_criterion_09_structure_identification(diamond, diamond_weights):
    model = MaxLinearModel(diamond, diamond_weights)
    recovered = 0
    for seed in range(20):
        x = model.sample(1000, NoiseSpec.frechet(1.0, seed))
        try:
            g_hat, w_hat = identify_structure(x)
        except Exception:
            continue
        if g_hat == diamond and all(
            values_close(w_hat[e], diamond_weights[e]) for e in diamond_weights
        ):
            recovered += 1
    assert recovered >= 19

    null = 0
    for seed in range(20):
        x = noise_matrix(NoiseSpec.frechet(1.0, 10_000 + seed), 1000, 2)
        b_check = identify_coefficients(x)
        if b_check[0, 1] == 0.0 and b_check[1, 0] == 0.0:
            null += 1
    assert null == 20
    _report(9, f"diamond identified in {recovered}/20 runs; no spurious atoms in {null}/20 null runs")


def test_criterion_10_generalized_likelihood_ratios():
    cases = [
        (0.9, 0.7, 0.95, 0.5, 0.5),
        (0.9, 0.7, 0.9, 1.0, 0.0),
        (0.9, 0.7, 0.8, 0.0, 1.0),
        (0.9, 0.7, 0.7, 0.0, 1.0),
        (0.9, 0.7, 0.6, 0.0, 0.0),
        (0.7, 0.7, 0.9, 0.5, 0.5),
        (0.7, 0.7, 0.7, 0.5, 0.5),
        (0.7, 0.7, 0.5, 0.0, 0.0),
        (0.9, 0.7, 1.9, 0.5, 0.5),
    ]
    checks = 0
    for c, c_star, x2, fwd, bwd in cases:
        v = generalized_likelihood_ratio(c, c_star, (1.0 if x2 != 1.9 else 2.0, x2))
        assert (v.rho_forward, v.rho_backward) == (fwd, bwd)
        checks += 1
    assert checks == 9

    g = Dag(2, [(1, 2)])
    for seed, c_true in ((1, 0.8), (2, 0.3), (3, 2.0)):
        model = MaxLinearModel(g, {(1, 2): c_true})
        x = model.sample(40, NoiseSpec.frechet(1.0, seed))
        y = np.sort(x[:, 1] / x[:, 0])
        grid = np.concatenate([np.linspace(y[0] * 0.5, y[-1] * 1.5, 60), y])
        assert grid.size == 100
        for c in grid:
            fwd, bwd, _ = glr_two_node_sample(float(c), x)
            assert fwd >= bwd
    _report(10, "9 pointwise ratio values reproduced; estimate dominates on 3x100 grid")


def test_criterion_11_graphoid_axioms():
    rng = np.random.default_rng(1111)
    instances = 0
    t0 = time.perf_counter()
    while instances < 10**4:
        d = int(rng.integers(4, 8))
        g = random_dag(rng, d, p=0.5)
        verts = list(rng.permutation(d) + 1)
        sizes = [1, 1, int(rng.integers(0, 2)), 1]
        idx = 0
        parts = []
        for k in sizes:
            parts.append({int(v) for v in verts[idx : idx + k]})
            idx += k
        a, b, c, dd = parts
        if not dd:
            dd = {int(verts[idx])}
        sep = lambda x, y, z: d_separated(g, x, y, z) if x and y else True
        # S1 symmetry
        if sep(a, b, c):
            assert sep(b, a, c)
        # S2 decomposition and S3 weak union
        if sep(a, b | dd, c):
            assert sep(a, b, c) and sep(a, dd, c)
            assert sep(a, b, c | dd)
        # S4 contraction
        if sep(a, b, c) and sep(a, dd, b | c):
            assert sep(a, b | dd, c)
        # S5 intersection
        if sep(a, b, c | dd) and sep(a, c, b | dd):
            assert sep(a, b | c, dd)
        instances += 1
    elapsed = time.perf_counter() - t0
    _report(11, f"S1-S5 held on {instances} random instantiations in {elapsed:.1f}s")
