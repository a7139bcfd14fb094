"""Random-instance generators and independent oracles shared by the tests."""

from __future__ import annotations

import numpy as np

from maxlinbn import Dag, values_close


def log_uniform(rng, lo=1e-2, hi=1e2) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_dag(rng, d, p=0.4) -> Dag:
    """Random DAG with a shuffled (not well-ordered) labeling."""
    perm = [int(v) for v in rng.permutation(d) + 1]
    edges = [
        (perm[i], perm[j])
        for i in range(d)
        for j in range(i + 1, d)
        if rng.random() < p
    ]
    return Dag(d, edges)


def random_weighted_dag(rng, d, p=0.4) -> tuple[Dag, dict]:
    g = random_dag(rng, d, p)
    return g, {e: log_uniform(rng) for e in g.edges}


def random_polytree(rng, d, connect=0.9) -> Dag:
    """Random forest skeleton with random edge orientations."""
    perm = [int(v) for v in rng.permutation(d) + 1]
    edges = []
    for i in range(1, d):
        if rng.random() < connect:
            j = int(rng.integers(0, i))
            a, b = perm[j], perm[i]
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
    return Dag(d, edges)


def reorient_skeleton(rng, g: Dag) -> Dag:
    """A DAG with the same skeleton as ``g``, edges oriented along a fresh
    random vertex order."""
    position = {int(v): i for i, v in enumerate(rng.permutation(g.d) + 1)}
    edges = [
        (u, v) if position[u] < position[v] else (v, u) for u, v in g.edges
    ]
    return Dag(g.d, edges)


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


def d_separated_by_paths(g: Dag, a, b, s) -> bool:
    """Path-enumeration oracle for d-separation (small graphs only).

    Enumerates every simple path between the query sides over the skeleton
    and applies the blocking rules literally: a path is connecting when all
    its colliders lie in the ancestral closure of ``s`` and all its
    non-colliders lie outside ``s``.
    """
    A, B, S = set(a), set(b), set(s)
    an_s = g.ancestral_closure(S) if S else frozenset()
    neighbors = {
        v: sorted(g.parents(v) | g.children(v)) for v in range(1, g.d + 1)
    }

    def connecting(path) -> bool:
        for i in range(1, len(path) - 1):
            prev, v, nxt = path[i - 1], path[i], path[i + 1]
            is_collider = g.has_edge(prev, v) and g.has_edge(nxt, v)
            if is_collider:
                if v not in an_s:
                    return False
            elif v in S:
                return False
        return True

    def dfs(path, used) -> bool:
        v = path[-1]
        for w in neighbors[v]:
            if w in used:
                continue
            if w in B:
                if connecting(path + [w]):
                    return True
                continue
            used.add(w)
            hit = dfs(path + [w], used)
            used.discard(w)
            if hit:
                return True
        return False

    for start in A:
        if dfs([start], {start}):
            return False
    return True


def minimal_dag_by_pairs(b):
    """Oracle for ``minimal_dag`` on a valid coefficient matrix: compares
    each ordered pair's coefficient with its best two-step composition, one
    pair at a time.  Returns the DAG and the weights of its edges, in
    row-major order of ``(v, u)``."""
    B = np.asarray(b, dtype=float)
    d = B.shape[0]
    edges = {}
    for v in range(d):
        for u in range(d):
            if u == v or B[v, u] <= 0:
                continue
            through = B[v, :] * B[:, u]
            through[u] = through[v] = 0.0
            best = float(through.max())
            bvu = float(B[v, u])
            if best < bvu and not values_close(best, bvu):
                edges[(u + 1, v + 1)] = bvu
    return Dag(d, edges.keys()), edges


def dense_ratio_statistics(x, atom_rtol=1e-9):
    """Oracle for the ratio statistics: the ``(n, d, d)`` broadcast of every
    pairwise ratio at once (memory ``n * d * d``, small samples only).

    Returns the minima and the multiplicities, ``r * (1 - atom_rtol) <= min``,
    with 1 and ``n`` on the diagonals.
    """
    a = np.asarray(x, dtype=float)
    ratios = a[:, :, None] / a[:, None, :]
    mins = ratios.min(axis=0)
    mult = np.sum(ratios * (1.0 - atom_rtol) <= mins[None, :, :], axis=0)
    np.fill_diagonal(mins, 1.0)
    np.fill_diagonal(mult, a.shape[0])
    return mins, mult


def noise_matrix_by_rows(spec, n, d):
    """Oracle for ``noise_matrix``: one ``default_rng((seed % 2**64, nu))``
    per row, drawing that row's ``d`` values on its own."""
    z = np.empty((n, d))
    for nu in range(n):
        rng = np.random.default_rng((spec.seed % 2**64, nu))
        if spec.family == "frechet":
            (alpha,) = spec.params
            u = rng.random(d)
            u[u == 0.0] = np.nextafter(0.0, 1.0)
            z[nu] = (-np.log(u)) ** (-1.0 / alpha)
        else:
            mu, sigma = spec.params
            z[nu] = rng.lognormal(mu, sigma, d)
    return z
