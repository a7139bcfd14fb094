"""Graphical separation queries on DAGs.

:func:`_d_connected` is the one d-connection traversal (the "Bayes-ball"
reachability of Shachter, UAI 1998): it yields every vertex that a path from
``A`` unblocked by ``S`` reaches.  A path is blocked by ``S`` when some
non-collider on it lies in ``S`` or some collider on it lies outside the
ancestral closure of ``S``.  :func:`d_separated` and
:func:`enumerate_independences` are its callers.

:func:`m_separated` is the independent moralization oracle: it restricts the
DAG to the ancestral closure of the query, moralizes, and tests plain
undirected separation there.  The test suite checks that both agree on
random graphs.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .errors import NonDisjointQuery, SizeLimitExceeded
from .graph import Dag, _check_integer, _vertex_set

#: Triples :func:`enumerate_independences` will enumerate at most.
MAX_TRIPLES = 10**6


class IndependenceStatement:
    """One conditional-independence statement ``A _|_ B | S``.

    Equality and hashing are symmetric in ``A`` and ``B``.
    """

    __slots__ = ("a", "b", "given", "holds")

    def __init__(self, a: Iterable[int], b: Iterable[int], given: Iterable[int], holds: bool):
        self.a = frozenset(a)
        self.b = frozenset(b)
        self.given = frozenset(given)
        self.holds = bool(holds)

    def _key(self):
        return (frozenset((self.a, self.b)), self.given, self.holds)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndependenceStatement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fmt = lambda s: "{" + ",".join(map(str, sorted(s))) + "}"
        rel = "_|_" if self.holds else "~|~"
        return f"{fmt(self.a)} {rel} {fmt(self.b)} | {fmt(self.given)}"


def _query_sets(g: Dag, a, b, s) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    A, B, S = _vertex_set(a, g.d), _vertex_set(b, g.d), _vertex_set(s, g.d)
    if not A or not B:
        raise NonDisjointQuery("both query sides must be nonempty")
    if A & B or A & S or B & S:
        raise NonDisjointQuery("query sets must be pairwise disjoint")
    return A, B, S


def _d_connected(g: Dag, A: frozenset[int], S: frozenset[int]) -> Iterator[int]:
    """``A`` and every vertex that a path from ``A`` unblocked by ``S``
    reaches, each yielded once when the traversal first reaches it.

    Traverses states ``(vertex, entered_against_arrow)``.  A vertex outside
    ``S`` passes on to its children, and to its parents unless it was
    entered along an arrow (a collider).  A collider in ``S`` turns back to
    its parents, which also opens a collider with a descendant in ``S``: the
    traversal runs down to that descendant and back up.
    """
    # state flag: True = the edge we arrived on points into the vertex;
    # the sources start as non-colliders
    queue: deque[tuple[int, bool]] = deque((x, False) for x in A)
    visited: set[tuple[int, bool]] = set()
    while queue:
        state = queue.popleft()
        if state in visited:
            continue
        visited.add(state)
        v, into = state
        if (v, not into) not in visited:
            yield v
        # continue to a child: v acts as a non-collider
        if v not in S:
            for w in g.children(v):
                if (w, True) not in visited:
                    queue.append((w, True))
        # continue to a parent: a non-collider outside S passes, a collider in S turns
        if (v in S) == into:
            for w in g.parents(v):
                if (w, False) not in visited:
                    queue.append((w, False))


def d_separated(g: Dag, a: Iterable[int], b: Iterable[int], s: Iterable[int] = ()) -> bool:
    """Whether ``S`` blocks every path between the vertex sets ``a`` and ``b``.

    Runs :func:`_d_connected` from ``a`` and stops at the first vertex of
    ``b`` it reaches.
    """
    A, B, S = _query_sets(g, a, b, s)
    return B.isdisjoint(_d_connected(g, A, S))


def m_separated(g: Dag, a: Iterable[int], b: Iterable[int], s: Iterable[int] = ()) -> bool:
    """Separation via moralization of the ancestral closure of the query.

    Computes the smallest ancestral set containing ``a``, ``b`` and ``s``,
    restricts the DAG to it, moralizes, and tests whether ``s`` separates
    ``a`` from ``b`` in the resulting undirected graph.  The restricted DAG's
    edges are those into the ancestral set, read from its vertices' parents:
    an ancestral set holds the parents of its vertices.
    """
    A, B, S = _query_sets(g, a, b, s)
    anc = g.ancestral_closure(A | B | S)
    sub = Dag(g.d, [(u, v) for v in anc for u in g.parents(v)])
    return sub.moral_graph().separated(A, B, S)


def markov_statements(g: Dag, kind: str) -> list[IndependenceStatement]:
    """The per-vertex independence statements of a Markov property.

    ``kind="ordered"``: each vertex against its predecessors under the
    stored well-ordering, given its parents.  ``kind="local"``: each vertex
    against its non-descendants, given its parents.  Statements whose
    right-hand side would be empty are omitted.
    """
    if kind not in ("ordered", "local"):
        raise ValueError(f"kind must be 'ordered' or 'local', got {kind!r}")
    out: list[IndependenceStatement] = []
    position = {v: i for i, v in enumerate(g.well_order)}
    for v in range(1, g.d + 1):
        pa = g.parents(v)
        if kind == "ordered":
            rest = set(g.well_order[: position[v]]) - pa
        else:
            rest = set(range(1, g.d + 1)) - {v} - g.descendants(v) - pa
        if rest:
            out.append(IndependenceStatement({v}, rest, pa, True))
    return out


def enumerate_independences(g: Dag, max_cond: int) -> list[IndependenceStatement]:
    """Every singleton separation statement with conditioning sets up to
    ``max_cond`` vertices.

    Enumerates all triples ``({a}, {b}, S)`` with ``a < b``, ``S`` disjoint
    from ``{a, b}`` and ``|S| <= max_cond``, each carrying its d-separation
    verdict.  One traversal from ``a`` given ``S`` decides every ``b`` at
    once.  Raises :class:`SizeLimitExceeded` before any work when there are
    more than :data:`MAX_TRIPLES` triples.

    Output is in the canonical order ``(a, b, |S|, sorted S)`` as it is
    emitted: the statements of each source ``a`` are collected per target
    ``b``, and within a target the conditioning sets come by size and then
    lexicographically, as :func:`itertools.combinations` yields them.  The
    statements share their sets: one frozenset per vertex, and one per
    conditioning set of each source ``a``.
    """
    _check_integer(max_cond, "max_cond")
    if max_cond < 0:
        raise ValueError("max_cond must be nonnegative")
    d = g.d
    kmax = min(max_cond, d - 2)
    total = comb(d, 2) * sum(comb(d - 2, k) for k in range(kmax + 1)) if d >= 2 else 0
    if total > MAX_TRIPLES:
        raise SizeLimitExceeded(f"{total} triples exceed the cap of {MAX_TRIPLES}")
    single = {v: frozenset((v,)) for v in range(1, d + 1)}
    out: list[IndependenceStatement] = []
    for x in range(1, d):
        rest = [v for v in range(1, d + 1) if v != x]
        by_target: dict[int, list[IndependenceStatement]] = {y: [] for y in range(x + 1, d + 1)}
        for k in range(kmax + 1):
            for s in combinations(rest, k):
                S = frozenset(s)
                targets = [y for y in range(x + 1, d + 1) if y not in S]
                if targets:
                    reached = set(_d_connected(g, single[x], S))
                    for y in targets:
                        by_target[y].append(
                            IndependenceStatement(single[x], single[y], S, y not in reached)
                        )
        for stmts in by_target.values():
            out.extend(stmts)
    return out
