"""Directed acyclic graphs and their derived structure.

Vertices are the integers ``1..d``.  A :class:`Dag` validates its edge set,
acyclicity included, on construction, in Python work proportional to the
number of edges: every vertex without parents, children or neighbours maps to
the one shared empty set :data:`EMPTY`.  The well-ordering (a topological
order, smallest label first among ties) is computed on its first read, or the
first read of the reachability matrix, and kept; the reachability matrix is
computed afresh on each read.  Input labelings do not have to respect the
edge directions; the well-ordering is stored alongside and no relabeling is
ever performed.

Labels are checked once, where they enter: at construction and at the
accessors.  A plain ``int`` in range is accepted on a type test alone; any
other label (a numpy integer, a ``bool``, a float, one out of range) goes
through :func:`_check_vertex`, so a bad label always raises
:class:`VertexOutOfRange` with the same message.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CycleError,
    DimensionMismatch,
    DuplicateEdgeError,
    VertexOutOfRange,
)

Edge = tuple[int, int]

#: The neighbour set of every vertex that has no neighbour along a relation.
EMPTY: frozenset[int] = frozenset()


def _is_int(v) -> bool:
    """``v`` is a Python or numpy integer and not a ``bool``."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_integer(value, name: str) -> None:
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_label(v) -> None:
    if not _is_int(v):
        raise VertexOutOfRange(f"vertex labels must be integers, got {v!r}")


def _check_vertex(v: int, d: int) -> None:
    if type(v) is int and 0 < v <= d:
        return
    _check_label(v)
    if not 1 <= v <= d:
        raise VertexOutOfRange(f"vertex {v} outside 1..{d}")


def _check_count(d: int) -> int:
    if not _is_int(d) or d < 1:
        raise VertexOutOfRange(f"vertex count must be a positive integer, got {d!r}")
    return int(d)


def _vertex_map(vertices: Iterable[int], neighbours: dict) -> dict[int, frozenset[int]]:
    """Each of ``vertices`` mapped to its frozenset of ``neighbours``, or to
    :data:`EMPTY` when it has none.  The map is filled in C; only the
    vertices in ``neighbours`` cost Python work."""
    out = dict.fromkeys(vertices, EMPTY)
    for v, nb in neighbours.items():
        out[v] = frozenset(nb)
    return out


def _check_acyclic(parents: dict, children: dict) -> None:
    """Raise :class:`CycleError` unless the edges given by ``parents`` and
    ``children`` (lists keyed by the edges' endpoints only) form no directed
    cycle.  Kahn's algorithm on a plain stack: the vertices it never frees
    are exactly those on or downstream of a cycle."""
    indeg = {v: len(p) for v, p in parents.items()}
    stack = [u for u in children if u not in indeg]
    while stack:
        for w in children.get(stack.pop(), ()):
            k = indeg[w] = indeg[w] - 1
            if not k:
                stack.append(w)
    # int(): numpy labels are named as plain numbers
    stuck = sorted(int(v) for v, k in indeg.items() if k)
    if stuck:
        raise CycleError(f"edges contain a directed cycle among vertices {stuck}")


class UndirectedGraph:
    """Simple undirected graph on vertices ``1..d``.

    Edges are stored canonically as pairs ``(u, v)`` with ``u < v``; the
    adjacency relation is symmetric and irreflexive.  Vertices without
    neighbours share the empty set :data:`EMPTY`.
    """

    __slots__ = ("_d", "_edges", "_adj")

    def __init__(self, d: int, edges: Iterable[Edge]):
        d = self._d = _check_count(d)
        # keyed by the edges' endpoints only; frozenset() drops repeats
        adj: dict[int, list[int]] = {}
        canon: set[Edge] = set()
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 < u <= d and 0 < v <= d):
                _check_vertex(u, d)
                _check_vertex(v, d)
            if u == v:
                raise VertexOutOfRange(f"self-loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
            if u in adj:
                adj[u].append(v)
            else:
                adj[u] = [v]
            if v in adj:
                adj[v].append(u)
            else:
                adj[v] = [u]
        self._edges = frozenset(canon)
        self._adj = _vertex_map(range(1, d + 1), adj)

    @property
    def d(self) -> int:
        return self._d

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    def neighbors(self, v: int) -> frozenset[int]:
        _check_vertex(v, self._d)
        return self._adj[v]

    def adjacent(self, u: int, v: int) -> bool:
        _check_vertex(u, self._d)
        _check_vertex(v, self._d)
        return v in self._adj[u]

    def separated(self, a: Iterable[int], b: Iterable[int], s: Iterable[int] = ()) -> bool:
        """True iff every path from ``a`` to ``b`` intersects ``s``."""
        A, B, S = set(a), set(b), set(s)
        for v in A | B | S:
            _check_vertex(v, self._d)
        seen = set(A)
        stack = [v for v in A if v not in S]
        while stack:
            v = stack.pop()
            if v in B:
                return False
            for w in self._adj[v]:
                if w in B:
                    return False
                if w not in seen and w not in S:
                    seen.add(w)
                    stack.append(w)
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self._d == other._d and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._d, self._edges))

    def __repr__(self) -> str:
        return f"UndirectedGraph(d={self._d}, edges={sorted(self._edges)})"


class Dag:
    """Directed acyclic graph on vertices ``1..d``.

    Parameters
    ----------
    d : int
        Number of vertices.
    edges : iterable of (int, int)
        Directed edges ``(u, v)`` meaning ``u -> v``.
    names : sequence of str, optional
        External display names, one per vertex.  Purely cosmetic; all
        algorithms operate on the integer labels.

    Construction checks the labels, repeated edges and acyclicity in Python
    work proportional to the number of edges.  Vertices without parents (or
    children) share the empty set :data:`EMPTY`.  The well-ordering is
    computed on the first read of :attr:`well_order` or :attr:`reach` and
    kept.

    Raises
    ------
    VertexOutOfRange, DuplicateEdgeError, CycleError
    """

    __slots__ = ("_d", "_edges", "_parents", "_children", "_well_order", "_names")

    def __init__(self, d: int, edges: Iterable[Edge] = (), names: Optional[Sequence[str]] = None):
        d = self._d = _check_count(d)
        # keyed by the edges' endpoints only; lists suffice, since a repeated
        # edge is rejected before it is appended
        parents: dict[int, list[int]] = {}
        children: dict[int, list[int]] = {}
        seen: set[Edge] = set()
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 < u <= d and 0 < v <= d):
                _check_vertex(u, d)
                _check_vertex(v, d)
            if u == v:
                raise CycleError(f"self-loop at vertex {u}")
            # one hash per edge: a repeated edge leaves the set's size as it was
            n = len(seen)
            seen.add((u, v))
            if len(seen) == n:
                raise DuplicateEdgeError(f"edge ({u}, {v}) given twice")
            if v in parents:
                parents[v].append(u)
            else:
                parents[v] = [u]
            if u in children:
                children[u].append(v)
            else:
                children[u] = [v]
        self._edges = frozenset(seen)
        _check_acyclic(parents, children)
        self._parents = _vertex_map(range(1, d + 1), parents)
        # reuses _parents' key objects: one int object per vertex, not two
        self._children = _vertex_map(self._parents, children)
        self._well_order = None
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != self._d:
                raise DimensionMismatch(f"got {len(names)} names for {self._d} vertices")
        self._names = names

    # --- basic accessors -------------------------------------------------

    @property
    def d(self) -> int:
        return self._d

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    @property
    def well_order(self) -> tuple[int, ...]:
        """The topological order that takes the smallest available label
        first; computed on the first read and kept."""
        if self._well_order is None:
            indeg = {v: len(p) for v, p in self._parents.items() if p}
            # in label order, so already a heap
            heap = [v for v in range(1, self._d + 1) if v not in indeg]
            order = []
            while heap:
                v = heapq.heappop(heap)
                order.append(v)
                for w in self._children[v]:
                    indeg[w] -= 1
                    if not indeg[w]:
                        heapq.heappush(heap, w)
            self._well_order = tuple(order)
        return self._well_order

    @property
    def reach(self) -> np.ndarray:
        """Read-only boolean reachability matrix: ``reach[v-1, u-1]`` is
        True iff ``u == v`` or a directed path ``u ~> v`` exists.

        Computed afresh on each read, in O(d·|E|) time and a d×d array;
        a caller that needs it more than once keeps the result.
        """
        reach = np.zeros((self._d, self._d), dtype=bool)
        for v in self.well_order:
            row = reach[v - 1]
            row[v - 1] = True
            for u in self._parents[v]:
                np.logical_or(row, reach[u - 1], out=row)
        reach.flags.writeable = False
        return reach

    @property
    def names(self) -> Optional[tuple[str, ...]]:
        return self._names

    def parents(self, v: int) -> frozenset[int]:
        if type(v) is int:
            try:
                return self._parents[v]
            except KeyError:
                pass
        _check_vertex(v, self._d)
        return self._parents[v]

    def children(self, v: int) -> frozenset[int]:
        if type(v) is int:
            try:
                return self._children[v]
            except KeyError:
                pass
        _check_vertex(v, self._d)
        return self._children[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges

    def adjacent(self, u: int, v: int) -> bool:
        return (u, v) in self._edges or (v, u) in self._edges

    # --- derived vertex sets ---------------------------------------------

    def _walk(self, step: dict[int, frozenset[int]], start: Iterable[int]) -> frozenset[int]:
        """``start`` and every vertex reached from it along ``step``, a map
        from each vertex to its parents, its children or its neighbours."""
        stack = list(start)
        for v in stack:
            _check_vertex(v, self._d)
        out = set(stack)
        while stack:
            for u in step[stack.pop()]:
                if u not in out:
                    out.add(u)
                    stack.append(u)
        return frozenset(out)

    def ancestors(self, v: int) -> frozenset[int]:
        """Strict ancestors of ``v`` (vertices with a directed path to it)."""
        return self._walk(self._parents, (v,)) - {v}

    def descendants(self, v: int) -> frozenset[int]:
        """Strict descendants of ``v``."""
        return self._walk(self._children, (v,)) - {v}

    def ancestral_closure(self, vertices: Iterable[int]) -> frozenset[int]:
        """Smallest ancestral set containing ``vertices``.

        The result contains the given vertices and all of their ancestors,
        so it is closed under taking parents.
        """
        return self._walk(self._parents, vertices)

    # --- derived graphs ---------------------------------------------------

    def skeleton(self) -> UndirectedGraph:
        """Undirected version of the graph (directions dropped)."""
        return UndirectedGraph(self._d, self._edges)

    def moral_graph(self) -> UndirectedGraph:
        """Skeleton plus an edge between every two parents of a common child."""
        edges = set(self._edges)
        for pa in self._parents.values():
            if len(pa) > 1:
                edges.update(combinations(pa, 2))
        return UndirectedGraph(self._d, edges)

    def unshielded_colliders(self) -> frozenset[tuple[int, int, int]]:
        """All triples ``(u, w, v)`` with ``u -> w <- v``, ``u`` and ``v``
        non-adjacent, canonically ordered so that ``u < v``."""
        out: set[tuple[int, int, int]] = set()
        for w in range(1, self._d + 1):
            for u, v in combinations(sorted(self._parents[w]), 2):
                if not self.adjacent(u, v):
                    out.add((u, w, v))
        return frozenset(out)

    def is_polytree(self) -> bool:
        """True iff the skeleton is a forest (at most one path between any
        two vertices)."""
        step = {v: self._parents[v] | self._children[v] for v in range(1, self._d + 1)}
        seen: set[int] = set()
        components = 0
        for start in range(1, self._d + 1):
            if start not in seen:
                components += 1
                seen |= self._walk(step, (start,))
        return len(self._edges) == self._d - components

    # --- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._d == other._d and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._d, self._edges))

    def __repr__(self) -> str:
        return f"Dag(d={self._d}, edges={sorted(self._edges)})"


def markov_equivalent(g1: Dag, g2: Dag) -> bool:
    """Whether two DAGs induce the same separation independence model.

    Equivalent iff they share the skeleton and the unshielded colliders.
    """
    if g1.d != g2.d:
        raise DimensionMismatch(f"vertex counts differ: {g1.d} vs {g2.d}")
    return (
        g1.skeleton() == g2.skeleton()
        and g1.unshielded_colliders() == g2.unshielded_colliders()
    )
