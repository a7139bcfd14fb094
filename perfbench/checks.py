"""Independent checks of every benchmark operation's output.

Each ``check_*`` function raises :class:`CheckFailed` when an output is
wrong.  References are computed here, not by the code under test, wherever
an independent computation is cheap: best-path matrices by a sweep along a
topological order, samples re-read with ``numpy.loadtxt``, and separation
verdicts from ``networkx.is_d_separator``.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations

import numpy as np

# The package's single tolerance for ties between path weights.
from maxlinbn.tropical import DEFAULT_RTOL


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def close(a, b, rtol: float = DEFAULT_RTOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)))
    )


def topological_order(d: int, edges) -> list[int]:
    children = {v: [] for v in range(1, d + 1)}
    indeg = {v: 0 for v in range(1, d + 1)}
    for u, v in edges:
        children[u].append(v)
        indeg[v] += 1
    queue = deque(v for v in range(1, d + 1) if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != d:
        raise CheckFailed("edge set is cyclic")
    return order


def best_path_matrix(d: int, weights: dict) -> np.ndarray:
    """``B[v-1, u-1]`` = largest product of weights over paths ``u ~> v``,
    by one sweep along a topological order: row ``v`` is the maximum of the
    unit vector and ``c_vu * B[u]`` over the parents ``u``."""
    parents = {v: [] for v in range(1, d + 1)}
    for (u, v), w in weights.items():
        parents[v].append((u, w))
    B = np.eye(d)
    for v in topological_order(d, weights):
        for u, w in parents[v]:
            np.maximum(B[v - 1], w * B[u - 1], out=B[v - 1])
    return B


def weight_matrix(d: int, weights: dict) -> np.ndarray:
    C = np.eye(d)
    for (u, v), w in weights.items():
        C[v - 1, u - 1] = w
    return C


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def parse_json_lines(text: str) -> dict:
    """Merge the one-object-per-line JSON that ``estimate --json`` prints."""
    merged = {}
    for line in text.splitlines():
        obj = parse_json(line)
        if not isinstance(obj, dict):
            raise CheckFailed(f"expected a JSON object per line, got {line[:40]!r}")
        merged.update(obj)
    return merged


def dag_json_weights(obj) -> dict:
    try:
        return {(int(e["from"]), int(e["to"])): float(e["weight"]) for e in obj["edges"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed DAG JSON: {exc}") from exc


def _matrix(obj, key: str, d: int) -> np.ndarray:
    try:
        m = np.asarray(obj[key], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"output lacks a numeric matrix {key!r}: {exc}") from exc
    if m.shape != (d, d):
        raise CheckFailed(f"{key} has shape {m.shape}, expected {(d, d)}")
    return m


def _edge_diff(got: set, want: set) -> str:
    return f"missing {sorted(want - got)[:5]}, extra {sorted(got - want)[:5]}"


# --- learn ----------------------------------------------------------------


def check_learn(out: str, ref_edges: set, ref_b: np.ndarray) -> None:
    """The identified DAG is the minimal DAG of the model, and ``B_check``
    equals the model's coefficient matrix (zero where nothing is reachable)."""
    obj = parse_json(out)
    try:
        got = {(int(e["from"]), int(e["to"])) for e in obj["dag"]["edges"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"learn output lacks a DAG: {exc}") from exc
    if got != ref_edges:
        raise CheckFailed(f"identified DAG differs: {_edge_diff(got, ref_edges)}")
    if not close(_matrix(obj, "B_check", ref_b.shape[0]), ref_b):
        raise CheckFailed("B_check differs from the model's coefficient matrix")


# --- fit ------------------------------------------------------------------


def check_closure(out: str, ref_b: np.ndarray) -> np.ndarray:
    b = _matrix(parse_json(out), "B", ref_b.shape[0])
    if not close(b, ref_b):
        raise CheckFailed("closure output differs from the best-path sweep")
    return b


def check_minimize(out: str, b: np.ndarray) -> None:
    """Re-closing the minimal DAG's weights gives back ``b``."""
    weights = dag_json_weights(parse_json(out))
    if not close(best_path_matrix(b.shape[0], weights), b):
        raise CheckFailed("closure of the minimal DAG differs from B")


def read_csv(path: str, n: int, d: int) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(f"x{j}" for j in range(1, d + 1)):
            raise CheckFailed(f"unexpected CSV header {header[:40]!r}")
        x = np.loadtxt(fh, delimiter=",", ndmin=2)
    if x.shape != (n, d):
        raise CheckFailed(f"sample has shape {x.shape}, expected {(n, d)}")
    return x


def check_recursion(x: np.ndarray, z: np.ndarray, d: int, weights: dict) -> None:
    """Every row satisfies ``X_v = max(max_u c_vu X_u, Z_v)``."""
    expect = z.copy()
    for (u, v), w in weights.items():
        np.maximum(expect[:, v - 1], w * x[:, u - 1], out=expect[:, v - 1])
    bad = np.argwhere(np.abs(x - expect) > DEFAULT_RTOL * np.maximum(x, expect))
    if len(bad):
        raise CheckFailed(f"{len(bad)} sample entries break the recursion, first {bad[0]}")


def check_gmle(out: str, d: int, weights: dict) -> np.ndarray:
    """``C_hat >= C`` on every edge, zero off the edges, and ``B_hat`` is
    the closure of ``C_hat``.  Returns ``B_hat``."""
    obj = parse_json_lines(out)
    c_hat = _matrix(obj, "C_hat", d)
    b_hat = _matrix(obj, "B_hat", d)
    c = weight_matrix(d, weights)
    edge = c > 0
    if np.any(c_hat[edge] < c[edge] * (1 - DEFAULT_RTOL)):
        raise CheckFailed("a GMLE edge weight lies below the true weight")
    if np.any(c_hat[~edge] != 0):
        raise CheckFailed("GMLE weight on a non-edge")
    est = {(u, v): float(c_hat[v - 1, u - 1]) for u, v in weights}
    if not close(b_hat, best_path_matrix(d, est)):
        raise CheckFailed("B_hat is not the closure of C_hat")
    return b_hat


def check_alt(out: str, b_hat: np.ndarray) -> None:
    """The ancestor-ratio estimate is never below the GMLE closure."""
    b_tilde = _matrix(parse_json(out), "B_tilde", b_hat.shape[0])
    if np.any(b_tilde < b_hat * (1 - DEFAULT_RTOL)):
        raise CheckFailed("B_tilde lies below the GMLE closure")
    if np.any((b_tilde > 0) != (b_hat > 0)):
        raise CheckFailed("B_tilde and B_hat differ in sign pattern")


# --- separation -----------------------------------------------------------


class SeparationOracle:
    """networkx verdicts and expected Markov statements for one DAG."""

    def __init__(self, d: int, edges):
        import networkx as nx

        self._nx = nx
        self.d = d
        self.g = nx.DiGraph()
        self.g.add_nodes_from(range(1, d + 1))
        self.g.add_edges_from(edges)

    def separated(self, a, b, s) -> bool:
        return self._nx.is_d_separator(self.g, set(a), set(b), set(s))

    def statements(self, kind: str) -> set:
        nx = self._nx
        out = set()
        order = list(nx.lexicographical_topological_sort(self.g))
        position = {v: i for i, v in enumerate(order)}
        for v in range(1, self.d + 1):
            pa = set(self.g.predecessors(v))
            if kind == "ordered":
                rest = {u for u in order if position[u] < position[v]} - pa
            else:
                rest = set(range(1, self.d + 1)) - {v} - nx.descendants(self.g, v) - pa
            if rest:
                out.add((frozenset({v}), frozenset(rest), frozenset(pa)))
        return out

    def connected(self, x: int, s) -> set:
        """Vertices d-connected to ``x`` given ``s``, by one reachability
        pass over (vertex, direction) states (the "Bayes ball" rules)."""
        s = set(s)
        anc, stack = set(), list(s)
        while stack:
            v = stack.pop()
            if v not in anc:
                anc.add(v)
                stack.extend(self.g.predecessors(v))
        seen, reach = set(), set()
        stack = [(x, True)]  # True: arrived from a child, so moving up
        while stack:
            v, up = stack.pop()
            if (v, up) in seen:
                continue
            seen.add((v, up))
            if v not in s:
                reach.add(v)
                stack.extend((c, False) for c in self.g.successors(v))
                if up:
                    stack.extend((p, True) for p in self.g.predecessors(v))
            if not up and v in anc:
                stack.extend((p, True) for p in self.g.predecessors(v))
        return reach

    def independences(self, max_cond: int) -> list:
        """Every ``(x, y, S, verdict)`` that ``enumerate_independences``
        lists, with one :meth:`connected` pass per ``(x, S)``."""
        verts = range(1, self.d + 1)
        out = []
        for x, y in combinations(verts, 2):
            rest = [v for v in verts if v != x and v != y]
            for k in range(min(max_cond, self.d - 2) + 1):
                for s in combinations(rest, k):
                    out.append((x, y, frozenset(s)))
        cache = {}
        verdicts = []
        for x, y, s in out:
            if (x, s) not in cache:
                cache[(x, s)] = self.connected(x, s)
            verdicts.append((x, y, s, y not in cache[(x, s)]))
        return verdicts


def check_query(out: str, expected: bool) -> None:
    obj = parse_json(out)
    for key in ("d-separated", "m-separated"):
        if obj.get(key) is not expected:
            raise CheckFailed(f"{key} is {obj.get(key)}, networkx says {expected}")


def check_statements(out: str, expected: set) -> None:
    obj = parse_json(out)
    try:
        got = {(frozenset(s["a"]), frozenset(s["b"]), frozenset(s["given"])) for s in obj}
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"malformed statements: {exc}") from exc
    if len(got) != len(obj) or got != expected:
        raise CheckFailed(f"{len(got ^ expected)} statements differ from the expected set")


def check_independences(stmts, expected: list) -> None:
    """Same triples, in any order, each with the reference verdict."""
    got = sorted(
        (min(s.a), min(s.b), tuple(sorted(s.given)), s.holds) for s in stmts
    )
    want = sorted((x, y, tuple(sorted(s)), h) for x, y, s, h in expected)
    if got != want:
        wrong = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
        raise CheckFailed(f"{wrong} independence statements differ from the reference")


def verify_statements_hold(oracle: SeparationOracle, statements: set) -> None:
    """Every expected Markov statement is a d-separation under networkx."""
    for a, b, given in statements:
        if not oracle.separated(a, b, given):
            raise CheckFailed(f"statement {sorted(a)} _|_ {sorted(b)[:5]}... does not hold")
