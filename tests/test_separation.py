import re
import tracemalloc
from math import comb

import numpy as np
import pytest

from maxlinbn import (
    Dag,
    IndependenceStatement,
    NonDisjointQuery,
    SizeLimitExceeded,
    VertexOutOfRange,
    d_separated,
    enumerate_independences,
    m_separated,
    markov_statements,
)

from helpers import d_separated_by_paths, random_dag, random_disjoint_triple


class TestDSeparation:
    def test_diamond_tail_blocked_by_source(self, diamond_tail):
        assert d_separated(diamond_tail, {2}, {3}, {1})

    def test_diamond_tail_opened_by_collider_descendant(self, diamond_tail):
        assert not d_separated(diamond_tail, {2}, {3}, {1, 5})

    def test_disconnected_vertices(self):
        g = Dag(4, [(1, 2)])
        assert d_separated(g, {1}, {3})
        assert d_separated(g, {1, 2}, {3, 4})

    def test_adjacent_never_separated(self):
        g = Dag(2, [(1, 2)])
        assert not d_separated(g, {1}, {2})

    def test_collider_blocks_without_conditioning(self):
        g = Dag(3, [(1, 2), (3, 2)])
        assert d_separated(g, {1}, {3})
        assert not d_separated(g, {1}, {3}, {2})

    def test_set_valued_sides(self, diamond_tail):
        assert not d_separated(diamond_tail, {2, 3}, {5})
        assert d_separated(diamond_tail, {2, 3}, {5}, {4})

    def test_validation(self, diamond_tail):
        with pytest.raises(NonDisjointQuery):
            d_separated(diamond_tail, {1}, {1})
        with pytest.raises(NonDisjointQuery):
            d_separated(diamond_tail, set(), {1})
        with pytest.raises(NonDisjointQuery):
            d_separated(diamond_tail, {2}, {3}, {3})
        with pytest.raises(VertexOutOfRange):
            d_separated(diamond_tail, {2}, {9})

    @pytest.mark.parametrize("oracle", [d_separated, m_separated])
    @pytest.mark.parametrize(
        "query, bad",
        [
            # a label the traversal never reaches
            (({1}, {3}, {2.5}), "2.5"),
            # True == 1, so a merged set would call the sides overlapping
            (({1}, {True}), "True"),
        ],
    )
    def test_labels_are_type_checked(self, oracle, query, bad):
        g = Dag(3, [(1, 2), (2, 3)])
        message = f"vertex labels must be integers, got {bad}"
        with pytest.raises(VertexOutOfRange, match="^" + re.escape(message) + "$"):
            oracle(g, *query)


class TestMSeparation:
    def test_moralization_route_blocked(self, diamond_tail):
        assert m_separated(diamond_tail, {2}, {3}, {1})

    def test_moralization_route_marries_parents(self, diamond_tail):
        # conditioning on {1,5} pulls 4 into the ancestral closure and the
        # moral marriage 2-3 connects the query sides
        assert not m_separated(diamond_tail, {2}, {3}, {1, 5})

    def test_single_edge(self):
        assert not m_separated(Dag(2, [(1, 2)]), {1}, {2})

    def test_agrees_with_d_separation_on_random_queries(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            d = int(rng.integers(2, 9))
            g = random_dag(rng, d, p=0.45)
            a, b, s = random_disjoint_triple(rng, d)
            assert d_separated(g, a, b, s) == m_separated(g, a, b, s)

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        for _ in range(80):
            d = int(rng.integers(2, 8))
            g = random_dag(rng, d, p=0.5)
            a, b, s = random_disjoint_triple(rng, d)
            assert d_separated(g, a, b, s) == d_separated(g, b, a, s)


class TestPathEnumerationOracle:
    def test_agrees_on_small_graphs(self):
        rng = np.random.default_rng(47)
        for _ in range(120):
            d = int(rng.integers(2, 8))
            g = random_dag(rng, d, p=0.5)
            a, b, s = random_disjoint_triple(rng, d)
            assert d_separated(g, a, b, s) == d_separated_by_paths(g, a, b, s)


class TestNetworkxOracle:
    @staticmethod
    def digraph(nx, g):
        G = nx.DiGraph()
        G.add_nodes_from(range(1, g.d + 1))
        G.add_edges_from(g.edges)
        return G

    def test_d_separated_on_set_valued_queries(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(71)
        for _ in range(200):
            d = int(rng.integers(2, 10))
            g = random_dag(rng, d, p=float(rng.uniform(0.2, 0.7)))
            a, b, s = random_disjoint_triple(rng, d, max_side=3, max_cond=4)
            assert d_separated(g, a, b, s) == nx.is_d_separator(self.digraph(nx, g), a, b, s)

    def test_enumerate_independences(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(73)
        for _ in range(30):
            d = int(rng.integers(2, 8))
            g = random_dag(rng, d, p=float(rng.uniform(0.2, 0.7)))
            G = self.digraph(nx, g)
            max_cond = int(rng.integers(0, d - 1))
            stmts = enumerate_independences(g, max_cond)
            assert len(stmts) == comb(d, 2) * sum(comb(d - 2, k) for k in range(max_cond + 1))
            assert len({(s.a, s.b, s.given) for s in stmts}) == len(stmts)
            for st in stmts:
                assert st.holds == nx.is_d_separator(G, st.a, st.b, st.given)
                assert st.holds == m_separated(g, st.a, st.b, st.given)


class TestMarkovStatements:
    def test_ordered_example(self, markov_props_dag):
        stmts = markov_statements(markov_props_dag, "ordered")
        assert IndependenceStatement({5}, {1, 3, 4}, {2}, True) in stmts

    def test_local_example(self, markov_props_dag):
        stmts = markov_statements(markov_props_dag, "local")
        assert IndependenceStatement({5}, {1, 3, 4, 6}, {2}, True) in stmts

    def test_local_chain(self):
        stmts = markov_statements(Dag(3, [(1, 2), (2, 3)]), "local")
        assert stmts == [IndependenceStatement({3}, {1}, {2}, True)]

    def test_vacuous_statements_omitted(self):
        # vertex 1 has no predecessors; vertex 2's predecessors are its parents
        stmts = markov_statements(Dag(2, [(1, 2)]), "ordered")
        assert stmts == []

    def test_unknown_kind(self, markov_props_dag):
        with pytest.raises(ValueError):
            markov_statements(markov_props_dag, "global")

    def test_all_statements_are_separations(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            g = random_dag(rng, int(rng.integers(2, 8)), p=0.5)
            for kind in ("ordered", "local"):
                for st in markov_statements(g, kind):
                    assert d_separated(g, st.a, st.b, st.given)


class TestEnumerate:
    @pytest.mark.parametrize("max_cond", [True, 2.5, 1.0, None])
    def test_non_integer_max_cond_rejected(self, max_cond):
        with pytest.raises(ValueError, match=re.escape(f"max_cond must be an integer, got {max_cond!r}")):
            enumerate_independences(Dag(3, [(1, 2)]), max_cond)

    def test_negative_max_cond_rejected(self):
        with pytest.raises(ValueError, match="max_cond must be nonnegative"):
            enumerate_independences(Dag(3, [(1, 2)]), -1)

    def test_numpy_integer_max_cond_accepted(self):
        g = Dag(4, [(1, 2), (2, 3), (3, 4)])
        assert enumerate_independences(g, np.int64(1)) == enumerate_independences(g, 1)

    def test_empty_graph_all_independent(self):
        stmts = enumerate_independences(Dag(3), max_cond=1)
        assert len(stmts) == 6
        assert all(st.holds for st in stmts)

    def test_collider_verdicts(self):
        stmts = enumerate_independences(Dag(3, [(1, 2), (3, 2)]), max_cond=1)
        assert IndependenceStatement({1}, {3}, set(), True) in stmts
        assert IndependenceStatement({1}, {3}, {2}, False) in stmts

    def test_markov_props_vertex5_vs_1_given_4(self, markov_props_dag):
        # the open path 1 -> 2 -> 5 makes {5} and {1} dependent given {4};
        # the corresponding statement for vertex 6 does hold
        stmts = enumerate_independences(markov_props_dag, max_cond=1)
        assert IndependenceStatement({5}, {1}, {4}, False) in stmts
        assert IndependenceStatement({5}, {1}, {4}, True) not in stmts
        assert not d_separated(markov_props_dag, {5}, {1}, {4})
        assert not m_separated(markov_props_dag, {5}, {1}, {4})
        assert not d_separated_by_paths(markov_props_dag, {5}, {1}, {4})
        assert d_separated(markov_props_dag, {6}, {1, 5}, {4})
        assert d_separated(markov_props_dag, {6}, {1, 2, 3, 5}, {4})

    def test_statement_symmetry_in_sides(self):
        a = IndependenceStatement({1}, {2, 3}, {4}, True)
        b = IndependenceStatement({2, 3}, {1}, {4}, True)
        assert a == b and hash(a) == hash(b)
        assert a != IndependenceStatement({1}, {2, 3}, {4}, False)

    def test_canonical_sorting_and_verdicts(self):
        rng = np.random.default_rng(59)
        cases = [(random_dag(rng, 6, p=0.5), 4)]
        for _ in range(40):
            d = int(rng.integers(1, 9))
            g = random_dag(rng, d, p=float(rng.uniform(0.1, 0.7)))
            cases.append((g, int(rng.integers(0, d + 1))))
        for g, max_cond in cases:
            stmts = enumerate_independences(g, max_cond)
            keys = [(min(s.a), min(s.b), len(s.given), sorted(s.given)) for s in stmts]
            assert keys == sorted(keys)
            for st in stmts:
                assert min(st.a) < min(st.b)
                assert st.holds == d_separated(g, st.a, st.b, st.given)

    def test_statements_share_their_sets(self):
        g = random_dag(np.random.default_rng(19), 6, p=0.5)
        stmts = enumerate_independences(g, max_cond=2)
        assert len({id(s.a) for s in stmts} | {id(s.b) for s in stmts}) == g.d
        given_ids: dict[tuple, set[int]] = {}
        for st in stmts:
            given_ids.setdefault((min(st.a), st.given), set()).add(id(st.given))
        assert all(len(ids) == 1 for ids in given_ids.values())

    def test_memory_stays_near_the_result(self):
        g = random_dag(np.random.default_rng(3), 14, p=0.3)
        tracemalloc.start()
        try:
            stmts = enumerate_independences(g, max_cond=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stmts) == 27209
        assert peak < 8 * 2**20

    def test_size_cap(self):
        # 435 * 2**28 triples: refused before any traversal
        with pytest.raises(SizeLimitExceeded, match="exceed the cap of 1000000"):
            enumerate_independences(Dag(30), max_cond=28)


class TestGraphoidAxiomsSmoke:
    def test_axioms_hold_on_random_instances(self):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(300):
            d = int(rng.integers(4, 8))
            g = random_dag(rng, d, p=0.5)
            verts = list(rng.permutation(d) + 1)
            a, b, c, dd = ({int(verts[i])} for i in range(4))
            sep = lambda x, y, z: d_separated(g, x, y, z)
            if sep(a, b, c):
                assert sep(b, a, c)
            if sep(a, b | dd, c):
                assert sep(a, b, c) and sep(a, dd, c)
                assert sep(a, b, c | dd)
            if sep(a, b, c) and sep(a, dd, b | c):
                assert sep(a, b | dd, c)
            if sep(a, b, c | dd) and sep(a, c, b | dd):
                assert sep(a, b | c, dd)
            checked += 1
        assert checked == 300
