import re
import tracemalloc

import numpy as np
import pytest

from maxlinbn import (
    CycleError,
    Dag,
    DimensionMismatch,
    DuplicateEdgeError,
    UndirectedGraph,
    VertexOutOfRange,
    markov_equivalent,
)

from helpers import random_dag, reorient_skeleton


class TestConstruction:
    def test_diamond(self, diamond):
        assert diamond.well_order == (1, 2, 3, 4)
        assert diamond.reach[3].tolist() == [True, True, True, True]
        assert diamond.parents(4) == {2, 3}
        assert diamond.children(1) == {2, 3}

    def test_single_vertex(self):
        g = Dag(1)
        assert g.edges == frozenset()
        assert g.reach.tolist() == [[True]]
        assert g.well_order == (1,)

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(2, [(1, 2), (2, 1)])

    def test_longer_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(4, [(1, 2), (2, 3), (3, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Dag(3, [(1, 2), (1, 2)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            Dag(3, [(1, 4)])
        with pytest.raises(VertexOutOfRange):
            Dag(3, [(0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            Dag(3, [(2, 2)])

    def test_labeling_need_not_be_well_ordered(self):
        g = Dag(3, [(3, 1), (1, 2)])
        assert g.well_order == (3, 1, 2)
        assert g.reach[1 - 1, 3 - 1]
        assert g.reach[2 - 1, 3 - 1]
        assert not g.reach[3 - 1, 1 - 1]

    def test_well_order_breaks_ties_by_smallest_label(self):
        g = Dag(4, [(2, 4), (3, 4)])
        assert g.well_order == (1, 2, 3, 4)

    def test_reach_lower_triangular_after_relabeling(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_dag(rng, int(rng.integers(2, 9)))
            idx = [v - 1 for v in g.well_order]
            relabeled = g.reach[np.ix_(idx, idx)]
            assert np.array_equal(relabeled, np.tril(relabeled))

    def test_reach_is_read_only_and_stable(self, diamond):
        first, second = diamond.reach, diamond.reach
        assert np.array_equal(first, second)
        with pytest.raises(ValueError):
            first[0, 3] = True

    def test_construction_allocates_no_d_by_d_array(self):
        d = 4000
        edges = [(v, v + 1) for v in range(1, d)]
        tracemalloc.start()
        try:
            Dag(d, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d // 2

    def test_construction_memory_grows_with_the_edges(self):
        # 20000 vertices, 10 edges: one map entry per vertex, no set per vertex
        d = 20000
        edges = [(v, v + 1) for v in range(1, 11)]
        for build, limit in ((Dag, 4e6), (UndirectedGraph, 2e6)):
            tracemalloc.start()
            try:
                build(d, edges)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < limit, (build.__name__, peak)

    def test_names_roundtrip_and_length_check(self):
        g = Dag(2, [(1, 2)], names=["a", "b"])
        assert g.names == ("a", "b")
        with pytest.raises(DimensionMismatch):
            Dag(2, [(1, 2)], names=["a"])

    def test_equality_and_hash(self, diamond):
        same = Dag(4, [(3, 4), (2, 4), (1, 3), (1, 2)])
        assert diamond == same
        assert hash(diamond) == hash(same)
        assert diamond != Dag(4, [(1, 2)])


def _exactly(message):
    return "^" + re.escape(message) + "$"


class TestLabelChecks:
    """The messages of bad labels and vertex counts, on both graph types and
    every accessor that takes a vertex."""

    EDGES = [(1, 2), (2, 3)]
    BAD_LABELS = [
        (True, "vertex labels must be integers, got True"),
        (1.0, "vertex labels must be integers, got 1.0"),
        (0, "vertex 0 outside 1..3"),
        (4, "vertex 4 outside 1..3"),
        (np.int64(0), "vertex 0 outside 1..3"),
        (np.int64(4), "vertex 4 outside 1..3"),
    ]

    def test_numpy_labels_give_the_same_graph(self):
        np_edges = [(np.int64(u), np.int64(v)) for u, v in self.EDGES]
        for build in (Dag, UndirectedGraph):
            g = build(np.int64(3), np_edges)
            assert g == build(3, self.EDGES) and hash(g) == hash(build(3, self.EDGES))
            assert type(g.d) is int and g.d == 3
        g = Dag(3, np_edges)
        assert g.well_order == (1, 2, 3)
        assert g.parents(np.int64(2)) == {1} and g.children(np.int64(2)) == {3}
        assert UndirectedGraph(3, np_edges).neighbors(np.int64(2)) == {1, 3}

    @pytest.mark.parametrize("bad, message", BAD_LABELS)
    def test_bad_label_in_an_edge(self, bad, message):
        for build in (Dag, UndirectedGraph):
            for edge in ((bad, 2), (2, bad)):
                with pytest.raises(VertexOutOfRange, match=_exactly(message)):
                    build(3, [(1, 2), edge])

    @pytest.mark.parametrize("bad, message", BAD_LABELS)
    def test_bad_label_at_an_accessor(self, bad, message):
        g, u = Dag(3, self.EDGES), UndirectedGraph(3, self.EDGES)
        for accessor in (g.parents, g.children, u.neighbors):
            with pytest.raises(VertexOutOfRange, match=_exactly(message)):
                accessor(bad)

    @pytest.mark.parametrize("bad, message", BAD_LABELS)
    def test_bad_label_in_a_separation_query(self, bad, message):
        u = UndirectedGraph(3, self.EDGES)
        for query in (([1, bad], [3], [2]), ([1], [3, bad], [2]), ([1], [3], [2, bad])):
            with pytest.raises(VertexOutOfRange, match=_exactly(message)):
                u.separated(*query)

    def test_first_bad_edge_reports(self):
        for build in (Dag, UndirectedGraph):
            with pytest.raises(VertexOutOfRange, match=_exactly("vertex 4 outside 1..3")):
                build(3, [(1, 4), (True, 2)])
            with pytest.raises(
                VertexOutOfRange, match=_exactly("vertex labels must be integers, got True")
            ):
                build(3, [(True, 2), (1, 4)])
        with pytest.raises(DuplicateEdgeError, match=_exactly("edge (1, 2) given twice")):
            Dag(3, [(1, 2), (1, 2), (1, 4)])
        with pytest.raises(CycleError, match=_exactly("self-loop at vertex 2")):
            Dag(3, [(2, 2), (1, 4)])

    @pytest.mark.parametrize("d", [True, 2.0, "3", 0, -1, np.int64(0)])
    def test_vertex_count_must_be_a_positive_integer(self, d):
        message = f"vertex count must be a positive integer, got {d!r}"
        for build in (Dag, UndirectedGraph):
            with pytest.raises(VertexOutOfRange, match=_exactly(message)):
                build(d, [])


class TestDerivedSets:
    def test_ancestral_closure_diamond_sink(self, diamond):
        assert diamond.ancestral_closure({4}) == {1, 2, 3, 4}

    def test_ancestral_closure_source(self, diamond):
        assert diamond.ancestral_closure({1}) == {1}

    def test_ancestral_closure_polytree(self, polytree_six):
        assert polytree_six.ancestral_closure({3, 5}) == {1, 2, 3, 5}

    def test_ancestral_closure_is_ancestral(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = random_dag(rng, 7)
            a = {int(v) for v in rng.choice(7, size=2, replace=False) + 1}
            closed = g.ancestral_closure(a)
            assert a <= closed
            for v in closed:
                assert g.parents(v) <= closed

    def test_ancestors_descendants(self, diamond):
        assert diamond.ancestors(4) == {1, 2, 3}
        assert diamond.descendants(1) == {2, 3, 4}
        assert diamond.ancestors(1) == frozenset()

    def test_vertex_out_of_range(self, diamond):
        with pytest.raises(VertexOutOfRange):
            diamond.ancestral_closure({5})


class TestDerivedGraphs:
    def test_moral_graph_polytree(self, polytree_six):
        moral = polytree_six.moral_graph()
        assert moral == UndirectedGraph(
            6, [(1, 3), (2, 3), (3, 5), (4, 6), (5, 6), (1, 2), (4, 5)]
        )

    def test_moral_graph_chain_adds_nothing(self):
        chain = Dag(3, [(1, 2), (2, 3)])
        assert chain.moral_graph() == UndirectedGraph(3, [(1, 2), (2, 3)])

    def test_moral_graph_diamond_tail(self, diamond_tail):
        moral = diamond_tail.moral_graph()
        expected = set(map(frozenset, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 3)]))
        assert {frozenset(e) for e in moral.edges} == expected

    def test_moral_contains_skeleton(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_dag(rng, 7)
            assert g.skeleton().edges <= g.moral_graph().edges

    def test_skeleton_chain(self):
        assert Dag(3, [(1, 2), (2, 3)]).skeleton() == UndirectedGraph(3, [(1, 2), (2, 3)])

    def test_skeleton_collider_same_as_chain(self):
        collider = Dag(3, [(1, 2), (3, 2)])
        chain = Dag(3, [(1, 2), (2, 3)])
        assert collider.skeleton() == chain.skeleton()

    def test_skeleton_diamond_is_four_cycle(self, diamond):
        assert diamond.skeleton() == UndirectedGraph(4, [(1, 2), (1, 3), (2, 4), (3, 4)])

    def test_colliders_single(self):
        assert Dag(3, [(1, 2), (3, 2)]).unshielded_colliders() == {(1, 2, 3)}

    def test_colliders_diamond(self, diamond):
        assert diamond.unshielded_colliders() == {(2, 4, 3)}

    def test_colliders_chain_none(self):
        assert Dag(3, [(1, 2), (2, 3)]).unshielded_colliders() == frozenset()

    def test_shielded_collider_excluded(self):
        g = Dag(3, [(1, 3), (2, 3), (1, 2)])
        assert g.unshielded_colliders() == frozenset()


class TestNetworkxOracles:
    @staticmethod
    def digraph(nx, d, edges):
        G = nx.DiGraph()
        G.add_nodes_from(range(1, d + 1))
        G.add_edges_from(edges)
        return G

    def test_well_order_is_the_lexicographic_topological_sort(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(53)
        for i in range(120):
            # a shuffled DAG, relabeled into a larger vertex set, so that
            # isolated vertices sit at random labels
            g = random_dag(rng, int(rng.integers(1, 12)), p=float(rng.uniform(0.1, 0.6)))
            d = g.d + int(rng.integers(0, 5))
            perm = [int(v) for v in rng.permutation(d) + 1]
            g = Dag(d, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            expected = tuple(nx.lexicographical_topological_sort(self.digraph(nx, d, g.edges)))
            if i % 2:
                # first read before reach, which then reuses the kept order
                assert g.well_order == expected
            assert np.array_equal(g.reach, TestReachabilityOracle._reach_by_squaring(g))
            assert g.well_order == expected

    def test_cycle_error_names_the_vertices_on_or_below_a_cycle(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 100:
            d = int(rng.integers(2, 12))
            pairs = rng.integers(1, d + 1, size=(int(rng.integers(1, 2 * d + 1)), 2))
            edges = list({(int(u), int(v)) for u, v in pairs if u != v})
            edges = [edges[k] for k in rng.permutation(len(edges))]
            G = self.digraph(nx, d, edges)
            on_cycle = set().union(
                *(c for c in nx.strongly_connected_components(G) if len(c) > 1)
            )
            if not on_cycle:
                assert Dag(d, edges).edges == set(edges)
                continue
            stuck = on_cycle.union(*(nx.descendants(G, v) for v in on_cycle))
            message = f"edges contain a directed cycle among vertices {sorted(stuck)}"
            with pytest.raises(CycleError, match=_exactly(message)):
                Dag(d, edges)
            checked += 1

    def test_moral_graph_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(61)
        for _ in range(80):
            g = random_dag(rng, int(rng.integers(1, 12)), p=float(rng.uniform(0.05, 0.6)))
            M = nx.moral_graph(self.digraph(nx, g.d, g.edges))
            moral = g.moral_graph()
            assert moral == UndirectedGraph(g.d, M.edges())
            for v in range(1, g.d + 1):
                assert moral.neighbors(v) == set(M[v])


class TestPolytree:
    def test_polytree_example(self, polytree_six):
        assert polytree_six.is_polytree()

    def test_diamond_not_polytree(self, diamond):
        assert not diamond.is_polytree()

    def test_edgeless_is_polytree(self):
        assert Dag(4).is_polytree()

    def test_forest_is_polytree(self):
        assert Dag(5, [(1, 2), (3, 4)]).is_polytree()


class TestReachabilityOracle:
    @staticmethod
    def _reach_by_squaring(g):
        a = np.eye(g.d, dtype=bool)
        for u, v in g.edges:
            a[v - 1, u - 1] = True
        for _ in range(g.d):
            a = (a.astype(np.int64) @ a.astype(np.int64)) > 0
        return a

    def test_reach_matches_boolean_squaring(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            g = random_dag(rng, int(rng.integers(1, 9)), p=0.5)
            assert np.array_equal(g.reach, self._reach_by_squaring(g))


class TestMarkovEquivalence:
    def test_chain_vs_reversed_chain(self):
        assert markov_equivalent(Dag(3, [(1, 2), (2, 3)]), Dag(3, [(3, 2), (2, 1)]))

    def test_chain_vs_collider(self):
        assert not markov_equivalent(Dag(3, [(1, 2), (2, 3)]), Dag(3, [(1, 2), (3, 2)]))

    def test_reflexive(self, diamond):
        assert markov_equivalent(diamond, diamond)

    def test_dimension_mismatch(self, diamond):
        with pytest.raises(DimensionMismatch):
            markov_equivalent(diamond, Dag(3, [(1, 2)]))

    def test_equivalence_relation_on_shared_skeletons(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            g1 = random_dag(rng, 6, p=0.45)
            g2 = reorient_skeleton(rng, g1)
            g3 = reorient_skeleton(rng, g1)
            assert markov_equivalent(g1, g1)
            assert markov_equivalent(g1, g2) == markov_equivalent(g2, g1)
            if markov_equivalent(g1, g2) and markov_equivalent(g2, g3):
                assert markov_equivalent(g1, g3)
