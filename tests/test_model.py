import re
import tracemalloc
import warnings

import numpy as np
import pytest

from maxlinbn import (
    Dag,
    DimensionMismatch,
    ExtraneousWeight,
    IncompatibleDag,
    InvalidCoefficientMatrix,
    InvalidWeightMatrix,
    MaxLinError,
    MaxLinearModel,
    MissingEdgeWeight,
    NoiseSpec,
    NonPositiveWeight,
    VertexOutOfRange,
    WeightKind,
    admissible_weights,
    closure,
    assemble_weight_matrix,
    marginal_rows,
    matrices_close,
    minimal_dag,
    noise_matrix,
    propagate,
)

from helpers import (
    log_uniform,
    minimal_dag_by_pairs,
    noise_by_scalars,
    random_dag,
    random_polytree,
    random_weighted_dag,
)


class TestConstruction:
    def test_diamond_coefficients(self, diamond_model):
        assert diamond_model.B[3].tolist() == [max(0.3, 0.9 * 0.8), 0.6, 0.9, 1.0]
        assert np.array_equal(diamond_model.B > 0, np.asarray(diamond_model.graph.reach))

    def test_single_vertex(self):
        m = MaxLinearModel(Dag(1), {})
        assert m.B.tolist() == [[1.0]]

    def test_zero_weight_rejected(self, diamond):
        with pytest.raises(NonPositiveWeight):
            MaxLinearModel(diamond, {(1, 2): 0.0, (1, 3): 0.8, (2, 4): 0.6, (3, 4): 0.9})

    def test_missing_weight_rejected(self, diamond):
        with pytest.raises(MissingEdgeWeight):
            MaxLinearModel(diamond, {(1, 2): 0.5})

    def test_extraneous_weight_rejected(self, diamond, diamond_weights):
        diamond_weights[(1, 4)] = 0.1
        with pytest.raises(ExtraneousWeight):
            MaxLinearModel(diamond, diamond_weights)

    def test_matrices_are_frozen(self, diamond_model):
        with pytest.raises(ValueError):
            diamond_model.B[0, 0] = 2.0


class TestPropagate:
    def test_all_ones_noise_gives_row_maxima(self, diamond_model):
        x = propagate(diamond_model.B, np.ones((1, 4)))
        assert np.array_equal(x[0], diamond_model.B.max(axis=1))
        assert x[0, 3] == 1.0

    def test_selective_noise(self, diamond_model):
        x = propagate(diamond_model.B, np.array([[1.0, 1.0, 1.0, 0.1]]))
        assert x[0, 3] == 0.9

    def test_weights_and_coefficients_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            g, w = random_weighted_dag(rng, int(rng.integers(1, 12)), p=0.5)
            m = MaxLinearModel(g, w)
            z = noise_matrix(NoiseSpec.frechet(1.0, 5), 50, g.d)
            assert matrices_close(propagate(m.C, z), propagate(m.B, z), rtol=1e-12)

    def test_cyclic_pattern_rejected(self):
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(InvalidWeightMatrix):
            propagate(c, np.ones((1, 2)))

    def test_non_unit_diagonal_rejected(self, diamond_model):
        c = np.array(diamond_model.C)
        c[2, 2] = 2.0
        with pytest.raises(InvalidWeightMatrix):
            propagate(c, np.ones((1, 4)))

    def test_width_mismatch_rejected(self, diamond_model):
        with pytest.raises(DimensionMismatch):
            propagate(diamond_model.C, np.ones((3, 5)))

    def test_memory_linear_in_sample(self):
        n, d = 500, 100
        g, w = random_weighted_dag(np.random.default_rng(8), d, p=0.1)
        c = MaxLinearModel(g, w).C
        z = noise_matrix(NoiseSpec.frechet(1.0, 2), n, d)
        tracemalloc.start()
        try:
            propagate(c, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an (n, d, d) temporary would take n * d * d * 8 bytes
        assert peak < 4 * n * d * 8


SEEDS = [0, 1, 42, 2**32 - 1, 2**32, -1, 2**63 + 5, 2**64 - 1, 2**70 + 3]


def noise_specs(seed):
    return [
        NoiseSpec.frechet(1.0, seed),
        NoiseSpec.frechet(2.5, seed),
        NoiseSpec.frechet(0.5, seed),
        NoiseSpec.lognormal(0.3, 1.7, seed),
    ]


class TestSampling:
    def test_single_vertex_is_noise_itself(self):
        m = MaxLinearModel(Dag(1), {})
        spec = NoiseSpec.frechet(1.0, 99)
        x = m.sample(5, spec)
        assert np.array_equal(x, noise_matrix(spec, 5, 1))

    def test_support_cone(self, diamond_model):
        x = diamond_model.sample(10_000, NoiseSpec.frechet(1.0, 7))
        b = diamond_model.B
        slack = 1.0 - 2.0**-50
        for v in range(4):
            for u in range(4):
                if u != v and b[v, u] > 0:
                    assert np.all(x[:, v] >= slack * b[v, u] * x[:, u])
        assert np.all(x[:, 3] >= slack * b[3, 0] * x[:, 0])
        assert np.all(x[:, 1] >= slack * 0.5 * x[:, 0])

    def test_edge_atoms_present(self, diamond_model):
        x = diamond_model.sample(10_000, NoiseSpec.frechet(1.0, 7))
        c = diamond_model.C
        for u, v in diamond_model.graph.edges:
            ratio = x[:, v - 1] / x[:, u - 1]
            hits = np.sum(np.abs(ratio - c[v - 1, u - 1]) <= 1e-12 * ratio)
            assert hits > 0
            assert hits >= 0.01 * x.shape[0]

    def test_rows_satisfy_the_recursion_exactly(self):
        rng = np.random.default_rng(37)
        for k in range(20):
            g, w = random_weighted_dag(rng, int(rng.integers(1, 12)), p=0.5)
            m = MaxLinearModel(g, w)
            spec = NoiseSpec.frechet(1.0, k)
            x = m.sample(40, spec)
            z = noise_matrix(spec, 40, g.d)
            for v in range(1, g.d + 1):
                expected = z[:, v - 1]
                for u in g.parents(v):
                    expected = np.maximum(expected, m.C[v - 1, u - 1] * x[:, u - 1])
                assert np.array_equal(x[:, v - 1], expected)

    def test_deterministic_and_prefix_stable(self, diamond_model):
        spec = NoiseSpec.frechet(1.0, 42)
        x1 = diamond_model.sample(30, spec)
        x2 = diamond_model.sample(30, spec)
        assert np.array_equal(x1, x2)
        # one stream filled row by row: a longer run extends a shorter one
        x3 = diamond_model.sample(10, spec)
        assert np.array_equal(x1[:10], x3)

    def test_lognormal_family(self, diamond_model):
        x = diamond_model.sample(500, NoiseSpec.lognormal(0.0, 1.0, 3))
        assert x.shape == (500, 4)
        assert np.all(x > 0)

    def test_seed_changes_sample(self, diamond_model):
        a = diamond_model.sample(20, NoiseSpec.frechet(1.0, 1))
        b = diamond_model.sample(20, NoiseSpec.frechet(1.0, 2))
        assert not np.array_equal(a, b)

    def test_bad_n(self, diamond_model):
        with pytest.raises(ValueError):
            diamond_model.sample(0, NoiseSpec.frechet(1.0, 7))

    @pytest.mark.parametrize("n", [True, False, 2.5, 3.0, "3"])
    def test_non_integer_n_rejected(self, diamond_model, n):
        spec = NoiseSpec.frechet(1.0, 7)
        message = re.escape(f"n must be an integer, got {n!r}")
        with pytest.raises(ValueError, match=message):
            diamond_model.sample(n, spec)
        with pytest.raises(ValueError, match=message):
            noise_matrix(spec, n, 4)

    @pytest.mark.parametrize("n", [0, -1, np.int64(0)])
    def test_too_few_observations_named(self, diamond_model, n):
        with pytest.raises(ValueError, match=f"need n >= 1 observations, got {n}"):
            diamond_model.sample(n, NoiseSpec.frechet(1.0, 7))

    def test_numpy_integer_n_accepted(self, diamond_model):
        spec = NoiseSpec.frechet(1.0, 7)
        x = diamond_model.sample(5, spec)
        assert np.array_equal(diamond_model.sample(np.int64(5), spec), x)
        assert np.array_equal(noise_matrix(spec, np.int32(5), 4), noise_matrix(spec, 5, 4))

    def test_noise_spec_validation(self):
        with pytest.raises(NonPositiveWeight):
            NoiseSpec.frechet(0.0, 1)
        with pytest.raises(NonPositiveWeight):
            NoiseSpec.lognormal(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            NoiseSpec("uniform", (0.0, 1.0), 1)

    @pytest.mark.parametrize(
        "spec",
        [
            ("frechet", (np.inf,)),
            ("frechet", (np.nan,)),
            ("lognormal", (np.nan, 1.0)),
            ("lognormal", (-np.inf, 1.0)),
            ("lognormal", (0.0, np.inf)),
            ("lognormal", (0.0, np.nan)),
        ],
    )
    def test_noise_spec_rejects_non_finite_parameters(self, spec):
        family, params = spec
        with pytest.raises(MaxLinError, match="must be finite"):
            NoiseSpec(family, params, 1)

    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec.frechet(1e-300, 1),
            NoiseSpec.lognormal(0.0, 1e308, 1),
            NoiseSpec.lognormal(1e308, 1.0, 1),
            NoiseSpec.lognormal(-1e308, 1.0, 1),
        ],
    )
    def test_draws_outside_the_support_rejected(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MaxLinError, match=r"NoiseSpec\(.*outside \(0, inf\)"):
                noise_matrix(spec, 20, 3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_noise_matrix_is_prefix_stable(self, seed):
        for spec in noise_specs(seed):
            z = noise_matrix(spec, 1000, 7)
            for n in (1, 2, 257):
                assert np.array_equal(noise_matrix(spec, n, 7), z[:n])

    @pytest.mark.parametrize("seed, same", [(-1, 2**64 - 1), (3, 2**70 + 3)])
    def test_seeds_reduce_modulo_two_to_the_64(self, seed, same):
        for spec, spec_same in zip(noise_specs(seed), noise_specs(same)):
            assert np.array_equal(noise_matrix(spec, 50, 7), noise_matrix(spec_same, 50, 7))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_noise_matrix_equals_one_stream_drawn_by_scalars(self, seed):
        n, d = 40, 7
        for spec in noise_specs(seed):
            expected = noise_by_scalars(spec, np.random.default_rng(seed % 2**64), n * d)
            assert matrices_close(noise_matrix(spec, n, d), expected.reshape(n, d), rtol=1e-13)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_row_zero_equals_the_generator_seeded_with_seed_and_zero(self, seed):
        d = 7
        for spec in noise_specs(seed):
            expected = noise_by_scalars(spec, np.random.default_rng((seed % 2**64, 0)), d)
            assert matrices_close(noise_matrix(spec, 3, d)[0], expected, rtol=1e-13)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, False, "3", None])
    def test_noise_spec_rejects_non_integer_seeds(self, seed):
        message = re.escape(f"seed must be an integer, got {seed!r}")
        with pytest.raises(MaxLinError, match=message):
            NoiseSpec("frechet", (1.0,), seed)
        with pytest.raises(MaxLinError, match="seed must be an integer"):
            NoiseSpec.lognormal(0.0, 1.0, seed)

    def test_noise_spec_takes_numpy_integer_seeds(self):
        spec = NoiseSpec("frechet", (1.0,), np.int64(-1))
        assert type(spec.seed) is int
        expected = noise_matrix(NoiseSpec.frechet(1.0, -1), 5, 3)
        assert np.array_equal(noise_matrix(spec, 5, 3), expected)


class TestMinimalDag:
    def test_diamond_is_already_minimal(self, diamond_model, diamond, diamond_weights):
        g, weights = minimal_dag(diamond_model.B)
        assert g == diamond
        assert weights == diamond_weights

    def test_redundant_direct_edge_removed(self):
        b = np.eye(3)
        b[1, 0] = 0.5
        b[2, 1] = 0.4
        b[2, 0] = 0.5 * 0.4  # matched exactly by the two-step composition
        g, weights = minimal_dag(b)
        assert g == Dag(3, [(1, 2), (2, 3)])
        assert weights == {(1, 2): 0.5, (2, 3): 0.4}

    def test_essential_direct_edge_kept(self):
        b = np.eye(3)
        b[1, 0] = 0.5
        b[2, 1] = 0.4
        b[2, 0] = 0.9  # beats the composition 0.2
        g, weights = minimal_dag(b)
        assert g == Dag(3, [(1, 2), (2, 3), (1, 3)])
        assert weights[(1, 3)] == 0.9

    @pytest.mark.parametrize("rel, kept", [(1e-12, False), (1e-6, True)])
    def test_near_tie_with_composition(self, rel, kept):
        b = np.eye(3)
        b[1, 0] = 0.5
        b[2, 1] = 0.4
        b[2, 0] = 0.5 * 0.4 * (1 + rel)
        g, _ = minimal_dag(b)
        assert ((1, 3) in g.edges) is kept

    @pytest.mark.parametrize("weights", ["log_uniform", "ones", "halves_and_doubles"])
    def test_equals_pairwise_loop(self, weights):
        draw = {
            "log_uniform": log_uniform,
            "ones": lambda rng: 1.0,
            "halves_and_doubles": lambda rng: float(rng.choice([0.5, 1.0, 2.0])),
        }[weights]
        rng = np.random.default_rng(83)
        for d in range(1, 26):
            for p in (0.2, 0.5, 0.9):
                g = random_dag(rng, d, p)
                b = MaxLinearModel(g, {e: draw(rng) for e in g.edges}).B
                g2, w2 = minimal_dag(b)
                g_ref, w_ref = minimal_dag_by_pairs(b)
                assert g2 == g_ref
                assert list(w2.items()) == list(w_ref.items())

    @pytest.mark.parametrize(
        "b", [[[1, 0], [np.inf, 1]], [[1, 0, 0], [0, 1, 0], [1, np.inf, 1]]]
    )
    def test_non_finite_coefficients_rejected(self, b):
        with pytest.raises(InvalidCoefficientMatrix, match="non-finite"):
            minimal_dag(b)
        with pytest.raises(InvalidCoefficientMatrix, match="non-finite"):
            admissible_weights(b, Dag(len(b)))

    def test_identity_gives_edgeless(self):
        g, weights = minimal_dag(np.eye(4))
        assert g == Dag(4)
        assert weights == {}

    def test_non_transitive_sign_pattern_rejected(self):
        b = np.eye(3)
        b[1, 0] = 0.5
        b[2, 1] = 0.4  # 1 ~> 3 missing although 1 ~> 2 ~> 3
        with pytest.raises(InvalidCoefficientMatrix):
            minimal_dag(b)

    def test_symmetric_sign_pattern_rejected(self):
        b = np.eye(2)
        b[0, 1] = b[1, 0] = 0.5
        with pytest.raises(InvalidCoefficientMatrix):
            minimal_dag(b)

    def test_bad_diagonal_rejected(self):
        b = np.eye(2)
        b[0, 0] = 2.0
        with pytest.raises(InvalidCoefficientMatrix):
            minimal_dag(b)

    def test_polytree_roundtrip_exact(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            g = random_polytree(rng, int(rng.integers(1, 11)))
            weights = {e: log_uniform(rng) for e in g.edges}
            b = closure(assemble_weight_matrix(g, weights))
            g2, w2 = minimal_dag(b)
            assert g2 == g
            assert w2 == weights

    def test_model_roundtrip_reproduces_coefficients(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            g, w = random_weighted_dag(rng, int(rng.integers(1, 8)), p=0.5)
            m = MaxLinearModel(g, w)
            g2, w2 = minimal_dag(m.B)
            m2 = MaxLinearModel(g2, w2)
            assert matrices_close(m2.B, m.B)


class TestAdmissibleWeights:
    def test_diamond_all_fixed(self, diamond_model, diamond):
        out = admissible_weights(diamond_model.B, diamond)
        assert set(out) == diamond.edges
        for (u, v), (kind, bound) in out.items():
            assert kind is WeightKind.FIXED
            assert bound == diamond_model.C[v - 1, u - 1]

    def test_extra_edge_open_interval(self, diamond_model):
        g = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)])
        out = admissible_weights(diamond_model.B, g)
        kind, bound = out[(1, 4)]
        assert kind is WeightKind.OPEN_INTERVAL
        assert bound == diamond_model.B[3, 0]
        assert all(out[e][0] is WeightKind.FIXED for e in out if e != (1, 4))

    def test_chain_fixed(self):
        g = Dag(3, [(1, 2), (2, 3)])
        m = MaxLinearModel(g, {(1, 2): 2.0, (2, 3): 3.0})
        out = admissible_weights(m.B, g)
        assert out == {(1, 2): (WeightKind.FIXED, 2.0), (2, 3): (WeightKind.FIXED, 3.0)}

    def test_reachability_mismatch_rejected(self, diamond_model):
        with pytest.raises(IncompatibleDag):
            admissible_weights(diamond_model.B, Dag(4, [(1, 2), (1, 3), (2, 4)]))

    def test_missing_required_edge_rejected(self):
        b = np.eye(3)
        b[1, 0] = 0.5
        b[2, 1] = 0.4
        b[2, 0] = 0.9  # direct edge essential
        with pytest.raises(IncompatibleDag):
            admissible_weights(b, Dag(3, [(1, 2), (2, 3)]))

    def test_weights_in_interval_reproduce_model(self, diamond_model):
        g = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)])
        out = admissible_weights(diamond_model.B, g)
        _, bound = out[(1, 4)]
        weights = {e: out[e][1] for e in out if e != (1, 4)}
        weights[(1, 4)] = 0.5 * bound
        assert matrices_close(MaxLinearModel(g, weights).B, diamond_model.B)


class TestMarginalRows:
    def test_subset(self, diamond_model):
        rows = marginal_rows(diamond_model.B, {1, 2, 4})
        assert np.array_equal(rows, diamond_model.B[[0, 1, 3], :])

    def test_all_vertices(self, diamond_model):
        assert np.array_equal(marginal_rows(diamond_model.B, {1, 2, 3, 4}), diamond_model.B)

    def test_out_of_range(self, diamond_model):
        with pytest.raises(VertexOutOfRange):
            marginal_rows(diamond_model.B, {0})
        with pytest.raises(VertexOutOfRange):
            marginal_rows(diamond_model.B, set())

    @pytest.mark.parametrize("label", [1.0, True, 2.5, np.float64(2.0)])
    def test_non_integer_labels_rejected(self, diamond_model, label):
        message = re.escape(f"vertex labels must be integers, got {label!r}")
        with pytest.raises(VertexOutOfRange, match=message):
            marginal_rows(diamond_model.B, [label])
        with pytest.raises(VertexOutOfRange, match="vertex labels must be integers"):
            marginal_rows(diamond_model.B, [1, label])

    def test_numpy_integer_labels_accepted(self, diamond_model):
        rows = marginal_rows(diamond_model.B, np.array([4, 1]))
        assert np.array_equal(rows, diamond_model.B[[0, 3], :])

    def test_non_faithfulness_witness(self, diamond, diamond_weights):
        # path through 3 carries the larger weight, so dropping 1 -> 2
        # leaves the joint law of (X1, X3, X4) untouched
        full = MaxLinearModel(diamond, diamond_weights)
        reduced_dag = Dag(4, [(1, 3), (2, 4), (3, 4)])
        reduced = MaxLinearModel(
            reduced_dag, {e: diamond_weights[e] for e in reduced_dag.edges}
        )
        assert np.array_equal(
            marginal_rows(full.B, {1, 3, 4}), marginal_rows(reduced.B, {1, 3, 4})
        )
        g_min, _ = minimal_dag(full.B)
        assert g_min == diamond

    def test_non_faithfulness_witness_random_weights(self, diamond):
        rng = np.random.default_rng(73)
        for _ in range(25):
            w = {e: log_uniform(rng) for e in diamond.edges}
            full = MaxLinearModel(diamond, w)
            if w[(2, 4)] * w[(1, 2)] <= w[(3, 4)] * w[(1, 3)]:
                drop, keep_rows = (1, 2), {1, 3, 4}
            else:
                drop, keep_rows = (1, 3), {1, 2, 4}
            sub = Dag(4, [e for e in diamond.edges if e != drop])
            reduced = MaxLinearModel(sub, {e: w[e] for e in sub.edges})
            assert np.array_equal(
                marginal_rows(full.B, keep_rows), marginal_rows(reduced.B, keep_rows)
            )
