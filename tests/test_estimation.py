import math
import tracemalloc

import numpy as np
import pytest

from maxlinbn import (
    Dag,
    DimensionMismatch,
    EmptySample,
    InvalidCoefficientMatrix,
    MaxLinearModel,
    NoiseSpec,
    NonPositiveInput,
    NonPositiveSample,
    ancestor_ratio_coefficients,
    generalized_likelihood_ratio,
    glr_two_node_sample,
    gmle_coefficients,
    gmle_edge_weights,
    identify_coefficients,
    identify_structure,
    matrices_close,
    ratio_statistics,
    values_close,
)

from helpers import dense_ratio_statistics, random_weighted_dag

TWO_NODE_SAMPLE = np.array([[1.0, 0.7], [2.0, 1.5], [1.0, 0.9]])


def leq_with_slack(a, b, slack=1e-9):
    """a <= b entrywise, allowing a relative overhang of ``slack``."""
    return bool(np.all(a <= b + slack * np.maximum(np.abs(a), np.abs(b))))


class TestEdgeWeightGmle:
    def test_minimum_ratio_on_single_edge(self):
        g = Dag(2, [(1, 2)])
        c = gmle_edge_weights(g, TWO_NODE_SAMPLE)
        assert c[1, 0] == 0.7
        assert c[0, 0] == c[1, 1] == 1.0
        assert c[0, 1] == 0.0

    def test_single_observation(self, diamond):
        x = np.array([[1.0, 2.0, 3.0, 5.0]])
        c = gmle_edge_weights(diamond, x)
        for u, v in diamond.edges:
            assert c[v - 1, u - 1] == x[0, v - 1] / x[0, u - 1]

    def test_seeded_recovery(self, diamond_model):
        x = diamond_model.sample(200, NoiseSpec.frechet(1.0, 7))
        c_hat = gmle_edge_weights(diamond_model.graph, x)
        assert matrices_close(c_hat, diamond_model.C)

    def test_validation(self, diamond):
        with pytest.raises(EmptySample):
            gmle_edge_weights(diamond, np.empty((0, 4)))
        with pytest.raises(NonPositiveSample):
            gmle_edge_weights(diamond, np.array([[1.0, -1.0, 1.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            gmle_edge_weights(diamond, np.ones((3, 3)))


class TestCoefficientEstimates:
    def test_single_observation_telescopes(self):
        g = Dag(3, [(1, 2), (2, 3)])
        x = np.array([[2.0, 3.0, 7.0]])
        b_hat = gmle_coefficients(g, x)
        assert b_hat[2, 0] == (3.0 / 2.0) * (7.0 / 3.0)
        assert values_close(b_hat[2, 0], 7.0 / 2.0)

    def test_never_below_truth(self, diamond_model):
        for seed in range(5):
            x = diamond_model.sample(50, NoiseSpec.frechet(1.0, seed))
            b_hat = gmle_coefficients(diamond_model.graph, x)
            assert leq_with_slack(diamond_model.B, b_hat)

    def test_ancestor_ratio_dominates_gmle(self, diamond_model):
        for seed in range(5):
            x = diamond_model.sample(50, NoiseSpec.frechet(1.0, seed))
            b_hat = gmle_coefficients(diamond_model.graph, x)
            b_tilde = ancestor_ratio_coefficients(diamond_model.graph, x)
            assert leq_with_slack(b_hat, b_tilde)

    def test_ancestor_ratio_single_observation(self, diamond):
        x = np.array([[1.0, 2.0, 3.0, 5.0]])
        b = ancestor_ratio_coefficients(diamond, x)
        assert b[3, 0] == 5.0
        assert b[2, 0] == 3.0
        assert b[3, 1] == 2.5

    def test_both_converge_on_seeded_run(self, diamond_model):
        x = diamond_model.sample(200, NoiseSpec.frechet(1.0, 7))
        assert matrices_close(gmle_coefficients(diamond_model.graph, x), diamond_model.B)
        assert matrices_close(
            ancestor_ratio_coefficients(diamond_model.graph, x), diamond_model.B
        )


class TestRatioStatistics:
    def test_two_node(self):
        stats = ratio_statistics(TWO_NODE_SAMPLE)
        assert stats.min_ratio[1, 0] == 0.7
        assert stats.multiplicity[1, 0] == 1
        assert stats.min_ratio[0, 0] == 1.0
        assert stats.multiplicity[0, 0] == 3

    def test_multiplicity_counts_near_minimum(self):
        x = np.array([[1.0, 2.0], [3.0, 6.0], [1.0, 2.5]])
        stats = ratio_statistics(x)
        assert stats.min_ratio[1, 0] == 2.0
        assert stats.multiplicity[1, 0] == 2


class TestMinRatioKernel:
    """The three minimum-ratio estimators against the dense formula and
    against ``np.min`` of each pair's ratio column, bit for bit."""

    @staticmethod
    def samples():
        rng = np.random.default_rng(31)
        for i, n in enumerate((1, 2, 3, 40, 200)):
            for _ in range(4):
                d = int(rng.integers(1, 9))
                g, w = random_weighted_dag(rng, d, p=0.5)
                spec = NoiseSpec.frechet(1.0, i) if i % 2 else NoiseSpec.lognormal(0.0, 2.0, i)
                yield g, MaxLinearModel(g, w).sample(n, spec)

    @pytest.mark.parametrize("atom_rtol", [0.0, 1e-9, 1e-3, 0.5])
    def test_ratio_statistics_match_dense_formula(self, atom_rtol):
        for _, x in self.samples():
            stats = ratio_statistics(x, atom_rtol)
            mins, mult = dense_ratio_statistics(x, atom_rtol)
            assert np.array_equal(stats.min_ratio, mins)
            assert np.array_equal(stats.multiplicity, mult)
            assert stats.multiplicity.dtype == mult.dtype
            d = x.shape[1]
            for v in range(d):
                for u in range(d):
                    if u != v:
                        assert stats.min_ratio[v, u] == np.min(x[:, v] / x[:, u])

    def test_estimators_match_pairwise_minimum(self):
        for g, x in self.samples():
            mins, _ = dense_ratio_statistics(x)
            c_hat = gmle_edge_weights(g, x)
            b_tilde = ancestor_ratio_coefficients(g, x)
            edge = np.zeros((g.d, g.d), dtype=bool)
            for u, v in g.edges:
                edge[v - 1, u - 1] = True
                assert c_hat[v - 1, u - 1] == np.min(x[:, v - 1] / x[:, u - 1])
            assert np.array_equal(c_hat, np.where(edge, mins, np.eye(g.d)))
            ancestor = np.asarray(g.reach) & ~np.eye(g.d, dtype=bool)
            assert np.array_equal(b_tilde, np.where(ancestor, mins, np.eye(g.d)))
            for v in range(1, g.d + 1):
                for u in g.ancestors(v):
                    assert b_tilde[v - 1, u - 1] == np.min(x[:, v - 1] / x[:, u - 1])

    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda x: x[:, ::-1], lambda x: x[:, 1:]],
        ids=["fortran", "reversed-columns", "column-slice"],
    )
    def test_non_c_contiguous_samples_match_dense_formula(self, layout):
        rng = np.random.default_rng(37)
        for i, n in enumerate((2, 3, 200)):
            g, w = random_weighted_dag(rng, 7, p=0.5)
            x = layout(MaxLinearModel(g, w).sample(n, NoiseSpec.frechet(1.0, i)))
            assert not x.flags.c_contiguous
            h, _ = random_weighted_dag(rng, x.shape[1], p=0.5)
            stats = ratio_statistics(x)
            mins, mult = dense_ratio_statistics(x)
            assert np.array_equal(stats.min_ratio, mins)
            assert np.array_equal(stats.multiplicity, mult)
            edge = np.zeros((h.d, h.d), dtype=bool)
            for u, v in h.edges:
                edge[v - 1, u - 1] = True
            ancestor = np.asarray(h.reach) & ~np.eye(h.d, dtype=bool)
            eye = np.eye(h.d)
            assert np.array_equal(gmle_edge_weights(h, x), np.where(edge, mins, eye))
            assert np.array_equal(
                ancestor_ratio_coefficients(h, x), np.where(ancestor, mins, eye)
            )

    def test_ratio_statistics_memory_is_linear(self):
        n, d = 2000, 50
        x = np.random.default_rng(3).lognormal(size=(n, d))
        tracemalloc.start()
        try:
            ratio_statistics(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an (n, d, d) ratio tensor would take n * d * d * 8 bytes
        assert peak < 4 * n * d * 8

    @pytest.mark.parametrize("atom_rtol", [-1.0, float("nan"), 1.0, float("inf")])
    def test_atom_rtol_outside_unit_interval_rejected(self, atom_rtol):
        with pytest.raises(ValueError, match="atom_rtol"):
            ratio_statistics(TWO_NODE_SAMPLE, atom_rtol)
        with pytest.raises(ValueError, match="atom_rtol"):
            identify_coefficients(TWO_NODE_SAMPLE, atom_rtol)


class TestIdentify:
    def test_diamond_seeded_run(self, diamond_model):
        x = diamond_model.sample(1000, NoiseSpec.frechet(1.0, 7))
        b_check = identify_coefficients(x)
        assert np.array_equal(b_check > 0, np.asarray(diamond_model.graph.reach))
        assert matrices_close(b_check, diamond_model.B)

    def test_independent_columns_give_zero(self):
        from maxlinbn import noise_matrix

        x = noise_matrix(NoiseSpec.frechet(1.0, 11), 1000, 2)
        b_check = identify_coefficients(x)
        assert b_check[0, 1] == 0.0 and b_check[1, 0] == 0.0

    def test_duplicate_rows_make_everything_an_atom(self):
        x = np.array([[1.0, 2.0, 5.0], [1.0, 2.0, 5.0]])
        b_check = identify_coefficients(x)
        for i in range(3):
            for j in range(3):
                assert b_check[i, j] == x[0, i] / x[0, j]

    def test_needs_two_observations(self):
        with pytest.raises(EmptySample):
            identify_coefficients(np.array([[1.0, 2.0]]))

    def test_atom_tolerance_monotone(self, diamond_model):
        x = diamond_model.sample(300, NoiseSpec.frechet(1.0, 5))
        tight = identify_coefficients(x, atom_rtol=1e-9)
        loose = identify_coefficients(x, atom_rtol=1e-6)
        assert np.all((tight > 0) <= (loose > 0))

    def test_structure_recovery(self, diamond_model, diamond, diamond_weights):
        x = diamond_model.sample(1000, NoiseSpec.frechet(1.0, 7))
        g, weights = identify_structure(x)
        assert g == diamond
        assert set(weights) == set(diamond_weights)
        for e, w in diamond_weights.items():
            assert values_close(weights[e], w)

    def test_chain_without_spurious_edge(self):
        g = Dag(3, [(1, 2), (2, 3)])
        m = MaxLinearModel(g, {(1, 2): 0.5, (2, 3): 1.5})
        x = m.sample(1000, NoiseSpec.frechet(1.0, 19))
        g_hat, _ = identify_structure(x)
        assert g_hat == g

    def test_independent_vertices_give_edgeless(self):
        from maxlinbn import noise_matrix

        x = noise_matrix(NoiseSpec.frechet(1.0, 23), 1000, 2)
        g, weights = identify_structure(x)
        assert g == Dag(2)
        assert weights == {}

    def test_non_closed_pattern_fails_loudly(self):
        # ratios 2->1 and 3->2 recur, 3->1 does not: detected ancestry is
        # not transitively closed and must not be repaired silently
        x = np.array(
            [
                [1.0, 2.0, 10.0],
                [2.0, 4.0, 30.0],
                [5.0, 11.0, 22.0],
                [7.0, 15.0, 30.0],
            ]
        )
        b_check = identify_coefficients(x)
        assert b_check[1, 0] == 2.0 and b_check[2, 1] == 2.0 and b_check[2, 0] == 0.0
        with pytest.raises(InvalidCoefficientMatrix):
            identify_structure(x)


class TestGlrPointwise:
    # all printed piecewise values for candidates c=0.9 > c*=0.7
    @pytest.mark.parametrize(
        "x2,fwd,bwd",
        [
            (0.95, 0.5, 0.5),  # above c*x1
            (0.9, 1.0, 0.0),  # exactly on c*x1
            (0.8, 0.0, 1.0),  # inside [c_star*x1, c*x1)
            (0.7, 0.0, 1.0),  # on the lower edge c_star*x1
            (0.6, 0.0, 0.0),  # below c_star*x1
        ],
    )
    def test_ordered_candidates(self, x2, fwd, bwd):
        v = generalized_likelihood_ratio(0.9, 0.7, (1.0, x2))
        assert v.rho_forward == fwd
        assert v.rho_backward == bwd

    @pytest.mark.parametrize("x2,rho", [(0.9, 0.5), (0.7, 0.5), (0.5, 0.0)])
    def test_equal_candidates(self, x2, rho):
        v = generalized_likelihood_ratio(0.7, 0.7, (1.0, x2))
        assert v.rho_forward == rho
        assert v.rho_backward == rho

    @pytest.mark.parametrize("rel, fwd, bwd", [(1e-12, 1.0, 0.0), (1e-6, 0.0, 1.0)])
    def test_candidate_near_observed_ratio(self, rel, fwd, bwd):
        v = generalized_likelihood_ratio(0.9 * (1 + rel), 0.7, (1.0, 0.9))
        assert (v.rho_forward, v.rho_backward) == (fwd, bwd)

    def test_scaling_in_x1(self):
        v = generalized_likelihood_ratio(0.9, 0.7, (2.0, 1.8))
        assert v.rho_forward == 1.0 and v.rho_backward == 0.0

    def test_validation(self):
        with pytest.raises(NonPositiveInput):
            generalized_likelihood_ratio(0.9, 0.7, (0.0, 1.0))
        with pytest.raises(NonPositiveInput):
            generalized_likelihood_ratio(-0.9, 0.7, (1.0, 1.0))
        with pytest.raises(ValueError):
            generalized_likelihood_ratio(0.7, 0.9, (1.0, 1.0))

    @pytest.mark.parametrize(
        "c, c_star, x",
        [
            (np.inf, 1.0, (1.0, 2.0)),
            (np.inf, np.inf, (1.0, 2.0)),
            (np.nan, 0.7, (1.0, 1.0)),
            (0.9, np.nan, (1.0, 1.0)),
            (0.9, 0.7, (np.inf, 1.0)),
            (0.9, 0.7, (1.0, np.inf)),
            (0.9, 0.7, (1.0, np.nan)),
        ],
    )
    def test_non_finite_inputs_rejected(self, c, c_star, x):
        with pytest.raises(NonPositiveInput, match="finite"):
            generalized_likelihood_ratio(c, c_star, x)


class TestGlrSample:
    def test_candidate_on_observed_ratio(self):
        fwd, bwd, c_hat = glr_two_node_sample(0.75, TWO_NODE_SAMPLE)
        assert c_hat == 0.7
        assert fwd == 0.0 and bwd == 0.0

    def test_candidate_between_ratios(self):
        fwd, bwd, _ = glr_two_node_sample(0.8, TWO_NODE_SAMPLE)
        assert fwd == 2.0**-1
        assert bwd == 0.0

    def test_candidate_at_minimum(self):
        fwd, bwd, _ = glr_two_node_sample(0.7, TWO_NODE_SAMPLE)
        assert fwd == 2.0**-3
        assert bwd == 2.0**-3

    def test_candidate_below_minimum(self):
        fwd, bwd, _ = glr_two_node_sample(0.5, TWO_NODE_SAMPLE)
        assert fwd == 2.0**-2  # two ratios strictly above 0.7
        assert bwd == 0.0

    @pytest.mark.parametrize(
        "c, rel, expected",
        [
            (0.75, 1e-12, (0.0, 0.0)),  # on the observed ratio 0.75
            (0.75, 1e-6, (2.0**-1, 0.0)),
            (0.7, 1e-12, (2.0**-3, 2.0**-3)),  # on the minimum
            (0.7, 1e-6, (2.0**-2, 0.0)),
        ],
    )
    def test_candidate_near_observed_ratio(self, c, rel, expected):
        fwd, bwd, _ = glr_two_node_sample(c * (1 + rel), TWO_NODE_SAMPLE)
        assert (fwd, bwd) == expected

    @pytest.mark.parametrize("rel, fwd", [(1e-12, 2.0**-1), (1e-6, 2.0**-2)])
    def test_ratio_near_minimum_is_not_above_it(self, rel, fwd):
        x = np.array([[1.0, 0.7], [1.0, 0.7 * (1 + rel)], [1.0, 0.9]])
        assert glr_two_node_sample(0.5, x)[:2] == (fwd, 0.0)

    def test_estimate_always_dominates(self):
        g = Dag(2, [(1, 2)])
        m = MaxLinearModel(g, {(1, 2): 0.8})
        x = m.sample(60, NoiseSpec.frechet(1.0, 13))
        y = x[:, 1] / x[:, 0]
        grid = np.concatenate([np.linspace(0.1, 3.0, 40), y[:10]])
        for c in grid:
            fwd, bwd, _ = glr_two_node_sample(float(c), x)
            assert fwd >= bwd

    @pytest.mark.parametrize("seed", range(4))
    def test_sample_ratio_is_product_of_pointwise_ratios(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 5, 17, 40):
            z = 1.0 / -np.log(rng.random((n, 2)))  # unit Frechet noise
            x = np.column_stack([z[:, 0], np.maximum(rng.uniform(0.2, 2.0) * z[:, 0], z[:, 1])])
            x[:, 0] *= np.exp(rng.uniform(-5.0, 5.0))
            y = x[:, 1] / x[:, 0]
            c_hat = float(y.min())
            base = [float(rng.uniform(0.01, 5.0)), c_hat, *(float(v) for v in y[:4])]
            for c in [b * (1 + rel) for b in base for rel in (0.0, 1e-12, 1e-6)]:
                hi, lo = max(c, c_hat), min(c, c_hat)
                verdicts = [generalized_likelihood_ratio(hi, lo, (x1, x2)) for x1, x2 in x]
                hi_vs_lo = math.prod(v.rho_forward for v in verdicts)
                lo_vs_hi = math.prod(v.rho_backward for v in verdicts)
                expected = (lo_vs_hi, hi_vs_lo) if c >= c_hat else (hi_vs_lo, lo_vs_hi)
                assert glr_two_node_sample(c, x) == (*expected, c_hat)

    def test_needs_two_columns(self):
        with pytest.raises(DimensionMismatch):
            glr_two_node_sample(0.5, np.ones((3, 3)))

    def test_positive_candidate_required(self):
        with pytest.raises(NonPositiveInput):
            glr_two_node_sample(0.0, TWO_NODE_SAMPLE)

    @pytest.mark.parametrize("c", [np.inf, np.nan])
    def test_finite_candidate_required(self, c):
        with pytest.raises(NonPositiveInput, match="finite"):
            glr_two_node_sample(c, TWO_NODE_SAMPLE)

    def test_finite_observations_required(self):
        x = np.array(TWO_NODE_SAMPLE, dtype=float)
        x[1, 1] = np.inf
        with pytest.raises(NonPositiveSample):
            glr_two_node_sample(0.8, x)
