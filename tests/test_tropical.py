import warnings

import numpy as np
import pytest

from maxlinbn import (
    Dag,
    DimensionMismatch,
    InvalidWeightMatrix,
    MaxLinearModel,
    NotAPath,
    SizeLimitExceeded,
    VertexOutOfRange,
    assemble_weight_matrix,
    brute_force_coefficients,
    closure,
    matrices_close,
    max_times_product,
    path_weight,
    values_close,
)

from maxlinbn import tropical
from maxlinbn.tropical import _weighted_dag

from helpers import random_weighted_dag


def diamond_C(diamond, diamond_weights):
    return assemble_weight_matrix(diamond, diamond_weights)


class TestProduct:
    def test_identity_is_unit(self):
        eye = np.eye(3)
        assert np.array_equal(max_times_product(eye, eye), eye)
        f = np.array([[1.0, 0.2], [0.5, 1.0]])
        assert np.array_equal(max_times_product(f, np.eye(2)), f)
        assert np.array_equal(max_times_product(np.eye(2), f), f)

    def test_chain_square_is_itself(self):
        # 2x2 hand evaluation: max(1*1, 0*0.5)=1, max(1*0, 0*1)=0,
        # max(0.5*1, 1*0.5)=0.5, max(0.5*0, 1*1)=1
        f = np.array([[1.0, 0.0], [0.5, 1.0]])
        assert np.array_equal(max_times_product(f, f), f)

    def test_diamond_two_step_entry(self, diamond, diamond_weights):
        c = diamond_C(diamond, diamond_weights)
        c2 = max_times_product(c, c)
        assert c2[3, 0] == max(0.6 * 0.5, 0.9 * 0.8)

    def test_rectangular_and_vector(self):
        f = np.array([[2.0, 3.0]])
        g = np.array([[1.0], [4.0]])
        assert max_times_product(f, g).tolist() == [[12.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            max_times_product(np.eye(2), np.eye(3))

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidWeightMatrix):
            max_times_product(np.array([[-1.0]]), np.array([[1.0]]))

    def test_infinite_entries_rejected_without_warning(self):
        # inf * 0 is nan: the product must refuse the input, not compute it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidWeightMatrix):
                max_times_product([[np.inf, 1.0]], [[0.0], [2.0]])

    def test_associative_with_identity_unit(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            f, g, h = (rng.random((4, 4)) * 10 for _ in range(3))
            lhs = max_times_product(max_times_product(f, g), h)
            rhs = max_times_product(f, max_times_product(g, h))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=0)


class TestClosure:
    def test_diamond_rows(self, diamond, diamond_weights):
        b = closure(diamond_C(diamond, diamond_weights))
        assert b[3].tolist() == [max(0.6 * 0.5, 0.9 * 0.8), 0.6, 0.9, 1.0]
        assert b[1].tolist() == [0.5, 1.0, 0.0, 0.0]
        np.testing.assert_allclose(b[3], [0.72, 0.6, 0.9, 1.0], rtol=1e-12, atol=0)

    def test_identity_no_edges(self):
        assert np.array_equal(closure(np.eye(3)), np.eye(3))
        assert np.array_equal(closure(np.eye(1)), np.eye(1))

    def test_chain_product(self):
        c = np.eye(3)
        c[1, 0] = 2.0
        c[2, 1] = 3.0
        b = closure(c)
        assert b[2, 0] == 6.0

    def test_bad_diagonal_rejected(self):
        c = np.eye(2)
        c[0, 0] = 0.5
        with pytest.raises(InvalidWeightMatrix):
            closure(c)

    def test_negative_rejected(self):
        c = np.eye(2)
        c[1, 0] = -1.0
        with pytest.raises(InvalidWeightMatrix):
            closure(c)

    def test_cyclic_pattern_rejected(self):
        c = np.eye(2)
        c[1, 0] = 0.5
        c[0, 1] = 0.5
        with pytest.raises(InvalidWeightMatrix):
            closure(c)

    def test_non_finite_rejected(self, diamond):
        c = np.eye(2)
        c[1, 0] = float("1e400")
        with pytest.raises(InvalidWeightMatrix):
            closure(c)
        with pytest.raises(InvalidWeightMatrix):
            MaxLinearModel(diamond, {(1, 2): 1e400, (1, 3): 0.8, (2, 4): 0.6, (3, 4): 0.9})

    def test_sign_pattern_equals_reachability(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            g, w = random_weighted_dag(rng, int(rng.integers(1, 9)))
            b = closure(assemble_weight_matrix(g, w))
            assert np.array_equal(b > 0, np.asarray(g.reach))

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            g, w = random_weighted_dag(rng, 7)
            b = closure(assemble_weight_matrix(g, w))
            np.testing.assert_allclose(max_times_product(b, b), b, rtol=1e-12, atol=0)

    def test_weighted_dag_labels_are_plain_ints(self):
        rng = np.random.default_rng(17)
        g, w = random_weighted_dag(rng, 30, p=0.3)
        _, h = _weighted_dag(assemble_weight_matrix(g, w))
        assert h == g
        assert all(type(v) is int for edge in h.edges for v in edge)
        assert all(type(v) is int for v in h.well_order)

    def test_monotone_in_each_weight(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g, w = random_weighted_dag(rng, 6, p=0.5)
            if not w:
                continue
            b = closure(assemble_weight_matrix(g, w))
            edge = list(w)[int(rng.integers(len(w)))]
            bumped = dict(w)
            bumped[edge] = w[edge] * (1.0 + rng.random())
            b2 = closure(assemble_weight_matrix(g, bumped))
            assert np.all(b2 >= b)


class TestPathWeight:
    def test_two_step(self, diamond, diamond_weights):
        c = diamond_C(diamond, diamond_weights)
        assert path_weight(c, [1, 2, 4]) == 0.5 * 0.6
        assert path_weight(c, [1, 3, 4]) == 0.8 * 0.9

    def test_length_zero(self, diamond, diamond_weights):
        assert path_weight(diamond_C(diamond, diamond_weights), [3]) == 1.0

    def test_not_a_path(self, diamond, diamond_weights):
        c = diamond_C(diamond, diamond_weights)
        with pytest.raises(NotAPath):
            path_weight(c, [2, 3])
        with pytest.raises(NotAPath):
            path_weight(c, [4, 2])  # against the arrow
        with pytest.raises(NotAPath):
            path_weight(c, [1, 2, 1])  # repeated vertex
        with pytest.raises(NotAPath):
            path_weight(c, [])
        with pytest.raises(NotAPath, match=r"vertex 9 outside 1\.\.4"):
            path_weight(c, [1, 9])

    @pytest.mark.parametrize("path", [[1, 2.5], [1.0, 2], [True, 2], [1, False], ["1", 2]])
    def test_non_integer_label_rejected(self, diamond, diamond_weights, path):
        c = diamond_C(diamond, diamond_weights)
        bad = next(v for v in path if type(v) is not int)
        with pytest.raises(VertexOutOfRange, match=f"vertex labels must be integers, got {bad!r}"):
            path_weight(c, path)

    def test_numpy_integer_labels_accepted(self, diamond, diamond_weights):
        c = diamond_C(diamond, diamond_weights)
        assert path_weight(c, [np.int64(1), np.int32(2), np.uint8(4)]) == 0.5 * 0.6

    def test_infinite_weight_rejected_without_warning(self, diamond, diamond_weights):
        c = diamond_C(diamond, diamond_weights)
        c[1, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidWeightMatrix):
                path_weight(c, [1, 2, 4])


class TestBruteForceOracle:
    def test_matches_closure_on_diamond(self, diamond, diamond_weights):
        c = diamond_C(diamond, diamond_weights)
        assert np.array_equal(brute_force_coefficients(diamond, c), closure(c))

    def test_edgeless(self):
        g = Dag(3)
        assert np.array_equal(brute_force_coefficients(g, np.eye(3)), np.eye(3))

    def test_chain_products(self):
        g = Dag(3, [(1, 2), (2, 3)])
        c = assemble_weight_matrix(g, {(1, 2): 2.0, (2, 3): 3.0})
        b = brute_force_coefficients(g, c)
        assert b[1, 0] == 2.0 and b[2, 1] == 3.0 and b[2, 0] == 6.0

    def test_size_cap(self, monkeypatch):
        g = Dag(3, [(1, 2), (2, 3), (1, 3)])
        c = assemble_weight_matrix(g, {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 1.0})
        monkeypatch.setattr(tropical, "MAX_PATHS", 2)
        with pytest.raises(SizeLimitExceeded, match="more than 2 paths"):
            brute_force_coefficients(g, c)

    def test_matches_closure_on_random_dags(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            g, w = random_weighted_dag(rng, int(rng.integers(1, 9)), p=0.5)
            c = assemble_weight_matrix(g, w)
            assert np.array_equal(closure(c), brute_force_coefficients(g, c))


class TestCloseness:
    def test_values_close(self):
        assert values_close(1.0, 1.0 + 1e-12)
        assert not values_close(1.0, 1.0 + 1e-6)
        assert values_close(0.0, 0.0)
        assert not values_close(0.0, 1e-300)

    def test_values_close_elementwise(self):
        x = np.array([1.0, 1.0, 0.0, 2.0])
        y = np.array([1.0 + 1e-12, 1.0 + 1e-6, 0.0, 1e-300])
        assert values_close(x, y).tolist() == [True, False, True, False]
        scalars = [values_close(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert scalars == [True, False, True, False]
        assert values_close(x, 1.0).tolist() == [True, True, False, False]

    def test_matrices_close_shape(self):
        assert not matrices_close(np.eye(2), np.eye(3))
