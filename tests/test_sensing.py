import numpy as np
import pytest

from cpsense.sensing import (
    GAUSSIAN,
    RADEMACHER,
    adjoint_apply,
    apply,
    create_operator,
)
from cpsense.tensor_core import DimensionMismatch, vec


class TestCreateOperator:
    def test_gaussian_sample_variance(self):
        op = create_operator(100, (10, 30), GAUSSIAN, alpha=1.0, seed=0)
        var = op.matrix.var()
        assert abs(var - 0.01) < 0.001  # within 10% of alpha/M

    def test_deterministic(self):
        a = create_operator(20, (4, 5), seed=77)
        b = create_operator(20, (4, 5), seed=77)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_rademacher_entries(self):
        op = create_operator(100, (5, 6), RADEMACHER, alpha=1.0, seed=1)
        assert set(np.unique(op.matrix)) == {-0.1, 0.1}

    def test_memory_budget(self):
        with pytest.raises(ValueError, match="smaller instance"):
            create_operator(10**6, (1000, 1000), seed=0)

    def test_entry_count_does_not_wrap_around(self):
        # 2^64 entries per measurement: a product in int64 wraps to 0
        with pytest.raises(ValueError, match="smaller instance"):
            create_operator(10, (2**32, 2**32), seed=0)

    def test_compares_and_hashes_by_identity(self):
        a = create_operator(20, (4, 5), seed=77)
        b = create_operator(20, (4, 5), seed=77)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            create_operator(0, (4, 5))
        with pytest.raises(ValueError):
            create_operator(10, (4, 5), alpha=0.0)
        with pytest.raises(ValueError):
            create_operator(10, (4, 5), distribution="cauchy")

    @pytest.mark.parametrize("dims, message", [
        ((4,), "tensor order must be >= 2, got 1"),
        ((4, 0), r"all dimensions must be >= 1, got \(4, 0\)"),
    ])
    def test_bad_dims_rejected(self, dims, message):
        with pytest.raises(DimensionMismatch, match=message):
            create_operator(10, dims)


class TestApply:
    def test_zero_tensor(self):
        op = create_operator(15, (3, 3, 3), seed=2)
        assert np.all(apply(op, np.zeros((3, 3, 3))) == 0.0)

    def test_linearity(self):
        op = create_operator(15, (3, 3, 3), seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 3, 3))
        y = rng.standard_normal((3, 3, 3))
        lhs = apply(op, 2.0 * x - 3.0 * y)
        rhs = 2.0 * apply(op, x) - 3.0 * apply(op, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_row_dot_oracle(self):
        op = create_operator(8, (2, 3, 2), seed=5)
        x = np.random.default_rng(6).standard_normal((2, 3, 2))
        expected = np.array([float(np.dot(op.matrix[i], vec(x)))
                             for i in range(op.m)])
        np.testing.assert_allclose(apply(op, x), expected, atol=1e-12)

    def test_shape_mismatch(self):
        op = create_operator(8, (2, 3, 2), seed=5)
        with pytest.raises(DimensionMismatch):
            apply(op, np.zeros((2, 2, 2)))


class TestAdjoint:
    def test_zero_measurements(self):
        op = create_operator(8, (2, 3, 2), seed=7)
        assert np.all(adjoint_apply(op, np.zeros(8)) == 0.0)

    def test_adjoint_identity(self):
        op = create_operator(12, (3, 4, 2), seed=8)
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.standard_normal((3, 4, 2))
            y = rng.standard_normal(12)
            lhs = float(np.dot(apply(op, x), y))
            rhs = float(np.dot(vec(x), vec(adjoint_apply(op, y))))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_basis_vector_reads_operator_row(self):
        op = create_operator(6, (2, 2, 2), seed=10)
        e2 = np.zeros(6)
        e2[2] = 1.0
        np.testing.assert_array_equal(vec(adjoint_apply(op, e2)), op.matrix[2])

    def test_length_mismatch(self):
        op = create_operator(6, (2, 2, 2), seed=10)
        with pytest.raises(DimensionMismatch):
            adjoint_apply(op, np.zeros(5))


def test_isometry_in_expectation():
    # fresh operator per sample: E ||Phi x||^2 = ||x||^2 at alpha = 1
    rng = np.random.default_rng(11)
    total = 0.0
    n = 1000
    for i in range(n):
        x = rng.standard_normal((4, 4, 4))
        x /= np.linalg.norm(x)
        op = create_operator(16, (4, 4, 4), seed=10_000 + i)
        y = apply(op, x)
        total += float(np.dot(y, y))
    assert 0.97 <= total / n <= 1.03
