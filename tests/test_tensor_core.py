import numpy as np
import pytest

from cpsense.tensor_core import (
    CpModel,
    DimensionMismatch,
    frobenius_norm,
    khatri_rao,
    khatri_rao_chain,
    mse,
    reconstruct,
    sigma_min,
    spectral_norm,
    vec,
)


def loop_reconstruct(factors):
    """Brute-force oracle: explicit nested loops over every entry."""
    dims = [a.shape[0] for a in factors]
    rank = factors[0].shape[1]
    out = np.zeros(dims)
    for idx in np.ndindex(*dims):
        total = 0.0
        for f in range(rank):
            term = 1.0
            for n, i in enumerate(idx):
                term *= factors[n][i, f]
            total += term
        out[idx] = total
    return out


def loop_khatri_rao(a, b):
    """Per-column Kronecker product computed by explicit loops."""
    ia, f = a.shape
    ib, _ = b.shape
    out = np.zeros((ia * ib, f))
    for col in range(f):
        for i in range(ia):
            for j in range(ib):
                out[i * ib + j, col] = a[i, col] * b[j, col]
    return out


class TestCpModel:
    @pytest.mark.parametrize("factors, error, message", [
        ((np.ones((3, 2)),), DimensionMismatch, "at least 2 factor matrices"),
        ((np.ones(3), np.ones((3, 1))), DimensionMismatch, "must be 2-D"),
        ((np.ones((3, 2)), np.array([[1.0, np.nan]])), ValueError,
         "entries must be finite"),
        ((np.ones((3, 0)), np.ones((4, 0))), DimensionMismatch,
         "rank must be >= 1"),
    ], ids=["one factor", "1-D factor", "NaN entry", "zero columns"])
    def test_bad_factors_rejected(self, factors, error, message):
        with pytest.raises(error, match=message):
            CpModel(factors)


class TestReconstruct:
    def test_rank_one_outer_product(self):
        model = CpModel((np.array([[1.0], [2.0]]), np.array([[1.0], [0.0]]),
                         np.array([[1.0], [1.0]])))
        x = reconstruct(model)
        assert x[1, 0, 1] == 2.0
        assert np.all(x[:, 1, :] == 0.0)

    def test_zero_factor_gives_zero_tensor(self):
        model = CpModel((np.zeros((3, 2)), np.ones((4, 2)), np.ones((2, 2))))
        assert np.all(reconstruct(model) == 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        factors = tuple(rng.standard_normal((4, 2)) for _ in range(3))
        model = CpModel(factors)
        np.testing.assert_allclose(reconstruct(model), loop_reconstruct(factors),
                                   atol=1e-12)

    def test_factor_scaling_is_linear(self):
        rng = np.random.default_rng(2)
        factors = [rng.standard_normal((3, 2)) for _ in range(3)]
        base = reconstruct(CpModel(tuple(factors)))
        scaled = reconstruct(CpModel((7.5 * factors[0],) + tuple(factors[1:])))
        np.testing.assert_allclose(scaled, 7.5 * base, atol=1e-12)

    @pytest.mark.parametrize("rank", [8, 9, 33])
    def test_components_added_left_to_right(self, rank):
        # from 8 terms numpy sums a contiguous axis pairwise, with other bits
        rng = np.random.default_rng(rank)
        factors = [rng.standard_normal((d, rank)) for d in (4, 5, 6)]
        chain = khatri_rao_chain(factors)
        total = chain[:, 0].copy()
        for f in range(1, rank):
            total += chain[:, f]
        assert np.array_equal(reconstruct(CpModel(tuple(factors))),
                              total.reshape(4, 5, 6))

    def test_mismatched_columns_raise(self):
        with pytest.raises(DimensionMismatch):
            CpModel((np.ones((3, 2)), np.ones((3, 3))))


class TestKhatriRao:
    def test_single_column(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(khatri_rao(a, b),
                                      np.array([[0.0], [1.0], [0.0], [0.0]]))

    def test_identity_times_hadamard(self):
        a = np.eye(2)
        b = np.array([[1.0, 1.0], [1.0, -1.0]])
        expected = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        np.testing.assert_array_equal(khatri_rao(a, b), expected)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((4, 2))
        np.testing.assert_allclose(khatri_rao(a, b), loop_khatri_rao(a, b),
                                   atol=1e-14)

    def test_column_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


def broadcast_chain(factors):
    """The chain as a left fold of J x F broadcasts, the bits to match."""
    out = factors[0]
    for a in factors[1:]:
        out = (out[:, None, :] * a[None, :, :]).reshape(-1, out.shape[1])
    return out


class TestKhatriRaoChain:
    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_bits_of_the_broadcast_fold(self, order, rank):
        rng = np.random.default_rng(10 * order + rank)
        factors = [rng.standard_normal((d, rank)) for d in (3, 5, 2, 4)[:order]]
        chain = khatri_rao_chain(factors)
        assert np.array_equal(chain, broadcast_chain(factors))
        # callers multiply the chain by Phi's unfoldings (the Jacobian
        # blocks); a transposed layout takes another BLAS path and changes
        # the bits of those products
        assert chain.flags.c_contiguous
        model = CpModel(tuple(factors))
        assert np.array_equal(reconstruct(model),
                              broadcast_chain(factors).sum(axis=1).reshape(model.shape))

    @pytest.mark.parametrize("factors, message", [
        ([np.ones((2, 2)), np.ones(2)], "2-D"),
        ([np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 3))],
         "column counts differ: 2 vs 3"),
    ], ids=["1-D matrix", "column mismatch"])
    def test_bad_matrices_rejected(self, factors, message):
        with pytest.raises(DimensionMismatch, match=message):
            khatri_rao_chain(factors)

    def test_single_matrix_is_identity_fold(self):
        a = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(khatri_rao_chain([a]), a)

    def test_two_matrices_match_khatri_rao(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(khatri_rao_chain([a, b]), khatri_rao(a, b))

    def test_chain_times_ones_is_vec_of_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dims = rng.integers(2, 5, size=3)
            rank = int(rng.integers(1, 4))
            factors = tuple(rng.standard_normal((d, rank)) for d in dims)
            lhs = khatri_rao_chain(factors) @ np.ones(rank)
            rhs = vec(loop_reconstruct(factors))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestNorms:
    def test_frobenius_zero(self):
        assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_frobenius_single_entry(self):
        x = np.zeros((2, 2, 2))
        x[0, 1, 1] = 3.0
        assert frobenius_norm(x) == 3.0

    def test_frobenius_equals_vec_norm(self):
        x = np.random.default_rng(6).standard_normal((3, 4, 2))
        assert frobenius_norm(x) == pytest.approx(np.linalg.norm(vec(x)))

    def test_spectral_norm_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0)

    def test_spectral_norm_diag(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_spectral_norm_vs_svd(self):
        a = np.random.default_rng(7).standard_normal((5, 3))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-10)

    def test_sigma_min_identity(self):
        assert sigma_min(np.eye(3)) == pytest.approx(1.0)

    def test_sigma_min_zero_column(self):
        a = np.ones((4, 2))
        a[:, 1] = 0.0
        assert sigma_min(a) == pytest.approx(0.0, abs=1e-14)

    def test_sigma_min_vs_svd(self):
        a = np.random.default_rng(8).standard_normal((8, 3))
        expected = np.linalg.svd(a, compute_uv=False)[-1]
        assert sigma_min(a) == pytest.approx(expected, rel=1e-10)


class TestSpectralProperties:
    def test_kron_norm_is_product_of_norms(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((3, 2))
            b = rng.standard_normal((4, 3))
            assert spectral_norm(np.kron(a, b)) == pytest.approx(
                spectral_norm(a) * spectral_norm(b), rel=1e-10)

    def test_khatri_rao_insertion_bounded_by_inserted_norm(self):
        # unit-spectral-norm factors; chain norm bounded by the odd one out
        rng = np.random.default_rng(10)
        for _ in range(50):
            length = int(rng.integers(1, 4))
            mats = []
            for _ in range(length):
                a = rng.standard_normal((int(rng.integers(2, 5)), 3))
                mats.append(a / spectral_norm(a))
            u = rng.standard_normal((int(rng.integers(2, 5)), 3))
            pos = int(rng.integers(0, length + 1))
            w = khatri_rao_chain(mats[:pos] + [u] + mats[pos:])
            assert spectral_norm(w) <= spectral_norm(u) + 1e-10

    def test_sigma_min_product_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            rank = int(rng.integers(1, 4))
            factors = [rng.standard_normal((int(rng.integers(rank, rank + 4)), rank))
                       for _ in range(3)]
            chain_smin = sigma_min(khatri_rao_chain(factors))
            product = np.prod([sigma_min(a) for a in factors])
            assert chain_smin >= product - 1e-10


class TestMse:
    def test_identical(self):
        x = np.ones((2, 2, 2))
        assert mse(x, x) == 0.0

    def test_single_entry_difference(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        b[0, 0, 0] = 2.0
        assert mse(a, b) == pytest.approx(0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((3, 2, 4))
        total = 0.0
        for idx in np.ndindex(*a.shape):
            total += (a[idx] - b[idx]) ** 2
        assert mse(a, b) == pytest.approx(total / a.size, rel=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            mse(np.zeros((2, 2)), np.zeros((2, 3)))
