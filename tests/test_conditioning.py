import numpy as np
import pytest

from cpsense.conditioning import (
    KAPPA_FINITE,
    KAPPA_INFINITE,
    fold_scale,
    generate_conditioned_factor,
    generate_conditioned_model,
    kappa,
    normalize,
)
from cpsense.tensor_core import (
    CpModel,
    DimensionMismatch,
    frobenius_norm,
    khatri_rao_chain,
    reconstruct,
)


def oracle_kappa(model):
    """From scratch: materialize the chain and take a full SVD."""
    smax = 1.0
    for a in model.factors:
        smax *= np.linalg.svd(a, compute_uv=False)[0]
    smin = np.linalg.svd(khatri_rao_chain(model.factors), compute_uv=False)[-1]
    return smax / smin


class TestKappa:
    def test_rank_one_is_one(self):
        rng = np.random.default_rng(0)
        model = CpModel(tuple(rng.standard_normal((4, 1)) for _ in range(3)))
        assert kappa(model).kappa == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_square_factors(self):
        rng = np.random.default_rng(1)
        factors = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            factors.append(q)
        assert kappa(CpModel(tuple(factors))).kappa == pytest.approx(1.0, abs=1e-10)

    def test_matches_svd_oracle(self):
        model = generate_conditioned_model((5, 6, 5), 3, 12.0, 99)
        report = kappa(model)
        assert report.status == KAPPA_FINITE
        assert report.kappa == pytest.approx(oracle_kappa(model), rel=1e-8)

    def test_rank_deficient_chain_is_infinite(self):
        a = np.ones((3, 2))  # duplicated columns: chain rank 1
        model = CpModel((a, a.copy(), a.copy()))
        report = kappa(model)
        assert report.status == KAPPA_INFINITE
        assert np.isinf(report.kappa)

    def test_cond_bound_unavailable_for_wide_factor(self):
        rng = np.random.default_rng(2)
        model = CpModel((rng.standard_normal((2, 3)),
                         rng.standard_normal((4, 3)),
                         rng.standard_normal((4, 3))))
        assert kappa(model).cond_product_bound is None

    def test_kappa_at_least_one_and_below_cond_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rank = int(rng.integers(1, 4))
            factors = tuple(
                rng.standard_normal((int(rng.integers(rank, rank + 3)), rank))
                for _ in range(3))
            report = kappa(CpModel(factors))
            assert report.kappa >= 1.0 - 1e-10
            if report.cond_product_bound is not None:
                assert report.kappa <= report.cond_product_bound + 1e-8


class TestNormalize:
    def test_fixed_point_of_folded_form(self):
        model = generate_conditioned_model((4, 4, 4), 2, 3.0, 5)
        form = normalize(model)
        again = normalize(fold_scale(form))
        assert again.lambda_tilde == pytest.approx(form.lambda_tilde, rel=1e-10)
        for a, b in zip(form.factors_tilde, again.factors_tilde):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_scale_invariance(self):
        model = generate_conditioned_model((4, 5, 4), 2, 2.0, 6)
        scaled = CpModel((5.0 * model.factors[0],) + model.factors[1:])
        base = normalize(model)
        other = normalize(scaled)
        assert other.lambda_tilde == pytest.approx(base.lambda_tilde, rel=1e-10)
        for a, b in zip(base.factors_tilde, other.factors_tilde):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_folded_form_reconstructs_unit_tensor(self):
        model = generate_conditioned_model((4, 4, 5), 2, 4.0, 7)
        x = reconstruct(model)
        folded = reconstruct(fold_scale(normalize(model)))
        np.testing.assert_allclose(folded, x / frobenius_norm(x), atol=1e-10)

    def test_idempotent(self):
        model = generate_conditioned_model((5, 4, 4), 2, 3.0, 8)
        form = normalize(model)
        again = normalize(CpModel(form.factors_tilde))
        for a, b in zip(form.factors_tilde, again.factors_tilde):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_lambda_bounded_by_kappa(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            rank = int(rng.integers(1, 4))
            factors = tuple(rng.standard_normal((int(rng.integers(rank, rank + 3)),
                                                 rank)) for _ in range(3))
            model = CpModel(factors)
            report = kappa(model)
            if report.status != KAPPA_FINITE:
                continue
            form = normalize(model)
            assert form.lambda_tilde * np.sqrt(model.rank) <= report.kappa + 1e-8

    def test_zero_factor_rejected(self):
        model = CpModel((np.zeros((3, 2)), np.ones((3, 2)), np.ones((3, 2))))
        with pytest.raises(ValueError):
            normalize(model)


class TestGenerateConditionedFactor:
    def test_cond_one_means_flat_spectrum(self):
        a = generate_conditioned_factor(6, 3, 1.0, 42)
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, np.ones(3), atol=1e-10)

    def test_linear_spacing_of_singular_values(self):
        a = generate_conditioned_factor(8, 3, 10.0, 42)
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, [1.0, 0.55, 0.1], atol=1e-10)
        assert s[0] / s[-1] == pytest.approx(10.0, rel=1e-8)

    def test_log_spacing(self):
        a = generate_conditioned_factor(8, 3, 100.0, 42, spacing="log")
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, [1.0, 0.1, 0.01], atol=1e-10)

    def test_deterministic(self):
        a = generate_conditioned_factor(7, 3, 5.0, 123)
        b = generate_conditioned_factor(7, 3, 5.0, 123)
        np.testing.assert_array_equal(a, b)

    def test_unit_spectral_norm_and_exact_cond(self):
        for target in (1.0, 10.0, 1e3):
            a = generate_conditioned_factor(9, 4, target, 3)
            s = np.linalg.svd(a, compute_uv=False)
            assert s[0] == pytest.approx(1.0, abs=1e-10)
            assert s[0] / s[-1] == pytest.approx(target, rel=1e-8)

    def test_invalid_arguments(self):
        with pytest.raises(DimensionMismatch):
            generate_conditioned_factor(2, 3, 2.0, 0)
        with pytest.raises(ValueError):
            generate_conditioned_factor(3, 2, 0.5, 0)

    @pytest.mark.parametrize("target", [np.inf, np.nan])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValueError, match="finite"):
            generate_conditioned_factor(3, 2, target, 0)


class TestGenerateConditionedModel:
    def test_cond_one_everywhere(self):
        model = generate_conditioned_model((4, 5, 6), 2, 1.0, 11)
        for a in model.factors:
            s = np.linalg.svd(a, compute_uv=False)
            assert s[0] / s[-1] == pytest.approx(1.0, rel=1e-8)

    def test_kappa_bounded_by_cond_cubed(self):
        model = generate_conditioned_model((5, 5, 5), 2, 5.0, 12)
        assert kappa(model).kappa <= 125.0 + 1e-6

    def test_modes_use_distinct_subseeds(self):
        model = generate_conditioned_model((4, 4, 4), 2, 2.0, 13)
        assert not np.array_equal(model.factors[0], model.factors[1])

    def test_dim_below_rank_rejected(self):
        with pytest.raises(DimensionMismatch):
            generate_conditioned_model((2, 4, 4), 3, 1.0, 0)
