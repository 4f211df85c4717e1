"""Tensor condition number, unit-norm factor form, and conditioned factor generation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import mix
from .tensor_core import (
    CpModel,
    DimensionMismatch,
    check_count,
    check_number,
    check_seed,
    check_shape,
    frobenius_norm,
    khatri_rao_chain,
    reconstruct,
    spectral_norm,
)

KAPPA_FINITE = "finite"
KAPPA_INFINITE = "infinite"


def check_kappa(name: str, value: float) -> None:
    """Reject a condition number (or a bound on one) that is not a finite
    number >= 1."""
    check_number(name, value)
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 1, got {value}")


def check_rank_fits(dims, rank: int) -> None:
    """Reject a rank above a dimension: that factor could not have full column rank."""
    if any(d < rank for d in dims):
        raise DimensionMismatch(
            f"every dimension must be >= rank, got dims={dims}, rank={rank}")


@dataclass(frozen=True)
class KappaReport:
    """Condition number of a CP tensor plus the quantities that define it.

    kappa = prod_n sigma_max(A_n) / sigma_min(A_1 (kr) ... (kr) A_N).
    cond_product_bound is prod_n cond(A_n) when every factor has full
    column rank, else None.  kappa is inf when the Khatri-Rao chain is
    rank deficient (or the ratio overflows), and status is then "infinite";
    downstream code must branch on status rather than propagate the inf.
    """

    kappa: float
    sigma_max_product: float
    sigma_min_kr: float
    cond_product_bound: float | None

    @property
    def status(self) -> str:
        return KAPPA_INFINITE if math.isinf(self.kappa) else KAPPA_FINITE


@dataclass(frozen=True)
class NormalizedCpForm:
    """Scale lambda_tilde plus factors rescaled to unit spectral norm.

    Folding lambda_tilde into any one factor reconstructs the original
    tensor divided by its Frobenius norm.
    """

    lambda_tilde: float
    factors_tilde: tuple[np.ndarray, ...]


def kappa(model: CpModel) -> KappaReport:
    smax_prod = 1.0
    cond_prod: float | None = 1.0
    for a in model.factors:
        s = np.linalg.svd(a, compute_uv=False)
        smax_prod *= float(s[0])
        # cond over the F columns is only defined with full column rank
        if a.shape[0] < a.shape[1] or s[-1] == 0.0:
            cond_prod = None
        elif cond_prod is not None:
            cond_prod *= float(s[0] / s[-1])
    chain = khatri_rao_chain(model.factors)
    s_chain = np.linalg.svd(chain, compute_uv=False)
    smin_kr = float(s_chain[-1])
    # same rank tolerance as numpy.linalg.matrix_rank
    tol = float(s_chain[0]) * max(chain.shape) * np.finfo(float).eps
    singular = smin_kr <= tol
    return KappaReport(
        kappa=math.inf if singular else smax_prod / smin_kr,
        sigma_max_product=smax_prod,
        sigma_min_kr=smin_kr,
        cond_product_bound=cond_prod,
    )


def normalize(model: CpModel) -> NormalizedCpForm:
    """Rescale each factor to unit spectral norm and expose the scale."""
    norms = [spectral_norm(a) for a in model.factors]
    if any(s == 0.0 for s in norms):
        raise ValueError("cannot normalize a model with an all-zero factor")
    xnorm = frobenius_norm(reconstruct(model))
    if xnorm == 0.0:
        raise ValueError("cannot normalize a model whose tensor is zero")
    factors_tilde = tuple(a / s for a, s in zip(model.factors, norms))
    lam = float(np.prod(norms)) / xnorm
    return NormalizedCpForm(lambda_tilde=lam, factors_tilde=factors_tilde)


def generate_conditioned_factors(rows: int, cols: int, kappa_target: float,
                                 seeds) -> np.ndarray:
    """k x rows x cols stack of `generate_conditioned_factor` draws, one per
    seed, with the same bits.

    The k uniform draws go through one stacked SVD and one stacked product,
    which run the same LAPACK and BLAS calls per matrix as k single draws.
    """
    check_count("rows", rows)
    check_count("cols", cols)
    check_rank_fits((rows,), cols)
    check_kappa("condition number target", kappa_target)
    for seed in seeds:
        check_seed("rng_seed", seed)
    a = np.empty((len(seeds), rows, cols))
    for draw, seed in zip(a, seeds):
        np.random.default_rng(seed).random(out=draw)
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    s = np.linspace(1.0, 1.0 / kappa_target, cols)
    return (u * s) @ vt


def generate_conditioned_factor(rows: int, cols: int, kappa_target: float,
                                rng_seed: int) -> np.ndarray:
    """Random rows x cols matrix with condition number exactly kappa_target.

    Entries start i.i.d. uniform on [0, 1); the singular values are then
    replaced by values evenly spaced from 1 down to 1/kappa_target while the
    singular vectors are kept, so the spectral norm is 1.
    """
    return generate_conditioned_factors(rows, cols, kappa_target, (rng_seed,))[0]


def generate_conditioned_model(dims, rank: int, kappa_tilde: float,
                               rng_seed: int) -> CpModel:
    """CP model whose factors all have condition number kappa_tilde.

    Each mode uses an independent sub-seed derived from (rng_seed, mode).
    """
    check_count("rank", rank)
    dims = check_shape(dims)
    check_rank_fits(dims, rank)
    check_count("rng_seed", rng_seed, low=-math.inf)
    factors = tuple(
        generate_conditioned_factor(d, rank, kappa_tilde, mix(rng_seed, n))
        for n, d in enumerate(dims)
    )
    return CpModel(factors)
