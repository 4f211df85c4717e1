"""Tensor condition number, unit-norm factor form, and conditioned factor generation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import mix
from .tensor_core import (
    CpModel,
    DimensionMismatch,
    check_shape,
    frobenius_norm,
    khatri_rao_chain,
    reconstruct,
    spectral_norm,
)

KAPPA_FINITE = "finite"
KAPPA_INFINITE = "infinite"


@dataclass(frozen=True)
class KappaReport:
    """Condition number of a CP tensor plus the quantities that define it.

    kappa = prod_n sigma_max(A_n) / sigma_min(A_1 (kr) ... (kr) A_N).
    cond_product_bound is prod_n cond(A_n) when every factor has full
    column rank, else None.  status is "infinite" when the Khatri-Rao
    chain is rank deficient; downstream code must branch on status rather
    than propagate the inf.
    """

    kappa: float
    sigma_max_product: float
    sigma_min_kr: float
    cond_product_bound: float | None
    status: str


@dataclass(frozen=True)
class NormalizedCpForm:
    """Scale lambda_tilde plus factors rescaled to unit spectral norm.

    Folding lambda_tilde into any one factor reconstructs the original
    tensor divided by its Frobenius norm.
    """

    lambda_tilde: float
    factors_tilde: tuple[np.ndarray, ...]

    @property
    def rank(self) -> int:
        return self.factors_tilde[0].shape[1]


def kappa(model: CpModel) -> KappaReport:
    smax_prod = 1.0
    cond_prod = 1.0
    full_rank = True
    for a in model.factors:
        s = np.linalg.svd(a, compute_uv=False)
        smax_prod *= float(s[0])
        # cond over the F columns is only defined with full column rank
        if a.shape[0] < a.shape[1] or s[-1] == 0.0:
            full_rank = False
        else:
            cond_prod *= float(s[0] / s[-1])
    chain = khatri_rao_chain(model.factors)
    s_chain = np.linalg.svd(chain, compute_uv=False)
    smin_kr = float(s_chain[-1])
    # same rank tolerance as numpy.linalg.matrix_rank
    tol = float(s_chain[0]) * max(chain.shape) * np.finfo(float).eps
    if smin_kr <= tol:
        return KappaReport(
            kappa=math.inf,
            sigma_max_product=smax_prod,
            sigma_min_kr=smin_kr,
            cond_product_bound=cond_prod if full_rank else None,
            status=KAPPA_INFINITE,
        )
    return KappaReport(
        kappa=smax_prod / smin_kr,
        sigma_max_product=smax_prod,
        sigma_min_kr=smin_kr,
        cond_product_bound=cond_prod if full_rank else None,
        status=KAPPA_FINITE,
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


def fold_scale(form: NormalizedCpForm) -> CpModel:
    """CpModel with lambda_tilde folded into the first factor."""
    factors = (form.factors_tilde[0] * form.lambda_tilde,) + form.factors_tilde[1:]
    return CpModel(factors)


def generate_conditioned_factor(rows: int, cols: int, kappa_target: float,
                                rng_seed: int, spacing: str = "linear") -> np.ndarray:
    """Random rows x cols matrix with condition number exactly kappa_target.

    Entries start i.i.d. uniform on [0, 1); the singular values are then
    replaced by a sequence running from 1 down to 1/kappa_target while the
    singular vectors are kept, so the spectral norm is 1.
    """
    if rows < cols:
        raise DimensionMismatch(f"need rows >= cols, got {rows} < {cols}")
    if cols < 1:
        raise DimensionMismatch("cols must be >= 1")
    if not 1.0 <= kappa_target < math.inf:
        raise ValueError(
            f"condition number target must be finite and >= 1, got {kappa_target}")
    rng = np.random.default_rng(rng_seed)
    a = rng.random((rows, cols))
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    if spacing == "linear":
        s = np.linspace(1.0, 1.0 / kappa_target, cols)
    elif spacing == "log":
        s = np.geomspace(1.0, 1.0 / kappa_target, cols)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    return (u * s) @ vt


def generate_conditioned_model(dims, rank: int, kappa_tilde: float,
                               rng_seed: int, spacing: str = "linear") -> CpModel:
    """CP model whose factors all have condition number kappa_tilde.

    Each mode uses an independent sub-seed derived from (rng_seed, mode).
    """
    dims = check_shape(dims)
    if any(d < rank for d in dims):
        raise DimensionMismatch(
            f"every dimension must be >= rank, got dims={dims}, rank={rank}"
        )
    factors = tuple(
        generate_conditioned_factor(d, rank, kappa_tilde, mix(rng_seed, n), spacing)
        for n, d in enumerate(dims)
    )
    return CpModel(factors)
