"""Closed-form sample-complexity calculators and an empirical isometry probe."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import generate_conditioned_model
from .seeding import mix
from .sensing import SensingOperator
from .sensing import apply as sense_apply
from .tensor_core import check_shape, frobenius_norm, reconstruct


@dataclass(frozen=True)
class BoundInputs:
    dims: tuple[int, ...]
    rank: int
    tau: float
    eta: float
    alpha: float = 1.0
    c: float = 1.0
    delta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", check_shape(self.dims))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.tau < 1.0:
            raise ValueError(f"tau must be >= 1 (kappa >= 1), got {self.tau}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.alpha <= 0.0 or self.c <= 0.0:
            raise ValueError("alpha and c must be > 0")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def param_sum(self) -> int:
        return sum(self.dims) * self.rank


@dataclass(frozen=True)
class RipProbeResult:
    """Sampled distortion statistics of ||A(X)||^2 over unit-norm CP tensors.

    delta_hat lower-bounds the true restricted-isometry constant over the
    sampled set; it is a probe, not a certificate.
    """

    samples: int
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    delta_hat: float


def _measurement_bound(inputs: BoundInputs, params: int,
                       scale: float = 1.0) -> float:
    """C alpha^2 scale max{(1 + params) ln(3(N+1)tau), ln(1/eta)}."""
    branch1 = (1.0 + params) * math.log(3.0 * (inputs.order + 1) * inputs.tau)
    branch2 = math.log(1.0 / inputs.eta)
    return inputs.c * inputs.alpha ** 2 * scale * max(branch1, branch2)


def theorem1_measurement_bound(inputs: BoundInputs) -> float:
    """C alpha^2 max{(1 + 2 sum I_n F) ln(3(N+1)tau), ln(1/eta)}."""
    return _measurement_bound(inputs, 2 * inputs.param_sum)


def prop2_measurement_bound(inputs: BoundInputs) -> float:
    """C alpha^2 delta^-2 max{(1 + sum I_n F) ln(3(N+1)tau), ln(1/eta)}."""
    if inputs.delta is None:
        raise ValueError("this bound needs delta in (0, 1)")
    return _measurement_bound(inputs, inputs.param_sum, inputs.delta ** -2)


def covering_log_cardinality(dims, rank: int, tau: float, epsilon: float) -> float:
    """Natural log of the covering-number bound (3(N+1)tau/eps)^(1 + sum I_n F)."""
    dims = check_shape(dims)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if tau < 1.0:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    exponent = 1.0 + sum(dims) * rank
    return exponent * math.log(3.0 * (len(dims) + 1) * tau / epsilon)


def rip_probe(op: SensingOperator, rank: int, kappa_tilde: float,
              samples: int, seed: int, spacing: str = "linear") -> RipProbeResult:
    """Sample conditioned unit-Frobenius CP tensors and record ||A(X)||^2."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ratios = np.empty(samples)
    for i in range(samples):
        model = generate_conditioned_model(op.shape, rank, kappa_tilde,
                                           mix(seed, i), spacing)
        x = reconstruct(model)
        x /= frobenius_norm(x)
        yv = sense_apply(op, x)
        ratios[i] = float(np.dot(yv, yv))
    mean_r = float(ratios.mean())
    min_r = float(ratios.min())
    max_r = float(ratios.max())
    return RipProbeResult(samples=samples, mean_ratio=mean_r, min_ratio=min_r,
                          max_ratio=max_r,
                          delta_hat=max(1.0 - min_r, max_r - 1.0))
