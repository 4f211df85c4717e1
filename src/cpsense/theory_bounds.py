"""Closed-form sample-complexity calculators and an empirical isometry probe."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import check_kappa, generate_conditioned_model
from .seeding import mix
from .sensing import SensingOperator
from .tensor_core import (
    check_count,
    check_number,
    check_positive,
    check_shape,
    frobenius_norm,
    param_count,
    reconstruct,
)


# bytes of one block of stacked samples in `rip_probe`
_PROBE_BLOCK_BYTES = 1 << 20


def _check_tensor_set(dims, rank: int, tau: float) -> tuple[int, ...]:
    """Check the order-N, rank-F, kappa <= tau tensor set a bound covers."""
    dims = check_shape(dims)
    check_count("rank", rank)
    check_kappa("tau", tau)
    return dims


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
        object.__setattr__(self, "dims",
                           _check_tensor_set(self.dims, self.rank, self.tau))
        check_number("eta", self.eta)
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        check_positive("alpha", self.alpha)
        check_positive("c", self.c)
        if self.delta is not None:
            check_number("delta", self.delta)
            if not 0.0 < self.delta < 1.0:
                raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


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

    @property
    def delta_hat(self) -> float:
        return max(1.0 - self.min_ratio, self.max_ratio - 1.0)


def _measurement_bound(inputs: BoundInputs, params: int,
                       scale: float = 1.0) -> float:
    """C alpha^2 scale max{(1 + params) ln(3(N+1)tau), ln(1/eta)}."""
    branch1 = (1.0 + params) * math.log(3.0 * (len(inputs.dims) + 1) * inputs.tau)
    branch2 = math.log(1.0 / inputs.eta)
    return inputs.c * inputs.alpha ** 2 * scale * max(branch1, branch2)


def theorem1_measurement_bound(inputs: BoundInputs) -> float:
    """C alpha^2 max{(1 + 2 sum I_n F) ln(3(N+1)tau), ln(1/eta)}."""
    return _measurement_bound(inputs, 2 * param_count(inputs.dims, inputs.rank))


def prop2_measurement_bound(inputs: BoundInputs) -> float:
    """C alpha^2 delta^-2 max{(1 + sum I_n F) ln(3(N+1)tau), ln(1/eta)}."""
    if inputs.delta is None:
        raise ValueError("this bound needs delta in (0, 1)")
    return _measurement_bound(inputs, param_count(inputs.dims, inputs.rank),
                              inputs.delta ** -2)


def covering_log_cardinality(dims, rank: int, tau: float, epsilon: float) -> float:
    """Natural log of the covering-number bound (3(N+1)tau/eps)^(1 + sum I_n F)."""
    dims = _check_tensor_set(dims, rank, tau)
    check_positive("epsilon", epsilon)
    exponent = 1.0 + param_count(dims, rank)
    return exponent * math.log(3.0 * (len(dims) + 1) * tau / epsilon)


def rip_probe(op: SensingOperator, rank: int, kappa_tilde: float,
              samples: int, seed: int) -> RipProbeResult:
    """Sample conditioned unit-Frobenius CP tensors and record ||A(X)||^2.

    Sample i is drawn from seed mix(seed, i).  The normalized samples are
    stacked, one block of about 1 MiB at a time, and Phi is applied to a
    whole block with one matrix product, so Phi is read once per block, not
    once per sample.  A block holds max(1, 2^20 // (8 max(J, M))) samples,
    so neither it nor its image under Phi grows much past 1 MiB.
    """
    check_count("samples", samples)
    check_count("seed", seed, low=-math.inf)
    j = math.prod(op.shape)
    rows = max(1, _PROBE_BLOCK_BYTES // (8 * max(j, op.m)))
    block = np.empty((min(rows, samples), j))
    ratios = np.empty(samples)
    for start in range(0, samples, len(block)):
        xs = block[:samples - start]
        for k, x in enumerate(xs):
            model = generate_conditioned_model(op.shape, rank, kappa_tilde,
                                               mix(seed, start + k))
            x[:] = reconstruct(model).ravel()
            x /= frobenius_norm(x)
        ys = xs @ op.matrix.T
        ratios[start:start + len(xs)] = np.einsum("ij,ij->i", ys, ys)
    return RipProbeResult(samples=samples, mean_ratio=float(ratios.mean()),
                          min_ratio=float(ratios.min()),
                          max_ratio=float(ratios.max()))
