"""Closed-form sample-complexity calculators and an empirical isometry probe."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import (
    check_kappa,
    check_rank_fits,
    generate_conditioned_factors,
)
from .seeding import mix
from .sensing import SensingOperator
from .tensor_core import (
    check_count,
    check_number,
    check_positive,
    check_shape,
    param_count,
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
    """Sample conditioned CP tensors X and record ||A(X)||^2 / ||X||^2.

    Sample i is `generate_conditioned_model(op.shape, rank, kappa_tilde,
    mix(seed, i))`.  Samples are drawn a block at a time, each mode's
    factors for the whole block in one `generate_conditioned_factors` call.
    Phi, viewed as M x I_1 x J/I_1, is then streamed in slices of
    leading-mode indices: a slice of the block's tensors is the leading
    factor's rows times the trailing modes' component rows, summed over
    components 0..F-1, and ||x||^2 and Phi x are accumulated slice by
    slice, so Phi is read once per block.  A block holds
    max(1, 2^20 // (8 max(F J/I_1, M))) samples, so neither its component
    rows nor Phi x grows much past 1 MiB, and a slice spans as many leading
    indices (at least one) as fit beside the component rows in 1 MiB.
    """
    check_count("samples", samples)
    check_count("seed", seed, low=-math.inf)
    check_count("rank", rank)
    check_rank_fits(op.shape, rank)
    check_kappa("condition number target", kappa_tilde)
    lead, *trail = op.shape
    k = math.prod(trail)
    phi = op.matrix.reshape(op.m, lead, k)
    block = max(1, _PROBE_BLOCK_BYTES // (8 * max(rank * k, op.m)))
    ratios = np.empty(samples)
    for start in range(0, samples, block):
        sample_seeds = [mix(seed, i)
                        for i in range(start, min(start + block, samples))]
        s = len(sample_seeds)
        # mode n's factors of the block, s x I_n x F
        a0, *rest = (
            generate_conditioned_factors(
                d, rank, kappa_tilde, [mix(t, n) for t in sample_seeds])
            for n, d in enumerate(op.shape))
        # the trailing modes' component rows, s x F x J/I_1, built from
        # C-contiguous s x F x I_n copies so each product runs along a row
        rows = rest[0].transpose(0, 2, 1).copy()
        for a in rest[1:]:
            a = a.transpose(0, 2, 1).copy()
            rows = (rows[:, :, :, None] * a[:, :, None, :]).reshape(s, rank, -1)
        room = _PROBE_BLOCK_BYTES - rows.nbytes
        width = min(lead, max(1, room // (8 * s * k)))
        xs = np.empty((s, width, k))
        sq = np.zeros(s)
        for lo in range(0, lead, width):
            # the block's tensors at leading indices lo..lo+width-1
            x = np.einsum("sif,sfk->sik", a0[:, lo:lo + width], rows,
                          out=xs[:, :lead - lo]).reshape(s, -1)
            sq += np.einsum("ij,ij->i", x, x)
            phi_t = phi[:, lo:lo + width].reshape(op.m, -1).T
            # the first slice's product becomes ys; the later ones are added
            # in place, so at most one s x M temporary sits beside it
            if lo:
                ys += x @ phi_t
            else:
                ys = x @ phi_t
        ratios[start:start + s] = np.einsum("ij,ij->i", ys, ys) / sq
    return RipProbeResult(samples=samples, mean_ratio=float(ratios.mean()),
                          min_ratio=float(ratios.min()),
                          max_ratio=float(ratios.max()))
