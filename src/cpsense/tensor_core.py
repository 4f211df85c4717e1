"""Dense tensor and CP model algebra.

Conventions used throughout the package:

* A dense order-N tensor is a numpy array of shape (I_1, ..., I_N).
* ``vec(X)`` is the C-order (row-major) flattening, i.e. the last mode
  index varies fastest.  With this convention
  ``vec(reconstruct(model)) == khatri_rao_chain(model.factors) @ ones(F)``.
* Matrices are 2-D numpy arrays of shape (rows, cols).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Incompatible shapes between factors, tensors, or operators."""


def check_shape(dims) -> tuple[int, ...]:
    """Validate tensor dimensions (order >= 2, every dim an integer >= 1)."""
    dims = tuple(dims)
    if len(dims) < 2:
        raise DimensionMismatch(f"tensor order must be >= 2, got {len(dims)}")
    if any(d < 1 for d in dims if isinstance(d, numbers.Integral)):
        raise DimensionMismatch(f"all dimensions must be >= 1, got {dims}")
    for d in dims:
        check_count("dimension", d)
    return tuple(int(d) for d in dims)


def check_number(name: str, value: float) -> None:
    """Reject a setting that is not a real number: a str or a bool is not
    one, though float would read either."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def check_positive(name: str, value: float) -> None:
    """Reject a scale that is not a positive finite number (NaN included)."""
    check_number(name, value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be > 0 and finite, got {value}")


def check_count(name: str, value: int, low: float = 1) -> None:
    """Reject a count (a rank, a number of measurements, trials, ...) that is
    not an integer (a bool is not a count) or is below ``low``.  A seed of
    `seeding.mix` takes ``low=-math.inf``: any integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_seed(name: str, value: int) -> None:
    """Reject a seed numpy's generators refuse: a non-integer or a negative."""
    check_count(name, value, low=0)


@dataclass(frozen=True)
class CpModel:
    """A CP model: one I_n x F factor matrix per mode, weights absorbed."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        factors = tuple(np.asarray(a, dtype=float) for a in self.factors)
        if len(factors) < 2:
            raise DimensionMismatch("a CP model needs at least 2 factor matrices")
        for a in factors:
            if a.ndim != 2:
                raise DimensionMismatch("factor matrices must be 2-D")
            if not np.all(np.isfinite(a)):
                raise ValueError("factor entries must be finite")
        cols = {a.shape[1] for a in factors}
        if len(cols) != 1:
            raise DimensionMismatch(f"factors disagree on column count: {sorted(cols)}")
        if factors[0].shape[1] < 1:
            raise DimensionMismatch("rank must be >= 1")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.factors)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product; the b-row index varies fastest."""
    return khatri_rao_chain([a, b])


def _component_rows(factors) -> np.ndarray:
    """The Khatri-Rao chain of `factors` laid out as an F x J array: row f is
    the left-associated Kronecker product of the factors' f-th columns.

    Each product then runs along a contiguous row, not along a J-long column
    of stride F, and every entry is the same left-to-right product, with the
    same bits, that `khatri_rao` folded left gives.
    """
    rows = None
    for a in factors:
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch("khatri_rao expects 2-D matrices")
        if rows is None:
            rows = a.T.copy()
            continue
        rank = len(rows)
        if a.shape[1] != rank:
            raise DimensionMismatch(f"column counts differ: {rank} vs {a.shape[1]}")
        rows = (rows[:, :, None] * a.T.copy()[:, None, :]).reshape(rank, -1)
    if rows is None:
        raise DimensionMismatch("khatri_rao_chain needs at least one matrix")
    return rows


def khatri_rao_chain(factors) -> np.ndarray:
    """Left-associated Khatri-Rao product of a list of matrices, J x F.

    Built one row per component, then copied back to a C-contiguous J x F
    array: callers multiply it by other matrices (the Jacobian blocks of
    `recovery`), and a transposed view would send those products down
    another BLAS path and change their bits.
    """
    return _component_rows(factors).T.copy()


def reconstruct(model: CpModel) -> np.ndarray:
    """Dense tensor equal to the sum of the model's rank-one components.

    The components are added in order 0, 1, ..., F-1: numpy reduces the
    leading axis of the C-contiguous F x J component rows one row at a time.
    Below 8 components that gives the bits of
    `khatri_rao_chain(factors).sum(axis=1)`; from 8 on, numpy sums a
    contiguous axis pairwise and the last bits can differ.
    """
    return _component_rows(model.factors).sum(axis=0).reshape(model.shape)


def vec(x: np.ndarray) -> np.ndarray:
    """Canonical vectorization (C order, last index fastest)."""
    return np.asarray(x, dtype=float).ravel()


def frobenius_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float).ravel()))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise DimensionMismatch("spectral_norm of an empty matrix")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def sigma_min(a: np.ndarray) -> float:
    """Smallest of the min(rows, cols) singular values."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise DimensionMismatch("sigma_min of an empty matrix")
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def mse(truth: np.ndarray, recovered: np.ndarray) -> float:
    """Squared Frobenius distance divided by the number of entries."""
    truth = np.asarray(truth, dtype=float)
    recovered = np.asarray(recovered, dtype=float)
    if truth.shape != recovered.shape:
        raise DimensionMismatch(
            f"shape mismatch: {truth.shape} vs {recovered.shape}"
        )
    diff = truth - recovered
    return float(np.dot(diff.ravel(), diff.ravel()) / truth.size)


def param_count(dims, rank: int) -> int:
    """Total factor entry count sum_n I_n * F."""
    return int(sum(dims) * rank)
