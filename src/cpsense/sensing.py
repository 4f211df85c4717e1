"""Seeded subgaussian linear measurement operators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor_core import (DimensionMismatch, check_count, check_positive, check_seed,
                          check_shape, vec)

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
DISTRIBUTIONS = (GAUSSIAN, RADEMACHER)

# dense M x J matrices only; refuse instances that would not fit comfortably
MAX_ENTRIES = 200_000_000


@dataclass(frozen=True, eq=False)
class SensingOperator:
    """Dense M x prod(I_n) random matrix with i.i.d. variance-alpha/M entries.

    The same `create_operator` arguments give a bit-identical matrix,
    materialized once at construction.  Operators compare and hash by
    identity: a field-wise comparison would compare the matrix arrays,
    which have no single truth value.
    """

    m: int
    shape: tuple[int, ...]
    matrix: np.ndarray

    @cached_property
    def mode_unfoldings(self) -> tuple[np.ndarray, ...]:
        """Per mode n, Phi permuted to an (M * I_n) x (J / I_n) matrix.

        Row (m, i) and column c hold Phi[m, j], where j is the C-order index
        of the entry whose mode-n index is i and whose other mode indices,
        in C order, make c.  Built on first use only: mode 0 is a view of
        Phi, every other mode is a copy of it.
        """
        out = []
        for n, i_n in enumerate(self.shape):
            before = math.prod(self.shape[:n])
            perm = self.matrix.reshape(self.m, before, i_n, -1).transpose(0, 2, 1, 3)
            unfolding = perm.reshape(self.m * i_n, -1)
            unfolding.setflags(write=False)
            out.append(unfolding)
        return tuple(out)


def check_distribution(distribution: str) -> None:
    """Reject an entry distribution that `create_operator` cannot draw."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")


def check_operator_size(m: int, shape) -> None:
    """Reject an M x prod(shape) operator of more than MAX_ENTRIES entries;
    the count is a Python integer, so no shape can wrap it around."""
    entries = int(m) * math.prod(int(d) for d in shape)
    if entries > MAX_ENTRIES:
        raise ValueError(f"operator would hold {entries} entries "
                         f"(> {MAX_ENTRIES}); use a smaller instance")


def create_operator(m: int, shape, distribution: str = GAUSSIAN,
                    alpha: float = 1.0, seed: int = 0) -> SensingOperator:
    shape = check_shape(shape)
    check_count("measurement count", m)
    check_seed("operator seed", seed)
    check_positive("alpha", alpha)
    check_distribution(distribution)
    check_operator_size(m, shape)
    j = math.prod(shape)
    scale = math.sqrt(alpha / m)
    rng = np.random.default_rng(seed)
    if distribution == GAUSSIAN:
        matrix = rng.normal(0.0, scale, size=(m, j))
    else:
        matrix = scale * (2.0 * rng.integers(0, 2, size=(m, j)) - 1.0)
    matrix.setflags(write=False)
    return SensingOperator(m=m, shape=shape, matrix=matrix)


def check_tensor(op: SensingOperator, x) -> np.ndarray:
    """`x` as a float array, checked to have the operator's tensor shape."""
    x = np.asarray(x, dtype=float)
    if x.shape != op.shape:
        raise DimensionMismatch(f"tensor shape {x.shape} != operator shape {op.shape}")
    return x


def apply(op: SensingOperator, x: np.ndarray) -> np.ndarray:
    """y = Phi vec(x)."""
    return op.matrix @ vec(check_tensor(op, x))


def check_measurements(op: SensingOperator, y) -> np.ndarray:
    """`y` as a flat float vector, checked to hold the operator's M entries."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != op.m:
        raise DimensionMismatch(f"measurement length {y.size} != M = {op.m}")
    return y


def adjoint_apply(op: SensingOperator, y: np.ndarray) -> np.ndarray:
    """Tensor whose vectorization is Phi^T y."""
    y = check_measurements(op, y)
    return (op.matrix.T @ y).reshape(op.shape)
