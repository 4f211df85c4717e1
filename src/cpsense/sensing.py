"""Seeded subgaussian linear measurement operators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor_core import DimensionMismatch, check_shape, vec

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"

# dense M x J matrices only; refuse instances that would not fit comfortably
MAX_ENTRIES = 200_000_000


@dataclass(frozen=True, eq=False)
class SensingOperator:
    """Dense M x prod(I_n) random matrix with i.i.d. variance-alpha/M entries.

    Regenerating from (m, shape, distribution, alpha, seed) is bit-identical;
    the matrix is materialized once at construction.  Operators compare and
    hash by identity: a field-wise comparison would compare the matrix
    arrays, which have no single truth value.
    """

    m: int
    shape: tuple[int, ...]
    distribution: str
    alpha: float
    seed: int
    matrix: np.ndarray

    @property
    def signal_size(self) -> int:
        return int(np.prod(self.shape))

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


def create_operator(m: int, shape, distribution: str = GAUSSIAN,
                    alpha: float = 1.0, seed: int = 0) -> SensingOperator:
    shape = check_shape(shape)
    if m < 1:
        raise ValueError(f"measurement count must be >= 1, got {m}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    j = int(np.prod(shape))
    if m * j > MAX_ENTRIES:
        raise ValueError(
            f"operator would hold {m * j} entries (> {MAX_ENTRIES}); "
            "use a smaller instance"
        )
    scale = math.sqrt(alpha / m)
    rng = np.random.default_rng(seed)
    if distribution == GAUSSIAN:
        matrix = rng.normal(0.0, scale, size=(m, j))
    elif distribution == RADEMACHER:
        matrix = scale * (2.0 * rng.integers(0, 2, size=(m, j)) - 1.0)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    matrix.setflags(write=False)
    return SensingOperator(m=m, shape=shape, distribution=distribution,
                           alpha=float(alpha), seed=int(seed), matrix=matrix)


def apply(op: SensingOperator, x: np.ndarray) -> np.ndarray:
    """y = Phi vec(x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != op.shape:
        raise DimensionMismatch(f"tensor shape {x.shape} != operator shape {op.shape}")
    return op.matrix @ vec(x)


def adjoint_apply(op: SensingOperator, y: np.ndarray) -> np.ndarray:
    """Tensor whose vectorization is Phi^T y."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != op.m:
        raise DimensionMismatch(f"measurement length {y.size} != M = {op.m}")
    return (op.matrix.T @ y).reshape(op.shape)
