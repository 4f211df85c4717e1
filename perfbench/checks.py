"""Output checks computed apart from cpsense: plain numpy oracles.

Each function returns a list of failure messages; an empty list means the
operation's outputs are correct.
"""

from __future__ import annotations

import math
import string

import numpy as np

COND_RTOL = 1e-8
# two computations of the same residual or error tensor agree to this
# fraction of the signal norm (they differ only in summation order)
VECTOR_RTOL = 1e-12
RATIO_RTOL = 1e-10
_ROWS_PER_CHUNK = 64


def _outer(factors, keep_rank: bool) -> np.ndarray:
    letters = string.ascii_lowercase[:len(factors)]
    spec = ",".join(f"{c}z" for c in letters) + "->" + letters
    return np.einsum(spec + ("z" if keep_rank else ""), *factors)


def dense(factors) -> np.ndarray:
    """Sum of rank-one outer products, by einsum."""
    return _outer(factors, keep_rank=False)


def operator_matches(op, seed: int, alpha: float) -> list[str]:
    """Phi == default_rng(seed).normal(0, sqrt(alpha / M), (M, J)), bit for bit.

    The reference is drawn in row chunks from one generator, which yields
    the same stream as a single draw without holding a second matrix.
    """
    m, j = op.matrix.shape
    if (m, j) != (op.m, int(np.prod(op.shape))):
        return [f"operator matrix shape {op.matrix.shape}"]
    rng = np.random.default_rng(seed)
    scale = math.sqrt(alpha / m)
    for lo in range(0, m, _ROWS_PER_CHUNK):
        hi = min(m, lo + _ROWS_PER_CHUNK)
        if not np.array_equal(op.matrix[lo:hi], rng.normal(0.0, scale, (hi - lo, j))):
            return [f"operator rows {lo}:{hi} differ from the documented draw"]
    return []


def factors_conditioned(factors, kappa_tilde: float) -> list[str]:
    out = []
    for n, a in enumerate(factors):
        cond = float(np.linalg.cond(a))
        if abs(cond - kappa_tilde) > COND_RTOL * kappa_tilde:
            out.append(f"factor {n} has cond {cond!r}, wanted {kappa_tilde!r}")
    return out


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= VECTOR_RTOL * scale


def recovery_outputs(planted, matrix, y, report) -> tuple[list[str], float]:
    """Check one recovery trial; returns (failures, MSE against the plant)."""
    out = []
    truth = dense(planted)
    y_ref = matrix @ truth.ravel()
    y_norm = float(np.linalg.norm(y_ref))
    if y.shape != y_ref.shape or float(np.linalg.norm(y - y_ref)) > VECTOR_RTOL * y_norm:
        out.append("y differs from Phi vec(X) of the planted tensor")
    estimate = dense(report.model.factors)
    # objectives compared as residual norms: sqrt(objective) is a norm of a
    # vector whose two computations differ by rounding only
    residual = float(np.linalg.norm(y - matrix @ estimate.ravel()))
    if not _close(math.sqrt(max(report.objective, 0.0)), residual, y_norm):
        out.append(f"objective {report.objective!r} != |y - Phi vec X|^2 = {residual ** 2!r}")
    err = float(np.linalg.norm(truth - estimate))
    trial_mse = err ** 2 / truth.size
    if report.mse is None or not _close(math.sqrt(report.mse * truth.size), err,
                                         float(np.linalg.norm(truth))):
        out.append(f"report mse {report.mse!r} != {trial_mse!r}")
    return out, trial_mse


def kappa_oracle(factors) -> float:
    smax = math.prod(float(np.linalg.svd(a, compute_uv=False)[0]) for a in factors)
    # columns of the Khatri-Rao chain are the vectorized rank-one terms
    chain = _outer(factors, keep_rank=True).reshape(-1, factors[0].shape[1])
    return smax / float(np.linalg.svd(chain, compute_uv=False)[-1])


def probe_outputs(result, matrix, sample_factors, samples: int) -> list[str]:
    """Check rip_probe statistics against ratios recomputed from scratch."""
    out = []
    ratios = []
    for factors in sample_factors:
        x = dense(factors).ravel()
        x /= np.linalg.norm(x)
        yv = matrix @ x
        ratios.append(float(yv @ yv))
    ratios = np.array(ratios)
    ref = {"min_ratio": ratios.min(), "mean_ratio": ratios.mean(),
           "max_ratio": ratios.max()}
    for key, value in ref.items():
        got = getattr(result, key)
        if abs(got - value) > RATIO_RTOL * value:
            out.append(f"{key} {got!r} != recomputed {value!r}")
    if result.samples != samples:
        out.append(f"samples {result.samples} != {samples}")
    if not result.min_ratio <= result.mean_ratio <= result.max_ratio:
        out.append("not min <= mean <= max")
    if result.delta_hat != max(1.0 - result.min_ratio, result.max_ratio - 1.0):
        out.append(f"delta_hat {result.delta_hat!r} != max(1 - min, max - 1)")
    m = matrix.shape[0]
    if abs(result.mean_ratio - 1.0) > 5.0 * math.sqrt(2.0 / m):
        out.append(f"mean ratio {result.mean_ratio!r} off 1 by more than 5 sqrt(2/M)")
    return out


def kappa_matches(report, factors) -> list[str]:
    ref = kappa_oracle(factors)
    if abs(report.kappa - ref) > COND_RTOL * ref:
        return [f"kappa {report.kappa!r} != SVD oracle {ref!r}"]
    return []
