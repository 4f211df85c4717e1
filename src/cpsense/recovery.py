"""Rank-constrained recovery by damped Gauss-Newton on the factor parameterization.

The unknowns are the stacked factor entries, ordered mode by mode; within a
mode the entries of the I_n x F factor are taken column-major (row index
fastest), i.e. the flat index of A_n(i, f) inside its mode block is
f * I_n + i.

Each restart escalates through several starting points until the objective
is driven to the numerical floor:

1. i.i.d. standard normal factors scaled so the reconstruction matches
   the measurement norm;
2. over-parameterized warm starts (up to three, from independent seeds):
   fit the backprojection Phi^T y with a rank-(F+1) model by dense ALS,
   refine it against the measurements, drop the weakest component, and
   refine again at rank F.

The warm starts exist because random initialization alone frequently lands
in spurious stationary points when the measurement count is close to the
parameter count and the rank-one components have comparable weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import mix
from .sensing import SensingOperator, adjoint_apply
from .sensing import apply as sense_apply
from .tensor_core import (
    CpModel,
    DimensionMismatch,
    frobenius_norm,
    khatri_rao_chain,
    mse,
    reconstruct,
)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_STALLED = "stalled"

_MAX_DAMPING_RETRIES = 50
_DIAG_FLOOR = 1e-12
# relative objective level below which a stage counts as a numerical fit;
# well below any MSE-style success threshold but loose enough that
# ill-conditioned instances crawling near the floor do not trigger
# pointless escalation
_STAGE_SUCCESS_REL = 1e-12
_N_LADDER_STAGES = 3
_ALS_INIT_SWEEPS = 30


@dataclass(frozen=True)
class RecoveryConfig:
    rank: int
    max_iters: int = 500
    rel_obj_tol: float = 2.2e-16
    restarts: int = 5
    damping_init_scale: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.rel_obj_tol <= 0 or self.damping_init_scale <= 0:
            raise ValueError("tolerances must be > 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class RecoveryReport:
    """Outcome of `recover`: the best restart's model and how it was reached.

    ``iterations`` counts the LM iterations of the winning restart's best
    stage plus those of the rank-(F+1) ladder fits run in that restart.
    ``total_iterations`` counts the LM iterations of every run, over all
    restarts, stages and ladder fits: the solver work that ran.
    """

    model: CpModel
    objective: float
    objective_trace: list[float]
    iterations: int
    converged: bool
    restart_index: int
    status: str
    mse: float | None = None
    total_iterations: int = 0


@dataclass(frozen=True)
class LmRun:
    """One damped Gauss-Newton run: final model and objective, the objective
    after each accepted step, iterations taken and how the run ended."""

    model: CpModel
    objective: float
    trace: list[float]
    iterations: int
    status: str

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def objective(model: CpModel, op: SensingOperator, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=float).ravel()
    if y.size != op.m:
        raise DimensionMismatch(f"measurement length {y.size} != M = {op.m}")
    r = y - sense_apply(op, reconstruct(model))
    return float(np.dot(r, r))


def residual_jacobian(model: CpModel, op: SensingOperator, y: np.ndarray):
    """Residual r = y - Phi vec(X) and its Jacobian w.r.t. the factor entries.

    The column for A_n(i, f) is -Phi times the vectorized rank-one tensor
    built from the f-th factor columns with e_i substituted at mode n, so
    block n is one product of the mode-n unfolding of Phi with the
    Khatri-Rao product of the other factors.  The model is linear in each
    factor, so Phi vec(X) = -J_N x_N and the residual comes from the last
    block.
    """
    if model.shape != op.shape:
        raise DimensionMismatch(f"model shape {model.shape} != operator shape {op.shape}")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != op.m:
        raise DimensionMismatch(f"measurement length {y.size} != M = {op.m}")
    factors = model.factors
    f = model.rank
    blocks = []
    for n, unfolding in enumerate(op.mode_unfoldings):
        i_n = factors[n].shape[0]
        t = unfolding @ khatri_rao_chain(factors[:n] + factors[n + 1:])
        # t[(m, i), g] -> columns ordered (g, i), as _pack orders a factor
        blocks.append(-t.reshape(op.m, i_n, f).transpose(0, 2, 1).reshape(op.m, f * i_n))
    r = y + blocks[-1] @ factors[-1].ravel(order="F")
    return r, np.hstack(blocks)


def _pack(factors) -> np.ndarray:
    return np.concatenate([a.ravel(order="F") for a in factors])


def _unpack(x: np.ndarray, dims, rank: int) -> CpModel:
    factors = []
    offset = 0
    for d in dims:
        factors.append(x[offset:offset + d * rank].reshape((d, rank), order="F"))
        offset += d * rank
    return CpModel(tuple(factors))


def _lm_single(factors0, op: SensingOperator, y: np.ndarray,
               config: RecoveryConfig, rank: int) -> LmRun:
    """One damped Gauss-Newton run from the given factors.

    The damping mu follows Nielsen's gain-ratio rule (Madsen, Nielsen &
    Tingleff, Methods for Non-Linear Least Squares Problems, DTU 2004,
    sec. 3.2): an accepted step scales mu by max(1/3, 1 - (2 rho - 1)^3),
    where rho is the measured decrease over the decrease the linear model
    predicts, and resets nu to 2; a rejected try scales mu by nu and
    doubles nu.  A step so small that x - delta rounds back to x ends the
    run as stalled.
    """
    dims = op.shape
    x = _pack(factors0)
    model = _unpack(x, dims, rank)
    r, jac = residual_jacobian(model, op, y)
    f_val = float(np.dot(r, r))
    trace = [f_val]
    if f_val == 0.0:
        return LmRun(model, f_val, trace, 0, STATUS_CONVERGED)

    mu = config.damping_init_scale
    nu = 2.0
    on_diag = np.diag_indices(x.size)
    status = STATUS_MAX_ITERS
    it = 0
    for it in range(1, config.max_iters + 1):
        jtj = jac.T @ jac
        g = jac.T @ r
        diag = np.diag(jtj)
        dmax = max(float(diag.max()), np.finfo(float).tiny)
        shift = np.maximum(diag, _DIAG_FLOOR * dmax)
        # below this length, x - delta rounds back to (about) x
        min_step = np.finfo(float).eps * float(np.linalg.norm(x))
        accepted = False
        for _ in range(_MAX_DAMPING_RETRIES):
            damped = jtj.copy()
            damped[on_diag] += mu * shift
            try:
                delta = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                if float(np.linalg.norm(delta)) <= min_step:
                    break
                x_new = x - delta
                trial = _unpack(x_new, dims, rank)
                f_new = objective(trial, op, y)
                if f_new < f_val:
                    accepted = True
                    gain = f_val - f_new
                    # decrease of ||r - J delta||^2 from ||r||^2
                    predicted = float(delta @ g + mu * (shift * delta) @ delta)
                    # rho >= 1 (or a prediction lost to rounding) gets the
                    # largest cut, 1/3, so clipping rho at 1 changes nothing
                    rho = gain / predicted if gain < predicted else 1.0
                    mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                    nu = 2.0
                    break
            mu *= nu
            nu *= 2.0
        if not accepted:
            status = STATUS_STALLED
            break
        rel_change = (f_val - f_new) / f_val
        x, model, f_val = x_new, trial, f_new
        trace.append(f_val)
        if f_val == 0.0 or rel_change < config.rel_obj_tol:
            status = STATUS_CONVERGED
            break
        r, jac = residual_jacobian(model, op, y)

    return LmRun(model, f_val, trace, it, status)


def _scale_to_norm(factors, target: float):
    """Rescale all factors uniformly so the reconstruction norm hits target."""
    norm0 = frobenius_norm(reconstruct(CpModel(tuple(factors))))
    if norm0 == 0.0:
        return list(factors)
    scale = (target / norm0) ** (1.0 / len(factors))
    return [scale * a for a in factors]


def _dense_cp_als(x_tensor: np.ndarray, rank: int, rng, sweeps: int):
    """ALS fit of a dense tensor with a rank-`rank` CP model."""
    dims = x_tensor.shape
    n_modes = len(dims)
    factors = [rng.standard_normal((d, rank)) for d in dims]
    for _ in range(sweeps):
        for n in range(n_modes):
            others = [factors[m] for m in range(n_modes) if m != n]
            unfolded = np.moveaxis(x_tensor, n, 0).reshape(dims[n], -1)
            kr = khatri_rao_chain(others)
            factors[n] = np.linalg.lstsq(kr, unfolded.T, rcond=None)[0].T
    return factors


def _truncate(factors, rank: int):
    """Keep the `rank` components with the largest norm product."""
    weights = np.ones(factors[0].shape[1])
    for a in factors:
        weights *= np.linalg.norm(a, axis=0)
    keep = np.argsort(weights)[::-1][:rank]
    return [a[:, keep].copy() for a in factors]


def _random_start(op, y, y_norm, rank, rng):
    factors = [rng.standard_normal((d, rank)) for d in op.shape]
    return _scale_to_norm(factors, y_norm)


def _ladder_start(op, y, y_norm, rank, rng, config):
    """Over-parameterized warm start via the backprojection Phi^T y."""
    backprojection = adjoint_apply(op, y)
    factors = _dense_cp_als(backprojection, rank + 1, rng, _ALS_INIT_SWEEPS)
    factors = _scale_to_norm(factors, y_norm)
    run = _lm_single(factors, op, y, config, rank + 1)
    return _truncate(run.model.factors, rank), run


def recover(op: SensingOperator, y: np.ndarray, config: RecoveryConfig,
            ground_truth: np.ndarray | None = None) -> RecoveryReport:
    """Run the staged Gauss-Newton solver from several random restarts.

    The best restart by final objective wins (ties: lowest restart index);
    remaining restarts are skipped once one reaches the numerical floor.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != op.m:
        raise DimensionMismatch(f"measurement length {y.size} != M = {op.m}")
    y_norm = float(np.linalg.norm(y))
    floor = _STAGE_SUCCESS_REL * max(1.0, y_norm ** 2)
    rank = config.rank

    best: RecoveryReport | None = None
    total_iters = 0
    for k in range(config.restarts):
        restart_seed = mix(config.seed, k)
        stage_runs = []
        extra_iters = 0
        for stage in range(1 + _N_LADDER_STAGES):
            rng = np.random.default_rng(mix(restart_seed, stage))
            try:
                if stage == 0:
                    factors = _random_start(op, y, y_norm, rank, rng)
                else:
                    factors, ladder = _ladder_start(op, y, y_norm, rank, rng,
                                                    config)
                    extra_iters += ladder.iterations
                    total_iters += ladder.iterations
                run = _lm_single(factors, op, y, config, rank)
            except np.linalg.LinAlgError:
                continue
            total_iters += run.iterations
            stage_runs.append(run)
            if run.objective <= floor:
                break
        if not stage_runs:
            continue
        won = min(stage_runs, key=lambda s: s.objective)
        report = RecoveryReport(model=won.model, objective=won.objective,
                                objective_trace=won.trace,
                                iterations=won.iterations + extra_iters,
                                converged=won.converged, restart_index=k,
                                status=won.status)
        if best is None or report.objective < best.objective:
            best = report
        if best.objective <= floor:
            break

    if best is None:
        # every restart failed to produce a solvable system
        zero = CpModel(tuple(np.zeros((d, rank)) for d in op.shape))
        best = RecoveryReport(model=zero, objective=float(np.dot(y, y)),
                              objective_trace=[float(np.dot(y, y))],
                              iterations=0, converged=False, restart_index=0,
                              status=STATUS_STALLED)
    best.total_iterations = total_iters
    if ground_truth is not None:
        best.mse = mse(ground_truth, reconstruct(best.model))
    return best
