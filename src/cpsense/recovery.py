"""Rank-constrained recovery by damped Gauss-Newton on the factor parameterization.

Every LM run is a variable projection run (Golub & Pereyra, SIAM J.
Numer. Anal. 10, 1973).  The model is linear in each factor: Phi vec(X) =
-B_N vec(A_N), with B_N the last Jacobian block, which depends on the other
N - 1 factors only.  So a run's unknowns theta are the first N - 1 factors,
and at every point it evaluates, the run eliminates the last factor: it
solves A_N = -G^-1 B_N^T y, G = B_N^T B_N, with one `np.linalg.solve`, and
scores the point as ||y + B_N vec(A_N)||^2.  Each step solves the damped
normal equations of Kaufman's projected Jacobian (BIT 15, 1975),
J = (I - B_N G^-1 B_N^T) [B_1 ... B_{N-1}]: 48 unknowns at the paper's
8 x 8 x 8, F = 3, against 72 for all factors.  An evaluated point computes
B_N and G once, and the step from it reuses them.  A run builds one
`CpModel`, when it ends.  The last factor has I_N F entries, so `recover`
rejects M < I_N F, where G is singular.

theta is packed mode by mode, each I_n x F factor in C order: A_n(i, f)
sits at offset_n + i * F + f, the order `vec` uses for a tensor.  So
Jacobian block n is one (M I_n) x (J / I_n) x F matrix product, J the
product of the I_n: the mode-n unfolding of Phi times the Khatri-Rao
product of the other factors, reshaped with no transposed copy.

A start is a theta.  Each restart escalates through several until a rank-F
run drives the objective ||y - Phi vec(X)||^2 to the floor
1e-11 * ||y||^2:

1. i.i.d. standard normal factors, not rescaled;
2. over-parameterized warm starts (up to three, from independent seeds):
   fit the backprojection Phi^T y with a rank-(F+1) model by dense ALS,
   keep its first N - 1 factors with their columns scaled to unit norm,
   refine them against the measurements, drop the weakest component, and
   refine again at rank F.

The warm starts exist because random initialization alone frequently lands
in spurious stationary points when the measurement count is close to the
parameter count and the rank-one components have comparable weights.  So a
random start that has not ended after 10 steps, with its objective then
above 0.03 ||y||^2, ends there as ``abandoned``; the search moves on to its
restart's ladder stages, and the abandoned run competes for the win like
any other run.

A start at which the last factor cannot be eliminated (the solve raises or
returns a non-finite factor) gives no run.  `recover` skips its (restart,
stage) slot, as it skips a ladder stage whose ALS fit raises, and raises
`LinAlgError` only when no slot gives a run.

Every LM run, rank-F runs and rank-(F+1) ladder fits alike, checks the floor
at its start and after each accepted step and ends there with status
``floor``.  A run that is not at the floor ends as ``converged`` on a
plateau (Madsen, Nielsen & Tingleff stop on such slow progress): a rank-F
run once its last 10 accepted steps together lowered the objective by less
than 1e-4 of it, a ladder fit once its last 5 lowered it by less than 3e-2
of it.  A ladder fit only has to give a start, so it ends as soon as it
stops descending, where a rank-F run must still be able to crawl to the
floor.  The plateau test is a search budget, not a stop with a margin: it
can end a run that would reach the floor much later, and the search then
moves on to the next start.

No start puts the scale of y into theta; the last factor, which carries it,
is solved for; the floor, the plateau test and the damping D = diag(J^T J)
are relative.  So recover(op, c * y) runs the same search for every c > 0
up to rounding, and bit for bit for c a power of two, short of overflow:
the same theta at every point, the last factor times c and every objective
times c^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .seeding import mix
from .sensing import SensingOperator, adjoint_apply, check_measurements, check_tensor
from .sensing import apply as sense_apply
from .tensor_core import (
    CpModel,
    DimensionMismatch,
    check_count,
    khatri_rao_chain,
    mse,
    reconstruct,
)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_STALLED = "stalled"
STATUS_FLOOR = "floor"
STATUS_ABANDONED = "abandoned"

_MAX_DAMPING_RETRIES = 50
_DIAG_FLOOR = 1e-12
# objective level, relative to ||y||^2, at which a run stops and a rank-F run
# ends the search.  Chosen on the Fig. 1 sweep: at 1e-10 rows ended at mse up
# to 9.6e-13, next to the 1e-12 margin kept under the 1e-10 success
# threshold; at 1e-12 kappa_tilde = 1000 runs could not reach it and fell
# through to later stages and restarts
_STAGE_SUCCESS_REL = 1e-11
_N_LADDER_STAGES = 3
_ALS_INIT_SWEEPS = 30
# a run converges once its last `steps` accepted steps together lowered the
# objective by less than `tol` of it, (steps, tol) one of the pairs below.
# This is a search budget, not a margin-protected stop.
# _PLATEAU_RANK_F, for rank-F runs: on the Fig. 1 criterion-1 sweep at base
# seeds 1, 3, 5 and 7 it ends two random starts that would reach the floor
# after 478 and 293 steps (base seed 1, kappa_tilde = 100, trial 18; base
# seed 5, kappa_tilde = 1000, trial 3), and restart 0's first ladder stage
# recovers both trials; the flattest 10-step window of a rank-F run that
# reached the floor lowered the objective by 2.4e-4 of it.  Against 20
# steps under 1e-7, the sweep runs 15-25 % fewer LM iterations with the
# same success counts; at 1e-3 an M = 80 trial is lost.
# _PLATEAU_LADDER, for rank-(F+1) ladder fits, which only give a start: a
# fit that stalls in a swamp (Mitchell & Burdick, J. Chemometrics 8, 1994)
# sits flat for 30-60 steps under the rank-F pair before it ends.  Under
# the rank-F pair, 9 of the 143 ladder fits that reached the floor on the
# criterion-1 sweep at base seeds 1, 3, 5 and 7 had a flatter 5-step
# window; the search still recovers each of those trials, from the
# truncated fit or a later stage.  Against the rank-F pair, the sweep runs
# 14,665 / 18,197 / 14,061 / 15,149 -> 12,623 / 15,970 / 13,454 / 13,333
# LM iterations (base seeds 1/3/5/7) with the same success counts, and
# M = 80 rows (kappa_tilde 1 and 100, base seeds 1 and 5) do not move.
# The frontier, as (steps, tol): (5, 1e-3) loses a kappa_tilde = 1 trial
# at base seed 3; (10, 1e-2) saves less (14,503 / 16,899 at base seeds
# 1 / 3); (5, 5e-2) and (5, 1e-1) take base seed 1 to 12,865 and 12,564,
# and (5, 1e-1) takes base seed 5 to 14,236
_PLATEAU_RANK_F = (10, 1e-4)
_PLATEAU_LADDER = (5, 3e-2)
# a random start that has not ended after _ABANDON_STEPS steps, with its
# objective then above _ABANDON_REL * ||y||^2, ends there as `abandoned`.
# On the Fig. 1 criterion-1 sweep at base seeds 1, 3, 5 and 7 and at
# M = 80 (kappa_tilde 1 and 100, base seeds 1 and 5), 169 random starts
# were above the level after 10 steps; the 35 of them that ran on after
# their restart's ladder stages all ended `converged` at a spurious point,
# none at the floor.  Ending them there keeps every success count and the
# winner and mse of every successful row, with 0-5.2 % fewer LM iterations
_ABANDON_STEPS = 10
_ABANDON_REL = 0.03
# initial LM damping mu
_DAMPING_INIT = 1e-3
# float64 limits, looked up once rather than on every LM step
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RecoveryConfig:
    rank: int
    max_iters: int = 500
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        check_count("rank", self.rank)
        check_count("max_iters", self.max_iters)
        check_count("restarts", self.restarts)
        check_count("seed", self.seed, low=-math.inf)


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of `recover`: the best restart's model and how it was reached.

    ``restart_index`` and ``stage_index`` name the winning rank-F run: its
    restart and its start stage (0 the random start, 1-3 a ladder stage).
    ``iterations`` counts the LM iterations of every run, rank-F runs and
    rank-(F+1) ladder fits, over all restarts: the solver work that ran,
    the 10 steps of an abandoned random start included.  ``status`` is how
    the winning run ended; it is ``abandoned`` when an abandoned random
    start had the lowest objective.
    """

    model: CpModel
    objective: float
    objective_trace: list[float]
    iterations: int
    restart_index: int
    stage_index: int
    status: str
    mse: float | None


@dataclass(frozen=True)
class LmRun:
    """One damped Gauss-Newton run: final model and objective, the objective
    after each accepted step, iterations taken and how the run ended."""

    model: CpModel
    objective: float
    trace: list[float]
    iterations: int
    status: str


def objective(model: CpModel, op: SensingOperator, y: np.ndarray) -> float:
    y = check_measurements(op, y)
    r = y - sense_apply(op, reconstruct(model))
    return float(np.dot(r, r))


def _jacobian_block(op: SensingOperator, factors, n: int) -> np.ndarray:
    """Block n of the Jacobian: column (i, f) is -Phi times the vectorized
    rank-one tensor built from the f-th factor columns with e_i at mode n.

    It is one product of the mode-n unfolding of Phi with the Khatri-Rao
    product of the other factors; row (m, i), column f of that product is
    column (i, f) of the block.
    """
    others = khatri_rao_chain(factors[:n] + factors[n + 1:])
    return (op.mode_unfoldings[n] @ -others).reshape(op.m, -1)


def residual_jacobian(model: CpModel, op: SensingOperator, y: np.ndarray):
    """Residual r = y - Phi vec(X) and its Jacobian w.r.t. the factor entries,
    one `_jacobian_block` per mode.  The model is linear in each factor, so
    Phi vec(X) = -B_N vec(A_N), with B_N the last block."""
    if model.shape != op.shape:
        raise DimensionMismatch(f"model shape {model.shape} != operator shape {op.shape}")
    y = check_measurements(op, y)
    factors = model.factors
    blocks = [_jacobian_block(op, factors, n) for n in range(len(factors))]
    return y + blocks[-1] @ factors[-1].ravel(), np.hstack(blocks)


def check_measurement_count(m: int, shape, rank: int) -> None:
    """Reject M below I_N * F, the entry count of the last factor.  The
    solver finds that factor by least squares at every point, and with fewer
    measurements its normal matrix is singular.  Such an M is also below the
    degrees of freedom F (sum(I_n) - N + 1) of a rank-F model."""
    need = int(shape[-1]) * int(rank)
    if int(m) < need:
        raise ValueError(f"M = {m} measurements is below I_N * F = {need}, "
                         f"the entry count of the last factor")


@dataclass(frozen=True)
class _Point:
    """A point of a variable projection run: the packed first N - 1 factors
    theta, their factor views followed by the last factor solved for at them,
    the last Jacobian block B_N, G = B_N^T B_N, the residual r and
    f = ||r||^2."""

    theta: np.ndarray
    factors: tuple[np.ndarray, ...]
    block: np.ndarray
    gram: np.ndarray
    r: np.ndarray
    f: float


def _eliminate_last(op: SensingOperator, theta: np.ndarray, rank: int,
                    y: np.ndarray) -> _Point | None:
    """Solve for the last factor by least squares at the packed first N - 1
    factors theta: a = -G^-1 B_N^T y, with B_N the last Jacobian block, which
    depends on theta only, and G = B_N^T B_N; the residual is
    r = y + B_N vec(a).  Returns None when the solve raises or a is not
    finite.  Writes into no array it is given."""
    thetas = _factor_views(theta, op.shape[:-1], rank)
    # the last block is built from the other N - 1 factors alone
    block = _jacobian_block(op, thetas, len(thetas))
    gram = block.T @ block
    try:
        a = np.linalg.solve(gram, -(block.T @ y))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(a).all():
        return None
    r = y + block @ a
    return _Point(theta, (*thetas, a.reshape(op.shape[-1], rank)), block, gram,
                  r, float(r @ r))


def _projected_normal_equations(op: SensingOperator, point: _Point):
    """J^T J and g = J^T r for Kaufman's projected Jacobian
    J = (I - B_N G^-1 B_N^T) [B_1 ... B_{N-1}] at a point `_eliminate_last`
    returned.  There r is orthogonal to the columns of B_N, so
    g = [B_1 ... B_{N-1}]^T r: half the gradient of min_a ||y + B_N a||^2
    over theta."""
    factors = point.factors
    jac = np.hstack([_jacobian_block(op, factors, n)
                     for n in range(len(factors) - 1)])
    g = jac.T @ point.r
    # B_N^T J as the transpose of a C-ordered product: the solve then takes
    # its right sides in Fortran order, without a transposed copy
    jac -= point.block @ np.linalg.solve(point.gram, (jac.T @ point.block).T)
    return jac.T @ jac, g


def _pack(factors) -> np.ndarray:
    return np.concatenate([a.ravel() for a in factors])


def _factor_views(x: np.ndarray, dims, rank: int) -> list[np.ndarray]:
    """The I_n x F factors as views of the packed vector x."""
    factors = []
    offset = 0
    for d in dims:
        factors.append(x[offset:offset + d * rank].reshape(d, rank))
        offset += d * rank
    return factors


def _unpack(x: np.ndarray, dims, rank: int) -> CpModel:
    return CpModel(tuple(_factor_views(x, dims, rank)))


def _lm_single(thetas, op: SensingOperator, y: np.ndarray, max_iters: int,
               floor: float, abandon_above: float = math.inf,
               plateau: tuple[int, float] = _PLATEAU_RANK_F) -> LmRun | None:
    """One damped Gauss-Newton run from the first N - 1 factors ``thetas``,
    at their rank, by variable projection; None if the last factor cannot
    be eliminated at the start.

    The iterate is a `_Point`.  At every evaluated point `_eliminate_last`
    solves for the last factor by least squares, so the objective is
    f(theta) = min_a ||y + B_N(theta) a||^2.  A step solves the damped normal
    equations of Kaufman's projected Jacobian, `_projected_normal_equations`,
    which has (sum(I_n) - I_N) F unknowns.

    Each iteration, the start included, first tests the current point: the
    run ends as `floor` if its objective is at most ``floor``, as
    `converged` if, with ``plateau`` = (steps, tol), the last `steps`
    accepted steps together lowered the objective by less than `tol` of it
    (f > (1 - tol) * f_{-steps}, with f_{-steps} the objective `steps`
    accepted steps back; a product, not a ratio, so it is safe at f = 0 and
    free of the scale of y), as `max_iters` after ``max_iters`` steps, and
    as `abandoned` after 10 steps with its objective above
    ``abandon_above``.  ``plateau`` is (10, 1e-4) for a rank-F run and
    (5, 3e-2) for a rank-(F+1) ladder fit.

    The damping mu follows Nielsen's gain-ratio rule (Madsen, Nielsen &
    Tingleff, Methods for Non-Linear Least Squares Problems, DTU 2004,
    sec. 3.2): an accepted step scales mu by max(1/3, 1 - (2 rho - 1)^3),
    where rho is the measured decrease over the decrease the linear model
    predicts, and resets nu to 2; a rejected try, or one whose elimination
    fails, scales mu by nu and doubles nu.  A step no longer than
    eps ||theta||, eps the float64 machine epsilon, rounds theta - delta back
    to theta and ends the run as stalled, as do 50 rejected tries in a row.

    ``y`` is taken as checked.  The one `CpModel` is built when the run ends.
    """
    rank = thetas[0].shape[1]
    plateau_steps, plateau_tol = plateau
    point = _eliminate_last(op, _pack(thetas), rank, y)
    if point is None:
        return None

    trace = [point.f]
    mu = _DAMPING_INIT
    nu = 2.0
    it = 0
    while True:
        if point.f <= floor:
            status = STATUS_FLOOR
            break
        if len(trace) > plateau_steps and point.f > (
                1.0 - plateau_tol) * trace[-1 - plateau_steps]:
            status = STATUS_CONVERGED
            break
        if it == max_iters:
            status = STATUS_MAX_ITERS
            break
        if it == _ABANDON_STEPS and point.f > abandon_above:
            status = STATUS_ABANDONED
            break
        it += 1
        # J^T J, with mu * shift set on its diagonal for each try
        damped, g = _projected_normal_equations(op, point)
        damped_diag = damped.reshape(-1)[::g.size + 1]
        diag = damped_diag.copy()
        dmax = max(float(diag.max()), _TINY)
        shift = np.maximum(diag, _DIAG_FLOOR * dmax)
        # below this length, theta - delta rounds back to (about) theta
        min_step = _EPS * math.sqrt(point.theta @ point.theta)
        accepted = None
        for _ in range(_MAX_DAMPING_RETRIES):
            damped_diag[:] = diag + mu * shift
            try:
                delta = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.isfinite(delta).all():
                if math.sqrt(delta @ delta) <= min_step:
                    break
                trial = _eliminate_last(op, point.theta - delta, rank, y)
                # a try whose elimination fails is rejected
                if trial is not None and trial.f < point.f:
                    accepted = trial
                    gain = point.f - trial.f
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
        if accepted is None:
            status = STATUS_STALLED
            break
        point = accepted
        trace.append(point.f)

    return LmRun(CpModel(point.factors), point.f, trace, it, status)


def _dense_cp_als(x_tensor: np.ndarray, rank: int, rng):
    """ALS fit of a dense tensor with a rank-`rank` CP model."""
    dims = x_tensor.shape
    n_modes = len(dims)
    factors = [rng.standard_normal((d, rank)) for d in dims]
    # mode-n unfolding of the tensor, transposed to (J / I_n) x I_n
    unfoldings = [np.moveaxis(x_tensor, n, 0).reshape(dims[n], -1).T
                  for n in range(n_modes)]
    for _ in range(_ALS_INIT_SWEEPS):
        for n in range(n_modes):
            others = [factors[m] for m in range(n_modes) if m != n]
            kr = khatri_rao_chain(others)
            factors[n] = np.linalg.lstsq(kr, unfoldings[n], rcond=None)[0].T
    return factors


def _truncate(factors, rank: int):
    """Keep the `rank` components with the largest norm product."""
    weights = np.ones(factors[0].shape[1])
    for a in factors:
        weights *= np.linalg.norm(a, axis=0)
    keep = np.argsort(weights)[::-1][:rank]
    return [a[:, keep] for a in factors]


@dataclass(frozen=True)
class _StartRun:
    """A rank-F run and its restart and start stage."""

    restart: int
    stage: int
    run: LmRun


def recover(op: SensingOperator, y: np.ndarray, config: RecoveryConfig,
            ground_truth: np.ndarray | None = None) -> RecoveryReport:
    """Run the staged Gauss-Newton solver from several random restarts.

    The (restart, stage) pairs run in order until a rank-F run reaches the
    numerical floor; a random start still above 0.03 ||y||^2 after 10 steps
    ends there, `abandoned`.  The lowest final objective wins (ties: the
    first run), an abandoned run included.  A slot is skipped when its
    ladder stage's ALS fit raises `LinAlgError` or when its ladder fit or
    rank-F run cannot eliminate the last factor at its start; the
    iterations of a ladder fit that ran still count.  When every slot is
    skipped, `recover` raises `LinAlgError`.
    """
    y = check_measurements(op, y)
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements must be finite")
    check_measurement_count(op.m, op.shape, config.rank)
    if ground_truth is not None:
        ground_truth = check_tensor(op, ground_truth)
        if not np.all(np.isfinite(ground_truth)):
            raise ValueError("ground_truth must be finite")
    yy = float(y @ y)
    floor, abandon_above = _STAGE_SUCCESS_REL * yy, _ABANDON_REL * yy
    backprojection = adjoint_apply(op, y)

    runs: list[_StartRun] = []
    iterations = 0
    for k, stage in product(range(config.restarts), range(1 + _N_LADDER_STAGES)):
        rng = np.random.default_rng(mix(mix(config.seed, k), stage))
        if stage == 0:
            thetas = [rng.standard_normal((d, config.rank)) for d in op.shape[:-1]]
        else:
            # over-parameterized warm start: the rank-(F+1) fit of the
            # backprojection Phi^T y, refined, then truncated to rank F
            try:
                thetas = _dense_cp_als(backprojection, config.rank + 1, rng)[:-1]
            except np.linalg.LinAlgError:  # the ALS lstsq did not converge
                continue
            # unit columns, free of the scale of y; a zero column stays
            for a in thetas:
                norms = np.linalg.norm(a, axis=0)
                norms[norms == 0.0] = 1.0
                a /= norms
            ladder = _lm_single(thetas, op, y, config.max_iters, floor,
                                plateau=_PLATEAU_LADDER)
            if ladder is None:
                continue
            iterations += ladder.iterations
            thetas = _truncate(ladder.model.factors, config.rank)[:-1]
        run = _lm_single(thetas, op, y, config.max_iters, floor,
                         abandon_above if stage == 0 else math.inf)
        if run is None:
            continue
        iterations += run.iterations
        runs.append(_StartRun(k, stage, run))
        if run.objective <= floor:
            break

    if not runs:
        raise np.linalg.LinAlgError(
            f"no start of {config.restarts} restarts could be evaluated: at "
            f"every one the solve for the last factor failed or gave a "
            f"non-finite factor, or the ladder's ALS fit did not converge")
    won = min(runs, key=lambda s: s.run.objective)
    return RecoveryReport(
        model=won.run.model, objective=won.run.objective,
        objective_trace=won.run.trace, iterations=iterations,
        restart_index=won.restart, stage_index=won.stage,
        status=won.run.status,
        mse=None if ground_truth is None
        else mse(ground_truth, reconstruct(won.run.model)))
