"""Monte-Carlo recovery harness: seeded sweeps over factor conditioning.

A sweep generates, for every (kappa_tilde, trial) pair, a conditioned CP
model, a fresh sensing operator, and a recovery run, then records per-trial
rows and per-grid-point summaries.  Every random stream is derived from the
config's base seed, so a config file fully determines the output.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .conditioning import check_kappa, check_rank_fits, generate_conditioned_model, kappa
from .io_text import format_float, parse_list
from .recovery import (
    RecoveryConfig,
    _eliminate_last,
    _pack,
    _projected_normal_equations,
    _unpack,
    check_measurement_count,
    recover,
    residual_jacobian,
)
from .seeding import mix
from .sensing import GAUSSIAN, adjoint_apply, check_distribution, check_operator_size
from .sensing import apply as sense_apply, create_operator
from .tensor_core import (
    CpModel,
    check_count,
    check_positive,
    check_shape,
    khatri_rao_chain,
    param_count,
    reconstruct,
    spectral_norm,
)

_OP_STREAM = 0x5E
_MODEL_STREAM = 0xA7
_SOLVER_STREAM = 0xC3

# Protocol constants used by the paper-fig1 preset: 100 trials, rank 3,
# success iff MSE < 1e-10, gaussian entries with variance 1/M (alpha = 1).
PAPER_FIG1_PRESET = {
    "trials": 100,
    "rank": 3,
    "success_mse_threshold": 1e-10,
    "distribution": GAUSSIAN,
    "alpha": 1.0,
}

PRESETS = {"paper-fig1": PAPER_FIG1_PRESET}

# without an explicit m, M = ceil(M_FACTOR * sum(I_n) * F), the paper's protocol
M_FACTOR = 1.5

ROWS_HEADER = ["kappa_tilde", "m", "trial", "seed", "mse", "success",
               "iterations", "wall_time_s"]
SUMMARY_HEADER = ["kappa_tilde", "m", "trials", "successes", "success_rate",
                  "median_mse", "mean_iterations"]


def _as_tuple(name: str, value) -> tuple:
    """A list setting as a tuple.  A bare number is refused, and so is a str
    or bytes, which would be read one character at a time."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValueError(f"{name} must be a sequence of numbers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ExperimentConfig:
    dims: tuple[int, ...]
    rank: int
    kappa_grid: tuple[float, ...]
    trials: int = 100
    m: tuple[int, ...] | None = None  # explicit M per grid point (or one for all)
    alpha: float = 1.0
    distribution: str = GAUSSIAN
    success_mse_threshold: float = 1e-10
    base_seed: int = 0
    restarts: int = RecoveryConfig.restarts
    max_iters: int = RecoveryConfig.max_iters

    def __post_init__(self):
        object.__setattr__(self, "dims", check_shape(self.dims))
        grid = _as_tuple("kappa_grid", self.kappa_grid)
        # checked before float reads a str or takes a bool as 0 or 1
        for k in grid:
            check_kappa("kappa_grid value", k)
        object.__setattr__(self, "kappa_grid", tuple(float(k) for k in grid))
        # every setting is checked by the rule of the code that uses it, so a
        # bad sweep fails here and not after some of its trials have run
        self.solver(seed=0)
        check_rank_fits(self.dims, self.rank)
        if not self.kappa_grid:
            raise ValueError("kappa grid must be nonempty")
        if len(set(self.kappa_grid)) != len(self.kappa_grid):
            raise ValueError(f"kappa grid repeats a value: {self.kappa_grid}")
        check_positive("alpha", self.alpha)
        check_distribution(self.distribution)
        check_count("trials", self.trials)
        check_count("base_seed", self.base_seed, low=-math.inf)
        check_positive("success_mse_threshold", self.success_mse_threshold)
        if self.m is not None:
            m = _as_tuple("explicit m", self.m)
            if len(m) not in (1, len(self.kappa_grid)):
                raise ValueError(
                    "explicit m list must have 1 entry or one per grid point")
            for v in m:
                check_count("explicit m", v)
            object.__setattr__(self, "m", tuple(int(v) for v in m))
        for i in range(len(self.kappa_grid)):
            check_operator_size(self.m_for(i), self.dims)
            check_measurement_count(self.m_for(i), self.dims, self.rank)

    def solver(self, seed: int) -> RecoveryConfig:
        """The solver settings of every trial, with that trial's seed."""
        return RecoveryConfig(rank=self.rank, max_iters=self.max_iters,
                              restarts=self.restarts, seed=seed)

    def m_for(self, grid_index: int) -> int:
        if self.m is not None:
            return self.m[0] if len(self.m) == 1 else self.m[grid_index]
        return int(math.ceil(M_FACTOR * param_count(self.dims, self.rank)))


@dataclass(frozen=True)
class ExperimentRow:
    kappa_tilde: float
    m: int
    trial_index: int
    seed_used: int
    mse: float
    success: bool
    iterations: int
    wall_time_seconds: float


@dataclass(frozen=True)
class GridSummary:
    kappa_tilde: float
    m: int
    trials: int
    success_count: int
    median_mse: float
    mean_iterations: float

    @property
    def success_rate(self) -> float:
        return self.success_count / self.trials


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` config format (lists comma-separated)."""
    raw: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ValueError(f"line {lineno}: key {key!r} is set twice")
        raw[key] = (lineno, value.strip())

    fields: dict = {}
    _, preset_name = raw.pop("preset", (None, None))
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ValueError(f"unknown preset {preset_name!r}")
        fields.update(PRESETS[preset_name])

    converters = {
        "dims": parse_list,
        "rank": int,
        "kappa_grid": lambda s: parse_list(s, float),
        "trials": int,
        "m": parse_list,
        "alpha": float,
        "distribution": str,
        "success_mse_threshold": float,
        "base_seed": int,
        "restarts": int,
        "max_iters": int,
    }
    for key, (lineno, value) in raw.items():
        if key not in converters:
            raise ValueError(f"unknown config key {key!r}")
        try:
            fields[key] = converters[key](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: key {key!r}: {exc}") from None

    for required in ("dims", "rank", "kappa_grid"):
        if required not in fields:
            raise ValueError(f"config is missing required key {required!r}")
    return ExperimentConfig(**fields)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def run_trial(config: ExperimentConfig, grid_index: int, trial_index: int) -> ExperimentRow:
    """One seeded trial.  Any exception from `recover` propagates."""
    kappa_tilde = config.kappa_grid[grid_index]
    m = config.m_for(grid_index)
    trial_seed = mix(mix(config.base_seed, grid_index), trial_index)
    start = time.perf_counter()
    model = generate_conditioned_model(config.dims, config.rank, kappa_tilde,
                                       mix(trial_seed, _MODEL_STREAM))
    truth = reconstruct(model)
    op = create_operator(m, config.dims, config.distribution, config.alpha,
                         mix(trial_seed, _OP_STREAM))
    y = sense_apply(op, truth)
    report = recover(op, y, config.solver(mix(trial_seed, _SOLVER_STREAM)),
                     ground_truth=truth)
    elapsed = time.perf_counter() - start
    return ExperimentRow(
        kappa_tilde=kappa_tilde, m=m, trial_index=trial_index,
        seed_used=trial_seed, mse=report.mse,
        success=report.mse < config.success_mse_threshold,
        iterations=report.iterations, wall_time_seconds=elapsed)


def summarize(config: ExperimentConfig, rows: list[ExperimentRow]) -> list[GridSummary]:
    out = []
    for gi, kt in enumerate(config.kappa_grid):
        m = config.m_for(gi)
        grid_rows = [r for r in rows if r.kappa_tilde == kt and r.m == m]
        out.append(GridSummary(
            kappa_tilde=kt, m=m, trials=len(grid_rows),
            success_count=sum(r.success for r in grid_rows),
            median_mse=statistics.median(r.mse for r in grid_rows),
            mean_iterations=statistics.fmean(r.iterations for r in grid_rows)))
    return out


def run_experiment(config: ExperimentConfig,
                   progress=None) -> tuple[list[ExperimentRow], list[GridSummary]]:
    rows = []
    for gi in range(len(config.kappa_grid)):
        for ti in range(config.trials):
            rows.append(run_trial(config, gi, ti))
            if progress is not None:
                progress(rows[-1])
    return rows, summarize(config, rows)


def write_csv(rows: list[ExperimentRow], summary: list[GridSummary],
              path_prefix: str) -> tuple[str, str]:
    if not rows:
        raise ValueError("no rows to write")
    rows_path = f"{path_prefix}_rows.csv"
    summary_path = f"{path_prefix}_summary.csv"
    with open(rows_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROWS_HEADER)
        for r in rows:
            writer.writerow([format_float(r.kappa_tilde), r.m, r.trial_index,
                             r.seed_used, format_float(r.mse),
                             "true" if r.success else "false", r.iterations,
                             format_float(r.wall_time_seconds)])
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for s in summary:
            writer.writerow([format_float(s.kappa_tilde), s.m, s.trials,
                             s.success_count, format_float(s.success_rate),
                             format_float(s.median_mse),
                             format_float(s.mean_iterations)])
    return rows_path, summary_path


def emit_plot_script(summary_csv_path: str, out_path: str) -> None:
    """Write a standalone gnuplot script: success count vs conditioning."""
    import os
    if not os.path.exists(summary_csv_path):
        raise FileNotFoundError(summary_csv_path)
    quoted = summary_csv_path.replace("'", "''")  # gnuplot's quote escape
    script = f"""\
set datafile separator ','
set key autotitle columnhead
set logscale x
set xlabel 'factor condition number'
set ylabel 'successful recoveries'
set terminal pngcairo size 800,600
set output 'recovery_success.png'
plot '{quoted}' using 1:4 with linespoints lw 2 pt 7 \
title 'success count'
"""
    with open(out_path, "w") as fh:
        fh.write(script)


def _central_differences(f, x0: np.ndarray) -> np.ndarray:
    """(f(x0 + h e_j) - f(x0 - h e_j)) / 2h with h = 1e-6, for every j,
    stacked along the last axis: the Jacobian of a vector f, the gradient of
    a scalar one."""
    h = 1e-6
    return np.stack([(f(x0 + h * e) - f(x0 - h * e)) / (2 * h)
                     for e in np.eye(x0.size)], axis=-1)


def selftest() -> dict[str, bool]:
    """Fast invariant suite; returns check name -> pass."""
    results: dict[str, bool] = {}
    rng = np.random.default_rng(20240817)

    # adjoint identity <Phi x, y> == <x, Phi^T y>
    op = create_operator(20, (3, 3, 3), seed=11)
    ok = True
    for _ in range(20):
        x = rng.standard_normal(op.shape)
        yv = rng.standard_normal(op.m)
        lhs = float(np.dot(sense_apply(op, x), yv))
        rhs = float(np.dot(x.ravel(), adjoint_apply(op, yv).ravel()))
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
            ok = False
    results["adjoint"] = ok

    # Jacobian vs central finite differences on a 3x3x3 / rank-2 instance
    model = CpModel(tuple(rng.standard_normal((3, 2)) for _ in range(3)))
    yv = rng.standard_normal(op.m)
    _, jac = residual_jacobian(model, op, yv)
    fd = _central_differences(
        lambda x: yv - sense_apply(op, reconstruct(_unpack(x, op.shape, 2))),
        _pack(model.factors))
    results["jacobian_fd"] = bool(np.allclose(jac, fd, rtol=1e-5, atol=1e-8))

    # the LM run's gradient g over the first N - 1 factors, with the last one
    # eliminated, vs central differences of f(theta) = min_a ||y + B_N a||^2
    # (f has gradient 2 g), on the same instance
    theta0 = _pack(model.factors[:-1])
    _, g = _projected_normal_equations(op, _eliminate_last(op, theta0, 2, yv))
    last = model.factors[-1].size

    def projected_objective(theta):
        x = np.concatenate([theta, np.zeros(last)])
        _, jac = residual_jacobian(_unpack(x, op.shape, 2), op, yv)
        block = jac[:, theta.size:]
        r = yv + block @ np.linalg.lstsq(block, -yv, rcond=None)[0]
        return float(r @ r)

    fd = _central_differences(projected_objective, theta0)
    results["vp_gradient_fd"] = bool(np.allclose(2.0 * g, fd, rtol=1e-5, atol=1e-7))

    # Khatri-Rao spectral bound: inserting U among unit-norm factors
    ok = True
    for _ in range(20):
        length = int(rng.integers(1, 4))
        mats = []
        for _ in range(length):
            a = rng.standard_normal((int(rng.integers(2, 5)), 3))
            mats.append(a / spectral_norm(a))
        u = rng.standard_normal((int(rng.integers(2, 5)), 3))
        pos = int(rng.integers(0, length + 1))
        w = khatri_rao_chain(mats[:pos] + [u] + mats[pos:])
        if spectral_norm(w) > spectral_norm(u) + 1e-10:
            ok = False
    results["spectral_bound"] = ok

    # condition number vs from-scratch SVD oracle
    ok = True
    for _ in range(10):
        model = generate_conditioned_model((4, 5, 4), 2, 7.0,
                                           int(rng.integers(0, 2**32)))
        rep = kappa(model)
        chain = khatri_rao_chain(model.factors)
        smax = float(np.prod([np.linalg.svd(a, compute_uv=False)[0]
                              for a in model.factors]))
        oracle = smax / float(np.linalg.svd(chain, compute_uv=False)[-1])
        if abs(rep.kappa - oracle) > 1e-8 * oracle:
            ok = False
    results["kappa_oracle"] = ok

    return results
