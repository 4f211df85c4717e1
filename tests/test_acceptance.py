"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria finish.  Criterion 1 is a full Monte-Carlo sweep and dominates the
runtime (about 4 s with one BLAS thread on a shared 2-core machine).
"""

import math

import numpy as np
import pytest

from cpsense.conditioning import (
    KAPPA_FINITE,
    generate_conditioned_factor,
    generate_conditioned_model,
    kappa,
)
from cpsense.experiment import (
    ExperimentConfig,
    PAPER_FIG1_PRESET,
    run_experiment,
    write_csv,
)
from cpsense.recovery import RecoveryConfig, recover, residual_jacobian, _pack, _unpack
from cpsense.sensing import GAUSSIAN, apply, create_operator
from cpsense.tensor_core import (
    CpModel,
    khatri_rao_chain,
    reconstruct,
    spectral_norm,
    vec,
)
from cpsense.theory_bounds import (
    BoundInputs,
    covering_log_cardinality,
    prop2_measurement_bound,
    rip_probe,
    theorem1_measurement_bound,
)


def _report(criterion: int, label: str, ok: bool) -> None:
    print(f"criterion {criterion} ({label}): {'pass' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({label}) failed"


def test_criterion_1_recovery_trend_over_conditioning():
    config = ExperimentConfig(dims=(8, 8, 8), rank=3,
                              kappa_grid=(1.0, 10.0, 100.0, 1000.0),
                              trials=20, restarts=5, base_seed=1)
    assert config.m_for(0) == 108  # 1.5 x parameter count
    _, summary = run_experiment(config)
    counts = [s.success_count for s in summary]
    well_conditioned_ok = counts[0] >= 18
    # non-increasing up to one inversion of at most 2 counts
    inversions = [(b - a) for a, b in zip(counts, counts[1:]) if b > a]
    trend_ok = len(inversions) <= 1 and all(v <= 2 for v in inversions)
    print(f"  success counts over kappa grid: {counts}")
    _report(1, "recovery trend", well_conditioned_ok and trend_ok)


def test_criterion_2_protocol_preset():
    ok = (PAPER_FIG1_PRESET["trials"] == 100
          and PAPER_FIG1_PRESET["rank"] == 3
          and PAPER_FIG1_PRESET["success_mse_threshold"] == 1e-10
          and PAPER_FIG1_PRESET["distribution"] == GAUSSIAN
          and PAPER_FIG1_PRESET["alpha"] == 1.0)
    _report(2, "protocol preset", ok)


def test_criterion_3_empirical_isometry():
    op = create_operator(512, (6, 6, 6), GAUSSIAN, alpha=1.0, seed=1)
    result = rip_probe(op, rank=2, kappa_tilde=2.0, samples=1000, seed=7)
    print(f"  mean_ratio={result.mean_ratio:.6f} delta_hat={result.delta_hat:.6f}")
    ok = 0.98 <= result.mean_ratio <= 1.02 and result.delta_hat < 1.0
    _report(3, "empirical isometry", ok)


def test_criterion_4_spectral_insertion_bound():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(200):
        length = int(rng.integers(1, 4))
        mats = []
        for _ in range(length):
            a = rng.standard_normal((int(rng.integers(2, 6)), 3))
            mats.append(a / spectral_norm(a))
        u = rng.standard_normal((int(rng.integers(2, 6)), 3))
        for pos in range(length + 1):
            w = khatri_rao_chain(mats[:pos] + [u] + mats[pos:])
            if spectral_norm(w) > spectral_norm(u) + 1e-10:
                violations += 1
    _report(4, "spectral insertion bound", violations == 0)


def test_criterion_5_condition_number_properties():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(200):
        rank = int(rng.integers(1, 4))
        factors = tuple(
            rng.standard_normal((int(rng.integers(rank, rank + 4)), rank))
            for _ in range(3))
        model = CpModel(factors)
        report = kappa(model)
        if report.status != KAPPA_FINITE:
            continue
        if report.kappa < 1.0 - 1e-10:
            ok = False
        if report.cond_product_bound is not None and \
                report.kappa > report.cond_product_bound + 1e-8:
            ok = False
        # materialized-SVD oracle
        smax = float(np.prod([np.linalg.svd(a, compute_uv=False)[0]
                              for a in factors]))
        smin = float(np.linalg.svd(khatri_rao_chain(factors),
                                   compute_uv=False)[-1])
        if abs(report.kappa - smax / smin) > 1e-8 * (smax / smin):
            ok = False
    # rank-one model
    model = CpModel(tuple(rng.standard_normal((4, 1)) for _ in range(3)))
    ok = ok and abs(kappa(model).kappa - 1.0) <= 1e-10
    # orthogonal square factors
    factors = []
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        factors.append(q)
    ok = ok and abs(kappa(CpModel(tuple(factors))).kappa - 1.0) <= 1e-10
    _report(5, "condition number properties", ok)


def test_criterion_6_conditioned_generation():
    ok = True
    for target in (1.0, 10.0, 1e3):
        for seed in range(5):
            a = generate_conditioned_factor(8, 3, target, seed)
            s = np.linalg.svd(a, compute_uv=False)
            if abs(s[0] - 1.0) > 1e-10:
                ok = False
            if abs(s[0] / s[-1] - target) > 1e-8 * target:
                ok = False
    _report(6, "conditioned generation", ok)


def test_criterion_7_solver_correctness():
    rng = np.random.default_rng(7)
    jac_ok = True
    for trial in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 6, size=3))
        rank = int(rng.integers(1, 4))
        op = create_operator(12, dims, seed=300 + trial)
        model = CpModel(tuple(rng.standard_normal((d, rank)) for d in dims))
        y = rng.standard_normal(op.m)
        _, jac = residual_jacobian(model, op, y)
        x0 = _pack(model.factors)
        step = 1e-6
        for j in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += step
            xm[j] -= step
            rp = y - apply(op, reconstruct(_unpack(xp, dims, rank)))
            rm = y - apply(op, reconstruct(_unpack(xm, dims, rank)))
            fd = (rp - rm) / (2.0 * step)
            if not np.allclose(jac[:, j], fd, rtol=1e-5, atol=1e-8):
                jac_ok = False

    adjoint_ok = True
    op = create_operator(25, (4, 4, 4), seed=99)
    for _ in range(50):
        x = rng.standard_normal((4, 4, 4))
        y = rng.standard_normal(25)
        lhs = float(np.dot(apply(op, x), y))
        rhs = float(np.dot(vec(x), op.matrix.T @ y))
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
            adjoint_ok = False

    successes = 0
    for trial in range(50):
        truth_model = generate_conditioned_model((4, 4, 4), 2, 1.0,
                                                 5000 + trial)
        truth = reconstruct(truth_model)
        op = create_operator(40, (4, 4, 4), seed=6000 + trial)
        report = recover(op, apply(op, truth),
                         RecoveryConfig(rank=2, seed=7000 + trial),
                         ground_truth=truth)
        if report.mse is not None and report.mse < 1e-10:
            successes += 1
    planted_ok = successes >= 45
    print(f"  jacobian={jac_ok} adjoint={adjoint_ok} planted={successes}/50")
    _report(7, "solver correctness", jac_ok and adjoint_ok and planted_ok)


def test_criterion_8_bound_calculators():
    ok = True

    def close(a, b):
        return abs(a - b) <= 1e-12 * abs(b)

    # three hand evaluations per calculator
    ok &= close(theorem1_measurement_bound(
        BoundInputs(dims=(10, 10, 10), rank=3, tau=8.0, eta=0.01)),
        181.0 * math.log(96.0))
    ok &= close(theorem1_measurement_bound(
        BoundInputs(dims=(4, 5), rank=2, tau=2.0, eta=0.5, alpha=0.5, c=2.0)),
        0.5 * 37.0 * math.log(18.0))
    ok &= close(theorem1_measurement_bound(
        BoundInputs(dims=(1, 1), rank=1, tau=1.0, eta=math.exp(-20.0))), 20.0)

    ok &= close(prop2_measurement_bound(
        BoundInputs(dims=(10, 10, 10), rank=3, tau=8.0, eta=0.01, delta=0.5)),
        4.0 * 91.0 * math.log(96.0))
    ok &= close(prop2_measurement_bound(
        BoundInputs(dims=(4, 5), rank=2, tau=2.0, eta=0.5, alpha=0.5, c=2.0,
                    delta=0.25)),
        16.0 * 0.5 * 19.0 * math.log(18.0))
    ok &= close(prop2_measurement_bound(
        BoundInputs(dims=(1, 1), rank=1, tau=1.0, eta=math.exp(-20.0),
                    delta=0.5)), 80.0)

    ok &= close(covering_log_cardinality((4, 5), 2, 2.0, 0.1),
                19.0 * math.log(180.0))
    ok &= close(covering_log_cardinality((10, 10, 10), 3, 8.0, 0.5),
                91.0 * math.log(192.0))
    ok &= abs(covering_log_cardinality((3, 3), 1, 2.0, 18.0)) <= 1e-12

    # monotonicity grids
    for tau in (1.0, 2.0, 4.0, 8.0):
        for rank in (1, 2, 3):
            for dim in (4, 6, 8):
                for eta in (0.5, 0.1, 0.01):
                    for alpha in (0.5, 1.0, 2.0):
                        b = BoundInputs(dims=(dim, dim, dim), rank=rank,
                                        tau=tau, eta=eta, alpha=alpha)
                        v = theorem1_measurement_bound(b)
                        ok &= theorem1_measurement_bound(
                            BoundInputs(dims=(dim, dim, dim), rank=rank,
                                        tau=2 * tau, eta=eta, alpha=alpha)) >= v
                        ok &= theorem1_measurement_bound(
                            BoundInputs(dims=(dim, dim, dim), rank=rank + 1,
                                        tau=tau, eta=eta, alpha=alpha)) >= v
                        ok &= theorem1_measurement_bound(
                            BoundInputs(dims=(dim + 1, dim, dim), rank=rank,
                                        tau=tau, eta=eta, alpha=alpha)) >= v
                        ok &= theorem1_measurement_bound(
                            BoundInputs(dims=(dim, dim, dim), rank=rank,
                                        tau=tau, eta=eta / 2, alpha=alpha)) >= v
                        ok &= theorem1_measurement_bound(
                            BoundInputs(dims=(dim, dim, dim), rank=rank,
                                        tau=tau, eta=eta, alpha=2 * alpha)) >= v
    _report(8, "bound calculators", bool(ok))


def test_criterion_9_experiment_determinism(tmp_path):
    config = ExperimentConfig(dims=(3, 3, 3), rank=1, kappa_grid=(1.0, 100.0),
                              trials=3, m=(30,), restarts=2, base_seed=42)
    paths = []
    for run in ("a", "b"):
        rows, summary = run_experiment(config)
        rows_path, _ = write_csv(rows, summary, str(tmp_path / run))
        paths.append(rows_path)

    def mask_wall_time(path):
        # the wall-clock column records real elapsed time and is the one
        # deliberately nondeterministic field
        lines = open(path).read().splitlines()
        idx = lines[0].split(",").index("wall_time_s")
        out = []
        for line in lines:
            cells = line.split(",")
            cells[idx] = "-"
            out.append(",".join(cells))
        return "\n".join(out)

    _report(9, "experiment determinism",
            mask_wall_time(paths[0]) == mask_wall_time(paths[1]))
