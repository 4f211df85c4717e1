import string

import numpy as np
import pytest

from cpsense import recovery
from cpsense.recovery import (
    RecoveryConfig,
    RecoveryReport,
    STATUS_CONVERGED,
    STATUS_STALLED,
    objective,
    recover,
    residual_jacobian,
    _pack,
    _unpack,
)
from cpsense.sensing import adjoint_apply, apply, create_operator
from cpsense.conditioning import generate_conditioned_model
from cpsense.theory_bounds import rip_probe
from cpsense.tensor_core import CpModel, DimensionMismatch, mse, reconstruct


def _random_model(dims, rank, seed):
    rng = np.random.default_rng(seed)
    return CpModel(tuple(rng.standard_normal((d, rank)) for d in dims))


class TestObjective:
    def test_zero_at_consistent_measurements(self):
        model = _random_model((3, 3, 3), 2, 0)
        op = create_operator(15, (3, 3, 3), seed=1)
        y = apply(op, reconstruct(model))
        assert objective(model, op, y) == pytest.approx(0.0, abs=1e-20)

    def test_equals_residual_norm_squared(self):
        model = _random_model((3, 4, 2), 2, 2)
        op = create_operator(10, (3, 4, 2), seed=3)
        y = np.random.default_rng(4).standard_normal(10)
        r = y - apply(op, reconstruct(model))
        assert objective(model, op, y) == pytest.approx(float(r @ r), rel=1e-12)

    def test_length_mismatch(self):
        model = _random_model((3, 3, 3), 2, 5)
        op = create_operator(10, (3, 3, 3), seed=6)
        with pytest.raises(DimensionMismatch):
            objective(model, op, np.zeros(9))


class TestResidualJacobian:
    def test_residual_matches_objective(self):
        model = _random_model((3, 3, 2), 2, 7)
        op = create_operator(12, (3, 3, 2), seed=8)
        y = np.random.default_rng(9).standard_normal(12)
        r, _ = residual_jacobian(model, op, y)
        assert float(r @ r) == pytest.approx(objective(model, op, y), rel=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            dims = tuple(int(d) for d in rng.integers(2, 5, size=3))
            rank = int(rng.integers(1, 4))
            op = create_operator(14, dims, seed=100 + trial)
            model = _random_model(dims, rank, 200 + trial)
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
                np.testing.assert_allclose(jac[:, j], fd, rtol=1e-5, atol=1e-7)

    def test_shape_mismatch(self):
        op = create_operator(10, (3, 3, 3), seed=11)
        model = _random_model((2, 3, 3), 2, 12)
        with pytest.raises(DimensionMismatch):
            residual_jacobian(model, op, np.zeros(10))

    @staticmethod
    def _einsum_jacobian(model, op):
        """Block n holds -sum over the other modes of Phi times their factors,
        with columns ordered (f, i) as _pack orders A_n."""
        letters = string.ascii_lowercase[:model.order]
        phi = op.matrix.reshape((op.m,) + op.shape)
        blocks = []
        for n, a in enumerate(model.factors):
            others = [b for k, b in enumerate(model.factors) if k != n]
            spec = ("m" + letters + ","
                    + ",".join(c + "z" for k, c in enumerate(letters) if k != n)
                    + "->mz" + letters[n])
            t = np.einsum(spec, phi, *others)
            blocks.append(-t.reshape(op.m, a.size))
        return np.hstack(blocks)

    @pytest.mark.parametrize("dims", [(3, 4), (1, 5), (3, 1, 4), (2, 3, 2),
                                      (1, 1, 3), (2, 1, 3, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_einsum_oracle(self, dims, rank):
        op = create_operator(9, dims, seed=sum(dims) + rank)
        model = _random_model(dims, rank, 31 * rank + len(dims))
        y = np.random.default_rng(rank).standard_normal(op.m)
        r, jac = residual_jacobian(model, op, y)
        oracle = self._einsum_jacobian(model, op)
        assert jac.shape == oracle.shape
        assert np.max(np.abs(jac - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        direct = y - op.matrix @ reconstruct(model).ravel()
        assert np.linalg.norm(r - direct) <= 1e-12 * max(
            np.linalg.norm(direct), np.linalg.norm(y))


class TestModeUnfoldings:
    def test_built_only_on_first_jacobian(self):
        op = create_operator(30, (3, 4, 2), seed=40)
        x = _random_model((3, 4, 2), 2, 41)
        apply(op, reconstruct(x))
        adjoint_apply(op, np.ones(op.m))
        rip_probe(op, 2, 2.0, 5, 42)
        assert "mode_unfoldings" not in vars(op)
        residual_jacobian(x, op, np.zeros(op.m))
        assert "mode_unfoldings" in vars(op)

    def test_layout(self):
        op = create_operator(5, (2, 3, 4), seed=43)
        phi = op.matrix.reshape(5, 2, 3, 4)
        u0, u1, u2 = op.mode_unfoldings
        assert np.shares_memory(u0, op.matrix)
        assert u1.shape == (5 * 3, 2 * 4) and u2.shape == (5 * 4, 2 * 3)
        # row (m, i), column: the other modes' indices in C order
        assert u0[4 * 2 + 1, 2 * 4 + 3] == phi[4, 1, 2, 3]
        assert u1[4 * 3 + 2, 1 * 4 + 3] == phi[4, 1, 2, 3]
        assert u2[4 * 4 + 3, 1 * 3 + 2] == phi[4, 1, 2, 3]


class TestPacking:
    def test_round_trip(self):
        model = _random_model((4, 3, 2), 3, 13)
        again = _unpack(_pack(model.factors), (4, 3, 2), 3)
        for a, b in zip(model.factors, again.factors):
            np.testing.assert_array_equal(a, b)

    def test_column_major_order_within_mode(self):
        # flat index of A(i, f) within its block is f * rows + i
        a = np.arange(6.0).reshape(3, 2)
        x = _pack((a,))
        assert x[1 * 3 + 2] == a[2, 1]


class TestLmSingle:
    def test_stalled_run_keeps_damping_finite_and_never_raises_objective(
            self, monkeypatch):
        # a planted instance: the run reaches the numerical floor, where
        # steps shrink to nothing and the damping would otherwise grow
        truth = reconstruct(generate_conditioned_model((3, 3, 3), 2, 1.0, 0))
        op = create_operator(24, (3, 3, 3), seed=10)
        y = apply(op, truth)
        rng = np.random.default_rng(0)
        start = [rng.standard_normal((3, 2)) for _ in range(3)]
        damped_finite, tries = [], []
        solve = np.linalg.solve

        def recorded_solve(a, b):
            damped_finite.append(bool(np.all(np.isfinite(a))))
            return solve(a, b)

        def recorded_objective(*args):
            tries.append(objective(*args))
            return tries[-1]

        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        monkeypatch.setattr(recovery, "objective", recorded_objective)
        run = recovery._lm_single(start, op, y,
                                  RecoveryConfig(rank=2, max_iters=2000), 2)
        assert run.status == STATUS_STALLED
        assert run.objective < 1e-20
        # mu * shift sits on the diagonal of every damped system
        assert damped_finite and all(damped_finite)
        # exactly the tries below the current objective were accepted
        accepted, current = [], run.trace[0]
        for f_try in tries:
            if f_try < current:
                accepted.append(f_try)
                current = f_try
        assert accepted == run.trace[1:]
        # the negligible-step test, not the retry cap, ended the run
        after_last = len(tries) - tries.index(run.trace[-1]) - 1
        assert after_last < recovery._MAX_DAMPING_RETRIES


class TestRecover:
    def test_zero_measurements(self):
        op = create_operator(20, (3, 3, 3), seed=14)
        report = recover(op, np.zeros(20), RecoveryConfig(rank=2, seed=0))
        assert report.objective == pytest.approx(0.0, abs=1e-16)

    def test_planted_model_recovered(self):
        truth_model = generate_conditioned_model((4, 4, 4), 2, 1.0, 15)
        truth = reconstruct(truth_model)
        op = create_operator(40, (4, 4, 4), seed=16)
        y = apply(op, truth)
        report = recover(op, y, RecoveryConfig(rank=2, seed=17),
                         ground_truth=truth)
        assert report.mse is not None and report.mse < 1e-10
        # hitting the numerical floor may end either in the relative-change
        # test (converged) or with every damped step rejected (stalled)
        assert report.status in (STATUS_CONVERGED, STATUS_STALLED)

    def test_trace_is_decreasing_and_ends_at_objective(self):
        truth_model = generate_conditioned_model((3, 3, 3), 2, 2.0, 18)
        truth = reconstruct(truth_model)
        op = create_operator(30, (3, 3, 3), seed=19)
        y = apply(op, truth)
        report = recover(op, y, RecoveryConfig(rank=2, seed=20))
        trace = report.objective_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == pytest.approx(report.objective, rel=1e-12)
        assert trace[-1] == pytest.approx(
            objective(report.model, op, y), rel=1e-9, abs=1e-18)

    def test_deterministic(self):
        truth = reconstruct(generate_conditioned_model((3, 3, 3), 2, 3.0, 21))
        op = create_operator(30, (3, 3, 3), seed=22)
        y = apply(op, truth)
        a = recover(op, y, RecoveryConfig(rank=2, seed=23))
        b = recover(op, y, RecoveryConfig(rank=2, seed=23))
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert a.restart_index == b.restart_index
        for fa, fb in zip(a.model.factors, b.model.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_mse_filled_only_with_ground_truth(self):
        op = create_operator(20, (3, 3, 3), seed=24)
        y = np.random.default_rng(25).standard_normal(20)
        report = recover(op, y, RecoveryConfig(rank=1, seed=26))
        assert report.mse is None

    def test_mse_consistent_with_model(self):
        truth = reconstruct(generate_conditioned_model((3, 3, 3), 2, 1.0, 27))
        op = create_operator(30, (3, 3, 3), seed=28)
        report = recover(op, apply(op, truth), RecoveryConfig(rank=2, seed=29),
                         ground_truth=truth)
        assert report.mse == pytest.approx(
            mse(truth, reconstruct(report.model)), rel=1e-12, abs=1e-30)

    def test_length_mismatch(self):
        op = create_operator(20, (3, 3, 3), seed=30)
        with pytest.raises(DimensionMismatch):
            recover(op, np.zeros(19), RecoveryConfig(rank=1))

    def test_total_iterations_counts_every_lm_run(self, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(lm_single(*args, **kwargs))
            return runs[-1]

        lm_single = recovery._lm_single
        monkeypatch.setattr(recovery, "_lm_single", counted)
        # an instance whose first restart fails: every stage and a second
        # restart run, and the ladder stages fit at rank F + 1 = 3
        truth = reconstruct(generate_conditioned_model((4, 4, 4), 2, 100.0, 0))
        op = create_operator(36, (4, 4, 4), seed=103)
        report = recover(op, apply(op, truth), RecoveryConfig(rank=2, seed=200))
        assert report.restart_index >= 1
        assert any(r.model.rank == 3 for r in runs)
        assert report.total_iterations == sum(r.iterations for r in runs)
        assert report.total_iterations >= report.iterations

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RecoveryConfig(rank=0)
        with pytest.raises(ValueError):
            RecoveryConfig(rank=1, restarts=0)
