import math
import string

import numpy as np
import pytest

from cpsense import cli, recovery
from cpsense.experiment import _MODEL_STREAM, _OP_STREAM, _SOLVER_STREAM
from cpsense.io_text import write_measurements, write_tensor
from cpsense.recovery import (
    RecoveryConfig,
    RecoveryReport,
    STATUS_ABANDONED,
    STATUS_CONVERGED,
    STATUS_FLOOR,
    STATUS_MAX_ITERS,
    STATUS_STALLED,
    objective,
    recover,
    residual_jacobian,
    _pack,
    _unpack,
)
from cpsense.seeding import mix
from cpsense.sensing import RADEMACHER, adjoint_apply, apply, create_operator
from cpsense.conditioning import generate_conditioned_model
from cpsense.theory_bounds import rip_probe
from cpsense.tensor_core import CpModel, DimensionMismatch, mse, reconstruct


def _random_model(dims, rank, seed):
    rng = np.random.default_rng(seed)
    return CpModel(tuple(rng.standard_normal((d, rank)) for d in dims))


def _fig1_instance(grid_index, trial_index, base_seed=1):
    """The Fig. 1 sweep's instance (8x8x8, F = 3, M = 108, kappa_tilde from
    (1, 10, 100, 1000)), at base seed 1 unless given: operator,
    measurements, the solver seed and the planted tensor."""
    trial_seed = mix(mix(base_seed, grid_index), trial_index)
    model = generate_conditioned_model((8, 8, 8), 3,
                                       (1.0, 10.0, 100.0, 1000.0)[grid_index],
                                       mix(trial_seed, _MODEL_STREAM))
    op = create_operator(108, (8, 8, 8), seed=mix(trial_seed, _OP_STREAM))
    truth = reconstruct(model)
    return op, apply(op, truth), mix(trial_seed, _SOLVER_STREAM), truth


def _plateau_ends(trace):
    """The trace indices i at which the `recovery._PLATEAU_STEPS` accepted
    steps up to step i lowered the objective by less than
    `recovery._PLATEAU_REL_TOL` of it."""
    steps, tol = recovery._PLATEAU_STEPS, recovery._PLATEAU_REL_TOL
    return [i for i in range(steps, len(trace))
            if trace[i] > (1.0 - tol) * trace[i - steps]]


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
        with columns ordered (i, f) as _pack orders A_n."""
        letters = string.ascii_lowercase[:model.order]
        phi = op.matrix.reshape((op.m,) + op.shape)
        blocks = []
        for n, a in enumerate(model.factors):
            others = [b for k, b in enumerate(model.factors) if k != n]
            spec = ("m" + letters + ","
                    + ",".join(c + "z" for k, c in enumerate(letters) if k != n)
                    + "->m" + letters[n] + "z")
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


class TestDenseCpAls:
    def test_bits_of_unfolding_every_sweep(self):
        x = reconstruct(_random_model((4, 3, 5), 2, 50))
        got = recovery._dense_cp_als(x, 3, np.random.default_rng(51))
        rng = np.random.default_rng(51)
        factors = [rng.standard_normal((d, 3)) for d in x.shape]
        for _ in range(recovery._ALS_INIT_SWEEPS):
            for n in range(3):
                kr = recovery.khatri_rao_chain(factors[:n] + factors[n + 1:])
                unfolded = np.moveaxis(x, n, 0).reshape(x.shape[n], -1)
                factors[n] = np.linalg.lstsq(kr, unfolded.T, rcond=None)[0].T
        for a, b in zip(got, factors):
            assert np.array_equal(a, b)


class TestPacking:
    def test_round_trip(self):
        model = _random_model((4, 3, 2), 3, 13)
        again = _unpack(_pack(model.factors), (4, 3, 2), 3)
        for a, b in zip(model.factors, again.factors):
            np.testing.assert_array_equal(a, b)

    def test_c_order_within_mode(self):
        # A_n(i, f) sits at offset_n + i * F + f; (0, 1) and (1, 0) are the
        # entries a column-major layout would swap
        a = np.arange(6.0).reshape(3, 2) + 1.0
        b = -np.arange(8.0).reshape(4, 2) - 1.0
        x = _pack((a, b))
        assert x[1] == a[0, 1] and x[2] == a[1, 0]
        assert x[6 + 1] == b[0, 1] and x[6 + 2] == b[1, 0]
        assert x[6 + 3 * 2 + 1] == b[3, 1]


class TestEliminateLast:
    @pytest.mark.parametrize("dims", [(4, 3, 5), (5, 6), (3, 2, 3, 4)])
    def test_residual_free_of_column_scales(self, dims):
        # f(theta) = min_a ||y + B_N(theta) a||^2 depends on the first N - 1
        # factors only through range(B_N), which scaling their columns by
        # nonzero constants leaves as it is
        rank = 2
        op = create_operator(3 * dims[-1] * rank, dims, seed=60)
        y = np.random.default_rng(61).standard_normal(op.m)
        thetas = _random_model(dims, rank, 62).factors[:-1]
        rng = np.random.default_rng(63)
        scaled = [a * (rng.choice([-1.0, 1.0], rank)
                       * 10.0 ** rng.uniform(-2.0, 2.0, rank))
                  for a in thetas]
        r = recovery._eliminate_last(op, _pack(thetas), rank, y).r
        r_scaled = recovery._eliminate_last(op, _pack(scaled), rank, y).r
        assert np.linalg.norm(r_scaled - r) <= 1e-12 * np.linalg.norm(y)

    def test_never_writes_into_theta(self, monkeypatch):
        op = create_operator(24, (3, 3, 3), seed=60)
        y = np.random.default_rng(61).standard_normal(24)
        y_before = y.copy()
        theta = _pack(_random_model((3, 3, 3), 2, 62).factors[:-1])
        before = theta.copy()
        point = recovery._eliminate_last(op, theta, 2, y)
        np.testing.assert_array_equal(theta, before)
        # the point: theta, its factor views and the solved last factor,
        # B_N, G = B_N^T B_N, r orthogonal to the columns of B_N, f = ||r||^2
        assert point.theta is theta
        np.testing.assert_array_equal(_pack(point.factors[:-1]), theta)
        np.testing.assert_array_equal(point.r,
                                      y + point.block @ point.factors[-1].ravel())
        assert np.linalg.norm(point.block.T @ point.r) <= (
            1e-12 * np.linalg.norm(y))
        np.testing.assert_array_equal(point.gram, point.block.T @ point.block)
        assert point.f == float(point.r @ point.r)
        # a zero column makes G singular, so the solve raises
        recovery._factor_views(theta, (3, 3), 2)[0][:, 1] = 0.0
        before = theta.copy()
        assert recovery._eliminate_last(op, theta, 2, y) is None
        np.testing.assert_array_equal(theta, before)
        # a solve that returns a non-finite last factor
        recovery._factor_views(theta, (3, 3), 2)[0][:, 1] = 1.0
        before = theta.copy()
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.full(b.shape, np.nan))
        assert recovery._eliminate_last(op, theta, 2, y) is None
        np.testing.assert_array_equal(theta, before)
        np.testing.assert_array_equal(y, y_before)


class TestLmSingle:
    def test_stalled_run_keeps_damping_finite_and_never_raises_objective(
            self, monkeypatch):
        # a planted instance with floor 0: the run reaches rounding level,
        # where steps shrink to nothing and the damping would otherwise grow
        truth = reconstruct(generate_conditioned_model((3, 3, 3), 2, 1.0, 0))
        op = create_operator(24, (3, 3, 3), seed=10)
        y = apply(op, truth)
        rng = np.random.default_rng(0)
        start = [rng.standard_normal((3, 2)) for _ in range(2)]
        damped_finite, evaluated = [], []
        solve = np.linalg.solve
        eliminate_last = recovery._eliminate_last

        def recorded_solve(a, b):
            damped_finite.append(bool(np.all(np.isfinite(a))))
            return solve(a, b)

        def recorded_eliminate_last(*args):
            point = eliminate_last(*args)
            evaluated.append(point.f)
            return point

        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        monkeypatch.setattr(recovery, "_eliminate_last", recorded_eliminate_last)
        run = recovery._lm_single(start, op, y, max_iters=2000, floor=0.0)
        assert run.status == STATUS_STALLED
        assert run.objective < 1e-20
        # mu * shift sits on the diagonal of every damped system
        assert damped_finite and all(damped_finite)
        # the first evaluation is the start, with its last factor
        # eliminated; every later one is a try
        assert evaluated[0] == run.trace[0]
        tries = evaluated[1:]
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

    @pytest.mark.parametrize("dims", [(3, 4, 2), (4, 3), (2, 3, 2, 2)])
    def test_every_try_and_step_matches_residual_jacobian(self, monkeypatch,
                                                          dims):
        # variable projection: at every try the last factor a solves the
        # least-squares problem at the other factors theta, and every damped
        # system and right side are those of Kaufman's projected Jacobian,
        # built here from residual_jacobian's blocks at (theta, a)
        rank = 2
        op = create_operator(2 * sum(dims) * rank, dims, seed=50)
        y = apply(op, reconstruct(_random_model(dims, rank, 51)))
        start = _random_model(dims, rank, 52).factors[:-1]
        size = (sum(dims) - dims[-1]) * rank
        events = []
        solve = np.linalg.solve
        eliminate_last = recovery._eliminate_last

        def recorded_solve(a, b):
            # the damped system; the other solves are with G = B_N^T B_N
            if a.shape == (size, size) and b.ndim == 1:
                events.append(("solve", a.copy(), b.copy()))
            return solve(a, b)

        def recorded_eliminate_last(*args):
            point = eliminate_last(*args)
            assert point is not None
            events.append(("try", CpModel(tuple(a.copy() for a in point.factors)),
                           point.r.copy()))
            return point

        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        monkeypatch.setattr(recovery, "_eliminate_last", recorded_eliminate_last)
        run = recovery._lm_single(start, op, y, max_iters=30, floor=0.0)
        monkeypatch.undo()
        assert run.iterations >= 2

        # the first evaluation is the start; a try is accepted when it
        # lowers the objective
        y_norm = np.linalg.norm(y)
        current, f_current, solves = None, np.inf, 0
        for event in events:
            if event[0] == "try":
                _, model, r = event
                direct = y - op.matrix @ reconstruct(model).ravel()
                assert np.linalg.norm(r - direct) <= 1e-12 * y_norm
                # a is optimal: r is orthogonal to the columns of B_N
                _, j_ref = residual_jacobian(model, op, y)
                b_last = j_ref[:, size:]
                assert np.linalg.norm(b_last.T @ r) <= (
                    1e-10 * np.linalg.norm(b_last, 2) * y_norm)
                if float(r @ r) < f_current:
                    current = model, r, j_ref
                    f_current = float(r @ r)
            else:
                _, damped, g = event
                _, r, j_ref = current
                j_theta, b_last = j_ref[:, :size], j_ref[:, size:]
                q, _ = np.linalg.qr(b_last)
                jac = j_theta - q @ (q.T @ j_theta)
                scale = np.linalg.norm(j_theta, 2)
                # g is the gradient over theta at the eliminated a
                assert np.max(np.abs(g - (j_ref.T @ r)[:size])) <= (
                    1e-12 * scale * np.linalg.norm(r))
                off_diag = ~np.eye(size, dtype=bool)
                assert np.max(np.abs(damped[off_diag]
                                     - (jac.T @ jac)[off_diag])) <= (
                    1e-10 * scale ** 2)
                solves += 1
        assert solves >= run.iterations
        assert run.objective == f_current
        np.testing.assert_array_equal(_pack(run.model.factors),
                                      _pack(current[0].factors))

    def test_singular_start_gives_no_run(self, monkeypatch):
        # G is singular at the start, so the last factor cannot be
        # eliminated: no point to test, not even against an infinite floor
        op = create_operator(24, (3, 3, 3), seed=60)
        y = apply(op, reconstruct(_random_model((3, 3, 3), 2, 63)))
        start = _random_model((3, 3, 3), 2, 64).factors[:-1]
        start[1][:, 0] = 0.0
        evaluations = []
        eliminate_last = recovery._eliminate_last

        def counted(*args):
            evaluations.append(eliminate_last(*args))
            return evaluations[-1]

        monkeypatch.setattr(recovery, "_eliminate_last", counted)
        assert recovery._lm_single(start, op, y, max_iters=50,
                                   floor=np.inf) is None
        assert evaluations == [None]

    def test_failed_try_elimination_raises_the_damping(self, monkeypatch):
        op = create_operator(24, (3, 3, 3), seed=60)
        y = apply(op, reconstruct(_random_model((3, 3, 3), 2, 63)))
        start = _random_model((3, 3, 3), 2, 64).factors[:-1]
        size = 2 * 3 * 2
        damped = []
        solve = np.linalg.solve
        eliminate_last = recovery._eliminate_last
        evaluations = []

        def recorded_solve(a, b):
            if a.shape == (size, size) and b.ndim == 1:
                damped.append(a.copy())
            return solve(a, b)

        def first_try_fails(*args):
            evaluations.append(args)
            # call 1 is the start, call 2 the first try
            return None if len(evaluations) == 2 else eliminate_last(*args)

        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        monkeypatch.setattr(recovery, "_eliminate_last", first_try_fails)
        run = recovery._lm_single(start, op, y, max_iters=5, floor=0.0)
        assert (run.status, run.iterations) == (STATUS_MAX_ITERS, 5)
        assert all(b < a for a, b in zip(run.trace, run.trace[1:]))
        # the failed try is retried at the same point with a larger mu:
        # the same J^T J, a larger diagonal
        off_diag = ~np.eye(size, dtype=bool)
        np.testing.assert_array_equal(damped[1][off_diag], damped[0][off_diag])
        assert np.all(np.diag(damped[1]) > np.diag(damped[0]))

    @pytest.mark.parametrize("dims", [(3, 4, 2), (2, 3, 2, 2)])
    def test_each_point_is_evaluated_once(self, monkeypatch, dims):
        # B_N is computed once per evaluated point, by `_eliminate_last`, and
        # a step adds the N - 1 other blocks; its projection solves with the
        # G that the elimination at the accepted point returned
        rank = 2
        op = create_operator(2 * sum(dims) * rank, dims, seed=50)
        y = apply(op, reconstruct(_random_model(dims, rank, 51)))
        start = _random_model(dims, rank, 52).factors[:-1]
        blocks, events = [], []
        jacobian_block = recovery._jacobian_block
        eliminate_last = recovery._eliminate_last
        solve = np.linalg.solve

        def counted_block(*args):
            blocks.append(args[2])
            return jacobian_block(*args)

        def recorded_eliminate_last(*args):
            point = eliminate_last(*args)
            events.append(("point", point))
            return point

        def recorded_solve(a, b):
            if b.ndim == 2:
                events.append(("projection", a))
            return solve(a, b)

        monkeypatch.setattr(recovery, "_jacobian_block", counted_block)
        monkeypatch.setattr(recovery, "_eliminate_last", recorded_eliminate_last)
        monkeypatch.setattr(np.linalg, "solve", recorded_solve)
        run = recovery._lm_single(start, op, y, max_iters=30, floor=0.0)
        monkeypatch.undo()
        assert run.iterations >= 2
        points = sum(e[0] == "point" for e in events)
        assert len(blocks) == points + (len(dims) - 1) * run.iterations
        gram, f_current, projections = None, np.inf, 0
        for event in events:
            if event[0] == "point":
                point = event[1]
                if point.f < f_current:
                    gram, f_current = point.gram, point.f
            else:
                assert event[1] is gram
                projections += 1
        assert projections == run.iterations

    @pytest.mark.parametrize("max_iters, floor, status", [
        (2000, np.inf, STATUS_FLOOR), (1, 0.0, STATUS_MAX_ITERS),
        (5, 0.0, STATUS_MAX_ITERS), (2000, 0.0, STATUS_STALLED)])
    def test_builds_one_model_per_run(self, monkeypatch, max_iters, floor,
                                      status):
        truth = reconstruct(generate_conditioned_model((3, 3, 3), 2, 1.0, 0))
        op = create_operator(24, (3, 3, 3), seed=10)
        y = apply(op, truth)
        rng = np.random.default_rng(0)
        start = [rng.standard_normal((3, 2)) for _ in range(2)]
        builds = []
        post_init = CpModel.__post_init__

        def counted(model):
            builds.append(model)
            post_init(model)

        monkeypatch.setattr(CpModel, "__post_init__", counted)
        run = recovery._lm_single(start, op, y, max_iters=max_iters, floor=floor)
        assert run.status == status
        assert len(builds) == 1 and builds[0] is run.model

    def test_flat_run_ends_converged_on_the_plateau_test(self):
        # the Fig. 1 kappa_tilde = 1, trial 11 random start of restart 0: it
        # holds the objective near 0.1048 ||y||^2, and without the plateau
        # test it runs on to step 244, where its steps become negligible;
        # the test ends it at step 73
        op, y, seed, _ = _fig1_instance(0, 11)
        runs = []
        for c in (1.0, 1e3):
            y_c = c * y
            rng = np.random.default_rng(mix(mix(seed, 0), 0))
            start = [rng.standard_normal((8, 3)) for _ in range(2)]
            run = recovery._lm_single(start, op, y_c, max_iters=500,
                                      floor=1e-11 * float(y_c @ y_c))
            assert run.status == STATUS_CONVERGED
            assert run.iterations < 500
            assert run.objective == pytest.approx(0.1048 * float(y_c @ y_c),
                                                  rel=1e-3)
            # the last 11 values (steps 62-73) meet the rule and no earlier
            # window does
            assert _plateau_ends(run.trace) == [run.iterations]
            runs.append((start, run))
        # the 1e3 run differs from the first by rounding, which can move
        # the step at which a window first falls below the tolerance;
        # scaled by powers of two, every value scales exactly and so must
        # the run
        start, run = runs[0]
        scaled = recovery._lm_single([2.0 ** 10 * a for a in start], op,
                                     2.0 ** 30 * y, max_iters=500,
                                     floor=1e-11 * float(y @ y) * 2.0 ** 60)
        assert (scaled.status, scaled.iterations) == (run.status, run.iterations)
        assert scaled.trace == [2.0 ** 60 * v for v in run.trace]

    def test_plateau_test_leaves_a_run_that_reaches_the_floor(self):
        # the Fig. 1 kappa_tilde = 1000, trial 0 winner, restart 0, stage 1:
        # 90 steps to the floor, as without the plateau test
        op, y, seed, _ = _fig1_instance(3, 0)
        report = recover(op, y, RecoveryConfig(rank=3, seed=seed))
        assert (report.restart_index, report.stage_index) == (0, 1)
        assert report.status == STATUS_FLOOR
        assert len(report.objective_trace) == 91
        assert _plateau_ends(report.objective_trace) == []

    def test_slow_random_start_ends_and_a_ladder_stage_recovers(self):
        # the Fig. 1 kappa_tilde = 100, trial 18 instance: without the
        # plateau test its restart-0 random start reaches the floor after
        # 478 steps, on the way lowering the objective by only 6.1e-8 of it
        # over steps 243-253; the test ends that run at step 112, and
        # restart 0's first ladder stage recovers the tensor
        op, y, seed, truth = _fig1_instance(2, 18)
        report = recover(op, y, RecoveryConfig(rank=3, seed=seed),
                         ground_truth=truth)
        assert (report.restart_index, report.stage_index) == (0, 1)
        assert report.status == STATUS_FLOOR
        assert report.mse < 1e-12

    def test_run_ends_at_the_first_step_at_or_below_the_floor(self):
        truth = reconstruct(generate_conditioned_model((3, 3, 3), 2, 1.0, 0))
        op = create_operator(24, (3, 3, 3), seed=10)
        y = apply(op, truth)
        rng = np.random.default_rng(0)
        start = [rng.standard_normal((3, 2)) for _ in range(2)]
        floor = 1e-6 * float(y @ y)
        run = recovery._lm_single(start, op, y, max_iters=2000, floor=floor)
        assert run.status == STATUS_FLOOR
        assert run.trace[-1] <= floor < run.trace[-2]
        assert run.iterations == len(run.trace) - 1
        assert run.objective == run.trace[-1]


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
        assert report.status == STATUS_FLOOR

    @pytest.mark.parametrize("i", range(5))
    def test_rademacher_operator_recovers(self, i):
        # the recovery claim covers subgaussian Phi, not only Gaussian: the
        # Fig. 1 size with +-sqrt(1/M) entries
        truth = reconstruct(generate_conditioned_model((8, 8, 8), 3, 10.0,
                                                       100 + i))
        op = create_operator(108, (8, 8, 8), RADEMACHER, seed=200 + i)
        report = recover(op, apply(op, truth),
                         RecoveryConfig(rank=3, seed=300 + i),
                         ground_truth=truth)
        assert report.status == STATUS_FLOOR
        assert report.mse < 1e-10

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

    def test_reported_objective_is_the_models_at_the_floor(self):
        # the Fig. 1 sweep's kappa_tilde = 1000 trial 0 at base seed 1.  The
        # run scores y + B_N vec(A_N), `objective` scores y - Phi vec(X);
        # at the floor ||r|| is about 3e-6 ||y||, so the two squared norms
        # differ relatively by ~1e-10, while the residual norms agree to
        # rounding in ||y||
        trial_seed = mix(mix(1, 3), 0)
        model = generate_conditioned_model((8, 8, 8), 3, 1000.0,
                                           mix(trial_seed, _MODEL_STREAM))
        op = create_operator(108, (8, 8, 8), seed=mix(trial_seed, _OP_STREAM))
        y = apply(op, reconstruct(model))
        report = recover(op, y, RecoveryConfig(
            rank=3, seed=mix(trial_seed, _SOLVER_STREAM)))
        y_norm = float(np.linalg.norm(y))
        assert report.status == STATUS_FLOOR
        assert report.objective <= 1e-11 * y_norm ** 2
        assert abs(np.sqrt(report.objective)
                   - np.sqrt(objective(report.model, op, y))) <= 1e-14 * y_norm

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

    def test_wrong_shape_truth_rejected_before_the_solve(self, monkeypatch,
                                                         tmp_path, capsys):
        runs = []
        monkeypatch.setattr(recovery, "_lm_single",
                            lambda *args: runs.append(args))
        op = create_operator(20, (3, 3, 3), seed=30)
        with pytest.raises(DimensionMismatch, match="tensor shape"):
            recover(op, np.ones(20), RecoveryConfig(rank=1),
                    ground_truth=np.zeros((3, 3, 4)))
        y_path, truth_path = tmp_path / "y.txt", tmp_path / "truth.txt"
        write_measurements(y_path, np.ones(20))
        write_tensor(truth_path, np.zeros((3, 4)))
        assert cli.main(["recover", "--y", str(y_path), "--m", "20",
                         "--shape", "3,3,3", "--rank", "1", "--op-seed", "30",
                         "--truth", str(truth_path),
                         "--out", str(tmp_path / "rec.txt")]) == 1
        assert "!= operator shape (3, 3, 3)" in capsys.readouterr().err
        assert runs == []

    def test_iterations_count_every_lm_run(self, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(lm_single(*args, **kwargs))
            return runs[-1]

        lm_single = recovery._lm_single
        monkeypatch.setattr(recovery, "_lm_single", counted)
        # an instance whose first restart fails: every stage and a second
        # restart run, and the ladder stages fit at rank F + 1 = 3
        truth = reconstruct(generate_conditioned_model((4, 4, 4), 2, 100.0, 0))
        op = create_operator(36, (4, 4, 4), seed=109)
        report = recover(op, apply(op, truth), RecoveryConfig(rank=2, seed=206))
        assert report.restart_index >= 1
        assert any(r.model.rank == 3 for r in runs)
        assert report.iterations == sum(r.iterations for r in runs)

    def test_one_backprojection_per_recover(self, monkeypatch):
        backprojections, fits = [], []

        def counted_adjoint(op, y):
            backprojections.append(y)
            return adjoint(op, y)

        def counted_als(x_tensor, rank, rng):
            fits.append(x_tensor)
            return als(x_tensor, rank, rng)

        adjoint, als = recovery.adjoint_apply, recovery._dense_cp_als
        monkeypatch.setattr(recovery, "adjoint_apply", counted_adjoint)
        monkeypatch.setattr(recovery, "_dense_cp_als", counted_als)
        # the instance of the test above: every ladder stage of restart 0 runs
        truth = reconstruct(generate_conditioned_model((4, 4, 4), 2, 100.0, 0))
        op = create_operator(36, (4, 4, 4), seed=109)
        recover(op, apply(op, truth), RecoveryConfig(rank=2, seed=206))
        assert len(fits) >= 2
        assert len(backprojections) == 1
        assert all(x is fits[0] for x in fits)

    def test_failed_ladder_als_leaves_the_random_starts(self, monkeypatch):
        runs = []

        def counted(*args, **kwargs):
            runs.append(lm_single(*args, **kwargs))
            return runs[-1]

        def broken_lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        lm_single = recovery._lm_single
        monkeypatch.setattr(recovery, "_lm_single", counted)
        monkeypatch.setattr(np.linalg, "lstsq", broken_lstsq)
        # the instance of the test above: its first random start fails, so
        # ladder stages are tried and a second restart runs
        truth = reconstruct(generate_conditioned_model((4, 4, 4), 2, 100.0, 0))
        op = create_operator(36, (4, 4, 4), seed=109)
        report = recover(op, apply(op, truth), RecoveryConfig(rank=2, seed=206))
        # every ladder stage was skipped: one rank-F run per restart
        assert len(runs) >= 2
        assert all(r.model.rank == 2 for r in runs)
        k = min(range(len(runs)), key=lambda i: runs[i].objective)
        won = runs[k]
        assert report.model is won.model
        assert report.restart_index == k
        assert report.iterations == sum(r.iterations for r in runs)

    def test_zero_column_in_a_ladder_fit_stays_finite(self, monkeypatch):
        # a zero column has no direction to scale to unit norm; it stays
        # zero rather than turning every factor to NaN through 0 / 0
        fits = []

        def zero_column_als(x_tensor, rank, rng):
            factors = als(x_tensor, rank, rng)
            factors[0][:, 0] = 0.0
            fits.append(rank)
            return factors

        als = recovery._dense_cp_als
        monkeypatch.setattr(recovery, "_dense_cp_als", zero_column_als)
        # the instance above, whose first random start fails
        truth = reconstruct(generate_conditioned_model((4, 4, 4), 2, 100.0, 0))
        op = create_operator(36, (4, 4, 4), seed=109)
        report = recover(op, apply(op, truth), RecoveryConfig(rank=2, seed=206))
        assert fits
        assert all(np.isfinite(a).all() for a in report.model.factors)
        assert np.isfinite(report.objective)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_measurements_rejected_before_the_solve(self, monkeypatch,
                                                              bad):
        runs = []
        monkeypatch.setattr(recovery, "_lm_single",
                            lambda *args: runs.append(args))
        op = create_operator(20, (3, 3, 3), seed=30)
        y = np.ones(20)
        y[7] = bad
        for measurements in (y, np.full(20, bad)):
            with pytest.raises(ValueError, match="^measurements must be finite"):
                recover(op, measurements, RecoveryConfig(rank=2))
        assert runs == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ground_truth_rejected_before_the_solve(self, monkeypatch,
                                                               bad):
        runs = []
        monkeypatch.setattr(recovery, "_lm_single",
                            lambda *args: runs.append(args))
        op = create_operator(20, (3, 3, 3), seed=30)
        truth = np.ones((3, 3, 3))
        truth[1, 2, 0] = bad
        for ground_truth in (truth, np.full((3, 3, 3), bad)):
            with pytest.raises(ValueError, match="^ground_truth must be finite"):
                recover(op, np.ones(20), RecoveryConfig(rank=2),
                        ground_truth=ground_truth)
        assert runs == []

    @pytest.mark.parametrize("broken", [("solve",), ("solve", "lstsq")])
    def test_singular_solves_raise(self, monkeypatch, broken):
        def raise_singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        for name in broken:
            monkeypatch.setattr(np.linalg, name, raise_singular)
        truth = reconstruct(generate_conditioned_model((3, 3, 3), 2, 1.0, 31))
        op = create_operator(24, (3, 3, 3), seed=32)
        y = apply(op, truth)
        # every start fails to eliminate the last factor, or its ladder
        # stage's ALS fit raises: no slot yields a run
        with pytest.raises(np.linalg.LinAlgError, match=(
                "^no start of 2 restarts could be evaluated: at every one the "
                "solve for the last factor failed")):
            recover(op, y, RecoveryConfig(rank=2, restarts=2, seed=33))

    @pytest.mark.parametrize("shape, rank, m", [((3, 3, 8), 2, 12),
                                                ((4, 5), 3, 14)])
    def test_fewer_measurements_than_the_last_factor_rejected(
            self, monkeypatch, shape, rank, m):
        runs = []
        monkeypatch.setattr(recovery, "_lm_single",
                            lambda *args: runs.append(args))
        op = create_operator(m, shape, seed=34)
        y = np.random.default_rng(35).standard_normal(m)
        need = shape[-1] * rank
        with pytest.raises(ValueError, match=(
                rf"^M = {m} measurements is below I_N \* F = {need},")):
            recover(op, y, RecoveryConfig(rank=rank))
        assert runs == []

    def test_report_is_frozen_and_status_names_the_end(self):
        truth = reconstruct(generate_conditioned_model((3, 3, 3), 1, 1.0, 34))
        op = create_operator(20, (3, 3, 3), seed=35)
        report = recover(op, apply(op, truth), RecoveryConfig(rank=1, seed=36))
        assert report.status == STATUS_FLOOR
        with pytest.raises(AttributeError):
            report.mse = 0.0

    def test_invalid_config(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            RecoveryConfig(rank=0)
        with pytest.raises(ValueError):
            RecoveryConfig(rank=1, restarts=0)
        for max_iters in (0, -4):
            with pytest.raises(ValueError, match="max_iters must be >= 1"):
                RecoveryConfig(rank=3, max_iters=max_iters)
        y_path = tmp_path / "y.txt"
        write_measurements(y_path, np.ones(30))
        assert cli.main(["recover", "--y", str(y_path), "--m", "30",
                         "--shape", "3,3,3", "--rank", "1", "--op-seed", "1",
                         "--max-iters", "0", "--out",
                         str(tmp_path / "rec.txt")]) == 1
        assert "max_iters must be >= 1" in capsys.readouterr().err
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text("dims = 3,3,3\nrank = 1\nkappa_grid = 1\n"
                               "trials = 1\nmax_iters = 0\n")
        assert cli.main(["experiment", "--config", str(config_path),
                         "--out", str(tmp_path / "run")]) == 1
        assert "max_iters must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run_rows.csv").exists()


class TestScaleEquivariance:
    def test_scaled_measurements_take_the_same_starts(self, monkeypatch):
        # the Fig. 1 sweep's kappa_tilde = 1000 trial 0 at base seed 1,
        # whose ||y||^2 is below 1
        trial_seed = mix(mix(1, 3), 0)
        model = generate_conditioned_model((8, 8, 8), 3, 1000.0,
                                           mix(trial_seed, _MODEL_STREAM))
        op = create_operator(108, (8, 8, 8), seed=mix(trial_seed, _OP_STREAM))
        y = apply(op, reconstruct(model))
        config = RecoveryConfig(rank=3, seed=mix(trial_seed, _SOLVER_STREAM))
        calls = []
        lm_single = recovery._lm_single

        def counted(*args, **kwargs):
            calls.append(args)
            return lm_single(*args, **kwargs)

        monkeypatch.setattr(recovery, "_lm_single", counted)
        searches = []
        for c in (0.1, 1.0, 10.0):
            calls.clear()
            report = recover(op, c * y, config)
            searches.append((report.restart_index, len(calls)))
        # iteration counts may differ by rounding; the starts taken may not
        assert searches == [searches[1]] * 3

    @pytest.mark.parametrize("k", [-100, 100])
    def test_power_of_two_scale_runs_the_same_search(self, k):
        # the Fig. 1 kappa_tilde = 1, trial 0 instance at base seed 1.  No
        # start carries the scale of y outside the eliminated last factor,
        # and scaling by 2^k is exact, so every run scales exactly
        op, y, seed, _ = _fig1_instance(0, 0)
        config = RecoveryConfig(rank=3, seed=seed)
        base = recover(op, y, config)
        scaled = recover(op, 2.0 ** k * y, config)
        assert base.status == STATUS_FLOOR
        assert ((scaled.restart_index, scaled.stage_index, scaled.status,
                 scaled.iterations) == (base.restart_index, base.stage_index,
                                        base.status, base.iterations))
        assert scaled.objective == 4.0 ** k * base.objective
        assert scaled.objective_trace == [4.0 ** k * v
                                          for v in base.objective_trace]
        for a, b in zip(scaled.model.factors[:-1], base.model.factors[:-1]):
            assert np.array_equal(a, b)
        assert np.array_equal(scaled.model.factors[-1],
                              2.0 ** k * base.model.factors[-1])


class TestStartSchedule:
    """`recover`'s restart x stage search against a scripted `_lm_single`.

    On 3x3x3 with F = 2 and restarts = 2 the schedule is, per restart, the
    random start and three ladder stages, each ladder stage a rank-3 fit
    followed by a rank-2 run.  The n-th rank-2 run takes n iterations and
    ends at the n-th scripted objective, or yields no run where that is
    None; the j-th ladder fit takes 1000 * j.  A run's model is its start
    with a zero last factor.  With y = 1, the floor is
    1e-11 * ||y||^2 = 2e-10 and the abandon level 0.03 * ||y||^2 = 0.6.  A
    run listed in ``at_step_10`` has that objective after 10 steps; if it
    is above the level it is given, the run ends there, `abandoned` after
    10 iterations at that objective, and its scripted objective is never
    reached.
    """

    LEVEL = 0.03 * 20

    def _recover(self, monkeypatch, objectives, at_step_10=None):
        at_step_10 = at_step_10 or {}
        calls, runs, levels = [], [], []

        def scripted(start, op, y, max_iters, floor, abandon_above=math.inf):
            levels.append(abandon_above)
            assert len(start) == 2
            model = CpModel((*start, np.zeros((3, start[0].shape[1]))))
            if model.rank == 3:
                calls.append("ladder")
                return recovery.LmRun(model, 1.0, [1.0],
                                      1000 * calls.count("ladder"),
                                      STATUS_CONVERGED)
            calls.append("run")
            n = calls.count("run")
            if at_step_10.get(n, 0.0) > abandon_above:
                f = at_step_10[n]
                runs.append(recovery.LmRun(model, f, [f], 10, STATUS_ABANDONED))
                return runs[-1]
            f = objectives[n - 1]
            if f is None:
                return None
            runs.append(recovery.LmRun(model, f, [f], n, STATUS_CONVERGED))
            return runs[-1]

        monkeypatch.setattr(recovery, "_lm_single", scripted)
        op = create_operator(20, (3, 3, 3), seed=40)
        report = recover(op, np.ones(20),
                         RecoveryConfig(rank=2, restarts=2, seed=41))
        # the random start of each restart is given the level; ladder fits
        # and ladder runs are given none, so they are never abandoned
        random_starts = [i for i, c in enumerate(calls) if c == "run"
                         and (i == 0 or calls[i - 1] != "ladder")]
        assert len(levels) == len(calls)
        for i, level in enumerate(levels):
            assert level == (self.LEVEL if i in random_starts else math.inf)
        return report, calls, runs

    def test_first_minimum_wins_and_counts_every_fit(self, monkeypatch):
        # runs 2 (restart 0, stage 1) and 6 (restart 1, stage 1) tie
        objectives = [5.0, 1.0, 3.0, 2.0, 4.0, 1.0, 6.0, 7.0]
        report, calls, runs = self._recover(monkeypatch, objectives)
        assert calls == ["run", "ladder", "run", "ladder", "run", "ladder",
                         "run"] * 2
        assert (report.restart_index, report.stage_index) == (0, 1)
        assert report.model is runs[1].model
        assert report.objective == 1.0 and report.objective_trace == [1.0]
        # every run of both restarts, not only the winner's
        assert report.iterations == sum(range(1, 9)) + 1000 * sum(range(1, 7))

    def test_no_call_after_the_first_run_at_the_floor(self, monkeypatch):
        # run 6 (restart 1, stage 1) is the first at or below the floor
        objectives = [5.0, 4.0, 3.0, 2.0, 6.0, 1e-13, 0.0, 0.0]
        report, calls, runs = self._recover(monkeypatch, objectives)
        assert calls == ["run", "ladder", "run", "ladder", "run", "ladder",
                         "run", "run", "ladder", "run"]
        assert (report.restart_index, report.stage_index) == (1, 1)
        assert report.model is runs[5].model
        assert report.iterations == sum(range(1, 7)) + 1000 * sum(range(1, 5))

    def test_start_without_a_run_is_skipped(self, monkeypatch):
        # restart 0's random start yields no run; its first ladder stage
        # runs next and wins at the floor
        report, calls, runs = self._recover(monkeypatch, [None, 1e-13])
        assert calls == ["run", "ladder", "run"]
        assert (report.restart_index, report.stage_index) == (0, 1)
        assert report.model is runs[0].model and report.status == STATUS_CONVERGED
        assert report.iterations == 2 + 1000

    def test_ladder_fit_counts_when_its_run_yields_none(self, monkeypatch):
        # restart 0's first ladder stage: the rank-3 fit runs, its rank-2
        # run yields no run; the next stage wins at the floor
        report, calls, runs = self._recover(monkeypatch, [5.0, None, 1e-13])
        assert calls == ["run", "ladder", "run", "ladder", "run"]
        assert (report.restart_index, report.stage_index) == (0, 2)
        assert report.model is runs[1].model
        assert report.iterations == 1 + 3 + 1000 + 2000

    def test_abandoned_start_is_never_resumed(self, monkeypatch):
        # restart 0's random start is abandoned, though its scripted run
        # would reach the floor; stages 1-3 miss the floor, and restart 1's
        # random start runs next, reaches the floor and wins
        objectives = [0.0, 5.0, 4.0, 3.0, 1e-13]
        report, calls, runs = self._recover(monkeypatch, objectives,
                                            at_step_10={1: 1.0})
        assert calls == ["run", "ladder", "run", "ladder", "run", "ladder",
                         "run", "run"]
        assert runs[0].status == STATUS_ABANDONED
        assert (report.restart_index, report.stage_index) == (1, 0)
        assert report.model is runs[-1].model and report.objective == 1e-13
        # the abandoned start's 10 iterations count
        assert report.iterations == 10 + 2 + 3 + 4 + 5 + 1000 * (1 + 2 + 3)

    def test_abandoned_run_with_the_lowest_objective_wins(self, monkeypatch):
        # restart 0's random start is abandoned at 1.0, and no later run
        # ends lower: it wins and reports how it ended
        objectives = [0.0, 5.0, 4.0, 3.0, 6.0, 7.0, 8.0, 9.0]
        report, calls, runs = self._recover(monkeypatch, objectives,
                                            at_step_10={1: 1.0})
        assert calls == ["run", "ladder", "run", "ladder", "run", "ladder",
                         "run"] * 2
        assert (report.restart_index, report.stage_index) == (0, 0)
        assert report.model is runs[0].model
        assert report.objective == 1.0 and report.objective_trace == [1.0]
        assert report.status == STATUS_ABANDONED
        assert report.iterations == (10 + sum(range(2, 9))
                                     + 1000 * sum(range(1, 7)))

    def test_ladder_stage_ran_first_wins_a_tie(self, monkeypatch):
        # restart 1's random start is abandoned at 3.0, the objective of
        # restart 0's stage 2, and nothing ends lower: stage 2 ran first,
        # so it wins
        objectives = [5.0, 6.0, 3.0, 4.0, 0.0, 7.0, 8.0, 9.0]
        report, calls, runs = self._recover(monkeypatch, objectives,
                                            at_step_10={5: 3.0})
        assert calls == ["run", "ladder", "run", "ladder", "run", "ladder",
                         "run"] * 2
        assert runs[4].status == STATUS_ABANDONED and runs[4].objective == 3.0
        assert (report.restart_index, report.stage_index) == (0, 2)
        assert report.model is runs[2].model
        assert report.iterations == (1 + 2 + 3 + 4 + 10 + 6 + 7 + 8
                                     + 1000 * sum(range(1, 7)))

    def test_winning_ladder_stage_counts_the_abandoned_start(self,
                                                             monkeypatch):
        # the abandoned start's scripted run would reach the floor too, but
        # it ends at step 10, and stage 1 does; the start's 10 steps count
        report, calls, runs = self._recover(monkeypatch, [1e-13, 1e-13],
                                            at_step_10={1: 1.0})
        assert calls == ["run", "ladder", "run"]
        assert (report.restart_index, report.stage_index) == (0, 1)
        assert report.model is runs[1].model
        assert report.iterations == 10 + 2 + 1000

    def test_start_below_the_level_keeps_the_order(self, monkeypatch):
        # at the level or below after 10 steps: the start ends in place, and
        # the stages keep the order 0, 1, 2, 3
        for f10 in (self.LEVEL, 0.5):
            report, calls, runs = self._recover(
                monkeypatch, [5.0, 4.0, 3.0, 1e-13], at_step_10={1: f10})
            assert calls == ["run", "ladder", "run", "ladder", "run",
                             "ladder", "run"]
            assert (report.restart_index, report.stage_index) == (0, 3)
            assert report.iterations == 1 + 2 + 3 + 4 + 1000 * (1 + 2 + 3)

    def test_ladder_fits_and_runs_never_pause(self, monkeypatch):
        # a ladder run above any level after 10 steps runs on: the level it
        # is given is inf (checked in `_recover`)
        report, calls, runs = self._recover(
            monkeypatch, [5.0, 4.0, 3.0, 1e-13],
            at_step_10={2: 1e300, 3: 1e300, 4: 1e300})
        assert STATUS_ABANDONED not in [r.status for r in runs]
        assert (report.restart_index, report.stage_index) == (0, 3)


class TestAbandonedRun:
    def test_abandoned_run_is_the_uninterrupted_run_cut_at_10_steps(self):
        # the Fig. 1 kappa_tilde = 1, trial 0 instance at base seed 1: its
        # random start is above 0.03 ||y||^2 after 10 steps
        op, y, seed, _ = _fig1_instance(0, 0)
        rng = np.random.default_rng(mix(mix(seed, 0), 0))
        start = [rng.standard_normal((8, 3)) for _ in range(2)]
        yy = float(y @ y)
        floor, level = 1e-11 * yy, 0.03 * yy
        whole = recovery._lm_single(start, op, y, 500, floor)
        abandoned = recovery._lm_single(start, op, y, 500, floor, level)
        assert abandoned.status == STATUS_ABANDONED
        assert abandoned.iterations == recovery._ABANDON_STEPS == 10
        # run on, it ends `converged` near 0.1 ||y||^2, after 39 steps
        assert whole.iterations > 10 and whole.trace[10] > level
        assert abandoned.trace == whole.trace[:11]
        assert abandoned.objective == whole.trace[10]
        cut = recovery._lm_single(start, op, y, 10, floor)
        assert (cut.status, cut.trace) == (STATUS_MAX_ITERS, abandoned.trace)
        for a, b in zip(abandoned.model.factors, cut.model.factors):
            assert np.array_equal(a, b)

    def test_fig1_trial_wins_at_stage_1_with_its_mse_bits(self):
        # the instance above: its random start is abandoned, and stage 1
        # wins as it did when the random start ran on, with the same mse to
        # the last bit, after 20 LM iterations (49 when it ran on)
        op, y, seed, truth = _fig1_instance(0, 0)
        report = recover(op, y, RecoveryConfig(rank=3, seed=seed),
                         ground_truth=truth)
        assert (report.restart_index, report.stage_index,
                report.status) == (0, 1, STATUS_FLOOR)
        assert report.iterations == 20
        assert report.mse.hex() == "0x1.42d965324f1c4p-57"

    def test_abandoned_start_leaves_restart_1_to_win(self):
        # base seed 5, kappa_tilde = 1, trial 19: restart 0's random start is
        # abandoned, and restart 0's ladder stages all miss the floor;
        # running the start on after them would add 40 LM iterations and
        # end `converged`.  Restart 1's first ladder stage wins, after 290 LM
        # iterations in all
        op, y, seed, truth = _fig1_instance(0, 19, base_seed=5)
        report = recover(op, y, RecoveryConfig(rank=3, seed=seed),
                         ground_truth=truth)
        assert (report.restart_index, report.stage_index,
                report.status) == (1, 1, STATUS_FLOOR)
        assert report.iterations == 290
        assert report.mse.hex() == "0x1.2ba524e4d9581p-44"
