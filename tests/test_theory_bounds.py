import math
import tracemalloc

import numpy as np
import pytest

from cpsense.conditioning import generate_conditioned_model
from cpsense.seeding import mix
from cpsense.sensing import create_operator
from cpsense.tensor_core import frobenius_norm, param_count, reconstruct
from cpsense.theory_bounds import (
    _PROBE_BLOCK_BYTES,
    BoundInputs,
    covering_log_cardinality,
    prop2_measurement_bound,
    rip_probe,
    theorem1_measurement_bound,
)


class TestBoundInputs:
    def test_param_sum(self):
        b = BoundInputs(dims=(10, 10, 10), rank=3, tau=8.0, eta=0.01)
        assert param_count(b.dims, b.rank) == 90
        assert len(b.dims) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(dims=(4, 4), rank=0, tau=1.0, eta=0.5)
        with pytest.raises(ValueError):
            BoundInputs(dims=(4, 4), rank=1, tau=0.5, eta=0.5)
        with pytest.raises(ValueError):
            BoundInputs(dims=(4, 4), rank=1, tau=1.0, eta=1.5)
        with pytest.raises(ValueError):
            BoundInputs(dims=(4, 4), rank=1, tau=1.0, eta=0.5, delta=1.0)
        with pytest.raises(ValueError):
            BoundInputs(dims=(4, 4), rank=1, tau=1.0, eta=0.5, alpha=0.0)


class TestTheorem1Bound:
    def test_hand_value_cube(self):
        # dims (10,10,10), F=3 -> sum = 90; branch1 = 181 ln(3*4*8)
        b = BoundInputs(dims=(10, 10, 10), rank=3, tau=8.0, eta=0.01)
        assert theorem1_measurement_bound(b) == pytest.approx(
            181.0 * math.log(96.0), rel=1e-12)

    def test_hand_value_with_constants(self):
        # sum = (4+5)*2 = 18; branch1 = 37 ln(3*3*2); prefactor 2 * 0.25
        b = BoundInputs(dims=(4, 5), rank=2, tau=2.0, eta=0.5, alpha=0.5, c=2.0)
        assert theorem1_measurement_bound(b) == pytest.approx(
            0.5 * 37.0 * math.log(18.0), rel=1e-12)

    def test_failure_branch_dominates(self):
        # tiny instance, tiny eta: max picks ln(1/eta) = 20
        b = BoundInputs(dims=(1, 1), rank=1, tau=1.0, eta=math.exp(-20.0))
        assert theorem1_measurement_bound(b) == pytest.approx(20.0, rel=1e-12)

    def test_monotone_in_tau_rank_dims_and_confidence(self):
        base = BoundInputs(dims=(6, 6, 6), rank=2, tau=4.0, eta=0.05)
        v0 = theorem1_measurement_bound(base)
        assert theorem1_measurement_bound(
            BoundInputs(dims=(6, 6, 6), rank=2, tau=8.0, eta=0.05)) > v0
        assert theorem1_measurement_bound(
            BoundInputs(dims=(6, 6, 6), rank=3, tau=4.0, eta=0.05)) > v0
        assert theorem1_measurement_bound(
            BoundInputs(dims=(8, 6, 6), rank=2, tau=4.0, eta=0.05)) > v0
        assert theorem1_measurement_bound(
            BoundInputs(dims=(6, 6, 6), rank=2, tau=4.0, eta=0.05,
                        alpha=2.0)) == pytest.approx(4.0 * v0, rel=1e-12)
        assert theorem1_measurement_bound(
            BoundInputs(dims=(6, 6, 6), rank=2, tau=4.0, eta=0.05,
                        c=3.0)) == pytest.approx(3.0 * v0, rel=1e-12)


class TestProp2Bound:
    def test_hand_value(self):
        # sum = 90; branch1 = 91 ln(96); delta = 0.5 -> factor 4
        b = BoundInputs(dims=(10, 10, 10), rank=3, tau=8.0, eta=0.01, delta=0.5)
        assert prop2_measurement_bound(b) == pytest.approx(
            4.0 * 91.0 * math.log(96.0), rel=1e-12)

    def test_requires_delta(self):
        b = BoundInputs(dims=(4, 4), rank=1, tau=1.0, eta=0.5)
        with pytest.raises(ValueError):
            prop2_measurement_bound(b)

    def test_halving_delta_quadruples(self):
        b1 = BoundInputs(dims=(5, 5, 5), rank=2, tau=2.0, eta=0.1, delta=0.4)
        b2 = BoundInputs(dims=(5, 5, 5), rank=2, tau=2.0, eta=0.1, delta=0.2)
        assert prop2_measurement_bound(b2) == pytest.approx(
            4.0 * prop2_measurement_bound(b1), rel=1e-12)


class TestCoveringLogCardinality:
    def test_hand_value(self):
        # exponent = 1 + 18 = 19; argument = 3*3*2 / 0.1 = 180
        assert covering_log_cardinality((4, 5), 2, 2.0, 0.1) == pytest.approx(
            19.0 * math.log(180.0), rel=1e-12)

    def test_zero_when_ball_covers_everything(self):
        # epsilon equal to 3(N+1)tau makes the log argument 1
        assert covering_log_cardinality((3, 3), 1, 2.0, 18.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_shrinking_epsilon_grows_count(self):
        a = covering_log_cardinality((4, 4, 4), 2, 2.0, 0.1)
        b = covering_log_cardinality((4, 4, 4), 2, 2.0, 0.01)
        assert b > a

    def test_validation(self):
        with pytest.raises(ValueError):
            covering_log_cardinality((4, 4), 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            covering_log_cardinality((4, 4), 1, 0.9, 0.1)
        with pytest.raises(ValueError):
            covering_log_cardinality((4, 4), 1, 1.0, 0.0)


class TestRipProbe:
    def test_single_sample_collapses_statistics(self):
        op = create_operator(50, (4, 4, 4), seed=0)
        res = rip_probe(op, 2, 1.0, samples=1, seed=5)
        assert res.samples == 1
        assert res.min_ratio == res.max_ratio == res.mean_ratio
        assert res.delta_hat == pytest.approx(
            max(1.0 - res.min_ratio, res.max_ratio - 1.0), rel=1e-12)

    def test_deterministic(self):
        op = create_operator(40, (4, 4, 4), seed=1)
        a = rip_probe(op, 2, 5.0, samples=20, seed=3)
        b = rip_probe(op, 2, 5.0, samples=20, seed=3)
        assert a == b

    def test_ratios_positive_and_ordered(self):
        op = create_operator(60, (4, 4, 4), seed=2)
        res = rip_probe(op, 2, 10.0, samples=50, seed=4)
        assert 0.0 < res.min_ratio <= res.mean_ratio <= res.max_ratio
        assert res.delta_hat >= 0.0

    def test_more_measurements_shrink_distortion(self):
        # median over repetitions to damp sampling noise
        small, large = [], []
        for rep in range(20):
            op_s = create_operator(32, (4, 4, 4), seed=1000 + rep)
            op_l = create_operator(512, (4, 4, 4), seed=2000 + rep)
            small.append(rip_probe(op_s, 2, 1.0, samples=25, seed=rep).delta_hat)
            large.append(rip_probe(op_l, 2, 1.0, samples=25, seed=rep).delta_hat)
        assert float(np.median(large)) < float(np.median(small))

    # block: samples per block, max(1, 2^20 // (8 max(F J/I_1, M))) at F = 3;
    # width: leading indices per slice of the first block, as many as fit
    # beside its F x J/I_1 component rows in 2^20 bytes (a last, smaller
    # block gets wider slices)
    @pytest.mark.parametrize("dims, m, samples, block, width", [
        ((20, 20, 20), 20, 250, 109, 1),  # blocks of 109, 109 and 32
        ((20, 20, 20), 20, 35, 109, 6),  # one block, slices of 6, ..., 6, 2
        ((6, 6, 6), 30, 25, 1213, 6),  # one block, one slice
        ((4, 4), 20000, 15, 6, 4),  # M > J sizes the blocks: 6, 6 and 3
        ((10, 2000), 20, 30, 21, 1),  # order 2: blocks of 21 and 9
        ((8, 8, 8, 8), 20, 100, 85, 1),  # order 4: blocks of 85 and 15
    ], ids=["several blocks", "several slices", "one block",
            "blocks sized by M", "order 2", "order 4"])
    def test_matches_per_sample_oracle(self, dims, m, samples, block, width):
        k = math.prod(dims[1:])
        assert _PROBE_BLOCK_BYTES // (8 * max(3 * k, m)) == block
        s = min(block, samples)
        room = _PROBE_BLOCK_BYTES - 8 * s * 3 * k
        assert min(dims[0], max(1, room // (8 * s * k))) == width
        op = create_operator(m, dims, seed=7)
        res = rip_probe(op, 3, 10.0, samples=samples, seed=8)
        ratios = []
        for i in range(samples):
            x = reconstruct(generate_conditioned_model(dims, 3, 10.0, mix(8, i)))
            yv = op.matrix @ (x / frobenius_norm(x)).ravel()
            ratios.append(float(yv @ yv))
        assert res.samples == samples
        assert res.min_ratio == pytest.approx(min(ratios), rel=1e-12)
        assert res.mean_ratio == pytest.approx(float(np.mean(ratios)), rel=1e-12)
        assert res.max_ratio == pytest.approx(max(ratios), rel=1e-12)
        # the probe reads Phi itself and leaves the unfoldings unbuilt
        assert "mode_unfoldings" not in vars(op)

    def test_invalid_samples(self):
        op = create_operator(10, (3, 3), seed=3)
        with pytest.raises(ValueError):
            rip_probe(op, 1, 1.0, samples=0, seed=0)

    @pytest.mark.parametrize("dims, m, rank, samples", [
        ((20, 20, 20), 270, 3, 100),  # the probe benchmark's operation
        ((6, 6, 6), 512, 2, 1000),  # criterion 3
    ])
    def test_memory_stays_within_three_blocks(self, dims, m, rank, samples):
        op = create_operator(m, dims, seed=7)
        tracemalloc.start()
        try:
            rip_probe(op, rank, 10.0, samples=samples, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * _PROBE_BLOCK_BYTES
