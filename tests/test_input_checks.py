"""Every numeric setting rejects NaN, inf and out-of-range values by name."""

import math
import re

import numpy as np
import pytest

from cpsense import cli
from cpsense.conditioning import generate_conditioned_factor, generate_conditioned_model
from cpsense.experiment import ExperimentConfig
from cpsense.recovery import RecoveryConfig
from cpsense.sensing import create_operator
from cpsense.theory_bounds import BoundInputs, covering_log_cardinality, rip_probe

NAN, INF = math.nan, math.inf


def _bound(**changes):
    return BoundInputs(**{"dims": (3, 3), "rank": 1, "tau": 2.0, "eta": 0.1,
                          **changes})


def _sweep(**changes):
    return ExperimentConfig(**{"dims": (3, 3, 3), "rank": 1,
                               "kappa_grid": (1.0, 10.0), **changes})


# (setting named in the message, the bad values, a call taking one of them)
CASES = [
    ("alpha", (NAN, INF, 0.0, -1.0),
     lambda v: create_operator(10, (3, 3), alpha=v)),
    ("tau", (NAN, INF, 0.5), lambda v: _bound(tau=v)),
    ("alpha", (NAN, INF, 0.0), lambda v: _bound(alpha=v)),
    ("c", (NAN, INF, -1.0), lambda v: _bound(c=v)),
    ("tau", (NAN, INF, 0.9),
     lambda v: covering_log_cardinality((4, 4), 1, v, 0.1)),
    ("epsilon", (NAN, INF, 0.0),
     lambda v: covering_log_cardinality((4, 4), 1, 2.0, v)),
    ("success_mse_threshold", (NAN, INF, 0.0),
     lambda v: _sweep(success_mse_threshold=v)),
    ("alpha", (NAN, INF, -1.0), lambda v: _sweep(alpha=v)),
    ("kappa_grid value", (NAN, INF, 0.5), lambda v: _sweep(kappa_grid=(1.0, v))),
    ("kappa_grid value", (NAN, INF, 0.5), lambda v: _sweep(kappa_grid=(v, 1.0))),
    ("condition number target", (NAN, INF, 0.5),
     lambda v: generate_conditioned_factor(3, 2, v, 0)),
]


@pytest.mark.parametrize("name, value, call", [
    pytest.param(name, value, call, id=f"{i}-{name}-{value}")
    for i, (name, values, call) in enumerate(CASES) for value in values
])
def test_bad_value_rejected_by_name(name, value, call):
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(value)


# (setting named in the message, a call taking its value): a condition
# number, a bound on one, or a probability; float would read a str, and a
# bool would be taken as 0 or 1
NUMBER_CASES = [
    ("condition number target",
     lambda v: generate_conditioned_model((3, 3), 2, v, 1)),
    ("condition number target",
     lambda v: generate_conditioned_factor(3, 2, v, 0)),
    ("condition number target", lambda v: rip_probe(_OP, 1, v, 5, 0)),
    ("tau", lambda v: _bound(tau=v)),
    ("eta", lambda v: _bound(eta=v)),
    ("delta", lambda v: _bound(delta=v)),
    ("tau", lambda v: covering_log_cardinality((4, 4), 1, v, 0.1)),
    ("kappa_grid value", lambda v: _sweep(kappa_grid=(1.0, v))),
]


@pytest.mark.parametrize("name, value, call", [
    pytest.param(name, value, call, id=f"{i}-{name}-{value!r}")
    for i, (name, call) in enumerate(NUMBER_CASES) for value in ("2", True)
])
def test_str_or_bool_rejected_by_name(name, value, call):
    message = f"^{name} must be a number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


def test_sweep_rejects_unknown_distribution():
    with pytest.raises(ValueError, match="unknown distribution 'cauchy'"):
        _sweep(distribution="cauchy")


_OP = create_operator(10, (3, 3), seed=0)

# (count named in the message, a call taking its value); every count is >= 1
COUNT_CASES = [
    ("rank", lambda v: RecoveryConfig(rank=v)),
    ("max_iters", lambda v: RecoveryConfig(rank=1, max_iters=v)),
    ("restarts", lambda v: RecoveryConfig(rank=1, restarts=v)),
    ("rank", lambda v: _bound(rank=v)),
    ("rank", lambda v: covering_log_cardinality((4, 4), v, 2.0, 0.1)),
    ("samples", lambda v: rip_probe(_OP, 1, 1.0, v, 0)),
    ("rank", lambda v: rip_probe(_OP, v, 1.0, 5, 0)),
    ("trials", lambda v: _sweep(trials=v)),
    ("explicit m", lambda v: _sweep(m=(30, v))),
    ("measurement count", lambda v: create_operator(v, (3, 3))),
    ("rank", lambda v: generate_conditioned_model((3, 3), v, 1.0, 0)),
    ("cols", lambda v: generate_conditioned_factor(3, v, 1.0, 0)),
    ("rows", lambda v: generate_conditioned_factor(v, 1, 1.0, 0)),
]


@pytest.mark.parametrize("name, value, call", [
    pytest.param(name, value, call, id=f"{i}-{name}-{value}")
    for i, (name, call) in enumerate(COUNT_CASES) for value in (0, -2)
])
def test_bad_count_rejected_by_name(name, value, call):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        call(value)


@pytest.mark.parametrize("name, value, call", [
    pytest.param(name, value, call, id=f"{i}-{name}-{value}")
    for i, (name, call) in enumerate(COUNT_CASES)
    for value in (2.5, 3.0, True, np.float64(2.0), "3")
])
def test_non_integral_count_rejected_by_name(name, value, call):
    # a float is not silently cut to an integer, and a bool or a string is
    # not a count
    with pytest.raises(ValueError,
                       match=f"^{name} must be an integer, got {value}$"):
        call(value)


def test_numpy_integer_counts_accepted():
    assert RecoveryConfig(rank=np.int64(2)).rank == 2
    assert create_operator(np.int32(7), (3, 3)).m == 7
    assert _sweep(m=(np.int64(10),)).m == (10,)


# calls taking a tensor dimension; it is not cut to an integer either
DIMENSION_CASES = [
    lambda v: create_operator(10, (v, 3)),
    lambda v: _sweep(dims=(3, v, 3)),
    lambda v: generate_conditioned_model((v, 3), 2, 2.0, 0),
    lambda v: covering_log_cardinality((3, v), 1, 2.0, 0.1),
]


@pytest.mark.parametrize("value, call", [
    pytest.param(value, call, id=f"{i}-{value}")
    for i, call in enumerate(DIMENSION_CASES)
    for value in (3.7, 3.0, True, "3", None)
])
def test_non_integral_dimension_rejected_by_name(value, call):
    with pytest.raises(ValueError,
                       match=f"^dimension must be an integer, got {value}$"):
        call(value)


def test_numpy_integer_dimensions_accepted():
    assert create_operator(10, (np.int64(3), 3)).shape == (3, 3)
    assert type(_sweep(dims=(np.int32(3), 3, 3)).dims[0]) is int


@pytest.mark.parametrize("args", [["gen", "--out", "model.txt"],
                                  ["rip-probe", "--m", "10"]])
def test_cli_names_a_zero_rank(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(args + ["--dims", "4,4,4", "--rank", "0"]) == 1
    assert capsys.readouterr().err == "error: rank must be >= 1, got 0\n"
    assert not (tmp_path / "model.txt").exists()


# (seed named in the message, a call taking its value); seeds handed to
# numpy's generators as they are must be integers >= 0
SEED_CASES = [
    ("operator seed", lambda v: create_operator(10, (3, 3), seed=v)),
    ("rng_seed", lambda v: generate_conditioned_factor(3, 2, 1.0, v)),
]


@pytest.mark.parametrize("name, value, message, call", [
    pytest.param(name, value, message, call, id=f"{i}-{name}-{value}")
    for i, (name, call) in enumerate(SEED_CASES)
    for value, message in ((-1, "be >= 0"), (-2**70, "be >= 0"),
                           (1.5, "be an integer"), (2.0, "be an integer"),
                           (True, "be an integer"))
])
def test_bad_seed_rejected_by_name(name, value, message, call):
    with pytest.raises(ValueError, match=f"^{name} must {message}, got {value}$"):
        call(value)


def test_valid_seeds_accepted():
    # numpy integers and seeds past 64 bits reach default_rng as they are;
    # a seed that goes through mix may be any integer
    assert create_operator(10, (3, 3), seed=np.int64(0)).m == 10
    assert create_operator(10, (3, 3), seed=2**70).m == 10
    model = generate_conditioned_model((3, 3), 2, 1.0, -5)
    assert model.shape == (3, 3)


# (seed named in the message, a call taking its value); a seed that goes
# through `mix` may be any integer, negative too, but not a float or a bool
MIX_SEED_CASES = [
    ("seed", lambda v: RecoveryConfig(rank=1, seed=v)),
    ("base_seed", lambda v: _sweep(base_seed=v)),
    ("rng_seed", lambda v: generate_conditioned_model((3, 3), 2, 1.0, v)),
    ("seed", lambda v: rip_probe(_OP, 1, 1.0, 5, v)),
]


@pytest.mark.parametrize("name, value, call", [
    pytest.param(name, value, call, id=f"{i}-{name}-{value}")
    for i, (name, call) in enumerate(MIX_SEED_CASES) for value in (1.5, True)
])
def test_non_integral_mix_seed_rejected_by_name(name, value, call):
    # mix would cut 1.5 to 1 and take True as 1
    with pytest.raises(ValueError,
                       match=f"^{name} must be an integer, got {value}$"):
        call(value)


@pytest.mark.parametrize("call", [
    pytest.param(call, id=f"{i}-{name}")
    for i, (name, call) in enumerate(MIX_SEED_CASES)
])
def test_negative_mix_seed_accepted(call):
    call(-1)


@pytest.mark.parametrize("command, flag, value", [
    ("sense", "--seed", "-1"), ("recover", "--op-seed", "-5"),
    ("rip-probe", "--op-seed", "-1")])
def test_cli_names_a_negative_operator_seed(command, flag, value, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "--dims", "3,3", "--rank", "1",
                     "--out", "model.txt"]) == 0
    assert cli.main(["sense", "--model", "model.txt", "--m", "10",
                     "--out", "y.txt"]) == 0
    capsys.readouterr()
    args = {"sense": ["--model", "model.txt", "--out", "y2.txt"],
            "recover": ["--y", "y.txt", "--shape", "3,3", "--rank", "1",
                        "--out", "rec.txt"],
            "rip-probe": ["--dims", "3,3", "--rank", "1"]}[command]
    assert cli.main([command, "--m", "10", flag, value] + args) == 1
    assert capsys.readouterr().err == (
        f"error: operator seed must be >= 0, got {value}\n")
    assert not (tmp_path / "y2.txt").exists()
    assert not (tmp_path / "rec.txt").exists()
