"""Every numeric setting rejects NaN, inf and out-of-range values by name."""

import math

import pytest

from cpsense.conditioning import generate_conditioned_factor
from cpsense.experiment import ExperimentConfig
from cpsense.sensing import create_operator
from cpsense.theory_bounds import BoundInputs, covering_log_cardinality

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


def test_sweep_rejects_unknown_distribution():
    with pytest.raises(ValueError, match="unknown distribution 'cauchy'"):
        _sweep(distribution="cauchy")
