"""Property tests: every text format reads back exactly what was written."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cpsense.io_text import (
    read_cpmodel,
    read_measurements,
    read_tensor,
    write_cpmodel,
    write_measurements,
    write_tensor,
)
from cpsense.tensor_core import CpModel

# finite doubles, with the edge cases drawn often: signed zero, the
# smallest subnormal, a subnormal near the normal range, and +-1.7e308
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, 1.7e308, -1.7e308]
VALUES = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))
DIMS = st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple)

EXAMPLES = settings(max_examples=40, deadline=None)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    # tobytes() tells -0.0 from 0.0, which == does not
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("io_properties")


@EXAMPLES
@given(x=DIMS.flatmap(lambda dims: arrays(np.float64, dims, elements=VALUES)))
def test_tensor_round_trip(workdir, x):
    path = workdir / "x.txt"
    write_tensor(path, x)
    assert _same_bytes(read_tensor(path), x)


@EXAMPLES
@given(data=st.data(), dims=DIMS, rank=st.integers(1, 4))
def test_cpmodel_round_trip(workdir, data, dims, rank):
    factors = tuple(data.draw(arrays(np.float64, (d, rank), elements=VALUES))
                    for d in dims)
    path = workdir / "model.txt"
    write_cpmodel(path, CpModel(factors))
    again = read_cpmodel(path)
    assert len(again.factors) == len(factors)
    for a, b in zip(again.factors, factors):
        assert _same_bytes(a, b)


@EXAMPLES
@given(y=arrays(np.float64, st.integers(0, 30), elements=VALUES))
def test_measurements_round_trip(workdir, y):
    path = workdir / "y.txt"
    write_measurements(path, y)
    assert _same_bytes(read_measurements(path), y)
