import numpy as np
import pytest

from cpsense.io_text import (
    FormatError,
    read_cpmodel,
    read_factor,
    read_measurements,
    read_tensor,
    write_cpmodel,
    write_factor,
    write_measurements,
    write_tensor,
)
from cpsense.tensor_core import CpModel


class TestTensorRoundTrip:
    def test_exact(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((3, 4, 2))
        path = tmp_path / "x.txt"
        write_tensor(path, x)
        np.testing.assert_array_equal(read_tensor(path), x)

    def test_header(self, tmp_path):
        path = tmp_path / "x.txt"
        write_tensor(path, np.ones((2, 3)))
        assert path.read_text().splitlines()[0] == "tensor 2 2 3"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("matrix 2 2 1 2 3 4\n")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("tensor 2 2 2\n1 2 3\n")
        with pytest.raises(FormatError):
            read_tensor(path)

    @pytest.mark.parametrize("text", ["tensor 2 -2 -2\n1 2 3 4\n",
                                      "tensor -1\n", "tensor 2 2\n"])
    def test_bad_dimensions(self, tmp_path, text):
        path = tmp_path / "x.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match="non-negative integer"):
            read_tensor(path)


class TestFactorRoundTrip:
    def test_exact(self, tmp_path):
        a = np.random.default_rng(1).standard_normal((5, 3))
        path = tmp_path / "a.txt"
        write_factor(path, a)
        np.testing.assert_array_equal(read_factor(path), a)

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("factor 2 2\n1 2 3 4 5\n")
        with pytest.raises(FormatError):
            read_factor(path)


class TestModelRoundTrip:
    def test_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        model = CpModel(tuple(rng.standard_normal((d, 3)) for d in (4, 2, 5)))
        path = tmp_path / "model.txt"
        write_cpmodel(path, model)
        again = read_cpmodel(path)
        assert again.shape == model.shape and again.rank == model.rank
        for a, b in zip(model.factors, again.factors):
            np.testing.assert_array_equal(a, b)

    def test_rank_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("cpmodel 1 3\nfactor 2 2\n1 2 3 4\n")
        with pytest.raises(FormatError):
            read_cpmodel(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("model 2 2\n")
        with pytest.raises(FormatError):
            read_cpmodel(path)


class TestMeasurementsRoundTrip:
    def test_exact(self, tmp_path):
        y = np.random.default_rng(3).standard_normal(17)
        path = tmp_path / "y.txt"
        write_measurements(path, y)
        np.testing.assert_array_equal(read_measurements(path), y)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "y.txt"
        path.write_text("measurements 3\n1 2\n")
        with pytest.raises(FormatError):
            read_measurements(path)

    @pytest.mark.parametrize("text", ["measurements", "measurements 2.5\n1 2\n",
                                      "measurements x\n"])
    def test_missing_or_non_integer_count(self, tmp_path, text):
        path = tmp_path / "y.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match="non-negative integer"):
            read_measurements(path)

    @pytest.mark.parametrize("text", ["measurements 2\nnan inf\n",
                                      "measurements 1\n-inf\n",
                                      "measurements 1\none\n"])
    def test_non_finite_or_non_numeric_values(self, tmp_path, text):
        path = tmp_path / "y.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_measurements(path)

    def test_extreme_values_survive(self, tmp_path):
        y = np.array([1e-300, -1e300, np.pi, 1.0 + 2**-52])
        path = tmp_path / "y.txt"
        write_measurements(path, y)
        np.testing.assert_array_equal(read_measurements(path), y)
