import numpy as np
import pytest

from cpsense.io_text import (
    FormatError,
    read_cpmodel,
    read_measurements,
    read_tensor,
    write_cpmodel,
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

    def test_huge_header_value_count_does_not_wrap_around(self, tmp_path):
        # 2^64 values: a product in int64 wraps to 0, which no values match
        path = tmp_path / "x.txt"
        path.write_text("tensor 2 4294967296 4294967296\n")
        with pytest.raises(FormatError,
                           match="expected 18446744073709551616 values, got 0"):
            read_tensor(path)

    @pytest.mark.parametrize("text", ["tensor 2 -2 -2\n1 2 3 4\n",
                                      "tensor -1\n", "tensor 2 2\n"])
    def test_bad_dimensions(self, tmp_path, text):
        path = tmp_path / "x.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match="non-negative integer"):
            read_tensor(path)

    @pytest.mark.parametrize("text", ["tensor 0\n5\n", "tensor 1 3\n1 2 3\n",
                                      "tensor 2 0 3\n", "tensor 3 2 0 2\n"])
    def test_order_below_two_or_empty_dim_rejected(self, tmp_path, text):
        # write_tensor refuses these shapes, so read_tensor must too
        path = tmp_path / "x.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match="order >= 2"):
            read_tensor(path)


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

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("cpmodel 2 1\nfactor 2 1\n1 2\nfactor 2 1\n3 4 5\n")
        with pytest.raises(FormatError, match="trailing data"):
            read_cpmodel(path)

    @pytest.mark.parametrize("text, message", [
        ("cpmodel 2 1\nfactor 2 1\n1 2\nfactors 2 1\n3 4\n",
         "expected a 'factor' header"),
        ("cpmodel 2 1\nfactor 2 1\n1 2\n", "expected a 'factor' header"),
        ("cpmodel 2 1\nfactor 2 1\n1 2\nfactor 2 1\n3\n",
         "expected 2 factor values, got 1"),
    ], ids=["misspelled keyword", "missing block", "short block"])
    def test_bad_factor_block_rejected(self, tmp_path, text, message):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
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
