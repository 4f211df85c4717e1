"""Plain-text file formats for tensors, CP models, and measurements.

All floats are written with 17 significant digits so round trips are exact
in double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor_core import CpModel, check_shape


class FormatError(ValueError):
    """Malformed input file."""


def format_float(v: float) -> str:
    """`v` with 17 significant digits, enough to read back the same double."""
    return format(float(v), ".17g")


def parse_list(text: str, convert=int) -> tuple:
    """The comma-separated values of `text`, each passed through `convert`."""
    return tuple(convert(v) for v in text.split(","))


_VALUES_PER_LINE = 8


def _write_values(lines: list[str], values: np.ndarray) -> None:
    flat = values.ravel()
    for start in range(0, flat.size, _VALUES_PER_LINE):
        lines.append(" ".join(format_float(v) for v in flat[start:start + _VALUES_PER_LINE]))


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_tokens(path, keyword: str) -> list[str]:
    """The whitespace-separated tokens of a file that starts with `keyword`."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens or tokens[0] != keyword:
        raise FormatError(f"expected a '{keyword}' header")
    return tokens


def _header_ints(tokens: list[str], pos: int, count: int,
                 header: str) -> list[int]:
    """The `count` non-negative integers at tokens[pos:pos + count] of a header."""
    fields = tokens[pos:pos + count]
    try:
        values = [int(t) for t in fields]
    except ValueError:
        values = []
    if len(values) != count or any(v < 0 for v in values):
        raise FormatError(
            f"'{header}' header needs {count} non-negative integer(s), "
            f"got {fields}")
    return values


def _read_values(tokens: list[str]) -> np.ndarray:
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if not np.all(np.isfinite(values)):
        raise FormatError("values must be finite")
    return values


def write_tensor(path, x: np.ndarray) -> None:
    x = np.asarray(x, dtype=float)
    dims = check_shape(x.shape)
    lines = ["tensor " + str(len(dims)) + " " + " ".join(map(str, dims))]
    _write_values(lines, x)
    _write_lines(path, lines)


def read_tensor(path) -> np.ndarray:
    tokens = _read_tokens(path, "tensor")
    order, = _header_ints(tokens, 1, 1, "tensor")
    dims = tuple(_header_ints(tokens, 2, order, "tensor"))
    if order < 2 or min(dims) < 1:
        raise FormatError(
            f"a tensor needs order >= 2 and every dim >= 1, got {dims}")
    values = _read_values(tokens[2 + order:])
    if values.size != math.prod(dims):
        raise FormatError(
            f"expected {math.prod(dims)} values, got {values.size}")
    return values.reshape(dims)


def _read_factor_tokens(tokens: list[str], pos: int) -> tuple[np.ndarray, int]:
    if pos >= len(tokens) or tokens[pos] != "factor":
        raise FormatError("expected a 'factor' header")
    rows, cols = _header_ints(tokens, pos + 1, 2, "factor")
    count = rows * cols
    values = _read_values(tokens[pos + 3:pos + 3 + count])
    if values.size != count:
        raise FormatError(f"expected {count} factor values, got {values.size}")
    return values.reshape(rows, cols), pos + 3 + count


def write_cpmodel(path, model: CpModel) -> None:
    lines = [f"cpmodel {model.order} {model.rank}"]
    for a in model.factors:
        lines.append(f"factor {a.shape[0]} {a.shape[1]}")
        _write_values(lines, a)  # row-major
    _write_lines(path, lines)


def read_cpmodel(path) -> CpModel:
    tokens = _read_tokens(path, "cpmodel")
    order, rank = _header_ints(tokens, 1, 2, "cpmodel")
    pos = 3
    factors = []
    for _ in range(order):
        a, pos = _read_factor_tokens(tokens, pos)
        if a.shape[1] != rank:
            raise FormatError(
                f"factor has {a.shape[1]} columns, header says rank {rank}")
        factors.append(a)
    if pos != len(tokens):
        raise FormatError("trailing data after the last factor block")
    return CpModel(tuple(factors))


def write_measurements(path, y: np.ndarray) -> None:
    y = np.asarray(y, dtype=float).ravel()
    lines = [f"measurements {y.size}"]
    _write_values(lines, y)
    _write_lines(path, lines)


def read_measurements(path) -> np.ndarray:
    tokens = _read_tokens(path, "measurements")
    m, = _header_ints(tokens, 1, 1, "measurements")
    values = _read_values(tokens[2:])
    if values.size != m:
        raise FormatError(f"expected {m} measurements, got {values.size}")
    return values
