"""The row formatter against ``repr``, byte for byte.

``heraldtime._shortest.format_rows`` computes each value's shortest
round-trip digits with Ryu's arithmetic on uint64 lanes and lays them out
as ``repr`` does; every class below is written by both and compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heraldtime._shortest import format_rows

_CHUNK = 1 << 15  # values per call: bounds the test's memory


def _repr_rows(block):
    flat = block.reshape(-1).tolist()
    return ("%r,%r\n" * (len(flat) // 2) % tuple(flat)).encode("ascii")


def _assert_repr(values, signs=True):
    """Each finite value, and with ``signs`` its negation too, in rows of
    two as repr writes them; a mismatch names the first row that differs."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    values = values[np.isfinite(values)]
    values = np.concatenate([values, -values] if signs else
                            [values, values[:len(values) % 2]])
    for start in range(0, len(values), _CHUNK):
        block = values[start:start + _CHUNK].reshape(-1, 2)
        got, want = format_rows(block), _repr_rows(block)
        if got != want:
            row, expected = next((g, w) for g, w in zip(
                got.split(b"\n"), want.split(b"\n")) if g != w)
            pytest.fail(f"wrote {row!r} where repr writes {expected!r}")


def _from_bits(exponents, mantissas):
    bits = (np.asarray(exponents, np.uint64) << np.uint64(52)) | np.asarray(
        mantissas, np.uint64)
    return bits.view(np.float64)


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # past the largest float: inf, left out
        return np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])


def test_every_binary_exponent_with_four_mantissas():
    # each normal exponent picks its own table entry and shift
    exponents = np.arange(1, 2047, dtype=np.uint64)
    rng = np.random.default_rng(29)
    for mantissa in (np.zeros_like(exponents), np.ones_like(exponents),
                     rng.integers(0, 1 << 52, len(exponents), dtype=np.uint64),
                     np.full_like(exponents, (1 << 52) - 1)):
        _assert_repr(_from_bits(exponents, mantissa))


def test_powers_of_two_and_ten_with_their_neighbours():
    _assert_repr(_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    _assert_repr(_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_subnormals_and_signed_zeros():
    rng = np.random.default_rng(5)
    mantissas = np.concatenate([np.arange(1, 5000, dtype=np.uint64),
                                rng.integers(1, 1 << 52, 20000,
                                             dtype=np.uint64),
                                np.array([(1 << 52) - 1], np.uint64)])
    _assert_repr(_from_bits(np.zeros_like(mantissas), mantissas))
    block = np.array([[0.0, -0.0], [-0.0, 0.0], [5e-324, -5e-324]])
    assert format_rows(block) == b"0.0,-0.0\n-0.0,0.0\n5e-324,-5e-324\n"


def test_positional_and_exponent_switch_points():
    # repr is positional for 1e-4 <= |x| < 1e16, with ".0" on integral
    # values, and writes an exponent of at least two digits elsewhere
    values = [1e-4, 1e-5, 9.999999999999999e-05, 0.00012345678901234567,
              1e15, 1e16, 9999999999999998.0, 1.2345678901234567e16, 1e17,
              123456789012345.6, 2.0 ** 53, 2.0 ** 53 + 2, 1e22, 1e23,
              1e99, 1e100, 1e-99, 1e-100, 1.7976931348623157e308,
              2.2250738585072014e-308, 0.1, 0.5, 1.0, 100.25]
    _assert_repr(_neighbours(values))
    block = np.array([[1e-4, 1e-5], [1e15, 1e16], [1.5, 2e-300]])
    assert format_rows(block) == (b"0.0001,1e-05\n1000000000000000.0,1e+16\n"
                                  b"1.5,2e-300\n")


def test_short_mantissas():
    # integers and their decimal fractions end in zeros Ryu's general
    # case keeps track of
    ints = np.arange(1, 20001, dtype=np.float64)
    for divisor in (1, 2, 10, 1000):
        _assert_repr(ints / divisor)


def test_a_million_random_bit_patterns():
    rng = np.random.default_rng(2018)
    _assert_repr(np.frombuffer(rng.bytes(8 << 20), np.float64), signs=False)


def test_rows_of_a_block():
    assert format_rows(np.empty((0, 2))) == b""
    block = np.arange(6, dtype=np.float64).reshape(3, 2) - 2.5
    assert format_rows(block) == b"-2.5,-1.5\n-0.5,0.5\n1.5,2.5\n"
    assert format_rows(block.reshape(6, 1)) == \
        b"-2.5\n-1.5\n-0.5\n0.5\n1.5\n2.5\n"
    assert format_rows(block.reshape(2, 3)) == b"-2.5,-1.5,-0.5\n0.5,1.5,2.5\n"
    assert format_rows(np.empty((0, 3))) == b""


def _repr_table(block):
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in block.tolist()).encode("ascii")


@pytest.mark.parametrize("columns", [1, 3, 7, 201])
def test_random_bit_patterns_in_rows_of_k_columns(columns):
    # every value's separator is ",", but the row's last one's "\n"
    rng = np.random.default_rng(columns)
    values = np.frombuffer(rng.bytes(8 * columns * 300), np.float64)
    block = np.where(np.isfinite(values), values, -0.0).reshape(-1, columns)
    assert format_rows(block) == _repr_table(block)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=k, max_size=k), min_size=1, max_size=6)))
def test_drawn_rows_of_k_columns(rows):
    block = np.array(rows, dtype=np.float64)
    assert format_rows(block) == _repr_table(block)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=8))
def test_drawn_pairs(rows):
    block = np.array(rows, dtype=np.float64)
    assert format_rows(block) == _repr_rows(block)


@pytest.mark.parametrize("unit_scale", [1.0, 1e-12, 1e-15])
def test_event_times_in_each_unit(unit_scale):
    # the rows the writer formats: sampled times divided by a unit
    times = np.random.default_rng(7).normal(scale=1e-9, size=(4096, 2))
    _assert_repr(times / unit_scale)
