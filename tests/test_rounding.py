"""Exact int64 sums, and the balanced digit split shared by the tau squarings."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terncorr.rounding import INT64_MAX, exact_sum, split_digits

ROOT_INT64 = 3037000499  # floor(sqrt(2^63 - 1)): products of two stay in int64


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-ROOT_INT64, ROOT_INT64),
                          st.integers(-ROOT_INT64, ROOT_INT64)),
                min_size=1, max_size=40))
def test_exact_sum_matches_python_ints(pairs):
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    bound = max(max(abs(a * b) for a, b in pairs), 1)
    assert exact_sum(u * v, bound) == sum(a * b for a, b in pairs)


def test_exact_sum_splits_where_one_sum_would_overflow():
    u = np.full(10, ROOT_INT64, dtype=np.int64)
    v = np.full(10, -ROOT_INT64, dtype=np.int64)
    with np.errstate(over="ignore"):
        wrapped = int(np.dot(u, v))
    exact = -10 * ROOT_INT64**2
    assert wrapped != exact  # a single int64 sum wraps around
    assert exact_sum(u * v, ROOT_INT64**2) == exact


@pytest.mark.parametrize("bound, length", [
    (2**62 + 1, 7),  # step 1: every term is a column of its own
    (2**62 - 1, 7),  # step 2, with one term left over
    (2**60, 3 * (INT64_MAX // 2**60) + 5),  # step 7: three columns, a tail
    (2**60, INT64_MAX // 2**60),  # one step: a plain sum
])
@pytest.mark.parametrize("sign", [1, -1])
def test_exact_sum_edges(bound, length, sign):
    rng = np.random.default_rng(length)
    a = sign * rng.integers(bound - bound // 8, bound, size=length,
                            endpoint=True, dtype=np.int64)
    a[0] = sign * bound
    if sign < 0:
        assert (a < 0).all()
    assert exact_sum(a, bound) == sum(a.tolist())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**62) + 1, 2**62 - 1), min_size=1, max_size=30),
       st.integers(4, 40))
@example([2**62 - 1, -(2**62) + 1, 0], 4)
@example([-(2**11) - 1], 12)  # just past one balanced 12-bit digit
def test_balanced_digits_reconstruct_within_half(values, bits):
    a = np.array(values, dtype=np.int64)
    bound, pieces = split_digits(a, bits, balanced=True)
    half = 1 << (bits - 1)
    m = max(abs(v) for v in values)
    assert len(pieces) == 1 if m <= half else len(pieces) > 1
    assert bound == min(max(m, 1), half + 1)
    total = [0] * len(values)
    for i, (shift, d) in enumerate(pieces):
        assert shift == bits * i and d.dtype == np.int64
        low = i < len(pieces) - 1
        assert all(-half <= v < half if low else abs(v) <= bound for v in d.tolist())
        total = [t + (v << shift) for t, v in zip(total, d.tolist())]
    assert total == values

