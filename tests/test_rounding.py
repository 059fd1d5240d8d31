"""Exact int64 sums, the balanced digit split shared by the tau squarings,
and the per-bin rounding bound of one transform."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terncorr.rounding import INT64_MAX, exact_sum, fft_bin_error, split_digits

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



def _exact_dft(x, bins, sign):
    """sum_j x_j e(sign j k / n) at each bin k, in 200-bit arithmetic."""
    n = len(x)
    with mpmath.workprec(200):
        xs = [mpmath.mpc(complex(v)) for v in x]
        out = []
        for k in map(int, bins):
            total = mpmath.fsum(v * mpmath.expjpi(mpmath.mpf(2 * sign * j * k) / n)
                                for j, v in enumerate(xs))
            out.append(complex(total))
    return np.array(out)


@pytest.mark.parametrize("n", [2, 16, 128, 1024])
@pytest.mark.parametrize("real", [True, False])
def test_fft_bin_error_bounds_one_transform(n, real):
    # The forms the arc scans take: rfft of a real window, and the
    # unscaled inverse transform of a complex one.
    rng = np.random.default_rng(n + real)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    if not real:
        x = x + 1j * rng.standard_normal(n)
    got = np.fft.rfft(x) if real else np.fft.ifft(x, norm="forward")
    bins = np.arange(len(got)) if n <= 128 else rng.choice(len(got), 24, replace=False)
    err = np.abs(got[bins] - _exact_dft(x, bins, -1 if real else 1))
    norm = float(np.linalg.norm(x))
    bound = fft_bin_error(n, norm)
    assert err.max() <= bound
    assert bound <= 2**-40 * np.sqrt(n) * norm  # the transform's norm is sqrt(n) norm
