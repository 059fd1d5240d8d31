"""Exact int64 sums, the digit split and its shape, certified norms, the one
digit-width search, and the per-bin rounding bound of one transform."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terncorr.errors import BudgetError
from terncorr.rounding import (
    INT64_MAX,
    certified_norm,
    digit_shape,
    exact_sum,
    fft_bin_error,
    split_digits,
    widest_width,
)

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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**62 - 1), st.integers(1, 62), st.booleans())
@example(2**62 - 1, 1, False)
@example(2**62 - 1, 62, True)
@example(2**17, 17, False)  # one unsigned digit exactly at R
@example(2**16 + 1, 17, True)  # one past one balanced digit
def test_digit_shape_is_split_digits_shape(m, bits, balanced):
    # One digit up to R = 2^bits (2^(bits-1) balanced), else D = R + 1 and
    # a digit for each j >= 0 with m >= (R + 1) 2^(bits j).
    r = 1 << (bits - 1) if balanced else 1 << bits
    count = 1 if m <= r else 2 + ((m // (r + 1)).bit_length() - 1) // bits
    a = np.array([m, -m], dtype=np.int64)
    bound, pieces = split_digits(a, bits, balanced)
    assert digit_shape(m, bits, balanced) == (bound, len(pieces)) == (min(m, r + 1), count)
    assert sum(d.astype(object) << s for s, d in pieces).tolist() == [m, -m]
    assert all(np.abs(d).max() <= bound for _, d in pieces)


def _exact_square_sum(k: np.ndarray) -> int:
    """sum k^2 for 0 <= k < 2^31, from 16-bit halves whose int64 sums of
    squares and products cannot wrap below 2^21 terms."""
    hi, lo = k >> 16, k & 0xFFFF
    return ((int((hi * hi).sum()) << 32) + (int((hi * lo).sum()) << 17)
            + int((lo * lo).sum()))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1 << 20])
@pytest.mark.parametrize("complex_", [False, True])
def test_certified_norm_bounds_the_exact_norm(n, complex_):
    # Dyadic values k 2^-s with integer k < 2^31: the exact sum of squares
    # is a Python int over 4^s.  Squares past 2^53 round, so the float dot
    # falls short of it for some of these arrays; the certified norm never
    # does.
    rng = np.random.default_rng(n + complex_)
    shortfalls = 0
    for s in (0, 9, 40):
        for k in (rng.integers(2**26, 2**31, size=(n, 2)),
                  np.full((n, 2), 2**31 - 1, dtype=np.int64)):
            k = k if complex_ else k[:, 0]
            x = np.ldexp(k.astype(np.float64), -s)
            x = x[:, 0] + 1j * x[:, 1] if complex_ else x
            exact = Fraction(_exact_square_sum(k.ravel()), 1 << (2 * s))
            assert Fraction(certified_norm(x)) ** 2 >= exact
            parts = np.ravel(np.column_stack((x.real, x.imag)) if complex_ else x)
            shortfalls += Fraction(float(np.dot(parts, parts))) < exact
    assert shortfalls > 0  # the float sum of squares alone is no bound


def _brute_widest(bounds: dict, least: int, top: int):
    fits = [w for w in range(least, top + 1) if bounds[w] < 0.5]
    return max(fits) if fits else None


@st.composite
def monotone_bounds(draw):
    """Bounds over widths least..top that grow with the width, by up to 4^3
    per bit or by steep steps past it, infinite from some width up (the
    band's int64 room) or at no width, and sometimes 1/2 or more at all."""
    top = draw(st.integers(1, 62))
    least = draw(st.integers(1, top))
    value = 2.0 ** draw(st.floats(-40, 40))
    bounds = {}
    for w in range(least, top + 1):
        bounds[w] = value
        value *= 4.0 ** draw(st.floats(0, 3) | st.floats(3, 40))  # some steep
    cut = draw(st.integers(least, top + 1))
    bounds.update({w: math.inf for w in range(cut, top + 1)})
    return least, top, bounds


@settings(max_examples=400, deadline=None)
@given(monotone_bounds())
@example((1, 3, {1: 0.25, 2: 0.5, 3: 1.0}))  # exactly 1/2 does not certify
@example((4, 62, {w: math.inf for w in range(4, 63)}))
@example((10, 12, {10: 0.1, 11: 0.2, 12: 2.0**20}))  # a jump past least
@example((1, 2, {1: 0.25, 2: 2.0**1023}))  # a finite bound whose double overflows
def test_widest_width_matches_a_brute_force_scan(case):
    least, top, bounds = case
    seen = []

    def evaluate(w):
        seen.append(w)
        return bounds[w], f"value at {w}"

    expect = _brute_widest(bounds, least, top)
    if expect is None:
        with pytest.raises(BudgetError, match="^nothing fits$"):
            widest_width(evaluate, top, least, "nothing fits")
        return
    assert widest_width(evaluate, top, least, "nothing fits") == (
        expect, bounds[expect], f"value at {expect}")
    assert len(seen) == len(set(seen))  # no width is evaluated twice


def test_widest_width_skips_down_by_the_excess():
    # A bound of 4^(w - 20) / 4 first certifies at w = 20; from w = 60 the
    # search steps down by half the excess bits, not one bit at a time.
    seen = []

    def evaluate(w):
        seen.append(w)
        return 4.0 ** (w - 20) / 4, None

    assert widest_width(evaluate, 60, 1, "none")[0] == 20
    assert len(seen) <= 4


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
