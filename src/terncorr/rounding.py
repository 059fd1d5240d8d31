"""Exact integer products from float64 FFTs: rounding bounds, digits, widths.

A cyclic product x*y of integer sequences computed by radix-2 float64
transforms of length 2^n has every entry within

    |x| |y| ((1+e)^3k (1+e sqrt5)^(3k+1) (1+b)^3k - 1)

of the exact one (Percival; Brent and Zimmermann, Modern Computer
Arithmetic, 2010, Thm 3.3.2), with Euclidean norms |x|, |y| (bounded by
`certified_norm`), e = 2^-53 and twiddle error b, taken as 2e.
`fft_error(length)` is that factor with k = n + 2: one stage more for the
real-input transform and one for the sum of the products that share an
inverse transform in the frequency domain (up to 16 of them: their 15
additions err less than one stage).  When the bound is below 1/2, rounding
each entry to the nearest integer gives the exact product.  The same
argument bounds one forward transform alone: every bin of a length-2^n
transform of x is within sqrt(2^n) |x| ((1+e)^k (1+e sqrt5)^k (1+b)^k - 1)
of the exact DFT, with k = n + 1 (`fft_bin_error`, used by the arc scans).
All of these run on `numpy.fft` (pocketfft), at power-of-two lengths.

Values too large for one such product are cut into digits by
`split_digits` (`digit_shape` gives their bound and count), each digit
product is bounded on its own, and `widest_width` finds the widest digits
whose bound certifies: the one width search of the tau squarings and the
banded correlations.  Exact integer sums of int64 arrays whose total may
pass 2^63 go through `exact_sum`, which needs only a bound on each term.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import BudgetError

ULP = 2.0**-53
INT64_MAX = (1 << 63) - 1


def _growth(stages: int, products: int = 0) -> float:
    """(1+e)^s (1+e sqrt5)^(s+p) (1+2e)^s - 1 for s stages and p products."""
    logs = stages * (math.log1p(ULP) + math.log1p(2 * ULP))
    logs += (stages + products) * math.log1p(ULP * math.sqrt(5))
    return math.expm1(logs)


def fft_error(length: int) -> float:
    """Percival's factor for a product by real transforms of this length."""
    return _growth(3 * (length.bit_length() + 1), products=1)


def fft_bin_error(length: int, norm: float) -> float:
    """Bound on every bin's rounding error in one forward transform.

    `length` must be a power of two 2^n.  For an input of Euclidean norm
    `norm`, the transform's norm is sqrt(2^n) norm (Parseval), and
    Percival's factor over n + 1 stages (one more for the real-input pass)
    bounds the error's norm, hence each bin.
    """
    return math.sqrt(length) * norm * _growth(length.bit_length())


def gamma(n: int) -> float:
    """n e / (1 - n e): n float operations err by at most this factor."""
    return n * ULP / (1 - n * ULP)


def certified_norm(a: np.ndarray) -> float:
    """An upper bound on the Euclidean norm of a float64 or complex128 array.

    The float dot of its n real numbers with themselves is within gamma_n of
    their sum of squares; 1 + 2 (n+1) e covers that and the roundings after.
    """
    x = np.ascontiguousarray(a, dtype=np.result_type(a, np.float64)).view(np.float64)
    return math.sqrt(float(np.dot(x, x)) * (1 + 2 * (x.size + 1) * ULP))


def max_abs(a: np.ndarray) -> int:
    """max |a| of an int64 array as a Python int (1 for an empty array)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)), 1)


def exact_sum(a: np.ndarray, bound: int) -> int:
    """sum(a) as a Python int, for a 1-D int64 array with every |a_i| <= bound.

    A longer array than step = (2^63 - 1) // bound terms is summed as the
    column sums of one step-row reshape: each column adds step terms, so
    its sum fits in int64 (int64 addition wraps, so a sum that fits comes
    out exact in any order).  The column sums are split into their high
    and low 32 bits, whose int64 sums cannot wrap either for fewer than
    2^31 columns.
    """
    step = INT64_MAX // max(bound, 1)
    if len(a) <= step:
        return int(a.sum())
    full = len(a) - len(a) % step
    cols = a[:full].reshape(step, -1).sum(axis=0)
    high, low = int((cols >> 32).sum()), int((cols & 0xFFFFFFFF).sum())
    return (high << 32) + low + int(a[full:].sum())


def digit_shape(m: int, bits: int, balanced: bool = False) -> tuple[int, int]:
    """(D, digit count) of `split_digits` for an array with max|a| = m."""
    top = (1 << bits) - (1 << (bits - 1) if balanced else 0)
    count = 1
    while m >> (bits * (count - 1)) > top:
        count += 1
    return min(m, top + 1), count


def split_digits(
    a: np.ndarray, bits: int, balanced: bool = False
) -> tuple[int, list[tuple[int, np.ndarray]]]:
    """(D, [(s_k, d_k)]) with a = sum_k d_k << s_k and every |d_k| <= D.

    The low digits are bits-wide fields of a: in [0, 2^bits), or with
    balanced=True in [-2^(bits-1), 2^(bits-1)), which halves their typical
    size.  The top digit carries the rest and the sign.  With R = 2^bits
    for unsigned digits and 2^(bits-1) for balanced ones, a is one digit
    (a itself, D = max|a|) when max|a| <= R; otherwise the top digit has
    magnitude at most R + 1, so D = R + 1.  Balanced digits need
    max|a| < 2^63 - 2^(bits-1).
    """
    bound, count = digit_shape(max_abs(a), bits, balanced)
    half = 1 << (bits - 1) if balanced else 0
    out = []
    for k in range(count - 1):
        a = a + half  # a balanced digit is the low field of a + half, less half
        out.append((bits * k, (a & ((1 << bits) - 1)) - half))
        a = a >> bits
    return bound, out + [(bits * (count - 1), a)]


def widest_width(evaluate: Callable, top: int, least: int, refusal: str) -> tuple:
    """(w, bound, value) at the widest w in [least, top] with bound < 1/2.

    evaluate(w) gives (bound, value), with bounds that never fall as w
    grows (an infinite one never certifies).  A failed width steps down by half the
    bits its bound is over 1/2 (about 4x of bound per bit; one bit past an
    infinite one), then the width grows while the next one certifies.
    BudgetError(refusal) when least does not certify.
    """
    bits, fails = top, top + 1  # fails: the narrowest width seen to fail
    bound, value = evaluate(bits)
    while bound >= 0.5:
        if bits == least:
            raise BudgetError(refusal)
        step = math.ceil((math.log2(bound) + 1) / 2) if bound < math.inf else 1
        bits, fails = max(least, bits - max(1, step)), bits
        bound, value = evaluate(bits)
    while bits + 1 < fails:
        wider, wider_value = evaluate(bits + 1)
        if wider >= 0.5:
            break
        bits, bound, value = bits + 1, wider, wider_value
    return bits, bound, value
