"""Exact Ramanujan tau coefficients via the 24th power of the eta series.

tau(n) is the coefficient of q^(n-1) in J^8, where J = prod (1 - q^n)^3 is
Jacobi's series sum_k (-1)^k (2k+1) q^(k(k+1)/2), so three truncated
squarings J -> J^2 -> J^4 -> J^8 give the table.  Each squaring runs on
real float64 FFTs of length 2N for N kept terms and is exact (`_square`):
its input is cut into balanced digits d_i of w bits, and each digit-weight
class C_k = sum_{i+j=k} d_i * d_j is formed in the frequency domain and
rounded to int64 by one inverse transform.  The width w is the widest whose
a priori bound, `rounding.fft_error` times sum_{i+j=k} |d_i| |d_j|
(certified norms), stays below 1/2 for every class, so every rounded class
is exact (`rounding.widest_width`).  The width search keeps only digit
norms; each spectrum lives from its first class to its last, and every
class reuses the same sum and transform buffers.  J^2 and J^4 are
sum_k C_k 2^(wk) in int64, refused (BudgetError) when the class maxima
allow 2^62.  The last squaring's classes are carried into int64 limbs and
rounded straight to float64: the top 62 bits of each magnitude, rounded
to odd, convert once to the correctly rounded float(tau(n)), with no
Python int formed (`_to_floats`).  tau(1) = 1 and tau(2) = -24 are
checked on every build.

A request for lambda(n) = tau(n) / n^(11/2) up to n builds a table of
capacity 2^ceil(log2 n) (every term that its transforms of length
2^ceil(log2 2n) pay for); later requests up to that capacity are slices of
the same table.  The table keeps only the float64 column.  `table_info`
reports what was built.
"""

from __future__ import annotations

import threading
from typing import Iterator, NamedTuple

import numpy as np

from .errors import BudgetError
from .rounding import certified_norm, fft_error, max_abs, split_digits, widest_width

# Largest supported n: at capacity 2^22 the squarings certify 14-, 12- and
# 11-bit digits (largest bound 0.29) and J^4 stays below 2^61.
MAX_TAU_INDEX = 1 << 22
_EXACT_LIMIT = 1 << 62
# Below 2^62, digits of at least 4 bits number at most 16, so a class sums
# at most 8 products, within what `fft_error` allows.
_MIN_BITS = 4


class _Table(NamedTuple):
    normalized: np.ndarray  # tau(n) / n^(11/2) for n = 1..capacity, read-only
    squarings: tuple[tuple[int, float], ...]  # (digit bits, bound) per squaring
    builds: int


_EMPTY = _Table(np.empty(0, dtype=np.float64), (), 0)
_lock = threading.Lock()
_table = _EMPTY


def _transform_size(n_max: int) -> int:
    """Smallest power of two >= 2 n_max: it squares n_max terms unwrapped."""
    return 1 << (2 * n_max - 1).bit_length()


def _eta_cube(n_terms: int) -> np.ndarray:
    """Coefficients of the cube of the pentagonal product (Jacobi's series)."""
    c = np.zeros(n_terms, dtype=np.int64)
    k = 0
    while k * (k + 1) // 2 < n_terms:
        c[k * (k + 1) // 2] = (1 if k % 2 == 0 else -1) * (2 * k + 1)
        k += 1
    return c


def _square(a: np.ndarray, size: int) -> tuple[int, float, Iterator[np.ndarray]]:
    """(w, bound, classes): a^2 truncated to len(a) terms as digit classes.

    a^2 = sum_k classes[k] << (w k), every class exact in int64, since each
    is rounded from one inverse transform of length size under bound < 1/2:
    bound = fft_error(size) max_k sum_{i+j=k} |d_i| |d_j| over the certified
    norms of the balanced digits d_i of width w.  Digits convert to float64
    exactly below 2^53; a wider digit has |d|^2 >= 2^106 and never certifies.
    The width search keeps only the norms; a is split again at the width.
    """
    factor = fft_error(size)

    def bound_at(bits: int) -> tuple[float, None]:
        _, pieces = split_digits(a, bits, balanced=True)
        norms = [certified_norm(d) for _, d in pieces]
        n = len(norms)
        worst = max(
            sum(norms[i] * norms[k - i] for i in range(n) if 0 <= k - i < n)
            for k in range(2 * n - 1)
        )
        return factor * worst, None

    top = max_abs(a).bit_length() + 1  # a is one balanced digit
    refusal = f"no digit width certifies a squaring of {a.size} terms"
    bits, bound, _ = widest_width(bound_at, top, _MIN_BITS, refusal)
    _, pieces = split_digits(a, bits, balanced=True)
    return bits, bound, _classes([d for _, d in pieces], size, a.size)


def _classes(digits: list, size: int, n_terms: int) -> Iterator[np.ndarray]:
    """C_k = sum_{i+j=k} d_i * d_j for k = 0 .. 2L-2, one inverse each.

    Spectrum i is formed at class i, when its digit is dropped, and dropped
    after class i + L - 1, its last.  Every class reuses acc and one buffer
    that holds a product (tmp) and then the inverse transform (z).
    """
    n = len(digits)
    spectra = [None] * n
    acc = np.empty(size // 2 + 1, dtype=np.complex128)
    buf = np.empty(size + 2)
    tmp, z = buf.view(np.complex128), buf[:size]
    for k in range(2 * n - 1):
        if k < n:
            x, digits[k] = digits[k].astype(np.float64), None
            spectra[k] = np.fft.rfft(x, size)
            del x
        first = max(0, k - n + 1)
        for i in range(first, k // 2 + 1):
            term = np.multiply(spectra[i], spectra[k - i], out=acc if i == first else tmp)
            if 2 * i < k:
                term *= 2  # d_i * d_j and d_j * d_i
            if i > first:
                acc += term
        if first:
            spectra[first - 1] = None
        np.fft.irfft(acc, size, out=z)
        c = z[:n_terms]
        yield np.rint(c, out=c).astype(np.int64)


def _join(classes: Iterator[np.ndarray], bits: int) -> np.ndarray:
    """sum_k classes[k] << (bits k) in int64.

    The exact classes bound every partial sum by sum_k max|C_k| 2^(bits k);
    BudgetError when that bound could reach 2^62.  The classes are
    overwritten.
    """
    total, bound = None, 0
    for k, c in enumerate(classes):
        bound += max_abs(c) << (bits * k)
        if bound >= _EXACT_LIMIT:
            raise BudgetError("a power of J could pass 2^62: tau table too large")
        if total is None:
            total = c
        else:
            total += np.left_shift(c, bits * k, out=c)
    return total


def _bit_length(x: np.ndarray) -> np.ndarray:
    """The bit length of each entry of a non-negative int64 array below 2^63.

    frexp reads it from the float64 value, which may round up to the next
    power of two; that case is found by the shift and corrected.
    """
    e = np.frexp(x.astype(np.float64))[1].astype(np.int64)
    e -= (e > 0) & ((x >> np.maximum(e - 1, 0)) == 0)
    return e


def _to_floats(classes: Iterator[np.ndarray], bits: int, out: np.ndarray) -> np.ndarray:
    """out = float(sum_k classes[k] << (bits k)), correctly rounded.

    Carries normalise the sum into bits-wide digits in int64, packed into
    non-negative limbs of 62 // bits digits; the top limb takes the last
    digits and the sign (the final carry, 0 or -1 everywhere).  A negative
    sum is negated limb by limb (complement, then one carried up).  From
    the top limb down, the magnitude's top 62 bits are kept with every
    lower bit ORed into the last one: rounding to odd, so that the one
    int64 -> float64 conversion (to nearest) rounds the magnitude correctly
    (Boldo and Melquiond, IEEE Trans. Comput. 57, 2008), and ldexp scales
    it by the bits dropped.  The classes are overwritten.
    """
    per = 62 // bits
    width = bits * per
    mask, low_mask = (1 << bits) - 1, (1 << width) - 1
    limbs, limb, carry, k = [], None, None, 0
    classes = iter(classes)
    while True:
        v = next(classes, None)
        if v is None:
            if carry.min() >= -1 and carry.max() <= 0:
                break
            v = np.zeros_like(carry)
        if carry is None:
            carry, limb = np.zeros_like(v), np.zeros_like(v)
        v += carry
        np.right_shift(v, bits, out=carry)
        v &= mask
        limb |= np.left_shift(v, bits * (k % per), out=v)
        del v  # before the next class is formed
        k += 1
        if k % per == 0:
            limbs.append(limb)
            limb = np.zeros_like(carry)
    top = limb
    top += np.left_shift(carry, bits * (k % per), out=carry)
    flip = top >> 63  # -1 where the sum is negative, else 0
    up = np.negative(flip, out=carry)
    ones = flip & low_mask
    for low in limbs:
        low ^= ones
        low += up
        np.right_shift(low, width, out=up)
        low &= low_mask
    top ^= flip
    top += up
    shift = np.zeros_like(top)
    for low in reversed(limbs):
        dropped = np.maximum(_bit_length(top) + width - 62, 0)
        top <<= width - dropped
        top |= low >> dropped
        top |= (low & ((1 << dropped) - 1)) != 0  # to odd
        shift += dropped
    out[...] = top
    np.ldexp(out, shift, out=out)
    return np.negative(out, out=out, where=flip < 0)


def _tau_classes(n_terms: int) -> tuple[int, Iterator[np.ndarray], tuple]:
    """(bits, classes, (bits, bound) per squaring) of J^8 to n_terms terms.

    tau(n) = sum_k classes[k][n - 1] << (bits k) for n = 1..n_terms.
    """
    size = 2 * n_terms
    series = _eta_cube(n_terms)
    squarings = []
    for _ in range(2):  # J -> J^2 -> J^4
        bits, bound, classes = _square(series, size)
        squarings.append((bits, bound))
        series = _join(classes, bits)
    bits, bound, classes = _square(series, size)
    squarings.append((bits, bound))
    return bits, classes, tuple(squarings)


def _compute_tau(n_terms: int) -> tuple[np.ndarray, tuple[tuple[int, float], ...]]:
    """(float(tau(n)) for n = 1..n_terms, (bits, bound) per squaring)."""
    # Allocated before the build's temporaries, so that the column does not
    # sit above the heap they free and keep it from the system.
    out = np.empty(n_terms)
    bits, classes, squarings = _tau_classes(n_terms)
    taus = _to_floats(classes, bits, out)
    if taus[0] != 1 or (n_terms >= 2 and taus[1] != -24):
        raise AssertionError("tau series self-check failed")
    return taus, squarings


def tau_values(n_max: int) -> np.ndarray:
    """tau(n) / n^(11/2) for n = 1..n_max as a read-only float64 array.

    Builds (and certifies) the table on the first request beyond its
    capacity; requests within it are slices.  float(tau(n)) is correctly
    rounded, as Python converts ints.
    """
    global _table
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_TAU_INDEX:
        raise BudgetError(f"tau table up to {n_max} exceeds budget {MAX_TAU_INDEX}")
    with _lock:
        if _table.normalized.size < n_max:
            normalized, squarings = _compute_tau(_transform_size(n_max) // 2)
            n = np.arange(1, normalized.size + 1, dtype=np.float64)
            n **= 5.5
            normalized /= n
            normalized.setflags(write=False)
            _table = _Table(normalized, squarings, _table.builds + 1)
        return _table.normalized[:n_max]


def table_info() -> dict:
    """The held table: its capacity, the builds so far and its certificate.

    digit_bits lists the digit width of each squaring J -> J^2 -> J^4 ->
    J^8, and rounding_bound the largest of their bounds (below 1/2); they
    are [] and None before the first build.
    """
    t = _table
    return {
        "capacity": int(t.normalized.size),
        "builds": t.builds,
        "digit_bits": [bits for bits, _ in t.squarings],
        "rounding_bound": max((b for _, b in t.squarings), default=None),
    }
