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
is exact (`rounding.widest_width`).  J^2 and J^4 are sum_k C_k 2^(wk) in
int64, refused (BudgetError) when the class maxima allow 2^62; tau is
joined from the last squaring's classes through carry-normalised int64
limbs.  tau(1) = 1 and tau(2) = -24 are checked on every build.

A request for lambda(n) = tau(n) / n^(11/2) up to n builds a table of
capacity 2^ceil(log2 n) (every term that its transforms of length
2^ceil(log2 2n) pay for); later requests up to that capacity are slices of
the same table.  The table keeps only the float64 column: the exact ints
belong to the build and are dropped once each is rounded to float64.
`table_info` reports what was built.
"""

from __future__ import annotations

import threading
from typing import Iterator, NamedTuple

import numpy as np

from .errors import BudgetError
from .rounding import certified_norm, fft_error, max_abs, split_digits, widest_width

# Largest supported n: at capacity 2^21 the squarings certify 13-, 13- and
# 12-bit digits (largest bound 0.48) and J^4 stays below 2^58.
MAX_TAU_INDEX = 1 << 21
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
    """
    factor = fft_error(size)

    def split(bits: int) -> tuple[float, list[np.ndarray]]:
        _, pieces = split_digits(a, bits, balanced=True)
        floats = [d.astype(np.float64) for _, d in pieces]
        norms = [certified_norm(f) for f in floats]
        n = len(norms)
        worst = max(
            sum(norms[i] * norms[k - i] for i in range(n) if 0 <= k - i < n)
            for k in range(2 * n - 1)
        )
        return factor * worst, floats

    top = max_abs(a).bit_length() + 1  # a is one balanced digit
    refusal = f"no digit width certifies a squaring of {a.size} terms"
    bits, bound, floats = widest_width(split, top, _MIN_BITS, refusal)
    spectra = []
    while floats:  # free each digit once it is transformed
        spectra.append(np.fft.rfft(floats.pop(0), size))
    return bits, bound, _classes(spectra, size, a.size)


def _classes(spectra: list, size: int, n_terms: int) -> Iterator[np.ndarray]:
    """C_k = sum_{i+j=k} d_i * d_j for k = 0 .. 2L-2, one inverse each."""
    n = len(spectra)
    for k in range(2 * n - 1):
        acc = None
        for i in range(max(0, k - n + 1), k // 2 + 1):
            term = spectra[i] * spectra[k - i]
            if 2 * i < k:
                term *= 2  # d_i * d_j and d_j * d_i
            acc = term if acc is None else np.add(acc, term, out=acc)
        z = np.fft.irfft(acc, size)[:n_terms]
        yield np.rint(z, out=z).astype(np.int64)


def _join(classes: Iterator[np.ndarray], bits: int) -> np.ndarray:
    """sum_k classes[k] << (bits k) in int64.

    The exact classes bound every partial sum by sum_k max|C_k| 2^(bits k);
    BudgetError when that bound could reach 2^62.
    """
    total, bound = None, 0
    for k, c in enumerate(classes):
        bound += max_abs(c) << (bits * k)
        if bound >= _EXACT_LIMIT:
            raise BudgetError("a power of J could pass 2^62: tau table too large")
        total = c if total is None else np.add(total, c << (bits * k), out=total)
    return total


def _to_ints(classes: Iterator[np.ndarray], bits: int) -> np.ndarray:
    """sum_k classes[k] << (bits k) as an object array of Python ints.

    Carries normalise the sum into bits-wide digits in int64, packed into
    non-negative limbs of 62 // bits digits; the top limb takes the last
    digits and the sign (the final carry, 0 or -1 everywhere).  The limbs
    are joined as Python ints, a few object operations per term.
    """
    per = 62 // bits
    mask = (1 << bits) - 1
    limbs, limb, carry, k = [], 0, 0, 0
    classes = iter(classes)
    while True:
        c = next(classes, None)
        if c is None:
            if carry.min() >= -1 and carry.max() <= 0:
                break
            c = 0
        v = c + carry
        limb = limb + ((v & mask) << (bits * (k % per)))
        carry = v >> bits
        k += 1
        if k % per == 0:
            limbs.append(limb)
            limb = 0
    out = (limb + (carry << (bits * (k % per)))).astype(object)
    for low in reversed(limbs):
        np.left_shift(out, bits * per, out=out)
        np.add(out, low.astype(object), out=out)
    return out


def _compute_tau(n_terms: int) -> tuple[np.ndarray, tuple[tuple[int, float], ...]]:
    """(exact tau(1..n_terms) as an object array, (bits, bound) per squaring)."""
    size = 2 * n_terms
    series = _eta_cube(n_terms)
    squarings = []
    for _ in range(2):  # J -> J^2 -> J^4
        bits, bound, classes = _square(series, size)
        squarings.append((bits, bound))
        series = _join(classes, bits)
    bits, bound, classes = _square(series, size)
    squarings.append((bits, bound))
    taus = _to_ints(classes, bits)
    if taus[0] != 1 or (n_terms >= 2 and taus[1] != -24):
        raise AssertionError("tau series self-check failed")
    return taus, tuple(squarings)


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
            taus, squarings = _compute_tau(_transform_size(n_max) // 2)
            n = np.arange(1, taus.size + 1, dtype=np.float64)
            normalized = taus.astype(np.float64) / n ** 5.5
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
