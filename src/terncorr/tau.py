"""Exact Ramanujan tau coefficients via the 24th power of the eta series.

tau(n) is read off from the coefficients of J^8 where J is the cube of the
pentagonal-number product (Jacobi's identity), so only three truncated
squarings of an integer power series are needed.  Each squaring is an exact
cyclic convolution by number-theoretic transforms (terncorr.ntt) modulo the
fewest primes whose product covers the squaring's certified coefficient
bound: the J -> J^2 -> J^4 chain is bounded a priori from J, and the final
squaring from the measured J^4, which is recombined by CRT for that purpose
and reduced again modulo the final primes.  The recovered integers are
therefore exact, and tau(1) = 1, tau(2) = -24 are checked on every build.

A request for tau up to n builds the transform of size 2^ceil(log2 2n) and
keeps all size/2 terms it pays for, with tau(n) / n^(11/2) in float64
alongside; later requests up to that capacity are slices of the same table.
"""

from __future__ import annotations

import threading

import numpy as np

from . import ntt
from .errors import BudgetError

MAX_TAU_INDEX = ntt.MAX_SIZE // 2  # largest supported n for tau(n)

_lock = threading.Lock()
# (tau(1..capacity) as a read-only object array, tau(n) / n^(11/2) as float64)
_table: tuple[np.ndarray, np.ndarray] = (
    np.empty(0, dtype=object), np.empty(0, dtype=np.float64),
)


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


def _square_exact(series: np.ndarray, bound: int, size: int, n_terms: int,
                  times: int) -> np.ndarray:
    """series^(2^times) truncated to n_terms, as exact Python ints.

    bound bounds every coefficient of the result in absolute value; it
    selects the CRT primes.
    """
    primes = ntt.primes_for(bound)
    residues = []
    for p, g in primes:
        r = (series % p).astype(np.uint64)  # % takes the sign of p
        for _ in range(times):
            r = ntt.square(r, p, g, size, n_terms)
        residues.append(r)
    return ntt.crt(residues, [p for p, _ in primes])


def _compute_tau(n_terms: int) -> np.ndarray:
    """Exact tau(1..n_terms) (object array); n_terms a power of two."""
    size = 2 * n_terms
    j3 = _eta_cube(n_terms)
    # |J^2| <= terms * max|J|^2 over the nonzero terms of J, and a truncated
    # square of n_terms coefficients bounded by B is bounded by n_terms B^2.
    terms = int(np.count_nonzero(j3))
    max_j = int(np.abs(j3).max())
    bound_j2 = terms * max_j * max_j
    j4 = _square_exact(j3, n_terms * bound_j2 * bound_j2, size, n_terms, 2)
    max_j4 = int(np.abs(j4).max())
    taus = _square_exact(j4, n_terms * max_j4 * max_j4, size, n_terms, 1)
    if taus[0] != 1 or (n_terms >= 2 and taus[1] != -24):
        raise AssertionError("tau series self-check failed")
    return taus


def tau_values(n_max: int) -> np.ndarray:
    """Exact tau(1..n_max) as a read-only object array of Python ints.

    Builds (and certifies) the table on the first request beyond its
    capacity; requests within it are slices.
    """
    global _table
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_TAU_INDEX:
        raise BudgetError(f"tau table up to {n_max} exceeds budget {MAX_TAU_INDEX}")
    with _lock:
        if _table[0].size < n_max:
            taus = _compute_tau(_transform_size(n_max) // 2)
            n = np.arange(1, taus.size + 1, dtype=np.float64)
            normalized = taus.astype(np.float64) / n ** 5.5
            taus.setflags(write=False)
            normalized.setflags(write=False)
            _table = (taus, normalized)
        return _table[0][:n_max]


def tau_normalized_values(n_max: int) -> np.ndarray:
    """tau(n) / n^(11/2) for n = 1..n_max as a read-only float64 array."""
    tau_values(n_max)  # the table only grows, so it now holds n_max terms
    return _table[1][:n_max]
