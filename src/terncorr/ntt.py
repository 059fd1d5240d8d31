"""Exact cyclic convolutions by number-theoretic transforms and Garner CRT.

Integer sequences are transformed modulo NTT-friendly primes p = c 2^k + 1
below 2^31 and recombined by the Chinese remainder theorem.  Callers pass a
certified bound on the exact results; `primes_for` picks the shortest prefix
of `PRIMES` whose product exceeds twice that bound, so the signed results are
recovered exactly.

The butterflies multiply by fixed twiddles w with Shoup's precomputed
quotients w' = floor(w 2^32 / p) (D. Harvey, "Faster arithmetic for
number-theoretic transforms", J. Symb. Comput. 60 (2014)): for 0 <= v < 2^32,
q = (v w') >> 32 gives t = v w - q p in [0, 2p), and one conditional
subtraction finishes the reduction.  With p < 2^31 every product stays below
2^64, so the arithmetic is exact in uint64 and needs no division.

`forward` takes natural order to bit-reversed order (decimation in
frequency) and `inverse` takes it back (decimation in time), so a pointwise
product between them needs no permutation.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BudgetError

# (p, primitive root); every p = c * 2^k + 1 with k >= 21 and p < 2^31.
PRIMES = (
    (998244353, 3),
    (167772161, 3),
    (469762049, 3),
    (754974721, 11),
    (1004535809, 3),
    (2013265921, 31),
)

MAX_SIZE = 1 << 21  # every prime above supports transforms of this size
_SMALL = 16  # passes with half-length <= _SMALL run on a transposed copy

_U32 = np.uint64(32)


def primes_for(bound: int) -> tuple[tuple[int, int], ...]:
    """Shortest prefix of PRIMES whose product exceeds 2 * bound.

    Results with |x| <= bound are then recovered exactly by `crt`.
    """
    modulus = 1
    for i, (p, _) in enumerate(PRIMES):
        modulus *= p
        if modulus > 2 * bound:
            return PRIMES[: i + 1]
    raise BudgetError(
        f"CRT modulus of all {len(PRIMES)} primes is too small for "
        f"coefficients up to 2^{bound.bit_length()}"
    )


def shoup_quotient(w: np.ndarray, p: int) -> np.ndarray:
    """w' = floor(w * 2^32 / p) for residues 0 <= w < p."""
    return (w.astype(np.uint64) << _U32) // np.uint64(p)


def _shoup_into(v, w, wq, pp, q, out):
    """out = v * w mod p in [0, p) for 0 <= v < 2^32; q is scratch."""
    np.multiply(v, wq, out=q)
    q >>= _U32
    q *= pp
    np.multiply(v, w, out=out)
    out -= q  # in [0, 2p)
    np.subtract(out, pp, out=q)
    np.minimum(out, q, out=out)


@functools.lru_cache(maxsize=2 * len(PRIMES))
def _twiddles(p: int, g: int, size: int, inverse: bool):
    """omega^(+-j) for j < size/2 and their Shoup quotients.

    Cached for the forward and inverse transforms of every prime at the
    latest size; a build of another size evicts them.
    """
    if (p - 1) % size:
        raise BudgetError(f"prime {p} has no roots of unity of order {size}")
    root = pow(g, (p - 1) // size, p)
    if inverse:
        root = pow(root, p - 2, p)
    w = np.ones(max(1, size // 2), dtype=np.uint64)
    filled = 1
    while filled < w.size:
        step = np.uint64(pow(root, filled, p))
        m = min(filled, w.size - filled)
        w[filled : filled + m] = (w[:m] * step) % np.uint64(p)
        filled += m
    wq = shoup_quotient(w, p)
    w.setflags(write=False)
    wq.setflags(write=False)
    return w, wq


def _dif(u, v, w, wq, pp, d, q, t):
    """Gentleman-Sande butterfly: u, v <- u + v, (u - v) w (mod p)."""
    np.add(u, pp, out=d)
    d -= v  # u - v + p in (0, 2p)
    u += v
    np.subtract(u, pp, out=t)
    np.minimum(u, t, out=u)
    _shoup_into(d, w, wq, pp, q, v)


def _dit(u, v, w, wq, pp, d, q, t):
    """Cooley-Tukey butterfly: u, v <- u + v w, u - v w (mod p)."""
    _shoup_into(v, w, wq, pp, q, t)
    np.add(u, pp, out=d)
    d -= t
    np.subtract(d, pp, out=q)
    np.minimum(d, q, out=v)
    u += t
    np.subtract(u, pp, out=q)
    np.minimum(u, q, out=u)


def _transform(a: np.ndarray, p: int, g: int, inverse: bool) -> None:
    """The radix-2 passes of `forward` (inverse=False) or `inverse`.

    A pass with half-length h pairs a[i] with a[i + h] inside blocks of 2h.
    Passes with h > _SMALL run on a in place; the rest run on a transposed
    copy in which each block of 2 _SMALL elements is a column, so every
    arithmetic operation still streams over long contiguous rows.
    """
    n = a.size
    if n < 2:
        return
    pp = np.uint64(p)
    w_all, wq_all = _twiddles(p, g, n, inverse)
    scratch = np.empty((3, n // 2), dtype=np.uint64)
    butterfly = _dit if inverse else _dif
    span = min(_SMALL, n // 2)

    def run(x: np.ndarray, halves: list[int]):
        cols = x.shape[1]
        for h in halves:
            blocks = x.reshape(-1, 2, h, cols)
            u, v = blocks[:, 0], blocks[:, 1]
            step = n // (2 * h)
            butterfly(u, v, w_all[::step, None], wq_all[::step, None], pp,
                      *(s.reshape(u.shape) for s in scratch))

    halves = [1 << k for k in range(n.bit_length() - 1)]  # 1, 2, ..., n/2
    small = [h for h in halves if h <= span]
    large = [h for h in halves if h > span]
    blocks = a.reshape(-1, 2 * span)
    if inverse:
        cols = np.ascontiguousarray(blocks.T)
        run(cols, small)
        blocks[...] = cols.T
        run(a[:, None], large)
    else:
        run(a[:, None], large[::-1])
        cols = np.ascontiguousarray(blocks.T)
        run(cols, small[::-1])
        blocks[...] = cols.T


def forward(a: np.ndarray, p: int, g: int) -> np.ndarray:
    """In-place NTT of residues in [0, p); the output is in bit-reversed order.

    a is a contiguous uint64 array whose size is a power of two.
    """
    _transform(a, p, g, inverse=False)
    return a


def inverse(a: np.ndarray, p: int, g: int) -> np.ndarray:
    """In-place inverse of `forward`: bit-reversed input, natural-order output,
    scaled by 1/n."""
    _transform(a, p, g, inverse=True)
    ninv = np.array([pow(a.size, p - 2, p)], dtype=np.uint64)
    _shoup_into(a, ninv, shoup_quotient(ninv, p), np.uint64(p), np.empty_like(a), a)
    return a


def square(res: np.ndarray, p: int, g: int, size: int, keep: int) -> np.ndarray:
    """Residues mod p of the square of a series, truncated to `keep` terms.

    res holds residues in [0, p); size is a power of two with
    size >= 2 * res.size - 1, so the cyclic square does not wrap.
    """
    buf = np.zeros(size, dtype=np.uint64)
    buf[: res.size] = res
    forward(buf, p, g)
    buf *= buf  # < 2^62
    buf %= np.uint64(p)
    return inverse(buf, p, g)[:keep]


def crt(residues: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """Garner recombination to signed Python ints (object array).

    Returns the representative in (-M/2, M/2] of each residue tuple, M the
    product of the primes.  The mixed-radix digits are computed with
    vectorised int64 arithmetic (every intermediate product stays below
    2^62), then paired into int64 digits d_i + p_i d_(i+1) < p_i p_(i+1);
    only the final Horner assembly over the pairs touches big integers.
    """
    k = len(primes)
    digits = [residues[0].astype(np.int64)]
    for i in range(1, k):
        pi = primes[i]
        acc = digits[0] % pi
        pref = primes[0] % pi
        for j in range(1, i):
            acc = (acc + pref * (digits[j] % pi)) % pi
            pref = (pref * primes[j]) % pi
        inv = pow(pref, pi - 2, pi)
        digits.append(((residues[i].astype(np.int64) - acc) * inv) % pi)
    pairs = [(digits[i] + primes[i] * digits[i + 1], primes[i] * primes[i + 1])
             for i in range(0, k - 1, 2)]
    if k % 2:
        pairs.append((digits[-1], primes[-1]))
    total = pairs[-1][0].astype(object)
    for digit, radix in reversed(pairs[:-1]):
        total = total * radix + digit.astype(object)
    modulus = 1
    for p in primes:
        modulus *= p
    return np.where(total > modulus // 2, total - modulus, total)
