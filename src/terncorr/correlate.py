"""Averaged ternary correlations of coefficient windows.

The central quantity is

    S(X, H) = sum_{|h| <= H} (1 - |h|/H) sum_{X <= n <= 2X} f1(n) f2(n+h) f3(n+2h),

with the triangular weight realised exactly: H * S is accumulated as
sum_h (H - |h|) T_h, which is an integer for integer-valued families, so the
two routes can be compared bit for bit.  Shifted arguments run outside
[X, 2X]; windows are padded by 2H on both sides.

`ternary_direct` is the reference: every term of the definition, O(X H),
summed in cache-sized tiles of lags by terms of n.  `ternary_convolution`
is a different algorithm.  It writes H * S as sum_r f2(r) K(r), where K
is a convolution of f1 and f3 restricted to the band |k - n| < 2H with the
Fejer weight H - |k - n|/2.  Split by the parity of n and cut into blocks
of H terms, the band leaves a diagonal and strict triangles of
neighbouring blocks, on which the weight is linear.  Each triangle is
evaluated by recursive halving (van der Hoeven, "Relax, but don't be too
lazy", J. Symb. Comput. 34, 2002): each level is a batch of full squares,
four forward and one inverse real FFT of length 2m, so the whole route
costs O(X log^2 H).

Exact families take exact paths on both routes.  Direct runs the same
float tiles for every family (`_lag_sums`); exact families split values
into digits (`_direct_digit_bits`) with D1 D2 D3 <= 2^53 / 2^13, so a tile
of at most 2^13 terms is exact in float64, and (X + 1) D1 D2 D3 < 2^63,
so each lag sum fits in int64.
The banded route rounds each transform level to int64 under an a priori
rounding bound (`_square_error`, built on `rounding.fft_error`) kept below
1/2, with digits narrow enough for it (`_band_digit_bits`); K(r) is
accumulated in int64, since it can pass 2^53, and its products with f2
are summed by `rounding.exact_sum`.

Both routes split their work over `threads` workers, the calling thread
among them (`_in_order`): direct its tiles of n, the band its `_triangles`
batches.  The pieces are fixed by the request, and their results are added
in the order one thread adds them, so every sum, float or exact, has the
same bits for every thread count.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from bisect import bisect_right
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .multfunc import CoefficientWindow, MultSpec, WindowCache, as_float
from .rounding import INT64_MAX, digit_shape, exact_sum, fft_error, gamma, max_abs
from .rounding import split_digits, widest_width

_DIGIT_BITS = 17  # digits of the middle window on the banded route
_LAG_BLOCK = 16  # lags per direct tile
_TILE_TERMS = 1 << 13  # terms of n per direct tile, at most
# A direct pass costs about as much as this many more columns of f1
# digits: 1.9 ms per pass and 0.3-0.5 ms per column at X = 8192, H = 200;
# 45 ms and 6-9 ms at X = 2*10^4, H = 2000.
_PASS_COLUMNS = 4
_LEAF = 16  # triangles of at most this many terms are summed directly
_GROUP_TERMS = 1 << 14  # block terms per batch of triangles: caps FFT buffers


class Method(enum.Enum):
    DIRECT = "direct"
    CONVOLUTION = "conv"


@dataclass(frozen=True)
class CorrelationRequest:
    spec1: MultSpec
    spec2: MultSpec
    spec3: MultSpec
    x_start: int
    h_span: int

    def __post_init__(self):
        if self.h_span < 1:
            raise DomainError("H must be >= 1")
        if self.x_start - 2 * self.h_span < 1:
            raise DomainError(
                "shifted window X - 2H must stay positive; "
                f"got X={self.x_start}, H={self.h_span}"
            )


@dataclass(frozen=True)
class CorrelationResult:
    value: complex
    method: Method
    x_start: int
    h_span: int
    timing: float = 0.0
    exact_numerator: int | None = None  # H * S as an exact integer
    # Conv: exact families, the largest per-level rounding bound (< 1/2);
    # float families, a bound on |S - value|.  Direct: None.
    error_bound: float | None = None
    digits: tuple[int, int, int] | None = None  # exact families: per window

    @property
    def exact_value(self) -> Fraction | None:
        if self.exact_numerator is None:
            return None
        return Fraction(self.exact_numerator, self.h_span)


def correlation_windows(
    req: CorrelationRequest, cache: WindowCache | None = None
) -> tuple[CoefficientWindow, CoefficientWindow, CoefficientWindow]:
    """The windows of the three factors, each on [X - 2H, 2X + 2H].

    That range holds every argument of every factor, so one window serves
    all three places of a spec, and a symmetric triple is one cache key.
    """
    x, h = req.x_start, req.h_span
    cache = cache or WindowCache()
    lo, hi = x - 2 * h, 2 * x + 2 * h
    return tuple(cache.window(s, 1, lo, hi) for s in (req.spec1, req.spec2, req.spec3))


def _use_exact(req: CorrelationRequest) -> bool:
    return req.spec1.is_exact and req.spec2.is_exact and req.spec3.is_exact


def ternary_direct(
    req: CorrelationRequest,
    windows: tuple[CoefficientWindow, ...] | None = None,
    cache: WindowCache | None = None,
    h_order: str = "forward",
    threads: int = 1,
) -> CorrelationResult:
    """S(X, H) straight from its definition, O(X H).

    Every family runs the float tiles of `_lag_sums`.  Exact families split
    the windows into digits (`_direct_digit_bits`) small enough that every
    tile is exact in float64 and every lag sum fits in int64, and add the
    weighted lag sums as Python ints.  Float and complex families run the
    tiles in float64 or complex128 and take a Kahan-compensated sum over
    lags; h_order ("forward" | "reverse") only orders that sum, so
    reproducibility under reordering can be measured.  Exact results do
    not depend on it.  threads workers share the tiles of n; no result
    depends on their number.
    """
    t0 = time.perf_counter()
    w1, w2, w3 = windows or correlation_windows(req, cache)
    x, h = req.x_start, req.h_span
    f1 = w1.segment(x, 2 * x)
    f2 = w2.segment(x - h, 2 * x + h)
    f3 = w3.segment(x - 2 * h, 2 * x + 2 * h)

    numerator = digits = None
    if _use_exact(req):
        limit = min((1 << 53) // _TILE_TERMS, INT64_MAX // (x + 1))
        bits = _direct_digit_bits(max_abs(f1), max_abs(f2), max_abs(f3), limit)
        (_, d1), (_, d2), (_, d3) = map(split_digits, (f1, f2, f3), bits)
        digits = (len(d1), len(d2), len(d3))
        u1 = np.stack([d for _, d in d1], axis=1).astype(np.float64)
        weights = np.array([h - abs(hh) for hh in range(-h, h + 1)], dtype=object)
        numerator = 0
        for (s2, u2), (s3, u3) in product(d2, d3):
            sums = _lag_sums(u1, u2.astype(np.float64), u3.astype(np.float64),
                             np.int64, threads)
            for (s1, _), t in zip(d1, sums.T):
                numerator += int(np.dot(weights, t.astype(object))) << (s1 + s2 + s3)
        value = numerator / h
    else:
        # Float tiles for every family: int64 products of a mixed request
        # can wrap (divisor40 values pass 2^44 at X = 8192).
        dtype = np.result_type(f1, f2, f3, np.float64)
        sums = _lag_sums(f1.astype(dtype)[:, None], f2.astype(dtype),
                         f3.astype(dtype), dtype, threads)[:, 0]
        lags = range(2 * h + 1) if h_order == "forward" else range(2 * h, -1, -1)
        total = 0.0 + 0.0j
        comp = 0.0 + 0.0j  # Kahan carry over the mixed-sign h-accumulation
        for j in lags:
            y = (h - abs(j - h)) * complex(sums[j]) - comp
            t = total + y
            comp = (t - total) - y
            total = t
        value = total / h
        if req.spec1.is_real and req.spec2.is_real and req.spec3.is_real:
            value = value.real
    elapsed = time.perf_counter() - t0
    return CorrelationResult(
        value, Method.DIRECT, x, h, timing=elapsed, exact_numerator=numerator,
        digits=digits,
    )


def _direct_digit_bits(m1: int, m2: int, m3: int, limit: int) -> tuple[int, int, int]:
    """Digit widths for f1, f2, f3 (max |f_i| = m_i) on the direct route.

    Every digit triple bound D1 D2 D3 stays within limit.  Each digit pair
    of f2 and f3 is one pass of `_lag_sums`, and the digits of f1 are the
    columns of its matmul, each about 1/_PASS_COLUMNS of a pass, so the
    widths give the least passes * (_PASS_COLUMNS + digits of f1), then
    the fewest passes.
    """
    best = None
    d1s = [digit_shape(m1, b)[0] for b in range(1, m1.bit_length() + 1)]  # sorted
    widths = (range(1, m.bit_length() + 1) for m in (m2, m3))
    for b2, b3 in product(*widths):
        (d2, n2), (d3, n3) = digit_shape(m2, b2), digit_shape(m3, b3)
        b1 = bisect_right(d1s, limit // (d2 * d3))  # widest f1 digits that fit, or 0
        if b1:
            passes = n2 * n3
            cost = (passes * (_PASS_COLUMNS + digit_shape(m1, b1)[1]), passes)
            if best is None or cost < best[0]:
                best = cost, (b1, b2, b3)
    return best[1]


def _lag_sums(u1, u2, u3, dtype, threads: int = 1) -> np.ndarray:
    """T[j, c] = sum_n u1[n, c] u2[n + j] u3[n + 2j] for the lags j = h + H.

    u1 is (X + 1, k), the digits of f1 side by side (k = 1 for float
    families); u2 and u3 hold X + 1 + 2H and X + 1 + 4H terms, all three
    float64 or all three complex128.  The sum runs in tiles of _LAG_BLOCK
    lags by _TILE_TERMS terms of n: a tile of u2 u3 is formed from two
    strided views of the windows into one buffer and contracted against
    the matching rows of u1 with one matmul, so the windows pass through
    the cache once per tile of n instead of once per lag.

    Each tile of n is one piece of `_in_order`: a worker forms all its lags
    in a buffer and a partial-sum array of its own, and the partials add up
    per lag in tile order, in dtype: int64 for exact digits, where
    _TILE_TERMS * D1 D2 D3 <= 2^53 makes every partial sum of a tile, in
    any order, an integer that float64 holds, and (X + 1) D1 D2 D3 < 2^63
    keeps every lag sum within int64; else the tile dtype.
    """
    n, k = u1.shape
    lags = len(u2) - n + 1
    v2 = sliding_window_view(u2, n)  # v2[j, i] = u2[j + i]
    v3 = sliding_window_view(u3, n)[::2]  # v3[j, i] = u3[2j + i]
    sums = np.zeros((lags, k), dtype=dtype)

    def worker():
        buf = _cache_aligned((_LAG_BLOCK, _TILE_TERMS), u1.dtype)
        part = np.empty((lags, k), dtype=u1.dtype)

        def tile(i0: int) -> Callable[[], None]:
            i1 = min(i0 + _TILE_TERMS, n)
            for j0 in range(0, lags, _LAG_BLOCK):
                j1 = min(j0 + _LAG_BLOCK, lags)
                prod = np.multiply(v2[j0:j1, i0:i1], v3[j0:j1, i0:i1],
                                   out=buf[: j1 - j0, : i1 - i0])
                np.matmul(prod, u1[i0:i1], out=part[j0:j1])
            return lambda: np.add(sums, part.astype(dtype, copy=False), out=sums)

        return tile

    _in_order(range(0, n, _TILE_TERMS), threads, worker)
    return sums


def _in_order(items, threads: int, worker: Callable) -> None:
    """Compute the items on up to threads threads; add their results in order.

    worker() makes one worker's step, with buffers of its own; step(item)
    computes the item's result and returns the function that adds it in.
    min(threads, len(items)) workers, the calling thread among them, take
    the items in turn.  Each adds its result once every earlier item's is
    added, and only then takes another, so at most one result per worker
    is alive, and the sums are made in the order one thread makes them:
    their bits do not depend on threads.  One item or one thread starts no
    thread.
    """
    items = list(items)
    workers = min(threads, len(items))
    if workers <= 1:
        step = worker()
        for item in items:
            step(item)()
        return
    claims = iter(enumerate(items))
    turn = threading.Condition()
    added, failed = 0, False

    def run():
        nonlocal added, failed
        try:
            step = worker()
            while True:
                with turn:
                    i, item = next(claims, (None, None))
                if i is None or failed:
                    return
                add = step(item)
                with turn:
                    turn.wait_for(lambda: added == i or failed)
                    if failed:
                        return
                    add()
                    added += 1
                    turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(run) for _ in range(workers - 1)]
        run()
        for helper in helpers:
            helper.result()


def _cache_aligned(shape: tuple[int, ...], dtype) -> np.ndarray:
    """np.empty(shape, dtype) starting on a 64-byte cache line.

    numpy only promises 16 bytes.  The direct tiles ran 1.7-2x slower from
    a buffer off a cache line (one_star_chi4, X = 10^5, H = 10^4: about
    2.0 s against 1.1 s), so their speed hung on where the allocator put it.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def ternary_convolution(
    req: CorrelationRequest,
    windows: tuple[CoefficientWindow, ...] | None = None,
    cache: WindowCache | None = None,
    threads: int = 1,
) -> CorrelationResult:
    """S(X, H) by a banded Fejer contraction in O(X log^2 H) operations.

    With r = n + h the sum becomes sum_r f2(r) K(r), where K(r) sums
    (H - |k - n|/2) f1(n) f3(k) over n + k = 2r, |k - n| < 2H: a convolution
    of f1 and f3 restricted to a band, computed by `_fejer_band` from
    blocks of H terms (see the module docstring), then contracted against
    the middle window.

    Exact families round every transform level to int64 under the a priori
    bound `_square_error` (below 1/2, splitting f1 and f3 into digits when
    needed), so the numerator is exact; `error_bound` is that bound.  Float
    and complex families keep the transform output; `error_bound` then
    bounds |S - computed S|.  threads workers share the band's batches; no
    result depends on their number.
    """
    t0 = time.perf_counter()
    w1, w2, w3 = windows or correlation_windows(req, cache)
    x, h = req.x_start, req.h_span
    f1 = w1.segment(x, 2 * x)
    f2 = w2.segment(x - h, 2 * x + h)
    f3 = w3.segment(x - 2 * h, 2 * x + 2 * h)
    levels = _level_errors(h)

    numerator = digits = None
    if _use_exact(req):
        fmax = max(levels, default=0.0)
        b2, d2 = split_digits(f2, _DIGIT_BITS)
        bits = _band_digit_bits(max_abs(f1), max_abs(f3), b2, h, fmax)
        (b1, d1), (b3, d3) = split_digits(f1, bits), split_digits(f3, bits)
        digits = (len(d1), len(d2), len(d3))
        numerator = 0
        for (s1, u1), (s3, u3) in product(d1, d3):
            band = _fejer_band(u1, u3, h, np.int64, threads)
            bound = b2 * max_abs(band)  # |K| <= H^2 b1 b3: int64-safe
            for s2, u2 in d2:
                numerator += exact_sum(u2 * band, bound) << (s1 + s2 + s3)
        value = numerator / h
        error_bound = b1 * b3 * fmax
    else:
        band = _fejer_band(f1, f3, h, np.result_type(f1, f3, np.float64), threads)
        value = complex(np.dot(f2, band)) / h
        if all(s.is_real for s in (req.spec1, req.spec2, req.spec3)):
            value = value.real
        error_bound = _float_error(f1, f2, f3, band, h, levels)
    elapsed = time.perf_counter() - t0
    return CorrelationResult(
        value, Method.CONVOLUTION, x, h, timing=elapsed,
        exact_numerator=numerator, error_bound=error_bound, digits=digits,
    )


def _level_errors(h: int) -> list[float]:
    """`_square_error` of each transform level of a block of H terms.

    Blocks are padded to P = 2^ceil(log2 H) terms; a level multiplies
    squares of m = P/2, P/4, ... terms while 2m > _LEAF, with weight
    offsets c' = H - m or m (see `_triangles`).
    """
    out, span = [], 1 << (h - 1).bit_length()
    while span > _LEAF:
        span //= 2
        out.append(_square_error(span, max(h - span, span)))
    return out


def _square_error(m: int, c: int) -> float:
    """A priori rounding bound of one weighted square, per unit of D1 * D3.

    The square z(r) = sum_{p+q=r} (c + sign (p - q)) u(p) v(q), p, q < m,
    |u| <= D1, |v| <= D3, is c u*v + sign ((p u)*v - u*(q v)) through
    transforms of length 2m, each product bounded by `fft_error` times the
    Euclidean norms |u| |v| <= m D1 D3 and |p u| |v| <= sqrt(m S2) D1 D3,
    S2 = sum_{p<m} p^2.
    """
    s2 = (m - 1) * m * (2 * m - 1) / 6
    return (abs(c) * m + 2 * math.sqrt(m * s2)) * fft_error(2 * m)


def _band_digit_bits(m1: int, m3: int, b2: int, h: int, fmax: float) -> int:
    """Digit width for f1 and f3 (max |f1| = m1, max |f3| = m3).

    The widest one, of at most 62 bits, with D1 D3 fmax < 1/2, so every
    rounded level is exact, and D1 D3 b2 H^2 <= 2^63 - 1 (else the bound is
    infinite), so K(r) (at most H^2 D1 D3) and its products with the digits
    of f2 (at most b2) stay within int64.
    """
    def bound(bits: int) -> tuple[float, None]:
        d = digit_shape(m1, bits)[0] * digit_shape(m3, bits)[0]
        return (d * fmax if d * b2 * h * h <= INT64_MAX else math.inf), None

    refusal = f"H = {h} is too large for an exact banded contraction"
    return widest_width(bound, min(62, max(m1, m3).bit_length()), 1, refusal)[0]


def _fejer_band(f1: np.ndarray, f3: np.ndarray, h: int, dtype,
                threads: int = 1) -> np.ndarray:
    """K(r) for r in [X - H, 2X + H], from f1 on [X, 2X] and f3 on [X - 2H, 2X + 2H].

    n and k = n + 2j share parity; with n = X + 2a + e and k = X + 2b + e
    (e = 0, 1), K(X + e + s) gains sum_{a+b=s, |b-a|<H} (H - |b-a|) g(a) y(b)
    for g = f1[e::2] and y(b) = f3[e::2][b + H].  With blocks of H terms,
    a pair (a, b) lies in one block or in neighbouring ones: the diagonal
    b = a is one vector product, and b > a and b < a are strict triangles,
    `_triangles` rows of four kinds, for blocks j = -1 .. ceil(len(g)/H)-1:
      0, 1: (g_j, y_j) and (y_j, g_j): same block, weight H - (q - p);
      2, 3: (y_(j+1), g_j) and (g_(j+1), y_j): next block, weight q - p.
    Each `_triangles` call takes the rows of 1, 2 or 4 whole kinds, about
    _GROUP_TERMS terms of rows (at least one row), which bounds its
    transform buffers.  Rows with an all-zero block, such as kinds 0-2 at
    j = -1, are zero and left out.

    The diagonals and the calls are the pieces of `_in_order`, so the
    workers hold at most `threads` batches at a time and add them into K
    in the order of one thread.  A band with one call per parity (every
    request with X <= 2000) runs on the calling thread.
    """
    size = 1 << (h - 1).bit_length()
    n2 = len(f1) + 2 * h
    acc = np.zeros(n2 + 3 * h, dtype=dtype)  # index r - (X - 2H)
    per_call = max(1, _GROUP_TERMS // size)  # rows per `_triangles` call
    step = max(1, per_call // 4)  # blocks per batch
    kinds = min(4, per_call)  # kinds per `_triangles` call
    pieces = []  # (e, j0, nb, k0), j0 None for the diagonal
    for e in (0, 1):
        nblocks = -(-len(f1[e::2]) // h)
        pieces.append((e, None, 0, 0))
        for j0 in range(-1, nblocks, step):
            nb = min(step, nblocks - j0)
            pieces += [(e, j0, nb, k0) for k0 in range(0, 4, kinds)]

    def piece(where) -> Callable[[], None]:
        e, j0, nb, k0 = where
        g, y = f1[e::2], f3[e::2]
        base = e + 2 * h  # acc index of s = 0
        if j0 is None:
            diag = h * np.multiply(g, y[h : h + len(g)], dtype=dtype)
            dst = acc[base : base + 2 * len(g) : 2]
            return lambda: np.add(dst, diag, out=dst)
        blocks = np.zeros((2 * nb + 2, size), dtype=dtype)
        _blocks(g, j0, h, blocks[: nb + 1])
        _blocks(y, j0 + 1, h, blocks[nb + 1 :])
        # rows of kind 0..3 for blocks j0 + i, i < nb (see above)
        gi, yi = np.arange(nb), np.arange(nb + 1, 2 * nb + 1)
        r = slice(k0 * nb, (k0 + kinds) * nb)
        ix = np.concatenate((gi, yi, yi + 1, gi + 1))[r]
        iy = np.concatenate((yi, gi, gi, yi))[r]
        c = np.repeat([h, h, 0, 0], nb)[r, None, None]
        sign = np.repeat([1, 1, -1, -1], nb)[r, None, None]
        # A row with an all-zero block is zero: the edge blocks past g, and
        # blocks of zeros in the data.  Adding it would leave K's bits as
        # they are, so it is left out.
        live = blocks.any(axis=1)
        keep = live[ix] & live[iy]
        rows = _triangles(blocks[ix[keep]], blocks[iy[keep]], c[keep], sign[keep])
        # Row i of a kind lands at acc[start + 2Hi : start + 2H(i+1)]
        # (p + q <= 2H - 2, so the rest of the row is zero).
        keep = keep.reshape(kinds, nb)
        parts = np.split(rows[:, : 2 * h], np.cumsum(keep.sum(axis=1))[:-1])

        def add():
            for k, part in enumerate(parts):
                start = base + (2 * j0 + (k0 + k) // 2) * h
                dst = acc[start : start + 2 * h * nb].reshape(nb, 2 * h)
                dst[keep[k]] += part

        return add

    one_call = len(pieces) == 4  # per parity, the diagonal and one batch
    _in_order(pieces, 1 if one_call else threads, lambda: piece)
    return acc[h : h + n2]


def _blocks(view, first: int, h: int, out: np.ndarray) -> None:
    """Row i of out (zeroed) gets view[(first+i)H : (first+i+1)H], zeros
    outside view."""
    count = len(out)
    lo = first * h
    a, b = max(lo, 0), min(lo + count * h, len(view))
    if b > a:
        flat = np.zeros(count * h, dtype=out.dtype)
        flat[a - lo : b - lo] = view[a:b]
        out[:, :h] = flat.reshape(count, h)


def _triangles(x: np.ndarray, y: np.ndarray, c, sign) -> np.ndarray:
    """out[i, p + q] = sum_{p<q} (c_i + sign_i (p - q)) x[i, p] y[i, q].

    c and sign hold one value per row, shaped (rows, 1, 1).

    Recursive halving: a triangle of 2m terms is the full square p < m <= q
    plus two triangles of m terms.  The squares of one level are batched
    into one set of transforms (`_weighted_squares`); triangles of at most
    _LEAF terms are summed directly.  Exact (int64) rows round each level to
    int64, which the caller's digit bound makes exact.
    """
    rows, size = x.shape
    exact = x.dtype == np.int64
    out = np.zeros((rows, 2 * size), dtype=x.dtype)
    span = size
    while span > _LEAF:
        m = span // 2
        nodes = size // span
        u = x.reshape(rows, nodes, 2, m)[:, :, 0]
        v = y.reshape(rows, nodes, 2, m)[:, :, 1]
        # p - q = (p' - q') - m for p = p', q = m + q' inside a node
        z = _weighted_squares(u, v, c - sign * m, sign)
        dst = out.reshape(rows, nodes, 2 * span)[:, :, m : 3 * m]
        dst += np.rint(z, out=z).astype(np.int64) if exact else z
        span = m
    leaves = rows * (size // span)
    xv, yv = x.reshape(leaves, span), y.reshape(leaves, span)
    ov = out.reshape(leaves, 2 * span)
    weights = (c - sign * np.arange(span)).reshape(rows, span)
    weights = np.repeat(weights, size // span, axis=0)
    for d in range(1, span):  # q = p + d
        prod = xv[:, : span - d] * yv[:, d:]
        prod *= weights[:, d : d + 1]
        ov[:, d : 2 * span - d : 2] += prod
    return out


def _weighted_squares(u, v, c, sign) -> np.ndarray:
    """z[..., r] = sum_{p+q=r} (c + sign (p - q)) u[..., p] v[..., q], p, q < m.

    Four forward transforms (of u, p u, v, q v) and one inverse of
    c U V + sign (PU V - U QV), with length 2m along the last axis; real
    inputs use real transforms.
    """
    m = u.shape[-1]
    n = 2 * m
    real = not (np.iscomplexobj(u) or np.iscomplexobj(v))
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    ramp = np.arange(m, dtype=np.float64)
    # c U V + sign (PU V - U QV) = U (c V - sign QV) + sign PU V, with three
    # spectra alive at a time
    fv = fwd(v, n)
    z = fwd(v * ramp, n)
    z *= -sign
    z += c * fv
    z *= fwd(u, n)
    fpu = fwd(u * ramp, n)
    fpu *= fv
    del fv
    fpu *= sign
    z += fpu
    return inv(z, n)


def _float_error(f1, f2, f3, band, h: int, levels: list[float]) -> float:
    """Bound on |S - computed S| for float and complex families.

    Per parity, each r lies in one row of each of the four kinds of
    `_fejer_band`, so in 8 rows, each with one square per level within
    D1 D3 _square_error.  Leaf sums and the additions of levels, rows and
    the diagonal add at most gamma(_LEAF + levels + 24) times
    sum |terms| <= H^2 D1 D3, and the final dot gamma(2 len(f2)) sum |f2 K|.
    """
    d13 = float(np.abs(f1).max(initial=0)) * float(np.abs(f3).max(initial=0))
    per_r = d13 * (8 * sum(levels) + gamma(_LEAF + len(levels) + 24) * h * h)
    a2 = np.abs(as_float(f2))
    dot = float(np.dot(a2, np.abs(band)))
    return (float(a2.sum()) * per_r + gamma(2 * len(f2)) * dot) / h


def fejer_overlap_weight(h: int, h_span: int) -> int:
    """Overlap length 2H - 2|h| of three length-2H windows shifted by h, 2h."""
    if abs(h) > h_span:
        raise DomainError(f"|h| = {abs(h)} exceeds H = {h_span}")
    return 2 * h_span - 2 * abs(h)


@dataclass(frozen=True)
class TripleCountResult:
    c: float
    count: int
    normalized: float


def count_triples(
    window: CoefficientWindow, x_start: int, h_span: int, c: float
) -> TripleCountResult:
    """#{(n, h) in [X, 2X] x [-H, H] : |f(n) f(n+h) f(n+2h)| >= c}."""
    x, h = x_start, h_span
    if x - 2 * h < 1:
        raise DomainError(f"shifted range X - 2H must stay positive (X={x}, H={h})")
    if not window.covers(x - 2 * h, 2 * x + 2 * h):
        raise DomainError(
            f"window [{window.lo},{window.hi}] does not cover "
            f"[{x - 2 * h},{2 * x + 2 * h}]"
        )
    absvals = np.abs(as_float(window.values))  # int64 triple products can wrap
    base = absvals[x - window.lo : 2 * x - window.lo + 1]
    count = 0
    for hh in range(-h, h + 1):
        a2 = absvals[x + hh - window.lo : 2 * x + hh - window.lo + 1]
        a3 = absvals[x + 2 * hh - window.lo : 2 * x + 2 * hh - window.lo + 1]
        count += int(np.count_nonzero(base * a2 * a3 >= c))
    return TripleCountResult(
        c=c, count=count, normalized=count / (x_start * (2 * h_span + 1))
    )
