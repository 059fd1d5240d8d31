"""Averaged ternary correlations of coefficient windows.

The central quantity is

    S(X, H) = sum_{|h| <= H} (1 - |h|/H) sum_{X <= n <= 2X} f1(n) f2(n+h) f3(n+2h),

with the triangular weight realised exactly: H * S is accumulated as
sum_h (H - |h|) T_h, which is an integer for integer-valued families, so the
two routes can be compared bit for bit.  Shifted arguments run outside
[X, 2X]; windows are padded by 2H on both sides.

`ternary_direct` is the reference: the definition, O(X H), summed in
cache-sized tiles of lags by terms of n.  For mixed triples and float
families that is every term.  For an exact family with f1 = f3 (checked by
value on [X - 2H, 2X + 2H]) the lags -h fold onto +h where that costs
less: T_(-h) = T_h + L_h - U_h, with two strips of 2h terms
(`_folded_parts`), so lags 0..H and the strips do about 1/2 + H/X of the
work.  `ternary_convolution` is a different algorithm.  It writes H * S as
sum_r f2(r) K(r), where K is a convolution of f1 and f3 restricted to the
band |k - n| < 2H with the Fejer weight H - |k - n|/2.  Split by the
parity of n and cut into blocks of H terms, the band leaves a diagonal and
strict triangles of neighbouring blocks, on which the weight is linear;
a triangle that another one equals is computed once.  Each triangle is
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
among them (`_in_order`): direct its tiles of n, the band its runs of
`_triangles` rows.  The pieces are fixed by the request, and their
results are added in the order one thread adds them, so every sum, float
or exact, has the same bits for every thread count.
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
    folded: bool | None = None  # direct: whether lags -h were folded onto +h
    twin_rows: int | None = None  # conv: rows computed once for two kinds

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
    weighted lag sums as Python ints; `folded` says whether a symmetric
    triple summed lags 0..H and two strips in place of lags -H..H (see
    `_folded_parts`).  Float and complex families run the tiles in float64
    or complex128 and take a Kahan-compensated sum over lags; h_order
    ("forward" | "reverse") only orders that sum, so reproducibility under
    reordering can be measured.  Exact results do not depend on it.
    threads workers share the tiles of n; no result depends on their
    number.
    """
    t0 = time.perf_counter()
    w1, w2, w3 = windows or correlation_windows(req, cache)
    x, h = req.x_start, req.h_span
    f1 = w1.segment(x, 2 * x)
    f2 = w2.segment(x - h, 2 * x + h)
    f3 = w3.segment(x - 2 * h, 2 * x + 2 * h)

    numerator = digits = None
    folded = False
    if _use_exact(req):
        limit = min((1 << 53) // _TILE_TERMS, INT64_MAX // (x + 1))
        lo, hi = x - 2 * h, 2 * x + 2 * h
        share = None  # of a whole pass, for a folded one: lags 0 .. H and two strips
        if w1.covers(lo, hi) and np.array_equal(w1.segment(lo, hi), f3):
            share = (h + 1) * (x + 1 + 2 * h) / ((x + 1) * (2 * h + 1))
        bits, folded = _direct_digit_bits(max_abs(f1), max_abs(f2), max_abs(f3),
                                          limit, share)
        (_, d2), (_, d3) = split_digits(f2, bits[1]), split_digits(f3, bits[2])
        # Folded, f1 takes F's digits on [X - 2H, 2X + 2H] (`_folded_parts`
        # slices [X, 2X]), so each digit triple has its mirror.
        d1 = d3 if folded else split_digits(f1, bits[0])[1]
        digits = (len(d1), len(d2), len(d3))
        u1 = np.stack([d for _, d in d1], axis=1).astype(np.float64)
        if folded:  # H T_0 + sum_{h=1}^{H} (H - h) (2 T_h + L_h - U_h)
            tri = np.arange(h, -1, -1).astype(object)  # H - h for h = 0 .. H
            weights = (np.concatenate(([h], 2 * tri[1:])), tri, -tri)
        else:
            weights = (np.array([h - abs(hh) for hh in range(-h, h + 1)], dtype=object),)
        numerator = 0
        for (s2, u2), (s3, u3) in product(d2, d3):
            u2, u3 = (np.ascontiguousarray(u, dtype=np.float64) for u in (u2, u3))
            parts = _folded_parts(u1, u2, u3, x, h) if folded else [(u1, u2, u3, 0)]
            for w, sums in zip(weights, _lag_sums(parts, np.int64, threads)):
                for (s1, _), t in zip(d1, sums.T):
                    numerator += int(np.dot(w, t.astype(object))) << (s1 + s2 + s3)
        value = numerator / h
    else:
        # Float tiles for every family: int64 products of a mixed request
        # can wrap (divisor40 values pass 2^44 at X = 8192).
        dtype = np.result_type(f1, f2, f3, np.float64)
        parts = [(f1.astype(dtype)[:, None], f2.astype(dtype), f3.astype(dtype), 0)]
        sums = _lag_sums(parts, dtype, threads)[0][:, 0]
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
        digits=digits, folded=folded,
    )


def _direct_digit_bits(m1: int, m2: int, m3: int, limit: int,
                       share: float | None = None) -> tuple[tuple[int, int, int], bool]:
    """(digit widths for f1, f2, f3, fold) on the direct route, max |f_i| = m_i.

    Every digit triple bound D1 D2 D3 stays within limit.  Each digit pair
    of f2 and f3 is one pass of `_lag_sums`, and the digits of f1 are the
    columns of its matmul, each about 1/_PASS_COLUMNS of a pass, so the
    widths give the least passes * (_PASS_COLUMNS + digits of f1), then
    the fewest passes.  A symmetric triple may fold (`_folded_parts`): f1
    then takes the width of f3 (m1 = m3), and a pass costs share of an
    unfolded one.  It folds where that costs less.
    """
    best = None
    d1s = [digit_shape(m1, b)[0] for b in range(1, m1.bit_length() + 1)]  # sorted
    widths = (range(1, m.bit_length() + 1) for m in (m2, m3))
    for b2, b3 in product(*widths):
        (d2, n2), (d3, n3) = digit_shape(m2, b2), digit_shape(m3, b3)
        passes = n2 * n3
        b1 = bisect_right(d1s, limit // (d2 * d3))  # widest f1 digits that fit, or 0
        options = [(b1, digit_shape(m1, b1)[1] if b1 else 0, 1.0, False)]
        if share is not None and d2 * d3 * d3 <= limit:
            options.append((b3, n3, share, True))
        for b1, n1, scale, fold in options:
            cost = (passes * (_PASS_COLUMNS + n1) * scale, passes, fold)
            if b1 and (best is None or cost < best[0]):
                best = cost, ((b1, b2, b3), fold)
    return best[1]


def _folded_parts(fm, u2, u3, x: int, h: int) -> list[tuple]:
    """The `_lag_sums` parts of one folded pass: T_h, L_h and U_h for h = 0 .. H.

    With F = f1 = f3 and g_h(m) = F(m) f2(m + h) F(m + 2h), the lag -h sums
    g_h over [X - 2h, 2X - 2h], so T_(-h) = T_h + L_h - U_h with
    L_h = sum_{m=X-2h}^{X-1} g_h(m) and U_h = sum_{m=2X-2h+1}^{2X} g_h(m).
    fm holds the digits of F on [X - 2H, 2X + 2H] as columns; u2 and u3 are
    one digit of f2 and of F.  A strip of 2H terms m = m0 + i takes f2 from
    u2 at m0 - X + H and F from u3 at m0 - X + 2H, with F(m + 2h) set to 0
    below i + 2h = 2H, which leaves lag h its last 2h terms (lead = 2H).
    """
    zeros = np.zeros(2 * h)
    low = (fm[: 2 * h], np.concatenate((zeros[:h], u2[: 2 * h])),
           np.concatenate((zeros, u3[2 * h : 4 * h])), 2 * h)
    top = (fm[x + 1 : x + 1 + 2 * h], u2[x + 1 - h :],
           np.concatenate((zeros, u3[x + 1 + 2 * h :])), 2 * h)
    return [(fm[2 * h : 2 * h + x + 1], u2[h:], u3[2 * h :], 0), low, top]


def _lag_sums(parts, dtype, threads: int = 1) -> list[np.ndarray]:
    """T[j, c] = sum_n u1[n, c] u2[n + j] u3[n + 2j] for each (u1, u2, u3, lead).

    u1 is (N, k), the digits of f1 side by side (k = 1 for float
    families); u2 and u3 hold N + J - 1 and N + 2J - 2 terms for J lags,
    all three float64 or all three complex128, and u3 is zero below index
    lead.  The sum runs in tiles of _LAG_BLOCK lags by _TILE_TERMS terms of
    n: a tile of u2 u3 is formed from two strided views of the windows into
    one buffer and contracted against the matching rows of u1 with one
    matmul, so the windows pass through the cache once per tile of n
    instead of once per lag.  A lag block j0 .. j1 - 1 starts at n =
    lead - 2 (j1 - 1), since every earlier term is zero: a strip with lead
    forms only its triangle and the leading 2 (j1 - j0 - 1) columns of each
    lag block.  A strip of N < _TILE_TERMS terms takes lag blocks
    _TILE_TERMS // N times as tall, packed into the same buffer, so that it
    makes as few calls as a tile's area allows.

    Each tile of n of each part is one piece of `_in_order`, parts in turn:
    a worker forms all its lags in a buffer and a partial-sum array of its
    own, and the partials add up per lag in tile order, in dtype: int64 for
    exact digits, where _TILE_TERMS * D1 D2 D3 <= 2^53 makes every partial
    sum of a tile, in any order, an integer that float64 holds, and
    N D1 D2 D3 < 2^63 keeps every lag sum within int64; else the tile
    dtype.  When the first part is one tile, everything runs on the calling
    thread.
    """
    views, pieces = [], []
    for p, (u1, u2, u3, lead) in enumerate(parts):
        n = len(u1)
        v2 = sliding_window_view(u2, n)  # v2[j, i] = u2[j + i]
        v3 = sliding_window_view(u3, n)[::2]  # v3[j, i] = u3[2j + i]
        block = _LAG_BLOCK * (max(1, _TILE_TERMS // n) if lead else 1)
        sums = np.zeros((len(v2), u1.shape[1]), dtype=dtype)
        views.append((u1, v2, v3, lead, block, sums))
        pieces += [(p, i0) for i0 in range(0, n, _TILE_TERMS)]
    lags = max(len(v[1]) for v in views)
    k, tile_dtype = parts[0][0].shape[1], parts[0][0].dtype

    def worker():
        buf = _cache_aligned((_LAG_BLOCK, _TILE_TERMS), tile_dtype)
        flat = buf.reshape(-1)
        part = np.empty((lags, k), dtype=tile_dtype)

        def tile(piece) -> Callable[[], None]:
            p, i0 = piece
            u1, v2, v3, lead, block, sums = views[p]
            i1 = min(i0 + _TILE_TERMS, len(u1))
            first = max(0, (lead - i1) // 2 + 1)  # lags with a term below i1
            for j0 in range(first, len(sums), block):
                j1 = min(j0 + block, len(sums))
                a = max(i0, lead - 2 * (j1 - 1))
                rows, cols = j1 - j0, i1 - a
                # a strip's block, rows * cols <= buf.size, packs its rows
                out = flat[: rows * cols].reshape(rows, cols) if lead else buf[:rows, :cols]
                prod = np.multiply(v2[j0:j1, a:i1], v3[j0:j1, a:i1], out=out)
                np.matmul(prod, u1[a:i1], out=part[j0:j1])
            done, new = sums[first:], part[first : len(sums)]
            return lambda: np.add(done, new.astype(dtype, copy=False), out=done)

        return tile

    one_tile = len(parts[0][0]) <= _TILE_TERMS
    _in_order(pieces, 1 if one_tile else threads, worker)
    return [v[-1] for v in views]


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

    The price is lockstep: a worker that has finished its item waits until
    every earlier item is added, however cheap the items queued between
    two heavy ones, and sits idle meanwhile.  So work known to be empty is
    left out of items, not passed as items that do nothing.
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
        numerator = twin_rows = 0
        for (s1, u1), (s3, u3) in product(d1, d3):
            band, twins = _fejer_band(u1, u3, h, np.int64, threads)
            twin_rows += twins
            bound = b2 * max_abs(band)  # |K| <= H^2 b1 b3: int64-safe
            for s2, u2 in d2:
                numerator += exact_sum(u2 * band, bound) << (s1 + s2 + s3)
        value = numerator / h
        error_bound = b1 * b3 * fmax
    else:
        band, twin_rows = _fejer_band(f1, f3, h, np.result_type(f1, f3, np.float64),
                                      threads)
        value = complex(np.dot(f2, band)) / h
        if all(s.is_real for s in (req.spec1, req.spec2, req.spec3)):
            value = value.real
        error_bound = _float_error(f1, f2, f3, band, h, levels)
    elapsed = time.perf_counter() - t0
    return CorrelationResult(
        value, Method.CONVOLUTION, x, h, timing=elapsed,
        exact_numerator=numerator, error_bound=error_bound, digits=digits,
        twin_rows=twin_rows,
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
                threads: int = 1) -> tuple[np.ndarray, int]:
    """K(r) for r in [X - H, 2X + H], from f1 on [X, 2X] and f3 on [X - 2H, 2X + 2H].

    n and k = n + 2j share parity; with n = X + 2a + e and k = X + 2b + e
    (e = 0, 1), K(X + e + s) gains sum_{a+b=s, |b-a|<H} (H - |b-a|) g(a) y(b)
    for g = f1[e::2] and y(b) = f3[e::2][b + H].  With blocks of H terms,
    a pair (a, b) lies in one block or in neighbouring ones: the diagonal
    b = a is one vector product, and b > a and b < a are strict triangles,
    `_triangles` rows of four kinds, for blocks j = -1 .. ceil(len(g)/H)-1:
      0, 1: (g_j, y_j) and (y_j, g_j): same block, weight H - (q - p);
      2, 3: (y_(j+1), g_j) and (g_(j+1), y_j): next block, weight q - p.
    The rows are listed in batches of max(1, _GROUP_TERMS / 4 / P) blocks
    (P: H padded to a power of two), kind by kind within a batch, and
    added into K in that order.  Rows with an all-zero block, such as kinds
    0-2 at j = -1, are zero and left out (`_band_rows`).  So is a twin
    row: kind 1 equals kind 0 where block g_j equals block y_j, and kind 3
    equals kind 2 where blocks j and j + 1 both agree, as they do inside
    g when f1 = f3.  The row of kind 0 or 2 is computed once and added
    into K once for each kind it stands for, where the two kinds' rows
    would be added: no row between them reaches the same r, so K keeps its
    bits.  The twin count is returned with K.

    The diagonals, and runs of at most _GROUP_TERMS / P listed rows (at
    least one), are the pieces of `_in_order`: each run is one `_triangles`
    call, which bounds its transform buffers, so the workers hold at most
    `threads` runs at a time and add them into K in the order of one
    thread.  A band with at most one run per parity (every request with
    X <= 2000) runs on the calling thread.
    """
    size = 1 << (h - 1).bit_length()
    n2 = len(f1) + 2 * h
    acc = np.zeros(n2 + 3 * h, dtype=dtype)  # index r - (X - 2H)
    per_call = max(1, _GROUP_TERMS // size)  # rows per `_triangles` call
    pieces, twins = [], 0
    for e in (0, 1):
        rows = _band_rows(f1[e::2], f3[e::2], h, max(1, per_call // 4))
        twins += int(np.count_nonzero(rows[2] == 2))
        pieces.append((e, None))
        pieces += [(e, [r[i : i + per_call] for r in rows])
                   for i in range(0, len(rows[0]), per_call)]

    def piece(where) -> Callable[[], None]:
        e, rows = where
        g, y = f1[e::2], f3[e::2]
        base = e + 2 * h  # acc index of s = 0
        if rows is None:
            diag = h * np.multiply(g, y[h : h + len(g)], dtype=dtype)
            dst = acc[base : base + 2 * len(g) : 2]
            return lambda: np.add(dst, diag, out=dst)
        kind, j, times = rows
        lo = int(j.min())
        count = int(j.max()) + 2 - lo  # blocks lo .. max(j) + 1
        blocks = np.zeros((2 * count, size), dtype=dtype)  # g_j, then y_j
        blocks[:count, :h] = _blocks(g, lo, count, h)
        blocks[count:, :h] = _blocks(y, lo + 1, count, h)  # y_j = y[(j + 1) H ..]
        gi = j - lo
        yi = gi + count
        # kind 0..3: x = g_j, y_j, y_(j+1), g_(j+1) and y = y_j, g_j, g_j, y_j
        xb = blocks[np.choose(kind, (gi, yi, yi + 1, gi + 1))]
        yb = blocks[np.choose(kind, (yi, gi, gi, yi))]
        near = kind < 2
        c = np.where(near, h, 0)[:, None, None]
        sign = np.where(near, 1, -1)[:, None, None]
        out = _triangles(xb, yb, c, sign)[:, : 2 * h]
        # Row (kind, j) lands at acc[start : start + 2H], start = base +
        # (2j + kind // 2) H (p + q <= 2H - 2, so the rest of the row is
        # zero).  Rows of one kind never meet, so each run of one kind is
        # added at once, and its twin rows a second time.
        cuts = [0, *(np.flatnonzero(np.diff(kind)) + 1), len(kind)]
        runs = []
        for a, b in zip(cuts, cuts[1:]):
            at = j[a:b] - j[a]
            start = base + (2 * j[a] + kind[a] // 2) * h
            dst = acc[start : start + 2 * h * (at[-1] + 1)].reshape(-1, 2 * h)
            twice = times[a:b] == 2
            runs.append((dst, at, out[a:b], at[twice], out[a:b][twice]))

        def add():
            for dst, at, part, at2, part2 in runs:
                dst[at] += part
                dst[at2] += part2

        return add

    _in_order(pieces, threads if len(pieces) > 4 else 1, lambda: piece)
    return acc[h : h + n2], twins


def _band_rows(g: np.ndarray, y: np.ndarray, h: int, step: int):
    """(kind, j, times) of the `_triangles` rows of one parity, in the order
    they are added: batches of step blocks, kind by kind, block by block.

    Rows with an all-zero block are left out, and so is kind 1 (3) where it
    is the twin of kind 0 (2) (see `_fejer_band`); the row it twins then
    has times = 2.  Blocks are compared by value, in one pass over g and y.
    """
    nblocks = -(-len(g) // h)
    gb = _blocks(g, -1, nblocks + 2, h)  # g_j for j = -1 .. nblocks
    yb = _blocks(y, 0, nblocks + 2, h)  # y_j for j = -1 .. nblocks
    gl, yl = gb.any(axis=1), yb.any(axis=1)
    same = (gb == yb).all(axis=1)
    del gb, yb
    # times[kind, j + 1] for j = -1 .. nblocks - 1: how often the row is
    # added, 0 for a zero row or a twin left out
    near, far = gl[:-1] & yl[:-1], yl[1:] & gl[:-1]  # kinds 0, 1 and kind 2 live
    one, two = same[:-1], same[:-1] & same[1:]  # kind 1 and kind 3 are twins
    nbatch = -(-(nblocks + 1) // step)
    grid = np.zeros((4, nbatch * step), dtype=np.int64)
    times = grid[:, : nblocks + 1]
    times[0], times[1] = near, near & ~one
    times[2], times[3] = far, gl[1:] & yl[:-1] & ~two
    times[0] += near & one  # a twin row is added twice
    times[2] += far & two
    grid = grid.reshape(4, nbatch, step).transpose(1, 0, 2)  # batch, kind, block
    batch, kind, i = np.nonzero(grid)
    return kind, batch * step + i - 1, grid[batch, kind, i]


def _blocks(view, first: int, count: int, h: int) -> np.ndarray:
    """(count, H): row i holds view[(first + i) H : (first + i + 1) H], zeros
    outside view."""
    out = np.zeros(count * h, dtype=view.dtype)
    lo = first * h
    a, b = max(lo, 0), min(lo + count * h, len(view))
    if b > a:
        out[a - lo : b - lo] = view[a:b]
    return out.reshape(count, h)


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
