"""Averaged ternary correlations of coefficient windows.

The central quantity is

    S(X, H) = sum_{|h| <= H} (1 - |h|/H) sum_{X <= n <= 2X} f1(n) f2(n+h) f3(n+2h),

with the triangular weight realised exactly: H * S is accumulated as
sum_h (H - |h|) T_h, which is an integer for integer-valued families, so the
direct and convolution evaluations can be compared bit for bit.  Shifted
arguments run outside [X, 2X]; windows are padded by 2H on both sides.

Exact families take one int64 path on both routes (`_digits`, `_exact_dot`,
`_lag_blocks`), whose stated bounds keep every int64 sum below 2^63.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

import numpy as np

from .dirichlet import SingularSeries
from .errors import DomainError
from .multfunc import CoefficientWindow, MultSpec, WindowCache, as_float

_INT64_MAX = (1 << 63) - 1
_DIGIT_BITS = 17  # (2^17 + 1)^3 < 2^52: dot chunks of at least 4095 elements


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
        if self.h_span > self.x_start:
            raise DomainError("H must not exceed X")
        if self.x_start - 2 * self.h_span < 1:
            raise DomainError(
                "shifted window X - 2H must stay positive; "
                f"got X={self.x_start}, H={self.h_span}"
            )

    @property
    def symmetric(self) -> bool:
        return self.spec1 == self.spec2 == self.spec3


@dataclass(frozen=True)
class CorrelationResult:
    value: complex
    method: Method
    x_start: int
    h_span: int
    request: CorrelationRequest | None = None
    main_term: float | None = None
    relative_gap: float | None = None
    timing: float = 0.0
    exact_numerator: int | None = None  # H * S as an exact integer

    @property
    def exact_value(self) -> Fraction | None:
        if self.exact_numerator is None:
            return None
        return Fraction(self.exact_numerator, self.h_span)


def correlation_windows(
    req: CorrelationRequest, cache: WindowCache | None = None
) -> tuple[CoefficientWindow, CoefficientWindow, CoefficientWindow]:
    """The three padded windows needed by either evaluation method."""
    x, h = req.x_start, req.h_span
    cache = cache or WindowCache()
    w1 = cache.window(req.spec1, 1, x, 2 * x)
    w2 = cache.window(req.spec2, 1, x - h, 2 * x + h)
    w3 = cache.window(req.spec3, 1, x - 2 * h, 2 * x + 2 * h)
    return w1, w2, w3


def _use_exact(req: CorrelationRequest) -> bool:
    return req.spec1.is_exact and req.spec2.is_exact and req.spec3.is_exact


def _digits(a: np.ndarray) -> tuple[int, list[tuple[int, np.ndarray]]]:
    """(D, [(s_k, d_k)]) with a = sum_k d_k << s_k and every |d_k| <= D.

    D = max|a| if that is at most 2^17 (one digit); else the low digits are
    the 17-bit fields of a, in [0, 2^17), and the top digit a >> s has
    magnitude at most (max|a| >> s) + 1, so D = 2^17 + 1.  Three digits
    always multiply to less than 2^52, for any int64 input.
    """
    m = max(int(a.max(initial=0)), -int(a.min(initial=0)), 1)
    out, s = [], 0
    while m >> s > 1 << _DIGIT_BITS:
        out.append((s, (a >> s) & ((1 << _DIGIT_BITS) - 1)))
        s += _DIGIT_BITS
    return min(m, (1 << _DIGIT_BITS) + 1), out + [(s, a >> s if s else a)]


def _exact_dot(u: np.ndarray, v: np.ndarray, bound: int) -> int:
    """sum(u * v) of int64 arrays with every |u_i v_i| <= bound < 2^63, exactly.

    Each np.dot covers at most (2^63 - 1) // bound elements, so all its
    partial sums, in any order, stay within int64 at any array length; the
    chunk results are added as Python ints.
    """
    step = _INT64_MAX // bound
    chunks = range(0, len(u), step)
    return sum(int(np.dot(u[i : i + step], v[i : i + step])) for i in chunks)


def _lag_blocks(h: int, cap: int) -> list[tuple[range, int]]:
    """The lags |j| < H grouped as (lags, scale) blocks for int64 sums.

    Lag j has int64 weight (H - |j|) // scale; a block's total is multiplied
    by scale.  Runs of cap // H lags have scale 1 and weights summing to at
    most cap; if cap < H each lag is alone, with scale H - |j| and weight 1.
    """
    lags = range(1 - h, h)
    k = cap // h
    if k:
        return [(lags[i : i + k], 1) for i in range(0, len(lags), k)]
    return [(lags[i : i + 1], h - abs(j)) for i, j in enumerate(lags)]


def ternary_direct(
    req: CorrelationRequest,
    windows: tuple[CoefficientWindow, ...] | None = None,
    cache: WindowCache | None = None,
    h_order: str = "forward",
) -> CorrelationResult:
    """S(X, H) by the h-loop: one vector triple product per shift.

    h_order ("forward" | "reverse") only permutes the outer accumulation and
    exists so reproducibility under reordering can be measured.
    """
    t0 = time.perf_counter()
    w1, w2, w3 = windows or correlation_windows(req, cache)
    x, h = req.x_start, req.h_span
    hs = range(-h, h + 1) if h_order == "forward" else range(h, -h - 1, -1)

    numerator = None
    if _use_exact(req):
        # Each digit triple multiplies below bound < 2^52; T_h is exact per
        # lag and the weighted sum over lags is a Python int.
        b1, d1 = _digits(w1.segment(x, 2 * x))
        b2, d2 = _digits(w2.segment(x - h, 2 * x + h))
        b3, d3 = _digits(w3.segment(x - 2 * h, 2 * x + 2 * h))
        bound = b1 * b2 * b3
        combos = [
            (s1 + s2 + s3, u1, u2, u3)
            for (s1, u1), (s2, u2), (s3, u3) in product(d1, d2, d3)
        ]
        numerator = 0
        for hh in hs:
            i2, i3 = h + hh, 2 * (h + hh)
            t_h = sum(
                _exact_dot(u1 * u2[i2 : i2 + x + 1], u3[i3 : i3 + x + 1], bound) << s
                for s, u1, u2, u3 in combos
            )
            numerator += (h - abs(hh)) * t_h
        value = numerator / h
    else:
        # A float a1 makes every product float: int64 products of a mixed
        # request can wrap (divisor40 values pass 2^44 at X = 8192).
        a1 = as_float(w1.segment(x, 2 * x))
        total = 0.0 + 0.0j
        comp = 0.0 + 0.0j  # Kahan carry over the mixed-sign h-accumulation
        for hh in hs:
            a2 = w2.segment(x + hh, 2 * x + hh)
            a3 = w3.segment(x + 2 * hh, 2 * x + 2 * hh)
            term = (h - abs(hh)) * complex(np.dot(a1 * a2, a3))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        value = total / h
        if req.spec1.is_real and req.spec2.is_real and req.spec3.is_real:
            value = value.real
    elapsed = time.perf_counter() - t0
    return CorrelationResult(
        value, Method.DIRECT, x, h, req, timing=elapsed, exact_numerator=numerator
    )


def ternary_convolution(
    req: CorrelationRequest,
    windows: tuple[CoefficientWindow, ...] | None = None,
    cache: WindowCache | None = None,
) -> CorrelationResult:
    """S(X, H) via the diagonal-pair contraction.

    With r = n + h the sum becomes sum_r f2(r) K(r) where
    K(r) = sum_{|j| <= H} (H - |j|) f1(r - j) f3(r + j) and f1 is cut to
    [X, 2X]: a banded convolution along the antidiagonals n + m = 2r,
    accumulated lag by lag with full-window vector operations, then
    contracted against the middle window.  Odd n + m never appears since
    n and m = n + 2h share parity.
    """
    t0 = time.perf_counter()
    w1, w2, w3 = windows or correlation_windows(req, cache)
    x, h = req.x_start, req.h_span
    r_lo, r_hi = x - h, 2 * x + h
    nr = r_hi - r_lo + 1
    exact = _use_exact(req)
    complex_case = not all(s.is_real for s in (req.spec1, req.spec2, req.spec3))
    dtype = np.int64 if exact else np.complex128 if complex_case else np.float64
    f1 = np.zeros(nr + 2 * h, dtype=dtype)  # indexed by r - j over padding
    off = x - (r_lo - h)
    f1[off : off + x + 1] = w1.segment(x, 2 * x)
    f2 = w2.segment(r_lo, r_hi).astype(dtype, copy=False)
    f3 = w3.segment(r_lo - h, r_hi + h).astype(dtype, copy=False)

    numerator = None
    if exact:
        (b1, d1), (b2, d2), (b3, d3) = _digits(f1), _digits(f2), _digits(f3)
        bound = b1 * b2 * b3
        # A block of weight sum W has W * bound * nr <= 2^63 - 1: its K(r)
        # stays within int64 and one np.dot contracts it against f2.
        blocks = _lag_blocks(h, _INT64_MAX // (bound * nr))
        numerator = 0
        for (s1, u1), (s3, u3) in product(d1, d3):
            for lags, scale in blocks:
                acc = np.zeros(nr, dtype=np.int64)
                for j in lags:
                    w = (h - abs(j)) // scale
                    # r - j and r + j as slices of the padded arrays
                    acc += w * (u1[h - j : h - j + nr] * u3[h + j : h + j + nr])
                weight = sum((h - abs(j)) // scale for j in lags)
                for s2, u2 in d2:
                    dot = _exact_dot(u2, acc, weight * bound)
                    numerator += (scale * dot) << (s1 + s2 + s3)
        value = numerator / h
    else:
        acc = np.zeros(nr, dtype=dtype)
        for j in range(-h, h + 1):
            acc += (h - abs(j)) * (f1[h - j : h - j + nr] * f3[h + j : h + j + nr])
        value = complex(np.dot(f2, acc)) / h
        if not complex_case:
            value = value.real
    elapsed = time.perf_counter() - t0
    return CorrelationResult(
        value, Method.CONVOLUTION, x, h, req, timing=elapsed, exact_numerator=numerator
    )


def fejer_overlap_weight(h: int, h_span: int) -> int:
    """Overlap length 2H - 2|h| of three length-2H windows shifted by h, 2h."""
    if abs(h) > h_span:
        raise DomainError(f"|h| = {abs(h)} exceeds H = {h_span}")
    return 2 * h_span - 2 * abs(h)


def compare_to_main_term(
    result: CorrelationResult,
    series: SingularSeries,
    x_start: int,
    h_span: int,
    epsilon: float = 0.05,
) -> CorrelationResult:
    """Attach the singular-series main term X*H*sum phi(q) C_q^3.

    For pole-free specs the main term is zero by construction and the gap
    reported is the smallness ratio |S| / (X * H^(1 - epsilon)).
    """
    req = result.request
    if req is None or not req.symmetric:
        raise DomainError("main-term comparison requires spec1 = spec2 = spec3")
    if req.spec1.spec_id != series.spec_id:
        raise DomainError(
            f"series computed for {series.spec_id!r}, result uses {req.spec1.spec_id!r}"
        )
    if not req.spec1.has_pole:
        gap = abs(result.value) / (x_start * h_span ** (1.0 - epsilon))
        return replace(result, main_term=0.0, relative_gap=gap)
    main = x_start * h_span * series.series_value
    gap = abs(result.value - main) / max(abs(main), 1.0)
    return replace(result, main_term=main, relative_gap=gap)


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
