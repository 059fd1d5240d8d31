"""Ternary correlations: exact identities, brute-force oracle, counting."""

import cmath
import math
import operator
import random
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terncorr import correlate
from terncorr.correlate import (
    CorrelationRequest,
    Method,
    _DIGIT_BITS,
    _TILE_TERMS,
    _band_digit_bits,
    _PASS_COLUMNS,
    _cache_aligned,
    _direct_digit_bits,
    _level_errors,
    _square_error,
    _weighted_squares,
    correlation_windows,
    count_triples,
    fejer_overlap_weight,
    ternary_convolution,
    ternary_direct,
)
from terncorr import harness
from terncorr.dirichlet import main_term_gap, singular_series_sum
from terncorr.errors import BudgetError, DomainError
from terncorr.rounding import INT64_MAX, digit_shape, max_abs, split_digits
from terncorr.multfunc import (
    CoefficientWindow,
    MultSpec,
    WindowCache,
    eval_at,
    sieve_window,
)

ONE = MultSpec.divisor_k(1)
CACHE = WindowCache(max_items=128)


def brute_correlation(s1, s2, s3, x, h):
    """Triple loop over eval_at, the independent oracle at toy sizes."""
    total = Fraction(0)
    for hh in range(-h, h + 1):
        w = Fraction(h - abs(hh), h)
        for n in range(x, 2 * x + 1):
            total += w * Fraction(
                eval_at(s1, n) * eval_at(s2, n + hh) * eval_at(s3, n + 2 * hh)
            )
    return total


# ---------------------------------------------------------------------------
# Spec examples


def test_constant_function_value():
    req = CorrelationRequest(ONE, ONE, ONE, 100, 10)
    res = ternary_direct(req, cache=CACHE)
    assert res.exact_value == 1010
    assert res.method is Method.DIRECT
    conv = ternary_convolution(req, cache=CACHE)
    assert conv.exact_value == 1010
    assert conv.method is Method.CONVOLUTION


def test_zero_middle_factor():
    primes = [p for p in range(2, 300) if all(p % d for d in range(2, p))]
    zero = MultSpec.user_euler(
        {(p, e): 0.0 for p in primes for e in range(1, 10)}, k_bound=1
    )
    req = CorrelationRequest(ONE, zero, ONE, 100, 10)
    res = ternary_direct(req, cache=WindowCache())
    assert res.value == 0


def test_degenerate_h_is_diagonal_sum():
    d2 = MultSpec.divisor_k(2)
    req = CorrelationRequest(d2, d2, d2, 50, 1)
    res = ternary_direct(req, cache=CACHE)
    win = sieve_window(d2, 50, 100)
    assert res.exact_value == int((win.values.astype(object) ** 3).sum())


def test_toy_case_against_brute_force():
    d2 = MultSpec.divisor_k(2)
    req = CorrelationRequest(d2, d2, d2, 10, 2)
    expect = brute_correlation(d2, d2, d2, 10, 2)
    assert ternary_direct(req, cache=CACHE).exact_value == expect
    assert ternary_convolution(req, cache=CACHE).exact_value == expect


def test_mixed_specs_against_brute_force():
    s1, s2, s3 = MultSpec.moebius(), MultSpec.one_star_chi4(), MultSpec.divisor_k(2)
    req = CorrelationRequest(s1, s2, s3, 30, 5)
    expect = brute_correlation(s1, s2, s3, 30, 5)
    assert ternary_direct(req, cache=CACHE).exact_value == expect
    assert ternary_convolution(req, cache=CACHE).exact_value == expect


def test_direct_conv_equivalence_randomized():
    rng = random.Random(424242)
    pool = [ONE, MultSpec.divisor_k(2), MultSpec.divisor_k(3),
            MultSpec.moebius(), MultSpec.one_star_chi4()]
    for _ in range(20):
        s1, s2, s3 = (rng.choice(pool) for _ in range(3))
        x = rng.randint(50, 2000)
        h = rng.randint(1, min(50, (x - 1) // 2))
        req = CorrelationRequest(s1, s2, s3, x, h)
        a = ternary_direct(req, cache=CACHE)
        b = ternary_convolution(req, cache=CACHE)
        assert a.exact_numerator == b.exact_numerator


def test_float_path_direct_conv_close():
    tau = MultSpec.ramanujan_tau_norm()
    req = CorrelationRequest(tau, tau, tau, 4000, 80)
    a = ternary_direct(req, cache=CACHE)
    b = ternary_convolution(req, cache=CACHE)
    scale = max(abs(complex(a.value)), 1e-12)
    assert abs(complex(a.value) - complex(b.value)) <= 1e-8 * scale
    assert complex(a.value).imag == 0.0  # real spec stays real


def test_mixed_request_int64_products_do_not_wrap():
    # divisor40 values pass 2^44 on these windows, so a1 * a2 can pass 2^88
    # and a triple product 2^132: the float routes must not wrap in int64.
    d40, tau = MultSpec.divisor_k(40), MultSpec.ramanujan_tau_norm()
    x, h = 8192, 8
    req = CorrelationRequest(d40, d40, tau, x, h)
    wins = correlation_windows(req, CACHE)
    a1, a2, a3 = (w.values.astype(np.float64) for w in wins)
    terms = [
        (h - abs(hh)) * a1[x - wins[0].lo : 2 * x - wins[0].lo + 1]
        * a2[x + hh - wins[1].lo : 2 * x + hh - wins[1].lo + 1]
        * a3[x + 2 * hh - wins[2].lo : 2 * x + 2 * hh - wins[2].lo + 1]
        for hh in range(-h, h + 1)
    ]
    ref = math.fsum(np.concatenate(terms)) / h
    assert ref == pytest.approx(2.3321077e26, rel=1e-7)
    for route in (ternary_direct, ternary_convolution):
        assert route(req, windows=wins).value == pytest.approx(ref, rel=1e-12)

    win = sieve_window(d40, x - 2 * h, 2 * x + 2 * h)
    assert int(win.values.max()).bit_length() == 45  # max >= 2^44
    vals = win.values.astype(object)
    expect = sum(
        int(vals[n - win.lo] * vals[n + hh - win.lo] * vals[n + 2 * hh - win.lo]
            >= 2**80)
        for hh in range(-h, h + 1) for n in range(x, 2 * x + 1)
    )
    assert count_triples(win, x, h, 2.0**80).count == expect == 4038


def test_reversed_iteration_stability():
    tau = MultSpec.ramanujan_tau_norm()
    req = CorrelationRequest(tau, tau, tau, 3000, 60)
    fwd = ternary_direct(req, cache=CACHE)
    rev = ternary_direct(req, cache=CACHE, h_order="reverse")
    assert abs(complex(fwd.value) - complex(rev.value)) <= 1e-9 * max(
        abs(complex(fwd.value)), 1e-30
    )


# ---------------------------------------------------------------------------
# Fejer weight


def test_fejer_weight_examples():
    assert fejer_overlap_weight(0, 10) == 20
    assert fejer_overlap_weight(10, 10) == 0
    assert fejer_overlap_weight(5, 10) == 10
    with pytest.raises(DomainError):
        fejer_overlap_weight(11, 10)


def test_fejer_weight_identity_exact():
    for h_span in range(1, 101):
        for h in range(-h_span, h_span + 1):
            w = fejer_overlap_weight(h, h_span)
            assert Fraction(w, 2 * h_span) == 1 - Fraction(abs(h), h_span)


# ---------------------------------------------------------------------------
# Main-term comparison


def test_compare_constant_function_gap_is_one_over_x():
    x, h = 1000, 30
    series = singular_series_sum(ONE, 20, 10**5, cache=CACHE)
    req = CorrelationRequest(ONE, ONE, ONE, x, h)
    res = ternary_direct(req, cache=CACHE)
    main, gap = main_term_gap(ONE, res.value, x, h, 0.05, series.series_value)
    # value = H(X+1), main = X H series with series = 1 up to floor noise
    assert main == x * h * series.series_value
    assert gap == pytest.approx(1.0 / x, rel=1e-2)
    with pytest.raises(DomainError, match="needs a series"):
        main_term_gap(ONE, res.value, x, h, 0.05)


def test_compare_requires_symmetric_request(tmp_path, capsys):
    record = tmp_path / "series.json"
    assert harness.main(["singular-series", "--spec", "divisor1", "--Q", "10",
                         "--N", "10000", "--out", str(record)]) == 0
    correlate = ["correlate", "--X", "100", "--H", "5", "--series", str(record)]
    assert harness.main(correlate + ["--spec", "divisor1"]) == 0
    capsys.readouterr()
    assert harness.main(correlate + ["--spec", "divisor1,divisor1,divisor2"]) == 2
    assert "spec1 = spec2 = spec3" in capsys.readouterr().err
    assert harness.main(correlate + ["--spec", "divisor2"]) == 2
    assert "series computed for 'divisor1'" in capsys.readouterr().err


def test_compare_polefree_reports_smallness_ratio():
    tau = MultSpec.ramanujan_tau_norm()
    x, h = 2000, 40
    req = CorrelationRequest(tau, tau, tau, x, h)
    res = ternary_direct(req, cache=CACHE)
    main, gap = main_term_gap(tau, res.value, x, h, 0.05)  # no series needed
    assert main == 0.0
    expected = abs(complex(res.value)) / (x * h**0.95)
    assert gap == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Triple counting


def test_count_triples_all_and_none():
    x, h = 100, 10
    win = sieve_window(ONE, x - 2 * h, 2 * x + 2 * h)
    res = count_triples(win, x, h, 0.0)
    assert res.count == (x + 1) * (2 * h + 1)
    assert res.normalized == pytest.approx((x + 1) * (2 * h + 1) / (x * (2 * h + 1)))
    assert count_triples(win, x, h, 10**9).count == 0


def test_count_triples_monotone_in_threshold():
    tau = MultSpec.ramanujan_tau_norm()
    x, h = 2000, 40
    win = CACHE.window(tau, 1, x - 2 * h, 2 * x + 2 * h)
    counts = [count_triples(win, x, h, float(c)).count for c in np.linspace(0, 2, 10)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_count_triples_coverage_guard():
    win = sieve_window(ONE, 100, 300)
    with pytest.raises(DomainError):
        count_triples(win, 100, 10, 0.5)  # misses [80, 100) and (300, 420]


def test_request_validation():
    with pytest.raises(DomainError):
        CorrelationRequest(ONE, ONE, ONE, 100, 0)
    with pytest.raises(DomainError):
        CorrelationRequest(ONE, ONE, ONE, 10, 11)


@pytest.mark.parametrize("mixed", [False, True])
def test_correlation_windows_read_one_range(mixed):
    # Every factor is read on [X - 2H, 2X + 2H], so a symmetric triple is
    # one cache key: one build and two memory hits.
    d3 = MultSpec.divisor_k(3)
    specs = (MultSpec.moebius(), d3, MultSpec.one_star_chi4()) if mixed else (d3,) * 3
    cache = WindowCache()
    wins = correlation_windows(CorrelationRequest(*specs, 300, 40), cache)
    assert [(w.lo, w.hi) for w in wins] == [(220, 680)] * 3
    assert cache.counts() == {"memory_hits": 0 if mixed else 2, "disk_reads": 0,
                              "builds": 3 if mixed else 1, "disk_writes": 0}


def test_windows_are_shared_between_methods():
    d2 = MultSpec.divisor_k(2)
    req = CorrelationRequest(d2, d2, d2, 500, 20)
    wins = correlation_windows(req, CACHE)
    a = ternary_direct(req, windows=wins)
    b = ternary_convolution(req, windows=wins)
    assert a.exact_numerator == b.exact_numerator


# ---------------------------------------------------------------------------
# Exact int64 accumulation

INT64 = st.integers(-(2**63), 2**63 - 1)


def object_reference(windows, x, h):
    """H * S from the windows' exact values in Python-int (object) arithmetic."""
    w1, w2, w3 = windows
    a1, a2, a3 = (w.values.astype(object) for w in windows)
    base = a1[x - w1.lo : 2 * x - w1.lo + 1]
    total = 0
    for hh in range(-h, h + 1):
        i2, i3 = x + hh - w2.lo, x + 2 * hh - w3.lo
        total += (h - abs(hh)) * np.dot(base * a2[i2 : i2 + x + 1], a3[i3 : i3 + x + 1])
    return total


@settings(max_examples=200, deadline=None)
@given(st.lists(INT64, min_size=1, max_size=30))
@example([-(2**34) - 1])  # top digit -(2^17 + 1), the largest magnitude
@example([-(2**63), 2**63 - 1, 0])
def test_digits_reconstruct_with_bounded_digits(values):
    a = np.array(values, dtype=np.int64)
    bound, digits = split_digits(a, _DIGIT_BITS)
    assert bound**3 < 2**52
    m = max(abs(v) for v in values)
    assert len(digits) == 1 if m <= 2**17 else len(digits) > 1
    total = [0] * len(values)
    for shift, d in digits:
        assert d.dtype == np.int64 and int(np.abs(d.astype(object)).max()) <= bound
        total = [t + (int(v) << shift) for t, v in zip(total, d)]
    assert total == values


def synthetic_windows(x, h, mags, rng):
    """Padded windows of int64 values with max|value| exactly mags[i].

    Values lie within m/8 of m and 97 % are positive, so dot products and
    lag sums really exceed int64 where the bounds say they may: int64 wraps
    modulo 2^64, so an unsplit sum whose total fits would hide a fault.
    """
    spans = [(x, 2 * x), (x - h, 2 * x + h), (x - 2 * h, 2 * x + 2 * h)]
    out = []
    for (lo, hi), m in zip(spans, mags):
        size = hi - lo + 1
        iv = rng.integers(m - m // 8, m, size=size, endpoint=True, dtype=np.int64)
        iv[rng.random(size) < 0.03] *= -1
        iv[rng.integers(0, size)] = -m
        out.append(CoefficientWindow(lo, hi, 1, iv))
    return tuple(out)


def band_bits(wins, h):
    """The banded route's digit width for f1 and f3 on these windows."""
    fmax = max(_level_errors(h), default=0.0)
    b2, _ = split_digits(wins[1].values, _DIGIT_BITS)
    return _band_digit_bits(max_abs(wins[0].values), max_abs(wins[2].values),
                            b2, h, fmax)


@pytest.mark.parametrize(
    "x, h, mags, split",
    [
        (8191, 2, (2**17, 2**17, 2**17), "chunks"),
        (100, 30, (2**16, 2**16, 2**15), "int64"),
        (100, 30, (2**40, 5, 2**33), "digits"),
        (100, 30, (2**63 - 1, 2**62, 1), "digits"),
    ],
)
def test_routes_exact_on_synthetic_windows(x, h, mags, split):
    d2 = MultSpec.divisor_k(2)
    req = CorrelationRequest(d2, d2, d2, x, h)
    wins = synthetic_windows(x, h, mags, np.random.default_rng(sum(mags) % 2**32))
    k_bound = h * h * mags[0] * mags[2]  # |K(r)| <= H^2 max|f1| max|f3|
    conv = ternary_convolution(req, windows=wins)
    direct = ternary_direct(req, windows=wins)
    check_direct_digits(wins, direct)
    # chunks: conv keeps one digit and sums f2 K in int64 columns of 1023
    # terms; direct splits f1 only, into four 5-bit digits
    if split == "chunks":
        assert INT64_MAX // (k_bound * mags[1]) < x + 1
        assert band_bits(wins, h) >= 17 and conv.digits == (1, 1, 1)
        assert direct.digits == (4, 1, 1)
    if split == "int64":  # K(r) passes 2^53 but stays one int64 digit
        assert k_bound * mags[1] > 2**53 and conv.digits == (1, 1, 1)
    if split == "digits":
        # direct: two passes, with f1 split too
        assert direct.digits[1] * direct.digits[2] == 2 and direct.digits[0] > 1
        # K(r) <= 2^63 / (b2 H^2) splits f1 and f3 except a window of +-1
        assert conv.digits[0] > 1 and (conv.digits[2] > 1) == (mags[2] > 1)
    expect = object_reference(wins, x, h)
    assert direct.exact_numerator == expect
    assert conv.exact_numerator == expect


def check_direct_digits(wins, res):
    """The digits `ternary_direct` chose for these windows meet both limits.

    A tile sums _TILE_TERMS digit triples, so it is exact in float64 while
    _TILE_TERMS D1 D2 D3 <= 2^53; a lag sums X + 1 of them, so it fits in
    int64 while (X + 1) D1 D2 D3 <= 2^63 - 1.
    """
    x = res.x_start
    limit = min(2**53 // _TILE_TERMS, INT64_MAX // (x + 1))
    segs = [w.segment(lo, hi) for w, (lo, hi) in zip(
        wins, [(x, 2 * x), (x - res.h_span, 2 * x + res.h_span),
               (x - 2 * res.h_span, 2 * x + 2 * res.h_span)])]
    bits = _direct_digit_bits(*(max_abs(f) for f in segs), limit)
    splits = [split_digits(f, b) for f, b in zip(segs, bits)]
    assert res.digits == tuple(len(d) for _, d in splits)
    bound = math.prod(b for b, _ in splits)
    assert _TILE_TERMS * bound <= 2**53 and (x + 1) * bound <= INT64_MAX


@pytest.mark.parametrize(
    "x, h, mags, digits",
    [
        # X + 1 below one tile; H = 1 is one partial lag block of 3
        (100, 1, (5, 7, 3), (1, 1, 1)),
        (2 * 8192 + 100, 1, (2**14 - 1, 2**13, 2**13), (1, 1, 1)),
        # 2H + 1 = 41 lags: two blocks of 16 and one of 9; three tiles of
        # 2^13 terms and a partial one.  D1 D2 D3 = 2^40 - 2^26, then
        # 2^40 = 2^53 / 2^13 (one digit each, the last that fits), then one
        # past it, where f1 alone splits into 13-bit digits
        (3 * 8192 + 100, 20, (2**14 - 1, 2**13, 2**13), (1, 1, 1)),
        (3 * 8192 + 100, 20, (2**14, 2**13, 2**13), (1, 1, 1)),
        (3 * 8192 + 100, 20, (2**14 + 1, 2**13, 2**13), (2, 1, 1)),
        # one pass with f2 and f3 whole (2^34) and f1 in four 5-bit digits
        # (D1 = 33); X + 1 = 2 * 4095 + 17
        (2 * 4095 + 16, 20, (2**17, 2**17, 2**17), (4, 1, 1)),
    ],
)
def test_direct_tiles_exact_at_their_edges(x, h, mags, digits):
    d2 = MultSpec.divisor_k(2)
    req = CorrelationRequest(d2, d2, d2, x, h)
    wins = synthetic_windows(x, h, mags, np.random.default_rng(x + h))
    res = ternary_direct(req, windows=wins)
    assert res.digits == digits
    check_direct_digits(wins, res)
    assert res.exact_numerator == object_reference(wins, x, h)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 2**20), min_size=3, max_size=3),
       st.integers(27, 2**40))
def test_direct_digit_bits_least_cost(mags, limit):
    # Brute force over every width triple, digits counted by split_digits;
    # the cost of a choice is passes * (_PASS_COLUMNS + digits of f1).
    def options(m):
        out = []
        for b in range(1, m.bit_length() + 1):
            bound, digits = split_digits(np.array([m, -m]), b)
            out.append((b, bound, len(digits)))
        return out

    best = min(
        (n2 * n3 * (_PASS_COLUMNS + n1), n2 * n3)
        for (_, e1, n1), (_, e2, n2), (_, e3, n3) in product(*map(options, mags))
        if e1 * e2 * e3 <= limit
    )
    bits = _direct_digit_bits(*mags, limit)
    (e1, d1), (e2, d2), (e3, d3) = (split_digits(np.array([m, -m]), b)
                                    for m, b in zip(mags, bits))
    assert e1 * e2 * e3 <= limit
    passes = len(d2) * len(d3)
    assert (passes * (_PASS_COLUMNS + len(d1)), passes) == best


@pytest.mark.parametrize("shape, dtype", [
    ((16, 8192), np.float64), ((16, 4095), np.int64), ((3, 5), np.float64),
    ((16, 8192), np.complex128),
])
def test_direct_tile_buffer_on_a_cache_line(shape, dtype):
    bufs = [_cache_aligned(shape, dtype) for _ in range(8)]
    for buf in bufs:
        assert buf.ctypes.data % 64 == 0
        assert buf.shape == shape and buf.dtype == dtype and buf.flags.c_contiguous
        buf[...] = 1  # writable, and no view reaches past its end


def test_direct_lag_sums_past_int64_at_small_x():
    # Every T_h is 6001 * 2^51 > 2^63 at X = 6000: the digits keep each
    # digit's lag sums within int64, and they add up as Python ints.
    x, h, m = 6000, 3, 2**17
    spans = [(x, 2 * x), (x - h, 2 * x + h), (x - 2 * h, 2 * x + 2 * h)]
    wins = tuple(CoefficientWindow(lo, hi, 1, np.full(hi - lo + 1, m, dtype=np.int64))
                 for lo, hi in spans)
    assert (x + 1) * m**3 >= 2**63
    d2 = MultSpec.divisor_k(2)
    res = ternary_direct(CorrelationRequest(d2, d2, d2, x, h), windows=wins)
    check_direct_digits(wins, res)
    assert res.exact_numerator == object_reference(wins, x, h) == h * h * (x + 1) * m**3


def test_direct_exact_numerator_ignores_h_order():
    specs = (MultSpec.moebius(), MultSpec.divisor_k(3), MultSpec.one_star_chi4())
    req = CorrelationRequest(*specs, 4000, 300)
    fwd = ternary_direct(req, cache=CACHE)
    rev = ternary_direct(req, cache=CACHE, h_order="reverse")
    assert rev.exact_numerator == fwd.exact_numerator


@pytest.mark.parametrize("h", [1, 2, 16, 17, 31, 32, 33, 64, 65, 300])
@pytest.mark.parametrize("wide", [False, True])
def test_banded_route_block_shapes(h, wide):
    # Blocks of up to 16 terms are one leaf; 17, 33 and 65 pad blocks to 32,
    # 64 and 128 terms; X = 2H + 1 leaves the shortest windows allowed.
    x = 7 * h + 13 if wide else 2 * h + 1
    specs = (MultSpec.moebius(), MultSpec.divisor_k(3), MultSpec.one_star_chi4())
    for s1, s2, s3 in (specs, specs[::-1]):
        req = CorrelationRequest(s1, s2, s3, x, h)
        wins = correlation_windows(req, CACHE)
        res = ternary_convolution(req, windows=wins)
        assert res.exact_numerator == object_reference(wins, x, h)
        assert res.digits == (1, 1, 1) and 0 <= res.error_bound < 0.5


@pytest.mark.parametrize("group", [64, 128, 256, 1024])
def test_banded_route_rows_split_across_calls(group, monkeypatch):
    # Blocks of 64 terms with 64 to 1024 row terms per `_triangles` call: 1
    # or 2 kinds per call (as blocks above 4096 terms get by default), then
    # 4 kinds of 1 and of up to 4 blocks, the last batch partly filled.
    monkeypatch.setattr(correlate, "_GROUP_TERMS", group)
    h, x = 40, 333
    specs = (MultSpec.moebius(), MultSpec.divisor_k(3), MultSpec.one_star_chi4())
    req = CorrelationRequest(*specs, x, h)
    wins = correlation_windows(req, CACHE)
    res = ternary_convolution(req, windows=wins)
    assert res.exact_numerator == object_reference(wins, x, h)


@pytest.mark.parametrize("gap", [False, True])
def test_banded_route_leaves_out_zero_rows(monkeypatch, gap):
    # X = 333, H = 40: 5 blocks of g per parity, so 4 kinds x 6 blocks
    # (j = -1 .. 4) x 2 parities = 48 rows.  Kinds 0-2 at j = -1 and kind 3
    # at j = 4 have an all-zero block of g and are left out: 40 rows.  With
    # f1 = 0 on [X, X + 200), g's blocks 0 and 1 are zero as well, which
    # drops kind 3 at j = -1, all four at j = 0 and kinds 0-2 at j = 1 on
    # each parity: 24.
    h, x = 40, 333
    specs = (MultSpec.moebius(), MultSpec.divisor_k(3), MultSpec.one_star_chi4())
    req = CorrelationRequest(*specs, x, h)
    w1, w2, w3 = correlation_windows(req, CACHE)
    if gap:
        vals = w1.values.copy()
        vals[x - w1.lo : x - w1.lo + 200] = 0
        w1 = replace(w1, values=vals)
    rows = []
    triangles = correlate._triangles

    def checked(xb, yb, c, sign):
        assert xb.any(axis=1).all() and yb.any(axis=1).all()
        rows.append(len(xb))
        return triangles(xb, yb, c, sign)

    monkeypatch.setattr(correlate, "_triangles", checked)
    res = ternary_convolution(req, windows=(w1, w2, w3))
    assert res.exact_numerator == object_reference((w1, w2, w3), x, h)
    assert sum(rows) == (24 if gap else 40)


def test_square_error_bounds_max_magnitude_products():
    # Inputs of magnitude D, the largest with D^2 * bound < 1/2: constant
    # (exact square D^2 c cnt(r), cnt(r) = min(r + 1, 2m - 1 - r)) at every
    # transform length 2m <= 2^17, random signs (np.convolve) up to 2^13.
    rng = np.random.default_rng(17)
    for k in range(1, 18):
        m = 1 << (k - 1)
        for c, sign in ((m, -1), (3 * m, 1)):
            bound1 = _square_error(m, c)
            d = max(1, math.isqrt(int(0.5 / bound1)))
            u = np.full(m, d, dtype=np.int64)
            r = np.arange(2 * m)
            cases = [(u, -u, -(d * d) * c * np.minimum(r + 1, 2 * m - 1 - r))]
            if k <= 13:
                us, vs = (rng.choice([-d, d], size=m) for _ in range(2))
                p = np.arange(m)
                ref = c * np.convolve(us, vs) + sign * (
                    np.convolve(p * us, vs) - np.convolve(us, p * vs))
                cases.append((us, vs, np.append(ref, 0)))
            for a, b, exact in cases:
                z = _weighted_squares(a[None, None], b[None, None], c, sign)[0, 0]
                assert float(np.abs(z - exact).max()) <= d * d * bound1 < 0.5
                assert (np.rint(z) == exact).all()


def test_banded_route_splits_when_one_digit_bound_fails():
    x, h = 700, 300
    mags = (2**17, 2**10, 2**17)
    d2 = MultSpec.divisor_k(2)
    wins = synthetic_windows(x, h, mags, np.random.default_rng(9))
    fmax = max(_level_errors(h))
    assert mags[0] * mags[2] * fmax >= 0.5  # one digit each would not round
    bits = band_bits(wins, h)
    assert (2**bits + 1) ** 2 * fmax < 0.5 <= (2 ** (bits + 1) + 1) ** 2 * fmax
    req = CorrelationRequest(d2, d2, d2, x, h)
    res = ternary_convolution(req, windows=wins)
    assert res.digits[0] > 1 and res.digits[2] > 1 and res.error_bound < 0.5
    assert res.digits == (2, 1, 2) and res.error_bound == 0.1839008913305679
    assert res.exact_numerator == object_reference(wins, x, h)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, INT64_MAX), st.integers(1, 2**62), st.integers(1, 2**17 + 1),
       st.integers(1, 2**20), st.floats(-70, 0))
@example(INT64_MAX, 1, 1, 1, -70.0)  # one 63-bit digit would fit: 62 bits at most
@example(2**17, 2**17, 2**10, 300, math.log2(max(_level_errors(300))))
@example(2**20, 2**20, 2**17, 2**30, -60.0)  # no width leaves int64 room
@example(2**20, 2**20, 1, 1, 0.0)  # fmax = 1: no width rounds
def test_band_digits_match_a_scan_of_every_width(m1, m3, b2, h, log_fmax):
    # The scan from 62 bits down that the band used before the shared
    # search: the same digit bounds and digit counts, or the same refusal.
    fmax = 2.0**log_fmax
    scan = None
    for bits in range(62, 0, -1):
        d = digit_shape(m1, bits)[0] * digit_shape(m3, bits)[0]
        if d * fmax < 0.5 and d * b2 * h * h <= INT64_MAX:
            scan = bits
            break
    if scan is None:
        with pytest.raises(BudgetError, match=f"^H = {h} is too large"):
            _band_digit_bits(m1, m3, b2, h, fmax)
        return
    bits = _band_digit_bits(m1, m3, b2, h, fmax)
    for m in (m1, m3):
        assert digit_shape(m, bits) == digit_shape(m, scan)


def test_float_routes_agree_within_recorded_bound():
    sieve = np.ones(18200, dtype=bool)
    for p in range(2, 135):
        sieve[p * p :: p] = False
    unit = MultSpec.user_euler(
        {(int(p), e): cmath.exp(1j * p * e)
         for p in np.flatnonzero(sieve)[2:] for e in range(1, 15)},
        k_bound=1,
    )
    tau = MultSpec.ramanujan_tau_norm()
    # the last case runs complex tiles over two tiles of n and 81 lags
    for specs, x, h in (((tau, tau, tau), 4000, 80), ((unit, tau, unit), 600, 40),
                        ((tau, unit, tau), 600, 40), ((unit, unit, unit), 600, 33),
                        ((unit, unit, unit), 9000, 40)):
        req = CorrelationRequest(*specs, x, h)
        a = ternary_direct(req, cache=CACHE)
        b = ternary_convolution(req, cache=CACHE)
        assert a.error_bound is None and b.digits is None
        assert abs(complex(a.value) - complex(b.value)) <= b.error_bound
        assert b.error_bound <= 1e-6 * abs(complex(a.value))
        assert isinstance(b.value, complex) == (unit in specs)


@pytest.mark.parametrize("x", [4000, 8000, 16000])
def test_divisor3_routes_agree_across_old_int64_guard(x):
    # The whole-sum guard of earlier versions sent X = 8000 and 16000 (H =
    # 300) to per-element Python-int loops; X = 4000 stayed on int64.
    d3 = MultSpec.divisor_k(3)
    req = CorrelationRequest(d3, d3, d3, x, 300)
    wins = correlation_windows(req, CACHE)
    expect = object_reference(wins, x, 300)
    assert ternary_direct(req, windows=wins).exact_numerator == expect
    assert ternary_convolution(req, windows=wins).exact_numerator == expect


@pytest.mark.parametrize("k, digits", [(4, (2, 1, 1)), (5, (3, 1, 1)), (6, (2, 2, 1))])
def test_divisor_k_routes_agree_past_one_digit(k, digits):
    # max d_k on these windows is 19200, 123750 and 598752, all past one
    # digit each: the direct route splits f1 and keeps one pass, except for
    # divisor6, where one pass would leave room for 1-bit digits of f1 only
    # (598752^2 D1 <= 2^40 needs D1 <= 3) and two cost less.  The reference sums
    # each lag's int64 triple products, which stay below 2^63 (598752^3 <
    # 2^58) and whose sums of magnitudes stay below 2^62, checked here.
    x, h = 20000, 2000
    dk = MultSpec.divisor_k(k)
    req = CorrelationRequest(dk, dk, dk, x, h)
    w1, w2, w3 = wins = correlation_windows(req, CACHE)
    a1 = w1.segment(x, 2 * x)
    expect = 0
    for hh in range(-h, h + 1):
        terms = a1 * w2.segment(x + hh, 2 * x + hh) * w3.segment(x + 2 * hh, 2 * x + 2 * hh)
        assert np.abs(terms).sum(dtype=np.float64) < 2**62
        expect += (h - abs(hh)) * int(terms.sum())
    direct = ternary_direct(req, windows=wins)
    check_direct_digits(wins, direct)
    assert direct.digits == digits
    assert direct.exact_numerator == expect
    assert ternary_convolution(req, windows=wins).exact_numerator == expect


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
@pytest.mark.parametrize("rows, nodes, m", [(8, 1, 1024), (4, 8, 128), (16, 64, 16)])
def test_weighted_squares_bits_match_scipy_fft(monkeypatch, dtype, rows, nodes, m):
    # numpy.fft and scipy.fft run the same pocketfft code, so every float
    # output, and with it every float correlation, has the same bits on both.
    import scipy.fft

    rng = np.random.default_rng(rows * nodes * m)
    x, y = (rng.integers(-2**17, 2**17, (rows, nodes, 2, m)) for _ in range(2))
    if dtype is not np.int64:
        x = x * rng.standard_normal(x.shape)
        y = y * rng.standard_normal(y.shape)
    if dtype is np.complex128:  # `_fejer_band` makes both blocks complex
        x = x + 1j * rng.standard_normal(x.shape)
        y = y + 1j * rng.standard_normal(y.shape)
    u, v = x[:, :, 0], y[:, :, 1]  # the strided halves `_triangles` passes
    sign = rng.choice([-1, 1], rows)[:, None, None]
    c = rng.integers(0, 2 * m, rows)[:, None, None] - sign * m
    got = _weighted_squares(u, v, c, sign)
    with monkeypatch.context() as mp:
        for name in ("rfft", "irfft", "fft", "ifft"):
            mp.setattr(np.fft, name, getattr(scipy.fft, name))
        want = _weighted_squares(u, v, c, sign)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Threads: both routes split their work, and no result depends on how


def _euler_unit(top: int) -> MultSpec:
    """A complex unimodular family with a rule for every prime power to top."""
    sieve = np.ones(top + 1, dtype=bool)
    for p in range(2, math.isqrt(top) + 1):
        sieve[p * p :: p] = False
    return MultSpec.user_euler(
        {(int(p), e): cmath.exp(1j * p * e)
         for p in np.flatnonzero(sieve)[2:] for e in range(1, top.bit_length())},
        k_bound=1,
    )


def _by_threads(req, threads=(1, 2, 3)):
    """{(route, threads): (value, exact numerator, error bound, digits)}."""
    out = {}
    for route, t in product((ternary_direct, ternary_convolution), threads):
        res = route(req, cache=CACHE, threads=t)
        out[route.__name__, t] = (res.value, res.exact_numerator, res.error_bound,
                                  res.digits)
    return out


def _thread_case(case):
    """(specs, X, H): X = 2*10^4 gives three tiles of n and 4 band batches
    per parity; divisor40 at X = 9000 two tiles on several digit passes."""
    chi4, tau = MultSpec.one_star_chi4(), MultSpec.ramanujan_tau_norm()
    if case == "euler":
        unit = _euler_unit(44001)
        return (unit, tau, unit), 20000, 2000
    spec = {"chi4": chi4, "divisor40": MultSpec.divisor_k(40), "tau": tau}[case]
    return (spec,) * 3, *((9000, 300) if case == "divisor40" else (20000, 2000))


@pytest.mark.parametrize("case", ["chi4", "divisor40", "tau", "euler"])
def test_results_do_not_depend_on_threads(case):
    specs, x, h = _thread_case(case)
    assert -(-(x + 1) // _TILE_TERMS) > 1
    got = _by_threads(CorrelationRequest(*specs, x, h))
    for route in ("ternary_direct", "ternary_convolution"):
        one = got[route, 1]
        for t in (2, 3):
            value, numerator, bound, digits = got[route, t]
            # same bits: == on floats, and the same type (float or complex)
            assert (type(value), value, numerator, bound, digits) == (
                type(one[0]), *one), (route, t)
    direct, conv = got["ternary_direct", 1], got["ternary_convolution", 1]
    if case in ("chi4", "divisor40"):
        assert direct[1] == conv[1] is not None
        if case == "divisor40":
            assert direct[3][0] > 1 and conv[3][0] > 1  # several digit passes
    else:
        assert direct[1] is None
        assert abs(complex(direct[0]) - complex(conv[0])) <= conv[2]
        assert isinstance(direct[0], complex) == (case == "euler")


def test_small_requests_start_no_thread(monkeypatch, capsys):
    # identity-check at X = 2000 has one tile of n and one band batch per
    # parity in every case, so it runs on the calling thread alone.
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert harness.main(["identity-check", "--X", "2000", "--threads", "2"]) == 0
    assert '"exact_match": true' in capsys.readouterr().out
    req = CorrelationRequest(ONE, ONE, ONE, 20000, 2000)
    for route in (ternary_direct, ternary_convolution):
        assert route(req, cache=CACHE, threads=1).exact_numerator
        with pytest.raises(AssertionError, match="a thread was started"):
            route(req, cache=CACHE, threads=2)


def _within(seconds, fn, *args):
    """fn(*args) on a thread that must end within seconds; its exception, if any."""
    outcome = []

    def call():
        try:
            fn(*args)
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "deadlock"
    return outcome[0] if outcome else None


def test_in_order_adds_in_item_order_and_raises():
    # Items that finish out of order, on more workers than cores and with a
    # short switch interval, are still added in order, each once; an error
    # in any worker reaches the caller and ends every worker.
    items = list(range(40))
    delays = random.Random(5).choices([0, 0.001, 0.004], k=len(items))
    added, seen = [], set()

    def worker():
        def step(i):
            seen.add(threading.get_ident())
            time.sleep(delays[i])
            return lambda: added.append(i)
        return step

    def failing():
        def step(i):
            if i == 7:
                raise ZeroDivisionError(i)
            time.sleep(delays[i])
            return lambda: None
        return step

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _within(30, correlate._in_order, items, 3, worker) is None
        assert added == items and 1 <= len(seen) <= 3
        for threads in (1, 2, 3):
            error = _within(30, correlate._in_order, items, threads, failing)
            assert isinstance(error, ZeroDivisionError), threads
    finally:
        sys.setswitchinterval(interval)


def test_threaded_band_matches_python_int_sums_at_a_million():
    # At X = 10^6 the direct route is out of reach, so sampled K(r) of the
    # threaded band (H = X^0.8) are checked against their definition in
    # Python ints, K(r) = sum_{|j| < H} (H - |j|) f1(r - j) f3(r + j), O(H)
    # per r.
    x = 10**6
    h = harness.eval_power_expr("X^0.8", x)
    chi4 = MultSpec.one_star_chi4()
    cache = WindowCache()
    f1 = cache.window(chi4, 1, x, 2 * x).values
    f3 = cache.window(chi4, 1, x - 2 * h, 2 * x + 2 * h).values
    band = correlate._fejer_band(f1, f3, h, np.int64, threads=2)
    assert len(band) == x + 1 + 2 * h  # K(r) for r = X - H + i
    g = [0] * 2 * h + f1.tolist() + [0] * 2 * h  # g[k] = f1(X - 2H + k)
    y = f3.tolist()  # y[k] = f3(X - 2H + k)
    weights = [h - abs(j) for j in range(1 - h, h)]
    rng = random.Random(2026)
    samples = [0, 1, 2 * h, len(band) - 2, len(band) - 1]
    for i in samples + rng.sample(range(len(band)), 64):
        # f1(r - j) = g[i + H - j] and f3(r + j) = y[i + H + j], j = 1 - H .. H - 1
        pairs = map(operator.mul, g[i + 2 * h - 1 : i : -1], y[i + 1 : i + 2 * h])
        assert int(band[i]) == sum(map(operator.mul, weights, pairs)), i
