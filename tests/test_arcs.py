"""Arc decompositions, short exponential sums, sup scans, major-arc model."""

import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from terncorr import arcs, multfunc
from terncorr.arcs import (
    DUAL_MARGIN,
    decompose,
    edge_divisor_sum,
    geometric_minor_envelope,
    largest_disjoint_q,
    major_arc_model,
    short_exp_sum,
    short_sum_bound,
    sup_scan,
    unit_phases,
)
from terncorr.dirichlet import local_densities
from terncorr.errors import BudgetError, ConfigurationError, DomainError
from terncorr.harness import resolve_q
from terncorr.multfunc import MultSpec, WindowCache, sieve_window

ONE = MultSpec.divisor_k(1)


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_single_arc_at_q2():
    dec = decompose(2, 10**4, 0.05)
    assert dec.domain == (Fraction(1, 2), Fraction(3, 2))
    assert len(dec.major) == 1
    arc = dec.major[0]
    assert (arc.a, arc.q, arc.center) == (1, 1, 1)
    assert dec.beta == pytest.approx((10**4) ** -0.6)


def test_decompose_beta_formula():
    # beta = H^(8 eps - 1); at H=1000, eps=0.05 this is 1000^(-0.6)
    dec = decompose(4, 1000, 0.05)
    assert dec.beta == pytest.approx(1000**-0.6, rel=1e-14)


def test_decompose_rejects_overlap():
    with pytest.raises(ConfigurationError, match="overlap"):
        decompose(10**4, 100, 0.05)
    with pytest.raises(ConfigurationError, match="1/9"):
        decompose(10, 1000, 0.05)


def test_decompose_validation():
    with pytest.raises(DomainError):
        decompose(1, 100, 0.05)
    with pytest.raises(DomainError):
        decompose(4, 100, 0.2)


def test_farey_arcs_reduced_and_sorted():
    dec = decompose(8, 10**5, 0.05)
    centers = [a.center for a in dec.major]
    assert centers == sorted(centers)
    for arc in dec.major:
        assert math.gcd(arc.a, arc.q) == 1
        assert 1 <= arc.q < 8
    assert sum(1 for _ in dec.major) == sum(
        1 for q in range(1, 8) for a in range(1, q + 1) if math.gcd(a, q) == 1
    )


def test_farey_arcs_match_the_sorted_fractions():
    # The next-term recurrence gives the sorted reduced fractions, each
    # centre is Fraction(a, q), and the float centres are float(a/q) mod 1.
    for q_cut in range(2, 81):
        dec = decompose(q_cut, 10**8, 0.01)
        fracs = sorted(Fraction(a, q) for q in range(1, q_cut)
                       for a in range(1, q + 1) if math.gcd(a, q) == 1)
        assert [(arc.a, arc.q, arc.center) for arc in dec.major] == [
            (f.numerator, f.denominator, f) for f in fracs], q_cut
        assert dec.centers.tolist() == [float(f) % 1.0 for f in fracs], q_cut


def test_minor_set_tiles_complement():
    # Every bin of a fine grid is a major point or a minor one, and the
    # minor share is 1 - 2 beta per arc, to a bin per arc end.
    dec = decompose(5, 10**4, 0.05)
    m = 1 << 22
    minor = ~arcs._major_bins(dec, m, m - 1, 0.0, False)
    expect = 1.0 - 2 * dec.beta * len(dec.major)
    assert minor.sum() / m == pytest.approx(expect, abs=2 * len(dec.major) / m)


def test_largest_disjoint_q():
    q = largest_disjoint_q(100, 10**4, 0.05)
    assert q == 12
    decompose(q, 10**4, 0.05)
    with pytest.raises(ConfigurationError):
        decompose(q + 1, 10**4, 0.05)


def _reference_decompose(q_cut, h_span, epsilon):
    """Every Farey neighbour pair checked, as arcs once did: (beta, centres),
    or the error decompose must raise."""
    if q_cut < 2:
        raise DomainError("Q must be >= 2")
    if h_span < 2:
        raise DomainError("H must be >= 2")
    if not (0.0 < epsilon < 0.125):
        raise DomainError("epsilon must lie in (0, 1/8)")
    beta = float(h_span) ** (-1.0 + 8.0 * epsilon)

    def check(left, right):
        if float(right - left) < 2.0 * beta:
            raise ConfigurationError(
                f"major arcs around {left} and {right} overlap "
                f"(gap {float(right - left):.3g} < 2*beta = {2 * beta:.3g}); "
                f"Q = {q_cut} too large for H = {h_span}"
            )

    if q_cut >= 4:
        check(Fraction(1, q_cut - 1), Fraction(1, q_cut - 2))
    if q_cut > arcs.MAX_DECOMPOSE_Q:
        raise BudgetError(f"Q = {q_cut} exceeds arc budget {arcs.MAX_DECOMPOSE_Q}")
    fracs = sorted(Fraction(a, q) for q in range(1, q_cut)
                   for a in range(1, q + 1) if math.gcd(a, q) == 1)
    for left, right in zip(fracs, fracs[1:]):
        check(left, right)
    return beta, fracs


def _reference_largest_disjoint_q(q_cut, h_span, epsilon):
    beta = float(h_span) ** (-1.0 + 8.0 * epsilon)
    q = min(max(2, q_cut), 4 + math.isqrt(max(0, int(1.0 / (2.0 * beta)))))
    while q > 2:
        try:
            _reference_decompose(q, h_span, epsilon)
            return q
        except ConfigurationError:
            q -= 1
    return 2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BudgetError, ConfigurationError, DomainError) as exc:
        return type(exc), str(exc)


def _same_decompositions(cases):
    for q, h, eps in cases:
        got = _outcome(decompose, q, h, eps)
        want = _outcome(_reference_decompose, q, h, eps)
        if isinstance(want, tuple) and isinstance(want[0], float):
            assert (got.beta, [a.center for a in got.major]) == want, (q, h, eps)
            assert all((a.a, a.q) == (a.center.numerator, a.center.denominator)
                       for a in got.major)
        else:
            assert got == want, (q, h, eps)
        assert (_outcome(largest_disjoint_q, q, h, eps)
                == _outcome(_reference_largest_disjoint_q, q, h, eps)), (q, h, eps)


def test_disjointness_matches_every_neighbour_pair():
    # The least Farey gap, that of 1/(Q-1) and 1/(Q-2), decides what the
    # check of every neighbour pair decides, with the same message.
    _same_decompositions(
        (q, h, eps) for q in range(2, 60)
        for h in (2, 3, 10, 100, 3000, 10**5, 10**8) for eps in (0.01, 0.05, 0.124)
    )


def test_disjointness_at_the_arc_budget(monkeypatch):
    # Past MAX_DECOMPOSE_Q: the overlap is reported first, then the budget.
    _same_decompositions([(2001, 10**14, 0.01), (2001, 10**4, 0.05),
                          (10**6, 10**12, 0.01), (10**9, 10**14, 0.01)])
    with pytest.raises(BudgetError, match="exceeds arc budget 2000"):
        largest_disjoint_q(10**6, 10**14, 0.01)
    # Up to it, at a budget small enough for the reference to enumerate.
    monkeypatch.setattr(arcs, "MAX_DECOMPOSE_Q", 12)
    _same_decompositions((q, h, 0.05) for q in range(10, 16)
                         for h in (3000, 10**4, 2 * 10**4, 10**8))


# ---------------------------------------------------------------------------
# Short exponential sums


def test_exp_sum_examples():
    win = sieve_window(ONE, 100, 400)
    s = short_exp_sum(win, 100, 200, 0.0)
    assert s.value == pytest.approx(201, abs=1e-9)
    assert s.trivial_bound == 201
    # alternating sum over an even count of terms
    s = short_exp_sum(win, 100, 151, 0.5)
    assert abs(s.value) < 1e-9
    mu = sieve_window(MultSpec.moebius(), 1, 10)
    s = short_exp_sum(mu, 1, 9, 1 / 3)
    direct = sum(
        int(mu.values[n - 1]) * complex(np.exp(2j * np.pi * n / 3))
        for n in range(1, 11)
    )
    assert s.value == pytest.approx(direct, abs=1e-10)


def test_exp_sum_periodicity_conjugation_trivial_bound():
    win = sieve_window(MultSpec.one_star_chi4(), 500, 900)
    for alpha in (0.1234, 0.777, 1 / 7):
        a = short_exp_sum(win, 500, 400, alpha)
        assert abs(a.value) <= a.trivial_bound * (1 + 1e-9)
        b = short_exp_sum(win, 500, 400, alpha + 1.0)
        assert abs(a.value - b.value) <= 1e-9 * max(abs(a.value), 1.0)
        c = short_exp_sum(win, 500, 400, -alpha)
        assert abs(np.conj(a.value) - c.value) <= 1e-9 * max(abs(a.value), 1.0)


def test_exp_sum_phase_accuracy_across_resync_blocks():
    # window longer than the 2^14 resync block, rational phase oracle
    length = 3 * (1 << 14)
    win = sieve_window(ONE, 1, length + 1)
    s = short_exp_sum(win, 1, length, 1 / 3)
    # sum of e(n/3) over n=1..length+1: full periods cancel
    rem = (length + 1) % 3
    direct = sum(complex(np.exp(2j * np.pi * r / 3)) for r in range(1, rem + 1))
    assert abs(s.value - direct) <= (length + 1) * 2**-40


def test_unit_phases_match_direct():
    ph = unit_phases(10**5, 2000, 0.123456789)
    n = np.arange(10**5, 10**5 + 2000, dtype=np.float64)
    direct = np.exp(2j * np.pi * ((n * 0.123456789) % 1.0))
    assert np.abs(ph - direct).max() < 1e-7  # direct path itself is the cruder one
    assert np.abs(np.abs(ph) - 1.0).max() < 1e-12


def test_exp_sum_trivial_bound_does_not_wrap():
    # Every d_40 value here is below 2^62, but their sum passes 2^63.
    x, length = 8 * 10**6, 10**5
    win = sieve_window(MultSpec.divisor_k(40), x, x + length)
    exact = sum(int(v) for v in win.values)
    assert exact >= 2**63
    s = short_exp_sum(win, x, length, 0.25)
    assert s.trivial_bound == pytest.approx(exact, rel=1e-12)


def test_exp_sum_coverage_guard():
    win = sieve_window(ONE, 100, 200)
    with pytest.raises(DomainError):
        short_exp_sum(win, 150, 100, 0.1)


# ---------------------------------------------------------------------------
# Bound shapes


def test_short_sum_bound_hand_values():
    b = short_sum_bound(1, 1e-3, 10**5, 3000, eta=0.65, k=1, epsilon=0.0)
    assert b == pytest.approx(math.sqrt(100) * math.sqrt(3000) + 3000**0.65)
    b = short_sum_bound(3, 0.0, 10**5, 3000, eta=0.65, k=2, epsilon=0.05)
    assert b == pytest.approx(3000**0.65 * math.log(10**5) ** 3)
    b = short_sum_bound(2, 0.5, 3, 100, eta=0.5, k=2, epsilon=0.0)
    # X = 3 ~ e: log X close to 1; just check the first-term shape
    assert b == pytest.approx(
        (2 * 0.5 * 3) ** 0.5 * 10 + 100**0.5 * math.log(3) ** 3
    )
    with pytest.raises(DomainError):
        short_sum_bound(0, 0.1, 100, 100, 0.5, 1, 0.05)


def test_envelope_shape():
    assert geometric_minor_envelope(0.5) == pytest.approx(1.0)
    assert geometric_minor_envelope(0.01) == pytest.approx(1 / math.sin(0.01 * math.pi))
    with pytest.raises(DomainError):
        geometric_minor_envelope(0.7)


def test_edge_divisor_sum():
    # L = 256, eta = 0.5 -> edges of length 16 around [x, x+L]
    val = edge_divisor_sum(1000, 256, 0.5, 1)
    assert val == (1000 - 984 + 1) + (1272 - 1256 + 1)  # d_1 = 1 everywhere


# ---------------------------------------------------------------------------
# Sup scans


def test_sup_scan_major_constant_window():
    x, h = 10**4, 100
    dec = decompose(2, h, 0.05)
    win = sieve_window(ONE, x, x + 2 * h)
    rep = sup_scan(win, dec, x, 2 * h, "major", eta=0.65, k=1, epsilon=0.05)
    assert rep.sup_abs == pytest.approx(2 * h + 1, abs=1e-6)
    assert rep.argmax_alpha % 1.0 == pytest.approx(0.0, abs=1e-9)
    assert rep.sup_abs <= rep.trivial_bound * (1 + 1e-9)


def test_sup_scan_minor_constant_window_under_envelope():
    x, h = 10**4, 100
    dec = decompose(2, h, 0.05)
    win = sieve_window(ONE, x, x + 2 * h)
    rep = sup_scan(win, dec, x, 2 * h, "minor", eta=0.65, k=1, epsilon=0.05)
    assert rep.sup_abs <= geometric_minor_envelope(dec.beta)
    sups = rep.round_sups
    assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:]))
    assert rep.refinement_depth == 3
    assert rep.ratio == rep.sup_abs / rep.bound_value


def test_sup_scan_fft_goes_through_arcs_scipy(monkeypatch):
    # Once scipy.fft is loaded, the scan's transforms go through
    # `arcs.scipy`, where the benchmark's tracer wraps them; they match
    # numpy.fft's bit for bit.
    import scipy
    import scipy.fft

    assert arcs.scipy is scipy
    win = sieve_window(ONE, 1000, 1040)
    dec = decompose(2, 20, 0.05)
    monkeypatch.delitem(sys.modules, "scipy.fft")  # numpy.fft
    plain = sup_scan(win, dec, 1000, 40, "major")
    monkeypatch.undo()
    calls = []

    def rfft(*args, **kwargs):
        calls.append(1)
        return scipy.fft.rfft(*args, **kwargs)

    class Fft:
        def __getattr__(self, name):
            return rfft if name == "rfft" else getattr(scipy.fft, name)

    class Scipy:
        fft = Fft()

        def __getattr__(self, name):
            return getattr(scipy, name)

    monkeypatch.setattr(arcs, "scipy", Scipy())
    assert sup_scan(win, dec, 1000, 40, "major") == plain
    assert calls


def test_sup_scan_empty_minor_arcs_rejected():
    # At H = 2 the single arc radius beta = 2^(-0.6) > 1/2 swallows the
    # whole circle, so the minor set is empty.
    dec = decompose(2, 2, 0.05)
    win = sieve_window(ONE, 100, 110)
    with pytest.raises(ConfigurationError, match="minor"):
        sup_scan(win, dec, 100, 4, "minor")


@pytest.mark.parametrize("x", [10**6, 10**7])
def test_sup_scan_far_minor_constant_window_under_envelope(x):
    h = 300
    dec = decompose(3, h, 0.05)
    win = sieve_window(ONE, x, x + 2 * h)
    rep = sup_scan(win, dec, x, 2 * h, "minor", eta=0.65, k=1, epsilon=0.05)
    assert rep.sup_abs <= geometric_minor_envelope(dec.beta)
    near = sup_scan(sieve_window(ONE, 1000, 1000 + 2 * h), dec, 1000, 2 * h,
                    "minor", eta=0.65, k=1, epsilon=0.05)
    assert rep.grid_spacing == near.grid_spacing  # the grid depends on L only
    assert rep.sup_abs == pytest.approx(near.sup_abs, rel=1e-6)


def test_sup_scan_within_tolerance_of_dense_grid():
    """The scan's sup is within 1% of the trivial bound of the max of |S| on
    a much denser grid, and its certificate is above that max."""
    tau = MultSpec.ramanujan_tau_norm()
    x, length = 20_000, 400
    dec = decompose(4, length // 2, 0.05)
    win = sieve_window(tau, x, x + length)
    rep = sup_scan(win, dec, x, length, "minor")
    m = 4 * math.ceil(2 * math.pi * length * 100)
    alphas = np.arange(m) / m
    vals = win.segment(x, x + length)
    mags = np.abs(np.fft.fft(vals, m))  # |S(j/m; x)| at every j
    dense = mags[_in_arc_set(dec, "minor", alphas)].max()
    assert rep.sup_abs >= dense - 0.01 * rep.trivial_bound
    assert rep.sup_abs <= dense + 0.01 * rep.trivial_bound
    assert rep.sup_upper >= dense


@pytest.mark.parametrize("kind, h", [("minor", 300), ("major", 300), ("major", 10**8)])
def test_sup_scan_seeds_are_the_top_five_scanned_bins(monkeypatch, kind, h):
    # The refinement starts from the five largest |S(k/M)| over the bins k
    # of the arc set (all of them when it has fewer), found by brute force.
    x, length = 5000, 600
    win = sieve_window(MultSpec.ramanujan_tau_norm(), x, x + length)
    dec = decompose(3, h, 0.05)
    got = []

    def refine(window, x, length, seeds, spacing, rounds, clamp):
        got.extend(seeds)
        return 1.0, seeds[0], [1.0]

    monkeypatch.setattr(arcs, "_refine", refine)
    monkeypatch.setattr(arcs, "_make_clamp", lambda dec, kind: lambda alpha: alpha)
    m = round(1 / sup_scan(win, dec, x, length, kind).grid_spacing)
    mags = np.abs(np.fft.rfft(win.segment(x, x + length), m))
    points = arcs._major_bins(dec, m, m // 2, 0.0, True) ^ (kind == "minor")
    scanned = np.flatnonzero(points)
    top = sorted(scanned, key=lambda k: -mags[k])[:5]
    assert sorted(round(s * m) for s in got) == sorted(top)
    assert len(scanned) < 5 if h == 10**8 else len(scanned) > 5


def test_sup_scan_grid_budget():
    win = sieve_window(ONE, 1, 2 * 10**6)
    dec = decompose(2, 10**5, 0.05)
    with pytest.raises(BudgetError):
        sup_scan(win, dec, 1, 2 * 10**6 - 1, "minor")


def test_sup_scan_grid_budget_boundary(monkeypatch):
    # 64 (L + 1) points, rounded up to a power of two: L = 63 fills 2^12
    # exactly, L = 64 needs 2^13 and is refused before any transform.
    monkeypatch.setattr(arcs, "MAX_GRID_POINTS", 1 << 12)
    dec = decompose(2, 32, 0.05)
    win = sieve_window(ONE, 1000, 1064)
    assert sup_scan(win, dec, 1000, 63, "minor").grid_spacing == 2.0**-12
    calls = []
    for name in ("rfft", "ifft"):
        monkeypatch.setattr(np.fft, name, lambda *a, **k: calls.append(a))
    with pytest.raises(BudgetError, match="8192"):
        sup_scan(win, dec, 1000, 64, "minor")
    assert calls == []


@pytest.mark.parametrize("m, kind, points, cells", [
    # one arc at 0, beta * M = 4.04: cell 4 straddles the edge, its centre
    # inside the arc, so it is a major point but also a minor cell
    (64, "major", range(0, 5), range(0, 5)),
    (64, "minor", range(5, 33), range(4, 33)),
    # beta * M = 0.505: cell 1 straddles the edge from outside
    (8, "major", [0], [0, 1]),
    (8, "minor", range(1, 5), range(1, 5)),
])
def test_scan_cells_that_meet_the_arc_set(m, kind, points, cells):
    dec = decompose(2, 100, 0.05)
    pad = arcs._CELL_PAD if kind == "major" else -arcs._CELL_PAD
    got = [arcs._major_bins(dec, m, m // 2, p, True) for p in (0.0, pad)]
    if kind == "minor":
        got = [~g for g in got]
    assert [np.flatnonzero(g).tolist() for g in got] == [list(points), list(cells)]


def _in_arc_set(dec, kind, alphas, slack=0.0):
    """Which alphas lie in the closed major arcs, or in the minor set, with
    the arc ends moved out by slack."""
    centers = np.array([float(a.center) % 1.0 for a in dec.major])
    dist = np.abs((alphas[:, None] - centers + 0.5) % 1.0 - 0.5).min(axis=1)
    return dist <= dec.beta + slack if kind == "major" else dist >= dec.beta - slack


def _reference_minor_clamp(dec):
    """The minor clamp as arcs once made it: the complement of the arcs in
    [1/Q, 1 + 1/Q) as float intervals, trying alpha and alpha + 1 in each."""
    lo, hi = float(dec.domain[0]), float(dec.domain[1])
    cuts = sorted((max(lo, float(a.center) - dec.beta), min(hi, float(a.center) + dec.beta))
                  for a in dec.major)
    intervals, cursor = [], lo
    for a, b in cuts:
        if a > cursor:
            intervals.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        intervals.append((cursor, hi))

    def clamp(alpha):
        al = alpha % 1.0
        best, bdist = None, math.inf
        for a, b in intervals:
            for cand in (al, al + 1.0):
                if a <= cand <= b:
                    return al
                t = min(max(cand, a), b)
                if abs(t - cand) < bdist:
                    bdist, best = abs(t - cand), t % 1.0
        return best

    return clamp


def _reference_nearest(dec, alpha):
    """The nearest-centre loop, first of equal distances kept."""
    best, best_g = None, math.inf
    for arc in dec.major:
        for shift in (-1.0, 0.0, 1.0):
            g = (alpha % 1.0) + shift - (float(arc.center) % 1.0)
            if abs(g) < abs(best_g):
                best, best_g = arc, g
    return best, best_g


@pytest.mark.parametrize("q, h", [(2, 100), (3, 300), (9, 3000), (40, 10**8)])
def test_nearest_center_matches_the_loop(q, h):
    # Equal results, ties included: alpha halfway between two centres, and
    # 1/4 at Q = 3, the midpoint of 1/2 and 1 that a grid k/M can hit.
    dec = decompose(q, h, 0.05)
    centers = [float(a.center) for a in dec.major]
    mids = [(a + b) / 2 for a, b in zip(centers, centers[1:])]
    draws = np.random.default_rng(q).uniform(-2.0, 3.0, 200).tolist()
    for alpha in draws + mids + [0.25, 0.75, 0.0, 1.0, -0.5, 0.5]:
        assert arcs._nearest(dec, alpha) == _reference_nearest(dec, alpha), alpha


def _circle_distance(a, b):
    return np.abs((np.asarray(a) - b + 0.5) % 1.0 - 0.5)


@pytest.mark.parametrize("kind", ["major", "minor"])
@pytest.mark.parametrize("q, h", [(2, 100), (3, 300), (5, 10**4), (9, 3000)])
def test_clamp_moves_to_the_nearest_point_of_the_arc_set(kind, q, h):
    dec = decompose(q, h, 0.05)
    clamp = arcs._make_clamp(dec, kind)
    draws = np.random.default_rng(q * h).uniform(-2.0, 3.0, 300)
    edges = [float(a.center) + s * dec.beta for a in dec.major for s in (-1, 1)]
    alphas = np.concatenate([draws, edges, np.array(edges) + 1.0])
    got = np.array([clamp(a) for a in alphas])
    # an arc end c + beta, and its distance from c, are float sums: a moved
    # point can miss the closed set by rounding, as this measure of it can
    assert _in_arc_set(dec, kind, got, slack=2.0**-50).all()
    inside = _in_arc_set(dec, kind, draws % 1.0)
    assert 0 < inside.sum() < len(draws)
    assert (got[: len(draws)][inside] == draws[inside] % 1.0).all()
    grid = np.arange(1 << 15) / (1 << 15)
    sample = grid[_in_arc_set(dec, kind, grid)]
    for alpha, t in zip(alphas, got):
        assert _circle_distance(alpha, t) <= _circle_distance(alpha, sample).min() + 1e-15
    if kind == "minor":
        reference = _reference_minor_clamp(dec)
        assert max(_circle_distance(reference(a), t) for a, t in zip(alphas, got)) <= 1e-15


def _unit_euler(bound):
    rng = np.random.default_rng(bound)
    return MultSpec.user_euler(
        {(int(p), e): cmath.exp(2j * math.pi * rng.uniform())
         for p in multfunc.primes_up_to(bound) for e in range(1, 16)},
        k_bound=1,
    )


@pytest.mark.parametrize("kind", ["major", "minor"])
@pytest.mark.parametrize("family", ["tau", "moebius", "one_star_chi4", "complex"])
def test_sup_scan_certificate_bounds_every_alpha(family, kind):
    x, length = 5000, 600
    spec = {
        "tau": MultSpec.ramanujan_tau_norm,
        "moebius": MultSpec.moebius,
        "one_star_chi4": MultSpec.one_star_chi4,
        "complex": lambda: _unit_euler(x + length),
    }[family]()
    dec = decompose(4, length // 2, 0.05)
    win = sieve_window(spec, x, x + length)
    rep = sup_scan(win, dec, x, length, kind)
    assert rep.sup_abs <= rep.sup_upper <= rep.sup_abs + 0.01 * rep.trivial_bound
    draws = np.random.default_rng(len(family) + len(kind)).uniform(size=4000)
    alphas = draws[_in_arc_set(dec, kind, draws)][:200]
    assert len(alphas) == 200
    # and a cell's width on each side of the attained sup, where |S| comes
    # closest to the certificate
    near = (rep.argmax_alpha + rep.grid_spacing / 8 * np.arange(-8, 9)) % 1.0
    for alpha in np.concatenate([alphas, near[_in_arc_set(dec, kind, near)]]):
        assert abs(short_exp_sum(win, x, length, alpha).value) <= rep.sup_upper, alpha


def test_benchmark_tau_scan_certificate_is_tight():
    x, h = 10**5, 3000
    q = largest_disjoint_q(resolve_q("preset:thm14", x, h, Fraction(1, 20)), h, 0.05)
    dec = decompose(q, h, 0.05)
    win = sieve_window(MultSpec.ramanujan_tau_norm(), x, x + 2 * h)
    rep = sup_scan(win, dec, x, 2 * h, "minor")
    assert q == 9 and (rep.nearest_q, rep.nearest_a) == (1, 1)
    assert rep.grid_spacing == 2.0**-19
    assert rep.sup_abs <= rep.sup_upper <= rep.sup_abs + 0.01 * rep.trivial_bound
    assert rep.sup_abs == pytest.approx(127.83415195402858, rel=1e-12)
    assert rep.argmax_alpha == pytest.approx(0.012844963073730469, rel=1e-12)


# ---------------------------------------------------------------------------
# Major-arc model


def test_major_arc_model_examples():
    r = major_arc_model(ONE, 1.0, 1, 1, 0.0, 1000, 50)
    assert r.model == pytest.approx(100.0)
    assert r.actual == pytest.approx(101.0)
    assert r.residual == pytest.approx(1.0)
    r = major_arc_model(ONE, 0.0, 2, 1, 0.0, 1000, 50)
    assert abs(r.actual) <= 1.0 + 1e-9  # alternating sum over odd count
    assert r.residual <= 1.0 + 1e-9


def test_major_arc_model_witness_at_center():
    osc = MultSpec.one_star_chi4()
    x, h = 10**5, 10**4
    r = major_arc_model(osc, math.pi / 4, 1, 1, 0.0, x, h)
    assert r.residual <= 0.05 * abs(r.actual)


def test_major_arc_model_gamma_limit_continuity():
    # closed form must approach the gamma = 0 limit smoothly
    a = major_arc_model(ONE, 1.0, 1, 1, 0.0, 5000, 100)
    b = major_arc_model(ONE, 1.0, 1, 1, 1e-12, 5000, 100)
    assert abs(a.model - b.model) < 1e-4


def test_major_arc_model_gcd_guard():
    with pytest.raises(DomainError):
        major_arc_model(ONE, 1.0, 4, 2, 0.0, 100, 10)


def test_major_arc_model_main_term_only_off_witness():
    r = major_arc_model(ONE, 1.0, 1, 1, 0.01, 1000, 50)
    assert r.dual_cutoff == 0


# Sizes criterion 9 does not use.  At q = 5 every G(a, k; q) is nonzero; at
# q = 8 only even k survive, so both resonances sit at |k| = 10.
@pytest.mark.parametrize("q,a", [(5, 2), (8, 3)])
def test_witness_dual_terms_converge_past_stationary_point(q, a):
    osc = MultSpec.one_star_chi4()
    x, h = 2 * 10**4, 2000
    beta = h**-0.6
    resonance = 10 / (2 * q * math.sqrt(x + h))
    units, dens, _ = local_densities(osc, q, 2 * 10**5, WindowCache())
    density = complex(dens[units.tolist().index(a)])
    win = sieve_window(osc, x, x + 2 * h)

    for gamma in (0.0, beta, -beta, resonance, -resonance):
        r = major_arc_model(osc, density, q, a, gamma, x, h, window=win)
        cutoff = r.dual_cutoff
        assert cutoff == math.ceil(2 * q * abs(gamma) * math.sqrt(x + 2 * h)) + DUAL_MARGIN
        # the residual at another K: main term plus the dual terms |k| <= K
        phase = cmath.exp(2j * math.pi * gamma * (x + h))
        main = density * 2 * h * float(np.sinc(2 * gamma * h)) * phase

        def residual(k):
            dual = arcs._witness_dual_terms(q, a, gamma, x, h, k)
            return abs(r.actual - main - phase * dual)

        assert residual(cutoff) == pytest.approx(r.residual, rel=1e-6, abs=1e-6)
        # past the stationary point the residual stays small as K grows
        scale = 0.1 * max(abs(r.actual), math.sqrt(x))
        for k in (cutoff, cutoff + 8, 2 * cutoff):
            assert residual(k) <= scale, (gamma, k)
        # stopping short of the stationary range 2q|gamma|[sqrt(x), sqrt(x+2H)]
        # leaves the resonance out
        short = max(0, math.floor(2 * q * abs(gamma) * math.sqrt(x)) - 1)
        if gamma == 0.0:
            assert r.residual < residual(short)
        else:
            assert r.residual <= 0.25 * residual(short), gamma
