"""Characters, Gauss sums, mean densities, singular series."""

import math
import random
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from terncorr.dirichlet import (
    characters_mod,
    euler_phi,
    gauss_sum,
    local_densities,
    mean_density,
    moebius,
    singular_coefficient,
    singular_series_sum,
    twisted_progression_check,
)
from terncorr import dirichlet, multfunc
from terncorr.errors import BudgetError, DomainError
from terncorr.multfunc import MultSpec, WindowCache, spec_from_id

N_FAST = 2 * 10**5  # density scale for the quicker checks here

ONE = MultSpec.divisor_k(1)
OSC = MultSpec.one_star_chi4()
CACHE = WindowCache(max_items=96)


# Closed forms for the simple-pole witness, derived from its Euler factors:
# C_1 = pi/4, C_p = chi4(p) pi/(4p) for odd primes, C_{p^2} = pi/(4 p^2),
# and every even q vanishes.
WITNESS_CLOSED_FORMS = {
    1: math.pi / 4,
    2: 0.0,
    3: -math.pi / 12,
    4: 0.0,
    5: math.pi / 20,
    6: 0.0,
}


# ---------------------------------------------------------------------------
# Group construction


def test_group_sizes_and_examples():
    g1 = characters_mod(1)
    assert len(g1) == 1 and g1.principal.values[0] == 1
    assert g1.principal.is_primitive
    assert len(characters_mod(8)) == 4
    g5 = characters_mod(5)
    assert any(abs(chi(2) - 1j) < 1e-12 for chi in g5.characters)


def test_principal_first_and_flags():
    for q in (1, 2, 7, 12, 40):
        group = characters_mod(q)
        assert group.characters[0].is_principal
        assert sum(c.is_principal for c in group.characters) == 1
        assert len(group) == euler_phi(q)
        for chi in group.characters:
            n = np.arange(q)
            units = np.array([math.gcd(int(v), q) == 1 for v in n]) if q > 1 else np.array([True])
            assert (np.abs(chi.values[units]) - 1 < 1e-12).all()
            assert (chi.values[~units] == 0).all()


def test_complete_multiplicativity():
    rng = random.Random(3)
    for q in (5, 8, 12, 36):
        for chi in characters_mod(q).characters:
            for _ in range(30):
                a, b = rng.randint(0, 3 * q), rng.randint(0, 3 * q)
                assert chi(a * b) == pytest.approx(chi(a) * chi(b), abs=1e-12)
            assert chi(1) == 1
            assert chi(1 + q) == pytest.approx(chi(1), abs=1e-12)


def test_orthogonality_to_1e9():
    for q in range(1, 101):
        group = characters_mod(q)
        mat = np.array([c.values for c in group.characters])
        gram = mat @ mat.conj().T
        assert np.abs(gram - np.eye(len(group)) * euler_phi(q)).max() < 1e-9, q


def test_primitive_counts_partition_group():
    # phi(q) characters mod q = sum over d | q of primitive characters mod d
    for q in (12, 24, 36, 40, 45, 48, 50):
        total = sum(
            sum(1 for c in characters_mod(d).characters if c.is_primitive)
            for d in range(1, q + 1)
            if q % d == 0
        )
        assert total == euler_phi(q), q


def _brute_conductor(chi):
    """The least d | q with chi periodic mod d on the units mod q."""
    q = chi.modulus
    units = np.array([n for n in range(q) if math.gcd(n, q) == 1])
    for d in range(1, q + 1):
        if q % d:
            continue
        first = {}  # the value at the first unit of each class mod d
        for n in units:
            first.setdefault(n % d, chi.values[n])
        if all(abs(chi.values[n] - first[n % d]) < 1e-9 for n in units):
            return d


def test_is_primitive_matches_brute_force_conductor():
    for q in range(1, 101):
        for chi in characters_mod(q).characters:
            assert chi.is_primitive == (_brute_conductor(chi) == q), (q, chi.index)


def test_principal_character_matches_group():
    for q in (1, 2, 12, 49, 60):
        chi = dirichlet.principal_character(q)
        ref = characters_mod(q).principal
        assert np.array_equal(chi.values, ref.values)
        assert (chi.index, chi.is_principal, chi.is_primitive) == (
            ref.index, ref.is_principal, ref.is_primitive)


def test_modulus_budget():
    with pytest.raises(BudgetError):
        characters_mod(10**6 + 1)
    with pytest.raises(BudgetError):
        characters_mod(999_983)  # prime: phi*q blows the table budget
    with pytest.raises(DomainError):
        characters_mod(0)


# ---------------------------------------------------------------------------
# Gauss sums


def test_gauss_sum_examples():
    assert gauss_sum(characters_mod(1).principal) == 1
    assert abs(gauss_sum(characters_mod(4).principal)) < 1e-12
    chi3 = [c for c in characters_mod(3).characters if not c.is_principal][0]
    assert gauss_sum(chi3) == pytest.approx(1j * math.sqrt(3), abs=1e-12)


def test_gauss_sum_modulus_and_ramanujan():
    for q in range(1, 51):
        # brute-force Ramanujan sum oracle for the principal character
        cq1 = sum(
            complex(np.exp(2j * np.pi * m / q))
            for m in range(1, q + 1)
            if math.gcd(m, q) == 1
        )
        for chi in characters_mod(q).characters:
            t = gauss_sum(chi)
            if chi.is_primitive:
                assert abs(abs(t) - math.sqrt(q)) <= 1e-9
            if chi.is_principal:
                assert abs(t - cq1) <= 1e-9
                assert abs(t - moebius(q)) <= 1e-9


# ---------------------------------------------------------------------------
# Mean densities


def test_mean_density_constant_function():
    d = mean_density(ONE, 1, 1, characters_mod(1).principal, 10**6, CACHE)
    assert d.estimate == pytest.approx(1.0, abs=1e-6)
    assert d.error_gap == 0.0
    d = mean_density(ONE, 1, 2, characters_mod(2).principal, 10**6, CACHE)
    assert d.estimate == pytest.approx(0.5, abs=1e-5)  # density of odd integers


def test_mean_density_witness_is_quarter_pi():
    # independent oracle: the Leibniz value L(chi4, 1) = pi/4
    d = mean_density(OSC, 1, 1, characters_mod(1).principal, 10**6, CACHE)
    assert d.estimate.real == pytest.approx(math.pi / 4, abs=5e-3)
    assert not d.expected_zero


def test_mean_density_flags_polefree():
    tau = MultSpec.ramanujan_tau_norm()
    d = mean_density(tau, 1, 1, characters_mod(1).principal, 2 * 10**4, CACHE)
    assert d.expected_zero
    assert abs(d.estimate) < 0.05


def test_mean_density_validation():
    with pytest.raises(DomainError):
        mean_density(ONE, 1, 3, characters_mod(2).principal, 1000, CACHE)


# ---------------------------------------------------------------------------
# Singular coefficients and series


def test_singular_coefficient_constant():
    c1, gap1 = singular_coefficient(ONE, 1, N_FAST, CACHE)
    assert c1 == pytest.approx(1.0, abs=1e-6) and gap1 == 0.0
    assert abs(singular_coefficient(ONE, 2, N_FAST, CACHE)[0]) < 1e-4


@pytest.mark.parametrize("q", sorted(WITNESS_CLOSED_FORMS))
def test_witness_coefficients_match_closed_forms(q):
    got, _ = singular_coefficient(OSC, q, 10**6, CACHE)
    assert got.real == pytest.approx(WITNESS_CLOSED_FORMS[q], abs=7e-3)
    assert abs(got.imag) < 1e-12


def test_mean_density_int64_sum_does_not_wrap():
    # sum_{n <= 2*10^6} d_40(n) exceeds 2^64, so an int64 sum would wrap.
    spec, n_terms, cache = MultSpec.divisor_k(40), 2 * 10**6, WindowCache()
    got = mean_density(spec, 1, 1, characters_mod(1).principal, n_terms, cache)
    vals = cache.window(spec, 1, 1, n_terms).values.astype(object)
    half = n_terms // 2
    s_half, s_full = vals[:half].sum(), vals.sum()
    assert s_full >= 2**64
    # the float formula of mean_density applied to the exact Python-int sums
    mean_full, mean_half = complex(s_full) / n_terms, complex(s_half) / half
    assert got.estimate == 2.0 * mean_full - mean_half
    assert got.error_gap == abs(mean_full - mean_half)
    # a character mod 3 dots the exact class sums, which pass 2^63 as well
    chi = characters_mod(3).characters[1]
    got = mean_density(spec, 1, 3, chi, n_terms, cache)
    res = np.arange(1, n_terms + 1) % 3
    rows = [[vals[:m][res[:m] == r].sum() for r in range(3)] for m in (half, n_terms)]
    assert max(rows[1]) >= 2**63
    s_half, s_full = (complex(chi.values @ np.array(row, np.complex128)) for row in rows)
    assert got.estimate == _means(s_half, s_full, n_terms)[0]


N_ODD = 20001  # odd, so that n_terms // 2 // d and n_terms // d both round down


def _divisor_pairs(q):
    """Every (q0, q1) with q0 * q1 = q, as local_densities visits them."""
    return [(q // q1, q1) for q1 in range(1, q + 1) if q % q1 == 0]


def _means(s_half, s_full, n_terms):
    """mean_density's float formula on the two sums: (estimate, error_gap)."""
    mean_full, mean_half = complex(s_full) / n_terms, complex(s_half) / (n_terms // 2)
    return 2.0 * mean_full - mean_half, abs(mean_full - mean_half)


@pytest.mark.parametrize("sid", ["divisor2", "divisor3", "moebius", "one_star_chi4"])
def test_principal_density_matches_object_sums(sid):
    # Exact sums over the n coprime to q1, in Python ints, against the
    # Moebius prefix route; q1 runs over every divisor of q, squarefree or
    # not, as local_densities uses them.
    spec = spec_from_id(sid)
    sums = {}  # shared across q, as singular_series_sum shares it
    n = np.arange(1, N_ODD + 1)
    half = N_ODD // 2
    for q in [*range(1, 13), 30, 49]:
        for q0, q1 in _divisor_pairs(q):
            vals = CACHE.window(spec, q0, 1, N_ODD).values.astype(object)
            coprime = np.gcd(n, q1) == 1
            s_half = vals[:half][coprime[:half]].sum()
            s_full = vals[coprime].sum()
            got = mean_density(spec, q0, q1, characters_mod(q1).principal, N_ODD,
                               CACHE, sums)
            expect = _means(s_half, s_full, N_ODD)
            assert (got.estimate, got.error_gap) == expect, (q0, q1)


def _complex_rule():
    bound = 12 * N_ODD
    return MultSpec.user_euler(
        {(p, e): complex(math.cos(0.37 * p + 1.1 * e), math.sin(0.37 * p + 1.1 * e))
         for p in map(int, multfunc.primes_up_to(bound))
         for e in range(1, int(math.log(bound, p)) + 1)},
        k_bound=1,
    )


@pytest.mark.parametrize("spec", [MultSpec.ramanujan_tau_norm(), _complex_rule()],
                         ids=["tau", "complex"])
def test_principal_density_float_families_match_tiled_route(spec):
    # Float sums round differently on the two routes; they agree to
    # 1e-12 of the mean absolute value.
    cache = WindowCache()
    half = N_ODD // 2
    for q in range(1, 13):
        for q0, q1 in _divisor_pairs(q):
            chi = characters_mod(q1).principal
            vals = cache.window(spec, q0, 1, N_ODD).values
            # chi(n) for n = 1..N_ODD, by tiling one period
            period = chi.values[(np.arange(q1) + 1) % q1].real
            prods = vals * np.tile(period, -(-N_ODD // q1))[:N_ODD]
            s_half = complex(prods[:half].sum())
            tiled, _ = _means(s_half, s_half + complex(prods[half:].sum()), N_ODD)
            got = mean_density(spec, q0, q1, chi, N_ODD, cache)
            scale = np.abs(vals).sum() / N_ODD
            assert abs(got.estimate - tiled) <= 1e-12 * scale, (q0, q1)


@pytest.mark.parametrize("peak", [0, 5, (1 << 62) - 1])
def test_prefix_sum_chunks_do_not_wrap(peak):
    # With peak near 2^62 the int64 chunks hold 2 terms, and the prefix
    # lengths below fall on and off the chunk edges.
    rng = np.random.default_rng(7)
    values = rng.integers(-peak, peak, size=1001, endpoint=True, dtype=np.int64)
    values[500] = peak
    win = multfunc.CoefficientWindow(lo=1, hi=1001, q0=1, values=values)
    assert win.peak == peak
    exact = values.astype(object)
    for m in (0, 1, 2, 3, 500, 1000, 1001):
        assert dirichlet._prefix_sum(win, m) == exact[:m].sum(), m


@pytest.mark.parametrize("peak", [0, 5, (1 << 62) - 1])
def test_class_sums_are_exact(peak):
    # With peak near 2^62 a column of two or more terms goes through
    # exact_sum, one term stays int64; the cuts fall below q1, on a
    # multiple of q1 and off it.
    rng = np.random.default_rng(11)
    values = rng.integers(-peak, peak, size=1001, endpoint=True, dtype=np.int64)
    values[500] = peak
    win = multfunc.CoefficientWindow(lo=1, hi=1001, q0=1, values=values)
    exact = values.astype(object)
    n = np.arange(1, 1002)
    for q1 in (1, 2, 3, 7, 49):
        for m in sorted({0, 1, q1 - 1, q1, q1 + 1, 7 * q1, 7 * q1 + 3, 1000, 1001}):
            expect = [sum(exact[:m][n[:m] % q1 == r]) for r in range(q1)]
            assert list(dirichlet._class_sums(win, q1, m)) == expect, (q1, m)


@pytest.mark.parametrize("q1", [3, 4, 5, 8, 12, 49])
@pytest.mark.parametrize("sid", ["divisor3", "one_star_chi4"])
def test_nonprincipal_density_matches_object_sums(sid, q1):
    # Python-int class sums times the character table, against the
    # memoised class sums of mean_density; only the float dot products
    # round, so they agree to 1e-13 of the mean absolute class sum.
    spec = spec_from_id(sid)
    n = np.arange(1, N_ODD + 1)
    half = N_ODD // 2
    for q0 in (1, 2):
        vals = CACHE.window(spec, q0, 1, N_ODD).values.astype(object)
        exact = [[sum(vals[:m][n[:m] % q1 == r]) for r in range(q1)]
                 for m in (half, N_ODD)]
        scale = sum(abs(x) for x in exact[1]) / N_ODD
        sums = {}
        for chi in characters_mod(q1).characters[1:]:
            s_half, s_full = (sum(complex(chi.values[r]) * x for r, x in enumerate(row))
                              for row in exact)
            got = mean_density(spec, q0, q1, chi, N_ODD, CACHE, sums)
            expect, gap = _means(s_half, s_full, N_ODD)
            assert abs(got.estimate - expect) <= 1e-13 * scale, (q0, chi.index)
            assert abs(got.error_gap - gap) <= 1e-13 * scale, (q0, chi.index)


def test_witness_coefficients_match_progression_densities():
    # direct cross-check of C_3 against raw progression densities at two
    # scales, with no character machinery: C_3 = (1/3) mean f(3n) - (1/2)
    # times the density of f on integers coprime to 3.
    n_terms = 10**6
    win3 = CACHE.window(OSC, 3, 1, n_terms)
    mean_f3 = float(win3.values.sum()) / n_terms
    win1 = CACHE.window(OSC, 1, 1, n_terms)
    n = np.arange(1, n_terms + 1)
    coprime = float(win1.values[n % 3 != 0].sum()) / n_terms
    direct = mean_f3 / 3.0 - coprime / 2.0
    got, _ = singular_coefficient(OSC, 3, n_terms, CACHE)
    assert got.real == pytest.approx(direct, abs=2e-3)


@pytest.mark.parametrize("sid", ["divisor2", "moebius", "one_star_chi4"])
def test_local_densities_unit_mean_is_singular_coefficient(sid):
    # the non-principal terms cancel in the mean over the units a
    spec = spec_from_id(sid)
    for q in range(1, 13):
        units, dens, _ = local_densities(spec, q, N_FAST, CACHE)
        assert units.tolist() == [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        c_q, _ = singular_coefficient(spec, q, N_FAST, CACHE)
        assert abs(dens.mean() - c_q) < 1e-12, q


def test_witness_local_densities_closed_form():
    # r_2 = 4 (1*chi4) counts lattice points, so the density of f(n) e(an/q)
    # is pi G(a,0;q)^2 / (4 q^2), G(a,0;q) = sum_{r mod q} e(a r^2 / q).
    # The gap |m(N) - m(N/2)| of the partial means is an error scale, not a
    # bound: the estimate 2 m(N) - m(N/2) carries 2 e(N) - e(N/2).  The
    # measured worst |error|/gap was 1.10 at N = 2e5 and 1.74 at N = 1e6.
    for q in range(1, 13):
        units, dens, gaps = local_densities(OSC, q, N_FAST, CACHE)
        for a, got, gap in zip(units, dens, gaps):
            gauss = sum(np.exp(2j * np.pi * (a * r * r % q) / q) for r in range(q))
            assert abs(got - math.pi * gauss**2 / (4 * q * q)) <= 3.0 * gap, (q, a)
    # the chi4-twisted pole: +-i pi/8 at q = 4, where C_4 = 0
    units, dens, gaps = local_densities(OSC, 4, 10**6, CACHE)
    assert units.tolist() == [1, 3]
    assert np.all(np.abs(dens - np.array([1j, -1j]) * math.pi / 8) <= 3.0 * gaps)


@pytest.mark.parametrize("sid", ["divisor3", "one_star_chi4", "moebius", "tau"])
def test_local_densities_match_character_free_sums(sid):
    # The estimate is linear in the partial sums, so with no characters
    # C(a, q) = sum_{q0 | q} (2 B(N)/N - B(N/2)/(N/2)) / q0, where
    # B(M) = sum_{m <= M, (m, q/q0) = 1} f(q0 m) e(a m q0 / q).
    spec = spec_from_id(sid)
    m = np.arange(1, N_ODD + 1)
    half = N_ODD // 2
    scale = np.abs(CACHE.window(spec, 1, 1, N_ODD).values).mean()
    sums = {}  # shared across q, as the table's callers share it
    for q in range(1, 13):
        units, dens, _ = local_densities(spec, q, N_ODD, CACHE, sums)
        for a, got in zip(units, dens):
            expect = 0j
            for q0, q1 in _divisor_pairs(q):
                terms = CACHE.window(spec, q0, 1, N_ODD).values * np.where(
                    np.gcd(m, q1) == 1, np.exp(2j * np.pi * (a * m % q1) / q1), 0)
                b_half, b_full = terms[:half].sum(), terms.sum()
                expect += (2 * b_full / N_ODD - b_half / half) / q0
            assert abs(got - expect) <= 1e-13 * scale, (q, a)


def test_series_constant_function():
    series = singular_series_sum(ONE, 50, N_FAST, cache=CACHE)
    assert series.series_value == pytest.approx(1.0, abs=1e-3)
    assert series.series_imag == 0.0
    assert series.tail_estimate < 1e-6
    assert len(series.c_table) == 49


def test_series_witness_golden_value():
    # Golden number recorded from the first verified run at Q=50, N=1e6
    # (cross-checked against the q<=6 closed forms and the Euler-product
    # estimate 0.4578 of the full series).
    series = singular_series_sum(OSC, 50, 10**6, cache=CACHE, threads=4)
    assert series.series_value == 0.45798189343971213
    assert abs(series.series_imag) <= 1e-6 * abs(series.series_value)
    assert series.tail_estimate < 0.02
    # fitted envelope should sit near |C_q| ~ (pi/4) / q
    assert series.fit_c == pytest.approx(math.pi / 4, rel=0.2)
    assert abs(series.fit_delta) < 0.2


@pytest.mark.parametrize("threads", [1, 2])
def test_series_builds_each_window_once(monkeypatch, threads):
    # Memory holds fewer windows than the 29 q0 < 30; the q-loop must still
    # reduce over the windows already built instead of sieving them again.
    reference = singular_series_sum(OSC, 30, 5000, cache=WindowCache(max_items=64))
    sieved = []
    segment = multfunc._sieve_segment

    def counting(spec, q0s, *args):
        sieved.extend(q0s)
        return segment(spec, q0s, *args)

    monkeypatch.setattr(multfunc, "_sieve_segment", counting)
    cache = WindowCache(max_items=8)
    series = singular_series_sum(OSC, 30, 5000, cache=cache, threads=threads)
    assert sorted(sieved) == list(range(1, 30))
    assert cache.counts()["builds"] == 29
    assert np.array_equal(series.c_table, reference.c_table)
    assert series.series_value == reference.series_value


@pytest.mark.parametrize("sid, segment, threads", [
    ("one_star_chi4", 2500, 1), ("one_star_chi4", 4999, 2),
    ("divisor3", 4999, 2), ("moebius", 2500, 2), ("one_star_chi4", 2500, 4),
])
def test_streamed_segments_match_whole_windows(monkeypatch, tmp_path, sid, segment,
                                               threads):
    # Windows of several segments (2500 puts segment ends on the cuts 5000,
    # 10000 and 20000, 4999 a segment start on the cut 5000): each exact
    # prefix sum comes in per-segment pieces and each cache file is written
    # segment by segment, and both equal what whole windows give, as does a
    # warm run that reads the files back.  Four workers with a short switch
    # interval would show a lost update to the shared sums.
    spec, q_cut, n_terms = spec_from_id(sid), 50, 20000
    whole = [multfunc.window_on_progression(spec, q0, 1, n_terms)
             for q0 in range(1, q_cut)]
    held = WindowCache(max_items=64)
    for win in whole:
        held._store(win)
    reference = singular_series_sum(spec, q_cut, n_terms, cache=held)
    assert held.counts()["memory_hits"] == 49 and held.counts()["builds"] == 0
    monkeypatch.setattr(multfunc, "_SEGMENT", segment)
    directory = tmp_path / "cache"
    cache = WindowCache(directory)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        streamed = singular_series_sum(spec, q_cut, n_terms, cache=cache,
                                       threads=threads)
    finally:
        sys.setswitchinterval(switch)
    assert cache.counts() == {"memory_hits": 0, "disk_reads": 0, "builds": 49,
                              "disk_writes": 49}
    warm = singular_series_sum(spec, q_cut, n_terms, cache=WindowCache(directory))
    for got in (streamed, warm):
        assert np.array_equal(got.c_table, reference.c_table)
        assert np.array_equal(got.c_errors, reference.c_errors)
        assert got.series_value == reference.series_value
    assert len(list(directory.iterdir())) == 49  # no temporary file is left
    for win in whole:
        multfunc.write_window_cache(win, tmp_path / "whole.bin")
        name = multfunc.cache_file_name(spec, win.q0, 1, n_terms)
        assert (directory / name).read_bytes() == (tmp_path / "whole.bin").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_series_keeps_at_most_one_window_per_thread(monkeypatch, threads):
    # 49 windows of 10^5 int64 values take 39 MB; the stream reduces each
    # as it is assembled, so at most `threads` of them are alive at once.
    refs, most, lock = [], [0], threading.Lock()
    prefix_sum = dirichlet._prefix_sum

    def counting(win, m):
        with lock:
            if not any(r() is win for r in refs):
                refs.append(weakref.ref(win))
            most[0] = max(most[0], sum(r() is not None for r in refs))
        return prefix_sum(win, m)

    monkeypatch.setattr(dirichlet, "_prefix_sum", counting)
    n_terms = 10**5
    tracemalloc.start()
    try:
        singular_series_sum(OSC, 50, n_terms, cache=WindowCache(), threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(refs) == 49 and 1 <= most[0] <= threads
    assert peak < 12 * 8 * n_terms, peak  # the sieve's arrays and `threads` windows


def _real_rule(bound):
    return MultSpec.user_euler(
        {(p, e): math.cos(0.37 * p + 1.1 * e)
         for p in map(int, multfunc.primes_up_to(bound))
         for e in range(1, int(math.log(bound, p)) + 1)},
        k_bound=1,
    )


@pytest.mark.parametrize("spec", [MultSpec.ramanujan_tau_norm(), _real_rule(29 * 4000)],
                         ids=["tau", "real-rule"])
def test_float_series_matches_per_window_sums(spec):
    # Float windows are reduced whole, through the prefix sums a per-window
    # route forms, so the table keeps its bits.
    q_cut, n_terms = 30, 4000
    series = singular_series_sum(spec, q_cut, n_terms, cache=WindowCache(), threads=2)
    cache = WindowCache(max_items=64)
    expect = [singular_coefficient(spec, q, n_terms, cache, {}) for q in range(1, q_cut)]
    assert series.c_table.tolist() == [c for c, _ in expect]
    assert series.c_errors.tolist() == [e for _, e in expect]


def test_series_value_below_is_a_shorter_series():
    # A prefix of one table gives, bit for bit, the series summed to that Q.
    whole = singular_series_sum(OSC, 20, 5000, cache=CACHE)
    for q in (2, 7, 9, 20):
        part = singular_series_sum(OSC, q, 5000, cache=CACHE)
        assert whole.value_below(q) == part.series_value
    for q in (1, 21):
        with pytest.raises(DomainError):
            whole.value_below(q)


def test_series_builds_no_character_table(monkeypatch):
    def refuse(q):
        raise AssertionError(f"characters_mod({q}) called")

    monkeypatch.setattr(dirichlet, "characters_mod", refuse)
    series = singular_series_sum(OSC, 50, 10**4, cache=WindowCache())
    assert len(series.c_table) == 49


def test_twisted_terms_match_principal_series():
    # The ternary singular series with every character term,
    # sum_q sum_a C(a, q)^2 C(-2a/q) over the units a mod q, against the
    # principal-only sum phi(q) C_q^3 that singular_series_sum reports.
    # The series keeps no window, so one joint build warms every window
    # the tables read.
    q_cut, n_terms, cache = 50, 2 * 10**5, WindowCache(max_items=96)
    for win in multfunc._build_windows(OSC, range(1, q_cut), 1, n_terms):
        cache._store(win)
    series = singular_series_sum(OSC, q_cut, n_terms, cache=cache)
    dens, sums = {}, {}
    for q in range(1, q_cut):
        units, c, _ = local_densities(OSC, q, n_terms, cache, sums)
        dens.update(((q, a % q), x) for a, x in zip(units.tolist(), c.tolist()))
    total = 0j
    for (q, a), c in dens.items():
        g = math.gcd(2, q)  # -2a/q in lowest terms
        total += c * c * dens[(q // g, (-2 * a // g) % (q // g))]
    assert abs(total - series.series_value) <= 1e-4


def test_series_byte_budget_is_checked_before_any_window(monkeypatch):
    # 49 windows of 1000 int64 values take 392000 bytes: admitted at that
    # budget, refused one byte below it, before any window is built.
    monkeypatch.setattr(dirichlet, "MAX_SERIES_BYTES", 49 * 1000 * 8)
    singular_series_sum(OSC, 50, 1000, cache=WindowCache())
    monkeypatch.setattr(dirichlet, "MAX_SERIES_BYTES", 49 * 1000 * 8 - 1)
    cache = WindowCache()
    with pytest.raises(BudgetError, match="49 series windows of N = 1000 terms"):
        singular_series_sum(OSC, 50, 1000, cache=cache)
    assert cache.counts()["builds"] == 0


def test_series_tail_handles_all_zero():
    primes = [p for p in range(2, 400) if all(p % d for d in range(2, p))]
    zero = MultSpec.user_euler(
        {(p, e): 0.0 for p in primes for e in range(1, 10)},
        k_bound=1,
    )
    series = singular_series_sum(zero, 4, 360, cache=WindowCache())
    assert series.series_value == pytest.approx(0.0, abs=1e-12)
    assert series.tail_estimate == 0.0


# ---------------------------------------------------------------------------
# Twisted decomposition


def test_twisted_examples():
    assert twisted_progression_check(ONE, 1, 0, 100, CACHE) == pytest.approx(0.0, abs=1e-9)
    assert twisted_progression_check(MultSpec.divisor_k(2), 3, 1, 10**4, CACHE) <= 1e-6
    assert twisted_progression_check(OSC, 4, 3, 10**4, CACHE) <= 1e-6


def test_twisted_random_suite():
    rng = random.Random(99)
    pool = [ONE, MultSpec.divisor_k(2), MultSpec.moebius(), OSC,
            MultSpec.ramanujan_tau_norm()]
    for _ in range(30):
        spec = rng.choice(pool)
        q = rng.randint(1, 24)
        n_terms = rng.randint(1000, 10**4)
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        a = 0 if q == 1 else rng.choice(units)
        diff = twisted_progression_check(spec, q, a, n_terms, CACHE)
        assert diff <= n_terms * 2**-35


def test_twisted_gcd_guard():
    with pytest.raises(DomainError):
        twisted_progression_check(ONE, 6, 3, 100, CACHE)
