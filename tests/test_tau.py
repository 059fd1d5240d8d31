"""The certified tau table: digest, identities of tau, reuse and refusals,
and a reference engine of exact number-theoretic transforms that checks it."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terncorr import multfunc, tau
from terncorr.errors import BudgetError

# sha256 of "tau(1),tau(2),...,tau(131072)" in decimal, pinned from the
# table built by number-theoretic transforms and CRT (fixed six primes, %
# butterflies), before the float-FFT engine.
TAU_131072_SHA256 = "1d4962860eb6e2531edcb60882c4f0d2af4fabb20c9425a8ed99037dab7731db"
# sha256 of the bytes of the float64 column tau(n) / n^(11/2) at capacity
# 131072, pinned from the build that joined Python ints and rounded them.
COLUMN_131072_SHA256 = "3323bcf261d7860308109d85969333891fbd655e0abcc374b21ea6ac522bf05f"
N_TABLE = 1 << 17


@pytest.fixture(scope="module")
def taus():
    """A table of 131072 terms built here, whatever the process holds, from
    the classes of the build's own last squaring."""
    bits, classes, _ = tau._tau_classes(N_TABLE)
    return to_ints(classes, bits)


def primes_up_to(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def test_tau_table_digest_and_prime_counts(monkeypatch, taus):
    """A fresh build up to 131072 equals the pinned one, each of its three
    squarings ran at a width whose recorded bound is below 1/2, and the
    table holds float(tau(n)) / n^(11/2), to the pinned bytes."""
    text = ",".join(str(t) for t in taus)
    assert hashlib.sha256(text.encode()).hexdigest() == TAU_131072_SHA256
    monkeypatch.setattr(tau, "_table", tau._EMPTY)
    lam = tau.tau_values(N_TABLE)
    squarings = tau._table.squarings
    assert len(squarings) == 3
    assert all(bits >= 1 and 0 < bound < 0.5 for bits, bound in squarings)
    assert tau.table_info() == {
        "capacity": N_TABLE,
        "builds": 1,
        "digit_bits": [bits for bits, _ in squarings],
        "rounding_bound": max(bound for _, bound in squarings),
    }
    n = np.arange(1, N_TABLE + 1, dtype=np.float64)
    assert np.array_equal(lam, np.array(list(taus), dtype=object).astype(np.float64)
                          / n ** 5.5)
    assert hashlib.sha256(lam.tobytes()).hexdigest() == COLUMN_131072_SHA256


@pytest.mark.parametrize("capacity, bits, bound", [
    (1 << 14, [10, 17, 16], 0.3257042604793391),
    (1 << 15, [10, 16, 15], 0.18291770260044624),
    (1 << 16, [11, 16, 15], 0.38765159999238813),
    (1 << 17, [11, 15, 14], 0.27485269467747314),
])
def test_squaring_widths_and_bounds_are_pinned(monkeypatch, capacity, bits, bound):
    # The widest certified width of each squaring, and the largest bound,
    # to the last bit: the width search and the certified norms.
    monkeypatch.setattr(tau, "_table", tau._EMPTY)
    tau.tau_values(capacity)
    info = tau.table_info()
    assert info["digit_bits"] == bits and info["rounding_bound"] == bound


def test_ramanujan_congruence_mod_691(taus):
    # tau(n) = sigma_11(n) (mod 691) for every n in the table.
    sigma = np.zeros(N_TABLE + 1, dtype=np.int64)
    for d in range(1, N_TABLE + 1):
        sigma[d::d] += pow(d, 11, 691)
    assert np.array_equal((taus % 691).astype(np.int64), sigma[1:] % 691)


def test_multiplicative_on_coprime_pairs_near_the_top(taus):
    rng = np.random.default_rng(691)
    pairs = 0
    while pairs < 300:
        m = int(rng.integers(2, 2000))
        n = int(rng.integers(N_TABLE // (2 * m), N_TABLE // m + 1))
        if n < 2 or math.gcd(m, n) != 1:
            continue
        assert taus[m * n - 1] == taus[m - 1] * taus[n - 1], (m, n)
        pairs += 1


def test_prime_squares_follow_the_hecke_recursion(taus):
    primes = primes_up_to(362)  # 362^2 <= 131072 < 363^2
    assert primes[-1] ** 2 <= N_TABLE
    for p in primes:
        assert taus[p * p - 1] == taus[p - 1] ** 2 - p**11, p


def test_requests_within_capacity_reuse_one_build(monkeypatch):
    monkeypatch.setattr(tau, "_table", tau._EMPTY)
    builds = []

    def fake_compute(n_terms):
        builds.append(n_terms)
        return np.arange(1, n_terms + 1, dtype=np.float64), ((1, 0.0),) * 3

    monkeypatch.setattr(tau, "_compute_tau", fake_compute)
    for n in (100_000, 102_000, 131_072):
        assert len(tau.tau_values(n)) == n
        top = np.array([n - 1, n], dtype=np.float64)
        assert np.array_equal(tau.tau_values(n)[-2:], top / top ** 5.5)
    assert builds == [131_072]
    tau.tau_values(131_073)
    assert builds == [131_072, 262_144]
    tau.tau_values(1000)
    assert len(builds) == 2
    assert tau.table_info()["capacity"] == 262_144
    assert tau.table_info()["builds"] == 2


def test_tau_budget_follows_transform_budget(monkeypatch):
    # The cap is where the certificate was measured to hold (14-, 12- and
    # 11-bit digits, bound 0.29 at capacity 2^22); a request past it builds
    # nothing.
    assert tau.MAX_TAU_INDEX == 1 << 22
    assert tau._transform_size(tau.MAX_TAU_INDEX) == 1 << 23
    held = tau._table

    def no_build(n_terms):
        raise AssertionError("built a table past the budget")

    monkeypatch.setattr(tau, "_compute_tau", no_build)
    with pytest.raises(BudgetError):
        tau.tau_values(tau.MAX_TAU_INDEX + 1)
    assert tau._table is held


def test_too_few_primes_fail_the_crt_certificate(monkeypatch):
    # Neither engine keeps a table it cannot certify.  Two primes do not
    # span tau up to 2^14 in the reference engine; in the float engine a
    # rounding factor of 1 makes every digit product bound at least 1, so
    # no width certifies and nothing is kept.
    with pytest.raises(ValueError):
        primes_for(tau_bound(1 << 14), PRIMES[:2])
    monkeypatch.setattr(tau, "_table", tau._EMPTY)
    monkeypatch.setattr(tau, "fft_error", lambda length: 1.0)
    with pytest.raises(BudgetError, match="no digit width"):
        tau.tau_values(1 << 14)
    assert tau._table is tau._EMPTY
    assert tau.table_info()["builds"] == 0


def test_int64_powers_refused_past_the_limit(monkeypatch):
    # J^2 stays below 2^20 at 2^14 terms while J^4 passes it.
    monkeypatch.setattr(tau, "_table", tau._EMPTY)
    monkeypatch.setattr(tau, "_EXACT_LIMIT", 1 << 20)
    with pytest.raises(BudgetError, match="2\\^62"):
        tau.tau_values(1 << 14)
    assert tau._table is tau._EMPTY


@pytest.mark.parametrize("bits", [1, 5, 12, 20])
def test_class_joins_match_python_ints(bits):
    # Classes of both signs, with carries through every digit and limb:
    # the float join rounds the exact sum as float() rounds a Python int.
    rng = np.random.default_rng(bits)
    classes = [rng.integers(-(2**45), 2**45, 500) for _ in range(9)]
    classes[-1][:3] = (-1, 0, 1)
    want = [sum(int(c[i]) << (bits * k) for k, c in enumerate(classes))
            for i in range(500)]
    assert list(to_ints(classes, bits)) == want
    got = tau._to_floats(iter([c.copy() for c in classes]), bits, np.empty(500))
    assert got.tobytes() == np.array([float(v) for v in want]).tobytes()
    small = [c >> 40 for c in classes[:3]]
    want = [sum(int(c[i]) << (bits * k) for k, c in enumerate(small))
            for i in range(500)]
    assert tau._join(iter([c.copy() for c in small]), bits).tolist() == want


def magnitudes():
    """Sums where rounding to float64 is delicate: 0, values near 2^53, 2^62
    and 2^63, exact half-ulp ties (odd 54-bit multiples of a power of two)
    and their neighbours, and any size up to 2^130."""
    def near(point):
        return st.integers(-4096, 4096).map(lambda d: point + d)

    ties = st.builds(lambda m, e, d: ((2 * m + 1) << e) + d,
                     st.integers(1 << 52, (1 << 53) - 1), st.integers(0, 76),
                     st.sampled_from([-1, 0, 0, 0, 1]))
    return st.one_of(st.just(0), near(1 << 53), near(1 << 62), near(1 << 63),
                     ties, st.integers(0, 1 << 130))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(magnitudes(), st.sampled_from([1, -1])), min_size=1,
                max_size=12),
       st.integers(4, 20), st.integers(0, 2**32 - 1))
def test_float_join_rounds_as_python_floats(values, bits, seed):
    # The limbs' round-to-odd join equals float() of the exact join, bit for
    # bit, on classes that carry both ways between digits.
    values = [m * sign for m, sign in values]
    count = max(v.bit_length() for v in values) // bits + 2
    mask = (1 << bits) - 1
    digits = [[(v >> (bits * k)) & mask for v in values] for k in range(count - 1)]
    digits.append([v >> (bits * (count - 1)) for v in values])
    classes = [np.array(d, dtype=np.int64) for d in digits]
    rng = np.random.default_rng(seed)
    for k in range(count - 1):  # move a multiple of 2^bits between classes
        moved = rng.integers(-(2**40), 2**40, len(values))
        classes[k] += moved << bits
        classes[k + 1] -= moved
    assert list(to_ints(classes, bits)) == values
    got = tau._to_floats(iter(classes), bits, np.empty(len(values)))
    assert got.tobytes() == np.array([float(v) for v in values]).tobytes()


def test_build_peak_stays_below_the_python_int_join():
    # tracemalloc's peak over a 2^18 build, numpy arrays included: 42.0 MiB
    # when the last classes were joined into Python ints and every class
    # allocated its own sums, 32.0 MiB from the int64 limbs with one set of
    # buffers.
    tau._compute_tau(16)  # imports and plans outside the traced build
    tracemalloc.start()
    try:
        tau._compute_tau(1 << 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 37 * 2**20


def test_small_tables_and_self_check():
    want = [1, -24, 252, -1472, 4830]
    assert tau._compute_tau(8)[0][:5].tolist() == want
    n = np.arange(1, 6, dtype=np.float64)
    assert np.array_equal(tau.tau_values(5), np.array(want, dtype=np.float64) / n ** 5.5)
    assert tau.tau_values(1)[0] == 1
    with pytest.raises(ValueError):
        tau.tau_values(0)


def test_table_keeps_only_the_float_column(monkeypatch):
    # The exact ints belong to the build: every array the table holds is
    # the float64 column, one value per n up to the capacity.
    monkeypatch.setattr(tau, "_table", tau._EMPTY)
    tau.tau_values(1 << 14)
    arrays = [v for v in tau._table if isinstance(v, np.ndarray)]
    assert arrays and all(
        a.dtype == np.float64 and a.size == 1 << 14 for a in arrays
    )


def test_tau_windows_and_points_build_through_tau_values(monkeypatch):
    # Both multfunc readers look up the module attribute, so a wrapper set
    # on `tau.tau_values` sees every request.
    calls = []
    original = tau.tau_values

    def counting(n_max):
        calls.append(n_max)
        return original(n_max)

    monkeypatch.setattr(tau, "tau_values", counting)
    spec = multfunc.MultSpec.ramanujan_tau_norm()
    win = multfunc.sieve_window(spec, 1, 100)
    assert multfunc.eval_at(spec, 97) == win.values[96]
    assert calls == [100, 97]


# ---------------------------------------------------------------------------
# A reference engine: exact number-theoretic transforms modulo primes
# p = c 2^k + 1, recombined by CRT.  It shares no code with the float
# engine, so the tables it builds check tau without the pinned digest.

# (p, primitive root); every p = c * 2^k + 1 with k >= 21 and p < 2^31, so
# a product of two residues stays below 2^62 in int64.
PRIMES = (
    (998244353, 3),
    (167772161, 3),
    (469762049, 3),
    (754974721, 11),
    (1004535809, 3),
    (2013265921, 31),
)


def bit_reversed(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    i = np.arange(n)
    out = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        out |= ((i >> b) & 1) << (bits - 1 - b)
    return out


def ntt(a: np.ndarray, p: int, g: int, inverse: bool = False) -> np.ndarray:
    """Cyclic transform of int64 residues in [0, p), natural order in and
    out; the size of a is a power of two dividing p - 1, and the inverse is
    scaled by 1/n."""
    n = a.size
    root = pow(g, (p - 1) // n, p)
    if inverse:
        root = pow(root, -1, p)
    powers = np.ones(max(1, n // 2), dtype=np.int64)
    for j in range(1, powers.size):
        powers[j] = powers[j - 1] * root % p
    a = a[bit_reversed(n)]
    h = 1
    while h < n:  # Cooley-Tukey passes on blocks of 2h
        blocks = a.reshape(-1, 2, h)
        u = blocks[:, 0].copy()
        v = blocks[:, 1] * powers[:: n // (2 * h)] % p
        blocks[:, 0] = (u + v) % p
        blocks[:, 1] = (u - v) % p
        h *= 2
    return a * pow(n, -1, p) % p if inverse else a


def naive_dft(a: list[int], p: int, g: int) -> list[int]:
    n = len(a)
    w = pow(g, (p - 1) // n, p)
    return [sum(a[j] * pow(w, j * k, p) for j in range(n)) % p for k in range(n)]


def square(res: np.ndarray, p: int, g: int, size: int, keep: int) -> np.ndarray:
    """Residues mod p of the square of a series, truncated to keep terms;
    size >= 2 res.size - 1, so the cyclic square does not wrap."""
    buf = np.zeros(size, dtype=np.int64)
    buf[: res.size] = res
    f = ntt(buf, p, g)
    return ntt(f * f % p, p, g, inverse=True)[:keep]


def primes_for(bound: int, primes=PRIMES):
    """Shortest prefix of primes whose product exceeds 2 * bound."""
    modulus = 1
    for i, (p, _) in enumerate(primes):
        modulus *= p
        if modulus > 2 * bound:
            return primes[: i + 1]
    raise ValueError(f"{len(primes)} primes cannot span 2^{bound.bit_length()}")


def crt(residues: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """The representatives in (-M/2, M/2] of the residue tuples, M the
    product of the primes, as Python ints."""
    modulus = math.prod(primes)
    total = 0
    for r, p in zip(residues, primes):
        m = modulus // p
        total = total + r.astype(object) * (m * pow(m, -1, p))
    total = total % modulus
    return np.where(total > modulus // 2, total - modulus, total)


def to_ints(classes, bits: int) -> np.ndarray:
    """sum_k classes[k] << (bits k) as an object array of Python ints: the
    exact join that the float column is rounded from."""
    total = 0
    for k, c in enumerate(classes):
        total = total + (c.astype(object) << (bits * k))
    return total


def tau_bound(n: int) -> int:
    # |tau(m)| <= d(m) m^(11/2) (Deligne) and d(m) <= 2 sqrt(m).
    return 2 * n**6


def reference_taus(n_terms: int) -> np.ndarray:
    """tau(1..n_terms) from J^8 modulo each prime that the bound needs."""
    jacobi = np.zeros(n_terms, dtype=np.int64)
    for k in range(math.isqrt(2 * n_terms) + 1):
        if k * (k + 1) // 2 < n_terms:
            jacobi[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    primes = primes_for(tau_bound(n_terms))
    residues = []
    for p, g in primes:
        r = jacobi % p
        for _ in range(3):  # J -> J^2 -> J^4 -> J^8
            r = square(r, p, g, 2 * n_terms, n_terms)
        residues.append(r)
    return crt(residues, [p for p, _ in primes])


@pytest.mark.parametrize("p, g", PRIMES)
def test_forward_matches_naive_dft(p, g):
    rng = np.random.default_rng(p)
    for n in (1, 2, 4, 8, 16, 32, 64):
        a = rng.integers(0, p, n, dtype=np.int64)
        a[0] = p - 1
        got = ntt(a, p, g)
        assert got.tolist() == naive_dft(a.tolist(), p, g), n
        assert (ntt(got, p, g, inverse=True) == a).all(), n


@pytest.mark.parametrize("p, g", PRIMES)
def test_forward_inverse_identity(p, g):
    n = 1 << 12
    a = np.random.default_rng(1).integers(0, p, n, dtype=np.int64)
    a[:3] = (p - 1, 0, 1)
    assert (ntt(ntt(a, p, g), p, g, inverse=True) == a).all()


@pytest.mark.parametrize("p, g", PRIMES)
def test_square_matches_convolution(p, g):
    a = np.random.default_rng(2).integers(0, p, 300, dtype=np.int64)
    want = np.convolve(a.astype(object), a.astype(object))[:300] % p
    assert square(a, p, g, 1024, 300).tolist() == list(want)


def test_primes_for_takes_shortest_prefix():
    p0, p1 = PRIMES[0][0], PRIMES[1][0]
    assert primes_for(0) == PRIMES[:1]
    assert primes_for((p0 - 1) // 2) == PRIMES[:1]
    assert primes_for(p0 // 2 + 1) == PRIMES[:2]
    assert primes_for((p0 * p1 - 1) // 2) == PRIMES[:2]
    assert primes_for((p0 * p1 + 1) // 2) == PRIMES[:3]
    modulus = math.prod(p for p, _ in PRIMES)
    assert primes_for(modulus // 2) == PRIMES
    with pytest.raises(ValueError):
        primes_for(modulus // 2 + 1)


def test_crt_recovers_signed_values():
    primes = [p for p, _ in PRIMES]
    modulus = math.prod(primes)
    values = [0, 1, -1, 2**100, -(2**100), modulus // 2, -(modulus // 2) + 1]
    for k in range(1, len(primes) + 1):
        m = math.prod(primes[:k])
        vals = [v for v in values if -m // 2 < v <= m // 2]
        res = [np.array([v % p for v in vals], dtype=np.int64) for p in primes[:k]]
        assert list(crt(res, primes[:k])) == vals, k


@pytest.mark.parametrize("size, scale", [(64, 2**8), (300, 2**40), (2048, 2**62)])
def test_float_square_matches_convolution(size, scale):
    # Signed inputs from one digit to several, through _square and _to_ints.
    a = np.random.default_rng(size).integers(-scale, scale, size)
    a[:2] = (-scale, scale - 1)
    want = np.convolve(a.astype(object), a.astype(object))[:size]
    bits, bound, classes = tau._square(a, 1 << (2 * size - 1).bit_length())
    assert bound < 0.5
    assert list(to_ints(classes, bits)) == list(want)


def test_table_matches_reference_transforms(taus):
    n_terms = 1 << 12
    want = reference_taus(n_terms).tolist()
    bits, classes, _ = tau._tau_classes(n_terms)
    assert to_ints(classes, bits).tolist() == want
    assert taus[:n_terms].tolist() == want
    floats = tau._compute_tau(n_terms)[0]
    assert floats.tobytes() == np.array([float(t) for t in want]).tobytes()


def test_square_classes_match_scipy_fft(monkeypatch):
    import scipy.fft

    a = np.random.default_rng(7).integers(-2**40, 2**40, 3000)
    size = 1 << (2 * a.size - 1).bit_length()
    bits, bound, classes = tau._square(a, size)
    got = list(classes)
    def irfft(a, n, out):
        out[...] = scipy.fft.irfft(a, n)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(np.fft, "rfft", scipy.fft.rfft)
        mp.setattr(np.fft, "irfft", irfft)
        want_bits, want_bound, classes = tau._square(a, size)
        want = list(classes)
    assert (bits, bound) == (want_bits, want_bound) and len(got) == len(want) > 1
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
