"""Exact transforms (terncorr.ntt) and the certified tau table built on them."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terncorr import ntt, tau
from terncorr.errors import BudgetError

# sha256 of "tau(1),tau(2),...,tau(131072)" in decimal, from the table as it
# was built before the transforms moved to terncorr.ntt (fixed six primes,
# % butterflies).
TAU_131072_SHA256 = "1d4962860eb6e2531edcb60882c4f0d2af4fabb20c9425a8ed99037dab7731db"

EMPTY = (np.empty(0, dtype=object), np.empty(0, dtype=np.float64))


def bit_reversed(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    return np.array([int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
                     for i in range(n)])


def naive_dft(a: list[int], p: int, g: int) -> list[int]:
    n = len(a)
    w = pow(g, (p - 1) // n, p)
    return [sum(a[j] * pow(w, j * k, p) for j in range(n)) % p for k in range(n)]


# ---------------------------------------------------------------------------
# terncorr.ntt


@pytest.mark.parametrize("p, g", ntt.PRIMES)
def test_forward_matches_naive_dft(p, g):
    rng = np.random.default_rng(p)
    for n in (1, 2, 4, 8, 16, 32, 64):
        a = rng.integers(0, p, n, dtype=np.int64)
        a[0] = p - 1
        got = ntt.forward(a.astype(np.uint64), p, g)
        want = naive_dft([int(x) for x in a], p, g)
        assert [int(x) for x in got[bit_reversed(n)]] == want, n
        assert (ntt.inverse(got, p, g) == a.astype(np.uint64)).all(), n


@pytest.mark.parametrize("p, g", ntt.PRIMES)
def test_forward_inverse_identity(p, g):
    n = 1 << 12
    a = np.random.default_rng(1).integers(0, p, n, dtype=np.int64).astype(np.uint64)
    a[:3] = (p - 1, 0, 1)
    b = ntt.inverse(ntt.forward(a.copy(), p, g), p, g)
    assert (b == a).all()


@pytest.mark.parametrize("p, g", ntt.PRIMES)
def test_square_matches_convolution(p, g):
    a = np.random.default_rng(2).integers(0, p, 300, dtype=np.int64)
    want = np.convolve(a.astype(object), a.astype(object))[:300] % p
    got = ntt.square(a.astype(np.uint64), p, g, 1024, 300)
    assert [int(x) for x in got] == list(want)


def shoup_product(v: int, w: int, p: int) -> int:
    wa = np.array([w], dtype=np.uint64)
    out, scratch = np.empty(1, dtype=np.uint64), np.empty(1, dtype=np.uint64)
    ntt._shoup_into(np.array([v], dtype=np.uint64), wa, ntt.shoup_quotient(wa, p),
                    np.uint64(p), scratch, out)
    return int(out[0])


# The butterflies multiply fully reduced residues and lazily reduced
# differences in [0, 2p) by twiddles in [0, p).
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ntt.PRIMES), st.data())
def test_shoup_multiply(prime, data):
    p = prime[0]
    v = data.draw(st.integers(0, p - 1) | st.integers(p, 2 * p - 1)
                  | st.sampled_from([p - 1, 2 * p - 1]))
    w = data.draw(st.integers(0, p - 1) | st.just(p - 1))
    assert shoup_product(v, w, p) == v * w % p


@pytest.mark.parametrize("p, g", ntt.PRIMES)
def test_shoup_multiply_extremes(p, g):
    for v in (0, 1, p - 1, p, 2 * p - 1):
        for w in (0, 1, p - 1):
            assert shoup_product(v, w, p) == v * w % p


def test_primes_for_takes_shortest_prefix():
    p0, p1 = ntt.PRIMES[0][0], ntt.PRIMES[1][0]
    assert ntt.primes_for(0) == ntt.PRIMES[:1]
    assert ntt.primes_for((p0 - 1) // 2) == ntt.PRIMES[:1]
    assert ntt.primes_for(p0 // 2 + 1) == ntt.PRIMES[:2]
    assert ntt.primes_for((p0 * p1 - 1) // 2) == ntt.PRIMES[:2]
    assert ntt.primes_for((p0 * p1 + 1) // 2) == ntt.PRIMES[:3]
    modulus = 1
    for p, _ in ntt.PRIMES:
        modulus *= p
    assert ntt.primes_for(modulus // 2) == ntt.PRIMES
    with pytest.raises(BudgetError):
        ntt.primes_for(modulus // 2 + 1)


def test_crt_recovers_signed_values():
    primes = [p for p, _ in ntt.PRIMES]
    modulus = 1
    for p in primes:
        modulus *= p
    values = [0, 1, -1, 2**100, -(2**100), modulus // 2, -(modulus // 2) + 1]
    for k in range(1, len(primes) + 1):
        m = 1
        for p in primes[:k]:
            m *= p
        vals = [v for v in values if -m // 2 < v <= m // 2]
        res = [np.array([v % p for v in vals], dtype=np.uint64) for p in primes[:k]]
        assert list(ntt.crt(res, primes[:k])) == vals, k


# ---------------------------------------------------------------------------
# The tau table


def test_tau_table_digest_and_prime_counts(monkeypatch):
    """A fresh table up to 131072 equals the pinned one; it costs 10 prime
    squarings: J -> J^2 -> J^4 modulo 3 primes, J^4 -> J^8 modulo 4."""
    monkeypatch.setattr(tau, "_table", EMPTY)
    squarings = []
    real_square = ntt.square

    def counting_square(res, p, g, size, keep):
        squarings.append(p)
        return real_square(res, p, g, size, keep)

    monkeypatch.setattr(ntt, "square", counting_square)
    taus = tau.tau_values(131072)
    text = ",".join(str(t) for t in taus)
    assert hashlib.sha256(text.encode()).hexdigest() == TAU_131072_SHA256
    first = [p for p, _ in ntt.PRIMES]
    assert squarings == [first[0]] * 2 + [first[1]] * 2 + [first[2]] * 2 + first[:4]
    lam = tau.tau_normalized_values(131072)
    n = np.arange(1, 131073, dtype=np.float64)
    assert np.array_equal(lam, np.array(list(taus), dtype=object).astype(np.float64)
                          / n ** 5.5)


def test_requests_within_capacity_reuse_one_build(monkeypatch):
    monkeypatch.setattr(tau, "_table", EMPTY)
    builds = []

    def fake_compute(n_terms):
        builds.append(n_terms)
        return np.arange(1, n_terms + 1).astype(object)

    monkeypatch.setattr(tau, "_compute_tau", fake_compute)
    for n in (100_000, 102_000, 131_072):
        assert len(tau.tau_normalized_values(n)) == n
        assert list(tau.tau_values(n)[-2:]) == [n - 1, n]
    assert builds == [131_072]
    tau.tau_values(131_073)
    assert builds == [131_072, 262_144]
    tau.tau_values(1000)
    assert len(builds) == 2


def test_tau_budget_follows_transform_budget():
    assert tau.MAX_TAU_INDEX == ntt.MAX_SIZE // 2
    assert tau._transform_size(tau.MAX_TAU_INDEX) == ntt.MAX_SIZE
    assert tau._transform_size(tau.MAX_TAU_INDEX + 1) > ntt.MAX_SIZE
    with pytest.raises(BudgetError):
        tau.tau_values(tau.MAX_TAU_INDEX + 1)


def test_too_few_primes_fail_the_crt_certificate(monkeypatch):
    monkeypatch.setattr(tau, "_table", EMPTY)
    monkeypatch.setattr(ntt, "PRIMES", ntt.PRIMES[:2])
    with pytest.raises(BudgetError):
        tau.tau_values(1 << 14)
    assert tau._table[0].size == 0


def test_small_tables_and_self_check():
    assert list(tau.tau_values(5)) == [1, -24, 252, -1472, 4830]
    assert tau.tau_values(1)[0] == 1
    with pytest.raises(ValueError):
        tau.tau_values(0)
