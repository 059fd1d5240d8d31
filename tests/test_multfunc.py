"""Window sieving: spec examples, independent oracles, cache format."""

import hashlib
import itertools
import math
import random
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from terncorr import harness, multfunc, tau
from terncorr.errors import BudgetError, DomainError, SpecificationError
from terncorr.multfunc import (
    MultSpec,
    WindowCache,
    eval_at,
    local_factor,
    read_window_cache,
    sieve_window,
    window_on_progression,
    write_window_cache,
)

# ---------------------------------------------------------------------------
# Oracles (independent of the sieve implementation)


def divisors(n):
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def dk_oracle(n, k):
    """Number of ordered k-factorizations, by direct recursion."""
    if k == 1:
        return 1
    return sum(dk_oracle(n // d, k - 1) for d in divisors(n))


def chi4(n):
    return 0 if n % 2 == 0 else (1 if n % 4 == 1 else -1)


def one_star_chi4_oracle(n):
    return sum(chi4(d) for d in divisors(n))


def moebius_oracle(n):
    out = 1
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            out = -out
            if n % p == 0:
                return 0
    return -out if n > 1 else out


def tau_oracle(n_max):
    """tau via a naive O(n^2) expansion of the 24th power of the pentagonal
    series, exact integers throughout."""
    pent = [0] * n_max
    k = 0
    while k * (3 * k - 1) // 2 < n_max:
        for kk in (k, -k):
            idx = kk * (3 * kk - 1) // 2
            if 0 <= idx < n_max:
                pent[idx] = -1 if kk % 2 else 1
        k += 1
    pent[0] = 1
    power = [1] + [0] * (n_max - 1)
    for _ in range(24):
        nxt = [0] * n_max
        for i, a in enumerate(power):
            if a == 0:
                continue
            for j, b in enumerate(pent[: n_max - i]):
                if b:
                    nxt[i + j] += a * b
        power = nxt
    return power  # tau(n) = power[n-1]


BUILTIN_IDS = ["divisor1", "divisor2", "divisor12", "moebius", "one_star_chi4", "tau"]


# ---------------------------------------------------------------------------
# Spec examples


def test_sieve_window_examples():
    assert list(sieve_window(MultSpec.divisor_k(2), 12, 12).values) == [6]
    assert list(sieve_window(MultSpec.divisor_k(3), 1, 1).values) == [1]
    assert list(sieve_window(MultSpec.moebius(), 4, 6).values) == [0, -1, 1]


def test_one_star_chi4_examples():
    spec = MultSpec.one_star_chi4()
    assert list(sieve_window(spec, 1, 3).values) == [1, 1, 0]
    assert list(sieve_window(spec, 25, 25).values) == [3]
    assert list(sieve_window(spec, 2, 2).values) == [1]
    win = sieve_window(spec, 1, 2000)
    for n in (1, 9, 25, 50, 325, 1989):
        assert win.values[n - 1] == one_star_chi4_oracle(n)
    d2 = sieve_window(MultSpec.divisor_k(2), 1, 2000)
    assert (win.values >= 0).all()
    assert (win.values <= d2.values).all()


def test_progression_examples():
    w = window_on_progression(MultSpec.divisor_k(2), 2, 1, 5)
    assert list(w.values) == [2, 3, 4, 4, 4]
    w = window_on_progression(MultSpec.moebius(), 4, 1, 3)
    assert list(w.values) == [0, 0, 0]
    # q0 = 1 reduces to the plain window
    a = window_on_progression(MultSpec.one_star_chi4(), 1, 7, 30)
    b = sieve_window(MultSpec.one_star_chi4(), 7, 30)
    assert (a.values == b.values).all()


def test_progression_matches_pointwise():
    rng = random.Random(5)
    spec = MultSpec.divisor_k(3)
    w = window_on_progression(spec, 6, 3, 400)
    for _ in range(40):
        n = rng.randint(3, 400)
        assert w.values[n - 3] == eval_at(spec, 6 * n)


def _joint_spec(sid):
    if sid != "complex":
        return multfunc.spec_from_id(sid)
    # Generic unit-modulus values, so that products of three or more factors
    # round differently in different orders.
    bound = 49 * 4200
    return MultSpec.user_euler(
        {(p, e): complex(math.cos(0.37 * p + 1.1 * e), math.sin(0.37 * p + 1.1 * e))
         for p in map(int, multfunc.primes_up_to(bound))
         for e in range(1, int(math.log(bound, p)) + 1)},
        k_bound=1,
    )


@pytest.mark.parametrize("lo, hi, segment", [
    (1, 3000, None), (1500, 4200, None), (1500, 4200, 1000),
])
@pytest.mark.parametrize("sid", ["divisor2", "divisor3", "moebius", "one_star_chi4",
                                 "complex"])
def test_joint_build_matches_single_windows(monkeypatch, sid, lo, hi, segment):
    spec = _joint_spec(sid)
    alone = [window_on_progression(spec, q0, lo, hi) for q0 in range(1, 50)]
    if segment is not None:  # segment boundaries inside the window
        monkeypatch.setattr(multfunc, "_SEGMENT", segment)
    joint = multfunc._build_windows(spec, range(1, 50), lo, hi)
    assert [w.q0 for w in joint] == list(range(1, 50))
    for a, b in zip(alone, joint):
        assert (b.lo, b.hi, b.values.dtype) == (a.lo, a.hi, a.values.dtype)
        assert np.array_equal(a.values, b.values), (sid, a.q0)


@pytest.mark.parametrize("sid", ["divisor3", "moebius", "one_star_chi4"])
def test_joint_build_with_a_shared_prime_above_sqrt_hi(sid):
    # 47 > sqrt(100): its multiples must not be taken for leftover primes.
    spec = multfunc.spec_from_id(sid)
    for lo in (1, 40):
        for win in multfunc._build_windows(spec, (1, 2, 47, 94), lo, 100):
            assert win.values.tolist() == [
                eval_at(spec, win.q0 * n) for n in range(lo, 101)
            ], (win.q0, lo)


@pytest.mark.parametrize("q0s, lo, hi, refused", [
    ((1, 2, 3, 2**27), 1, 8, {2**27}),              # local_factor: d_40(2^30)
    ((1, 7, 2**10), 3**10, 3**10, {2**10}),         # the float64 magnitude bound
    ((1, 6, 2**5), 3**10, 3**10 + 4, set()),
])
def test_joint_build_refuses_where_single_windows_do(q0s, lo, hi, refused):
    d40 = MultSpec.divisor_k(40)
    alone, got = {}, set()
    for q0 in q0s:
        try:
            alone[q0] = window_on_progression(d40, q0, lo, hi)
        except BudgetError:
            got.add(q0)
    assert got == refused
    if refused:
        with pytest.raises(BudgetError):
            multfunc._build_windows(d40, q0s, lo, hi)
        with pytest.raises(BudgetError):
            WindowCache().windows(d40, q0s, lo, hi, lambda win: None, threads=2)
    else:
        for win in multfunc._build_windows(d40, q0s, lo, hi):
            assert np.array_equal(win.values, alone[win.q0].values)


def test_eval_at_examples():
    assert eval_at(MultSpec.divisor_k(3), 4) == 6
    assert eval_at(MultSpec.moebius(), 1) == 1
    assert eval_at(MultSpec.one_star_chi4(), 5) == 2
    assert eval_at(MultSpec.divisor_k(3), 4) == dk_oracle(4, 3)


@pytest.mark.parametrize("n", [1, 2, 6, 12, 36, 210, 1024])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_divisor_rule_against_enumeration(n, k):
    assert eval_at(MultSpec.divisor_k(k), n) == dk_oracle(n, k)


def test_moebius_against_oracle():
    win = sieve_window(MultSpec.moebius(), 1, 500)
    for n in range(1, 501):
        assert win.values[n - 1] == moebius_oracle(n)


# ---------------------------------------------------------------------------
# The prime-power rule

PRIMES = [2, 3, 5, 7, 11, 13, 97]
EXPONENTS = range(13)


def local_oracle(sid, p, e, taus):
    """f(p^e) from the definitions, or None where no oracle is cheap."""
    if sid.startswith("divisor"):
        k = int(sid[len("divisor"):])
        if p**e <= 10**6:
            return dk_oracle(p**e, k)
        # dk_oracle enumerates divisors up to sqrt(n); beyond 10^6 count the
        # ordered k-factorisations p^j1 ... p^jk of p^e directly.
        return sum(
            1 for js in itertools.product(range(e + 1), repeat=k - 1)
            if sum(js) <= e
        )
    if sid == "moebius":
        return {0: 1, 1: -1}.get(e, 0)
    if sid == "one_star_chi4":
        return sum(chi4(p**j) for j in range(e + 1))
    if p**e <= len(taus):  # tau
        return taus[p**e - 1] / p ** (5.5 * e)
    return None


@pytest.mark.parametrize("sid", ["divisor1", "divisor2", "divisor3", "moebius",
                                 "one_star_chi4", "tau"])
def test_local_factor_against_oracles(sid):
    spec = multfunc.spec_from_id(sid)
    taus = tau_oracle(60)
    checked = 0
    for p in PRIMES:
        for e in EXPONENTS:
            expect = local_oracle(sid, p, e, taus)
            if expect is None:
                continue
            got = local_factor(spec, p, e)
            if spec.is_exact:
                assert got.dtype == np.int64 and got == expect, (p, e)
            else:
                assert got.dtype == np.float64, (p, e)
                assert got == pytest.approx(expect, rel=2**-40), (p, e)
            checked += 1
    assert checked >= (12 if sid == "tau" else len(PRIMES) * len(EXPONENTS))


@pytest.mark.parametrize("sid", BUILTIN_IDS + ["user"])
def test_local_factor_broadcasts(sid):
    if sid == "user":
        spec = MultSpec.user_euler(
            {(p, e): complex(p, -e) for p in PRIMES for e in range(1, 13)},
            k_bound=1,
        )
    else:
        spec = multfunc.spec_from_id(sid)
    ps = np.array(PRIMES if sid != "tau" else [2, 3, 5, 7, 11, 13])
    es = np.arange(13)
    one = np.array([[local_factor(spec, p, e).item() for e in es] for p in ps])
    for i, p in enumerate(ps):  # one prime, many exponents
        assert (local_factor(spec, int(p), es) == one[i]).all()
    for j, e in enumerate(es):  # many primes, one exponent
        assert (local_factor(spec, ps, int(e)) == one[:, j]).all()
    both = local_factor(spec, ps[:, None], es[None, :])
    assert both.shape == one.shape and (both == one).all()
    dtype = {"user": np.complex128, "tau": np.float64}.get(sid, np.int64)
    assert both.dtype == dtype


def test_local_factor_exact_limit():
    d40 = MultSpec.divisor_k(40)
    # C(e + 39, 39) is below 2^62 for e <= 27 and above it from e = 28 on.
    assert math.comb(27 + 39, 39) < 2**62 <= math.comb(28 + 39, 39)
    assert local_factor(d40, 2, 27) == math.comb(27 + 39, 39)
    assert (local_factor(d40, 5, np.arange(28)) == [
        math.comb(e + 39, 39) for e in range(28)]).all()
    assert eval_at(d40, 2**27) == math.comb(27 + 39, 39)
    with pytest.raises(BudgetError):
        local_factor(d40, 2, 28)
    with pytest.raises(BudgetError):
        local_factor(d40, [2, 3], [1, 28])
    with pytest.raises(BudgetError):
        eval_at(d40, 2**28)


# ---------------------------------------------------------------------------
# Ramanujan tau


def test_tau_normalized_against_naive_eta_power():
    taus = tau_oracle(60)
    win = sieve_window(MultSpec.ramanujan_tau_norm(), 1, 60)
    assert taus[0] == 1 and taus[1] == -24
    for n in range(1, 61):
        expect = taus[n - 1] / n**5.5
        assert win.values[n - 1] == pytest.approx(expect, rel=2**-40, abs=1e-300)


def test_tau_window_basics():
    win = sieve_window(MultSpec.ramanujan_tau_norm(), 1, 6)
    assert win.values[0] == 1.0
    assert win.values[1] == pytest.approx(-24 / 2**5.5, rel=1e-12)
    assert win.values[5] == pytest.approx(win.values[1] * win.values[2], rel=1e-12)


def test_tau_eval_consistent_with_window():
    spec = MultSpec.ramanujan_tau_norm()
    win = sieve_window(spec, 1, 3000)
    rng = random.Random(11)
    for n in rng.sample(range(1, 3001), 60):
        assert eval_at(spec, n) == pytest.approx(
            float(win.values[n - 1]), rel=2**-30, abs=1e-300
        )


# ---------------------------------------------------------------------------
# Invariants


@pytest.mark.parametrize(
    "sid", ["divisor1", "divisor2", "divisor3", "moebius", "one_star_chi4"]
)
def test_multiplicativity_exact(sid):
    spec = multfunc.spec_from_id(sid)
    rng = random.Random(zlib.crc32(sid.encode()))  # hash(str) is salted per process
    done = 0
    while done < 200:
        m = rng.randint(2, 1000)
        n = rng.randint(2, 10**6 // m)
        if math.gcd(m, n) != 1:
            continue
        assert eval_at(spec, m * n) == eval_at(spec, m) * eval_at(spec, n)
        done += 1


def test_hyperbola_identity():
    for top in (10**3, 10**5):
        win = sieve_window(MultSpec.divisor_k(2), 1, top)
        assert int(win.values.sum()) == sum(top // a for a in range(1, top + 1))


def test_sieve_eval_agreement_full_range():
    for sid in ("divisor2", "moebius", "one_star_chi4"):
        spec = multfunc.spec_from_id(sid)
        win = sieve_window(spec, 1, 10**4)
        direct = np.array([eval_at(spec, n) for n in range(1, 10**4 + 1)])
        assert (win.values == direct).all(), sid


def test_window_invariants():
    win = sieve_window(MultSpec.one_star_chi4(), 10, 50)
    assert len(win) == 41
    assert not np.iscomplexobj(win.values)  # built-ins are real
    with pytest.raises(DomainError):
        sieve_window(MultSpec.moebius(), 10, 5)
    with pytest.raises(DomainError):
        window_on_progression(MultSpec.moebius(), 0, 1, 5)


# ---------------------------------------------------------------------------
# Errors and budgets


def test_budget_errors():
    with pytest.raises(BudgetError):
        sieve_window(MultSpec.divisor_k(2), 1, multfunc.MAX_WINDOW_LEN + 2)
    with pytest.raises(BudgetError):
        window_on_progression(
            MultSpec.divisor_k(2), multfunc.MAX_POINT, 1, 2
        )
    with pytest.raises(BudgetError):
        sieve_window(
            MultSpec.ramanujan_tau_norm(), 1, tau.MAX_TAU_INDEX + 1
        )


def test_exact_sieve_refuses_int64_overflow():
    n = 2**10 * 3**10
    assert eval_at(MultSpec.divisor_k(40), n) == 67532607233189471296  # > 2^63
    with pytest.raises(BudgetError):
        sieve_window(MultSpec.divisor_k(40), n, n)
    with pytest.raises(BudgetError):  # d_60(2^40) does not fit int64 at all
        sieve_window(MultSpec.divisor_k(60), 2**40, 2**40)
    with pytest.raises(BudgetError):
        window_on_progression(MultSpec.divisor_k(40), 2**10, 3**10, 3**10)
    # Values just below the limit are still sieved: d_40(2^10 3^4) < 2^62.
    m = 2**10 * 3**4
    assert sieve_window(MultSpec.divisor_k(40), m, m).values[0] == eval_at(
        MultSpec.divisor_k(40), m)


# sha256 of the int64 values of divisor windows as the sieve produced them
# before it bounded their size; the last two windows take the bounded path.
@pytest.mark.parametrize("k, q0, lo, hi, digest", [
    (3, 1, 1, 200_000,
     "477fd25a74c7501849dbf47859579204e3de7a8b36b6082d58e3ff2bba731f1f"),
    (3, 720, 1, 5000,
     "030982c0f85ed13d67300a58094e508a1df7659d3288a5b56a4e71032b1f024f"),
    (3, 1, 2**40, 2**40 + 2000,
     "eb4c8f6034ccfc636fb0e6cf0be6c1f65a449dc86732d6431cdd931af2af4425"),
    (12, 1, 10**6, 10**6 + 5000,
     "4477d1fc6eefe62e95415cf63283a824c5fb373125704c40162c96e71c2c420d"),
])
def test_divisor_windows_unchanged(k, q0, lo, hi, digest):
    win = window_on_progression(MultSpec.divisor_k(k), q0, lo, hi)
    assert hashlib.sha256(win.values.tobytes()).hexdigest() == digest


def test_user_euler_rules():
    spec = MultSpec.user_euler({(2, 1): 1j, (3, 1): -1.0, (5, 1): 2.0}, k_bound=1)
    win = sieve_window(spec, 5, 6)
    assert win.values[1] == 1j * -1.0
    assert win.values.dtype == np.complex128
    assert [eval_at(spec, n) for n in (1, 5, 6, 30)] == [1, 2.0, -1j, -2j]
    with pytest.raises(SpecificationError, match=r"2\^2"):
        sieve_window(spec, 1, 8)
    with pytest.raises(SpecificationError, match=r"2\^2"):
        eval_at(spec, 4)
    with pytest.raises(SpecificationError, match=r"2\^2"):  # 4 < 7
        local_factor(spec, [7, 2], [1, 2])
    # 7 is above sqrt(hi), so the sieve meets it as a leftover prime (e = 1).
    with pytest.raises(SpecificationError, match=r"7\^1"):
        sieve_window(spec, 5, 7)
    with pytest.raises(SpecificationError, match=r"7\^1"):
        eval_at(spec, 7)
    zero = MultSpec.user_euler(
        {(p, e): 0.0 for p in (2, 3, 5, 7, 11, 13) for e in range(1, 8)}, k_bound=1
    )
    real = sieve_window(zero, 2, 13).values
    assert real.dtype == np.float64 and (real == 0).all()


# ---------------------------------------------------------------------------
# Cache files


def test_window_cache_roundtrip(tmp_path):
    for sid in BUILTIN_IDS:
        spec = multfunc.spec_from_id(sid)
        win = window_on_progression(spec, 3, 2, 200)
        path = tmp_path / f"{spec.spec_id}.bin"
        write_window_cache(win, path)
        block = win.values.astype("<i8" if spec.is_exact else "<f8").tobytes()
        raw = path.read_bytes()
        assert raw[: multfunc._HEADER.size] == struct.pack(
            "<4s32sQQQ", b"MFW3", spec.spec_id.encode(), 3, 2, 200
        )
        assert raw[multfunc._HEADER.size :] == block
        back = read_window_cache(path)
        assert back.lo == win.lo and back.hi == win.hi and back.q0 == win.q0
        assert back.spec == win.spec
        assert (back.values == win.values).all()
        for w in (win, back):  # one value array, typed by the family
            assert w.values.dtype == (np.int64 if spec.is_exact else np.float64)
            if spec.is_exact:
                assert w.values.nbytes == 8 * len(w)
    raw = (tmp_path / "one_star_chi4.bin").read_bytes()
    assert raw[:4] == b"MFW3" and raw[4:36] == b"one_star_chi4".ljust(32, b"\0")


def test_window_cache_rewrites_earlier_layouts(tmp_path):
    # The earlier layouts' header: magic, then "<QQQQ" of the kind tag
    # (code << 32) | k (one_star_chi4 had code 3), q0, lo, hi.  MFW1 then
    # held an <f8 block and an <i8 block, MFW2 the <i8 block alone.
    spec = MultSpec.one_star_chi4()
    fresh = sieve_window(spec, 5, 300)
    path = tmp_path / multfunc.cache_file_name(spec, 1, 5, 300)
    header = struct.pack("<QQQQ", 3 << 32, 1, 5, 300)
    iv = fresh.values.astype("<i8")
    for old in (b"MFW1" + header + iv.astype("<f8").tobytes() + iv.tobytes(),
                b"MFW2" + header + iv.tobytes()):
        path.write_bytes(old)
        with pytest.raises(DomainError):
            read_window_cache(path)
        cache = WindowCache(tmp_path)
        win = cache.window(spec, 1, 5, 300)
        assert cache.counts()["builds"] == 1 and cache.counts()["disk_writes"] == 1
        assert win.values.dtype == np.int64 and (win.values == fresh.values).all()
        raw = path.read_bytes()
        assert raw[:4] == b"MFW3" and raw[4:36] == b"one_star_chi4".ljust(32, b"\0")
        assert raw[36:60] == header[8:] and raw[60:] == iv.tobytes()


def test_window_cache_keeps_divisor_orders_apart(tmp_path):
    # An earlier kind tag ORed k into 32 bits, so divisor(2^32 + 2) and
    # divisor2 shared one file name and one header.
    big, d2 = MultSpec.divisor_k(2**32 + 2), MultSpec.divisor_k(2)
    WindowCache(tmp_path).window(big, 1, 5, 5)
    WindowCache(tmp_path).window(d2, 1, 5, 5)
    assert len(list(tmp_path.iterdir())) == 2
    for spec, value in ((big, 2**32 + 2), (d2, 2)):
        cache = WindowCache(tmp_path)
        assert cache.window(spec, 1, 5, 5).values.tolist() == [value]
        assert cache.counts()["disk_reads"] == 1 and cache.counts()["builds"] == 0


def test_window_cache_holds_the_largest_divisor_order(tmp_path):
    # k < 2^62 keeps every spec id, at most 26 characters, in the header.
    top = MultSpec.divisor_k(2**62 - 1)
    assert len(top.spec_id) == 26
    path = tmp_path / "top.bin"
    write_window_cache(sieve_window(top, 1, 1), path)
    back = read_window_cache(path)
    assert back.spec == top and back.values.tolist() == [1]
    with pytest.raises(DomainError):
        MultSpec.divisor_k(2**62)
    assert harness.main(["sieve", "--spec", f"divisor{2**62}", "--lo", "5",
                         "--hi", "5"]) == 2


def test_window_cache_needs_room_for_one_window():
    with pytest.raises(DomainError):
        WindowCache(max_items=0)
    assert WindowCache(max_items=1).window(MultSpec.moebius(), 1, 1, 6).values[5] == 1


def test_spec_equality_is_field_equality():
    assert multfunc.spec_from_id("mu") == MultSpec.moebius()
    assert multfunc.spec_from_id("tau_norm") == MultSpec.ramanujan_tau_norm()
    assert hash(multfunc.spec_from_id("mu")) == hash(MultSpec.moebius())
    assert MultSpec.divisor_k(2) != MultSpec.divisor_k(3)
    rule = {(3, 1): 2.0, (2, 1): 1j, (2, 2): -1}
    a = MultSpec.user_euler(rule, k_bound=1)
    b = MultSpec.user_euler(dict(reversed(rule.items())), k_bound=1)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.rule == (((2, 1), 1j), ((2, 2), -1 + 0j), ((3, 1), 2 + 0j))
    assert a != MultSpec.user_euler({**rule, (3, 1): 2.5}, k_bound=1)
    assert a != MultSpec.user_euler({**rule, (5, 1): 0.0}, k_bound=1)
    assert a != MultSpec.user_euler(rule, k_bound=2)
    assert a != MultSpec.user_euler(rule, k_bound=1, has_pole=True)
    assert a != replace(a, hypothesis_conditional=True)


def test_window_cache_directory(tmp_path):
    cache = WindowCache(tmp_path)
    a = cache.window(MultSpec.moebius(), 1, 1, 64)
    assert any(p.suffix == ".bin" for p in tmp_path.iterdir())
    fresh = WindowCache(tmp_path)
    b = fresh.window(MultSpec.moebius(), 1, 1, 64)
    assert (a.values == b.values).all()


def test_window_cache_ignores_mislabelled_file(tmp_path):
    d2, d3 = MultSpec.divisor_k(2), MultSpec.divisor_k(3)
    name = multfunc.cache_file_name(d3, 1, 10, 200)
    write_window_cache(sieve_window(d2, 10, 200), tmp_path / name)
    win = WindowCache(tmp_path).window(d3, 1, 10, 200)
    assert win.spec == d3
    assert (win.values == sieve_window(d3, 10, 200).values).all()
    back = read_window_cache(tmp_path / name)  # overwritten with the right window
    assert back.spec == d3 and (back.values == win.values).all()


def test_window_cache_rebuilds_truncated_file(tmp_path):
    spec = MultSpec.one_star_chi4()
    WindowCache(tmp_path).window(spec, 1, 5, 300)
    path = tmp_path / multfunc.cache_file_name(spec, 1, 5, 300)
    full = path.read_bytes()
    path.write_bytes(full[:-8])
    with pytest.raises(DomainError):
        read_window_cache(path)
    win = WindowCache(tmp_path).window(spec, 1, 5, 300)
    assert (win.values == sieve_window(spec, 5, 300).values).all()
    assert path.read_bytes() == full
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp files


def test_window_cache_windows_reads_what_it_holds_and_builds_the_rest(tmp_path):
    spec = MultSpec.one_star_chi4()
    WindowCache(tmp_path).window(spec, 3, 1, 500)
    cache = WindowCache(tmp_path, max_items=2)
    cache.window(spec, 5, 1, 500)
    assert cache.counts() == {"memory_hits": 0, "disk_reads": 0, "builds": 1,
                              "disk_writes": 1}
    # 5 is in memory, 3 on disk; 1 and 7 are built by one sieve.  Each
    # distinct window reaches the consumer once, and memory keeps none of
    # the streamed ones.
    wins = []
    cache.windows(spec, [1, 3, 5, 7, 3], 1, 500, wins.append, threads=2)
    assert sorted(w.q0 for w in wins) == [1, 3, 5, 7]
    for win in wins:
        alone = window_on_progression(spec, win.q0, 1, 500)
        assert np.array_equal(win.values, alone.values)
    assert cache.counts() == {"memory_hits": 1, "disk_reads": 1, "builds": 3,
                              "disk_writes": 3}
    for q0 in (1, 3, 5, 7):
        assert (tmp_path / multfunc.cache_file_name(spec, q0, 1, 500)).exists()
    cache.window(spec, 5, 1, 500)
    cache.window(spec, 3, 1, 500)
    assert cache.counts()["memory_hits"] == 2 and cache.counts()["disk_reads"] == 2
    held = WindowCache.holding(wins[0])
    assert held.window(spec, wins[0].q0, 1, 500) is wins[0]
    assert held.counts()["builds"] == 0


@pytest.mark.parametrize("size", [0, 3, 36, 60])
def test_read_window_cache_rejects_short_files(tmp_path, size):
    ok = tmp_path / "ok.bin"
    write_window_cache(sieve_window(MultSpec.moebius(), 1, 10), ok)
    path = tmp_path / "short.bin"
    path.write_bytes(ok.read_bytes()[:size])
    with pytest.raises(DomainError):
        read_window_cache(path)
