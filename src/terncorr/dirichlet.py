"""Dirichlet characters, Gauss sums, mean-value residues and singular series.

Characters mod q are assembled by CRT from cyclic components: a primitive
root for each odd prime power, and the {-1, 5} generating pair for powers
of two.  The residue of sum f(q0 n) chi(n) n^(-s) at s=1 is realised as the
two-scale Richardson extrapolation of partial means, which is all the
downstream singular-series assembly needs.  For the principal character mod
q1, the partial sums come from the identity
sum_{n <= M, (n, q1) = 1} f(q0 n) = sum_{d | q1} mu(d) sum_{m <= M/d} f(q0 d m),
as signed prefixes of the windows f(k n), k = q0 d, that the series holds
anyway; exact families sum them exactly with `rounding.exact_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError, DomainError
from .multfunc import CoefficientWindow, MultSpec, WindowCache, factorize
from .rounding import exact_sum

MAX_CHARACTER_MODULUS = 1_000_000
MAX_TABLE_ENTRIES = 1 << 25  # phi(q) * q guard for full group tables


@dataclass(frozen=True)
class DirichletCharacter:
    """Complete value table of one character mod q.

    values[n] = chi(n mod q); zero on non-units, modulus one on units.
    index is the position in the group enumeration (0 = principal).
    """

    modulus: int
    index: int
    is_principal: bool
    is_primitive: bool
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]


@dataclass(frozen=True)
class CharacterGroup:
    modulus: int
    characters: tuple[DirichletCharacter, ...]

    def __len__(self) -> int:
        return len(self.characters)

    @property
    def principal(self) -> DirichletCharacter:
        return self.characters[0]


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def moebius(n: int) -> int:
    out = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        out = -out
    return out


def _primitive_root_mod_prime(p: int) -> int:
    if p == 2:
        return 1
    fac = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")  # unreachable


def _component_odd(p: int, a: int):
    """(modulus, orders, dlog arrays) for the cyclic group mod odd p^a."""
    m = p**a
    g = _primitive_root_mod_prime(p)
    if a > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    order = (p - 1) * p ** (a - 1)
    dlog = np.full(m, -1, dtype=np.int64)
    cur = 1
    for j in range(order):
        dlog[cur] = j
        cur = (cur * g) % m
    return m, [order], [dlog]


def _component_two(a: int):
    """Component data for 2^a: trivial, {-1}, or {-1} x <5>."""
    m = 2**a
    if a == 1:
        return m, [], []
    if a == 2:
        dlog = np.full(4, -1, dtype=np.int64)
        dlog[1], dlog[3] = 0, 1
        return m, [2], [dlog]
    half = 2 ** (a - 2)
    sign = np.full(m, -1, dtype=np.int64)
    five = np.full(m, -1, dtype=np.int64)
    cur = 1
    for j in range(half):
        sign[cur], five[cur] = 0, j
        sign[m - cur], five[m - cur] = 1, j
        cur = (cur * 5) % m
    return m, [2, half], [sign, five]


def characters_mod(q: int) -> CharacterGroup:
    """All phi(q) Dirichlet characters mod q, principal first."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if q > MAX_CHARACTER_MODULUS:
        raise BudgetError(f"modulus {q} exceeds budget {MAX_CHARACTER_MODULUS}")
    if q == 1:
        values = np.ones(1, dtype=np.complex128)
        chi = DirichletCharacter(
            modulus=1, index=0, is_principal=True, is_primitive=True, values=values
        )
        return CharacterGroup(modulus=1, characters=(chi,))
    phi = euler_phi(q)
    if phi * q > MAX_TABLE_ENTRIES:
        raise BudgetError(
            f"character table phi(q)*q = {phi * q} exceeds budget {MAX_TABLE_ENTRIES}"
        )

    comps = []
    for p, a in factorize(q):
        comps.append(_component_two(a) if p == 2 else _component_odd(p, a))

    n = np.arange(q, dtype=np.int64)
    # Per-subcomponent discrete logs of every residue (or -1 off units).
    sub_orders: list[int] = []
    sub_dlogs: list[np.ndarray] = []
    coprime = np.ones(q, dtype=bool)
    for m, orders, dlogs in comps:
        r = n % m
        unit = np.ones(q, dtype=bool)
        for dl in dlogs:
            unit &= dl[r] >= 0
        if not dlogs:  # 2^1 component: units are the odd residues
            unit = r == 1
        coprime &= unit
        for order, dl in zip(orders, dlogs):
            sub_orders.append(order)
            sub_dlogs.append(dl[r])

    prim_flags = _primitivity_flags(comps)
    chars = []
    total = phi
    digits = [0] * len(sub_orders)
    for index in range(total):
        phase = np.zeros(q, dtype=np.float64)
        for t, order, dl in zip(digits, sub_orders, sub_dlogs):
            if t:
                phase += (t * np.where(dl < 0, 0, dl)) / order
        values = np.where(coprime, np.exp(2j * np.pi * phase), 0.0)
        chars.append(
            DirichletCharacter(
                modulus=q,
                index=index,
                is_principal=all(t == 0 for t in digits),
                is_primitive=prim_flags(digits),
                values=values,
            )
        )
        # Increment mixed-radix digit vector.
        for i in range(len(digits) - 1, -1, -1):
            digits[i] += 1
            if digits[i] < sub_orders[i]:
                break
            digits[i] = 0
    return CharacterGroup(modulus=q, characters=tuple(chars))


def _primitivity_flags(comps):
    """Closure testing component-wise primitivity for a digit vector."""
    pos = 0
    groups: list[tuple[int, int, object]] = []  # (start, ndigits, checker)
    for m, orders, _ in comps:
        nd = len(orders)
        if m % 2 == 0:
            a = m.bit_length() - 1
            if a == 1:
                groups.append((pos, 0, lambda ts: False))  # conductor 1 < 2
            elif a == 2:
                groups.append((pos, 1, lambda ts: ts[0] == 1))
            else:
                groups.append((pos, 2, lambda ts: ts[1] % 2 == 1))
        else:
            p = factorize(m)[0][0]
            a = round(math.log(m, p))
            if a == 1:
                groups.append((pos, 1, lambda ts: ts[0] != 0))
            else:
                groups.append((pos, 1, lambda ts, p=p: ts[0] % p != 0))
        pos += nd

    def check(digits: Sequence[int]) -> bool:
        for start, nd, pred in groups:
            if nd == 0:
                return False  # a 2^1 factor forces an imprimitive character
            if not pred(list(digits[start : start + nd])):
                return False
        return True

    return check


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum over units m of chi(m) e(m/q)."""
    q = chi.modulus
    if q == 1:
        return 1.0 + 0.0j
    m = np.arange(q)
    return complex(np.dot(chi.values, np.exp(2j * np.pi * m / q)))


# ---------------------------------------------------------------------------
# Mean values / residues


@dataclass(frozen=True)
class MeanDensityResult:
    """Two-scale extrapolated mean of f(q0 n) chi(n) over n coprime to q1.

    estimate = 2*mean(N) - mean(N/2); error_gap = |mean(N) - mean(N/2)|.
    expected_zero marks principal-character densities of pole-free specs,
    which are reported but should tend to zero.
    """

    q0: int
    q1: int
    estimate: complex
    error_gap: float
    n_used: int
    expected_zero: bool = False


def mean_density(
    spec: MultSpec,
    q0: int,
    q1: int,
    chi: DirichletCharacter,
    n_terms: int,
    cache: WindowCache | None = None,
    sums: dict[tuple[int, int], int | complex] | None = None,
) -> MeanDensityResult:
    """Residue at s=1 of sum_{(n,q1)=1} f(q0 n) chi(n) n^(-s), as a mean value.

    The means are taken over n <= M for M = n_terms // 2 and M = n_terms.
    A principal chi sums by Moebius inversion over the prefixes of the
    windows f(k n), k = q0 d (see `_principal_sums`), exactly in Python
    ints for exact families; sums memoises those prefixes by (k, m) for one
    spec.  Any other chi multiplies the window f(q0 n) by its tiled values.
    """
    if chi.modulus != q1:
        raise DomainError(f"character modulus {chi.modulus} != q1 = {q1}")
    if n_terms < 2:
        raise DomainError("n_terms must be >= 2")
    cache = cache or WindowCache()
    half = n_terms // 2
    if chi.is_principal:
        s_half, s_full = _principal_sums(spec, q0, q1, n_terms, cache, sums)
        s_half, s_full = complex(s_half), complex(s_full)
    else:
        win = cache.window(spec, q0, 1, n_terms)
        prods = win.values * _tiled_character(chi, n_terms)
        s_half = complex(prods[:half].sum())
        s_full = s_half + complex(prods[half:].sum())
    mean_full = s_full / n_terms
    mean_half = s_half / half
    estimate = 2.0 * mean_full - mean_half
    gap = abs(mean_full - mean_half)
    return MeanDensityResult(
        q0=q0,
        q1=q1,
        estimate=estimate,
        error_gap=gap,
        n_used=n_terms,
        expected_zero=(not spec.has_pole) and chi.is_principal,
    )


def _principal_sums(
    spec: MultSpec,
    q0: int,
    q1: int,
    n_terms: int,
    cache: WindowCache,
    sums: dict[tuple[int, int], int | complex] | None,
) -> list[int | complex]:
    """sum_{n <= M, (n, q1) = 1} f(q0 n) for M = n_terms // 2 and n_terms.

    By Moebius inversion over d = gcd(n, q1), this is
    sum_{d | q1} mu(d) sum_{m <= M // d} f(q0 d m): signed prefixes of the
    windows f(k n), n <= n_terms, for k = q0 d.  Each distinct (k, m) is
    summed once into sums.
    """
    sums = {} if sums is None else sums
    totals = [0, 0]
    for d, mu in _moebius_divisors(q1):
        k = q0 * d
        ms = [n_terms // 2 // d, n_terms // d]
        missing = [m for m in ms if (k, m) not in sums]
        if missing:
            win = cache.window(spec, k, 1, n_terms)
            for m in missing:
                sums[(k, m)] = _prefix_sum(win, m)
        for i, m in enumerate(ms):
            totals[i] += mu * sums[(k, m)]
    return totals


def _moebius_divisors(q: int) -> list[tuple[int, int]]:
    """(d, mu(d)) for every squarefree divisor d of q."""
    out = [(1, 1)]
    for p, _ in factorize(q):
        out += [(d * p, -mu) for d, mu in out]
    return out


def _prefix_sum(win: CoefficientWindow, m: int) -> int | complex:
    """sum_{n <= m} of the window's values: exact (`rounding.exact_sum`,
    bounded by the window's peak) for int64 windows."""
    values = win.values[:m]
    if values.dtype != np.int64:
        return complex(values.sum())
    return exact_sum(values, win.peak)


def _tiled_character(chi: DirichletCharacter, n_terms: int) -> np.ndarray:
    """chi(n) for n = 1..n_terms by tiling one period; real for 0/1 tables."""
    q1 = chi.modulus
    pattern = chi.values[(np.arange(q1) + 1) % q1]
    if np.allclose(pattern.imag, 0.0):
        pattern = pattern.real.copy()
    reps = -(-n_terms // q1)
    return np.tile(pattern, reps)[:n_terms]


def singular_coefficient(
    spec: MultSpec,
    q: int,
    n_terms: int,
    cache: WindowCache | None = None,
    groups: dict[int, CharacterGroup] | None = None,
) -> complex:
    """C_q = sum over q = q0*q1 of mu(q1)/(phi(q1) q0) times the principal
    mean density for (q0, q1)."""
    c, _ = _singular_coefficient_with_error(spec, q, n_terms, cache, groups)
    return c


def _group(q1: int, groups: dict[int, CharacterGroup] | None) -> CharacterGroup:
    if groups is not None:
        if q1 not in groups:
            groups[q1] = characters_mod(q1)
        return groups[q1]
    return characters_mod(q1)


def _singular_coefficient_with_error(
    spec: MultSpec,
    q: int,
    n_terms: int,
    cache: WindowCache | None = None,
    groups: dict[int, CharacterGroup] | None = None,
    sums: dict[tuple[int, int], int | complex] | None = None,
) -> tuple[complex, float]:
    if q < 1:
        raise DomainError("q must be >= 1")
    sums = {} if sums is None else sums
    total = 0.0 + 0.0j
    err = 0.0
    for q1 in sorted(d for d in range(1, q + 1) if q % d == 0):
        mu = moebius(q1)
        if mu == 0:
            continue
        q0 = q // q1
        principal = _group(q1, groups).principal
        dens = mean_density(spec, q0, q1, principal, n_terms, cache, sums)
        w = mu / (euler_phi(q1) * q0)
        total += w * dens.estimate
        err += abs(w) * dens.error_gap
    return total, err


def local_density(
    spec: MultSpec,
    q: int,
    a: int,
    n_terms: int,
    cache: WindowCache | None = None,
    groups: dict[int, CharacterGroup] | None = None,
) -> tuple[complex, float]:
    """C(a, q) = lim mean of f(n) e(an/q), with its propagated error gap.

    The expansion of twisted_progression_check: over q = q0*q1 and every
    chi mod q1, tau(conj chi) chi(a) / (q0 phi(q1)) times the mean density
    of f(q0 n) chi(n).  Its principal terms are C_q, so the mean over the
    units a is singular_coefficient; the other characters carry the poles
    of the twisted series (+-i pi/8 at q = 4 for the 1*chi4 witness).
    The error gap is the weighted sum of the density gaps, an error scale
    rather than a bound.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    if math.gcd(a, q) != 1:
        raise DomainError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    total = 0.0 + 0.0j
    err = 0.0
    sums: dict[tuple[int, int], int | complex] = {}
    for q1 in sorted(d for d in range(1, q + 1) if q % d == 0):
        q0 = q // q1
        for chi in _group(q1, groups).characters:
            dens = mean_density(spec, q0, q1, chi, n_terms, cache, sums)
            tau_conj = chi(-1) * gauss_sum(chi).conjugate()  # tau(conj chi)
            w = tau_conj * chi(a) / (q0 * euler_phi(q1))
            total += w * dens.estimate
            err += abs(w) * dens.error_gap
    return total, err


@dataclass(frozen=True)
class SingularSeries:
    """Truncated singular-series table and main-term factor.

    series_value = sum_{1 <= q < Q} phi(q) * C_q^exponent (real part), with
    the fitted-tail model |C_q| <= fit_c * q^(fit_delta - 1) integrated over
    q >= Q as tail_estimate.
    """

    spec_id: str
    q_cut: int
    c_table: np.ndarray          # C_q for q = 1..Q-1
    c_errors: np.ndarray         # propagated density error per q
    series_value: float
    series_imag: float
    tail_estimate: float
    fit_c: float
    fit_delta: float
    n_used: int
    exponent: int = 3


def singular_series_sum(
    spec: MultSpec,
    q_cut: int,
    n_terms: int,
    exponent: int = 3,
    cache: WindowCache | None = None,
    threads: int = 1,
) -> SingularSeries:
    """Assemble C_q for q < q_cut and the main-term factor sum phi(q) C_q^e.

    Each C_q is a sum of means of f(q0 n), n <= n_terms, over the divisors
    q0 of q.  All those progression windows come from one
    WindowCache.windows call, which sieves the missing ones together on
    threads workers; the q-loop then reduces over exactly the windows it
    returned, however few of them the cache can keep.
    """
    if q_cut < 2:
        raise DomainError("q_cut must be >= 2")
    cache = cache or WindowCache()
    groups: dict[int, CharacterGroup] = {}
    sums: dict[tuple[int, int], int | complex] = {}

    # The windows are the expensive part; the q-loop is a cheap
    # deterministic reduction over them.
    q0_set = sorted(
        {q // q1 for q in range(1, q_cut) for q1 in range(1, q + 1)
         if q % q1 == 0 and moebius(q1) != 0}
    )
    held = WindowCache.holding(
        cache.windows(spec, q0_set, 1, n_terms, threads=threads)
    )
    c_table = np.zeros(q_cut - 1, dtype=np.complex128)
    c_err = np.zeros(q_cut - 1, dtype=np.float64)
    for q in range(1, q_cut):
        c, e = _singular_coefficient_with_error(spec, q, n_terms, held, groups, sums)
        c_table[q - 1] = c
        c_err[q - 1] = e

    qs = np.arange(1, q_cut, dtype=np.float64)
    phis = np.array([euler_phi(int(q)) for q in range(1, q_cut)], dtype=np.float64)
    series = complex((phis * c_table**exponent).sum())

    fit_c, fit_delta, tail = _fit_tail(qs, c_table, c_err, q_cut, exponent)
    return SingularSeries(
        spec_id=spec.spec_id,
        q_cut=q_cut,
        c_table=c_table,
        c_errors=c_err,
        series_value=float(series.real),
        series_imag=float(series.imag),
        tail_estimate=tail,
        fit_c=fit_c,
        fit_delta=fit_delta,
        n_used=n_terms,
        exponent=exponent,
    )


def _fit_tail(qs, c_table, c_err, q_cut, exponent):
    """Least-squares |C_q| ~ c*q^(delta-1) on the non-noise entries, then
    integrate phi(q)|C_q|^e <= q (c q^(delta-1))^e over the tail q >= Q."""
    mags = np.abs(c_table)
    keep = mags > 10.0 * c_err  # entries consistent with zero are noise
    keep &= mags > 0
    if keep.sum() < 2:
        return 0.0, 0.0, 0.0
    x = np.log(qs[keep])
    y = np.log(mags[keep])
    slope, intercept = np.polyfit(x, y, 1)
    delta = float(slope + 1.0)
    c = float(np.exp(intercept))
    expo = exponent * (delta - 1.0) + 1.0  # phi(q)|C_q|^e <= c^e q^expo
    if expo >= -1.0:
        return c, delta, float("inf")
    # sum_{q >= Q} q^expo: explicit head plus integral remainder
    head = sum(q**expo for q in range(q_cut, q_cut + 64))
    rest = (q_cut + 64.0) ** (expo + 1.0) / -(expo + 1.0)
    return c, delta, float(c**exponent * (head + rest))


# ---------------------------------------------------------------------------
# Additive/multiplicative decomposition check


def twisted_progression_check(
    spec: MultSpec,
    q: int,
    a: int,
    n_terms: int,
    cache: WindowCache | None = None,
) -> float:
    """|additive side - character side| for sum_{n <= N} f(n) e(an/q).

    The character side decomposes over q = q0*q1 by the gcd of n with q and
    expands e(a n/q1) through Gauss sums; the identity is exact for every
    truncation N, so the returned difference is pure roundoff.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    if q > 1 and math.gcd(a, q) != 1:
        raise DomainError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    cache = cache or WindowCache()

    win = cache.window(spec, 1, 1, n_terms)
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    additive = complex(np.dot(win.values, np.exp(2j * np.pi * ((a * n) % q) / q)))

    char_side = 0.0 + 0.0j
    for q1 in sorted(d for d in range(1, q + 1) if q % d == 0):
        q0 = q // q1
        group = characters_mod(q1)
        m_cut = n_terms // q0
        if m_cut < 1:
            continue
        wprog = cache.window(spec, q0, 1, m_cut)
        idx = np.arange(1, m_cut + 1, dtype=np.int64) % q1
        inner = np.array(
            [complex(np.dot(wprog.values, chi.values[idx])) for chi in group.characters]
        )
        # tau(conj chi) = chi(-1) conj(tau(chi))
        taus = np.array(
            [chi(-1) * gauss_sum(chi).conjugate() for chi in group.characters]
        )
        chi_a = np.array([chi(a) for chi in group.characters])
        char_side += (taus * chi_a * inner).sum() / euler_phi(q1)
    return abs(additive - char_side)
