"""Dirichlet characters, Gauss sums, mean-value residues and singular series.

Characters mod q are assembled by CRT from cyclic components: a primitive
root for each odd prime power, and the {-1, 5} generating pair for powers
of two.  The residue of sum f(q0 n) chi(n) n^(-s) at s=1 is realised as the
two-scale Richardson extrapolation of partial means.  Each window f(q0 n)
is reduced once to its residue-class sums mod q1 (`_class_sums`, exact for
integer families), and each character mod q1 is one dot product with them.
A principal character instead sums by Moebius inversion over gcd(n, q1):
signed prefixes of the windows f(q0 d n), d | q1, exact for exact families
(`rounding.exact_sum`).  The singular series needs only these, so it
reduces each window to its prefixes as the window is sieved or read, and
keeps none of them.  `local_densities` gives C(a, q) for every unit a
of q from one set of character densities, through the expansion
(`_character_expansion`) that the twisted-progression check also reads.
`main_term_gap` is the one place that decides whether a correlation has
the main term X*H*sum phi(q) C_q^3 (a pole at s = 1) or none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .multfunc import CoefficientWindow, MultSpec, WindowCache, factorize
from .rounding import INT64_MAX, exact_sum

MAX_CHARACTER_MODULUS = 1_000_000
MAX_TABLE_ENTRIES = 1 << 25  # phi(q) * q guard for full group tables
# The bytes of the progression windows a series sieves (and writes, with a
# cache directory); it holds at most one window per thread at once.
MAX_SERIES_BYTES = 1 << 32

# Memoised window reductions of one spec (see mean_density).
Sums = dict[tuple, int | complex | list[np.ndarray]]


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

    @functools.cached_property
    def table(self) -> np.ndarray:
        """phi(q) x q array whose row j is characters[j].values (read-only)."""
        table = np.array([chi.values for chi in self.characters])
        table.setflags(write=False)
        return table


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


def principal_character(q: int) -> DirichletCharacter:
    """The principal character mod q, from its coprimality table alone."""
    values = (np.gcd(np.arange(q), q) == 1).astype(np.complex128)
    return DirichletCharacter(
        modulus=q, index=0, is_principal=True, is_primitive=q == 1, values=values
    )


@functools.lru_cache(maxsize=16)
def characters_mod(q: int) -> CharacterGroup:
    """All phi(q) Dirichlet characters mod q, principal first.

    The groups of the last 16 moduli asked for are memoised; groups are
    immutable, so callers share them.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if q > MAX_CHARACTER_MODULUS:
        raise BudgetError(f"modulus {q} exceeds budget {MAX_CHARACTER_MODULUS}")
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
    for m, orders, dlogs in comps:
        for order, dl in zip(orders, dlogs):
            sub_orders.append(order)
            sub_dlogs.append(dl[n % m])
    coprime = np.gcd(n, q) == 1

    chars = []
    digits = [0] * len(sub_orders)
    for index in range(phi):
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
                is_primitive=_is_primitive(values, q),
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


def _is_primitive(values: np.ndarray, q: int) -> bool:
    """Whether the character with this value table mod q is primitive.

    chi is induced from a smaller modulus exactly when, for some prime
    p | q, chi(n) = 1 on every unit n = 1 (mod q/p).  That test reads
    |chi(n) - 1| < 1e-9, which is safe: chi(n) is a root of unity of order
    at most phi(q) < MAX_CHARACTER_MODULUS, so one other than 1 lies at
    least 2 sin(pi/phi(q)) > 6e-6 from 1, while the tables err by about
    1e-15.  (np.allclose would not do: its rtol of 1e-5 calls such values 1.)
    """
    for p, _ in factorize(q):
        v = values[np.arange(1, q, q // p)]  # n = 1 + k q/p, k < p
        if np.all((v == 0) | (np.abs(v - 1) < 1e-9)):
            return False
    return True


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum over units m of chi(m) e(m/q)."""
    q = chi.modulus
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
    sums: Sums | None = None,
) -> MeanDensityResult:
    """Residue at s=1 of sum_{(n,q1)=1} f(q0 n) chi(n) n^(-s), as a mean value.

    The means are taken over n <= M for M = n_terms // 2 and M = n_terms.
    A principal chi sums by Moebius inversion over the prefixes of the
    windows f(k n), k = q0 d (see `_principal_sums`), exactly in Python
    ints for exact families.  Any other chi is its value table dotted with
    the residue-class sums mod q1 of f(q0 n) at both cuts (`_class_sums`).
    sums memoises both kinds of sum for one spec: prefixes by (k, m), class
    sums by (q0, q1, n_terms).
    """
    if chi.modulus != q1:
        raise DomainError(f"character modulus {chi.modulus} != q1 = {q1}")
    if n_terms < 2:
        raise DomainError("n_terms must be >= 2")
    cache = cache or WindowCache()
    sums = {} if sums is None else sums
    half = n_terms // 2
    if chi.is_principal:
        s_half, s_full = _principal_sums(spec, q0, q1, n_terms, cache, sums)
        s_half, s_full = complex(s_half), complex(s_full)
    else:
        key = (q0, q1, n_terms)
        if key not in sums:
            win = cache.window(spec, q0, 1, n_terms)
            sums[key] = [np.asarray(_class_sums(win, q1, m), np.complex128)
                         for m in (half, n_terms)]
        s_half, s_full = (complex(chi.values @ r) for r in sums[key])
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
    sums: Sums,
) -> list[int | complex]:
    """sum_{n <= M, (n, q1) = 1} f(q0 n) for M = n_terms // 2 and n_terms.

    By Moebius inversion over d = gcd(n, q1), this is
    sum_{d | q1} mu(d) sum_{m <= M // d} f(q0 d m): signed prefixes of the
    windows f(k n), n <= n_terms, for k = q0 d.  Each distinct (k, m) is
    summed once into sums.
    """
    totals = [0, 0]
    for mu, k, ms in _principal_terms(q0, q1, n_terms):
        missing = [m for m in ms if (k, m) not in sums]
        if missing:
            win = cache.window(spec, k, 1, n_terms)
            for m in missing:
                sums[(k, m)] = _prefix_sum(win, m)
        for i, m in enumerate(ms):
            totals[i] += mu * sums[(k, m)]
    return totals


def _principal_terms(q0: int, q1: int, n_terms: int) -> list[tuple[int, int, tuple]]:
    """(mu(d), k, (M // 2 // d, M // d)) with k = q0 d and M = n_terms, for
    every squarefree d | q1: the signed prefixes of `_principal_sums`."""
    return [(mu, q0 * d, (n_terms // 2 // d, n_terms // d))
            for d, mu in _moebius_divisors(q1)]


def _moebius_divisors(q: int) -> list[tuple[int, int]]:
    """(d, mu(d)) for every squarefree divisor d of q."""
    out = [(1, 1)]
    for p, _ in factorize(q):
        out += [(d * p, -mu) for d, mu in out]
    return out


def _prefix_sum(win: CoefficientWindow, m: int) -> int | complex:
    """sum_{lo <= n <= m} of the window's values, m >= lo - 1: exact
    (`rounding.exact_sum`, bounded by the window's peak) for int64 windows."""
    values = win.values[: m - win.lo + 1]
    if values.dtype != np.int64:
        return complex(values.sum())
    return exact_sum(values, win.peak)


def _class_sums(win: CoefficientWindow, q1: int, m: int) -> np.ndarray:
    """R[r] = sum_{n <= m, n = r (mod q1)} of the window's values, r < q1.

    Column j of values[:m] in rows of q1 holds the n = j + 1 (mod q1).  An
    int64 column adds at most ceil(m/q1) terms of size <= peak, so its
    int64 sum is exact while ceil(m/q1)*peak <= 2^63 - 1; past that each
    column goes through `rounding.exact_sum` and R holds Python ints.
    """
    values = win.values[:m]
    if values.dtype == np.int64 and -(-m // q1) * win.peak > INT64_MAX:
        cols = np.array(
            [exact_sum(values[j::q1], win.peak) for j in range(q1)], dtype=object
        )
    else:
        full = m - m % q1
        cols = values[:full].reshape(-1, q1).sum(axis=0)
        cols[: m - full] += values[full:]
    return np.roll(cols, 1)


def _character_expansion(q: int, units: np.ndarray):
    """Yield (q0, q1, group, w) for q = q0*q1: w[j, i] = tau(conj chi_j)
    chi_j(a) / phi(q1) for group.characters[j] and a = units[i].

    For n = q0 m with (m, q1) = 1, e(an/q) = e(am/q1) = sum_j w[j, i] chi_j(m),
    the Gauss-sum expansion of an additive character on units; each a is a
    unit mod q (or 0 for q = 1).
    """
    for q1 in (d for d in range(1, q + 1) if q % d == 0):
        group = characters_mod(q1)
        # tau(conj chi) = chi(-1) conj(tau(chi))
        taus = np.array([chi(-1) * gauss_sum(chi).conjugate()
                         for chi in group.characters])[:, None]
        yield q // q1, q1, group, taus * group.table[:, units % q1] / euler_phi(q1)


def singular_coefficient(
    spec: MultSpec,
    q: int,
    n_terms: int,
    cache: WindowCache | None = None,
    sums: Sums | None = None,
) -> tuple[complex, float]:
    """(C_q, error gap): C_q = sum over q = q0*q1 of w = mu(q1)/(phi(q1) q0)
    times the principal mean density for (q0, q1), and the gap the sum of
    |w| times the density gaps.  No character group is built."""
    if q < 1:
        raise DomainError("q must be >= 1")
    cache = cache or WindowCache()
    sums = {} if sums is None else sums
    total = 0.0 + 0.0j
    err = 0.0
    for q1, mu in sorted(_moebius_divisors(q)):
        q0 = q // q1
        chi = principal_character(q1)
        dens = mean_density(spec, q0, q1, chi, n_terms, cache, sums)
        w = mu / (euler_phi(q1) * q0)
        total += w * dens.estimate
        err += abs(w) * dens.error_gap
    return total, err


def local_densities(
    spec: MultSpec,
    q: int,
    n_terms: int,
    cache: WindowCache | None = None,
    sums: Sums | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(units, C, gaps): the units 1 <= a <= q of q in increasing order, with
    C(a, q) = lim mean of f(n) e(an/q) and its error gap for each.

    One mean density of f(q0 n) chi(n) per q = q0*q1 and chi mod q1, times
    the weights w / q0 of `_character_expansion` for all units at once: the
    principal terms give C_q, the others the twisted poles (+-i pi/8 at q = 4
    for 1*chi4).  Gaps are error scales, not bounds.
    """
    if q < 1:
        raise DomainError("q must be >= 1")
    cache = cache or WindowCache()
    sums = {} if sums is None else sums
    units = np.array([a for a in range(1, q + 1) if math.gcd(a, q) == 1])
    total = err = 0.0  # arrays over the units after the first q1
    for q0, q1, group, w in _character_expansion(q, units):
        dens = [mean_density(spec, q0, q1, chi, n_terms, cache, sums)
                for chi in group.characters]
        total += np.array([d.estimate for d in dens]) @ (w / q0)
        err += np.array([d.error_gap for d in dens]) @ np.abs(w / q0)
    return units, total, err


@dataclass(frozen=True)
class SingularSeries:
    """Truncated singular-series table and main-term factor.

    series_value = sum_{1 <= q < Q} phi(q) * C_q^3 (real part), with the
    fitted-tail model |C_q| <= fit_c * q^(fit_delta - 1) integrated over
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

    def value_below(self, q_cut: int) -> float:
        """series_value of the table cut at q_cut <= Q: its first q_cut - 1
        entries, summed as a series summed to q_cut would sum them."""
        if not 2 <= q_cut <= self.q_cut:
            raise DomainError(f"q_cut = {q_cut} is not in [2, {self.q_cut}]")
        return _main_factor(self.c_table[: q_cut - 1]).real


def _main_factor(c_table: np.ndarray) -> complex:
    """sum phi(q) C_q^3 over the table of C_q, q = 1, 2, ..."""
    phis = np.array([euler_phi(q) for q in range(1, len(c_table) + 1)],
                    dtype=np.float64)
    return complex((phis * c_table**3).sum())


def main_term_gap(
    spec: MultSpec,
    value: complex,
    x: int,
    h: int,
    epsilon: float,
    series_value: float | None = None,
) -> tuple[float, float]:
    """(main term, relative gap) of a symmetric correlation S(X, H) = value.

    A spec with a pole at s = 1 has the main term X*H*sum phi(q) C_q^3
    (series_value, which it needs) and the gap |S - main| / max(|main|, 1).
    A pole-free spec has main term 0 and the smallness ratio
    |S| / (X * H^(1 - epsilon)) as its gap; it reads no series.
    """
    if not spec.has_pole:
        return 0.0, abs(value) / (x * h ** (1.0 - epsilon))
    if series_value is None:
        raise DomainError(f"{spec.spec_id} has a pole: its main term needs a series")
    main = x * h * series_value
    return main, abs(value - main) / max(abs(main), 1.0)


def singular_series_sum(
    spec: MultSpec,
    q_cut: int,
    n_terms: int,
    cache: WindowCache | None = None,
    threads: int = 1,
) -> SingularSeries:
    """Assemble C_q for q < q_cut and the main-term factor sum phi(q) C_q^3.

    Each C_q is a sum of principal means of f(k n), n <= n_terms, over
    the divisors k of q, and each mean reads two prefix sums of its
    window.  One WindowCache.windows stream sieves the missing windows
    together (or reads them) on threads workers and reduces each window,
    or each segment of it, to every prefix sum the q-loop reads, then
    drops it.  The q-loop finds all of them memoised and asks for no
    window.  Exact sums come in per-segment pieces of Python ints, float
    ones from the whole window, so each sum is the one that
    `_principal_sums` forms from a whole window.
    """
    if q_cut < 2:
        raise DomainError("q_cut must be >= 2")
    cache = cache or WindowCache()
    sums: Sums = {}

    cuts: dict[int, set[int]] = {}  # window q0 -> the prefix cuts read
    for q in range(1, q_cut):
        for q1, _ in _moebius_divisors(q):
            for _, k, ms in _principal_terms(q // q1, q1, n_terms):
                cuts.setdefault(k, set()).update(ms)
    size = len(cuts) * n_terms * (8 if spec.is_real else 16)
    if size > MAX_SERIES_BYTES:
        raise BudgetError(f"{len(cuts)} series windows of N = {n_terms} terms take "
                          f"{size} bytes, over budget {MAX_SERIES_BYTES}")

    def reduce(win: CoefficientWindow):
        # Each cut fetches the window from a one-window cache, as
        # _principal_sums fetches a cached one, so the cache calls that a
        # tracer of WindowCache.window sees keep their shape.  A segment
        # adds a piece to each cut it reaches; the first starts every cut.
        held = WindowCache.holding(win)
        for m in sorted(cuts[win.q0]):
            if m >= win.lo or win.lo == 1:
                piece = _prefix_sum(held.window(spec, win.q0, win.lo, win.hi), m)
                key = (win.q0, m)
                sums[key] = sums[key] + piece if key in sums else piece

    cache.windows(spec, sorted(cuts), 1, n_terms, reduce, threads=threads)
    c_table = np.zeros(q_cut - 1, dtype=np.complex128)
    c_err = np.zeros(q_cut - 1, dtype=np.float64)
    for q in range(1, q_cut):
        c, e = singular_coefficient(spec, q, n_terms, cache, sums)
        c_table[q - 1] = c
        c_err[q - 1] = e

    series = _main_factor(c_table)
    qs = np.arange(1, q_cut, dtype=np.float64)
    fit_c, fit_delta, tail = _fit_tail(qs, c_table, c_err, q_cut)
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
    )


def _fit_tail(qs, c_table, c_err, q_cut):
    """Least-squares |C_q| ~ c*q^(delta-1) on the non-noise entries, then
    integrate phi(q)|C_q|^3 <= q (c q^(delta-1))^3 over the tail q >= Q."""
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
    expo = 3 * (delta - 1.0) + 1.0  # phi(q)|C_q|^3 <= c^3 q^expo
    if expo >= -1.0:
        return c, delta, float("inf")
    # sum_{q >= Q} q^expo: explicit head plus integral remainder
    head = sum(q**expo for q in range(q_cut, q_cut + 64))
    rest = (q_cut + 64.0) ** (expo + 1.0) / -(expo + 1.0)
    return c, delta, float(c**3 * (head + rest))


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
    expands e(a n/q1) through Gauss sums (`_character_expansion`), each
    character dotted with the residue-class sums of f(q0 m), m <= N // q0;
    the identity is exact for every truncation N, so the returned difference
    is pure roundoff.
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
    for q0, q1, group, w in _character_expansion(q, np.array([a])):
        m_cut = n_terms // q0
        if m_cut < 1:
            continue
        r = _class_sums(cache.window(spec, q0, 1, m_cut), q1, m_cut)
        char_side += w[:, 0] @ (group.table @ np.asarray(r, np.complex128))
    return abs(additive - char_side)
