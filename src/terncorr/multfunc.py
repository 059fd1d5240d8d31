"""Windows of divisor-bounded multiplicative functions.

A window holds f(q0*n) for n in a contiguous integer range.  Every family
is described by its values on prime powers, given by the one rule
local_factor(spec, p, e), and eval_at multiplies local_factor over a
trial-division factorisation.

Windows are filled by a segmented sieve that serves every q0 of a request
at once.  Let S be the primes dividing some q0.  Per segment, the sieve
finds the exact exponent of each prime up to the square root and of each
prime in S, multiplies local_factor into a base array for the primes
outside S, and keeps v_p(n) for p in S as a small int8 table; what the
smooth part leaves is one leftover prime above the square root.  The base
is B(n), f at n with its S-part removed, and each window is
B(n) * prod_{p in S} local_factor(p, v_p(n) + v_p(q0)).  A single window
is the one-q0 case.  Integer-valued families are sieved in exact int64
arithmetic and their windows hold only those int64 values; a window in
which some value could reach 2^62 is refused with BudgetError.

WindowCache keeps windows in memory and, optionally, in MFW3 files named by
spec id.  Its stream (`WindowCache.windows`) sieves all the windows one
request misses with one sieve per segment, hands each window or segment to
a consumer as soon as it is assembled or read, and keeps none of them.
"""

from __future__ import annotations

import enum
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import BudgetError, DomainError, SpecificationError

MAX_WINDOW_LEN = 1 << 26
MAX_POINT = 1 << 44
TRIAL_DIVISION_BOUND = 1_000_000
_SEGMENT = 1 << 20
# Exact windows refuse values that may reach this; the factor-2 margin below
# 2^63 absorbs the rounding of the float64 magnitude bound.
_EXACT_LIMIT = 1 << 62

_MAGIC = b"MFW3"
# magic, NUL-padded ASCII spec id, q0, lo, hi
_HEADER = struct.Struct("<4s32sQQQ")


class Kind(enum.Enum):
    DIVISOR_K = "divisor_k"
    MOEBIUS = "moebius"
    ONE_STAR_CHI4 = "one_star_chi4"
    RAMANUJAN_TAU_NORM = "tau_norm"
    USER_EULER = "user_euler"


@dataclass(frozen=True)
class MultSpec:
    """A multiplicative function given by its prime-power rule plus metadata.

    k_bound is the divisor-bound order: |f(n)| <= d_{k_bound}(n).  has_pole
    declares whether the principal-character Dirichlet series of f has a
    simple pole at s=1; pole-free specs get a zero main term downstream.
    A user rule is kept as the sorted items ((p, e), f(p^e)).
    """

    kind: Kind
    k: int = 1
    rule: tuple[tuple[tuple[int, int], complex], ...] = ()
    k_bound: int = 1
    has_pole: bool = False
    hypothesis_conditional: bool = False

    # -- factories ---------------------------------------------------------

    @staticmethod
    def divisor_k(k: int) -> "MultSpec":
        # d_k(p) = k, so a larger k refuses every window holding a prime;
        # the bound also keeps spec ids within the cache header's field.
        if not 1 <= k < _EXACT_LIMIT:
            raise DomainError("divisor order k must satisfy 1 <= k < 2^62")
        return MultSpec(kind=Kind.DIVISOR_K, k=k, k_bound=k, has_pole=True)

    @staticmethod
    def moebius() -> "MultSpec":
        # Membership of mu in the pole-free class is only conjectural, so
        # runs with it are tagged hypothesis-conditional.
        return MultSpec(
            kind=Kind.MOEBIUS, k_bound=1, has_pole=False, hypothesis_conditional=True
        )

    @staticmethod
    def one_star_chi4() -> "MultSpec":
        return MultSpec(kind=Kind.ONE_STAR_CHI4, k_bound=2, has_pole=True)

    @staticmethod
    def ramanujan_tau_norm() -> "MultSpec":
        return MultSpec(kind=Kind.RAMANUJAN_TAU_NORM, k_bound=2, has_pole=False)

    @staticmethod
    def user_euler(
        rule: Mapping[tuple[int, int], complex], k_bound: int, has_pole: bool = False
    ) -> "MultSpec":
        items = tuple(sorted((pe, complex(v)) for pe, v in rule.items()))
        return MultSpec(
            kind=Kind.USER_EULER, rule=items, k_bound=k_bound, has_pole=has_pole
        )

    # -- metadata ----------------------------------------------------------

    @property
    def spec_id(self) -> str:
        if self.kind is Kind.DIVISOR_K:
            return f"divisor{self.k}"
        return self.kind.value

    @property
    def is_exact(self) -> bool:
        """True when values are integers computed in exact arithmetic."""
        return self.kind in (Kind.DIVISOR_K, Kind.MOEBIUS, Kind.ONE_STAR_CHI4)

    @property
    def is_real(self) -> bool:
        if self.kind is Kind.USER_EULER:
            return all(v.imag == 0.0 for _, v in self.rule)
        return True

    @cached_property
    def rule_table(self) -> dict[tuple[int, int], complex]:  # built once per spec
        return dict(self.rule)


def spec_from_id(spec_id: str) -> MultSpec:
    """Resolve a CLI/config identifier to a built-in MultSpec."""
    s = spec_id.strip().lower()
    if s.startswith("divisor"):
        try:
            return MultSpec.divisor_k(int(s[len("divisor"):]))
        except ValueError:
            raise DomainError(f"bad divisor spec id {spec_id!r}") from None
    if s in ("moebius", "mu"):
        return MultSpec.moebius()
    if s == "one_star_chi4":
        return MultSpec.one_star_chi4()
    if s in ("tau", "tau_norm", "ramanujan_tau_norm"):
        return MultSpec.ramanujan_tau_norm()
    raise DomainError(f"unknown spec id {spec_id!r}")


@dataclass(frozen=True)
class CoefficientWindow:
    """f(q0*n) for n in [lo, hi], immutable after construction.

    values is the one value array: int64 for integer-valued (exact)
    families, float64 for tau and real user rules, complex128 for complex
    user rules.  A consumer whose int64 products could wrap uses as_float.
    """

    lo: int
    hi: int
    q0: int
    values: np.ndarray
    spec: MultSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise DomainError(
                f"window requires 1 <= lo <= hi, got lo={self.lo}, hi={self.hi}"
            )
        if self.q0 < 1:
            raise DomainError("stride base q0 must be >= 1")
        if len(self.values) != self.hi - self.lo + 1:
            raise DomainError("values length must equal hi - lo + 1")
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    @cached_property
    def peak(self) -> int | float:
        """max |f(q0*n)| over the window, found once on first use."""
        if self.values.dtype == np.int64:  # |values| < 2^62, so -min cannot wrap
            return int(max(self.values.max(), -self.values.min()))
        return float(np.abs(self.values).max())

    def covers(self, a: int, b: int) -> bool:
        return self.lo <= a and b <= self.hi

    def segment(self, a: int, b: int) -> np.ndarray:
        """Values for n in [a, b] (indices, not multiplied by q0)."""
        if not self.covers(a, b):
            raise DomainError(
                f"window [{self.lo},{self.hi}] does not cover [{a},{b}]"
            )
        return self.values[a - self.lo : b - self.lo + 1]


def as_float(values: np.ndarray) -> np.ndarray:
    """int64 values cast to float64; float and complex values unchanged.

    For consumers whose sums or products of int64 window values could wrap.
    """
    return values.astype(np.result_type(values, np.float64), copy=False)


# ---------------------------------------------------------------------------
# Prime tables


_prime_lock = threading.Lock()
_prime_limit = 0
_primes = np.empty(0, dtype=np.int64)


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit (cached, grown on demand)."""
    global _prime_limit, _primes
    if limit <= 1:
        return np.empty(0, dtype=np.int64)
    with _prime_lock:
        if limit > _prime_limit:
            size = max(limit, 2 * _prime_limit, 1 << 16)
            sieve = np.ones(size + 1, dtype=bool)
            sieve[:2] = False
            for p in range(2, math.isqrt(size) + 1):
                if sieve[p]:
                    sieve[p * p :: p] = False
            _primes = np.nonzero(sieve)[0].astype(np.int64)
            _prime_limit = size
        cut = np.searchsorted(_primes, limit, side="right")
        return _primes[:cut]


def factorize(n: int, bound: int = TRIAL_DIVISION_BOUND) -> list[tuple[int, int]]:
    """Trial-division factorisation; BudgetError when a cofactor resists."""
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    out: list[tuple[int, int]] = []
    m = n
    for p in primes_up_to(min(math.isqrt(n), bound)):
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        if m > bound * bound:
            raise BudgetError(
                f"cannot certify factor {m} of {n} with trial division up to {bound}"
            )
        out.append((m, 1))
    return out


# ---------------------------------------------------------------------------
# Prime-power rule


def local_factor(spec: MultSpec, p, e) -> np.ndarray:
    """f(p^e) for primes p and exponents e >= 0, arrays or scalars broadcast.

    This is the one prime-power rule of every family; sieve windows and
    eval_at only multiply its values.  The result is int64 for exact kinds,
    refused with BudgetError when an entry reaches 2^62; float64 for tau,
    by the normalised Hecke recursion on lambda(p); complex128 for user
    rules, with SpecificationError naming the smallest missing p^e.  It may
    be a read-only broadcast view.
    """
    p = np.asarray(p, dtype=np.int64)
    e = np.asarray(e, dtype=np.int64)
    shape = np.broadcast(p, e).shape
    emax = int(e.max(initial=0))
    if spec.kind is Kind.USER_EULER:
        # Each distinct (p, e) is looked up once, then gathered.
        pairs, inverse = np.unique(
            np.stack(np.broadcast_arrays(p, e)).reshape(2, -1),
            axis=1, return_inverse=True,
        )
        pairs = [tuple(pe) for pe in pairs.T.tolist()]
        missing = [pe for pe in pairs if pe[1] and pe not in spec.rule_table]
        if missing:
            q, j = min(missing, key=lambda pe: pe[0] ** pe[1])
            raise SpecificationError(
                f"user Euler rule has no value for prime power {q}^{j}"
            )
        table = np.array(
            [spec.rule_table[pe] if pe[1] else 1 for pe in pairs],
            dtype=np.complex128,
        )
        return table[inverse.ravel()].reshape(shape)
    # One prime with many exponents: tabulate e = 0..max once and gather.
    # Otherwise e stays as given, so a scalar e is never broadcast over p.
    gather = p.ndim == 0 and e.ndim > 0
    ee = np.arange(emax + 1) if gather else e
    if spec.kind is Kind.DIVISOR_K:
        # d_k(p^e) = C(e + k - 1, k - 1), largest at e = emax.
        top = math.comb(emax + spec.k - 1, spec.k - 1)
        if top >= _EXACT_LIMIT:
            raise BudgetError(
                f"{spec.spec_id}(p^{emax}) = {top} is beyond exact int64 values"
            )
        table = [math.comb(j + spec.k - 1, spec.k - 1) for j in range(emax + 1)]
        out = np.array(table, dtype=np.int64)[ee]
    elif spec.kind is Kind.MOEBIUS:
        out = np.array([1, -1, 0], dtype=np.int64)[np.minimum(ee, 2)]
    elif spec.kind is Kind.ONE_STAR_CHI4:
        # sum_{j<=e} chi4(p^j): p = 2 -> 1, p = 1 mod 4 -> e + 1,
        # p = 3 mod 4 -> 1 for even e, 0 for odd e.
        r = p % 4
        out = np.where(r == 1, ee + 1, np.where(r == 3, 1 - ee % 2, 1))
    elif spec.kind is Kind.RAMANUJAN_TAU_NORM:
        # lambda(p^(j+1)) = lambda(p) lambda(p^j) - lambda(p^(j-1))
        from . import tau  # only tau specs load the tau engine

        lam = tau.tau_values(int(p.max(initial=1)))[p - 1]
        prev, cur = np.ones_like(lam), lam
        out = np.where(ee == 0, 1.0, lam)
        for j in range(2, emax + 1):
            prev, cur = cur, lam * cur - prev
            out = np.where(ee == j, cur, out)
    else:
        raise DomainError(f"no prime-power rule for kind {spec.kind}")
    if gather:
        return out[e]
    return out if out.shape == shape else np.broadcast_to(out, shape)


# ---------------------------------------------------------------------------
# Segmented sieve


def _valuations(p: int, start: int, hi: int) -> np.ndarray:
    """v_p(n) for the multiples n = start, start + p, ... <= hi of p, as int8.

    n <= MAX_POINT = 2^44, so every exponent, even plus that of a q0, fits.
    """
    v = np.ones((hi - start) // p + 1, dtype=np.int8)
    pe = p * p
    while pe <= hi:
        j0 = (-start % pe) // p  # first multiple of pe, as an index into v
        if j0 >= v.size:
            break
        v[j0 :: pe // p] += 1
        pe *= p
    return v


def _sieve_segment(
    spec: MultSpec, q0s: tuple[int, ...], lo: int, hi: int,
    outs: list[np.ndarray] | None, mapper=map, consume=None,
) -> None:
    """Fill outs[i] with f(q0s[i]*n) for n in [lo, hi], from one sieve.

    With outs None each q0 is assembled into a fresh array instead, and
    consume(i, values) takes it as soon as it is filled, so no more arrays
    are alive than mapper runs at once.

    Let S be the primes dividing some q0.  The sieve multiplies in every
    prime outside S and only records v_p(n) for p in S (an int8 table on
    the multiples of p), so it gives B(n), f at n with its S-part removed.
    Then f(q0*n) = B(n) * prod_{p in S} local_factor(p, v_p(n) + v_p(q0)):
    for p not dividing q0 the factor touches only the multiples of p.
    Exact kinds are int64, the others complex128; mapper runs the per-q0
    assembly.
    """
    size = hi - lo + 1
    facs = [dict(factorize(q0)) for q0 in q0s]
    shared = set().union(*facs)

    # |mu| <= 1 and 1*chi4 <= d, but d_k(n) <= k^Omega(n) <= k^log2(n) can
    # outgrow int64.  Then a float64 bound on each |f(q0 n)| is multiplied
    # up alongside the values and checked before every int64 product.
    def guarded(q0):
        return spec.kind is Kind.DIVISOR_K and (
            spec.k ** ((q0 * hi).bit_length() - 1) >= _EXACT_LIMIT
        )

    def stamp(vals, mag, where, factors, q0, others=1):
        """vals[where] *= factors, and every other entry *= the scalar others."""
        for arr in (mag, vals):  # the bound first, so that no int64 product wraps
            if arr is None:
                continue
            if others == 1:
                arr[where] *= factors
            else:
                on = arr[where] * factors
                arr *= others
                arr[where] = on
            if arr is mag and (
                (mag if others != 1 else mag[where]).max(initial=0) >= _EXACT_LIMIT
            ):
                raise BudgetError(
                    f"{spec.spec_id}(n) for n in [{q0 * lo}, {q0 * hi}] can "
                    f"reach 2^62, beyond exact int64 windows"
                )

    # B <= f(q0 n) for divisor_k, so B reaching the limit refuses every q0.
    top = max(q0s)
    dtype = np.int64 if spec.is_exact else np.complex128
    base = np.ones(size, dtype=dtype)
    base_mag = np.ones(size, dtype=np.float64) if guarded(top) else None
    smooth = np.ones(size, dtype=np.int64)
    # v_p on the multiples of p in the segment, for p in S
    expos = {p: np.empty(0, dtype=np.int8) for p in sorted(shared)}
    plist = {int(p) for p in primes_up_to(math.isqrt(hi))} | shared
    for p in sorted(plist):
        first = -lo % p
        if first >= size:
            continue
        v = _valuations(p, lo + first, hi)
        if p in shared:
            expos[p] = v
        else:
            stamp(base, base_mag, slice(first, None, p), local_factor(spec, p, v), top)
        smooth[first::p] *= p ** np.arange(int(v.max()) + 1, dtype=np.int64)[v]
    # What the primes up to sqrt(hi) and S leave is one prime outside S, or 1.
    rest = np.arange(lo, hi + 1, dtype=np.int64)
    rest //= smooth  # in place: one window-size temporary fewer
    leftover = rest > 1
    if leftover.any():
        stamp(base, base_mag, leftover, local_factor(spec, rest[leftover], 1), top)
    del smooth, rest, leftover  # three window-size arrays fewer while assembling

    # The factors at the multiples of p, shared by every q0 that p misses.
    plain = {p: local_factor(spec, p, v) for p, v in expos.items()
             if v.size and not all(p in fac for fac in facs)}

    def assemble(i):
        q0, fac = q0s[i], facs[i]
        out = np.empty(size, dtype) if outs is None else outs[i]
        np.copyto(out, base)
        mag = base_mag.copy() if guarded(q0) else None
        for p, v in expos.items():
            where = slice(-lo % p, None, p)
            e0 = fac.get(p, 0)
            if e0 == 0:
                if p in plain:
                    stamp(out, mag, where, plain[p], q0)
                continue
            # Every entry carries the q0 part of p: f(p^(v_p(n) + e0)) on
            # the multiples of p, f(p^e0) off them.
            stamp(out, mag, where, local_factor(spec, p, v + e0), q0,
                  others=local_factor(spec, p, e0))
        if consume is not None:
            consume(i, out)

    list(mapper(assemble, range(len(q0s))))


def _segments(lo: int, hi: int):
    """The sieve segments [a, b] of [lo, hi], _SEGMENT terms each but the last."""
    for a in range(lo, hi + 1, _SEGMENT):
        yield a, min(a + _SEGMENT - 1, hi)


def _check_request(q0s, lo: int, hi: int):
    """DomainError or BudgetError unless every window f(q0*n), n in [lo, hi],
    of q0s may be built."""
    if not (1 <= lo <= hi):
        raise DomainError(f"window requires 1 <= lo <= hi, got lo={lo}, hi={hi}")
    if any(q0 < 1 for q0 in q0s):
        raise DomainError("q0 must be >= 1")
    if hi - lo + 1 > MAX_WINDOW_LEN:
        raise BudgetError(
            f"window length {hi - lo + 1} exceeds budget {MAX_WINDOW_LEN}"
        )
    if q0s and max(q0s) * hi > MAX_POINT:
        raise BudgetError(f"window endpoint {max(q0s) * hi} exceeds budget {MAX_POINT}")


def _build_windows(
    spec: MultSpec, q0s, lo: int, hi: int, mapper=map
) -> list[CoefficientWindow]:
    """The windows f(q0*n), n in [lo, hi], of every q0 in q0s, in order.

    Exact kinds share one sieve per segment among all q0s.  Float kinds
    (user rules) sieve each q0 on its own: their products round, and a
    value must not depend on which other q0 shared its call.  Any refusal
    refuses the whole call.
    """
    q0s = tuple(q0s)
    _check_request(q0s, lo, hi)
    if not q0s:
        return []

    if spec.kind is Kind.RAMANUJAN_TAU_NORM:
        from . import tau

        lam = tau.tau_values(max(q0s) * hi)
        d2 = _build_windows(MultSpec.divisor_k(2), q0s, lo, hi, mapper)
        wins = []
        for q0, bound in zip(q0s, d2):
            vals = lam[q0 * lo - 1 : q0 * hi : q0].copy()
            _assert_deligne(vals, bound.values)
            wins.append(CoefficientWindow(lo=lo, hi=hi, q0=q0, values=vals, spec=spec))
        return wins

    size = hi - lo + 1
    if spec.kind is Kind.DIVISOR_K and spec.k == 1:
        return [
            CoefficientWindow(lo=lo, hi=hi, q0=q0, values=np.ones(size, np.int64),
                              spec=spec)
            for q0 in q0s
        ]

    dtype = np.int64 if spec.is_exact else np.complex128
    outs = [np.empty(size, dtype=dtype) for _ in q0s]
    groups = [range(len(q0s))] if spec.is_exact else [[i] for i in range(len(q0s))]
    for group in groups:
        for a, b in _segments(lo, hi):
            _sieve_segment(
                spec, tuple(q0s[i] for i in group), a, b,
                [outs[i][a - lo : b - lo + 1] for i in group], mapper,
            )
    if not spec.is_exact and spec.is_real:
        # imaginary parts exactly zero for real rules
        outs = [out.real.copy() for out in outs]
    return [
        CoefficientWindow(lo=lo, hi=hi, q0=q0, values=out, spec=spec)
        for q0, out in zip(q0s, outs)
    ]


def _assert_deligne(values: np.ndarray, d2: np.ndarray):
    """Runtime check |lambda(n)| <= d_2(n), full range, on every tau window."""
    if not (np.abs(values) <= d2 + 1e-9).all():
        raise AssertionError("Deligne bound violated in tau window")


def sieve_window(spec: MultSpec, lo: int, hi: int) -> CoefficientWindow:
    """Window of f(n) for n in [lo, hi], exact for integer-valued kinds."""
    return window_on_progression(spec, 1, lo, hi)


def window_on_progression(
    spec: MultSpec, q0: int, lo: int, hi: int
) -> CoefficientWindow:
    """Window of f(q0*n) for n in [lo, hi]."""
    return _build_windows(spec, (q0,), lo, hi)[0]


# ---------------------------------------------------------------------------
# Point evaluation


def eval_at(spec: MultSpec, n: int) -> int | float | complex:
    """f(n) as a Python scalar: local_factor at the prime powers of n.

    The factors are multiplied as Python numbers, so exact values stay
    exact beyond 2^63.
    """
    if n < 1:
        raise DomainError("eval_at requires n >= 1")
    factors = factorize(n)
    values = local_factor(spec, [p for p, _ in factors], [e for _, e in factors])
    return math.prod(values.tolist())


# ---------------------------------------------------------------------------
# Window cache files (binary layout MFW3)


def _block_dtype(spec: MultSpec) -> str:
    return "<i8" if spec.is_exact else "<f8"


@contextmanager
def _cache_writer(path: Path, spec: MultSpec | None, q0: int, lo: int, hi: int):
    """Yield write(values), which appends values to the MFW3 file of the
    window (spec, q0, lo, hi) at path, in order from lo.

    Only built-in families are cached, each under its spec id, and their
    values are real: the block is <i8 for exact families and <f8 for tau.
    The bytes go to a per-thread temporary file that replaces path in one
    step when the block is whole, so concurrent writers of one key never
    leave a torn file behind, and a writer that fails leaves none.
    """
    if spec is None or spec.kind is Kind.USER_EULER:
        raise DomainError("only windows of a built-in family can be cached")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, spec.spec_id.encode("ascii"), q0, lo, hi))
            # the values' own buffer: no bytes copy of values that are
            # already contiguous little-endian
            yield lambda values: fh.write(
                np.ascontiguousarray(values, dtype=_block_dtype(spec))
            )
            if fh.tell() != _HEADER.size + 8 * (hi - lo + 1):
                raise DomainError(f"{path}: the block of [{lo},{hi}] is not whole")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_window_cache(win: CoefficientWindow, path: str | Path) -> None:
    """Serialise a window: MFW3 header, then one block of its values."""
    with _cache_writer(Path(path), win.spec, win.q0, win.lo, win.hi) as write:
        write(win.values)


def read_window_cache(path: str | Path) -> CoefficientWindow:
    """Load an MFW3 file; DomainError unless it names a family and fits its header."""
    path = Path(path)
    raw = path.read_bytes()
    off = _HEADER.size
    if len(raw) < off or raw[:4] != _MAGIC:
        raise DomainError(f"{path} is not a coefficient cache file")
    _, sid, q0, lo, hi = _HEADER.unpack_from(raw)
    spec = spec_from_id(sid.rstrip(b"\0").decode("ascii", "replace"))
    size = hi - lo + 1
    expected = off + 8 * size
    if size < 1 or len(raw) != expected:
        raise DomainError(
            f"{path} holds {len(raw)} bytes; its header [{lo},{hi}] needs {expected}"
        )
    # A read-only view of raw on little-endian hosts; the window never writes.
    vals = np.frombuffer(raw, dtype=_block_dtype(spec), count=size, offset=off)
    vals = vals.astype(np.int64 if spec.is_exact else np.float64, copy=False)
    return CoefficientWindow(lo=int(lo), hi=int(hi), q0=int(q0), values=vals, spec=spec)


def cache_file_name(spec: MultSpec, q0: int, lo: int, hi: int) -> str:
    return f"mfw_{spec.spec_id}_{q0}_{lo}_{hi}.bin"


def _read_checked(path: Path, key: tuple) -> CoefficientWindow | None:
    """The window cached at path, or None (a miss) unless it is for key.

    key is (spec, q0, lo, hi).  A missing, mislabelled, truncated or
    unreadable file is a miss; the caller rebuilds and overwrites it.
    """
    if not path.exists():
        return None
    try:
        win = read_window_cache(path)
    except DomainError:
        return None
    return win if (win.spec, win.q0, win.lo, win.hi) == key else None


class WindowCache:
    """In-memory window cache with an optional on-disk directory.

    Memory holds up to max_items windows and drops the oldest first.
    counts() reports the memory hits, disk reads, builds and disk writes.
    """

    def __init__(self, directory: str | Path | None = None, max_items: int = 64):
        if max_items < 1:
            raise DomainError(f"a window cache must hold >= 1 window, not {max_items}")
        self._dir = Path(directory) if directory else None
        self._max = max_items
        self._mem: dict[tuple, CoefficientWindow] = {}
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("memory_hits", "disk_reads", "builds", "disk_writes"), 0
        )

    @classmethod
    def holding(cls, win: CoefficientWindow) -> "WindowCache":
        """A memory-only cache of exactly win: reading it back builds nothing."""
        held = cls(max_items=1)
        held._store(win)
        return held

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def _count(self, name: str, n: int = 1):
        with self._lock:
            self._counts[name] += n

    def _path(self, spec: MultSpec, q0: int, lo: int, hi: int) -> Path | None:
        if self._dir is None or spec.kind is Kind.USER_EULER:
            return None
        return self._dir / cache_file_name(spec, q0, lo, hi)

    def _store(self, win: CoefficientWindow):
        with self._lock:
            if len(self._mem) >= self._max:
                self._mem.pop(next(iter(self._mem)))
            self._mem[(win.spec, win.q0, win.lo, win.hi)] = win

    def _write(self, win: CoefficientWindow):
        path = self._path(win.spec, win.q0, win.lo, win.hi)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_window_cache(win, path)
            self._count("disk_writes")

    def _build(self, spec: MultSpec, q0: int, lo: int, hi: int) -> CoefficientWindow:
        win = window_on_progression(spec, q0, lo, hi)
        self._count("builds")
        self._write(win)
        return win

    def window(
        self, spec: MultSpec, q0: int, lo: int, hi: int, keep: bool = True
    ) -> CoefficientWindow:
        """The window f(q0*n), n in [lo, hi], from memory, disk or a sieve;
        kept in memory afterwards unless keep is False."""
        if spec.kind is Kind.DIVISOR_K and spec.k == 1:
            self._count("builds")
            return window_on_progression(spec, q0, lo, hi)  # cheaper to rebuild than hold
        key = (spec, q0, lo, hi)
        with self._lock:
            hit = self._mem.get(key)
            if hit is not None:
                self._counts["memory_hits"] += 1
                return hit
        path = self._path(spec, q0, lo, hi)
        win = _read_checked(path, key) if path is not None else None
        if win is not None:
            self._count("disk_reads")
        else:
            win = self._build(spec, q0, lo, hi)
        if keep:
            self._store(win)
        return win

    def windows(
        self, spec: MultSpec, q0s, lo: int, hi: int, consume, threads: int = 1
    ) -> None:
        """Hand consume(win) the window f(q0*n), n in [lo, hi], of every
        distinct q0 in q0s, and keep none of them.

        A window held in memory or on disk comes through window(), which
        rebuilds it alone if its file fails the key check.  The others are
        sieved together, one sieve per segment, and written through.  An
        exact window longer than one segment reaches consume as its
        segments, windows of [a, b] in increasing order, and its file is
        written segment by segment; every other window reaches consume
        whole.  threads workers read, assemble, write and consume the
        windows, so besides those memory held already at most threads of
        them are alive at once.  Any refusal refuses the whole call.
        """
        distinct = list(dict.fromkeys(q0s))
        _check_request(distinct, lo, hi)
        if spec.kind is Kind.DIVISOR_K and spec.k == 1:
            held = set(distinct)  # window() rebuilds each alone
        else:
            with self._lock:
                held = {q0 for q0 in distinct if (spec, q0, lo, hi) in self._mem}
            for q0 in distinct:
                path = self._path(spec, q0, lo, hi)
                if path is not None and path.exists():
                    held.add(q0)
        found = [q0 for q0 in distinct if q0 in held]
        missing = [q0 for q0 in distinct if q0 not in held]
        with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
            mapper = map if pool is None else pool.map
            list(mapper(lambda q0: consume(self.window(spec, q0, lo, hi, keep=False)),
                        found))
            if spec.is_exact:
                self._sieve_through(spec, missing, lo, hi, consume, mapper)
            else:  # float windows are sieved and reduced whole, one q0 at a time
                list(mapper(lambda q0: consume(self._build(spec, q0, lo, hi)), missing))

    def _sieve_through(self, spec: MultSpec, q0s, lo, hi, consume, mapper) -> None:
        """Sieve the exact windows of q0s jointly, segment by segment, writing
        each through and handing it (or its segments) to consume."""
        if not q0s:
            return
        self._count("builds", len(q0s))
        whole = hi - lo < _SEGMENT
        with ExitStack() as files:
            writers = [None] * len(q0s)
            if not whole and self._dir is not None:
                self._dir.mkdir(parents=True, exist_ok=True)
                writers = [
                    files.enter_context(_cache_writer(
                        self._path(spec, q0, lo, hi), spec, q0, lo, hi))
                    for q0 in q0s
                ]

            def take(a, b, i, values):
                win = CoefficientWindow(lo=a, hi=b, q0=q0s[i], values=values, spec=spec)
                if whole:
                    self._write(win)
                elif writers[i] is not None:
                    writers[i](values)
                consume(win)

            for a, b in _segments(lo, hi):
                _sieve_segment(spec, tuple(q0s), a, b, None, mapper,
                               partial(take, a, b))
        if not whole and self._dir is not None:
            self._count("disk_writes", len(q0s))
