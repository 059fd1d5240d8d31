"""Farey arc decompositions, short exponential sums, and supremum scans.

The circle [1/Q, 1+1/Q) is split into major arcs (a/q +- beta, q < Q,
beta = H^(8 eps - 1)) and their complement, the minor set.  The arcs are
disjoint when the least gap between two centres, that of 1/(Q-1) and
1/(Q-2), is at least 2 beta: that one comparison decides `decompose` and
`largest_disjoint_q`.  Where alpha lies relative to the arc set is read
from one rule, `_nearest`: the centre nearest alpha on the circle, and
alpha's signed distance g from it (|g| <= beta on the major arcs, >= beta
on the minor set).  A scan's clamp and its report's (q, a, gamma) use it.

Window sums S(alpha; x) = sum_{x <= n <= x+L} f(n) e(n alpha) are evaluated
either pointwise (phase recurrence, resynchronised in blocks) or on a full
uniform grid at once through FFTs of the zero-padded window, whose Taylor
bounds certify the sup scans cell by cell.

Budgets: Q <= MAX_DECOMPOSE_Q = 2000, and MAX_GRID_POINTS = 2^26 scan grid
points (`scan_grid_points`), which `arcs scan` checks, like --eta in (0, 1),
before it sieves any window.

The major-arc model of S(a/q + gamma; x) over [x, x+2H] is the local
density C(a, q) (dirichlet.local_densities) times the integral of e(gamma y).
For the 1*chi4 witness, r_2(n) = 4 (1*chi4)(n) turns S into a lattice-point
sum whose Poisson dual terms are added as well, cut off at |k| <= K with K
past the stationary point of the oscillation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetError, ConfigurationError, DomainError
from .multfunc import CoefficientWindow, Kind, MultSpec, as_float, sieve_window
from .rounding import ULP, certified_norm, fft_bin_error

_RESYNC_BLOCK = 1 << 14
_PHASE_SPLIT = 1 << 26
MAX_GRID_POINTS = 1 << 26
_CELL_PAD = 0.5 + 1e-6  # half a scan cell, and a margin for float arc ends
MAX_DECOMPOSE_Q = 2000
# Dual frequencies |k| kept beyond the stationary point.  On criterion 9's
# grid the worst residual/allowance was 1.29, 0.68, 0.38, 0.30, 0.38 and 0.36
# for margins 0, 4, 8, 12, 16 and 24: every margin from 4 up passes, and 12
# is where the measured worst ratio was least.
DUAL_MARGIN = 12


def __getattr__(name: str):
    """`arcs.scipy`, imported the first time it is read.

    Most commands never need scipy, and its import is a large part of a
    short job's start-up.  Once read, the module is a global of arcs, where
    a tracer or a test may replace it; arcs' own code reads it through
    `_scipy`, the same lookup.
    """
    if name != "scipy":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy

    globals()["scipy"] = scipy
    return scipy


def _scipy():
    """scipy as `arcs.scipy` gives it."""
    return sys.modules[__name__].scipy


@dataclass(frozen=True)
class MajorArc:
    a: int
    q: int

    @property
    def center(self) -> Fraction:
        return Fraction(self.a, self.q)


@dataclass(frozen=True)
class ArcDecomposition:
    q_cut: int
    h_span: int
    epsilon: float
    beta: float  # the radius of every major arc
    major: tuple[MajorArc, ...]
    domain: tuple[Fraction, Fraction]  # [1/Q, 1 + 1/Q)

    @cached_property
    def centers(self) -> np.ndarray:
        """a/q mod 1 for each arc, in the order of `major`: a float64 quotient
        of integers below 2^53 is correctly rounded, float(Fraction(a, q))."""
        a = np.array([arc.a for arc in self.major], dtype=np.float64)
        q = np.array([arc.q for arc in self.major], dtype=np.float64)
        return (a / q) % 1.0


def _least_gap(q_cut: int) -> float:
    """Least distance between two of the a/q with q < Q, for Q >= 3.

    Consecutive Farey fractions b/d < b'/d' of order n are 1/(d d') apart
    with d != d' (Hardy & Wright, Thm 28), so the least gap is 1/(n(n-1)),
    that of 1/n and 1/(n-1), at n = Q-1.
    """
    return float(Fraction(1, q_cut - 2) - Fraction(1, q_cut - 1))


def _beta(h_span: int, epsilon: float) -> float:
    """beta = H^(8 eps - 1), the radius of every major arc."""
    if h_span < 2:
        raise DomainError("H must be >= 2")
    if not (0.0 < epsilon < 0.125):
        raise DomainError("epsilon must lie in (0, 1/8)")
    return float(h_span) ** (-1.0 + 8.0 * epsilon)


def decompose(q_cut: int, h_span: int, epsilon: float) -> ArcDecomposition:
    """Major arcs around all a/q with q < Q; rejects overlapping arcs."""
    if q_cut < 2:
        raise DomainError("Q must be >= 2")
    beta = _beta(h_span, epsilon)
    if q_cut >= 3 and (gap := _least_gap(q_cut)) < 2.0 * beta:
        raise ConfigurationError(
            f"major arcs around {Fraction(1, q_cut - 1)} and {Fraction(1, q_cut - 2)} "
            f"overlap (gap {gap:.3g} < 2*beta = {2 * beta:.3g}); "
            f"Q = {q_cut} too large for H = {h_span}"
        )
    if q_cut > MAX_DECOMPOSE_Q:
        raise BudgetError(f"Q = {q_cut} exceeds arc budget {MAX_DECOMPOSE_Q}")
    return ArcDecomposition(
        q_cut=q_cut,
        h_span=h_span,
        epsilon=epsilon,
        beta=beta,
        major=tuple(MajorArc(a, q) for a, q in _farey(q_cut - 1)),
        domain=(Fraction(1, q_cut), 1 + Fraction(1, q_cut)),
    )


def _farey(n: int):
    """(a, q) for every reduced a/q in (0, 1] with q <= n, increasing.

    The Farey sequence of order n after 0/1, by its next-term rule: after
    the neighbours a/q < c/d comes (k c - a)/(k d - q), k = (n + q) // d.
    """
    a, q, c, d = 0, 1, 1, n
    while a < q:
        yield c, d
        k = (n + q) // d
        a, q, c, d = c, d, k * c - a, k * d - q


def largest_disjoint_q(q_cut: int, h_span: int, epsilon: float) -> int:
    """Largest Q' <= Q for which the decomposition has disjoint arcs.

    The least gap 1/((Q-1)(Q-2)) pins the answer near sqrt(1/(2 beta));
    from there Q counts down until that gap is at least 2 beta.
    """
    beta = _beta(h_span, epsilon)
    analytic = 2 + math.isqrt(max(0, int(1.0 / (2.0 * beta))))
    q = min(max(2, q_cut), analytic + 2)
    while q > 2 and _least_gap(q) < 2.0 * beta:
        q -= 1
    if q > MAX_DECOMPOSE_Q:
        raise BudgetError(f"Q = {q} exceeds arc budget {MAX_DECOMPOSE_Q}")
    return q


# ---------------------------------------------------------------------------
# Short exponential sums


def _phase_at(n: int, alpha: float) -> complex:
    """e(n*alpha) with the product n*alpha reduced mod 1 in split arithmetic."""
    k = round(alpha * _PHASE_SPLIT)
    alo = alpha - k / _PHASE_SPLIT
    frac = ((n * k) % _PHASE_SPLIT) / _PHASE_SPLIT + n * alo
    return complex(np.exp(2j * np.pi * frac))


def unit_phases(n0: int, count: int, alpha: float) -> np.ndarray:
    """e(n*alpha) for n = n0..n0+count-1.

    Generated by the one-step recurrence z -> z*e(alpha) inside blocks,
    re-anchored against a directly evaluated phase every 2^14 terms so the
    drift never exceeds a block's worth of rounding.
    """
    out = np.empty(count, dtype=np.complex128)
    step = complex(np.exp(2j * np.pi * (alpha % 1.0)))
    ladder = np.concatenate(
        [[1.0 + 0.0j], np.cumprod(np.full(min(count, _RESYNC_BLOCK) - 1, step))]
    ) if count > 1 else np.ones(1, dtype=np.complex128)
    pos = 0
    while pos < count:
        m = min(_RESYNC_BLOCK, count - pos)
        anchor = _phase_at(n0 + pos, alpha)
        out[pos : pos + m] = anchor * ladder[:m]
        pos += m
    return out


@dataclass(frozen=True)
class ExpSumSample:
    x: int
    alpha: float
    value: complex
    trivial_bound: float


def short_exp_sum(
    window: CoefficientWindow, x: int, length: int, alpha: float
) -> ExpSumSample:
    """S(alpha; x) = sum_{x <= n <= x+length} f(n) e(n alpha)."""
    if window.q0 != 1:
        raise DomainError("exponential sums need a plain (q0 = 1) window")
    vals = as_float(window.segment(x, x + length))  # int64 sums can wrap
    phases = unit_phases(x, length + 1, alpha)
    value = complex(np.dot(vals, phases))
    trivial = float(np.abs(vals).sum())
    return ExpSumSample(x=x, alpha=alpha % 1.0, value=value, trivial_bound=trivial)


# ---------------------------------------------------------------------------
# Bound shapes


def short_sum_bound(
    q: int,
    gamma: float,
    x_scale: int,
    h_span: int,
    eta: float,
    k: int,
    epsilon: float,
) -> float:
    """(q |gamma| X)^(1/2 + eps^2) H^(1/2) + H^eta (log X)^(k^2 - 1)."""
    if q < 1 or h_span < 2:
        raise DomainError("need q >= 1 and H >= 2")
    if not (0.0 < eta < 1.0):
        raise DomainError("eta must lie in (0, 1)")
    main = (q * abs(gamma) * x_scale) ** (0.5 + epsilon**2) * h_span**0.5
    tail = h_span**eta * math.log(x_scale) ** (k * k - 1)
    return main + tail


def geometric_minor_envelope(beta: float) -> float:
    """Exact sup of |sum_{n=x}^{x+L} e(n alpha)| at distance >= beta from
    the integers: the Dirichlet-kernel bound 1/sin(pi beta)."""
    if not (0.0 < beta <= 0.5):
        raise DomainError("beta must lie in (0, 1/2]")
    return 1.0 / math.sin(math.pi * beta)


def edge_divisor_sum(x: int, length: int, eta: float, k: int) -> float:
    """Companion tail term: sum of d_k over the two length-L^eta edges."""
    span = max(1, math.ceil(length**eta))
    left = sieve_window(MultSpec.divisor_k(k), max(1, x - span), x)
    right = sieve_window(MultSpec.divisor_k(k), x + length, x + length + span)
    return float(left.values.sum() + right.values.sum())


# ---------------------------------------------------------------------------
# Supremum scans


@dataclass(frozen=True)
class SupScanReport:
    kind: str
    sup_abs: float
    sup_upper: float
    argmax_x: int
    argmax_alpha: float
    bound_value: float
    ratio: float
    nearest_q: int
    nearest_a: int
    gamma: float
    grid_spacing: float
    refinement_depth: int
    round_sups: tuple[float, ...]
    trivial_bound: float
    edge_sum: float


def scan_grid_points(length: int) -> int:
    """M, the least power of two >= 64 (L+1): the points of a scan's grid."""
    m_grid = 1 << (64 * (length + 1) - 1).bit_length()
    if m_grid > MAX_GRID_POINTS:
        raise BudgetError(f"scan grid needs {m_grid} points, budget {MAX_GRID_POINTS}")
    return m_grid


def _major_bins(
    dec: ArcDecomposition, m_grid: int, half: int, pad: float, fold: bool
) -> np.ndarray:
    """Mask of bins 0..half with |k/M - c| <= beta + pad/M, mod 1, for a
    major arc centre c: pad = 0 marks the grid points in the arcs,
    +-_CELL_PAD the cells |alpha - k/M| <= 1/(2M) that meet an arc (lie
    inside one).  fold=True (real windows) reflects bins above M/2: |S| and
    the arc set are symmetric under alpha -> 1 - alpha.
    """
    mask = np.zeros(half + 1, dtype=bool)
    for c in dec.centers.tolist():
        i = math.ceil((c - dec.beta) * m_grid - pad)
        j = math.floor((c + dec.beta) * m_grid + pad) + 1
        idx = np.arange(i, j, dtype=np.int64) % m_grid
        if fold:
            idx = np.minimum(idx, m_grid - idx)
        mask[idx[idx <= half]] = True
    return mask


def _refine(
    window: CoefficientWindow,
    x: int,
    length: int,
    seeds: list[float],
    spacing: float,
    rounds: int,
    clamp,
) -> tuple[float, float, list[float]]:
    """Local refinement: 10x finer grids around the best points per round."""
    best_alpha, best_val = None, -1.0
    for s in seeds:
        v = abs(short_exp_sum(window, x, length, s).value)
        if v > best_val:
            best_val, best_alpha = v, s
    round_sups = [best_val]
    step = spacing
    current = list(seeds)
    for _ in range(rounds):
        step /= 10.0
        grids = (np.linspace(s - 5 * step, s + 5 * step, 11).tolist() for s in current)
        nxt = [clamp(t) for grid in grids for t in grid]
        vals = [abs(short_exp_sum(window, x, length, t).value) for t in nxt]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_alpha = vals[i], nxt[i]
        current = [nxt[int(o)] for o in np.argsort(vals)[::-1][:5]]
        round_sups.append(best_val)
    return best_val, best_alpha, round_sups


def sup_scan(
    window: CoefficientWindow,
    dec: ArcDecomposition,
    x: int,
    length: int,
    kind: str,
    eta: float = 0.65,
    k: int = 2,
    epsilon: float = 0.05,
) -> SupScanReport:
    """Supremum of |S(alpha; x)| over major or minor arcs: sup_abs attained,
    sup_upper certified.

    |S| does not depend on the phase, so S(alpha) = sum_{0 <= j <= L} f_j
    e((j - c) alpha), f_j = f(x+j), c = L/2.  On the grid k/M, M the least
    power of two >= 64 (L+1), transforms give S and T = sum_j (j - c) f_j
    e(j alpha), and Taylor bounds |S| on each cell |alpha - k/M| <= 1/(2M) by

        B_k = |S(k/M)| + pi |T(k/M)| / M + pi^2 sum_j (j-c)^2 |f_j| / (2 M^2)

    plus `rounding.fft_bin_error` per transform, from certified norms, and
    8 * 2^-53 sum|f| for the float64 arithmetic outside them.  sup_upper is
    the largest B_k over the cells meeting the arc set; sup_abs refines the
    best five grid points in it by three rounds of tenfold local grids.
    """
    if kind not in ("major", "minor"):
        raise DomainError("kind must be 'major' or 'minor'")
    m_grid = scan_grid_points(length)
    vals = as_float(window.segment(x, x + length))  # int64 sums can wrap
    size = np.abs(vals)
    trivial = float(size.sum())
    if trivial == 0.0:
        raise DomainError("window is identically zero on the scan range")

    is_real = not np.iscomplexobj(vals)
    half = m_grid // 2 if is_real else m_grid - 1
    pad = _CELL_PAD if kind == "major" else -_CELL_PAD
    points, cells = (_major_bins(dec, m_grid, half, p, is_real) for p in (0.0, pad))
    if kind == "minor":
        points, cells = ~points, ~cells
    if not points.any():
        raise ConfigurationError(
            f"{kind} arc set is empty at Q = {dec.q_cut}, beta = {dec.beta:.3g}"
        )

    # scipy.fft (via `arcs.scipy`, where a tracer may wrap it) only once
    # loaded, as its import costs 0.3 s; numpy.fft is the same pocketfft,
    # bit for bit.
    fft = _scipy().fft if "scipy.fft" in sys.modules else np.fft

    def magnitudes(v):
        if is_real:
            return np.abs(fft.rfft(v, m_grid))
        return np.abs(fft.ifft(v, m_grid, norm="forward"))  # e(+jk/M), unscaled

    offsets = np.arange(length + 1) - length / 2.0
    ramp = offsets * vals
    upper = magnitudes(ramp)
    upper *= math.pi / m_grid
    mags = magnitudes(vals)
    upper += mags
    rounding = (fft_bin_error(m_grid, certified_norm(vals)) + 8 * ULP * trivial
                + math.pi / m_grid * fft_bin_error(m_grid, certified_norm(ramp)))
    taylor = math.pi**2 * float(offsets**2 @ size) / (2.0 * m_grid**2)
    sup_upper = float(upper.max(where=cells, initial=0.0)) + taylor + rounding
    del upper

    # Seeds: the five largest grid values in the arc set.  Partitioning only
    # its bins, not the grid with the rest filled by ties, is ~20x faster.
    scanned = np.flatnonzero(points)
    if scanned.size > 5:
        scanned = scanned[np.argpartition(mags[scanned], -5)[-5:]]
    clamp = _make_clamp(dec, kind)
    seeds = [clamp(float(t) / m_grid) for t in scanned]
    sup, arg, round_sups = _refine(window, x, length, seeds, 1.0 / m_grid, 3, clamp)

    near, gamma = _nearest(dec, arg)
    bound = short_sum_bound(near.q, gamma, x, max(2, length), eta, k, epsilon)
    return SupScanReport(
        kind=kind,
        sup_abs=sup,
        sup_upper=sup_upper,
        argmax_x=x,
        argmax_alpha=arg,
        bound_value=bound,
        ratio=sup / bound if bound > 0 else math.inf,
        nearest_q=near.q,
        nearest_a=near.a,
        gamma=gamma,
        grid_spacing=1.0 / m_grid,
        refinement_depth=3,
        round_sups=tuple(round_sups),
        trivial_bound=trivial,
        edge_sum=edge_divisor_sum(x, length, eta, k),
    )


def _nearest(dec: ArcDecomposition, alpha: float) -> tuple[MajorArc, float]:
    """The major arc whose centre c is nearest alpha on the circle, and the
    signed distance g = (alpha mod 1 + shift) - c, shift in {-1, 0, 1}, of
    alpha from it; the first such arc, in the order of `major`, on a tie."""
    g = (alpha % 1.0 + np.array([-1.0, 0.0, 1.0])) - dec.centers[:, None]
    i = int(np.argmin(np.abs(g)))
    return dec.major[i // 3], float(g.flat[i])


def _make_clamp(dec: ArcDecomposition, kind: str):
    """alpha -> the nearest point of the closed major arcs or minor set, mod 1.

    alpha mod 1 stays when it lies in the set; else it moves to the edge of
    its nearest arc on its side.  Disjoint arcs of one radius make that edge
    the nearest point of either set.
    """
    def clamp(alpha: float) -> float:
        arc, g = _nearest(dec, alpha)
        if abs(g) <= dec.beta if kind == "major" else abs(g) >= dec.beta:
            return alpha % 1.0
        return (arc.a / arc.q % 1.0 + math.copysign(dec.beta, g)) % 1.0

    return clamp


# ---------------------------------------------------------------------------
# Major-arc model


@dataclass(frozen=True)
class MajorArcModel:
    model: complex
    actual: complex
    residual: float
    dual_cutoff: int = 0  # K of the dual terms |k| <= K; 0 = main term only


def major_arc_model(
    spec: MultSpec,
    density: complex,
    q: int,
    a: int,
    gamma: float,
    x: int,
    h_span: int,
    window: CoefficientWindow | None = None,
) -> MajorArcModel:
    """Compare S(a/q + gamma; x) over [x, x+2H] with its major-arc model.

    The main term is the local density C(a, q) (dirichlet.local_densities)
    times the integral of e(gamma y) over the same range (closed form,
    gamma -> 0 safe).  For the one_star_chi4 witness the model adds the
    Poisson dual terms 0 < |k| <= K of the exact identity

        S = (1/(4q^2)) sum_k G(a,k1;q) G(a,k2;q)
            * pi * integral_x^{x+2H} e(gamma t) J0(2 pi |k| sqrt(t) / q) dt,

    G(a,b;q) = sum_{r mod q} e((a r^2 + b r)/q), whose k = 0 term is the
    main term.  K = ceil(2 q |gamma| sqrt(x+2H)) + DUAL_MARGIN is fixed by
    the inputs and recorded as dual_cutoff: the dual frequency
    sqrt(m/t)/(2q) of |k|^2 = m crosses gamma below the stationary point
    2 q |gamma| sqrt(t).  The series converges only
    conditionally, so a residual of a few units remains at any K.  Other
    families get the main term alone (dual_cutoff 0).
    """
    if q < 1 or math.gcd(a, q) != 1:
        raise DomainError(f"need gcd(a, q) = 1, got a={a}, q={q}")
    dual_cutoff = 0
    if spec.kind is Kind.ONE_STAR_CHI4:
        stationary = 2.0 * q * abs(gamma) * math.sqrt(x + 2 * h_span)
        dual_cutoff = math.ceil(stationary) + DUAL_MARGIN
    length = 2 * h_span
    if window is None:
        window = sieve_window(spec, x, x + length)
    actual = short_exp_sum(window, x, length, a / q + gamma).value
    # integral of e(gamma y) over [x, x+2H] = 2H e(gamma (x+H)) sinc(2 gamma H)
    phase = _phase_at(x + h_span, gamma) if gamma != 0.0 else 1.0
    model = complex(density) * 2.0 * h_span * float(np.sinc(2.0 * gamma * h_span)) * phase
    if dual_cutoff:
        model += phase * _witness_dual_terms(q, a, gamma, x, h_span, dual_cutoff)
    return MajorArcModel(
        model=model, actual=actual, residual=abs(actual - model), dual_cutoff=dual_cutoff
    )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _witness_dual_terms(
    q: int, a: int, gamma: float, x: int, h_span: int, cutoff: int
) -> complex:
    """Dual terms 0 < |k| <= cutoff of the Poisson identity, divided by the
    phase e(gamma (x+H)).

    The k are grouped by m = |k|^2.  Each t-integral runs over composite
    8-point Gauss-Legendre panels one period of the fastest oscillation
    |gamma| + cutoff / (2 q sqrt(x)) long.
    """
    r = np.arange(q, dtype=np.int64)
    gauss = np.exp(2j * np.pi * ((a * r * r + np.outer(r, r)) % q) / q).sum(axis=1)
    ks = np.arange(-cutoff, cutoff + 1)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    norms = (k1 * k1 + k2 * k2).ravel()
    coef = (gauss[k1 % q] * gauss[k2 % q]).ravel()
    keep = (norms > 0) & (norms <= cutoff * cutoff)
    m, inverse = np.unique(norms[keep], return_inverse=True)
    c_m = np.zeros(len(m), dtype=np.complex128)
    np.add.at(c_m, inverse, coef[keep])

    top = abs(gamma) + cutoff / (2.0 * q * math.sqrt(x))
    panels = max(1, math.ceil(2 * h_span * top))
    half = h_span / panels
    mids = x + half * (2 * np.arange(panels) + 1)
    t = (mids[:, None] + half * _GL_NODES).ravel()
    weights = np.tile(half * _GL_WEIGHTS, panels)
    weights = weights * np.exp(2j * np.pi * gamma * (t - (x + h_span)))
    root_t = 2.0 * np.pi * np.sqrt(t) / q
    total = 0.0 + 0.0j
    for i in range(0, len(m), 64):  # bounds the J0 block to 64 rows
        block = _scipy().special.j0(np.sqrt(m[i : i + 64, None]) * root_t)
        total += complex(c_m[i : i + 64] @ (block @ weights))
    return math.pi / (4 * q * q) * total
