"""Acceptance suite: one callable per criterion, shared by CLI and pytest.

Each criterion checks its stated tolerance and prints one PASS/FAIL line.
Criteria about an experiment (6, 7, 8 and 10) check the payload of
`harness.run` on its config, so they test the code the CLI runs.  Heavy
intermediates of the others (million-point progression windows) are
shared through a module-level cache so the whole suite stays inside the
per-criterion runtime budgets.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import arcs, correlate, dirichlet, harness, multfunc

_SEED = 20260808
_CACHE = multfunc.WindowCache(max_items=48)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    failures: list[str] = field(default_factory=list)


def _spec(sid: str) -> multfunc.MultSpec:
    return multfunc.spec_from_id(sid)


def _payload(experiment: str, **settings) -> dict:
    """The payload of harness.run on an experiment's config."""
    return harness.run(harness.ExperimentConfig(experiment, **settings)).payload


# ---------------------------------------------------------------------------
# Criteria


def criterion_1() -> tuple[bool, str, list[str]]:
    """Constant-function correlation is integer-exact: H*(X+1)."""
    one = _spec("divisor1")
    req = correlate.CorrelationRequest(one, one, one, 10**4, 100)
    res = correlate.ternary_direct(req, cache=_CACHE)
    expected = Fraction(100 * (10**4 + 1))
    ok = res.exact_value == expected and res.exact_value.denominator == 1
    return ok, f"value={res.exact_value} expected={expected}", []


def criterion_2() -> tuple[bool, str, list[str]]:
    """20 randomized exact-spec cases: direct and convolution numerators
    are bit-identical integers."""
    failures = []
    for i, (ids, x, h) in enumerate(harness.random_exact_cases(_SEED, 20)):
        req = correlate.CorrelationRequest(*(map(_spec, ids)), x, h)
        a = correlate.ternary_direct(req, cache=_CACHE)
        b = correlate.ternary_convolution(req, cache=_CACHE)
        if a.exact_numerator != b.exact_numerator:
            failures.append(f"case {i}: {ids} X={x} H={h}")
    return not failures, "20/20 bit-identical" if not failures else "", failures


def criterion_3() -> tuple[bool, str, list[str]]:
    """Gauss sums: |tau(chi)| = sqrt(q) for primitive chi, tau = mu(q) for
    principal chi, q <= 50, tolerance 1e-9."""
    failures = []
    checked = 0
    for q in range(1, 51):
        group = dirichlet.characters_mod(q)
        for chi in group.characters:
            t = dirichlet.gauss_sum(chi)
            if chi.is_primitive:
                checked += 1
                if abs(abs(t) - math.sqrt(q)) > 1e-9:
                    failures.append(f"q={q} index={chi.index}: |tau|={abs(t)}")
            if chi.is_principal and abs(t - dirichlet.moebius(q)) > 1e-9:
                failures.append(f"q={q} principal: tau={t}")
    return not failures, f"{checked} primitive characters checked", failures


def criterion_4() -> tuple[bool, str, list[str]]:
    """Additive vs character-side twisted sums agree to 1e-6 absolute for
    30 random (spec, q, a) with q <= 24 at N = 1e4."""
    rng = random.Random(_SEED + 4)
    pool = ["divisor1", "divisor2", "divisor3", "moebius", "one_star_chi4", "tau"]
    failures = []
    worst = 0.0
    for i in range(30):
        spec = _spec(rng.choice(pool))
        q = rng.randint(1, 24)
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1] or [0]
        a = 0 if q == 1 else rng.choice(units)
        diff = dirichlet.twisted_progression_check(spec, q, a, 10**4, _CACHE)
        worst = max(worst, diff)
        if diff > 1e-6:
            failures.append(f"case {i}: {spec.spec_id} q={q} a={a} diff={diff:.3g}")
    return not failures, f"worst |additive - character| = {worst:.3g}", failures


def criterion_5() -> tuple[bool, str, list[str]]:
    """Singular-series sanity at N = 1e6: f=1 has C_1 = 1 and C_q ~ 0;
    the simple-pole witness has C_1 = pi/4."""
    one, osc = _spec("divisor1"), _spec("one_star_chi4")
    failures = []
    c1, _ = dirichlet.singular_coefficient(one, 1, 10**6, _CACHE)
    if abs(c1 - 1.0) > 1e-3:
        failures.append(f"f=1: C_1 = {c1}")
    for q in range(2, 51):
        cq, _ = dirichlet.singular_coefficient(one, q, 10**6, _CACHE)
        if abs(cq) > 1e-3:
            failures.append(f"f=1: |C_{q}| = {abs(cq):.3g}")
    c1_osc, _ = dirichlet.singular_coefficient(osc, 1, 10**6, _CACHE)
    if abs(c1_osc - math.pi / 4) > 5e-3:
        failures.append(f"witness: C_1 = {c1_osc}")
    detail = f"C_1(f=1)={c1.real:.6f}, C_1(witness)={c1_osc.real:.6f} vs pi/4={math.pi / 4:.6f}"
    return not failures, detail, failures


def criterion_6() -> tuple[bool, str, list[str]]:
    """Main-term trend for the simple-pole witness, H = ceil(X^0.8):
    relative gap at X=1e5 is <= 0.15 and strictly below the X=1e4 gap."""
    trend = _payload("main-term-trend", spec_ids=("one_star_chi4",),
                     x_list=(10**4, 10**5), threads=2)
    g4, g5 = (p["relative_gap"] for p in trend["points"])
    ok = g5 <= 0.15 and g5 < g4
    detail = f"gap(1e4)={g4:.4f} gap(1e5)={g5:.4f}"
    failures = [] if ok else [detail]
    return ok, detail, failures


def criterion_7() -> tuple[bool, str, list[str]]:
    """Pole-free smallness: |S(X, H)| <= X * H^0.975 for the normalized
    tau coefficients at X = 1e5, H = ceil(X^0.8)."""
    res = _payload("correlate", spec_ids=("tau",), x_start=10**5, method="conv")
    bound = res["X"] * res["H"] ** 0.975
    val = abs(complex(res["value_re"], res["value_im"]))
    ok = val <= bound
    return ok, f"|S| = {val:.4g} vs X*H^0.975 = {bound:.4g}", [] if ok else [f"{val} > {bound}"]


def criterion_8() -> tuple[bool, str, list[str]]:
    """Minor-arc sup scans: constant window stays under the exact geometric
    envelope at distance beta; tau window ratio against the bound shape."""
    failures = []
    rep1 = _payload("arc-scan", spec_ids=("divisor1",), x_start=10**4, h_expr=100,
                    q_source=2)
    env = arcs.geometric_minor_envelope(rep1["beta"])
    if not rep1["sup_abs"] <= env:
        failures.append(f"constant window: sup {rep1['sup_abs']} > envelope {env}")

    rep2 = _payload("arc-scan", spec_ids=("tau",), x_start=10**5, h_expr=3000,
                    q_source="preset:thm14")
    if not rep2["ratio"] <= 100:
        failures.append(f"tau window: ratio {rep2['ratio']}")
    detail = (
        f"f=1 sup={rep1['sup_abs']:.3f} <= envelope={env:.3f}; "
        f"tau sup={rep2['sup_abs']:.2f} ratio={rep2['ratio']:.3g} "
        f"(Q {rep2['Q_preset']}->{rep2['Q_used']})"
    )
    return not failures, detail, failures


def criterion_9() -> tuple[bool, str, list[str]]:
    """Major-arc model residuals for the simple-pole witness, q <= 4,
    |gamma| <= beta, x = 1e5, H = 1e4: residual <= 0.05 max(|actual|, sqrt(X)).

    The model is the local density C(a, q) (principal and twisted poles)
    times the integral of e(gamma y), plus the Poisson dual terms of
    r_2 = 4 (1*chi4) up to the stationary-point cutoff K of arcs.major_arc_model.
    """
    osc = _spec("one_star_chi4")
    x, h = 10**5, 10**4
    beta = float(h) ** (-0.6)
    window = _CACHE.window(osc, 1, x, x + 2 * h)
    failures = []
    worst, worst_case = 0.0, ""
    sums = {}
    for q in (1, 2, 3, 4):
        units, densities, _ = dirichlet.local_densities(osc, q, 10**6, _CACHE, sums)
        for a, density in zip(units.tolist(), densities.tolist()):
            for gamma in (0.0, beta / 10, -beta / 10, beta, -beta):
                r = arcs.major_arc_model(osc, density, q, a, gamma, x, h, window=window)
                allowance = 0.05 * max(abs(r.actual), math.sqrt(x))
                ratio = r.residual / allowance if allowance > 0 else math.inf
                if ratio >= worst:
                    worst = ratio
                    worst_case = f"q={q} a={a} gamma={gamma:+.5f} K={r.dual_cutoff}"
                if r.residual > allowance:
                    failures.append(
                        f"q={q} a={a} gamma={gamma:+.5f} K={r.dual_cutoff}: "
                        f"residual={r.residual:.1f} > allowance={allowance:.1f} "
                        f"(|actual|={abs(r.actual):.1f})"
                    )
    detail = (
        f"worst residual/allowance = {worst:.2f} at {worst_case} "
        f"over q<=4, |gamma|<=beta"
    )
    return not failures, detail, failures


def criterion_10() -> tuple[bool, str, list[str]]:
    """Triple counting for normalized tau: positive normalized count,
    stable to 5 percent between X = 1e5 and X = 2e5."""
    a, b = (
        _payload("count-triples", spec_ids=("tau",), x_start=x, h_expr=10**3,
                 c_threshold=1e-3)["normalized"]
        for x in (10**5, 2 * 10**5)
    )
    ok = a > 0 and b > 0 and abs(a - b) <= 0.05 * max(a, b)
    detail = f"normalized: {a:.5f} (X=1e5) vs {b:.5f} (X=2e5)"
    return ok, detail, [] if ok else [detail]


def criterion_11() -> tuple[bool, str, list[str]]:
    """Property suites of every subsystem, zero failures."""
    failures = []
    for name, prop in PROPERTY_SUITE:
        try:
            prop()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    return not failures, f"{len(PROPERTY_SUITE)} property groups", failures


# ---------------------------------------------------------------------------
# Property battery (used by criterion 11 and mirrored in the test suite)


def prop_multiplicativity():
    rng = random.Random(_SEED + 11)
    for sid in ("divisor1", "divisor2", "divisor3", "moebius", "one_star_chi4", "tau"):
        spec = _spec(sid)
        tol = 2**-30 if sid == "tau" else 0.0
        done = 0
        while done < 200:
            m = rng.randint(2, 10**3)
            n = rng.randint(2, 10**6 // m)
            if math.gcd(m, n) != 1:
                continue
            fm, fn, fmn = (
                multfunc.eval_at(spec, m),
                multfunc.eval_at(spec, n),
                multfunc.eval_at(spec, m * n),
            )
            if tol == 0.0:
                assert fmn == fm * fn, f"{sid}: f({m}*{n}) != f({m})f({n})"
            else:
                scale = max(abs(fmn), abs(fm * fn), 1e-30)
                assert abs(fmn - fm * fn) <= tol * scale + 1e-300, (
                    f"{sid}: f({m}*{n}) off by {abs(fmn - fm * fn):.3g}"
                )
            done += 1


def prop_divisor_bound():
    top = 10**5
    d_bounds = {
        1: multfunc.sieve_window(_spec("divisor1"), 1, top).values,
        2: multfunc.sieve_window(_spec("divisor2"), 1, top).values,
        3: multfunc.sieve_window(_spec("divisor3"), 1, top).values,
    }
    for sid in ("divisor1", "divisor2", "divisor3", "moebius", "one_star_chi4", "tau"):
        spec = _spec(sid)
        win = _CACHE.window(spec, 1, 1, top)
        bound = d_bounds[spec.k_bound]
        assert (np.abs(win.values) <= bound + 1e-9).all(), f"{sid}: divisor bound"


def prop_sieve_eval_agreement():
    for sid in ("divisor1", "divisor2", "divisor3", "moebius", "one_star_chi4", "tau"):
        spec = _spec(sid)
        win = _CACHE.window(spec, 1, 1, 10**4)
        for n in range(1, 10**4 + 1):
            direct = multfunc.eval_at(spec, n)
            if spec.is_exact:
                assert win.values[n - 1] == direct, f"{sid}: n={n}"
            else:
                stored = win.values[n - 1]
                assert abs(stored - direct) <= 2**-40 * max(1.0, abs(direct)), (
                    f"{sid}: n={n}"
                )


def prop_hyperbola():
    for top in (10**3, 10**5):
        win = _CACHE.window(_spec("divisor2"), 1, 1, top)
        lhs = int(win.values.sum())
        rhs = sum(top // a for a in range(1, top + 1))
        assert lhs == rhs, f"N={top}: {lhs} != {rhs}"


def prop_orthogonality():
    for q in range(1, 101):
        group = dirichlet.characters_mod(q)
        gram = group.table @ group.table.conj().T
        target = np.eye(len(group)) * dirichlet.euler_phi(q)
        assert np.abs(gram - target).max() < 1e-9, f"q={q}"


def prop_gauss_sums():
    for q in range(1, 51):
        group = dirichlet.characters_mod(q)
        # brute-force Ramanujan sum as the principal-character oracle
        cq = sum(
            complex(np.exp(2j * np.pi * m / q))
            for m in range(1, q + 1)
            if math.gcd(m, q) == 1
        )
        for chi in group.characters:
            t = dirichlet.gauss_sum(chi)
            if chi.is_primitive:
                assert abs(abs(t) - math.sqrt(q)) < 1e-9, f"q={q}"
            if chi.is_principal:
                assert abs(t - cq) < 1e-9 and abs(t - dirichlet.moebius(q)) < 1e-9


def prop_twisted_decomposition():
    rng = random.Random(_SEED + 13)
    pool = ["divisor1", "divisor2", "divisor3", "moebius", "one_star_chi4", "tau"]
    for _ in range(30):
        spec = _spec(rng.choice(pool))
        q = rng.randint(1, 24)
        n_terms = rng.randint(10**3, 10**4)
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        a = 0 if q == 1 else rng.choice(units)
        diff = dirichlet.twisted_progression_check(spec, q, a, n_terms, _CACHE)
        assert diff <= n_terms * 2**-35, f"{spec.spec_id} q={q} a={a}: {diff:.3g}"


def prop_mean_density_stability():
    osc = _spec("one_star_chi4")
    principal = dirichlet.characters_mod(1).principal
    gap_small = dirichlet.mean_density(osc, 1, 1, principal, 10**6, _CACHE).error_gap
    gap_large = dirichlet.mean_density(osc, 1, 1, principal, 4 * 10**6).error_gap
    assert gap_small <= 4.0 * gap_large, f"{gap_small:.3g} vs {gap_large:.3g}"


def prop_direct_conv_equivalence():
    ok, _, failures = criterion_2()
    assert ok, "; ".join(failures)


def prop_weight_identity():
    for h_span in range(1, 101):
        for h in range(0, h_span + 1):
            w = correlate.fejer_overlap_weight(h, h_span)
            assert Fraction(w, 2 * h_span) == 1 - Fraction(h, h_span)
            assert correlate.fejer_overlap_weight(-h, h_span) == w


def prop_symmetry():
    # reversing shifts while swapping outer specs: S_{f1,f2,f3} with the
    # n-constraint moved to n+2h equals S_{f3,f2,f1}; verified by brute force.
    d2, d3, one = _spec("divisor2"), _spec("divisor3"), _spec("divisor1")
    x, h = 200, 8
    req = correlate.CorrelationRequest(d2, one, d3, x, h)  # outer specs swapped
    res = correlate.ternary_direct(req, cache=_CACHE)
    brute = Fraction(0)
    for hh in range(-h, h + 1):
        w = Fraction(h - abs(hh), h)
        for m in range(x, 2 * x + 1):  # m = n + 2h of the mirrored sum
            brute += (
                w
                * multfunc.eval_at(d2, m)
                * multfunc.eval_at(one, m - hh)
                * multfunc.eval_at(d3, m - 2 * hh)
            )
    assert res.exact_value == brute
    # real-valued request: h and -h contributions conjugate, value real
    req2 = correlate.CorrelationRequest(d2, one, d2, x, h)
    res2 = correlate.ternary_direct(req2, cache=_CACHE)
    assert complex(res2.value).imag == 0.0


def prop_count_monotone():
    tau = _spec("tau")
    x, h = 2000, 40
    w = _CACHE.window(tau, 1, x - 2 * h, 2 * x + 2 * h)
    grid = np.linspace(0.0, 2.0, 10)
    counts = [correlate.count_triples(w, x, h, float(c)).count for c in grid]
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts


def prop_reversed_order():
    tau = _spec("tau")
    req = correlate.CorrelationRequest(tau, tau, tau, 3000, 60)
    fwd = correlate.ternary_direct(req, cache=_CACHE)
    rev = correlate.ternary_direct(req, cache=_CACHE, h_order="reverse")
    num = abs(complex(fwd.value) - complex(rev.value))
    assert num <= 1e-9 * max(abs(complex(fwd.value)), 1e-30), num


def prop_trivial_bound_and_phases():
    rng = random.Random(_SEED + 14)
    w = _CACHE.window(_spec("tau"), 1, 1, 5000)
    for _ in range(25):
        x = rng.randint(1, 2000)
        length = rng.randint(10, 2500)
        alpha = rng.random()
        s = arcs.short_exp_sum(w, x, length, alpha)
        assert abs(s.value) <= s.trivial_bound * (1 + 1e-9)
        s1 = arcs.short_exp_sum(w, x, length, alpha + 1.0)
        assert abs(s.value - s1.value) <= 1e-9 * max(abs(s.value), 1.0)
        s2 = arcs.short_exp_sum(w, x, length, -alpha)
        assert abs(np.conj(s.value) - s2.value) <= 1e-9 * max(abs(s.value), 1.0)


def prop_scan_refinement_monotone():
    one = _spec("divisor1")
    x, h = 2000, 50
    dec = arcs.decompose(2, h, 0.05)
    w = _CACHE.window(one, 1, x, x + 2 * h)
    for kind in ("major", "minor"):
        rep = arcs.sup_scan(w, dec, x, 2 * h, kind, eta=0.65, k=1, epsilon=0.05)
        sups = rep.round_sups
        assert all(a <= b + 1e-12 for a, b in zip(sups, sups[1:])), (kind, sups)
        assert rep.sup_abs <= rep.trivial_bound * (1 + 1e-9)
    env = arcs.geometric_minor_envelope(dec.beta)
    rep = arcs.sup_scan(w, dec, x, 2 * h, "minor", eta=0.65, k=1, epsilon=0.05)
    assert rep.sup_abs <= env


PROPERTY_SUITE = [
    ("multiplicativity", prop_multiplicativity),
    ("divisor-bound", prop_divisor_bound),
    ("sieve-eval-agreement", prop_sieve_eval_agreement),
    ("hyperbola-identity", prop_hyperbola),
    ("character-orthogonality", prop_orthogonality),
    ("gauss-sums", prop_gauss_sums),
    ("twisted-decomposition", prop_twisted_decomposition),
    ("mean-density-stability", prop_mean_density_stability),
    ("direct-conv-equivalence", prop_direct_conv_equivalence),
    ("fejer-weight-identity", prop_weight_identity),
    ("correlation-symmetry", prop_symmetry),
    ("triple-count-monotone", prop_count_monotone),
    ("reversed-order-stability", prop_reversed_order),
    ("trivial-bound-and-phases", prop_trivial_bound_and_phases),
    ("scan-refinement-monotone", prop_scan_refinement_monotone),
]


CRITERIA = [
    (1, "constant-correlation-exact", criterion_1),
    (2, "direct-conv-bit-identical", criterion_2),
    (3, "gauss-sum-suite", criterion_3),
    (4, "twisted-progression-identity", criterion_4),
    (5, "singular-series-sanity", criterion_5),
    (6, "main-term-trend", criterion_6),
    (7, "pole-free-smallness", criterion_7),
    (8, "exponential-sum-envelope", criterion_8),
    (9, "major-arc-model", criterion_9),
    (10, "triple-counting-stability", criterion_10),
    (11, "property-suites", criterion_11),
]


def run_acceptance(only=None, out=None) -> list[CriterionResult]:
    results = []
    for number, name, fn in CRITERIA:
        if only is not None and number not in only:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail, failures = fn()
        except Exception as exc:  # report, never abort the suite
            passed, detail, failures = False, f"raised {exc!r}", [repr(exc)]
        dt = time.perf_counter() - t0
        results.append(CriterionResult(number, name, passed, detail, dt, failures))
        status = "PASS" if passed else "FAIL"
        print(f"{status}  criterion {number:2d}  {name:<30s} {detail}  [{dt:.1f}s]")
        for f in failures[:8]:
            print(f"      - {f}")
        if len(failures) > 8:
            print(f"      - ... {len(failures) - 8} more")
    if out:
        doc = [
            {
                "criterion": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": r.seconds,
                "failures": r.failures,
            }
            for r in results
        ]
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return results
