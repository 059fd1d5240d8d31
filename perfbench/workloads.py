"""The benchmark's workloads: pinned terncorr CLI jobs and their output checks.

Why each workload exists is written down in README.md and BENCHMARK.json.

Every size is pinned, so each layer does the same work on every seed; the
seed only drives the random draws of `identity-check`.  The pinned results
below were produced by the code these workloads were written against
(terncorr 0.1.0) and are the reference every later version must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# corr-exact: exact numerators H * S(X, H), identical on both routes.
CHI4_NUMERATOR = 4581003458190            # one_star_chi4, X = 100000, H = 10000
D3_BIGINT_NUMERATOR = 342254343072501     # divisor3, X = 8000, H = 300
D3_INT64_NUMERATOR = 448043725529139      # divisor3, X = 4000, H = 600

# tau-scan: minor-arc sup of the tau scan, and S(X, H) for tau at
# X = 50000, H = 2000.  |lambda(n)| <= d(n) (Deligne), so the divisor2
# correlation at the same X, H bounds |S| trivially; the correlation must
# agree with the pinned value to TAU_CORR_REL_TOL of that bound.
SCAN_SUP_ABS = 127.8341519577431
SCAN_RATIO_MAX = 100.0                     # acceptance criterion 8
TAU_CORR_VALUE = -4582.379970634359
TAU_CORR_TRIVIAL = Fraction(498353276494514, 2000)   # divisor2 S(50000, 2000)
TAU_CORR_REL_TOL = 1e-10

# series-cache: singular series and main-term gaps of one_star_chi4.
SERIES_VALUE = 0.45798189343971213         # Q = 50, N = 10^6
TREND_GAPS = (0.010342050001010506, 0.005473612797212659)  # X = 10^4, 3*10^4
TREND_REL_TOL = 1e-12


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    # check(payload, payloads of the earlier jobs of the iteration by name)
    # returns the problems found, empty when the output is right.
    check: Callable[[dict, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    # jobs(seed, iteration directory)
    jobs: Callable[[int, Path], list[Job]]
    # Subdirectory of the iteration directory that the jobs fill; its size
    # is recorded and it is deleted after the iteration.
    scratch: str | None = None


def correlation_triples(payload: dict) -> int:
    """sum (X+1)(2H+1) over the correlations a payload reports (0 if none)."""
    points = payload.get("points", [payload])
    return sum((p["X"] + 1) * (2 * p["H"] + 1) for p in points
               if "X" in p and "H" in p)


# ---------------------------------------------------------------------------
# Output checks


def numerator_is(pinned: int, twin: str | None = None):
    def check(payload, earlier):
        got = int(payload["exact_numerator"])
        problems = []
        if got != pinned:
            problems.append(f"numerator {got} != pinned {pinned}")
        if twin is not None and twin in earlier:
            other = int(earlier[twin]["exact_numerator"])
            if got != other:
                problems.append(f"numerator {got} != {twin} numerator {other}")
        return problems
    return check


def identity_holds(payload, earlier):
    return [] if payload["exact_match"] is True else [
        "identity-check reports exact_match false"
    ]


def scan_is_sound(payload, earlier):
    sup, trivial = payload["sup_abs"], payload["trivial_bound"]
    problems = []
    if not 0 < sup <= trivial:
        problems.append(f"sup_abs {sup} outside (0, trivial_bound {trivial}]")
    if abs(sup - SCAN_SUP_ABS) > 0.01 * trivial:
        problems.append(
            f"sup_abs {sup} differs from pinned {SCAN_SUP_ABS} by more than "
            f"the grid tolerance 0.01 * {trivial}"
        )
    if not payload["ratio"] <= SCAN_RATIO_MAX:
        problems.append(f"ratio {payload['ratio']} > {SCAN_RATIO_MAX}")
    return problems


def tau_corr_matches(payload, earlier):
    tol = TAU_CORR_REL_TOL * float(TAU_CORR_TRIVIAL)
    got = payload["value_re"]
    if abs(got - TAU_CORR_VALUE) <= tol and payload["value_im"] == 0.0:
        return []
    return [f"tau S = {got} + {payload['value_im']}i, pinned {TAU_CORR_VALUE} "
            f"+- {tol}"]


def series_is(twin: str | None = None):
    def check(payload, earlier):
        got = payload["series_value"]
        problems = []
        if got != SERIES_VALUE:
            problems.append(f"series_value {got!r} != pinned {SERIES_VALUE!r}")
        if twin is not None and twin in earlier:
            other = earlier[twin]["series_value"]
            if got != other:
                problems.append(f"series_value {got!r} != {twin} {other!r}")
        return problems
    return check


def trend_matches(payload, earlier):
    gaps = [p["relative_gap"] for p in payload["points"]]
    if len(gaps) == len(TREND_GAPS) and all(
        abs(g - want) <= TREND_REL_TOL * want for g, want in zip(gaps, TREND_GAPS)
    ):
        return []
    return [f"relative gaps {gaps} != pinned {list(TREND_GAPS)}"]


# ---------------------------------------------------------------------------
# Workloads


def _correlate(spec, x, h, method):
    return ("correlate", "--spec", spec, "--X", str(x), "--H", str(h),
            "--method", method)


def corr_exact_jobs(seed: int, it_dir: Path) -> list[Job]:
    jobs = []
    for label, spec, x, h, pinned in (
        ("chi4", "one_star_chi4", 100000, 10000, CHI4_NUMERATOR),
        ("d3-x8000", "divisor3", 8000, 300, D3_BIGINT_NUMERATOR),
        ("d3-x4000", "divisor3", 4000, 600, D3_INT64_NUMERATOR),
    ):
        jobs.append(Job(f"{label}-direct", _correlate(spec, x, h, "direct"),
                        numerator_is(pinned)))
        jobs.append(Job(f"{label}-conv", _correlate(spec, x, h, "conv"),
                        numerator_is(pinned, twin=f"{label}-direct")))
    jobs.append(Job("identity", ("identity-check", "--X", "2000", "--seed",
                                 str(seed)), identity_holds))
    return jobs


def tau_scan_jobs(seed: int, it_dir: Path) -> list[Job]:
    return [
        Job("scan", ("arcs", "scan", "--spec", "tau", "--X", "100000", "--H",
                     "3000", "--Q", "preset:thm14", "--kind", "minor"),
            scan_is_sound),
        Job("tau-conv", _correlate("tau", 50000, 2000, "conv"), tau_corr_matches),
    ]


def series_cache_jobs(seed: int, it_dir: Path) -> list[Job]:
    cache = str(it_dir / "coeff-cache")
    series = ("singular-series", "--spec", "one_star_chi4", "--Q", "50",
              "--N", "1000000", "--threads", "2", "--coeff-cache", cache)
    return [
        Job("series-cold", series, series_is()),
        Job("series-warm", series, series_is(twin="series-cold")),
        Job("trend", ("main-term-trend", "--spec", "one_star_chi4",
                      "--X-list", "10000,30000", "--coeff-cache", cache),
            trend_matches),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corr-exact", corr_exact_jobs),
        Workload("tau-scan", tau_scan_jobs),
        Workload("series-cache", series_cache_jobs, scratch="coeff-cache"),
    )
}
