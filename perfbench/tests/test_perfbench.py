"""Tests of the benchmark itself: tracing, output checks and metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_job(tmp_path: Path, name: str, argv: list, traced: bool):
    meta = tmp_path / f"{name}.meta.json"
    span_file = tmp_path / f"{name}.spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "job.py"), str(meta),
         str(span_file) if traced else "-", "--", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    payload.pop("seconds", None)  # the one timing inside a payload
    recorded = []
    if traced:
        recorded = json.loads(span_file.read_text())
    else:
        assert not span_file.exists()
    return payload, recorded


def hits_by_name(recorded: list) -> dict:
    """span name -> the `hit` attribute of each of its spans (None if absent)"""
    out = defaultdict(list)
    for s in recorded:
        out[s["name"]].append(s["attrs"].get("hit"))
    return out


SMALL_JOBS = [
    (["correlate", "--spec", "divisor3", "--X", "400", "--H", "30",
      "--method", "direct"], {"correlate.direct", "multfunc.window"}),
    (["correlate", "--spec", "divisor3", "--X", "400", "--H", "30",
      "--method", "conv"], {"correlate.conv", "multfunc.window"}),
    (["correlate", "--spec", "tau", "--X", "2000", "--H", "100",
      "--method", "conv"], {"correlate.conv", "tau.values"}),
    (["arcs", "scan", "--spec", "tau", "--X", "2000", "--H", "100",
      "--Q", "preset:thm14", "--kind", "minor"],
     {"arcs.scan", "arcs.fft", "arcs.short_exp_sum", "tau.values"}),
    (["identity-check", "--X", "300", "--seed", "5"],
     {"correlate.direct", "correlate.conv"}),
]


@pytest.mark.parametrize("argv,expected", SMALL_JOBS,
                         ids=[" ".join(a[:3]) for a, _ in SMALL_JOBS])
def test_tracing_leaves_payload_unchanged(tmp_path, argv, expected):
    plain, _ = run_job(tmp_path, "plain", argv, traced=False)
    traced, recorded = run_job(tmp_path, "traced", argv, traced=True)
    assert traced == plain
    assert expected | {"harness.main"} <= {s["name"] for s in recorded}


def test_tracing_leaves_cached_series_unchanged(tmp_path):
    results = {}
    for mode in ("plain", "traced"):
        cache = tmp_path / f"cache-{mode}"
        series = ["singular-series", "--spec", "one_star_chi4", "--Q", "8",
                  "--N", "20000", "--threads", "2", "--coeff-cache", str(cache)]
        trend = ["main-term-trend", "--spec", "one_star_chi4", "--X-list",
                 "1000,2000", "--N", "20000", "--coeff-cache", str(cache)]
        results[mode] = [
            run_job(tmp_path, f"{mode}-{i}", argv, traced=mode == "traced")
            for i, argv in enumerate((series, series, trend))
        ]
    assert [p for p, _ in results["plain"]] == [p for p, _ in results["traced"]]
    cold, warm, trend = (hits_by_name(r) for _, r in results["traced"])
    assert {"dirichlet.series", "multfunc.cache.write"} <= cold.keys()
    assert "multfunc.cache.read" in warm and "multfunc.cache.write" not in warm
    assert "correlate.direct" in trend
    # the cold job hits its memory cache; the warm job finds every window on disk
    assert "memory" in cold["multfunc.window"] and "disk" not in cold["multfunc.window"]
    assert "disk" in warm["multfunc.window"]


def test_wrappers_restore_the_originals():
    import scipy.fft
    from terncorr import arcs, correlate, dirichlet, multfunc, tau

    places = [
        (multfunc.WindowCache, "window"),
        (multfunc, "read_window_cache"),
        (multfunc, "write_window_cache"),
        (tau, "tau_values"),
        (dirichlet, "singular_series_sum"),
        (dirichlet, "mean_density"),
        (dirichlet, "characters_mod"),
        (correlate, "ternary_direct"),
        (correlate, "ternary_convolution"),
        (arcs, "sup_scan"),
        (arcs, "short_exp_sum"),
        (arcs, "scipy"),
    ]
    before = [getattr(owner, attr) for owner, attr in places]
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        for (owner, attr), fn in zip(places, before):
            assert getattr(owner, attr) is not fn, attr
        assert arcs.scipy.fft.next_fast_len is scipy.fft.next_fast_len
        dirichlet.characters_mod(5)
        with pytest.raises(ValueError):
            tau.tau_values(0)
    finally:
        restore()
    for (owner, attr), fn in zip(places, before):
        assert getattr(owner, attr) is fn, attr
    assert [(s.name, s.raised) for s in rec.spans] == [
        ("dirichlet.characters", False), ("tau.values", True)]


def test_self_time_subtracts_the_union_of_children():
    parent = {"job": "j", "id": 0, "parent": None, "name": "p", "start": 0.0,
              "end": 10.0, "raised": False, "attrs": {}}
    kids = [  # two overlapping children (pool threads) and one running past the end
        {"job": "j", "id": 1, "parent": 0, "name": "c", "start": 1.0, "end": 4.0},
        {"job": "j", "id": 2, "parent": 0, "name": "c", "start": 2.0, "end": 5.0},
        {"job": "j", "id": 3, "parent": 0, "name": "c", "start": 9.0, "end": 12.0},
    ]
    for k in kids:
        k.update(raised=False, attrs={})
    spans.annotate([parent, *kids])
    assert parent["dur"] == 10.0
    assert parent["self"] == pytest.approx(10.0 - 4.0 - 1.0)


def test_metric_names_and_benchmark_file_agree():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [m for m, _ in run.END_TO_END] + [m for m, _, _ in spans.PER_LAYER]
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        spans.PER_LAYER)
    produced = set(spans.layer_metrics([])) | {"trace.overhead_s"}
    assert produced == {m for m, _, _ in spans.PER_LAYER}
    assert set(spans.PER_JOB) <= produced


# ---------------------------------------------------------------------------
# Output checks reject corrupted values

SCAN = {"sup_abs": wl.SCAN_SUP_ABS, "trivial_bound": 2684.393486406136,
        "ratio": 0.00029139663198548556}


def test_numerator_check():
    check = wl.numerator_is(wl.CHI4_NUMERATOR, twin="direct")
    good = {"exact_numerator": str(wl.CHI4_NUMERATOR)}
    assert check(good, {"direct": good}) == []
    assert check({"exact_numerator": str(wl.CHI4_NUMERATOR + 1)}, {})
    assert check(good, {"direct": {"exact_numerator": "7"}})


def test_identity_check():
    assert wl.identity_holds({"exact_match": True}, {}) == []
    assert wl.identity_holds({"exact_match": False}, {})


@pytest.mark.parametrize("change", [
    {"trivial_bound": 120.0},              # sup_abs above the trivial bound
    {"sup_abs": 0.0},
    {"sup_abs": wl.SCAN_SUP_ABS + 30.0},   # beyond 1 % of the trivial bound
    {"ratio": 101.0},
    {"ratio": math.nan},
])
def test_scan_check(change):
    assert wl.scan_is_sound(SCAN, {}) == []
    assert wl.scan_is_sound({**SCAN, **change}, {})


def test_tau_correlation_check():
    tol = wl.TAU_CORR_REL_TOL * float(wl.TAU_CORR_TRIVIAL)
    good = {"value_re": wl.TAU_CORR_VALUE + 0.5 * tol, "value_im": 0.0}
    assert wl.tau_corr_matches(good, {}) == []
    assert wl.tau_corr_matches({**good, "value_re": wl.TAU_CORR_VALUE + 2 * tol}, {})
    assert wl.tau_corr_matches({**good, "value_im": 1.0}, {})


def test_series_check():
    cold = {"series_value": wl.SERIES_VALUE}
    check = wl.series_is(twin="cold")
    assert check(cold, {"cold": cold}) == []
    off = {"series_value": math.nextafter(wl.SERIES_VALUE, 1.0)}
    assert check(off, {})
    assert check(cold, {"cold": off})


def test_trend_check():
    points = [{"relative_gap": g} for g in wl.TREND_GAPS]
    assert wl.trend_matches({"points": points}, {}) == []
    bad = [dict(points[0]), {"relative_gap": wl.TREND_GAPS[1] * (1 + 1e-9)}]
    assert wl.trend_matches({"points": bad}, {})
    assert wl.trend_matches({"points": points[:1]}, {})


def test_correlation_triples():
    assert wl.correlation_triples({"X": 10, "H": 2}) == 11 * 5
    assert wl.correlation_triples({"points": [{"X": 1, "H": 1}, {"X": 2, "H": 1}]}) == 2 * 3 + 3 * 3
    assert wl.correlation_triples({"sup_abs": 1.0}) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corr-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
