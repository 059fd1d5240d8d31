"""Config parsing, preset arithmetic, dispatch, determinism, exit codes."""

import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from terncorr import dirichlet, harness, tau
from terncorr.errors import ConfigurationError
from terncorr.harness import (
    ExperimentConfig,
    _int_nth_root,
    build_parser,
    ceil_rational_power,
    config_from_args,
    eval_power_expr,
    load_series_record,
    main,
    parse_config,
    resolve_q,
    run,
)


# ---------------------------------------------------------------------------
# Power expressions and presets


def test_h_expression_exact():
    # X = 1e5, theta = 0.8 must land exactly on 1e4, no float dust
    assert eval_power_expr("X^0.8", 10**5) == 10**4
    assert eval_power_expr("X^4/5", 10**5) == 10**4
    assert eval_power_expr("X^(10/13)", 10**13) == 10**10
    assert eval_power_expr("X^0.5", 10) == 4  # ceil(3.162...)
    assert eval_power_expr(123, 10**5) == 123
    assert eval_power_expr("123", 10**5) == 123


def test_h_theta_presets():
    # theta = 10/13 and theta = 1/2
    assert eval_power_expr("preset:thm13", 10**13) == 10**10
    assert eval_power_expr("preset:thm14", 2**10) == 2**5
    assert eval_power_expr("preset:thm14", 3**13) == math.isqrt(3**13) + 1  # ceil
    with pytest.raises(ConfigurationError):
        eval_power_expr("preset:nope", 100)


def test_h_expression_range_error():
    with pytest.raises(ConfigurationError):
        eval_power_expr("X^1.5", 100)
    with pytest.raises(ConfigurationError):
        eval_power_expr("X^0", 100)
    with pytest.raises(ConfigurationError):
        eval_power_expr("X^abc", 100)


def test_ceil_rational_power():
    assert ceil_rational_power(10**5, Fraction(4, 5)) == 10**4
    assert ceil_rational_power(10, Fraction(1, 2)) == 4
    assert ceil_rational_power(16, Fraction(1, 2)) == 4  # exact root stays put
    assert ceil_rational_power(17, Fraction(1, 2)) == 5
    # x^p passes float range: the root's first guess comes from math.log
    theta = Fraction(8123, 10**4)
    h = ceil_rational_power(10**5, theta)
    assert (h - 1) ** 10**4 < 10 ** (5 * 8123) <= h**10**4
    # roots past float range start from a guess scaled by a power of two
    assert _int_nth_root(10**800, 2) == 10**400
    assert _int_nth_root(2**3000 - 1, 3) == 2**1000 - 1
    assert _int_nth_root(3**5000, 1) == 3**5000


def test_power_expressions_from_the_cli(capsys):
    argv = ["correlate", "--X", "100000", "--method", "conv", "--H"]
    assert main(argv + ["X^0.8123"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["H"] == 11522
    assert main(argv + ["X^1e-400"]) == 2
    assert "H exponent '1e-400'" in capsys.readouterr().err
    assert main(["arcs", "scan", "--X", "100000", "--H", "3000",
                 "--eps", "0.01234567"]) == 2
    assert "epsilon = 1234567/100000000" in capsys.readouterr().err


def test_q_presets():
    # X=1e5, H=1e4, eps=0.05: Q = ceil(X * H^(-3/4)) = 100 exactly
    assert resolve_q("preset:thm13", 10**5, 10**4, Fraction(1, 20)) == 100
    assert resolve_q(64, 10**5, 10**4, Fraction(1, 20)) == 64
    assert resolve_q("64", 10**5, 10**4, Fraction(1, 20)) == 64
    # thm14 takes thm13's exponent 1 - 5 eps = 3/4
    assert resolve_q("preset:thm14", 10**5, 10**4, Fraction(1, 20)) == 100
    with pytest.raises(ConfigurationError):
        resolve_q("preset:unknown", 10**5, 10**4, Fraction(1, 20))


def test_q_preset_is_the_least_q_of_its_definition():
    # Q = ceil(X / H^(p/d)) is the least Q with Q^d H^p >= X^d.
    rng = random.Random(13)
    for _ in range(300):
        x = rng.randint(1, 10**6)
        h = rng.randint(2, 10**4)
        expo = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        p, d = expo.numerator, expo.denominator
        q = harness._ceil_div_power(x, h, expo)
        assert q**d * h**p >= x**d and (q == 1 or (q - 1) ** d * h**p < x**d)


# ---------------------------------------------------------------------------
# Config documents


def test_parse_config_example():
    cfg = parse_config(
        """
        experiment = "arc-scan"
        spec = "one_star_chi4"
        X = 100000
        H = "X^0.8"
        Q = "preset:thm13"
        epsilon = 0.05
        """
    )
    assert cfg.resolved_h() == 10000
    assert resolve_q(cfg.q_source, cfg.x_start, cfg.resolved_h(), cfg.epsilon) == 100


def test_parse_config_missing_x():
    with pytest.raises(ConfigurationError, match="X"):
        parse_config('experiment = "correlate"\nspec = "divisor1"\n')


def test_parse_config_unknown_key_names_line():
    with pytest.raises(ConfigurationError, match="line 3.*bogus"):
        parse_config('experiment = "correlate"\nX = 100\nbogus = 1\n')


def test_parse_config_unknown_spec():
    cfg_text = 'experiment = "correlate"\nX = 100\nspec = "nope"\n'
    with pytest.raises(Exception):
        parse_config(cfg_text)


def test_parse_config_theta_out_of_range():
    text = 'experiment = "correlate"\nX = 100\nH = "X^1.2"\n'
    with pytest.raises(ConfigurationError):
        parse_config(text)


# ---------------------------------------------------------------------------
# Dispatch


def test_run_correlate_constant():
    cfg = ExperimentConfig(
        experiment="correlate", spec_ids=("divisor1",), x_start=100, h_expr=10
    )
    record = run(cfg)
    assert record.payload["value_re"] == pytest.approx(1010.0)
    assert record.payload["H"] == 10
    assert record.experiment == "correlate"
    assert record.payload["digits"] == [1, 1, 1]
    assert record.payload["error_bound"] is None  # the direct route
    assert "tile_dtype" not in record.payload  # direct tiles are float only
    conv = run(replace(cfg, method="conv")).payload
    assert conv["digits"] == [1, 1, 1] and 0 <= conv["error_bound"] < 0.5


def test_run_correlate_chi4_direct_float64_tiles():
    cfg = ExperimentConfig(
        experiment="correlate", spec_ids=("one_star_chi4",), x_start=10**5,
        h_expr="X^0.8",
    )
    payload = run(cfg).payload
    assert payload["H"] == 10**4 and payload["digits"] == [1, 1, 1]
    assert payload["exact_numerator"] == "4581003458190"


@pytest.mark.parametrize("x", ["0", "1"])
def test_identity_check_small_x_names_x(x, capsys):
    # H = X^0.8 is below 2 here; the X rule must be the one reported.
    assert main(["identity-check", "--X", x]) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "X >= 50" in lines[0] and f"got {x}" in lines[0]
    assert "Traceback" not in err


def test_run_identity_check():
    cfg = ExperimentConfig(
        experiment="identity-check", spec_ids=("divisor1",), x_start=1000, h_expr=30
    )
    record = run(cfg)
    assert record.payload["exact_match"] is True
    assert len(record.payload["cases"]) == 20
    assert record.payload["seed"] == cfg.seed


def test_run_sieve_and_cache_flag(tmp_path):
    cfg = ExperimentConfig(
        experiment="sieve",
        spec_ids=("moebius",),
        lo=4,
        hi=6,
        out=str(tmp_path / "w.json"),
        coeff_cache=str(tmp_path / "cache"),
    )
    record = run(cfg)
    assert record.payload["head_re"] == [0.0, -1.0, 1.0]
    assert (tmp_path / "cache").is_dir()
    doc = json.loads((tmp_path / "w.json").read_text())
    assert doc["payload"]["spec"] == "moebius"


def test_run_moebius_tagged_hypothesis_conditional():
    cfg = ExperimentConfig(
        experiment="correlate", spec_ids=("moebius",), x_start=100, h_expr=5
    )
    record = run(cfg)
    assert any("hypothesis-conditional" in w for w in record.warnings)


def test_determinism_identical_payloads():
    def one_run():
        cfg = ExperimentConfig(
            experiment="identity-check", spec_ids=("divisor1",),
            x_start=500, h_expr=20, seed=7,
        )
        payload = run(cfg).payload
        return json.dumps(payload, sort_keys=True)

    assert one_run() == one_run()


def test_run_trend_constant_function_gaps_decrease():
    # For f = 1 the gap is 1/X, so the three-point trend must be strictly
    # decreasing; exercises the whole trend plumbing at toy scale.
    cfg = ExperimentConfig(
        experiment="main-term-trend",
        spec_ids=("divisor1",),
        h_expr="X^0.5",
        q_source=4,
        n_terms=10**4,
        x_list=(400, 1000, 2000),
    )
    record = run(cfg)
    gaps = [p["relative_gap"] for p in record.payload["points"]]
    assert record.payload["strictly_decreasing"] is True
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[0] == pytest.approx(1 / 400, rel=0.05)


def test_trend_sums_one_series_table(monkeypatch):
    # X = 10^4 and 3*10^4 clamp Q to 7 and 9.  The trend sums the C_q table
    # once, at Q = 9, and each point's main term is the one a series summed
    # to its own Q gives.
    calls = []
    series_sum = dirichlet.singular_series_sum

    def counting(spec, q_cut, *args, **kwargs):
        calls.append(q_cut)
        return series_sum(spec, q_cut, *args, **kwargs)

    monkeypatch.setattr(dirichlet, "singular_series_sum", counting)
    cfg = ExperimentConfig(experiment="main-term-trend", spec_ids=("one_star_chi4",),
                           n_terms=10**4, x_list=(10**4, 3 * 10**4), threads=1)
    points = run(cfg).payload["points"]
    assert [p["Q"] for p in points] == [7, 9] and calls == [9]
    spec = harness.multfunc.spec_from_id("one_star_chi4")
    for p in points:
        value = series_sum(spec, p["Q"], 10**4).series_value
        assert p["main_term"] == p["X"] * p["H"] * value


def test_series_roundtrip_via_record(tmp_path):
    out = tmp_path / "series.json"
    cfg = ExperimentConfig(
        experiment="singular-series", spec_ids=("divisor1",),
        q_source=6, n_terms=10**4, out=str(out),
    )
    record = run(cfg)
    assert load_series_record(str(out)) == ("divisor1", record.payload["series_value"])


def test_pole_free_trend_sieves_no_series(capsys):
    # tau progressions would pass the 2^22 tau budget (exit 3), but a
    # pole-free trend reads no series: its gap is |S| / (X H^(1 - eps)).
    assert main(["main-term-trend", "--spec", "tau", "--X-list", "10000"]) == 0
    (point,) = json.loads(capsys.readouterr().out)["payload"]["points"]
    assert point["main_term"] == 0.0
    assert point["relative_gap"] == abs(point["value_re"]) / (10**4 * point["H"] ** 0.95)


def test_series_reports_window_cache_counts(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    series = ["singular-series", "--spec", "one_star_chi4", "--Q", "50", "--N",
              "20000", "--threads", "2", "--coeff-cache", cache]
    counts = []
    for _ in range(2):
        assert main(series) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        counts.append(payload["window_cache"])
    cold, warm = counts
    assert cold == {"memory_hits": 0, "disk_reads": 0, "builds": 49, "disk_writes": 49}
    assert warm == {"memory_hits": 0, "disk_reads": 49, "builds": 0, "disk_writes": 0}
    assert len(list(Path(cache).iterdir())) == 49
    trend = ["main-term-trend", "--spec", "one_star_chi4", "--X-list", "1000",
             "--N", "20000", "--coeff-cache", cache]
    assert main(trend) == 0
    got = json.loads(capsys.readouterr().out)["payload"]["window_cache"]
    assert got["disk_reads"] > 0 and got["builds"] == got["disk_writes"] > 0


# ---------------------------------------------------------------------------
# CLI exit codes (three golden configs)


def test_exit_code_success(capsys):
    code = main(["correlate", "--spec", "divisor1", "--X", "100", "--H", "10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["value_re"] == pytest.approx(1010.0)


def test_exit_code_configuration_error(capsys):
    code = main(["correlate", "--spec", "nosuchspec", "--X", "100", "--H", "10"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_resource_error(capsys):
    code = main(["sieve", "--spec", "divisor2", "--lo", "1",
                 "--hi", str(10**12)])
    assert code == 3


def test_oversized_series_exits_3_before_any_window(tmp_path, monkeypatch, capsys):
    # 2999 windows of 10^6 int64 values would take 24 GB: the series refuses
    # them before any window is sieved or read from disk, and so does a
    # trend, whose series holds windows of N = 10^9 terms.
    def refuse(*args, **kwargs):
        raise AssertionError("a window was sieved or read")

    monkeypatch.setattr(harness.multfunc, "_sieve_segment", refuse)
    monkeypatch.setattr(harness.multfunc, "read_window_cache", refuse)
    common = ["--spec", "one_star_chi4", "--coeff-cache", str(tmp_path)]
    assert main(["singular-series", *common, "--Q", "3000", "--N", "1000000"]) == 3
    assert main(["main-term-trend", *common, "--X-list", "1000", "--N", str(10**9)]) == 3
    err = capsys.readouterr().err
    assert err.count(f"over budget {dirichlet.MAX_SERIES_BYTES}") == 2, err
    assert "Traceback" not in err


def test_oversized_scan_grid_exits_3_before_any_window(monkeypatch, capsys):
    # L = 2H = 1.2e6 needs a 2^27-point grid: the scan refuses it before it
    # builds the window, and with it the 2^21 tau table.
    def refuse(*args, **kwargs):
        raise AssertionError("a window was built")

    monkeypatch.setattr(harness.multfunc.WindowCache, "window", refuse)
    argv = ["arcs", "scan", "--spec", "tau", "--X", "100000", "--H", "600000",
            "--Q", "5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "scan grid needs 134217728 points, budget 67108864" in err, err
    assert "Traceback" not in err


# Documents valid on their own, one per experiment that a bad line goes to.
_BASE_DOCS = {
    "correlate": 'experiment = "correlate"\nX = 100\n',
    "main-term-trend": 'experiment = "main-term-trend"\nspec = "divisor1"\n',
}


@pytest.mark.parametrize(
    "line",
    ["X = abc", "X_list = [1,a]", "epsilon = 1/0x", "X_list = 5", "X_list = []",
     "Q = 1", "X = 1000.9", "H = 10.5", "Q = 5.5", "threads = true",
     "N = 5000.5", '{"X": 100}'],
)
def test_bad_config_value_exits_2(tmp_path, capsys, line):
    # Each bad line goes onto a valid document of an experiment that reads
    # its key, and the error names that key (a line without one, its line).
    key = line.partition("=")[0].strip() if "=" in line else None
    experiment = "correlate" if key in (None, "X", "H") else "main-term-trend"
    assert key is None or harness._reads(key, experiment)
    parse_config(_BASE_DOCS[experiment])
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{_BASE_DOCS[experiment]}{line}\n")
    assert main([experiment, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert re.search(rf"\b{key}\b" if key else "line 3", err), err


@pytest.mark.parametrize("q", ["5", "preset:thm13"])
@pytest.mark.parametrize("setting, message", [
    (("H", "bogus"), "cannot parse H value 'bogus'"),
    (("H", "1"), "H = 1 at X = 100000 must be >= 2"),
    (("X", "bogus"), "bad value for 'X'"),
    (("X", "-7"), "X = -7 must be >= 1"),
])
def test_series_refuses_bad_x_and_h_whatever_q(tmp_path, monkeypatch, capsys, q,
                                               setting, message):
    # singular-series reads X and H only for a Q preset, but a bad one exits
    # 2 with an integer Q too, as a flag and as a document key, before the
    # series is summed.
    key, text = setting
    base = ["singular-series", "--spec", "divisor1", "--Q", q, "--N", "1000"]
    doc = tmp_path / "series.cfg"
    value = text if text.lstrip("-").isdigit() else f'"{text}"'
    doc.write_text(f'experiment = "singular-series"\n{key} = {value}\n')
    with monkeypatch.context() as mp:
        mp.setattr(dirichlet, "singular_series_sum", None)  # not reached
        for argv in (base + [f"--{key}", text], base + ["--config", str(doc)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, err
    assert main(base) == 0


@pytest.mark.parametrize("kind", ["not-utf8", "missing", "directory"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "not-utf8":
        path.write_bytes(b'experiment = "correlate"\nX = 100\nspec = "\xff"\n')
    elif kind == "directory":
        path.mkdir()
    assert main(["correlate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["not-utf8", "missing", "directory"])
def test_unreadable_series_record_exits_2(tmp_path, capsys, kind):
    # Input files named by flags share one rule: missing, unreadable or
    # malformed is a configuration error (test_bad_series_record_exits_2).
    path = tmp_path / "series.json"
    if kind == "not-utf8":
        path.write_bytes(b'{"payload": "\xff"}')
    elif kind == "directory":
        path.mkdir()
    assert main(["correlate", "--spec", "divisor1", "--X", "100", "--H", "10",
                 "--series", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_count_triples_refuses_a_threshold_that_is_not_finite(c, capsys):
    assert main(["count-triples", "--X", "1000", "--H", "10", f"--c={c}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: c = {c} ") and "Traceback" not in err


def test_bad_cli_value_exits_2(capsys):
    assert main(["main-term-trend", "--X-list", "1,a"]) == 2
    assert main(["main-term-trend", "--X-list", ""]) == 2
    assert main(["correlate", "--X", "100", "--H", "10", "--eps", "abc"]) == 2
    assert main(["arcs", "scan", "--X", "1000", "--H", "40", "--Q", "-5"]) == 2
    assert main(["identity-check", "--X", "10"]) == 2
    assert main(["accept", "--only", "abc"]) == 2
    assert main(["accept", "--only", "99"]) == 2
    assert main(["sieve", "--spec", ""]) == 2
    scan = ["arcs", "scan", "--spec", "divisor2", "--X", "1000", "--H", "50", "--Q", "3"]
    assert main(scan + ["--x", "0"]) == 2
    assert main(scan + ["--L", "0"]) == 2
    # X - 2H < 1: the window of the count cannot start at 1
    assert main(["count-triples", "--X", "100", "--H", "60"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 11 and "Traceback" not in err
    # a bad X is named as X, not reported through the H it resolves to
    for argv in (["correlate", "--X", "0"], ["count-triples", "--X", "1"],
                 ["main-term-trend", "--X-list", "0"],
                 ["main-term-trend", "--X-list", "10000,4"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: X = ") and "H expression" not in err, argv


@pytest.mark.parametrize(
    "doc", ["{not json", '{"payload": {}}', '{"payload": {"Q": "5"}}', "[1, 2]",
            '{"spec": "divisor1", "series_value": "1.0"}',
            '{"spec": "divisor1", "series_value": NaN}']
)
def test_bad_series_record_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "series.json"
    path.write_text(doc)
    with pytest.raises(ConfigurationError):
        load_series_record(str(path))
    code = main(["correlate", "--spec", "divisor1", "--X", "100", "--H", "10",
                 "--series", str(path)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, side",
    [
        (["singular-series", "--spec", "divisor1", "--Q", "4", "--N", "1000"], ".csv"),
        (["arcs", "scan", "--spec", "divisor1", "--X", "1000", "--H", "40",
          "--Q", "2", "--kind", "major"], ".csv"),
        (["sieve", "--spec", "moebius", "--lo", "1", "--hi", "50"], ".bin"),
    ],
)
def test_out_into_missing_directory(tmp_path, capsys, argv, side):
    out = tmp_path / "new" / "deeper" / "run.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.with_suffix(side).is_file()
    if side == ".csv":
        assert out.is_file()


def test_python_m_terncorr_help():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "terncorr", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: terncorr" in proc.stdout


_STARTUP_SCRIPT = """
import contextlib, io, json, sys
import scipy
from terncorr import arcs, harness

def loaded():
    return [m for m in ("scipy.fft", "scipy.special") if m in sys.modules]

runs = [
    ["correlate", "--spec", "divisor2", "--X", "2000", "--H", "50", "--method", "conv"],
    ["correlate", "--spec", "tau", "--X", "2000", "--H", "50", "--method", "conv"],
    ["singular-series", "--spec", "divisor1", "--Q", "4", "--N", "1000"],
    ["arcs", "scan", "--spec", "divisor1", "--X", "1000", "--H", "40", "--Q", "2"],
]
scan = ["arcs", "scan", "--X", "2000", "--H", "100", "--Q", "3", "--kind", "minor"]
runs += [scan + ["--spec", "tau"], scan + ["--spec", "one_star_chi4"]]
report = {"codes": [], "loaded": [loaded()]}
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(harness.main(argv))
    report["loaded"].append(loaded())
report["same"] = arcs.scipy is scipy
print(json.dumps(report))
"""


def test_no_command_loads_scipy_fft():
    # Every command, tau and 1*chi4 scans included, runs without scipy.fft
    # and scipy.special, whose import would be most of a short job's
    # start-up time.  `arcs.scipy` stays the scipy module (J0 and the
    # benchmark's trace proxy both reach scipy through it).
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 6
    assert report["loaded"] == [[]] * 7
    assert report["same"]


def test_correlate_import_leaves_dirichlet_out():
    # The correlation routes stand apart from the main term: importing
    # them loads no character or singular-series code.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys, terncorr.correlate; print('terncorr.dirichlet' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_LOADS_SCRIPT = """
import contextlib, io, json, sys
from terncorr import harness

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = harness.main(sys.argv[1:])
watched = ("terncorr.arcs", "terncorr.dirichlet", "terncorr.tau", "scipy")
print(json.dumps({
    "code": code,
    "loaded": [m for m in watched if m in sys.modules],
    "scipy_version": json.loads(out.getvalue())["versions"]["scipy"],
}))
"""

_SERIES_RECORD = '{"payload": {"spec": "divisor1", "series_value": 1.0}}'


@pytest.mark.parametrize("argv, loaded", [
    ("correlate --spec divisor2 --X 2000 --H 50 --method conv", []),
    ("identity-check --X 300", []),
    ("count-triples --spec divisor2 --X 1000 --H 20", []),
    ("sieve --spec divisor3 --lo 1 --hi 500", []),
    ("sieve --spec tau --lo 1 --hi 500", ["terncorr.tau"]),
    ("correlate --spec tau --X 2000 --H 50", ["terncorr.tau"]),
    ("correlate --spec divisor1 --X 2000 --H 50 --series {series}",
     ["terncorr.dirichlet"]),
    ("singular-series --spec divisor1 --Q 4 --N 1000", ["terncorr.dirichlet"]),
    ("arcs scan --spec divisor1 --X 1000 --H 40 --Q 2", ["terncorr.arcs"]),
    ("main-term-trend --spec divisor1 --X-list 1000,2000 --N 1000",
     ["terncorr.arcs", "terncorr.dirichlet"]),
])
def test_each_command_loads_only_its_subsystems(tmp_path, argv, loaded):
    # A fresh process imports only what its command runs: the correlation
    # commands and sieve start without arcs, dirichlet, tau or scipy, and no
    # command here loads scipy, so its version is recorded as null.
    series = tmp_path / "series.json"
    series.write_text(_SERIES_RECORD)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    args = argv.format(series=series).split()
    proc = subprocess.run([sys.executable, "-c", _LOADS_SCRIPT, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"code": 0, "loaded": loaded, "scipy_version": None}


def test_record_names_scipy_version_once_loaded(capsys):
    import scipy

    assert main(["correlate", "--spec", "divisor1", "--X", "100", "--H", "10"]) == 0
    versions = json.loads(capsys.readouterr().out)["versions"]
    assert versions["scipy"] == scipy.__version__


def test_sieve_beyond_int64_exits_3(capsys):
    code = main(["sieve", "--spec", "divisor60", "--lo", str(2**40),
                 "--hi", str(2**40)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err


def test_arc_scan_far_from_origin(tmp_path):
    # The scan grid is sized from the window length, so x = 3*10^5 fits.
    out = tmp_path / "scan.json"
    assert main(["arcs", "scan", "--spec", "divisor2", "--X", "300000",
                 "--H", "3000", "--Q", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert 0 < payload["sup_abs"] <= payload["sup_upper"] <= payload["trivial_bound"]
    header, row = out.with_suffix(".csv").read_text().splitlines()
    assert header.endswith(",ratio,sup_upper")
    assert float(row.split(",")[-1]) == payload["sup_upper"]


def test_tau_correlation_at_a_million(monkeypatch, capsys):
    # X = 10^6 reads tau up to 2X + 2H = 2002000: a table of capacity 2^21,
    # below the 2^22 budget.  The monkeypatch drops it when the test ends.
    monkeypatch.setattr(tau, "_table", tau._EMPTY)
    assert main(["correlate", "--spec", "tau", "--X", "1000000", "--H", "1000",
                 "--method", "conv"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    info = payload["tau_table"]
    assert (info["capacity"], info["builds"]) == (1 << 21, 1)
    assert len(info["digit_bits"]) == 3 and info["rounding_bound"] < 0.5
    assert payload["value_im"] == 0.0
    assert 0 < payload["error_bound"] <= 1e-6 * abs(payload["value_re"])


def test_tau_correlation_keeps_its_bits(capsys):
    # The float banded route at the benchmark's tau size, to the last bit.
    assert main(["correlate", "--spec", "tau", "--X", "50000", "--H", "2000",
                 "--method", "conv"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["value_re"] == -4582.379970634359


def test_tau_table_reported_when_a_spec_is_tau(monkeypatch, capsys):
    monkeypatch.setattr(tau, "_table", tau._EMPTY)
    assert main(["correlate", "--spec", "divisor2", "--X", "1000", "--H", "10"]) == 0
    assert "tau_table" not in json.loads(capsys.readouterr().out)["payload"]
    assert main(["arcs", "scan", "--spec", "tau", "--X", "20000", "--H", "400",
                 "--Q", "5"]) == 0
    info = json.loads(capsys.readouterr().out)["payload"]["tau_table"]
    assert info == tau.table_info() and info["capacity"] == 1 << 15
    assert main(["correlate", "--spec", "divisor2,tau,divisor2", "--X", "1000",
                 "--H", "10"]) == 0
    info = json.loads(capsys.readouterr().out)["payload"]["tau_table"]
    assert (info["capacity"], info["builds"]) == (1 << 15, 1)


# ---------------------------------------------------------------------------
# The option table: flags, documents and the config echo


def _config(argv):
    return config_from_args(build_parser().parse_args(argv))


# One sample per option, as (flag text, document text); neither is a default.
_MORE_THREADS = str(harness.cpu_count() + 1)
_SAMPLES = {
    "spec": ("moebius", '"moebius"'),
    "X": ("5000", "5000"),
    "H": ("10", "10"),
    "Q": ("preset:thm14", '"preset:thm14"'),
    "epsilon": ("0.04", "0.04"),
    "eta": ("0.5", "0.5"),
    "N": ("5000", "5000"),
    "out": ("r.json", '"r.json"'),
    "threads": (_MORE_THREADS, _MORE_THREADS),
    "seed": ("9", "9"),
    "coeff_cache": ("d", '"d"'),
    "lo": ("4", "4"),
    "hi": ("9", "9"),
    "q0": ("3", "3"),
    "method": ("conv", '"conv"'),
    "series": ("s.json", '"s.json"'),
    "kind": ("major", '"major"'),
    "x": ("300", "300"),
    "L": ("50", "50"),
    "X_list": ("100,200", "[100, 200]"),
    "c": ("0.5", "0.5"),
}


def test_option_samples_cover_the_table():
    assert set(_SAMPLES) == {opt.key for opt in harness.OPTIONS}


def _words(experiment):
    return list(harness.COMMANDS[experiment].words or (experiment,))


def _scoped(tmp_path, experiment, opt):
    """(argv with the option's flag, argv with it in a document), each giving
    X = 1000 where the experiment needs X."""
    flag_text, doc_text = _SAMPLES[opt.key]
    needs_x = harness.COMMANDS[experiment].uses_xh and harness._reads("X", experiment)
    doc = tmp_path / "run.cfg"
    doc.write_text(f'experiment = "{experiment}"\n' + "X = 1000\n" * needs_x
                   + f"{opt.key} = {doc_text}\n")
    by_flag = _words(experiment) + ["--X", "1000"] * needs_x
    by_flag += [opt.flag or f"--{opt.key}", flag_text]
    return by_flag, _words(experiment) + ["--config", str(doc)]


@pytest.mark.parametrize("opt", harness.OPTIONS, ids=lambda opt: opt.key)
def test_flag_and_document_key_agree(tmp_path, opt):
    # Every experiment that reads the option takes it alike as a flag and as
    # a document key.
    readers = [e for e in harness.COMMANDS if harness._reads(opt.key, e)]
    assert readers
    for experiment in readers:
        by_flag, by_doc = _scoped(tmp_path, experiment, opt)
        from_flag, from_doc = _config(by_flag), _config(by_doc)
        assert from_flag == from_doc, experiment
        default = getattr(ExperimentConfig(experiment), opt.attr)
        assert getattr(from_flag, opt.attr) != default, experiment


_OUT_OF_SCOPE = [(e, opt) for e in harness.COMMANDS for opt in harness.OPTIONS
                 if not harness._reads(opt.key, e)]


@pytest.mark.parametrize("experiment, opt", _OUT_OF_SCOPE,
                         ids=[f"{e}-{opt.key}" for e, opt in _OUT_OF_SCOPE])
def test_option_out_of_scope_is_refused(tmp_path, capsys, experiment, opt):
    # A setting the experiment does not read exits 2, as a flag and as a
    # document key, and is never accepted and then ignored.
    by_flag, by_doc = _scoped(tmp_path, experiment, opt)
    with pytest.raises(SystemExit) as exc:
        main(by_flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(by_doc) == 2
    err = capsys.readouterr().err
    assert f"experiment {experiment!r} does not read {opt.key!r}" in err


# The flags each subcommand takes besides --config and --help: 57 in all.
_FLAGS = {
    "sieve": "spec out coeff-cache lo hi q0",
    "singular-series": "spec out coeff-cache X H Q eps N threads",
    "correlate": "spec out coeff-cache X H eps threads method series",
    "arc-scan": "spec out coeff-cache X H Q eps eta kind x L",
    "main-term-trend": "spec out coeff-cache H Q eps N threads X-list",
    "count-triples": "spec out coeff-cache X H c",
    "identity-check": "spec out coeff-cache X H threads seed",
}


@pytest.mark.parametrize("experiment", harness.COMMANDS)
def test_help_lists_only_the_settings_read(capsys, experiment):
    with pytest.raises(SystemExit):
        main(_words(experiment) + ["--help"])
    listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    want = {f"--{word}" for word in _FLAGS[experiment].split()}
    assert listed - {"--help", "--config"} == want
    assert sum(len(words.split()) for words in _FLAGS.values()) == 57


def test_spec_count_is_checked(tmp_path, capsys):
    # Single-spec experiments take one id; correlate and identity-check take
    # one or three.  None is accepted and then ignored.
    assert main(["sieve", "--spec", "divisor2,moebius,tau", "--lo", "1", "--hi", "5"]) == 2
    assert main(["correlate", "--spec", "divisor1,divisor2", "--X", "100"]) == 2
    assert main(["identity-check", "--spec", "divisor1,divisor2", "--X", "100"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "takes 1 spec id(s), got 3" in err
    assert "takes 1 or 3 spec id(s), got 2" in err
    # spec1..spec3 only where a triple is read
    doc = tmp_path / "run.cfg"
    doc.write_text('experiment = "sieve"\nspec1 = "moebius"\n')
    assert main(["sieve", "--config", str(doc)]) == 2
    assert "experiment 'sieve' does not read 'spec1'" in capsys.readouterr().err
    doc.write_text('experiment = "correlate"\nX = 100\nspec1 = "divisor1"\n'
                   'spec2 = "moebius"\nspec3 = "divisor2"\n')
    assert _config(["correlate", "--config", str(doc)]).spec_ids == (
        "divisor1", "moebius", "divisor2")


def test_identity_check_leads_only_with_an_exact_triple():
    cfg = ExperimentConfig(experiment="identity-check", x_start=100, h_expr=5,
                           spec_ids=("divisor2", "moebius", "divisor3"))
    lead = run(cfg).payload["cases"][0]
    assert (lead["spec"], lead["X"], lead["H"]) == (list(cfg.spec_ids), 100, 5)
    # tau is not exact: every case is a random draw of the seed
    cases = run(replace(cfg, spec_ids=("divisor2", "tau", "divisor3"))).payload["cases"]
    draws = harness.random_exact_cases(cfg.seed, 20, 100)
    assert [(c["spec"], c["X"], c["H"]) for c in cases] == draws


def test_bad_inputs_exit_before_any_work(tmp_path, monkeypatch, capsys):
    # A bad --series record, a bad document method or kind, or a bad --eta
    # exits 2 before any window is built or any correlation route runs.
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the inputs were checked")

    monkeypatch.setattr(harness.correlate, "ternary_direct", refuse)
    monkeypatch.setattr(harness.correlate, "ternary_convolution", refuse)
    monkeypatch.setattr(harness.multfunc.WindowCache, "window", refuse)
    record = tmp_path / "series.json"
    argv = ["correlate", "--spec", "one_star_chi4", "--X", "100000", "--H", "10000",
            "--series", str(record)]
    for doc in ('{"spec": "one_star_chi4", "series_value": "x"}',
                '{"spec": "divisor1", "series_value": 1.0}'):
        record.write_text(doc)
        assert main(argv) == 2
        assert main(argv[:2] + ["one_star_chi4,one_star_chi4,tau"] + argv[3:]) == 2
    doc = tmp_path / "run.cfg"
    for experiment, line in (("arc-scan", 'kind = "bogus"'),
                             ("correlate", 'method = "bogus"')):
        doc.write_text(f'experiment = "{experiment}"\nspec = "tau"\nX = 100000\n'
                       f"H = 3000\n{line}\n")
        assert main(_words(experiment) + ["--config", str(doc)]) == 2
        assert "bad value for " + repr(line.split()[0]) in capsys.readouterr().err
    # so is an eta outside (0, 1), which only the scan's bound would read
    scan = ["arcs", "scan", "--spec", "tau", "--X", "100000", "--H", "3000"]
    for eta in ("0", "1", "-1/2", "3/2"):
        assert main(scan + [f"--eta={eta}"]) == 2, eta
        assert f"eta = {Fraction(eta)} must lie in (0, 1)" in capsys.readouterr().err
    # N < 2 gives no two-scale mean; it is refused before any window
    series = ["singular-series", "--spec", "one_star_chi4", "--Q", "5"]
    doc.write_text('experiment = "singular-series"\nspec = "one_star_chi4"\n'
                   "Q = 5\nN = 1\n")
    for argv, n in ((series + ["--N", "0"], 0), (series + ["--N", "1"], 1),
                    (["singular-series", "--config", str(doc)], 1)):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"N = {n} must be >= 2" in err and "Traceback" not in err, err


def test_trend_document_without_x_runs(tmp_path, capsys):
    doc = tmp_path / "trend.cfg"
    doc.write_text('experiment = "main-term-trend"\nspec = "divisor1"\n'
                   'X_list = [400, 1000]\nH = "X^0.5"\nQ = 4\nN = 10000\n')
    assert main(["main-term-trend", "--config", str(doc)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert [p["X"] for p in record["payload"]["points"]] == [400, 1000]
    assert "X" not in record["config"]
    # H >= 2 is checked at each X of X_list, not at an X the trend never reads
    assert main(["main-term-trend", "--X-list", "1000", "--H", "1"]) == 2
    assert "H = 1 at X = 1000 must be >= 2" in capsys.readouterr().err


def test_benchmark_jobs_parse(tmp_path, monkeypatch):
    # Every job of the benchmark's workloads is a command line that the
    # parser and the option scope accept; the workloads file is only read.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    argvs = [job.argv for name, w in workloads.WORKLOADS.items()
             for job in w.jobs(1, tmp_path / name)]
    assert len(argvs) == 12
    for argv in argvs:
        assert _config(list(argv)).experiment in harness.COMMANDS, argv


_ECHO = {"spec": ["one_star_chi4"], "X": 100000, "H": "X^0.8", "Q": "preset:thm13",
         "epsilon": "1/20", "eta": None, "N": 1000000, "seed": 20260808,
         "threads": harness.cpu_count(), "method": "direct"}


@pytest.mark.parametrize(
    "argv, echo",
    [
        (["correlate", "--spec", "divisor3", "--X", "4000", "--H", "600",
          "--method", "conv"],
         {"experiment": "correlate", "spec": ["divisor3"], "X": 4000, "H": "600",
          "method": "conv"}),
        (["arcs", "scan", "--spec", "tau", "--X", "100000", "--H", "3000",
          "--Q", "preset:thm14", "--kind", "minor"],
         {"experiment": "arc-scan", "spec": ["tau"], "H": "3000",
          "Q": "preset:thm14"}),
        (["singular-series", "--spec", "one_star_chi4", "--Q", "50", "--N",
          "1000000", "--threads", "2", "--coeff-cache", "d"],
         {"experiment": "singular-series", "Q": "50", "threads": 2}),
        (["main-term-trend", "--spec", "one_star_chi4", "--X-list",
          "10000,30000", "--coeff-cache", "d"],
         {"experiment": "main-term-trend"}),
        (["identity-check", "--X", "2000", "--seed", "1"],
         {"experiment": "identity-check", "spec": ["divisor1"], "X": 2000,
          "seed": 1}),
    ],
)
def test_benchmark_argv_echo_keeps_its_keys(argv, echo):
    # Of the eleven keys the config echo had before it listed every option,
    # each that a benchmark job's experiment reads keeps its value and format,
    # except that threads defaults to the CPU count, echoed as a number.
    want = {**_ECHO, **echo}
    got = harness._echo_config(_config(argv))
    assert type(got.get("threads", 0)) is int
    kept = {key: value for key, value in want.items() if key in got}
    assert {key: got[key] for key in kept} == kept
    read = {opt.key for opt in harness.OPTIONS if harness._reads(opt.key, got["experiment"])}
    assert set(got) == {"experiment"} | read


def test_flags_override_config_document(tmp_path, capsys):
    doc = tmp_path / "sieve.cfg"
    doc.write_text('experiment = "sieve"\nspec = "moebius"\nlo = 4\nhi = 6\n')
    assert main(["sieve", "--lo", "1", "--hi", "3", "--config", str(doc)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["spec"], payload["lo"], payload["hi"]) == ("moebius", 1, 3)
    assert payload["head_re"] == [1.0, -1.0, -1.0]
    # A document for another experiment is refused, not rerouted.
    assert main(["correlate", "--X", "100", "--H", "10", "--config", str(doc)]) == 2
    assert "'sieve'" in capsys.readouterr().err
    # X may come from the flags instead of the document.
    doc.write_text('experiment = "correlate"\n')
    assert _config(["correlate", "--X", "100", "--config", str(doc)]).x_start == 100
    with pytest.raises(ConfigurationError, match="X"):
        _config(["correlate", "--config", str(doc)])
