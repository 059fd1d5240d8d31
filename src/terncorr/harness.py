"""Experiment configuration, dispatch and the command-line interface.

A run is described by an ExperimentConfig (its defaults, overridden by a
key=value document and then by CLI flags, both declared once in OPTIONS),
dispatched to the owning subsystem, and serialised as
a RunRecord: config echo, payload, versions, wall time and every warning
that altered parameters (such as an arc-count clamp).  Power expressions
like "X^0.8" are evaluated in exact rational arithmetic so pinned examples
land on exact integers.

Only multfunc and correlate load with this module.  arcs, dirichlet and
tau are imported by the handlers that call them, so a command loads only
the subsystems it runs, and none but `accept` loads scipy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, correlate, multfunc
from .errors import (
    EXIT_FAILURE,
    EXIT_OK,
    ConfigurationError,
    DomainError,
    TerncorrError,
)

if TYPE_CHECKING:
    from . import arcs, dirichlet


def cpu_count() -> int:
    """The CPUs this process may run on: the default of `threads`."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    experiment: str
    spec_ids: tuple[str, ...] = ("divisor1",)
    x_start: int = 10**5
    h_expr: str | int = "X^0.8"
    q_source: str | int = "preset:thm13"
    epsilon: Fraction = Fraction(1, 20)
    eta: Fraction | None = None  # default 1 - 7 epsilon
    n_terms: int = 10**6
    out: str | None = None
    threads: int = field(default_factory=cpu_count)
    seed: int = 20260808
    method: str = "direct"
    c_threshold: float = 1e-3
    kind: str = "minor"
    scan_x: int | None = None
    scan_len: int | None = None
    lo: int = 1
    hi: int = 100
    q0: int = 1
    coeff_cache: str | None = None
    x_list: tuple[int, ...] = (10**4, 3 * 10**4, 10**5)
    series_path: str | None = None

    def resolved_h(self) -> int:
        """H at X from the H setting."""
        return eval_power_expr(self.h_expr, self.x_start)


@dataclass
class RunRecord:
    config: dict
    experiment: str
    payload: dict
    versions: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "experiment": self.experiment,
            "payload": self.payload,
            "versions": self.versions,
            "wall_time_s": self.wall_time_s,
            "warnings": self.warnings,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Exact power expressions


MAX_DENOMINATOR = 10**4  # of exponents and epsilon: x^d stays cheap to form


def _exact_exponent(value: Fraction, name: str) -> Fraction:
    """value, refused when its reduced denominator passes MAX_DENOMINATOR.

    An exponent p/d is evaluated exactly through x^p or x^d, whose cost
    grows with d; name says which value it is in the error.
    """
    if value.denominator > MAX_DENOMINATOR:
        raise ConfigurationError(
            f"{name} has a reduced denominator above {MAX_DENOMINATOR}"
        )
    return value


def _int_nth_root(a: int, n: int) -> int:
    """Largest t with t^n <= a.

    The first guess is exp(log(a) / n), scaled by 2^shift to stay in float
    range (math.log takes ints of any size).  A Newton step from any t > 0
    lands at or above the root, and the steps fall while above it.
    """
    if a < 0 or n < 1:
        raise DomainError("nth root needs a >= 0, n >= 1")
    if a in (0, 1):
        return a

    def step(t: int) -> int:
        return ((n - 1) * t + a // t ** (n - 1)) // n

    shift = max(0, a.bit_length() // n - 64)
    guess = math.exp(math.log(a) / n - shift * math.log(2))
    t = step(max(1, round(guess)) << shift)
    while (s := step(t)) < t:
        t = s
    return t


def ceil_rational_power(x: int, theta: Fraction) -> int:
    """ceil(x^theta) for x >= 1 and theta > 0, exactly."""
    p, q = theta.numerator, theta.denominator
    a = x**p
    r = _int_nth_root(a, q)
    return r if r**q == a else r + 1


def eval_power_expr(expr: str | int, x: int) -> int:
    """Evaluate H from an integer, an "X^theta" expression, or a theta preset.

    preset:thm13 uses theta = 10/13 and preset:thm14 theta = 1/2.
    """
    if isinstance(expr, int):
        return expr
    text = expr.strip()
    theta: Fraction | None = None
    if text.lower() == "preset:thm13":
        theta = Fraction(10, 13)
    elif text.lower() == "preset:thm14":
        theta = Fraction(1, 2)
    elif text.lower().startswith("preset:"):
        raise ConfigurationError(f"unknown H preset {text!r}")
    elif text.upper().startswith("X^"):
        theta = _exact_exponent(_parse_fraction(text[2:]), f"H exponent {text[2:]!r}")
    if theta is not None:
        if not (0 < theta < 1):
            raise ConfigurationError(
                f"H exponent {theta} outside the open interval (0, 1)"
            )
        h = ceil_rational_power(x, theta)
        if h < 2:
            raise ConfigurationError(f"H expression {text!r} evaluates to {h} < 2")
        return h
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse H value {text!r}") from None


def _parse_fraction(text: str) -> Fraction:
    t = text.strip().strip("()")
    try:
        if "/" in t:
            num, den = t.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"cannot parse exponent {text!r}") from None


def resolve_q(q_source: str | int, x: int, h: int, epsilon: Fraction) -> int:
    """Q from an explicit integer or a named preset (before any clamping)."""
    if isinstance(q_source, int):
        return q_source
    text = q_source.strip().lower()
    if not text.startswith("preset:"):
        try:
            return int(text)
        except ValueError:
            raise ConfigurationError(f"cannot parse Q value {q_source!r}") from None
    name = text[len("preset:"):]
    if name in ("thm13", "thm14"):
        # Q = ceil(X * H^(5 eps - 1)) = ceil(X / H^(1 - 5 eps))
        return _ceil_div_power(x, h, Fraction(1 - 5 * epsilon))
    raise ConfigurationError(f"unknown Q preset {q_source!r}")


def _ceil_div_power(x: int, h: int, expo: Fraction) -> int:
    """ceil(x / h^expo) exactly: the least Q with Q^d * h^p >= x^d, expo = p/d.

    Q^d is an integer, so that is Q^d >= ceil(x^d / h^p): a ceiling root.
    """
    p, d = expo.numerator, expo.denominator
    return ceil_rational_power(-(-(x**d) // h**p), Fraction(1, d))


# ---------------------------------------------------------------------------
# Options: one table serves the CLI flags and the key = value documents


def _int(v) -> int:
    """A document integer or a flag's integer text.

    A float or boolean is refused, not truncated (int(1000.9) is 1000).
    """
    if isinstance(v, (bool, float)):
        raise TypeError(f"{v!r} is not an integer")
    return int(v)


def _int_or_text(v) -> int | str:
    """An integer when v reads as one, else the text of an expression or preset."""
    try:
        return _int(v)
    except ValueError:
        return str(v)


def _fraction(v) -> Fraction:
    return Fraction(str(v))


def _spec_list(v) -> tuple[str, ...]:
    return tuple(s.strip() for s in str(v).split(",") if s.strip())


def _int_list(v) -> tuple[int, ...]:
    """A document's integer list, or a flag's comma list."""
    if isinstance(v, str):
        v = [u for u in v.split(",") if u.strip()]
    return tuple(_int(u) for u in v)


def _echo(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


@dataclass(frozen=True)
class Option:
    """One setting of an experiment.

    key is the document key and, unless flag says otherwise, the flag
    --key; attr is the ExperimentConfig field it sets (whose default is the
    setting's default); cast turns a document value or a flag's text into
    the field value; commands are the experiments whose handler reads the
    setting (empty: all), the only ones that take its flag and document key
    and echo it; choices bind flags and documents alike; echo renders the
    field in the run record.
    """

    key: str
    attr: str
    cast: Callable = _int
    flag: str | None = None
    commands: tuple[str, ...] = ()
    help: str | None = None
    choices: tuple[str, ...] | None = None
    echo: Callable = _echo


OPTIONS = (
    Option("spec", "spec_ids", _spec_list,
           help="spec id, or for correlate and identity-check a comma triple "
                "(divisor1, divisor2, divisor3, moebius, one_star_chi4, tau)"),
    Option("X", "x_start", commands=("singular-series", "correlate", "arc-scan",
                                     "count-triples", "identity-check")),
    Option("H", "h_expr", _int_or_text, echo=str,
           commands=("singular-series", "correlate", "arc-scan",
                     "main-term-trend", "count-triples", "identity-check"),
           help='integer or expression like "X^0.8" / "X^10/13"'),
    Option("Q", "q_source", _int_or_text, echo=str,
           commands=("singular-series", "arc-scan", "main-term-trend"),
           help="integer, preset:thm13 or preset:thm14"),
    Option("epsilon", "epsilon", _fraction, flag="--eps",
           commands=("singular-series", "correlate", "arc-scan", "main-term-trend")),
    Option("eta", "eta", _fraction, commands=("arc-scan",)),
    Option("N", "n_terms", commands=("singular-series", "main-term-trend")),
    Option("out", "out", str),
    Option("threads", "threads", commands=("singular-series", "correlate",
                                           "main-term-trend", "identity-check"),
           help="worker threads (default: the CPUs this process may use)"),
    Option("seed", "seed", commands=("identity-check",)),
    Option("coeff_cache", "coeff_cache", str, flag="--coeff-cache"),
    Option("lo", "lo", commands=("sieve",)),
    Option("hi", "hi", commands=("sieve",)),
    Option("q0", "q0", commands=("sieve",)),
    Option("method", "method", str, commands=("correlate",),
           choices=("direct", "conv")),
    Option("series", "series_path", str, commands=("correlate",),
           help="singular-series RunRecord JSON for the main-term gap"),
    Option("kind", "kind", str, commands=("arc-scan",),
           choices=("major", "minor")),
    Option("x", "scan_x", commands=("arc-scan",), help="window start (default X)"),
    Option("L", "scan_len", commands=("arc-scan",),
           help="window length (default 2H)"),
    Option("X_list", "x_list", _int_list, flag="--X-list",
           commands=("main-term-trend",)),
    Option("c", "c_threshold", float, commands=("count-triples",)),
)
_OPTIONS = {opt.key: opt for opt in OPTIONS}
# Document-only keys besides `experiment`: single spec ids that together
# replace `spec`, read by the experiments that take a triple.
_SPEC_KEYS = ("spec1", "spec2", "spec3")
_TRIPLES = ("correlate", "identity-check")


def _reads(key: str, experiment: str) -> bool:
    """Whether experiment reads the setting of a document key."""
    if key in _SPEC_KEYS:
        return experiment in _TRIPLES
    commands = _OPTIONS[key].commands
    return not commands or experiment in commands


def parse_config(
    text: str, flags: dict | None = None, experiment: str | None = None
) -> ExperimentConfig:
    """Parse a key = value document (quoted strings, ints, floats, lists).

    flags, keyed like the document, override it.  When experiment is given,
    the document must name that experiment.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS and key not in ("experiment", *_SPEC_KEYS):
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(val.strip(), f"line {lineno}: {key!r}")

    if "experiment" not in values:
        raise ConfigurationError("missing required key 'experiment'")
    name = str(values.pop("experiment"))
    if name not in COMMANDS:
        raise ConfigurationError(f"unknown experiment {name!r}")
    if experiment is not None and name != experiment:
        raise ConfigurationError(
            f"the document is for experiment {name!r}, not {experiment!r}"
        )
    flags = flags or {}
    if (COMMANDS[name].uses_xh and _reads("X", name)
            and "X" not in values and "X" not in flags):
        raise ConfigurationError("missing required key 'X'")
    return _build(name, values, flags)


def _parse_value(val: str, where: str):
    if val.startswith('"') and val.endswith('"') and len(val) >= 2:
        return val[1:-1]
    if val.startswith("[") and val.endswith("]"):
        try:
            return [int(v.strip()) for v in val[1:-1].split(",") if v.strip()]
        except ValueError:
            raise ConfigurationError(
                f"{where} has a bad integer list {val!r}"
            ) from None
    for caster in (int, float):
        try:
            return caster(val)
        except ValueError:
            continue
    if val.lower() in ("true", "false"):
        return val.lower() == "true"
    if val:
        return val
    raise ConfigurationError(f"{where} has an empty value")


def _build(experiment: str, *layers: dict) -> ExperimentConfig:
    """The defaults, then each layer of document-keyed values in turn."""
    cfg = ExperimentConfig(experiment=experiment)
    for values in layers:
        _apply_values(cfg, values)
    _validate(cfg)
    return cfg


def _apply_values(cfg: ExperimentConfig, values: dict):
    for key in values:
        if not _reads(key, cfg.experiment):
            raise ConfigurationError(
                f"experiment {cfg.experiment!r} does not read {key!r}"
            )
    values = dict(values)
    single = [str(values.pop(k)) for k in _SPEC_KEYS if k in values]
    if single:
        values["spec"] = ",".join(single)
    for key, val in values.items():
        opt = _OPTIONS[key]
        value = _cast(key, opt.cast, val)
        if opt.choices and value not in opt.choices:
            raise ConfigurationError(
                f"bad value for {key!r}: {val!r}, not one of {opt.choices}"
            )
        setattr(cfg, opt.attr, value)


def _cast(key: str, cast, val):
    """cast(val), with a ConfigurationError naming key when val is unusable."""
    try:
        return cast(val)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigurationError(f"bad value for {key!r}: {val!r}") from None


def _validate(cfg: ExperimentConfig):
    counts = (1, 3) if cfg.experiment in _TRIPLES else (1,)
    if len(cfg.spec_ids) not in counts:
        raise ConfigurationError(
            f"{cfg.experiment} takes {' or '.join(map(str, counts))} spec id(s), "
            f"got {len(cfg.spec_ids)}: {','.join(cfg.spec_ids)!r}"
        )
    for sid in cfg.spec_ids:
        multfunc.spec_from_id(sid)  # raises DomainError on unknown ids
    # X before H, which a small X cannot give; a trend reads each X_list
    # entry.  Both are checked wherever H is a setting, so a series with an
    # integer Q, which reads neither, still refuses bad ones.
    xs = cfg.x_list if cfg.experiment == "main-term-trend" else (cfg.x_start,)
    for x in xs if _reads("H", cfg.experiment) else ():
        if cfg.experiment == "identity-check" and x < 50:
            raise ConfigurationError(
                f"identity-check draws X from [50, min(2000, X)], so needs X >= 50, "
                f"got {x}"
            )
        if x < 1:
            raise ConfigurationError(f"X = {x} must be >= 1")
        if x < 5 and cfg.experiment not in ("singular-series", "arc-scan"):
            raise ConfigurationError(
                f"X = {x} must be >= 5, since X - 2H >= 1 with H >= 2"
            )
        h = replace(cfg, x_start=x).resolved_h()
        if h < 2:
            raise ConfigurationError(f"H = {h} at X = {x} must be >= 2")
    if _reads("N", cfg.experiment) and cfg.n_terms < 2:
        raise ConfigurationError(f"N = {cfg.n_terms} must be >= 2")
    if isinstance(cfg.q_source, int) and cfg.q_source < 2:
        raise ConfigurationError(f"Q = {cfg.q_source} must be >= 2")
    if not cfg.x_list:
        raise ConfigurationError("X_list must name at least one X")
    if not (0 < cfg.epsilon < Fraction(1, 8)):
        raise ConfigurationError("epsilon must lie in (0, 1/8)")
    _exact_exponent(cfg.epsilon, f"epsilon = {cfg.epsilon}")
    if cfg.eta is not None and not (0 < cfg.eta < 1):
        raise ConfigurationError(f"eta = {cfg.eta} must lie in (0, 1)")
    if not math.isfinite(cfg.c_threshold):
        raise ConfigurationError(f"c = {cfg.c_threshold} must be finite")
    if cfg.threads < 1:
        raise ConfigurationError("threads must be >= 1")
    for key, val in (("x", cfg.scan_x), ("L", cfg.scan_len)):
        if val is not None and val < 1:
            raise ConfigurationError(f"{key} = {val} must be >= 1")


# ---------------------------------------------------------------------------
# Experiment dispatch


def run(cfg: ExperimentConfig) -> RunRecord:
    """Execute one experiment and assemble its RunRecord."""
    t0 = time.perf_counter()
    warnings: list[str] = []
    cache = multfunc.WindowCache(cfg.coeff_cache, max_items=256)
    specs = tuple(multfunc.spec_from_id(s) for s in cfg.spec_ids)
    for spec in specs:
        if spec.hypothesis_conditional:
            warnings.append(
                f"spec {spec.spec_id} is hypothesis-conditional: its membership "
                "in the pole-free class is unproven"
            )

    payload = COMMANDS[cfg.experiment].handler(cfg, specs, cache, warnings)

    record = RunRecord(
        config=_echo_config(cfg),
        experiment=cfg.experiment,
        payload=payload,
        versions={
            "terncorr": __version__,
            "numpy": np.__version__,
            # scipy's version once this process has loaded it (of the
            # commands only `accept` does), else None; read without an
            # import, as importlib.metadata alone costs about 30 ms
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
            "python": sys.version.split()[0],
        },
        wall_time_s=time.perf_counter() - t0,
        warnings=warnings,
    )
    if cfg.out:
        path = Path(cfg.out)
        if path.suffix == ".csv":  # CSV side outputs own that name
            path = path.with_suffix(".json")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(record.to_json() + "\n", encoding="utf-8")
        except OSError as exc:
            raise TerncorrError(f"cannot write output {cfg.out!r}: {exc}") from exc
    return record


def _echo_config(cfg: ExperimentConfig) -> dict:
    echo = {"experiment": cfg.experiment}
    echo.update((opt.key, opt.echo(getattr(cfg, opt.attr))) for opt in OPTIONS
                if _reads(opt.key, cfg.experiment))
    return echo


def _run_correlate(cfg, specs, cache, warnings) -> dict:
    s1, s2, s3 = specs * (3 // len(specs))
    h = cfg.resolved_h()
    series_value = None
    if cfg.series_path:  # checked before the correlation runs
        series_id, series_value = load_series_record(cfg.series_path)
        if not s1 == s2 == s3:
            raise DomainError("main-term comparison requires spec1 = spec2 = spec3")
        if s1.spec_id != series_id:
            raise DomainError(
                f"series computed for {series_id!r}, result uses {s1.spec_id!r}"
            )
    req = correlate.CorrelationRequest(s1, s2, s3, cfg.x_start, h)
    route = {"direct": correlate.ternary_direct, "conv": correlate.ternary_convolution}
    result = route[cfg.method](req, cache=cache, threads=cfg.threads)
    main_term = rel_gap = None
    if cfg.series_path:
        from . import dirichlet

        main_term, rel_gap = dirichlet.main_term_gap(
            s1, result.value, cfg.x_start, h, float(cfg.epsilon), series_value
        )
    value = complex(result.value)
    return {
        "value_re": value.real,
        "value_im": value.imag,
        "main_term": main_term,
        "relative_gap": rel_gap,
        "X": cfg.x_start,
        "H": h,
        "method": cfg.method,
        "seconds": result.timing,
        "exact_numerator": (None if result.exact_numerator is None
                            else str(result.exact_numerator)),
        "error_bound": result.error_bound,
        "digits": list(result.digits) if result.digits is not None else None,
        **_tau_table((s1, s2, s3)),
    }


def _tau_table(specs) -> dict:
    """{"tau_table": tau.table_info()} when a spec reads the tau table."""
    if any(s.kind is multfunc.Kind.RAMANUJAN_TAU_NORM for s in specs):
        from . import tau

        return {"tau_table": tau.table_info()}
    return {}


def load_series_record(path: str) -> tuple[str, float]:
    """(spec, series_value) of a singular-series RunRecord JSON."""
    raw = _read_input(path, "series record")
    try:
        doc = json.loads(raw)
        payload = doc.get("payload", doc)
        spec_id, value = payload["spec"], payload["series_value"]
        if not (isinstance(spec_id, str) and type(value) in (int, float)
                and math.isfinite(value)):
            raise ValueError(f"spec {spec_id!r}, series_value {value!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{path!r} is not a singular-series record: {exc!r}"
        ) from None
    return spec_id, float(value)


def _clamped_q(cfg, h, warnings) -> tuple[int, int]:
    """Q from its source, and the largest Q' <= Q whose major arcs are disjoint."""
    from . import arcs

    q_pre = resolve_q(cfg.q_source, cfg.x_start, h, cfg.epsilon)
    q_use = arcs.largest_disjoint_q(q_pre, h, float(cfg.epsilon))
    if q_use != q_pre:
        warnings.append(
            f"Q clamped from {q_pre} to {q_use} to keep major arcs disjoint"
        )
    return q_pre, q_use


def _run_series(cfg, specs, cache, warnings) -> dict:
    from . import dirichlet

    spec = specs[0]
    q_cut = cfg.q_source
    if not isinstance(q_cut, int):  # a preset reads X and H
        q_cut = resolve_q(q_cut, cfg.x_start, cfg.resolved_h(), cfg.epsilon)
    series = dirichlet.singular_series_sum(
        spec, q_cut, cfg.n_terms, cache=cache, threads=cfg.threads
    )
    csv_path = None
    if cfg.out:
        csv_path = _side_output(cfg.out, ".csv")
        _write_series_csv(series, csv_path)
    return {
        "spec": spec.spec_id,
        "Q": series.q_cut,
        "N": series.n_used,
        "series_value": series.series_value,
        "series_imag": series.series_imag,
        "tail_estimate": series.tail_estimate,
        "fit_c": series.fit_c,
        "fit_delta": series.fit_delta,
        "c_table_csv": csv_path,
        "window_cache": cache.counts(),
    }


def _side_output(out: str, suffix: str) -> str:
    """The path of a side output next to --out, its directory created."""
    path = Path(out).with_suffix(suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    return str(path)


def _write_series_csv(series: dirichlet.SingularSeries, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "re_Cq", "im_Cq", "err"])
        for q, (c, err) in enumerate(zip(series.c_table, series.c_errors), start=1):
            writer.writerow([q, *(repr(float(v)) for v in (c.real, c.imag, err))])


def _run_arc_scan(cfg, specs, cache, warnings) -> dict:
    from . import arcs

    spec = specs[0]
    h = cfg.resolved_h()
    q_pre, q_use = _clamped_q(cfg, h, warnings)
    dec = arcs.decompose(q_use, h, float(cfg.epsilon))
    x = cfg.x_start if cfg.scan_x is None else cfg.scan_x
    length = 2 * h if cfg.scan_len is None else cfg.scan_len
    arcs.scan_grid_points(length)  # the grid budget, before the window is built
    window = cache.window(spec, 1, x, x + length)
    report = arcs.sup_scan(
        window, dec, x, length, cfg.kind,
        eta=float(1 - 7 * cfg.epsilon if cfg.eta is None else cfg.eta),
        k=spec.k_bound, epsilon=float(cfg.epsilon),
    )
    if cfg.out:
        _write_scan_csv(report, _side_output(cfg.out, ".csv"))
    return {
        "kind": report.kind,
        "sup_abs": report.sup_abs,
        "sup_upper": report.sup_upper,
        "argmax_x": report.argmax_x,
        "argmax_alpha": report.argmax_alpha,
        "q": report.nearest_q,
        "a": report.nearest_a,
        "gamma": report.gamma,
        "bound": report.bound_value,
        "ratio": report.ratio,
        "edge_sum": report.edge_sum,
        "trivial_bound": report.trivial_bound,
        "grid_spacing": report.grid_spacing,
        "refinement_depth": report.refinement_depth,
        "Q_preset": q_pre,
        "Q_used": q_use,
        "beta": dec.beta,
        **_tau_table((spec,)),
    }


def _write_scan_csv(report: arcs.SupScanReport, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "alpha", "q", "a", "gamma", "abs_value", "bound", "ratio",
                         "sup_upper"])
        writer.writerow([
            report.argmax_x, repr(report.argmax_alpha), report.nearest_q,
            report.nearest_a, repr(report.gamma), repr(report.sup_abs),
            repr(report.bound_value), repr(report.ratio), repr(report.sup_upper),
        ])


def _run_trend(cfg, specs, cache, warnings) -> dict:
    from . import dirichlet

    spec = specs[0]
    points = []  # (X, H, clamped Q) of each X
    for x in cfg.x_list:
        sub = replace(cfg, x_start=x)
        h = sub.resolved_h()
        points.append((x, h, _clamped_q(sub, h, warnings)[1]))
    series = None
    if spec.has_pole:  # a pole-free spec has no main term to compare
        # one C_q table, at the largest Q; each point reads a prefix of it
        series = dirichlet.singular_series_sum(
            spec, max(q for _, _, q in points), cfg.n_terms, cache=cache,
            threads=cfg.threads,
        )
    gaps = []
    for x, h, q_use in points:
        series_value = None if series is None else series.value_below(q_use)
        req = correlate.CorrelationRequest(spec, spec, spec, x, h)
        result = correlate.ternary_direct(req, cache=cache, threads=cfg.threads)
        main_term, rel_gap = dirichlet.main_term_gap(
            spec, result.value, x, h, float(cfg.epsilon), series_value
        )
        gaps.append({
            "X": x,
            "H": h,
            "Q": q_use,
            "value_re": complex(result.value).real,
            "main_term": main_term,
            "relative_gap": rel_gap,
        })
    rgaps = [g["relative_gap"] for g in gaps]
    return {
        "points": gaps,
        "strictly_decreasing": all(b < a for a, b in zip(rgaps, rgaps[1:])),
        "window_cache": cache.counts(),
    }


def _run_count(cfg, specs, cache, warnings) -> dict:
    spec = specs[0]
    h = cfg.resolved_h()
    x = cfg.x_start
    window = cache.window(spec, 1, x - 2 * h, 2 * x + 2 * h)
    result = correlate.count_triples(window, x, h, cfg.c_threshold)
    return {
        "X": x,
        "H": h,
        "c": result.c,
        "count": result.count,
        "normalized": result.normalized,
    }


def random_exact_cases(
    seed: int, count: int, x_max: int = 2000
) -> list[tuple[list[str], int, int]]:
    """count random (spec ids, X, H) of exact families from random.Random(seed):
    X in [50, x_max], H in [1, min(50, (X - 1) // 2)]."""
    rng = random.Random(seed)
    pool = ["divisor1", "divisor2", "divisor3", "moebius", "one_star_chi4"]
    cases = []
    for _ in range(count):
        ids = [rng.choice(pool) for _ in range(3)]
        x = rng.randint(50, x_max)
        cases.append((ids, x, rng.randint(1, min(50, (x - 1) // 2))))
    return cases


def _run_identity(cfg, specs, cache, warnings) -> dict:
    triple = specs * (3 // len(specs))
    draws = []
    # The configured (specs, X, H) leads when it stays inside the exact domain.
    h0 = cfg.resolved_h()
    if all(s.is_exact for s in triple) and cfg.x_start - 2 * h0 >= 1:
        draws.append(([s.spec_id for s in triple], cfg.x_start, h0))
    draws += random_exact_cases(cfg.seed, 20 - len(draws), min(2000, cfg.x_start))
    cases = []
    exact_match = True
    for ids, x, h in draws:
        req = correlate.CorrelationRequest(
            *(multfunc.spec_from_id(i) for i in ids), x, h
        )
        a = correlate.ternary_direct(req, cache=cache, threads=cfg.threads)
        b = correlate.ternary_convolution(req, cache=cache, threads=cfg.threads)
        same = a.exact_numerator == b.exact_numerator
        exact_match &= same
        cases.append({
            "spec": list(ids), "X": x, "H": h,
            "numerator": str(a.exact_numerator), "match": same,
        })
    return {"cases": cases, "exact_match": exact_match, "seed": cfg.seed}


def _run_sieve(cfg, specs, cache, warnings) -> dict:
    spec = specs[0]
    window = cache.window(spec, cfg.q0, cfg.lo, cfg.hi)
    path = None
    if cfg.out:
        path = _side_output(cfg.out, ".bin")
        multfunc.write_window_cache(window, path)
    head = [complex(v) for v in window.values[:8]]
    return {
        "spec": spec.spec_id,
        "lo": cfg.lo,
        "hi": cfg.hi,
        "q0": cfg.q0,
        "length": len(window),
        "head_re": [v.real for v in head],
        "cache_file": path,
    }


# ---------------------------------------------------------------------------
# CLI


@dataclass(frozen=True)
class Command:
    """One experiment: the handler that runs it, its help, its subcommand
    words (default: its name), and whether it always reads H at its X (at
    each X_list entry, for a trend), in which case a document must give X
    where X is a setting of the experiment."""

    handler: Callable
    help: str
    words: tuple[str, ...] = ()
    uses_xh: bool = False


COMMANDS = {
    "sieve": Command(_run_sieve, "fill and optionally cache a window"),
    "singular-series": Command(_run_series, "C_q table and main-term factor"),
    "correlate": Command(_run_correlate, "averaged ternary correlation S(X, H)",
                         uses_xh=True),
    "arc-scan": Command(_run_arc_scan, "supremum scan over major/minor arcs",
                        ("arcs", "scan"), uses_xh=True),
    "main-term-trend": Command(_run_trend, "relative gap across X values",
                               uses_xh=True),
    "count-triples": Command(_run_count, "count |f f f| >= c triples",
                             uses_xh=True),
    "identity-check": Command(_run_identity, "direct vs convolution, exact specs",
                              uses_xh=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terncorr",
        description="Averaged ternary correlations of multiplicative functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment, command in COMMANDS.items():
        *group, name = command.words or (experiment,)
        where = sub
        if group:  # "arcs scan" is the one grouped subcommand
            where = sub.add_parser(group[0], help="arc-decomposition tools")
            where = where.add_subparsers(dest="group_command", required=True)
        # no abbreviations: --X must not stand for a trend's --X-list
        p = where.add_parser(name, help=command.help, allow_abbrev=False)
        p.set_defaults(experiment=experiment)
        p.add_argument("--config", help="key = value document; flags override it")
        for opt in OPTIONS:
            if _reads(opt.key, experiment):
                # SUPPRESS keeps flags not given out of the namespace, so
                # they override neither the document nor the defaults.
                p.add_argument(opt.flag or f"--{opt.key}", dest=opt.key,
                               default=argparse.SUPPRESS, choices=opt.choices,
                               help=opt.help)

    p = sub.add_parser("accept", help="run the acceptance suite", allow_abbrev=False)
    p.add_argument("--only", default=None, help="comma list of criterion numbers")
    p.add_argument("--out", default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The defaults, then the --config document, then the flags given."""
    given = vars(args)
    flags = {key: given[key] for key in _OPTIONS if key in given}
    if args.config:
        text = _read_input(args.config, "config")
        return parse_config(text, flags, args.experiment)
    return _build(args.experiment, flags)


def _read_input(path: str, what: str) -> str:
    """The text of an input file named by a flag; a missing or unreadable
    file is a ConfigurationError (exit 2), like a malformed one."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's strerror leaves out the path, which is named below
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigurationError(f"cannot read {what} {path!r}: {reason}") from None


def _accept(only: str | None, out: str | None) -> int:
    from . import acceptance

    numbers = None
    if only:
        numbers = {_cast("only", int, v) for v in only.split(",")}
        unknown = numbers - {number for number, _, _ in acceptance.CRITERIA}
        if unknown:
            raise ConfigurationError(f"no acceptance criterion {sorted(unknown)}")
    results = acceptance.run_acceptance(only=numbers, out=out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "accept":
            return _accept(args.only, args.out)
        record = run(config_from_args(args))
        print(record.to_json())
        return EXIT_OK
    except TerncorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
