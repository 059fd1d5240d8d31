"""Layer spans recorded from outside the terncorr package.

`install(recorder)` swaps the public entry points of `multfunc`, `tau`,
`dirichlet`, `correlate` and `arcs` for timing wrappers and returns a
function that puts the originals back.  Every span keeps its name, start,
end, parent span, thread and whether the call raised; spans stay in memory
until the job writes them out with `Recorder.dump`.

`layer_metrics(spans)` turns the spans of one or more jobs into the
per-layer metrics listed in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
import weakref
from collections import defaultdict

# Per-layer metrics as (name, unit, better).  `trace.overhead_s` is filled in
# by the driver, which alone sees traced and untraced iterations.
PER_LAYER = (
    ("harness.main_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("multfunc.window.calls", "count", "lower"),
    ("multfunc.window.busy_s", "s", "lower"),
    ("multfunc.window.hit_ratio", "ratio", "higher"),
    ("multfunc.cache.reads", "count", "lower"),
    ("multfunc.cache.read_s", "s", "lower"),
    ("multfunc.cache.read_mb", "MB", "lower"),
    ("multfunc.cache.writes", "count", "lower"),
    ("multfunc.cache.write_s", "s", "lower"),
    ("multfunc.cache.write_mb", "MB", "lower"),
    ("multfunc.raised", "count", "lower"),
    ("tau.values.calls", "count", "lower"),
    ("tau.values.s", "s", "lower"),
    ("tau.values.max_n", "count", "lower"),
    ("tau.raised", "count", "lower"),
    ("dirichlet.series.s", "s", "lower"),
    ("dirichlet.series.self_s", "s", "lower"),
    ("dirichlet.mean_density.calls", "count", "lower"),
    ("dirichlet.mean_density.s", "s", "lower"),
    ("dirichlet.characters.calls", "count", "lower"),
    ("dirichlet.characters.s", "s", "lower"),
    ("dirichlet.raised", "count", "lower"),
    ("correlate.direct.calls", "count", "lower"),
    ("correlate.direct.self_s", "s", "lower"),
    ("correlate.conv.calls", "count", "lower"),
    ("correlate.conv.self_s", "s", "lower"),
    ("correlate.triples", "count", "lower"),
    ("correlate.raised", "count", "lower"),
    ("arcs.scan.s", "s", "lower"),
    ("arcs.scan.self_s", "s", "lower"),
    ("arcs.fft.s", "s", "lower"),
    ("arcs.fft.points", "count", "lower"),
    ("arcs.fft.mb_computed", "MB", "lower"),
    ("arcs.refine.evals", "count", "lower"),
    ("arcs.refine.s", "s", "lower"),
    ("arcs.raised", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# The per-job subset printed for every job.
PER_JOB = (
    "correlate.direct.calls",
    "correlate.direct.self_s",
    "correlate.conv.calls",
    "correlate.conv.self_s",
    "correlate.triples",
)


def now() -> float:
    """CLOCK_MONOTONIC on Linux, so stamps from different processes compare."""
    return time.monotonic()


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "raised", "attrs")

    def __init__(self, span_id: int, name: str, parent: "Span | None"):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.raised = False
        self.attrs: dict = {}

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent.id if self.parent is not None else None,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "raised": self.raised,
            "attrs": self.attrs,
        }


class Recorder:
    """Collects spans from every thread of one job."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread with no open span works for whatever the main
            # thread has open (terncorr only starts pools from there).
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            span = Span(len(self.spans), name, parent)
            self.spans.append(span)
        stack.append(span)
        span.start = now()
        return span

    def close(self, span: Span) -> None:
        span.end = now()
        self._stack().pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


def timed(rec: Recorder, name: str, fn, attrs=None):
    """Wrap fn in a span; attrs(span, bound_args, result) may annotate it."""
    sig = inspect.signature(fn) if attrs is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span.raised = True
            raise
        finally:
            rec.close(span)
        if attrs is not None:
            attrs(span, sig.bind(*args, **kwargs).arguments, out)
        return out

    return wrapper


class _Proxy:
    """Attribute view of `target` with some names replaced."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(rec: Recorder):
    """Wrap the layer entry points; returns a function that undoes it."""
    import scipy
    import scipy.fft
    from terncorr import arcs, correlate, dirichlet, multfunc, tau

    seen: dict[tuple, weakref.ref] = {}

    def window_attrs(span, a, out):
        key = (a["spec"], a["q0"], a["lo"], a["hi"])
        prev = seen.get(key)
        if "hit" not in span.attrs and prev is not None and prev() is out:
            span.attrs["hit"] = "memory"
        seen[key] = weakref.ref(out)
        span.attrs["key"] = [a["spec"].spec_id, a["q0"], a["lo"], a["hi"]]

    def read_attrs(span, a, out):
        span.attrs["bytes"] = os.path.getsize(a["path"])
        if span.parent is not None and span.parent.name == "multfunc.window":
            span.parent.attrs["hit"] = "disk"

    def write_attrs(span, a, out):
        span.attrs["bytes"] = os.path.getsize(a["path"])

    def tau_attrs(span, a, out):
        span.attrs["n"] = a["n_max"]

    def corr_attrs(span, a, out):
        req = a["req"]
        span.attrs["X"], span.attrs["H"] = req.x_start, req.h_span
        span.attrs["triples"] = (req.x_start + 1) * (2 * req.h_span + 1)

    def fft_attrs(span, a, out):
        x = a["x"]
        span.attrs["points"] = int(x.size)
        span.attrs["bytes"] = int(x.nbytes + out.nbytes)

    fft = _Proxy(scipy.fft, {
        "rfft": timed(rec, "arcs.fft", scipy.fft.rfft, fft_attrs),
        "ifft": timed(rec, "arcs.fft", scipy.fft.ifft, fft_attrs),
    })
    plan = [
        (multfunc.WindowCache, "window", "multfunc.window", window_attrs),
        (multfunc, "read_window_cache", "multfunc.cache.read", read_attrs),
        (multfunc, "write_window_cache", "multfunc.cache.write", write_attrs),
        (tau, "tau_values", "tau.values", tau_attrs),
        (dirichlet, "singular_series_sum", "dirichlet.series", None),
        (dirichlet, "mean_density", "dirichlet.mean_density", None),
        (dirichlet, "characters_mod", "dirichlet.characters", None),
        (correlate, "ternary_direct", "correlate.direct", corr_attrs),
        (correlate, "ternary_convolution", "correlate.conv", corr_attrs),
        (arcs, "sup_scan", "arcs.scan", None),
        (arcs, "short_exp_sum", "arcs.short_exp_sum", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in plan]
    originals.append((arcs, "scipy", arcs.scipy))
    for owner, attr, name, attrs in plan:
        setattr(owner, attr, timed(rec, name, getattr(owner, attr), attrs))
    arcs.scipy = _Proxy(scipy, {"fft": fft})

    def restore():
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore


# ---------------------------------------------------------------------------
# From spans to metrics


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def annotate(spans: list[dict]) -> None:
    """Add `dur` and `self` (duration minus the part its children cover)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["job"], s["parent"])].append(s)
    for s in spans:
        kids = children.get((s["job"], s["id"]), ())
        clipped = [
            (max(k["start"], s["start"]), min(k["end"], s["end"])) for k in kids
        ]
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"] - _covered([c for c in clipped if c[1] > c[0]])


def _inside(span: dict, ancestor: str, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        p = by_id[(span["job"], parent)]
        if p["name"] == ancestor:
            return True
        parent = p["parent"]
    return False


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics (all of PER_LAYER except trace.overhead_s).

    Spans need `job`, and `dur`/`self` from `annotate`.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    by_id = {(s["job"], s["id"]): s for s in spans}

    def count(name):
        return len(by_name[name])

    def total(name, key="dur"):
        return sum(s[key] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    windows = by_name["multfunc.window"]
    hits = sum(1 for s in windows if "hit" in s["attrs"])
    refine = [s for s in by_name["arcs.short_exp_sum"]
              if _inside(s, "arcs.scan", by_id)]
    raised = defaultdict(int)
    for s in spans:
        if s["raised"]:
            raised[s["name"].split(".", 1)[0]] += 1

    return {
        "harness.main_s": total("harness.main"),
        "harness.self_s": total("harness.main", "self"),
        "multfunc.window.calls": count("multfunc.window"),
        "multfunc.window.busy_s": total("multfunc.window"),
        "multfunc.window.hit_ratio": hits / len(windows) if windows else 0.0,
        "multfunc.cache.reads": count("multfunc.cache.read"),
        "multfunc.cache.read_s": total("multfunc.cache.read"),
        "multfunc.cache.read_mb": attr_sum("multfunc.cache.read", "bytes") / 1e6,
        "multfunc.cache.writes": count("multfunc.cache.write"),
        "multfunc.cache.write_s": total("multfunc.cache.write"),
        "multfunc.cache.write_mb": attr_sum("multfunc.cache.write", "bytes") / 1e6,
        "multfunc.raised": raised["multfunc"],
        "tau.values.calls": count("tau.values"),
        "tau.values.s": total("tau.values"),
        "tau.values.max_n": max((s["attrs"]["n"] for s in by_name["tau.values"]),
                                default=0),
        "tau.raised": raised["tau"],
        "dirichlet.series.s": total("dirichlet.series"),
        "dirichlet.series.self_s": total("dirichlet.series", "self"),
        "dirichlet.mean_density.calls": count("dirichlet.mean_density"),
        "dirichlet.mean_density.s": total("dirichlet.mean_density"),
        "dirichlet.characters.calls": count("dirichlet.characters"),
        "dirichlet.characters.s": total("dirichlet.characters"),
        "dirichlet.raised": raised["dirichlet"],
        "correlate.direct.calls": count("correlate.direct"),
        "correlate.direct.self_s": total("correlate.direct", "self"),
        "correlate.conv.calls": count("correlate.conv"),
        "correlate.conv.self_s": total("correlate.conv", "self"),
        "correlate.triples": attr_sum("correlate.direct", "triples")
        + attr_sum("correlate.conv", "triples"),
        "correlate.raised": raised["correlate"],
        "arcs.scan.s": total("arcs.scan"),
        "arcs.scan.self_s": total("arcs.scan", "self"),
        "arcs.fft.s": total("arcs.fft"),
        "arcs.fft.points": attr_sum("arcs.fft", "points"),
        "arcs.fft.mb_computed": attr_sum("arcs.fft", "bytes") / 1e6,
        "arcs.refine.evals": len(refine),
        "arcs.refine.s": sum(s["dur"] for s in refine),
        "arcs.raised": raised["arcs"],
    }
