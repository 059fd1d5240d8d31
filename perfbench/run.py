"""Benchmark driver: runs the terncorr CLI workloads and reports metrics.

    python3 perfbench/run.py --workload corr-exact|tau-scan|series-cache|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a terncorr checkout.  Each iteration of a workload
runs its jobs one after another, each in a fresh process (perfbench/job.py)
that imports `terncorr.harness` from `src/` and calls `harness.main`.
Iterations repeat until the next one would end after S seconds (at least
one; with --trace 1, one untraced and one traced iteration per round).

The last line of standard output is one JSON object with `correct`,
`attempted` and `failed` (counted in jobs) and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1, each the
median over the run's iterations.  Everything else (per-job lines, the
environment, the span file) is described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import spans
from workloads import WORKLOADS, correlation_triples

HERE = Path(__file__).resolve().parent
JOB = HERE / "job.py"
OUT = Path(".perfbench-out")
HARD_LIMIT_S = 165.0  # a run must end well within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("triples_per_s", "1/s"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TC_THREADS", None)  # the thread budget comes from --threads only
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    return env


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(Path("src/terncorr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None  # not a git checkout
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() == Path.cwd().resolve():  # not an enclosing repo
            rev = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_job(job, it_dir: Path, traced: bool, deadline: float, env: dict) -> dict:
    base = it_dir / job.name
    meta_path = Path(f"{base}.meta.json")
    span_path = Path(f"{base}.spans.json") if traced else None
    cmd = [sys.executable, str(JOB), str(meta_path),
           str(span_path) if traced else "-", "--", *job.argv]
    with open(f"{base}.out", "wb") as out, open(f"{base}.err", "wb") as err:
        spawned = spans.now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(1.0, deadline - spawned), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ended = spans.now()

    rec = {
        "name": job.name,
        "argv": list(job.argv),
        "rc": proc.returncode,
        "elapsed_s": ended - spawned,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is KiB
        "problems": [],
        "payload": None,
    }
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        rec["setup_s"] = meta["imported"] - spawned
        rec["main_s"] = meta["main_end"] - meta["main_start"]
        rec["terncorr"] = meta["terncorr"]
    except (OSError, ValueError, KeyError):
        rec["problems"].append("job wrote no timings")
    if proc.returncode != 0:
        rec["problems"].append(f"exit code {proc.returncode}")
    else:
        try:
            rec["payload"] = json.loads(Path(f"{base}.out").read_text())["payload"]
        except (OSError, ValueError, KeyError):
            rec["problems"].append("stdout is not a run record")
    if traced and span_path.exists():
        rec["spans"] = json.loads(span_path.read_text(encoding="utf-8"))
    return rec


def run_iteration(workload, seed: int, it_dir: Path, traced: bool,
                  deadline: float, env: dict) -> dict:
    it_dir.mkdir(parents=True)
    jobs = workload.jobs(seed, it_dir)
    records, payloads = [], {}
    started = spans.now()
    for job in jobs:
        rec = run_job(job, it_dir, traced, deadline, env)
        if rec["payload"] is not None:
            try:
                rec["problems"] += job.check(rec["payload"], payloads)
            except Exception as exc:  # a malformed payload fails the job, not the run
                rec["problems"].append(f"output check could not read: {exc!r}")
            payloads[job.name] = rec["payload"]
        records.append(rec)
        if spans.now() > deadline:
            break
    wall = spans.now() - started

    it = {"traced": traced, "wall_s": wall, "jobs": records}
    if workload.scratch:
        scratch = it_dir / workload.scratch
        it["cache_bytes"] = dir_bytes(scratch) if scratch.exists() else 0
        shutil.rmtree(scratch, ignore_errors=True)
    it["failed"] = sum(1 for r in records if r["problems"]) + len(jobs) - len(records)
    it["attempted"] = len(jobs)
    it["setup_s"] = sum(r.get("setup_s", 0.0) for r in records)
    it["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
    counted = [(correlation_triples(r["payload"]), r["main_s"]) for r in records
               if r["payload"] is not None and "main_s" in r]
    counted = [(t, s) for t, s in counted if t > 0]
    it["triples_per_s"] = (
        sum(t for t, _ in counted) / sum(s for _, s in counted) if counted else 0.0
    )
    if traced:
        it["spans"] = []
        for rec in records:
            for s in rec.pop("spans", []):
                s["job"] = f"{it_dir.name}/{rec['name']}"
                it["spans"].append(s)
        spans.annotate(it["spans"])
        it["layers"] = spans.layer_metrics(it["spans"])
        for rec in records:
            own = [s for s in it["spans"] if s["job"].endswith("/" + rec["name"])]
            layer = spans.layer_metrics(own)
            rec["layers"] = {k: layer[k] for k in spans.PER_JOB}
    return it


def percentile_note(values: list[float]) -> str:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.6g}"
    return "no percentile (fewer than 20 samples)"


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    workload = WORKLOADS[name]
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    # Untimed warm-up: byte-compiles terncorr and warms the file cache, a
    # cost users pay once per installation, not once per command.
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import terncorr.harness"], env=env, timeout=120)

    start = spans.now()
    deadline = start + HARD_LIMIT_S
    iterations = []
    while True:
        modes = (False, True) if trace else (False,)
        for traced in modes:
            k = len(iterations)
            iterations.append(run_iteration(
                workload, seed, out_dir / f"it{k}{'t' if traced else ''}",
                traced, deadline, env))
        elapsed = spans.now() - start
        per_round = elapsed / (len(iterations) // len(modes))
        failed = iterations[-1]["failed"] > 0
        if failed or elapsed + per_round > min(seconds, HARD_LIMIT_S):
            break

    plain = [it for it in iterations if not it["traced"]]
    traced_its = [it for it in iterations if it["traced"]]
    e2e = {m: statistics.median(it[m] for it in plain) for m, _ in END_TO_END}
    layers = {}
    if traced_its:
        for m, _, _ in spans.PER_LAYER:
            if m != "trace.overhead_s":
                layers[m] = statistics.median(it["layers"][m] for it in traced_its)
        layers["trace.overhead_s"] = (
            statistics.median(it["wall_s"] for it in traced_its) - e2e["wall_s"]
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "iterations": iterations,
        "attempted": sum(it["attempted"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "end_to_end": e2e,
        "layers": layers,
    }


def report(result: dict) -> None:
    name = result["workload"]
    for it_no, it in enumerate(result["iterations"]):
        kind = "traced" if it["traced"] else "untraced"
        print(f"[{name}] iteration {it_no} ({kind}): wall {it['wall_s']:.3f} s"
              + (f", cache on disk {it['cache_bytes']} B" if "cache_bytes" in it else ""))
        for rec in it["jobs"]:
            status = "ok" if not rec["problems"] else "FAILED: " + "; ".join(rec["problems"])
            line = (f"  {rec['name']:<12} rc={rec['rc']} setup {rec.get('setup_s', 0):.3f} s"
                    f" main {rec.get('main_s', 0):.3f} s rss {rec['peak_rss_mb']:.1f} MB"
                    f"  {status}")
            print(line)
            if "layers" in rec:
                print("    " + " ".join(f"{k}={v:.6g}" for k, v in rec["layers"].items()))
    plain = [it for it in result["iterations"] if not it["traced"]]
    for metric, unit in END_TO_END:
        values = [it[metric] for it in plain]
        print(f"[{name}] {metric} = {result['end_to_end'][metric]:.6g} {unit}"
              f" (median of {len(values)}; {percentile_note(values)})")
    frac = result["failed"] / result["attempted"]
    print(f"[{name}] fail_frac = {frac:.6g} ({result['failed']} of "
          f"{result['attempted']} jobs)")
    units = {m: u for m, u, _ in spans.PER_LAYER}
    for metric, value in result["layers"].items():
        print(f"[{name}] {metric} = {value:.6g} {units[metric]}")


def write_outputs(result: dict, env_info: dict) -> None:
    out_dir = OUT / result["workload"]
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for it in result["iterations"]:
            for s in it.pop("spans", []):
                fh.write(json.dumps(s) + "\n")
    doc = dict(result, environment=env_info)
    (out_dir / "result.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/terncorr/harness.py").is_file():
        print("error: run from the root of a terncorr checkout "
              "(src/terncorr/harness.py not found)", file=sys.stderr)
        return 2

    env = child_env()
    env_info = environment()
    print("environment " + json.dumps(env_info, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        report(result)
        write_outputs(result, env_info)
        results.append(result)

    # With --workload all, metric names carry the workload as a prefix.
    units = {m: u for m, u, _ in spans.PER_LAYER} if args.trace else dict(END_TO_END)
    metrics = {}
    for r in results:
        chosen = r["layers"] if args.trace else r["end_to_end"]
        for m, v in chosen.items():
            key = f"{r['workload']}.{m}" if len(results) > 1 else m
            metrics[key] = {"value": v, "unit": units[m]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
