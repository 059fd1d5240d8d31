"""Run one terncorr CLI job in a fresh process and record its timings.

    python3 perfbench/job.py META SPANS -- <terncorr arguments>

Imports `terncorr.harness` from `src/` of the current directory, calls
`harness.main(arguments)` and writes META, a JSON object with the
monotonic stamps `imported`, `main_start` and `main_end`, the exit code and
the file terncorr was imported from.  With SPANS other than `-`, the layer
wrappers of `spans.py` are installed first and the spans are written to
SPANS once `main` returns; with `-` the wrappers are never imported.
The exit code is the one `main` returns.
"""

import json
import os
import sys
import time


def run(meta_path: str, span_path: str, argv: list) -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from terncorr import harness

    meta = {"imported": time.monotonic(), "terncorr": harness.__file__, "rc": 1}
    recorder = None
    if span_path != "-":
        import spans

        recorder = spans.Recorder()
        restore = spans.install(recorder)
        root = recorder.open("harness.main")
    meta["main_start"] = time.monotonic()
    try:
        meta["rc"] = harness.main(argv)
    finally:
        meta["main_end"] = time.monotonic()
        if recorder is not None:
            recorder.close(root)
            restore()
            recorder.dump(span_path)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
    return meta["rc"]


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: job.py META SPANS|- -- <terncorr arguments>")
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[4:]))
