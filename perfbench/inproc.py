"""Run a job list in one process by calling ``compositae.cli.main(argv)``.

    python3 perfbench/inproc.py JOBS.json RESULTS.json [SPANS.jsonl]

With a spans path the public functions are wrapped with span recorders
first (see ``tracing.py``) and the spans are written there when the run
ends.  Each result holds the exit code, the in-process wall time of the
job and the SHA-256 of its stdout, for comparison with the subprocess run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter

import compositae.cli

import tracing


def main(jobs_path: str, results_path: str, spans_path: str | None = None) -> int:
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    recorder = tracing.Recorder()
    if spans_path:
        tracing.install(recorder)
    results = []
    for index, argv in enumerate(jobs):
        recorder.job = index
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = compositae.cli.main(argv)
        wall = perf_counter() - start
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        results.append({"code": code, "wall_s": wall, "stdout_sha256": digest})
    if spans_path:
        recorder.dump(spans_path)
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
