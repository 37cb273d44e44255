"""The compositae benchmark: seeded CLI batch workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it runs ``src/compositae``
with ``PYTHONPATH=src`` and needs nothing installed.

A workload is a fixed list of ``python -m compositae ...`` jobs made from
the seed (``workloads.py``).  One client runs them in a closed loop, one
subprocess at a time, pass after pass, until ``--seconds`` have elapsed
(at least one pass).  Outputs are checked afterwards, outside the timed
section, by an independent route (``checks.py``).

``--trace 0`` reports the end-to-end metrics of that untraced run:

* ``list_s``: time to finish the whole job list once (the sum of the
  job times);
* ``job_p50_s``: median time of one job's subprocess;
* ``job_tail_s``: the highest percentile of job time with at least ten
  jobs of the list above it (the percentile and the job count are printed
  next to it);
* ``setup_s``: median start-to-exit time of the trivial job
  ``composita --fn geometric --n 1`` (interpreter, import and argparse);
* ``peak_rss_mb``: the largest max RSS of any job's process.

Times are in nominal seconds.  On a shared host the speed of a core
drifts by a quarter over minutes and jitters by a tenth from one second
to the next, so raw times of the same code do not repeat.  Each job
therefore runs right after a speed gauge on the same core: a fixed piece
of rational arithmetic in a fresh interpreter (``GAUGE_SRC``), none of it
the program's code.  A run's time is the CPU time of its process (user
plus system, from ``wait4``; the program is one thread that waits on
nothing, and CPU time leaves out the time the host gave the core to
another tenant), times GAUGE_NOMINAL_S over the gauge's CPU time.  A
job's time is the median of its runs over the passes.  The wall times
are kept as well: per job in the run record, and in the notes printed
next to the metrics.  Each job and its gauge run on the core that a
one-millisecond probe finds fastest just before (see ``quietest_cpu``).
A job fails on a nonzero exit, a timeout, an output that fails its
check, or an output that differs from the first pass.

``--trace 1`` makes one subprocess pass, then runs the same jobs in
process (``inproc.py``), alternately plain and with span recorders
wrapped around the public functions (``tracing.py``), INPROC_ROUNDS
times each.  It reports the per-layer metrics and checks that the
in-process stdout of every job is byte-identical to its subprocess stdout.  Both modes print every
metric they compute, with its unit, and write the run record (Python
version, core count, commit, and per job: argv, exit code, wall time,
CPU time, gauge time, nominal time and max RSS) to ``perfbench/out/``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import tracing
from workloads import DEFAULT_SEED, SETUP_JOB, WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PER_PASS = 3
JOB_TIMEOUT_S = 30
TAIL_ABOVE = 10
PROBE_LOOP = 6_000  # about a millisecond
PROBE_REPS = 3
INPROC_ROUNDS = 2
GAUGE_NOMINAL_S = 0.04  # the gauge's typical CPU time on a 2-vCPU Xeon VM

# The speed gauge: fixed rational arithmetic in a fresh interpreter, the
# same kind of work as a job and none of the program's code.  ``-S`` skips
# the site module, which halves its cost and tracks the job times as well.
GAUGE_SRC = """\
from fractions import Fraction
for _ in range(4):
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(1 if i % 2 else -1, i)
"""

END_TO_END = {
    "list_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    f"{name}.{part}": unit
    for name in tracing.SPAN_NAMES
    for part, unit in (("calls", "count"), ("self_s", "s"))
}
PER_LAYER.update({
    "triangle.entries_built": "count",
    "triangle.max_bits": "bits",
    "funceq.solve.useful_ratio": "ratio",
    "cli.process_s": "s",
    "trace.count_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
})


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_job(argv: list[str], cpu: int | None = None) -> dict:
    """One closed-loop job: start the CLI, read stdout, reap with wait4.
    With ``cpu`` given, the job's process is pinned to that core."""
    env = _env()
    with open(OUT / "stderr.txt", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "compositae", *argv],
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env,
        )
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "argv": argv,
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024,
        "stdout": stdout,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stderr": stderr[-500:],
    }


def gauge(cpu: int | None) -> float:
    """CPU time of GAUGE_SRC in a fresh interpreter, pinned to ``cpu``."""
    proc = subprocess.Popen([sys.executable, "-S", "-c", GAUGE_SRC], cwd=ROOT, env=_env())
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    _, status, usage = os.wait4(proc.pid, 0)
    if status != 0:
        raise RuntimeError(f"the gauge exited with status {status}")
    return usage.ru_utime + usage.ru_stime


def _spin() -> float:
    """Time a fixed millisecond of pure-Python work on the current core."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return perf_counter() - start


def quietest_cpu(cpus: list[int]) -> int | None:
    """The core of ``cpus`` that runs a short probe fastest right now.

    On a shared machine each core has slow spells of its own, lasting
    seconds, while a neighbour loads it.  Running each job on the core
    that is fastest at that moment keeps those spells out of the job times
    far better than any one fixed core would.
    """
    if len(cpus) < 2:
        return None
    speed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_spin() for _ in range(PROBE_REPS))
        os.sched_setaffinity(0, cpus)
    except OSError:  # affinity not settable here: let the scheduler place jobs
        return None
    return min(speed, key=speed.get)


def run_passes(jobs: list[list[str]], seconds: float) -> tuple[list[list[dict]], list[dict]]:
    """Closed loop over the job list, pass after pass, with SETUP_PER_PASS
    runs of the trivial job before each pass, until ``seconds`` have
    elapsed.  The first pass is always whole; the last may stop part way."""
    cpus = sorted(os.sched_getaffinity(0))

    def timed(argv):
        cpu = quietest_cpu(cpus)
        gauge_s = gauge(cpu)
        result = run_job(list(argv), cpu)
        result["gauge_s"] = gauge_s
        result["time_s"] = result["cpu_s"] * GAUGE_NOMINAL_S / gauge_s
        return result

    timed(SETUP_JOB)  # fills the bytecode and file caches
    passes: list[list[dict]] = []
    setup: list[dict] = []
    start = perf_counter()

    def running() -> bool:
        return not passes or perf_counter() - start < seconds

    while running():
        setup += [timed(SETUP_JOB) for _ in range(SETUP_PER_PASS)]
        results = []
        for argv in jobs:
            if not running():
                break
            results.append(timed(argv))
        if passes:  # later passes are compared with the first by digest
            for result in results:
                del result["stdout"]
        passes.append(results)
    return passes, setup


def check_passes(passes: list[list[dict]]) -> None:
    """Set ``failure`` on every job: None, or why the job failed."""
    from checks import check_job

    first = passes[0]
    for result in first:
        result["failure"] = check_job(result["argv"], result["code"], result.pop("stdout"))
    for later in passes[1:]:
        for result, ref in zip(later, first):
            if result["code"] != 0:
                result["failure"] = f"exit code {result['code']}"
            elif result["stdout_sha256"] != ref["stdout_sha256"]:
                result["failure"] = "stdout differs from the first pass"
            else:
                result["failure"] = None


def tail_rank(count: int) -> int:
    """Index in ascending order of the value with TAIL_ABOVE values above it."""
    return max(count - TAIL_ABOVE - 1, 0)


def end_to_end(passes: list[list[dict]], setup: list[dict]) -> tuple[dict, dict]:
    """Each job's time is its median ``time_s`` over the passes."""
    per_job = [[p[i] for p in passes if i < len(p)] for i in range(len(passes[0]))]
    times = sorted(statistics.median(r["time_s"] for r in job) for job in per_job)
    walls = sorted(statistics.median(r["wall_s"] for r in job) for job in per_job)
    rank = tail_rank(len(times))
    metrics = {
        "list_s": sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": times[rank],
        "setup_s": statistics.median(r["time_s"] for r in setup),
        "peak_rss_mb": max(r["max_rss_mb"] for p in passes for r in p),
    }
    notes = {
        "list_s": f"{sum(map(len, per_job))} job runs in {len(passes)} passes; "
                  f"wall {sum(walls):.4f} s",
        "job_p50_s": f"wall {statistics.median(walls):.4f} s",
        "job_tail_s": f"p{100 * (rank + 1) / len(times):.1f} of {len(times)} jobs; "
                      f"wall {walls[rank]:.4f} s",
        "setup_s": f"median of {len(setup)} runs; "
                   f"wall {statistics.median(r['wall_s'] for r in setup):.4f} s",
    }
    return metrics, notes


def _inproc(jobs_path: Path, tag: str, traced: bool) -> list[dict]:
    results_path = OUT / f"{tag}-inproc-{'traced' if traced else 'plain'}.json"
    argv = [sys.executable, str(HERE / "inproc.py"), str(jobs_path), str(results_path)]
    if traced:
        argv.append(str(OUT / f"{tag}-spans.jsonl"))
    subprocess.run(argv, cwd=ROOT, env=_env(), check=True, timeout=170)
    with open(results_path, encoding="utf-8") as handle:
        return json.load(handle)


def per_layer(jobs: list[list[str]], sub: list[dict], tag: str) -> tuple[dict, dict]:
    """Traced and untraced in-process runs of ``jobs``; ``sub`` is the
    checked subprocess pass, whose stdout the traced run must reproduce."""
    jobs_path = OUT / f"{tag}-jobs.json"
    with open(jobs_path, "w", encoding="utf-8") as handle:
        json.dump(jobs, handle)
    # Plain and traced runs alternate, and each job keeps its fastest time
    # of each kind, so that a slow spell of the machine does not pass for
    # tracing overhead.  The spans are those of the last traced run.
    rounds = [(_inproc(jobs_path, tag, False), _inproc(jobs_path, tag, True))
              for _ in range(INPROC_ROUNDS)]
    for i, result in enumerate(sub):
        runs = [run[i] for pair in rounds for run in pair]
        if result["failure"] is None and any(
            r["code"] != result["code"] or r["stdout_sha256"] != result["stdout_sha256"]
            for r in runs
        ):
            result["failure"] = "in-process stdout differs from the subprocess stdout"
    plain = [min(p[i]["wall_s"] for p, _ in rounds) for i in range(len(jobs))]
    plain_s = sum(plain)
    traced_s = sum(min(t[i]["wall_s"] for _, t in rounds) for i in range(len(jobs)))
    last_traced_s = sum(t["wall_s"] for t in rounds[-1][1])

    summary = tracing.summarize(tracing.read_spans(str(OUT / f"{tag}-spans.jsonl")))
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = summary["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = summary["self_s"].get(name, 0.0)
    failed = sum(r["failure"] is not None for r in sub)
    metrics.update({
        "triangle.entries_built": summary["entries_built"],
        "triangle.max_bits": summary["max_bits"],
        "funceq.solve.useful_ratio": summary["useful_ratio"],
        "cli.process_s": statistics.median(r["wall_s"] - p for r, p in zip(sub, plain)),
        "trace.count_s": summary["self_s"].get(tracing.COUNT_SPAN, 0.0),
        "trace.uncovered_s": last_traced_s - summary["root_s"],
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
        "failed_frac": failed / len(sub),
    })
    accounted = sum(summary["self_s"].values())
    notes = {
        "trace.uncovered_s": (
            f"span self times cover {accounted:.4f} s of {last_traced_s:.4f} s traced in-process wall"
        ),
        "trace.overhead_frac": f"traced {traced_s:.4f} s vs plain {plain_s:.4f} s in process",
    }
    return metrics, notes


RECORD_KEYS = ("argv", "code", "wall_s", "cpu_s", "gauge_s", "time_s", "max_rss_mb", "failure")


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_metrics(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {value:>14.6g} {units[name]}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compositae benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-order", type=int, help="cap every order (self-tests)")
    args = parser.parse_args(argv)

    if not (SRC / "compositae" / "cli.py").is_file():
        print(f"error: no compositae sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobs = make_jobs(args.workload, args.seed, args.max_order)

    passes, setup = run_passes(jobs, args.seconds if not args.trace else 0)
    check_passes(passes)
    e2e, e2e_notes = end_to_end(passes, setup)
    layers, layer_notes = per_layer(jobs, passes[0], tag) if args.trace else ({}, {})

    results = [r for p in passes for r in p]
    failed = [r for r in results if r["failure"] is not None]
    for r in failed:
        print(f"FAILED {' '.join(r['argv'])}: {r['failure']} {r['stderr'].strip()}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "end_to_end": e2e,
        "per_layer": layers,
        "notes": {**e2e_notes, **layer_notes},
        "jobs": [
            {"pass": i, **{k: r[k] for k in RECORD_KEYS}}
            for i, p in enumerate(passes) for r in p
        ],
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"# {args.workload} seed={args.seed}: {len(jobs)} jobs, {len(passes)} pass(es), "
          f"{len(failed)} failed; python {record['python']}, nproc {record['nproc']}, "
          f"commit {record['commit']}")
    print_metrics("end to end" + (" (one subprocess pass)" if args.trace else ""), e2e, END_TO_END, e2e_notes)
    reported, units = e2e, END_TO_END
    if args.trace:
        print_metrics("per layer", layers, PER_LAYER, layer_notes)
        reported, units = layers, PER_LAYER
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
