"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``.

Each workload runs at a tiny size.  The tests check that the output
checks are live, that the trace records parse and account for the traced
time, that the exact counts repeat under one seed, that another seed
gives other argv lists, and that the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from checks import check_job  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

TINY = 5
EXACT = ("triangle.entries_built", "triangle.max_bits", "funceq.solve.useful_ratio")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def _result(*args: str) -> dict:
    done = _bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _corrupt(stdout: bytes) -> bytes:
    """Change the last digit of the output, or the sweep verdict."""
    text = stdout.decode()
    if "verified" in text:
        return text.replace("verified", "counterexample").encode()
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return (text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]).encode()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_sets_the_argv_lists(workload):
    assert make_jobs(workload, 7) == make_jobs(workload, 7)
    assert make_jobs(workload, 7) != make_jobs(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_pass_real_outputs_and_catch_corrupted_ones(workload):
    run.OUT.mkdir(exist_ok=True)
    for argv in make_jobs(workload, 3, max_order=TINY):
        result = run.run_job(argv)
        assert check_job(argv, result["code"], result["stdout"]) is None, argv
        assert check_job(argv, result["code"], _corrupt(result["stdout"])) is not None, argv
        assert check_job(argv, 1, result["stdout"]) is not None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_repeats_its_counts(workload):
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    args = ("--workload", workload, "--seed", "5", "--trace", "1", "--max-order", str(TINY))
    first, second = _result(*args), _result(*args)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = [{k: v["value"] for k, v in r["metrics"].items()} for r in (first, second)]
    for name in values[0]:
        if name.endswith(".calls") or name in EXACT:
            assert values[0][name] == values[1][name], name
    if workload.startswith("triangles"):
        assert values[0]["calculus.reciprocal.calls"] == 0
        assert values[0]["triangle.entries_built"] > 0
    else:
        assert values[0]["calculus.composita_compose.calls"] == 0
        assert values[0]["funceq.solve.useful_ratio"] > 0

    spans = tracing.read_spans(str(run.OUT / f"{workload}-seed5-trace1-spans.jsonl"))
    assert all({"name", "start", "end", "parent", "job"} <= set(s) for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)
    summary = tracing.summarize(spans)
    assert math.isclose(sum(summary["self_s"].values()), summary["root_s"], rel_tol=1e-9)
    assert summary["calls"]["cli.main"] == len(make_jobs(workload, 5))


def test_untraced_run_reports_the_end_to_end_metrics():
    spec = _spec()
    result = _result("--workload", "transforms", "--seconds", "0", "--max-order", "3")
    assert result["correct"] and result["attempted"] == len(make_jobs("transforms", 1))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_job_times_are_medians_over_passes_including_a_partial_last_one():
    def job(time_s):
        return {"time_s": time_s, "wall_s": 2 * time_s, "max_rss_mb": 10.0}

    passes = [[job(1.0), job(5.0)], [job(3.0), job(7.0)], [job(2.0)]]
    metrics, _ = run.end_to_end(passes, setup=[job(0.5), job(0.7), job(0.6)])
    assert metrics["list_s"] == 2.0 + 6.0
    assert metrics["job_p50_s"] == 4.0
    assert metrics["setup_s"] == 0.6


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transforms"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
