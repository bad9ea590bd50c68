"""Self-test of the benchmark harness (``perfbench/run.py``).

Tiny runs of every workload must print every metric ``BENCHMARK.json``
names, with its unit, and pass the golden-digest check; a deliberately
wrong ledger must fail every operation; and outside a checkout the
harness must refuse to run.  Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("paper-tage", "sweep-numpy", "service-mixed", "fleet-drain")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: Layer metrics each workload exercises, so a tiny traced run must read
#: them above 0: a renamed span or an unwrapped call would zero them.
EXERCISED = {
    "paper-tage": (
        "traces.resolve_s",
        "traces.decode_s",
        "engine.interp.us_per_branch",
        "engine.isl-tage.I.us_per_branch",
        "engine.isl-tage.C.us_per_branch",
        "engine.tage-lsc.I.us_per_branch",
        "engine.tage-lsc.C.us_per_branch",
        "backend.numpy.I.us_per_branch",
        "backend.numpy.C.us_per_branch",
        "backend.route_ratio",
        "payload.serialize_s",
        "runner.unattributed_s",
    ),
    "sweep-numpy": (
        "traces.resolve_s",
        "traces.decode_s",
        "backend.numpy.I.us_per_branch",
        "backend.numpy.C.us_per_branch",
        "backend.route_ratio",
        "payload.serialize_s",
        "runner.unattributed_s",
    ),
    "service-mixed": (
        "traces.resolve_s",
        "traces.pickle_s",
        "traces.pickle_bytes",
        "engine.interp.us_per_branch",
        "runner.plan_s",
        "pool.ipc_s",
        "http.submit.p50_ms",
        "http.get.p50_ms",
        "http.list.p50_ms",
        "service.queue_s",
        "service.dispatch_s",
        "service.dispatcher_utilization",
        "cache.hit_ratio",
    ),
    "fleet-drain": (
        "traces.resolve_s",
        "traces.pickle_s",
        "traces.pickle_bytes",
        "engine.interp.us_per_branch",
        "runner.plan_s",
        "broker.publish_ms",
        "worker.execute_ms",
        "fleet.attempts_per_job",
    ),
}


def bench(*args: str, cwd: str = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_shape(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {spec["name"]: spec["unit"] for spec in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_end_to_end_run_emits_every_metric(workload):
    code, result, output = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"
    )
    assert code == 0, output
    check_shape(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0, output
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert "fail_ratio" in output


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(workload):
    code, result, output = bench(
        "--workload", workload, "--seed", "3", "--trace", "1", "--size", "1"
    )
    assert code == 0, output
    check_shape(result, "per_layer")
    assert result["correct"], output
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["fail_ratio"] == 0
    assert metrics["trace_overhead_ratio"] > 0
    if workload in ("paper-tage", "sweep-numpy"):
        assert metrics["layers.coverage"] >= 0.9, metrics["layers.coverage"]
    unexercised = [name for name in EXERCISED[workload] if not metrics[name] > 0]
    assert not unexercised, output


def copy_benchmark(destination) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), destination / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        destination / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def test_wrong_pinned_digest_fails_every_operation(tmp_path):
    copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    golden = tmp_path / "perfbench" / "golden" / "sweep-numpy.json"
    with open(golden) as handle:
        ledger = json.load(handle)
    for entries in ledger["entries"].values():
        for key in entries:
            entries[key] = "0" * 16
    with open(golden, "w") as handle:
        json.dump(ledger, handle)
    code, result, output = bench("--workload", "sweep-numpy", "--seconds", "1", cwd=str(tmp_path))
    assert code == 1, output
    assert result is not None and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    (line,) = [line for line in output.splitlines() if line.split()[:1] == ["fail_ratio"]]
    assert float(line.split()[1]) == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    code, result, output = bench("--workload", "paper-tage", "--seconds", "1", cwd=str(tmp_path))
    assert code != 0
    assert result is None, output
