"""Shared plumbing for the benchmark: processes, memory, statistics, ledgers.

The benchmark runs from the root of a checkout and touches nothing outside
it: scratch files live under ``.perfbench-work/`` and every child process
gets ``PYTHONPATH=src``, a cache home and temporary directory inside that
directory and no ``REPRO_*`` settings from the caller's environment.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench-work"
GOLDEN = os.path.join(HERE, "golden")
#: How often ``reap`` samples the peak memory of a child's children.
CHILD_SAMPLE_S = 0.05


class BenchError(RuntimeError):
    """A condition under which the benchmark cannot produce a result."""


def require_checkout() -> None:
    """Refuse to run anywhere but the root of a checkout holding ``src/repro``."""
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        raise BenchError(
            f"run from the root of a repro checkout: src/repro is missing in {os.getcwd()!r}"
        )
    if not os.path.isfile("BENCHMARK.json"):
        raise BenchError("BENCHMARK.json is missing from the working directory")


def use_source_tree() -> None:
    """Let this process import ``repro`` from the checkout."""
    source = os.path.abspath("src")
    if source not in sys.path:
        sys.path.insert(0, source)


def make_workdir(label: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=WORK)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def child_env(workdir: str) -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONUNBUFFERED"] = "1"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(workdir, "xdg-cache"))
    env["TMPDIR"] = os.path.abspath(workdir)
    return env


def spawn(argv: list[str], workdir: str, log_name: str) -> subprocess.Popen:
    """Start a child with stdout piped and stderr sent to a log file."""
    log = open(os.path.join(workdir, log_name), "ab")
    try:
        return subprocess.Popen(
            argv,
            env=child_env(workdir),
            stdout=subprocess.PIPE,
            stderr=log,
            stdin=subprocess.DEVNULL,
        )
    finally:
        log.close()


def reap(proc: subprocess.Popen, timeout: float, children: bool = False) -> tuple[int, float]:
    """Wait for ``proc``; return (exit code, its peak resident set in MB).

    The peak comes from ``wait4``'s ``ru_maxrss`` (kilobytes on Linux),
    which covers the whole life of the process, not just the moment of a
    sample.  ``ru_maxrss`` is the largest of the process and its reaped
    descendants, not their sum, so with ``children`` the ``VmHWM`` of each
    child, sampled while it lives, is added.  A child still running after
    ``timeout`` is killed.
    """
    deadline = time.monotonic() + timeout
    peaks: dict[int, float] = {}
    next_sample = 0.0
    while True:
        if children and time.monotonic() >= next_sample:
            for child in child_pids(proc.pid):
                peaks[child] = max(peaks.get(child, 0.0), vm_hwm_mb(child))
            next_sample = time.monotonic() + CHILD_SAMPLE_S
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.stdout is not None:
                proc.stdout.close()
            return proc.returncode, usage.ru_maxrss / 1024.0 + sum(peaks.values())
        if time.monotonic() > deadline:
            proc.kill()
            deadline = time.monotonic() + 10
        time.sleep(0.01)


def kill_quietly(proc: subprocess.Popen) -> None:
    """Last-resort cleanup: kill ``proc`` if it still runs, and wait for it."""
    if proc.returncode is not None:
        return
    try:
        proc.send_signal(signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        proc.wait(timeout=10)
    except (subprocess.TimeoutExpired, ChildProcessError):
        pass


def child_pids(pid: int) -> list[int]:
    pids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                pids.extend(int(text) for text in handle.read().split())
        except OSError:
            continue
    return pids


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of a child's stdout, or :class:`BenchError` on EOF/timeout."""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            raise BenchError(f"no output from {proc.args!r} within {timeout}s")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"{proc.args!r} exited before reporting")
    return line.decode("utf-8", "replace").strip()


def host_calibration_ms(samples: int = 7) -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    Printed beside each run's metrics (never folded into them) so that a
    reader can tell a slow host from a slow program.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value % 7
        times.append(time.perf_counter() - start)
    return median(times) * 1000.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Golden ledgers
# ---------------------------------------------------------------------------


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_stats(result) -> dict:
    """Every simulated statistic of one ``SimulationResult`` (exact counts)."""
    accesses = result.accesses
    return {
        "branches": result.branches,
        "instructions": result.instructions,
        "mispredictions": result.mispredictions,
        "ium_overrides": result.ium_overrides,
        "warmup_branches": result.warmup_branches,
        "accesses": {name: getattr(accesses, name) for name in sorted(vars(accesses))},
    }


def payload_stats(payload: dict) -> dict:
    """The simulated statistics one run payload (``suite_payload``) exposes."""
    return {
        "branches": payload["branches"],
        "instructions": payload["instructions"],
        "mispredictions": payload["mispredictions"],
        "per_trace": payload["per_trace"],
    }


def access_count(stats: dict) -> int:
    accesses = stats["accesses"]
    return accesses["fetch_reads"] + accesses["retire_reads"] + accesses["entry_writes"]


def ledger_path(workload: str) -> str:
    return os.path.join(GOLDEN, f"{workload}.json")


def load_ledger(workload: str) -> dict[str, str]:
    """Flatten ``{trace ref: {spec|scenario: digest}}`` into ``{key: digest}``."""
    with open(ledger_path(workload)) as handle:
        document = json.load(handle)
    return {
        f"{head}|{ref}|{scenario}": value
        for ref, entries in document["entries"].items()
        for tail, value in entries.items()
        for head, scenario in [tail.rsplit("|", 1)]
    }


def save_ledger(workload: str, digests: dict[str, str], note: str) -> str:
    grouped: dict[str, dict[str, str]] = {}
    for key, value in sorted(digests.items()):
        head, ref, scenario = key.split("|")
        grouped.setdefault(ref, {})[f"{head}|{scenario}"] = value
    path = ledger_path(workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        document = {"workload": workload, "note": note, "entries": grouped}
        json.dump(document, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# Span trees recorded by the benchmark
# ---------------------------------------------------------------------------


class Recorder:
    """In-memory span recorder: name, start, end and parent of each span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str, **attrs) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "duration": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": attrs,
            }
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span["duration"] = time.perf_counter() - span["start"]
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span['name']!r} closed out of order")

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i]["name"].startswith(prefix) for i in self._stack)


def self_times(
    spans: list[dict], parent_key: str = "parent", id_key: str | None = None
) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    if id_key is None:
        position = {index: index for index in range(len(spans))}
    else:
        position = {span[id_key]: index for index, span in enumerate(spans)}
    for span in spans:
        parent = span.get(parent_key)
        if parent is not None and parent in position:
            covered[position[parent]] += span["duration"]
    return [max(0.0, span["duration"] - covered[index]) for index, span in enumerate(spans)]


def span_totals(span_lists) -> dict[str, dict[str, float]]:
    """Total and self seconds per span name over the program's span trees."""
    totals: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        owns = self_times(spans, parent_key="parent_id", id_key="span_id")
        for span, own in zip(spans, owns):
            entry = totals.setdefault(span["name"], {"seconds": 0.0, "self": 0.0})
            entry["seconds"] += span["duration"]
            entry["self"] += own
    return totals


def write_spans(workload: str, seed: int, spans: list[dict]) -> str:
    """Write a traced run's spans out, once, at the end of the run."""
    directory = os.path.join(WORK, "spans")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(spans, handle)
    return path


def sim_counts(records) -> dict[str, int]:
    """Misprediction totals per kind and scenario over checked run records."""
    counts: dict[str, int] = {}
    for record in records:
        if record["ok"]:
            name = f"sim.{record['kind']}.{record['scenario']}.mispredictions"
            counts[name] = counts.get(name, 0) + record["mispredictions"]
    return counts


def local_trace_costs(lifetimes: list[list[str]]) -> dict:
    """Time resolving and pickling the traces the program resolves and ships.

    Each list in ``lifetimes`` holds the trace refs of the pool tasks one
    program process ran, in order.  The service and the worker export no
    span for trace resolution or for pickling a trace into the pool, so the
    benchmark times the same public calls (``resolve_trace_ref``, a pickle
    round trip of the ``Trace``) on the same inputs in its own process.  A
    persistent ``Runner`` resolves each ref once per lifetime, so a ref is
    resolved once per list; every task pickles its trace, so every
    occurrence is pickled.
    """
    use_source_tree()
    from repro.traces.refs import resolve_trace_ref

    resolve = pickled = 0.0
    branches = size = 0
    for refs in lifetimes:
        resolved: dict[str, list] = {}
        for ref in refs:
            if ref not in resolved:
                start = time.perf_counter()
                resolved[ref] = resolve_trace_ref(ref)
                resolve += time.perf_counter() - start
                branches += sum(len(trace) for trace in resolved[ref])
            for trace in resolved[ref]:
                start = time.perf_counter()
                blob = pickle.dumps(trace)
                pickle.loads(blob)
                pickled += time.perf_counter() - start
                size += len(blob)
    return {
        "traces.resolve_s": resolve,
        "traces.branches": branches,
        "traces.pickle_s": pickled,
        "traces.pickle_bytes": size,
    }
