"""Driver process for the in-process workloads (``paper-tage``, ``sweep-numpy``).

Run by ``run.py`` in a fresh interpreter, so set-up time and peak memory
are the driver's own.  It imports the run API and builds a runner, prints
``READY`` (the parent times spawn-to-ready as set-up), then executes
operations.  One operation is what a ``repro suite``-style caller does:
parse the run requests, build a ``Runner`` (one worker, no result cache),
call ``Runner.run_batch`` and serialise every result with
``suite_payload`` to JSON.

Modes:

* ``--mode setup``: exit right after ``READY``;
* ``--mode timed``: run operations until ``--seconds`` have passed;
* ``--mode traced``: run ``--ops`` operations untraced, then the same
  operations again with the benchmark's span recorder wrapped around the
  calls into each layer (``repro.traces``, ``repro.predictors``,
  ``repro.pipeline.engine``, ``repro.backends``, ``repro.api``).

The report (per-operation timings, per-result statistics, layer spans) is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import plan
from common import Recorder, result_stats, self_times

#: Hard stop for timed mode, far below the harness's per-run limit.
MAX_SECONDS = 120.0
OPERATIONS = {"paper-tage": plan.paper_tage_ops, "sweep-numpy": plan.sweep_ops}


class Layers:
    """Wraps the public calls of each layer in recorder spans."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.offered = 0
        self.kernel_tasks = 0
        self._undo: list[tuple] = []

    def _wrap(self, owner, attr: str, name_of, branches_of=None) -> None:
        """Replace ``owner.attr`` with a version that records one span per call.

        ``name_of`` names the span from the call's arguments; ``branches_of``,
        if given, counts the simulated branches from the call's result.
        Methods are looked up on the class, so ``name_of`` sees ``self``.
        """
        original = getattr(owner, attr)
        recorder = self.recorder

        def traced(*args, **kwargs):
            index = recorder.begin(name_of(*args))
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(index)
            if branches_of is not None:
                recorder.spans[index]["attrs"]["branches"] = branches_of(result)
            return result

        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import repro.api.runner as runner_module
        from repro.backends.vector import NumpyBackend
        from repro.pipeline.engine import SimulationEngine
        from repro.pipeline.metrics import SimulationResult
        from repro.predictors.registry import PredictorSpec
        from repro.traces.trace import Trace

        recorder = self.recorder

        def engine_name(engine, trace) -> str:
            if recorder.inside("backend."):
                return "engine.stream"  # the TAGE stream path inside the numpy backend
            spec = getattr(engine.predictor, "spec", None)
            kind = spec.kind if spec is not None else type(engine.predictor).__name__
            return f"engine.{kind}.{engine.scenario.value}"

        def kernel_branches(results) -> int:
            self.kernel_tasks += len(results)
            return sum(result.branches for result in results)

        def backend_name(backend, tasks, scenario, config) -> str:
            return f"backend.numpy.{scenario.value}"

        self._wrap(
            runner_module,
            "resolve_trace_ref",
            lambda ref: "traces.resolve",
            lambda traces: sum(len(trace) for trace in traces),
        )
        self._wrap(Trace, "arrays", lambda trace: "traces.decode")
        self._wrap(PredictorSpec, "build", lambda spec: "predictor.build")
        self._wrap(SimulationEngine, "run", engine_name, lambda result: result.branches)
        self._wrap(NumpyBackend, "run_tasks", backend_name, kernel_branches)
        # A classmethod: looked up on the class it is already bound, and
        # callers reach it through the class.
        self._wrap(SimulationResult, "merge", lambda parts: "result.merge")
        self._wrap(runner_module.Runner, "run_batch", lambda runner, requests: "runner.batch")

        scheduled = runner_module.run_scheduled

        def counting_scheduled(tasks, *args, backend=None, **kwargs):
            choices = backend if isinstance(backend, (list, tuple)) else [backend] * len(tasks)
            self.offered += sum(1 for choice in choices if choice == "numpy")
            return scheduled(tasks, *args, backend=backend, **kwargs)

        self._undo.append((runner_module, "run_scheduled", scheduled))
        runner_module.run_scheduled = counting_scheduled

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        spans = self.recorder.spans
        totals: dict[str, dict] = {}
        for span, own in zip(spans, self_times(spans)):
            entry = totals.setdefault(
                span["name"], {"seconds": 0.0, "self": 0.0, "count": 0, "branches": 0}
            )
            entry["seconds"] += span["duration"]
            entry["self"] += own
            entry["count"] += 1
            entry["branches"] += span["attrs"].get("branches", 0)
        return {"layers": totals, "offered": self.offered, "kernel_tasks": self.kernel_tasks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    from repro.api import Runner, RunnerConfig, RunRequest
    from repro.api.results import suite_payload

    Runner(RunnerConfig(workers=1))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    def execute(op: dict, layers: Layers | None) -> dict:
        recorder = layers.recorder if layers is not None else None
        root = recorder.begin("op") if recorder else None
        start = time.perf_counter()
        requests = [RunRequest.from_dict(entry) for entry in op["requests"]]
        suites = Runner(RunnerConfig(workers=1)).run_batch(requests)
        serialize = recorder.begin("payload.serialize") if recorder else None
        json.dumps([suite_payload(req, suite) for req, suite in zip(requests, suites)])
        if recorder:
            recorder.end(serialize)
        wall = time.perf_counter() - start
        if recorder:
            recorder.end(root)
        outcomes = [
            {"request": entry, "stats": [result_stats(result) for result in suite.results]}
            for entry, suite in zip(op["requests"], suites)
        ]
        return {"wall": wall, "outcomes": outcomes}

    report: dict = {"warmup": [], "ops": [], "replay": []}
    source = OPERATIONS[args.workload](args.seed)
    start = time.perf_counter()
    if args.mode == "timed":
        while time.perf_counter() - start < min(args.seconds, MAX_SECONDS):
            report["ops"].append(execute(next(source), None))
    else:
        ops = [next(source) for _ in range(args.ops)]
        # An untimed first operation builds the predictors the process keeps
        # for reuse, so the plain and traced passes that trace_overhead_ratio
        # compares both run warm.
        report["warmup"].append(execute(ops[0], None))
        report["ops"] = [execute(op, None) for op in ops]
        layers = Layers()
        layers.install()
        try:
            report["replay"] = [execute(op, layers) for op in ops]
        finally:
            layers.uninstall()
        report["layers"] = layers.summary()
        report["spans"] = layers.recorder.spans
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
