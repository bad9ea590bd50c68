"""The repro benchmark: one command, four workloads, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-tage --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
benchmark tracing; ``--trace 1`` runs a fixed set of operations twice, plain
and traced, and reports the per-layer metrics instead.  Every simulated
statistic is checked against the golden ledger of the workload
(``perfbench/golden/<workload>.json``); an operation whose statistics differ,
or that raises, answers non-2xx, times out or does not end ``done``, counts
as failed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print the same metrics as a table, plus ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import plan
from common import (
    BenchError,
    access_count,
    digest,
    host_calibration_ms,
    kill_quietly,
    load_ledger,
    make_workdir,
    median,
    percentile,
    ratio,
    read_line,
    reap,
    remove_workdir,
    require_checkout,
    spawn,
    write_spans,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
#: Size of each half of a traced run: operations (in-process workloads),
#: blocks of 40 operations per client (service) or broker rounds (fleet).
TRACED_SIZE = {"paper-tage": 16, "sweep-numpy": 16, "service-mixed": 3, "fleet-drain": 4}
CHILD_TIMEOUT = 170.0


def _start_driver(workload: str, seed: int, workdir: str, mode: str, procs: list, **extra) -> float:
    """Spawn ``inproc.py``; return seconds from spawn until it printed READY."""
    argv = [sys.executable, os.path.join(HERE, "inproc.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--mode", mode]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    start = time.perf_counter()
    proc = spawn(argv, workdir, f"inproc-{mode}.log")
    procs.append(proc)
    line = read_line(proc, 60.0)
    if line != "READY":
        raise BenchError(f"driver printed {line!r} instead of READY")
    return time.perf_counter() - start


def run_inproc(
    workload: str, seed: int, seconds: float, traced: bool, ledger: dict[str, str], size: int
) -> dict:
    workdir = make_workdir(workload)
    procs: list = []
    try:
        setups = []
        for _ in range(1 if traced else SETUP_SAMPLES):
            setups.append(_start_driver(workload, seed, workdir, "setup", procs))
            reap(procs[-1], 60.0)
        # The first start may byte-compile the sources, which persists
        # between a user's runs: it is not part of set-up time.
        del setups[0]
        out = os.path.join(workdir, "report.json")
        mode = "traced" if traced else "timed"
        extra = {"seconds": seconds, "out": out, "ops": size}
        setups.append(_start_driver(workload, seed, workdir, mode, procs, **extra))
        code, rss = reap(procs[-1], CHILD_TIMEOUT)
        if code != 0:
            raise BenchError(f"{workload} driver exited with {code}")
        with open(out) as handle:
            report = json.load(handle)
    finally:
        for proc in procs:
            kill_quietly(proc)
        remove_workdir(workdir)

    ops = report["warmup"] + report["ops"] + report["replay"]
    failed = sum(1 for op in ops if not _op_ok(op, ledger))
    if traced:
        write_spans(workload, seed, report["spans"])
        return {"attempted": len(ops), "failed": failed, "layers": _inproc_layers(report)}
    walls = [op["wall"] for op in report["ops"]]
    branches = sum(
        stats["branches"]
        for op in report["ops"]
        for outcome in op["outcomes"]
        for stats in outcome["stats"]
    )
    e2e = {
        "setup_s": median(setups),
        "branches_per_s": ratio(branches, sum(walls)),
        "req_per_s": ratio(len(walls), sum(walls)),
        "latency_p50_ms": median(walls) * 1000.0,
        "latency_p95_ms": percentile(walls, 0.95) * 1000.0,
        "peak_rss_mb": rss,
    }
    beyond = sum(1 for wall in walls if wall * 1000.0 > e2e["latency_p95_ms"])
    notes = {"latency_samples": len(walls), "samples_beyond_p95": beyond}
    return {"attempted": len(ops), "failed": failed, "e2e": e2e, "notes": notes}


def _op_ok(op: dict, ledger: dict[str, str]) -> bool:
    for outcome in op["outcomes"]:
        expected = ledger.get(plan.ledger_key(outcome["request"]))
        stats = outcome["stats"]
        if expected is None or len(stats) != 1 or digest(stats[0]) != expected:
            return False
    return True


def _inproc_layers(report: dict) -> dict:
    summary = report["layers"]
    totals = summary["layers"]

    def total(name: str, key: str = "seconds") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def us_per_branch(names: list[str]) -> float:
        seconds = sum(total(name) for name in names)
        branches = sum(total(name, "branches") for name in names)
        return ratio(seconds, branches) * 1e6

    attributed = sum(
        entry["self"] for name, entry in totals.items() if name not in ("op", "runner.batch")
    )
    plain = sum(op["wall"] for op in report["ops"])
    layers = {
        "traces.resolve_s": total("traces.resolve"),
        "traces.decode_s": total("traces.decode"),
        "traces.branches": total("traces.resolve", "branches"),
        "predictor.build_s": total("predictor.build"),
        "predictor.builds": total("predictor.build", "count"),
        "backend.route_ratio": ratio(summary["kernel_tasks"], summary["offered"]),
        "result.merge_s": total("result.merge"),
        "payload.serialize_s": total("payload.serialize"),
        "runner.unattributed_s": total("runner.batch", "self"),
        "layers.coverage": ratio(attributed, total("op")),
        "trace_overhead_ratio": ratio(sum(op["wall"] for op in report["replay"]), plain),
        "latency_samples": len(report["replay"]),
    }
    engines = [name for name in totals if name.startswith("engine.") and name != "engine.stream"]
    layers["engine.interp.us_per_branch"] = us_per_branch(engines)
    for name in engines:
        layers[f"{name}.us_per_branch"] = us_per_branch([name])
    for scenario in plan.SCENARIOS:
        name = f"backend.numpy.{scenario}"
        layers[f"{name}.us_per_branch"] = us_per_branch([name])
    for op in report["replay"]:
        for outcome in op["outcomes"]:
            req = outcome["request"]
            kind, scenario = req["predictor"]["kind"], req["scenario"]
            for stats in outcome["stats"]:
                _add(layers, f"sim.{kind}.{scenario}.mispredictions", stats["mispredictions"])
                _add(layers, f"sim.{kind}.accesses", access_count(stats))
                if scenario == "C":
                    _add(layers, f"sim.{kind}.C.ium_overrides", stats["ium_overrides"])
    return layers


def _add(layers: dict, name: str, value: int) -> None:
    layers[name] = layers.get(name, 0) + value


def assemble(outcome: dict, traced: bool) -> dict:
    """The result object: every metric ``BENCHMARK.json`` names for the mode."""
    with open("BENCHMARK.json") as handle:
        specs = json.load(handle)["per_layer" if traced else "end_to_end"]
    values = outcome["layers" if traced else "e2e"]
    if traced:
        values["fail_ratio"] = ratio(outcome["failed"], outcome["attempted"])
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if traced:
            value = values.get(name, 0)  # zero: the workload never enters that layer
        elif name in values:
            value = values[name]
        else:
            raise BenchError(f"workload produced no value for {name!r}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    attempted = outcome["attempted"]
    failed = outcome["failed"]
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None, help="size of each half of a traced run")
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    size = args.size or TRACED_SIZE[args.workload]
    try:
        require_checkout()
        ledger = load_ledger(args.workload)
        calibration = [host_calibration_ms()]
        if args.workload in ("paper-tage", "sweep-numpy"):
            outcome = run_inproc(args.workload, args.seed, args.seconds, traced, ledger, size)
        elif args.workload == "service-mixed":
            import service

            outcome = service.run(args.seed, args.seconds, traced, ledger, size)
        else:
            import fleet

            outcome = fleet.run(args.seed, args.seconds, traced, ledger, size)
        calibration.append(host_calibration_ms())
        result = assemble(outcome, traced)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 2

    mode = "traced (per-layer)" if traced else "end-to-end"
    print(f"workload {args.workload}  seed {args.seed}  {mode}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    if not traced:
        fail_ratio = ratio(result["failed"], result["attempted"])
        print(f"  {'fail_ratio':<44} {fail_ratio:>16.6g} ratio")
    counts = f"{result['failed']} / {result['attempted']}"
    print(f"  {'operations failed / attempted':<44} {counts:>16} count")
    for name, value in outcome.get("notes", {}).items():
        print(f"  {name:<44} {value:>16} count")
    before, after = calibration
    print(f"  {'host_calibration_ms (before, after)':<44} {before:>8.2f} {after:>7.2f} ms")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
