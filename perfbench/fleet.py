"""The ``fleet-drain`` workload: one ``repro worker`` drains a FileBroker queue.

Each round publishes a tiny probe ticket and then
``plan.FLEET_JOBS_PER_ROUND`` one-request tickets to a fresh broker
directory through ``FileBroker.publish``, in the payload shape
``SimulationService._publish`` uses (requests, batch flag, trace id and the
span context the worker adopts), then starts
``repro worker --broker DIR --max-jobs N`` with an empty result-cache
directory and waits for it to exit.  The worker executes every ticket
through the pool child of its persistent ``Runner``, which it starts
during its first job.

Per round, set-up runs from spawning the worker to the completion of the
probe, which the worker leases first: like ``repro serve``'s set-up it
includes the start of the pool.  The drain window runs from there to the
last completion, and the intervals between consecutive completions are the
per-job latencies; completion times and spans come from what the broker
stores next to each job (``FileBroker.snapshot``).  Peak memory adds the
pool child's to the worker's.
"""

from __future__ import annotations

import sys
import time

import plan
from common import (
    BenchError,
    digest,
    kill_quietly,
    local_trace_costs,
    make_workdir,
    median,
    payload_stats,
    percentile,
    ratio,
    reap,
    remove_workdir,
    sim_counts,
    span_totals,
    spawn,
    use_source_tree,
    write_spans,
)

MIN_ROUNDS = 3
MAX_SECONDS = 120.0
ROUND_TIMEOUT = 90.0
#: The probe's id sorts before every ``job-*`` id, so within one
#: millisecond of publication the broker still delivers it first.
PROBE_ID = "a-probe"
PROBE = plan.request("always-taken", {}, "synthetic:biased?length=64&seed=7", "I")


def _round(workdir: str, tag: str, index: int, jobs: list[dict], seed: int, ledger) -> dict:
    from repro.distrib.fsbroker import FileBroker
    from repro.obs.spans import new_span_id

    root = f"{workdir}/{tag}-broker-{index}"
    broker = FileBroker(root)
    broker.publish(PROBE_ID, {"requests": [PROBE], "batch": False})
    publish = []
    ids = []
    for number, req in enumerate(jobs):
        job_id = f"job-{index}-{number}"
        trace_id = f"pb-{seed}-{tag}-{index}-{number}"
        span = {"trace_id": trace_id, "span_id": new_span_id(), "sampled": True}
        payload = {"requests": [req], "batch": False, "trace_id": trace_id, "span": span}
        start = time.perf_counter()
        broker.publish(job_id, payload)
        publish.append(time.perf_counter() - start)
        ids.append(job_id)

    argv = [sys.executable, "-m", "repro", "worker", "--broker", root]
    argv += ["--max-jobs", str(len(jobs) + 1), "--cache-dir", f"{root}-cache"]
    spawned = time.time()
    proc = spawn(argv, workdir, f"{tag}-worker-{index}.log")
    try:
        code, rss = reap(proc, ROUND_TIMEOUT, children=True)
    finally:
        kill_quietly(proc)
    if code != 0:
        raise BenchError(f"repro worker exited with {code} in round {index}")
    probe = broker.snapshot(PROBE_ID)
    if probe["state"] != "done" or not probe.get("finished"):
        raise BenchError(f"round {index}: the set-up probe ended {probe['state']!r}")
    ready = probe["finished"]

    records = []
    for job_id, req in zip(ids, jobs):
        snap = broker.snapshot(job_id)
        record = {
            "ok": False,
            "branches": 0,
            "attempts": snap.get("attempts") or 0,
            "finished": snap.get("finished"),
            "spans": snap.get("spans") or [],
            "kind": req["predictor"]["kind"],
            "scenario": req["scenario"],
            "trace": req["trace"],
        }
        if snap["state"] == "done" and snap.get("results"):
            payload = snap["results"][0]
            expected = ledger.get(plan.ledger_key(req))
            record["ok"] = expected is not None and digest(payload_stats(payload)) == expected
            record["branches"] = payload["branches"]
            record["mispredictions"] = payload["mispredictions"]
        records.append(record)

    finishes = sorted(record["finished"] for record in records if record["finished"])
    if not finishes:
        raise BenchError(f"round {index}: the worker completed no job")
    intervals = [b - a for a, b in zip([ready] + finishes[:-1], finishes)]
    return {
        "records": records,
        "setup": ready - spawned,
        "window": finishes[-1] - ready,
        "intervals": intervals,
        "publish": publish,
        "rss": rss,
    }


def _rounds(seed: int, ledger, workdir: str, seconds, count, tag: str) -> list[dict]:
    """Rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``), or ``count`` rounds."""
    use_source_tree()
    rounds: list[dict] = []
    source = plan.fleet_rounds(seed)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if count is not None and len(rounds) >= count:
            break
        if count is None and len(rounds) >= MIN_ROUNDS and elapsed >= min(seconds, MAX_SECONDS):
            break
        rounds.append(_round(workdir, tag, len(rounds), next(source), seed, ledger))
    return rounds


def _summary(rounds: list[dict]) -> dict:
    records = [record for one in rounds for record in one["records"]]
    window = sum(one["window"] for one in rounds)
    intervals = [value for one in rounds for value in one["intervals"]]
    done = [[record for record in one["records"] if record["ok"]] for one in rounds]
    # Throughput is a median over rounds: each round is one worker's life,
    # so a host slow-down during one round moves that round only.
    e2e = {
        "setup_s": median(one["setup"] for one in rounds),
        "branches_per_s": median(
            ratio(sum(r["branches"] for r in ok), one["window"]) for ok, one in zip(done, rounds)
        ),
        "req_per_s": median(ratio(len(ok), one["window"]) for ok, one in zip(done, rounds)),
        "latency_p50_ms": median(intervals) * 1000.0,
        "latency_p95_ms": percentile(intervals, 0.95) * 1000.0,
        "peak_rss_mb": median(one["rss"] for one in rounds),
    }
    return {"records": records, "e2e": e2e, "window": window, "intervals": intervals}


def run(seed: int, seconds: float, traced: bool, ledger: dict[str, str], size: int) -> dict:
    workdir = make_workdir("fleet-drain")
    try:
        if not traced:
            summary = _summary(_rounds(seed, ledger, workdir, seconds, None, "timed"))
            plain = None
        else:
            # The same rounds twice: once plain, once read back with their spans.
            plain = _summary(_rounds(seed, ledger, workdir, None, size, "plain"))
            rounds = _rounds(seed, ledger, workdir, None, size, "traced")
            summary = _summary(rounds)
    finally:
        remove_workdir(workdir)
    records = summary["records"] + (plain["records"] if plain else [])
    outcome = {
        "attempted": len(records),
        "failed": sum(1 for record in records if not record["ok"]),
    }
    if not traced:
        p95 = summary["e2e"]["latency_p95_ms"]
        beyond = sum(1 for value in summary["intervals"] if value * 1000.0 > p95)
        outcome["e2e"] = summary["e2e"]
        outcome["notes"] = {
            "latency_samples": len(summary["intervals"]),
            "samples_beyond_p95": beyond,
        }
        return outcome
    outcome["layers"] = _layers(rounds, summary)
    outcome["layers"]["trace_overhead_ratio"] = ratio(summary["window"], plain["window"])
    write_spans("fleet-drain", seed, [record["spans"] for record in summary["records"]])
    return outcome


def _layers(rounds: list[dict], summary: dict) -> dict:
    records = summary["records"]
    totals = span_totals(record["spans"] for record in records)
    jobs = max(1, len(records))

    def mean(name: str, key: str = "seconds") -> float:
        return totals.get(name, {}).get(key, 0.0) / jobs

    lookups = [
        span for record in records for span in record["spans"] if span["name"] == "cache.lookup"
    ]
    hits = sum(1 for span in lookups if span["attrs"].get("outcome") == "hit")
    executed_branches = sum(record["branches"] for record in records)
    publish = [value for one in rounds for value in one["publish"]]
    layers = {
        "broker.publish_ms": median(publish) * 1000.0,
        "worker.execute_ms": mean("worker.execute") * 1000.0,
        "fleet.overhead_ms": (ratio(summary["window"], jobs) - mean("worker.execute")) * 1000.0,
        "fleet.attempts_per_job": ratio(sum(record["attempts"] for record in records), jobs),
        "runner.plan_s": mean("runner.plan"),
        "runner.unattributed_s": mean("runner.batch", "self"),
        "engine.interp.us_per_branch": ratio(mean("pool.task") * jobs, executed_branches) * 1e6,
        "cache.hit_ratio": ratio(hits, len(lookups)),
        "latency_samples": len(summary["intervals"]),
    }
    layers.update(sim_counts(records))
    # One worker process per round: its Runner resolves each ref once per
    # round, and every job pickles its trace into the pool child.
    layers.update(local_trace_costs([[r["trace"] for r in one["records"]] for one in rounds]))
    return layers
