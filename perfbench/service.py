"""The ``service-mixed`` workload: ``repro serve`` under two closed-loop clients.

Each run starts ``repro serve`` children with a persistent 2-worker pool, a
single lane and an empty result-cache directory of their own.  Two client
threads, each on one keep-alive connection, replay the fixed seeded
operation lists of ``plan.service_sequences``: ``POST /v2/runs?wait=1``
small runs (about half repeat an earlier pair and hit the cache), plus
``GET /v2/runs/{id}`` and ``GET /v2/runs?limit=N`` reads.

Set-up is timed from spawning ``repro serve`` until its first run request
has completed, which includes the lazy start of the worker pool; that
probe request uses a predictor and trace the load never touches.  The
traced run reads only what the service already exports: ``GET /v2/stats``
before and after, and each request's span tree from ``GET /v2/traces/{id}``.
"""

from __future__ import annotations

import http.client
import json
import signal
import sys
import threading
import time

import plan
from common import (
    BenchError,
    child_pids,
    digest,
    kill_quietly,
    local_trace_costs,
    make_workdir,
    median,
    payload_stats,
    percentile,
    ratio,
    read_line,
    reap,
    remove_workdir,
    sim_counts,
    span_totals,
    spawn,
    vm_hwm_mb,
    write_spans,
)

SETUP_SAMPLES = 5
#: Operations per client, per unit of traced-run size, in each half of a
#: traced run.  The service keeps the span trees of its last 256 requests,
#: so at the default size both clients' submissions stay retrievable.
TRACED_OPS_PER_UNIT = 40
PROBE = {"predictor": "always-taken", "trace": "synthetic:biased?length=64&seed=7"}
SUBMIT = "/v2/runs?wait=1&timeout=60"
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


class Server:
    """One ``repro serve`` child; ``setup_s`` is spawn-to-first-run."""

    def __init__(self, workdir: str, index: int) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"]
        argv += ["--workers", "2", "--queue-size", "64", "--cache-dir", f"{workdir}/cache-{index}"]
        start = time.perf_counter()
        self.proc = spawn(argv, workdir, f"serve-{index}.log")
        try:
            banner = read_line(self.proc, READY_TIMEOUT)
            if "listening on http://" not in banner:
                raise BenchError(f"unexpected banner from repro serve: {banner!r}")
            address = banner.split("listening on http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            status, body = request(self.connect(), "POST", SUBMIT, json.dumps(PROBE))
            if status != 200 or json.loads(body).get("status") != "done":
                raise BenchError(f"set-up probe failed: HTTP {status} {body[:200]!r}")
        except BaseException:
            kill_quietly(self.proc)
            raise
        self.setup_s = time.perf_counter() - start

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)

    def get_json(self, path: str) -> dict:
        status, body = request(self.connect(), "GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)

    def stop(self) -> float:
        """SIGTERM (graceful drain); returns peak RSS of server + pool, in MB."""
        children = sum(vm_hwm_mb(pid) for pid in child_pids(self.proc.pid))
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        code, own = reap(self.proc, 60.0)
        if code != 0:
            raise BenchError(f"repro serve exited with {code}")
        return own + children


def request(conn, method: str, path: str, body: str | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection, closed afterwards."""
    headers = {"Content-Type": "application/json"} if body is not None else {}
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Client(threading.Thread):
    """One closed-loop client replaying its operation list on one connection."""

    def __init__(self, server: Server, ops: list[dict], ledger: dict, deadline, limit) -> None:
        super().__init__(daemon=True)
        self.server, self.ops, self.ledger = server, ops, ledger
        self.deadline, self.limit = deadline, limit
        self.records: list[dict] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # noqa: BLE001 - re-raised by the harness
            self.error = error

    def _loop(self) -> None:
        conn = self.server.connect()
        jobs: list[str | None] = []  # ids of this client's fresh submissions, in order
        for index, op in enumerate(self.ops):
            if self.limit is not None and index >= self.limit:
                break
            if self.deadline is not None and time.perf_counter() >= self.deadline:
                break
            if op["op"] == "submit":
                method, path, body = "POST", SUBMIT, json.dumps(op["request"])
                if not op["repeat"]:
                    jobs.append(None)
            elif op["op"] == "get":
                method, path, body = "GET", f"/v2/runs/{jobs[op['target']]}", None
            else:
                method, path, body = "GET", f"/v2/runs?limit={op['limit']}", None
            headers = {"Content-Type": "application/json"} if body else {}
            record = {"op": op["op"], "ok": False, "branches": 0}
            start = time.perf_counter()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as error:
                record["latency"] = time.perf_counter() - start
                record["error"] = type(error).__name__
                self.records.append(record)
                conn.close()
                conn = self.server.connect()
                continue
            record["latency"] = time.perf_counter() - start
            if 200 <= response.status < 300:
                document = json.loads(data)
                if op["op"] == "submit":
                    record.update(op, trace_id=response.getheader("X-Trace-Id"))
                    record.update(self._check_run(document, op["request"]))
                    if not op["repeat"]:
                        jobs[-1] = document.get("id")
                elif op["op"] == "get":
                    requests = document.get("requests") or [{}]
                    record.update(self._check_run(document, requests[0]), branches=0)
                else:
                    runs = document.get("runs")
                    record["ok"] = (
                        isinstance(runs, list)
                        and len(runs) <= op["limit"]
                        and document.get("count") == len(runs)
                        and all("status" in run for run in runs)
                    )
            if not record["ok"]:
                record["error"] = f"HTTP {response.status}" if response.status >= 300 else "check"
            self.records.append(record)
        conn.close()

    def _check_run(self, document: dict, req: dict) -> dict:
        if document.get("status") != "done" or not document.get("results") or not req:
            return {"ok": False}
        payload = document["results"][0]
        expected = self.ledger.get(plan.ledger_key(req))
        return {
            "ok": expected is not None and digest(payload_stats(payload)) == expected,
            "branches": payload["branches"],
            "mispredictions": payload["mispredictions"],
            "kind": req["predictor"]["kind"],
            "scenario": req["scenario"],
        }


def _drive(server: Server, sequences, ledger, seconds, limit) -> tuple[list[dict], float]:
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    clients = [Client(server, ops, ledger, deadline, limit) for ops in sequences]
    for client in clients:
        client.start()
    for client in clients:
        client.join(150.0)
        if client.is_alive():
            raise BenchError("a service client did not finish in time")
        if client.error is not None:
            raise client.error
    wall = time.perf_counter() - start
    return [record for client in clients for record in client.records], wall


def run(seed: int, seconds: float, traced: bool, ledger: dict[str, str], size: int) -> dict:
    sequences = plan.service_sequences(seed)
    workdir = make_workdir("service-mixed")
    servers: list[Server] = []
    try:
        if traced:
            per_client = TRACED_OPS_PER_UNIT * size
            return _traced(seed, sequences, ledger, workdir, servers, per_client)
        setups = []
        for index in range(SETUP_SAMPLES):
            servers.append(Server(workdir, index))
            setups.append(servers[-1].setup_s)
            servers[-1].stop()
        # The first start may byte-compile the sources, which persists
        # between a user's runs: it is not part of set-up time.
        del setups[0]
        servers.append(Server(workdir, SETUP_SAMPLES))
        setups.append(servers[-1].setup_s)
        records, wall = _drive(servers[-1], sequences, ledger, seconds, None)
        rss = servers[-1].stop()
    finally:
        for server in servers:
            kill_quietly(server.proc)
        remove_workdir(workdir)
    latencies = [record["latency"] for record in records]
    e2e = {
        "setup_s": median(setups),
        "branches_per_s": ratio(sum(r["branches"] for r in records if r["ok"]), wall),
        "req_per_s": ratio(sum(1 for record in records if record["ok"]), wall),
        "latency_p50_ms": median(latencies) * 1000.0,
        "latency_p95_ms": percentile(latencies, 0.95) * 1000.0,
        "peak_rss_mb": rss,
    }
    beyond = sum(1 for value in latencies if value * 1000.0 > e2e["latency_p95_ms"])
    notes = {"latency_samples": len(records), "samples_beyond_p95": beyond}
    for record in records:
        if not record["ok"]:
            name = f"failed {record['op']} ({record['error']})"
            notes[name] = notes.get(name, 0) + 1
    return {
        "attempted": len(records),
        "failed": sum(1 for record in records if not record["ok"]),
        "e2e": e2e,
        "notes": notes,
    }


def _stats_delta(before: dict, after: dict) -> dict:
    def busy(stats):
        return stats["dispatcher"]["utilization"] * stats["uptime_seconds"]

    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    misses = after["result_cache"]["misses"] - before["result_cache"]["misses"]
    tasks = after["pool"]["tasks_executed"] - before["pool"]["tasks_executed"]
    warm = after["pool"]["warm_hits"] - before["pool"]["warm_hits"]
    uptime = after["uptime_seconds"] - before["uptime_seconds"]
    return {
        "service.dispatcher_utilization": ratio(busy(after) - busy(before), uptime),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "pool.warm_hit_ratio": ratio(warm, tasks),
    }


def _traced(seed, sequences, ledger, workdir, servers, per_client: int) -> dict:
    """Same fixed operations twice, each on a fresh server: plain, then read back."""
    servers.append(Server(workdir, 0))
    records_plain, wall_plain = _drive(servers[-1], sequences, ledger, None, per_client)
    servers[-1].stop()

    server = Server(workdir, 1)
    servers.append(server)
    before = server.get_json("/v2/stats")
    records, wall = _drive(server, sequences, ledger, None, per_client)
    after = server.get_json("/v2/stats")
    submits = [record for record in records if record["op"] == "submit"]
    trees = []
    for record in submits:
        if record.get("trace_id"):
            try:
                trees.append((record, server.get_json(f"/v2/traces/{record['trace_id']}")))
            except BenchError:
                continue  # expired from the service's span store
    server.stop()

    layers = _stats_delta(before, after)
    layers.update(_span_layers(trees))
    # Only fresh submissions miss the result cache and ship a trace to the
    # pool; the server's one persistent Runner resolves each ref once.
    fresh = [record["request"]["trace"] for record in submits if not record.get("repeat")]
    layers.update(local_trace_costs([fresh]))
    for op in ("submit", "get", "list"):
        latencies = [record["latency"] for record in records if record["op"] == op]
        layers[f"http.{op}.p50_ms"] = median(latencies) * 1000.0
    layers["trace_overhead_ratio"] = ratio(wall, wall_plain)
    layers["latency_samples"] = len(records)
    layers.update(sim_counts(submits))
    write_spans("service-mixed", seed, [tree for _, tree in trees])
    everything = records_plain + records
    return {
        "attempted": len(everything),
        "failed": sum(1 for record in everything if not record["ok"]),
        "layers": layers,
    }


def _span_layers(trees: list[tuple[dict, dict]]) -> dict:
    totals = span_totals(tree["spans"] for _, tree in trees)
    http_gap = []
    pool_branches = 0
    for record, tree in trees:
        for span in tree["spans"]:
            if span["name"] == "service.request":
                http_gap.append(record["latency"] - span["duration"])
            elif span["name"] == "pool.task":
                pool_branches += record["branches"]
    count = max(1, len(trees))

    def mean(name: str, key: str = "seconds") -> float:
        return totals.get(name, {}).get(key, 0.0) / count

    return {
        "service.queue_s": mean("service.queue"),
        "service.dispatch_s": mean("service.dispatch"),
        "runner.plan_s": mean("runner.plan"),
        "runner.unattributed_s": mean("runner.batch", "self"),
        "pool.ipc_s": mean("sched.run", "self"),
        "engine.interp.us_per_branch": ratio(mean("pool.task") * count, pool_branches) * 1e6,
        "http.unattributed_ms": median(http_gap) * 1000.0,
    }
