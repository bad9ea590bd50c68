"""Seeded operation sequences for the four benchmark workloads.

Everything here is pure data derived from ``--seed``: the same seed always
yields the same operations in the same order.  Operations draw their traces
from a finite *universe* — the 40 CBP-like suite traces generated with the
suite's default trace seed (2011) and with a held-out trace seed (4242) —
so that every simulated statistic a run can produce is pinned in the
golden ledgers under ``perfbench/golden/`` (see ``pin.py``).  The
benchmark seed picks which traces, predictors and sizes each operation
uses, and in which order.

Nothing here imports ``repro``: the plan is the benchmark's definition and
must not move when the program under test changes.
"""

from __future__ import annotations

import json
import random

CATEGORIES = ("CLIENT", "INT", "MM", "SERVER", "WS")
NAMES = tuple(f"{cat}{i:02d}" for cat in CATEGORIES for i in range(1, 9))
#: The paper's seven "high misprediction rate" traces (Section 2.2).
HARD = ("CLIENT02", "INT01", "INT02", "MM05", "MM07", "WS03", "WS04")
EASY = tuple(name for name in NAMES if name not in HARD)
#: Trace-generation seeds: the suite default, and one held out from tuning.
TRACE_SEEDS = (2011, 4242)
SCENARIOS = ("I", "C")

WORKLOADS = ("paper-tage", "sweep-numpy", "service-mixed", "fleet-drain")


def trace_ref(name: str, seed: int, branches: int) -> str:
    return f"suite:{name}?branches={branches}&seed={seed}"


def spec_key(kind: str, config: dict) -> str:
    return f"{kind}{json.dumps(config, sort_keys=True, separators=(',', ':'))}"


def request(kind: str, config: dict, ref: str, scenario: str, backend=None) -> dict:
    """A ``RunRequest.to_dict()``-shaped payload."""
    payload = {
        "version": 1,
        "predictor": {"kind": kind, "config": dict(config)},
        "trace": ref,
        "scenario": scenario,
        "pipeline": {"retire_delay": 24, "execute_delay": 6, "misprediction_penalty": 20},
    }
    if backend is not None:
        payload["backend"] = backend
    return payload


def ledger_key(req: dict) -> str:
    """The golden-ledger key of one single-trace request."""
    predictor = req["predictor"]
    return f"{spec_key(predictor['kind'], predictor['config'])}|{req['trace']}|{req['scenario']}"


def _universe(specs, seeds, branches: int, backend=None) -> list[dict]:
    """Every (spec, scenario) request on every suite trace generated with ``seeds``."""
    return [
        request(kind, config, trace_ref(name, seed, branches), scenario, backend)
        for name in NAMES
        for seed in seeds
        for kind, config in specs
        for scenario in SCENARIOS
    ]


# ---------------------------------------------------------------------------
# In-process workloads: one operation is one Runner.run_batch over one suite
# trace, alternately a hard and an easy one.  Every operation then does the
# same work at about the same cost, so per-operation latency has one mode and
# its median does not jump between a cheap and a dear kind of operation.
# ---------------------------------------------------------------------------


def _deal(rng: random.Random, items: tuple):
    """Endless draws that exhaust a fresh shuffle of ``items`` before repeating.

    Dealing rather than sampling with replacement spreads a run's draws
    evenly over the items, so the cost of a run varies little with the seed.
    """
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def _traces(rng: random.Random, branches: int):
    """Endless trace refs, alternately a hard and an easy suite trace."""
    hard, easy, seeds = _deal(rng, HARD), _deal(rng, EASY), _deal(rng, TRACE_SEEDS)
    while True:
        yield trace_ref(next(hard), next(seeds), branches)
        yield trace_ref(next(easy), next(seeds), branches)


def _operations(rng: random.Random, specs, branches: int):
    for ref in _traces(rng, branches):
        yield {
            "requests": [
                request(kind, config, ref, scenario, backend="numpy")
                for kind, config in specs
                for scenario in SCENARIOS
            ]
        }


TAGE_BRANCHES = 1000
TAGE_SPECS = tuple((kind, {}) for kind in ("tage", "isl-tage", "tage-lsc"))

SWEEP_BRANCHES = 2000
#: Figure 9-style size points of each family.
SWEEP_SPECS = tuple(
    [("gshare", {"log2_entries": n}) for n in (10, 12, 14, 16, 18)]
    + [("bimodal", {"entries": n}) for n in (1024, 4096, 16384, 65536)]
    + [("perceptron", {"log2_rows": n}) for n in (6, 7, 8, 9)]
    + [("gehl", {"log2_entries": n}) for n in (9, 10, 11, 12)]
)


def paper_tage_ops(seed: int):
    """Endless operations: the three TAGE-family predictors x [I], [C] on one trace."""
    return _operations(random.Random(f"paper-tage:{seed}"), TAGE_SPECS, TAGE_BRANCHES)


def sweep_ops(seed: int):
    """Endless operations: every family at every size x [I], [C] on one trace."""
    return _operations(random.Random(f"sweep-numpy:{seed}"), SWEEP_SPECS, SWEEP_BRANCHES)


# ---------------------------------------------------------------------------
# service-mixed: small runs plus reads from two closed-loop HTTP clients.
# ---------------------------------------------------------------------------

SERVICE_BRANCHES = 500
#: (kind, config, weight): cheap predictors plus a few short TAGE runs.
SERVICE_SPECS = (
    ("gshare", {"log2_entries": 14}, 3),
    ("bimodal", {"entries": 4096}, 3),
    ("gehl", {"num_tables": 8, "log2_entries": 10, "max_history": 200}, 3),
    ("tage", {}, 1),
)
#: More trace seeds than the other workloads: a run submits hundreds of
#: fresh pairs per client, and the pool of fresh pairs must outlast it.
SERVICE_TRACE_SEEDS = TRACE_SEEDS + tuple(range(101, 111))
SERVICE_CLIENTS = 2
#: Operation mix: POST ?wait=1 runs, GET /v2/runs/{id}, GET /v2/runs?limit=.
SERVICE_MIX = (("submit", 0.7), ("get", 0.15), ("list", 0.15))
SERVICE_REPEAT = 0.5
#: Reads fetch one of the client's most recent fresh runs: the service keeps
#: only its newest 4096 job documents, and a fast run submits more than that.
SERVICE_RECENT_READS = 256
SERVICE_OPS_PER_CLIENT = 6000


def service_sequences(seed: int) -> list[list[dict]]:
    """One fixed operation list per client.

    About half the submissions repeat a (spec, trace) pair the same client
    completed earlier, so they hit the result cache; the rest are fresh
    pairs, disjoint between clients, so they miss it.  Once a client's
    share of fresh pairs runs out it only repeats.
    """
    rng = random.Random(f"service-mixed:{seed}")
    keys = [spec_key(kind, config) for kind, config, _ in SERVICE_SPECS]
    weights = dict(zip(keys, (weight for _, _, weight in SERVICE_SPECS)))
    pools = {}
    for key, (kind, config, _) in zip(keys, SERVICE_SPECS):
        pairs = _universe([(kind, config)], SERVICE_TRACE_SEEDS, SERVICE_BRANCHES)
        rng.shuffle(pairs)
        pools[key] = [pairs[client::SERVICE_CLIENTS] for client in range(SERVICE_CLIENTS)]
    submit_share, get_share = SERVICE_MIX[0][1], SERVICE_MIX[1][1]
    sequences = []
    for client in range(SERVICE_CLIENTS):
        fresh = {key: list(pools[key][client]) for key in keys}
        done: list[dict] = []
        ops: list[dict] = []
        for _ in range(SERVICE_OPS_PER_CLIENT):
            draw = rng.random()
            if done and submit_share <= draw < submit_share + get_share:
                oldest = max(0, len(done) - SERVICE_RECENT_READS)
                ops.append({"op": "get", "target": rng.randrange(oldest, len(done))})
                continue
            if done and draw >= submit_share + get_share:
                ops.append({"op": "list", "limit": rng.choice((10, 20, 50))})
                continue
            available = [key for key in keys if fresh[key]]
            if done and (rng.random() < SERVICE_REPEAT or not available):
                ops.append({"op": "submit", "request": rng.choice(done), "repeat": True})
                continue
            key = rng.choices(available, [weights[key] for key in available])[0]
            done.append(fresh[key].pop())
            ops.append({"op": "submit", "request": done[-1], "repeat": False})
        sequences.append(ops)
    return sequences


# ---------------------------------------------------------------------------
# fleet-drain: batches of small tickets drained by one FileBroker worker.
# ---------------------------------------------------------------------------

FLEET_BRANCHES = 2000
FLEET_SPECS = (
    ("gshare", {"log2_entries": 14}),
    ("bimodal", {"entries": 4096}),
    ("gehl", {"num_tables": 8, "log2_entries": 10, "max_history": 200}),
)
FLEET_JOBS_PER_ROUND = 24


def fleet_rounds(seed: int):
    """Endless rounds of ``FLEET_JOBS_PER_ROUND`` one-request tickets.

    Every round holds each (spec, scenario) pair equally often, on seeded
    traces, so rounds do the same amount of work whatever the seed.
    """
    rng = random.Random(f"fleet-drain:{seed}")
    kinds = [(kind, config, scenario) for kind, config in FLEET_SPECS for scenario in SCENARIOS]
    traces = [(name, tseed) for name in NAMES for tseed in TRACE_SEEDS]
    per_kind = FLEET_JOBS_PER_ROUND // len(kinds)
    while True:
        # Sampled without replacement: no ticket of a round repeats another,
        # so the worker's result cache never answers within a round.
        jobs = [
            request(kind, config, trace_ref(name, tseed, FLEET_BRANCHES), scenario)
            for kind, config, scenario in kinds
            for name, tseed in rng.sample(traces, per_kind)
        ]
        rng.shuffle(jobs)
        yield jobs


#: Every request each workload can issue, for the golden ledgers.
UNIVERSES = {
    "paper-tage": lambda: _universe(TAGE_SPECS, TRACE_SEEDS, TAGE_BRANCHES, "numpy"),
    "sweep-numpy": lambda: _universe(SWEEP_SPECS, TRACE_SEEDS, SWEEP_BRANCHES, "numpy"),
    "service-mixed": lambda: _universe(
        [(kind, config) for kind, config, _ in SERVICE_SPECS],
        SERVICE_TRACE_SEEDS,
        SERVICE_BRANCHES,
    ),
    "fleet-drain": lambda: _universe(FLEET_SPECS, TRACE_SEEDS, FLEET_BRANCHES),
}
