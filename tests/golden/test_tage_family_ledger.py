"""Golden ledger of the TAGE family: exact results, replayed on every route.

``tage_family.json`` (next to this file) pins the full
:class:`~repro.pipeline.metrics.SimulationResult` — mispredictions, the
whole access profile, ``ium_overrides`` and the window fields — of every
TAGE-family kind below, under scenarios [I], [A], [B] and [C], on one
hard and one easy 500-branch suite trace.  Each entry is replayed four
ways: as a whole run and as an exact 2-shard run (pickled predictor and
in-flight window handed between the shards), each on the ``interp`` and
the ``numpy`` backend.  All four must reproduce the pinned result.

The ledger is an absolute oracle for rewrites of the TAGE hot path
(folded histories, index/tag hashing, table storage, side predictors):
such a rewrite must leave it unchanged.  Regenerate it only for a change
meant to alter simulated results, and only with this script::

    PYTHONPATH=src python tests/golden/test_tage_family_ledger.py --update

The script refuses to write a ledger whose four routes disagree.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.api import Runner, RunnerConfig, RunRequest
from repro.predictors.registry import PredictorSpec
from repro.traces.sharding import ShardingPolicy

LEDGER = Path(__file__).with_name("tage_family.json")

#: (kind, config) of every pinned predictor.
SPECS = (
    ("tage", {}),
    ("l-tage", {}),
    ("isl-tage", {}),
    ("tage-lsc", {}),
    ("tage-lsc", {"fit_512kbits": True}),
    ("isl-tage", {"interleaved": True}),
    ("scaled-tage", {"log2_factor": -2}),
)
#: One high-misprediction trace (Section 2.2) and one easy one.
TRACES = ("suite:INT02?branches=500", "suite:CLIENT01?branches=500")
SCENARIOS = ("I", "A", "B", "C")
#: Every route an entry is replayed on: (backend, sharding policy or None).
ROUTES = (
    ("interp", None),
    ("numpy", None),
    ("interp", ShardingPolicy(shards=2, mode="exact")),
    ("numpy", ShardingPolicy(shards=2, mode="exact")),
)


def spec_key(kind: str, config: dict) -> str:
    return f"{kind}{json.dumps(config, sort_keys=True, separators=(',', ':'))}"


def entry_key(kind: str, config: dict, trace: str, scenario: str) -> str:
    return f"{spec_key(kind, config)}|{trace}|{scenario}"


def result_document(result) -> dict:
    """The JSON form of one SimulationResult (every field)."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def replay(kind: str, config: dict) -> dict[str, list[dict]]:
    """Every entry of one spec on every route: ``{key: [document per route]}``."""
    requests = [
        RunRequest(
            PredictorSpec(kind, dict(config)),
            trace,
            scenario=scenario,
            sharding=sharding,
            backend=backend,
        )
        for trace in TRACES
        for scenario in SCENARIOS
        for backend, sharding in ROUTES
    ]
    suites = Runner(RunnerConfig(workers=1, auto_shard_branches=None)).run_batch(requests)
    documents: dict[str, list[dict]] = {}
    for request, suite in zip(requests, suites):
        (result,) = suite.results
        key = entry_key(kind, config, request.trace, request.scenario.value)
        documents.setdefault(key, []).append(result_document(result))
    return documents


@pytest.fixture(scope="module")
def ledger() -> dict:
    return json.loads(LEDGER.read_text())["entries"]


@pytest.mark.parametrize("kind, config", SPECS, ids=[spec_key(k, c) for k, c in SPECS])
def test_every_route_reproduces_the_ledger(ledger, kind, config):
    for key, documents in replay(kind, config).items():
        for (backend, sharding), document in zip(ROUTES, documents):
            route = f"{backend}/{'exact-2' if sharding else 'whole'}"
            assert document == ledger[key], f"{key} on {route}"


def test_ledger_covers_every_entry(ledger):
    expected = {
        entry_key(kind, config, trace, scenario)
        for kind, config in SPECS
        for trace in TRACES
        for scenario in SCENARIOS
    }
    assert set(ledger) == expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite tage_family.json")
    args = parser.parse_args()
    entries = {}
    for kind, config in SPECS:
        for key, documents in replay(kind, config).items():
            if any(document != documents[0] for document in documents):
                print(f"routes disagree on {key}; ledger not written", file=sys.stderr)
                return 1
            entries[key] = documents[0]
    if not args.update:
        old = json.loads(LEDGER.read_text())["entries"]
        changed = sorted(key for key in entries if old.get(key) != entries[key])
        print(f"{len(changed)} of {len(entries)} entries differ from the ledger")
        for key in changed:
            print(f"  {key}")
        return 1 if changed else 0
    document = {
        "note": (
            "Full SimulationResult of each TAGE-family entry; every route "
            "(interp/numpy, whole/exact 2-shard) must reproduce it. Regenerate "
            "with: PYTHONPATH=src python tests/golden/test_tage_family_ledger.py --update"
        ),
        "entries": entries,
    }
    LEDGER.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} entries -> {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
