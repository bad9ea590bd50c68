"""Regenerate the golden ledgers the benchmark checks every result against.

    python3 perfbench/pin.py [--workload NAME] [--check-interp N]

For each workload this simulates every (predictor, trace, scenario) request
its plan can issue (``plan.UNIVERSES``) and stores a digest of the simulated
statistics in ``perfbench/golden/<workload>.json``:

* ``paper-tage`` and ``sweep-numpy`` see whole ``SimulationResult`` objects,
  so their digests cover branches, instructions, mispredictions,
  ``ium_overrides``, warm-up branches and the full access profile;
* ``service-mixed`` and ``fleet-drain`` see run payloads (``suite_payload``),
  so their digests cover branches, instructions, mispredictions and the
  per-trace MPPKI those payloads carry.

Predictor tables start empty for every trace (no warm-up), in the ledger as
in the benchmark.  The ledgers pin the program's current behaviour; they
are a regression oracle, not a validation: the repository holds no hardware
or CBP reference, so the model is unvalidated and no error figure is given.
Regenerate only for a change that is meant to alter simulated results, and
say why in the change description.

``--check-interp N`` re-simulates ``N`` ledger entries per workload on the
reference interpreter backend and reports any entry that differs.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import defaultdict

import plan
from common import (
    digest,
    load_ledger,
    payload_stats,
    result_stats,
    save_ledger,
    use_source_tree,
)

NOTE = (
    "Digests of simulated statistics for every request the workload's plan can "
    "issue; predictor tables start empty for each trace. Regression oracle only: "
    "no hardware or CBP reference exists, so the model is unvalidated."
)
PAYLOAD_WORKLOADS = ("service-mixed", "fleet-drain")


def simulate(workload: str, requests: list[dict], backend_override=None) -> dict[str, str]:
    from repro.api import Runner, RunnerConfig, RunRequest
    from repro.api.results import suite_payload

    by_batch: dict[tuple, list[dict]] = defaultdict(list)
    for req in requests:
        by_batch[(req["trace"], req["scenario"])].append(req)
    digests = {}
    for number, (_, batch) in enumerate(sorted(by_batch.items())):
        parsed = []
        for req in batch:
            entry = dict(req)
            if backend_override is not None:
                entry["backend"] = backend_override
            parsed.append(RunRequest.from_dict(entry))
        suites = Runner(RunnerConfig(workers=1)).run_batch(parsed)
        for req, run_request, suite in zip(batch, parsed, suites):
            if workload in PAYLOAD_WORKLOADS:
                value = digest(payload_stats(suite_payload(run_request, suite)))
            else:
                (result,) = suite.results
                value = digest(result_stats(result))
            digests[plan.ledger_key(req)] = value
        if number % 40 == 0:
            print(f"  {workload}: {len(digests)}/{len(requests)}", file=sys.stderr)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS, action="append")
    parser.add_argument("--check-interp", type=int, default=0, metavar="N")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("pin.py: run from the root of a repro checkout", file=sys.stderr)
        return 2
    use_source_tree()
    status = 0
    for workload in args.workload or plan.WORKLOADS:
        universe = plan.UNIVERSES[workload]()
        if args.check_interp:
            ledger = load_ledger(workload)
            sample = random.Random(0).sample(universe, min(args.check_interp, len(universe)))
            fresh = simulate(workload, sample, backend_override="interp")
            bad = [key for key, value in fresh.items() if ledger.get(key) != value]
            print(f"{workload}: {len(sample) - len(bad)}/{len(sample)} match on interp")
            for key in bad:
                print(f"  MISMATCH {key}")
            status |= bool(bad)
            continue
        path = save_ledger(workload, simulate(workload, universe), NOTE)
        print(f"{workload}: {len(universe)} entries -> {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
