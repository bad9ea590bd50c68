"""The on-disk layout of a FileBroker root, pinned file by file.

Front ends and workers of different versions share one broker directory
during a rolling upgrade, so the relative file names and the JSON keys
of every record are a wire format.  This test drives one broker through
every state on a fake clock and asserts both exactly.
"""

from __future__ import annotations

import json
import os
import re

from repro.distrib import FileBroker


def _layout(root: str) -> dict[str, set]:
    """Relative path → JSON key set of every file under ``root``."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                found[os.path.relpath(path, root)] = set(json.load(handle))
    return found


def test_file_broker_layout_is_stable(tmp_path, fake_clock):
    clock = fake_clock
    root = str(tmp_path / "broker")
    broker = FileBroker(root, max_attempts=2, clock=clock)

    # job-a: lease → heartbeat → fail → lease → complete with spans.
    broker.publish("job-a", {"n": 1})
    assert broker.lease("w1").attempt == 1
    broker.heartbeat("job-a", "w1")
    broker.fail("job-a", "w1", "boom")
    clock.advance(1.0)
    assert broker.lease("w1").attempt == 2
    spans = [{"trace_id": "tr-1", "span_id": "s1", "name": "worker.execute"}]
    assert broker.complete("job-a", "w1", ["ok"], spans=spans) is True

    # job-b: cancelled before delivery.
    broker.publish("job-b", {})
    assert broker.cancel("job-b") is True

    # job-d: fails its whole attempt budget and dead-letters.
    broker.publish("job-d", {})
    for _ in range(2):
        clock.advance(1.0)
        lease = broker.lease("w1")
        assert lease.job_id == "job-d"
        broker.fail("job-d", "w1", "poison")

    # job-e: leased and still running; job-c: still pending.
    clock.advance(1.0)
    broker.publish("job-e", {})
    assert broker.lease("w2").job_id == "job-e"
    broker.publish("job-c", {})
    broker.register_worker("w1", {"backends": ["interp"]})

    layout = _layout(root)
    span_files = [path for path in layout if path.startswith("spans" + os.sep)]
    assert len(span_files) == 1
    assert re.fullmatch(rf"job-a\.{os.getpid()}\.\d+\.json",
                        os.path.basename(span_files[0]))
    assert layout.pop(span_files[0]) == {"spans"}

    job = {"id", "payload", "max_attempts", "created"}
    assert layout == {
        os.path.join("jobs", f"{name}.json"): job
        for name in ("job-a", "job-b", "job-c", "job-d", "job-e")
    } | {
        os.path.join("pending", "0000001004000-001-job-c.json"):
            {"id", "attempt", "not_before", "error"},
        os.path.join("leased", "job-e.json"):
            {"id", "attempt", "worker", "deadline"},
        os.path.join("done", "job-a.json"):
            {"results", "worker", "attempt", "finished"},
        os.path.join("dead", "job-d.json"): {"error", "attempts", "finished"},
        os.path.join("cancelled", "job-b.json"): {"finished"},
        os.path.join("workers", "w1.json"):
            {"id", "capabilities", "started", "heartbeat", "completed", "failed"},
    }
    assert sorted(os.listdir(root)) == sorted(
        ["jobs", "pending", "leased", "done", "dead", "cancelled", "workers",
         "spans", "tmp"])
    assert os.listdir(os.path.join(root, "tmp")) == []
