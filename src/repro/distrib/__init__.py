"""``repro.distrib`` — the multi-host scale-out subsystem.

The single-process service (:mod:`repro.service`) executes jobs on its
own runner; this package splits that across processes and hosts in the
coordinator/broker/worker shape:

* :mod:`repro.distrib.broker` — :class:`Broker`: published jobs, leases
  with visibility timeouts, heartbeats, retry-with-backoff, bounded
  attempts ending in a dead-letter state, first-write-wins completion,
  and a worker registry with capability tags — written once, over seven
  storage primitives a store supplies,
* :mod:`repro.distrib.fsbroker` — :class:`FileBroker`, the store as a
  shared directory usable across processes and hosts (no new
  dependencies),
* :mod:`repro.distrib.memory` — :class:`MemoryBroker`, the store as
  dicts behind a lock (tests and single-process composition),
* :mod:`repro.distrib.worker` — :class:`FleetWorker`, the ``repro
  worker`` loop: lease → execute → heartbeat → complete, with graceful
  drain.

Topology: N ``repro serve --broker DIR`` front ends publish jobs and
watch for their completion; M ``repro worker --broker DIR`` processes
execute them; one shared result store (``--store-dir``) keeps the
terminal documents.  ``connect_broker`` turns the shared ``--broker``
spec — a directory path — into a live :class:`FileBroker`.
"""

from __future__ import annotations

import re
from typing import Any

from repro.distrib.broker import (
    Broker,
    BrokerError,
    Lease,
    LeaseLostError,
    UnknownBrokerJobError,
)
from repro.distrib.fsbroker import FileBroker
from repro.distrib.memory import MemoryBroker
from repro.distrib.worker import FleetWorker, new_worker_id

__all__ = [
    "Broker",
    "BrokerError",
    "FileBroker",
    "FleetWorker",
    "Lease",
    "LeaseLostError",
    "MemoryBroker",
    "UnknownBrokerJobError",
    "connect_broker",
    "new_worker_id",
]

_URL_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://")


def connect_broker(spec: str, **policy: Any) -> FileBroker:
    """A live broker from a ``--broker`` / ``REPRO_BROKER`` spec.

    The spec is a directory path: the :class:`FileBroker` root, created
    on first use (share it between hosts to span machines).  A
    ``scheme://`` URL is rejected rather than taken for a relative
    directory.
    """
    if not spec or _URL_SCHEME.match(spec):
        raise ValueError(f"unsupported broker spec {spec!r}: give a directory "
                         "path (the shared FileBroker root)")
    return FileBroker(spec, **policy)
