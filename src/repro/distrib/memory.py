"""An in-process broker: the test rig and single-process composition.

The store is one dict per kind behind one lock.  Each primitive holds
the lock on its own — exactly the atomicity the file store gets from
single POSIX calls — so the shared :class:`~repro.distrib.broker.Broker`
protocol is as safe across front-end and worker *threads* here as it is
across processes on a :class:`~repro.distrib.fsbroker.FileBroker`.  It
cannot span processes.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.distrib.broker import STORE_KINDS, Broker

__all__ = ["MemoryBroker"]


class MemoryBroker(Broker):
    """Dicts + one lock; see :class:`~repro.distrib.broker.Broker`."""

    def __init__(self, **policy: Any) -> None:
        super().__init__(**policy)
        self._lock = threading.Lock()
        #: kind → name → (last write or move time, document).
        self._store: dict[str, dict[str, tuple[float, dict]]] = {
            kind: {} for kind in STORE_KINDS
        }

    def describe(self) -> str:
        return "memory"

    def _create(self, kind: str, name: str, document: dict) -> bool:
        with self._lock:
            if name in self._store[kind]:
                return False
            self._store[kind][name] = (self._now(), document)
            return True

    def _replace(self, kind: str, name: str, document: dict) -> None:
        with self._lock:
            self._store[kind][name] = (self._now(), document)

    def _get(self, kind: str, name: str) -> dict | None:
        with self._lock:
            entry = self._store[kind].get(name)
        # A copy, so a caller editing it before _replace races nobody.
        return None if entry is None else dict(entry[1])

    def _scan(self, kind: str) -> list[str]:
        with self._lock:
            return sorted(self._store[kind])

    def _move(self, kind: str, name: str, to_kind: str, to_name: str) -> bool:
        with self._lock:
            entry = self._store[kind].pop(name, None)
            if entry is None:
                return False
            self._store[to_kind][to_name] = (self._now(), entry[1])
            return True

    def _remove(self, kind: str, name: str) -> None:
        with self._lock:
            self._store[kind].pop(name, None)

    def _mtime(self, kind: str, name: str) -> float | None:
        with self._lock:
            entry = self._store[kind].get(name)
        return None if entry is None else entry[0]
