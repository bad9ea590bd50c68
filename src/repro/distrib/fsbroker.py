"""A filesystem broker: one shared directory, many processes and hosts.

No server, no new dependencies: the broker *is* a directory (local for a
multi-process deployment, NFS/EFS-style for multi-host), and the POSIX
rename is the concurrency primitive.  Each store kind of
:class:`~repro.distrib.broker.Broker` is one subdirectory, each document
one ``<name>.json`` file.  Layout::

    <root>/jobs/<id>.json       immutable job record (payload, attempt budget)
    <root>/pending/<key>.json   deliverable tickets; the sorted file name
                                encodes delivery order (not-before ms, attempt)
    <root>/leased/<id>.json     live leases (worker, attempt, deadline)
    <root>/done/<id>.json       results — created with os.link, so exactly
                                one completion ever wins
    <root>/dead/<id>.json       dead-lettered jobs (last error, attempts)
    <root>/cancelled/<id>.json  cancelled-before-delivery markers
    <root>/workers/<id>.json    worker registrations + heartbeats
    <root>/spans/<id>.*.json    per-attempt trace spans, one file per
                                completion/failure report (re-delivered
                                attempts file siblings, never append)
    <root>/tmp/                 scratch for atomic writes and take-overs

The primitives map onto single POSIX calls: a move is ``os.rename``
(atomic, so exactly one claimer of a ticket wins and the losers get
``FileNotFoundError``), an exclusive create writes a scratch file and
``os.link``\\ s it into place (``FileExistsError`` when another writer
was first), and a replace writes a scratch file and ``os.replace``\\ s
it.  A lease caught mid-claim has the file's mtime as its clock.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any

from repro.distrib.broker import STORE_KINDS, Broker

__all__ = ["FileBroker"]

_SAFE_ID = re.compile(r"^[A-Za-z0-9._-]+$")


class FileBroker(Broker):
    """Shared-directory broker; see the module docstring for the layout."""

    def __init__(self, root: str, **policy: Any) -> None:
        super().__init__(**policy)
        self.root = os.path.abspath(root)
        for kind in STORE_KINDS:
            os.makedirs(os.path.join(self.root, kind), exist_ok=True)

    def describe(self) -> str:
        return f"file:{self.root}"

    def _path(self, kind: str, name: str) -> str:
        if not _SAFE_ID.match(name):
            raise ValueError(f"invalid broker id {name!r}")
        return os.path.join(self.root, kind, f"{name}.json")

    def _scratch(self, name: str, document: dict) -> str:
        """Write ``document`` to a fresh scratch file; returns its path."""
        scratch = os.path.join(self.root, "tmp", self._unique(f"{name}.json"))
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return scratch

    def _create(self, kind: str, name: str, document: dict) -> bool:
        path = self._path(kind, name)
        scratch = self._scratch(name, document)
        try:
            os.link(scratch, path)
            return True
        except FileExistsError:
            return False
        finally:
            os.unlink(scratch)

    def _replace(self, kind: str, name: str, document: dict) -> None:
        path = self._path(kind, name)
        os.replace(self._scratch(name, document), path)

    def _get(self, kind: str, name: str) -> dict | None:
        try:
            with open(self._path(kind, name), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def _scan(self, kind: str) -> list[str]:
        try:
            names = sorted(os.listdir(os.path.join(self.root, kind)))
        except OSError:
            return []
        return [name[:-5] for name in names if name.endswith(".json")]

    def _move(self, kind: str, name: str, to_kind: str, to_name: str) -> bool:
        try:
            os.rename(self._path(kind, name), self._path(to_kind, to_name))
            return True
        except FileNotFoundError:
            return False

    def _remove(self, kind: str, name: str) -> None:
        try:
            os.unlink(self._path(kind, name))
        except FileNotFoundError:
            pass

    def _mtime(self, kind: str, name: str) -> float | None:
        try:
            return os.path.getmtime(self._path(kind, name))
        except OSError:
            return None
