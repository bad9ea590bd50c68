"""The broker: leased job delivery between front ends and workers.

A *broker* is the hand-off point of the distributed deployment: front
ends (:class:`~repro.service.core.SimulationService` in broker-dispatch
mode) **publish** jobs, stateless workers (:class:`~repro.distrib.worker.
FleetWorker`) **lease** them one at a time, **heartbeat** while
executing, and **complete** or **fail** them.  The broker owns the
at-least-once delivery semantics:

* a lease carries a *visibility timeout* — a worker that stops
  heartbeating (crashed, partitioned, OOM-killed) loses the job when the
  deadline passes and :meth:`Broker.reap` re-queues it,
* every re-queue increments the attempt counter and delays the next
  delivery by an exponential backoff, so a poison job cannot spin a
  worker loop hot,
* after ``max_attempts`` deliveries the job moves to the terminal
  **dead-letter** state, carrying its last error,
* completion is first-write-wins: when an expired lease was re-delivered
  and *both* workers finish (results are deterministic, so both are
  correct), the second :meth:`Broker.complete` is a no-op returning
  ``False`` — never an error, never a double write,
* a report from a worker whose lease was reaped changes nothing: the
  re-delivery owns the attempt accounting from then on.

Workers additionally *register* with capability tags (live backends,
core count, host/pid) and refresh a registration heartbeat, so the fleet
is observable from any front end (``GET /v1/stats``, ``repro fleet``).

:class:`Broker` implements that whole state machine once, over a small
storage contract a subclass supplies.  The store holds JSON documents
under ``(kind, name)`` keys — kinds are ``jobs``, ``pending``,
``leased``, ``done``, ``dead``, ``cancelled``, ``workers``, ``spans``
and the private ``tmp`` — and offers seven primitives, each atomic on
its own: :meth:`~Broker._create` (exclusive create), :meth:`~Broker.
_replace`, :meth:`~Broker._get`, :meth:`~Broker._scan` (sorted names),
:meth:`~Broker._move` (atomic rename; a move to ``tmp`` is the atomic
take), :meth:`~Broker._remove` and :meth:`~Broker._mtime`.  The
protocol never holds a lock across primitives, so any store whose
primitives are atomic is safe for concurrent front ends and workers:

* claiming a job is moving its ``pending`` ticket to ``leased`` —
  exactly one claimer wins however many race,
* terminal records (``done``/``dead``/``cancelled``) are exclusive
  creates, so the first write wins,
* a lease is taken over by moving it to a private ``tmp`` name and
  checking the owner afterwards (put back when it is someone else's),
* ``reap`` heals *ghost* leases (a heartbeat that rewrote a lease the
  reaper had just taken) and grants a lease caught mid-claim, whose
  content is still the ticket, one visibility window from its mtime,
* ``lease`` and ``complete`` discard stale tickets of finished jobs.

Two stores ship: :class:`~repro.distrib.fsbroker.FileBroker` (a shared
directory; usable across processes and across hosts on a shared
filesystem) and :class:`~repro.distrib.memory.MemoryBroker` (dicts
behind a lock, for tests and in-process composition).  Both accept an
injectable ``clock`` so lease-expiry and backoff semantics are testable
without sleeping.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import get_metrics

__all__ = [
    "Broker",
    "BrokerError",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_VISIBILITY_TIMEOUT",
    "DEFAULT_WORKER_TTL",
    "JOB_STATES",
    "Lease",
    "LeaseLostError",
    "UnknownBrokerJobError",
]

#: Seconds a lease stays valid without a heartbeat.
DEFAULT_VISIBILITY_TIMEOUT = 30.0
#: Deliveries (first + retries) before a job dead-letters.
DEFAULT_MAX_ATTEMPTS = 3
#: First retry delay; doubles per attempt up to the cap.
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_CAP = 30.0
#: A worker whose registration heartbeat is older than this is shown dead.
DEFAULT_WORKER_TTL = 30.0

#: Broker job lifecycle: pending → leased → done, or back to pending on
#: lease expiry / execution failure, ending in dead after max attempts.
#: Each state is also the store kind holding the jobs in it.
JOB_STATES = ("pending", "leased", "done", "dead", "cancelled")

#: Every store kind: the job states plus job records, worker
#: registrations, filed spans and private take-over scratch.
STORE_KINDS = ("jobs", *JOB_STATES, "workers", "spans", "tmp")


class BrokerError(RuntimeError):
    """A broker-level protocol violation."""


class UnknownBrokerJobError(KeyError):
    """The broker has never seen the requested job id."""


class LeaseLostError(BrokerError):
    """The lease was reaped (expired) or taken over before the call."""


@dataclass(frozen=True)
class Lease:
    """One delivery of a job to one worker.

    ``attempt`` is 1-based and counts deliveries, not failures: the
    first lease of a job is attempt 1.  ``deadline`` is the wall-clock
    time the lease expires unless extended by a heartbeat.
    """

    job_id: str
    payload: dict
    attempt: int
    deadline: float
    worker_id: str


class Broker:
    """The job lifecycle and worker registry over a store; see the
    module docstring for the protocol and the storage contract."""

    def __init__(
        self,
        visibility: float = DEFAULT_VISIBILITY_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        worker_ttl: float = DEFAULT_WORKER_TTL,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if visibility <= 0:
            raise ValueError(f"visibility must be positive, got {visibility}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
        self.visibility = visibility
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.worker_ttl = worker_ttl
        self._clock = clock or time.time
        self._seq = itertools.count()

    def _now(self) -> float:
        return self._clock()

    def backoff(self, attempt: int) -> float:
        """Delay before re-delivering after ``attempt`` deliveries."""
        return min(self.backoff_base * (2 ** max(attempt - 1, 0)), self.backoff_cap)

    def _note(self, event: str) -> None:
        """Count a delivery event in *this* process' metrics registry.

        Events: ``published``, ``leased``, ``completed``, ``retried``
        (failure re-queue), ``reaped`` (lease-expiry re-queue) and
        ``dead_lettered``.  Counts land wherever the broker object lives
        — the front end for publishes, each worker for its own leases —
        and meet again on the front end's ``/v1/metrics`` via the
        worker-heartbeat snapshot merge.
        """
        get_metrics().counter(
            "repro_broker_events_total",
            "Broker delivery events by type.",
            ("event",),
        ).inc(event=event)

    # ------------------------------------------------------------------
    # Storage primitives: what a store supplies
    # ------------------------------------------------------------------

    def _create(self, kind: str, name: str, document: dict) -> bool:
        """Store ``document`` unless ``kind/name`` exists; ``True`` when
        this call created it (first write wins)."""
        raise NotImplementedError

    def _replace(self, kind: str, name: str, document: dict) -> None:
        """Store ``document`` at ``kind/name``, replacing any old one."""
        raise NotImplementedError

    def _get(self, kind: str, name: str) -> dict | None:
        """The document at ``kind/name``, or ``None`` when absent."""
        raise NotImplementedError

    def _scan(self, kind: str) -> list[str]:
        """Every name under ``kind``, sorted."""
        raise NotImplementedError

    def _move(self, kind: str, name: str, to_kind: str, to_name: str) -> bool:
        """Atomically rename, replacing the target; ``False`` when the
        source is gone (a racer moved or removed it first)."""
        raise NotImplementedError

    def _remove(self, kind: str, name: str) -> None:
        """Delete ``kind/name``; absent is not an error."""
        raise NotImplementedError

    def _mtime(self, kind: str, name: str) -> float | None:
        """When ``kind/name`` was last written or moved, or ``None`` when
        absent (so it doubles as the existence probe)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Protocol helpers
    # ------------------------------------------------------------------

    def _unique(self, label: str) -> str:
        """A name no other call, in this process or another, produces."""
        return f"{label}.{os.getpid()}.{next(self._seq)}"

    def _exists(self, kind: str, name: str) -> bool:
        return self._mtime(kind, name) is not None

    @staticmethod
    def _ticket_name(not_before: float, attempt: int, job_id: str) -> str:
        # The sorted scan of pending IS the delivery order: earliest
        # not-before first, then attempt, then job id.
        return f"{int(not_before * 1000):013d}-{attempt:03d}-{job_id}"

    @staticmethod
    def _ticket_job_id(name: str) -> str | None:
        parts = name.split("-", 2)
        return parts[2] if len(parts) == 3 else None

    def _enqueue(self, job_id: str, attempt: int, not_before: float,
                 error: str | None) -> None:
        self._replace(
            "pending", self._ticket_name(not_before, attempt, job_id),
            {"id": job_id, "attempt": attempt, "not_before": not_before,
             "error": error},
        )

    def _find_ticket(self, job_id: str) -> str | None:
        for name in self._scan("pending"):
            if self._ticket_job_id(name) == job_id:
                return name
        return None

    def _terminal_state(self, job_id: str) -> str | None:
        for state in ("done", "dead", "cancelled"):
            if self._exists(state, job_id):
                return state
        return None

    def _take_lease(self, job_id: str, worker_id: str) -> dict | None:
        """Atomically remove ``worker_id``'s lease and return its content.

        Rename-then-verify: if the lease turns out to belong to another
        worker (it expired and was re-delivered), it is put back
        untouched and ``None`` returned.
        """
        scratch = self._unique(job_id)
        if not self._move("leased", job_id, "tmp", scratch):
            return None
        lease = self._get("tmp", scratch)
        if lease is None or lease.get("worker") != worker_id:
            self._move("tmp", scratch, "leased", job_id)
            return None
        self._remove("tmp", scratch)
        return lease

    def _retry_or_dead_letter(self, job_id: str, record: dict, attempt: int,
                              error: str, event: str) -> None:
        """Re-queue after ``attempt`` deliveries with backoff, or
        dead-letter once the job's attempt budget is spent."""
        now = self._now()
        if attempt >= record.get("max_attempts", self.max_attempts):
            self._create("dead", job_id,
                         {"error": error, "attempts": attempt, "finished": now})
            self._note("dead_lettered")
        else:
            self._enqueue(job_id, attempt + 1, now + self.backoff(attempt), error)
            self._note(event)

    def _file_spans(self, job_id: str, spans: list | None) -> None:
        """Persist one attempt's spans next to (never inside) the results.

        Each report gets its own unique name — no shared append, so
        concurrent completions of an expired-lease twin file as genuine
        siblings with zero coordination.
        """
        if spans:
            self._replace("spans", self._unique(job_id), {"spans": spans})

    def _job_spans(self, job_id: str) -> list:
        """Concatenate every attempt's span document for ``job_id``."""
        prefix = f"{job_id}."
        collected: list = []
        for name in self._scan("spans"):
            if name.startswith(prefix):
                entry = self._get("spans", name)
                if entry:
                    collected.extend(entry.get("spans", ()))
        return collected

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def publish(self, job_id: str, payload: dict) -> None:
        """Enqueue ``payload`` (JSON-pure) for delivery as ``job_id``.

        The caller supplies the id so the broker job keeps the identity
        of the service job that produced it.  Re-publishing an id is a
        :class:`BrokerError`.
        """
        now = self._now()
        created = self._create("jobs", job_id, {
            "id": job_id,
            "payload": payload,
            "max_attempts": self.max_attempts,
            "created": now,
        })
        if not created:
            raise BrokerError(f"job {job_id!r} is already published")
        self._enqueue(job_id, attempt=1, not_before=now, error=None)
        self._note("published")

    def lease(self, worker_id: str) -> Lease | None:
        """Claim the oldest deliverable job, or ``None`` when idle.

        Expired leases are reaped first, so a fleet needs no dedicated
        reaper process (front ends reap too, covering the
        all-workers-died case).
        """
        self.reap()
        now = self._now()
        for name in self._scan("pending"):
            job_id = self._ticket_job_id(name)
            if job_id is None:
                continue
            ticket = self._get("pending", name)
            if ticket is None or ticket["not_before"] > now:
                continue  # claimed by a racing worker, or backing off
            # THE claim: atomic, exactly one winner per ticket.
            if not self._move("pending", name, "leased", job_id):
                continue
            if self._terminal_state(job_id) is not None:
                # A stale ticket for an already-finished job (e.g. it was
                # completed after a reap re-queued it): discard quietly.
                self._remove("leased", job_id)
                continue
            record = self._get("jobs", job_id)
            if record is None:
                self._remove("leased", job_id)
                continue
            deadline = now + self.visibility
            self._replace("leased", job_id, {
                "id": job_id,
                "attempt": ticket["attempt"],
                "worker": worker_id,
                "deadline": deadline,
            })
            self._note("leased")
            return Lease(job_id, record["payload"], ticket["attempt"],
                         deadline, worker_id)
        return None

    def heartbeat(self, job_id: str, worker_id: str) -> float:
        """Extend the lease by the visibility timeout; returns the new
        deadline.  Raises :class:`LeaseLostError` when the lease expired
        or belongs to another worker."""
        lease = self._get("leased", job_id)
        if lease is None or lease.get("worker") != worker_id:
            raise LeaseLostError(f"worker {worker_id!r} no longer holds job {job_id!r}")
        lease["deadline"] = self._now() + self.visibility
        self._replace("leased", job_id, lease)
        return lease["deadline"]

    def complete(self, job_id: str, worker_id: str, results: Any,
                 spans: list | None = None) -> bool:
        """Record results; ``True`` if this call won, ``False`` for a
        duplicate completion (already done — first write wins).

        ``spans`` are the completed trace spans of the executing attempt
        (ship-once, like metrics deltas).  They are stored *next to* the
        results — never inside them, so job results stay byte-identical
        with tracing on or off — and surface through :meth:`snapshot`'s
        ``spans`` key.  Span accumulation is per-attempt: a duplicate
        completion loses the results race but still files its spans, so
        re-delivered attempts appear as sibling subtrees of one trace.
        """
        if not self._exists("jobs", job_id):
            raise UnknownBrokerJobError(job_id)
        self._file_spans(job_id, spans)
        lease = self._get("leased", job_id)
        attempt = lease["attempt"] if lease and lease.get("worker") == worker_id else None
        won = self._create("done", job_id, {
            "results": results,
            "worker": worker_id,
            "attempt": attempt,
            "finished": self._now(),
        })
        self._take_lease(job_id, worker_id)
        if won:
            # A reaper may have re-queued the job while we were finishing
            # it; the ticket is now stale and must not be delivered.
            ticket = self._find_ticket(job_id)
            if ticket is not None:
                self._remove("pending", ticket)
            self._note("completed")
        return won

    def fail(self, job_id: str, worker_id: str, error: str,
             spans: list | None = None) -> None:
        """Record an execution failure: re-queue with backoff, or
        dead-letter once the attempt budget is spent.  ``spans`` from
        the failed attempt accumulate like :meth:`complete`'s."""
        record = self._get("jobs", job_id)
        if record is None:
            raise UnknownBrokerJobError(job_id)
        self._file_spans(job_id, spans)
        lease = self._take_lease(job_id, worker_id)
        if lease is None:
            # Lease already reaped/re-delivered: that delivery owns the
            # retry accounting now, a late failure report changes nothing.
            return
        self._retry_or_dead_letter(job_id, record, lease["attempt"], error, "retried")

    def cancel(self, job_id: str) -> bool:
        """Cancel a *pending* job; ``False`` when it is leased or
        terminal (the caller decides whether that is a conflict)."""
        if not self._exists("jobs", job_id):
            raise UnknownBrokerJobError(job_id)
        name = self._find_ticket(job_id)
        if name is None:
            return False
        scratch = self._unique(job_id)
        if not self._move("pending", name, "tmp", scratch):
            return False  # leased in the race window
        self._remove("tmp", scratch)
        self._create("cancelled", job_id, {"finished": self._now()})
        return True

    def reap(self) -> int:
        """Re-queue (or dead-letter) expired leases; returns how many
        leases were taken over."""
        now = self._now()
        reaped = 0
        for name in self._scan("leased"):
            lease = self._get("leased", name)
            if lease is None:
                continue
            deadline = lease.get("deadline")
            if deadline is None:
                # Mid-claim (ticket moved, lease not yet written): grant
                # the claimer a full visibility window from the move.
                moved = self._mtime("leased", name)
                if moved is None:
                    continue
                deadline = moved + self.visibility
            if deadline >= now:
                continue
            scratch = self._unique(f"reap-{name}")
            if not self._move("leased", name, "tmp", scratch):
                continue  # completed or reaped concurrently
            self._remove("tmp", scratch)
            job_id = lease.get("id") or name
            if self._terminal_state(job_id) is not None or self._find_ticket(job_id):
                continue  # ghost lease (e.g. a heartbeat raced a reap)
            reaped += 1
            attempt = lease.get("attempt", 1)
            error = (f"lease expired after attempt {attempt} "
                     f"(worker {lease.get('worker', '?')})")
            self._retry_or_dead_letter(job_id, self._get("jobs", job_id) or {},
                                       attempt, error, "reaped")
        return reaped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self, job_id: str) -> dict[str, Any]:
        """The broker's view of one job: ``state`` (:data:`JOB_STATES`),
        ``attempts``, ``worker``, ``error``, ``results`` and timing
        fields.  Raises :class:`UnknownBrokerJobError`."""
        record = self._get("jobs", job_id)
        if record is None:
            raise UnknownBrokerJobError(job_id)
        base = {
            "id": job_id,
            "created": record["created"],
            "max_attempts": record["max_attempts"],
            "error": None,
        }
        done = self._get("done", job_id)
        if done is not None:
            return {**base, "state": "done", "attempts": done["attempt"],
                    "worker": done["worker"], "results": done["results"],
                    "finished": done["finished"],
                    "spans": self._job_spans(job_id)}
        dead = self._get("dead", job_id)
        if dead is not None:
            return {**base, "state": "dead", "attempts": dead["attempts"],
                    "worker": None, "results": None,
                    "finished": dead["finished"], "error": dead["error"],
                    "spans": self._job_spans(job_id)}
        cancelled = self._get("cancelled", job_id)
        if cancelled is not None:
            return {**base, "state": "cancelled", "attempts": 0, "worker": None,
                    "results": None, "finished": cancelled["finished"]}
        lease = self._get("leased", job_id)
        if lease is not None and "worker" in lease:
            return {**base, "state": "leased", "attempts": lease["attempt"],
                    "worker": lease["worker"], "results": None,
                    "deadline": lease["deadline"], "finished": None}
        name = self._find_ticket(job_id)
        ticket = self._get("pending", name) if name is not None else None
        if ticket is not None:
            return {**base, "state": "pending",
                    "attempts": ticket["attempt"] - 1, "worker": None,
                    "results": None, "not_before": ticket["not_before"],
                    "error": ticket.get("error"), "finished": None}
        # Transiently between states (mid-claim or mid-move): report pending.
        return {**base, "state": "pending", "attempts": None, "worker": None,
                "results": None, "finished": None}

    def counts(self) -> dict[str, int]:
        """Jobs per state (``pending``/``leased``/``done``/``dead``/
        ``cancelled``)."""
        return {state: len(self._scan(state)) for state in JOB_STATES}

    def dead_letters(self, limit: int = 20) -> list[dict[str, Any]]:
        """The most recently dead-lettered jobs, newest first.

        Each row carries ``id``, ``error`` (the last delivery's failure
        string), ``attempts`` and ``finished`` — enough for ``/v1/stats``
        and ``repro fleet`` to say *why* a job died without a per-job
        lookup.
        """
        rows = []
        for name in self._scan("dead"):
            entry = self._get("dead", name)
            if entry is not None:
                rows.append({
                    "id": name,
                    "error": entry.get("error"),
                    "attempts": entry.get("attempts"),
                    "finished": entry.get("finished"),
                })
        rows.sort(key=lambda row: row["finished"] or 0, reverse=True)
        return rows[:limit]

    def describe(self) -> str:
        """A short human-readable locator (shown by ``repro fleet``)."""
        return type(self).__name__

    def stats(self) -> dict[str, Any]:
        """The fleet document rendered into ``/v1/stats``."""
        now = self._now()
        # Worker rows minus the metrics snapshots they heartbeat in —
        # those belong to /v1/metrics, not a human-facing stats document.
        workers = [
            {key: value for key, value in row.items() if key != "metrics"}
            for row in self.workers()
        ]
        return {
            "broker": self.describe(),
            "visibility_timeout": self.visibility,
            "max_attempts": self.max_attempts,
            "jobs": self.counts(),
            "dead_letters": self.dead_letters(),
            "workers": workers,
            "workers_alive": sum(1 for worker in workers if worker["alive"]),
            "generated": now,
        }

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------

    def register_worker(self, worker_id: str, capabilities: dict[str, Any]) -> None:
        now = self._now()
        self._replace("workers", worker_id, {
            "id": worker_id,
            "capabilities": capabilities,
            "started": now,
            "heartbeat": now,
            "completed": 0,
            "failed": 0,
        })

    def worker_heartbeat(
        self,
        worker_id: str,
        completed: int | None = None,
        failed: int | None = None,
        metrics: dict[str, Any] | None = None,
    ) -> None:
        """Refresh the registration heartbeat (and job counters).

        ``metrics`` is the worker's latest *cumulative* metrics-registry
        snapshot (:meth:`repro.obs.MetricsRegistry.snapshot`); the broker
        stores only the most recent one per worker, so a lost heartbeat
        never loses counts — the next snapshot supersedes it.  Front ends
        fold these into ``GET /v1/metrics``.
        """
        record = self._get("workers", worker_id)
        if record is None:
            raise BrokerError(f"worker {worker_id!r} is not registered")
        record["heartbeat"] = self._now()
        if completed is not None:
            record["completed"] = completed
        if failed is not None:
            record["failed"] = failed
        if metrics is not None:
            record["metrics"] = metrics
        self._replace("workers", worker_id, record)

    def deregister_worker(self, worker_id: str) -> None:
        self._remove("workers", worker_id)

    def workers(self) -> list[dict[str, Any]]:
        """Registered workers with ``heartbeat_age`` and ``alive`` derived
        from :attr:`worker_ttl`, sorted by worker id."""
        now = self._now()
        views = []
        for name in self._scan("workers"):
            record = self._get("workers", name)
            if record is not None:
                views.append(_worker_view(record, now, self.worker_ttl))
        return views


def _worker_view(record: dict[str, Any], now: float, ttl: float) -> dict[str, Any]:
    """Derive the observable worker row from a stored registration."""
    heartbeat = record.get("heartbeat", record.get("started", now))
    age = max(now - heartbeat, 0.0)
    view = dict(record)
    view["heartbeat_age"] = age
    view["alive"] = age <= ttl
    return view
