"""Supervised campaign execution: retries, crash recovery, quarantine, resume.

:func:`run_campaign <repro.campaign.runner.run_campaign>` used to call
``future.result()`` bare, so one worker exception — or a worker process
dying and taking the whole ``ProcessPoolExecutor`` down as a
``BrokenProcessPool`` — aborted the campaign and discarded every
already-completed result.  This module wraps the fan-out in a supervisor
with per-spec outcome taxonomy and failure-aware scheduling:

* **ok** — completed on the first attempt;
* **retried** — completed after >= 1 failed attempt (seeded, deterministic
  exponential backoff between attempts);
* **quarantined** — a poison spec: every attempt raised inside the worker
  until the retry budget ran out; the campaign completes with a
  ``completed=False`` row naming the spec and its last error;
* **lost-worker** — every attempt died with the worker (crash) or hit the
  per-task timeout; same terminal handling as quarantine.

Crash recovery: a ``BrokenProcessPool`` cannot name the culprit (every
in-flight future fails at once), so the first break rebuilds the pool and
resubmits only the lost specs; a second break switches to **isolation
mode** — remaining specs run one at a time in single-worker pools, which
attributes every further crash to exactly the spec that caused it.
Hang recovery: with ``task_timeout`` set, a watchdog (driven purely by
``concurrent.futures.wait`` timeouts — no wall-clock reads in this
module, so lint RL001/RL100 stay clean) kills and rebuilds the pool
around a stuck task and retries it like any other failure.

Every terminal outcome is appended to a JSONL journal under
``<store>/campaigns/``, making an interrupted campaign resumable:
``repro sweep --resume`` replays journaled rows and re-runs only the
specs that never finished.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.campaign.chaos import ChaosSchedule, apply_chaos
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, _advise
from repro.errors import CampaignError, ConfigurationError, WorkerLostError
from repro.hostprof.clock import Stopwatch

#: Per-spec terminal outcomes (the supervisor's taxonomy).
OUTCOME_OK = "ok"
OUTCOME_RETRIED = "retried"
OUTCOME_QUARANTINED = "quarantined"
OUTCOME_LOST_WORKER = "lost-worker"

#: Outcomes that produced a summary row.
COMPLETED_OUTCOMES = (OUTCOME_OK, OUTCOME_RETRIED)


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded, deterministic retry/backoff configuration.

    ``delay(digest, failure)`` is a pure function of the policy seed, the
    spec digest, and the failure ordinal — two campaigns with the same
    specs and policy sleep the exact same schedule (RL001: the jitter RNG
    is explicitly seeded, never the global Mersenne state).
    """

    retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ConfigurationError(
                f"backoff base must be >= 0 and factor >= 1, got "
                f"base={self.backoff_base} factor={self.backoff_factor}"
            )
        if not 0 <= self.jitter <= 1:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, digest: str, failure: int) -> float:
        """Seconds to back off after *digest*'s *failure*-th failure."""
        base = self.backoff_base * self.backoff_factor ** failure
        if not self.jitter or not base:
            return base
        rng = random.Random(f"{self.seed}:{digest}:{failure}")
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class SpecRecord:
    """One spec's terminal state under supervision."""

    spec: RunSpec
    outcome: str
    attempts: int
    row: dict[str, Any] | None
    cached: bool = False
    error: str | None = None
    #: Host-clock timings (wall/queue-wait/busy) when a recorder rode along.
    host: dict[str, Any] | None = None

    @property
    def completed(self) -> bool:
        return self.outcome in COMPLETED_OUTCOMES


def campaign_digest(specs: Sequence[RunSpec]) -> str:
    """Content address of a campaign: its spec set plus the code version.

    Order-insensitive (a resumed campaign may list specs differently) and
    fingerprint-qualified (a journal written under different simulator
    source must not be resumed — the rows would be stale).
    """
    fingerprint = specs[0].fingerprint if specs else ""
    body = fingerprint + ":" + ",".join(sorted(s.digest for s in specs))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:24]


class CampaignJournal:
    """Append-only JSONL journal of terminal spec outcomes.

    One line per decided spec (plus a header), flushed as written, so a
    campaign killed mid-flight leaves a prefix that ``--resume`` replays:
    journaled specs are served from their recorded rows (quarantined ones
    stay quarantined — delete the journal to retry them) and only the
    undecided remainder re-runs.  A torn trailing line (the kill landed
    mid-write) is tolerated and simply re-run.  Journal I/O failures
    degrade to an advisory — the journal, like the store, is never a
    source of errors.
    """

    VERSION = 1

    def __init__(self, path: Path, campaign: str) -> None:
        self.path = path
        self.campaign = campaign
        self.errors = 0

    @classmethod
    def for_campaign(
        cls, root: str | Path, specs: Sequence[RunSpec]
    ) -> "CampaignJournal":
        digest = campaign_digest(specs)
        return cls(Path(root) / "campaigns" / f"{digest}.jsonl", digest)

    def _header(self, specs: Sequence[RunSpec]) -> dict[str, Any]:
        return {
            "journal": self.VERSION,
            "campaign": self.campaign,
            "fingerprint": specs[0].fingerprint if specs else "",
            "specs": len(specs),
        }

    def load(self) -> dict[str, dict[str, Any]]:
        """Journaled terminal entries by digest (empty when unusable)."""
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return {}
        entries: dict[str, dict[str, Any]] = {}
        for index, line in enumerate(lines):
            try:
                document = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail from a mid-write kill: replay stops here
            if index == 0:
                if (
                    not isinstance(document, dict)
                    or document.get("campaign") != self.campaign
                ):
                    return {}  # foreign or damaged header: not resumable
                continue
            if isinstance(document, dict) and "digest" in document:
                entries[document["digest"]] = document
        return entries

    def begin(
        self, specs: Sequence[RunSpec], resume: bool
    ) -> dict[str, dict[str, Any]]:
        """Open the journal; returns replayable entries when *resume*."""
        entries = self.load() if resume else {}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if entries:
                # Keep the surviving prefix; new outcomes append after it.
                return entries
            self.path.write_text(
                json.dumps(self._header(specs), sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            self._degrade(exc)
        return entries

    def record(self, record: SpecRecord) -> None:
        """Append one terminal outcome (flushed immediately)."""
        entry = {
            "digest": record.spec.digest,
            "outcome": record.outcome,
            "attempts": record.attempts,
            "cached": record.cached,
            "row": record.row,
            "error": record.error,
        }
        if record.host is not None:
            # Advisory host timings ride along only when measured, so
            # journals written without a recorder stay byte-identical.
            entry["host"] = record.host
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
                handle.flush()
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: OSError) -> None:
        self.errors += 1
        if self.errors == 1:
            _advise(f"campaign journal degraded ({exc}); --resume unavailable")


def record_from_journal(spec: RunSpec, entry: dict[str, Any]) -> SpecRecord:
    """Revive a terminal record from its journal entry."""
    return SpecRecord(
        spec=spec,
        outcome=str(entry.get("outcome", OUTCOME_OK)),
        attempts=int(entry.get("attempts", 1)),
        row=entry.get("row"),
        cached=True,
        error=entry.get("error"),
        host=entry.get("host"),
    )


def _campaign_worker(task: dict[str, Any]) -> dict[str, Any]:
    """Pool entry point: run (or warm-load) one spec in a worker process.

    A spec's error comes back as ``"error"`` beside the worker's pid rather
    than raised, so the supervisor knows which worker ran the attempt.
    """
    from repro.campaign.runner import execute_spec, summarize_payload

    spec = RunSpec.from_dict(task["spec"])
    try:
        chaos = task.get("chaos")
        if chaos is not None:
            apply_chaos(
                ChaosSchedule.from_dict(chaos), spec.digest,
                task.get("attempt", 0), in_worker=True,
            )
        # Worker-side busy time, measured only when the campaign carries a
        # host recorder (the read stays inside the Stopwatch instance).
        stopwatch = Stopwatch() if task.get("host") else None
        root = task["root"]
        store = ResultStore(root) if root is not None else None
        cached = False
        if store is not None:
            payload = store.get("run", spec.digest, spec.fingerprint)
            if payload is not None:
                cached = True
                row = summarize_payload(payload)
        if not cached:
            row = execute_spec(spec, store)
    except Exception as exc:  # deterministic sim errors + chaos
        return {
            "digest": spec.digest,
            "pid": os.getpid(),
            "error": f"{type(exc).__name__}: {exc}",
        }
    return {
        "digest": spec.digest,
        "row": row,
        "cached": cached,
        "pid": os.getpid(),
        "host_wall": stopwatch.elapsed() if stopwatch is not None else None,
    }


class CampaignSupervisor:
    """Drive a set of cold specs to terminal outcomes, surviving workers.

    The watchdog never reads a clock: elapsed time is accounted in
    ``wait(timeout=tick)`` rounds that returned nothing, which
    *undercounts* while healthy work is still completing — a hung worker
    is therefore detected at the latest once healthy work drains plus one
    ``task_timeout``.  Conservative, deterministic in structure, and
    RL001-clean.
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        jobs: int = 1,
        store: ResultStore | None = None,
        policy: RetryPolicy | None = None,
        task_timeout: float | None = None,
        chaos: ChaosSchedule | None = None,
        journal: CampaignJournal | None = None,
        sleep: Callable[[float], None] | None = None,
        host: Any | None = None,
        progress: Callable[[SpecRecord], None] | None = None,
    ) -> None:
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        self.specs = list(specs)
        self.jobs = jobs
        self.store = store
        self.policy = policy or RetryPolicy()
        self.task_timeout = task_timeout
        self.chaos = chaos
        self.journal = journal
        #: Optional CampaignHostRecorder; purely observational (advisory
        #: host timings — never steers scheduling or results).
        self.host = host
        #: Optional per-terminal-record callback (the --progress heartbeat).
        self.progress = progress
        self.sleep = sleep if sleep is not None else time.sleep
        self.records: dict[str, SpecRecord] = {}
        self.pids: set[int] = set()
        self.counters = {
            "retries": 0,
            "quarantined": 0,
            "lost_workers": 0,
            "pool_rebuilds": 0,
            "timeouts": 0,
        }
        self._failures: dict[str, int] = {}
        self._last_error: dict[str, str] = {}
        self._tick = (
            min(0.1, task_timeout / 4) if task_timeout is not None else 0.25
        )

    # -- shared bookkeeping ----------------------------------------------------

    def _attempts(self, digest: str) -> int:
        return self._failures.get(digest, 0)

    def _finalize(self, record: SpecRecord) -> None:
        if self.host is not None and record.host is None:
            record.host = self.host.journal_entry(record.spec.digest)
        self.records[record.spec.digest] = record
        # Both terminal failure outcomes count as quarantines: the spec is
        # out of the campaign either way; the row keeps the finer taxonomy.
        if record.outcome in (OUTCOME_QUARANTINED, OUTCOME_LOST_WORKER):
            self.counters["quarantined"] += 1
        if self.journal is not None:
            self.journal.record(record)
        if self.progress is not None:
            self.progress(record)

    def _succeeded(self, spec: RunSpec, row: dict[str, Any], cached: bool) -> None:
        failures = self._attempts(spec.digest)
        self._finalize(SpecRecord(
            spec=spec,
            outcome=OUTCOME_OK if failures == 0 else OUTCOME_RETRIED,
            attempts=failures + 1,
            row=row,
            cached=cached,
        ))

    def _failed(
        self, spec: RunSpec, error: str, lost: bool
    ) -> bool:
        """Record one attributed failed attempt; True when spec is spent."""
        digest = spec.digest
        self._failures[digest] = self._attempts(digest) + 1
        self._last_error[digest] = error
        if self._failures[digest] > self.policy.retries:
            self._finalize(SpecRecord(
                spec=spec,
                outcome=OUTCOME_LOST_WORKER if lost else OUTCOME_QUARANTINED,
                attempts=self._failures[digest],
                row=None,
                error=error,
            ))
            return True
        self.counters["retries"] += 1
        self.sleep(self.policy.delay(digest, self._failures[digest] - 1))
        return False

    # -- serial execution ------------------------------------------------------

    def _execute_serial(self, spec: RunSpec) -> None:
        from repro.campaign.runner import execute_spec

        while True:
            attempt = self._attempts(spec.digest)
            if self.host is not None:
                self.host.spec_submitted(spec.digest, spec.label)
            self.pids.add(os.getpid())
            try:
                if self.chaos is not None:
                    apply_chaos(
                        self.chaos, spec.digest, attempt, in_worker=False
                    )
                row = execute_spec(spec, self.store)
            except Exception as exc:  # deterministic sim errors + chaos
                if self._failed(spec, f"{type(exc).__name__}: {exc}", False):
                    return
            else:
                if self.host is not None:
                    self.host.spec_done(spec.digest, os.getpid())
                self._succeeded(spec, row, cached=False)
                return

    # -- pool execution --------------------------------------------------------

    def _task(self, spec: RunSpec) -> dict[str, Any]:
        return {
            "spec": spec.to_dict(),
            "root": str(self.store.root) if self.store is not None else None,
            "attempt": self._attempts(spec.digest),
            "chaos": self.chaos.to_dict() if self.chaos is not None else None,
            "host": self.host is not None,
        }

    def _worker_outcome(self, spec: RunSpec, outcome: dict[str, Any]) -> bool:
        """Book one attempt a pool worker reported; True to rerun the spec."""
        self.pids.add(outcome["pid"])
        error = outcome.get("error")
        if error is not None:
            return not self._failed(spec, error, False)
        if self.host is not None:
            self.host.spec_done(
                spec.digest, outcome["pid"], outcome.get("host_wall"),
            )
        self._succeeded(spec, outcome["row"], outcome["cached"])
        return False

    def _terminate_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on its (possibly hung) tasks."""
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_pool(self, specs: list[RunSpec]) -> None:
        queue: deque[RunSpec] = deque(specs)
        breaks = 0
        pool: ProcessPoolExecutor | None = None
        futures: dict[Any, RunSpec] = {}
        sequence: dict[Any, int] = {}
        waited: dict[Any, float] = {}
        submitted = 0
        try:
            while queue or futures:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(self.jobs, max(len(queue), 1))
                    )
                submit_broken = False
                while queue:
                    spec = queue.popleft()
                    try:
                        future = pool.submit(
                            _campaign_worker, self._task(spec)
                        )
                    except BrokenProcessPool:
                        # The pool died while we were still feeding it.
                        queue.appendleft(spec)
                        submit_broken = True
                        break
                    if self.host is not None:
                        self.host.spec_submitted(spec.digest, spec.label)
                    futures[future] = spec
                    sequence[future] = submitted
                    waited[future] = 0.0
                    submitted += 1
                if submit_broken:
                    breaks += 1
                    self.counters["lost_workers"] += 1
                    self.counters["pool_rebuilds"] += 1
                    for spec in futures.values():
                        queue.append(spec)
                    futures.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    if breaks >= 2:
                        self._isolation_drain(queue)
                        return
                    continue
                done, not_done = wait(
                    list(futures),
                    timeout=self._tick if self.task_timeout else None,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # A full tick elapsed with nothing finishing: charge it
                    # to every outstanding task and fire the watchdog.
                    hung = []
                    for future in not_done:
                        waited[future] += self._tick
                        if (
                            self.task_timeout is not None
                            and waited[future] >= self.task_timeout
                        ):
                            hung.append(future)
                    if hung:
                        self._handle_hang(hung, futures, queue)
                        self._terminate_pool(pool)
                        pool = None
                        futures.clear()
                        self.counters["pool_rebuilds"] += 1
                    continue
                broken = False
                for future in sorted(done, key=sequence.__getitem__):
                    spec = futures.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        queue.append(spec)
                    except Exception as exc:  # e.g. an unpicklable result
                        if not self._failed(
                            spec, f"{type(exc).__name__}: {exc}", False
                        ):
                            queue.append(spec)
                    else:
                        if self._worker_outcome(spec, outcome):
                            queue.append(spec)
                if broken:
                    # The pool is gone and the culprit is anonymous: every
                    # still-in-flight spec goes back on the queue.  One
                    # break is forgiven (rebuild, resubmit everything
                    # lost); a second means a crasher is loose — switch to
                    # isolation so the next death names its spec exactly.
                    breaks += 1
                    self.counters["lost_workers"] += 1
                    self.counters["pool_rebuilds"] += 1
                    for spec in futures.values():
                        queue.append(spec)
                    futures.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    if breaks >= 2:
                        self._isolation_drain(queue)
                        return
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    def _isolation_drain(self, queue: deque[RunSpec]) -> None:
        """Attribute crash blame exactly: one spec per single-worker pool."""
        pending = deque(queue)
        queue.clear()
        while pending:
            spec = pending.popleft()
            with ProcessPoolExecutor(max_workers=1) as solo:
                future = solo.submit(_campaign_worker, self._task(spec))
                if self.host is not None:
                    self.host.spec_submitted(spec.digest, spec.label)
                waited = 0.0
                while True:
                    done, _ = wait(
                        [future],
                        timeout=self._tick if self.task_timeout else None,
                    )
                    if done:
                        break
                    waited += self._tick
                    if (
                        self.task_timeout is not None
                        and waited >= self.task_timeout
                    ):
                        break
                if not done:
                    self.counters["timeouts"] += 1
                    self.counters["lost_workers"] += 1
                    self._terminate_pool(solo)
                    if not self._failed(
                        spec,
                        f"WorkerLostError: task exceeded "
                        f"{self.task_timeout}s timeout",
                        True,
                    ):
                        pending.append(spec)
                    continue
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    self.counters["lost_workers"] += 1
                    self.counters["pool_rebuilds"] += 1
                    if not self._failed(
                        spec,
                        "WorkerLostError: worker process died "
                        "(BrokenProcessPool)",
                        True,
                    ):
                        pending.append(spec)
                except Exception as exc:
                    if not self._failed(
                        spec, f"{type(exc).__name__}: {exc}", False
                    ):
                        pending.append(spec)
                else:
                    if self._worker_outcome(spec, outcome):
                        pending.append(spec)

    def _handle_hang(
        self,
        hung: list[Any],
        futures: dict[Any, RunSpec],
        queue: deque[RunSpec],
    ) -> None:
        """Classify timed-out tasks; requeue innocents caught in the cull."""
        hung_set = set(hung)
        for future, spec in list(futures.items()):
            if future in hung_set:
                self.counters["timeouts"] += 1
                self.counters["lost_workers"] += 1
                if not self._failed(
                    spec,
                    f"WorkerLostError: task exceeded "
                    f"{self.task_timeout}s timeout",
                    True,
                ):
                    queue.append(spec)
            else:
                # Innocent bystander: the pool around it is being torn
                # down.  Resubmit without charging its retry budget.
                queue.append(spec)

    # -- entry point -----------------------------------------------------------

    def run(self) -> dict[str, SpecRecord]:
        """Drive every spec to a terminal record (never raises per-spec)."""
        if self.jobs > 1 and len(self.specs) > 1:
            self._run_pool(self.specs)
        else:
            for spec in self.specs:
                self._execute_serial(spec)
        missing = [s for s in self.specs if s.digest not in self.records]
        for spec in missing:  # defensive: nothing may end undecided
            self._finalize(SpecRecord(
                spec=spec,
                outcome=OUTCOME_LOST_WORKER,
                attempts=self._attempts(spec.digest),
                row=None,
                error=self._last_error.get(
                    spec.digest, "WorkerLostError: spec never completed"
                ),
            ))
        return self.records


# Re-exported for error-taxonomy completeness (callers catch CampaignError).
__all__ = [
    "COMPLETED_OUTCOMES",
    "CampaignError",
    "CampaignJournal",
    "CampaignSupervisor",
    "OUTCOME_LOST_WORKER",
    "OUTCOME_OK",
    "OUTCOME_QUARANTINED",
    "OUTCOME_RETRIED",
    "RetryPolicy",
    "SpecRecord",
    "WorkerLostError",
    "campaign_digest",
    "record_from_journal",
]
