"""The farm worker: claim → execute → complete, with heartbeats.

A :class:`FarmWorker` drains a :class:`~repro.farm.store.FarmStore` in a
loop — ``claim_batch`` leases a handful of trials, the trials run
through the **same** execution machinery as a local sweep
(:func:`~repro.perf.resilience.guarded_execute_observed` serially, the
warm :func:`~repro.perf.pool.shared_pool` when ``jobs > 1``), and each
outcome goes back with the lease token: results via
:meth:`~repro.farm.store.FarmStore.complete`, failures via
:meth:`~repro.farm.store.FarmStore.fail` (which requeues or quarantines
per the shared :class:`~repro.perf.resilience.ResiliencePolicy`).

A background thread heartbeats the live lease tokens every third of the
TTL, so a slow trial never loses its lease — only a dead worker does.
Every completion ships its :class:`~repro.obs.telemetry.TrialTelemetry`
payload into the store, which is what lets the submit side reassemble
farm metrics exactly like ``sweep --jobs N`` reassembles pool metrics.

The worker exits when its scope (one campaign, or the whole store) has
no claimable or leased rows left; while only *other* workers' live
leases remain it idles on a short poll, ready to reap them if they
expire.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from ..perf.cache import TrialCache
from ..perf.executor import _fold_reply
from ..perf.pool import DispatchStats, WorkerPool, shared_pool
from ..perf.resilience import (
    ResiliencePolicy,
    TrialFailure,
    guarded_execute_observed,
)
from .store import FarmStore, LeasedTrial, RetryingStore

log = logging.getLogger("repro.farm.worker")

#: Exit code of the deliberate mid-batch crash (self-test hook).
CRASH_EXIT_CODE = 86

#: Consecutive heartbeat failures before a worker declares its leases
#: lost and abandons them (they expire and get reclaimed elsewhere).
HEARTBEAT_MAX_MISSES = 3


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


class _Heartbeat:
    """Background lease refresher: one store connection, its own thread.

    A single failed heartbeat is survivable (the lease TTL has two more
    beats of slack), so it is only logged; :data:`HEARTBEAT_MAX_MISSES`
    *consecutive* failures mean the store is unreachable and the leases
    will lapse regardless — ``lost`` is set so the worker can abandon
    them cleanly instead of completing against stale tokens.
    """

    def __init__(self, store: FarmStore, lease_ttl: float,
                 max_misses: int = HEARTBEAT_MAX_MISSES):
        self.store = store
        self.lease_ttl = lease_ttl
        self.max_misses = max_misses
        self.lost = threading.Event()
        self._misses = 0
        self._tokens: set = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="farm-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        period = max(0.05, self.lease_ttl / 3.0)
        while not self._stop.wait(period):
            with self._lock:
                tokens = list(self._tokens)
            if not tokens:
                continue
            try:
                self.store.heartbeat(tokens, self.lease_ttl)
            except Exception as exc:
                # A failed heartbeat just means the lease may lapse
                # and be reclaimed — the safe direction.
                self._misses += 1
                log.warning(
                    "heartbeat failed (%s: %s), miss %d/%d",
                    type(exc).__name__, exc, self._misses, self.max_misses,
                )
                if self._misses >= self.max_misses:
                    self.lost.set()
            else:
                self._misses = 0

    def track(self, tokens: List[str]) -> None:
        with self._lock:
            self._tokens.update(tokens)

    def release(self, token: str) -> None:
        with self._lock:
            self._tokens.discard(token)

    def tracked(self) -> List[str]:
        with self._lock:
            return list(self._tokens)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)


class FarmWorker:
    """One drain loop over a farm store.

    Parameters mirror the ``repro worker`` CLI.  ``jobs == 1`` executes
    claimed trials in-process (watchdog armed when on the main thread);
    ``jobs > 1`` fans each claimed batch out over the persistent warm
    pool with the in-worker watchdog, exactly like a resilient local
    sweep.  ``crash_after`` is the self-test hook behind
    ``--self-test-crash-after``: hard-exit (``os._exit``) after that
    many completions, mid-batch, leases still held — the worker-death
    recovery tests and CI drive it.  ``dispatch`` (a
    :class:`~repro.perf.pool.DispatchStats`) is charged with the pool's
    dispatch costs, as ``run_trials(dispatch=...)`` is locally.

    A pool worker that dies holding a multi-trial batch charges nobody:
    the culprit within the batch is unknown, so each trial re-runs alone
    on the recycled slot, and only a death holding a single trial goes
    through :meth:`~repro.farm.store.FarmStore.fail` — the local
    resilient executor's blame rule.
    """

    def __init__(
        self,
        store: FarmStore,
        *,
        worker_id: Optional[str] = None,
        jobs: int = 1,
        batch_size: Optional[int] = None,
        lease_ttl: float = 30.0,
        policy: Optional[ResiliencePolicy] = None,
        cache: Optional[TrialCache] = None,
        campaign: Optional[str] = None,
        bus=None,
        poll: float = 0.2,
        max_idle: Optional[float] = None,
        pool: Optional[WorkerPool] = None,
        crash_after: Optional[int] = None,
        store_retry: bool = True,
        dispatch: Optional[DispatchStats] = None,
    ):
        self.worker_id = worker_id or default_worker_id()
        if store_retry and not isinstance(store, RetryingStore):
            # Transient 'database is locked' faults get bounded, jittered
            # retries instead of crashing the drain loop.  Seeded by the
            # worker id: deterministic per worker, decorrelated across
            # workers.
            store = RetryingStore(
                store, rng=random.Random(f"farm-retry:{self.worker_id}")
            )
        self.store = store
        self.jobs = max(1, jobs)
        self.batch_size = batch_size or max(2, self.jobs * 2)
        self.lease_ttl = lease_ttl
        self.policy = policy or ResiliencePolicy()
        self.cache = cache
        self.campaign = campaign
        self.bus = bus
        self.poll = poll
        self.max_idle = max_idle
        self.pool = pool
        self.crash_after = crash_after
        self.dispatch = dispatch
        self._cache_buffer: List = []
        self.stats: Dict[str, int] = {
            "claimed": 0, "completed": 0, "failed": 0, "quarantined": 0,
            "reaped": 0, "stale": 0, "batches": 0, "abandoned": 0,
        }

    # -- event plumbing ----------------------------------------------------

    def _publish(self, event) -> None:
        if self.bus is not None and self.bus.active:
            self.bus.publish(event)

    def _announce(self, leases: List[LeasedTrial], reaped) -> None:
        from ..obs.events import FarmLeaseExpired, FarmTrialClaimed

        for reap in reaped:
            self.stats["reaped"] += 1
            self._publish(FarmLeaseExpired(
                -1, reap.key[:12], reap.worker, reap.attempts,
                reap.quarantined,
            ))
        for lease in leases:
            self.stats["claimed"] += 1
            self._publish(FarmTrialClaimed(
                -1, lease.key[:12], self.worker_id, lease.attempts,
            ))

    # -- outcome plumbing --------------------------------------------------

    def _settle(self, lease: LeasedTrial, outcome: Any, telemetry,
                heartbeat: _Heartbeat) -> None:
        """Report one trial's outcome against its lease."""
        from ..obs.events import TrialQuarantined, TrialRetried, TrialTimedOut

        heartbeat.release(lease.token)
        if isinstance(outcome, TrialFailure):
            if outcome.kind == "timeout":
                self._publish(TrialTimedOut(
                    -1, lease.key[:12], self.policy.trial_timeout
                ))
            verdict = self.store.fail(
                lease.token, outcome.detail, self.policy
            )
            if verdict == "stale":
                self.stats["stale"] += 1
            elif verdict == "quarantined":
                self.stats["quarantined"] += 1
                self._publish(TrialQuarantined(
                    -1, lease.key[:12], lease.attempts, outcome.detail
                ))
            else:
                self.stats["failed"] += 1
                self._publish(TrialRetried(
                    -1, lease.key[:12], lease.attempts, outcome.detail
                ))
            return
        if self.store.complete(lease.token, outcome, telemetry):
            self.stats["completed"] += 1
            if self.cache is not None:
                self._cache_buffer.append((lease.spec, outcome))
            if (self.crash_after is not None
                    and self.stats["completed"] >= self.crash_after):
                # Self-test hook: die exactly like a power cut — no
                # cleanup, leases for the rest of the batch still held.
                os._exit(CRASH_EXIT_CODE)
        else:
            self.stats["stale"] += 1

    # -- execution ---------------------------------------------------------

    def _abandon(self, heartbeat: _Heartbeat,
                 leases: Optional[List[LeasedTrial]] = None) -> None:
        """Give up the given (or all tracked) leases without settling.

        Used when heartbeats are lost: the tokens are likely stale, so
        completing against them would be wasted work at best.  The rows
        simply expire and get reaped/reclaimed by a healthy worker.
        """
        tokens = ([lease.token for lease in leases] if leases is not None
                  else heartbeat.tracked())
        for token in tokens:
            heartbeat.release(token)
        if tokens:
            self.stats["abandoned"] += len(tokens)
            log.warning(
                "worker %s abandoning %d lease(s) after heartbeat loss; "
                "they will expire and be reclaimed", self.worker_id,
                len(tokens),
            )

    def _run_serial(self, leases: List[LeasedTrial],
                    heartbeat: _Heartbeat) -> None:
        for index, lease in enumerate(leases):
            if heartbeat.lost.is_set():
                self._abandon(heartbeat, leases[index:])
                return
            outcome, telemetry = guarded_execute_observed(
                lease.spec, self.policy.trial_timeout, time.time()
            )
            self._settle(lease, outcome, telemetry, heartbeat)

    def _run_pooled(self, leases: List[LeasedTrial],
                    heartbeat: _Heartbeat) -> None:
        pool = self.pool if self.pool is not None else shared_pool()
        cache_root = str(self.cache.root) if self.cache is not None else None

        def submit(indices: List[int], pin: Optional[int] = None) -> None:
            pool.submit(pool.make_task(
                indices=indices,
                specs=[leases[index].spec for index in indices],
                observed=True, capture=True,
                timeout=self.policy.trial_timeout,
                cache_root=cache_root, pin=pin,
            ))

        with pool.scoped(self.dispatch):
            pool.ensure(self.jobs)
            pool.limit(self.jobs)
            chunk = max(1, -(-len(leases) // self.jobs))
            outstanding = 0
            for start in range(0, len(leases), chunk):
                submit(list(range(start, min(start + chunk, len(leases)))))
                outstanding += 1
            try:
                while outstanding:
                    kind, task, payload = pool.wait()
                    outstanding -= 1
                    if kind == "died":
                        if len(task.indices) > 1:
                            # Culprit unknown within the batch: isolate
                            # every trial on the recycled slot, uncharged.
                            for index in task.indices:
                                submit([index], pin=payload)
                            outstanding += len(task.indices)
                            continue
                        self._settle(leases[task.indices[0]], TrialFailure(
                            "error", "pool worker death (recycled in place)",
                        ), None, heartbeat)
                        continue
                    if payload.error is not None:
                        raise payload.error
                    _fold_reply(payload, self.cache)
                    for index, (outcome, telemetry) in zip(
                        task.indices, payload.items
                    ):
                        # Pool workers already flushed successes to the
                        # cache (cache_root); don't buffer a second write.
                        cache, self.cache = self.cache, None
                        try:
                            self._settle(leases[index], outcome, telemetry,
                                         heartbeat)
                        finally:
                            self.cache = cache
            except BaseException:
                pool.abandon_all()
                raise

    # -- the drain loop ----------------------------------------------------

    def drain(self) -> Dict[str, int]:
        """Run until the scope is finished; returns this worker's stats."""
        heartbeat = _Heartbeat(self.store, self.lease_ttl)
        heartbeat.start()
        idle = 0.0
        failure_rounds = 0
        try:
            while True:
                if heartbeat.lost.is_set():
                    self._abandon(heartbeat)
                    break
                leases, reaped = self.store.claim_batch(
                    self.worker_id, self.batch_size, self.lease_ttl,
                    self.policy, campaign=self.campaign,
                )
                self._announce(leases, reaped)
                if leases:
                    idle = 0.0
                    self.stats["batches"] += 1
                    heartbeat.track([lease.token for lease in leases])
                    before_failed = self.stats["failed"]
                    if self.jobs > 1:
                        self._run_pooled(leases, heartbeat)
                    else:
                        self._run_serial(leases, heartbeat)
                    if self.cache is not None and self._cache_buffer:
                        self.cache.put_many(self._cache_buffer)
                        self._cache_buffer = []
                    if self.stats["failed"] > before_failed:
                        delay = self.policy.backoff_seconds(failure_rounds)
                        failure_rounds += 1
                        if delay > 0:
                            time.sleep(delay)
                    else:
                        failure_rounds = 0
                    continue
                counts = self.store.counts(self.campaign)
                if counts["pending"] + counts["failed"] \
                        + counts["leased"] == 0:
                    break
                # Only live leases held elsewhere (or a backoff window)
                # remain: idle briefly, then look again — an expired
                # lease shows up as claimable on the next pass.
                time.sleep(self.poll)
                idle += self.poll
                if self.max_idle is not None and idle >= self.max_idle:
                    break
        finally:
            heartbeat.stop()
        return dict(self.stats)
