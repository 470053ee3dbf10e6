"""One chunk scheduler under every pooled backend.

A sliced contraction is a list of independent subtasks, farmed out in
contiguous *chunks*.  The thread pool, the shared-memory process pool and
the distributed backend differ only in how a chunk reaches a worker and
how its result comes back; what to do when a chunk fails, hangs, or takes
its worker down with it is one policy
(:class:`~repro.execution.resilience.FaultPolicy`), and
:class:`ChunkScheduler` holds it once:

* ordered contribution slots, pre-filled from the durable ledger
  (:class:`~repro.execution.checkpoint.CheckpointJob`) so only chunks with
  an empty slot are scheduled;
* the per-chunk retry budget and backoff, timed by
  :class:`~repro.execution.resilience.RecoveryClock`;
* the worker-loss budget (``policy.pool_rebuild_budget``): lost workers
  are restarted only when none is left;
* per-chunk deadlines, started when a chunk is first seen running;
* harvest, in this order: verify checksums, write slots,
  ``stats.merge``, ``checkpoint.record_chunk``, coordinator directive;
* the terminal decision: fail-fast re-raises the fault, retry raises
  :exc:`~repro.execution.resilience.RecoveryExhaustedError`, degrade
  walks ``policy.degradation_chain`` (skipping the substrate that just
  failed) over the slots still empty.

Each backend supplies a :class:`ChunkChannel`, a transport that can
submit a chunk, wait for completions with a timeout, sever a stuck
chunk's worker and restart lost workers.  What those mean differs by
backend and nowhere else:

================= =========================== =============================
channel           a lost worker               a chunk timeout
================= =========================== =============================
threads           never happens               not enforced (a running
                                              thread cannot be preempted)
process pool      breaks the pool: every      aborts the pool; restart
                  in-flight chunk is lost,    republishes the segments
                  restart respawns the pool   under a new generation
distributed       one link: its in-flight     severs that link; its chunk
                  chunk is re-queued, respawn is re-queued
                  only when no worker is left
================= =========================== =============================

A lost worker's chunk is re-queued without touching that chunk's retry
budget; only faults the chunk itself raised (an exception, a failed
checksum) are charged to it.  Contributions are folded by the backend
strictly in assignment order after every slot is filled, so every
recovered or degraded run is bit-identical to
:class:`~repro.execution.backend.SerialBackend`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    ContextManager,
    Deque,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from .checkpoint import verify_payload
from .faultinject import apply_coordinator_directive
from .resilience import (
    ChunkIntegrityError,
    ChunkTimeoutError,
    RecoveryClock,
    RecoveryExhaustedError,
    run_degraded,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tensornet.network import TensorNetwork
    from .checkpoint import CheckpointJob
    from .faultinject import Directive, FaultInjector
    from .plan import CompiledPlan, PlanStats
    from .resilience import FaultPolicy

__all__ = [
    "ChunkChannel",
    "ChunkResult",
    "ChunkScheduler",
    "Completion",
    "WorkerLoss",
]

#: ``[(position, assignment), ...]`` — one chunk of positioned subtasks.
Chunk = List[Tuple[int, Mapping[str, int]]]

#: How often the scheduler re-checks whether a queued chunk has started:
#: a chunk's deadline starts when it is first seen running, so chunks
#: queued behind busy workers do not burn their budget while waiting.
_TIMEOUT_POLL_SECONDS = 0.05


class ChunkResult(NamedTuple):
    """What a worker returns for one chunk."""

    #: One contribution per position of the chunk, in chunk order.
    arrays: List[np.ndarray]
    #: CRC-32 of each contribution, taken before the payload left the worker.
    checksums: Optional[List[int]]
    #: The worker's counters for this chunk.
    stats: "PlanStats"


class Completion(NamedTuple):
    """A chunk came back: with its result, or with the error it raised."""

    chunk: int
    result: Optional[ChunkResult] = None
    error: Optional[BaseException] = None


class WorkerLoss(NamedTuple):
    """Workers went away, taking the chunks in flight on them along."""

    chunks: Tuple[int, ...]
    error: BaseException


Event = Union[Completion, WorkerLoss]


class ChunkChannel:
    """A backend's transport, as seen by :class:`ChunkScheduler`.

    A channel only moves chunks: it never retries, counts or gives up.
    Every outcome reaches the scheduler through :meth:`wait`, including
    losses that :meth:`submit` or :meth:`sever` caused.
    """

    #: Substrate name; a degrading run skips it in the degradation chain.
    substrate = "channel"
    #: Whether a running chunk can be stopped (by severing its worker), so
    #: per-chunk timeouts are enforced.
    preemptible = False
    #: Whether :meth:`restart` can replace lost workers.
    restartable = False

    def capacity(self) -> int:
        """How many more chunks can be submitted right now."""
        raise NotImplementedError

    def submit(
        self, chunk: int, items: Chunk, directive: Optional["Directive"], resend: bool
    ) -> None:
        """Send chunk ``chunk`` (``resend``: it was submitted before)."""
        raise NotImplementedError

    def started(self, chunk: int) -> bool:
        """Whether a worker has begun running ``chunk``."""
        return True

    def wait(self, timeout: Optional[float]) -> List[Event]:
        """Block until something completes or ``timeout`` passes."""
        raise NotImplementedError

    def sever(self, chunk: int, error: BaseException) -> None:
        """Cut the worker running ``chunk``; :meth:`wait` reports the loss."""
        raise NotImplementedError

    def workers(self) -> int:
        """Workers currently alive."""
        raise NotImplementedError

    def restart(self) -> None:
        """Bring up replacements once every worker is lost."""
        raise NotImplementedError


class ChunkScheduler:
    """Runs one ``run_subtasks`` call's chunks over a :class:`ChunkChannel`.

    Construct with the run's plan, inputs and policy, then call
    :meth:`run`; it returns the per-position contributions, every slot
    filled, for the backend's ordered fold.
    """

    def __init__(
        self,
        plan: "CompiledPlan",
        network: "TensorNetwork",
        assignments: Sequence[Mapping[str, int]],
        cache: Optional[Dict[int, np.ndarray]],
        sum_batch_axes: int,
        stats: Optional["PlanStats"],
        policy: "FaultPolicy",
        injector: Optional["FaultInjector"] = None,
        checkpoint: Optional["CheckpointJob"] = None,
    ) -> None:
        self.plan = plan
        self.network = network
        self.assignments = assignments
        self.cache = cache
        self.sum_batch_axes = sum_batch_axes
        self.stats = stats
        self.policy = policy
        self.injector = injector
        self.checkpoint = checkpoint
        self.contributions: List[Optional[np.ndarray]] = [None] * len(assignments)
        if checkpoint is not None:
            for position, loaded in checkpoint.loaded.items():
                self.contributions[position] = loaded

    def run(
        self,
        channel_scope: ContextManager[ChunkChannel],
        chunks: List[Chunk],
        max_workers: int,
    ) -> List[Optional[np.ndarray]]:
        """Schedule ``chunks`` until every ordered slot is filled.

        ``channel_scope`` yields the backend's channel for this run; a
        terminal error leaves it before a degrading run falls back to the
        in-process substrates (``max_workers`` threads).
        """
        failed_substrate: Optional[str] = None
        try:
            with channel_scope as channel:
                failed_substrate = channel.substrate
                self._schedule(channel, chunks)
        except RecoveryExhaustedError as exc:
            if self.policy.mode != "degrade":
                raise
            self._degrade(failed_substrate, exc, max_workers)
        return self.contributions

    # ------------------------------------------------------------------
    def _schedule(self, channel: ChunkChannel, chunks: List[Chunk]) -> None:
        policy, stats = self.policy, self.stats
        # a chunk all of whose slots came out of the ledger has nothing
        # left to run; a partly covered one re-runs whole (subtasks are
        # deterministic, and the ledger skips slots it already holds)
        pending: Deque[int] = deque(
            index
            for index, chunk in enumerate(chunks)
            if any(self.contributions[position] is None for position, _ in chunk)
        )
        inflight: Set[int] = set()
        deadlines: Dict[int, float] = {}
        submitted = [False] * len(chunks)
        failures = [0] * len(chunks)
        # chunks whose own fault was charged, re-submitted in one wave
        # once everything else sent has come back
        retry: List[int] = []
        restarts = 0
        last_loss: Optional[BaseException] = None

        while pending or inflight or retry:
            if retry and not pending and not inflight:
                with RecoveryClock(stats):
                    if stats is not None:
                        stats.retries += len(retry)
                    backoff = max(policy.backoff(failures[i] - 1) for i in retry)
                    if backoff > 0:
                        time.sleep(backoff)
                pending.extend(retry)
                retry = []
            # losses reach the scheduler through wait(): restart only
            # once every chunk sent to the lost workers is accounted for
            if not inflight and channel.workers() == 0:
                if not channel.restartable or restarts >= policy.pool_rebuild_budget:
                    raise RecoveryExhaustedError(
                        f"all {channel.substrate} workers are lost with "
                        f"{len(pending)} chunks unfinished (restart budget "
                        f"{policy.pool_rebuild_budget}, used {restarts})",
                        self.contributions,
                    ) from last_loss
                restarts += 1
                with RecoveryClock(stats):
                    backoff = policy.backoff(restarts - 1)
                    if backoff > 0:
                        time.sleep(backoff)
                    channel.restart()
                continue

            while pending and channel.capacity() > 0:
                index = pending.popleft()
                directive = (
                    self.injector.directive_for_next_chunk()
                    if self.injector is not None
                    else None
                )
                channel.submit(index, chunks[index], directive, submitted[index])
                submitted[index] = True
                inflight.add(index)

            wait_timeout = self._arm_deadlines(channel, chunks, inflight, deadlines)
            for event in channel.wait(wait_timeout):
                if isinstance(event, WorkerLoss):
                    last_loss = event.error
                    if stats is not None:
                        stats.faults += 1
                    if policy.mode == "fail-fast":
                        raise event.error
                    for index in event.chunks:
                        inflight.discard(index)
                        deadlines.pop(index, None)
                    if stats is not None:
                        stats.retries += len(event.chunks)
                    pending.extendleft(reversed(event.chunks))
                    continue
                inflight.discard(event.chunk)
                deadlines.pop(event.chunk, None)
                error = event.error
                if error is None:
                    error = self._harvest(chunks[event.chunk], event.result)
                if error is not None:
                    self._charge(event.chunk, error, failures)
                    retry.append(event.chunk)

            now = time.monotonic()
            for index, deadline in list(deadlines.items()):
                if deadline <= now:
                    channel.sever(
                        index,
                        ChunkTimeoutError(
                            f"chunk {index} exceeded its timeout budget on the "
                            f"{channel.substrate} backend"
                        ),
                    )

    def _arm_deadlines(
        self,
        channel: ChunkChannel,
        chunks: List[Chunk],
        inflight: Set[int],
        deadlines: Dict[int, float],
    ) -> Optional[float]:
        """Start the deadline of every newly running chunk; the wait timeout."""
        if not channel.preemptible:
            return None
        now = time.monotonic()
        wait_timeout: Optional[float] = None
        for index in inflight:
            if index in deadlines:
                continue
            budget = self.policy.chunk_timeout(len(chunks[index]))
            if budget is None:
                continue
            if channel.started(index):
                deadlines[index] = now + budget
            else:
                wait_timeout = _TIMEOUT_POLL_SECONDS
        if deadlines:
            nearest = max(0.0, min(deadlines.values()) - now)
            if wait_timeout is None or nearest < wait_timeout:
                wait_timeout = nearest
        return wait_timeout

    def _harvest(self, chunk: Chunk, result: ChunkResult) -> Optional[BaseException]:
        """Take a returned chunk in; a corrupt payload comes back as the error.

        Ledger errors propagate: a failing disk is not a chunk fault.
        """
        if len(result.arrays) != len(chunk) or not verify_payload(
            result.arrays, result.checksums
        ):
            # discarded before it can reach an ordered slot or the ledger
            return ChunkIntegrityError(
                f"chunk starting at position {chunk[0][0]} failed its payload checksum"
            )
        positions = [position for position, _ in chunk]
        for position, contribution in zip(positions, result.arrays):
            self.contributions[position] = contribution
        if self.stats is not None:
            self.stats.merge(result.stats)
        if self.checkpoint is not None:
            self.checkpoint.record_chunk(positions, result.arrays)
        if self.injector is not None:
            # coordinator-side faults fire after the chunk's slots are
            # durable; InjectedCoordinatorDeath is a BaseException, so no
            # recovery path intercepts it
            apply_coordinator_directive(
                self.injector.coordinator_directive_for_next_harvest()
            )
        return None

    def _charge(self, index: int, error: BaseException, failures: List[int]) -> None:
        """Charge a fault the chunk itself raised to its retry budget."""
        policy, stats = self.policy, self.stats
        if stats is not None:
            stats.faults += 1
        failures[index] += 1
        if failures[index] > policy.chunk_retry_budget:
            if policy.mode == "fail-fast":
                raise error
            raise RecoveryExhaustedError(
                f"chunk {index} failed {failures[index]} times: {error!r}",
                self.contributions,
            ) from error

    def _degrade(
        self,
        failed_substrate: Optional[str],
        exc: RecoveryExhaustedError,
        max_workers: int,
    ) -> None:
        """Fill the empty slots down the degradation chain, in-process."""
        for substrate in self.policy.degradation_chain:
            if substrate == failed_substrate:
                continue
            try:
                run_degraded(
                    substrate,
                    self.plan,
                    self.network,
                    self.assignments,
                    self.contributions,
                    self.cache,
                    self.sum_batch_axes,
                    self.stats,
                    max_workers,
                )
            except Exception:
                continue
            if self.stats is not None and self.stats.degraded_to is None:
                self.stats.degraded_to = substrate
            break
        missing = sum(1 for contribution in self.contributions if contribution is None)
        if missing:
            raise RecoveryExhaustedError(
                f"degradation chain {self.policy.degradation_chain} left "
                f"{missing} slots unfilled",
                self.contributions,
            ) from exc
