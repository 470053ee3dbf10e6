"""Fault tolerance for the execution stack: policies, recovery, degradation.

The paper's sliced decomposition (§6) is naturally restartable: every
subtask assignment is an independent, deterministic unit, and the backends
accumulate per-position contributions that are folded strictly in
assignment order *after* all positions are filled.  Recovery therefore
never perturbs the ordered-accumulation contract — a chunk that crashed,
timed out, or was poisoned is simply re-run (on the rebuilt pool, or on a
degraded substrate) until its ordered slot is filled, and the final fold
is bit-identical to a clean :class:`~repro.execution.backend.SerialBackend`
run.

This module carries the *policy* side of that story:

* :class:`FaultPolicy` — what to do when a chunk fails: fail fast (the
  default, and the pre-resilience behaviour), retry with exponential
  backoff and bounded pool rebuilds, or retry and then *degrade* down a
  substrate chain (process pool → thread pool → serial).  Per-chunk
  timeouts can be given explicitly or derived from the calibrated cost
  model's predicted subtask seconds
  (:meth:`~repro.costs.CostModel.timeout_budget`).
* :exc:`FaultError` / :exc:`ChunkTimeoutError` /
  :exc:`RecoveryExhaustedError` — the failure taxonomy the backends raise.
* :func:`fill_missing_serial` / :func:`fill_missing_threads` — the
  degradation executors: given a partially-filled per-position
  contribution list, they re-run exactly the assignments whose ordered
  slots are still empty, in-process.

The policy is applied, for every pooled backend, by one
:class:`~repro.execution.scheduler.ChunkScheduler`: retries, timeouts,
restarts of lost workers and the degradation walk live there, and the
backends only move chunks.  Deterministic fault *injection* lives in
:mod:`repro.execution.faultinject`.

Everything above recovers within one coordinator process.  The rung
above — surviving the coordinator itself dying — is the durable chunk
ledger in :mod:`repro.execution.checkpoint`: arming
:attr:`FaultPolicy.checkpoint_dir` (or passing ``resume=`` to
:meth:`~repro.execution.SlicedExecutor.run`) write-ahead-persists each
harvested ordered slot, every ``checkpoint_every`` completions, so an
interrupted run resumes bit-identically in a fresh process with only the
missing slots re-executed.  :exc:`ChunkIntegrityError` is the checksum
half of that story: a harvested payload that fails its end-to-end CRC
(see the ``"corrupt-result"`` fault kind) is treated as an ordinary
chunk failure — retried under the same budget, never persisted.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..costs.model import CostModel
    from ..tensornet.contraction_tree import ContractionTree
    from ..tensornet.network import TensorNetwork
    from .plan import CompiledPlan, PlanStats

__all__ = [
    "ChunkIntegrityError",
    "ChunkTimeoutError",
    "FaultError",
    "FaultPolicy",
    "RecoveryClock",
    "RecoveryExhaustedError",
    "fill_missing_serial",
    "fill_missing_threads",
    "run_degraded",
]

#: The substrates a degrading pool run falls back to, in order.
DEFAULT_DEGRADATION_CHAIN: Tuple[str, ...] = ("threads", "serial")

_MODES = ("fail-fast", "retry", "degrade")


class FaultError(RuntimeError):
    """Base class for execution-fault errors raised by the backends."""


class ChunkTimeoutError(FaultError):
    """A subtask chunk exceeded its per-chunk timeout budget."""


class ChunkIntegrityError(FaultError):
    """A harvested chunk payload failed its end-to-end checksum.

    Raised by the coordinator's harvest paths when a contribution does
    not match the CRC its chunk runner shipped with it (silent data
    corruption in transit — or the injected ``"corrupt-result"`` fault).
    Routed through the same per-chunk retry budget as any other chunk
    failure; the poisoned payload is discarded before it can reach an
    ordered slot or the durable ledger."""


class RecoveryExhaustedError(FaultError):
    """Retries/rebuilds ran out with ordered slots still empty.

    Attributes
    ----------
    contributions:
        The per-position contribution list at the moment recovery gave
        up: filled slots hold bit-exact results that a degrading caller
        keeps; ``None`` slots are the assignments still to be re-run.
    """

    def __init__(
        self, message: str, contributions: Optional[List[Optional[np.ndarray]]] = None
    ) -> None:
        super().__init__(message)
        self.contributions: List[Optional[np.ndarray]] = (
            contributions if contributions is not None else []
        )


@dataclass(frozen=True)
class FaultPolicy:
    """How a backend responds to worker crashes, timeouts and bad chunks.

    The default-constructed policy is **fail-fast**: the first fault marks
    the session broken and propagates — exactly the pre-resilience
    behaviour, so the zero-fault hot path pays nothing.  Use
    :meth:`retrying` or :meth:`degrading` (or construct explicitly) to opt
    into recovery.

    Parameters
    ----------
    mode:
        ``"fail-fast"`` raises on the first fault; ``"retry"`` re-runs
        failed chunks (rebuilding a broken pool) up to the bounds below
        and raises :exc:`RecoveryExhaustedError` when they run out;
        ``"degrade"`` additionally falls back down
        :attr:`degradation_chain` once pool recovery is exhausted, so the
        run still completes (bit-identically) on a slower substrate.
    max_retries:
        Re-submissions allowed per chunk before recovery gives up.
    max_pool_rebuilds:
        Pool respawn + segment republish cycles allowed per run; ``None``
        defaults to ``max_retries``.
    backoff_seconds / backoff_multiplier:
        Deterministic exponential backoff: re-submission attempt ``k``
        (0-based) sleeps ``backoff_seconds * backoff_multiplier**k``.
    chunk_timeout_seconds:
        Hard wall-time budget for waiting on one chunk; ``None`` disables
        chunk timeouts (unless :attr:`subtask_timeout_seconds` is set).
    subtask_timeout_seconds:
        Per-subtask budget; a chunk of ``n`` subtasks gets
        ``max(min_timeout_seconds, n * subtask_timeout_seconds)``.
        Usually derived from the cost model via :meth:`derived_from`.
    min_timeout_seconds:
        Floor under any derived chunk timeout (predictions for tiny
        subtasks would otherwise produce hair-trigger budgets).
    timeout_safety:
        Multiplier applied to the cost model's predicted subtask seconds
        when :meth:`derived_from` fills :attr:`subtask_timeout_seconds`.
    degradation_chain:
        Substrate names tried, in order, after pool recovery is exhausted
        in ``"degrade"`` mode (subset of ``("threads", "serial")``).
    checkpoint_dir:
        Root directory of a durable
        :class:`~repro.execution.checkpoint.CheckpointStore`.  When set,
        executors arm the write-ahead chunk ledger automatically: every
        run persists harvested slots there and resumes from a matching
        ledger on restart.  Fail-fast semantics — an unwritable root
        raises :exc:`~repro.execution.checkpoint.CheckpointError` at run
        start rather than silently running without durability.  ``None``
        (the default) keeps the hot path ledger-free.
    checkpoint_every:
        Flush the ledger every this many completed slots (>= 1).  A crash
        loses at most ``checkpoint_every - 1`` unflushed slots; raising
        it amortises the fsync cost on small-chunk workloads.
    """

    mode: str = "fail-fast"
    max_retries: int = 2
    max_pool_rebuilds: Optional[int] = None
    backoff_seconds: float = 0.02
    backoff_multiplier: float = 2.0
    chunk_timeout_seconds: Optional[float] = None
    subtask_timeout_seconds: Optional[float] = None
    min_timeout_seconds: float = 1.0
    timeout_safety: float = 50.0
    degradation_chain: Tuple[str, ...] = DEFAULT_DEGRADATION_CHAIN
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.max_pool_rebuilds is not None and self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.backoff_seconds < 0 or self.backoff_multiplier <= 0:
            raise ValueError("backoff must be non-negative with a positive multiplier")
        for substrate in self.degradation_chain:
            if substrate not in DEFAULT_DEGRADATION_CHAIN:
                raise ValueError(
                    f"unknown degradation substrate {substrate!r} "
                    f"(chain must draw from {DEFAULT_DEGRADATION_CHAIN})"
                )

    # ------------------------------------------------------------------
    @classmethod
    def fail_fast(cls) -> "FaultPolicy":
        """The zero-recovery policy: first fault propagates immediately."""
        return cls(mode="fail-fast", max_retries=0, max_pool_rebuilds=0)

    @classmethod
    def retrying(cls, max_retries: int = 2, **kwargs: object) -> "FaultPolicy":
        """Bounded retries + pool rebuilds; raises when they run out."""
        return cls(mode="retry", max_retries=max_retries, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def degrading(cls, max_retries: int = 1, **kwargs: object) -> "FaultPolicy":
        """Retry, then fall back process pool → thread pool → serial."""
        return cls(mode="degrade", max_retries=max_retries, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    @property
    def pool_rebuild_budget(self) -> int:
        """Pool rebuilds allowed per run (``max_pool_rebuilds`` or retries)."""
        if self.mode == "fail-fast":
            return 0
        if self.max_pool_rebuilds is not None:
            return self.max_pool_rebuilds
        return self.max_retries

    @property
    def chunk_retry_budget(self) -> int:
        """Re-submissions allowed per chunk (0 in fail-fast mode)."""
        return 0 if self.mode == "fail-fast" else self.max_retries

    def chunk_timeout(self, num_subtasks: int) -> Optional[float]:
        """Wall-time budget for one chunk of ``num_subtasks`` subtasks."""
        if self.chunk_timeout_seconds is not None:
            return max(self.chunk_timeout_seconds, self.min_timeout_seconds)
        if self.subtask_timeout_seconds is not None:
            return max(
                self.min_timeout_seconds,
                self.subtask_timeout_seconds * max(1, num_subtasks),
            )
        return None

    def backoff(self, attempt: int) -> float:
        """Deterministic exponential backoff before re-submission ``attempt``."""
        return self.backoff_seconds * self.backoff_multiplier ** max(0, attempt)

    def derived_from(
        self,
        cost_model: "CostModel",
        tree: "ContractionTree",
        sliced: frozenset = frozenset(),
        backend: Optional[str] = None,
    ) -> "FaultPolicy":
        """A copy with timeouts budgeted from the cost model's predictions.

        Explicit timeouts are respected (the policy is returned
        unchanged); otherwise ``subtask_timeout_seconds`` becomes
        ``timeout_safety`` times the model's predicted per-subtask
        seconds (:meth:`~repro.costs.CostModel.timeout_budget`).  A model
        that cannot predict this backend leaves the policy timeout-free
        rather than failing the run.
        """
        if (
            self.chunk_timeout_seconds is not None
            or self.subtask_timeout_seconds is not None
        ):
            return self
        from ..costs.model import CostModelError

        try:
            budget = cost_model.timeout_budget(
                tree,
                sliced,
                backend=backend,
                subtasks=1,
                safety=self.timeout_safety,
                floor=0.0,
            )
        except CostModelError:
            return self
        return replace(self, subtask_timeout_seconds=budget)


#: The module-wide default: bit-for-bit the pre-resilience behaviour.
FAIL_FAST = FaultPolicy.fail_fast()


# ----------------------------------------------------------------------
# Degradation executors
# ----------------------------------------------------------------------
def _missing_positions(contributions: List[Optional[np.ndarray]]) -> List[int]:
    return [i for i, c in enumerate(contributions) if c is None]


def fill_missing_serial(
    plan: "CompiledPlan",
    network: "TensorNetwork",
    assignments: Sequence[Mapping[str, int]],
    contributions: List[Optional[np.ndarray]],
    cache: Optional[Dict[int, np.ndarray]],
    sum_batch_axes: int,
    stats: Optional["PlanStats"],
    slots: Optional[object] = None,
) -> None:
    """Fill every empty ordered slot by executing its subtask in-process.

    Only assignments whose slot is still ``None`` run; filled slots keep
    their (bit-exact) pool-computed contributions.  Because each subtask
    is deterministic, the final ordered fold is bit-identical to a clean
    serial run regardless of which slots were recovered.
    """
    from .backend import _owned_contribution
    from .plan import StemSlots

    arena = slots if slots is not None else StemSlots()
    for position in _missing_positions(contributions):
        tensor = plan.execute(
            network, assignments[position], cache=cache, stats=stats, slots=arena
        )
        contributions[position] = _owned_contribution(tensor, sum_batch_axes)


def fill_missing_threads(
    plan: "CompiledPlan",
    network: "TensorNetwork",
    assignments: Sequence[Mapping[str, int]],
    contributions: List[Optional[np.ndarray]],
    cache: Optional[Dict[int, np.ndarray]],
    sum_batch_axes: int,
    stats: Optional["PlanStats"],
    max_workers: int,
) -> None:
    """Thread-pool variant of :func:`fill_missing_serial`.

    numpy releases the GIL inside the contraction kernels, so this is the
    preferred first fallback of a degrading process-pool run: no worker
    processes to respawn, shared address space, still parallel.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .backend import _owned_contribution
    from .plan import PlanStats, StemSlots

    missing = _missing_positions(contributions)
    if not missing:
        return
    thread_state = threading.local()

    def work(position: int) -> "PlanStats":
        local_stats = PlanStats()
        arena = getattr(thread_state, "slots", None)
        if arena is None:
            arena = thread_state.slots = StemSlots()
        tensor = plan.execute(
            network,
            assignments[position],
            cache=cache,
            stats=local_stats,
            slots=arena,
        )
        contributions[position] = _owned_contribution(tensor, sum_batch_axes)
        return local_stats

    with ThreadPoolExecutor(max_workers=max(1, max_workers)) as pool:
        for local_stats in pool.map(work, missing):
            if stats is not None:
                stats.merge(local_stats)


def run_degraded(
    substrate: str,
    plan: "CompiledPlan",
    network: "TensorNetwork",
    assignments: Sequence[Mapping[str, int]],
    contributions: List[Optional[np.ndarray]],
    cache: Optional[Dict[int, np.ndarray]],
    sum_batch_axes: int,
    stats: Optional["PlanStats"],
    max_workers: int,
) -> None:
    """Dispatch one degradation-chain substrate by name."""
    if substrate == "threads":
        fill_missing_threads(
            plan,
            network,
            assignments,
            contributions,
            cache,
            sum_batch_axes,
            stats,
            max_workers,
        )
    elif substrate == "serial":
        fill_missing_serial(
            plan, network, assignments, contributions, cache, sum_batch_axes, stats
        )
    else:  # pragma: no cover - guarded by FaultPolicy validation
        raise ValueError(f"unknown degradation substrate {substrate!r}")


class RecoveryClock:
    """Accumulates wall time spent inside recovery actions onto stats."""

    def __init__(self, stats: Optional["PlanStats"]) -> None:
        self._stats = stats
        self._start: Optional[float] = None

    def __enter__(self) -> "RecoveryClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._stats is not None and self._start is not None:
            self._stats.recovery_seconds += time.perf_counter() - self._start
        self._start = None
