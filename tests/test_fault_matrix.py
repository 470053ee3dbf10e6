"""One fault matrix over the three pooled backends.

Every pooled backend (threads, the shared-memory process pool, the
distributed socket backend) schedules its chunks through the same
:class:`~repro.execution.scheduler.ChunkScheduler`, so one policy must
behave the same on all of them: retries stay bit-identical to
:class:`SerialBackend`, fail-fast propagates the fault, exhausted retries
raise :exc:`RecoveryExhaustedError`, degradation stays bit-identical and
records where it landed, a corrupt payload is charged to its chunk's
retry budget, and a coordinator killed mid-run resumes bit-identically
from the ledger.  Backend-specific behaviour (the wedged pool, link
rebalance, respawns) stays in ``test_resilience.py`` and
``test_distributed.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.circuits import random_brickwork_circuit
from repro.execution import (
    CheckpointJob,
    CheckpointStore,
    DistributedBackend,
    DistributedWorkerError,
    FaultInjector,
    FaultPolicy,
    FaultSpec,
    InjectedCoordinatorDeath,
    RecoveryExhaustedError,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadPoolBackend,
)
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

pytestmark = pytest.mark.faults

WORKERS = 2

BACKENDS = [
    pytest.param("threads", id="threads"),
    pytest.param("process-pool", id="process-pool"),
    pytest.param("distributed", id="distributed", marks=pytest.mark.distributed),
]

#: Where a degrading run lands: the chain is ("threads", "serial"), and a
#: thread run skips the substrate that just failed.
DEGRADED_TO = {"threads": "serial", "process-pool": "threads", "distributed": "threads"}


def _make_backend(kind):
    if kind == "threads":
        return ThreadPoolBackend(WORKERS)
    if kind == "process-pool":
        return SharedMemoryProcessPoolBackend(WORKERS)
    return DistributedBackend(num_workers=WORKERS)


@pytest.fixture(scope="module")
def case():
    circ = random_brickwork_circuit(6, 4, seed=13)
    bits = [int(b) for b in np.random.default_rng(13).integers(0, 2, 6)]
    tn = amplitude_network(circ, bits)
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    sliced = sorted(tn.inner_indices())[:4]
    serial = SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()
    return tn, tree, sliced, serial


@pytest.fixture
def backends():
    """Builds backends for one test and closes every one afterwards."""
    made = []

    def build(kind):
        made.append(_make_backend(kind))
        return made[-1]

    yield build
    for backend in made:
        backend.close()


def _executor(case, backend, policy, *faults):
    tn, tree, sliced, _ = case
    return SlicedExecutor(
        tn,
        tree,
        sliced,
        backend=backend,
        fault_policy=policy,
        fault_injector=FaultInjector(list(faults)),
    )


@pytest.mark.parametrize("kind", BACKENDS)
def test_retry_is_bit_identical(case, backends, kind):
    executor = _executor(
        case,
        backends(kind),
        FaultPolicy.retrying(max_retries=2, backoff_seconds=0.0),
        FaultSpec("poison-pickle", chunk=1),
    )
    assert executor.amplitude() == case[3]
    assert executor.stats.faults == 1
    assert executor.stats.retries == 1
    assert executor.stats.degraded_to is None


@pytest.mark.parametrize("kind", BACKENDS)
def test_fail_fast_propagates(case, backends, kind):
    executor = _executor(
        case,
        backends(kind),
        FaultPolicy.fail_fast(),
        FaultSpec("poison-pickle", chunk=0),
    )
    # the worker's own error, not a recovery error: remote workers ship
    # it as repr + traceback
    with pytest.raises((pickle.UnpicklingError, DistributedWorkerError)):
        executor.amplitude()
    assert executor.stats.retries == 0


@pytest.mark.parametrize("kind", BACKENDS)
def test_retry_exhaustion_raises(case, backends, kind):
    executor = _executor(
        case,
        backends(kind),
        FaultPolicy.retrying(max_retries=1, backoff_seconds=0.0),
        FaultSpec("poison-pickle", chunk=0, times=1000),
    )
    with pytest.raises(RecoveryExhaustedError):
        executor.amplitude()


@pytest.mark.parametrize("kind", BACKENDS)
def test_degrade_is_bit_identical(case, backends, kind):
    executor = _executor(
        case,
        backends(kind),
        FaultPolicy.degrading(max_retries=1, backoff_seconds=0.0),
        FaultSpec("poison-pickle", chunk=0, times=1000),
    )
    assert executor.amplitude() == case[3]
    assert executor.stats.degraded_to == DEGRADED_TO[kind]


@pytest.mark.parametrize("kind", BACKENDS)
def test_degrade_with_empty_chain_raises(case, backends, kind):
    executor = _executor(
        case,
        backends(kind),
        FaultPolicy.degrading(
            max_retries=1, backoff_seconds=0.0, degradation_chain=()
        ),
        FaultSpec("poison-pickle", chunk=0, times=1000),
    )
    with pytest.raises(RecoveryExhaustedError):
        executor.amplitude()
    assert executor.stats.degraded_to is None


@pytest.mark.parametrize("kind", BACKENDS)
def test_corrupt_result_is_charged_to_the_chunk(case, backends, kind):
    policy = FaultPolicy.retrying(max_retries=1, backoff_seconds=0.0)
    once = _executor(
        case, backends(kind), policy, FaultSpec("corrupt-result", chunk=0, seconds=11)
    )
    assert once.amplitude() == case[3]
    assert once.stats.faults == 1
    assert once.stats.retries == 1
    # the same chunk corrupted again on its retry exceeds max_retries=1
    twice = _executor(
        case,
        backends(kind),
        policy,
        FaultSpec("corrupt-result", chunk=0, seconds=11, times=1000),
    )
    with pytest.raises(RecoveryExhaustedError):
        twice.amplitude()


@pytest.mark.parametrize("kind", BACKENDS)
def test_kill_coordinator_then_resume_is_bit_identical(case, backends, kind, tmp_path):
    store = CheckpointStore(tmp_path / "store")
    interrupted = _executor(
        case,
        backends(kind),
        FaultPolicy.retrying(),
        FaultSpec("kill-coordinator", chunk=1),
    )
    with pytest.raises(InjectedCoordinatorDeath):
        interrupted.run(resume=store)
    resumed = _executor(case, backends(kind), FaultPolicy.retrying())
    assert resumed.amplitude(resume=store) == case[3]
    # harvest ordinals 0 and 1 were durable before the death
    assert resumed.stats.resumed_slots >= 2
    assert store.jobs() == []


@pytest.mark.parametrize("kind", BACKENDS)
def test_ledger_write_error_propagates(case, backends, kind, tmp_path, monkeypatch):
    record_chunk = CheckpointJob.record_chunk
    calls = []

    def failing_once(self, positions, arrays):
        calls.append(list(positions))
        if len(calls) == 1:
            raise OSError("disk full")
        record_chunk(self, positions, arrays)

    monkeypatch.setattr(CheckpointJob, "record_chunk", failing_once)
    executor = _executor(case, backends(kind), FaultPolicy.retrying())
    # a failing disk is not a chunk fault: nothing is retried
    with pytest.raises(OSError, match="disk full"):
        executor.run(resume=CheckpointStore(tmp_path / "store"))
    assert executor.stats.faults == 0
    assert executor.stats.retries == 0
    assert len(calls) == 1
