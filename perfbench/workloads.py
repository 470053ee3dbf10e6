"""The benchmark's three workloads.

Each is a closed loop with one client: :meth:`Workload.run` is one
operation and the next starts when it returns.  The workload seed makes
the circuits and the bitstrings; the planner seeds are fixed settings of
each workload, so every seed plans networks of the same structure and
the work per operation does not depend on the seed.

* ``ladder-plan`` — one amplitude of a small grid RQC per operation,
  from circuit to value, alternating two rungs.  Path search and slicing
  dominate, so planner changes show here and executor changes should not.
* ``sliced-exec`` — one fixed 20-qubit sliced plan, made in setup and
  executed once per operation.  No planning in the loop, so execution
  changes show here and planner changes move only the setup time.
* ``sampling-pool`` — 16 correlated amplitudes per operation through a
  two-worker shared-memory process pool with every slot written to a
  checkpoint ledger.  The only workload that crosses the pool, the
  resilient chunk loop and the checkpoint write path.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from repro import SimulationPlanner
from repro.circuits import grid_circuit
from repro.circuits.statevector import simulate_statevector
from repro.execution import (
    CorrelatedSampler,
    FaultPolicy,
    SerialBackend,
    SharedMemoryProcessPoolBackend,
)


def _random_bits(rng: np.random.Generator, n: int) -> Tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, size=n))


def _state_index(bits: Sequence[int]) -> int:
    """Statevector index of a bitstring (qubit 0 is the most significant bit)."""
    index = 0
    for bit in bits:
        index = (index << 1) | int(bit)
    return index


class Workload:
    """One closed-loop workload.

    ``setup`` is the system's start-up work and counts in ``setup_s``;
    ``prepare_oracle``, ``make_input`` and ``error`` are the benchmark's
    own work and are never timed.
    """

    name = ""
    #: rungs the operations cycle through; latency medians are per rung
    rungs = 1
    #: amplitudes one operation returns
    amps_per_op = 1
    #: kind of ``host.ReferenceKernel`` that slows down as this workload does
    reference = "mixed"

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.warmup_input: object = None
        self.warmup_result: object = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        raise NotImplementedError

    def make_input(self, index: int) -> object:
        raise NotImplementedError

    def run(self, inp: object) -> object:
        raise NotImplementedError

    def error(self, inp: object, result: object) -> float:
        """Relative error of ``result`` against the oracle's norm."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class LadderPlan(Workload):
    name = "ladder-plan"
    #: (rows, cols, cycles), target rank
    RUNGS = (((3, 4, 8), 7), ((4, 4, 10), 9))
    rungs = len(RUNGS)
    PLANNER_SEED = 0
    # the planner is pure-Python search over dicts, sets and heaps
    reference = "containers"
    #: circuits per rung; operations cycle through them with fresh bitstrings
    CIRCUITS_PER_RUNG = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.circuits = [
            [
                grid_circuit(*shape, seed=int(self.rng.integers(2**31)))
                for _ in range(self.CIRCUITS_PER_RUNG)
            ]
            for shape, _ in self.RUNGS
        ]
        self.states: Dict[Tuple[int, int], np.ndarray] = {}

    def setup(self) -> None:
        self.backend = SerialBackend()
        self.warmup_input = self.make_input(0)
        self.warmup_result = self.run(self.warmup_input)

    def prepare_oracle(self) -> None:
        for rung, circuits in enumerate(self.circuits):
            for k, circuit in enumerate(circuits):
                self.states[rung, k] = simulate_statevector(circuit)

    def make_input(self, index: int) -> Tuple[int, int, Tuple[int, ...]]:
        rung = index % self.rungs
        k = (index // self.rungs) % self.CIRCUITS_PER_RUNG
        circuit = self.circuits[rung][k]
        return rung, k, _random_bits(self.rng, circuit.num_qubits)

    def run(self, inp) -> complex:
        rung, k, bits = inp
        planner = SimulationPlanner(
            target_rank=self.RUNGS[rung][1], seed=self.PLANNER_SEED, backend=self.backend
        )
        plan = planner.plan_circuit(self.circuits[rung][k], bitstring=bits, concrete=True)
        return planner.execute_plan(plan)

    def error(self, inp, result) -> float:
        rung, k, bits = inp
        expected = self.states[rung, k][_state_index(bits)]
        return abs(complex(result) - expected) / abs(expected)


class SlicedExec(Workload):
    name = "sliced-exec"
    SHAPE = (4, 5, 16)
    TARGET_RANK = 17
    PLANNER_SEED = 3

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.circuit = grid_circuit(*self.SHAPE, seed=int(self.rng.integers(2**31)))
        self.bits = _random_bits(self.rng, self.circuit.num_qubits)

    def setup(self) -> None:
        self.planner = SimulationPlanner(
            target_rank=self.TARGET_RANK, seed=self.PLANNER_SEED, backend=SerialBackend()
        )
        self.plan = self.planner.plan_circuit(self.circuit, bitstring=self.bits, concrete=True)
        self.warmup_result = self.run(None)

    def prepare_oracle(self) -> None:
        self.expected = simulate_statevector(self.circuit)[_state_index(self.bits)]

    def make_input(self, index: int) -> None:
        return None

    def run(self, inp) -> complex:
        return self.planner.execute_plan(self.plan)

    def error(self, inp, result) -> float:
        return abs(complex(result) - self.expected) / abs(self.expected)


class SamplingPool(Workload):
    name = "sampling-pool"
    SHAPE = (4, 5, 12)
    OPEN_QUBITS = (5, 6, 7, 8)
    TARGET_RANK = 15
    SAMPLER_SEED = 3
    WORKERS = 2
    amps_per_op = 2 ** len(OPEN_QUBITS)

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.circuit = grid_circuit(*self.SHAPE, seed=int(self.rng.integers(2**31)))
        self._stack = contextlib.ExitStack()

    def setup(self) -> None:
        checkpoint_dir = self.work_dir / f"checkpoints-{os.getpid()}"
        self.sampler = CorrelatedSampler(
            self.circuit,
            self.OPEN_QUBITS,
            target_rank=self.TARGET_RANK,
            seed=self.SAMPLER_SEED,
            backend=SharedMemoryProcessPoolBackend(max_workers=self.WORKERS),
            fault_policy=FaultPolicy(checkpoint_dir=str(checkpoint_dir)),
        )
        self._stack.enter_context(self.sampler)
        self._stack.enter_context(self.sampler.session())
        self.warmup_input = self.make_input(0)
        self.warmup_result = self.run(self.warmup_input)

    def prepare_oracle(self) -> None:
        self.state = simulate_statevector(self.circuit)

    def make_input(self, index: int) -> Tuple[int, ...]:
        return _random_bits(self.rng, self.circuit.num_qubits)

    def run(self, base):
        return self.sampler.compute_batch(base)

    def error(self, base, batch) -> float:
        expected = np.empty(batch.amplitudes.shape, dtype=complex)
        for values in np.ndindex(*expected.shape):
            bits = list(base)
            for qubit, bit in zip(self.OPEN_QUBITS, values):
                bits[qubit] = bit
            expected[values] = self.state[_state_index(bits)]
        return float(
            np.linalg.norm(batch.amplitudes - expected) / np.linalg.norm(expected)
        )

    def close(self) -> None:
        self._stack.close()


WORKLOADS = {cls.name: cls for cls in (LadderPlan, SlicedExec, SamplingPool)}

