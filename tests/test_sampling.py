"""Tests of correlated-sample batches and the XEB estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import StateVectorSimulator, random_brickwork_circuit
from repro.circuits.statevector import simulate_statevector
from repro.execution import SerialBackend, SharedMemoryProcessPoolBackend
from repro.execution import sampling as sampling_module
from repro.execution.sampling import (
    CorrelatedSampleBatch,
    CorrelatedSampler,
    linear_xeb_fidelity,
)
from repro.paths.optimizer import HyperOptimizer


@pytest.fixture(scope="module")
def sampler_case():
    circuit = random_brickwork_circuit(6, 4, seed=21)
    base = (1, 0, 0, 1, 0, 1)
    sampler = CorrelatedSampler(circuit, open_qubits=(1, 4), max_trials=4, seed=0)
    batch = sampler.compute_batch(base)
    reference = StateVectorSimulator(6).run(circuit)
    return circuit, base, sampler, batch, reference


class TestCorrelatedBatch:
    def test_batch_shape(self, sampler_case):
        _, _, sampler, batch, _ = sampler_case
        assert batch.open_qubits == (1, 4)
        assert batch.amplitudes.shape == (2, 2)
        assert batch.num_samples == 4
        assert batch.num_open_qubits == 2

    def test_amplitudes_match_statevector(self, sampler_case):
        circuit, base, _, batch, reference = sampler_case
        for b1 in range(2):
            for b4 in range(2):
                bits = list(base)
                bits[1], bits[4] = b1, b4
                assert batch.amplitudes[b1, b4] == pytest.approx(
                    reference.amplitude(bits), abs=1e-9
                )
                assert batch.amplitude_of(bits) == pytest.approx(
                    reference.amplitude(bits), abs=1e-9
                )

    def test_bitstrings_enumeration(self, sampler_case):
        _, base, _, batch, _ = sampler_case
        strings = batch.bitstrings()
        assert strings.shape == (4, 6)
        # closed qubits keep the base value on every row
        for q in (0, 2, 3, 5):
            assert np.all(strings[:, q] == base[q])
        # open qubits enumerate all four combinations
        assert len({tuple(row[[1, 4]]) for row in strings}) == 4

    def test_amplitude_of_rejects_wrong_base(self, sampler_case):
        _, base, _, batch, _ = sampler_case
        bits = list(base)
        bits[0] ^= 1  # flip a closed qubit
        with pytest.raises(ValueError):
            batch.amplitude_of(bits)
        with pytest.raises(ValueError):
            batch.amplitude_of(bits[:-1])

    def test_probabilities_and_sampling(self, sampler_case):
        _, _, _, batch, _ = sampler_case
        probs = batch.probabilities()
        assert probs.shape == (4,)
        assert np.all(probs >= 0)
        draws = batch.sample(32, seed=3)
        assert draws.shape == (32, 6)
        assert set(np.unique(draws)) <= {0, 1}

    def test_sliced_batch_matches_unsliced(self, sampler_case):
        circuit, base, _, batch, _ = sampler_case
        sampler = CorrelatedSampler(circuit, open_qubits=(1, 4), max_trials=4, seed=1)
        network, _, _ = sampler.build_network(base, concrete=True)
        inner = sorted(network.inner_indices())[:2]
        sliced_batch = sampler.compute_batch(base, sliced=inner)
        assert np.allclose(sliced_batch.amplitudes, batch.amplitudes, atol=1e-9)

    def test_target_rank_driven_slicing(self):
        circuit = random_brickwork_circuit(6, 4, seed=22)
        sampler = CorrelatedSampler(
            circuit, open_qubits=(0, 5), target_rank=4, max_trials=4, seed=2
        )
        batch = sampler.compute_batch([0] * 6)
        reference = StateVectorSimulator(6).run(circuit)
        bits = [0] * 6
        assert batch.amplitude_of(bits) == pytest.approx(reference.amplitude(bits), abs=1e-8)


_PLAN_ONCE_CIRCUIT = random_brickwork_circuit(8, 6, seed=31)
_PLAN_ONCE_KWARGS = dict(open_qubits=(2, 5), target_rank=4, max_trials=4, seed=3)
_PLAN_ONCE_BASES = [
    (0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 1, 0, 0, 1, 0),
    (0, 1, 0, 0, 1, 1, 0, 1),
    (1, 1, 0, 1, 0, 1, 1, 1),
]


@pytest.fixture
def search_calls(monkeypatch):
    """Count HyperOptimizer.search calls made while the test runs."""
    calls = []
    original = HyperOptimizer.search

    def counting_search(self, network):
        calls.append(network.num_tensors)
        return original(self, network)

    monkeypatch.setattr(HyperOptimizer, "search", counting_search)
    return calls


def _statevector_batch(state, base, open_qubits):
    expected = np.empty((2,) * len(open_qubits), dtype=complex)
    for values in np.ndindex(*expected.shape):
        bits = list(base)
        for qubit, bit in zip(open_qubits, values):
            bits[qubit] = bit
        expected[values] = state[int("".join(map(str, bits)), 2)]
    return expected


class TestPlanOnce:
    @pytest.fixture(scope="class")
    def fresh_batches(self):
        # one sampler per base: every batch searches its own path
        return [
            CorrelatedSampler(_PLAN_ONCE_CIRCUIT, **_PLAN_ONCE_KWARGS).compute_batch(base)
            for base in _PLAN_ONCE_BASES
        ]

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    def test_one_search_serves_every_base(self, fresh_batches, search_calls, kind):
        backend = (
            SerialBackend() if kind == "serial" else SharedMemoryProcessPoolBackend(2)
        )
        state = simulate_statevector(_PLAN_ONCE_CIRCUIT)
        with CorrelatedSampler(
            _PLAN_ONCE_CIRCUIT, backend=backend, **_PLAN_ONCE_KWARGS
        ) as sampler, sampler.session():
            batches = [sampler.compute_batch(base) for base in _PLAN_ONCE_BASES]
        assert len(search_calls) == 1
        # the cached plan slices two indices: four subtasks per batch
        assert sampler.stats.executions == 4 * len(_PLAN_ONCE_BASES)
        for base, batch, fresh in zip(_PLAN_ONCE_BASES, batches, fresh_batches):
            np.testing.assert_array_equal(batch.amplitudes, fresh.amplitudes)
            expected = _statevector_batch(state, base, sampler.open_qubits)
            np.testing.assert_allclose(batch.amplitudes, expected, rtol=0, atol=1e-9)

    def test_explicit_slicing_is_per_call(self, fresh_batches, search_calls, monkeypatch):
        slicings = []

        class RecordingExecutor(sampling_module.SlicedExecutor):
            def __init__(self, network, tree, sliced, **kwargs):
                slicings.append(frozenset(sliced))
                super().__init__(network, tree, sliced, **kwargs)

        monkeypatch.setattr(sampling_module, "SlicedExecutor", RecordingExecutor)
        sampler = CorrelatedSampler(_PLAN_ONCE_CIRCUIT, **_PLAN_ONCE_KWARGS)
        first, second, third = _PLAN_ONCE_BASES[:3]
        network, _, _ = sampler.build_network(first)
        explicit = frozenset(sorted(network.inner_indices())[:3])
        explicit_batch = sampler.compute_batch(first, sliced=explicit)
        derived_batches = [sampler.compute_batch(base) for base in (second, third)]

        assert len(search_calls) == 1
        derived = slicings[1]
        assert slicings == [explicit, derived, derived]
        assert derived != explicit and len(derived) == 2
        np.testing.assert_allclose(
            explicit_batch.amplitudes, fresh_batches[0].amplitudes, rtol=0, atol=1e-12
        )
        for batch, fresh in zip(derived_batches, fresh_batches[1:3]):
            np.testing.assert_array_equal(batch.amplitudes, fresh.amplitudes)


class TestSamplerValidation:
    def test_requires_open_qubits(self):
        circuit = random_brickwork_circuit(4, 2, seed=0)
        with pytest.raises(ValueError):
            CorrelatedSampler(circuit, open_qubits=())

    def test_open_qubit_range_checked(self):
        circuit = random_brickwork_circuit(4, 2, seed=0)
        with pytest.raises(ValueError):
            CorrelatedSampler(circuit, open_qubits=(9,))

    def test_base_bitstring_length_checked(self):
        circuit = random_brickwork_circuit(4, 2, seed=0)
        sampler = CorrelatedSampler(circuit, open_qubits=(0,))
        with pytest.raises(ValueError):
            sampler.build_network([0, 1])


class TestXEB:
    def test_ideal_device_scores_one_on_porter_thomas(self):
        # exponential (Porter-Thomas) probabilities: <p over samples drawn
        # from p> = 2/2^n, so F = 1
        rng = np.random.default_rng(0)
        n = 10
        dim = 2**n
        probs = rng.exponential(1.0 / dim, size=dim)
        probs /= probs.sum()
        draws = rng.choice(dim, size=20000, p=probs)
        fidelity = linear_xeb_fidelity(probs[draws], n)
        assert fidelity == pytest.approx(1.0, abs=0.15)

    def test_uniform_sampler_scores_zero(self):
        rng = np.random.default_rng(1)
        n = 10
        dim = 2**n
        probs = rng.exponential(1.0 / dim, size=dim)
        probs /= probs.sum()
        draws = rng.integers(0, dim, size=20000)
        fidelity = linear_xeb_fidelity(probs[draws], n)
        assert fidelity == pytest.approx(0.0, abs=0.15)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            linear_xeb_fidelity([], 4)
