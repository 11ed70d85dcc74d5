"""Tests for cross-problem sweep batching (repro.solvers.batch).

Covers the packed-layout invariants (energies stay exact under column
padding and slot padding), determinism, ragged batches, the shared
deadline contract, and the two opt-in integration points: gauge-batched
machine sampling and shard rounds packed into one kernel invocation.
"""

import warnings

import numpy as np
import pytest

from repro.ising.model import IsingModel
from repro.solvers import kernels
from repro.solvers.batch import BatchedSweepJob, sample_batched
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.shard import ShardSolver


def _chain(n, coupling=-1.0, field=0.1):
    """A ferromagnetic chain: ground state all-up, easy to anneal."""
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, -abs(field))
    for i in range(n - 1):
        model.add_interaction(i, i + 1, coupling)
    return model


def _random_model(n, seed):
    rng = np.random.default_rng(seed)
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, float(rng.normal(0, 0.5)))
        model.add_interaction(i, (i + 1) % n, float(rng.choice([-1.0, 1.0])))
    return model


def _assert_identical(a, b):
    assert list(a.variables) == list(b.variables)
    np.testing.assert_array_equal(a.records, b.records)
    np.testing.assert_array_equal(a.energies, b.energies)


# ----------------------------------------------------------------------
# Packing invariants
# ----------------------------------------------------------------------
def test_batched_energies_are_exact_per_model():
    """Padding columns / padding slots must never leak into energies."""
    models = [_random_model(9, 1), _random_model(23, 2), _chain(5)]
    job = BatchedSweepJob(seed=4)
    for model in models:
        job.add(model, num_reads=7)
    results = job.run(num_sweeps=30)
    assert len(results) == len(models)
    for model, result in zip(models, results):
        assert list(result.variables) == list(model.variables)
        np.testing.assert_allclose(
            result.energies, model.energies(result.records)
        )


def test_batched_anneal_solves_easy_chains():
    sizes = [6, 11, 17, 9]
    results = sample_batched(
        [_chain(n) for n in sizes], num_reads=20, num_sweeps=200, seed=1
    )
    for n, result in zip(sizes, results):
        ground = -(n - 1) - 0.1 * n  # all-up: every bond and field happy
        assert result.first.energy == pytest.approx(ground)


def test_batched_same_seed_reproducible():
    models = [_random_model(12, 3), _random_model(30, 4)]
    first = sample_batched(models, num_reads=9, num_sweeps=40, seed=77)
    second = sample_batched(models, num_reads=9, num_sweeps=40, seed=77)
    for a, b in zip(first, second):
        _assert_identical(a, b)


def test_ragged_reads_and_sizes():
    job = BatchedSweepJob(seed=0)
    specs = [(_random_model(4, 5), 3), (_random_model(40, 6), 11),
             (_chain(2), 1)]
    for model, reads in specs:
        job.add(model, num_reads=reads)
    assert len(job) == 3
    results = job.run(num_sweeps=20)
    for p, ((model, reads), result) in enumerate(zip(specs, results)):
        assert result.records.shape[1] == len(model)
        assert int(result.occurrences.sum()) == reads
        assert result.info["batch_index"] == p
        assert result.info["batch_size"] == 3
        assert result.info["solver"] == "batched-sa"
        assert result.info["kernel"] == kernels.SPARSE


def test_per_problem_beta_range_override():
    job = BatchedSweepJob(seed=2)
    job.add(_chain(6), num_reads=4)
    job.add(_chain(6), num_reads=4, beta_range=(0.5, 9.0))
    default, overridden = job.run(num_sweeps=25)
    assert overridden.info["beta_range"] == (0.5, 9.0)
    assert default.info["beta_range"] != (0.5, 9.0)


def test_empty_job_and_validation():
    assert BatchedSweepJob().run() == []
    job = BatchedSweepJob()
    with pytest.raises(ValueError):
        job.add(_chain(3), num_reads=0)
    with pytest.raises(ValueError):
        job.add(_chain(3), beta_range=(2.0, 1.0))


# ----------------------------------------------------------------------
# Deadline contract
# ----------------------------------------------------------------------
class _ExpireAfter:
    def __init__(self, polls):
        self.polls = polls
        self.calls = 0

    def expired(self):
        self.calls += 1
        return self.calls > self.polls


def test_deadline_interrupts_whole_batch():
    models = [_random_model(8, 10), _random_model(12, 11)]
    job = BatchedSweepJob(seed=5)
    for model in models:
        job.add(model, num_reads=3)
    results = job.run(
        num_sweeps=kernels.DEADLINE_SWEEP_BATCH * 4,
        deadline=_ExpireAfter(1),
    )
    for result in results:
        assert result.info["deadline_interrupted"] is True
        assert (
            result.info["num_sweeps_completed"]
            == kernels.DEADLINE_SWEEP_BATCH
        )
        # Partial results still carry exact energies.
        np.testing.assert_allclose(
            result.energies,
            models[result.info["batch_index"]].energies(result.records),
        )


# ----------------------------------------------------------------------
# Integration: gauge-batched machine sampling
# ----------------------------------------------------------------------
def _machine_problem():
    props = MachineProperties(cells=4, dropout_fraction=0.0)
    machine = DWaveSimulator(properties=props, seed=11)
    model = IsingModel()
    for u, v in list(machine.working_graph.edges())[:12]:
        model.add_variable(u, 0.25)
        model.add_variable(v, -0.25)
        model.add_interaction(u, v, -1.0)
    return props, model


def test_machine_batch_gauges_deterministic_and_flagged():
    props, model = _machine_problem()

    def run():
        return DWaveSimulator(properties=props, seed=11).sample_ising(
            model,
            num_reads=12,
            num_spin_reversal_transforms=4,
            batch_gauges=True,
        )

    first = run()
    assert first.info.get("batched_gauges") is True
    assert int(first.occurrences.sum()) == 12
    _assert_identical(first, run())


# ----------------------------------------------------------------------
# Integration: batched shard rounds
# ----------------------------------------------------------------------
def _planted_model(n, seed=5):
    rng = np.random.default_rng(seed)
    planted = rng.choice([-1, 1], size=n)
    model = IsingModel()
    for i in range(n):
        model.add_variable(i, -0.25 * float(planted[i]))
    for i in range(n - 1):
        model.add_interaction(i, i + 1, -float(planted[i] * planted[i + 1]))
    ground = model.energy({i: int(planted[i]) for i in range(n)})
    return model, ground


def test_shard_batch_rounds_solves_and_reproduces():
    model, ground = _planted_model(48)

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return ShardSolver(
                properties=MachineProperties(cells=2, dropout_fraction=0.0),
                machines=4,
                seed=3,
                num_reads_per_shard=10,
                batch_rounds=True,
            ).sample(model, num_reads=2)

    first = run()
    assert first.info["shard_completion"] == 1.0
    assert first.first.energy == pytest.approx(ground)
    _assert_identical(first, run())
