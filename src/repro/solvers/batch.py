"""Cross-problem sweep batching: many independent anneals, one kernel.

Fleet dispatch (``repro.solvers.shard``), gauge replicas
(``DWaveSimulator``), and service-style traffic all produce streams of
*small, independent* Ising problems.  Annealing them one at a time pays
the per-problem Python overhead -- schedule setup, per-proposal numpy
dispatch on a handful of rows -- over and over, which is exactly the
cost the sparse kernel rewrite couldn't remove.  This module packs K
independent problems into **one** sweep-kernel invocation.

The packing is *stacked*, not block-diagonal over variables.  A
block-diagonal layout (one (sum n_k)-column matrix) would keep the
proposal count unchanged -- no numpy win at all.  Instead:

* rows = every problem's reads concatenated problem-major
  (``prob_of_row[r]`` maps a row back to its problem);
* columns = ``max_k n_k`` -- problems are padded to a shared width, so
  one proposal at column i advances *all* K problems at once across
  all their reads;
* the CSR neighbor lists are stacked per column: slot
  ``bindptr[i]:bindptr[i+1]`` is sized for the worst problem's degree
  at column i, and problem p's row of ``bindices``/``bdata`` fills it
  with p's real neighbors followed by padding entries that point at
  column i itself with coupling 0.0 -- an exact no-op, the same trick
  that makes the dense tier bit-identical to the sparse tier;
* per-problem temperatures live in a ``betas[sweep, p]`` matrix, so
  heterogeneous coefficient scales keep their own neal-style schedule.

A sweep of the packed matrix therefore costs K problems' progress for
one Python/numpy proposal loop, and ragged read counts / variable
counts are handled naturally.  Throughput: >= 2x over sequential
dispatch for 8 small problems (see ``benchmarks/test_kernel_perf.py``).
The stacked layout has one implementation; its results report the
``sparse`` kernel, whose neighbor-list update it generalizes.

The batch is a *different RNG-consumption pattern* than K sequential
anneals (one shared stream drives the packed matrix), so batched runs
are deterministic given the job seed but not sample-identical to
sequential runs; callers opt in (``batch_gauges=True`` on the machine,
``batch_rounds=True`` on the shard solver).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core import trace as _trace
from repro.ising.model import IsingModel
from repro.solvers import kernels
from repro.solvers.neal import default_beta_range
from repro.solvers.sampleset import SampleSet


class BatchedSweepJob:
    """Pack independent Ising problems into one Metropolis invocation.

    Usage::

        job = BatchedSweepJob(seed=7)
        for model in models:
            job.add(model, num_reads=50)
        samplesets = job.run(num_sweeps=256)   # one per added model

    ``run`` may be called repeatedly; each call re-anneals every problem
    from fresh random states drawn from the job's RNG stream.
    """

    def __init__(self, seed: Optional[int] = None):
        """Args:
            seed: seed for the job's single shared RNG stream.
        """
        self._rng = np.random.default_rng(seed)
        self._problems: List[Tuple[IsingModel, int, Optional[Tuple[float, float]]]] = []

    def add(
        self,
        model: IsingModel,
        num_reads: int = 25,
        beta_range: Optional[Tuple[float, float]] = None,
    ) -> int:
        """Queue a problem; returns its index into ``run()``'s result list.

        Args:
            model: the Ising model to anneal.
            num_reads: independent reads for *this* problem (ragged
                counts across the batch are fine).
            beta_range: optional (hot, cold) override; defaults to the
                neal heuristic on this problem's coefficients.
        """
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        if beta_range is not None:
            beta_hot, beta_cold = beta_range
            if beta_hot <= 0 or beta_cold < beta_hot:
                raise ValueError(f"invalid beta range {beta_range!r}")
        self._problems.append((model, int(num_reads), beta_range))
        return len(self._problems) - 1

    def __len__(self) -> int:
        return len(self._problems)

    def run(self, num_sweeps: int = 1000, deadline=None) -> List[SampleSet]:
        """Anneal every queued problem; one energy-sorted SampleSet each.

        Args:
            num_sweeps: Metropolis sweeps (shared by all problems --
                they anneal in lockstep; temperatures stay per-problem).
            deadline: optional :class:`~repro.core.deadline.Deadline`,
                polled every :data:`~repro.solvers.kernels.DEADLINE_SWEEP_BATCH`
                sweeps for the whole batch at once.  Expiry stops all
                problems at the same completed sweep and sets
                ``info["deadline_interrupted"]`` on every result.
        """
        if not self._problems:
            return []

        csrs = [model.to_csr() for model, _, _ in self._problems]
        sizes = [len(order) for (order, _, _, _, _) in csrs]
        reads = [num_reads for _, num_reads, _ in self._problems]
        max_n = max(sizes)
        if max_n == 0:
            return [SampleSet.empty([]) for _ in self._problems]
        num_problems = len(self._problems)
        total_rows = sum(reads)
        row_starts = np.concatenate(([0], np.cumsum(reads)))
        prob_of_row = np.repeat(np.arange(num_problems, dtype=np.int64), reads)

        # --- stacked adjacency -----------------------------------------
        degrees = np.zeros((num_problems, max_n), dtype=np.int64)
        for p, (_, _, indptr, _, _) in enumerate(csrs):
            degrees[p, : sizes[p]] = np.diff(indptr)
        slot_width = degrees.max(axis=0)
        bindptr = np.zeros(max_n + 1, dtype=np.int64)
        np.cumsum(slot_width, out=bindptr[1:])
        width = int(bindptr[-1])
        # Padding points each unused slot entry back at its own column
        # with coupling 0.0: `fields[r, i] -= two_old * 0.0` is an exact
        # no-op, so short neighbor lists cost nothing but the touch.
        bindices = np.broadcast_to(
            np.repeat(np.arange(max_n, dtype=np.int64), slot_width),
            (num_problems, width),
        ).copy()
        bdata = np.zeros((num_problems, width), dtype=float)
        for p, (_, _, indptr, indices, data) in enumerate(csrs):
            for i in range(sizes[p]):
                start, end = indptr[i], indptr[i + 1]
                if start != end:
                    offset = bindptr[i]
                    bindices[p, offset : offset + end - start] = indices[start:end]
                    bdata[p, offset : offset + end - start] = data[start:end]

        # --- per-problem beta schedules --------------------------------
        betas = np.empty((num_sweeps, num_problems), dtype=float)
        beta_ranges = []
        for p, (model, _, beta_range) in enumerate(self._problems):
            if beta_range is None:
                beta_range = default_beta_range(model)
            beta_hot, beta_cold = beta_range
            beta_ranges.append((float(beta_hot), float(beta_cold)))
            betas[:, p] = np.geomspace(beta_hot, beta_cold, num_sweeps)

        # --- initial state ---------------------------------------------
        start_time = time.perf_counter()
        spins = self._rng.choice([-1.0, 1.0], size=(total_rows, max_n))
        # Fields start exact per problem; padding columns have h = 0 and
        # no neighbors, so their field is identically 0 and proposals
        # there are pure coin flips that never touch real state.
        fields = np.zeros((total_rows, max_n), dtype=float)
        for p, (order, h_vec, indptr, indices, data) in enumerate(csrs):
            r0, r1 = row_starts[p], row_starts[p + 1]
            n_p = sizes[p]
            if n_p:
                fields[r0:r1, :n_p] = kernels.init_local_fields(
                    h_vec, indptr, indices, data, spins[r0:r1, :n_p]
                )

        # --- the packed anneal -----------------------------------------
        accepted, completed = self._run_numpy(
            spins, fields, bindptr, bindices, bdata, prob_of_row,
            betas, deadline,
        )
        elapsed = time.perf_counter() - start_time

        # --- unpack ----------------------------------------------------
        results: List[SampleSet] = []
        sweep_rate = num_sweeps / elapsed if elapsed > 0 else 0.0
        for p, (model, num_reads, _) in enumerate(self._problems):
            order = csrs[p][0]
            if not sizes[p]:
                results.append(SampleSet.empty([]))
                continue
            r0, r1 = row_starts[p], row_starts[p + 1]
            info = {
                "solver": "batched-sa",
                "kernel": kernels.SPARSE,
                "num_reads": num_reads,
                "num_sweeps": num_sweeps,
                "beta_range": beta_ranges[p],
                "batch_size": num_problems,
                "batch_index": p,
                "sampling_time_s": elapsed,
                "sweeps_per_s": sweep_rate,
                "batch_accepted_flips": int(accepted),
            }
            if completed < num_sweeps:
                info["deadline_interrupted"] = True
                info["num_sweeps_completed"] = int(completed)
            results.append(
                SampleSet.from_array(
                    list(order),
                    spins[r0:r1, : sizes[p]].astype(np.int8),
                    model,
                    info=info,
                )
            )

        if _trace.enabled():
            _trace.record(
                "solver.batch.sweep",
                duration_s=elapsed,
                problems=num_problems,
                rows=total_rows,
                variables=max_n,
                kernel=kernels.SPARSE,
                num_sweeps=num_sweeps,
            )
            registry = _trace.metrics()
            registry.counter("solver.batch.jobs").inc()
            registry.counter("solver.batch.problems").inc(num_problems)
            registry.counter(f"solver.kernel.{kernels.SPARSE}").inc()
            if sweep_rate:
                registry.gauge(f"kernel.{kernels.SPARSE}.sweeps_per_s").set(sweep_rate)
        return results

    def _run_numpy(
        self, spins, fields, bindptr, bindices, bdata, prob_of_row,
        betas, deadline,
    ) -> Tuple[int, int]:
        """Stacked numpy sweeps; one vector op per proposal, all problems."""
        num_sweeps, _ = betas.shape
        total_rows, n = spins.shape
        accepted = 0
        completed = 0
        for sweep in range(num_sweeps):
            if (
                deadline is not None
                and sweep % kernels.DEADLINE_SWEEP_BATCH == 0
                and deadline.expired()
            ):
                break
            variables = self._rng.permutation(n)
            log_u = kernels.log_uniforms(self._rng, (n, total_rows))
            two_beta = 2.0 * betas[sweep, prob_of_row]
            for k in range(n):
                i = variables[k]
                x = two_beta * spins[:, i] * fields[:, i]
                rows = np.nonzero(log_u[k] < np.minimum(x, 0.0))[0]
                if len(rows):
                    old = spins[rows, i]
                    spins[rows, i] = -old
                    start, end = bindptr[i], bindptr[i + 1]
                    if start != end:
                        probs = prob_of_row[rows]
                        # Padding slots target column i with 0.0 data, so
                        # the buffered fancy-index subtract is exact even
                        # when a row's slot repeats the same column.
                        fields[rows[:, None], bindices[probs, start:end]] -= (
                            (2.0 * old)[:, None] * bdata[probs, start:end]
                        )
                    accepted += len(rows)
            completed += 1
        return accepted, completed


def sample_batched(
    models,
    num_reads: int = 25,
    num_sweeps: int = 1000,
    seed: Optional[int] = None,
    deadline=None,
) -> List[SampleSet]:
    """One-shot convenience: anneal a list of models in one packed job."""
    job = BatchedSweepJob(seed=seed)
    for model in models:
        job.add(model, num_reads=num_reads)
    return job.run(num_sweeps=num_sweeps, deadline=deadline)
