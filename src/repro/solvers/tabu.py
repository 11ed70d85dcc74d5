"""Tabu search over Ising models: the core heuristic inside qbsolv.

A deterministic-given-seed single-solution improver: steepest-descent
single-spin flips with a recency tabu list and aspiration (a tabu move
is allowed if it beats the best energy seen).  Restarts from random
states until the sweep budget is exhausted.

All restart states and their local fields are initialized in one batched
pass through :mod:`repro.solvers.kernels`; the per-read search then runs
on row views, with each flip's field update going through the shared
dense/sparse kernel so embedded (degree <= 6) models pay O(degree) per
move instead of O(n).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.trace import observe_sample as _observe_sample
from repro.ising.model import IsingModel
from repro.solvers import kernels
from repro.solvers.sampleset import SampleSet


class TabuSampler:
    """Multi-restart tabu search."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    def sample(
        self,
        model: IsingModel,
        num_reads: int = 10,
        tenure: Optional[int] = None,
        max_iter: int = 2000,
        kernel: Optional[str] = None,
        deadline=None,
    ) -> SampleSet:
        """Run ``num_reads`` independent tabu searches.

        Args:
            model: the Ising model to minimize.
            num_reads: independent restarts, each contributing one row.
            tenure: tabu tenure (iterations a flipped variable stays
                frozen); defaults to ``min(20, n // 4 + 1)``.
            max_iter: flip iterations per restart.
            kernel: ``"dense"``/``"sparse"`` to force a field-update
                tier; None picks by model size and density with an
                effective read width of 1 -- the search flips one row
                at a time, so narrow-batch dense wins on mid-sized
                models.
            deadline: optional :class:`~repro.core.deadline.Deadline`;
                checked between restarts and every 64 iterations inside
                a search.  Expiry stops cleanly: interrupted restarts
                return their best-so-far state, unstarted restarts keep
                their random initial state, and
                ``info["deadline_interrupted"]`` is set.
        """
        order = list(model.variables)
        n = len(order)
        if n == 0:
            return SampleSet.empty([])
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        _, h_vec, indptr, indices, data = model.to_csr()
        # The search flips single rows, so the batch width is 1 no
        # matter how many restarts run.
        chosen = kernels.choose_kernel(n, len(indices), kernel, num_reads=1)
        if tenure is None:
            tenure = min(20, n // 4 + 1)

        start = time.perf_counter()
        # All restarts drawn and field-initialized in one batched pass;
        # the search below works on row views of these matrices.
        spins = self._rng.choice([-1.0, 1.0], size=(num_reads, n))
        fields = kernels.init_local_fields(h_vec, indptr, indices, data, spins)
        energies = kernels.batched_energies(h_vec, indptr, indices, data, spins)
        flip = kernels.make_flip_updater(chosen, indptr, indices, data)

        rows = np.empty((num_reads, n), dtype=np.int8)
        interrupted = False
        for read in range(num_reads):
            if deadline is not None and deadline.expired():
                # Unstarted restarts keep their random initial state.
                rows[read:] = spins[read:].astype(np.int8)
                interrupted = True
                break
            rows[read] = self._search(
                spins, fields, float(energies[read]), read, tenure, max_iter,
                flip, deadline,
            )
        elapsed = time.perf_counter() - start
        info = {
            "solver": "tabu",
            "kernel": chosen,
            "tenure": tenure,
            "num_reads": num_reads,
            "sampling_time_s": elapsed,
        }
        if interrupted or (deadline is not None and deadline.expired()):
            info["deadline_interrupted"] = True
        result = SampleSet.from_array(
            order,
            rows,
            model,
            info=info,
        )
        _observe_sample("tabu", result, elapsed, kernel=chosen,
                        num_reads=num_reads, tenure=tenure)
        return result

    def _search(
        self,
        spins: np.ndarray,
        fields: np.ndarray,
        energy: float,
        read: int,
        tenure: int,
        max_iter: int,
        flip: kernels.FlipUpdater,
        deadline=None,
    ) -> np.ndarray:
        n = spins.shape[1]
        row = np.array([read])
        s = spins[read]
        f = fields[read]
        best_spins = s.copy()
        best_energy = energy
        tabu_until = np.zeros(n, dtype=int)

        for it in range(max_iter):
            if (
                deadline is not None
                and it % 64 == 0
                and deadline.expired()
            ):
                break
            deltas = -2.0 * s * f
            allowed = tabu_until <= it
            # Aspiration: permit a tabu flip that would beat the best.
            aspiring = energy + deltas < best_energy - 1e-12
            candidates = allowed | aspiring
            if not candidates.any():
                candidates = np.ones(n, dtype=bool)
            masked = np.where(candidates, deltas, np.inf)
            i = int(np.argmin(masked))
            energy += float(deltas[i])
            flip(spins, fields, i, row)
            tabu_until[i] = it + 1 + int(self._rng.integers(0, tenure + 1))
            if energy < best_energy - 1e-12:
                best_energy = energy
                best_spins = s.copy()
        return best_spins.astype(np.int8)
