"""Process-parallel PPM execution — GIL-free parallelism.

Python threads contend on the GIL for the table-gather portions of the
GF kernels, so thread-level PPM underestimates what a C implementation
gets from T cores.  :class:`ProcessParallelDecoder` runs the parallel
phase in *worker processes* (true OS-level parallelism, as the HPC
guides recommend when threads cannot scale): each worker receives the
weight matrices and survivor regions of its round-robin bucket of
groups, reconstructs the field from ``(w, polynomial)``, and returns the
recovered regions.

The worker pool is a persistent
:class:`~repro.pipeline.pool.ProcessWorkerPool`: it is spawned lazily on
the first parallel decode and *reused across calls*, so a batch of
stripes pays process-startup cost once rather than per stripe (the
pool's ``spawn_count`` stays 1 for the whole batch — asserted by the
regression tests).  Inputs are still serialised to the workers (pickle),
so per-decode overhead remains higher than threads — worthwhile for
large sectors on multi-core hosts.  Correctness is identical, which the
test suite asserts; the op counter accounts the work in the parent by
construction cost (child counters cannot be shared across processes).
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np

from ..gf import GF, OpCounter, RegionOps
from ..pipeline.pool import ProcessWorkerPool
from .decoder import _PlanningDecoder, _fused, _run_rest, _run_traditional
from .executor import PhaseTiming
from .sequences import SequencePolicy


#: Per-worker-process ops instances: the program cache inside survives
#: across submits, so each weight matrix compiles once per worker.
_CHILD_OPS: dict[tuple[int, int, bool], RegionOps] = {}


def _child_ops(w: int, polynomial: int, compiled: bool) -> RegionOps:
    key = (w, polynomial, compiled)
    ops = _CHILD_OPS.get(key)
    if ops is None:
        field = GF(w, polynomial)
        if compiled:
            from ..kernels import CompiledRegionOps

            ops = CompiledRegionOps(field)
        else:
            ops = RegionOps(field)
        # per-process memo: each pool worker owns its own interpreter,
        # so no lock is needed (or possible) across processes
        _CHILD_OPS[key] = ops  # ppm: noqa[PPM011]
    return ops


def _decode_bucket(
    w: int,
    polynomial: int,
    tasks: list[tuple[np.ndarray, list[np.ndarray], tuple[int, ...]]],
    compiled: bool = True,
) -> dict[int, np.ndarray]:
    """Worker: decode a bucket of (weights, survivor regions, faulty ids)."""
    ops = _child_ops(w, polynomial, compiled)
    out: dict[int, np.ndarray] = {}
    for weights, regions, faulty_ids in tasks:
        results = ops.matrix_apply(weights, regions)
        out.update(zip(faulty_ids, results))
    return out


class ProcessParallelDecoder(_PlanningDecoder):
    """PPM with the parallel phase on a persistent process pool.

    ``threads`` plays the role of T; groups are bucketed round-robin
    exactly like the thread executor.  The rest phase runs in the parent
    (it is serial anyway and needs the recovered regions).  The pool
    lives until :meth:`close` (the decoder is also a context manager).
    """

    def __init__(
        self,
        *,
        threads: int = 2,
        policy: SequencePolicy = SequencePolicy.PAPER,
        counter: OpCounter | None = None,
        verify: bool = False,
        compile: bool = True,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        super().__init__(policy, counter, verify=verify, compile=compile)
        self.threads = threads
        self.pool = ProcessWorkerPool(threads)

    def close(self) -> None:
        """Shut the worker pool down; a later decode re-spawns it."""
        self.pool.close()

    def __enter__(self) -> "ProcessParallelDecoder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def execute(self, plan, blocks: Mapping[int, np.ndarray], ops: RegionOps):
        if not plan.uses_partition:
            recovered = _fused(plan, blocks, ops)
            if recovered is None:
                recovered = _run_traditional(plan, blocks, ops)
            return recovered, None, 0.0
        field = ops.field
        p_eff = max(1, min(self.threads, len(plan.groups)))
        wall0 = time.perf_counter()
        if p_eff == 1:
            from .executor import run_groups_serial

            recovered, timing = run_groups_serial(plan.groups, blocks, ops)
        else:
            buckets: list[list] = [[] for _ in range(p_eff)]
            for i, group in enumerate(plan.groups):
                buckets[i % p_eff].append(
                    (
                        group.weights.array,
                        [blocks[b] for b in group.survivor_ids],
                        group.faulty_ids,
                    )
                )
            futures = [
                self.pool.submit(
                    _decode_bucket, field.w, field.polynomial, bucket, self.compile
                )
                for bucket in buckets
            ]
            recovered = {}
            for future in futures:
                recovered.update(future.result())
            # account the children's work in the parent's counter
            sector = len(next(iter(blocks.values())))
            group_ops = sum(g.cost for g in plan.groups)
            ops.counter.record(group_ops, group_ops * sector)
            timing = PhaseTiming(
                thread_seconds=(),
                spawn_seconds=self.pool.spawn_seconds,
                wall_seconds=time.perf_counter() - wall0,
            )
        t0 = time.perf_counter()
        rest = _run_rest(plan, blocks, recovered, ops)
        rest_seconds = time.perf_counter() - t0
        recovered.update(rest)
        return recovered, timing, rest_seconds
