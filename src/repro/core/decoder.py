"""The traditional and PPM decoders (paper, Sections II-B and III-D).

Both decoders share the :class:`~repro.core.planner.DecodePlan` machinery
and the counted ``mult_XORs`` region primitive, so their measured costs
are directly comparable.  They satisfy the
:class:`repro.stripes.array.Decoder` protocol
(``decode(code, stripe, faulty) -> {block_id: region}``), never mutate
survivor data, and expose cost/timing statistics for the benchmark
harness.

Encoding is the special case of decoding where the "faulty" blocks are
the parity positions (paper, footnote 1).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..codes.base import ErasureCode
from ..gf import GF, OpCounter, RegionOps
from ..kernels import CompiledRegionOps, ProgramCache
from ..matrix import GFMatrix
from ..stripes.store import Stripe
from .executor import PhaseTiming, run_groups_parallel, run_groups_serial
from .planner import DecodePlan, plan_decode
from .sequences import ExecutionMode, SequencePolicy


@dataclass
class DecodeStats:
    """What one decode call did: op counts and wall times."""

    mult_xors: int
    symbols: int
    wall_seconds: float
    plan: DecodePlan
    phase1: PhaseTiming | None = None
    rest_seconds: float = 0.0

    @property
    def mode(self) -> ExecutionMode:
        return self.plan.mode


class _PlanningDecoder:
    """Shared plan construction, caching and block plumbing.

    ``verify=True`` statically certifies every plan against the
    parity-check matrix before it executes (see
    :func:`repro.verify.verify_plan`), raising
    :class:`repro.verify.PlanVerificationError` on any violated
    invariant.  Certification is cached per plan, so the amortised cost
    across stripes sharing a failure geometry is zero.

    ``compile=True`` (the default) routes region arithmetic through
    :class:`repro.kernels.CompiledRegionOps`: plans and matrices lower
    once to cached :class:`~repro.kernels.RegionProgram` kernels with
    identical results and op counts.  ``compile=False`` is the
    interpreted escape hatch.
    """

    def __init__(
        self,
        policy: SequencePolicy,
        counter: OpCounter | None = None,
        verify: bool = False,
        compile: bool = True,
    ):
        self.policy = policy
        self.counter = counter if counter is not None else OpCounter()
        self.verify = verify
        self.compile = compile
        self.programs: ProgramCache | None = ProgramCache() if compile else None
        self._plan_cache: dict[tuple, DecodePlan] = {}
        self._ops_cache: dict[int, RegionOps] = {}
        self._verified_plans: set[int] = set()
        # one decoder instance may serve several asyncio.to_thread
        # decode workers at once; its memo dicts need a lock (planning
        # and certification run outside it, double-checked on insert)
        self._cache_lock = threading.Lock()

    def ops_for(self, field: GF) -> RegionOps:
        key = id(field)
        with self._cache_lock:
            ops = self._ops_cache.get(key)
            if ops is None:
                if self.compile:
                    ops = CompiledRegionOps(field, self.counter, programs=self.programs)
                else:
                    ops = RegionOps(field, self.counter)
                self._ops_cache[key] = ops
        return ops

    def plan(
        self,
        source: ErasureCode | GFMatrix,
        faulty: Sequence[int],
        verify: bool | None = None,
    ) -> DecodePlan:
        """Build (or fetch) the plan for a scenario under this policy.

        ``verify`` overrides the decoder-level default; when enabled the
        plan is statically certified once and the result cached.
        """
        h = source.H if isinstance(source, ErasureCode) else source
        key = (id(h), tuple(sorted(set(faulty))), self.policy)
        with self._cache_lock:
            plan = self._plan_cache.get(key)
        if plan is None:
            plan = plan_decode(h, faulty, policy=self.policy)
            with self._cache_lock:
                plan = self._plan_cache.setdefault(key, plan)
        if (self.verify if verify is None else verify):
            with self._cache_lock:
                verified = id(plan) in self._verified_plans
            if not verified:
                from ..verify import assert_plan_valid  # deferred: verify imports core

                assert_plan_valid(plan, h)
                with self._cache_lock:
                    self._verified_plans.add(id(plan))
        return plan

    @staticmethod
    def _blocks_of(stripe: Stripe | Mapping[int, np.ndarray]) -> Mapping[int, np.ndarray]:
        if isinstance(stripe, Stripe):
            return {b: stripe.get(b) for b in stripe.present_ids}
        return stripe

    # -- public entry points shared by all decoders -----------------------

    def decode(
        self,
        code: ErasureCode | GFMatrix,
        stripe: Stripe | Mapping[int, np.ndarray],
        faulty: Sequence[int],
        *,
        return_stats: bool = False,
        verify: bool | None = None,
    ):
        """Recover the faulty blocks of one stripe.

        This is the one decode entry point every decoder class shares.

        ``return_stats=True`` additionally returns a
        :class:`DecodeStats` with op counts and timings.  ``verify=True``
        statically certifies the decode plan before any region op runs
        (raises :class:`repro.verify.PlanVerificationError` if an
        invariant is violated); ``None`` defers to the decoder's
        construction-time default.
        """
        field = code.field  # both ErasureCode and GFMatrix carry their field
        plan = self.plan(code, faulty, verify=verify)
        blocks = self._blocks_of(stripe)
        ops = self.ops_for(field)
        before = ops.counter.snapshot()
        t0 = time.perf_counter()
        recovered, phase1, rest_seconds = self.execute(plan, blocks, ops)
        wall = time.perf_counter() - t0
        after = ops.counter.snapshot()
        if not return_stats:
            return recovered
        stats = DecodeStats(
            mult_xors=after[0] - before[0],
            symbols=after[2] - before[2],
            wall_seconds=wall,
            plan=plan,
            phase1=phase1,
            rest_seconds=rest_seconds,
        )
        return recovered, stats

    def encode(
        self, code: ErasureCode, stripe: Stripe | Mapping[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Compute all parity blocks from the data blocks.

        Encoding is decoding with the parity positions treated as faulty;
        only the data blocks of ``stripe`` are read.
        """
        blocks = self._blocks_of(stripe)
        data_only = {b: blocks[b] for b in code.data_block_ids}
        return self.decode(code, data_only, code.parity_block_ids)

    def encode_into(self, code: ErasureCode, stripe: Stripe) -> None:
        """Encode and write the parity blocks back into ``stripe``."""
        for bid, region in self.encode(code, stripe).items():
            stripe.put(bid, region)

    def encode_batch(
        self,
        code: ErasureCode,
        stripes: Sequence[Stripe | Mapping[int, np.ndarray]],
    ) -> list[dict[int, np.ndarray]]:
        """Compute every stripe's parity blocks in one fused region sweep.

        The data sectors are concatenated per block id across stripes
        and the compiled all-parities encode program runs once over the
        fused regions — the per-stripe Python dispatch the naive
        ``encode`` loop pays disappears.  Like ``encode``, only the
        data blocks are read (stale parity in the input is ignored).
        Returns one ``{parity_id: region}`` dict per stripe, aligned
        with ``stripes`` (regions are views into the fused buffers).

        Falls back to per-stripe ``encode`` when this decoder is
        interpreted or any data region is not 1-D.
        """
        blocks_list = [self._blocks_of(s) for s in stripes]
        if not blocks_list:
            return []
        ops = self.ops_for(code.field)
        first_data = code.data_block_ids[0]
        if not isinstance(ops, CompiledRegionOps) or any(
            blocks[first_data].ndim != 1 for blocks in blocks_list
        ):
            return [self.encode(code, blocks) for blocks in blocks_list]
        enc = ops.encode_program(code, policy=self.policy)
        if len(blocks_list) == 1:
            return [ops.run_encode(code, blocks_list[0], policy=self.policy)]
        sizes = [blocks[first_data].shape[0] for blocks in blocks_list]
        fused = {
            b: np.concatenate([blocks[b] for blocks in blocks_list])
            for b in enc.input_ids
        }
        recovered = ops.run_encode(code, fused, policy=self.policy)
        results: list[dict[int, np.ndarray]] = []
        offset = 0
        for n in sizes:
            results.append(
                {bid: region[offset : offset + n] for bid, region in recovered.items()}
            )
            offset += n
        return results

    def encode_into_batch(self, code: ErasureCode, stripes: Sequence[Stripe]) -> None:
        """Batch-encode and write the parities back into each stripe."""
        for stripe, parities in zip(stripes, self.encode_batch(code, stripes)):
            for bid, region in parities.items():
                stripe.put(bid, region)

    # -- strategy hook ---------------------------------------------------------

    def execute(
        self,
        plan: DecodePlan,
        blocks: Mapping[int, np.ndarray],
        ops: RegionOps,
    ) -> tuple[dict[int, np.ndarray], PhaseTiming | None, float]:
        raise NotImplementedError


def _run_traditional(
    plan: DecodePlan, blocks: Mapping[int, np.ndarray], ops: RegionOps
) -> dict[int, np.ndarray]:
    tp = plan.traditional
    regions = [blocks[b] for b in tp.survivor_ids]
    if plan.mode is ExecutionMode.TRADITIONAL_MATRIX_FIRST:
        outs = ops.matrix_apply(tp.weights.array, regions)
    else:
        outs = ops.matrix_chain_apply((tp.s.array, tp.f_inv.array), regions)
    return dict(zip(tp.faulty_ids, outs))


def _run_rest(
    plan: DecodePlan,
    blocks: Mapping[int, np.ndarray],
    recovered: Mapping[int, np.ndarray],
    ops: RegionOps,
) -> dict[int, np.ndarray]:
    rest = plan.rest
    if rest is None:
        return {}
    merged = dict(blocks)
    merged.update(recovered)
    regions = [merged[b] for b in rest.survivor_ids]
    if plan.mode is ExecutionMode.PPM_REST_MATRIX_FIRST:
        outs = ops.matrix_apply(rest.weights.array, regions)
    else:
        outs = ops.matrix_chain_apply((rest.s.array, rest.f_inv.array), regions)
    return dict(zip(rest.faulty_ids, outs))


def _fused(plan: DecodePlan, blocks: Mapping[int, np.ndarray], ops: RegionOps):
    """The whole plan as one compiled program, or None when not compiled.

    Falls back (returns None) for multi-dimensional regions, which the
    program executor does not handle.
    """
    if not isinstance(ops, CompiledRegionOps):
        return None
    if any(region.ndim != 1 for region in blocks.values()):
        return None
    return ops.run_plan(plan, blocks)


class TraditionalDecoder(_PlanningDecoder):
    """The baseline decoder: one big F/S split, executed serially.

    ``policy`` selects the calculation order: ``"normal"`` (the paper's
    C1, what the open-source SD decoder does) or ``"matrix_first"`` (C2,
    the generator-matrix method); the matching
    :class:`~repro.core.sequences.SequencePolicy` members are accepted
    too.
    """

    _POLICIES = {
        "normal": SequencePolicy.NORMAL,
        "matrix_first": SequencePolicy.MATRIX_FIRST,
    }

    def __init__(
        self,
        *,
        policy: str | SequencePolicy = "normal",
        counter: OpCounter | None = None,
        verify: bool = False,
        compile: bool = True,
    ):
        if isinstance(policy, SequencePolicy):
            resolved = policy
            if resolved not in self._POLICIES.values():
                raise ValueError(
                    f"policy must be one of {sorted(self._POLICIES)}, got {policy!r}"
                )
        elif policy in self._POLICIES:
            resolved = self._POLICIES[policy]
        else:
            raise ValueError(
                f"policy must be one of {sorted(self._POLICIES)}, got {policy!r}"
            )
        super().__init__(resolved, counter, verify=verify, compile=compile)
        self.sequence = resolved.value

    def execute(self, plan, blocks, ops):
        recovered = _fused(plan, blocks, ops)
        if recovered is None:
            recovered = _run_traditional(plan, blocks, ops)
        return recovered, None, 0.0


class PPMDecoder(_PlanningDecoder):
    """The paper's Partitioned and Parallel Matrix decoder.

    Parameters
    ----------
    threads:
        T, the worker count for the parallel phase.  The paper restrains
        ``T <= min(4, cores)``; here T is free and the parallel-time
        model (see :mod:`repro.parallel`) evaluates core-count effects.
    policy:
        Sequence policy; default is the paper's rule (min(C2, C4)).
    parallel:
        When False, groups run serially on the caller's thread — the mode
        used for measured cost-reduction experiments on the 1-core host.
    deadline_s:
        When set, bounds every parallel phase: a straggling worker
        raises :class:`~repro.pipeline.pool.StragglerTimeout` instead
        of stalling the decode forever.  ``None`` (the default) waits
        indefinitely, matching the paper's fault-free assumption.
    """

    def __init__(
        self,
        *,
        threads: int = 4,
        policy: SequencePolicy = SequencePolicy.PAPER,
        parallel: bool = True,
        counter: OpCounter | None = None,
        verify: bool = False,
        compile: bool = True,
        deadline_s: float | None = None,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        super().__init__(policy, counter, verify=verify, compile=compile)
        self.threads = threads
        self.parallel = parallel
        self.deadline_s = deadline_s

    def execute(self, plan, blocks, ops):
        if not plan.uses_partition:
            # the policy chose a whole-matrix sequence (e.g. C2 < C4)
            recovered = _fused(plan, blocks, ops)
            if recovered is None:
                recovered = _run_traditional(plan, blocks, ops)
            return recovered, None, 0.0
        if self.parallel and self.threads > 1:
            # per-group compiled matrix programs keep thread parallelism
            recovered, timing = run_groups_parallel(
                plan.groups, blocks, ops, self.threads, deadline_s=self.deadline_s
            )
        else:
            t0 = time.perf_counter()
            fused = _fused(plan, blocks, ops)
            if fused is not None:
                # one fused program covers groups + rest; the whole decode
                # is the "parallel phase" of this serial execution
                wall = time.perf_counter() - t0
                timing = PhaseTiming(thread_seconds=(wall,), wall_seconds=wall)
                return fused, timing, 0.0
            recovered, timing = run_groups_serial(plan.groups, blocks, ops)
        t0 = time.perf_counter()
        rest = _run_rest(plan, blocks, recovered, ops)
        rest_seconds = time.perf_counter() - t0
        recovered.update(rest)
        return recovered, timing, rest_seconds
