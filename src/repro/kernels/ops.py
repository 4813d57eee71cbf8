"""CompiledRegionOps: the drop-in compiled backend for RegionOps.

Same API, same results, same op counts — but ``matrix_apply``,
``matrix_chain_apply`` and ``linear_combination`` compile their
coefficient structure to a :class:`~repro.kernels.ir.RegionProgram`
(cached) and execute it with bound tables, and :meth:`run_plan` executes
a whole :class:`~repro.core.planner.DecodePlan` as one fused program.

The scalar primitives (``mult_xors``, ``mul_region``) stay interpreted:
they are single region passes with nothing to amortise, and
:func:`repro.gf.chunking.chunked_matrix_apply` builds on them directly.
Multi-dimensional regions also fall back to the interpreted path — the
executor is specialised for the 1-D sectors the decoders use.
"""

from __future__ import annotations

import numpy as np

from ..gf.chunking import DEFAULT_CHUNK_SYMBOLS
from ..gf.field import GF
from ..gf.region import OpCounter, RegionOps
from .cache import ProgramCache
from .executor import ProgramExecutor
from .lower import PlanProgram


class CompiledRegionOps(RegionOps):
    """Region ops that execute compiled, cached programs.

    Parameters
    ----------
    field, counter:
        As for :class:`~repro.gf.region.RegionOps`.
    programs:
        Optional shared :class:`ProgramCache`; decoders hand one cache
        to all their ops instances so plans compile once per geometry.
    optimize:
        Run the optimisation passes (pair CSE, DCE, slot compaction) on
        every compiled program.  Off is useful for debugging only.
    chunk_symbols:
        L2 blocking factor for the executor.
    backend:
        Executor backend selection: ``"auto"`` (default, the fixed
        :func:`~repro.kernels.backends.select_backend` rule) or a
        registered backend name to force it.
    """

    def __init__(
        self,
        field: GF,
        counter: OpCounter | None = None,
        *,
        programs: ProgramCache | None = None,
        optimize: bool = True,
        chunk_symbols: int = DEFAULT_CHUNK_SYMBOLS,
        backend: str = "auto",
    ):
        super().__init__(field, counter)
        self.programs = programs if programs is not None else ProgramCache()
        self.optimize = optimize
        self.executor = ProgramExecutor(
            field, chunk_symbols=chunk_symbols, backend=backend
        )

    def _compilable(self, regions: list[np.ndarray]) -> bool:
        return all(r.ndim == 1 for r in regions)

    # -- compiled overrides ------------------------------------------------

    def linear_combination(
        self,
        coefficients: np.ndarray,
        regions: list[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if len(coefficients) != len(regions):
            raise ValueError("coefficient / region count mismatch")
        if not regions or not self._compilable(regions):
            return super().linear_combination(coefficients, regions, out=out)
        coefficients = np.asarray(coefficients)
        if not coefficients.any():
            # zero cost, zero count — identical to the interpreted path
            if out is None:
                return np.zeros_like(regions[0])
            out[...] = 0
            return out
        if out is not None:
            self._check(out)
            if out.shape != regions[0].shape:
                raise ValueError(
                    f"region shape mismatch: {regions[0].shape} vs {out.shape}"
                )
            if not out.flags.c_contiguous:
                return super().linear_combination(coefficients, regions, out=out)
        program = self.programs.row_program(
            self.field, coefficients, optimize=self.optimize
        )
        outs = None if out is None else [out]
        return self.executor.execute(
            program, list(regions), counter=self.counter, outs=outs
        )[0]

    def matrix_apply(
        self,
        matrix: np.ndarray,
        regions: list[np.ndarray],
    ) -> list[np.ndarray]:
        if matrix.ndim != 2 or matrix.shape[1] != len(regions):
            raise ValueError(
                f"matrix shape {matrix.shape} incompatible with {len(regions)} regions"
            )
        if matrix.shape[0] == 0:
            return []
        if not regions:
            raise ValueError("cannot infer output shape from empty inputs")
        if not self._compilable(regions):
            return super().matrix_apply(matrix, regions)
        program = self.programs.matrix_program(
            self.field, matrix, optimize=self.optimize
        )
        return self.executor.execute(program, list(regions), counter=self.counter)

    def matrix_chain_apply(
        self,
        matrices,
        regions: list[np.ndarray],
    ) -> list[np.ndarray]:
        mats = [np.asarray(m) for m in matrices]
        if not mats:
            return list(regions)
        if not regions:
            raise ValueError("cannot infer output shape from empty inputs")
        if any(m.shape[0] == 0 for m in mats) or not self._compilable(regions):
            return super().matrix_chain_apply(mats, regions)
        if mats[0].shape[1] != len(regions):
            raise ValueError(
                f"matrix shape {mats[0].shape} incompatible with {len(regions)} regions"
            )
        program = self.programs.chain_program(self.field, mats, optimize=self.optimize)
        return self.executor.execute(program, list(regions), counter=self.counter)

    # -- fused plan execution ----------------------------------------------

    def plan_program(self, plan) -> PlanProgram:
        """The compiled (cached) program for a whole decode plan."""
        return self.programs.plan_program(self.field, plan, optimize=self.optimize)

    def run_plan(self, plan, blocks) -> dict[int, np.ndarray]:
        """Execute a whole decode plan as one fused program.

        ``blocks`` maps block id -> region and must contain every true
        survivor the plan reads.  Returns ``{faulty_id: region}`` exactly
        like the stage-by-stage decoders, with identical op counts.
        """
        plan_prog = self.plan_program(plan)
        inputs = [blocks[b] for b in plan_prog.input_ids]
        if not self._compilable(inputs):
            raise ValueError("run_plan requires 1-D block regions")
        outs = self.executor.execute(plan_prog.program, inputs, counter=self.counter)
        return dict(zip(plan_prog.output_ids, outs))

    # -- fused encode execution --------------------------------------------

    def encode_program(self, code, policy=None) -> PlanProgram:
        """The compiled (cached) all-parities encode program for ``code``."""
        return self.programs.encode_program(
            self.field, code, policy=policy, optimize=self.optimize
        )

    def run_encode(self, code, blocks, policy=None) -> dict[int, np.ndarray]:
        """Compute every parity block of ``code`` as one fused program.

        ``blocks`` maps block id -> region and must contain the data
        blocks; parity entries, stale or otherwise, are never read.
        Returns ``{parity_id: region}``.  Pass the owning decoder's
        ``policy`` to book its exact op counts.
        """
        enc = self.encode_program(code, policy=policy)
        inputs = [blocks[b] for b in enc.input_ids]
        if not self._compilable(inputs):
            raise ValueError("run_encode requires 1-D block regions")
        outs = self.executor.execute(enc.program, inputs, counter=self.counter)
        return dict(zip(enc.output_ids, outs))
