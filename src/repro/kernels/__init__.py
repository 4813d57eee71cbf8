"""Compiled GF region programs: plans lowered to fused, cached kernels.

The interpreted :class:`~repro.gf.region.RegionOps` pays a full Python
round-trip per ``mult_XORs`` call.  This package compiles the operation
sequence once — matrix, matrix chain, or a whole
:class:`~repro.core.planner.DecodePlan` — into the flat
:class:`RegionProgram` IR, optimises it, and executes it with per-program
table binding and L2-chunked ``np.take`` gathers.  See ``docs/KERNELS.md``.
"""

from __future__ import annotations

from .backends import (
    BACKEND_CHOICES,
    BASELINE_BACKEND,
    ExecutorBackend,
    available_backends,
    get_backend,
    register_backend,
    select_backend,
    unregister_backend,
)
from .cache import DEFAULT_PROGRAM_CACHE_SIZE, ProgramCache, ProgramCacheStats
from .executor import ProgramExecutor
from .ir import (
    OP_COPY,
    OP_MUL,
    OP_MULXOR,
    OP_XOR,
    OP_ZERO,
    Instruction,
    RegionProgram,
)
from .lower import (
    PlanProgram,
    ProgramBuilder,
    lower_encode,
    lower_linear_combination,
    lower_matrix,
    lower_matrix_chain,
    lower_plan,
)
from .ops import CompiledRegionOps
from .optimize import compact_slots, eliminate_dead, optimize_program, share_pairs

__all__ = [
    "OP_COPY",
    "OP_MUL",
    "OP_MULXOR",
    "OP_XOR",
    "OP_ZERO",
    "BACKEND_CHOICES",
    "BASELINE_BACKEND",
    "DEFAULT_PROGRAM_CACHE_SIZE",
    "CompiledRegionOps",
    "ExecutorBackend",
    "Instruction",
    "PlanProgram",
    "ProgramBuilder",
    "ProgramCache",
    "ProgramCacheStats",
    "ProgramExecutor",
    "RegionProgram",
    "available_backends",
    "compact_slots",
    "eliminate_dead",
    "get_backend",
    "lower_encode",
    "lower_linear_combination",
    "lower_matrix",
    "lower_matrix_chain",
    "lower_plan",
    "optimize_program",
    "register_backend",
    "select_backend",
    "share_pairs",
    "unregister_backend",
]
