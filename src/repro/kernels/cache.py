"""LRU cache of compiled RegionPrograms, the sibling of PR 2's PlanCache.

Two key families:

- **content keys** for matrix / chain / row programs —
  ``GFMatrix.array`` returns a fresh read-only view on every access, so
  identity is useless; the key hashes the coefficient bytes instead
  (coding matrices are tiny, a few hundred bytes at most);
- **identity keys** for plan programs — :class:`DecodePlan` objects are
  long-lived (pinned by the decoders' plan caches and the pipeline's
  ``PlanCache``), so ``id(plan)`` is stable; the entry pins the plan to
  keep it that way.

Compilation happens *outside* the lock (lowering can take milliseconds
for large plans); a double-checked insert keeps concurrent misses
correct, at worst compiling the same program twice and keeping one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..gf.field import GF
from .ir import RegionProgram
from .lower import (
    PlanProgram,
    lower_encode,
    lower_linear_combination,
    lower_matrix,
    lower_matrix_chain,
    lower_plan,
)

#: Default capacity: programs are small (hundreds of instruction tuples),
#: and a rebuild workload touches a handful of failure geometries.
DEFAULT_PROGRAM_CACHE_SIZE = 256


@dataclass
class ProgramCacheStats:
    """Hit/miss/eviction tallies for a :class:`ProgramCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


def _matrix_key(field: GF, matrix: np.ndarray) -> tuple:
    return (
        "matrix",
        field.w,
        field.polynomial,
        matrix.shape,
        matrix.tobytes(),
    )


class ProgramCache:
    """Thread-safe LRU of compiled programs (see module docstring).

    ``verify_admission`` (default on) runs the cheap static dataflow
    pass (:func:`repro.verify.dataflow.check_program`) on every program
    admitted through a cache miss, so a buggy builder or optimiser pass
    can never park a corrupting program where every later decode will
    find it.  The check is one linear scan — noise next to lowering.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_PROGRAM_CACHE_SIZE,
        verify_admission: bool = True,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.verify_admission = verify_admission
        self._lock = threading.Lock()
        # key -> (value, pin); pin keeps identity-keyed objects alive
        self._entries: OrderedDict[tuple, tuple[object, object]] = OrderedDict()
        self.stats = ProgramCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _admit(self, value: object) -> None:
        # deferred: verify imports kernels (cycle guard)
        from ..verify.dataflow import check_program

        program = value.program if isinstance(value, PlanProgram) else value
        if isinstance(program, RegionProgram):
            check_program(program)

    def _get_or_build(self, key: tuple, build: Callable[[], object], pin: object = None):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry[0]
        value = build()  # compile outside the lock
        if self.verify_admission:
            self._admit(value)  # raises before a bad program is cached
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # a concurrent miss beat us to it
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry[0]
            self.stats.misses += 1
            self._entries[key] = (value, pin)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return value

    # -- lookups -----------------------------------------------------------

    def matrix_program(
        self, field: GF, matrix: np.ndarray, optimize: bool = True
    ) -> RegionProgram:
        key = _matrix_key(field, matrix) + (optimize,)
        return self._get_or_build(
            key, lambda: lower_matrix(field, matrix, optimize=optimize)
        )

    def chain_program(
        self, field: GF, matrices: Sequence[np.ndarray], optimize: bool = True
    ) -> RegionProgram:
        key = (
            "chain",
            field.w,
            field.polynomial,
            tuple(m.shape for m in matrices),
            tuple(m.tobytes() for m in matrices),
            optimize,
        )
        return self._get_or_build(
            key, lambda: lower_matrix_chain(field, matrices, optimize=optimize)
        )

    def row_program(
        self, field: GF, coefficients: np.ndarray, optimize: bool = True
    ) -> RegionProgram:
        key = (
            "row",
            field.w,
            field.polynomial,
            coefficients.shape,
            coefficients.tobytes(),
            optimize,
        )
        return self._get_or_build(
            key, lambda: lower_linear_combination(field, coefficients, optimize=optimize)
        )

    def plan_program(self, field: GF, plan, optimize: bool = True) -> PlanProgram:
        key = ("plan", field.w, field.polynomial, id(plan), optimize)
        return self._get_or_build(
            key, lambda: lower_plan(field, plan, optimize=optimize), pin=plan
        )

    def encode_program(
        self, field: GF, code, policy=None, optimize: bool = True
    ) -> PlanProgram:
        """The fused all-parities encode program for ``code``.

        Content-keyed on the parity-check matrix (plus the sequence
        policy), so equivalent code instances — e.g. one per pipeline
        worker — share one compiled program.
        """
        key = (
            "encode",
            field.w,
            field.polynomial,
            code.H.array.shape,
            code.H.array.tobytes(),
            None if policy is None else policy.value,
            optimize,
        )
        return self._get_or_build(
            key, lambda: lower_encode(field, code, policy=policy, optimize=optimize)
        )
