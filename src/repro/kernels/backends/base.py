"""The executor-backend contract: how a RegionProgram chunk gets run.

A backend owns exactly two things:

- **binding**: turning a validated :class:`~repro.kernels.ir.RegionProgram`
  into an immutable, backend-specific instruction form (typically the
  instruction tuples with every ``MUL``/``MULXOR`` constant resolved to
  whatever precomputed tables the backend gathers through);
- **chunk execution**: running that bound form over one L2-sized chunk
  of the slot pool.

Everything else — slot-role classification, chunking, per-thread
scratch, op accounting, backend selection, fallback — stays in
:class:`~repro.kernels.executor.ProgramExecutor`, so a backend is a
small, testable object and every backend books identical model op
counts by construction.

Bound forms must be immutable once published (the executor caches and
shares them across threads); per-constant table caches inside a backend
must therefore take their own lock.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...gf.field import GF
    from ..ir import RegionProgram

#: Per-backend constant-table caches are cleared past this many entries
#: (constants are bounded by 2^w per field, so this only triggers when
#: many fields/polynomials share one process).
MAX_TABLE_CACHE = 1024


class RegionAlignmentError(Exception):
    """A caller buffer does not meet the backend's memory layout.

    Raised by backends that reinterpret region memory at a wider dtype
    (e.g. the bitsliced backend's uint16 pairing) when an input/output
    array is not suitably aligned.  The executor treats this as a
    *bypass*, not a failure: the call re-runs on the baseline and the
    backend is NOT quarantined (the very next, aligned call may use it
    again).  Checking happens inside the backend's own view
    construction, so the aligned common case pays nothing.
    """


class ExecutorBackend:
    """One way of executing RegionProgram chunks (see module docstring).

    Subclasses set :attr:`name`, implement :meth:`supports`,
    :meth:`bind` and :meth:`execute_chunk`, and may raise
    :attr:`alignment` when their kernels reinterpret region memory at a
    wider dtype (the executor falls back to the baseline for
    misaligned caller buffers instead of crashing).
    """

    #: Registry name (the ``ProgramExecutor(backend=...)`` spelling).
    name: str = "?"

    #: Required data-pointer alignment, in bytes, of every input/output
    #: region (1 = none).  Scratch and temporaries are always aligned.
    alignment: int = 1

    def __init__(self) -> None:
        self._table_lock = threading.Lock()
        self._tables: dict[tuple, object] = {}

    # -- contract ----------------------------------------------------------

    def supports(self, field: "GF", program: "RegionProgram") -> bool:
        """Whether this backend can execute ``program`` on ``field``."""
        raise NotImplementedError

    def bind(self, field: "GF", program: "RegionProgram") -> tuple:
        """Immutable backend-specific instruction form of ``program``."""
        raise NotImplementedError

    def make_scratch(self, field: "GF", chunk_symbols: int) -> object:
        """Per-thread scratch for :meth:`execute_chunk` (default: one
        chunk-sized multiply buffer in the field dtype)."""
        return np.empty(chunk_symbols, dtype=field.dtype)

    def execute_chunk(
        self,
        bound: tuple,
        pool: Sequence[np.ndarray],
        n: int,
        scratch: object,
    ) -> None:
        """Run the bound instructions over one chunk of ``n`` symbols.

        ``pool[slot]`` is the length-``n`` region view for each slot
        (inputs, outputs and temporaries alike); results are written
        in place through the pool views.
        """
        raise NotImplementedError

    # -- shared plumbing ---------------------------------------------------

    def _cached_table(self, key: tuple, build) -> object:
        """Per-(field, const) table memo, thread-safe and bounded."""
        with self._table_lock:
            table = self._tables.get(key)
        if table is not None:
            return table
        table = build()  # build outside the lock; ties are harmless
        with self._table_lock:
            if len(self._tables) >= MAX_TABLE_CACHE:
                self._tables.clear()
            table = self._tables.setdefault(key, table)
        return table

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
