"""Pluggable executor backends for compiled RegionPrograms.

The :class:`~repro.kernels.executor.ProgramExecutor` delegates chunk
execution to a registered :class:`ExecutorBackend`:

- ``numpy`` — the table-gather baseline (every width; the fallback
  target for bypasses and quarantines);
- ``bitsliced`` — paired bit-plane gathers through fused two-symbol
  tables for w=4/8 (wins once a region fills an L2 chunk);
- ``splittab`` — fused halfword split tables (log/antilog-built for
  w=16) for w=16/32.

Selection is ``"auto"`` by default: :func:`select_backend` picks from
the field width and region length alone (see its docstring for the
measurements behind the rule).  ``ProgramExecutor(backend=...)``
forces one backend per executor — what the benches and the
backend-equivalence sweep use.

Registering your own backend: subclass :class:`ExecutorBackend`,
implement ``supports`` / ``bind`` / ``execute_chunk`` and call
:func:`register_backend` — docs/KERNELS.md walks through it.
"""

from __future__ import annotations

import threading

from .base import ExecutorBackend, RegionAlignmentError
from .bitsliced import BitslicedBackend, paired_table
from .numpy_tables import NumpyTablesBackend
from .splittab import SplitTableBackend, halfword_tables

#: The baseline every executor can always fall back to.
BASELINE_BACKEND = "numpy"

#: Names accepted by ``ProgramExecutor(backend=...)``.
BACKEND_CHOICES = ("auto", "numpy", "bitsliced", "splittab")

_registry_lock = threading.Lock()
_REGISTRY: dict[str, ExecutorBackend] = {}


def register_backend(backend: ExecutorBackend, replace: bool = False) -> None:
    """Add a backend to the registry (``replace=True`` to override)."""
    with _registry_lock:
        if backend.name in _REGISTRY and not replace:
            raise ValueError(f"backend {backend.name!r} is already registered")
        _REGISTRY[backend.name] = backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (the baseline cannot be removed)."""
    if name == BASELINE_BACKEND:
        raise ValueError("the baseline numpy backend cannot be unregistered")
    with _registry_lock:
        _REGISTRY.pop(name, None)


def get_backend(name: str) -> ExecutorBackend:
    """The registered backend called ``name`` (KeyError if absent)."""
    with _registry_lock:
        try:
            return _REGISTRY[name]
        except KeyError:
            raise KeyError(
                f"no executor backend {name!r}; registered: "
                f"{sorted(_REGISTRY)}"
            ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, baseline first."""
    with _registry_lock:
        names = list(_REGISTRY)
    names.sort(key=lambda n: (n != BASELINE_BACKEND, n))
    return tuple(names)


def select_backend(w: int, length: int, chunk_symbols: int) -> str:
    """The ``"auto"`` backend for a ``w``-bit field and ``length``-symbol regions.

    - w=16/32 → ``splittab``;
    - w=8 with regions of at least one executor chunk → ``bitsliced``,
      whose 128 KiB-per-constant tables only pay once a chunk
      amortises them;
    - anything else → ``numpy`` (w=4 included: no workload measures a
      faster backend there).

    Each boundary has a benchmark workload on either side of it;
    docs/KERNELS.md gives the measured times.
    """
    if w in (16, 32):
        return "splittab"
    if w == 8 and length >= chunk_symbols:
        return "bitsliced"
    return BASELINE_BACKEND


register_backend(NumpyTablesBackend())
register_backend(BitslicedBackend())
register_backend(SplitTableBackend())

__all__ = [
    "BACKEND_CHOICES",
    "BASELINE_BACKEND",
    "BitslicedBackend",
    "ExecutorBackend",
    "NumpyTablesBackend",
    "RegionAlignmentError",
    "SplitTableBackend",
    "available_backends",
    "get_backend",
    "halfword_tables",
    "paired_table",
    "register_backend",
    "select_backend",
    "unregister_backend",
]
