"""Bitsliced GF(2^8) backend: paired bit-plane gathers over uint16 views.

A constant multiply over GF(2^8) is linear over GF(2): the product
table ``T8[v] = c*v`` is the XOR of the bit-plane images ``c*2^i`` the
set bits of ``v`` select.  Instead of gathering one *byte* per symbol
through ``T8``, this backend precomputes, per constant, the paired
table over two adjacent symbols::

    T16[(hi << 8) | lo] = (T8[hi] << 8) | T8[lo]

— i.e. the XOR of the two byte-lane plane images, fused into one 64K ×
uint16 table (128 KiB) — and then gathers *two symbols per lookup* by
viewing the region as ``uint16``.  Halving the gather count pays once
the region is long enough to amortise the paired table's cache
footprint: below ~16K symbols the 128 KiB-per-constant tables thrash
and the 256-byte baseline tables win (``backend="auto"`` keeps the
baseline below one 64K-symbol executor chunk), while at 64K-symbol
regions the CI gate checks ≥1.2x.  XOR/COPY ops run exactly as
the baseline.

Odd-length chunks handle their final symbol through the ordinary byte
table; misaligned caller buffers (a uint16 view needs 2-byte-aligned
data) raise :class:`~repro.kernels.backends.base.RegionAlignmentError`
from the view construction itself, and the executor re-runs the call on
the baseline without quarantining.  w=4 regions (one nibble-valued
symbol per byte) use the same pairing over a zero-padded byte table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..ir import OP_COPY, OP_MUL, OP_MULXOR, OP_XOR
from .base import ExecutorBackend, RegionAlignmentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...gf.field import GF
    from ..ir import RegionProgram


def _byte_table(field: "GF", const: int) -> np.ndarray:
    """256-entry ``uint8`` product table (zero-padded for w=4)."""
    if field.w == 8:
        return field.mul8_table[const]
    # w=4: symbols are 0..15 stored one per byte, so only the first 16
    # entries are ever indexed; the padding keeps the pairing math unified
    table = np.zeros(256, dtype=np.uint8)
    table[:16] = field.mul(field.dtype.type(const), np.arange(16, dtype=field.dtype))
    return table


def paired_table(field: "GF", const: int) -> np.ndarray:
    """The fused two-symbol table ``T16`` (read-only, 64K x uint16)."""
    t8 = _byte_table(field, const).astype(np.uint16)
    # entry [hi, lo] = plane image of the high byte ^ image of the low
    # byte; ravel() makes the little-endian uint16 view the direct index
    t16 = np.bitwise_xor.outer(t8 << 8, t8).ravel()
    t16.setflags(write=False)
    return t16


class BitslicedBackend(ExecutorBackend):
    """Paired-gather GF(2^8)/GF(2^4) backend (see module docstring)."""

    name = "bitsliced"
    alignment = 2  # regions are re-viewed as uint16 two-symbol pairs

    def supports(self, field: "GF", program: "RegionProgram") -> bool:
        return field.w in (4, 8)

    def _tables_for(self, field: "GF", const: int) -> tuple[np.ndarray, np.ndarray]:
        key = (field.w, field.polynomial, const)

        def build() -> tuple[np.ndarray, np.ndarray]:
            t8 = _byte_table(field, const)
            return paired_table(field, const), t8

        return self._cached_table(key, build)

    def bind(self, field: "GF", program: "RegionProgram") -> tuple:
        bound = []
        for op, dst, src, const in program.instructions:
            if op in (OP_MUL, OP_MULXOR):
                t16, t8 = self._tables_for(field, const)
                bound.append((op, dst, src, t16, t8))
            else:
                bound.append((op, dst, src, None, None))
        return tuple(bound)

    def execute_chunk(
        self,
        bound: tuple,
        pool: Sequence[np.ndarray],
        n: int,
        scratch: object,
    ) -> None:
        half = n >> 1
        even = half << 1
        # one uint16 view per pool slot, shared by every instruction in
        # the chunk (view construction amortises over the whole stream);
        # numpy refuses the dtype change on odd data pointers, which is
        # exactly the bypass signal the executor handles
        try:
            pool16 = [region[:even].view(np.uint16) for region in pool]
        except ValueError as exc:
            raise RegionAlignmentError(str(exc)) from None
        ms16 = scratch[:even].view(np.uint16)
        tail = n - even  # 0 or 1
        for op, dst, src, t16, t8 in bound:
            d = pool[dst]
            if op == OP_XOR:
                np.bitwise_xor(d, pool[src], out=d)
            elif op == OP_MULXOR:
                np.take(t16, pool16[src], out=ms16)
                np.bitwise_xor(pool16[dst], ms16, out=pool16[dst])
                if tail:
                    # single odd trailing symbol per chunk, not a region loop
                    d[even] = d[even] ^ t8[pool[src][even]]  # ppm: noqa[PPM003]
            elif op == OP_MUL:
                np.take(t16, pool16[src], out=pool16[dst])
                if tail:
                    d[even] = t8[pool[src][even]]
            elif op == OP_COPY:
                np.copyto(d, pool[src])
            else:  # OP_ZERO
                d.fill(0)
