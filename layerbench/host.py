"""Host-speed probe, contention guard and host fingerprint.

The benchmark host's speed drifts by about 2x within seconds (other
tenants share the cores), so a raw wall-clock time says as much about
the neighbours as about the code.  Every timed operation is therefore
bracketed by a fixed probe -- a NumPy table gather + XOR and a pure
Python loop, touching no ``repro`` code -- and scaled to a reference
host on which the probe takes ``p_ref_ms``::

    normalized = raw * p_ref_ms / probe_ms

A probe during which the process burned more CPU than the probing
thread itself (a pool thread still running, say) is *contended*: it is
counted and left out, so a change cannot look faster by keeping the
host busy while the probe runs.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

_PROBE_GATHERS = 8
_PROBE_LOOP = 20000
#: Extra CPU (beyond the probe thread's own) that marks a probe
#: contended: 10% of the probe's CPU plus a 0.5 ms floor for clock
#: granularity.
_CONTENDED_SHARE = 0.10
_CONTENDED_FLOOR_S = 0.0005


class HostProbe:
    """Times the fixed probe and scales operation times by it."""

    def __init__(self, p_ref_ms: float):
        if p_ref_ms <= 0:
            raise ValueError(f"probe reference must be positive, got {p_ref_ms}")
        self.p_ref_ms = p_ref_ms
        rng = np.random.default_rng(0x5EED)
        self._table = rng.integers(0, 256, size=256, dtype=np.uint8)
        self._index = rng.integers(0, 256, size=1 << 18, dtype=np.uint8)
        self._gathered = np.empty_like(self._index)
        self._acc = np.zeros_like(self._index)
        self.samples_ms: list[float] = []
        self.contended = 0

    def _work(self) -> int:
        for _ in range(_PROBE_GATHERS):
            np.take(self._table, self._index, out=self._gathered)
            np.bitwise_xor(self._gathered, self._acc, out=self._acc)
        s = 0
        for i in range(_PROBE_LOOP):
            s ^= (i * 2654435761) & 0xFFFF
        return s

    def probe(self) -> float | None:
        """One probe in ms, or ``None`` when it was contended."""
        cpu0, thread0 = time.process_time(), time.thread_time()
        t0 = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        own = time.thread_time() - thread0
        if cpu - own > own * _CONTENDED_SHARE + _CONTENDED_FLOOR_S:
            self.contended += 1
            return None
        ms = elapsed * 1e3
        self.samples_ms.append(ms)
        return ms

    def scale(self, *probes: float | None) -> float:
        """``p_ref / probe`` from the uncontended adjacent probes.

        Falls back to the run's median probe when every adjacent probe
        was contended (and to 1.0 before any probe succeeded).
        """
        valid = [p for p in probes if p is not None]
        if valid:
            return self.p_ref_ms / (sum(valid) / len(valid))
        if self.samples_ms:
            return self.p_ref_ms / statistics.median(self.samples_ms)
        return 1.0

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` between two probes: ``(result, raw_s, normalized_s)``."""
        before = self.probe()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = self.probe()
        return result, raw, raw * self.scale(before, after)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms) if self.samples_ms else 0.0


def cpu_jiffies() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies from ``/proc/stat``, when readable."""
    try:
        line = Path("/proc/stat").read_text().splitlines()[0]
    except OSError:
        return None
    fields = [int(x) for x in line.split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_fraction(start: tuple[int, int] | None, end: tuple[int, int] | None) -> float:
    """Share of CPU time the hypervisor stole between two readings."""
    if start is None or end is None or end[1] <= start[1]:
        return 0.0
    return (end[0] - start[0]) / (end[1] - start[1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path, steal: float) -> dict[str, object]:
    """What a result must carry to tell a slower host from a regression."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "steal_frac": steal,
    }
