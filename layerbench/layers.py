"""End-to-end and per-layer metrics from one workload run.

End-to-end values are host-normalized (see ``host.py``): each session
reports the median of its per-operation samples and the run reports the
mean over sessions, so every fresh set-up -- and every auto-tuner
outcome -- weighs the same.  Per-layer values come from the traced half
of a ``--trace 1`` run, from the program's own counters and from the
spans the benchmark recorded at each layer boundary.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from tracing import Attribution, Span
from workloads import Run

E2E_UNITS = {
    "setup_s": "s",
    "decode_MBps": "MB/s",
    "read_rps": "1/s",
    "read_ms.p50": "ms",
    "peak_rss_MB": "MB",
}

#: name -> (unit, better) of every per-layer metric
PER_LAYER = {
    "kernels.exec_ms_per_op": ("ms", "lower"),
    "kernels.calls_per_op": ("count", "lower"),
    "kernels.GBps": ("GB/s", "higher"),
    "kernels.mult_xors_per_stripe": ("count", "lower"),
    "kernels.backend_share.numpy": ("fraction", "lower"),
    "kernels.backend_share.bitsliced": ("fraction", "higher"),
    "kernels.backend_share.splittab": ("fraction", "higher"),
    "kernels.program_misses": ("count", "lower"),
    "kernels.lower_ms": ("ms", "lower"),
    "planner.plan_ms": ("ms", "lower"),
    "planner.plans_per_op": ("count", "lower"),
    "pipeline.self_ms_per_op": ("ms", "lower"),
    "pipeline.plancache.hit_rate": ("fraction", "higher"),
    "pipeline.plancache.misses": ("count", "lower"),
    "pipeline.plancache.evictions": ("count", "lower"),
    "pipeline.stripes_per_batch": ("count", "higher"),
    "pipeline.worker_busy_frac": ("fraction", "higher"),
    "pipeline.useful_frac": ("fraction", "higher"),
    "pipeline.encode_MBps": ("MB/s", "higher"),
    "service.self_ms_per_read": ("ms", "lower"),
    "service.flush_wait_ms": ("ms", "lower"),
    "service.coalesce_factor": ("count", "higher"),
    "service.fallbacks": ("count", "lower"),
    "service.retries": ("count", "lower"),
    "service.failures": ("count", "lower"),
    "service.read_ms.p99": ("ms", "lower"),
    "store.bytes_per_degraded_read": ("B", "lower"),
    "store.read_amplification": ("ratio", "lower"),
    "host.probe_ms": ("ms", "lower"),
    "host.steal_frac": ("fraction", "lower"),
    "host.probe_contended": ("count", "lower"),
    "host.raw.setup_s": ("s", "lower"),
    "host.raw.decode_MBps": ("MB/s", "higher"),
    "host.raw.read_rps": ("1/s", "higher"),
    "host.raw.read_ms.p50": ("ms", "lower"),
    "host.raw.peak_rss_MB": ("MB", "lower"),
    "host.raw.encode_MBps": ("MB/s", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.unaccounted_frac": ("fraction", "lower"),
    "trace.read_samples": ("count", "higher"),
}

#: The blocking-path self times of the traced run must add up to the
#: traced call time within this share.
TRACE_TOLERANCE = 0.05

BACKENDS = ("numpy", "bitsliced", "splittab")


def _session_mean(run: Run, metric: str, index: int) -> float:
    medians = [
        statistics.median(v[index] for v in session[metric])
        for session in run.sessions
        if session.get(metric)
    ]
    return sum(medians) / len(medians) if medians else 0.0


def _percentile(values: list[float], p: float) -> float:
    return float(np.percentile(values, p)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, index: int = 1) -> dict[str, float]:
    """The end-to-end metrics; ``index`` 1 = normalized, 0 = raw."""
    return {
        "setup_s": statistics.median(s[index] for s in run.setup),
        "decode_MBps": _session_mean(run, "decode_MBps", index),
        "read_rps": _session_mean(run, "read_rps", index),
        "read_ms.p50": _percentile([lat[index] for lat in run.latencies], 50),
        "peak_rss_MB": peak_rss_mb(),
    }


def demoted(run: Run) -> dict[str, float]:
    """Normalized values of the two metrics kept out of the end-to-end
    set because not every workload has them (see ``NOTES.md``)."""
    return {
        "pipeline.encode_MBps": _session_mean(run, "encode_MBps", 1),
        "service.read_ms.p99": _percentile([lat[1] for lat in run.latencies], 99),
    }


def _missed_lookups(spans: list[Span]) -> set[int]:
    """Ids of the cache lookups that lowered a program (the misses)."""
    return {s.parent for s in spans if s.name == "kernels.lower"}


def _service(run: Run, att: Attribution) -> dict[str, float]:
    reads = len(att.roots)
    self_times: list[float] = []
    waits: list[float] = []
    for root in att.roots:
        served = att.served_by.get(root.sid, [])
        decode = sum(
            max(0.0, min(root.t1, call.t1) - max(root.t0, call.t0)) for _, call in served
        )
        self_times.append((root.t1 - root.t0) - decode)
        waits.extend(call.t0 - submit.t0 for submit, call in served)
    sm = run.service
    flushes = sum(m.flushes for m in sm)
    return {
        "service.self_ms_per_read": 1e3 * sum(self_times) / reads if reads else 0.0,
        "service.flush_wait_ms": 1e3 * statistics.mean(waits) if waits else 0.0,
        "service.coalesce_factor": (
            sum(m.flushed_reads for m in sm) / flushes if flushes else 0.0
        ),
        "service.fallbacks": sum(m.fallbacks for m in sm),
        "service.retries": sum(m.retries for m in sm),
        "service.failures": sum(m.failures for m in sm),
    }


def per_layer(
    plain: Run,
    traced: Run,
    spans: list[Span],
    att: Attribution,
    host: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric; zero where a layer does no work."""
    ops = max(1, traced.ops)
    ex = traced.executor
    exec_s = sum(e.get("exec_seconds", 0.0) for e in ex)
    symbols = sum(e.get("symbols", 0) for e in ex)
    by_backend = {
        name: sum(e.get("backends", {}).get(name, {}).get("symbols", 0) for e in ex)
        for name in BACKENDS
    }
    misses = _missed_lookups(spans)
    lowered = [s.t1 - s.t0 for s in spans if s.name == "kernels.lookup" and s.sid in misses]
    plans = [s.t1 - s.t0 for s in spans if s.name == "planner.plan_decode"]
    pm = traced.pipeline
    hits = sum(m.plan_cache_hits for m in pm)
    lookups = hits + sum(m.plan_cache_misses for m in pm)
    batches = sum(m.batches for m in pm)
    busy = [statistics.mean(m.worker_busy_fraction) for m in pm if m.worker_busy_fraction]

    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({
        "kernels.exec_ms_per_op": 1e3 * exec_s / ops,
        "kernels.calls_per_op": sum(e.get("executions", 0) for e in ex) / ops,
        "kernels.GBps": symbols * traced.itemsize / exec_s / 1e9 if exec_s else 0.0,
        "kernels.mult_xors_per_stripe": traced.counts["mult_xors_per_stripe"],
        "kernels.program_misses": traced.counts["program_misses"],
        "kernels.lower_ms": 1e3 * statistics.mean(lowered) if lowered else 0.0,
        "planner.plan_ms": 1e3 * statistics.mean(plans) if plans else 0.0,
        "planner.plans_per_op": len(plans) / ops,
        "pipeline.self_ms_per_op": 1e3 * att.layers.get("pipeline", 0.0) / ops,
        "pipeline.plancache.hit_rate": hits / lookups if lookups else 0.0,
        "pipeline.plancache.misses": traced.counts["plancache_misses"],
        "pipeline.plancache.evictions": sum(m.plan_cache_evictions for m in pm),
        "pipeline.stripes_per_batch": sum(m.stripes for m in pm) / batches if batches else 0.0,
        "pipeline.worker_busy_frac": statistics.mean(busy) if busy else 0.0,
        "pipeline.useful_frac": (
            traced.blocks_returned / traced.blocks_recovered if traced.blocks_recovered else 0.0
        ),
    })
    out.update(demoted(plain))
    for name in BACKENDS:
        out[f"kernels.backend_share.{name}"] = by_backend[name] / symbols if symbols else 0.0

    if traced.service:
        out.update(_service(traced, att))
        degraded = sum(m.degraded_gets for m in traced.service)
        snap = sum(s.nbytes for s in spans if s.name == "store.snapshot")
        per_read = snap / degraded if degraded else 0.0
        out["store.bytes_per_degraded_read"] = per_read
        out["store.read_amplification"] = per_read / traced.block_bytes
    out["trace.read_samples"] = len(plain.latencies)

    out.update(host)
    for name, value in end_to_end(plain, index=0).items():
        out[f"host.raw.{name}"] = value
    out["host.raw.encode_MBps"] = _session_mean(plain, "encode_MBps", 0)

    plain_rate = end_to_end(plain)["read_rps"]
    traced_rate = end_to_end(traced)["read_rps"]
    out["trace.overhead_frac"] = plain_rate / traced_rate - 1.0 if traced_rate else 0.0
    out["trace.unaccounted_frac"] = att.unaccounted_frac
    return out
