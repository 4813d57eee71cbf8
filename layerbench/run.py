#!/usr/bin/env python3
"""Layered benchmark of the PPM decode stack.

Usage (from the root of a checkout)::

    python3 layerbench/run.py --workload rebuild --seed 1 --seconds 10 \\
        --trace 0 --probe-ref-ms 8.0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` spends half the time untraced and half traced and reports
the per-layer metrics (plus the raw end-to-end values and the tracing
overhead).  ``--probe-ref-ms`` is the reference host's probe time that
every timing is normalized to (see ``host.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("rebuild", "ingest", "degraded-read")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-ref-ms", type=float, required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args: argparse.Namespace, corrupt: bool = False) -> tuple[dict, dict]:
    """One benchmark run: ``(result, info)`` -- the last output line and
    the host/count record printed before it."""
    from host import HostProbe, cpu_jiffies, fingerprint, steal_fraction
    from layers import E2E_UNITS, PER_LAYER, demoted, end_to_end, per_layer
    from tracing import Tracer, attribute
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe = HostProbe(args.probe_ref_ms)
    jiffies = cpu_jiffies()
    if not args.trace:
        runs = [workload(args.seed, args.seconds, probe, corrupt=corrupt)]
    else:
        tracer = Tracer()
        runs = [workload(args.seed, args.seconds / 2, probe, corrupt=corrupt)]
        with tracer.installed():
            runs.append(workload(args.seed, args.seconds / 2, probe, tracer=tracer))
    steal = steal_fraction(jiffies, cpu_jiffies())
    if not args.trace:
        values = end_to_end(runs[0])
        units = E2E_UNITS
    else:
        host = {
            "host.probe_ms": probe.median_ms,
            "host.steal_frac": steal,
            "host.probe_contended": probe.contended,
        }
        values = per_layer(*runs, tracer.spans, attribute(tracer.spans), host)
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    info = {
        "host": fingerprint(ROOT, steal),
        "probe_ms": probe.median_ms,
        "probe_contended": probe.contended,
        "read_samples": len(runs[0].latencies),
        "raw": end_to_end(runs[0], index=0),
        "demoted": demoted(runs[0]),
        "counts": runs[-1].counts,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"layerbench: no repro sources under {SRC}; run it from the root "
            "of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    result, info = measure(args)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
