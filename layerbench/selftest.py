#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage (from the root of a checkout)::

    python3 layerbench/selftest.py [--seconds 2]

For every workload it checks that

- a run whose first output is corrupted at the benchmark's wrapper
  (one bit of one returned symbol) reports ``correct: false``;
- two traced runs with the same seed report identical exact counts
  (``mult_xors_per_stripe``, plan-cache and program-cache misses over
  the fixed window) and are both correct;
- the traced run's per-layer self times add up to the traced call time
  within ``TRACE_TOLERANCE``;
- both kinds of run report exactly the metrics, with the units, that
  ``BENCHMARK.json`` declares.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

from run import ROOT, SRC, WORKLOAD_NAMES, measure, parse_args


def _declared() -> tuple[float, dict[str, str], dict[str, str]]:
    """The probe reference and the end-to-end / per-layer units."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    p_ref = float(command[command.index("--probe-ref-ms") + 1])
    units = [{m["name"]: m["unit"] for m in bench[k]} for k in ("end_to_end", "per_layer")]
    return p_ref, units[0], units[1]


def _quiet(args, corrupt=False):
    with contextlib.redirect_stdout(io.StringIO()):
        return measure(args, corrupt=corrupt)


def main() -> int:
    parser = argparse.ArgumentParser(description="layerbench self-test")
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=7)
    opts = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from layers import TRACE_TOLERANCE

    p_ref, end_to_end, per_layer = _declared()
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOAD_NAMES:

        def args(trace: int):
            return parse_args([
                "--workload", workload, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds), "--trace", str(trace),
                "--probe-ref-ms", str(p_ref),
            ])

        corrupted, _ = _quiet(args(0), corrupt=True)
        check(
            not corrupted["correct"] and corrupted["failed"] >= 1,
            f"{workload}: a corrupted output fails the run "
            f"({corrupted['failed']} of {corrupted['attempted']} failed)",
        )
        check(
            {k: v["unit"] for k, v in corrupted["metrics"].items()} == end_to_end,
            f"{workload}: reports exactly the declared end-to-end metrics",
        )
        first, first_info = _quiet(args(1))
        second, second_info = _quiet(args(1))
        check(first["correct"] and second["correct"], f"{workload}: traced runs are correct")
        check(
            first_info["counts"] == second_info["counts"],
            f"{workload}: exact counts repeat {first_info['counts']} / {second_info['counts']}",
        )
        unaccounted = first["metrics"]["trace.unaccounted_frac"]["value"]
        check(
            abs(unaccounted) <= TRACE_TOLERANCE,
            f"{workload}: self times add up to the call time (unaccounted {unaccounted:.4f})",
        )
        check(
            {k: v["unit"] for k, v in first["metrics"].items()} == per_layer,
            f"{workload}: reports exactly the declared per-layer metrics",
        )
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
