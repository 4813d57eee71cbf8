"""Measured speedup of compiled region programs vs the interpreted path.

The acceptance experiment for :mod:`repro.kernels`: on the canonical
single-stripe decode workload — SD(n=10, r=8, m=2, s=2), one worst-case
erasure pattern, 4 KiB sectors — compare

- the **interpreted** path: ``PPMDecoder(parallel=False,
  compile=False)``, one Python round-trip per ``mult_XORs`` call;
- the **compiled** path: the same decoder with ``compile=True``
  (the default), where the whole plan runs as one fused, cached
  :class:`~repro.kernels.RegionProgram`.

Both sides recover the same bytes and book the *same* model op counts —
asserted before any throughput is reported, so a speedup can never come
from skipped or mis-counted work.  A sharded-counter micro-benchmark
rides along (satellite: the lock-free :class:`~repro.gf.OpCounter`),
as does a dump of the compiled program's model-vs-executed op counts.

Two further sections (see ``docs/BENCHMARKS.md`` for the schema):

- ``backends`` — the per-backend comparison table: every registered
  executor backend timed on representative (w, region-size) program
  classes, byte-checked against the baseline, with the backend an
  ``"auto"`` executor ran recorded per class (feeds the CI bitsliced
  gate);
- ``encode`` — the naive per-stripe ``encode`` loop vs the batched
  compiled ``encode_batch`` (feeds the CI encode gate).

Shared by ``ppm kernel-bench`` and ``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..codes import SDCode
from ..core import PPMDecoder, SequencePolicy, TraditionalDecoder
from ..gf import GF, OpCounter
from ..kernels import (
    BASELINE_BACKEND,
    ProgramExecutor,
    available_backends,
    get_backend,
    lower_matrix,
    lower_plan,
)
from ..stripes import worst_case_sd
from .pipeline import build_batch


def _time_decodes(decoder, code, stripe, faulty, iters: int, repeats: int) -> float:
    """Best-of-``repeats`` seconds for ``iters`` decodes of one stripe."""
    best = float("inf")
    decoder.decode(code, stripe, faulty)  # warm plan + program caches
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            decoder.decode(code, stripe, faulty)
        best = min(best, time.perf_counter() - t0)
    return best


def _counter_microbench(
    threads: int = 4, records_per_thread: int = 50_000
) -> dict:
    """Throughput and exactness of the sharded lock-free op counter."""
    counter = OpCounter()

    def worker() -> None:
        for _ in range(records_per_thread):
            counter.record(3, 3 * 1024, xor_only=1)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    t0 = time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    elapsed = time.perf_counter() - t0
    total = threads * records_per_thread
    expected = (3 * total, 1 * total, 3 * 1024 * total)
    got = counter.snapshot()
    return {
        "threads": threads,
        "records": total,
        "seconds": elapsed,
        "records_per_sec": total / elapsed if elapsed > 0 else 0.0,
        "exact": tuple(got) == expected,
    }


def _time_program(executor, program, inputs, iters: int, repeats: int) -> float:
    """Best-of-``repeats`` seconds for ``iters`` program executions."""
    executor.execute(program, inputs)  # warm bind + tables
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            executor.execute(program, inputs)
        best = min(best, time.perf_counter() - t0)
    return best


def _class_case(w: int, symbols: int, seed: int, sd_program=None):
    """One (w, region-size) benchmark class: a program and its inputs."""
    field = GF(w)
    rng = np.random.default_rng(seed + w)
    if sd_program is not None:
        program = sd_program
    else:
        # a dense 4x8 matrix apply: the shape of one group/rest stage
        matrix = rng.integers(1, min(1 << w, 1 << 16), size=(4, 8), dtype=field.dtype)
        program = lower_matrix(field, matrix)
    inputs = [
        rng.integers(0, (1 << w) - 1, size=symbols, dtype=field.dtype)
        for _ in range(program.num_inputs)
    ]
    return field, program, inputs


def _bench_backends(
    sd_program, seed: int, iters: int, repeats: int
) -> dict:
    """The per-backend comparison table over (w, region-size) classes.

    Every registered, supporting backend runs each class; results are
    byte-checked against the baseline before any throughput is
    reported.  The backend a ``backend="auto"`` executor actually ran
    for the class is recorded too.
    """
    classes = []
    # the w=8 cases run the real SD decode program; 4096 and 16384
    # symbols sit below one executor chunk (auto keeps the baseline
    # there), 64K symbols is the CI-gated class
    cases = [
        (8, 4096, sd_program),
        (8, 16384, sd_program),
        (8, 65536, sd_program),
        (16, 16384, None),
        (32, 16384, None),
    ]
    for w, symbols, prog in cases:
        field, program, inputs = _class_case(w, symbols, seed, sd_program=prog)
        baseline_exec = ProgramExecutor(field, backend=BASELINE_BACKEND)
        expected = baseline_exec.execute(program, inputs)
        entry: dict = {
            "w": w,
            "symbols": symbols,
            "program": program.label,
            "instructions": len(program.instructions),
            "backends": {},
        }
        base_seconds = None
        for name in available_backends():
            if not get_backend(name).supports(field, program):
                continue
            executor = ProgramExecutor(field, backend=name)
            got = executor.execute(program, inputs)
            match = all(np.array_equal(g, e) for g, e in zip(got, expected))
            if not match:
                raise AssertionError(
                    f"backend {name!r} diverges from baseline at w={w}"
                )
            seconds = _time_program(executor, program, inputs, iters, repeats)
            if name == BASELINE_BACKEND:
                base_seconds = seconds
            entry["backends"][name] = {
                "seconds": seconds,
                "executions_per_sec": iters / seconds if seconds > 0 else 0.0,
                "match": match,
            }
        for name, row in entry["backends"].items():
            row["speedup_vs_baseline"] = (
                base_seconds / row["seconds"] if row["seconds"] > 0 else 0.0
            )
        # the backend an "auto" executor runs for this class
        auto_exec = ProgramExecutor(field)
        auto_exec.execute(program, inputs)
        (entry["auto_choice"],) = auto_exec.stats()["backends"]
        entry["auto_speedup_vs_baseline"] = entry["backends"][entry["auto_choice"]][
            "speedup_vs_baseline"
        ]
        best = max(
            entry["backends"], key=lambda b: entry["backends"][b]["speedup_vs_baseline"]
        )
        entry["best"] = best
        entry["best_speedup_vs_baseline"] = entry["backends"][best][
            "speedup_vs_baseline"
        ]
        classes.append(entry)
    return {"registered": list(available_backends()), "classes": classes}


def _bench_encode(
    code, sector_symbols: int, stripes: int, seed: int, repeats: int
) -> dict:
    """Naive per-stripe encode loop vs the batched compiled encode."""
    batch = build_batch(code, stripes, sector_symbols, seed=seed)
    blocks_list = [
        {b: st.get(b) for b in code.data_block_ids} for st in batch
    ]
    naive_dec = TraditionalDecoder()
    batch_dec = TraditionalDecoder()
    expected = [naive_dec.encode(code, blocks) for blocks in blocks_list]
    got = batch_dec.encode_batch(code, blocks_list)
    for a, b in zip(expected, got):
        for bid in a:
            if not np.array_equal(a[bid], b[bid]):
                raise AssertionError(f"batched encode corrupted parity {bid}")
    naive_best = batch_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for blocks in blocks_list:
            naive_dec.encode(code, blocks)
        naive_best = min(naive_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batch_dec.encode_batch(code, blocks_list)
        batch_best = min(batch_best, time.perf_counter() - t0)
    return {
        "stripes": stripes,
        "sector_symbols": sector_symbols,
        "naive": {
            "path": "TraditionalDecoder.encode per stripe",
            "seconds": naive_best,
            "stripes_per_sec": stripes / naive_best if naive_best > 0 else 0.0,
        },
        "batched": {
            "path": "TraditionalDecoder.encode_batch (fused program)",
            "seconds": batch_best,
            "stripes_per_sec": stripes / batch_best if batch_best > 0 else 0.0,
        },
        "speedup": naive_best / batch_best if batch_best > 0 else 0.0,
        "results_match": True,
    }


def run_kernel_bench(
    n: int = 10,
    r: int = 8,
    m: int = 2,
    s: int = 2,
    sector_symbols: int = 4096,
    iters: int = 20,
    repeats: int = 3,
    seed: int = 2015,
    policy: SequencePolicy = SequencePolicy.PAPER,
    encode_stripes: int = 32,
) -> dict:
    """Interpreted-vs-compiled single-stripe decode; returns a JSON dict.

    Decoders persist across iterations, so the plan cache and (on the
    compiled side) the program cache are warm — exactly the steady state
    of a long-running rebuild, which is what the compiler amortises for.
    The ``backends`` comparison table covers every registered backend.
    """
    code = SDCode(n, r, m, s)
    scenario = worst_case_sd(code, z=1, rng=seed)
    faulty = list(scenario.faulty_blocks)
    stripe = build_batch(code, 1, sector_symbols, seed=seed)[0]
    truth = {b: stripe.get(b).copy() for b in faulty}
    stripe.erase(faulty)

    # correctness + op accounting first: same bytes, same model counts
    interp = PPMDecoder(parallel=False, policy=policy, compile=False)
    compiled = PPMDecoder(parallel=False, policy=policy, compile=True)
    interp_out, interp_stats = interp.decode(
        code, stripe, faulty, return_stats=True
    )
    comp_out, comp_stats = compiled.decode(code, stripe, faulty, return_stats=True)
    for b in faulty:
        if not np.array_equal(interp_out[b], truth[b]):
            raise AssertionError(f"interpreted decode corrupted block {b}")
        if not np.array_equal(comp_out[b], truth[b]):
            raise AssertionError(f"compiled decode corrupted block {b}")
    if comp_stats.mult_xors != interp_stats.mult_xors:
        raise AssertionError(
            f"compiled path books {comp_stats.mult_xors} mult_XORs but the "
            f"interpreted path books {interp_stats.mult_xors}"
        )

    interp_best = _time_decodes(interp, code, stripe, faulty, iters, repeats)
    comp_best = _time_decodes(compiled, code, stripe, faulty, iters, repeats)

    # model vs executed op counts of the fused program itself
    plan = compiled.plan(code, faulty)
    program = lower_plan(code.field, plan).program
    counter_stats = _counter_microbench()
    backend_stats = _bench_backends(program, seed, iters, repeats)
    encode_stats = _bench_encode(
        code, sector_symbols, encode_stripes, seed, repeats
    )

    interp_dps = iters / interp_best
    comp_dps = iters / comp_best
    return {
        "workload": {
            "code": f"SD(n={n}, r={r}, m={m}, s={s})",
            "faulty_blocks": faulty,
            "sector_symbols": sector_symbols,
            "iters": iters,
            "repeats": repeats,
            "policy": policy.name,
        },
        "interpreted": {
            "decoder": "PPMDecoder(parallel=False, compile=False)",
            "seconds": interp_best,
            "decodes_per_sec": interp_dps,
            "mult_xors": interp_stats.mult_xors,
        },
        "compiled": {
            "decoder": "PPMDecoder(parallel=False, compile=True)",
            "seconds": comp_best,
            "decodes_per_sec": comp_dps,
            "mult_xors": comp_stats.mult_xors,
        },
        "speedup": comp_dps / interp_dps if interp_dps else 0.0,
        "program": {
            "label": program.label,
            "instructions": len(program.instructions),
            "pool_size": program.pool_size,
            "model_mult_xors": program.mult_xors,
            "model_xor_only": program.xor_only,
            "executed_ops": program.executed_ops,
            "gathers": program.gathers,
            "xors": program.xors,
            "predicted_cost": plan.predicted_cost,
        },
        "counter": counter_stats,
        "backends": backend_stats,
        "encode": encode_stats,
        "results_match": True,
    }


def format_kernel_report(result: dict) -> str:
    """Human-readable summary of :func:`run_kernel_bench` output."""
    wl = result["workload"]
    interp = result["interpreted"]
    comp = result["compiled"]
    prog = result["program"]
    ctr = result["counter"]
    lines = [
        f"workload       {wl['code']}, {wl['sector_symbols']} symbols/sector, "
        f"faulty={wl['faulty_blocks']}",
        f"interpreted    {interp['decodes_per_sec']:.1f} decodes/s "
        f"({interp['seconds'] * 1e3:.2f} ms / {wl['iters']} decodes)",
        f"compiled       {comp['decodes_per_sec']:.1f} decodes/s "
        f"({comp['seconds'] * 1e3:.2f} ms / {wl['iters']} decodes)",
        f"speedup        {result['speedup']:.2f}x",
        f"op accounting  {comp['mult_xors']} mult_XORs on both paths "
        f"(predicted {prog['predicted_cost']})",
        f"program        {prog['instructions']} instruction(s), "
        f"{prog['pool_size']} slot(s); model {prog['model_mult_xors']} "
        f"mult_XORs ({prog['model_xor_only']} XOR-only) -> executed "
        f"{prog['executed_ops']} ops ({prog['gathers']} gathers, "
        f"{prog['xors']} XORs)",
        f"counter        {ctr['records_per_sec'] / 1e6:.2f} M records/s over "
        f"{ctr['threads']} thread(s), exact={ctr['exact']}",
        "results match  yes (bit-identical to the intact stripe)",
    ]
    backends = result.get("backends")
    if backends:
        lines.append("")
        lines.append(
            f"backends       registered: {', '.join(backends['registered'])}"
        )
        for entry in backends["classes"]:
            rows = ", ".join(
                f"{name} {row['speedup_vs_baseline']:.2f}x"
                for name, row in sorted(entry["backends"].items())
            )
            lines.append(
                f"  w={entry['w']:<2} {entry['symbols']:>6} sym  {rows}  "
                f"(auto picks {entry['auto_choice']})"
            )
    encode = result.get("encode")
    if encode:
        lines.append("")
        lines.append(
            f"encode         naive {encode['naive']['stripes_per_sec']:.1f} "
            f"stripes/s -> batched {encode['batched']['stripes_per_sec']:.1f} "
            f"stripes/s ({encode['speedup']:.2f}x, {encode['stripes']} stripes "
            f"x {encode['sector_symbols']} symbols)"
        )
    return "\n".join(lines)
