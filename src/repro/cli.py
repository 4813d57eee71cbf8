"""Command-line interface: ``python -m repro <command>`` or ``ppm <command>``.

Commands
--------
figure N        regenerate one of the paper's evaluation figures (4-11)
figures         regenerate all of them
reproduce       write every figure (table + CSV) into a results directory
paper-example   walk through the Section II-B/III-B worked example
calibrate       print this host's measured GF-kernel profile
demo            encode/fail/decode a stripe and verify, with both decoders
list-codes      show the registered erasure-code constructions
verify          static verification sweep of decode plans + XOR schedules
verify-code     Monte-Carlo decodability verification of a code instance
search          search SD coefficient sets (the SD authors' pipeline)
io-compare      degraded-read I/O bill of LRC vs RS vs SD
lifetime        synthetic failure-trace simulation of lifetime repair cost
inspect         Figure-3-style dump: matrix, log table, partition, costs
extra NAME      extra experiments (c2-share, energy, parallel-strategies,
                rebuild-strategies, degraded-read-io, xor-scheduling,
                paper-average)
pipeline-bench  batched DecodePipeline vs per-stripe decode throughput
hedge-bench     tail latency under injected slow/corrupt workers, gated
kernel-bench    compiled region programs vs interpreted decode throughput
serve           run the degraded-read BlobService on a TCP port
cluster         run a sharded multi-node cluster behind one TCP port
loadgen         drive services/clusters (in-process or TCP) with seeded load
service-bench   coalesced batched serving vs naive per-request decode
repair-bench    online scrub-and-repair vs no-repair baseline under load
cluster-bench   sharded router vs single service; storm p99; rebalance
encode-file     split + encode a file into per-disk strip files
decode-file     reconstruct a file from surviving strips (erasure-decoding)
repair-files    regenerate missing strip files in place
"""

from __future__ import annotations

import argparse
import sys

from . import __version__


def _cmd_figure(args: argparse.Namespace) -> int:
    from .bench import run_figure

    report = run_figure(args.number, fast=not args.full)
    text = report.to_csv() if args.csv else report.format_table()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .bench import FIGURES, run_figure

    for number in sorted(FIGURES):
        print(run_figure(number, fast=not args.full).format_table())
        print()
    return 0


def _cmd_paper_example(_args: argparse.Namespace) -> int:
    from .codes import SDCode
    from .core import (
        SequencePolicy,
        build_log_table,
        format_log_table,
        partition,
        plan_decode,
    )

    code = SDCode(4, 4, 1, 1, 8)
    faulty = [2, 6, 10, 13, 14]
    print(code.describe())
    print(f"faulty sectors: {faulty}")
    print()
    print("Log table (paper, Figure 3):")
    print(format_log_table(build_log_table(code.H, faulty)))
    part = partition(code.H, faulty)
    print()
    print(f"partition: p = {part.p} independent sub-matrices")
    for i, g in enumerate(part.groups):
        print(f"  H{i}: rows {list(g.row_ids)} recover blocks {list(g.faulty_ids)}")
    print(f"  H_rest: rows {list(part.rest_row_ids)} recover {list(part.rest_faulty_ids)}")
    plan = plan_decode(code, faulty, SequencePolicy.PAPER)
    print()
    print(f"costs: {plan.costs.as_dict()}  (paper: C1=35, C2=31, C4=29)")
    print(f"chosen mode: {plan.mode.value}")
    print(f"reduction (C1-C4)/C1 = {plan.costs.reduction():.2%}  (paper: 17.14%)")
    return 0


def _cmd_calibrate(_args: argparse.Namespace) -> int:
    from .parallel import PAPER_CPUS, host_profile, scaled_paper_profile

    host = host_profile(refresh=True)
    print(f"host: {host.cores} core(s)")
    print(f"mult_XORs throughput: {host.base_throughput / 1e6:.1f} M symbol-ops/s")
    print(f"thread spawn overhead: {host.spawn_overhead_s * 1e6:.1f} us/thread")
    print()
    print("scaled paper CPU profiles:")
    for cpu in PAPER_CPUS:
        scaled = scaled_paper_profile(cpu, host)
        print(
            f"  {scaled.name:<10} {scaled.cores} cores @ {scaled.ghz} GHz -> "
            f"{scaled.throughput / 1e6:.1f} M symbol-ops/s/core"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from .core import PPMDecoder, TraditionalDecoder
    from .codes import get_code
    from .stripes import Stripe, StripeLayout, worst_case_sd

    code = get_code("sd", n=args.n, r=args.r, m=args.m, s=args.s)
    print(code.describe())
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, args.symbols, rng=0)
    TraditionalDecoder().encode_into(code, stripe)
    scen = worst_case_sd(code, z=1, rng=args.seed)
    print(f"failure: {scen.describe(StripeLayout.of_code(code))}")
    truth = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    for name, decoder in [
        ("traditional", TraditionalDecoder(policy="normal")),
        ("PPM", PPMDecoder(threads=args.threads)),
    ]:
        recovered, stats = decoder.decode(code, stripe, scen.faulty_blocks, return_stats=True)
        ok = all(np.array_equal(recovered[b], truth.get(b)) for b in scen.faulty_blocks)
        print(
            f"{name:>12}: {stats.mult_xors} mult_XORs, "
            f"{stats.wall_seconds * 1e3:.2f} ms, verified={ok}"
        )
    return 0


def _cmd_list_codes(_args: argparse.Namespace) -> int:
    from .codes import available_codes

    for kind in available_codes():
        print(kind)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    import os

    from .bench import FIGURES, run_figure

    os.makedirs(args.out, exist_ok=True)
    for number in sorted(FIGURES):
        report = run_figure(number, fast=not args.full)
        base = os.path.join(args.out, f"figure{number}")
        with open(base + ".txt", "w") as fh:
            fh.write(report.format_table() + "\n")
        with open(base + ".csv", "w") as fh:
            fh.write(report.to_csv() + "\n")
        print(f"figure {number}: {base}.txt / .csv")
    if args.extras:
        from .bench import EXTRAS, run_extra

        for name in sorted(EXTRAS):
            report = run_extra(name, fast=not args.full)
            base = os.path.join(args.out, f"extra_{name.replace('-', '_')}")
            with open(base + ".txt", "w") as fh:
                fh.write(report.format_table() + "\n")
            print(f"extra {name}: {base}.txt")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .codes import get_code
    from .verify import sweep_all, sweep_code

    if args.all or not args.kind:
        results = sweep_all(
            samples=args.samples,
            seed=args.seed,
            check_schedules=not args.no_schedules,
            check_programs=not args.no_programs,
            check_backends=args.strict,
        )
    else:
        params = dict(pair.split("=", 1) for pair in args.param)
        code = get_code(args.kind, **{k: int(v) for k, v in params.items()})
        results = [
            sweep_code(
                code,
                samples=args.samples,
                seed=args.seed,
                check_schedules=not args.no_schedules,
                check_programs=not args.no_programs,
                check_backends=args.strict,
            )
        ]
    failed = 0
    for result in results:
        print(result.summary())
        if result.report.findings:
            for finding in result.report.findings:
                print(f"    {finding.format()}")
        if not result.ok:
            failed += 1
    total = sum(r.scenarios for r in results)
    if failed:
        print(f"FAIL: {failed} of {len(results)} code(s) produced invalid plans")
        return 1
    print(f"all plans verified: {len(results)} code(s), {total} scenario(s)")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .verify.check import list_rules, run_check

    if args.list_rules:
        print(list_rules())
        return 0
    try:
        report = run_check(
            args.paths or ["src"],
            strict=args.strict,
            samples=args.samples,
            seed=args.seed,
        )
    except FileNotFoundError as exc:
        print(f"ppm check: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_human())
    return report.exit_code


def _cmd_verify_code(args: argparse.Namespace) -> int:
    from .codes import get_code, verify_code

    params = dict(pair.split("=", 1) for pair in args.param)
    code = get_code(args.kind, **{k: int(v) for k, v in params.items()})
    print(code.describe())
    ok = verify_code(code, samples=args.samples, seed=args.seed)
    print(f"verification ({args.samples} samples): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_search(args: argparse.Namespace) -> int:
    from .codes import find_sd_coefficients

    coeffs = find_sd_coefficients(
        args.n, args.r, args.m, args.s, args.w, tries=args.tries, samples=args.samples
    )
    label = ",".join(str(a) for a in coeffs)
    print(f"SD^{{{args.m},{args.s}}}_{{{args.n},{args.r}}}({args.w}|{label})")
    return 0


def _cmd_io_compare(args: argparse.Namespace) -> int:
    from .codes import LRCCode, RSCode, SDCode
    from .stripes import compare_degraded_read

    codes = {
        f"RS({args.k + 4},{args.k})": RSCode(args.k + 4, args.k, r=1),
        f"LRC({args.k},4,2)": LRCCode(args.k, 4, 2),
        f"SD(n={args.k + 2},m=2,s=2) [row read]": SDCode(args.k + 2, 16, 2, 2),
    }
    print(f"degraded read of one data block (k = {args.k}):")
    for name, io in compare_degraded_read(codes, lost_block=0).items():
        print(
            f"  {name:<28} reads {io.read_count:>3} blocks on "
            f"{len(io.disks_touched):>3} disks, {io.mult_xors:>4} mult_XORs"
        )
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from .codes import SDCode
    from .stripes import TraceConfig, simulate_lifetime

    code = SDCode(args.n, args.r, args.m, args.s)
    config = TraceConfig(
        years=args.years, disk_afr=args.afr, lse_rate=args.lse, seed=args.seed
    )
    report = simulate_lifetime(code, num_stripes=args.stripes, config=config)
    print(code.describe())
    print(
        f"{args.years:.1f} years: {report.disk_failures} disk failures, "
        f"{report.lse_events} LSEs, {report.stripes_repaired} stripe repairs, "
        f"{report.unrecoverable_stripes} unrecoverable"
    )
    print(
        f"repair compute: C1={report.mult_xors['C1']:,} "
        f"PPM={report.mult_xors['PPM']:,} saved={report.improvement():.1%}"
    )
    return 0


def _cmd_extra(args: argparse.Namespace) -> int:
    from .bench import run_extra

    report = run_extra(args.name, fast=not args.full)
    print(report.to_csv() if args.csv else report.format_table())
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .codes import get_code
    from .core import inspect
    from .stripes import worst_case_sd

    params = dict(pair.split("=", 1) for pair in args.param)
    code = get_code(args.kind, **{k: int(v) for k, v in params.items()})
    if args.faulty:
        faulty = [int(b) for b in args.faulty.split(",")]
    else:
        faulty = list(worst_case_sd(code, z=1, rng=args.seed).faulty_blocks)
    print(inspect(code, faulty, show_matrix=not args.no_matrix))
    return 0


def _cmd_pipeline_bench(args: argparse.Namespace) -> int:
    import json

    from .bench.pipeline import format_pipeline_report, run_pipeline_bench

    result = run_pipeline_bench(
        n=args.n,
        r=args.r,
        m=args.m,
        s=args.s,
        num_stripes=args.stripes,
        sector_symbols=args.symbols,
        workers=args.workers,
        pool=args.pool,
        repeats=args.repeats,
        seed=args.seed,
    )
    print(format_pipeline_report(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_hedge_bench(args: argparse.Namespace) -> int:
    import json

    from .bench.hedge import format_hedge_report, run_hedge_bench

    result = run_hedge_bench(
        n=args.n,
        r=args.r,
        m=args.m,
        s=args.s,
        num_stripes=args.stripes,
        sector_symbols=args.symbols,
        calls=150 if args.quick else args.calls,
        warmup=30 if args.quick else args.warmup,
        workers=args.workers,
        slow_rate=args.slow_rate,
        slow_factor=args.slow_factor,
        corrupt_rate=args.corrupt_rate,
        max_p99_ratio=args.max_p99_ratio,
        seed=args.seed,
    )
    print(format_hedge_report(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if result["gates"]["passed"] else 1


def _cmd_kernel_bench(args: argparse.Namespace) -> int:
    import json

    from .bench.kernels import format_kernel_report, run_kernel_bench

    result = run_kernel_bench(
        n=args.n,
        r=args.r,
        m=args.m,
        s=args.s,
        sector_symbols=args.symbols,
        iters=args.iters,
        repeats=args.repeats,
        seed=args.seed,
        encode_stripes=args.encode_stripes,
    )
    print(format_kernel_report(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    failed = False
    if args.min_speedup and result["speedup"] < args.min_speedup:
        print(
            f"FAIL: compiled speedup {result['speedup']:.2f}x < "
            f"required {args.min_speedup:.2f}x"
        )
        failed = True
    if args.min_backend_speedup:
        # the gated class: the SD decode program over w=8 regions of
        # --gate-symbols (default 64K: past the paired-table residency
        # crossover, where the bitsliced backend is designed to win)
        gated = next(
            (
                c
                for c in result["backends"]["classes"]
                if c["w"] == 8 and c["symbols"] == args.gate_symbols
            ),
            result["backends"]["classes"][0],
        )
        got = (
            gated["backends"]
            .get(args.gate_backend, {})
            .get("speedup_vs_baseline", 0.0)
        )
        if got < args.min_backend_speedup:
            print(
                f"FAIL: {args.gate_backend} speedup {got:.2f}x < required "
                f"{args.min_backend_speedup:.2f}x at w={gated['w']} "
                f"{gated['symbols']} symbols"
            )
            failed = True
    if args.min_encode_speedup and result["encode"]["speedup"] < args.min_encode_speedup:
        print(
            f"FAIL: batched encode speedup {result['encode']['speedup']:.2f}x < "
            f"required {args.min_encode_speedup:.2f}x"
        )
        failed = True
    return 1 if failed else 0


#: CLI flag → dotted path in the layered config (see repro.config);
#: flags default to None so only *explicitly passed* values override
#: the config file, which overrides the dataclass defaults
_FLAG_PATHS = {
    "n": "store.n",
    "r": "store.r",
    "m": "store.m",
    "s": "store.s",
    "stripes": "store.stripes",
    "symbols": "store.symbols",
    "fault_rate": "store.fault_rate",
    "damaged": "store.damaged",
    "corrupt_fraction": "store.corrupt_fraction",
    "seed": "store.seed",
    "batch_trigger": "service.batch_trigger",
    "hedge": "pipeline.hedge",
    "verify_workers": "pipeline.verify_workers",
    "scrub_stripes": "service.repair.scrub_stripes",
    "repair_rate": "service.repair.rate_blocks_per_s",
    "nodes": "cluster.nodes",
    "transport": "cluster.transport",
    "requests": "workload.requests",
    "concurrency": "workload.concurrency",
    "degraded_fraction": "workload.degraded_fraction",
}


def _app_config(args: argparse.Namespace, base=None):
    """The three config layers, bottom to top: dataclass defaults (or a
    command-specific ``base``), then ``--config FILE``, then explicit
    flags and ``--set path=value`` overrides."""
    import json

    from . import config as appcfg

    cfg = base if base is not None else appcfg.AppConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = appcfg.apply_overrides(cfg, appcfg.flatten(json.load(fh)))
    overrides: dict = {}
    if getattr(args, "repair", False) and cfg.service.repair is None:
        overrides["service.repair"] = True
    if getattr(args, "flush_ms", None) is not None:
        overrides["service.flush_interval_s"] = args.flush_ms / 1e3
    if getattr(args, "naive", False):
        overrides["service.coalesce"] = False
    for flag, path in _FLAG_PATHS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[path] = value
    # one --seed keeps the whole world deterministic: it feeds the
    # placement ring too unless cluster.seed was set separately
    if "store.seed" in overrides:
        overrides.setdefault("cluster.seed", overrides["store.seed"])
    cfg = appcfg.apply_overrides(cfg, overrides)
    for item in getattr(args, "set", None) or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--set needs path=value, got {item!r}")
        cfg = appcfg.apply_overrides(cfg, {key: value})
    return cfg


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .config import build_service
    from .service import serve

    cfg = _app_config(args)

    async def main() -> int:
        service = build_service(cfg)
        service.start_repair()
        server = await serve(service, host=args.host, port=args.port)
        host, port = server.sockets[0].getsockname()[:2]
        store = cfg.store
        print(f"serving SD(n={store.n}, r={store.r}, m={store.m}, s={store.s}) "
              f"x {store.stripes} stripes on {host}:{port}")
        print(f"coalescing: trigger {cfg.service.batch_trigger}, "
              f"flush {cfg.service.flush_interval_s * 1e3:.1f} ms, "
              f"fault rate {store.fault_rate:.0%}")
        try:
            async with server:
                await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - signal-driven
            pass
        finally:
            await service.close()
            print(json.dumps(service.metrics_dict(), indent=2))
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .config import build_cluster
    from .service import serve

    cfg = _app_config(args)

    async def main() -> int:
        cluster = build_cluster(cfg)
        async with cluster:
            server = await serve(cluster, host=args.host, port=args.port)
            host, port = server.sockets[0].getsockname()[:2]
            store = cfg.store
            print(
                f"cluster of {cfg.cluster.nodes} nodes "
                f"(SD(n={store.n}, r={store.r}, m={store.m}, s={store.s}) "
                f"x {store.stripes} stripes, transport "
                f"{cfg.cluster.transport}) on {host}:{port}"
            )
            try:
                async with server:
                    await server.serve_forever()
            except asyncio.CancelledError:  # pragma: no cover - signal-driven
                pass
            finally:
                print(json.dumps(cluster.metrics_dict(), indent=2))
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _print_loadgen_summary(summary: dict, label: str | None = None) -> None:
    prefix = f"[{label}] " if label else ""
    print(
        f"{prefix}{summary['completed']}/{summary['requests']} requests ok, "
        f"{summary['failed']} failed, {summary.get('corrupt', 0)} corrupt, "
        f"{summary['requests_per_sec']:.1f} req/s"
    )
    if summary.get("errors"):
        breakdown = ", ".join(
            f"{name}={count}" for name, count in sorted(summary["errors"].items())
        )
        print(f"{prefix}failure breakdown: {breakdown}")
    if "latency" in summary:
        lat = summary["latency"]
        print(
            f"{prefix}latency p50 {lat['p50_s'] * 1e3:.2f} ms  "
            f"p99 {lat['p99_s'] * 1e3:.2f} ms  max {lat['max_s'] * 1e3:.2f} ms"
        )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .config import build_cluster, build_service
    from .service import (
        build_request_schedule,
        connect,
        run_loadgen,
        run_loadgen_multi,
    )

    cfg = _app_config(args)
    workload = cfg.workload

    async def run_inprocess() -> tuple[dict, dict]:
        """One in-process backend: a service, or a cluster (--cluster)."""
        use_cluster = args.cluster or args.nodes is not None
        backend = build_cluster(cfg) if use_cluster else build_service(cfg)
        schedule = build_request_schedule(
            backend, workload.requests, seed=cfg.store.seed,
            degraded_fraction=workload.degraded_fraction,
        )
        async with backend:
            summary = await run_loadgen(
                backend, schedule, concurrency=workload.concurrency, verify=True
            )
            return summary, backend.metrics_dict()

    async def run_remote() -> tuple[dict, dict]:
        """One or more ``--connect`` endpoints, driven concurrently."""
        clients = [
            await connect(endpoint, connections=workload.concurrency)
            for endpoint in args.connect
        ]
        # a remote client cannot see the store, so the schedule is a
        # plain round-robin over --stripes present block 0 reads
        schedule = [
            ("get", i % cfg.store.stripes, 0) for i in range(workload.requests)
        ]
        try:
            if len(clients) == 1:
                summary = await run_loadgen(
                    clients[0],
                    schedule,
                    concurrency=workload.concurrency,
                    verify=True,
                )
                metrics = await clients[0].metrics()
                return summary, metrics
            multi = await run_loadgen_multi(
                clients,
                [schedule] * len(clients),
                concurrency=workload.concurrency,
                verify=True,
            )
            # label client summaries by their endpoint strings
            multi["endpoints"] = dict(
                zip(args.connect, multi["endpoints"].values())
            )
            metrics = {
                endpoint: await client.metrics()
                for endpoint, client in zip(args.connect, clients)
            }
            return multi, metrics
        finally:
            for client in clients:
                await client.close()

    remote = bool(args.connect)
    summary, metrics = asyncio.run(run_remote() if remote else run_inprocess())
    if "aggregate" in summary:  # multi-endpoint result
        for endpoint, endpoint_summary in summary["endpoints"].items():
            _print_loadgen_summary(endpoint_summary, label=endpoint)
        _print_loadgen_summary(summary["aggregate"], label="aggregate")
        flat = summary["aggregate"]
    else:
        _print_loadgen_summary(summary)
        flat = summary
        coal = metrics.get("coalescing", {})
        if coal:
            print(
                f"coalesce factor {coal['coalesce_factor']:.2f} "
                f"({coal['flushed_reads']} reads / {coal['flushes']} flushes), "
                f"queue peak {coal['queue_depth_peak']}"
            )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"loadgen": summary, "service": metrics}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if flat["failed"] or flat.get("corrupt", 0):
        print("FAIL: requests failed or responses corrupt")
        return 1
    return 0


def _cmd_service_bench(args: argparse.Namespace) -> int:
    import json

    from .bench.service import format_service_report, run_service_bench
    from .config import AppConfig, apply_overrides

    cfg = _app_config(
        args, base=apply_overrides(AppConfig(), {"workload.concurrency": 32})
    )
    result = run_service_bench(
        n=cfg.store.n,
        r=cfg.store.r,
        m=cfg.store.m,
        s=cfg.store.s,
        num_stripes=cfg.store.stripes,
        sector_symbols=cfg.store.symbols,
        requests=cfg.workload.requests,
        concurrency=cfg.workload.concurrency,
        fault_rate=cfg.store.fault_rate,
        batch_trigger=cfg.service.batch_trigger,
        flush_interval_s=cfg.service.flush_interval_s,
        seed=cfg.store.seed,
    )
    print(format_service_report(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if result["failed_requests"] or result["corrupt_responses"]:
        print("FAIL: failed or corrupt requests under injected faults")
        return 1
    if args.min_speedup and result["speedup"] < args.min_speedup:
        print(
            f"FAIL: coalesced serving speedup {result['speedup']:.2f}x < "
            f"required {args.min_speedup:.2f}x"
        )
        return 1
    return 0


def _cmd_repair_bench(args: argparse.Namespace) -> int:
    import json

    from .bench.repair import format_repair_report, run_repair_bench
    from .config import AppConfig, apply_overrides

    cfg = _app_config(
        args,
        base=apply_overrides(
            AppConfig(), {"service.repair": True, "service.repair.scrub_stripes": 8}
        ),
    )
    repair = cfg.service.repair
    result = run_repair_bench(
        n=cfg.store.n,
        r=cfg.store.r,
        m=cfg.store.m,
        s=cfg.store.s,
        num_stripes=cfg.store.stripes,
        sector_symbols=cfg.store.symbols,
        requests=cfg.workload.requests,
        concurrency=cfg.workload.concurrency,
        fault_rate=cfg.store.fault_rate,
        damaged_fraction=cfg.store.damaged,
        corrupt_fraction=cfg.store.corrupt_fraction,
        degraded_fraction=cfg.workload.degraded_fraction,
        scrub_stripes=repair.scrub_stripes,
        rate_blocks_per_s=repair.rate_blocks_per_s,
        heal_timeout_s=args.heal_timeout,
        max_p99_ratio=args.max_p99_ratio,
        seed=cfg.store.seed,
    )
    print(format_repair_report(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if not result["healed"] or not result["truth_verified"]:
        print("FAIL: array did not fully heal to verified ground truth")
        return 1
    if not result["p99_within_bound"]:
        print(
            f"FAIL: foreground p99 degraded {result['p99_ratio']:.2f}x with "
            f"repair on (bound {result['max_p99_ratio']:.1f}x)"
        )
        return 1
    return 0


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    import json

    from .bench.cluster import (
        bench_defaults,
        format_cluster_report,
        run_cluster_bench,
    )

    cfg = _app_config(args, base=bench_defaults())
    result = run_cluster_bench(
        cfg,
        heal_timeout_s=args.heal_timeout,
        min_speedup=args.min_speedup,
        max_p99_ratio=args.max_p99_ratio,
    )
    print(format_cluster_report(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if not result["gates"]["healed_ok"]:
        print("FAIL: rebuild storm did not heal to verified ground truth")
        return 1
    if not result["gates"]["speedup_ok"]:
        print(
            f"FAIL: router speedup {result['throughput']['speedup']:.2f}x < "
            f"required {args.min_speedup:.2f}x"
        )
        return 1
    if not result["gates"]["p99_ok"]:
        print(
            f"FAIL: foreground p99 degraded {result['storm']['p99_ratio']:.2f}x "
            f"under the storm (bound {args.max_p99_ratio:.1f}x)"
        )
        return 1
    return 0


def _cmd_encode_file(args: argparse.Namespace) -> int:
    from .codes import get_code
    from .filecodec import encode_file

    params = dict(pair.split("=", 1) for pair in args.param)
    code = get_code(args.kind, **{k: int(v) for k, v in params.items()})
    meta = encode_file(args.file, code, args.out, sector_bytes=args.sector_bytes)
    print(
        f"encoded {meta.original_name} ({meta.original_size} bytes) into "
        f"{code.n} strips x {meta.num_stripes} stripes under {args.out}"
    )
    return 0


def _cmd_decode_file(args: argparse.Namespace) -> int:
    from .core import PPMDecoder, TraditionalDecoder
    from .filecodec import decode_file

    decoder = (
        TraditionalDecoder() if args.traditional else PPMDecoder(parallel=False)
    )
    meta = decode_file(args.meta, args.out, decoder=decoder)
    print(f"reconstructed {meta.original_name} -> {args.out}")
    return 0


def _cmd_repair_files(args: argparse.Namespace) -> int:
    from .filecodec import repair_files

    repaired = repair_files(args.meta)
    if repaired:
        print(f"regenerated strip files for disks {repaired}")
    else:
        print("all strip files present; nothing to repair")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppm",
        description="PPM (ICPP 2015) reproduction: partitioned & parallel matrix decoding",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate one evaluation figure")
    p_fig.add_argument("number", type=int, choices=range(4, 12))
    p_fig.add_argument("--full", action="store_true", help="paper-scale sweep sizes")
    p_fig.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p_fig.add_argument("--out", help="write to a file instead of stdout")
    p_fig.set_defaults(func=_cmd_figure)

    p_figs = sub.add_parser("figures", help="regenerate every evaluation figure")
    p_figs.add_argument("--full", action="store_true")
    p_figs.set_defaults(func=_cmd_figures)

    p_ex = sub.add_parser("paper-example", help="the Section III-B worked example")
    p_ex.set_defaults(func=_cmd_paper_example)

    p_cal = sub.add_parser("calibrate", help="measure this host's GF kernel profile")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_demo = sub.add_parser("demo", help="encode, fail and PPM-decode one stripe")
    p_demo.add_argument("--n", type=int, default=8)
    p_demo.add_argument("--r", type=int, default=16)
    p_demo.add_argument("--m", type=int, default=2)
    p_demo.add_argument("--s", type=int, default=2)
    p_demo.add_argument("--symbols", type=int, default=4096)
    p_demo.add_argument("--threads", type=int, default=4)
    p_demo.add_argument("--seed", type=int, default=2015)
    p_demo.set_defaults(func=_cmd_demo)

    p_list = sub.add_parser("list-codes", help="registered erasure-code kinds")
    p_list.set_defaults(func=_cmd_list_codes)

    p_rep = sub.add_parser("reproduce", help="write all figures into a directory")
    p_rep.add_argument("--out", default="results")
    p_rep.add_argument("--full", action="store_true")
    p_rep.add_argument("--extras", action="store_true", help="also run the extra experiments")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_vfy = sub.add_parser(
        "verify",
        help="statically verify decode plans (and XOR schedules) across codes",
    )
    p_vfy.add_argument("--all", action="store_true", help="sweep every registered kind")
    p_vfy.add_argument("kind", nargs="?", help="registry name, e.g. sd (default: --all)")
    p_vfy.add_argument("param", nargs="*", help="constructor params, e.g. n=6 r=4 m=2 s=2")
    p_vfy.add_argument("--samples", type=int, default=50, help="scenarios per code")
    p_vfy.add_argument("--seed", type=int, default=2015)
    p_vfy.add_argument(
        "--no-schedules", action="store_true", help="skip XOR-schedule verification"
    )
    p_vfy.add_argument(
        "--no-programs",
        action="store_true",
        help="skip compiled-program verification",
    )
    p_vfy.add_argument(
        "--strict",
        action="store_true",
        help="also byte-compare every executor backend against the baseline "
        "on each certified program (decode scenarios + the encode program)",
    )
    p_vfy.set_defaults(func=_cmd_verify)

    p_chk = sub.add_parser(
        "check",
        help="static-analysis gate: lint + race analysis (+ sweeps with --strict)",
    )
    p_chk.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    p_chk.add_argument(
        "--strict",
        action="store_true",
        help="also sweep plan/program/dataflow verification across all codes",
    )
    p_chk.add_argument("--samples", type=int, default=10, help="sweep scenarios per code")
    p_chk.add_argument("--seed", type=int, default=2015)
    p_chk.add_argument("--json", action="store_true", help="machine-readable report")
    p_chk.add_argument(
        "--list-rules", action="store_true", help="print the combined rule catalogue"
    )
    p_chk.set_defaults(func=_cmd_check)

    p_ver = sub.add_parser("verify-code", help="Monte-Carlo decodability check")
    p_ver.add_argument("kind", help="registry name, e.g. sd")
    p_ver.add_argument("param", nargs="+", help="constructor params, e.g. n=8 r=16 m=2 s=2")
    p_ver.add_argument("--samples", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=2015)
    p_ver.set_defaults(func=_cmd_verify_code)

    p_search = sub.add_parser("search", help="search SD coefficient sets")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--r", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--s", type=int, required=True)
    p_search.add_argument("--w", type=int, default=8)
    p_search.add_argument("--tries", type=int, default=64)
    p_search.add_argument("--samples", type=int, default=64)
    p_search.set_defaults(func=_cmd_search)

    p_io = sub.add_parser("io-compare", help="degraded-read I/O of LRC vs RS vs SD")
    p_io.add_argument("--k", type=int, default=12)
    p_io.set_defaults(func=_cmd_io_compare)

    p_life = sub.add_parser("lifetime", help="failure-trace lifetime simulation")
    p_life.add_argument("--n", type=int, default=12)
    p_life.add_argument("--r", type=int, default=16)
    p_life.add_argument("--m", type=int, default=2)
    p_life.add_argument("--s", type=int, default=2)
    p_life.add_argument("--years", type=float, default=3.0)
    p_life.add_argument("--afr", type=float, default=0.04)
    p_life.add_argument("--lse", type=float, default=0.15)
    p_life.add_argument("--stripes", type=int, default=64)
    p_life.add_argument("--seed", type=int, default=2015)
    p_life.set_defaults(func=_cmd_lifetime)

    p_ins = sub.add_parser("inspect", help="render H, log table and partition")
    p_ins.add_argument("kind", help="registry name, e.g. sd")
    p_ins.add_argument("param", nargs="+", help="constructor params, e.g. n=4 r=4 m=1 s=1")
    p_ins.add_argument("--faulty", help="comma-separated block ids (default: worst case)")
    p_ins.add_argument("--no-matrix", action="store_true")
    p_ins.add_argument("--seed", type=int, default=2015)
    p_ins.set_defaults(func=_cmd_inspect)

    from .bench.extras import EXTRAS as _extras

    p_extra = sub.add_parser("extra", help="extra experiments beyond the figures")
    p_extra.add_argument("name", choices=sorted(_extras))
    p_extra.add_argument("--full", action="store_true")
    p_extra.add_argument("--csv", action="store_true")
    p_extra.set_defaults(func=_cmd_extra)

    p_pipe = sub.add_parser(
        "pipeline-bench",
        help="batched DecodePipeline vs per-stripe decode throughput",
    )
    p_pipe.add_argument("--n", type=int, default=10)
    p_pipe.add_argument("--r", type=int, default=8)
    p_pipe.add_argument("--m", type=int, default=2)
    p_pipe.add_argument("--s", type=int, default=2)
    p_pipe.add_argument("--stripes", type=int, default=64)
    p_pipe.add_argument("--symbols", type=int, default=512)
    p_pipe.add_argument("--workers", type=int, default=4)
    p_pipe.add_argument(
        "--pool", choices=("thread", "process", "serial"), default="thread"
    )
    p_pipe.add_argument("--repeats", type=int, default=3)
    p_pipe.add_argument("--seed", type=int, default=2015)
    p_pipe.add_argument("--json", help="also write the JSON-ready result to a file")
    p_pipe.set_defaults(func=_cmd_pipeline_bench)

    p_hedge = sub.add_parser(
        "hedge-bench",
        help="p99 decode latency under injected slow/corrupt workers, "
             "with hedging + worker verification on (gated)",
    )
    p_hedge.add_argument("--n", type=int, default=6)
    p_hedge.add_argument("--r", type=int, default=4)
    p_hedge.add_argument("--m", type=int, default=2)
    p_hedge.add_argument("--s", type=int, default=2)
    p_hedge.add_argument("--stripes", type=int, default=4)
    p_hedge.add_argument("--symbols", type=int, default=2048)
    p_hedge.add_argument("--calls", type=int, default=400,
                         help="measured decode_batch calls per phase")
    p_hedge.add_argument("--warmup", type=int, default=40,
                         help="unmeasured calls that prime caches and the "
                              "hedge latency tracker")
    p_hedge.add_argument("--workers", type=int, default=4)
    p_hedge.add_argument("--slow-rate", type=float, default=0.05,
                         help="fraction of worker executions stalled")
    p_hedge.add_argument("--slow-factor", type=float, default=10.0,
                         help="stall duration as a multiple of the clean "
                              "median call latency")
    p_hedge.add_argument("--corrupt-rate", type=float, default=0.01,
                         help="fraction of worker outputs silently bit-flipped")
    p_hedge.add_argument("--max-p99-ratio", type=float, default=2.0,
                         help="exit nonzero if faulty-phase p99 exceeds this "
                              "multiple of the clean p99")
    p_hedge.add_argument("--quick", action="store_true",
                         help="CI mode: 150 calls / 30 warmup")
    p_hedge.add_argument("--seed", type=int, default=2015)
    p_hedge.add_argument("--json", help="also write the JSON-ready result to a file")
    p_hedge.set_defaults(func=_cmd_hedge_bench)

    p_kern = sub.add_parser(
        "kernel-bench",
        help="compiled region programs vs interpreted single-stripe decode",
    )
    p_kern.add_argument("--n", type=int, default=10)
    p_kern.add_argument("--r", type=int, default=8)
    p_kern.add_argument("--m", type=int, default=2)
    p_kern.add_argument("--s", type=int, default=2)
    p_kern.add_argument("--symbols", type=int, default=4096)
    p_kern.add_argument("--iters", type=int, default=20)
    p_kern.add_argument("--repeats", type=int, default=3)
    p_kern.add_argument("--seed", type=int, default=2015)
    p_kern.add_argument("--json", help="also write the JSON-ready result to a file")
    p_kern.add_argument("--encode-stripes", type=int, default=32,
                        help="stripes in the naive-vs-batched encode section")
    p_kern.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit nonzero unless the compiled path beats this speedup",
    )
    p_kern.add_argument(
        "--min-backend-speedup",
        type=float,
        default=0.0,
        help="exit nonzero unless --gate-backend beats this speedup over "
             "the baseline on the gated (w=8, --symbols) class",
    )
    p_kern.add_argument(
        "--gate-backend",
        default="bitsliced",
        help="backend the --min-backend-speedup gate checks",
    )
    p_kern.add_argument(
        "--gate-symbols",
        type=int,
        default=65536,
        help="region length (symbols) of the gated w=8 backend class",
    )
    p_kern.add_argument(
        "--min-encode-speedup",
        type=float,
        default=0.0,
        help="exit nonzero unless batched encode beats this speedup over "
             "the naive per-stripe loop",
    )
    p_kern.set_defaults(func=_cmd_kernel_bench)

    def _service_store_args(p: argparse.ArgumentParser) -> None:
        # defaults live in repro.config (the layered model), not here:
        # a flag left unset (None) never overrides --config or defaults
        p.add_argument("--config", metavar="FILE",
                       help="JSON config file layered over the defaults "
                            "(see repro.config / docs/SERVICE.md)")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="dotted-path config override, e.g. "
                            "--set service.batch_trigger=4 (repeatable)")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--s", type=int, default=None)
        p.add_argument("--stripes", type=int, default=None)
        p.add_argument("--symbols", type=int, default=None)
        p.add_argument("--fault-rate", type=float, default=None,
                       help="transient node-fault injection rate")
        p.add_argument("--damaged", type=float, default=None,
                       help="fraction of stripes given a worst-case erasure")
        p.add_argument("--corrupt-fraction", type=float, default=None,
                       help="fraction of stripes silently corrupted (bit "
                            "rot; only a scrub can see it)")
        p.add_argument("--batch-trigger", type=int, default=None)
        p.add_argument("--hedge", action="store_true", default=None,
                       help="speculatively resubmit straggling decode "
                            "buckets (pipeline.hedge; tune via --set "
                            "pipeline.hedge_factor= etc.)")
        p.add_argument("--verify-workers", action="store_true", default=None,
                       help="syndrome-check every decode worker result "
                            "before merging (pipeline.verify_workers)")
        p.add_argument("--flush-ms", type=float, default=None,
                       help="coalescing flush deadline in milliseconds")
        p.add_argument("--repair", action="store_true",
                       help="run the background scrub-and-repair manager")
        p.add_argument("--scrub-stripes", type=int, default=None,
                       help="stripes syndrome-checked per repair tick")
        p.add_argument("--repair-rate", type=float, default=None,
                       help="repair rate limit in blocks/sec (0 = unlimited)")
        p.add_argument("--seed", type=int, default=None)

    def _workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--requests", type=int, default=None)
        p.add_argument("--concurrency", type=int, default=None)
        p.add_argument("--degraded-fraction", type=float, default=None,
                       help="fraction of reads steered at erased blocks")

    def _cluster_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nodes", type=int, default=None,
                       help="cluster node count")
        p.add_argument("--transport", choices=("local", "tcp"), default=None,
                       help="node transport: in-process or per-node TCP")

    p_srv = sub.add_parser(
        "serve", help="run the degraded-read BlobService on a TCP port"
    )
    _service_store_args(p_srv)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p_srv.add_argument("--naive", action="store_true",
                       help="disable coalescing (per-request decode)")
    p_srv.set_defaults(func=_cmd_serve)

    p_clu = sub.add_parser(
        "cluster",
        help="run a sharded multi-node cluster behind one TCP port",
    )
    _service_store_args(p_clu)
    _cluster_args(p_clu)
    p_clu.add_argument("--host", default="127.0.0.1")
    p_clu.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p_clu.set_defaults(func=_cmd_cluster)

    p_load = sub.add_parser(
        "loadgen", help="drive services/clusters (in-process or TCP) with seeded load"
    )
    _service_store_args(p_load)
    _workload_args(p_load)
    _cluster_args(p_load)
    p_load.add_argument("--naive", action="store_true",
                        help="disable coalescing (per-request decode)")
    p_load.add_argument("--cluster", action="store_true",
                        help="drive an in-process cluster instead of one service")
    p_load.add_argument("--connect", action="append", metavar="HOST:PORT",
                        help="drive a running `ppm serve`/`ppm cluster` over "
                             "TCP; repeat for several endpoints (per-endpoint "
                             "+ aggregate summaries)")
    p_load.add_argument("--json", help="also write summary + metrics to a file")
    p_load.set_defaults(func=_cmd_loadgen)

    p_sbench = sub.add_parser(
        "service-bench",
        help="coalesced batched serving vs naive per-request decode",
    )
    _service_store_args(p_sbench)
    _workload_args(p_sbench)
    p_sbench.add_argument("--json", help="also write the JSON-ready result to a file")
    p_sbench.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit nonzero unless coalesced serving beats this speedup",
    )
    p_sbench.set_defaults(func=_cmd_service_bench)

    p_rbench = sub.add_parser(
        "repair-bench",
        help="online scrub-and-repair vs no-repair baseline under load",
    )
    _service_store_args(p_rbench)
    _workload_args(p_rbench)
    p_rbench.add_argument("--heal-timeout", type=float, default=30.0,
                          help="seconds allowed for the array to fully heal")
    p_rbench.add_argument("--max-p99-ratio", type=float, default=2.0,
                          help="exit nonzero if repair-on p99 exceeds this "
                               "multiple of the no-repair baseline")
    p_rbench.add_argument("--json", help="also write the JSON-ready result to a file")
    p_rbench.set_defaults(func=_cmd_repair_bench)

    p_cbench = sub.add_parser(
        "cluster-bench",
        help="sharded router vs single service; rebuild-storm p99; rebalance",
    )
    _service_store_args(p_cbench)
    _workload_args(p_cbench)
    _cluster_args(p_cbench)
    p_cbench.add_argument("--heal-timeout", type=float, default=60.0,
                          help="seconds allowed for the storm to fully heal")
    p_cbench.add_argument("--min-speedup", type=float, default=2.0,
                          help="required router speedup over one service")
    p_cbench.add_argument("--max-p99-ratio", type=float, default=2.0,
                          help="bound on foreground p99 under the storm vs "
                               "the no-storm baseline")
    p_cbench.add_argument("--json", help="also write the JSON-ready result to a file")
    p_cbench.set_defaults(func=_cmd_cluster_bench)

    p_enc = sub.add_parser("encode-file", help="encode a file into strip files")
    p_enc.add_argument("file")
    p_enc.add_argument("kind", help="code kind, e.g. sd")
    p_enc.add_argument("param", nargs="+", help="constructor params, e.g. n=6 r=4 m=2 s=2")
    p_enc.add_argument("--out", required=True)
    p_enc.add_argument("--sector-bytes", type=int, default=4096)
    p_enc.set_defaults(func=_cmd_encode_file)

    p_dec = sub.add_parser("decode-file", help="reconstruct a file from strips")
    p_dec.add_argument("meta", help="path to the *_meta.json descriptor")
    p_dec.add_argument("--out", required=True)
    p_dec.add_argument("--traditional", action="store_true")
    p_dec.set_defaults(func=_cmd_decode_file)

    p_fix = sub.add_parser("repair-files", help="regenerate missing strip files")
    p_fix.add_argument("meta", help="path to the *_meta.json descriptor")
    p_fix.set_defaults(func=_cmd_repair_files)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
