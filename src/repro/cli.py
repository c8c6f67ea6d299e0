"""Command-line interface: ``python -m repro <command>``.

Gives shell access to the reproduction's main entry points — the
regenerated datasheet tables, BER measurements, addressing annealing,
and the RTL bundle — so the repository is usable without writing Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_datasheet(args: argparse.Namespace) -> int:
    from .core.report import full_datasheet

    print(full_datasheet(iterations=args.iterations))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .core.report import table1_report, table2_report, table3_report

    which = args.table
    if which in ("1", "all"):
        print("Table 1 — Tanner graph parameters")
        print(table1_report())
    if which in ("2", "all"):
        print("\nTable 2 — edge counts and connectivity storage")
        print(table2_report())
    if which in ("3", "all"):
        print("\nTable 3 — area breakdown (model vs paper)")
        print(table3_report())
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    from .core.report import throughput_report

    print(throughput_report(iterations=args.iterations))
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from .core.report import power_report

    print(power_report(iterations=args.iterations))
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    from .core.report import exit_threshold_report

    print(exit_threshold_report())
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from .decode import _cnative
    from .decode.backend import backend_status

    print("array backends for the quantized batch decoders:")
    for name, (kind, reason) in backend_status().items():
        status = "available" if reason is None else f"unavailable ({reason})"
        print(f"  {name:<12} {kind:<7} {status}")
    origin = _cnative.origin()
    if origin is not None:
        print(f"kernel: {origin}")
    return 0


def _open_trace(path):
    """Build a :class:`TraceRecorder` for a ``--trace`` argument."""
    from .obs.trace import TraceRecorder

    return TraceRecorder(path)


def _write_metrics(path: str, snapshot: dict) -> None:
    import json

    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


class _FlagError(Exception):
    """Flag values the program cannot run with: one ``error:`` line and
    exit code 2, not a traceback."""


def add_decoder_flags(p: argparse.ArgumentParser) -> None:
    """The decoder recipe flags (:class:`~repro.decode.DecoderSpec`),
    declared once; their defaults and choices are the spec's."""
    from .decode.batch import BATCH_SCHEDULES, DecoderSpec

    default = DecoderSpec()
    p.add_argument("--schedule", choices=BATCH_SCHEDULES,
                   default=default.schedule,
                   help="batched decoder schedule (default: "
                        f"{default.schedule}, the served decoder; "
                        "quantized-* run the paper's fixed-point "
                        "arithmetic)")
    p.add_argument("--wordlength", type=int, default=None,
                   help="fixed-point word width incl. sign for the "
                        "quantized-* schedules (default: "
                        f"{default.fmt.total_bits}, the paper's)")
    p.add_argument("--frac-bits", type=int, default=None,
                   help="fractional bits of the fixed-point format "
                        "(default: the paper's 2 for 6-bit, 1 for 5-bit)")
    p.add_argument("--channel-scale", type=float,
                   default=default.channel_scale,
                   help="LLR input scaling before quantization "
                        "(hardware input conditioning; 0.5 keeps 2 dB "
                        "LLRs inside the 6-bit range)")
    p.add_argument("--backend", default=None,
                   help="array backend for the quantized-* schedules: "
                        f"{default.backend} (default, the reference) or "
                        "cnative (compiled C kernels; see 'repro "
                        "backends'); results are bit-identical across "
                        "backends")


def _decoder_spec(args: argparse.Namespace, cls=None, **settings):
    """The :class:`~repro.decode.DecoderSpec` (or subclass ``cls``,
    built with ``settings``) for the decoder flags.

    ``--wordlength`` picks the word width; ``--frac-bits`` the binary
    point, defaulting to the paper's reference formats (6-bit: 2
    fractional bits, 5-bit: 1) and to 2 elsewhere; neither flag keeps
    the spec's format.  A recipe the spec rejects is a
    :class:`_FlagError`.
    """
    from .decode.batch import DecoderSpec
    from .quantize import FixedPointFormat

    try:
        fmt = None
        if args.wordlength is not None or args.frac_bits is not None:
            total = args.wordlength
            if total is None:
                total = DecoderSpec().fmt.total_bits
            frac = args.frac_bits
            if frac is None:
                frac = {6: 2, 5: 1}.get(total, 2)
            fmt = FixedPointFormat(total_bits=total, frac_bits=frac)
        return (cls or DecoderSpec)(
            schedule=args.schedule,
            fmt=fmt,
            channel_scale=args.channel_scale,
            backend=args.backend,
            **settings,
        )
    except ValueError as exc:
        raise _FlagError(str(exc)) from None


def _channel_spec_from_args(args: argparse.Namespace):
    """The :func:`repro.channel.build_channel` spec for the scenario
    flags, or ``None`` for the default BPSK/AWGN cell (which keeps the
    legacy bit-identical LLR stream)."""
    modulation = getattr(args, "modulation", "bpsk")
    channel = getattr(args, "channel", "awgn")
    if modulation == "bpsk" and channel == "awgn":
        return None
    spec = {
        "modulation": modulation,
        "channel": channel,
        "rate_label": args.rate,
    }
    if channel in ("rician", "rayleigh"):
        spec["k_factor_db"] = args.k_factor_db
        spec["block_length"] = args.block_length
    return spec


def _channel_from_args(args: argparse.Namespace, code, ebn0_db, seed):
    """A prebuilt channel for the scenario flags (``None`` = default)."""
    spec = _channel_spec_from_args(args)
    if spec is None:
        return None
    from .channel import build_channel

    return build_channel(
        ebn0_db=ebn0_db, rate=code.k / code.n, seed=seed, **spec
    )


def _build_sim_code(args: argparse.Namespace):
    """Code for the ``--rate``/``--parallelism``/``--frame`` triple."""
    from .codes import build_code, build_small_code

    if getattr(args, "frame", "normal") == "short":
        if args.parallelism != 360:
            print(
                "error: short frames are defined at parallelism 360 "
                "only",
                file=sys.stderr,
            )
            raise SystemExit(2)
        from .codes.short import build_short_code

        return build_short_code(args.rate)
    if args.parallelism == 360:
        return build_code(args.rate)
    return build_small_code(args.rate, parallelism=args.parallelism)


def _cmd_ber(args: argparse.Namespace) -> int:
    from .sim import parallel_ber

    decoder = _decoder_spec(args)
    code = _build_sim_code(args)
    spec = _channel_spec_from_args(args)
    trace = _open_trace(args.trace) if args.trace is not None else None
    try:
        run = parallel_ber(
            code,
            args.ebn0,
            max_frames=args.frames,
            workers=args.workers,
            target_frame_errors=args.target_frame_errors,
            ci_halfwidth=args.ci_halfwidth,
            max_iterations=args.iterations,
            seed=args.seed,
            channel=spec,
            trace=trace,
            **vars(decoder),
        )
    finally:
        if trace is not None:
            trace.close()
    result, telemetry = run.result, run.telemetry
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, run.metrics)
    lo, hi = result.ber_estimate.interval
    scenario = (
        f", {args.modulation}/{args.channel}"
        if spec is not None else ""
    )
    frame = (
        ", short frame"
        if getattr(args, "frame", "normal") == "short" else ""
    )
    print(f"rate {args.rate} (P={args.parallelism}, n={code.n}) "
          f"at Eb/N0 = {args.ebn0} dB{scenario}{frame}:")
    fmt = decoder.fmt
    if fmt is not None:
        print(f"  fixed point     : {fmt.total_bits}-bit "
              f"({fmt.frac_bits} fractional), "
              f"channel scale {decoder.channel_scale}")
    print(f"  frames          : {result.frames}")
    print(f"  BER             : {result.ber:.3e} "
          f"[{lo:.2e}, {hi:.2e}] (95% Wilson)")
    print(f"  FER             : {result.fer:.3e}")
    print(f"  avg iterations  : {result.avg_iterations:.1f}")
    if result.non_converged_frames:
        print(f"  non-converged   : {result.non_converged_frames}"
              f"/{result.frames} (at full iteration budget)")
    print(f"  workers         : {telemetry.workers}")
    print(f"  throughput      : {telemetry.frames_per_sec:.1f} "
          f"frames/s ({telemetry.info_mbps:.3f} info Mbit/s)")
    if args.trace is not None and args.trace != "-":
        print(f"  trace           : {args.trace}")
    if args.metrics_out is not None:
        print(f"  metrics         : {args.metrics_out}")
    return 0


def _print_anneal_result(label: str, moves: int, result, extra: str = "") -> None:
    print(f"rate {label}: annealed addressing over {moves} moves{extra}")
    print(f"  peak write buffer : {result.initial_stats.peak_buffer} -> "
          f"{result.final_stats.peak_buffer}")
    print(f"  buffer pressure   : {result.initial_stats.total_deferred} "
          f"-> {result.final_stats.total_deferred}")
    print(f"  accepted moves    : {result.accepted_moves}"
          f"/{result.proposed_moves}")


def _cmd_anneal(args: argparse.Namespace) -> int:
    from .codes import build_code, build_small_code
    from .hw.annealing import AnnealingConfig, optimize_rate
    from .hw.mapping import IpMapping
    from .hw.parallel_anneal import anneal_chains, optimize_all_rates
    from .obs.registry import MetricsRegistry

    config = AnnealingConfig(
        iterations=args.moves, seed=args.seed, kernel=args.kernel
    )
    registry = MetricsRegistry() if args.metrics_out is not None else None
    trace = _open_trace(args.trace) if args.trace is not None else None
    try:
        if args.all_rates:
            sweep = optimize_all_rates(
                parallelism=args.parallelism,
                config=config,
                chains=args.chains,
                workers=args.workers,
                registry=registry,
                trace=trace,
            )
            print(f"all-rates annealing sweep (P={args.parallelism}, "
                  f"{args.chains} chains/rate, {args.moves} moves/chain, "
                  f"kernel={args.kernel}):")
            print(f"  {'rate':>5} {'peak':>9} {'deferred':>8} "
                  f"{'drain':>5} {'best cost':>10} {'chain':>5}")
            for row in sweep.table():
                peaks = f"{row['initial_peak']} -> {row['final_peak']}"
                print(f"  {row['rate']:>5} {peaks:>9} "
                      f"{row['total_deferred']:>8} "
                      f"{row['drain_cycles']:>5} {row['best_cost']:>10.1f} "
                      f"{row['best_chain']:>5}")
            print(f"  worst annealed peak across rates: "
                  f"{sweep.max_final_peak} "
                  f"(one write buffer of that depth serves every rate)")
        else:
            if args.parallelism == 360:
                code = build_code(args.rate)
            else:
                code = build_small_code(
                    args.rate, parallelism=args.parallelism
                )
            mapping = IpMapping(code)
            if args.chains > 1:
                multi = anneal_chains(
                    mapping,
                    config,
                    chains=args.chains,
                    workers=args.workers,
                    registry=registry,
                    trace=trace,
                    rate=args.rate,
                )
                result = multi.best
                _print_anneal_result(
                    args.rate, args.moves, result,
                    extra=(f" x {args.chains} chains "
                           f"(best: chain {multi.best_chain})"),
                )
            else:
                result = optimize_rate(
                    mapping, config, trace=trace, registry=registry
                )
                _print_anneal_result(args.rate, args.moves, result)
    finally:
        if trace is not None:
            trace.close()
    if args.metrics_out is not None and registry is not None:
        _write_metrics(args.metrics_out, registry.snapshot())
    if args.trace is not None and args.trace != "-":
        print(f"  trace             : {args.trace}")
    if args.metrics_out is not None:
        print(f"  metrics           : {args.metrics_out}")
    return 0


def _build_serve_code(args: argparse.Namespace):
    return _build_sim_code(args)


def _serve_config(args: argparse.Namespace):
    from .serve import ServeConfig

    return _decoder_spec(
        args,
        ServeConfig,
        max_batch=args.max_batch,
        max_linger_ms=args.max_linger_ms,
        queue_capacity=args.queue_capacity,
        deadline_ms=args.deadline_ms,
        max_iterations=args.iterations,
        min_iterations=args.min_iterations,
        shed_start=args.shed_start,
        workers=args.workers,
        pipeline_depth=getattr(args, "pipeline_depth", None),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs.registry import MetricsRegistry
    from .serve import ByteStreamGateway, DecodeService, ServiceReport

    code = _build_serve_code(args)
    config = _serve_config(args)
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as handle:
            data = handle.read()
    if not data:
        print("error: empty input stream", file=sys.stderr)
        return 2
    gateway = ByteStreamGateway(
        code,
        ebn0_db=args.ebn0,
        seed=args.seed,
        bch_t=args.bch_t,
        channel=_channel_from_args(args, code, args.ebn0, args.seed),
    )
    llrs = gateway.llr_frames(data)
    registry = MetricsRegistry()
    trace = _open_trace(args.trace) if args.trace is not None else None
    import time as _time

    start = _time.monotonic()
    try:
        with DecodeService(
            code, config, registry=registry, trace=trace
        ) as service:
            results = []
            for frame in llrs:
                # File mode: the queue paces us instead of rejecting.
                while service.queue.full:
                    if not service.pump():
                        service.flush()
                    results.extend(service.poll())
                service.submit(frame)
                service.pump()
                results.extend(service.poll())
            service.flush()
            results.extend(service.poll())
        wall = _time.monotonic() - start
    finally:
        if trace is not None:
            trace.close()
    results.sort(key=lambda r: r.request_id)
    decoded, outcomes = gateway.reassemble(results)
    if args.output == "-":
        sys.stdout.buffer.write(decoded)
        sys.stdout.buffer.flush()
    else:
        with open(args.output, "wb") as handle:
            handle.write(decoded)
    crc_bad = sum(1 for o in outcomes if o.status == "ok" and not o.crc_ok)
    dropped = sum(1 for o in outcomes if o.status != "ok")
    report = ServiceReport.from_snapshot(
        code, registry.snapshot(), wall, max_batch=config.max_batch
    )
    print(f"served {len(outcomes)} BBFRAMEs "
          f"({len(data)} bytes in, {len(decoded)} bytes out) "
          f"at Eb/N0 = {args.ebn0} dB", file=sys.stderr)
    if dropped or crc_bad:
        print(f"  degraded frames : {dropped} dropped, "
              f"{crc_bad} CRC-damaged", file=sys.stderr)
    if args.bch_t is not None:
        corrected = sum(
            o.bch_corrected for o in outcomes if o.status == "ok"
        )
        uncorrectable = sum(
            1 for o in outcomes if o.status == "ok" and not o.bch_ok
        )
        print(f"  outer BCH       : t={args.bch_t}, "
              f"{corrected} bits corrected, "
              f"{uncorrectable} frames uncorrectable", file=sys.stderr)
    print(report.format(), file=sys.stderr)
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, registry.snapshot())
        print(f"  metrics   : {args.metrics_out}", file=sys.stderr)
    return 0


def _parse_listen(text: str):
    """Split ``HOST:PORT`` (or bare ``PORT``) into its parts."""
    if ":" in text:
        host, _, port = text.rpartition(":")
        return host or "127.0.0.1", int(port)
    return "127.0.0.1", int(text)


def _fabric_workers_clash(args: argparse.Namespace) -> bool:
    """True (with a one-line error) when ``--workers`` is set on a
    fabric run, whose process count is ``--fabric-workers`` alone."""
    if args.workers == 1:
        return False
    print(f"error: --workers {args.workers} does not apply to the fabric;"
          " set its worker count with --fabric-workers", file=sys.stderr)
    return True


def _fabric_config(args: argparse.Namespace, serve_config):
    """The :class:`~repro.serve.FabricConfig` for the fabric flags; a
    setting it rejects is a :class:`_FlagError`."""
    from .serve import FabricConfig

    try:
        return FabricConfig(workers=args.fabric_workers, serve=serve_config)
    except ValueError as exc:
        raise _FlagError(str(exc)) from None


def _cmd_fabric(args: argparse.Namespace) -> int:
    import time as _time

    from .obs.registry import MetricsRegistry
    from .serve import DecodeFabric, ServiceReport, serve_fabric

    if _fabric_workers_clash(args):
        return 2
    code = _build_serve_code(args)
    config = _serve_config(args)
    host, port = _parse_listen(args.listen)
    registry = MetricsRegistry()
    trace = _open_trace(args.trace) if args.trace is not None else None
    fabric = DecodeFabric(
        code, _fabric_config(args, config),
        registry=registry, trace=trace,
    )

    def ready(gateway) -> None:
        print(f"fabric listening on {gateway.host}:{gateway.port} "
              f"(workers={args.fabric_workers})", flush=True)
        if args.port_file is not None:
            with open(args.port_file, "w") as handle:
                handle.write(str(gateway.port))

    start = _time.monotonic()
    try:
        serve_fabric(
            fabric,
            host=host,
            port=port,
            window=args.conn_window,
            duration_s=args.duration,
            ready=ready,
            chaos_kill_worker_after_s=args.chaos_kill_worker_after,
        )
    except KeyboardInterrupt:
        pass
    finally:
        if trace is not None:
            trace.close()
    wall = _time.monotonic() - start
    report = ServiceReport.from_snapshot(
        code, fabric.merged_snapshot(), wall,
        max_batch=config.max_batch, workers=args.fabric_workers,
    )
    print(report.format())
    if fabric.restarts:
        print(f"  restarts   {fabric.restarts} worker restart(s), "
              f"redriven chunks recounted")
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, fabric.merged_snapshot())
        print(f"  metrics: {args.metrics_out}")
    return 0


def _cmd_loadgen_connect(args: argparse.Namespace) -> int:
    from .serve import make_frame_pool, run_remote_loadgen

    code = _build_serve_code(args)
    frame_pool = make_frame_pool(
        code,
        ebn0_db=args.ebn0,
        seed=args.seed,
        channel=_channel_from_args(args, code, args.ebn0, args.seed + 1),
    )
    host, port = _parse_listen(args.connect)
    print(f"loadgen rate {args.rate} (P={args.parallelism}, n={code.n}) "
          f"against fabric at {host}:{port}, "
          f"{args.duration}s per point:")
    print(f"  {'offered':>9} {'served':>9} {'p50 ms':>8} "
          f"{'p99 ms':>8} {'rej':>5} {'exp':>5} {'FER':>9}")
    rows = []
    for rate in args.offered_fps:
        row = run_remote_loadgen(
            host, port,
            frame_pool=frame_pool,
            offered_fps=rate,
            duration_s=args.duration,
            window=args.window,
            deadline_ms=args.deadline_ms,
        )
        rows.append(row)
        fer = (
            row["frame_errors"] / row["completed"]
            if row["completed"] else float("nan")
        )
        print(f"  {rate:>9.1f} {row['served_fps']:>9.1f} "
              f"{row['latency_p50_ms']:>8.2f} "
              f"{row['latency_p99_ms']:>8.2f} "
              f"{row['rejected']:>5} {row['expired']:>5} {fer:>9.3e}")
    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, rows[-1]["server_snapshot"])
        print(f"  metrics: {args.metrics_out} "
              f"(server-side merged snapshot)")
    bad = sum(r["protocol_errors"] for r in rows)
    if bad:
        print(f"error: {bad} protocol error(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .obs.registry import MetricsRegistry
    from .serve import sweep_offered_rates

    if args.connect is not None:
        return _cmd_loadgen_connect(args)
    if args.fabric_workers is not None and _fabric_workers_clash(args):
        return 2
    code = _build_serve_code(args)
    config = _serve_config(args)
    fabric = (
        _fabric_config(args, config)
        if args.fabric_workers is not None else None
    )
    trace = _open_trace(args.trace) if args.trace is not None else None
    publisher = None
    http_server = None
    if args.publish is not None:
        from .obs.publish import SnapshotPublisher

        publisher = SnapshotPublisher(
            sink=args.publish,
            prom_path=args.publish + ".prom",
            interval_s=args.publish_interval_s,
            meta={"command": "loadgen", "rate": args.rate},
        )
    try:
        if args.publish_http is not None:
            from .obs.publish import MetricsHttpServer
            from .obs.registry import get_registry

            # The sweep swaps registries per point; scrape the live one
            # through a publisher-tracked indirection when publishing,
            # else the process registry.
            http_server = MetricsHttpServer(
                publisher if publisher is not None else get_registry(),
                port=args.publish_http,
            )
            # Port 0 binds an ephemeral port; say which one we got so
            # scrapers (and scripts parsing this output) can find it.
            print(f"  serving metrics at {http_server.url} "
                  f"(bound port {http_server.port})")
        results = sweep_offered_rates(
            code,
            config,
            rates_fps=args.offered_fps,
            duration_s=args.duration,
            ebn0_db=args.ebn0,
            seed=args.seed,
            channel=_channel_from_args(
                args, code, args.ebn0, args.seed + 1
            ),
            trace=trace,
            publisher=publisher,
            fabric=fabric,
        )
    finally:
        if http_server is not None:
            http_server.close()
        if publisher is not None:
            publisher.close()
        if trace is not None:
            trace.close()
    plane = (
        f", fabric workers={args.fabric_workers}"
        if fabric is not None else ""
    )
    scenario = (
        f" ({args.modulation}/{args.channel})"
        if _channel_spec_from_args(args) is not None else ""
    )
    print(f"loadgen rate {args.rate} (P={args.parallelism}, "
          f"n={code.n}) at Eb/N0 = {args.ebn0} dB{scenario}, "
          f"{args.duration}s per point{plane}:")
    print(f"  {'offered':>9} {'served':>9} {'p50 ms':>8} "
          f"{'p99 ms':>8} {'occup':>6} {'it/frame':>8} "
          f"{'shed':>6} {'rej%':>6} {'FER':>9}")
    for r in results:
        rep = r.report
        rej = (
            rep.rejected / rep.submitted * 100 if rep.submitted else 0.0
        )
        fer = r.frame_errors / r.checked if r.checked else float("nan")
        print(f"  {r.offered_fps:>9.1f} {rep.frames_per_s:>9.1f} "
              f"{rep.latency_p50_ms:>8.2f} {rep.latency_p99_ms:>8.2f} "
              f"{rep.mean_occupancy:>6.2f} {rep.mean_iterations:>8.2f} "
              f"{rep.iterations_shed:>6} {rej:>6.1f} {fer:>9.3e}")
    last = results[-1].report
    print(f"  eq7/8 hw model at measured iterations: "
          f"{last.model_frames_per_s:.1f} frames/s "
          f"({last.model_info_bps / 1e6:.1f} info Mbit/s)")
    if args.metrics_out is not None:
        if fabric is not None:
            # Fold the sweep per worker label first so the merged file
            # keeps the cross-worker sub-views under "workers".
            from .obs.registry import merge_snapshots

            shards: dict = {}
            for r in results:
                for label, part in r.snapshot.get("workers", {}).items():
                    shards.setdefault(label, MetricsRegistry()).merge(
                        part
                    )
            payload = merge_snapshots(
                {label: reg.snapshot() for label, reg in shards.items()}
            )
        else:
            merged = MetricsRegistry()
            for r in results:
                merged.merge(r.snapshot)
            payload = merged.snapshot()
        _write_metrics(args.metrics_out, payload)
        print(f"  metrics: {args.metrics_out}")
    if args.publish is not None:
        print(f"  publish: {args.publish} (snapshot stream), "
              f"{args.publish}.prom (Prometheus text)")
    if args.trace is not None and args.trace != "-":
        print(f"  trace  : {args.trace}")
    return 0


def _cmd_acm(args: argparse.Namespace) -> int:
    import json

    from .acm import (
        ModCod,
        default_scaled_table,
        derive_threshold_table,
        run_acm_trace,
    )
    from .serve import ServeConfig

    if args.derive:
        table = derive_threshold_table(
            [ModCod(rate) for rate in args.rates],
            parallelism=args.parallelism,
            channel=args.channel,
            target_fer=args.target_fer,
            margin_db=args.margin_db,
            seed=args.seed,
        )
        print(f"derived threshold table (P={args.parallelism}, "
              f"{args.channel}, FER {args.target_fer} crossing "
              f"+ {args.margin_db} dB margin):")
    else:
        table = default_scaled_table()
        print("committed scaled-code threshold table "
              "(re-derive with --derive):")
    for row in table.to_rows():
        print(f"  {row['modcod']:<22} Es/N0 >= "
              f"{row['esn0_db']:>6.2f} dB   "
              f"(SE {row['spectral_efficiency']:.3f})")
    if args.table_only:
        return 0

    config = ServeConfig(max_linger_ms=0.0)
    result = run_acm_trace(
        table,
        frames=args.frames,
        esn0_start_db=args.esn0_start,
        esn0_stop_db=args.esn0_stop,
        parallelism=args.parallelism,
        channel=args.channel,
        hysteresis_db=args.hysteresis_db,
        dwell_frames=args.dwell_frames,
        ewma_alpha=args.alpha,
        serve_config=config,
        seed=args.seed,
    )
    span = (
        f"{result.true_esn0_db[0]:.2f} .. {result.true_esn0_db[-1]:.2f}"
    )
    print(f"\nACM ramp trace: {result.frames} frames, "
          f"true Es/N0 {span} dB, estimator vs oracle:")
    print(f"  within one step : {result.within_one_rate:.1%}")
    print(f"  estimate RMSE   : {result.est_rmse_db:.3f} dB "
          f"(after EWMA warm-up)")
    print(f"  switches        : estimator {result.est_switches_up} up / "
          f"{result.est_switches_down} down, "
          f"oracle {result.oracle_switches_up} up / "
          f"{result.oracle_switches_down} down")
    print(f"  serve plane     : {result.checked} frames decoded, "
          f"{result.frame_errors} frame errors")
    if args.json_out is not None:
        payload = result.to_dict()
        payload["table"] = table.to_rows()
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  json            : {args.json_out}")
    return 0


def _parse_cell(spec: str):
    """``rate[:modulation[:frame[:channel]]]`` → a ScenarioCell."""
    from .acm import ModCod, ScenarioCell

    parts = spec.split(":")
    if len(parts) > 4:
        raise ValueError(f"bad cell spec {spec!r}")
    rate = parts[0]
    modulation = parts[1] if len(parts) > 1 else "bpsk"
    frame = parts[2] if len(parts) > 2 else "normal"
    channel = parts[3] if len(parts) > 3 else "awgn"
    return ScenarioCell(
        modcod=ModCod(rate=rate, modulation=modulation, frame=frame),
        channel=channel,
    )


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from .acm import run_matrix

    try:
        cells = [_parse_cell(spec) for spec in args.cells]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grids = {}
    for entry in args.grid or ():
        label, _, points = entry.partition("=")
        if not points:
            print(f"error: bad --grid entry {entry!r} "
                  f"(want CELL=db,db,...)", file=sys.stderr)
            return 2
        grids[label] = [float(p) for p in points.split(",")]
    matrix = run_matrix(
        cells,
        ebn0_points_db=args.ebn0,
        grids=grids or None,
        parallelism=args.parallelism,
        mc_frames=args.frames,
        max_iterations=args.iterations,
        workers=args.workers,
        serve=not args.no_serve,
        serve_margin_db=args.serve_margin_db,
        offered_fps=args.offered_fps,
        duration_s=args.duration,
        seed=args.seed,
    )
    print(f"scenario matrix: {len(cells)} cells, "
          f"{args.frames} MC frames/point (P={args.parallelism})")
    print(matrix.to_markdown())
    if args.markdown_out is not None:
        with open(args.markdown_out, "w") as handle:
            handle.write(matrix.to_markdown() + "\n")
        print(f"markdown: {args.markdown_out}")
    if args.json_out is not None:
        with open(args.json_out, "w") as handle:
            json.dump(matrix.to_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"json    : {args.json_out}")
    return 0


def _read_json_file(path, *, expect: str):
    """Load a JSON document, translating failures into clean messages."""
    import json

    from .obs.export import TraceReadError

    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise TraceReadError(
            f"cannot read {path!r}: {exc.strerror or exc}"
        ) from exc
    if not text.strip():
        raise TraceReadError(f"{path}: file is empty — expected {expect}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceReadError(
            f"{path}: not valid JSON ({exc.msg}) — expected {expect}"
        ) from exc
    if not isinstance(payload, dict):
        raise TraceReadError(
            f"{path}: JSON is not an object — expected {expect}"
        )
    return payload


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    from .obs.profile import format_profile

    snapshot = _read_json_file(
        args.file,
        expect="a metrics snapshot (written by --metrics-out)",
    )
    print(format_profile(snapshot))
    return 0


def _cmd_obs_capacity(args: argparse.Namespace) -> int:
    import json

    from .obs.capacity import capacity_from_bench
    from .obs.export import TraceReadError

    payload = _read_json_file(
        args.file,
        expect="a loadgen/bench sweep payload "
               "(BENCH_serve_latency.json layout)",
    )
    code = None
    if not args.no_model:
        code = _build_serve_code(args)
    try:
        report = capacity_from_bench(
            payload, slo_p99_ms=args.slo_p99_ms, code=code
        )
    except ValueError as exc:
        raise TraceReadError(f"{args.file}: {exc}") from exc
    print(report.format())
    if args.output is not None:
        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  report : {args.output}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from .obs.export import (
        events_to_csv,
        iteration_rows,
        read_events,
        summarize_events,
    )

    events = read_events(args.file)
    if args.obs_command == "summary":
        print(summarize_events(events))
        return 0
    if args.obs_command == "trace":
        rows = iteration_rows(events, frame=args.frame)
        if not rows:
            print("no decode_iteration events")
            return 0
        print(f"{'frame':>6} {'iter':>5} {'unsat':>6} "
              f"{'mean|LLR|':>10} {'flips':>6}")
        for row in rows:
            print(f"{row['frame']:>6} {row['iteration']:>5} "
                  f"{row['unsatisfied']:>6} "
                  f"{row['mean_abs_llr']:>10.3f} {row['sign_flips']:>6}")
        return 0
    # export
    stream = (
        sys.stdout if args.output is None else open(args.output, "w")
    )
    try:
        if args.format == "csv":
            n = events_to_csv(events, stream)
        else:
            n = 0
            for event in events:
                stream.write(json.dumps(event) + "\n")
                n += 1
    finally:
        if args.output is not None:
            stream.close()
    if args.output is not None:
        print(f"wrote {n} records to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .codes import build_code, build_small_code
    from .hw.verification import verify_core

    if args.parallelism == 360:
        code = build_code(args.rate)
    else:
        code = build_small_code(args.rate, parallelism=args.parallelism)
    report = verify_core(
        code, n_frames=args.frames, ebn0_db=args.ebn0, seed=args.seed
    )
    print(f"rate {args.rate} (P={args.parallelism}): "
          f"{report.frames} frames verified")
    print(f"  bit mismatches      : {report.mismatches}")
    print(f"  max posterior delta : {report.max_posterior_delta:.3g}")
    print(f"  verdict             : "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_vectors(args: argparse.Namespace) -> int:
    from .core.vectors import generate_vectors, replay_vectors

    if args.action == "generate":
        result = generate_vectors(
            args.file,
            rate=args.rate,
            parallelism=args.parallelism,
            n_frames=args.frames,
            seed=args.seed,
        )
        print(f"wrote {result.n_frames} golden vectors to {args.file}")
    else:
        matched = replay_vectors(args.file)
        print(f"replayed {matched} vectors: all match")
    return 0


def _cmd_rtl(args: argparse.Namespace) -> int:
    from .hw.rtl import emit_ip_core_rtl

    text = emit_ip_core_rtl(
        lanes=args.lanes, width=args.width, ram_depth=args.ram_depth
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from .obs.trace import version_string

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "DVB-S2 LDPC decoder IP reproduction (Kienle/Brack/Wehn, "
            "DATE 2005)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=version_string()
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_flags(p: argparse.ArgumentParser) -> None:
        """Receiver-scenario flags shared by ber / serve / loadgen."""
        p.add_argument("--modulation",
                       choices=("bpsk", "qpsk", "8psk", "16apsk",
                                "32apsk"),
                       default="bpsk",
                       help="constellation (default keeps the legacy "
                            "bit-identical BPSK stream)")
        p.add_argument("--channel",
                       choices=("awgn", "rician", "rayleigh"),
                       default="awgn",
                       help="channel model (fading is block-coherent "
                            "with perfect CSI)")
        p.add_argument("--frame", choices=("normal", "short"),
                       default="normal",
                       help="FECFRAME length: normal 64800 or short "
                            "16200 (short requires --parallelism 360)")
        p.add_argument("--k-factor-db", type=float, default=10.0,
                       help="Rician K factor (ignored for awgn; "
                            "rayleigh is the no-LOS limit)")
        p.add_argument("--block-length", type=int, default=0,
                       help="fading coherence block in symbols "
                            "(0 = one gain per frame)")

    p = sub.add_parser("datasheet", help="print the full datasheet")
    p.add_argument("--iterations", type=int, default=30)
    p.set_defaults(func=_cmd_datasheet)

    p = sub.add_parser("tables", help="regenerate paper tables 1-3")
    p.add_argument("--table", choices=("1", "2", "3", "all"),
                   default="all")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("throughput", help="Eq. 8 throughput table")
    p.add_argument("--iterations", type=int, default=30)
    p.set_defaults(func=_cmd_throughput)

    p = sub.add_parser("power", help="energy model table (extension)")
    p.add_argument("--iterations", type=int, default=30)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser(
        "exit-thresholds", help="analytic decoding thresholds"
    )
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser(
        "backends",
        help="list array backends, their availability and where the "
             "compiled kernel came from",
    )
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser("ber", help="Monte-Carlo BER measurement")
    p.add_argument("--rate", default="1/2")
    p.add_argument("--ebn0", type=float, default=2.0)
    p.add_argument("--frames", type=int, default=50,
                   help="frame budget (upper bound with adaptive stops)")
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--parallelism", type=int, default=36)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the parallel engine "
                        "(results are identical for any count)")
    p.add_argument("--target-frame-errors", type=int, default=None,
                   help="stop once this many frame errors are merged")
    p.add_argument("--ci-halfwidth", type=float, default=None,
                   help="stop once the 95%% Wilson FER interval "
                        "half-width drops below this")
    add_decoder_flags(p)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a JSONL trace with per-iteration "
                        "convergence records ('-' for stdout)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the run's metrics snapshot as JSON")
    add_channel_flags(p)
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("anneal", help="optimize the RAM addressing")
    p.add_argument("--rate", default="1/2")
    p.add_argument("--moves", type=int, default=500)
    p.add_argument("--parallelism", type=int, default=360)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--kernel", choices=("fast", "reference"),
                   default="fast",
                   help="conflict-simulation kernel driving proposals")
    p.add_argument("--chains", type=int, default=1,
                   help="independent annealing chains (best one kept; "
                        "deterministic for any worker count)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for multi-chain/all-rates "
                        "runs (default: CPU count)")
    p.add_argument("--all-rates", action="store_true",
                   help="anneal every DVB-S2 rate and print the "
                        "peak-buffer table (ignores --rate)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a JSONL trace with windowed acceptance "
                        "events ('-' for stdout)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write annealing metrics snapshot as JSON")
    p.set_defaults(func=_cmd_anneal)

    def add_serve_flags(p: argparse.ArgumentParser) -> None:
        """Flags shared by ``serve`` and ``loadgen``."""
        p.add_argument("--rate", default="1/2")
        p.add_argument("--parallelism", type=int, default=36)
        p.add_argument("--ebn0", type=float, default=2.0,
                       help="AWGN operating point of the simulated "
                            "channel feeding the service")
        p.add_argument("--seed", type=int, default=2005)
        p.add_argument("--max-batch", type=int, default=32,
                       help="frames packed per decode call")
        p.add_argument("--max-linger-ms", type=float, default=5.0,
                       help="longest a partial batch may wait to fill")
        p.add_argument("--queue-capacity", type=int, default=128,
                       help="bounded request queue size (backpressure)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline; expired requests "
                            "are dropped, not decoded")
        p.add_argument("--iterations", type=int, default=30,
                       help="iteration budget while the queue is calm")
        p.add_argument("--min-iterations", type=int, default=10,
                       help="budget floor under full queue pressure "
                            "(paper Sec. 2.2's saved iterations)")
        p.add_argument("--shed-start", type=float, default=0.5,
                       help="queue fill fraction where shedding begins")
        add_decoder_flags(p)
        p.add_argument("--workers", type=int, default=1,
                       help="decode batches on a persistent process "
                            "pool (order stays deterministic)")
        p.add_argument("--pipeline-depth", type=int, default=None,
                       help="micro-batches kept in flight per worker "
                            "lane (default: 2x workers on the pooled "
                            "path, 2 per fabric worker; 1 = strictly "
                            "sequential; results are bit-identical at "
                            "any depth)")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="write serve_batch/serve_drop JSONL events")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the serving metrics snapshot as JSON")

    p = sub.add_parser(
        "serve",
        help="decode a byte stream through the batching service",
        description=(
            "Slice bytes into BBFRAMEs, encode, pass through AWGN, "
            "decode through the micro-batching service, and emit the "
            "recovered bytes (report on stderr)."
        ),
    )
    p.add_argument("input", help="input byte stream ('-' for stdin)")
    p.add_argument("--output", default="-",
                   help="recovered byte stream ('-' for stdout)")
    add_serve_flags(p)
    add_channel_flags(p)
    p.add_argument("--bch-t", type=int, default=None,
                   help="concatenate an outer BCH code correcting this "
                        "many bit errors per frame (DVB-S2's outer "
                        "code; payload shrinks by the parity bits)")
    p.set_defaults(func=_cmd_serve)

    def add_fabric_flag(
        p: argparse.ArgumentParser, *, default_workers
    ) -> None:
        """The fabric's worker count, shared by ``fabric`` and
        ``loadgen``; its in-flight bound per worker is
        ``--pipeline-depth``."""
        p.add_argument("--fabric-workers", type=int,
                       default=default_workers,
                       help="decode worker processes behind the "
                            "fabric" + (
                                "" if default_workers else
                                " (default: single in-process service)"
                            ))

    p = sub.add_parser(
        "fabric",
        help="serve the distributed decode fabric over TCP",
        description=(
            "Start N decode worker processes behind an asyncio "
            "gateway speaking newline-delimited JSON (ops: decode, "
            "stats, ping).  Drive it with 'repro loadgen --connect "
            "HOST:PORT'.  Worker crashes are healed by respawn-and-"
            "redrive; accounting stays balanced."
        ),
    )
    p.add_argument("--listen", default="127.0.0.1:0",
                   metavar="HOST:PORT",
                   help="bind address (port 0 picks a free port, "
                        "printed on start)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port to PATH once listening")
    p.add_argument("--duration", type=float, default=None,
                   help="stop after this many seconds "
                        "(default: run until interrupted)")
    p.add_argument("--conn-window", type=int, default=64,
                   help="max in-flight decodes per connection "
                        "(per-client backpressure)")
    p.add_argument("--chaos-kill-worker-after", type=float,
                   default=None, metavar="SECONDS",
                   help="SIGKILL worker 0 once after this long "
                        "(crash-recovery soak probe)")
    add_fabric_flag(p, default_workers=2)
    add_serve_flags(p)
    p.set_defaults(func=_cmd_fabric)

    p = sub.add_parser(
        "loadgen",
        help="closed-loop load generator against the serve engine",
        description=(
            "Offer synthetic frames at fixed rates and report "
            "latency percentiles, shedding, rejects, and the Eq. 7/8 "
            "hardware comparison per offered rate.  With "
            "--fabric-workers the load runs against an in-process "
            "multi-worker fabric; with --connect it drives a running "
            "'repro fabric' gateway over TCP."
        ),
    )
    p.add_argument("--offered-fps", type=float, nargs="+",
                   default=[200.0],
                   help="offered rates to sweep (frames per second)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds of offered load per sweep point")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="drive a running 'repro fabric' gateway "
                        "instead of an in-process service")
    p.add_argument("--window", type=int, default=64,
                   help="pipelined in-flight requests (--connect mode)")
    p.add_argument("--publish", default=None, metavar="PATH",
                   help="stream periodic registry snapshots to "
                        "PATH (JSONL deltas) and PATH.prom "
                        "(Prometheus text, rewritten per tick)")
    p.add_argument("--publish-interval-s", type=float, default=0.5,
                   help="seconds between published snapshot ticks")
    p.add_argument("--publish-http", type=int, default=None,
                   metavar="PORT",
                   help="also serve live /metrics on this port "
                        "(0 picks a free port; the bound port is "
                        "printed)")
    add_fabric_flag(p, default_workers=None)
    add_serve_flags(p)
    add_channel_flags(p)
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "acm",
        help="ACM threshold table + closed-loop ramp trace",
        description=(
            "Print the MODCOD threshold table (committed constants or "
            "freshly derived from the Monte-Carlo engines) and run the "
            "estimator-vs-oracle ramp trace through the multi-MODCOD "
            "serve plane."
        ),
    )
    p.add_argument("--frames", type=int, default=120,
                   help="ramp length in frames")
    p.add_argument("--esn0-start", type=float, default=None,
                   help="ramp start (default: below the table floor)")
    p.add_argument("--esn0-stop", type=float, default=None,
                   help="ramp end (default: above the top threshold)")
    p.add_argument("--parallelism", type=int, default=36)
    p.add_argument("--channel",
                   choices=("awgn", "rician", "rayleigh"),
                   default="awgn")
    p.add_argument("--hysteresis-db", type=float, default=0.3,
                   help="extra dB required to switch up")
    p.add_argument("--dwell-frames", type=int, default=4,
                   help="frames between consecutive up-switches")
    p.add_argument("--alpha", type=float, default=0.25,
                   help="EWMA weight of the newest SNR sample")
    p.add_argument("--seed", type=int, default=2005)
    p.add_argument("--derive", action="store_true",
                   help="re-derive the threshold table instead of "
                        "using the committed constants")
    p.add_argument("--rates", nargs="+",
                   default=["1/4", "1/2", "3/4"],
                   help="rates for --derive")
    p.add_argument("--target-fer", type=float, default=0.5,
                   help="FER crossing located by --derive")
    p.add_argument("--margin-db", type=float, default=0.5,
                   help="link margin added by --derive")
    p.add_argument("--table-only", action="store_true",
                   help="print the table and skip the ramp trace")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the trace summary + table as JSON")
    p.set_defaults(func=_cmd_acm)

    p = sub.add_parser(
        "scenarios",
        help="scenario matrix: waterfall + serve leg per cell",
        description=(
            "Run MODCOD x channel cells through the Monte-Carlo "
            "engines (waterfall row) and the live serve/loadgen path "
            "(capacity row).  Cells are rate[:modulation[:frame"
            "[:channel]]], e.g. 1/2:8psk:normal:rayleigh."
        ),
    )
    p.add_argument("--cells", nargs="+",
                   default=["1/2", "3/4",
                            "1/2:bpsk:normal:rayleigh"],
                   help="matrix cells")
    p.add_argument("--ebn0", type=float, nargs="+",
                   default=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                   help="Eb/N0 grid shared by cells without --grid")
    p.add_argument("--grid", action="append", metavar="CELL=DB,DB,...",
                   help="per-cell Eb/N0 grid override (label is the "
                        "full cell spec incl. channel); repeatable")
    p.add_argument("--parallelism", type=int, default=36)
    p.add_argument("--frames", type=int, default=64,
                   help="Monte-Carlo frames per grid point")
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the waterfall leg")
    p.add_argument("--no-serve", action="store_true",
                   help="skip the serve/loadgen leg")
    p.add_argument("--serve-margin-db", type=float, default=1.0,
                   help="serve operating point above the waterfall")
    p.add_argument("--offered-fps", type=float, default=200.0)
    p.add_argument("--duration", type=float, default=0.25,
                   help="loadgen seconds per cell")
    p.add_argument("--seed", type=int, default=2005)
    p.add_argument("--markdown-out", default=None, metavar="PATH",
                   help="write the matrix as a markdown table")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="write the matrix as JSON")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser(
        "obs", help="inspect JSONL traces written by --trace"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser("summary", help="digest a trace file")
    q.add_argument("file")
    q.set_defaults(func=_cmd_obs)

    q = obs_sub.add_parser(
        "trace", help="print per-iteration convergence rows"
    )
    q.add_argument("file")
    q.add_argument("--frame", type=int, default=None,
                   help="restrict to one frame")
    q.set_defaults(func=_cmd_obs)

    q = obs_sub.add_parser(
        "export", help="re-export a trace as jsonl or csv"
    )
    q.add_argument("file")
    q.add_argument("--format", choices=("jsonl", "csv"),
                   default="jsonl")
    q.add_argument("--output", default=None,
                   help="output path (default: stdout)")
    q.set_defaults(func=_cmd_obs)

    q = obs_sub.add_parser(
        "profile",
        help="serve-pipeline stage breakdown from a metrics snapshot",
        description=(
            "Render the serve.stage.* spans from a metrics snapshot "
            "JSON written by --metrics-out."
        ),
    )
    q.add_argument("file", help="metrics snapshot JSON")
    q.set_defaults(func=_cmd_obs_profile)

    q = obs_sub.add_parser(
        "capacity",
        help="fit a capacity/queueing model to an offered-rate sweep",
        description=(
            "Fit measured served-fps/p99 curves (a "
            "BENCH_serve_latency.json-style payload) against the "
            "Eq. 7/8 hardware model plus an M/G/1-style queueing "
            "term and report the max sustainable offered rate at the "
            "p99 SLO."
        ),
    )
    q.add_argument("file", help="sweep payload JSON")
    q.add_argument("--slo-p99-ms", type=float, default=500.0,
                   help="latency objective defining the knee")
    q.add_argument("--rate", default="1/2",
                   help="code rate for the Eq. 7/8 comparison")
    q.add_argument("--parallelism", type=int, default=36)
    q.add_argument("--no-model", action="store_true",
                   help="skip the Eq. 7/8 hardware comparison")
    q.add_argument("--output", default=None, metavar="PATH",
                   help="also write the capacity report as JSON")
    q.set_defaults(func=_cmd_obs_capacity)

    p = sub.add_parser(
        "verify", help="core-vs-golden bit-exactness check"
    )
    p.add_argument("--rate", default="1/2")
    p.add_argument("--parallelism", type=int, default=36)
    p.add_argument("--frames", type=int, default=5)
    p.add_argument("--ebn0", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "vectors", help="generate or replay golden test vectors"
    )
    p.add_argument("action", choices=("generate", "replay"))
    p.add_argument("file")
    p.add_argument("--rate", default="1/2")
    p.add_argument("--parallelism", type=int, default=36)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_vectors)

    p = sub.add_parser("rtl", help="emit the Verilog bundle")
    p.add_argument("--lanes", type=int, default=360)
    p.add_argument("--width", type=int, default=6)
    p.add_argument("--ram-depth", type=int, default=648)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_rtl)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Operator-input problems (missing/empty/corrupt telemetry files, a
    decoder recipe :class:`~repro.decode.DecoderSpec` rejects) surface
    as one-line errors with exit code 2, not tracebacks.
    """
    from .obs.export import TraceReadError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceReadError, _FlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
