"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      - run one workload under one design, print the summary.
* ``compare``  - run several designs on one workload, print a table.
* ``figure``   - regenerate a paper figure's sweep, with ``--workers``.
* ``suite``    - list the workload suite (TABLE II).
* ``designs``  - list the design registry (TABLE III + extensions).
* ``learn``    - the learned-predictor lab: ``learn extract`` turns
  observation traces into supervised datasets, ``learn train`` fits a
  ridge or online-RLS sensitivity model and stores it in the versioned
  model registry, ``learn eval`` replays a workload closed-loop with
  the trained model vs the hand-built baselines, ``learn list`` shows
  registry artifacts. Trained models serve live as the ``LEARNED``
  design (``repro serve --model <ref>``).
* ``profile``  - oracle-profile a workload's sensitivity trace (CSV
  export).
* ``storage``  - print the TABLE I storage-overhead model.
* ``trace``    - run one workload x design with the epoch telemetry
  recorder attached: per-epoch decision table on stdout, optional
  ``--trace FILE`` record stream (epochs, observations, then spans) and
  ``--perfetto`` Chrome-trace export (load the latter at
  https://ui.perfetto.dev).
* ``report``   - prediction-accuracy drill-down: error percentiles,
  decision confusion matrix vs the oracle, and per-PC error
  attribution, across workloads or from a saved ``--trace FILE``.
* ``serve``    - run the online DVFS decision service: sessions stream
  per-epoch observations over a length-prefixed JSON protocol and get
  per-domain frequency decisions back; ``/healthz`` + ``/metrics`` on
  a second port; SIGTERM/SIGINT shut it down gracefully. ``--trace FILE``
  streams connect/session/request/decision spans; ``--drift`` watches
  the shed rate online.
* ``metrics``  - render a metrics snapshot as Prometheus text
  exposition (format 0.0.4), from a saved JSON snapshot or scraped
  live via ``--url HOST:PORT``; ``--check`` re-parses the output
  through the exposition validator (the CI scrape gate).
* ``monitor``  - one summary line per interval: tail a span/epoch
  JSONL stream (``--follow``) or poll a live service's ``/metrics``
  (``--url``) and print counter deltas.
* ``replay``   - stream a trace recorded with ``trace --trace FILE``
  through a live server and verify every returned decision is
  bit-identical to the offline simulation's.
* ``check``    - differential validation pass: run a small workload x
  design matrix, audit every artifact against the physical invariants
  (energy conservation, monotone clocks, residency normalisation, ...)
  and cross-check the engine / sweep-parallelism / oracle-fork
  bit-exactness claims. Exits nonzero on any violation. ``--deep``
  widens the matrix; ``--json FILE`` saves the machine-readable report.

The sweep commands (``run``/``compare``/``figure``), and only they,
accept ``--workers N`` to fan cells across forked worker processes,
and cache results on disk (disable with ``--no-cache``;
relocate with ``--cache-dir``). Transient cell failures are retried
with deterministic backoff (``--retries N`` bounds the attempts;
``--retries 1`` disables retrying). The cache writes each cell
crash-safely as it finishes, so re-running an interrupted sweep with
the same settings computes only the cells it had not finished.
``run --engine reference`` runs the rescan timing loop, and ``run
--json FILE`` writes the run's hot-path work counters with the summary.

Global flags (before the subcommand): ``--log-level debug|info|
warning|error`` and ``--log-json`` configure the structured ``repro.*``
logger hierarchy (stderr; JSON lines with ``--log-json``).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.config import small_config
from repro.core.objectives import EDnPObjective
from repro.dvfs.designs import DESIGN_NAMES, EXTENSION_DESIGNS

# The sweep stack (executor, simulation, oracle, workloads, analysis) is
# imported by the commands that run it, so ``repro serve`` starts
# without loading it.
if TYPE_CHECKING:
    from repro.runtime import (
        RetryPolicy,
        SweepExecutor,
        SweepInstrumentation,
        SweepTask,
    )


def format_table(*args, **kwargs) -> str:
    """:func:`repro.analysis.report.format_table`, imported on first use."""
    from repro.analysis.report import format_table as render

    return render(*args, **kwargs)


class _WorkloadChoices:
    """The workload names as argparse ``choices``, loaded on first use."""

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())

    @staticmethod
    def _names() -> List[str]:
        from repro.workloads import workload_names

        return workload_names()


def _objective_name(name: str) -> str:
    """argparse ``type`` of ``--objective``: the name, once it parses."""
    from repro.service.protocol import ProtocolError, objective_from_name

    try:
        objective_from_name(name)
    except (ProtocolError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"invalid objective {name!r}: {exc}")
    return name


def _objective(args):
    """The ``--objective`` instance (the empty name is the ED2P default)."""
    from repro.service.protocol import objective_from_name

    return objective_from_name(args.objective) or EDnPObjective(2)


def _at_least_one(text: str) -> int:
    """argparse ``type`` of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config(args):
    cfg = small_config(
        n_cus=args.cus,
        waves_per_cu=args.waves,
        epoch_ns=args.epoch_us * 1000.0,
        cus_per_domain=args.cus_per_domain,
    )
    engine = getattr(args, "engine", "event")
    if engine != cfg.gpu.engine:
        from dataclasses import replace

        cfg = replace(cfg, gpu=replace(cfg.gpu, engine=engine))
    return cfg


def _retry_policy(args) -> RetryPolicy:
    from repro.runtime import RetryPolicy

    if args.retries is None:
        return RetryPolicy()
    return RetryPolicy(max_attempts=args.retries)


def _executor(args, progress: Optional[SweepInstrumentation] = None) -> SweepExecutor:
    from repro.runtime import ResultCache, SweepExecutor, SweepInstrumentation

    return SweepExecutor(
        max_workers=args.workers,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        progress=progress or SweepInstrumentation(),
        retry=_retry_policy(args),
    )


def _sweep_task(args, design: str) -> SweepTask:
    from repro.runtime import SweepTask

    return SweepTask(
        workload=args.workload,
        design=design,
        config=_config(args),
        scale=args.scale,
        max_epochs=args.max_epochs,
        oracle_sample_freqs=4,
        collect_accuracy=True,
        objective=_objective(args),
    )


def _print_fault_summary(progress: SweepInstrumentation) -> None:
    """One line on retries and failures, only when there is news."""
    if progress.retries or progress.failures:
        print(
            f"\nfault tolerance: {progress.retries} retr"
            f"{'y' if progress.retries == 1 else 'ies'}, "
            f"{progress.failures} permanent failure(s)"
        )


def cmd_run(args) -> int:
    from repro.runtime import SweepInstrumentation

    progress = SweepInstrumentation(name=f"run {args.workload}")
    r = _executor(args, progress).run_one(_sweep_task(args, args.design))
    rows = [
        ["epochs", r.epochs],
        ["completed", str(r.completed)],
        ["delay (us)", r.delay_ns / 1e3],
        ["energy", r.energy.total],
        ["EDP", r.edp],
        ["ED2P", r.ed2p],
        ["accuracy", r.prediction_accuracy if r.prediction_accuracy is not None else "-"],
        ["PC hit ratio", r.pc_hit_ratio if r.pc_hit_ratio is not None else "-"],
        ["transitions", r.total_transitions],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.workload} under {args.design}"))
    if args.json:
        from repro.analysis.trace_io import save_run_json

        save_run_json(r, args.json, config=_config(args))
        print(f"\nsummary written to {args.json}")
    _print_fault_summary(progress)
    return 0


def cmd_compare(args) -> int:
    from repro.runtime import SweepInstrumentation

    designs = args.designs.split(",")
    progress = SweepInstrumentation(name=f"compare {args.workload}")
    results = _executor(args, progress).run([_sweep_task(args, d) for d in designs])
    baseline = results[0]
    rows = []
    for d, r in zip(designs, results):
        rows.append([
            d, r.delay_ns / 1e3, r.energy.total, r.ed2p / baseline.ed2p,
            "-" if r.prediction_accuracy is None else f"{r.prediction_accuracy:.3f}",
        ])
    print(format_table(
        ["design", "delay (us)", "energy", f"ED2P vs {designs[0]}", "accuracy"],
        rows, title=f"{args.workload}: design comparison",
    ))
    if args.verbose:
        print()
        print(progress.summary())
    else:
        _print_fault_summary(progress)
    return 0


#: Figures the ``figure`` command can regenerate, with quick defaults.
FIGURE_NAMES = ("fig01", "fig14", "fig15", "fig16", "fig17", "fig18a", "fig18b")


def cmd_figure(args) -> int:
    from repro.analysis import experiments as ex
    from repro.runtime import SweepInstrumentation

    workloads = tuple(args.workloads.split(",")) if args.workloads else ex.QUICK_WORKLOADS
    designs = tuple(args.designs.split(",")) if args.designs else None
    progress = SweepInstrumentation(name=f"figure {args.figure}")
    setup = ex.ExperimentSetup(
        config=_config(args),
        workloads=workloads,
        scale=args.scale,
        max_epochs=args.max_epochs,
        oracle_sample_freqs=4,
        executor=_executor(args, progress),
    )
    print(_figure_text(args, setup, designs))
    print()
    print(progress.summary())
    return 0


def _figure_text(args, setup, designs) -> str:
    from repro.analysis import experiments as ex

    if args.figure in ("fig14", "fig15", "fig16"):
        matrix = ex.design_matrix(setup, designs=designs or ex.EVAL_DESIGNS)
        text = {
            "fig14": matrix.render_fig14,
            "fig15": matrix.render_fig15,
            "fig16": matrix.render_fig16,
        }[args.figure]()
    elif args.figure in ("fig01", "fig17"):
        n = 2 if args.figure == "fig01" else 1
        trend = ex.epoch_duration_trend(
            setup, designs=designs or ("CRISP", "ACCREAC", "PCSTALL", "ORACLE"), n=n
        )
        text = trend.render()
    elif args.figure == "fig18a":
        text = ex.fig18a_energy_savings(
            setup, designs=designs or ("CRISP", "PCSTALL")
        ).render()
    elif args.figure == "fig18b":
        text = ex.fig18b_granularity(
            setup, designs=designs or ("CRISP", "PCSTALL", "ORACLE")
        ).render()
    else:  # pragma: no cover - argparse choices guard this
        raise SystemExit(f"unknown figure {args.figure!r}")
    return text


def cmd_suite(_args) -> int:
    from repro.workloads import WORKLOADS

    rows = [
        [name, spec.category, len(spec.kernels), spec.description]
        for name, spec in WORKLOADS.items()
    ]
    print(format_table(["workload", "category", "kernels", "description"], rows,
                       title="TABLE II workload suite"))
    return 0


def cmd_designs(_args) -> int:
    rows = [[d, "TABLE III"] for d in DESIGN_NAMES]
    rows += [[d, "extension"] for d in EXTENSION_DESIGNS]
    rows.append(["STATIC@<f>", "baseline (any grid frequency)"])
    rows.append(["LEARNED@<ref>", "trained model from the registry (repro learn)"])
    print(format_table(["design", "origin"], rows, title="Design registry"))
    return 0


def cmd_profile(args) -> int:
    from repro.analysis.phases import (
        consecutive_epoch_change,
        profile_sensitivity,
        same_pc_iteration_change,
    )

    from repro.analysis.report import sparkline
    from repro.workloads import build_workload, workload

    cfg = _config(args)
    kernels = build_workload(workload(args.workload), scale=args.scale)
    trace = profile_sensitivity(
        kernels, cfg, max_epochs=args.max_epochs, workload_name=args.workload
    )
    print(f"{args.workload}: per-CU sensitivity over time (dark = sensitive)")
    for cu in range(cfg.gpu.n_cus):
        print(f"  CU{cu}: |{sparkline(trace.cu_series(cu))}|")
    print()
    rows = [
        ["epochs profiled", len(trace.epochs)],
        ["consecutive change (CU)", consecutive_epoch_change(trace, "cu")],
        ["same-PC change (WF)", same_pc_iteration_change(trace, "wf")],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.workload} sensitivity profile"))
    if args.csv:
        from repro.analysis.trace_io import save_trace_csv

        save_trace_csv(trace, args.csv)
        print(f"\ntrace written to {args.csv}")
    return 0


def cmd_storage(_args) -> int:
    from repro.analysis.experiments import tab1_storage

    print(tab1_storage().render())
    return 0


def _recorder_for(path: Optional[str] = None):
    """A recorder that keeps the whole run in memory. With ``path`` it
    also streams every record, one observation per epoch included,
    there."""
    from repro.telemetry import EpochTraceRecorder, TelemetryConfig

    return EpochTraceRecorder(
        TelemetryConfig(
            ring_size=None,
            jsonl_path=path,
            record_observations=path is not None,
        )
    )


def cmd_trace(args) -> int:
    from repro.runtime.executor import run_task
    from repro.telemetry import save_perfetto_json

    tracer = None
    drift = None
    with _recorder_for(args.trace) as rec:
        if args.trace:
            from repro.obs import Tracer

            # Spans land in the run's stream as they finish.
            tracer = Tracer(write=rec.write)
        if args.drift:
            from repro.obs import DriftMonitor, get_logger

            drift = DriftMonitor(write=rec.write, log=get_logger("drift"))
            rec.drift = drift
        result = run_task(_sweep_task(args, args.design), recorder=rec, tracer=tracer)

    domains = rec.domain_records()
    decisions = sum(r["mispredicted"] is not None for r in domains)
    missed = sum(bool(r["mispredicted"]) for r in domains)
    first = max(0, rec.epochs - args.epochs)
    rows = []
    for r in domains:
        if r["epoch"] < first:
            continue
        rows.append([
            r["epoch"],
            r["domain"],
            f"{r['freq_ghz']:.2f}",
            "-" if r["pred_commits"] is None else f"{r['pred_commits']:.0f}",
            r["actual_commits"],
            "-" if r["rel_error"] is None else f"{r['rel_error']:.3f}",
            "-" if r["oracle_freq_ghz"] is None else f"{r['oracle_freq_ghz']:.2f}",
            {True: "x", False: ".", None: "-"}[r["mispredicted"]],
        ])
    print(format_table(
        ["epoch", "dom", "f (GHz)", "pred", "actual", "rel err", "oracle f", "miss"],
        rows,
        title=(
            f"{args.workload}/{args.design}: epoch decisions "
            f"(last {args.epochs} of {rec.epochs} epochs)"
        ),
    ))
    print(
        f"\n{rec.epochs} epochs, {rec.total_records} records, "
        f"{missed}/{decisions} decisions off oracle-best; "
        f"run: delay {result.delay_ns / 1e3:.1f} us, "
        f"energy {result.energy.total:.3f}"
    )
    if args.trace:
        print(f"epoch records, observations and {tracer.total_spans} spans "
              f"streamed to {args.trace}")
    if drift is not None:
        if drift.alerts:
            print(f"drift: {drift.alert_count} alert(s)")
            for alert in drift.alerts:
                print(f"  {alert.render()}")
        else:
            print("drift: no alerts")
    if args.perfetto:
        records = rec.records
        if args.trace:
            from repro.obs import iter_jsonl

            # Spans and alerts went to the file only: export what was
            # written, less the observations the exporter never reads.
            with open(args.trace, encoding="utf-8") as fh:
                records = [r for r in iter_jsonl(fh) if r["type"] != "observation"]
        n = save_perfetto_json(records, args.perfetto)
        print(f"Perfetto trace ({n} events) written to {args.perfetto} "
              f"(load at https://ui.perfetto.dev)")
    return 0


def cmd_report(args) -> int:
    from repro.telemetry import AccuracyReport

    reports: List[AccuracyReport] = []
    if args.trace:
        from repro.telemetry import load_trace_jsonl

        reports.append(AccuracyReport.from_records(load_trace_jsonl(args.trace)))
    else:
        from repro.runtime.executor import run_task

        for w in args.workloads.split(","):
            args.workload = w
            with _recorder_for() as rec:
                run_task(_sweep_task(args, args.design), recorder=rec)
            reports.append(
                AccuracyReport.from_records(rec.in_memory(), label=f"{w}/{args.design}")
            )

    rows = []
    for rep in reports:
        pct = rep.error_percentiles()
        rows.append([
            rep.label, rep.epochs, rep.domain_records,
            f"{pct['p50']:.3f}", f"{pct['p90']:.3f}", f"{pct['p99']:.3f}",
            f"{pct['mean']:.3f}", f"{rep.agreement:.1%}",
        ])
    print(format_table(
        ["run", "epochs", "records", "p50", "p90", "p99", "mean", "oracle agr."],
        rows, title="prediction relative error (|pred - actual| / actual)",
    ))

    merged = reports[0]
    for rep in reports[1:]:
        merged = merged.merge(rep)
    if len(reports) > 1:
        merged.label = f"{args.workloads} x {args.design}"
    print()
    print(merged.render_confusion())
    print()
    print(merged.render_top_pcs(args.top))
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service.server import DecisionService, ServiceConfig
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    writer = None
    tracer = None
    if args.trace:
        from repro.obs import Tracer
        from repro.telemetry.schema import JsonlWriter, build_meta

        writer = JsonlWriter(args.trace, {"type": "trace", **build_meta()})
        tracer = Tracer(write=writer.write, registry=registry)
    drift = None
    if args.drift:
        from repro.obs import DriftMonitor, get_logger

        drift = DriftMonitor(
            registry=registry,
            write=None if writer is None else writer.write,
            log=get_logger("drift"),
        )
    if args.model_dir:
        # The LEARNED design resolves models through the default
        # registry; scope this process to the requested directory.
        import os

        from repro.learn.registry import MODEL_DIR_ENV

        os.environ[MODEL_DIR_ENV] = args.model_dir
    service = DecisionService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            health_port=None if args.health_port < 0 else args.health_port,
            max_sessions=args.max_sessions,
            model_ref=args.model,
        ),
        registry=registry,
        tracer=tracer,
        drift=drift,
    )

    async def _serve() -> None:
        await service.start()
        where = f"{args.host}:{service.port}"
        health = ("" if service.health_port is None
                  else f", health on :{service.health_port}")
        print(f"decision service listening on {where}{health}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                sig, lambda: loop.create_task(service.shutdown())
            )
        await service.wait_closed()

    try:
        asyncio.run(_serve())
    finally:
        if writer is not None:
            writer.close()
    counters = service.registry.counter_values("service_")
    print(
        f"drained: {counters.get('service_sessions_opened', 0):.0f} session(s), "
        f"{counters.get('service_decisions', 0):.0f} decision(s), "
        f"{counters.get('service_shed', 0):.0f} shed",
        flush=True,
    )
    if tracer is not None:
        print(f"{tracer.total_spans} spans streamed to {args.trace}", flush=True)
    if drift is not None:
        print(f"drift: {drift.alert_count} alert(s)", flush=True)
    return 0


def cmd_replay(args) -> int:
    from repro.runtime.executor import RetryPolicy
    from repro.service.replay import replay_trace

    report = replay_trace(
        args.trace,
        host=args.host,
        port=args.port,
        timeout_s=args.timeout,
        retry=RetryPolicy(
            max_attempts=args.retries,
            backoff_base_s=0.05,
            backoff_max_s=1.0,
            retryable=(ConnectionError, OSError),
        ),
    )
    print(report.render())
    return 0 if report.bit_identical else 1


def _host_port(spec: str) -> tuple:
    """Parse ``--url HOST:PORT`` (an optional ``http://`` prefix is shed)."""
    spec = spec.split("//", 1)[-1].rstrip("/")
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--url must be HOST:PORT, got {spec!r}")
    return host, int(port)


def cmd_metrics(args) -> int:
    from repro.obs import ExpositionError, parse_exposition, render_prometheus

    if bool(args.snapshot) == bool(args.url):
        raise SystemExit("repro metrics: pass exactly one of FILE or --url")

    if args.url:
        import http.client

        host, port = _host_port(args.url)
        conn = http.client.HTTPConnection(host, port, timeout=args.timeout)
        try:
            conn.request("GET", "/metrics?format=prometheus")
            response = conn.getresponse()
            text = response.read().decode("utf-8")
            if response.status != 200:
                raise SystemExit(
                    f"repro metrics: {args.url} answered {response.status}"
                )
        except OSError as exc:
            raise SystemExit(f"repro metrics: cannot scrape {args.url}: {exc}")
        finally:
            conn.close()
    else:
        import json

        try:
            with open(args.snapshot, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"repro metrics: cannot load {args.snapshot}: {exc}")
        # A registry snapshot or a /metrics JSON body: both carry
        # "counters", "gauges" and "histograms" at the top level.
        sections = {"counters", "gauges", "histograms"}
        if not isinstance(payload, dict) or not sections & set(payload):
            raise SystemExit(f"repro metrics: {args.snapshot} is not a metrics snapshot")
        labels = None
        meta = payload.get("meta")
        if isinstance(meta, dict) and "config_hash" in meta:
            labels = {
                "repro_version": str(meta.get("repro_version", "")),
                "config_hash": str(meta["config_hash"])[:12],
            }
        text = render_prometheus(payload, labels=labels)

    if args.check:
        try:
            samples = parse_exposition(text)
        except ExpositionError as exc:
            print(f"exposition INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"exposition OK ({len(samples)} samples)", file=sys.stderr)
    print(text, end="")
    return 0


def _monitor_file(args) -> int:
    import time

    from repro.obs import IntervalSummary, iter_jsonl, summarize_records

    with open(args.file, "r", encoding="utf-8") as fh:
        if not args.follow:
            summary = summarize_records(
                r for r in iter_jsonl(fh) if r is not None
            )
            print(summary.render())
            return 0
        summary = IntervalSummary()
        intervals = 0
        next_flush = time.monotonic() + args.interval
        for record in iter_jsonl(
            fh,
            follow=True,
            poll_s=min(0.2, args.interval),
            idle_limit_s=args.idle_limit,
        ):
            if record is not None:
                summary.add(record)
            if time.monotonic() < next_flush:
                continue
            print(summary.render(time.strftime("%H:%M:%S")), flush=True)
            summary = IntervalSummary()
            intervals += 1
            next_flush = time.monotonic() + args.interval
            if args.max_intervals is not None and intervals >= args.max_intervals:
                return 0
        if summary.records:  # idle limit hit: flush the remainder
            print(summary.render(time.strftime("%H:%M:%S")), flush=True)
    return 0


def _monitor_url(args) -> int:
    import time

    from repro.obs import diff_metrics, fetch_metrics

    host, port = _host_port(args.url)
    prev = None
    intervals = 0
    while True:
        try:
            cur = fetch_metrics(host, port)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro monitor: cannot scrape {args.url}: {exc}")
        print(f"[{time.strftime('%H:%M:%S')}] {diff_metrics(prev, cur)}",
              flush=True)
        prev = cur
        intervals += 1
        if args.max_intervals is not None and intervals >= args.max_intervals:
            return 0
        time.sleep(args.interval)


def cmd_monitor(args) -> int:
    if bool(args.file) == bool(args.url):
        raise SystemExit("repro monitor: pass exactly one of FILE or --url")
    return _monitor_url(args) if args.url else _monitor_file(args)


def cmd_check(args) -> int:
    from repro.validation import deep_check_config, quick_check_config, run_check

    cfg = deep_check_config() if args.deep else quick_check_config()
    if args.workloads:
        from dataclasses import replace as _replace

        cfg = _replace(cfg, workloads=tuple(args.workloads.split(",")))
    say = None if args.quiet else (lambda msg: print(f"  {msg}", flush=True))
    if not args.quiet:
        mode = "deep" if args.deep else "quick"
        print(f"repro check ({mode}): {', '.join(cfg.workloads)} "
              f"x {', '.join(cfg.designs)}", flush=True)
    report = run_check(cfg, log=say)
    print(report.render())
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        print(f"\nvalidation report written to {args.json}")
    return 0 if report.ok else 1


def cmd_learn_extract(args) -> int:
    from repro.learn import DatasetError, extract_dataset, save_dataset

    try:
        ds = extract_dataset(args.traces, eval_fraction=args.eval_fraction)
    except (DatasetError, OSError, ValueError) as exc:
        raise SystemExit(f"repro learn extract: {exc}")
    npz_path, sidecar_path = save_dataset(ds, args.output)
    rows = [
        ["rows", len(ds)],
        ["train rows", ds.n_train],
        ["eval rows", ds.n_eval],
        ["features", len(ds.meta["feature_names"])],
        ["traces", len(ds.meta["sources"])],
        ["dataset hash", str(ds.meta["dataset_hash"])[:16] + "..."],
    ]
    print(format_table(["field", "value"], rows,
                       title="extracted supervised dataset"))
    print(f"\narrays written to {npz_path}, sidecar to {sidecar_path}")
    return 0


def cmd_learn_train(args) -> int:
    from repro.learn import (
        DatasetError,
        ModelError,
        ModelRegistry,
        OnlineRLSModel,
        RidgeModel,
        load_dataset,
        offline_metrics,
    )

    try:
        ds = load_dataset(args.dataset)
    except DatasetError as exc:
        raise SystemExit(f"repro learn train: {exc}")
    train = ds.rows("train")
    try:
        if args.kind == "ridge":
            model = RidgeModel.train(
                ds.features[train], ds.labels[train],
                l2=args.l2, seed=args.seed,
            )
            hyper = {"l2": args.l2}
        else:
            # Anchor the oracle label lines at the platform's frequency
            # extremes so the slope is identified across the whole
            # actionable range (the recorded trace only visited the
            # frequencies its design chose); serving stays commits-only.
            anchors = ds.frequency_range()
            model = OnlineRLSModel.train(
                ds.features[train], ds.next_f[train],
                ds.next_commits[train],
                forgetting=args.forgetting, seed=args.seed,
                labels=ds.labels[train], anchor_freqs=anchors,
            )
            hyper = {"forgetting": args.forgetting,
                     "anchor_freqs": list(anchors)}
    except ModelError as exc:
        raise SystemExit(f"repro learn train: {exc}")
    provenance = {
        "dataset_hash": ds.meta.get("dataset_hash", ds.content_hash()),
        "dataset_sources": ds.meta.get("sources", []),
        "train": {
            "kind": args.kind,
            "seed": args.seed,
            "n_train": ds.n_train,
            "n_eval": ds.n_eval,
            "eval_fraction": ds.meta.get("eval_fraction"),
            **hyper,
        },
    }
    registry = ModelRegistry(args.model_dir)
    artifact_id = registry.save(model, provenance, name=args.name)

    rows = [["split", "rows", "rel p50", "rel p90", "rel mean"]]
    table = []
    for split in ("train", "eval"):
        if int(ds.rows(split).sum()) == 0:
            continue
        m = offline_metrics(model, ds, split=split)
        table.append([
            split, int(m["scored"]), f"{m['rel_p50']:.3f}",
            f"{m['rel_p90']:.3f}", f"{m['rel_mean']:.3f}",
        ])
    print(format_table(rows[0], table,
                       title=f"{args.kind} model: offline relative error"))
    named = f" (ref {args.name!r})" if args.name else ""
    print(f"\nartifact {artifact_id} saved to {registry.root}{named}")
    return 0


def cmd_learn_eval(args) -> int:
    from repro.learn import (
        DatasetError,
        ModelRegistry,
        ModelResolutionError,
        compare_designs,
        load_dataset,
    )

    registry = ModelRegistry(args.model_dir)
    try:
        model, document = registry.load(args.model)
    except ModelResolutionError as exc:
        raise SystemExit(f"repro learn eval: {exc}")
    dataset = None
    if args.dataset:
        try:
            dataset = load_dataset(args.dataset)
        except DatasetError as exc:
            raise SystemExit(f"repro learn eval: {exc}")
    objective = _objective(args)
    report = compare_designs(
        model,
        args.workload,
        _config(args),
        baselines=tuple(args.baselines.split(",")),
        dataset=dataset,
        objective=objective,
        scale=args.scale,
        max_epochs=args.max_epochs,
    )
    kind = document.get("model", {}).get("kind", "?")
    print(f"model {document['artifact_id'][:16]}... ({kind})")
    if report.offline is not None:
        m = report.offline
        print(
            f"held-out offline: rel err p50 {m['rel_p50']:.3f}, "
            f"p90 {m['rel_p90']:.3f}, mean {m['rel_mean']:.3f} "
            f"({int(m['scored'])} rows scored)"
        )
    print()
    print(report.render())
    if args.gate_baseline:
        learned = report.row("LEARNED")
        gate = report.row(args.gate_baseline)
        if gate is None:
            raise SystemExit(
                f"repro learn eval: --gate-baseline {args.gate_baseline!r} "
                f"was not among the evaluated designs"
            )
        # Gate on the metric the controller actually optimised: under
        # the default ED2P objective even ORACLE loses to a static
        # point on raw EDP, so an EDP gate would be unwinnable.
        ed2p = isinstance(objective, EDnPObjective) and objective.n == 2
        metric = "ed2p" if ed2p else "edp"
        learned_m = getattr(learned, metric)
        gate_m = getattr(gate, metric)
        label = metric.upper()
        if learned_m > gate_m:
            print(
                f"\nFAIL: LEARNED {label} {learned_m:.4e} is worse than "
                f"{args.gate_baseline} {label} {gate_m:.4e}"
            )
            return 1
        print(
            f"\nOK: LEARNED {label} {learned_m:.4e} beats "
            f"{args.gate_baseline} {label} {gate_m:.4e}"
        )
    return 0


def cmd_learn_list(args) -> int:
    from repro.learn import ModelRegistry

    registry = ModelRegistry(args.model_dir)
    artifacts = registry.list_artifacts()
    if not artifacts:
        print(f"no models in registry {registry.root}")
        return 0
    rows = [
        [
            a["artifact_id"][:16] + "...",
            a.get("kind") or "?",
            a.get("seed", "-"),
            (str(a.get("dataset_hash"))[:12] + "...") if a.get("dataset_hash") else "-",
            a.get("repro_version") or "-",
            ", ".join(a["refs"]) or "-",
        ]
        for a in artifacts
    ]
    print(format_table(
        ["artifact", "kind", "seed", "dataset", "version", "refs"],
        rows, title=f"model registry {registry.root}",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    p.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                   default="warning",
                   help="stderr log verbosity for the repro.* loggers "
                        "(default %(default)s)")
    p.add_argument("--log-json", action="store_true",
                   help="emit log lines as JSON objects instead of text")
    sub = p.add_subparsers(dest="command", required=True)

    def platform(sp, workload_arg=True, scale=0.4, max_epochs=400):
        if workload_arg:
            # A metavar keeps argparse from listing the choices (and so
            # loading the suite) while it builds the parser.
            sp.add_argument("workload", choices=_WorkloadChoices(), metavar="WORKLOAD",
                            help="a workload of the suite (see 'repro suite')")
        sp.add_argument("--cus", type=int, default=4)
        sp.add_argument("--waves", type=int, default=8)
        sp.add_argument("--cus-per-domain", type=int, default=1)
        sp.add_argument("--epoch-us", type=float, default=1.0)
        sp.add_argument("--scale", type=float, default=scale)
        sp.add_argument("--max-epochs", type=int, default=max_epochs)

    def objective(sp):
        sp.add_argument("--objective", type=_objective_name, default="ed2p",
                        help="ed1p | ed2p | capN (N%% degradation cap)")

    def runtime(sp):
        """The flags of the commands that run a sweep through ``_executor``."""
        sp.add_argument("--workers", type=_at_least_one, default=1,
                        help="processes to fan sweep cells across (default 1)")
        sp.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
        sp.add_argument("--cache-dir", default=None,
                        help="result cache directory (default .repro_cache "
                             "or $REPRO_CACHE_DIR)")
        # None = RetryPolicy's default, read when a sweep builds one.
        sp.add_argument("--retries", type=_at_least_one, default=None,
                        help="attempts per sweep cell before giving up "
                             "(1 = no retries; default 3)")

    sp = sub.add_parser("run", help="run one workload under one design")
    platform(sp)
    objective(sp)
    runtime(sp)
    sp.add_argument("--design", default="PCSTALL")
    sp.add_argument("--engine", choices=("event", "reference"), default="event",
                    help="timing-engine implementation (reference = the "
                         "pre-event-engine rescan loop, for comparisons)")
    sp.add_argument("--json", metavar="FILE",
                    help="write the run summary, with its hot-path work "
                         "counters, to this JSON file")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compare", help="compare designs on one workload")
    platform(sp)
    objective(sp)
    runtime(sp)
    sp.add_argument("--designs", default="STATIC@1.7,CRISP,PCSTALL")
    sp.add_argument("--verbose", action="store_true",
                    help="also print the sweep instrumentation summary")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser(
        "figure", help="regenerate a paper figure's sweep (parallel + cached)"
    )
    sp.add_argument("figure", choices=FIGURE_NAMES)
    sp.add_argument("--workloads", default=None,
                    help="comma-separated workload subset (default: quick five)")
    sp.add_argument("--designs", default=None,
                    help="comma-separated design subset (default: per figure)")
    platform(sp, workload_arg=False, scale=0.3, max_epochs=250)
    runtime(sp)
    sp.set_defaults(fn=cmd_figure)

    sp = sub.add_parser("suite", help="list the workload suite")
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("designs", help="list the design registry")
    sp.set_defaults(fn=cmd_designs)

    sp = sub.add_parser(
        "learn",
        help="learned predictors: extract datasets from observation "
             "traces, train/evaluate sensitivity models, manage the "
             "model registry",
    )
    learn_sub = sp.add_subparsers(dest="learn_command", required=True)

    lp = learn_sub.add_parser(
        "extract",
        help="build a supervised dataset (.npz + .json sidecar) from "
             "observation traces (repro trace <workload> --trace F)",
    )
    lp.add_argument("traces", nargs="+",
                    help="observation JSONL file(s) to extract from")
    lp.add_argument("-o", "--output", default="dataset",
                    help="output base path; writes <base>.npz and "
                         "<base>.json (default %(default)s)")
    lp.add_argument("--eval-fraction", type=float, default=0.25,
                    help="held-out fraction, split deterministically on "
                         "workload+config+seed+epoch (default %(default)s)")
    lp.set_defaults(fn=cmd_learn_extract)

    lp = learn_sub.add_parser(
        "train",
        help="train a sensitivity model on a dataset's train split and "
             "store it in the model registry",
    )
    lp.add_argument("dataset", help="dataset base path (from learn extract)")
    lp.add_argument("--kind", choices=("ridge", "rls"), default="rls",
                    help="ridge = offline closed form; rls = online "
                         "recursive least squares, keeps learning while "
                         "serving (default %(default)s)")
    lp.add_argument("--l2", type=float, default=1e-3,
                    help="ridge regularisation strength (default %(default)s)")
    lp.add_argument("--forgetting", type=float, default=0.98,
                    help="RLS exponential forgetting factor "
                         "(default %(default)s)")
    lp.add_argument("--seed", type=int, default=0,
                    help="training seed, recorded in the artifact "
                         "(default %(default)s)")
    lp.add_argument("--name", default=None,
                    help="also point this registry ref at the artifact")
    lp.add_argument("--model-dir", default=None,
                    help="model registry directory (default .repro_models "
                         "or $REPRO_MODEL_DIR)")
    lp.set_defaults(fn=cmd_learn_train)

    lp = learn_sub.add_parser(
        "eval",
        help="closed-loop evaluation: replay a workload with the trained "
             "model deciding, vs the hand-built baselines and the oracle",
    )
    lp.add_argument("model", help="registry reference (name, artifact id, "
                                  "id prefix, or 'latest')")
    platform(lp)
    objective(lp)
    lp.add_argument("--baselines", default=",".join(
                        ("STATIC@1.7", "CRISP", "HISTORY", "PCSTALL")),
                    help="comma-separated designs to compare against "
                         "(default %(default)s)")
    lp.add_argument("--dataset", default=None,
                    help="also report offline metrics on this dataset's "
                         "held-out split")
    lp.add_argument("--model-dir", default=None,
                    help="model registry directory (default .repro_models "
                         "or $REPRO_MODEL_DIR)")
    lp.add_argument("--gate-baseline", metavar="DESIGN", default=None,
                    help="exit 1 unless LEARNED beats this baseline on "
                         "ED2P (under ED2P) or EDP (CI gate, e.g. STATIC@1.7)")
    lp.set_defaults(fn=cmd_learn_eval)

    lp = learn_sub.add_parser("list", help="list registry artifacts")
    lp.add_argument("--model-dir", default=None,
                    help="model registry directory (default .repro_models "
                         "or $REPRO_MODEL_DIR)")
    lp.set_defaults(fn=cmd_learn_list)

    sp = sub.add_parser(
        "profile", help="oracle-profile a workload's sensitivity over time"
    )
    platform(sp)
    sp.add_argument("--csv", help="write the per-epoch trace to this CSV file")
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser(
        "trace",
        help="run with the epoch telemetry recorder attached; print "
             "per-epoch decisions, optionally export JSONL / Perfetto",
    )
    platform(sp)
    objective(sp)
    sp.add_argument("--design", default="PCSTALL")
    sp.add_argument("--epochs", type=int, default=8,
                    help="trailing epochs to print in the decision table")
    sp.add_argument("--trace", metavar="FILE",
                    help="stream every epoch record and one observation "
                         "per epoch (the full predictor input, so repro "
                         "replay and learn extract read the file) to this "
                         "JSONL file, then the run's spans")
    sp.add_argument("--perfetto", metavar="FILE",
                    help="write a Chrome-trace JSON timeline to FILE "
                         "(open at https://ui.perfetto.dev); with --trace, "
                         "spans render on the same timeline")
    sp.add_argument("--drift", action="store_true",
                    help="attach the online drift monitor to the recorder "
                         "and report rel_error alerts after the run")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser(
        "report",
        help="prediction-accuracy drill-down: error percentiles, "
             "confusion matrix vs oracle, per-PC attribution",
    )
    platform(sp, workload_arg=False)
    objective(sp)
    sp.add_argument("--workloads", default="dgemm",
                    help="comma-separated workloads to simulate and score")
    sp.add_argument("--design", default="PCSTALL")
    sp.add_argument("--trace", metavar="FILE",
                    help="score a saved trace instead of simulating")
    sp.add_argument("--top", type=int, default=10,
                    help="PC rows in the attribution table")
    sp.set_defaults(fn=cmd_report)

    sp = sub.add_parser("storage", help="print TABLE I storage overheads")
    sp.set_defaults(fn=cmd_storage)

    from repro.service.protocol import DEFAULT_HEALTH_PORT, DEFAULT_PORT

    sp = sub.add_parser(
        "serve",
        help="run the online DVFS decision service (PCSTALL over a socket)",
    )
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=DEFAULT_PORT,
                    help="decision port (0 = ephemeral; default %(default)s)")
    sp.add_argument("--health-port", type=int, default=DEFAULT_HEALTH_PORT,
                    help="/healthz + /metrics HTTP port (0 = ephemeral, "
                         "-1 = disabled; default %(default)s)")
    sp.add_argument("--max-sessions", type=_at_least_one, default=64,
                    help="admission cap on concurrent sessions "
                         "(default %(default)s)")
    sp.add_argument("--trace", metavar="FILE",
                    help="stream connect/session/request/decision spans "
                         "to this JSONL file (strictly observational: "
                         "decisions stay bit-identical)")
    sp.add_argument("--drift", action="store_true",
                    help="watch the shed rate with the online drift "
                         "monitor (alerts land in the log, the span "
                         "stream and /metrics)")
    sp.add_argument("--model", metavar="REF", default=None,
                    help="model-registry reference served to sessions "
                         "opening the bare LEARNED design (sessions "
                         "opening LEARNED@<ref> pin their own)")
    sp.add_argument("--model-dir", default=None,
                    help="model registry directory (default .repro_models "
                         "or $REPRO_MODEL_DIR)")
    sp.set_defaults(fn=cmd_serve)

    sp = sub.add_parser(
        "replay",
        help="stream a recorded trace through a live server and verify "
             "bit-identical decisions",
    )
    sp.add_argument("trace",
                    help="JSONL from: repro trace <workload> --trace FILE")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=DEFAULT_PORT)
    sp.add_argument("--timeout", type=float, default=30.0,
                    help="per-reply timeout in seconds (default %(default)s)")
    sp.add_argument("--retries", type=_at_least_one, default=5,
                    help="attempt budget for connects and shed observations "
                         "(default %(default)s)")
    sp.set_defaults(fn=cmd_replay)

    sp = sub.add_parser(
        "metrics",
        help="render a metrics snapshot as Prometheus text exposition "
             "(from a JSON file or a live /metrics endpoint)",
    )
    sp.add_argument("snapshot", nargs="?", default=None,
                    help="JSON metrics snapshot (a registry to_dict() dump "
                         "or a /metrics body)")
    sp.add_argument("--url", metavar="HOST:PORT", default=None,
                    help="scrape a live service's "
                         "/metrics?format=prometheus instead of a file")
    sp.add_argument("--timeout", type=float, default=5.0,
                    help="HTTP timeout in seconds (default %(default)s)")
    sp.add_argument("--check", action="store_true",
                    help="validate the output through the exposition "
                         "parser; exit 1 on a format violation")
    sp.set_defaults(fn=cmd_metrics)

    sp = sub.add_parser(
        "monitor",
        help="one summary line per interval: tail a trace JSONL or poll "
             "a live /metrics endpoint",
    )
    sp.add_argument("file", nargs="?", default=None,
                    help="JSONL record stream to summarise (epoch trace, "
                         "span stream, or a combined file)")
    sp.add_argument("--url", metavar="HOST:PORT", default=None,
                    help="poll this service's /metrics and print counter "
                         "deltas instead of tailing a file")
    sp.add_argument("--follow", action="store_true",
                    help="file mode: keep tailing for new records "
                         "(default: summarise the whole file once)")
    sp.add_argument("--interval", type=float, default=2.0,
                    help="seconds per summary line (default %(default)s)")
    sp.add_argument("--max-intervals", type=int, default=None,
                    help="stop after this many summary lines "
                         "(default: run until interrupted)")
    sp.add_argument("--idle-limit", type=float, default=None,
                    help="file mode with --follow: give up after this "
                         "many seconds without new records")
    sp.set_defaults(fn=cmd_monitor)

    sp = sub.add_parser(
        "check",
        help="differential validation: audit invariants and cross-check "
             "the engine/sweep/oracle bit-exactness claims",
    )
    sp.add_argument("--deep", action="store_true",
                    help="the five quickstart workloads at figure scale "
                         "(default: two workloads at CI-smoke scale)")
    sp.add_argument("--workloads", default=None,
                    help="comma-separated workload override")
    sp.add_argument("--json", metavar="FILE",
                    help="write the machine-readable report to FILE")
    sp.add_argument("--quiet", action="store_true",
                    help="suppress per-cell progress lines")
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.obs import configure_logging

    configure_logging(args.log_level, json_mode=args.log_json)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
