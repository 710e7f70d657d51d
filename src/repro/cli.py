"""Command-line interface.

``python -m repro <command>`` runs the paper's experiments from the
shell:

- ``table1 [--quick]`` — the Table 1 performance comparison;
- ``fig7 [--sim-ms N]`` — the Figure 7 forwarding sweep;
- ``loc`` — the Section 5 code-complexity report;
- ``router --scheme S [--delay-us N] [--sim-ms N] [--cpus N]
  [--ports N] [--stages N,N,...] [--burst N] [--dmi]
  [--checkpoint-every N --checkpoint-dir D] [--resume-from PATH]`` —
  one case-study run with statistics — any NxN or multi-stage fabric
  (docs/fuzzing.md), optionally over the zero-copy DMI binding tier
  (docs/dmi.md), checkpointed (with crash recovery) or resumed from a
  snapshot; impossible topology/traffic parameters exit 2 with a
  one-line message;
- ``fuzz --seed S --budget N [--failures-dir D] [--corpus-dir D
  --write-corpus] [--replay PATH]`` — the seeded scenario fuzzer
  (docs/fuzzing.md): samples composed scenarios, judges each with the
  four-part oracle (health findings, serial-vs-parallel
  byte-identity, checkpoint round-trip, traced-vs-untraced
  fast-forward), minimizes and saves failures;
  ``--replay`` re-judges saved fixtures (a file or a directory), exit
  2 when the path is missing, 1 when any scenario fails;
- ``checkpoint save|restore|verify`` — deterministic snapshot/restore
  with replay verification (docs/checkpoint.md); ``verify`` exits 2
  with a one-line message when the file is missing or corrupt;
- ``trace [--scheme S|all] [--format chrome|text|json]`` — a traced
  quickstart-scale run with a per-scheme profile comparison (the json
  format leads with a metadata header line naming the scheme, seed,
  simulated time, quantum and repro version);
- ``spans [--scheme S|all] [--format table|json|perfetto]`` — causal
  transaction spans reconstructed from a traced run
  (docs/observability.md), exportable as Perfetto async slices;
- ``health [--records D [--baseline-dir D]] [--checkpoint-dir D]
  [--chaos storm|stall|thrash] [--format text|json]`` — the rule-based
  co-simulation health analyzer (``--checkpoint-dir`` reports
  crash-recovery events; ``--format json`` emits the machine-readable
  report with identical exit semantics); exits non-zero when any
  finding is critical, 2 with a one-line message when a named
  records/baseline/checkpoint directory is missing;
- ``metrics [--scheme S] [--format ndjson|json|prom] [-o PATH]`` —
  the telemetry time-series of a pinned scenario
  (docs/observability.md): at most one point per 10 us grid period,
  exportable as NDJSON, canonical JSON or Prometheus text exposition;
- ``top [--scheme S] [--once]`` — a live ``top``-style counter view:
  totals and windowed per-grid-period rates, redrawn between simulated
  time slices (``--once`` prints a single final snapshot for CI);
- ``bench [--scheme S|all] [--out-dir D] [--quantum N] [--dmi]
  [--tier T]
  [--compare]`` — machine-readable ``BENCH_*.json`` benchmark records
  (docs/observability.md), optionally over the DMI tier (docs/dmi.md),
  optionally gated against the committed baselines in
  ``benchmarks/baselines/`` (docs/performance.md);
- ``version``.
"""

import argparse

from repro.sysc.simtime import MS, US
from repro.version import __version__


def _cmd_table1(args):
    from repro.analysis.table1 import run_table1
    from repro.analysis.tables import render_table

    sim_times = ((1 * MS, 4 * MS) if args.quick
                 else (1 * MS, 10 * MS, 100 * MS))
    rows = run_table1(sim_times=sim_times)
    headers = ["scheme"] + ["%d ms" % (t // MS) for t in sim_times]
    print(render_table(
        headers,
        [[row.scheme] + ["%.3f s" % w for w in row.wall_seconds]
         for row in rows],
        title="Table 1 - co-simulation wall-clock time"))
    baseline = rows[0]
    print()
    print(render_table(
        headers,
        [[row.scheme] + ["%.2fx" % s
                         for s in row.speedup_against(baseline)]
         for row in rows[1:]],
        title="Speedup vs %s (paper: ~1.3x / ~3x)" % baseline.scheme))
    return 0


def _cmd_fig7(args):
    from repro.analysis.fig7 import DEFAULT_DELAYS, run_fig7
    from repro.analysis.tables import render_table

    data = run_fig7(sim_time=args.sim_ms * MS)
    rows = []
    for index, delay in enumerate(DEFAULT_DELAYS):
        rows.append(["%d us" % (delay // US),
                     "%.1f" % data["gdb-kernel"][index].forwarded_percent,
                     "%.1f" % data["driver-kernel"][index]
                     .forwarded_percent])
    print(render_table(["delay", "gdb-kernel %", "driver-kernel %"], rows,
                       title="Figure 7 - forwarding vs inter-packet "
                             "delay"))
    return 0


def _cmd_loc(args):
    from repro.analysis.loc import loc_report

    report = loc_report()
    print("Section 5 code-complexity report")
    print("  SystemC side: gdb-kernel %d, driver-kernel %d lines "
          "(+%.0f%%, paper ~+40%%)" % (report.gdb_systemc,
                                       report.driver_systemc,
                                       report.systemc_overhead_percent))
    print("  guest side:   gdb-kernel %d, driver-kernel %d lines "
          "(%.1fx, paper ~9x in C)" % (report.gdb_guest,
                                       report.driver_guest,
                                       report.guest_factor))
    return 0


#: The co-simulation schemes a traced scenario run can select.
_COSIM_SCHEMES = ("gdb-wrapper", "gdb-kernel", "driver-kernel")


def _run_command(name):
    """Decorate a run-building command: a run parameter the config
    validation (or the checkpoint runner) rejects prints one
    ``<name>: <message>`` line and exits 2, without a traceback."""
    def decorate(command):
        def run(args):
            from repro.errors import CheckpointError, CosimError

            try:
                return command(args)
            except (CosimError, CheckpointError) as error:
                print("%s: %s" % (name, error))
                return 2
        return run
    return decorate


def _add_scenario_flags(parser, scheme, sim_us):
    """The flags every quickstart-scenario command shares: ``--scheme``
    (default *scheme*; ``all`` runs each co-simulation scheme),
    ``--sim-us`` (default *sim_us*), ``--seed`` and ``--quantum``."""
    choices = (("all",) if scheme == "all" else ()) + _COSIM_SCHEMES
    parser.add_argument("--scheme", default=scheme, choices=choices)
    parser.add_argument("--sim-us", type=int, default=sim_us,
                        help="simulated microseconds")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quantum", type=int, default=1,
                        help="sync quantum (batched timesteps per ISS "
                             "synchronisation)")


def _scenario_config(args, scheme, **fields):
    """The validated quickstart config of *scheme* under the shared
    flags; *fields* set further :class:`RouterConfig` fields."""
    from repro.obs.scenarios import quickstart_config
    from repro.router.system import validate_config

    config = quickstart_config(scheme, seed=args.seed,
                               sync_quantum=args.quantum, **fields)
    validate_config(config)
    return config


def _scenario_schemes(scheme):
    return _COSIM_SCHEMES if scheme == "all" else (scheme,)


def _print_recoveries(runner):
    for entry in runner.recovery_log:
        print("recovered %s from %s in slice %d (attempt %d)"
              % (entry["context"], entry["code"], entry["slice"],
                 entry["attempt"]))


def _parse_stages(text):
    """``"4,4"`` → ``[4, 4]``; None passes through."""
    from repro.errors import CosimError

    if not text:
        return None
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise CosimError("stages must be a comma-separated list of "
                         "integers, got %r" % text)


@_run_command("router")
def _cmd_router(args):
    from repro.cosim.checkpoint import (CheckpointRunner, RecoveryPolicy,
                                        restore_checkpoint)
    from repro.errors import CheckpointError
    from repro.router.system import (RouterConfig, build_system,
                                     validate_config)

    config = RouterConfig(scheme=args.scheme,
                          inter_packet_delay=args.delay_us * US,
                          num_cpus=args.cpus, num_ports=args.ports,
                          stages=_parse_stages(args.stages),
                          burst=args.burst, dmi=args.dmi)
    validate_config(config)
    runner = None
    if args.resume_from:
        try:
            runner = restore_checkpoint(args.resume_from,
                                        out_dir=args.checkpoint_dir,
                                        recovery=RecoveryPolicy())
        except CheckpointError as error:
            print("router: cannot resume: %s" % error)
            return 2
        config = runner.base_config
    elif args.checkpoint_every is not None:
        runner = CheckpointRunner(config,
                                  checkpoint_every=args.checkpoint_every,
                                  out_dir=args.checkpoint_dir,
                                  recovery=RecoveryPolicy())
    if runner is not None:
        stats = runner.run(args.sim_ms * MS)
        _print_recoveries(runner)
        runner.close()
    else:
        system = build_system(config)
        system.run(args.sim_ms * MS)
        stats = system.stats()
        system.close()
    print("scheme=%s cpus=%d delay=%dus sim=%dms" % (
        config.scheme, config.num_cpus, config.inter_packet_delay // US,
        args.sim_ms))
    print("generated=%d forwarded=%d (%.1f%%) received=%d corrupt=%d "
          "input_drops=%d" % (stats.generated, stats.forwarded,
                              stats.forwarded_percent, stats.received,
                              stats.corrupt, stats.input_drops))
    return 0 if stats.corrupt == 0 else 1


@_run_command("checkpoint save")
def _cmd_checkpoint_save(args):
    from repro.cosim.checkpoint import (CheckpointRunner,
                                        latest_checkpoint,
                                        load_checkpoint)
    from repro.router.system import RouterConfig

    config = RouterConfig(scheme=args.scheme, num_cpus=args.cpus,
                          sync_quantum=args.quantum,
                          inter_packet_delay=args.delay_us * US)
    runner = CheckpointRunner(config, checkpoint_every=args.every,
                              out_dir=args.out_dir)
    runner.run(args.sim_us * US)
    runner.close()
    latest = latest_checkpoint(args.out_dir)
    if latest is None:
        print("checkpoint save: the run was shorter than one slice "
              "(%d quanta); raise --sim-us or lower --every"
              % args.every)
        return 1
    print("saved %d checkpoint(s) under %s" % (
        len(runner._saved), args.out_dir))
    print("latest: %s (slice %d)"
          % (latest, load_checkpoint(latest)["position"]["slice"]))
    return 0


def _cmd_checkpoint_restore(args):
    from repro.cosim.checkpoint import (RecoveryPolicy,
                                        restore_checkpoint)
    from repro.errors import CheckpointError

    try:
        runner = restore_checkpoint(args.path, out_dir=args.out_dir,
                                    recovery=RecoveryPolicy())
    except CheckpointError as error:
        print("checkpoint restore failed: %s" % error)
        return 2
    print("restored %s at slice %d (now=%d fs)"
          % (args.path, runner.completed_slices,
             runner.system.kernel.now))
    if args.sim_us:
        stats = runner.run(args.sim_us * US)
        _print_recoveries(runner)
        print("generated=%d forwarded=%d (%.1f%%) received=%d"
              % (stats.generated, stats.forwarded,
                 stats.forwarded_percent, stats.received))
    runner.close()
    return 0


def _cmd_checkpoint_verify(args):
    from repro.cosim.checkpoint import verify_checkpoint
    from repro.errors import CheckpointError

    try:
        report = verify_checkpoint(args.path)
    except CheckpointError as error:
        print("checkpoint verify failed: %s" % error)
        return 2
    print("verified %s: scheme=%s slice=%d now=%dfs sections=%s"
          % (report["path"], report["scheme"], report["slice"],
             report["now"], ",".join(report["sections"])))
    return 0


def _cmd_report(args):
    from repro.analysis.report import generate_report

    text = generate_report(quick=not args.full)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %s" % args.output)
    else:
        print(text)
    return 0


@_run_command("trace")
def _cmd_trace(args):
    from repro.obs.profile import SchemeProfile, compare_profiles
    from repro.obs.scenarios import run_traced_scenario
    from repro.obs.tracer import trace_header

    schemes = _scenario_schemes(args.scheme)
    profiles = []
    for scheme in schemes:
        run = run_traced_scenario(_scenario_config(args, scheme),
                                  args.sim_us)
        profiles.append(SchemeProfile.from_run(run.system.metrics,
                                               run.tracer))
        if args.format == "chrome":
            text = run.tracer.chrome_trace_json()
        elif args.format == "json":
            header = trace_header(scheme=scheme, seed=args.seed,
                                  sim_us=args.sim_us,
                                  quantum=args.quantum,
                                  version=__version__)
            text = header + "\n" + run.tracer.dump()
        else:
            text = run.tracer.timeline(limit=args.limit)
        if args.output:
            path = (args.output if len(schemes) == 1
                    else "%s.%s" % (args.output, scheme))
            with open(path, "w") as handle:
                handle.write(text)
            print("wrote %s (%d events)" % (path, len(run.tracer)))
        else:
            print(text)
    print()
    print(compare_profiles(profiles))
    return 0


@_run_command("bench")
def _cmd_bench(args):
    import os

    from repro.obs.bench import (BenchReporter, compare_reports,
                                 load_report)
    from repro.obs.scenarios import bench_scenario

    # Flags left unset keep RouterConfig's environment-driven defaults.
    fields = {name: getattr(args, name)
              for name in ("parallel", "workers", "tier")
              if getattr(args, name) is not None}
    if args.parallel == "off":
        fields["parallel"] = None
    suffix = ("_q%d" % args.quantum if args.quantum != 1 else "") \
        + ("_dmi" if args.dmi else "") \
        + {"superblocks": "_sb", "interp": "_interp"}.get(args.tier, "")
    reporter = BenchReporter(args.out_dir)
    failures = 0
    for scheme in _scenario_schemes(args.scheme):
        name = "cli_%s%s" % (scheme, suffix)
        __, run = bench_scenario(
            _scenario_config(args, scheme, dmi=args.dmi, **fields),
            args.sim_us, name=name)
        path = reporter.write(run)
        record = run.as_dict()
        print("wrote %s: wall=%.3fs timesteps=%s events=%s" % (
            path, record["wall"]["seconds"],
            record["counters"].get("timesteps"),
            record["counters"].get("trace_events")))
        if args.compare:
            baseline_path = os.path.join(args.baseline_dir,
                                         "BENCH_%s.json" % name)
            if not os.path.exists(baseline_path):
                print("  no baseline %s - skipped" % baseline_path)
                continue
            problems = compare_reports(record, load_report(baseline_path))
            if problems:
                failures += 1
                for problem in problems:
                    print("  FAIL vs %s: %s" % (baseline_path, problem))
            else:
                print("  ok vs %s" % baseline_path)
    if failures:
        return 1
    return 0 if reporter.written else 1


@_run_command("spans")
def _cmd_spans(args):
    from repro.obs.scenarios import run_traced_scenario
    from repro.obs.spans import (dump_spans, perfetto_spans_json,
                                 span_table, spans_from_tracer)

    schemes = _scenario_schemes(args.scheme)
    for scheme in schemes:
        run = run_traced_scenario(_scenario_config(args, scheme),
                                  args.sim_us)
        spans = spans_from_tracer(run.tracer)
        if args.format == "perfetto":
            text = perfetto_spans_json(spans)
        elif args.format == "json":
            text = dump_spans(spans)
        else:
            text = span_table(spans, limit=args.limit)
        open_spans = sum(1 for span in spans if not span.closed)
        if args.output:
            path = (args.output if len(schemes) == 1
                    else "%s.%s" % (args.output, scheme))
            with open(path, "w") as handle:
                handle.write(text)
            print("wrote %s (%d spans, %d open)"
                  % (path, len(spans), open_spans))
        else:
            print(text)
            print("%s: %d spans, %d open"
                  % (scheme, len(spans), open_spans))
    return 0


def _emit_health(report, fmt):
    """Print a health report as text or JSON; returns its exit code."""
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code


@_run_command("health")
def _cmd_health(args):
    import json
    import os

    from repro.obs.health import (HealthReport, analyze_records,
                                  analyze_recovery_log, analyze_run)
    from repro.obs.scenarios import (chaos_health_scenario,
                                     run_traced_scenario)

    if args.records:
        if not os.path.isdir(args.records):
            print("health: records directory %r does not exist; run "
                  "'repro bench --out-dir %s' first"
                  % (args.records, args.records))
            return 2
        if args.baseline_dir and not os.path.isdir(args.baseline_dir):
            print("health: baseline directory %r does not exist; pass "
                  "an existing --baseline-dir (the committed records "
                  "live in benchmarks/baselines)" % args.baseline_dir)
            return 2
        report = analyze_records(args.records,
                                 baseline_dir=args.baseline_dir)
        return _emit_health(report, args.format)
    if args.checkpoint_dir:
        if not os.path.isdir(args.checkpoint_dir):
            print("health: checkpoint directory %r does not exist; "
                  "run 'repro router --checkpoint-every N "
                  "--checkpoint-dir %s' first"
                  % (args.checkpoint_dir, args.checkpoint_dir))
            return 2
        log_path = os.path.join(args.checkpoint_dir, "recovery.json")
        log = []
        if os.path.exists(log_path):
            with open(log_path) as handle:
                log = json.load(handle)
        report = analyze_recovery_log(log)
        return _emit_health(report, args.format)
    if args.chaos:
        defaults = build_parser().parse_args(["health"])
        moved = ["--" + name.replace("_", "-")
                 for name in ("scheme", "sim_us", "seed", "quantum")
                 if getattr(args, name) != getattr(defaults, name)]
        if moved:
            print("health: --chaos %s runs its own fixed scenario; "
                  "drop %s" % (args.chaos, " ".join(moved)))
            return 2
        runs = [chaos_health_scenario(args.chaos)]
    else:
        runs = (run_traced_scenario(_scenario_config(args, scheme),
                                    args.sim_us)
                for scheme in _scenario_schemes(args.scheme))
    report = HealthReport()
    for run in runs:
        report.extend(analyze_run(run.tracer.events(),
                                  metrics=run.system.metrics,
                                  dropped=run.tracer.dropped))
        run.system.close()
    return _emit_health(report, args.format)


@_run_command("metrics")
def _cmd_metrics(args):
    from repro.obs.metrics import prometheus_text
    from repro.obs.scenarios import run_traced_scenario

    run = run_traced_scenario(_scenario_config(args, args.scheme),
                              args.sim_us)
    run.system.close()
    series = run.system.telemetry.series
    if args.format == "prom":
        sample = series.latest_sample()
        if sample is None:
            print("metrics: the run recorded no telemetry points")
            return 1
        text = prometheus_text(sample,
                               labels={"scheme": args.scheme,
                                       "seed": str(args.seed),
                                       "quantum": str(args.quantum)})
    elif args.format == "json":
        text = series.dump() + "\n"
    else:
        text = "\n".join(series.to_ndjson_lines()) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %s (%d points, %d evicted)"
              % (args.output, len(series), series.evicted))
    else:
        print(text, end="")
    return 0


def _render_top(series, scheme, window):
    from repro.analysis.tables import render_table

    sample = series.latest_sample()
    if sample is None:
        return "%s: no telemetry points yet" % scheme
    rates = series.rates(window)
    rows = []
    for name in series.counters:
        value = sample[name]
        rate = rates.get(name, 0)
        if not value and not rate:
            continue
        rows.append([name, "%d" % value,
                     ("%.2f" % rate) if rates else "-"])
    title = ("%s  t=%dfs  timestep=%d  points=%d (evicted %d)"
             % (scheme, sample["sim_now_fs"], sample["timestep"],
                sample["points"], sample["points_evicted"]))
    return render_table(["counter", "total", "/period(w=%d)" % window],
                        rows, title=title)


@_run_command("top")
def _cmd_top(args):
    from repro.obs.tracer import Tracer
    from repro.router.system import build_system

    system = build_system(_scenario_config(
        args, args.scheme, tracer=Tracer(capacity=200_000)))
    # --once runs the scenario in one slice and prints its final
    # snapshot.  Live mode advances the same run in --refresh
    # simulated-time slices with a redraw between each: the cadence is
    # driven by simulated progress, never wall sleeps, so the view
    # stays deterministic.  Slice k ends at k/slices of --sim-us, so
    # the last frame shows the same time as --once.
    slices = 1 if args.once else max(1, args.refresh)
    for index in range(1, slices + 1):
        system.run(args.sim_us * index // slices * US - system.kernel.now)
        if not args.once:
            print("\x1b[2J\x1b[H", end="")
        print(_render_top(system.telemetry.series, args.scheme,
                          args.window))
    system.close()
    return 0


def _cmd_fuzz(args):
    import os

    from repro.errors import CosimError
    from repro.fuzz import load_scenario, run_fuzz, run_oracles
    from repro.fuzz.corpus import corpus_paths

    if args.replay:
        if os.path.isdir(args.replay):
            paths = corpus_paths(args.replay)
            if not paths:
                print("fuzz: no scenario fixtures under %r" % args.replay)
                return 2
        elif os.path.exists(args.replay):
            paths = [args.replay]
        else:
            print("fuzz: scenario path %r does not exist" % args.replay)
            return 2
        failed = 0
        for path in paths:
            try:
                scenario = load_scenario(path)
            except CosimError as error:
                print("fuzz: %s" % error)
                return 2
            result = run_oracles(scenario,
                                 checkpoint=not args.no_checkpoint)
            if result.passed:
                print("%s: ok%s" % (scenario.name,
                                    " (chaos)" if result.chaos else ""))
            else:
                failed += 1
                print("%s: FAIL %s" % (scenario.name,
                                       "; ".join(result.failures)))
        print("replayed %d scenario(s), %d failed" % (len(paths), failed))
        return 1 if failed else 0
    summary = run_fuzz(args.seed, args.budget,
                       corpus_dir=args.corpus_dir,
                       failures_dir=args.failures_dir,
                       write_corpus=args.write_corpus,
                       minimize=not args.no_minimize,
                       checkpoint=not args.no_checkpoint,
                       log=print)
    return 1 if summary.failed else 0


def _cmd_version(args):
    print(__version__)
    return 0


def build_parser():
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE 2004 ISS-SystemC co-simulation reproduction")
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser("table1", help="Table 1 experiment")
    table1.add_argument("--quick", action="store_true",
                        help="short simulated times")
    table1.set_defaults(func=_cmd_table1)

    fig7 = commands.add_parser("fig7", help="Figure 7 sweep")
    fig7.add_argument("--sim-ms", type=int, default=2,
                      help="simulated ms per point")
    fig7.set_defaults(func=_cmd_fig7)

    loc = commands.add_parser("loc", help="Section 5 LoC report")
    loc.set_defaults(func=_cmd_loc)

    router = commands.add_parser("router", help="one case-study run")
    router.add_argument("--scheme", default="gdb-kernel",
                        choices=("local",) + _COSIM_SCHEMES)
    router.add_argument("--delay-us", type=int, default=20)
    router.add_argument("--sim-ms", type=int, default=2)
    router.add_argument("--cpus", type=int, default=1)
    router.add_argument("--ports", type=int, default=4, metavar="N",
                        help="router fabric width (an NxN router; >= 2)")
    router.add_argument("--stages", default=None, metavar="N,N,...",
                        help="multi-stage fabric: comma-separated stage "
                             "widths, each equal to --ports "
                             "(docs/fuzzing.md)")
    router.add_argument("--burst", type=int, default=1,
                        help="producer burstiness (packets back-to-back "
                             "per idle; >= 1)")
    router.add_argument("--dmi", action="store_true",
                        help="enable the zero-copy DMI binding tier "
                             "(docs/dmi.md); dmi-unsafe contexts fall "
                             "back to the transactional tiers")
    router.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="checkpoint every N sync quanta (requires "
                             "--checkpoint-dir to keep the files)")
    router.add_argument("--checkpoint-dir", default=None,
                        help="directory for checkpoint_*.json and the "
                             "recovery log")
    router.add_argument("--resume-from", default=None, metavar="PATH",
                        help="resume a previous run from a checkpoint "
                             "file instead of starting fresh")
    router.set_defaults(func=_cmd_router)

    checkpoint = commands.add_parser(
        "checkpoint", help="deterministic snapshot/restore of a "
                           "router co-simulation (docs/checkpoint.md)")
    checkpoint_cmds = checkpoint.add_subparsers(dest="checkpoint_command",
                                                required=True)
    ck_save = checkpoint_cmds.add_parser(
        "save", help="run a scenario, writing checkpoints")
    ck_save.add_argument("--scheme", default="gdb-kernel",
                         choices=_COSIM_SCHEMES)
    ck_save.add_argument("--sim-us", type=int, default=120,
                         help="simulated microseconds")
    ck_save.add_argument("--quantum", type=int, default=1,
                         help="sync quantum")
    ck_save.add_argument("--cpus", type=int, default=2)
    ck_save.add_argument("--delay-us", type=int, default=20)
    ck_save.add_argument("--every", type=int, default=8,
                         help="sync quanta per checkpoint slice")
    ck_save.add_argument("--out-dir", required=True,
                         help="directory for checkpoint_*.json")
    ck_save.set_defaults(func=_cmd_checkpoint_save)
    ck_restore = checkpoint_cmds.add_parser(
        "restore", help="rebuild a run from a checkpoint and continue")
    ck_restore.add_argument("path", help="checkpoint file")
    ck_restore.add_argument("--sim-us", type=int, default=0,
                            help="continue the run to this horizon "
                                 "(0: just restore and verify)")
    ck_restore.add_argument("--out-dir", default=None,
                            help="write further checkpoints here")
    ck_restore.set_defaults(func=_cmd_checkpoint_restore)
    ck_verify = checkpoint_cmds.add_parser(
        "verify", help="replay-verify a checkpoint file (exit 2 when "
                       "missing or corrupt)")
    ck_verify.add_argument("path", help="checkpoint file")
    ck_verify.set_defaults(func=_cmd_checkpoint_verify)

    trace = commands.add_parser(
        "trace", help="traced quickstart-scale run + scheme profile")
    _add_scenario_flags(trace, "all", 120)
    trace.add_argument("--format", default="text",
                       choices=["text", "chrome", "json"],
                       help="text timeline, Chrome trace-event JSON, "
                            "or canonical JSON lines")
    trace.add_argument("--limit", type=int, default=40,
                       help="max timeline rows printed (text format)")
    trace.add_argument("-o", "--output", default=None,
                       help="write the trace to a file (per scheme)")
    trace.set_defaults(func=_cmd_trace)

    spans = commands.add_parser(
        "spans", help="causal transaction spans from a traced run")
    _add_scenario_flags(spans, "all", 120)
    spans.add_argument("--format", default="table",
                       choices=["table", "json", "perfetto"],
                       help="plain-text table, canonical JSON lines, or "
                            "Perfetto/Chrome async-slice JSON")
    spans.add_argument("--limit", type=int, default=40,
                       help="max table rows printed (table format)")
    spans.add_argument("-o", "--output", default=None,
                       help="write the spans to a file (per scheme)")
    spans.set_defaults(func=_cmd_spans)

    health = commands.add_parser(
        "health", help="rule-based co-simulation health analysis "
                       "(exit 1 on critical findings)")
    health.add_argument("--records", default=None,
                        help="analyze a directory of BENCH_*.json "
                             "records instead of running a scenario")
    health.add_argument("--baseline-dir", default=None,
                        help="baseline records for latency-regression "
                             "checks (--records mode)")
    health.add_argument("--checkpoint-dir", default=None,
                        help="report crash-recovery events from a "
                             "checkpoint directory's recovery.json")
    health.add_argument("--chaos", default=None,
                        choices=["storm", "stall", "thrash"],
                        help="run a seeded fault scenario the analyzer "
                             "must flag (storm: retransmission storm; "
                             "stall: stalled read + watchdog "
                             "quarantine; thrash: DMI invalidation "
                             "storm)")
    _add_scenario_flags(health, "all", 120)
    health.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="render the report as text or as the "
                             "machine-readable JSON document (exit "
                             "codes are identical)")
    health.set_defaults(func=_cmd_health)

    metrics = commands.add_parser(
        "metrics", help="telemetry time-series export, at most one "
                        "point per 10 us grid period "
                        "(docs/observability.md)")
    _add_scenario_flags(metrics, "gdb-kernel", 120)
    metrics.add_argument("--format", default="ndjson",
                         choices=["ndjson", "json", "prom"],
                         help="one canonical JSON object per point, "
                              "the whole-series canonical JSON image, "
                              "or the newest point in Prometheus text "
                              "exposition format")
    metrics.add_argument("-o", "--output", default=None,
                         help="write the export to a file")
    metrics.set_defaults(func=_cmd_metrics)

    top = commands.add_parser(
        "top", help="live top-style telemetry counter view "
                    "(docs/observability.md)")
    _add_scenario_flags(top, "gdb-kernel", 240)
    top.add_argument("--window", type=int, default=8,
                     help="points in the per-grid-period rate window")
    top.add_argument("--refresh", type=int, default=6,
                     help="live redraws (the run advances in this many "
                          "simulated-time slices)")
    top.add_argument("--once", action="store_true",
                     help="print one final snapshot and exit (CI smoke)")
    top.set_defaults(func=_cmd_top)

    bench = commands.add_parser(
        "bench", help="write machine-readable BENCH_*.json records")
    _add_scenario_flags(bench, "all", 120)
    bench.add_argument("--out-dir", default=None,
                       help="output directory (default: "
                            "$REPRO_BENCH_DIR or benchmarks/out)")
    bench.add_argument("--parallel", default=None,
                       choices=["off", "thread", "process"],
                       help="parallel ISS dispatch backend (default: "
                            "$REPRO_PARALLEL or off); counters stay "
                            "identical to serial, wall gains a "
                            "'parallel' object")
    bench.add_argument("--workers", type=int, default=None,
                       help="parallel worker-pool width (default: "
                            "$REPRO_WORKERS or 2)")
    bench.add_argument("--dmi", action="store_true",
                       help="enable the zero-copy DMI binding tier "
                            "(docs/dmi.md); record names gain a _dmi "
                            "suffix")
    bench.add_argument("--tier", default=None,
                       choices=["interp", "blocks", "superblocks"],
                       help="ISS execution tier (default: $REPRO_TIER "
                            "or blocks); record names gain a _sb/"
                            "_interp suffix for the non-default tiers")
    bench.add_argument("--compare", action="store_true",
                       help="gate counters against committed baselines; "
                            "non-zero exit on regression")
    bench.add_argument("--baseline-dir", default="benchmarks/baselines",
                       help="directory holding baseline BENCH_*.json "
                            "records for --compare")
    bench.set_defaults(func=_cmd_bench)

    fuzz = commands.add_parser(
        "fuzz", help="seeded scenario fuzzing judged by the four-part "
                     "oracle (docs/fuzzing.md)")
    fuzz.add_argument("--seed", type=int, default=7,
                      help="campaign seed (same seed, same budget -> "
                           "same scenario sequence and verdicts)")
    fuzz.add_argument("--budget", type=int, default=20,
                      help="number of scenarios to sample and judge")
    fuzz.add_argument("--failures-dir", default=None,
                      help="write minimized failing scenarios here "
                           "(CI uploads these as artifacts)")
    fuzz.add_argument("--corpus-dir", default="tests/fixtures/scenarios",
                      help="scenario fixture directory (with "
                           "--write-corpus; also the --replay default "
                           "location)")
    fuzz.add_argument("--write-corpus", action="store_true",
                      help="save novel passing scenarios as fixtures "
                           "under --corpus-dir")
    fuzz.add_argument("--replay", default=None, metavar="PATH",
                      help="re-judge saved scenario fixture(s): a "
                           ".json file or a directory of them")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="skip greedy shrinking of failing scenarios")
    fuzz.add_argument("--no-checkpoint", action="store_true",
                      help="skip the checkpoint round-trip oracle "
                           "(faster smoke runs)")
    fuzz.set_defaults(func=_cmd_fuzz)

    report = commands.add_parser(
        "report", help="run every experiment, render a markdown report")
    report.add_argument("--full", action="store_true",
                        help="full-length runs (minutes)")
    report.add_argument("-o", "--output", default=None,
                        help="write to a file instead of stdout")
    report.set_defaults(func=_cmd_report)

    version = commands.add_parser("version", help="print the version")
    version.set_defaults(func=_cmd_version)
    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
