"""Small deterministic traced scenarios shared by tests and the CLI.

One scenario shape — the paper's router case study at quickstart scale
(two producers, a couple of packets each) — runnable under any of the
three co-simulation schemes with tracing enabled, optionally over a
faulty reliable transport.  A run is one ``RouterConfig`` plus its
horizon in simulated microseconds.  The golden-trace regression tests,
the determinism property tests and the scenario CLI commands
(``trace``, ``spans``, ``health``, ``metrics``, ``top``, ``bench``) all
build their runs here, so they observe the exact same event streams.
"""

from dataclasses import dataclass, replace

from repro.iss.profile import side_exit_profile
from repro.obs.bench import BenchRun
from repro.obs.hist import (build_histograms, latency_counters,
                            latency_summaries)
from repro.obs.spans import spans_from_tracer
from repro.obs.tracer import Tracer
from repro.router.system import RouterConfig, build_system, config_to_dict
from repro.sysc.simtime import US

COSIM_SCHEMES = ("gdb-wrapper", "gdb-kernel", "driver-kernel")

#: Deterministic fault scenarios for ``repro health`` and its tests:
#: ``storm`` drops every third frame from index 8 on under the reliable
#: transport (recovered, but far past the storm threshold); ``stall``
#: drops everything from index 8 on an *unreliable* link, so the guest
#: blocks on a READ_REPLY that never comes and the watchdog fires;
#: ``thrash`` toggles a watchpoint against a DMI-tier run so the same
#: guest pages collect grant invalidations past the dmi-storm
#: threshold (docs/dmi.md).
CHAOS_KINDS = ("storm", "stall", "thrash")


@dataclass
class TracedRun:
    """A finished traced scenario: the system, its tracer and stats."""

    scheme: str
    system: object
    tracer: Tracer
    stats: object


def quickstart_config(scheme, **fields):
    """The quickstart-scale router scenario under *scheme*.

    Seed 7, two producers of two packets each, 20 us apart.  *fields*
    override any :class:`~repro.router.system.RouterConfig` field
    (``sync_quantum``, ``num_ports``, ``traffic``, ``tracer``, …).
    Fields left out keep their defaults, so ``parallel``/``workers``/
    ``tier`` follow the ``REPRO_PARALLEL``/``REPRO_WORKERS``/
    ``REPRO_TIER`` environment (serial, two workers, blocks when unset).
    """
    fields = {"seed": 7, "max_packets": 2, "producer_count": 2,
              "inter_packet_delay": 20 * US, **fields}
    return RouterConfig(scheme=scheme, **fields)


def _traced(config):
    """*config*, with a fresh 200 000-event tracer if it has none."""
    if config.tracer is None:
        config = replace(config, tracer=Tracer(capacity=200_000))
    return config


def run_traced_scenario(config, sim_us=120):
    """Run *config* for *sim_us* simulated microseconds, traced.

    A config without a tracer gets a fresh 200 000-event
    :class:`~repro.obs.tracer.Tracer`.  Everything is seeded and
    simulated-time driven, so two calls with equal configs produce
    byte-identical traces (the determinism tests rely on this) —
    including under the parallel dispatcher, whose quantum-boundary
    commit keeps traces and metrics identical to serial.  Returns a
    :class:`TracedRun`.
    """
    config = _traced(config)
    system = build_system(config)
    system.run(sim_us * US)
    return TracedRun(scheme=config.scheme, system=system,
                     tracer=config.tracer, stats=system.stats())


def bench_scenario(config, sim_us=120, name=None):
    """Run *config* traced and fold it into a :class:`BenchRun`.

    The returned run's ``counters`` are fully deterministic; only its
    ``wall`` object depends on the host.  Its ``config`` echoes
    :func:`~repro.router.system.config_to_dict` plus ``sim_us``.
    """
    run = BenchRun(name=name or ("cli_%s" % config.scheme)).start()
    traced = run_traced_scenario(config, sim_us=sim_us)
    run.stop()
    run.config.update(config_to_dict(config), sim_us=sim_us)
    run.record_metrics(traced.system.metrics)
    # Span latencies: deterministic integers in simulated femtoseconds,
    # derived from the trace after the run (the overhead guard keeps
    # them out of the hot path).  The summaries also land on the
    # metrics bundle for the profile view.
    histograms = build_histograms(spans_from_tracer(traced.tracer))
    traced.system.metrics.attach_latency(latency_summaries(histograms))
    run.record(**latency_counters(histograms))
    run.record(**{"trace.dropped": traced.tracer.dropped})
    run.record(
        trace_events=len(traced.tracer),
        generated=traced.stats.generated,
        forwarded=traced.stats.forwarded,
        received=traced.stats.received,
        simulated_fs=traced.system.kernel.now,
        timesteps=traced.system.kernel.timestep_count,
        deltas=traced.system.kernel.delta_count,
        iss_instructions=sum(cpu.instructions
                             for cpu in traced.system.cpus),
    )
    # Execution profile: the top block starts by entry count, per
    # context.  Deterministic (the profiler replays identically across
    # serial/parallel runs) but informative-only — it lives in the
    # record's ``profile`` section, outside the gated counters.
    run.profile["hot_blocks"] = {
        cpu.name: [[pc, count] for pc, count
                   in cpu.block_profiler.hot_blocks()]
        for cpu in traced.system.cpus}
    # Superblock side-exit hot spots: where the profiled traces bail
    # back to the block tier.  Deterministic, informative-only.
    run.profile["side_exits"] = side_exit_profile(traced.system.cpus)
    # Host-dependent dispatcher figures (pool utilization, commit
    # stalls) belong to the wall object, never to the deterministic
    # counters the regression gate compares.
    parallel_stats = traced.system.parallel_stats(run.wall_seconds)
    if parallel_stats is not None:
        run.wall_extra["parallel"] = parallel_stats
    traced.system.close()
    return traced, run


def chaos_health_scenario(kind):
    """One seeded fault scenario the health analyzer must flag.

    ``storm``: the reliable transport over a link that drops every
    third frame from index 8 — the run completes (every loss is
    recovered) but leaves a retransmission count far past the storm
    threshold.  ``stall``: an *unreliable* Driver-Kernel link that
    swallows everything from frame 8, so a guest blocks forever on its
    READ_REPLY, its driver round-trip span never closes, and the
    watchdog quarantines the context.  ``thrash``: a DMI-tier run
    whose CPU has a data watchpoint armed and disarmed on a fixed
    simulated cadence — every disarmed stretch re-acquires the grants
    the armed stretch killed, so one page's invalidation count sails
    past the dmi-storm threshold without the table ever degrading.
    Each kind fixes its own scheme and run: its fault shows only
    there.  Returns a :class:`TracedRun`.
    """
    from repro.cosim.faults import FaultPlan
    if kind == "thrash":
        from repro.iss.breakpoints import WatchKind
        config = _traced(quickstart_config(
            "gdb-kernel", max_packets=6, sync_quantum=8, dmi=True,
            parallel=False))
        system = build_system(config)
        # Armed at an address the guest never touches: the watchpoint
        # never *fires*, but its mere existence voids every grant at
        # the next acquire (transactional precision would be owed if
        # it could hit), and removal lets the windows come back.
        breakpoints = system.cpus[0].breakpoints
        for slice_index in range(16):
            system.run(30 * US)
            if slice_index % 2 == 0:
                breakpoints.add_watch(0x0FFFFFF0, kind=WatchKind.READ)
            else:
                breakpoints.remove_watch(0x0FFFFFF0)
        return TracedRun(scheme=config.scheme, system=system,
                         tracer=config.tracer, stats=system.stats())
    if kind == "storm":
        plan = FaultPlan(script={index: "drop"
                                 for index in range(8, 200, 3)})
        return run_traced_scenario(quickstart_config(
            "gdb-kernel", max_packets=1, reliability=True,
            fault_plan=plan, parallel=False), sim_us=200)
    if kind == "stall":
        plan = FaultPlan(script={index: "drop"
                                 for index in range(8, 4096)})
        return run_traced_scenario(quickstart_config(
            "driver-kernel", max_packets=6, fault_plan=plan,
            watchdog_ticks=60, parallel=False), sim_us=400)
    raise ValueError("unknown chaos kind %r (expected one of %s)"
                     % (kind, ", ".join(CHAOS_KINDS)))
