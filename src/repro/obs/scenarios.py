"""Small deterministic traced scenarios shared by tests and the CLI.

One scenario shape — the paper's router case study at quickstart scale
(two producers, a couple of packets each) — runnable under any of the
three co-simulation schemes with tracing enabled, optionally over a
faulty reliable transport.  The golden-trace regression tests, the
determinism property tests and the ``repro trace`` / ``repro bench``
CLI commands all build their runs here, so they observe the exact same
event streams.
"""

from dataclasses import dataclass

from repro.iss.profile import side_exit_profile
from repro.obs.bench import BenchRun
from repro.obs.hist import (build_histograms, latency_counters,
                            latency_summaries)
from repro.obs.spans import spans_from_tracer
from repro.obs.tracer import Tracer
from repro.router.system import RouterConfig, build_system
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


def run_traced_scenario(scheme, sim_us=120, seed=7, max_packets=2,
                        producer_count=2, inter_packet_delay_us=20,
                        reliability=None, fault_plan=None,
                        watchdog_ticks=None, tracer=None, capacity=200_000,
                        sync_quantum=1, num_cpus=None, parallel=None,
                        workers=None, **config_overrides):
    """Run the quickstart-scale router scenario under *scheme*, traced.

    Everything is seeded and simulated-time driven, so two calls with
    the same arguments produce byte-identical traces (the determinism
    tests rely on this) — including under the parallel dispatcher,
    whose quantum-boundary commit keeps traces and metrics identical to
    serial.  Returns a :class:`TracedRun`.  At ``sync_quantum`` > 1 the
    scheme batches ISS synchronisations (see ``docs/performance.md``);
    the default is exact lock-step.  *parallel*/*workers* of ``None``
    defer to the ``REPRO_PARALLEL``/``REPRO_WORKERS`` environment
    (serial when unset); pass ``False`` to force serial.  Further
    keyword arguments (``num_ports``, ``stages``, ``traffic``, …) pass
    through to :class:`~repro.router.system.RouterConfig` — the fuzzer
    sweeps topology and traffic this way (docs/fuzzing.md).
    """
    if tracer is None:
        tracer = Tracer(capacity=capacity)
    extra = dict(config_overrides)
    if num_cpus is not None:
        extra["num_cpus"] = num_cpus
    if parallel is not None:
        extra["parallel"] = parallel or None
    if workers is not None:
        extra["workers"] = workers
    config = RouterConfig(
        scheme=scheme,
        seed=seed,
        max_packets=max_packets,
        producer_count=producer_count,
        inter_packet_delay=inter_packet_delay_us * US,
        reliability=reliability,
        fault_plan=fault_plan,
        watchdog_ticks=watchdog_ticks,
        tracer=tracer,
        sync_quantum=sync_quantum,
        **extra,
    )
    system = build_system(config)
    system.run(sim_us * US)
    return TracedRun(scheme=scheme, system=system, tracer=tracer,
                     stats=system.stats())


def bench_scenario(scheme, sim_us=120, seed=7, name=None, **overrides):
    """Run a traced scenario and fold it into a :class:`BenchRun`.

    The returned run's ``counters`` are fully deterministic; only its
    ``wall`` object depends on the host.
    """
    run = BenchRun(name=name or ("cli_%s" % scheme)).start()
    traced = run_traced_scenario(scheme, sim_us=sim_us, seed=seed, **overrides)
    run.stop()
    run.config.update({"scheme": scheme, "sim_us": sim_us, "seed": seed,
                       "sync_quantum": overrides.get("sync_quantum", 1),
                       "tier": traced.system.config.tier})
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


def chaos_health_scenario(kind, scheme=None, tracer=None):
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
    Returns a :class:`TracedRun`.
    """
    from repro.cosim.faults import FaultPlan
    if kind == "thrash":
        from repro.iss.breakpoints import WatchKind
        if tracer is None:
            tracer = Tracer(capacity=200_000)
        config = RouterConfig(
            scheme=scheme or "gdb-kernel", seed=7, max_packets=6,
            producer_count=2, inter_packet_delay=20 * US,
            sync_quantum=8, dmi=True, tracer=tracer, parallel=False)
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
                         tracer=tracer, stats=system.stats())
    if kind == "storm":
        plan = FaultPlan(script={index: "drop"
                                 for index in range(8, 200, 3)})
        return run_traced_scenario(
            scheme or "gdb-kernel", sim_us=200, seed=7, max_packets=1,
            reliability=True, fault_plan=plan, tracer=tracer,
            parallel=False)
    if kind == "stall":
        plan = FaultPlan(script={index: "drop"
                                 for index in range(8, 4096)})
        return run_traced_scenario(
            scheme or "driver-kernel", sim_us=400, seed=7, max_packets=6,
            fault_plan=plan, watchdog_ticks=60, tracer=tracer,
            parallel=False)
    raise ValueError("unknown chaos kind %r (expected one of %s)"
                     % (kind, ", ".join(CHAOS_KINDS)))
