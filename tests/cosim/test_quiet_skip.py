"""Quiet-timestep fast-forward: skipped = materialised, exactly.

At ``sync_quantum`` > 1 most clock edges of a kernel-embedded scheme
only bank cycle budget.  The kernel skips runs of such edges
arithmetically (``Kernel._fast_forward``, docs/performance.md §3).  At
lock-step the Driver-Kernel scheme instead runs ahead over them: it
grants and samples each timestep in one loop and hands the kernel back
the first timestep that leaves a driver message to drain.  These tests
prove both leave every observable where materialising each edge would
have: the run's ``SystemStats``, ``CosimMetrics``, state image
(``capture_state``, including ``kernel.state_summary()``), telemetry
series and per-CPU instructions and cycles.

The materialised reference is the same run with
``ContextScheme.quiet_steps`` patched to 0.  The router configs mirror
the wall benchmark's ``fastpath``, ``mpsoc-crc`` and ``table1``
workloads.  The first two leave their dispatcher and tier unpinned, so
the ``REPRO_PARALLEL`` and ``REPRO_TIER`` sweeps of the suite run them
too; ``table1`` pins the serial dispatcher, because a pooled scheme
does not run ahead.
"""

import dataclasses
import math
import os

import pytest

from repro.cosim.binding import ClockBinding
from repro.cosim.checkpoint import capture_state
from repro.cosim.context import ContextScheme
from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.faults import FaultPlan
from repro.cosim.metrics import QUARANTINE_WATCHDOG
from repro.fuzz.corpus import corpus_paths, load_scenario
from repro.obs.tracer import Tracer
from repro.router.system import RouterConfig, RouterSystem
from repro.rtos.kernel import RtosKernel
from repro.sysc.clock import Clock
from repro.sysc.hooks import KernelHook
from repro.sysc.kernel import Kernel
from repro.sysc.simtime import NS, US
from repro.sysc.trace import VcdTrace

KERNEL_SCHEMES = ("gdb-kernel", "driver-kernel")
SEEDS = (42, 43, 7)

#: ``(config, simulated span)`` of each workload.
WORKLOADS = {
    "fastpath": (dict(inter_packet_delay=30 * US, sync_quantum=8,
                      dmi=True), 4_000 * US),
    "mpsoc-crc": (dict(num_cpus=4, producer_count=4, algorithm="crc32",
                       checksum_rounds=24, cpu_hz=1_000_000_000,
                       inter_packet_delay=100 * US, sync_quantum=32),
                  1_000 * US),
    "table1": (dict(inter_packet_delay=30 * US, parallel=None),
               2_000 * US),
}
#: The workloads whose schemes skip at ``sync_quantum`` > 1.
QUANTUM_WORKLOADS = ("fastpath", "mpsoc-crc")

#: The corpus fixtures that run Driver-Kernel at lock-step.
LOCKSTEP_DRIVER_FIXTURES = [
    path for path, config in (
        (path, load_scenario(path).config) for path in corpus_paths(
            os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                         "scenarios")))
    if config.scheme == "driver-kernel" and config.sync_quantum == 1]


# -- the kernel on its own ----------------------------------------------------

class Banker(KernelHook):
    """A hook whose every timestep is pure accounting, as a quantum
    scheme's is between syncs; *room* bounds each fast-forward."""

    skips_quiet = True

    def __init__(self, room):
        self.room = room
        self.advances = []
        self.polls = 0
        self.skipped = 0

    def on_time_advance(self, kernel):
        self.advances.append(kernel.now)

    def on_cycle_begin(self, kernel):
        self.polls += 1

    def quiet_steps(self, kernel):
        return self.room

    def skip_steps(self, kernel, times, sinks):
        self.advances.extend(times)
        self.polls += len(times)
        self.skipped += len(times)
        return len(times), False


def _clocked(room, build=None):
    """A kernel with a 10 ns clock and a :class:`Banker` of *room*;
    *build(kernel, clock, seen)* adds processes that log into *seen*."""
    kernel = Kernel("quiet")
    clock = Clock(10 * NS, "clk", kernel=kernel)
    hook = kernel.add_hook(Banker(room))
    seen = []
    if build is not None:
        build(kernel, clock, seen)
    return kernel, clock, hook, seen


def _image(kernel, clock, hook, seen):
    """Everything a skipped edge could leave behind."""
    edge = next(process for process in kernel.processes
                if process.name == "clk.gen")
    signal = clock.signal
    return dict(kernel=kernel.state_summary(), seen=seen,
                clock=(clock.posedge_count, edge.trigger_count,
                       edge._rising),
                signal=(signal._current, signal._next, signal.write_count),
                hook=(hook.advances, hook.polls))


def _both(span, build=None, room=5):
    """``(skipped, materialised)`` images of one run over *span*."""
    skipped = _clocked(room, build)
    skipped[0].run(span)
    reference = _clocked(0, build)
    reference[0].run(span)
    assert skipped[2].skipped > 0
    return _image(*skipped), _image(*reference)


def _sleeper(delays):
    """A thread waking after each of *delays*, logging time and level."""
    def build(kernel, clock, seen):
        def thread():
            for delay in delays:
                yield delay
                seen.append((kernel.now, clock.read(), clock.posedge_count))
        kernel.add_thread("sleeper", thread)
    return build


class TestKernelFastForward:
    def test_bare_clock(self):
        skipped, materialised = _both(1 * US + 3 * NS)
        assert skipped == materialised

    def test_stops_before_a_timed_entry(self):
        # Wake-ups between edges, on an edge, and two periods apart.
        build = _sleeper([73 * NS, 7 * NS, 50 * NS, 20 * NS, 333 * NS])
        skipped, materialised = _both(1 * US, build)
        assert skipped == materialised
        assert len(skipped["seen"]) == 5

    def test_run_slices_equal_one_run(self):
        build = _sleeper([95 * NS, 410 * NS])
        slices = (33 * NS, 40 * NS, 500 * NS, 427 * NS)

        def run(room, spans):
            parts = _clocked(room, build)
            for span in spans:
                parts[0].run(span)
            assert parts[0].now == 1 * US
            return _image(*parts)

        sliced = run(4, slices)
        assert sliced == run(0, slices)
        whole = run(4, [1 * US])
        # Each run() opens with a delta cycle (and a poll) of its own;
        # nothing else depends on where the horizons fell.
        extra = len(slices) - 1
        for image, offset in ((sliced, extra), (whole, 0)):
            image["kernel"]["delta_count"] -= offset
            advances, polls = image["hook"]
            image["hook"] = (advances, polls - offset)
        assert sliced == whole

    def test_waiter_added_mid_run(self):
        def build(kernel, clock, seen):
            def thread():
                yield 200 * NS
                for _ in range(3):
                    yield clock.posedge
                    seen.append(("pos", kernel.now))
                yield 300 * NS
                yield clock.negedge
                seen.append(("neg", kernel.now))
                yield clock.signal.changed
                seen.append(("level", kernel.now, clock.read()))
            kernel.add_thread("waiter", thread)
        skipped, materialised = _both(1 * US, build)
        assert skipped == materialised
        assert [entry[0] for entry in skipped["seen"]] == [
            "pos", "pos", "pos", "neg", "level"]

    @pytest.mark.parametrize("variant", [
        "tracer", "max_deltas", "vcd_sink", "no_skip_hook", "no_hook"])
    def test_declines(self, variant):
        kernel = Kernel("quiet")
        Clock(10 * NS, "clk", kernel=kernel)
        hook = Banker(5)
        if variant == "no_skip_hook":
            hook.skips_quiet = False
        if variant != "no_hook":
            kernel.add_hook(hook)
        if variant == "tracer":
            kernel.attach_tracer(Tracer())
        if variant == "vcd_sink":
            kernel.add_trace(VcdTrace())
        if variant == "max_deltas":
            kernel.run(1 * US, max_deltas=10_000)
        else:
            kernel.run(1 * US)
        assert hook.skipped == 0
        assert kernel.timestep_count == 200


class Runner(KernelHook):
    """A hook that works at every timestep, as a lock-step scheme does.

    Its time hook leaves work for the cycle begin at the *busy* times
    (a driver message, in a scheme); with *skips*, it runs ahead over
    the other timesteps the way ``DriverKernelScheme._run_ahead`` does.
    """

    runs_ahead = True

    def __init__(self, busy, skips=True, fail_at=None):
        self.skips_quiet = skips
        self.busy = set(busy)
        self.fail_at = fail_at
        # Every grant and every drain, with the time it saw.
        self.advances = []
        self.pending = False
        self.polls = 0
        self.skipped = 0

    def on_time_advance(self, kernel):
        if kernel.now == self.fail_at:
            raise RuntimeError("grant failed")
        self.advances.append(("advance", kernel.now, kernel.timestep_count))
        self.pending = kernel.now in self.busy

    def on_cycle_begin(self, kernel):
        self.polls += 1
        if self.pending:
            self.pending = False
            self.advances.append(("drain", kernel.now, kernel.delta_count))

    def quiet_steps(self, kernel):
        return 0 if self.pending else math.inf

    def skip_steps(self, kernel, times, sinks):
        steps = 0
        for now in times:
            kernel.now = now
            kernel.timestep_count += 1
            self.on_time_advance(kernel)
            for sink in sinks:
                sink.sample(kernel)
            if self.pending:
                return steps, True
            self.polls += 1
            self.skipped += 1
            steps += 1
        return steps, False


class Sampler:
    """A grid-gated trace sink, due at every timestep, that logs every
    sample."""

    due = 0

    def __init__(self):
        self.samples = []

    def sample(self, kernel):
        self.samples.append((kernel.now, kernel.timestep_count))


class TestKernelRunAhead:
    BUSY = (20 * NS, 25 * NS, 95 * NS, 100 * NS, 105 * NS, 410 * NS)

    def _run(self, skips, spans, build=None, fail_at=None):
        kernel = Kernel("ahead")
        clock = Clock(10 * NS, "clk", kernel=kernel)
        hook = kernel.add_hook(Runner(self.BUSY, skips, fail_at))
        sink = kernel.add_trace(Sampler())
        seen = []
        if build is not None:
            build(kernel, clock, seen)
        for span in spans:
            kernel.run(span)
        image = _image(kernel, clock, hook, seen)
        image["samples"] = sink.samples
        return image, hook

    def test_entered_timesteps_drain_at_their_cycle_begin(self):
        ahead, hook = self._run(True, [1 * US])
        reference, __ = self._run(False, [1 * US])
        assert hook.skipped > 0
        assert ahead == reference
        drains = [entry[1] for entry in ahead["hook"][0]
                  if entry[0] == "drain"]
        assert drains == list(self.BUSY)

    def test_stops_before_timed_entries_and_at_horizons(self):
        build = _sleeper([73 * NS, 7 * NS, 50 * NS, 20 * NS, 333 * NS])
        spans = (33 * NS, 40 * NS, 500 * NS, 427 * NS)
        ahead, hook = self._run(True, spans, build)
        assert hook.skipped > 0
        assert ahead == self._run(False, spans, build)[0]

    def test_a_failing_grant_leaves_its_timestep_entered(self):
        images = []
        for skips in (True, False):
            kernel = Kernel("ahead")
            Clock(10 * NS, "clk", kernel=kernel)
            kernel.add_hook(Runner(self.BUSY, skips, fail_at=305 * NS))
            with pytest.raises(RuntimeError):
                kernel.run(1 * US)
            images.append(kernel.state_summary())
        assert images[0] == images[1]
        assert images[0]["now"] == 305 * NS

    def test_runs_ahead_only_alone(self):
        kernel = Kernel("ahead")
        Clock(10 * NS, "clk", kernel=kernel)
        hook = kernel.add_hook(Runner(self.BUSY))
        kernel.add_hook(Banker(5))
        kernel.run(1 * US)
        assert hook.skipped == 0
        assert kernel.timestep_count == 200


def test_accumulate_many_matches_accumulate():
    # An awkward frequency and uneven steps keep the float carry busy.
    times = [18, 54, 97, 5_000_000, 12_345_678, 333_333_333]
    one_by_one = ClockBinding(33_333_333, 1, quantum=64)
    banked = ClockBinding(33_333_333, 1, quantum=64)
    one_by_one.accumulate(3)
    banked.accumulate(3)
    for now in times:
        one_by_one.accumulate(now)
    assert banked.accumulate_many(times) == one_by_one.pending_budget
    assert vars(banked) == vars(one_by_one)


# -- the kernel-embedded schemes ----------------------------------------------

def _system(workload, scheme, seed=42, **overrides):
    config, __ = WORKLOADS[workload]
    return RouterSystem(RouterConfig(scheme=scheme, seed=seed,
                                     **dict(config, **overrides)))


def _observe(system):
    return dict(stats=dataclasses.asdict(system.stats()),
                metrics=system.metrics.as_dict(),
                state=capture_state(system),
                series=system.telemetry.series.dump(),
                cpus=[[cpu.instructions, cpu.cycles]
                      for cpu in system.cpus])


@pytest.fixture
def skip_counter(monkeypatch):
    """Counts the timesteps ContextScheme.skip_steps covers and enters,
    and the telemetry points it records in place."""
    counts = {"steps": 0, "entered": 0, "held": 0, "sampled": 0}
    skip_steps = ContextScheme.skip_steps

    def counting(self, kernel, times, sinks):
        before = sum(len(sink.series) for sink in sinks)
        steps, entered = skip_steps(self, kernel, times, sinks)
        counts["steps"] += steps
        counts["entered"] += entered
        counts["sampled"] += (sum(len(sink.series) for sink in sinks)
                              - before)
        counts["held"] += sum(
            1 for context in self.contexts
            if not context.quarantined
            and getattr(getattr(context, "driver", None), "held_at", None)
            is not None)
        return steps, entered

    monkeypatch.setattr(ContextScheme, "skip_steps", counting)
    return counts


def _observe_both(monkeypatch, build, run):
    """``(skipped, materialised)`` observations of ``run(build())``."""
    observed = []
    for materialise in (False, True):
        with monkeypatch.context() as patch:
            if materialise:
                patch.setattr(ContextScheme, "quiet_steps",
                              lambda self, kernel: 0)
            system = build()
            try:
                run(system)
                observed.append(_observe(system))
            finally:
                system.close()
    return observed


def _run_both(monkeypatch, workload, scheme, seed=42, between=None,
              spans=None, **overrides):
    """``(skipped, materialised)`` observations of one workload cell.

    *between(system)*, if given, runs after the first half of the span
    in both runs; *spans*, if given, replace the span by these runs.
    """
    __, span = WORKLOADS[workload]
    if spans is None:
        spans = [span] if between is None else [span // 2,
                                                span - span // 2]

    def run(system):
        for index, part in enumerate(spans):
            if index and between is not None:
                between(system)
            system.run(part)

    return _observe_both(
        monkeypatch, lambda: _system(workload, scheme, seed, **overrides),
        run)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
@pytest.mark.parametrize("workload", QUANTUM_WORKLOADS)
def test_skip_equals_materialised(monkeypatch, skip_counter, workload,
                                  scheme, seed):
    skipped, materialised = _run_both(monkeypatch, workload, scheme, seed)
    assert skip_counter["steps"] > 0
    # Grid boundaries fall inside skipped runs: sampled in place.
    assert skip_counter["sampled"] > 0
    if scheme == "gdb-kernel":
        # Idle GDB-Kernel CPUs sit held on an iss_out port without
        # fresh data; each poll drives the hold, and the skip accounts
        # for it.
        assert skip_counter["held"] > 0
    assert skipped == materialised


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
@pytest.mark.parametrize("transport", ["reliable", "faulty"])
def test_reliable_and_faulty_transports_materialise(monkeypatch,
                                                    skip_counter, scheme,
                                                    transport):
    # Their polls draw from seeded RNG streams: never skipped.
    overrides = dict(reliability=True)
    if transport == "faulty":
        overrides["fault_plan"] = FaultPlan(seed=5, drop=0.05,
                                            corrupt=0.02)
    skipped, materialised = _run_both(monkeypatch, "fastpath", scheme,
                                      **overrides)
    assert skip_counter["steps"] == 0
    assert skipped == materialised


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_quarantined_and_finished_contexts(monkeypatch, skip_counter,
                                           scheme):
    detached_at = []

    def detach(system):
        contexts = system.scheme.contexts
        system.scheme._quarantine(contexts[1], QUARANTINE_WATCHDOG, "test")
        if scheme == "gdb-kernel":
            contexts[2].driver.finished = True
        else:
            contexts[2].cpu.halted = True
        detached_at.append(skip_counter["steps"])

    skipped, materialised = _run_both(monkeypatch, "mpsoc-crc", scheme,
                                      between=detach)
    # The skipped run comes first; the materialised one skips nothing.
    assert skip_counter["steps"] > detached_at[0]
    assert skipped == materialised


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_progress_between_runs_is_sampled(monkeypatch, skip_counter, scheme):
    # A flush between two kernel runs moves sync progress outside any
    # timestep: the telemetry sample of the next timestep records it,
    # so that timestep must not be skipped.
    def flush(system):
        for __ in range(64):
            system.kernel.run(1 * US)
            if any(context.binding.pending_steps
                   for context in system.scheme.contexts):
                break
        else:
            raise AssertionError("no budget banked")
        system.scheme.flush_pending()

    skipped, materialised = _run_both(monkeypatch, "fastpath", scheme,
                                      between=flush)
    assert skip_counter["steps"] > 0
    assert skipped == materialised


# -- the Driver-Kernel run-ahead at lock-step ---------------------------------

@pytest.fixture
def run_ahead_log(monkeypatch):
    """Logs each run-ahead: where it entered, and what it saw happen
    while running (watchdog quarantines)."""
    log = {"entered_at": [], "inside": False, "quarantines": 0}
    run_ahead = DriverKernelScheme._run_ahead
    quarantine = ContextScheme._quarantine

    def logging(self, kernel, times, sinks):
        log["inside"] = True
        try:
            steps, entered = run_ahead(self, kernel, times, sinks)
        finally:
            log["inside"] = False
        if entered:
            log["entered_at"].append(kernel.now)
        return steps, entered

    def counting(self, context, reason, detail=None):
        log["quarantines"] += log["inside"]
        return quarantine(self, context, reason, detail)

    monkeypatch.setattr(DriverKernelScheme, "_run_ahead", logging)
    monkeypatch.setattr(ContextScheme, "_quarantine", counting)
    return log


@pytest.mark.parametrize("seed", SEEDS)
def test_run_ahead_equals_materialised(monkeypatch, skip_counter, seed):
    ahead, materialised = _run_both(monkeypatch, "table1", "driver-kernel",
                                    seed)
    assert skip_counter["steps"] > 0 and skip_counter["entered"] > 0
    assert skip_counter["sampled"] > 0
    assert ahead == materialised


@pytest.mark.parametrize(
    "path", LOCKSTEP_DRIVER_FIXTURES,
    ids=[os.path.splitext(os.path.basename(path))[0]
         for path in LOCKSTEP_DRIVER_FIXTURES])
def test_lockstep_driver_fixtures(monkeypatch, skip_counter, path):
    scenario = load_scenario(path)
    config = scenario.config
    ahead, materialised = _observe_both(
        monkeypatch, lambda: RouterSystem(config),
        lambda system: system.run(scenario.sim_us * US))
    # Reliable and fault-injected sockets draw from RNG streams at
    # every poll: those runs materialise every timestep.
    plain = config.fault_plan is None and not config.reliability
    assert (skip_counter["steps"] > 0) == plain
    assert ahead == materialised


def test_entered_timestep_drains_its_message(monkeypatch, skip_counter,
                                              run_ahead_log):
    # A covered timestep whose grant sends a driver message is entered,
    # and on_cycle_begin drains the message at that timestep, in the
    # same delta cycle as when every timestep is materialised.
    drains = []
    handle = DriverKernelScheme._handle_message

    def logging(self, context, message):
        kernel = self.kernel
        drains[-1].append((kernel.now, kernel.timestep_count,
                           kernel.delta_count, message.type.name,
                           message.sequence))
        return handle(self, context, message)

    monkeypatch.setattr(DriverKernelScheme, "_handle_message", logging)

    def build():
        drains.append([])
        return _system("table1", "driver-kernel")

    __, span = WORKLOADS["table1"]
    ahead, materialised = _observe_both(monkeypatch, build,
                                        lambda system: system.run(span))
    assert ahead == materialised
    assert drains[0] == drains[1]
    entered = run_ahead_log["entered_at"]
    assert len(entered) == skip_counter["entered"] > 0
    assert set(entered) <= {drain[0] for drain in drains[0]}


def test_watchdog_quarantine_mid_run(monkeypatch, skip_counter,
                                     run_ahead_log):
    ahead, materialised = _run_both(monkeypatch, "table1", "driver-kernel",
                                    watchdog_ticks=4)
    assert run_ahead_log["quarantines"] > 0
    assert ahead["stats"]["metrics"]["contexts_quarantined"] == 1
    assert ahead == materialised


def test_guest_halting_mid_run(monkeypatch, skip_counter, run_ahead_log):
    advance = RtosKernel.advance
    halted_inside = []

    def halting(self, budget):
        self.advances = getattr(self, "advances", 0) + 1
        if self.advances == 1_501:
            self.cpu.halted = True
            halted_inside.append(run_ahead_log["inside"])
        return advance(self, budget)

    monkeypatch.setattr(RtosKernel, "advance", halting)
    ahead, materialised = _run_both(monkeypatch, "table1", "driver-kernel")
    assert halted_inside == [True, False]
    assert ahead["state"] == materialised["state"]
    assert ahead == materialised


def test_run_ahead_across_run_horizons(monkeypatch, skip_counter):
    # Horizons between two edges, one femtosecond past one, and on one.
    spans = [97 * US + 250 * NS, 1 * US + 750 * NS, 400 * US,
             501 * US + 1, 250 * NS]
    ahead, materialised = _run_both(monkeypatch, "table1", "driver-kernel",
                                    spans=spans)
    assert skip_counter["steps"] > 0
    assert ahead == materialised


@pytest.mark.parametrize("variant", [
    "traced", "pooled", "max_deltas", "gdb-kernel"])
def test_lockstep_runs_that_materialise(skip_counter, variant):
    scheme = "gdb-kernel" if variant == "gdb-kernel" else "driver-kernel"
    overrides = {}
    if variant == "traced":
        overrides["tracer"] = Tracer()
    if variant == "pooled":
        overrides["parallel"] = "thread"
    system = _system("table1", scheme, **overrides)
    try:
        if variant == "max_deltas":
            system.kernel.run(200 * US, max_deltas=10 ** 9)
        else:
            system.run(200 * US)
    finally:
        system.close()
    assert skip_counter == {"steps": 0, "entered": 0, "held": 0,
                            "sampled": 0}
    assert system.kernel.timestep_count == 400


# -- what an idle context is --------------------------------------------------

def _quiet_system(workload, scheme, ready=None):
    """A system run until the scheme has room to skip (and *ready*)."""
    system = _system(workload, scheme)
    for __ in range(2_000):
        system.kernel.run(1 * US)
        if (system.scheme.quiet_steps(system.kernel) > 0
                and (ready is None or ready(system))):
            return system
    system.close()
    raise AssertionError("no quiet timestep found")


def test_driver_kernel_declines_pending_delivery():
    system = _quiet_system("mpsoc-crc", "driver-kernel")
    scheme, kernel = system.scheme, system.kernel
    context = scheme.contexts[0]
    try:
        scheme.raise_interrupt(context, 3)
        assert scheme.quiet_steps(kernel) == 0
        scheme._pending_interrupts.clear()

        context.irq_inflight = True
        assert scheme.quiet_steps(kernel) == 0
        context.irq_inflight = False

        context.guest_data_endpoint.send(b"in flight")
        assert scheme.quiet_steps(kernel) == 0
        context.data_endpoint.recv()

        # A quarantined context is never polled: it cannot decline.
        context.guest_data_endpoint.send(b"in flight")
        context.quarantined = True
        assert scheme.quiet_steps(kernel) > 0
    finally:
        system.close()


def test_gdb_kernel_declines_a_hold_that_can_release():
    def held(system):
        return any(context.driver.held_at is not None
                   for context in system.scheme.contexts)

    system = _quiet_system("mpsoc-crc", "gdb-kernel", ready=held)
    scheme, kernel = system.scheme, system.kernel
    try:
        context = next(context for context in scheme.contexts
                       if context.driver.held_at is not None)
        driver = context.driver
        port = next(driver.ports[binding.variable] for binding
                    in driver.pragma_map.bindings_at(driver.held_at)
                    if binding.kind == "iss_out")
        # Hardware posts the data the guest waits for; it commits at
        # the update phase, and the hold can release at the next poll.
        port.post(0)
        kernel._update()
        assert port.fresh
        assert scheme.quiet_steps(kernel) == 0
    finally:
        system.close()
