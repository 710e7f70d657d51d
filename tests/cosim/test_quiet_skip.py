"""Quiet-timestep fast-forward: skipped = materialised, exactly.

At ``sync_quantum`` > 1 most clock edges of a kernel-embedded scheme
only bank cycle budget.  The kernel skips runs of such edges
arithmetically (``Kernel._fast_forward``, docs/performance.md §3); these
tests prove the skip leaves every observable where materialising each
edge would have: the run's ``SystemStats``, ``CosimMetrics``, state
image (``capture_state``, including ``kernel.state_summary()``),
telemetry series and per-CPU instructions and cycles.

The materialised reference is the same run with
``ContextScheme.quiet_steps`` patched to 0.  The router configs mirror
the wall benchmark's ``fastpath`` and ``mpsoc-crc`` workloads, minus
their pinned dispatcher and tier, so the ``REPRO_PARALLEL`` and
``REPRO_TIER`` sweeps of the suite run them too.
"""

import dataclasses

import pytest

from repro.cosim.binding import ClockBinding
from repro.cosim.checkpoint import capture_state
from repro.cosim.context import ContextScheme
from repro.cosim.faults import FaultPlan
from repro.cosim.metrics import QUARANTINE_WATCHDOG
from repro.obs.tracer import Tracer
from repro.router.system import RouterConfig, RouterSystem
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
}


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

    def skip_steps(self, kernel, times):
        self.advances.extend(times)
        self.polls += len(times)
        self.skipped += len(times)


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
                state=capture_state(system),
                series=system.telemetry.series.dump(),
                cpus=[[cpu.instructions, cpu.cycles]
                      for cpu in system.cpus])


@pytest.fixture
def skip_counter(monkeypatch):
    """Counts the timesteps ContextScheme.skip_steps accounts for."""
    counts = {"steps": 0, "held": 0}
    skip_steps = ContextScheme.skip_steps

    def counting(self, kernel, times):
        counts["steps"] += len(times)
        counts["held"] += sum(
            1 for context in self.contexts
            if not context.quarantined
            and getattr(getattr(context, "driver", None), "held_at", None)
            is not None)
        return skip_steps(self, kernel, times)

    monkeypatch.setattr(ContextScheme, "skip_steps", counting)
    return counts


def _run_both(monkeypatch, workload, scheme, seed=42, between=None,
              **overrides):
    """``(skipped, materialised)`` observations of one workload cell.

    *between(system)*, if given, runs after the first half of the span
    in both runs.
    """
    __, span = WORKLOADS[workload]
    observed = []
    for materialise in (False, True):
        with monkeypatch.context() as patch:
            if materialise:
                patch.setattr(ContextScheme, "quiet_steps",
                              lambda self, kernel: 0)
            system = _system(workload, scheme, seed, **overrides)
            try:
                if between is None:
                    system.run(span)
                else:
                    system.run(span // 2)
                    between(system)
                    system.run(span - span // 2)
                observed.append(_observe(system))
            finally:
                system.close()
    return observed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_skip_equals_materialised(monkeypatch, skip_counter, workload,
                                  scheme, seed):
    skipped, materialised = _run_both(monkeypatch, workload, scheme, seed)
    assert skip_counter["steps"] > 0
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
