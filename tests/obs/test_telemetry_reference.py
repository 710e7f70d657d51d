"""The telemetry sampler against a reference reading of each point.

:class:`~repro.obs.metrics.MetricsSampler` resolves its counter layout
once and reads a point with a few C-level getters.  The reference here
is the straightforward definition — sum each CPU tier counter and
each warp counter by name, then read every other counter off the
shared metrics with ``getattr`` — evaluated by a second kernel trace
sink that runs right after the sampler, at the same timestep, over
the same committed state.  Every recorded point must equal it, across
scheme x CPU count x sync quantum x DMI and through a watchdog
quarantine.
"""

import pytest

from repro.cosim.binding import ClockBinding
from repro.cosim.faults import FaultPlan
from repro.iss.cpu import CPU_COUNTERS
from repro.obs.scenarios import COSIM_SCHEMES
from repro.router.system import RouterConfig, RouterSystem
from repro.sysc.simtime import US


def reference_values(system, counters):
    """One point's counter values, read name by name."""
    cpu_sums = dict.fromkeys(CPU_COUNTERS, 0)
    for cpu in system.cpus:
        for name in CPU_COUNTERS:
            cpu_sums[name] += getattr(cpu, name)
    warp_sums = dict.fromkeys(ClockBinding.WARP_COUNTERS, 0)
    for __, binding in system.bindings():
        for name in ClockBinding.WARP_COUNTERS:
            warp_sums[name] += getattr(binding, name)
    values = []
    for name in counters:
        if name in cpu_sums:
            values.append(cpu_sums[name])
        elif name in warp_sums:
            values.append(warp_sums[name])
        elif name == "trace_dropped":
            values.append(system.tracer.dropped)
        else:
            values.append(getattr(system.metrics, name))
    return values


class ReferenceSink:
    """Trace sink checking each new point against the reference."""

    def __init__(self, system):
        self.system = system
        self.series = system.telemetry.series
        self.checked = 0
        self._seen = None

    def sample(self, kernel):
        point = self.series.latest()
        if point is None or point is self._seen:
            return
        self._seen = point
        assert point.timestep == kernel.timestep_count
        assert list(point.values) == reference_values(
            self.system, self.series.counters)
        self.checked += 1


def _run_checked(config, duration):
    system = RouterSystem(config)
    sink = ReferenceSink(system)
    # Added after the sampler, so it reads the same timestep's state.
    system.kernel.add_trace(sink)
    system.run(duration)
    # RouterSystem.run samples once more after flushing banked budgets.
    sink.sample(system.kernel)
    system.close()
    assert sink.checked > 0
    return system, sink


@pytest.mark.parametrize("dmi", [False, True])
@pytest.mark.parametrize("quantum", [1, 8])
@pytest.mark.parametrize("num_cpus", [1, 4])
@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
def test_points_match_reference(scheme, num_cpus, quantum, dmi):
    config = RouterConfig(scheme=scheme, num_cpus=num_cpus,
                          sync_quantum=quantum, dmi=dmi,
                          inter_packet_delay=10 * US, parallel=None)
    system, sink = _run_checked(config, 120 * US)
    assert system.stats().forwarded > 0
    if scheme == "gdb-wrapper" and dmi and quantum > 1:
        # Only the wrapper reconciles quanta inside the DMI time warp.
        assert system.telemetry.series.value("warped_syncs") > 0


def test_points_match_reference_through_watchdog_quarantine():
    # The link dies after 8 frames, so one guest stalls and the
    # watchdog quarantines it; the other context keeps sampling.
    config = RouterConfig(
        scheme="driver-kernel", num_cpus=2, inter_packet_delay=20 * US,
        max_packets=6, producer_count=2, watchdog_ticks=60,
        parallel=None,
        fault_plan=FaultPlan(script={i: "drop" for i in range(8, 4096)}))
    system, __ = _run_checked(config, 400 * US)
    assert system.metrics.contexts_quarantined >= 1
    assert system.telemetry.series.value("contexts_quarantined") >= 1
