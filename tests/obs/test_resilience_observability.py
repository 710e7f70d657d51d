"""PR-1 resilience surfaces must be *observable* through PR-2's layer.

For every scheme and every fault class the reliable transport recovers
from (drop / corrupt / delay), the recovery must leave evidence in both
places consumers look:

- the shared :class:`~repro.cosim.metrics.CosimMetrics` counters
  (``retransmits`` / ``corrupt_rejected``), and
- the structured trace (``transport/retransmit``, ``transport/corrupt``
  events);

and when the link is beyond saving, the watchdog quarantine must be
visible the same two ways (``contexts_quarantined`` + the quarantine
log, and a ``cosim/quarantine`` event) while the simulation still runs
to completion instead of crashing.

The fault plans are *scripted* (pinned to send indices) rather than
rate-based: the Driver-Kernel scheme exchanges only a handful of
messages at this scenario scale, so probabilities would fire unreliably
across schemes, while a script guarantees the same deterministic
injection everywhere.
"""

import pytest

from repro.cosim.faults import FaultPlan
from repro.cosim.reliable import ReliabilityConfig
from repro.obs.scenarios import (COSIM_SCHEMES, quickstart_config,
                                 run_traced_scenario)

# One recoverable class per case, scripted onto early send indices so
# it fires on every endpoint that carries traffic (index 1 is hit by
# every data-bearing endpoint in every scheme).  delay_polls exceeds
# the 8-poll ack timeout so a delayed frame is always retransmitted
# before its late copy arrives.
_RECOVERABLE = [
    ("drop", FaultPlan(script={1: "drop", 5: "drop"}),
     "retransmits", "transport/retransmit"),
    ("corrupt", FaultPlan(script={1: "corrupt", 5: "corrupt"}),
     "corrupt_rejected", "transport/corrupt"),
    ("delay", FaultPlan(script={1: "delay"}, delay_polls=12),
     "retransmits", "transport/retransmit"),
]


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
@pytest.mark.parametrize("fault,plan,counter,event", _RECOVERABLE,
                         ids=[case[0] for case in _RECOVERABLE])
class TestRecoverableFaultsAreObservable:
    def test_counters_and_trace_agree(self, scheme, fault, plan,
                                      counter, event):
        run = run_traced_scenario(quickstart_config(
            scheme, reliability=True, fault_plan=plan))
        metrics = run.system.metrics
        counts = run.tracer.counts()
        # The fault fired and was recovered...
        assert getattr(metrics, counter) > 0
        assert metrics.contexts_quarantined == 0
        # ...and the trace carries one event per counted recovery.
        assert counts.get(event, 0) == getattr(metrics, counter)
        # Recovery is invisible above the transport: clean traffic.
        assert run.stats.received > 0
        assert run.stats.corrupt == 0

    def test_baseline_run_is_clean(self, scheme, fault, plan, counter,
                                   event):
        """Control: without the fault plan, no *recovery* events at all
        — proving the observability assertions are not vacuous.  The
        nominal span events (``transport/send`` / ``transport/ack``)
        are expected: every DATA frame opens and closes its span even
        on a perfect link."""
        run = run_traced_scenario(quickstart_config(scheme,
                                                    reliability=True))
        metrics = run.system.metrics
        assert metrics.retransmits == 0
        assert metrics.corrupt_rejected == 0
        counts = run.tracer.counts()
        recovery = ("transport/retransmit", "transport/nak",
                    "transport/gap", "transport/corrupt")
        assert not any(key in counts for key in recovery)
        assert counts.get("transport/send", 0) > 0
        assert counts.get("transport/ack", 0) == counts["transport/send"]


# Kill the link partway through the run: every send past `kill_from`
# is dropped.  The threshold sits after elaboration traffic (the GDB
# schemes exchange dozens of RSP frames while setting breakpoints —
# killing those would abort construction, not trigger the in-run
# quarantine path) but before the scenario's final data exchanges.
_QUARANTINE_SCENARIOS = {
    "gdb-wrapper": dict(kill_from=60, sim_us=400, max_packets=1),
    "gdb-kernel": dict(kill_from=60, sim_us=400, max_packets=1),
    "driver-kernel": dict(kill_from=8, sim_us=400, max_packets=6),
}

# A tight retry budget so exhaustion happens well inside the run.
_FAST_FAIL = ReliabilityConfig(ack_timeout_polls=4, backoff_factor=2,
                               max_timeout_polls=8, retry_budget=3)


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
class TestQuarantineIsObservable:
    def test_dead_link_quarantine_traced_and_counted(self, scheme):
        scenario = _QUARANTINE_SCENARIOS[scheme]
        plan = FaultPlan(script={
            index: "drop"
            for index in range(scenario["kill_from"], 100_000)})
        run = run_traced_scenario(
            quickstart_config(scheme, reliability=_FAST_FAIL,
                              fault_plan=plan,
                              max_packets=scenario["max_packets"]),
            sim_us=scenario["sim_us"])
        metrics = run.system.metrics
        assert metrics.contexts_quarantined >= 1
        log = metrics.quarantine_log()
        assert log and all("transport" in reason for __, reason in log)
        counts = run.tracer.counts()
        assert counts.get("cosim/quarantine", 0) == \
            metrics.contexts_quarantined
        assert counts.get("transport/retransmit", 0) > 0
        # The quarantine event carries the reason for post-mortems.
        quarantine_events = [e for e in run.tracer.events()
                             if e.key == "cosim/quarantine"]
        assert quarantine_events
        assert all("transport" in e.args["reason"]
                   for e in quarantine_events)
