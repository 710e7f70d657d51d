"""Sync-quantum batching: equivalence and ablation (docs/performance.md).

At ``sync_quantum=1`` every scheme runs the exact lock-step protocol it
always did.  At larger quanta the cycle budget banks up across SystemC
timesteps and one batched synchronisation covers the window — these
tests prove the batching changes only the *cost*, never the observable
outcome, on the seeded router scenario all three schemes share, and pin
the cost reduction itself via the deterministic transaction counters.
"""

import pytest

from repro.cosim.binding import ClockBinding
from repro.errors import CosimError
from repro.obs.bench import syncs_per_timestep
from repro.obs.scenarios import (COSIM_SCHEMES, bench_scenario,
                                 quickstart_config, run_traced_scenario)
from repro.sysc.simtime import US

QUANTA = (2, 8)


def _observables(run, instructions=True):
    """Everything a quantum change must leave untouched.

    *instructions* is excluded for the driver-kernel scheme: its RTOS
    idle thread retires one ``wfi`` per ``advance()`` call before the
    remaining slice is idle-burned, so the raw retire count depends on
    host-side slicing granularity (it varies with the clock period even
    at quantum 1).  Cycles, registers, memory traffic and packet flow
    are granularity-independent and must match exactly.
    """
    stats = run.stats
    observed = {
        "generated": stats.generated,
        "forwarded": stats.forwarded,
        "received": stats.received,
        "corrupt": stats.corrupt,
        "iss_cycles": sum(cpu.cycles for cpu in run.system.cpus),
        "regs": [list(cpu.regs) for cpu in run.system.cpus],
        "final_time": run.system.kernel.now,
        "messages": (run.system.metrics.messages_sent,
                     run.system.metrics.messages_received),
        "interrupts": (run.system.metrics.interrupts_posted,
                       run.system.metrics.isr_dispatches),
    }
    if instructions:
        observed["iss_instructions"] = sum(cpu.instructions
                                           for cpu in run.system.cpus)
    return observed


class TestBindingQuantum:
    def test_quantum_must_be_positive(self):
        with pytest.raises(CosimError):
            ClockBinding(100, 1, quantum=0)

    def test_accumulate_banks_budget(self):
        binding = ClockBinding(100_000_000, 1, quantum=4)
        for step in range(1, 4):
            binding.accumulate(step * US)
            assert not binding.due()
        binding.accumulate(4 * US)
        assert binding.due()
        budget, steps = binding.drain()
        assert (budget, steps) == (400, 4)
        assert (binding.pending_budget, binding.pending_steps) == (0, 0)

    def test_drain_before_due_spends_partial_bank(self):
        binding = ClockBinding(100_000_000, 1, quantum=8)
        binding.accumulate(1 * US)
        binding.accumulate(2 * US)
        assert binding.drain() == (200, 2)

    def test_reset_clears_bank(self):
        binding = ClockBinding(100_000_000, 1, quantum=4)
        binding.accumulate(1 * US)
        binding.reset(0)
        assert (binding.pending_budget, binding.pending_steps) == (0, 0)


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
class TestQuantumEquivalence:
    """quantum > 1 must be functionally invisible on the scenario."""

    @pytest.mark.parametrize("quantum", QUANTA)
    def test_matches_lockstep(self, scheme, quantum):
        instructions = scheme != "driver-kernel"
        lockstep = run_traced_scenario(quickstart_config(scheme))
        batched = run_traced_scenario(
            quickstart_config(scheme, sync_quantum=quantum))
        assert (_observables(batched, instructions)
                == _observables(lockstep, instructions))

    def test_batching_reduces_round_trips(self, scheme):
        __, lockstep = bench_scenario(quickstart_config(scheme))
        __, batched = bench_scenario(
            quickstart_config(scheme, sync_quantum=8))
        base = syncs_per_timestep(lockstep.as_dict())
        fast = syncs_per_timestep(batched.as_dict())
        assert fast < base

    def test_quantum_sync_events_traced(self, scheme):
        run = run_traced_scenario(
            quickstart_config(scheme, sync_quantum=8))
        names = {event.name for event in run.tracer.events()
                 if event.category == "cosim"}
        assert "quantum_sync" in names
        metrics = run.system.metrics
        assert metrics.quantum_syncs > 0
        assert metrics.quantum_steps_batched >= metrics.quantum_syncs

    def test_lockstep_emits_no_quantum_events(self, scheme):
        """q=1 stays byte-identical to the pre-quantum trace format."""
        run = run_traced_scenario(quickstart_config(scheme))
        names = {event.name for event in run.tracer.events()}
        assert "quantum_sync" not in names
        assert run.system.metrics.quantum_syncs == 0


class TestQuantumDegradation:
    def test_wrapper_degrades_with_interrupts_enabled(self):
        """A CPU that could take an interrupt forces lock-step syncs."""
        run = run_traced_scenario(
            quickstart_config("gdb-wrapper", sync_quantum=8))
        metrics = run.system.metrics
        # Batching happened: far fewer syncs than timesteps.
        assert metrics.quantum_syncs < metrics.sc_timesteps / 2

    def test_driver_kernel_syncs_on_traffic(self):
        """Driver messages and interrupt delivery break the batch, so
        the RTOS observes them at the same timestep as lock-step."""
        lockstep = run_traced_scenario(quickstart_config("driver-kernel"))
        batched = run_traced_scenario(
            quickstart_config("driver-kernel", sync_quantum=8))
        assert (batched.system.metrics.messages_received
                == lockstep.system.metrics.messages_received)
        assert (batched.system.metrics.isr_dispatches
                == lockstep.system.metrics.isr_dispatches)
