"""Serial-vs-parallel byte-identity of the telemetry time-series.

The sampler runs as a kernel trace sink after every scheduler hook has
committed, and each point derives only from simulation state — so the
canonical series dump must be byte-identical between serial and
parallel execution of the same seeded scenario, across schemes, sync
quanta and ISS tiers, on both pool backends.  This is the telemetry
counterpart of the trace/metrics identity argument in
docs/parallel.md.  The superblock tier's batched exit and profile
accounting must cross the process worker boundary just as exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.scenarios import run_traced_scenario
from repro.router.system import RouterConfig, RouterSystem
from repro.sysc.simtime import MS, US
from tests.support import SIM_SETTINGS, quanta, schemes, seeds

tiers = st.sampled_from(["blocks", "superblocks"])


def _series_dump(scheme, seed, quantum, tier, parallel, workers=2):
    run = run_traced_scenario(scheme, sim_us=60, seed=seed,
                              sync_quantum=quantum, tier=tier,
                              parallel=parallel, workers=workers)
    dump = run.system.telemetry.series.dump()
    run.system.close()
    return dump


@settings(**SIM_SETTINGS)
@given(scheme=schemes, seed=seeds, quantum=quanta, tier=tiers)
def test_thread_parallel_series_matches_serial(scheme, seed, quantum,
                                               tier):
    serial = _series_dump(scheme, seed, quantum, tier, parallel=False)
    threaded = _series_dump(scheme, seed, quantum, tier,
                            parallel="thread")
    assert threaded == serial


def test_process_parallel_series_matches_serial():
    serial = _series_dump("gdb-kernel", 7, 8, "blocks", parallel=False)
    forked = _series_dump("gdb-kernel", 7, 8, "blocks",
                          parallel="process")
    assert forked == serial


def test_dmi_tier_series_matches_serial():
    run_kwargs = dict(sim_us=60, seed=7, sync_quantum=8, dmi=True)
    serial = run_traced_scenario("gdb-kernel", parallel=False,
                                 **run_kwargs)
    threaded = run_traced_scenario("gdb-kernel", parallel="thread",
                                   workers=2, **run_kwargs)
    assert serial.system.telemetry.series.dump() \
        == threaded.system.telemetry.series.dump()
    serial.system.close()
    threaded.system.close()


def test_repeat_runs_are_byte_identical():
    first = _series_dump("driver-kernel", 7, 4, "blocks", parallel=False)
    second = _series_dump("driver-kernel", 7, 4, "blocks",
                          parallel=False)
    assert first == second


def _mpsoc_crc(scheme, parallel):
    """Everything the benchmark's ``mpsoc-crc`` shape counts, after a
    1 ms run: four CRC-32 CPUs on the superblock tier, quantum 32."""
    system = RouterSystem(RouterConfig(
        scheme=scheme, seed=42, num_cpus=4, producer_count=4,
        algorithm="crc32", checksum_rounds=24, cpu_hz=1_000_000_000,
        inter_packet_delay=100 * US, sync_quantum=32, dmi=False,
        tier="superblocks", parallel=parallel, workers=2))
    try:
        system.run(1 * MS)
        system.stats()
        cpus = [(cpu.block_profiler.state(), cpu.superblock_exits,
                 cpu.superblock_side_exits, dict(cpu.side_exit_sites))
                for cpu in system.cpus]
        return (system.metrics.as_dict(), system.telemetry.series.dump(),
                cpus)
    finally:
        system.close()


@pytest.mark.parametrize("scheme", ["gdb-kernel", "driver-kernel"])
def test_superblock_tier_matches_across_backends(scheme):
    serial = _mpsoc_crc(scheme, parallel=None)
    assert serial[0]["superblock_side_exits"] > 0
    assert _mpsoc_crc(scheme, parallel="thread") == serial
    assert _mpsoc_crc(scheme, parallel="process") == serial
