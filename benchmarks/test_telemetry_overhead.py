"""Telemetry-overhead gate for the parallel MPSoC workload.

Always-on grid telemetry is only acceptable if it is nearly
free: the bar is <10% wall time for the sampler over a run with
telemetry disabled, on the same compute-heavy GDB-Kernel MPSoC
workload the checkpoint gate uses (CRC-32 guests on forked process
workers).

The determinism half is absolute, not statistical: enabling telemetry
must not perturb the simulation (identical stats and folded metrics as
the disabled run), and two instrumented runs must produce
byte-identical series dumps.
"""

import time

import pytest

from repro.router.system import RouterConfig, build_system
from repro.sysc.simtime import US

WORKLOAD = dict(
    scheme="gdb-kernel", algorithm="crc32", checksum_rounds=24,
    num_cpus=6, producer_count=6, max_packets=8,
    inter_packet_delay=100 * US, sync_quantum=32,
    cpu_hz=1_000_000_000, parallel="process", workers=4)
SIM_TIME = 4 * 64 * 32 * US
#: The acceptance bar; the sampler records at most one point per 10 us
#: grid period.
MAX_OVERHEAD = 0.10
REPEATS = 4


def _run(instrumented):
    config = RouterConfig(telemetry=instrumented, **WORKLOAD)
    system = build_system(config)
    start = time.perf_counter()
    system.run(SIM_TIME)
    wall = time.perf_counter() - start
    stats = system.stats()
    metrics = system.metrics.as_dict()
    series = (system.telemetry.series.dump()
              if system.telemetry is not None else None)
    system.close()
    return wall, stats, metrics, series


def test_telemetry_determinism_and_overhead(benchmark, summary):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    _run(False)                                  # warm the fork pool
    ratios, pairs = [], []
    plain_stats = plain_metrics = None
    on_stats = on_metrics = None
    first_series = None
    for repeat in range(REPEATS):
        # Paired back-to-back runs: a host load spike has to land on
        # the instrumented half of *every* pair to inflate the gated
        # minimum ratio (same argument as the checkpoint gate).
        plain_wall, plain_stats, plain_metrics, __ = _run(False)
        on_wall, on_stats, on_metrics, series = _run(True)
        ratios.append(on_wall / plain_wall)
        pairs.append((plain_wall, on_wall))
        if first_series is None:
            first_series = series
        else:
            # ...and the series itself is deterministic run to run.
            assert series == first_series

    # Observation must not perturb the simulation.
    assert on_stats == plain_stats
    assert on_metrics == plain_metrics
    assert first_series is not None and len(first_series) > 2

    overhead = min(ratios) - 1.0
    plain, instrumented = pairs[ratios.index(min(ratios))]
    benchmark.extra_info["plain_seconds"] = round(plain, 3)
    benchmark.extra_info["instrumented_seconds"] = round(instrumented, 3)
    benchmark.extra_info["overhead_percent"] = round(100 * overhead, 1)
    summary("telemetry overhead: plain=%.2fs instrumented=%.2fs "
            "(+%.1f%% best of %d pairs, gate %.0f%%)"
            % (plain, instrumented, 100 * overhead, len(ratios),
               100 * MAX_OVERHEAD))
    assert overhead < MAX_OVERHEAD, (
        "grid telemetry costs %.1f%% wall time "
        "(gate: %.0f%%)" % (100 * overhead, 100 * MAX_OVERHEAD))
