"""Table 1 — Simulation Performance Results.

Paper: wall-clock co-simulation time of the router case study for three
simulated-time lengths, three schemes.  Claimed shape: GDB-Kernel ~30%
faster than GDB-Wrapper; Driver-Kernel ~3x faster; speedups stable
across lengths.

Our simulated-time columns keep the paper's 1:10:100 geometry at a
Python-host scale (1 ms : 10 ms : 100 ms of simulated time).
"""

import pytest

from repro.analysis.table1 import TABLE1_DELAY
from repro.router.system import RouterConfig, RouterSystem
from repro.sysc.simtime import MS

SCHEMES = ("gdb-wrapper", "gdb-kernel", "driver-kernel")
SIM_TIMES = {"1x": 1 * MS, "10x": 10 * MS, "100x": 100 * MS}


def _run(scheme, sim_time):
    system = RouterSystem(RouterConfig(scheme=scheme,
                                       inter_packet_delay=TABLE1_DELAY))
    system.run(sim_time)
    return system


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("length", [
    "1x",
    pytest.param("10x", marks=pytest.mark.slow),
    pytest.param("100x", marks=pytest.mark.slow),
])
def test_table1_cell(benchmark, scheme, length, summary, bench_report):
    sim_time = SIM_TIMES[length]
    rounds = 3 if sim_time <= 1 * MS else 1
    system = benchmark.pedantic(_run, args=(scheme, sim_time),
                                rounds=rounds, iterations=1)
    stats = system.stats()
    benchmark.extra_info["scheme"] = scheme
    benchmark.extra_info["simulated_time_ms"] = sim_time // (1 * MS)
    benchmark.extra_info["forwarded"] = stats.forwarded
    benchmark.extra_info["forwarded_percent"] = \
        round(stats.forwarded_percent, 1)
    bench_report.config.update(scheme=scheme,
                               simulated_time_ms=sim_time // (1 * MS))
    bench_report.record_metrics(system.metrics)
    bench_report.record(generated=stats.generated,
                        forwarded=stats.forwarded,
                        received=stats.received)
    summary("table1[%s, %s]: wall=%.3fs forwarded=%d (%.1f%%)" % (
        scheme, length, benchmark.stats.stats.mean, stats.forwarded,
        stats.forwarded_percent))


def test_table1_speedup_shape(benchmark, summary):
    """The paper's headline claim, asserted (not just printed).

    Each scheme runs once unmeasured to warm up, then is timed best of
    three, the schemes interleaved so host drift hits them alike.
    """
    import time

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for scheme in SCHEMES:
        _run(scheme, 4 * MS)
    walls = dict.fromkeys(SCHEMES, float("inf"))
    for __ in range(3):
        for scheme in SCHEMES:
            start = time.perf_counter()
            _run(scheme, 4 * MS)
            walls[scheme] = min(walls[scheme],
                                time.perf_counter() - start)
    kernel_speedup = walls["gdb-wrapper"] / walls["gdb-kernel"]
    driver_speedup = walls["gdb-wrapper"] / walls["driver-kernel"]
    summary("table1 speedups vs GDB-Wrapper: GDB-Kernel %.2fx "
            "(paper ~1.3x), Driver-Kernel %.2fx (paper ~3x)"
            % (kernel_speedup, driver_speedup))
    # Shape: GDB-Kernel clearly faster than the wrapper baseline...
    assert kernel_speedup > 1.05
    # ...and Driver-Kernel much faster still.
    assert driver_speedup > 1.8
    assert driver_speedup > kernel_speedup
