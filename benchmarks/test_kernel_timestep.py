"""Per-timestep cost gate: Python calls per SystemC timestep.

A lock-step co-simulation pays a fixed path at every SystemC timestep:
the scheduler's phases, the clock edge, the scheme's time-advance hook,
the RTOS advance and the telemetry sample.  Wall time on a shared host
is too noisy to gate that path; the number of Python calls cProfile
counts per timestep is deterministic, so it is gated instead:

- a kernel with nothing but a 1 us clock;
- the wall benchmark's ``table1`` Driver-Kernel cell (seed 42, lock-step),
  over 2 000 us after a 100 us warm-up, where the scheme runs ahead
  over about 85% of the timesteps (quiet clock edges): each is granted
  in one loop, without its delta cycle and hook frames, and sampled
  only at the telemetry grid's 10 us boundaries;
- its ``mpsoc-crc`` Driver-Kernel cell (seed 42, sync quantum 32) over
  the same span, where the kernel fast-forwards about 95% of the
  timesteps.

Both cell counts are per *simulated* timestep, skipped ones included,
so a change that silently stops the lock-step run-ahead (about 84
calls) or the quantum fast-forward (about 117 calls) fails here.

Each bound is the count measured when the path last got shorter
(CPython 3.11) plus 10%: the lean timestep for the bare clock, and the
telemetry grid on top of the lock-step run-ahead for ``table1`` and on
top of the quiet-timestep fast-forward for ``mpsoc-crc``.
A change that puts calls back on the path fails here; one that removes
more should lower the bound.
"""

import cProfile
import pstats
import sys
from pathlib import Path

from repro.router.system import RouterSystem
from repro.sysc.clock import Clock
from repro.sysc.kernel import Kernel
from repro.sysc.simtime import US

sys.path.insert(0, str(Path(__file__).resolve().parent / "wall"))
from workloads import router_config  # noqa: E402

WARMUP = 100 * US
SPAN = 2000 * US
#: Calls per timestep when the lean timestep landed, plus 10%.
BARE_CLOCK_BOUND = 18.0 * 1.10
#: Calls per simulated timestep once telemetry sampled on its 10 us
#: grid (the lock-step run-ahead's samples reduced to a time compare),
#: plus 10%.
DRIVER_CELL_BOUND = 64.3 * 1.10
#: Calls per simulated timestep once telemetry sampled on its 10 us
#: grid (on top of the quiet-timestep fast-forward), plus 10%.
QUIET_SKIP_BOUND = 62.3 * 1.10


def calls_per_timestep(kernel, run):
    """Warm up, then profile *run* over the span: calls / timestep."""
    run(WARMUP)
    before = kernel.timestep_count
    profile = cProfile.Profile()
    profile.enable()
    run(SPAN)
    profile.disable()
    return (pstats.Stats(profile).total_calls
            / (kernel.timestep_count - before))


def test_bare_clock_timestep(bench_report, summary):
    kernel = Kernel("bare")
    Clock(1 * US, kernel=kernel)
    calls = calls_per_timestep(kernel, kernel.run)
    bench_report.record(calls_per_timestep=round(calls, 2))
    summary("per-timestep cost, bare 1 us clock: %.2f calls "
            "(bound %.1f)" % (calls, BARE_CLOCK_BOUND))
    assert calls <= BARE_CLOCK_BOUND


def test_table1_driver_kernel_timestep(bench_report, summary):
    system = RouterSystem(router_config("table1", "driver-kernel", 42))
    try:
        calls = calls_per_timestep(system.kernel, system.run)
    finally:
        system.close()
    bench_report.record(calls_per_timestep=round(calls, 2))
    summary("per-timestep cost, table1 driver-kernel: %.2f calls "
            "(bound %.1f)" % (calls, DRIVER_CELL_BOUND))
    assert calls <= DRIVER_CELL_BOUND


def test_mpsoc_crc_driver_kernel_skip(bench_report, summary):
    system = RouterSystem(router_config("mpsoc-crc", "driver-kernel", 42))
    try:
        calls = calls_per_timestep(system.kernel, system.run)
    finally:
        system.close()
    bench_report.record(calls_per_timestep=round(calls, 2))
    summary("per-timestep cost, mpsoc-crc driver-kernel: %.2f calls "
            "(bound %.1f)" % (calls, QUIET_SKIP_BOUND))
    assert calls <= QUIET_SKIP_BOUND
