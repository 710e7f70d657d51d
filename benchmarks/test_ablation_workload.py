"""Ablation: guest workload weight.

The checksum algorithm moves the Figure 7 operating point without
touching the co-simulation machinery: the paper's light word-sum vs a
bitwise CRC-32 (~70x the guest cycles per packet) shifts the
forwarding curves exactly as a real platform would, which is the point
of cycle-accounting co-simulation.
"""

import pytest

from repro.router.system import RouterConfig, RouterSystem
from repro.sysc.simtime import MS, US

SIM_TIME = 2 * MS


def _run(algorithm="sum"):
    system = RouterSystem(RouterConfig(scheme="driver-kernel",
                                       inter_packet_delay=30 * US,
                                       algorithm=algorithm))
    system.run(SIM_TIME)
    return system


@pytest.mark.parametrize("algorithm", ["sum", "crc32"])
def test_workload_weight(benchmark, algorithm, summary):
    system = benchmark.pedantic(_run, args=(algorithm,), rounds=1,
                                iterations=1)
    stats = system.stats()
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["forwarded_percent"] = \
        round(stats.forwarded_percent, 1)
    summary("workload[%s]: forwarded %.1f%% (%d packets)" % (
        algorithm, stats.forwarded_percent, stats.forwarded))
    assert stats.corrupt == 0


def test_crc32_shifts_saturation_point(benchmark, summary):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    light = _run("sum").stats().forwarded_percent
    heavy = _run("crc32").stats().forwarded_percent
    summary("workload shift at 30us delay: sum %.1f%% -> crc32 %.1f%%"
            % (light, heavy))
    assert heavy < light - 10

