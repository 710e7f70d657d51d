"""Ablations of the design choices behind Table 1 and Figure 7.

DESIGN.md Section 5 calls out where each speedup comes from:

1. GDB-Wrapper pays per-cycle RSP round-trips; GDB-Kernel replaces them
   with O(1) pipe polls (transactions/cycle counter).
2. Driver-Kernel removes GDB entirely; data moves as a couple of binary
   messages per packet instead of ~2 RSP transfer transactions per
   guest variable.
3. Figure 7's gap scales with the RTOS cycle-cost model: scaling the
   OS charges up/down moves the Driver-Kernel curve down/up.
"""

import pytest

from repro.router.system import RouterConfig, RouterSystem
from repro.rtos.costs import CostModel
from repro.sysc.simtime import MS, US

WORKLOAD_DELAY = 20 * US
SIM_TIME = 2 * MS


def _run(scheme, **config_overrides):
    config = RouterConfig(scheme=scheme,
                          inter_packet_delay=WORKLOAD_DELAY,
                          **config_overrides)
    system = RouterSystem(config)
    system.run(SIM_TIME)
    return system


@pytest.mark.parametrize("scheme", ["gdb-wrapper", "gdb-kernel",
                                    "driver-kernel"])
def test_sync_cost_attribution(benchmark, scheme, summary):
    system = benchmark.pedantic(_run, args=(scheme,), rounds=1,
                                iterations=1)
    metrics = system.stats().metrics
    timesteps = max(1, metrics["sc_timesteps"])
    packets = max(1, system.stats().forwarded)
    per_cycle_rsp = metrics["sync_transactions"] / timesteps
    transfers_per_packet = metrics["transfer_transactions"] / packets
    messages_per_packet = (metrics["messages_sent"]
                           + metrics["messages_received"]) / packets
    benchmark.extra_info.update({
        "sync_rsp_per_cycle": round(per_cycle_rsp, 3),
        "rsp_transfers_per_packet": round(transfers_per_packet, 2),
        "messages_per_packet": round(messages_per_packet, 2),
        "cheap_polls": metrics["cheap_polls"],
    })
    summary("ablation[%s]: rsp/cycle=%.2f transfers/packet=%.1f "
            "messages/packet=%.1f" % (scheme, per_cycle_rsp,
                                      transfers_per_packet,
                                      messages_per_packet))
    if scheme == "gdb-wrapper":
        assert per_cycle_rsp >= 1.0     # the lock-step bottleneck
    else:
        assert per_cycle_rsp == 0.0
    if scheme == "driver-kernel":
        assert transfers_per_packet == 0.0
        assert 0 < messages_per_packet <= 4
    else:
        # One transfer pair per guest variable touched per packet.
        assert transfers_per_packet > 10


def test_fig7_gap_scales_with_os_costs(benchmark, summary):
    """Ablation 3: the forwarding gap is *caused* by the cost model."""
    def run_scaled(scale):
        config = RouterConfig(scheme="driver-kernel",
                              inter_packet_delay=8 * US,
                              rtos_costs=CostModel().scaled(scale))
        system = RouterSystem(config)
        system.run(SIM_TIME)
        return system.stats().forwarded_percent

    results = benchmark.pedantic(
        lambda: {scale: run_scaled(scale) for scale in (0.0, 1.0, 3.0)},
        rounds=1, iterations=1)
    summary("ablation OS-cost scale -> forwarding%%: " + ", ".join(
        "%.1fx=%.1f%%" % (scale, pct) for scale, pct in results.items()))
    assert results[0.0] > results[1.0] > results[3.0]


def test_gdb_kernel_poll_vs_wrapper_roundtrip(benchmark, summary):
    """Ablation 1 in wall-clock terms: same workload, the only change
    is where the per-cycle check lives.

    A single cold run per scheme is noise-bound on a loaded host: each
    scheme gets one unmeasured warm-up run, then three interleaved
    timed runs, and the medians are compared.
    """
    import statistics
    import time

    schemes = ("gdb-wrapper", "gdb-kernel")
    for scheme in schemes:
        _run(scheme)
    walls = {scheme: [] for scheme in schemes}
    for __ in range(3):
        for scheme in schemes:
            start = time.perf_counter()
            _run(scheme)
            walls[scheme].append(time.perf_counter() - start)
    wrapper_wall = statistics.median(walls["gdb-wrapper"])
    kernel_wall = statistics.median(walls["gdb-kernel"])
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["wrapper_wall_s"] = round(wrapper_wall, 3)
    benchmark.extra_info["kernel_wall_s"] = round(kernel_wall, 3)
    summary("ablation poll-vs-roundtrip: wrapper %.3fs, kernel %.3fs "
            "(%.0f%% faster)" % (
                wrapper_wall, kernel_wall,
                100 * (wrapper_wall - kernel_wall) / wrapper_wall))
    assert kernel_wall < wrapper_wall
