"""Wall-time attribution profiler (repro.obs.attrib).

The exclusive-time arithmetic is tested against an injectable fake
clock — nesting, residual folding, the commit-stall overlay — and the
system wiring against real runs: scheme transport and per-tier ISS
buckets both collect, and the superblock side-exit analytics surface
the data-dependent branch sites of a checksum guest.
"""

from types import SimpleNamespace

from repro.obs.attrib import (KERNEL_BUCKET, STALL_BUCKET,
                              AttributionProfiler, attach_attrib,
                              attrib_summary, side_exit_profile)
from repro.obs.scenarios import run_traced_scenario


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_measures_charge_exclusive_time():
    clock = FakeClock()
    profiler = AttributionProfiler(clock=clock)
    with profiler.measure("transport"):
        clock.advance(1.0)
        with profiler.measure("iss.blocks"):
            clock.advance(2.0)
        clock.advance(1.0)
    assert profiler.totals["iss.blocks"] == 2.0
    assert profiler.totals["transport"] == 2.0      # 4.0 minus child
    assert profiler.accounted() == 4.0
    assert profiler.counts == {"iss.blocks": 1, "transport": 1}


def test_sequential_measures_accumulate():
    clock = FakeClock()
    profiler = AttributionProfiler(clock=clock)
    for __ in range(3):
        with profiler.measure("transport"):
            clock.advance(0.5)
    assert profiler.totals["transport"] == 1.5
    assert profiler.counts["transport"] == 3


def test_as_dict_folds_the_kernel_residual():
    clock = FakeClock()
    profiler = AttributionProfiler(clock=clock)
    with profiler.measure("transport"):
        clock.advance(3.0)
    summary = profiler.as_dict(wall_seconds=4.0)
    buckets = summary["buckets"]
    assert buckets["transport"]["seconds"] == 3.0
    assert buckets["transport"]["share"] == 0.75
    assert buckets[KERNEL_BUCKET]["seconds"] == 1.0
    assert buckets[KERNEL_BUCKET]["share"] == 0.25
    assert summary["accounted_seconds"] == 3.0
    assert summary["wall_seconds"] == 4.0
    # Without a wall figure there is no residual and no shares.
    bare = profiler.as_dict()
    assert KERNEL_BUCKET not in bare["buckets"]
    assert "share" not in bare["buckets"]["transport"]


def test_add_folds_external_measurements():
    profiler = AttributionProfiler(clock=FakeClock())
    profiler.add("transport", 0.25, count=5)
    profiler.add("transport", 0.75)
    assert profiler.totals["transport"] == 1.0
    assert profiler.counts["transport"] == 6


def test_stall_overlay_is_reported_not_summed():
    clock = FakeClock()
    profiler = AttributionProfiler(clock=clock)
    with profiler.measure("transport"):
        clock.advance(2.0)
    summary = attrib_summary(profiler, wall_seconds=2.0,
                             parallel={"stall_seconds": 0.5,
                                       "commit_stalls": 7})
    stall = summary["buckets"][STALL_BUCKET]
    assert stall == {"seconds": 0.5, "calls": 7, "overlay": True,
                     "share": 0.25}
    # The overlay elapses inside the transport measurement: it never
    # inflates the exclusive accounting.
    assert summary["accounted_seconds"] == 2.0
    no_stall = attrib_summary(profiler, wall_seconds=2.0,
                              parallel={"stall_seconds": 0.0,
                                        "commit_stalls": 0})
    assert STALL_BUCKET not in no_stall["buckets"]


def test_side_exit_profile_merges_ranks_and_limits():
    cpus = [SimpleNamespace(side_exit_sites={0x40: 3, 0x80: 1}),
            SimpleNamespace(side_exit_sites={0x40: 2, 0x20: 5})]
    profile = side_exit_profile(cpus)
    assert profile == [["0x00000020", 5], ["0x00000040", 5],
                       ["0x00000080", 1]]
    assert side_exit_profile(cpus, limit=1) == [["0x00000020", 5]]
    assert side_exit_profile([]) == []


def test_attach_attrib_buckets_a_real_run():
    profiler = AttributionProfiler()
    run = run_traced_scenario("gdb-wrapper", sim_us=60,
                              attrib=profiler)
    assert run.system.attrib is profiler
    assert profiler.totals["transport"] > 0.0
    # The tier the run used: REPRO_TIER may sweep it.
    assert profiler.totals["iss." + run.system.cpus[0].tier] > 0.0
    assert profiler.counts["transport"] > 0
    run.system.close()


def test_attribution_names_the_executing_tier():
    profiler = AttributionProfiler()
    run = run_traced_scenario("gdb-kernel", sim_us=60,
                              tier="superblocks", attrib=profiler)
    assert "iss.superblocks" in profiler.totals
    run.system.close()


def test_side_exit_analytics_on_a_checksum_guest():
    run = run_traced_scenario("gdb-kernel", sim_us=120,
                              tier="superblocks", algorithm="crc32",
                              checksum_rounds=8, sync_quantum=8)
    cpus = run.system.cpus
    side_exits = sum(cpu.superblock_side_exits for cpu in cpus)
    assert side_exits > 0      # data-dependent CRC bit branches
    assert side_exits <= sum(cpu.superblock_exits for cpu in cpus)
    profile = side_exit_profile(cpus)
    assert profile
    assert sum(count for __, count in profile) <= side_exits
    # The counter also lands on the folded metrics bundle.
    run.system.fold_cpu_counters()
    assert run.system.metrics.superblock_side_exits == side_exits
    run.system.close()


def test_attribution_does_not_perturb_determinism():
    plain = run_traced_scenario("driver-kernel", sim_us=60)
    profiled = run_traced_scenario("driver-kernel", sim_us=60,
                                   attrib=AttributionProfiler())
    assert profiled.tracer.dump() == plain.tracer.dump()
    assert profiled.system.telemetry.series.dump() \
        == plain.system.telemetry.series.dump()
    plain.system.close()
    profiled.system.close()
