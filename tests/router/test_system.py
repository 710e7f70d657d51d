import pytest

from repro.errors import CosimError
from repro.router.system import RouterConfig, RouterSystem, build_system
from repro.sysc.simtime import MS, US


class TestConfiguration:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(CosimError):
            build_system(scheme="quantum")

    def test_config_and_overrides_mutually_exclusive(self):
        with pytest.raises(CosimError):
            build_system(RouterConfig(), scheme="local")

    def test_default_structure(self):
        system = build_system(scheme="local")
        assert len(system.producers) == 4
        assert len(system.consumers) == 4
        assert len(system.router.inputs) == 4

    def test_producer_count_override(self):
        system = build_system(scheme="local", producer_count=1)
        assert len(system.producers) == 1


class TestLocalScheme:
    def test_all_packets_forwarded_and_valid(self):
        system = build_system(scheme="local",
                              inter_packet_delay=10 * US)
        system.run(1 * MS)
        stats = system.stats()
        assert stats.corrupt == 0
        assert stats.generated > 0
        assert stats.forwarded >= stats.generated - 8  # tail in flight
        assert stats.received == stats.forwarded

    def test_stats_percent(self):
        system = build_system(scheme="local", inter_packet_delay=10 * US)
        system.run(500 * US)
        stats = system.stats()
        assert 0 < stats.forwarded_percent <= 100.0


@pytest.mark.parametrize("scheme", ["gdb-wrapper", "gdb-kernel",
                                    "driver-kernel"])
class TestCosimSchemes:
    def test_forwards_with_valid_checksums(self, scheme):
        system = build_system(scheme=scheme, inter_packet_delay=40 * US)
        system.run(1 * MS)
        stats = system.stats()
        assert stats.corrupt == 0
        assert stats.forwarded > 0
        assert stats.received == stats.forwarded

    def test_near_full_forwarding_at_large_delay(self, scheme):
        system = build_system(scheme=scheme, inter_packet_delay=100 * US)
        system.run(2 * MS)
        stats = system.stats()
        assert stats.forwarded_percent > 90.0

    def test_metrics_identify_scheme(self, scheme):
        system = build_system(scheme=scheme, inter_packet_delay=50 * US)
        system.run(200 * US)
        assert system.stats().metrics["scheme"] == scheme


class TestSchemeContrasts:
    def test_driver_scheme_uses_no_gdb(self):
        system = build_system(scheme="driver-kernel",
                              inter_packet_delay=40 * US)
        system.run(1 * MS)
        metrics = system.stats().metrics
        assert metrics["breakpoint_hits"] == 0
        assert metrics["interrupts_posted"] > 0

    def test_gdb_schemes_hit_breakpoints(self):
        system = build_system(scheme="gdb-kernel",
                              inter_packet_delay=40 * US)
        system.run(1 * MS)
        metrics = system.stats().metrics
        assert metrics["breakpoint_hits"] > 0
        assert metrics["interrupts_posted"] == 0

    def test_wrapper_pays_per_cycle_transactions(self):
        wrapper = build_system(scheme="gdb-wrapper",
                               inter_packet_delay=40 * US)
        wrapper.run(1 * MS)
        kernel_scheme = build_system(scheme="gdb-kernel",
                                     inter_packet_delay=40 * US)
        kernel_scheme.run(1 * MS)
        assert wrapper.stats().metrics["sync_transactions"] > 0
        assert kernel_scheme.stats().metrics["sync_transactions"] == 0

    def test_driver_scheme_forwards_fewer_at_small_delay(self):
        """The Figure 7 gap: OS overhead lowers the forwarding rate."""
        gdb = build_system(scheme="gdb-kernel", inter_packet_delay=8 * US)
        gdb.run(1 * MS)
        driver = build_system(scheme="driver-kernel",
                              inter_packet_delay=8 * US)
        driver.run(1 * MS)
        assert driver.stats().forwarded_percent < \
            gdb.stats().forwarded_percent

    def test_same_seed_same_workload(self):
        first = build_system(scheme="local", inter_packet_delay=10 * US,
                             seed=11)
        first.run(300 * US)
        second = build_system(scheme="local", inter_packet_delay=10 * US,
                              seed=11)
        second.run(300 * US)
        assert first.stats().generated == second.stats().generated
        assert first.stats().forwarded == second.stats().forwarded


class TestBuildOrder:
    """Events and signals built without a kernel bind to the current
    one on first use, so running a system must make its own kernel
    current — otherwise a system built before another runs as a silent
    no-op on the later system's kernel."""

    @staticmethod
    def _config(scheme, seed):
        return RouterConfig(scheme=scheme, seed=seed,
                            inter_packet_delay=20 * US)

    @pytest.mark.parametrize("scheme",
                             ["gdb-wrapper", "gdb-kernel", "driver-kernel"])
    def test_systems_built_together_run_like_solo(self, scheme):
        solos = []
        for seed in (42, 7):
            solo = RouterSystem(self._config(scheme, seed))
            solo.run(400 * US)
            solos.append(solo.stats())
        first = RouterSystem(self._config(scheme, 42))
        second = RouterSystem(self._config(scheme, 7))
        first.run(400 * US)
        second.run(400 * US)
        assert solos[0].forwarded > 0
        assert first.stats() == solos[0]
        assert second.stats() == solos[1]
