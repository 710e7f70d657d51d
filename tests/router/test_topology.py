"""Parameterized NxN / multi-stage topology: validation, serialization
and the end-to-end acceptance runs the fuzzer builds on."""

import pytest

from repro.cosim.faults import FaultPlan
from repro.errors import CosimError, ReproError
from repro.obs.scenarios import (COSIM_SCHEMES, quickstart_config,
                                 run_traced_scenario)
from repro.obs.tracer import dump_events
from repro.router.routing_table import RoutingTable
from repro.router.system import (RouterConfig, config_from_dict,
                                 config_to_dict, validate_config)
from repro.sysc.simtime import US


def _config(**overrides):
    fields = dict(scheme="gdb-kernel", seed=5, max_packets=1,
                  producer_count=2, inter_packet_delay=20 * US,
                  parallel=None)
    fields.update(overrides)
    return RouterConfig(**fields)


class TestValidateConfig:
    def test_paper_default_is_valid(self):
        validate_config(_config())

    @pytest.mark.parametrize("ports", [2, 3, 5])
    def test_non_paper_widths_are_valid(self, ports):
        validate_config(_config(num_ports=ports))

    def test_square_fabric_is_valid(self):
        validate_config(_config(num_ports=3, stages=[3, 3, 3]))

    def test_rejects_single_port_router(self):
        with pytest.raises(CosimError, match="num_ports"):
            validate_config(_config(num_ports=1))

    def test_rejects_unknown_scheme(self):
        with pytest.raises(CosimError, match="scheme"):
            validate_config(_config(scheme="qemu"))

    def test_rejects_empty_stage_list(self):
        with pytest.raises(CosimError, match="stages"):
            validate_config(_config(stages=[]))

    def test_rejects_non_square_fabric(self):
        with pytest.raises(CosimError, match="non-square"):
            validate_config(_config(num_ports=4, stages=[4, 3]))

    def test_rejects_non_integer_stage_width(self):
        with pytest.raises(CosimError, match="stage widths"):
            validate_config(_config(stages=["4"]))

    def test_rejects_unknown_traffic_kind(self):
        with pytest.raises(CosimError, match="unknown kind"):
            validate_config(_config(traffic={"kind": "poisson"}))

    def test_rejects_bad_traffic_parameters(self):
        with pytest.raises(CosimError, match="burst"):
            validate_config(_config(traffic={"kind": "bursty",
                                             "burst": 0}))
        with pytest.raises(CosimError, match="trace"):
            validate_config(_config(traffic={"kind": "trace",
                                             "gaps": []}))

    def test_rejects_burst_below_one(self):
        with pytest.raises(CosimError, match="burst"):
            validate_config(_config(burst=0))

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(CosimError, match="inter_packet_delay"):
            validate_config(_config(inter_packet_delay=0))

    def test_rejects_zero_cpus(self):
        with pytest.raises(CosimError, match="num_cpus"):
            validate_config(_config(num_cpus=0))

    def test_error_messages_are_one_line(self):
        """The CLI prints these verbatim (exit 2): keep them one line."""
        for broken in (_config(num_ports=1), _config(stages=[4, 3]),
                       _config(traffic={"kind": "poisson"})):
            with pytest.raises(CosimError) as caught:
                validate_config(broken)
            assert "\n" not in str(caught.value)


class TestConfigRoundTrip:
    def test_topology_and_traffic_round_trip(self):
        config = _config(
            num_ports=3, stages=[3, 3],
            traffic={"kind": "onoff", "on_mean": 2, "off_mean": 4},
            burst=2, sync_quantum=8, num_cpus=2,
            fault_plan=FaultPlan(seed=9, script={4: "drop"}),
            reliability=True, watchdog_ticks=400)
        clone = config_from_dict(config_to_dict(config))
        assert config_to_dict(clone) == config_to_dict(config)
        assert clone.stages == [3, 3]
        assert clone.traffic == {"kind": "onoff", "on_mean": 2,
                                 "off_mean": 4}
        assert clone.fault_plan.script == {4: "drop"}
        validate_config(clone)

    def test_flat_topology_serializes_stages_as_null(self):
        data = config_to_dict(_config(num_ports=5))
        assert data["stages"] is None
        assert data["num_ports"] == 5
        assert config_from_dict(data).stages is None

    def test_traffic_model_instance_normalizes_to_spec(self):
        from repro.router.traffic import BurstyTraffic
        config = _config(traffic=BurstyTraffic(20 * US, 3))
        data = config_to_dict(config)
        assert data["traffic"] == {"kind": "bursty", "burst": 3}


class TestStageModulo:
    def test_egress_stage_matches_single_router_table(self):
        fabric = RoutingTable.stage_modulo(16, 4, stage=1, num_stages=2)
        flat = RoutingTable.modulo(16, 4)
        for address in range(16):
            assert fabric.lookup(address) == flat.lookup(address)

    def test_depth_one_fabric_is_the_flat_table(self):
        fabric = RoutingTable.stage_modulo(16, 4, stage=0, num_stages=1)
        for address in range(16):
            assert fabric.lookup(address) == address % 4

    def test_stages_route_on_address_digits(self):
        # address 13 = 31 in base 4: stage 0 routes on the high digit.
        assert RoutingTable.stage_modulo(
            16, 4, stage=0, num_stages=2).lookup(13) == 3
        assert RoutingTable.stage_modulo(
            16, 4, stage=1, num_stages=2).lookup(13) == 1

    def test_every_stage_covers_the_address_space(self):
        for stage in range(3):
            table = RoutingTable.stage_modulo(8, 2, stage, 3)
            assert len(table) == 8
            for address in range(8):
                assert 0 <= table.lookup(address) < 2

    def test_stage_outside_fabric_raises(self):
        with pytest.raises(ReproError):
            RoutingTable.stage_modulo(16, 4, stage=2, num_stages=2)


#: The issue's acceptance topologies: one NxN with N != 4, one fabric.
TOPOLOGIES = [
    pytest.param(dict(num_ports=5, stages=None), id="flat-5x5"),
    pytest.param(dict(num_ports=2, stages=[2, 2]), id="fabric-2x2x2"),
]


class TestTopologyEndToEnd:
    """Every scheme runs both acceptance topologies, and the parallel
    dispatcher stays byte-identical to serial on them."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("scheme", COSIM_SCHEMES)
    def test_serial_parallel_byte_identity(self, scheme, topology):
        def outcome(parallel):
            run = run_traced_scenario(quickstart_config(
                scheme, seed=23, max_packets=1, sync_quantum=4,
                parallel=parallel, **topology), sim_us=60)
            try:
                return (dump_events(run.tracer.events()),
                        run.system.metrics.as_dict(),
                        (run.stats.generated, run.stats.forwarded,
                         run.stats.received, run.stats.corrupt))
            finally:
                run.system.close()
        serial = outcome(False)
        assert serial == outcome("thread")
        assert serial[2][0] > 0          # generated
        assert serial[2][2] > 0          # received end-to-end

    def test_fabric_forwards_through_every_stage(self):
        run = run_traced_scenario(quickstart_config(
            "gdb-kernel", seed=11, num_ports=2, stages=[2, 2]), sim_us=80)
        try:
            assert len(run.system.routers) == 2
            for router in run.system.routers:
                assert router.forwarded > 0
            assert run.stats.received > 0
        finally:
            run.system.close()
