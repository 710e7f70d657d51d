"""The four-part oracle on live scenarios."""

from repro.cosim.faults import FaultPlan
from repro.fuzz import run_oracles
from repro.fuzz.corpus import Scenario
from repro.fuzz.oracle import ORACLES, OracleResult
from repro.router.system import RouterConfig
from repro.sysc.simtime import US


def _scenario(name="probe", sim_us=60, **overrides):
    fields = dict(scheme="gdb-kernel", seed=11, max_packets=1,
                  producer_count=2, inter_packet_delay=20 * US,
                  num_ports=2, sync_quantum=4, num_cpus=1,
                  parallel=None, workers=2)
    fields.update(overrides)
    return Scenario(name=name, sim_us=sim_us,
                    config=RouterConfig(**fields))


class TestOracleResult:
    def test_failed_oracles_deduplicates_and_sorts(self):
        result = OracleResult(
            scenario=None, passed=False,
            failures=["checkpoint: a", "byte-identity: b",
                      "checkpoint: c"])
        assert result.failed_oracles() == ["byte-identity", "checkpoint"]
        assert set(result.failed_oracles()) <= set(ORACLES)

    def test_clean_result_has_no_failed_oracles(self):
        assert OracleResult(scenario=None, passed=True).failed_oracles() \
            == []


class TestRunOracles:
    def test_clean_scenario_passes_all_three(self):
        result = run_oracles(_scenario())
        assert result.passed, "\n".join(result.failures)
        assert not result.chaos
        assert result.failures == []

    def test_multi_stage_parallel_scenario_passes(self):
        result = run_oracles(_scenario(
            name="fabric", stages=[2, 2], num_cpus=2, sync_quantum=8,
            traffic={"kind": "bursty", "burst": 2, "p": 0.5}))
        assert result.passed, "\n".join(result.failures)

    def test_chaos_scenario_records_observations_not_failures(self):
        plan = FaultPlan(script={i: "drop" for i in range(6, 120, 5)},
                         delay_polls=2)
        result = run_oracles(_scenario(
            name="chaos", reliability=True, fault_plan=plan,
            sim_us=80))
        assert result.chaos
        # Byte-identity and checkpoint must hold even under chaos;
        # any health criticals land in observations.
        assert result.passed, "\n".join(result.failures)
        for note in result.observations:
            assert note.startswith(("expected-chaos", "chaos run died"))

    def test_checkpoint_oracle_can_be_disabled(self):
        result = run_oracles(_scenario(sim_us=40), checkpoint=False)
        assert result.passed
