"""The corpus replay harness (docs/fuzzing.md).

Every scenario fixture under ``tests/fixtures/scenarios/`` replays as
an ordinary pytest case judged by the full four-part oracle, so a
regression that breaks any discovered-interesting composition fails CI
with the scenario's name.  The corpus was produced by
``repro fuzz --seed 7 --budget 24 --write-corpus``; regenerating with
the same seed reproduces it byte-for-byte.
"""

import json
import os

import pytest

from repro.errors import CosimError
from repro.fuzz import (SCENARIO_SCHEMA, load_scenario, run_oracles,
                        scenario_from_dict, scenario_to_dict)
from repro.fuzz.corpus import Scenario, corpus_paths
from tests.support import config_values, every_field_config

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "fixtures", "scenarios")
CORPUS = corpus_paths(CORPUS_DIR)


def _ids(paths):
    return [os.path.splitext(os.path.basename(path))[0]
            for path in paths]


@pytest.mark.parametrize("path", CORPUS, ids=_ids(CORPUS))
def test_fixture_replays_green(path):
    scenario = load_scenario(path)
    result = run_oracles(scenario)
    assert result.passed, "\n".join(result.failures)


class TestCorpusCoverage:
    """The committed corpus must keep exercising the interesting axes."""

    def test_corpus_is_nonempty(self):
        assert len(CORPUS) >= 10

    def test_covers_all_three_schemes(self):
        schemes = {load_scenario(path).config.scheme for path in CORPUS}
        assert schemes == {"gdb-wrapper", "gdb-kernel", "driver-kernel"}

    def test_covers_non_paper_width_and_multi_stage(self):
        scenarios = [load_scenario(path) for path in CORPUS]
        assert any(s.config.num_ports != 4 and s.config.stages is None
                   for s in scenarios), "no NxN (N != 4) scenario"
        assert any(s.config.stages and len(s.config.stages) >= 2
                   for s in scenarios), "no multi-stage scenario"

    def test_covers_traffic_models_and_chaos(self):
        scenarios = [load_scenario(path) for path in CORPUS]
        kinds = {(s.config.traffic or {}).get("kind", "legacy")
                 for s in scenarios}
        assert {"uniform", "bursty", "onoff", "trace"} <= kinds
        assert any(s.config.fault_plan is not None for s in scenarios)

    def test_covers_the_superblock_tier(self):
        """Superblock fixtures span all three schemes and include a
        chaos composition; the slow interpreter reference is sampled
        too (docs/performance.md)."""
        scenarios = [load_scenario(path) for path in CORPUS]
        hot = [s for s in scenarios if s.config.tier == "superblocks"]
        assert len(hot) >= 3
        assert {s.config.scheme for s in hot} \
            == {"gdb-wrapper", "gdb-kernel", "driver-kernel"}
        assert any(s.config.fault_plan is not None for s in hot)
        assert any(s.config.tier == "interp" for s in scenarios)

    def test_covers_the_dmi_tier(self):
        """DMI fixtures span all three schemes (docs/dmi.md), and the
        dmi-safe contract keeps the axis off faulty scenarios."""
        scenarios = [load_scenario(path) for path in CORPUS]
        dmi_schemes = {s.config.scheme for s in scenarios if s.config.dmi}
        assert dmi_schemes == {"gdb-wrapper", "gdb-kernel",
                               "driver-kernel"}
        assert all(s.config.fault_plan is None for s in scenarios
                   if s.config.dmi)


class TestScenarioSerialization:
    def test_round_trip(self):
        scenario = load_scenario(CORPUS[0])
        clone = scenario_from_dict(scenario_to_dict(scenario))
        assert scenario_to_dict(clone) == scenario_to_dict(scenario)
        assert clone.name == scenario.name
        assert clone.sim_us == scenario.sim_us

    def test_round_trip_keeps_every_config_field(self):
        scenario = Scenario(name="every_field", sim_us=90,
                            config=every_field_config())
        clone = scenario_from_dict(scenario_to_dict(scenario))
        assert config_values(clone.config) == config_values(scenario.config)

    def test_fixture_files_match_canonical_form(self):
        """Committed fixtures are exactly what write_scenario emits."""
        for path in CORPUS:
            with open(path) as handle:
                text = handle.read()
            data = json.loads(text)
            assert data["schema"] == SCENARIO_SCHEMA
            canonical = json.dumps(scenario_to_dict(
                scenario_from_dict(data)), indent=2, sort_keys=True) + "\n"
            assert text == canonical, "%s is not canonical" % path

    def test_rejects_wrong_schema(self):
        with pytest.raises(CosimError):
            scenario_from_dict({"schema": "other/9", "name": "x",
                                "sim_us": 1, "config": {}})

    def test_rejects_missing_keys(self):
        with pytest.raises(CosimError):
            scenario_from_dict({"schema": SCENARIO_SCHEMA, "name": "x"})

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(CosimError):
            load_scenario(str(tmp_path / "absent.json"))

    def test_stored_parallel_null_shields_environment(self, monkeypatch):
        """A fixture without an explicit parallel field never inherits
        the ambient REPRO_PARALLEL sweep."""
        data = scenario_to_dict(load_scenario(CORPUS[0]))
        del data["config"]["parallel"]
        monkeypatch.setenv("REPRO_PARALLEL", "thread")
        scenario = scenario_from_dict(data)
        assert scenario.config.parallel is None

    def test_stored_tier_default_shields_environment(self, monkeypatch):
        """A fixture predating the tier axis replays on the block tier
        regardless of the ambient REPRO_TIER default."""
        data = scenario_to_dict(load_scenario(CORPUS[0]))
        del data["config"]["tier"]
        monkeypatch.setenv("REPRO_TIER", "superblocks")
        scenario = scenario_from_dict(data)
        assert scenario.config.tier == "blocks"
