"""Scenario fixtures: serializable scenarios and the corpus on disk.

A scenario is a named, fully serializable co-simulation configuration
plus its simulated horizon — everything the four oracles need to
re-run it bit-for-bit in a fresh process.  The corpus under
``tests/fixtures/scenarios/`` holds discovered-interesting scenarios
as ``repro-scenario/1`` JSON files; ``tests/fuzz/test_corpus.py``
replays every one of them as an ordinary pytest case.
"""

import json
import os
from dataclasses import dataclass

from repro.errors import CosimError
from repro.router.system import (RouterConfig, config_from_dict,
                                 config_to_dict, validate_config)

SCENARIO_SCHEMA = "repro-scenario/1"


@dataclass
class Scenario:
    """One named, replayable co-simulation scenario."""

    name: str
    sim_us: int
    config: RouterConfig

    def signature(self):
        """The coverage signature novelty tracking groups by."""
        config = self.config
        traffic = config.traffic or {}
        return (
            config.scheme,
            config.num_ports,
            len(config.stages) if config.stages else 1,
            traffic.get("kind", "bursty" if config.burst > 1
                        else "uniform"),
            config.fault_plan is not None,
            config.sync_quantum,
            config.num_cpus,
            config.dmi,
            config.tier,
        )


def scenario_to_dict(scenario):
    """The scenario as a plain-JSON ``repro-scenario/1`` record."""
    return {
        "schema": SCENARIO_SCHEMA,
        "name": scenario.name,
        "sim_us": scenario.sim_us,
        "config": config_to_dict(scenario.config),
    }


def scenario_from_dict(data):
    """Rebuild (and validate) a scenario from its JSON record."""
    if not isinstance(data, dict) or data.get("schema") != SCENARIO_SCHEMA:
        raise CosimError("not a %s record (schema=%r)"
                         % (SCENARIO_SCHEMA,
                            data.get("schema") if isinstance(data, dict)
                            else None))
    for key in ("name", "sim_us", "config"):
        if key not in data:
            raise CosimError("scenario record is missing %r" % key)
    config = config_from_dict(data["config"])
    # Fixtures always replay serial-vs-parallel explicitly; never let
    # the ambient REPRO_PARALLEL sweep leak into a stored scenario.
    if "parallel" not in data["config"]:
        config.parallel = None
    # Same shield for the dispatch tier: a fixture that predates the
    # tier axis replays on the default block tier, not REPRO_TIER.
    if "tier" not in data["config"]:
        config.tier = "blocks"
    validate_config(config)
    return Scenario(name=data["name"], sim_us=int(data["sim_us"]),
                    config=config)


def write_scenario(path, scenario):
    """Write a scenario fixture (stable formatting, trailing newline)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(scenario_to_dict(scenario), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return path


def load_scenario(path):
    """Load one scenario fixture; :class:`CosimError` on bad files."""
    if not os.path.exists(path):
        raise CosimError("scenario file %r does not exist" % path)
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise CosimError("scenario %r is unreadable or not JSON: %s"
                         % (path, error))
    return scenario_from_dict(data)


def corpus_paths(directory):
    """The scenario fixture files of *directory*, sorted by name."""
    if not os.path.isdir(directory):
        return []
    return [os.path.join(directory, name)
            for name in sorted(os.listdir(directory))
            if name.endswith(".json")]
