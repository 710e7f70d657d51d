"""Seeded scenario fuzzing with the health analyzer as oracle.

The package turns the deterministic invariants the earlier layers
established into a bug-finding engine (docs/fuzzing.md):

- :mod:`repro.fuzz.space` — a seeded scenario space composing
  topology x traffic model x fault plan x scheme x sync quantum x
  parallelism into serializable :class:`~repro.fuzz.corpus.Scenario`
  configs;
- :mod:`repro.fuzz.oracle` — the four-part pass/fail oracle: health
  analyzer findings, serial-vs-parallel trace/metrics byte-identity,
  the checkpoint save/restore/verify round-trip, and traced-vs-untraced
  fast-forward equivalence;
- :mod:`repro.fuzz.minimize` — greedy config shrinking of failing
  scenarios;
- :mod:`repro.fuzz.corpus` — JSON scenario fixtures under
  ``tests/fixtures/scenarios/`` and their replay helpers;
- :mod:`repro.fuzz.engine` — the ``repro fuzz`` loop tying it all
  together.
"""

from repro.fuzz.corpus import (SCENARIO_SCHEMA, Scenario, load_scenario,
                               scenario_from_dict, scenario_to_dict,
                               write_scenario)
from repro.fuzz.engine import FuzzSummary, run_fuzz
from repro.fuzz.minimize import minimize_scenario
from repro.fuzz.oracle import OracleResult, run_oracles
from repro.fuzz.space import ScenarioSpace

__all__ = [
    "SCENARIO_SCHEMA", "Scenario", "ScenarioSpace", "OracleResult",
    "FuzzSummary", "load_scenario", "minimize_scenario", "run_fuzz",
    "run_oracles", "scenario_from_dict", "scenario_to_dict",
    "write_scenario",
]
