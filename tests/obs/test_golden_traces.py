"""Golden-trace regression tests.

Each co-simulation scheme replays one small seeded scenario and must
reproduce the committed snapshot in ``tests/obs/golden/<scheme>.json``
byte for byte.  This locks in everything observable at once: the
kernel's delta/timestep scheduling order, every instrumented component's
event content, and the canonical serialisation format.

When a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/obs/regen_golden.py

and review the snapshot diff like any other code change.
"""

import json

import pytest

from repro.obs.scenarios import COSIM_SCHEMES
from repro.sysc.simtime import US

from tests.obs.regen_golden import (GOLDEN_PARAMS, GOLDEN_SIM_US,
                                    QUANTUM_GOLDEN, golden_path,
                                    golden_trace_text)

REGEN_HINT = ("golden trace drifted; if intentional, regenerate with "
              "`PYTHONPATH=src python tests/obs/regen_golden.py` and "
              "review the diff")


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
class TestGoldenTraces:
    def test_replay_is_byte_identical(self, scheme):
        snapshot = golden_path(scheme).read_text()
        assert golden_trace_text(scheme) == snapshot, REGEN_HINT

    def test_snapshot_is_canonical_json_lines(self, scheme):
        """Every snapshot line must parse and be in canonical form."""
        lines = golden_path(scheme).read_text().splitlines()
        assert lines
        sequences = []
        for line in lines:
            event = json.loads(line)
            assert set(event) == {"seq", "timestep", "delta", "now",
                                  "category", "name", "scope", "args"}
            # Canonical: sorted keys, no spaces.
            assert line == json.dumps(event, sort_keys=True,
                                      separators=(",", ":"))
            sequences.append(event["seq"])
        assert sequences == sorted(sequences)

    def test_snapshot_covers_every_layer(self, scheme):
        """The pinned scenario must exercise kernel, ISS and cosim
        instrumentation (otherwise the snapshot guards nothing)."""
        categories = {json.loads(line)["category"]
                      for line in golden_path(scheme).read_text()
                                                     .splitlines()}
        assert {"kernel", "iss", "cosim"} <= categories
        if scheme in ("gdb-wrapper", "gdb-kernel"):
            assert "rsp" in categories
        else:
            assert "driver" in categories


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
class TestQuantumGoldenTraces:
    """The batched (sync_quantum > 1) variant has its own snapshots.

    The quantum-1 files are covered above and must stay byte-identical
    whenever batching code changes; these pin the batched event stream
    — including every ``cosim/quantum_sync`` — just as tightly.
    """

    def test_replay_is_byte_identical(self, scheme):
        snapshot = golden_path(scheme, QUANTUM_GOLDEN).read_text()
        assert golden_trace_text(scheme, QUANTUM_GOLDEN) == snapshot, \
            REGEN_HINT

    def test_snapshot_contains_quantum_syncs(self, scheme):
        names = {json.loads(line)["name"]
                 for line in golden_path(scheme, QUANTUM_GOLDEN)
                 .read_text().splitlines()}
        assert "quantum_sync" in names

    def test_lockstep_snapshot_has_no_quantum_syncs(self, scheme):
        names = {json.loads(line)["name"]
                 for line in golden_path(scheme).read_text().splitlines()}
        assert "quantum_sync" not in names


def test_golden_params_are_pinned():
    """The regen script and this test must agree on the scenario; a
    drive-by change to the shared params should fail loudly here."""
    assert GOLDEN_SIM_US == 60
    assert GOLDEN_PARAMS == dict(seed=7, max_packets=1, producer_count=2,
                                 inter_packet_delay=20 * US)
