"""Regenerate the golden trace snapshots in ``tests/obs/golden/``.

Run from the repository root::

    PYTHONPATH=src python tests/obs/regen_golden.py

The golden files pin the exact event stream of one small seeded
scenario per co-simulation scheme, in the canonical one-event-per-line
JSON of :func:`repro.obs.tracer.dump_events`.  The regression test
(``tests/obs/test_golden_traces.py``) replays the same scenario and
requires a byte-identical dump, so any change to instrumentation,
scheduling order or event content shows up as a reviewable diff here.

Only regenerate after verifying a diff is intentional.
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:      # standalone invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.scenarios import (COSIM_SCHEMES,  # noqa: E402
                                 quickstart_config, run_traced_scenario)
from repro.obs.tracer import dump_events, strip_header  # noqa: E402
from repro.sysc.simtime import US  # noqa: E402

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: The pinned scenario every golden file captures.  Changing any of
#: these invalidates all snapshots — regenerate and review the diff.
GOLDEN_SIM_US = 60
GOLDEN_PARAMS = dict(
    seed=7,
    max_packets=1,
    producer_count=2,
    inter_packet_delay=20 * US,
)

#: The batched variant of the same scenario.  Separate snapshots pin
#: the ``cosim/quantum_sync`` stream; the quantum-1 files above must
#: never change when batching code does (lock-step is byte-stable).
QUANTUM_GOLDEN = 8


def golden_path(scheme, quantum=1):
    """Where the snapshot for *scheme* (at *quantum*) lives."""
    if quantum == 1:
        return GOLDEN_DIR / ("%s.json" % scheme)
    return GOLDEN_DIR / ("%s_q%d.json" % (scheme, quantum))


def golden_trace_text(scheme, quantum=1):
    """Run the pinned scenario under *scheme*; canonical JSON lines.

    A truncated trace must never become (or be compared against) a
    golden: ring overflow raises instead of silently snapshotting the
    surviving suffix.
    """
    run = run_traced_scenario(
        quickstart_config(scheme, sync_quantum=quantum, **GOLDEN_PARAMS),
        sim_us=GOLDEN_SIM_US)
    if run.tracer.dropped:
        raise RuntimeError(
            "golden scenario overflowed the trace ring (%d dropped); "
            "raise the capacity before regenerating" % run.tracer.dropped)
    # Goldens hold events only: a `repro trace --format json` metadata
    # header (run parameters, repro version) never belongs in one, so
    # strip any that sneaks in through a future dump path.
    return strip_header(dump_events(run.tracer.events()))


def main():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scheme in COSIM_SCHEMES:
        for quantum in (1, QUANTUM_GOLDEN):
            text = golden_trace_text(scheme, quantum)
            path = golden_path(scheme, quantum)
            path.write_text(text)
            print("wrote %s (%d events, %d bytes)"
                  % (path, text.count("\n"), len(text)))


if __name__ == "__main__":
    main()
