"""Machine-readable benchmark reporting (``BENCH_<name>.json``).

Every benchmark run writes one JSON file conforming to the
``repro-bench/1`` schema (documented in ``docs/observability.md``):

- deterministic fields — ``counters`` (simulated timesteps, sync
  messages, scheme counters…) and ``config`` — are identical across
  repeated seeded runs, which the determinism tests assert;
- host-dependent fields live exclusively under the ``wall`` object
  (seconds, events/sec) so consumers can diff everything else.

:class:`BenchReporter` owns an output directory and writes
:class:`BenchRun` records; the ``benchmarks/conftest.py`` fixture wraps
every benchmark test in one, and ``repro bench`` produces them from the
command line.
"""

import json
import os
import re
import time
from dataclasses import dataclass, field

SCHEMA = "repro-bench/1"

#: Environment variable overriding the reporter output directory.
OUTPUT_DIR_ENV = "REPRO_BENCH_DIR"

#: Where records land when neither a directory argument nor the
#: environment override names one.  A real directory (not ``"."``) so
#: a benchmark run from the repository root never strands ``BENCH_*``
#: artifacts next to tracked files.
DEFAULT_OUTPUT_DIR = os.path.join("benchmarks", "out")


def sanitize_name(name):
    """Collapse a test/scenario id into a safe file-name fragment."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_")


@dataclass
class BenchRun:
    """One benchmark result being assembled."""

    name: str
    counters: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    # Extra host-dependent entries merged into the ``wall`` object
    # (e.g. parallel-dispatcher utilization and stall counters).
    wall_extra: dict = field(default_factory=dict)
    # The ``profile`` section: deterministic execution-profile data
    # (e.g. ``hot_blocks``) that is informative rather than gated —
    # compare_reports only examines ``counters``.
    profile: dict = field(default_factory=dict)
    _start: float = None

    def start(self):
        """Start (or restart) the wall clock; returns self."""
        self._start = time.perf_counter()
        return self

    def stop(self):
        """Stop the wall clock, accumulating into :attr:`wall_seconds`."""
        if self._start is not None:
            self.wall_seconds += time.perf_counter() - self._start
            self._start = None
        return self.wall_seconds

    def record(self, **counters):
        """Merge deterministic counters into the record."""
        self.counters.update(counters)

    def record_metrics(self, metrics):
        """Merge a :class:`~repro.cosim.metrics.CosimMetrics` bundle."""
        if metrics.scheme:
            self.config.setdefault("scheme", metrics.scheme)
        self.record(**metrics.counters())

    def as_dict(self):
        """The finished record in ``repro-bench/1`` shape."""
        events = self.counters.get("trace_events", 0)
        timesteps = self.counters.get("sc_timesteps", 0)
        wall = {"seconds": round(self.wall_seconds, 6)}
        if self.wall_seconds > 0:
            if events:
                wall["events_per_sec"] = round(events / self.wall_seconds, 1)
            if timesteps:
                wall["timesteps_per_sec"] = round(
                    timesteps / self.wall_seconds, 1)
        wall.update(self.wall_extra)
        return {
            "schema": SCHEMA,
            "name": self.name,
            "config": dict(self.config),
            "counters": dict(self.counters),
            "profile": dict(self.profile),
            "wall": wall,
        }


class BenchReporter:
    """Writes ``BENCH_<name>.json`` files into one directory."""

    def __init__(self, directory=None):
        if directory is None:
            directory = (os.environ.get(OUTPUT_DIR_ENV)
                         or DEFAULT_OUTPUT_DIR)
        self.directory = directory
        self.written = []

    def open_run(self, name):
        """A new :class:`BenchRun` with its wall clock started."""
        return BenchRun(name=sanitize_name(name)).start()

    def path_for(self, run):
        """The output path *run* will be written to."""
        return os.path.join(self.directory, "BENCH_%s.json" % run.name)

    def write(self, run):
        """Finalise *run* and write its JSON file; returns the path."""
        run.stop()
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(run)
        with open(path, "w") as handle:
            json.dump(run.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        self.written.append(path)
        return path


def load_report(path):
    """Read one ``BENCH_*.json`` file back, validating its schema tag."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ValueError("%s: unknown bench schema %r"
                         % (path, data.get("schema")))
    return data


def syncs_per_timestep(report):
    """Synchronisation round trips per SystemC timestep in *report*.

    Counts every cross-engine transaction a scheme performs — RSP sync
    and transfer exchanges, budget grant+drive round trips, and
    Driver-Kernel data messages — divided by the timesteps simulated.
    This is the deterministic figure the regression gate tracks: it
    moves when a change adds or removes round trips, and is immune to
    host speed.
    """
    counters = report.get("counters", {})
    timesteps = counters.get("sc_timesteps", 0)
    if not timesteps:
        return 0.0
    syncs = (counters.get("sync_transactions", 0)
             + counters.get("transfer_transactions", 0)
             + counters.get("grants", 0)
             + counters.get("messages_sent", 0)
             + counters.get("messages_received", 0))
    return syncs / timesteps


def compare_reports(current, baseline, tolerance=0.10):
    """Gate *current* against *baseline* (both ``repro-bench/1`` dicts).

    Returns a list of human-readable regression strings — empty when
    the gate passes.  Only deterministic counters are compared:

    - ``syncs_per_timestep`` may not exceed the baseline by more than
      *tolerance* (the CI failure condition);
    - ``instructions_per_sync`` is reported informationally when it
      drops by more than *tolerance* (more syncs for the same work);
    - ``block_invalidations`` and ``superblock_invalidations`` may not
      rise at all: host writes invalidate word-precisely, so a rise
      means compiled code is being thrown away again.
    """
    problems = []
    current_spt = syncs_per_timestep(current)
    baseline_spt = syncs_per_timestep(baseline)
    if baseline_spt > 0 and current_spt > baseline_spt * (1.0 + tolerance):
        problems.append(
            "syncs-per-timestep regressed: %.4f -> %.4f (>%d%% over baseline)"
            % (baseline_spt, current_spt, round(tolerance * 100)))
    cur_counters = current.get("counters", {})
    base_counters = baseline.get("counters", {})
    cur_instr = cur_counters.get("iss_instructions", 0)
    base_instr = base_counters.get("iss_instructions", 0)
    cur_syncs = cur_counters.get("quantum_syncs", 0) or \
        cur_counters.get("sc_timesteps", 0)
    base_syncs = base_counters.get("quantum_syncs", 0) or \
        base_counters.get("sc_timesteps", 0)
    if base_syncs and cur_syncs and base_instr:
        cur_ips = cur_instr / cur_syncs
        base_ips = base_instr / base_syncs
        if cur_ips < base_ips * (1.0 - tolerance):
            problems.append(
                "instructions-per-sync dropped: %.1f -> %.1f"
                % (base_ips, cur_ips))
    for name in ("block_invalidations", "superblock_invalidations"):
        cur_value = cur_counters.get(name, 0)
        base_value = base_counters.get(name, 0)
        if cur_value > base_value:
            problems.append("%s rose over baseline: %d -> %d"
                            % (name, base_value, cur_value))
    return problems
