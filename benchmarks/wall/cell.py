"""One child process of the wall-time benchmark.

The runner (``run.py``) starts one of these per workload and
repetition.  It builds the workload's cells one at a time -- build, run,
record, and only then build the next -- and prints one JSON line::

    python benchmarks/wall/cell.py --workload table1 --seed 42 \\
        --t0 <time.monotonic() of the parent> [--traced] [--span-us N]

``--t0`` is the parent's monotonic clock just before it started this
process, so ``setup_s`` covers interpreter start, imports and the
summed build time of every cell.  The calibration loop is timed once
before the first cell and once after each cell (``calib_s``), so the
runner can scale each cell by the host's speed around it.
``--traced`` installs the ledger shims of ``ledger.py``; without it
they are never imported.  ``--span-us`` overrides the workload's
simulated span (warm-up runs).
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, router_config

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / "benchmarks" / "out"

CALIBRATION_STEPS = 500_000


def calibrate():
    """Seconds for a fixed pure-Python loop: the host's speed."""
    started = time.perf_counter()
    total = 0
    for step in range(CALIBRATION_STEPS):
        total += step * step % 7
    return time.perf_counter() - started


def fingerprint(system):
    """sha256 of the simulated outcome of a finished run.

    ``SystemStats`` minus its ``metrics`` counters, per-CPU retired
    instructions and cycles, and the kernel's simulated time.  Tier,
    DMI and protocol counters stay out, so optimisations may move them.
    """
    outcome = dataclasses.asdict(system.stats())
    del outcome["metrics"]
    outcome["cpus"] = [[cpu.instructions, cpu.cycles] for cpu in system.cpus]
    outcome["now"] = system.kernel.now
    text = json.dumps(outcome, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def counters(system):
    """The run's counters: ``CosimMetrics``, kernel, CPUs, observers
    and the dispatcher's ``ParallelStats`` (host-dependent)."""
    stats = system.stats()
    values = {name: value for name, value in stats.metrics.items()
              if type(value) is int}
    telemetry = system.telemetry
    tracer = system.tracer
    values.update(
        generated=stats.generated,
        forwarded=stats.forwarded,
        corrupt=stats.corrupt,
        instructions=sum(cpu.instructions for cpu in system.cpus),
        cycles=sum(cpu.cycles for cpu in system.cpus),
        timesteps=system.kernel.timestep_count,
        deltas=system.kernel.delta_count,
        telemetry_samples=(len(telemetry.series) + telemetry.series.evicted
                           if telemetry is not None else 0),
        trace_events=len(tracer) + tracer.dropped,
        trace_dropped=tracer.dropped,
    )
    if system.dispatcher is not None:
        parallel = dataclasses.asdict(system.dispatcher.stats)
        for name in ("rounds", "jobs", "serial_fallbacks", "commit_stalls",
                     "stall_seconds"):
            values["parallel_" + name] = parallel[name]
    return values


class Untraced:
    """Stands in for the ledger in measured runs: spans are no-ops."""

    def root(self):
        return contextlib.nullcontext()

    def span(self, layer, entry=None):
        return contextlib.nullcontext()


def _outcome(system):
    values = counters(system)
    problems = ["%s=%d" % (name, values[name])
                for name in ("corrupt", "contexts_quarantined")
                if values[name]]
    return {"fingerprint": fingerprint(system), "counters": values,
            "problems": problems}


def run_cell(name, scheme, seed, span_us, ledger=Untraced()):
    """Build, run and record one cell; returns its record."""
    from repro.router.system import RouterSystem
    from repro.sysc.simtime import US

    workload = WORKLOADS[name]
    config = router_config(name, scheme, seed)
    record = {"scheme": scheme, "sim_us": span_us}
    if workload.checkpoint_every:
        _run_resumed_cell(config, span_us * US, workload.checkpoint_every,
                          ledger, record)
        return record
    started = time.perf_counter()
    system = RouterSystem(config)
    record["build_s"] = time.perf_counter() - started
    try:
        started = time.perf_counter()
        with ledger.root():
            system.run(span_us * US)
        record["wall_s"] = time.perf_counter() - started
        record.update(_outcome(system))
    finally:
        system.close()
    return record


def _run_resumed_cell(config, span_fs, checkpoint_every, ledger, record):
    """Checkpointed straight run, then restore the latest checkpoint
    and run to the same end; the two must agree."""
    from repro.cosim.checkpoint import (CheckpointRunner, latest_checkpoint,
                                        restore_checkpoint)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="checkpoints-", dir=OUT_DIR)
    try:
        started = time.perf_counter()
        runner = CheckpointRunner(config, checkpoint_every=checkpoint_every,
                                  out_dir=out_dir)
        runner._build()     # as restore_checkpoint does, so build is setup
        record["build_s"] = time.perf_counter() - started
        try:
            started = time.perf_counter()
            with ledger.root():
                straight = runner.run(span_fs)
            record["wall_s"] = time.perf_counter() - started
            record.update(_outcome(runner.system))
        finally:
            runner.close()
        saved = [os.path.join(out_dir, name) for name in os.listdir(out_dir)
                 if name.startswith("checkpoint_")]
        record["checkpoint_saves"] = len(saved)
        record["checkpoint_bytes"] = sum(map(os.path.getsize, saved))
        latest = latest_checkpoint(out_dir)
        if latest is None:
            raise RuntimeError("the span ends before the first checkpoint")
        started = time.perf_counter()
        with ledger.root():
            with ledger.span("cosim.checkpoint", "restore_checkpoint"):
                restored = restore_checkpoint(latest)
            record["restore_s"] = time.perf_counter() - started
            try:
                resumed = restored.run(span_fs)
                resumed_fingerprint = fingerprint(restored.system)
            finally:
                restored.close()
        record["resume_s"] = time.perf_counter() - started
        if (dataclasses.asdict(resumed) != dataclasses.asdict(straight)
                or resumed_fingerprint != record["fingerprint"]):
            record["problems"].append("resumed run differs from straight run")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def peak_rss_mb():
    """Peak resident set of this process plus its reaped children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--span-us", type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    with contextlib.ExitStack() as stack:
        ledger = Untraced()
        if args.traced:
            from ledger import Ledger, installed
            ledger = stack.enter_context(installed(Ledger()))
        import repro.cosim.checkpoint    # noqa: F401  (imports are setup)
        import repro.router.system       # noqa: F401
        ready_s = time.monotonic() - args.t0
        workload = WORKLOADS[args.workload]
        span_us = args.span_us or workload.span_us
        cells = []
        calibrations = [calibrate()]
        for scheme in workload.cells:
            try:
                record = run_cell(args.workload, scheme, args.seed, span_us,
                                  ledger)
            except Exception as error:  # a failed cell is a result
                traceback.print_exc()
                record = {"scheme": scheme,
                          "error": "%s: %s" % (type(error).__name__, error)}
            if args.traced:
                record["ledger"] = ledger.take()
            cells.append(record)
            calibrations.append(calibrate())
    result = {
        "setup_s": ready_s + sum(cell.get("build_s", 0.0) for cell in cells),
        "calib_s": calibrations,
        "peak_rss_mb": peak_rss_mb(),
        "cells": cells,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
