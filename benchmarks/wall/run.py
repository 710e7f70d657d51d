"""Wall-time benchmark: the paper's Table 1 and three co-simulation workloads.

    python benchmarks/wall/run.py [--seed 42] [--reps 5] [--workload NAME]...
                                  [--seconds S] [--trace [0|1]] [--out FILE]

Needs no PYTHONPATH.  The runner is one process.  It first starts one
unmeasured warm-up child per workload, so the bytecode cache is warm,
then for each repetition runs each workload in turn in a fresh child
(``cell.py``).  ``--reps`` fixes the repetitions; ``--seconds`` instead
repeats while another round fits in S seconds per workload, and does at
least ``MIN_TIMED_REPS``.  ``--trace`` adds one traced child per
workload for the per-layer ledger.

The runner prints every metric by name with its unit, checks the
simulated outcomes (see README.md), writes the result JSON (default:
``benchmarks/out/``), and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace`` its per-layer ones.  It
exits 0 when no cell failed, 1 when one did, and 2 on bad usage or when
the program under test is missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SAME_OUTCOME, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
PINS_FILE = HERE / "fingerprints.json"
OUT_DIR = ROOT / "benchmarks" / "out"

MIN_TIMED_REPS = 5
WARMUP_SPAN_US = 100
CHILD_TIMEOUT_S = 150
#: A traced cell's layer self times must sum to its wall within this.
LEDGER_TOLERANCE = 0.02
#: The calibration loop's time on the reference host.  Gated times are
#: reference seconds: host seconds scaled by this over the calibration
#: timed around them, so they read as host seconds on a host that runs
#: the loop in this time.
REFERENCE_CALIB_S = 0.035

#: End-to-end metrics that exist only on some workloads.  BENCHMARK.json
#: lists the metrics every workload reports, so these live here; they
#: are printed, stored and compared all the same.
PARTIAL_END_TO_END = (
    {"name": "wall_s.gdb-wrapper", "unit": "s", "better": "lower",
     "bound": 0.25},
    {"name": "resume_s", "unit": "s", "better": "lower", "bound": 0.25},
)

#: The end-to-end metrics as the host clock read them.  Host speed on a
#: shared machine drifts by tens of percent within minutes, so they are
#: printed and stored but not gated.
HOST_END_TO_END = (
    {"name": "host_sim_us_per_s", "unit": "us/s"},
    {"name": "host_guest_mips", "unit": "MIPS"},
    {"name": "host_wall_s", "unit": "s"},
    {"name": "host_wall_s.gdb-wrapper", "unit": "s"},
    {"name": "host_wall_s.gdb-kernel", "unit": "s"},
    {"name": "host_wall_s.driver-kernel", "unit": "s"},
    {"name": "host_resume_s", "unit": "s"},
    {"name": "host_setup_s", "unit": "s"},
)

#: The layers the traced child times.
LAYERS = ("sysc", "iss", "gdb", "cosim.transfer", "cosim.dmi",
          "cosim.scheme", "cosim.channels", "rtos", "cosim.parallel",
          "cosim.checkpoint", "obs.telemetry")

#: A layer whose calls metric has a name of its own.
CALLS_NAME = {"gdb": "gdb.transactions"}

#: Per-layer counters: metric name -> the child counter summed over cells.
COUNTERS = {
    "sysc.timesteps": "timesteps",
    "sysc.deltas": "deltas",
    "iss.instructions": "instructions",
    "iss.cycles": "cycles",
    "iss.block_invalidations": "block_invalidations",
    "iss.superblocks_compiled": "superblocks_compiled",
    "iss.superblock_invalidations": "superblock_invalidations",
    "cosim.transfer.transactions": "transfer_transactions",
    "cosim.transfer.breakpoint_hits": "breakpoint_hits",
    "cosim.dmi.reads": "dmi_reads",
    "cosim.dmi.writes": "dmi_writes",
    "cosim.dmi.invalidations": "dmi_invalidations",
    "cosim.scheme.quantum_syncs": "quantum_syncs",
    "cosim.scheme.grants": "grants",
    "cosim.scheme.cheap_polls": "cheap_polls",
    "cosim.scheme.sync_transactions": "sync_transactions",
    "cosim.channels.messages_sent": "messages_sent",
    "cosim.channels.messages_received": "messages_received",
    "rtos.interrupts_posted": "interrupts_posted",
    "rtos.isr_dispatches": "isr_dispatches",
    "cosim.parallel.rounds": "parallel_rounds",
    "cosim.parallel.jobs": "parallel_jobs",
    "cosim.parallel.serial_fallbacks": "parallel_serial_fallbacks",
    "cosim.parallel.commit_stalls": "parallel_commit_stalls",
    "cosim.parallel.stall_s": "parallel_stall_seconds",
    "obs.telemetry.samples": "telemetry_samples",
    "obs.trace_events": "trace_events",
    "obs.trace_dropped": "trace_dropped",
}

#: The cross-engine round trips of ``repro.obs.bench.syncs_per_timestep``.
SYNC_COUNTERS = ("sync_transactions", "transfer_transactions", "grants",
                 "messages_sent", "messages_received")


class UsageError(Exception):
    """Bad arguments or a checkout without the program under test."""


def ratio(numerator, denominator):
    """*numerator* / *denominator*, or 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def summarize(values):
    """Median and quartiles (``statistics.quantiles``) of *values*."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    first, third = median, median
    if len(ordered) > 1:
        first, __, third = statistics.quantiles(ordered, n=4)
    return {"median": median, "q1": first, "q3": third, "n": len(ordered)}


def load_spec():
    """BENCHMARK.json, parsed."""
    try:
        return json.loads(BENCHMARK_FILE.read_text())
    except (OSError, ValueError) as error:
        raise UsageError("cannot read %s: %s" % (BENCHMARK_FILE, error))


def end_to_end_specs(spec):
    """Every gated end-to-end metric spec by name, partial ones
    included."""
    return {metric["name"]: metric
            for metric in spec["end_to_end"] + list(PARTIAL_END_TO_END)}


def load_pins():
    """``(seed, {workload: {scheme: fingerprint}})`` pinned outcomes."""
    pins = json.loads(PINS_FILE.read_text())
    return pins["seed"], pins["fingerprints"]


def git_sha():
    """The checkout's commit, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload, seed, traced=False, span_us=None):
    """Run one child; returns ``(result, None)`` or ``(None, why)``."""
    command = [sys.executable, str(HERE / "cell.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    if span_us is not None:
        command += ["--span-us", str(span_us)]
    command += ["--t0", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "child timed out after %ds" % CHILD_TIMEOUT_S
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, "child exit %d: %s" % (done.returncode, tail[0])
    return json.loads(lines[-1]), None


# -- outcome checks ---------------------------------------------------------

def check(workload, runs, references, pins):
    """Judge every cell of *runs* (``(child, why)`` pairs).

    Returns ``(attempted, failures)``: one ``"scheme: reasons"`` line
    per failed cell.  *references* maps ``(workload, scheme)`` to the
    fingerprint each cell must reproduce.  *pins* seeds it (at the
    pinned seed); otherwise the first cell seen sets it, and a workload
    listed in ``SAME_OUTCOME`` shares its partner's.
    """
    same = SAME_OUTCOME.get(workload, workload)
    cells = WORKLOADS[workload].cells
    attempted, failures = 0, []
    for child, why in runs:
        attempted += len(cells)
        if child is None:
            failures += ["%s: %s" % (scheme, why) for scheme in cells]
            continue
        for cell in child["cells"]:
            problems = list(cell.get("problems", ()))
            if "error" in cell:
                problems.append(cell["error"])
            else:
                key = (same, cell["scheme"])
                if pins is not None:
                    references.setdefault(key, pins.get(same, {}).get(
                        cell["scheme"], "(not pinned)"))
                expected = references.setdefault(key, cell["fingerprint"])
                if cell["fingerprint"] != expected:
                    problems.append("fingerprint %s.. != expected %s.."
                                    % (cell["fingerprint"][:12],
                                       expected[:12]))
                deviation = ledger_deviation(cell)
                if deviation > LEDGER_TOLERANCE:
                    problems.append("layer self times miss the wall by "
                                    "%.1f%%" % (100 * deviation))
            if problems:
                failures.append("%s: %s" % (cell["scheme"],
                                            "; ".join(problems)))
    return attempted, failures


def ledger_deviation(cell):
    """|sum of layer self times - timed wall| / wall (0 untraced)."""
    if "ledger" not in cell:
        return 0.0
    wall = cell["wall_s"] + cell.get("resume_s", 0.0)
    spent = sum(layer["self_s"]
                for layer in cell["ledger"]["layers"].values())
    return abs(spent - wall) / wall


# -- metrics -----------------------------------------------------------------

def end_to_end(child):
    """The end-to-end metrics of one repetition's child.

    Times are reference seconds: each cell's host seconds times
    ``REFERENCE_CALIB_S`` over the mean of the calibrations timed just
    before and after the cell; set-up time is scaled by the calibration
    that follows it.  The ``host_`` forms are the host clock's reading.
    """
    cells = child["cells"]
    calibrations = child["calib_s"]
    speeds = [2 * REFERENCE_CALIB_S / (before + after)
              for before, after in zip(calibrations, calibrations[1:])]
    sim_us = sum(cell["sim_us"] for cell in cells)
    instructions = sum(cell["counters"]["instructions"] for cell in cells)
    values = {
        "setup_s": child["setup_s"] * REFERENCE_CALIB_S / calibrations[0],
        "host_setup_s": child["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    for prefix, scales in (("", speeds), ("host_", [1.0] * len(cells))):
        run = resume = 0.0
        for cell, scale in zip(cells, scales):
            values["%swall_s.%s" % (prefix, cell["scheme"])] = (
                cell["wall_s"] * scale)
            run += cell["wall_s"] * scale
            resume += cell.get("resume_s", 0.0) * scale
        values[prefix + "wall_s"] = run + resume
        values[prefix + "sim_us_per_s"] = sim_us / run
        values[prefix + "guest_mips"] = instructions / run / 1e6
        if any("resume_s" in cell for cell in cells):
            values[prefix + "resume_s"] = resume
    return values


def layer_counters(child):
    """Per-layer metrics that every run reports, summed over cells."""
    cells = child["cells"]
    total = {}
    for cell in cells:
        for name, value in cell["counters"].items():
            total[name] = total.get(name, 0) + value
    values = {metric: total.get(counter, 0)
              for metric, counter in COUNTERS.items()}
    hits, compiled = total["block_hits"], total["blocks_compiled"]
    values["iss.block_hit_ratio"] = ratio(hits, hits + compiled)
    exits = total["superblock_exits"]
    values["iss.superblock_clean_exit_ratio"] = ratio(
        exits - total["superblock_side_exits"], exits)
    rounds = values["cosim.parallel.rounds"]
    values["cosim.parallel.engaged_ratio"] = ratio(
        rounds, rounds + values["cosim.parallel.serial_fallbacks"])
    packets = total["forwarded"]
    values["cosim.syncs_per_packet"] = ratio(
        sum(total[name] for name in SYNC_COUNTERS), packets)
    values["cosim.transfers_per_packet"] = ratio(
        total["transfer_transactions"], packets)
    values["cosim.messages_per_packet"] = ratio(
        total["messages_sent"] + total["messages_received"], packets)
    resumed = [cell for cell in cells if "restore_s" in cell]
    restore_s = sum(cell["restore_s"] for cell in resumed)
    values["cosim.checkpoint.saves"] = sum(cell["checkpoint_saves"]
                                           for cell in resumed)
    values["cosim.checkpoint.bytes"] = sum(cell["checkpoint_bytes"]
                                           for cell in resumed)
    values["cosim.checkpoint.restore_s"] = restore_s
    values["cosim.checkpoint.replay_ratio"] = ratio(
        restore_s, sum(cell["wall_s"] for cell in resumed))
    return values


def layer_times(cells):
    """``{layer: {"self_s", "calls"}}`` summed over traced *cells*."""
    layers = {}
    for cell in cells:
        for layer, spent in cell["ledger"]["layers"].items():
            total = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            total["self_s"] += spent["self_s"]
            total["calls"] += spent["calls"]
    return layers


def layer_shares(cells):
    """``{layer: share of the summed self time}`` of traced *cells*."""
    layers = layer_times(cells)
    spent = sum(total["self_s"] for total in layers.values())
    return {layer: ratio(total["self_s"], spent)
            for layer, total in layers.items()}


def traced_metrics(traced, counters, untraced_wall_s):
    """Self time, calls and share per layer, from the traced child,
    and the metrics derived from them."""
    layers = layer_times(traced["cells"])
    shares = layer_shares(traced["cells"])
    values = {}
    for layer in LAYERS:
        total = layers.get(layer, {"self_s": 0.0, "calls": 0})
        values[layer + ".self_s"] = total["self_s"]
        values[CALLS_NAME.get(layer, layer + ".calls")] = total["calls"]
        values[layer + ".share"] = shares.get(layer, 0.0)
    values["iss.mips"] = ratio(counters["iss.instructions"],
                               values["iss.self_s"]) / 1e6
    values["gdb.us_per_transaction"] = 1e6 * ratio(
        values["gdb.self_s"], values["gdb.transactions"])
    values["sysc.us_per_timestep"] = 1e6 * ratio(
        values["sysc.self_s"], counters["sysc.timesteps"])
    values["cosim.checkpoint.save_s"] = sum(
        cell["ledger"]["entries"].get("CheckpointRunner.save",
                                      {"total_s": 0.0})["total_s"]
        for cell in traced["cells"])
    values["trace.overhead_ratio"] = ratio(end_to_end(traced)["wall_s"],
                                           untraced_wall_s)
    return values


def measure(name, children, traced, references, pins):
    """The report of one workload: checks, samples and summaries."""
    runs = children + ([traced] if traced is not None else [])
    attempted, failures = check(name, runs, references, pins)
    good = [child for child, __ in children
            if child is not None
            and not any("error" in cell for cell in child["cells"])]
    samples = {}
    for child in good:
        for metric, value in end_to_end(child).items():
            samples.setdefault(metric, []).append(value)
    report = {
        "cells": list(WORKLOADS[name].cells),
        "why": WORKLOADS[name].why,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": ratio(len(failures), attempted),
        "failures": failures,
        "samples": samples,
        "summary": {metric: summarize(values)
                    for metric, values in samples.items()},
        "fingerprints": {cell["scheme"]: cell["fingerprint"]
                         for cell in good[0]["cells"]} if good else {},
        "per_cell": {cell["scheme"]: layer_counters({"cells": [cell]})
                     for cell in good[0]["cells"]} if good else {},
        "calib_s": [child["calib_s"] for child, __ in runs
                    if child is not None],
    }
    if traced is not None and traced[0] is not None and good:
        counted = [layer_counters(child) for child in good]
        counters = {metric: statistics.median(run[metric] for run in counted)
                    for metric in counted[0]}
        traced_cells = [cell for cell in traced[0]["cells"]
                        if "error" not in cell]
        report["per_layer"] = dict(counters, **traced_metrics(
            traced[0], counters, report["summary"]["wall_s"]["median"]))
        report["per_cell_shares"] = {cell["scheme"]: layer_shares([cell])
                                     for cell in traced_cells}
        report["ledger_deviation"] = max(
            (ledger_deviation(cell) for cell in traced_cells), default=0.0)
        report["entries"] = {cell["scheme"]: cell["ledger"]["entries"]
                             for cell in traced_cells}
    return report


# -- output ------------------------------------------------------------------

def print_report(name, report, specs, per_layer_specs):
    print("\n== %s: n=%d reps; cells %s" % (
        name, report["summary"].get("wall_s", {}).get("n", 0),
        ", ".join(report["cells"])))
    print("   %s" % report["why"])
    print("   %-24s %-12s %12s %12s %12s  %s" % (
        "metric", "unit", "median", "q1", "q3", "bound"))
    for metric, spec in list(specs.items()) + [
            (metric["name"], metric) for metric in HOST_END_TO_END]:
        summary = report["summary"].get(metric)
        if summary is not None:
            print("   %-24s %-12s %12.6g %12.6g %12.6g  %s" % (
                metric, spec["unit"], summary["median"], summary["q1"],
                summary["q3"], spec.get("bound", "host clock, not gated")))
    print("   %-24s %-12s %12.6g   (%d of %d cells failed)" % (
        "error_rate", "ratio", report["error_rate"], report["failed"],
        report["attempted"]))
    for failure in report["failures"]:
        print("   FAILED %s" % failure)
    walls = {scheme: report["summary"].get("wall_s." + scheme)
             for scheme in report["cells"]}
    if walls.get("gdb-wrapper"):
        base = walls["gdb-wrapper"]["median"]
        print("   speed-up over gdb-wrapper (paper Table 1: 1.3x, 3x): "
              + ", ".join("%s %.2fx" % (scheme, base / wall["median"])
                          for scheme, wall in walls.items()
                          if scheme != "gdb-wrapper"))
    if "per_layer" not in report:
        return
    layer_values = report["per_layer"]
    print("   per layer (one traced child; self times sum to each cell's "
          "wall within %.2f%%):" % (100 * report["ledger_deviation"]))
    for metric, spec in per_layer_specs.items():
        print("   %-36s %-6s %14.6g" % (metric, spec["unit"],
                                        layer_values[metric]))
    for scheme, shares in report["per_cell_shares"].items():
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        print("   %s shares: %s" % (scheme, ", ".join(
            "%s %.0f%%" % (layer, 100 * share)
            for layer, share in ranked if share >= 0.005)))


def contract_line(reports, names, trace, spec):
    """The last stdout line: ``correct``, ``attempted``, ``failed``,
    ``metrics`` (prefixed ``workload/`` when several ran)."""
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for name in names:
        report = reports[name]
        prefix = "" if len(names) == 1 else name + "/"
        for metric in specs:
            if trace:
                value = report.get("per_layer", {}).get(metric["name"])
            else:
                value = report["summary"].get(metric["name"], {}).get(
                    "median")
            if value is not None:
                metrics[prefix + metric["name"]] = {"value": value,
                                                    "unit": metric["unit"]}
    failed = sum(reports[name]["failed"] for name in names)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(reports[name]["attempted"] for name in names),
        "failed": failed,
        "metrics": metrics,
    })


def repeat(names, args):
    """Warm up, then run every workload once per repetition.

    Returns ``({workload: [(child, why)]}, repetitions)``.
    """
    for name in names:
        spawn(name, args.seed, span_us=WARMUP_SPAN_US)
    children = {name: [] for name in names}
    started = time.monotonic()
    reps = 0
    while True:
        for name in names:
            children[name].append(spawn(name, args.seed))
        reps += 1
        if args.seconds is None:
            if reps >= args.reps:
                return children, reps
        elif reps >= MIN_TIMED_REPS:
            elapsed = time.monotonic() - started
            if elapsed / reps * (reps + 1) > args.seconds * len(names):
                return children, reps


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Wall-time benchmark of the co-simulation schemes.")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=5,
                        help="repetitions (ignored with --seconds)")
    parser.add_argument("--seconds", type=float,
                        help="repeat while another round fits in S seconds "
                        "per workload, at least %d times" % MIN_TIMED_REPS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced ledger pass")
    parser.add_argument("--out", type=Path, help="result JSON file")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise UsageError("the program under test is missing: no %s"
                             % (ROOT / "src" / "repro"))
        spec = load_spec()
        pin_seed, pins = load_pins()
    except (UsageError, OSError, ValueError) as error:
        print("run.py: %s" % error, file=sys.stderr)
        return 2
    selected = set(args.workload or WORKLOADS)
    names = [name for name in WORKLOADS if name in selected]
    children, reps = repeat(names, args)
    traced = {name: spawn(name, args.seed, traced=True) if args.trace
              else None for name in names}

    references = {}
    reports = {name: measure(name, children[name], traced[name], references,
                             pins if args.seed == pin_seed else None)
               for name in names}
    specs = end_to_end_specs(spec)
    per_layer_specs = {metric["name"]: metric for metric in spec["per_layer"]}
    for name in names:
        print_report(name, reports[name], specs, per_layer_specs)
    calib = [value for name in names for child in reports[name]["calib_s"]
             for value in child]
    result = {
        "schema": "repro-wall/1",
        "git_sha": git_sha(),
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "reps": reps,
        "trace": bool(args.trace),
        "host": {"calib_s": statistics.median(calib) if calib else None},
        "workloads": reports,
    }
    out = args.out or OUT_DIR / ("wall-%s-seed%d-%d.json" % (
        time.strftime("%Y%m%dT%H%M%S"), args.seed, os.getpid()))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("\nhost.calib_s %.6g s (git %s, seed %d, nproc %d); result: %s"
          % (result["host"]["calib_s"] or 0.0, result["git_sha"], args.seed,
             result["nproc"], out))
    print(contract_line(reports, names, args.trace, spec))
    return 1 if any(reports[name]["failed"] for name in names) else 0


if __name__ == "__main__":
    sys.exit(main())
