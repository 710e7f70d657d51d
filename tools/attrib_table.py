"""Emit the per-layer wall-time attribution table (markdown).

Run:  PYTHONPATH=src python tools/attrib_table.py [--sim-us N] [-o FILE]

Runs the quickstart-scale router scenario under each co-simulation
scheme with the attribution profiler attached (``repro.obs.attrib``)
and renders where the host's wall clock went: per-tier ISS execution,
scheme transport work, and the SystemC scheduler residual — plus the
superblock side-exit hot spots of the checksum guest, the
superblock re-profiling candidates.  CI's fast-bench job
uploads the table as a build artifact; wall-clock figures are host
numbers, so the table is informative — the committed BENCH baselines
gate the deterministic counters.
"""

import argparse
import sys
import time

from repro.obs.attrib import (AttributionProfiler, attrib_summary,
                              side_exit_profile)
from repro.obs.scenarios import COSIM_SCHEMES, run_traced_scenario


def measure(scheme, sim_us, repeats=3, **overrides):
    """Best-of-N ``(wall, attrib summary)`` for one scheme."""
    best = None
    for __ in range(repeats):
        profiler = AttributionProfiler()
        start = time.perf_counter()
        run = run_traced_scenario(scheme, sim_us=sim_us,
                                  attrib=profiler, **overrides)
        wall = time.perf_counter() - start
        run.system.close()
        if best is None or wall < best[0]:
            best = (wall, attrib_summary(profiler, wall_seconds=wall))
    return best


def attrib_table(sim_us, repeats=3):
    """The attribution comparison as markdown lines."""
    lines = [
        "# Co-simulation wall-time attribution",
        "",
        "Best-of-%d exclusive seconds per layer, %d simulated us per"
        % (repeats, sim_us),
        "scheme (docs/observability.md).  Host wall-clock figures:",
        "informative, not gated.",
        "",
        "| scheme | layer | seconds | share | calls |",
        "|---|---|---:|---:|---:|",
    ]
    for scheme in COSIM_SCHEMES:
        wall, summary = measure(scheme, sim_us, repeats)
        for layer, entry in summary["buckets"].items():
            lines.append("| %s | %s | %.4f | %4.1f%% | %d |"
                         % (scheme, layer, entry["seconds"],
                            100 * entry.get("share", 0.0),
                            entry["calls"]))
    lines.extend([
        "",
        "## Superblock side-exit hot spots (checksum guest)",
        "",
        "| site | exits |",
        "|---|---:|",
    ])
    run = run_traced_scenario("gdb-kernel", sim_us=max(sim_us, 120),
                              tier="superblocks", algorithm="crc32",
                              checksum_rounds=8, sync_quantum=8)
    for site, count in side_exit_profile(run.system.cpus):
        lines.append("| %s | %d |" % (site, count))
    run.system.close()
    lines.append("")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="render the per-layer attribution markdown table")
    parser.add_argument("--sim-us", type=int, default=120,
                        help="simulated microseconds per scheme run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N repeats per scheme")
    parser.add_argument("-o", "--output", default=None,
                        help="write to a file instead of stdout")
    args = parser.parse_args(argv)
    text = "\n".join(attrib_table(args.sim_us, args.repeats)) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %s" % args.output)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
