"""Compare two results of the wall-time benchmark.

    python benchmarks/wall/compare.py BASE.json CHANGE.json

For each workload and end-to-end metric it prints both medians with
their quartiles, the fraction of paired repetitions (base rep i against
change rep i) the change wins, and a verdict:

``unresolved``
    either side's spread (interquartile range over median) exceeds the
    metric's bound, and not every change run beats every base run;
``worse``
    the change's median is worse than the base's by more than the bound;
``improved``
    the change wins at least 9 in 10 pairs (ties count for neither side)
    and its median beats the base's by more than the base's
    interquartile range, or the spread is too wide but every change run
    beats every base run;
``no-change``
    anything else.

Bounds and directions come from BENCHMARK.json (plus the workload-
specific metrics of ``run.PARTIAL_END_TO_END``).  Exits 1 when any
verdict is ``worse`` or a workload's error rate rose, 2 on unreadable
input.
"""

import json
import sys
from pathlib import Path

from run import UsageError, end_to_end_specs, load_spec, ratio, summarize

WIN_FRACTION = 0.9


def verdict(base, change, spec):
    """``(verdict, win fraction)`` for one metric's two sample lists."""
    lower = spec["better"] == "lower"

    def beats(mine, theirs):
        return mine < theirs if lower else mine > theirs

    pairs = list(zip(base, change))
    fraction = sum(beats(mine, theirs) for theirs, mine in pairs) / len(pairs)
    before, after = summarize(base), summarize(change)
    spread = max(ratio(side["q3"] - side["q1"], side["median"])
                 for side in (before, after))
    gain = before["median"] - after["median"]
    if not lower:
        gain = -gain
    if spread > spec["bound"]:
        if all(beats(mine, theirs) for mine in change for theirs in base):
            return "improved", fraction
        return "unresolved", fraction
    if -gain > spec["bound"] * before["median"]:
        return "worse", fraction
    if fraction >= WIN_FRACTION and gain > before["q3"] - before["q1"]:
        return "improved", fraction
    return "no-change", fraction


def compare(base, change, specs):
    """Print the comparison; returns True when nothing got worse."""
    healthy = True
    print("%-16s %-22s %-30s %-30s %5s  %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for name in base["workloads"]:
        if name not in change["workloads"]:
            continue
        before, after = base["workloads"][name], change["workloads"][name]
        for metric, spec in specs.items():
            if metric not in before["samples"] or \
                    metric not in after["samples"]:
                continue
            result, fraction = verdict(before["samples"][metric],
                                       after["samples"][metric], spec)
            healthy &= result != "worse"
            print("%-16s %-22s %-30s %-30s %4.0f%%  %s" % (
                name, metric, _quartiles(before["samples"][metric]),
                _quartiles(after["samples"][metric]), 100 * fraction,
                result))
        if after["error_rate"] > before["error_rate"]:
            healthy = False
            print("%-16s error_rate rose from %.3g to %.3g: worse"
                  % (name, before["error_rate"], after["error_rate"]))
    return healthy


def _quartiles(values):
    summary = summarize(values)
    return "%.5g [%.5g, %.5g]" % (summary["median"], summary["q1"],
                                  summary["q3"])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json CHANGE.json", file=sys.stderr)
        return 2
    try:
        specs = end_to_end_specs(load_spec())
        base, change = (json.loads(Path(path).read_text()) for path in argv)
    except (UsageError, OSError, ValueError) as error:
        print("compare.py: %s" % error, file=sys.stderr)
        return 2
    return 0 if compare(base, change, specs) else 1


if __name__ == "__main__":
    sys.exit(main())
