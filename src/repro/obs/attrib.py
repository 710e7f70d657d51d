"""Wall-time attribution across the co-simulation layers.

The deterministic counters say *how many* syncs and instructions a run
made; this module says *where the host's wall clock went* while making
them: per-tier ISS execution (``iss.interp`` / ``iss.blocks`` /
``iss.superblocks``), scheme transport work (``transport`` — driving
breakpoint exchanges, socket drains, quantum commits), dispatcher
commit stalls, and the SystemC scheduler residual.  It also folds the
superblock tier's side-exit analytics (which chained traces keep
bailing out early, and where) so superblock re-profiling has data to
steer by.

An :class:`AttributionProfiler` keeps a per-thread measurement stack
and charges each bucket its *exclusive* time: ISS execution is
measured inside the scheme's transport measurement, so the transport
bucket is pure scheme/protocol overhead, not a double count.  The
clock is injectable for deterministic tests; totals merge under a lock
so pool threads can measure safely.  Everything here is host wall
time — informative, folded into BENCH records under ``attrib.*``,
never gated (the deterministic counters gate; see
``docs/performance.md``).
"""

import threading
import time

#: The scheduler-residual bucket name: wall time not measured by any
#: instrumented layer (kernel bookkeeping, channel updates, tracing).
KERNEL_BUCKET = "kernel"

#: Overlay bucket for dispatcher commit stalls; this wall time is
#: *inside* the transport measurement (the hook blocks in commit), so
#: it is reported beside the exclusive buckets, never summed with them.
STALL_BUCKET = "commit_stall"


class _Measure:
    """Context manager charging one bucket on the profiler's stack."""

    __slots__ = ("profiler", "bucket")

    def __init__(self, profiler, bucket):
        self.profiler = profiler
        self.bucket = bucket

    def __enter__(self):
        self.profiler.enter(self.bucket)
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.profiler.leave()
        return False


class AttributionProfiler:
    """Buckets elapsed wall time per co-simulation layer.

    ``measure(bucket)`` nests: a bucket is charged only the time not
    spent in measurements opened inside it, so a transport measurement
    wrapping an ISS measurement yields two non-overlapping buckets
    whose sum is the true elapsed span.  *clock* defaults to
    ``time.perf_counter`` and is injectable for deterministic tests.
    """

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else time.perf_counter
        self.totals = {}
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, bucket):
        """Open a measurement; pair with :meth:`leave` (LIFO)."""
        self._stack().append([bucket, self.clock(), 0.0])

    def leave(self):
        """Close the innermost measurement and charge its bucket."""
        stack = self._stack()
        bucket, started, child_elapsed = stack.pop()
        elapsed = self.clock() - started
        if stack:
            stack[-1][2] += elapsed
        self.add(bucket, elapsed - child_elapsed)

    def measure(self, bucket):
        """``with profiler.measure("transport"): ...``"""
        return _Measure(self, bucket)

    def add(self, bucket, seconds, count=1):
        """Fold externally-measured time into a bucket."""
        with self._lock:
            self.totals[bucket] = self.totals.get(bucket, 0.0) + seconds
            self.counts[bucket] = self.counts.get(bucket, 0) + count

    def accounted(self):
        """Total exclusive seconds across every bucket."""
        with self._lock:
            return sum(self.totals.values())

    def as_dict(self, wall_seconds=None):
        """BENCH-ready summary (``attrib.*``; sorted, plain JSON).

        With *wall_seconds*, each bucket gains its ``share`` of the
        wall and the unmeasured remainder is reported as the
        :data:`KERNEL_BUCKET` residual — scheduler bookkeeping,
        channel updates and tracing run between the instrumented
        layers.
        """
        with self._lock:
            totals = dict(self.totals)
            counts = dict(self.counts)
        accounted = sum(totals.values())
        if wall_seconds is not None:
            residual = max(0.0, wall_seconds - accounted)
            totals[KERNEL_BUCKET] = totals.get(KERNEL_BUCKET, 0.0) + residual
            counts.setdefault(KERNEL_BUCKET, 0)
        buckets = {}
        for name in sorted(totals):
            entry = {"seconds": round(totals[name], 6),
                     "calls": counts.get(name, 0)}
            if wall_seconds:
                entry["share"] = round(totals[name] / wall_seconds, 4)
            buckets[name] = entry
        summary = {"buckets": buckets,
                   "accounted_seconds": round(accounted, 6)}
        if wall_seconds is not None:
            summary["wall_seconds"] = round(wall_seconds, 6)
        return summary


def attach_attrib(system, profiler=None):
    """Wire a profiler into a built :class:`RouterSystem`.

    Points every CPU (per-tier ``iss.*`` buckets) and the scheme
    (``transport``) at *profiler*; forked process workers predate this
    call and measure nothing — the master-side blocking exchange is
    charged as ISS time instead, which is the attribution a
    master-host profile wants.
    """
    if profiler is None:
        profiler = AttributionProfiler()
    for cpu in system.cpus:
        cpu._attrib = profiler
    if system.scheme is not None:
        system.scheme.attrib = profiler
    system.attrib = profiler
    return profiler


def attrib_summary(profiler, wall_seconds=None, parallel=None):
    """The ``wall_extra["attrib"]`` fold for a BENCH record.

    *parallel* is the ``system.parallel_stats()`` mapping; its
    ``stall_seconds`` becomes the :data:`STALL_BUCKET` overlay — the
    dispatcher's commit-order wait already elapses inside the
    transport measurement, so the overlay is reported beside the
    exclusive buckets rather than summed into ``accounted_seconds``.
    """
    summary = profiler.as_dict(wall_seconds)
    if parallel:
        stall = float(parallel.get("stall_seconds") or 0.0)
        if stall > 0.0:
            summary["buckets"][STALL_BUCKET] = {
                "seconds": round(stall, 6),
                "calls": int(parallel.get("commit_stalls") or 0),
                "overlay": True,
            }
            if wall_seconds:
                summary["buckets"][STALL_BUCKET]["share"] = round(
                    stall / wall_seconds, 4)
    return summary


def side_exit_profile(cpus, limit=8):
    """Top side-exit sites merged across *cpus*.

    Returns ``[[hex_pc, count], ...]`` hottest first (ties by address)
    — the superblock starts whose chained traces most often bail out
    through a guard, i.e. the superblock re-profiling candidates.
    Plain JSON for the BENCH ``profile.side_exits`` section.
    """
    merged = {}
    for cpu in cpus:
        for pc, count in cpu.side_exit_sites.items():
            merged[pc] = merged.get(pc, 0) + count
    ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
    return [["0x%08x" % pc, count] for pc, count in ranked[:limit]]
