"""Deterministic parallel execution of multiple ISS contexts (docs/parallel.md).

Within one sync quantum the contexts of an MPSoC configuration are
independent: each executes against its own guest RAM, pipe and stub,
and only the *commit* — port transfers, metrics, trace events, kernel
interaction — touches shared state.  The
:class:`ParallelDispatcher` exploits exactly that split:

1. **Classify** (scheme side, main thread): each context due for a
   synchronisation is either *eligible* — no pending IRQs, no armed
   watchpoints, no communication stop in progress, no fault-injected
   or reliable transport — or it degrades to the serial lock-step
   path, precisely where sync-quantum batching already degrades.
2. **Prefetch** (worker pool): eligible contexts run the port-free
   half of their drive (:meth:`TargetDriver.prefetch`, or
   ``rtos.advance`` for the Driver-Kernel scheme) concurrently.  Trace
   emissions are captured per-context in
   :class:`~repro.obs.tracer.TraceBuffer`\\ s via the tracer's
   thread-redirect, and no shared metric is touched.
3. **Commit** (main thread, context-attach order): each context's
   buffered events are replayed, its metrics applied, and its stop
   servicing finished with ``drive(skip_first_execute=True)`` — so the
   main tracer assigns the exact sequence numbers serial execution
   would have.  Traces and :class:`CosimMetrics` are byte-identical
   to ``parallel=off`` at every quantum.

Backends: ``thread`` (default) runs prefetches on a persistent
``ThreadPoolExecutor`` — correct everywhere, but CPU-bound guest code
stays GIL-serialised; ``process`` additionally forks one persistent
execution worker per ISS (:mod:`repro.iss.remote`) with
shared-memory guest RAM, so the pool threads block in pipe I/O while
the workers execute truly in parallel.  A CPU that declines the fork
could only hold the GIL on a pool thread, so its scheme plans it
serial for the whole run.  A context whose worker wedges or dies is
quarantined through the scheme's watchdog machinery
instead of hanging the simulation.

See ``docs/parallel.md`` for the full determinism argument.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
from dataclasses import dataclass, field

from repro.errors import CosimError
from repro.iss.remote import RemoteWorkerError, attach_remote
from repro.obs.tracer import NULL_TRACER, TraceBuffer

BACKENDS = ("thread", "process")


@dataclass
class ParallelConfig:
    """Dispatcher parameters (see ``docs/parallel.md``)."""

    backend: str = "thread"      # "thread" or "process"
    workers: int = 2             # pool width (not worker-process count)
    trace_commits: bool = False  # opt-in cosim/parallel_commit events
    worker_timeout: float = 60.0  # seconds before a worker is wedged

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise CosimError("unknown parallel backend %r (one of %s)"
                             % (self.backend, ", ".join(BACKENDS)))
        if self.workers < 1:
            raise CosimError("parallel workers must be >= 1")


@dataclass
class ParallelStats:
    """Host-side dispatcher observability.

    Deliberately *outside* :class:`CosimMetrics`: these numbers depend
    on host scheduling (and on parallel mode being enabled at all), so
    they must not participate in the serial/parallel metrics-equality
    guarantee.  Benchmarks report them under the host-dependent
    ``wall`` object of ``BENCH_*.json`` records.
    """

    backend: str = "thread"
    workers: int = 0
    rounds: int = 0              # prefetch/commit rounds executed
    jobs: int = 0                # prefetches dispatched to the pool
    serial_fallbacks: int = 0    # contexts that degraded to lock-step
    commit_stalls: int = 0       # commits that waited on a straggler
    busy_seconds: float = 0.0    # summed worker-task wall time
    stall_seconds: float = 0.0   # summed commit wait time
    process_contexts: int = 0    # contexts with a forked ISS worker
    process_fallbacks: int = 0   # process-backend attaches declined
    workers_killed: int = 0      # wedged workers terminated

    def utilization(self, wall_seconds):
        """Pool utilization in [0, 1] over *wall_seconds* of run time."""
        if wall_seconds <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (wall_seconds * self.workers))

    def as_dict(self, wall_seconds=None):
        """The stats as a plain dict (for ``wall.parallel`` reporting)."""
        data = {
            "backend": self.backend,
            "workers": self.workers,
            "rounds": self.rounds,
            "jobs": self.jobs,
            "serial_fallbacks": self.serial_fallbacks,
            "commit_stalls": self.commit_stalls,
            "busy_seconds": round(self.busy_seconds, 6),
            "stall_seconds": round(self.stall_seconds, 6),
            "process_contexts": self.process_contexts,
            "process_fallbacks": self.process_fallbacks,
            "workers_killed": self.workers_killed,
        }
        if wall_seconds is not None:
            data["utilization"] = round(self.utilization(wall_seconds), 4)
        return data


class ParallelDispatcher:
    """Persistent worker pool + deterministic commit protocol.

    One dispatcher serves one scheme instance.  Schemes call
    :meth:`execute` with the eligible contexts' prefetch closures and
    then commit the returned outcomes in context-attach order; the
    classification itself stays in the scheme, next to the serial code
    it must mirror.
    """

    def __init__(self, config=None, tracer=None, **overrides):
        if config is None:
            config = ParallelConfig(**overrides)
        elif overrides:
            raise CosimError("pass either a config object or overrides")
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = ParallelStats(backend=config.backend,
                                   workers=config.workers)
        self._pool = None
        self._busy_lock = threading.Lock()
        self._remotes = {}           # id(cpu) -> RemoteCpu
        self._closed = False

    @property
    def trace_commits(self):
        return self.config.trace_commits

    # -- backend attachment ---------------------------------------------------

    def attach_cpu(self, cpu):
        """Give *cpu* a process-backend execution worker if configured.

        Returns False when the process backend declines the fork
        (:func:`attach_remote`: MMIO, retire observers, syscall
        handlers, no fork).  Such a CPU could only execute on a
        GIL-bound pool thread, so its scheme plans it serial.  Under
        the thread backend every CPU may go to the pool: True.
        """
        if self.config.backend != "process":
            return True
        remote = attach_remote(cpu, timeout=self.config.worker_timeout)
        if remote is None:
            self.stats.process_fallbacks += 1
            return False
        self._remotes[id(cpu)] = remote
        self.stats.process_contexts += 1
        return True

    def kill_worker(self, cpu):
        """Terminate a wedged context's worker (quarantine support)."""
        remote = self._remotes.pop(id(cpu), None)
        if remote is None:
            return
        self.stats.workers_killed += 1
        remote.detached = True
        try:
            remote.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if remote.process.is_alive():
            remote.process.terminate()
            remote.process.join(timeout=5.0)
        cpu._remote = None
        cpu.memory.close_shared()

    # -- the prefetch round ---------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="cosim-par")
        return self._pool

    def _run_job(self, closure, buffer):
        started = time.perf_counter()
        self.tracer.redirect_current_thread(buffer)
        try:
            return closure()
        finally:
            self.tracer.redirect_current_thread(None)
            elapsed = time.perf_counter() - started
            with self._busy_lock:
                self.stats.busy_seconds += elapsed

    def execute(self, jobs):
        """Run prefetch *jobs* (``[(key, closure)]``) on the pool.

        Returns ``{key: (status, value, buffer)}`` where *status* is
        ``"ok"`` (value = the closure's return) or ``"error"`` (value =
        the exception).  *buffer* holds the trace payloads the closure
        emitted, for :meth:`Tracer.replay` at the commit.  The call
        itself is a barrier: every job has finished when it returns —
        commits can then run in deterministic attach order.
        """
        results = {}
        if not jobs:
            return results
        self.stats.rounds += 1
        self.stats.jobs += len(jobs)
        entries = []
        if self.config.workers == 1 or len(jobs) == 1:
            # Nothing to overlap: run inline (same buffers, same
            # commit flow) and skip the pool handoff latency.
            for key, closure in jobs:
                buffer = TraceBuffer()
                try:
                    value = self._run_job(closure, buffer)
                except Exception as exc:
                    results[key] = ("error", exc, buffer)
                else:
                    results[key] = ("ok", value, buffer)
            return results
        pool = self._ensure_pool()
        for key, closure in jobs:
            buffer = TraceBuffer()
            future = pool.submit(self._run_job, closure, buffer)
            entries.append((key, future, buffer))
        pending = [future for __, future, __ in entries
                   if not future.done()]
        if pending:
            self.stats.commit_stalls += 1
            started = time.perf_counter()
            _wait_futures(pending)
            self.stats.stall_seconds += time.perf_counter() - started
        for key, future, buffer in entries:
            try:
                value = future.result()
            except Exception as exc:
                results[key] = ("error", exc, buffer)
            else:
                results[key] = ("ok", value, buffer)
        return results

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self):
        """Stop the pool and every forked worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        remotes, self._remotes = self._remotes, {}
        for remote in remotes.values():
            remote.detach()


def make_dispatcher(parallel, workers, tracer=None, trace_commits=False,
                    worker_timeout=60.0):
    """Build a dispatcher from config-style values, or None.

    *parallel* is falsy (off), ``True``/``"thread"`` or ``"process"``.
    """
    if not parallel:
        return None
    backend = "thread" if parallel is True else str(parallel)
    config = ParallelConfig(backend=backend, workers=workers,
                            trace_commits=trace_commits,
                            worker_timeout=worker_timeout)
    return ParallelDispatcher(config, tracer=tracer)
