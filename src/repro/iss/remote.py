"""Process-backend ISS execution workers (docs/parallel.md; `multiprocessing` fork).

The thread backend of the parallel dispatcher cannot speed up
CPU-bound guest code: the interpreter and the block closures hold the
GIL for their whole stretch.  This module moves the *execution* of one
:class:`~repro.iss.cpu.Cpu` into a persistent forked worker process
while everything else about the context — the GDB stub, the RSP
client, ports, metrics — stays in the SystemC process:

- guest RAM is exported into a ``multiprocessing.shared_memory``
  segment *before* the fork (:meth:`Memory.export_shared`), so RSP
  ``M`` writes from the master and guest stores in the worker act on
  the same bytes with no copying;
- every ``cpu.run`` call is forwarded over a pipe
  (:class:`RemoteCpu`), shipping the small architectural state blob
  (the declared ``ARCH_STATE``) both ways.  Forwarding *all* runs
  means the worker's decode/block caches are the only caches that
  ever execute — they warm up and invalidate exactly like the single
  serial cache, which keeps the tier counters (``CPU_COUNTERS``) —
  and, on the superblock tier, the profiler counts and promotions —
  byte-identical to serial execution;
- trace events emitted inside the worker (``iss/stop``,
  ``iss/breakpoint``, ``iss/watchpoint``, ``iss/block_compile``) are
  captured in a :class:`~repro.obs.tracer.TraceBuffer` and replayed on
  the calling thread in emission order, so the main tracer assigns the
  same sequence numbers serial execution would have.  The worker emits
  only while the master's tracer is enabled;
- the pipe round trip releases the GIL, which is what lets several
  contexts genuinely execute at once under the dispatcher's pool.

The backend degrades safely: :func:`attach_remote` returns ``None``
when fork is unavailable, the memory has MMIO regions, or the CPU
carries host-side attachments (retire observers, syscall handlers)
that cannot cross a process boundary faithfully.
"""

import multiprocessing
import os

from repro import errors as _errors
from repro.errors import IssError
from repro.iss.cpu import ARCH_STATE, CPU_COUNTERS, StopReason
from repro.obs.tracer import TraceBuffer

#: How long (seconds) to wait for a worker before declaring it wedged.
DEFAULT_TIMEOUT = 60.0

#: The declared CPU fields a worker ships back after a run: the
#: architectural state and, since only the worker executes, the
#: tier counters.
_RESULT_FIELDS = ARCH_STATE + CPU_COUNTERS


def _pack_state(cpu):
    """The architectural state blob shipped master -> worker."""
    state = {name: getattr(cpu, name) for name in ARCH_STATE}
    state["regs"] = list(cpu.regs)
    state["resume_skip"] = cpu._resume_skip
    state["breakpoints"] = sorted(cpu.breakpoints._code)
    state["watchpoints"] = [(wp.address, wp.length, wp.kind.value)
                            for wp in cpu.breakpoints._watch]
    return state


def _apply_state(cpu, state):
    """Install a master-side state blob into the worker CPU."""
    for name in ARCH_STATE:
        setattr(cpu, name, state[name])
    cpu.regs[:] = state["regs"]
    cpu._resume_skip = state["resume_skip"]
    bps = cpu.breakpoints
    wanted = set(state["breakpoints"])
    current = set(bps._code)
    for address in sorted(current - wanted):
        bps.remove_code(address)
    for address in sorted(wanted - current):
        bps.add_code(address)
    existing = {(wp.address, wp.length, wp.kind.value): wp
                for wp in bps._watch}
    bps._watch = []
    for key in state["watchpoints"]:
        watchpoint = existing.get(key)
        if watchpoint is None:
            from repro.iss.breakpoints import Watchpoint, WatchKind
            watchpoint = Watchpoint(key[0], key[1], WatchKind(key[2]))
        bps._watch.append(watchpoint)


def _pack_result(cpu):
    """The result blob shipped worker -> master after a run."""
    result = {name: getattr(cpu, name) for name in _RESULT_FIELDS}
    result["regs"] = list(cpu.regs)
    result["resume_skip"] = cpu._resume_skip
    result["last_stop"] = (cpu._last_stop.value
                           if cpu._last_stop is not None else None)
    if cpu._watch_hit is not None:
        watchpoint, address, value, is_write = cpu._watch_hit
        result["watch_hit"] = (watchpoint.address, watchpoint.length,
                               watchpoint.kind.value, address, value,
                               is_write)
    else:
        result["watch_hit"] = None
    result["bp_hits"] = dict(cpu.breakpoints._code)
    result["code_hit_count"] = cpu.breakpoints.code_hit_count
    result["watch_hit_count"] = cpu.breakpoints.watch_hit_count
    result["side_exit_sites"] = dict(cpu.side_exit_sites)
    # The worker's profiler is the one that executes, so its counts
    # are authoritative; shipping them back keeps master-side
    # checkpoints (which serialize the master CPU) tier-faithful.
    result["profile"] = cpu.block_profiler.state()
    return result


def _apply_result(cpu, result):
    """Install a worker result blob into the master-side CPU."""
    for name in _RESULT_FIELDS:
        setattr(cpu, name, result[name])
    cpu.regs[:] = result["regs"]
    cpu._resume_skip = result["resume_skip"]
    last = result["last_stop"]
    cpu._last_stop = StopReason(last) if last is not None else None
    hit = result["watch_hit"]
    if hit is not None:
        from repro.iss.breakpoints import Watchpoint, WatchKind
        wp_address, wp_length, wp_kind, address, value, is_write = hit
        watchpoint = Watchpoint(wp_address, wp_length, WatchKind(wp_kind))
        cpu._watch_hit = (watchpoint, address, value, is_write)
    else:
        cpu._watch_hit = None
    cpu.breakpoints._code = dict(result["bp_hits"])
    cpu.breakpoints.code_hit_count = result["code_hit_count"]
    cpu.breakpoints.watch_hit_count = result["watch_hit_count"]
    cpu.side_exit_sites = dict(result["side_exit_sites"])
    cpu.block_profiler.restore(result["profile"])


def _worker_main(conn, cpu):
    """The forked worker loop: apply state, run, ship results back.

    The fork happened after ``memory.export_shared``, so ``cpu.memory``
    aliases the master's guest RAM; everything else on the inherited
    objects is private to this process.
    """
    # Emits only while the master's tracer is enabled (each exchange
    # ships the flag), so a disabled tracer receives no replays.
    buffer = TraceBuffer()
    cpu._remote = None          # this copy executes locally
    cpu.attach_tracer(buffer)   # also routes breakpoint-set emissions
    try:
        while True:
            try:
                command = conn.recv()
            except EOFError:
                break
            if command[0] == "exit":
                break
            kind, state, max_instructions, max_cycles = command
            buffer.enabled = state.pop("trace")
            if state.pop("flush", False):
                cpu.flush_decode_cache()
            for address, length in state.pop("code_writes", ()):
                cpu.invalidate_code(address, length)
            cpu.block_trace = state.pop("block_trace", False)
            cpu.use_superblocks = state.pop("use_superblocks", False)
            cpu.block_profiler.hot_threshold = state.pop(
                "hot_threshold", cpu.block_profiler.hot_threshold)
            # The master's counts mirror this worker's own (synced
            # every result), so reinstalling them is an idempotent
            # assignment serially — and after a checkpoint restore it
            # seeds the fresh worker with the restored profile.
            cpu.block_profiler.restore(state.pop("profile", []))
            _apply_state(cpu, state)
            if kind == "sync":
                conn.send(("ok", None, _pack_result(cpu), buffer.drain()))
                continue
            try:
                reason = cpu.run(max_instructions=max_instructions,
                                 max_cycles=max_cycles)
            except Exception as exc:   # shipped back and re-raised
                conn.send(("error", type(exc).__name__, str(exc),
                           _pack_result(cpu), buffer.drain()))
            else:
                conn.send(("ok", reason.value, _pack_result(cpu),
                           buffer.drain()))
    finally:
        conn.close()
        # Detach from the inherited segment without unlinking it —
        # the master owns the segment's lifetime.
        cpu.memory.close_shared(unlink=False)


class RemoteWorkerError(IssError):
    """The worker process died or stopped responding."""


class RemoteCpu:
    """Master-side proxy forwarding every ``cpu.run`` to the worker."""

    def __init__(self, cpu, process, conn, timeout=DEFAULT_TIMEOUT):
        self.cpu = cpu
        self.process = process
        self.conn = conn
        self.timeout = timeout
        self.pending_flush = False
        self.pending_code_writes = []   # host writes (address, length)
        self.round_trips = 0
        self.detached = False

    def _exchange(self, kind, max_instructions=None, max_cycles=None):
        state = _pack_state(self.cpu)
        state["trace"] = self.cpu.tracer.enabled
        state["flush"] = self.pending_flush
        state["block_trace"] = self.cpu.block_trace
        state["use_superblocks"] = self.cpu.use_superblocks
        state["hot_threshold"] = self.cpu.block_profiler.hot_threshold
        state["profile"] = self.cpu.block_profiler.state()
        self.pending_flush = False
        if self.pending_code_writes:
            # Shipped only when present, so exchanges without host
            # writes stay byte-identical.
            state["code_writes"] = self.pending_code_writes
            self.pending_code_writes = []
        try:
            self.conn.send((kind, state, max_instructions, max_cycles))
            if not self.conn.poll(self.timeout):
                raise RemoteWorkerError(
                    "ISS worker for %r unresponsive after %.0fs"
                    % (self.cpu.name, self.timeout))
            reply = self.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise RemoteWorkerError(
                "ISS worker for %r died: %s" % (self.cpu.name, exc))
        self.round_trips += 1
        if reply[0] == "error":
            __, exc_name, message, result, payloads = reply
            _apply_result(self.cpu, result)
            if payloads:
                self.cpu.tracer.replay(payloads)
            exc_type = getattr(_errors, exc_name, IssError)
            if not isinstance(exc_type, type) or \
                    not issubclass(exc_type, Exception):
                exc_type = IssError
            raise exc_type(message)
        __, reason_value, result, payloads = reply
        _apply_result(self.cpu, result)
        if payloads:
            self.cpu.tracer.replay(payloads)
        return StopReason(reason_value) if reason_value is not None else None

    def run(self, max_instructions=None, max_cycles=None):
        """Forward one :meth:`Cpu.run` call; returns its StopReason."""
        return self._exchange("run", max_instructions, max_cycles)

    def sync(self):
        """Apply pending flushes and code writes; pull state, no run."""
        if not self.detached:
            self._exchange("sync")

    def detach(self):
        """Sync final state, stop the worker, restore local execution."""
        if self.detached:
            return
        self.detached = True
        try:
            self._exchange("sync")
        except Exception:
            pass
        try:
            self.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():   # pragma: no cover - wedged worker
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.cpu._remote = None
        self.cpu.memory.close_shared()


def attach_remote(cpu, timeout=DEFAULT_TIMEOUT):
    """Fork a persistent execution worker for *cpu*; returns the proxy.

    Returns ``None`` (leaving the CPU untouched) when process execution
    cannot be faithful: no ``fork`` start method, MMIO regions (their
    handlers live in the master), retire observers, or registered
    syscall handlers (they may close over master state).
    Must be called before the CPU has started executing so the worker's
    caches warm up exactly like a serial run's.
    """
    if cpu._remote is not None:
        return cpu._remote
    if os.name != "posix" or \
            "fork" not in multiprocessing.get_all_start_methods():
        return None   # pragma: no cover - non-posix host
    if cpu.memory.regions or cpu._observers:
        return None
    if getattr(cpu.syscalls, "_handlers", None):
        return None
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    cpu.memory.export_shared()
    process = ctx.Process(target=_worker_main, args=(child_conn, cpu),
                          daemon=True, name="iss-%s" % cpu.name)
    process.start()
    child_conn.close()
    remote = RemoteCpu(cpu, process, parent_conn, timeout=timeout)
    cpu._remote = remote
    return remote
