"""The discrete-event scheduler.

The scheduler implements the SystemC evaluate/update/delta-notify loop:

1. *evaluate* — run every runnable process to completion/suspension;
2. *update*   — apply pending signal writes;
3. *delta notification* — trigger events notified with delta semantics,
   making their waiters runnable for the next delta cycle;
4. if nothing is runnable, advance time to the earliest timed event.

Co-simulation hooks (:class:`~repro.sysc.hooks.KernelHook`) are invoked
at the two points the paper patches (Figures 3 and 5): the *beginning*
of every simulation cycle, before event handling, and the *end* of the
cycle, after event handling — where the Driver-Kernel scheme checks for
pending interrupts.

A timestep whose only due entry is a clock edge nobody waits on is
*quiet*: when every hook can account for it without running it
(:meth:`~repro.sysc.hooks.KernelHook.quiet_steps`), the kernel
fast-forwards a run of them arithmetically (:meth:`Kernel._fast_forward`)
instead of popping, evaluating and notifying edge by edge.  Trace
sinks must be grid-gated (:func:`~repro.sysc.hooks.sinks_due`): a
skipped timestep at or past a sink's ``due`` samples it in place.  A
hook that runs ahead runs each such timestep's time hook and sinks
itself and hands back the first one that leaves work for its delta
cycle, which the kernel then enters.  See ``docs/performance.md`` §3.
"""

import itertools
import math
from collections import deque
from heapq import heappop, heappush

from repro.errors import ReproError, SimulationError
from repro.obs.tracer import NULL_TRACER
from repro.sysc.clock import _EdgeProcess
from repro.sysc.event import Event
from repro.sysc.hooks import KernelHook
from repro.sysc.process import Process, ProcessKind
from repro.sysc.simtime import check_duration, format_time

_current = None


def current_kernel():
    """Return the kernel most recently constructed or installed."""
    if _current is None:
        raise SimulationError(
            "no simulation kernel exists; construct a repro.sysc.Kernel first"
        )
    return _current


def set_current_kernel(kernel):
    """Install *kernel* as the ambient simulation context (or None)."""
    global _current
    _current = kernel


def _callbacks(hooks, name):
    """The bound *name* callbacks of *hooks*, minus KernelHook's no-ops."""
    noop = getattr(KernelHook, name)
    callbacks = []
    for hook in hooks:
        callback = getattr(hook, name)
        if getattr(callback, "__func__", None) is not noop:
            callbacks.append(callback)
    return callbacks


def _skip_hooks(hooks, sinks, max_deltas):
    """The hooks that fast-forward quiet timesteps this run, or None.

    Every hook must skip quiet timesteps and every trace sink must be
    grid-gated: its ``due`` says from when a sample may record
    something (:attr:`repro.obs.metrics.MetricsSampler.due`), so a skip
    samples it only at due timesteps.  A hook that runs ahead skips
    alone: another hook could not follow its early stop.  A delta
    budget counts every timestep's delta, so it keeps them all.
    """
    if (not hooks or max_deltas is not None
            or not all(getattr(hook, "skips_quiet", False) for hook in hooks)
            or not all(hasattr(sink, "due") for sink in sinks)):
        return None
    if len(hooks) > 1 and any(getattr(hook, "runs_ahead", False)
                              for hook in hooks):
        return None
    return list(hooks)


class Kernel:
    """A single-threaded discrete-event simulation kernel."""

    def __init__(self, name="kernel"):
        self.name = name
        self.now = 0
        self.delta_count = 0
        self.timestep_count = 0
        self.hooks = []
        self.modules = []
        self.processes = []
        self.trace_sinks = []
        self.tracer = NULL_TRACER
        self._runnable = deque()
        self._update_queue = []
        self._delta_events = []
        self._delta_event_set = set()
        self._delta_processes = []
        self._timed = []
        # event -> its live heap entries, for O(1) amortised cancel
        # (entries are tombstoned in place, never searched for).
        self._timed_events = {}
        self._seq = itertools.count()
        self._started = False
        self._stop_requested = False
        self._running_process = None
        set_current_kernel(self)

    def __repr__(self):
        return "Kernel(%r, now=%s)" % (self.name, format_time(self.now))

    # -- registration ------------------------------------------------------

    def add_hook(self, hook):
        """Attach a scheduler extension hook (paper Sections 3.3 / 4.2).

        Hooks and trace sinks are bound when :meth:`run` starts, so one
        attached from inside a run takes effect at the next call.
        """
        self.hooks.append(hook)
        return hook

    def remove_hook(self, hook):
        """Detach a scheduler extension hook."""
        self.hooks.remove(hook)

    def add_module(self, module):
        """Register a module with the kernel (done by Module)."""
        self.modules.append(module)

    def add_trace(self, sink):
        """Attach a trace sink sampled at every timestep."""
        self.trace_sinks.append(sink)
        return sink

    def attach_tracer(self, tracer):
        """Install an observability tracer and bind it to this kernel.

        Attach *before* constructing a co-simulation scheme: schemes
        capture ``kernel.tracer`` at build time so every layer (hooks,
        targets, transports) shares one event stream.
        """
        self.tracer = tracer
        tracer.bind_kernel(self)
        return tracer

    def add_process(self, name, kind, func, sensitivity=(), dont_initialize=False):
        """Create and register a process directly on the kernel."""
        self._check_elaborating(name)
        return self.adopt_process(
            Process(name, kind, func, sensitivity, dont_initialize))

    def adopt_process(self, process):
        """Register an already built :class:`Process` (or subclass)."""
        self._check_elaborating(process.name)
        self.processes.append(process)
        return process

    def _check_elaborating(self, name):
        if self._started:
            raise SimulationError(
                "cannot create process %r after simulation has started" % name
            )

    def add_method(self, name, func, sensitivity=(), dont_initialize=False):
        """Create a method (sc_method-like) process on the kernel."""
        return self.add_process(
            name, ProcessKind.METHOD, func, sensitivity, dont_initialize
        )

    def add_thread(self, name, func):
        """Create a thread (sc_thread-like) process on the kernel."""
        return self.add_process(name, ProcessKind.THREAD, func)

    # -- scheduling primitives (used by Event/Signal/Process) ---------------

    def _make_runnable(self, process):
        if process.terminated or process._queued:
            return
        process._queued = True
        self._runnable.append(process)

    def _queue_delta_process(self, process):
        self._delta_processes.append(process)

    def _queue_timed_event(self, event, delay):
        # Heap entries are mutable so cancel can tombstone them in
        # place (entry[3] = False) instead of rebuilding the heap.
        # The unique sequence number keeps comparisons from ever
        # reaching the payload fields.
        entry = [self.now + delay, next(self._seq), event, True]
        heappush(self._timed, entry)
        self._timed_events.setdefault(event, []).append(entry)

    def _queue_timed_process(self, process, delay):
        process._waiting_timeout = True
        heappush(
            self._timed, [self.now + delay, next(self._seq), process, True])

    def _cancel_event(self, event):
        # Delta side: drop from the set; the list entry becomes a
        # tombstone that _delta_notify skips.  Timed side: mark every
        # live heap entry dead; _prune_timed discards them lazily.
        self._delta_event_set.discard(event)
        for entry in self._timed_events.pop(event, ()):
            entry[3] = False

    def _prune_timed(self):
        """Discard cancelled entries sitting at the top of the heap."""
        timed = self._timed
        while timed and not timed[0][3]:
            heappop(timed)

    # -- queries -------------------------------------------------------------

    def pending_activity(self):
        """True if any process can still run now or in the future."""
        self._prune_timed()
        return bool(
            self._runnable
            or self._update_queue
            or self._delta_event_set
            or self._delta_processes
            or self._timed
        )

    def next_event_time(self):
        """Absolute time of the earliest timed event, or None."""
        self._prune_timed()
        return self._timed[0][0] if self._timed else None

    def stop(self):
        """Request simulation stop (sc_stop): honoured at cycle boundary."""
        self._stop_requested = True

    def describe(self):
        """A text tree of the elaborated design (for debugging)."""
        lines = ["kernel %r (now=%s, %d deltas)"
                 % (self.name, format_time(self.now), self.delta_count)]
        top_level = [m for m in self.modules
                     if not any(m in parent.children
                                for parent in self.modules)]

        def walk(module, depth):
            indent = "  " * depth
            lines.append("%s- %s (%s, %d processes)"
                         % (indent, module.name, type(module).__name__,
                            len(module.processes)))
            for process in module.processes:
                state = "terminated" if process.terminated else "alive"
                lines.append("%s    * %s [%s, %s]"
                             % (indent, process.name, process.kind.value,
                                state))
            for child in module.children:
                walk(child, depth + 1)

        for module in top_level:
            walk(module, 1)
        orphans = [p for p in self.processes
                   if not any(p in m.processes for m in self.modules)]
        for process in orphans:
            lines.append("  * %s [%s, kernel-owned]"
                         % (process.name, process.kind.value))
        for hook in self.hooks:
            lines.append("  + hook %s" % type(hook).__name__)
        return "\n".join(lines)

    def state_summary(self):
        """The scheduler's dynamic state as plain JSON types.

        Captured into checkpoints: simulated time, cycle counters, the
        runnable queue, live delta and timed notifications (by name and
        due time), and every process's liveness.  Reading it perturbs
        nothing — tombstoned heap entries are simply skipped.
        """
        timed = sorted(
            (entry[0], entry[1],
             getattr(entry[2], "name", repr(entry[2])))
            for entry in self._timed if entry[3])
        return {
            "now": self.now,
            "delta_count": self.delta_count,
            "timestep_count": self.timestep_count,
            "runnable": [process.name for process in self._runnable],
            "update_queue": [getattr(signal, "name", repr(signal))
                             for signal in self._update_queue],
            "delta_events": [getattr(event, "name", repr(event))
                             for event in self._delta_events
                             if event in self._delta_event_set],
            "delta_processes": [process.name
                                for process in self._delta_processes],
            "timed": [list(entry) for entry in timed],
            "processes": [[process.name, process.kind.value,
                           bool(process.terminated)]
                          for process in self.processes],
        }

    # -- the scheduler --------------------------------------------------------

    def _initialize(self):
        self._started = True
        for process in self.processes:
            if not process.dont_initialize:
                self._make_runnable(process)

    def _evaluate(self):
        runnable = self._runnable
        while runnable:
            process = runnable.popleft()
            process._queued = False
            self._running_process = process
            try:
                process.run(self)
            except ReproError as error:
                # Attach simulation context to model/guest errors so a
                # failure names its process and time, then terminate
                # the process so the kernel stays usable.
                process.terminated = True
                raise type(error)(
                    "%s [in process %r at %s]"
                    % (error, process.name, format_time(self.now))
                ) from error
            finally:
                self._running_process = None

    def _update(self):
        queue, self._update_queue = self._update_queue, []
        for signal in queue:
            signal._apply_update()

    def _delta_notify(self):
        if self._delta_events:
            events, self._delta_events = self._delta_events, []
            live, self._delta_event_set = self._delta_event_set, set()
            for event in events:
                if event in live:
                    event._trigger()
        if self._delta_processes:
            procs, self._delta_processes = self._delta_processes, []
            for process in procs:
                self._make_runnable(process)

    def _advance_time(self, time_hooks, sinks):
        """Pop all timed entries at the earliest timestamp; trigger them.

        Then call the *time_hooks* and *sinks* (bound methods, see
        :meth:`run`) with the kernel.
        """
        timed = self._timed
        target_time = timed[0][0]
        if target_time < self.now:
            raise SimulationError("timed event in the past: %d < %d"
                                  % (target_time, self.now))
        self.now = target_time
        self.timestep_count += 1
        if self.tracer.enabled:
            self.tracer.emit("kernel", "timestep", scope=self.name)
        runnable = self._runnable
        while timed and timed[0][0] == target_time:
            popped = heappop(timed)
            if not popped[3]:
                continue
            entry = popped[2]
            if entry.__class__ is Event:
                entries = self._timed_events.get(entry)
                if entries is not None:
                    entries[:] = [live for live in entries
                                  if live is not popped]
                    if not entries:
                        del self._timed_events[entry]
                entry._trigger()
            else:
                # A thread's timeout expired: _make_runnable, inlined.
                entry._waiting_timeout = False
                if not (entry.terminated or entry._queued):
                    entry._queued = True
                    runnable.append(entry)
        for advance in time_hooks:
            advance(self)
        for sample in sinks:
            sample(self)

    def _fast_forward(self, hooks, sinks, end_time):
        """Skip the quiet clock edges at the top of the heap.

        Returns None when nothing was skipped, else whether the last
        timestep was entered.  The top entry is a clock edge.  It is
        quiet when no process waits on the clock, no delta work is
        queued and every hook has room; at most the hooks' room is
        offered, all strictly before the next other live entry and not
        past *end_time*.  The hooks sample the grid-gated trace *sinks*
        at the due timesteps they cover.

        Each covered edge leaves exactly what a materialised timestep
        would have: time, timestep and delta counts (one delta each),
        one heap sequence number, the clock's counters and level, and
        the hooks' accounting
        (:meth:`~repro.sysc.hooks.KernelHook.skip_steps`).  An entered
        timestep is left as :meth:`_advance_time` leaves one with its
        time hooks and sinks run: the edge popped and runnable, its
        delta cycle next.  A hook that raises leaves the timestep it
        raised in entered, as a materialised timestep would.
        """
        if self._update_queue or self._delta_events or self._delta_processes:
            return None
        timed = self._timed
        top = timed[0]
        edge = top[2]
        if not edge.unobserved():
            return None
        limit = math.inf
        for hook in hooks:
            room = hook.quiet_steps(self)
            if room < limit:
                limit = room
        if limit <= 0:
            return None
        heappop(timed)
        while timed and not timed[0][3]:
            heappop(timed)
        horizon = timed[0][0] if timed else math.inf
        if end_time is not None and end_time < horizon:
            horizon = end_time + 1
        first = top[0]
        if first >= horizon:
            heappush(timed, top)
            return None
        times = edge.edge_times(first, horizon)
        if limit < math.inf:
            times = list(itertools.islice(times, limit))
        timestep = self.timestep_count
        try:
            for hook in hooks:
                steps, entered = hook.skip_steps(self, times, sinks)
        except BaseException:
            steps = max(self.timestep_count - timestep - 1, 0)
            entered = True
            raise
        finally:
            self._commit_skip(top, steps, entered, timestep)
        return entered

    def _commit_skip(self, top, steps, entered, timestep):
        """Apply *steps* covered edges of *top*'s clock and requeue it.

        Each covered activation requeued the edge and drew one heap
        sequence number; the edge's next entry carries the last.  An
        *entered* timestep's entry is popped at once, as
        :meth:`_advance_time` pops it (its time hooks and sinks have
        run), so it is never pushed.
        """
        edge = top[2]
        self.timestep_count = timestep + steps
        self.delta_count += steps
        if steps:
            last, after = edge.skip(top[0], steps)
            seq = next(itertools.islice(self._seq, steps - 1, None))
            if not entered:
                self.now = last
                heappush(self._timed, [after, seq, edge, True])
                return
        elif entered:
            after = top[0]
        else:
            heappush(self._timed, top)
            return
        self.now = after
        self.timestep_count += 1
        edge._waiting_timeout = False
        self._make_runnable(edge)

    def run(self, duration=None, max_deltas=None):
        """Run the simulation.

        *duration* bounds simulated time (relative, femtoseconds); when
        omitted the kernel runs until event starvation or :meth:`stop`.
        *max_deltas* bounds the total number of delta cycles, which
        guards against combinational loops in tests.

        The kernel becomes the current one first: events and signals
        built without an explicit kernel bind lazily on first use, and
        must bind to the kernel that runs them, not to whichever was
        constructed last.
        """
        set_current_kernel(self)
        end_time = None
        if duration is not None:
            check_duration(duration)
            end_time = self.now + duration
        if not self._started:
            self._initialize()
        # Bound once per run: a hook's no-op callbacks are skipped, and
        # each phase below runs only when it has work.
        cycle_begin = _callbacks(self.hooks, "on_cycle_begin")
        cycle_end = _callbacks(self.hooks, "on_cycle_end")
        time_hooks = _callbacks(self.hooks, "on_time_advance")
        sinks = [sink.sample for sink in self.trace_sinks]
        # The quiet-timestep fast-forward is bound once per run too.
        skip_hooks = _skip_hooks(self.hooks, self.trace_sinks, max_deltas)
        gated = list(self.trace_sinks)
        tracer = self.tracer
        runnable = self._runnable
        timed = self._timed
        deltas_executed = 0
        while not self._stop_requested:
            for begin in cycle_begin:
                begin(self)
            if runnable:
                self._evaluate()
            if self._update_queue:
                self._update()
            if self._delta_events or self._delta_processes:
                self._delta_notify()
            for end in cycle_end:
                end(self)
            self.delta_count += 1
            deltas_executed += 1
            if tracer.enabled:
                tracer.emit("kernel", "delta", scope=self.name)
            if self._stop_requested:
                break
            if max_deltas is not None and deltas_executed >= max_deltas:
                break
            if runnable:
                continue
            while timed and not timed[0][3]:
                heappop(timed)
            if not timed:
                break
            if end_time is not None and timed[0][0] > end_time:
                # Do not consume events beyond the horizon; leave them for
                # a later run() call and settle the clock at the horizon.
                self.now = end_time
                break
            if (skip_hooks is not None and not tracer.enabled
                    and timed[0][2].__class__ is _EdgeProcess):
                entered = self._fast_forward(skip_hooks, gated, end_time)
                if entered:
                    # Its delta cycle is next.
                    continue
                if (entered is not None and end_time is not None
                        and timed[0][0] > end_time):
                    # Skipped up to the horizon.
                    self.now = end_time
                    break
            self._advance_time(time_hooks, sinks)
        if end_time is not None and self.now < end_time and not self._stop_requested:
            self.now = end_time
        self._stop_requested = False
        return self.now
