"""Periodic clock source (sc_clock).

The clock drives a boolean :class:`~repro.sysc.signal.Signal` and exposes
``posedge`` / ``negedge`` events.  Because the clock installs timed
events for as long as the simulation runs, attaching one guarantees the
scheduler keeps cycling — which is what lets the co-simulation hooks
advance the ISS on every SystemC clock period.

An edge nobody waits on is still a timestep, but its only effects are
counters and the signal's level; :meth:`_EdgeProcess.fast_forward`
applies a run of such edges arithmetically for the kernel's
quiet-timestep fast-forward (:meth:`repro.sysc.kernel.Kernel.run`).
"""

from repro.errors import SimulationError
from repro.sysc.event import Event
from repro.sysc.process import Process, ProcessKind
from repro.sysc.signal import Signal
from repro.sysc.simtime import check_duration


class Clock:
    """A free-running two-phase clock."""

    def __init__(self, period, name="clock", duty=0.5, start_high=True,
                 kernel=None):
        check_duration(period)
        if period <= 0:
            raise SimulationError("clock period must be positive")
        high_time = int(period * duty)
        if not 0 < high_time < period:
            raise SimulationError(
                "duty cycle %r leaves no time for one of the phases" % (duty,)
            )
        self.name = name
        self.period = period
        self.high_time = high_time
        self.low_time = period - high_time
        self.start_high = start_high
        self.signal = Signal(0, name + ".sig", kernel)
        self.posedge = Event(name + ".posedge", kernel)
        self.negedge = Event(name + ".negedge", kernel)
        self.posedge_count = 0
        if kernel is None:
            from repro.sysc.kernel import current_kernel

            kernel = current_kernel()
        kernel.adopt_process(_EdgeProcess(self))

    def __repr__(self):
        return "Clock(%r, period=%d)" % (self.name, self.period)

    def read(self):
        """Current clock level (0 or 1)."""
        return self.signal.read()


class _EdgeProcess(Process):
    """The clock's thread: drive one edge, then sleep out its phase.

    Scheduled exactly like a thread yielding its phase length — same
    name, kind, heap entries and deltas — but each activation is plain
    code: no generator to resume and no wait condition to decode.
    """

    def __init__(self, clock):
        super().__init__(clock.name + ".gen", ProcessKind.THREAD, None)
        self.clock = clock
        self._rising = clock.start_high

    def run(self, kernel):
        self.trigger_count += 1
        clock = self.clock
        rising = self._rising
        self._rising = not rising
        if rising:
            clock.signal.write(1)
            clock.posedge_count += 1
            clock.posedge.notify_delta()
            kernel._queue_timed_process(self, clock.high_time)
        else:
            clock.signal.write(0)
            clock.negedge.notify_delta()
            kernel._queue_timed_process(self, clock.low_time)

    def unobserved(self):
        """No process waits on an edge event or on the clock signal."""
        clock = self.clock
        posedge, negedge = clock.posedge, clock.negedge
        changed = clock.signal.changed
        return not (posedge._static_waiters or posedge._dynamic_waiters
                    or negedge._static_waiters or negedge._dynamic_waiters
                    or changed._static_waiters or changed._dynamic_waiters)

    def fast_forward(self, first, limit, horizon):
        """Apply up to *limit* unobserved edges from time *first* on.

        Only edges strictly before *horizon* are taken.  Each leaves
        what :meth:`run` plus the following update and delta
        notification would have left: the phase, the trigger, posedge
        and signal write counts, and the signal level.  Returns
        ``(times, next_edge)``: the times of the edges taken and the
        time of the first edge not taken; the caller requeues the
        process there.
        """
        clock = self.clock
        rising = self._rising
        times = []
        time = first
        while len(times) < limit and time < horizon:
            times.append(time)
            time += clock.high_time if rising else clock.low_time
            rising = not rising
        steps = len(times)
        if steps:
            self.trigger_count += steps
            clock.posedge_count += (steps + self._rising) // 2
            self._rising = rising
            signal = clock.signal
            signal.write_count += steps
            # The last edge taken was rising exactly when the next is not.
            signal._current = signal._next = 0 if rising else 1
        return times, time
