"""Periodic clock source (sc_clock).

The clock drives a boolean :class:`~repro.sysc.signal.Signal` and exposes
``posedge`` / ``negedge`` events.  Because the clock installs timed
events for as long as the simulation runs, attaching one guarantees the
scheduler keeps cycling — which is what lets the co-simulation hooks
advance the ISS on every SystemC clock period.

An edge nobody waits on is still a timestep, but its only effects are
counters and the signal's level; :meth:`_EdgeProcess.skip`
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

    def edge_times(self, first, horizon):
        """The times of the coming edges from *first* on, lazily.

        Only edges strictly before *horizon* are produced, and nothing
        is changed: the kernel commits the edges its hooks covered
        afterwards (:meth:`skip`).
        """
        clock = self.clock
        high_time, low_time = clock.high_time, clock.low_time
        rising = self._rising
        time = first
        while time < horizon:
            yield time
            time += high_time if rising else low_time
            rising = not rising

    def skip(self, first, steps):
        """Apply *steps* unobserved edges, the first at time *first*.

        Each leaves what :meth:`run` plus the following update and
        delta notification would have left: the phase, the trigger,
        posedge and signal write counts, and the signal level.  Returns
        ``(last, after)``: the time of the last edge applied and of the
        next one; the caller requeues the process at *after*.
        """
        clock = self.clock
        rising = self._rising
        self.trigger_count += steps
        clock.posedge_count += (steps + rising) // 2
        after = first + steps // 2 * clock.period
        if steps % 2:
            after += clock.high_time if rising else clock.low_time
            self._rising = rising = not rising
        signal = clock.signal
        signal.write_count += steps
        # The last edge applied was rising exactly when the next is not.
        signal._current = signal._next = 0 if rising else 1
        return after - (clock.low_time if rising else clock.high_time), after
