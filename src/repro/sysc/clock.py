"""Periodic clock source (sc_clock).

The clock drives a boolean :class:`~repro.sysc.signal.Signal` and exposes
``posedge`` / ``negedge`` events.  Because the clock installs timed
events for as long as the simulation runs, attaching one guarantees the
scheduler keeps cycling — which is what lets the co-simulation hooks
advance the ISS on every SystemC clock period.
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
