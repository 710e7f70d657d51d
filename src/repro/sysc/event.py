"""Simulation events.

An :class:`Event` is the primitive synchronisation object of the kernel:
processes become runnable when an event they wait on is *triggered*.
Three notification flavours mirror SystemC:

- :meth:`Event.notify` — immediate: waiting processes join the current
  evaluate phase.
- :meth:`Event.notify_delta` — delta: waiting processes run in the next
  delta cycle at the same simulation time.
- :meth:`Event.notify_after` — timed: the event fires after a relative
  delay.
"""

from repro.sysc.simtime import check_duration


class Event:
    """A notifiable simulation event with static and dynamic waiters."""

    def __init__(self, name="event", kernel=None):
        self.name = name
        self._kernel = kernel
        # Processes statically sensitive to this event (persistent).
        self._static_waiters = []
        # Processes dynamically waiting (one-shot; cleared on trigger).
        self._dynamic_waiters = []

    def __repr__(self):
        return "Event(%r)" % self.name

    # -- wiring ---------------------------------------------------------

    def _resolve_kernel(self):
        if self._kernel is None:
            from repro.sysc.kernel import current_kernel

            self._kernel = current_kernel()
        return self._kernel

    def add_static(self, process):
        """Register *process* as statically sensitive to this event."""
        if process not in self._static_waiters:
            self._static_waiters.append(process)

    def add_dynamic(self, process):
        """Register a one-shot (dynamic) waiter."""
        if process not in self._dynamic_waiters:
            self._dynamic_waiters.append(process)

    def remove_dynamic(self, process):
        """Remove a dynamic waiter (no-op if absent)."""
        if process in self._dynamic_waiters:
            self._dynamic_waiters.remove(process)

    # -- notification ---------------------------------------------------

    def notify(self):
        """Immediate notification: trigger waiters in the current phase."""
        self._trigger()

    def notify_delta(self):
        """Delta notification: waiters run in the next delta cycle."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._resolve_kernel()
        # The set makes dedup (and Kernel._cancel_event) O(1); the list
        # keeps the deterministic notification order.
        if self not in kernel._delta_event_set:
            kernel._delta_event_set.add(self)
            kernel._delta_events.append(self)

    def notify_after(self, delay):
        """Timed notification after a relative *delay* (femtoseconds)."""
        check_duration(delay)
        if delay == 0:
            self.notify_delta()
        else:
            self._resolve_kernel()._queue_timed_event(self, delay)

    def cancel(self):
        """Cancel pending delta/timed notifications of this event."""
        self._resolve_kernel()._cancel_event(self)

    # -- kernel side ----------------------------------------------------

    def _trigger(self):
        """Make every waiter runnable; consume dynamic waiters."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._resolve_kernel()
        runnable = kernel._runnable
        # Kernel._make_runnable, inlined: this runs for every trigger.
        for process in self._static_waiters:
            if not (process.terminated or process._queued):
                process._queued = True
                runnable.append(process)
        if self._dynamic_waiters:
            waiters, self._dynamic_waiters = self._dynamic_waiters, []
            for process in waiters:
                process._dynamic_triggered(self)
                if not (process.terminated or process._queued):
                    process._queued = True
                    runnable.append(process)
