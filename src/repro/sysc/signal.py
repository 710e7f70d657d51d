"""Signals with evaluate/update semantics.

A :class:`Signal` holds a current value readable during the evaluate
phase; writes are deferred to the update phase of the same delta cycle,
and the ``changed`` event fires (delta notification) only when the new
value differs from the old — exactly the sc_signal discipline.
"""

from repro.sysc.event import Event


class Signal:
    """A single-driver signal with deferred-update write semantics."""

    def __init__(self, initial=0, name="signal", kernel=None):
        self.name = name
        self._kernel = kernel
        self._current = initial
        self._next = initial
        self._update_pending = False
        self.changed = Event(name + ".changed", kernel)
        self.write_count = 0

    def __repr__(self):
        return "Signal(%r, value=%r)" % (self.name, self._current)

    def _resolve_kernel(self):
        if self._kernel is None:
            from repro.sysc.kernel import current_kernel

            self._kernel = current_kernel()
        return self._kernel

    # -- access -----------------------------------------------------------

    def read(self):
        """Current value (the value as of the last completed update)."""
        return self._current

    @property
    def value(self):
        return self._current

    def write(self, value):
        """Schedule *value* to become current at the next update phase."""
        self.write_count += 1
        self._next = value
        if not self._update_pending:
            self._update_pending = True
            kernel = self._kernel
            if kernel is None:
                kernel = self._resolve_kernel()
            kernel._update_queue.append(self)

    def force(self, value):
        """Set the current value immediately, bypassing the update phase.

        Reserved for testbench/cosim bootstrap code, never for models.
        """
        self._current = value
        self._next = value

    # -- kernel side --------------------------------------------------------

    def _apply_update(self):
        self._update_pending = False
        if self._next != self._current:
            self._current = self._next
            changed = self.changed
            # No process runs between the update phase and the delta
            # notification, so a change nobody waits on wakes nobody:
            # skip queueing it (a clock's signal changes every edge).
            if changed._static_waiters or changed._dynamic_waiters:
                changed.notify_delta()
