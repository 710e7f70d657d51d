"""Kernel extension hooks.

The paper's two schemes are implemented as *modifications of the SystemC
scheduler* (Figures 3 and 5).  Our kernel exposes those exact insertion
points as a hook interface, so that the schemes in :mod:`repro.cosim`
extend the scheduler without the user's SystemC code being aware of them
— the property the paper calls "transparent to the SystemC code written
by the user".
"""

import math


def sinks_due(sinks):
    """The earliest ``due`` time of the grid-gated trace *sinks*.

    A grid-gated sink (:class:`repro.obs.metrics.MetricsSampler`)
    records nothing when sampled before simulated time reaches its
    ``due``; ``math.inf`` when there are no sinks.
    """
    return min((sink.due for sink in sinks), default=math.inf)


class KernelHook:
    """Base class for scheduler extensions.

    Subclasses override any of the three callbacks; the defaults do
    nothing so a hook only pays for what it uses.

    Two more methods let the kernel fast-forward *quiet* timesteps: a
    clock edge that no process waits on, with nothing else due.  The
    kernel skips such edges only when every hook sets
    :attr:`skips_quiet`, and then at most :meth:`quiet_steps` of them;
    :meth:`skip_steps` accounts for each one exactly as the three
    callbacks would have.  A hook that :attr:`runs_ahead` does real
    work in those timesteps and may stop early (see
    :meth:`skip_steps`).
    """

    #: May :meth:`quiet_steps` return more than 0?  Read once per run.
    skips_quiet = False
    #: Does :meth:`skip_steps` run the time hook of each timestep it
    #: covers, sampling the trace sinks after it, and stop at the first
    #: that leaves work for its cycle begin?  Such a hook skips alone.
    #: Read once per run.
    runs_ahead = False

    def on_cycle_begin(self, kernel):
        """Called at the beginning of every simulation (delta) cycle,
        before evaluate — where GDB-Kernel polls the breakpoint pipe
        (Fig. 3) and Driver-Kernel drains driver messages (Fig. 5)."""

    def on_cycle_end(self, kernel):
        """Called after update/delta-notification of every cycle — where
        Driver-Kernel checks for interrupts raised by hardware and
        forwards them on the interrupt socket (Fig. 5)."""

    def on_time_advance(self, kernel):
        """Called whenever simulated time advances to a new timestep —
        where co-simulation bindings grant the ISS its cycle budget."""

    def quiet_steps(self, kernel):
        """How many coming quiet timesteps this hook can account for.

        A quiet timestep's callbacks would only update counters: they
        neither run processes, move data nor stop the kernel.  0 makes
        the kernel materialise the next timestep; a hook that
        :attr:`runs_ahead` may return ``math.inf``, since it stops
        itself.
        """
        return 0

    def skip_steps(self, kernel, times, sinks):
        """Account for quiet timesteps at *times*; ``(steps, entered)``.

        *times* are ascending, in femtoseconds: a list when every
        hook's room is finite, else a lazy iterable.  *sinks* are the
        kernel's trace sinks, each grid-gated (:func:`sinks_due`).  A
        covered timestep at or past a sink's ``due`` samples it in
        place, as a materialised one would: ``kernel.now`` and
        ``kernel.timestep_count`` set to that timestep, after its time
        hook and before its cycle begin.

        A hook that only accounts covers them all, each as the three
        callbacks would have, and returns ``(len(times), False)``.

        A hook that :attr:`runs_ahead` runs each timestep's time hook
        itself: it sets ``kernel.now`` and ``kernel.timestep_count`` as
        the kernel would, then samples the due *sinks*.  When that left
        nothing for the timestep's cycle begin, it accounts the rest of
        the timestep (its callbacks at cycle begin and end) and goes
        on.  Otherwise it stops and returns ``(steps, True)``: *steps*
        timesteps were covered, and the next one was *entered* — its
        time hook and sinks have run, and the kernel materialises it
        from its cycle begin on.
        """
        raise NotImplementedError
