"""Kernel extension hooks.

The paper's two schemes are implemented as *modifications of the SystemC
scheduler* (Figures 3 and 5).  Our kernel exposes those exact insertion
points as a hook interface, so that the schemes in :mod:`repro.cosim`
extend the scheduler without the user's SystemC code being aware of them
— the property the paper calls "transparent to the SystemC code written
by the user".
"""


class KernelHook:
    """Base class for scheduler extensions.

    Subclasses override any of the three callbacks; the defaults do
    nothing so a hook only pays for what it uses.

    Two more methods let the kernel fast-forward *quiet* timesteps: a
    clock edge that no process waits on, with nothing else due.  The
    kernel skips such edges only when every hook sets
    :attr:`skips_quiet`, and then at most :meth:`quiet_steps` of them;
    :meth:`skip_steps` accounts for each one exactly as the three
    callbacks would have.
    """

    #: May :meth:`quiet_steps` return more than 0?  Read once per run.
    skips_quiet = False

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
        the kernel materialise the next timestep.
        """
        return 0

    def skip_steps(self, kernel, times):
        """Account for the skipped quiet timesteps at *times*.

        *times* are ascending, in femtoseconds; each is accounted as
        the three callbacks would have accounted it.
        """
