"""The co-simulation time binding.

Both engines keep their own notion of time: the SystemC kernel counts
femtoseconds, the ISS counts cycles.  A :class:`ClockBinding` ties them
together: every time the SystemC kernel advances to a new timestep, the
ISS earns a proportional cycle budget.  The schemes spend that budget
through their master-side advance calls.

A binding can also batch budgets across a *sync quantum* of N
timesteps: :meth:`accumulate` banks each timestep's budget without a
synchronisation (:meth:`accumulate_many` banks a run of timesteps the
kernel fast-forwarded), :meth:`due` says when the quantum is full, and
:meth:`drain` hands the whole bank to one sync transaction.  At the
default ``quantum=1`` every timestep is due immediately, which is the
classic lock-step behavior.

With the DMI tier active a drained quantum may be serviced inside the
*local time warp* (TLM-2.0 temporal decoupling): the ISS runs ahead of
SystemC time against its direct-memory view and the synchronisation is
reconciled locally, without an RSP status round trip.
:meth:`note_warp` records those warped reconciliations so the warp is
observable (and checkpointable) alongside the banked-quantum counters.
"""

from repro.errors import CosimError


class ClockBinding:
    """Maps SystemC simulated time to ISS cycle budgets."""

    #: The local-time-warp counters (:meth:`note_warp`): checkpointed,
    #: sampled by the telemetry series and folded per context.
    WARP_COUNTERS = ("warped_syncs", "warped_cycles", "warped_steps")

    def __init__(self, cpu_hz, time_per_step_fs, quantum=1):
        if cpu_hz <= 0 or time_per_step_fs <= 0:
            raise CosimError("clock binding needs positive frequencies")
        if quantum < 1:
            raise CosimError("sync quantum must be >= 1")
        self.cpu_hz = cpu_hz
        self.time_per_step_fs = time_per_step_fs
        self.quantum = quantum
        self._last_time_fs = 0
        self._cycle_carry = 0.0
        self.granted_cycles = 0
        self.pending_budget = 0
        self.pending_steps = 0
        # Local-time-warp bookkeeping (DMI tier): synchronisations whose
        # status exchange was reconciled locally instead of over RSP.
        self.warped_syncs = 0
        self.warped_cycles = 0
        self.warped_steps = 0

    def cycles_for_advance(self, now_fs):
        """Cycle budget earned by advancing SystemC time to *now_fs*."""
        delta_fs = now_fs - self._last_time_fs
        if delta_fs < 0:
            raise CosimError("simulation time moved backwards")
        self._last_time_fs = now_fs
        exact = delta_fs * self.cpu_hz / 1e15 + self._cycle_carry
        budget = int(exact)
        self._cycle_carry = exact - budget
        self.granted_cycles += budget
        return budget

    # -- quantum batching ------------------------------------------------------

    def accumulate(self, now_fs):
        """Bank the budget for advancing to *now_fs*; returns the bank.

        One banked timestep per call; no synchronisation happens here.
        """
        self.pending_budget += self.cycles_for_advance(now_fs)
        self.pending_steps += 1
        return self.pending_budget

    def accumulate_many(self, times):
        """:meth:`accumulate` at each of *times* (ascending), in one call.

        The per-timestep budgets are computed with the same float
        arithmetic, in the same order, so the carry and the bank end
        exactly where as many :meth:`accumulate` calls leave them.
        """
        last = self._last_time_fs
        if times[0] < last:
            raise CosimError("simulation time moved backwards")
        carry = self._cycle_carry
        cpu_hz = self.cpu_hz
        banked = 0
        for now_fs in times:
            exact = (now_fs - last) * cpu_hz / 1e15 + carry
            last = now_fs
            budget = int(exact)
            carry = exact - budget
            banked += budget
        self._last_time_fs = last
        self._cycle_carry = carry
        self.granted_cycles += banked
        self.pending_budget += banked
        self.pending_steps += len(times)
        return self.pending_budget

    def due(self):
        """True when a full quantum of timesteps has been banked."""
        return self.pending_steps >= self.quantum

    def drain(self):
        """Hand over the banked ``(budget, steps)`` and clear the bank."""
        budget, steps = self.pending_budget, self.pending_steps
        self.pending_budget = 0
        self.pending_steps = 0
        return budget, steps

    def note_warp(self, budget, steps):
        """Record one synchronisation serviced inside the time warp.

        Called by a scheme when the DMI tier let it reconcile a drained
        quantum locally: the ISS ran *budget* cycles ahead over *steps*
        banked timesteps without the RSP status exchange a transactional
        sync would have paid.
        """
        self.warped_syncs += 1
        self.warped_cycles += budget
        self.warped_steps += steps

    def warp_state(self):
        """Checkpoint-stable image of the warp counters."""
        return {name: getattr(self, name) for name in self.WARP_COUNTERS}

    def reset(self, now_fs=0):
        """Re-base the binding at *now_fs* (discards carry and bank)."""
        self._last_time_fs = now_fs
        self._cycle_carry = 0.0
        self.pending_budget = 0
        self.pending_steps = 0
