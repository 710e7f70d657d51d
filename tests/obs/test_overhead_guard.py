"""Overhead guard: tracing must be free when off and passive when on.

Wall-clock timing is flaky under CI load, so the guard is expressed in
the simulation's own deterministic units instead:

- a *disabled* tracer's ``emit`` must never even be called — every
  instrumented hot path guards with ``if tracer.enabled:`` (the
  booby-trapped tracer below proves it);
- an *enabled* tracer must not perturb the simulation: the poll-count
  clock (``cheap_polls``/``sync_transactions``), ISS cycle counts and
  router statistics must be identical with tracing on, off, or absent;
- instrumentation volume is bounded: events per kernel timestep stays
  under a fixed budget, so new emit sites cannot silently turn the
  tracer into a hot-path cost.
"""

import pytest

from repro.obs.scenarios import (COSIM_SCHEMES, quickstart_config,
                                 run_traced_scenario)
from repro.obs.tracer import NULL_TRACER, Tracer


def _run(scheme, **fields):
    return run_traced_scenario(
        quickstart_config(scheme, max_packets=1, **fields), sim_us=60)


#: Maximum trace events per kernel timestep (generous: the chattiest
#: scheme, gdb-wrapper, emits ~9/timestep in the pinned scenario).
EVENT_BUDGET_PER_TIMESTEP = 30


class BoobyTrappedTracer(Tracer):
    """A disabled tracer that fails the test if any call site forgets
    the ``if tracer.enabled:`` guard on the emit fast path."""

    def __init__(self):
        super().__init__(capacity=0, enabled=False)

    def emit(self, category, name, scope="", **args):
        raise AssertionError(
            "emit(%s/%s) called on a disabled tracer: an instrumentation "
            "site is missing its `if tracer.enabled:` guard" %
            (category, name))


def _fingerprint(run):
    """Everything deterministic the simulation computed."""
    stats = run.stats
    system = run.system
    return {
        "generated": stats.generated,
        "forwarded": stats.forwarded,
        "received": stats.received,
        "corrupt": stats.corrupt,
        "metrics": system.metrics.as_dict(),
        "timesteps": system.kernel.timestep_count,
        "deltas": system.kernel.delta_count,
        "now": system.kernel.now,
        "cpu_cycles": [cpu.cycles for cpu in system.cpus],
        "cpu_instructions": [cpu.instructions for cpu in system.cpus],
    }


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
class TestOverheadGuard:
    def test_disabled_tracer_emit_is_never_called(self, scheme):
        """The whole scenario must run without entering emit() once."""
        trap = BoobyTrappedTracer()
        run = _run(scheme, tracer=trap)
        assert len(trap) == 0
        assert run.stats.received > 0       # the run actually happened

    def test_tracing_does_not_perturb_the_simulation(self, scheme):
        """Identical poll counts, ISS cycles and traffic stats whether
        tracing is enabled, disabled, or never attached."""
        traced = _run(scheme)
        disabled = _run(scheme, tracer=Tracer(capacity=0, enabled=False))
        untraced = _run(scheme, tracer=NULL_TRACER)
        assert len(traced.tracer) > 0
        assert _fingerprint(traced) == _fingerprint(disabled)
        assert _fingerprint(traced) == _fingerprint(untraced)

    def test_event_volume_per_timestep_is_bounded(self, scheme):
        """Poll-count-clock budget: emits per timestep stays fixed."""
        run = _run(scheme)
        timesteps = run.system.kernel.timestep_count
        assert timesteps > 0
        assert run.tracer.dropped == 0
        assert len(run.tracer) <= EVENT_BUDGET_PER_TIMESTEP * timesteps


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
class TestProcessBackendGuard:
    """The forked ISS workers (docs/parallel.md, "Backends") follow the
    same discipline: their buffered events reach the master tracer only
    when it is enabled, so a disabled tracer receives no replay."""

    _PROCESS = dict(parallel="process", workers=2)

    def test_disabled_tracer_emit_is_never_called(self, scheme):
        trap = BoobyTrappedTracer()
        run = _run(scheme, tracer=trap, **self._PROCESS)
        run.system.close()
        assert len(trap) == 0
        assert run.stats.received > 0

    def test_tracing_does_not_perturb_the_simulation(self, scheme):
        runs = [_run(scheme, tracer=tracer, **self._PROCESS)
                for tracer in (None, Tracer(capacity=0, enabled=False),
                               NULL_TRACER)]
        for run in runs:
            run.system.close()
        traced, disabled, untraced = runs
        assert len(traced.tracer) > 0
        assert _fingerprint(traced) == _fingerprint(disabled)
        assert _fingerprint(traced) == _fingerprint(untraced)


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
class TestSpanPlumbingIsFreeWhenDisabled:
    """Correlation-id bookkeeping follows the same discipline as emit:
    a disabled tracer must not even advance a span counter (no id
    string is ever built), while a traced run must."""

    def test_disabled_run_allocates_no_span_ids(self, scheme):
        run = _run(scheme, tracer=BoobyTrappedTracer())
        assert run.stats.received > 0
        for driver in _target_drivers(run):
            assert driver._bp_seq == 0
            assert driver._held_span is None
        if scheme == "driver-kernel":
            assert run.system.scheme._irq_seq == {}

    def test_traced_run_allocates_span_ids(self, scheme):
        run = _run(scheme)
        if scheme == "driver-kernel":
            assert run.system.scheme._irq_seq
        else:
            assert any(driver._bp_seq > 0
                       for driver in _target_drivers(run))


def _target_drivers(run):
    """Every TargetDriver in *run* (GDB schemes; empty otherwise)."""
    return [context.driver for context in run.system.scheme.contexts
            if hasattr(context, "driver")]


def test_null_tracer_is_shared_and_disabled():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.emit("x", "y", z=1)         # must be a cheap no-op
    assert len(NULL_TRACER) == 0


def test_ring_buffer_bounds_memory():
    """A full ring discards oldest events and counts the drops."""
    tracer = Tracer(capacity=4)
    for index in range(10):
        tracer.emit("t", "e", index=index)
    assert len(tracer) == 4
    assert tracer.dropped == 6
    assert [event.args["index"] for event in tracer.events()] == \
        [6, 7, 8, 9]
    assert tracer.events()[-1].seq == 9     # seq keeps global order
