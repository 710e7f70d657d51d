"""Determinism property tests (hypothesis).

The observability layer's core claim: the entire trace and every
deterministic benchmark counter are functions of the scenario
parameters alone — never of the wall clock or host state.  Two seeded
runs must therefore produce *identical* traces and identical
``BENCH_*.json`` records once the (explicitly host-dependent) ``wall``
object is excluded — including under an injected link-fault plan, whose
faults are themselves seeded.
"""

from hypothesis import given, settings

from repro.obs.bench import BenchRun
from repro.obs.scenarios import (bench_scenario, quickstart_config,
                                 run_traced_scenario)
from repro.obs.tracer import Tracer, dump_events
from tests.support import SIM_SETTINGS, fault_plans, schemes, seeds


def _bench_record(scheme, seed):
    traced, run = bench_scenario(
        quickstart_config(scheme, seed=seed, max_packets=1), sim_us=60,
        name="det_%s" % scheme)
    record = run.as_dict()
    wall = record.pop("wall")
    assert "seconds" in wall       # host-dependent data stays in `wall`
    for value in record["counters"].values():
        assert isinstance(value, int)
    return dump_events(traced.tracer.events()), record


def _chaos_outcome(scheme, seed, plan):
    """One fault-injected run: its trace plus whatever happened.

    Some fault sequences exceed what the transport can recover (that is
    chaos testing's point) — a killed run must still be *deterministic*:
    the same exception, at the same simulated moment, after the same
    trace prefix.  The tracer is threaded in from outside so its events
    survive a mid-run failure.
    """
    tracer = Tracer()
    try:
        run = run_traced_scenario(
            quickstart_config(scheme, seed=seed, max_packets=1,
                              reliability=True, fault_plan=plan,
                              tracer=tracer), sim_us=60)
        outcome = {"stats": (run.stats.generated, run.stats.forwarded,
                             run.stats.received, run.stats.corrupt),
                   "metrics": run.system.metrics.as_dict()}
    except Exception as error:
        outcome = {"error": "%s: %s" % (type(error).__name__, error)}
    return dump_events(tracer.events()), outcome


@given(scheme=schemes, seed=seeds)
@settings(**SIM_SETTINGS)
def test_two_seeded_runs_identical(scheme, seed):
    first_trace, first_record = _bench_record(scheme, seed)
    second_trace, second_record = _bench_record(scheme, seed)
    assert first_trace == second_trace
    assert first_record == second_record


@given(scheme=schemes, seed=seeds, plan=fault_plans(rate=0.04))
@settings(**SIM_SETTINGS)
def test_fault_injected_runs_identical(scheme, seed, plan):
    """The fault plan is part of the seed: replaying it replays the
    exact same drops/corruptions/delays, the exact same recovery — and,
    for unrecoverable sequences, the exact same failure."""
    first_trace, first_outcome = _chaos_outcome(scheme, seed, plan)
    second_trace, second_outcome = _chaos_outcome(scheme, seed, plan)
    assert first_trace == second_trace
    assert first_outcome == second_outcome


@given(seed=seeds)
@settings(**SIM_SETTINGS)
def test_trace_clock_is_simulation_state(seed):
    """Event time fields must come from the kernel's counters: they are
    monotonic in (timestep, delta, seq) and carry simulated now()."""
    run = run_traced_scenario(
        quickstart_config("gdb-kernel", seed=seed, max_packets=1),
        sim_us=60)
    events = run.tracer.events()
    assert events
    ordering = [(e.timestep, e.seq) for e in events]
    assert ordering == sorted(ordering)
    assert events[-1].now <= run.system.kernel.now


def test_wall_clock_isolated_to_wall_object():
    """BenchRun.as_dict puts perf_counter data only under `wall`."""
    run = BenchRun(name="x").start()
    run.record(trace_events=10, sc_timesteps=5)
    run.stop()
    record = run.as_dict()
    assert set(record) == {"schema", "name", "config", "counters",
                           "profile", "wall"}
    assert all(isinstance(v, int) for v in record["counters"].values())
