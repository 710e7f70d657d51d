"""Serial/parallel equivalence property tests (hypothesis).

The parallel engine's core contract (docs/parallel.md): at the same
sync quantum, a parallel run produces the *byte-identical* trace and
:class:`CosimMetrics` of a serial run — across schemes, MPSoC widths,
quanta and fault plans.  Fault-injected contexts degrade to the serial
path (their RNG draw order is part of determinism), so equivalence
must hold there too, just with zero prefetched jobs for those
contexts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosim.faults import FaultPlan
from repro.obs.scenarios import quickstart_config, run_traced_scenario
from repro.obs.tracer import dump_events
from tests.support import (SIM_SETTINGS, fault_plans, mpsoc_widths,
                           quanta, schemes, seeds)


def _outcome(scheme, seed, num_cpus, quantum, parallel, workers=2,
             fault_plan=None, reliability=None):
    run = run_traced_scenario(quickstart_config(
        scheme, seed=seed, max_packets=1, sync_quantum=quantum,
        num_cpus=num_cpus, parallel=parallel, workers=workers,
        fault_plan=fault_plan, reliability=reliability), sim_us=60)
    trace = dump_events(run.tracer.events())
    metrics = run.system.metrics.as_dict()
    stats = (run.stats.generated, run.stats.forwarded,
             run.stats.received, run.stats.corrupt)
    run.system.close()
    return trace, metrics, stats


@given(scheme=schemes, seed=seeds, num_cpus=mpsoc_widths,
       quantum=quanta)
@settings(**SIM_SETTINGS)
def test_parallel_matches_serial(scheme, seed, num_cpus, quantum):
    serial = _outcome(scheme, seed, num_cpus, quantum, parallel=False)
    parallel = _outcome(scheme, seed, num_cpus, quantum, parallel="thread")
    assert parallel == serial


@given(scheme=schemes, seed=seeds, quantum=st.sampled_from([1, 8]),
       plan=fault_plans())
@settings(**SIM_SETTINGS)
def test_faulty_runs_degrade_but_stay_identical(scheme, seed, quantum,
                                                plan):
    def attempt(parallel):
        try:
            return _outcome(scheme, seed, 2, quantum, parallel=parallel,
                            fault_plan=plan, reliability=True)
        except Exception as error:
            return "%s: %s" % (type(error).__name__, error)

    assert attempt("thread") == attempt(False)


@given(seed=seeds, quantum=st.sampled_from([1, 8]))
@settings(**dict(SIM_SETTINGS, max_examples=3))
def test_process_backend_matches_serial(seed, quantum):
    """The forked-worker backend obeys the same equivalence contract."""
    serial = _outcome("gdb-kernel", seed, 2, quantum, parallel=False)
    parallel = _outcome("gdb-kernel", seed, 2, quantum, parallel="process")
    assert parallel == serial


def test_driver_kernel_process_backend_matches_serial():
    """Driver-Kernel CPUs decline the forked worker (syscall handlers),
    so the scheme runs the serial advance — equivalence still holds."""
    serial = _outcome("driver-kernel", 7, 2, 8, parallel=False)
    parallel = _outcome("driver-kernel", 7, 2, 8, parallel="process")
    assert parallel == serial


def test_wrapper_planning_never_probes_unsafe_transports():
    """Fuzzer-found regression (docs/fuzzing.md): the GDB-Wrapper
    parallel planning loop used to evaluate ``needs_attention`` for
    *every* wrapper before running any serial-fallback body.  That
    probe pumps the reliable transport — retransmit timers tick and
    transport events emit — so with two fault-injected CPUs at a
    quantum > 1, cpu1's retransmit landed in the trace before cpu0's
    quantum sync, diverging from the serial order."""
    plan = FaultPlan(script={index: "drop"
                             for index in range(6, 160, 3)},
                     delay_polls=2)

    def outcome(parallel):
        run = run_traced_scenario(quickstart_config(
            "gdb-wrapper", seed=169, max_packets=1, num_ports=2,
            sync_quantum=8, num_cpus=2, reliability=True,
            fault_plan=plan, parallel=parallel), sim_us=40)
        trace = dump_events(run.tracer.events())
        metrics = run.system.metrics.as_dict()
        run.system.close()
        return trace, metrics

    assert outcome("thread") == outcome(False)
