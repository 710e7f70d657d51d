"""DMI-tier equivalence property tests (docs/dmi.md).

The zero-copy tier's core contract: switching a scenario onto DMI
bindings changes *how* data moves (view accesses and local resumes
instead of transfer transactions and syncs), never *what* the guest
computes or when.  Guest-visible results, the non-transport metrics,
and the span timeline must all be identical to the transactional run
— across schemes, quanta and fault plans, serial and parallel — and a
DMI run must itself be byte-identical between serial and parallel
execution (the same argument docs/parallel.md makes).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.scenarios import run_traced_scenario
from repro.obs.spans import spans_from_tracer
from repro.obs.tracer import dump_events
from tests.support import (SIM_SETTINGS, fault_plans, quanta, schemes,
                           seeds)

#: Counters that are *supposed* to differ between the tiers: the DMI
#: motion counters themselves and the transaction/sync traffic the tier
#: exists to eliminate.  The JIT cache counters are not among them:
#: the stub's ``M`` writes and the DMI view both invalidate
#: word-precisely (``Cpu.invalidate_code``), so compiled code lives
#: and dies identically on both tiers.
TIER_COUNTERS = frozenset((
    "dmi_reads", "dmi_writes", "dmi_invalidations",
    "sync_transactions", "transfer_transactions", "transfer_blocks",
    "transfer_words",
    "warped_syncs", "warped_cycles", "warped_steps"))


def _strip_tier_counters(metrics):
    stripped = {key: value for key, value in metrics.items()
                if key not in TIER_COUNTERS and key != "per_context"}
    stripped["per_context"] = {
        name: {key: value for key, value in counters.items()
               if key not in TIER_COUNTERS}
        for name, counters in metrics.get("per_context", {}).items()}
    return stripped


def _span_timeline(tracer):
    """Span identity and simulated timing, minus the DMI windows.

    Event sequence numbers and annotation counts index into the event
    stream, which legitimately differs between the tiers; the span
    ids, kinds and simulated open/close points must not.
    """
    return sorted(
        (span.span_id, span.kind, span.scope, span.open_timestep,
         span.open_now, span.close_timestep, span.close_now)
        for span in spans_from_tracer(tracer)
        if not span.span_id.startswith("dmi:"))


def _outcome(scheme, seed, quantum, dmi, parallel=False,
             fault_plan=None, reliability=None):
    run = run_traced_scenario(
        scheme, sim_us=60, seed=seed, max_packets=1, producer_count=2,
        sync_quantum=quantum, num_cpus=2, parallel=parallel,
        fault_plan=fault_plan, reliability=reliability, dmi=dmi)
    outcome = {
        "stats": (run.stats.generated, run.stats.forwarded,
                  run.stats.received, run.stats.corrupt),
        "guest": [(cpu.instructions, cpu.cycles, cpu.pc, list(cpu.regs))
                  for cpu in run.system.cpus],
        "metrics": _strip_tier_counters(run.system.metrics.as_dict()),
        "spans": _span_timeline(run.tracer),
        "trace": dump_events(run.tracer.events()),
        "raw_metrics": run.system.metrics.as_dict(),
    }
    run.system.close()
    return outcome


def _assert_tier_equivalent(dmi_run, transactional):
    assert dmi_run["stats"] == transactional["stats"]
    assert dmi_run["guest"] == transactional["guest"]
    assert dmi_run["metrics"] == transactional["metrics"]
    assert dmi_run["spans"] == transactional["spans"]


@given(scheme=schemes, seed=seeds, quantum=quanta)
@settings(**SIM_SETTINGS)
def test_dmi_matches_transactional(scheme, seed, quantum):
    _assert_tier_equivalent(_outcome(scheme, seed, quantum, dmi=True),
                            _outcome(scheme, seed, quantum, dmi=False))


@given(scheme=schemes, seed=seeds, quantum=st.sampled_from([1, 8]))
@settings(**SIM_SETTINGS)
def test_dmi_parallel_is_byte_identical_to_serial(scheme, seed, quantum):
    serial = _outcome(scheme, seed, quantum, dmi=True, parallel=False)
    parallel = _outcome(scheme, seed, quantum, dmi=True,
                        parallel="thread")
    assert parallel["trace"] == serial["trace"]
    assert parallel["raw_metrics"] == serial["raw_metrics"]
    assert parallel["stats"] == serial["stats"]


@given(scheme=schemes, seed=seeds, quantum=st.sampled_from([1, 8]),
       plan=fault_plans())
@settings(**SIM_SETTINGS)
def test_faulty_contexts_never_leave_the_transactional_tier(
        scheme, seed, quantum, plan):
    """dmi_safe mirrors parallel_safe: under a fault plan the table is
    never built, so a dmi=True run is byte-for-byte the dmi=False run
    — tier counters included."""
    dmi_run = _outcome(scheme, seed, quantum, dmi=True,
                       fault_plan=plan, reliability=True)
    transactional = _outcome(scheme, seed, quantum, dmi=False,
                             fault_plan=plan, reliability=True)
    assert dmi_run["trace"] == transactional["trace"]
    assert dmi_run["raw_metrics"] == transactional["raw_metrics"]


def test_dmi_eliminates_transfer_traffic_at_quantum_8():
    """The point of the tier (ISSUE: >= 10x): at a batched quantum the
    communication traffic collapses — GDB schemes lose their transfer
    transactions outright, the wrapper additionally warps past its
    syncs — while forwarding stays identical."""
    for scheme in ("gdb-wrapper", "gdb-kernel"):
        dmi_run = _outcome(scheme, 7, 8, dmi=True)
        transactional = _outcome(scheme, 7, 8, dmi=False)
        base = transactional["raw_metrics"]
        tiered = dmi_run["raw_metrics"]
        assert base["transfer_transactions"] > 0
        assert tiered["transfer_transactions"] == 0
        assert tiered["dmi_reads"] + tiered["dmi_writes"] > 0
        assert tiered["sync_transactions"] \
            <= base["sync_transactions"]
        assert dmi_run["stats"] == transactional["stats"]


def test_driver_kernel_moves_payloads_through_views():
    """Driver-Kernel keeps its message count (the wire protocol is the
    paper's) but moves the payload words through DMI descriptors."""
    dmi_run = _outcome("driver-kernel", 7, 8, dmi=True)
    transactional = _outcome("driver-kernel", 7, 8, dmi=False)
    base = transactional["raw_metrics"]
    tiered = dmi_run["raw_metrics"]
    assert tiered["messages_sent"] == base["messages_sent"]
    assert tiered["messages_received"] == base["messages_received"]
    assert tiered["dmi_reads"] + tiered["dmi_writes"] > 0
    assert dmi_run["stats"] == transactional["stats"]
