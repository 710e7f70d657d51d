"""Unit tests of the DMI grant table (docs/dmi.md).

The grant/invalidate contract in isolation: acquisition and reuse,
the precise-fallback triggers (watchpoints, breakpoints, SMC), the
permanent degradation path, the zero-copy data motion counters, and
the checkpoint image.
"""

from repro.cosim.dmi import (GRANT_IN, GRANT_OUT, INVALIDATE_BREAKPOINT,
                             INVALIDATE_RESTORE, INVALIDATE_SMC,
                             INVALIDATE_TRANSPORT, INVALIDATE_WATCHPOINT,
                             DmiTable)
from repro.cosim.metrics import CosimMetrics
from repro.iss.breakpoints import BreakpointSet, WatchKind
from repro.iss.cpu import Cpu
from repro.iss.memory import Memory
from repro.obs.tracer import Tracer


def make_table(tracer=None, enabled=True):
    memory = Memory(size=1 << 16)
    metrics = CosimMetrics()
    table = DmiTable("cpu0", Cpu(memory), metrics, tracer, enabled=enabled)
    return table, memory, metrics


class TestGrantLifecycle:
    def test_acquire_returns_a_covering_grant(self):
        table, __, __ = make_table()
        grant = table.acquire(0x1000, 8, GRANT_IN)
        assert grant is not None
        assert grant.covers(0x1000, 8)
        assert grant.kind == GRANT_IN
        assert grant.active

    def test_reacquire_reuses_the_live_grant(self):
        table, __, __ = make_table()
        first = table.acquire(0x1000, 8, GRANT_IN)
        assert table.acquire(0x1000, 8, GRANT_IN) is first

    def test_disabled_table_never_grants(self):
        table, __, __ = make_table(enabled=False)
        assert not table.active
        assert table.acquire(0x1000, 8, GRANT_IN) is None

    def test_grants_listed_in_acquisition_order(self):
        table, __, __ = make_table()
        first = table.acquire(0x1000, 4, GRANT_IN)
        second = table.acquire(0x2000, 4, GRANT_OUT)
        assert table.grants() == [first, second]


class TestPreciseFallbackTriggers:
    def test_watchpoint_invalidates_everything_and_refuses(self):
        table, __, metrics = make_table()
        grant = table.acquire(0x1000, 8, GRANT_IN)
        breakpoints = BreakpointSet()
        breakpoints.add_watch(0x3000, kind=WatchKind.WRITE)
        assert table.acquire(0x1000, 8, GRANT_IN,
                             breakpoints=breakpoints) is None
        assert not grant.active
        assert metrics.dmi_invalidations == 1
        # Removal restores the tier: the next acquire grants again.
        breakpoints.remove_watch(0x3000)
        assert table.acquire(0x1000, 8, GRANT_IN,
                             breakpoints=breakpoints) is not None

    def test_breakpoint_inside_window_is_word_precise(self):
        table, __, metrics = make_table()
        inside = table.acquire(0x1000, 8, GRANT_IN)
        outside = table.acquire(0x2000, 8, GRANT_IN)
        breakpoints = BreakpointSet()
        breakpoints.add_code(0x1004)
        assert table.acquire(0x1000, 8, GRANT_IN,
                             breakpoints=breakpoints) is None
        assert not inside.active
        # The window the breakpoint does not touch keeps its grant.
        assert table.acquire(0x2000, 8, GRANT_IN,
                             breakpoints=breakpoints) is outside
        assert metrics.dmi_invalidations == 1

    def test_smc_store_invalidates_out_windows_at_next_acquire(self):
        table, memory, metrics = make_table()
        out_grant = table.acquire(0x1000, 8, GRANT_OUT)
        in_grant = table.acquire(0x2000, 8, GRANT_IN)
        memory.watch_code(0x1000)
        memory.watch_code(0x2000)
        # Guest stores through the counted path; the code listener only
        # records — invalidation waits for the next main-thread acquire.
        memory.store_word(0x1004, 0xABCD)
        memory.store_word(0x2004, 0x1234)
        assert out_grant.active
        table.acquire(0x3000, 4, GRANT_IN)
        assert not out_grant.active
        # Guest stores into its own kernel<-guest window are the normal
        # producer flow, never an invalidation.
        assert in_grant.active
        assert metrics.dmi_invalidations == 1

    def test_degrade_is_permanent(self):
        table, __, __ = make_table()
        grant = table.acquire(0x1000, 8, GRANT_IN)
        table.degrade()
        assert not grant.active
        assert table.degraded == INVALIDATE_TRANSPORT
        assert not table.active
        assert table.acquire(0x1000, 8, GRANT_IN) is None

    def test_invalidate_all_keeps_the_table_usable(self):
        table, __, __ = make_table()
        grant = table.acquire(0x1000, 8, GRANT_IN)
        table.invalidate_all(INVALIDATE_RESTORE)
        assert not grant.active
        assert table.active
        assert table.acquire(0x1000, 8, GRANT_IN) is not None


class TestZeroCopyMotion:
    def test_read_words_counts_and_reads_the_view(self):
        table, memory, metrics = make_table()
        memory.write_bytes(0x1000, (0xDEAD).to_bytes(4, "little")
                           + (0xBEEF).to_bytes(4, "little"))
        grant = table.acquire(0x1000, 8, GRANT_IN)
        assert table.read_words(grant, 0x1000, 2) == [0xDEAD, 0xBEEF]
        assert grant.reads == 2
        assert metrics.dmi_reads == 2
        assert metrics.transfer_transactions == 0

    def test_write_words_counts_and_writes_the_view(self):
        table, memory, metrics = make_table()
        grant = table.acquire(0x1000, 8, GRANT_OUT)
        table.write_words(grant, 0x1000, [7, 9])
        assert memory.read_bytes(0x1000, 4) == (7).to_bytes(4, "little")
        assert memory.read_bytes(0x1004, 4) == (9).to_bytes(4, "little")
        assert grant.writes == 2
        assert metrics.dmi_writes == 2

    def test_per_context_counters(self):
        table, memory, metrics = make_table()
        grant = table.acquire(0x1000, 4, GRANT_IN)
        table.read_words(grant, 0x1000, 1)
        per_context = metrics.as_dict()["per_context"]["cpu0"]
        assert per_context["dmi_reads"] == 1


class TestTracingAndState:
    def test_grant_and_invalidate_events_share_the_span(self):
        tracer = Tracer(capacity=100)
        table, __, __ = make_table(tracer=tracer)
        grant = table.acquire(0x1000, 8, GRANT_IN)
        assert grant.span == "dmi:cpu0:1"
        breakpoints = BreakpointSet()
        breakpoints.add_watch(0x2000)
        table.acquire(0x1000, 8, GRANT_IN, breakpoints=breakpoints)
        events = {event.key: event for event in tracer.events()}
        assert events["cosim/dmi_grant"].args["span"] == "dmi:cpu0:1"
        invalidate = events["cosim/dmi_invalidate"]
        assert invalidate.args["span"] == "dmi:cpu0:1"
        assert invalidate.args["reason"] == INVALIDATE_WATCHPOINT
        assert invalidate.args["page"] == 0x1000 >> 8

    def test_untraced_runs_pay_no_span_bookkeeping(self):
        table, __, __ = make_table()
        assert table.acquire(0x1000, 8, GRANT_IN).span is None
        assert table._seq == 0

    def test_state_is_a_deterministic_image(self):
        table, __, __ = make_table()
        table.acquire(0x1000, 8, GRANT_IN)
        state = table.state()
        assert state["enabled"] and state["degraded"] is None
        assert state["grants"][0]["base"] == 0x1000
        assert state == table.state()

    def test_invalidation_reasons_are_stable_codes(self):
        assert INVALIDATE_WATCHPOINT == "watchpoint"
        assert INVALIDATE_BREAKPOINT == "breakpoint"
        assert INVALIDATE_SMC == "smc"
        assert INVALIDATE_TRANSPORT == "transport"
        assert INVALIDATE_RESTORE == "restore"
