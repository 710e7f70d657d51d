"""Causal span reconstruction: unit behaviour and the headline
serial-vs-parallel determinism property.

The unit tests drive :func:`repro.obs.spans.build_spans` with synthetic
event lists (open/close pairing, annotations, unknown-close tolerance,
vector-matched interrupt closing).  The integration tests then assert
the property the whole correlation-id design exists for: span ids come
from kernel counters allocated on the main thread, so a serial run and
a parallel run of the same seeded scenario reconstruct *byte-identical*
span sets, per scheme and per sync quantum.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.scenarios import (COSIM_SCHEMES, quickstart_config,
                                 run_traced_scenario)
from repro.obs.spans import (build_spans, dump_spans, perfetto_spans,
                             span_table, spans_from_tracer)
from repro.obs.tracer import TraceEvent


def _run(scheme, **fields):
    return run_traced_scenario(
        quickstart_config(scheme, max_packets=1, **fields), sim_us=60)


def _event(seq, category, name, scope="ctx", timestep=None, now=None,
           **args):
    timestep = seq if timestep is None else timestep
    now = timestep * 1000 if now is None else now
    return TraceEvent(seq, timestep, 0, now, category, name, scope, args)


class TestBuildSpans:
    def test_open_close_pairing(self):
        events = [
            _event(0, "driver", "read_issue", span="drv:r0:1", sequence=1),
            _event(1, "driver", "read", span="drv:r0:1"),
            _event(2, "driver", "read_reply", span="drv:r0:1", sequence=1),
        ]
        spans = build_spans(events)
        assert len(spans) == 1
        span = spans[0]
        assert span.span_id == "drv:r0:1"
        assert span.kind == "driver_round_trip"
        assert span.closed
        assert span.duration_timesteps == 2
        assert span.duration_fs == 2000
        assert span.annotations == 1            # the mid-span read
        assert span.args == {"sequence": 1}     # span id stripped

    def test_open_span_stays_open(self):
        spans = build_spans([_event(0, "transport", "send",
                                    span="tx:w:3", sequence=3)])
        assert len(spans) == 1 and not spans[0].closed
        assert spans[0].duration_fs is None

    def test_close_without_open_is_tolerated(self):
        """A bounded ring may have dropped the open event."""
        spans = build_spans([_event(0, "transport", "ack",
                                    span="tx:w:3", sequence=3)])
        assert spans == []

    def test_isr_enter_closes_matching_vector_only(self):
        events = [
            _event(0, "driver", "interrupt", scope="hook",
                   span="irq:rtos0:1", vector=5),
            _event(1, "driver", "interrupt", scope="hook",
                   span="irq:rtos0:2", vector=9),
            _event(2, "driver", "interrupt", scope="hook",
                   span="irq:rtos1:1", vector=5),
            _event(3, "rtos", "isr_enter", scope="rtos0", vector=5),
        ]
        spans = {span.span_id: span for span in build_spans(events)}
        assert spans["irq:rtos0:1"].closed          # scope+vector match
        assert not spans["irq:rtos0:2"].closed      # wrong vector
        assert not spans["irq:rtos1:1"].closed      # wrong rtos

    def test_isr_enter_closes_coalesced_deliveries_together(self):
        events = [
            _event(0, "driver", "interrupt", scope="hook",
                   span="irq:rtos0:1", vector=5),
            _event(1, "driver", "interrupt", scope="hook",
                   span="irq:rtos0:2", vector=5),
            _event(2, "rtos", "isr_enter", scope="rtos0", vector=5),
        ]
        spans = build_spans(events)
        assert all(span.closed for span in spans)
        assert {span.close_seq for span in spans} == {2}

    def test_reopened_id_starts_fresh_span(self):
        events = [
            _event(0, "cosim", "bp_stop", span="bp:t0:1"),
            _event(1, "cosim", "bp_resume", span="bp:t0:1"),
            _event(2, "cosim", "bp_stop", span="bp:t0:2"),
        ]
        spans = build_spans(events)
        assert [span.closed for span in spans] == [True, False]


class TestSpanExports:
    def _spans(self):
        return build_spans([
            _event(0, "driver", "read_issue", span="drv:r0:1"),
            _event(1, "driver", "read_reply", span="drv:r0:1"),
            _event(2, "transport", "send", scope="wire",
                   span="tx:w:1", sequence=1),
        ])

    def test_dump_spans_is_canonical_json_lines(self):
        text = dump_spans(self._spans())
        lines = text.strip().split("\n")
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["span"] == "drv:r0:1"
        assert first["duration_fs"] == 1000
        assert json.loads(lines[1])["close_seq"] is None
        assert dump_spans([]) == ""

    def test_perfetto_open_spans_are_begin_only(self):
        data = perfetto_spans(self._spans())
        phases = {}
        for event in data["traceEvents"]:
            if event.get("ph") in ("b", "e"):
                phases.setdefault(event["id"], []).append(event["ph"])
        assert phases["drv:r0:1"] == ["b", "e"]
        assert phases["tx:w:1"] == ["b"]        # stall stays visible

    def test_span_table_limit(self):
        table = span_table(self._spans(), limit=1)
        assert "tx:w:1" in table
        assert "drv:r0:1" not in table


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
def test_every_scheme_produces_its_span_kinds(scheme):
    spans = spans_from_tracer(_run(scheme).tracer)
    kinds = {span.kind for span in spans}
    assert "transport" not in kinds             # reliable-only spans
    if scheme == "driver-kernel":
        assert {"driver_round_trip", "driver_write",
                "interrupt_delivery"} <= kinds
        closed = [s for s in spans if s.kind == "driver_round_trip"
                  and s.closed]
        assert closed and all(s.duration_fs >= 0 for s in closed)
    else:
        assert "breakpoint_sync" in kinds
        assert any(span.closed for span in spans
                   if span.kind == "breakpoint_sync")


@pytest.mark.parametrize("scheme", COSIM_SCHEMES)
def test_reliable_runs_open_and_close_transport_spans(scheme):
    run = _run(scheme, reliability=True)
    transport = [span for span in spans_from_tracer(run.tracer)
                 if span.kind == "transport"]
    assert transport
    # Perfect link: every DATA frame send is acked.
    assert all(span.closed for span in transport)


@given(scheme=st.sampled_from(COSIM_SCHEMES),
       quantum=st.sampled_from((1, 4, 8)))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_serial_and_parallel_span_sets_identical(scheme, quantum):
    """The tentpole determinism claim: correlation ids are allocated on
    the main thread from kernel counters, so the parallel dispatcher's
    quantum-boundary commit replays the exact serial span set."""
    serial = _run(scheme, sync_quantum=quantum, parallel=None)
    parallel = _run(scheme, sync_quantum=quantum, parallel=True,
                    workers=2)
    serial_dump = dump_spans(spans_from_tracer(serial.tracer))
    parallel_dump = dump_spans(spans_from_tracer(parallel.tracer))
    assert serial_dump == parallel_dump
    assert serial_dump                          # non-vacuous
