import pytest

from repro.errors import SimulationError
from repro.sysc.clock import Clock
from repro.sysc.simtime import NS


class TestClockConstruction:
    def test_period_must_be_positive(self, kernel):
        with pytest.raises(SimulationError):
            Clock(0)

    def test_extreme_duty_rejected(self, kernel):
        with pytest.raises(SimulationError):
            Clock(10 * NS, duty=0.0)
        with pytest.raises(SimulationError):
            Clock(10 * NS, duty=1.0)

    def test_duty_splits_period(self, kernel):
        clock = Clock(10 * NS, duty=0.3)
        assert clock.high_time == 3 * NS
        assert clock.low_time == 7 * NS


class TestClockBehaviour:
    def test_posedge_count_matches_duration(self, kernel):
        clock = Clock(10 * NS)
        kernel.run(95 * NS)
        # Edges at 0, 10, 20, ..., 90 -> 10 posedges.
        assert clock.posedge_count == 10

    def test_signal_toggles(self, kernel):
        clock = Clock(10 * NS)
        values = []

        def sampler():
            while True:
                yield 5 * NS
                values.append(clock.read())

        kernel.add_thread("s", sampler)
        kernel.run(40 * NS)
        assert values[:4] == [1, 0, 1, 0]

    def test_posedge_event_wakes_waiters(self, kernel):
        clock = Clock(10 * NS)
        times = []

        def waiter():
            while True:
                yield clock.posedge
                times.append(kernel.now)

        kernel.add_thread("w", waiter)
        kernel.run(35 * NS)
        assert times == [0, 10 * NS, 20 * NS, 30 * NS]

    def test_negedge_event(self, kernel):
        clock = Clock(10 * NS)
        times = []

        def waiter():
            while True:
                yield clock.negedge
                times.append(kernel.now)

        kernel.add_thread("w", waiter)
        kernel.run(30 * NS)
        assert times == [5 * NS, 15 * NS, 25 * NS]

    def test_start_low_clock(self, kernel):
        clock = Clock(10 * NS, start_high=False)
        times = []

        def waiter():
            yield clock.posedge
            times.append(kernel.now)

        kernel.add_thread("w", waiter)
        kernel.run(20 * NS)
        assert times == [5 * NS]

    def test_clock_keeps_scheduler_alive(self, kernel):
        Clock(10 * NS)
        kernel.run(1000 * NS)
        assert kernel.now == 1000 * NS
        assert kernel.pending_activity()


class TestClockSchedulingSemantics:
    """What the clock's edge process must preserve exactly: delta
    placement, ordering against other timed processes, counters, and
    its footprint in the scheduler state."""

    @staticmethod
    def _edge_log(kernel):
        log = []

        def record(name):
            log.append((name, kernel.now // NS, kernel.delta_count,
                        clock.read()))

        def early():
            while True:
                yield 10 * NS
                record("early")

        def late():
            while True:
                yield 5 * NS
                record("late")

        def on_edge(event_name):
            def waiter():
                while True:
                    yield getattr(clock, event_name)
                    record(event_name)
            return waiter

        # One timed process registered before the clock, the rest
        # after it, so the clock's heap entries sit between them.
        kernel.add_thread("early", early)
        clock = Clock(10 * NS)
        kernel.add_thread("late", late)
        kernel.add_thread("pos", on_edge("posedge"))
        kernel.add_thread("neg", on_edge("negedge"))
        return clock, log

    def test_same_time_wakeup_reads_pre_edge_value(self, kernel):
        clock, log = self._edge_log(kernel)
        kernel.run(25 * NS)
        timed = [entry for entry in log if entry[0] in ("early", "late")]
        # Woken in the edge's own first delta: the clock's write is
        # not applied until that delta's update phase.
        assert timed == [("late", 5, 2, 1), ("early", 10, 4, 0),
                         ("late", 10, 4, 0), ("late", 15, 6, 1),
                         ("early", 20, 8, 0), ("late", 20, 8, 0),
                         ("late", 25, 10, 1)]

    def test_edge_waiters_order_against_timed_processes(self, kernel):
        clock, log = self._edge_log(kernel)
        kernel.run(25 * NS)
        assert [entry[:3] for entry in log] == [
            ("posedge", 0, 1), ("late", 5, 2), ("negedge", 5, 3),
            ("early", 10, 4), ("late", 10, 4), ("posedge", 10, 5),
            ("late", 15, 6), ("negedge", 15, 7), ("early", 20, 8),
            ("late", 20, 8), ("posedge", 20, 9), ("late", 25, 10),
            ("negedge", 25, 11)]
        # Edge waiters see the new level one delta after the edge.
        assert all(entry[3] == (entry[0] == "posedge") for entry in log
                   if entry[0] in ("posedge", "negedge"))

    def test_counters_and_state_summary(self, kernel):
        clock, __ = self._edge_log(kernel)
        kernel.run(25 * NS)
        assert clock.posedge_count == 3
        assert kernel.delta_count == 12
        assert kernel.timestep_count == 5
        state = kernel.state_summary()
        assert ["clock.gen", "thread", False] in state["processes"]
        assert [name for name, __, __ in state["processes"]] == [
            "early", "clock.gen", "late", "pos", "neg"]
        # Heap sequence numbers pin the order the entries were queued.
        assert state["timed"] == [[30 * NS, 10, "early"],
                                  [30 * NS, 13, "clock.gen"],
                                  [30 * NS, 14, "late"]]

    def test_start_low_sequence(self, kernel):
        clock = Clock(10 * NS, start_high=False)
        values = []

        def sampler():
            while True:
                yield 2 * NS
                values.append(clock.read())

        kernel.add_thread("s", sampler)
        kernel.run(21 * NS)
        assert values == [0, 0, 1, 1, 1, 0, 0, 1, 1, 1]
        assert clock.posedge_count == 2
        assert clock.signal.write_count == 5
        assert (kernel.delta_count, kernel.timestep_count) == (13, 12)
        assert kernel.state_summary()["timed"] == [
            [22 * NS, 15, "s"], [25 * NS, 14, "clock.gen"]]
