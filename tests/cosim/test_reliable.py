"""Tests of the reliable framing layer (repro.cosim.reliable).

The property-based core: over any seeded faulty link whose fault count
is bounded, the reliable layer delivers every payload exactly once and
in order, given enough transport ticks.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cosim.channels import Pipe
from repro.cosim.faults import FaultPlan
from repro.cosim.messages import FrameKind, pack_frame, unpack_frame
from repro.cosim.metrics import CosimMetrics
from repro.cosim.reliable import (ReliabilityConfig, ReliableEndpoint,
                                  wrap_reliable)
from repro.errors import CosimError, CosimTransportError


def _reliable_pair(config=None, faults=None, metrics=None):
    return wrap_reliable(Pipe("link"), config=config, metrics=metrics,
                         faults=faults)


def _shuttle(side_a, side_b, payloads, max_ticks=5000, delivered=None):
    """Send *payloads* a→b, ticking both ends until all delivered.

    Payloads land in *delivered* as they arrive, so a caller passing
    its own list still sees them when the transport raises.
    """
    if delivered is None:
        delivered = []
    for payload in payloads:
        side_a.send(payload)
    ticks = 0
    while len(delivered) < len(payloads):
        side_a.poll()
        side_b.poll()
        delivered.extend(side_b.recv_all())
        ticks += 1
        if ticks > max_ticks:
            raise AssertionError(
                "only %d/%d delivered after %d ticks"
                % (len(delivered), len(payloads), max_ticks))
    return delivered


class TestFrameFormat:
    def test_roundtrip(self):
        wire = pack_frame(FrameKind.DATA, 42, b"payload")
        assert unpack_frame(wire) == (FrameKind.DATA, 42, b"payload")

    def test_control_frames_have_empty_payload(self):
        kind, sequence, payload = unpack_frame(
            pack_frame(FrameKind.ACK, 7))
        assert (kind, sequence, payload) == (FrameKind.ACK, 7, b"")

    def test_checksum_rejects_any_single_bit_flip(self):
        wire = bytearray(pack_frame(FrameKind.DATA, 3, b"abc"))
        for position in range(len(wire) * 8):
            damaged = bytearray(wire)
            damaged[position // 8] ^= 1 << (position % 8)
            with pytest.raises(CosimError):
                unpack_frame(bytes(damaged))

    def test_short_frame_rejected(self):
        with pytest.raises(CosimError):
            unpack_frame(b"\x00")


class TestLosslessLink:
    def test_in_order_delivery(self):
        side_a, side_b = _reliable_pair()
        payloads = [bytes([v]) for v in range(10)]
        assert _shuttle(side_a, side_b, payloads) == payloads

    def test_ack_clears_in_flight(self):
        side_a, side_b = _reliable_pair()
        side_a.send(b"x")
        assert side_a.in_flight == 1
        side_b.poll()           # receive DATA, emit ACK
        side_a.poll()           # receive ACK
        assert side_a.in_flight == 0
        assert side_b.recv() == b"x"

    def test_no_spurious_retransmits(self):
        side_a, side_b = _reliable_pair()
        delivered = _shuttle(side_a, side_b,
                             [bytes([v]) for v in range(20)])
        assert len(delivered) == 20
        assert side_a.retransmits == 0
        assert side_b.retransmits == 0

    def test_bidirectional(self):
        side_a, side_b = _reliable_pair()
        side_a.send(b"ping")
        side_b.send(b"pong")
        for __ in range(4):
            side_a.poll()
            side_b.poll()
        assert side_b.recv() == b"ping"
        assert side_a.recv() == b"pong"


class TestRecovery:
    def test_dropped_frame_retransmitted(self):
        config = ReliabilityConfig(ack_timeout_polls=2)
        side_a, side_b = _reliable_pair(
            config, faults=FaultPlan(script={0: "drop"}))
        assert _shuttle(side_a, side_b, [b"lost"]) == [b"lost"]
        assert side_a.retransmits >= 1

    def test_duplicate_discarded(self):
        side_a, side_b = _reliable_pair(
            faults=FaultPlan(script={0: "duplicate"}))
        assert _shuttle(side_a, side_b, [b"twice"]) == [b"twice"]
        assert side_b.duplicates_discarded == 1

    def test_corrupt_frame_rejected_then_recovered(self):
        metrics = CosimMetrics()
        config = ReliabilityConfig(ack_timeout_polls=2)
        side_a, side_b = _reliable_pair(
            config, faults=FaultPlan(script={0: "corrupt"}),
            metrics=metrics)
        assert _shuttle(side_a, side_b, [b"garbled"]) == [b"garbled"]
        assert side_b.corrupt_rejected == 1
        # The script is per-endpoint: side b's first *control* frame is
        # corrupted too, so the aggregate counts both directions.
        assert metrics.corrupt_rejected >= 1
        assert metrics.retransmits >= side_a.retransmits >= 1

    def test_reordered_frames_delivered_in_order(self):
        side_a, side_b = _reliable_pair(
            faults=FaultPlan(script={0: "reorder"}))
        payloads = [b"one", b"two", b"three"]
        assert _shuttle(side_a, side_b, payloads) == payloads
        assert side_b.out_of_order >= 1

    def test_gap_detection_counts_drops(self):
        metrics = CosimMetrics()
        config = ReliabilityConfig(ack_timeout_polls=2)
        side_a, side_b = _reliable_pair(
            config, faults=FaultPlan(script={0: "drop"}),
            metrics=metrics)
        assert _shuttle(side_a, side_b, [b"a", b"b"]) == [b"a", b"b"]
        # Frame 1 arrived ahead of the dropped frame 0: a hole.
        assert metrics.drops_detected >= 1

    def test_beyond_window_frames_rejected(self):
        config = ReliabilityConfig(window=4)
        pipe = Pipe()
        receiver = ReliableEndpoint(pipe.b, config)
        pipe.a.send(pack_frame(FrameKind.DATA, 100, b"far"))
        assert receiver.recv() is None
        assert receiver.window_rejected == 1

    def test_dead_link_exhausts_retry_budget(self):
        config = ReliabilityConfig(ack_timeout_polls=1, retry_budget=3,
                                   backoff_factor=1)
        side_a, __ = _reliable_pair(config, faults=FaultPlan(drop=1.0))
        side_a.send(b"void")
        with pytest.raises(CosimTransportError):
            for __ in range(50):
                side_a.poll()

    def test_backoff_doubles_up_to_ceiling(self):
        config = ReliabilityConfig(ack_timeout_polls=2, backoff_factor=2,
                                   max_timeout_polls=8, retry_budget=100)
        pipe = Pipe()
        sender = ReliableEndpoint(pipe.a, config)
        sender.send(b"x")
        pipe.b.recv_all()       # swallow; never acknowledge
        gaps, last = [], None
        for tick in range(1, 60):
            before = sender.retransmits
            sender.poll()
            pipe.b.recv_all()
            if sender.retransmits > before:
                if last is not None:
                    gaps.append(tick - last)
                last = tick
        assert gaps[:3] == [4, 8, 8]  # 2 -> 4 -> 8 (capped) -> 8


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           payloads=st.lists(st.binary(min_size=1, max_size=32),
                             min_size=1, max_size=25))
    def test_exactly_once_in_order_over_faulty_link(self, seed, payloads):
        """Any bounded seeded fault mix is recovered transparently."""
        plan = FaultPlan(seed=seed, drop=0.15, duplicate=0.1,
                         reorder=0.1, corrupt=0.15, delay=0.05,
                         delay_polls=2, max_faults=30)
        config = ReliabilityConfig(ack_timeout_polls=4)
        side_a, side_b = _reliable_pair(config, faults=plan)
        assert _shuttle(side_a, side_b, payloads) == payloads

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           count=st.integers(min_value=1, max_value=30))
    @example(seed=11843156, count=11)   # exhausts the retry budget
    def test_drop_only_link_always_recovers(self, seed, count):
        """Every payload arrives in order exactly once, or the sender
        gives up on a frame past its retry budget, having delivered an
        in-order, duplicate-free prefix.

        At drop 0.4 a finite ``retry_budget`` can run out; raising
        :class:`CosimTransportError` then is the layer's contract.
        """
        plan = FaultPlan(seed=seed, drop=0.4, max_faults=40)
        config = ReliabilityConfig(ack_timeout_polls=3)
        side_a, side_b = _reliable_pair(config, faults=plan)
        payloads = [value.to_bytes(2, "little") for value in range(count)]
        delivered = []
        try:
            _shuttle(side_a, side_b, payloads, delivered=delivered)
        except CosimTransportError as error:
            frame = int(str(error).split()[1])
            assert str(error) == (
                "frame %d on %s unacknowledged after %d retransmits"
                % (frame, side_a.label, config.retry_budget))
            assert 0 <= frame < count
            assert side_a.retransmits >= config.retry_budget
            assert delivered == payloads[:len(delivered)]
            return
        assert delivered == payloads
        if plan and side_a.retransmits:
            assert side_a.in_flight == 0 or side_a.in_flight <= count

    @settings(max_examples=30, deadline=None)
    @given(payloads=st.lists(st.binary(max_size=16), min_size=1,
                             max_size=20))
    def test_lossless_link_never_retransmits(self, payloads):
        side_a, side_b = _reliable_pair()
        assert _shuttle(side_a, side_b, payloads) == payloads
        assert side_a.retransmits == side_b.retransmits == 0
        assert side_b.duplicates_discarded == 0
