"""Link-fault injection on the RSP channel."""

import pytest

from repro.cosim.channels import Pipe
from repro.errors import RspError
from repro.gdb import rsp
from repro.gdb.client import GdbClient
from repro.gdb.stub import GdbStub
from tests.support import make_cpu


class _CorruptNth:
    """Flips a byte in the Nth outgoing message (once)."""

    def __init__(self, target_index, repeat=1):
        self.index = 0
        self.target_index = target_index
        self.remaining = repeat

    def __call__(self, payload):
        self.index += 1
        if self.index >= self.target_index and self.remaining > 0:
            self.remaining -= 1
            corrupted = bytearray(payload)
            corrupted[1] ^= 0xFF
            return bytes(corrupted)
        return payload


@pytest.fixture
def session():
    cpu, program, __ = make_cpu("li r0, 5\nhalt\nvar: .word 7")
    pipe = Pipe("f")
    stub = GdbStub(cpu, pipe.b)
    client = GdbClient(pipe.a, pump=stub.service_pending)
    return cpu, program, pipe, client


class TestRetransmission:
    def test_single_corrupt_reply_is_retried(self, session):
        cpu, program, pipe, client = session
        pipe.b.fault_injector = _CorruptNth(1)
        value = client.read_register(0)
        assert value == cpu.regs[0]
        assert client.retransmissions == 1
        assert client.transaction_count == 2

    def test_two_corrupt_replies_then_success(self, session):
        cpu, program, pipe, client = session
        pipe.b.fault_injector = _CorruptNth(1, repeat=2)
        client.read_register(0)
        assert client.retransmissions == 2

    def test_persistent_corruption_raises(self, session):
        cpu, program, pipe, client = session
        pipe.b.fault_injector = _CorruptNth(1, repeat=100)
        with pytest.raises(RspError, match="after 3 attempts"):
            client.read_register(0)

    def test_corrupt_request_detected_by_stub(self, session):
        """Corruption on the request path surfaces as a stub-side
        unframe error (the stub has no NAK path in-process)."""
        cpu, program, pipe, client = session
        pipe.a.fault_injector = _CorruptNth(1)
        with pytest.raises(RspError):
            client.read_register(0)

    def test_clean_link_has_no_retransmissions(self, session):
        cpu, program, pipe, client = session
        for index in range(5):
            client.read_register(index)
        assert client.retransmissions == 0

    def test_memory_write_survives_reply_corruption(self, session):
        cpu, program, pipe, client = session
        address = program.symbols.variable_address("var")
        pipe.b.fault_injector = _CorruptNth(1)
        client.write_memory_word(address, 0x1234)
        assert cpu.memory.load_word(address) == 0x1234
        assert client.retransmissions == 1


class _ScriptedEndpoint:
    """A reliable-looking endpoint delivering one scripted batch per recv_all."""

    reliable = True

    def __init__(self, *batches):
        self.batches = [[rsp.frame(text) for text in batch]
                        for batch in batches]
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)

    def recv_all(self):
        return self.batches.pop(0) if self.batches else []

    def recv(self):
        return None

    def poll(self):
        return bool(self.batches)


STOP = "T05pc:00000010;"
STATUS = "Status:stopped;pc:00000010;cycles:5"


class TestDelayedReply:
    """A reply delayed by link faults can trail the target's stops."""

    def test_stop_before_a_delayed_reply_is_stashed(self):
        client = GdbClient(_ScriptedEndpoint([STOP], [], [STATUS]),
                           pump=lambda: None)
        assert client.query_status()["Status"] == "stopped"
        assert client.poll_stop().pc == 0x10
        assert client.poll_stop() is None

    def test_stop_after_the_reply_is_stashed(self):
        client = GdbClient(_ScriptedEndpoint([STATUS, STOP]),
                           pump=lambda: None)
        assert client.query_status()["pc"] == "00000010"
        assert client.poll_stop().pc == 0x10

    def test_step_reply_is_itself_a_stop(self):
        client = GdbClient(_ScriptedEndpoint([STOP]), pump=lambda: None)
        assert client.step().pc == 0x10
        assert client.poll_stop() is None

    def test_only_stops_and_no_reply_raises(self):
        client = GdbClient(_ScriptedEndpoint([STOP]), pump=lambda: None,
                           reply_wait_polls=3)
        with pytest.raises(RspError, match="no reply"):
            client.query_status()
