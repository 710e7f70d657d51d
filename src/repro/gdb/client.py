"""Debugger-side RSP client used by the co-simulation wrappers.

A transaction is a synchronous request/reply exchange; the "remote"
stub is serviced through a pump callback that stands in for the host
operating system scheduling the ISS process.  Stop replies generated
while the target runs arrive asynchronously and are surfaced through
:meth:`GdbClient.poll_stop`; the pre-parse :meth:`GdbClient.poll_cheap`
is the O(1) pipe check the GDB-Kernel scheduler performs each cycle.
"""

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import RspError
from repro.gdb import rsp
from repro.iss.cpu import NUM_REGS
from repro.obs.tracer import NULL_TRACER


class StopKind(enum.Enum):
    """Categories of asynchronous stop replies."""
    BREAKPOINT = "breakpoint"
    WATCH_WRITE = "watch_write"
    WATCH_READ = "watch_read"
    EXITED = "exited"


@dataclass
class StopEvent:
    """A parsed asynchronous stop reply."""

    kind: StopKind
    pc: Optional[int] = None
    address: Optional[int] = None
    exit_code: Optional[int] = None


def parse_stop_reply(text):
    """Parse a ``T05…`` / ``W…`` stop reply into a :class:`StopEvent`."""
    if text.startswith("W"):
        return StopEvent(StopKind.EXITED, exit_code=int(text[1:] or "0", 16))
    if not text.startswith("T"):
        raise RspError("not a stop reply: %r" % text[:32])
    event = StopEvent(StopKind.BREAKPOINT)
    for field in text[3:].split(";"):
        if not field:
            continue
        key, __, value = field.partition(":")
        if key == "pc":
            event.pc = int(value, 16)
        elif key == "watch":
            event.kind = StopKind.WATCH_WRITE
            event.address = int(value, 16)
        elif key == "rwatch":
            event.kind = StopKind.WATCH_READ
            event.address = int(value, 16)
    return event


def _request_tag(request):
    """A short deterministic label for a request (trace event detail)."""
    if isinstance(request, (bytes, bytearray)):
        request = bytes(request[:16]).decode("latin-1")
    text = str(request)
    head = text.split(",", 1)[0].split(":", 1)[0]
    return head[:16]


#: Requests whose reply is itself a stop packet.
_STOP_REPLY_REQUESTS = frozenset(["?", "s"])


def _reply_index(request, messages):
    """The index of *request*'s reply among framed *messages*, or None."""
    if request in _STOP_REPLY_REQUESTS:
        return len(messages) - 1 if messages else None
    for index, packet in enumerate(messages):
        if packet[1:2] not in (b"T", b"W"):
            return index
    return None


class GdbClient:
    """Synchronous RSP client over a channel endpoint."""

    def __init__(self, endpoint, pump, name="gdb-client",
                 max_attempts=3, reply_wait_polls=4096, tracer=None):
        self.endpoint = endpoint
        self._pump = pump
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.max_attempts = max_attempts
        # Over a reliable transport a reply may lag behind link-fault
        # recovery; how many transport ticks to grant it before giving
        # up.  Raw in-process channels answer immediately (no waits).
        self.reply_wait_polls = reply_wait_polls
        self.transaction_count = 0
        self.retransmissions = 0
        self.target_exited = False
        self._stashed_stops = []

    # -- transport ---------------------------------------------------------

    def transact(self, request):
        """One synchronous request/reply round trip.

        A reply failing its RSP checksum is the link-level NAK case:
        the request is retransmitted, up to ``max_attempts`` times.
        (A corrupted asynchronous *stop* reply is not recoverable by
        retransmission and raises immediately.)
        """
        last_error = None
        if self.tracer.enabled:
            self.tracer.emit("rsp", "transact", scope=self.name,
                             request=_request_tag(request))
        for __ in range(self.max_attempts):
            self.transaction_count += 1
            self.endpoint.send(rsp.frame(request))
            self._pump()
            stops, reply = self._await_reply(request)
            for stop_packet in stops:
                self._stash(rsp.unframe(stop_packet).decode("ascii"))
            try:
                return rsp.unframe(reply).decode("ascii")
            except RspError as error:
                last_error = error
                self.retransmissions += 1
        raise RspError("reply corrupt after %d attempts: %s"
                       % (self.max_attempts, last_error))

    def _await_reply(self, request):
        """The asynchronous stops around the reply, and the reply.

        The reply is the first message that is not a ``T``/``W`` stop
        (the last message for ``?`` and ``s``, whose reply is itself a
        stop packet): a delayed reply can arrive after a stop the
        target raised meanwhile.  Waiting continues while only stops
        have arrived; each wait iteration is a transport tick (poll)
        plus a stub service round (pump), which is what drives the
        reliable layer's retransmission when the request or reply frame
        was lost.  A dead link surfaces as
        :class:`~repro.errors.CosimTransportError` from the endpoint
        itself."""
        messages = self.endpoint.recv_all()
        waits = (self.reply_wait_polls
                 if getattr(self.endpoint, "reliable", False) else 0)
        index = _reply_index(request, messages)
        while index is None and waits > 0:
            self.endpoint.poll()
            self._pump()
            messages += self.endpoint.recv_all()
            index = _reply_index(request, messages)
            waits -= 1
        if index is None:
            raise RspError("no reply to %r" % request[:32])
        return messages[:index] + messages[index + 1:], messages[index]

    def _stash(self, text):
        event = parse_stop_reply(text)
        if event.kind is StopKind.EXITED:
            self.target_exited = True
        self._stashed_stops.append(event)

    # -- stop handling --------------------------------------------------------

    def poll_cheap(self):
        """O(1): is *anything* pending (stashed or on the pipe)?"""
        return bool(self._stashed_stops) or self.endpoint.poll()

    def peek_pending(self):
        """:meth:`poll_cheap` without counting a poll on the endpoint."""
        return bool(self._stashed_stops) or self.endpoint.pending > 0

    def poll_stop(self):
        """Return the next pending :class:`StopEvent`, or None."""
        if self._stashed_stops:
            return self._stashed_stops.pop(0)
        packet = self.endpoint.recv()
        if packet is None:
            return None
        event = parse_stop_reply(rsp.unframe(packet).decode("ascii"))
        if event.kind is StopKind.EXITED:
            self.target_exited = True
        return event

    # -- commands -------------------------------------------------------------

    def monitor(self, command):
        """gdb's ``monitor`` escape: run a stub inspection command."""
        reply = self.transact("qRcmd," + rsp.encode_hex(
            command.encode("ascii")))
        if reply.startswith("E"):
            raise RspError("monitor %r failed: %s" % (command, reply))
        return rsp.decode_hex(reply).decode("ascii") if reply else ""

    def query_status(self):
        """The lock-step wrapper's per-cycle ``qStatus`` round trip."""
        reply = self.transact("qStatus")
        fields = {}
        for field in reply.split(";"):
            key, __, value = field.partition(":")
            fields[key] = value
        return fields

    def read_registers(self):
        """Read all registers (``g``); returns (regs, pc)."""
        reply = self.transact("g")
        data = rsp.decode_hex(reply)
        values = [int.from_bytes(data[4 * i:4 * i + 4], "little")
                  for i in range(NUM_REGS + 1)]
        return values[:NUM_REGS], values[NUM_REGS]

    def write_register(self, index, value):
        """Write one register (``P``)."""
        reply = self.transact("P%x=%s" % (index, rsp.encode_register(value)))
        self._expect_ok(reply, "P")

    def read_register(self, index):
        """Read one register (``p``); index 0x10 is the pc."""
        return rsp.decode_register(self.transact("p%x" % index))

    def read_memory(self, address, length):
        """Read *length* bytes of guest memory (``m``)."""
        reply = self.transact("m%x,%x" % (address, length))
        if reply.startswith("E"):
            raise RspError("memory read failed: %s" % reply)
        return rsp.decode_hex(reply)

    def write_memory(self, address, data):
        """Write guest memory (``M``)."""
        reply = self.transact("M%x,%x:%s" % (address, len(data),
                                             rsp.encode_hex(data)))
        self._expect_ok(reply, "M")

    def write_memory_binary(self, address, data):
        """Fast download via the binary ``X`` packet."""
        request = b"X" + ("%x,%x:" % (address, len(data))).encode("ascii")
        reply = self.transact(request + bytes(data))
        self._expect_ok(reply, "X")

    def read_memory_word(self, address):
        """Read a little-endian 32-bit word of guest memory."""
        return int.from_bytes(self.read_memory(address, 4), "little")

    def write_memory_word(self, address, value):
        """Write a little-endian 32-bit word of guest memory."""
        self.write_memory(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_memory_block(self, address, count):
        """Read *count* contiguous 32-bit words in one ``m`` exchange.

        One round trip regardless of *count* — the bulk-transfer
        counterpart to :meth:`read_memory_word` that collapses the
        per-word loop in multi-word port bindings.
        """
        data = self.read_memory(address, 4 * count)
        return [int.from_bytes(data[4 * i:4 * i + 4], "little")
                for i in range(count)]

    def write_memory_block(self, address, values):
        """Write contiguous 32-bit words in one ``M`` exchange."""
        payload = b"".join((value & 0xFFFFFFFF).to_bytes(4, "little")
                           for value in values)
        self.write_memory(address, payload)

    def set_breakpoint(self, address):
        """Insert a software breakpoint (``Z0``)."""
        self._expect_ok(self.transact("Z0,%x,4" % address), "Z0")

    def clear_breakpoint(self, address):
        """Remove a software breakpoint (``z0``)."""
        self._expect_ok(self.transact("z0,%x,4" % address), "z0")

    def set_watchpoint(self, address, length=4, write=True):
        """Insert a write (or read) watchpoint (``Z2``/``Z3``)."""
        kind = "2" if write else "3"
        self._expect_ok(
            self.transact("Z%s,%x,%x" % (kind, address, length)), "Z")

    def continue_(self):
        """Resume the target (no reply until the next stop)."""
        self.transaction_count += 1
        if self.tracer.enabled:
            self.tracer.emit("rsp", "continue", scope=self.name)
        self.endpoint.send(rsp.frame("c"))
        self._pump()

    def step(self):
        """Single-step the target (``s``)."""
        reply = self.transact("s")
        return parse_stop_reply(reply) if reply[0] in "TW" else None

    @staticmethod
    def _expect_ok(reply, what):
        if reply != "OK":
            raise RspError("%s failed: %r" % (what, reply))
