"""GDB stub: the ISS-side endpoint of the remote debugging interface.

The stub owns a CPU and serves RSP requests arriving on its channel
endpoint.  Execution itself is *not* driven by the protocol: the
co-simulation master grants cycle budgets through :meth:`GdbStub.execute`
(the host-level time binding), and the stub turns CPU stop conditions
into asynchronous RSP stop replies (``T05…`` / ``W…``), exactly like a
stub operating a target in continue mode.

Supported packets: ``?``, ``g``, ``G``, ``p``, ``P``, ``m``, ``M``,
``c``, ``s``, ``Z0/z0`` (software breakpoints), ``Z2/z2`` (write
watchpoints), ``Z3/z3`` (read watchpoints), ``qStatus`` (the per-cycle
status query the lock-step GDB-Wrapper baseline performs).
"""

from repro.errors import RspError
from repro.gdb import rsp
from repro.iss.breakpoints import WatchKind
from repro.iss.cpu import NUM_REGS, StopReason


class GdbStub:
    """Serves one CPU over one channel endpoint."""

    def __init__(self, cpu, endpoint, name=None):
        self.cpu = cpu
        self.endpoint = endpoint
        self.name = name or ("stub:" + cpu.name)
        self.running = False
        self.exited = False
        self.packets_served = 0
        self.stop_replies_sent = 0

    # -- protocol service -----------------------------------------------------

    def service_pending(self):
        """Handle every request currently queued on the channel."""
        handled = 0
        while True:
            packet = self.endpoint.recv()
            if packet is None:
                return handled
            reply = self._handle(rsp.unframe(packet))
            if reply is not None:
                self.endpoint.send(rsp.frame(reply))
            handled += 1
            self.packets_served += 1

    def _handle(self, payload):
        text = payload.decode("ascii", "replace")
        if not text:
            return b""
        command = text[0]
        rest = text[1:]
        if command == "?":
            return self._stop_status()
        if command == "g":
            return self._read_all_registers()
        if command == "G":
            return self._write_all_registers(rest)
        if command == "p":
            return self._read_register(rest)
        if command == "P":
            return self._write_register(rest)
        if command == "m":
            return self._read_memory(rest)
        if command == "M":
            return self._write_memory(rest)
        if command == "X":
            return self._write_memory_binary(payload[1:])
        if command == "c":
            self.running = True
            self.cpu.resume_from_breakpoint()
            return None  # reply comes later as a stop packet
        if command == "s":
            self.cpu.step()
            return self._stop_status()
        if command in ("Z", "z"):
            return self._breakpoint(command == "Z", rest)
        if command == "q":
            return self._query(rest)
        # Unsupported packets get the standard empty reply.
        return b""

    # -- execution (driven by the co-simulation master) -----------------------

    def execute(self, cycle_budget):
        """Run the CPU for up to *cycle_budget* cycles if in running state.

        Emits an RSP stop reply when the CPU stops for a reason the
        debugger must see.  Returns the :class:`StopReason` or None when
        the target is not running.
        """
        if not self.running or self.exited:
            return None
        reason = self.cpu.run(max_cycles=cycle_budget)
        if reason in (StopReason.CYCLE_LIMIT, StopReason.INSTRUCTION_LIMIT):
            return reason  # budget exhausted; still running
        if reason == StopReason.BREAKPOINT:
            self.running = False
            self._send_stop("T05pc:%08x;" % self.cpu.pc)
        elif reason == StopReason.WATCHPOINT:
            self.running = False
            __, address, __, is_write = self.cpu.watch_hit
            kind = "watch" if is_write else "rwatch"
            self._send_stop("T05%s:%08x;" % (kind, address))
        elif reason == StopReason.HALT:
            self.running = False
            self.exited = True
            self._send_stop("W%02x" % ((self.cpu.exit_code or 0) & 0xFF))
        elif reason in (StopReason.WFI, StopReason.INTERRUPT):
            # Not debugger-visible events; the master's RTOS layer acts.
            pass
        return reason

    def resume_direct(self):
        """Resume without an RSP ``c`` round trip (DMI binding tier).

        Semantically identical to handling a ``c`` packet, but invoked
        in-process by the master after a stop was serviced entirely
        through direct-memory grants — the protocol-faithful resume
        would be the only transaction left on a zero-transaction path.
        """
        self.running = True
        self.cpu.resume_from_breakpoint()

    def _send_stop(self, text):
        self.stop_replies_sent += 1
        self.endpoint.send(rsp.frame(text))

    # -- packet implementations ---------------------------------------------

    def _stop_status(self):
        if self.exited:
            return "W%02x" % ((self.cpu.exit_code or 0) & 0xFF)
        return "S05"

    def _read_all_registers(self):
        chunks = [rsp.encode_register(self.cpu.regs[i])
                  for i in range(NUM_REGS)]
        chunks.append(rsp.encode_register(self.cpu.pc))
        return "".join(chunks)

    def _write_all_registers(self, rest):
        data = rsp.decode_hex(rest)
        if len(data) != 4 * (NUM_REGS + 1):
            raise RspError("G packet with %d bytes" % len(data))
        for index in range(NUM_REGS):
            self.cpu.regs[index] = int.from_bytes(
                data[4 * index:4 * index + 4], "little")
        self.cpu.pc = int.from_bytes(data[4 * NUM_REGS:], "little")
        return "OK"

    def _read_register(self, rest):
        index = int(rest, 16)
        if index == NUM_REGS:
            return rsp.encode_register(self.cpu.pc)
        if not 0 <= index < NUM_REGS:
            return "E01"
        return rsp.encode_register(self.cpu.regs[index])

    def _write_register(self, rest):
        index_text, __, value_text = rest.partition("=")
        index = int(index_text, 16)
        value = rsp.decode_register(value_text)
        if index == NUM_REGS:
            self.cpu.pc = value
        elif 0 <= index < NUM_REGS:
            self.cpu.regs[index] = value
        else:
            return "E01"
        return "OK"

    def _read_memory(self, rest):
        address_text, __, length_text = rest.partition(",")
        address = int(address_text, 16)
        length = int(length_text, 16)
        try:
            return rsp.encode_hex(self.cpu.memory.read_bytes(address, length))
        except Exception:
            return "E02"

    def _write_memory(self, rest):
        header, __, data_text = rest.partition(":")
        address_text, __, length_text = header.partition(",")
        address = int(address_text, 16)
        length = int(length_text, 16)
        data = rsp.decode_hex(data_text)
        if len(data) != length:
            return "E03"
        try:
            self.cpu.memory.write_bytes(address, data)
        except Exception:
            return "E02"
        self.cpu.invalidate_code(address, length)
        return "OK"

    def _write_memory_binary(self, payload):
        """``X addr,len:binary`` — the fast-download write packet."""
        header, separator, data = payload.partition(b":")
        if not separator:
            return "E01"
        address_text, __, length_text = header.decode("ascii").partition(",")
        address = int(address_text, 16)
        length = int(length_text, 16)
        if len(data) != length:
            return "E03"
        try:
            self.cpu.memory.write_bytes(address, data)
        except Exception:
            return "E02"
        self.cpu.invalidate_code(address, length)
        return "OK"

    def _breakpoint(self, insert, rest):
        fields = rest.split(",")
        if len(fields) != 3:
            return "E01"
        kind_text, address_text, length_text = fields
        address = int(address_text, 16)
        length = int(length_text, 16) or 4
        if kind_text in ("0", "1"):
            if insert:
                self.cpu.breakpoints.add_code(address)
            else:
                self.cpu.breakpoints.remove_code(address)
            return "OK"
        if kind_text in ("2", "3", "4"):
            kind = {"2": WatchKind.WRITE, "3": WatchKind.READ,
                    "4": WatchKind.ACCESS}[kind_text]
            if insert:
                self.cpu.breakpoints.add_watch(address, length, kind)
            else:
                self.cpu.breakpoints.remove_watch(address, kind)
            return "OK"
        return ""  # unsupported kind: empty reply per the spec

    def _query(self, rest):
        if rest == "Status":
            # The lock-step wrapper's per-cycle poll: state + cycle count.
            state = "running" if self.running else (
                "exited" if self.exited else "stopped")
            return "Status:%s;pc:%08x;cycles:%x" % (
                state, self.cpu.pc, self.cpu.cycles)
        if rest.startswith("Supported"):
            return "PacketSize=4096"
        if rest.startswith("Rcmd,"):
            return self._monitor(rest[len("Rcmd,"):])
        return ""

    def _monitor(self, hex_command):
        """gdb's ``monitor <cmd>``: target-specific inspection commands.

        Supported: ``cycles`` (cycle/instruction counters), ``regs``
        (pretty register dump), ``disasm [n]`` (disassembly at the pc).
        Output is hex-encoded text per the qRcmd convention.
        """
        try:
            command = rsp.decode_hex(hex_command).decode("ascii")
        except RspError:
            return "E01"
        parts = command.split()
        if not parts:
            return "E01"
        if parts[0] == "cycles":
            text = "cycles=%d instructions=%d\n" % (
                self.cpu.cycles, self.cpu.instructions)
        elif parts[0] == "regs":
            lines = ["r%-2d=0x%08x" % (i, self.cpu.regs[i])
                     for i in range(len(self.cpu.regs))]
            text = " ".join(lines) + " pc=0x%08x\n" % self.cpu.pc
        elif parts[0] == "disasm":
            from repro.iss.disasm import disassemble

            count = int(parts[1]) if len(parts) > 1 else 4
            rows = disassemble(self.cpu.memory, self.cpu.pc, count)
            text = "".join("0x%08x  %s\n" % row for row in rows)
        else:
            return ""  # unknown monitor command: empty reply
        return rsp.encode_hex(text.encode("ascii"))
