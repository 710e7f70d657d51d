"""Multi-processor SoC co-simulation.

The paper's architectural template is "several processors interacting
with hardware blocks, and communicating between them through a common
bus".  These tests attach multiple ISSs — and even mix both schemes —
inside one SystemC simulation.
"""

from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.gdb_kernel import GdbKernelScheme
from repro.cosim.pragmas import build_pragma_map
from repro.cosim.ports import IssInPort, IssOutPort, make_iss_process
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.iss.loader import load_program
from repro.rtos.driver import CosimPortDriver
from repro.rtos.kernel import RtosKernel
from repro.sysc.clock import Clock
from repro.sysc.module import Module
from repro.sysc.simtime import MS, US

CPU_HZ = 100_000_000

_GDB_DOUBLER = """
        .entry main
main:
loop:
        la   r10, req
        ;#pragma iss_out req
        lw   r0, [r10]
        add  r0, r0, r0
        la   r10, resp
        ;#pragma iss_in resp
        sw   r0, [r10]
        nop
        b    loop
req:    .word 0
resp:   .word 0
"""

_RTOS_TRIPLER = """
        .org 0x1000
main:
        li r0, 1
        sys 32
        mov r4, r0
        mov r0, r4
        li r1, 1
        la r2, isr
        sys 35
loop:
        li r0, 1
        sys 18
        mov r0, r4
        la r1, buf
        li r2, 1
        sys 33
        lw r5, [r1]
        add r6, r5, r5
        add r5, r6, r5
        la r6, out
        sw r5, [r6]
        mov r0, r4
        la r1, out
        li r2, 1
        sys 34
        b loop
isr:
        li r0, 1
        sys 19
        sys 48
buf: .word 0
out: .word 0
"""


class Device(Module):
    """Generic request/response device over iss ports."""

    def __init__(self, name, requests, raise_irq=None, kernel=None):
        super().__init__(name, kernel)
        self.req_port = IssOutPort(name + "_req", "req")
        self.resp_port = IssInPort(name + "_resp", "resp")
        self.requests = list(requests)
        self.responses = []
        self.raise_irq = raise_irq
        make_iss_process(self, self._on_resp, [self.resp_port])
        self.thread(self._submit, name="submit")

    def ports(self, req_name="req", resp_name="resp"):
        return {req_name: self.req_port, resp_name: self.resp_port}

    def _submit(self):
        for index, value in enumerate(self.requests):
            self.req_port.post(value)
            if self.raise_irq is not None:
                self.raise_irq(3)
            while len(self.responses) < index + 1:
                yield self.resp_port.received
            yield 10 * US

    def _on_resp(self):
        self.responses.append(self.resp_port.read())


def _attach_gdb_cpu(scheme, device):
    program = assemble(_GDB_DOUBLER)
    cpu = Cpu()
    load_program(cpu, program, stack_top=0x8000)
    scheme.attach_cpu(cpu, build_pragma_map(program), device.ports(),
                      CPU_HZ)
    return cpu


class TestHomogeneousMultiCpu:
    def test_two_isses_under_one_kernel_scheme(self, kernel):
        Clock(1 * US, "clk")
        scheme = GdbKernelScheme(kernel)
        first = Device("d0", [1, 2, 3], kernel=kernel)
        second = Device("d1", [10, 20], kernel=kernel)
        _attach_gdb_cpu(scheme, first)
        _attach_gdb_cpu(scheme, second)
        scheme.elaborate()
        kernel.run(1 * MS)
        assert first.responses == [2, 4, 6]
        assert second.responses == [20, 40]

    def test_per_cpu_isolation(self, kernel):
        """Each ISS has private memory: same variable names, no leaks."""
        Clock(1 * US, "clk")
        scheme = GdbKernelScheme(kernel)
        first = Device("d0", [100], kernel=kernel)
        second = Device("d1", [5], kernel=kernel)
        cpu_a = _attach_gdb_cpu(scheme, first)
        cpu_b = _attach_gdb_cpu(scheme, second)
        scheme.elaborate()
        kernel.run(1 * MS)
        assert first.responses == [200]
        assert second.responses == [10]
        assert cpu_a.memory is not cpu_b.memory


class TestHeterogeneousMultiCpu:
    def test_gdb_and_driver_schemes_coexist(self, kernel):
        """One SoC, two cores, two different co-simulation schemes."""
        Clock(1 * US, "clk")
        gdb_scheme = GdbKernelScheme(kernel)
        gdb_device = Device("gdb_dev", [7, 8], kernel=kernel)
        _attach_gdb_cpu(gdb_scheme, gdb_device)
        gdb_scheme.elaborate()

        driver_scheme = DriverKernelScheme(kernel)
        cpu = Cpu()
        rtos = RtosKernel(cpu)
        rtos.create_semaphore(1)
        program = assemble(_RTOS_TRIPLER)
        for address, data in program.chunks:
            cpu.memory.write_bytes(address, data)
        cpu.flush_decode_cache()
        rtos.create_thread("main", program.symbols.labels["main"], 0x8000)
        driver_device = Device("drv_dev", [4, 5], kernel=kernel)
        context = driver_scheme.attach_rtos(rtos, driver_device.ports(),
                                            CPU_HZ)
        driver = CosimPortDriver(1, "dev", ["req"], "resp", 3,
                                 context.guest_data_endpoint)
        rtos.register_driver(driver)
        driver_device.raise_irq = \
            lambda v: driver_scheme.raise_interrupt(context, v)
        driver_scheme.elaborate()

        kernel.run(2 * MS)
        assert gdb_device.responses == [14, 16]       # doubled
        assert driver_device.responses == [12, 15]    # tripled
