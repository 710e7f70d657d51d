"""Two SystemC devices, two drivers, two ISRs on one guest RTOS.

Exercises the Driver-Kernel scheme's generality: each device has its
own driver instance, interrupt vector and guest ISR, sharing one data
socket pair and one interrupt socket pair.
"""

from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.ports import IssInPort, IssOutPort, make_iss_process
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.rtos.driver import CosimPortDriver
from repro.rtos.kernel import RtosKernel
from repro.sysc.clock import Clock
from repro.sysc.module import Module
from repro.sysc.simtime import MS, US

CPU_HZ = 100_000_000

GUEST = """
        .org 0x1000
        .equ SEM_ECHO, 1
        .equ SEM_TICK, 2
main:
        ; open the echo device (id 1) and register its ISR
        li r0, 1
        sys 32
        mov r4, r0
        mov r0, r4
        li r1, 1
        la r2, echo_isr
        sys 35
        ; open the timer device (id 2) and register its ISR
        li r0, 2
        sys 32
        mov r9, r0
        mov r0, r9
        li r1, 1
        la r2, tick_isr
        sys 35
echo_loop:
        li r0, SEM_ECHO
        sys 18
        mov r0, r4
        la r1, buf
        li r2, 1
        sys 33              ; read request word
        lw r5, [r1]
        addi r5, r5, 1000   ; transform: +1000
        la r6, out
        sw r5, [r6]
        mov r0, r4
        la r1, out
        li r2, 1
        sys 34
        b echo_loop

ticker:
        la r3, ticks
tick_loop:
        li r0, SEM_TICK
        sys 18
        lw r5, [r3]
        addi r5, r5, 1
        sw r5, [r3]
        b tick_loop

echo_isr:
        li r0, SEM_ECHO
        sys 19
        sys 48
tick_isr:
        li r0, SEM_TICK
        sys 19
        sys 48

buf:   .word 0
out:   .word 0
ticks: .word 0
"""


class EchoDevice(Module):
    def __init__(self, requests, kernel=None):
        super().__init__("echo_dev", kernel)
        self.req = IssOutPort("echo_req", "echo_req")
        self.resp = IssInPort("echo_resp", "echo_resp")
        self.requests = list(requests)
        self.responses = []
        self.raise_irq = None
        make_iss_process(self, self._on_resp, [self.resp])
        self.thread(self._submit, name="submit")

    def _submit(self):
        for index, value in enumerate(self.requests):
            self.req.post(value)
            self.raise_irq(3)
            while len(self.responses) < index + 1:
                yield self.resp.received
            yield 30 * US

    def _on_resp(self):
        self.responses.append(self.resp.read())


class TimerDevice(Module):
    """Raises a periodic interrupt; no data ports needed."""

    def __init__(self, period, kernel=None):
        super().__init__("timer_dev", kernel)
        self.period = period
        self.raise_irq = None
        self.raised = 0
        self.thread(self._tick, name="tick")

    def _tick(self):
        while True:
            yield self.period
            self.raise_irq(4)
            self.raised += 1


def test_two_devices_two_isrs(kernel):
    Clock(1 * US, "clk")
    scheme = DriverKernelScheme(kernel)
    cpu = Cpu()
    rtos = RtosKernel(cpu)
    rtos.create_semaphore(1)   # SEM_ECHO
    rtos.create_semaphore(2)   # SEM_TICK
    program = assemble(GUEST)
    for address, data in program.chunks:
        cpu.memory.write_bytes(address, data)
    cpu.flush_decode_cache()
    rtos.create_thread("echo", program.symbols.labels["main"], 0x8000)
    rtos.create_thread("ticker", program.symbols.labels["ticker"], 0x7000)

    echo = EchoDevice([1, 2, 3], kernel=kernel)
    timer = TimerDevice(100 * US, kernel=kernel)
    ports = {"echo_req": echo.req, "echo_resp": echo.resp}
    context = scheme.attach_rtos(rtos, ports, CPU_HZ)
    echo_driver = CosimPortDriver(1, "echo", ["echo_req"], "echo_resp",
                                  3, context.guest_data_endpoint)
    timer_driver = CosimPortDriver(2, "timer", [], "echo_resp", 4,
                                   context.guest_data_endpoint)
    rtos.register_driver(echo_driver)
    rtos.register_driver(timer_driver)
    echo.raise_irq = lambda v: scheme.raise_interrupt(context, v)
    timer.raise_irq = lambda v: scheme.raise_interrupt(context, v)
    scheme.elaborate()

    kernel.run(2 * MS)

    assert echo.responses == [1001, 1002, 1003]
    ticks = cpu.memory.load_word(program.symbols.variable_address("ticks"))
    # ~20 timer periods in 2 ms; allow delivery latency at the end.
    assert timer.raised - 2 <= ticks <= timer.raised
    assert rtos.isr_count >= len(echo.responses) + ticks
    # Both vectors stayed independent.
    assert rtos.vectors.handler_for(3) != rtos.vectors.handler_for(4)
