import pytest

from repro.errors import RtosError
from repro.iss.assembler import assemble
from repro.iss.cpu import Cpu
from repro.rtos.costs import CostModel
from repro.rtos.kernel import RtosKernel
from repro.rtos.thread import ThreadState


def make_rtos(source, costs=None):
    cpu = Cpu()
    rtos = RtosKernel(cpu, costs)
    program = assemble(source)
    for address, data in program.chunks:
        cpu.memory.write_bytes(address, data)
    cpu.flush_decode_cache()
    return rtos, program


_TWO_COUNTERS = """
        .org 0x1000
t1:
        la r2, c1
loop1:
        lw r0, [r2]
        addi r0, r0, 1
        sw r0, [r2]
        sys 16          ; yield
        b loop1
t2:
        la r2, c2
loop2:
        lw r0, [r2]
        addi r0, r0, 1
        sw r0, [r2]
        sys 16          ; yield
        b loop2
c1: .word 0
c2: .word 0
"""


class TestScheduling:
    def test_yield_alternates_threads(self):
        rtos, program = make_rtos(_TWO_COUNTERS)
        rtos.create_thread("a", program.symbols.labels["t1"], 0x8000)
        rtos.create_thread("b", program.symbols.labels["t2"], 0x7000)
        rtos.start()
        rtos.advance(20_000)
        c1 = rtos.cpu.memory.load_word(
            program.symbols.variable_address("c1"))
        c2 = rtos.cpu.memory.load_word(
            program.symbols.variable_address("c2"))
        assert c1 > 0 and c2 > 0
        assert abs(c1 - c2) <= 2  # fair alternation

    def test_priority_wins(self):
        rtos, program = make_rtos(_TWO_COUNTERS)
        rtos.create_thread("hi", program.symbols.labels["t1"], 0x8000,
                           priority=0)
        rtos.create_thread("lo", program.symbols.labels["t2"], 0x7000,
                           priority=5)
        rtos.start()
        rtos.advance(10_000)
        c1 = rtos.cpu.memory.load_word(
            program.symbols.variable_address("c1"))
        c2 = rtos.cpu.memory.load_word(
            program.symbols.variable_address("c2"))
        # The high-priority thread yields but is immediately re-picked.
        assert c1 > 0 and c2 == 0

    def test_tick_preempts_cpu_bound_threads(self):
        source = """
                .org 0x1000
        t1:
                la r2, c1
        loop1:
                lw r0, [r2]
                addi r0, r0, 1
                sw r0, [r2]
                b loop1
        t2:
                la r2, c2
        loop2:
                lw r0, [r2]
                addi r0, r0, 1
                sw r0, [r2]
                b loop2
        c1: .word 0
        c2: .word 0
        """
        costs = CostModel(tick_period=1_000)
        rtos, program = make_rtos(source, costs)
        rtos.create_thread("a", program.symbols.labels["t1"], 0x8000)
        rtos.create_thread("b", program.symbols.labels["t2"], 0x7000)
        rtos.start()
        rtos.advance(50_000)
        c1 = rtos.cpu.memory.load_word(
            program.symbols.variable_address("c1"))
        c2 = rtos.cpu.memory.load_word(
            program.symbols.variable_address("c2"))
        assert c1 > 0 and c2 > 0  # neither thread starves
        assert rtos.tick_count > 10

    def test_idle_burns_cycles_when_no_threads(self):
        rtos, __ = make_rtos(".org 0x1000\nnop")
        rtos.start()
        consumed = rtos.advance(5_000)
        assert consumed == 5_000
        assert rtos.idle_cycles > 4_000

    def test_advance_consumes_exactly_budget(self):
        rtos, program = make_rtos(_TWO_COUNTERS)
        rtos.create_thread("a", program.symbols.labels["t1"], 0x8000)
        rtos.start()
        before = rtos.cpu.cycles
        rtos.advance(3_000)
        assert rtos.cpu.cycles - before >= 3_000

    def test_thread_exit_falls_back_to_idle(self):
        source = """
                .org 0x1000
        main:
                li r0, 0
                sys 0       ; thread exit
        """
        rtos, program = make_rtos(source)
        thread = rtos.create_thread("m", program.symbols.labels["main"],
                                    0x8000)
        rtos.start()
        rtos.advance(5_000)
        assert thread.state is ThreadState.DONE
        assert rtos.idle_cycles > 0
        assert not rtos.cpu.halted

    def test_start_twice_rejected(self):
        rtos, __ = make_rtos(".org 0x1000\nnop")
        rtos.start()
        with pytest.raises(RtosError):
            rtos.start()

    def test_advance_before_start_rejected(self):
        rtos, __ = make_rtos(".org 0x1000\nnop")
        with pytest.raises(RtosError):
            rtos.advance(100)


class TestSemaphoreSyscalls:
    _PINGPONG = """
            .org 0x1000
    producer:
            li r1, 0
    ploop:
            li r0, 1
            sys 19          ; sem_post(1)
            addi r1, r1, 1
            li r2, 5
            bne r1, r2, ploop
            li r0, 0
            sys 0           ; exit
    consumer:
            la r3, count
    cloop:
            li r0, 1
            sys 18          ; sem_wait(1)
            lw r4, [r3]
            addi r4, r4, 1
            sw r4, [r3]
            b cloop
    count: .word 0
    """

    def test_semaphore_handshake(self):
        rtos, program = make_rtos(self._PINGPONG)
        rtos.create_semaphore(1)
        rtos.create_thread("cons", program.symbols.labels["consumer"],
                           0x7000)
        rtos.create_thread("prod", program.symbols.labels["producer"],
                           0x8000)
        rtos.start()
        rtos.advance(50_000)
        count = rtos.cpu.memory.load_word(
            program.symbols.variable_address("count"))
        assert count == 5

    def test_unknown_semaphore_faults(self):
        rtos, program = make_rtos("""
                .org 0x1000
        main:
                li r0, 42
                sys 18
        """)
        rtos.create_thread("m", 0x1000, 0x8000)
        rtos.start()
        with pytest.raises(RtosError):
            rtos.advance(1_000)

    def test_duplicate_semaphore_id_rejected(self):
        rtos, __ = make_rtos(".org 0x1000\nnop")
        rtos.create_semaphore(1)
        with pytest.raises(RtosError):
            rtos.create_semaphore(1)


class TestSleep:
    def test_sleep_blocks_for_requested_cycles(self):
        source = """
                .org 0x1000
        main:
                li32 r0, 3000
                sys 17          ; sleep(r0 cycles)
                la r1, flag
                li r0, 1
                sw r0, [r1]
                li r0, 0
                sys 0
        flag: .word 0
        """
        rtos, program = make_rtos(source)
        rtos.create_thread("m", program.symbols.labels["main"], 0x8000)
        rtos.start()
        flag_address = program.symbols.variable_address("flag")
        rtos.advance(1_000)
        assert rtos.cpu.memory.load_word(flag_address) == 0
        rtos.advance(10_000)
        assert rtos.cpu.memory.load_word(flag_address) == 1


class TestInterrupts:
    _ISR_PROGRAM = """
            .org 0x1000
    main:
            wfi
            b main
    isr:
            la r1, hits
            lw r0, [r1]
            addi r0, r0, 1
            sw r0, [r1]
            sys 48          ; iret
    hits: .word 0
    """

    def _build(self):
        rtos, program = make_rtos(self._ISR_PROGRAM)
        rtos.vectors.register(3, program.symbols.labels["isr"])
        rtos.create_thread("m", program.symbols.labels["main"], 0x8000)
        rtos.start()
        return rtos, program

    def test_isr_runs_and_returns(self):
        rtos, program = self._build()
        rtos.advance(1_000)
        rtos.post_interrupt(3)
        rtos.advance(2_000)
        hits = rtos.cpu.memory.load_word(
            program.symbols.variable_address("hits"))
        assert hits == 1
        assert rtos.isr_count == 1
        assert not rtos.in_isr
        assert rtos.cpu.interrupts_enabled

    def test_multiple_interrupts_all_delivered(self):
        rtos, program = self._build()
        for __ in range(3):
            rtos.post_interrupt(3)
            rtos.advance(2_000)
        hits = rtos.cpu.memory.load_word(
            program.symbols.variable_address("hits"))
        assert hits == 3

    def test_interrupted_context_resumes_exactly(self):
        rtos, program = self._build()
        rtos.advance(500)
        saved_regs = list(rtos.cpu.regs)
        rtos.post_interrupt(3)
        rtos.advance(2_000)
        # The main thread (wfi loop) continues with its registers
        # intact except those the ISR legitimately owns nothing of.
        assert rtos.cpu.regs[13] == saved_regs[13]

    def test_iret_outside_isr_faults(self):
        rtos, program = make_rtos("""
                .org 0x1000
        main:
                sys 48
        """)
        rtos.create_thread("m", 0x1000, 0x8000)
        rtos.start()
        with pytest.raises(RtosError):
            rtos.advance(1_000)

    def test_isr_charges_entry_and_exit_costs(self):
        rtos, program = self._build()
        rtos.advance(1_000)
        charged_before = rtos.charged_cycles
        rtos.post_interrupt(3)
        rtos.advance(2_000)
        assert rtos.charged_cycles - charged_before >= \
            rtos.costs.isr_entry + rtos.costs.isr_exit


class TestMailboxSyscalls:
    _PRODUCER_CONSUMER = """
            .org 0x1000
    producer:
            li r1, 1
    ploop:
            li r0, 1
            sys 20          ; mbox_put(1, r1) -> r0 accepted
            addi r1, r1, 1
            li r2, 6
            bne r1, r2, ploop
            li r0, 0
            sys 0
    consumer:
            la r3, total
    cloop:
            li r0, 1
            sys 21          ; mbox_get(1) -> r0 value (blocking)
            lw r4, [r3]
            add r4, r4, r0
            sw r4, [r3]
            b cloop
    total: .word 0
    """

    def test_mailbox_pipeline(self):
        rtos, program = make_rtos(self._PRODUCER_CONSUMER)
        rtos.create_mailbox(1)
        rtos.create_thread("cons", program.symbols.labels["consumer"],
                           0x7000)
        rtos.create_thread("prod", program.symbols.labels["producer"],
                           0x8000)
        rtos.start()
        rtos.advance(50_000)
        total = rtos.cpu.memory.load_word(
            program.symbols.variable_address("total"))
        assert total == 1 + 2 + 3 + 4 + 5

    def test_blocked_consumer_receives_value_directly(self):
        rtos, program = make_rtos(self._PRODUCER_CONSUMER)
        rtos.create_mailbox(1)
        # Start the consumer alone: it blocks in mbox_get.
        rtos.create_thread("cons", program.symbols.labels["consumer"],
                           0x7000)
        rtos.start()
        rtos.advance(5_000)
        box = rtos.mailboxes[1]
        assert len(box.waiters) == 1
        accepted, woken = box.try_put(40)
        assert accepted and woken is not None
        rtos._make_ready(woken)
        rtos.advance(5_000)
        total = rtos.cpu.memory.load_word(
            program.symbols.variable_address("total"))
        assert total == 40

    def test_unknown_mailbox_faults(self):
        rtos, __ = make_rtos("""
                .org 0x1000
        main:
                li r0, 9
                sys 21
        """)
        rtos.create_thread("m", 0x1000, 0x8000)
        rtos.start()
        with pytest.raises(RtosError):
            rtos.advance(1_000)


class TestGettime:
    def test_gettime_returns_cycle_counter(self):
        source = """
                .org 0x1000
        main:
                sys 22          ; gettime -> r0
                la r1, first
                sw r0, [r1]
                li r0, 100
                sys 17          ; sleep 100 cycles
                sys 22
                la r1, second
                sw r0, [r1]
                li r0, 0
                sys 0
        first:  .word 0
        second: .word 0
        """
        rtos, program = make_rtos(source)
        rtos.create_thread("m", program.symbols.labels["main"], 0x8000)
        rtos.start()
        rtos.advance(20_000)
        first = rtos.cpu.memory.load_word(
            program.symbols.variable_address("first"))
        second = rtos.cpu.memory.load_word(
            program.symbols.variable_address("second"))
        assert second - first >= 100


class TestStackProtection:
    def test_overflow_detected_at_context_switch(self):
        source = """
                .org 0x1000
        main:
                ; smash way past the stack limit
                li32 r1, 0x7E00
                li   r0, 0x11
                sw   r0, [r1]
                sys  16         ; yield -> switch -> canary check
                b    main
        """
        rtos, program = make_rtos(source)
        rtos.create_thread("m", program.symbols.labels["main"], 0x8000,
                           stack_size=0x200)   # limit at 0x7E00
        rtos.create_thread("other", program.symbols.labels["main"],
                           0x9000)
        rtos.start()
        with pytest.raises(RtosError, match="stack overflow.*'m'"):
            rtos.advance(5_000)

    def test_well_behaved_thread_passes_checks(self):
        source = """
                .org 0x1000
        main:
                push r0
                pop  r0
                sys  16
                b    main
        """
        rtos, program = make_rtos(source)
        rtos.create_thread("a", program.symbols.labels["main"], 0x8000,
                           stack_size=0x400)
        rtos.create_thread("b", program.symbols.labels["main"], 0x9000,
                           stack_size=0x400)
        rtos.start()
        rtos.advance(10_000)  # many switches, no complaints

    def test_stack_size_validation(self):
        rtos, __ = make_rtos(".org 0x1000\nnop")
        with pytest.raises(RtosError):
            rtos.create_thread("bad", 0x1000, 0x8000, stack_size=6)


class TestBudgetDebt:
    """An advance whose budget is covered by earlier overshoot (budget
    <= debt) runs no guest code, yet must still consume co-simulation
    traffic and keep the debt arithmetic exact."""

    _DEBT = 1_000
    _BUDGET = 100

    @staticmethod
    def _setup():
        from repro.cosim.channels import Socket
        from repro.rtos.driver import CosimPortDriver

        rtos, __ = make_rtos(".org 0x1000\nnop")
        data, irq = Socket(4444), Socket(4445)
        rtos.attach_cosim(data.b, irq.b)
        driver = CosimPortDriver(1, "dev", rx_ports=["data_in"],
                                 tx_port="result", irq_vector=5,
                                 data_endpoint=data.b)
        rtos.register_driver(driver)
        rtos.start()
        rtos._budget_debt = TestBudgetDebt._DEBT
        return rtos, driver, data, irq

    def test_nothing_pending_repays_exactly_the_budget(self):
        rtos, __, __, __ = self._setup()
        cycles = rtos.cpu.cycles
        assert rtos.advance(self._BUDGET) == 0
        assert rtos._budget_debt == self._DEBT - self._BUDGET
        assert rtos.cpu.cycles == cycles
        # A budget equal to the remaining debt clears it, still idle.
        assert rtos.advance(rtos._budget_debt) == 0
        assert rtos._budget_debt == 0
        assert rtos.cpu.cycles == cycles

    def test_read_reply_consumed_and_charge_folded_into_debt(self):
        from repro.cosim.messages import (Block, Message, MessageType,
                                          pack_message, unpack_message)

        rtos, driver, data, __ = self._setup()
        thread = rtos.create_thread("reader", 0x1000, 0x8000)
        driver.read(thread, 0x2000, 4)
        request = unpack_message(data.a.recv())
        words = (0x1234).to_bytes(4, "little") * 2
        data.a.send(pack_message(Message(
            MessageType.READ_REPLY, [Block("data_in", words)],
            request.sequence)))
        cycles = rtos.cpu.cycles
        assert rtos.advance(self._BUDGET) == 0
        charge = rtos.costs.driver_call + 2 * rtos.costs.driver_per_word
        assert rtos.cpu.cycles == cycles + charge
        assert rtos._budget_debt == self._DEBT - self._BUDGET + charge
        assert driver.read_replies == 1
        assert driver._pending_read is None
        assert thread.state is ThreadState.READY
        assert data.b.pending == 0
        assert rtos.cpu.memory.load_word(0x2000) == 0x1234

    def test_interrupt_consumed(self):
        from repro.cosim.messages import interrupt_message, pack_message

        rtos, __, __, irq = self._setup()
        irq.a.send(pack_message(interrupt_message(5)))
        cycles = rtos.cpu.cycles
        assert rtos.advance(self._BUDGET) == 0
        assert irq.b.pending == 0
        assert list(rtos.vectors.pending) == [5]
        assert rtos.cpu.cycles == cycles
        assert rtos._budget_debt == self._DEBT - self._BUDGET
