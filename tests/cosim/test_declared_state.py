"""Declared state: every reader walks one declaration.

The CPU declares its architectural fields (``ARCH_STATE``) and its
tier counters (``CPU_COUNTERS``), the clock binding its warp counters
(``ClockBinding.WARP_COUNTERS``).  The checkpoint image, the process
backend's exchange and the metrics fold all walk those tuples, so
these tests check the tuples themselves: that a live object holds
nothing undeclared, and that every reader carries every declared
field.
"""

import pytest

from repro.cosim.binding import ClockBinding
from repro.cosim.checkpoint import _cpu_state
from repro.iss.cpu import ARCH_STATE, CPU_COUNTERS, TIERS, Cpu
from repro.iss.memory import Memory
from repro.iss.remote import (_apply_result, _apply_state, _pack_result,
                              _pack_state)
from repro.obs.scenarios import quickstart_config
from repro.router.system import build_system
from repro.sysc.simtime import US

#: Cpu attributes outside the declared tuples, each with the reason it
#: is not (or not through them) part of the state image.
CPU_OUTSIDE_DECLARATIONS = {
    "name": "identity, written by each reader beside the fields",
    "regs": "the register file, a list every reader copies itself",
    "memory": "guest RAM, its own checkpoint section",
    "side_exit_sites": "tier analytics, imaged as a canonical list",
    "block_profiler": "tier analytics, imaged by BlockProfiler.state",
    "breakpoints": "debugger configuration, re-armed by replay",
    "_resume_skip": "worker-only step-over bookkeeping; replay restores",
    "_watch_hit": "the last stop's detail; replay restores",
    "_last_stop": "the last stop's reason; replay restores",
    "use_blocks": "tier selection, from the config",
    "use_superblocks": "tier selection, from the config",
    "block_trace": "trace configuration, from the tracer",
    "syscalls": "wiring: host trap handlers",
    "tracer": "wiring",
    "_observers": "wiring: retire observers",
    "_remote": "wiring: process-backend proxy",
    "_decode_cache": "cache, rebuilt on demand",
    "_decoded_pages": "cache index",
    "_block_cache": "cache, rebuilt on demand",
    "_blocks_by_page": "cache index",
    "_superblock_cache": "cache, rebuilt on demand",
    "_superblocks_by_page": "cache index",
    "_superblock_failed": "cache of hot pcs where no chain forms",
    "_code_dirty": "cache coherence flag",
}

#: ClockBinding attributes outside WARP_COUNTERS, each with its reason.
BINDING_OUTSIDE_DECLARATIONS = {
    "cpu_hz": "configuration, from the config",
    "time_per_step_fs": "configuration, from the config",
    "quantum": "configuration, from the config",
    "_last_time_fs": "bank and carry, listed by checkpoint._binding_state",
    "_cycle_carry": "bank and carry, listed by checkpoint._binding_state",
    "granted_cycles": "bank and carry, listed by checkpoint._binding_state",
    "pending_budget": "bank and carry, listed by checkpoint._binding_state",
    "pending_steps": "bank and carry, listed by checkpoint._binding_state",
}


@pytest.fixture(scope="module", params=TIERS)
def finished_system(request):
    config = quickstart_config("gdb-kernel", tier=request.param,
                               sync_quantum=4, dmi=True, parallel=False)
    system = build_system(config)
    system.run(60 * US)
    system.stats()
    yield system
    system.close()


def test_every_cpu_attribute_is_declared_or_explained(finished_system):
    for cpu in finished_system.cpus:
        declared = set(ARCH_STATE + CPU_COUNTERS)
        assert declared <= set(vars(cpu))
        undeclared = (set(vars(cpu)) - declared
                      - set(CPU_OUTSIDE_DECLARATIONS))
        assert not undeclared, (
            "Cpu attributes %s are neither in ARCH_STATE/CPU_COUNTERS "
            "nor explained in CPU_OUTSIDE_DECLARATIONS"
            % sorted(undeclared))


def test_every_binding_attribute_is_declared_or_explained(finished_system):
    bindings = [binding for __, binding in finished_system.bindings()]
    assert bindings
    for binding in bindings:
        declared = set(ClockBinding.WARP_COUNTERS)
        assert declared <= set(vars(binding))
        undeclared = (set(vars(binding)) - declared
                      - set(BINDING_OUTSIDE_DECLARATIONS))
        assert not undeclared, (
            "ClockBinding attributes %s are neither in WARP_COUNTERS "
            "nor explained in BINDING_OUTSIDE_DECLARATIONS"
            % sorted(undeclared))


def test_fold_fills_every_per_context_counter(finished_system):
    per_context = finished_system.metrics.as_dict()["per_context"]
    for cpu in finished_system.cpus:
        for name in CPU_COUNTERS:
            assert per_context[cpu.name][name] == getattr(cpu, name)
    for context, binding in finished_system.bindings():
        assert {name: per_context[context][name]
                for name in ClockBinding.WARP_COUNTERS} \
            == binding.warp_state()


def _distinct_cpu():
    """A CPU whose every declared field holds its own value."""
    cpu = Cpu(Memory(4096))
    for offset, name in enumerate(ARCH_STATE + CPU_COUNTERS, start=101):
        setattr(cpu, name, offset)
    return cpu


def test_worker_result_carries_every_declared_field():
    cpu = _distinct_cpu()
    fresh = Cpu(Memory(4096))
    _apply_result(fresh, _pack_result(cpu))
    for name in ARCH_STATE + CPU_COUNTERS:
        assert getattr(fresh, name) == getattr(cpu, name), name


def test_worker_state_carries_every_architectural_field():
    cpu = _distinct_cpu()
    fresh = Cpu(Memory(4096))
    _apply_state(fresh, _pack_state(cpu))
    for name in ARCH_STATE:
        assert getattr(fresh, name) == getattr(cpu, name), name


def test_checkpoint_image_carries_every_declared_field():
    cpu = _distinct_cpu()
    image = _cpu_state(cpu)
    for name in ARCH_STATE + CPU_COUNTERS:
        assert image[name] == getattr(cpu, name), name
