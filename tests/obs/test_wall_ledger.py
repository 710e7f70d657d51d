"""The wall-time benchmark's per-layer ledger against the simulator.

``benchmarks/wall/ledger.py`` splits a run's wall time into layers by
wrapping, from outside, the methods through which the simulator enters
each layer.  It wraps only methods a class defines itself, so a
refactor that moves one of them to a base class silently drops that
layer.  These tests pin the entry points, check that the layers of a
real run sum to its root span, and check that timing a run never
perturbs what it simulates.
"""

import pathlib
import sys
import time

import pytest

_WALL = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "wall"
if str(_WALL) not in sys.path:
    sys.path.insert(0, str(_WALL))

import ledger  # noqa: E402

from repro.cosim.gdb_kernel import GdbKernelHook  # noqa: E402
from repro.obs.scenarios import (quickstart_config,  # noqa: E402
                                 run_traced_scenario)

#: Hook methods a scheme inherits as ``KernelHook`` no-ops: the ledger
#: leaves them unwrapped on purpose.
INHERITED = {(GdbKernelHook, "on_cycle_end")}

KERNEL_SCHEMES = ("gdb-kernel", "driver-kernel")


class EdgeClock:
    """``time.perf_counter`` remembering its first and last reading.

    Inside a root span every ledger reading falls between the root's
    own two, so ``last - first`` is the root span's duration.
    """

    def __init__(self):
        self.first = None
        self.last = None

    def __call__(self):
        now = time.perf_counter()
        if self.first is None:
            self.first = now
        self.last = now
        return now


def _run(scheme):
    # Serial: the ledger times only the main thread, so a thread-pool
    # run would leave ISS execution out of the ``iss`` layer.
    return run_traced_scenario(quickstart_config(scheme, parallel=False),
                               sim_us=60)


def test_every_entry_point_is_defined_on_its_class():
    for cls, names, __ in ledger.targets():
        for name in names:
            if (cls, name) in INHERITED:
                assert name not in vars(cls)
                continue
            assert name in vars(cls), "%s.%s" % (cls.__name__, name)


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_layers_sum_to_the_root_span(scheme):
    clock = EdgeClock()
    with ledger.installed(ledger.Ledger(clock)) as timer:
        with timer.root():
            run = _run(scheme)
    run.system.close()
    layers = timer.take()["layers"]
    total = sum(layer["self_s"] for layer in layers.values())
    assert total == pytest.approx(clock.last - clock.first, abs=1e-9)
    assert layers["iss"]["self_s"] > 0.0
    assert layers["cosim.scheme"]["self_s"] > 0.0


@pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
def test_timing_a_run_does_not_perturb_it(scheme):
    plain = _run(scheme)
    with ledger.installed(ledger.Ledger()) as timer:
        with timer.root():
            timed = _run(scheme)
    assert timer.take()["layers"]["iss"]["calls"] > 0
    assert timed.tracer.dump() == plain.tracer.dump()
    assert timed.system.telemetry.series.dump() \
        == plain.system.telemetry.series.dump()
    plain.system.close()
    timed.system.close()
