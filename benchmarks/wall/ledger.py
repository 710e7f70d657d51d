"""Per-layer self-time ledger, timed from outside the program.

Only the traced child imports this module.  :func:`installed` wraps,
at class level, the public functions through which the simulator
enters each layer; every call then opens a span on the ledger.  A
span's self time is its duration minus the time spent in spans opened
inside it, so the layers of one root span sum exactly to the root's
duration.

Spans are timed only on the thread and process that created the
ledger, and only while a root span is open:

- dispatcher pool threads run with no spans, so their time stays in the
  main thread's ``cosim.parallel`` wait;
- a forked ISS worker inherits the shims but runs them as plain calls,
  and its execution shows at the master as ``iss`` time spent waiting
  for the worker's reply;
- calls made while building a system (elaboration sets breakpoints over
  RSP, for example) fall outside every root and are not charged.
"""

import contextlib
import functools
import os
import threading
import time

ROOT_LAYER = "sysc"


class Ledger:
    """Nested self-time stack with per-layer and per-entry totals.

    A layer collects the self time and calls of all its spans; an
    entry (a wrapped function's qualified name) collects its spans'
    inclusive time and calls.  The root span belongs to no entry and
    counts no call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = {}
        self.entries = {}
        self._stack = []
        self._thread = threading.get_ident()
        self._pid = os.getpid()

    def active(self):
        """True when a span opened now would be timed."""
        return (bool(self._stack) and threading.get_ident() == self._thread
                and os.getpid() == self._pid)

    def enter(self, layer, entry=None):
        self._stack.append([layer, entry, self.clock(), 0.0])

    def leave(self):
        """Close the innermost span and charge it."""
        layer, entry, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        totals = self.layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        totals["self_s"] += elapsed - nested
        if entry is not None:
            totals["calls"] += 1
            spent = self.entries.setdefault(entry, {"total_s": 0.0,
                                                    "calls": 0})
            spent["total_s"] += elapsed
            spent["calls"] += 1
        if self._stack:
            self._stack[-1][3] += elapsed

    @contextlib.contextmanager
    def span(self, layer, entry=None):
        self.enter(layer, entry)
        try:
            yield
        finally:
            self.leave()

    def root(self):
        """The span of one cell; its residual self time is ``sysc``."""
        return self.span(ROOT_LAYER)

    def take(self):
        """``{"layers": ..., "entries": ...}`` so far, then reset."""
        totals = {"layers": self.layers, "entries": self.entries}
        self.layers, self.entries = {}, {}
        return totals


def timed(ledger, layer, func):
    """*func* wrapped so each call is a *layer* span on *ledger*."""
    entry = func.__qualname__

    @functools.wraps(func)
    def shim(*args, **kwargs):
        if not ledger.active():
            return func(*args, **kwargs)
        ledger.enter(layer, entry)
        try:
            return func(*args, **kwargs)
        finally:
            ledger.leave()
    return shim


def targets():
    """``(class, method names, layer)`` for every timed entry point."""
    from repro.cosim.channels import Endpoint
    from repro.cosim.checkpoint import CheckpointRunner
    from repro.cosim.dmi import DmiTable
    from repro.cosim.driver_kernel import DriverKernelHook
    from repro.cosim.gdb_kernel import GdbKernelHook
    from repro.cosim.parallel import ParallelDispatcher
    from repro.cosim.transfer import TargetDriver
    from repro.gdb.client import GdbClient
    from repro.iss.cpu import Cpu
    from repro.obs.metrics import MetricsSampler
    from repro.rtos.kernel import RtosKernel
    from repro.sysc.kernel import Kernel

    hook_methods = ("on_cycle_begin", "on_cycle_end", "on_time_advance")
    return (
        (Kernel, ("run",), "sysc"),
        (Cpu, ("run",), "iss"),
        (GdbClient, ("transact",), "gdb"),
        (TargetDriver, ("drive", "grant", "prefetch"), "cosim.transfer"),
        (DmiTable, ("acquire", "read_words", "write_words"), "cosim.dmi"),
        (GdbKernelHook, hook_methods, "cosim.scheme"),
        (DriverKernelHook, hook_methods, "cosim.scheme"),
        (Endpoint, ("send", "recv", "recv_all", "poll"), "cosim.channels"),
        (RtosKernel, ("advance", "post_interrupt"), "rtos"),
        (ParallelDispatcher, ("execute",), "cosim.parallel"),
        (CheckpointRunner, ("save",), "cosim.checkpoint"),
        (MetricsSampler, ("sample",), "obs.telemetry"),
    )


@contextlib.contextmanager
def installed(ledger, entry_points=None):
    """Wrap *entry_points* (default :func:`targets`) for the block.

    Only methods a class defines itself are wrapped: an inherited
    no-op hook (``GdbKernelHook.on_cycle_end``) stays untouched.  The
    originals are restored on exit, also when the block raises.
    """
    if entry_points is None:
        entry_points = targets()
    originals = []
    try:
        for cls, names, layer in entry_points:
            for name in names:
                if name in vars(cls):
                    original = vars(cls)[name]
                    originals.append((cls, name, original))
                    setattr(cls, name, timed(ledger, layer, original))
        yield ledger
    finally:
        for cls, name, original in reversed(originals):
            setattr(cls, name, original)
