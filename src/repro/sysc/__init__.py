"""A SystemC-like discrete-event simulation kernel.

This package reproduces the subset of SystemC 2.0.1 semantics the paper
relies on: modules, signals with evaluate/update (delta-cycle) semantics,
ports, bounded FIFO channels, clocks, method and thread processes with
static and dynamic sensitivity — plus the *kernel extension hooks* at the
simulation-cycle boundaries that the GDB-Kernel and Driver-Kernel schemes
patch into (paper Sections 3.3 and 4.2).
"""

from repro.sysc.simtime import FS, PS, NS, US, MS, SEC, format_time
from repro.sysc.event import Event
from repro.sysc.process import Process, ProcessKind
from repro.sysc.signal import Signal
from repro.sysc.port import InPort, OutPort
from repro.sysc.fifo import Fifo
from repro.sysc.clock import Clock
from repro.sysc.module import Module
from repro.sysc.kernel import Kernel, current_kernel, set_current_kernel
from repro.sysc.hooks import KernelHook
from repro.sysc.trace import VcdTrace

__all__ = [
    "FS", "PS", "NS", "US", "MS", "SEC", "format_time",
    "Event", "Process", "ProcessKind", "Signal", "InPort", "OutPort",
    "Fifo", "Clock", "Module", "Kernel", "current_kernel",
    "set_current_kernel", "KernelHook", "VcdTrace",
]
