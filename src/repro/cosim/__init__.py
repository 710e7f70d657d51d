"""Co-simulation schemes.

Three ways of coupling the SystemC kernel of :mod:`repro.sysc` with the
ISS of :mod:`repro.iss`:

- :mod:`repro.cosim.gdb_wrapper` — the prior-art baseline (Benini et
  al., IEEE Computer 2003, reference [14] of the paper): a wrapper
  *module* explicitly instantiated in the design whose sc_method runs a
  full GDB/RSP round-trip every clock cycle.
- :mod:`repro.cosim.gdb_kernel` — the paper's first scheme (Section 3):
  the wrapper is embedded in the SystemC kernel as a scheduler hook; the
  per-cycle cost drops to one cheap pipe poll, and variable transfers
  happen only at breakpoint hits, feeding ``iss_in``/``iss_out`` ports
  and triggering ``iss_process``es.
- :mod:`repro.cosim.driver_kernel` — the paper's second scheme
  (Section 4): a device driver in the guest RTOS exchanges READ/WRITE
  messages with the kernel hook over a data socket, and the kernel posts
  interrupts back over an interrupt socket.

All three share one context lifecycle (:mod:`repro.cosim.context`):
watchdog, quarantine, quantum batching and the parallel round.
"""

from repro.cosim.channels import Pipe, Socket, Endpoint
from repro.cosim.messages import (Message, MessageType, FrameKind,
                                  pack_message, unpack_message, pack_frame,
                                  unpack_frame, DATA_PORT, INTERRUPT_PORT)
from repro.cosim.ports import IssInPort, IssOutPort
from repro.cosim.binding import ClockBinding
from repro.cosim.faults import FaultPlan, FaultyEndpoint
from repro.cosim.metrics import CosimMetrics
from repro.cosim.pragmas import PragmaMap, build_pragma_map
from repro.cosim.reliable import (ReliabilityConfig, ReliableEndpoint,
                                  wrap_reliable)
from repro.cosim.gdb_wrapper import GdbWrapperScheme, GdbWrapperModule
from repro.cosim.gdb_kernel import GdbKernelScheme
from repro.cosim.driver_kernel import DriverKernelScheme
from repro.cosim.checkpoint import (CheckpointRunner, RecoveryPolicy,
                                    capture_state, compare_states,
                                    latest_checkpoint, load_checkpoint,
                                    restore_checkpoint, verify_checkpoint)

__all__ = [
    "Pipe", "Socket", "Endpoint", "Message", "MessageType", "FrameKind",
    "pack_message", "unpack_message", "pack_frame", "unpack_frame",
    "DATA_PORT", "INTERRUPT_PORT", "IssInPort", "IssOutPort",
    "ClockBinding", "FaultPlan", "FaultyEndpoint", "CosimMetrics",
    "PragmaMap", "build_pragma_map", "ReliabilityConfig",
    "ReliableEndpoint", "wrap_reliable", "GdbWrapperScheme",
    "GdbWrapperModule", "GdbKernelScheme", "DriverKernelScheme",
    "CheckpointRunner",
    "RecoveryPolicy", "capture_state", "compare_states",
    "latest_checkpoint", "load_checkpoint", "restore_checkpoint",
    "verify_checkpoint",
]
