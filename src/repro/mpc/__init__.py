"""MPC (massively parallel computation) simulation substrate.

This package provides the execution model every algorithm in the
repository runs on: BSP rounds over memory-capped machines with full
resource accounting (rounds, machines, per-machine memory, total work and
critical-path work).  See DESIGN.md §2 and §5 for the measurement
conventions.

The fault layer (:mod:`repro.mpc.faults`) additionally lets any
algorithm run under a seeded, replayable failure model — machine
crashes, stragglers, payload corruption: give
:class:`~repro.mpc.simulator.MPCSimulator` a ``fault_plan`` and its
round loop runs bounded-retry recovery waves with per-round recovery
accounting.  See docs/ARCHITECTURE.md, "Failure model & recovery".

The plan layer (:mod:`repro.mpc.plan`) is the declarative API drivers
use: a :class:`~repro.mpc.plan.RoundSpec` bundles a round's machine
function with its partitioner, optional broadcast blob, and collector,
and a :class:`~repro.mpc.plan.Pipeline` runs spec sequences on a
simulator while charging shuffle/broadcast volume to the ledger.  See
docs/ARCHITECTURE.md, "Round plans & shuffle accounting".

The data plane (:mod:`repro.mpc.shm`) publishes a run's immutable
arrays once into shared-memory segments; payloads then carry tiny
:class:`~repro.mpc.shm.SharedSlice` descriptors that resolve into numpy
views inside the executing process, so physical IPC bytes stop scaling
with payload volume while the word-based ledgers stay byte-identical.
See docs/ARCHITECTURE.md, "Data plane: logical words vs physical
bytes".

The telemetry layer (:mod:`repro.mpc.telemetry`) records one span per
machine invocation (retry attempts included) plus round/collector/run
spans through pluggable sinks — in-memory, streamed JSONL, and a
Perfetto-loadable Chrome trace-event export — off by default and free
when disabled.  See docs/ARCHITECTURE.md, "Telemetry & span model".
"""

from .accounting import (RoundStats, RunStats, WorkMeter, add_work,
                         isolated_meters)
from .errors import (MemoryLimitExceeded, MPCError, RoundFailedError,
                     RoundProtocolError)
from .executor import Executor, ProcessPoolExecutor, SerialExecutor
from .faults import (CorruptedOutput, FailedOutput, FaultDecision,
                     FaultPlan, RetryPolicy, fault_kind, is_failed)
from .machine import Broadcast, MachineResult, MachineTask, execute_task
from .partition import blocks, chunk
from .plan import Pipeline, RoundSpec, run_plan
from .shm import (DataPlane, SharedSlice, active_segments,
                  detach_segments, payload_byte_stats, resolve_payload)
from .simulator import MPCSimulator, prepare_broadcast
from .sizeof import sizeof
from .telemetry import (InMemorySink, JsonlSink, Sink, Span, Tracer,
                        current_trace, export_chrome_trace, read_jsonl,
                        trace_context)
from .trace import (load_run_stats, run_stats_from_dict,
                    run_stats_to_dict, save_run_stats)
from .utils import distributed_equal

__all__ = [
    "RoundStats", "RunStats", "WorkMeter", "add_work",
    "MemoryLimitExceeded", "MPCError", "RoundProtocolError",
    "RoundFailedError",
    "Executor", "ProcessPoolExecutor", "SerialExecutor",
    "CorruptedOutput", "FailedOutput", "FaultDecision", "FaultPlan",
    "fault_kind", "is_failed",
    "RetryPolicy",
    "Broadcast", "MachineResult", "MachineTask", "execute_task",
    "blocks", "chunk",
    "Pipeline", "RoundSpec", "run_plan",
    "MPCSimulator", "prepare_broadcast", "sizeof",
    "load_run_stats", "run_stats_from_dict", "run_stats_to_dict",
    "save_run_stats", "isolated_meters", "distributed_equal",
    "Span", "Sink", "InMemorySink", "JsonlSink", "Tracer",
    "current_trace", "trace_context",
    "read_jsonl", "export_chrome_trace",
    "DataPlane", "SharedSlice", "active_segments", "detach_segments",
    "payload_byte_stats", "resolve_payload",
]
