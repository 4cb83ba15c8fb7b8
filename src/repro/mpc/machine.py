"""Machine task abstraction for the BSP round simulator.

A *machine task* is the unit of per-round work: a top-level callable plus
the payload that was routed to that machine during the preceding shuffle.
Keeping tasks as plain ``(callable, payload)`` pairs (rather than stateful
machine objects) matches the MPC model — machines are stateless between
rounds except for the data explicitly re-sent to them — and keeps tasks
picklable for the process-pool executor.

A round may additionally carry a :class:`Broadcast` — a dict of shared
read-only data every machine of the round needs (lookup tables, round
constants).  The machine function still sees one plain payload dict: the
executor merges ``{**broadcast, **payload}`` immediately before the call,
so machine functions are written once and work with or without the
broadcast channel.  The point of the channel is the shipping layer: a
process pool serialises the blob once per round and deserialises it at
most once per worker, instead of pickling a copy into every machine's
payload.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .accounting import WorkMeter, isolated_meters
from .shm import resolve_payload

__all__ = ["Broadcast", "MachineTask", "MachineResult", "execute_task",
           "merge_broadcast"]

#: Tokens identify one round's broadcast blob across executor layers and
#: retry waves, so worker-side caches never confuse two rounds' blobs.
_broadcast_tokens = itertools.count()


class Broadcast:
    """One round's shared read-only blob, serialised at most once.

    Wraps the driver-supplied dict for the trip through the executor
    stack.  :meth:`pickled` memoises the serialised form, so however many
    execution waves a round needs under a fault plan, the blob's own
    ``__reduce__`` machinery runs at most once per round.
    """

    __slots__ = ("value", "token", "_pickled")

    def __init__(self, value: Dict[str, Any]) -> None:
        if not isinstance(value, dict):
            raise TypeError("a broadcast blob must be a dict, got "
                            f"{type(value).__name__}")
        self.value = value
        self.token = next(_broadcast_tokens)
        self._pickled: Optional[bytes] = None

    def pickled(self) -> bytes:
        """The blob as bytes, serialised on first use and memoised."""
        if self._pickled is None:
            self._pickled = pickle.dumps(self.value,
                                         protocol=pickle.HIGHEST_PROTOCOL)
        return self._pickled


def merge_broadcast(payload: Any, broadcast: Optional[Dict[str, Any]]
                    ) -> Any:
    """The effective machine input: broadcast entries under the payload.

    Payload keys win on collision, but the simulator rejects overlapping
    keys up front (a collision is almost always a driver bug), so in
    practice the two dicts are disjoint.
    """
    if broadcast is None:
        return payload
    return {**broadcast, **payload}


@dataclass(frozen=True)
class MachineTask:
    """One machine's assignment for a round.

    Attributes
    ----------
    fn:
        A *top-level* callable (so it can be pickled by the process-pool
        executor).  It receives ``payload`` as its only argument and
        returns the machine's output message.
    payload:
        The data shipped to this machine.  Its word size is checked
        against the per-machine memory limit before execution.
    """

    fn: Callable[[Any], Any]
    payload: Any


@dataclass
class MachineResult:
    """Output of one machine plus its local resource usage.

    ``worker`` and ``started`` exist for the telemetry layer
    (:mod:`repro.mpc.telemetry`): they are filled in by
    :func:`execute_task` *inside the executing process*, so per-machine
    spans survive the process-pool boundary as plain result fields —
    ``worker`` is the OS pid that ran the task and ``started`` its
    ``time.perf_counter()`` start (a system-wide monotonic clock on
    Linux, hence comparable across workers and the driver).

    ``work``, ``profile`` and ``metrics`` come from the one
    :class:`~repro.mpc.accounting.WorkMeter` opened around the machine
    function: its ``total``, its kernel map ``{kernel: [calls, cells,
    seconds]}`` for the kernel profiler (:mod:`repro.obs.profile`) and
    its :mod:`repro.metrics` snapshot — each of the last two ``None``
    when that collection was off in the executing process.  The
    simulator folds them into the run ledger exactly like span data.
    """

    output: Any
    work: int
    wall_seconds: float
    worker: int = 0
    started: float = 0.0
    profile: Optional[Dict[str, list]] = None
    metrics: Optional[Dict[str, dict]] = None


def execute_task(task: MachineTask,
                 broadcast: Optional[Dict[str, Any]] = None
                 ) -> MachineResult:
    """Run one machine task, metering its abstract work and wall time.

    *broadcast* is the already-resolved shared dict of the task's round
    (``None`` for broadcast-free rounds); it is merged under the payload
    so the machine function sees a single dict, exactly as if the driver
    had replicated the data into every payload.

    This function is the process-pool entry point, so it must stay
    top-level and picklable.

    Data-plane descriptors (:class:`repro.mpc.shm.SharedSlice`) inside
    the payload are resolved into numpy views *here*, in the executing
    process — the single choke point shared by the serial and
    process-pool executors, with or without a fault plan — and outside
    the work meter, because
    resolution is transport, not machine compute.
    """
    start = time.perf_counter()
    payload = merge_broadcast(resolve_payload(task.payload), broadcast)
    with isolated_meters(), WorkMeter() as meter:
        output = task.fn(payload)
    return MachineResult(output=output, work=meter.total,
                         wall_seconds=time.perf_counter() - start,
                         worker=os.getpid(), started=start,
                         profile=meter.kernels, metrics=meter.metrics)
