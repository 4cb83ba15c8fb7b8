"""Declarative round plans: one pipeline API for every MPC algorithm.

The paper's model prices exactly three things — rounds, per-machine
memory, and work — and moves data between rounds with a *shuffle*.  The
raw :meth:`~repro.mpc.simulator.MPCSimulator.run_round` call only prices
what happens *inside* a round; how the driver's state shards into
payloads before the round and how machine outputs route into the next
round's state used to be hand-rolled driver Python that never appeared
in the ledger.  This module makes both sides declarative and measured:

* a :class:`RoundSpec` names a round and bundles its machine function
  with a **partitioner** (state → per-machine payloads), an optional
  **broadcast** blob (shared read-only data, charged to every machine's
  memory but shipped to process-pool workers once per worker per round),
  and a **collector** (machine outputs → next round's state, with the
  collected volume and metered work charged to the round as
  ``shuffle_words`` / ``shuffle_work``);
* a :class:`Pipeline` threads a state value through a sequence of specs
  on a :class:`~repro.mpc.simulator.MPCSimulator`; under a fault plan
  whose retry policy has ``on_exhausted="drop"``, dropped machines'
  ``None`` placeholders flow into collectors untouched, so collectors
  must skip ``None`` exactly like positional consumers always had to.

Typical driver shape::

    pipe = Pipeline(sim)
    tuples = pipe.run([
        RoundSpec("algo/1-map", run_map_machine,
                  partitioner=lambda _: payloads,
                  broadcast=shared_tables,
                  collector=lambda outs, _: [t for o in outs
                                             if o is not None for t in o]),
        RoundSpec("algo/2-reduce", run_reduce_machine,
                  partitioner=lambda tuples: [{"tuples": tuples}],
                  collector=lambda outs, _: outs[0]),
    ])

Everything here runs driver-side: partitioners and collectors may be
closures/lambdas (they are never pickled); only the machine ``fn`` must
stay a picklable top-level callable, exactly as under raw ``run_round``.

Accounting contract
-------------------
The broadcast blob uses dict-merge semantics (machine functions receive
``{**broadcast, **payload}``), so per-machine memory is charged exactly
as if the blob had been replicated into every payload — a driver port
from replicate-to-broadcast leaves the (machines, memory, work) ledger
byte-identical while cutting real serialisation cost.  The collector
runs under its own :class:`~repro.mpc.accounting.WorkMeter`; its metered
work and the :func:`~repro.mpc.sizeof.sizeof` of the state it returns
are recorded on the round as ``shuffle_work`` / ``shuffle_words`` —
routing cost, kept separate from machine compute.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..metrics import get_registry, inc, metric_key
from .accounting import WorkMeter
from .shm import payload_byte_stats
from .simulator import MPCSimulator
from .sizeof import sizeof
from .telemetry import Span

__all__ = ["RoundSpec", "Pipeline", "run_plan"]

#: A partitioner maps the driver state to one payload per machine.
Partitioner = Callable[[Any], Sequence[Any]]
#: A collector maps (machine outputs, previous state) to the next state.
Collector = Callable[[List[Any], Any], Any]
#: A broadcast is a shared dict, or a function of state producing one.
BroadcastSpec = Union[None, Dict[str, Any], Callable[[Any], Dict[str, Any]]]


@dataclass(frozen=True)
class RoundSpec:
    """Declarative description of one MPC round.

    Parameters
    ----------
    name:
        Round label (ledger, traces, error messages).
    fn:
        Top-level machine callable; receives one merged payload dict
        (``{**broadcast, **payload}``) or the bare payload when the
        round has no broadcast.
    partitioner:
        ``state -> payloads`` — how the driver's state shards into
        per-machine payloads.  Runs driver-side.
    collector:
        ``(outputs, state) -> next_state`` — how machine outputs shuffle
        into the next round's state.  ``None`` passes the raw output
        list through as the next state.  Under drop-mode recovery the
        output list contains ``None`` placeholders at dropped machines'
        positions; collectors must skip them.
    broadcast:
        Shared read-only dict for every machine of the round (or a
        ``state -> dict`` callable evaluated at round start).  ``None``
        disables the channel.
    allow_empty:
        Permit a zero-machine round (forwarded to ``run_round``).
    """

    name: str
    fn: Callable[[Any], Any]
    partitioner: Partitioner
    collector: Optional[Collector] = None
    broadcast: BroadcastSpec = None
    allow_empty: bool = False

    def resolve_broadcast(self, state: Any) -> Optional[Dict[str, Any]]:
        """The round's broadcast dict for *state* (or ``None``)."""
        if callable(self.broadcast):
            return self.broadcast(state)
        return self.broadcast


class Pipeline:
    """Drive :class:`RoundSpec` sequences on a simulator.

    The pipeline owns no state of its own beyond the simulator handle;
    the driver's state is whatever value flows between collectors and
    partitioners.  One ``Pipeline`` may run any number of specs and
    plans — each :meth:`round` appends to the simulator's ledger exactly
    like a raw ``run_round`` call, plus the shuffle accounting.
    """

    def __init__(self, sim: MPCSimulator) -> None:
        self.sim = sim

    # ------------------------------------------------------------------
    def round(self, spec: RoundSpec, state: Any = None) -> Any:
        """Execute one spec: partition → machines → collect.

        Returns the collected next state (or the raw output list when
        the spec has no collector).
        """
        payloads = list(spec.partitioner(state))
        broadcast = spec.resolve_broadcast(state)
        # Driver-side metrics go straight into the run's snapshot, keyed
        # per round name.  ``mpc.broadcast_words`` sums the blob's size
        # over every run of the round name (guess siblings included), so
        # it is not the ledger's per-machine ``broadcast_words`` charge.
        metered = get_registry().enabled

        def count(name: str, amount: int) -> None:
            inc(self.sim.stats.metrics,
                metric_key(name, {"round": spec.name}), amount)

        if metered and broadcast is not None:
            count("mpc.broadcast_words", sizeof(broadcast))
        outputs = self.sim.run_round(spec.name, spec.fn, payloads,
                                     allow_empty=spec.allow_empty,
                                     broadcast=broadcast)
        # run_round appended the round's stats last — with or without a
        # fault plan — so the ledger row is still addressable.
        round_stats = self.sim.stats.rounds[-1]
        if metered:
            # Physical transport accounting: the pickle cost of this
            # round's payloads and the bytes the data-plane descriptors
            # referenced without copying.  Gated on metrics because the
            # extra pickling pass is pure measurement overhead.
            shipped, avoided = payload_byte_stats(payloads)
            round_stats.payload_bytes = shipped
            round_stats.payload_bytes_avoided = avoided
            count("data_plane.bytes_shipped", shipped)
            count("data_plane.bytes_avoided", avoided)
        if spec.collector is None:
            return outputs
        collect_start = time.perf_counter()
        with WorkMeter() as meter:
            next_state = spec.collector(outputs, state)
        collect_end = time.perf_counter()
        # Charge the shuffle to the round that produced it.
        shuffle_words = sizeof(next_state)
        round_stats.shuffle_work += meter.total
        round_stats.shuffle_words += shuffle_words
        if metered:
            count("mpc.shuffle_words", shuffle_words)
            count("mpc.shuffle_work", meter.total)
        tracer = self.sim.tracer
        if tracer is not None:
            # Collector span: ``work`` is the shuffle work metered inside
            # the collector, ``output_words`` the shuffle volume routed
            # into the next round's state.
            tracer.emit(Span(
                kind="collect", name=spec.name, worker=os.getpid(),
                start=collect_start, end=collect_end,
                work=meter.total, output_words=shuffle_words))
        return next_state

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RoundSpec], state: Any = None) -> Any:
        """Thread *state* through *specs* in order; return the final state."""
        for spec in specs:
            state = self.round(spec, state)
        return state


def run_plan(sim: MPCSimulator, specs: Sequence[RoundSpec],
             state: Any = None) -> Any:
    """Convenience one-shot: ``Pipeline(sim).run(specs, state)``."""
    return Pipeline(sim).run(specs, state)
