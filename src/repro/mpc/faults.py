"""Deterministic fault plans: which machines fail, how, and when.

The simulator's guarantees (Theorems 4 and 9) are stated for an idealised
MPC model in which every machine finishes every round.  Real clusters do
not behave like that: tasks crash, straggle, and occasionally return
garbage, and MapReduce-style infrastructures answer with task retry and
speculative execution.  A :class:`FaultPlan` makes that failure behaviour
a first-class, *seeded* component of the simulation, so every algorithm
in the repository can be exercised under chaos and every observed failure
is replayable.  :class:`RetryPolicy` is the other half: how a simulator
recovers from those failures (bounded retry waves, then drop or raise).

Determinism contract
--------------------
A plan decides the fate of an attempt purely from
``(plan.seed, round_name, machine_index, attempt)`` via a keyed hash.
Two runs with the same plan therefore inject byte-identical failures —
under the serial *and* the process-pool executor — and a retried attempt
(``attempt`` > 1) re-rolls the dice, exactly like a cluster rescheduling
a task on a fresh container.

Fault kinds
-----------
crash
    The machine's output is replaced by a :class:`FailedOutput` *after*
    it did its work (the work is genuinely wasted, as it is when a
    container dies while writing its output).
straggle
    The machine finishes but its recorded work and wall time are
    inflated by a factor sampled uniformly from ``[1, max_factor]``;
    under a real-time executor the inflation is also slept.
corrupt
    The machine's output is replaced by a :class:`CorruptedOutput`
    sentinel that fails downstream validation.

Typical usage::

    plan = FaultPlan.from_spec("crash=0.05,straggle=0.1x4", seed=7)
    decision = plan.decide("ulam/1-candidates", machine_index=3, attempt=1)
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["FaultDecision", "FaultPlan", "CorruptedOutput", "FailedOutput",
           "RetryPolicy", "is_failed", "fault_kind"]


@dataclass(frozen=True)
class FaultDecision:
    """The fate of one machine attempt, as drawn from a plan."""

    crash: bool = False
    corrupt: bool = False
    straggle_factor: float = 1.0

    @property
    def clean(self) -> bool:
        """True when the attempt runs exactly as in the idealised model."""
        return (not self.crash and not self.corrupt
                and self.straggle_factor == 1.0)


CLEAN = FaultDecision()


@dataclass(frozen=True)
class CorruptedOutput:
    """Sentinel emitted by a machine whose payload was corrupted.

    It deliberately carries no usable data, so any consumer that fails
    to validate its inputs will break loudly rather than silently fold
    garbage into the answer.  A simulator running under a fault plan
    recognises it and reschedules the machine instead.
    """

    round_name: str
    machine_index: int
    attempt: int


@dataclass(frozen=True)
class FailedOutput:
    """Executor-layer record of a machine attempt that did not produce
    usable output (crash or unexpected exception).

    The process-pool executor cannot propagate per-machine exceptions
    without aborting the whole round, so under a fault plan each task
    converts them into this sentinel at the task boundary; the simulator
    turns sentinels back into retries (or
    :class:`~repro.mpc.errors.RoundFailedError`).
    """

    kind: str                   # "crash" | "error"
    round_name: str
    machine_index: int
    attempt: int
    message: str = ""


def is_failed(output: object) -> bool:
    """True when *output* is unusable and the machine should be retried."""
    return isinstance(output, (FailedOutput, CorruptedOutput))


def fault_kind(output: object) -> str:
    """The failure label of *output* for telemetry spans.

    ``"crash"`` / ``"error"`` for :class:`FailedOutput`, ``"corrupt"``
    for :class:`CorruptedOutput`, ``""`` for a usable output.
    """
    if isinstance(output, FailedOutput):
        return output.kind
    if isinstance(output, CorruptedOutput):
        return "corrupt"
    return ""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded per-attempt failure probabilities for every machine.

    Parameters
    ----------
    crash:
        Probability that an attempt crashes (its output is lost after it
        did its work).
    straggle:
        Probability that an attempt straggles.
    straggle_factor:
        Upper bound of the uniform ``[1, straggle_factor]`` inflation
        applied to a straggler's recorded work and wall time.
    corrupt:
        Probability that an attempt's output is replaced by a
        :class:`CorruptedOutput` sentinel.
    seed:
        Root seed of the keyed hash; two plans with equal probabilities
        but different seeds fail different machines.
    """

    crash: float = 0.0
    straggle: float = 0.0
    straggle_factor: float = 4.0
    corrupt: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash", "straggle", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], "
                                 f"got {p!r}")
        if self.straggle_factor < 1.0:
            raise ValueError("straggle_factor must be >= 1, got "
                             f"{self.straggle_factor!r}")

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI-style plan spec.

        The spec is a comma-separated list of ``kind=probability`` terms;
        ``straggle`` optionally appends ``x<factor>``::

            FaultPlan.from_spec("crash=0.05,straggle=0.1x4,corrupt=0.01")

        A ``seed=<int>`` term overrides the *seed* argument.
        """
        kwargs: dict = {"seed": seed}
        if spec.strip():
            for term in spec.split(","):
                term = term.strip()
                if not term:
                    continue
                if "=" not in term:
                    raise ValueError(
                        f"bad fault-plan term {term!r} (expected kind=value)")
                key, _, value = term.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "crash" or key == "corrupt":
                    kwargs[key] = float(value)
                elif key == "straggle":
                    prob, _, factor = value.partition("x")
                    kwargs["straggle"] = float(prob)
                    if factor:
                        kwargs["straggle_factor"] = float(factor)
                else:
                    raise ValueError(
                        f"unknown fault kind {key!r} in spec {spec!r} "
                        "(known: crash, straggle, corrupt, seed)")
        return cls(**kwargs)

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (used by reports and repr)."""
        parts = []
        if self.crash:
            parts.append(f"crash={self.crash:g}")
        if self.straggle:
            parts.append(f"straggle={self.straggle:g}"
                         f"x{self.straggle_factor:g}")
        if self.corrupt:
            parts.append(f"corrupt={self.corrupt:g}")
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    # ------------------------------------------------------------------
    def _rng(self, round_name: str, machine_index: int,
             attempt: int) -> random.Random:
        key = f"{self.seed}:{round_name}:{machine_index}:{attempt}"
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def decide(self, round_name: str, machine_index: int,
               attempt: int = 1) -> FaultDecision:
        """Draw the (deterministic) fate of one machine attempt.

        The draw order is fixed — crash, corrupt, straggle — and every
        kind consumes its stream position unconditionally, so adding a
        later fault kind to a plan never changes the outcomes of earlier
        kinds under the same seed and no outcome shifts another kind's
        draw.  A crash preempts corruption.
        """
        if self.crash == 0.0 and self.straggle == 0.0 and self.corrupt == 0.0:
            return CLEAN
        rng = self._rng(round_name, machine_index, attempt)
        crash = rng.random() < self.crash
        corrupt_roll = rng.random()
        corrupt = (not crash) and corrupt_roll < self.corrupt
        factor = 1.0
        if rng.random() < self.straggle:
            factor = rng.uniform(1.0, self.straggle_factor)
        return FaultDecision(crash=crash, corrupt=corrupt,
                             straggle_factor=factor)

    # ------------------------------------------------------------------
    def expected_failure_rate(self) -> float:
        """Probability that a single attempt needs to be re-executed."""
        return 1.0 - (1.0 - self.crash) * (1.0 - self.corrupt)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a round lost.

    Parameters
    ----------
    max_attempts:
        Total execution waves per round, first run included.  ``3``
        means: run, then at most two retry waves for failed machines.
    backoff_base:
        Seconds slept before the first retry wave (``0`` disables real
        sleeping — the default, so simulations stay fast).
    backoff_factor:
        Multiplier applied per further wave (exponential backoff).
    jitter:
        Fraction of the delay added as deterministic jitter, derived
        from ``(round_name, attempt)`` with a keyed hash — not from
        wall-clock or a global RNG — so replays sleep identically.
    retry_budget:
        Optional cap on the *total number of machine re-executions* per
        round; exhausting it ends the round early even if
        ``max_attempts`` waves remain.
    on_exhausted:
        ``"raise"`` (default) raises
        :class:`~repro.mpc.errors.RoundFailedError` naming the round and
        the still-failing machines; ``"drop"`` replaces their output
        with ``None`` placeholders (keeping the output list aligned with
        the payload list, so positional consumers stay correct) and
        records the loss in the ledger — tolerable for the Ulam/edit
        combiners, whose candidate sets are only pruned by a missing
        machine.  A round whose *every* machine is dropped raises
        regardless: with no surviving contribution there is nothing to
        degrade to.
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.1
    retry_budget: Optional[int] = None
    on_exhausted: str = "raise"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1, got "
                             f"{self.max_attempts!r}")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.on_exhausted not in ("raise", "drop"):
            raise ValueError("on_exhausted must be 'raise' or 'drop', got "
                             f"{self.on_exhausted!r}")

    def delay(self, round_name: str, attempt: int) -> float:
        """Deterministic backoff before retry wave *attempt* (2-based)."""
        if self.backoff_base == 0.0:
            return 0.0
        base = self.backoff_base * self.backoff_factor ** (attempt - 2)
        key = f"{round_name}:{attempt}".encode()
        digest = hashlib.blake2b(key, digest_size=4).digest()
        frac = int.from_bytes(digest, "big") / 2 ** 32
        return base * (1.0 + self.jitter * frac)


@dataclass(frozen=True)
class _InjectedCall:
    """Picklable wrapper running one machine attempt under its decision.

    A top-level object, so injection works identically under the
    process-pool executor.  Unexpected exceptions from the machine
    function are captured as ``FailedOutput(kind="error")``: a simulator
    under a fault plan retries genuine machine bugs the same way it
    retries injected crashes.  With ``realtime`` a straggler also sleeps
    its inflation inside the worker, so the round's wall clock really
    stretches.
    """

    fn: Callable[[Any], Any]
    decision: FaultDecision
    round_name: str
    machine_index: int
    attempt: int
    realtime: bool

    def __call__(self, payload: Any) -> Any:
        start = time.perf_counter()
        try:
            output = self.fn(payload)
        except Exception as exc:  # genuine machine bug: retryable too
            return FailedOutput(kind="error", round_name=self.round_name,
                                machine_index=self.machine_index,
                                attempt=self.attempt, message=repr(exc))
        if self.realtime and self.decision.straggle_factor > 1.0:
            time.sleep((self.decision.straggle_factor - 1.0)
                       * (time.perf_counter() - start))
        if self.decision.crash:
            return FailedOutput(
                kind="crash", round_name=self.round_name,
                machine_index=self.machine_index, attempt=self.attempt,
                message=f"machine {self.machine_index} in round "
                        f"{self.round_name!r} crashed "
                        f"(attempt {self.attempt})")
        if self.decision.corrupt:
            return CorruptedOutput(self.round_name, self.machine_index,
                                   self.attempt)
        return output
