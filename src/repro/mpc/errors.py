"""Exception types for the MPC simulation substrate.

The simulator enforces the resource discipline of the MPC model (Karloff,
Suri & Vassilvitskii, SODA'10): a machine may never hold more data than its
local memory, neither on input nor on output.  Violations raise rather than
silently degrade, so every experiment that completes is a certificate that
the algorithm respected its declared memory bound.
"""

from __future__ import annotations


class MPCError(Exception):
    """Base class for all errors raised by :mod:`repro.mpc`."""


class MemoryLimitExceeded(MPCError):
    """A machine's input or output exceeded the per-machine memory cap.

    Attributes
    ----------
    round_name:
        Human-readable name of the round in which the violation occurred.
    machine_index:
        Index of the offending machine within the round.
    direction:
        Either ``"input"`` or ``"output"``.
    size:
        Measured size in words (see :func:`repro.mpc.sizeof.sizeof`).
    limit:
        The configured per-machine memory limit in words.
    """

    def __init__(self, round_name: str, machine_index: int, direction: str,
                 size: int, limit: int) -> None:
        self.round_name = round_name
        self.machine_index = machine_index
        self.direction = direction
        self.size = size
        self.limit = limit
        super().__init__(
            f"machine {machine_index} in round {round_name!r} exceeded the "
            f"memory limit on {direction}: {size} words > {limit} words")


class RoundProtocolError(MPCError):
    """A round was driven incorrectly (e.g. empty task list in strict mode)."""


class RoundFailedError(MPCError):
    """A round could not be completed within its retry budget.

    Attributes
    ----------
    round_name:
        Name of the round that failed.
    failed_machines:
        Indices of the machines still failing when the budget ran out.
    attempts:
        Number of attempts made before giving up.
    """

    def __init__(self, round_name: str, failed_machines,
                 attempts: int) -> None:
        self.round_name = round_name
        self.failed_machines = sorted(failed_machines)
        self.attempts = attempts
        super().__init__(
            f"round {round_name!r} failed after {attempts} attempt(s); "
            f"machines still failing: {self.failed_machines}")
