"""The paper's Ulam-distance MPC algorithm (Theorem 4, Algorithms 1–2)."""

from ..chain import combine_tuples, run_combine_machine
from .candidates import (CandidateTuple, make_block_payload,
                         run_block_machine)
from .config import UlamConfig
from .driver import UlamQuery, UlamResult, mpc_ulam

__all__ = [
    "CandidateTuple", "make_block_payload", "run_block_machine",
    "combine_tuples", "run_combine_machine",
    "UlamConfig", "UlamQuery", "UlamResult", "mpc_ulam",
]
