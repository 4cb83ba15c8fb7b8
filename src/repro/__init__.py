"""repro — reproduction of "Improved MPC Algorithms for Edit Distance and
Ulam Distance" (Boroujeni, Ghodsi & Seddighin; SPAA 2019 / TPDS 2021).

Public API
----------
The two headline algorithms:

* :func:`repro.mpc_ulam` — Theorem 4: ``1+ε`` Ulam distance, 2 MPC
  rounds, ``Õ_ε(n^x)`` machines, ``Õ_ε(n^(1-x))`` memory each.
* :func:`repro.mpc_edit_distance` — Theorem 9: ``3+ε`` edit distance,
  ≤ 4 MPC rounds, ``Õ_ε(n^(9/5·x))`` machines.

Substrates, baselines and workloads live in the subpackages
(:mod:`repro.mpc`, :mod:`repro.strings`, :mod:`repro.baselines`,
:mod:`repro.workloads`); see DESIGN.md for the full inventory.
"""

from .editdistance import EditConfig, EditResult, mpc_edit_distance
from .params import EditParams, UlamParams
from .reconstruct import chain_script, chain_tuples, ulam_script
from .ulam import UlamConfig, UlamResult, mpc_ulam

__version__ = "1.0.0"

__all__ = [
    "EditConfig", "EditResult", "mpc_edit_distance",
    "EditParams", "UlamParams",
    "chain_script", "chain_tuples", "ulam_script",
    "UlamConfig", "UlamResult", "mpc_ulam",
    "__version__",
]
