"""The paper's edit-distance MPC algorithm (Theorem 9, Algorithms 3–7)."""

from .candidates import candidate_windows, length_offsets, start_grid
from .config import EditConfig
from .driver import EditQuery, EditResult, mpc_edit_distance
from .graph import NodeId, RepDistances, build_candidate_nodes, node_string
from .large import (large_distance_phases, large_distance_upper_bound,
                    run_pair_distance_machine, run_rep_distance_machine)
from .small import (run_small_block_machine, small_distance_phases,
                    small_distance_upper_bound)

__all__ = [
    "candidate_windows", "length_offsets", "start_grid",
    "EditConfig", "EditQuery", "EditResult", "mpc_edit_distance",
    "NodeId", "RepDistances", "build_candidate_nodes", "node_string",
    "large_distance_phases", "large_distance_upper_bound",
    "run_pair_distance_machine", "run_rep_distance_machine",
    "run_small_block_machine", "small_distance_phases",
    "small_distance_upper_bound",
]
