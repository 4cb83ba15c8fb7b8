"""Exact and approximate string-distance kernels.

These are the sequential building blocks every MPC machine executes
locally: Myers bit-parallel and banded edit distance, fitting (substring)
alignment, LIS and duplicate-free LCS, the sparse Ulam-distance chain
DP, and the CGKS-style approximate inner solver.  The sparse Ulam and
banded kernels take their jobs as batches (:mod:`repro.strings.native`),
the last-row kernel takes one pattern and a batch of texts
(:mod:`repro.strings.bitparallel`); their scalar entry points are
batches of one.
"""

# ``np.unique``, which the kernels call, imports ``numpy.ma`` on first
# use; importing it with the package lets forked pool workers inherit it.
import numpy.ma

from .approx import (InnerSolver, cgks_edit_upper_bound, geometric_offsets,
                     make_inner)
from .banded import (levenshtein_banded, levenshtein_doubling,
                     levenshtein_doubling_batch, within_threshold,
                     within_threshold_batch)
from .bitparallel import myers_last_rows
from .edit_distance import (levenshtein, levenshtein_last_row,
                            levenshtein_script)
from .fitting import fitting_alignment, fitting_last_row
from .lcs import lcs_length_duplicate_free, position_map
from .lis import lis_length
from .transform import EditOp, apply_script, gap_script
from .types import INF, StringLike, as_array
from .ulam import (check_duplicate_free, is_duplicate_free, local_ulam,
                   local_ulam_from_matches, match_points, ulam_auto,
                   ulam_distance, ulam_indel, ulam_windows)

__all__ = [
    "InnerSolver", "cgks_edit_upper_bound", "geometric_offsets", "make_inner",
    "levenshtein_banded", "levenshtein_doubling", "within_threshold",
    "levenshtein_doubling_batch", "within_threshold_batch",
    "myers_last_rows",
    "levenshtein", "levenshtein_last_row", "levenshtein_script",
    "fitting_alignment", "fitting_last_row",
    "lcs_length_duplicate_free", "position_map",
    "lis_length",
    "EditOp", "apply_script", "gap_script",
    "INF", "StringLike", "as_array",
    "check_duplicate_free", "is_duplicate_free", "local_ulam",
    "local_ulam_from_matches", "match_points", "ulam_auto",
    "ulam_distance", "ulam_indel", "ulam_windows",
]
