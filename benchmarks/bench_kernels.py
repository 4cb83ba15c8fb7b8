"""E12 — throughput of the sequential string kernels.

These are the per-machine primitives every MPC round executes; their
constants determine the wall-clock of every other experiment.  Standard
pytest-benchmark microbenches (these are fast enough to loop properly).
"""

import numpy as np
import pytest

from repro.strings import (fitting_alignment, levenshtein,
                           levenshtein_doubling, lis_length, local_ulam,
                           match_points, ulam_auto)
from repro.workloads.permutations import planted_pair
from repro.workloads.strings import planted_pair as str_pair


@pytest.fixture(scope="module")
def near_pair():
    return str_pair(2000, 20, sigma=4, seed=1)[:2]


@pytest.fixture(scope="module")
def perm_pair_data():
    s, t, _ = planted_pair(2000, 40, seed=2, style="mixed")
    return s, t


def bench_levenshtein_dense_2000(benchmark, near_pair):
    s, t = near_pair
    result = benchmark(levenshtein, s, t)
    assert result >= 0


def bench_levenshtein_banded_near_2000(benchmark, near_pair):
    s, t = near_pair
    exact = levenshtein(s, t)
    result = benchmark(levenshtein_doubling, s, t)
    assert result == exact


def bench_fitting_alignment_100_in_2000(benchmark, near_pair):
    s, t = near_pair
    gamma, kappa, d = benchmark(fitting_alignment, s[300:400], t)
    assert d <= 100


def bench_lis_length_100k(benchmark):
    rng = np.random.default_rng(3)
    seq = rng.permutation(100_000)
    result = benchmark(lis_length, seq)
    assert result > 100


def bench_sparse_ulam_block_256(benchmark, perm_pair_data):
    s, t = perm_pair_data
    block = s[:256]
    i_pts, p_pts = match_points(block, t)

    def run():
        return ulam_auto(i_pts, p_pts, 256, len(t))

    result = benchmark(run)
    assert result >= 0


def bench_local_ulam_block_256(benchmark, perm_pair_data):
    s, t = perm_pair_data
    block = s[:256]
    gamma, kappa, d = benchmark(local_ulam, block, t)
    assert 0 <= gamma <= kappa <= len(t)
