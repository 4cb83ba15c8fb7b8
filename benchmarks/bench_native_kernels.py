"""E27 — batched string kernels vs the same jobs as scalar calls.

The banded kernels take their jobs as batches
(:mod:`repro.strings.native`): a single job runs the scalar NumPy
kernel, two or more run the padded batch kernel, which replaces
thousands of tiny per-call DPs with a handful of whole-matrix NumPy
operations.  Each scalar entry point is a batch of one, so the
comparison is simply ``[scalar(x) for x in xs]`` against
``batch(xs)``.  The sparse-Ulam row compares one :func:`ulam_auto` call
per candidate window against one :func:`ulam_windows` call per block,
which shares a chain-DP row per distinct window start.  Batching must
move **only wall-clock**: distances, work ledgers and
``strings.dp_cells`` / ``strings.kernel_calls`` metering are asserted
equal.

Workloads are the real ones: the exact candidate windows of every block
of an E13 run, the exact doubling pairs a large-regime edit run issues,
and an E22-shaped banded-threshold batch.

Gates: >= 10x on the banded-threshold batch (the scalar path is a
per-row python loop, so batching wins big) and conservative floors on
the sparse-window and doubling paths.
"""

import time

import numpy as np

import repro.ulam.candidates as cand
import repro.editdistance.large as elarge
from repro import UlamConfig, mpc_ulam
from repro.analysis import format_table
from repro.editdistance.config import EditConfig
from repro.editdistance.large import large_distance_upper_bound
from repro.metrics import enabled, scoped_snapshot
from repro.mpc import MPCSimulator
from repro.mpc.accounting import WorkMeter
from repro.obs import profile as obs_profile
from repro.params import EditParams
from repro.strings import (levenshtein_doubling, levenshtein_doubling_batch,
                           ulam_auto, ulam_windows, within_threshold,
                           within_threshold_batch)
from repro.workloads.permutations import planted_pair as perm_pair
from repro.workloads.strings import block_shuffled_pair

from .conftest import run_once

#: The E13 workload (bench_executor_speedup): ulam, 1024 symbols.
E13 = dict(n=1024, x=0.4, eps=1.0, seed=1, input_seed=31)

#: E22-shaped banded-threshold batch: sigma-4 blocks near the edit
#: small-regime block length, small planted distances, tau = 8.
E22_PAIRS = 300
E22_LEN = 96
E22_TAU = 8

#: Large-regime edit workload issuing real doubling-solver batches
#: (the golden edit_large case scaled up to produce enough pairs).
EDIT_LARGE = dict(n=384, budget=8, x=0.29, guess=48, seed=2)


def _timed(fn):
    """Run *fn* with full metering; returns
    ``(result, work_units, metrics_delta, seconds)``."""
    with enabled(), obs_profile.enabled():
        with scoped_snapshot() as scope, WorkMeter() as meter:
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
    return result, meter.total, scope.delta(), dt


def _capture_ulam_blocks():
    """The window-kernel calls ``(i_pts, p_pts, m, sp, ep)`` — one per
    block machine — of a real E13 run."""
    calls = []
    real = cand.ulam_windows

    def record(*call):
        calls.append(call)
        return real(*call)

    cand.ulam_windows = record
    try:
        s, t, _ = perm_pair(E13["n"], E13["n"] // 8,
                            seed=E13["input_seed"], style="mixed")
        mpc_ulam(s, t, x=E13["x"], eps=E13["eps"], seed=E13["seed"],
                 config=UlamConfig.practical())
    finally:
        cand.ulam_windows = real
    return calls


def _window_jobs(calls):
    """Per-window ``ulam_auto`` jobs: each window's match points
    re-based to its start."""
    jobs = []
    for i_pts, p_pts, m, sp, ep in calls:
        for w_sp, w_ep in zip(sp.tolist(), ep.tolist()):
            inside = (p_pts >= w_sp) & (p_pts < w_ep)
            jobs.append((i_pts[inside], p_pts[inside] - w_sp, m,
                         w_ep - w_sp))
    return jobs


def _capture_doubling_jobs():
    """The pair jobs a large-regime edit run hands the doubling batch."""
    jobs = []
    real = elarge.levenshtein_doubling_batch

    def record(batch):
        jobs.extend(batch)
        return real(batch)

    elarge.levenshtein_doubling_batch = record
    try:
        s, t = block_shuffled_pair(EDIT_LARGE["n"], EDIT_LARGE["budget"],
                                   seed=5)
        params = EditParams(n=EDIT_LARGE["n"], x=EDIT_LARGE["x"],
                            eps=1.0, eps_prime_divisor=4)
        cfg = EditConfig(max_representatives=16,
                         max_low_degree_samples=8,
                         max_extensions_per_pair_source=8)
        sim = MPCSimulator(memory_limit=params.memory_limit)
        large_distance_upper_bound(s, t, params,
                                   guess=EDIT_LARGE["guess"], sim=sim,
                                   config=cfg, seed=EDIT_LARGE["seed"])
    finally:
        elarge.levenshtein_doubling_batch = real
    return jobs


def _e22_threshold_pairs():
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(E22_PAIRS):
        a = rng.integers(0, 4, size=E22_LEN).astype(np.int64)
        b = a.copy()
        for _ in range(int(rng.integers(0, E22_TAU))):
            b[int(rng.integers(0, E22_LEN))] = int(rng.integers(0, 4))
        pairs.append((a, b))
    return pairs


def _kernel_case(name, scalar_run, batch_run):
    """Time *scalar_run* vs *batch_run*; assert equal answers, work and
    metering."""
    res_s, work_s, met_s, sec_s = _timed(scalar_run)
    res_b, work_b, met_b, sec_b = _timed(batch_run)
    assert list(res_s) == list(res_b), name
    assert work_s == work_b, (name, work_s, work_b)
    assert met_s == met_b, name
    return {"name": name, "scalar_s": sec_s, "batch_s": sec_b,
            "speedup": sec_s / sec_b if sec_b > 0 else float("inf")}


def _jobs_case(name, scalar, batch, jobs):
    return _kernel_case(name, lambda: [scalar(*job) for job in jobs],
                        lambda: batch(jobs))


def _run():
    ulam_calls = _capture_ulam_blocks()
    ulam_jobs = _window_jobs(ulam_calls)
    doubling_jobs = _capture_doubling_jobs()
    threshold_pairs = _e22_threshold_pairs()
    return [
        _kernel_case(
            f"ulam_sparse windows ({len(ulam_jobs)} windows of "
            f"{len(ulam_calls)} E13 blocks)",
            lambda: [ulam_auto(*job) for job in ulam_jobs],
            lambda: [d for call in ulam_calls
                     for d in ulam_windows(*call).tolist()]),
        _jobs_case(
            f"banded threshold ({E22_PAIRS} E22-shaped pairs)",
            lambda a, b: within_threshold(a, b, E22_TAU),
            lambda pairs: within_threshold_batch(pairs, E22_TAU),
            threshold_pairs),
        _jobs_case(
            f"banded doubling ({len(doubling_jobs)} large-regime pairs)",
            levenshtein_doubling, levenshtein_doubling_batch,
            doubling_jobs),
    ]


def bench_native_kernels(benchmark, report):
    rows = run_once(benchmark, _run)
    table = [[r["name"], f"{r['scalar_s']:.3f}", f"{r['batch_s']:.3f}",
              f"{r['speedup']:.1f}x"] for r in rows]
    lines = [
        "String kernels: list of scalar calls vs one batch call "
        "(ulam_sparse: one ulam_auto call per window vs one "
        "ulam_windows call per block)",
        "",
        format_table(["workload", "scalar_s", "batch_s", "speedup"],
                     table),
        "",
        "distances, work ledgers and strings.dp_cells / kernel_calls "
        "metering identical between the two in every row (asserted); "
        "only wall-clock differs.",
    ]
    report("E27_native_kernels", "\n".join(lines))

    by_name = {r["name"].split(" (")[0]: r for r in rows}
    # The scalar banded path is a per-row python loop: batching must
    # clear 10x.  The sparse-window and doubling floors are conservative.
    assert by_name["banded threshold"]["speedup"] >= 10.0, by_name
    assert by_name["ulam_sparse windows"]["speedup"] >= 1.5, by_name
    assert by_name["banded doubling"]["speedup"] >= 1.2, by_name
