"""Unit tests for Algorithm 1 (Ulam candidate construction)."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import repro.ulam.candidates as candidates
import repro.ulam.driver as driver
from repro.params import UlamParams
from repro.strings import local_ulam, local_ulam_from_matches, ulam_distance
from repro.ulam import (UlamConfig, make_block_payload, mpc_ulam,
                        run_block_machine)
from repro.workloads.permutations import planted_pair, random_permutation

from .helpers import grid_keys_oracle, ulam_n512_block_payloads


def _payload_for(s, t, lo, hi, params, config=None, seed=0):
    pos_t = {int(v): i for i, v in enumerate(t.tolist())}
    positions = np.array([pos_t.get(int(v), -1) for v in s[lo:hi]],
                         dtype=np.int64)
    return make_block_payload(lo, hi, positions, len(t),
                              params.eps_prime, params.u_guesses(),
                              params.hitting_rate, seed,
                              config or UlamConfig.default())


class TestBlockMachine:
    def test_tuples_reference_the_block(self):
        s, t, _ = planted_pair(128, 5, seed=1)
        params = UlamParams(n=128, x=0.4)
        B = params.block_size
        payload = _payload_for(s, t, 0, B, params)
        tuples = run_block_machine(payload)
        assert tuples
        for lo, hi, sp, ep, d in tuples:
            assert (lo, hi) == (0, B)
            assert 0 <= sp <= ep <= len(t)
            assert d >= 0

    def test_distances_are_exact(self):
        s, t, _ = planted_pair(96, 4, seed=2)
        params = UlamParams(n=96, x=0.4)
        B = params.block_size
        payload = _payload_for(s, t, 0, B, params)
        for lo, hi, sp, ep, d in run_block_machine(payload):
            assert d == ulam_distance(s[lo:hi], t[sp:ep]), (sp, ep)

    def test_identical_strings_yield_zero_tuple(self):
        s = random_permutation(64, seed=3)
        params = UlamParams(n=64, x=0.4)
        B = params.block_size
        payload = _payload_for(s, s, 0, B, params)
        tuples = run_block_machine(payload)
        exact = [tup for tup in tuples if tup[4] == 0
                 and tup[2] == 0 and tup[3] == B]
        assert exact, "the lulam optimum must appear as a candidate"

    def test_lulam_window_is_always_a_candidate(self):
        s, t, _ = planted_pair(96, 10, seed=4)
        params = UlamParams(n=96, x=0.4)
        B = params.block_size
        payload = _payload_for(s, t, B, 2 * B, params)
        gamma, kappa, d_star = local_ulam(s[B:2 * B], t)
        tuples = run_block_machine(payload)
        assert any((sp, ep) == (gamma, kappa) for _, _, sp, ep, _ in tuples)
        assert min(d for *_, d in tuples) == d_star

    def test_deterministic_under_seed(self):
        s, t, _ = planted_pair(128, 30, seed=5, style="moves")
        params = UlamParams(n=128, x=0.4)
        B = params.block_size
        a = run_block_machine(_payload_for(s, t, 0, B, params, seed=9))
        b = run_block_machine(_payload_for(s, t, 0, B, params, seed=9))
        assert a == b

    def test_near_optimal_candidate_exists(self):
        # Lemma 3: a candidate with distance close to the block's best
        # alignment must be produced.
        s, t, _ = planted_pair(128, 6, seed=6)
        params = UlamParams(n=128, x=0.4, eps=0.5)
        B = params.block_size
        for lo in range(0, 128, B):
            payload = _payload_for(s, t, lo, min(lo + B, 128), params)
            tuples = run_block_machine(payload)
            best = min(d for *_, d in tuples)
            _, _, d_star = local_ulam(s[lo:lo + B], t)
            assert best == d_star  # lulam optimum always evaluated

    def test_missing_characters_handled(self):
        # t lacks some of s's symbols entirely
        s = np.arange(32, dtype=np.int64)
        t = np.arange(16, dtype=np.int64)  # second half absent
        params = UlamParams(n=32, x=0.4)
        payload = _payload_for(s, t, 16, 32, params)  # all-absent block
        tuples = run_block_machine(payload)
        assert tuples
        for *_, d in tuples:
            assert d >= 0

    def test_max_candidates_cap_respected(self):
        s, t, _ = planted_pair(128, 30, seed=7)
        params = UlamParams(n=128, x=0.4)
        B = params.block_size
        cfg = UlamConfig(max_candidates_per_block=10)
        payload = _payload_for(s, t, 0, B, params, config=cfg)
        assert len(run_block_machine(payload)) <= 10

    def test_top_k_cap_keeps_smallest_distances(self):
        s, t, _ = planted_pair(128, 20, seed=8)
        params = UlamParams(n=128, x=0.4)
        B = params.block_size
        full = run_block_machine(_payload_for(s, t, 0, B, params,
                                              config=UlamConfig.paper()))
        capped = run_block_machine(_payload_for(
            s, t, 0, B, params, config=UlamConfig(phase2_top_k=5)))
        assert len(capped) == 5
        # Smallest (distance, length) first; ties keep generation order
        # (Python's sort is stable).
        assert capped == sorted(
            full, key=lambda tup: (tup[4], tup[3] - tup[2]))[:5]


def _grid(lo, hi, gap, n):
    """Multiples of ``gap`` inside ``[lo, hi] ∩ [0, n]``."""
    lo = max(int(np.ceil(lo)), 0)
    hi = min(int(np.floor(hi)), n)
    first = ((lo + gap - 1) // gap) * gap
    return list(range(first, hi + 1, gap)) if hi >= lo else []


def _scalar_windows(payload):
    """Algorithm 1's candidate windows by its own nested loops, one
    window at a time, deduplicated in first-occurrence order."""
    B = payload["hi"] - payload["lo"]
    positions, n_t = payload["positions"], payload["n_t"]
    i_pts = np.flatnonzero(positions >= 0)
    gamma, kappa, _ = local_ulam_from_matches(i_pts, positions[i_pts], B)
    wanted = {(gamma, kappa): None}
    rng = np.random.default_rng(payload["seed"])
    cap = payload["max_candidates"]
    for u in payload["u_guesses"]:
        if cap is not None and len(wanted) >= cap:
            break
        u_hat = (1.0 + payload["eps_prime"]) * u
        gap = max(int(payload["eps_prime"] * u), 1)
        if u < B / 2:
            r = payload["local_radius_factor"] * u_hat
            for sp in _grid(gamma - r, gamma + r, gap, n_t):
                for ep in _grid(kappa - r, kappa + r, gap, n_t):
                    if ep >= sp:
                        wanted.setdefault((sp, ep), None)
            continue
        hits = np.nonzero(rng.random(B) < payload["theta"])[0]
        if payload["max_hits"] is not None \
                and len(hits) > payload["max_hits"]:
            hits = rng.choice(hits, size=payload["max_hits"],
                              replace=False)
        r = payload["hit_radius_factor"] * u_hat
        for p in np.sort(hits).tolist():
            q = int(positions[p])
            if q < 0:
                continue
            g2, k2 = q - p, q + (B - 1 - p)
            for sp in _grid(g2 - r, g2 + r, gap, n_t):
                for last in _grid(max(k2 - r, sp - 1), k2 + r, gap, n_t):
                    wanted.setdefault((sp, min(last + 1, n_t)), None)
    return list(wanted)[:cap]


class TestWindowEnumeration:
    """The vectorised window grids equal Algorithm 1's nested loops:
    same windows, same order, under every preset's caps."""

    @pytest.mark.parametrize("config", [UlamConfig.paper(),
                                        UlamConfig.practical(),
                                        UlamConfig(max_hits=3,
                                                   max_candidates_per_block=40)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_scalar_loops(self, config, seed):
        s, t, _ = planted_pair(160, 24, seed=seed, style="mixed")
        t = t[~np.isin(t, s[::9])]  # some block symbols absent from t
        params = UlamParams(n=160, x=0.3)
        B = params.block_size
        for lo in (0, 2 * B):
            payload = _payload_for(s, t, lo, lo + B, params,
                                   config=config, seed=seed)
            payload["top_k"] = None  # keep generation order
            got = [(sp, ep) for _, _, sp, ep, _ in
                   run_block_machine(dict(payload))]
            assert got == _scalar_windows(payload)
            assert len(got) > 1

    @staticmethod
    def _n512_payload(**config):
        """The first block of a benchmark-shaped ``perm_pair(512, 64,
        "mixed")`` query under ``UlamConfig.default()``: ``θ = 1``, so
        every block position is a hit and most diagonals hold several."""
        s, t, _ = planted_pair(512, 64, seed=1, style="mixed")
        params = UlamParams(n=512, x=0.25, eps=0.5)
        assert params.hitting_rate == 1.0
        B = params.block_size
        payload = _payload_for(s, t, 0, B, params, seed=3,
                               config=replace(UlamConfig.default(), **config))
        present = payload["positions"] >= 0
        diagonals = payload["positions"][present] - np.flatnonzero(present)
        assert len(np.unique(diagonals)) < present.sum() // 2
        payload["top_k"] = None  # keep generation order
        return payload

    def _check(self, payload):
        got = [(sp, ep) for _, _, sp, ep, _ in
               run_block_machine(dict(payload))]
        assert got == _scalar_windows(payload)
        return got

    @pytest.mark.parametrize("grid_cells", [None, 97])
    def test_benchmark_shape(self, grid_cells, monkeypatch):
        if grid_cells:  # many chunks, some rows larger than one
            monkeypatch.setattr(candidates, "_GRID_CELLS", grid_cells)
        assert len(self._check(self._n512_payload())) > 1000

    def test_cap_cuts_mid_guess(self):
        payload = self._n512_payload()
        guesses = payload["u_guesses"]
        g = next(i for i, u in enumerate(guesses)
                 if u >= payload["hi"] / 2) + 1
        before, after = (len(_scalar_windows({**payload,
                                              "u_guesses": guesses[:k]}))
                         for k in (g, g + 1))
        cap = (before + after) // 2
        assert before < cap < after
        got = self._check(self._n512_payload(max_candidates_per_block=cap))
        assert len(got) == cap


@pytest.fixture(scope="module")
def n512_blocks():
    """The 40 block payloads of the ``ulam-n512`` seed-1 query pool."""
    return ulam_n512_block_payloads()


def _rows(payload):
    """The payload's grid rows, around its lulam window."""
    B = payload["hi"] - payload["lo"]
    positions = payload["positions"]
    i_pts = np.flatnonzero(positions >= 0)
    gamma, kappa, _ = local_ulam_from_matches(i_pts, positions[i_pts], B)
    return candidates._grid_rows(payload, gamma, kappa)


def _windows(payload):
    """The block machine's windows, in generation order."""
    return [(sp, ep) for _, _, sp, ep, _ in
            run_block_machine({**payload, "top_k": None})]


def _oracle_windows(payload):
    """The oracle's windows of the payload, cut like the machine's."""
    n_t = payload["n_t"]
    keys = grid_keys_oracle(_rows(payload), n_t)[:payload["max_candidates"]]
    return [tuple(map(int, divmod(key, n_t + 1))) for key in keys]


def _assert_oracle_keys(rows, n_t):
    got = candidates._grid_keys(rows, n_t)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, grid_keys_oracle(rows, n_t))
    return got


def _hit_row(anchors, B, radius, gap):
    anchors = np.asarray(anchors, dtype=np.int64)
    return (anchors, anchors + (B - 1), radius, gap, 1)


class TestGridOracle:
    """The union-of-boxes enumeration lists exactly the windows of
    generate-then-sort (``helpers.grid_keys_oracle``), in its order."""

    def test_benchmark_blocks(self, n512_blocks, monkeypatch):
        """Same windows, and the cuts' census: the 40 blocks list 4,726
        cells a block (generate-then-sort: 17,293) for 4,295 windows."""
        assert len(n512_blocks) == 40
        rows = [_rows(payload) for payload in n512_blocks]
        listed, first = [], candidates._first_occurrences
        monkeypatch.setattr(candidates, "_first_occurrences",
                            lambda keys: listed.append(len(keys))
                            or first(keys))
        kept = sum(len(_assert_oracle_keys(block, payload["n_t"]))
                   for block, payload in zip(rows, n512_blocks))
        assert (sum(listed), kept) == (189_026, 171_808)

    def test_benchmark_block_windows(self, n512_blocks):
        for payload in n512_blocks[:5]:
            assert _windows(payload) == _oracle_windows(payload)

    @pytest.mark.parametrize("config", [UlamConfig.paper(),
                                        UlamConfig.default(),
                                        UlamConfig.practical()],
                             ids=["paper", "default", "practical"])
    def test_presets(self, config):
        s, t, _ = planted_pair(256, 40, seed=4, style="mixed")
        t = t[~np.isin(t, s[::11])]  # some block symbols absent from t
        params = UlamParams(n=256, x=0.3)
        B = params.block_size
        for lo in range(0, 256, B):
            payload = _payload_for(s, t, lo, min(lo + B, 256), params,
                                   config=config, seed=lo)
            _assert_oracle_keys(_rows(payload), payload["n_t"])
            assert _windows(payload) == _oracle_windows(payload)

    def test_cap_cuts_mid_guess(self, n512_blocks):
        payload = n512_blocks[0]
        rows = _rows(payload)
        hit = next(i for i, row in enumerate(rows) if row[4] == 1)
        before, after = (len(grid_keys_oracle(rows[:k], payload["n_t"]))
                         for k in (hit, hit + 1))
        cap = (before + after) // 2
        assert before < cap < after
        capped = {**payload, "max_candidates": cap}
        got = _windows(capped)
        assert len(got) == cap
        assert got == _oracle_windows(capped)

    def test_gap_one_hit_rows_at_the_text_end(self):
        # End ticks n_t - 1 and n_t of one box both clip to ep = n_t.
        n_t, B = 30, 4
        rows = [(np.array([24]), np.array([28]), 0.0, 1, 0),
                _hit_row([27, 25, 29, 26], B, 2.5, 1),
                _hit_row([26, 28, 24], B, 3.0, 1),
                _hit_row([22, 29], B, 4.0, 2)]
        keys = _assert_oracle_keys(rows, n_t)
        assert n_t in keys % (n_t + 1)

    def test_several_anchors_on_one_diagonal(self):
        # Adjacent anchors: every box overlaps the ones before it.
        rows = [(np.array([40]), np.array([52]), 0.0, 1, 0),
                _hit_row([44, 41, 47, 42, 43, 46, 40, 45], 12, 6.5, 1),
                _hit_row([44, 41, 47, 42, 43, 46, 40, 45], 12, 9.0, 3)]
        _assert_oracle_keys(rows, 100)
        s = random_permutation(96, seed=3)
        params = UlamParams(n=96, x=0.4)
        B = params.block_size
        payload = _payload_for(s, s, B, 2 * B, params)  # one diagonal
        assert all(len(row[0]) <= 1 for row in _rows(payload))
        assert _windows(payload) == _oracle_windows(payload)

    def test_disjoint_anchor_boxes(self):
        rows = [(np.array([10]), np.array([15]), 0.0, 1, 0),
                _hit_row([60, 0, 30, 90], 6, 4.0, 2),
                _hit_row([61, 1, 31], 6, 7.25, 3)]
        _assert_oracle_keys(rows, 120)

    def test_lulam_row_without_end_ticks(self):
        # Gap 2 around an odd kappa with radius 0.5: a start tick but no
        # end tick, so as the later gap-2 and gap-4 rows' cut it cuts
        # nothing.
        anchors = np.array([6]), np.array([9])
        rows = [(*anchors, 0.0, 1, 0), (*anchors, 0.5, 2, 0),
                (*anchors, 5.0, 2, 0), (*anchors, 9.0, 4, 0)]
        _assert_oracle_keys(rows, 30)

    def test_no_hit_present(self):
        s = np.arange(32, dtype=np.int64)
        t = np.arange(16, dtype=np.int64)  # second half absent
        params = UlamParams(n=32, x=0.4)
        payload = _payload_for(s, t, 16, 32, params)  # all-absent block
        rows = _rows(payload)
        assert any(row[4] == 1 for row in rows)
        assert all(len(row[0]) == 0 for row in rows if row[4] == 1)
        _assert_oracle_keys(rows, payload["n_t"])
        assert _windows(payload) == _oracle_windows(payload)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rows(self, seed):
        """Random lulam and hit rows in any order, with radii that sit a
        rounding error off an integer."""
        rng = np.random.default_rng(seed)
        radii = [1.15 * 20, 1.1 * 10, 0.1 * 33, 0.0, 0.5, 7.0, 2.5]
        for _ in range(100):
            n_t, B = int(rng.integers(1, 80)), int(rng.integers(1, 20))
            gamma = int(rng.integers(0, n_t + 1))
            kappa = int(rng.integers(gamma, n_t + 1))
            rows = [(np.array([gamma]), np.array([kappa]), 0.0, 1, 0)]
            for _ in range(int(rng.integers(0, 8))):
                radius = float(rng.choice(radii) if rng.random() < 0.3
                               else rng.random() * 30)
                gap = int(rng.integers(1, 8))
                if rng.random() < 0.5:
                    rows.append((rows[0][0], rows[0][1], radius, gap, 0))
                else:
                    anchors = rng.permutation(np.arange(1 - B, n_t))
                    rows.append(_hit_row(anchors[:rng.integers(0, 12)], B,
                                         radius, gap))
            _assert_oracle_keys(rows, n_t)


class TestFirstOccurrences:
    @pytest.mark.parametrize("values", [
        [], [7], [3, 3, 3, 3], [-2, 5, -2, 0, 5, 5, 9, -7, 0]],
        ids=["empty", "singleton", "all-equal", "negative"])
    def test_small(self, values):
        values = np.array(values, dtype=np.int64)
        self._check(values)

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        self._check(rng.integers(-50, 50, size=int(rng.integers(1, 3000))))

    @staticmethod
    def _check(values):
        first = candidates._first_occurrences(values)
        assert first.dtype == bool and first.shape == values.shape
        np.testing.assert_array_equal(
            np.flatnonzero(first),
            np.sort(np.unique(values, return_index=True)[1]))


class TestGridMemory:
    def test_benchmark_block_peak(self, n512_blocks):
        """No block machine of the ``ulam-n512`` seed-1 pool traces more
        than 2.1 MB: the enumeration holds no table over the key span."""
        peaks = []
        for payload in n512_blocks:
            tracemalloc.start()
            try:
                run_block_machine(dict(payload))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 2.1 * (1 << 20), max(peaks)

    def test_block_machine_peak_is_bounded(self, monkeypatch):
        """Enumerating every guess's grid in one pass keeps its
        temporaries in chunks: no block machine of an ``n = 1024``,
        ``eps = 0.2`` query traces more than 32 MB."""
        payloads = []

        def capture(payload):
            payloads.append(dict(payload))
            return run_block_machine(payload)

        monkeypatch.setattr(driver, "run_block_machine", capture)
        s, t, _ = planted_pair(1024, 128, seed=1, style="mixed")
        mpc_ulam(s, t, x=0.25, eps=0.2, seed=1)
        peaks = []
        for payload in payloads:
            tracemalloc.start()
            try:
                run_block_machine(payload)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(peaks) > 1
        assert max(peaks) <= 32 << 20, peaks


class TestConfigPresets:
    def test_paper_preset_has_no_caps(self):
        cfg = UlamConfig.paper()
        assert cfg.max_hits is None
        assert cfg.phase2_top_k is None
        assert cfg.hitting_rate_constant == 8.0

    def test_default_preset_only_caps_phase2(self):
        cfg = UlamConfig.default()
        assert cfg.phase2_top_k == 256
        assert cfg.max_hits is None

    def test_practical_preset_caps_everything(self):
        cfg = UlamConfig.practical()
        assert cfg.max_hits is not None
        assert cfg.max_candidates_per_block is not None
