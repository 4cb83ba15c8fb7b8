"""Golden-equivalence suite for the repro.mpc.plan port.

``tests/golden/*.json`` freezes, for fixed seeds, every driver's
returned values and per-round (machines, memory, work) ledger as they
were *before* the port onto the declarative pipeline layer.  These
tests re-run the ported drivers and require byte-identical results:
same distances, same machine counts, same words of memory, same units
of work, round for round.

Also covers the two driver-level regressions that rode along with the
port: results now hold a :meth:`RunStats.snapshot` instead of aliasing
the live simulator ledger, and chaos-mode runs flow through the
pipeline unchanged.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate", GOLDEN / "generate.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("golden_generate", mod)
    spec.loader.exec_module(mod)
    return mod


GEN = _load_generator()


@pytest.mark.parametrize("case", sorted(GEN.CASES))
def test_driver_matches_pre_refactor_fixture(case):
    fixture = json.loads((GOLDEN / f"{case}.json").read_text())
    # Round-trip through JSON so int/list types compare like the fixture.
    fresh = json.loads(json.dumps(GEN.CASES[case](), sort_keys=True))
    assert fresh == fixture


class TestResultStatsSnapshot:
    """Satellite: driver results must not alias the live ledger."""

    def test_ulam_result_stats_detached_from_simulator(self):
        from repro.mpc import MPCSimulator
        from repro.params import UlamParams
        from repro.ulam import mpc_ulam
        from repro.workloads.permutations import planted_pair
        s, t, _ = planted_pair(128, 8, seed=1, style="mixed")
        sim = MPCSimulator(
            memory_limit=UlamParams(n=128, x=0.4, eps=0.5).memory_limit)
        res = mpc_ulam(s, t, x=0.4, eps=0.5, seed=2, sim=sim)
        frozen = [(r.name, r.total_work) for r in res.stats.rounds]
        # Reusing the simulator afterwards must not grow the result's
        # ledger (pre-fix, res.stats WAS sim.stats).
        sim.run_round("extra", lambda p: p, [{"v": 1}])
        sim.stats.rounds[0].total_work += 10 ** 9
        assert [(r.name, r.total_work) for r in res.stats.rounds] == frozen
        assert res.stats.n_rounds < sim.stats.n_rounds

    def test_edit_result_stats_detached_from_simulator(self):
        from repro.editdistance import mpc_edit_distance
        from repro.mpc import MPCSimulator
        from repro.params import EditParams
        from repro.workloads.strings import planted_pair
        s, t, _ = planted_pair(128, 6, sigma=4, seed=3)
        sim = MPCSimulator(
            memory_limit=EditParams(n=128, x=0.25, eps=1.0).memory_limit)
        res = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=4, sim=sim)
        before = res.stats.n_rounds
        sim.run_round("extra", lambda p: p, [{"v": 1}])
        assert res.stats.n_rounds == before
        assert sim.stats.n_rounds == before + 1


class TestChaosThroughPipeline:
    """Fault injection keeps working now that drivers use Pipeline."""

    PLAN_SPEC = "crash=0.1,straggle=0.1x4"

    def _chaos_sim(self, memory_limit, seed, on_exhausted="raise"):
        from repro.mpc import FaultPlan, MPCSimulator, RetryPolicy
        return MPCSimulator(
            memory_limit=memory_limit,
            fault_plan=FaultPlan.from_spec(self.PLAN_SPEC, seed=seed),
            retry_policy=RetryPolicy(max_attempts=4,
                                     on_exhausted=on_exhausted))

    def test_ulam_chaos_matches_clean_distance(self):
        from repro.params import UlamParams
        from repro.ulam import mpc_ulam
        from repro.workloads.permutations import planted_pair
        s, t, _ = planted_pair(192, 12, seed=6, style="mixed")
        clean = mpc_ulam(s, t, x=0.4, eps=0.5, seed=7)
        sim = self._chaos_sim(
            UlamParams(n=192, x=0.4, eps=0.5).memory_limit, seed=8)
        chaotic = mpc_ulam(s, t, x=0.4, eps=0.5, seed=7, sim=sim)
        assert chaotic.distance == clean.distance
        # at least one retry wave ran beyond the two scheduled rounds
        assert chaotic.stats.total_attempts > chaotic.stats.n_rounds
        # the chaos ledger still carries the broadcast charge
        assert chaotic.stats.rounds[0].broadcast_words > 0

    def test_edit_chaos_drop_mode_returns_valid_bound(self):
        from repro.editdistance import mpc_edit_distance
        from repro.params import EditParams
        from repro.strings import levenshtein
        from repro.workloads.strings import planted_pair
        s, t, _ = planted_pair(160, 8, sigma=4, seed=9)
        sim = self._chaos_sim(
            EditParams(n=160, x=0.25, eps=1.0).memory_limit, seed=10,
            on_exhausted="drop")
        res = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=11, sim=sim)
        # drop-mode answers stay valid upper bounds
        assert levenshtein(s, t) <= res.distance <= len(s) + len(t)


class TestCommunicationLedger:
    """The ported drivers report shuffle/broadcast volumes end to end."""

    def test_ulam_summary_reports_shuffle_words(self):
        from repro.ulam import mpc_ulam
        from repro.workloads.permutations import planted_pair
        s, t, _ = planted_pair(128, 8, seed=20, style="mixed")
        res = mpc_ulam(s, t, x=0.4, eps=0.5, seed=21)
        summary = res.stats.summary()
        assert summary["shuffle_words"] > 0
        assert summary["broadcast_words"] > 0
        r1 = res.stats.rounds[0]
        assert r1.broadcast_words > 0 and r1.shuffle_words > 0

    def test_format_communication_renders_all_rounds(self):
        from repro.analysis import format_communication
        from repro.editdistance import mpc_edit_distance
        from repro.workloads.strings import planted_pair
        s, t, _ = planted_pair(128, 6, sigma=4, seed=22)
        res = mpc_edit_distance(s, t, x=0.25, eps=1.0, seed=23)
        text = format_communication(res.stats)
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["round", "machines", "words_in"]
        assert len(lines) == 2 + res.stats.n_rounds + 1  # hdr+rule+TOTAL
        assert lines[-1].startswith("TOTAL")

    def test_cli_comm_flag_prints_ledger(self, capsys):
        from repro.cli import main
        assert main(["ulam", "--n", "64", "--x", "0.4", "--comm"]) == 0
        out = capsys.readouterr().out
        assert "Communication ledger" in out
        assert "shuffle_words" in out
