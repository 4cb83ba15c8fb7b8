"""Unit tests for the ledger serialisation schema (repro.mpc.trace).

The round-trip test deliberately sets a *non-default* value for every
serialised field: the old coercion derived each field's target type from
its default value, which silently truncated floats stored in
int-defaulted fields — exactly the class of bug these tests pin down.
"""

import dataclasses

import pytest

from repro.mpc import RoundStats, RunStats, run_stats_from_dict, \
    run_stats_to_dict
from repro.mpc.trace import _FIELD_TYPES


def _full_round():
    """A RoundStats with a distinct non-default value in every field."""
    return RoundStats(name="r/one", machines=3, max_input_words=11,
                      max_output_words=12, total_input_words=31,
                      total_output_words=29, max_work=101, total_work=222,
                      wall_seconds=0.125, broadcast_words=7,
                      shuffle_words=17, shuffle_work=19,
                      payload_bytes=41, payload_bytes_avoided=43, attempts=4,
                      retried_machines=2, dropped_machines=1,
                      failed_attempts=6, wasted_work=55,
                      wasted_wall_seconds=0.0625,
                      kernel_profile={"banded": [5, 250, 0.5, 2, 0.375, 1]})


class TestSchema:
    def test_every_dataclass_field_is_serialised(self):
        declared = {f.name for f in dataclasses.fields(RoundStats)}
        assert declared == set(_FIELD_TYPES), \
            "serialisation schema out of sync with RoundStats"

    def test_full_round_sets_every_field(self):
        # The round-trip tests below only cover fields that differ from
        # their defaults.
        default = RoundStats(name="")
        assert [f for f in _FIELD_TYPES
                if getattr(_full_round(), f) == getattr(default, f)] == []

    def test_round_trip_preserves_every_field(self):
        stats = RunStats(rounds=[_full_round()])
        again = run_stats_from_dict(run_stats_to_dict(stats))
        assert again.rounds[0] == _full_round()

    def test_round_trip_preserves_non_default_floats_in_all_fields(self):
        # every numeric field survives with its exact value, no truncation
        data = run_stats_to_dict(RunStats(rounds=[_full_round()]))
        restored = run_stats_from_dict(data).rounds[0]
        for f in _FIELD_TYPES:
            assert getattr(restored, f) == getattr(_full_round(), f), f


class TestCoercion:
    def _data(self, **overrides):
        data = run_stats_to_dict(RunStats(rounds=[_full_round()]))
        data["rounds"][0].update(overrides)
        return data

    def test_float_in_int_field_raises_instead_of_truncating(self):
        with pytest.raises(ValueError, match="total_work"):
            run_stats_from_dict(self._data(total_work=222.7))

    def test_integral_float_in_int_field_accepted(self):
        # JSON readers may hand back 222.0 for an int; lossless, so fine
        stats = run_stats_from_dict(self._data(total_work=222.0))
        assert stats.rounds[0].total_work == 222
        assert isinstance(stats.rounds[0].total_work, int)

    def test_string_in_numeric_field_raises(self):
        with pytest.raises(ValueError, match="machines"):
            run_stats_from_dict(self._data(machines="3"))

    def test_non_string_name_raises(self):
        with pytest.raises(ValueError, match="name"):
            run_stats_from_dict(self._data(name=7))

    def test_int_in_float_field_widens(self):
        stats = run_stats_from_dict(self._data(wall_seconds=2))
        assert stats.rounds[0].wall_seconds == 2.0
        assert isinstance(stats.rounds[0].wall_seconds, float)

    def test_legacy_ledger_without_recovery_fields_loads(self):
        data = run_stats_to_dict(RunStats(rounds=[_full_round()]))
        for f in ("attempts", "retried_machines", "dropped_machines",
                  "failed_attempts", "wasted_work", "wasted_wall_seconds"):
            del data["rounds"][0][f]
        stats = run_stats_from_dict(data)
        r = stats.rounds[0]
        assert r.attempts == 1
        assert r.retried_machines == 0
        assert r.failed_attempts == 0
        assert r.total_work == 222      # explicit fields still load


class TestUnknownFields:
    def test_unknown_round_field_raises(self):
        data = run_stats_to_dict(RunStats(rounds=[_full_round()]))
        data["rounds"][0]["gpu_seconds"] = 1.5
        with pytest.raises(ValueError, match="gpu_seconds"):
            run_stats_from_dict(data)

    def test_error_names_every_unknown_field_and_round(self):
        data = run_stats_to_dict(
            RunStats(rounds=[_full_round(), _full_round()]))
        data["rounds"][0]["alpha"] = 1
        data["rounds"][1]["alpha"] = 2
        data["rounds"][1]["beta"] = 3
        with pytest.raises(ValueError) as err:
            run_stats_from_dict(data)
        message = str(err.value)
        assert "alpha" in message and "beta" in message
        assert "newer version" in message


class TestAtomicSave:
    def test_save_load_round_trip(self, tmp_path):
        from repro.mpc import load_run_stats, save_run_stats
        path = tmp_path / "ledger.json"
        save_run_stats(RunStats(rounds=[_full_round()]), path)
        assert load_run_stats(path).rounds[0] == _full_round()

    def test_no_temp_residue_after_save(self, tmp_path):
        from repro.mpc import save_run_stats
        save_run_stats(RunStats(rounds=[_full_round()]),
                       tmp_path / "ledger.json")
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.json"]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        from repro.mpc import load_run_stats, save_run_stats
        path = tmp_path / "ledger.json"
        save_run_stats(RunStats(rounds=[_full_round()]), path)
        small = RunStats()
        save_run_stats(small, path)
        assert load_run_stats(path).rounds == []
        assert len(list(tmp_path.iterdir())) == 1

    def test_failed_save_leaves_old_file_and_no_residue(self, tmp_path):
        from repro.mpc import load_run_stats, save_run_stats
        path = tmp_path / "ledger.json"
        save_run_stats(RunStats(rounds=[_full_round()]), path)
        bad = RunStats()
        bad.rounds = [object()]     # not a RoundStats: serialisation fails
        with pytest.raises(Exception):
            save_run_stats(bad, path)
        # The original ledger is intact and no .tmp file leaked.
        assert load_run_stats(path).rounds[0] == _full_round()
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.json"]
