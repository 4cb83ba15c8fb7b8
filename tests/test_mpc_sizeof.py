"""Unit tests for the MPC word-size measure."""

import numpy as np
import pytest

from repro.mpc import sizeof


class TestScalars:
    def test_int(self):
        assert sizeof(7) == 1

    def test_float(self):
        assert sizeof(3.14) == 1

    def test_bool(self):
        assert sizeof(True) == 1

    def test_none(self):
        assert sizeof(None) == 1

    def test_numpy_scalar(self):
        assert sizeof(np.int64(9)) == 1


class TestStringsAndArrays:
    def test_str_counts_characters(self):
        assert sizeof("hello") == 5

    def test_empty_str_costs_one_word(self):
        assert sizeof("") == 1

    def test_bytes(self):
        assert sizeof(b"abc") == 3

    def test_array_counts_elements(self):
        assert sizeof(np.arange(17)) == 17

    def test_empty_array_costs_one_word(self):
        assert sizeof(np.array([])) == 1

    def test_2d_array_counts_all_elements(self):
        assert sizeof(np.zeros((3, 4))) == 12


class TestContainers:
    def test_list_adds_framing_word(self):
        assert sizeof([1, 2, 3]) == 4

    def test_tuple(self):
        assert sizeof((1, 2)) == 3

    def test_empty_list(self):
        assert sizeof([]) == 1

    def test_dict_counts_keys_and_values(self):
        assert sizeof({"ab": 1}) == 1 + 2 + 1

    def test_nested(self):
        # [ [1], "ab" ] = 1 frame + (1 frame + 1) + 2
        assert sizeof([[1], "ab"]) == 5

    def test_set(self):
        assert sizeof({1, 2, 3}) == 4


class TestProtocolAndErrors:
    def test_mpc_size_protocol_wins(self):
        class Weighted:
            def __mpc_size__(self):
                return 42

        assert sizeof(Weighted()) == 42

    def test_unknown_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="no MPC word size"):
            sizeof(Opaque())

    def test_unknown_nested_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            sizeof([1, Opaque()])

    def test_monotone_under_wrapping(self):
        payload = {"x": np.arange(10), "y": "abc"}
        assert sizeof([payload]) > sizeof(payload)


def _tuple_rows(k):
    rng = np.random.default_rng(k)
    return [tuple(int(v) for v in row)
            for row in rng.integers(0, 1000, size=(k, 5))]


class TestTupleTable:
    """A round-output table is charged exactly like the tuple list it
    replaces, and ships through pickle unchanged."""

    @pytest.mark.parametrize("k", [0, 1, 300])
    def test_sizeof_matches_tuple_list(self, k):
        from repro.chain import TupleTable
        rows = _tuple_rows(k)
        assert sizeof(TupleTable(rows)) == sizeof(rows) == 1 + 6 * k

    @pytest.mark.parametrize("rows", [_tuple_rows(0), _tuple_rows(1),
                                      _tuple_rows(300),
                                      [(-3, 2 ** 40, 0, 7, 1)]])
    def test_pickle_round_trip(self, rows):
        import pickle

        from repro.chain import TupleTable
        table = TupleTable(rows)
        data = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
        back = pickle.loads(data)
        assert isinstance(back, TupleTable)
        assert back == table and list(back) == rows
        assert back.rows.dtype == np.int64 and back.rows.flags.c_contiguous
        assert sizeof(back) == sizeof(table)
        if len(rows) >= 300:  # ships no more bytes than the tuple list
            assert len(data) <= len(pickle.dumps(
                rows, protocol=pickle.HIGHEST_PROTOCOL))

    def test_iteration_yields_python_int_tuples(self):
        from repro.chain import TupleTable
        rows = _tuple_rows(3)
        got = list(TupleTable(rows))
        assert got == rows
        assert all(type(v) is int for row in got for v in row)
