import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflab import textio


def test_scalar_round_trip():
    text = textio.dump_fields({"dim": 3, "eta": 0.1 + 0.2}, {})
    scalars, entries = textio.parse_fields(text)
    assert scalars["dim"] == 3.0
    assert scalars["eta"] == 0.1 + 0.2
    assert entries == {}


def test_array_round_trip_is_exact():
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((3, 4, 2))
    arr[0, 0, 0] = 0.0
    text = textio.dump_fields({}, {"c": arr})
    _, entries = textio.parse_fields(text)
    rebuilt = textio.build_array(entries, "c", arr.shape)
    assert np.array_equal(rebuilt, arr)


def test_zero_entries_are_omitted():
    arr = np.zeros((2, 2))
    arr[0, 1] = 1.5
    lines = textio.format_array("b", arr)
    assert lines == ["b[0][1] = 1.5"]


def test_comments_and_blank_lines_ignored():
    text = "# header\n\ndim = 2\n# trailing\nc[0][1][0] = -2.0\n"
    scalars, entries = textio.parse_fields(text)
    assert scalars == {"dim": 2.0}
    assert entries["c"] == {(0, 1, 0): -2.0}


def test_build_array_missing_name_is_zero():
    _, entries = textio.parse_fields("dim = 2\n")
    assert np.array_equal(textio.build_array(entries, "g", (2, 2)),
                          np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# write_table
# ---------------------------------------------------------------------------

def _read_table(path):
    data = path.read_bytes()
    assert b"\r" not in data
    text = data.decode()
    assert text.endswith("\n")
    header, *rows = text[:-1].split("\n")
    return header.split(","), [row.split(",") for row in rows]


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a):
        return math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               1e308, 1.7976931348623157e308, 2.2250738585072014e-308, 0.1 + 0.2]


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(), max_size=40), data=st.data())
def test_table_cells_parse_back_to_the_identical_float(tmp_path_factory, values, data):
    values = EDGE_FLOATS + values
    other = data.draw(st.lists(st.floats(width=32), min_size=len(values),
                               max_size=len(values)), label="other")
    path = tmp_path_factory.mktemp("table") / "t.csv"
    textio.write_table(path, ["a", "b"], [np.array(values), other])
    header, rows = _read_table(path)
    assert header == ["a", "b"]
    assert len(rows) == len(values)
    for (a, b), want_a, want_b in zip(rows, values, other):
        assert _same_float(float(a), want_a)
        assert _same_float(float(b), want_b)


@given(ints=st.lists(st.integers(-2**62, 2**62), max_size=30))
def test_integer_columns_stay_integers(tmp_path_factory, ints):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    textio.write_table(path, ["index", "k", "x"],
                       [np.arange(len(ints)), ints, np.zeros(len(ints))])
    _, rows = _read_table(path)
    assert [int(r[0]) for r in rows] == list(range(len(ints)))
    assert [r[1] for r in rows] == [str(k) for k in ints]
    assert all(r[2] == "0.0" for r in rows)


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
def test_tables_across_block_boundaries(tmp_path, rows):
    x = np.linspace(-1.0, 1.0, rows) ** 3
    path = tmp_path / "t.csv"
    textio.write_table(path, ["i", "x"], [np.arange(rows), x])
    want = "i,x\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(x))
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("header,columns", [
    (["a", "b"], [[1.0, 2.0]]),
    (["a"], [[1.0], [2.0]]),
    (["a", "b"], [[1.0, 2.0], [3.0]]),
    (["a", "b"], [[], [1.0]]),
    (["a"], [np.zeros((2, 2))]),
    (["a"], [1.0]),
])
def test_mismatched_or_ragged_columns_raise(tmp_path, header, columns):
    with pytest.raises(ValueError):
        textio.write_table(tmp_path / "t.csv", header, columns)
