import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_logit import (DgpConfig, PanelData, TimeDummiesSpec, read_panel_csv,
                         simulate_panel, write_panel_csv)
from panel_logit import model as model_module
from panel_logit import panel as panel_module


def _small_panel():
    y = np.array([[0, 1, 1, 0, 1], [1, 1, 0, 0, 0], [0, 0, 0, 1, 1]], dtype=np.int8)
    return PanelData(y=y, ids=np.array([10, 11, 12]), t0=4)


def test_roundtrip(tmp_path):
    panel = _small_panel()
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    back = read_panel_csv(path)
    assert np.array_equal(back.y, panel.y)
    assert back.t0 == panel.t0
    assert list(back.ids) == [10, 11, 12]


def test_rejects_nonbinary_outcome():
    with pytest.raises(ValueError):
        PanelData(y=np.array([[0, 2]]), ids=np.array([0]))


def test_drop_prefix_keeps_labels():
    panel = _small_panel()
    tail = panel.drop_prefix(2)
    assert tail.t0 == 6
    assert np.array_equal(tail.col(6), panel.col(6))
    with pytest.raises(ValueError):
        panel.drop_prefix(5)


def test_counts_default_to_one_and_are_validated(tmp_path):
    panel = _small_panel()
    assert panel.n == panel.n_rows == 3 and list(panel.counts) == [1, 1, 1]
    y = _small_panel().y
    counted = PanelData(y=y, ids=np.arange(3), counts=np.array([4, 0, 2]))
    assert counted.n == 6 and counted.drop_prefix(1).n == 6
    for bad in (np.array([1, 2]), np.array([1.0, 1.0, 1.0]), np.array([1, -1, 1])):
        with pytest.raises(ValueError, match="counts"):
            PanelData(y=y, ids=np.arange(3), counts=bad)
    # an int64 cast of the uint64 and an int64 sum would both wrap to -2**63
    for huge in (np.array([2**63, 0, 0], dtype=np.uint64), np.array([2**62, 2**62, 0])):
        with pytest.raises(ValueError, match="panel of 9223372036854775808 individuals"):
            PanelData(y=y, ids=np.arange(3), counts=huge)
    with pytest.raises(ValueError, match="exceeds the exact range"):
        PanelData(y=y, ids=np.arange(3), counts=np.array([2**52, 2**52, 0]))
    with pytest.raises(ValueError, match="frequency counts"):
        write_panel_csv(counted, tmp_path / "counted.csv")


def test_outcomes_are_checked_before_the_int8_cast():
    # int8 would wrap 256 and 257 to 0 and 1, and truncate 0.7 to 0
    for bad in (np.array([[256, 1, 257, 0, 0]]), np.array([[0.7, 1, 0, 0, 1]]),
                np.array([[0, -1, 1]], dtype=np.int8), np.array([[0.0, np.nan, 1.0]]),
                np.array([["0", "1", "1"]]), np.array([[0, "1", 1]], dtype=object)):
        with pytest.raises(ValueError, match="0 or 1"):
            PanelData(y=bad, ids=[0])
    for good in (np.array([[1.0, 0.0, 1.0]]), np.array([[True, False, True]]),
                 np.array([[1, 0, 1]], dtype=object)):
        panel = PanelData(y=good, ids=[0])
        assert panel.y.dtype == np.int8 and panel.y.tolist() == [[1, 0, 1]]


def test_outcomes_are_stored_period_major(monkeypatch):
    made = []
    monkeypatch.setattr(model_module, "PanelData",
                        lambda **kw: made.append(kw["y"]) or PanelData(**kw))
    spec = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1))
    panel = simulate_panel(spec, DgpConfig(n_individuals=50, n_periods=5, seed=2))
    # the simulator allocates the layout, so PanelData keeps its array
    assert panel.y.flags.f_contiguous and panel.y.shape == (50, 5)
    assert panel.y is made[0]
    tail = panel.drop_prefix(2)
    assert tail.y.flags.f_contiguous and np.shares_memory(tail.y, panel.y)
    assert np.array_equal(tail.y, panel.y[:, 2:])
    c_ordered = np.ascontiguousarray(panel.y)
    assert np.array_equal(PanelData(y=c_ordered, ids=panel.ids).y, panel.y)
    assert PanelData(y=c_ordered, ids=panel.ids).y.flags.f_contiguous


def test_read_allocates_the_period_major_layout(tmp_path, monkeypatch):
    path = tmp_path / "panel.csv"
    write_panel_csv(_small_panel(), path)
    made = []
    monkeypatch.setattr(panel_module, "PanelData",
                        lambda **kw: made.append(kw["y"]) or PanelData(**kw))
    back = read_panel_csv(path)
    # the array the reader builds is the one the panel keeps
    assert made[0].flags.f_contiguous and back.y is made[0]


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ident,period,outcome\n1,1,0\n")
    with pytest.raises(ValueError, match="header"):
        read_panel_csv(path)


def test_read_rejects_nonbinary(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,t,y\n1,1,2\n")
    with pytest.raises(ValueError, match="0 or 1"):
        read_panel_csv(path)


def test_read_rejects_ragged(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,t,y\n1,1,0\n1,2,1\n2,1,0\n")
    with pytest.raises(ValueError, match="rectangular"):
        read_panel_csv(path)


def test_read_rejects_gap_in_periods(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("id,t,y\n1,1,0\n1,3,1\n")
    with pytest.raises(ValueError, match="contiguous"):
        read_panel_csv(path)


def test_read_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,t,y\n1,1,0\n1,1,1\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_panel_csv(path)


def _read_error(path, content: bytes) -> str:
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        read_panel_csv(path)
    return str(info.value)


@pytest.mark.parametrize("row, message", [
    ("1,2", "expected 3 fields"),
    ("1,x,0", "non-integer period 'x'"),
    ("1,2,5", "outcome must be 0 or 1, got '5'"),
    ("1,1,1", "duplicate (id=1, t=1)"),
])
def test_read_error_names_its_line(tmp_path, row, message):
    # the blank line 3 counts: the faulty record is line 4
    path = tmp_path / "bad.csv"
    content = f"id,t,y\n1,1,0\n\n{row}\n1,2,0\n2,1,0\n2,2,1\n".encode()
    assert _read_error(path, content) == f"{path}:4: {message}"


def test_read_reports_first_fault_of_a_line(tmp_path):
    # line 3 repeats the cell of line 2 and has a bad outcome: fields, period,
    # outcome and duplicate are checked in that order
    path = tmp_path / "bad.csv"
    assert _read_error(path, b"id,t,y\n1,1,0\n1,1,2\n") == f"{path}:3: outcome must be 0 or 1, got '2'"
    assert _read_error(path, b"id,t,y\n1,1,0\n1,x,2\n") == f"{path}:3: non-integer period 'x'"
    assert _read_error(path, b"id,t,y\n1,1,0\n1,1\n1,1,0\n") == f"{path}:3: expected 3 fields"


def test_read_whole_file_errors(tmp_path):
    path = tmp_path / "bad.csv"
    assert _read_error(path, b"id,t,y\r\n\r\n") == f"{path}: no data rows"
    assert _read_error(path, b"id,t,y\n7,1,0\n7,3,1\n") == f"{path}: periods must be contiguous, got [1, 3]"
    assert _read_error(path, b"id,t,y\n7,1,0\n7,2,1\n8,2,0\n8,3,0\n") == (
        f"{path}: id 8 observed at [2, 3], expected [1, 2] (panel must be rectangular)")


def test_read_undecodable_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"id,t,y\n\xff,1,0\n")
    with pytest.raises(UnicodeDecodeError):
        read_panel_csv(path)


def test_read_overlong_field_after_valid_lines(tmp_path):
    # csv.reader refuses a field over its limit when it reaches that line, so
    # a fault on an earlier line is reported first
    path = tmp_path / "long.csv"
    default = csv.field_size_limit(4)
    try:
        path.write_bytes(b"id,t,y\n1,1,0\n12345,1,0\n")
        with pytest.raises(csv.Error, match=r"field larger than field limit \(4\)"):
            read_panel_csv(path)
        assert _read_error(path, b"id,t,y\n1,1,2\n12345,1,0\n") == (
            f"{path}:2: outcome must be 0 or 1, got '2'")
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_read_line_endings_extra_fields_and_row_order(tmp_path, end):
    path = tmp_path / "panel.csv"
    rows = ["id,t,y", "5,2,1,extra", "3,1,0", "", "5,1,0", "3,2,1,,"]
    path.write_bytes((end.join(rows) + end).encode())
    panel = read_panel_csv(path)
    # ids keep their first appearance, not their sorted order
    assert panel.ids.tolist() == [5, 3] and panel.ids.dtype == np.int64
    assert panel.t0 == 1 and panel.y.tolist() == [[0, 1], [0, 1]]


def test_string_and_quoted_ids_roundtrip(tmp_path):
    y = np.array([[0, 1], [1, 1], [0, 0], [1, 0]], dtype=np.int8)
    ids = np.array(["b", "a,b", 'say "hi"', "two\nlines"])
    path = tmp_path / "panel.csv"
    write_panel_csv(PanelData(y=y, ids=ids, t0=3), path)
    assert b'"a,b"' in path.read_bytes()
    back = read_panel_csv(path)
    assert back.ids.dtype == ids.dtype and back.ids.tolist() == ids.tolist()
    assert back.t0 == 3 and np.array_equal(back.y, y)


def test_distinct_id_spellings_stay_distinct(tmp_path):
    # 07 and 7 name different individuals; a cast to int64 would merge them
    path = tmp_path / "panel.csv"
    path.write_bytes(b"id,t,y\n1,1,0\n07,1,1\n7,1,0\n")
    panel = read_panel_csv(path)
    assert panel.ids.tolist() == ["1", "07", "7"]
    assert panel.y.tolist() == [[0], [1], [0]]
    path.write_bytes(b"id,t,y\n-4,1,0\n0,1,1\n12,1,0\n")
    assert read_panel_csv(path).ids.tolist() == [-4, 0, 12]


def _assert_same_split(text: str, fast) -> None:
    """The byte tokenizer's split of ``text`` is the one ``csv.reader`` makes."""
    slow = panel_module._split_text(text, "utf-8")
    assert fast[0] == slow[0]
    fast_rec, slow_rec = fast[1], slow[1]
    assert slow_rec.error is None and not slow_rec.short.any()
    assert fast_rec.lineno.tolist() == slow_rec.lineno.tolist()
    for column in ("ids", "ts", "ys"):
        got = [s.decode() for s in getattr(fast_rec, column).tolist()]
        assert got == getattr(slow_rec, column).tolist(), column


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01a7-é ,\r\n", max_size=80))
def test_byte_tokenizer_matches_csv_reader(text):
    # the byte tokenizer declines every text that is not rectangular
    fast = panel_module._split_bytes(text.encode(), "utf-8")
    if fast is not None:
        _assert_same_split(text, fast)


# fields of at most two bytes keep fixed-width columns within the size guard
_FIELD = st.text(alphabet="01a7- ", max_size=2) | st.just("é")


@st.composite
def _rectangular_texts(draw):
    width = draw(st.sampled_from([3, 4]))
    records = draw(st.lists(st.lists(_FIELD, min_size=width, max_size=width),
                            min_size=1, max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(fields) for fields in records)
    return text + end if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(_rectangular_texts())
def test_byte_tokenizer_reads_every_rectangular_text(text):
    fast = panel_module._split_bytes(text.encode(), "utf-8")
    assert fast is not None
    _assert_same_split(text, fast)


@pytest.mark.parametrize("ids", [np.array([10, 11, 12]), np.array(["b", "a 1", "é"])])
def test_written_panels_take_the_byte_tokenizer(tmp_path, monkeypatch, ids):
    panel = PanelData(y=_small_panel().y, ids=ids, t0=4)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    lf_path = tmp_path / "lf.csv"
    lf_path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    monkeypatch.setattr(panel_module, "_split_text", None)    # no fall-back
    for read in (path, lf_path):
        back = read_panel_csv(read)
        assert back.ids.tolist() == ids.tolist() and np.array_equal(back.y, panel.y)


def _canonical(spelling: str) -> bool:
    try:
        return str(int(spelling)) == spelling
    except ValueError:
        return False


@given(st.lists(st.text(alphabet="-0123456789a ", max_size=18), min_size=1, max_size=6))
def test_vectorized_id_cast_matches_str_int(spellings):
    labels = np.array([s.encode() for s in spellings])
    got = panel_module._canonical_ints(labels)
    if all(_canonical(s) for s in spellings):
        assert got is not None and got.tolist() == [int(s) for s in spellings]
    else:
        assert got is None


def test_read_allocates_under_76_bytes_per_line(tmp_path):
    spec = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1))
    panel = simulate_panel(spec, DgpConfig(n_individuals=20_000, n_periods=5,
                                           sigma_eta_sq=0.5, seed=2))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    lines = panel.n * panel.n_periods
    tracemalloc.start()
    try:
        back = read_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.y, panel.y)
    assert peak / lines < 76.0, peak / lines
