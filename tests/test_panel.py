import csv
import io
import locale
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panel_logit import (DgpConfig, PanelData, TimeDummiesSpec, aggregate, read_panel_csv,
                         simulate_panel, write_panel_csv)
from panel_logit import model as model_module
from panel_logit import panel as panel_module
from panel_logit.panel import ROW_BLOCK


def _small_panel():
    y = np.array([[0, 1, 1, 0, 1], [1, 1, 0, 0, 0], [0, 0, 0, 1, 1]], dtype=np.int8)
    return PanelData(y=y, ids=np.array([10, 11, 12]), t0=4)


def _row_ids(panel: PanelData) -> np.ndarray:
    """The panel's ids, its row numbers where they are None."""
    return np.arange(panel.n) if panel.ids is None else panel.ids


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


def test_rejects_ids_that_are_not_1d():
    # a (3, 2) grid of ids has the length of three rows but no id per row
    for rows, bad in ((3, np.arange(6).reshape(3, 2)), (1, np.array(7))):
        with pytest.raises(ValueError, match="ids must be a 1-d array"):
            PanelData(y=np.zeros((rows, 2)), ids=bad)


@pytest.mark.parametrize("y, ids, message", [
    (np.zeros(3), np.arange(3), "y must be a 2-d array"),
    (np.zeros((3, 2)), np.arange(2), "ids length must match the number of rows"),
], ids=["1-d-y", "short-ids"])
def test_rejects_outcomes_and_ids_of_another_shape(y, ids, message):
    with pytest.raises(ValueError, match=message):
        PanelData(y=y, ids=ids)


def test_rejects_a_first_period_that_is_not_an_integer(tmp_path):
    # a t0 of 1.5 was written as the period 1.5, which the reader refuses
    for t0 in (1.5, True, "1"):
        with pytest.raises(ValueError, match=f"^t0 must be an integer, got {t0!r}$"):
            PanelData(y=np.zeros((1, 2)), ids=np.array([0]), t0=t0)
    panel = PanelData(y=np.zeros((1, 2)), ids=np.array([0]), t0=np.int64(4))
    write_panel_csv(panel, tmp_path / "p.csv")
    assert read_panel_csv(tmp_path / "p.csv").t0 == 4


def test_drop_prefix_keeps_labels():
    panel = _small_panel()
    tail = panel.drop_prefix(2)
    assert tail.t0 == 6
    assert np.array_equal(tail.col(6), panel.col(6))
    with pytest.raises(ValueError):
        panel.drop_prefix(5)
    # a bool or a non-integer is refused, not read as 1 or left to raise a TypeError
    for k in (True, 1.5, "1"):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            panel.drop_prefix(k)
    assert panel.drop_prefix(np.int64(2)).t0 == 6


def test_drop_prefix_is_a_view_that_is_not_checked_again(monkeypatch):
    panel = _small_panel()
    made = []
    real = PanelData.__init__
    monkeypatch.setattr(PanelData, "__init__",
                        lambda self, *a, **kw: made.append(1) or real(self, *a, **kw))
    tail = panel.drop_prefix(2)
    assert not made
    assert type(tail) is PanelData and tail.t0 == panel.t0 + 2 and tail.ids is panel.ids
    assert np.shares_memory(tail.y, panel.y) and np.array_equal(tail.y, panel.y[:, 2:])
    assert tail.n == panel.n and tail.n_periods == 3


def test_row_numbered_panels_store_no_ids(tmp_path):
    # simulated panels, and panels read by either reader from a file whose
    # ids are 0 .. n - 1 in order, keep no ids: theirs are None
    spec = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1))
    cfg = DgpConfig(n_individuals=2 * ROW_BLOCK + 3, n_periods=5, sigma_eta_sq=0.5, seed=2)
    simulated = simulate_panel(spec, cfg)
    path = tmp_path / "panel.csv"
    write_panel_csv(simulated, path)
    panels = [simulated, read_panel_csv(path),
              panel_module._read_records(path, locale.getpreferredencoding(False))]
    for panel in [*panels, *(panel.drop_prefix(2) for panel in panels)]:
        assert panel.ids is None and panel.n == cfg.n_individuals


def test_ids_other_than_the_row_numbers_are_stored(tmp_path):
    y = np.random.default_rng(5).integers(0, 2, (ROW_BLOCK + 2, 3))
    rows = np.arange(len(y))
    panel = PanelData(y=y, ids=rows)
    assert panel.ids is rows and panel.drop_prefix(1).ids is rows
    # row numbers up to the last block, shifted, reversed
    late = rows.copy()
    late[-2:] = late[-1], late[-2]
    path = tmp_path / "panel.csv"
    for ids in (late, rows + 1, rows[::-1]):
        write_panel_csv(PanelData(y=y, ids=ids), path)
        for back in (read_panel_csv(path),
                     panel_module._read_records(path, locale.getpreferredencoding(False))):
            assert back.ids is not None and back.ids.tolist() == ids.tolist()
            assert np.array_equal(back.y, y)


def test_counts_default_to_one_and_are_validated(tmp_path):
    # a panel row is one individual: counts are a history table's alone
    panel = _small_panel()
    assert panel.n == 3 and panel.drop_prefix(1).n == 3
    with pytest.raises(TypeError, match="counts"):
        PanelData(y=panel.y, counts=np.array([4, 0, 2]))
    write_panel_csv(panel, tmp_path / "panel.csv")
    # 2**5 history counts refuse the values counted rows refused; an int64
    # cast of the uint64 2**63 and the int64 sum of two 2**62 would both wrap
    # to -2**63
    first = np.arange(32) < 1
    for bad, message in ((np.ones(32), "got float64 of shape"),
                         (np.where(first, -1, 1), "must be nonnegative"),
                         (np.where(first, 2**63, 0).astype(np.uint64), "got uint64 of shape"),
                         (np.where(np.arange(32) < 2, 2**62, 0),
                          "panel of 9223372036854775808 individuals"),
                         (np.where(np.arange(32) < 2, 2**52, 0), "exceeds the exact range")):
        with pytest.raises(ValueError, match=message):
            aggregate(bad, 4)


def test_outcomes_are_checked_before_the_int8_cast():
    # int8 would wrap 256 and 257 to 0 and 1, and truncate 0.7 to 0
    for bad in (np.array([[256, 1, 257, 0, 0]]), np.array([[0.7, 1, 0, 0, 1]]),
                np.array([[0, -1, 1]], dtype=np.int8), np.array([[0, 1, 2]], dtype=np.int8),
                np.array([[0.0, np.nan, 1.0]]),
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


@pytest.mark.parametrize("quote", ["", '"'], ids=["bytes", "csv-reader"])
@pytest.mark.parametrize("spelling, period", [
    ("\u0663", None), (" 3", None), ("3 ", None), ("1_0", None), ("+3", 3), ("03", 3),
])
def test_read_periods_in_ascii_digits(tmp_path, quote, spelling, period):
    # int() would read the Arabic-Indic three, the spaces and the underscore;
    # a quoted id sends the file through csv.reader
    path = tmp_path / "panel.csv"
    content = (f"id,t,y\n{quote}1{quote},1,0\n1,2,0\n1,{spelling},1\n"
               "2,1,0\n2,2,1\n2,3,0\n").encode()
    if period is None:
        assert _read_error(path, content) == f"{path}:4: non-integer period {spelling!r}"
    else:
        path.write_bytes(content)
        panel = read_panel_csv(path)
        assert panel.t0 == 1 and panel.y.tolist() == [[0, 0, 1], [0, 1, 0]]


def test_read_reports_first_fault_of_a_line(tmp_path):
    # line 3 repeats the cell of line 2 and has a bad outcome: fields, period,
    # outcome and duplicate are checked in that order
    path = tmp_path / "bad.csv"
    assert _read_error(path, b"id,t,y\n1,1,0\n1,1,2\n") == f"{path}:3: outcome must be 0 or 1, got '2'"
    assert _read_error(path, b"id,t,y\n1,1,0\n1,x,2\n") == f"{path}:3: non-integer period 'x'"
    assert _read_error(path, b"id,t,y\n1,1,0\n1,1\n1,1,0\n") == f"{path}:3: expected 3 fields"


def test_read_whole_file_errors(tmp_path):
    path = tmp_path / "bad.csv"
    assert _read_error(path, b"") == f"{path}: expected header 'id,t,y'"
    assert _read_error(path, b"id,t,y\r\n\r\n") == f"{path}: no data rows"
    assert _read_error(path, b"id,t,y\n7,1,0\n7,3,1\n") == f"{path}: periods must be contiguous, got [1, 3]"
    assert _read_error(path, b"id,t,y\n7,1,0\n7,2,1\n8,2,0\n8,3,0\n") == (
        f"{path}: id 8 observed at [2, 3], expected [1, 2] (panel must be rectangular)")


def test_read_undecodable_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"id,t,y\n\xff,1,0\n")
    with pytest.raises(UnicodeDecodeError):
        read_panel_csv(path)


@pytest.mark.parametrize("block, n", [(1, 50), (7, 50), (panel_module._BYTE_BLOCK, 120_000)])
@pytest.mark.parametrize("head, tail", [
    (b"", b"\xff,1,0\n"),
    (b"", b"7,1,0\n\xc3"),
    (b'"x",1,0\n', b"7,1,0\n\xff\n"),
], ids=["bad-byte", "cut-character", "after-a-quote"])
def test_read_undecodable_byte_in_a_late_block(tmp_path, monkeypatch, block, n, head, tail):
    # the error a text read of the whole file raises, with its position in
    # the file: after many clean blocks, at the very end, or after a quote
    # has sent the file to the record reader
    data = b"id,t,y\n" + head + b"".join(b"%d,1,0\n" % k for k in range(n)) + tail
    encoding = locale.getpreferredencoding(False)
    with pytest.raises(UnicodeDecodeError) as expected:
        data.decode(encoding)
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    monkeypatch.setattr(panel_module, "_BYTE_BLOCK", block)
    assert len(data) > 3 * block
    with pytest.raises(UnicodeDecodeError) as raised:
        read_panel_csv(path)
    assert str(raised.value) == str(expected.value)


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


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("names", [("a\0", "a"), ("a", "a\0"), ("\0", ""), ("", "\0")])
def test_ids_ending_in_a_nul_roundtrip(tmp_path, names, quoted):
    # a numpy string array drops trailing NULs: "a\0" and "a" would read as
    # two rows named "a" and write a file with a duplicate (id, period)
    def records(fields):
        return "id,t,y\r\n" + "".join(f"{f},1,{k}\r\n" for k, f in enumerate(fields))

    path, again = tmp_path / "panel.csv", tmp_path / "again.csv"
    path.write_bytes(records(f'"{name}"' if quoted else name for name in names).encode())
    for _ in range(2):      # read, write, read
        panel = read_panel_csv(path)
        assert panel.ids.dtype == object and panel.ids.tolist() == list(names)
        assert panel.y.tolist() == [[0], [1]]
        write_panel_csv(panel, again)
        assert again.read_bytes() == records(names).encode()
        path = again


def _reference_write(panel: PanelData, path) -> None:
    """The panel as a record-by-record writer writes it: ``csv.writer`` on a
    text-mode file, one row per (individual, period)."""
    periods = np.arange(panel.t0, panel.t_last + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "y"])
        writer.writerows(zip(np.repeat(_row_ids(panel), panel.n_periods).tolist(),
                             np.tile(periods, panel.n).tolist(),
                             panel.y.ravel().tolist()))


# ids that csv.writer quotes, leaves empty, or spells with a NUL or non-ASCII
_NAMES = ["", "a,b", 'say "hi"', "x\ry", "x\ny", "a b", "é", "日本", "a\0b", "z\0"]


def _ids(kind: str, n: int) -> np.ndarray | None:
    """``n`` distinct ids of one dtype, its edge cases first; for ``rows``
    none, so the panel's ids are its row numbers."""
    if kind == "rows":
        return None
    if kind == "int64":
        return np.array([-2**63, 2**63 - 1, 0, -7, *range(1, n)], dtype=np.int64)[:n]
    if kind == "uint64":
        return np.array([2**64 - 1, 0, 2**63, *range(1, n)], dtype=np.uint64)[:n]
    if kind == "str":
        return np.array([*_NAMES, *(f"id{k}" for k in range(n))])[:n]
    if kind == "bytes":
        return np.array([b"", b"a,b", b"\0z", b"\xff", *(b"%d" % k for k in range(n))])[:n]
    # a name ending in a NUL, which only an object array holds
    return np.array([None, "z\0", 2.5, "a,b", b"x", True, -3, *range(10, 10 + n)],
                    dtype=object)[:n]


def _assert_writes_as_reference(panel: PanelData, tmp_path) -> None:
    write_panel_csv(panel, tmp_path / "got.csv")
    _reference_write(panel, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    back = read_panel_csv(tmp_path / "got.csv")
    assert back.t0 == panel.t0 and np.array_equal(back.y, panel.y)
    if panel.ids is None:
        assert back.ids is None
    elif panel.ids.dtype.kind in "iU":    # the ids that read back as they are
        assert back.ids.dtype.kind == panel.ids.dtype.kind
        assert back.ids.tolist() == panel.ids.tolist()
    elif panel.ids.dtype.kind == "O":     # as text, as csv.writer spells them
        names = ["" if name is None else str(name) for name in panel.ids.tolist()]
        assert back.ids.dtype.kind == ("O" if "z\0" in names else "U")
        assert back.ids.tolist() == names


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
@pytest.mark.parametrize("kind", ["int64", "uint64", "str", "bytes", "object", "rows"])
def test_write_matches_a_record_by_record_writer(tmp_path, kind, n):
    y = np.random.default_rng(n).integers(0, 2, (n, 5))
    _assert_writes_as_reference(PanelData(y=y, ids=_ids(kind, n), t0=2), tmp_path)


@pytest.mark.parametrize("n_periods", [1, 12])
@pytest.mark.parametrize("t0", [-3, 0, 1, 99])
@pytest.mark.parametrize("kind", ["int64", "str"])
def test_write_matches_the_reference_at_any_periods(tmp_path, kind, t0, n_periods):
    # period labels change width across 9 -> 10 and -1 -> 0
    n = ROW_BLOCK + 1
    y = np.random.default_rng([t0 + 3, n_periods]).integers(0, 2, (n, n_periods))
    _assert_writes_as_reference(PanelData(y=y, ids=_ids(kind, n), t0=t0), tmp_path)


_INT64, _UINT64 = np.iinfo(np.int64), np.iinfo(np.uint64)


# integer ids are spelled by digit arithmetic, right-aligned in whole words
@pytest.mark.parametrize("ids", [
    np.arange(95, 95 + ROW_BLOCK),
    np.arange(10**7 - 5, 10**7 - 5 + ROW_BLOCK + 3),
    np.array([_INT64.min, _INT64.max, -1, 0, 1], dtype=np.int64),
    np.array([_UINT64.max, 0, 10**19, 10**19 - 1], dtype=np.uint64),
    -np.arange(1, ROW_BLOCK + 1),
    np.arange(-10**7 - 3, -10**7 + 3),
    np.array([-128, 127, 0, -1], dtype=np.int8),
], ids=["99-to-100", "8-digits-in-a-block", "int64-extremes", "uint64-max",
        "all-negative", "sign-into-a-second-word", "int8"])
def test_write_spells_integer_ids_as_the_reference(tmp_path, ids):
    y = np.random.default_rng(len(ids)).integers(0, 2, (len(ids), 3))
    _assert_writes_as_reference(PanelData(y=y, ids=ids), tmp_path)


class _Unspellable:
    def __str__(self):
        raise RuntimeError("no spelling")


@pytest.mark.parametrize("bad", ["\udc80", "a,\udc80\udc81", _Unspellable()],
                         ids=["surrogate", "quoted-surrogates", "str-raises"])
def test_write_fails_where_the_reference_fails(tmp_path, bad):
    # the error of the record-by-record writer, with no file left: the
    # records before the failing id would read as a smaller panel
    ids = np.array([f"id{k}" for k in range(ROW_BLOCK + 5)], dtype=object)
    ids[ROW_BLOCK + 2] = bad
    panel = PanelData(y=np.zeros((len(ids), 3)), ids=ids)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    with pytest.raises(Exception) as expected:
        _reference_write(panel, want)
    with pytest.raises(type(expected.value)) as raised:
        write_panel_csv(panel, got)
    assert str(raised.value) == str(expected.value)
    assert not got.exists()


@pytest.mark.parametrize("ids, name", [
    (np.array([3, 7, 5, 7], dtype=np.int64), "7"),
    (np.array(["a", "b", "a"]), "a"),
    (np.array([f"id{k}" for k in range(ROW_BLOCK)] + ["id3"]), "id3"),
    (np.array(["7", 7], dtype=object), "7"),
], ids=["int64", "str", "str-in-a-later-block", "mixed-object"])
def test_write_refuses_ids_that_spell_one_id_twice(tmp_path, ids, name):
    # the reader refused the file written: "duplicate (id=7, t=1)".  Integer
    # ids are refused before the file is opened; other ids at the repeat,
    # which removes the file: its records before the repeat would read as
    # a smaller panel
    panel = PanelData(y=np.zeros((len(ids), 2)), ids=ids)
    path = tmp_path / "panel.csv"
    with pytest.raises(ValueError, match=f"^duplicate id {name}$"):
        write_panel_csv(panel, path)
    assert not path.exists()


def test_a_failed_write_through_a_link_removes_the_file_it_opened(tmp_path):
    # a link such as /dev/stdout names the file written, not the file to remove
    target, link = tmp_path / "panel.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    with pytest.raises(ValueError, match="^duplicate id a$"):
        write_panel_csv(PanelData(np.zeros((3, 4)), ids=np.array(["a", "b", "a"])), link)
    assert link.is_symlink() and not target.exists()


def test_write_raises_the_open_error(tmp_path):
    missing = tmp_path / "no-such-dir" / "panel.csv"
    for write in (write_panel_csv, _reference_write):
        with pytest.raises(FileNotFoundError, match="No such file or directory.*no-such-dir"):
            write(_small_panel(), missing)


def test_write_traces_only_a_block(tmp_path):
    # the records are assembled ROW_BLOCK individuals at a time, never as a
    # whole panel's bytes or Python rows, and the simulated panel's ids are
    # its row numbers, spelled a block at a time: its 1.6 MB of int64 row
    # numbers built whole would overrun the bound
    spec = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1))
    panel = simulate_panel(spec, DgpConfig(n_individuals=200_000, n_periods=5,
                                           sigma_eta_sq=0.5, seed=2))
    tracemalloc.start()
    try:
        write_panel_csv(panel, tmp_path / "panel.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("t0, n_periods", [(1990, 30), (-5, 300)])
def test_read_wide_and_many_periods(tmp_path, t0, n_periods):
    # four-byte periods are coded by comparing spellings, not by a table; a
    # panel with more than 255 period spellings is read record by record
    y = np.random.default_rng(n_periods).integers(0, 2, (4, n_periods))
    panel = PanelData(y=y, ids=np.array([5, 3, 9, 12]), t0=t0)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    back = read_panel_csv(path)
    assert back.t0 == t0 and np.array_equal(back.y, y) and back.ids.tolist() == [5, 3, 9, 12]
    clean = panel_module._read_clean(path, locale.getpreferredencoding(False))
    assert (clean is None) == (n_periods > 255)


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
    """The byte tokenizer's split of ``text`` is the one ``csv.reader`` makes:
    the header, then the first three fields of each non-blank record."""
    header, *records = csv.reader(io.StringIO(text, newline=""))
    records = [record for record in records if record]
    assert fast[0] == header
    assert all(len(record) >= 3 for record in records)
    for k, column in enumerate(fast[1]):
        assert [s.decode() for s in column.tolist()] == [record[k] for record in records], k


# block sizes that put every record, line end and multi-byte character
# across a seam, and the default
_BLOCKS = [1, 2, 3, 7, panel_module._BYTE_BLOCK]


def _split(data: bytes, block: int):
    """The per-block splitter's header and whole columns of ``data``, given
    in blocks of ``block`` bytes; None where it declines the text."""
    parts = list(panel_module._split_blocks(
        [data[k:k + block] for k in range(0, len(data), block)], "utf-8"))
    if not parts or parts[-1] is None:
        return None
    header, *blocks = parts
    return header, [np.concatenate([columns[k] for columns in blocks]) if blocks
                    else np.array([], "S1") for k in range(3)]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01a7-é ,\r\n", max_size=80), st.sampled_from(_BLOCKS))
def test_byte_tokenizer_matches_csv_reader(text, block):
    # the byte tokenizer declines every text that is not rectangular
    fast = _split(text.encode(), block)
    if fast is not None:
        _assert_same_split(text, fast)


# fields of at most two bytes
_FIELD = st.text(alphabet="01a7- ", max_size=2) | st.just("é")


@st.composite
def _column_fields(draw, records):
    """One column's fields: short ones, or ASCII ones of ``size - 1`` or
    ``size`` bytes, 3 <= size <= 12.  A column of width ``w`` then holds
    fields of at least ``w / 2`` bytes, so fixed-width columns stay within
    the size guard, and sizes 5-12 reach the 8-byte key width and beyond."""
    size = draw(st.sampled_from([2, 2, 3, 5, 8, 9, 12]))
    field = _FIELD if size == 2 else st.text(alphabet="01a7- ", min_size=size - 1,
                                              max_size=size)
    return draw(st.lists(field, min_size=records, max_size=records))


@st.composite
def _rectangular_texts(draw):
    width = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(1, 8))
    columns = [draw(_column_fields(n)) for _ in range(width)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(fields) for fields in zip(*columns))
    # unterminated, the last field ends the file: a wide one starts within its
    # width of the end
    return text + end if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(_rectangular_texts(), st.sampled_from(_BLOCKS))
def test_byte_tokenizer_reads_every_rectangular_text(text, block):
    # records split a few bytes at a time, across every block boundary
    fast = _split(text.encode(), block)
    assert fast is not None
    _assert_same_split(text, fast)


@pytest.mark.parametrize("text", [
    "id,t,y\r\n1,1\r,0\r\n\n",   # a lone \r in a record, a bare trailing \n
    "id,t,y\r\n1,1,0\n",           # a bare \n in a \r\n file
    "id,t,y\n1,1,0\r\n",           # a \r\n in a \n file
    "id,t,y\r\n1,1,0\r",           # a lone \r at the end
    "id,t,y\r\n1,1,0\r\n\r\r\n",   # a lone \r among trailing line ends
    "\r\nid,t,y\r\n1,1,0\r\n",     # a blank first record
])
def test_byte_tokenizer_declines_mixed_line_ends(text):
    for block in _BLOCKS:
        assert _split(text.encode(), block) is None, block


@pytest.mark.parametrize("ids", [np.array([10, 11, 12]), np.array(["b", "a 1", "é"])])
def test_written_panels_take_the_byte_tokenizer(tmp_path, monkeypatch, ids):
    panel = PanelData(y=_small_panel().y, ids=ids, t0=4)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    data = path.read_bytes()
    lf = data.replace(b"\r\n", b"\n")
    monkeypatch.setattr(panel_module, "_read_records", None)    # no fall-back
    # as written, with \n line ends, and with trailing blank records, in
    # blocks of any size
    for variant in (data, lf, data + b"\r\n", data + b"\r\n" * 3, lf + b"\n" * 3):
        path.write_bytes(variant)
        for block in _BLOCKS:
            monkeypatch.setattr(panel_module, "_BYTE_BLOCK", block)
            back = read_panel_csv(path)
            assert back.ids.tolist() == ids.tolist() and np.array_equal(back.y, panel.y)
    # a file without data is a fault, which only the record reader words
    monkeypatch.undo()
    path.write_bytes(b"id,t,y\n\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_panel_csv(path)


def _reference_read(path) -> PanelData:
    """The panel a record-by-record reader gives: ``csv.reader``, dicts and
    ``int()`` on periods in ASCII digits, one record at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["id", "t", "y"]:
            raise ValueError(f"{path}: expected header 'id,t,y'")
        seen = {}       # id spelling -> {period: outcome}, in first appearance
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{path}:{line}: expected 3 fields")
            name, t, y = row[:3]
            if not re.fullmatch(r"[+-]?[0-9]+", t):
                raise ValueError(f"{path}:{line}: non-integer period {t!r}")
            period = int(t)
            if y not in ("0", "1"):
                raise ValueError(f"{path}:{line}: outcome must be 0 or 1, got {y!r}")
            if period in seen.setdefault(name, {}):
                raise ValueError(f"{path}:{line}: duplicate (id={name}, t={period})")
            seen[name][period] = int(y)
    if not seen:
        raise ValueError(f"{path}: no data rows")
    names = list(seen)
    expected = sorted(seen[names[0]])
    if expected != list(range(expected[0], expected[-1] + 1)):
        raise ValueError(f"{path}: periods must be contiguous, got {expected}")
    for name in names:
        if sorted(seen[name]) != expected:
            raise ValueError(f"{path}: id {name} observed at {sorted(seen[name])}, "
                             f"expected {expected} (panel must be rectangular)")
    ids = np.array(names)
    if all(_canonical(name) and -2**63 <= int(name) < 2**63 for name in names):
        ids = np.array([int(name) for name in names], dtype=np.int64)
    y = np.array([[seen[name][t] for t in expected] for name in names], dtype=np.int8)
    return PanelData(y=y, ids=ids, t0=expected[0])


def _outcome(read, path):
    try:
        panel = read(path)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    ids = _row_ids(panel)
    return ids.tolist(), ids.dtype, panel.t0, panel.y.tolist()


@st.composite
def _panel_files(draw):
    """A small panel's records, id-grouped, period-major or shuffled, with
    records dropped, repeated, moved to another id or spoiled, and the
    file's bytes.  A gap before the last period leaves the cells filled but
    the periods not contiguous."""
    names = draw(st.lists(st.sampled_from(["7", "07", "-3", "a", "é", "0", "12", "b c"]),
                          min_size=1, max_size=4, unique=True))
    t0 = draw(st.integers(-2, 9))
    last = draw(st.integers(0, 2))
    periods = [*range(t0, t0 + last), t0 + last + draw(st.sampled_from([0, 0, 0, 2]))]
    records = [[name, str(t), draw(st.sampled_from("01"))] for name in names for t in periods]
    order = draw(st.sampled_from(["id", "period", "shuffled"]))
    if order == "period":
        records.sort(key=lambda record: int(record[1]))
    elif order == "shuffled":
        records = draw(st.permutations(records))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(records) - 1))
        fault = draw(st.sampled_from(["drop", "repeat", "move", "period", "outcome", "short",
                                      "id"]))
        if fault == "drop":
            del records[k]
        elif fault == "repeat":
            records.insert(draw(st.integers(0, len(records))), list(records[k]))
        elif fault == "move":     # a cell doubled and, unless the id had one, one missing
            records[k][0] = draw(st.sampled_from(names))
        elif fault == "period":
            records[k][1:2] = [draw(st.sampled_from(["x", "", "01", " 2", str(t0 + 5)]))]
        elif fault == "outcome":
            records[k][2:3] = [draw(st.sampled_from(["2", "", " 1", "01"]))]
        elif fault == "short":
            records[k] = records[k][:2]
        else:
            records[k][0] = draw(st.sampled_from(["07", "+7", "a"]))
        if not records:
            break
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(record) for record in [["id", "t", "y"], *records])
    return (text + end * draw(st.integers(0, 2))).encode()


@settings(max_examples=300, deadline=None)
@given(_panel_files())
def test_read_matches_a_record_by_record_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("reference") / "panel.csv"
    path.write_bytes(data)
    assert _outcome(read_panel_csv, path) == _outcome(_reference_read, path)


def _one_period_panel(text: str) -> bytes:
    """The records of ``text`` as period 1 of a panel, behind an ``id,t,y``
    header as wide as they are: their first fields are the ids."""
    end = "\r\n" if "\r" in text else "\n"
    records = [line.split(",") for line in text.split(end)]
    lines = [["id", "t", "y", *["x"] * (len(records[0]) - 3)]]
    for k, record in enumerate(records):    # a trailing blank record stays blank
        lines.append([record[0], "1", str(k % 2), *record[3:]] if record != [""] else record)
    return end.join(",".join(line) for line in lines).encode()


@settings(max_examples=300, deadline=None)
@given(_panel_files() | _rectangular_texts().map(_one_period_panel), st.sampled_from(_BLOCKS))
def test_clean_read_is_none_or_the_record_read(tmp_path_factory, data, block):
    # the streamed pass never decides a file differently from the reader
    # that defines a fault: it declines it, or reads the same panel, wherever
    # the blocks cut its records, line ends and multi-byte ids
    path = tmp_path_factory.mktemp("fork") / "panel.csv"
    path.write_bytes(data)
    encoding = locale.getpreferredencoding(False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(panel_module, "_BYTE_BLOCK", block)
        clean = panel_module._read_clean(path, encoding)
    if clean is not None:
        assert _outcome(lambda _: clean, path) == _outcome(
            lambda p: panel_module._read_records(p, encoding), path)


def _canonical(spelling: str) -> bool:
    try:
        return str(int(spelling)) == spelling
    except ValueError:
        return False


# each value is scaled by 10**(18 - length) and divided back: 10**18 fits
@example(["999999999999999999", "1", "-7", "0"])
@example(["-99999999999999999", "100000000000000000"])
@example(["-0"])
@example(["007"])
@example(["-01"])
@example(["1\x002"])
@example(["\x001"])
@example(["+1"])
@example(["5", ""])
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


def test_read_traces_under_24_bytes_per_line(tmp_path):
    # the csv-estimate shape, 1e6 lines grouped by id: the read keeps one
    # period code and one outcome byte per record and one id run head per
    # individual, next to the panel it returns; a block's temporaries are
    # bounded by _BYTE_BLOCK and do not grow with the file
    spec = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1))
    panel = simulate_panel(spec, DgpConfig(n_individuals=200_000, n_periods=5,
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
    assert np.array_equal(back.y, panel.y) and back.ids is panel.ids is None
    assert peak / lines <= 24.0, peak / lines
