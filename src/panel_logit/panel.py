"""Balanced binary panel container and its CSV interface.

The on-disk format is one row per (individual, period) with header
``id,t,y`` and ``y`` in {0, 1}.  Periods are labelled, not positional:
``t0`` names the first stored column so that a panel whose early periods
were discarded keeps its original period labels.

The file is read as ``csv.reader`` reads it.  Records end at ``\\r\\n``,
``\\r`` or ``\\n``; blank records are skipped, but they count in the line
numbers that errors give; fields past the third are ignored; a field may be
quoted, and the writer quotes ids that hold a comma, a quote or a line break.
Ids read back as int64 when every id spells its integer as ``str(int(s))``
does (within int64), and as strings otherwise, so ``07`` and ``7`` stay two
individuals.

A panel row may stand for several individuals with the same outcome
history: ``counts`` holds one integer frequency per row.  A panel read from
CSV or simulated per individual has unit counts, so every estimator runs
the same frequency-weighted code on both kinds of panel.
"""

from __future__ import annotations

import csv
import io
import locale
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PanelData:
    """Rows of binary outcomes with row ids and frequency counts.

    ``y[i, k]`` is the outcome at period ``t0 + k`` of the ``counts[i]``
    individuals that row ``ids[i]`` stands for.  ``y`` is int8 and stored
    period-major (Fortran order): each period's column is one contiguous
    run of bytes, which is what aggregation reads, and dropping leading
    periods is a view.  Inputs in another layout are copied once.
    ``counts`` defaults to one individual per row, held as a read-only
    broadcast view that takes no memory.
    """

    y: np.ndarray
    ids: np.ndarray
    t0: int = 1
    counts: np.ndarray | None = None
    n: int = field(init=False)

    def __post_init__(self):
        y = np.asarray(self.y)
        object.__setattr__(self, "ids", np.asarray(self.ids))
        if y.ndim != 2:
            raise ValueError("y must be a 2-d array")
        if len(self.ids) != y.shape[0]:
            raise ValueError("ids length must match the number of rows")
        # check before the cast, which would wrap 256 to 0 and truncate 0.7;
        # NaN and strings compare unequal to both, so they are refused too
        if y.size and not ((y == 0) | (y == 1)).all():
            raise ValueError("panel outcomes must be 0 or 1")
        y = np.asfortranarray(y, dtype=np.int8)
        object.__setattr__(self, "y", y)
        if self.counts is None:
            counts = np.broadcast_to(np.int64(1), y.shape[:1])
        else:
            counts = np.asarray(self.counts)
            if counts.shape != y.shape[:1] or counts.dtype.kind not in "iu":
                raise ValueError("counts must be one integer per row")
            if counts.size and counts.min() < 0:
                raise ValueError("counts must be nonnegative")
        # aggregation sums counts in float64, which is exact only below 2**53;
        # a float64 total only rounds, where the int64 cast and sum wrap past
        # 2**63, so it refuses those totals before either runs
        total = counts.sum(dtype=np.float64)
        if total < 2**62:
            counts = counts.astype(np.int64, copy=False)
            total = counts.sum()
        n = int(total)
        if n >= 2**53:
            raise ValueError(f"panel of {n} individuals exceeds the exact range 2**53")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def t_last(self) -> int:
        return self.t0 + self.n_periods - 1

    def has_period(self, t: int) -> bool:
        return self.t0 <= t <= self.t_last

    def col(self, t: int) -> np.ndarray:
        """Outcome column for period label ``t``."""
        if not self.has_period(t):
            raise ValueError(f"period {t} outside stored range {self.t0}..{self.t_last}")
        return self.y[:, t - self.t0]

    def drop_prefix(self, k: int) -> "PanelData":
        """Discard the first ``k`` periods, keeping period labels.

        The new panel's ``y`` is a view of this one's: no outcome is copied.
        """
        if not 0 <= k < self.n_periods:
            raise ValueError(f"cannot drop {k} of {self.n_periods} periods")
        if k == 0:
            return self
        return PanelData(y=self.y[:, k:], ids=self.ids, t0=self.t0 + k,
                         counts=self.counts)


_WRITE_BLOCK = 4096


def write_panel_csv(panel: PanelData, path) -> None:
    """Write the panel in long format with header ``id,t,y``.

    The format has one row per individual, so a panel whose rows stand for
    several individuals is refused.
    """
    if (panel.counts != 1).any():
        raise ValueError("CSV holds one row per individual; "
                         "this panel's rows carry frequency counts")
    periods = np.arange(panel.t0, panel.t_last + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "y"])
        # a block of individuals at a time keeps the Python rows bounded
        for start in range(0, panel.n_rows, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            ids = panel.ids[block]
            writer.writerows(zip(np.repeat(ids, panel.n_periods).tolist(),
                                 np.tile(periods, len(ids)).tolist(),
                                 panel.y[block].ravel().tolist()))


@dataclass(frozen=True)
class _Records:
    """The non-blank data records of a panel CSV, in file order.

    ``ids``, ``ts`` and ``ys`` spell each record's first three fields: as
    fixed-width bytes from the byte tokenizer, as ``str`` objects from
    ``csv.reader``.  ``lineno`` numbers the records as the file does (the
    header is 1, blank records count); ``short`` marks records with fewer
    than three fields, whose missing fields spell ``""``.  ``error`` is what
    ``csv.reader`` raised at the record after the last one.  Blank and short
    records and errors come only from ``csv.reader``: the byte tokenizer
    reads only files that have none.
    """

    ids: np.ndarray
    ts: np.ndarray
    ys: np.ndarray
    lineno: np.ndarray
    short: np.ndarray
    encoding: str
    error: csv.Error | None = None

    def text(self, spelling) -> str:
        return spelling.decode(self.encoding) if isinstance(spelling, bytes) else spelling


def read_panel_csv(path) -> PanelData:
    """Read a long-format panel, validating rectangularity.

    Every individual must be observed at exactly the same contiguous set of
    periods; outcomes must be 0/1.  A fault is reported at the first record
    that has one, as a record-by-record reader would meet it.
    """
    header, records = _tokenize(path)
    if header is None or [h.strip() for h in header[:3]] != ["id", "t", "y"]:
        raise ValueError(f"{path}: expected header 'id,t,y'")
    return _validate(path, records)


def _tokenize(path):
    """The file's header fields and data records.

    A rectangular file takes the byte tokenizer; every other file, quoted,
    ragged or with blank records among them, takes ``csv.reader``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    encoding = locale.getpreferredencoding(False)   # what open() decodes with
    if not data.isascii():
        data.decode(encoding)   # raises the UnicodeDecodeError a text read raises
    split = _split_bytes(data, encoding)
    if split is not None:
        return split
    return _split_text(data.decode(encoding), encoding)


def _split_text(text: str, encoding: str):
    """The header and data records as ``csv.reader`` splits them.

    This is the only tokenizer that handles quoting; every record is a list
    of ``str``, so its columns are ``str`` objects.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        return None, None
    rows, lineno, error = [], [], None
    try:
        for line, row in enumerate(reader, start=2):
            if row:
                rows.append(row)
                lineno.append(line)
    except csv.Error as exc:
        error = exc
    ids, ts, ys = (np.array([row[k] if k < len(row) else "" for row in rows], dtype=object)
                   for k in range(3))
    short = np.array([len(row) < 3 for row in rows], dtype=bool)
    return header, _Records(ids, ts, ys, np.array(lineno, dtype=np.int64), short,
                            encoding, error)


def _split_bytes(data: bytes, encoding: str):
    """The header and data records of a rectangular file, split in
    whole-array passes over its bytes; None for any other file.

    A file is rectangular when it holds no ``"`` or NUL, every record ends
    with one terminator (``\\r\\n`` when the file holds a ``\\r``,
    ``\\n`` otherwise; the last may lack it), no record is blank or longer
    than ``csv.field_size_limit()`` bytes, and every record has the header's
    number of fields, at least three.  ``csv.reader`` splits such a file at
    its terminators and commas alone, and ``_split_text`` reads every other
    file.  None also when one field is so long that fixed-width columns
    would take more than twice the file's bytes.
    """
    n_cr = data.count(b"\r")
    if b'"' in data or b"\0" in data or (
            n_cr and not n_cr == data.count(b"\n") == data.count(b"\r\n")):
        return None
    buf = np.frombuffer(data, np.uint8)
    # positions reach len(buf) + 1
    index = np.int32 if len(buf) < 2**31 - 2 else np.int64
    newlines = np.flatnonzero(buf == ord("\n")).astype(index)
    if not data.endswith(b"\n"):    # the last record has no terminator
        newlines = np.append(newlines, index(len(buf) + bool(n_cr)))
    ends = newlines - bool(n_cr)
    starts = np.concatenate([np.zeros(1, index), newlines[:-1] + 1])
    del newlines
    length = ends - starts
    if length.min() == 0 or length.max() > csv.field_size_limit():
        return None
    del length
    commas = np.flatnonzero(buf == ord(",")).astype(index)
    width = data.count(b",", 0, int(ends[0])) + 1
    if width < 3 or len(commas) != len(starts) * (width - 1):
        return None
    # row k holds record k's commas exactly when each row starts and ends
    # inside its record, since both are in file order
    commas = commas.reshape(len(starts), width - 1)
    if (commas[:, 0] < starts).any() or (commas[:, -1] > ends).any():
        return None
    header = data[:ends[0]].decode(encoding).split(",")
    starts, ends, commas = starts[1:], ends[1:], commas[1:]
    bounds = [(starts, commas[:, 0]), (commas[:, 0] + 1, commas[:, 1]),
              (commas[:, 1] + 1, commas[:, 2] if width > 3 else ends)]
    del starts, ends, commas
    widths = [_key_width(int((stop - start).max(initial=0))) for start, stop in bounds]
    n = len(bounds[0][0])
    if sum(widths) * n > 2 * len(buf):
        return None
    # one column at a time, dropping each one's bounds once it is built
    columns = [_fixed_width(buf, *bounds.pop(0), width) for width in widths]
    return header, _Records(*columns, np.arange(2, n + 2, dtype=index),
                            np.zeros(n, bool), encoding)


def _key_width(width: int) -> int:
    """Column width: a key dtype's size when the spellings fit one."""
    return next((w for w in (1, 2, 4, 8) if w >= width), width)


def _fixed_width(buf: np.ndarray, start: np.ndarray, stop: np.ndarray,
                 width: int) -> np.ndarray:
    """``buf[start:stop]`` of every record as a column of ``S{width}`` byte
    strings (a record with ``stop <= start`` spells ``b""``)."""
    out = np.zeros((len(start), width), np.uint8)
    length = stop - start
    last = len(buf) - 1
    for j in range(int(length.max(initial=0))):
        out[:, j] = buf[np.minimum(start, last - j) + j] * (length > j)
    return out.view(f"S{width}").ravel()


def _keys(column: np.ndarray) -> np.ndarray:
    """Values that compare like the spellings: byte strings of a key width as
    big-endian unsigned integers (so sorted spellings stay sorted), other
    columns as they are."""
    if column.dtype.kind == "S" and column.itemsize in (1, 2, 4, 8):
        return column.view(f">u{column.itemsize}")
    return column


def _first_appearance(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each record's code, the codes ranked by first appearance, and the
    distinct spellings in that order."""
    _, first, inverse = np.unique(_keys(column), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], column[first[order]]


def _spelled(column: np.ndarray, text: str) -> np.ndarray:
    """Which records spell ``text`` exactly."""
    return _keys(column) == _keys(np.array([text], dtype=column.dtype))[0]


def _validate(path, rec: _Records) -> PanelData:
    """The panel the records spell, or the error a record-by-record read
    meets first: fields, period, outcome and duplicate on each record, then
    missing data, contiguity and rectangularity over the whole file."""
    t_rank, periods = _period_ranks(rec)
    bad_t = (t_rank < 0) & ~rec.short
    one = _spelled(rec.ys, "1")
    bad_y = ~(one | _spelled(rec.ys, "0")) & ~rec.short
    id_code, labels = _first_appearance(rec.ids)
    n = len(id_code)
    cells = id_code * len(periods) + t_rank
    faulty = rec.short | bad_t | bad_y
    # the common case: no faulty record, and every (id, period) cell once
    clean = (rec.error is None and not faulty.any()
             and len(labels) * len(periods) == n
             and (n == 0 or np.bincount(cells).max() == 1))
    if not clean:
        # a duplicate is a record whose cell an earlier record already has
        has_cell = np.flatnonzero(~(rec.short | bad_t))
        order = has_cell[np.argsort(cells[has_cell], kind="stable")]
        repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
        at = min(int(np.argmax(faulty)) if faulty.any() else n, int(repeats.min(initial=n)))
        if at < n:
            where = f"{path}:{rec.lineno[at]}"
            if rec.short[at]:
                raise ValueError(f"{where}: expected 3 fields")
            if bad_t[at]:
                raise ValueError(f"{where}: non-integer period {rec.text(rec.ts[at])!r}")
            if bad_y[at]:
                raise ValueError(f"{where}: outcome must be 0 or 1, "
                                 f"got {rec.text(rec.ys[at])!r}")
            raise ValueError(f"{where}: duplicate (id={rec.text(rec.ids[at])}, "
                             f"t={periods[t_rank[at]]})")
        if rec.error is not None:
            raise rec.error
    if n == 0:
        raise ValueError(f"{path}: no data rows")

    # the first id's periods set the panel's; every other id must match them
    own = np.unique(t_rank[id_code == 0])
    expected = [periods[k] for k in own]
    if expected != list(range(expected[0], expected[-1] + 1)):
        raise ValueError(f"{path}: periods must be contiguous, got {expected}")
    if not clean:
        inside = np.zeros(len(periods), bool)
        inside[own] = True
        seen = np.bincount(id_code, minlength=len(labels))
        matched = np.bincount(id_code, weights=inside[t_rank], minlength=len(labels))
        wrong = (seen != len(own)) | (matched != seen)
        if wrong.any():
            k = int(np.argmax(wrong))
            observed = sorted(periods[r] for r in t_rank[id_code == k])
            raise ValueError(f"{path}: id {rec.text(labels[k])} observed at {observed}, "
                             f"expected {expected} (panel must be rectangular)")

    # every id now has every period of ``periods`` once, and they are contiguous
    y = np.empty((len(labels), len(periods)), dtype=np.int8, order="F")
    y[id_code, t_rank] = one
    return PanelData(y=y, ids=_id_array(labels, rec), t0=periods[0])


def _period_ranks(rec: _Records) -> tuple[np.ndarray, list[int]]:
    """Each record's period as its rank among the distinct periods (-1 for a
    spelling ``int()`` refuses), and those periods in ascending order.

    ``int()`` runs once per distinct spelling, so its rules hold exactly.
    """
    _, first, inverse = np.unique(_keys(rec.ts), return_index=True, return_inverse=True)
    values = []
    for spelling in rec.ts[first]:
        try:
            values.append(int(rec.text(spelling)))
        except ValueError:
            values.append(None)
    periods = sorted({v for v in values if v is not None})
    rank = {v: k for k, v in enumerate(periods)}
    return np.array([rank.get(v, -1) for v in values], dtype=np.int64)[inverse], periods


def _id_array(labels: np.ndarray, rec: _Records) -> np.ndarray:
    """The labels as int64 when each spells its integer as ``str(int)`` does,
    otherwise as text, so that distinct labels stay distinct."""
    if labels.dtype.kind == "S" and labels.itemsize <= 18:
        ints = _canonical_ints(labels)
        if ints is not None:
            return ints
        return np.array([rec.text(label) for label in labels.tolist()])
    names = [rec.text(label) for label in labels.tolist()]
    try:
        ints = [int(name) for name in names]
    except ValueError:
        return np.array(names)
    if all(str(i) == name and -2**63 <= i < 2**63 for i, name in zip(ints, names)):
        return np.array(ints, dtype=np.int64)
    return np.array(names)


def _canonical_ints(labels: np.ndarray) -> np.ndarray | None:
    """The integers that NUL-free byte strings of at most 18 bytes spell, or
    None unless every one is ``0`` or matches ``-?[1-9][0-9]*``."""
    chars = labels.view(np.uint8).reshape(len(labels), labels.itemsize)
    length = np.count_nonzero(chars, axis=1)
    negative = chars[:, 0] == ord("-")
    ok = length > negative
    value = np.zeros(len(labels), np.int64)
    for j in range(labels.itemsize):
        c = chars[:, j]
        digit = (j >= negative) & (j < length)
        ok &= ~digit | ((c >= ord("0")) & (c <= ord("9")))
        # a leading zero only in "0" itself
        ok &= (j != negative) | (c != ord("0")) | (length == 1)
        value = np.where(digit, value * 10 + (c - ord("0")), value)
    if not ok.all():
        return None
    return np.where(negative, -value, value)
