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
            counts = counts.astype(np.int64, copy=False)
        object.__setattr__(self, "counts", counts)
        # aggregation sums counts in float64, which is exact only below 2**53
        n = int(counts.sum())
        if n >= 2**53:
            raise ValueError(f"panel of {n} individuals exceeds the exact range 2**53")
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


def write_panel_csv(panel: PanelData, path) -> None:
    """Write the panel in long format with header ``id,t,y``.

    The format has one row per individual, so a panel whose rows stand for
    several individuals is refused.
    """
    if (panel.counts != 1).any():
        raise ValueError("CSV holds one row per individual; "
                         "this panel's rows carry frequency counts")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "y"])
        for i in range(panel.n_rows):
            ident = panel.ids[i]
            row = panel.y[i]
            for k in range(panel.n_periods):
                writer.writerow([ident, panel.t0 + k, int(row[k])])


@dataclass(frozen=True)
class _Records:
    """The non-blank data records of a panel CSV, in file order.

    ``ids``, ``ts`` and ``ys`` spell each record's first three fields: as
    fixed-width bytes from the byte tokenizer, as ``str`` objects from
    ``csv.reader``.  ``lineno`` numbers the records as the file does (the
    header is 1, blank records count); ``short`` marks records with fewer
    than three fields, whose missing fields spell ``""``.  ``error`` is what
    ``csv.reader`` raised at the record after the last one.
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

    Quote-free text takes the byte tokenizer; a file with a ``"`` (quoting)
    or NUL byte (which fixed-width byte strings cannot hold) takes
    ``csv.reader``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    encoding = locale.getpreferredencoding(False)   # what open() decodes with
    if not data.isascii():
        data.decode(encoding)   # raises the UnicodeDecodeError a text read raises
    if b'"' not in data and b"\0" not in data:
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
    """The header and data records of quote-free text, split as ``csv.reader``
    splits them but in whole-array passes over the bytes.

    Returns None when one field is so long that fixed-width columns would
    take more than twice the file's bytes; ``_split_text`` then reads it.
    """
    buf = np.frombuffer(data, np.uint8)
    # positions reach len(buf) + 1
    index = np.int32 if len(buf) < 2**31 - 2 else np.int64
    starts, ends = _record_bounds(data, buf, index)
    if len(starts) == 0:
        return None, None
    header = next(csv.reader([data[starts[0]:ends[0]].decode(encoding)]), None)
    starts, ends = starts[1:], ends[1:]

    # csv.reader refuses a field longer than its limit when it reaches it
    error = None
    limit = csv.field_size_limit()
    for r in np.flatnonzero(ends - starts > limit):
        fields = data[starts[r]:ends[r]].split(b",")
        if any(len(field.decode(encoding)) > limit for field in fields):
            error = csv.Error(f"field larger than field limit ({limit})")
            starts, ends = starts[:r], ends[:r]
            break

    kept = np.flatnonzero(ends > starts)    # csv.reader yields [] for a blank record
    lineno = (kept + 2).astype(index)
    starts, ends = starts[kept], ends[kept]
    del kept
    commas = np.flatnonzero(buf == ord(",")).astype(index)
    first = np.searchsorted(commas, starts)
    # no comma lies between one record's end and the next one's start
    short = np.diff(first, append=np.searchsorted(commas, ends[-1:])) < 2
    # len(buf) stands in for the commas past the last one, which short records index
    after = np.concatenate([commas, np.full(3, len(buf), index)])
    del commas
    bounds = [(starts, np.minimum(after[first], ends)),
              (after[first] + 1, np.minimum(after[first + 1], ends)),
              (after[first + 1] + 1, np.minimum(after[first + 2], ends))]
    del after, first, starts, ends
    widths = [_key_width(int((stop - start).max(initial=0))) for start, stop in bounds]
    if sum(widths) * len(short) > 2 * len(buf):
        return None
    # one column at a time, dropping each one's bounds once it is built
    columns = [_fixed_width(buf, *bounds.pop(0), width) for width in widths]
    return header, _Records(*columns, lineno, short, encoding, error)


def _record_bounds(data: bytes, buf: np.ndarray, index) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each record's content, the header included.

    A record ends at ``\\r\\n``, ``\\r`` or ``\\n``, where ``csv.reader``
    (reading a file opened with ``newline=""``) ends it.
    """
    n = len(buf)
    n_cr, n_lf = data.count(b"\r"), data.count(b"\n")
    ends = np.flatnonzero(buf == (ord("\r") if n_cr else ord("\n"))).astype(index)
    after = ends + 1
    if n_cr and n_lf:
        # a \n right after a \r ends the same record; any other \n ends one
        paired = buf[np.minimum(after, n - 1)] == ord("\n")
        if np.count_nonzero(paired) != n_lf:
            lone = np.flatnonzero(buf == ord("\n"))
            lone = lone[(lone == 0) | (buf[lone - 1] != ord("\r"))].astype(index)
            ends = np.sort(np.concatenate([ends, lone]))
            after = ends + 1
            paired = (buf[ends] == ord("\r")) & (buf[np.minimum(after, n - 1)] == ord("\n"))
        after += paired
    starts = np.concatenate([np.zeros(1, index), after])
    ends = np.concatenate([ends, np.full(1, n, index)])
    if starts[-1] == n:    # the file ends with a terminator: no last record
        starts, ends = starts[:-1], ends[:-1]
    return starts, ends


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
