"""Balanced binary panel container and its CSV interface.

The on-disk format is one row per (individual, period) with header
``id,t,y``, ``t`` an integer in ASCII digits and ``y`` in {0, 1}.  Periods
are labelled, not positional: ``t0`` names the first stored column so that
a panel whose early periods were discarded keeps its original period labels.

The writer spells each id once and writes the records of ``ROW_BLOCK``
individuals in one whole-array pass, with ``\\r\\n`` line ends; its bytes
are those ``csv.writer`` writes record by record.  The file is read as
``csv.reader`` reads it.  Records end at ``\\r\\n``, ``\\r`` or ``\\n``;
blank records are skipped, but they count in the line numbers that errors
give; fields past the third are ignored; a field may be quoted, and the
writer quotes ids that hold a comma, a quote or a line break.
Ids read back as int64 when every id spells its integer as ``str(int(s))``
does (within int64), and as strings otherwise, so ``07`` and ``7`` stay two
individuals.

Two readers give one result.  ``_read_records`` reads the file with
``csv.reader`` one record at a time and is the one definition of a fault:
it raises the first in file order.  A clean file (no quote or NUL, one line
end throughout, every record as wide as the header, and each (id, period)
cell filled by exactly one sound record) is read instead by ``_read_clean``
in whole-array passes over its bytes, which decline every other file
without locating its fault.  Such a file is read again by
``_read_records``, at about ten times the cost of a clean read.

A panel row may stand for several individuals with the same outcome
history: ``counts`` holds one integer frequency per row.  A panel read from
CSV or simulated per individual has unit counts, so every estimator runs
the same frequency-weighted code on both kinds of panel.
"""

from __future__ import annotations

import csv
import io
import locale
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

# rows per block where a whole-panel pass streams its rows (uint64 words of
# eight rows in aggregation): at 8 periods one block's float64 shocks are
# 512 KiB, which stays in a core's L2 cache
ROW_BLOCK = 8192
_BYTE_BLOCK = 1 << 16   # bytes per block where a pass reads a whole file


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
        if self.ids.ndim != 1:
            raise ValueError("ids must be a 1-d array")
        if len(self.ids) != y.shape[0]:
            raise ValueError("ids length must match the number of rows")
        if not _is_integer(self.t0):
            raise ValueError(f"t0 must be an integer, got {self.t0!r}")
        # check before the cast, which would wrap 256 to 0 and truncate 0.7;
        # NaN and strings compare unequal to both, so they are refused too.
        # int8 is 0/1 exactly when its bytes, read unsigned, are at most 1
        if y.dtype == np.int8:
            binary = y.view(np.uint8).max(initial=0) <= 1
        else:
            binary = ((y == 0) | (y == 1)).all()
        if not binary:
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


def write_panel_csv(panel: PanelData, path) -> None:
    """Write the panel in long format with header ``id,t,y``.

    The format has one row per individual, so a panel whose rows stand for
    several individuals is refused.  The bytes are those a ``csv.writer``
    on a text-mode ``open(path, "w", newline="")`` writes record by record,
    with ``\\r\\n`` line ends, and so is a failure: the records before an id
    that cannot be spelled or encoded are written, then its error raised.

    Each id is spelled once: an integer id as ``str(int)`` spells it, any
    other as ``csv.writer`` spells an id field, quotes included.  A record's
    tail ``,t,y\\r\\n`` is one of two per period.  ``ROW_BLOCK`` individuals
    at a time, one gather lays each record's id and tail side by side in a
    byte matrix, padded to whole words, and a mask of their lengths
    compresses it to the block's bytes.
    """
    if (panel.counts != 1).any():
        raise ValueError("CSV holds one row per individual; "
                         "this panel's rows carry frequency counts")
    encoding = locale.getpreferredencoding(False)   # what a text-mode open() encodes with
    line = io.StringIO()
    writer = csv.writer(line)

    def spelled(*fields) -> str:
        line.seek(0)
        line.truncate()
        writer.writerow(fields)
        return line.getvalue()

    periods = np.arange(panel.t0, panel.t_last + 1).tolist()
    # tail 2k + y is the ",t,y\r\n" of period k and outcome y
    tails = _masked(np.array([spelled("", t, y).encode(encoding)
                              for t in periods for y in (0, 1)], dtype=bytes))
    first_tail = np.arange(0, 2 * len(periods), 2)
    with open(path, "wb") as fh:
        fh.write(spelled("id", "t", "y").encode(encoding))
        # a panel without periods has no record, so it spells no id
        for start in range(0, panel.n_rows if periods else 0, ROW_BLOCK):
            ids = panel.ids[start:start + ROW_BLOCK]
            tail = panel.y[start:start + ROW_BLOCK] + first_tail
            if ids.dtype.kind in "iu":
                fh.write(_records(_masked(ids.astype(bytes)), tail, tails))
                continue
            names = []
            try:
                # the id's own field of a three-field row: a lone empty
                # field would be quoted
                for label in ids.tolist():
                    names.append(spelled(label, "", "")[:-4].encode(encoding))
            finally:   # the records before an id that raised are written too
                lengths = np.array([len(name) for name in names], dtype=np.intp)
                fh.write(_records(_masked(np.array(names, dtype=bytes), lengths),
                                  tail[:len(names)], tails))


def _masked(spellings: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """``(2, k, w)`` uint64: in ``[0]`` each of the ``k`` strings of the
    ``S`` array ``spellings``, its first ``lengths`` bytes zero-padded to
    ``w`` whole words, in ``[1]`` a 1 byte for each of those bytes.
    ``lengths`` defaults to each string's nonzero bytes: its length when,
    like an integer's spelling, it holds no NUL."""
    chars = spellings.view(np.uint8).reshape(len(spellings), spellings.itemsize)
    if lengths is None:
        lengths = np.count_nonzero(chars, axis=1)
    width = 8 * -(-int(lengths.max(initial=0)) // 8)
    out = np.zeros((2, len(lengths), width), np.uint8)
    out[0, :, :chars.shape[1]] = chars[:, :width]
    out[1] = np.arange(width) < lengths[:, None]
    return out.view(np.uint64)


def _records(names: np.ndarray, tail: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The bytes of records ``names[:, i]`` + ``tails[:, tail[i, k]]``, for
    each individual ``i`` and period ``k`` in turn."""
    m, n_periods = tail.shape
    width = names.shape[2]
    both = np.empty((2, m, n_periods, width + tails.shape[2]), np.uint64)
    both[..., :width] = names[:, :, None]
    both[..., width:] = tails.take(tail, axis=1)
    return both[0].view(np.uint8)[both[1].view(bool)]


def read_panel_csv(path) -> PanelData:
    """Read a long-format panel, validating rectangularity.

    Every individual must be observed at exactly the same contiguous set of
    periods; outcomes must be 0/1.  A clean file, one that ``_split_bytes``
    splits and whose sound records each fill their own cell of the panel,
    is read in whole-array passes.  Any other file is read again, record by
    record, by ``_read_records``, the one definition of a fault: it raises
    the first fault in file order.  That fallback runs Python code per
    record, at about ten times the cost of the whole-array read (1.1-1.6 s
    against 0.11-0.13 s for a 1e6-line file on 2 cores).
    """
    encoding = locale.getpreferredencoding(False)   # what a text-mode open() decodes with
    return _read_clean(path, encoding) or _read_records(path, encoding)


def _read_records(path, encoding: str) -> PanelData:
    """The panel as ``csv.reader`` gives it one record at a time, or the
    first fault: on each record its fields, then period, outcome and
    duplicate; then over the whole file no data, contiguity and
    rectangularity.  Blank records are skipped but keep their line number.
    """
    with open(path, newline="", encoding=encoding) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["id", "t", "y"]:
            raise ValueError(f"{path}: expected header 'id,t,y'")
        seen: dict[str, dict[int, int]] = {}    # id -> {period: outcome}, in first appearance
        read: dict[str, int] = {}   # period spelling -> period: each is read once
        for line, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) < 3:
                raise ValueError(f"{path}:{line}: expected 3 fields")
            name, t, y = record[:3]
            period = read.get(t)
            if period is None:
                try:
                    period = read[t] = _ascii_int(t)
                except ValueError:
                    raise ValueError(f"{path}:{line}: non-integer period {t!r}") from None
            if y not in ("0", "1"):
                raise ValueError(f"{path}:{line}: outcome must be 0 or 1, got {y!r}")
            outcomes = seen.setdefault(name, {})
            if period in outcomes:
                raise ValueError(f"{path}:{line}: duplicate (id={name}, t={period})")
            outcomes[period] = int(y)
    if not seen:
        raise ValueError(f"{path}: no data rows")
    # the first id's periods set the panel's; every other id must match them
    expected = sorted(next(iter(seen.values())))
    if expected[-1] - expected[0] + 1 != len(expected):
        raise ValueError(f"{path}: periods must be contiguous, got {expected}")
    for name, outcomes in seen.items():
        if outcomes.keys() != set(expected):
            raise ValueError(f"{path}: id {name} observed at {sorted(outcomes)}, "
                             f"expected {expected} (panel must be rectangular)")
    y = np.array([[outcomes[t] for t in expected] for outcomes in seen.values()], np.int8)
    return PanelData(y=np.asfortranarray(y), ids=_text_ids(list(seen)), t0=expected[0])


def _read_clean(path, encoding: str) -> PanelData | None:
    """The panel of a clean file, read in whole-array passes; None for any
    other file, which ``_read_records`` reads.

    A file is clean when ``_split_bytes`` splits it, its header is
    ``id,t,y``, it holds a data record, every period is an integer in ASCII
    digits, the periods are contiguous, every outcome is 0 or 1, and the
    records fill each (id, period) cell once.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode(encoding)   # raises the UnicodeDecodeError a text read raises
    split = _split_bytes(data, encoding)
    del data    # the columns are copies: the checks run without the file's bytes
    if split is None:
        return None
    header, (ids, ts, ys) = split
    if [h.strip() for h in header[:3]] != ["id", "t", "y"] or not len(ids):
        return None
    ranked = _period_ranks(ts, encoding)
    if ranked is None:
        return None
    t_rank, periods = ranked
    one = _spelled(ys, "1")
    id_code, labels = _first_appearance(ids)
    if (periods[-1] - periods[0] + 1 != len(periods) or len(labels) * len(periods) != len(ids)
            or not (one | _spelled(ys, "0")).all()):
        return None
    # each record's (id, period) cell: its index in the period-major outcomes;
    # as many records as cells fill each once unless one cell has two
    y = np.full((len(labels), len(periods)), -1, np.int8, order="F")
    y.ravel(order="F")[t_rank * len(labels) + id_code] = one
    if y.min() < 0:
        return None
    return PanelData(y=y, ids=_id_array(labels, encoding), t0=periods[0])


def _split_bytes(data: bytes, encoding: str):
    """The header's fields and the id, t and y columns of a rectangular
    file, fixed-width byte strings split in whole-array passes over its
    bytes; None for any other file.

    A file is rectangular when it holds no ``"`` or NUL, every record ends
    with one terminator (``\\r\\n`` when the file holds a ``\\r``,
    ``\\n`` otherwise; the last may lack it), no record but trailing ones
    is blank, none is longer than ``csv.field_size_limit()`` bytes, and
    every record has the header's number of fields, at least three.
    ``csv.reader`` splits such a file at its terminators and commas alone,
    skipping the trailing blank records, and ``_read_records`` reads every
    other file.  None also when one field is so long that fixed-width
    columns would take more than twice the file's bytes.

    The trailing blank records are dropped first, and the last record's
    line end with them.  One pass then finds the commas and line feeds
    together, ``_BYTE_BLOCK`` bytes at a time, so no mask is as long as
    the file, and counts the line feeds and ``\\r``.  A rectangular file
    has one line feed per record but the last, and its separators fall
    into one group of ``width`` per record, each group ending at the
    record's line end: ``width`` is the number of separators over the
    number of records.  The line ends are checked at those positions
    alone; the counts show that no other byte is a line feed or ``\\r``.
    The groups then bound every field.
    """
    cr = int(b"\r" in data)
    line_end = b"\r\n"[1 - cr:]
    # csv.reader skips the trailing blank records: stop at the last record's end
    end = len(data)
    while end and data[end - 1] in b"\r\n":
        end -= 1
    if b'"' in data or b"\0" in data or data[end:].replace(line_end, b""):
        return None
    buf = np.frombuffer(data, np.uint8)
    index = np.int32 if len(buf) < 2**31 - 2 else np.int64  # positions reach len(buf) + 1
    found, n_lf, n_cr = [], 0, 0
    for start in range(0, end, _BYTE_BLOCK):
        block = buf[start:min(start + _BYTE_BLOCK, end)]
        lf = block == ord("\n")
        n_lf += np.count_nonzero(lf)
        n_cr += np.count_nonzero(block == ord("\r"))
        lf |= block == ord(",")
        found.append(np.add(np.flatnonzero(lf), start, dtype=index, casting="unsafe"))
    # the last record's line feed, or where it would be
    seps = np.concatenate(found + [np.array([end + cr], index)])
    del found
    width, rest = divmod(len(seps), n_lf + 1)
    if width < 3 or rest or n_cr != cr * n_lf:
        return None
    # row j holds each record's j-th separator, the last row its line end
    seps = seps.reshape(-1, width).T.copy()
    seps[-1] -= cr
    longest = max(int(seps[-1, 0]), int(np.diff(seps[-1]).max(initial=0)) - 1 - cr)
    ends = np.ndarray((len(buf) - cr,), f"u{1 + cr}", buf, strides=(1,))
    if longest > csv.field_size_limit() or (
            ends[seps[-1, :-1]] != np.frombuffer(line_end, ends.dtype)).any():
        return None
    header = data[:seps[-1, 0]].decode(encoding).split(",")
    starts = [seps[-1, :-1] + (1 + cr), seps[0, 1:] + 1, seps[1, 1:] + 1]
    lengths = [np.subtract(seps[k, 1:], start, out=seps[k, 1:]) for k, start in enumerate(starts)]
    # a field's width is a key dtype's size where the spellings fit one
    widths = [next((w for w in (1, 2, 4, 8) if w >= m), m)
              for m in (int(length.max(initial=0)) for length in lengths)]
    n = len(starts[0])
    if sum(widths) * n > 2 * len(buf):
        return None
    return header, [_fixed_width(buf, *field) for field in zip(starts, lengths, widths)]


def _fixed_width(buf: np.ndarray, start: np.ndarray, length: np.ndarray,
                 width: int) -> np.ndarray:
    """``buf[start:start + length]`` of every record as a column of
    ``S{width}`` byte strings.

    Each field is one row of the ``width`` bytes from its start, gathered
    from a view that has such a row at every offset of ``buf``, with the
    bytes past the field's end zeroed.  Key widths gather as unsigned
    integers, which is faster, and are cut short with a table of masks.
    ``start`` is clipped in place to the last row of the view; the few
    fields that start past it are read one by one.
    """
    dtype = np.dtype(f"u{width}" if width in (1, 2, 4, 8) else f"S{width}")
    last = len(buf) - width
    late = [(k, start[k]) for k in np.flatnonzero(start > last)]
    out = np.ndarray((last + 1,), dtype, buf, strides=(1,))[np.minimum(start, last, out=start)]
    for k, at in late:
        out.view(f"S{width}")[k] = buf[at:at + length[k]].tobytes()
    if dtype.kind == "S":
        out.view(np.uint8).reshape(-1, width)[np.arange(width) >= length[:, None]] = 0
    elif length.min(initial=width) < width:     # row k of the table keeps k bytes
        out &= (np.tri(width + 1, width, -1, dtype=np.uint8) * 255).view(dtype).ravel()[length]
    return out.view(f"S{width}")


def _keys(column: np.ndarray) -> np.ndarray:
    """Values equal exactly where the byte strings are: those of a key width
    as unsigned integers of the machine's byte order (which sort fastest,
    though not in the spellings' order), others as they are."""
    if column.itemsize in (1, 2, 4, 8):
        return column.view(f"u{column.itemsize}")
    return column


def _first_appearance(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each record's code, the codes ranked by first appearance, and the
    distinct spellings in that order.

    Only the head of each run of equal consecutive spellings is sorted, and
    its code repeats over the run: a file grouped by id sorts one spelling
    per individual.  A spelling first appears at a run head, so the codes
    are the same for any record order.
    """
    keys = _keys(column)
    heads = np.flatnonzero(np.concatenate(([keys.size > 0], keys[1:] != keys[:-1])))
    _, first, inverse = np.unique(keys[heads], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return np.repeat(rank[inverse], np.diff(heads, append=keys.size)), column[heads[first[order]]]


def _spelled(column: np.ndarray, text: str) -> np.ndarray:
    """Which records spell ``text`` exactly."""
    return _keys(column) == _keys(np.array([text], dtype=column.dtype))[0]


def _is_integer(value) -> bool:
    """Whether an integer field may hold ``value``: any ``numbers.Integral``
    (numpy's too) but a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _ascii_int(text, name: str = "value") -> int:
    """``text`` read as ``[+-]?[0-9]+``, leading zeros aside: unlike ``int``,
    refuse other digits, underscores, spaces and a fraction, naming ``name``."""
    # one way to match each text: an ambiguous 0*[0-9]+ backtracks quadratically
    match = re.fullmatch(r"([+-]?)0*([1-9][0-9]*|0)", str(text))
    if not match:
        raise ValueError(f"{name} must be an integer in ASCII digits, got {text!r}")
    try:
        return int(match[1] + match[2])
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError(f"{name} has {len(match[2])} significant digits, "
                         "more than int() converts") from None


def _period_ranks(ts: np.ndarray, encoding: str) -> tuple[np.ndarray, list[int]] | None:
    """Each record's period as its rank among the distinct periods, and
    those periods in ascending order; None when ``_ascii_int`` refuses a
    spelling.

    ``_ascii_int`` runs once per distinct spelling, and the periods stay
    Python integers, however many digits they have.
    """
    distinct = np.unique(_keys(ts))
    try:
        values = [_ascii_int(spelling.decode(encoding))
                  for spelling in distinct.view(ts.dtype).tolist()]
    except ValueError:
        return None
    periods = sorted(set(values))
    rank = {v: k for k, v in enumerate(periods)}
    ranks = np.array([rank[v] for v in values], dtype=np.int64)
    return ranks[np.searchsorted(distinct, _keys(ts))], periods


def _id_array(labels: np.ndarray, encoding: str) -> np.ndarray:
    """The byte-string labels as int64 when each spells its integer as
    ``str(int)`` does, otherwise as text, as ``_text_ids`` reads them."""
    if labels.itemsize <= 18:
        ints = _canonical_ints(labels)
        if ints is not None:
            return ints
    return _text_ids([label.decode(encoding) for label in labels.tolist()])


def _text_ids(names: list[str]) -> np.ndarray:
    """The names as int64 when each spells its integer as ``str(int)`` does
    (within int64), otherwise as text, so that distinct names stay distinct."""
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
    chars = labels.view(np.uint8).reshape(len(labels), labels.itemsize).T.copy()
    length = np.count_nonzero(chars, axis=0)
    negative = chars[0] == ord("-")
    ok = length > negative
    value = np.zeros(len(labels), np.int64)
    for j, c in enumerate(chars):       # one contiguous row per byte position
        digit = (j >= negative) & (j < length)
        ok &= ~digit | ((c >= ord("0")) & (c <= ord("9")))
        # a leading zero only in "0" itself
        ok &= (j != negative) | (c != ord("0")) | (length == 1)
        value = np.where(digit, value * 10 + (c - ord("0")), value)
    if not ok.all():
        return None
    return np.where(negative, -value, value)
