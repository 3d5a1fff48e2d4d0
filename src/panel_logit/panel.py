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
individuals; as Python strings in an object array when one ends in a NUL,
which a numpy string array would drop.

Two readers give one result.  ``_read_records`` reads the file with
``csv.reader`` one record at a time and is the one definition of a fault:
it raises the first in file order.  A clean file (no quote or NUL, one line
end throughout, every record as wide as the header, and each (id, period)
cell filled by exactly one sound record) is read instead by ``_read_clean``,
which streams the file through one ``_BYTE_BLOCK`` buffer in whole-array
passes over each block and keeps two bytes per record and one id per run
of equal ids, so its memory follows the panel, not the file.  It declines
every other file without locating its fault, and such a file is read again
by ``_read_records``, at about ten times the cost of a clean read.

Each panel row is one individual.  A sample counted over its outcome
histories is not a panel but a history table, which ``simulate_histogram``
draws and ``aggregation.aggregate`` reads as it reads a panel.

``ids`` is None when a panel's ids are its row numbers.  Simulated panels
pass none, and both readers drop ids that are int64 ``0 .. n - 1`` in file
order, so such a panel holds its outcomes alone; the writer spells its row
numbers one block at a time.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import locale
import numbers
import os
import re
from dataclasses import dataclass

import numpy as np

# rows per block where a whole-panel pass streams its rows (uint64 words of
# eight rows in aggregation): at 8 periods one block's float64 shocks are
# 512 KiB, which stays in a core's L2 cache
ROW_BLOCK = 8192
_BYTE_BLOCK = 1 << 18   # bytes per block where a pass streams a whole file


@dataclass(frozen=True, init=False)
class PanelData:
    """Rows of binary outcomes, one row per individual, with row ids.

    ``y[i, k]`` is the outcome of individual ``i`` at period ``t0 + k``.
    ``y`` is int8 and stored period-major (Fortran order): each period's
    column is one contiguous run of bytes, which is what aggregation reads,
    and dropping leading periods is a view.  Inputs in another layout are
    copied once.  ``ids`` holds each row's id, or None when the ids are the
    row numbers ``0 .. n - 1``.
    """

    y: np.ndarray
    t0: int
    ids: np.ndarray | None

    def __init__(self, y: np.ndarray, ids: np.ndarray | None = None, t0: int = 1):
        y = np.asarray(y)
        if y.ndim != 2:
            raise ValueError("y must be a 2-d array")
        if 0 in y.shape:   # the writer would write a file with no record
            raise ValueError(f"a panel needs individuals and periods, got shape {y.shape}")
        if ids is not None:
            ids = np.asarray(ids)
            if ids.ndim != 1:
                raise ValueError("ids must be a 1-d array")
            if len(ids) != y.shape[0]:
                raise ValueError("ids length must match the number of rows")
        if not _is_integer(t0):
            raise ValueError(f"t0 must be an integer, got {t0!r}")
        # check before the cast, which would wrap 256 to 0 and truncate 0.7;
        # NaN and strings compare unequal to both, so they are refused too.
        # int8 is 0/1 exactly when its bytes, read unsigned, are at most 1
        if y.dtype == np.int8:
            binary = y.view(np.uint8).max(initial=0) <= 1
        else:
            binary = ((y == 0) | (y == 1)).all()
        if not binary:
            raise ValueError("panel outcomes must be 0 or 1")
        object.__setattr__(self, "y", np.asfortranarray(y, dtype=np.int8))
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
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

        The new panel's ``y`` is a view of this one's: no outcome is copied,
        and none is checked again.
        """
        if not _is_integer(k):
            raise ValueError(f"k must be an integer, got {k!r}")
        if not 0 <= k < self.n_periods:
            raise ValueError(f"cannot drop {k} of {self.n_periods} periods")
        if k == 0:
            return self
        view = object.__new__(PanelData)
        object.__setattr__(view, "y", self.y[:, k:])
        object.__setattr__(view, "t0", self.t0 + k)
        object.__setattr__(view, "ids", self.ids)
        return view


def write_panel_csv(panel: PanelData, path) -> None:
    """Write the panel in long format with header ``id,t,y``.

    The bytes are those a ``csv.writer`` on a text-mode ``open(path, "w",
    newline="")`` writes record by record, with ``\\r\\n`` line ends.  Ids
    that spell one id twice are refused, as the reader would refuse the
    file: integer ids before the file is opened, other ids at the repeat.
    A write that raises, there or at an id that cannot be spelled or
    encoded, removes the regular file it opened, so no smaller panel is
    left.

    Each id is spelled once: an integer id as ``str(int)`` spells it, any
    other as ``csv.writer`` spells an id field, quotes included.  A record's
    tail ``,t,y\\r\\n`` is one of two per period.  ``ROW_BLOCK`` individuals
    at a time, one gather lays each record's id and tail side by side in a
    byte matrix, padded to whole words, and a mask of their lengths
    compresses it to the block's bytes.  A panel whose ids are None has its
    row numbers spelled, one block of them at a time.
    """
    encoding = locale.getpreferredencoding(False)   # what a text-mode open() encodes with
    line = io.StringIO()
    writer = csv.writer(line)

    def spelled(*fields) -> str:
        line.seek(0)
        line.truncate()
        writer.writerow(fields)
        return line.getvalue()

    if panel.ids is not None and panel.ids.dtype.kind in "iu":
        values, counts = np.unique(panel.ids, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"duplicate id {values[counts > 1][0]}")
    periods = np.arange(panel.t0, panel.t_last + 1).tolist()
    # tail 2k + y is the ",t,y\r\n" of period k and outcome y
    tails = _masked(np.array([spelled("", t, y).encode(encoding)
                              for t in periods for y in (0, 1)], dtype=bytes))
    first_tail = np.arange(0, 2 * len(periods), 2)
    seen = set()   # the spellings of the ids that are not integers, so far
    fh = open(path, "wb")   # its error is raised with no file to remove
    try:
        with fh:
            fh.write(spelled("id", "t", "y").encode(encoding))
            for start in range(0, panel.n, ROW_BLOCK):
                tail = panel.y[start:start + ROW_BLOCK] + first_tail
                ids = (np.arange(start, start + len(tail)) if panel.ids is None
                       else panel.ids[start:start + ROW_BLOCK])
                if ids.dtype.kind in "iu":
                    fh.write(_records(_masked(ids.astype(bytes)), tail, tails))
                    continue
                names = []
                for label in ids.tolist():
                    # the id's own field of a three-field row: a lone empty
                    # field would be quoted
                    name = spelled(label, "", "")[:-4]
                    if name in seen:
                        raise ValueError(f"duplicate id {name}")
                    seen.add(name)
                    names.append(name.encode(encoding))
                lengths = np.array([len(name) for name in names], dtype=np.intp)
                fh.write(_records(_masked(np.array(names, dtype=bytes), lengths),
                                  tail, tails))
    except BaseException:
        opened = os.path.realpath(path)
        if os.path.isfile(opened):   # not a device or pipe, as /dev/stdout may be
            os.remove(opened)
        raise


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
    periods; outcomes must be 0/1.  A clean file, one that ``_split_blocks``
    splits and whose sound records each fill their own cell of the panel,
    is streamed in whole-array passes over one block at a time.  Any other
    file is read again, record by record, by ``_read_records``, the one
    definition of a fault: it raises the first fault in file order.  That
    fallback runs Python code per record, at about ten times the cost of
    the streamed read (1.1-1.6 s against 0.07-0.10 s for a 1e6-line file on
    2 cores).
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
    return PanelData(y=np.asfortranarray(y), ids=_stored_ids(_text_ids(list(seen))),
                     t0=expected[0])


def _read_clean(path, encoding: str) -> PanelData | None:
    """The panel of a clean file, streamed one block at a time; None for
    any other file, which ``_read_records`` reads.

    A file is clean when ``_split_blocks`` splits it, its header is
    ``id,t,y``, it holds a data record, every period is an integer in ASCII
    digits, the periods have at most 255 spellings and are contiguous,
    every outcome is 0 or 1, and the records fill each (id, period) cell
    once.

    Of each block's records it keeps a one-byte period code (an index into
    the distinct period spellings, so ``_ascii_int`` runs once per
    spelling), the outcome byte, and the heads of the runs of equal
    consecutive ids with the runs' lengths, a run across a seam counted
    once: a file grouped by id keeps one head per individual.  At the end
    ``_first_appearance`` codes the heads alone, and the cells are filled
    ``ROW_BLOCK`` runs at a time.  A file that is not clean is declined at
    the first block that shows it, and its later blocks are only decoded.
    """
    spellings: dict[bytes, int] = {}    # period spelling -> code, in first appearance
    tables: dict[int, np.ndarray] = {}
    # each block's period codes and outcomes, one byte per record, and its
    # id run heads and run lengths
    t_codes, outcomes, heads, runs = [], [], [], []
    last = None     # the id of the last record read
    with open(path, "rb") as fh:
        blocks = _blocks(fh, encoding)
        split = _split_blocks(blocks, encoding)
        header = next(split, None)
        clean = header is not None and [h.strip() for h in header[:3]] == ["id", "t", "y"]
        for columns in (split if clean else ()):
            if columns is None:
                clean = False
                break
            ids, ts, ys = columns
            codes = _codes(ts, spellings, tables)
            outcome = ys.view(np.uint8)
            if codes is None or ys.itemsize != 1 or not ((outcome | 1) == ord("1")).all():
                clean = False
                break
            t_codes.append(codes)
            outcomes.append(outcome & 1)
            keys = _keys(ids)
            head = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            length = np.diff(head, append=len(ids))
            if ids[0] == last:      # the first run continues the last block's
                runs[-1][-1] += length[0]
                head, length = head[1:], length[1:]
            if len(head):
                heads.append(ids[head])
                runs.append(length)
            last = ids[-1]
        for _ in blocks:    # an undecodable byte past the decline still raises
            pass
    if not clean or not t_codes:
        return None
    try:
        values = [_ascii_int(spelling.decode(encoding)) for spelling in spellings]
    except ValueError:
        return None
    periods = sorted(set(values))
    t_code, outcome, lengths = (np.concatenate(parts) for parts in (t_codes, outcomes, runs))
    del t_codes, outcomes, runs
    heads = np.concatenate(heads)
    id_code, labels = _first_appearance(heads)
    del heads
    if (periods[-1] - periods[0] + 1 != len(periods) or len(labels) * len(periods) != len(t_code)
            or lengths.max() > len(periods)):
        return None
    rank = {v: k for k, v in enumerate(periods)}
    t_rank = np.array([rank[v] for v in values], np.intp)
    # each record's (id, period) cell: its index in the period-major outcomes;
    # as many records as cells fill each once unless one cell has two
    y = np.full((len(labels), len(periods)), -1, np.int8, order="F")
    cells = y.ravel(order="F")
    start = 0
    for k in range(0, len(lengths), ROW_BLOCK):
        run = lengths[k:k + ROW_BLOCK]
        stop = start + int(run.sum())
        cells[t_rank[t_code[start:stop]] * len(labels)
              + np.repeat(id_code[k:k + ROW_BLOCK], run)] = outcome[start:stop]
        start = stop
    if y.min() < 0:
        return None
    return PanelData(y=y, ids=_stored_ids(_id_array(labels, encoding)), t0=periods[0])


def _blocks(fh, encoding: str):
    """The bytes of binary file ``fh``, ``_BYTE_BLOCK`` at a time, each
    read into one reused buffer and valid until the next is read.

    Each block is decoded as it is read: an undecodable byte raises the
    ``UnicodeDecodeError`` that decoding the whole file raises, as a text
    read would.
    """
    decoder = codecs.getincrementaldecoder(encoding)()
    buf = bytearray(_BYTE_BLOCK)
    view = memoryview(buf)
    try:
        while n := fh.readinto(buf):
            decoder.decode(view[:n])
            yield view[:n]
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        fh.seek(0)
        fh.read().decode(encoding)
        raise


def _split_blocks(blocks, encoding: str):
    """Split a file given as byte blocks: yield the header's fields, then
    the id, t and y columns of each block's records, fixed-width byte
    strings; yield None and stop at the first block that shows the file is
    not rectangular.

    A file is rectangular when it holds no ``"`` or NUL, every record ends
    with the header's terminator (``\\r\\n`` or ``\\n``; the last record
    may lack it), no record but trailing ones is blank, none is longer than
    ``csv.field_size_limit()`` bytes, and every record has the header's
    number of fields, at least three.  ``csv.reader`` splits such a file at
    its terminators and commas alone, skipping the trailing blank records,
    and ``_read_records`` reads every other file.  None also when one field
    is so long that a block's fixed-width columns would take more than
    twice its bytes.

    Each block is cut after its last line feed, and the partial record
    after the cut is carried into the next block, so every record is split
    whole.  Blank records after a block's last record are trailing only if
    no record follows them in a later block.
    """
    carry, line_end, width, blank = b"", None, 0, False
    for block in itertools.chain(blocks, [None]):
        if block is not None:
            data = carry + block
            cut = data.rfind(b"\n") + 1
            data, carry = data[:cut], data[cut:]
            if len(carry) > csv.field_size_limit() + 1:    # one record too long
                yield None
                return
        elif carry:     # the last record, without its line end
            data, carry = carry + (line_end or b"\n"), b""
        else:
            return
        if not data:
            continue
        skip = line_end is None     # the header's terminator is every record's
        if skip:
            first = data.index(b"\n")
            line_end = b"\r\n" if data[first - 1:first] == b"\r" else b"\n"
            header = data[:first + 1 - len(line_end)].decode(encoding).split(",")
            width = len(header)
            yield header
        # csv.reader skips trailing blank records: stop at the last record's end
        end = len(data.rstrip(b"\r\n"))
        if (width < 3 or b'"' in data or b"\0" in data or data[end:].replace(line_end, b"")
                or (blank and end)):
            yield None
            return
        blank |= len(data) - end > (len(line_end) if end else 0)
        if not end:
            continue
        columns = _columns(np.frombuffer(data, np.uint8, end + len(line_end)), width,
                           len(line_end) - 1, skip)
        if columns is None:
            yield None
            return
        if len(columns[0]):
            yield columns


def _columns(buf: np.ndarray, width: int, cr: int, skip: int) -> list[np.ndarray] | None:
    """The id, t and y columns of the records that fill ``buf``, past the
    first ``skip``, as fixed-width byte strings; None unless each record
    ends with its line end and has ``width`` fields and at most
    ``csv.field_size_limit()`` bytes, and the columns take at most twice
    ``buf``'s bytes.

    One pass finds the commas and line feeds together and counts the line
    feeds and ``\\r``.  Such records have one line feed each, and their
    separators fall into one group of ``width`` per record, each group
    ending at the record's line end: the line ends are checked at those
    positions alone, and the counts show that no other byte is a line feed
    or ``\\r``.  The groups then bound every field.
    """
    seps = buf == ord("\n")
    n = np.count_nonzero(seps)
    seps |= buf == ord(",")
    seps = np.flatnonzero(seps)
    if len(seps) != width * n or np.count_nonzero(buf == ord("\r")) != cr * n:
        return None
    rows = seps.reshape(n, width)
    ends = rows[:, -1]
    if not (buf[ends] == ord("\n")).all() or (cr and not (buf[ends - 1] == ord("\r")).all()):
        return None
    ends -= cr      # the last field ends at the line end
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1 + cr
    if int((ends - starts).max()) > csv.field_size_limit():
        return None
    firsts = [starts[skip:], rows[skip:, 0] + 1, rows[skip:, 1] + 1]
    lengths = [rows[skip:, k] - first for k, first in enumerate(firsts)]
    # a field's width is a key dtype's size where the spellings fit one
    widths = [next((w for w in (1, 2, 4, 8) if w >= m), m)
              for m in (int(length.max(initial=0)) for length in lengths)]
    if sum(widths) * len(firsts[0]) > 2 * len(buf):
        return None
    return [_fixed_width(buf, *field) for field in zip(firsts, lengths, widths)]


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
    """Each spelling's code, the codes ranked by first appearance, and the
    distinct spellings in that order.

    The run heads of a file grouped by id are distinct, which one sort
    shows: their codes are their positions.
    """
    keys = _keys(column)
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return np.arange(len(keys)), column
    del ordered
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], column[first[order]]


def _codes(column: np.ndarray, spellings: dict, tables: dict) -> np.ndarray | None:
    """Each string's index in ``spellings``, the distinct strings in first
    appearance (string -> index), which it extends; None past 255 strings.

    Keys of one or two bytes are looked up in ``tables``, one per key width
    (255 where a key is not known yet), wider ones compared with each known
    string.  The records left over are compared with each new string in
    turn, so a new string costs a pass over the records that are not yet
    coded.
    """
    keys = _keys(column)
    table = None
    if column.itemsize <= 2:
        table = tables.setdefault(column.itemsize,
                                  np.full(256 ** column.itemsize, 255, np.uint8))
        codes = table[keys]
    else:
        codes = np.full(len(keys), 255, np.uint8)
        for spelling, code in spellings.items():
            codes[column == spelling] = code
    miss = np.flatnonzero(codes == 255)
    while len(miss):
        key = keys[miss[0]]
        code = spellings.setdefault(column[miss[0]], len(spellings))
        if code == 255:
            return None
        if table is not None:
            table[key] = code
        hit = keys[miss] == key
        codes[miss[hit]] = code
        miss = miss[~hit]
    return codes


def _check_total(n: int) -> None:
    if n >= 2**53:      # estimators read cell counts as float64, exact below 2**53
        raise ValueError(f"panel of {n} individuals exceeds the exact range 2**53")


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


def _id_array(labels: np.ndarray, encoding: str) -> np.ndarray:
    """The byte-string labels as int64 when each spells its integer as
    ``str(int)`` does, otherwise as text, as ``_text_ids`` reads them."""
    if labels.itemsize <= 18:
        ints = _canonical_ints(labels)
        if ints is not None:
            return ints
    return _text_ids([label.decode(encoding) for label in labels.tolist()])


def _stored_ids(ids: np.ndarray) -> np.ndarray | None:
    """The ids a panel stores: None where they are its row numbers, int64
    ``0 .. n - 1`` in order.  They are compared a ``ROW_BLOCK`` at a time,
    so the row numbers are never built whole."""
    if ids.dtype != np.int64:
        return ids
    for start in range(0, len(ids), ROW_BLOCK):
        block = ids[start:start + ROW_BLOCK]
        if not (block == np.arange(start, start + len(block))).all():
            return ids
    return None


def _text_ids(names: list[str]) -> np.ndarray:
    """The names as int64 when each spells its integer as ``str(int)`` does
    (within int64), otherwise as text, so that distinct names stay distinct."""
    try:
        ints = [int(name) for name in names]
        if all(str(i) == name for i, name in zip(ints, names)):
            return np.array(ints, dtype=np.int64)
    except (ValueError, OverflowError):     # OverflowError: outside int64
        pass
    # a numpy string array drops trailing NULs: names ending in one stay str
    return np.array(names, dtype=object if any(name.endswith("\0") for name in names) else str)


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
