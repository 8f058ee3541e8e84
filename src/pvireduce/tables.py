"""The one file layer: read_text reads every input whole, read_lines line by line
with the same rules, sha256_file hashes one for a run's manifest, and
atomic_write_text, which makes its directory, writes every output, whole or as it
comes. A table's schema maps each column to a caster (a cell's text or a program
value in, that value or a ValueError out, nothing coerced: a number's text must be
a plain ASCII numeral); write_rows, write_csv and read_csv pass every cell through
cast_row, so what one writes the other reads."""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import math
import numbers
import os
from types import SimpleNamespace


class DataError(ValueError):
    """Malformed input: a missing file, a bad byte, record or field."""


def read_text(path) -> str:
    """The UTF-8 text of an input file, a leading byte-order mark dropped. A missing
    file raises DataError `file not found: <path>`, and a byte that is not UTF-8
    `<path>:<line>: invalid UTF-8 byte 0x..`, lines ending at LF, CR or CRLF."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read().removeprefix(codecs.BOM_UTF8)
        return raw.decode("utf-8")
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    except UnicodeDecodeError as exc:
        line = len(raw[:exc.start + 1].splitlines())
        raise DataError(f"{path}:{line}: invalid UTF-8 byte {raw[exc.start]:#04x} "
                        f"({exc.reason})") from None


def read_lines(path):
    """The lines of read_text(path), each without its LF, CR or CRLF, as a generator
    that decodes the file a few KiB at a time, so a file with any of these line
    ends is read in flat memory. The file is opened now, so a missing one raises
    read_text's DataError here, and closing the generator closes it. A byte that
    is not UTF-8 raises read_text's DataError when the generator reaches it."""
    lines = _lines(path)
    next(lines)
    return lines


def _lines(path):
    try:
        # newline=None ends a line at LF, CR or CRLF, never at U+2028, U+0085 or FF
        fh = open(path, encoding="utf-8-sig", newline=None)
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    with fh:
        yield  # where read_lines leaves the generator: the file is open
        try:
            for line in fh:
                yield line.removesuffix("\n")
        except UnicodeDecodeError:
            read_text(path)  # names the bad byte and its line
            raise


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def f17(x: float) -> str:
    """17 significant digits: the float round-trips exactly."""
    return format(float(x), ".17g")


def atomic_write_text(path, text) -> None:
    """Write `text`, a str or an iterable of str written piece by piece as it comes,
    via a temp file in the target directory, then rename.

    The directory is made when missing. If the write fails (an iterable may raise
    midway), the temp file and every directory made for it are removed, so no
    file or directory is left. The temp file is created by open(), so the result
    gets the same umask-derived permissions a plain open(path, "w") would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    made = []
    parent = directory
    while not os.path.isdir(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        for made_dir in made:  # deepest first; one that something else filled stays
            try:
                os.rmdir(made_dir)
            except OSError:
                break
        raise


def _numeral(kind, text: str):
    """kind(text), kind int or float, for an ASCII numeral with no `_` or surrounding space."""
    number = kind(text)  # int()'s or float()'s own refusal of a text that is no number
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"{text!r} is not a plain ASCII numeral")
    return number


def finite_float(value) -> float:
    """float(value), refused with ValueError when that is NaN or infinite, when `value`
    is a bool or an int beyond float range, or when it is a text that is not a plain
    ASCII numeral."""
    try:
        number = _numeral(float, value) if isinstance(value, str) else float(value)
    except OverflowError as exc:  # float() of an int beyond float range
        raise ValueError(str(exc)) from None
    if not math.isfinite(number) or isinstance(value, bool):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def count(value) -> int:
    """An integer >= 0: a cell's plain ASCII numeral or an int, never a truncated float or bool."""
    number = _numeral(int, value) if isinstance(value, str) else value
    if isinstance(number, bool) or not isinstance(number, (int, numbers.Integral)) or number < 0:
        raise ValueError(f"expected an integer >= 0, got {value!r}")
    return int(number)


def str_only(value) -> str:
    """A str, passed as it is; any other value is refused, not turned into text."""
    if not isinstance(value, str):
        raise ValueError(f"expected text, got {value!r}")
    return value


def one_of(what: str, names: tuple):
    """The caster that passes a name in `names` and refuses any other: `unknown <what> 'x'`."""
    def cast(value):
        if value not in names:
            raise ValueError(f"unknown {what} {value!r}")
        return value
    return cast


def cast_row(columns: dict, cells, to_text=None) -> list:
    """The sequence `cells`, each through its column's caster and then, given
    `to_text`, formatted by it; a refusal of either reads `<column>: …`."""
    if len(cells) != len(columns):
        raise ValueError(f"expected {len(columns)} fields, got {len(cells)}")
    row = []
    for (name, cast), cell in zip(columns.items(), cells):
        try:
            row.append(cast(cell) if to_text is None else to_text(cast(cell)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return row


def write_rows(path, columns: dict, rows, to_text, line, head: str = "") -> None:
    """`head`, then line(cells) for each row, cells = cast_row(columns, row, to_text),
    written atomically row by row as `rows` yields them. A refused row raises
    ValueError `<path>: row <n>: <column>: …` (n counts rows from 1) and leaves no
    file."""
    def lines():
        yield head
        for n, row in enumerate(rows, 1):
            try:
                cells = cast_row(columns, row, to_text)
            except ValueError as exc:
                raise ValueError(f"{path}: row {n}: {exc}") from None
            yield line(cells)
    atomic_write_text(path, lines())


def _csv_text(value) -> str:
    return f17(value) if isinstance(value, float) else str(value)


def write_csv(path, columns: dict, rows) -> None:
    """The header list(columns) and each row by write_rows, LF-terminated, floats by
    f17, so whatever write_csv writes, read_csv reads back."""
    record = []  # a CRLF terminator makes csv quote a field holding a CR
    writer = csv.writer(SimpleNamespace(write=record.append), lineterminator="\r\n")

    def line(cells):
        writer.writerow(cells)
        return record.pop()[:-2] + "\n"
    write_rows(path, columns, rows, _csv_text, line, line(list(columns)))


def read_csv(path, columns: dict, make=lambda *fields: list(fields)) -> list:
    """make(*fields) per row below the header list(columns) of read_text(path), the
    fields cast by cast_row(columns); a refusal raises DataError `<path>:<line>: …`."""
    header = list(columns)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    rows = []
    try:
        if (found := next(reader, None)) != header:
            raise DataError(f"{path}: expected CSV header {header}, got {found}")
        for row in reader:
            try:
                rows.append(make(*cast_row(columns, row)))
            except ValueError as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return rows
