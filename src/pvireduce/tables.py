"""The one file layer: read_text reads every input, sha256_file hashes one for a
run's manifest, and atomic_write_text, which makes its directory, writes every
output. A CSV table's schema maps each column to a caster (a cell's text or a
program value in, that value or a ValueError out, nothing coerced); write_csv and
read_csv pass every cell through cast_row, so what one writes the other reads."""

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


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def f17(x: float) -> str:
    """17 significant digits: the float round-trips exactly."""
    return format(float(x), ".17g")


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    The directory is made when missing. The temp file is created by open(),
    so the result gets the same umask-derived permissions a plain
    open(path, "w") would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def finite_float(value) -> float:
    """float(value), refused with ValueError when that is NaN or infinite."""
    if not math.isfinite(number := float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def count(value) -> int:
    """An integer >= 0: a cell's digits or an int, never a float or a bool truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str, numbers.Integral)) or int(value) < 0:
        raise ValueError(f"expected an integer >= 0, got {value!r}")
    return int(value)


def one_of(what: str, names: tuple):
    """The caster that passes a name in `names` and refuses any other: `unknown <what> 'x'`."""
    def cast(value):
        if value not in names:
            raise ValueError(f"unknown {what} {value!r}")
        return value
    return cast


def cast_row(columns: dict, cells) -> list:
    """The sequence `cells`, each through its column's caster; a refusal reads `<column>: …`."""
    if len(cells) != len(columns):
        raise ValueError(f"expected {len(columns)} fields, got {len(cells)}")
    row = []
    for (name, cast), cell in zip(columns.items(), cells):
        try:
            row.append(cast(cell))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return row


def write_csv(path, columns: dict, rows) -> None:
    """The header list(columns) and each row cast by cast_row(columns), LF-terminated,
    floats by f17, written atomically once every row is cast. A refused row raises
    ValueError `<path>: row <n>: <column>: …` (n counts data rows from 1) and writes
    no file, so whatever write_csv writes, read_csv reads back."""
    lines = []  # one record each; a CRLF terminator makes csv quote a field holding a CR
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(list(columns))
    for n, row in enumerate(rows, 1):
        try:
            writer.writerow([f17(v) if isinstance(v, float) else v for v in cast_row(columns, row)])
        except ValueError as exc:
            raise ValueError(f"{path}: row {n}: {exc}") from None
    atomic_write_text(path, "".join(line[:-2] + "\n" for line in lines))


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
