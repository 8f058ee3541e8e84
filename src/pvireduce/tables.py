"""The one file layer: read_text reads every input, sha256_file hashes one for a
run's manifest, and atomic_write_text, which makes its directory, writes every
output. CSV tables are written with floats by f17 and read with every field cast;
a DataError names `<path>:<line>:` and any column."""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import math
import os


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


def write_csv(path, columns, rows) -> None:
    """Header plus rows, LF-terminated, written atomically; floats by f17."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    writer.writerows([f17(v) if isinstance(v, float) else v for v in row] for row in rows)
    atomic_write_text(path, buf.getvalue())


def read_csv(path, columns: dict, make=lambda *fields: list(fields)) -> list:
    """make(*fields) per row below the header list(columns) of read_text(path),
    cast by column type; a float field must be finite."""
    header = list(columns)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    rows = []
    try:
        if (found := next(reader, None)) != header:
            raise DataError(f"{path}: expected CSV header {header}, got {found}")
        for row in reader:
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: expected {len(header)} "
                                f"fields, got {len(row)}")
            fields = []
            try:
                for name, value in zip(header, row):
                    fields.append((finite_float if columns[name] is float else columns[name])(value))
                rows.append(make(*fields))
            except ValueError as exc:
                column = f" {name}:" if len(fields) < len(header) else ""
                raise DataError(f"{path}:{reader.line_num}:{column} {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return rows
