"""The one table layer: atomic text output, which makes its directory, and
typed CSV tables, written with every float by f17 and read with every field
cast, naming `<path>:<line>:` (and the column of a failed cast) in any error."""

from __future__ import annotations

import csv
import io
import math
import os


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


def write_csv(path, columns, rows) -> None:
    """Header plus rows, LF-terminated, written atomically; floats by f17."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    writer.writerows([f17(v) if isinstance(v, float) else v for v in row] for row in rows)
    atomic_write_text(path, buf.getvalue())


def read_csv(path, columns: dict, make=lambda *fields: list(fields)) -> list:
    """make(*fields) per row below the header list(columns), cast by column type;
    a float field must be finite."""
    header = list(columns)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(raw[:exc.start + 1].splitlines())
        raise ValueError(f"{path}:{line}: invalid UTF-8 byte {raw[exc.start]:#04x} "
                         f"({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    found = next(reader, None)
    if found != header:
        raise ValueError(f"{path}: expected CSV header {header}, got {found}")
    rows = []
    for row in reader:
        if len(row) != len(header):
            raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} "
                             f"fields, got {len(row)}")
        fields = []
        try:
            for name, value in zip(header, row):
                field = columns[name](value)
                if columns[name] is float and not math.isfinite(field):
                    raise ValueError(f"{value!r} is not a finite number")
                fields.append(field)
            rows.append(make(*fields))
        except ValueError as exc:
            column = f" {name}:" if len(fields) < len(header) else ""
            raise ValueError(f"{path}:{reader.line_num}:{column} {exc}") from None
    return rows
