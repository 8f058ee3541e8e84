"""Atomic text output and header-checked CSV tables shared by every writer."""

from __future__ import annotations

import csv
import io
import os


def f17(x: float) -> str:
    """17 significant digits: the float round-trips exactly."""
    return format(float(x), ".17g")


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    The temp file is created by open(), so the result gets the same
    umask-derived permissions a plain open(path, "w") would give it.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Header plus rows, LF-terminated, written atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def read_csv(path, header) -> list[list[str]]:
    """The data rows of a CSV whose first row must equal `header`."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != list(header):
            raise ValueError(f"{path}: expected CSV header {list(header)}, got {found}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} "
                                 f"fields, got {len(row)}")
            rows.append(row)
        return rows
