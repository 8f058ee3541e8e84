import re

import numpy as np
import pytest

from pvireduce.curriculum import StageReport, read_stage_csv, write_stage_csv
from pvireduce.pvi import PviRecord, read_records_csv, write_records_csv
from pvireduce.reduction import SweepPoint, read_sweep_csv, write_sweep_csv
from pvireduce.report import RuntimeLog
from pvireduce.tables import atomic_write_text, f17, read_csv, write_csv


def test_f17_roundtrips():
    for x in (0.1, 1 / 3, -2.5e-300, 0.0):
        assert float(f17(x)) == x
    assert f17(0.3) == "0.29999999999999999"


def test_write_csv_is_lf_and_quotes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, "x,y"], [2, 'q"']])
    assert path.read_bytes() == b'a,b\n1,"x,y"\n2,"q"""\n'
    assert read_csv(path, {"a": str, "b": str}) == [["1", "x,y"], ["2", 'q"']]


@pytest.mark.parametrize("content, where", [("", "t.csv:"), ("a,c\n1,2\n", "t.csv:"),
                                             ("a,b\n1,2\n3\n", "t.csv:3:")])
def test_read_csv_rejects_malformed_tables(tmp_path, content, where):
    path = tmp_path / "t.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=where):
        read_csv(path, {"a": str, "b": str})


def test_atomic_write_replaces_and_keeps_open_permissions(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "one\n")
    atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert path.stat().st_mode == plain.stat().st_mode


def test_write_csv_writes_every_float_by_f17(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d"], [[0.3, np.float64(1 / 3), 7, "s"]])
    assert path.read_text() == f"a,b,c,d\n{f17(0.3)},{f17(1 / 3)},7,s\n"


def _sweep(path):
    write_sweep_csv([SweepPoint(0.0, 10, 0.5, 0.25, 0.0, "original", "pvi", False, 1)],
                    path)
    return read_sweep_csv


def _stages(path):
    write_stage_csv([StageReport(0.0, "easy_first", 10, 0.5, 0.5, 0.5, 0.5, 0.0, 1)],
                    path)
    return read_stage_csv


def _records(path):
    write_records_csv([PviRecord(0, -1.5, -0.5, 1.0)], path)
    return read_records_csv


def _runtime(path):
    log = RuntimeLog()
    log.record("original", 0.0, "train_cm", 0.0)
    log.write_csv(path)
    return RuntimeLog.read_csv


@pytest.mark.parametrize("write, column", [(_sweep, "r"), (_sweep, "seed"),
                                           (_stages, "accuracy"), (_records, "pvi"),
                                           (_runtime, "seconds")])
def test_every_reader_names_path_line_and_column(tmp_path, write, column):
    path = tmp_path / "t.csv"
    read = write(path)
    header, row = (line.split(",") for line in path.read_text().splitlines())
    row[header.index(column)] = "zero"
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:2: {column}: .*'zero'"):
        read(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
@pytest.mark.parametrize("write, column", [(_sweep, "r"), (_sweep, "cm_accuracy"),
                                           (_stages, "accuracy"), (_records, "pvi"),
                                           (_runtime, "r"), (_runtime, "seconds")])
def test_every_reader_refuses_non_finite_floats(tmp_path, write, column, value):
    path = tmp_path / "t.csv"
    read = write(path)
    header, row = (line.split(",") for line in path.read_text().splitlines())
    row[header.index(column)] = value
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:2: {column}: "
                                         rf"'{value}' is not a finite number"):
        read(path)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0])
def test_runtime_log_refuses_non_finite_or_negative_seconds(seconds):
    with pytest.raises(ValueError, match="seconds must be >= 0 and finite"):
        RuntimeLog().record("original", 0.0, "train_cm", seconds)


@pytest.mark.parametrize("row, named", [("original,0,train_xx,0", "unknown phase 'train_xx'"),
                                        ("original,0,train_cm,-1", "seconds must be >= 0")])
def test_runtime_csv_names_the_line_of_a_bad_record(tmp_path, row, named):
    path = tmp_path / "runtime.csv"
    path.write_text(f"variant,r,phase,seconds\noriginal,0,evaluate,0\n{row}\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: {named}"):
        RuntimeLog.read_csv(path)


def test_atomic_write_makes_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(path, "x\n")
    assert path.read_text() == "x\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]
