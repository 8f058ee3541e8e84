import ast
import codecs
import io
import os
import re
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pvireduce
from pvireduce import curriculum, pvi, reduction, report, tables
from pvireduce.curriculum import (StageReport, read_stage_csv, write_stage_csv,
                                  write_stage_summary_csv)
from pvireduce.pvi import ORDERINGS, PviRecord, read_records_csv, write_records_csv
from pvireduce.reduction import STRATEGIES, SweepPoint, read_sweep_csv, write_sweep_csv
from pvireduce.report import PHASES, BucketProportions, RuntimeLog, write_bucket_csv
from pvireduce.tables import (DataError, atomic_write_text, count, f17, finite_float, read_csv,
                              read_lines, read_text, write_csv)


def test_f17_roundtrips():
    for x in (0.1, 1 / 3, -2.5e-300, 0.0):
        assert float(f17(x)) == x
    assert f17(0.3) == "0.29999999999999999"


def test_write_csv_is_lf_and_quotes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"a": count, "b": str}, [[1, "x,y"], [2, 'q"']])
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
    write_csv(path, {"a": finite_float, "b": finite_float, "c": count, "d": str},
              [[0.3, np.float64(1 / 3), 7, "s"]])
    assert path.read_text() == f"a,b,c,d\n{f17(0.3)},{f17(1 / 3)},7,s\n"


def _sweep(path):
    write_sweep_csv([SweepPoint(0.0, 10, 0.5, 0.25, 0.0, "original", "pvi", 1)],
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


# int() or float() reads each of these as a number; a cell must be a plain ASCII numeral
@pytest.mark.parametrize("write, column, value", [
    (_records, "original_index", "1_000"), (_records, "original_index", " 7 "),
    (_records, "original_index", "\u0663"), (_sweep, "seed", "1\u0663"),
    (_records, "pvi", "1_0.5"), (_stages, "r", "\u0660.3"), (_sweep, "cm_accuracy", " 0.5"),
    (_runtime, "seconds", "1_0"),
])
def test_every_reader_refuses_a_numeral_it_would_coerce(tmp_path, write, column, value):
    path = tmp_path / "t.csv"
    read = write(path)
    header, row = (line.split(",") for line in path.read_text().splitlines())
    row[header.index(column)] = value
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: {column}: "
                                        rf"{re.escape(repr(value))} is not a plain ASCII numeral$"):
        read(path)


# as the sweep and runtime readers do; test_cli.py tests those through `report`
@pytest.mark.parametrize("write, column, value, named", [
    (_stages, "r", "5", "reduction ratio must be in [0,1), got 5.0"),
    (_stages, "accuracy", "7", "accuracy must be in [0, 1], got 7.0"),
    (_stages, "f1", "-0.25", "accuracy must be in [0, 1], got -0.25"),
    (_stages, "subset_size", "-5", "expected an integer >= 0, got '-5'"),
    (_stages, "train_seconds", "-3", "seconds must be >= 0 and finite, got -3.0"),
    (_stages, "seed", "-7", "expected an integer >= 0, got '-7'"),
    (_stages, "ordering", "bogus", "unknown ordering 'bogus'"),
], ids=["stages-r", "stages-accuracy", "stages-f1", "stages-subset_size",
        "stages-train_seconds", "stages-seed", "stages-ordering"])
def test_stage_reader_refuses_values_outside_the_range(tmp_path, write, column, value, named):
    path = tmp_path / "t.csv"
    read = write(path)
    header, row = (line.split(",") for line in path.read_text().splitlines())
    row[header.index(column)] = value
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:2: {column}: "
                                         rf"{re.escape(named)}$"):
        read(path)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0])
def test_runtime_log_refuses_non_finite_or_negative_seconds(seconds):
    with pytest.raises(ValueError, match="seconds must be >= 0 and finite"):
        RuntimeLog().record("original", 0.0, "train_cm", seconds)


@pytest.mark.parametrize("row, named, column", [
    ("original,0,train_xx,0", "unknown phase 'train_xx'", "phase"),
    ("original,0,train_cm,-1", "seconds must be >= 0", "seconds")])
def test_runtime_csv_names_the_line_of_a_bad_record(tmp_path, row, named, column):
    path = tmp_path / "runtime.csv"
    path.write_text(f"variant,r,phase,seconds\noriginal,0,evaluate,0\n{row}\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: {column}: {named}"):
        RuntimeLog.read_csv(path)


_POINT = SweepPoint(0.0, 10, 0.5, 0.25, 0.0, "original", "pvi", 1)
_STAGE = StageReport(0.0, "easy_first", 10, 0.5, 0.5, 0.5, 0.5, 0.0, 1)


# rows that no run writes and each reader refuses: each writer refuses them first
@pytest.mark.parametrize("write, rows, n, column, named", [
    (write_sweep_csv, [_POINT, replace(_POINT, subset_size=-5)], 2, "subset_size",
     "expected an integer >= 0, got -5"),
    (write_sweep_csv, [_POINT, replace(_POINT, train_seconds=-3.0)], 2, "train_seconds",
     "seconds must be >= 0 and finite, got -3.0"),
    (write_sweep_csv, [_POINT, replace(_POINT, strategy="bogus")], 2, "strategy",
     "unknown strategy 'bogus'"),
    (write_sweep_csv, [_POINT, replace(_POINT, seed=-7)], 2, "seed",
     "expected an integer >= 0, got -7"),
    (write_stage_csv, [replace(_STAGE, accuracy=1.5)], 1, "accuracy",
     "accuracy must be in [0, 1], got 1.5"),
    (write_stage_csv, [_STAGE, replace(_STAGE, subset_size=3.7)], 2, "subset_size",
     "expected an integer >= 0, got 3.7"),
    (write_stage_csv, [replace(_STAGE, seed=True)], 1, "seed",
     "expected an integer >= 0, got True"),
    (write_stage_summary_csv, [replace(_STAGE, accuracy=2)], 1, "accuracy_mean",
     "accuracy must be in [0, 1], got 2.0"),
    (write_stage_summary_csv, [replace(_STAGE, ordering="bogus")], 1, "ordering",
     "unknown ordering 'bogus'"),
], ids=["sweep-subset_size", "sweep-train_seconds", "sweep-strategy", "sweep-seed",
        "stages-accuracy", "stages-subset_size", "stages-seed", "summary-accuracy_mean",
        "summary-ordering"])
def test_every_writer_refuses_a_row_and_writes_no_file(tmp_path, write, rows, n, column,
                                                        named):
    path = tmp_path / "out" / "t.csv"
    with pytest.raises(ValueError) as refused:
        write(rows, path)
    assert str(refused.value) == f"{path}: row {n}: {column}: {named}"
    assert list(tmp_path.iterdir()) == []


# a table's cells: each drawn from its column's domain (text for a text column, a
# name its caster knows, an integer >= 0, a float in [0, 1]), and then one cell
# of some rows replaced by any value: an integer < 0, a bool, a float (NaN and
# infinities too), -0.0, text or a name of another column
_COUNT = st.integers(0, 2**63)
_CELLS = {"variant": st.text(), "strategy": st.sampled_from(STRATEGIES),
          "ordering": st.sampled_from(ORDERINGS), "phase": st.sampled_from(PHASES),
          "original_index": _COUNT, "subset_size": _COUNT, "seed": _COUNT, "n_seeds": _COUNT}
_ANY = st.one_of(st.integers(-3, -1), st.booleans(), st.floats(), st.just(-0.0),
                 st.text(max_size=3), st.sampled_from(STRATEGIES + ORDERINGS + PHASES))


def _write_records(rows, path):
    write_records_csv([PviRecord(*row) for row in rows], path)


def _read_records(path):
    return [list(astuple(rec)) for rec in read_records_csv(path)]


def _write_sweep(rows, path):
    write_sweep_csv([SweepPoint(*row[2:7], *row[:2], row[7]) for row in rows], path)


def _read_sweep(path):
    return [[p.variant, p.strategy, p.r, p.subset_size, p.cm_accuracy, p.eim_accuracy,
             p.train_seconds, p.seed] for p in read_sweep_csv(path)]


def _write_stages(rows, path):
    write_stage_csv([StageReport(row[1], row[0], *row[2:]) for row in rows], path)


def _read_stages(path):
    return [[s.ordering, s.r, *astuple(s)[2:]] for s in read_stage_csv(path)]


def _write_summary(rows, path):
    write_csv(path, curriculum._SUMMARY_COLUMNS, rows)


def _read_summary(path):
    return read_csv(path, curriculum._SUMMARY_COLUMNS)


def _write_runtime(rows, path):
    log = RuntimeLog()
    for row in rows:
        log.record(*row)
    log.write_csv(path)


def _read_runtime(path):
    return [list(astuple(rec)) for rec in RuntimeLog.read_csv(path).records]


@pytest.mark.parametrize("columns, write, read", [
    (pvi._CSV_COLUMNS, _write_records, _read_records),
    (reduction._CSV_COLUMNS, _write_sweep, _read_sweep),
    (curriculum._CSV_COLUMNS, _write_stages, _read_stages),
    (curriculum._SUMMARY_COLUMNS, _write_summary, _read_summary),
    (report._RUNTIME_COLUMNS, _write_runtime, _read_runtime),
], ids=["records", "sweep", "stages", "stage_summary", "runtime"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_table_reads_back_what_it_writes_or_writes_nothing(columns, write, read, data):
    cells = st.tuples(*(_CELLS.get(name, st.floats(0, 1)) for name in columns)).map(list)
    rows = data.draw(st.lists(cells, max_size=4))
    if rows and data.draw(st.booleans()):
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.integers(0, len(columns) - 1))] = data.draw(_ANY)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        try:
            write(rows, path)
        except ValueError as exc:
            # RuntimeLog.record refuses a row before any path is given
            where = "" if columns is report._RUNTIME_COLUMNS else rf"{re.escape(path)}: row \d+: "
            assert re.match(rf"{where}({'|'.join(columns)}): ", str(exc)), str(exc)
            assert os.listdir(tmp) == []
        else:
            # a program value reads back equal; text, which every caster also takes
            # as a cell, reads back as the reader reads that cell
            assert read(path) == [[cast(cell) if isinstance(cell, str) else cell
                                   for cast, cell in zip(columns.values(), row)] for row in rows]


@pytest.mark.parametrize("variant", ["a\rb", "\r\r"])
def test_a_text_cell_holding_a_line_break_reads_back(tmp_path, variant):
    path = tmp_path / "sweep.csv"
    points = [replace(_POINT, variant=variant), _POINT]
    write_sweep_csv(points, path)
    assert read_sweep_csv(path) == points
    data = path.read_bytes()  # three LF-terminated records, and the variant's line breaks
    assert (data.count(b"\n"), data.count(b"\r")) == (3 + variant.count("\n"), variant.count("\r"))


def test_atomic_write_makes_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(path, "x\n")
    assert path.read_text() == "x\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


def test_atomic_write_of_a_failing_iterable_leaves_no_file_or_made_directory(tmp_path):
    def pieces():
        yield "one\n"
        raise ValueError("refused midway")
    (tmp_path / "kept").mkdir()
    for path in (tmp_path / "a" / "b" / "out.txt", tmp_path / "kept" / "out.txt"):
        with pytest.raises(ValueError, match="refused midway"):
            atomic_write_text(path, pieces())
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_a_cell_that_cannot_be_formatted_is_refused_with_its_column(tmp_path):
    # int's digit limit: the value passes count, and its text fails
    path = tmp_path / "out" / "pvi.csv"
    with pytest.raises(ValueError) as refused:
        write_records_csv([PviRecord(0, -1.0, -0.5, 0.5), PviRecord(10**5000, -1.0, -0.5, 0.5)],
                          path)
    assert str(refused.value).startswith(f"{path}: row 2: original_index: Exceeds the limit")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edge_label", [5, None, b"<=10"])
def test_the_bucket_table_refuses_an_edge_label_that_is_not_text(tmp_path, edge_label):
    buckets = BucketProportions("chars", (10,), (edge_label, ">=11"), {0: (0.5, 0.5)})
    with pytest.raises(ValueError, match=re.escape(f": row 1: edge_label: expected text, "
                                                   f"got {edge_label!r}")):
        write_bucket_csv(buckets, tmp_path / "out" / "buckets.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("report, named", [
    (replace(_STAGE, accuracy=float("nan")), "row 2: accuracy: nan is not a finite number"),
    (replace(_STAGE, ordering=None), "row 2: ordering: unknown ordering None"),
], ids=["nan-accuracy", "no-ordering"])
def test_the_stage_summary_casts_every_report_before_grouping(tmp_path, report, named):
    path = tmp_path / "out" / "stages_summary.csv"
    with pytest.raises(ValueError) as refused:
        write_stage_summary_csv([_STAGE, report], path)
    assert str(refused.value) == f"{path}: {named}"
    assert list(tmp_path.iterdir()) == []


# lines cut at every kind of line end, next to text that str.splitlines would also
# cut (U+2028, U+0085, FF), and bytes that are not UTF-8
_LINE_BYTES = st.lists(st.sampled_from([b"a", b"\xc3\xa9", b"\xe4\xb8\x80", b"\xf0\xa0\x80\x80",
                                        b"\n", b"\r", b"\r\n", b"\xe2\x80\xa8", b"\xc2\x85",
                                        b"\x0c", b"\xff", b"\xc3", b"\xf0\xa0"]), max_size=30)


@settings(max_examples=300, deadline=None)
@given(parts=_LINE_BYTES, bom=st.booleans(), chunk=st.sampled_from([None, 1, 2, 3, 5]))
@example(parts=[b"a", b"\r"], bom=True, chunk=None)
@example(parts=[b"a", b"\xc3", b"\r\n", b"a"], bom=False, chunk=None)
@example(parts=[b"a", b"\r\n", b"a", b"\r", b"\xff"], bom=True, chunk=1)
def test_read_lines_reads_what_read_text_reads(tmp_path_factory, parts, bom, chunk):
    # chunk, when given, is the number of bytes read_lines decodes at a time, so a
    # chunk can end inside a BOM, a CRLF or a multi-byte character
    data = (codecs.BOM_UTF8 if bom else b"") + b"".join(parts)
    path = tmp_path_factory.mktemp("lines") / "d.txt"
    path.write_bytes(data)
    try:
        want = [line.removesuffix("\n") for line in io.StringIO(read_text(path), newline=None)]
    except DataError as exc:
        want = str(exc)

    def open_in_chunks(*args, **kwargs):
        fh = open(*args, **kwargs)
        if isinstance(fh, io.TextIOWrapper):
            fh._CHUNK_SIZE = chunk
        return fh
    with pytest.MonkeyPatch.context() as patch:
        if chunk:
            patch.setattr(tables, "open", open_in_chunks, raising=False)
        try:
            got = list(read_lines(path))
        except DataError as exc:
            got = str(exc)
    assert got == want


def test_read_lines_names_a_missing_file_when_called(tmp_path):
    with pytest.raises(DataError, match="^file not found: "):
        read_lines(tmp_path / "missing.jsonl")


def test_closing_an_unread_read_lines_closes_its_file(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("a\nb\n")
    lines = read_lines(path)
    fh = lines.gi_frame.f_locals["fh"]
    assert not fh.closed
    lines.close()
    assert fh.closed


def _scoped(node, kind, scope="<module>"):
    """(name of the enclosing function, child) for every `kind` node below `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind):
            yield scope, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scoped(child, kind, inner)


def test_files_are_opened_only_by_the_one_reader_and_the_writers():
    """tables holds every open in the package: read_text and read_lines (by _lines)
    are the readers of input files, sha256_file the manifest's hash and atomic_write_text the
    one writer; and cli.py never asks whether a path exists (both readers name a
    missing file)."""
    opens, exists = set(), []
    for path in sorted(Path(pvireduce.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        opens |= {(path.stem, scope) for scope, call in _scoped(tree, ast.Call)
                  if getattr(call.func, "id", getattr(call.func, "attr", None)) == "open"}
        exists += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if path.stem == "cli" and isinstance(node, ast.Attribute)
                   and ast.unparse(node) == "os.path.exists"]
    assert opens == {("tables", "read_text"), ("tables", "_lines"),
                     ("tables", "sha256_file"), ("tables", "atomic_write_text")}
    assert exists == []


def test_scipys_private_kernels_are_imported_only_by_family():
    """scipy.sparse._sparsetools is private to scipy, so one function owns its import:
    family._sparse_product, whose products the tests pin to csr_matrix @ ndarray's."""
    found = set()
    for path in sorted(Path(pvireduce.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, node in _scoped(tree, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{name}" for name in names] + [node.module or ""]
            if any(name.startswith("scipy.sparse._sparsetools") for name in names):
                found.add((path.stem, scope))
    assert found == {("family", "_sparse_product")}


# each module imports only modules before it, and the two experiment drivers,
# reduction and curriculum, do not import each other; __init__ re-exports every
# module but cli, and `from . import x` imports it
LAYERS = ("tables", "corpus", "family", "pvi", "report", "reduction", "curriculum",
          "__init__", "cli")


def test_the_package_imports_in_one_direction():
    """No package import inside a function (scipy's lazy imports are not package
    imports), and each module imports only earlier layers."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    found = {}
    for path in sorted(Path(pvireduce.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.stem] = [(scope, node.module or "__init__")
                            for scope, node in _scoped(tree, ast.ImportFrom) if node.level]
    assert set(found) == set(LAYERS)
    for name, imports in found.items():
        assert [(scope, module) for scope, module in imports if scope != "<module>"] == [], name
        assert all(rank[module] < rank[name] for _, module in imports), (name, imports)
    assert "curriculum" not in {module for _, module in found["reduction"]}
    assert "reduction" not in {module for _, module in found["curriculum"]}
