import pytest

from pvireduce.tables import atomic_write_text, f17, read_csv, write_csv


def test_f17_roundtrips():
    for x in (0.1, 1 / 3, -2.5e-300, 0.0):
        assert float(f17(x)) == x
    assert f17(0.3) == "0.29999999999999999"


def test_write_csv_is_lf_and_quotes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, "x,y"], [2, 'q"']])
    assert path.read_bytes() == b'a,b\n1,"x,y"\n2,"q"""\n'
    assert read_csv(path, ["a", "b"]) == [["1", "x,y"], ["2", 'q"']]


@pytest.mark.parametrize("content, where", [("", "t.csv:"), ("a,c\n1,2\n", "t.csv:"),
                                             ("a,b\n1,2\n3\n", "t.csv:3:")])
def test_read_csv_rejects_malformed_tables(tmp_path, content, where):
    path = tmp_path / "t.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=where):
        read_csv(path, ["a", "b"])


def test_atomic_write_replaces_and_keeps_open_permissions(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "one\n")
    atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert path.stat().st_mode == plain.stat().st_mode
