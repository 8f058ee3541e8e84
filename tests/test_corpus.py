import codecs
import json
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvireduce import (Dataset, Hyperparams, LabeledInstance, NoiseSpec,
                       evaluate, filter_invalid, generate_synthetic,
                       inject_noise, load_dataset, make_imbalanced, serialize,
                       to_null_view, train)
from pvireduce import cli, family
from pvireduce.cli import load_config_file
from pvireduce.corpus import (_EASY_KEYWORDS, DEFAULT_LABELS, DataError,
                              synthetic_difficulty_tags)
from pvireduce.family import constant_predictor, load_model, save_model
from pvireduce.reduction import SweepPoint, read_sweep_csv, write_sweep_csv
from pvireduce.report import RuntimeLog


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_canonical_mapping(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [
        {"premise": "a", "hypothesis": "b", "label": "entailment"},
        {"premise": "c", "hypothesis": "d", "label": "neutral"},
        {"premise": "e", "hypothesis": "f", "label": "contradiction"},
    ])
    ds = load_dataset(path, "jsonl", 3)
    assert len(ds) == 3
    assert [i.label for i in ds] == [0, 1, 2]
    assert [i.original_index for i in ds] == [0, 1, 2]


def _at(path, line: int) -> str:
    """A regex for the `<path>:<line>` that starts every located error."""
    return re.escape(f"{path}:{line}")


def test_load_unknown_label_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [
        {"premise": "a", "hypothesis": "b", "label": "entailment"},
        {"premise": "c", "hypothesis": "d", "label": "maybe"},
    ])
    with pytest.raises(DataError, match=_at(path, 2)):
        load_dataset(path, "jsonl", 3)


def test_load_missing_field_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [{"premise": "a", "label": "neutral"}])
    with pytest.raises(DataError, match=_at(path, 1)):
        load_dataset(path, "jsonl", 3)


def test_load_tsv(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("p1\th1\tentailment\np2\th2\tcontradiction\n", encoding="utf-8")
    ds = load_dataset(path, "tsv", 3)
    assert [i.label for i in ds] == [0, 2]
    assert ds.instances[1].premise == "p2"


@pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
def test_roundtrip_identity(tmp_path, fmt):
    ds = generate_synthetic(50, 3, (0.4, 0.3, 0.3), seed=5)
    path = tmp_path / f"d.{fmt}"
    serialize(ds, path, fmt)
    back = load_dataset(path, fmt, 3)
    assert len(back) == len(ds)
    for a, b in zip(ds, back):
        assert (a.premise, a.hypothesis, a.label) == (b.premise, b.hypothesis, b.label)


def test_an_unknown_format_is_refused_by_reader_writer_and_cli(tmp_path, capsys):
    path = tmp_path / "d.jsonl"
    path.write_text('{"premise": "a", "hypothesis": "b", "label": 0}\n')
    with pytest.raises(ValueError, match="^unknown format 'csv'$"):
        load_dataset(path, "csv", 3)
    with pytest.raises(ValueError, match="^unknown format 'csv'$"):
        serialize(load_dataset(path), tmp_path / "out.csv", "csv")
    assert not (tmp_path / "out.csv").exists()
    assert cli.main(["stats", "--data", str(path), "--format", "csv"]) == 1
    assert "usage error: argument --format: invalid choice: 'csv'" in capsys.readouterr().err


def test_filter_invalid():
    insts = [LabeledInstance(i, f"p{i}", f"h{i}", i % 3) for i in range(5)]
    insts[2] = LabeledInstance(2, "p2", "", 2)
    ds = Dataset(tuple(insts), 3)
    out, report = filter_invalid(ds)
    assert len(out) == 4
    assert report == {"empty_field": 1}
    assert [i.original_index for i in out] == [0, 1, 3, 4]


def test_filter_invalid_clean_identity():
    ds = generate_synthetic(20, 3, (1.0, 0.0, 0.0), seed=1)
    out, report = filter_invalid(ds)
    assert out.instances == ds.instances
    assert report == {}


def test_filter_invalid_all_bad():
    insts = (LabeledInstance(0, "", "h", 0), LabeledInstance(1, "p", "x\x07y", 1))
    out, report = filter_invalid(Dataset(insts, 3))
    assert len(out) == 0
    assert sum(report.values()) == 2


def test_null_view_preserves_everything_else():
    ds = generate_synthetic(30, 3, (0.5, 0.3, 0.2), seed=9)
    null = to_null_view(ds)
    assert len(null) == len(ds)
    assert all(i.premise == "" and i.hypothesis == "" for i in null)
    assert [i.label for i in null] == [i.label for i in ds]
    assert [i.original_index for i in null] == [i.original_index for i in ds]
    assert null.provenance_tag == "null-view"
    assert to_null_view(null).instances == null.instances  # idempotent


def test_null_view_empty():
    ds = Dataset((), 3)
    assert len(to_null_view(ds)) == 0


def test_changed_datasets_start_without_feature_rows():
    ds = generate_synthetic(30, 3, (0.5, 0.3, 0.2), seed=9)
    family._features(ds, Hyperparams(hash_bits=10))
    assert ds._features
    for changed in (replace(ds, provenance_tag="copy"), to_null_view(ds),
                    inject_noise(ds, NoiseSpec(0.5, seed=7))):
        assert changed._features == {}


def test_feature_rows_take_no_part_in_equality_or_hash():
    a = generate_synthetic(30, 3, (0.5, 0.3, 0.2), seed=9)
    b = generate_synthetic(30, 3, (0.5, 0.3, 0.2), seed=9)
    family._features(a, Hyperparams(hash_bits=10))
    assert a._features and not b._features
    assert a == b and hash(a) == hash(b)


def test_inject_noise_exact_count():
    ds = generate_synthetic(100, 3, (0.5, 0.3, 0.2), seed=4)
    noisy = inject_noise(ds, NoiseSpec(0.1, seed=7))
    changed = sum((a.premise, a.hypothesis) != (b.premise, b.hypothesis)
                  for a, b in zip(ds, noisy))
    assert changed == 10
    assert [a.label for a in noisy] == [b.label for b in ds]
    assert noisy.provenance_tag == "noisy"


def test_inject_noise_zero_ratio_identity():
    ds = generate_synthetic(40, 3, (0.5, 0.3, 0.2), seed=4)
    assert inject_noise(ds, NoiseSpec(0.0, seed=7)).instances == ds.instances


def test_inject_noise_deterministic():
    ds = generate_synthetic(80, 3, (0.5, 0.3, 0.2), seed=4)
    spec = NoiseSpec(0.25, seed=99)
    assert inject_noise(ds, spec).instances == inject_noise(ds, spec).instances


@pytest.mark.parametrize("ratio,m", [(0.37, 113), (0.5, 51), (1.0, 20)])
def test_inject_noise_count_law(ratio, m):
    ds = generate_synthetic(m, 3, (0.5, 0.3, 0.2), seed=3)
    noisy = inject_noise(ds, NoiseSpec(ratio, seed=1))
    changed = sum(a != b for a, b in zip(ds, noisy))
    assert changed == int(np.floor(ratio * m + 0.5))


def test_make_imbalanced_counts():
    ds = generate_synthetic(300, 3, (0.5, 0.3, 0.2), seed=6)
    assert ds.class_counts().tolist() == [100, 100, 100]
    out = make_imbalanced(ds, (1.0, 0.6, 0.3), seed=2)
    assert out.class_counts().tolist() == [100, 60, 30]
    assert out.provenance_tag == "imbalanced"


def test_make_imbalanced_identity():
    ds = generate_synthetic(60, 3, (0.5, 0.3, 0.2), seed=6)
    out = make_imbalanced(ds, (1.0, 1.0, 1.0), seed=2)
    assert out.instances == ds.instances


def test_make_imbalanced_zero_guard():
    ds = generate_synthetic(300, 3, (0.5, 0.3, 0.2), seed=6)
    with pytest.raises(ValueError):
        make_imbalanced(ds, (1.0, 1.0, 0.001), seed=2)


def test_make_imbalanced_deterministic():
    ds = generate_synthetic(120, 3, (0.5, 0.3, 0.2), seed=6)
    a = make_imbalanced(ds, (1.0, 0.5, 0.5), seed=3)
    b = make_imbalanced(ds, (1.0, 0.5, 0.5), seed=3)
    assert a.instances == b.instances


def test_generate_synthetic_balance_and_determinism():
    ds = generate_synthetic(3000, 3, (0.5, 0.3, 0.2), seed=1)
    counts = ds.class_counts()
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == 3000
    ds2 = generate_synthetic(3000, 3, (0.5, 0.3, 0.2), seed=1)
    assert ds.instances == ds2.instances


def test_generate_synthetic_guards():
    with pytest.raises(ValueError):
        generate_synthetic(2, 3)
    with pytest.raises(ValueError):
        generate_synthetic(10, 3, (0.5, 0.3, 0.3))
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        generate_synthetic(10, 3, seed=-1)


def test_generate_synthetic_refuses_a_count_no_list_can_hold():
    # refused before anything is allocated
    with pytest.raises(ValueError, match=rf"^num_instances must be <= {sys.maxsize}, "
                                         rf"got {10**20}$"):
        generate_synthetic(10**20, 3)


def test_easy_corpus_keyword_rule_oracle():
    # labels of an all-easy corpus must be recoverable by exact keyword match,
    # independently of any trained model
    ds = generate_synthetic(600, 3, (1.0, 0.0, 0.0), seed=13)
    for inst in ds:
        hits = [c for c, kws in enumerate(_EASY_KEYWORDS)
                if any(kw in inst.hypothesis.split() for kw in kws)]
        assert hits == [inst.label]


def test_easy_corpus_is_learnable():
    ds = generate_synthetic(600, 3, (1.0, 0.0, 0.0), seed=13)
    model = train(ds, Hyperparams(epochs=8))
    assert evaluate(model, ds).accuracy >= 0.99


def test_difficulty_tags_match_mix():
    tags = synthetic_difficulty_tags(1000, (0.5, 0.3, 0.2), seed=1)
    assert tags.count("easy") == 500
    assert tags.count("medium") == 300
    assert tags.count("hard") == 200


def _input_file(kind, tmp_path):
    """A valid input file of `kind`, four lines or more: its name, its text, and
    the function that reads it into a value that compares by content."""
    if kind in ("jsonl", "tsv"):
        sample = tmp_path / f"sample.{kind}"
        serialize(generate_synthetic(4, 3, seed=5), sample, kind)
        return f"d.{kind}", sample.read_text(encoding="utf-8"), \
            lambda path: load_dataset(path, kind)
    sample = tmp_path / "sample"
    if kind == "sweep_csv":
        write_sweep_csv([SweepPoint(r, 10, 0.5, 0.25, 0.0, "original", "pvi", 1)
                         for r in (0.0, 0.3, 0.6, 0.9)], sample)
        return "sweep.csv", sample.read_text(encoding="utf-8"), read_sweep_csv
    if kind == "runtime_csv":
        log = RuntimeLog()
        for r in (0.0, 0.3, 0.6, 0.9):
            log.record("original", r, "train_cm", r / 10)
        log.write_csv(sample)
        return "runtime.csv", sample.read_text(encoding="utf-8"), \
            lambda path: RuntimeLog.read_csv(path).records
    if kind == "model_json":
        save_model(constant_predictor([0.5, 0.25, 0.25], Hyperparams(hash_bits=4)), sample)
        text = json.dumps(json.loads(sample.read_text(encoding="utf-8")), indent=1)
        return "model.json", text + "\n", lambda path: (
            (m := load_model(path)).weights.tolist(), m.bias.tolist(), m.num_classes,
            m.hyperparams, m.trained_on, m.epoch_losses)
    return "run.ini", "[hyperparams]\nepochs = 2\nseed = 3\nbatch_size = 8\n", load_config_file


_INPUT_KINDS = ["jsonl", "tsv", "sweep_csv", "runtime_csv", "model_json", "ini_config"]


@pytest.mark.parametrize("kind", _INPUT_KINDS)
def test_load_skips_a_utf8_bom(tmp_path, kind):
    name, text, read = _input_file(kind, tmp_path)
    plain, bom = tmp_path / f"plain-{name}", tmp_path / f"bom-{name}"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(bom) == read(plain)


@pytest.mark.parametrize("kind", _INPUT_KINDS)
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_load_invalid_utf8_names_line(tmp_path, kind, newline):
    name, text, read = _input_file(kind, tmp_path)
    lines = text.encode("utf-8").split(b"\n")
    lines[2] += b"\xff"
    path = tmp_path / name
    path.write_bytes(newline.join(lines))
    with pytest.raises(DataError, match=f"^{_at(path, 3)}: invalid UTF-8 byte 0xff "):
        read(path)


@pytest.mark.parametrize("kind", _INPUT_KINDS)
def test_load_invalid_utf8_after_a_bom_names_line(tmp_path, kind):
    name, text, read = _input_file(kind, tmp_path)
    lines = text.encode("utf-8").split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path = tmp_path / name
    path.write_bytes(codecs.BOM_UTF8 + b"\n".join(lines))
    with pytest.raises(DataError, match=f"^{_at(path, 2)}: invalid UTF-8 byte 0xff "):
        read(path)


def test_load_jsonl_integer_labels(tmp_path):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [
        {"premise": "a", "hypothesis": "b", "label": 2},
        {"premise": "c", "hypothesis": "d", "label": "neutral"},
        {"premise": "e", "hypothesis": "f", "label": 0},
    ])
    assert [i.label for i in load_dataset(path, "jsonl", 3)] == [2, 1, 0]


@pytest.mark.parametrize("label", [3, -1, True, False, 1.0])
def test_load_jsonl_rejects_bad_label_values(tmp_path, label):
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [{"premise": "a", "hypothesis": "b", "label": "neutral"},
                        {"premise": "c", "hypothesis": "d", "label": label}])
    with pytest.raises(DataError, match=_at(path, 2)):
        load_dataset(path, "jsonl", 3)


@pytest.mark.parametrize("field", ["premise", "hypothesis"])
@pytest.mark.parametrize("value", [None, 5, ["a"]])
def test_load_jsonl_rejects_non_string_text(tmp_path, field, value):
    row = {"premise": "a", "hypothesis": "b", "label": "neutral", field: value}
    path = tmp_path / "d.jsonl"
    _write_jsonl(path, [row])
    with pytest.raises(DataError, match=_at(path, 1) + f": field '{field}'"):
        load_dataset(path, "jsonl", 3)


def test_load_jsonl_rejects_non_object_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("5\n", encoding="utf-8")
    with pytest.raises(DataError, match=_at(path, 1)):
        load_dataset(path, "jsonl", 3)


@pytest.mark.parametrize("field", ["premise", "hypothesis"])
@pytest.mark.parametrize("escape", ["\\ud800", "\\udfff", "\\ude00\\ud83d"])
def test_load_jsonl_rejects_lone_surrogate(tmp_path, field, escape):
    # escaped BMP characters and surrogate pairs are valid text
    valid = '{"premise": "caf\\u00e9 \\ud83d\\ude00", "hypothesis": "b", "label": 0}\n'
    texts = {"premise": '"a"', "hypothesis": '"b"', field: '"x' + escape + 'y"'}
    path = tmp_path / "d.jsonl"
    path.write_text(valid, encoding="utf-8")
    assert load_dataset(path, "jsonl", 3).instances[0].premise == "caf\u00e9 \U0001F600"
    path.write_text(valid + '{"premise": ' + texts["premise"] + ', "hypothesis": '
                    + texts["hypothesis"] + ', "label": 1}\n', encoding="utf-8")
    with pytest.raises(DataError, match=_at(path, 2) + f": field '{field}' holds a lone surrogate"):
        load_dataset(path, "jsonl", 3)


@pytest.mark.parametrize("fmt, good, bad", [
    ("jsonl", b'{"premise": "a", "hypothesis": "b", "label": 0}',
     b'{"premise": "a\xffb", "hypothesis": "b", "label": 0}'),
    ("tsv", b"a\tb\tneutral", b"a\tb\xc3\tneutral"),
], ids=["jsonl", "tsv"])
@pytest.mark.parametrize("lines, tail, where", [
    ("good good bad good", b"\r", 3),   # a CR-terminated bad line
    ("good good good bad", b"", 4),      # a bad final line with no newline
], ids=["cr", "no-final-newline"])
def test_load_invalid_utf8_names_line_at_any_line_end(tmp_path, fmt, good, bad,
                                                       lines, tail, where):
    path = tmp_path / f"d.{fmt}"
    rows = [good if name == "good" else bad for name in lines.split()]
    path.write_bytes(b"\r".join(rows) + tail)
    with pytest.raises(DataError, match=_at(path, where) + ": invalid UTF-8 byte 0x(ff|c3)"):
        load_dataset(path, fmt, 3)


def test_load_jsonl_refuses_a_line_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.jsonl"
    depth = 10 * sys.getrecursionlimit()
    path.write_text('{"premise": "a", "hypothesis": "b", "label": 0}\n'
                    + "[" * depth + "]" * depth + "\n", encoding="utf-8")
    with pytest.raises(DataError,
                       match=f"^{_at(path, 2)}" + r": invalid JSON \(nested too deeply\)$"):
        load_dataset(path, "jsonl", 3)


def _text_mode_reference(path, fmt):
    """Reference for load_dataset on a valid file: text-mode reading with utf-8-sig,
    which drops a leading BOM and ends a line at LF, CR or CRLF."""
    instances = []
    with open(path, encoding="utf-8-sig") as fh:
        for index, line in enumerate(fh):
            text = line.rstrip("\n")
            if fmt == "jsonl":
                rec = json.loads(text)
                premise, hypothesis, label = rec["premise"], rec["hypothesis"], rec["label"]
            else:
                premise, hypothesis, label = text.split("\t")
            instances.append(LabeledInstance(index, premise, hypothesis,
                                             DEFAULT_LABELS.index(label)))
    return Dataset(tuple(instances), 3)


_LINE_ENDS = {"lf": ["\n"], "crlf": ["\r\n"], "cr": ["\r"], "mixed": ["\n", "\r\n", "\r"]}


@pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
@pytest.mark.parametrize("ends", list(_LINE_ENDS))
@pytest.mark.parametrize("bom", [False, True], ids=["no-bom", "bom"])
@pytest.mark.parametrize("final_newline", [False, True], ids=["no-final", "final"])
def test_load_matches_text_mode_reading(tmp_path, fmt, ends, bom, final_newline):
    ds = generate_synthetic(7, 3, seed=5)
    path = tmp_path / f"d.{fmt}"
    serialize(ds, path, fmt)
    lines = path.read_text(encoding="utf-8").splitlines()
    seps = [_LINE_ENDS[ends][i % len(_LINE_ENDS[ends])] for i in range(len(lines))]
    text = "".join(line + sep for line, sep in zip(lines, seps))
    if not final_newline:
        text = text[:-len(seps[-1])]
    path.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8"))
    loaded = load_dataset(path, fmt, 3)
    assert loaded == _text_mode_reference(path, fmt)
    assert [(i.premise, i.hypothesis, i.label) for i in loaded] == \
        [(i.premise, i.hypothesis, i.label) for i in ds]


@pytest.mark.parametrize("field", ["premise", "hypothesis"])
@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_serialize_tsv_refuses_unencodable_text(tmp_path, field, char):
    insts = [LabeledInstance(0, "fine", "fine", 0),
             LabeledInstance(7, "fine", "fine", 1)]
    insts[1] = replace(insts[1], **{field: f"a{char}b"})
    for path in (tmp_path / "d.tsv", tmp_path / "missing" / "dir" / "d.tsv"):
        with pytest.raises(DataError, match=f"original_index 7: field '{field}'"):
            serialize(Dataset(tuple(insts), 3), path, "tsv")
        assert list(tmp_path.iterdir()) == []
    serialize(Dataset(tuple(insts), 3), tmp_path / "d.jsonl", "jsonl")
    assert load_dataset(tmp_path / "d.jsonl", "jsonl", 3).instances[1] == \
        replace(insts[1], original_index=1)


# TSV refuses a tab, LF or CR in a text; valid Unicode has no lone surrogates
_TSV_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"))
_PAIRS = {
    "jsonl": st.tuples(st.text(), st.text(), st.integers(0, 2)),
    "tsv": st.tuples(_TSV_TEXT, _TSV_TEXT, st.integers(0, 2)),
}


@pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_dataset_inverts_serialize(fmt, data):
    rows = data.draw(st.lists(_PAIRS[fmt], max_size=8), label="rows")
    ds = Dataset(tuple(LabeledInstance(i, *row) for i, row in enumerate(rows)), 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"d.{fmt}"
        serialize(ds, path, fmt)
        back = load_dataset(path, fmt, 3)
    assert back == ds
