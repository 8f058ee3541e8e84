"""Byte identity of every --no-timing output, as a committed table.

The test runs a fixed CLI matrix (GENS, then RUNS) in-process, with
relative paths, in two fresh directories. Both runs must give the same SHA-256 for every file they
leave behind (the rerun contract), and that table must equal the committed
one in golden.json (the outputs have not changed).

A change that means to change outputs regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and lists each changed entry, with its reason, in CHANGES.md. A numpy or
scipy upgrade may move the digests too.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from cjk import ASTRAL, CJK, translate_corpus
from pvireduce.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden.json")

_TRAIN = ("--epochs", "2")
_SWEEP = ("sweep", "--train", "gen/train.jsonl", "--test", "gen_test/test.jsonl",
          "--ratios", "0,0.3,0.6", *_TRAIN)
_CURRICULUM = ("curriculum", "--train", "gen/train.jsonl", "--test", "gen_test/test.jsonl",
               "--ratios", "0,0.2", *_TRAIN)

# each gen writes manifest.json next to --out, so each gets its own directory
GENS = (
    ("gen", "--n", "400", "--seed", "11", "--out", "gen/train.jsonl"),
    ("gen", "--n", "150", "--seed", "12", "--out", "gen_test/test.jsonl"),
    ("gen", "--n", "200", "--seed", "13", "--mix", "0.2,0.3,0.5", "--format", "tsv",
     "--out", "gen_tsv/data.tsv"),
)
# cjk*/ and astral/ hold gen's corpora mapped onto ideographs (see cjk.py)
DERIVED = (
    ("cjk/train.jsonl", "gen/train.jsonl", CJK),
    ("cjk/test.jsonl", "gen_test/test.jsonl", CJK),
    ("cjk_tsv/data.tsv", "gen_tsv/data.tsv", CJK),
    ("astral/train.jsonl", "gen/train.jsonl", ASTRAL),
    ("astral/test.jsonl", "gen_test/test.jsonl", ASTRAL),
)
# crlf/ and bom/ hold copies of gen's files with CRLF line ends and a byte-order mark
RUNS = (
    ("pvi", "--train", "gen/train.jsonl", "--save-models", "--out-dir", "pvi_self", *_TRAIN),
    ("pvi", "--train", "gen/train.jsonl", "--on", "gen_test/test.jsonl",
     "--out-dir", "pvi_on", *_TRAIN),
    ("pvi", "--train", "gen_tsv/data.tsv", "--format", "tsv", "--out-dir", "pvi_tsv", *_TRAIN),
    ("pvi", "--train", "crlf/train.jsonl", "--on", "bom/test.jsonl",
     "--out-dir", "pvi_crlf_bom", *_TRAIN),
    ("stats", "--data", "gen/train.jsonl", "--out-dir", "stats_chars"),
    ("stats", "--data", "gen_tsv/data.tsv", "--format", "tsv", "--unit", "tokens",
     "--out-dir", "stats_tokens"),
    (*_SWEEP, "--strategy", "pvi", "--out-dir", "sweep_pvi"),
    (*_SWEEP, "--strategy", "pvi_balanced", "--out-dir", "sweep_balanced"),
    (*_SWEEP, "--strategy", "random", "--derived-seeds", "--out-dir", "sweep_random"),
    (*_SWEEP, "--variant", "noisy", "--noise-ratio", "0.2", "--out-dir", "sweep_noisy"),
    (*_SWEEP, "--variant", "imbalanced", "--keep-fractions", "1,0.5,0.25",
     "--out-dir", "sweep_imbalanced"),
    ("report", "--sweep-csv", "sweep_pvi/sweep.csv", "--runtime-csv", "sweep_pvi/runtime.csv",
     "--out-dir", "report"),
    (*_CURRICULUM, "--ordering", "easy_first", "--seeds", "2", "--out-dir", "curr_easy"),
    (*_CURRICULUM, "--ordering", "hard_first", "--warm-start", "--out-dir", "curr_hard"),
    (*_CURRICULUM, "--ordering", "original", "--out-dir", "curr_original"),
    ("pvi", "--train", "cjk/train.jsonl", "--on", "cjk/test.jsonl", "--out-dir", "pvi_cjk",
     *_TRAIN),
    ("pvi", "--train", "cjk_tsv/data.tsv", "--format", "tsv", "--out-dir", "pvi_cjk_tsv",
     *_TRAIN),
    ("pvi", "--train", "astral/train.jsonl", "--on", "astral/test.jsonl",
     "--out-dir", "pvi_astral", *_TRAIN),
    ("sweep", "--train", "cjk/train.jsonl", "--test", "cjk/test.jsonl", "--ratios", "0,0.3,0.6",
     "--out-dir", "sweep_cjk", *_TRAIN),
    ("curriculum", "--train", "astral/train.jsonl", "--test", "astral/test.jsonl",
     "--ratios", "0,0.2", "--ordering", "easy_first", "--out-dir", "curr_astral", *_TRAIN),
)


def _digests(directory: str) -> dict[str, str]:
    """Path relative to `directory` -> SHA-256, for every file below it."""
    return {path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).rglob("*")) if path.is_file()}


def run_matrix() -> dict[str, str]:
    """Run GENS, make the copies, then RUNS, in the current directory; relative
    path -> SHA-256 of every file left behind."""
    for argv in GENS:
        assert main([*argv, "--no-timing"]) == 0, argv
    for copy, source, convert in (
            ("crlf/train.jsonl", "gen/train.jsonl", lambda b: b.replace(b"\n", b"\r\n")),
            ("bom/test.jsonl", "gen_test/test.jsonl", lambda b: b"\xef\xbb\xbf" + b)):
        Path(copy).parent.mkdir()
        Path(copy).write_bytes(convert(Path(source).read_bytes()))
    for copy, source, table in DERIVED:
        translate_corpus(source, copy, table)
    for argv in RUNS:
        assert main([*argv, "--no-timing"]) == 0, argv
    return _digests(".")


def test_no_timing_outputs_match_the_committed_table(tmp_path, monkeypatch):
    tables = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        tables.append(run_matrix())
    assert tables[0] == tables[1]
    # CRLF line ends and a byte-order mark load like the plain files
    assert tables[0]["pvi_crlf_bom/pvi.csv"] == tables[0]["pvi_on/pvi.csv"]
    assert tables[0] == json.loads(GOLDEN.read_text())


def _flag_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _replay_argv(manifest: dict, out_dir: str, ini: Path) -> list[str]:
    """The argv that gives `manifest`'s config: lists comma-joined, true booleans
    as bare flags, None and false left out, hyperparams as an INI --config."""
    argv = [manifest["command"], "--out-dir", out_dir]
    for key, value in manifest["config"].items():
        if key == "hyperparams":
            ini.write_text("[hyperparams]\n" + "".join(
                f"{name} = {_flag_value(field)}\n" for name, field in value.items()))
            key, value = "config", str(ini)
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, _flag_value(value)]
    return argv


def test_each_manifest_replays_its_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_matrix()
    for argv in RUNS:
        out_dir = argv[argv.index("--out-dir") + 1]
        manifest = json.loads(Path(out_dir, "manifest.json").read_text())
        replay = f"replay/{out_dir}"
        assert main(_replay_argv(manifest, replay, tmp_path / f"{out_dir}.ini")) == 0, argv
        assert _digests(replay) == _digests(out_dir), argv


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        table = run_matrix()
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
