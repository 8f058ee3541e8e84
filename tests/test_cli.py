import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pvireduce import cli, family, pvi
from pvireduce.cli import main
from pvireduce.corpus import generate_synthetic, load_dataset, serialize
from pvireduce.family import Hyperparams
from pvireduce.pvi import train_scorers
from pvireduce.report import RuntimeLog


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.jsonl"
    test = root / "test.jsonl"
    assert main(["gen", "--n", "300", "--seed", "11", "--out", str(train),
                 "--no-timing"]) == 0
    assert main(["gen", "--n", "120", "--seed", "12", "--out", str(test),
                 "--no-timing"]) == 0
    return train, test


def _run(args):
    return main([str(a) for a in args])


def test_gen_row_count(corpora):
    train, _ = corpora
    assert len(train.read_text().strip().split("\n")) == 300
    manifest = json.loads((train.parent / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert "wall_clock_utc" not in manifest


def test_pvi_outputs(tmp_path, corpora):
    train, _ = corpora
    out = tmp_path / "pvi"
    assert _run(["pvi", "--train", train, "--out-dir", out, "--epochs", "2",
                 "--no-timing"]) == 0
    lines = (out / "pvi.csv").read_text().strip().split("\n")
    assert lines[0] == "original_index,null_log2prob,cond_log2prob,pvi"
    assert len(lines) == 301
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 300
    assert set(summary) == {"h_v_y", "h_v_y_given_x", "i_v", "n"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["hyperparams"]["epochs"] == 2
    assert "train" in manifest["input_hashes"]


def test_sweep_outputs(tmp_path, corpora):
    train, test = corpora
    out = tmp_path / "sweep"
    assert _run(["sweep", "--train", train, "--test", test, "--out-dir", out,
                 "--ratios", "0,0.5", "--epochs", "2", "--no-timing"]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + r=0 + r=0.5
    runtime = (out / "runtime.csv").read_text().strip().split("\n")
    assert runtime[0] == "variant,r,phase,seconds"


def test_curriculum_outputs(tmp_path, corpora):
    train, test = corpora
    out = tmp_path / "curr"
    assert _run(["curriculum", "--train", train, "--test", test,
                 "--out-dir", out, "--ratios", "0,0.2", "--epochs", "2",
                 "--seeds", "2", "--no-timing"]) == 0
    lines = (out / "stages.csv").read_text().strip().split("\n")
    assert len(lines) == 5  # header + 2 ratios x 2 seeds
    assert (out / "stages_summary.csv").exists()


def test_stats_outputs(tmp_path, corpora):
    train, _ = corpora
    out = tmp_path / "stats"
    assert _run(["stats", "--data", train, "--out-dir", out,
                 "--unit", "tokens", "--no-timing"]) == 0
    assert (out / "stats.csv").exists()
    assert (out / "buckets.csv").exists()


def test_report_outputs(tmp_path, corpora):
    train, test = corpora
    sweep_dir = tmp_path / "sweep"
    assert _run(["sweep", "--train", train, "--test", test,
                 "--out-dir", sweep_dir, "--ratios", "0,0.5", "--epochs", "2",
                 "--no-timing"]) == 0
    out = tmp_path / "plots"
    assert _run(["report", "--sweep-csv", sweep_dir / "sweep.csv",
                 "--runtime-csv", sweep_dir / "runtime.csv",
                 "--out-dir", out, "--no-timing"]) == 0
    assert (out / "accuracy.svg").read_text().startswith("<svg")
    assert (out / "runtime.svg").read_text().startswith("<svg")


def test_config_file_resolution(tmp_path, corpora):
    train, _ = corpora
    cfg = tmp_path / "run.ini"
    cfg.write_text("[hyperparams]\nepochs = 3\nseed = 99\n")
    out = tmp_path / "pvi"
    assert _run(["pvi", "--train", train, "--out-dir", out,
                 "--config", cfg, "--seed", "7", "--no-timing"]) == 0
    hp = json.loads((out / "manifest.json").read_text())["config"]["hyperparams"]
    assert hp["epochs"] == 3
    assert hp["seed"] == 7  # flag beats config


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_config_lines_end_at_lf_cr_or_crlf(tmp_path, newline):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(newline.join(["[hyperparams]", "epochs = 3", "seed = 99", ""]).encode())
    assert cli.load_config_file(cfg) == {"epochs": "3", "seed": "99"}


def test_exit_code_usage_error(capsys):
    assert main(["sweep", "--train", "x"]) == 1  # missing required --test
    assert "usage error" in capsys.readouterr().err


def test_exit_code_data_error(tmp_path, capsys):
    assert main(["pvi", "--train", str(tmp_path / "missing.jsonl"),
                 "--out-dir", str(tmp_path)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 96.0 GiB for an array with shape (3, 4294967296) and data type float64",
     "data error: out of memory: Unable to allocate 96.0 GiB for an array with shape "
     "(3, 4294967296)"),
    ("", "data error: out of memory\n"),
])
def test_memory_error_is_a_data_error(tmp_path, capsys, monkeypatch, corpora, message, shown):
    # no real allocation: the command raises what numpy raises for one too large
    def allocate(args, hp):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_pvi", allocate)
    train, _ = corpora
    assert _run(["pvi", "--train", train, "--out-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert shown in err
    assert "Traceback" not in err


def test_weights_larger_than_memory_are_a_data_error(tmp_path, capsys, monkeypatch, corpora):
    # the memory figure is patched below the default (3, 2**16) matrix, so nothing large
    # is allocated
    monkeypatch.setattr(family, "_physical_memory", lambda: 2**20)
    train, _ = corpora
    out = tmp_path / "out"
    assert _run(["pvi", "--train", train, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: hash_bits = 16 needs a 3 x 65536 float64 weight matrix")
    assert "Traceback" not in err
    assert not out.exists()


# runs main(argv) in a fresh interpreter and prints whether scipy was loaded
_SCIPY_PROBE = """
import sys
import pvireduce, pvireduce.cli
code = pvireduce.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, "scipy" in sys.modules)
"""


@pytest.mark.parametrize("command, loads_scipy", [
    ([], False),
    (["gen", "--n", "30", "--out", "{tmp}/gen/data.jsonl"], False),
    (["stats", "--data", "{train}", "--out-dir", "{tmp}/stats"], False),
    (["report", "--sweep-csv", "{sweep_csv}", "--runtime-csv", "{runtime_csv}",
      "--out-dir", "{tmp}/report"], False),
    (["pvi", "--train", "{train}", "--epochs", "1", "--out-dir", "{tmp}/pvi"], True),
], ids=["import", "gen", "stats", "report", "pvi"])
def test_scipy_loads_only_for_commands_that_build_a_matrix(tmp_path, corpora, sweep_tables,
                                                           command, loads_scipy):
    # a fresh interpreter, because this one has imported scipy already
    paths = {"tmp": tmp_path, "train": corpora[0], "sweep_csv": sweep_tables[0],
             "runtime_csv": sweep_tables[1]}
    argv = [arg.format(**paths) for arg in command] + (["--no-timing"] if command else [])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.split() == ["0", str(loads_scipy)], proc.stderr


@pytest.mark.parametrize("on", [False, True])
def test_pvi_featurizes_each_scored_set_once(tmp_path, monkeypatch, corpora, on):
    train, test = corpora
    featurized = []
    build = family._hashed_counts

    def spy(premises, hypotheses, hp):
        featurized.extend(zip(premises, hypotheses))
        return build(premises, hypotheses, hp)

    # family's featurizes for training, pvi's for scoring a set with no feature matrix
    for module in (family, pvi):
        monkeypatch.setattr(module, "_hashed_counts", spy)
    argv = ["pvi", "--train", train, "--epochs", "1", "--out-dir", tmp_path / "pvi"]
    scored = [train, test] if on else [train]
    assert _run(argv + (["--on", test] if on else [])) == 0
    # the null model's rows are empty texts; every other featurized row is a data row
    rows = [(inst.premise, inst.hypothesis)
            for path in scored for inst in load_dataset(path, "jsonl")]
    assert sorted(pair for pair in featurized if pair != ("", "")) == sorted(rows)


def test_data_error_leaves_no_partial_files(tmp_path, corpora):
    train, _ = corpora
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"premise": "a", "hypothesis": "b", "label": 0}\nnot json\n')
    out = tmp_path / "out"
    out.mkdir()
    assert _run(["pvi", "--train", bad, "--out-dir", out, "--epochs", "1"]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["pvi", "sweep", "curriculum"])
def test_diverged_training_exits_2_and_leaves_no_partial_files(tmp_path, capsys, corpora,
                                                               command):
    train, test = corpora
    out = tmp_path / "out"
    out.mkdir()
    args = [command, "--train", train, "--out-dir", out, "--learning-rate", "1e300",
            "--epochs", "1", "--no-timing"]
    if command != "pvi":
        args += ["--test", test, "--ratios", "0,0.3"]
    assert _run(args) == 2
    err = capsys.readouterr().err
    assert "training diverged: epoch 1" in err and "learning_rate 1e+300" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_no_timing_reruns_are_byte_identical(tmp_path, corpora):
    train, test = corpora
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run(["sweep", "--train", train, "--test", test,
                     "--out-dir", out, "--ratios", "0,0.3", "--epochs", "2",
                     "--no-timing"]) == 0
        digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert digests[0] == digests[1]


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "pvireduce.cli", "gen",
                           "--n", "0"], capture_output=True, text=True)
    # n=0 is a data error (empty dataset), proving the module entry point runs
    assert proc.returncode in (1, 2)


def test_gen_seed_zero_is_used(tmp_path):
    texts = {}
    for seed in ("0", "1"):
        out = tmp_path / seed / "d.jsonl"
        out.parent.mkdir()
        assert main(["gen", "--n", "30", "--seed", seed, "--out", str(out),
                     "--no-timing"]) == 0
        texts[seed] = out.read_text()
    assert texts["0"] != texts["1"]
    manifest = json.loads((tmp_path / "0" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 0


def test_gen_negative_seed_is_named(tmp_path, capsys):
    assert _run(["gen", "--n", "10", "--seed", "-1", "--out", tmp_path / "new" / "x.jsonl"]) == 2
    assert "data error: seed must be >= 0, got -1\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_count_no_list_can_hold_is_named(tmp_path, capsys):
    assert _run(["gen", "--n", 10**20, "--out", tmp_path / "new" / "x.jsonl"]) == 2
    err = capsys.readouterr().err
    assert f"data error: num_instances must be <= {sys.maxsize}, got {10**20}\n" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", ["", "not,the,header\n"])
@pytest.mark.parametrize("flag", ["--sweep-csv", "--runtime-csv"])
def test_report_malformed_csv_is_data_error(tmp_path, capsys, content, flag):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    assert main(["report", flag, str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(bad) in err


@pytest.mark.parametrize("content, named", [
    ("epochs = 3\n", "no section headers"),
    ("[hyperparams]\nlearning_rate = 5%\n", "learning_rate"),
    ("[hyperparams]\nbatchsize = 8\n", "batchsize"),
    ("[hyperparam]\nepochs = 2\n", "[hyperparam]"),
    ("[DEFAULT]\nepochs = 2\n", "[DEFAULT]"),
    ("[hyperparams]\nepochs = 1_6\n", "hyperparameter epochs = '1_6' cannot be read as int"),
])
def test_malformed_config_is_data_error(tmp_path, capsys, corpora, content, named):
    train, _ = corpora
    cfg = tmp_path / "run.ini"
    cfg.write_text(content)
    out = tmp_path / "out"
    assert _run(["pvi", "--train", train, "--out-dir", out, "--config", cfg,
                 "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(cfg) in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("batch_size", "0"), ("batch_size", "-4"), ("hash_bits", "-1"),
    ("hash_bits", "33"), ("ngram_orders", "0"), ("epochs", "two"),
])
def test_out_of_range_hyperparams_are_data_errors(tmp_path, capsys, corpora, key, value):
    train, _ = corpora
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[hyperparams]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert _run(["pvi", "--train", train, "--out-dir", out, "--config", cfg,
                 "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and key in err
    assert not out.exists()


def test_a_bad_flag_is_not_blamed_on_the_config(tmp_path, capsys, corpora):
    train, _ = corpora
    cfg = tmp_path / "run.ini"
    cfg.write_text("[hyperparams]\nl2 = 0\n")
    out = tmp_path / "out"
    assert _run(["pvi", "--train", train, "--out-dir", out, "--config", cfg,
                 "--epochs", "0", "--no-timing"]) == 2
    assert capsys.readouterr().err == "data error: epochs must be >= 1, got 0\n"
    cfg.write_text("[hyperparams]\nepochs = 0\n")
    assert _run(["pvi", "--train", train, "--out-dir", out, "--config", cfg,
                 "--learning-rate", "0.1", "--no-timing"]) == 2
    assert capsys.readouterr().err == f"data error: {cfg}: epochs must be >= 1, got 0\n"
    assert not out.exists()


# every numeric flag reads a plain ASCII numeral, as a table cell or an INI value does
_NUMERAL_CASES = [
    (["gen", "--n", "1_0", "--seed", "\u0663"], "--n", "invalid int value: '1_0'"),
    (["gen", "--n", "10", "--seed", "\u0663"], "--seed", "invalid int value: '\u0663'"),
    (["gen", "--n", " 10"], "--n", "invalid int value: ' 10'"),
    (["gen", "--n", "10", "--mix", "0.5,0.3,0.2_0"], "--mix", "invalid float list value"),
    (["gen", "--n", "10", "--jobs", "1_0"], "--jobs", "expected an integer >= 1, got '1_0'"),
    (["pvi", "--train", "{train}", "--epochs", "1_6"], "--epochs", "invalid int value"),
    (["pvi", "--train", "{train}", "--seed", " 7"], "--seed", "invalid int value"),
    (["pvi", "--train", "{train}", "--learning-rate", "\u0660.5"], "--learning-rate",
     "invalid float value"),
    (["sweep", "--train", "{train}", "--test", "{test}", "--ratios", "0,0.\u0663"], "--ratios",
     "invalid float list value: '0,0.\u0663'"),
    (["sweep", "--train", "{train}", "--test", "{test}", "--noise-ratio", "0.1_0"],
     "--noise-ratio", "invalid float value"),
    (["sweep", "--train", "{train}", "--test", "{test}", "--keep-fractions", "1, 0.5,0.3"],
     "--keep-fractions", "invalid float list value"),
    (["curriculum", "--train", "{train}", "--test", "{test}", "--seeds", "\u0662"], "--seeds",
     "expected an integer >= 1, got '\u0662'"),
]


@pytest.mark.parametrize("argv, flag, named", _NUMERAL_CASES,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in _NUMERAL_CASES])
def test_a_numeric_flag_refuses_a_numeral_it_would_coerce(tmp_path, capsys, corpora,
                                                          argv, flag, named):
    argv = [arg.format(train=corpora[0], test=corpora[1]) for arg in argv]
    out = tmp_path / "out"
    argv += ["--out", out / "g.jsonl"] if argv[0] == "gen" else ["--out-dir", out]
    assert _run(argv + ["--no-timing"]) == 1
    assert f"usage error: argument {flag}: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, corpora, jobs):
    train, test = corpora
    out = tmp_path / "out"
    assert _run(["sweep", "--train", train, "--test", test, "--out-dir", out,
                 "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "curriculum"])
def test_jobs_do_not_change_output_bytes(tmp_path, corpora, command):
    train, test = corpora
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert _run([command, "--train", train, "--test", test, "--out-dir", out,
                     "--ratios", "0,0.1,0.2,0.3", "--epochs", "2", "--jobs", jobs,
                     "--no-timing"]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if p.name != "manifest.json"})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_seeds_below_one_is_usage_error(tmp_path, capsys, corpora, seeds):
    train, test = corpora
    out = tmp_path / "out"
    assert _run(["curriculum", "--train", train, "--test", test, "--out-dir", out,
                 "--seeds", seeds]) == 1
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["gen", "--n", "10", "--out", "x.jsonl", "--mix", "0.5,x"],
    ["sweep", "--train", "a", "--test", "b", "--keep-fractions", "x"],
])
def test_float_list_flags_name_the_expected_type(capsys, args):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "usage error: argument --" in err
    assert f"invalid float list value: {args[-1]!r}" in err


@pytest.mark.parametrize("args", [
    ["pvi", "--train", "{empty}"],
    ["pvi", "--train", "{train}", "--on", "{empty}"],
    ["stats", "--data", "{empty}"],
    ["sweep", "--train", "{empty}", "--test", "{test}"],
    ["sweep", "--train", "{train}", "--test", "{empty}"],
    ["curriculum", "--train", "{empty}", "--test", "{test}"],
    ["curriculum", "--train", "{train}", "--test", "{empty}"],
], ids=lambda args: " ".join(args))
def test_empty_input_file_is_named(tmp_path, capsys, corpora, args):
    train, test = corpora
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    argv = [a.format(empty=empty, train=train, test=test) for a in args]
    epochs = [] if args[0] == "stats" else ["--epochs", "1"]
    assert _run(argv + ["--out-dir", out, *epochs, "--no-timing"]) == 2
    assert f"data error: {empty}: the file holds no instances" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["pvi", "--train", "{train}", "--on", "{bad}"],
    ["sweep", "--train", "{bad}", "--test", "{test}"],
    ["sweep", "--train", "{train}", "--test", "{bad}"],
], ids=lambda args: " ".join(args))
def test_malformed_input_file_is_named(tmp_path, capsys, corpora, args):
    train, test = corpora
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"premise": "a", "hypothesis": "b", "label": 0}\nnot json\n')
    out = tmp_path / "out"
    argv = [a.format(bad=bad, train=train, test=test) for a in args]
    assert _run(argv + ["--out-dir", out, "--epochs", "1", "--no-timing"]) == 2
    assert f"data error: {bad}:2: invalid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("last, named", [
    (b"not json", "invalid JSON (Expecting value)"),
    (b'{"premise": "a\xffb", "hypothesis": "b", "label": 0}',
     "invalid UTF-8 byte 0xff (invalid start byte)"),
], ids=["json", "utf8"])
def test_pvi_on_names_a_bad_last_line_after_training(tmp_path, capsys, monkeypatch, corpora,
                                                      last, named):
    # --on streams in blocks, so its 121st line is read, and refused, after training
    train, test = corpora
    on = tmp_path / "on.jsonl"
    on.write_bytes(test.read_bytes() + last + b"\n")
    trained = []
    monkeypatch.setattr(cli, "train_scorers", lambda *a: trained.append(1) or train_scorers(*a))
    monkeypatch.setattr(family, "_CHUNK_ROWS", 16)
    out = tmp_path / "out"
    assert _run(["pvi", "--train", train, "--on", on, "--out-dir", out, "--epochs", "1",
                 "--no-timing"]) == 2
    assert f"data error: {on}:121: {named}" in capsys.readouterr().err
    assert trained == [1]
    assert not out.exists()


def test_pvi_on_names_a_missing_file_before_training(tmp_path, capsys, monkeypatch, corpora):
    trained = []
    monkeypatch.setattr(cli, "train_scorers", lambda *a: trained.append(1))
    missing, out = tmp_path / "missing.jsonl", tmp_path / "out"
    assert _run(["pvi", "--train", corpora[0], "--on", missing, "--out-dir", out]) == 2
    assert f"data error: file not found: {missing}" in capsys.readouterr().err
    assert trained == [] and not out.exists()


def test_pvi_on_holds_as_much_for_8k_scored_rows_as_for_2k(tmp_path, monkeypatch, corpora):
    # streamed, the --on path keeps 24 bytes a row (the scores' three columns) and one
    # block of rows; holding the rows, their records or an output file's text would
    # take several hundred bytes a row. The models are trained once, outside the trace.
    models = train_scorers(load_dataset(corpora[0]), Hyperparams(epochs=1))
    monkeypatch.setattr(cli, "train_scorers", lambda *a: models)
    peaks = {}
    for n in (2000, 8000):
        on = tmp_path / f"on{n}.jsonl"
        serialize(generate_synthetic(n, seed=2), on)
        tracemalloc.start()
        try:
            assert _run(["pvi", "--train", corpora[0], "--on", on,
                         "--out-dir", tmp_path / f"out{n}", "--no-timing"]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8000] - peaks[2000] < 6000 * 64, peaks


@pytest.fixture(scope="module")
def forty_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("forty") / "train.jsonl"
    assert main(["gen", "--n", "40", "--seed", "3", "--out", str(path),
                 "--no-timing"]) == 0
    return path


@pytest.mark.parametrize("command, ratio, extra", [
    ("sweep", "0.99", ["--strategy", "pvi"]),
    ("sweep", "0.96", ["--strategy", "pvi_balanced"]),
    ("sweep", "0.99", ["--strategy", "random"]),
    ("curriculum", "0.99", []),
])
def test_ratio_keeping_no_rows_is_named(tmp_path, capsys, corpora, forty_rows,
                                        command, ratio, extra):
    _, test = corpora
    out = tmp_path / "out"
    assert _run([command, "--train", forty_rows, "--test", test, "--out-dir", out,
                 "--ratios", f"0,{ratio}", "--epochs", "1", "--no-timing",
                 *extra]) == 2
    err = capsys.readouterr().err
    assert f"data error: reduction ratio {ratio} keeps 0 of 40 training instances" in err
    assert not out.exists()


@pytest.mark.parametrize("command, ratios, repeated", [
    ("sweep", "0.3,0.3", "0.3"),
    ("sweep", "0,0.2,0", "0.0"),
    ("curriculum", "0.2,0.2", "0.2"),
])
def test_repeated_ratio_is_refused(tmp_path, capsys, corpora, command, ratios, repeated):
    # the sweep's implicit r = 0 is no repeat: `sweep --ratios 0,0.5` runs
    train, test = corpora
    out = tmp_path / "out"
    extra = ["--seeds", "2"] if command == "curriculum" else []
    assert _run([command, "--train", train, "--test", test, "--out-dir", out,
                 "--ratios", ratios, "--epochs", "1", "--no-timing", *extra]) == 2
    assert f"data error: reduction ratio {repeated} is repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, ratios, tables", [
    ("sweep", "0,0.3", ("sweep.csv", "runtime.csv")),
    ("curriculum", "0,0.2", ("stages.csv",)),
])
def test_negative_zero_ratio_is_read_as_zero(tmp_path, corpora, command, ratios, tables):
    # the manifest records --ratios as given, so only the data files are compared
    train, test = corpora
    written = []
    for given in (ratios, "-" + ratios):
        out = tmp_path / given
        assert _run([command, "--train", train, "--test", test, "--out-dir", out,
                     f"--ratios={given}", "--epochs", "1", "--no-timing"]) == 0
        written.append({name: (out / name).read_bytes() for name in tables})
    assert written[0] == written[1]


def test_failed_report_writes_nothing(tmp_path, capsys, corpora):
    train, test = corpora
    sweep_dir = tmp_path / "sweep"
    assert _run(["sweep", "--train", train, "--test", test, "--out-dir", sweep_dir,
                 "--ratios", "0", "--epochs", "1", "--no-timing"]) == 0
    missing = tmp_path / "missing.csv"
    huge = tmp_path / "huge.csv"  # a field over the csv module's 131072-character limit
    huge.write_text((sweep_dir / "sweep.csv").read_text()
                    .replace("\noriginal,", f"\n{'v' * 200_000},"))
    unplottable = tmp_path / "unplottable.csv"  # a variant XML cannot carry
    unplottable.write_text((sweep_dir / "sweep.csv").read_text()
                           .replace("\noriginal,", "\na\x01b,"))
    # values that would be drawn outside the plot's frame
    header, row = (sweep_dir / "sweep.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    off_frame = {}
    for name, values in (("negative_r", {"r": "-0.5", "cm_accuracy": "1.7"}),
                         ("negative_accuracy", {"cm_accuracy": "-2"})):
        off_frame[name] = tmp_path / f"{name}.csv"
        off_frame[name].write_text(f"{header}\n{','.join({**cells, **values}.values())}\n")
    runtime_lines = (sweep_dir / "runtime.csv").read_text().splitlines()
    runtime_lines[1] = runtime_lines[1].replace(",0,", ",-3,")
    negative_runtime_r = tmp_path / "negative_runtime_r.csv"
    negative_runtime_r.write_text("\n".join(runtime_lines) + "\n")
    out = tmp_path / "out"
    for inputs, named in (
            (["--sweep-csv", missing], f"file not found: {missing}"),
            (["--sweep-csv", sweep_dir / "sweep.csv", "--runtime-csv", missing],
             f"file not found: {missing}"),
            (["--sweep-csv", huge], f"{huge}:2: field larger than field limit (131072)"),
            (["--sweep-csv", unplottable], f"{unplottable}:2: variant: plot label 'a\\x01b' "
                                           "holds a character XML cannot carry"),
            (["--sweep-csv", off_frame["negative_r"]],
             f"{off_frame['negative_r']}:2: r: reduction ratio must be in [0,1), got -0.5"),
            (["--sweep-csv", off_frame["negative_accuracy"]],
             f"{off_frame['negative_accuracy']}:2: cm_accuracy: accuracy must be in [0, 1], "
             "got -2.0"),
            (["--sweep-csv", sweep_dir / "sweep.csv", "--runtime-csv", negative_runtime_r],
             f"{negative_runtime_r}:2: r: reduction ratio must be in [0,1), got -3.0")):
        assert _run(["report", *inputs, "--out-dir", out, "--no-timing"]) == 2
        err = capsys.readouterr().err
        assert f"data error: {named}" in err and "Traceback" not in err
        assert not out.exists()


def test_report_names_file_and_line_of_invalid_utf8(tmp_path, capsys, sweep_tables):
    lines = sweep_tables[1].read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"\n", b"\xff\n")  # the third row ends in byte 0xff
    runtime_csv = tmp_path / "runtime.csv"
    runtime_csv.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    assert _run(["report", "--runtime-csv", runtime_csv, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"data error: {runtime_csv}:3: invalid UTF-8 byte 0xff" in err
    assert not out.exists()


# perfbench/workloads.py appends these to every command it runs
BENCHMARK_FLAGS = ["--no-timing", "--jobs", "1"]


def test_benchmark_flags_are_accepted_by_every_command(tmp_path, corpora):
    train, test = corpora
    commands = [
        ["pvi", "--train", train, "--on", test, "--epochs", "1",
         "--out-dir", tmp_path / "pvi"],
        ["stats", "--data", test, "--unit", "tokens", "--out-dir", tmp_path / "stats"],
        ["sweep", "--train", train, "--test", test, "--ratios", "0,0.3",
         "--epochs", "1", "--out-dir", tmp_path / "sweep"],
        ["report", "--sweep-csv", tmp_path / "sweep" / "sweep.csv",
         "--runtime-csv", tmp_path / "sweep" / "runtime.csv",
         "--out-dir", tmp_path / "report"],
        ["curriculum", "--train", train, "--test", test, "--epochs", "1",
         "--out-dir", tmp_path / "curriculum"],
    ]
    for argv in commands:
        assert _run(argv + BENCHMARK_FLAGS) == 0, argv[0]


@pytest.mark.parametrize("command, flag, value", [
    ("gen", "--config", "run.ini"), ("gen", "--out-dir", "elsewhere"),
    ("gen", "--epochs", "3"), ("gen", "--learning-rate", "7"), ("gen", "--classes", "2"),
    ("stats", "--config", "run.ini"), ("stats", "--seed", "9"),
    ("stats", "--epochs", "3"), ("stats", "--learning-rate", "7"),
    ("report", "--config", "run.ini"), ("report", "--seed", "9"),
    ("report", "--format", "tsv"), ("report", "--epochs", "3"),
    ("report", "--learning-rate", "7"),
])
def test_flag_a_command_does_not_read_is_usage_error(tmp_path, capsys, corpora,
                                                     command, flag, value):
    train, _ = corpora
    runtime_csv = tmp_path / "runtime.csv"
    log = RuntimeLog()
    log.record("original", 0.0, "train_cm", 0.0)
    log.write_csv(runtime_csv)
    out = tmp_path / "out"
    argv = {"gen": ["gen", "--n", "10", "--out", out / "gen.jsonl"],
            "stats": ["stats", "--data", train, "--out-dir", out],
            "report": ["report", "--runtime-csv", runtime_csv, "--out-dir", out]}[command]
    if command == "gen":
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert _run(argv + [flag, value, "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"usage error: unrecognized arguments: {flag} {value}" in captured.err
    assert sorted(tmp_path.rglob("*")) == before
    assert _run(argv + ["--no-timing"]) == 0  # the same run without the flag


@pytest.mark.parametrize("ratios", ["0,,0.3", "0,0.3,", ""])
@pytest.mark.parametrize("command", ["sweep", "curriculum"])
def test_ratio_list_with_an_empty_item_is_usage_error(tmp_path, capsys, corpora,
                                                      command, ratios):
    train, test = corpora
    out = tmp_path / "out"
    assert _run([command, "--train", train, "--test", test, "--out-dir", out,
                 "--ratios", ratios, "--epochs", "1", "--no-timing"]) == 1
    assert (f"usage error: argument --ratios: invalid float list value: {ratios!r}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_manifest_records_every_flag_given(tmp_path, corpora):
    train, test = corpora
    out = tmp_path / "curr"
    assert _run(["curriculum", "--train", train, "--test", test, "--out-dir", out,
                 "--ratios", "0,0.2", "--epochs", "1", "--variant", "noisy",
                 "--noise-ratio", "0.3", "--no-timing"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["noise_ratio"] == 0.3
    assert config["keep_fractions"] == [1.0, 0.6, 0.3]
    assert config["ratios"] == [0.0, 0.2]
    assert config["hyperparams"]["epochs"] == 1
    # the resolved hyperparams stand in for --config and the flags they override
    assert not {"config", "seed", "epochs", "learning_rate", "out_dir"} & config.keys()


@pytest.fixture(scope="module")
def sweep_tables(tmp_path_factory, corpora):
    train, test = corpora
    out = tmp_path_factory.mktemp("tables")
    assert _run(["sweep", "--train", train, "--test", test, "--out-dir", out,
                 "--ratios", "0,0.3", "--epochs", "1", "--no-timing"]) == 0
    return out / "sweep.csv", out / "runtime.csv"


@pytest.mark.parametrize("argv, hashed", [
    (["pvi", "--train", "{train}"], {"train"}),
    (["pvi", "--train", "{train}", "--on", "{test}"], {"train", "on"}),
    (["pvi", "--train", "{train}", "--config", "{ini}"], {"train"}),  # never --config
    (["sweep", "--train", "{train}", "--test", "{test}", "--ratios", "0"], {"train", "test"}),
    (["curriculum", "--train", "{train}", "--test", "{test}", "--ratios", "0"],
     {"train", "test"}),
    (["stats", "--data", "{train}"], {"data"}),
    (["report", "--sweep-csv", "{sweep_csv}"], {"sweep_csv"}),
    (["report", "--sweep-csv", "{sweep_csv}", "--runtime-csv", "{runtime_csv}"],
     {"sweep_csv", "runtime_csv"}),
    (["gen", "--n", "10", "--out", "{out}/gen.jsonl"], {"out"}),  # the file it wrote
])
def test_manifest_hashes_exactly_the_file_flags_given(tmp_path, corpora, sweep_tables,
                                                      argv, hashed):
    ini = tmp_path / "run.ini"
    ini.write_text("[hyperparams]\nepochs = 1\n")
    out = tmp_path / "out"
    names = dict(train=corpora[0], test=corpora[1], ini=ini, out=out,
                 sweep_csv=sweep_tables[0], runtime_csv=sweep_tables[1])
    argv = [arg.format(**names) for arg in argv]
    if argv[0] == "gen":
        out.mkdir()
    else:
        argv += ["--out-dir", str(out)]
        argv += ["--epochs", "1"] if argv[0] in ("pvi", "sweep", "curriculum") else []
    assert _run(argv + ["--no-timing"]) == 0
    hashes = json.loads((out / "manifest.json").read_text())["input_hashes"]
    assert set(hashes) == hashed
    for dest in hashed:
        path = argv[argv.index("--" + dest.replace("_", "-")) + 1]
        assert hashes[dest] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_every_file_flag_is_some_subcommands_option():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {action.dest for parser in subparsers.choices.values()
             for action in parser._actions}
    assert set(cli._FILE_FLAGS) <= dests
    assert "config" in dests and "config" not in cli._FILE_FLAGS


@pytest.mark.parametrize("flag, line, old, new, named", [
    ("--sweep-csv", 2, ",pvi,0,", ",pvi,zero,", ":2: r: could not convert string to float: 'zero'"),
    ("--sweep-csv", 3, ",1\n", ",one\n", ":3: seed: invalid literal for int()"),
    ("--runtime-csv", 3, "train_cm", "train_xx", ":3: phase: unknown phase 'train_xx'"),
    ("--runtime-csv", 2, ",0\n", ",-1\n", ":2: seconds: seconds must be >= 0"),
    ("--runtime-csv", 4, ",0,", ",x,", ":4: r: could not convert string to float: 'x'"),
    ("--sweep-csv", 2, ",pvi,", ",bogus,", ":2: strategy: unknown strategy 'bogus'"),
    ("--sweep-csv", 2, ",pvi,0,", ",pvi,0,-", ":2: subset_size: expected an integer >= 0, got '-"),
    ("--sweep-csv", 2, ",0,1\n", ",-3,1\n",
     ":2: train_seconds: seconds must be >= 0 and finite, got -3.0"),
    ("--sweep-csv", 2, ",1\n", ",-7\n", ":2: seed: expected an integer >= 0, got '-7'"),
])
def test_report_names_file_line_and_field_of_a_bad_table(tmp_path, capsys, sweep_tables,
                                                         flag, line, old, new, named):
    source = sweep_tables[0] if flag == "--sweep-csv" else sweep_tables[1]
    lines = source.read_text().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(old, new)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    out = tmp_path / "out"
    assert _run(["report", flag, bad, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"data error: {bad}{named}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, column, value", [
    ("--sweep-csv", "cm_accuracy", "nan"),
    ("--sweep-csv", "r", "inf"),
    ("--runtime-csv", "seconds", "nan"),
    ("--runtime-csv", "seconds", "-inf"),
])
def test_report_refuses_non_finite_numbers(tmp_path, capsys, sweep_tables, flag, column,
                                           value):
    source = sweep_tables[0] if flag == "--sweep-csv" else sweep_tables[1]
    header, first, *rest = source.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index(column)] = value
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    out = tmp_path / "out"
    assert _run(["report", flag, bad, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert f"data error: {bad}:2: {column}: '{value}' is not a finite number" in err
    assert not out.exists()


def test_jsonl_line_nested_too_deeply_is_data_error(tmp_path, capsys):
    deep = tmp_path / "deep.jsonl"
    depth = 10 * sys.getrecursionlimit()
    deep.write_text("[" * depth + "]" * depth + "\n")
    out = tmp_path / "out"
    assert _run(["pvi", "--train", deep, "--out-dir", out, "--no-timing"]) == 2
    err = capsys.readouterr().err
    assert err == f"data error: {deep}:1: invalid JSON (nested too deeply)\n"
    assert not out.exists()


def test_gen_makes_the_output_directory(tmp_path):
    out = tmp_path / "newdir" / "x.jsonl"
    assert _run(["gen", "--n", "10", "--out", out, "--no-timing"]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["manifest.json", "x.jsonl"]


@pytest.mark.parametrize("args", [
    ["gen", "--n", "10", "--out", "{file}/x.jsonl"],
    ["stats", "--data", "{train}", "--out-dir", "{file}"],
    ["stats", "--data", "{train}", "--out-dir", "{file}/sub"],
], ids=lambda args: " ".join(args))
def test_output_under_a_regular_file_is_data_error(tmp_path, capsys, corpora, args):
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = [a.format(file=afile, train=corpora[0]) for a in args]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(afile) in err and ".tmp-" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("mix", ["--mix=0.5,0.5", "--mix=0.1,0.2,0.3,0.4",
                                 "--mix=1.5,-0.5,0"])
def test_gen_mix_must_be_three_fractions_at_least_zero(tmp_path, capsys, mix):
    out = tmp_path / "new" / "x.jsonl"
    assert _run(["gen", "--n", "10", mix, "--out", out]) == 2
    assert "data error: difficulty_mix must be three fractions >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
