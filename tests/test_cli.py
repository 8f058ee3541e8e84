import json
import os
import subprocess
import sys

import pytest

from pvireduce import cli, family
from pvireduce.cli import main
from pvireduce.corpus import load_dataset
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
    def allocate(args):
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

    monkeypatch.setattr(family, "_hashed_counts", spy)
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
    assert f"data error: {bad}: line 2: invalid JSON" in capsys.readouterr().err
    assert not out.exists()


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


def test_failed_report_writes_nothing(tmp_path, capsys, corpora):
    train, test = corpora
    sweep_dir = tmp_path / "sweep"
    assert _run(["sweep", "--train", train, "--test", test, "--out-dir", sweep_dir,
                 "--ratios", "0", "--epochs", "1", "--no-timing"]) == 0
    missing = tmp_path / "missing.csv"
    out = tmp_path / "out"
    for inputs in (["--sweep-csv", missing],
                   ["--sweep-csv", sweep_dir / "sweep.csv", "--runtime-csv", missing]):
        assert _run(["report", *inputs, "--out-dir", out, "--no-timing"]) == 2
        assert f"file not found: {missing}" in capsys.readouterr().err
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


@pytest.mark.parametrize("flag, line, old, new, named", [
    ("--sweep-csv", 2, ",pvi,0,", ",pvi,zero,", ":2: r: could not convert string to float: 'zero'"),
    ("--sweep-csv", 3, ",1\n", ",one\n", ":3: seed: invalid literal for int()"),
    ("--runtime-csv", 3, "train_cm", "train_xx", ":3: unknown phase 'train_xx'"),
    ("--runtime-csv", 2, ",0\n", ",-1\n", ":2: seconds must be >= 0"),
    ("--runtime-csv", 4, ",0,", ",x,", ":4: r: could not convert string to float: 'x'"),
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
    assert err == f"data error: {deep}: line 1: invalid JSON (nested too deeply)\n"
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
