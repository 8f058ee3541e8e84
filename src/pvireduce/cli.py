"""Command-line entry point wiring the library into reproducible experiments.

Subcommands: gen, pvi, sweep, curriculum, stats, report. Each takes only the
flags it reads: --config, --seed, --epochs and --learning-rate belong to the
training commands (pvi, sweep, curriculum; gen has its own --seed), --format
to all but report, --out-dir to all but gen, and --jobs and --no-timing to
all six.

main is the one frame around every subcommand: it resolves the hyperparameters
of the training commands, runs the subcommand, which reads its inputs and writes
its outputs, and then writes the run's manifest.json to --out-dir (for gen,
next to --out). The manifest's `config` holds every flag given (for the
training commands, `hyperparams` stands in for --config and the flags named
after a hyperparameter), and its `input_hashes` the SHA-256 of each file flag
given: the inputs, and gen's written --out; --config is not hashed. Rerunning
from the manifest reproduces the data outputs byte-for-byte (timing fields are
the one exception, and can be disabled with --no-timing).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import os
import sys
import time

from . import __version__
from .corpus import (FORMATS, NoiseSpec, generate_synthetic, inject_noise, load_dataset,
                     make_imbalanced, read_instances, serialize)
from .curriculum import progressive_train, write_stage_csv, write_stage_summary_csv
from .family import Hyperparams, save_model
from .pvi import (ORDERINGS, compute_pvi, summarize, train_scorers, write_records_csv,
                  write_records_jsonl)
from .reduction import STRATEGIES, read_sweep_csv, static_sweep, write_sweep_csv
from .report import (UNITS, RuntimeLog, bucket_proportions, emit_accuracy_plot,
                     emit_runtime_plot, length_stats, write_bucket_csv,
                     write_length_stats_csv)
from .tables import DataError, _numeral, atomic_write_text, count, read_text, sha256_file

_HYPERPARAM_NAMES = {f.name for f in dataclasses.fields(Hyperparams)}
# the dests of the flags that name a file; the manifest hashes each one given
_FILE_FLAGS = ("train", "test", "on", "data", "sweep_csv", "runtime_csv", "out")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config resolution

def load_config_file(path) -> dict:
    """The [hyperparams] section of read_text(path) as {key: raw string}, lines
    ending at LF, CR or CRLF; no `%` interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(read_text(path), newline=None), source=str(path))
    except configparser.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    sections = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    for section in sections:
        if section != "hyperparams":
            raise DataError(f"{path}: unknown section [{section}]; "
                            "expected only [hyperparams]")
    return dict(parser["hyperparams"]) if parser.has_section("hyperparams") else {}


def resolve_hyperparams(args) -> Hyperparams:
    """The --config file's values, overridden by each flag named after a field. Every
    Hyperparams check reads one field, so the flags are checked alone first: a refused
    flag is named as it is, and a refused value of the file after the file's path."""
    config = load_config_file(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items()
             if key in _HYPERPARAM_NAMES and value is not None}
    try:
        Hyperparams.from_dict(flags)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    try:
        return Hyperparams.from_dict({**config, **flags})
    except ValueError as exc:
        raise DataError(f"{args.config}: {exc}") from None


def write_manifest(args, hp: Hyperparams | None) -> None:
    """manifest.json in --out-dir, or next to gen's --out. `config` is every parsed
    flag but the output directory; with `hp`, its `hyperparams` replace --config and
    the flags named after its fields. `input_hashes` hash each _FILE_FLAGS flag given."""
    out_dir = (args.out_dir if "out_dir" in vars(args)
               else os.path.dirname(os.path.abspath(args.out)))
    skip = {"func", "command", "out_dir"}
    if hp is not None:
        skip |= {"config"} | _HYPERPARAM_NAMES
    config = {key: value for key, value in vars(args).items() if key not in skip}
    if hp is not None:
        config["hyperparams"] = hp.as_dict()
    manifest = {
        "tool": "pvireduce",
        "version": __version__,
        "command": args.command,
        "config": config,
        "input_hashes": {name: sha256_file(path) for name in _FILE_FLAGS
                         if (path := getattr(args, name, None))},
    }
    if not args.no_timing:
        manifest["wall_clock_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load(path, fmt):
    if not (ds := load_dataset(path, fmt)):
        raise DataError(f"{path}: the file holds no instances")
    return ds


def _load_experiment(args, hp: Hyperparams):
    """The training set with --variant applied, and the test set."""
    train_ds = _load(args.train, args.format)
    test_ds = _load(args.test, args.format)
    if args.variant == "noisy":
        train_ds = inject_noise(train_ds, NoiseSpec(args.noise_ratio, hp.seed))
    elif args.variant == "imbalanced":
        train_ds = make_imbalanced(train_ds, tuple(args.keep_fractions), hp.seed)
    return train_ds, test_ds


def _number(kind):
    """An argparse type: a plain ASCII numeral read as `kind`, int or float, by the rule
    of every table cell; argparse names the flag and the kind in a refusal."""
    def read(raw: str):
        return _numeral(kind, raw)
    read.__name__ = kind.__name__
    return read


def _float_list(raw: str) -> list[float]:
    """An argparse type: comma-separated numbers, e.g. "0.5,0.3,0.2"."""
    try:
        return [_numeral(float, v) for v in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list value: {raw!r} "
                                         "(expected comma-separated numbers)") from None


def _count(raw: str) -> int:
    """An argparse type: an integer >= 1, read by tables.count."""
    try:
        value = count(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return value


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args):
    ds = generate_synthetic(args.n, difficulty_mix=tuple(args.mix), seed=args.seed)
    serialize(ds, args.out, args.format)


def cmd_pvi(args, hp):
    train_ds = _load(args.train, args.format)
    # --on is opened now, so a missing file fails before training, and streamed: each
    # block is read and scored in turn, so a bad record fails after training
    scored = read_instances(args.on, args.format) if args.on else train_ds
    g_cond, g_null = train_scorers(train_ds, hp)
    scores = compute_pvi(g_cond, g_null, scored)
    if not len(scores):
        raise DataError(f"{args.on}: the file holds no instances")
    write_records_csv(scores, os.path.join(args.out_dir, "pvi.csv"))
    write_records_jsonl(scores, os.path.join(args.out_dir, "pvi.jsonl"))
    atomic_write_text(os.path.join(args.out_dir, "summary.json"),
                      json.dumps(dataclasses.asdict(summarize(scores)), indent=2) + "\n")
    if args.save_models:
        save_model(g_cond, os.path.join(args.out_dir, "model_cond.json"))
        save_model(g_null, os.path.join(args.out_dir, "model_null.json"))


def cmd_sweep(args, hp):
    train_ds, test_ds = _load_experiment(args, hp)
    log = RuntimeLog()
    points = static_sweep(train_ds, test_ds, args.ratios, hp, strategy=args.strategy,
                          derived_seeds=args.derived_seeds,
                          timing=not args.no_timing, runtime_log=log)
    write_sweep_csv(points, os.path.join(args.out_dir, "sweep.csv"))
    log.write_csv(os.path.join(args.out_dir, "runtime.csv"))


def cmd_curriculum(args, hp):
    train_ds, test_ds = _load_experiment(args, hp)
    reports = []
    for i in range(args.seeds):
        seed_hp = dataclasses.replace(hp, seed=hp.seed + i)
        reports += progressive_train(train_ds, test_ds, seed_hp, args.ratios,
                                     ordering=args.ordering,
                                     warm_start=args.warm_start,
                                     timing=not args.no_timing)
    write_stage_csv(reports, os.path.join(args.out_dir, "stages.csv"))
    if args.seeds > 1:
        write_stage_summary_csv(reports, os.path.join(args.out_dir, "stages_summary.csv"))


def cmd_stats(args):
    ds = _load(args.data, args.format)
    stats = length_stats(ds, args.unit)
    buckets = bucket_proportions(ds, unit=args.unit)
    write_length_stats_csv(stats, os.path.join(args.out_dir, "stats.csv"))
    write_bucket_csv(buckets, os.path.join(args.out_dir, "buckets.csv"))


def cmd_report(args):
    if not (args.sweep_csv or args.runtime_csv):
        raise UsageError("report requires --sweep-csv and/or --runtime-csv")
    plots = {}
    if args.sweep_csv:
        plots["accuracy.svg"] = emit_accuracy_plot(read_sweep_csv(args.sweep_csv))
    if args.runtime_csv:
        plots["runtime.svg"] = emit_runtime_plot(
            RuntimeLog.read_csv(args.runtime_csv).records)
    for name, svg in plots.items():
        atomic_write_text(os.path.join(args.out_dir, name), svg)


# ---------------------------------------------------------------------------
# argument wiring

# flags that more than one subcommand takes, by name
_SHARED_FLAGS = {
    "--config": dict(help="INI file with a [hyperparams] section"),
    "--seed": dict(type=_number(int), help="base random seed"),
    "--epochs": dict(type=_number(int)),
    "--learning-rate": dict(type=_number(float), dest="learning_rate"),
    "--format": dict(choices=FORMATS, default="jsonl"),
    "--out-dir": dict(default=".", help="output directory"),
    "--jobs": dict(type=_count, default=1,
                   help="accepted for compatibility (N >= 1); runs are sequential"),
    "--no-timing": dict(action="store_true",
                        help="write 0.0 for all timing fields (byte-stable reruns)"),
}
_TRAINING_FLAGS = ("--config", "--seed", "--epochs", "--learning-rate")


def _add_variant_flags(parser):
    parser.add_argument("--variant", choices=["original", "imbalanced", "noisy"],
                        default="original")
    parser.add_argument("--noise-ratio", type=_number(float), default=0.1)
    parser.add_argument("--keep-fractions", type=_float_list, default=[1.0, 0.6, 0.3])


def build_parser() -> _Parser:
    parser = _Parser(prog="pvireduce")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in (*shared, "--jobs", "--no-timing"):
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = subcommand("gen", cmd_gen, "generate a synthetic corpus", "--format")
    p.add_argument("--n", type=_number(int), required=True)
    p.add_argument("--mix", type=_float_list, default=[0.5, 0.3, 0.2])
    p.add_argument("--seed", type=_number(int), default=1, help="random seed")
    p.add_argument("--out", required=True)

    p = subcommand("pvi", cmd_pvi, "score per-instance difficulty",
                   "--format", "--out-dir", *_TRAINING_FLAGS)
    p.add_argument("--train", required=True)
    p.add_argument("--on", help="dataset to score (default: the training set)")
    p.add_argument("--save-models", action="store_true")

    p = subcommand("sweep", cmd_sweep, "static reduction sweep",
                   "--format", "--out-dir", *_TRAINING_FLAGS)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ratios", type=_float_list,
                   default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--strategy", choices=STRATEGIES, default="pvi")
    p.add_argument("--derived-seeds", action="store_true")
    _add_variant_flags(p)

    p = subcommand("curriculum", cmd_curriculum, "progressive easy-to-hard training",
                   "--format", "--out-dir", *_TRAINING_FLAGS)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ratios", type=_float_list, default="0,0.1,0.2,0.3")
    p.add_argument("--ordering", choices=ORDERINGS, default="easy_first")
    p.add_argument("--seeds", type=_count, default=1)
    p.add_argument("--warm-start", action="store_true")
    _add_variant_flags(p)

    p = subcommand("stats", cmd_stats, "length statistics per label",
                   "--format", "--out-dir")
    p.add_argument("--data", required=True)
    p.add_argument("--unit", choices=UNITS, default="chars",
                   help="chars, or whitespace-separated tokens (unsegmented CJK text "
                        "counts as 1)")

    p = subcommand("report", cmd_report, "render SVG plots from CSV outputs", "--out-dir")
    p.add_argument("--sweep-csv")
    p.add_argument("--runtime-csv")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "config" in vars(args):  # a training command
            hp = resolve_hyperparams(args)
            args.func(args, hp)
        else:
            hp = None
            args.func(args)
        write_manifest(args, hp)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the array it could not allocate: with a large
        # hash_bits, the (classes x 2**hash_bits) weight matrix
        print(f"data error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
