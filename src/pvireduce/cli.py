"""Command-line entry point wiring the library into reproducible experiments.

Subcommands: gen, pvi, sweep, curriculum, stats, report. Every run writes a
JSON manifest (fully-resolved config + input hashes) next to its outputs;
rerunning from the same manifest reproduces the data outputs byte-for-byte
(timing fields are the one exception, and can be disabled with --no-timing).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from dataclasses import fields, replace as dc_replace

from . import __version__
from .corpus import (DataError, NoiseSpec, generate_synthetic, inject_noise,
                     load_dataset, make_imbalanced, serialize)
from .curriculum import (progressive_train, write_stage_csv,
                         write_stage_summary_csv)
from .family import Hyperparams, feature_matrix, save_model
from .pvi import (compute_pvi, summarize, train_scorers, write_records_csv,
                  write_records_jsonl)
from .reduction import read_sweep_csv, static_sweep, write_sweep_csv
from .report import (RuntimeLog, bucket_proportions, emit_accuracy_plot,
                     emit_runtime_plot, length_stats, write_bucket_csv,
                     write_length_stats_csv)
from .tables import atomic_write_text


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# config resolution

def load_config_file(path) -> dict:
    """The [hyperparams] section as {key: raw string}; no `%` interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    if not read:
        raise DataError(f"config file not found: {path}")
    sections = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    for section in sections:
        if section != "hyperparams":
            raise DataError(f"{path}: unknown section [{section}]; "
                            "expected only [hyperparams]")
    return dict(parser["hyperparams"]) if parser.has_section("hyperparams") else {}


def resolve_hyperparams(config: dict, args) -> Hyperparams:
    """Config values, overridden by each flag named after a field (e.g. --seed)."""
    names = {f.name for f in fields(Hyperparams)}
    flags = {key: value for key, value in vars(args).items()
             if key in names and value is not None}
    try:
        return Hyperparams.from_dict({**config, **flags})
    except ValueError as exc:
        raise DataError(f"{args.config}: {exc}" if config else str(exc)) from None


def write_manifest(out_dir, command: str, resolved: dict, inputs: dict,
                   timing: bool) -> None:
    manifest = {
        "tool": "pvireduce",
        "version": __version__,
        "command": command,
        "config": resolved,
        "input_hashes": {name: sha256_file(path) for name, path in inputs.items()},
    }
    if timing:
        manifest["wall_clock_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load(path, fmt, num_classes=3):
    if not os.path.exists(path):
        raise DataError(f"file not found: {path}")
    ds = load_dataset(path, fmt, num_classes)
    if not ds:
        raise DataError(f"{path}: the file holds no instances")
    return ds


def _apply_variant(ds, variant, seed, noise_ratio, keep_fractions):
    if variant == "original":
        return ds
    if variant == "noisy":
        return inject_noise(ds, NoiseSpec(noise_ratio, seed))
    if variant == "imbalanced":
        return make_imbalanced(ds, keep_fractions, seed)
    raise UsageError(f"unknown variant {variant!r}")


def _float_list(raw: str) -> list[float]:
    """An argparse type: comma-separated numbers, e.g. "0.5,0.3,0.2"."""
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list value: {raw!r} "
                                         "(expected comma-separated numbers)") from None


def _parse_ratios(raw: str):
    try:
        return [float(v) for v in raw.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"invalid ratio list {raw!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args, config):
    out = args.out
    seed = 1 if args.seed is None else args.seed
    ds = generate_synthetic(args.n, args.classes, tuple(args.mix), seed)
    serialize(ds, out, args.format)
    out_dir = os.path.dirname(os.path.abspath(out)) or "."
    write_manifest(out_dir, "gen",
                   {"n": args.n, "classes": args.classes, "mix": list(args.mix),
                    "seed": seed, "format": args.format, "out": out},
                   {"out": out}, not args.no_timing)
    return 0


def cmd_pvi(args, config):
    hp = resolve_hyperparams(config, args)
    train_ds = _load(args.train, args.format)
    score_ds = _load(args.on, args.format) if args.on else train_ds
    X_train = feature_matrix(train_ds, hp)
    g_cond, g_null = train_scorers(train_ds, hp, features=X_train)
    records = compute_pvi(g_cond, g_null, score_ds,
                          features=None if args.on else X_train)
    info = summarize(records)
    os.makedirs(args.out_dir, exist_ok=True)
    write_records_csv(records, os.path.join(args.out_dir, "pvi.csv"))
    write_records_jsonl(records, os.path.join(args.out_dir, "pvi.jsonl"))
    atomic_write_text(os.path.join(args.out_dir, "summary.json"), json.dumps({
        "h_v_y": info.h_v_y, "h_v_y_given_x": info.h_v_y_given_x,
        "i_v": info.i_v, "n": info.n}, indent=2) + "\n")
    if args.save_models:
        save_model(g_cond, os.path.join(args.out_dir, "model_cond.json"))
        save_model(g_null, os.path.join(args.out_dir, "model_null.json"))
    inputs = {"train": args.train}
    if args.on:
        inputs["on"] = args.on
    write_manifest(args.out_dir, "pvi",
                   {"train": args.train, "on": args.on, "format": args.format,
                    "hyperparams": hp.as_dict()},
                   inputs, not args.no_timing)
    return 0


def cmd_sweep(args, config):
    hp = resolve_hyperparams(config, args)
    train_ds = _load(args.train, args.format)
    test_ds = _load(args.test, args.format)
    train_ds = _apply_variant(train_ds, args.variant, hp.seed,
                              args.noise_ratio, tuple(args.keep_fractions))
    ratios = _parse_ratios(args.ratios)
    log = RuntimeLog()
    points = static_sweep(train_ds, test_ds, ratios, hp, strategy=args.strategy,
                          variant=args.variant, derived_seeds=args.derived_seeds,
                          timing=not args.no_timing, runtime_log=log)
    os.makedirs(args.out_dir, exist_ok=True)
    write_sweep_csv(points, os.path.join(args.out_dir, "sweep.csv"))
    log.write_csv(os.path.join(args.out_dir, "runtime.csv"))
    write_manifest(args.out_dir, "sweep",
                   {"train": args.train, "test": args.test, "format": args.format,
                    "ratios": ratios, "strategy": args.strategy,
                    "variant": args.variant, "noise_ratio": args.noise_ratio,
                    "keep_fractions": list(args.keep_fractions),
                    "derived_seeds": args.derived_seeds, "jobs": args.jobs,
                    "timing": not args.no_timing, "hyperparams": hp.as_dict()},
                   {"train": args.train, "test": args.test}, not args.no_timing)
    return 0


def cmd_curriculum(args, config):
    hp = resolve_hyperparams(config, args)
    train_ds = _load(args.train, args.format)
    test_ds = _load(args.test, args.format)
    train_ds = _apply_variant(train_ds, args.variant, hp.seed,
                              args.noise_ratio, tuple(args.keep_fractions))
    ratios = _parse_ratios(args.ratios)
    reports = []
    for i in range(args.seeds):
        seed_hp = dc_replace(hp, seed=hp.seed + i)
        reports += progressive_train(train_ds, test_ds, seed_hp, ratios,
                                     ordering=args.ordering,
                                     warm_start=args.warm_start,
                                     timing=not args.no_timing)
    os.makedirs(args.out_dir, exist_ok=True)
    write_stage_csv(reports, os.path.join(args.out_dir, "stages.csv"))
    if args.seeds > 1:
        write_stage_summary_csv(reports, os.path.join(args.out_dir, "stages_summary.csv"))
    write_manifest(args.out_dir, "curriculum",
                   {"train": args.train, "test": args.test, "format": args.format,
                    "ratios": ratios, "ordering": args.ordering,
                    "variant": args.variant, "seeds": args.seeds,
                    "warm_start": args.warm_start, "jobs": args.jobs,
                    "timing": not args.no_timing, "hyperparams": hp.as_dict()},
                   {"train": args.train, "test": args.test}, not args.no_timing)
    return 0


def cmd_stats(args, config):
    ds = _load(args.data, args.format)
    stats = length_stats(ds, args.unit)
    buckets = bucket_proportions(ds, unit=args.unit)
    os.makedirs(args.out_dir, exist_ok=True)
    write_length_stats_csv(stats, os.path.join(args.out_dir, "stats.csv"))
    write_bucket_csv(buckets, os.path.join(args.out_dir, "buckets.csv"))
    write_manifest(args.out_dir, "stats",
                   {"data": args.data, "format": args.format, "unit": args.unit},
                   {"data": args.data}, not args.no_timing)
    return 0


def cmd_report(args, config):
    inputs = {name: path for name, path in (("sweep_csv", args.sweep_csv),
                                            ("runtime_csv", args.runtime_csv)) if path}
    if not inputs:
        raise UsageError("report requires --sweep-csv and/or --runtime-csv")
    for path in inputs.values():
        if not os.path.exists(path):
            raise DataError(f"file not found: {path}")
    plots = {}
    if args.sweep_csv:
        plots["accuracy.svg"] = emit_accuracy_plot(read_sweep_csv(args.sweep_csv))
    if args.runtime_csv:
        plots["runtime.svg"] = emit_runtime_plot(
            RuntimeLog.read_csv(args.runtime_csv).records)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, svg in plots.items():
        atomic_write_text(os.path.join(args.out_dir, name), svg)
    write_manifest(args.out_dir, "report", inputs, inputs, not args.no_timing)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(parser):
    parser.add_argument("--config", help="INI file with a [hyperparams] section")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility (N >= 1); runs are sequential")
    parser.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--learning-rate", type=float, dest="learning_rate")
    parser.add_argument("--no-timing", action="store_true",
                        help="write 0.0 for all timing fields (byte-stable reruns)")


def _add_variant_flags(parser):
    parser.add_argument("--variant", choices=["original", "imbalanced", "noisy"],
                        default="original")
    parser.add_argument("--noise-ratio", type=float, default=0.1)
    parser.add_argument("--keep-fractions", type=_float_list, default=[1.0, 0.6, 0.3])


def build_parser() -> _Parser:
    parser = _Parser(prog="pvireduce")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--mix", type=_float_list, default=[0.5, 0.3, 0.2])
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pvi", help="score per-instance difficulty")
    p.add_argument("--train", required=True)
    p.add_argument("--on", help="dataset to score (default: the training set)")
    p.add_argument("--save-models", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_pvi)

    p = sub.add_parser("sweep", help="static reduction sweep")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ratios", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--strategy", choices=["pvi", "pvi_balanced", "random"],
                   default="pvi")
    p.add_argument("--derived-seeds", action="store_true")
    _add_variant_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("curriculum", help="progressive easy-to-hard training")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ratios", default="0,0.1,0.2,0.3")
    p.add_argument("--ordering", choices=["easy_first", "hard_first", "original"],
                   default="easy_first")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--warm-start", action="store_true")
    _add_variant_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_curriculum)

    p = sub.add_parser("stats", help="length statistics per label")
    p.add_argument("--data", required=True)
    p.add_argument("--unit", choices=["chars", "tokens"], default="chars")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="render SVG plots from CSV outputs")
    p.add_argument("--sweep-csv")
    p.add_argument("--runtime-csv")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        if getattr(args, "seeds", 1) < 1:
            raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
        config = load_config_file(args.config) if args.config else {}
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
