"""End-to-end and per-layer benchmark of the pvireduce CLI workflows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N]   # every workload in turn
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; the package is imported from ``src``.
Each workload's corpora are generated from the seed (outside every metric),
then the workload's CLI invocations run, each in a fresh child process with
``--no-timing --jobs 1`` and BLAS pinned to one thread. Every invocation's
outputs are checked; a failed exit code or check counts as a failed
operation.

``--trace 0`` repeats the workload for up to ``--seconds`` (at least once) and
reports end-to-end metrics (medians over repeats). ``--trace 1`` runs the
workload once untraced and once with every public function of the package
wrapped in a span (``traced_cli.py``), checks that both runs wrote the same
bytes, and reports per-layer metrics. ``--smoke`` runs every workload once
at a tiny size in both modes and checks the shape of the printed metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans as spanlib
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4  # timed set-up probes before the repeats, and as many after
CHILD_TIMEOUT_S = 170.0
REP_BUDGET_S = 140.0  # cap on --seconds, so a run exits within 180 s

SETUP_PROBE = (
    "import sys\n"
    "from pvireduce import cli\n"
    "from pvireduce.corpus import load_dataset\n"
    "for path in sys.argv[1:]:\n"
    "    load_dataset(path, 'jsonl')\n"
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_VARS)


def run_child(argv, cwd, log_path):
    """Run argv to completion; returns (exit code, wall seconds, peak RSS MB)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def differing_files(a: Path, b: Path, rel_dir: str) -> list[str]:
    """Paths under rel_dir whose bytes differ between trees a and b."""
    names = set()
    for base in (a, b):
        for root, _, files in os.walk(base / rel_dir):
            names |= {os.path.relpath(os.path.join(root, f), base) for f in files}
    return [n for n in sorted(names)
            if not ((a / n).is_file() and (b / n).is_file()
                    and filecmp.cmp(a / n, b / n, shallow=False))]


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, name: str, seed: int, scale: str, work: Path):
        self.w = wl.WORKLOADS[name]
        self.scale = scale
        self.work = work
        self.tally = Tally()
        self.sizes = wl.generate_corpora(self.w, seed, scale, work / "data")
        self.reference = None
        if scale == "full" and seed == wl.DEFAULT_SEED and REFERENCE.exists():
            self.reference = json.loads(REFERENCE.read_text())[name]
        self.log = work / "children.log"

    def setup_probes(self, n: int) -> list[float]:
        """Times for n fresh interpreters to import the CLI and load the
        workload's inputs."""
        argv = [sys.executable, "-c", SETUP_PROBE,
                *(str(self.work / "data" / f) for f in self.w.corpora)]
        times = []
        for _ in range(n):
            code, wall, _ = run_child(argv, self.work, self.log)
            self.tally.record("setup", [] if code == 0 else [f"exit code {code}"])
            times.append(wall)
        return times

    def rep(self, rep_dir: Path, baseline: Path | None = None):
        """Run the workload's invocations untraced in rep_dir and check them;
        returns (wall seconds, peak RSS MB)."""
        rep_dir.mkdir()
        codes, wall, rss = [], 0.0, 0.0
        for step in self.w.steps:
            code, t, r = run_child([sys.executable, "-m", "pvireduce.cli", *wl.cli_argv(step)],
                                   rep_dir, self.log)
            codes.append(code)
            wall += t
            rss = max(rss, r)
        checks = wl.check_rep(self.w.name, rep_dir, self.sizes, self.scale, self.reference)
        for step, out, code, problems in zip(self.w.steps, self.w.outputs, codes, checks):
            if code != 0:
                problems = [f"exit code {code}"] + problems
            if baseline is not None:
                problems += [f"{f} differs from the first repeat"
                             for f in differing_files(baseline, rep_dir, out)]
            self.tally.record(step[0], problems)
        return wall, rss

    def traced_rep(self, rep_dir: Path, untraced: Path):
        """Run the invocations in-process with spans; returns (wall, spans)."""
        rep_dir.mkdir()
        traces, wall = [], 0.0
        for i, (step, out) in enumerate(zip(self.w.steps, self.w.outputs)):
            spans_path = self.work / f"spans-{i}.json"
            code, t, _ = run_child([sys.executable, str(HERE / "traced_cli.py"),
                                    str(spans_path), "--", *wl.cli_argv(step)],
                                   rep_dir, self.log)
            wall += t
            problems = [] if code == 0 else [f"exit code {code}"]
            problems += [f"{f} differs from the untraced run"
                         for f in differing_files(untraced, rep_dir, out)]
            self.tally.record(f"traced {step[0]}", problems)
            if spans_path.exists():
                traces.append(json.loads(spans_path.read_text()))
        return wall, spanlib.merge_traces(traces)

    def measure(self, seconds: float) -> dict:
        """Repeat the workload for up to `seconds` (at least once); set-up
        probes bracket the repeats, so their median samples the host over
        the whole run."""
        self.setup_probes(1)  # untimed: fills the caches
        setup = self.setup_probes(SETUP_PROBES)
        walls, rss = [], []
        started = time.perf_counter()
        while True:
            k = len(walls)
            wall, peak = self.rep(self.work / f"rep{k}", self.work / "rep0" if k else None)
            walls.append(wall)
            rss.append(peak)
            if k:
                shutil.rmtree(self.work / f"rep{k}")
            # Start another repeat only if, at the pace so far, it ends
            # within `seconds`, so a run never goes far past them.
            elapsed = time.perf_counter() - started
            if elapsed * (k + 2) / (k + 1) > min(seconds, REP_BUDGET_S):
                break
        setup += self.setup_probes(SETUP_PROBES)
        print(f"repeats {len(walls)}: wall_s {' '.join(f'{w:.4f}' for w in walls)}")
        print(f"setup probes: {' '.join(f'{t:.4f}' for t in setup)}")
        return {"wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (max(rss), "MB")}

    def trace(self) -> dict:
        untraced_wall, _ = self.rep(self.work / "untraced")
        traced_wall, spans = self.traced_rep(self.work / "traced", self.work / "untraced")
        metrics = spanlib.layer_metrics(spans)
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        self_sum = sum(v for k, (v, _) in metrics.items() if k.startswith("layer."))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.unattributed_s"] = (traced_wall - top, "s")
        print(f"trace: {len(spans)} spans; layer self times sum to {self_sum:.4f} s, "
              f"top-level spans cover {top:.4f} s of traced wall {traced_wall:.4f} s; "
              f"untraced wall {untraced_wall:.4f} s; family.step samples "
              f"{sum(s['name'] == 'family.loss_and_grad' for s in spans)}")
        return metrics


def environment() -> str:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')}-{blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    threads = " ".join(f"{k}={v}" for k, v in THREAD_VARS.items())
    return (f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} blas={openblas} {threads}")


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{scale}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        run = Run(name, seed, scale, work)
        print(environment())
        print(f"workload {name} seed {seed} scale {scale} corpora {run.sizes}")
        measured = run.trace() if trace else run.measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = run.tally
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for metric, (value, unit) in measured.items():
        print(f"{metric} {value:.6g} {unit}")
    print(f"failed_share {tally.failed_share:.6g} ({tally.failed}/{tally.attempted} operations)")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}}


def shape_problems(result: dict, spec: dict, trace: bool) -> list[str]:
    """How a printed result departs from the metrics BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed are not whole numbers with attempted >= 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        if m.get("unit") != declared.get(name) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m}")
    return problems


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = []
    for name in wl.WORKLOADS:
        for trace in (False, True):
            result = run_one(name, wl.DEFAULT_SEED, 0, trace, scale="smoke")
            print(json.dumps(result))
            problems = shape_problems(result, spec, trace)
            if not result["correct"]:
                problems.append("outputs failed their checks")
            bad += [f"{name} trace={int(trace)}: {p}" for p in problems]
    for problem in bad:
        print(f"SMOKE FAILED {problem}")
    print("smoke ok" if not bad else "smoke failed")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS),
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "pvireduce" / "cli.py").is_file():
        print(f"error: no pvireduce sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    for name in [args.workload] if args.workload else wl.WORKLOADS:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
