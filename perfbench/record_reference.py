"""Record reference.json: the outputs of every workload at full size on the
default seed, which later runs on that seed are compared with (within the
tolerances in workloads.py).

    python3 perfbench/record_reference.py

Run it from the root of a checkout, only when a change to the program is
meant to change its outputs.
"""

import json
import os
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    reference = {"seed": wl.DEFAULT_SEED}
    for name in wl.WORKLOADS:
        work = run.WORK / f"reference-{name}-{os.getpid()}"
        work.mkdir()
        try:
            bench = run.Run(name, wl.DEFAULT_SEED, "full", work)
            bench.reference = None
            bench.rep(work / "rep")
            if bench.tally.failed:
                print("\n".join(bench.tally.problems), file=sys.stderr)
                return 1
            reference[name] = wl.observed(name, work / "rep")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
