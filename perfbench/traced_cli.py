"""Run one pvireduce CLI invocation in-process with every public function
traced, then write the spans as JSON.

Usage: python3 traced_cli.py SPANS_JSON -- CLI_ARG...
(pvireduce must be importable, e.g. PYTHONPATH=src.)
Exits with the CLI's own exit code.
"""

import json
import sys

from spans import Tracer, install


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_JSON -- CLI_ARG...", file=sys.stderr)
        return 1
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from pvireduce import cli
    code = cli.main(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
