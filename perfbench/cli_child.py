"""Run `tilealg.cli` with span tracing, for the traced cli_session run.

    python3 perfbench/cli_child.py <span-file> <op-id> <cli arguments...>

Stdout and the exit code are the CLI's own; the spans and the per-layer
summary go to <span-file> as JSON.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer  # noqa: E402
from tilealg import cli  # noqa: E402


def main():
    span_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer().install()
    tracer.op = op_id
    tracer.enabled = True
    try:
        code = cli.main(argv)
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
