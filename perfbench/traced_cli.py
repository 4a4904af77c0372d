"""Run one ``gckit`` command with the tracer installed.

Usage: ``python3 perfbench/traced_cli.py TRACE_OUT OP_ID ARG...`` runs
``gckit ARG...`` exactly as ``python -m gckit.cli`` would, then writes the
spans to ``TRACE_OUT``.  Stdout carries only the command's own output.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_out, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op
    try:
        return sys.modules["gckit.cli"].main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
