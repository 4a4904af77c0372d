"""Run a list of ``gckit`` commands twice in one interpreter.

Usage: ``python3 perfbench/session.py OPS_JSON RESULT_OUT [TRACE_OUT]``.
``OPS_JSON`` holds ``[[name, [arg, ...]], ...]``.  Each command goes
through ``gckit.cli.main`` with stdout captured, so the module caches carry
work from one command, and from the first pass, to the next.  The result
file lists ``[pass, name, exit code, stdout, seconds]`` per command, and the
reference loop times taken before the first command and after each one.
For those, the interpreter asks the benchmark on its real stdout to time
the loop of ``hostspeed.py`` and reads the answer from stdin, so the loop
runs in a small process and not next to this one's caches.  With ``TRACE_OUT`` the tracer is installed and its spans are
written there.
"""

import contextlib
import io
import json
import sys
import time
import traceback

PASSES = 2


def run_op(cli_main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error exits 1, as in a process
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def reference_seconds() -> float:
    print("reference", file=sys.__stdout__, flush=True)
    return float(sys.stdin.readline())


def main() -> int:
    ops_path, result_out = sys.argv[1], sys.argv[2]
    trace_out = sys.argv[3] if len(sys.argv) > 3 else None
    with open(ops_path) as handle:
        ops = json.load(handle)
    import gckit.cli  # noqa: F401

    tracer = None
    if trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = sys.modules["gckit.cli"].main
    runs, references = [], [reference_seconds()]
    for number in range(1, PASSES + 1):
        for name, argv in ops:
            if tracer:
                tracer.op = f"{number}:{name}"
            start = time.perf_counter()
            code, out = run_op(cli_main, argv)
            spent = time.perf_counter() - start
            references.append(reference_seconds())
            runs.append([number, name, code, out, spent])
    if tracer:
        tracer.dump(trace_out)
    with open(result_out, "w") as handle:
        json.dump({"runs": runs, "references": references}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
