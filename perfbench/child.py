"""Start one child interpreter and measure it from the outside."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Finished:
    exit_code: int
    stdout: bytes
    seconds: float  # wall time from spawn to reap
    rss_mb: float  # peak resident set size of this child alone


def env_for(root: Path) -> dict[str, str]:
    """The environment that makes ``gckit`` importable from ``root/src``."""
    paths = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run(
    args: list[str], env: dict[str, str], serve: Callable[[], float] | None = None
) -> Finished:
    """Run ``python args...``, returning its exit code, stdout and costs.

    The child is reaped with ``wait4`` so its peak RSS is its own, not the
    maximum over every child the benchmark has reaped so far.  Stderr is
    discarded: goldens cover only the exit code and stdout.

    With ``serve``, each stdout line of the child is a request: the parent
    answers it with ``serve()`` on the child's stdin, and returns no stdout.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.PIPE if serve else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    out = b""
    try:
        if serve:
            for _ in proc.stdout:
                proc.stdin.write(f"{serve()!r}\n".encode())
                proc.stdin.flush()
        else:
            out = proc.stdout.read()
    finally:
        for pipe in (proc.stdin, proc.stdout):
            if pipe:
                pipe.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    return Finished(proc.returncode, out, seconds, usage.ru_maxrss / 1024)
