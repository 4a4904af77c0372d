"""gckit benchmark: golden-checked workloads of ``gckit`` commands.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The cold workloads (complex, orient, flow) run each operation as a fresh
``python -m gckit.cli`` process, which is what a command-line user pays.
The session workload runs its operations twice in one interpreter.  Passes
repeat until ``--seconds`` is spent (at least one pass), and every output
is compared byte for byte with its golden.

Every process runs on one CPU, and its time is normalized by the reference
loop timed just before and just after it (see ``hostspeed.py``).  With ``--trace 0`` the last
stdout line reports the end-to-end metrics: ``wall_s`` (every operation
once: the sum of each operation's median time; for the session, the median
time of its two passes), ``setup_s`` (median time of a fresh
``gckit --version``) and ``peak_rss_mb`` (largest RSS of any process of a
pass, median over passes).  With ``--trace 1`` untraced and traced passes
alternate, and the line reports the per-layer metrics of the traced passes,
the per-verb times of the untraced ones, and the tracing overhead.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import child
from hostspeed import normalize, pin_to_one_cpu, reference_seconds
from tracer import layer_metrics
from workloads import GOLDEN_DIR, OPS, VERB_METRICS, WORKLOADS, materialize, work_dir

# Set-up is sampled before the first pass and again after every pass, so
# its median spans the whole run like the passes do.
SETUP_RUNS = 5
SETUP_RUNS_PER_ROUND = 2
BENCH = Path(__file__).resolve().parent


@dataclass
class Tally:
    """Operations attempted and failed against the goldens."""

    goldens: dict[str, tuple[int, bytes]]
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def check(self, name: str, exit_code: int, stdout: bytes) -> None:
        self.attempted += 1
        if (exit_code, stdout) != self.goldens[name]:
            self.failed += 1
            self.mismatches.append(f"{name}: exit {exit_code}")


@dataclass
class Pass:
    seconds: dict[str, float]  # operation -> normalized time (both session passes)
    raw: dict[str, float]  # the same, not normalized
    rss_mb: float
    references: list[float]  # loop times bracketing the processes
    dumps: list[dict] = field(default_factory=list)
    session_passes: list[float] = field(default_factory=list)  # normalized


def load_goldens(directory: Path) -> dict[str, tuple[int, bytes]]:
    codes = json.loads((directory / "exit_codes.json").read_text())
    return {name: (code, (directory / f"{name}.out").read_bytes()) for name, code in codes.items()}


def cold_pass(argvs, env, tally: Tally, workdir: Path, traced: bool) -> Pass:
    step = Pass({}, {}, 0.0, [reference_seconds()])
    for name, argv in argvs.items():
        if traced:
            trace_out = workdir / f"{name}.trace"
            done = child.run([str(BENCH / "traced_cli.py"), str(trace_out), name, *argv], env)
            step.dumps.append(json.loads(trace_out.read_text()))
            trace_out.unlink()
        else:
            done = child.run(["-m", "gckit.cli", *argv], env)
        step.references.append(reference_seconds())
        tally.check(name, done.exit_code, done.stdout)
        step.raw[name] = done.seconds
        step.rss_mb = max(step.rss_mb, done.rss_mb)
    step.seconds = dict(zip(step.raw, normalize(list(step.raw.values()), step.references)))
    return step


def session_pass(argvs, env, tally: Tally, workdir: Path, traced: bool) -> Pass:
    ops_path, result_path = workdir / "session-ops.json", workdir / "session-result.json"
    trace_path = workdir / "session.trace"
    ops_path.write_text(json.dumps(list(argvs.items())))
    args = [str(BENCH / "session.py"), str(ops_path), str(result_path)]
    done = child.run(args + ([str(trace_path)] if traced else []), env, serve=reference_seconds)
    if done.exit_code != 0:
        raise RuntimeError(f"session interpreter exited {done.exit_code}")
    result = json.loads(result_path.read_text())
    runs, references = result["runs"], result["references"]
    step = Pass(dict.fromkeys(argvs, 0.0), dict.fromkeys(argvs, 0.0), done.rss_mb, references, session_passes=[0.0, 0.0])
    for (number, name, code, out, spent), seconds in zip(runs, normalize([r[4] for r in runs], references)):
        tally.check(name, code, out.encode())
        step.seconds[name] += seconds
        step.raw[name] += spent
        step.session_passes[number - 1] += seconds
    if traced:
        step.dumps.append(json.loads(trace_path.read_text()))
    for path in (ops_path, result_path, trace_path):
        path.unlink(missing_ok=True)
    return step


def measure_setup(env, runs: int) -> list[float]:
    """Normalized times of ``runs`` fresh ``gckit --version`` processes."""
    times, references = [], [reference_seconds()]
    for _ in range(runs):
        done = child.run(["-m", "gckit.cli", "--version"], env)
        if done.exit_code != 0:
            raise RuntimeError(f"gckit --version exited {done.exit_code}")
        times.append(done.seconds)
        references.append(reference_seconds())
    return normalize(times, references)


def wall(passes: list[Pass], session: bool, raw: bool = False) -> float:
    """Every operation once: the sum of each operation's median time.

    A session pass is one interpreter, so its operations are not
    independent samples: the session takes the median of pass totals.
    """
    times = [p.raw if raw else p.seconds for p in passes]
    if session:
        return statistics.median(sum(t.values()) for t in times)
    return sum(statistics.median(t[name] for t in times) for name in times[0])


def verb_metrics(passes: list[Pass]) -> dict[str, float]:
    out = dict.fromkeys(VERB_METRICS.values(), 0.0)
    for name in passes[0].seconds:
        verb = OPS[name][0]
        if verb in VERB_METRICS:
            out[VERB_METRICS[verb]] += statistics.median(p.seconds[name] for p in passes)
    return out


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gckit" / "cli.py").is_file():
        print("perfbench: run from the root of a gckit checkout (no src/gckit here)", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so the running child is waited for and scratch files go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    names, in_session = WORKLOADS[args.workload]
    tally = Tally(load_goldens(GOLDEN_DIR))
    env = child.env_for(root)
    run_pass = session_pass if in_session else cold_pass

    with work_dir(root) as workdir:
        argvs = materialize(root, names, args.seed, workdir)
        measure_setup(env, 1)  # warm-up: a fresh checkout compiles bytecode here
        setup = measure_setup(env, SETUP_RUNS)
        plain: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        deadline = start + args.seconds
        rounds = 0
        while True:
            plain.append(run_pass(argvs, env, tally, workdir, False))
            if args.trace:
                traced.append(run_pass(argvs, env, tally, workdir, True))
            setup += measure_setup(env, SETUP_RUNS_PER_ROUND)
            rounds += 1
            per_round = (time.perf_counter() - start) / rounds
            if time.perf_counter() + per_round > deadline:
                break

    if args.trace:
        untraced_wall = wall(plain, in_session)
        traced_wall = wall(traced, in_session)
        metrics = {
            **median_metrics([layer_metrics(p.dumps) for p in traced]),
            **verb_metrics(plain),
            "session.first_pass_s": statistics.median(p.session_passes[0] for p in plain) if in_session else 0.0,
            "session.second_pass_s": statistics.median(p.session_passes[1] for p in plain) if in_session else 0.0,
            "trace.untraced_wall_s": untraced_wall,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "raw.wall_s": wall(plain, in_session, raw=True),
            "host.reference_s": statistics.median(r for p in plain for r in p.references),
            "failed_ops": tally.failed / tally.attempted,
        }
    else:
        metrics = {
            "wall_s": wall(plain, in_session),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        }
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for line in tally.mismatches[:10]:
        print(f"perfbench: golden mismatch: {line}", file=sys.stderr)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace}"
        f" rounds={rounds} attempted={tally.attempted} failed={tally.failed}"
    )
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
