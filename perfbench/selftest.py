"""Self-tests of the benchmark.  Run from the root of the repository::

    python3 perfbench/selftest.py

Prints one ``PASS``/``FAIL`` line per check and exits 1 if any fails.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import child
import run
from tracer import TARGETS, Tracer, gckit_modules
from workloads import GOLDEN_DIR, INPUTS, OPS, even_permutation, inversions, materialize, present, source_path, work_dir

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import gckit  # noqa: E402
from gckit.complexes import parse_graph_sum  # noqa: E402
from gckit.graphs import canonicalize, parse_graph  # noqa: E402
from gckit.orient import normalize_orgraph, parse_orgraph, parse_orgraph_sum  # noqa: E402

SEEDS = range(6)


def check_corrupted_golden_fails(workdir: Path) -> None:
    corrupted = workdir / "golden"
    shutil.copytree(GOLDEN_DIR, corrupted)
    target = corrupted / "eval-or-tetra-cubic3.out"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    argvs = materialize(ROOT, ["cocycle-gamma5", "eval-or-tetra-cubic3"], 7, workdir)
    env = child.env_for(ROOT)
    for directory, expected in ((GOLDEN_DIR, 0), (corrupted, 1)):
        tally = run.Tally(run.load_goldens(directory))
        run.cold_pass(argvs, env, tally, workdir, False)
        assert (tally.attempted, tally.failed) == (2, expected), (directory.name, tally.mismatches)


def check_permutations_even() -> None:
    import random

    for n in range(9):
        for seed in range(40):
            assert inversions(even_permutation(random.Random(seed), n)) % 2 == 0


def _same_element(key: str, original: str, seeded: str) -> bool:
    suffix = key.rsplit(".", 1)[1]
    if suffix == "g":
        a, b = canonicalize(parse_graph(original)), canonicalize(parse_graph(seeded))
        return (a.canonical, a.sign, a.is_zero) == (b.canonical, b.sign, b.is_zero)
    if suffix == "gs":
        return parse_graph_sum(original) == parse_graph_sum(seeded)
    if suffix == "os":
        return parse_orgraph_sum(original) == parse_orgraph_sum(seeded)
    a, b = normalize_orgraph(parse_orgraph(original)), normalize_orgraph(parse_orgraph(seeded))
    return (a.orgraph, a.sign, a.is_zero) == (b.orgraph, b.sign, b.is_zero)


def check_seeded_inputs_same_element() -> None:
    for key, (_, rewritten) in INPUTS.items():
        if not rewritten:
            continue
        original = source_path(ROOT, key).read_text()
        texts = set()
        for seed in SEEDS:
            seeded = present(key, original, seed)
            assert seeded == present(key, original, seed), f"{key}: seed {seed} not deterministic"
            assert _same_element(key, original, seeded), f"{key}: seed {seed} changed the element or sign"
            texts.add(seeded)
        assert len(texts) > 1, f"{key}: every seed gives the same text"


def check_traced_stdout_identical(workdir: Path) -> None:
    names = ["cocycle-gamma5", "normalize-hept1", "eval-or-tetra-cubic3", "rules-check-wheel5"]
    argvs = materialize(ROOT, names, 3, workdir)
    env = child.env_for(ROOT)
    bench = Path(run.__file__).resolve().parent
    for name in names:
        plain = child.run(["-m", "gckit.cli", *argvs[name]], env)
        trace_out = workdir / "trace.json"
        traced = child.run([str(bench / "traced_cli.py"), str(trace_out), name, *argvs[name]], env)
        assert (plain.exit_code, plain.stdout) == (traced.exit_code, traced.stdout), name
        assert trace_out.stat().st_size > 0


def _bindings() -> dict[tuple[str, str], object]:
    return {(m.__name__, key): value for m in gckit_modules() for key, value in vars(m).items()}


def check_wrappers_everywhere_and_removable() -> None:
    import gckit.cli  # noqa: F401

    before = _bindings()
    originals = {name: getattr(sys.modules[module], attr) for name, (module, attr, _, _) in TARGETS.items()}
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        leftover = [k for k, v in during.items() if any(v is fn for fn in originals.values())]
        assert not leftover, f"originals still bound at {leftover}"
        for module, attr in [("gckit.graphs", "canonicalize"), ("gckit.complexes", "canonicalize"),
                             ("gckit", "canonicalize"), ("gckit.orient", "normalize_orgraph"),
                             ("gckit.cli", "normalize_orgraph"), ("gckit", "orient")]:
            assert during[(module, attr)] is not before[(module, attr)], (module, attr)
        assert sys.modules["gckit.orient"].__name__ == "gckit.orient"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, f"not restored: {changed}"


def check_self_time_under_recursion() -> None:
    from tracer import layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        tetra = parse_graph((ROOT / "data" / "tetra.g").read_text())
        total = gckit.complexes.GraphSum([(tetra, 1)]) + gckit.complexes.GraphSum([(tetra, 1)])
        sys.modules["gckit"].orient(total)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    orient_spans = [s for s in spans if s[0] == "orient.orient"]
    assert [s[5] for s in orient_spans] == [False, True], orient_spans
    outer, inner = orient_spans
    assert inner[3] == spans.index(outer)
    roots = sum(s[2] - s[1] for s in spans if s[3] == -1)
    dump = {"spans": spans, "counters": {}}
    metrics = layer_metrics([dump])
    assert abs(metrics["orient.orient.s"] - (outer[2] - outer[1])) < 1e-9
    covered = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    self_total = sum(s[2] - s[1] - covered[i] for i, s in enumerate(spans))
    assert abs(self_total - roots) < 1e-6, (self_total, roots)


def check_derived_inputs_reproduce() -> None:
    bench = Path(run.__file__).resolve().parent
    done = subprocess.run([sys.executable, str(bench / "make_goldens.py"), "--check"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def check_every_op_has_a_golden() -> None:
    assert set(run.load_goldens(GOLDEN_DIR)) == set(OPS)


def main() -> int:
    failures = 0
    with work_dir(ROOT) as workdir:
        checks = [
            ("corrupted golden counts as a failed operation", lambda: check_corrupted_golden_fails(workdir)),
            ("even permutations are even", check_permutations_even),
            ("seeded inputs are deterministic and the same element", check_seeded_inputs_same_element),
            ("traced stdout is byte-identical to untraced", lambda: check_traced_stdout_identical(workdir)),
            ("wrappers bind everywhere and uninstall restores", check_wrappers_everywhere_and_removable),
            ("self time is exact under recursion", check_self_time_under_recursion),
            ("derived inputs reproduce byte for byte", check_derived_inputs_reproduce),
            ("every operation has a golden", check_every_op_has_a_golden),
        ]
        for title, check in checks:
            try:
                check()
                print(f"PASS {title}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {title}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
