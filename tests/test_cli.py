"""The gckit command line: byte-frozen outputs and the exit-code contract."""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from gckit import parse_graph_sum, parse_orgraph_sum

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"


def _load_workloads():
    """The benchmark's operation table, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))

# Frozen ``rules-check`` stdout and exit codes: the ``data/`` graphs,
# ``perfbench/inputs/wheel7.g``, and every connected graph class with at most
# four vertices or with five vertices and at least six edges (``inputs/``).
# The zero graphs among them exit 1 with ``result: INCONSISTENT``.
RULES_GOLDEN = ROOT / "tests" / "golden" / "rules-check"
RULES_EXIT_CODES = json.loads(
    (RULES_GOLDEN / "exit_codes.json").read_text(encoding="utf-8")
)


def _rules_input(name: str) -> Path:
    for folder in (RULES_GOLDEN / "inputs", ROOT / "data", ROOT / "perfbench" / "inputs"):
        path = folder / f"{name}.g"
        if path.exists():
            return path
    raise FileNotFoundError(name)


# Frozen stdout and exit codes of every verb on every ``data/`` input: per
# graph ``d``, ``cocycle``, ``orient``, ``orient --reduce``, and ``fold`` of
# that graph's ``orient`` golden (``edge`` has 3 sinks, so its ``fold`` exits
# 2; ``path3`` is a zero graph, so its ``orient`` is empty and so is its
# ``fold``); ``verify-corollary`` per graph and bivector,
# except ``wheel5`` and ``companion5`` on ``cubic3`` (17-21 s each); and
# ``schouten`` per ordered pair of bivectors.
VERBS_GOLDEN = ROOT / "tests" / "golden" / "verbs"
VERBS_EXIT_CODES = json.loads(
    (VERBS_GOLDEN / "exit_codes.json").read_text(encoding="utf-8")
)
SLOW_COROLLARIES = {("wheel5", "cubic3"), ("companion5", "cubic3")}


def verb_cases() -> dict[str, list[str]]:
    """Argument lists of the ``verbs`` goldens, keyed by case name."""
    data = ROOT / "data"
    graphs = sorted(path.stem for path in data.glob("*.g"))
    bivectors = sorted(path.stem for path in data.glob("*.poisson"))
    cases: dict[str, list[str]] = {}
    for g in graphs:
        graph = str(data / f"{g}.g")
        cases[f"d-{g}"] = ["d", graph]
        cases[f"cocycle-{g}"] = ["cocycle", graph]
        cases[f"orient-{g}"] = ["orient", graph]
        cases[f"orient-reduce-{g}"] = ["orient", "--reduce", graph]
        cases[f"fold-{g}"] = ["fold", str(VERBS_GOLDEN / f"orient-{g}.out")]
        for p in bivectors:
            if (g, p) not in SLOW_COROLLARIES:
                cases[f"corollary-{g}-{p}"] = [
                    "verify-corollary", "--graph", graph,
                    "--poisson", str(data / f"{p}.poisson"),
                ]
    for f in bivectors:
        for h in bivectors:
            cases[f"schouten-{f}-{h}"] = [
                "schouten", str(data / f"{f}.poisson"), str(data / f"{h}.poisson")
            ]
    return cases


TETRA_REDUCED = """\
1 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3
-3 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3
-3 * o 4 : 0 3 ; 4 5 ; 1 2 ; 2 4
"""

TETRA_RAW = """\
8 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3
-24 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3
-24 * o 4 : 0 3 ; 4 5 ; 1 2 ; 2 4
"""

KERNEL_4_6 = """\
dimension: 1
# basis 1
1 * g 4 6 : 1 2, 1 3, 1 4, 2 3, 2 4, 3 4
"""

KERNEL_6_10 = """\
dimension: 1
# basis 1
2 * g 6 10 : 1 2, 1 3, 1 4, 1 5, 1 6, 2 3, 2 4, 3 5, 4 6, 5 6
5 * g 6 10 : 1 2, 1 3, 1 4, 1 5, 2 3, 2 4, 2 6, 3 5, 4 6, 5 6
"""

EDGE_RULES_REPORT = """\
witnesses: 6
classes: 3
class consistency: ok
elementary move signs (24 moves): ok
result: consistent
"""

TETRA_FOLDED = """\
8 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3
-24 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3
"""

CUBIC_SELF_BRACKET = """\
dim 3
2*x1*x2^2*x3^2*xi1*xi2*xi3
2*x1^2*x2*x3^2*xi1*xi2*xi3
2*x1^2*x2^2*x3*xi1*xi2*xi3
"""

TETRA_FLOW_ON_CUBIC = """\
dim 3
-12*x2^5*x3*xi2*xi3
12*x1*x3^5*xi1*xi3
36*x1*x2*x3^4*xi2*xi3
24*x1*x2^2*x3^3*xi2*xi3
-48*x1*x2^3*x3^2*xi1*xi3
36*x1*x2^4*x3*xi1*xi2
48*x1^2*x2*x3^3*xi1*xi2
24*x1^2*x2^2*x3^2*xi1*xi2
-24*x1^2*x2^2*x3^2*xi1*xi3
24*x1^2*x2^2*x3^2*xi2*xi3
24*x1^2*x2^3*x3*xi1*xi2
-24*x1^3*x2*x3^2*xi1*xi3
48*x1^3*x2^2*x3*xi2*xi3
-36*x1^4*x2*x3*xi1*xi3
-12*x1^5*x2*xi1*xi2
"""


@pytest.fixture
def tetra_file(data_dir) -> str:
    return str(data_dir / "tetra.g")


@pytest.fixture
def q3_file(cli, tetra_file, tmp_path) -> str:
    code, out, _ = cli("orient", "--reduce", tetra_file)
    assert code == 0
    path = tmp_path / "q3.ogs"
    path.write_text(out, encoding="utf-8")
    return str(path)


class TestBasics:
    def test_version(self, cli):
        code, out, _ = cli("--version")
        assert code == 0
        assert out == "gckit-fmt/1\n"

    def test_unknown_verb_is_a_usage_error(self, cli):
        code, out, err = cli("frobnicate")
        assert code == 2
        assert out == ""
        assert "invalid choice" in err

    def test_no_verb_is_a_usage_error(self, cli):
        code, _, _ = cli()
        assert code == 2

    def test_missing_file(self, cli):
        code, out, err = cli("cocycle", "/nonexistent/x.g")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read /nonexistent/x.g")


class TestDifferentialAndCocycle:
    def test_d_of_edge_is_the_empty_sum(self, cli, data_dir):
        code, out, err = cli("d", str(data_dir / "edge.g"))
        assert (code, out, err) == (0, "", "")

    def test_d_accepts_graph_sums(self, cli, tmp_path, tetra_file):
        path = tmp_path / "s.gs"
        path.write_text("3 * g 4 6 : 1 2, 1 3, 1 4, 2 3, 2 4, 3 4\n")
        code, out, _ = cli("d", str(path))
        assert (code, out) == (0, "")

    def test_d_output_parses_back(self, cli, tmp_path):
        path = tmp_path / "open.g"
        path.write_text("g 4 5\n1 2\n1 3\n1 4\n2 3\n2 4\n")
        code, out, _ = cli("d", str(path))
        assert code == 0
        assert out == "4 * g 5 6 : 1 2, 1 3, 1 4, 2 3, 2 5, 4 5\n"
        assert parse_graph_sum(out)

    def test_cocycle_yes(self, cli, tetra_file):
        code, out, _ = cli("cocycle", tetra_file)
        assert (code, out) == (0, "cocycle: yes\n")

    def test_cocycle_no_exits_1(self, cli, tmp_path):
        path = tmp_path / "open.g"
        path.write_text("g 4 5\n1 2\n1 3\n1 4\n2 3\n2 4\n")
        code, out, _ = cli("cocycle", str(path))
        assert (code, out) == (1, "cocycle: no\n")

    def test_parse_error_is_annotated(self, cli, tmp_path):
        path = tmp_path / "bad.g"
        path.write_text("g 4 6\n1 2\n")
        code, out, err = cli("d", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: line 1: expected 6 edge lines, found 1\n"


class TestKernel:
    def test_tetrahedron_bigrading(self, cli):
        code, out, _ = cli("kernel", "--vertices", "4", "--edges", "6")
        assert (code, out) == (0, KERNEL_4_6)

    def test_six_vertex_bigrading(self, cli):
        code, out, _ = cli("kernel", "--vertices", "6", "--edges", "10")
        assert (code, out) == (0, KERNEL_6_10)

    def test_empty_kernel(self, cli):
        code, out, _ = cli("kernel", "--vertices", "4", "--edges", "5")
        assert (code, out) == (0, "dimension: 0\n")

    def test_flag_validation(self, cli):
        code, _, err = cli("kernel", "--vertices", "0", "--edges", "3")
        assert code == 2
        assert "error:" in err

    def test_missing_flags_are_usage_errors(self, cli):
        code, _, _ = cli("kernel", "--vertices", "4")
        assert code == 2

    def test_too_many_vertices_fail_at_once(self, cli):
        start = time.perf_counter()
        code, out, err = cli("kernel", "--vertices", "12", "--edges", "14")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", "error: --vertices above the maximum 8\n")

    def test_eight_vertices_are_allowed(self, cli):
        code, out, _ = cli("kernel", "--vertices", "8", "--edges", "29")
        assert (code, out) == (0, "dimension: 0\n")


class TestBenchmarkGoldens:
    """Every benchmark operation, on its inputs as checked in, prints its golden."""

    @pytest.mark.parametrize("op", list(EXIT_CODES))
    def test_matches_benchmark_golden(self, cli, op):
        argv = [
            str(WORKLOADS.source_path(ROOT, arg[1:-1])) if arg.startswith("{") else arg
            for arg in WORKLOADS.OPS[op][1]
        ]
        code, out, _ = cli(*argv)
        assert code == EXIT_CODES[op]
        assert out.encode("utf-8") == (GOLDEN / f"{op}.out").read_bytes()


class TestVerbGoldens:
    """Every verb on every ``data/`` input prints its golden bytes."""

    def test_cases_match_the_goldens(self):
        assert sorted(verb_cases()) == sorted(VERBS_EXIT_CODES)

    @pytest.mark.parametrize("case", sorted(VERBS_EXIT_CODES))
    def test_matches_golden(self, cli, case):
        code, out, _ = cli(*verb_cases()[case])
        assert code == VERBS_EXIT_CODES[case]
        assert out.encode("utf-8") == (VERBS_GOLDEN / f"{case}.out").read_bytes()


class TestOrient:
    def test_reduced_flow(self, cli, tetra_file):
        code, out, err = cli("orient", "--reduce", tetra_file)
        assert (code, out, err) == (0, TETRA_REDUCED, "")

    def test_raw_flow(self, cli, tetra_file):
        code, out, _ = cli("orient", tetra_file)
        assert (code, out) == (0, TETRA_RAW)

    def test_zero_flow_prints_nothing(self, cli, data_dir):
        code, out, _ = cli("orient", str(data_dir / "path3.g"))
        assert (code, out) == (0, "")

    def test_jobs_flag_is_a_usage_error(self, cli, tetra_file):
        code, out, err = cli("orient", "--jobs", "2", tetra_file)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --jobs" in err

    def test_output_is_deterministic(self, cli, data_dir):
        wheel = str(data_dir / "wheel5.g")
        assert cli("orient", wheel) == cli("orient", wheel)

    def test_output_round_trips(self, cli, data_dir):
        code, out, _ = cli("orient", str(data_dir / "wheel5.g"))
        assert code == 0
        assert len(parse_orgraph_sum(out).items()) == out.count("\n")

    def test_orient_accepts_graph_sums(self, cli, tmp_path):
        path = tmp_path / "twice.gs"
        path.write_text("2 * g 4 6 : 1 2, 1 3, 1 4, 2 3, 2 4, 3 4\n")
        code, out, _ = cli("orient", str(path))
        assert code == 0
        assert out.splitlines()[0] == "16 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3"


class TestNormalize:
    def test_sign_of_presentation(self, cli, tmp_path):
        path = tmp_path / "t.og"
        path.write_text("o 4 : 3 0 ; 1 4 ; 2 5 ; 2 3\n")
        code, out, _ = cli("normalize", str(path))
        assert (code, out) == (0, "-1 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3\n")

    def test_zero_orgraph_notes_to_stderr(self, cli, tmp_path):
        path = tmp_path / "z.og"
        path.write_text("o 4 : 0 1 ; 2 4 ; 2 5 ; 2 2\n")
        code, out, err = cli("normalize", str(path))
        assert (code, out) == (0, "")
        assert err == "note: orgraph normalizes to zero\n"


class TestRulesCheck:
    def test_edge_report(self, cli, data_dir):
        code, out, _ = cli("rules-check", str(data_dir / "edge.g"))
        assert (code, out) == (0, EDGE_RULES_REPORT)

    def test_tetra_report_consistent(self, cli, tetra_file):
        code, out, _ = cli("rules-check", tetra_file)
        assert code == 0
        assert out.endswith("result: consistent\n")
        assert "witnesses: 56 (Lambda 8, Pi 48)" in out

    def test_wheel_report_worked_examples(self, cli, data_dir):
        code, out, _ = cli("rules-check", str(data_dir / "wheel5.g"))
        assert code == 0
        assert "(-)(+)(-) = (+)" in out
        assert "edge-order 10, encoding-order 15" in out

    @pytest.mark.parametrize("name", sorted(RULES_EXIT_CODES))
    def test_matches_golden(self, cli, name):
        code, out, _ = cli("rules-check", str(_rules_input(name)))
        assert code == RULES_EXIT_CODES[name]
        assert out.encode("utf-8") == (RULES_GOLDEN / f"{name}.out").read_bytes()


class TestEvalAndSchouten:
    def test_flow_of_poisson_bivector_vanishes(self, cli, q3_file, data_dir):
        code, out, _ = cli("eval", "--poisson", str(data_dir / "so3.poisson"), q3_file)
        assert (code, out) == (0, "dim 3\n")

    def test_flow_of_non_poisson_bivector(self, cli, q3_file, data_dir):
        code, out, _ = cli(
            "eval", "--poisson", str(data_dir / "cubic3.poisson"), q3_file
        )
        assert (code, out) == (0, TETRA_FLOW_ON_CUBIC)

    def test_dim_flag_checks_the_header(self, cli, q3_file, data_dir):
        poisson = str(data_dir / "so3.poisson")
        code, out, err = cli("eval", "--poisson", poisson, "--dim", "2", q3_file)
        assert code == 2
        assert "does not match --dim 2" in err
        code, _, _ = cli("eval", "--poisson", poisson, "--dim", "3", q3_file)
        assert code == 0

    def test_sink_with_two_arrows_is_an_input_error(self, cli, tmp_path, data_dir):
        path = tmp_path / "bad.os"
        path.write_text("1 * o 2 : 0 3 ; 0 1\n")
        code, out, err = cli("eval", "--poisson", str(data_dir / "so3.poisson"), str(path))
        assert (code, out, err) == (2, "", "error: sink 0 must receive exactly one arrow\n")

    def test_pentagon_wheel_flow_of_poisson_bivector_vanishes(
        self, cli, tmp_path, data_dir
    ):
        cocycle = tmp_path / "gamma5.gs"
        cocycle.write_text(KERNEL_6_10.split("# basis 1\n")[1])
        code, flow, _ = cli("orient", str(cocycle))
        assert code == 0
        path = tmp_path / "or_gamma5.os"
        path.write_text(flow)
        code, out, _ = cli("eval", "--poisson", str(data_dir / "so3.poisson"), str(path))
        assert (code, out) == (0, "dim 3\n")

    def test_schouten_self_bracket(self, cli, data_dir):
        cubic = str(data_dir / "cubic3.poisson")
        code, out, _ = cli("schouten", cubic, cubic)
        assert (code, out) == (0, CUBIC_SELF_BRACKET)

    def test_schouten_of_poisson_with_itself_is_zero(self, cli, data_dir):
        so3 = str(data_dir / "so3.poisson")
        code, out, _ = cli("schouten", so3, so3)
        assert (code, out) == (0, "dim 3\n")

    def test_zero_denominator_is_an_input_error(self, cli, tmp_path):
        path = tmp_path / "bad.poisson"
        path.write_text("dim 2\n2/0*xi1*xi2\n")
        code, out, err = cli("schouten", str(path), str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 2: zero denominator in '2/0' at column 1\n"

    def test_overlong_number_is_an_input_error(self, cli, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.poisson"
        path.write_text("dim 2\nx1*" + "7" * (limit + 1) + "*xi1*xi2\n")
        code, out, err = cli("schouten", str(path), str(path))
        assert (code, out) == (2, "")
        assert err == f"error: line 2: number with more than {limit} digits at column 4\n"

    @pytest.mark.parametrize("digits", ["10001", "9" * 5000], ids=["10001", "5000-digits"])
    def test_overlarge_dimension_is_an_input_error(self, cli, tmp_path, digits):
        path = tmp_path / "wide.poisson"
        path.write_text(f"# wide\ndim {digits}\nx1*xi1*xi2\n")
        code, out, err = cli("schouten", str(path), str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 2: dimension above the maximum 10000\n"

    def test_schouten_dimension_mismatch(self, cli, data_dir):
        code, _, err = cli(
            "schouten", str(data_dir / "so3.poisson"), str(data_dir / "sym2.poisson")
        )
        assert code == 2
        assert "dimension mismatch" in err


class TestVerifyCorollary:
    def test_holds_off_shell(self, cli, tetra_file, data_dir):
        code, out, _ = cli(
            "verify-corollary",
            "--graph", tetra_file,
            "--poisson", str(data_dir / "cubic3.poisson"),
        )
        assert (code, out) == (0, "corollary: yes\n")

    def test_holds_on_shell(self, cli, tetra_file, data_dir):
        code, out, _ = cli(
            "verify-corollary",
            "--graph", tetra_file,
            "--poisson", str(data_dir / "so3.poisson"),
        )
        assert (code, out) == (0, "corollary: yes\n")

    @pytest.mark.parametrize("text", ["x1*xi1*xi2 + x2", "x1*xi1"])
    def test_rejects_a_non_bivector(self, cli, tmp_path, tetra_file, text):
        path = tmp_path / "p.poisson"
        path.write_text(f"dim 2\n{text}\n")
        code, out, err = cli("verify-corollary", "--graph", tetra_file, "--poisson", str(path))
        assert (code, out, err) == (2, "", "error: bivector required\n")


class TestFold:
    def test_tetra_flow(self, cli, tmp_path, tetra_file):
        code, raw, _ = cli("orient", tetra_file)
        path = tmp_path / "flow.ogs"
        path.write_text(raw)
        code, out, _ = cli("fold", str(path))
        assert (code, out) == (0, TETRA_FOLDED)

    def test_violation_is_a_mathematical_failure(self, cli, tmp_path, tetra_file):
        _, raw, _ = cli("orient", tetra_file)
        broken = "\n".join(raw.splitlines()[:-1]) + "\n"
        path = tmp_path / "broken.ogs"
        path.write_text(broken)
        code, out, err = cli("fold", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: skew-symmetry violated")
