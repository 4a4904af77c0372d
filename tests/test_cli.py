"""The gckit command line: byte-frozen outputs and the exit-code contract."""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from gckit import new_graph, parse_graph, parse_graph_sum, parse_orgraph_sum
import gckit.cli as cli_module
from gckit.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BENCHMARK_GOLDEN = ROOT / "perfbench" / "golden"
VERBS_GOLDEN = GOLDEN / "verbs"
RULES_INPUTS = GOLDEN / "rules-check" / "inputs"
SLOW_COROLLARIES = {(g, p) for g in ("wheel5", "companion5") for p in ("cubic3", "nambu3")}
SLOW_EVALS = {("companion5", "nambu3")}


def benchmark_cases() -> dict[str, list[str]]:
    """Argument lists of the benchmark operations on their inputs as checked
    in, from the operation table ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.materialize(ROOT, list(module.OPS), None, None)


def verb_cases() -> dict[str, list[str]]:
    """Argument lists of the ``verbs`` goldens, keyed by case name.

    Per graph: ``d``, ``cocycle``, ``orient``, ``orient --reduce``, and
    ``fold`` of that graph's ``orient`` golden (``edge`` has 3 sinks, so its
    ``fold`` exits 2; ``path3`` is a zero graph, so its ``orient`` is empty
    and so is its ``fold``).  ``verify-corollary`` per graph and bivector,
    except ``wheel5`` and ``companion5`` on ``cubic3`` and ``nambu3``, which
    take 10-20 s each; ``eval`` of that graph's ``orient`` golden per
    bivector, except ``companion5`` on ``nambu3`` (1.4-1.6 s in-process,
    where ``wheel5`` on ``nambu3`` takes 0.5-0.6 s; ``edge`` gives a 3-sink
    flow);
    ``schouten`` per ordered pair of bivectors; and ``kernel`` at (7, 11),
    whose 432 x 70 differential has a 5-dimensional kernel.
    """
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
            poisson = str(data / f"{p}.poisson")
            if (g, p) not in SLOW_COROLLARIES:
                cases[f"corollary-{g}-{p}"] = [
                    "verify-corollary", "--graph", graph, "--poisson", poisson,
                ]
            if (g, p) not in SLOW_EVALS:
                cases[f"eval-{g}-{p}"] = [
                    "eval", "--poisson", poisson, str(VERBS_GOLDEN / f"orient-{g}.out"),
                ]
    for f in bivectors:
        for h in bivectors:
            cases[f"schouten-{f}-{h}"] = [
                "schouten", str(data / f"{f}.poisson"), str(data / f"{h}.poisson")
            ]
    cases["kernel-7-11"] = ["kernel", "--vertices", "7", "--edges", "11"]
    return cases


def _graph_cases(verb: str, *folders: Path) -> dict[str, list[str]]:
    """``verb`` on every ``.g`` file of ``folders``, keyed by file stem."""
    return {path.stem: [verb, str(path)] for folder in folders for path in folder.glob("*.g")}


# Every frozen output: suite -> (golden directory, {case: argument list}).  A
# case's stdout is ``<case>.out`` there and its exit code is the case's entry
# in ``exit_codes.json``.
#   perfbench    every benchmark operation on its inputs as checked in;
#   verbs        every verb on every ``data/`` input (``verb_cases``);
#   d            small connected graph classes (the single vertex, leaves and
#                bivalent vertices among them) and disconnected graphs with
#                isolated vertices or leaves;
#   rules-check  the ``data/`` graphs, the heptagon wheel, and every connected
#                graph class with at most four vertices or with five vertices
#                and at least six edges; the zero graphs among them exit 1
#                with ``result: INCONSISTENT``.
GOLDEN_SUITES = {
    "perfbench": (BENCHMARK_GOLDEN, benchmark_cases()),
    "verbs": (VERBS_GOLDEN, verb_cases()),
    "d": (GOLDEN / "d", _graph_cases("d", RULES_INPUTS, GOLDEN / "d" / "inputs")),
    "rules-check": (
        GOLDEN / "rules-check",
        _graph_cases("rules-check", RULES_INPUTS, ROOT / "data", ROOT / "perfbench" / "inputs"),
    ),
}


def _exit_codes(directory: Path) -> dict[str, int]:
    return json.loads((directory / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_every_case_has_one_golden(suite):
    directory, cases = GOLDEN_SUITES[suite]
    outputs = [path.stem for path in directory.glob("*.out")]
    assert sorted(cases) == sorted(_exit_codes(directory)) == sorted(outputs)


def _golden_test(suite: str):
    """One parametrized test per table entry of ``suite``: exit code and
    stdout are the golden's; stderr is empty on exit 0 and 1 and one
    ``error:`` line on exit 2."""
    directory, cases = GOLDEN_SUITES[suite]

    @pytest.mark.parametrize("case", cases)
    def test(self, cli, case):
        code, out, err = cli(*cases[case])
        assert code == _exit_codes(directory)[case]
        assert out.encode("utf-8") == (directory / f"{case}.out").read_bytes()
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        else:
            assert err == ""

    return test


class TestBenchmarkGoldens:
    test_matches_benchmark_golden = _golden_test("perfbench")


class TestVerbGoldens:
    test_matches_golden = _golden_test("verbs")


class TestDGoldens:
    test_matches_golden = _golden_test("d")


KERNEL_4_6 = """\
dimension: 1
# basis 1
1 * g 4 6 : 1 2, 1 3, 1 4, 2 3, 2 4, 3 4
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

    def test_commands_share_one_parser(self, cli, tetra_file):
        with mock.patch.object(cli_module, "_build_parser", side_effect=AssertionError):
            assert cli("cocycle", tetra_file) == (0, "cocycle: yes\n", "")
            assert cli("frobnicate")[0] == 2


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

    @pytest.mark.parametrize("verb", ["d", "orient"])
    @pytest.mark.parametrize(
        "text", ["g 99999999999999999999 0\n", "1 * g 99999999999999999999 0 :\n"],
        ids=["graph", "sum"],
    )
    def test_overlarge_vertex_count_is_an_input_error(self, cli, tmp_path, verb, text):
        path = tmp_path / "wide.g"
        path.write_text("# wide\n" + text)
        code, out, err = cli(verb, str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 2: vertex count above the maximum 10000\n"

    def test_largest_vertex_count_is_allowed(self, cli, tmp_path):
        path = tmp_path / "empty.g"
        path.write_text("g 10000 0\n")
        code, _, _ = cli("d", str(path))
        assert code == 0


class TestKernel:
    def test_tetrahedron_bigrading(self, cli):
        code, out, _ = cli("kernel", "--vertices", "4", "--edges", "6")
        assert (code, out) == (0, KERNEL_4_6)

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


def _readme_command_lines() -> dict[str, str]:
    """The README's command block, one line per verb, keyed by verb."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return {
        line.split()[1]: line for line in block.splitlines() if line.startswith("gckit ")
    }


# The command's interface: every verb's help line and arguments, in order.
# Each argument is its option strings, dest, ``required``, ``metavar``,
# ``help``, ``type`` and action class: fields, not ``--help`` text, since
# argparse wraps that differently across versions.
_STORE, _STORE_TRUE = argparse._StoreAction, argparse._StoreTrueAction
_GRAPH_INPUT = ((), "input", True, None, "graph or graph-sum file", None, _STORE)
_ORGRAPH_SUM_INPUT = ((), "input", True, None, "orgraph-sum file", None, _STORE)
_MULTIVECTOR = "multivector file"
_POISSON = (("--poisson",), "poisson", True, "FILE", None, None, _STORE)
CLI_INTERFACE = [
    ("d", "differential of a graph or graph sum", [_GRAPH_INPUT]),
    ("cocycle", "test whether the differential vanishes", [_GRAPH_INPUT]),
    ("kernel", "basis of the cocycle space in a fixed bigrading", [
        (("--vertices",), "vertices", True, "N", None, int, _STORE),
        (("--edges",), "edges", True, "M", None, int, _STORE),
    ]),
    ("orient", "orientation morphism of a graph or sum", [
        (("--reduce",), "reduce", False, None,
         "divide all coefficients by their positive rational content", None, _STORE_TRUE),
        _GRAPH_INPUT,
    ]),
    ("normalize", "canonical form and sign of one orgraph", [
        ((), "input", True, None, "orgraph file (one 'o ...' line)", None, _STORE),
    ]),
    ("rules-check", "cross-check the sign rules against witness parities", [
        ((), "input", True, None, "graph file", None, _STORE),
    ]),
    ("eval", "evaluate an orgraph sum on a bivector", [_POISSON, _ORGRAPH_SUM_INPUT]),
    ("schouten", "Schouten bracket of two multivectors", [
        ((), "f", True, None, _MULTIVECTOR, None, _STORE),
        ((), "g", True, None, _MULTIVECTOR, None, _STORE),
    ]),
    ("verify-corollary", "check the differential-to-bracket identity on a bivector", [
        (("--graph",), "graph", True, "FILE", None, None, _STORE),
        _POISSON,
    ]),
    ("fold", "collapse sink-swapped pairs of an orgraph sum", [_ORGRAPH_SUM_INPUT]),
]


def test_the_parser_states_every_verb_and_argument_in_order():
    parser = _build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in verbs._choices_actions}
    found = [
        (verb, helps[verb], [
            (tuple(a.option_strings), a.dest, a.required, a.metavar, a.help, a.type, type(a))
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ])
        for verb, sub in verbs.choices.items()
    ]
    assert found == CLI_INTERFACE


def test_readme_documents_every_flag():
    parser = _build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    lines = _readme_command_lines()
    assert sorted(lines) == sorted(verbs.choices)
    for verb, sub in verbs.choices.items():
        words = lines[verb].replace("[", " ").replace("]", " ").split()
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                for flag in action.option_strings:
                    assert flag in words, f"README omits {verb} {flag}"


class TestOrient:
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

    @pytest.mark.parametrize("verb", ["orient", "rules-check"])
    def test_too_many_witnesses_fail_at_once(self, cli, tmp_path, verb):
        # Twelve sinks over six isolated vertices: 12!/2^6 = 7,484,400 witnesses.
        path = tmp_path / "g60.g"
        path.write_text("g 6 0\n")
        start = time.perf_counter()
        code, out, err = cli(verb, str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: orientation witnesses above the maximum 200000\n"

    def test_many_sinks_within_the_bound_still_orient(self, cli, tmp_path):
        # Eight sinks over four isolated vertices: 8!/2^4 = 2,520 witnesses.
        path = tmp_path / "g40.g"
        path.write_text("g 4 0\n")
        code, out, _ = cli("orient", str(path))
        assert code == 0
        assert out.splitlines()[0] == "24 * o 4 8 : 0 1 ; 2 3 ; 4 5 ; 6 7"


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
    test_matches_golden = _golden_test("rules-check")

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

class TestEvalAndSchouten:
    def test_flow_of_poisson_bivector_vanishes(self, cli, q3_file, data_dir):
        code, out, _ = cli("eval", "--poisson", str(data_dir / "so3.poisson"), q3_file)
        assert (code, out) == (0, "dim 3\n")

    def test_flow_of_non_poisson_bivector(self, cli, q3_file, data_dir):
        code, out, _ = cli(
            "eval", "--poisson", str(data_dir / "cubic3.poisson"), q3_file
        )
        assert (code, out) == (0, TETRA_FLOW_ON_CUBIC)

    def test_dim_flag_is_a_usage_error(self, cli, q3_file, tetra_file, data_dir):
        # The bivector file's ``dim`` header is the only source of its dimension.
        poisson = str(data_dir / "so3.poisson")
        for argv in (
            ["eval", "--poisson", poisson, "--dim", "3", q3_file],
            ["verify-corollary", "--graph", tetra_file, "--poisson", poisson, "--dim", "3"],
        ):
            code, out, err = cli(*argv)
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --dim" in err

    def test_sink_with_two_arrows_is_an_input_error(self, cli, tmp_path, data_dir):
        path = tmp_path / "bad.os"
        path.write_text("1 * o 2 : 0 3 ; 0 1\n")
        code, out, err = cli("eval", "--poisson", str(data_dir / "so3.poisson"), str(path))
        assert (code, out, err) == (2, "", "error: sink 0 must receive exactly one arrow\n")

    def test_more_sinks_than_arrows_fail_at_once(self, cli, tmp_path, data_dir):
        path = tmp_path / "many.os"
        path.write_text("1 * o 1 30000000 : 0 1\n")
        start = time.perf_counter()
        code, out, err = cli("eval", "--poisson", str(data_dir / "so3.poisson"), str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", "error: sink 2 must receive exactly one arrow\n")
        path.write_text("o 1 30000000 : 0 1\n")
        code, out, _ = cli("normalize", str(path))
        assert (code, out) == (0, "1 * o 1 30000000 : 0 1\n")

    def test_pentagon_wheel_flow_of_poisson_bivector_vanishes(self, cli, data_dir):
        flow = str(BENCHMARK_GOLDEN / "orient-gamma5.out")
        code, out, _ = cli("eval", "--poisson", str(data_dir / "so3.poisson"), flow)
        assert (code, out) == (0, "dim 3\n")

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

    def test_failure_exits_1(self, cli, tetra_file, data_dir):
        with mock.patch("gckit.cli.verify_corollary", return_value=False):
            code, out, _ = cli(
                "verify-corollary",
                "--graph", tetra_file,
                "--poisson", str(data_dir / "so3.poisson"),
            )
        assert (code, out) == (1, "corollary: no\n")

    @pytest.mark.parametrize("text", ["x1*xi1*xi2 + x2", "x1*xi1"])
    def test_rejects_a_non_bivector(self, cli, tmp_path, tetra_file, text):
        path = tmp_path / "p.poisson"
        path.write_text(f"dim 2\n{text}\n")
        code, out, err = cli("verify-corollary", "--graph", tetra_file, "--poisson", str(path))
        assert (code, out, err) == (2, "", "error: bivector required\n")


class TestFold:
    def test_violation_is_a_mathematical_failure(self, cli, tmp_path, tetra_file):
        _, raw, _ = cli("orient", tetra_file)
        broken = "\n".join(raw.splitlines()[:-1]) + "\n"
        path = tmp_path / "broken.ogs"
        path.write_text(broken)
        code, out, err = cli("fold", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: skew-symmetry violated")

    def test_self_paired_term_with_even_swap_sign_is_a_violation(self, cli, tmp_path):
        path = tmp_path / "self.ogs"
        path.write_text("1 * o 2 : 0 3 ; 1 2\n")
        code, out, err = cli("fold", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: skew-symmetry violated: self-paired term Orgraph[2](0,3;1,2)"
            " with even swap sign\n"
        )


# ``rules-check`` of ``data/wheel5.g`` with the sign of its first Pi witness
# flipped: every check line reads MISMATCH.
MISMATCH_GOLDEN = GOLDEN / "rules-check-mismatch" / "wheel5.out"


class TestOnePathPerRule:
    def test_rules_check_failure_report(self, cli, data_dir):
        orient_module = importlib.import_module("gckit.orient")
        witnesses = orient_module.enumerate_orientations(
            parse_graph((data_dir / "wheel5.g").read_text())
        )
        flipped = min(
            (w for w in witnesses if w.shape() == "Pi"),
            key=orient_module.OrientationWitness.sort_key,
        )
        sign = orient_module.orientation_sign
        with mock.patch.object(
            orient_module,
            "orientation_sign",
            lambda w: -sign(w) if w == flipped else sign(w),
        ):
            code, out, _ = cli("rules-check", str(data_dir / "wheel5.g"))
        assert code == 1
        assert out.encode("utf-8") == MISMATCH_GOLDEN.read_bytes()
        lines = out.splitlines()
        assert [line for line in lines if line.endswith(": MISMATCH")] == [
            "class consistency: MISMATCH",
            "sink-order exchange flips parity: MISMATCH",
            "sink-swap class pairing: MISMATCH",
            "elementary move signs (1460 moves): MISMATCH",
        ]
        assert lines[-1] == "result: INCONSISTENT"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("o x : 0 1", "vertex/sink counts must be integers"),
            ("o 1 -1 : 0 1", "sink count must be nonnegative, got -1"),
            ("o 0 :", "orgraph needs at least one internal vertex"),
        ],
    )
    def test_orgraph_text_errors(self, cli, tmp_path, text, message):
        path = tmp_path / "bad.o"
        path.write_text(f"# orgraph\n{text}\n")
        code, out, err = cli("normalize", str(path))
        assert (code, out, err) == (2, "", f"error: line 2: {message}\n")

    @pytest.mark.parametrize(
        "prefix, column", [("", 101), ("-" * 2000, 2101)], ids=["parentheses", "minus-signs"]
    )
    def test_deep_expressions_are_input_errors(self, cli, tmp_path, prefix, column):
        path = tmp_path / "deep.poisson"
        path.write_text("dim 3\n" + prefix + "(" * 400 + "x1*xi1*xi2" + ")" * 400 + "\n")
        code, out, err = cli("schouten", str(path), str(path))
        assert (code, out) == (2, "")
        assert err == f"error: line 2: parentheses nested deeper than 100 at column {column}\n"



class TestOneRulePerSyntax:
    # ``1e100000000`` runs in a fresh process below, since it once took minutes.
    @pytest.mark.parametrize("coeff", ["0.5", "1e3", "1_000", "1/0", "--1"])
    @pytest.mark.parametrize(
        "verb, body", [("d", "g 2 1 : 1 2"), ("fold", "o 2 : 0 3 ; 0 1")], ids=["graph", "orgraph"]
    )
    def test_a_coefficient_is_one_rational_literal(self, cli, tmp_path, verb, body, coeff):
        path = tmp_path / "sum.txt"
        path.write_text(f"# sum\n{coeff} * {body}\n")
        code, out, err = cli(verb, str(path))
        assert (code, out, err) == (2, "", f"error: line 2: bad coefficient '{coeff}'\n")

    @pytest.mark.parametrize(
        "verb, text, error",
        [
            ("d", "g 1_0 1\n1 2", "line 1: vertex/edge counts must be integers"),
            ("d", "g \u0663 1\n1 2", "line 1: vertex/edge counts must be integers"),
            ("d", "1 * g 1_0 1 : 1 2", "line 1: vertex/edge counts must be integers"),
            ("d", "1 * g \u0663 1 : 1 2", "line 1: vertex/edge counts must be integers"),
            ("d", "g 2 1\n1_0 2", "line 2: edge endpoints must be integers"),
            ("d", "g 2 1\n1 \u0662", "line 2: edge endpoints must be integers"),
            (
                "d",
                "g 2 1\n1 " + "2" * (sys.get_int_max_str_digits() + 1),
                "line 2: edge endpoints must be integers",
            ),
            ("d", "1 * g 2 1 : 1_0 2", "line 1: bad edge '1_0 2'"),
            ("d", "1 * g 2 1 : 1 \u0662", "line 1: bad edge '1 \u0662'"),
            ("normalize", "o 1_0 : 0 1", "line 1: vertex/sink counts must be integers"),
            ("normalize", "o \u0663 : 0 1", "line 1: vertex/sink counts must be integers"),
            ("fold", "1 * o 2 0_2 : 0 3 ; 0 1", "line 1: vertex/sink counts must be integers"),
            ("fold", "1 * o 2 \u0662 : 0 3 ; 0 1", "line 1: vertex/sink counts must be integers"),
            ("normalize", "o 1 : 0_1 1", "line 1: bad target pair '0_1 1'"),
            ("normalize", "o 1 : 0 \u0663", "line 1: bad target pair '0 \u0663'"),
            ("d", "\u0663 * g 2 1 : 1 2", "line 1: bad coefficient '\u0663'"),
            ("fold", "\u0663 * o 2 : 0 3 ; 0 1", "line 1: bad coefficient '\u0663'"),
            ("schouten", "dim \u0663\nxi1*xi2", "line 1: expected header 'dim <d>'"),
            ("schouten", "dim 3\n\u0663*xi1*xi2", "line 2: unexpected character '\u0663' at column 1"),
            ("schouten", "dim 3\nx\u0663*xi1*xi2", "line 2: unexpected character 'x' at column 1"),
            ("schouten", "dim 3\nx1*xi\u0662*xi1", "line 2: unexpected character 'x' at column 4"),
            ("d", "g 2 -1", "line 1: edge count must be nonnegative, got -1"),
            ("d", "1 * g 2 -1 :", "line 1: edge count must be nonnegative, got -1"),
            ("normalize", "o -1 : 0 1", "line 1: orgraph needs at least one internal vertex"),
        ],
        ids=[
            "graph-count-underscore", "graph-count-arabic", "sum-count-underscore",
            "sum-count-arabic", "endpoint-underscore", "endpoint-arabic", "endpoint-too-long",
            "sum-edge-underscore", "sum-edge-arabic", "orgraph-count-underscore",
            "orgraph-count-arabic", "sink-count-underscore", "sink-count-arabic",
            "target-underscore", "target-arabic", "graph-coefficient", "orgraph-coefficient",
            "dim", "number", "x-index", "xi-index", "graph-count-negative",
            "sum-count-negative", "orgraph-count-negative",
        ],
    )
    def test_an_integer_is_ascii_digits(self, cli, tmp_path, verb, text, error):
        path = tmp_path / "input.txt"
        path.write_text(text + "\n", encoding="utf-8")
        files = [str(path)] * (2 if verb == "schouten" else 1)
        assert cli(verb, *files) == (2, "", f"error: {error}\n")

    def test_signed_fractions_and_integers_parse(self):
        total = parse_graph_sum("-1/3 * g 4 6 : 1 2, 1 3, 1 4, 2 3, 2 4, 3 4\n+2 * g 2 1 : 1 2")
        assert sorted(c for _, c in total.items()) == [Fraction(-1, 3), 2]
        total = parse_orgraph_sum(" -1/3 * o 2 : 0 3 ; 0 1\n+2 * o 1 : 0 1")
        assert sorted(c for _, c in total.items()) == [Fraction(-1, 3), 2]
        # An integer field may carry a sign too.
        assert parse_graph("g +2 +1\n+1 2") == new_graph(2, [(1, 2)])
        assert parse_orgraph_sum("1 * o +1 +2 : 0 +1") == parse_orgraph_sum("1 * o 1 : 0 1")


def _chain_orgraph(n: int) -> str:
    return f"o {n} : " + " ; ".join([f"0 {k + 3}" for k in range(n - 1)] + ["0 1"]) + "\n"


class TestInputsFailFast:
    """Inputs that once hung or crashed exit 2 at once in a fresh process."""

    @pytest.mark.parametrize(
        "verb, text, error",
        [
            (
                "d",
                "g 1000 999\n" + "".join(f"{k} {k + 1}\n" for k in range(1, 1000)),
                "labeling search above the maximum 200 vertices",
            ),
            ("normalize", _chain_orgraph(1200), "labeling search above the maximum 200 vertices"),
            ("d", "1e100000000 * g 2 1 : 1 2\n", "line 1: bad coefficient '1e100000000'"),
            (
                "schouten",
                "dim 5\n(x1+x2+x3+x4+x5)^100*xi1*xi2\n",
                "line 2: product above the maximum 25000 term pairs at column 17",
            ),
        ],
        ids=["long-path", "long-chain", "huge-coefficient", "five-variable-power"],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, verb, text, error):
        path = tmp_path / "input.txt"
        path.write_text(text)
        files = [str(path)] * (2 if verb == "schouten" else 1)
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [sys.executable, "-m", "gckit.cli", verb, *files],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
            timeout=5,
        )
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {error}\n")
