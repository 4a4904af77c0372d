"""Command-line surface tying the library together.

Every verb maps to exactly one library operation; inputs and outputs use the
plain-text encodings of the owning modules.  Exit codes distinguish three
cases: 0 for success, 1 for a mathematical failure (a check that ran fine but
answered "no"), 2 for an input or usage error.  All output is deterministic:
terms are emitted sorted by canonical key.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .complexes import (
    GraphSum,
    cocycle_kernel,
    differential,
    format_graph_sum,
    is_cocycle,
    parse_graph_sum,
)
from .graphs import ParseError, parse_graph, significant_lines
from .multivectors import (
    evaluate_orgraph,
    format_poisson,
    parse_poisson,
    schouten,
    verify_corollary,
)
from .orient import (
    SkewSymmetryError,
    crosscheck_rules,
    fold_sink_swap,
    format_orgraph,
    format_orgraph_sum,
    normalize_orgraph,
    orient,
    parse_orgraph,
    parse_orgraph_sum,
)

__all__ = ["main", "FORMAT_VERSION"]

FORMAT_VERSION = "gckit-fmt/1"

_EXIT_OK = 0
_EXIT_FALSE = 1
_EXIT_INPUT = 2

# The most vertices ``kernel`` accepts.  Bigrading (8, 14), the widest on 8
# vertices, takes 34-36 s and peaks at 96 MB in a fresh process (2-core
# box, CPython 3.11.7): 7 s to generate its 974 basis graphs, 17 s for their
# differentials and 12 s to eliminate; the class counts grow too fast beyond
# it to finish in useful time.
_MAX_KERNEL_VERTICES = 8


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise ParseError(f"cannot read {path}: {reason}") from None


def _emit(text: str) -> None:
    """Write ``text`` with exactly one trailing newline; nothing when empty."""
    if text:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_graph_or_sum(text: str) -> GraphSum:
    """Accept either a bare graph file or a graph-sum file.

    A bare graph starts with the ``g <n> <m>`` header; anything else is read
    as a sum (the empty file is the zero sum).
    """
    for _, line in significant_lines(text):
        if line.split()[0] == "g":
            return GraphSum([(parse_graph(text), 1)])
        break
    return parse_graph_sum(text)


# ---------------------------------------------------------------------------
# Verb handlers (each returns the process exit code)


def _cmd_d(args: argparse.Namespace) -> int:
    total = _parse_graph_or_sum(_read_text(args.input))
    _emit(format_graph_sum(differential(total)))
    return _EXIT_OK


def _verdict(label: str, holds: bool) -> int:
    """Print ``<label>: yes`` or ``no``; exit 0 when the check holds, else 1."""
    print(f"{label}: {'yes' if holds else 'no'}")
    return _EXIT_OK if holds else _EXIT_FALSE


def _cmd_cocycle(args: argparse.Namespace) -> int:
    return _verdict("cocycle", is_cocycle(_parse_graph_or_sum(_read_text(args.input))))


def _cmd_kernel(args: argparse.Namespace) -> int:
    if args.vertices < 1 or args.edges < 0:
        raise ParseError("--vertices must be >= 1 and --edges >= 0")
    if args.vertices > _MAX_KERNEL_VERTICES:
        raise ParseError(f"--vertices above the maximum {_MAX_KERNEL_VERTICES}")
    basis = cocycle_kernel(args.vertices, args.edges)
    lines = [f"dimension: {len(basis)}"]
    for index, vector in enumerate(basis, start=1):
        lines.append(f"# basis {index}")
        lines.append(format_graph_sum(vector))
    _emit("\n".join(lines))
    return _EXIT_OK


def _cmd_orient(args: argparse.Namespace) -> int:
    total = orient(_parse_graph_or_sum(_read_text(args.input)))
    if args.reduce:
        total = total.reduce()
    _emit(format_orgraph_sum(total))
    return _EXIT_OK


def _cmd_normalize(args: argparse.Namespace) -> int:
    g = parse_orgraph(_read_text(args.input))
    norm = normalize_orgraph(g)
    if norm.is_zero:
        print("note: orgraph normalizes to zero", file=sys.stderr)
        return _EXIT_OK
    print(f"{norm.sign} * {format_orgraph(norm.orgraph)}")
    return _EXIT_OK


def _cmd_rules_check(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.input))
    report = crosscheck_rules(g)
    _emit(report.format())
    return _EXIT_OK if report.consistent else _EXIT_FALSE


def _cmd_eval(args: argparse.Namespace) -> int:
    p = parse_poisson(_read_text(args.poisson))
    total = parse_orgraph_sum(_read_text(args.input))
    _emit(format_poisson(evaluate_orgraph(total, p)))
    return _EXIT_OK


def _cmd_schouten(args: argparse.Namespace) -> int:
    f = parse_poisson(_read_text(args.f))
    g = parse_poisson(_read_text(args.g))
    if f.dimension != g.dimension:
        raise ParseError(
            f"dimension mismatch: {args.f} has dim {f.dimension},"
            f" {args.g} has dim {g.dimension}"
        )
    _emit(format_poisson(schouten(f, g)))
    return _EXIT_OK


def _cmd_verify_corollary(args: argparse.Namespace) -> int:
    gamma = _parse_graph_or_sum(_read_text(args.graph))
    p = parse_poisson(_read_text(args.poisson))
    return _verdict("corollary", verify_corollary(gamma, p))


def _cmd_fold(args: argparse.Namespace) -> int:
    total = fold_sink_swap(parse_orgraph_sum(_read_text(args.input)))
    _emit(format_orgraph_sum(total))
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Parser


# Each verb's help line, handler, and arguments in order, each a
# ``(name, options)`` pair for ``add_argument``.
_GRAPH_INPUT = ("input", dict(help="graph or graph-sum file"))
_ORGRAPH_SUM_INPUT = ("input", dict(help="orgraph-sum file"))
_POISSON = ("--poisson", dict(required=True, metavar="FILE"))
_VERBS = {
    "d": ("differential of a graph or graph sum", _cmd_d, [_GRAPH_INPUT]),
    "cocycle": ("test whether the differential vanishes", _cmd_cocycle, [_GRAPH_INPUT]),
    "kernel": ("basis of the cocycle space in a fixed bigrading", _cmd_kernel, [
        ("--vertices", dict(type=int, required=True, metavar="N")),
        ("--edges", dict(type=int, required=True, metavar="M")),
    ]),
    "orient": ("orientation morphism of a graph or sum", _cmd_orient, [
        ("--reduce", dict(action="store_true",
                          help="divide all coefficients by their positive rational content")),
        _GRAPH_INPUT,
    ]),
    "normalize": ("canonical form and sign of one orgraph", _cmd_normalize, [
        ("input", dict(help="orgraph file (one 'o ...' line)")),
    ]),
    "rules-check": ("cross-check the sign rules against witness parities", _cmd_rules_check, [
        ("input", dict(help="graph file")),
    ]),
    "eval": ("evaluate an orgraph sum on a bivector", _cmd_eval, [_POISSON, _ORGRAPH_SUM_INPUT]),
    "schouten": ("Schouten bracket of two multivectors", _cmd_schouten, [
        ("f", dict(help="multivector file")), ("g", dict(help="multivector file")),
    ]),
    "verify-corollary": (
        "check the differential-to-bracket identity on a bivector", _cmd_verify_corollary,
        [("--graph", dict(required=True, metavar="FILE")), _POISSON],
    ),
    "fold": ("collapse sink-swapped pairs of an orgraph sum", _cmd_fold, [_ORGRAPH_SUM_INPUT]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gckit",
        description=(
            "Exact calculator for the unoriented graph complex, the"
            " orientation morphism, and oriented-graph flows on polynomial"
            " Poisson bivectors."
        ),
    )
    parser.add_argument("--version", action="version", version=FORMAT_VERSION)
    sub = parser.add_subparsers(dest="verb", metavar="verb", required=True)
    for verb, (help_line, handler, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=help_line)
        for name, options in arguments:
            p.add_argument(name, **options)
        p.set_defaults(handler=handler)
    return parser


# Built once per process: ``main`` may run many commands in one interpreter.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FALSE if isinstance(exc, SkewSymmetryError) else _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
