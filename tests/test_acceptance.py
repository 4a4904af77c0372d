"""Acceptance gate: one test per shipped criterion, each reporting PASS/FAIL.

Every check is exact rational arithmetic; the stated wall-clock bounds are
asserted with generous margins against the criterion targets.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from gckit import (
    GraphSum,
    bracket,
    cocycle_kernel,
    crosscheck_rules,
    differential,
    encoding_inversions,
    enumerate_orientations,
    evaluate_orgraph,
    fold_sink_swap,
    format_orgraph_sum,
    jacobiator,
    normalize_orgraph,
    or_evaluate_algebraic,
    orient,
    orientation_sign,
    parse_orgraph,
    schouten,
    shape,
    sink_swap,
    verify_corollary,
)


@pytest.fixture
def check(capsys):
    """Print one '[ACk] label: PASS/FAIL' line per criterion, then assert."""

    def run(tag: str, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[{tag}] {label}: {'PASS' if ok else 'FAIL'}", flush=True)
        assert ok, f"{tag} {label}"

    return run


@pytest.fixture(scope="module")
def gamma5(wheel5, companion5):
    """Timed (6,10) kernel computation plus the flow scaled to +2 at {a}."""
    start = time.monotonic()
    basis = cocycle_kernel(6, 10)
    flow = orient(basis[0]) if len(basis) == 1 else None
    duration = time.monotonic() - start
    scaled = None
    if flow is not None:
        anchor = parse_orgraph("o 6 : 0 1 ; 2 4 ; 2 5 ; 2 6 ; 2 7 ; 2 3")
        c = flow.coefficient(anchor)
        if c:
            scaled = flow * (Fraction(2) / c)
    return basis, scaled, duration


def test_ac1_tetrahedron_spans_the_4_6_kernel(check, tetra):
    start = time.monotonic()
    closed = not differential(tetra)
    basis = cocycle_kernel(4, 6)
    duration = time.monotonic() - start
    ok = (
        closed
        and len(basis) == 1
        and basis[0] == GraphSum([(tetra, 1)])
        and duration < 1.0
    )
    check("AC1", "tetrahedron is a cocycle spanning the (4,6) kernel", ok)


def test_ac2_tetrahedron_flow(check, tetra):
    start = time.monotonic()
    flow = orient(tetra)
    reduced = flow.reduce()
    duration = time.monotonic() - start
    ok = (
        format_orgraph_sum(flow)
        == "8 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3\n"
        "-24 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3\n"
        "-24 * o 4 : 0 3 ; 4 5 ; 1 2 ; 2 4"
        and format_orgraph_sum(reduced)
        == "1 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3\n"
        "-3 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3\n"
        "-3 * o 4 : 0 3 ; 4 5 ; 1 2 ; 2 4"
        and duration < 1.0
    )
    check("AC2", "tetrahedron flow multiplicities 8:24 reduce to +1,-3,-3", ok)


def test_ac3_witness_table(check, tetra):
    index = {(w.mask, w.sinks): w for w in enumerate_orientations(tetra)}
    hosts = [(23, 1), (47, 1), (49, 3), (36, 3), (28, 2), (58, 2), (2, 4), (9, 4)]
    witnesses = [
        index[(m, tuple((0, 1) if v == h else () for v in range(1, 5)))]
        for m, h in hosts
    ]
    contributions = [
        orientation_sign(w) * normalize_orgraph(w.orgraph()).sign for w in witnesses
    ]
    column = [encoding_inversions(w) for w in witnesses]
    ok = contributions == [1] * 8 and column == [0, 0, 2, 2, 1, 1, 3, 3]
    check(
        "AC3",
        "one-host witnesses all contribute + with descents 0,0,2,2,1,1,3,3",
        ok,
    )


def test_ac4_pentagon_wheel_partial_flow(check, wheel5):
    start = time.monotonic()
    flow = orient(wheel5)
    duration = time.monotonic() - start
    a = parse_orgraph("o 6 : 0 1 ; 2 4 ; 2 5 ; 2 6 ; 2 7 ; 2 3")
    b = parse_orgraph("o 6 : 0 1 ; 2 4 ; 2 5 ; 3 6 ; 4 7 ; 2 4")
    c = parse_orgraph("o 6 : 0 3 ; 1 4 ; 2 5 ; 6 7 ; 2 4 ; 3 4")
    ca, cb, cc = (flow.coefficient(g) for g in (a, b, c))
    ok = (
        ca != 0
        and (cb, cc) == (5 * ca, 5 * ca)
        and [shape(g) for g in (a, b, c)] == ["Lambda", "Lambda", "Pi"]
        and duration < 5.0
    )
    check(
        "AC4",
        "pentagon-wheel flow carries the three marked orgraphs in ratio"
        " +2:+10:+10 with shapes Lambda,Lambda,Pi",
        ok,
    )


def test_ac5_six_vertex_cocycle_flow_counts(check, gamma5, wheel5, companion5):
    basis, scaled, duration = gamma5
    ok = (
        len(basis) == 1
        and basis[0].coefficient(wheel5) != 0
        and basis[0].coefficient(companion5) != 0
        and scaled is not None
        and scaled.coefficient(
            parse_orgraph("o 6 : 0 1 ; 2 4 ; 2 5 ; 2 6 ; 2 7 ; 2 3")
        )
        == 2
        and len(scaled) == 167
        and len(fold_sink_swap(scaled)) == 91
        and sum(1 for g, _ in fold_sink_swap(scaled).items() if shape(g) == "Lambda")
        == 15
        and duration < 300.0
    )
    check(
        "AC5",
        "(6,10) kernel is one-dimensional; scaled flow has 167 terms,"
        " 91 folded, 15 Lambda",
        ok,
    )


def test_ac6_rule_consistency(check, tetra, wheel5, companion5):
    reports = {
        name: crosscheck_rules(g)
        for name, g in [
            ("tetra", tetra),
            ("wheel", wheel5),
            ("companion", companion5),
        ]
    }
    texts = {name: r.format() for name, r in reports.items()}
    ok = (
        all(r.consistent and not r.mismatches for r in reports.values())
        and "(-)(-)(-) = (-)" in texts["tetra"]
        and "(-)(+)(-) = (+)" in texts["wheel"]
        and "transpositions -> (0,1;2,4;2,5;2,6;2,7;2,3): edge-order 10,"
        " encoding-order 15" in texts["wheel"]
        and "transpositions -> (0,1;2,4;2,5;3,6;4,7;2,4): edge-order 24,"
        " encoding-order 27" in texts["wheel"]
        and "transpositions -> (0,3;1,4;2,5;6,7;2,4;3,4): edge-order 25,"
        " encoding-order 26" in texts["wheel"]
    )
    check(
        "AC6",
        "sign rules cross-check cleanly on all three graphs with the worked"
        " chains and transposition counts",
        ok,
    )


def test_ac7_zero_graph_annihilation(check, path3, sym2, so3, quad2, cubic3):
    flow_zero = not orient(path3)
    eval_zero = all(
        not or_evaluate_algebraic(path3, [p] * 3)
        for p in (sym2, so3, quad2, cubic3)
    )
    check("AC7", "three-vertex path orients and evaluates to zero", flow_zero and eval_zero)


def test_ac8_two_evaluator_agreement(check, edge, tetra, sym2, so3, quad2):
    start = time.monotonic()
    agree = True
    for gamma in (edge, tetra):
        flow = orient(gamma)
        for p in (sym2, so3, quad2):
            direct = evaluate_orgraph(flow, p)
            algebraic = or_evaluate_algebraic(gamma, [p] * gamma.vertex_count)
            agree = agree and direct == algebraic
    duration = time.monotonic() - start
    check("AC8", "direct and algebraic evaluators agree on the corpus",
          agree and duration < 60.0)


def test_ac9_poisson_cocycle_property(check, tetra, so3):
    start = time.monotonic()
    q3 = evaluate_orgraph(orient(tetra).reduce(), so3)
    closed = not schouten(so3, q3)
    duration = time.monotonic() - start
    check("AC9", "linear Poisson bivector flow is Poisson-closed",
          closed and duration < 120.0)


def test_ac10_corollary_off_shell(check, tetra, cubic3):
    start = time.monotonic()
    off_shell = bool(jacobiator(cubic3))
    holds = verify_corollary(tetra, cubic3)
    duration = time.monotonic() - start
    check("AC10", "differential-to-bracket identity holds for a non-Poisson cubic",
          off_shell and holds and duration < 600.0)


def test_ac11_sink_swap_pairing(check, tetra):
    flow = orient(tetra)
    kept = parse_orgraph("o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3")
    norm = normalize_orgraph(sink_swap(kept))
    rho = norm.sign
    folded = fold_sink_swap(flow)
    ok = (
        rho == -((-1) ** 6)
        and flow.coefficient(norm.orgraph) == -rho * flow.coefficient(kept)
        and format_orgraph_sum(folded)
        == "8 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3\n-24 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3"
    )
    check("AC11", "folding pairs the two Pi terms with relative sign -(-1)^6", ok)


def test_ac12_master_equation(check, edge):
    start = time.monotonic()
    empty = not bracket(edge, edge)
    duration = time.monotonic() - start
    check("AC12", "self-bracket of the single edge is the empty sum",
          empty and duration < 1.0)
