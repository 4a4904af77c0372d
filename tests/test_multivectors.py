"""Multivector fields, the Schouten bracket, flow evaluation, identity checks."""

from __future__ import annotations

import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gckit import (
    GraphSum,
    Multivector,
    MultivectorError,
    ParseError,
    evaluate_orgraph,
    flow_commutator_check,
    format_multivector,
    format_poisson,
    is_bivector,
    jacobiator,
    multivector_product,
    new_graph,
    new_orgraph,
    or_evaluate_algebraic,
    orient,
    parse_multivector,
    parse_orgraph,
    parse_poisson,
    schouten,
    verify_corollary,
    x_derivative,
    xi_derivative,
)
import gckit.multivectors as multivector_module
from gckit.multivectors import _edge_operator


def mv(text: str, dim: int) -> Multivector:
    return parse_multivector(text, dim)


@pytest.fixture(scope="module")
def corpus(sym2, so3, quad2):
    return [sym2, so3, quad2]


# ---------------------------------------------------------------------------
# Core arithmetic


class TestMultivector:
    def test_odd_factors_normal_order_with_signs(self):
        assert mv("xi2*xi1", 2) == mv("-xi1*xi2", 2)
        assert not mv("xi1*xi1", 2)

    def test_product_collects_koszul_signs(self):
        assert multivector_product(mv("xi2", 2), mv("xi1", 2)) == mv("-xi1*xi2", 2)
        assert multivector_product(mv("x1", 2), mv("x1", 2)) == mv("x1^2", 2)

    def test_derivatives(self):
        assert xi_derivative(mv("x1*xi1*xi2", 2), 0) == mv("x1*xi2", 2)
        assert xi_derivative(mv("x1*xi1*xi2", 2), 1) == mv("-x1*xi1", 2)
        assert x_derivative(mv("x1^3*xi2", 2), 0) == mv("3*x1^2*xi2", 2)
        assert not x_derivative(mv("x1", 2), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(MultivectorError, match="dimension mismatch"):
            mv("x1", 1) + mv("x1", 2)
        with pytest.raises(MultivectorError, match="dimension mismatch"):
            mv("x1", 1) - mv("x1", 2)
        assert Multivector(2) != Multivector(3)

    def test_results_keep_the_dimension(self):
        p = mv("2*x1*xi1*xi2 - 4*x2*xi2*xi3", 3)
        assert p.reduce() == mv("x1*xi1*xi2 - 2*x2*xi2*xi3", 3)
        assert p * Fraction(1, 2) == p.reduce()
        for result in (p.copy(), p * Fraction(1, 2), p.reduce(), Multivector(3).reduce()):
            assert type(result) is Multivector
            assert result.dimension == 3

    def test_zero_coefficient_still_checks_the_term(self):
        with pytest.raises(MultivectorError, match="odd index out of range"):
            Multivector(2).add_term((0, 0), (5,), 0)
        with pytest.raises(MultivectorError, match="exponent vector length mismatch"):
            Multivector(2).add_term((0,), (), 0)

    def test_term_bookkeeping(self):
        p = mv("x1*xi1*xi2 - x1*xi2*xi1", 2)
        assert p == 2 * mv("x1*xi1*xi2", 2)
        assert p.coefficient((1, 0), (1, 0)) == -2
        assert p.xi_degrees() == {2}
        assert p.is_homogeneous()

    def test_components_split_by_degree(self):
        p = mv("x1 + xi1*xi2", 2)
        assert not p.is_homogeneous()
        parts = dict(p.components())
        assert set(parts) == {0, 2}
        assert parts[0] == mv("x1", 2)


COEFFICIENTS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def multivectors(
    draw,
    d: int,
    degree: int | None = None,
    coefficients=COEFFICIENTS,
    max_degree: int = 2,
) -> Multivector:
    """At most 4 terms, exponents <= 2, xi-degree <= max_degree, small coefficients.

    Odd factors are drawn unsorted, so add_term's normal ordering is exercised.
    """
    out = Multivector(d)
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, min(max_degree, d))) if degree is None else degree
        xexp = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
        xis = draw(st.permutations(range(d)))[:k]
        out.add_term(xexp, xis, draw(coefficients))
    return out


def assert_normal_ordered(m: Multivector) -> None:
    d = m.dimension
    for (xexp, xis), coeff in m.items():
        assert coeff
        assert len(xexp) == d
        assert all(e >= 0 for e in xexp)
        assert all(0 <= i < d for i in xis)
        assert all(a < b for a, b in zip(xis, xis[1:]))


class TestKernelProperties:
    """Properties of the one sparse polynomial kernel on random operands."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_results_stay_normal_ordered(self, data):
        d = data.draw(st.integers(1, 3))
        f, g = data.draw(multivectors(d)), data.draw(multivectors(d))
        index = data.draw(st.integers(0, d - 1))
        for result in (
            multivector_product(f, g),
            xi_derivative(f, index),
            x_derivative(f, index),
            f + g,
            f - g,
        ):
            assert_normal_ordered(result)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_integer_inputs_keep_int_coefficients(self, data):
        d = data.draw(st.integers(1, 3))
        integers = st.integers(-3, 3)
        f = data.draw(multivectors(d, coefficients=integers))
        g = data.draw(multivectors(d, coefficients=integers))
        big = data.draw(multivectors(2 * d, coefficients=integers))
        index = data.draw(st.integers(0, d - 1))
        half = f * Fraction(1, 2)
        for result in (
            multivector_product(f, g),
            xi_derivative(f, index),
            x_derivative(f, index),
            f + g,
            f - g,
            -f,
            Fraction(4, 2) * f,
            half + half,
            _edge_operator(big, 0, 1, d),
        ):
            assert all(type(coeff) is int for _, coeff in result.items())

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_graded_leibniz_rules(self, data):
        d = data.draw(st.integers(1, 3))
        kf = data.draw(st.integers(0, min(2, d)))
        f = data.draw(multivectors(d, kf))
        g = data.draw(multivectors(d))
        index = data.draw(st.integers(0, d - 1))
        fg = multivector_product(f, g)
        assert x_derivative(fg, index) == multivector_product(
            x_derivative(f, index), g
        ) + multivector_product(f, x_derivative(g, index))
        assert xi_derivative(fg, index) == multivector_product(
            xi_derivative(f, index), g
        ) + (-1) ** kf * multivector_product(f, xi_derivative(g, index))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_product_is_associative(self, data):
        d = data.draw(st.integers(1, 3))
        f, g, h = (data.draw(multivectors(d)) for _ in range(3))
        assert multivector_product(multivector_product(f, g), h) == (
            multivector_product(f, multivector_product(g, h))
        )


class TestSchouten:
    def test_vector_field_acts_as_derivation(self):
        assert schouten(mv("xi1", 1), mv("x1^2", 1)) == mv("2*x1", 1)

    def test_bivector_with_coordinate(self):
        p = mv("xi1*xi2", 2)
        assert schouten(p, mv("x1", 2)) == mv("-xi2", 2)
        assert schouten(p, mv("x2", 2)) == mv("xi1", 2)

    def test_shifted_antisymmetry(self):
        samples = [
            mv("x1*x2", 3),           # degree 0
            mv("x3*xi1", 3),          # degree 1
            mv("x1*xi2*xi3", 3),      # degree 2
            mv("xi1*xi2*xi3", 3),     # degree 3
        ]
        for f in samples:
            kf = next(iter(f.xi_degrees()))
            for g in samples:
                kg = next(iter(g.xi_degrees()))
                sign = (-1) ** ((kf - 1) * (kg - 1))
                assert schouten(f, g) == -sign * schouten(g, f)

    def test_graded_jacobi(self):
        triple = [mv("x1*xi2", 3), mv("x2*xi3*xi1", 3), mv("x3^2*xi2", 3)]
        f, g, h = triple
        kf = next(iter(f.xi_degrees())) - 1
        kg = next(iter(g.xi_degrees())) - 1
        kh = next(iter(h.xi_degrees())) - 1
        lhs = schouten(f, schouten(g, h))
        mid = schouten(schouten(f, g), h)
        rhs = (-1) ** (kf * kg) * schouten(g, schouten(f, h))
        assert lhs == mid + rhs

    def test_self_bracket_detects_poisson(self, corpus, cubic3):
        for p in corpus:
            assert not schouten(p, p)
            assert not jacobiator(p)
        assert schouten(cubic3, cubic3)
        assert jacobiator(cubic3)

    def test_jacobiator_needs_bivector(self):
        with pytest.raises(MultivectorError, match="bivector"):
            jacobiator(mv("xi1", 2))

    def test_is_bivector(self, so3):
        assert is_bivector(so3)
        assert not is_bivector(mv("x1 + xi1*xi2", 2))


# ---------------------------------------------------------------------------
# Flow evaluation


class TestAlgebraicEvaluator:
    def test_argument_validation(self, edge, so3):
        with pytest.raises(MultivectorError, match="argument count"):
            or_evaluate_algebraic(edge, [so3])
        with pytest.raises(MultivectorError, match="dimension mismatch"):
            or_evaluate_algebraic(edge, [so3, mv("xi1*xi2", 2)])

    def test_at_most_one_odd_argument(self, edge):
        odd = mv("xi1", 2)
        with pytest.raises(MultivectorError, match="well-definedness"):
            or_evaluate_algebraic(edge, [odd, odd])

    def test_edge_flow_is_graded_symmetric(self, edge):
        # at most one argument may carry odd components
        cases = [
            (mv("x1*x2", 2), mv("x2^2", 2)),
            (mv("x1*xi2", 2), mv("x2*x1", 2)),
            (mv("xi1*xi2", 2), mv("x1^2*x2", 2)),
            (mv("xi1*xi2", 2), mv("x1*xi1", 2)),
        ]
        for f, g in cases:
            kf = next(iter(f.xi_degrees()))
            kg = next(iter(g.xi_degrees()))
            sign = (-1) ** (kf * kg)
            assert or_evaluate_algebraic(edge, [f, g]) == sign * or_evaluate_algebraic(
                edge, [g, f]
            )

    def test_edge_flow_measures_the_self_bracket(self, edge, cubic3, corpus):
        assert or_evaluate_algebraic(edge, [cubic3, cubic3]) == -schouten(
            cubic3, cubic3
        )
        for p in corpus:
            assert not or_evaluate_algebraic(edge, [p, p])

    def test_zero_graph_annihilates(self, path3, corpus, cubic3):
        for p in corpus + [cubic3]:
            assert not or_evaluate_algebraic(path3, [p, p, p])

    def test_grading_bookkeeping(self, tetra, cubic3):
        q = or_evaluate_algebraic(tetra, [cubic3] * 4)
        assert q.xi_degrees() <= {2}

    @pytest.mark.parametrize(
        "pattern, arrangements",
        [("aaaa", 1), ("oaaa", 4), ("aabb", 6), ("abba", 6), ("aaab", 4)],
    )
    def test_each_distinct_arrangement_is_evaluated_once(
        self, tetra, so3, cubic3, pattern, arrangements
    ):
        args = {"a": so3, "b": cubic3, "o": mv("x1*xi2", 3)}
        with mock.patch.object(
            multivector_module,
            "_evaluate_ordered",
            wraps=multivector_module._evaluate_ordered,
        ) as evaluate:
            or_evaluate_algebraic(tetra, [args[c] for c in pattern])
        placed = [tuple(map(id, call.args[1])) for call in evaluate.call_args_list]
        assert len(placed) == len(set(placed)) == arrangements


class TestOrgraphEvaluator:
    def test_requires_bivector(self, tetra):
        with pytest.raises(MultivectorError, match="bivector required"):
            evaluate_orgraph(orient(tetra), mv("xi1", 2))

    @pytest.mark.parametrize(
        "targets, sink",
        [([(0, 3), (0, 1)], 0), ([(0, 3), (4, 2), (2, 3)], 1), ([(3, 0), (2, 0)], 0)],
    )
    def test_each_sink_needs_exactly_one_arrow(self, so3, targets, sink):
        with pytest.raises(MultivectorError, match=f"sink {sink} must receive exactly one arrow"):
            evaluate_orgraph(new_orgraph(targets), so3)

    def test_single_orgraph_and_sum_agree(self, so3):
        g = parse_orgraph("o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3")
        from gckit import OrgraphSum

        s = OrgraphSum([(g, Fraction(1))])
        assert evaluate_orgraph(g, so3) == evaluate_orgraph(s, so3)

    @pytest.mark.parametrize("gamma_name", ["edge", "tetra"])
    def test_two_evaluators_agree(self, gamma_name, corpus, cubic3, request):
        gamma = request.getfixturevalue(gamma_name)
        n = gamma.vertex_count
        for p in corpus + [cubic3]:
            direct = evaluate_orgraph(orient(gamma), p)
            algebraic = or_evaluate_algebraic(gamma, [p] * n)
            assert direct == algebraic

    @pytest.mark.parametrize("p_name", ["so3", "cubic3"])
    def test_two_evaluators_agree_on_the_pentagon_wheel_cocycle(
        self, p_name, pentagon_cocycle, request
    ):
        p = request.getfixturevalue(p_name)
        direct = evaluate_orgraph(orient(pentagon_cocycle), p)
        algebraic = Multivector(p.dimension)
        for graph, coeff in pentagon_cocycle.items():
            algebraic += coeff * or_evaluate_algebraic(graph, [p] * 6)
        assert direct == algebraic
        assert len(direct) == (45 if p_name == "cubic3" else 0)

    def test_tetra_flow_on_so3_vanishes(self, tetra, so3):
        assert not evaluate_orgraph(orient(tetra), so3)

    def test_tetra_flow_on_cubic_is_a_bivector(self, tetra, cubic3):
        q = evaluate_orgraph(orient(tetra).reduce(), cubic3)
        assert q
        assert len(q) == 15
        assert q.xi_degrees() == {2}

    def test_sink_argument_skew_symmetry(self, tetra, cubic3):
        """Orientation flows of two-sink sums change sign under swapping the
        two sink slots, mirrored here by the fold representative pairing."""
        from gckit import fold_sink_swap, normalize_orgraph, sink_swap

        flow = orient(tetra)
        for g, coeff in flow.items():
            norm = normalize_orgraph(sink_swap(g))
            assert flow.coefficient(norm.orgraph) == -norm.sign * coeff


# ---------------------------------------------------------------------------
# Identity checks


class TestIdentities:
    def test_poisson_preserves_the_tetra_flow_cocycle(self, tetra, so3, quad2):
        for p in (so3, quad2):
            q = evaluate_orgraph(orient(tetra).reduce(), p)
            assert not schouten(p, q)

    def test_corollary_on_poisson_corpus(self, tetra, corpus):
        for p in corpus:
            assert verify_corollary(tetra, p)

    def test_corollary_off_shell(self, tetra, cubic3):
        assert jacobiator(cubic3)
        assert verify_corollary(tetra, cubic3)

    def test_corollary_on_the_single_edge(self, edge, sym2, cubic3):
        assert verify_corollary(edge, sym2)
        assert verify_corollary(edge, cubic3)

    def test_corollary_accepts_sums(self, tetra, cubic3):
        s = GraphSum([(tetra, Fraction(2))])
        assert verify_corollary(s, cubic3)

    def test_corollary_requires_a_bivector(self, edge, tetra):
        for text in ("x1*xi1*xi2 + x2", "x1*xi1", "1 + x1*x2*xi1*xi2"):
            with pytest.raises(MultivectorError, match="bivector required"):
                verify_corollary(tetra, mv(text, 2))
            with pytest.raises(MultivectorError, match="bivector required"):
                flow_commutator_check(edge, edge, mv(text, 2))

    def test_corollary_rejects_empty_sum(self, cubic3):
        with pytest.raises(MultivectorError, match="empty graph sum"):
            verify_corollary(GraphSum(), cubic3)

    def test_flow_commutators(self, edge, tetra, so3, sym2, cubic3):
        assert flow_commutator_check(tetra, tetra, so3)
        assert flow_commutator_check(edge, tetra, so3)
        assert flow_commutator_check(edge, edge, sym2)
        # Both flows vanish on so3 and sym2, so only cubic3 linearises each
        # flow along a nonzero direction.
        assert or_evaluate_algebraic(edge, [cubic3] * 2)
        assert or_evaluate_algebraic(tetra, [cubic3] * 4)
        assert flow_commutator_check(edge, edge, cubic3)
        assert flow_commutator_check(edge, tetra, cubic3)

    def test_checks_reject_vertex_inhomogeneous_sums(self, edge, tetra, so3):
        mixed = GraphSum([(edge, 1), (tetra, 1)])
        with pytest.raises(MultivectorError, match="vertex-homogeneous"):
            verify_corollary(mixed, so3)
        with pytest.raises(MultivectorError, match="vertex-homogeneous"):
            flow_commutator_check(mixed, tetra, so3)
        with pytest.raises(MultivectorError, match="vertex-homogeneous"):
            flow_commutator_check(tetra, mixed, so3)

    def test_commutator_rejects_empty_sums_first(self, edge, tetra, so3):
        mixed = GraphSum([(edge, 1), (tetra, 1)])
        for gamma1, gamma2 in ((GraphSum(), tetra), (tetra, GraphSum()), (mixed, GraphSum())):
            with pytest.raises(MultivectorError, match="empty graph sum"):
                flow_commutator_check(gamma1, gamma2, so3)


# ---------------------------------------------------------------------------
# Text format


class TestMultivectorTextFormat:
    def test_round_trip(self, so3, cubic3, quad2):
        for p in (so3, cubic3, quad2):
            assert parse_poisson(format_poisson(p)) == p

    def test_expression_round_trip(self):
        for text in ("0", "3/2", "-1 + 2*x2 - x1", "x3*xi1*xi2"):
            p = mv(text, 3)
            assert mv(format_multivector(p), 3) == p

    def test_frozen_rendering(self):
        assert format_multivector(mv("xi2*xi1", 2)) == "-xi1*xi2"
        assert format_multivector(Multivector(2)) == "0"
        assert format_poisson(mv("xi1*xi2", 2)) == "dim 2\nxi1*xi2\n"

    def test_expression_errors_carry_positions(self):
        with pytest.raises(ParseError, match="x index 3 out of range at column 1"):
            mv("x3", 2)
        with pytest.raises(ParseError, match="xi index 0 out of range"):
            mv("xi0", 2)
        with pytest.raises(ParseError, match="column 3"):
            mv("2**3", 2)
        with pytest.raises(ParseError, match="unexpected end of expression"):
            mv("x1*", 2)
        with pytest.raises(ParseError, match="zero denominator in '2/0' at column 4"):
            mv("x1*2/0*xi1", 2)
        with pytest.raises(ParseError, match="exponent above the maximum 100 at column 8"):
            mv("xi1*x1^100000000", 2)
        with pytest.raises(ParseError, match="exponent above the maximum 100 at column 4"):
            mv("x2^101", 2)
        with pytest.raises(ParseError, match=r"number with more than \d+ digits at column 4"):
            mv("x1*" + "1" * (sys.get_int_max_str_digits() + 1) + "*xi1", 2)
        with pytest.raises(ParseError, match=r"^x index with more than \d+ digits at column 4$"):
            mv("x1*x" + "1" * (sys.get_int_max_str_digits() + 1), 2)
        with pytest.raises(ParseError, match=r"^xi index with more than \d+ digits at column 1$"):
            mv("xi" + "1" * (sys.get_int_max_str_digits() + 1) + "*x1", 2)
        assert mv("x2^0100", 2) == multivector_product(mv("x2^50", 2), mv("x2^50", 2))

    def test_file_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_poisson("")
        with pytest.raises(ParseError, match=r"line 1: expected header 'dim <d>'"):
            parse_poisson("x1*xi1*xi2")
        with pytest.raises(ParseError, match=r"line 1: expected header 'dim <d>'"):
            parse_poisson("dim \u00b2\nx1")
        with pytest.raises(ParseError, match="line 1: dimension must be positive"):
            parse_poisson("dim 0\nx1")
        with pytest.raises(ParseError, match="^line 2: dimension above the maximum 10000$"):
            parse_poisson("# p\ndim 10001\nx1")
        with pytest.raises(ParseError, match="^line 1: dimension above the maximum 10000$"):
            parse_poisson("dim " + "1" * (sys.get_int_max_str_digits() + 1))
        assert parse_poisson("dim 0010000\nx10000").dimension == 10000
        with pytest.raises(ParseError, match="line 3"):
            parse_poisson("# p\ndim 3\nbad^")

    def test_data_corpus_contents(self, sym2, so3, quad2, cubic3):
        assert sym2 == mv("xi1*xi2", 2)
        assert so3 == mv("x3*xi1*xi2 + x1*xi2*xi3 + x2*xi3*xi1", 3)
        assert quad2 == mv("x1*x2*xi1*xi2", 2)
        assert cubic3 == mv(
            "x1^2*x2*xi1*xi2 + x2^2*x3*xi2*xi3 + x3^2*x1*xi3*xi1", 3
        )
