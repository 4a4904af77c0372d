"""Multivector fields, the Schouten bracket, flow evaluation, identity checks."""

from __future__ import annotations

import re
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
    OrgraphError,
    OrgraphSum,
    ParseError,
    evaluate_orgraph,
    flow_commutator_check,
    format_multivector,
    format_poisson,
    is_bivector,
    jacobiator,
    multivector_product,
    new_orgraph,
    or_evaluate_algebraic,
    orient,
    parse_multivector,
    parse_orgraph,
    parse_poisson,
    schouten,
    shape,
    verify_corollary,
)
import gckit.graphs as graphs_module
import gckit.multivectors as multivector_module
from gckit.complexes import EDGE_GRAPH
from gckit.multivectors import _evaluate_ordered
from oracles import components, x_derivative, xi_derivative


def mv(text: str, dim: int) -> Multivector:
    return parse_multivector(text, dim)


@pytest.fixture(scope="module")
def corpus(sym2, so3, quad2):
    return [sym2, so3, quad2]


def counted(p: Multivector, products: list) -> Multivector:
    """``p`` with coefficients that append the other factor of every product
    they take part in to ``products``."""

    class Coefficient(int):
        def __mul__(self, other):
            products.append(other)
            return int(self) * other

        __rmul__ = __mul__

    out = Multivector(p.dimension)
    out._terms = {key: Coefficient(c) for key, c in p._terms.items()}
    return out


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
            Multivector(2).add(((0, 0), (5,)), 0)
        with pytest.raises(MultivectorError, match="exponent vector length mismatch"):
            Multivector(2).add(((0,), ()), 0)

    @pytest.mark.parametrize(
        "term, message",
        [
            (((0, 0), (5,)), "odd index out of range"),
            (((0,), ()), "exponent vector length mismatch"),
            (((0, -1), ()), "negative exponent"),
        ],
    )
    def test_coefficient_checks_the_term(self, term, message):
        p = mv("x1*xi1*xi2", 2)
        with pytest.raises(MultivectorError, match=message):
            p.coefficient(term)

    def test_term_bookkeeping(self):
        p = mv("x1*xi1*xi2 - x1*xi2*xi1", 2)
        assert p == 2 * mv("x1*xi1*xi2", 2)
        assert p.coefficient(((1, 0), (1, 0))) == -2
        assert p.xi_degrees() == {2}

    def test_components_split_by_degree(self):
        p = mv("x1 + xi1*xi2", 2)
        parts = dict(components(p))
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
    max_terms: int = 4,
    max_exponent: int = 2,
) -> Multivector:
    """At most max_terms terms, exponents <= max_exponent, xi-degree <=
    max_degree, small coefficients.

    Odd factors are drawn unsorted, so add's normal ordering is exercised.
    """
    out = Multivector(d)
    for _ in range(draw(st.integers(0, max_terms))):
        k = draw(st.integers(0, min(max_degree, d))) if degree is None else degree
        xexp = draw(st.lists(st.integers(0, max_exponent), min_size=d, max_size=d))
        xis = draw(st.permutations(range(d)))[:k]
        out.add((xexp, xis), draw(coefficients))
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
    """Properties of the product (the contraction with no operators) and of
    sums on random operands; the derivatives are those of the oracles."""

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
            _evaluate_ordered(EDGE_GRAPH, [f, g], d),
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

    def test_mixed_degree_f_is_one_contraction(self):
        # The operator is linear in f, so the sign (-1)^(|f|-1) rides on each
        # term of f and its parts of degree 0 and 2 share one contraction.
        f0, f2, g = mv("x1", 2), mv("xi1*xi2", 2), mv("x1*x2*xi1", 2)
        with mock.patch.object(
            multivector_module, "_contract", wraps=multivector_module._contract
        ) as contract:
            value = schouten(f0 + f2, g)
        assert contract.call_count == 1
        assert schouten(f0, g) and schouten(f2, g)
        assert value == schouten(f0, g) + schouten(f2, g)

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
        "pattern, graph_name, orbits",
        [
            ("aaaa", "tetra", 1),
            ("oaaa", "tetra", 1),
            ("aabb", "tetra", 1),
            ("abba", "tetra", 1),
            ("aaab", "tetra", 1),
            ("aaoaaa", "wheel5", 2),
            ("aab", "path3", 0),
        ],
    )
    def test_each_distinct_arrangement_is_evaluated_once(
        self, so3, cubic3, pattern, graph_name, orbits, request
    ):
        # At most once, and only one arrangement per automorphism orbit: K4 is
        # vertex-transitive, the wheel's odd argument sits at the hub or on
        # the rim, and path3 has an odd automorphism, so nothing is evaluated.
        # The group is searched only when there is more than one arrangement.
        graph = request.getfixturevalue(graph_name)
        args = {"a": so3, "b": cubic3, "o": mv("x1*xi2", 3)}
        with mock.patch.object(
            multivector_module,
            "_evaluate_ordered",
            wraps=multivector_module._evaluate_ordered,
        ) as evaluate, mock.patch.object(
            graphs_module, "automorphisms", wraps=graphs_module.automorphisms
        ) as search:
            or_evaluate_algebraic(graph, [args[c] for c in pattern])
        placed = [tuple(map(id, call.args[1])) for call in evaluate.call_args_list]
        assert len(placed) == len(set(placed)) == orbits
        assert search.call_count == (orbits > 0 and len(set(pattern)) > 1)

    def test_the_linearisation_places_its_direction_where_the_edges_act_last(
        self, tetra, cubic3
    ):
        # K4's four arrangements form one orbit.  Vertex 4 carries edges 2, 4
        # and 5 of 0-5, the largest sum, so the direction is placed there,
        # where the product meets it last.
        direction = schouten(cubic3, cubic3)
        with mock.patch.object(
            multivector_module,
            "_evaluate_ordered",
            wraps=multivector_module._evaluate_ordered,
        ) as evaluate:
            or_evaluate_algebraic(tetra, [direction, cubic3, cubic3, cubic3])
        (call,) = evaluate.call_args_list
        assert [arg is direction for arg in call.args[1]] == [False, False, False, True]

    def test_gamma5_graphs_are_zero_on_so3_before_the_product(
        self, pentagon_cocycle, so3, tetra, cubic3
    ):
        # so3 is linear, so each term's xi-degree plus x-degree is 3, and both
        # graphs have a vertex of degree 4 or 5: the degree prune leaves that
        # vertex no terms.  Every tensor-product term multiplies coefficients,
        # and these coefficients count their products; tetra on cubic3 shows
        # that the count sees a product that is built.
        products = []
        for graph, _ in pentagon_cocycle.items():
            assert not _evaluate_ordered(graph, [counted(so3, products)] * 6, 3)
        assert products == []
        assert _evaluate_ordered(tetra, [counted(cubic3, products)] * 4, 3)
        assert products


class TestOrgraphEvaluator:
    def test_requires_bivector(self, tetra):
        with pytest.raises(MultivectorError, match="bivector required"):
            evaluate_orgraph(orient(tetra), mv("xi1", 2))

    @pytest.mark.parametrize(
        "targets, sink",
        [([(0, 3), (0, 1)], 0), ([(0, 3), (4, 2), (2, 3)], 1), ([(3, 0), (2, 0)], 0)],
    )
    def test_each_sink_needs_exactly_one_arrow(self, so3, targets, sink):
        with pytest.raises(OrgraphError, match=f"sink {sink} must receive exactly one arrow"):
            evaluate_orgraph(new_orgraph(targets), so3)

    def test_a_bad_last_orgraph_fails_before_any_contraction(self, so3):
        # The valid orgraph comes first in key order and the one whose sink 0
        # receives two arrows last; every sink is checked before any work.
        from gckit import OrgraphSum

        good = new_orgraph([(0, 3), (1, 2)])
        bad = new_orgraph([(0, 3), (0, 4), (1, 5), (2, 3)])
        source = OrgraphSum([(good, 1), (bad, 1)])
        assert [g for g, _ in source.items()] == [good, bad]
        with mock.patch.object(
            multivector_module, "_contract", wraps=multivector_module._contract
        ) as contract:
            with pytest.raises(OrgraphError, match="sink 0 must receive exactly one arrow"):
                evaluate_orgraph(source, so3)
        assert contract.call_count == 0

    def test_single_orgraph_and_sum_agree(self, so3):
        g = parse_orgraph("o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3")
        from gckit import OrgraphSum

        s = OrgraphSum([(g, Fraction(1))])
        assert evaluate_orgraph(g, so3) == evaluate_orgraph(s, so3)

    @pytest.mark.parametrize("gamma_name", ["edge", "tetra"])
    def test_two_evaluators_agree(self, gamma_name, corpus, so3, cubic3, request):
        gamma = request.getfixturevalue(gamma_name)
        n = gamma.vertex_count
        for p in corpus + [cubic3, so3 + cubic3]:
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

    def test_orgraphs_zero_by_degree_multiply_no_coefficients(
        self, pentagon_cocycle, so3, tetra, cubic3
    ):
        # so3 is linear, and 10 arrows into 6 internal vertices put two on
        # one, whose degree 4 the prune finds above each term's 3, so no
        # bivector term is placed.  The sinks' terms have plain coefficients;
        # tetra's flow on cubic3 shows that the count sees a placed term.
        products = []
        assert not evaluate_orgraph(orient(pentagon_cocycle), counted(so3, products))
        assert products == []
        assert evaluate_orgraph(orient(tetra), counted(cubic3, products))
        assert products

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


def nambu(rho: Multivector, a: Multivector) -> Multivector:
    """The bivector of {f, g} = rho * det d(f, g, a)/d(x1, x2, x3) on R^3.

    It is rho*(d3(a) xi1 xi2 + d1(a) xi2 xi3 + d2(a) xi3 xi1), Poisson for
    all polynomials rho and a.
    """
    total = Multivector(3)
    for k, pair in ((2, "xi1*xi2"), (0, "xi2*xi3"), (1, "xi3*xi1")):
        total += multivector_product(x_derivative(a, k), mv(pair, 3))
    return multivector_product(rho, total)


# (rho, a, terms of the tetrahedral flow)
NAMBU_BRACKETS = [
    ("x1 + x2", "x1^2*x2 + x3^3", 22),
    ("x2 + x3", "x1^3 + x2^2*x3", 22),
    ("x1 - x3", "x1*x2^2 + x3^3", 28),
]


class TestOnShell:
    """The corollary on Poisson bivectors whose tetrahedral flow is nonzero.

    On the ``data/`` bivectors every such check reads 0 = 0: the flows on
    ``so3`` vanish by degree, and in d = 2 (``quad2``, ``sym2``) [[P, Q]] is a
    trivector.  On the Nambu brackets below Q = Or(tetra)(P) is nonzero, and
    [[P, Q]] = 0 holds only for the weights Or gives its graphs.

    Or(tetra) = 8 G1 - 24 G2 - 24 G2', with G1 the Lambda orgraph (both sinks
    on one vertex) and G2, G2' the Pi orgraph in its two sink orders.  This
    is the balance a:b = 1:6 of Bouisaghouane, Buring and Kiselev, "The
    Kontsevich tetrahedral flow revisited" (arXiv:1608.01710): their b
    weighs the Pi graph summed over both sink orders (24 + 24 = 6 * 8), and
    the sign of a graph's coefficient depends on the order of its edges,
    which the two conventions choose differently.  Weighting the Lambda term
    against the two Pi terms in any other ratio breaks the cocycle.
    """

    @pytest.mark.parametrize("rho, a, terms", NAMBU_BRACKETS)
    def test_the_tetrahedral_flow_is_a_poisson_cocycle(self, tetra, rho, a, terms):
        p = nambu(mv(rho, 3), mv(a, 3))
        assert not jacobiator(p)
        q = evaluate_orgraph(orient(tetra), p)
        assert len(q) == terms
        assert not schouten(p, q)

    @pytest.mark.parametrize("rho, a, terms", NAMBU_BRACKETS)
    def test_other_weights_are_not_cocycles(self, tetra, rho, a, terms):
        p = nambu(mv(rho, 3), mv(a, 3))
        flow = orient(tetra)
        lam, pi = (
            evaluate_orgraph(OrgraphSum([(g, c) for g, c in flow.items() if shape(g) == kind]), p)
            for kind in ("Lambda", "Pi")
        )
        for weights in [(1, -1), (1, 2), (1, 0), (0, 1)]:
            assert schouten(p, weights[0] * lam + weights[1] * pi), weights

    def test_both_evaluators_and_the_corollary_agree(self, tetra):
        rho, a, _ = NAMBU_BRACKETS[0]
        p = nambu(mv(rho, 3), mv(a, 3))
        assert or_evaluate_algebraic(tetra, [p] * 4) == evaluate_orgraph(orient(tetra), p)
        assert verify_corollary(tetra, p)

    def test_the_algebraic_flow_matches_the_eval_golden(self, tetra, data_dir):
        # `eval` prints the direct evaluator's value; `verify-corollary` prints
        # only a verdict.  This pins the algebraic evaluator's 22 terms.
        p = parse_poisson((data_dir / "nambu3.poisson").read_text(encoding="utf-8"))
        golden = data_dir.parent / "tests" / "golden" / "verbs" / "eval-tetra-nambu3.out"
        flow = multivector_module._flow(GraphSum([(tetra, 1)]), p)
        assert format_poisson(flow) == golden.read_text(encoding="utf-8")


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
        # The end of the input is one column past the last token.
        for text, message in (
            ("x1^", "unexpected end of expression at column 4"),
            ("x1*", "unexpected end of expression at column 4"),
            ("+", "unexpected end of expression at column 2"),
            ("x1 + ", "unexpected end of expression at column 5"),
            ("(x1", "missing closing parenthesis at column 4"),
        ):
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                mv(text, 2)
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1^x2", "integer exponent expected at column 4"),
            ("x1 x2", "unexpected 'x2' at column 4"),
            ("(x1 x2", "missing closing parenthesis at column 5"),
            ("(x1", "missing closing parenthesis at column 4"),
            ("((x1) ", "missing closing parenthesis at column 6"),
            ("", "empty expression"),
        ],
    )
    def test_malformed_expression(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_multivector(text, 2)

    def test_parenthesised_and_negated_factors(self):
        assert mv("(x1 + x2)*xi1", 2) == mv("x1*xi1 + x2*xi1", 2)
        assert mv("x1*-x2", 2) == -mv("x1*x2", 2)

    @pytest.mark.parametrize(
        "text, rendered",
        [
            ("-x1^2", "-x1^2"),
            ("-(x1)^2", "-x1^2"),
            ("+-x1", "-x1"),
            ("-x1*-x2", "x1*x2"),
            ("x2 + -x1^2", "x2 - x1^2"),
            ("x2 - -x1^2", "x2 + x1^2"),
            ("2*-x1^2", "-2*x1^2"),
            ("--x1^2", "x1^2"),
            ("3*-2^2", "-12"),
        ],
    )
    def test_minus_binds_below_power_and_above_product(self, text, rendered):
        assert format_multivector(mv(text, 2)) == rendered

    @pytest.mark.parametrize(
        "text, column", [("-+x1", 2), ("++x1", 2), ("x1*+x2", 4), ("x1^-2", 4)]
    )
    def test_a_sign_is_not_a_factor(self, text, column):
        with pytest.raises(ParseError, match=f" at column {column}$"):
            mv(text, 2)

    @given(p=multivectors(3, max_terms=6))
    @settings(max_examples=50, deadline=None)
    def test_rendered_text_reads_back(self, p):
        assert mv(format_multivector(p), 3) == p
        assert parse_poisson(format_poisson(p)) == p

    def test_products_past_the_bound_are_parse_errors(self):
        with pytest.raises(
            ParseError, match="^product above the maximum 25000 term pairs at column 17$"
        ):
            mv("(x1+x2+x3+x4+x5)^18", 5)

        def powers(x: str, count: int) -> str:
            return "(" + "+".join(f"{x}^{k}" for k in range(count)) + ")"

        left = powers("x1", 25) + "*" + powers("x2", 10)
        assert len(mv(f"{left}*{powers('x3', 100)}", 3)) == 25_000
        text = f"{left}*({powers('x3', 100)}+x3^100)"
        with pytest.raises(ParseError, match=f"term pairs at column {len(left) + 1}$"):
            mv(text, 3)

    @pytest.mark.parametrize(
        "text, product",
        [
            ("xi1^2", "xi1*xi1"),
            ("xi1^0", "1"),
            ("(-2*xi1)^3", "(-2*xi1)*(-2*xi1)*(-2*xi1)"),
            ("(1/2*x1)^2", "(1/2*x1)*(1/2*x1)"),
            ("(x1*xi1*xi2)^2", "(x1*xi1*xi2)*(x1*xi1*xi2)"),
            ("0^0", "1"),
            ("(x1+x2)^3", "(x1+x2)*(x1+x2)*(x1+x2)"),
        ],
    )
    def test_a_power_is_a_repeated_product(self, text, product):
        assert mv(text, 3) == mv(product, 3)

    def test_a_one_term_base_is_raised_without_products(self):
        with mock.patch.object(
            multivector_module, "multivector_product", side_effect=AssertionError
        ):
            assert mv("x1^100", 1) == Multivector.of(((100,), ()))
            assert mv("(-xi1)^2", 1) == mv("0", 1)

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


# ---------------------------------------------------------------------------
# One path per rule


class TestOnePathPerRule:
    def test_of_builds_a_one_term_multivector(self):
        assert Multivector.of(((0, 0), ())) == mv("1", 2)
        assert Multivector.of(((0, 2, 1), (2, 0))) == mv("-x2^2*x3*xi1*xi3", 3)
        p = mv("x1*xi1*xi2", 2)
        assert Multivector.of(p) is p

    def test_of_checks_the_term(self):
        with pytest.raises(MultivectorError, match="odd index out of range"):
            Multivector.of(((0,), (1,)))
        with pytest.raises(MultivectorError, match="negative exponent"):
            Multivector.of(((-1, 0), ()))
        with pytest.raises(MultivectorError, match="dimension must be positive"):
            Multivector.of(((), ()))
        assert not Multivector.of(((0, 0), (1, 1)))

    def test_library_errors_the_cli_never_reaches(self):
        with pytest.raises(MultivectorError, match="dimension must be positive"):
            Multivector(0)
        f, g = mv("x1*xi1", 2), mv("x1*xi1", 3)
        with pytest.raises(MultivectorError, match="dimension mismatch"):
            multivector_product(f, g)
        with pytest.raises(MultivectorError, match="dimension mismatch"):
            schouten(f, g)

    def test_equal_arguments_on_a_zero_graph_are_not_evaluated(self, path3, cubic3):
        # path3 has an odd automorphism, so even one arrangement is not evaluated.
        with mock.patch.object(
            multivector_module,
            "_evaluate_ordered",
            wraps=multivector_module._evaluate_ordered,
        ) as evaluate:
            assert not or_evaluate_algebraic(path3, [cubic3] * 3)
        assert evaluate.call_count == 0

    def test_long_minus_runs_and_nesting_at_the_bound_parse(self):
        deep = "(" * 100 + "x1*xi2" + ")" * 100
        assert mv("-" * 2001 + deep, 2) == -mv("x1*xi2", 2)
        assert mv("-" * 2000 + deep, 2) == mv("x1*xi2", 2)
        assert mv("-(" * 100 + "x1" + ")" * 100, 2) == mv("x1", 2)

    def test_nesting_past_the_bound_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^parentheses nested deeper than 100 at column 101$"):
            mv("(" * 400 + "x1" + ")" * 400, 2)
        with pytest.raises(ParseError, match="^line 2: parentheses nested deeper than 100"):
            parse_poisson("dim 2\n" + "-(" * 101 + "x1" + ")" * 101)
