"""Graph sums, the insertion bracket, the differential, cocycle kernels."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from gckit import (
    EDGE_GRAPH,
    GraphSum,
    ParseError,
    bracket,
    cocycle_kernel,
    differential,
    format_graph_sum,
    insert,
    is_cocycle,
    new_graph,
    parse_graph_sum,
)
from gckit.complexes import _nullspace
from test_oracles import graphs


@pytest.fixture
def pentagon():
    return new_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


class TestGraphSum:
    def test_zero_graphs_are_dropped(self, path3):
        s = GraphSum()
        s.add(path3, 5)
        assert not s
        assert len(s) == 0

    def test_opposite_presentations_cancel(self, tetra):
        swapped = new_graph(4, [(1, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
        s = GraphSum([(tetra, 1), (swapped, 1)])
        assert not s

    def test_presentation_sign_is_applied(self, tetra):
        swapped = new_graph(4, [(1, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
        s = GraphSum([(swapped, 1)])
        assert s.coefficient(tetra) == -1

    def test_arithmetic(self, tetra, edge):
        s = GraphSum([(tetra, 2), (edge, 1)])
        t = GraphSum([(tetra, Fraction(1, 2))])
        u = s - 4 * t
        assert u.coefficient(tetra) == 0
        assert u.coefficient(edge) == 1
        assert (-u).coefficient(edge) == -1
        assert list(u) == u.items()

    def test_copy_is_independent(self, edge):
        s = GraphSum([(edge, 1)])
        t = s.copy()
        t.add(edge, 1)
        assert s.coefficient(edge) == 1
        assert t.coefficient(edge) == 2

    def test_equality(self, edge, tetra):
        assert GraphSum([(edge, 1), (tetra, 2)]) == GraphSum([(tetra, 2), (edge, 1)])
        assert GraphSum() != GraphSum([(edge, 1)])

    def test_items_are_deterministically_ordered(self, edge, tetra):
        s = GraphSum([(tetra, 1), (edge, 1)])
        t = GraphSum([(edge, 1), (tetra, 1)])
        assert [g for g, _ in s.items()] == [g for g, _ in t.items()]

    def test_coefficients_stay_int_while_integral(self, tetra, edge):
        s = GraphSum([(tetra, 3), (edge, -2)])
        half = s * Fraction(1, 2)
        assert type(half.coefficient(tetra)) is Fraction
        not_closed = new_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        assert not differential(tetra)
        for total in (differential(not_closed), s * Fraction(4, 2), half + half):
            assert total
            assert all(type(c) is int for _, c in total.items())
        assert s.coefficient(not_closed) == 0
        assert type(s.coefficient(not_closed)) is int

    def test_reduce_divides_out_the_content_and_keeps_signs(self, tetra, edge):
        s = GraphSum([(tetra, Fraction(-3, 2)), (edge, Fraction(9, 4))])
        reduced = s.reduce()
        assert (reduced.coefficient(tetra), reduced.coefficient(edge)) == (-2, 3)
        assert all(type(c) is int for _, c in reduced.items())
        assert (-s).reduce() == -reduced
        assert GraphSum().reduce() == GraphSum()


class TestInsertAndBracket:
    def test_edge_graph_constant(self, edge):
        assert EDGE_GRAPH == edge

    def test_insertion_into_edge_vanishes(self, edge):
        assert not insert(edge, edge)

    def test_bracket_of_edge_with_itself_is_empty(self, edge):
        assert not bracket(edge, edge)

    def test_bracket_is_graded_antisymmetric(self, edge, tetra, pentagon):
        # [x,y] = -(-1)^(e_x e_y) [y,x]: symmetric when both edge counts are
        # odd, antisymmetric otherwise
        for a, b in [(tetra, pentagon), (edge, pentagon), (edge, tetra)]:
            sign = -(-1) ** (a.edge_count * b.edge_count)
            assert bracket(a, b) == sign * bracket(b, a)

    def test_bracket_accepts_sums(self, tetra, edge):
        s = GraphSum([(tetra, 2)])
        assert bracket(s, GraphSum([(edge, 1)])) == 2 * bracket(tetra, edge)


class TestDifferential:
    def test_edge_is_closed(self, edge):
        assert not differential(edge)
        assert is_cocycle(edge)

    def test_tetrahedron_is_closed(self, tetra):
        assert not differential(tetra)

    def test_pentagon_is_closed(self, pentagon):
        assert is_cocycle(pentagon)

    def test_not_everything_is_closed(self):
        g = new_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        d = differential(g)
        assert d
        assert format_graph_sum(d) == "4 * g 5 6 : 1 2, 1 3, 1 4, 2 3, 2 5, 4 5"

    @example(g=new_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
    @example(g=new_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)]))
    @example(g=new_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5)]))
    @given(g=graphs(max_vertices=5))
    @settings(max_examples=100, deadline=None)
    def test_differential_squares_to_zero(self, g):
        assert not differential(differential(g))

    def test_differential_is_linear(self, tetra):
        g = new_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        s = GraphSum([(g, 3), (tetra, -2)])
        assert differential(s) == 3 * differential(g)


class TestCocycleKernel:
    def test_tetrahedron_bigrading(self, tetra):
        basis = cocycle_kernel(4, 6)
        assert len(basis) == 1
        assert basis[0] == GraphSum([(tetra, 1)])

    def test_empty_bigradings(self):
        assert cocycle_kernel(4, 5) == []
        assert cocycle_kernel(3, 3) == []
        assert cocycle_kernel(4, 7) == []

    def test_single_edge_bigrading(self, edge):
        basis = cocycle_kernel(2, 1)
        assert basis == [GraphSum([(edge, 1)])]

    def test_pentagon_bigrading(self, pentagon):
        basis = cocycle_kernel(5, 5)
        assert len(basis) == 1
        assert basis[0].coefficient(pentagon) in (1, -1)

    def test_nullspace_is_exact_for_int_input(self):
        # The columns of the matrix [[2, 1, 0], [0, 3, 1]].
        basis = _nullspace([{0: 2}, {0: 1, 1: 3}, {1: 1}])
        assert basis == [{0: Fraction(1, 6), 1: Fraction(-1, 3), 2: Fraction(1)}]
        assert all(type(x) is Fraction for vec in basis for x in vec.values())

    def test_basis_vectors_are_primitive_cocycles(self, wheel5, companion5):
        basis = cocycle_kernel(6, 10)
        assert len(basis) == 1
        vec = basis[0]
        assert is_cocycle(vec)
        coeffs = [c for _, c in vec.items()]
        assert all(c.denominator == 1 for c in coeffs)
        assert coeffs[0] > 0
        assert vec.coefficient(wheel5) != 0
        assert vec.coefficient(companion5) != 0


class TestSumTextFormat:
    def test_round_trip(self, tetra, edge):
        s = GraphSum([(tetra, Fraction(-3, 2)), (edge, 5)])
        assert parse_graph_sum(format_graph_sum(s)) == s

    def test_zero_sum_renders_empty_and_parses_back(self):
        assert format_graph_sum(GraphSum()) == ""
        assert parse_graph_sum("") == GraphSum()
        assert parse_graph_sum("# nothing here\n") == GraphSum()

    def test_frozen_rendering(self, tetra):
        s = GraphSum([(tetra, Fraction(1, 3))])
        assert format_graph_sum(s) == "1/3 * g 4 6 : 1 2, 1 3, 1 4, 2 3, 2 4, 3 4"

    def test_missing_star(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph_sum("2 g 2 1 : 1 2")

    def test_bad_coefficient(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph_sum("# c\ntwo * g 2 1 : 1 2")

    def test_bad_body(self):
        with pytest.raises(ParseError):
            parse_graph_sum("2 * g 2 1 : 1\n")
        for body, message in [
            ("g 2 1 : 1", "bad edge '1'"),
            ("g 3 2 : 1 2, 2 3 1", "bad edge '2 3 1'"),
            ("g 2 1 : 1 b", "bad edge '1 b'"),
            ("g 2 1 : , 1 2,,", None),
            ("g 3 2 : 1 2", "expected 2 edges, found 1"),
            ("g 2 1 :", "expected 1 edge, found 0"),
        ]:
            text = f"# sum\n2 * {body}\n"
            if message is None:
                assert len(parse_graph_sum(text)) == 1
                continue
            with pytest.raises(ParseError, match=f"^line 2: {message}$"):
                parse_graph_sum(text)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("h 2 1 : 1 2", "expected 'g <vertices> <edges> : ...'"),
            ("g 2 1 1 2", "expected 'g <vertices> <edges> : ...'"),
            ("g 2 : 1 2", "expected 'g <vertices> <edges> : ...'"),
            ("g two 1 : 1 2", "vertex/edge counts must be integers"),
            ("g 2 1.5 : 1 2", "vertex/edge counts must be integers"),
            ("g 2 1 : 1 1", "loop edge at vertex 1"),
            ("g 2 1 : 1 3", "edge (1, 3) out of range 1..2"),
        ],
    )
    def test_bad_term(self, body, message):
        with pytest.raises(ParseError, match=f"^line 2: {re.escape(message)}$"):
            parse_graph_sum(f"# sum\n2 * {body}\n")


def test_coefficient_of_a_zero_graph_is_zero(tetra, path3):
    total = GraphSum.of(tetra) + GraphSum.of(path3)
    assert total == GraphSum.of(tetra)
    assert total.coefficient(path3) == 0
    assert total.coefficient(tetra) == 1
