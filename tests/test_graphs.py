"""Unoriented graphs: construction, canonical signed forms, text format."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gckit import (
    GraphError,
    ParseError,
    UnorientedGraph,
    automorphisms,
    canonicalize,
    edge_permutation_sign,
    format_graph,
    inversion_count,
    is_connected,
    new_graph,
    parse_graph,
    significant_lines,
)


def relabel(g: UnorientedGraph, image: dict[int, int]) -> UnorientedGraph:
    return new_graph(g.vertex_count, [(image[u], image[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# Construction


class TestNewGraph:
    def test_edges_stored_sorted_in_input_order(self):
        g = new_graph(3, [(3, 1), (1, 2)])
        assert g.edges == ((1, 3), (1, 2))
        assert g.edge_count == 2

    def test_rejects_loop(self):
        with pytest.raises(GraphError, match="loop edge at vertex 2"):
            new_graph(3, [(1, 2), (2, 2)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(GraphError, match=r"parallel edge \(1, 2\)"):
            new_graph(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(GraphError, match="out of range"):
            new_graph(2, [(1, 3)])

    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(GraphError, match="positive"):
            new_graph(0, [])

    def test_degrees(self, tetra):
        assert tetra.degrees() == (3, 3, 3, 3)


# ---------------------------------------------------------------------------
# Permutation helpers


class TestPermutations:
    def test_inversion_count(self):
        assert inversion_count(()) == 0
        assert inversion_count((0, 1, 2)) == 0
        assert inversion_count((2, 1, 0)) == 3
        assert inversion_count((0, 1, 2, 5, 3, 7, 4, 6)) == 4

    def test_edge_permutation_sign(self):
        assert edge_permutation_sign((0, 1, 2)) == 1
        assert edge_permutation_sign((1, 0, 2)) == -1

    def test_repeated_entries_are_not_a_permutation(self):
        with pytest.raises(GraphError, match="^not a permutation: repeated entries$"):
            edge_permutation_sign((0, 1, 1))

    @given(st.permutations(range(6)))
    def test_sign_matches_inversion_parity(self, perm):
        assert edge_permutation_sign(perm) == (-1) ** inversion_count(perm)


# ---------------------------------------------------------------------------
# Canonical signed form


ZERO_GRAPHS = {
    "path3": (3, [(1, 2), (2, 3)]),
    "triangle": (3, [(1, 2), (2, 3), (1, 3)]),
    "square": (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "paw": (4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
    "bowtie": (5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]),
}

NONZERO_GRAPHS = {
    "edge": (2, [(1, 2)]),
    "pentagon": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    "full4": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    "full4-minus-edge": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
    "house": (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)]),
}


class TestCanonicalize:
    @pytest.mark.parametrize("name", sorted(ZERO_GRAPHS))
    def test_zero_graphs(self, name):
        n, edges = ZERO_GRAPHS[name]
        assert canonicalize(new_graph(n, edges)).is_zero

    @pytest.mark.parametrize("name", sorted(NONZERO_GRAPHS))
    def test_nonzero_graphs(self, name):
        n, edges = NONZERO_GRAPHS[name]
        sc = canonicalize(new_graph(n, edges))
        assert not sc.is_zero
        assert sc.sign in (1, -1)

    def test_canonical_form_of_full_graph(self, tetra):
        sc = canonicalize(tetra)
        assert sc.sign == 1
        assert sc.canonical == tetra

    def test_swapping_two_edges_flips_sign(self, tetra):
        swapped = new_graph(4, [(1, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)])
        sc = canonicalize(swapped)
        assert sc.canonical == tetra
        assert sc.sign == -1

    def test_pentagon_canonical_form(self):
        n, edges = NONZERO_GRAPHS["pentagon"]
        sc = canonicalize(new_graph(n, edges))
        assert sc.canonical.edges == ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5))
        assert sc.sign == 1

    def test_isolated_vertices_are_not_searched(self):
        sc = canonicalize(new_graph(12, [(5, 9)]))
        assert sc.canonical.edges == ((1, 2),)
        assert sc.sign == 1
        assert not sc.is_zero

    def test_relabeling_preserves_canonical_form(self, tetra):
        image = {1: 4, 2: 3, 3: 1, 4: 2}
        sc = canonicalize(relabel(tetra, image))
        assert sc.canonical == tetra

    @given(
        perm=st.permutations(range(1, 7)),
        edge_order=st.permutations(range(10)),
        flips=st.lists(st.booleans(), min_size=10, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_presentation_independence(self, perm, edge_order, flips, wheel5):
        """Relabeling vertices and reshuffling edges never changes the
        canonical graph, and changes the sign exactly by the edge-permutation
        parity (endpoint order within an edge line is immaterial)."""
        image = {v: perm[v - 1] for v in range(1, 7)}
        base = canonicalize(wheel5)
        edges = [
            (image[wheel5.edges[i][0]], image[wheel5.edges[i][1]])[:: -1 if f else 1]
            for i, f in zip(edge_order, flips)
        ]
        sc = canonicalize(new_graph(6, edges))
        assert sc.canonical == base.canonical
        assert sc.sign == base.sign * edge_permutation_sign(edge_order)

    @given(
        n=st.integers(min_value=2, max_value=5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_status_is_relabeling_invariant(self, n, data):
        all_pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = data.draw(st.lists(st.sampled_from(all_pairs), unique=True,
                                   min_size=1, max_size=len(all_pairs)))
        perm = data.draw(st.permutations(range(1, n + 1)))
        g = new_graph(n, edges)
        image = {v: perm[v - 1] for v in range(1, n + 1)}
        assert canonicalize(g).is_zero == canonicalize(relabel(g, image)).is_zero

    @given(
        n=st.integers(min_value=2, max_value=7),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_prefix_of_a_canonical_edge_list_is_canonical(self, n, data):
        all_pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = data.draw(st.lists(st.sampled_from(all_pairs), unique=True,
                                   max_size=len(all_pairs)))
        canonical = canonicalize(new_graph(n, edges)).canonical.edges
        for k in range(len(canonical)):
            prefix = canonical[:k]
            assert canonicalize(new_graph(n, prefix)).canonical.edges == prefix


class TestAutomorphisms:
    def test_counts(self, tetra, path3, wheel5):
        assert len(automorphisms(tetra)) == 24
        assert len(automorphisms(path3)) == 2
        assert len(automorphisms(wheel5)) == 10

    def test_every_automorphism_preserves_the_edge_set(self, wheel5):
        edge_set = {frozenset(e) for e in wheel5.edges}
        for images, sign in automorphisms(wheel5):
            mapped = {frozenset((images[u - 1], images[v - 1])) for u, v in wheel5.edges}
            assert mapped == edge_set
            assert sign in (1, -1)


class TestSearchBound:
    def test_searches_past_the_bound_fail_at_once(self):
        path = new_graph(201, [(k, k + 1) for k in range(1, 201)])
        for search in (canonicalize, automorphisms):
            with pytest.raises(GraphError, match="^labeling search above the maximum 200 vertices$"):
                search(path)

    def test_isolated_vertices_are_not_searched(self):
        assert canonicalize(new_graph(10_000, [(9_999, 10_000)])).canonical.edges == ((1, 2),)


class TestConnectivity:
    def test_connected(self, path3, tetra):
        assert is_connected(path3)
        assert is_connected(tetra)

    def test_disconnected(self):
        assert not is_connected(new_graph(4, [(1, 2), (3, 4)]))


# ---------------------------------------------------------------------------
# Text format


class TestTextFormat:
    def test_round_trip(self, wheel5):
        assert parse_graph(format_graph(wheel5)) == wheel5

    def test_comments_and_blanks_are_skipped(self):
        text = "# a comment\n\ng 2 1\n  # another\n1 2\n"
        assert parse_graph(text) == new_graph(2, [(1, 2)])

    def test_significant_lines_numbers(self):
        text = "# c\n\ng 2 1\n1 2"
        assert list(significant_lines(text)) == [(3, "g 2 1"), (4, "1 2")]

    def test_empty_text(self):
        with pytest.raises(ParseError, match="empty graph text"):
            parse_graph("# only a comment\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match=r"line 1: expected header"):
            parse_graph("graph 2 1\n1 2\n")

    @pytest.mark.parametrize("head", ["g two 1", "g 2 1.5"])
    def test_non_integer_counts(self, head):
        with pytest.raises(ParseError, match=r"^line 1: vertex/edge counts must be integers$"):
            parse_graph(f"{head}\n1 2\n")

    def test_wrong_edge_count_is_position_annotated(self):
        with pytest.raises(ParseError, match=r"line 2: expected 6 edge lines, found 1"):
            parse_graph("# x\ng 4 6\n1 2\n")
        with pytest.raises(ParseError, match=r"^line 1: expected 1 edge line, found 2$"):
            parse_graph("g 2 1\n1 2\n1 2\n")

    def test_bad_edge_line(self):
        with pytest.raises(ParseError, match=r"line 2: expected an edge line"):
            parse_graph("g 2 1\n1 2 3\n")

    def test_non_integer_endpoint(self):
        with pytest.raises(ParseError, match=r"line 2: edge endpoints must be integers"):
            parse_graph("g 2 1\n1 b\n")

    def test_graph_errors_become_parse_errors(self):
        with pytest.raises(ParseError, match="parallel edge"):
            parse_graph("g 2 2\n1 2\n2 1\n")

    def test_data_files_parse(self, data_dir, tetra, wheel5):
        assert parse_graph((data_dir / "tetra.g").read_text()) == tetra
        assert parse_graph((data_dir / "wheel5.g").read_text()) == wheel5
