"""The fast paths against the brute-force code they replaced.

``oracles`` keeps the exhaustive canonicalizer, automorphism search and
orgraph normalizer; hypothesis compares them with the library on random
graphs (isolated vertices and disconnected graphs included) and random
orgraphs (repeated targets included), and the labeling search that
recursed once per label with the one that fixes the labels in one pass
once every cell holds one vertex, on the same graphs and orgraphs keyed in
random order and on K7, eight isolated vertices and a 60-vertex path.  The
orbits the symmetry rule weighs are compared with the orbits of the
exhaustive automorphism search, on the distinct arrangements of random
labels over random graphs with at most six vertices, zero graphs included.
The differential that builds only the splits that do not cancel is
compared with the whole bracket with the single edge on every class with
at most five vertices, on random graphs with at most six, and on random
sums with rational coefficients, and the insertion that relabels edges
through one helper with the one that relabeled them in a loop per
attachment, on random small pairs.  It also keeps the subset loop that
built the kernel basis, compared exhaustively with the edge-by-edge
generation on small bidegrees; the level-set class generation, whose
classes are compared with the orderly generation's on every bidegree with at
most six vertices; the dense nullspace, compared with the sparse elimination
on random small matrices with zero rows, zero columns and dependent columns;
the two-pass edge operator, compared with the one-pass edge operator on
random multivectors and graphs; the direct evaluator that enumerates every
index tuple and the vertex-by-vertex recursion, both compared with the
evaluation of an orgraph's arrows on the contraction kernel, on random sums
of two orgraphs with 0-3 sinks, the first of them nonzero, and random
nonzero bivectors; the sweep of each group's shared arrow prefixes, compared
with the loop that contracted each orgraph on its own and with the
recursion, on random sums of 2-8 orgraphs that share prefixes and span
several sink and internal counts; the placement loop over
all ``n!`` permutations, compared with the evaluation of one arrangement
per automorphism orbit on graphs with at most four vertices and on the
corpus graphs K4, the pentagon wheel and the zero path, and the placement by
repeated products, compared with the one tensor product on the same graphs.
The per-coordinate Schouten bracket is compared with the single edge's
operator on random multivectors with at most four coordinates: odd and
even, inhomogeneous and zero ones.  The tuple product is compared with the
contraction with no operators on random pairs with at most three
coordinates and rational coefficients, in both orders, odd by odd and
with an empty factor; the oracles import neither it nor the derivatives
from ``gckit``.
The ``orient`` that normalized every witness is compared, byte for byte,
with the one that normalizes one witness per automorphism orbit, on random
graphs with at most six vertices and four sinks (zero graphs and isolated
vertices included) and on every graph of the rules-check corpus, ``data/``
and the heptagon wheel.
The two-loop elementary moves are compared, order included, with the one
trade on every witness of the rules-check corpus, and the trade that read
each companion id from ``items`` with the one that reads it from the
readout on every witness of random graphs with at most six vertices and
four sinks; the fold that could keep either member of a Pi pair is
compared with the fold that keeps the first, on the two-sink graphs there
and on randomly perturbed orientations.
The six value classes are compared with their dataclass twins on random
fields: construction by position and by keyword, ``repr``, ``==``, ``hash``,
``copy`` and ``deepcopy``, and, for the five frozen ones, that a field
cannot be assigned or deleted; a pickle round trip gives an equal value.
The packed evaluator's diagonal is checked on exponents 2^k - 1 at three
copies, whose sum at the diagonal needs more bits than any one of them,
for both formulas against the tuple evaluator and the recursion.
"""

from __future__ import annotations

import ast
import copy
import itertools
import pickle
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gckit.complexes as complexes
import gckit.multivectors as mv
import oracles
from gckit import (
    Multivector,
    NormalizedOrgraph,
    Orgraph,
    RulesReport,
    SignedCanonicalGraph,
    UnorientedGraph,
    automorphisms,
    canonicalize,
    new_graph,
    new_orgraph,
    normalize_orgraph,
    or_evaluate_algebraic,
    orient,
    parse_graph,
)
from gckit.graphs import _graph_search, _minimal_labelings, _orbits
from gckit.orient import (
    OrgraphSum,
    OrientationWitness,
    SkewSymmetryError,
    elementary_moves,
    enumerate_orientations,
    fold_sink_swap,
    format_orgraph_sum,
)
from test_multivectors import COEFFICIENTS, multivectors


@st.composite
def graphs(draw, max_vertices=7):
    """A random edge subset in random order, so isolated vertices, leaves and
    disconnected graphs all occur."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = []
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return new_graph(n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)])


@st.composite
def orgraphs(draw, sinks=None):
    s = draw(st.sampled_from([0, 1, 2, 3])) if sinks is None else sinks
    # Two copies over the same sinks have a sign-free symmetry, so a nonzero
    # orgraph then has several least labelings, and ``order`` must come from
    # the least of them.
    copies = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(min_value=1, max_value=7 // copies))
    assume(s + m >= 2)
    base = []
    for i in range(m):
        others = [t for t in range(s + m) if t != s + i]
        first = draw(st.sampled_from(others))
        # A repeated target makes the orgraph zero; draw it often enough to test.
        second = first if draw(st.integers(0, 9)) == 0 else draw(st.sampled_from(others))
        base.append((first, second))
    position = draw(st.permutations(range(copies * m)))

    def place(t, copy):
        return t if t < s else s + position[t - s + copy * m]

    targets = [()] * (copies * m)
    for copy in range(copies):
        for i, (a, b) in enumerate(base):
            targets[position[i + copy * m]] = (place(a, copy), place(b, copy))
    return new_orgraph(targets, sink_count=s)


@given(g=graphs())
@settings(max_examples=150, deadline=None)
def test_canonicalize_matches_oracle(g):
    assert canonicalize(g) == oracles.canonicalize(g)


@given(g=graphs())
@settings(max_examples=150, deadline=None)
def test_automorphisms_match_oracle(g):
    assert automorphisms(g) == oracles.automorphisms(g)


@given(g=graphs(max_vertices=8), data=st.data())
@settings(max_examples=80, deadline=None)
def test_labeling_search_matches_oracle_on_graphs(g, data):
    # The vertices are keyed in random order, as the search branches in key
    # order and the labelings are compared as an ordered list.
    vertices = data.draw(st.permutations(range(1, g.vertex_count + 1)))
    neighbours, row, _ = _graph_search(g.edges, vertices)
    assert _minimal_labelings(neighbours, row) == oracles.minimal_labelings(neighbours, row)


@given(g=orgraphs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_labeling_search_matches_oracle_on_orgraphs(g, data):
    # The out-neighbours and the row of ``normalize_orgraph``.
    s = g.sink_count

    def row(v, label):
        return tuple(sorted(t if t < s else s + label[t - s] for t in g.targets[v]))

    internal = data.draw(st.permutations(range(g.internal_count)))
    neighbours = {v: {t - s for t in g.targets[v] if t >= s} for v in internal}
    assert _minimal_labelings(neighbours, row) == oracles.minimal_labelings(neighbours, row)


@pytest.mark.parametrize(
    "edges, n, count",
    [
        (list(itertools.combinations(range(1, 8), 2)), 7, 5040),
        ([], 8, 40320),
        ([(v, v + 1) for v in range(1, 60)], 60, 2),
    ],
    ids=["K7", "edgeless8", "path60"],
)
def test_labeling_search_matches_oracle_on_symmetric_graphs(edges, n, count):
    # Every labeling of K7 and of 8 isolated vertices is least; the path
    # has two, each reached through a recursion about 60 deep.
    neighbours, row, _ = _graph_search(edges, range(1, n + 1))
    found = _minimal_labelings(neighbours, row)
    assert found == oracles.minimal_labelings(neighbours, row)
    assert len(found) == count


def _arrangement_image(images):
    return lambda arrangement: tuple(arrangement[v - 1] for v in images)


@given(g=graphs(max_vertices=6), data=st.data())
@settings(max_examples=40, deadline=None)
def test_orbits_match_brute_force(g, data):
    n = g.vertex_count
    labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    points = list(dict.fromkeys(itertools.permutations(labels)))
    orbits = _orbits(g, points, _arrangement_image)
    if oracles.canonicalize(g).is_zero:
        assert orbits == []
        return
    group = [_arrangement_image(images) for images, _ in oracles.automorphisms(g)]
    first = {}
    for point in points:
        first.setdefault(frozenset(move(point) for move in group), point)
    assert orbits == [(point, len(orbit)) for orbit, point in first.items()]
    assert sum(size for _, size in orbits) == len(points)


@given(g=orgraphs())
@settings(max_examples=200, deadline=None)
def test_normalize_orgraph_matches_oracle(g):
    # NormalizedOrgraph equality compares the vertex order too.
    assert normalize_orgraph(g) == oracles.normalize_orgraph(g)


# ---------------------------------------------------------------------------
# Kernel basis generation

# Every bidegree on at most 5 vertices, and four on 6 vertices: m = 7 and
# m = 8 straddle the switch to generating complements at 2m > C(6, 2).
KERNEL_BIDEGREES = [(n, m) for n in range(1, 6) for m in range(comb(n, 2) + 1)]
KERNEL_BIDEGREES += [(6, m) for m in (6, 7, 8, 9)]


@pytest.mark.parametrize("n, m", KERNEL_BIDEGREES)
def test_kernel_basis_matches_oracle(n, m):
    assert complexes._kernel_basis(n, m) == oracles.kernel_basis(n, m)


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 7) for m in range(comb(n, 2) + 1)]
)
def test_edge_classes_match_oracle(n, m):
    def classes(generate):
        return [canonicalize(new_graph(n, edges)).canonical for edges in generate(n, m)]

    orderly = classes(complexes._edge_classes)
    assert len(orderly) == len(set(orderly))
    assert set(orderly) == set(classes(oracles.edge_classes))


# ---------------------------------------------------------------------------
# Differential


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 6) for m in range(comb(n, 2) + 1)]
)
def test_differential_matches_oracle_on_every_class(n, m):
    for edges in complexes._edge_classes(n, m):
        g = new_graph(n, edges)
        assert complexes.differential(g) == oracles.differential(g)


@given(g1=graphs(max_vertices=3), g2=graphs(max_vertices=4))
@settings(max_examples=100, deadline=None)
def test_insert_matches_oracle(g1, g2):
    assert complexes.insert(g1, g2) == oracles.insert(g1, g2)


@given(g=graphs(max_vertices=6))
@settings(max_examples=150, deadline=None)
def test_differential_matches_oracle(g):
    assert complexes.differential(g) == oracles.differential(g)


@given(
    terms=st.lists(
        st.tuples(graphs(max_vertices=5), st.one_of(st.integers(-3, 3), COEFFICIENTS)),
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_differential_of_a_sum_matches_oracle(terms):
    s = complexes.GraphSum(terms)
    assert complexes.differential(s) == oracles.differential(s)


def test_differential_of_a_mixed_rational_sum_matches_oracle():
    s = complexes.GraphSum([
        (new_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]), Fraction(-2, 3)),
        (new_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), 3),
        (new_graph(5, [(1, 2), (1, 3), (1, 4), (2, 3)]), Fraction(5, 2)),
    ])
    d = complexes.differential(s)
    assert any(type(c) is Fraction for _, c in d.items())
    assert d == oracles.differential(s)


@st.composite
def sparse_matrices(draw):
    """``(columns, rows, ncols)``: one small rational matrix, both ways.

    Zero entries are common, so zero rows and zero columns occur; some
    columns are combinations of earlier ones; each column lists its rows in
    a random order, so the pivots take different rows.
    """
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 7))
    entries = st.one_of(st.just(0), COEFFICIENTS)
    dense_columns: list[list] = []
    for _ in range(ncols):
        if dense_columns and draw(st.booleans()):
            factors = draw(st.lists(entries, min_size=ncols, max_size=ncols))
            column = [sum(f * c[i] for f, c in zip(factors, dense_columns)) for i in range(nrows)]
        else:
            column = draw(st.lists(entries, min_size=nrows, max_size=nrows))
        dense_columns.append(column)
    columns = []
    for column in dense_columns:
        order = draw(st.permutations(range(nrows)))
        columns.append({f"r{i}": column[i] for i in order if column[i]})
    rows = [[column[i] for column in dense_columns] for i in range(nrows)]
    return columns, rows, ncols


@given(matrix=sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_nullspace_matches_oracle(matrix):
    columns, rows, ncols = matrix
    basis = complexes._nullspace(columns)
    assert all(type(x) is Fraction and x for vec in basis for x in vec.values())
    dense = [[vec.get(j, 0) for j in range(ncols)] for vec in basis]
    assert dense == oracles.nullspace(rows, ncols)


def test_six_vertex_class_counts():
    # OEIS A008406, row n = 6: graphs on 6 vertices by number of edges.
    counts = [len(complexes._edge_classes(6, m)) for m in range(16)]
    assert counts == [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1]


# ---------------------------------------------------------------------------
# Flow kernels

NON_INTEGRAL = COEFFICIENTS.filter(lambda c: c.denominator > 1)


@st.composite
def flow_orgraphs(draw, sinks=None, internal=None):
    """0-3 sinks, at most 4 internal vertices, one arrow into each sink;
    ``sinks`` and ``internal`` fix the counts instead.

    The sink arrows take random slots first; every other arrow goes to any
    internal vertex but its source, so cycles and repeated targets occur.
    """
    s = draw(st.sampled_from([0, 1, 2, 3])) if sinks is None else sinks
    # A lone internal vertex has nowhere to send an arrow that no sink takes,
    # so it needs exactly two sinks.
    n = draw(st.integers(1 if s == 2 else 2, 4)) if internal is None else internal
    slots = draw(st.permutations(range(2 * n)))
    targets = [[0, 0] for _ in range(n)]
    for sink, slot in enumerate(slots[:s]):
        targets[slot // 2][slot % 2] = sink
    for slot in slots[s:]:
        others = [s + k for k in range(n) if k != slot // 2]
        targets[slot // 2][slot % 2] = draw(st.sampled_from(others))
    return new_orgraph(targets, sink_count=s)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_edge_operator_matches_oracle(data):
    # One edge between two of two or three placed arguments: the packed edge
    # operator of ``_evaluate_ordered`` against the two-pass one.
    d = data.draw(st.integers(1, 3))
    copies = data.draw(st.integers(2, 3))
    args = [data.draw(multivectors(d, max_degree=3)) for _ in range(copies)]
    u, v = data.draw(st.permutations(range(1, copies + 1)))[:2]
    graph = new_graph(copies, [(u, v)])
    assert mv._evaluate_ordered(graph, args, d) == oracles.evaluate_ordered(graph, args, d)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_schouten_matches_oracle(data):
    d = data.draw(st.integers(1, 4))
    f, g = (data.draw(multivectors(d, max_degree=4)) for _ in range(2))
    assert mv.schouten(f, g) == oracles.schouten(f, g)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_product_matches_the_tuple_oracle(data):
    # Each factor is of one odd degree or mixed, so odd-by-odd products, whose
    # sign depends on the factors' order, are drawn often.
    d = data.draw(st.integers(1, 3))
    degrees = st.sampled_from([None] + [k for k in (1, 3) if k <= d])
    f, g = (data.draw(multivectors(d, data.draw(degrees), max_degree=3)) for _ in range(2))
    for a, b in ((f, g), (g, f), (f, Multivector(d)), (Multivector(d), g)):
        assert mv.multivector_product(a, b) == oracles.multivector_product(a, b)


def test_the_oracles_own_the_tuple_algebra():
    # The oracles check the kernel, so they must not borrow its product.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("gckit") for alias in node.names}
    algebra = {"multivector_product", "xi_derivative", "x_derivative"}
    assert not imported & algebra
    assert {getattr(oracles, name).__module__ for name in algebra} == {"oracles"}
    assert {"xi_derivative", "x_derivative"}.isdisjoint(dir(mv))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_algebraic_evaluator_matches_oracle_edge_operator(data):
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = new_graph(n, edges)
    # At most one argument may have odd components.
    even = [0, 2] if d > 1 else [0]
    args = [data.draw(multivectors(d))]
    args += [data.draw(multivectors(d, data.draw(st.sampled_from(even)))) for _ in range(n - 1)]
    fast = or_evaluate_algebraic(graph, args)
    with mock.patch.object(mv, "_evaluate_ordered", oracles.evaluate_ordered):
        assert fast == or_evaluate_algebraic(graph, args)


# 1, 2^k - 1 and 2^k: the largest exponent sets the field width, and the
# field is then full, or holds a single bit that lowering borrows from.
FIELD_EDGES = [1, 3, 4, 7, 8]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_evaluator_matches_the_tuple_evaluator(data):
    # Graphs with up to five vertices, their edges in random order.  Half of
    # the terms have xi-degree plus x-degree equal to their vertex's degree
    # or one less, on either side of the degree prune; the others have
    # exponents at the edges of a field width.  One argument is odd, with
    # non-integral coefficients.
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = new_graph(n, data.draw(st.permutations(list(itertools.compress(pairs, keep)))))
    odd_vertex = data.draw(st.integers(0, n - 1))
    args = []
    for k in range(n):
        parity = k == odd_vertex
        degree = sum(k + 1 in edge for edge in graph.edges)
        out = Multivector(d)
        for _ in range(data.draw(st.integers(1, 3))):
            q = data.draw(st.sampled_from([q for q in range(d + 1) if q % 2 == parity]))
            if data.draw(st.booleans()):
                total = max(degree - data.draw(st.integers(0, 1)) - q, 0)
                cuts = st.lists(st.integers(0, total), min_size=d - 1, max_size=d - 1)
                bounds = [0, *sorted(data.draw(cuts)), total]
                xexp = [b - a for a, b in zip(bounds, bounds[1:])]
            else:
                wide = st.lists(st.sampled_from([0, *FIELD_EDGES]), min_size=d, max_size=d)
                xexp = data.draw(wide)
            xis = data.draw(st.permutations(range(d)))[:q]
            out.add((xexp, xis), data.draw(NON_INTEGRAL if parity else st.integers(-3, 3)))
        args.append(out)
    assert mv._evaluate_ordered(graph, args, d) == oracles.tuple_evaluate_ordered(graph, args, d)


@pytest.mark.parametrize("exponent", [3, 7, 15, 31])
def test_the_diagonal_field_holds_a_coordinate_summed_over_copies(exponent):
    # Every term has x1^e, e = 2^k - 1, which fills a field of e's own bit
    # length; three copies meet at the diagonal, where x1's exponent, up to
    # 3e, needs more bits.  Both formulas against their oracles.
    terms = ["*xi1*xi2", "*x2*xi2*xi3", "*x3*xi1*xi3"]
    p = mv.parse_multivector(" + ".join(f"x1^{exponent}{t}" for t in terms), 3)
    q = mv.parse_multivector(f"x1^{exponent}*x2*xi1 + x1^{exponent}*x3*xi2 + x1^{exponent}*xi3", 3)
    path = new_graph(3, [(1, 2), (2, 3)])
    orgraph = new_orgraph([(0, 3), (1, 4), (2, 3)])
    components = oracles.bivector_components(p)
    for value, oracle in [
        (mv._evaluate_ordered(path, [q, p, p], 3),
         oracles.tuple_evaluate_ordered(path, [q, p, p], 3)),
        (mv.evaluate_orgraph(orgraph, p),
         oracles.recursive_evaluate_single_orgraph(orgraph, p, components, {})),
    ]:
        assert value == oracle
        top = max(max(xexp) for (xexp, _), _ in value.items())
        assert top.bit_length() > exponent.bit_length()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_direct_evaluator_matches_oracle(data):
    # A sum of two orgraphs, each with 0-3 sinks drawn on its own, pins the
    # 1/s! factor and the order of the sinks' E arguments: the kernel against
    # the vertex-by-vertex recursion, whose factor memo serves both orgraphs,
    # and against the index-tuple enumeration.  Two in three drawn orgraphs
    # are zero by symmetry, so the first is drawn nonzero, and with a nonzero
    # bivector whose exponents reach 3, 40-50% of the sums have a nonzero
    # value (10% with any orgraphs and bivectors, exponents up to 2).
    d = data.draw(st.sampled_from([2, 3]))
    p = data.draw(multivectors(d, 2, coefficients=NON_INTEGRAL, max_exponent=3).filter(bool))
    nonzero = flow_orgraphs().filter(lambda g: not normalize_orgraph(g).is_zero)
    source = OrgraphSum(
        [(data.draw(drawn), data.draw(COEFFICIENTS)) for drawn in (nonzero, flow_orgraphs())]
    )
    components = oracles.bivector_components(p)
    brute = Multivector(d)
    for g, coeff in source.items():
        brute._add_sum(oracles.evaluate_single_orgraph(g, p, components), coeff)
    assert mv.evaluate_orgraph(source, p) == oracles.evaluate_orgraph(source, p) == brute


@pytest.mark.parametrize(
    "targets", [[(3, 2), (3, 2), (1, 0), (0, 1)], [(1, 2), (2, 3), (3, 0), (0, 1)]]
)
def test_direct_evaluator_matches_oracle_without_sinks(cubic3, targets):
    # Random bivectors seldom give a sinkless orgraph a nonzero value, as its
    # vertices receive two arrows each on average; these are nonzero
    # functions on cubic3.
    g = new_orgraph(targets, sink_count=0)
    brute = oracles.evaluate_single_orgraph(g, cubic3, oracles.bivector_components(cubic3))
    assert mv.evaluate_orgraph(g, cubic3) == oracles.evaluate_orgraph(g, cubic3) == brute
    assert brute


@st.composite
def shared_prefix_sums(draw):
    """2-8 orgraphs with rational coefficients in runs that share arrow
    prefixes: consecutive terms of ``orient`` on a graph with 2-5 vertices
    and 1-3 sinks (2n - s random edges; no graph on at most six vertices
    orients to sinkless orgraphs), and an orgraph of ``flow_orgraphs``, 0-3
    sinks, with copies whose last vertex redraws its arrows into internal
    vertices.  So the internal and sink counts differ within a sum, which
    spans several groups of the sweep.
    """
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    s = draw(st.integers(max(1, 2 * n - len(pairs)), 3))
    flow = orient(new_graph(n, draw(st.permutations(pairs))[:2 * n - s])).items()
    start = draw(st.integers(0, max(len(flow) - 1, 0)))
    orgraphs = [g for g, _ in flow[start:start + draw(st.integers(0, 5))]]
    # Every sinkless orgraph with fewer than four internal vertices is zero.
    s = draw(st.integers(0, 3))
    base = draw(flow_orgraphs(sinks=s, internal=4 if s == 0 else None))
    n = base.internal_count
    orgraphs.append(base)
    for _ in range(draw(st.integers(1, 4))):
        targets = [list(pair) for pair in base.targets]
        for slot, t in enumerate(targets[-1]):
            if t >= s:
                targets[-1][slot] = draw(st.sampled_from([s + k for k in range(n - 1)]))
        orgraphs.append(new_orgraph(targets, sink_count=s))
    source = OrgraphSum([(g, draw(COEFFICIENTS.filter(bool))) for g in orgraphs[-8:]])
    assume(len(source) >= 2)
    return source


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_the_prefix_sweep_matches_each_orgraph_and_the_recursion(data):
    # The sweep of each group's arrow prefixes against one contraction per
    # orgraph and against the vertex-by-vertex recursion.
    d = data.draw(st.sampled_from([2, 3]))
    p = data.draw(multivectors(d, 2, coefficients=NON_INTEGRAL, max_exponent=3).filter(bool))
    source = data.draw(shared_prefix_sums())
    value = mv.evaluate_orgraph(source, p)
    assert value == oracles.evaluate_each_orgraph(source, p) == oracles.evaluate_orgraph(source, p)


def test_the_sweep_prunes_a_shared_copy_by_its_least_degree():
    # Both orgraphs are normalized and start with vertex 0's arrows to sink
    # 0 and vertex 1.  Vertex 2 receives one arrow in the first orgraph of
    # the sweep (its arrows sort first) and none in the second, so its copy
    # has degree 3 and 2; the second orgraph's value needs the bivector's
    # constant term, of degree 2, at that copy.
    p = mv.parse_multivector("xi1*xi2 + x1*x2*xi1*xi2", 2)
    first = new_orgraph([(0, 3), (2, 4), (1, 2)])
    second = new_orgraph([(0, 3), (1, 2), (2, 3)])
    source = OrgraphSum([(first, 1), (second, 1)])
    assert dict(source.items()) == {first: 1, second: 1}
    value = mv.evaluate_orgraph(source, p)
    assert value == mv.parse_multivector("xi1*xi2 + 2*x1*x2*xi1*xi2", 2)
    assert value == oracles.evaluate_each_orgraph(source, p) == oracles.evaluate_orgraph(source, p)


@given(data=st.data(), kind=st.sampled_from(["equal", "one odd", "two even"]))
@settings(max_examples=90, deadline=None)
def test_placement_average_matches_oracle(data, kind):
    # Nonzero arguments in three dimensions, a bivector repeated as in every
    # flow, the other argument odd or a function, and each vertex pair an
    # edge with even odds.  With fewer dimensions, zero arguments or sparse
    # graphs most draws compare 0 with 0, and a zero graph's orbits weighted
    # by their sizes went unnoticed.  Two argument classes get three or four
    # vertices, as every graph with an odd automorphism has three or more;
    # a second bivector is seldom nonzero on those zero graphs.
    n = data.draw(st.sampled_from(range(1 if kind == "equal" else 3, 5)))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = new_graph(n, data.draw(st.permutations(list(itertools.compress(pairs, keep)))))

    def argument(degree):
        return data.draw(multivectors(3, degree).filter(bool))

    a = argument(2)
    args = [a] * n
    if kind == "one odd":
        args[data.draw(st.integers(0, n - 1))] = argument(1)
    elif kind == "two even":
        b = argument(0)
        for i in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)):
            args[i] = b
    assert or_evaluate_algebraic(graph, args) == oracles.or_evaluate_algebraic(graph, args)


def test_the_odd_factor_exit_spares_a_value_at_degree_d(tetra, cubic3):
    # [[P, P]] has xi-degree 3 and P degree 2, so after K4's six edges every
    # term keeps 3 + 3 * 2 - 6 = d odd factors: nothing vanishes for degree.
    args = [mv.schouten(cubic3, cubic3)] + [cubic3] * 3
    value = or_evaluate_algebraic(tetra, args)
    assert len(value) == 12 and value.xi_degrees() == {3}
    assert value == oracles.or_evaluate_algebraic(tetra, args)


@pytest.mark.parametrize(
    "graph",
    [new_graph(6, []), new_graph(5, list(itertools.combinations(range(1, 5), 2)))],
    ids=["g 6 0", "tetra and a vertex"],
)
def test_too_many_odd_factors_give_zero_before_the_symmetry_search(so3, graph):
    # so3 is Poisson, so the linearisation's direction [[P, P]] is zero, and
    # the flows of the graph and of its differential leave more than d = 3 of
    # their bivectors' odd factors to every term.
    live, values = mv.or_evaluate_algebraic, []

    def recorded(g, args):
        values.append((g, args, live(g, args)))
        return values[-1][2]

    with mock.patch.object(
        mv, "or_evaluate_algebraic", side_effect=recorded
    ), mock.patch("gckit.graphs.automorphisms", wraps=automorphisms) as search:
        assert mv.verify_corollary(graph, so3)
    assert search.call_count == 0
    assert len(values) > 2
    for g, args, value in values:
        assert value == oracles.or_evaluate_algebraic(g, args)


@pytest.mark.parametrize("kind", ["one odd", "two even"])
@pytest.mark.parametrize("name", ["tetra", "wheel5", "path3"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_orbit_average_matches_oracle_on_the_corpus(request, name, kind, data):
    # Nontrivial groups: K4 is vertex-transitive, the wheel has hub and rim,
    # and path3 has an odd automorphism, so it is zero.  Its single
    # placements, which the zero return skips, are often nonzero in three
    # dimensions and seldom in two.  The wheel's oracle takes seconds with
    # two-term arguments, so it gets one term.
    graph = request.getfixturevalue(name)
    n = graph.vertex_count
    d = 3 if name == "path3" else 2

    def argument(degree):
        terms = 1 if name == "wheel5" else 2
        return data.draw(multivectors(d, degree, max_terms=terms).filter(bool))

    a = argument(data.draw(st.sampled_from([0, 2])))
    args = [a] * n
    if kind == "one odd":
        args[data.draw(st.integers(0, n - 1))] = argument(1)
    else:
        b = argument(data.draw(st.sampled_from([0, 2])))
        assume(a != b)
        for i in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)):
            args[i] = b
    assert or_evaluate_algebraic(graph, args) == oracles.or_evaluate_algebraic(graph, args)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_tensor_product_placement_matches_oracle(data):
    n = data.draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = new_graph(n, edges)
    d = data.draw(st.integers(1, 3))
    even = [0, 2] if d > 1 else [0]
    args = [
        data.draw(multivectors(d, data.draw(st.sampled_from(even))).filter(bool))
        for _ in range(n)
    ]
    # One odd argument, with non-integral coefficients, at a random vertex.
    odd = data.draw(st.sampled_from([k for k in (1, 3) if k <= d]))
    vertices = data.draw(st.permutations(range(n)))
    args[vertices[0]] = data.draw(multivectors(d, odd, NON_INTEGRAL).filter(bool))
    assert mv._evaluate_ordered(graph, args, d) == oracles.evaluate_ordered(graph, args, d)
    if n > 1:
        args[vertices[1]] = Multivector(d)
        zero = oracles.evaluate_ordered(graph, args, d)
        assert mv._evaluate_ordered(graph, args, d) == zero == Multivector(d)


# ---------------------------------------------------------------------------
# Witness moves and the sink-swap fold

ROOT = Path(__file__).resolve().parent.parent
MOVE_GRAPHS = {
    path.stem: parse_graph(path.read_text(encoding="utf-8"))
    for path in [
        *sorted((ROOT / "tests" / "golden" / "rules-check" / "inputs").glob("*.g")),
        *sorted((ROOT / "data").glob("*.g")),
        ROOT / "perfbench" / "inputs" / "wheel7.g",
    ]
}
TWO_SINK_GRAPHS = sorted(
    name for name, g in MOVE_GRAPHS.items() if 2 * g.vertex_count - g.edge_count == 2
)


@pytest.mark.parametrize("name", sorted(MOVE_GRAPHS))
def test_elementary_moves_match_oracle(name):
    # Same targets, signs and order, for every witness of the graph.
    for w in enumerate_orientations(MOVE_GRAPHS[name]):
        assert list(elementary_moves(w)) == list(oracles.elementary_moves(w))


def _folded(fold, s: OrgraphSum):
    """The fold's terms in print order, or its ``SkewSymmetryError`` message."""
    try:
        return list(fold(s).items())
    except SkewSymmetryError as exc:
        return str(exc)


@pytest.mark.parametrize("name", TWO_SINK_GRAPHS)
def test_fold_matches_oracle(name):
    s = orient(MOVE_GRAPHS[name])
    assert _folded(fold_sink_swap, s) == _folded(oracles.fold_sink_swap, s)


FOLD_SOURCES = {name: orient(MOVE_GRAPHS[name]) for name in ("tetra", "wheel5")}


@given(
    data=st.data(),
    source=st.sampled_from(sorted(FOLD_SOURCES)),
    change=st.sampled_from(["drop", "scale", "negate"]),
)
@settings(max_examples=120, deadline=None)
def test_perturbed_fold_matches_oracle(data, source, change):
    terms = FOLD_SOURCES[source].items()
    k = data.draw(st.integers(0, len(terms) - 1))
    if change == "scale":
        factor = data.draw(COEFFICIENTS.filter(lambda c: c not in (0, 1)))
    else:
        factor = 0 if change == "drop" else -1
    s = OrgraphSum()
    for i, (key, q) in enumerate(terms):
        s.add(key, q * factor if i == k else q)
    assert _folded(fold_sink_swap, s) == _folded(oracles.fold_sink_swap, s)


# ---------------------------------------------------------------------------
# Witness enumeration


@st.composite
def few_sink_graphs(draw, max_vertices=6, max_sinks=4):
    """Graphs with at most ``max_sinks`` sinks to fill, edges in random order
    and direction, so mask prefixes die at every edge position."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = draw(st.permutations(list(itertools.combinations(range(1, n + 1), 2))))
    low = min(len(pairs), max(0, 2 * n - max_sinks))
    e = draw(st.integers(min_value=low, max_value=len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=e, max_size=e))
    return new_graph(n, [(v, u) if f else (u, v) for (u, v), f in zip(pairs[:e], flips)])


@given(g=few_sink_graphs())
@settings(max_examples=200, deadline=None)
def test_enumerate_orientations_matches_oracle(g):
    """The scan that skips dead mask prefixes finds the mask loop's
    witnesses, in the same order, which is ``sort_key`` order."""
    witnesses = enumerate_orientations(g)
    assert witnesses == oracles.enumerate_orientations(g)
    assert witnesses == sorted(witnesses, key=OrientationWitness.sort_key)


@given(g=few_sink_graphs())
@settings(max_examples=100, deadline=None)
def test_elementary_moves_match_the_item_trade(g):
    """The trade that reads each companion id from the readout pair finds the
    targets and signs of the one that read it from ``items``, in order."""
    for w in enumerate_orientations(g):
        assert list(elementary_moves(w)) == list(oracles.item_elementary_moves(w))


# ---------------------------------------------------------------------------
# The orientation morphism


@given(g=few_sink_graphs())
@example(g=new_graph(6, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]))
@example(g=new_graph(5, [(4, 3), (1, 2), (3, 1), (2, 4), (4, 1), (3, 2)]))
@example(g=new_graph(4, [(3, 2), (2, 1)]))
@example(g=new_graph(4, [(2, 1)]))
@settings(max_examples=40, deadline=None)
def test_orient_matches_the_all_witness_oracle(g):
    """One normalized witness per automorphism orbit, weighted by the
    orbit's size, gives every witness's sum, zero graphs included.  The
    examples: K5 and an isolated vertex (zero), K4 and an isolated vertex,
    the path on three vertices and an isolated one (zero), and an edge and
    two isolated vertices, whose orbits are of size 1, 2 and 4."""
    assert format_orgraph_sum(orient(g)) == format_orgraph_sum(oracles.orient(g))


@pytest.mark.parametrize("name", sorted(MOVE_GRAPHS))
def test_orient_matches_the_all_witness_oracle_on_the_corpus(name):
    g = MOVE_GRAPHS[name]
    assert format_orgraph_sum(orient(g)) == format_orgraph_sum(oracles.orient(g))


# ---------------------------------------------------------------------------
# Value classes


def _pairs(top):
    return st.lists(st.tuples(st.integers(0, top), st.integers(0, top)), max_size=3).map(tuple)


# Small domains, so that two draws are often equal in some field.
_GRAPHS = st.builds(UnorientedGraph, st.integers(1, 3), _pairs(3))
_SIGNS = st.sampled_from([1, -1])
VALUE_CLASSES = {
    UnorientedGraph: (
        oracles.DataclassUnorientedGraph,
        {"vertex_count": st.integers(1, 3), "edges": _pairs(3)},
    ),
    SignedCanonicalGraph: (
        oracles.DataclassSignedCanonicalGraph,
        {"canonical": _GRAPHS, "sign": _SIGNS, "is_zero": st.booleans()},
    ),
    Orgraph: (
        oracles.DataclassOrgraph,
        {"sink_count": st.integers(0, 2), "targets": _pairs(4)},
    ),
    NormalizedOrgraph: (
        oracles.DataclassNormalizedOrgraph,
        {
            "orgraph": st.builds(Orgraph, st.integers(0, 2), _pairs(4)),
            "sign": _SIGNS,
            "is_zero": st.booleans(),
            "order": st.permutations(range(2)).map(tuple),
        },
    ),
    OrientationWitness: (
        oracles.DataclassOrientationWitness,
        {
            "graph": _GRAPHS,
            "sink_count": st.integers(0, 2),
            "mask": st.integers(0, 3),
            "sinks": st.lists(st.sampled_from([(), (0,), (0, 1)]), max_size=2).map(tuple),
        },
    ),
    RulesReport: (
        oracles.DataclassRulesReport,
        {
            "lines": st.lists(st.sampled_from(["a", "b: OK"]), max_size=2),
            "mismatches": st.lists(st.sampled_from(["c", "d'"]), max_size=2),
        },
    ),
}


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_value_class_matches_its_dataclass_twin(cls, data):
    """Built from the same fields, by position and by keyword, a value and
    its twin print the same ``repr`` and hash alike, and a field change
    breaks equality in both or in neither.  Neither compares equal to the
    other class, and only the report can be assigned to."""
    twin, strategies = VALUE_CLASSES[cls]
    fields = data.draw(st.fixed_dictionaries(strategies))
    others = data.draw(st.fixed_dictionaries(strategies))
    args = [fields[name] for name in strategies]
    frozen = twin.__hash__ is not None
    for value, ref in ((cls(*args), twin(*args)), (cls(**fields), twin(**fields))):
        assert repr(value) == repr(ref)
        assert value == cls(**fields) and not value != cls(**fields)
        assert value.__eq__(ref) is NotImplemented and ref.__eq__(value) is NotImplemented
        assert value != ref
        for name in fields:
            changed = {**fields, name: others[name]}
            assert (value == cls(**changed)) == (ref == twin(**changed))
        if frozen:
            assert hash(value) == hash(ref) == hash(cls(**fields))
            for name in [*fields, "other"]:
                with pytest.raises(AttributeError):
                    setattr(value, name, others.get(name))
                with pytest.raises(AttributeError):
                    delattr(value, name)
        else:
            with pytest.raises(TypeError):
                hash(value)
            value.lines = others["lines"]
            assert value.lines is others["lines"]


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_value_class_copies_like_its_dataclass_twin(cls, data):
    """``copy.copy`` and ``copy.deepcopy`` give an equal value, with an equal
    hash for the frozen ones, as they do for the twin; so does a pickle
    round trip, which the twins, named after the gckit classes, cannot
    take."""
    twin, strategies = VALUE_CLASSES[cls]
    fields = data.draw(st.fixed_dictionaries(strategies))
    value, ref = cls(**fields), twin(**fields)
    pickled = pickle.loads(pickle.dumps(value))
    for original, copies in ((value, [copy.copy(value), copy.deepcopy(value), pickled]),
                             (ref, [copy.copy(ref), copy.deepcopy(ref)])):
        for duplicate in copies:
            assert type(duplicate) is type(original) and duplicate == original
            if twin.__hash__ is not None:
                assert hash(duplicate) == hash(original)


def test_a_new_report_starts_with_its_own_empty_lists():
    first, second = RulesReport(), RulesReport()
    assert repr(first) == repr(oracles.DataclassRulesReport())
    assert first.lines == first.mismatches == []
    assert first.lines is not second.lines and first.mismatches is not first.lines
