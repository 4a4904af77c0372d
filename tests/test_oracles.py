"""The fast paths against the brute-force code they replaced.

``oracles`` keeps the exhaustive canonicalizer, automorphism search and
orgraph normalizer; hypothesis compares them with the library on random
graphs (isolated vertices and disconnected graphs included) and random
orgraphs (repeated targets included).  The differential that builds only
the splits that do not cancel is compared with the whole bracket with the
single edge on every class with at most five vertices, on random graphs
with at most six, and on random sums with rational coefficients, and the
insertion that relabels edges through one helper with the one that
relabeled them in a loop per attachment, on random small pairs.  It also
keeps the subset loop that built the kernel basis, compared exhaustively with the edge-by-edge
generation on small bidegrees; the level-set class generation, whose
classes are compared with the orderly generation's on every bidegree with at
most six vertices; the dense nullspace, compared with the sparse elimination
on random small matrices with zero rows, zero columns and dependent columns;
and the two-pass edge operator and the direct
evaluator that enumerates every index tuple, which are compared with the
one-pass edge operator and the vertex-by-vertex evaluator on random
multivectors, graphs, orgraphs and bivectors, the placement loop over
all ``n!`` permutations, compared with the evaluation of one arrangement
per automorphism orbit on graphs with at most four vertices and on the
corpus graphs K4, the pentagon wheel and the zero path, and the placement by
repeated products, compared with the one tensor product on the same graphs.
The per-coordinate Schouten bracket is compared with the single edge's
operator on random multivectors with at most four coordinates: odd and
even, inhomogeneous and zero ones.
The two-loop elementary moves are compared, order included, with the one
trade on every witness of the rules-check corpus, and the fold that could
keep either member of a Pi pair with the fold that keeps the first, on the
two-sink graphs there and on randomly perturbed orientations.
The six value classes are compared with their dataclass twins on random
fields: construction by position and by keyword, ``repr``, ``==``, ``hash``
and, for the five frozen ones, that a field cannot be assigned or deleted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
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
from gckit.orient import (
    OrgraphSum,
    OrientationWitness,
    SkewSymmetryError,
    elementary_moves,
    enumerate_orientations,
    fold_sink_swap,
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
def flow_orgraphs(draw):
    """1-2 sinks, at most 4 internal vertices, one arrow into each sink.

    The sink arrows take random slots first; every other arrow goes to any
    internal vertex but its source, so cycles and repeated targets occur.
    """
    s = draw(st.sampled_from([1, 2]))
    # A lone internal vertex has nowhere to send an arrow that no sink takes.
    n = draw(st.integers(3 - s, 4))
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
    d = data.draw(st.integers(1, 3))
    copies = data.draw(st.integers(2, 3))
    big = data.draw(multivectors(copies * d, max_degree=3))
    u, v = data.draw(st.permutations(range(copies)))[:2]
    assert mv._edge_operator(big, u, v, d) == oracles.edge_operator(big, u, v, d)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_schouten_matches_oracle(data):
    d = data.draw(st.integers(1, 4))
    f, g = (data.draw(multivectors(d, max_degree=4)) for _ in range(2))
    assert mv.schouten(f, g) == oracles.schouten(f, g)


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
    with mock.patch.object(mv, "_edge_operator", oracles.edge_operator):
        assert fast == or_evaluate_algebraic(graph, args)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_direct_evaluator_matches_oracle(data):
    d = data.draw(st.sampled_from([2, 3]))
    p = data.draw(multivectors(d, 2, coefficients=NON_INTEGRAL))
    components = mv._bivector_components(p)
    # One factor memo serves both orgraphs, as in an orgraph sum.
    factors = {}
    for g in (data.draw(flow_orgraphs()), data.draw(flow_orgraphs())):
        assert mv._evaluate_single_orgraph(g, p, components, factors) == (
            oracles.evaluate_single_orgraph(g, p, components)
        )


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


def test_a_new_report_starts_with_its_own_empty_lists():
    first, second = RulesReport(), RulesReport()
    assert repr(first) == repr(oracles.DataclassRulesReport())
    assert first.lines == first.mismatches == []
    assert first.lines is not second.lines and first.mismatches is not first.lines
