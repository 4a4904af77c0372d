"""The fast paths against the brute-force code they replaced.

``oracles`` keeps the exhaustive canonicalizer, automorphism search and
orgraph normalizer; hypothesis compares them with the library on random
graphs (isolated vertices and disconnected graphs included) and random
orgraphs (repeated targets included).  It also keeps the subset loop that
built the kernel basis, compared exhaustively with the edge-by-edge
generation on small bidegrees, and the two-pass edge operator and the direct
evaluator that enumerates every index tuple, which are compared with the
one-pass edge operator and the vertex-by-vertex evaluator on random
multivectors, graphs, orgraphs and bivectors, the placement loop over
all ``n!`` permutations, compared with the average over distinct
arrangements on graphs with at most four vertices, and the placement by
repeated products, compared with the one tensor product on the same graphs.
The two-loop elementary moves are compared, order included, with the one
trade on every witness of the rules-check corpus, and the fold that could
keep either member of a Pi pair with the fold that keeps the first, on the
two-sink graphs there and on randomly perturbed orientations.
"""

from __future__ import annotations

import itertools
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
    SkewSymmetryError,
    elementary_moves,
    enumerate_orientations,
    fold_sink_swap,
)
from test_multivectors import COEFFICIENTS, multivectors


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = []
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return new_graph(n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)])


@st.composite
def orgraphs(draw):
    s = draw(st.sampled_from([0, 1, 2, 3]))
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
    n = data.draw(st.integers(2 if kind == "two even" else 1, 4))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = new_graph(n, edges)
    d = data.draw(st.integers(1, 2))
    even = [0, 2] if d > 1 else [0]
    a = data.draw(multivectors(d, data.draw(st.sampled_from(even))))
    args = [a] * n
    if kind == "one odd":
        args[data.draw(st.integers(0, n - 1))] = data.draw(multivectors(d, 1))
    elif kind == "two even":
        b = data.draw(multivectors(d, data.draw(st.sampled_from(even))))
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
        s.add_orgraph(key, q * factor if i == k else q)
    assert _folded(fold_sink_swap, s) == _folded(oracles.fold_sink_swap, s)
