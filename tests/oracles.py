"""Brute-force reference implementations that the fast paths replaced.

The canonical-labeling searches are the exhaustive ones that ``gckit`` used
before the individualize-and-refine search of
``gckit.graphs._minimal_labelings``: each tries every relabeling of the form
it allows and keeps the lexicographically least encoding with the set of
parities that reach it.  They are kept unchanged, apart from caching.
``minimal_labelings`` is that search as it was before it fixed the labels
in one pass once every cell holds one vertex, recursing once per label and
rebuilding every cell at each step; it is kept unchanged from
``gckit.graphs._minimal_labelings`` apart from its name.

The kernel basis is the loop that canonicalized one graph per connected
subset of ``edge_count`` vertex pairs, kept unchanged from
``gckit.complexes.cocycle_kernel`` apart from returning the basis.  The
class generation that followed it, which built each level as the set of
canonical forms of every extension of the level before, and the dense
Gauss-Jordan nullspace on a row-major ``Fraction`` matrix are kept
unchanged from ``gckit.complexes`` apart from their names and the name
under which the generation imports ``canonicalize``.  The differential is
the whole bracket with the single edge, every split and leaf term built,
through the insertion that relabeled each edge in one loop per attachment;
all three are kept unchanged from ``gckit.complexes``.

The flow kernels are the two-pass edge operator, the direct evaluator
that enumerates every tuple of index pairs before it prunes, the algebraic
evaluator's placement loop over all ``n!`` permutations, and its placement
of the arguments by one ``multivector_product`` per vertex followed by a
range-checked restriction to the diagonal, all kept unchanged from
``gckit.multivectors`` apart from that placement now applying the two-pass
edge operator.  So is the Schouten bracket that summed derivative products
coordinate by coordinate, before it became the single edge's operator.  The
tuple evaluator is the algebraic evaluator that the packed-integer one
replaced: a tensor product of the placed terms with ``(exponent tuple, odd
index tuple)`` keys, the one-pass edge operator that slices those tuples,
and the restriction to the diagonal, kept unchanged from
``gckit.multivectors`` apart from their names and the ``itertools`` names.
The recursive evaluator is the direct evaluator that contracted an orgraph
vertex by vertex, with its table of bivector components and its factor
memo, before ``gckit`` evaluated an orgraph's arrows as operators on the
algebraic evaluator's kernel; it is kept unchanged from
``gckit.multivectors`` apart from the names of the recursion and of the
component table.  With the brute-force direct evaluator it is what the
orgraph formula is checked against, now that both formulas share a kernel.

The witness moves are the two-loop ``elementary_moves``, which rebuilds the
sink lists and the target witness once per kind of move, the one-trade
``item_elementary_moves`` that followed it, which read each companion id
from the vertex's ``items`` through a generator before the trade read it
from the readout, and the ``fold_sink_swap`` that compared each Pi pair's
sort keys and could add the partner in place of the term, all three kept
unchanged from ``gckit.orient`` apart from the trade's name and the name
under which the fold imports ``normalize_orgraph``.
The witness enumeration is the loop that tested every edge mask from the
first edge on, kept unchanged from ``gckit.orient`` apart from importing
``factorial`` and ``prod`` through ``math``.  The orientation morphism is
the ``orient`` that normalized every witness's orgraph, before it
normalized one witness per automorphism orbit, kept unchanged from
``gckit.orient``; it enumerates through the mask loop above.

The six value classes are kept as the dataclasses they were declared as,
with their fields and their own ``repr`` methods; the methods that only
read the fields are left out.  Each sets ``__qualname__`` to the name of the
gckit class it twins, since the generated ``repr`` prints that name.

The tests compare the fast code with these on random inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from typing import Callable, Iterator, Mapping, Sequence, Union

from gckit.graphs import (
    _MAX_SEARCH_VERTICES,
    Edge,
    GraphError,
    SignedCanonicalGraph,
    UnorientedGraph,
    edge_permutation_sign,
    is_connected,
)
from gckit.complexes import EDGE_GRAPH, GraphSum, Rational
from gckit.graphs import canonicalize as fast_canonicalize
from gckit.multivectors import (
    Multivector,
    MultivectorError,
    _evaluate_ordered,
    _is_odd_argument,
    _normal_order,
    is_bivector,
    multivector_product,
    x_derivative,
    xi_derivative,
)
from gckit.orient import (
    _MAX_WITNESSES,
    NormalizedOrgraph,
    Orgraph,
    OrgraphError,
    OrgraphSum,
    OrientationWitness,
    SkewSymmetryError,
    _arrows_into,
    _directed,
    _label_distributions,
    encode_compact,
    normalize_orgraph as fast_normalize_orgraph,
    orientation_sign,
    shape,
    sink_swap,
)


def _relative_sign(src: Sequence, dst: Sequence) -> int:
    """Parity sign of the rearrangement taking ``src`` to ``dst``."""
    index = {item: i for i, item in enumerate(dst)}
    return edge_permutation_sign([index[item] for item in src])


def canonical_core(
    vertex_count: int, ref_edges: tuple[Edge, ...]
) -> tuple[tuple[Edge, ...], int, bool]:
    """Canonicalize the sorted presentation ``ref_edges``.

    In a lexicographically minimal sorted edge list the vertex labeled 1 must
    have maximal degree and its neighbours must receive labels
    ``2..deg+1`` (otherwise some prefix entry could be lowered), so only
    relabelings of that form are enumerated.
    """
    n = vertex_count
    if not ref_edges:
        return ref_edges, 1, False
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in ref_edges:
        adj[u].add(v)
        adj[v].add(u)
    degs = [len(adj[v]) for v in range(n + 1)]
    dmax = max(degs[1:])

    best_enc: list[Edge] | None = None
    best_signs: set[int] = set()
    for center in range(1, n + 1):
        if degs[center] != dmax:
            continue
        nbrs = sorted(adj[center])
        rest = [v for v in range(1, n + 1) if v != center and v not in adj[center]]
        base = 2 + len(nbrs)
        for nperm in permutations(nbrs):
            for rperm in permutations(rest):
                label = [0] * (n + 1)
                label[center] = 1
                for i, v in enumerate(nperm):
                    label[v] = 2 + i
                for i, v in enumerate(rperm):
                    label[v] = base + i
                relabeled = []
                for u, v in ref_edges:
                    a, b = label[u], label[v]
                    relabeled.append((a, b) if a < b else (b, a))
                enc = sorted(relabeled)
                if best_enc is None or enc < best_enc:
                    best_enc = enc
                    best_signs = {_relative_sign(relabeled, enc)}
                elif enc == best_enc:
                    best_signs.add(_relative_sign(relabeled, enc))
    assert best_enc is not None
    is_zero = len(best_signs) == 2
    sign = 1 if is_zero else best_signs.pop()
    return tuple(best_enc), sign, is_zero


def canonicalize(g: UnorientedGraph) -> SignedCanonicalGraph:
    """Canonical relabeling of ``g`` with the edge-permutation parity sign."""
    ref = tuple(sorted(g.edges))
    enc, core_sign, is_zero = canonical_core(g.vertex_count, ref)
    sign = 1 if is_zero else core_sign * _relative_sign(g.edges, ref)
    return SignedCanonicalGraph(UnorientedGraph(g.vertex_count, enc), sign, is_zero)


def automorphisms(g: UnorientedGraph) -> list[tuple[tuple[int, ...], int]]:
    """All vertex permutations preserving the edge set, with induced edge parity."""
    n = g.vertex_count
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    degs = [len(adj[v]) for v in range(n + 1)]
    edge_index = {e: i for i, e in enumerate(g.edges)}

    result: list[tuple[tuple[int, ...], int]] = []
    image = [0] * (n + 1)
    used = [False] * (n + 1)

    def extend(v: int) -> None:
        if v > n:
            perm = []
            for a, b in g.edges:
                ia, ib = image[a], image[b]
                perm.append(edge_index[(ia, ib) if ia < ib else (ib, ia)])
            result.append((tuple(image[1:]), edge_permutation_sign(perm)))
            return
        for w in range(1, n + 1):
            if used[w] or degs[w] != degs[v]:
                continue
            if any((u in adj[v]) != (image[u] in adj[w]) for u in range(1, v)):
                continue
            used[w] = True
            image[v] = w
            extend(v + 1)
            used[w] = False
        image[v] = 0

    extend(1)
    return result


def normalize_orgraph(g: Orgraph) -> NormalizedOrgraph:
    """Minimal encoding over all internal relabelings, with pair-swap parity sign."""
    s, n = g.sink_count, g.internal_count

    if any(a == b for a, b in g.targets):
        sorted_pairs = tuple(
            (a, b) if a <= b else (b, a) for a, b in sorted(g.targets)
        )
        return NormalizedOrgraph(Orgraph(s, sorted_pairs), 1, True, tuple(range(n)))

    best_flat: tuple[int, ...] | None = None
    best_pairs: tuple[tuple[int, int], ...] = ()
    best_signs: set[int] = set()
    best_order: tuple[int, ...] = ()
    for label_of in permutations(range(n)):
        new_pairs: list[tuple[int, int]] = [(0, 0)] * n
        swaps = 0
        for i, (a, b) in enumerate(g.targets):
            na = a if a < s else s + label_of[a - s]
            nb = b if b < s else s + label_of[b - s]
            if na > nb:
                na, nb = nb, na
                swaps += 1
            new_pairs[label_of[i]] = (na, nb)
        flat = tuple(t for pair in new_pairs for t in pair)
        if best_flat is None or flat < best_flat:
            best_flat = flat
            best_pairs = tuple(new_pairs)
            best_signs = {-1 if swaps % 2 else 1}
            inverse = [0] * n
            for i, lab in enumerate(label_of):
                inverse[lab] = i
            best_order = tuple(inverse)
        elif flat == best_flat:
            best_signs.add(-1 if swaps % 2 else 1)
    is_zero = len(best_signs) == 2
    sign = 1 if is_zero else best_signs.pop()
    return NormalizedOrgraph(Orgraph(s, best_pairs), sign, is_zero, best_order)


def minimal_labelings(
    neighbours: dict[int, set[int]], row: Callable[[int, dict[int, int]], tuple]
) -> list[dict[int, int]]:
    """Every labeling of the keys of ``neighbours`` by 0, 1, ... with least rows.

    ``labeling[v]`` is the label of ``v``.  ``row(v, labeling)`` reads only
    the labels of ``v`` and its ``neighbours``, and must not fall when a
    neighbour labeled after ``v`` takes a larger label.  Past
    ``_MAX_SEARCH_VERTICES`` keys it raises :class:`GraphError` at once.
    """
    if len(neighbours) > _MAX_SEARCH_VERTICES:
        raise GraphError(f"labeling search above the maximum {_MAX_SEARCH_VERTICES} vertices")
    label = dict.fromkeys(neighbours, 0)
    best: list[tuple] = []
    found: list[dict[int, int]] = []

    def search(cells: list[list[int]], depth: int) -> None:
        if not cells:
            found.append(label.copy())
            return
        branches = []
        for v in cells[0]:
            refined = []
            for cell in ([u for u in cells[0] if u != v], *cells[1:]):
                inner = [u for u in cell if u in neighbours[v]]
                outer = [u for u in cell if u not in neighbours[v]]
                refined.extend(part for part in (inner, outer) if part)
            for lab, u in enumerate(chain([v], *refined), depth):
                label[u] = lab
            branches.append((row(v, label), v, refined))
        least = min(r for r, _, _ in branches)
        if depth == len(best) or least < best[depth]:
            del best[depth:]
            best.append(least)
            found.clear()
        elif least > best[depth]:
            return
        for r, v, refined in branches:
            if r == least:
                label[v] = depth
                search(refined, depth + 1)

    search([list(neighbours)] if neighbours else [], 0)
    return found


def insert(g1: UnorientedGraph, g2: UnorientedGraph) -> GraphSum:
    """Sum over all ways of grafting ``g1`` into a vertex of ``g2``.

    For each vertex ``v`` of ``g2``, ``v`` is replaced by a copy of ``g1``
    (on labels ``1..n1``; the remaining vertices of ``g2`` keep their order
    on labels ``n1+1..``) and every edge end that was attached to ``v`` is
    reattached to a vertex of ``g1``, in all ``n1**deg(v)`` ways.  The edge
    order of each resulting graph is the edges of ``g1`` followed by the
    edges of ``g2``, reattached edges keeping their positions.
    """
    n1, n2 = g1.vertex_count, g2.vertex_count
    result = GraphSum()
    for v in range(1, n2 + 1):
        others = [w for w in range(1, n2 + 1) if w != v]
        label2 = {w: n1 + i + 1 for i, w in enumerate(others)}
        degree = sum(1 for a, b in g2.edges if v in (a, b))
        for attach in product(range(1, n1 + 1), repeat=degree):
            slot = 0
            tail: list[tuple[int, int]] = []
            for a, b in g2.edges:
                if a == v:
                    e = (attach[slot], label2[b])
                    slot += 1
                elif b == v:
                    e = (label2[a], attach[slot])
                    slot += 1
                else:
                    e = (label2[a], label2[b])
                tail.append((e[0], e[1]) if e[0] < e[1] else (e[1], e[0]))
            edges = list(g1.edges) + tail
            if len(set(edges)) != len(edges):
                continue
            result.add(UnorientedGraph(n1 + n2 - 1, tuple(edges)), 1)
    return result


def bracket(
    x: Union[UnorientedGraph, GraphSum], y: Union[UnorientedGraph, GraphSum]
) -> GraphSum:
    """Graded commutator of insertions, extended bilinearly.

    On individual graphs this is ``insert(x, y) - (-1)**(e_x * e_y)
    insert(y, x)`` where ``e`` counts edges.
    """
    total = GraphSum()
    for g1, c1 in GraphSum.of(x).items():
        for g2, c2 in GraphSum.of(y).items():
            c = c1 * c2
            sign = -1 if (g1.edge_count * g2.edge_count) % 2 else 1
            total._add_sum(insert(g1, g2), c)
            total._add_sum(insert(g2, g1), -sign * c)
    return total


def differential(x: Union[UnorientedGraph, GraphSum]) -> GraphSum:
    """Vertex-expansion differential: the bracket with the single edge."""
    return bracket(EDGE_GRAPH, x)


def kernel_basis(vertex_count: int, edge_count: int) -> list[UnorientedGraph]:
    """Connected nonzero canonical graphs of a bidegree, one subset at a time."""
    pairs = list(combinations(range(1, vertex_count + 1), 2))
    if edge_count > len(pairs) or edge_count < 0:
        return []
    basis: list[UnorientedGraph] = []
    seen: set[UnorientedGraph] = set()
    for combo in combinations(pairs, edge_count):
        g = UnorientedGraph(vertex_count, combo)
        if not is_connected(g):
            continue
        sc = fast_canonicalize(g)
        if sc.is_zero or sc.canonical in seen:
            continue
        seen.add(sc.canonical)
        basis.append(sc.canonical)
    basis.sort(key=lambda g: g.sort_key())
    return basis


def nullspace(rows: list[list[Rational]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of a rational matrix (Gauss-Jordan).

    The entries are converted to ``Fraction`` first, so that the division by
    a pivot stays exact for ``int`` input.
    """
    matrix = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next(
            (i for i in range(rank, len(matrix)) if matrix[i][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col]
        matrix[rank] = [x / inv for x in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col] != 0:
                f = matrix[i][col]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(matrix):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -matrix[ri][fc]
        basis.append(vec)
    return basis


def edge_classes(vertex_count: int, edge_count: int) -> set[tuple[Edge, ...]]:
    """One edge tuple per isomorphism class of graphs of the given bidegree.

    The classes are generated edge by edge from the empty graph: the next
    level is the set of canonical edge tuples of every graph of the previous
    level plus one of its non-edges.  Zero and disconnected graphs stay in
    the levels, because an added edge can make them nonzero or connected.
    Past half of the ``C(n, 2)`` vertex pairs, the classes with the
    complementary edge count are generated instead and each is replaced by
    its complement, since complementing is a bijection on isomorphism
    classes; those complements are not canonical.
    """
    pairs = list(combinations(range(1, vertex_count + 1), 2))
    if not 0 <= edge_count <= len(pairs):
        return set()
    size = min(edge_count, len(pairs) - edge_count)
    level: set[tuple[Edge, ...]] = {()}
    for _ in range(size):
        level = {
            fast_canonicalize(UnorientedGraph(vertex_count, edges + (e,))).canonical.edges
            for edges in level
            for e in pairs
            if e not in edges
        }
    if size < edge_count:
        level = {tuple(e for e in pairs if e not in edges) for edges in level}
    return level


def schouten(f: Multivector, g: Multivector) -> Multivector:
    """The Schouten bracket [[f, g]], extended bilinearly over components.

    On homogeneous f of odd degree |f| it is
    ``(-1)^(|f|-1) d/dxi(f)·d/dx(g) - d/dx(f)·d/dxi(g)`` summed over
    coordinates, shifted-graded antisymmetric in its arguments.
    """
    if f.dimension != g.dimension:
        raise MultivectorError("dimension mismatch")
    out = Multivector(f.dimension)
    for degree, part in f.components():
        lead = -1 if (degree - 1) % 2 else 1
        for alpha in range(f.dimension):
            dxi, dx = xi_derivative(part, alpha), x_derivative(part, alpha)
            out._add_sum(multivector_product(dxi, x_derivative(g, alpha)), lead)
            out._add_sum(multivector_product(dx, xi_derivative(g, alpha)), -1)
    return out


def edge_operator(big: Multivector, u: int, v: int, d: int) -> Multivector:
    """Apply one edge operator coupling vertex copies u and v (0-based)."""
    out = Multivector(big.dimension)
    for alpha in range(d):
        for tail, head in ((u, v), (v, u)):
            part = x_derivative(xi_derivative(big, tail * d + alpha), head * d + alpha)
            for key, coeff in part._terms.items():
                out._add(key, coeff)
    return out


def evaluate_single_orgraph(
    g: Orgraph, p: Multivector, components
) -> Multivector:
    d = p.dimension
    s = g.sink_count
    n = g.internal_count
    pairs = list(components)
    out = Multivector(d)
    one = Multivector.of(((0,) * d, ()))

    def recurse(vertex: int, chosen: list[tuple[int, int]]) -> None:
        if vertex == n:
            finish(chosen)
            return
        for pair in pairs:
            chosen.append(pair)
            recurse(vertex + 1, chosen)
            chosen.pop()

    def finish(chosen: list[tuple[int, int]]) -> None:
        # index carried by each arrow: position 2*i (left) and 2*i+1 (right)
        sink_indices = [0] * s
        in_indices: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            left, right = g.targets[i]
            for slot, target in ((0, left), (1, right)):
                alpha = chosen[i][slot]
                if target < s:
                    sink_indices[target] = alpha
                else:
                    in_indices[target - s].append(alpha)
        value = one
        for i in range(n):
            factor = components[chosen[i]]
            for alpha in in_indices[i]:
                factor = x_derivative(factor, alpha)
                if not factor:
                    return
            value = multivector_product(value, factor)
            if not value:
                return
        for (xexp, _), coeff in value._terms.items():
            out.add((xexp, tuple(sink_indices)), coeff)

    recurse(0, [])
    return out * Fraction(1, math.factorial(s))


def bivector_components(p: Multivector) -> dict[tuple[int, int], Multivector]:
    """Antisymmetric component 0-forms of a bivector, by index pair."""
    components: dict[tuple[int, int], Multivector] = {}
    for (xexp, (i, j)), coeff in p._terms.items():
        components.setdefault((i, j), Multivector(p.dimension))._add((xexp, ()), coeff)
        components.setdefault((j, i), Multivector(p.dimension))._add((xexp, ()), -coeff)
    return components


def recursive_evaluate_single_orgraph(
    g: Orgraph,
    p: Multivector,
    components: Mapping[tuple[int, int], Multivector],
    factors: dict[tuple, Multivector],
) -> Multivector:
    """Contract one orgraph vertex by vertex.

    Internal vertices choose their index pair in order.  A vertex's factor is
    its component differentiated by the indices on its in-arrows, so it is
    multiplied into the partial product as soon as the vertex and all of its
    sources have chosen, and a zero factor or product ends the branch.  A
    vertex with more in-arrows than the highest total degree of the
    bivector's coefficients has a zero factor for every choice, so such an
    orgraph is zero before any index is chosen.
    ``factors`` memoizes the factors by pair and derivative indices.  A
    sink's odd factor is the index on its one arrow; once all of them are
    chosen, a repeated sink index ends the branch too.  Raises
    :class:`gckit.orient.OrgraphError` unless every sink receives exactly one
    arrow.
    """
    d = p.dimension
    s = g.sink_count
    n = g.internal_count
    pairs = list(components)
    into = _arrows_into(g)
    sink_arrow = [arrow for arrow, in into[:s]]
    sources = into[s:]
    out = Multivector(d)
    top_degree = max((sum(xexp) for xexp, _ in p._terms), default=0)
    if any(len(arrows) > top_degree for arrows in sources):
        return out
    ready: list[list[int]] = [[] for _ in range(n)]
    for k in range(n):
        ready[max([k] + [i for i, _ in sources[k]])].append(k)
    sinks_known = max([i for i, _ in sink_arrow], default=0)
    chosen: list[tuple[int, int]] = [(0, 0)] * n

    def sink_indices() -> tuple[int, ...]:
        return tuple(chosen[i][slot] for i, slot in sink_arrow)

    def recurse(vertex: int, value: Multivector) -> None:
        if vertex == n:
            indices = sink_indices()
            for (xexp, _), coeff in value._terms.items():
                out.add((xexp, indices), coeff)
            return
        for pair in pairs:
            chosen[vertex] = pair
            if vertex == sinks_known and len(set(sink_indices())) < s:
                continue
            product = value
            for k in ready[vertex]:
                alphas = [chosen[i][slot] for i, slot in sources[k]]
                alphas.sort()
                key = (chosen[k], *alphas)
                factor = factors.get(key)
                if factor is None:
                    factor = components[chosen[k]]
                    for alpha in alphas:
                        factor = x_derivative(factor, alpha)
                    factors[key] = factor
                product = multivector_product(product, factor) if factor else factor
                if not product:
                    break
            if product:
                recurse(vertex + 1, product)

    recurse(0, Multivector.of(((0,) * d, ())))
    return out * Fraction(1, math.factorial(s))


def evaluate_orgraph(source: OrgraphSum | Orgraph, p: Multivector) -> Multivector:
    """Evaluate an oriented-graph sum on copies of a bivector.

    Each internal vertex holds a copy of the bivector; every arrow carries a
    coordinate index, arrows into a vertex differentiate its copy, and the
    arrows into the ordered sinks supply the odd factors of the result.
    Raises :class:`gckit.orient.OrgraphError` unless every sink of every
    orgraph receives exactly one arrow.
    """
    if not is_bivector(p):
        raise MultivectorError("bivector required")
    components = bivector_components(p)
    factors: dict[tuple, Multivector] = {}
    total = Multivector(p.dimension)
    for g, coeff in OrgraphSum.of(source).items():
        total._add_sum(recursive_evaluate_single_orgraph(g, p, components, factors), coeff)
    return total


def or_evaluate_algebraic(
    graph: UnorientedGraph, args: Sequence[Multivector]
) -> Multivector:
    """Average the edge-operator product over all ``n!`` vertex placements."""
    n = graph.vertex_count
    if len(args) != n:
        raise MultivectorError("argument count must equal the vertex count")
    d = args[0].dimension
    if any(a.dimension != d for a in args):
        raise MultivectorError("dimension mismatch")
    if sum(_is_odd_argument(a) for a in args) > 1:
        raise MultivectorError("well-definedness precondition violated")

    distinct: list[Multivector] = []
    classes: list[int] = []
    for a in args:
        for idx, seen in enumerate(distinct):
            if a == seen:
                classes.append(idx)
                break
        else:
            distinct.append(a)
            classes.append(len(distinct) - 1)

    if len(distinct) == 1 and not _is_odd_argument(distinct[0]):
        return _evaluate_ordered(graph, args, d)

    # Summing over permutations of argument placements equals summing over
    # the inverse permutations, so enumerate vertex assignments directly and
    # cache by the class of the argument sitting at each vertex.
    cache: dict[tuple[int, ...], Multivector] = {}
    total = Multivector(d)
    for assignment in permutations(range(n)):
        signature = tuple(classes[k] for k in assignment)
        if signature not in cache:
            reordered = [args[k] for k in assignment]
            cache[signature] = _evaluate_ordered(graph, reordered, d)
        total += cache[signature]
    return total * Fraction(1, math.factorial(n))


def _placed(mv: Multivector, copy: int, copies: int) -> Multivector:
    d = mv.dimension
    out = Multivector(copies * d)
    for (xexp, xis), coeff in mv._terms.items():
        big_x = [0] * (copies * d)
        big_x[copy * d: (copy + 1) * d] = xexp
        out._add((tuple(big_x), tuple(copy * d + i for i in xis)), coeff)
    return out


def _diagonal(big: Multivector, copies: int, d: int) -> Multivector:
    out = Multivector(d)
    for (big_x, big_xis), coeff in big._terms.items():
        xexp = tuple(
            sum(big_x[copy * d + alpha] for copy in range(copies))
            for alpha in range(d)
        )
        out.add((xexp, tuple(i % d for i in big_xis)), coeff)
    return out


def evaluate_ordered(
    graph: UnorientedGraph, placed_args: Sequence[Multivector], d: int
) -> Multivector:
    """Edge-operator product with placed_args[i] sitting at vertex i+1."""
    n = graph.vertex_count
    big = Multivector.of(((0,) * (n * d), ()))
    for vertex, mv in enumerate(placed_args):
        big = multivector_product(big, _placed(mv, vertex, n))
    for u, v in graph.edges:
        big = edge_operator(big, u - 1, v - 1, d)
    return _diagonal(big, n, d)


def tuple_edge_operator(big: Multivector, u: int, v: int, d: int) -> Multivector:
    """Apply one edge operator coupling vertex copies u and v (0-based).

    It is the sum over alpha of d/dx(head, alpha) d/dxi(tail, alpha) for
    (tail, head) = (u, v) and (v, u), taken in one pass over the terms: each
    odd generator of copy u or v is removed with the sign of its position,
    and the matching even generator of the other copy is differentiated.
    """
    out = Multivector(big.dimension)
    for (xexp, xis), coeff in big._terms.items():
        for pos, odd in enumerate(xis):
            copy, alpha = divmod(odd, d)
            if copy == u:
                even = v * d + alpha
            elif copy == v:
                even = u * d + alpha
            else:
                continue
            power = xexp[even]
            if not power:
                continue
            lowered = xexp[:even] + (power - 1,) + xexp[even + 1:]
            value = coeff * power
            out._add((lowered, xis[:pos] + xis[pos + 1:]), -value if pos % 2 else value)
    return out


def tuple_diagonal(big: Multivector, d: int) -> Multivector:
    """Identify the vertex copies: copy k's generator k*d + alpha becomes alpha."""
    out = Multivector(d)
    for (big_x, big_xis), coeff in big._terms.items():
        ordered = _normal_order([i % d for i in big_xis])
        if ordered is not None:
            xexp = tuple(sum(big_x[alpha::d]) for alpha in range(d))
            out._add((xexp, ordered[0]), coeff * ordered[1])
    return out


def tuple_evaluate_ordered(
    graph: UnorientedGraph, placed_args: Sequence[Multivector], d: int
) -> Multivector:
    """Edge-operator product with placed_args[i] sitting at vertex i+1."""
    big = Multivector(graph.vertex_count * d)
    for terms in product(*(mv._terms.items() for mv in placed_args)):
        keys, coeffs = zip(*terms)
        xexp = tuple(chain.from_iterable(x for x, _ in keys))
        xis = tuple(copy * d + i for copy, (_, odd) in enumerate(keys) for i in odd)
        big._add((xexp, xis), math.prod(coeffs))
    for u, v in graph.edges:
        big = tuple_edge_operator(big, u - 1, v - 1, d)
    return tuple_diagonal(big, d)


def elementary_moves(
    w: OrientationWitness,
) -> Iterator[tuple[OrientationWitness, int]]:
    """Admissible single transitions from a witness, with rule-derived signs.

    Two kinds of move are admissible: reversing one body arrow whose head
    hosts a sink, transporting that sink label to the old tail, and
    exchanging two sink labels hosted at distinct vertices.  Either way two
    item ids trade places between two vertices, which flips the readout
    parity once, dressed by one extra flip per companion item lying strictly
    between the traded ids in the global item order.  Yields (target
    witness, predicted parity ratio) pairs.
    """
    g = w.graph
    s = w.sink_count

    def traded(v1: int, id1: int, v2: int, id2: int, sinks2) -> tuple:
        lo, hi = min(id1, id2), max(id1, id2)
        sign = -1
        for v, moved in ((v1, id1), (v2, id2)):
            other = next(iid for iid, _ in w.items(v) if iid != moved)
            if lo < other < hi:
                sign = -sign
        return sign, tuple(tuple(sorted(x)) for x in sinks2)

    for i, (a, b) in enumerate(g.edges):
        bit = (w.mask >> i) & 1
        tail, head = (a, b) if bit == 0 else (b, a)
        eid = s + i
        for k in w.sinks[head - 1]:
            sinks2 = list(map(list, w.sinks))
            sinks2[head - 1].remove(k)
            sinks2[tail - 1].append(k)
            sign, sinks2 = traded(tail, eid, head, k, sinks2)
            yield (
                OrientationWitness(
                    graph=g, sink_count=s, mask=w.mask ^ (1 << i), sinks=sinks2
                ),
                sign,
            )
    hosts = {
        k: v
        for v in range(1, g.vertex_count + 1)
        for k in w.sinks[v - 1]
    }
    for k1 in range(s):
        for k2 in range(k1 + 1, s):
            h1, h2 = hosts[k1], hosts[k2]
            if h1 == h2:
                continue
            sinks2 = list(map(list, w.sinks))
            sinks2[h1 - 1].remove(k1)
            sinks2[h1 - 1].append(k2)
            sinks2[h2 - 1].remove(k2)
            sinks2[h2 - 1].append(k1)
            sign, sinks2 = traded(h1, k1, h2, k2, sinks2)
            yield (
                OrientationWitness(
                    graph=g, sink_count=s, mask=w.mask, sinks=sinks2
                ),
                sign,
            )


def item_elementary_moves(
    w: OrientationWitness,
) -> Iterator[tuple[OrientationWitness, int]]:
    """Admissible single transitions from a witness, with rule-derived signs.

    Two kinds of move are admissible: reversing one body arrow whose head
    hosts a sink, transporting that sink label to the old tail, and
    exchanging two sink labels hosted at distinct vertices.  Either way two
    item ids trade places between two vertices, which flips the readout
    parity once, dressed by one extra flip per companion item lying strictly
    between the traded ids in the global item order.  Yields (target
    witness, predicted parity ratio) pairs.
    """
    s = w.sink_count

    def traded(v1: int, id1: int, v2: int, id2: int, mask: int) -> tuple:
        """Item ``id1`` moves from ``v1`` to ``v2`` and ``id2`` the other way."""
        lo, hi = min(id1, id2), max(id1, id2)
        sign = -1
        sinks = list(w.sinks)
        for v, gone, come in ((v1, id1, id2), (v2, id2, id1)):
            other = next(iid for iid, _ in w.items(v) if iid != gone)
            if lo < other < hi:
                sign = -sign
            kept = [k for k in sinks[v - 1] if k != gone]
            sinks[v - 1] = tuple(sorted(kept + [come] if come < s else kept))
        return OrientationWitness(w.graph, s, mask, tuple(sinks)), sign

    for i, (tail, head) in enumerate(_directed(w.graph.edges, w.mask)):
        for k in w.sinks[head - 1]:
            yield traded(tail, s + i, head, k, w.mask ^ (1 << i))
    hosts = {k: v for v, ks in enumerate(w.sinks, 1) for k in ks}
    for k1, k2 in combinations(range(s), 2):
        if hosts[k1] != hosts[k2]:
            yield traded(hosts[k1], k1, hosts[k2], k2, w.mask)



def fold_sink_swap(s: OrgraphSum) -> OrgraphSum:
    """Collapse each mutually sink-swapped pair of Pi terms to one term.

    Every Pi term must occur together with its sink-swapped partner, with
    coefficients related by minus the swap's normalization sign; otherwise
    :class:`SkewSymmetryError` is raised.  Lambda terms are their own
    partners (swapping the two sink labels only swaps one pair, which is the
    sign the pairing contract expects) and pass through unchanged.  Of each
    Pi pair the lexicographically smaller encoding is kept.
    """
    out = OrgraphSum()
    done: set[Orgraph] = set()
    for key, q in s.items():
        if key in done:
            continue
        done.add(key)
        if shape(key) == "Lambda":
            out._add(key, q)
            continue
        norm = fast_normalize_orgraph(sink_swap(key))
        if norm.is_zero:
            raise SkewSymmetryError(
                f"skew-symmetry violated: sink swap of {key!r} is a zero orgraph"
            )
        partner, rho = norm.orgraph, norm.sign
        if partner == key:
            if rho != -1:
                raise SkewSymmetryError(
                    f"skew-symmetry violated: self-paired term {key!r} with"
                    " even swap sign"
                )
            out._add(key, q)
            continue
        q2 = s._terms.get(partner, 0)
        if q2 == 0:
            raise SkewSymmetryError(
                f"skew-symmetry violated: term {key!r} has no sink-swapped"
                " partner"
            )
        if q2 != -rho * q:
            raise SkewSymmetryError(
                f"skew-symmetry violated: {key!r} and its partner have"
                " incompatible coefficients"
            )
        done.add(partner)
        if key.sort_key() < partner.sort_key():
            out._add(key, q)
        else:
            out._add(partner, q2)
    return out


def enumerate_orientations(g: UnorientedGraph) -> list[OrientationWitness]:
    """All orientation witnesses of ``g``.

    Every vertex must emit exactly two items, so the number of sinks is
    forced to ``2n - e``.  Sink labels are distributed over the deficient
    vertices in every possible way, each distribution a separate witness.
    Their count, ``s! / prod(deficit!)`` per edge mask, is added up before
    they are built, and :class:`OrgraphError` is raised past ``_MAX_WITNESSES``.
    """
    n, e = g.vertex_count, g.edge_count
    s = 2 * n - e
    if s < 0:
        return []
    labels = tuple(range(s))
    witnesses: list[OrientationWitness] = []
    count = 0
    for mask in range(1 << e):
        outdeg = [0] * (n + 1)
        for tail, _ in _directed(g.edges, mask):
            outdeg[tail] += 1
            if outdeg[tail] > 2:
                break
        else:
            deficits = [2 - outdeg[v] for v in range(1, n + 1)]
            count += math.factorial(s) // math.prod(map(math.factorial, deficits))
            if count > _MAX_WITNESSES:
                raise OrgraphError(f"orientation witnesses above the maximum {_MAX_WITNESSES}")
            for assignment in _label_distributions(labels, deficits):
                witnesses.append(OrientationWitness(g, s, mask, assignment))
    return witnesses


def orient(x: UnorientedGraph | GraphSum) -> OrgraphSum:
    """The orientation morphism: signed multiplicities of normalized orgraphs.

    Each witness contributes its permutation-parity sign times the sign of
    normalizing its orgraph; contributions accumulate per normalized
    encoding, and zero orgraphs are dropped.  Extended linearly to sums.
    """
    total = OrgraphSum()
    if isinstance(x, GraphSum):
        for g, c in x.items():
            total._add_sum(orient(g), c)
        return total
    for w in enumerate_orientations(x):
        total.add(w.orgraph(), orientation_sign(w))
    return total


@dataclass(frozen=True)
class DataclassUnorientedGraph:
    __qualname__ = "UnorientedGraph"

    vertex_count: int
    edges: tuple[Edge, ...]

    def __repr__(self) -> str:
        pairs = ", ".join(f"{u}-{v}" for u, v in self.edges)
        return f"UnorientedGraph({self.vertex_count}; {pairs})"


@dataclass(frozen=True)
class DataclassSignedCanonicalGraph:
    __qualname__ = "SignedCanonicalGraph"

    canonical: UnorientedGraph
    sign: int
    is_zero: bool


@dataclass(frozen=True)
class DataclassOrgraph:
    __qualname__ = "Orgraph"

    sink_count: int
    targets: tuple[tuple[int, int], ...]

    def __repr__(self) -> str:
        return f"Orgraph[{self.sink_count}]{encode_compact(self)}"


@dataclass(frozen=True)
class DataclassNormalizedOrgraph:
    __qualname__ = "NormalizedOrgraph"

    orgraph: Orgraph
    sign: int
    is_zero: bool
    order: tuple[int, ...]


@dataclass(frozen=True)
class DataclassOrientationWitness:
    __qualname__ = "OrientationWitness"

    graph: UnorientedGraph
    sink_count: int
    mask: int
    sinks: tuple[tuple[int, ...], ...]


@dataclass
class DataclassRulesReport:
    __qualname__ = "RulesReport"

    lines: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
