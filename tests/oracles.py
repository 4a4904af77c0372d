"""Brute-force reference implementations that the fast paths replaced.

The canonical-labeling searches are the exhaustive ones that ``gckit`` used
before the individualize-and-refine search of
``gckit.graphs._minimal_labelings``: each tries every relabeling of the form
it allows and keeps the lexicographically least encoding with the set of
parities that reach it.  They are kept unchanged, apart from caching.

The kernel basis is the loop that canonicalized one graph per connected
subset of ``edge_count`` vertex pairs, kept unchanged from
``gckit.complexes.cocycle_kernel`` apart from returning the basis.

The flow kernels are the two-pass edge operator, the direct evaluator
that enumerates every tuple of index pairs before it prunes, the algebraic
evaluator's placement loop over all ``n!`` permutations, and its placement
of the arguments by one ``multivector_product`` per vertex followed by a
range-checked restriction to the diagonal, all kept unchanged from
``gckit.multivectors``.

The witness moves are the two-loop ``elementary_moves``, which rebuilds the
sink lists and the target witness once per kind of move, and the
``fold_sink_swap`` that compared each Pi pair's sort keys and could add the
partner in place of the term, both kept unchanged from ``gckit.orient``
apart from the name under which the fold imports ``normalize_orgraph``.

The tests compare the fast code with these on random inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Sequence

from gckit.graphs import (
    Edge,
    SignedCanonicalGraph,
    UnorientedGraph,
    edge_permutation_sign,
    is_connected,
)
from gckit.graphs import canonicalize as fast_canonicalize
from gckit.multivectors import (
    Multivector,
    MultivectorError,
    _constant,
    _edge_operator,
    _evaluate_ordered,
    _is_odd_argument,
    multivector_product,
    x_derivative,
    xi_derivative,
)
from gckit.orient import (
    NormalizedOrgraph,
    Orgraph,
    OrgraphSum,
    OrientationWitness,
    SkewSymmetryError,
    normalize_orgraph as fast_normalize_orgraph,
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
    one = _constant(d, Fraction(1))

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
            out.add_term(xexp, tuple(sink_indices), coeff)

    recurse(0, [])
    return out * Fraction(1, math.factorial(s))


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
        out.add_term(xexp, tuple(i % d for i in big_xis), coeff)
    return out


def evaluate_ordered(
    graph: UnorientedGraph, placed_args: Sequence[Multivector], d: int
) -> Multivector:
    """Edge-operator product with placed_args[i] sitting at vertex i+1."""
    n = graph.vertex_count
    big = _constant(n * d, 1)
    for vertex, mv in enumerate(placed_args):
        big = multivector_product(big, _placed(mv, vertex, n))
    for u, v in graph.edges:
        big = _edge_operator(big, u - 1, v - 1, d)
    return _diagonal(big, n, d)


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
