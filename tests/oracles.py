"""Brute-force reference implementations of the canonical-labeling searches.

These are the exhaustive searches that ``gckit`` used before the
individualize-and-refine search of ``gckit.graphs._minimal_labelings``:
each tries every relabeling of the form it allows and keeps the
lexicographically least encoding with the set of parities that reach it.
They are kept unchanged, apart from caching, so the tests can compare the
fast search with them on random inputs.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from gckit.graphs import Edge, SignedCanonicalGraph, UnorientedGraph, edge_permutation_sign
from gckit.orient import NormalizedOrgraph, Orgraph


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
