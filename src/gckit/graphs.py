"""Wedge-ordered unoriented graphs with sign tracking.

An :class:`UnorientedGraph` is a finite simple graph whose edge list carries
a significant order: permuting the edges multiplies the graph by the parity
of the permutation.  :func:`canonicalize` picks the lexicographically
smallest sorted-edge-list encoding over all vertex relabelings, reports the
parity sign connecting the input presentation to that encoding, and flags
*zero graphs* -- graphs equal to minus themselves because some automorphism
permutes their edges oddly.

Graphs and orgraphs share one search for the least encoding,
:func:`_minimal_labelings`, which reads an encoding as one row per label.
The unlabeled vertices form an ordered partition into cells that no earlier
row tells apart.  The next label goes to each member of the first cell in
turn; its neighbours take the lowest labels of every cell, as any other
choice gives a larger row, and each cell splits into neighbours, then the
rest.  Only members with the least row recurse, and a branch stops once its
rows exceed the best found, so every least labeling and parity is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Edge",
    "GraphError",
    "ParseError",
    "UnorientedGraph",
    "SignedCanonicalGraph",
    "new_graph",
    "inversion_count",
    "edge_permutation_sign",
    "canonicalize",
    "automorphisms",
    "is_connected",
    "parse_graph",
    "format_graph",
    "significant_lines",
]

Edge = tuple[int, int]


class GraphError(ValueError):
    """A graph violates the simple-graph contract."""


class ParseError(ValueError):
    """A text encoding is malformed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class UnorientedGraph:
    """A simple graph on vertices ``1..vertex_count`` with an ordered edge list.

    Each edge is stored with its endpoints sorted; the position of an edge in
    ``edges`` is the meaningful datum.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * (self.vertex_count + 1)
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs[1:])

    def sort_key(self) -> tuple:
        return (self.vertex_count, self.edges)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{u}-{v}" for u, v in self.edges)
        return f"UnorientedGraph({self.vertex_count}; {pairs})"


@dataclass(frozen=True)
class SignedCanonicalGraph:
    """Canonical representative, the sign linking a presentation to it, and
    whether the graph is a zero graph (in which case the sign is moot)."""

    canonical: UnorientedGraph
    sign: int
    is_zero: bool


def new_graph(vertex_count: int, edges: Iterable[Sequence[int]]) -> UnorientedGraph:
    """Build a graph, validating the simple-graph invariants.

    Raises :class:`GraphError` for out-of-range labels, loop edges, and
    repeated unordered pairs (``parallel edge``).
    """
    if vertex_count < 1:
        raise GraphError(f"vertex count must be positive, got {vertex_count}")
    seen: set[Edge] = set()
    normalized: list[Edge] = []
    for pair in edges:
        u, v = pair
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
            raise GraphError(f"edge ({u}, {v}) out of range 1..{vertex_count}")
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphError(f"parallel edge ({e[0]}, {e[1]})")
        seen.add(e)
        normalized.append(e)
    return UnorientedGraph(vertex_count, tuple(normalized))


def inversion_count(seq: Sequence) -> int:
    """Number of out-of-order pairs in ``seq``.

    This is the number of adjacent transpositions needed to sort the
    sequence; its parity is the permutation parity.
    """
    count = 0
    n = len(seq)
    for i in range(n):
        si = seq[i]
        for j in range(i + 1, n):
            if si > seq[j]:
                count += 1
    return count


def edge_permutation_sign(perm: Sequence) -> int:
    """Parity sign of a permutation given as a sequence of distinct keys."""
    values = list(perm)
    if len(set(values)) != len(values):
        raise GraphError("not a permutation: repeated entries")
    return -1 if inversion_count(values) % 2 else 1


def _minimal_labelings(
    neighbours: dict[int, set[int]], row: Callable[[int, dict[int, int]], tuple]
) -> list[dict[int, int]]:
    """Every labeling of the keys of ``neighbours`` by 0, 1, ... with least rows.

    ``labeling[v]`` is the label of ``v``.  ``row(v, labeling)`` reads only
    the labels of ``v`` and its ``neighbours``, and must not fall when a
    neighbour labeled after ``v`` takes a larger label.
    """
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

    search([list(neighbours)], 0)
    return found


def _graph_labelings(
    edges: Sequence[Edge], vertices: Iterable[int]
) -> list[tuple[dict[int, int], list[Edge]]]:
    """Least labelings of ``vertices``, each with ``edges`` relabeled from 1.

    A row lists the higher neighbours' labels and a terminator above every
    label, so that a longer row sorts first, as in a sorted edge list.
    """
    neighbours: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)

    def row(v: int, label: dict[int, int]) -> tuple:
        higher = (label[u] for u in neighbours[v] if label[u] > label[v])
        return tuple(sorted(higher)) + (len(neighbours),)

    return [
        (label, [tuple(sorted((label[u] + 1, label[v] + 1))) for u, v in edges])
        for label in _minimal_labelings(neighbours, row)
    ]


@lru_cache(maxsize=None)
def _canonical_core(
    vertex_count: int, ref_edges: tuple[Edge, ...]
) -> tuple[tuple[Edge, ...], int, bool]:
    """Canonicalize the sorted presentation ``ref_edges``.

    Returns ``(canonical_edges, sign, is_zero)`` where ``sign`` is the edge
    permutation parity from the reference presentation to the canonical one.
    Isolated vertices take the last labels in every least labeling and move
    no edge, so only the vertices that carry an edge are searched.
    """
    if not ref_edges:
        return ref_edges, 1, False
    found = _graph_labelings(ref_edges, sorted({v for edge in ref_edges for v in edge}))
    signs = {edge_permutation_sign(relabeled) for _, relabeled in found}
    is_zero = len(signs) == 2
    sign = 1 if is_zero else signs.pop()
    return tuple(sorted(found[0][1])), sign, is_zero


def canonicalize(g: UnorientedGraph) -> SignedCanonicalGraph:
    """Canonical relabeling of ``g`` with the edge-permutation parity sign.

    The canonical representative is the lexicographically smallest sorted
    edge list over all vertex relabelings.  ``is_zero`` is set when some
    relabeling fixes the canonical edge set with odd parity.
    """
    ref = tuple(sorted(g.edges))
    enc, core_sign, is_zero = _canonical_core(g.vertex_count, ref)
    sign = 1 if is_zero else core_sign * edge_permutation_sign(g.edges)
    return SignedCanonicalGraph(UnorientedGraph(g.vertex_count, enc), sign, is_zero)


def automorphisms(g: UnorientedGraph) -> list[tuple[tuple[int, ...], int]]:
    """All vertex bijections that preserve the edge set, with induced edge parity.

    Each element is ``(images, sign)`` where ``images[i]`` is the image of
    vertex ``i+1`` and ``sign`` is the parity of the permutation the map
    induces on the edge list; the list is sorted by ``images``.  Each map
    takes the first least labeling to another; its sign is their parities' product.
    """
    found = _graph_labelings(g.edges, range(1, g.vertex_count + 1))
    signs = [edge_permutation_sign(relabeled) for _, relabeled in found]
    result = []
    for (label, _), sign in zip(found, signs):
        vertex_of = {lab: v for v, lab in label.items()}
        images = tuple(vertex_of[found[0][0][v]] for v in label)
        result.append((images, sign * signs[0]))
    return sorted(result)


def is_connected(g: UnorientedGraph) -> bool:
    """True when every vertex is reachable from vertex 1."""
    if g.vertex_count == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.vertex_count + 1)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count


def significant_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, content)`` skipping blanks and ``#`` comments."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph(text: str) -> UnorientedGraph:
    """Parse the one-graph text format::

        g <vertices> <edges>
        u v            # one line per edge, order significant
    """
    lines = list(significant_lines(text))
    if not lines:
        raise ParseError("empty graph text")
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 3 or parts[0] != "g":
        raise ParseError("expected header 'g <vertices> <edges>'", lineno)
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("vertex/edge counts must be integers", lineno) from None
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}", lineno)
    edges = []
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError("expected an edge line 'u v'", lineno)
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError("edge endpoints must be integers", lineno) from None
    try:
        return new_graph(n, edges)
    except GraphError as exc:
        raise ParseError(str(exc), lines[0][0]) from exc


def format_graph(g: UnorientedGraph) -> str:
    """Render a graph in the format accepted by :func:`parse_graph`."""
    lines = [f"g {g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines)
