"""Wedge-ordered unoriented graphs with sign tracking.

An :class:`UnorientedGraph` is a finite simple graph whose edge list carries
a significant order: permuting the edges multiplies the graph by the parity
of the permutation.  :func:`canonicalize` picks the lexicographically
smallest sorted-edge-list encoding over all vertex relabelings, reports the
parity sign connecting the input presentation to that encoding, and flags
*zero graphs* -- graphs equal to minus themselves because some automorphism
permutes their edges oddly.  Every prefix of a canonical edge list is itself
canonical, which the orderly class generation in ``gckit.complexes`` relies on.

Graphs and orgraphs share one search for the least encoding,
:func:`_minimal_labelings`, which reads an encoding as one row per label.
The unlabeled vertices form an ordered partition into cells that no earlier
row tells apart.  The next label goes to each member of the first cell in
turn; its neighbours take the lowest labels of every cell, as any other
choice gives a larger row, and each cell splits into neighbours, then the
rest.  Only members with the least row recurse, and a branch stops once its
rows exceed the best found, so every least labeling and parity is found.
Once every cell holds one vertex the labels are fixed, and the remaining
rows are compared with the best in one pass instead of one recursion each;
:func:`_least_labeling` reads the least one, the common sign and the zero flag.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from functools import lru_cache

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


def _integer(text: str, lineno: int | None, message: str, *args: object) -> int:
    """An integer field as the writers print it: ASCII digits after an
    optional sign.  Other text raises ``ParseError(message.format(*args))``,
    so the message is built only on failure."""
    if text.isascii() and (text.isdigit() or text[1:].isdigit() and text[0] in "+-"):
        try:
            return int(text)
        except ValueError:  # more digits than Python converts
            pass
    raise ParseError(message.format(*args), lineno)


def _graph_counts(fields: list[str], lineno: int | None) -> tuple[int, int]:
    """The vertex and edge counts of a ``g <vertices> <edges>`` header."""
    n, m = (_integer(f, lineno, "vertex/edge counts must be integers") for f in fields)
    if m < 0:
        raise ParseError(f"edge count must be nonnegative, got {m}", lineno)
    return n, m


class _Frozen:
    """Base of the frozen value classes.

    Each subclass names its fields in ``__slots__``, in its ``__init__``'s
    argument order, and sets them once there through ``object.__setattr__``;
    assigning or deleting one afterwards raises ``AttributeError``.  A slot
    named with a leading ``_`` holds what the fields determine (a cached
    hash, the ``__dict__`` of cached properties) and is not a field.  The
    ``repr`` reads ``Class(field=value, ...)`` in slot order, and ``copy``,
    ``deepcopy`` and ``pickle`` rebuild a value through ``__init__``.
    Equality and hashing stay in each subclass, spelled out over its fields:
    a loop over the fields here would slow every dictionary lookup of a
    graph or an orgraph.  A graph hashes its fields once, when it is built;
    its equality is still spelled out.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> list[str]:
        return [name for name in self.__slots__ if not name.startswith("_")]

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields())
        return f"{type(self).__qualname__}({fields})"


class UnorientedGraph(_Frozen):
    """A simple graph on vertices ``1..vertex_count`` with an ordered edge list.

    Each edge is stored with its endpoints sorted; the position of an edge in
    ``edges`` is the meaningful datum.  The hash is computed once, when the
    graph is built, since graphs key the caches, sums and witness sets of
    every layer.
    """

    __slots__ = ("vertex_count", "edges", "_hash")

    def __init__(self, vertex_count: int, edges: tuple[Edge, ...]) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_hash", hash((vertex_count, edges)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.edges) == (other.vertex_count, other.edges)

    def __hash__(self) -> int:
        return self._hash

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


class SignedCanonicalGraph(_Frozen):
    """Canonical representative, the sign linking a presentation to it, and
    whether the graph is a zero graph (in which case the sign is moot)."""

    __slots__ = ("canonical", "sign", "is_zero")

    def __init__(self, canonical: UnorientedGraph, sign: int, is_zero: bool) -> None:
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "is_zero", is_zero)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.canonical, self.sign, self.is_zero) == (
            other.canonical, other.sign, other.is_zero,
        )

    def __hash__(self) -> int:
        return hash((self.canonical, self.sign, self.is_zero))


# The largest vertex count accepted.  ``d`` of an edgeless graph this large is
# quick: isolated vertices are not searched.
_MAX_VERTICES = 10_000

# The most vertices the labeling search takes; it recurses at most once per
# vertex, and ``canonicalize`` of a 200-vertex path takes about 1 s.
_MAX_SEARCH_VERTICES = 200


def new_graph(vertex_count: int, edges: Iterable[Sequence[int]]) -> UnorientedGraph:
    """Build a graph, validating the simple-graph invariants.

    Raises :class:`GraphError` for a vertex count outside 1.._MAX_VERTICES,
    out-of-range labels, loop edges, and repeated pairs (``parallel edge``).
    """
    if vertex_count < 1:
        raise GraphError(f"vertex count must be positive, got {vertex_count}")
    if vertex_count > _MAX_VERTICES:
        raise GraphError(f"vertex count above the maximum {_MAX_VERTICES}")
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
    neighbour labeled after ``v`` takes a larger label.  Past
    ``_MAX_SEARCH_VERTICES`` keys it raises :class:`GraphError` at once.
    """
    if len(neighbours) > _MAX_SEARCH_VERTICES:
        raise GraphError(f"labeling search above the maximum {_MAX_SEARCH_VERTICES} vertices")
    label = dict.fromkeys(neighbours, 0)
    n = len(label)
    best: list[tuple] = []
    found: list[dict[int, int]] = []

    def search(cells: list[list[int]], depth: int) -> None:
        if len(cells) == n - depth:  # every cell one vertex: the labels are fixed
            for lab, (u,) in enumerate(cells, depth):
                label[u] = lab
            for lab, (u,) in enumerate(cells, depth):
                r = row(u, label)
                if lab == len(best) or r < best[lab]:
                    del best[lab:]
                    best.append(r)
                    found.clear()
                elif r > best[lab]:
                    return
            found.append(label.copy())
            return
        branches = []
        for v in cells[0]:
            adjacent = neighbours[v]
            refined = []  # a cell that v does not split is kept as it is
            for cell in ([u for u in cells[0] if u != v], *cells[1:]):
                inner = [u for u in cell if u in adjacent] if len(cell) > 1 else ()
                if 0 < len(inner) < len(cell):
                    refined.append(inner)
                    refined.append([u for u in cell if u not in adjacent])
                elif cell:
                    refined.append(cell)
            label[v] = lab = depth
            for cell in refined:
                for u in cell:
                    lab += 1
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


def _least_labeling(
    neighbours: dict[int, set[int]], row: Callable, parity: Callable
) -> tuple[dict[int, int], int, bool]:
    """The least labeling, the sign all least labelings share, and the zero flag.

    Of the labelings :func:`_minimal_labelings` finds, the one whose labels,
    read in key order, are least is returned.  ``parity(label)`` counts the
    transpositions the labeling costs; the flag is set, and the sign is 1,
    when two least labelings have opposite parities.
    """
    labelings = _minimal_labelings(neighbours, row)
    signs = {-1 if parity(label) % 2 else 1 for label in labelings}
    is_zero = len(signs) == 2
    least = min(labelings, key=lambda label: list(label.values()))
    return least, 1 if is_zero else signs.pop(), is_zero


def _graph_search(
    edges: Sequence[Edge], vertices: Iterable[int]
) -> tuple[dict[int, set[int]], Callable, Callable]:
    """Neighbours and row of the search on ``vertices``, and ``edges`` relabeled.

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

    def relabeled(label: dict[int, int]) -> list[Edge]:
        return [tuple(sorted((label[u] + 1, label[v] + 1))) for u, v in edges]

    return neighbours, row, relabeled


@lru_cache(maxsize=None)
def _canonical_core(
    vertex_count: int, ref_edges: tuple[Edge, ...]
) -> tuple[tuple[Edge, ...], int, bool]:
    """Canonicalize the sorted presentation ``ref_edges``.

    Returns ``(canonical_edges, sign, is_zero)`` where ``sign`` is the edge
    permutation parity from the reference presentation to the canonical one.
    Isolated vertices take the last labels in every least labeling and move
    no edge, so only the vertices that carry an edge are searched.  Every
    least labeling gives the same sorted edges.
    """
    vertices = sorted({v for edge in ref_edges for v in edge})
    neighbours, row, relabeled = _graph_search(ref_edges, vertices)
    label, sign, is_zero = _least_labeling(
        neighbours, row, lambda label: inversion_count(relabeled(label))
    )
    return tuple(sorted(relabeled(label))), sign, is_zero


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
    neighbours, row, relabeled = _graph_search(g.edges, range(1, g.vertex_count + 1))
    found = _minimal_labelings(neighbours, row)
    signs = [-1 if inversion_count(relabeled(label)) % 2 else 1 for label in found]
    result = []
    for label, sign in zip(found, signs):
        vertex_of = {lab: v for v, lab in label.items()}
        images = tuple(vertex_of[found[0][v]] for v in label)
        result.append((images, sign * signs[0]))
    return sorted(result)


def _orbits(
    g: UnorientedGraph,
    points: Sequence[Hashable],
    image: Callable[[tuple[int, ...]], Callable[[Hashable], Hashable]],
) -> list[tuple[Hashable, int]]:
    """The first point of each automorphism orbit on ``points``, weighted by
    the orbit's size: the one symmetry rule of ``Or(γ)(P)``.

    An automorphism of ``g`` maps points (the witnesses of ``orient``, the
    arrangements of ``or_evaluate_algebraic``) to points, and multiplies each
    contribution by the sign it induces on the edges.  So a zero graph, read
    from the cached :func:`canonicalize`, gives ``[]``, and otherwise the
    weighted representatives give the whole sum.  ``image(images)`` builds
    the map on points of each of the :func:`automorphisms` once.  No points
    need no search at all, and one point no automorphisms.
    """
    if not points or canonicalize(g).is_zero:
        return []
    if len(points) == 1:
        return [(points[0], 1)]
    maps = [image(images) for images, _ in automorphisms(g)]
    seen: set[Hashable] = set()
    result = []
    for point in points:
        if point not in seen:
            orbit = {move(point) for move in maps}
            seen |= orbit
            result.append((point, len(orbit)))
    return result


def is_connected(g: UnorientedGraph) -> bool:
    """True when every vertex is reachable from vertex 1."""
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


def _counted(n: int, one: str, many: str) -> str:
    return f"{n} {one if n == 1 else many}"


def parse_graph(text: str) -> UnorientedGraph:
    """Parse the one-graph text format::

        g <vertices> <edges>
        u v            # one line per edge, order significant
    """
    lines = list(significant_lines(text))
    if not lines:
        raise ParseError("empty graph text")
    (lineno, head), *body = lines
    parts = head.split()
    if len(parts) != 3 or parts[0] != "g":
        raise ParseError("expected header 'g <vertices> <edges>'", lineno)
    n, m = _graph_counts(parts[1:], lineno)
    if len(body) != m:
        expected = _counted(m, "edge line", "edge lines")
        raise ParseError(f"expected {expected}, found {len(body)}", lineno)
    edges = []
    for lineno, line in body:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError("expected an edge line 'u v'", lineno)
        edges.append(tuple(_integer(f, lineno, "edge endpoints must be integers") for f in fields))
    try:
        return new_graph(n, edges)
    except GraphError as exc:
        raise ParseError(str(exc), lines[0][0]) from exc


def format_graph(g: UnorientedGraph) -> str:
    """Render a graph in the format accepted by :func:`parse_graph`."""
    lines = [f"g {g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines)
