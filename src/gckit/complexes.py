"""Operadic insertion, the graph-complex bracket and differential, cocycles.

Graphs are combined into :class:`GraphSum` objects -- finite exact linear
combinations whose keys are canonical representatives.  ``GraphSum``,
``OrgraphSum`` and ``Multivector`` are the three thin subclasses of one
private base, ``_Sum``: a subclass supplies its normalizer, and the base does
the arithmetic, ``reduce`` included, on coefficients that stay plain ``int``
while they are integral.  The vertex-expansion differential is the bracket
with the single edge; its kernel in a fixed (vertices, edges) bidegree is
computed exactly over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Hashable, Iterable, Iterator, Union

from .graphs import (
    Edge,
    GraphError,
    ParseError,
    UnorientedGraph,
    canonicalize,
    is_connected,
    new_graph,
    significant_lines,
)

__all__ = [
    "GraphSum",
    "EDGE_GRAPH",
    "insert",
    "bracket",
    "differential",
    "is_cocycle",
    "cocycle_kernel",
    "parse_graph_sum",
    "format_graph_sum",
]

Rational = Union[int, Fraction]


def _exact(value: Rational) -> Rational:
    """An exact scalar, as an ``int`` when it is integral."""
    if value.__class__ is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class _Sum:
    """A finite exact linear combination of normalized elements.

    A subclass supplies ``_normalize(element)``, returning the element's
    ``(key, sign)`` or ``None`` when the element is zero; the sum stores one
    coefficient per key, an ``int`` while it is integral, and drops the keys
    whose coefficients cancel.  Keys sort by their ``sort_key``.  Every empty
    result is built by ``_empty``, which a subclass with parameters overrides.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Hashable, Rational]] = ()) -> None:
        self._terms: dict = {}
        for element, coeff in terms:
            self._add_element(element, coeff)

    @staticmethod
    def _normalize(element) -> tuple[Hashable, int] | None:
        raise NotImplementedError

    def _empty(self):
        """A zero sum of the same kind as this one."""
        return type(self)()

    def _add_element(self, element, coeff: Rational) -> None:
        """Accumulate ``coeff`` times ``element``, normalized even for a zero ``coeff``."""
        norm = self._normalize(element)
        coeff = _exact(coeff)
        if norm is not None and coeff:
            self._add(norm[0], norm[1] * coeff)

    def _add(self, key: Hashable, coeff: Rational) -> None:
        """Accumulate one term whose key is already normalized."""
        value = self._terms.get(key, 0) + coeff
        if value:
            self._terms[key] = _exact(value)
        else:
            self._terms.pop(key, None)

    def _add_sum(self, other: "_Sum", factor: Rational = 1) -> None:
        """Accumulate ``factor`` times another sum of the same kind."""
        for key, coeff in other._terms.items():
            self._add(key, coeff * factor)

    def items(self) -> list[tuple[Hashable, Rational]]:
        """Terms sorted by key, each a ``(representative, coefficient)`` pair."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, element) -> Rational:
        """Coefficient of ``element`` after normalizing it, ``int | Fraction``.

        It is an ``int`` when integral, and ``0`` for a zero or absent element.
        """
        norm = self._normalize(element)
        if norm is None:
            return 0
        return norm[1] * self._terms.get(norm[0], 0)

    def reduce(self):
        """Divide all coefficients by their common rational factor.

        The factor is positive (gcd of numerators over lcm of denominators),
        so every sign is preserved.
        """
        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return self * Fraction(den, num) if num else self._empty()

    def copy(self):
        out = self._empty()
        out._terms = dict(self._terms)
        return out

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Hashable, Rational]]:
        return iter(self.items())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other):
        out = self.copy()
        out._add_sum(other)
        return out

    def __sub__(self, other):
        out = self.copy()
        out._add_sum(other, -1)
        return out

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar: Rational):
        factor = _exact(scalar)
        out = self._empty()
        if factor:
            out._terms = {key: _exact(c * factor) for key, c in self._terms.items()}
        return out

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._terms)} terms)"


class GraphSum(_Sum):
    """A finite exact linear combination of unoriented graphs.

    Terms are stored against canonical representatives; adding a graph first
    canonicalizes it, so zero graphs vanish and sign conventions are applied
    automatically.
    """

    __slots__ = ()

    @staticmethod
    def _normalize(g: UnorientedGraph) -> tuple[UnorientedGraph, int] | None:
        sc = canonicalize(g)
        return None if sc.is_zero else (sc.canonical, sc.sign)

    add_graph = _Sum._add_element


EDGE_GRAPH = new_graph(2, [(1, 2)])


def _as_sum(x: Union[UnorientedGraph, GraphSum]) -> GraphSum:
    if isinstance(x, GraphSum):
        return x
    return GraphSum([(x, 1)])


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
            result.add_graph(UnorientedGraph(n1 + n2 - 1, tuple(edges)), 1)
    return result


def bracket(
    x: Union[UnorientedGraph, GraphSum], y: Union[UnorientedGraph, GraphSum]
) -> GraphSum:
    """Graded commutator of insertions, extended bilinearly.

    On individual graphs this is ``insert(x, y) - (-1)**(e_x * e_y)
    insert(y, x)`` where ``e`` counts edges.
    """
    total = GraphSum()
    for g1, c1 in _as_sum(x).items():
        for g2, c2 in _as_sum(y).items():
            c = c1 * c2
            sign = -1 if (g1.edge_count * g2.edge_count) % 2 else 1
            total._add_sum(insert(g1, g2), c)
            total._add_sum(insert(g2, g1), -sign * c)
    return total


def differential(x: Union[UnorientedGraph, GraphSum]) -> GraphSum:
    """Vertex-expansion differential: the bracket with the single edge."""
    return bracket(EDGE_GRAPH, x)


def is_cocycle(x: Union[UnorientedGraph, GraphSum]) -> bool:
    """True when the differential of ``x`` vanishes identically."""
    return not differential(x)


def _nullspace(rows: list[list[Rational]], ncols: int) -> list[list[Fraction]]:
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


def _edge_classes(vertex_count: int, edge_count: int) -> set[tuple[Edge, ...]]:
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
            canonicalize(UnorientedGraph(vertex_count, edges + (e,))).canonical.edges
            for edges in level
            for e in pairs
            if e not in edges
        }
    if size < edge_count:
        level = {tuple(e for e in pairs if e not in edges) for edges in level}
    return level


def _kernel_basis(vertex_count: int, edge_count: int) -> list[UnorientedGraph]:
    """The connected nonzero canonical graphs of a bidegree, sorted by key."""
    basis: list[UnorientedGraph] = []
    for edges in _edge_classes(vertex_count, edge_count):
        g = UnorientedGraph(vertex_count, edges)
        if not is_connected(g):
            continue
        sc = canonicalize(g)
        if not sc.is_zero:
            basis.append(sc.canonical)
    basis.sort(key=lambda g: g.sort_key())
    return basis


def cocycle_kernel(vertex_count: int, edge_count: int) -> list[GraphSum]:
    """All cocycles built from connected graphs of the given bidegree.

    Generates one graph per isomorphism class edge by edge, each level from
    the canonical forms of the previous level plus one edge (past half of
    the vertex pairs, the complements of the classes with the complementary
    edge count), keeps the connected nonzero ones by their canonical
    representatives, assembles the differential as an exact rational
    matrix, and returns a basis of its kernel.  Each basis vector has
    coprime integer coefficients with the first nonzero coefficient
    positive.
    """
    basis = _kernel_basis(vertex_count, edge_count)

    target_index: dict[UnorientedGraph, int] = {}
    columns: list[dict[int, Rational]] = []
    for g in basis:
        col: dict[int, Rational] = {}
        for h, c in differential(g).items():
            col[target_index.setdefault(h, len(target_index))] = c
        columns.append(col)
    rows: list[list[Rational]] = [[0] * len(basis) for _ in range(len(target_index))]
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows[i][j] = c

    kernel = []
    for vec in _nullspace(rows, len(basis)):
        combo = GraphSum()
        for g, c in zip(basis, vec):
            combo._add(g, c)
        combo = combo.reduce()
        kernel.append(-combo if next(c for c in vec if c) < 0 else combo)
    return kernel


def _sum_lines(text: str, letter: str) -> Iterator[tuple[int, Fraction, str]]:
    """``(line number, coefficient, body)`` of each ``<coefficient> * <body>``
    line of a sum file, where ``letter`` starts the body (``g`` or ``o``)."""
    for lineno, line in significant_lines(text):
        coeff_text, star, rest = line.partition("*")
        if not star:
            raise ParseError(f"expected '<coefficient> * {letter} ...'", lineno)
        try:
            coeff = Fraction(coeff_text.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coefficient {coeff_text.strip()!r}", lineno) from None
        yield lineno, coeff, rest


def parse_graph_sum(text: str) -> GraphSum:
    """Parse a linear combination, one term per line::

        <rational> * g <vertices> <edges> : u1 v1, u2 v2, ...

    Blank lines and ``#`` comments are ignored; empty input is the zero sum.
    """
    total = GraphSum()
    for lineno, coeff, rest in _sum_lines(text, "g"):
        head, colon, edge_part = rest.partition(":")
        fields = head.split()
        if len(fields) != 3 or fields[0] != "g" or not colon:
            raise ParseError("expected 'g <vertices> <edges> : ...'", lineno)
        try:
            n, m = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError("vertex/edge counts must be integers", lineno) from None
        edges = []
        for chunk in edge_part.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            uv = chunk.split()
            if len(uv) != 2:
                raise ParseError(f"bad edge {chunk!r}", lineno)
            try:
                edges.append((int(uv[0]), int(uv[1])))
            except ValueError:
                raise ParseError(f"bad edge {chunk!r}", lineno) from None
        if len(edges) != m:
            raise ParseError(f"expected {m} edges, found {len(edges)}", lineno)
        try:
            total.add_graph(new_graph(n, edges), coeff)
        except GraphError as exc:
            raise ParseError(str(exc), lineno) from exc
    return total


def format_graph_sum(s: GraphSum) -> str:
    """Render a sum in the format accepted by :func:`parse_graph_sum`.

    The zero sum renders as the empty string.
    """
    lines = []
    for g, c in s.items():
        edge_text = ", ".join(f"{u} {v}" for u, v in g.edges)
        lines.append(f"{c} * g {g.vertex_count} {g.edge_count} : {edge_text}")
    return "\n".join(lines)
