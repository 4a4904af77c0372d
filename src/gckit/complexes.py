"""Operadic insertion, the graph-complex bracket and differential, cocycles.

Graphs are combined into :class:`GraphSum` objects -- finite exact linear
combinations whose keys are canonical representatives.  ``GraphSum``,
``OrgraphSum`` and ``Multivector`` are the three thin subclasses of one
private base, ``_Sum``: a subclass supplies its normalizer, and the base does
the arithmetic, ``reduce`` included, on coefficients that stay plain ``int``
while they are integral.  The vertex-expansion differential is the bracket
with the single edge, summed as vertex splits: the splits that make a leaf,
and those that subdivide an edge between two vertices of degree at least 3,
cancel in pairs (against the leaf graftings and against the same
subdivision from the other end), so they are never built.  Its kernel in a
fixed (vertices, edges) bidegree is computed exactly over the rationals.
"""

from __future__ import annotations

import re
from collections.abc import Hashable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from .graphs import (
    Edge,
    GraphError,
    ParseError,
    UnorientedGraph,
    _counted,
    _graph_counts,
    _integer,
    _is_canonical,
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

Rational = int | Fraction


def _exact(value: Rational) -> Rational:
    """An exact scalar, as an ``int`` when it is integral."""
    if value.__class__ is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _add_multiple(terms: dict, other: dict, factor: Rational) -> None:
    """Accumulate ``factor`` times ``other`` into ``terms``, dropping cancelled keys."""
    for key, coeff in other.items():
        value = terms.get(key, 0) + coeff * factor
        if value:
            terms[key] = _exact(value)
        else:
            terms.pop(key, None)


class _Sum:
    """A finite exact linear combination of normalized elements.

    A subclass supplies ``_normalize(element)``, returning the element's
    ``(key, sign)`` or ``None`` when the element is zero; the sum stores one
    coefficient per key, an ``int`` while it is integral, and drops the keys
    whose coefficients cancel.  Keys sort by their ``sort_key``.  Every empty
    result is built by ``_empty``, which a subclass with parameters overrides.
    ``add`` and ``coefficient`` normalize an element before they build or read
    the sum, ``items`` lists it, and ``of`` takes an element for its sum.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Hashable, Rational]] = ()) -> None:
        self._terms: dict = {}
        for element, coeff in terms:
            self.add(element, coeff)

    @staticmethod
    def _normalize(element) -> tuple[Hashable, int] | None:
        raise NotImplementedError

    def _empty(self):
        """A zero sum of the same kind as this one."""
        return type(self)()

    @classmethod
    def of(cls, x):
        """``x`` itself when it is a sum of this kind, else ``x`` with coefficient 1."""
        return x if isinstance(x, cls) else cls([(x, 1)])

    def add(self, element, coeff: Rational) -> None:
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
        _add_multiple(self._terms, other._terms, factor)

    def items(self) -> list[tuple[Hashable, Rational]]:
        """Terms sorted by key, each a ``(representative, coefficient)`` pair."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coefficient(self, element) -> Rational:
        """Coefficient of ``element`` after normalizing it, ``int | Fraction``.

        It is an ``int`` when integral, and ``0`` for a zero or absent element;
        a malformed element raises whatever ``_normalize`` raises.
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


EDGE_GRAPH = new_graph(2, [(1, 2)])


def _reattachments(
    g: UnorientedGraph, v: int, shift: int, attachments: Iterable[Sequence[int]]
) -> Iterator[list[Edge]]:
    """The edges of ``g`` with vertex ``v`` taken out, once per attachment.

    Edges keep their positions.  The ``i``-th edge end at ``v``, in edge
    order, goes to vertex ``attach[i]`` of ``1..shift``, and every other
    vertex ``w`` becomes ``w + shift``, less one past ``v``, so the other
    vertices keep their order above the attached ones.
    """
    fixed: list = []
    slots: list[tuple[int, int]] = []
    for i, (a, b) in enumerate(g.edges):
        if v in (a, b):
            w = b if a == v else a
            slots.append((i, w + shift - (w > v)))
            fixed.append(None)
        else:
            fixed.append((a + shift - (a > v), b + shift - (b > v)))
    for attach in attachments:
        edges = fixed.copy()
        for (i, w), x in zip(slots, attach):
            edges[i] = (x, w)
        yield edges


def insert(g1: UnorientedGraph, g2: UnorientedGraph) -> GraphSum:
    """Sum over all ways of grafting ``g1`` into a vertex of ``g2``.

    For each vertex ``v`` of ``g2``, ``v`` is replaced by a copy of ``g1``
    (on labels ``1..n1``; the remaining vertices of ``g2`` keep their order
    on labels ``n1+1..``) and every edge end that was attached to ``v`` is
    reattached to a vertex of ``g1``, in all ``n1**deg(v)`` ways.  The edge
    order of each resulting graph is the edges of ``g1`` followed by the
    edges of ``g2``, reattached edges keeping their positions.  No edge
    repeats: those of ``g1`` lie within ``1..n1``, the kept edges of ``g2``
    above ``n1``, and each reattached one joins ``1..n1`` to a different old
    neighbour of ``v``, above ``n1``.
    """
    n1, n2 = g1.vertex_count, g2.vertex_count
    degrees = g2.degrees()
    result = GraphSum()
    for v in range(1, n2 + 1):
        attachments = product(range(1, n1 + 1), repeat=degrees[v - 1])
        for tail in _reattachments(g2, v, n1, attachments):
            result.add(UnorientedGraph(n1 + n2 - 1, (*g1.edges, *tail)), 1)
    return result


def bracket(
    x: UnorientedGraph | GraphSum, y: UnorientedGraph | GraphSum
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


def differential(x: UnorientedGraph | GraphSum) -> GraphSum:
    """Vertex-expansion differential ``bracket(EDGE_GRAPH, x)``, without the
    terms that cancel.

    The bracket with ``m``-edge ``g`` is ``insert(EDGE_GRAPH, g)``, one
    *split* per vertex ``v`` and assignment of its edge ends to new vertices
    1 and 2 (edge ``1 2`` first), less ``(-1)**m insert(g, EDGE_GRAPH)``,
    two *leaf* terms per vertex ``v``: ``g`` with a new leaf at ``v``, edge
    last.  Moving the leaf edge from last to first has sign ``(-1)**m``, so
    each leaf term is minus a split that puts all of ``v``'s ends on one
    side.  Every graph is signed by its edge order alone, so:

    - Swapping the new vertices 1 and 2 keeps the edge order: each split
      equals its mirror image and is built once, with the first end on 1.
    - A vertex of degree ``>= 1`` has two one-sided splits, cancelled by its
      two leaf terms.  Isolated ``v`` has one, the new edge on its own, and
      the two leaf terms leave minus it.
    - A split of ``v`` that sends one end, to neighbour ``a``, away from the
      other ``>= 2`` subdivides edge ``va``.  When ``a`` also has degree
      ``>= 3``, the matching split of ``a`` gives the same graph with the
      new edge and ``va`` trading places: an odd permutation, so the two
      cancel.
    """
    total = GraphSum()
    for g, c in GraphSum.of(x)._terms.items():
        n = g.vertex_count
        degrees = g.degrees()
        for v in range(1, n + 1):
            deg = degrees[v - 1]
            if deg == 0:
                splits, coeff = [()], -c
            else:
                splits = [(1,) + rest for rest in product((1, 2), repeat=deg - 1)][1:]
                coeff = 2 * c
            if deg >= 3:
                # Drop the splits that leave alone an end whose neighbour has degree >= 3.
                ends = [b if a == v else a for a, b in g.edges if v in (a, b)]
                splits = [s for s in splits if not any(
                    s.count(side) == 1 and degrees[w - 1] >= 3 for side, w in zip(s, ends))]
            for tail in _reattachments(g, v, 2, splits):
                total.add(UnorientedGraph(n + 1, ((1, 2), *tail)), coeff)
    return total


def is_cocycle(x: UnorientedGraph | GraphSum) -> bool:
    """True when the differential of ``x`` vanishes identically."""
    return not differential(x)


def _nullspace(columns: Iterable[dict[Hashable, Rational]]) -> list[dict[int, Fraction]]:
    """Basis of the kernel of a sparse rational matrix, by exact elimination.

    Each column maps row keys to nonzero entries.  Taken left to right, each
    column is reduced against the pivots found so far, in the order found,
    carrying its combination of the original columns.  A column that reduces
    to zero gives the kernel vector with 1 at its own index and 0 at every
    other non-pivot index: the reduced-row-echelon basis vector, whichever
    row each pivot takes.  A vector maps column indices to ``Fraction``s.
    """
    pivots: list[tuple[Hashable, dict, dict]] = []
    kernel = []
    for j, column in enumerate(columns):
        col = dict(column)
        combo: dict[int, Rational] = {j: 1}
        for row, pivot_col, pivot_combo in pivots:
            if row in col:
                factor = -Fraction(col[row]) / pivot_col[row]
                _add_multiple(col, pivot_col, factor)
                _add_multiple(combo, pivot_combo, factor)
        if col:
            pivots.append((next(iter(col)), col, combo))
        else:
            kernel.append({i: Fraction(c) for i, c in combo.items()})
    return kernel


def _edge_classes(vertex_count: int, edge_count: int) -> list[tuple[Edge, ...]]:
    """One edge tuple per isomorphism class of graphs of the given bidegree.

    Orderly generation (Read, "Every one a winner", 1978): every prefix of a
    canonical edge tuple is canonical, so each class is grown exactly once
    from the empty graph by appending a vertex pair after the last edge and
    keeping the child only if it is its own canonical form: a labeling search
    bounded by the child's own rows stops at the first smaller row, with no
    parity read (``graphs._is_canonical``).  Past half of the ``C(n, 2)``
    pairs, the classes of the complementary edge count are grown instead
    and complemented (a bijection on classes); those are not canonical.
    """
    pairs = list(combinations(range(1, vertex_count + 1), 2))
    if not 0 <= edge_count <= len(pairs):
        return []
    size = min(edge_count, len(pairs) - edge_count)
    level: list[tuple[Edge, ...]] = [()]
    for _ in range(size):
        children = []
        for edges in level:
            for e in pairs[pairs.index(edges[-1]) + 1 if edges else 0 :]:
                child = edges + (e,)
                if _is_canonical(child):
                    children.append(child)
        level = children
    if size < edge_count:
        level = [tuple(e for e in pairs if e not in edges) for edges in level]
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

    The connected nonzero classes come from :func:`_edge_classes`, and the
    kernel of the differential on them from :func:`_nullspace`, fed one
    ``differential`` per basis graph.  Each basis vector has coprime integer
    coefficients with the first nonzero coefficient positive.
    """
    basis = _kernel_basis(vertex_count, edge_count)
    kernel = []
    for vec in _nullspace(differential(g)._terms for g in basis):
        combo = GraphSum()
        for j, c in vec.items():
            combo._add(basis[j], c)
        combo = combo.reduce()
        kernel.append(-combo if vec[min(vec)] < 0 else combo)
    return kernel


# The one rational literal of every file format, as the writers print it:
# digits with an optional ``/`` denominator, after an optional sign in a sum.
_UNSIGNED_RATIONAL = r"[0-9]+(?:/[0-9]+)?"
_COEFFICIENT = re.compile(rf"[-+]?{_UNSIGNED_RATIONAL}")


def _sum_lines(text: str, letter: str) -> Iterator[tuple[int, Fraction, str]]:
    """``(line number, coefficient, body)`` of each ``<coefficient> * <body>``
    line of a sum file, where ``letter`` starts the body (``g`` or ``o``)."""
    for lineno, line in significant_lines(text):
        coeff_text, star, rest = line.partition("*")
        if not star:
            raise ParseError(f"expected '<coefficient> * {letter} ...'", lineno)
        coeff_text = coeff_text.strip()
        try:
            if not _COEFFICIENT.fullmatch(coeff_text):
                raise ValueError
            coeff = Fraction(coeff_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coefficient {coeff_text!r}", lineno) from None
        yield lineno, coeff, rest


def _int_pairs(text: str, sep: str, what: str, n: int, lineno: int | None) -> list[Edge]:
    """The ``n`` pairs of a list like ``1 2, 1 3``, skipping empty chunks."""
    pairs = []
    for chunk in text.split(sep):
        chunk = chunk.strip()
        fields = chunk.split()
        if len(fields) == 2:
            u, v = fields
            pairs.append((_integer(u, lineno, "bad {} {!r}", what, chunk),
                          _integer(v, lineno, "bad {} {!r}", what, chunk)))
        elif chunk:
            raise ParseError(f"bad {what} {chunk!r}", lineno)
    if len(pairs) != n:
        raise ParseError(f"expected {_counted(n, what, what + 's')}, found {len(pairs)}", lineno)
    return pairs


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
        n, m = _graph_counts(fields[1:], lineno)
        edges = _int_pairs(edge_part, ",", "edge", m, lineno)
        try:
            total.add(new_graph(n, edges), coeff)
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
