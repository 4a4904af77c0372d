"""Polynomial multivector fields on R^d and evaluation of graph flows.

A multivector field is a polynomial in even coordinates ``x1..xd`` and
anticommuting fibre coordinates ``xi1..xid``.  Terms are stored normal
ordered (strictly increasing xi indices); reordering odd factors introduces
the usual sign per swap.  Coefficients are exact: a plain ``int`` when
integral and a ``Fraction`` otherwise, so integer inputs never pay for
rational arithmetic.  :class:`Multivector` is the third thin subclass of
the linear-combination base of :mod:`gckit.complexes`: it supplies its
dimension and a normalizer, and sums accumulate in place through the base.

The module provides the Schouten bracket, the algebraic orientation
evaluator (a product of edge operators acting on multivectors placed at
graph vertices), the direct evaluator of oriented-graph sums against a
bivector, and the identity checks tying the graph differential to the
Schouten bracket.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from .complexes import _UNSIGNED_RATIONAL, EDGE_GRAPH, GraphSum, _Sum, _exact
from .complexes import bracket, differential
from .graphs import ParseError, UnorientedGraph, automorphisms, canonicalize, inversion_count
from .graphs import significant_lines
from .orient import Orgraph, OrgraphSum, _arrows_into

__all__ = [
    "MultivectorError",
    "Multivector",
    "multivector_product",
    "xi_derivative",
    "x_derivative",
    "schouten",
    "is_bivector",
    "jacobiator",
    "or_evaluate_algebraic",
    "evaluate_orgraph",
    "verify_corollary",
    "flow_commutator_check",
    "parse_multivector",
    "parse_poisson",
    "format_multivector",
    "format_poisson",
]


class MultivectorError(ValueError):
    """Raised for arity, dimension, or grading violations."""


XExp = tuple[int, ...]
XiSet = tuple[int, ...]
TermKey = tuple[XExp, XiSet]


def _normal_order(xis: Sequence[int]) -> tuple[XiSet, int] | None:
    """Sort odd indices, returning (sorted tuple, sign); None if repeated."""
    if len(xis) < 2:
        return tuple(xis), 1
    if len(set(xis)) != len(xis):
        return None
    sign = -1 if inversion_count(xis) % 2 else 1
    return tuple(sorted(xis)), sign


class Multivector(_Sum):
    """A polynomial multivector field on R^d with exact coefficients.

    A term's key is ``(xexp, xis)``, its odd indices normal ordered; ``add``
    and ``coefficient`` take a term as that pair and range-check it first.
    """

    __slots__ = ("dimension",)

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise MultivectorError("dimension must be positive")
        super().__init__()
        self.dimension = dimension

    def _empty(self) -> "Multivector":
        return Multivector(self.dimension)

    @classmethod
    def of(cls, x) -> "Multivector":
        """``x`` if it is a multivector, else the term ``(xexp, xis)`` with coefficient 1."""
        if isinstance(x, Multivector):
            return x
        out = Multivector(len(x[0]))
        out.add(x, 1)
        return out

    def _normalize(self, key: TermKey) -> tuple[TermKey, int] | None:
        """Check one monomial and normal-order its odd factors."""
        xexp, xis = key
        if len(xexp) != self.dimension:
            raise MultivectorError("exponent vector length mismatch")
        if any(e < 0 for e in xexp):
            raise MultivectorError("negative exponent")
        if any(not 0 <= i < self.dimension for i in xis):
            raise MultivectorError("odd index out of range")
        ordered = _normal_order(xis)
        return None if ordered is None else ((tuple(xexp), ordered[0]), ordered[1])

    def _add_sum(self, other: "Multivector", factor: int | Fraction = 1) -> None:
        if self.dimension != other.dimension:
            raise MultivectorError("dimension mismatch")
        super()._add_sum(other, factor)

    def items(self) -> list[tuple[TermKey, int | Fraction]]:
        return sorted(self._terms.items())

    def xi_degrees(self) -> set[int]:
        return {len(xis) for _, xis in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.xi_degrees()) <= 1

    def components(self) -> Iterator[tuple[int, "Multivector"]]:
        """Yield (xi-degree, homogeneous part) pairs, ascending."""
        parts: dict[int, Multivector] = {}
        for key, coeff in self._terms.items():
            parts.setdefault(len(key[1]), Multivector(self.dimension))._add(key, coeff)
        yield from sorted(parts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.dimension == other.dimension and self._terms == other._terms

    def __repr__(self) -> str:
        return f"Multivector(dim={self.dimension}, {format_multivector(self)!r})"


def multivector_product(f: Multivector, g: Multivector) -> Multivector:
    """Supercommutative product; odd factor collisions vanish."""
    if f.dimension != g.dimension:
        raise MultivectorError("dimension mismatch")
    out = Multivector(f.dimension)
    for (xa, ia), ca in f._terms.items():
        for (xb, ib), cb in g._terms.items():
            merged = _normal_order(ia + ib)
            if merged is None:
                continue
            xis, sign = merged
            xexp = tuple(a + b for a, b in zip(xa, xb))
            out._add((xexp, xis), ca * cb if sign > 0 else -ca * cb)
    return out


def xi_derivative(f: Multivector, index: int) -> Multivector:
    """Left derivative along one odd coordinate."""
    out = Multivector(f.dimension)
    for (xexp, xis), coeff in f._terms.items():
        if index not in xis:
            continue
        pos = xis.index(index)
        rest = xis[:pos] + xis[pos + 1:]
        out._add((xexp, rest), coeff if pos % 2 == 0 else -coeff)
    return out


def x_derivative(f: Multivector, index: int) -> Multivector:
    """Derivative along one even coordinate."""
    out = Multivector(f.dimension)
    for (xexp, xis), coeff in f._terms.items():
        if not xexp[index]:
            continue
        lowered = xexp[:index] + (xexp[index] - 1,) + xexp[index + 1:]
        out._add((lowered, xis), coeff * xexp[index])
    return out


def schouten(f: Multivector, g: Multivector) -> Multivector:
    """The Schouten bracket [[f, g]], extended bilinearly over components.

    On the part of f of degree |f| it is ``(-1)^(|f|-1)`` times the single
    edge's operator on that part and g: ``(-1)^(|f|-1) d/dxi(f)·d/dx(g) -
    d/dx(f)·d/dxi(g)`` summed over coordinates, shifted-graded antisymmetric.
    """
    if f.dimension != g.dimension:
        raise MultivectorError("dimension mismatch")
    out = Multivector(f.dimension)
    for degree, part in f.components():
        lead = -1 if (degree - 1) % 2 else 1
        out._add_sum(_evaluate_ordered(EDGE_GRAPH, [part, g], f.dimension), lead)
    return out


def is_bivector(p: Multivector) -> bool:
    return p.xi_degrees() <= {2}


def jacobiator(p: Multivector) -> Multivector:
    """[[p, p]]; vanishes exactly when the bivector is Poisson."""
    if not is_bivector(p):
        raise MultivectorError("bivector required")
    return schouten(p, p)


# ---------------------------------------------------------------------------
# Algebraic evaluation: edge operators acting on placed multivectors.
#
# The computation happens in a product algebra with one copy of the
# coordinates per graph vertex.  It is a Multivector of dimension n*d: the
# even generator (copy, alpha) is coordinate copy*d + alpha, and likewise for
# the odd generators, so products and derivatives there are the ordinary
# ones.  Placing the arguments is a tensor product: a key concatenates one
# term of each copy, already normal ordered as later copies have larger odd
# indices.  Applying all edge operators and restricting to the diagonal
# returns a multivector on R^d.


def _edge_operator(big: Multivector, u: int, v: int, d: int) -> Multivector:
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


def _diagonal(big: Multivector, d: int) -> Multivector:
    """Identify the vertex copies: copy k's generator k*d + alpha becomes alpha."""
    out = Multivector(d)
    for (big_x, big_xis), coeff in big._terms.items():
        ordered = _normal_order([i % d for i in big_xis])
        if ordered is not None:
            xexp = tuple(sum(big_x[alpha::d]) for alpha in range(d))
            out._add((xexp, ordered[0]), coeff * ordered[1])
    return out


def _is_odd_argument(mv: Multivector) -> bool:
    return any(degree % 2 for degree in mv.xi_degrees())


def _arrangements(labels: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every distinct ordering of ``labels`` once."""
    if not labels:
        yield ()
        return
    for first in dict.fromkeys(labels):
        i = labels.index(first)
        for rest in _arrangements(labels[:i] + labels[i + 1:]):
            yield (first, *rest)


def or_evaluate_algebraic(
    graph: UnorientedGraph, args: Sequence[Multivector]
) -> Multivector:
    """Evaluate the orientation of a graph on multivectors, one per vertex.

    The ordered product of edge operators (first edge acting first) is
    applied to the placed arguments, averaged over all vertex placements.
    At most one argument may have odd components.  Equal arguments are
    interchangeable, so the average runs over the distinct arrangements of
    the arguments: each occurs ``m1! m2! ...`` times among the ``n!``
    placements when the arguments fall into classes of ``m1, m2, ...`` equal
    ones, which leaves the average unchanged.

    An automorphism σ of the graph moves the arguments of one arrangement
    to another and reorders the edges by a permutation σ_E.  Moving even
    arguments, or one odd one past even ones, costs no sign, and the edge
    operators are odd, so they anticommute: the two values differ by
    ``sign(σ_E)``.  If some σ_E is odd, the graph is a zero graph, the
    placements cancel in pairs and the average is zero.  Otherwise the value
    is constant on each orbit of the automorphism group, and one arrangement
    per orbit is evaluated, weighted by the orbit's size; a single
    arrangement is its own orbit, and the group is not searched.
    """
    n = graph.vertex_count
    if len(args) != n:
        raise MultivectorError("argument count must equal the vertex count")
    d = args[0].dimension
    if any(a.dimension != d for a in args):
        raise MultivectorError("dimension mismatch")
    if sum(_is_odd_argument(a) for a in args) > 1:
        raise MultivectorError("well-definedness precondition violated")
    labels = [next(j for j, b in enumerate(args) if a == b) for a in args]
    arrangements = list(_arrangements(labels))
    total = Multivector(d)
    if canonicalize(graph).is_zero:
        return total
    group = automorphisms(graph) if len(arrangements) > 1 else []
    seen: set[tuple[int, ...]] = set()
    for arrangement in arrangements:
        if arrangement in seen:
            continue
        orbit = {arrangement, *(tuple(arrangement[v - 1] for v in images) for images, _ in group)}
        seen |= orbit
        placed = [args[j] for j in arrangement]
        total._add_sum(_evaluate_ordered(graph, placed, d), len(orbit))
    return total * Fraction(1, len(arrangements))


def _evaluate_ordered(
    graph: UnorientedGraph, placed_args: Sequence[Multivector], d: int
) -> Multivector:
    """Edge-operator product with placed_args[i] sitting at vertex i+1."""
    big = Multivector(graph.vertex_count * d)
    for terms in itertools.product(*(mv._terms.items() for mv in placed_args)):
        keys, coeffs = zip(*terms)
        xexp = tuple(itertools.chain.from_iterable(x for x, _ in keys))
        xis = tuple(copy * d + i for copy, (_, odd) in enumerate(keys) for i in odd)
        big._add((xexp, xis), math.prod(coeffs))
    for u, v in graph.edges:
        big = _edge_operator(big, u - 1, v - 1, d)
    return _diagonal(big, d)


# ---------------------------------------------------------------------------
# Direct evaluation of oriented-graph sums against a bivector.


def _bivector_components(p: Multivector) -> dict[tuple[int, int], Multivector]:
    """Antisymmetric component 0-forms of a bivector, by index pair."""
    components: dict[tuple[int, int], Multivector] = {}
    for (xexp, (i, j)), coeff in p._terms.items():
        components.setdefault((i, j), Multivector(p.dimension))._add((xexp, ()), coeff)
        components.setdefault((j, i), Multivector(p.dimension))._add((xexp, ()), -coeff)
    return components


def _evaluate_single_orgraph(
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
    components = _bivector_components(p)
    factors: dict[tuple, Multivector] = {}
    total = Multivector(p.dimension)
    for g, coeff in OrgraphSum.of(source).items():
        total._add_sum(_evaluate_single_orgraph(g, p, components, factors), coeff)
    return total


# ---------------------------------------------------------------------------
# Identity checks.


def _flow(
    gamma: GraphSum, p: Multivector, direction: Multivector | None = None
) -> Multivector:
    """The flow of ``gamma`` at ``p``, or its derivative along ``direction``."""
    total = Multivector(p.dimension)
    for graph, coeff in gamma.items():
        n = graph.vertex_count
        if direction is None:
            args, weight = [p] * n, coeff
        else:
            args, weight = [direction] + [p] * (n - 1), n * coeff
        total._add_sum(or_evaluate_algebraic(graph, args), weight)
    return total


def _flow_sums(p: Multivector, *gammas: GraphSum | UnorientedGraph) -> list[GraphSum]:
    """The sums to flow ``p`` by, once ``p`` is a bivector, none is empty and
    each is vertex-homogeneous, checked in that order."""
    if not is_bivector(p):
        raise MultivectorError("bivector required")
    sums = [GraphSum.of(gamma) for gamma in gammas]
    if not all(sums):
        raise MultivectorError("empty graph sum")
    for gamma in sums:
        if len({graph.vertex_count for graph, _ in gamma.items()}) != 1:
            raise MultivectorError("graph sum must be vertex-homogeneous")
    return sums


def verify_corollary(gamma: GraphSum | UnorientedGraph, p: Multivector) -> bool:
    """Check the differential-to-bracket identity on a vertex-homogeneous sum.

    Orienting the bracket of the single edge with the sum and evaluating on
    copies of the bivector must equal twice the Schouten bracket of the
    bivector with the evaluated flow, minus the flow linearised along the
    bivector's self-bracket.
    """
    (gamma,) = _flow_sums(p, gamma)
    rhs = 2 * schouten(p, _flow(gamma, p))
    rhs._add_sum(_flow(gamma, p, schouten(p, p)), -1)
    return _flow(differential(gamma), p) == rhs


def flow_commutator_check(
    gamma1: GraphSum | UnorientedGraph,
    gamma2: GraphSum | UnorientedGraph,
    p: Multivector,
) -> bool:
    """Check that the graph bracket matches the commutator of the two flows.

    The commutator is the antisymmetrized linearisation: each flow is the
    direction along which the other is linearised.
    """
    gamma1, gamma2 = _flow_sums(p, gamma1, gamma2)
    lhs = _flow(gamma2, p, _flow(gamma1, p)) - _flow(gamma1, p, _flow(gamma2, p))
    return lhs == _flow(bracket(gamma1, gamma2), p)


# ---------------------------------------------------------------------------
# Text format: expressions in x1..xd, xi1..xid with rational coefficients.


# The largest exponent the parser accepts; ``(f)^e`` of a sum f costs e products.
_MAX_EXPONENT = 100

# The largest ``dim`` header accepted; every term stores a d-tuple.
_MAX_DIMENSION = 10_000

# The deepest parenthesis nesting accepted; the parser recurses per level.
_MAX_NESTING = 100

# The most term pairs one product may multiply out, about 0.1 s of work.
# ``(x1+x2+x3)^100`` needs at most 15,150 per step; the sum of five
# variables passes the bound at ``^18``, refused after 0.3 s of work.
_MAX_PRODUCT_PAIRS = 25_000

# ``bad`` takes any other character, so consecutive matches cover the text.
_TOKEN = re.compile(
    rf"\s*(?:(?P<number>{_UNSIGNED_RATIONAL})|(?P<xi>xi[0-9]+)|(?P<x>x[0-9]+)"
    r"|(?P<op>[-+*^()])|(?P<bad>\S))"
)


def _tokenize(text: str, lineno: int | None) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        column = match.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r} at column {column}", lineno)
        tokens.append((kind, match[kind], column))
    return tokens


class _ExpressionParser:
    """Recursive-descent parser producing a Multivector."""

    def __init__(self, tokens: list[tuple[str, str, int]], dimension: int,
                 lineno: int | None) -> None:
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension
        self.lineno = lineno

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression", self.lineno)
        self.pos += 1
        return token

    def fail(self, message: str, column: int) -> ParseError:
        return ParseError(f"{message} at column {column}", self.lineno)

    def too_long(self, what: str, column: int) -> ParseError:
        # Python converts at most sys.get_int_max_str_digits() digits.
        limit = sys.get_int_max_str_digits()
        return self.fail(f"{what} with more than {limit} digits", column)

    def parse(self) -> Multivector:
        depth = 0
        for _, text, column in self.tokens:
            depth += (text == "(") - (text == ")")
            if depth > _MAX_NESTING:
                raise self.fail(f"parentheses nested deeper than {_MAX_NESTING}", column)
        value = self.expression()
        token = self.peek()
        if token is not None:
            raise self.fail(f"unexpected {token[1]!r}", token[2])
        return value

    def accept(self, ops: str) -> tuple[str, str, int] | None:
        """Take the next token when it is one of the operators ``ops``."""
        token = self.peek()
        if token is None or token[0] != "op" or token[1] not in ops:
            return None
        self.pos += 1
        return token

    def product(self, a: Multivector, b: Multivector, column: int) -> Multivector:
        if len(a) * len(b) > _MAX_PRODUCT_PAIRS:
            raise self.fail(f"product above the maximum {_MAX_PRODUCT_PAIRS} term pairs", column)
        return multivector_product(a, b)

    def expression(self) -> Multivector:
        self.accept("+")
        value = self.term()
        while token := self.accept("+-"):
            right = self.term()
            value = value - right if token[1] == "-" else value + right
        return value

    def term(self) -> Multivector:
        value = self.signed()
        while token := self.accept("*"):
            value = self.product(value, self.signed(), token[2])
        return value

    def signed(self) -> Multivector:
        # A run of minus signs, counted and not recursed into, binds below ``^``.
        run = 0
        while self.accept("-"):
            run += 1
        value = self.power()
        return -value if run % 2 else value

    def power(self) -> Multivector:
        base = self.atom()
        caret = self.accept("^")
        if caret is None:
            return base
        exponent_token = self.take()
        if exponent_token[0] != "number" or "/" in exponent_token[1]:
            raise self.fail("integer exponent expected", exponent_token[2])
        digits = exponent_token[1].lstrip("0") or "0"
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            raise self.fail(
                f"exponent above the maximum {_MAX_EXPONENT}", exponent_token[2]
            )
        e = int(digits)
        if len(base) == 1:  # (c x^m xi^S)^e = c^e x^(e m) xi^S...xi^S, zero when S repeats
            ((xexp, xis), coeff), = base.items()
            return Multivector.of((tuple(m * e for m in xexp), xis * e)) * coeff**e
        value = Multivector.of(((0,) * self.dimension, ()))
        for _ in range(e):
            value = self.product(value, base, caret[2])
        return value

    def atom(self) -> Multivector:
        kind, text, column = self.take()
        if kind == "number":
            try:
                value = _exact(Fraction(text))
            except ZeroDivisionError:
                raise self.fail(f"zero denominator in {text!r}", column) from None
            except ValueError:
                raise self.too_long("number", column) from None
            return Multivector.of(((0,) * self.dimension, ())) * value
        if kind in ("x", "xi"):
            try:
                index = int(text[len(kind):])
            except ValueError:
                raise self.too_long(f"{kind} index", column) from None
            if not 1 <= index <= self.dimension:
                raise self.fail(f"{kind} index {index} out of range", column)
            unit = tuple(int(k == index - 1) for k in range(self.dimension))
            zero = (0,) * self.dimension
            return Multivector.of((unit, ()) if kind == "x" else (zero, (index - 1,)))
        if kind == "op" and text == "(":
            value = self.expression()
            if self.accept(")"):
                return value
            closing, last = self.peek(), self.tokens[-1]
            column = last[2] + len(last[1]) if closing is None else closing[2]
            raise self.fail("missing closing parenthesis", column)
        raise self.fail(f"unexpected {text!r}", column)


def parse_multivector(
    text: str, dimension: int, lineno: int | None = None
) -> Multivector:
    """Parse one expression into a multivector on R^dimension."""
    tokens = _tokenize(text, lineno)
    if not tokens:
        raise ParseError("empty expression", lineno)
    return _ExpressionParser(tokens, dimension, lineno).parse()


def parse_poisson(text: str) -> Multivector:
    """Parse a multivector file: a `dim <d>` header, then summed expressions."""
    lines = list(significant_lines(text))
    if not lines:
        raise ParseError("empty input", None)
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 2 or fields[0] != "dim" or not (fields[1].isascii() and fields[1].isdigit()):
        raise ParseError("expected header 'dim <d>'", lineno)
    digits = fields[1].lstrip("0") or "0"
    if len(digits) > len(str(_MAX_DIMENSION)) or int(digits) > _MAX_DIMENSION:
        raise ParseError(f"dimension above the maximum {_MAX_DIMENSION}", lineno)
    dimension = int(digits)
    if dimension < 1:
        raise ParseError("dimension must be positive", lineno)
    total = Multivector(dimension)
    for lineno, line in lines[1:]:
        total._add_sum(parse_multivector(line, dimension, lineno))
    return total


def _format_term(xexp: XExp, xis: XiSet, coeff: int | Fraction) -> str:
    factors: list[str] = []
    for index, exponent in enumerate(xexp):
        if exponent == 1:
            factors.append(f"x{index + 1}")
        elif exponent > 1:
            factors.append(f"x{index + 1}^{exponent}")
    factors.extend(f"xi{index + 1}" for index in xis)
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def format_multivector(mv: Multivector) -> str:
    """Render as a single expression; parses back to an equal value."""
    parts: list[str] = []
    for (xexp, xis), coeff in mv.items():
        term = _format_term(xexp, xis, coeff)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(f"- {term[1:]}")
        else:
            parts.append(f"+ {term}")
    return " ".join(parts) if parts else "0"


def format_poisson(mv: Multivector) -> str:
    """Render in the multivector file format, one term per line."""
    lines = [f"dim {mv.dimension}"]
    for (xexp, xis), coeff in mv.items():
        lines.append(_format_term(xexp, xis, coeff))
    return "\n".join(lines) + "\n"
