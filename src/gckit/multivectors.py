"""Polynomial multivector fields on R^d and evaluation of graph flows.

A multivector field is a polynomial in even coordinates ``x1..xd`` and
anticommuting fibre coordinates ``xi1..xid``.  Terms are stored normal
ordered (strictly increasing xi indices); reordering odd factors introduces
the usual sign per swap.  Coefficients are exact: a plain ``int`` when
integral and a ``Fraction`` otherwise, so integer inputs never pay for
rational arithmetic.  :class:`Multivector` is the third thin subclass of
the linear-combination base of :mod:`gckit.complexes`: it supplies its
dimension and a normalizer, and sums accumulate in place through the base.

The module provides the Schouten bracket, the paper's two formulas for
the orientation of a graph on one contraction kernel (each edge an operator
on multivectors at the vertices, or each arrow of an orgraph an operator on
copies of a bivector), and the identity checks tying the graph differential
to the Schouten bracket.  The kernel's independent checks are the oracles
of the tests.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .complexes import _UNSIGNED_RATIONAL, EDGE_GRAPH, GraphSum, _Sum, _exact
from .complexes import bracket, differential
from .graphs import ParseError, UnorientedGraph, _orbits, inversion_count, significant_lines
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
# The two formulas of Or(gamma)(P), graphs and orgraphs, on one kernel.


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
    ``sign(σ_E)``.  So :func:`gckit.graphs._orbits` applies the symmetry
    rule: a zero graph averages to zero, and otherwise one arrangement per
    orbit is evaluated, weighted by the orbit's size.  A nonzero graph's
    automorphisms are all even, so any member of an orbit will do; the
    first in the sorted list puts the arguments that differ from the most
    common one at the vertices whose edges act last, by the sum of their
    edges' positions, where they join the product latest.
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
    common = max(labels, key=labels.count)
    acting = [0] * n
    for step, (u, v) in enumerate(graph.edges):
        acting[u - 1] += step
        acting[v - 1] += step
    arrangements = sorted(
        _arrangements(labels),
        key=lambda a: -sum(acting[v] for v, j in enumerate(a) if j != common),
    )
    total = Multivector(d)
    for arrangement, size in _orbits(
        graph, arrangements, lambda images: lambda a: tuple(a[v - 1] for v in images)
    ):
        placed = [args[j] for j in arrangement]
        total._add_sum(_evaluate_ordered(graph, placed, d), size)
    return total * Fraction(1, len(arrangements))


def _evaluate_ordered(
    graph: UnorientedGraph, placed_args: Sequence[Multivector], d: int
) -> Multivector:
    """Edge-operator product with placed_args[i] sitting at vertex i+1, the
    first edge acting first: edge (u, v) is the operator of its two arrows."""
    operators = [((u - 1, v - 1), (v - 1, u - 1)) for u, v in graph.edges]
    return _contract(placed_args, operators, d)


def _contract(
    args: Sequence[Multivector], operators: Sequence[Sequence[tuple[int, int]]], d: int
) -> Multivector:
    """Apply the operators, first one first, to args[k] placed at copy k, and
    restrict to the diagonal.

    An operator is a sum of arrows (tail, head), each the sum over alpha of
    d/dx(head, alpha) d/dxi(tail, alpha).  Copy k's coordinate alpha is
    generator j = k*d + alpha of the product algebra, where a term is two
    ints: exponent j in the bit field of width w at bit j*w, and a mask with
    odd generator j at bit j, whose ascending order is the normal order.  An
    arrow clears bit tail*d + alpha, signed by the set bits below it, and
    lowers field head*d + alpha, times its exponent.  Exponents only fall,
    so with S the sum over copies of each copy's largest kept exponent, w is
    the bit length of S + 1: each alpha's fields add up to at most S, below
    the all-ones field.  The diagonal adds the copies' blocks of d fields as
    the remainder mod 2^(d*w) - 1, which has no carry and never wraps the
    sum to zero, merges the terms by that sum and the mask, and decodes each
    distinct pair once, normal-ordering each mask mod d once.

    An argument is placed, its bits ORed into the mask, just before the
    first operator that touches its copy.  That costs no sign unless it is
    odd and a xi above its copy was cleared, so an odd one comes no later
    than the first operator with a tail above its copy.  The sweep stops
    once the product is empty.  An operator lowers xi- plus x-degree by
    exactly one at each copy it touches, and no exponent goes negative, so
    argument terms below their copy's degree, the number of operators
    touching it, are dropped first.
    """
    degree = [0] * len(args)
    first: dict[int, int] = {}
    for step, op in enumerate(operators):
        for k in {k for arrow in op for k in arrow}:
            degree[k] += 1
            first.setdefault(k, step)
    kept = [[(key, c) for key, c in mv._terms.items() if len(key[1]) + sum(key[0]) >= k]
            for mv, k in zip(args, degree)]
    out = Multivector(d)
    if not all(kept):
        return out
    w = (sum(max(max(key[0]) for key, _ in terms) for terms in kept) + 1).bit_length()
    placements: list[list[int]] = [[] for _ in range(len(operators) + 1)]
    for copy, mv in enumerate(args):
        step = first.get(copy, len(operators))
        if _is_odd_argument(mv):
            step = next((i for i, op in enumerate(operators[:step])
                         if any(t > copy for t, _ in op)), step)
        placements[step].append(copy)
    field = (1 << w) - 1
    big = {(0, 0): 1}
    for step, copies in enumerate(placements):
        for copy in copies:
            packed = [(sum(e << (copy * d + a) * w for a, e in enumerate(xexp)),
                       sum(1 << copy * d + i for i in xis), c) for (xexp, xis), c in kept[copy]]
            big = {(x + y, m | odd): c * b for (x, m), c in big.items() for y, odd, b in packed}
        if step == len(operators):
            break
        moves = [(1 << t * d + a, (h * d + a) * w) for t, h in operators[step] for a in range(d)]
        acted = {}
        for (x, m), c in big.items():
            for bit, shift in moves:
                if m & bit and (power := x >> shift & field):
                    key = (x - (1 << shift), m ^ bit)
                    power = -power if (m & bit - 1).bit_count() & 1 else power
                    acted[key] = acted.get(key, 0) + c * power
        big = {key: c for key, c in acted.items() if c}
        if not big:
            return out
    modulus = (1 << d * w) - 1
    diagonal: dict[tuple[int, int], int | Fraction] = {}
    for (x, m), c in big.items():
        key = (x % modulus, m)
        diagonal[key] = diagonal.get(key, 0) + c
    orders = {}
    generators = len(args) * d
    for (x, m), c in diagonal.items():
        if m not in orders:
            orders[m] = _normal_order([j % d for j in range(generators) if m >> j & 1])
        if orders[m] is not None:
            xis, sign = orders[m]
            out._add((tuple(x >> a * w & field for a in range(d)), xis), c * sign)
    return out


def evaluate_orgraph(source: OrgraphSum | Orgraph, p: Multivector) -> Multivector:
    """Evaluate an oriented-graph sum on copies of a bivector.

    Internal vertex i of an orgraph is copy i, holding the bivector, sink t
    is copy n + t, holding E = sum of x_beta xi_beta, and each arrow, in
    ``(vertex, slot)`` order, is an operator.  An arrow into a sink leaves
    its xi_beta there, so the sinks supply the result's odd factors in sink
    order, and a repeated index vanishes in the normal order; tails are
    internal, so each E is placed at its arrow.  Each orgraph's value is
    divided by s!.  Raises :class:`gckit.orient.OrgraphError`, before any
    work, unless every sink of every orgraph receives exactly one arrow.
    """
    if not is_bivector(p):
        raise MultivectorError("bivector required")
    terms = OrgraphSum.of(source).items()
    for g, _ in terms:
        _arrows_into(g)
    d = p.dimension
    e = Multivector(d)
    for beta in range(d):
        e._add((tuple(int(a == beta) for a in range(d)), (beta,)), 1)
    total = Multivector(d)
    for g, coeff in terms:
        s, n = g.sink_count, g.internal_count
        copy = [n + t for t in range(s)] + list(range(n))
        arrows = [((i, copy[t]),) for i, pair in enumerate(g.targets) for t in pair]
        value = _contract([p] * n + [e] * s, arrows, d)
        total._add_sum(value, Fraction(coeff) / math.factorial(s))
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
