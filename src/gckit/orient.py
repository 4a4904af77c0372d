"""Oriented graphs, orientation witnesses, and the orientation morphism.

An unoriented graph on ``n`` vertices with ``e`` edges is oriented by
directing every edge so that no vertex emits more than two arrows, then
topping up every vertex to out-degree exactly 2 with arrows into labeled
sinks ``0..s-1`` where ``s = 2n - e``.  Each such completed choice is an
:class:`OrientationWitness`; its sign is the parity of the permutation
taking the reference order (sinks first, then body edges) to the
vertex-by-vertex reading of the witness, whose out-items each witness
computes once, in one pass over the edges.  Witnesses accumulate onto
normalized :class:`Orgraph` encodings, giving the signed multiplicities of
the orientation morphism; :func:`orient` normalizes one witness per
automorphism orbit, by the symmetry rule of :func:`gckit.graphs._orbits`.
The multiplicities are held in an :class:`OrgraphSum`, which is
:class:`gckit.complexes.GraphSum` with :func:`normalize_orgraph` in place of
``canonicalize``: both are thin subclasses of one linear-combination base,
as ``Multivector`` is, and ``reduce`` lives on that base.

:func:`crosscheck_rules` checks the combinatorial sign rules against the
readout parities.  Its :class:`RulesReport` is the report's lines plus the
mismatches found: each check writes its line as soon as it finishes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import combinations
from math import factorial, prod

from .graphs import ParseError, UnorientedGraph, _Frozen, inversion_count, significant_lines
from .graphs import _integer, _least_labeling, _orbits
from .complexes import GraphSum, _Sum, _int_pairs, _sum_lines

__all__ = [
    "Orgraph",
    "OrgraphError",
    "SkewSymmetryError",
    "NormalizedOrgraph",
    "OrientationWitness",
    "OrgraphSum",
    "new_orgraph",
    "shape",
    "sink_swap",
    "normalize_orgraph",
    "enumerate_orientations",
    "orientation_sign",
    "orient",
    "encoding_inversions",
    "rule1_sign",
    "rule2_transition_sign",
    "elementary_moves",
    "crosscheck_rules",
    "fold_sink_swap",
    "parse_orgraph",
    "format_orgraph",
    "parse_orgraph_sum",
    "format_orgraph_sum",
    "RulesReport",
]


class OrgraphError(ValueError):
    """An oriented-graph value or operation violates its contract."""


class SkewSymmetryError(OrgraphError):
    """A sum fails the sink-swap pairing contract ("skew-symmetry violated")."""


class Orgraph(_Frozen):
    """Directed graph of two-arrow vertices over labeled sinks.

    Sinks carry labels ``0..sink_count-1``; internal vertex ``i`` (0-based
    position in ``targets``) carries label ``sink_count + i`` and emits
    exactly the two arrows listed in its ordered pair.  Swapping the pair at
    one vertex negates the orgraph.
    """

    __slots__ = ("sink_count", "targets")

    def __init__(self, sink_count: int, targets: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "sink_count", sink_count)
        object.__setattr__(self, "targets", targets)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sink_count, self.targets) == (other.sink_count, other.targets)

    def __hash__(self) -> int:
        return hash((self.sink_count, self.targets))

    @property
    def internal_count(self) -> int:
        return len(self.targets)

    def sort_key(self) -> tuple:
        return (self.sink_count, len(self.targets), self.targets)

    def __repr__(self) -> str:
        return f"Orgraph[{self.sink_count}]{encode_compact(self)}"


def new_orgraph(
    targets: Iterable[Iterable[int]], sink_count: int = 2
) -> Orgraph:
    """Build an orgraph, validating label ranges and forbidding self-arrows."""
    if sink_count < 0:
        raise OrgraphError(f"sink count must be nonnegative, got {sink_count}")
    pairs = tuple(tuple(pair) for pair in targets)
    n = len(pairs)
    if n < 1:
        raise OrgraphError("orgraph needs at least one internal vertex")
    top = sink_count + n
    for i, pair in enumerate(pairs):
        if len(pair) != 2:
            raise OrgraphError(f"vertex {sink_count + i} must emit exactly 2 arrows")
        for t in pair:
            if not (0 <= t < top):
                raise OrgraphError(f"target {t} out of range 0..{top - 1}")
            if t == sink_count + i:
                raise OrgraphError(f"self-arrow at vertex {t}")
    return Orgraph(sink_count, pairs)


def _arrows_into(g: Orgraph) -> list[list[tuple[int, int]]]:
    """The ``(vertex, slot)`` of every arrow into each label, sinks first.

    Raises :class:`OrgraphError` for the first sink that does not receive
    exactly one arrow.  The internal vertices emit only twice as many arrows
    as there are of them, so a larger sink count fails within that many
    sinks, before any table is built.
    """
    into: dict[int, list[tuple[int, int]]] = {}
    for i, pair in enumerate(g.targets):
        for slot, t in enumerate(pair):
            into.setdefault(t, []).append((i, slot))
    for sink in range(g.sink_count):
        if len(into.get(sink, ())) != 1:
            raise OrgraphError(f"sink {sink} must receive exactly one arrow")
    return [into.get(t, []) for t in range(g.sink_count + g.internal_count)]


def shape(g: Orgraph) -> str:
    """``"Lambda"`` if one vertex emits both sink arrows, else ``"Pi"``.

    Exchanging the sink labels keeps the shape, and an orgraph and its sink
    swap are zero together: internal relabelings commute with the exchange,
    so one that maps an orgraph to itself maps its sink swap to itself,
    reversing the same pairs, and a repeated target stays repeated.
    """
    if g.sink_count != 2:
        raise OrgraphError("not a bivector orgraph: needs exactly 2 sinks")
    [(first, _)], [(second, _)] = _arrows_into(g)[:2]
    return "Lambda" if first == second else "Pi"


def sink_swap(g: Orgraph) -> Orgraph:
    """Exchange the two sink labels, keeping every pair's order."""
    if g.sink_count != 2:
        raise OrgraphError("sink swap needs exactly 2 sinks")
    return Orgraph(
        2, tuple(tuple(1 - t if t < 2 else t for t in pair) for pair in g.targets)
    )


class NormalizedOrgraph(_Frozen):
    """Canonical encoding, the sign linking the input presentation to it,
    whether the orgraph is zero, and the internal-vertex order realizing the
    canonical encoding (``order[k]`` = input position of the vertex that
    received canonical label ``sink_count + k``)."""

    __slots__ = ("orgraph", "sign", "is_zero", "order")

    def __init__(
        self, orgraph: Orgraph, sign: int, is_zero: bool, order: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "orgraph", orgraph)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "is_zero", is_zero)
        object.__setattr__(self, "order", order)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.orgraph, self.sign, self.is_zero, self.order) == (
            other.orgraph, other.sign, other.is_zero, other.order,
        )

    def __hash__(self) -> int:
        return hash((self.orgraph, self.sign, self.is_zero, self.order))


_NORMALIZE_CACHE: dict[tuple[int, tuple[tuple[int, int], ...]], NormalizedOrgraph] = {}


def normalize_orgraph(g: Orgraph) -> NormalizedOrgraph:
    """Minimal encoding over internal relabelings, with pair-swap parity sign.

    The canonical encoding is the lexicographically smallest flattened digit
    tuple over all relabelings of internal vertices (sinks stay fixed), with
    every pair presented in ascending order.  Moving whole vertex pairs is
    sign-free (each pair is two consecutive entries of the edge wedge);
    presenting a pair in swapped order costs one sign.  The orgraph is zero
    when a pair repeats a target, or when two relabelings reach the minimal
    encoding with opposite swap signs, read by :func:`gckit.graphs._least_labeling`.
    """
    key = (g.sink_count, g.targets)
    cached = _NORMALIZE_CACHE.get(key)
    if cached is not None:
        return cached
    s, n = g.sink_count, g.internal_count

    def row(v: int, label: dict[int, int]) -> tuple[int, int]:
        a, b = g.targets[v]
        a = a if a < s else s + label[a - s]
        b = b if b < s else s + label[b - s]
        return (a, b) if a < b else (b, a)

    def swaps(label: dict[int, int]) -> int:
        return sum((a if a < s else s + label[a - s]) > (b if b < s else s + label[b - s])
                   for a, b in g.targets)

    if any(a == b for a, b in g.targets):
        pairs = tuple((a, b) if a <= b else (b, a) for a, b in sorted(g.targets))
        sign, is_zero, order = 1, True, tuple(range(n))
    else:
        neighbours = {v: {t - s for t in g.targets[v] if t >= s} for v in range(n)}
        label_of, sign, is_zero = _least_labeling(neighbours, row, swaps)
        order = tuple(sorted(range(n), key=label_of.__getitem__))
        pairs = tuple(row(v, label_of) for v in order)
    result = NormalizedOrgraph(Orgraph(s, pairs), sign, is_zero, order)
    _NORMALIZE_CACHE[key] = result
    return result


class OrientationWitness(_Frozen):
    """One admissible orientation of a graph, with sinks attached.

    ``mask`` directs body edge ``i`` from its smaller endpoint when bit ``i``
    is 0 and from its larger endpoint when it is 1.  ``sinks[v-1]`` lists the
    sink labels emitted by vertex ``v`` in ascending order.  The global item
    order gives sink label ``k`` the id ``k`` and body edge ``i`` the id
    ``sink_count + i``; every vertex emits exactly two items.  A witness
    computes its out-items once, and :meth:`items`, :meth:`readout` and
    :meth:`orgraph` read them from there; the ``__dict__`` slot holds them.
    """

    __slots__ = ("graph", "sink_count", "mask", "sinks", "__dict__")

    def __init__(
        self,
        graph: UnorientedGraph,
        sink_count: int,
        mask: int,
        sinks: tuple[tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "sink_count", sink_count)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "sinks", sinks)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.graph, self.sink_count, self.mask, self.sinks) == (
            other.graph, other.sink_count, other.mask, other.sinks,
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.sink_count, self.mask, self.sinks))

    @cached_property
    def _arrows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Item ids and their target labels, vertex by vertex, two per vertex.

        Each vertex's items come id-ascending.  Sink items target the sink's
        own label; body items target the head vertex's internal label
        ``head + sink_count - 1``.  Computed once, in one pass over the edges,
        and kept as two flat tuples.
        """
        s = self.sink_count
        out = [[(k, k) for k in ks] for ks in self.sinks]
        for i, (tail, head) in enumerate(_directed(self.graph.edges, self.mask)):
            out[tail - 1].append((s + i, head + s - 1))
        ids, targets = zip(*(item for items in out for item in items))
        return ids, targets

    def items(self, v: int) -> tuple[tuple[int, int], ...]:
        """Out-items of vertex ``v`` as ``(id, target label)``, id-ascending."""
        ids, targets = self._arrows
        return tuple(zip(ids[2 * v - 2 : 2 * v], targets[2 * v - 2 : 2 * v]))

    def readout(self) -> tuple[int, ...]:
        """Item ids vertex by vertex; a permutation of ``0..2n-1``."""
        return self._arrows[0]

    def orgraph(self) -> Orgraph:
        targets = self._arrows[1]
        return Orgraph(self.sink_count, tuple(zip(targets[::2], targets[1::2])))

    def shape(self) -> str:
        if self.sink_count != 2:
            raise OrgraphError("shape needs exactly 2 sinks")
        return "Lambda" if any(len(ks) == 2 for ks in self.sinks) else "Pi"

    def sink_swapped(self) -> "OrientationWitness":
        """The witness with sink labels 0 and 1 exchanged."""
        if self.sink_count != 2:
            raise OrgraphError("sink swap needs exactly 2 sinks")
        swapped = tuple(tuple(sorted(1 - k for k in ks)) for ks in self.sinks)
        return OrientationWitness(self.graph, 2, self.mask, swapped)

    def sort_key(self) -> tuple:
        return (self.mask, self.sinks)


def _directed(
    edges: Iterable[tuple[int, int]], mask: int
) -> Iterator[tuple[int, int]]:
    """``(tail, head)`` of each edge ``(u, v)``: from ``v`` when bit ``i`` is set."""
    for i, (u, v) in enumerate(edges):
        yield (v, u) if (mask >> i) & 1 else (u, v)


def _label_distributions(
    labels: tuple[int, ...], deficits: list[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ways to split ``labels`` into per-vertex groups of given sizes."""
    if not deficits:
        if not labels:
            yield ()
        return
    head, rest = deficits[0], deficits[1:]
    for chosen in combinations(labels, head):
        remaining = tuple(x for x in labels if x not in chosen)
        for tail in _label_distributions(remaining, rest):
            yield (chosen,) + tail


# The most witnesses :func:`enumerate_orientations` builds; ``g 5 0`` has 113,400.
_MAX_WITNESSES = 200_000


def enumerate_orientations(g: UnorientedGraph) -> list[OrientationWitness]:
    """All orientation witnesses of ``g``.

    Every vertex must emit exactly two items, so the number of sinks is
    forced to ``2n - e``.  Sink labels are distributed over the deficient
    vertices in every possible way, each distribution a separate witness.
    Their count, ``s! / prod(deficit!)`` per edge mask, is added up before
    they are built, and :class:`OrgraphError` is raised past ``_MAX_WITNESSES``.
    Masks ascend, each read from its last edge: when edge ``i`` gives a vertex
    its third arrow, every mask that agrees on bits ``e-1..i`` is skipped.
    Within a mask the distributions come in ``combinations`` order, so the
    witnesses are in :meth:`OrientationWitness.sort_key` order.
    """
    n, e = g.vertex_count, g.edge_count
    s = 2 * n - e
    if s < 0:
        return []
    labels = tuple(range(s))
    witnesses: list[OrientationWitness] = []
    count = 0
    mask = 0
    while mask < 1 << e:
        outdeg = [0] * (n + 1)
        for i in reversed(range(e)):
            tail = g.edges[i][(mask >> i) & 1]
            outdeg[tail] += 1
            if outdeg[tail] > 2:
                mask = ((mask >> i) + 1) << i
                break
        else:
            deficits = [2 - outdeg[v] for v in range(1, n + 1)]
            count += factorial(s) // prod(map(factorial, deficits))
            if count > _MAX_WITNESSES:
                raise OrgraphError(f"orientation witnesses above the maximum {_MAX_WITNESSES}")
            for assignment in _label_distributions(labels, deficits):
                witnesses.append(OrientationWitness(g, s, mask, assignment))
            mask += 1
    return witnesses


def orientation_sign(w: OrientationWitness) -> int:
    """Sign with which the witness's orgraph enters the orientation.

    The readout permutation parity, corrected by one factor of (-1) per
    (edge, sink) pair: each edge consumes one odd slot from the left of the
    surviving sink slots when the edge operators act in sequence.
    """
    e = w.graph.edge_count
    return -1 if (inversion_count(w.readout()) + e * w.sink_count) % 2 else 1


class OrgraphSum(_Sum):
    """Finite exact linear combination of normalized orgraphs."""

    __slots__ = ()

    @staticmethod
    def _normalize(g: Orgraph) -> tuple[Orgraph, int] | None:
        norm = normalize_orgraph(g)
        return None if norm.is_zero else (norm.orgraph, norm.sign)


def _witness_image(g: UnorientedGraph) -> Callable:
    """The map on ``(mask, sinks)`` witness points of each automorphism ``images``.

    Bit ``j`` of the image mask is set when the image of edge ``i``'s tail is
    the second endpoint of the image edge ``j``, and ``sinks[v-1]`` moves to
    the image vertex.
    """
    index = {edge: j for j, edge in enumerate(g.edges)}

    def image(images: tuple[int, ...]) -> Callable:
        flips, bits = 0, []
        for i, (u, v) in enumerate(g.edges):
            edge = (images[u - 1], images[v - 1])
            if edge not in index:
                edge = edge[::-1]
                flips |= 1 << i
            bits.append(1 << index[edge])
        source = [0] * g.vertex_count
        for v, w in enumerate(images):
            source[w - 1] = v
        return lambda point: (
            sum(bit for i, bit in enumerate(bits) if (point[0] ^ flips) >> i & 1),
            tuple(point[1][v] for v in source),
        )

    return image


def orient(x: UnorientedGraph | GraphSum) -> OrgraphSum:
    """The orientation morphism: signed multiplicities of normalized orgraphs.

    Each witness contributes its permutation-parity sign times the sign of
    normalizing its orgraph; contributions accumulate per normalized
    encoding, and zero orgraphs are dropped.  Extended linearly to sums.

    The witnesses are enumerated first, so the witness bound fires before
    anything else.  Then :func:`gckit.graphs._orbits` applies the symmetry
    rule to them: a zero graph orients to the empty sum, and otherwise one
    witness per automorphism orbit is normalized, weighted by the orbit's
    size.
    """
    total = OrgraphSum()
    if isinstance(x, GraphSum):
        for g, c in x.items():
            total._add_sum(orient(g), c)
        return total
    witness = {(w.mask, w.sinks): w for w in enumerate_orientations(x)}
    for point, size in _orbits(x, list(witness), _witness_image(x)):
        w = witness[point]
        total.add(w.orgraph(), size * orientation_sign(w))
    return total


def _pulled_back(
    w: OrientationWitness,
) -> tuple[NormalizedOrgraph, list[tuple[tuple[int, int], ...]]]:
    """The witness's normalization, and its out-items in normalized order.

    Row ``k`` holds the out-items of the vertex that received normalized
    label ``sink_count + k``, with every body target relabeled to its
    normalized label, so row ``k`` targets the pair ``targets[k]`` of the
    normalized encoding.
    """
    norm = normalize_orgraph(w.orgraph())
    s = w.sink_count
    label_of = [0] * len(norm.order)
    for slot, original in enumerate(norm.order):
        label_of[original] = s + slot
    rows = [
        tuple(
            (iid, t if t < s else label_of[t - s]) for iid, t in w.items(original + 1)
        )
        for original in norm.order
    ]
    return norm, rows


def encoding_inversions(w: OrientationWitness) -> int:
    """Vertices at which the witness realizes its normalized pair Left > Right.

    Each internal vertex of the normalized encoding lists an ordered (Left,
    Right) target pair; pulling that pair back along the witness's
    normalization order matches it with two of the witness's out-items.
    This counts the vertices whose Left item carries a larger id than the
    Right item (vertices whose two targets coincide are skipped).
    """
    norm, rows = _pulled_back(w)
    count = 0
    for (left, right), row in zip(norm.orgraph.targets, rows):
        if left != right:
            id_of = {t: iid for iid, t in row}
            count += id_of[left] > id_of[right]
    return count


def rule1_sign(w: OrientationWitness) -> int:
    """Sink-companion comparison sign for a Pi-shaped witness.

    With A the body edge emitted alongside sink 0 and B the body edge
    emitted alongside sink 1, the sign is -1 when A precedes B in the edge
    order and +1 otherwise.
    """
    if w.shape() != "Pi":
        raise OrgraphError("rule 1 applies to Pi-shaped witnesses only")
    # A Pi sink's vertex emits it and one body item: the other id of its readout pair.
    ids = w.readout()
    return -1 if ids[ids.index(0) ^ 1] < ids[ids.index(1) ^ 1] else 1


def rule2_transition_sign(
    w1: OrientationWitness, w2: OrientationWitness
) -> int:
    """Reversal-count sign between two witnesses of one graph.

    One sign per body arrow whose direction differs, times one more sign
    when the shapes (Lambda vs Pi) differ.
    """
    if w1.graph != w2.graph:
        raise OrgraphError("witnesses orient different source graphs")
    reversals = (w1.mask ^ w2.mask).bit_count()
    sign = -1 if reversals % 2 else 1
    if w1.shape() != w2.shape():
        sign = -sign
    return sign


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
    s, ids = w.sink_count, w.readout()

    def traded(v1: int, id1: int, v2: int, id2: int, mask: int) -> tuple:
        """Item ``id1`` moves from ``v1`` to ``v2`` and ``id2`` the other way."""
        lo, hi = min(id1, id2), max(id1, id2)
        sign = -1
        sinks = list(w.sinks)
        for v, gone, come in ((v1, id1, id2), (v2, id2, id1)):
            if lo < ids[ids.index(gone) ^ 1] < hi:  # the other id of its readout pair
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
    sign the pairing contract expects) and pass through unchanged.  Terms
    are read in key order, so of each Pi pair the smaller encoding comes
    first: it is kept, and its partner is skipped.  A term's partner is
    never zero, since an orgraph and its sink swap are zero together (see
    :func:`shape`).
    """
    out = OrgraphSum()
    partners: set[Orgraph] = set()
    for key, q in s.items():
        if key in partners:
            continue
        if shape(key) == "Pi":
            norm = normalize_orgraph(sink_swap(key))
            if s._terms.get(norm.orgraph, 0) != -norm.sign * q:
                if norm.orgraph == key:
                    problem = f"self-paired term {key!r} with even swap sign"
                elif norm.orgraph not in s._terms:
                    problem = f"term {key!r} has no sink-swapped partner"
                else:
                    problem = f"{key!r} and its partner have incompatible coefficients"
                raise SkewSymmetryError(f"skew-symmetry violated: {problem}")
            partners.add(norm.orgraph)
        out._add(key, q)
    return out


# ---------------------------------------------------------------------------
# Rule crosscheck machinery


def encode_compact(g: Orgraph) -> str:
    """Compact pair encoding, e.g. ``(0,1;2,4;2,5;2,3)``."""
    return "(" + ";".join(f"{a},{b}" for a, b in g.targets) + ")"


def _sign_glyph(sign: int) -> str:
    return "(+)" if sign > 0 else "(-)"


def _counted(n: int, one: str, many: str) -> str:
    return f"{n} {one if n == 1 else many}"


class RulesReport:
    """Outcome of checking the sign rules against permutation parities.

    ``lines`` holds the report's lines in print order, each written as soon
    as its check finished; ``mismatches`` holds the failures, in the order
    the checks ran.  Both start as new empty lists.  Reports compare by
    value and, being mutable, are not hashable.
    """

    __slots__ = ("lines", "mismatches")

    def __init__(
        self, lines: list[str] | None = None, mismatches: list[str] | None = None
    ) -> None:
        self.lines = [] if lines is None else lines
        self.mismatches = [] if mismatches is None else mismatches

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lines, self.mismatches) == (other.lines, other.mismatches)

    def __repr__(self) -> str:
        return f"RulesReport(lines={self.lines!r}, mismatches={self.mismatches!r})"

    @property
    def consistent(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        verdict = "result: " + ("consistent" if self.consistent else "INCONSISTENT")
        return "\n".join(
            self.lines + [f"mismatch: {m}" for m in self.mismatches] + [verdict]
        )


def _transposition_counts(w: OrientationWitness) -> tuple[int, int]:
    """Transposition counts of a witness presentation, in two conventions.

    Both read the witness's edge ids (sink edges first, then body edges in
    wedge order) against the normalized vertex order of its class.  The
    edge-order count lists each vertex's two ids ascending; the
    encoding-order count pulls the sink ids to the front and lists each
    vertex's body ids in the order the canonical encoding lists the targets.
    """
    _, rows = _pulled_back(w)
    s = w.sink_count
    seq_edge = [iid for row in rows for iid, _ in row]
    seq_enc = list(range(s)) + [
        iid
        for row in rows
        for iid, _ in sorted((it for it in row if it[0] >= s), key=lambda it: it[1])
    ]
    return inversion_count(seq_edge), inversion_count(seq_enc)


def crosscheck_rules(g: UnorientedGraph) -> RulesReport:
    """Check the combinatorial sign rules against permutation parities.

    Any two witnesses of one graph are joined by a chain of elementary
    moves, so the core check verifies the move-level sign law on every
    admissible move of every witness: the rule-derived sign of the move
    must equal the ratio of the endpoint parities.  Relative signs of
    arbitrary admissible pairs then follow by telescoping along a chain.

    For every graph, not only for two-sink ones, the report also checks
    (i) that the witnesses of one normalized class contribute with one
    common sign.  The orientation of a zero graph vanishes, so its
    witnesses cancel inside every class they reach: a zero graph such as
    the three-vertex path, the star K1,3 or K5 reports ``class consistency:
    MISMATCH`` and the report is inconsistent.  For two-sink graphs it additionally checks that (ii) a
    Pi witness and its sink-label exchange have opposite parities and the
    two classes of a sink-swapped pair carry coefficients related by minus
    the swap's normalization sign, and (iii) each displayed class is
    summarized by a single transition from the reference witness --
    sink-companion dressing, one sign per body reversal, one per shape
    change -- whenever some member admits a consistent one-step summary; a
    class with no such summary is presented as a walk over elementary moves
    whose transported sign must reproduce the parity ratio of its
    endpoints.  The report also lists each displayed class's transposition
    counts in both reading conventions, taken at the class's chain or walk
    witness (at the reference witness for its own class).

    The checks run in the order the report prints them -- class
    consistency, sink swap, class pairing, moves, chains -- and each writes
    its line as soon as it finishes.

    Unlike :func:`orient`, it normalizes every witness rather than one per
    automorphism orbit: class consistency checks the sign law that the
    orbit argument relies on, and the moves and chains run between
    individual witnesses.
    """
    report = RulesReport()
    lines, mismatches = report.lines, report.mismatches

    def verdict(label: str, found: list[str]) -> None:
        lines.append(f"{label}: " + ("MISMATCH" if found else "ok"))
        mismatches.extend(found)

    witnesses = enumerate_orientations(g)
    eps_of = {w: orientation_sign(w) for w in witnesses}
    contribution: dict[OrientationWitness, int] = {}
    members: dict[Orgraph, list[OrientationWitness]] = {}
    for w in witnesses:
        norm = normalize_orgraph(w.orgraph())
        if not norm.is_zero:
            contribution[w] = eps_of[w] * norm.sign
            members.setdefault(norm.orgraph, []).append(w)
    classes = sorted(members, key=Orgraph.sort_key)
    coefficient = {key: sum(contribution[w] for w in ws) for key, ws in members.items()}

    two_sinks = 2 * g.vertex_count - g.edge_count == 2
    displayed: list[Orgraph] = []
    head = f"witnesses: {len(witnesses)}"
    if two_sinks:
        lambdas = sum(w.shape() == "Lambda" for w in witnesses)
        head += f" (Lambda {lambdas}, Pi {len(witnesses) - lambdas})"
    lines.extend([head, f"classes: {len(members)}"])

    verdict("class consistency", [
        f"class {encode_compact(key)} mixes contribution signs"
        for key in classes
        if len({contribution[w] for w in members[key]}) > 1
    ])

    if two_sinks:
        verdict("sink-order exchange flips parity", [
            f"sink swap of witness (mask {w.mask}, sinks {w.sinks})"
            " does not flip parity"
            for w in witnesses
            if w.shape() == "Pi" and eps_of[w.sink_swapped()] != -eps_of[w]
        ])
        # The displayed classes, whose signs the reversal rule is expected to
        # fix: the Lambda classes and the smaller class of each Pi pair, the
        # other one's sign following from the pairing contract.
        unpaired = []
        for key in classes:
            if shape(key) == "Pi":
                partner = normalize_orgraph(sink_swap(key))
                expected = -partner.sign * coefficient[key]
                found = coefficient.get(partner.orgraph, 0)
                if found != expected:
                    unpaired.append(
                        f"class {encode_compact(key)}: sink-swapped partner carries"
                        f" {found}, pairing contract expects {expected}"
                    )
                if key.sort_key() > partner.orgraph.sort_key():
                    continue
            displayed.append(key)
        verdict("sink-swap class pairing", unpaired)

    # every elementary move of every witness: rule sign vs parity ratio
    neighbours: dict[OrientationWitness, list[tuple[OrientationWitness, int]]] = {}
    moves = 0
    wrong: list[str] = []
    for w in witnesses:
        for target, predicted in elementary_moves(w):
            moves += 1
            target_eps = eps_of.get(target)
            if target_eps is None:
                wrong.append(
                    f"move from witness (mask {w.mask}, sinks {w.sinks})"
                    " leaves the witness set"
                )
                continue
            neighbours.setdefault(w, []).append((target, predicted))
            if predicted != eps_of[w] * target_eps:
                wrong.append(
                    f"move (mask {w.mask}, sinks {w.sinks})"
                    f" -> (mask {target.mask}, sinks {target.sinks}): rule sign"
                    f" {_sign_glyph(predicted)}, parity ratio"
                    f" {_sign_glyph(eps_of[w] * target_eps)}"
                )
    verdict(f"elementary move signs ({moves} moves)", wrong)

    if not two_sinks or not contribution:
        return report
    # reference witness: the Lambda witness of minimal readout inversions
    pool = [w for w in contribution if w.shape() == "Lambda"] or list(contribution)
    ref = min(pool, key=lambda w: (inversion_count(w.readout()), w.sort_key()))
    # breadth-first parity transport from the reference witness
    transport = {ref: (1, 0)}
    queue = deque([ref])
    while queue:
        cur = queue.popleft()
        cur_sign, cur_depth = transport[cur]
        for dst, move_sign in neighbours.get(cur, ()):
            if dst not in transport:
                transport[dst] = (cur_sign * move_sign, cur_depth + 1)
                queue.append(dst)

    counts_of = {
        w: _transposition_counts(w) for key in displayed for w in members[key]
    }
    ref_class = normalize_orgraph(ref.orgraph()).orgraph
    designated = {ref_class: ref}
    for key in displayed:
        if key == ref_class:
            continue
        head = (
            f"chain -> {encode_compact(key)} [{shape(key)}, coeff {coefficient[key]},"
            f" {_counted(len(members[key]), 'witness', 'witnesses')},"
        )
        # Among the minimal-reversal transitions, present the one with the
        # richest encoding-order bookkeeping; remaining ties go to fewer
        # edge-order transpositions, then the smallest witness.
        candidates = sorted(
            members[key],
            key=lambda w: (
                (ref.mask ^ w.mask).bit_count(),
                -counts_of[w][1],
                counts_of[w][0],
                w.sort_key(),
            ),
        )
        for target in candidates:
            r1 = prod(rule1_sign(w) for w in (ref, target) if w.shape() == "Pi")
            predicted = r1 * rule2_transition_sign(ref, target)
            if predicted == contribution[ref] * contribution[target]:
                designated[key] = target
                reversals = (ref.mask ^ target.mask).bit_count()
                shape_changed = ref.shape() != target.shape()
                lines.append(
                    f"{head} {_counted(reversals, 'reversal', 'reversals')}]:"
                    f" {_sign_glyph(r1)}{_sign_glyph(-1 if reversals % 2 else 1)}"
                    f"{_sign_glyph(-1 if shape_changed else 1)}"
                    f" = {_sign_glyph(predicted)} vs parity {_sign_glyph(predicted)} ok"
                )
                break
        else:
            # No single transition summarizes this class; transport the
            # parity ratio move by move instead.
            walker = designated[key] = members[key][0]
            if walker not in transport:
                mismatches.append(
                    f"class {encode_compact(key)} is not connected to the"
                    " reference witness by elementary moves"
                )
                continue
            walk_sign, depth = transport[walker]
            actual = eps_of[ref] * eps_of[walker]
            lines.append(
                f"{head} walk of {_counted(depth, 'move', 'moves')}]:"
                f" transported {_sign_glyph(walk_sign)}"
                f" vs witness parity ratio {_sign_glyph(actual)} "
                + ("ok" if walk_sign == actual else "MISMATCH")
            )
            if walk_sign != actual:
                mismatches.append(
                    f"class {encode_compact(key)}: transported move sign"
                    " disagrees with the witness parity ratio"
                )
    for key in displayed:
        by_edge, by_enc = counts_of[designated[key]]
        lines.append(
            f"transpositions -> {encode_compact(key)}:"
            f" edge-order {by_edge}, encoding-order {by_enc}"
        )
    return report


# ---------------------------------------------------------------------------
# Text formats


def _parse_orgraph_body(body: str, lineno: int | None) -> Orgraph:
    head, colon, pair_part = body.partition(":")
    fields = head.split()
    if not colon or not fields or fields[0] != "o" or len(fields) not in (2, 3):
        raise ParseError("expected 'o <n> [<sinks>] : L R ; ...'", lineno)
    message = "vertex/sink counts must be integers"
    n = _integer(fields[1], lineno, message)
    s = _integer(fields[2], lineno, message) if len(fields) == 3 else 2
    if n < 1:
        raise ParseError("orgraph needs at least one internal vertex", lineno)
    pairs = _int_pairs(pair_part, ";", "target pair", lineno)
    if len(pairs) != n:
        raise ParseError(f"expected {n} target pairs, found {len(pairs)}", lineno)
    try:
        return new_orgraph(pairs, s)
    except OrgraphError as exc:
        raise ParseError(str(exc), lineno) from exc


def parse_orgraph(text: str) -> Orgraph:
    """Parse a single orgraph: ``o <n> [<sinks>] : L R ; L R ; ...``."""
    lines = list(significant_lines(text))
    if len(lines) != 1:
        raise ParseError("expected exactly one orgraph line")
    lineno, line = lines[0]
    return _parse_orgraph_body(line, lineno)


def format_orgraph(g: Orgraph) -> str:
    """Render an orgraph in the format accepted by :func:`parse_orgraph`."""
    head = f"o {g.internal_count}" + ("" if g.sink_count == 2 else f" {g.sink_count}")
    return head + " : " + " ; ".join(f"{a} {b}" for a, b in g.targets)


def parse_orgraph_sum(text: str) -> OrgraphSum:
    """Parse a combination, one ``<rational> * o ...`` term per line."""
    total = OrgraphSum()
    for lineno, coeff, rest in _sum_lines(text, "o"):
        total.add(_parse_orgraph_body(rest.strip(), lineno), coeff)
    return total


def format_orgraph_sum(s: OrgraphSum) -> str:
    """Render a sum in the format accepted by :func:`parse_orgraph_sum`."""
    return "\n".join(f"{c} * {format_orgraph(g)}" for g, c in s.items())
