"""Oriented graphs, orientation witnesses, and the orientation morphism.

An unoriented graph on ``n`` vertices with ``e`` edges is oriented by
directing every edge so that no vertex emits more than two arrows, then
topping up every vertex to out-degree exactly 2 with arrows into labeled
sinks ``0..s-1`` where ``s = 2n - e``.  Each such completed choice is an
:class:`OrientationWitness`; its sign is the parity of the permutation
taking the reference order (sinks first, then body edges) to the
vertex-by-vertex reading of the witness.  Witnesses accumulate onto
normalized :class:`Orgraph` encodings, giving the signed multiplicities of
the orientation morphism.  They are held in an :class:`OrgraphSum`, which is
:class:`gckit.complexes.GraphSum` with :func:`normalize_orgraph` in place of
``canonicalize``: both are thin subclasses of one linear-combination base,
and their coefficients stay plain ``int`` while they are integral.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Union

from .graphs import ParseError, UnorientedGraph, inversion_count, significant_lines
from .graphs import _minimal_labelings
from .complexes import GraphSum, _Sum, _sum_lines

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


@dataclass(frozen=True)
class Orgraph:
    """Directed graph of two-arrow vertices over labeled sinks.

    Sinks carry labels ``0..sink_count-1``; internal vertex ``i`` (0-based
    position in ``targets``) carries label ``sink_count + i`` and emits
    exactly the two arrows listed in its ordered pair.  Swapping the pair at
    one vertex negates the orgraph.
    """

    sink_count: int
    targets: tuple[tuple[int, int], ...]

    @property
    def internal_count(self) -> int:
        return len(self.targets)

    def flattened(self) -> tuple[int, ...]:
        return tuple(t for pair in self.targets for t in pair)

    def sort_key(self) -> tuple:
        return (self.sink_count, len(self.targets), self.flattened())

    def __repr__(self) -> str:
        pairs = ";".join(f"{a},{b}" for a, b in self.targets)
        return f"Orgraph[{self.sink_count}]({pairs})"


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


def _sink_emitters(g: Orgraph) -> tuple[int, int]:
    """Indices of the internal vertices emitting into sinks 0 and 1."""
    if g.sink_count != 2:
        raise OrgraphError("not a bivector orgraph: needs exactly 2 sinks")
    emitters = []
    for label in (0, 1):
        hits = [i for i, pair in enumerate(g.targets) if label in pair]
        if len(hits) != 1 or g.targets[hits[0]].count(label) != 1:
            raise OrgraphError(f"sink {label} must receive exactly one arrow")
        emitters.append(hits[0])
    return emitters[0], emitters[1]


def shape(g: Orgraph) -> str:
    """``"Lambda"`` if one vertex emits both sink arrows, else ``"Pi"``."""
    e0, e1 = _sink_emitters(g)
    return "Lambda" if e0 == e1 else "Pi"


def sink_swap(g: Orgraph) -> Orgraph:
    """Exchange the two sink labels, keeping every pair's order."""
    if g.sink_count != 2:
        raise OrgraphError("sink swap needs exactly 2 sinks")
    flip = {0: 1, 1: 0}
    return Orgraph(
        2, tuple(tuple(flip.get(t, t) for t in pair) for pair in g.targets)
    )


@dataclass(frozen=True)
class NormalizedOrgraph:
    """Canonical encoding, the sign linking the input presentation to it,
    whether the orgraph is zero, and the internal-vertex order realizing the
    canonical encoding (``order[k]`` = input position of the vertex that
    received canonical label ``sink_count + k``)."""

    orgraph: Orgraph
    sign: int
    is_zero: bool
    order: tuple[int, ...]


_NORMALIZE_CACHE: dict[tuple[int, tuple[tuple[int, int], ...]], NormalizedOrgraph] = {}


def normalize_orgraph(g: Orgraph) -> NormalizedOrgraph:
    """Minimal encoding over internal relabelings, with pair-swap parity sign.

    The canonical encoding is the lexicographically smallest flattened digit
    tuple over all relabelings of internal vertices (sinks stay fixed), with
    every pair presented in ascending order.  Moving whole vertex pairs is
    sign-free (each pair is two consecutive entries of the edge wedge);
    presenting a pair in swapped order costs one sign.  The orgraph is zero
    when a pair repeats a target, or when two relabelings reach the minimal
    encoding with opposite swap signs, found by :func:`gckit.graphs._minimal_labelings`.
    """
    key = (g.sink_count, g.targets)
    cached = _NORMALIZE_CACHE.get(key)
    if cached is not None:
        return cached
    s, n = g.sink_count, g.internal_count

    if any(a == b for a, b in g.targets):
        sorted_pairs = tuple(
            (a, b) if a <= b else (b, a) for a, b in sorted(g.targets)
        )
        result = NormalizedOrgraph(
            Orgraph(s, sorted_pairs), 1, True, tuple(range(n))
        )
        _NORMALIZE_CACHE[key] = result
        return result

    def mapped(v: int, label: dict[int, int]) -> list[int]:
        return [t if t < s else s + label[t - s] for t in g.targets[v]]

    def row(v: int, label: dict[int, int]) -> tuple[int, ...]:
        return tuple(sorted(mapped(v, label)))

    neighbours = {v: {t - s for t in g.targets[v] if t >= s} for v in range(n)}
    labelings = _minimal_labelings(neighbours, row)
    best_signs = {
        -1 if sum(a > b for a, b in (mapped(v, label) for v in range(n))) % 2 else 1
        for label in labelings
    }
    label_of = min(labelings, key=lambda label: [label[v] for v in range(n)])
    best_order = sorted(range(n), key=label_of.__getitem__)
    best_pairs = tuple(row(v, label_of) for v in best_order)
    is_zero = len(best_signs) == 2
    sign = 1 if is_zero else best_signs.pop()
    result = NormalizedOrgraph(Orgraph(s, best_pairs), sign, is_zero, tuple(best_order))
    _NORMALIZE_CACHE[key] = result
    return result


@dataclass(frozen=True)
class OrientationWitness:
    """One admissible orientation of a graph, with sinks attached.

    ``mask`` directs body edge ``i`` from its smaller endpoint when bit ``i``
    is 0 and from its larger endpoint when it is 1.  ``sinks[v-1]`` lists the
    sink labels emitted by vertex ``v`` in ascending order.  The global item
    order gives sink label ``k`` the id ``k`` and body edge ``i`` the id
    ``sink_count + i``; every vertex emits exactly two items.
    """

    graph: UnorientedGraph
    sink_count: int
    mask: int
    sinks: tuple[tuple[int, ...], ...]

    def edge_direction(self, i: int) -> tuple[int, int]:
        """(tail, head) of body edge ``i`` under this witness."""
        u, v = self.graph.edges[i]
        return (v, u) if (self.mask >> i) & 1 else (u, v)

    def items(self, v: int) -> list[tuple[int, int]]:
        """Out-items of vertex ``v`` as ``(id, target label)``, id-ascending.

        Sink items target the sink's own label; body items target the head
        vertex's internal label ``head + sink_count - 1``.
        """
        out = [(k, k) for k in self.sinks[v - 1]]
        for i in range(self.graph.edge_count):
            tail, head = self.edge_direction(i)
            if tail == v:
                out.append((self.sink_count + i, head + self.sink_count - 1))
        out.sort()
        return out

    def readout(self) -> tuple[int, ...]:
        """Item ids vertex by vertex; a permutation of ``0..2n-1``."""
        seq: list[int] = []
        for v in range(1, self.graph.vertex_count + 1):
            seq.extend(item_id for item_id, _ in self.items(v))
        return tuple(seq)

    def orgraph(self) -> Orgraph:
        pairs = []
        for v in range(1, self.graph.vertex_count + 1):
            (_, t1), (_, t2) = self.items(v)
            pairs.append((t1, t2))
        return Orgraph(self.sink_count, tuple(pairs))

    def shape(self) -> str:
        if self.sink_count != 2:
            raise OrgraphError("shape needs exactly 2 sinks")
        return "Lambda" if any(len(ks) == 2 for ks in self.sinks) else "Pi"

    def sink_swapped(self) -> "OrientationWitness":
        """The witness with sink labels 0 and 1 exchanged."""
        if self.sink_count != 2:
            raise OrgraphError("sink swap needs exactly 2 sinks")
        flip = {0: 1, 1: 0}
        swapped = tuple(
            tuple(sorted(flip[k] for k in ks)) for ks in self.sinks
        )
        return OrientationWitness(self.graph, 2, self.mask, swapped)

    def sort_key(self) -> tuple:
        return (self.mask, self.sinks)


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


def enumerate_orientations(
    g: UnorientedGraph, sink_count: int | None = None
) -> list[OrientationWitness]:
    """All orientation witnesses of ``g``.

    Every vertex must emit exactly two items, so the number of sinks is
    forced to ``2n - e``; passing a different ``sink_count`` is an error.
    Sink labels are distributed over the deficient vertices in every
    possible way, each distribution a separate witness.
    """
    n, e = g.vertex_count, g.edge_count
    s = 2 * n - e
    if sink_count is not None and sink_count != s:
        raise OrgraphError(
            f"graph with {n} vertices and {e} edges needs {s} sinks,"
            f" got {sink_count}"
        )
    if s < 0:
        return []
    labels = tuple(range(s))
    witnesses: list[OrientationWitness] = []
    for mask in range(1 << e):
        outdeg = [0] * (n + 1)
        ok = True
        for i, (u, v) in enumerate(g.edges):
            tail = v if (mask >> i) & 1 else u
            outdeg[tail] += 1
            if outdeg[tail] > 2:
                ok = False
                break
        if not ok:
            continue
        deficits = [2 - outdeg[v] for v in range(1, n + 1)]
        for assignment in _label_distributions(labels, deficits):
            witnesses.append(OrientationWitness(g, s, mask, assignment))
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

    add_orgraph = _Sum._add_element

    def reduce(self) -> "OrgraphSum":
        """Divide all coefficients by their common rational factor.

        The factor is positive (gcd of numerators over lcm of denominators),
        so every sign is preserved.
        """
        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return self * Fraction(den, num) if num else OrgraphSum()


def _witness_contribution(
    w: OrientationWitness,
) -> tuple[Orgraph | None, int, int]:
    """(normalized key or None if zero, parity sign, normalization sign)."""
    eps = orientation_sign(w)
    norm = normalize_orgraph(w.orgraph())
    if norm.is_zero:
        return None, eps, norm.sign
    return norm.orgraph, eps, norm.sign


def orient(x: Union[UnorientedGraph, GraphSum]) -> OrgraphSum:
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
        key, eps, rho = _witness_contribution(w)
        if key is not None:
            total._add(key, eps * rho)
    return total


def encoding_inversions(w: OrientationWitness) -> int:
    """Vertices at which the witness realizes its normalized pair Left > Right.

    Each internal vertex of the normalized encoding lists an ordered (Left,
    Right) target pair; pulling that pair back along the witness's
    normalization order matches it with two of the witness's out-items.
    This counts the vertices whose Left item carries a larger id than the
    Right item (ties in the targets are read in ascending id order).
    """
    norm = normalize_orgraph(w.orgraph())
    order = norm.order
    s = w.sink_count
    label_of = [0] * len(order)
    for new_slot, original in enumerate(order):
        label_of[original] = new_slot

    count = 0
    for slot, original in enumerate(order):
        left, right = norm.orgraph.targets[slot]
        if left == right:
            continue
        mapped = [
            (iid, t if t < s else s + label_of[t - s])
            for iid, t in w.items(original + 1)
        ]
        id_left = next(iid for iid, t in mapped if t == left)
        id_right = next(iid for iid, t in mapped if t == right)
        if id_left > id_right:
            count += 1
    return count


def rule1_sign(w: OrientationWitness) -> int:
    """Sink-companion comparison sign for a Pi-shaped witness.

    With A the body edge emitted alongside sink 0 and B the body edge
    emitted alongside sink 1, the sign is -1 when A precedes B in the edge
    order and +1 otherwise.
    """
    if w.sink_count != 2:
        raise OrgraphError("rule 1 needs exactly 2 sinks")
    if w.shape() != "Pi":
        raise OrgraphError("rule 1 applies to Pi-shaped witnesses only")
    companions = {}
    for v in range(1, w.graph.vertex_count + 1):
        ks = w.sinks[v - 1]
        if ks:
            body = [item_id for item_id, _ in w.items(v) if item_id >= 2]
            companions[ks[0]] = body[0]
    return -1 if companions[0] < companions[1] else 1


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
        norm = normalize_orgraph(sink_swap(key))
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


# ---------------------------------------------------------------------------
# Rule crosscheck machinery


def encode_compact(g: Orgraph) -> str:
    """Compact pair encoding, e.g. ``(0,1;2,4;2,5;2,3)``."""
    return "(" + ";".join(f"{a},{b}" for a, b in g.targets) + ")"


def _sign_glyph(sign: int) -> str:
    return "(+)" if sign > 0 else "(-)"


@dataclass(frozen=True)
class WitnessRecord:
    """A witness with its derived sign data."""

    witness: OrientationWitness
    epsilon: int
    key: Orgraph | None
    rho: int
    contribution: int

    @property
    def shape(self) -> str:
        return self.witness.shape()


@dataclass(frozen=True)
class ChainLine:
    """A worked sign chain from the reference witness to one class."""

    target: Orgraph
    rule1_product: int
    reversals: int
    shape_changed: bool
    predicted: int
    actual: int

    @property
    def consistent(self) -> bool:
        return self.predicted == self.actual

    def chain_text(self) -> str:
        rev_sign = -1 if self.reversals % 2 else 1
        shape_sign = -1 if self.shape_changed else 1
        return (
            f"{_sign_glyph(self.rule1_product)}{_sign_glyph(rev_sign)}"
            f"{_sign_glyph(shape_sign)} = {_sign_glyph(self.predicted)}"
        )


@dataclass(frozen=True)
class WalkLine:
    """A sign transported move by move where no one-step summary applies."""

    target: Orgraph
    moves: int
    predicted: int
    actual: int

    @property
    def consistent(self) -> bool:
        return self.predicted == self.actual


@dataclass
class RulesReport:
    """Outcome of checking the sign rules against permutation parities."""

    graph: UnorientedGraph
    records: list[WitnessRecord]
    class_members: dict[Orgraph, list[WitnessRecord]]
    coefficients: dict[Orgraph, Fraction]
    theorem_mismatches: list[str]
    swap_mismatches: list[str]
    pairing_mismatches: list[str]
    move_count: int
    move_mismatches: list[str]
    chains: list[ChainLine | WalkLine]
    chain_mismatches: list[str]
    transposition_lines: list[str]

    @property
    def mismatches(self) -> list[str]:
        return (
            self.theorem_mismatches
            + self.swap_mismatches
            + self.pairing_mismatches
            + self.move_mismatches
            + self.chain_mismatches
        )

    @property
    def consistent(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        two_sinks = 2 * self.graph.vertex_count - self.graph.edge_count == 2
        if two_sinks:
            head = (
                f"witnesses: {len(self.records)}"
                f" (Lambda {sum(1 for r in self.records if r.shape == 'Lambda')},"
                f" Pi {sum(1 for r in self.records if r.shape == 'Pi')})"
            )
        else:
            head = f"witnesses: {len(self.records)}"
        lines = [
            head,
            f"classes: {len(self.class_members)}",
            "class consistency: "
            + ("ok" if not self.theorem_mismatches else "MISMATCH"),
        ]
        if two_sinks:
            lines.append(
                "sink-order exchange flips parity: "
                + ("ok" if not self.swap_mismatches else "MISMATCH")
            )
            lines.append(
                "sink-swap class pairing: "
                + ("ok" if not self.pairing_mismatches else "MISMATCH")
            )
        lines.append(
            f"elementary move signs ({self.move_count} moves): "
            + ("ok" if not self.move_mismatches else "MISMATCH")
        )
        for chain in self.chains:
            size = len(self.class_members[chain.target])
            coeff = self.coefficients[chain.target]
            status = "ok" if chain.consistent else "MISMATCH"
            witness_word = "witness" if size == 1 else "witnesses"
            if isinstance(chain, WalkLine):
                move_word = "move" if chain.moves == 1 else "moves"
                lines.append(
                    f"chain -> {encode_compact(chain.target)}"
                    f" [{shape(chain.target)}, coeff {coeff}, {size} {witness_word},"
                    f" walk of {chain.moves} {move_word}]:"
                    f" transported {_sign_glyph(chain.predicted)}"
                    f" vs witness parity ratio {_sign_glyph(chain.actual)} {status}"
                )
                continue
            reversal_word = "reversal" if chain.reversals == 1 else "reversals"
            lines.append(
                f"chain -> {encode_compact(chain.target)}"
                f" [{shape(chain.target)}, coeff {coeff}, {size} {witness_word},"
                f" {chain.reversals} {reversal_word}]: {chain.chain_text()}"
                f" vs parity {_sign_glyph(chain.actual)} {status}"
            )
        lines.extend(self.transposition_lines)
        for m in self.mismatches:
            lines.append(f"mismatch: {m}")
        lines.append("result: " + ("consistent" if self.consistent else "INCONSISTENT"))
        return "\n".join(lines)


def _displayed_classes(class_members: dict[Orgraph, list["WitnessRecord"]]) -> list[Orgraph]:
    """Lambda classes plus the smaller member of each sink-swapped Pi pair.

    These are the classes whose signs the reversal rule is expected to fix;
    each remaining Pi class is the sink-swapped partner of a displayed one
    and its sign follows from the pairing contract instead.
    """
    displayed: list[Orgraph] = []
    for key in sorted(class_members, key=lambda k: k.sort_key()):
        if shape(key) == "Lambda":
            displayed.append(key)
            continue
        partner = normalize_orgraph(sink_swap(key)).orgraph
        if partner == key or key.sort_key() < partner.sort_key():
            displayed.append(key)
    return displayed


def _transposition_counts(w: OrientationWitness) -> tuple[int, int]:
    """Transposition counts of a witness presentation, in two conventions.

    Both read the witness's edge ids (sink edges first, then body edges in
    wedge order) against the normalized vertex order of its class.  The
    edge-order count lists each vertex's two ids ascending; the
    encoding-order count pulls the sink ids to the front and lists each
    vertex's body ids in the order the canonical encoding lists the targets.
    """
    norm = normalize_orgraph(w.orgraph())
    order = norm.order
    s = w.sink_count
    label_of = [0] * len(order)
    for new_slot, original in enumerate(order):
        label_of[original] = new_slot
    seq_edge: list[int] = []
    seq_enc: list[int] = list(range(s))
    for original in order:
        items = w.items(original + 1)
        seq_edge.extend(item_id for item_id, _ in items)

        def norm_target(item: tuple[int, int]) -> int:
            t = item[1]
            return t if t < s else s + label_of[t - s]

        body = sorted((it for it in items if it[0] >= s), key=norm_target)
        seq_enc.extend(item_id for item_id, _ in body)
    return inversion_count(seq_edge), inversion_count(seq_enc)


def _rule1_dressing(rec: WitnessRecord) -> int:
    return rule1_sign(rec.witness) if rec.shape == "Pi" else 1


def crosscheck_rules(g: UnorientedGraph) -> RulesReport:
    """Check the combinatorial sign rules against permutation parities.

    Any two witnesses of one graph are joined by a chain of elementary
    moves, so the core check verifies the move-level sign law on every
    admissible move of every witness: the rule-derived sign of the move
    must equal the ratio of the endpoint parities.  Relative signs of
    arbitrary admissible pairs then follow by telescoping along a chain.
    For two-sink graphs the report additionally checks that (i) the
    witnesses of one normalized class contribute with one common sign,
    (ii) a Pi witness and its sink-label exchange have opposite parities
    and the two classes of a sink-swapped pair carry coefficients related
    by minus the swap's normalization sign, and (iii) each displayed class
    is summarized by a single transition from the reference witness --
    sink-companion dressing, one sign per body reversal, one per shape
    change -- whenever some member admits a consistent one-step summary;
    a class with no such summary is presented as a walk over elementary
    moves whose transported sign must reproduce the parity ratio of its
    endpoints.  The report also lists each displayed class's transposition
    counts in both reading conventions, taken at the class's chain or walk
    witness (at the reference witness for its own class).
    """
    records: list[WitnessRecord] = []
    for w in sorted(enumerate_orientations(g), key=lambda w: w.sort_key()):
        key, eps, rho = _witness_contribution(w)
        records.append(WitnessRecord(w, eps, key, rho, eps * rho))

    class_members: dict[Orgraph, list[WitnessRecord]] = {}
    for rec in records:
        if rec.key is not None:
            class_members.setdefault(rec.key, []).append(rec)
    coefficients = {
        key: Fraction(sum(r.contribution for r in members))
        for key, members in class_members.items()
    }

    theorem_mismatches = []
    for key, members in sorted(class_members.items(), key=lambda kv: kv[0].sort_key()):
        signs = {r.contribution for r in members}
        if len(signs) > 1:
            theorem_mismatches.append(
                f"class {encode_compact(key)} mixes contribution signs"
            )

    # every elementary move of every witness: rule sign vs parity ratio
    eps_of = {(r.witness.mask, r.witness.sinks): r.epsilon for r in records}
    neighbours: dict[tuple, list[tuple[tuple, int]]] = {}
    move_count = 0
    move_mismatches: list[str] = []
    for rec in records:
        src = (rec.witness.mask, rec.witness.sinks)
        for target, predicted in elementary_moves(rec.witness):
            move_count += 1
            dst = (target.mask, target.sinks)
            target_eps = eps_of.get(dst)
            if target_eps is None:
                move_mismatches.append(
                    f"move from witness (mask {rec.witness.mask},"
                    f" sinks {rec.witness.sinks}) leaves the witness set"
                )
                continue
            neighbours.setdefault(src, []).append((dst, predicted))
            if predicted != rec.epsilon * target_eps:
                move_mismatches.append(
                    f"move (mask {rec.witness.mask}, sinks {rec.witness.sinks})"
                    f" -> (mask {target.mask}, sinks {target.sinks}): rule sign"
                    f" {_sign_glyph(predicted)}, parity ratio"
                    f" {_sign_glyph(rec.epsilon * target_eps)}"
                )

    two_sinks = 2 * g.vertex_count - g.edge_count == 2
    swap_mismatches: list[str] = []
    pairing_mismatches: list[str] = []
    chains: list[ChainLine | WalkLine] = []
    chain_mismatches: list[str] = []
    transposition_lines: list[str] = []
    if two_sinks:
        for rec in records:
            if rec.witness.shape() != "Pi":
                continue
            partner = rec.witness.sink_swapped()
            if orientation_sign(partner) != -rec.epsilon:
                swap_mismatches.append(
                    f"sink swap of witness (mask {rec.witness.mask},"
                    f" sinks {rec.witness.sinks}) does not flip parity"
                )

        for key in sorted(class_members, key=lambda k: k.sort_key()):
            if shape(key) == "Lambda":
                continue
            norm = normalize_orgraph(sink_swap(key))
            partner, rho = norm.orgraph, norm.sign
            expected = -rho * coefficients[key]
            found = coefficients.get(partner, Fraction(0))
            if found != expected:
                pairing_mismatches.append(
                    f"class {encode_compact(key)}: sink-swapped partner carries"
                    f" {found}, pairing contract expects {expected}"
                )

        # reference witness: the Lambda witness of minimal readout inversions
        lambda_recs = [r for r in records if r.shape == "Lambda" and r.key is not None]
        pool = lambda_recs or [r for r in records if r.key is not None]
        if pool:
            ref = min(
                pool,
                key=lambda r: (
                    inversion_count(r.witness.readout()),
                    r.witness.sort_key(),
                ),
            )
            # breadth-first parity transport from the reference witness
            ref_pos = (ref.witness.mask, ref.witness.sinks)
            transport: dict[tuple, tuple[int, int]] = {ref_pos: (1, 0)}
            queue = deque([ref_pos])
            while queue:
                cur = queue.popleft()
                cur_sign, cur_depth = transport[cur]
                for dst, move_sign in neighbours.get(cur, ()):
                    if dst not in transport:
                        transport[dst] = (cur_sign * move_sign, cur_depth + 1)
                        queue.append(dst)
            displayed = _displayed_classes(class_members)
            designated: dict[Orgraph, WitnessRecord] = {ref.key: ref}
            counts_of = {
                r.witness: _transposition_counts(r.witness)
                for members in class_members.values()
                for r in members
            }
            for key in displayed:
                if key == ref.key:
                    continue
                # Among the minimal-reversal transitions, present the one with
                # the richest encoding-order bookkeeping; remaining ties go to
                # fewer edge-order transpositions, then the smallest witness.
                candidates = sorted(
                    class_members[key],
                    key=lambda r: (
                        (ref.witness.mask ^ r.witness.mask).bit_count(),
                        -counts_of[r.witness][1],
                        counts_of[r.witness][0],
                        r.witness.sort_key(),
                    ),
                )
                chosen: ChainLine | None = None
                for target in candidates:
                    reversals = (ref.witness.mask ^ target.witness.mask).bit_count()
                    r1 = _rule1_dressing(ref) * _rule1_dressing(target)
                    shape_changed = ref.shape != target.shape
                    predicted = r1 * rule2_transition_sign(ref.witness, target.witness)
                    actual = ref.contribution * target.contribution
                    line = ChainLine(
                        key, r1, reversals, shape_changed, predicted, actual
                    )
                    if line.consistent:
                        chosen = line
                        designated[key] = target
                        break
                if chosen is not None:
                    chains.append(chosen)
                    continue
                # No single transition summarizes this class; transport the
                # parity ratio move by move instead.
                walker = min(
                    class_members[key], key=lambda r: r.witness.sort_key()
                )
                designated[key] = walker
                entry = transport.get((walker.witness.mask, walker.witness.sinks))
                if entry is None:
                    chain_mismatches.append(
                        f"class {encode_compact(key)} is not connected to the"
                        " reference witness by elementary moves"
                    )
                    continue
                walk_sign, depth = entry
                walk = WalkLine(key, depth, walk_sign, ref.epsilon * walker.epsilon)
                chains.append(walk)
                if not walk.consistent:
                    chain_mismatches.append(
                        f"class {encode_compact(key)}: transported move sign"
                        " disagrees with the witness parity ratio"
                    )
            for key in displayed:
                rec = designated.get(key)
                if rec is None:
                    rec = min(class_members[key], key=lambda r: r.witness.sort_key())
                by_edge, by_enc = counts_of[rec.witness]
                transposition_lines.append(
                    f"transpositions -> {encode_compact(key)}:"
                    f" edge-order {by_edge}, encoding-order {by_enc}"
                )

    return RulesReport(
        graph=g,
        records=records,
        class_members=class_members,
        coefficients=coefficients,
        theorem_mismatches=theorem_mismatches,
        swap_mismatches=swap_mismatches,
        pairing_mismatches=pairing_mismatches,
        move_count=move_count,
        move_mismatches=move_mismatches,
        chains=chains,
        chain_mismatches=chain_mismatches,
        transposition_lines=transposition_lines,
    )


# ---------------------------------------------------------------------------
# Text formats


def _parse_orgraph_body(body: str, lineno: int | None) -> Orgraph:
    head, colon, pair_part = body.partition(":")
    fields = head.split()
    if not colon or not fields or fields[0] != "o" or len(fields) not in (2, 3):
        raise ParseError("expected 'o <n> [<sinks>] : L R ; ...'", lineno)
    try:
        n = int(fields[1])
        s = int(fields[2]) if len(fields) == 3 else 2
    except ValueError:
        raise ParseError("vertex/sink counts must be integers", lineno) from None
    pairs = []
    for chunk in pair_part.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        lr = chunk.split()
        if len(lr) != 2:
            raise ParseError(f"bad target pair {chunk!r}", lineno)
        try:
            pairs.append((int(lr[0]), int(lr[1])))
        except ValueError:
            raise ParseError(f"bad target pair {chunk!r}", lineno) from None
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
        total.add_orgraph(_parse_orgraph_body(rest.strip(), lineno), coeff)
    return total


def format_orgraph_sum(s: OrgraphSum) -> str:
    """Render a sum in the format accepted by :func:`parse_orgraph_sum`."""
    return "\n".join(f"{c} * {format_orgraph(g)}" for g, c in s.items())
