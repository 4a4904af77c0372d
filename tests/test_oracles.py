"""The labeling search against the brute-force searches it replaced.

``oracles`` keeps the exhaustive canonicalizer, automorphism search and
orgraph normalizer; hypothesis compares them with the library on random
graphs (isolated vertices and disconnected graphs included) and random
orgraphs (repeated targets included).
"""

from __future__ import annotations

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gckit import automorphisms, canonicalize, new_graph, new_orgraph, normalize_orgraph


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = []
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return new_graph(n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)])


@st.composite
def orgraphs(draw):
    s = draw(st.sampled_from([0, 1, 2, 3]))
    # Two copies over the same sinks have a sign-free symmetry, so a nonzero
    # orgraph then has several least labelings, and ``order`` must come from
    # the least of them.
    copies = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(min_value=1, max_value=7 // copies))
    assume(s + m >= 2)
    base = []
    for i in range(m):
        others = [t for t in range(s + m) if t != s + i]
        first = draw(st.sampled_from(others))
        # A repeated target makes the orgraph zero; draw it often enough to test.
        second = first if draw(st.integers(0, 9)) == 0 else draw(st.sampled_from(others))
        base.append((first, second))
    position = draw(st.permutations(range(copies * m)))

    def place(t, copy):
        return t if t < s else s + position[t - s + copy * m]

    targets = [()] * (copies * m)
    for copy in range(copies):
        for i, (a, b) in enumerate(base):
            targets[position[i + copy * m]] = (place(a, copy), place(b, copy))
    return new_orgraph(targets, sink_count=s)


@given(g=graphs())
@settings(max_examples=150, deadline=None)
def test_canonicalize_matches_oracle(g):
    assert canonicalize(g) == oracles.canonicalize(g)


@given(g=graphs())
@settings(max_examples=150, deadline=None)
def test_automorphisms_match_oracle(g):
    assert automorphisms(g) == oracles.automorphisms(g)


@given(g=orgraphs())
@settings(max_examples=200, deadline=None)
def test_normalize_orgraph_matches_oracle(g):
    # NormalizedOrgraph equality compares the vertex order too.
    assert normalize_orgraph(g) == oracles.normalize_orgraph(g)
