"""Oriented graphs, the orientation morphism, sign rules, the cross-checker."""

from __future__ import annotations

import importlib
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings

from gckit import (
    GraphError,
    GraphSum,
    OrgraphError,
    OrgraphSum,
    SkewSymmetryError,
    crosscheck_rules,
    elementary_moves,
    encoding_inversions,
    enumerate_orientations,
    fold_sink_swap,
    format_orgraph,
    format_orgraph_sum,
    inversion_count,
    new_graph,
    new_orgraph,
    normalize_orgraph,
    orient,
    orientation_sign,
    parse_graph,
    parse_orgraph,
    parse_orgraph_sum,
    rule1_sign,
    rule2_transition_sign,
    shape,
    sink_swap,
)
from test_oracles import MOVE_GRAPHS, orgraphs

TETRA_FLOW_RAW = """\
8 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3
-24 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3
-24 * o 4 : 0 3 ; 4 5 ; 1 2 ; 2 4"""

TETRA_FLOW_REDUCED = """\
1 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3
-3 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3
-3 * o 4 : 0 3 ; 4 5 ; 1 2 ; 2 4"""

EDGE_FLOW = """\
-2 * o 2 3 : 0 1 ; 2 3
2 * o 2 3 : 0 2 ; 1 3
-2 * o 2 3 : 0 4 ; 1 2"""

K5 = new_graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])

TETRA_RULES_REPORT = """\
witnesses: 56 (Lambda 8, Pi 48)
classes: 3
class consistency: ok
sink-order exchange flips parity: ok
sink-swap class pairing: ok
elementary move signs (288 moves): ok
chain -> (0,3;1,4;2,5;2,3) [Pi, coeff -24, 24 witnesses, 1 reversal]: (-)(-)(-) = (-) vs parity (-) ok
transpositions -> (0,1;2,4;2,5;2,3): edge-order 4, encoding-order 4
transpositions -> (0,3;1,4;2,5;2,3): edge-order 9, encoding-order 8
result: consistent"""


def witness_index(g):
    return {(w.mask, w.sinks): w for w in enumerate_orientations(g)}


def lambda_witness(index, mask: int, host: int, n: int):
    sinks = tuple((0, 1) if v == host else () for v in range(1, n + 1))
    return index[(mask, sinks)]


# ---------------------------------------------------------------------------
# Orgraph values


class TestOrgraph:
    def test_construction_defaults_to_two_sinks(self):
        g = new_orgraph([(0, 1), (2, 4), (2, 5), (2, 3)])
        assert g.sink_count == 2
        assert g.internal_count == 4

    def test_rejects_self_arrow(self):
        with pytest.raises(OrgraphError, match="self-arrow at vertex 2"):
            new_orgraph([(2, 1), (0, 1)])

    def test_rejects_out_of_range_target(self):
        with pytest.raises(OrgraphError, match="out of range"):
            new_orgraph([(0, 4)], sink_count=2)

    def test_rejects_negative_sink_count(self):
        with pytest.raises(OrgraphError, match="nonnegative"):
            new_orgraph([(0, 1)], sink_count=-1)

    def test_rejects_wrong_arity(self):
        with pytest.raises(OrgraphError, match="exactly 2 arrows"):
            new_orgraph([(0, 1, 2)])

    def test_shape_classification(self):
        both_on_one = new_orgraph([(0, 1), (2, 4), (2, 5), (2, 3)])
        split = new_orgraph([(0, 3), (1, 4), (2, 5), (2, 3)])
        assert shape(both_on_one) == "Lambda"
        assert shape(split) == "Pi"

    def test_sink_swap_is_an_involution(self):
        g = new_orgraph([(0, 3), (1, 4), (2, 5), (2, 3)])
        swapped = sink_swap(g)
        assert swapped.targets[0] == (1, 3)
        assert sink_swap(swapped) == g


class TestNormalize:
    def test_canonical_input_is_fixed(self):
        g = new_orgraph([(0, 1), (2, 4), (2, 5), (2, 3)])
        norm = normalize_orgraph(g)
        assert norm.orgraph == g
        assert norm.sign == 1
        assert not norm.is_zero

    def test_swapped_pair_costs_a_sign(self):
        norm = normalize_orgraph(new_orgraph([(3, 0), (1, 4), (2, 5), (2, 3)]))
        assert norm.orgraph == new_orgraph([(0, 3), (1, 4), (2, 5), (2, 3)])
        assert norm.sign == -1

    def test_relabeling_internal_vertices_is_sign_free_here(self):
        # move the last internal vertex to the front: pairs travel whole
        original = new_orgraph([(0, 1), (2, 4), (2, 5), (2, 3)])
        relabeled = new_orgraph([(3, 4), (0, 1), (3, 5), (3, 2)])
        norm = normalize_orgraph(relabeled)
        assert norm.orgraph == original
        assert norm.sign == 1

    def test_repeated_target_is_zero(self):
        norm = normalize_orgraph(new_orgraph([(0, 1), (2, 4), (2, 5), (2, 2)]))
        assert norm.is_zero

    def test_long_chains_fail_at_once(self):
        chain = new_orgraph([(0, k + 3) for k in range(200)] + [(0, 1)])
        with pytest.raises(GraphError, match="^labeling search above the maximum 200 vertices$"):
            normalize_orgraph(chain)

    def test_normalization_is_idempotent(self, tetra):
        for w in enumerate_orientations(tetra):
            norm = normalize_orgraph(w.orgraph())
            again = normalize_orgraph(norm.orgraph)
            assert again.orgraph == norm.orgraph
            assert again.sign == 1
            assert again.is_zero == norm.is_zero


# ---------------------------------------------------------------------------
# Witness enumeration and parity


class TestWitnesses:
    @pytest.mark.parametrize(
        "fixture, count, sinks",
        [("edge", 6, 3), ("path3", 42, 4), ("tetra", 56, 2)],
    )
    def test_counts_and_forced_sink_numbers(self, fixture, count, sinks, request):
        g = request.getfixturevalue(fixture)
        ws = enumerate_orientations(g)
        assert len(ws) == count
        assert all(w.sink_count == sinks for w in ws)

    def test_negative_deficiency_has_no_witnesses(self):
        import itertools

        k6 = new_graph(6, list(itertools.combinations(range(1, 7), 2)))
        assert enumerate_orientations(k6) == []

    def test_out_items_are_id_sorted_and_complete(self, tetra):
        for w in enumerate_orientations(tetra):
            ids = []
            for v in range(1, 5):
                items = w.items(v)
                assert [i for i, _ in items] == sorted(i for i, _ in items)
                assert len(items) == 2
                ids.extend(i for i, _ in items)
            assert sorted(ids) == list(range(8))

    def test_frozen_witness_readout(self, tetra):
        w = lambda_witness(witness_index(tetra), mask=23, host=1, n=4)
        assert w.readout() == (0, 1, 2, 5, 3, 7, 4, 6)
        assert inversion_count(w.readout()) == 4
        assert orientation_sign(w) == 1

    def test_sink_swapped_witness(self, tetra):
        ws = witness_index(tetra)
        w = next(w for w in ws.values() if w.shape() == "Pi")
        t = w.sink_swapped()
        assert t.mask == w.mask
        assert t.sinks != w.sinks
        assert t.sink_swapped() == w


class TestOrientationMorphism:
    def test_tetrahedron_flow(self, tetra):
        assert format_orgraph_sum(orient(tetra)) == TETRA_FLOW_RAW

    def test_tetrahedron_flow_reduced(self, tetra):
        assert format_orgraph_sum(orient(tetra).reduce()) == TETRA_FLOW_REDUCED

    def test_single_edge_flow(self, edge):
        assert format_orgraph_sum(orient(edge)) == EDGE_FLOW

    def test_zero_graph_orients_to_zero(self, path3):
        assert not orient(path3)

    def test_linearity(self, tetra, edge):
        s = GraphSum([(tetra, Fraction(3, 2))])
        assert orient(s) == orient(tetra) * Fraction(3, 2)
        two = GraphSum([(tetra, 1), (edge, 1)])
        assert orient(two) == orient(tetra) + orient(edge)

    def test_input_presentation_does_not_matter(self, tetra):
        relabeled = new_graph(4, [(3, 4), (2, 4), (1, 4), (2, 3), (1, 3), (1, 2)])
        assert orient(relabeled) == orient(tetra)

    @pytest.mark.parametrize(
        "name, normalizations",
        [("tetra", 3), ("wheel5", 27), ("companion5", 140), ("wheel7", 58), ("path3", 0), ("K5", 0)],
    )
    def test_one_normalization_per_witness_orbit(self, name, normalizations):
        # Witnesses to orbits: 56 -> 3, 262 -> 27, 280 -> 140 and 800 -> 58.
        # path3 and K5 have odd automorphisms, so nothing is normalized.
        g = K5 if name == "K5" else MOVE_GRAPHS[name]
        orient_module = importlib.import_module("gckit.orient")
        with mock.patch.dict(orient_module._NORMALIZE_CACHE, clear=True):
            orient(g)
            assert len(orient_module._NORMALIZE_CACHE) == normalizations

    def test_the_witness_bound_fires_before_the_zero_exit(self):
        # K1,3 is zero (swapping two leaves swaps two edges), and its four
        # isolated vertices give it 13 sinks and 1,070,269,200 witnesses.
        star = new_graph(8, [(1, 2), (1, 3), (1, 4)])
        with pytest.raises(OrgraphError, match="^orientation witnesses above the maximum 200000$"):
            orient(star)


class TestOrgraphSum:
    def test_accumulation_normalizes(self):
        s = OrgraphSum()
        s.add(new_orgraph([(3, 0), (1, 4), (2, 5), (2, 3)]), 2)
        key = new_orgraph([(0, 3), (1, 4), (2, 5), (2, 3)])
        assert s.coefficient(key) == -2

    def test_zero_orgraphs_are_dropped(self):
        s = OrgraphSum()
        s.add(new_orgraph([(0, 1), (2, 4), (2, 5), (2, 2)]), 7)
        assert not s

    def test_arithmetic_and_reduce(self):
        a = new_orgraph([(0, 1), (2, 4), (2, 5), (2, 3)])
        b = new_orgraph([(0, 3), (1, 4), (2, 5), (2, 3)])
        s = OrgraphSum([(a, Fraction(4)), (b, Fraction(-6))])
        assert (s - s) == OrgraphSum()
        assert (-s).coefficient(b) == 6
        assert (s * Fraction(1, 2)).coefficient(a) == 2
        reduced = s.reduce()
        assert [c for _, c in reduced.items()] == [2, -3]
        assert OrgraphSum().reduce() == OrgraphSum()

    def test_reduce_clears_denominators(self):
        a = new_orgraph([(0, 1), (2, 4), (2, 5), (2, 3)])
        b = new_orgraph([(0, 3), (1, 4), (2, 5), (2, 3)])
        s = OrgraphSum([(a, Fraction(1, 2)), (b, Fraction(-3, 4))])
        assert [c for _, c in s.reduce().items()] == [2, -3]

    def test_coefficients_stay_int_while_integral(self, tetra, pentagon_cocycle):
        for total in (orient(pentagon_cocycle), orient(tetra).reduce()):
            assert total
            assert all(type(c) is int for _, c in total.items())
        absent = new_orgraph([(0, 1), (2, 4), (2, 5), (2, 3)])
        assert type(OrgraphSum().coefficient(absent)) is int


# ---------------------------------------------------------------------------
# Sign rules


class TestSignRules:
    def test_rule1_frozen_values(self, tetra):
        index = witness_index(tetra)
        plus = index[(4, ((), (), (0,), (1,)))]
        minus = index[(4, ((), (), (1,), (0,)))]
        assert rule1_sign(plus) == 1
        assert rule1_sign(minus) == -1

    def test_rule1_rejects_lambda_witnesses(self, tetra):
        w = lambda_witness(witness_index(tetra), mask=23, host=1, n=4)
        with pytest.raises(OrgraphError, match="Pi-shaped"):
            rule1_sign(w)

    def test_rule1_needs_two_sinks(self, edge):
        w = enumerate_orientations(edge)[0]
        with pytest.raises(OrgraphError, match="2 sinks"):
            rule1_sign(w)

    def test_rule2_counts_reversals_and_shape_changes(self, tetra):
        index = witness_index(tetra)
        lam2 = lambda_witness(index, mask=2, host=4, n=4)
        lam9 = lambda_witness(index, mask=9, host=4, n=4)
        pi4 = index[(4, ((), (), (0,), (1,)))]
        assert rule2_transition_sign(lam2, lam9) == -1  # 3 reversals, same shape
        assert rule2_transition_sign(lam2, pi4) == -1  # 2 reversals, shape change
        assert rule2_transition_sign(lam2, lam2) == 1

    def test_rule2_rejects_foreign_witnesses(self, tetra, edge):
        w1 = enumerate_orientations(tetra)[0]
        w2 = enumerate_orientations(edge)[0]
        with pytest.raises(OrgraphError, match="different source graphs"):
            rule2_transition_sign(w1, w2)

    def test_encoding_inversion_column(self, tetra):
        index = witness_index(tetra)
        hosts = [(23, 1), (47, 1), (49, 3), (36, 3), (28, 2), (58, 2), (2, 4), (9, 4)]
        witnesses = [lambda_witness(index, m, h, 4) for m, h in hosts]
        assert [encoding_inversions(w) for w in witnesses] == [0, 0, 2, 2, 1, 1, 3, 3]

    def test_lambda_contributions_all_positive(self, tetra):
        for w in enumerate_orientations(tetra):
            if w.shape() != "Lambda":
                continue
            norm = normalize_orgraph(w.orgraph())
            assert orientation_sign(w) * norm.sign == 1

    @pytest.mark.parametrize("fixture", ["edge", "tetra"])
    def test_elementary_move_signs_match_parity_ratios(self, fixture, request):
        g = request.getfixturevalue(fixture)
        witnesses = enumerate_orientations(g)
        known = {(w.mask, w.sinks): orientation_sign(w) for w in witnesses}
        moves = 0
        for w in witnesses:
            for target, predicted in elementary_moves(w):
                moves += 1
                assert (target.mask, target.sinks) in known
                assert predicted == orientation_sign(w) * known[
                    (target.mask, target.sinks)
                ]
        assert moves == {"edge": 24, "tetra": 288}[fixture]

    def test_elementary_moves_are_symmetric(self, tetra):
        seen = {}
        for w in enumerate_orientations(tetra):
            for target, predicted in elementary_moves(w):
                seen[((w.mask, w.sinks), (target.mask, target.sinks))] = predicted
        for (src, dst), sign in seen.items():
            assert seen[(dst, src)] == sign


# ---------------------------------------------------------------------------
# Rule cross-check reports


class TestCrosscheck:
    def test_tetrahedron_report_is_stable(self, tetra):
        report = crosscheck_rules(tetra)
        assert report.consistent
        assert report.mismatches == []
        assert report.format() == TETRA_RULES_REPORT

    def test_wheel_report(self, wheel5):
        report = crosscheck_rules(wheel5)
        assert report.consistent
        text = report.format()
        assert "witnesses: 262 (Lambda 22, Pi 240)" in text
        assert "classes: 27" in text
        assert "elementary move signs (1460 moves): ok" in text
        # worked chains: four reversals up to the Lambda class, and the
        # minuend-style Pi chain
        assert (
            "chain -> (0,1;2,4;2,5;3,6;4,7;2,4) [Lambda, coeff -10, 10"
            " witnesses, 4 reversals]: (+)(+)(+) = (+) vs parity (+) ok" in text
        )
        assert (
            "chain -> (0,3;1,4;2,5;6,7;2,4;3,4) [Pi, coeff -10, 10 witnesses,"
            " 4 reversals]: (-)(+)(-) = (+) vs parity (+) ok" in text
        )
        assert (
            "transpositions -> (0,1;2,4;2,5;2,6;2,7;2,3): edge-order 10,"
            " encoding-order 15" in text
        )
        assert (
            "transpositions -> (0,1;2,4;2,5;3,6;4,7;2,4): edge-order 24,"
            " encoding-order 27" in text
        )
        assert (
            "transpositions -> (0,3;1,4;2,5;6,7;2,4;3,4): edge-order 25,"
            " encoding-order 26" in text
        )
        assert text.endswith("result: consistent")

    def test_companion_report(self, companion5):
        report = crosscheck_rules(companion5)
        assert report.consistent
        text = report.format()
        assert "witnesses: 280 (Lambda 24, Pi 256)" in text
        assert "classes: 140" in text
        assert "elementary move signs (1584 moves): ok" in text
        # some classes have no one-step summary; their signs are transported
        # move by move instead
        assert "walk of" in text

    def test_a_walk_that_disagrees_with_the_parity_ratio_is_a_mismatch(self, data_dir):
        # With every rule sign negated, a walk of odd length transports the
        # wrong sign, and its class is reported.
        orient_module = importlib.import_module("gckit.orient")
        with mock.patch.object(
            orient_module,
            "elementary_moves",
            lambda w: [(target, -sign) for target, sign in elementary_moves(w)],
        ):
            report = crosscheck_rules(parse_graph((data_dir / "companion5.g").read_text()))
        walks = [line for line in report.lines if " walk of " in line]
        assert len(walks) == 26
        assert sum(line.endswith(" MISMATCH") for line in walks) == 14
        disagree = ": transported move sign disagrees with the witness parity ratio"
        assert sum(m.endswith(disagree) for m in report.mismatches) == 14
        assert not report.consistent

    def test_edge_report_without_sink_pair_sections(self, edge):
        report = crosscheck_rules(edge)
        assert report.consistent
        text = report.format()
        assert text.splitlines()[0] == "witnesses: 6"
        assert "classes: 3" in text
        assert "elementary move signs (24 moves): ok" in text
        assert "sink-order exchange" not in text
        assert "sink-swap class pairing" not in text


# ---------------------------------------------------------------------------
# Sink-pair folding


class TestFold:
    def test_tetrahedron_flow_folds_to_two_terms(self, tetra):
        folded = fold_sink_swap(orient(tetra))
        assert format_orgraph_sum(folded) == (
            "8 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3\n"
            "-24 * o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3"
        )

    def test_pi_pairing_sign(self, tetra):
        flow = orient(tetra)
        kept = parse_orgraph("o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3")
        partner_norm = normalize_orgraph(sink_swap(kept))
        partner, rho = partner_norm.orgraph, partner_norm.sign
        assert partner != kept
        assert rho == -1
        assert flow.coefficient(partner) == -rho * flow.coefficient(kept)

    def test_missing_partner_is_rejected(self, tetra):
        flow = orient(tetra)
        pruned = OrgraphSum(
            (g, c) for g, c in flow.items()
            if format_orgraph(g) != "o 4 : 0 3 ; 4 5 ; 1 2 ; 2 4"
        )
        with pytest.raises(SkewSymmetryError, match="no sink-swapped partner"):
            fold_sink_swap(pruned)

    def test_incompatible_partner_coefficients_are_rejected(self, tetra):
        flow = orient(tetra)
        broken = OrgraphSum(
            (g, -c if format_orgraph(g) == "o 4 : 0 3 ; 4 5 ; 1 2 ; 2 4" else c)
            for g, c in flow.items()
        )
        with pytest.raises(SkewSymmetryError, match="incompatible coefficients"):
            fold_sink_swap(broken)

    def test_lambda_terms_pass_through(self):
        lam = new_orgraph([(0, 1), (2, 4), (2, 5), (2, 3)])
        s = OrgraphSum([(lam, Fraction(5))])
        assert fold_sink_swap(s) == s

    @given(g=orgraphs(sinks=2))
    @settings(max_examples=300, deadline=None)
    def test_an_orgraph_and_its_sink_swap_are_zero_together(self, g):
        # Why fold never meets a nonzero term whose partner is zero.
        assert normalize_orgraph(sink_swap(g)).is_zero == normalize_orgraph(g).is_zero


# ---------------------------------------------------------------------------
# Text format


class TestOrgraphTextFormat:
    def test_parse_default_sinks(self):
        g = parse_orgraph("o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3")
        assert g.sink_count == 2
        assert g.targets == ((0, 1), (2, 4), (2, 5), (2, 3))

    def test_parse_explicit_sinks(self):
        g = parse_orgraph("o 2 3 : 0 1 ; 2 3")
        assert g.sink_count == 3
        assert g.internal_count == 2

    def test_round_trip(self, tetra, edge):
        for source in (tetra, edge):
            s = orient(source)
            assert parse_orgraph_sum(format_orgraph_sum(s)) == s

    def test_single_orgraph_round_trip(self):
        for text in ("o 4 : 0 3 ; 1 4 ; 2 5 ; 2 3", "o 2 3 : 0 4 ; 1 2"):
            assert format_orgraph(parse_orgraph(text)) == text

    def test_zero_sum_round_trip(self):
        assert format_orgraph_sum(OrgraphSum()) == ""
        assert parse_orgraph_sum("") == OrgraphSum()

    def test_parse_errors_are_annotated(self):
        from gckit import ParseError

        with pytest.raises(ParseError, match="line 1"):
            parse_orgraph("o 4 0 1 ; 2 4")
        with pytest.raises(ParseError, match="line 2"):
            parse_orgraph_sum("1 * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3\n1 * nope")
        with pytest.raises(ParseError, match="coefficient"):
            parse_orgraph_sum("one * o 4 : 0 1 ; 2 4 ; 2 5 ; 2 3")
        with pytest.raises(ParseError, match="exactly one orgraph line"):
            parse_orgraph("o 2 3 : 0 1 ; 2 3\no 2 3 : 0 1 ; 2 3")
        for body, message in [
            ("o 2 : 0 1 ; 2", "bad target pair '2'"),
            ("o 2 : 0 1 ; 0 1 2", "bad target pair '0 1 2'"),
            ("o 2 : 0 x ; 0 2", "bad target pair '0 x'"),
            ("o 2 : 0 1", "expected 2 target pairs, found 1"),
            ("o 1 : 0 1 ; 2 3", "expected 1 target pair, found 2"),
        ]:
            with pytest.raises(ParseError, match=f"^line 2: {message}$"):
                parse_orgraph_sum(f"\n1 * {body}")
        assert parse_orgraph("o 2 : 0 1 ;; 0 2 ;") == parse_orgraph("o 2 : 0 1 ; 0 2")


class TestOnePathPerRule:
    def test_dead_mask_prefixes_are_skipped(self):
        # C12(1,2) without edges {12,1} and {12,2}: 22 edges, 2 sinks, and
        # 2^22 masks, most of which die within their last few edges.
        ring = [(i, i + 1) for i in range(1, 12)]
        chords = [(i, (i + 1) % 12 + 1) for i in range(1, 12)]
        g = new_graph(12, ring + chords)
        start = time.perf_counter()
        witnesses = enumerate_orientations(g)
        assert time.perf_counter() - start < 3.0
        assert len(witnesses) == 10_808
        masks = [w.mask for w in witnesses]
        assert masks == sorted(masks)

    def test_sink_swap_needs_two_sinks(self, edge):
        with pytest.raises(OrgraphError, match="^sink swap needs exactly 2 sinks$"):
            sink_swap(new_orgraph([(0, 1), (2, 3)], sink_count=3))
        with pytest.raises(OrgraphError, match="^sink swap needs exactly 2 sinks$"):
            enumerate_orientations(edge)[0].sink_swapped()

    def test_rule1_reports_the_shape_check(self, edge):
        w = enumerate_orientations(edge)[0]
        with pytest.raises(OrgraphError, match="^shape needs exactly 2 sinks$"):
            rule1_sign(w)
