import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fuzzysumm.errors import UsageError
from fuzzysumm.fsql import parse_query
from fuzzysumm.query import (
    Clause,
    ConjunctiveProposition,
    Grade,
    Verdict,
    evaluate,
    grade,
    rewrite,
    search,
)
from fuzzysumm.repair import detect_failures, distance, propose_substitutions, repair
from fuzzysumm.summary import ConceptSummary, SummaryHierarchy

from conftest import descendants, random_hierarchy, random_proposition


def summary(sid, intent_keys, extent=None):
    pairs = frozenset(tuple(k.split("::", 1)) for k in intent_keys)
    return ConceptSummary(sid, extent or {}, pairs)


Q4 = ("Select 3 0.25 Dairy-product, Lipid From Food-consumption "
      "Where Age FEQ ($Old) THOLD 0.25 AND Candy FEQ ($Excessive) THOLD 0.25;")


@pytest.fixture
def q4_outcome(food_schema, food_hierarchy):
    q = parse_query(Q4, food_schema)
    prop, outcome, results = evaluate(food_hierarchy, food_schema, q, mode="exhaustive")
    assert results == []
    return q, prop, outcome


class TestDistance:
    def test_counts_shared_labels_per_condition(self, food_schema, food_hierarchy):
        q = parse_query(Q4, food_schema)
        # z51 carries Excessive candy but no Old age: 0 + 1
        assert distance(q, food_hierarchy.summary("z51")) == 1
        assert distance(q, food_hierarchy.summary("z42")) == 1
        assert distance(q, food_hierarchy.summary("z52")) == 1

    def test_no_shared_labels(self, food_schema, food_hierarchy):
        q = parse_query(Q4, food_schema)
        assert distance(q, food_hierarchy.summary("z22")) == 0

    def test_upper_bound_when_all_labels_present(self, food_schema):
        q = parse_query(Q4, food_schema)
        s = summary("x", ["Age::Old", "Candy::Excessive", "Lipid::Low"])
        assert distance(q, s) == 2  # sum of |L_Ak|

    def test_monotone_along_child_edges(self, food_schema, food_hierarchy):
        q = parse_query(Q4, food_schema)
        for sid in food_hierarchy.summaries:
            d_parent = distance(q, food_hierarchy.summary(sid))
            for kid in food_hierarchy.children[sid]:
                assert distance(q, food_hierarchy.summary(kid)) >= d_parent


class TestDetectFailures:
    def test_q4_frontier_contains_z42(self, q4_outcome, food_schema, food_hierarchy):
        q, prop, outcome = q4_outcome
        nodes = detect_failures(outcome, food_hierarchy, prop)
        by_id = {n.summary_id: n for n in nodes}
        assert "z42" in by_id
        assert by_id["z42"].failed_attributes == {"Age"}

    def test_rejects_nonempty_results(self, employee_schema, employee_hierarchy):
        q = parse_query("Select * From Employee Where Age FEQ $Young THOLD 0.5",
                        employee_schema)
        prop, outcome, results = evaluate(employee_hierarchy, employee_schema, q)
        assert results
        with pytest.raises(UsageError):
            detect_failures(outcome, employee_hierarchy, prop)

    def test_all_root_children_violated_blames_root(self):
        h = SummaryHierarchy([
            summary("r", [], {"a": 1.0, "b": 1.0}),
            summary("u", ["X::p"], {"a": 1.0}),
            summary("v", ["X::q"], {"b": 1.0}),
        ])
        from fuzzysumm.domain import AttributeSpec, LinguisticLabel

        x = AttributeSpec("X", 1, (LinguisticLabel("p", 0), LinguisticLabel("q", 1),
                                   LinguisticLabel("r", 2)))
        q = parse_query("Select * From T Where X FEQ $r", (x,))
        prop = rewrite(q, (x,))
        outcome = search(h, prop, mode="strict")
        assert outcome.results == []
        nodes = detect_failures(outcome, h, prop)
        assert [n.summary_id for n in nodes] == ["r"]
        assert nodes[0].failed_attributes == {"X"}

    def test_chain_failing_at_depth_two_gives_one_node(self):
        h = SummaryHierarchy([
            summary("r", [], {"a": 1.0, "b": 1.0}),
            summary("n1", ["X::p"], {"a": 1.0}),
            summary("n2", ["X::p", "Y::q"], {"a": 0.5}),
        ])
        from fuzzysumm.domain import AttributeSpec, LinguisticLabel

        x = AttributeSpec("X", 1, (LinguisticLabel("p", 0),))
        y = AttributeSpec("Y", 1, (LinguisticLabel("q", 0), LinguisticLabel("s", 1)))
        q = parse_query("Select * From T Where X FEQ $p And Y FEQ $s", (x, y))
        prop = rewrite(q, (x, y))
        outcome = search(h, prop, mode="strict")
        assert outcome.results == []
        nodes = detect_failures(outcome, h, prop)
        assert [n.summary_id for n in nodes] == ["n2"]
        assert nodes[0].failed_attributes == {"Y"}

    def test_candidate_two_levels_below_a_candidate_stays_off_the_frontier(self):
        # c1 and c2 are candidates; m between them overlaps without failing
        h = SummaryHierarchy([
            summary("r", [], {"a": 1.0}),
            summary("c1", ["Z::u", "X::q"], {"a": 1.0}),
            summary("m", ["Z::u", "X::q", "X::p"], {"a": 1.0}),
            summary("c2", ["Z::u", "X::q", "X::p", "Y::t"], {"a": 1.0}),
        ])
        prop = ConjunctiveProposition((
            Clause("X", frozenset({"p"}), 0.0),
            Clause("Y", frozenset({"s"}), 0.0),
            Clause("Z", frozenset({"u"}), 0.0),
        ))
        nodes = detect_failures(emptied_search(h, prop, "strict"), h, prop)
        assert [n.summary_id for n in nodes] == ["c1"]
        assert reference_frontier(h, prop) == ({"c1", "c2"}, {"c1"})


def reference_frontier(h, prop):
    """The detect_failures docstring's frontier, by pairwise descendant
    scans: (candidates, frontier ids)."""
    grades = {sid: grade(s, prop) for sid, s in h.summaries.items()}

    def fails(sid):
        corr = grades[sid]
        return bool(corr.grades_with(Grade.VIOLATED)) or (
            not h.children[sid] and bool(corr.grades_with(Grade.PENDING)))

    candidates = {
        sid for sid in h.summaries
        if grades[sid].grades_with(Grade.SATISFIED, Grade.PARTIAL) and fails(sid)
    }
    if candidates:
        return candidates, {
            sid for sid in candidates
            if not any(sid in descendants(h, other) for other in candidates)
        }
    undecided = {sid for sid, c in grades.items() if c.verdict is Verdict.INDECISION}
    return candidates, {sid for sid in undecided if not descendants(h, sid) & undecided}


def emptied_search(h, prop, mode):
    """A search outcome with its results dropped: the frontier depends on
    the grades alone, so any walk's trace can stand in for an empty one."""
    return dataclasses.replace(search(h, prop, mode=mode), results=[])


class TestFrontierMatchesReference:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["strict", "tolerant", "exhaustive"]))
    def test_candidate_branch(self, seed, mode):
        rng = np.random.default_rng(seed)
        h, ctx, names = random_hierarchy(rng)
        prop = random_proposition(rng, ctx, names)
        candidates, expected = reference_frontier(h, prop)
        assume(candidates)
        nodes = detect_failures(emptied_search(h, prop, mode), h, prop)
        assert {n.summary_id for n in nodes} == expected

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["strict", "tolerant", "exhaustive"]))
    def test_fallback_branch(self, seed, mode):
        # labels no summary carries: nothing overlaps, so no candidate exists
        rng = np.random.default_rng(seed)
        h, ctx, names = random_hierarchy(rng)
        chosen = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
        prop = ConjunctiveProposition(
            tuple(Clause(str(name), frozenset({"absent"}), 0.0) for name in chosen))
        candidates, expected = reference_frontier(h, prop)
        assert not candidates
        nodes = detect_failures(emptied_search(h, prop, mode), h, prop)
        assert {n.summary_id for n in nodes} == expected


class TestProposeSubstitutions:
    def test_q4_substitutes_child_and_young(self, q4_outcome, food_schema, food_hierarchy):
        q, prop, outcome = q4_outcome
        nodes = detect_failures(outcome, food_hierarchy, prop)
        subs, diagnostics = propose_substitutions(q, nodes, food_hierarchy, food_schema,
                                                  mode="exhaustive")
        assert subs
        best = subs[0]
        assert best.source == "z42"
        assert best.replaced == {"Age": ("Child", "Young")}
        assert best.distance == 1
        assert best.results  # guaranteed nonempty
        # the candy condition is preserved verbatim
        kept = [c for c in best.query.conditions if c.attribute == "Candy"]
        assert kept == [c for c in q.conditions if c.attribute == "Candy"]

    def test_every_substitution_is_nonempty(self, q4_outcome, food_schema, food_hierarchy):
        q, prop, outcome = q4_outcome
        nodes = detect_failures(outcome, food_hierarchy, prop)
        subs, _ = propose_substitutions(q, nodes, food_hierarchy, food_schema,
                                        mode="exhaustive")
        for sub in subs:
            assert sub.results
            _, _, again = evaluate(food_hierarchy, food_schema, sub.query,
                                   mode="exhaustive")
            assert [r.summary_id for r in again] == [r.summary_id for r in sub.results]

    def test_two_failure_nodes_two_substitutions(self, q4_outcome, food_schema,
                                                 food_hierarchy):
        q, prop, outcome = q4_outcome
        nodes = detect_failures(outcome, food_hierarchy, prop)
        subs, _ = propose_substitutions(q, nodes, food_hierarchy, food_schema,
                                        mode="exhaustive")
        assert len(subs) == 2
        assert [s.source for s in subs] == ["z42", "z56"]
        assert subs[0].distance >= subs[1].distance

    def test_no_labels_anywhere_gives_empty_list(self):
        h = SummaryHierarchy([
            summary("r", [], {"a": 1.0}),
            summary("u", ["Y::w"], {"a": 1.0}),
        ])
        from fuzzysumm.domain import AttributeSpec, LinguisticLabel

        x = AttributeSpec("X", 1, (LinguisticLabel("p", 0),))
        y = AttributeSpec("Y", 1, (LinguisticLabel("w", 0),))
        q = parse_query("Select * From T Where X FEQ $p", (x, y))
        prop = rewrite(q, (x, y))
        outcome = search(h, prop, mode="strict")
        nodes = detect_failures(outcome, h, prop)
        subs, diagnostics = propose_substitutions(q, nodes, h, (x, y))
        assert subs == []
        assert diagnostics

    def test_requires_failures(self, q4_outcome, food_schema, food_hierarchy):
        q, _, _ = q4_outcome
        with pytest.raises(UsageError):
            propose_substitutions(q, [], food_hierarchy, food_schema)


class TestRepairReport:
    def test_full_report(self, q4_outcome, food_schema, food_hierarchy):
        q, prop, outcome = q4_outcome
        report = repair(q, food_hierarchy, food_schema, prop, outcome)
        payload = report.to_dict()
        assert payload["original_query"].startswith("Select 3 0.25")
        ids = [n["summary_id"] for n in payload["failure_nodes"]]
        assert "z42" in ids
        assert payload["substitutions"][0]["replaced"] == {"Age": ["Child", "Young"]}
        assert payload["substitutions"][0]["results"]
