"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every expected value is either a published reference number or is
recomputed here by an independent oracle.
"""

import json

import numpy as np
import pytest

from fuzzysumm.clustering import fcm
from fuzzysumm.cli import build_state, dumps, run_query
from fuzzysumm.fsql import parse_query
from fuzzysumm.lattice import build_lattice, enumerate_concepts
from fuzzysumm.query import (
    Verdict,
    default_alpha,
    evaluate,
    grade,
    overlaps_everywhere,
    search,
)
from fuzzysumm.repair import distance, repair
from fuzzysumm.summary import alpha_cut

from conftest import (
    FIXTURES,
    descendants,
    oracle_concepts,
    random_context,
    random_hierarchy,
    random_proposition,
)

D, C, F = ("Topic", "D"), ("Topic", "C"), ("Topic", "F")

Q1 = "Select Income, ProfessionalBackground From Employee Where Age FEQ $Young THOLD 0.5;"
Q2 = ("Select ProfessionalBackground From Employee Where Age FEQ $Young THOLD 0.3 "
      "AND Income FEQ $Comfortable THOLD 0.3;")
Q3 = ("Select * From Employee Where Age FEQ ($Young, $Adult) THOLD 0.3 "
      "And Income FEQ ($Poor, $Modest) THOLD 0.3;")
Q4 = ("Select 3 0.25 Dairy-product, Lipid From Food-consumption "
      "Where Age FEQ ($Old) THOLD 0.25 AND Candy FEQ ($Excessive) THOLD 0.25;")


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE C{number:02d} PASS - {message}")


def test_c01_reference_context_lattice(topics_context):
    concepts = enumerate_concepts(topics_context, 0.5)
    assert len(concepts) == 6

    by_intent = {c.intent: c for c in concepts}
    dc = by_intent[frozenset({D, C})]
    assert set(dc.extent) == {"D2"}
    assert abs(dc.extent["D2"] - min(0.9, 0.85)) <= 1e-9
    df = by_intent[frozenset({D, F})]
    assert set(df.extent) == {"D1"}
    assert abs(df.extent["D1"] - 0.61) <= 1e-9

    ours = {(frozenset(c.extent), c.intent) for c in concepts}
    assert ours == oracle_concepts(topics_context, 0.5)
    report(1, "6 concepts with exact degrees, equal to the brute-force closure oracle")


def test_c02_single_label_query(employee_schema, employee_hierarchy):
    q = parse_query(Q1, employee_schema)
    _, _, results = evaluate(employee_hierarchy, employee_schema, q, mode="strict")
    assert [r.summary_id for r in results] == ["z13"]
    expected = {"t1": 0.5, "t3": 0.7, "t5": 0.6, "t6": 0.5}
    assert set(results[0].extent) == set(expected)
    for tid, degree in expected.items():
        assert abs(results[0].extent[tid] - degree) <= 1e-9
    report(2, "strict single-label query returns exactly the alpha-cut general summary")


def test_c03_two_clause_strict_query(employee_schema, employee_hierarchy):
    q = parse_query(Q3, employee_schema)
    _, _, results = evaluate(employee_hierarchy, employee_schema, q, mode="strict")
    assert {r.summary_id for r in results} == {"z21", "z22", "z23"}
    for r in results:
        assert len(r.intent) == 2  # nothing deeper is reported
        full = employee_hierarchy.summary(r.summary_id).extent
        assert r.extent == full  # every member survives the 0.3 cut
    report(3, "two-clause strict query returns the three level-2 summaries, nothing deeper")


def test_c04_match_mode_spread(employee_schema, employee_hierarchy):
    q = parse_query(Q2, employee_schema)
    _, _, exhaustive = evaluate(employee_hierarchy, employee_schema, q, mode="exhaustive")
    assert {r.summary_id for r in exhaustive} == {"z34", "z42"}
    _, _, tolerant = evaluate(employee_hierarchy, employee_schema, q, mode="tolerant")
    assert {r.summary_id for r in tolerant} == {"z34"}
    # stop-at-exact semantics provably cannot reach these answers: the only
    # summaries satisfying both clauses outright do not exist in the fixture
    _, _, strict = evaluate(employee_hierarchy, employee_schema, q, mode="strict")
    assert strict == []
    report(4, "mode spread: exhaustive {z34,z42}, tolerant {z34}, strict empty")


def test_c05_repair_of_failing_query(food_schema, food_hierarchy):
    q = parse_query(Q4, food_schema)
    prop, outcome, results = evaluate(food_hierarchy, food_schema, q, mode="exhaustive")
    assert results == []

    rep = repair(q, food_hierarchy, food_schema, prop, outcome)
    failure_ids = [n.summary_id for n in rep.failure_nodes]
    assert "z42" in failure_ids

    assert distance(q, food_hierarchy.summary("z51")) == 1
    assert distance(q, food_hierarchy.summary("z42")) == 1

    assert rep.substitutions
    best = rep.substitutions[0]
    assert set(best.replaced["Age"]) == {"Child", "Young"}
    assert best.results
    _, _, rerun = evaluate(food_hierarchy, food_schema, best.query, mode="exhaustive")
    assert rerun
    report(5, "failing query repaired through z42 with the Child/Young substitution")


def test_c06_concept_analysis_property_suite():
    rng = np.random.default_rng(20240817)
    violations = []
    for case in range(200):
        ctx = random_context(rng, max_objects=10, max_attrs=8)
        threshold = float(rng.choice([0.3, 0.5, 0.7]))
        n, m = len(ctx.objects), len(ctx.attributes)
        held = [[v >= threshold for v in row] for row in ctx.degrees]

        def intent_of(idxs):
            return frozenset(
                j for j in range(m) if all(held[i][j] for i in idxs)
            )

        def extent_of(jdxs):
            return frozenset(
                i for i in range(n) if all(held[i][j] for j in jdxs)
            )

        subset = frozenset(range(0, n, 2))
        closure = extent_of(intent_of(subset))
        if not subset <= closure:
            violations.append((case, "A not within A**"))
        if intent_of(closure) != intent_of(subset):
            violations.append((case, "A* != A***"))
        attrs = frozenset(range(0, m, 2))
        if not attrs <= intent_of(extent_of(attrs)):
            violations.append((case, "B not within B**"))
        if not intent_of(frozenset(range(n))) <= intent_of(subset):
            violations.append((case, "derivation not antitone"))

        concepts = enumerate_concepts(ctx, threshold)
        ours = {(frozenset(c.extent), c.intent) for c in concepts}
        if ours != oracle_concepts(ctx, threshold):
            violations.append((case, "concept set differs from oracle"))

        by_id = {c.id: c for c in concepts}
        for child, parent in build_lattice(concepts).covers:
            if not frozenset(by_id[child].extent) < frozenset(by_id[parent].extent):
                violations.append((case, "cover edge without extent inclusion"))
            if not by_id[parent].intent < by_id[child].intent:
                violations.append((case, "cover edge without intent inclusion"))
    assert violations == []
    report(6, "closure/antitone/oracle/cover properties hold on 200 random contexts")


def test_c07_search_oracle_suite():
    rng = np.random.default_rng(4711)
    violations = []
    for case in range(100):
        h, ctx, names = random_hierarchy(rng)
        prop = random_proposition(rng, ctx, names)

        exhaustive = search(h, prop, mode="exhaustive")
        full_scan = {
            sid for sid, s in h.summaries.items() if overlaps_everywhere(s, prop)
        }
        if set(exhaustive.results) != full_scan:
            violations.append((case, "exhaustive differs from full scan"))

        strict = search(h, prop, mode="strict")
        if not set(strict.results) <= set(exhaustive.results):
            violations.append((case, "strict not a subset of exhaustive"))
        for sid in strict.results:
            if descendants(h, sid) & set(strict.results):
                violations.append((case, "strict results are not an antichain"))

        for pruned_id in strict.pruned:
            for below in descendants(h, pruned_id):
                if grade(h.summary(below), prop).verdict is Verdict.EXACT:
                    violations.append((case, f"pruned subtree hides exact node {below}"))
    assert violations == []
    report(7, "exhaustive==full-scan, strict subset, and safe pruning on 100 hierarchies")


def test_c08_clustering_suite():
    rng = np.random.default_rng(2024)
    xs = np.concatenate([
        rng.normal(0.0, 0.3, 50), rng.normal(5.0, 0.3, 50), rng.normal(10.0, 0.3, 50)
    ])
    values = [(f"t{i}", float(x)) for i, x in enumerate(xs)]

    centers, matrix = fcm(values, c=3, seed=7)
    for row in matrix.rows.values():
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    trace = matrix.objective_trace
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    for center, mean in zip(centers, (0.0, 5.0, 10.0)):
        assert abs(center - mean) <= 0.5  # 5% of the generating span

    again = fcm(values, c=3, seed=7)
    assert again[0] == centers
    assert again[1].rows == matrix.rows
    report(8, "row-stochastic, monotone objective, 5% center recovery, bit-equal reruns")


def test_c09_alpha_cut_and_default_threshold(employee_schema, employee_hierarchy,
                                             food_hierarchy):
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for h in (employee_hierarchy, food_hierarchy):
        for s in h.summaries.values():
            previous = None
            for alpha in grid:
                cut = set(alpha_cut(s, alpha))
                if previous is not None:
                    assert cut <= previous
                previous = cut

    q = parse_query("Select * From Employee Where Age FEQ $Young And Income FEQ $Poor",
                    employee_schema)
    assert abs(default_alpha(q, employee_schema) - 1 / 3) <= 1e-12
    report(9, "alpha-cut monotone on every fixture summary; default threshold = 1/3")


def test_c10_round_trip_reproduces_query_bytes(tmp_path):
    first = build_state(
        FIXTURES / "employee_schema.json",
        hierarchy_path=FIXTURES / "employee_hierarchy.json",
    )
    state_path = tmp_path / "state.json"
    first.save(state_path)

    code, payload, _, _ = run_query(first, Q1, mode="strict", k=None, alpha=None)
    assert code == 0
    baseline = dumps(payload).encode()

    exported = tmp_path / "hierarchy.json"
    first.hierarchy.save(exported)
    second = build_state(FIXTURES / "employee_schema.json", hierarchy_path=exported)
    code, payload, _, _ = run_query(second, Q1, mode="strict", k=None, alpha=None)
    assert code == 0
    assert dumps(payload).encode() == baseline
    report(10, "build/export/import/re-query reproduces the answer byte-for-byte")
