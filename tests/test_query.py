import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fuzzysumm
from fuzzysumm import query as query_module
from fuzzysumm.domain import AttributeSpec, LinguisticLabel
from fuzzysumm.errors import SemanticError, UsageError
from fuzzysumm.fsql import Condition, parse_query
from fuzzysumm.lattice import build_lattice, enumerate_concepts
from fuzzysumm.query import (
    Grade,
    Verdict,
    _keep_maximal,
    default_alpha,
    edge_overlap,
    evaluate,
    grade,
    overlaps_everywhere,
    resolve_comparator,
    rewrite,
    satisfaction_degrees,
    search,
)
from fuzzysumm.repair import repair
from fuzzysumm.summary import ConceptSummary, SummaryHierarchy, build_hierarchy

from conftest import (
    FIXTURES,
    descendants,
    oracle_sd,
    random_context,
    random_hierarchy,
    random_schema_context,
    sigma_jaccard,
)


def ordered_attr(name="Age", labels=("Young", "Adult", "Old"), ftype=1):
    return AttributeSpec(name, ftype, tuple(LinguisticLabel(n, i) for i, n in enumerate(labels)))


def summary(sid, intent_keys, extent=None):
    pairs = frozenset(tuple(k.split("::", 1)) for k in intent_keys)
    return ConceptSummary(sid, extent or {}, pairs)


Q1 = "Select Income, ProfessionalBackground From Employee Where Age FEQ $Young THOLD 0.5;"
Q2 = ("Select ProfessionalBackground From Employee Where Age FEQ $Young THOLD 0.3 "
      "AND Income FEQ $Comfortable THOLD 0.3;")
Q3 = ("Select * From Employee Where Age FEQ ($Young, $Adult) THOLD 0.3 "
      "And Income FEQ ($Poor, $Modest) THOLD 0.3;")
Q4 = ("Select 3 0.25 Dairy-product, Lipid From Food-consumption "
      "Where Age FEQ ($Old) THOLD 0.25 AND Candy FEQ ($Excessive) THOLD 0.25;")


class TestResolveComparator:
    def test_feq_keeps_listed_labels(self):
        age = ordered_attr()
        assert resolve_comparator(Condition("Age", "FEQ", ("Young",)), age) == {"Young"}

    def test_fgeq_selects_upward(self):
        age = ordered_attr()
        got = resolve_comparator(Condition("Age", "FGEQ", ("Adult",)), age)
        assert got == {"Adult", "Old"}

    def test_fgt_is_strict(self):
        age = ordered_attr()
        assert resolve_comparator(Condition("Age", "FGT", ("Adult",)), age) == {"Old"}

    def test_fleq_and_flt(self):
        age = ordered_attr()
        assert resolve_comparator(Condition("Age", "FLEQ", ("Adult",)), age) == {"Young", "Adult"}
        assert resolve_comparator(Condition("Age", "FLT", ("Adult",)), age) == {"Young"}

    def test_mgt_needs_a_two_step_gap(self):
        age = ordered_attr()
        assert resolve_comparator(Condition("Age", "MGT", ("Young",)), age) == {"Old"}

    def test_mlt(self):
        age = ordered_attr()
        assert resolve_comparator(Condition("Age", "MLT", ("Old",)), age) == {"Young"}

    def test_mgt_empty_selection_is_an_error(self):
        age = ordered_attr()
        with pytest.raises(SemanticError):
            resolve_comparator(Condition("Age", "MGT", ("Adult",)), age)

    def test_necessity_comparators_unsupported(self):
        age = ordered_attr()
        with pytest.raises(SemanticError, match="unsupported"):
            resolve_comparator(Condition("Age", "NFEQ", ("Young",)), age)

    def test_order_comparator_on_unordered_attribute(self):
        hair = ordered_attr("Hair", ("Blond", "Red", "Brown"), ftype=4)
        with pytest.raises(SemanticError):
            resolve_comparator(Condition("Hair", "FGEQ", ("Red",)), hair)

    def test_multi_label_pivots(self):
        five = ordered_attr("L", ("a", "b", "c", "d", "e"))
        assert resolve_comparator(Condition("L", "FGEQ", ("b", "d")), five) == {
            "b", "c", "d", "e"}
        assert resolve_comparator(Condition("L", "MGT", ("a", "c")), five) == {"e"}


class TestDefaultAlpha:
    def test_two_three_cluster_attributes(self, employee_schema):
        q = parse_query("Select * From Employee Where Age FEQ $Young And Income FEQ $Poor",
                        employee_schema)
        assert default_alpha(q, employee_schema) == pytest.approx(1 / 3, abs=1e-12)

    def test_single_two_cluster_attribute(self):
        size = ordered_attr("Size", ("Small", "Big"))
        q = parse_query("Select * From T Where Size FEQ $Small", (size,))
        assert default_alpha(q, (size,)) == 0.5

    def test_max_over_cluster_counts(self):
        three = ordered_attr("A3", ("x", "y", "z"))
        four = ordered_attr("A4", ("p", "q", "r", "s"))
        q = parse_query("Select * From T Where A3 FEQ $x And A4 FEQ $p", (three, four))
        assert default_alpha(q, (three, four)) == 0.25

    def test_requires_a_condition(self, employee_schema):
        q = parse_query("Select Age From Employee", employee_schema)
        with pytest.raises(UsageError):
            default_alpha(q, employee_schema)


class TestRewrite:
    def test_q3_clauses(self, employee_schema):
        prop = rewrite(parse_query(Q3, employee_schema), employee_schema)
        assert [(c.attribute, set(c.labels), c.alpha) for c in prop.clauses] == [
            ("Age", {"Young", "Adult"}, 0.3),
            ("Income", {"Poor", "Modest"}, 0.3),
        ]

    def test_q1_clause(self, employee_schema):
        prop = rewrite(parse_query(Q1, employee_schema), employee_schema)
        assert [(c.attribute, set(c.labels), c.alpha) for c in prop.clauses] == [
            ("Age", {"Young"}, 0.5)
        ]

    def test_no_conditions_rewrite_to_empty_proposition(self, employee_schema):
        prop = rewrite(parse_query("Select Age From Employee", employee_schema),
                       employee_schema)
        assert prop.clauses == ()
        assert prop.alpha == 0.0

    def test_thold_defaults_to_cluster_count_rule(self, employee_schema):
        q = parse_query("Select * From Employee Where Age FEQ $Young", employee_schema)
        prop = rewrite(q, employee_schema)
        assert prop.clauses[0].alpha == pytest.approx(1 / 3)

    def test_select_level_override_beats_thold(self, employee_schema):
        q = parse_query("Select 5 0.9 * From Employee Where Age FEQ $Young THOLD 0.2",
                        employee_schema)
        prop = rewrite(q, employee_schema)
        assert prop.clauses[0].alpha == 0.9


class TestGrade:
    def make_prop(self, schema, text):
        return rewrite(parse_query(text, schema), schema)

    def test_exact_when_labels_inside_clause(self, employee_schema, employee_hierarchy):
        prop = self.make_prop(employee_schema, Q1)
        corr = grade(employee_hierarchy.summary("z13"), prop)
        assert corr.verdict is Verdict.EXACT
        assert corr.per_attribute == {"Age": Grade.SATISFIED}

    def test_violated_makes_false(self, employee_schema, employee_hierarchy):
        prop = self.make_prop(employee_schema, Q2)
        corr = grade(employee_hierarchy.summary("z11"), prop)
        assert corr.per_attribute["Age"] is Grade.VIOLATED
        assert corr.verdict is Verdict.FALSE

    def test_root_is_all_pending(self, employee_schema, employee_hierarchy):
        prop = self.make_prop(employee_schema, Q3)
        corr = grade(employee_hierarchy.summary("z0"), prop)
        assert set(corr.per_attribute.values()) == {Grade.PENDING}
        assert corr.verdict is Verdict.INDECISION

    def test_partial_overlap(self, employee_schema, employee_hierarchy):
        prop = self.make_prop(employee_schema, Q2)  # Age = {Young}
        corr = grade(employee_hierarchy.summary("z24"), prop)  # Age = {Young, Adult}
        assert corr.per_attribute["Age"] is Grade.PARTIAL
        assert corr.verdict is Verdict.INDECISION

    def test_tolerant_upgrades_partial(self, employee_schema, employee_hierarchy):
        prop = self.make_prop(employee_schema, Q2)
        corr = grade(employee_hierarchy.summary("z34"), prop, tolerant=True)
        assert corr.per_attribute["Age"] is Grade.SATISFIED
        assert corr.verdict is Verdict.EXACT

    def test_empty_proposition_is_vacuously_exact(self, employee_schema, employee_hierarchy):
        prop = self.make_prop(employee_schema, "Select Age From Employee")
        assert grade(employee_hierarchy.summary("z0"), prop).verdict is Verdict.EXACT


class TestSearch:
    def run(self, schema, h, text, mode):
        prop = rewrite(parse_query(text, schema), schema)
        return search(h, prop, mode=mode)

    def test_q1_strict_returns_only_the_general_answer(self, employee_schema,
                                                       employee_hierarchy):
        outcome = self.run(employee_schema, employee_hierarchy, Q1, "strict")
        assert outcome.results == ["z13"]

    def test_q3_strict(self, employee_schema, employee_hierarchy):
        outcome = self.run(employee_schema, employee_hierarchy, Q3, "strict")
        assert set(outcome.results) == {"z21", "z22", "z23"}

    def test_q2_three_modes(self, employee_schema, employee_hierarchy):
        assert self.run(employee_schema, employee_hierarchy, Q2, "strict").results == []
        assert self.run(employee_schema, employee_hierarchy, Q2, "tolerant").results == ["z34"]
        exhaustive = self.run(employee_schema, employee_hierarchy, Q2, "exhaustive")
        assert set(exhaustive.results) == {"z34", "z42", "z5"}  # z5 dies at the alpha cut

    def test_results_never_contain_violations(self, employee_schema, employee_hierarchy):
        for text in (Q1, Q2, Q3):
            for mode in ("strict", "tolerant", "exhaustive"):
                outcome = self.run(employee_schema, employee_hierarchy, text, mode)
                prop = rewrite(parse_query(text, employee_schema), employee_schema)
                for sid in outcome.results:
                    corr = grade(employee_hierarchy.summary(sid), prop)
                    assert Grade.VIOLATED not in corr.per_attribute.values()
                    if mode == "strict":
                        assert corr.verdict is Verdict.EXACT

    def test_empty_proposition_matches_root(self, employee_schema, employee_hierarchy):
        outcome = self.run(employee_schema, employee_hierarchy,
                           "Select Age From Employee", "strict")
        assert outcome.results == ["z0"]

    def test_bad_mode(self, employee_schema, employee_hierarchy):
        prop = rewrite(parse_query(Q1, employee_schema), employee_schema)
        with pytest.raises(UsageError):
            search(employee_hierarchy, prop, mode="eager")


TUPLES = [f"t{i}" for i in range(8)]
DEGREES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def extent_pairs(draw):
    """(child, parent) extents over up to 8 tuples.  The child holds some
    of the parent's tuples (all of them: nested; none: disjoint) and some
    of its own; on shared tuples its degrees are drawn at or below the
    parent's, or freely, so the child may sit above its parent."""
    parent = draw(st.dictionaries(st.sampled_from(TUPLES), DEGREES, max_size=8))
    free = [t for t in TUPLES if t not in parent]
    shared = draw(st.sets(st.sampled_from(sorted(parent)))) if parent else set()
    own = draw(st.sets(st.sampled_from(free))) if free else set()
    below = draw(st.booleans())
    child = {key: parent[key] * draw(DEGREES) if below else draw(DEGREES) for key in sorted(shared)}
    child.update({key: draw(DEGREES) for key in sorted(own)})
    return child, parent


def random_free_hierarchy(rng: np.random.Generator) -> SummaryHierarchy:
    """Distinct random intents over 5 pairs, each with an extent drawn on
    its own: edges need not nest, and a child may hold more than its
    parent."""
    pairs = [f"A::l{j}" for j in range(5)]
    intents = {frozenset(p for p in pairs if rng.random() < 0.4) for _ in range(16)}
    out = []
    for i, intent in enumerate(sorted(intents, key=sorted)):
        extent = {t: float(rng.choice([0.0, 1.0, rng.random()]))
                  for t in TUPLES[:6] if rng.random() < 0.7}
        out.append(summary(f"s{i}", sorted(intent), extent))
    return SummaryHierarchy(out)


class TestSatisfactionDegree:
    def test_root_is_zero(self, employee_hierarchy):
        assert satisfaction_degrees(employee_hierarchy)["z0"] == 0.0

    def test_single_edge_is_one_overlap(self, employee_hierarchy):
        # z0 covers all six tuples at 1; z11 sigma-count 2.8 -> 2.8/6
        assert satisfaction_degrees(employee_hierarchy)["z11"] == pytest.approx(2.8 / 6,
                                                                                abs=1e-12)

    def test_max_over_paths_on_a_diamond(self):
        h = SummaryHierarchy([
            summary("r", [], {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}),
            summary("p1", ["X::p"], {"a": 1.0, "b": 0.5}),
            summary("p2", ["Y::q"], {"a": 0.5, "b": 1.0, "c": 1.0}),
            summary("leaf", ["X::p", "Y::q"], {"a": 0.5}),
        ])
        sds = satisfaction_degrees(h)
        assert sds["p1"] == pytest.approx(1.5 / 4)
        assert sds["p2"] == pytest.approx(2.5 / 4)
        # via p1: 0.375 + 0.5/1.5 ; via p2: 0.625 + 0.5/2.5 -> the larger wins
        assert sds["leaf"] == pytest.approx(max(1.5 / 4 + 0.5 / 1.5, 2.5 / 4 + 0.5 / 2.5))

    def test_path_max_recurrence(self, employee_hierarchy):
        sds = satisfaction_degrees(employee_hierarchy)
        for sid, s in employee_hierarchy.summaries.items():
            parents = employee_hierarchy.parents(sid)
            if not parents:
                continue
            through = [
                sds[pid] + sigma_jaccard(s.extent, employee_hierarchy.summary(pid).extent)
                for pid in parents
            ]
            for total in through:
                assert sds[sid] >= total - 1e-12
            assert sds[sid] == pytest.approx(max(through), abs=1e-12)

    def test_unknown_id(self, employee_hierarchy, food_hierarchy):
        """Every summary is reachable from the root, so every summary and
        nothing else gets a degree."""
        for h in (employee_hierarchy, food_hierarchy):
            sds = satisfaction_degrees(h)
            assert set(sds) == set(h.summaries)
            assert "zz" not in sds

    def test_one_sweep_per_hierarchy(self, monkeypatch, food_schema):
        h = SummaryHierarchy.load(FIXTURES / "food_hierarchy.json")
        calls = []
        real = query_module.edge_overlap

        def counting(child, parent, parent_sigma):
            calls.append(1)
            return real(child, parent, parent_sigma)

        monkeypatch.setattr(query_module, "edge_overlap", counting)
        for text in (Q4, "Select * From Food-consumption Where Age FEQ $Young;"):
            for mode in ("strict", "tolerant", "exhaustive"):
                evaluate(h, food_schema, parse_query(text, food_schema), mode=mode)
        q = parse_query(Q4, food_schema)
        prop, outcome, results = evaluate(h, food_schema, q, mode="exhaustive")
        assert results == []
        assert repair(q, h, food_schema, prop, outcome).substitutions
        assert len(calls) == sum(len(kids) for kids in h.children.values())
        assert satisfaction_degrees(h) is satisfaction_degrees(h)
        with pytest.raises(TypeError):
            satisfaction_degrees(h)["z0"] = 1.0

    def test_same_bits_under_any_hash_seed(self):
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from fuzzysumm.lattice import FuzzyContext, build_lattice, enumerate_concepts\n"
            "from fuzzysumm.query import satisfaction_degrees\n"
            "from fuzzysumm.summary import SummaryHierarchy, build_hierarchy\n"
            "fixtures = Path(sys.argv[1])\n"
            "ctx = FuzzyContext.load(fixtures / 'topics_context.json')\n"
            "hierarchies = [SummaryHierarchy.load(fixtures / name) for name in\n"
            "               ('employee_hierarchy.json', 'food_hierarchy.json')]\n"
            "hierarchies.append(build_hierarchy(build_lattice(enumerate_concepts(ctx, 0.5))))\n"
            "for h in hierarchies:\n"
            "    print(repr(dict(satisfaction_degrees(h))))\n"
        )
        src = str(Path(fuzzysumm.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", script, str(FIXTURES)],
                                  capture_output=True, text=True, env=env, check=True)
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["context", "schema", "free"]))
    def test_sd_is_the_best_enumerated_root_path(self, seed, source):
        """Against the definition: the max over every root path, on lattices
        of random contexts, on random_hierarchy and on hierarchies whose
        extents do not nest."""
        rng = np.random.default_rng(seed)
        if source == "context":
            ctx = random_context(rng, max_objects=6, max_attrs=5)
            threshold = float(rng.choice([0.3, 0.5, 0.7]))
            h = build_hierarchy(build_lattice(enumerate_concepts(ctx, threshold)))
        elif source == "schema":
            h, _, _ = random_hierarchy(rng)
        else:
            h = random_free_hierarchy(rng)
        sds = satisfaction_degrees(h)
        assert set(sds) == set(h.summaries)
        for sid in h.summaries:
            assert abs(sds[sid] - oracle_sd(h, sid)) <= 1e-12


class TestEdgeOverlap:
    @settings(max_examples=200)
    @given(extent_pairs())
    @example(({"a": 0.5, "b": 0.25}, {"a": 0.75, "b": 0.5, "c": 1.0}))  # nested
    @example(({"a": 0.5, "z": 0.25}, {"a": 0.75, "b": 0.5}))  # partly overlapping
    @example(({"z": 1.0}, {"a": 1.0}))  # disjoint
    @example(({}, {"a": 0.5}))  # empty child
    @example(({}, {}))  # both empty
    @example(({"a": 0.0}, {"a": 0.0, "b": 0.0}))  # zero degrees
    @example(({"a": 1.0, "b": 0.75}, {"a": 0.25, "b": 0.5}))  # child above parent
    def test_equals_the_pointwise_union(self, pair):
        child, parent = pair
        got = edge_overlap(child, parent, math.fsum(parent.values()))
        assert abs(got - sigma_jaccard(child, parent)) <= 1e-12


class TestKeepMaximal:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_pairwise_descendant_scan(self, seed):
        rng = np.random.default_rng(seed)
        h, _, _ = random_hierarchy(rng)
        ids = list(h.summaries)
        picked = [ids[i] for i in rng.permutation(len(ids))[: int(rng.integers(0, len(ids) + 1))]]
        expected = [
            sid for sid in picked
            if not any(sid in descendants(h, other) for other in picked)
        ]
        assert _keep_maximal(h, picked) == expected


class TestTopK:
    def test_q1_pipeline(self, employee_schema, employee_hierarchy):
        q = parse_query(Q1, employee_schema)
        _, _, results = evaluate(employee_hierarchy, employee_schema, q, mode="strict", k=3)
        assert len(results) == 1
        r = results[0]
        assert r.summary_id == "z13"
        assert r.extent == {"t1": 0.5, "t3": 0.7, "t5": 0.6, "t6": 0.5}
        assert r.alpha == 0.5

    def test_q3_ranking_by_satisfaction_degree(self, employee_schema, employee_hierarchy):
        q = parse_query(Q3, employee_schema)
        _, _, results = evaluate(employee_hierarchy, employee_schema, q)
        assert [r.summary_id for r in results] == ["z22", "z21", "z23"]
        assert results[0].sd >= results[1].sd >= results[2].sd

    def test_k_truncates(self, employee_schema, employee_hierarchy):
        q = parse_query(Q3, employee_schema)
        _, _, results = evaluate(employee_hierarchy, employee_schema, q, k=2)
        assert len(results) == 2

    def test_k_larger_than_result_count(self, employee_schema, employee_hierarchy):
        q = parse_query(Q3, employee_schema)
        _, _, results = evaluate(employee_hierarchy, employee_schema, q, k=50)
        assert len(results) == 3

    def test_empty_alpha_cuts_are_dropped(self, employee_schema, employee_hierarchy):
        q = parse_query(Q2, employee_schema)
        _, _, results = evaluate(employee_hierarchy, employee_schema, q, mode="exhaustive")
        assert [r.summary_id for r in results] == ["z42", "z34"]  # z5 filtered out

    def test_equal_sd_breaks_on_extent_size(self):
        h = SummaryHierarchy([
            summary("r", [], {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}),
            summary("s1", ["X::p"], {"a": 1.0, "b": 1.0}),
            summary("s2", ["X::q"], {"a": 0.4, "c": 0.8, "d": 0.8}),
        ])
        schema = (ordered_attr("X", ("p", "q")),)
        q = parse_query("Select * From T Where X FEQ ($p, $q) THOLD 0.1", schema)
        prop, outcome, results = evaluate(h, schema, q)
        assert results[0].sd == pytest.approx(results[1].sd, abs=1e-12)
        assert [r.summary_id for r in results] == ["s2", "s1"]  # 3 tuples beat 2

    def test_raising_thold_never_adds_tuples(self, employee_schema, employee_hierarchy):
        low = parse_query("Select * From Employee Where Age FEQ $Young THOLD 0.3",
                          employee_schema)
        high = parse_query("Select * From Employee Where Age FEQ $Young THOLD 0.6",
                           employee_schema)
        _, _, low_results = evaluate(employee_hierarchy, employee_schema, low)
        _, _, high_results = evaluate(employee_hierarchy, employee_schema, high)
        low_by_id = {r.summary_id: set(r.extent) for r in low_results}
        for r in high_results:
            # the label sets are unchanged, so every summary surviving the
            # higher cut was already an answer, with a superset extent
            assert r.summary_id in low_by_id
            assert set(r.extent) <= low_by_id[r.summary_id]


class TestSearchOracle:
    def full_scan(self, h, prop):
        return {
            sid for sid, s in h.summaries.items() if overlaps_everywhere(s, prop)
        }

    def test_exhaustive_equals_full_scan_on_random_hierarchies(self):
        from fuzzysumm.query import Clause, ConjunctiveProposition

        rng = np.random.default_rng(1234)
        for _ in range(25):
            ctx, names = random_schema_context(rng)
            h = build_hierarchy(build_lattice(enumerate_concepts(ctx, 0.5)))
            n_clauses = int(rng.integers(1, min(3, len(names)) + 1))
            chosen = list(rng.choice(names, size=n_clauses, replace=False))
            clauses = []
            for name in chosen:
                vocab = sorted({l for a, l in ctx.attributes if a == name})
                size = int(rng.integers(1, len(vocab) + 1))
                labels = frozenset(rng.choice(vocab, size=size, replace=False))
                clauses.append(Clause(name, labels, 0.0))
            prop = ConjunctiveProposition(tuple(clauses))

            exhaustive = search(h, prop, mode="exhaustive")
            assert set(exhaustive.results) == self.full_scan(h, prop)

            strict = search(h, prop, mode="strict")
            assert set(strict.results) <= set(exhaustive.results)
            for pruned_id in strict.pruned:
                for below in descendants(h, pruned_id):
                    assert grade(h.summary(below), prop).verdict is not Verdict.EXACT
