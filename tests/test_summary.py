import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzysumm.errors import DataError, UsageError
from fuzzysumm.lattice import FuzzyContext, build_lattice, enumerate_concepts
from fuzzysumm.summary import (
    SYNTHETIC_ROOT_ID,
    ConceptSummary,
    SummaryHierarchy,
    alpha_cut,
    build_hierarchy,
)

from conftest import descendants, random_context


def summaries_from(spec):
    """spec: {id: (extent, [\"Attr::Label\", ...])}"""
    out = []
    for sid, (extent, intent) in spec.items():
        pairs = frozenset(tuple(k.split("::", 1)) for k in intent)
        out.append(ConceptSummary(sid, dict(extent), pairs))
    return out


class TestBuildHierarchy:
    def test_from_topics_lattice(self, topics_context):
        lat = build_lattice(enumerate_concepts(topics_context, 0.5))
        h = build_hierarchy(lat)
        root = h.summary(h.root)
        assert root.intent == frozenset()
        assert root.level == 0
        leaves = [sid for sid in h.summaries if not h.children[sid]]
        assert len(leaves) == 1
        assert h.summary(leaves[0]).level == len(topics_context.attributes)

    def test_two_concept_lattice(self):
        h = SummaryHierarchy(
            summaries_from({"r": ({"a": 1.0}, []), "x": ({"a": 0.7}, ["X::p"])})
        )
        assert h.root == "r"
        assert h.children["r"] == ["x"]
        assert h.children["x"] == []

    def test_synthetic_root_over_the_lattice_top(self):
        # every object holds X::p, so the lattice top is not the empty intent
        ctx = FuzzyContext(("a", "b"), (("X", "p"), ("X", "q")), ((1.0, 1.0), (1.0, 0.0)))
        h = build_hierarchy(build_lattice(enumerate_concepts(ctx, 0.5)))
        assert h.root == SYNTHETIC_ROOT_ID
        assert h.children[SYNTHETIC_ROOT_ID] == ["0"]
        assert h.children["0"] == ["1"]
        assert h.parents("0") == [SYNTHETIC_ROOT_ID]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.3, 0.5, 0.7]))
    def test_lattice_covers_equal_computed_covers(self, seed, threshold):
        """build_hierarchy hands the lattice's covers to the constructor; a
        bare constructor computes them from the intents.  Both agree, with
        or without a synthesized root."""
        ctx = random_context(np.random.default_rng(seed), max_objects=8, max_attrs=6)
        lat = build_lattice(enumerate_concepts(ctx, threshold))
        built, bare = build_hierarchy(lat), SummaryHierarchy(lat.concepts)
        assert built.root == bare.root
        assert built.children == bare.children
        assert all(built.parents(sid) == bare.parents(sid) for sid in bare.summaries)

    def test_employee_level_one_matches_published_table(self, employee_hierarchy):
        intents = sorted(
            s.intent_keys()[0] for s in employee_hierarchy.at_level(1)
        )
        assert intents == ["Age::Adult", "Age::Young", "Income::Modest"]

    def test_levels_are_intent_sizes(self, employee_hierarchy, food_hierarchy):
        for h in (employee_hierarchy, food_hierarchy):
            for s in h.summaries.values():
                assert s.level == len(s.intent)

    def test_child_intents_strictly_grow(self, employee_hierarchy, food_hierarchy):
        for h in (employee_hierarchy, food_hierarchy):
            for sid, kids in h.children.items():
                for kid in kids:
                    assert h.summary(sid).intent < h.summary(kid).intent

    def test_food_hierarchy_gets_synthetic_root(self, food_hierarchy):
        root = food_hierarchy.summary(food_hierarchy.root)
        assert root.intent == frozenset()
        assert root.extent == {f"t{i}": 1.0 for i in range(1, 11)}
        assert food_hierarchy.children["z42"] == ["z51", "z52"]

    def test_duplicate_intents_rejected(self):
        with pytest.raises(DataError):
            SummaryHierarchy(
                summaries_from({"a": ({}, ["X::p"]), "b": ({}, ["X::p"])})
            )

    def test_unknown_id_lookup(self, employee_hierarchy):
        with pytest.raises(UsageError):
            employee_hierarchy.summary("nope")


class TestAlphaCut:
    def test_published_example(self, employee_hierarchy):
        z13 = employee_hierarchy.summary("z13")
        assert alpha_cut(z13, 0.5) == {"t1": 0.5, "t3": 0.7, "t5": 0.6, "t6": 0.5}

    def test_zero_alpha_keeps_everything(self, employee_hierarchy):
        z13 = employee_hierarchy.summary("z13")
        assert alpha_cut(z13, 0.0) == z13.extent

    def test_alpha_one_on_sub_unit_degrees_is_empty(self, employee_hierarchy):
        assert alpha_cut(employee_hierarchy.summary("z13"), 1.0) == {}

    def test_bad_alpha(self, employee_hierarchy):
        with pytest.raises(UsageError):
            alpha_cut(employee_hierarchy.summary("z13"), 1.5)

    @given(
        st.dictionaries(st.sampled_from("abcdef"), st.floats(0.0, 1.0), max_size=6),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_monotone(self, extent, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        s = ConceptSummary("s", extent, frozenset())
        assert set(alpha_cut(s, hi)) <= set(alpha_cut(s, lo))


class TestHierarchyShape:
    def test_root_to_leaf_monotonicity(self, employee_hierarchy):
        h = employee_hierarchy

        def walk(sid, path_extent_sizes, path_intent_sizes):
            s = h.summary(sid)
            if path_extent_sizes:
                assert len(s.extent) <= path_extent_sizes[-1]
                assert len(s.intent) > path_intent_sizes[-1]
            for kid in h.children[sid]:
                walk(kid, path_extent_sizes + [len(s.extent)],
                     path_intent_sizes + [len(s.intent)])

        walk(h.root, [], [])

    def test_json_round_trip_is_identity(self, employee_hierarchy, food_hierarchy):
        for h in (employee_hierarchy, food_hierarchy):
            again = SummaryHierarchy.from_dict(h.to_dict())
            assert again.to_dict() == h.to_dict()

    def test_descendants(self, employee_hierarchy):
        below = descendants(employee_hierarchy, "z24")
        assert below == {"z32", "z33", "z34", "z41", "z42", "z5"}
