
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzysumm.cli import ProjectState, build_state, main
from fuzzysumm.errors import DataError, UsageError
from fuzzysumm.lattice import (
    ConceptSummary,
    FuzzyContext,
    build_lattice,
    cover_edges,
    enumerate_concepts,
)
from fuzzysumm.summary import build_hierarchy, lattice_section

from conftest import (
    FIXTURES,
    oracle_concepts,
    oracle_covers,
    oracle_extent,
    oracle_intent,
    random_context,
    sigma_jaccard,
)

D, C, F = ("Topic", "D"), ("Topic", "C"), ("Topic", "F")

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def topics(topics_context):
    return topics_context


def derived_intent(concepts, objs) -> set:
    """objs' read off the concept set: the intent of the smallest concept
    whose extent holds objs."""
    holders = [c for c in concepts if set(objs) <= frozenset(c.extent)]
    return set(max(holders, key=lambda c: len(c.intent)).intent)


def derived_extent(concepts, attrs) -> set:
    """attrs' read off the concept set: the extent of the largest concept
    whose intent holds attrs."""
    holders = [c for c in concepts if set(attrs) <= c.intent]
    return set(min(holders, key=lambda c: len(c.intent)).extent)


class TestDerivations:
    @pytest.fixture
    def concepts(self, topics):
        return enumerate_concepts(topics, 0.5)

    def test_single_object_intent(self, concepts):
        assert derived_intent(concepts, {"D1"}) == {D, F}

    def test_all_objects_share_nothing(self, concepts):
        assert derived_intent(concepts, {"D1", "D2", "D3"}) == set()

    def test_empty_object_set_yields_all_attributes(self, concepts):
        assert derived_intent(concepts, set()) == {D, C, F}

    def test_single_attribute_extent(self, concepts):
        assert derived_extent(concepts, {D}) == {"D1", "D2"}

    def test_two_attribute_extent(self, concepts):
        assert derived_extent(concepts, {D, C}) == {"D2"}

    def test_empty_attribute_set_yields_all_objects(self, concepts):
        assert derived_extent(concepts, set()) == {"D1", "D2", "D3"}

    def test_degree_by_row_and_column(self, topics):
        assert topics.degrees[topics.objects.index("D1")][topics.attributes.index(D)] == 0.8


class TestEnumerate:
    def test_topics_context_has_six_concepts(self, topics):
        concepts = enumerate_concepts(topics, 0.5)
        assert len(concepts) == 6
        by_intent = {c.intent: c for c in concepts}
        assert by_intent[frozenset()].extent == {"D1": 1.0, "D2": 1.0, "D3": 1.0}
        assert by_intent[frozenset({D})].extent == {"D1": 0.8, "D2": 0.9}
        assert by_intent[frozenset({F})].extent == {"D1": 0.61, "D3": 0.87}
        assert by_intent[frozenset({D, C})].extent == pytest.approx({"D2": 0.85}, abs=1e-9)
        assert by_intent[frozenset({D, F})].extent == pytest.approx({"D1": 0.61}, abs=1e-9)
        assert by_intent[frozenset({D, C, F})].extent == {}

    def test_matches_bruteforce_oracle(self, topics):
        concepts = enumerate_concepts(topics, 0.5)
        ours = {(frozenset(c.extent), c.intent) for c in concepts}
        assert ours == oracle_concepts(topics, 0.5)

    def test_all_zero_context(self):
        ctx = FuzzyContext(("a", "b"), (("X", "p"), ("X", "q")), ((0.0, 0.0), (0.0, 0.0)))
        concepts = enumerate_concepts(ctx, 0.5)
        shapes = {(frozenset(c.extent), c.intent) for c in concepts}
        assert shapes == {
            (frozenset({"a", "b"}), frozenset()),
            (frozenset(), frozenset({("X", "p"), ("X", "q")})),
        }

    def test_all_one_context(self):
        ctx = FuzzyContext(("a", "b"), (("X", "p"), ("X", "q")), ((1.0, 1.0), (1.0, 1.0)))
        concepts = enumerate_concepts(ctx, 0.5)
        assert len(concepts) == 1
        assert frozenset(concepts[0].extent) == {"a", "b"}
        assert concepts[0].intent == {("X", "p"), ("X", "q")}

    def test_ids_follow_sorted_order(self, topics):
        concepts = enumerate_concepts(topics, 0.5)
        assert [c.id for c in concepts] == ["0", "1", "2", "3", "4", "5"]
        sizes = [len(c.intent) for c in concepts]
        assert sizes == sorted(sizes)

    def test_bad_threshold(self, topics):
        with pytest.raises(UsageError):
            enumerate_concepts(topics, 1.5)


class TestLattice:
    def test_topics_hasse_diagram(self, topics):
        lat = build_lattice(enumerate_concepts(topics, 0.5))
        assert len(lat.concepts) == 6
        assert len(lat.covers) == 7
        by_id = {c.id: c for c in lat.concepts}
        section = lattice_section(build_hierarchy(lat))
        assert by_id[section["top"]].intent == frozenset()
        assert by_id[section["bottom"]].intent == {D, C, F}
        for child, parent in lat.covers:
            assert frozenset(by_id[child].extent) < frozenset(by_id[parent].extent)
            assert by_id[parent].intent < by_id[child].intent

    def test_single_concept_lattice(self):
        ctx = FuzzyContext(("a",), (("X", "p"),), ((1.0,),))
        lat = build_lattice(enumerate_concepts(ctx, 0.5))
        assert lat.covers == []
        section = lattice_section(build_hierarchy(lat))
        assert section["top"] == section["bottom"] == "0"
        assert section["covers"] == []

    def test_nested_rows_give_a_path(self):
        ctx = FuzzyContext(
            ("a", "b", "c"),
            (("X", "p"), ("X", "q"), ("X", "r")),
            ((1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 0.0)),
        )
        lat = build_lattice(enumerate_concepts(ctx, 0.5))
        assert len(lat.concepts) == 3
        assert len(lat.covers) == 2
        children = Counter(parent for _, parent in lat.covers)
        assert sorted(children[cid] for cid in ("0", "1", "2")) == [0, 1, 1]

    def test_duplicate_concepts_rejected(self):
        c = ConceptSummary("0", {"a": 1.0}, frozenset())
        d = ConceptSummary("1", {"a": 1.0}, frozenset())
        with pytest.raises(UsageError):
            build_lattice([c, d])

    @pytest.mark.parametrize("objects, attributes, named", [
        (("a", "a"), (D, C), "duplicate object 'a'"),
        (("a", "b"), (D, D), "duplicate attribute 'Topic::D'"),
    ])
    def test_duplicate_rows_or_columns_rejected(self, objects, attributes, named):
        with pytest.raises(DataError, match=named):
            FuzzyContext(objects, attributes, ((1.0, 0.5), (0.5, 1.0)))

    def test_json_round_trip(self, topics, tmp_path):
        """The lattice section is the view of the built hierarchy, and a
        loaded state saves to the built file's bytes."""
        state = build_state(FIXTURES / "topics_schema.json",
                            context_path=FIXTURES / "topics_context.json", threshold=0.5)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        state.save(first)
        lat = build_lattice(enumerate_concepts(topics, 0.5))
        assert json.loads(first.read_text())["lattice"] == lattice_section(build_hierarchy(lat))
        ProjectState.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_golden_lattice_export(self, tmp_path):
        """export --what lattice writes the bytes of
        tests/golden/topics_lattice.json: ids, intents, covers, top and
        bottom, no extents."""
        state, out = tmp_path / "s.json", tmp_path / "lattice.json"
        assert main(["build", "--schema", str(FIXTURES / "topics_schema.json"),
                     "--context", str(FIXTURES / "topics_context.json"),
                     "--threshold", "0.5", "--out", str(state)]) == 0
        assert main(["export", str(state), "--what", "lattice", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "topics_lattice.json").read_bytes()

    def test_context_json_round_trip(self, topics):
        assert FuzzyContext.from_dict(topics.to_dict()) == topics


class TestCovers:
    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.frozensets(st.sampled_from([D, C, F, ("X", "p"), ("X", "q")])),
                 unique=True, max_size=14),
        st.booleans(),
    )
    def test_cover_edges_equal_pairwise_reduction(self, intents, with_empty):
        """Any family of distinct intents, lattice or not, with or without
        the empty intent."""
        if with_empty and frozenset() not in intents:
            intents = intents + [frozenset()]
        elif not with_empty and frozenset() in intents:
            intents.remove(frozenset())
        assert cover_edges(intents) == oracle_covers(intents, lambda a, b: b < a)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.3, 0.5, 0.7]), st.booleans())
    def test_cover_edges_on_shuffled_lattice_intents(self, seed, threshold, string_order):
        """Lattice intents shuffled, or in the string order of their ids
        ("0", "1", "10", ...) as state files list them: the edges equal the
        pairwise oracle's on the reordered list."""
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, max_objects=8, max_attrs=6)
        concepts = enumerate_concepts(ctx, threshold)
        if string_order:
            intents = [c.intent for c in sorted(concepts, key=lambda c: c.id)]
        else:
            intents = [concepts[i].intent for i in rng.permutation(len(concepts))]
        assert cover_edges(intents) == oracle_covers(intents, lambda a, b: b < a)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.3, 0.5, 0.7]))
    def test_lattice_covers_equal_extent_reduction(self, seed, threshold):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, max_objects=8, max_attrs=6)
        concepts = enumerate_concepts(ctx, threshold)
        extents = [frozenset(c.extent) for c in concepts]
        index = {c.id: i for i, c in enumerate(concepts)}
        covers = [(index[child], index[parent]) for child, parent in build_lattice(concepts).covers]
        assert covers == oracle_covers(extents, lambda a, b: a < b)


class TestSimilarity:
    def test_self_similarity_is_one(self):
        extent = {"a": 0.8, "b": 0.5}
        assert sigma_jaccard(extent, extent) == 1.0

    def test_hand_computed_value(self):
        # min-sum 0.85, max-sum 0.8 + 0.9 = 1.7 -> 0.5
        assert sigma_jaccard({"D1": 0.8, "D2": 0.9}, {"D2": 0.85}) == pytest.approx(
            0.85 / 1.7, abs=1e-12)

    def test_disjoint_extents(self):
        assert sigma_jaccard({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_both_empty(self):
        assert sigma_jaccard({}, {}) == 0.0

    @given(
        st.dictionaries(st.sampled_from("abcdef"), st.floats(0.01, 1.0), max_size=6),
        st.dictionaries(st.sampled_from("abcdef"), st.floats(0.01, 1.0), max_size=6),
    )
    def test_symmetric_and_bounded(self, ea, eb):
        value = sigma_jaccard(ea, eb)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(sigma_jaccard(eb, ea), abs=1e-12)


class TestClosureProperties:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.3, 0.5, 0.7]))
    def test_closure_laws_and_oracle(self, seed, threshold):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, max_objects=6, max_attrs=5)

        concepts = enumerate_concepts(ctx, threshold)

        objs = set(ctx.objects[: max(1, len(ctx.objects) // 2)])
        intent = derived_intent(concepts, objs)
        assert intent == oracle_intent(ctx, objs, threshold)
        extent = derived_extent(concepts, intent)
        assert extent == oracle_extent(ctx, intent, threshold)
        assert objs <= extent  # A subset of A**
        assert derived_intent(concepts, extent) == intent  # A* == A***

        attrs = set(ctx.attributes[: max(1, len(ctx.attributes) // 2)])
        assert attrs <= derived_intent(concepts, derived_extent(concepts, attrs))

        bigger = set(ctx.objects)
        assert derived_intent(concepts, bigger) <= intent  # antitone

        ours = {(frozenset(c.extent), c.intent) for c in concepts}
        assert ours == oracle_concepts(ctx, threshold)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_raising_threshold_shrinks_extents(self, seed):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng, max_objects=6, max_attrs=5)
        low = enumerate_concepts(ctx, 0.3)
        for concept in enumerate_concepts(ctx, 0.7):
            holders = [
                c for c in low if c.intent >= concept.intent and
                frozenset(c.extent) >= frozenset(concept.extent)
            ]
            assert holders, f"no low-threshold concept covers {concept}"
