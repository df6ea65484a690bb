"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own derivation code:
concepts are found by closing every object subset with direct matrix
scans, covers by the pairwise definition of a transitive reduction, and the
reference clustering is a plain textbook loop.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from fuzzysumm.domain import load_schema
from fuzzysumm.lattice import FuzzyContext, build_lattice, enumerate_concepts
from fuzzysumm.query import Clause, ConjunctiveProposition
from fuzzysumm.summary import SummaryHierarchy, build_hierarchy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def employee_schema():
    return load_schema(FIXTURES / "employee_schema.json")


@pytest.fixture(scope="session")
def employee_hierarchy():
    return SummaryHierarchy.load(FIXTURES / "employee_hierarchy.json")


@pytest.fixture(scope="session")
def food_schema():
    return load_schema(FIXTURES / "food_schema.json")


@pytest.fixture(scope="session")
def food_hierarchy():
    return SummaryHierarchy.load(FIXTURES / "food_hierarchy.json")


@pytest.fixture(scope="session")
def topics_context():
    return FuzzyContext.load(FIXTURES / "topics_context.json")


# -- independent FCA oracle --------------------------------------------------


def oracle_intent(ctx: FuzzyContext, objs, threshold):
    """Attributes at degree >= T for every object in objs, by raw scan."""
    out = set()
    for j, pair in enumerate(ctx.attributes):
        if all(ctx.degrees[ctx.objects.index(g)][j] >= threshold for g in objs):
            out.add(pair)
    return out


def oracle_extent(ctx: FuzzyContext, attrs, threshold):
    out = set()
    for i, g in enumerate(ctx.objects):
        if all(ctx.degrees[i][ctx.attributes.index(p)] >= threshold for p in attrs):
            out.add(g)
    return out


def oracle_concepts(ctx: FuzzyContext, threshold):
    """Close every subset of the objects; the distinct (extent, intent)
    pairs are exactly the concepts."""
    found = set()
    for size in range(len(ctx.objects) + 1):
        for subset in combinations(ctx.objects, size):
            intent = oracle_intent(ctx, subset, threshold)
            extent = oracle_extent(ctx, intent, threshold)
            found.add((frozenset(extent), frozenset(intent)))
    return found


def oracle_covers(keys, below):
    """(child, parent) index pairs of the transitive reduction of the strict
    order ``below(a, b)`` ("a sits strictly under b"), by the pairwise
    definition: p covers c when c is below p and no third node lies between
    them.  Sorted by child, then parent."""
    out = []
    for c, key in enumerate(keys):
        uppers = [p for p, other in enumerate(keys) if below(key, other)]
        for p in uppers:
            if not any(below(keys[q], keys[p]) for q in uppers if q != p):
                out.append((c, p))
    return sorted(out)


def descendants(h: SummaryHierarchy, sid) -> set:
    """Every summary below sid, by a plain walk over the children lists:
    the pairwise reference for the package's one-pass frontier and
    maximality code."""
    out = set()
    stack = list(h.children[h.summary(sid).id])
    while stack:
        node = stack.pop()
        if node not in out:
            out.add(node)
            stack.extend(h.children[node])
    return out


def sigma_jaccard(extent_a: dict, extent_b: dict) -> float:
    """Fuzzy-set Jaccard with sigma-count cardinality, by the pointwise
    union: sum of mins over sum of maxes across every key of either extent;
    0 when both are empty.  The reference for ``query.edge_overlap``."""
    inter = 0.0
    union = 0.0
    for key in list(extent_a) + [k for k in extent_b if k not in extent_a]:
        da, db = extent_a.get(key, 0.0), extent_b.get(key, 0.0)
        inter += min(da, db)
        union += max(da, db)
    if union == 0.0:
        return 0.0
    return inter / union


def root_paths(h: SummaryHierarchy, sid) -> list:
    """Every path from the root down to sid, as id lists, by walking the
    parents lists upward."""
    if sid == h.root:
        return [[sid]]
    return [path + [sid] for pid in h.parents(sid) for path in root_paths(h, pid)]


def oracle_sd(h: SummaryHierarchy, sid) -> float:
    """Satisfaction degree by its definition: the largest sum of
    ``sigma_jaccard`` edge weights over the explicitly enumerated root
    paths."""
    return max(
        sum(sigma_jaccard(h.summary(c).extent, h.summary(p).extent) for p, c in zip(path, path[1:]))
        for path in root_paths(h, sid)
    )


def random_context(rng: np.random.Generator, max_objects=10, max_attrs=8) -> FuzzyContext:
    n = int(rng.integers(1, max_objects + 1))
    m = int(rng.integers(1, max_attrs + 1))
    objects = tuple(f"g{i}" for i in range(n))
    attributes = tuple(("A", f"m{j}") for j in range(m))
    degrees = tuple(tuple(float(v) for v in rng.uniform(0.0, 1.0, m)) for _ in range(n))
    return FuzzyContext(objects, attributes, degrees)


def random_schema_context(rng: np.random.Generator, max_objects=8):
    """Context whose columns group into 2-3 named attributes, for query and
    hierarchy property tests."""
    n_attrs = int(rng.integers(2, 4))
    names = [f"A{k}" for k in range(n_attrs)]
    pairs = []
    for name in names:
        for j in range(int(rng.integers(2, 5))):
            pairs.append((name, f"l{j}"))
    n = int(rng.integers(3, max_objects + 1))
    objects = tuple(f"g{i}" for i in range(n))
    degrees = tuple(
        tuple(float(v) for v in rng.uniform(0.0, 1.0, len(pairs))) for _ in range(n)
    )
    return FuzzyContext(objects, tuple(pairs), degrees), names


def random_hierarchy(rng: np.random.Generator):
    """Hierarchy of at most 50 summaries over a random_schema_context."""
    while True:
        ctx, names = random_schema_context(rng, max_objects=8)
        concepts = enumerate_concepts(ctx, float(rng.choice([0.4, 0.5, 0.6])))
        if len(concepts) <= 50:
            return build_hierarchy(build_lattice(concepts)), ctx, names


def random_proposition(rng: np.random.Generator, ctx: FuzzyContext, names):
    """1-3 clauses, each a nonempty subset of its attribute's labels."""
    n_clauses = int(rng.integers(1, min(3, len(names)) + 1))
    chosen = rng.choice(names, size=n_clauses, replace=False)
    clauses = []
    for name in chosen:
        vocab = sorted({label for attr, label in ctx.attributes if attr == name})
        size = int(rng.integers(1, len(vocab) + 1))
        labels = frozenset(rng.choice(vocab, size=size, replace=False))
        clauses.append(Clause(str(name), labels, 0.0))
    return ConjunctiveProposition(tuple(clauses))


# -- independent clustering oracle -------------------------------------------


def reference_fcm(xs, centers, m=2.0, iters=400):
    """Textbook alternating updates from a given starting point."""
    xs = np.asarray(xs, dtype=float)
    centers = np.asarray(centers, dtype=float)
    for _ in range(iters):
        d = np.abs(xs[None, :] - centers[:, None])
        d = np.maximum(d, 1e-12)
        u = d ** (-2.0 / (m - 1.0))
        u /= u.sum(axis=0, keepdims=True)
        centers = ((u ** m) @ xs) / (u ** m).sum(axis=1)
    return np.sort(centers)
