"""Fuzzy formal concept analysis over a degree-valued context.

A context holds objects, (attribute, label) pairs and a membership matrix
with degrees in [0,1].  A confidence threshold T binarizes the matrix for
the derivation operators; concepts keep fuzzy extents, where each object's
degree is the min of its degrees over the intent.  Concept enumeration is
lectic (NextClosure) over the attribute side; the Hasse diagram is the
transitive reduction of extent inclusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ContextError, DataError, UsageError

AttrPair = tuple[str, str]  # (attribute name, label name)

PAIR_SEP = "::"


def pair_key(pair: AttrPair) -> str:
    return f"{pair[0]}{PAIR_SEP}{pair[1]}"


def parse_pair(key: str) -> AttrPair:
    attr, sep, label = key.partition(PAIR_SEP)
    if not sep:
        raise DataError(f"attribute key {key!r} is not of the form 'Attr{PAIR_SEP}Label'")
    return attr, label


@dataclass(frozen=True)
class FuzzyContext:
    """objects x (attribute, label) matrix of membership degrees."""

    objects: tuple[str, ...]
    attributes: tuple[AttrPair, ...]
    degrees: tuple[tuple[float, ...], ...]  # row per object

    def __post_init__(self):
        if len(self.degrees) != len(self.objects):
            raise DataError("context: one degree row per object required")
        for g, row in zip(self.objects, self.degrees):
            if len(row) != len(self.attributes):
                raise DataError(f"context: row for {g!r} has wrong width")
            for value in row:
                if not (0.0 <= value <= 1.0):
                    raise DataError(f"context: degree {value!r} for {g!r} outside [0,1]")

    def object_index(self, obj: str) -> int:
        try:
            return self.objects.index(obj)
        except ValueError:
            raise ContextError(f"unknown object {obj!r}")

    def attribute_index(self, pair: AttrPair) -> int:
        try:
            return self.attributes.index(pair)
        except ValueError:
            raise ContextError(f"unknown attribute {pair!r}")

    def degree(self, obj: str, pair: AttrPair) -> float:
        return self.degrees[self.object_index(obj)][self.attribute_index(pair)]

    def to_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "attributes": [pair_key(p) for p in self.attributes],
            "degrees": [list(row) for row in self.degrees],
        }

    @staticmethod
    def from_dict(raw: dict) -> "FuzzyContext":
        try:
            objects = tuple(raw["objects"])
            attributes = tuple(parse_pair(k) for k in raw["attributes"])
            degrees = tuple(tuple(float(v) for v in row) for row in raw["degrees"])
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed context JSON: {exc}")
        return FuzzyContext(objects, attributes, degrees)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "FuzzyContext":
        with open(path, "r", encoding="utf-8") as fh:
            return FuzzyContext.from_dict(json.load(fh))


@dataclass
class FuzzyConcept:
    """(fuzzy extent, crisp intent) fixpoint of the T-binarized derivations.

    ``extent`` maps each covered object to min over the intent of its
    context degrees (1.0 under the empty intent).
    """

    id: int
    extent: dict[str, float]
    intent: frozenset[AttrPair]

    @property
    def crisp_extent(self) -> frozenset[str]:
        return frozenset(self.extent)

    def sigma_count(self) -> float:
        return sum(self.extent.values())


def _binarize(ctx: FuzzyContext, threshold: float):
    """Row bitmasks over attributes: bit j of row g set iff I[g][j] >= T."""
    rows = []
    for row in ctx.degrees:
        mask = 0
        for j, value in enumerate(row):
            if value >= threshold:
                mask |= 1 << j
        rows.append(mask)
    return rows


def _mask_to_indices(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def derive_intent(objs, ctx: FuzzyContext, threshold: float) -> set[AttrPair]:
    """Attributes shared (at degree >= T) by every object in objs; the whole
    attribute set when objs is empty."""
    rows = _binarize(ctx, threshold)
    mask = (1 << len(ctx.attributes)) - 1
    for obj in objs:
        mask &= rows[ctx.object_index(obj)]
    return {ctx.attributes[j] for j in _mask_to_indices(mask)}


def derive_extent(attrs, ctx: FuzzyContext, threshold: float) -> set[str]:
    """Dual of derive_intent: objects having every attribute at degree >= T."""
    want = 0
    for pair in attrs:
        want |= 1 << ctx.attribute_index(pair)
    rows = _binarize(ctx, threshold)
    return {g for g, row in zip(ctx.objects, rows) if row & want == want}


def _fuzzy_extent(ctx: FuzzyContext, extent_indices, intent_indices) -> dict[str, float]:
    if not intent_indices:
        return {ctx.objects[i]: 1.0 for i in extent_indices}
    out = {}
    for i in extent_indices:
        row = ctx.degrees[i]
        out[ctx.objects[i]] = min(row[j] for j in intent_indices)
    return out


def enumerate_concepts(ctx: FuzzyContext, threshold: float) -> list[FuzzyConcept]:
    """All concepts of the T-binarized context, in (|intent|, lectic intent)
    order with ids assigned along that order.

    Intents are enumerated with NextClosure, so the cost is one closure per
    concept rather than one per subset.
    """
    if not (0.0 <= threshold <= 1.0):
        raise UsageError(f"threshold {threshold!r} outside [0,1]")
    rows = _binarize(ctx, threshold)
    n, m = len(ctx.objects), len(ctx.attributes)
    full = (1 << m) - 1

    def extent_of(intent_mask: int) -> int:
        out = 0
        for i in range(n):
            if rows[i] & intent_mask == intent_mask:
                out |= 1 << i
        return out

    def intent_of(extent_mask: int) -> int:
        out = full
        i = 0
        mask = extent_mask
        while mask:
            if mask & 1:
                out &= rows[i]
            mask >>= 1
            i += 1
        return out

    def closure(intent_mask: int) -> int:
        return intent_of(extent_of(intent_mask))

    intents = []
    current = closure(0)
    intents.append(current)
    while current != full:
        nxt = None
        for i in reversed(range(m)):
            bit = 1 << i
            if current & bit:
                current &= ~bit
            else:
                candidate = closure(current | bit)
                if not ((candidate & ~current) & (bit - 1)):
                    nxt = candidate
                    break
        if nxt is None:
            break
        intents.append(nxt)
        current = nxt

    def sort_key(intent_mask: int):
        indices = tuple(_mask_to_indices(intent_mask))
        return (len(indices), indices)

    concepts = []
    for cid, intent_mask in enumerate(sorted(intents, key=sort_key)):
        intent_indices = _mask_to_indices(intent_mask)
        extent_indices = _mask_to_indices(extent_of(intent_mask))
        concepts.append(
            FuzzyConcept(
                id=cid,
                extent=_fuzzy_extent(ctx, extent_indices, intent_indices),
                intent=frozenset(ctx.attributes[j] for j in intent_indices),
            )
        )
    return concepts


def sigma_jaccard(extent_a: dict[str, float], extent_b: dict[str, float]) -> float:
    """Fuzzy-set Jaccard with sigma-count cardinality: sum of pointwise mins
    over sum of pointwise maxes; 0 when both extents are empty.

    The sums run over ``extent_a``'s keys in its order, then over the keys
    only ``extent_b`` has, so the result does not depend on the string hash
    seed."""
    inter = 0.0
    union = 0.0
    for key, da in extent_a.items():
        db = extent_b.get(key, 0.0)
        inter += min(da, db)
        union += max(da, db)
    for key, db in extent_b.items():
        if key not in extent_a:
            inter += min(0.0, db)
            union += max(0.0, db)
    if union == 0.0:
        return 0.0
    return inter / union


def similarity(k1: FuzzyConcept, k2: FuzzyConcept) -> float:
    """Extent overlap of two concepts, in [0,1] and symmetric."""
    return sigma_jaccard(k1.extent, k2.extent)


@dataclass
class ConceptLattice:
    """Complete concept set plus the covering relation of extent inclusion."""

    concepts: list[FuzzyConcept]
    covers: list[tuple[int, int]]  # (child id, parent id)
    top: int
    bottom: int
    threshold: float
    _by_id: dict[int, FuzzyConcept] = field(default_factory=dict, repr=False)
    _cover_set: set[tuple[int, int]] = field(default_factory=set, repr=False)

    def __post_init__(self):
        self._by_id = {c.id: c for c in self.concepts}
        self._cover_set = set(self.covers)

    def concept(self, cid: int) -> FuzzyConcept:
        try:
            return self._by_id[cid]
        except KeyError:
            raise UsageError(f"no concept with id {cid!r}")

    def children(self, cid: int) -> list[int]:
        return sorted(child for child, parent in self.covers if parent == cid)

    def parents(self, cid: int) -> list[int]:
        return sorted(parent for child, parent in self.covers if child == cid)

    def is_cover(self, child: int, parent: int) -> bool:
        if not self._cover_set:
            self._cover_set = set(self.covers)
        return (child, parent) in self._cover_set

    def fuzzy_score(self, child: int, parent: int) -> float:
        """Edge weight used for satisfaction degrees: the extent overlap of a
        covering pair."""
        if not self.is_cover(child, parent):
            raise UsageError(f"({child}, {parent}) is not a cover edge")
        return similarity(self.concept(child), self.concept(parent))

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "top": self.top,
            "bottom": self.bottom,
            "covers": [list(edge) for edge in sorted(self.covers)],
            "concepts": [
                {
                    "id": c.id,
                    "extent": dict(sorted(c.extent.items())),
                    "intent": sorted(pair_key(p) for p in c.intent),
                }
                for c in self.concepts
            ],
        }

    @staticmethod
    def from_dict(raw: dict) -> "ConceptLattice":
        concepts = [
            FuzzyConcept(
                id=int(entry["id"]),
                extent={k: float(v) for k, v in entry["extent"].items()},
                intent=frozenset(parse_pair(k) for k in entry["intent"]),
            )
            for entry in raw["concepts"]
        ]
        return ConceptLattice(
            concepts=concepts,
            covers=[(int(a), int(b)) for a, b in raw["covers"]],
            top=int(raw["top"]),
            bottom=int(raw["bottom"]),
            threshold=float(raw["threshold"]),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "ConceptLattice":
        with open(path, "r", encoding="utf-8") as fh:
            return ConceptLattice.from_dict(json.load(fh))


def build_lattice(concepts: list[FuzzyConcept], threshold: float = 0.0) -> ConceptLattice:
    """Hasse diagram of the given complete concept set.

    Covers are the transitive reduction of strict extent inclusion; the top
    has the maximal extent, the bottom the maximal intent.
    """
    seen = set()
    for c in concepts:
        key = (c.crisp_extent, c.intent)
        if key in seen:
            raise UsageError(f"duplicate concept {sorted(c.intent)!r}")
        seen.add(key)

    extents = {c.id: c.crisp_extent for c in concepts}
    covers = []
    for child in concepts:
        parents = [p for p in concepts if extents[child.id] < extents[p.id]]
        for p in parents:
            # p covers child unless some other parent sits strictly between
            if not any(extents[q.id] < extents[p.id] for q in parents if q.id != p.id):
                covers.append((child.id, p.id))

    top = max(concepts, key=lambda c: (len(c.extent), -len(c.intent))).id
    bottom = max(concepts, key=lambda c: (len(c.intent), -len(c.extent))).id
    return ConceptLattice(
        concepts=list(concepts),
        covers=sorted(covers),
        top=top,
        bottom=bottom,
        threshold=threshold,
    )


def fuzzy_score(child: FuzzyConcept, parent: FuzzyConcept) -> float:
    """Same overlap measure as similarity(), read along a hierarchy edge."""
    return similarity(child, parent)
