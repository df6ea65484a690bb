"""Fuzzy formal concept analysis over a degree-valued context.

A context holds objects, (attribute, label) pairs and a membership matrix
with degrees in [0,1].  A confidence threshold T binarizes the matrix for
the derivation operators; concepts keep fuzzy extents, where each object's
degree is the min of its degrees over the intent.  Concept enumeration is
lectic (NextClosure) over the attribute side; the Hasse diagram is the
transitive reduction of strict intent inclusion (by duality the same edges
as for extent inclusion).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .domain import float_rows, read_json, str_list
from .errors import DataError, UsageError

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
        keys = [pair_key(p) for p in self.attributes]
        for what, names in (("object", self.objects), ("attribute", keys)):
            seen = set()
            for name in names:
                if name in seen:
                    raise DataError(f"context: duplicate {what} {name!r}")
                seen.add(name)
        if len(self.degrees) != len(self.objects):
            raise DataError("context: one degree row per object required")
        for g, row in zip(self.objects, self.degrees):
            if len(row) != len(self.attributes):
                raise DataError(f"context: row for {g!r} has wrong width")
            for value in row:
                if not (0.0 <= value <= 1.0):
                    raise DataError(f"context: degree {value!r} for {g!r} outside [0,1]")

    def to_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "attributes": [pair_key(p) for p in self.attributes],
            "degrees": [list(row) for row in self.degrees],
        }

    @staticmethod
    def from_dict(raw: dict) -> "FuzzyContext":
        if not isinstance(raw, dict):
            raise DataError("context JSON must be an object")
        return FuzzyContext(
            str_list(raw.get("objects"), "context objects"),
            tuple(parse_pair(key) for key in str_list(raw.get("attributes"), "context attributes")),
            float_rows(raw.get("degrees"), "context degrees"),
        )

    @staticmethod
    def load(path) -> "FuzzyContext":
        return FuzzyContext.from_dict(read_json(path))


@dataclass(frozen=True)
class ConceptSummary:
    """One concept, read as a summary: covered tuples with degrees, the set
    of describing (attribute, label) pairs, and the level (= intent size).

    ``extent`` maps each covered tuple to min over the intent of its context
    degrees (1.0 under the empty intent)."""

    id: str
    extent: dict[str, float] = field(default_factory=dict)
    intent: frozenset[AttrPair] = frozenset()

    @property
    def level(self) -> int:
        return len(self.intent)

    @functools.cached_property
    def _labels_by_attribute(self) -> dict[str, frozenset[str]]:
        grouped: dict[str, set[str]] = {}
        for attr, label in self.intent:
            grouped.setdefault(attr, set()).add(label)
        return {attr: frozenset(labels) for attr, labels in grouped.items()}

    def labels_on(self, attr_name: str) -> frozenset[str]:
        return self._labels_by_attribute.get(attr_name, frozenset())

    def intent_keys(self) -> list[str]:
        return sorted(pair_key(p) for p in self.intent)


def _mask_to_indices(mask: int) -> list[int]:
    """Positions of the set bits, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _fuzzy_extent(ctx: FuzzyContext, extent_indices, intent_indices) -> dict[str, float]:
    if not intent_indices:
        return {ctx.objects[i]: 1.0 for i in extent_indices}
    out = {}
    for i in extent_indices:
        row = ctx.degrees[i]
        out[ctx.objects[i]] = min(row[j] for j in intent_indices)
    return out


def enumerate_concepts(ctx: FuzzyContext, threshold: float) -> list[ConceptSummary]:
    """All concepts of the T-binarized context, in (|intent|, lectic intent)
    order with ids "0", "1", ... assigned along that order.

    Intents are enumerated with NextClosure, so the cost is one closure per
    concept rather than one per subset.  Both derivations work on one object
    bitset per attribute (bit i set iff I[i][j] >= T).
    """
    if not (0.0 <= threshold <= 1.0):
        raise UsageError(f"threshold {threshold!r} outside [0,1]")
    n, m = len(ctx.objects), len(ctx.attributes)
    columns = [0] * m
    for i, row in enumerate(ctx.degrees):
        for j, value in enumerate(row):
            if value >= threshold:
                columns[j] |= 1 << i
    everyone = (1 << n) - 1
    full = (1 << m) - 1

    def extent_of(intent_mask: int) -> int:
        out = everyone
        for j in _mask_to_indices(intent_mask):
            out &= columns[j]
        return out

    def closure(intent_mask: int) -> int:
        extent = extent_of(intent_mask)
        out = 0
        for j, column in enumerate(columns):
            if column & extent == extent:
                out |= 1 << j
        return out

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
            ConceptSummary(
                id=str(cid),
                extent=_fuzzy_extent(ctx, extent_indices, intent_indices),
                intent=frozenset(ctx.attributes[j] for j in intent_indices),
            )
        )
    return concepts


def cover_edges(intents: list[frozenset]) -> list[tuple[int, int]]:
    """Hasse diagram of strict intent inclusion, as (child, parent) index
    pairs ordered by child, then parent: the parent's intent is a strict
    subset of the child's, with no intent in between.  The intents must be
    distinct.

    The work runs on the intents sorted by size.  There, ``subsets[c]`` is
    a bitset over the positions: all but c, minus the holders of every
    attribute missing from c's intent.  c's parents are the members of
    ``subsets[c]`` outside the union of the members' own subsets.  A member
    already inside that union adds nothing to it and is skipped; taking
    the highest position first skips most members, whatever the input
    order.
    """
    order = sorted(range(len(intents)), key=lambda i: len(intents[i]))
    holders: dict = {}
    for pos, i in enumerate(order):
        for pair in intents[i]:
            holders[pair] = holders.get(pair, 0) | (1 << pos)
    everyone = (1 << len(intents)) - 1
    subsets = []
    for pos, i in enumerate(order):
        mask = everyone ^ (1 << pos)
        for pair, held in holders.items():
            if pair not in intents[i]:
                mask &= ~held
        subsets.append(mask)
    parents: list = [None] * len(intents)
    for pos, mask in enumerate(subsets):
        implied, rest = 0, mask
        while rest:
            top = rest.bit_length() - 1
            implied |= subsets[top]
            rest ^= 1 << top
            rest &= ~implied
        parents[order[pos]] = sorted(order[p] for p in _mask_to_indices(mask & ~implied))
    return [(child, parent) for child, found in enumerate(parents) for parent in found]


@dataclass(frozen=True)
class Lattice:
    """Complete concept set and its covering pairs (child id, parent id)."""

    concepts: list[ConceptSummary]
    covers: list[tuple[str, str]]


def build_lattice(concepts: list[ConceptSummary]) -> Lattice:
    """Hasse diagram of the given complete concept set; covers are ordered
    by the child's position in ``concepts``, then the parent's."""
    if len({c.intent for c in concepts}) != len(concepts):
        raise UsageError("duplicate concept intents")
    edges = cover_edges([c.intent for c in concepts])
    covers = [(concepts[child].id, concepts[parent].id) for child, parent in edges]
    return Lattice(concepts=list(concepts), covers=covers)
