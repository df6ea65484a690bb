"""Concept-summary hierarchies: the lattice read as leveled summaries.

Every concept becomes a summary whose level is its intent size; children
follow the covering edges downward, so the most general summary sits at
the root and fully-described summaries are the leaves.  Hierarchies can
also be loaded straight from JSON (intents as "Attr::Label" strings,
extents as tuple->degree maps), which makes externally published summary
tables usable as query targets without re-running the pipeline.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import DataError, UsageError
from .lattice import AttrPair, ConceptLattice, pair_key, parse_pair

SummaryId = int | str

SYNTHETIC_ROOT_ID = "root"


@dataclass(frozen=True)
class ConceptSummary:
    """One node of the hierarchy: covered tuples with degrees, the set of
    describing (attribute, label) pairs, and the level (= intent size)."""

    id: SummaryId
    extent: dict[str, float] = field(default_factory=dict)
    intent: frozenset[AttrPair] = frozenset()

    @property
    def level(self) -> int:
        return len(self.intent)

    @property
    def crisp_extent(self) -> frozenset[str]:
        return frozenset(self.extent)

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


@dataclass(frozen=True)
class AlphaSummary:
    """A summary's extent filtered to tuples with degree >= alpha."""

    summary_id: object
    alpha: float
    extent: dict[str, float]


def alpha_cut(summary: ConceptSummary, alpha: float) -> AlphaSummary:
    if not (0.0 <= alpha <= 1.0):
        raise UsageError(f"alpha {alpha!r} outside [0,1]")
    return AlphaSummary(
        summary_id=summary.id,
        alpha=alpha,
        extent={tid: deg for tid, deg in summary.extent.items() if deg >= alpha},
    )


class SummaryHierarchy:
    """Summaries ordered by intent inclusion, rooted at the empty intent.

    ``children`` is the transitive reduction of strict intent inclusion
    (recomputed on load, so externally supplied edge lists cannot
    contradict the intents).  When no empty-intent summary exists, a
    synthetic root covering every tuple at degree 1 is added.

    A hierarchy is immutable once ``__init__`` returns: nothing adds,
    removes or edits a summary or an edge afterwards.  Data derived from the
    whole graph can therefore be computed once per object and kept on it;
    ``sd_memo`` holds ``query.satisfaction_degrees``'s result after its
    first call.
    """

    def __init__(self, summaries: list[ConceptSummary]):
        ids = [s.id for s in summaries]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate summary ids")
        intents = [s.intent for s in summaries]
        if len(set(intents)) != len(intents):
            raise DataError("duplicate summary intents")

        roots = [s for s in summaries if not s.intent]
        if len(roots) > 1:
            raise DataError("more than one empty-intent summary")
        if roots:
            root = roots[0]
        else:
            if any(s.id == SYNTHETIC_ROOT_ID for s in summaries):
                raise DataError(f"cannot synthesize root: id {SYNTHETIC_ROOT_ID!r} taken")
            tuples = sorted({tid for s in summaries for tid in s.extent})
            root = ConceptSummary(SYNTHETIC_ROOT_ID, {tid: 1.0 for tid in tuples}, frozenset())
            summaries = [root] + list(summaries)

        self.summaries: dict[object, ConceptSummary] = {s.id: s for s in summaries}
        self.root = root.id
        self.children: dict[object, list] = {s.id: [] for s in summaries}
        self._parents: dict[object, list] = {s.id: [] for s in summaries}
        for child in summaries:
            uppers = [p for p in summaries if p.intent < child.intent]
            for p in uppers:
                if not any(p.intent < q.intent for q in uppers if q.id != p.id):
                    self.children[p.id].append(child.id)
                    self._parents[child.id].append(p.id)
        for cid in self.children:
            self.children[cid].sort(key=str)
            self._parents[cid].sort(key=str)
        self.sd_memo: Mapping[object, float] | None = None

    def __len__(self) -> int:
        return len(self.summaries)

    def summary(self, sid) -> ConceptSummary:
        try:
            return self.summaries[sid]
        except KeyError:
            raise UsageError(f"no summary with id {sid!r}")

    def parents(self, sid) -> list:
        return self._parents[sid]

    def descendants(self, sid) -> set:
        out = set()
        stack = list(self.children[self.summary(sid).id])
        while stack:
            node = stack.pop()
            if node in out:
                continue
            out.add(node)
            stack.extend(self.children[node])
        return out

    def at_level(self, level: int) -> list[ConceptSummary]:
        return sorted(
            (s for s in self.summaries.values() if s.level == level), key=lambda s: str(s.id)
        )

    def topological(self) -> list[ConceptSummary]:
        """Root-first order; safe for longest-path sweeps because every edge
        strictly grows the intent."""
        return sorted(self.summaries.values(), key=lambda s: (s.level, str(s.id)))

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "summaries": {
                str(s.id): {
                    "intent": s.intent_keys(),
                    "extent": dict(sorted(s.extent.items())),
                }
                for s in self.summaries.values()
            },
            "children": {str(sid): [str(c) for c in kids] for sid, kids in self.children.items()},
        }

    @staticmethod
    def from_dict(raw: dict) -> "SummaryHierarchy":
        try:
            entries = raw["summaries"]
        except (KeyError, TypeError):
            raise DataError("hierarchy JSON must carry a 'summaries' object")
        summaries = []
        for sid, entry in entries.items():
            summaries.append(
                ConceptSummary(
                    id=sid,
                    extent={k: float(v) for k, v in entry.get("extent", {}).items()},
                    intent=frozenset(parse_pair(k) for k in entry.get("intent", [])),
                )
            )
        return SummaryHierarchy(summaries)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SummaryHierarchy":
        with open(path, "r", encoding="utf-8") as fh:
            return SummaryHierarchy.from_dict(json.load(fh))


def build_hierarchy(lat: ConceptLattice) -> SummaryHierarchy:
    """Present a concept lattice as a summary hierarchy (same nodes, same
    covering edges, intent-size levels)."""
    summaries = [
        ConceptSummary(id=c.id, extent=dict(c.extent), intent=c.intent) for c in lat.concepts
    ]
    return SummaryHierarchy(summaries)
