"""Concept-summary hierarchies: the lattice read as leveled summaries.

Every concept becomes a summary whose level is its intent size; children
follow the covering edges downward, so the most general summary sits at
the root and fully-described summaries are the leaves.  Hierarchies can
also be loaded straight from JSON (intents as "Attr::Label" strings,
extents as tuple->degree maps), which makes externally published summary
tables usable as query targets without re-running the pipeline.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import DataError, UsageError
from .lattice import ConceptSummary, Lattice, cover_edges, parse_pair

SYNTHETIC_ROOT_ID = "root"


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

    ``children`` is the transitive reduction of strict intent inclusion:
    the ``covers`` pairs (child id, parent id) when the caller already holds
    them, as ``build_hierarchy`` does, otherwise ``cover_edges`` of the
    intents.  Edge lists in hierarchy JSON are not read, so they cannot
    contradict the intents.  When no empty-intent summary exists, a
    synthetic root covering every tuple at degree 1 is added above the
    parentless summaries.

    A hierarchy is immutable once ``__init__`` returns: nothing adds,
    removes or edits a summary or an edge afterwards.  Data derived from the
    whole graph can therefore be computed once per object and kept on it;
    ``sd_memo`` holds ``query.satisfaction_degrees``'s result after its
    first call.
    """

    def __init__(self, summaries: list[ConceptSummary], covers=None):
        ids = [s.id for s in summaries]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate summary ids")
        intents = [s.intent for s in summaries]
        if len(set(intents)) != len(intents):
            raise DataError("duplicate summary intents")
        if covers is None:
            covers = [(ids[child], ids[parent]) for child, parent in cover_edges(intents)]

        roots = [s for s in summaries if not s.intent]
        if len(roots) > 1:
            raise DataError("more than one empty-intent summary")
        if roots:
            root = roots[0]
        else:
            if SYNTHETIC_ROOT_ID in ids:
                raise DataError(f"cannot synthesize root: id {SYNTHETIC_ROOT_ID!r} taken")
            tuples = sorted({tid for s in summaries for tid in s.extent})
            root = ConceptSummary(SYNTHETIC_ROOT_ID, {tid: 1.0 for tid in tuples}, frozenset())
            summaries = [root] + list(summaries)

        self.summaries: dict[object, ConceptSummary] = {s.id: s for s in summaries}
        self.root = root.id
        self.children: dict[object, list] = {s.id: [] for s in summaries}
        self._parents: dict[object, list] = {s.id: [] for s in summaries}
        for child, parent in covers:
            self.children[parent].append(child)
            self._parents[child].append(parent)
        if not roots:
            for sid in ids:
                if not self._parents[sid]:
                    self.children[root.id].append(sid)
                    self._parents[sid].append(root.id)
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
            entries = None
        if not isinstance(entries, dict):
            raise DataError("hierarchy JSON must carry a 'summaries' object")
        return SummaryHierarchy([_summary_from_dict(sid, entry) for sid, entry in entries.items()])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "SummaryHierarchy":
        with open(path, "r", encoding="utf-8") as fh:
            return SummaryHierarchy.from_dict(json.load(fh))


def _summary_from_dict(sid: str, entry) -> ConceptSummary:
    if not isinstance(entry, dict):
        raise DataError(f"summary {sid!r} is not a JSON object")
    intent = entry.get("intent", [])
    if not isinstance(intent, list) or not all(isinstance(key, str) for key in intent):
        raise DataError(f"summary {sid!r}: intent is not a list of 'Attr::Label' strings")
    extent = entry.get("extent", {})
    if not isinstance(extent, dict):
        raise DataError(f"summary {sid!r}: extent is not a JSON object")
    for tid, degree in extent.items():
        if isinstance(degree, bool) or not isinstance(degree, (int, float)):
            raise DataError(f"summary {sid!r}: degree {degree!r} of {tid!r} is not a number")
        if not 0.0 <= degree <= 1.0:
            raise DataError(f"summary {sid!r}: degree {degree!r} of {tid!r} outside [0,1]")
    return ConceptSummary(
        id=sid,
        extent={tid: float(degree) for tid, degree in extent.items()},
        intent=frozenset(parse_pair(key) for key in intent),
    )


def build_hierarchy(lat: Lattice) -> SummaryHierarchy:
    """Present a concept lattice as a summary hierarchy: the same nodes and
    covering edges, intent-size levels."""
    return SummaryHierarchy(lat.concepts, lat.covers)
